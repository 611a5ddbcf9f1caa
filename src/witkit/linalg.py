"""Dense complex linear algebra for few-qubit operators.

Everything targets square matrices of dimension 2 to 8: Kronecker
products, partial transposition, Hermitian eigenvalues (checked
Hermiticity, then numpy's ``eigvalsh``), and a numerical rank for small
families of real matrices or vectors.

Convention: the first tensor factor is the most significant subsystem,
so a computational basis index reads left to right as parties A, B, C.
All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .rng import complex_array, real_array, real_number, sequence, whole_number

HERMITICITY_TOL = 1e-10
RANK_TOL = 1e-8


def as_matrix(m) -> np.ndarray:
    """``m`` as a square complex ndarray read by :func:`rng.complex_array`, so
    a package value passed where a matrix goes raises ``ValueError`` naming
    its type; NaN and infinite entries are left to :func:`is_hermitian`."""
    a = complex_array(m, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it, for arrays built once and shared."""
    a.flags.writeable = False
    return a


class FrozenValue:
    """Base of the value types that hold arrays, directly or through their
    fields, each declared ``@dataclass(frozen=True, eq=False)``, whose
    ``__post_init__`` sets each field it converts once through :meth:`_hold`,
    making an array read-only.  Instances compare and hash by their
    compared fields, an array by shape and bytes and a float by its bytes
    (so -0.0 is not 0.0, and NaN equals NaN); another type compares unequal."""

    def _hold(self, name: str, value) -> None:
        object.__setattr__(self, name, read_only(value) if isinstance(value, np.ndarray) else value)

    def _value(self) -> tuple:
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                     else np.float64(v).tobytes() if isinstance(v, float) else v
                     for v in (getattr(self, f.name) for f in fields(self) if f.compare))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())


def is_hermitian(m) -> bool:
    """Every entry is finite and max entrywise |M - M^dagger| is at most
    ``HERMITICITY_TOL``.  A NaN or infinite entry makes it False without
    a floating-point warning."""
    return _is_hermitian(as_matrix(m))


def _is_hermitian(a: np.ndarray) -> bool:
    """:func:`is_hermitian` of a matrix :func:`as_matrix` already admitted,
    which it does not read again.  It compares the halves, whose gap cannot
    overflow, against half the tolerance: halving is exact above the
    subnormals, so the verdict is that of the whole entries."""
    if np.count_nonzero(np.isfinite(a)) != a.size:
        return False
    half = a / 2.0
    return float(np.abs(half - half.conj().T).max()) <= HERMITICITY_TOL / 2


def kron_all(factors) -> np.ndarray:
    """Kronecker product of a sequence (:func:`rng.sequence`) of matrices, left to right."""
    factors = sequence(factors, "kron_all's factors")
    if not factors:
        raise ValueError("kron_all needs at least one factor")
    out = as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, as_matrix(f))
    return out


def partial_transpose(m, party: int, local_dims) -> np.ndarray:
    """Transpose the indices of one subsystem only.

    ``local_dims`` lists the subsystem dimensions in tensor order, whole numbers
    (:func:`rng.whole_number`) of at least 1 whose product is the matrix dimension,
    and ``party`` indexes them; else ``ValueError``.  Applying the map twice
    returns the input exactly.
    """
    a = as_matrix(m)
    dims = [whole_number(d, "a local dimension", 1) for d in sequence(local_dims, "local dims")]
    total = math.prod(dims)
    if total != a.shape[0]:
        raise ValueError(f"local dims {dims} do not match matrix dim {a.shape[0]}")
    party = whole_number(party, "party")
    if party >= len(dims):
        raise ValueError(f"party index {party} out of range for {len(dims)} parties")
    t = a.reshape(dims + dims).swapaxes(party, len(dims) + party)
    return np.ascontiguousarray(t.reshape(total, total))


def hermitian_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, sorted ascending.

    Raises ``ValueError`` unless :func:`is_hermitian` holds, so a matrix
    with a NaN or infinite entry is rejected too.  No eigenvalue is NaN; one
    past the float range is +-inf.
    """
    a = as_matrix(m)
    if not _is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    return _symmetrized_eigenvalues(a)


def _symmetrized_eigenvalues(a: np.ndarray) -> np.ndarray:
    """``eigvalsh`` of (A + A^dagger) / 2 for a finite square complex array
    that is Hermitian within tolerance, sorted ascending, never NaN.

    The halves are added, so the average of entries near the float range
    stays finite.  When LAPACK still fails on such entries, with NaN
    eigenvalues or ``LinAlgError``, the average is scaled by its largest
    real or imaginary part first, and an eigenvalue past the range is
    +-inf."""
    half = a / 2.0
    h = half + half.conj().T
    try:
        vals = np.linalg.eigvalsh(h)
        if not math.isnan(sum(vals.tolist())):  # a NaN, or inf with -inf
            return vals
    except np.linalg.LinAlgError:
        pass
    scale = max(float(np.abs(h.real).max()), float(np.abs(h.imag).max()))
    with np.errstate(over="ignore"):
        return np.linalg.eigvalsh(h / scale) * scale


def numerical_rank(vectors, tol: float = RANK_TOL) -> int:
    """Dimension of the span of a family of real matrices or vectors.

    Counts the singular values of the stacked (flattened) family above
    ``tol`` (a real number of at least 0, :func:`rng.real_number`) times
    the largest one.  ``vectors`` is a nonempty sequence (:func:`rng.sequence`)
    of arrays of one shape, read together by :func:`rng.real_array`.
    """
    tol = real_number(tol, "tol", 0.0)
    items = sequence(vectors, "numerical_rank's family")
    if not items:
        raise ValueError("numerical_rank needs a nonempty family")
    if len({np.shape(v) for v in items}) > 1:
        raise ValueError("all inputs must have the same shape")
    stacked = real_array(items, "family entries").reshape(len(items), -1)
    svals = np.linalg.svd(stacked, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.sum(svals > tol * svals[0]))

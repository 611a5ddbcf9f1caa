"""Pauli product-basis transforms and reduced slice matrices.

A Hermitian operator M on n qubits expands as
``M = sum_idx coeffs[idx] * sigma_{i1} x ... x sigma_{in}`` with index
letters 0..3 standing for (identity, x, y, z).  Coefficients are stored
in this normalization (``coeffs[idx] = Tr(M sigma_idx) / 2^n``); several
conventional tables in the literature quote ``2^n`` times these values.

The "reduced" view drops every index that touches an identity factor:
for three qubits, fixing one party's index k in {0..3} and keeping the
other two in {1..3} gives four 3x3 slice matrices.  Operators measurable
in a single local setting have all slices proportional to one rank-one
matrix, which is what the setting-count certificates exploit.
:func:`slice_family` is the one read of that layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rng

SIGMA = tuple(linalg.read_only(np.array(m, dtype=complex)) for m in (
    [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]))

AXIS_LETTERS = "1xyz"  # serialization letter per index 0..3

PAIRINGS_3 = ("AB|C", "AC|B", "BC|A")
PAIRING_2 = "A|B"

SUPPORT_TRUNCATION = 1e-12
MAX_QUBITS = 3  # the package's sizes; their bases, built at import, take 16^(n+1) bytes each


def qubit_count(n, what: str) -> int:
    """``n`` as an int, the package's one size rule, which every value type
    applies before anything of size 2^n exists: ``ValueError`` unless ``n``
    is a whole number (:func:`rng.whole_number`) from 1 to ``MAX_QUBITS``."""
    try:
        count = rng.whole_number(n, what)
    except ValueError:
        count = 0
    if not 1 <= count <= MAX_QUBITS:
        raise ValueError(f"{what} takes 1 to {MAX_QUBITS} qubits, got {n!r}")
    return count


def qubits_of(dim: int, what: str) -> int:
    """The qubit count n of a dimension 2^n, by :func:`qubit_count`; a
    dimension that is not a power of two raises ``ValueError``."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"{what} needs a power-of-two dimension, got {dim}")
    return qubit_count(dim.bit_length() - 1, what)


def _product_bases() -> tuple:
    """The read-only bases of 1 to ``MAX_QUBITS`` qubits, in order."""
    bases = [np.stack(SIGMA)]
    while len(bases) < MAX_QUBITS:
        out = bases[-1]
        bases.append(np.einsum("aij,bkl->abikjl", out, bases[0]).reshape(
            out.shape[0] * 4, out.shape[1] * 2, out.shape[1] * 2))
    return tuple(map(linalg.read_only, bases))


_BASES = _product_bases()


def product_basis(n_qubits: int) -> np.ndarray:
    """All 4^n Pauli tensor products, shape (4^n, 2^n, 2^n), read-only and built
    at import; n is checked by :func:`qubit_count`."""
    return _BASES[qubit_count(n_qubits, "a Pauli product basis") - 1]


@dataclass(frozen=True, eq=False)
class PauliCoefficients(linalg.FrozenValue):
    """Real coefficient tensor of a Hermitian operator, shape (4,)*n.

    ``n_qubits`` is held as :func:`qubit_count` returns it, and ``coeffs``
    is read by :func:`rng.real_array`, so a coefficient that is not a finite
    real number raises ``ValueError``.  A frozen value holding its own
    read-only copy of the tensor, so its checks stay true.
    """

    n_qubits: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = qubit_count(self.n_qubits, "a coefficient tensor")
        c = rng.real_array(self.coeffs, "Pauli coefficients").copy()
        if c.shape != (4,) * n:
            raise ValueError(f"expected shape {(4,) * n}, got {c.shape}")
        self._hold("n_qubits", n)
        self._hold("coeffs", c)

    def support(self):
        """Index tuples of coefficients above ``SUPPORT_TRUNCATION`` in size."""
        big = np.abs(self.coeffs) > SUPPORT_TRUNCATION
        return [tuple(idx) for idx in np.argwhere(big)]


def require_coefficients(c) -> PauliCoefficients:
    """``c`` itself if it is a ``PauliCoefficients``, else ``ValueError``: the one
    check of the functions typed on coefficients, which read ``c.coeffs``."""
    if not isinstance(c, PauliCoefficients):
        raise ValueError(f"expected PauliCoefficients, got {type(c).__name__}")
    return c


def hermitian(m) -> np.ndarray:
    """``m`` admitted by the one raw-operator rule: :func:`linalg.as_matrix`, a
    dimension 2^n by :func:`qubits_of`, then :func:`linalg.is_hermitian`; else ``ValueError``."""
    a = linalg.as_matrix(m)
    qubits_of(a.shape[0], "an operator")
    if not linalg._is_hermitian(a):
        raise ValueError("operator is not Hermitian within tolerance or has a non-finite entry")
    return a


def expand(a: np.ndarray) -> PauliCoefficients:
    """The Pauli expansion of a matrix :func:`hermitian` admitted, unchecked.  Each product
    is a monomial unitary, so a coefficient's imaginary part is at most
    ``HERMITICITY_TOL / 2`` plus rounding, and is dropped."""
    n = a.shape[0].bit_length() - 1
    raw = np.einsum("kij,ji->k", product_basis(n), a) / a.shape[0]
    return PauliCoefficients(n, raw.real.reshape((4,) * n))


def to_pauli(m) -> PauliCoefficients:
    """Expand a matrix in the Pauli product basis once :func:`hermitian` admits it."""
    return expand(hermitian(m))


def from_pauli(c: PauliCoefficients) -> np.ndarray:
    """Rebuild the operator from its coefficient tensor; ``c`` is checked by
    :func:`require_coefficients`."""
    c = require_coefficients(c)
    basis = product_basis(c.n_qubits)
    return np.einsum("k,kij->ij", c.coeffs.ravel(), basis)


def index_string(idx) -> str:
    return "".join(AXIS_LETTERS[i] for i in idx)


# the index strings of 1 to MAX_QUBITS qubits, in the order of a flat tensor
_INDEX_STRINGS = tuple(tuple(map(index_string, np.ndindex((4,) * n)))
                       for n in range(1, MAX_QUBITS + 1))


def to_sparse_map(c: PauliCoefficients) -> dict:
    """Sparse {index-string: value} map of the coefficient support, in the
    order of :meth:`PauliCoefficients.support`; ``c`` is checked by
    :func:`require_coefficients`."""
    c = require_coefficients(c)
    flat = c.coeffs.ravel()
    big = np.flatnonzero(np.abs(flat) > SUPPORT_TRUNCATION)
    names = _INDEX_STRINGS[c.n_qubits - 1]
    return {names[i]: value for i, value in zip(big.tolist(), flat[big].tolist())}


# the slice layout, kept here only: by qubit count and pairing, the flat
# indices of each family's (k, 3, 3) slices
_FLAT3 = linalg.read_only(np.arange(64).reshape(4, 4, 4))
_SLICE_INDEX = {key: linalg.read_only(np.ascontiguousarray(index)) for key, index in {
    (3, "AB|C"): _FLAT3[1:, 1:].transpose(2, 0, 1),
    (3, "AC|B"): _FLAT3[1:, :, 1:].transpose(1, 0, 2),
    (3, "BC|A"): _FLAT3[:, 1:, 1:],
    (2, PAIRING_2): np.arange(16).reshape(4, 4)[None, 1:, 1:],
}.items()}


def slice_family(c: PauliCoefficients, pairing: str) -> np.ndarray:
    """The reduced slice matrices of a named pairing as one new (k, 3, 3)
    float array; ``c`` is checked by :func:`require_coefficients`.

    For three qubits (``PAIRINGS_3``), slice k fixes the sliced party's
    index to k (k = 0 is the identity slice) and keeps the paired parties'
    indices in {1..3}, so k runs over 4.  Two qubits (``PAIRING_2``) have
    the single reduced matrix, k = 1.  A pairing that ``c``'s qubit count
    does not have raises ``ValueError``.
    """
    c = require_coefficients(c)
    try:
        index = _SLICE_INDEX[c.n_qubits, pairing]
    except (KeyError, TypeError):  # TypeError: an unhashable pairing
        raise ValueError(f"no pairing {pairing!r} on {c.n_qubits} qubits: three qubits have "
                         f"{PAIRINGS_3}, two {PAIRING_2!r}") from None
    return c.coeffs.ravel()[index]

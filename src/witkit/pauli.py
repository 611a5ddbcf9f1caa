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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

AXIS_LETTERS = "1xyz"  # serialization letter per index 0..3

PAIRINGS_3 = ("AB|C", "AC|B", "BC|A")
PAIRING_2 = "A|B"

SUPPORT_TRUNCATION = 1e-12

_BASIS_CACHE: dict[int, np.ndarray] = {}


def product_basis(n_qubits: int) -> np.ndarray:
    """All 4^n Pauli tensor products, shape (4^n, 2^n, 2^n)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits not in _BASIS_CACHE:
        mats = np.stack(SIGMA)
        out = mats
        for _ in range(n_qubits - 1):
            out = np.einsum("aij,bkl->abikjl", out, mats).reshape(
                out.shape[0] * 4, out.shape[1] * 2, out.shape[1] * 2)
        _BASIS_CACHE[n_qubits] = out
    return _BASIS_CACHE[n_qubits]


@dataclass
class PauliCoefficients:
    """Real coefficient tensor of a Hermitian operator, shape (4,)*n."""

    n_qubits: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (4,) * self.n_qubits:
            raise ValueError(
                f"expected shape {(4,) * self.n_qubits}, got {c.shape}")
        self.coeffs = c

    def support(self, threshold: float = SUPPORT_TRUNCATION):
        """Index tuples with coefficient magnitude above ``threshold``."""
        return [tuple(idx) for idx in np.argwhere(np.abs(self.coeffs) > threshold)]


def to_pauli(m, n_qubits: int | None = None) -> PauliCoefficients:
    """Expand a Hermitian matrix in the Pauli product basis."""
    a = linalg.as_matrix(m)
    dim = a.shape[0]
    if n_qubits is None:
        n_qubits = int(dim).bit_length() - 1
    if 2 ** n_qubits != dim:
        raise ValueError(f"matrix dim {dim} is not 2^{n_qubits}")
    if not linalg.is_hermitian(a):
        raise ValueError("operator is not Hermitian within tolerance")
    basis = product_basis(n_qubits)
    raw = np.einsum("kij,ji->k", basis, a) / dim
    if np.abs(raw.imag).max() > 1e-10:
        raise ValueError("coefficients of a Hermitian operator must be real")
    return PauliCoefficients(n_qubits, raw.real.reshape((4,) * n_qubits))


def from_pauli(c: PauliCoefficients) -> np.ndarray:
    """Rebuild the operator from its coefficient tensor."""
    basis = product_basis(c.n_qubits)
    return np.einsum("k,kij->ij", c.coeffs.ravel(), basis)


def index_string(idx) -> str:
    return "".join(AXIS_LETTERS[i] for i in idx)


def to_sparse_map(c: PauliCoefficients,
                  threshold: float = SUPPORT_TRUNCATION) -> dict:
    """Sparse {index-string: value} map of the coefficient support."""
    return {index_string(idx): float(c.coeffs[idx]) for idx in c.support(threshold)}


@dataclass
class SliceFamily:
    """Reduced 3x3 slice matrices of a coefficient tensor.

    For three qubits, ``matrices[k]`` fixes the sliced party's index to k
    (k = 0 is the identity slice) and keeps the paired parties' indices
    in {1..3}.  For two qubits there is a single reduced matrix.
    """

    pairing: str
    matrices: list

    def __post_init__(self):
        self.matrices = [np.asarray(m, dtype=float) for m in self.matrices]


def slice_family(c: PauliCoefficients, pairing: str) -> SliceFamily:
    """Slice matrices for a named pairing such as ``"AB|C"``."""
    t = c.coeffs
    if c.n_qubits == 2:
        if pairing not in (PAIRING_2, "AB"):
            raise ValueError(f"two-qubit pairing must be {PAIRING_2!r}")
        return SliceFamily(PAIRING_2, [t[1:4, 1:4]])
    if c.n_qubits != 3:
        raise ValueError("slice families are defined for 2 or 3 qubits")
    r = slice(1, 4)
    if pairing == "AB|C":
        mats = [t[r, r, k] for k in range(4)]
    elif pairing == "AC|B":
        mats = [t[r, k, r] for k in range(4)]
    elif pairing == "BC|A":
        mats = [t[k, r, r] for k in range(4)]
    else:
        raise ValueError(f"pairing must be one of {PAIRINGS_3}")
    return SliceFamily(pairing, mats)


def bloch_vector(projector) -> np.ndarray:
    """Pauli components (1/2, s1, s2, s3) of a rank-one qubit projector.

    The complementary projector maps to (1/2, -s1, -s2, -s3).
    """
    p = linalg.as_matrix(projector)
    if p.shape != (2, 2):
        raise ValueError("expected a 2x2 projector")
    if not linalg.is_hermitian(p):
        raise ValueError("projector must be Hermitian")
    if abs(complex(np.trace(p)) - 1.0) > 1e-8 or np.abs(p @ p - p).max() > 1e-8:
        raise ValueError("input is not a rank-one projector")
    comps = [float(np.real(np.trace(p @ SIGMA[i]))) / 2.0 for i in range(4)]
    return np.array(comps)

"""Pure states, density matrices, and noise / sampling models for 1-3 qubits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .rng import borrow, complex_array, real_number

NORM_TOL = 1e-12
PSD_TOL = 1e-9


def _fix_global_phase(amps: np.ndarray) -> np.ndarray:
    # the first amplitude above NORM_TOL (a normalized state has one) made
    # exactly |lead|, a real positive lead kept as is: idempotent, and fresh
    i = np.nonzero(np.abs(amps) > NORM_TOL)[0][0]
    lead = amps[i]
    if lead.imag == 0.0 and lead.real > 0.0:
        return amps.copy()
    fixed = amps * (np.conj(lead) / abs(lead))
    fixed[i] = abs(lead)
    return fixed


@dataclass(frozen=True, eq=False)
class PureState(linalg.FrozenValue):
    """Normalized state vector on ``n_qubits`` (``pauli.qubit_count``) qubits:
    a frozen value whose read-only amplitudes (:func:`rng.complex_array`) have the
    global phase fixed so that the first nonzero amplitude is real and nonnegative.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = pauli.qubit_count(self.n_qubits, "a pure state")
        amps = complex_array(self.amplitudes, "amplitudes").ravel()
        if amps.size != 2 ** n:
            raise ValueError(f"expected 2^{n} amplitudes, got {amps.size}")
        if not np.isfinite(amps).all():
            raise ValueError("state has non-finite amplitudes")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized (norm {norm})")
        self._hold("n_qubits", n)
        self._hold("amplitudes", _fix_global_phase(amps))

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.projector())


@dataclass(frozen=True, eq=False)
class DensityMatrix(linalg.FrozenValue):
    """Trace-one PSD Hermitian matrix (:func:`linalg.as_matrix`) on ``n_qubits``
    (``pauli.qubit_count``); a frozen value holding a read-only copy of it."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = pauli.qubit_count(self.n_qubits, "a density matrix")
        mat = linalg.as_matrix(self.matrix).copy()
        if mat.shape != (2 ** n,) * 2:
            raise ValueError(f"expected a 2^{n} x 2^{n} matrix, got {mat.shape}")
        # finiteness and Hermiticity are checked once, by is_hermitian's kernel
        if not linalg._is_hermitian(mat):
            raise ValueError("density matrix is not Hermitian within tolerance "
                             "or has a non-finite entry")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if linalg._symmetrized_eigenvalues(mat)[0] < -PSD_TOL:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        self._hold("n_qubits", n)
        self._hold("matrix", mat)


def as_state(x) -> DensityMatrix:
    """``x`` read as a state, the one admission of every state argument: a
    ``DensityMatrix`` passes as is, a ``PureState`` becomes the
    ``DensityMatrix`` of its projector, and any other matrix is validated as
    a ``DensityMatrix`` (finite, Hermitian, trace one, positive
    semidefinite) on the qubits its dimension holds, or ``ValueError``."""
    if isinstance(x, DensityMatrix):
        return x
    if isinstance(x, PureState):
        return x.density_matrix()
    mat = linalg.as_matrix(x)
    return DensityMatrix(pauli.qubits_of(mat.shape[0], "a state"), mat)


def schmidt_state(a: float, b: float) -> PureState:
    """Two-qubit state a|01> + b|10>: a and b real numbers of at least 0
    (:func:`rng.real_number`) with a^2 + b^2 = 1 within 1e-10."""
    a = real_number(a, "Schmidt coefficient a", 0.0)
    b = real_number(b, "Schmidt coefficient b", 0.0)
    if abs(a * a + b * b - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must satisfy a^2 + b^2 = 1")
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = a
    amps[0b10] = b
    return PureState(2, amps)


def singlet_state() -> PureState:
    """The singlet (|01> - |10>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = 1.0 / math.sqrt(2.0)
    amps[0b10] = -1.0 / math.sqrt(2.0)
    return PureState(2, amps)


def ghz_state() -> PureState:
    """(|000> + |111>)/sqrt(2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b111] = 1.0 / math.sqrt(2.0)
    return PureState(3, amps)


def w_state() -> PureState:
    """(|100> + |010> + |001>)/sqrt(3)."""
    amps = np.zeros(8, dtype=complex)
    amps[0b100] = amps[0b010] = amps[0b001] = 1.0 / math.sqrt(3.0)
    return PureState(3, amps)


# the pure states named by ``threshold --psi`` tokens and by the witness
# registry's ``psi`` field
NAMED_STATES = {
    "ghz": ghz_state,
    "w": w_state,
    "schmidt": lambda: schmidt_state(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    "singlet": singlet_state,
}


def slocc_normal_form(l0: float, l1: float, l2: float, l3: float, l4: float,
                      theta: float = 0.0) -> PureState:
    """Three-qubit normal form l0|000> + l1 e^{i theta}|100> + l2|101> + l3|110> + l4|111>.

    With ``l4 = theta = 0`` this is the normal form of the W class; with
    all five coefficients free it covers the GHZ class.  l0-l4 are real
    numbers of at least 0 (:func:`rng.real_number`) whose squares sum to 1
    within 1e-10, and theta is any real number.
    """
    l0, l1, l2, l3, l4 = lams = [real_number(v, f"normal-form coefficient l{i}", 0.0)
                                 for i, v in enumerate((l0, l1, l2, l3, l4))]
    theta = real_number(theta, "theta")
    if abs(float(np.sum(np.array(lams) ** 2)) - 1.0) > 1e-10:
        raise ValueError("normal-form coefficients must have unit square sum")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = l0
    amps[0b100] = l1 * np.exp(1j * theta)
    amps[0b101] = l2
    amps[0b110] = l3
    amps[0b111] = l4
    return PureState(3, amps)


def white_noise_mix(psi, p: float) -> DensityMatrix:
    """p rho + (1 - p) * identity / 2^n of the state ``psi``; p is a real
    number in [0, 1] (:func:`rng.real_number`), checked first.  A
    ``PureState`` mixes its projector p |psi><psi| as it is, so the mix is
    validated once, as the returned ``DensityMatrix``; any other ``psi`` is
    read through :func:`as_state` first."""
    p = real_number(p, "mixing weight p", 0.0, 1.0)
    if isinstance(psi, PureState):
        n, rho = psi.n_qubits, psi.projector()
    else:
        state = as_state(psi)
        n, rho = state.n_qubits, state.matrix
    dim = 2 ** n
    mat = p * rho + (1.0 - p) * np.eye(dim) / dim
    return DensityMatrix(n, mat)


def _haar_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_product_state(n_qubits: int, seed: int) -> PureState:
    """Tensor product of independent Haar-random single-qubit states."""
    n = pauli.qubit_count(n_qubits, "a product state")
    rng = borrow(seed)
    amps = np.array([1.0], dtype=complex)
    for _ in range(n):
        # the Kronecker product of two vectors, as an outer product
        amps = (amps[:, None] * _haar_qubit(rng)).ravel()
    return PureState(n, amps)


# per cut, the einsum of a product state from its single qubit and its pair
_CUT_PRODUCTS = {"A-BC": "a,bc->abc", "B-AC": "b,ac->abc", "C-AB": "c,ab->abc"}
BISEPARABLE_CUTS = tuple(_CUT_PRODUCTS)
BISEPARABLE_TERMS = 4


def _random_cut_product(partition: str, rng: np.random.Generator) -> np.ndarray:
    single = _haar_qubit(rng)
    pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pair = (pair / np.linalg.norm(pair)).reshape(2, 2)
    # einsum rounds each complex product's real and imaginary parts as two
    # products and a sum; numpy's vectorized multiply may fuse them, so a
    # broadcast product changes the states' bytes
    return np.einsum(_CUT_PRODUCTS[partition], single, pair).ravel()


def random_biseparable_state(partition: str, seed: int) -> DensityMatrix:
    """Convex mixture of pure states that are product across one cut.

    Mixes ``BISEPARABLE_TERMS`` Haar-random pure biseparable states with
    Dirichlet weights, so the sample is not limited to pure extreme points.
    The result has a positive partial transpose across the named cut.
    """
    if partition not in BISEPARABLE_CUTS:
        raise ValueError(f"partition must be one of {BISEPARABLE_CUTS}")
    rng = borrow(seed)
    weights = rng.dirichlet(np.ones(BISEPARABLE_TERMS))
    mat = np.zeros((8, 8), dtype=complex)
    for w in weights:
        amps = _random_cut_product(partition, rng)
        mat += w * np.outer(amps, amps.conj())
    return DensityMatrix(3, mat)

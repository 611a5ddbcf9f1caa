"""Pure states, density matrices, and noise / sampling models for 1-3 qubits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .rng import stream

NORM_TOL = 1e-12
PSD_TOL = 1e-9


def _fix_global_phase(amps: np.ndarray) -> np.ndarray:
    # convention: first nonzero amplitude real and nonnegative
    nz = np.nonzero(np.abs(amps) > NORM_TOL)[0]
    if nz.size == 0:
        return amps
    lead = amps[nz[0]]
    return amps * (np.conj(lead) / abs(lead))


@dataclass
class PureState:
    """Normalized state vector on ``n_qubits`` qubits.

    Amplitudes are stored with the global phase fixed so that the first
    nonzero amplitude is real and nonnegative.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).ravel()
        if self.n_qubits < 1 or amps.size != 2 ** self.n_qubits:
            raise ValueError(
                f"expected 2^{self.n_qubits} amplitudes, got {amps.size}")
        if not np.isfinite(amps).all():
            raise ValueError("state has non-finite amplitudes")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized (norm {norm})")
        self.amplitudes = _fix_global_phase(amps)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.projector())


@dataclass
class DensityMatrix:
    """Trace-one positive-semidefinite Hermitian operator on ``n_qubits``."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** self.n_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has non-finite entries")
        if linalg.hermiticity_defect(mat) > linalg.HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} is not 1")
        if linalg.hermitian_eigenvalues(mat)[0] < -PSD_TOL:
            raise ValueError("density matrix has an eigenvalue below -1e-9")
        self.matrix = mat


def schmidt_state(a: float, b: float) -> PureState:
    """Two-qubit state a|01> + b|10> with nonnegative Schmidt coefficients."""
    if a < 0 or b < 0:
        raise ValueError("Schmidt coefficients must be nonnegative")
    if abs(a * a + b * b - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must satisfy a^2 + b^2 = 1")
    amps = np.zeros(4, dtype=complex)
    amps[0b01] = a
    amps[0b10] = b
    return PureState(2, amps)


def bell_psi_minus() -> PureState:
    """The Bell state (|00> - |11>)/sqrt(2)."""
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = 1.0 / math.sqrt(2.0)
    amps[0b11] = -1.0 / math.sqrt(2.0)
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
    all five coefficients free it covers the GHZ class.
    """
    lams = np.array([l0, l1, l2, l3, l4], dtype=float)
    if np.any(lams < 0):
        raise ValueError("normal-form coefficients must be nonnegative")
    if abs(float(np.sum(lams ** 2)) - 1.0) > 1e-10:
        raise ValueError("normal-form coefficients must have unit square sum")
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = l0
    amps[0b100] = l1 * np.exp(1j * theta)
    amps[0b101] = l2
    amps[0b110] = l3
    amps[0b111] = l4
    return PureState(3, amps)


def white_noise_mix(psi: PureState, p: float) -> DensityMatrix:
    """p |psi><psi| + (1 - p) * identity / 2^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight p={p} outside [0, 1]")
    dim = 2 ** psi.n_qubits
    mat = p * psi.projector() + (1.0 - p) * np.eye(dim) / dim
    return DensityMatrix(psi.n_qubits, mat)


def _haar_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_product_state(n_qubits: int, seed: int) -> PureState:
    """Tensor product of independent Haar-random single-qubit states."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    rng = stream(seed)
    amps = np.array([1.0], dtype=complex)
    for _ in range(n_qubits):
        amps = np.kron(amps, _haar_qubit(rng))
    return PureState(n_qubits, amps)


BISEPARABLE_CUTS = ("A-BC", "B-AC", "C-AB")


def _random_cut_product(partition: str, rng: np.random.Generator) -> np.ndarray:
    single = _haar_qubit(rng)
    pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pair = (pair / np.linalg.norm(pair)).reshape(2, 2)
    if partition == "A-BC":
        amps = np.einsum("a,bc->abc", single, pair)
    elif partition == "B-AC":
        amps = np.einsum("b,ac->abc", single, pair)
    elif partition == "C-AB":
        amps = np.einsum("c,ab->abc", single, pair)
    else:
        raise ValueError(f"unknown partition {partition!r}")
    return amps.ravel()


def random_biseparable_state(partition: str, seed: int,
                             n_terms: int = 4) -> DensityMatrix:
    """Convex mixture of pure states that are product across one cut.

    Mixes ``n_terms`` Haar-random pure biseparable states with Dirichlet
    weights, so the sample is not restricted to pure-state extreme points.
    The result has a positive partial transpose across the named cut.
    """
    if partition not in BISEPARABLE_CUTS:
        raise ValueError(f"partition must be one of {BISEPARABLE_CUTS}")
    rng = stream(seed)
    weights = rng.dirichlet(np.ones(n_terms))
    mat = np.zeros((8, 8), dtype=complex)
    for w in weights:
        amps = _random_cut_product(partition, rng)
        mat += w * np.outer(amps, amps.conj())
    return DensityMatrix(3, mat)

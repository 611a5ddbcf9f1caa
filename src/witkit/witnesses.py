"""Witness catalog, expectation values, verdicts, and noise thresholds.

A witness W is Hermitian with Tr(W rho) >= 0 on all separable rho, so a
negative measured expectation certifies entanglement.  Each catalog
witness carries ordered verdict rules mapping an expectation value to a
classification label; values exactly at a rule threshold resolve to the
weaker claim.  :func:`catalog` resolves the catalog names through the
witness registry, ``settings.REGISTRY``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, states

LABEL_NO_DETECTION = "no-detection"
LABEL_ENTANGLED = "entangled"
LABEL_TRIPARTITE = "genuinely-tripartite"
LABEL_GHZ_CLASS = "GHZ-class"


@dataclass
class Witness:
    """Hermitian witness operator with classification rules.

    ``verdict_rules`` is an ordered tuple of (threshold, label) pairs with
    ascending thresholds; the first rule whose threshold strictly exceeds
    the value supplies the label, and values >= 0 mean no detection.
    """

    name: str
    operator: np.ndarray
    n_qubits: int
    verdict_rules: tuple

    def __post_init__(self):
        op = linalg.as_matrix(self.operator)
        if op.shape[0] != 2 ** self.n_qubits:
            raise ValueError("operator dimension does not match qubit count")
        if not linalg.is_hermitian(op):
            raise ValueError("witness operator must be Hermitian")
        self.operator = op
        self.verdict_rules = tuple(
            (float(t), str(label)) for t, label in self.verdict_rules)


@dataclass
class Verdict:
    value: float
    label: str


def witness_phi(alpha: float, beta: float) -> Witness:
    """Partial transpose of the projector onto alpha|00> + beta|11>.

    Detects two-qubit entangled states whenever the expectation is
    negative; equal to
    alpha^2 |00><00| + beta^2 |11><11| + alpha beta (|01><10| + |10><01|).
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("alpha and beta must be finite")
    if abs(alpha ** 2 + beta ** 2 - 1.0) > 1e-10:
        raise ValueError("alpha^2 + beta^2 must equal 1")
    op = np.zeros((4, 4), dtype=complex)
    op[0b00, 0b00] = alpha ** 2
    op[0b11, 0b11] = beta ** 2
    op[0b01, 0b10] = op[0b10, 0b01] = alpha * beta
    return Witness(f"phi({alpha:g},{beta:g})", op, 2,
                   ((0.0, LABEL_ENTANGLED),))


def witness_w0() -> Witness:
    """The two-qubit witness at alpha = -beta = 1/sqrt(2)."""
    w = witness_phi(1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
    return Witness("w0", w.operator, 2, w.verdict_rules)


def witness_ghz() -> Witness:
    """(3/4) * identity - |GHZ><GHZ|; negative values certify the GHZ class."""
    op = 0.75 * np.eye(8) - states.ghz_state().projector()
    return Witness("ghz", op, 3, ((0.0, LABEL_GHZ_CLASS),))


def witness_w1() -> Witness:
    """(2/3) * identity - |W><W|; negative values certify genuine tripartite entanglement."""
    op = (2.0 / 3.0) * np.eye(8) - states.w_state().projector()
    return Witness("w1", op, 3, ((0.0, LABEL_TRIPARTITE),))


def witness_w2() -> Witness:
    """(1/2) * identity - |GHZ><GHZ| with a two-step verdict rule.

    Values in [-1/4, 0) certify genuine tripartite entanglement (W or GHZ
    class); values below -1/4 certify the GHZ class.
    """
    op = 0.5 * np.eye(8) - states.ghz_state().projector()
    return Witness("w2", op, 3,
                   ((-0.25, LABEL_GHZ_CLASS), (0.0, LABEL_TRIPARTITE)))


def catalog(name: str, alpha: float | None = None,
            beta: float | None = None) -> Witness:
    """Look up a catalog witness by CLI name: w0, phi, ghz, w1, w2.

    The names and builders live in the registry ``settings.REGISTRY``.
    """
    from .settings import REGISTRY  # settings imports this module
    if name not in REGISTRY:
        raise KeyError(f"unknown witness {name!r}")
    return REGISTRY[name].witness(alpha, beta)


def _operator_of(x) -> np.ndarray:
    return linalg.as_matrix(getattr(x, "matrix", getattr(x, "operator", x)))


def expectation(w: Witness, rho) -> float:
    """Tr(W rho) as a real number."""
    op = _operator_of(w)
    mat = _operator_of(rho)
    if op.shape != mat.shape:
        raise ValueError("witness and state dimensions do not match")
    val = complex(np.trace(op @ mat))
    if abs(val.imag) > 1e-10:
        raise ValueError("expectation value has a nonreal part")
    return float(val.real)


def classify(w: Witness, value: float) -> Verdict:
    """Apply the witness verdict rules to a measured or computed value."""
    if not math.isfinite(value):
        raise ValueError(f"cannot classify the non-finite value {value}")
    for threshold, label in w.verdict_rules:
        if value < threshold:
            return Verdict(float(value), label)
    return Verdict(float(value), LABEL_NO_DETECTION)


_PARTY_INDEX = {"A": 0, "B": 1, "C": 2}


def _party_from_partition(partition: str, n_qubits: int) -> int:
    """Resolve a partition token to the party index that gets transposed."""
    token = partition.strip()
    if "-" in token:
        token = token.split("-", 1)[0]
    if token not in _PARTY_INDEX or _PARTY_INDEX[token] >= n_qubits:
        raise ValueError(f"invalid partition {partition!r} for {n_qubits} qubits")
    return _PARTY_INDEX[token]


def ppt_check(rho, partition: str = "B"):
    """Minimum eigenvalue of the partial transpose across a cut.

    Returns ``(min_eigenvalue, is_npt)``; a negative eigenvalue (below
    -1e-9) certifies entanglement across the cut.  Partitions are named
    by the transposed party: "B" or equivalently "B-AC".
    """
    mat = _operator_of(rho)
    n_qubits = int(mat.shape[0]).bit_length() - 1
    party = _party_from_partition(partition, n_qubits)
    pt = linalg.partial_transpose(mat, party, [2] * n_qubits)
    vals = linalg.hermitian_eigenvalues(pt)
    min_eig = float(vals[0])
    return min_eig, min_eig < -1e-9


def lambda_minus(a: float, b: float, p: float) -> float:
    """(1 - p)/4 - a*b*p, the one possibly negative eigenvalue of the
    partially transposed white-noise mixture of a|01> + b|10|.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Schmidt coefficients must be finite")
    if abs(a * a + b * b - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must satisfy a^2 + b^2 = 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight p={p} outside [0, 1]")
    return (1.0 - p) / 4.0 - a * b * p


def noise_threshold(w: Witness, psi: states.PureState) -> float:
    """Smallest p at which p|psi><psi| + (1-p) * identity/2^n is detected.

    The expectation is affine in p, so the threshold follows in closed
    form from the two endpoint evaluations.  Raises if the witness is
    never negative on this noise family.
    """
    dim = 2 ** psi.n_qubits
    at_noise = float(np.real(np.trace(_operator_of(w)))) / dim
    at_state = expectation(w, psi.projector())
    if at_state >= 0.0:
        raise ValueError(
            f"witness {w.name} is never negative on this noise family")
    if at_noise <= 0.0:
        return 0.0
    return at_noise / (at_noise - at_state)

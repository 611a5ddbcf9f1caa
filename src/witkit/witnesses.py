"""Witness catalog, expectation values, verdicts, and noise thresholds.

A witness W is Hermitian with Tr(W rho) >= 0 on all separable rho, so a
negative measured expectation certifies entanglement.  Each catalog
witness carries ordered verdict rules mapping an expectation value to a
classification label; values within the witness's margin of a rule
threshold resolve to the weaker claim.  :func:`catalog` resolves the
catalog names through the witness registry, ``settings.REGISTRY``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg, pauli, states
from .rng import real_number, sequence

LABEL_NO_DETECTION = "no-detection"
LABEL_ENTANGLED = "entangled"
LABEL_TRIPARTITE = "genuinely-tripartite"
LABEL_GHZ_CLASS = "GHZ-class"


@dataclass(frozen=True, eq=False)
class Witness(linalg.FrozenValue):
    """Hermitian witness operator with classification rules.

    ``verdict_rules`` is a sequence of (threshold, str label) pairs, the
    thresholds real numbers of at most 0 (:func:`rng.real_number`) ascending
    strictly, else ``ValueError``; the first rule whose threshold exceeds
    the value by more than ``margin`` supplies the label, and values at or
    above -``margin`` mean no detection.  A frozen value holding
    ``pauli.qubit_count(n_qubits)``, the rules as (float, str) pairs and a
    read-only copy of its operator, so its checks stay true.

    ``margin`` is the verdict margin, set once here: ||W||_F 2^n (2
    ``states.PSD_TOL`` + ``linalg.HERMITICITY_TOL``), about 3e-8 for w1.
    An admitted state may have eigenvalues down to -``PSD_TOL`` and
    Hermiticity gaps up to ``HERMITICITY_TOL``, so its value may differ by
    about that much from the value of the nearest true state, and a label
    inside that band would not be supported.
    """

    name: str
    operator: np.ndarray
    n_qubits: int
    verdict_rules: tuple
    margin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = pauli.qubit_count(self.n_qubits, "a witness")
        op = linalg.as_matrix(self.operator).copy()
        if op.shape[0] != 2 ** n:
            raise ValueError("operator dimension does not match qubit count")
        if not linalg._is_hermitian(op):
            raise ValueError("witness operator must be Hermitian")
        pairs = [sequence(r, "a rule") for r in sequence(self.verdict_rules, "verdict rules")]
        if not all(len(p) == 2 and isinstance(p[1], str) for p in pairs):
            raise ValueError(f"verdict rules are (threshold, str label) pairs, got {pairs}")
        rules = tuple((real_number(t, "a threshold", maximum=0.0), label) for t, label in pairs)
        if any(a >= b for (a, _), (b, _) in zip(rules, rules[1:])):
            raise ValueError(f"verdict thresholds must ascend strictly, got {rules}")
        self._hold("n_qubits", n)
        self._hold("operator", op)
        self._hold("verdict_rules", rules)
        self._hold("margin", float(np.linalg.norm(op)) * 2 ** n
                   * (2.0 * states.PSD_TOL + linalg.HERMITICITY_TOL))


@dataclass(frozen=True)
class Verdict:
    value: float
    label: str


def witness_phi(alpha: float, beta: float) -> Witness:
    """Partial transpose of the projector onto alpha|00> + beta|11>.

    Detects two-qubit entangled states whenever the expectation is
    negative; equal to
    alpha^2 |00><00| + beta^2 |11><11| + alpha beta (|01><10| + |10><01|),
    for real numbers alpha and beta (:func:`rng.real_number`) with
    alpha^2 + beta^2 = 1 within 1e-10.
    """
    alpha = real_number(alpha, "alpha")
    beta = real_number(beta, "beta")
    # a value above 2 in size fails the unit check anyway, and its square
    # could overflow a float
    if max(abs(alpha), abs(beta)) > 2.0 or abs(alpha ** 2 + beta ** 2 - 1.0) > 1e-10:
        raise ValueError("alpha^2 + beta^2 must equal 1")
    op = np.zeros((4, 4), dtype=complex)
    op[0b00, 0b00] = alpha ** 2
    op[0b11, 0b11] = beta ** 2
    op[0b01, 0b10] = op[0b10, 0b01] = alpha * beta
    return Witness(f"phi({alpha:g},{beta:g})", op, 2,
                   ((0.0, LABEL_ENTANGLED),))


# the parameter-free witnesses, each one value built at import and shared
# by every call (a Witness is frozen and holds its operator read-only)
W0_ANGLES = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))  # phi's (alpha, beta) at w0
_W0 = Witness("w0", witness_phi(*W0_ANGLES).operator, 2, ((0.0, LABEL_ENTANGLED),))
_GHZ = Witness("ghz", 0.75 * np.eye(8) - states.ghz_state().projector(), 3,
               ((0.0, LABEL_GHZ_CLASS),))
_W1 = Witness("w1", (2.0 / 3.0) * np.eye(8) - states.w_state().projector(), 3,
              ((0.0, LABEL_TRIPARTITE),))
_W2 = Witness("w2", 0.5 * np.eye(8) - states.ghz_state().projector(), 3,
              ((-0.25, LABEL_GHZ_CLASS), (0.0, LABEL_TRIPARTITE)))


def witness_w0() -> Witness:
    """The shared two-qubit witness at alpha = -beta = 1/sqrt(2)."""
    return _W0


def witness_ghz() -> Witness:
    """The shared (3/4) * identity - |GHZ><GHZ|; negative values certify the GHZ class."""
    return _GHZ


def witness_w1() -> Witness:
    """The shared (2/3) * identity - |W><W|; negative values certify genuine
    tripartite entanglement."""
    return _W1


def witness_w2() -> Witness:
    """The shared (1/2) * identity - |GHZ><GHZ|, with a two-step verdict rule.

    Values in [-1/4, 0) certify genuine tripartite entanglement (W or GHZ
    class); values below -1/4 certify the GHZ class.
    """
    return _W2


def catalog(name: str, alpha: float | None = None,
            beta: float | None = None) -> Witness:
    """Look up a catalog witness by CLI name: w0, phi, ghz, w1, w2.

    The names and builders live in the registry ``settings.REGISTRY``; a
    name that is not a ``str`` is unknown too (``KeyError``).
    """
    from .settings import REGISTRY  # settings imports this module
    if not isinstance(name, str) or name not in REGISTRY:
        raise KeyError(f"unknown witness {name!r}")
    return REGISTRY[name].witness(alpha, beta)


def as_operator(x) -> np.ndarray:
    """``x`` read as a target operator, the one admission of every operator argument:
    a ``Witness``'s held matrix, a ``PauliCoefficients`` rebuilt by ``pauli.from_pauli``,
    or any other value admitted by the raw-operator rule :func:`pauli.hermitian`."""
    if isinstance(x, Witness):
        return x.operator
    if isinstance(x, pauli.PauliCoefficients):
        return pauli.from_pauli(x)
    return pauli.hermitian(x)


def as_coefficients(x) -> pauli.PauliCoefficients:
    """``x`` read as Pauli coefficients: a ``PauliCoefficients`` as is, any other
    value the unchecked ``pauli.expand`` of :func:`as_operator`'s matrix."""
    return x if isinstance(x, pauli.PauliCoefficients) else pauli.expand(as_operator(x))


def expectation(w, rho) -> float:
    """Re Tr(W rho) of a target operator read through :func:`as_operator` and a
    state read through :func:`states.as_state` (a ``DensityMatrix``, a
    ``PureState`` or a matrix validated as a state)."""
    return _value(as_operator(w), states.as_state(rho))


def _value(op: np.ndarray, rho: states.DensityMatrix) -> float:
    """Re Tr(op rho) of an admitted operator and state."""
    if op.shape != rho.matrix.shape:
        raise ValueError("witness and state dimensions do not match")
    return float(np.trace(op @ rho.matrix).real)


def classify(w: Witness, value: float) -> Verdict:
    """Apply the witness verdict rules to a measured or computed value, any
    real number (:func:`rng.real_number`); ``w`` must be a ``Witness``, the
    one holder of rules.  Else ``ValueError``.  A value within ``w.margin``
    of a threshold resolves to the weaker label."""
    if not isinstance(w, Witness):
        raise ValueError(f"verdict rules belong to a Witness, got {type(w).__name__}")
    value = real_number(value, "the classified value")
    for threshold, label in w.verdict_rules:
        if value < threshold - w.margin:
            return Verdict(value, label)
    return Verdict(value, LABEL_NO_DETECTION)


def _party_from_partition(partition: str, n_qubits: int) -> int:
    """Index of the transposed party: a party letter alone, or followed
    by "-" and the other parties' letters in order.  Anything that is not
    a ``str`` is no partition name."""
    if not isinstance(partition, str):
        raise ValueError(f"invalid partition {partition!r} for {n_qubits} qubits")
    token, letters = partition.strip(), "ABC"[:n_qubits]
    for i, party in enumerate(letters):
        others = letters.replace(party, "")
        if token == party or (others and token == f"{party}-{others}"):
            return i
    raise ValueError(f"invalid partition {partition!r} for {n_qubits} qubits")


def ppt_check(rho, partition: str = "B"):
    """Minimum eigenvalue of the partial transpose across a cut.

    Returns ``(min_eigenvalue, is_npt)``; a negative eigenvalue (below
    -1e-9) certifies entanglement across the cut.  Partitions are named
    by the transposed party: "B", or the cut "B-AC" ("B-A" for two
    qubits), the names of ``states.BISEPARABLE_CUTS``.  Any other token,
    such as "B-CA", "B-" or a value that is not a ``str``, raises
    ``ValueError``.  ``rho`` is read through :func:`states.as_state`, so a
    ``PureState`` reads as its projector and a raw matrix that is not a
    state raises ``ValueError``.
    """
    state = states.as_state(rho)
    party = _party_from_partition(partition, state.n_qubits)
    # moving the entries of M - M^dagger, the transpose keeps the admitted Hermiticity gap
    pt = linalg.partial_transpose(state.matrix, party, [2] * state.n_qubits)
    min_eig = float(linalg._symmetrized_eigenvalues(pt)[0])
    return min_eig, min_eig < -1e-9


def lambda_minus(a: float, b: float, p: float) -> float:
    """(1 - p)/4 - a*b*p, the one possibly negative eigenvalue of the
    partially transposed white-noise mixture of a|01> + b|10>: a and b are
    real numbers (:func:`rng.real_number`) with a^2 + b^2 = 1 within 1e-10,
    and p is one in [0, 1].
    """
    a = real_number(a, "Schmidt coefficient a")
    b = real_number(b, "Schmidt coefficient b")
    if abs(a * a + b * b - 1.0) > 1e-10:
        raise ValueError("Schmidt coefficients must satisfy a^2 + b^2 = 1")
    p = real_number(p, "mixing weight p", 0.0, 1.0)
    return (1.0 - p) / 4.0 - a * b * p


def noise_threshold(w, psi) -> float:
    """Smallest p at which p rho + (1-p) * identity/2^n is detected, for
    the witness read through :func:`as_operator` and the state ``psi`` read
    through :func:`states.as_state` (rho = |psi><psi| for a ``PureState``).

    The expectation is affine in p, so the threshold follows in closed
    form from the two endpoint evaluations.  Raises ``ValueError`` if the
    witness is never negative on this noise family, naming a ``Witness``.
    """
    rho = states.as_state(psi)
    op = as_operator(w)  # admitted once, for both endpoints
    at_noise = float(np.real(np.trace(op))) / 2 ** rho.n_qubits
    at_state = _value(op, rho)
    if at_state >= 0.0:
        name = f"witness {w.name}" if isinstance(w, Witness) else "the witness"
        raise ValueError(f"{name} is never negative on this noise family")
    if at_noise <= 0.0:
        return 0.0
    return at_noise / (at_noise - at_state)

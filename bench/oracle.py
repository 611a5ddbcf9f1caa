"""Reference computations in plain numpy, independent of witkit.

Every correctness check in the benchmark compares witkit's output with a
value computed here from the generated inputs.  Nothing in this module
imports witkit, so a defect in the code under test cannot also hide in
its own oracle.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# failure probability allowed for one shot-noise check
SHOT_CHECK_DELTA = 1e-12

LABEL_NONE = "no-detection"


def kron_list(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def basis_vector(n, *indices):
    """Equal superposition of the listed computational basis states."""
    v = np.zeros(2 ** n, dtype=complex)
    v[list(indices)] = 1.0
    return v / np.linalg.norm(v)


GHZ = basis_vector(3, 0b000, 0b111)
W = basis_vector(3, 0b100, 0b010, 0b001)


def projector(v):
    return np.outer(v, v.conj())


def partial_transpose(m, party, n):
    t = m.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    axes[party], axes[n + party] = axes[n + party], axes[party]
    return t.transpose(axes).reshape(2 ** n, 2 ** n)


def phi_witness(alpha, beta):
    """Partial transpose of the projector onto alpha|00> + beta|11>."""
    return partial_transpose(projector(np.array([alpha, 0, 0, beta], dtype=complex)), 1, 2)


def witness_matrix(name, alpha=None, beta=None):
    if name == "ghz":
        return 0.75 * np.eye(8) - projector(GHZ)
    if name == "w1":
        return (2.0 / 3.0) * np.eye(8) - projector(W)
    if name == "w2":
        return 0.5 * np.eye(8) - projector(GHZ)
    if name == "w0":
        return phi_witness(1 / math.sqrt(2), -1 / math.sqrt(2))
    if name == "phi":
        return phi_witness(alpha, beta)
    raise KeyError(name)


# (threshold, label) rules, ascending; the first strict exceedance wins
VERDICT_RULES = {
    "w0": ((0.0, "entangled"),),
    "phi": ((0.0, "entangled"),),
    "ghz": ((0.0, "GHZ-class"),),
    "w1": ((0.0, "genuinely-tripartite"),),
    "w2": ((-0.25, "GHZ-class"), (0.0, "genuinely-tripartite")),
}

# proven minimum setting counts of the catalog witnesses
MIN_SETTINGS = {"w0": 3, "ghz": 4, "w2": 4, "w1": 5}

# closed-form white-noise thresholds for the README targets
THRESHOLDS = {"w0": 1.0 / 3.0, "ghz": 5.0 / 7.0, "w1": 13.0 / 21.0, "w2": 3.0 / 7.0}


def verdict(name, value):
    for threshold, label in VERDICT_RULES[name]:
        if value < threshold:
            return label
    return LABEL_NONE


def expectation(w, rho):
    return float(np.real(np.trace(w @ rho)))


def min_pt_eigenvalue(rho, party, n):
    return float(np.linalg.eigvalsh(partial_transpose(rho, party, n))[0])


def is_state(rho, tol=1e-9):
    h = np.abs(rho - rho.conj().T).max() <= 1e-10
    return bool(h and abs(np.trace(rho) - 1) <= 1e-10
                and np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0] >= -tol)


def white_noise_mix(psi, p):
    d = psi.size
    return p * projector(psi) + (1 - p) * np.eye(d) / d


def local_projectors(vec):
    """(2, 2, 2) array: [bit] -> (I + (-1)^bit n.sigma) / 2 for unit n."""
    n = np.asarray(vec, dtype=float)
    ns = n[0] * SIGMA[1] + n[1] * SIGMA[2] + n[2] * SIGMA[3]
    return np.stack([(SIGMA[0] + ns) / 2, (SIGMA[0] - ns) / 2])


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _setting_subscripts(n):
    bits = _LETTERS[:n]
    rows = _LETTERS[n:2 * n]
    cols = _LETTERS[2 * n:3 * n]
    return bits, rows, cols


def setting_operator(directions, weights):
    """sum_bits w[bits] (x)_p Pi_p[bits_p] for raw direction vectors."""
    n = len(directions)
    bits, rows, cols = _setting_subscripts(n)
    projs = [local_projectors(d) for d in directions]
    spec = (bits + "," + ",".join(b + r + c for b, r, c in zip(bits, rows, cols))
            + "->" + rows + cols)
    op = np.einsum(spec, np.asarray(weights, dtype=float), *projs)
    return op.reshape(2 ** n, 2 ** n)


def born_probabilities(rho, directions):
    """Exact outcome distribution of one setting, shape (2,)*n."""
    n = len(directions)
    bits, rows, cols = _setting_subscripts(n)
    projs = [local_projectors(d) for d in directions]
    t = rho.reshape((2,) * (2 * n))
    # Tr(rho Pi) = sum rho[rows, cols] Pi[cols, rows]
    spec = (rows + cols + "," + ",".join(b + c + r for b, r, c in zip(bits, rows, cols))
            + "->" + bits)
    return np.real(np.einsum(spec, t, *projs))


def shot_noise_tolerance(means, variances, ranges, shots):
    """Deviation bound of a multi-setting estimate at SHOT_CHECK_DELTA.

    Bernstein's inequality for a sum of independent bounded terms, with
    the exact per-setting variances and the largest per-shot deviation.
    """
    log_term = math.log(2.0 / SHOT_CHECK_DELTA)
    v = sum(var / n for var, n in zip(variances, shots))
    m = max(r / n for r, n in zip(ranges, shots))
    a = log_term * m / 3.0
    return a + math.sqrt(a * a + 2.0 * log_term * v)


def pauli_coefficients(op, n):
    """Tr(op sigma_idx) / 2^n for every index tuple, shape (4,)*n."""
    out = np.empty((4,) * n)
    for idx in itertools.product(range(4), repeat=n):
        out[idx] = np.real(np.trace(op @ kron_list([SIGMA[i] for i in idx]))) / 2 ** n
    return out


def rank(rows, tol=1e-8):
    """Number of singular values above ``tol`` times the largest."""
    s = np.linalg.svd(np.atleast_2d(np.asarray(rows, dtype=float)), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def slice_span_dimensions(coeffs):
    """Span dimension of the reduced slice family for every pairing.

    Two qubits have one reduced 3x3 matrix and the dimension is its rank;
    three qubits fix one party's index to 0..3 (the sliced party A, B or
    C, in that order) and stack the four 3x3 slices.
    """
    n = coeffs.ndim
    if n == 2:
        return [rank(coeffs[1:, 1:])]
    dims = []
    for party in range(3):
        idx = [slice(1, 4)] * 3
        mats = []
        for k in range(4):
            idx[party] = k
            mats.append(coeffs[tuple(idx)].ravel())
        dims.append(rank(mats))
    return dims


AXIS_INDEX = {"x": 1, "y": 2, "z": 3}


def min_cover_size(support, axes, n_parties, limit):
    """Fewest fixed-axis settings covering a Pauli support, by exhaustion.

    A setting picks one axis letter per party and covers a term when every
    non-identity factor of the term matches that party's axis.  Returns
    None when no cover of at most ``limit`` settings exists.
    """
    cand = []
    for combo in itertools.product([AXIS_INDEX[a] for a in axes], repeat=n_parties):
        covered = frozenset(t for t in support
                            if all(i == 0 or i == a for i, a in zip(t, combo)))
        if covered:
            cand.append(covered)
    universe = frozenset(support)
    for size in range(1, limit + 1):
        for combo in itertools.combinations(cand, size):
            if frozenset().union(*combo) == universe:
                return size
    return None

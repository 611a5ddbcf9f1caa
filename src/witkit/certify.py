"""Lower-bound certificates on the number of measurement settings.

The argument: every single-setting operator has all of its reduced slice
matrices proportional to one rank-one matrix, so m settings can only
produce slice families living in the span of m rank-one matrices.  If
the target's slices span a d-dimensional space, m >= d.  If additionally
no d linearly independent rank-one matrices exist inside that span, then
m = d is impossible too (d rank-one matrices spanning the space would
all lie in it), which lifts the bound to d + 1.

The non-existence half is established numerically: a random-restart
search minimizes the second singular value over the span and reports how
large a space the verified rank-one elements span, together with an
exhaustion flag.  For two qubits the slice family is a single matrix and
the bound is just its rank (a real rank-r matrix is always a sum of r
rank-one outer products), so no escalation applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .rng import stream

RANK_ONE_SIGMA_RATIO = 1e-9
RANK_ONE_MINOR_TOL = 1e-8
POLISHED_MINOR_TOL = 1e-13
STACK_TOL = 1e-5
# fewer restarts than this are too little evidence to call a search exhausted
MIN_EXHAUSTION_RESTARTS = 100

METHOD_SPAN = "span-dim"
METHOD_SPAN_PLUS_ONE = "span-dim-plus-one"


@dataclass
class LowerBoundCertificate:
    """Proven minimum setting count with its evidence trail."""

    bound: int
    pairing_used: str
    span_dimension: int
    rank_one_span_dimension: int
    method: str
    search_exhausted: bool

    def to_json_dict(self, witness_label: str = "") -> dict:
        return {
            "witness": witness_label,
            "bound": self.bound,
            "method": self.method,
            "span_dimension": self.span_dimension,
            "rank_one_span_dimension": self.rank_one_span_dimension,
            "exhausted": self.search_exhausted,
            "pairing": self.pairing_used,
        }


@dataclass
class RankOneSearchResult:
    """Verified rank-one elements of a span and the evidence behind them.

    ``candidates`` counts the trials that passed the sigma-ratio and minor
    filters, ``polished`` those among them sent to the polishing descent,
    and ``last_increase`` is the index of the trial that added the last
    independent element (-1 when none did).
    """

    elements: list
    span_dim_of_elements: int
    exhausted: bool
    candidates: int
    polished: int
    last_increase: int


def slice_span_dimension(c: pauli.PauliCoefficients, pairing: str) -> int:
    """Dimension of the span of the reduced slice matrices.

    For two qubits this is the rank of the single reduced matrix.
    """
    fam = pauli.slice_family(c, pairing)
    if len(fam.matrices) == 1:
        return linalg.numerical_rank(list(fam.matrices[0]))
    return linalg.numerical_rank(fam.matrices)


_MINOR_PAIRS = ((0, 1), (0, 2), (1, 2))
_LO, _HI = (list(p) for p in zip(*_MINOR_PAIRS))


def _minor_vectors(xs: np.ndarray) -> np.ndarray:
    """All nine 2x2 minors of a stack of 3x3 matrices, shape (..., 9).

    Minor (a, b), (c, d) is x[a, c] x[b, d] - x[a, d] x[b, c], row pairs
    outer and column pairs inner, in the order of ``_MINOR_PAIRS``.
    """
    rows_lo, rows_hi = xs[..., _LO, :], xs[..., _HI, :]
    m = (rows_lo[..., _LO] * rows_hi[..., _HI]
         - rows_lo[..., _HI] * rows_hi[..., _LO])
    return m.reshape(xs.shape[:-2] + (9,))


def _minor_quadratic_forms(basis: np.ndarray) -> np.ndarray:
    """Symmetric forms Q with minor_k(sum_j t_j B_j) = t^T Q[k] t."""
    d = basis.shape[0]
    q = np.empty((9, d, d))
    i = 0
    for a, b in _MINOR_PAIRS:
        for c, dd in _MINOR_PAIRS:
            outer = (np.outer(basis[:, a, c], basis[:, b, dd])
                     - np.outer(basis[:, a, dd], basis[:, b, c]))
            q[i] = (outer + outer.T) / 2.0
            i += 1
    return q


def _orthonormal_span_basis(matrices):
    stacked = np.vstack([np.asarray(m, dtype=float).ravel() for m in matrices])
    u, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((0, 3, 3))
    keep = svals > 1e-12 * svals[0]
    return vt[keep].reshape(-1, 3, 3)


def _batched_descent(basis, q, starts, ap_iters: int = 6, lm_iters: int = 50):
    """All restarts at once: alternating-projection warmup, then projected
    Levenberg-Marquardt on the minor residuals, each trial with its own
    damping.  Returns final unit coefficient vectors and minor norms.

    One matrix product ``t @ Q`` per step gives every half-Jacobian
    ``q[k] t`` and, contracted with ``t``, every minor ``t^T q[k] t``;
    the rows of accepted steps are kept for the next step.  Trials leave
    the batch once converged (``f <= 1e-30``) or abandoned
    (``lam >= 1e9``), so a step costs only what is still active."""
    t = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    n_trials, d = t.shape
    flat_basis = basis.reshape(d, 9)
    for _ in range(ap_iters):
        u, svals, vt = np.linalg.svd((t @ flat_basis).reshape(n_trials, 3, 3))
        nearest = svals[:, 0, None, None] * (u[:, :, 0, None] * vt[:, None, 0, :])
        t = nearest.reshape(n_trials, 9) @ flat_basis.T
        norms = np.linalg.norm(t, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        t /= norms
    q_flat = q.reshape(9 * d, d).T

    def half_jacobian_and_minors(t):
        qt = (t @ q_flat).reshape(-1, 9, d)
        return qt, (qt @ t[:, :, None])[:, :, 0]

    qt, m = half_jacobian_and_minors(t)
    f = np.einsum("tk,tk->t", m, m)
    t_out, f_out = t.copy(), f.copy()
    idx = np.arange(n_trials)
    lam = np.full(n_trials, 1e-3)
    eye = np.eye(d)
    for _ in range(lm_iters):
        if idx.size == 0:
            break
        jac = 2.0 * qt
        jac_t = jac.transpose(0, 2, 1)
        lhs = jac_t @ jac + lam[:, None, None] * eye
        step = np.linalg.solve(lhs, jac_t @ m[:, :, None])[:, :, 0]
        t_new = t - step
        norms = np.linalg.norm(t_new, axis=1, keepdims=True)
        ok = norms[:, 0] > 1e-12
        t_new = np.where(ok[:, None], t_new / np.maximum(norms, 1e-300), t)
        qt_new, m_new = half_jacobian_and_minors(t_new)
        f_new = np.einsum("tk,tk->t", m_new, m_new)
        better = ok & (f_new < f)
        t[better], qt[better] = t_new[better], qt_new[better]
        m[better], f[better] = m_new[better], f_new[better]
        lam = np.where(better, np.maximum(lam * 0.3, 1e-12), lam * 10.0)
        keep = (f > 1e-30) & (lam < 1e9)
        if not keep.all():
            done = idx[~keep]
            t_out[done], f_out[done] = t[~keep], f[~keep]
            idx, t, qt, m, f, lam = (a[keep] for a in (idx, t, qt, m, f, lam))
    t_out[idx], f_out[idx] = t, f
    return t_out, f_out


def _is_exhausted(restarts: int, last_increase: int) -> bool:
    """Whether the last half of the trials, rounded up, added no element.

    Needs at least ``MIN_EXHAUSTION_RESTARTS`` trials; ``last_increase``
    is the index of the trial that added the last element (-1 for none).
    """
    return (restarts >= MIN_EXHAUSTION_RESTARTS
            and restarts - 1 - last_increase >= (restarts + 1) // 2)


def rank_one_elements_in_span(span_basis, restarts: int = 500,
                              seed: int = 0) -> RankOneSearchResult:
    """Search the span of 3x3 matrices for rank-one elements.

    Each restart drives the rank-one defect (the 2x2 minors, a smooth
    quadratic surrogate for the second singular value) to zero over unit
    coefficient vectors in the span.  Candidates with a second singular
    value below 1e-9 of the first and all minors below 1e-8 relative are
    verified rank-one; independent representatives are collected, but
    only once polished to machine precision so that leftover tangential
    error cannot inflate the measured span dimension.  ``exhausted`` is
    true when the last half, rounded up, of at least
    ``MIN_EXHAUSTION_RESTARTS`` restarts added no independent element.

    Verification is vectorized over the trials (both filters as masks,
    one polishing descent for all rough candidates, one batched rank test
    per accepted element) while keeping the greedy order: a verified
    trial is kept exactly when it raises the rank of the elements kept
    from the trials before it.
    """
    if len(span_basis) == 0:
        raise ValueError("span basis must be nonempty")
    basis = _orthonormal_span_basis(span_basis)
    d = basis.shape[0]
    if d == 0:
        return RankOneSearchResult([], 0, True, 0, 0, -1)
    q = _minor_quadratic_forms(basis)
    starts = stream(seed).standard_normal((restarts, d))
    ts, _ = _batched_descent(basis, q, starts)
    xs = np.tensordot(ts, basis, axes=1)
    svals = np.linalg.svd(xs, compute_uv=False)
    s0, s1 = svals[:, 0], svals[:, 1]
    max_minor = np.abs(_minor_vectors(xs)).max(axis=1)
    candidate = ~((s0 == 0.0) | (s1 > RANK_ONE_SIGMA_RATIO * s0))
    candidate &= max_minor <= RANK_ONE_MINOR_TOL * s0 ** 2
    # a minor of size eps^2 still tolerates eps-sized junk in the
    # element, so polish to near machine precision before stacking
    # and measure independence at a tolerance safely above the junk
    rough = candidate & ~(max_minor <= POLISHED_MINOR_TOL * s0 ** 2)
    verified = candidate.copy()
    if rough.any():
        t_polished, _ = _batched_descent(basis, q, ts[rough], ap_iters=0,
                                         lm_iters=40)
        x_polished = np.tensordot(t_polished, basis, axes=1)
        xs[rough] = x_polished
        tol = POLISHED_MINOR_TOL * np.linalg.norm(x_polished, axis=(1, 2)) ** 2
        verified[rough] = np.abs(_minor_vectors(x_polished)).max(axis=1) <= tol
    pending = np.flatnonzero(verified)
    elements: list = []
    last_increase = -1
    while pending.size and len(elements) < d:
        stacks = np.concatenate(
            [np.broadcast_to(np.reshape(elements, (1, -1, 9)),
                             (pending.size, len(elements), 9)),
             xs[pending].reshape(-1, 1, 9)], axis=1)
        sv = np.linalg.svd(stacks, compute_uv=False)
        ranks = np.sum(sv > STACK_TOL * sv[:, :1], axis=1)
        rising = np.flatnonzero(ranks > len(elements))
        if rising.size == 0:
            break
        last_increase = int(pending[rising[0]])
        elements.append(xs[last_increase])
        pending = pending[rising[0] + 1:]
    exhausted = _is_exhausted(restarts, last_increase)
    return RankOneSearchResult(elements, len(elements), exhausted,
                               int(candidate.sum()), int(rough.sum()),
                               last_increase)


def structured_rank_one_check(form: str, coefficients) -> bool:
    """Exact rank-one test for the two parametrized slice-span forms.

    ``"ghz"`` takes (alpha, beta, gamma) for [[-a, b, 0], [b, a, 0],
    [0, 0, g]]; ``"w1"`` takes (alpha, beta, gamma, delta) for
    [[a, 0, b], [0, a, g], [b, g, d]].  Returns True when the matrix is
    nonzero with every 2x2 minor exactly zero.
    """
    vals = [float(v) for v in coefficients]
    if form == "ghz":
        if len(vals) != 3:
            raise ValueError("ghz form takes (alpha, beta, gamma)")
        a, b, g = vals
        mat = np.array([[-a, b, 0.0], [b, a, 0.0], [0.0, 0.0, g]])
    elif form == "w1":
        if len(vals) != 4:
            raise ValueError("w1 form takes (alpha, beta, gamma, delta)")
        a, b, g, dd = vals
        mat = np.array([[a, 0.0, b], [0.0, a, g], [b, g, dd]])
    else:
        raise KeyError(f"unknown form {form!r}")
    if not mat.any():
        return False
    return not _minor_vectors(mat).any()


def lower_bound(w, restarts: int = 500, seed: int = 0) -> LowerBoundCertificate:
    """Certified minimum number of settings needed to measure a witness.

    Evaluates every pairing and reports the best (largest) bound.  Two
    qubits never escalate beyond the span dimension (a rank-d real
    matrix is always a sum of d rank-one outer products, so the
    certificate records rank_one_span_dimension = d with no search);
    three qubits escalate to d + 1 when the exhausted rank-one search
    finds fewer than d independent rank-one span elements.
    """
    op = linalg.as_matrix(getattr(w, "operator", w))
    n = int(op.shape[0]).bit_length() - 1
    c = pauli.to_pauli(op, n)
    if n == 2:
        d = slice_span_dimension(c, pauli.PAIRING_2)
        return LowerBoundCertificate(
            bound=max(d, 1), pairing_used=pauli.PAIRING_2, span_dimension=d,
            rank_one_span_dimension=d, method=METHOD_SPAN,
            search_exhausted=True)
    if n != 3:
        raise ValueError("lower bounds are implemented for 2 or 3 qubits")
    best: LowerBoundCertificate | None = None
    for idx, pairing in enumerate(pauli.PAIRINGS_3):
        fam = pauli.slice_family(c, pairing)
        d = linalg.numerical_rank(fam.matrices)
        search = rank_one_elements_in_span(fam.matrices, restarts=restarts,
                                           seed=(seed << 2) + idx)
        if search.exhausted and search.span_dim_of_elements < d:
            cert = LowerBoundCertificate(
                bound=max(d + 1, 1), pairing_used=pairing, span_dimension=d,
                rank_one_span_dimension=search.span_dim_of_elements,
                method=METHOD_SPAN_PLUS_ONE, search_exhausted=True)
        else:
            cert = LowerBoundCertificate(
                bound=max(d, 1), pairing_used=pairing, span_dimension=d,
                rank_one_span_dimension=search.span_dim_of_elements,
                method=METHOD_SPAN, search_exhausted=search.exhausted)
        if best is None or cert.bound > best.bound:
            best = cert
    assert best is not None
    return best

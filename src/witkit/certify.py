"""Lower-bound certificates on the number of measurement settings.

The argument: every single-setting operator has all of its reduced slice
matrices proportional to one rank-one matrix, so m settings can only
produce slice families living in the span of m rank-one matrices.  If
the target's slices span a d-dimensional space, m >= d.  If additionally
no d linearly independent rank-one matrices exist inside that span, then
m = d is impossible too (d rank-one matrices spanning the space would
all lie in it), which lifts the bound to d + 1.

The non-existence half is decided by linear algebra (De Lathauwer, SIAM
J. Matrix Anal. Appl. 28(3), 2006; for d <= 3 Jennrich's algorithm,
Leurgans, Ross & Abel, SIAM J. Matrix Anal. Appl. 14(4), 1993).  Over an
orthonormal basis of the span, t is a rank-one element when its nine
minors t^T Q_k t vanish, so t t^T lies in the kernel K of the map
S -> (<Q_k, S>)_k on symmetric d x d matrices, and d independent t_i give
d independent t_i t_i^T in K.  So dim K < d proves d + 1, and dim K > d
is inconclusive.  If dim K = d and the t_i exist, K = span{t_i t_i^T},
and for two members A, B of K the pencil B A^-1 = T diag(b_i / a_i) T^-1
has real eigenvalues with the t_i as eigenvectors.  A draw with real,
separated eigenvalues fixes d independent eigenvectors: they are the d
elements if each is rank-one, and prove d + 1 if one is not.  A spectrum
complex or clustered on each of a few random draws proves d + 1 too.

For two qubits the slice family is a single matrix and the bound is just
its rank (a real rank-r matrix is always a sum of r rank-one outer
products), so no escalation applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, pauli
from .rng import stream

# Tolerances on the kernel map and on the minors of unit-norm elements,
# times the condition of the span basis: a rank-one element of the span
# lies only that many rounding units from the computed basis.
KERNEL_TOL = 1e-13
RANK_ONE_MINOR_TOL = 1e-10
POLISHED_MINOR_TOL = 1e-13
# pencil draws before a complex or clustered spectrum counts as proof
PENCIL_DRAWS = 3
# smallest chordal gap at which pencil eigenvalues count as separated
PENCIL_GAP_TOL = 1e-6
STACK_TOL = 1e-5

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
    """Verified rank-one elements of a span and the evidence behind them:
    the kernel dimension of the minor map, its smallest singular value
    above the kernel tolerance (inf if none) and largest at or below it (0
    if none), and the smallest eigenvalue gap of each pencil draw."""

    elements: list
    span_dim_of_elements: int
    exhausted: bool
    kernel_dim: int
    kernel_sigma_kept: float
    kernel_sigma_dropped: float
    pencil_gaps: tuple


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
    lo, hi = basis[:, _LO, :], basis[:, _HI, :]
    outer = (np.einsum("irc,jrc->rcij", lo[..., _LO], hi[..., _HI])
             - np.einsum("irc,jrc->rcij", lo[..., _HI], hi[..., _LO]))
    outer = outer.reshape((9,) + outer.shape[2:])
    return (outer + outer.transpose(0, 2, 1)) / 2.0


def _orthonormal_span_basis(matrices):
    """Orthonormal basis, as 3x3 matrices, of the span that
    ``linalg.numerical_rank`` measures, and the basis's condition number."""
    stacked = np.vstack([np.asarray(m, dtype=float).ravel() for m in matrices])
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((0, 3, 3)), 1.0
    keep = svals > linalg.RANK_TOL * svals[0]
    return vt[keep].reshape(-1, 3, 3), float(svals[0] / svals[keep][-1])


def _batched_descent(q, starts, f_stop: float, lm_iters: int = 40):
    """Projected Levenberg-Marquardt on the minors from all starts at once,
    each with its own damping, refusing steps that do not shrink them.  A
    start stops once its squared minors sum to ``f_stop`` or its damping
    reaches 1e9.  Returns the final unit coefficient vectors."""
    t = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    d = t.shape[1]
    q_flat = q.reshape(9 * d, d).T

    def half_jacobian_and_minors(t):
        qt = (t @ q_flat).reshape(-1, 9, d)
        return qt, (qt @ t[:, :, None])[:, :, 0]

    qt, m = half_jacobian_and_minors(t)
    f = np.einsum("tk,tk->t", m, m)
    lam = np.full(len(t), 1e-3)
    for _ in range(lm_iters):
        active = (f > f_stop) & (lam < 1e9)
        if not active.any():
            break
        jac_t = 2.0 * qt.transpose(0, 2, 1)
        lhs = jac_t @ jac_t.transpose(0, 2, 1) + lam[:, None, None] * np.eye(d)
        t_new = t - np.linalg.solve(lhs, jac_t @ m[:, :, None])[:, :, 0]
        norms = np.linalg.norm(t_new, axis=1, keepdims=True)
        ok = norms[:, 0] > 1e-12
        t_new /= np.where(ok[:, None], norms, 1.0)
        qt_new, m_new = half_jacobian_and_minors(t_new)
        f_new = np.einsum("tk,tk->t", m_new, m_new)
        better = active & ok & (f_new < f)
        t[better], qt[better] = t_new[better], qt_new[better]
        m[better], f[better] = m_new[better], f_new[better]
        lam = np.where(better, np.maximum(lam * 0.3, 1e-12), lam * 10.0)
    return t


def _check_search_args(restarts: int, seed: int) -> None:
    for name, value in (("restarts", restarts), ("seed", seed)):
        if int(value) < 0:
            raise ValueError(f"{name} must be a nonnegative integer")


def _minor_kernel(q: np.ndarray, tol: float):
    """Kernel of S -> (<Q_k, S>)_k on symmetric S, as symmetric matrices,
    with the smallest singular value above ``tol`` and the largest at or
    below it.  S enters by its upper triangle, off-diagonals doubled; a map
    with fewer rows than columns has zero singular values for the rest."""
    d = q.shape[1]
    rows, cols = np.triu_indices(d)
    _, svals, vt = np.linalg.svd(q[:, rows, cols] * np.where(rows == cols, 1.0, 2.0))
    svals = np.concatenate([svals, np.zeros(rows.size - svals.size)])
    zero = svals <= tol
    kernel = np.zeros((int(zero.sum()), d, d))
    kernel[:, rows, cols] = kernel[:, cols, rows] = vt[zero]
    return kernel, svals[~zero].min(initial=np.inf), svals[zero].max(initial=0.0)


def _pencil(a: np.ndarray, b: np.ndarray):
    """Eigenvalues and eigenvectors of B A^-1 and their smallest chordal
    gap, the sine of the angle between points (a_i, b_i) of the pencil, so
    inverting B instead gives the same gap: 1 for one eigenvalue, 0 (and
    no eigenvalues) if A is singular."""
    try:
        lam, vecs = np.linalg.eig(np.linalg.solve(a, b).T)
    except np.linalg.LinAlgError:
        return np.zeros(0), np.zeros((len(a), 0)), 0.0
    i, j = np.triu_indices(lam.size, 1)
    scale = 1.0 + np.abs(lam) ** 2
    chordal = np.abs(lam[i] - lam[j]) / np.sqrt(scale[i] * scale[j])
    return lam, vecs, float(chordal.min(initial=1.0))


def _rank_one_vectors(basis, q, ts, kappa: float):
    """The unit vectors among ``ts`` whose element has every minor within
    ``RANK_ONE_MINOR_TOL * kappa``; those above ``POLISHED_MINOR_TOL *
    kappa`` are polished towards it by ``_batched_descent``."""
    ts = ts / np.linalg.norm(ts, axis=1, keepdims=True)
    minors = np.abs(_minor_vectors(np.tensordot(ts, basis, axes=1))).max(axis=1)
    passed = minors <= RANK_ONE_MINOR_TOL * kappa
    ts, rough = ts[passed], minors[passed] > POLISHED_MINOR_TOL * kappa
    if rough.any():
        ts[rough] = _batched_descent(q, ts[rough], (POLISHED_MINOR_TOL * kappa) ** 2)
    return ts


def rank_one_elements_in_span(span_basis, restarts: int = 500,
                              seed: int = 0) -> RankOneSearchResult:
    """Rank-one elements of a span of 3x3 matrices, by the kernel and
    pencil test of the module docstring; ``exhausted`` means it was
    conclusive.  A separated real pencil whose d eigenvectors are rank-one
    returns them, independent by their distinct eigenvalues.  Otherwise the
    rank-one eigenvectors, kept while independent at ``STACK_TOL``, are the
    evidence.  ``seed`` keys the draws; ``restarts`` is unused."""
    if len(span_basis) == 0:
        raise ValueError("span basis must be nonempty")
    _check_search_args(restarts, seed)
    basis, kappa = _orthonormal_span_basis(span_basis)
    d = basis.shape[0]
    if d == 0:
        return RankOneSearchResult([], 0, True, 0, np.inf, 0.0, ())
    q = _minor_quadratic_forms(basis)
    kernel, kept, dropped = _minor_kernel(q, KERNEL_TOL * kappa)
    if len(kernel) != d:
        return RankOneSearchResult([], 0, len(kernel) < d, len(kernel), kept,
                                   dropped, ())
    rng = stream(seed)
    gaps, vectors = [], []
    for _ in range(PENCIL_DRAWS):
        lam, vecs, gap = _pencil(*np.tensordot(rng.standard_normal((2, d)),
                                               kernel, axes=1))
        gaps.append(gap)
        separated = gap >= PENCIL_GAP_TOL and not lam.imag.any()
        if separated:  # this draw decides on its own
            vectors = [vecs.real.T]
            break
        vectors.append(vecs.real.T)
    ts = _rank_one_vectors(basis, q, np.concatenate(vectors), kappa)
    elements = list(np.tensordot(ts, basis, axes=1))
    if not (separated and len(elements) == d):
        found, elements = elements, []
        for x in found:
            if linalg.numerical_rank(elements + [x], tol=STACK_TOL) > len(elements):
                elements.append(x)
    return RankOneSearchResult(elements, len(elements), True, d, kept, dropped,
                               tuple(gaps))


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
    three qubits escalate to d + 1 when ``rank_one_elements_in_span``
    proves that the slice span holds fewer than d independent rank-one
    elements.  ``seed`` keys its pencil draws; ``restarts`` is unused.
    A negative value of either raises ``ValueError`` for every witness.
    """
    _check_search_args(restarts, seed)
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
        plus_one = search.exhausted and search.span_dim_of_elements < d
        cert = LowerBoundCertificate(
            bound=max(d + plus_one, 1), pairing_used=pairing, span_dimension=d,
            rank_one_span_dimension=search.span_dim_of_elements,
            method=METHOD_SPAN_PLUS_ONE if plus_one else METHOD_SPAN,
            search_exhausted=search.exhausted)
        if best is None or cert.bound > best.bound:
            best = cert
    assert best is not None
    return best

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
complex or clustered on each of a few random draws proves d + 1 too when
kappa * PENCIL_GAP_TOL <= 1e-2 (kappa: the basis's condition); in a worse
basis, near-coincident elements look like such a spectrum.

For two qubits the slice family is a single matrix and the bound is just
its rank (a real rank-r matrix is always a sum of r rank-one outer
products), so no escalation applies.

Resolution: a slice family whose largest singular value is at most
``linalg.RANK_TOL`` (1e-8) times the Frobenius norm of the target's whole
Pauli-coefficient tensor counts as zero, with span dimension 0.  Below
that scale its entries cannot be told from the rounding of the Pauli
expansion, and ranking it against its own largest singular value would
count that rounding at full rank.  A zero family can only lower a bound,
so the certificate stays sound; a target whose correlations all lie
below the resolution gets bound 1.  Inside a family that is kept, the
span dimension counts singular values above ``RANK_TOL`` times the
family's own largest.  A kept family whose largest singular value is
below 1/``FAINT_SPAN_RATIO`` of the target's norm still carries the
target's rounding, so the kernel and minor tolerances and the gate on
kappa scale up by how far below it is: faint correlations on a large
identity term are not certified one setting too high.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, pauli, witnesses
from .rng import KEY_BITS, borrow, real_array, real_number, sequence, whole_number

# Tolerances on the kernel map and on the minors of unit-norm elements,
# times the condition of the span basis (and the faint-span factor of
# _orthonormal_span_basis): a rank-one element of the span lies only that
# many rounding units from the computed basis.
KERNEL_TOL = 1e-13
RANK_ONE_MINOR_TOL = 1e-10
POLISHED_MINOR_TOL = 1e-13
# the faintness, against its target, past which a span's tolerances grow
# (_orthonormal_span_basis)
FAINT_SPAN_RATIO = 1e3
# pencil draws before a complex or clustered spectrum counts as proof
PENCIL_DRAWS = 3
# smallest chordal gap at which pencil eigenvalues count as separated
PENCIL_GAP_TOL = 1e-6
POLISH_STEPS = 40  # Levenberg-Marquardt steps of the rank-one polish
STACK_TOL = 1e-5

METHOD_SPAN = "span-dim"
METHOD_SPAN_PLUS_ONE = "span-dim-plus-one"


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Proven minimum setting count with its evidence trail, its method derived."""

    bound: int
    pairing_used: str
    span_dimension: int
    rank_one_span_dimension: int
    search_exhausted: bool

    @property
    def method(self) -> str:
        return METHOD_SPAN_PLUS_ONE if self.bound > max(self.span_dimension, 1) else METHOD_SPAN

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
    if none), the smallest eigenvalue gap of each pencil draw, and the
    dimension d of the span basis that the test ran on."""

    elements: list
    exhausted: bool
    kernel_dim: int
    kernel_sigma_kept: float
    kernel_sigma_dropped: float
    pencil_gaps: tuple
    span_dimension: int = 0


def _slices(c: pauli.PauliCoefficients, pairing: str) -> np.ndarray:
    """The slice family of ``pairing`` as ``pauli.slice_family`` reads it,
    all zero below the certificate's resolution: when no singular value of
    the rows it is ranked by (the k flattened slices; for two qubits the one
    matrix's rows) exceeds ``RANK_TOL`` times the norm of ``c.coeffs``.
    Those rows have rank at most 4, so their Frobenius norm is at most twice
    their largest singular value and only a family within twice that floor
    needs the SVD."""
    fam = pauli.slice_family(c, pairing)
    coeffs = c.coeffs.ravel()
    floor = linalg.RANK_TOL * math.sqrt(coeffs @ coeffs)
    flat = fam.ravel()
    if (math.sqrt(flat @ flat) <= 2.0 * floor and np.linalg.svd(
            fam[0] if len(fam) == 1 else fam.reshape(len(fam), 9),
            compute_uv=False)[0] <= floor):
        return np.zeros_like(fam)
    return fam


def slice_span_dimension(c: pauli.PauliCoefficients, pairing: str) -> int:
    """Dimension of the span of the reduced slice matrices, 0 for a
    family below the certificate's resolution (see the module docstring).

    For two qubits this is the rank of the single reduced matrix.  ``c``
    and ``pairing`` are checked by ``pauli.slice_family``.
    """
    fam = _slices(c, pairing)
    return linalg.numerical_rank(fam[0] if len(fam) == 1 else fam)


_MINOR_PAIRS = ((0, 1), (0, 2), (1, 2))
# flat indices of the entries x[a, c], x[b, d], x[a, d] and x[b, c] of the
# nine minors, row pairs (a, b) outer and column pairs (c, d) inner
_MINOR_ENTRIES = linalg.read_only(np.array(
    [[3 * rows[i] + cols[j] for rows in _MINOR_PAIRS for cols in _MINOR_PAIRS]
     for i, j in ((0, 0), (1, 1), (0, 1), (1, 0))]))


def _minor_vectors(xs: np.ndarray) -> np.ndarray:
    """All nine 2x2 minors of a stack of 3x3 matrices, shape (..., 9).

    Minor (a, b), (c, d) is x[a, c] x[b, d] - x[a, d] x[b, c], row pairs
    outer and column pairs inner, in the order of ``_MINOR_PAIRS``.
    """
    f = xs.reshape(xs.shape[:-2] + (9,))[..., _MINOR_ENTRIES]
    return f[..., 0, :] * f[..., 1, :] - f[..., 2, :] * f[..., 3, :]


def _minor_quadratic_forms(basis: np.ndarray) -> np.ndarray:
    """Symmetric forms Q with minor_k(sum_j t_j B_j) = t^T Q[k] t."""
    # row k of each factor: flat entry k of every basis matrix
    ac, bd, ad, bc = basis.reshape(-1, 9).T[_MINOR_ENTRIES]
    outer = ac[:, :, None] * bd[:, None, :] - ad[:, :, None] * bc[:, None, :]
    # + 0.0 turns -0.0 into 0.0: an exact zero carries no sign into the kernel SVD
    return (outer + outer.transpose(0, 2, 1)) / 2.0 + 0.0


def _orthonormal_span_basis(matrices, target_norm: float = 0.0):
    """Orthonormal basis, as 3x3 matrices, of the span that
    ``linalg.numerical_rank`` measures, and the factor on the kernel and
    minor tolerances: the basis's condition number kappa, times
    nu = max(1, target_norm / (FAINT_SPAN_RATIO * sigma_max)), sigma_max
    the largest singular value of the matrices.  ``matrices`` is an
    (m, 3, 3) array or a list of 3x3 matrices, and ``target_norm`` the
    norm of the target whose rounding they carry (0: their own).  The
    singular values come in descending order, so the kept ones lead."""
    stacked = np.reshape(matrices, (-1, 9))
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return np.zeros((0, 3, 3)), 1.0
    d = int(np.count_nonzero(svals > linalg.RANK_TOL * svals[0]))
    nu = max(1.0, target_norm / (FAINT_SPAN_RATIO * float(svals[0])))
    return vt[:d].reshape(d, 3, 3), float(svals[0] / svals[d - 1]) * nu


def _combine(coeffs: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """The sums of ``mats`` weighted by the last axis of ``coeffs``: the one
    ``np.dot`` that ``np.tensordot(coeffs, mats, axes=1)`` performs, without
    its per-call axis bookkeeping."""
    d = mats.shape[0]
    return np.dot(coeffs.reshape(-1, d), mats.reshape(d, -1)).reshape(
        coeffs.shape[:-1] + mats.shape[1:])


def _batched_descent(q, starts, f_stop: float):
    """Projected Levenberg-Marquardt on the minors from all starts at once,
    each with its own damping, refusing steps that do not shrink them.  A
    start stops once its squared minors sum to ``f_stop``, its damping
    reaches 1e9 or ``POLISH_STEPS`` steps have run.  Returns the unit vectors.

    The first step is Gauss-Newton: the damping starts at its floor 1e-12,
    then shrinks by 0.3 (down to the floor) after an accepted step and grows
    by 10 after a refused one.  At a double zero of the minors, such as w1's
    rank-one element, J^T J is ~1e-11 across the flat directions, so an
    absolute damping of 1e-3 would cut the steps there by ~1e-8 and leave
    starts taking rounding-level steps until ``POLISH_STEPS`` runs out."""
    t = starts / _row_norms(starts)
    d = t.shape[1]
    eye = np.eye(d)
    q_flat = q.reshape(9 * d, d).T

    def half_jacobian_and_minors(t):
        qt = (t @ q_flat).reshape(-1, 9, d)
        return qt, (qt @ t[:, :, None])[:, :, 0]

    qt, m = half_jacobian_and_minors(t)
    f = np.einsum("tk,tk->t", m, m)
    floor = 1e-12
    lam = np.full(len(t), floor)
    for _ in range(POLISH_STEPS):
        active = (f > f_stop) & (lam < 1e9)
        if not active.any():
            break
        jac_t = 2.0 * qt.transpose(0, 2, 1)
        lhs = jac_t @ jac_t.transpose(0, 2, 1) + lam[:, None, None] * eye
        t_new = t - np.linalg.solve(lhs, jac_t @ m[:, :, None])[:, :, 0]
        norms = _row_norms(t_new)
        ok = norms[:, 0] > 1e-12
        t_new /= np.where(ok[:, None], norms, 1.0)
        qt_new, m_new = half_jacobian_and_minors(t_new)
        f_new = np.einsum("tk,tk->t", m_new, m_new)
        better = active & ok & (f_new < f)
        t, m = np.where(better[:, None], t_new, t), np.where(better[:, None], m_new, m)
        qt, f = np.where(better[:, None, None], qt_new, qt), np.where(better, f_new, f)
        lam = np.where(better, np.maximum(lam * 0.3, floor), lam * 10.0)
    return t


def _triu_table(d: int):
    """Flat indices into a d x d matrix of its upper-triangle entries (i, j),
    i <= j in row-major order; their weights, 1 on the diagonal and 2 off
    it; and, for every entry of the matrix, the position in that order of
    the upper-triangle entry it mirrors or is."""
    rows, cols = np.triu_indices(d)
    position = np.empty((d, d), dtype=int)
    position[rows, cols] = position[cols, rows] = np.arange(rows.size)
    return rows * d + cols, np.where(rows == cols, 1.0, 2.0), position.ravel()


# the minor kernel's index table for every span dimension d = 1..9
_TRIU = {d: tuple(map(linalg.read_only, _triu_table(d))) for d in range(1, 10)}


def _minor_kernel(q: np.ndarray, tol: float):
    """Kernel of S -> (<Q_k, S>)_k on symmetric S, as symmetric matrices,
    with the smallest singular value above ``tol`` and the largest at or
    below it.  S enters by its upper triangle, off-diagonals doubled; a map
    with fewer rows than columns has zero singular values for the rest.
    The singular values come in descending order, so the kernel is the
    trailing rows of V^T."""
    d = q.shape[1]
    upper, weight, position = _TRIU[d]
    _, svals, vt = np.linalg.svd(q.reshape(len(q), d * d)[:, upper] * weight)
    rank = int(np.count_nonzero(svals > tol))
    kept = svals[rank - 1] if rank else np.float64(np.inf)
    dropped = svals[rank] if rank < svals.size else np.float64(0.0)
    return vt[rank:, position].reshape(-1, d, d), kept, dropped


def _kernel_test(basis: np.ndarray, kappa: float):
    """The minor forms Q over ``basis`` (:func:`_minor_quadratic_forms`)
    and the kernel of the minor map at ``KERNEL_TOL * kappa`` with its two
    bracketing singular values (:func:`_minor_kernel`)."""
    q = _minor_quadratic_forms(basis)
    return (q,) + _minor_kernel(q, KERNEL_TOL * kappa)


def _pencil(a: np.ndarray, b: np.ndarray):
    """Eigenvalues and eigenvectors of B A^-1 and their smallest chordal
    gap, the sine of the angle between points (a_i, b_i) of the pencil, so
    inverting B instead gives the same gap: 1 for one eigenvalue, 0 (and
    no eigenvalues) if A is singular."""
    try:
        lam, vecs = np.linalg.eig(np.linalg.solve(a, b).T)
    except np.linalg.LinAlgError:
        return np.zeros(0), np.zeros((len(a), 0)), 0.0
    scale = 1.0 + np.abs(lam) ** 2
    chordal = np.abs(lam[:, None] - lam) / np.sqrt(scale[:, None] * scale)
    chordal.flat[::len(lam) + 1] = np.inf  # the diagonal
    return lam, vecs, float(chordal.min(initial=1.0))


def _row_norms(ts: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``ts``, shape (n, 1): the reduction
    that ``np.linalg.norm(ts, axis=1, keepdims=True)`` performs."""
    return np.sqrt(np.add.reduce(ts * ts, axis=1, keepdims=True))


def _unit_minors(basis, ts):
    """The unit vectors of ``ts`` and the largest minor of each one's element."""
    ts = ts / _row_norms(ts)
    return ts, np.abs(_minor_vectors(_combine(ts, basis))).max(axis=1)


def _polished(q, ts, minors, kappa: float):
    """``ts``, those with minors above ``POLISHED_MINOR_TOL * kappa``
    polished towards it by ``_batched_descent``."""
    rough = minors > POLISHED_MINOR_TOL * kappa
    if rough.any():
        ts[rough] = _batched_descent(q, ts[rough], (POLISHED_MINOR_TOL * kappa) ** 2)
    return ts


def _rank_one_vectors(basis, q, ts, kappa: float):
    """The unit vectors among ``ts`` whose element has every minor within
    ``RANK_ONE_MINOR_TOL * kappa``, polished (:func:`_polished`)."""
    ts, minors = _unit_minors(basis, ts)
    passed = minors <= RANK_ONE_MINOR_TOL * kappa
    return _polished(q, ts[passed], minors[passed], kappa)


def _span_array(span_basis) -> np.ndarray:
    """``span_basis`` as one (m, 3, 3) float array, checked as
    :func:`rank_one_elements_in_span` documents.  A nonempty float
    (m, 3, 3) ndarray, the form ``lower_bound`` passes, needs only the
    finiteness check."""
    if (isinstance(span_basis, np.ndarray) and span_basis.dtype.kind == "f"
            and span_basis.shape[1:] == (3, 3) and len(span_basis)):
        return real_array(span_basis, "span basis entries")
    matrices = sequence(span_basis, "span basis")
    if not matrices:
        raise ValueError("span basis must be nonempty")
    if any(np.shape(m) != (3, 3) for m in matrices):
        raise ValueError("span basis matrices must be 3x3")
    return real_array(matrices, "span basis entries")


def _independent_rows(rows: np.ndarray, tol: float) -> list:
    """Indices of the rows that the greedy loop ``numerical_rank(chosen +
    [row], tol) > len(chosen)`` keeps, in order.  One stacked SVD decides
    every remaining row against the rows chosen so far, and the first row
    that raises the rank joins them: the rows before it were refused
    against the same rows, so the loop would have refused them too.  A
    nonzero row on its own has rank one and needs no SVD."""
    chosen, start = [], 0
    while start < len(rows):
        rest = rows[start:]
        if chosen:
            stacks = np.concatenate(
                [np.broadcast_to(rows[chosen], (len(rest), len(chosen), rows.shape[1])),
                 rest[:, None]], axis=1)
            svals = np.linalg.svd(stacks, compute_uv=False)
            raises = (svals > tol * svals[:, :1]).sum(axis=1) > len(chosen)
        else:
            raises = rest.any(axis=1)
        if not raises.any():
            break
        start += int(raises.argmax())
        chosen.append(start)
        start += 1
    return chosen


def rank_one_elements_in_span(span_basis, restarts: int = 500, seed: int = 0,
                              target_norm: float = 0.0) -> RankOneSearchResult:
    """Rank-one elements of a span of 3x3 matrices, by the kernel and
    pencil test of the module docstring; ``exhausted`` means it was
    conclusive.  A separated real pencil whose d eigenvectors are rank-one
    returns them, independent by their distinct eigenvalues.  Otherwise the
    rank-one eigenvectors, kept while independent at ``STACK_TOL``, are the
    evidence.  ``seed`` keys the draws; ``restarts`` is unused.  Both must
    be nonnegative integers on every branch, or ``ValueError`` is raised.
    ``target_norm``, the norm of the Pauli tensor the span was sliced from,
    scales the tolerances up for a span fainter than it
    (:func:`_orthonormal_span_basis`); it is a real number of at least 0
    (:func:`rng.real_number`), and 0 leaves them at the span's own scale.

    ``span_basis`` is an (m, 3, 3) array or a sequence of m 3x3 matrices,
    both giving the same result, read once by :func:`rng.real_array`.
    ``ValueError`` is raised when it is no sequence or empty ("span basis
    must be nonempty"), when a matrix is not 3x3 or the matrices differ in
    shape ("span basis matrices must be 3x3"), and when an entry is no
    real number or NaN or infinite ("span basis entries must be finite")."""
    whole_number(restarts, "restarts")
    seed = whole_number(seed, "seed")
    target_norm = real_number(target_norm, "target_norm", 0.0)
    basis, kappa = _orthonormal_span_basis(_span_array(span_basis), target_norm)
    d = basis.shape[0]
    if d == 0:
        return RankOneSearchResult([], True, 0, np.inf, 0.0, (), 0)
    q, kernel, kept, dropped = _kernel_test(basis, kappa)
    if len(kernel) != d:
        return RankOneSearchResult([], len(kernel) < d, len(kernel), kept,
                                   dropped, (), d)
    rng = borrow(seed)
    gaps, vectors = [], []
    for _ in range(PENCIL_DRAWS):
        lam, vecs, gap = _pencil(*_combine(rng.standard_normal((2, d)), kernel))
        gaps.append(gap)
        separated = gap >= PENCIL_GAP_TOL and not lam.imag.any()
        if separated:  # this draw decides on its own
            vectors = [vecs.real.T]
            break
        vectors.append(vecs.real.T)
    ts = _rank_one_vectors(basis, q, np.concatenate(vectors), kappa)
    elements = _combine(ts, basis)
    if not (separated and len(elements) == d):
        elements = elements[_independent_rows(elements.reshape(-1, 9), STACK_TOL)]
    exhausted = separated or kappa * PENCIL_GAP_TOL <= 1e-2
    return RankOneSearchResult(list(elements), exhausted, d, kept, dropped,
                               tuple(gaps), d)


def first_draw_elements(span, limit: int):
    """The rank-one elements that the first pencil draw of seed 0 fixes in
    ``span``, for a search start of at most ``limit`` settings.

    That draw is the first one :func:`rank_one_elements_in_span` makes at
    seed 0 and ``target_norm`` 0, on the same span basis, kappa and kernel.
    It is used when the kernel dimension equals the span dimension d,
    1 <= d <= ``limit``, the draw's smallest eigenvalue gap is at least
    ``PENCIL_GAP_TOL``, its spectrum has at most one complex-conjugate
    pair, d plus the number of pairs is at most ``limit`` (the pair's
    element becomes three real settings), and every element passes the
    minor test at
    ``RANK_ONE_MINOR_TOL * kappa``: each real eigenvector's unit element,
    and the unit complex element of the pair's eigenvector with positive
    imaginary part.  Only then are the real ones polished.  One case is
    read although an element fails: d = 4 <= ``limit`` - 1 and exactly one
    real element passes.  That lone element e is polished and the pair is
    not read.  This is w1's AB|C span, whose one rank-one element is z z^T
    and whose pencil has a single eigenvalue, split by rounding into the
    draw's separated spectrum.

    Returns the polished real elements, an (r, 3, 3) array with r = d or
    d - 2, and the complex (3, 3) element, None when there is no pair; in
    the lone-element case, e as a (1, 3, 3) array and the orthonormal span
    basis, a real (4, 3, 3) array.
    Returns None when the start cannot be used.  ``span`` is checked as
    :func:`rank_one_elements_in_span` checks it, and ``limit`` must be a
    nonnegative integer, or ``ValueError`` is raised."""
    limit = whole_number(limit, "limit")
    basis, kappa = _orthonormal_span_basis(_span_array(span))
    d = basis.shape[0]
    if not 1 <= d <= limit:
        return None
    q, kernel, _, _ = _kernel_test(basis, kappa)
    if len(kernel) != d:
        return None
    lam, vecs, gap = _pencil(*_combine(borrow(0).standard_normal((2, d)), kernel))
    real, pair = lam.imag == 0, lam.imag > 0
    if gap < PENCIL_GAP_TOL or pair.sum() > 1 or d + pair.sum() > limit:
        return None
    ts, minors = _unit_minors(basis, vecs[:, real].real.T)
    passed = minors <= RANK_ONE_MINOR_TOL * kappa
    if not passed.all():
        # a lone element e of a four-dimensional span: the start covers the
        # span with e and four settings from e's tangent space
        if d != 4 or limit < 5 or passed.sum() != 1:
            return None
        return _combine(_polished(q, ts[passed], minors[passed], kappa), basis), basis
    complex_element = None
    if pair.any():
        complex_element = _combine(vecs[:, pair][:, 0], basis)
        complex_element = complex_element / np.linalg.norm(complex_element)
        if np.abs(_minor_vectors(complex_element)).max() > RANK_ONE_MINOR_TOL * kappa:
            return None
    return _combine(_polished(q, ts, minors, kappa), basis), complex_element


def structured_rank_one_check(form: str, coefficients) -> bool:
    """Exact rank-one test for the two parametrized slice-span forms.

    ``"ghz"`` takes (alpha, beta, gamma) for [[-a, b, 0], [b, a, 0],
    [0, 0, g]]; ``"w1"`` takes (alpha, beta, gamma, delta) for
    [[a, 0, b], [0, a, g], [b, g, d]].  Returns True when the matrix is
    nonzero with every 2x2 minor exactly zero.  The coefficients are read
    by :func:`rng.real_array`, else ``ValueError``.
    """
    vals = real_array(coefficients, "form coefficients")
    if form == "ghz":
        if vals.shape != (3,):
            raise ValueError("ghz form takes (alpha, beta, gamma)")
        a, b, g = vals.tolist()
        mat = np.array([[-a, b, 0.0], [b, a, 0.0], [0.0, 0.0, g]])
    elif form == "w1":
        if vals.shape != (4,):
            raise ValueError("w1 form takes (alpha, beta, gamma, delta)")
        a, b, g, dd = vals.tolist()
        mat = np.array([[a, 0.0, b], [0.0, a, g], [b, g, dd]])
    else:
        raise KeyError(f"unknown form {form!r}")
    if not mat.any():
        return False
    return not _minor_vectors(mat).any()


def lower_bound(w, restarts: int = 500, seed: int = 0) -> LowerBoundCertificate:
    """Certified minimum number of settings needed to measure a target
    operator, read through ``witnesses.as_coefficients``.

    Evaluates every pairing and reports the best (largest) bound.  Two
    qubits never escalate beyond the span dimension (a rank-d real
    matrix is always a sum of d rank-one outer products, so the
    certificate records rank_one_span_dimension = d with no search);
    three qubits escalate to d + 1 when ``rank_one_elements_in_span``
    proves that the slice span holds fewer than d independent rank-one
    elements, at tolerances scaled to the target's norm when the span is
    faint against it.  ``seed`` keys its pencil draws; ``restarts`` is unused.
    Either one negative, fractional, infinite or NaN raises ``ValueError``
    for every witness, and so does a seed of 2**62 or more: pairing
    ``idx`` draws from seed ``4 * seed + idx``, which must stay below
    2**64.
    """
    whole_number(restarts, "restarts")
    seed = whole_number(seed, "seed", bits=KEY_BITS - 2)
    c = witnesses.as_coefficients(w)
    if c.n_qubits == 1:
        raise ValueError("lower bounds are implemented for 2 or 3 qubits")
    if c.n_qubits == 2:
        d = slice_span_dimension(c, pauli.PAIRING_2)
        return LowerBoundCertificate(
            bound=max(d, 1), pairing_used=pauli.PAIRING_2, span_dimension=d,
            rank_one_span_dimension=d, search_exhausted=True)
    best: LowerBoundCertificate | None = None
    norm = float(np.linalg.norm(c.coeffs))
    for idx, pairing in enumerate(pauli.PAIRINGS_3):
        search = rank_one_elements_in_span(_slices(c, pairing), restarts=restarts,
                                           seed=(seed << 2) + idx, target_norm=norm)
        d = search.span_dimension
        plus_one = search.exhausted and len(search.elements) < d
        cert = LowerBoundCertificate(
            bound=max(d + plus_one, 1), pairing_used=pairing, span_dimension=d,
            rank_one_span_dimension=len(search.elements), search_exhausted=search.exhausted)
        if best is None or cert.bound > best.bound:
            best = cert
    assert best is not None
    return best

import numpy as np
import pytest

from witkit import certify, linalg, pauli, settings, witnesses
from witkit.rng import stream


def local_unitary(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_witness(w, rng):
    u = linalg.kron_all([local_unitary(rng) for _ in range(w.n_qubits)])
    return witnesses.Witness(w.name, u @ w.operator @ u.conj().T,
                             w.n_qubits, w.verdict_rules)


def test_slice_span_dimensions():
    c0 = pauli.to_pauli(witnesses.witness_w0().operator)
    assert certify.slice_span_dimension(c0, "A|B") == 3
    c_ghz = pauli.to_pauli(witnesses.witness_ghz().operator)
    assert certify.slice_span_dimension(c_ghz, "AB|C") == 3
    c_w1 = pauli.to_pauli(witnesses.witness_w1().operator)
    assert certify.slice_span_dimension(c_w1, "AB|C") == 4
    with pytest.raises(ValueError):
        certify.slice_span_dimension(c_ghz, "AB-C")


def test_rank_one_search_elementary_diagonals():
    basis = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    res = certify.rank_one_elements_in_span(basis, restarts=200, seed=3)
    assert res.span_dim_of_elements == 3
    assert res.exhausted
    for el in res.elements:
        assert np.linalg.svd(el, compute_uv=False)[1] < 1e-9


def test_rank_one_search_ghz_span():
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    fam = pauli.slice_family(c, "AB|C")
    res = certify.rank_one_elements_in_span(fam.matrices, restarts=300, seed=0)
    assert res.span_dim_of_elements == 1
    assert res.exhausted
    # every found element matches the alpha = beta = 0 pattern
    for el in res.elements:
        assert abs(el[0, 0]) < 1e-6 and abs(el[1, 1]) < 1e-6
        assert abs(el[0, 1]) < 1e-6 and abs(el[1, 0]) < 1e-6
        assert abs(el[2, 2]) > 0.9


def test_rank_one_search_w1_span():
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    fam = pauli.slice_family(c, "AB|C")
    res = certify.rank_one_elements_in_span(fam.matrices, restarts=300, seed=0)
    assert res.span_dim_of_elements == 1
    assert res.exhausted
    for el in res.elements:
        for idx in ((0, 0), (1, 1), (0, 2), (2, 0), (1, 2), (2, 1)):
            assert abs(el[idx]) < 1e-6
        assert abs(el[2, 2]) > 0.9


def test_structured_rank_one_check():
    assert certify.structured_rank_one_check("ghz", (0.0, 0.0, 1.0))
    assert not certify.structured_rank_one_check("ghz", (1.0, 0.0, 0.0))
    assert not certify.structured_rank_one_check("ghz", (0.0, 0.5, 1.0))
    assert not certify.structured_rank_one_check("ghz", (0.0, 0.0, 0.0))
    assert certify.structured_rank_one_check("w1", (0.0, 0.0, 0.0, 2.0))
    assert not certify.structured_rank_one_check("w1", (1.0, 0.0, 0.0, 0.0))
    assert not certify.structured_rank_one_check("w1", (0.0, 0.3, 0.0, 1.0))
    with pytest.raises(KeyError):
        certify.structured_rank_one_check("nope", (0.0,))


def test_search_agrees_with_structured_forms():
    # the search finds exactly the patterns the exact minor check accepts
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    fam = pauli.slice_family(c, "AB|C")
    res = certify.rank_one_elements_in_span(fam.matrices, restarts=200, seed=5)
    for el in res.elements:
        alpha = float(np.round(el[1, 1], 6))
        beta = float(np.round(el[0, 1], 6))
        gamma = float(el[2, 2])
        assert certify.structured_rank_one_check("ghz", (alpha, beta, gamma))


def test_lower_bounds_for_catalog_witnesses():
    cert0 = certify.lower_bound(witnesses.witness_w0(), restarts=100, seed=0)
    assert cert0.bound == 3
    assert cert0.method == "span-dim"
    assert cert0.span_dimension == 3

    cert_ghz = certify.lower_bound(witnesses.witness_ghz(), restarts=200, seed=0)
    assert cert_ghz.bound == 4
    assert cert_ghz.method == "span-dim-plus-one"
    assert cert_ghz.span_dimension == 3
    assert cert_ghz.rank_one_span_dimension == 1
    assert cert_ghz.search_exhausted

    cert_w1 = certify.lower_bound(witnesses.witness_w1(), restarts=200, seed=0)
    assert cert_w1.bound == 5
    assert cert_w1.method == "span-dim-plus-one"
    assert cert_w1.span_dimension == 4
    assert cert_w1.rank_one_span_dimension == 1


def test_lower_bound_product_projector():
    cert = certify.lower_bound(witnesses.witness_phi(1.0, 0.0))
    assert cert.bound == 1
    assert cert.method == "span-dim"


def test_lower_bound_soundness_against_catalog():
    for name, wit in (("anton", witnesses.witness_w0()),
                      ("ghz", witnesses.witness_ghz()),
                      ("w1", witnesses.witness_w1())):
        dec = settings.catalog_decomposition(name)
        cert = certify.lower_bound(wit, restarts=150, seed=2)
        assert cert.bound <= dec.n_settings
        assert cert.bound == dec.n_settings  # the catalog entries are optimal


def test_lower_bound_invariant_under_local_rotations():
    rng = np.random.default_rng(19)
    for wit, expected in ((witnesses.witness_ghz(), 4),
                          (witnesses.witness_w1(), 5)):
        for _ in range(3):
            rot = rotated_witness(wit, rng)
            cert = certify.lower_bound(rot, restarts=150, seed=4)
            assert cert.bound == expected


def test_certificate_json_fields():
    cert = certify.lower_bound(witnesses.witness_ghz(), restarts=100, seed=0)
    data = cert.to_json_dict("ghz")
    assert set(data) == {"witness", "bound", "method", "span_dimension",
                         "rank_one_span_dimension", "exhausted", "pairing"}
    assert data["witness"] == "ghz" and data["bound"] == 4


@pytest.mark.parametrize("m", [2, 3])
def test_lower_bound_never_overclaims_at_low_restarts(m):
    # a sum of m settings needs at most m; with 0-3 restarts there is no
    # evidence for escalating past the span dimension
    rng = np.random.default_rng(30 + m)
    for trial in range(4):
        op = 0
        for _ in range(m):
            dirs = rng.standard_normal((3, 3))
            op = op + settings.setting_operator(
                settings.setting(dirs, rng.standard_normal((2, 2, 2))))
        for restarts in range(4):
            cert = certify.lower_bound(op, restarts=restarts, seed=trial)
            assert cert.bound <= m


def _minor_vector_reference(x):
    pairs = ((0, 1), (0, 2), (1, 2))
    return np.array([x[a, c] * x[b, d] - x[a, d] * x[b, c]
                     for a, b in pairs for c, d in pairs])


def test_minor_vectors_match_explicit_formula():
    rng = np.random.default_rng(5)
    for shape in ((3, 3), (7, 3, 3), (2, 4, 3, 3)):
        xs = rng.standard_normal(shape)
        got = certify._minor_vectors(xs)
        assert got.shape == shape[:-2] + (9,)
        flat = xs.reshape(-1, 3, 3)
        ref = np.array([_minor_vector_reference(x) for x in flat])
        assert np.array_equal(got.reshape(-1, 9), ref)


def test_minor_quadratic_forms_match_loop_reference():
    pairs = ((0, 1), (0, 2), (1, 2))
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 4):
        basis = rng.standard_normal((d, 3, 3))
        ref = np.empty((9, d, d))
        for i, ((a, b), (c, e)) in enumerate((r, k) for r in pairs for k in pairs):
            outer = (np.outer(basis[:, a, c], basis[:, b, e])
                     - np.outer(basis[:, a, e], basis[:, b, c]))
            ref[i] = (outer + outer.T) / 2.0
        assert np.array_equal(certify._minor_quadratic_forms(basis), ref)
        # the forms give the minors of every element of the span
        t = rng.standard_normal(d)
        x = np.tensordot(t, basis, axes=1)
        assert np.allclose(np.einsum("i,kij,j->k", t, ref, t), certify._minor_vectors(x))


# --- the kernel and pencil test -----------------------------------------------

def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _setting_sum(rng, m, eps=None):
    """Operator of m settings with random directions and outcome weights.

    With ``eps`` the last setting repeats the first one's C direction and
    weights up to ``eps``, so the C-components of the AB|C slices are
    nearly dependent and that slice span is ill-conditioned, while its m
    rank-one elements stay well apart.
    """
    dirs = [[_unit(rng) for _ in range(3)] for _ in range(m)]
    weights = [rng.standard_normal((2, 2, 2)) for _ in range(m)]
    if eps is not None:
        c = dirs[0][2] + eps * rng.standard_normal(3)
        dirs[-1][2] = c / np.linalg.norm(c)
        weights[-1] = weights[0] + eps * rng.standard_normal((2, 2, 2))
    return sum(settings.setting_operator(settings.setting(d, w))
               for d, w in zip(dirs, weights))


def _smallest_slice_singular_value(op, m):
    """Relative m-th singular value of the AB|C slices of m settings."""
    fam = pauli.slice_family(pauli.to_pauli(op, 3), "AB|C").matrices
    svals = np.linalg.svd(np.vstack([x.ravel() for x in fam]), compute_uv=False)
    return svals[min(m, 4) - 1] / svals[0]


@pytest.mark.parametrize("m", range(1, 7))
def test_lower_bound_never_overclaims_on_random_sums(m):
    # a sum of m settings needs at most m; for m = 2..4 one sum in four has
    # an ill-conditioned AB|C span, the kind the randomized search
    # overclaimed on (five or more settings cannot make it: 4 slices)
    rng = np.random.default_rng(900 + m)
    ill = 0
    for trial in range(200):
        eps = 10.0 ** rng.uniform(-6, -4.5) if 2 <= m <= 4 and trial % 4 == 0 else None
        op = _setting_sum(rng, m, eps)
        ill += bool(_smallest_slice_singular_value(op, m) <= 1e-4)
        assert certify.lower_bound(op, seed=trial).bound <= m, (m, trial, eps)
    assert ill >= (45 if 2 <= m <= 4 else 0)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("scale", [1e-5, 2e-5])
def test_ill_conditioned_spans_keep_their_setting_count(m, scale):
    # the slice singular value falls further below eps as m grows
    eps = scale * 2.0 ** (m - 2)
    rng = np.random.default_rng(int(scale * 1e6) + 100 * m)
    for trial in range(5):
        op = _setting_sum(rng, m, eps)
        assert 1e-8 < _smallest_slice_singular_value(op, m) <= 1e-4
        assert certify.lower_bound(op, seed=trial).bound == m
        fam = pauli.slice_family(pauli.to_pauli(op, 3), "AB|C").matrices
        res = certify.rank_one_elements_in_span(fam, seed=trial)
        assert res.exhausted and res.kernel_dim == m
        assert res.span_dim_of_elements == m
        assert res.pencil_gaps[-1] >= certify.PENCIL_GAP_TOL


def test_search_evidence():
    diag = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    res = certify.rank_one_elements_in_span(diag, seed=3)
    assert (res.kernel_dim, len(res.pencil_gaps)) == (3, 1)
    assert res.kernel_sigma_dropped <= 1e-15 < 0.1 < res.kernel_sigma_kept
    assert res.pencil_gaps[0] >= certify.PENCIL_GAP_TOL
    # ghz: a complex pencil spectrum on every draw
    fam = pauli.slice_family(pauli.to_pauli(witnesses.witness_ghz().operator),
                             "AB|C").matrices
    res = certify.rank_one_elements_in_span(fam, seed=0)
    assert (res.kernel_dim, len(res.pencil_gaps)) == (3, certify.PENCIL_DRAWS)
    # five settings: the kernel is smaller than the span, so no pencil
    op = _setting_sum(np.random.default_rng(3), 5)
    fam = pauli.slice_family(pauli.to_pauli(op, 3), "AB|C").matrices
    res = certify.rank_one_elements_in_span(fam, seed=0)
    assert res.exhausted and res.kernel_dim < 4 and res.pencil_gaps == ()
    assert res.elements == [] and res.kernel_sigma_kept > 1e-6


def test_one_dimensional_spans():
    rank_one = [np.outer([1.0, 2.0, 0.0], [0.0, 1.0, -1.0])]
    res = certify.rank_one_elements_in_span(rank_one, seed=1)
    assert (res.kernel_dim, res.span_dim_of_elements, res.exhausted) == (1, 1, True)
    assert res.kernel_sigma_kept == np.inf and res.kernel_sigma_dropped == 0.0
    res = certify.rank_one_elements_in_span([np.diag([1.0, 1.0, 0.0])], seed=1)
    assert (res.kernel_dim, res.span_dim_of_elements, res.exhausted) == (0, 0, True)


def test_restarts_do_not_change_results():
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    fam = pauli.slice_family(c, "AB|C").matrices
    ref = certify.rank_one_elements_in_span(fam, restarts=0, seed=2)
    for restarts in (1, 3, 500):
        res = certify.rank_one_elements_in_span(fam, restarts=restarts, seed=2)
        assert res.pencil_gaps == ref.pencil_gaps
        assert np.array_equal(res.elements, ref.elements)
    for wit, bound in ((witnesses.witness_ghz(), 4), (witnesses.witness_w1(), 5),
                       (witnesses.witness_w2(), 4)):
        certs = {restarts: certify.lower_bound(wit, restarts=restarts, seed=1)
                 for restarts in (0, 3, 500)}
        assert certs[0] == certs[3] == certs[500]
        assert certs[0].bound == bound


@pytest.mark.parametrize("kwargs", [{"restarts": -1}, {"seed": -1}])
def test_negative_restarts_or_seed_are_rejected(kwargs):
    for wit in (witnesses.witness_w0(), witnesses.witness_ghz()):
        with pytest.raises(ValueError):
            certify.lower_bound(wit, **kwargs)
    with pytest.raises(ValueError):
        certify.rank_one_elements_in_span([np.eye(3)], **kwargs)



# --- the kernel and pencil test in loop form, kept as the reference -----------

def _descent_reference(q, t, f_stop, lm_iters=40):
    """``certify._batched_descent`` from one start, one step at a time."""
    t = t / np.linalg.norm(t)

    def minors(t):
        return np.array([t @ qk @ t for qk in q])

    m = minors(t)
    f, lam = m @ m, 1e-3
    for _ in range(lm_iters):
        if not (f > f_stop and lam < 1e9):
            break
        jac = np.array([2.0 * qk @ t for qk in q])
        t_new = t - np.linalg.solve(jac.T @ jac + lam * np.eye(t.size), jac.T @ m)
        norm = np.linalg.norm(t_new)
        m_new = minors(t_new / norm) if norm > 1e-12 else m
        if norm > 1e-12 and m_new @ m_new < f:
            t, m, f = t_new / norm, m_new, m_new @ m_new
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
    return t


def _rank_one_vector_reference(basis, q, t, kappa):
    """The unit vector of ``t`` if its element passes the minor test,
    polished when rough; None if it fails."""
    t = t / np.linalg.norm(t)
    minor = np.abs(_minor_vector_reference(np.tensordot(t, basis, axes=1))).max()
    if minor > certify.RANK_ONE_MINOR_TOL * kappa:
        return None
    if minor > certify.POLISHED_MINOR_TOL * kappa:
        t = _descent_reference(q, t, (certify.POLISHED_MINOR_TOL * kappa) ** 2)
    return t


def _kernel_reference(q, tol):
    """The kernel map built entry by entry, and its kernel one singular
    vector at a time."""
    d = q.shape[1]
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    mat = np.array([[qk[i, j] * (1.0 if i == j else 2.0) for i, j in pairs]
                    for qk in q])
    _, svals, vt = np.linalg.svd(mat)
    svals = list(svals) + [0.0] * (len(pairs) - len(svals))
    kernel = []
    for s, v in zip(svals, vt):
        if s <= tol:
            k = np.zeros((d, d))
            for (i, j), x in zip(pairs, v):
                k[i, j] = k[j, i] = x
            kernel.append(k)
    kept = min((s for s in svals if s > tol), default=np.inf)
    dropped = max((s for s in svals if s <= tol), default=0.0)
    return kernel, kept, dropped


def _rank_one_loop_reference(span_basis, seed):
    """The test as one loop over pencil draws and one over eigenvectors.

    The draws combine the kernel as the module does: on w1 the pencil is a
    near-Jordan cluster whose eigenvectors move by about the fourth root of
    any rounding difference in the pencil.
    """
    basis, kappa = certify._orthonormal_span_basis(span_basis)
    d = basis.shape[0]
    if d == 0:
        return certify.RankOneSearchResult([], 0, True, 0, np.inf, 0.0, ())
    q = certify._minor_quadratic_forms(basis)
    kernel, kept, dropped = _kernel_reference(q, certify.KERNEL_TOL * kappa)
    if len(kernel) != d:
        return certify.RankOneSearchResult([], 0, len(kernel) < d, len(kernel),
                                           kept, dropped, ())
    rng = stream(seed)
    gaps, ts = [], []
    for _ in range(certify.PENCIL_DRAWS):
        a, b = np.tensordot(rng.standard_normal((2, d)), np.array(kernel), axes=1)
        try:
            lam, vecs = np.linalg.eig(np.linalg.solve(a, b).T)
        except np.linalg.LinAlgError:
            lam, vecs, gap = np.zeros(0), np.zeros((d, 0)), 0.0
        else:
            gap = 1.0
            for i in range(d):
                for j in range(i + 1, d):
                    gap = min(gap, abs(lam[i] - lam[j]) / np.sqrt(
                        (1.0 + abs(lam[i]) ** 2) * (1.0 + abs(lam[j]) ** 2)))
        gaps.append(gap)
        separated = gap >= certify.PENCIL_GAP_TOL and not lam.imag.any()
        if separated:  # this draw decides on its own
            ts = []
        for v in vecs.real.T:
            t = _rank_one_vector_reference(basis, q, v, kappa)
            if t is not None:
                ts.append(t)
        if separated:
            break
    elements = [np.tensordot(t, basis, axes=1) for t in ts]
    if not (separated and len(elements) == d):
        found, elements = elements, []
        for x in found:
            if linalg.numerical_rank(elements + [x], tol=certify.STACK_TOL) > len(elements):
                elements.append(x)
    return certify.RankOneSearchResult(elements, len(elements), True, d, kept,
                                       dropped, tuple(gaps))


# the slices of ghz, w1 and w2 in every pairing, of one random sum of m
# settings for m = 1..6 in one pairing, and of one ill-conditioned sum of
# m = 2..4 settings in AB|C
PARITY_SPANS = (
    [(name, pairing) for name in ("ghz", "w1", "w2") for pairing in pauli.PAIRINGS_3]
    + [(f"sum{m}", pauli.PAIRINGS_3[m % 3]) for m in range(1, 7)]
    + [(f"ill{m}", "AB|C") for m in range(2, 5)])


def _parity_span(name):
    if name.startswith("ill"):
        m = int(name[3:])
        return _setting_sum(np.random.default_rng(800 + m), m, 1e-5)
    if not name.startswith("sum"):
        return witnesses.catalog(name).operator
    m = int(name[3:])
    rng = np.random.default_rng(700 + 10 * m)
    op = 0
    for _ in range(m):
        op = op + settings.setting_operator(settings.setting(
            rng.standard_normal((3, 3)), rng.standard_normal((2, 2, 2))))
    return op


@pytest.mark.parametrize("restarts", [0, 1, 3, 100, 500])
def test_rank_one_search_matches_loop_reference(restarts):
    # restarts reach neither the module's test nor the reference
    for name, pairing in PARITY_SPANS:
        fam = pauli.slice_family(pauli.to_pauli(_parity_span(name), 3), pairing).matrices
        for seed in range(3):
            got = certify.rank_one_elements_in_span(fam, restarts=restarts, seed=seed)
            ref = _rank_one_loop_reference(fam, seed)
            case = (name, pairing, restarts, seed)
            assert (got.span_dim_of_elements, got.exhausted, got.kernel_dim) == \
                (ref.span_dim_of_elements, ref.exhausted, ref.kernel_dim), case
            assert got.kernel_sigma_kept == ref.kernel_sigma_kept, case
            assert got.kernel_sigma_dropped == ref.kernel_sigma_dropped, case
            assert np.allclose(got.pencil_gaps, ref.pencil_gaps, rtol=1e-12,
                               atol=0.0), case
            assert len(got.elements) == len(ref.elements), case
            # w1's only rank-one element is a double zero of the minors: the
            # polish stops once they reach POLISHED_MINOR_TOL, so its end
            # point is fixed only to about the square root of that
            tol = 1e-6 if name == "w1" else 1e-12
            for a, b in zip(got.elements, ref.elements):
                assert np.abs(a - b).max() <= tol, case


def test_polishing_matches_loop_reference():
    # the exact elements of random sums, pushed off by 1e-12 so that their
    # minors land between the polished and the rank-one tolerance, among
    # vectors that fail the test and ones that need no polish
    rng = np.random.default_rng(12)
    rough = 0
    for name, pairing in PARITY_SPANS[9:]:
        fam = pauli.slice_family(pauli.to_pauli(_parity_span(name), 3), pairing).matrices
        basis, kappa = certify._orthonormal_span_basis(fam)
        q = certify._minor_quadratic_forms(basis)
        exact = [np.tensordot(basis, x, axes=((1, 2), (0, 1)))
                 for x in certify.rank_one_elements_in_span(fam).elements]
        if not exact:
            continue
        ts = np.array(exact + [t + 1e-12 * kappa * rng.standard_normal(t.size)
                               for t in exact for _ in range(3)]
                      + list(rng.standard_normal((4, len(exact[0])))))
        minors = np.abs(certify._minor_vectors(np.tensordot(
            ts / np.linalg.norm(ts, axis=1, keepdims=True), basis, axes=1))).max(axis=1)
        rough += int(((minors > certify.POLISHED_MINOR_TOL * kappa)
                      & (minors <= certify.RANK_ONE_MINOR_TOL * kappa)).sum())
        got = certify._rank_one_vectors(basis, q, ts.copy(), kappa)
        ref = [t for t in (_rank_one_vector_reference(basis, q, t, kappa) for t in ts)
               if t is not None]
        assert len(got) == len(ref), name
        for a, b in zip(got, ref):
            assert np.abs(a - b).max() <= 1e-12, name
    assert rough > 0

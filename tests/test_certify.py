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
    assert len(res.elements) == 3
    assert res.exhausted
    for el in res.elements:
        assert np.linalg.svd(el, compute_uv=False)[1] < 1e-9


def test_rank_one_search_ghz_span():
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    fam = pauli.slice_family(c, "AB|C")
    res = certify.rank_one_elements_in_span(fam, restarts=300, seed=0)
    assert len(res.elements) == 1
    assert res.exhausted
    # every found element matches the alpha = beta = 0 pattern
    for el in res.elements:
        assert abs(el[0, 0]) < 1e-6 and abs(el[1, 1]) < 1e-6
        assert abs(el[0, 1]) < 1e-6 and abs(el[1, 0]) < 1e-6
        assert abs(el[2, 2]) > 0.9


def test_rank_one_search_w1_span():
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    fam = pauli.slice_family(c, "AB|C")
    res = certify.rank_one_elements_in_span(fam, restarts=300, seed=0)
    assert len(res.elements) == 1
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_structured_rank_one_check_rejects_non_finite_coefficients(bad):
    # NaN used to return False and inf to warn from the minors
    with pytest.raises(ValueError, match="finite"):
        certify.structured_rank_one_check("ghz", (bad, 0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        certify.structured_rank_one_check("w1", (0.0, 0.0, 0.0, bad))


@pytest.mark.parametrize("span,match", [
    ([np.full((3, 3), np.nan)], "finite"),      # was LinAlgError
    ([np.diag([np.inf, 1.0, 1.0])], "finite"),  # was IndexError
    ([np.eye(3), np.diag([1.0, 2.0, -np.inf])], "finite"),
    ([np.eye(2)], "3x3"),
    ([np.eye(3), np.ones(9)], "3x3"),
])
def test_rank_one_search_validates_its_span_basis(span, match):
    with pytest.raises(ValueError, match=match):
        certify.rank_one_elements_in_span(span)


@pytest.mark.parametrize("span,message", [
    ([], "span basis must be nonempty"),
    (np.zeros((0, 3, 3)), "span basis must be nonempty"),
    ([np.eye(3), np.eye(2)], "span basis matrices must be 3x3"),   # ragged
    ([np.eye(3), np.ones(9)], "span basis matrices must be 3x3"),  # ragged
    ([np.eye(2)], "span basis matrices must be 3x3"),
    ([np.ones(9)], "span basis matrices must be 3x3"),
    (np.eye(3), "span basis matrices must be 3x3"),                # one matrix, not a list
    ([np.eye(3), np.diag([1.0, np.nan, 0.0])], "span basis entries must be finite"),
    (np.full((2, 3, 3), np.nan), "span basis entries must be finite"),  # a float stack
    (np.ones((2, 3, 2)), "span basis matrices must be 3x3"),
    (np.ones((2, 9, 1)), "span basis matrices must be 3x3"),
])
def test_rank_one_search_keeps_its_validation_messages(span, message):
    with pytest.raises(ValueError) as err:
        certify.rank_one_elements_in_span(span)
    assert str(err.value) == message


def test_a_float_span_stack_is_read_without_splitting(monkeypatch):
    # a nonempty float (m, 3, 3) array, the form lower_bound passes, goes
    # straight to real_array: the same bytes as its list of matrices, read
    # through the per-matrix shape check
    stacks = [pauli.slice_family(pauli.to_pauli(witnesses.catalog(name).operator), "AB|C")
              for name in ("ghz", "w1", "w2")]
    stacks.append(np.arange(18.0, dtype=np.float32).reshape(2, 3, 3))
    lists = [certify._span_array(list(stack)) for stack in stacks]

    def split(*args):
        raise AssertionError("a float stack was split into a tuple")

    monkeypatch.setattr(certify, "sequence", split)
    for stack, want in zip(stacks, lists):
        got = certify._span_array(stack)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def _same_search(a, b):
    return (len(a.elements), a.exhausted, a.kernel_dim, a.kernel_sigma_kept,
            a.kernel_sigma_dropped, a.pencil_gaps, a.span_dimension) == \
        (len(b.elements), b.exhausted, b.kernel_dim, b.kernel_sigma_kept,
         b.kernel_sigma_dropped, b.pencil_gaps, b.span_dimension) and \
        [x.tobytes() for x in a.elements] == [x.tobytes() for x in b.elements]


def test_rank_one_search_takes_a_list_or_one_array():
    spans = [pauli.slice_family(pauli.to_pauli(_parity_span(name)), pairing)
             for name, pairing in PARITY_SPANS]
    spans.append([np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])])
    for span in spans:
        for seed in range(3):
            from_list = certify.rank_one_elements_in_span(list(span), seed=seed)
            from_array = certify.rank_one_elements_in_span(np.array(span), seed=seed)
            assert _same_search(from_list, from_array)


def test_search_agrees_with_structured_forms():
    # the search finds exactly the patterns the exact minor check accepts
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    fam = pauli.slice_family(c, "AB|C")
    res = certify.rank_one_elements_in_span(fam, restarts=200, seed=5)
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


def test_a_certificate_derives_its_method_from_its_bound():
    # plus one exactly when the bound passes the span dimension; a zero
    # span still needs one setting, which is no escalation
    for fields, method in (((4, "AB|C", 3, 1, True), certify.METHOD_SPAN_PLUS_ONE),
                           ((3, "AB|C", 3, 1, False), certify.METHOD_SPAN),
                           ((3, "A|B", 3, 3, True), certify.METHOD_SPAN),
                           ((1, "A|B", 0, 0, True), certify.METHOD_SPAN),
                           ((2, "AB|C", 1, 0, True), certify.METHOD_SPAN_PLUS_ONE)):
        cert = certify.LowerBoundCertificate(*fields)
        assert cert.method == method and cert.to_json_dict()["method"] == method
    with pytest.raises(TypeError):
        certify.LowerBoundCertificate(4, "AB|C", 3, 1, certify.METHOD_SPAN, True)


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
    stacks = [rng.standard_normal(shape) for shape in ((3, 3), (7, 3, 3), (2, 4, 3, 3))]
    # certify.first_draw_elements passes a complex matrix
    stacks.append(rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)))
    for xs in stacks:
        got = certify._minor_vectors(xs)
        assert got.shape == xs.shape[:-2] + (9,)
        ref = np.array([_minor_vector_reference(x) for x in xs.reshape(-1, 3, 3)])
        if np.isrealobj(xs):
            assert np.array_equal(got.reshape(-1, 9), ref)
        else:  # numpy's scalar and array complex products round differently
            assert np.allclose(got.reshape(-1, 9), ref, rtol=0.0, atol=1e-14)


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
    # exact zeros come out unsigned, whatever the signs of the zero entries
    basis = np.array([np.diag([1.0, -0.0, 2.0]), np.diag([-0.0, 3.0, -1.0])])
    forms = certify._minor_quadratic_forms(basis)
    assert not np.signbit(forms[forms == 0.0]).any()


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
    fam = pauli.slice_family(pauli.to_pauli(op), "AB|C")
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
        fam = pauli.slice_family(pauli.to_pauli(op), "AB|C")
        res = certify.rank_one_elements_in_span(fam, seed=trial)
        assert res.exhausted and res.kernel_dim == m
        assert len(res.elements) == m
        assert res.pencil_gaps[-1] >= certify.PENCIL_GAP_TOL


def test_search_evidence():
    diag = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0]), np.diag([0, 0, 1.0])]
    res = certify.rank_one_elements_in_span(diag, seed=3)
    assert (res.kernel_dim, len(res.pencil_gaps)) == (3, 1)
    assert res.kernel_sigma_dropped <= 1e-15 < 0.1 < res.kernel_sigma_kept
    assert res.pencil_gaps[0] >= certify.PENCIL_GAP_TOL
    # ghz: a complex pencil spectrum on every draw
    fam = pauli.slice_family(pauli.to_pauli(witnesses.witness_ghz().operator), "AB|C")
    res = certify.rank_one_elements_in_span(fam, seed=0)
    assert (res.kernel_dim, len(res.pencil_gaps)) == (3, certify.PENCIL_DRAWS)
    # five settings: the kernel is smaller than the span, so no pencil
    op = _setting_sum(np.random.default_rng(3), 5)
    fam = pauli.slice_family(pauli.to_pauli(op), "AB|C")
    res = certify.rank_one_elements_in_span(fam, seed=0)
    assert res.exhausted and res.kernel_dim < 4 and res.pencil_gaps == ()
    assert res.elements == [] and res.kernel_sigma_kept > 1e-6


def test_one_dimensional_spans():
    rank_one = [np.outer([1.0, 2.0, 0.0], [0.0, 1.0, -1.0])]
    res = certify.rank_one_elements_in_span(rank_one, seed=1)
    assert (res.kernel_dim, len(res.elements), res.exhausted) == (1, 1, True)
    assert res.kernel_sigma_kept == np.inf and res.kernel_sigma_dropped == 0.0
    res = certify.rank_one_elements_in_span([np.diag([1.0, 1.0, 0.0])], seed=1)
    assert (res.kernel_dim, len(res.elements), res.exhausted) == (0, 0, True)


def test_pencil_of_a_singular_matrix_has_no_eigenvalues():
    # the fallback that sends the search start to None and the certificate
    # on to its next pencil draw
    lam, vecs, gap = certify._pencil(np.zeros((2, 2)), np.eye(2))
    assert lam.size == 0 and vecs.shape == (2, 0) and gap == 0.0


def test_first_draw_elements_are_the_certificates_first_draw():
    # a span whose first draw decides the certificate on its own: the start
    # reads the same elements, polished the same way, to the last bit
    rng = np.random.default_rng(23)
    compared = 0
    for trial in range(40):
        c = pauli.to_pauli(_setting_sum(rng, 1 + trial % 4))
        for pairing in pauli.PAIRINGS_3:
            fam = certify._slices(c, pairing)
            search = certify.rank_one_elements_in_span(fam, seed=0)
            d = search.span_dimension
            if len(search.pencil_gaps) != 1 or len(search.elements) != d:
                continue
            real, pair = certify.first_draw_elements(fam, d)
            assert pair is None and real.tobytes() == np.array(search.elements).tobytes()
            compared += 1
    assert compared >= 100


def test_first_draw_elements_falls_back_to_none():
    # ghz's pair needs a fourth setting; w1's second real element fails the
    # minor test, so below five settings its one element is of no use; a
    # span wider than the limit is not read at all
    ghz = certify._slices(pauli.to_pauli(witnesses.witness_ghz().operator), "AB|C")
    assert certify.first_draw_elements(ghz, 3) is None
    real, pair = certify.first_draw_elements(ghz, 4)
    assert real.shape == (1, 3, 3) and pair.shape == (3, 3) and np.iscomplexobj(pair)
    assert abs(np.linalg.norm(pair) - 1.0) < 1e-15
    w1 = certify._slices(pauli.to_pauli(witnesses.witness_w1().operator), "AB|C")
    assert all(certify.first_draw_elements(w1, k) is None for k in range(1, 5))
    for k in (5, 6):
        # the lone element zz^T, polished, and the span basis
        real, basis = certify.first_draw_elements(w1, k)
        assert real.shape == (1, 3, 3) and basis.shape == (4, 3, 3)
        assert np.abs(np.abs(real[0]) - np.diag([0.0, 0.0, 1.0])).max() < 1e-5
        assert np.abs(basis.reshape(4, 9) @ basis.reshape(4, 9).T - np.eye(4)).max() < 1e-14
    assert certify.first_draw_elements(np.eye(3)[None], 0) is None
    with pytest.raises(ValueError, match="finite"):
        certify.first_draw_elements([np.full((3, 3), np.nan)], 3)
    with pytest.raises(ValueError, match="limit"):
        certify.first_draw_elements(ghz, 2.5)


def _pairwise_gap(lam):
    """The smallest chordal gap over the index pairs i < j."""
    i, j = np.triu_indices(lam.size, 1)
    scale = 1.0 + np.abs(lam) ** 2
    return float((np.abs(lam[i] - lam[j]) / np.sqrt(scale[i] * scale[j])).min(initial=1.0))


def test_pencil_gap_matches_the_pairwise_form():
    # the full chordal matrix with an infinite diagonal gives the pairwise
    # minimum to the bit: |x - y| and the scale products are symmetric
    rng = np.random.default_rng(31)
    real = complex_ = 0
    pencils = [(np.eye(1), 2.0 * np.eye(1)), (np.zeros((3, 3)), np.eye(3))]
    for d in range(2, 6):
        pencils += [tuple(rng.standard_normal((2, d, d))) for _ in range(20)]
        sym = rng.standard_normal((2, d, d))
        pencils.append((np.eye(d), sym[0] + sym[0].T))
    for a, b in pencils:
        lam, _, gap = certify._pencil(a, b)
        want = _pairwise_gap(lam) if lam.size else 0.0
        assert gap == want and type(gap) is float, (a, b)
        real += lam.size > 1 and not lam.imag.any()
        complex_ += bool(lam.imag.any())
    assert certify._pencil(np.eye(1), 2.0 * np.eye(1))[2] == 1.0
    assert real and complex_


def _triu_minor_kernel(q, tol):
    """``certify._minor_kernel`` indexed by ``np.triu_indices``."""
    d = q.shape[1]
    rows, cols = np.triu_indices(d)
    _, svals, vt = np.linalg.svd(q[:, rows, cols] * np.where(rows == cols, 1.0, 2.0))
    svals = np.concatenate([svals, np.zeros(rows.size - svals.size)])
    zero = svals <= tol
    kernel = np.zeros((int(zero.sum()), d, d))
    kernel[:, rows, cols] = kernel[:, cols, rows] = vt[zero]
    return kernel, svals[~zero].min(initial=np.inf), svals[zero].max(initial=0.0)


def _per_call_minor_kernel(q, tol):
    """``certify._minor_kernel`` with its index arrays built on every call
    by ``np.nonzero``, and its kernel assembled by masks, as it once was."""
    d = q.shape[1]
    rows, cols = np.nonzero(np.arange(d)[:, None] <= np.arange(d))
    _, svals, vt = np.linalg.svd(q[:, rows, cols] * np.where(rows == cols, 1.0, 2.0))
    svals = np.concatenate([svals, np.zeros(rows.size - svals.size)])
    zero = svals <= tol
    kernel = np.zeros((int(zero.sum()), d, d))
    kernel[:, rows, cols] = kernel[:, cols, rows] = vt[zero]
    return kernel, svals[~zero].min(initial=np.inf), svals[zero].max(initial=0.0)


def _kernel_cases():
    """Minor forms and tolerances: the catalog and random spans of every
    pairing, d = 1..4; random symmetric forms for d = 1..9, where the map
    has fewer rows than columns from d = 4 on; and forms of rank-deficient
    maps, whose kernel holds singular values of exactly zero."""
    qs = []
    for name, pairing in PARITY_SPANS:
        fam = pauli.slice_family(pauli.to_pauli(_parity_span(name)), pairing)
        basis, kappa = certify._orthonormal_span_basis(fam)
        qs.append((certify._minor_quadratic_forms(basis), certify.KERNEL_TOL * kappa))
    rng = np.random.default_rng(32)
    for d in range(1, 10):
        x = rng.standard_normal((9, d, d))
        qs.append(((x + x.transpose(0, 2, 1)) / 2.0, 1e-13))
        x[4:] = 0.0
        qs.append(((x + x.transpose(0, 2, 1)) / 2.0, 1e-13))
        qs.append(((x + x.transpose(0, 2, 1)) / 2.0, np.inf))  # all kernel
    assert {q.shape[1] for q, _ in qs} == set(range(1, 10))
    return qs


def test_minor_kernel_matches_the_triu_indexing():
    for q, tol in _kernel_cases():
        got, want = certify._minor_kernel(q, tol), _triu_minor_kernel(q, tol)
        assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
        assert got[1:] == want[1:]


def test_minor_kernel_matches_the_per_call_index_form():
    # the import-time table gives the kernel's bytes and both sigmas,
    # with their types, for every span dimension d = 1..9
    for q, tol in _kernel_cases():
        got, want = certify._minor_kernel(q, tol), _per_call_minor_kernel(q, tol)
        assert got[0].tobytes() == want[0].tobytes() and got[0].shape == want[0].shape
        assert got[1:] == want[1:]
        assert [type(x) for x in got[1:]] == [type(x) for x in want[1:]]


def test_lower_bound_of_the_zero_operator():
    cert = certify.lower_bound(np.zeros((8, 8)))
    assert (cert.bound, cert.span_dimension, cert.method) == (1, 0, certify.METHOD_SPAN)
    res = certify.rank_one_elements_in_span([np.zeros((3, 3))] * 4)
    assert (res.span_dimension, res.exhausted, res.elements) == (0, True, [])


def test_lower_bound_checks_the_qubit_count_before_the_pauli_expansion(monkeypatch):
    # a six-qubit operator was expanded into its 4^6 Pauli terms first: 0.6 s
    # and a 268 MB basis left in the cache before the ValueError
    def expand(*args):
        raise AssertionError("lower_bound expanded a six-qubit operator")

    monkeypatch.setattr(pauli, "to_pauli", expand)
    monkeypatch.setattr(pauli, "product_basis", expand)
    bases = pauli._BASES
    with pytest.raises(ValueError, match="1 to 3 qubits, got 6"):
        certify.lower_bound(np.eye(64) / 64)
    assert pauli._BASES is bases


def _lower_bound_by_numerical_rank(op, seed):
    """``lower_bound`` with d measured by ``linalg.numerical_rank`` apart
    from the basis the kernel test runs on, as it once was."""
    c = pauli.to_pauli(op)
    best = None
    for idx, pairing in enumerate(pauli.PAIRINGS_3):
        fam = pauli.slice_family(c, pairing)
        d = linalg.numerical_rank(fam)
        res = certify.rank_one_elements_in_span(fam, seed=(seed << 2) + idx)
        assert res.span_dimension == d, (pairing, seed)
        plus_one = res.exhausted and len(res.elements) < d
        cert = certify.LowerBoundCertificate(
            max(d + plus_one, 1), pairing, d, len(res.elements), res.exhausted)
        assert cert.method == (certify.METHOD_SPAN_PLUS_ONE if plus_one else certify.METHOD_SPAN)
        if best is None or cert.bound > best.bound:
            best = cert
    return best


@pytest.mark.parametrize("m", range(7))
def test_span_dimension_is_the_numerical_rank(m):
    # the catalog witnesses (m = 0) and the 200 sums of the negative
    # control for m settings, ill-conditioned ones included
    if m == 0:
        ops = [witnesses.catalog(name).operator for name in ("ghz", "w1", "w2")]
    else:
        rng = np.random.default_rng(900 + m)
        ops = []
        for trial in range(200):
            eps = 10.0 ** rng.uniform(-6, -4.5) if 2 <= m <= 4 and trial % 4 == 0 else None
            ops.append(_setting_sum(rng, m, eps))
    for seed, op in enumerate(ops):
        assert certify.lower_bound(op, seed=seed) == _lower_bound_by_numerical_rank(op, seed)


def test_restarts_do_not_change_results():
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    fam = pauli.slice_family(c, "AB|C")
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
    f, lam = m @ m, 1e-12
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
        return certify.RankOneSearchResult([], True, 0, np.inf, 0.0, ())
    q = certify._minor_quadratic_forms(basis)
    kernel, kept, dropped = _kernel_reference(q, certify.KERNEL_TOL * kappa)
    if len(kernel) != d:
        return certify.RankOneSearchResult([], len(kernel) < d, len(kernel),
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
    return certify.RankOneSearchResult(elements, True, d, kept, dropped,
                                       tuple(gaps))


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
        fam = pauli.slice_family(pauli.to_pauli(_parity_span(name)), pairing)
        for seed in range(3):
            got = certify.rank_one_elements_in_span(fam, restarts=restarts, seed=seed)
            ref = _rank_one_loop_reference(fam, seed)
            case = (name, pairing, restarts, seed)
            assert (len(got.elements), got.exhausted, got.kernel_dim) == \
                (len(ref.elements), ref.exhausted, ref.kernel_dim), case
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
        fam = pauli.slice_family(pauli.to_pauli(_parity_span(name)), pairing)
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


def test_polish_converges_on_w1_within_twelve_steps(monkeypatch):
    # w1's rank-one element is a double zero of the minors, where J^T J is
    # ~1e-11 across the flat directions: starting at Gauss-Newton, the
    # polish reaches its tolerance from every start well inside
    # POLISH_STEPS, where a damping of 1e-3 left nearly every start rough
    monkeypatch.setattr(certify, "POLISH_STEPS", 12)
    descent, starts = certify._batched_descent, []

    def checked(q, ts, f_stop):
        t = descent(q, ts, f_stop)
        minors = np.einsum("ti,kij,tj->tk", t, q, t)
        assert (np.einsum("tk,tk->t", minors, minors) <= f_stop).all()
        starts.append(len(t))
        return t

    monkeypatch.setattr(certify, "_batched_descent", checked)
    w1 = witnesses.catalog("w1")
    for seed in range(20):
        cert = certify.lower_bound(w1, seed=seed)
        assert (cert.bound, cert.rank_one_span_dimension) == (5, 1), seed
    assert sum(starts) > 100


# --- the evidence loop in its numerical_rank form, kept as the reference ------

def _greedy_by_numerical_rank(rows, tol):
    """The evidence loop as it once was: one ``linalg.numerical_rank`` call
    per candidate element, on the elements kept so far plus that one."""
    elements, chosen = [], []
    for i, x in enumerate(rows.reshape(-1, 3, 3)):
        if linalg.numerical_rank(elements + [x], tol=tol) > len(elements):
            elements.append(x)
            chosen.append(i)
    return chosen


def test_evidence_loop_matches_numerical_rank_on_catalog_spans(monkeypatch):
    # every candidate stack the catalog spans produce at seeds 0-19
    independent, stacks = certify._independent_rows, []

    def checked(rows, tol):
        got = independent(rows, tol)
        assert got == _greedy_by_numerical_rank(rows, tol)
        stacks.append(len(rows))
        return got

    monkeypatch.setattr(certify, "_independent_rows", checked)
    for name in ("ghz", "w1", "w2"):
        c = pauli.to_pauli(witnesses.catalog(name).operator)
        for pairing in pauli.PAIRINGS_3:
            fam = pauli.slice_family(c, pairing)
            for seed in range(20):
                certify.rank_one_elements_in_span(fam, seed=seed)
    assert len(stacks) >= 60 and max(stacks) > 3


def test_evidence_loop_matches_numerical_rank_on_built_stacks():
    # duplicates, zero rows, and rows parallel to an earlier one up to eps,
    # from well below STACK_TOL to around it
    rng = np.random.default_rng(40)
    cases = []
    for _ in range(20):
        x = rng.standard_normal((4, 9))
        cases.append(x[[0, 0, 1, 0, 2, 1, 3, 3]])
        cases.append(np.vstack([np.zeros(9), x[0], np.zeros(9), x[1], x[0]]))
        for eps in (1e-6, 1e-7, 1e-8, 3e-6, 1e-5, 3e-5):
            near = x[:2] + eps * rng.standard_normal((2, 9))
            cases.append(np.vstack([x[0], near[0], x[1], near[1], x[0] + near[1]]))
            cases.append(np.vstack([x[0], x[0] + eps * x[1], x[0] - eps * x[2]]))
    cases += [np.zeros((3, 9)), np.zeros((0, 9)), rng.standard_normal((12, 9))]
    kept = set()
    for rows in cases:
        got = certify._independent_rows(rows, certify.STACK_TOL)
        assert got == _greedy_by_numerical_rank(rows, certify.STACK_TOL)
        kept.add(len(got))
    assert kept >= {0, 1, 2, 3, 4, 9}


# --- the certificate's resolution ---------------------------------------------

_H = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)


def test_rounding_level_slice_families_count_as_zero():
    # A's weights (three qubits) and A's outcome (two qubits) do not matter,
    # so every family with A in a pair is rounding, ~1e-17 against
    # coefficients of ~1; ranked against their own largest singular value
    # they counted at full rank, for bounds of 5 and 3
    op3 = settings.setting_operator(settings.setting([(0, 1, 0), _H, _H],
                                                     [[[0, 2], [1, -2]]] * 2))
    cert = certify.lower_bound(op3)
    assert cert.bound <= 1, cert
    c3 = pauli.to_pauli(op3)
    assert certify.slice_span_dimension(c3, "AB|C") == 0
    assert certify.slice_span_dimension(c3, "BC|A") == 1
    assert settings._algebraic_start(c3, 6) is None
    assert settings.decomposition_search(c3, 1).success
    op2 = settings.setting_operator(settings.setting([(0, 1, 0), _H], [[0, 2], [0, 2]]))
    cert = certify.lower_bound(op2)
    assert cert.bound <= 1 and cert.span_dimension == 0, cert


@pytest.mark.parametrize("n", [2, 3])
def test_settings_blind_to_one_party_certify_at_most_one(n):
    # one setting whose weights are constant along one party's outcome, on
    # axis, diagonal and random directions with integer weights
    rng = np.random.default_rng(50 + n)
    fixed = [np.eye(3)[i] for i in range(3)] + [_H, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)]
    zero_families = 0
    for trial in range(60):
        party = trial % n
        dirs = [fixed[rng.integers(len(fixed))] if rng.random() < 0.6
                else rng.standard_normal(3) for _ in range(n)]
        w = rng.integers(-3, 4, size=(2,) * n).astype(float)
        w = np.repeat(np.take(w, [0], axis=party), 2, axis=party)
        op = settings.setting_operator(settings.setting(dirs, w))
        cert = certify.lower_bound(op, seed=trial)
        assert cert.bound <= 1, (trial, cert)
        zero_families += cert.span_dimension == 0
    assert zero_families > 0


def test_resolution_is_relative_to_the_whole_target():
    # scaling the target scales the resolution with it, and a family below
    # RANK_TOL times the whole coefficient tensor counts as zero, however
    # the operator is built: the bound of three settings falls to 1
    rng = np.random.default_rng(60)
    op = sum(settings.setting_operator(settings.setting(
        rng.standard_normal((3, 3)), rng.standard_normal((2, 2, 2)))) for _ in range(3))
    for scale in (1e-4, 1.0, 1e3):
        assert certify.lower_bound(scale * op, seed=1).bound == 3
    cert = certify.lower_bound(np.eye(8) + 1e-10 * op, seed=1)
    assert (cert.bound, cert.span_dimension) == (1, 0)


@pytest.mark.parametrize("n,pairing", [(3, p) for p in pauli.PAIRINGS_3] + [(2, pauli.PAIRING_2)])
def test_slices_are_the_slice_family_or_zero_below_the_resolution(n, pairing):
    # certify reads its slices through pauli.slice_family, and zeroes a
    # family whose largest singular value is RANK_TOL of the target or less
    rng = np.random.default_rng(61)
    for faint in (1.0, 1e-6, 1e-10):
        coeffs = faint * rng.standard_normal((4,) * n)
        coeffs[(0,) * n] = 1.0
        c = pauli.PauliCoefficients(n, coeffs)
        got, fam = certify._slices(c, pairing), pauli.slice_family(c, pairing)
        if faint > linalg.RANK_TOL:
            assert got.tobytes() == fam.tobytes()
        else:
            assert got.shape == fam.shape and not got.any() and fam.any()


def test_catalog_witnesses_over_a_large_identity_keep_their_bounds():
    # s I + W needs W's settings (any setting measures the identity), but
    # its AB|C span is faint against the identity's coefficient, and the
    # tolerances grow by the ratio past FAINT_SPAN_RATIO: the bounds hold up
    # to s = 1e6 for ghz and w2 and 1e5 for w1, and stay sound beyond
    kept = {"ghz": (4, 1e6), "w2": (4, 1e6), "w1": (5, 1e5)}
    for name, (bound, last) in kept.items():
        w = witnesses.catalog(name).operator
        for s in 10.0 ** np.arange(1, 8):
            got = certify.lower_bound(s * np.eye(8) + w).bound
            assert got == bound if s <= last else got <= bound, (name, s, got)


@pytest.mark.parametrize("target_norm", [-1.0, np.nan, np.inf])
def test_rank_one_search_rejects_a_bad_target_norm(target_norm):
    with pytest.raises(ValueError, match="target_norm must be a finite real number of at least 0"):
        certify.rank_one_elements_in_span([np.eye(3)], target_norm=target_norm)

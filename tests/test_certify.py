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


# --- the per-trial loop and einsum descent, kept as the reference ------------

def _einsum_descent_reference(basis, q, starts, ap_iters=6, lm_iters=50):
    t = starts / np.linalg.norm(starts, axis=1, keepdims=True)
    n_trials, d = t.shape
    for _ in range(ap_iters):
        x = np.tensordot(t, basis, axes=1)
        u, svals, vt = np.linalg.svd(x)
        nearest = svals[:, 0, None, None] * np.einsum(
            "ti,tj->tij", u[:, :, 0], vt[:, 0, :])
        t = np.einsum("dij,tij->td", basis, nearest)
        norms = np.linalg.norm(t, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        t /= norms
    lam = np.full(n_trials, 1e-3)
    m = np.einsum("ti,kij,tj->tk", t, q, t)
    f = np.einsum("tk,tk->t", m, m)
    active = np.ones(n_trials, dtype=bool)
    eye = np.eye(d)
    for _ in range(lm_iters):
        if not active.any():
            break
        jac = 2.0 * np.einsum("kij,tj->tki", q, t)
        lhs = np.einsum("tki,tkj->tij", jac, jac) + lam[:, None, None] * eye
        rhs = np.einsum("tki,tk->ti", jac, m)
        step = np.linalg.solve(lhs, rhs[:, :, None])[:, :, 0]
        t_new = t - step
        norms = np.linalg.norm(t_new, axis=1, keepdims=True)
        ok = norms[:, 0] > 1e-12
        t_new = np.where(ok[:, None], t_new / np.maximum(norms, 1e-300), t)
        m_new = np.einsum("ti,kij,tj->tk", t_new, q, t_new)
        f_new = np.einsum("tk,tk->t", m_new, m_new)
        better = active & ok & (f_new < f)
        worse = active & ~better
        t[better] = t_new[better]
        m[better] = m_new[better]
        f[better] = f_new[better]
        lam[better] = np.maximum(lam[better] * 0.3, 1e-12)
        lam[worse] *= 10.0
        active &= (f > 1e-30) & (lam < 1e9)
    return t, f


def _minor_vector_reference(x):
    pairs = ((0, 1), (0, 2), (1, 2))
    return np.array([x[a, c] * x[b, d] - x[a, d] * x[b, c]
                     for a, b in pairs for c, d in pairs])


def _minors_small_reference(x, tol):
    return bool(np.abs(_minor_vector_reference(x)).max() <= tol)


def _rank_one_loop_reference(span_basis, restarts, seed, lm_iters=50):
    """The search as one Python loop over trials, one SVD rank test each."""
    basis = certify._orthonormal_span_basis(span_basis)
    d = basis.shape[0]
    q = certify._minor_quadratic_forms(basis)
    starts = stream(seed).standard_normal((restarts, d))
    ts, _ = _einsum_descent_reference(basis, q, starts, lm_iters=lm_iters)
    xs = np.tensordot(ts, basis, axes=1)
    svals = np.linalg.svd(xs, compute_uv=False)
    elements, current_dim, last_increase = [], 0, -1
    candidates = polished = 0
    for trial in range(restarts):
        x = xs[trial]
        s0, s1 = float(svals[trial, 0]), float(svals[trial, 1])
        if s0 == 0.0 or s1 > certify.RANK_ONE_SIGMA_RATIO * s0:
            continue
        if not _minors_small_reference(x, certify.RANK_ONE_MINOR_TOL * s0 ** 2):
            continue
        candidates += 1
        if not _minors_small_reference(x, certify.POLISHED_MINOR_TOL * s0 ** 2):
            polished += 1
            t, _ = _einsum_descent_reference(basis, q, ts[trial][None],
                                             ap_iters=0, lm_iters=40)
            x = np.tensordot(t[0], basis, axes=1)
            if not _minors_small_reference(
                    x, certify.POLISHED_MINOR_TOL * np.linalg.norm(x) ** 2):
                continue
        if linalg.numerical_rank(elements + [x], tol=certify.STACK_TOL) > current_dim:
            elements.append(x)
            current_dim += 1
            last_increase = trial
    exhausted = (restarts >= certify.MIN_EXHAUSTION_RESTARTS
                 and (restarts - 1 - last_increase) >= (restarts + 1) // 2)
    return certify.RankOneSearchResult(elements, current_dim, exhausted,
                                       candidates, polished, last_increase)


# the slices of ghz, w1 and w2 in every pairing, and of one random sum of
# m settings for m = 1..6, each in one pairing
PARITY_SPANS = (
    [(name, pairing) for name in ("ghz", "w1", "w2") for pairing in pauli.PAIRINGS_3]
    + [(f"sum{m}", pauli.PAIRINGS_3[m % 3]) for m in range(1, 7)])


def _parity_span(name):
    if not name.startswith("sum"):
        return witnesses.catalog(name).operator
    m = int(name[3:])
    rng = np.random.default_rng(700 + 10 * m)
    op = 0
    for _ in range(m):
        op = op + settings.setting_operator(settings.setting(
            rng.standard_normal((3, 3)), rng.standard_normal((2, 2, 2))))
    return op


def _assert_same_search(spans, restarts, lm_iters=50):
    """Compare every span and seed 0-2; returns the trials polished."""
    polished = 0
    for name, pairing in spans:
        c = pauli.to_pauli(_parity_span(name), 3)
        fam = pauli.slice_family(c, pairing).matrices
        for seed in range(3):
            got = certify.rank_one_elements_in_span(fam, restarts=restarts, seed=seed)
            ref = _rank_one_loop_reference(fam, restarts, seed, lm_iters)
            case = (name, pairing, restarts, seed)
            assert got.span_dim_of_elements == ref.span_dim_of_elements, case
            assert got.exhausted == ref.exhausted, case
            assert (got.candidates, got.polished, got.last_increase) == \
                (ref.candidates, ref.polished, ref.last_increase), case
            assert len(got.elements) == len(ref.elements), case
            # w1's only rank-one element is a double zero of the minors: the
            # descent stops with junk e ~ f^(1/4) ~ 1e-7 whose minors, ~e^2,
            # carry rounding ~1e-16, so the end point is fixed to ~1e-9 only
            tol = 1e-9 if name == "w1" else 1e-12
            for a, b in zip(got.elements, ref.elements):
                assert np.abs(a - b).max() <= tol, case
            polished += got.polished
    return polished


@pytest.mark.parametrize("restarts", [0, 1, 3, 100, 500])
def test_rank_one_search_matches_loop_reference(restarts):
    _assert_same_search(PARITY_SPANS, restarts)


def test_polishing_matches_loop_reference(monkeypatch):
    # the full descent leaves no candidate for the polish on these spans;
    # five main steps leave dozens on the random sums, so the batched
    # polish and its write-back run against the per-trial one
    full = certify._batched_descent

    def short_main_descent(basis, q, starts, ap_iters=6, lm_iters=50):
        return full(basis, q, starts, ap_iters, 5 if ap_iters else lm_iters)

    monkeypatch.setattr(certify, "_batched_descent", short_main_descent)
    random_sums = [span for span in PARITY_SPANS if span[0].startswith("sum")]
    assert _assert_same_search(random_sums, 100, lm_iters=5) > 0


def test_minor_vectors_match_explicit_formula():
    rng = np.random.default_rng(5)
    for shape in ((3, 3), (7, 3, 3), (2, 4, 3, 3)):
        xs = rng.standard_normal(shape)
        got = certify._minor_vectors(xs)
        assert got.shape == shape[:-2] + (9,)
        flat = xs.reshape(-1, 3, 3)
        ref = np.array([_minor_vector_reference(x) for x in flat])
        assert np.array_equal(got.reshape(-1, 9), ref)


def test_exhausted_search_stopped_rising_in_first_half():
    exhausted = 0
    for name, pairing in PARITY_SPANS[::2]:
        fam = pauli.slice_family(pauli.to_pauli(_parity_span(name), 3), pairing).matrices
        for restarts in (100, 101, 200, 201, 500):
            res = certify.rank_one_elements_in_span(fam, restarts=restarts, seed=1)
            assert res.span_dim_of_elements <= res.candidates <= restarts
            assert res.polished <= res.candidates
            if res.exhausted:
                exhausted += 1
                assert res.last_increase < restarts // 2
    assert exhausted > 0


@pytest.mark.parametrize("restarts, last_increase, exhausted", [
    (101, 50, False),  # 50 of 101 trials after the last element: not half
    (101, 49, True),
    (100, 49, True),
    (100, 50, False),
    (99, -1, False),  # below the restart floor
    (100, -1, True),
])
def test_exhaustion_needs_the_last_half_rounded_up(restarts, last_increase,
                                                    exhausted):
    assert certify._is_exhausted(restarts, last_increase) is exhausted

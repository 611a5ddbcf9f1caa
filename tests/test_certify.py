import numpy as np
import pytest

from witkit import certify, linalg, pauli, settings, witnesses


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

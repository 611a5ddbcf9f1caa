import math

import numpy as np
import pytest

from witkit import linalg, pauli, states, witnesses

INV_ROOT2 = 1.0 / math.sqrt(2.0)


def bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2


def test_witness_phi_matches_transposed_projector():
    for alpha, beta in ((INV_ROOT2, -INV_ROOT2), (0.6, 0.8), (0.28, -0.96)):
        phi = np.zeros(4, dtype=complex)
        phi[0], phi[3] = alpha, beta
        target = linalg.partial_transpose(np.outer(phi, phi.conj()), 1, [2, 2])
        w = witnesses.witness_phi(alpha, beta)
        assert np.abs(w.operator - target).max() < 1e-14


def test_witness_phi_product_case_and_validation():
    w = witnesses.witness_phi(1.0, 0.0)
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(w.operator - expected).max() == 0
    with pytest.raises(ValueError):
        witnesses.witness_phi(0.9, 0.9)
    for alpha, beta in ((math.nan, 0.0), (1.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            witnesses.witness_phi(alpha, beta)


def test_witness_phi_pauli_matrix():
    alpha, beta = 0.6, 0.8
    lam = 4.0 * pauli.to_pauli(witnesses.witness_phi(alpha, beta).operator).coeffs
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 1.0
    expected[0, 3] = expected[3, 0] = alpha ** 2 - beta ** 2
    expected[1, 1] = expected[2, 2] = 2 * alpha * beta
    assert np.abs(lam - expected).max() < 1e-12


def test_catalog_witness_values():
    ghz = states.ghz_state().projector()
    w = states.w_state().projector()
    assert abs(witnesses.expectation(witnesses.witness_ghz(), ghz) + 0.25) < 1e-12
    assert abs(witnesses.expectation(witnesses.witness_w1(), w) + 1 / 3) < 1e-12
    assert abs(witnesses.expectation(witnesses.witness_w2(), ghz) + 0.5) < 1e-12
    assert abs(witnesses.expectation(witnesses.witness_ghz(), np.eye(8) / 8)
               - 5 / 8) < 1e-12
    assert abs(witnesses.expectation(witnesses.witness_w1(), ghz) - 2 / 3) < 1e-12


def test_expectation_on_noisy_schmidt_equals_lambda_minus():
    w0 = witnesses.witness_w0()
    for a in (0.3, INV_ROOT2, 0.9):
        b = math.sqrt(1 - a * a)
        for p in np.linspace(0.0, 1.0, 9):
            rho = states.white_noise_mix(states.schmidt_state(a, b), p)
            val = witnesses.expectation(w0, rho)
            assert abs(val - witnesses.lambda_minus(a, b, p)) < 1e-12


def test_expectation_affine_in_mixing_weight():
    w = witnesses.witness_ghz()
    psi = states.ghz_state()
    at0 = witnesses.expectation(w, states.white_noise_mix(psi, 0.0))
    at1 = witnesses.expectation(w, states.white_noise_mix(psi, 1.0))
    for p in (0.25, 0.5, 0.75):
        val = witnesses.expectation(w, states.white_noise_mix(psi, p))
        assert val == pytest.approx(p * at1 + (1 - p) * at0, abs=1e-14)


def test_partial_transpose_trace_identity():
    rng = np.random.default_rng(17)
    for _ in range(5):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = (x + x.conj().T) / 2
        r = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        r = (r + r.conj().T) / 2
        lhs = np.trace(linalg.partial_transpose(x, 1, [2, 2]) @ r)
        rhs = np.trace(x @ linalg.partial_transpose(r, 1, [2, 2]))
        assert abs(lhs - rhs) < 1e-10


def test_classify_rules():
    w2 = witnesses.witness_w2()
    assert witnesses.classify(w2, -0.3).label == "GHZ-class"
    assert witnesses.classify(w2, -0.1).label == "genuinely-tripartite"
    # boundary tie resolves to the weaker claim
    assert witnesses.classify(w2, -0.25).label == "genuinely-tripartite"
    assert witnesses.classify(w2, 0.0).label == "no-detection"
    ghz = witnesses.witness_ghz()
    assert witnesses.classify(ghz, 0.2).label == "no-detection"
    assert witnesses.classify(ghz, -1e-6).label == "GHZ-class"
    w1 = witnesses.witness_w1()
    assert witnesses.classify(w1, -0.05).label == "genuinely-tripartite"
    for value in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            witnesses.classify(ghz, value)


def test_ppt_check():
    psi_m = states.bell_psi_minus().density_matrix()
    min_eig, is_npt = witnesses.ppt_check(psi_m, "B")
    assert abs(min_eig + 0.5) < 1e-10 and is_npt
    # NPT exactly above p = 1/3 for the symmetric Schmidt state
    for p, expect_npt in ((0.2, False), (0.32, False), (0.34, True), (0.8, True)):
        rho = states.white_noise_mix(states.schmidt_state(INV_ROOT2, INV_ROOT2), p)
        _, is_npt = witnesses.ppt_check(rho, "B")
        assert is_npt == expect_npt
    sep = states.random_product_state(3, seed=2).density_matrix()
    for cut in ("A-BC", "B-AC", "C-AB"):
        _, is_npt = witnesses.ppt_check(sep, cut)
        assert not is_npt


def test_lambda_minus_values():
    assert witnesses.lambda_minus(INV_ROOT2, INV_ROOT2, 1.0) == pytest.approx(
        -0.5, abs=1e-14)
    for p in (0.0, 0.4, 1.0):
        assert witnesses.lambda_minus(1.0, 0.0, p) == pytest.approx(
            (1 - p) / 4, abs=1e-14)
        assert witnesses.lambda_minus(1.0, 0.0, p) >= 0.0
    assert witnesses.lambda_minus(INV_ROOT2, INV_ROOT2, 1 / 3) == pytest.approx(
        0.0, abs=1e-14)
    with pytest.raises(ValueError):
        witnesses.lambda_minus(0.9, 0.9, 0.5)
    for a, b in ((math.nan, 0.5), (0.5, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            witnesses.lambda_minus(a, b, 0.5)


def test_lambda_minus_matches_eigensolver():
    for a in (0.3, INV_ROOT2, 0.9):
        b = math.sqrt(1 - a * a)
        for p in np.linspace(0, 1, 11):
            rho = states.white_noise_mix(states.schmidt_state(a, b), p)
            min_eig, _ = witnesses.ppt_check(rho, "B")
            assert abs(min_eig - witnesses.lambda_minus(a, b, p)) < 1e-10


def test_noise_thresholds_closed_form_and_bisection():
    cases = (
        (witnesses.witness_ghz(), states.ghz_state(), 5 / 7),
        (witnesses.witness_w1(), states.w_state(), 13 / 21),
        (witnesses.witness_w2(), states.ghz_state(), 3 / 7),
    )
    for w, psi, expected in cases:
        p_star = witnesses.noise_threshold(w, psi)
        assert abs(p_star - expected) < 1e-12
        # oracle: bisection on the expectation over the noise family
        f = lambda p: witnesses.expectation(w, states.white_noise_mix(psi, p))
        assert abs(bisect(f, 0.0, 1.0) - p_star) < 1e-9


def test_noise_threshold_requires_detection():
    # the w2 witness never goes negative on noisy W states
    with pytest.raises(ValueError):
        witnesses.noise_threshold(witnesses.witness_w2(), states.w_state())


def test_positivity_on_separable_samples_smoke():
    ws = [witnesses.witness_ghz(), witnesses.witness_w1(), witnesses.witness_w2()]
    for seed in range(200):
        proj = states.random_product_state(3, seed=seed).projector()
        for w in ws:
            assert witnesses.expectation(w, proj) >= -1e-9
    w0 = witnesses.witness_w0()
    for seed in range(200):
        proj = states.random_product_state(2, seed=seed).projector()
        assert witnesses.expectation(w0, proj) >= -1e-9

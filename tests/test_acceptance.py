"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured quantities.  Run with ``pytest -s`` to see
the lines as they complete."""

import math
import time

import numpy as np

from witkit import (certify, linalg, pauli, settings, simulate, states,
                    witnesses)

INV_ROOT2 = 1.0 / math.sqrt(2.0)

SEARCH_SEED = 7  # published seed for the decomposition search criterion


def report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def batch_expectations(operator, amplitude_rows):
    stack = np.asarray(amplitude_rows)
    return np.real(np.einsum("bi,ij,bj->b", stack.conj(), operator, stack))


def test_criterion_01_witness_values():
    ghz = states.ghz_state().projector()
    w = states.w_state().projector()
    checks = [
        (witnesses.witness_ghz(), ghz, -0.25),
        (witnesses.witness_w1(), w, -1.0 / 3.0),
        (witnesses.witness_w2(), ghz, -0.5),
    ]
    for wit, rho, expected in checks:
        value = witnesses.expectation(wit, rho)
        assert abs(value - expected) < 1e-10
    report(1, "witness values -1/4, -1/3, -1/2 reproduced to 1e-10")


def test_criterion_02_catalog_decompositions():
    cases = [
        ("anton", {}, witnesses.witness_w0(), 3),
        ("ghz", {}, witnesses.witness_ghz(), 4),
        ("w1", {}, witnesses.witness_w1(), 5),
        ("w2", {}, witnesses.witness_w2(), 4),
        ("sanpera5", {"alpha": 0.6, "beta": 0.8},
         witnesses.witness_phi(0.6, 0.8), 4),
    ]
    counts = []
    for name, kwargs, wit, expected_count in cases:
        dec = settings.catalog_decomposition(name, **kwargs)
        residual = settings.verify_decomposition(dec, wit.operator)
        assert residual < 1e-10, (name, residual)
        assert dec.n_settings == expected_count, (name, dec.n_settings)
        counts.append(dec.n_settings)
    assert settings.catalog_decomposition("sanpera5", 0.6, 0.8).n_projectors == 5
    report(2, f"catalog reconstructions < 1e-10 with counts {counts}")


def test_criterion_03_certified_lower_bounds():
    expectations = [
        (witnesses.witness_w0(), 3, 3, None),
        (witnesses.witness_ghz(), 4, 3, 1),
        (witnesses.witness_w1(), 5, 4, 1),
    ]
    timings = []
    for wit, bound, span_dim, rank_one_dim in expectations:
        start = time.perf_counter()
        cert = certify.lower_bound(wit, restarts=500, seed=0)
        elapsed = time.perf_counter() - start
        timings.append(elapsed)
        assert elapsed < 10.0, (wit.name, elapsed)
        assert cert.bound == bound, (wit.name, cert.bound)
        assert cert.span_dimension == span_dim
        if rank_one_dim is not None:
            assert cert.rank_one_span_dimension == rank_one_dim
            assert cert.method == "span-dim-plus-one"
            assert cert.search_exhausted
    report(3, "lower bounds 3/4/5 with span dims 3/3/4, rank-one dim 1, "
              f"times {[f'{t:.2f}s' for t in timings]}")


def test_criterion_04_lambda_minus_and_ppt_threshold():
    for a in (0.3, INV_ROOT2, 0.9):
        b = math.sqrt(1.0 - a * a)
        for p in np.linspace(0.0, 1.0, 21):
            rho = states.white_noise_mix(states.schmidt_state(a, b), float(p))
            min_eig, _ = witnesses.ppt_check(rho, "B")
            assert abs(min_eig - witnesses.lambda_minus(a, b, float(p))) < 1e-9

    def min_eig_at(p):
        rho = states.white_noise_mix(
            states.schmidt_state(INV_ROOT2, INV_ROOT2), p)
        return witnesses.ppt_check(rho, "B")[0]

    lo, hi = 0.0, 1.0
    assert min_eig_at(lo) > 0.0 > min_eig_at(hi)
    while hi - lo > 1e-11:
        mid = (lo + hi) / 2.0
        if min_eig_at(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    root = (lo + hi) / 2.0
    assert abs(root - 1.0 / 3.0) <= 1e-9
    report(4, f"lambda-minus matches the eigensolver on the grid; "
              f"NPT threshold {root:.12f} = 1/3 within 1e-9")


def test_criterion_05_noise_thresholds():
    cases = [
        (witnesses.witness_ghz(), states.ghz_state(), 5.0 / 7.0),
        (witnesses.witness_w1(), states.w_state(), 13.0 / 21.0),
        (witnesses.witness_w2(), states.ghz_state(), 3.0 / 7.0),
    ]
    values = []
    for wit, psi, expected in cases:
        p_star = witnesses.noise_threshold(wit, psi)
        assert abs(p_star - expected) < 1e-10
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2.0
            val = witnesses.expectation(wit, states.white_noise_mix(psi, mid))
            if val < 0.0:
                hi = mid
            else:
                lo = mid
        assert abs((lo + hi) / 2.0 - p_star) < 1e-9
        values.append(p_star)
    report(5, f"white-noise thresholds {values} = 5/7, 13/21, 3/7 to 1e-10")


def test_criterion_06_positivity_on_separable_and_biseparable():
    three_qubit = [states.random_product_state(3, seed=s).amplitudes
                   for s in range(10 ** 4)]
    for wit in (witnesses.witness_ghz(), witnesses.witness_w1(),
                witnesses.witness_w2()):
        vals = batch_expectations(wit.operator, three_qubit)
        assert vals.min() >= -1e-9, (wit.name, vals.min())
    two_qubit = [states.random_product_state(2, seed=s).amplitudes
                 for s in range(10 ** 4)]
    vals = batch_expectations(witnesses.witness_w0().operator, two_qubit)
    assert vals.min() >= -1e-9

    w1 = witnesses.witness_w1()
    w_ghz = witnesses.witness_ghz()
    worst = math.inf
    for cut in states.BISEPARABLE_CUTS:
        for seed in range(10 ** 3):
            rho = states.random_biseparable_state(cut, seed=seed)
            for wit in (w1, w_ghz):
                val = witnesses.expectation(wit, rho)
                worst = min(worst, val)
                assert val >= -1e-9, (wit.name, cut, seed, val)
    report(6, f"positivity holds on 4x10^4 separable and 2x3x10^3 "
              f"biseparable samples (worst biseparable value {worst:.4f})")


def test_criterion_07_setting_slices_rank_one():
    rng = np.random.default_rng(123)
    for _ in range(10 ** 3):
        vecs = rng.standard_normal((3, 3))
        weights = rng.standard_normal((2, 2, 2))
        s = settings.setting(vecs, weights)
        coeffs = pauli.to_pauli(settings.setting_operator(s))
        for pairing in pauli.PAIRINGS_3:
            for mat in pauli.slice_family(coeffs, pairing):
                assert linalg.numerical_rank(list(mat), tol=1e-8) <= 1
    report(7, "all reduced slices of 10^3 random settings have rank <= 1")


def test_criterion_08_simulator_statistics():
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    inside = 0
    for seed in range(100):
        rep = simulate.estimate_witness(rho, dec, shots_per_setting=10 ** 5,
                                        seed=seed)
        if abs(rep.estimate + 0.25) <= 5.0 * rep.std_error:
            inside += 1
    assert inside >= 99, inside

    ratios = []
    base = 25000
    for seed in range(50):
        small = simulate.estimate_witness(rho, dec, base, seed=seed)
        large = simulate.estimate_witness(rho, dec, 4 * base, seed=seed + 500)
        ratios.append(large.std_error / small.std_error)
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 0.5) <= 0.05, mean_ratio
    report(8, f"{inside}/100 seeds within 5 sigma; 4N/N error ratio "
              f"{mean_ratio:.3f} = 0.5 +- 10%")


def local_unitary(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_criterion_09_local_rotation_invariance():
    rng = np.random.default_rng(2026)
    catalog = [
        (witnesses.witness_w0(), 3,
         [states.white_noise_mix(states.schmidt_state(INV_ROOT2, INV_ROOT2), p)
          for p in (0.1, 0.5, 1.0)]),
        (witnesses.witness_ghz(), 4,
         [states.white_noise_mix(states.ghz_state(), p) for p in (0.2, 0.8, 1.0)]),
        (witnesses.witness_w1(), 5,
         [states.white_noise_mix(states.w_state(), p) for p in (0.2, 0.8, 1.0)]),
        (witnesses.witness_w2(), 4,
         [states.white_noise_mix(states.ghz_state(), p) for p in (0.2, 0.6, 1.0)]),
    ]
    for wit, expected_bound, probes in catalog:
        base_labels = [witnesses.classify(
            wit, witnesses.expectation(wit, rho)).label for rho in probes]
        for _ in range(10):
            u = linalg.kron_all([local_unitary(rng)
                                 for _ in range(wit.n_qubits)])
            rotated = witnesses.Witness(wit.name, u @ wit.operator @ u.conj().T,
                                        wit.n_qubits, wit.verdict_rules)
            cert = certify.lower_bound(rotated, restarts=300, seed=5)
            assert cert.bound == expected_bound, (wit.name, cert.bound)
            for rho, label in zip(probes, base_labels):
                rot_rho = u @ rho.matrix @ u.conj().T
                value = witnesses.expectation(rotated, rot_rho)
                assert witnesses.classify(rotated, value).label == label
    report(9, "bounds and verdicts invariant under 10 local rotations "
              "per catalog witness")


def test_criterion_10_search_capability():
    coeffs = pauli.to_pauli(witnesses.witness_ghz().operator)
    found = settings.decomposition_search(coeffs, max_settings=4,
                                          restarts=200, seed=SEARCH_SEED)
    assert found.success
    assert found.residual < 1e-8
    assert found.restarts_used <= 200
    residual = settings.verify_decomposition(
        found.decomposition, witnesses.witness_ghz().operator)
    assert residual < 1e-8

    failed = settings.decomposition_search(coeffs, max_settings=3,
                                           restarts=200, seed=SEARCH_SEED)
    assert not failed.success
    assert failed.decomposition is None
    assert failed.residual >= 1e-8
    report(10, f"search finds 4 settings (residual {found.residual:.1e}, "
               f"restart {found.restarts_used}) and fails at 3 "
               f"(best residual {failed.residual:.1e})")

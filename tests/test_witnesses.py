import dataclasses
import math
import warnings

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


def test_catalog_witnesses_are_fresh_and_read_only():
    # each parameter-free witness is one value, built at import: every call
    # returns that object, whose operator has the bytes of its formula and
    # is read-only, so no caller can change it for the next
    ghz, w = states.ghz_state(), states.w_state()
    w0 = witnesses.witness_phi(1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)).operator
    for name, want in (("w0", w0), ("ghz", 0.75 * np.eye(8) - ghz.projector()),
                       ("w1", (2.0 / 3.0) * np.eye(8) - w.projector()),
                       ("w2", 0.5 * np.eye(8) - ghz.projector())):
        first = witnesses.catalog(name)
        assert first is witnesses.catalog(name)
        assert first is getattr(witnesses, f"witness_{name}")()
        assert first.operator.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            first.operator[0, 0] = 0.0


def test_witness_holds_a_read_only_copy_of_its_operator():
    # a witness kept the caller's complex array, so writing that array
    # afterwards left a non-Hermitian witness that expectation() still read
    m = np.eye(8, dtype=complex) * 0.5
    w = witnesses.Witness("x", m, 3, ((0.0, "entangled"),))
    m[0, 1] = 1.0
    assert not np.shares_memory(w.operator, m)
    assert linalg.is_hermitian(w.operator)
    assert w.operator.tobytes() == (np.eye(8, dtype=complex) * 0.5).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        w.operator[0, 1] = 1.0
    for name, value in (("operator", m), ("name", "y"), ("n_qubits", 2),
                        ("verdict_rules", ())):
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            setattr(w, name, value)


def test_expectation_on_noisy_schmidt_equals_lambda_minus():
    w0 = witnesses.witness_w0()
    for a in (0.3, INV_ROOT2, 0.9):
        b = math.sqrt(1 - a * a)
        for p in np.linspace(0.0, 1.0, 9):
            rho = states.white_noise_mix(states.schmidt_state(a, b), p)
            val = witnesses.expectation(w0, rho)
            assert abs(val - witnesses.lambda_minus(a, b, p)) < 1e-12


def test_expectation_refuses_a_non_finite_raw_matrix():
    # a NaN entry gave nan, and an infinite one nan after a RuntimeWarning
    w = witnesses.witness_ghz()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.nan, np.inf, -np.inf):
            rho = np.eye(8) / 8
            rho[0, 7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                witnesses.expectation(w, rho)
            with pytest.raises(ValueError, match="non-finite"):
                witnesses.expectation(rho, states.ghz_state().density_matrix())
        with pytest.raises(ValueError, match="non-finite"):
            witnesses.expectation(w, np.full((8, 8), np.nan))
    assert witnesses.expectation(w, np.eye(8) / 8) == witnesses.expectation(
        w, states.DensityMatrix(3, np.eye(8) / 8))


def test_expectation_reads_two_admitted_values_as_admitted():
    # the witness and the state each pass their own admission, yet their
    # trace product has an imaginary part of 2.7e-7 from the state's
    # tolerated anti-Hermitian part; an unscaled 1e-10 check refused it
    ones, eye = np.ones((8, 8)), np.eye(8)
    w = witnesses.Witness("big", 100.0 * (ones - eye), 3, ((0.0, "entangled"),))
    rho = states.DensityMatrix(3, eye / 8 + 4.9e-11j * (ones - eye))
    assert abs(np.trace(w.operator @ rho.matrix).imag) > 1e-10
    value = witnesses.expectation(w, rho)
    assert value == float(np.trace(w.operator @ rho.matrix).real)
    assert abs(value) < 1e-12
    # a raw matrix passes the same Hermiticity test the values passed
    assert witnesses.expectation(w.operator, rho.matrix) == value
    skew = eye / 8
    skew[0, 1] = 1e-3
    for args in ((w, skew), (skew, rho)):
        with pytest.raises(ValueError, match="not Hermitian"):
            witnesses.expectation(*args)


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
        with pytest.raises(ValueError, match="classified value must be a finite real number"):
            witnesses.classify(ghz, value)


def _biseparable_w_state():
    # |0>_A (|01> + |10>)_BC / sqrt(2): W fidelity 2/3, the biseparable
    # maximum, so its exact w1 value is 0
    psi = np.zeros(8)
    psi[0b001] = psi[0b010] = INV_ROOT2
    return np.outer(psi, psi)


def test_a_value_at_rounding_level_gets_no_detection_label():
    # its computed w1 value is -2.2e-16, which the strict rule labelled
    # "genuinely-tripartite"
    w1 = witnesses.witness_w1()
    value = witnesses.expectation(w1, _biseparable_w_state())
    assert value != 0.0 and abs(value) < 1e-15
    assert witnesses.classify(w1, value).label == "no-detection"


def test_verdict_margin_follows_the_admission_tolerances():
    # one margin per witness, set at construction from the PSD and
    # Hermiticity tolerances; a value within it of a threshold reads as the
    # weaker label, a value beyond it as the rule's
    for name in ("w0", "ghz", "w1", "w2"):
        w = witnesses.catalog(name)
        want = (np.linalg.norm(w.operator) * 2 ** w.n_qubits
                * (2 * states.PSD_TOL + linalg.HERMITICITY_TOL))
        assert w.margin == pytest.approx(want, rel=1e-12)
        assert 1e-9 < w.margin < 1e-7, name
    w1 = witnesses.witness_w1()
    assert w1.margin == pytest.approx(3.0e-8, rel=0.01)
    assert witnesses.classify(w1, -w1.margin).label == "no-detection"
    assert witnesses.classify(w1, -1.01 * w1.margin).label == "genuinely-tripartite"
    w2 = witnesses.witness_w2()
    for value, label in ((-0.25 - 0.5 * w2.margin, "genuinely-tripartite"),
                         (-0.25 + 0.5 * w2.margin, "genuinely-tripartite"),
                         (-0.25 - 2.0 * w2.margin, "GHZ-class")):
        assert witnesses.classify(w2, value).label == label, value
    # the margin is no field of the value: witnesses compare as before
    assert witnesses.witness_w1() == witnesses.Witness("w1", w1.operator, 3, w1.verdict_rules)


def test_ppt_check():
    psi_m = states.singlet_state().density_matrix()
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
    # a state skips the Hermitian check that a raw matrix gets; both give
    # hermitian_eigenvalues' minimum on the partial transpose, bit for bit,
    # here on matrices Hermitian only within tolerance
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        for rank in (1, 2 ** n):
            g = rng.standard_normal((2 ** n, rank)) + 1j * rng.standard_normal((2 ** n, rank))
            m = g @ g.conj().T
            m = m / np.trace(m).real + 1e-11j * rng.uniform(-1.0, 1.0, m.shape)
            for party in range(n):
                pt = linalg.partial_transpose(m, party, [2] * n)
                want = linalg.hermitian_eigenvalues(pt)[0]
                for rho in (m, states.DensityMatrix(n, m)):
                    min_eig, is_npt = witnesses.ppt_check(rho, "ABC"[party])
                    assert np.float64(min_eig).tobytes() == want.tobytes()
                    assert is_npt == (want < -1e-9)
    # a raw matrix that is not Hermitian is rejected
    skew = np.eye(4) / 4
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        witnesses.ppt_check(skew, "B")


def test_ppt_check_cut_names():
    rho = states.white_noise_mix(states.w_state(), 0.9)
    for party, cut in zip("ABC", states.BISEPARABLE_CUTS):
        assert witnesses.ppt_check(rho, cut) == witnesses.ppt_check(rho, party)
    rho2 = states.singlet_state().density_matrix()
    for party, cut in (("A", "A-B"), ("B", "B-A")):
        assert witnesses.ppt_check(rho2, cut) == witnesses.ppt_check(rho2, party)
    # anything after "-" used to be ignored
    for bad in ("B-AB", "B-garbage", "B-", "B-CA", "-AC", "AB", "D", ""):
        with pytest.raises(ValueError, match="invalid partition"):
            witnesses.ppt_check(rho, bad)
    for bad in ("C", "B-AC", "A-BC", "A-"):
        with pytest.raises(ValueError, match="invalid partition"):
            witnesses.ppt_check(rho2, bad)


def test_ppt_check_rejects_nan_matrix():
    # used to raise numpy's LinAlgError from the eigensolver
    with pytest.raises(ValueError, match="not Hermitian"):
        witnesses.ppt_check(np.full((4, 4), np.nan))



@pytest.mark.parametrize("partition", [1, None, 1.5])
def test_ppt_check_refuses_a_partition_that_is_not_a_string(partition):
    # these escaped as AttributeError: ... has no attribute 'strip'
    rho = states.ghz_state().density_matrix()
    with pytest.raises(ValueError, match="invalid partition"):
        witnesses.ppt_check(rho, partition)


def test_a_matrix_that_is_no_state_is_refused_as_a_state():
    # -I/4 passed the Hermiticity test alone: ppt_check gave (-0.25, True),
    # an entanglement certificate, and classify(ghz, expectation(ghz,
    # -I/8)) read GHZ-class
    with pytest.raises(ValueError, match="trace"):
        witnesses.ppt_check(-np.eye(4) / 4, "B")
    with pytest.raises(ValueError, match="trace"):
        witnesses.expectation(witnesses.witness_ghz(), -np.eye(8))
    # the witness argument keeps its own rule: a Hermitian matrix
    assert witnesses.expectation(-np.eye(8), np.eye(8) / 8) == -1.0


def test_a_pure_state_reads_as_its_density_matrix():
    # a PureState was refused with numpy's TypeError
    for psi, w in ((states.ghz_state(), witnesses.witness_ghz()),
                   (states.w_state(), witnesses.witness_w1()),
                   (states.schmidt_state(0.6, 0.8), witnesses.witness_w0())):
        rho = psi.density_matrix()
        assert witnesses.expectation(w, psi) == witnesses.expectation(w, rho)
        for party in "ABC"[:psi.n_qubits]:
            assert witnesses.ppt_check(psi, party) == witnesses.ppt_check(rho, party)


def test_white_noise_mix_and_noise_threshold_take_a_density_matrix():
    # both read psi.projector() and raised AttributeError on a DensityMatrix
    for w, psi, expected in ((witnesses.witness_ghz(), states.ghz_state(), 5 / 7),
                             (witnesses.witness_w1(), states.w_state(), 13 / 21)):
        rho = psi.density_matrix()
        assert witnesses.noise_threshold(w, rho) == witnesses.noise_threshold(w, psi)
        assert abs(witnesses.noise_threshold(w, rho) - expected) < 1e-12
        for p in (0.0, 0.3, 1.0):
            assert states.white_noise_mix(rho, p) == states.white_noise_mix(psi, p)
    # the mixture of a mixed state: p rho + (1 - p) I / 2^n
    mixed = states.white_noise_mix(states.ghz_state(), 0.5)
    twice = states.white_noise_mix(mixed, 0.5)
    assert np.abs(twice.matrix - (0.25 * states.ghz_state().projector()
                                  + 0.75 * np.eye(8) / 8)).max() < 1e-15


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


def test_noise_threshold_of_negative_trace_witness_is_zero():
    # already negative on white noise, so every mixing weight is detected
    psi = states.ghz_state()
    w = witnesses.Witness("neg", -psi.projector(), 3, ((0.0, "x"),))
    assert witnesses.noise_threshold(w, psi) == 0.0


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


def test_noise_threshold_reads_a_raw_witness():
    # a raw matrix raised AttributeError: ... has no attribute 'name'
    psi = states.ghz_state()
    with pytest.raises(ValueError, match="^the witness is never negative on this noise family$"):
        witnesses.noise_threshold(np.eye(8), psi)
    with pytest.raises(ValueError, match="^witness w1 is never negative on this noise family$"):
        witnesses.noise_threshold(witnesses.witness_w1(), psi)
    ghz = witnesses.witness_ghz()
    for form in (np.array(ghz.operator), pauli.to_pauli(ghz.operator)):
        assert abs(witnesses.noise_threshold(form, psi) - 5 / 7) < 1e-12


def test_noise_threshold_admits_its_witness_once(monkeypatch):
    # the trace and the expectation read one admitted matrix: coefficients
    # were rebuilt by from_pauli, and a raw matrix admitted, once for each
    psi = states.ghz_state()
    ghz = witnesses.witness_ghz()
    expected = witnesses.noise_threshold(ghz, psi)
    admitted = []
    for name in ("from_pauli", "hermitian"):
        own = getattr(pauli, name)
        monkeypatch.setattr(pauli, name, lambda x, own=own: admitted.append(x) or own(x))
    for form in (pauli.to_pauli(ghz.operator), np.array(ghz.operator)):
        admitted.clear()
        assert witnesses.noise_threshold(form, psi) == expected
        assert len(admitted) == 1

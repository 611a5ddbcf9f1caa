import dataclasses
import itertools
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from witkit import linalg, settings, simulate, states, witnesses
from witkit.rng import stream

CATALOG_CASES = (("anton", None, None), ("anton", 0.6, 0.8),
                 ("anton", 0.96, -0.28), ("sanpera5", None, None),
                 ("sanpera5", 0.6, 0.8), ("ghz", None, None),
                 ("w1", None, None), ("w2", None, None))


def unclamped_reference(rho, s):
    # reference: the row form over the Kronecker chain of per-party
    # eigenbases
    mat = linalg.as_matrix(rho.matrix)
    u = linalg.kron_all([d.basis for d in s.directions])
    rows = np.ascontiguousarray(u.T)
    return np.array([v.conj() @ mat @ v for v in rows]).real


def reference_probabilities(rho, s):
    return np.clip(unclamped_reference(rho, s), 0.0, None)


def state_grid(n):
    if n == 2:
        pures = [states.singlet_state(), states.schmidt_state(0.6, 0.8),
                 states.schmidt_state(0.28, 0.96)]
    else:
        pures = [states.ghz_state(), states.w_state(),
                 states.slocc_normal_form(0.5, 0.3, 0.4, 0.2, math.sqrt(0.46),
                                         theta=1.1)]
    grid = [states.white_noise_mix(psi, p) for psi in pures
            for p in (0.0, 0.3, 0.7, 1.0)]
    grid += [states.random_product_state(n, seed).density_matrix()
             for seed in range(3)]
    if n == 3:
        grid += [states.random_biseparable_state(cut, 4)
                 for cut in states.BISEPARABLE_CUTS]
    return grid


def test_outcome_probabilities_basics():
    zero = states.PureState(2, np.eye(4)[0]).density_matrix()
    s = settings.setting([[0, 0, 1.0], [0, 0, 1.0]], np.zeros((2, 2)))
    p = simulate.outcome_probabilities(zero, s)
    assert np.allclose(p, [1, 0, 0, 0], atol=1e-14)

    mixed = states.DensityMatrix(3, np.eye(8) / 8)
    s3 = settings.setting([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
                          np.zeros((2, 2, 2)))
    assert np.allclose(simulate.outcome_probabilities(mixed, s3), [0.125] * 8,
                       atol=1e-12)


def test_outcome_probabilities_ghz_in_x_basis():
    # oracle: overlap of GHZ with x-basis product states is 1/4 exactly on
    # outcomes with an even number of minus results, 0 otherwise
    rho = states.ghz_state().density_matrix()
    s = settings.setting([[1.0, 0, 0]] * 3, np.zeros((2, 2, 2)))
    p = simulate.outcome_probabilities(rho, s)
    expected = np.array([0.25 if bin(i).count("1") % 2 == 0 else 0.0
                         for i in range(8)])
    assert np.abs(p - expected).max() < 1e-12


def test_outcome_probabilities_ignore_weights():
    rho = states.w_state().density_matrix()
    rng = np.random.default_rng(23)
    vecs = rng.standard_normal((3, 3))
    w1 = rng.standard_normal((2, 2, 2))
    p1 = simulate.outcome_probabilities(rho, settings.setting(vecs, w1))
    p2 = simulate.outcome_probabilities(rho, settings.setting(vecs, 100.0 * w1))
    assert np.array_equal(p1, p2)


def random_mixed_state(n, rank, rng):
    g = (rng.standard_normal((2 ** n, rank))
         + 1j * rng.standard_normal((2 ** n, rank)))
    m = g @ g.conj().T
    return states.DensityMatrix(n, m / np.trace(m).real)


def test_outcome_probabilities_match_reference():
    # the stacked kernel must give the row form's bytes at every size:
    # catalog settings, random directions (y components make the bases
    # complex), signed coordinate axes, and pure, rank-deficient and
    # full-rank random states next to the catalog grid; an eigenstate of a
    # random setting has roundoff-negative probabilities in it, so the sum
    # is taken both as it comes and after the clamp
    rng = np.random.default_rng(41)
    for n in (1, 2, 3):
        setts = [s for name, a, b in CATALOG_CASES
                 for s in settings.catalog_decomposition(name, a, b).settings
                 if s.n_parties == n]
        drawn = [settings.setting(rng.standard_normal((n, 3)),
                                  np.zeros((2,) * n)) for _ in range(10)]
        setts += drawn
        setts += [settings.setting(np.eye(3)[rng.integers(0, 3, n)]
                                   * rng.choice([-1.0, 1.0], (n, 1)),
                                   np.zeros((2,) * n)) for _ in range(4)]
        grid = state_grid(n) if n in (2, 3) else []
        grid += [random_mixed_state(n, rank, rng)
                 for rank in sorted({1, 2, 2 ** n})]
        grid.append(states.PureState(n, drawn[-1].basis[:, 0]).density_matrix())
        clamped = Counter()
        for rho in grid:
            for s in setts:
                got = simulate.outcome_probabilities(rho, s)
                assert got.tobytes() == reference_probabilities(rho, s).tobytes()
                clamped[bool(unclamped_reference(rho, s).min() < 0.0)] += 1
        assert clamped[True] and clamped[False], (n, clamped)
    # four parties are refused when the setting is built
    with pytest.raises(ValueError, match="1 to 3 qubits, got 4"):
        settings.setting(rng.standard_normal((4, 3)), np.zeros((2,) * 4))


def weight_stack(dec):
    return np.array([s.weights.ravel() for s in dec.settings])


def assert_estimate_matches_streams(rho, dec, shots_per_setting, seed,
                                    allocation):
    # setting j's counts must be the multinomial draw of stream(seed, j)
    rep = simulate.estimate_witness(rho, dec, shots_per_setting, seed,
                                    allocation=allocation)
    shots = simulate._shot_allocation(weight_stack(dec), shots_per_setting, allocation)
    estimate = 0.0
    for j, (s, got) in enumerate(zip(dec.settings, rep.per_setting)):
        p = reference_probabilities(rho, s)
        counts = stream(seed, j).multinomial(shots[j], p / p.sum())
        assert got.shots == shots[j]
        assert np.array_equal(got.counts, counts)
        # the stacked tallies keep the one-setting dot products' bytes
        w = s.weights.ravel()
        freqs = counts / shots[j]
        contribution = float(w @ freqs)
        assert got.contribution == contribution
        assert got.variance == float(freqs @ np.square(w - contribution))
        estimate += contribution
    assert rep.estimate == estimate


def test_estimate_witness_matches_reference():
    for name, a, b in CATALOG_CASES:
        dec = settings.catalog_decomposition(name, a, b)
        n = dec.settings[0].n_parties
        for i, rho in enumerate(state_grid(n)[::2]):
            # estimate_witness re-keys one generator per setting: its
            # draws must be stream(seed, j)'s up to the largest seed
            for allocation, seed in itertools.product(
                    simulate.ALLOCATIONS, (7 * i + len(name), 2 ** 64 - 1)):
                assert_estimate_matches_streams(rho, dec, 10 ** (2 + i % 4),
                                                seed, allocation)


def test_single_setting_estimate_matches_stream():
    # a one-setting decomposition draws only from the fresh stream(seed),
    # never from a re-keyed generator
    for name in ("ghz", "w1", "anton"):
        for s in settings.catalog_decomposition(name).settings:
            dec = settings.LocalDecomposition(name, [s], target=settings.setting_operator(s))
            for rho in state_grid(s.n_parties)[::3]:
                for allocation, seed in itertools.product(
                        simulate.ALLOCATIONS, (0, 2 ** 64 - 1)):
                    assert_estimate_matches_streams(rho, dec, 1000, seed,
                                                    allocation)


def test_sample_counts():
    counts = simulate.sample_counts([1.0, 0.0, 0.0], shots=1000, seed=3)
    assert counts[0] == 1000 and counts[1:].sum() == 0
    assert simulate.sample_counts([0.5, 0.5], shots=0, seed=1).sum() == 0
    c1 = simulate.sample_counts([0.25] * 4, shots=10000, seed=5)
    c2 = simulate.sample_counts([0.25] * 4, shots=10000, seed=5)
    assert np.array_equal(c1, c2)
    assert c1.sum() == 10000
    with pytest.raises(ValueError):
        simulate.sample_counts([0.7, 0.7], shots=10, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_state_is_rejected(bad):
    # a NaN used to give all-NaN probabilities without an error, and an
    # infinite entry a floating-point warning
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 0] = bad
    dec = settings.catalog_decomposition("ghz")
    with pytest.raises(ValueError, match="non-finite"):
        simulate.outcome_probabilities(rho, dec.settings[0])
    with pytest.raises(ValueError, match="non-finite"):
        simulate.estimate_witness(rho, dec, 100, seed=0)


def test_a_matrix_that_is_not_a_state_is_rejected():
    # a non-Hermitian matrix of trace one used to get an estimate (0.648
    # for this one): the Born forms took the real part of its quadratic
    # forms and checked only their sign and sum
    dec = settings.catalog_decomposition("ghz")
    upper = np.triu(np.ones((8, 8))) / 8
    with pytest.raises(ValueError, match="not Hermitian"):
        simulate.estimate_witness(upper, dec, 100, 0)
    with pytest.raises(ValueError, match="not Hermitian"):
        simulate.outcome_probabilities(upper, dec.settings[0])
    # a state of the wrong dimension keeps its message
    with pytest.raises(ValueError, match="dimensions do not match"):
        simulate.estimate_witness(np.eye(4) / 4, dec, 100, 0)


def test_a_validated_state_cannot_be_changed_in_place():
    # the state holds a read-only copy of its matrix, so neither a write
    # into it nor one into the caller's array gets a non-state past the
    # validation the estimate trusts
    dec = settings.catalog_decomposition("ghz")
    mixed = np.eye(8) / 8
    rho = states.DensityMatrix(3, mixed)
    want = simulate.estimate_witness(rho, dec, 100, 0).estimate
    with pytest.raises(ValueError, match="read-only"):
        rho.matrix[:] = np.triu(np.ones((8, 8))) / 8
    mixed[:] = np.triu(np.ones((8, 8))) / 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        rho.matrix = np.triu(np.ones((8, 8))) / 8
    assert np.array_equal(rho.matrix, np.eye(8) / 8)
    assert simulate.estimate_witness(rho, dec, 100, 0).estimate == want


def test_a_state_mixing_infinities_is_rejected():
    # +inf and -inf probabilities sum to NaN, so the sum alone catches them
    mixed = np.eye(8, dtype=complex) / 8
    mixed[0, 0], mixed[7, 7] = math.inf, -math.inf
    dec = settings.catalog_decomposition("ghz")
    with pytest.raises(ValueError, match="non-finite"):
        simulate.estimate_witness(mixed, dec, 100, seed=0)
    # a DensityMatrix passes as is; its held matrix is read-only, so only
    # an explicit write past that flag reaches the Born kernel.  The kernel
    # keeps no floating-point guard, so numpy's RuntimeWarning goes through,
    # recorded here instead of raised, and the probability check still
    # rejects the result
    rho = states.DensityMatrix(3, np.eye(8) / 8)
    rho.matrix.setflags(write=True)
    rho.matrix[0, 0], rho.matrix[7, 7] = math.inf, -math.inf
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always", RuntimeWarning)
        for s in dec.settings:
            with pytest.raises(ValueError, match="non-finite"):
                simulate.outcome_probabilities(rho, s)
        with pytest.raises(ValueError, match="non-finite"):
            simulate.estimate_witness(rho, dec, 100, seed=0)



def test_a_pure_state_is_simulated_as_its_density_matrix():
    # a PureState was refused with numpy's TypeError
    for psi, name in ((states.ghz_state(), "ghz"), (states.w_state(), "w1")):
        rho = psi.density_matrix()
        dec = settings.catalog_decomposition(name)
        for s in dec.settings:
            assert np.array_equal(simulate.outcome_probabilities(psi, s),
                                  simulate.outcome_probabilities(rho, s))
        for allocation in simulate.ALLOCATIONS:
            got = simulate.estimate_witness(psi, dec, 500, 3, allocation)
            want = simulate.estimate_witness(rho, dec, 500, 3, allocation)
            assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("p", [[math.nan, 1.0], [math.inf, 0.0],
                               [0.5, 0.5, -math.inf]])
def test_non_finite_probabilities_are_rejected(p):
    # a NaN used to reach numpy's multinomial, which raised its own error
    with pytest.raises(ValueError, match="probabilities must be finite"):
        simulate.sample_counts(p, 10, 1)


@pytest.mark.parametrize("p", [[[0.5], [0.5]], [], 1.0, [[1.0]]])
def test_sample_counts_takes_one_nonempty_vector(p):
    # [[0.5], [0.5]] gave [[10], [10]], 20 counts for 10 shots, and []
    # raised numpy's zero-size reduction message
    with pytest.raises(ValueError, match="nonempty vector"):
        simulate.sample_counts(p, 10, 1)


def slightly_negative_state():
    # admitted: its least eigenvalue, -5e-10 on |000>, is above -PSD_TOL
    d = np.full(8, (1.0 + 5e-10) / 7.0)
    d[0] = -5e-10
    return states.DensityMatrix(3, np.diag(d))


def test_an_admitted_state_with_a_slightly_negative_eigenvalue_is_simulated():
    # the Born kernel refused the -5e-10 probability that the state's own
    # admission allows, so classify took the state and simulate did not
    rho = slightly_negative_state()
    dec = settings.catalog_decomposition("ghz")
    for s in dec.settings:
        probs = simulate.outcome_probabilities(rho, s)
        assert probs.min() >= 0.0
        assert np.array_equal(probs, reference_probabilities(rho, s))
    assert simulate.outcome_probabilities(rho, dec.settings[0])[0] == 0.0
    for allocation in simulate.ALLOCATIONS:
        report = simulate.estimate_witness(rho, dec, 1000, 0, allocation=allocation)
        assert all(r.counts.sum() == r.shots for r in report.per_setting)
        assert sum(r.shots for r in report.per_setting) == 1000 * dec.n_settings
        assert math.isfinite(report.estimate)


def test_sample_counts_concentration():
    shots = 8 * 10 ** 5
    p = np.full(8, 0.125)
    counts = simulate.sample_counts(p, shots=shots, seed=11)
    bound = 5.0 * math.sqrt(shots * 0.125 * 0.875)
    assert np.abs(counts - shots * 0.125).max() < bound


def test_estimate_requires_verified_decomposition():
    # a decomposition without a target has a NaN residual, and one built
    # against the wrong operator misses it: neither is simulated
    ghz = settings.catalog_decomposition("ghz")
    wrong = settings.LocalDecomposition("ghz", ghz.settings[1:], target=witnesses.witness_ghz())
    unchecked = settings.LocalDecomposition("ghz", ghz.settings)
    assert not wrong.verified and wrong.residual > 0.1
    assert not unchecked.verified and math.isnan(unchecked.residual)
    for dec in (wrong, unchecked):
        with pytest.raises(ValueError, match="not verified"):
            simulate.estimate_witness(states.ghz_state().density_matrix(), dec,
                                      1000, seed=0)


def test_a_report_adds_its_settings_in_order():
    # estimate and std_error are read off per_setting, added from 0.0 in
    # setting order as a loop adds them (sum() compensates on Python 3.12)
    rho = states.white_noise_mix(states.w_state(), 0.8)
    for name in ("ghz", "w1", "w2"):
        for allocation in simulate.ALLOCATIONS:
            rep = simulate.estimate_witness(rho, settings.catalog_decomposition(name), 997,
                                            seed=3, allocation=allocation)
            estimate, var = 0.0, 0.0
            for r in rep.per_setting:
                estimate += r.contribution
                var += r.variance / r.shots
            assert repr(rep.estimate) == repr(estimate)
            assert repr(rep.std_error) == repr(math.sqrt(var))
            doc = rep.to_json_dict()
            assert (doc["estimate"], doc["std_error"]) == (rep.estimate, rep.std_error)
    assert simulate.EstimateReport([]).estimate == 0.0
    with pytest.raises(TypeError):
        simulate.EstimateReport(0.0, 0.0, [])


def test_estimator_consistency_with_exact_probabilities():
    # infinite-shot limit: weighted exact probabilities equal the expectation
    rho = states.white_noise_mix(states.ghz_state(), 0.7)
    for name, wit in (("ghz", witnesses.witness_ghz()),
                      ("w1", witnesses.witness_w1()),
                      ("w2", witnesses.witness_w2())):
        dec = settings.catalog_decomposition(name)
        total = 0.0
        for s in dec.settings:
            p = simulate.outcome_probabilities(rho, s)
            total += float(s.weights.ravel() @ p)
        assert abs(total - witnesses.expectation(wit, rho)) < 1e-10


def test_estimate_witness_concentrates():
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    rep = simulate.estimate_witness(rho, dec, shots_per_setting=100000, seed=7)
    assert abs(rep.estimate + 0.25) <= 5.0 * rep.std_error
    assert len(rep.per_setting) == 4
    for setting_report in rep.per_setting:
        assert setting_report.counts.sum() == setting_report.shots


def test_estimate_witness_deterministic_and_parallel_consistent():
    rho = states.w_state().density_matrix()
    dec = settings.catalog_decomposition("w1")
    r1 = simulate.estimate_witness(rho, dec, 5000, seed=13)
    r2 = simulate.estimate_witness(rho, dec, 5000, seed=13)
    assert r1.estimate == r2.estimate and r1.std_error == r2.std_error
    for a, b in zip(r1.per_setting, r2.per_setting):
        assert np.array_equal(a.counts, b.counts)
    # per-setting substreams: counts depend on (seed, index) only, so a
    # run over a sub-list of settings reproduces the same counts
    sub = settings.LocalDecomposition(
        "w1[:2]", dec.settings[:2], target=sum(map(settings.setting_operator, dec.settings[:2])))
    r_sub = simulate.estimate_witness(rho, sub, 5000, seed=13)
    for a, b in zip(r_sub.per_setting, r1.per_setting[:2]):
        assert np.array_equal(a.counts, b.counts)


def test_estimate_witness_unbiased():
    cases = [
        ("ghz", witnesses.witness_ghz()),
        ("w1", witnesses.witness_w1()),
        ("w2", witnesses.witness_w2()),
    ]
    targets = [states.ghz_state().density_matrix(),
               states.w_state().density_matrix(),
               states.DensityMatrix(3, np.eye(8) / 8)]
    n_seeds = 200
    for name, wit in cases:
        dec = settings.catalog_decomposition(name)
        for rho in targets:
            exact = witnesses.expectation(wit, rho)
            estimates = []
            errors = []
            for seed in range(n_seeds):
                rep = simulate.estimate_witness(rho, dec, 2000, seed=seed)
                estimates.append(rep.estimate)
                errors.append(rep.std_error)
            mean = float(np.mean(estimates))
            tol = 4.0 * float(np.mean(errors)) / math.sqrt(n_seeds)
            assert abs(mean - exact) <= tol


def test_std_error_scales_with_shots():
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    ratios = []
    for seed in range(50):
        small = simulate.estimate_witness(rho, dec, 2500, seed=seed)
        large = simulate.estimate_witness(rho, dec, 10000, seed=seed + 1000)
        ratios.append(large.std_error / small.std_error)
    assert abs(float(np.mean(ratios)) - 0.5) < 0.05


def test_weighted_allocation():
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    rep = simulate.estimate_witness(rho, dec, 10000, seed=5,
                                    allocation="weighted")
    shots = [r.shots for r in rep.per_setting]
    assert sum(shots) == 40000
    sizes = [float(np.abs(s.weights).sum()) for s in dec.settings]
    assert np.argmax(shots) == int(np.argmax(sizes))
    with pytest.raises(ValueError):
        simulate.estimate_witness(rho, dec, 1000, seed=0, allocation="bogus")


def numpy_weighted_allocation(dec, shots_per_setting):
    # reference: the weighted allocation on numpy arrays, with stable
    # argsorts and int64 counts
    k = dec.n_settings
    budget = shots_per_setting * k
    sizes = np.array([float(np.abs(s.weights).sum()) for s in dec.settings])
    if sizes.sum() == 0.0:
        return [shots_per_setting] * k
    raw = budget * sizes / sizes.sum()
    alloc = np.maximum(np.floor(raw).astype(int), 1)
    order = np.argsort(-(raw - np.floor(raw)), kind="stable")
    j = 0
    while alloc.sum() < budget:
        alloc[order[j % k]] += 1
        j += 1
    big = np.argsort(-alloc, kind="stable")
    j = 0
    while alloc.sum() > budget:
        if alloc[big[j % k]] > 1:
            alloc[big[j % k]] -= 1
        j += 1
    return [int(a) for a in alloc]


def test_weighted_allocation_matches_numpy_reference():
    # random decompositions of 1-6 settings, some with a zero setting or
    # with equal sizes (ties), weights scaled by 1e-3 to 1e3, and budgets
    # from 1 to 1e7 shots per setting
    rng = np.random.default_rng(17)
    for _ in range(600):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        w = rng.standard_normal((2,) * n) * scale
        setts = []
        for _ in range(k):
            if rng.random() < 0.3:
                w = rng.standard_normal((2,) * n) * scale * (rng.random() > 0.1)
            setts.append(settings.setting(rng.standard_normal((n, 3)), w))
        dec = settings.LocalDecomposition("random", setts)
        for shots in (1, 2, 3, int(10 ** rng.uniform(0.0, 7.0)), 10 ** 7):
            got = simulate._shot_allocation(weight_stack(dec), shots, "weighted")
            assert got == numpy_weighted_allocation(dec, shots)
            assert all(type(a) is int for a in got)


def test_weighted_allocation_trims_the_one_shot_floor():
    # ghz at one shot per setting: raw shares [2.03, 0.81, 0.58, 0.58]
    # floor to [2, 1, 1, 1] with the one-shot floor, one over the budget
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    rep = simulate.estimate_witness(rho, dec, 1, seed=0, allocation="weighted")
    assert [r.shots for r in rep.per_setting] == [1, 1, 1, 1]


def test_weighted_allocation_of_zero_weights_is_uniform():
    zero = np.zeros((2, 2, 2))
    dec = settings.LocalDecomposition("zero", [
        settings.setting(np.eye(3), zero), settings.setting(np.eye(3)[::-1], zero)],
        target=np.zeros((8, 8)))
    assert dec.residual == 0.0
    rep = simulate.estimate_witness(states.ghz_state().density_matrix(), dec, 3,
                                    seed=0, allocation="weighted")
    assert [r.shots for r in rep.per_setting] == [3, 3]
    assert rep.estimate == 0.0


@pytest.mark.parametrize("shots", [10.9, 2.5, math.inf, math.nan, "3", None])
def test_non_integer_shot_counts_are_rejected(shots):
    # 10.9 used to simulate 10 shots per setting, and inf to overflow
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    with pytest.raises(ValueError, match="must be a finite integer"):
        simulate.estimate_witness(rho, dec, shots, seed=0)
    with pytest.raises(ValueError, match="must be a finite integer"):
        simulate.sample_counts([0.5, 0.5], shots, seed=0)


def test_shot_counts_stay_in_int64():
    # 2**63 shots overflowed multinomial, and a weighted budget of 2**63 - 1
    # over one or two settings floored a float share to a negative int64 and
    # spun the top-up loop
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        simulate.sample_counts([0.5, 0.5], 2 ** 63, seed=0)
    assert simulate.sample_counts([0.5, 0.5], 2 ** 63 - 1, seed=0).sum() == 2 ** 63 - 1
    rho = states.ghz_state().density_matrix()
    ghz = settings.catalog_decomposition("ghz").settings
    for setts in (ghz[:1], ghz[1:2] * 2, ghz):
        dec = settings.LocalDecomposition(
            "x", setts, target=sum(map(settings.setting_operator, setts)))
        shots = (2 ** 62 - 1) // len(setts)
        rep = simulate.estimate_witness(rho, dec, shots, seed=0, allocation="weighted")
        assert sum(r.shots for r in rep.per_setting) == shots * len(setts)
        with pytest.raises(ValueError, match="below 2\\*\\*62"):
            simulate.estimate_witness(rho, dec, shots + 1, seed=0, allocation="weighted")


def test_integral_shot_counts_of_any_type_agree():
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    ref = simulate.estimate_witness(rho, dec, 10, seed=4)
    counts = simulate.sample_counts([0.5, 0.5], 7, seed=4)
    for shots in (np.int64(10), 10.0):
        rep = simulate.estimate_witness(rho, dec, shots, seed=4)
        assert rep.estimate == ref.estimate
        assert [r.shots for r in rep.per_setting] == [10] * 4
    for shots in (np.int64(7), 7.0):
        assert np.array_equal(simulate.sample_counts([0.5, 0.5], shots, seed=4), counts)


def test_report_serialization():
    rho = states.ghz_state().density_matrix()
    dec = settings.catalog_decomposition("ghz")
    rep = simulate.estimate_witness(rho, dec, 100, seed=2)
    data = rep.to_json_dict()
    assert set(data) == {"estimate", "std_error", "per_setting"}
    assert len(data["per_setting"]) == 4
    for entry in data["per_setting"]:
        assert sum(entry["counts"].values()) == entry["shots"]
        assert all(len(k) == 3 for k in entry["counts"])


def report_to_json_dict_by_elements(report):
    # the per-outcome loop EstimateReport.to_json_dict replaced, kept as its
    # reference
    width = f"0{report.per_setting[0].counts.size.bit_length() - 1}b"
    return {"estimate": report.estimate, "std_error": report.std_error, "per_setting": [{
        "setting": i,
        "shots": rep.shots,
        "counts": {format(outcome, width): int(count) for outcome, count in enumerate(rep.counts)},
        "contribution": rep.contribution,
        "variance": rep.variance,
    } for i, rep in enumerate(report.per_setting)]}


@pytest.mark.parametrize("allocation", simulate.ALLOCATIONS)
def test_report_serialization_matches_the_outcome_loop(allocation):
    cases = [(states.white_noise_mix(states.ghz_state(), 0.8), "ghz", None, None),
             (states.w_state().density_matrix(), "w1", None, None),
             (states.ghz_state().density_matrix(), "w2", None, None),
             (states.white_noise_mix(states.schmidt_state(0.6, 0.8), 0.9), "sanpera5", 0.6, 0.8),
             (states.white_noise_mix(states.schmidt_state(0.6, 0.8), 0.9), "anton", 0.6, 0.8)]
    for seed, (rho, name, alpha, beta) in enumerate(cases):
        dec = settings.catalog_decomposition(name, alpha, beta)
        for shots in (1, 37, 5000):
            report = simulate.estimate_witness(rho, dec, shots, seed, allocation=allocation)
            # json text: the key order and every number's type and bits
            assert json.dumps(report.to_json_dict()) == \
                json.dumps(report_to_json_dict_by_elements(report))

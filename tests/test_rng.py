"""One whole-number rule for every seed, count and budget, one real-number
rule beside it, and one borrowed generator per thread for every draw the
package drops."""

import math
import sys
import threading

import numpy as np
import pytest

import witkit
from witkit import certify, pauli, rng, settings, simulate, states, witnesses
from witkit.rng import real_number, rekey, stream, whole_number

GHZ_RHO = states.ghz_state().density_matrix()
GHZ_COEFFS = pauli.to_pauli(witnesses.witness_ghz().operator)


def _search(seed):
    r = settings.decomposition_search(GHZ_COEFFS, 4, restarts=1, seed=seed)
    return r.success, r.residual, r.restarts_used


# every public entry point that takes a seed, reduced to a value that
# compares with ``==``
SEEDED = {
    "estimate_witness": lambda seed: simulate.estimate_witness(
        GHZ_RHO, settings.catalog_decomposition("ghz"), 20, seed=seed).estimate,
    "sample_counts": lambda seed: simulate.sample_counts(
        [0.25] * 4, 20, seed=seed).tolist(),
    "decomposition_search": _search,
    "lower_bound": lambda seed: [
        certify.lower_bound(w, seed=seed)
        for w in (witnesses.witness_w0(), witnesses.witness_ghz())],
    "random_product_state": lambda seed: states.random_product_state(
        3, seed).amplitudes.tolist(),
    "random_biseparable_state": lambda seed: states.random_biseparable_state(
        "B-AC", seed).matrix.tolist(),
}

NOT_WHOLE = [2.7, 2.5, math.inf, -math.inf, math.nan, "3", None]


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("seed", NOT_WHOLE)
def test_non_integer_seed_is_rejected(name, seed):
    # 2.7 used to give the seed-2 draws
    with pytest.raises(ValueError, match="seed must be a finite integer"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", SEEDED)
def test_seed_of_2_to_the_64_is_rejected(name):
    # seeds used to be masked to 64 bits, so 2**64 gave the seed-0 draws
    with pytest.raises(ValueError, match=r"seed must be below 2\*\*6[24], "
                                         r"got 18446744073709551616"):
        SEEDED[name](2 ** 64)


def test_seed_and_index_domain_edges():
    top = 2 ** 64 - 1
    used = stream(0)
    used.standard_normal(5)
    for seed, index in ((top, 0), (0, top), (top, top)):
        draws = stream(seed, index).random(3)
        assert not np.array_equal(draws, stream(0).random(3))
        assert np.array_equal(rekey(used, seed, index).random(3), draws)
    with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
        stream(2 ** 64)
    with pytest.raises(ValueError, match=r"index must be below 2\*\*64"):
        stream(0, 2 ** 64)
    with pytest.raises(ValueError, match="index must be at least 0"):
        stream(0, -1)
    with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
        rekey(stream(0), 2 ** 64, 0)
    # lower_bound draws pairing idx from seed 4 * seed + idx
    ghz = witnesses.witness_ghz()
    with pytest.raises(ValueError, match=r"seed must be below 2\*\*62, "
                                         r"got 4611686018427387904"):
        certify.lower_bound(ghz, seed=2 ** 62)
    assert certify.lower_bound(ghz, seed=2 ** 62 - 1).bound == 4


@pytest.mark.parametrize("name", SEEDED)
def test_integral_seeds_of_any_type_agree(name):
    ref = SEEDED[name](7)
    for seed in (np.int64(7), np.uint8(7), 7.0, np.float64(7.0)):
        assert SEEDED[name](seed) == ref


@pytest.mark.parametrize("value", NOT_WHOLE)
def test_fractional_search_budgets_are_rejected(value):
    # restarts=2.5 used to end in a TypeError from range, and lower_bound
    # truncated it
    with pytest.raises(ValueError, match="max_settings must be a finite integer"):
        settings.decomposition_search(GHZ_COEFFS, value, restarts=1)
    with pytest.raises(ValueError, match="restarts must be a finite integer"):
        settings.decomposition_search(GHZ_COEFFS, 4, restarts=value)
    for w in (witnesses.witness_w0(), witnesses.witness_ghz()):
        with pytest.raises(ValueError, match="restarts must be a finite integer"):
            certify.lower_bound(w, restarts=value)
    with pytest.raises(ValueError, match="restarts must be a finite integer"):
        certify.rank_one_elements_in_span([np.eye(3)], restarts=value)
    with pytest.raises(ValueError, match="seed must be a finite integer"):
        certify.rank_one_elements_in_span([np.eye(3)], seed=value)


def test_whole_number_bounds_and_types():
    assert whole_number(np.int64(3), "n") == 3
    assert type(whole_number(3.0, "n")) is int
    assert whole_number(0, "n") == 0
    with pytest.raises(ValueError, match="n must be at least 0"):
        whole_number(-1, "n")
    with pytest.raises(ValueError, match="n must be at least 1"):
        whole_number(0.0, "n", 1)
    assert whole_number(1, "n", 1) == 1


def test_real_number_bounds_and_types():
    assert type(real_number(np.float32(0.1), "x")) is float
    assert real_number(np.float32(0.1), "x") == float(np.float32(0.1))
    assert real_number(np.array(-2), "x") == -2.0
    assert real_number(0.0, "x", 0.0) == 0.0 and real_number(1.0, "x", 0.0, 1.0) == 1.0
    for value, bounds, message in (
            (-0.5, (0.0,), "x must be a finite real number of at least 0, got -0.5"),
            (1.5, (0.0, 1.0), r"x must be a finite real number in \[0, 1\], got 1.5"),
            (2 ** 60 + 1, (), "x must be a finite real number, got 1152921504606846977"),
            (10 ** 400, (), "x must be a finite real number")):
        with pytest.raises(ValueError, match=message):
            real_number(value, "x", *bounds)
    with pytest.raises(ValueError, match="x must be a finite real number above 0, got 0.0"):
        real_number(0.0, "x", positive=True)


def _draws(gen):
    # one of each kind of draw the package makes, the multinomial at the
    # (n, p) of the prior draws in test_borrow_reproduces_a_fresh_stream
    return (gen.random(3).tobytes(), gen.standard_normal(5).tobytes(),
            gen.integers(3, size=4).tobytes(), gen.multinomial(1000, [0.2, 0.3, 0.5]).tobytes(),
            gen.dirichlet(np.ones(4)).tobytes(), gen.standard_normal((2, 3)).tobytes())


def test_borrow_reproduces_a_fresh_stream():
    for seed, index in ((0, 0), (7, 0), (7, 3), (2 ** 64 - 1, 5), (12345, 2 ** 64 - 1)):
        # arbitrary prior draws on the thread's generator, among them a
        # multinomial at one (n, p) twice: numpy's binomial keeps a setup
        # cache per generator, which must not change the next draws
        prior = rng.borrow(99, index)
        prior.standard_normal(7)
        prior.integers(1000, size=3)
        prior.multinomial(1000, [0.2, 0.3, 0.5])
        prior.multinomial(1000, [0.2, 0.3, 0.5])
        prior.random()  # leaves half a Philox output block buffered
        assert _draws(rng.borrow(seed, index)) == _draws(stream(seed, index))
    assert _draws(rng.borrow(7)) == _draws(stream(7, 0))
    # the thread keeps one generator, and its arguments are checked
    assert rng.borrow(1, 2) is rng.borrow(3, 4)
    with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
        rng.borrow(2 ** 64)
    with pytest.raises(ValueError, match="index must be a finite integer"):
        rng.borrow(0, 1.5)


def _seeded_results():
    # estimates, certificates, searches and a direct borrow, as values that
    # compare with ==
    ghz = witnesses.witness_ghz()
    dec = settings.catalog_decomposition("ghz")
    return [
        lambda: simulate.estimate_witness(GHZ_RHO, dec, 1000, 11).to_json_dict(),
        lambda: simulate.estimate_witness(states.w_state(), settings.catalog_decomposition("w1"),
                                          300, 5, "weighted").to_json_dict(),
        lambda: certify.lower_bound(ghz, seed=3).to_json_dict("ghz"),
        lambda: certify.lower_bound(witnesses.witness_w1(), seed=8).to_json_dict("w1"),
        lambda: _search(4),
        lambda: settings.decomposition_search(GHZ_COEFFS, 3, restarts=3, seed=2).residual,
        lambda: rng.borrow(9, 2).random(6).tolist(),
    ]


def test_threads_borrowing_concurrently_match_a_sequential_run():
    jobs = _seeded_results()
    want = [job() for job in jobs]
    gens, results, errors = {}, {}, []
    start = threading.Barrier(4)

    def worker(t):
        try:
            start.wait()
            gens[t] = rng.borrow(0)
            # each thread runs the jobs three times over, in its own order
            order = [(t + j) % len(jobs) for j in range(len(jobs))] * 3
            results[t] = [(i, jobs[i]()) for i in order]
        except Exception as exc:  # reported below, with the thread
            errors.append((t, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-draw included
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    # one generator per thread, none of them the main thread's
    assert len({id(g) for g in [*gens.values(), rng.borrow(0)]}) == 5
    for t in range(4):
        for i, got in results[t]:
            assert got == want[i], (t, i)


def test_borrowed_draws_build_no_generator(monkeypatch):
    calls = []
    original = rng.stream

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # every module that could have bound the name itself
    for mod in (rng, witkit, certify, settings, simulate, states, witnesses):
        if getattr(mod, "stream", None) is original:
            monkeypatch.setattr(mod, "stream", counted)
    rng.borrow(0)  # this thread's generator exists from here on
    simulate.estimate_witness(GHZ_RHO, settings.catalog_decomposition("ghz"), 100, 1)
    certify.lower_bound(witnesses.witness_w1(), seed=2)
    settings.decomposition_search(GHZ_COEFFS, 4, restarts=5, seed=3)
    assert calls == []
    # a new thread builds its own generator once, at its first draw
    thread = threading.Thread(target=lambda: [
        simulate.estimate_witness(GHZ_RHO, settings.catalog_decomposition("ghz"), 100, seed)
        for seed in range(3)])
    thread.start()
    thread.join()
    assert calls == [(0,)]

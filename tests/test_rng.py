"""One whole-number rule for every seed, count and budget."""

import math

import numpy as np
import pytest

from witkit import certify, pauli, settings, simulate, states, witnesses
from witkit.rng import rekey, stream, whole_number

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

"""One whole-number rule for every seed, count and budget."""

import math

import numpy as np
import pytest

from witkit import certify, pauli, settings, simulate, states, witnesses
from witkit.rng import whole_number

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

"""Soundness harness for the setting-count certificate.

Each probe builds an operator from m known settings through ``wk.setting``,
so m settings measure it, and ``lower_bound`` must never certify more.
Generic random sums never overclaim; these families are the degenerate
shapes where a certificate can: nearly parallel directions, faint
correlations on a large identity term, shared directions, fixed axis and
diagonal directions with integer weights, and one direction on every
party (the shape of every three-qubit catalog setting).  A family that
still overclaims is marked with its ROADMAP known-defect number; the fix
of that defect removes its mark.
"""

import functools

import numpy as np
import pytest

import witkit as wk

# the axes and the diagonals of the three coordinate planes
FIXED = [np.eye(3)[i] for i in range(3)] + [
    np.array(v) / np.sqrt(2.0)
    for v in ([1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1])]


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _sum_of_settings(directions, weights):
    """Operator of the settings built from each (directions, weights) pair."""
    return sum(wk.setting_operator(wk.setting(d, w)) for d, w in zip(directions, weights))


def _normal_weights(rng, m):
    return [rng.standard_normal((2, 2, 2)) for _ in range(m)]


def _near_parallel(rng, eps):
    # two settings whose directions are one random unit vector per party
    # plus eps times a normal draw each
    base = [_unit(rng) for _ in range(3)]
    dirs = [[b + eps * rng.standard_normal(3) for b in base] for _ in range(2)]
    return 2, _sum_of_settings(dirs, _normal_weights(rng, 2))


def _faint_on_identity(rng, f):
    # three settings measure the identity plus f times three random settings
    dirs = [rng.standard_normal((3, 3)) for _ in range(3)]
    return 3, np.eye(8) + f * _sum_of_settings(dirs, _normal_weights(rng, 3))


def _shared(rng, parties):
    # 2-4 settings with the same direction on the first ``parties`` parties
    m = int(rng.integers(2, 5))
    fixed = [_unit(rng) for _ in range(parties)]
    dirs = [fixed + [_unit(rng) for _ in range(3 - parties)] for _ in range(m)]
    return m, _sum_of_settings(dirs, _normal_weights(rng, m))


def _axis_and_diagonal(rng):
    m = int(rng.integers(1, 5))
    dirs = [[FIXED[rng.integers(len(FIXED))] for _ in range(3)] for _ in range(m)]
    weights = [rng.integers(-3, 4, size=(2, 2, 2)).astype(float) for _ in range(m)]
    return m, _sum_of_settings(dirs, weights)


def _equal_on_all_parties(rng):
    m = int(rng.integers(1, 5))
    dirs = [[v] * 3 for v in (_unit(rng) for _ in range(m))]
    return m, _sum_of_settings(dirs, _normal_weights(rng, m))


@pytest.mark.parametrize("family,probes", [
    pytest.param(functools.partial(_near_parallel, eps=1e-3), 100, id="near-parallel-1e-3"),
    pytest.param(functools.partial(_near_parallel, eps=1e-5), 100, id="near-parallel-1e-5"),
    pytest.param(functools.partial(_near_parallel, eps=1e-7), 30, id="near-parallel-1e-7",
                 marks=pytest.mark.xfail(strict=True, reason="known defect 1: nearly parallel "
                                                            "settings certified as 3")),
    pytest.param(functools.partial(_faint_on_identity, f=1e-5), 20, id="faint-on-identity-1e-5",
                 marks=pytest.mark.xfail(strict=True, reason="known defect 2: faint "
                                                            "correlations certified one high")),
    pytest.param(functools.partial(_shared, parties=1), 100, id="shared-a"),
    pytest.param(functools.partial(_shared, parties=2), 100, id="shared-a-and-b"),
    pytest.param(_axis_and_diagonal, 100, id="axis-and-diagonal-integer-weights"),
    pytest.param(_equal_on_all_parties, 100, id="equal-on-all-parties"),
])
def test_sums_of_m_settings_certify_at_most_m(family, probes):
    overclaims = []
    for i in range(probes):
        m, op = family(np.random.default_rng([71, i]))
        bound = wk.lower_bound(op, seed=i).bound
        if bound > m:
            overclaims.append((i, m, bound))
    assert not overclaims, f"{len(overclaims)} of {probes} probes overclaim: {overclaims[:5]}"

"""Soundness harness for the setting-count certificate.

Each probe builds an operator from m known settings through ``wk.setting``,
so m settings measure it, and ``lower_bound`` must never certify more.
Generic random sums never overclaim; these families are the degenerate
shapes where a certificate can: nearly parallel directions, faint
correlations on a large identity term, shared directions, fixed axis and
diagonal directions with integer weights, and one direction on every
party (the shape of every three-qubit catalog setting).  A family that
overclaims gets a strict xfail mark with its ROADMAP known-defect number
until that defect is fixed; no family overclaims now.

Settings with rational directions such as (1, 2, 2)/3 have rational Pauli
coefficients, so the same kernel and pencil test also runs exactly, over
``fractions`` (``test_exact_pencil``), and the float bound must not
exceed that exact bound.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
import test_exact_pencil as exact

import witkit as wk
from witkit import pauli

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
    pytest.param(functools.partial(_near_parallel, eps=1e-6), 60, id="near-parallel-1e-6"),
    pytest.param(functools.partial(_near_parallel, eps=3e-7), 60, id="near-parallel-3e-7"),
    pytest.param(functools.partial(_near_parallel, eps=1e-7), 30, id="near-parallel-1e-7"),
    pytest.param(functools.partial(_near_parallel, eps=1e-8), 60, id="near-parallel-1e-8"),
    pytest.param(functools.partial(_near_parallel, eps=1e-9), 30, id="near-parallel-1e-9"),
    pytest.param(functools.partial(_faint_on_identity, f=1e-3), 20, id="faint-on-identity-1e-3"),
    pytest.param(functools.partial(_faint_on_identity, f=1e-4), 20, id="faint-on-identity-1e-4"),
    pytest.param(functools.partial(_faint_on_identity, f=1e-5), 20, id="faint-on-identity-1e-5"),
    pytest.param(functools.partial(_faint_on_identity, f=1e-7), 20, id="faint-on-identity-1e-7"),
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


# integer 3-vectors of integer length, the last entry: (1, 2, 2)/3 and so on
RATIONAL = [(1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (2, 6, 9, 11), (6, 6, 7, 11)]


def _rational_direction(rng):
    """A RATIONAL vector with its components permuted and signed, and its length."""
    *v, length = RATIONAL[rng.integers(len(RATIONAL))]
    return [int(s) * int(x) for s, x in zip(rng.choice([-1, 1], 3), rng.permutation(v))], length


def _exact_setting_coefficients(dirs, weights):
    """{(i, j, k): Fraction} Pauli coefficients of one setting: each party's
    projector (1 + (-1)^b n.sigma)/2 gives 1/2 to index 0 and (-1)^b n_i / 2
    to index i, and the setting adds its weighted products over outcomes b."""
    scale = 8 * int(np.prod([length for _, length in dirs]))
    coeffs = {}
    for idx in itertools.product(range(4), repeat=3):
        total = 0
        for b in itertools.product(range(2), repeat=3):
            term = int(weights[b])
            for i, bit, (v, length) in zip(idx, b, dirs):
                term *= length if i == 0 else (-1) ** bit * v[i - 1]
            total += term
        coeffs[idx] = Fraction(total, scale)
    return coeffs


def _exact_pairing_bound(mats, elements):
    """The setting count the exact kernel and pencil test proves for one
    pairing's slices ``mats``: d + 1 when the kernel or the pencil proves it,
    else d.  A real diagonalizable pencil proves nothing only once its
    eigenvectors are rank-one; here d independent rank-one ``elements``
    (flattened) in the span show that instead."""
    basis = exact.span_basis(mats)
    if not basis:
        return 0
    d, kernel_dim, m = exact.pencil(mats)
    if m is None:  # a kernel smaller than d proves d + 1, a larger one nothing
        return d + (kernel_dim < d)
    q = exact.square_free(exact.charpoly(m))
    if exact.real_root_count(q) < len(q) - 1 or any(map(any, exact.poly_at_matrix(q, m))):
        return d + 1
    inside = [e for e in elements if exact.rank(basis + [e], 9) == d]
    assert exact.rank(inside, 9) == d, "a real diagonalizable pencil needs its eigenvectors checked"
    return d


def test_rational_directions_certify_at_most_the_exact_bound():
    # 1-4 settings of RATIONAL directions with integer weights; each
    # setting's slices in pairing AB|C are multiples of a b^T, and so on
    overclaims, pairs = [], ((0, 1), (0, 2), (1, 2))
    for i in range(20):
        rng = np.random.default_rng([73, i])
        m = int(rng.integers(1, 5))
        settings = [([_rational_direction(rng) for _ in range(3)],
                     rng.integers(-3, 4, size=(2, 2, 2))) for _ in range(m)]
        op = sum(wk.setting_operator(wk.setting([np.array(v) / n for v, n in dirs], w))
                 for dirs, w in settings)
        per_setting = [_exact_setting_coefficients(dirs, w) for dirs, w in settings]
        coeffs = {idx: sum(c[idx] for c in per_setting) for idx in per_setting[0]}
        proved = max(1, *(
            _exact_pairing_bound(exact.slices(coeffs, 3, pairing),
                                 [[x * y for x in dirs[a][0] for y in dirs[b][0]]
                                  for dirs, _ in settings])
            for pairing, (a, b) in zip(pauli.PAIRINGS_3, pairs)))
        assert proved <= m, (i, m, proved)  # the exact test is sound
        bound = wk.lower_bound(op, seed=i).bound
        if bound > proved:
            overclaims.append((i, m, proved, bound))
    assert not overclaims, f"{len(overclaims)} of 20 probes overclaim: {overclaims[:5]}"

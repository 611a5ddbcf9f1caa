import itertools
import math

import numpy as np
import pytest

from witkit import linalg, pauli, settings, states, witnesses
from witkit.rng import stream

INV_ROOT2 = 1.0 / math.sqrt(2.0)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
AX = {1: SX, 2: SY, 3: SZ}


def random_setting(rng, n_parties=3):
    vecs = rng.standard_normal((n_parties, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    weights = rng.standard_normal((2,) * n_parties)
    return settings.setting(vecs, weights)


def test_direction_canonicalization():
    d1 = settings.direction([0.0, 0.0, -1.0])
    d2 = settings.direction([0.0, 0.0, 1.0])
    assert d1 == d2
    d3 = settings.direction([-2.0, 1.0, 0.0])
    assert d3.components[0] > 0
    assert abs(np.linalg.norm(d3.vector) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        settings.direction([0.0, 0.0, 0.0])


def test_non_finite_directions_and_weights_rejected():
    # NaN compares false, so a norm check alone lets it through
    with pytest.raises(ValueError, match="finite"):
        settings.direction([math.nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        settings.Direction((math.nan, 0.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        settings.setting([[0, 0, 1.0]], [1.0, math.inf])


def test_setting_basis_columns_are_outcome_eigenvectors():
    rng = np.random.default_rng(8)
    s = random_setting(rng, 3)
    u = settings.setting_basis(s)
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-14
    local = [settings.eigenbasis(d.vector) for d in s.directions]
    for j, bits in enumerate(np.ndindex(2, 2, 2)):
        vec = np.array([1.0], dtype=complex)
        for p, b in enumerate(bits):
            vec = np.kron(vec, local[p][b])
        assert np.array_equal(u[:, j], vec)


CATALOG_CASES = (("anton", None, None), ("anton", 0.6, 0.8),
                 ("anton", 0.96, -0.28), ("sanpera5", None, None),
                 ("sanpera5", 0.6, 0.8), ("ghz", None, None),
                 ("w1", None, None), ("w2", None, None))


def kron_setting_basis(s):
    # reference: the Kronecker chain of per-party eigenbases
    return linalg.kron_all(np.column_stack(settings.eigenbasis(d.vector))
                           for d in s.directions)


def test_setting_basis_matches_kron_reference():
    rng = np.random.default_rng(31)
    cases = [s for name, a, b in CATALOG_CASES
             for s in settings.catalog_decomposition(name, a, b).settings]
    cases += [random_setting(rng, n) for n in (2, 3) for _ in range(40)]
    # signed axes take the real-phase branch of the eigenbasis
    axes = [sign * settings.AXES[a] for a in "xyz" for sign in (1.0, -1.0)]
    cases += [settings.setting([axes[i] for i in rng.integers(6, size=n)],
                               rng.standard_normal((2,) * n))
              for n in (2, 3) for _ in range(20)]
    for s in cases:
        got, ref = settings.setting_basis(s), kron_setting_basis(s)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signed zeros included


def test_direction_holds_its_local_basis():
    rng = np.random.default_rng(12)
    root2 = math.sqrt(2.0)
    constants = [
        (settings._X, settings.AXES["x"]),
        (settings._Y, settings.AXES["y"]),
        (settings._Z, settings.AXES["z"]),
        (settings._D_PLUS, np.array([1.0, 1.0, 0.0]) / root2),
        (settings._D_MINUS, np.array([1.0, -1.0, 0.0]) / root2),
        (settings._Z_PLUS_X, (settings.AXES["z"] + settings.AXES["x"]) / root2),
        (settings._Z_PLUS_Y, (settings.AXES["z"] + settings.AXES["y"]) / root2),
    ]
    constants += [(None, v) for v in rng.standard_normal((20, 3))]
    for const, raw in constants:
        for vec in (raw, -raw):
            built = [settings.direction(vec),
                     settings.setting([vec], [1.0, 0.0]).directions[0]]
            d = built[0]
            built.append(settings.Direction(d.components))
            if const is not None:
                built.append(const)
            for other in built:
                assert other == d and hash(other) == hash(d)
                assert other.components == d.components
                assert np.array_equal(other.basis, d.basis)
            assert np.array_equal(
                d.basis, np.column_stack(settings.eigenbasis(d.vector)))
            assert "basis" not in repr(d)
            assert repr(d) == f"Direction(components={d.components!r})"
    d = settings.direction([1.0, 2.0, 2.0])
    with pytest.raises(ValueError):
        d.basis[0, 0] = 0.0
    with pytest.raises(AttributeError):
        d.basis = np.eye(2)
    for bad in ((0.0, 0.0, -1.0), (-0.6, 0.8, 0.0), (0.0, -0.6, 0.8),
                (0.0, 0.0, 2.0), (0.6, 0.6, 0.0), (0.0, 0.0, 0.0),
                (1.0, 0.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(ValueError):
            settings.Direction(bad)


def test_registry_covers_every_catalog_witness():
    for name, entry in settings.REGISTRY.items():
        angles = entry.angles or (0.6, 0.8)
        wit = witnesses.catalog(name, *angles)
        dec = next(iter(entry.decompositions.values()))(*angles)
        assert dec.residual < 1e-12
        assert np.abs(dec.operator() - wit.operator).max() < 1e-12
    with pytest.raises(KeyError):
        witnesses.catalog("nope")


def test_setting_canonicalization_preserves_operator():
    rng = np.random.default_rng(4)
    weights = rng.standard_normal((2, 2))
    plain = settings.setting([[0, 0, 1.0], [1.0, 0, 0]], weights)
    flipped = settings.setting([[0, 0, -1.0], [-1.0, 0, 0]],
                               weights[::-1, ::-1])
    assert np.abs(settings.setting_operator(plain)
                  - settings.setting_operator(flipped)).max() < 1e-14


def test_setting_operator_projector_case():
    w = np.zeros((2, 2))
    w[0, 0] = 1.0
    op = settings.setting_operator(
        settings.setting([[0, 0, 1.0], [0, 0, 1.0]], w))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(op - expected).max() < 1e-14


def test_setting_operator_parity_weights():
    # oracle: expand the product of (identity +/- sigma_z)/2 projectors
    w = np.zeros((2, 2, 2))
    for bits in np.ndindex(w.shape):
        w[bits] = (-1.0) ** sum(bits) / 8.0
    op = settings.setting_operator(settings.setting([[0, 0, 1.0]] * 3, w))
    expected = linalg.kron_all([SZ, SZ, SZ]) / 8.0
    assert np.abs(op - expected).max() < 1e-14


def test_setting_operator_diagonal_direction():
    d = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    w = np.zeros((2, 2, 2))
    for bits in np.ndindex(w.shape):
        w[bits] = (-1.0) ** sum(bits) * math.sqrt(2.0) / 8.0
    op = settings.setting_operator(settings.setting([d] * 3, w))
    expected = linalg.kron_all([SX + SY] * 3) / 16.0
    assert np.abs(op - expected).max() < 1e-12


def test_setting_operator_commutes_with_local_observables():
    rng = np.random.default_rng(15)
    for _ in range(10):
        s = random_setting(rng)
        op = settings.setting_operator(s)
        for p, d in enumerate(s.directions):
            n_sigma = d.vector[0] * SX + d.vector[1] * SY + d.vector[2] * SZ
            factors = [I2, I2, I2]
            factors[p] = n_sigma
            local = linalg.kron_all(factors)
            comm = op @ local - local @ op
            assert np.abs(comm).max() < 1e-12


def test_setting_slices_are_rank_one():
    rng = np.random.default_rng(16)
    for _ in range(25):
        s = random_setting(rng)
        c = pauli.to_pauli(settings.setting_operator(s))
        for pairing in pauli.PAIRINGS_3:
            fam = pauli.slice_family(c, pairing)
            assert linalg.numerical_rank(fam.matrices) <= 1


@pytest.mark.parametrize("name,count,target_op", [
    ("anton", 3, lambda: witnesses.witness_w0().operator),
    ("ghz", 4, lambda: witnesses.witness_ghz().operator),
    ("w1", 5, lambda: witnesses.witness_w1().operator),
    ("w2", 4, lambda: witnesses.witness_w2().operator),
])
def test_catalog_decompositions(name, count, target_op):
    dec = settings.catalog_decomposition(name)
    assert dec.n_settings == count
    assert dec.residual < 1e-12
    assert np.abs(dec.operator() - target_op()).max() < 1e-12


def test_anton_general_parameters():
    for alpha, beta in ((INV_ROOT2, INV_ROOT2), (0.6, 0.8), (0.96, -0.28)):
        dec = settings.catalog_decomposition("anton", alpha, beta)
        target = witnesses.witness_phi(alpha, beta).operator
        assert np.linalg.norm(dec.operator() - target) < 1e-12
        assert dec.n_settings == 3
        assert dec.n_projectors == 6
    # a product projector collapses to the single zz setting
    dec = settings.catalog_decomposition("anton", 1.0, 0.0)
    assert dec.n_settings == 1
    with pytest.raises(ValueError, match="alpha and beta must be finite"):
        settings.catalog_decomposition("anton", math.nan, math.nan)


def test_sanpera5_decomposition():
    for alpha, beta in ((0.6, 0.8), (INV_ROOT2, INV_ROOT2), (0.3, math.sqrt(0.91))):
        dec = settings.catalog_decomposition("sanpera5", alpha, beta)
        assert dec.n_settings == 4
        assert dec.n_projectors == 5
        assert dec.residual < 1e-12
    with pytest.raises(ValueError):
        settings.catalog_decomposition("sanpera5", INV_ROOT2, -INV_ROOT2)
    with pytest.raises(ValueError, match="alpha and beta must be finite"):
        settings.catalog_decomposition("sanpera5", math.nan, math.nan)
    with pytest.raises(KeyError):
        settings.catalog_decomposition("nope")


def test_w2_catalog_reproduces_value():
    dec = settings.catalog_decomposition("w2")
    ghz = states.ghz_state().projector()
    val = float(np.real(np.trace(dec.operator() @ ghz)))
    assert abs(val + 0.5) < 1e-12


def test_verify_decomposition_reports_residual():
    dec = settings.catalog_decomposition("ghz")
    res = settings.verify_decomposition(dec, witnesses.witness_ghz().operator)
    assert res < 1e-12
    res_wrong = settings.verify_decomposition(dec, np.eye(8))
    assert res_wrong > 1.0
    assert not dec.verified


def brute_force_min_cover(cover_sets, universe):
    for size in range(1, len(cover_sets) + 1):
        for combo in itertools.combinations(range(len(cover_sets)), size):
            if frozenset().union(*(cover_sets[j] for j in combo)) >= universe:
                return size
    raise AssertionError("no cover")


def axis_candidates(n_parties):
    axes = [settings.AXES["x"], settings.AXES["y"], settings.AXES["z"]]
    return [axes] * n_parties


def test_group_pauli_terms_w0():
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    dec = settings.group_pauli_terms(c, axis_candidates(2))
    assert dec.n_settings == 3
    assert dec.residual < 1e-12


def test_group_pauli_terms_ghz_matches_brute_force():
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    dec = settings.group_pauli_terms(c, axis_candidates(3))
    assert dec.residual < 1e-12
    # oracle: exhaustive cover over all axis settings
    support = c.support()
    combos = list(itertools.product(range(3), repeat=3))
    cover_sets = []
    for combo in combos:
        covered = frozenset(
            term for term in support
            if all(i == 0 or i == combo[p] + 1 for p, i in enumerate(term)))
        cover_sets.append(covered)
    assert dec.n_settings == brute_force_min_cover(cover_sets, frozenset(support))
    assert dec.n_settings == 5
    dir_sets = {tuple(np.argmax(np.abs(d.vector)) for d in s.directions)
                for s in dec.settings}
    assert dir_sets == {(2, 2, 2), (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_group_pauli_terms_identity_and_errors():
    c = pauli.to_pauli(np.eye(8), 3)
    dec = settings.group_pauli_terms(c, axis_candidates(3))
    assert dec.n_settings == 1
    c_ghz = pauli.to_pauli(witnesses.witness_ghz().operator)
    xz_only = [[settings.AXES["x"], settings.AXES["z"]]] * 3
    with pytest.raises(ValueError):
        settings.group_pauli_terms(c_ghz, xz_only)


def test_group_pauli_terms_greedy_still_verifies():
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    exact = settings.group_pauli_terms(c, axis_candidates(3))
    greedy = settings.group_pauli_terms(c, axis_candidates(3), exact=False)
    assert exact.residual < 1e-12 and greedy.residual < 1e-12
    assert exact.n_settings <= greedy.n_settings


def test_decomposition_search_ghz():
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    result = settings.decomposition_search(c, max_settings=4, restarts=200, seed=7)
    assert result.success
    assert result.residual < 1e-8
    assert result.decomposition.n_settings <= 4
    assert np.linalg.norm(result.decomposition.operator()
                          - witnesses.witness_ghz().operator) < 1e-8


def test_decomposition_search_w0_limits():
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    ok = settings.decomposition_search(c, max_settings=3, restarts=50, seed=2)
    assert ok.success and ok.residual < 1e-8
    # two settings cannot reproduce a rank-three reduced block
    fail = settings.decomposition_search(c, max_settings=2, restarts=50, seed=2)
    assert not fail.success
    assert fail.decomposition is None
    assert fail.residual > 1e-8


def test_decomposition_search_single_projector():
    psi = states.random_product_state(3, seed=5)
    c = pauli.to_pauli(psi.projector())
    result = settings.decomposition_search(c, max_settings=1, restarts=50, seed=1)
    assert result.success and result.residual < 1e-10


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_decomposition_search_rejects_bad_tolerance(tol):
    # a NaN tolerance used to pass every `res >= tol` check as a success
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    with pytest.raises(ValueError, match="positive and finite"):
        settings.decomposition_search(c, 4, restarts=2, seed=0, tol=tol)


def test_decomposition_search_deterministic():
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    r1 = settings.decomposition_search(c, max_settings=3, restarts=20, seed=11)
    r2 = settings.decomposition_search(c, max_settings=3, restarts=20, seed=11)
    assert r1.residual == r2.residual
    assert r1.restarts_used == r2.restarts_used
    if r1.success:
        for s1, s2 in zip(r1.decomposition.settings, r2.decomposition.settings):
            assert np.array_equal(s1.weights, s2.weights)
            assert s1.directions == s2.directions


def test_json_round_trip():
    dec = settings.catalog_decomposition("ghz")
    data = settings.decomposition_to_json_dict(dec)
    assert data["target"] == "ghz"
    assert len(data["settings"]) == 4
    for entry in data["settings"]:
        assert len(entry["directions"]) == 3
        for bits in entry["weights"]:
            assert len(bits) == 3 and set(bits) <= {"0", "1"}
    back = settings.decomposition_from_json_dict(data)
    res = settings.verify_decomposition(back, witnesses.witness_ghz().operator)
    assert res < 1e-12


def test_group_count_never_below_certified_bound():
    from witkit import certify
    for name, wit in (("anton", witnesses.witness_w0()),
                      ("ghz", witnesses.witness_ghz()),
                      ("w1", witnesses.witness_w1())):
        c = pauli.to_pauli(wit.operator)
        dec = settings.group_pauli_terms(c, axis_candidates(wit.n_qubits))
        cert = certify.lower_bound(wit, restarts=100, seed=1)
        assert dec.n_settings >= cert.bound


# --- the per-mask loop form of one ALS restart, kept as the reference -------

def _mask_slices(n):
    masks = list(itertools.product((0, 1), repeat=n))
    index = {}
    for mask in masks:
        index[mask] = tuple(slice(1, 4) if m else 0 for m in mask)
    return masks, index


def _outer_all(vectors):
    out = np.array(1.0)
    for v in vectors:
        out = np.multiply.outer(out, v)
    return out


def _als_restart_loop(target, n, k, rng, tol, max_iter):
    masks, slices = _mask_slices(n)
    blocks = {m: np.asarray(target[slices[m]], dtype=float).ravel() for m in masks}
    parties_of = {m: [p for p, b in enumerate(m) if b] for m in masks}
    scale = math.sqrt(2.0 ** n)
    ridge = 1e-14 * np.eye(k)

    dirs = np.empty((k, n, 3))
    for s_i in range(k):
        for p in range(n):
            if rng.random() < 0.5:
                dirs[s_i, p] = settings._AXIS_VECTORS[rng.integers(3)]
            else:
                v = rng.standard_normal(3)
                dirs[s_i, p] = v / np.linalg.norm(v)
    g = {m: np.zeros(k) for m in masks}
    outer = {}

    def refresh_outer(s_i, mask):
        ps = parties_of[mask]
        outer[s_i, mask] = np.atleast_1d(
            _outer_all([dirs[s_i, p] for p in ps])).ravel()

    for s_i in range(k):
        for mask in masks:
            refresh_outer(s_i, mask)

    def residual():
        total = 0.0
        for mask in masks:
            model = sum(g[mask][s_j] * outer[s_j, mask] for s_j in range(k))
            total += float(np.sum(np.square(blocks[mask] - model)))
        return scale * math.sqrt(total)

    history: list = []
    for it in range(max_iter):
        for mask in masks:
            design = np.stack([outer[s_j, mask] for s_j in range(k)], axis=1)
            ata = design.T @ design
            g[mask] = np.linalg.solve(ata + ridge, design.T @ blocks[mask])
        for s_i in range(k):
            for p in range(n):
                num = np.zeros(3)
                den = 0.0
                for mask in masks:
                    if not mask[p]:
                        continue
                    ps = parties_of[mask]
                    rest = blocks[mask] - sum(
                        g[mask][s_j] * outer[s_j, mask]
                        for s_j in range(k) if s_j != s_i)
                    b = np.moveaxis(rest.reshape((3,) * len(ps)),
                                    ps.index(p), 0).reshape(3, -1)
                    a = g[mask][s_i] * np.atleast_1d(
                        _outer_all([dirs[s_i, q] for q in ps if q != p])).ravel()
                    num += b @ a
                    den += float(a @ a)
                if den < 1e-30:
                    continue
                v = num / den
                norm_v = float(np.linalg.norm(v))
                if norm_v < 1e-14:
                    continue
                dirs[s_i, p] = v / norm_v
                for mask in masks:
                    if mask[p]:
                        g[mask][s_i] *= norm_v
                        refresh_outer(s_i, mask)
        res = residual()
        if res < tol:
            break
        history.append(res)
        if len(history) >= 13:
            gain = history[-13] - res
            remaining = max_iter - it - 1
            if gain * (remaining / 12.0) < res - tol:
                break
    return residual(), dirs, g


def _loop_restart_as_cores(target, n, k, rng, tol, max_iter):
    res, dirs, g = _als_restart_loop(target, n, k, rng, tol, max_iter)
    core = np.stack([g[m] for m in np.ndindex((2,) * n)], axis=1)
    return res, dirs, core.reshape((k,) + (2,) * n)


def _weight_condition(dirs):
    """Largest condition number of the weight solve over masks with a party."""
    k, n, _ = dirs.shape
    party_gram = np.einsum("spi,tpi->pst", dirs, dirs)
    worst = 1.0
    for mask in itertools.product((0, 1), repeat=n):
        if any(mask):
            gram = np.prod([party_gram[p] for p in range(n) if mask[p]], axis=0)
            worst = max(worst, float(np.linalg.cond(gram)))
    return worst


def _search_targets():
    rng = np.random.default_rng(3)
    out = {name: pauli.to_pauli(witnesses.catalog(name).operator)
           for name in ("w0", "ghz", "w2", "w1")}
    for m in (1, 2, 3, 4):
        op = sum(settings.setting_operator(random_setting(rng)) for _ in range(m))
        out[f"random{m}"] = pauli.to_pauli(op)
    return out


def test_tensor_restart_matches_loop_reference():
    # Agreement to 1e-9 needs a well-posed weight solve: the two forms sum in
    # different orders, and a solve amplifies that rounding (~1e-16) by its
    # condition number.  Where a mask's Gram is singular (k > 3 settings
    # against three direction components, or one axis drawn twice) the ridge
    # leaves the null-space weights to rounding in either form, so those
    # starts are compared through decomposition_search below instead.
    tol, max_cond = 1e-9, 1e6
    compared = 0
    for name, c in _search_targets().items():
        n = c.n_qubits
        t_norm = math.sqrt(2.0 ** n) * float(np.linalg.norm(c.coeffs))
        for k in range(1, 6):
            for seed in range(2):
                start = _als_restart_loop(c.coeffs, n, k, stream(seed, 0), 1e-8, 0)[1]
                if _weight_condition(start) > max_cond:
                    continue
                ref = _loop_restart_as_cores(c.coeffs, n, k, stream(seed, 0), 1e-8, 3)
                if _weight_condition(ref[1]) > max_cond:
                    continue
                res, dirs, core = settings._als_restart(
                    c.coeffs, n, k, stream(seed, 0), 1e-8, 3)
                assert abs(res - ref[0]) <= tol * t_norm, (name, k, seed)
                assert np.linalg.norm(dirs - ref[1]) <= tol * np.linalg.norm(ref[1])
                assert np.linalg.norm(core - ref[2]) <= tol * np.linalg.norm(ref[2])
                compared += 1
    assert compared >= 24


@pytest.mark.parametrize("name,k,restarts,seed", [
    ("ghz", 4, 200, 7), ("w0", 3, 50, 2), ("w0", 2, 50, 2), ("projector", 1, 50, 1),
])
def test_search_matches_loop_reference(name, k, restarts, seed, monkeypatch):
    if name == "projector":
        c = pauli.to_pauli(states.random_product_state(3, seed=5).projector())
    else:
        c = pauli.to_pauli(witnesses.catalog(name).operator)
    tensor = settings.decomposition_search(c, k, restarts=restarts, seed=seed)
    monkeypatch.setattr(settings, "_als_restart", _loop_restart_as_cores)
    loop = settings.decomposition_search(c, k, restarts=restarts, seed=seed)
    assert (tensor.success, tensor.restarts_used) == (loop.success, loop.restarts_used)

import ast
import copy
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from witkit import certify, linalg, pauli, settings, simulate, states, witnesses
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


def test_flipped_directions_have_no_negative_zero():
    # flipping by negation turns each 0.0 into -0.0, which the JSON
    # encoder would print as -0.0
    def signs(components):
        return [math.copysign(1.0, c) for c in components if c == 0.0]

    assert signs(settings.direction([0.0, 0.0, -1.0]).components) == [1.0, 1.0]
    flipped = settings.setting([[-1.0, 0.0, 0.0]], [1.0, 0.0])
    assert flipped.weights.tolist() == [0.0, 1.0]
    assert signs(flipped.directions[0].components) == [1.0, 1.0]
    # w1's tilts (x - z)/sqrt2 and (y - z)/sqrt2 are flips of (z - x) and (z - y)
    for name in ("w1", "sanpera5"):
        dec = settings.catalog_decomposition(name)
        for s in dec.settings:
            for d in s.directions:
                assert -1.0 not in signs(d.components), (name, d)
        json_dirs = settings.decomposition_to_json_dict(dec)["settings"]
        assert -1.0 not in signs(c for s in json_dirs for d in s["directions"] for c in d)


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
    u = s.basis
    assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-14
    local = [d.basis.T for d in s.directions]  # row b: the eigenvector of bit b
    for j, bits in enumerate(np.ndindex(2, 2, 2)):
        vec = np.array([1.0], dtype=complex)
        for p, b in enumerate(bits):
            vec = np.kron(vec, local[p][b])
        assert np.array_equal(u[:, j], vec)


def test_bases_near_the_poles_keep_their_digits():
    # a polar angle from acos(n_z) and a phase divided by sin(acos(n_z))
    # lost the digits of the small components: at 1e-7 off z the basis was
    # non-unitary by 2.4e-2 and the operator's (1, 1) entry read -1.0235
    s = settings.setting([[0.0, 1e-7, 1.0]], [1.0, -1.0])
    assert abs(settings.setting_operator(s)[1, 1] + 1.0 / math.hypot(1e-7, 1.0)) < 1e-15
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for off in 10.0 ** -np.arange(3, 13):
        for pole in (1.0, -1.0):
            for angle in np.linspace(0.0, 2.0 * math.pi, 5, endpoint=False):
                vec = np.array([off * math.cos(angle), off * math.sin(angle), pole])
                u = settings.direction(vec).basis
                assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-15, (off, pole)
                op = settings.setting_operator(settings.setting([vec], [1.0, -1.0]))
                unit = vec / np.linalg.norm(vec)
                assert np.abs(op - np.tensordot(unit, paulis, axes=1)).max() < 1e-15


CATALOG_CASES = (("anton", None, None), ("anton", 0.6, 0.8),
                 ("anton", 0.96, -0.28), ("sanpera5", None, None),
                 ("sanpera5", 0.6, 0.8), ("ghz", None, None),
                 ("w1", None, None), ("w2", None, None))


def kron_setting_basis(s):
    # reference: the Kronecker chain of per-party eigenbases
    return linalg.kron_all([d.basis for d in s.directions])


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
        got, ref = s.basis, kron_setting_basis(s)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()  # signed zeros included


def test_setting_refuses_more_than_three_parties_before_its_basis(monkeypatch):
    # twelve parties used to build three 4096 x 4096 complex arrays (768 MB)
    built = []
    monkeypatch.setattr(settings, "_product_basis", lambda dirs: built.append(dirs))
    for n in (4, 12):
        with pytest.raises(ValueError, match=f"1 to 3 qubits, got {n}"):
            settings.setting([[0, 0, 1]] * n, np.ones((2,) * n))
        with pytest.raises(ValueError, match=f"1 to 3 qubits, got {n}"):
            settings.MeasurementSetting((settings.direction([0, 0, 1]),) * n,
                                        np.ones((2,) * n))
    assert built == []


def test_setting_holds_its_product_basis():
    rng = np.random.default_rng(19)
    cases = [s for name, a, b in CATALOG_CASES
             for s in settings.catalog_decomposition(name, a, b).settings]
    cases += [random_setting(rng, n) for n in (1, 2, 3) for _ in range(10)]
    for s in cases:
        ref = kron_setting_basis(s)
        assert s.basis.tobytes() == ref.tobytes()
        assert s.rows.flags.c_contiguous and s.rows_conj.flags.c_contiguous
        assert s.rows.tobytes() == np.ascontiguousarray(ref.T).tobytes()
        assert s.rows_conj.tobytes() == np.ascontiguousarray(ref.T).conj().tobytes()
        for held in (s.weights, s.basis, s.rows, s.rows_conj):
            with pytest.raises(ValueError, match="read-only"):
                held[(0,) * held.ndim] = 0.0
        # the operator reads the held basis and keeps the broadcast form's bytes
        want = (ref * s.weights.ravel()) @ ref.conj().T
        assert settings.setting_operator(s).tobytes() == want.tobytes()
        # equality and repr see the directions and weights only
        assert repr(s) == (f"MeasurementSetting(directions={s.directions!r}, "
                           f"weights={s.weights!r})")
        assert settings.MeasurementSetting(s.directions, s.weights) == s
    s = random_setting(rng)
    other = random_setting(rng)
    assert settings.MeasurementSetting(other.directions, s.weights) != s
    # a setting is an immutable value: no field can be assigned, so neither
    # its operator nor its held bases can go stale
    want = settings.setting_operator(s)
    for name in ("directions", "weights", "basis", "rows", "rows_conj"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=name):
            setattr(s, name, getattr(other, name))
    assert s.directions != other.directions
    assert settings.setting_operator(s).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="1 to 3 qubits, got 0"):
        settings.MeasurementSetting((), 1.0)


def _value_cases():
    """Per value type: (meta, array) inputs, the build of an instance from
    them, the name of its array field, an in-place change that keeps an
    array valid, and extra (a, b, equal) pairs."""
    rng = np.random.default_rng(23)
    setts = [s for name, a, b in CATALOG_CASES
             for s in settings.catalog_decomposition(name, a, b).settings]
    setts += [random_setting(rng, n) for n in (1, 2, 3) for _ in range(5)]
    z = [0.0, 0.0, 1.0]
    setting_pairs = [
        # a raw vector and its Direction make the same setting
        (settings.setting([z, z], np.eye(2)),
         settings.setting([settings.direction(z)] * 2, np.eye(2)), True),
        # equality reads the weight bytes, as hashing does, so -0.0 is not 0.0
        (settings.setting([z], [1.0, 0.0]), settings.setting([z], [1.0, -0.0]), False)]
    wits = [witnesses.catalog(name, 0.6, 0.8) for name in ("w0", "phi", "ghz", "w1", "w2")]
    rhos = [states.white_noise_mix(states.NAMED_STATES[name](), 0.5)
            for name in states.NAMED_STATES]
    amps = [states.NAMED_STATES[name]().amplitudes for name in states.NAMED_STATES]
    raw = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    amps += list(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    paulis = [pauli.to_pauli(w.operator) for w in wits]
    w1 = pauli.to_pauli(witnesses.witness_w1().operator)
    fams = [pauli.slice_family(w1, p) for p in pauli.PAIRINGS_3]
    fams.append(pauli.slice_family(paulis[0], "AB"))

    def bump(a):
        a.flat[0] += 1.0

    def mix(a):  # halfway to the maximally mixed state
        a *= 0.5
        a += 0.5 * np.eye(len(a)) / len(a)

    def negate_last(a):  # the global phase is fixed by the first amplitude
        a[np.flatnonzero(a)[-1]] *= -1.0

    return {
        "MeasurementSetting": ([(s.directions, s.weights) for s in setts],
                               settings.MeasurementSetting, "weights", bump, setting_pairs),
        "Witness": ([((w.name, w.n_qubits, w.verdict_rules), w.operator) for w in wits],
                    lambda meta, a: witnesses.Witness(meta[0], a, *meta[1:]), "operator", bump,
                    []),
        "DensityMatrix": ([(r.n_qubits, r.matrix) for r in rhos], states.DensityMatrix,
                          "matrix", mix, []),
        "PureState": ([(len(a).bit_length() - 1, a) for a in amps], states.PureState,
                      "amplitudes", negate_last, []),
        "PauliCoefficients": ([(c.n_qubits, c.coeffs) for c in paulis],
                              pauli.PauliCoefficients, "coeffs", bump, []),
        "SliceFamily": ([(f.pairing, f.matrices) for f in fams], pauli.SliceFamily, "matrices",
                        bump, []),
    }


def _record_cases():
    """Per result record: (value, twin, changed) triples, the twin rebuilt
    from the value's fields (a decomposition's settings as a list) and the
    changed one differing in one field, with no held array, and extra
    (a, b, equal) pairs."""
    w0, ghz = witnesses.witness_w0(), witnesses.witness_ghz()
    decs = [settings.catalog_decomposition(*case) for case in CATALOG_CASES]
    decs.append(settings.group_pauli_terms(pauli.to_pauli(ghz.operator),
                                           [list(settings.AXES.values())] * 3))
    decs.append(settings.decomposition_from_json_dict(
        settings.decomposition_to_json_dict(decs[0])))
    c0 = pauli.to_pauli(w0.operator)
    found = [settings.decomposition_search(c0, k, restarts=2) for k in (2, 3)]
    certs = [certify.lower_bound(w) for w in (w0, ghz)]
    verdicts = [witnesses.classify(w, v) for w in (w0, ghz) for v in (-0.25, 0.5)]
    replace = dataclasses.replace
    # a float field compares by its bytes, as an array does: two NaN
    # residuals were unequal unless they were the same object
    float_pairs = [(replace(decs[0], residual=float("nan")),
                    replace(decs[0], residual=float("nan")), True),
                   (replace(decs[0], residual=0.0), replace(decs[0], residual=-0.0), False)]
    return {
        "LocalDecomposition": ([(d, replace(d, settings=list(d.settings)),
                                 replace(d, settings=d.settings[1:])) for d in decs], None,
                               float_pairs),
        "SearchResult": ([(r, replace(r), replace(r, restarts_used=r.restarts_used + 1))
                          for r in found], None, []),
        "LowerBoundCertificate": ([(c, replace(c), replace(c, bound=c.bound + 1))
                                   for c in certs], None, []),
        "Verdict": ([(v, replace(v), replace(v, value=v.value + 1.0)) for v in verdicts],
                    None, []),
    }


VALUE_TYPES = ("MeasurementSetting", "Witness", "DensityMatrix", "PureState",
               "PauliCoefficients", "SliceFamily")
RECORD_TYPES = ("LocalDecomposition", "SearchResult", "LowerBoundCertificate", "Verdict")


@pytest.mark.parametrize("kind", VALUE_TYPES + RECORD_TYPES)
def test_value_types_compare_hash_and_freeze_as_values(kind):
    # two instances built from copies of the same arrays compare and hash
    # equal: before linalg.FrozenValue, == raised numpy's ambiguous truth
    # value and hash raised TypeError on all but MeasurementSetting, and a
    # PureState could be reassigned and written; the result records were
    # mutable dataclasses, and a decomposition was not hashable
    cases = {}
    for k, (inputs, build, name, change, pairs) in _value_cases().items():
        triples = []
        for meta, array in inputs:
            changed = array.copy()
            change(changed)
            triples.append((build(meta, array.copy()), build(meta, array.copy()),
                            build(meta, changed)))
        cases[k] = (triples, name, pairs)
    cases.update(_record_cases())
    triples, name, pairs = cases[kind]
    foreign = [case[0][0][0] for k, case in cases.items() if k != kind]
    for value, twin, changed in triples:
        assert twin == value and not twin != value
        assert hash(twin) == hash(value) and len({value, twin}) == 1
        assert changed != value
        held = [getattr(value, name)] if name else []
        for other in [*foreign, *(a.tolist() for a in held), repr(value), None]:
            assert (value == other) is False and (value != other) is True
        for f in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
        for a in held:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0.0
    for a, b, equal in pairs:
        assert (a == b) is equal and (hash(a) == hash(b)) is equal


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
            assert d.basis.tobytes() == _direction_loop(d.components)[1]
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
    with pytest.raises(ValueError, match="alpha must be a finite real number"):
        settings.catalog_decomposition("anton", math.nan, math.nan)


def test_sanpera5_decomposition():
    for alpha, beta in ((0.6, 0.8), (INV_ROOT2, INV_ROOT2), (0.3, math.sqrt(0.91))):
        dec = settings.catalog_decomposition("sanpera5", alpha, beta)
        assert dec.n_settings == 4
        assert dec.n_projectors == 5
        assert dec.residual < 1e-12
    with pytest.raises(ValueError):
        settings.catalog_decomposition("sanpera5", INV_ROOT2, -INV_ROOT2)
    with pytest.raises(ValueError, match="alpha must be a finite real number"):
        settings.catalog_decomposition("sanpera5", math.nan, math.nan)
    with pytest.raises(KeyError):
        settings.catalog_decomposition("nope")


def reference_catalog(name, alpha, beta):
    """Settings and target of a catalog decomposition as built per call,
    from raw direction vectors through setting() and weights_from_masks."""
    root2 = math.sqrt(2.0)
    x, y, z = (settings.AXES[a] for a in "xyz")
    if name in ("ghz", "w2"):
        zzz = settings.weights_from_masks(3, {
            (0, 0, 0): 5.0 / 8.0 - (0.25 if name == "w2" else 0.0),
            (0, 1, 1): -1.0 / 8.0, (1, 0, 1): -1.0 / 8.0, (1, 1, 0): -1.0 / 8.0})
        xxx = settings.weights_from_masks(3, {(1, 1, 1): -2.0 / 8.0})
        diag = settings.weights_from_masks(3, {(1, 1, 1): root2 / 8.0})
        setts = [settings.setting([z] * 3, zzz), settings.setting([x] * 3, xxx),
                 settings.setting([(x + y) / root2] * 3, diag),
                 settings.setting([(x - y) / root2] * 3, diag)]
        return setts, witnesses.catalog(name)
    if name == "w1":
        zzz = settings.weights_from_masks(3, {
            (0, 0, 0): 17.0 / 24.0, (1, 1, 1): 7.0 / 24.0,
            (1, 0, 0): 3.0 / 24.0, (0, 1, 0): 3.0 / 24.0, (0, 0, 1): 3.0 / 24.0,
            (1, 1, 0): 5.0 / 24.0, (1, 0, 1): 5.0 / 24.0, (0, 1, 1): 5.0 / 24.0})
        tilt = np.zeros((2, 2, 2))
        for bits in np.ndindex(tilt.shape):
            factors = [1.0 + root2 * (-1.0 if b else 1.0) for b in bits]
            tilt[bits] = -(1.0 / 24.0) * factors[0] * factors[1] * factors[2]
        setts = [settings.setting([z] * 3, zzz)]
        setts += [settings.setting([v] * 3, tilt) for v in
                  ((z + x) / root2, (z - x) / root2, (z + y) / root2, (z - y) / root2)]
        return setts, witnesses.catalog("w1")
    if name == "anton":
        alpha = INV_ROOT2 if alpha is None else alpha
        beta = -INV_ROOT2 if beta is None else beta
        ab = alpha * beta
        setts = [settings.setting([z, z], [[alpha ** 2, 0.0], [0.0, beta ** 2]]),
                 settings.setting([x, x], [[ab, 0.0], [0.0, ab]]),
                 settings.setting([y, y], [[0.0, -ab], [-ab, 0.0]])]
        setts = [s for s in setts if np.abs(s.weights).max() > 1e-15]
        return setts, witnesses.witness_phi(alpha, beta)
    alpha = INV_ROOT2 if alpha is None else alpha
    beta = INV_ROOT2 if beta is None else beta
    c, s = math.sqrt(alpha / (alpha + beta)), math.sqrt(beta / (alpha + beta))
    cs, cz, root3 = c * s, c * c - s * s, math.sqrt(3.0)
    weight = (alpha + beta) ** 2 / 3.0
    setts = [settings.setting([v, v], [[weight, 0.0], [0.0, 0.0]]) for v in (
        np.array([-cs, -root3 * cs, cz]), np.array([-cs, root3 * cs, cz]),
        np.array([2.0 * cs, 0.0, cz]))]
    setts.append(settings.setting([z, z], [[0.0, -alpha * beta], [-alpha * beta, 0.0]]))
    return setts, witnesses.witness_phi(alpha, beta)


# anton and sanpera5, built per call, on a grid of Schmidt angles
SCHMIDT_GRID = tuple((name, math.cos(t), sign * math.sin(t))
                     for t in np.linspace(0.02, math.pi / 2 - 0.02, 10)
                     for name, sign in (("anton", 1.0), ("anton", -1.0), ("sanpera5", 1.0)))


@pytest.mark.parametrize("name,alpha,beta", CATALOG_CASES + SCHMIDT_GRID)
def test_catalog_matches_per_call_reference(name, alpha, beta):
    setts, target = reference_catalog(name, alpha, beta)
    ref = settings._verified("reference", setts, target)
    decs = [settings.catalog_decomposition(name, alpha, beta) for _ in range(2)]
    for dec in decs:
        assert dec.residual == ref.residual
        assert len(dec.settings) == len(ref.settings)
        for got, want in zip(dec.settings, ref.settings):
            assert [d.components for d in got.directions] == \
                [d.components for d in want.directions]
            assert got.weights.tobytes() == want.weights.tobytes()
        assert dec.operator().tobytes() == ref.operator().tobytes()
        assert json.dumps(settings.decomposition_to_json_dict(dec)["settings"]) == \
            json.dumps(settings.decomposition_to_json_dict(ref)["settings"])
    # every call returns the same value
    assert decs[0] == decs[1] and hash(decs[0]) == hash(decs[1])


@pytest.mark.parametrize("name", ["ghz", "w1", "w2"])
def test_fixed_catalog_entries_share_import_verified_settings(name):
    first, second = (settings.catalog_decomposition(name) for _ in range(2))
    assert first is second
    # the residual held since import is what verifying the settings now gives
    assert first.verified and first.target_label == name
    fresh = settings.LocalDecomposition(name, list(first.settings))
    assert settings.verify_decomposition(fresh, witnesses.catalog(name)) == first.residual
    # the shared settings cannot be changed through any call's result
    for s in first.settings:
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.weights = np.zeros_like(s.weights)
        with pytest.raises(ValueError, match="read-only"):
            s.weights[0, 0, 0] = 0.0


def _same_decomposition_bytes(dec, ref):
    assert dec.residual == ref.residual and dec.target_label == ref.target_label
    assert [[d.components for d in s.directions] for s in dec.settings] == \
        [[d.components for d in s.directions] for s in ref.settings]
    assert [s.weights.tobytes() for s in dec.settings] == \
        [s.weights.tobytes() for s in ref.settings]
    assert json.dumps(settings.decomposition_to_json_dict(dec)) == \
        json.dumps(settings.decomposition_to_json_dict(ref))


def test_w0_decomposition_is_built_once_at_import():
    # anton at exactly w0's angles, given or defaulted, is one value built
    # and verified at import, with the bytes of a per-call build
    shared = settings.catalog_decomposition("anton")
    alpha, beta = settings.W0_ANGLES
    for args in ((alpha, beta), (alpha, None), (None, beta), (np.float64(alpha), beta)):
        assert settings.catalog_decomposition("anton", *args) is shared
    entry = settings.REGISTRY["w0"]
    assert entry.decompositions["anton"](*entry.angles) is shared
    assert shared.verified
    reference = settings._verified("w0", *reference_catalog("anton", alpha, beta))
    _same_decomposition_bytes(shared, reference)
    # an angle one ulp away is built per call, though it is still labelled w0
    near = math.nextafter(alpha, 1.0)
    decs = [settings.catalog_decomposition("anton", near, beta) for _ in range(2)]
    assert decs[0] is not decs[1] and all(dec is not shared for dec in decs)
    reference = settings._verified("w0", *reference_catalog("anton", near, beta))
    for dec in decs:
        _same_decomposition_bytes(dec, reference)


def test_setting_holds_a_read_only_copy_of_a_writable_array():
    dirs = settings.catalog_decomposition("ghz").settings[0].directions
    caller = np.arange(8.0).reshape(2, 2, 2)
    for s in (settings.MeasurementSetting(dirs, caller),
              settings.MeasurementSetting(dirs, caller[::-1]),
              settings.setting([[0.0, 0.0, -1.0]] * 3, caller)):
        # the caller's array stays writable, and writing it leaves the setting
        assert caller.flags.writeable
        assert not s.weights.flags.writeable
        assert not np.shares_memory(s.weights, caller)
    held = settings.MeasurementSetting(dirs, caller)
    caller[0, 0, 0] = 9.0
    assert held.weights[0, 0, 0] == 0.0
    # a read-only view of a writable array is copied too, so writing the
    # array it views leaves the setting, and its operator, unchanged
    view = caller.reshape(2, 2, 2)
    view.flags.writeable = False
    for s in (settings.MeasurementSetting(dirs, view), settings.setting(dirs, view)):
        want = settings.setting_operator(s)
        caller[:] = np.nan
        assert not np.shares_memory(s.weights, caller)
        assert np.isfinite(s.weights).all()
        assert settings.setting_operator(s).tobytes() == want.tobytes()
        caller[:] = np.arange(8.0).reshape(2, 2, 2)


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
    assert dec.verified


def test_verifying_a_decomposition_leaves_it_unchanged():
    # verify_decomposition stored the residual against whatever target it
    # was last given, so verifying the shared ghz decomposition against
    # np.eye(8) made every later catalog_decomposition("ghz") unverified
    ghz = witnesses.witness_ghz()
    decs = [settings.catalog_decomposition(*case) for case in CATALOG_CASES]
    decs.append(settings.group_pauli_terms(pauli.to_pauli(ghz.operator),
                                           [list(settings.AXES.values())] * 3))
    decs.append(settings.decomposition_search(pauli.to_pauli(ghz.operator), 4,
                                              restarts=1).decomposition)
    decs.append(settings.decomposition_from_json_dict(
        settings.decomposition_to_json_dict(decs[-1])))
    for dec in decs:
        before = (repr(dec.residual), dec.verified, dec.settings)
        assert type(dec.settings) is tuple
        other = np.eye(len(dec.operator()))
        res = settings.verify_decomposition(dec, other)
        assert res == float(np.linalg.norm(dec.operator() - other)) > 1.0
        assert (repr(dec.residual), dec.verified, dec.settings) == before
    assert settings.catalog_decomposition("ghz") is settings.catalog_decomposition("ghz")
    assert settings.catalog_decomposition("ghz").verified
    # only the decomposition's constructor stores a residual or a tolerance
    src = Path(settings.__file__).parent
    writes = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
              for target in getattr(node, "targets", [getattr(node, "target", None)])
              if isinstance(target, ast.Attribute) and target.attr in ("residual", "tol")]
    assert writes == []


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
    c = pauli.to_pauli(np.eye(8))
    dec = settings.group_pauli_terms(c, axis_candidates(3))
    assert dec.n_settings == 1
    c_ghz = pauli.to_pauli(witnesses.witness_ghz().operator)
    xz_only = [[settings.AXES["x"], settings.AXES["z"]]] * 3
    with pytest.raises(ValueError):
        settings.group_pauli_terms(c_ghz, xz_only)


def test_group_pauli_terms_ignores_off_axis_candidates():
    # a direction parallel to no axis covers no term
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    diag = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    dec = settings.group_pauli_terms(
        c, [a + [diag] for a in axis_candidates(2)])
    assert dec.n_settings == 3 and dec.residual < 1e-12
    with pytest.raises(ValueError, match="term xx is not coverable"):
        settings.group_pauli_terms(c, [[diag]] * 2)
    # a candidate is an axis only when its other components are at most
    # 1e-12: x tilted by 1e-6 covers no x term, so ghz's xxx is left over
    # instead of a cover that misses the target by ~1e-6
    c_ghz = pauli.to_pauli(witnesses.witness_ghz().operator)
    y, z = settings.AXES["y"], settings.AXES["z"]
    with pytest.raises(ValueError, match="term xxx is not coverable"):
        settings.group_pauli_terms(c_ghz, [[(1.0, 1e-6, 0.0), y, z]] * 3)
    dec = settings.group_pauli_terms(c_ghz, [[(1.0, 1e-13, 0.0), y, z]] * 3)
    assert dec.n_settings == 5 and dec.residual < 1e-12


def _cover_by_direction(c, candidates, exact=True):
    """``group_pauli_terms`` with every raw candidate passed through
    ``direction()`` first, one call per listed vector, as it once did."""
    return settings.group_pauli_terms(
        c, [[v if isinstance(v, settings.Direction) else settings.direction(v)
             for v in cands] for cands in candidates], exact)


def test_cover_candidates_are_canonicalized_once_to_the_same_cover():
    # repeats, flipped signs, signed zeros, unnormalized vectors, Direction
    # objects and off-axis vectors give the cover that canonicalizing each
    # listed vector on its own gives, to the bytes of its directions
    diag = np.array([1.0, 1.0, 0.0])
    lists = [
        axis_candidates(3),
        [[-settings.AXES["z"], (0.0, -0.0, 2.0), settings.AXES["x"],
          settings.direction((0, 1, 0)), -settings.AXES["y"], diag, -diag]] * 3,
        [[settings.AXES["x"], settings.AXES["y"], settings.AXES["z"]],
         [(3.0, 0.0, 0.0), (0.0, -5.0, 0.0), (0.0, 0.0, 1e-3), (0.6, 0.8, 0.0)],
         [settings.AXES["z"], settings.AXES["z"], (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)]],
    ]
    for name in ("ghz", "w1", "w2"):
        c = pauli.to_pauli(witnesses.catalog(name).operator)
        for candidates in lists:
            for exact in (True, False):
                got = settings.group_pauli_terms(c, candidates, exact)
                want = _cover_by_direction(c, candidates, exact)
                assert settings.decomposition_to_json_dict(got) == \
                    settings.decomposition_to_json_dict(want)
                for a, b in zip(got.settings, want.settings):
                    assert a.directions == b.directions
                    assert all(x.basis.tobytes() == y.basis.tobytes()
                               for x, y in zip(a.directions, b.directions))
    with pytest.raises(ValueError, match="nonzero"):
        settings.group_pauli_terms(c, [[settings.AXES["x"], (0.0, 0.0, 0.0)]] * 3)
    with pytest.raises(ValueError, match="finite"):
        settings.group_pauli_terms(c, [[(np.nan, 0.0, 1.0)]] * 3)


def test_group_pauli_terms_refuses_more_than_three_qubits_before_covering(monkeypatch):
    # a four-qubit target ran its whole cover before from_pauli refused it
    def cover(*args):
        raise AssertionError("the cover ran on a four-qubit target")

    monkeypatch.setattr(settings, "_exact_min_cover", cover)
    coeffs = np.zeros((4,) * 4)
    coeffs[3, 3, 0, 0] = coeffs[0, 0, 1, 1] = 1.0
    with pytest.raises(ValueError, match="1 to 3 qubits, got 4"):
        settings.group_pauli_terms(pauli.PauliCoefficients(4, coeffs), axis_candidates(4))


def _scanning_min_cover(cover_sets, universe):
    # the branch and bound as it was, scanning every cover set for an
    # element's covering sets at every node
    best = settings._greedy_cover(cover_sets, universe)

    def covering(elem):
        return [j for j in range(len(cover_sets)) if elem in cover_sets[j]]

    def dfs(covered, chosen):
        nonlocal best
        if covered == universe:
            if len(chosen) < len(best):
                best = sorted(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        rem = universe - covered
        maxcov = max(len(s & rem) for s in cover_sets)
        if maxcov == 0 or len(chosen) + math.ceil(len(rem) / maxcov) >= len(best):
            return
        options = covering(min(sorted(rem), key=lambda e: len(covering(e))))
        options.sort(key=lambda j: -len(cover_sets[j] & rem))
        for j in options:
            dfs(covered | cover_sets[j], chosen + [j])

    dfs(frozenset(), [])
    return best


def _design_cover_jobs(seed, block):
    """The exact-cover jobs of the benchmark's design block: a catalog witness
    on the shuffled axes xyz, and a sum of 3-5 random Pauli terms on a
    shuffled axis subset, drawn from the block's stream in the same order."""
    rng = np.random.default_rng([seed, 2, block])
    name = ("ghz", "w1", "w2", "w0")[block % 4]
    axes = "".join(rng.permutation(list("xyz")))
    random_axes = "".join(rng.permutation(list(rng.choice(("xz", "xy", "yz", "xyz")))))
    letters = [0] + ["xyz".index(a) + 1 for a in random_axes]
    support, size = set(), int(rng.integers(3, 6))
    while len(support) < size:
        support.add(tuple(int(rng.choice(letters)) for _ in range(3)))
    coeffs = np.zeros((4, 4, 4))
    for t in sorted(support):
        coeffs[t] = rng.standard_normal()
    return [(pauli.to_pauli(witnesses.catalog(name).operator), axes),
            (pauli.PauliCoefficients(3, coeffs), random_axes)]


def test_exact_cover_keeps_its_choice_on_the_design_blocks(monkeypatch):
    # each element's covering sets are found once, before the search; the
    # chosen covers are those of the scan at every node, including the 33
    # jobs where the search improves on its greedy start
    exact, checked = settings._exact_min_cover, []

    def compared(cover_sets, universe):
        chosen = exact(cover_sets, universe)
        assert chosen == _scanning_min_cover(cover_sets, universe)
        checked.append(chosen != settings._greedy_cover(cover_sets, universe))
        return chosen

    monkeypatch.setattr(settings, "_exact_min_cover", compared)
    for seed in (7, 23):
        for block in range(64):
            for c, axes in _design_cover_jobs(seed, block):
                settings.group_pauli_terms(c, [[settings.AXES[a] for a in axes]] * c.n_qubits)
    assert len(checked) == 256 and sum(checked) == 33


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


def test_w0_at_three_settings_solves_in_its_first_drawn_restart():
    # w0 gets no algebraic start, so this pins restart 0's own draw: a
    # coordinate-axis draw can trap a restart (seeds 1, 6, 11, 29, 32, 49
    # and 52 needed a second restart when half the draws were axes)
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    for seed in range(64):
        result = settings.decomposition_search(c, 3, restarts=8, seed=seed)
        assert result.success and result.restarts_used == 1, seed


def test_decomposition_search_single_projector():
    psi = states.random_product_state(3, seed=5)
    c = pauli.to_pauli(psi.projector())
    result = settings.decomposition_search(c, max_settings=1, restarts=50, seed=1)
    assert result.success and result.residual < 1e-10


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8])
def test_decomposition_search_rejects_bad_tolerance(tol):
    # a NaN tolerance used to pass every `res >= tol` check as a success
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    with pytest.raises(ValueError, match="tol must be a finite real number above 0"):
        settings.decomposition_search(c, 4, restarts=2, seed=0, tol=tol)


def test_decomposition_search_rejects_a_zero_target(monkeypatch):
    # a zero target used to reach residual 0 in its first restart, drop
    # every setting and fail with "decomposition has no settings"
    calls = []
    monkeypatch.setattr(settings, "_als_restart", lambda *args: calls.append(args))
    c = pauli.to_pauli(np.zeros((8, 8)))
    with pytest.raises(ValueError, match="target is the zero operator"):
        settings.decomposition_search(c, 2)
    assert calls == []


def test_search_restart_budget(monkeypatch):
    # every restart is one _als_restart call and one _gn_finish call; the
    # finish evaluates the weight solve once and, still above tol, takes at
    # most GN_MAX_STEPS steps of one evaluation each, then the fold's
    calls = []
    als, finish, products = settings._als_restart, settings._gn_finish, settings._products

    def counted_als(*args, **kwargs):
        calls.append("restart")
        return als(*args, **kwargs)

    def counted_finish(*args):
        calls.append("finish")
        return finish(*args)

    def counted_products(*args):
        calls.append("evaluation")
        return products(*args)

    monkeypatch.setattr(settings, "_als_restart", counted_als)
    monkeypatch.setattr(settings, "_gn_finish", counted_finish)
    monkeypatch.setattr(settings, "_products", counted_products)
    monkeypatch.setattr(settings, "GN_MAX_STEPS", 3)
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    result = settings.decomposition_search(c, max_settings=3, restarts=2, seed=0)
    assert not result.success
    assert calls == ["restart", "finish"] + ["evaluation"] * 5 + ["restart", "finish"] \
        + ["evaluation"] * 5
    # restart 0's algebraic start fits ghz at four settings in its weight
    # solve: one evaluation, and no step
    calls.clear()
    assert settings.decomposition_search(c, max_settings=4, restarts=1, seed=0).success
    assert calls == ["restart", "finish", "evaluation"]


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


def _spread(dec, c):
    # the sum of the norms of the settings' Pauli tensors over the target's:
    # what GN_SPREAD caps in the finish
    return sum(np.linalg.norm(pauli.to_pauli(settings.setting_operator(s)).coeffs)
               for s in dec.settings) / np.linalg.norm(c.coeffs)


def test_search_finds_w1_at_five_settings():
    # the weights solved for drawn directions miss; the Gauss-Newton finish
    # reaches tol, well inside the spread cap
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    found = 0
    for seed in range(20):
        result = settings.decomposition_search(c, max_settings=5, restarts=2, seed=seed)
        if result.success:
            found += 1
            assert result.decomposition.n_settings <= 5
            assert settings.verify_decomposition(
                result.decomposition, witnesses.witness_w1().operator) < 1e-8
            assert _spread(result.decomposition, c) <= settings.GN_SPREAD / 3, seed
        else:
            assert result.restarts_used == 2
    assert found >= 16


def test_search_solves_the_feasible_catalog_jobs_of_sixteen_design_blocks():
    # the benchmark's design jobs: block b searches with seed 16 b + j, j the
    # job's place in its list; w1 at five settings runs twice per block and
    # solved 27 of its 32 jobs when ALS sweeps came before the finish
    solved = {}
    for name, k, restarts, jobs in (("w0", 3, 8, (0,)), ("ghz", 4, 16, (2,)),
                                    ("w2", 4, 16, (4,)), ("w1", 5, 2, (6, 7))):
        c = pauli.to_pauli(witnesses.catalog(name).operator)
        results = [settings.decomposition_search(c, k, restarts=restarts, seed=16 * b + j)
                   for b in range(16) for j in jobs]
        solved[name] = sum(r.success for r in results)
        spreads = [_spread(r.decomposition, c) for r in results if r.success]
        assert max(spreads) <= settings.GN_SPREAD / 3, (name, max(spreads))
    assert solved["w0"] == solved["ghz"] == solved["w2"] == 16
    assert solved["w1"] >= 27, solved


def test_design_random_sums_spread_at_most_a_third_of_the_cap():
    # the random sums of the benchmark's design blocks 0-15, drawn from the
    # same stream in the same order (jobs 9, 10 and 11 of a block, m = 2, 3, 4),
    # are found in one restart with settings no larger than the target needs
    for b in range(16):
        targets = np.random.default_rng([2, b])
        for j, m in ((9, 2), (10, 3), (11, 4)):
            c = _random_setting_sum(targets, m)
            result = settings.decomposition_search(c, m, restarts=1, seed=16 * b + j)
            assert result.success, (b, m)
            assert _spread(result.decomposition, c) <= settings.GN_SPREAD / 3, (b, m)


def test_an_infeasible_finish_ends_at_the_spread_cap(monkeypatch):
    # w1 at four settings has no decomposition, and its finish used to crawl
    # ~100 steps towards a border-rank limit while the settings grew to
    # ~3 500 times the target; now it stops once they pass GN_SPREAD times it
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    products, finish = settings._products, settings._gn_finish
    evaluations, finishes = [], []

    def counted_products(*args):
        evaluations.append(1)
        return products(*args)

    def recorded_finish(target, n, dirs, core, tol):
        before = len(evaluations)
        res, d, g = finish(target, n, dirs, core, tol)
        spread = np.linalg.norm(_einsum_models(d, g).reshape(len(d), -1), axis=1).sum()
        # a step evaluates once; so do the start and the fold
        finishes.append((len(evaluations) - before - 2, res, spread / np.linalg.norm(target)))
        return res, d, g

    monkeypatch.setattr(settings, "_products", counted_products)
    monkeypatch.setattr(settings, "_gn_finish", recorded_finish)
    result = settings.decomposition_search(c, 4, restarts=1, seed=8)
    assert not result.success and result.restarts_used == 1
    [(steps, res, spread)] = finishes
    assert 0 < steps < 50, steps  # 107 steps before the cap
    assert settings.GN_SPREAD < spread < 2 * settings.GN_SPREAD
    assert res == result.residual >= settings.SEARCH_TOL


@pytest.mark.parametrize("name,k", [("w0", 2), ("ghz", 3), ("w2", 3), ("w1", 4)])
def test_search_fails_below_the_certified_bound(name, k):
    from witkit import certify
    wit = witnesses.catalog(name)
    assert certify.lower_bound(wit).bound > k
    c = pauli.to_pauli(wit.operator)
    for seed in range(3):
        result = settings.decomposition_search(c, max_settings=k, restarts=4, seed=seed)
        assert not result.success and result.decomposition is None
        assert result.restarts_used == 4
        assert result.residual >= settings.SEARCH_TOL


def _random_setting_sum(rng, m):
    return pauli.to_pauli(sum(settings.setting_operator(random_setting(rng))
                              for _ in range(m)))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_search_finds_random_sums_in_one_restart(m):
    # restart 0 starts from the directions read off the slice spans
    rng = np.random.default_rng(40 + m)
    for seed in range(10):
        c = _random_setting_sum(rng, m)
        start = settings._algebraic_start(c, m)
        assert start.shape == (m, 3, 3)
        result = settings.decomposition_search(c, m, restarts=1, seed=seed)
        assert result.success and result.restarts_used == 1
        assert result.decomposition.n_settings <= m
        assert settings.verify_decomposition(
            result.decomposition, pauli.from_pauli(c)) < settings.SEARCH_TOL


def test_algebraic_start_falls_back_to_none():
    # ghz and w2 hold one real rank-one element and one complex pair in
    # each pairing: the pair's block takes three real settings, so the
    # start needs k >= d + 1 = 4; w1's second real element fails the
    # minor test, and the first one's tangent space gives four more
    # settings, so w1 needs k >= 5
    for name in ("ghz", "w2"):
        c = pauli.to_pauli(witnesses.catalog(name).operator)
        assert all(settings._algebraic_start(c, k) is None for k in range(1, 4))
        assert all(settings._algebraic_start(c, k).shape == (4, 3, 3) for k in range(4, 7))
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    assert all(settings._algebraic_start(c, k) is None for k in range(1, 5))
    assert all(settings._algebraic_start(c, k).shape == (5, 3, 3) for k in (5, 6))
    # two qubits, and fewer settings than the span dimension
    assert settings._algebraic_start(pauli.to_pauli(witnesses.witness_w0().operator), 3) is None
    c = _random_setting_sum(np.random.default_rng(7), 3)
    assert settings._algebraic_start(c, 3) is not None
    assert settings._algebraic_start(c, 2) is None
    # two settings sharing party A's direction: a whole plane of rank-one
    # elements, so the kernel outgrows the span
    rng = np.random.default_rng(8)
    a = rng.standard_normal(3)
    op = sum(settings.setting_operator(settings.setting(
        [a, rng.standard_normal(3), rng.standard_normal(3)], rng.standard_normal((2, 2, 2))))
        for _ in range(2))
    assert settings._algebraic_start(pauli.to_pauli(op), 2) is None
    # the same with party B's direction shared
    b = rng.standard_normal(3)
    op = sum(settings.setting_operator(settings.setting(
        [rng.standard_normal(3), b, rng.standard_normal(3)], rng.standard_normal((2, 2, 2))))
        for _ in range(2))
    assert settings._algebraic_start(pauli.to_pauli(op), 2) is None
    # one setting with only an AB term and another with only an AC term:
    # the AB|C slices hold the first one's element and no C direction for
    # it, which the start reads off the AC term along its A direction
    dirs = [rng.standard_normal((3, 3)) for _ in range(2)]
    ab_only = settings.setting_operator(settings.setting(
        dirs[0], settings.weights_from_masks(3, {(1, 1, 0): 1.0})))
    op = ab_only + settings.setting_operator(settings.setting(
        dirs[1], settings.weights_from_masks(3, {(1, 0, 1): 1.0})))
    start = settings._algebraic_start(pauli.to_pauli(op), 2)
    assert start.shape == (1, 3, 3)
    c_dir = dirs[1][2] / np.linalg.norm(dirs[1][2])
    assert abs(abs(start[0, 2] @ c_dir) - 1.0) < 1e-9
    # alone, that setting shows its C direction nowhere: NaN, and restart
    # 0 keeps its own draw there
    start = settings._algebraic_start(pauli.to_pauli(ab_only), 1)
    assert start.shape == (1, 3, 3) and np.isfinite(start[0, :2]).all()
    assert np.isnan(start[0, 2]).all()
    result = settings.decomposition_search(pauli.to_pauli(ab_only), 1, restarts=1)
    assert result.success and result.restarts_used == 1


def test_algebraic_start_reads_a_shared_c_direction():
    # two settings sharing party C's direction still give two separate AB|C
    # elements, and the slices' coefficients on them carry that direction
    rng = np.random.default_rng(21)
    for seed in range(10):
        c_dir = rng.standard_normal(3)
        c = pauli.to_pauli(sum(settings.setting_operator(settings.setting(
            [rng.standard_normal(3), rng.standard_normal(3), c_dir],
            rng.standard_normal((2, 2, 2)))) for _ in range(2)))
        start = settings._algebraic_start(c, 2)
        overlaps = np.abs(start[:, 2] @ c_dir) / np.linalg.norm(c_dir)
        assert np.allclose(overlaps, 1.0, atol=1e-9)
        result = settings.decomposition_search(c, 2, restarts=1, seed=seed)
        assert result.success and result.restarts_used == 1


def test_only_restart_zero_gets_the_start(monkeypatch):
    # one _als_restart call per used restart, a failure included
    c = _random_setting_sum(np.random.default_rng(9), 3)
    seeded = []
    als = settings._als_restart

    def counted_als(target, n, k, rng, tol, start=None):
        seeded.append(start is not None)
        return als(target, n, k, rng, tol, start)

    monkeypatch.setattr(settings, "_als_restart", counted_als)
    result = settings.decomposition_search(c, 3, restarts=3, seed=0)
    assert result.success and result.restarts_used == 1 and seeded == [True]
    seeded.clear()
    # no residual reaches a tolerance this small, so every restart runs
    result = settings.decomposition_search(c, 3, restarts=3, seed=0, tol=1e-300)
    assert not result.success and result.restarts_used == 3
    assert seeded == [True, False, False]


@pytest.mark.parametrize("name", ["ghz", "w2"])
def test_ghz_and_w2_start_at_their_four_settings(name):
    # restart 0 starts from one real setting and the three that cover the
    # complex pair's block; k = 3 gets no start and still fails with its
    # whole budget (test_search_fails_below_the_certified_bound)
    c = pauli.to_pauli(witnesses.catalog(name).operator)
    for seed in range(16):
        result = settings.decomposition_search(c, 4, restarts=1, seed=seed)
        assert result.success and result.restarts_used == 1, seed
        assert result.decomposition.n_settings <= 4
    # with a fifth setting to spare restart 0 still succeeds at least as
    # often as the drawn restart 0 did (9 of these 16 seeds)
    found = sum(settings.decomposition_search(c, 5, restarts=1, seed=seed).success
                for seed in range(16))
    assert found >= 9


def _local_unitary(rng):
    """A random U1 x U2 x U3 on three qubits."""
    out = np.eye(1)
    for _ in range(3):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        out = np.kron(out, q * (np.diag(r) / np.abs(np.diag(r))))
    return out


def test_restart_zero_finds_w1_at_five_settings():
    # w1's AB|C span holds one rank-one element, zz^T; its tangent start
    # gives zzz and four 45-degree tilts, the catalog's directions turned about z
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    start = settings._algebraic_start(c, 5)
    assert np.abs(np.abs(start[0, :, 2]) - 1.0).max() < 1e-10
    assert np.abs(np.abs(start[1:, :, 2]) - math.sqrt(0.5)).max() < 1e-5
    for seed in range(16):
        result = settings.decomposition_search(c, 5, restarts=1, seed=seed)
        assert result.success and result.restarts_used == 1, seed
        assert result.decomposition.n_settings == 5
        assert _spread(result.decomposition, c) <= settings.GN_SPREAD / 3
    # and so does w1 in any local frame
    rng = np.random.default_rng(17)
    w1 = witnesses.witness_w1().operator
    for seed in range(8):
        u = _local_unitary(rng)
        result = settings.decomposition_search(
            pauli.to_pauli(u @ w1 @ u.conj().T), 5, restarts=1, seed=seed)
        assert result.success and result.restarts_used == 1, seed


def _orthonormal(mats):
    flat = np.reshape(mats, (len(mats), 9))
    return np.linalg.svd(flat, full_matrices=False)[2].reshape(-1, 3, 3)


def test_tangent_start_refuses_what_it_cannot_cover():
    # w1's polished element, ~6e-7 off zz^T, comes back sharpened to
    # rounding; from a factor turned 45 degrees off, or from x x^T, the
    # span misses the tangent space and nothing is built
    c = pauli.to_pauli(witnesses.witness_w1().operator)
    e, basis = certify.first_draw_elements(certify._slices(c, "AB|C"), 5)
    p, _, q = np.linalg.svd(e[0])
    a_dirs, b_dirs = settings._tangent_block(p[:, 0], q[0], basis)
    assert np.abs(p[:2, 0]).max() > 1e-7 and np.abs(a_dirs[0, :2]).max() < 1e-14
    assert np.abs(b_dirs[0, :2]).max() < 1e-14
    x, y, z = np.eye(3)
    assert settings._tangent_block((x + z) / math.sqrt(2.0), z, basis) is None
    assert settings._tangent_block(x, x, basis) is None
    # e = zz^T with t_j = x_j z^T + z x_j^T for x_1, x_2 = x, y: a fourth
    # slice xx^T + yy^T has sigma = 1, xy^T + yx^T an indefinite sigma and
    # xy^T - yx^T no symmetric sigma at all
    tangent = [np.outer(z, z), np.outer(x, z) + np.outer(z, x), np.outer(y, z) + np.outer(z, y)]
    a_dirs, b_dirs = settings._tangent_block(
        z, z, _orthonormal(tangent + [np.outer(x, x) + np.outer(y, y)]))
    assert np.allclose(np.abs(a_dirs[1:, 2]), math.sqrt(0.5))
    assert np.allclose(np.abs(b_dirs[1:, 2]), math.sqrt(0.5))
    for sign in (1.0, -1.0):
        assert settings._tangent_block(
            z, z, _orthonormal(tangent + [np.outer(x, y) + sign * np.outer(y, x)])) is None
    # a span inside the tangent space meets it in four dimensions, not three
    span = _orthonormal([np.outer(z, z), np.outer(x, z), np.outer(z, x), np.outer(y, z)])
    assert settings._tangent_block(z, z, span) is None


def test_algebraic_start_covers_a_lone_complex_pair():
    # ghz without its ZZ setting: a two-dimensional AB|C span whose pencil
    # is one complex pair, so all three settings come from its block
    dec = settings.catalog_decomposition("ghz")
    c = pauli.to_pauli(sum(settings.setting_operator(s) for s in dec.settings[1:]))
    assert settings._algebraic_start(c, 2) is None
    start = settings._algebraic_start(c, 3)
    assert start.shape == (3, 3, 3) and np.isfinite(start).all()
    # the directions lie in the xy plane, like those of the three settings
    assert np.abs(start[:, :, 2]).max() < 1e-12
    result = settings.decomposition_search(c, 3, restarts=1)
    assert result.success and result.restarts_used == 1


def test_later_restarts_draw_as_without_the_start(monkeypatch):
    # restarts r >= 1 get no start and the generator of stream(seed, r),
    # untouched, so their draws are those of a search without the start
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    calls = []
    als = settings._als_restart

    def recorded_als(target, n, k, rng, tol, start=None):
        calls.append((start, copy.deepcopy(rng).random(8)))
        return als(target, n, k, rng, tol, start)

    monkeypatch.setattr(settings, "_als_restart", recorded_als)
    result = settings.decomposition_search(c, 4, restarts=3, seed=5, tol=1e-300)
    assert not result.success and len(calls) == 3
    assert calls[0][0] is not None
    for r, (start, draws) in enumerate(calls):
        assert np.array_equal(draws, stream(5, r).random(8))
        assert (start is None) == (r > 0)


def test_start_replaces_only_its_finite_entries():
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    # an infinite tolerance returns right after the weight solve
    drawn = settings._als_restart(c.coeffs, 3, 3, stream(4, 0), math.inf)[1]
    start = np.full((2, 3, 3), np.nan)
    start[0] = np.eye(3)
    start[1, 0] = [0.0, 0.6, 0.8]
    dirs = settings._als_restart(c.coeffs, 3, 3, stream(4, 0), math.inf, start)[1]
    assert np.array_equal(dirs[0], np.eye(3))
    assert np.array_equal(dirs[1, 0], [0.0, 0.6, 0.8])
    assert np.array_equal(dirs[1, 1:], drawn[1, 1:])
    assert np.array_equal(dirs[2], drawn[2])


def test_search_goes_on_after_a_restart_fails_verification(monkeypatch):
    # a restart that reports a residual below tol but whose settings do not
    # rebuild the target must not end the search
    c = pauli.to_pauli(witnesses.witness_ghz().operator)
    calls = []

    def wrong_restart(target, n, k, rng, tol, start=None):
        calls.append(1)
        dirs = np.tile(np.eye(3)[:n], (k, 1, 1))
        return 0.0, dirs, np.ones((k,) + (2,) * n)

    monkeypatch.setattr(settings, "_als_restart", wrong_restart)
    result = settings.decomposition_search(c, max_settings=4, restarts=3, seed=0)
    assert not result.success and result.decomposition is None
    assert result.restarts_used == 3 and len(calls) == 3
    assert result.residual >= settings.SEARCH_TOL


@pytest.mark.parametrize("name,k,seed", [("w0", 3, 0), ("random2", 2, 1)])
def test_gn_finish_converges_from_a_perturbed_solution(name, k, seed, monkeypatch):
    c = _search_targets()[name]
    n = c.n_qubits
    res, dirs, core = settings._als_restart(c.coeffs, n, k, stream(seed, 0), 1e-12)
    assert res < 1e-12
    # with an exact Jacobian five steps suffice from 1e-4 away (a wrong one
    # leaves a damped gradient descent)
    rng = np.random.default_rng(0)
    near = (dirs + 1e-4 * rng.standard_normal(dirs.shape),
            core + 1e-4 * rng.standard_normal(core.shape))
    monkeypatch.setattr(settings, "GN_MAX_STEPS", 5)
    res, dirs, core = settings._gn_finish(c.coeffs, n, *near, 1e-12)
    assert res < 1e-12
    # the finish hands over unit directions, the norms folded into the
    # cores, and a residual that the assembled settings reproduce
    assert np.allclose(np.linalg.norm(dirs, axis=-1), 1.0, atol=1e-14)
    dec = settings.LocalDecomposition("search", settings._assemble(n, dirs, core))
    assert abs(settings.verify_decomposition(dec, pauli.from_pauli(c)) - res) < 1e-12


def test_gn_finish_keeps_a_zero_direction_with_zero_weights(monkeypatch):
    # a setting with all-zero directions and weights has zero Jacobian rows,
    # so the finish never moves it; its norm must not become a 0/0 (NaN and
    # a RuntimeWarning, an error under the suite's filters)
    c = pauli.to_pauli(witnesses.witness_w0().operator)
    _, dirs, core = settings._als_restart(c.coeffs, 2, 2, stream(0, 0), 1e-12)
    dirs[1], core[1] = 0.0, 0.0
    monkeypatch.setattr(settings, "GN_MAX_STEPS", 5)
    res, dirs, core = settings._gn_finish(c.coeffs, 2, dirs, core, 1e-12)
    assert np.isfinite(res) and np.isfinite(dirs).all() and np.isfinite(core).all()
    assert not dirs[1].any() and not core[1, 1].any() and not core[1, :, 1].any()
    models = _einsum_models(dirs, core).reshape(2, -1)
    rebuilt = c.coeffs.ravel() - models.sum(axis=0)
    assert res == pytest.approx(math.sqrt(4.0 * (rebuilt @ rebuilt)), rel=1e-12)


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


def test_a_found_decomposition_is_verified_at_the_search_tolerance():
    # residual 1.9e-9: below the search's tol, above VERIFY_TOL (seed 0
    # lands at 8.8e-11, below both)
    w0 = witnesses.witness_w0()
    result = settings.decomposition_search(pauli.to_pauli(w0.operator), 3, restarts=8, seed=1)
    dec = result.decomposition
    assert result.success and settings.VERIFY_TOL < result.residual < settings.SEARCH_TOL
    assert dec.tol == settings.SEARCH_TOL and dec.verified
    simulate.estimate_witness(states.singlet_state().density_matrix(), dec, 100, 0)
    # read back from the wire format, a search result keeps that tolerance
    # and passes it, unverified until its residual is computed
    back = settings.decomposition_from_json_dict(settings.decomposition_to_json_dict(dec))
    assert math.isnan(back.residual) and not back.verified
    assert settings.VERIFY_TOL < settings.verify_decomposition(
        back, w0) < back.tol == settings.SEARCH_TOL
    # any other target label is verified at VERIFY_TOL, which it misses
    other = settings.decomposition_from_json_dict(
        dict(settings.decomposition_to_json_dict(dec), target="w0"))
    assert other.tol == settings.VERIFY_TOL
    assert settings.verify_decomposition(other, w0) > other.tol


def test_wire_format_bounds_the_party_count_before_allocating():
    # forty directions would take 8 TiB of weights and far more basis
    three = {"directions": [[0, 0, 1]] * 3, "weights": {"000": 1.0}}
    forty = {"directions": [[0, 0, 1]] * 40, "weights": {"0" * 40: 1.0}}
    with pytest.raises(ValueError, match="1 to 3 qubits, got 40"):
        settings.decomposition_from_json_dict({"settings": [forty]})
    with pytest.raises(ValueError, match="1 to 3 qubits, got 40"):
        settings.decomposition_from_json_dict({"settings": [three, forty]})
    with pytest.raises(ValueError, match="bad outcome bitstring '000'"):
        settings.decomposition_from_json_dict(
            {"settings": [three, dict(three, directions=[[0, 0, 1]] * 2)]})
    four = {"directions": [[0, 0, 1]] * 4, "weights": {"0" * 4: 1.0}}
    with pytest.raises(ValueError, match="1 to 3 qubits, got 4"):
        settings.decomposition_from_json_dict({"settings": [four]})
    assert settings.decomposition_from_json_dict(
        {"settings": [three, three]}).n_settings == 2


def test_decomposition_refuses_no_settings_and_mixed_party_counts():
    # both were accepted and failed only when the operator was summed
    two = settings.setting([[0, 0, 1]] * 2, np.ones((2, 2)))
    three = settings.setting([[0, 0, 1]] * 3, np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="at least one setting"):
        settings.LocalDecomposition("x", ())
    with pytest.raises(ValueError, match="at least one setting"):
        settings.decomposition_from_json_dict({"settings": []})
    with pytest.raises(ValueError, match="different numbers of parties"):
        settings.LocalDecomposition("x", [three, two])
    with pytest.raises(ValueError, match="different numbers of parties"):
        settings.decomposition_from_json_dict(
            {"settings": [settings.decomposition_to_json_dict(
                settings.LocalDecomposition("x", [s]))["settings"][0] for s in (three, two)]})
    assert settings.LocalDecomposition("x", [three, three]).n_settings == 2


def test_group_count_never_below_certified_bound():
    from witkit import certify
    for name, wit in (("anton", witnesses.witness_w0()),
                      ("ghz", witnesses.witness_ghz()),
                      ("w1", witnesses.witness_w1())):
        c = pauli.to_pauli(wit.operator)
        dec = settings.group_pauli_terms(c, axis_candidates(wit.n_qubits))
        cert = certify.lower_bound(wit, restarts=100, seed=1)
        assert dec.n_settings >= cert.bound


# --- the per-mask loop form of one restart's draws and weight solve ----------

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


def _als_restart_loop(target, n, k, rng, start=None):
    masks, slices = _mask_slices(n)
    blocks = {m: np.asarray(target[slices[m]], dtype=float).ravel() for m in masks}

    # the restart's own draw: this form is the weight solve's reference
    drawn = rng.standard_normal((k, n, 3))
    dirs = drawn / np.linalg.norm(drawn, axis=-1, keepdims=True)
    if start is not None:
        np.copyto(dirs[:len(start)], start, where=~np.isnan(start))
    g, total = {}, 0.0
    for mask in masks:
        # minimum-norm least squares: drop the Gram's null directions
        design = np.stack([np.atleast_1d(_outer_all(
            [dirs[s_i, p] for p, b in enumerate(mask) if b])).ravel()
            for s_i in range(k)], axis=1)
        vals, vecs = np.linalg.eigh(design.T @ design)
        keep = vals > settings.WEIGHT_RCOND * vals[-1]
        g[mask] = vecs[:, keep] @ ((vecs[:, keep].T @ (design.T @ blocks[mask]))
                                   / vals[keep])
        total += float(np.sum(np.square(blocks[mask] - design @ g[mask])))
    return math.sqrt(2.0 ** n * total), dirs, g


def _loop_restart_as_cores(target, n, k, rng, tol, start=None):
    # the loop's draws and weight solve, then the package's own finish
    res, dirs, g = _als_restart_loop(target, n, k, rng, start)
    core = np.stack([g[m] for m in np.ndindex((2,) * n)], axis=1).reshape((k,) + (2,) * n)
    if res < tol:
        return res, dirs, core
    return settings._gn_finish(target, n, dirs, core, tol)


def _search_targets():
    rng = np.random.default_rng(3)
    out = {name: pauli.to_pauli(witnesses.catalog(name).operator)
           for name in ("w0", "ghz", "w2", "w1")}
    for m in (1, 2, 3, 4):
        op = sum(settings.setting_operator(random_setting(rng)) for _ in range(m))
        out[f"random{m}"] = pauli.to_pauli(op)
    return out


def test_tensor_restart_matches_loop_reference():
    # Both forms solve the weights by minimum norm, so starts whose mask
    # Grams are singular (k > 3 settings against three direction
    # components) are compared like the rest.
    tol = 1e-9
    compared = 0
    for name, c in _search_targets().items():
        n = c.n_qubits
        t_norm = math.sqrt(2.0 ** n) * float(np.linalg.norm(c.coeffs))
        for k in range(1, 6):
            for seed in range(2):
                ref = _loop_restart_as_cores(c.coeffs, n, k, stream(seed, 0), math.inf)
                res, dirs, core = settings._als_restart(
                    c.coeffs, n, k, stream(seed, 0), math.inf)
                assert abs(res - ref[0]) <= tol * t_norm, (name, k, seed)
                assert np.linalg.norm(dirs - ref[1]) <= tol * np.linalg.norm(ref[1])
                assert np.linalg.norm(core - ref[2]) <= tol * np.linalg.norm(ref[2])
                compared += 1
    assert compared == 80


def test_seeded_restart_matches_loop_reference():
    # both forms put the algebraic start in place of their first draws;
    # past k = d the extra settings fit rounding, so only residuals compare
    compared = 0
    for name, c in _search_targets().items():
        for k in range(1, 6):
            start = settings._algebraic_start(c, k)
            if start is None:
                continue
            ref = _loop_restart_as_cores(c.coeffs, 3, k, stream(0, 0), math.inf, start)
            res, dirs, core = settings._als_restart(c.coeffs, 3, k, stream(0, 0),
                                                    math.inf, start)
            assert res < 1e-8 and ref[0] < 1e-8, (name, k)
            if k == len(start):
                assert np.linalg.norm(dirs - ref[1]) <= 1e-9 * np.linalg.norm(ref[1])
                assert np.linalg.norm(core - ref[2]) <= 1e-9 * np.linalg.norm(ref[2])
            compared += 1
    assert compared == 19  # random m at k = m..5 for m = 1..4; ghz, w2 at k = 4, 5; w1 at 5


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


# --- the Gauss-Newton finish against its lift/core einsum forms ----------------

def _einsum_forms(n):
    """Einsum expressions of the n-party model, direction and core Jacobians."""
    pauli_idx, bit_idx = "abcdefgh"[:n], "ijklmnop"[:n]
    lift_idx = [a + b for a, b in zip(pauli_idx, bit_idx)]
    all_lifts = ",".join("s" + x for x in lift_idx)
    dir_exprs = [f"s{bit_idx},"
                 + ",".join(("z" if q == p else "s") + x for q, x in enumerate(lift_idx))
                 + f"->sz{pauli_idx}" for p in range(n)]
    return (f"s{bit_idx},{all_lifts}->s{pauli_idx}", dir_exprs,
            f"{all_lifts}->s{bit_idx}{pauli_idx}")


def _einsum_lifts(dirs):
    k, n = dirs.shape[:2]
    lift = np.zeros((k, n, 4, 2))
    lift[:, :, 0, 0] = 1.0
    lift[:, :, 1:, 1] = dirs
    return list(lift.transpose(1, 0, 2, 3))


def _einsum_models(dirs, core):
    lifts = _einsum_lifts(dirs)
    return np.einsum(_einsum_forms(len(lifts))[0], core, *lifts)


def _einsum_jacobian(dirs, core):
    # the derivative in component z of party p's direction swaps that
    # party's lift for unit_lifts[z], which has a one at (1 + z, 1)
    lifts = _einsum_lifts(dirs)
    _, dir_exprs, core_expr = _einsum_forms(len(lifts))
    unit_lifts = np.zeros((3, 4, 2))
    unit_lifts[[0, 1, 2], [1, 2, 3], 1] = 1.0
    jac_dir = np.stack([np.einsum(expr, core, *lifts[:p], unit_lifts, *lifts[p + 1:])
                        for p, expr in enumerate(dir_exprs)], axis=1)
    jac_core = np.einsum(core_expr, *lifts)
    return np.concatenate([jac_dir.reshape(dirs.size, -1), jac_core.reshape(core.size, -1)])


def _einsum_gn_finish(target, n, dirs, core, tol, exits=None):
    # the restart's weight-solve check, then the finish, as they were
    # written with the einsum forms; ``exits``, when given, collects the
    # rule each call stops by
    target = np.asarray(target, dtype=float)
    n_dir = dirs.size

    def evaluate(d, g):
        models = _einsum_models(d, g).reshape(len(d), -1)
        r = target.ravel() - models.sum(axis=0)
        return models, r, float(r @ r)

    d, g = dirs, core
    _, r, cost = evaluate(d, g)
    res = math.sqrt(2.0 ** n * cost)
    if res < tol:
        if exits is not None:
            exits.append("weight solve")
        return res, dirs, core
    tol_cost = tol * tol / 2.0 ** n
    max_spread = settings.GN_SPREAD * np.linalg.norm(target)
    damping = settings.LM_DAMPING
    accepted = [cost]
    fresh = True
    stop = "step cap"
    for _ in range(settings.GN_MAX_STEPS):
        if cost < tol_cost:
            stop = "tolerance"
            break
        if fresh:
            jac = _einsum_jacobian(d, g)
            hess = jac @ jac.T
            grad = jac @ r
            diag = np.diag(hess).copy()
            np.maximum(diag, settings.LM_FLOOR * diag.max(), out=diag)
        step = np.linalg.solve(hess + np.diag(damping * diag), grad)
        trial_d = d + step[:n_dir].reshape(d.shape)
        trial_g = g + step[n_dir:].reshape(g.shape)
        models, trial_r, trial_cost = evaluate(trial_d, trial_g)
        fresh = trial_cost < cost
        if not fresh:
            damping *= settings.LM_GROW
            if damping > settings.LM_RUNAWAY:
                stop = "runaway"
                break
            continue
        d, g, r, cost = trial_d, trial_g, trial_r, trial_cost
        damping = max(damping / settings.LM_SHRINK, settings.LM_FLOOR)
        accepted.append(cost)
        if (len(accepted) > settings.GN_STALL_STEPS
                and accepted[-1 - settings.GN_STALL_STEPS]
                < settings.GN_STALL_FACTOR ** 2 * cost):
            stop = "stall"
            break
        if np.linalg.norm(models, axis=1).sum() > max_spread:
            stop = "spread"
            break
    if exits is not None:
        exits.append(stop)
    norms = np.linalg.norm(d, axis=-1)
    masks = np.array(list(np.ndindex((2,) * n)), dtype=bool)
    fold = np.where(masks[None], norms[:, None, :], 1.0).prod(axis=-1)
    d = d / norms[..., None]
    g = g * fold.reshape(g.shape)
    _, r, cost = evaluate(d, g)
    return math.sqrt(2.0 ** n * cost), d, g


def _finish_point(rng, n, k):
    # unnormalized directions and cores with negative and zero entries
    dirs = 3.0 * rng.standard_normal((k, n, 3))
    core = rng.standard_normal((k,) + (2,) * n)
    dirs[rng.random(dirs.shape) < 0.2] = 0.0
    core[rng.random(core.shape) < 0.2] = 0.0
    return dirs, core


def _finish_kernel(dirs, core, tables):
    # the finish's models and Jacobian at one point, read from its flat
    # vector through its index table, the Jacobian scattered into a zeroed
    # buffer whose last, scratch row is dropped
    x = np.concatenate([dirs.ravel(), core.ravel(), [1.0]])
    index, at = settings._factor_index(tables, len(dirs))
    factors, products = settings._products(x, index)
    models = products[-1] + 0.0
    jac = np.zeros((x.size, index.shape[-1]))
    settings._setting_jacobian(factors, products, at, jac)
    return models, jac[:-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_finish_kernel_matches_the_einsum_forms(n):
    rng = np.random.default_rng(70 + n)
    tables = settings._lift_tables(n)
    for k in range(1, 6):
        dirs, core = _finish_point(rng, n, k)
        models, jac = _finish_kernel(dirs, core, tables)
        ref = _einsum_jacobian(dirs, core)
        # equal to the bit, the sign of zero included
        for got, want in [(models, _einsum_models(dirs, core).reshape(k, -1)),
                          (jac[:dirs.size], ref[:dirs.size]),
                          (jac[dirs.size:], ref[dirs.size:])]:
            assert np.array_equal(got, want), (n, k)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, k)


@pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 5), (4, 2)])
def test_finish_jacobian_matches_central_differences(n, k):
    # the model is linear in each single parameter, so a central difference
    # is exact up to rounding
    rng = np.random.default_rng(80 + n)
    tables = settings._lift_tables(n)
    dirs, core = _finish_point(rng, n, k)
    params = np.concatenate([dirs.ravel(), core.ravel()])

    def summed(x):
        d, g = x[:dirs.size].reshape(dirs.shape), x[dirs.size:].reshape(core.shape)
        return _finish_kernel(d, g, tables)[0].sum(axis=0)

    h = 1e-3
    numeric = np.array([(summed(params + h * e) - summed(params - h * e)) / (2.0 * h)
                        for e in np.eye(params.size)])
    jac = _finish_kernel(dirs, core, tables)[1]
    assert np.abs(jac - numeric).max() <= 1e-8 * max(1.0, np.abs(jac).max())


# the design workload's certified-infeasible budgets, each at seeds 0-3,
# beside the feasible w0 k = 3 jobs that run the finish too
INFEASIBLE_DESIGN_JOBS = [(name, k, restarts, seed)
                          for name, k, restarts in (("w0", 2, 8), ("ghz", 3, 4), ("w2", 3, 4),
                                                    ("w1", 4, 2))
                          for seed in range(4)]


def _byte_target(name):
    # a catalog witness, or "random<m>": a sum of m generic settings; at m =
    # 5 it gets no algebraic start, so its finishes run long, and at k = 5
    # and seed 0 it is found in its third restart, after two failing
    # finishes (~190 evaluations)
    if name.startswith("random"):
        rng = np.random.default_rng(40)
        return pauli.to_pauli(sum(settings.setting_operator(random_setting(rng))
                                  for _ in range(int(name[6:]))))
    return pauli.to_pauli(witnesses.catalog(name).operator)


# jobs whose restart 0 stops at its weight solve: the algebraic start fits
# ghz and w2 at four settings, w1 at five and a three-setting sum at three
WEIGHT_SOLVE_JOBS = [("ghz", 4, 1, 0), ("w2", 4, 1, 0), ("w1", 5, 2, 0), ("random3", 3, 1, 0)]


@pytest.mark.parametrize("name,k,restarts,seed", [
    ("w0", 3, 8, 0), ("w0", 3, 8, 5), ("w1", 4, 2, 8), ("ghz", 3, 4, 3), ("w0", 2, 8, 1),
] + [job for job in INFEASIBLE_DESIGN_JOBS if job not in {("ghz", 3, 4, 3), ("w0", 2, 8, 1)}]
  + [("random5", 5, 4, 0)] + WEIGHT_SOLVE_JOBS)
def test_search_keeps_the_bytes_of_the_einsum_finish(name, k, restarts, seed, monkeypatch):
    c = _byte_target(name)
    results = [settings.decomposition_search(c, k, restarts=restarts, seed=seed)]
    exits = []
    monkeypatch.setattr(settings, "_gn_finish",
                        lambda *args: _einsum_gn_finish(*args, exits=exits))
    results.append(settings.decomposition_search(c, k, restarts=restarts, seed=seed))
    # a weight-solve job stops there in its one restart, every other job
    # runs the finish's steps
    if (name, k, restarts, seed) in WEIGHT_SOLVE_JOBS:
        assert exits == ["weight solve"]
    else:
        assert "weight solve" not in exits
    kernel, einsum = ([r.success, r.restarts_used, repr(r.residual),
                       [(d.vector.tobytes(), s.weights.tobytes())
                        for s in (r.decomposition.settings if r.decomposition else [])
                        for d in s.directions]] for r in results)
    assert kernel == einsum


def _exit_case(rule):
    # a finish's start (target, n, dirs, core, tol) that stops by ``rule``
    c = pauli.to_pauli(witnesses.catalog({"tolerance": "w0", "spread": "w1"}.get(rule, "ghz"))
                       .operator)
    n, tol = c.n_qubits, settings.SEARCH_TOL
    if rule == "weight solve":  # restart 0's algebraic start fits ghz at four settings
        _, dirs, core = settings._als_restart(c.coeffs, n, 4, stream(0, 0), math.inf,
                                              settings._algebraic_start(c, 4))
        return c.coeffs, n, dirs, core, tol
    if rule == "tolerance":  # an exact solution, perturbed by 1e-4
        _, dirs, core = settings._als_restart(c.coeffs, n, 3, stream(0, 0), 1e-12)
        rng = np.random.default_rng(0)
        dirs = dirs + 1e-4 * rng.standard_normal(dirs.shape)
        core = core + 1e-4 * rng.standard_normal(core.shape)
        return c.coeffs, n, dirs, core, 1e-12
    if rule == "runaway":
        # a vanishing gradient: one setting along x on both parties with zero
        # weights, whose tangent misses the target's zz term, so every step is
        # zero and is rejected until the damping runs away
        target = np.zeros((4, 4))
        target[3, 3] = 1.0
        dirs = np.zeros((1, 2, 3))
        dirs[0, :, 0] = 1.0
        return target, 2, dirs, np.zeros((1, 2, 2)), tol
    k, seed = {"stall": (3, 0), "spread": (4, 8), "step cap": (3, 1)}[rule]
    _, dirs, core = settings._als_restart(c.coeffs, n, k, stream(seed, 0), math.inf)
    return c.coeffs, n, dirs, core, tol


@pytest.mark.parametrize("rule", ["weight solve", "tolerance", "stall", "spread", "runaway",
                                  "step cap"])
def test_finish_keeps_the_bytes_of_the_einsum_finish_at_each_exit(rule, monkeypatch):
    # ghz k = 4 from its algebraic start fits in the weight solve, ghz k = 3
    # stalls, w1 k = 4 reaches the spread cap, a perturbed w0 solution meets
    # the tolerance, a vanishing gradient runs the damping away and ghz
    # k = 3 with GN_MAX_STEPS = 3 hits the step cap
    target, n, dirs, core, tol = _exit_case(rule)
    if rule == "step cap":
        monkeypatch.setattr(settings, "GN_MAX_STEPS", 3)
    exits = []
    want = _einsum_gn_finish(target, n, dirs.copy(), core.copy(), tol, exits)
    got = settings._gn_finish(target, n, dirs.copy(), core.copy(), tol)
    assert exits == [rule]
    assert repr(got[0]) == repr(want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), rule


def test_search_start_reads_certify_through_one_entry_point(monkeypatch):
    # the rule for reading the first pencil draw lives in certify alone
    tree = ast.parse(Path(settings.__file__).read_text(encoding="utf-8"))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "certify"}
    assert used == {"_slices", "first_draw_elements"}
    # and the start makes one draw, not the certificate's whole search
    calls = []
    search = certify.rank_one_elements_in_span

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(certify, "rank_one_elements_in_span", counted)
    ghz = witnesses.witness_ghz()
    assert settings.decomposition_search(pauli.to_pauli(ghz.operator), 4, restarts=1).success
    assert not calls
    assert certify.lower_bound(ghz).bound == 4 and len(calls) == 3


def test_algebraic_start_tests_every_element_before_polishing(monkeypatch):
    calls = []
    descent = certify._batched_descent

    def counted(*args):
        calls.append(args)
        return descent(*args)

    monkeypatch.setattr(certify, "_batched_descent", counted)
    # w1's second AB|C element fails the minor test, so only the first,
    # which passes, is polished: the lone element of the tangent start
    w1 = pauli.to_pauli(witnesses.witness_w1().operator)
    assert settings._algebraic_start(w1, 5).shape == (5, 3, 3)
    assert len(calls) == 1 and calls[0][1].shape == (1, 4)
    calls.clear()

    # ghz and w2 keep the start of the path that polished before testing
    def starts():
        out = []
        for name in ("ghz", "w2"):
            c = pauli.to_pauli(witnesses.catalog(name).operator)
            out += [settings._algebraic_start(c, k).tobytes() for k in (4, 5)]
        return out

    own = starts()
    seen = {}
    unit_minors = certify._unit_minors

    def recorded(basis, ts):
        seen.update(basis=basis, ts=ts)
        return unit_minors(basis, ts)

    def polish_then_test(q, ts, minors, kappa):
        # the former certify._rank_one_vectors on the same eigenvectors
        ts = seen["ts"] / np.linalg.norm(seen["ts"], axis=1, keepdims=True)
        minors = np.abs(certify._minor_vectors(np.tensordot(ts, seen["basis"], axes=1)))
        passed = minors.max(axis=1) <= certify.RANK_ONE_MINOR_TOL * kappa
        ts, rough = ts[passed], minors[passed].max(axis=1) > certify.POLISHED_MINOR_TOL * kappa
        if rough.any():
            ts[rough] = descent(q, ts[rough], (certify.POLISHED_MINOR_TOL * kappa) ** 2)
        return ts

    monkeypatch.setattr(certify, "_unit_minors", recorded)
    monkeypatch.setattr(certify, "_polished", polish_then_test)
    assert starts() == own


# --- the result's settings and the restart's models against their loop forms -

def _weights_loop(n_parties, mask_terms):
    # weights_from_masks as a loop over bitstrings and masks
    w = np.zeros((2,) * n_parties)
    for bits in np.ndindex(w.shape):
        total = 0.0
        for mask, coeff in mask_terms.items():
            parity = sum(b & m for b, m in zip(bits, mask))
            total += coeff * (-1.0 if parity % 2 else 1.0)
        w[bits] = total
    return w


def _canonical_loop(vec):
    # _canonical through np.linalg.norm and array arithmetic
    v = np.asarray(vec, dtype=float).ravel()
    unit = v / float(np.linalg.norm(v))
    flip = next((c < 0.0 for c in unit if abs(c) > 1e-12), False)
    return (-unit if flip else unit) + 0.0, flip


def _direction_loop(components):
    # a Direction's components and basis, normalized through np.linalg.norm
    v = np.asarray(components, dtype=float).ravel()
    nx, ny, nz = (v / float(np.linalg.norm(v))).tolist()
    st = math.hypot(nx, ny)
    theta = math.atan2(st, nz)
    phase = complex(nx, ny) / st if st > 0.0 else 1.0
    cos_half, sin_half = math.cos(theta / 2.0), math.sin(theta / 2.0)
    basis = np.array([[cos_half, sin_half], [phase * sin_half, -phase * cos_half]],
                     dtype=complex)
    return np.array([float(c) for c in v]).tobytes(), basis.tobytes()


def _setting_loop(vecs, weights):
    # setting(): canonicalize each raw vector, relabel a flipped party's
    # outcomes, then build the Direction of the canonical vector
    w = np.asarray(weights, dtype=float).reshape((2,) * len(vecs)).copy()
    dirs = []
    for p, vec in enumerate(vecs):
        canon, flip = _canonical_loop(vec)
        if flip:
            w = np.flip(w, axis=p)
        dirs.append(_direction_loop(tuple(canon)))
    return dirs, w.tobytes()


def _assemble_loop(n, dirs, core):
    # _assemble as a dict of kept masks per setting through the loop weights
    gmax = float(np.abs(core).max())
    out = []
    for s_i in range(core.shape[0]):
        mask_terms = {m: float(core[s_i][m]) for m in np.ndindex(core.shape[1:])
                      if abs(core[s_i][m]) > 1e-13 * max(1.0, gmax)}
        if mask_terms:
            out.append(_setting_loop(list(dirs[s_i]), _weights_loop(n, mask_terms)))
    return out


def _setting_bytes(s):
    return ([(np.array(d.components).tobytes(), d.basis.tobytes()) for d in s.directions],
            s.weights.tobytes())


def _raw_vectors(rng):
    # negative first components, signed axes, vectors 1e-13 off an axis
    # (so the sign test skips their tiny leading component), random ones
    vecs = [sign * settings.AXES[a] for a in "xyz" for sign in (1.0, -1.0)]
    for a in range(3):
        for b in range(3):
            if a != b:
                v = np.zeros(3)
                v[a], v[b] = rng.choice([-1.0, 1.0]) * 1e-13, rng.choice([-1.0, 1.0])
                vecs.append(v)
    vecs += [np.array([-0.0, 0.0, -1.0]), np.array([-3.0, 1e-13, 4.0])]
    vecs += list(rng.standard_normal((40, 3)) * rng.choice([1e-6, 1.0, 1e6], size=(40, 1)))
    return vecs


def test_setting_and_direction_keep_the_bytes_of_their_loop_forms():
    rng = np.random.default_rng(2025)
    vecs = _raw_vectors(rng)
    for vec in vecs:
        canon, flip = settings._canonical(vec)
        ref_canon, ref_flip = _canonical_loop(vec)
        assert flip == ref_flip and np.array(canon).tobytes() == ref_canon.tobytes()
        d = settings.direction(vec)
        assert (np.array(d.components).tobytes(), d.basis.tobytes()) == _direction_loop(canon)
        again = settings.Direction(d.components)
        assert (np.array(again.components).tobytes(),
                again.basis.tobytes()) == _direction_loop(d.components)
    for n in (1, 2, 3):
        for _ in range(30):
            picked = [vecs[i] for i in rng.integers(len(vecs), size=n)]
            weights = rng.standard_normal((2,) * n)
            weights[rng.random(weights.shape) < 0.2] = 0.0
            assert _setting_bytes(settings.setting(picked, weights)) == \
                _setting_loop(picked, weights)
    # four parties are refused
    picked = [vecs[i] for i in rng.integers(len(vecs), size=4)]
    with pytest.raises(ValueError, match="1 to 3 qubits, got 4"):
        settings.setting(picked, rng.standard_normal((2,) * 4))


def test_weights_from_masks_keep_the_bytes_of_the_loop():
    rng = np.random.default_rng(7)
    cases = [(3, {(0, 0, 0): 17.0 / 24.0, (1, 1, 1): 7.0 / 24.0, (1, 0, 0): 3.0 / 24.0,
                  (0, 1, 0): 3.0 / 24.0, (0, 0, 1): 3.0 / 24.0, (1, 1, 0): 5.0 / 24.0,
                  (1, 0, 1): 5.0 / 24.0, (0, 1, 1): 5.0 / 24.0}),
             (3, {(1, 1, 1): math.sqrt(2.0) / 8.0}), (2, {}), (2, {(1, 0): 2, (0, 1): -1})]
    for n in (1, 2, 3, 4):
        masks = list(itertools.product((0, 1), repeat=n))
        for _ in range(40):
            picked = [masks[i] for i in rng.permutation(len(masks))[:rng.integers(1, len(masks) + 1)]]
            coeffs = rng.standard_normal(len(picked)) * 10.0 ** rng.integers(-14, 3, len(picked))
            coeffs[rng.random(len(picked)) < 0.2] = 0.0
            cases.append((n, dict(zip(picked, coeffs.tolist()))))
    for n, terms in cases:
        got, want = settings.weights_from_masks(n, terms), _weights_loop(n, terms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, terms)


def test_weights_from_masks_rejects_a_mask_of_the_wrong_form():
    # zip used to truncate a short or long mask, a 2 acted as a 0, and a
    # mask that is no tuple leaked len()'s TypeError
    for bad in ((1, 1), (1, 0, 0, 1), (2, 0, 0), (0, -1, 0), (0.5, 1, 1), 5):
        with pytest.raises(ValueError, match="0 or 1"):
            settings.weights_from_masks(3, {(0, 0, 0): 1.0, bad: 1.0})
    assert settings.weights_from_masks(3, {(True, False, 1): 1.0}).tobytes() == \
        _weights_loop(3, {(1, 0, 1): 1.0}).tobytes()


def test_assemble_keeps_the_bytes_of_its_loop_form():
    rng = np.random.default_rng(11)
    for n in range(1, pauli.MAX_QUBITS + 1):  # the qubit counts with a search plan
        for k in range(1, 7):
            for _ in range(4):
                dirs = rng.standard_normal((k, n, 3))
                dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
                dirs[rng.random((k, n)) < 0.2] *= -1.0
                core = rng.standard_normal((k,) + (2,) * n)
                # entries exactly zero, at rounding level (dropped) and just
                # above it (kept), and one setting with nothing kept
                flat = core.reshape(k, -1)
                flat[rng.random(flat.shape) < 0.2] = 0.0
                flat[rng.random(flat.shape) < 0.2] *= 1e-14
                flat[rng.random(flat.shape) < 0.1] *= 1e-12
                if k > 1:
                    flat[-1] *= 1e-15
                setts = settings._assemble(n, dirs, core)
                assert [_setting_bytes(s) for s in setts] == \
                    _assemble_loop(n, dirs, core), (n, k)


def decomposition_to_json_dict_by_elements(dec):
    # the element-by-element loop the wire-format writer replaced, kept as
    # its reference
    out_settings = []
    for s in dec.settings:
        weights = {}
        for bits in np.ndindex(s.weights.shape):
            w = float(s.weights[bits])
            if w != 0.0:
                weights["".join(str(b) for b in bits)] = w
        out_settings.append({
            "directions": [list(d.components) for d in s.directions],
            "weights": weights,
        })
    return {"target": dec.target_label, "settings": out_settings}


def test_wire_format_matches_the_element_loop():
    decs = [settings.catalog_decomposition(name, alpha, beta) for name, alpha, beta in (
        ("anton", None, None), ("anton", 0.6, 0.8), ("sanpera5", None, None),
        ("sanpera5", 0.6, 0.8), ("ghz", None, None), ("w1", None, None), ("w2", None, None))]
    decs += [settings.group_pauli_terms(witnesses.witness_w1(), [[settings.AXES[a] for a in "xyz"]] * 3)]
    rng = np.random.default_rng(1114)
    for n in (1, 2, 3):
        for _ in range(30):
            setts = []
            for _ in range(int(rng.integers(1, 5))):
                w = rng.standard_normal((2,) * n)
                w[rng.random(w.shape) < 0.3] = 0.0
                w[rng.random(w.shape) < 0.3] = -0.0
                setts.append(settings.setting(rng.standard_normal((n, 3)), w))
            decs.append(settings.LocalDecomposition("random", tuple(setts)))
    assert any(math.copysign(1.0, w) < 0 for dec in decs for s in dec.settings
               for w in s.weights.ravel() if w == 0.0)
    for dec in decs:
        got = settings.decomposition_to_json_dict(dec)
        # json text: the key order and every float's sign and bits
        assert json.dumps(got) == json.dumps(decomposition_to_json_dict_by_elements(dec))

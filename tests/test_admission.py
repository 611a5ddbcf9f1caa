"""Admission harness: every public consumer reads each argument role one way.

Eight roles take an argument that the package admits before it reads it:
a target operator (``witnesses.as_operator`` and
``witnesses.as_coefficients``), a state (``states.as_state``), a
decomposition (a ``LocalDecomposition``), a catalog name, the
coefficients of the functions typed on them
(``pauli.require_coefficients``), the ``Witness`` whose verdict rules
``classify`` reads, and the ``Direction`` and ``MeasurementSetting``
values that a setting and a decomposition are built of.  Each
consumer of a role runs on the same hostile forms, and each form must be
refused with ``ValueError`` (``KeyError`` for a name): never an
``AttributeError``, numpy's ``TypeError`` or an answer.  The three forms
of one target operator, a ``Witness``, its raw matrix and its
``PauliCoefficients``, must give the same results.
"""

import numpy as np
import pytest

import witkit as wk

GHZ = wk.witness_ghz()
GHZ_PSI = wk.ghz_state()
GHZ_RHO = GHZ_PSI.density_matrix()
GHZ_DEC = wk.catalog_decomposition("ghz")
Z_SETTING = wk.setting([[0.0, 0.0, 1.0]] * 3, np.ones((2, 2, 2)))


def _non_hermitian():
    return np.triu(np.ones((8, 8)))


# each hostile form builds afresh, so no consumer sees another's array
HOSTILE = {
    "None": lambda: None,
    "int": lambda: 7,
    "bytes": lambda: b"ghz",
    "str": lambda: "ghz-state",
    "non-hermitian": _non_hermitian,
    "nan": lambda: np.full((8, 8), np.nan),
    "6x6": lambda: np.eye(6) / 6,
    "256x256": lambda: np.eye(256) / 256,
}

# per role: its consumers, each a call of the one argument in that role,
# and a value of another role that it must refuse too
ROLES = {
    "operator": ({
        "as_operator": wk.as_operator,
        "as_coefficients": wk.as_coefficients,
        "to_pauli": wk.to_pauli,
        "lower_bound": wk.lower_bound,
        "decomposition_search": lambda x: wk.decomposition_search(x, 4, restarts=1),
        "group_pauli_terms": lambda x: wk.group_pauli_terms(x, [list(wk.AXES.values())] * 3),
        "verify_decomposition": lambda x: wk.verify_decomposition(GHZ_DEC, x),
        "expectation": lambda x: wk.expectation(x, GHZ_RHO),
        "noise_threshold": lambda x: wk.noise_threshold(x, GHZ_PSI),
    }, {"state": lambda: GHZ_PSI, "density matrix": lambda: GHZ_RHO,
        "decomposition": lambda: GHZ_DEC}),
    "state": ({
        "as_state": wk.as_state,
        "expectation": lambda x: wk.expectation(GHZ, x),
        "ppt_check": wk.ppt_check,
        "outcome_probabilities": lambda x: wk.outcome_probabilities(x, Z_SETTING),
        "estimate_witness": lambda x: wk.estimate_witness(x, GHZ_DEC, 10, 0),
        "white_noise_mix": lambda x: wk.white_noise_mix(x, 0.5),
        "noise_threshold": lambda x: wk.noise_threshold(GHZ, x),
    }, {"witness": lambda: GHZ, "coefficients": lambda: wk.to_pauli(GHZ.operator),
        "decomposition": lambda: GHZ_DEC}),
    "decomposition": ({
        "verify_decomposition": lambda x: wk.verify_decomposition(x, GHZ),
        "estimate_witness": lambda x: wk.estimate_witness(GHZ_RHO, x, 10, 0),
        "decomposition_to_json_dict": wk.decomposition_to_json_dict,
    }, {"witness": lambda: GHZ, "setting": lambda: Z_SETTING,
        "search result": lambda: wk.decomposition_search(GHZ, 4, restarts=1)}),
    "coefficients": ({
        "slice_span_dimension": lambda x: wk.slice_span_dimension(x, "AB|C"),
        "slice_family": lambda x: wk.slice_family(x, "AB|C"),
        "to_sparse_map": wk.to_sparse_map,
        "from_pauli": wk.from_pauli,
    }, {"witness": lambda: GHZ, "matrix": lambda: np.array(GHZ.operator),
        "decomposition": lambda: GHZ_DEC}),
    "witness": ({
        "classify": lambda x: wk.classify(x, -1.0),
    }, {"coefficients": lambda: wk.to_pauli(GHZ.operator), "matrix": lambda: np.eye(8),
        "state": lambda: GHZ_PSI}),
    "direction": ({
        "MeasurementSetting": lambda x: wk.MeasurementSetting((x,), np.ones(2)),
        "MeasurementSetting directions": lambda x: wk.MeasurementSetting(x, np.ones(2)),
    }, {"vector": lambda: [0.0, 0.0, 1.0], "array": lambda: np.array([0.0, 0.0, 1.0]),
        "setting": lambda: Z_SETTING}),
    "setting": ({
        "LocalDecomposition": lambda x: wk.LocalDecomposition("x", (x,)),
        "LocalDecomposition settings": lambda x: wk.LocalDecomposition("x", x),
    }, {"list": lambda: [1], "direction": lambda: Z_SETTING.directions[0],
        "decomposition": lambda: GHZ_DEC}),
    "name": ({
        "catalog": wk.witnesses.catalog,
        "catalog_decomposition": wk.catalog_decomposition,
    }, {"witness": lambda: GHZ, "list": lambda: [], "dict": lambda: {}}),
}

CASES = [pytest.param(role, consumer, form, build, id=f"{role}-{consumer}-{form}")
         for role, (consumers, wrong) in ROLES.items()
         for consumer in consumers
         for form, build in {**HOSTILE, **wrong}.items()]


@pytest.mark.parametrize("role,consumer,form,build", CASES)
def test_every_consumer_refuses_every_hostile_form(role, consumer, form, build):
    call = ROLES[role][0][consumer]
    with pytest.raises(KeyError if role == "name" else ValueError):
        call(build())


def test_a_package_value_is_no_matrix():
    # numpy's "must be real number, not Witness" used to leak as TypeError
    for value in (GHZ, wk.to_pauli(GHZ.operator), GHZ_PSI, GHZ_DEC, object()):
        with pytest.raises(ValueError, match=f"numeric matrix, got {type(value).__name__}"):
            wk.linalg.as_matrix(value)


def _unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _targets():
    """(label, Witness, settings or None) of the catalog witnesses and of 20
    random sums of one to three settings, each held as a Witness."""
    out = [(name, wk.witnesses.catalog(name), None) for name in ("ghz", "w1", "w2", "w0")]
    for i in range(20):
        rng = np.random.default_rng([37, i])
        setts = [wk.setting([_unit(rng) for _ in range(3)], rng.standard_normal((2, 2, 2)))
                 for _ in range(1 + i % 3)]
        op = sum(wk.setting_operator(s) for s in setts)
        out.append((f"sum-{i}", wk.Witness(f"sum-{i}", op, 3, ()), setts))
    return out


TARGETS = _targets()


def _forms(w):
    """The three forms of one target operator: Witness, raw matrix, coefficients."""
    return w, np.array(w.operator), wk.to_pauli(w.operator)


def _search_bytes(result):
    return (result.success, result.decomposition, np.float64(result.residual).tobytes(),
            result.restarts_used)


@pytest.mark.parametrize("label,w,setts", TARGETS, ids=[t[0] for t in TARGETS])
def test_the_three_forms_of_a_target_give_the_same_bytes(label, w, setts):
    k = {"ghz": 4, "w1": 5, "w2": 4, "w0": 3}.get(label) or len(setts)
    axes = [list(wk.AXES.values())] * w.n_qubits
    got = [(wk.lower_bound(form, seed=3),
            _search_bytes(wk.decomposition_search(form, k, restarts=2, seed=5)),
            wk.group_pauli_terms(form, axes))
           for form in _forms(w)]
    assert got[1] == got[0] and got[2] == got[0]


@pytest.mark.parametrize("label,w,setts", TARGETS, ids=[t[0] for t in TARGETS])
def test_the_matrix_consumers_agree_across_the_three_forms(label, w, setts):
    if setts is None:
        dec = wk.catalog_decomposition("anton" if label == "w0" else label)
        psi = GHZ_PSI if w.n_qubits == 3 else wk.bell_psi_minus()
    else:
        dec = wk.settings.LocalDecomposition(label, setts)
        psi = wk.random_product_state(3, int(label[4:]))
    rho = wk.white_noise_mix(psi, 0.8)
    residuals, values, thresholds = [], [], []
    for form in _forms(w):
        residuals.append(wk.verify_decomposition(dec, form))
        values.append(wk.expectation(form, rho))
        try:
            thresholds.append(wk.noise_threshold(form, psi))
        except ValueError as exc:
            assert "is never negative on this noise family" in str(exc)
            thresholds.append(None)
    for got in (residuals, values):
        assert max(got) - min(got) <= 1e-12, got
    if None in thresholds:
        assert thresholds == [None] * 3
    else:
        assert max(thresholds) - min(thresholds) <= 1e-12, thresholds

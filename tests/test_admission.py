"""Admission harness: every public consumer reads each argument role one way.

Ten roles take an argument that the package admits before it reads it:
a target operator (``witnesses.as_operator`` and
``witnesses.as_coefficients``), a state (``states.as_state``), a
decomposition (a ``LocalDecomposition``), a catalog name, the
coefficients of the functions typed on them
(``pauli.require_coefficients``), the ``Witness`` whose verdict rules
``classify`` reads, the ``Direction`` and ``MeasurementSetting``
values that a setting and a decomposition are built of, the sequences
that a setting, a cover and a mask expansion read, and the wire format
of a decomposition.  Each consumer of a role runs on the same hostile
forms, and each form must be refused with ``ValueError`` (``KeyError``
for a name): never an ``AttributeError``, numpy's ``TypeError`` or an
answer.  The three forms of one target operator, a ``Witness``, its raw
matrix and its ``PauliCoefficients``, must give the same results.

A real-number argument is a role of its own: every consumer reads it
through ``rng.real_number``, so each refuses the same non-real forms and
its own out-of-range value, and an admitted value of any real type gives
the bytes of its ``float``.  So is an array argument: every consumer reads
it through ``rng.real_array`` (``rng.complex_array`` where complex entries
are admitted), so each refuses an array of strings or bytes, a ``None``
entry, a dict, a ragged nesting and a NaN or infinite entry (a real one
also a complex entry), and an admitted array gives the same bytes whether
its entries are bools, ints, float32 or float64 values.  A ``Witness``'s
verdict rules and the sequence arguments of ``linalg`` and ``certify`` are
read one way too.
"""

import argparse
import json
import math
import os
import pickle
import tempfile

import numpy as np
import pytest

import witkit as wk
from witkit import cli

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
    "sequence": ({
        "setting direction_vectors": lambda x: wk.setting(x, np.ones(2)),
        "group_pauli_terms candidates": lambda x: wk.group_pauli_terms(GHZ, x),
        "group_pauli_terms a party's candidates": lambda x: wk.group_pauli_terms(GHZ, [x] * 3),
        "weights_from_masks": lambda x: wk.settings.weights_from_masks(3, x),
    }, {"list of ints": lambda: [1, 2, 3], "direction": lambda: Z_SETTING.directions[0],
        "setting": lambda: Z_SETTING}),
    "wire": ({
        "decomposition_from_json_dict": wk.decomposition_from_json_dict,
    }, {"settings null": lambda: {"settings": None},
        "settings object": lambda: {"settings": {}},
        "entry not an object": lambda: {"settings": [7]},
        "no weights": lambda: {"settings": [{"directions": [[0, 0, 1]] * 3}]},
        "no directions": lambda: {"settings": [{"weights": {"000": 1.0}}]},
        "directions null": lambda: {"settings": [{"directions": None, "weights": {"000": 1.0}}]},
        "weights list": lambda: {"settings": [{"directions": [[0, 0, 1]] * 3, "weights": [1]}]},
        "weight string": lambda: {"settings": [{"directions": [[0, 0, 1]] * 3,
                                                "weights": {"000": "1"}}]},
        "weight null": lambda: {"settings": [{"directions": [[0, 0, 1]] * 3,
                                              "weights": {"000": None}}]},
        "direction object": lambda: {"settings": [{"directions": [{}] * 3,
                                                   "weights": {"000": 1.0}}]}}),
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


def _verify_tol(tol):
    """``cli.cmd_verify`` on the ghz catalog decomposition at ``--tol`` ``tol``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ghz.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(wk.decomposition_to_json_dict(GHZ_DEC), fh)
        return cli.cmd_verify(argparse.Namespace(file=path, tol=tol), GHZ)


SQRT_3_4 = math.sqrt(0.75)  # b with 0.5^2 + b^2 = 1 within 1e-10


def _normal_form(i):
    return lambda x: wk.slocc_normal_form(*[x if j == i else 0.0 for j in range(5)])


# the real-number role, per consumer: the call of its one real argument, a
# real number outside that argument's range (None where every real number
# is in range) and admitted values exact in float32
NUMBERS = {
    "decomposition_search tol": (
        lambda x: wk.decomposition_search(GHZ, 4, restarts=1, tol=x), 0.0, (0.5, 1.0)),
    "cmd_verify --tol": (_verify_tol, 0.0, (0.5, 1.0)),
    "rank_one_elements_in_span target_norm": (
        lambda x: wk.rank_one_elements_in_span([np.eye(3)], target_norm=x), -1.0, (0.5, 1.0)),
    "structured_rank_one_check coefficient": (
        lambda x: wk.structured_rank_one_check("ghz", [x, 0.0, 0.0]), None, (0.5, 1.0)),
    "numerical_rank tol": (
        lambda x: wk.numerical_rank([np.eye(3), np.ones((3, 3))], tol=x), -1.0, (0.5, 1.0)),
    "schmidt_state a": (lambda x: wk.schmidt_state(x, SQRT_3_4), -0.5, (0.5,)),
    "schmidt_state b": (lambda x: wk.schmidt_state(0.0, x), -1.0, (1.0,)),
    **{f"slocc_normal_form l{i}": (_normal_form(i), -1.0, (1.0,)) for i in range(5)},
    "slocc_normal_form theta": (
        lambda x: wk.slocc_normal_form(1.0, 0.0, 0.0, 0.0, 0.0, theta=x), None, (0.5, 1.0)),
    "white_noise_mix p": (lambda x: wk.white_noise_mix(GHZ_PSI, x), 1.5, (0.5, 1.0)),
    "witness_phi alpha": (lambda x: wk.witness_phi(x, SQRT_3_4), 3.0, (0.5,)),
    "witness_phi beta": (lambda x: wk.witness_phi(0.0, x), 3.0, (1.0,)),
    "classify value": (lambda x: wk.classify(GHZ, x), None, (-0.5, 1.0)),
    "lambda_minus a": (lambda x: wk.lambda_minus(x, SQRT_3_4, 0.5), 3.0, (0.5,)),
    "lambda_minus b": (lambda x: wk.lambda_minus(0.0, x, 0.5), 3.0, (1.0,)),
    "lambda_minus p": (lambda x: wk.lambda_minus(1.0, 0.0, x), -0.5, (0.5, 1.0)),
}

NOT_REAL = {
    "None": lambda: None,
    "str": lambda: "0.5",
    "bytes": lambda: b"0.5",
    "list": lambda: [0.5],
    "array": lambda: np.array([0.5]),
    "complex": lambda: 0.5j,
    "complex128": lambda: np.complex128(0.5),
    "nan": lambda: math.nan,
    "inf": lambda: math.inf,
    "-inf": lambda: -math.inf,
}


def _number_forms(consumer, outside):
    forms = dict(NOT_REAL)
    if outside is not None:
        forms["out of range"] = lambda: outside
    if consumer == "cmd_verify --tol":
        del forms["None"]  # cmd_verify's default: the decomposition's own tolerance
    return forms


NUMBER_CASES = [pytest.param(consumer, build, id=f"number-{consumer}-{form}")
                for consumer, (_, outside, _) in NUMBERS.items()
                for form, build in _number_forms(consumer, outside).items()]


@pytest.mark.parametrize("consumer,build", NUMBER_CASES)
def test_every_real_argument_refuses_every_non_real_form(consumer, build):
    with pytest.raises(ValueError):
        NUMBERS[consumer][0](build())


def _real_forms(value):
    """The typed forms of an admitted value: int when it is whole, numpy's
    float32 and float64 scalars and a 0-d array."""
    forms = [np.float32(value), np.float64(value), np.array(value)]
    return forms + [int(value)] if value.is_integer() else forms


@pytest.mark.parametrize("consumer", NUMBERS)
def test_every_real_type_gives_the_bytes_of_its_float(consumer):
    call, _, admitted = NUMBERS[consumer]
    for value in admitted:
        want = pickle.dumps(call(value))
        for form in _real_forms(value):
            assert float(form) == value
            assert pickle.dumps(call(form)) == want, (consumer, repr(form))


# the array role, per consumer: the call of its one array argument, an
# admitted array whose entries are 0 or 1, and whether complex entries are
# refused (``rng.real_array``) or admitted (``rng.complex_array``)
ARRAYS = {
    "direction": (wk.direction, [0.0, 0.0, 1.0], True),
    "Direction": (wk.Direction, [0.0, 0.0, 1.0], True),
    "setting direction": (lambda x: wk.setting([x], [1.0, 0.0]), [0.0, 0.0, 1.0], True),
    "setting weights": (lambda x: wk.setting([[0.0, 0.0, 1.0]], x), [1.0, 0.0], True),
    "MeasurementSetting weights": (
        lambda x: wk.MeasurementSetting(Z_SETTING.directions[:1], x), [1.0, 0.0], True),
    "weights_from_masks coefficient": (
        lambda x: wk.settings.weights_from_masks(1, {(1,): x}), 1.0, True),
    "PauliCoefficients": (lambda x: wk.PauliCoefficients(1, x), [1.0, 0.0, 0.0, 1.0], True),
    "SliceFamily": (lambda x: wk.SliceFamily("AB|C", x), [np.eye(3)], True),
    "numerical_rank": (wk.numerical_rank, np.eye(3), True),
    "rank_one_elements_in_span": (wk.rank_one_elements_in_span, [np.eye(3)], True),
    "structured_rank_one_check": (
        lambda x: wk.structured_rank_one_check("ghz", x), [1.0, 0.0, 0.0], True),
    "sample_counts": (lambda x: wk.sample_counts(x, 10, 0), [1.0, 0.0], True),
    "PureState": (lambda x: wk.PureState(1, x), [1.0, 0.0], False),
    "DensityMatrix": (lambda x: wk.DensityMatrix(1, x), np.diag([1.0, 0.0]), False),
    "as_state": (wk.as_state, np.diag([1.0, 0.0]), False),
    "as_operator": (wk.as_operator, np.diag([1.0, 0.0]), False),
    "Witness": (lambda x: wk.Witness("x", x, 1, ()), np.diag([1.0, 0.0]), False),
}


def _with_last(good, value, dtype):
    a = np.array(good, dtype=dtype)
    a.flat[-1] = value
    return a


NOT_AN_ARRAY = {
    "str": lambda good: np.array(good).astype(str),
    "bytes": lambda good: np.array(good).astype(bytes),
    "None entry": lambda good: _with_last(good, None, object),
    "dict": lambda good: {},
    "ragged": lambda good: [np.array(good).tolist(), [np.array(good).tolist()]],
    "nan": lambda good: _with_last(good, math.nan, float),
    "inf": lambda good: _with_last(good, math.inf, float),
    "-inf": lambda good: _with_last(good, -math.inf, float),
}

ARRAY_CASES = [pytest.param(consumer, form, id=f"array-{consumer}-{form}")
               for consumer, (_, _, real) in ARRAYS.items()
               for form in [*NOT_AN_ARRAY, *(["complex"] if real else [])]]


@pytest.mark.parametrize("consumer,form", ARRAY_CASES)
def test_every_array_argument_refuses_every_non_numeric_form(consumer, form):
    call, good, _ = ARRAYS[consumer]
    call(good)  # the admitted form passes
    bad = (_with_last(good, np.array(good).flat[-1] + 0.5j, complex) if form == "complex"
           else NOT_AN_ARRAY[form](good))
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("consumer", ARRAYS)
def test_every_array_type_gives_the_bytes_of_its_float64_form(consumer):
    call, good, _ = ARRAYS[consumer]
    want = pickle.dumps(call(np.array(good, dtype=np.float64)))
    for dtype in (bool, int, np.float32):
        assert pickle.dumps(call(np.array(good, dtype=dtype))) == want, (consumer, dtype)
    assert pickle.dumps(call(np.array(good).tolist())) == want, consumer


# a Witness's verdict rules: thresholds real numbers of at most 0, strictly
# ascending, labels str; each of these was parsed, admitted or leaked TypeError
BAD_RULES = {
    "string threshold": (("0.5", "a"),),
    "bytes threshold": ((b"-0.5", "a"),),
    "nan threshold": ((math.nan, "a"),),
    "positive threshold": ((0.5, "a"),),
    "descending": ((0.0, "a"), (-0.25, "b")),
    "equal thresholds": ((0.0, "a"), (0.0, "b")),
    "None threshold": ((None, "a"),),
    "label not a str": ((0.0, 5),),
    "rules None": None,
}


@pytest.mark.parametrize("rules", BAD_RULES.values(), ids=BAD_RULES)
def test_verdict_rules_are_admitted_one_way(rules):
    with pytest.raises(ValueError):
        wk.Witness("x", np.eye(2), 1, rules)


def test_verdict_rules_are_held_as_float_and_str_pairs():
    w = wk.Witness("x", np.eye(2), 1, [[np.float32(-0.25), "a"], (0, "b")])
    assert w.verdict_rules == ((-0.25, "a"), (0.0, "b"))
    assert all(type(t) is float for t, _ in w.verdict_rules)


# the sequence arguments of linalg and certify: each leaked TypeError
SEQUENCE_CALLS = {
    "numerical_rank": wk.numerical_rank,
    "rank_one_elements_in_span": wk.rank_one_elements_in_span,
    "kron_all": wk.kron_all,
    "partial_transpose local_dims": lambda x: wk.partial_transpose(np.eye(4), 0, x),
}


@pytest.mark.parametrize("call", SEQUENCE_CALLS.values(), ids=SEQUENCE_CALLS)
@pytest.mark.parametrize("form", [None, 7], ids=["None", "int"])
def test_every_sequence_argument_refuses_a_non_sequence(call, form):
    with pytest.raises(ValueError, match="must be a sequence"):
        call(form)


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
        psi = GHZ_PSI if w.n_qubits == 3 else wk.states.singlet_state()
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

import argparse
import json
import math
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from witkit import cli, linalg, settings, states, witnesses


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def ghz_file(tmp_path):
    rho = states.ghz_state().density_matrix()
    path = tmp_path / "ghz-state.json"
    path.write_text(cli.json_dumps(cli.density_matrix_to_json_dict(rho)))
    return str(path)


def test_witness_command(capsys):
    code, out = run_cli(["witness", "ghz"], capsys)
    assert code == 0 and out["status"] == "ok"
    assert out["payload"]["trace"] == 5.0
    assert abs(out["payload"]["pauli"]["111"] - 0.625) < 1e-14
    code, out = run_cli(["witness", "phi", "--alpha", "0.6", "--beta", "0.8"],
                        capsys)
    assert code == 0
    assert abs(out["payload"]["pauli"]["zz"] - 0.25) < 1e-12
    matrix = np.asarray(out["payload"]["matrix"]["real"])
    assert abs(matrix[1, 2] - 0.48) < 1e-14


def test_witness_payload_reports_the_verdict_margin(capsys):
    # the margin classify and simulate apply, beside the rules it widens
    code, out = run_cli(["witness", "w1"], capsys)
    assert code == 0
    margin = out["payload"]["margin"]
    assert margin == witnesses.witness_w1().margin
    assert abs(margin - 3.0e-8) < 1e-9


def test_the_tie_note_states_the_margin_factor():
    # Witness.margin is ||W||_F 2^n (2 PSD_TOL + HERMITICITY_TOL); the note
    # writes that factor as a number, so a change to either constant shows
    factor = re.fullmatch(r"values within eps = \|\|W\|\|_F \* 2\^n \* (\S+) of a "
                          r"classification threshold resolve to the weaker label", cli.TIE_NOTE)
    assert factor is not None
    assert float(factor.group(1)) == 2 * states.PSD_TOL + linalg.HERMITICITY_TOL
    w = witnesses.witness_w1()
    assert w.margin == float(np.linalg.norm(w.operator)) * 2 ** 3 * float(factor.group(1))


def test_witness_unknown(capsys):
    code, out = run_cli(["witness", "nope"], capsys)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["code"] == "unknown-witness"


def test_witness_phi_requires_parameters(capsys):
    code, out = run_cli(["witness", "phi"], capsys)
    assert code == 2
    assert out["payload"]["code"] == "validation-error"


def test_decompose_catalog(capsys):
    code, out = run_cli(["decompose", "ghz", "--mode", "catalog"], capsys)
    assert code == 0
    assert out["payload"]["settings"] == 4
    assert out["payload"]["residual"] < 1e-12
    # "paper" is accepted as an alias for the catalog mode
    code, out2 = run_cli(["decompose", "ghz", "--mode", "paper"], capsys)
    assert code == 0 and out2["payload"]["settings"] == 4


def test_decompose_cover(capsys):
    code, out = run_cli(["decompose", "ghz", "--mode", "cover", "--axes", "xyz"],
                        capsys)
    assert code == 0
    assert out["payload"]["settings"] == 5
    code, out = run_cli(["decompose", "ghz", "--mode", "cover", "--axes", "xz"],
                        capsys)
    assert code == 2
    assert out["payload"]["code"] == "uncoverable-term"


def test_decompose_search_failure_exit_code(capsys):
    code, out = run_cli(["decompose", "w1", "--mode", "search", "--max", "4",
                         "--restarts", "30", "--seed", "1"], capsys)
    assert code == 3
    assert out["status"] == "error"
    assert out["payload"]["code"] == "search-failed"
    assert out["payload"]["best_residual"] > 1e-8


def test_decompose_search_success(capsys):
    code, out = run_cli(["decompose", "ghz", "--mode", "search", "--max", "4",
                         "--restarts", "200", "--seed", "7"], capsys)
    assert code == 0
    assert out["payload"]["residual"] < 1e-8
    assert out["payload"]["settings"] <= 4


def test_decompose_sanpera_variant(capsys):
    code, out = run_cli(["decompose", "phi", "--alpha", "0.6", "--beta", "0.8",
                         "--variant", "sanpera5"], capsys)
    assert code == 0
    assert out["payload"]["settings"] == 4
    assert out["payload"]["projectors"] == 5
    # the w0 sign pattern violates the Schmidt convention
    code, out = run_cli(["decompose", "w0", "--variant", "sanpera5"], capsys)
    assert code == 2


def test_w0_sanpera5_uses_the_w0_angles(capsys):
    # sanpera5 must see w0's alpha = -beta, not fall back to its own
    # default alpha = beta and quietly decompose a different witness
    code, out = run_cli(["decompose", "w0", "--variant", "sanpera5"], capsys)
    assert code == 2
    assert out["payload"]["code"] == "validation-error"
    assert "alpha, beta > 0" in out["payload"]["message"]


def test_verify_round_trip(tmp_path, capsys):
    dec_path = tmp_path / "dec.json"
    code = cli.main(["--output", str(dec_path), "decompose", "w1"])
    assert code == 0
    data = json.loads(dec_path.read_text())["payload"]["decomposition"]
    (tmp_path / "only.json").write_text(json.dumps(data))
    code, out = run_cli(["verify", "w1", str(tmp_path / "only.json")], capsys)
    assert code == 0
    assert out["payload"]["verified"] is True
    assert out["payload"]["residual"] < 1e-10
    # verifying against the wrong witness reports a large residual
    code, out = run_cli(["verify", "ghz", str(tmp_path / "only.json")], capsys)
    assert code == 0
    assert out["payload"]["verified"] is False


def test_verify_defaults_to_the_search_tolerance_for_a_search_file(tmp_path, capsys):
    # the ghz decomposition with one weight off by 1e-9: a residual between
    # VERIFY_TOL and SEARCH_TOL
    data = settings.decomposition_to_json_dict(settings.catalog_decomposition("ghz"))
    data["settings"][0]["weights"]["000"] += 1e-9
    for target, tol, verified in (("search", 1e-8, True), ("ghz", 1e-10, False)):
        path = tmp_path / f"{target}.json"
        path.write_text(json.dumps(dict(data, target=target)))
        code, out = run_cli(["verify", "ghz", str(path)], capsys)
        assert code == 0 and 1e-10 < out["payload"]["residual"] < 1e-8
        assert out["payload"]["tolerance"] == tol
        assert out["payload"]["verified"] is verified
        # an explicit --tol keeps its meaning
        code, out = run_cli(["verify", "ghz", str(path), "--tol", "1e-10"], capsys)
        assert out["payload"]["tolerance"] == 1e-10 and out["payload"]["verified"] is False


def test_verify_reads_finite_entries_that_overflow(tmp_path, capsys):
    # a direction whose squared norm overflows was refused as zero, and a
    # residual that overflows to inf could not be written as JSON
    data = settings.decomposition_to_json_dict(settings.catalog_decomposition("ghz"))
    big_direction = json.loads(json.dumps(data))
    big_direction["settings"][0]["directions"][0] = [0.0, 0.0, 1e155]
    big_weight = json.loads(json.dumps(data))
    big_weight["settings"][0]["weights"]["000"] = 1e308
    for name, doc in (("direction", big_direction), ("weight", big_weight)):
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # the overflow stays inside the command: no RuntimeWarning reaches the
    # user (an error under the suite's filters)
    code, out = run_cli(["verify", "ghz", str(tmp_path / "direction.json")], capsys)
    assert code == 0 and out["payload"]["verified"] is True
    code, out = run_cli(["verify", "ghz", str(tmp_path / "weight.json")], capsys)
    assert code == 2 and out["payload"]["code"] == "invalid-decomposition"
    assert "overflows" in out["payload"]["message"]


def _overflowing_state(n):
    """A finite, Hermitian, trace-one matrix on n qubits with least
    eigenvalue about -1e308: 1e308 in the two far corners."""
    mat = np.eye(2 ** n) / 2 ** n
    mat[0, -1] = mat[-1, 0] = 1e308
    return mat


@pytest.mark.parametrize("n,name", [(2, "w0"), (3, "ghz")])
def test_a_state_whose_eigenvalues_overflow_is_refused(tmp_path, capsys, n, name):
    # A + A^dagger overflowed: on two and three qubits LAPACK's "Eigenvalues
    # did not converge" was the invalid-state message, with a RuntimeWarning
    path = tmp_path / "big.json"
    mat = _overflowing_state(n)
    path.write_text(json.dumps({"n_qubits": n, "real": mat.tolist(),
                                "imag": np.zeros_like(mat).tolist()}))
    for argv in (["classify", name, str(path)], ["simulate", name, str(path)]):
        code, out = run_cli(argv, capsys)
        assert code == 2 and out["payload"]["code"] == "invalid-state"
        assert out["payload"]["message"].endswith("density matrix has an eigenvalue below -1e-9")


@pytest.mark.parametrize("n,witness", [(1, ["phi", "--alpha", "0.6", "--beta", "0.8"]),
                                       (2, ["w0"]), (3, ["ghz"])])
def test_an_anti_hermitian_state_near_the_float_range_is_refused_silently(
        tmp_path, capsys, n, witness):
    # A - A^dagger overflowed: numpy's RuntimeWarning was printed beside the
    # invalid-state envelope, and is an error under this suite's filter
    mat = _overflowing_state(n)
    mat[-1, 0] = -1e308
    path = tmp_path / "anti.json"
    path.write_text(json.dumps({"n_qubits": n, "real": mat.tolist(),
                                "imag": np.zeros_like(mat).tolist()}))
    for command in ("classify", "simulate"):
        code = cli.main([command, witness[0], str(path), *witness[1:]])
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert code == 2 and out["payload"]["code"] == "invalid-state" and not captured.err
        assert "not Hermitian" in out["payload"]["message"]


def test_a_pure_state_whose_norm_overflows_is_refused(tmp_path, capsys):
    # the norm of amplitudes of 1e200 overflowed with a RuntimeWarning
    path = tmp_path / "big-psi.json"
    path.write_text(json.dumps({"n_qubits": 3, "real": [1e200] + [0.0] * 7, "imag": [0.0] * 8}))
    code, out = run_cli(["threshold", "ghz", "--psi", str(path)], capsys)
    assert code == 2 and out["payload"]["code"] == "invalid-state"
    assert "an amplitude has modulus above 1" in out["payload"]["message"]


def test_certify_command(capsys):
    code, out = run_cli(["certify", "w1", "--restarts", "200"], capsys)
    assert code == 0
    payload = out["payload"]
    assert payload["bound"] == 5
    assert payload["span_dimension"] == 4
    assert payload["rank_one_span_dimension"] == 1
    assert payload["method"] == "span-dim-plus-one"


def test_classify_command(ghz_file, capsys):
    code, out = run_cli(["classify", "w2", ghz_file], capsys)
    assert code == 0
    assert abs(out["payload"]["value"] + 0.5) < 1e-10
    assert out["payload"]["label"] == "GHZ-class"


def test_classify_gives_no_label_at_rounding_level(tmp_path, capsys):
    # |0>_A (|01> + |10>)_BC / sqrt(2) has exact w1 value 0; the command
    # printed "genuinely-tripartite" for its computed -2.2e-16
    psi = np.zeros(8)
    psi[0b001] = psi[0b010] = 1.0 / math.sqrt(2.0)
    rho = states.DensityMatrix(3, np.outer(psi, psi))
    path = tmp_path / "biseparable.json"
    path.write_text(cli.json_dumps(cli.density_matrix_to_json_dict(rho)))
    code, out = run_cli(["classify", "w1", str(path)], capsys)
    assert code == 0 and abs(out["payload"]["value"]) < 1e-15
    assert out["payload"]["label"] == "no-detection"
    assert out["diagnostics"] == [cli.TIE_NOTE]


def test_classify_invalid_state(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_qubits": 2,
                               "real": np.eye(4).tolist(),
                               "imag": np.zeros((4, 4)).tolist()}))
    code, out = run_cli(["classify", "w0", str(bad)], capsys)
    assert code == 2
    assert out["payload"]["code"] == "invalid-state"
    code, out = run_cli(["classify", "w0", str(tmp_path / "missing.json")],
                        capsys)
    assert code == 2
    assert out["payload"]["code"] == "file-not-found"


def test_classify_with_a_witness_of_other_size(ghz_file, capsys):
    code, out = run_cli(["classify", "w0", ghz_file], capsys)
    assert code == 2
    assert out["payload"]["code"] == "invalid-state"
    assert out["payload"]["message"] == "state and witness qubit counts differ"


def test_decompose_variant_of_another_witness(capsys):
    code, out = run_cli(["decompose", "ghz", "--variant", "sanpera5"], capsys)
    assert code == 2
    assert out["payload"] == {"code": "validation-error",
                              "message": "variant sanpera5 applies to w0/phi only"}


def test_simulate_command(ghz_file, capsys):
    code, out = run_cli(["simulate", "ghz", ghz_file,
                         "--shots", "100000", "--seed", "7"], capsys)
    assert code == 0
    payload = out["payload"]
    assert abs(payload["estimate"] + 0.25) <= 5.0 * payload["std_error"]
    assert payload["verdict"] == "GHZ-class"
    assert len(payload["per_setting"]) == 4


def test_an_admitted_state_is_classified_and_simulated(tmp_path, capsys):
    # a state with eigenvalue -5e-10 on |000> passes the state check, so
    # classify took it, but simulate's Born kernel refused it with exit 2
    d = np.full(8, (1.0 + 5e-10) / 7.0)
    d[0] = -5e-10
    path = tmp_path / "admitted.json"
    path.write_text(cli.json_dumps(cli.density_matrix_to_json_dict(
        states.DensityMatrix(3, np.diag(d)))))
    code, out = run_cli(["classify", "ghz", str(path)], capsys)
    assert code == 0 and out["status"] == "ok"
    code, out = run_cli(["simulate", "ghz", str(path), "--shots", "1000", "--seed", "0"],
                        capsys)
    assert code == 0 and out["status"] == "ok"
    rows = out["payload"]["per_setting"]
    assert all(sum(r["counts"].values()) == r["shots"] == 1000 for r in rows)


# per-setting counts and estimate of the README command
# `witkit simulate ghz ghz-state.json --shots 100000 --seed 7`
PINNED_GHZ_COUNTS = [
    [50055, 0, 0, 0, 0, 0, 0, 49945],
    [25079, 0, 0, 25039, 0, 24826, 25056, 0],
    [3673, 21266, 21357, 3595, 21513, 3619, 3631, 21346],
    [3651, 21271, 21551, 3698, 21388, 3624, 3520, 21297],
]
PINNED_GHZ_ESTIMATE = -0.25098401644825913


def test_simulate_seeded_output_pinned(ghz_file, capsys):
    code, out = run_cli(["simulate", "ghz", ghz_file,
                         "--shots", "100000", "--seed", "7"], capsys)
    assert code == 0
    payload = out["payload"]
    assert [list(r["counts"].values())
            for r in payload["per_setting"]] == PINNED_GHZ_COUNTS
    assert abs(payload["estimate"] - PINNED_GHZ_ESTIMATE) < 1e-12


def test_simulate_byte_identical(ghz_file, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = cli.main(["--output", str(path), "simulate", "ghz", ghz_file,
                         "--shots", "5000", "--seed", "21"])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_threshold_command(capsys):
    code, out = run_cli(["threshold", "ghz"], capsys)
    assert code == 0
    assert abs(out["payload"]["threshold"] - 5 / 7) < 1e-10
    code, out = run_cli(["threshold", "w1"], capsys)
    assert abs(out["payload"]["threshold"] - 13 / 21) < 1e-10
    code, out = run_cli(["threshold", "w2", "--psi", "ghz"], capsys)
    assert abs(out["payload"]["threshold"] - 3 / 7) < 1e-10
    # the default state for w0 is the symmetric Schmidt state, whose
    # detection threshold coincides with the NPT boundary
    code, out = run_cli(["threshold", "w0"], capsys)
    assert abs(out["payload"]["threshold"] - 1 / 3) < 1e-10
    # w2 never detects the noisy W family
    code, out = run_cli(["threshold", "w2", "--psi", "w"], capsys)
    assert code == 2
    assert out["payload"]["code"] == "no-threshold"


def test_threshold_phi_default_state_follows_sign(capsys):
    # for alpha beta > 0 the negative eigenvector is the singlet, eigenvalue
    # -alpha beta, so p* = (1/4) / (1/4 + alpha beta) = 25/73
    code, out = run_cli(["threshold", "phi", "--alpha", ".6", "--beta", ".8"],
                        capsys)
    assert code == 0
    assert out["payload"]["psi"] == "singlet"
    assert abs(out["payload"]["threshold"] - 25 / 73) < 1e-12
    code, out = run_cli(["threshold", "phi", "--alpha", ".6", "--beta", "-.8"],
                        capsys)
    assert code == 0
    assert out["payload"]["psi"] == "schmidt"
    assert abs(out["payload"]["threshold"] - 25 / 73) < 1e-12


def test_threshold_from_pure_state_file(tmp_path, capsys):
    psi = states.ghz_state()
    path = tmp_path / "psi.json"
    path.write_text(json.dumps({
        "n_qubits": 3,
        "real": psi.amplitudes.real.tolist(),
        "imag": psi.amplitudes.imag.tolist(),
    }))
    code, out = run_cli(["threshold", "ghz", "--psi", str(path)], capsys)
    assert code == 0
    assert abs(out["payload"]["threshold"] - 5 / 7) < 1e-10


TWO_PARTY = {"directions": [[0, 0, 1], [1, 0, 0]], "weights": {"00": 1.0}}
THREE_PARTY = {"directions": [[0, 0, 1]] * 3, "weights": {"000": 1.0}}
NAN_DIRECTIONS = dict(THREE_PARTY, directions=[[math.nan, 0, 1]] * 3)
GHZ_SETTINGS = settings.decomposition_to_json_dict(
    settings.catalog_decomposition("ghz"))["settings"]
# weights as a list, and forty directions, whose weights would take 8 TiB;
# null settings, an entry without weights, a weight given as a string and
# ghz's settings with every direction component given as a string
DECOMPOSITION_FILES = {"two": [TWO_PARTY], "mixed": [THREE_PARTY, TWO_PARTY],
                       "empty": [], "nan": [NAN_DIRECTIONS], "ghz": GHZ_SETTINGS,
                       "list_weights": [{"directions": [[0, 0, 1]] * 3, "weights": [1]}],
                       "forty": [{"directions": [[0, 0, 1]] * 40,
                                  "weights": {"0" * 40: 1.0}}],
                       "null_settings": None,
                       "no_weights": [{"directions": [[0, 0, 1]] * 3}],
                       "string_weight": [dict(THREE_PARTY, weights={"000": "1"})],
                       "string_directions": [
                           dict(entry, directions=[[str(c) for c in d]
                                                   for d in entry["directions"]])
                           for entry in GHZ_SETTINGS]}


# int() refuses more digits than this while json parses a number; an
# interpreter without the limit refuses the number later, as a bad document
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
NEEDS_DIGIT_LIMIT = pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit")


@pytest.mark.parametrize("argv,code", [
    (["verify", "ghz", "{two}"], "invalid-decomposition"),
    (["verify", "ghz", "{mixed}"], "invalid-decomposition"),
    (["verify", "ghz", "{empty}"], "invalid-decomposition"),
    (["verify", "ghz", "{nan}"], "invalid-decomposition"),
    (["verify", "ghz", "{list_weights}"], "invalid-decomposition"),
    (["verify", "ghz", "{forty}"], "invalid-decomposition"),
    (["verify", "ghz", "{null_settings}"], "invalid-decomposition"),
    (["verify", "ghz", "{no_weights}"], "invalid-decomposition"),
    (["verify", "ghz", "{string_weight}"], "invalid-decomposition"),
    (["verify", "ghz", "{string_directions}"], "invalid-decomposition"),
    (["decompose", "ghz", "--mode", "search", "--max", "0"], "validation-error"),
    (["decompose", "ghz", "--mode", "search", "--restarts", "0"],
     "validation-error"),
    (["decompose", "ghz", "--mode", "cover", "--axes", "q"], "validation-error"),
    # 10**6 settings would need 21.8 TiB of party Grams; 3**3 axis settings suffice
    (["decompose", "ghz", "--mode", "search", "--max", "1000000", "--restarts", "1"],
     "validation-error"),
    (["witness", "phi", "--alpha", "1e200", "--beta", "1"], "validation-error"),
    (["certify", "ghz", "--seed", "-1"], "validation-error"),
    (["certify", "ghz", "--restarts", "-1"], "validation-error"),
    (["certify", "w0", "--seed", "-1"], "validation-error"),
    (["certify", "w0", "--restarts", "-1"], "validation-error"),
    (["certify", "ghz", "--seed", str(2 ** 62)], "validation-error"),
    (["simulate", "ghz", "{state}", "--seed", str(2 ** 64)], "validation-error"),
    (["simulate", "ghz", "{state}", "--shots", str(2 ** 63)], "validation-error"),
    # a budget of 2**64 shots once spun the weighted allocation's top-up loop
    (["simulate", "ghz", "{state}", "--shots", str(2 ** 62), "--allocation", "weighted"],
     "validation-error"),
    (["classify", "ghz", "{directory}"], "unreadable-file"),
    (["classify", "ghz", "{not_utf8}"], "invalid-json"),
    # nesting past the recursion limit, and a number past the digit limit of
    # int(), which json refuses while it parses
] + [row for argv in (["classify", "ghz"], ["simulate", "ghz"], ["verify", "ghz"],
                      ["threshold", "ghz", "--psi"])
     for row in ((argv + ["{deep}"], "invalid-json"),
                 pytest.param(argv + ["{digits}"], "invalid-json", marks=NEEDS_DIGIT_LIMIT))] + [
    (["classify", "ghz", "{fractional_qubits}"], "invalid-state"),
    (["classify", "ghz", "{string_qubits}"], "invalid-state"),
    (["classify", "ghz", "{string_entries}"], "invalid-state"),
    # 2**n_qubits is never formed for a qubit count the array cannot match
    (["classify", "ghz", "{huge_qubits}"], "invalid-state"),
    (["threshold", "ghz", "--psi", "{huge_psi}"], "invalid-state"),
    (["certify", "w1", "--seed", "abc"], "usage-error"),
    (["decompose", "ghz", "--mode", "foo"], "usage-error"),
    (["simulate", "ghz"], "usage-error"),
    (["decompose", "ghz", "--mode", "search", "--restarts", "1", "--tol", "nan"],
     "validation-error"),
    (["decompose", "ghz", "--mode", "search", "--restarts", "1", "--tol", "0"],
     "validation-error"),
    (["verify", "ghz", "{ghz}", "--tol", "nan"], "validation-error"),
    (["verify", "ghz", "{ghz}", "--tol", "-1"], "validation-error"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_bad_input_returns_error_envelope(argv, code, tmp_path, capsys, ghz_file):
    paths = {"directory": tmp_path, "not_utf8": tmp_path / "not-utf8.json",
             "state": ghz_file, "deep": tmp_path / "deep.json",
             "digits": tmp_path / "digits.json"}
    paths["not_utf8"].write_bytes(b"\xff\xfe{}")
    paths["deep"].write_text("[" * 100_000 + "]" * 100_000)
    paths["digits"].write_text('{"n_qubits": 1' + "0" * DIGIT_LIMIT + "}")
    for name, n_qubits in (("fractional_qubits", 3.7), ("string_qubits", "3"),
                           ("huge_qubits", 10 ** 12)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(dict(json.loads(Path(ghz_file).read_text()),
                                               n_qubits=n_qubits)))
    ghz_state = json.loads(Path(ghz_file).read_text())
    paths["string_entries"] = tmp_path / "string_entries.json"
    paths["string_entries"].write_text(json.dumps(dict(
        ghz_state, real=[[str(x) for x in row] for row in ghz_state["real"]])))
    paths["huge_psi"] = tmp_path / "huge_psi.json"
    paths["huge_psi"].write_text(json.dumps({"n_qubits": 10 ** 12, "real": [1.0],
                                             "imag": [0.0]}))
    for name, setts in DECOMPOSITION_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"target": "x", "settings": setts}))
    argv = [a.format(**paths) for a in argv]
    status, out = run_cli(argv, capsys)
    assert status == 2
    assert out["status"] == "error"
    assert out["payload"]["code"] == code


def test_integral_float_qubit_count_is_accepted(ghz_file, tmp_path, capsys):
    path = tmp_path / "float-qubits.json"
    path.write_text(json.dumps(dict(json.loads(Path(ghz_file).read_text()), n_qubits=3.0)))
    code, out = run_cli(["classify", "w2", str(path)], capsys)
    assert code == 0 and out["payload"]["label"] == "GHZ-class"


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    def fail():
        raise AssertionError("main rebuilt the argument parser")

    monkeypatch.setattr(cli, "build_parser", fail)
    code, out = run_cli(["witness", "ghz"], capsys)
    assert code == 0 and out["status"] == "ok"
    # the shared parser still reports usage errors as the envelope on stdout
    code, out = run_cli(["witness"], capsys)
    assert code == 2 and out["payload"]["code"] == "usage-error"
    code, out = run_cli(["witness", "ghz"], capsys)
    assert code == 0 and out["status"] == "ok"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: witkit")


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The ``witkit ...`` lines of README's command-line block, comments cut."""
    block = re.search(r"^```\n(witkit .*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines()]


def builtin_leaves_only(obj):
    if isinstance(obj, dict):
        return all(type(k) is str and builtin_leaves_only(v) for k, v in obj.items())
    if isinstance(obj, list):
        return all(builtin_leaves_only(v) for v in obj)
    return type(obj) in (str, int, float, bool, type(None))


def test_readme_commands_in_process(ghz_file, tmp_path, monkeypatch, capsys):
    commands = readme_commands()
    assert len(commands) >= 10
    monkeypatch.chdir(tmp_path)  # ghz_file is tmp_path / "ghz-state.json"
    code, out = run_cli(["decompose", "ghz"], capsys)
    Path("my-decomposition.json").write_text(json.dumps(out["payload"]["decomposition"]))
    documents = []
    encode = cli.json_dumps
    monkeypatch.setattr(cli, "json_dumps", lambda obj: documents.append(obj) or encode(obj))
    for argv in commands:
        code = cli.main(argv)
        text = capsys.readouterr().out
        assert code == 0 and json.loads(text)["status"] == "ok", argv
        document = documents.pop()
        assert builtin_leaves_only(document), argv
        assert text == reference_dumps(document), argv
        assert not re.search(r"-0\.0(?!\d)|NaN|Infinity", text), argv


def test_unwritable_output_reports_on_stdout(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "out.json"
    code, out = run_cli(["--output", str(target), "witness", "ghz"], capsys)
    assert code == 2
    assert out["status"] == "error"
    assert out["payload"]["code"] == "unwritable-output"
    assert not target.exists()


def test_json_numbers_round_trip(capsys):
    code, out = run_cli(["threshold", "w1"], capsys)
    value = out["payload"]["threshold"]
    assert value == witnesses.noise_threshold(witnesses.witness_w1(),
                                              states.w_state())


def test_console_entry_point(ghz_file):
    proc = subprocess.run(
        [sys.executable, "-m", "witkit", "classify", "w2", ghz_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["payload"]["label"] == "GHZ-class"


def test_module_entry_point_exits_with_the_status_of_main(monkeypatch, capsys):
    # `python -m witkit` runs __main__.py in this process, as runpy does
    monkeypatch.setattr(sys, "argv", ["witkit", "witness", "ghz"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("witkit", run_name="__main__")
    text = capsys.readouterr().out
    assert exit_info.value.code == 0
    assert cli.main(["witness", "ghz"]) == 0 and capsys.readouterr().out == text


def test_variant_help_names_where_sanpera5_applies():
    # the help read "catalog variant for w0/phi", but w0's alpha * beta =
    # -1/2 makes sanpera5 refuse it on every call
    sub = next(a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("decompose", "simulate"):
        text = next(a.help for a in sub.choices[command]._actions if a.dest == "variant")
        assert "phi with alpha, beta > 0" in text, command
        assert "w0" in text and "refuses" in text, command
        assert "for w0/phi" not in text, command


def test_help_names_every_registry_witness_and_named_state(monkeypatch):
    # the help reads the witness registry and the state table, so an entry
    # added to either shows with no edit to the parser
    monkeypatch.setitem(settings.REGISTRY, "w9", settings.REGISTRY["w0"])
    monkeypatch.setitem(states.NAMED_STATES, "bell", states.singlet_state)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        text = " ".join(p.format_help().split())
        if any(a.dest == "witness" for a in p._actions):
            assert " | ".join(settings.REGISTRY) in text, command
    text = " ".join(sub.choices["threshold"].format_help().split())
    assert " | ".join(states.NAMED_STATES) + " | pure-state JSON file" in text


# --- the document writer against the stdlib's indent-2 text -----------------

def reference_dumps(obj):
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


WRITER_STRINGS = ("", "plain", 'a "quoted" word', "back\\slash", "tab\tline\nfeed\r",
                  "\x00\x01\x1f\x7f", "caf\u00e9", "\u2603 \U0001f600", "</script>")
WRITER_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1,
                 1 / 3, 1e16, 1e-7, 123456789.125, np.float64(0.1), np.float64(-0.0))
WRITER_INTS = (0, -1, 7, 2 ** 64 + 1, -(2 ** 70), True, False, None)
WRITER_KEYS = ("k", 'q"k', "\u00e9", "\n", 1, -7, 2 ** 65, 0.5, -0.0, 1e300, 5e-324,
               True, False, None)


def random_json_value(rng, depth=0):
    kind = int(rng.integers(9 if depth < 4 else 3))
    pick = lambda seq: seq[int(rng.integers(len(seq)))]  # noqa: E731
    size = int(rng.integers(5))
    if kind == 0:
        return pick(WRITER_STRINGS)
    if kind == 1:
        return pick(WRITER_FLOATS)
    if kind == 2:
        return pick(WRITER_INTS)
    if kind == 3:  # a row of plain floats, the writer's one-join path
        return [float(x) for x in rng.standard_normal(size) * 10.0 ** rng.integers(-9, 9)]
    if kind in (4, 5):
        return [random_json_value(rng, depth + 1) for _ in range(size)]
    if kind == 6:
        return tuple(random_json_value(rng, depth + 1) for _ in range(size))
    return {pick(WRITER_KEYS): random_json_value(rng, depth + 1) for _ in range(size)}


def test_json_dumps_writes_the_stdlib_text():
    rng = np.random.default_rng(20030)
    corpus = [random_json_value(rng) for _ in range(3000)]
    corpus += [[], {}, (), [[]], {"a": {}}, [[], {}, ()], list(WRITER_FLOATS),
               dict.fromkeys(WRITER_KEYS, 1.5), list(WRITER_STRINGS), list(WRITER_INTS),
               {"e": [0.0, -0.0, 5e-324]}, [np.float64(2.5), 1.0]]
    for obj in corpus:
        assert cli.json_dumps(obj) == reference_dumps(obj), obj


@pytest.mark.parametrize("obj", [
    float("nan"), float("inf"), -float("inf"), np.float64("nan"), [1.0, float("inf")],
    {"a": [0.5, -float("inf")]}, {float("nan"): 1}, {"a": {1: [np.float64("inf")]}},
    np.int64(1), [np.int64(1)], {1, 2}, {"s": {1, 2}}, {(1, 2): 3}, b"bytes",
    {"a": np.array([1.0])}, [float("nan"), {1, 2}], [{1, 2}, float("nan")],
    {"x": 1.0, (1,): float("nan")},
], ids=repr)
def test_json_dumps_raises_what_the_stdlib_raises(obj):
    with pytest.raises((ValueError, TypeError)) as want:
        reference_dumps(obj)
    with pytest.raises(want.type) as got:
        cli.json_dumps(obj)
    assert str(got.value) == str(want.value)

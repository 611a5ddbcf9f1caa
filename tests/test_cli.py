import json
import math
import subprocess
import sys

import numpy as np
import pytest

from witkit import cli, settings, states, witnesses


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


def test_simulate_command(ghz_file, capsys):
    code, out = run_cli(["simulate", "ghz", ghz_file,
                         "--shots", "100000", "--seed", "7"], capsys)
    assert code == 0
    payload = out["payload"]
    assert abs(payload["estimate"] + 0.25) <= 5.0 * payload["std_error"]
    assert payload["verdict"] == "GHZ-class"
    assert len(payload["per_setting"]) == 4


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
DECOMPOSITION_FILES = {"two": [TWO_PARTY], "mixed": [THREE_PARTY, TWO_PARTY],
                       "empty": [], "nan": [NAN_DIRECTIONS], "ghz": GHZ_SETTINGS}


@pytest.mark.parametrize("argv,code", [
    (["verify", "ghz", "{two}"], "invalid-decomposition"),
    (["verify", "ghz", "{mixed}"], "invalid-decomposition"),
    (["verify", "ghz", "{empty}"], "invalid-decomposition"),
    (["verify", "ghz", "{nan}"], "invalid-decomposition"),
    (["decompose", "ghz", "--mode", "search", "--max", "0"], "validation-error"),
    (["decompose", "ghz", "--mode", "search", "--restarts", "0"],
     "validation-error"),
    (["decompose", "ghz", "--mode", "cover", "--axes", "q"], "validation-error"),
    (["certify", "ghz", "--seed", "-1"], "validation-error"),
    (["certify", "ghz", "--restarts", "-1"], "validation-error"),
    (["certify", "w0", "--seed", "-1"], "validation-error"),
    (["certify", "w0", "--restarts", "-1"], "validation-error"),
    (["classify", "ghz", "{directory}"], "unreadable-file"),
    (["classify", "ghz", "{not_utf8}"], "invalid-json"),
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
def test_bad_input_returns_error_envelope(argv, code, tmp_path, capsys):
    paths = {"directory": tmp_path, "not_utf8": tmp_path / "not-utf8.json"}
    paths["not_utf8"].write_bytes(b"\xff\xfe{}")
    for name, setts in DECOMPOSITION_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"target": "x", "settings": setts}))
    argv = [a.format(**paths) for a in argv]
    status, out = run_cli(argv, capsys)
    assert status == 2
    assert out["status"] == "error"
    assert out["payload"]["code"] == code


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

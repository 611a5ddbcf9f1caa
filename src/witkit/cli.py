"""Command-line front end with JSON input and output.

Subcommands: witness, decompose, verify, certify, classify, simulate,
threshold.  Every command writes a single JSON document of the shape
``{"status": "ok"|"error", "payload": {...}, "diagnostics": [...]}``
to stdout (or ``--output``); errors carry a machine-readable code.
Exit codes: 0 success, 3 search-failed, 2 every other error code:
usage-error, validation-error (a rejected value, e.g. a ``--tol`` that
is not positive and finite), unknown-witness, file-not-found,
unreadable-file, invalid-json, invalid-state, invalid-decomposition,
uncoverable-term, no-threshold, unwritable-output.  A usage error or an
unwritable ``--output`` is reported on stdout; ``--help`` exits 0.

All numbers are emitted with up to 17 significant digits, so parsing
the output recovers the exact double-precision values.

File formats:
  density matrix  {"n_qubits": n, "real": [[...]], "imag": [[...]]}
  pure state      {"n_qubits": n, "real": [...], "imag": [...]}
  decomposition   {"target": label, "settings": [{"directions": [[dx,dy,dz], ...],
                   "weights": {"<bits>": w, ...}}, ...]}
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import certify, pauli, settings, simulate, states, witnesses

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SEARCH_FAILED = 3

TIE_NOTE = ("values exactly at a classification threshold resolve to the "
            "weaker label")


class CommandError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = EXIT_VALIDATION,
                 payload: dict | None = None):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code
        self.payload = payload or {}


# --- deterministic JSON emission ---------------------------------------------

def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise ValueError("cannot serialize a non-finite number")
        if x == 0.0:
            x = 0.0  # normalize -0.0
        text = format(x, ".17g")
        if not any(ch in text for ch in ".e"):
            text += ".0"
        return text
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        inner = ",\n".join(pad + "  " + _emit(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [pad + "  " + json.dumps(str(k)) + ": " + _emit(v, indent + 1)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    return _emit(obj, 0) + "\n"


# --- file formats -------------------------------------------------------------

def matrix_to_json_dict(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"real": [[float(x) for x in row] for row in a.real],
            "imag": [[float(x) for x in row] for row in a.imag]}


def density_matrix_to_json_dict(rho: states.DensityMatrix) -> dict:
    out = {"n_qubits": rho.n_qubits}
    out.update(matrix_to_json_dict(rho.matrix))
    return out


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CommandError("file-not-found", f"no such file: {path}")
    except OSError as exc:
        raise CommandError("unreadable-file", f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CommandError("invalid-json", f"{path}: {exc}")


def _load_state(path: str, kind):
    data = _read_json(path)
    try:
        n = int(data["n_qubits"])
        values = np.asarray(data["real"], dtype=float) \
            + 1j * np.asarray(data["imag"], dtype=float)
        return kind(n, values)
    except (KeyError, ValueError, TypeError) as exc:
        raise CommandError("invalid-state", f"{path}: {exc}")


def load_density_matrix(path: str) -> states.DensityMatrix:
    return _load_state(path, states.DensityMatrix)


# --- shared lookups -----------------------------------------------------------

def _get_witness(args) -> witnesses.Witness:
    try:
        return witnesses.catalog(args.witness, args.alpha, args.beta)
    except KeyError:
        raise CommandError("unknown-witness",
                           f"unknown witness {args.witness!r}; choose from "
                           f"{', '.join(settings.REGISTRY)}")


def _catalog_decomposition_for(args) -> settings.LocalDecomposition:
    entry = settings.REGISTRY[args.witness]
    variant = args.variant
    if variant == "axes":
        build = next(iter(entry.decompositions.values()))
    elif variant in entry.decompositions:
        build = entry.decompositions[variant]
    else:
        owners = [n for n, e in settings.REGISTRY.items() if variant in e.decompositions]
        raise CommandError("validation-error",
                           f"variant {variant} applies to {'/'.join(owners)} only")
    alpha, beta = entry.angles or (args.alpha, args.beta)
    return build(alpha, beta)


def _same_qubits(state, w: witnesses.Witness):
    if state.n_qubits != w.n_qubits:
        raise CommandError("invalid-state", "state and witness qubit counts differ")
    return state


def _decomposition_payload(w_name: str, mode: str,
                           dec: settings.LocalDecomposition) -> dict:
    return {
        "witness": w_name,
        "mode": mode,
        "settings": dec.n_settings,
        "projectors": dec.n_projectors,
        "residual": dec.residual,
        "decomposition": settings.decomposition_to_json_dict(dec),
    }


# --- command handlers ----------------------------------------------------------

def cmd_witness(args):
    w = _get_witness(args)
    coeffs = pauli.to_pauli(w.operator, w.n_qubits)
    payload = {
        "name": w.name,
        "n_qubits": w.n_qubits,
        "trace": float(np.real(np.trace(w.operator))),
        "matrix": matrix_to_json_dict(w.operator),
        "pauli": pauli.to_sparse_map(coeffs),
        "verdict_rules": [{"threshold": t, "label": label}
                          for t, label in w.verdict_rules],
    }
    return payload, [TIE_NOTE]


def cmd_decompose(args):
    w = _get_witness(args)
    mode = {"paper": "catalog"}.get(args.mode, args.mode)
    if mode == "catalog":
        dec = _catalog_decomposition_for(args)
        return _decomposition_payload(w.name, mode, dec), []
    coeffs = pauli.to_pauli(w.operator, w.n_qubits)
    if mode == "cover":
        unknown = sorted(set(args.axes) - set(settings.AXES))
        if unknown:
            raise CommandError("validation-error",
                               f"unknown axes {''.join(unknown)!r}; use x, y, z")
        axes = [settings.AXES[ch] for ch in args.axes]
        try:
            dec = settings.group_pauli_terms(
                coeffs, [axes] * w.n_qubits, exact=not args.greedy)
        except ValueError as exc:
            raise CommandError("uncoverable-term", str(exc))
        return _decomposition_payload(w.name, mode, dec), []
    result = settings.decomposition_search(
        coeffs, max_settings=args.max, restarts=args.restarts,
        seed=args.seed, tol=args.tol)
    if not result.success:
        raise CommandError(
            "search-failed",
            f"no decomposition with {args.max} settings found "
            f"(best residual {result.residual:.3e})",
            exit_code=EXIT_SEARCH_FAILED,
            payload={"witness": w.name, "mode": mode,
                     "max_settings": args.max,
                     "restarts": args.restarts,
                     "best_residual": result.residual})
    payload = _decomposition_payload(w.name, mode, result.decomposition)
    payload["restarts_used"] = result.restarts_used
    return payload, []


def cmd_verify(args):
    w = _get_witness(args)
    data = _read_json(args.file)
    try:
        dec = settings.decomposition_from_json_dict(data)
        residual = settings.verify_decomposition(dec, w.operator)
    except (KeyError, ValueError, TypeError) as exc:
        raise CommandError("invalid-decomposition", f"{args.file}: {exc}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    payload = {
        "witness": w.name,
        "target": dec.target_label,
        "settings": dec.n_settings,
        "residual": residual,
        "verified": bool(residual < args.tol),
        "tolerance": args.tol,
    }
    return payload, []


def cmd_certify(args):
    w = _get_witness(args)
    cert = certify.lower_bound(w, restarts=args.restarts, seed=args.seed)
    return cert.to_json_dict(w.name), []


def cmd_classify(args):
    w = _get_witness(args)
    rho = _same_qubits(load_density_matrix(args.state), w)
    value = witnesses.expectation(w, rho)
    verdict = witnesses.classify(w, value)
    payload = {"witness": w.name, "value": value, "label": verdict.label}
    return payload, [TIE_NOTE]


def cmd_simulate(args):
    w = _get_witness(args)
    rho = _same_qubits(load_density_matrix(args.state), w)
    dec = _catalog_decomposition_for(args)
    report = simulate.estimate_witness(rho, dec, args.shots, args.seed,
                                       allocation=args.allocation)
    payload = {
        "witness": w.name,
        "shots_per_setting": args.shots,
        "seed": args.seed,
        "allocation": args.allocation,
        "verdict": witnesses.classify(w, report.estimate).label,
    }
    payload.update(report.to_json_dict())
    return payload, [TIE_NOTE]


def cmd_threshold(args):
    w = _get_witness(args)
    entry = settings.REGISTRY[args.witness]
    alpha, beta = entry.angles or (args.alpha, args.beta)
    token = args.psi or entry.psi(alpha, beta)
    named = states.NAMED_STATES.get(token)
    psi = _same_qubits(named() if named else _load_state(token, states.PureState), w)
    try:
        p_star = witnesses.noise_threshold(w, psi)
    except ValueError as exc:
        raise CommandError("no-threshold", str(exc))
    payload = {"witness": w.name, "psi": token, "threshold": p_star}
    return payload, ["detection holds for every mixing weight above the threshold"]


# --- argument parsing and dispatch ---------------------------------------------

def _add_witness_args(p):
    p.add_argument("witness", help="w0 | phi | ghz | w1 | w2")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a CommandError instead of exiting."""

    def error(self, message):
        raise CommandError("usage-error", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="witkit",
        description="Entanglement witnesses, local measurement-setting "
                    "decompositions, setting-count certificates, and "
                    "shot-noise simulation.")
    parser.add_argument("--output", default=None,
                        help="write the JSON result to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("witness", help="matrix and Pauli support of a witness")
    _add_witness_args(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("decompose",
                       help="decompose a witness into measurement settings")
    _add_witness_args(p)
    p.add_argument("--mode", default="catalog",
                   choices=["catalog", "paper", "cover", "search"],
                   help="catalog (alias paper): curated decompositions; "
                        "cover: exact minimum cover over fixed axes; "
                        "search: randomized alternating least squares")
    p.add_argument("--variant", default="axes", choices=["axes", "sanpera5"],
                   help="catalog variant for w0/phi")
    p.add_argument("--axes", default="xyz",
                   help="candidate axes for cover mode, e.g. xyz")
    p.add_argument("--greedy", action="store_true",
                   help="greedy cover instead of the exact solver")
    p.add_argument("--max", type=int, default=4,
                   help="setting budget for search mode")
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=settings.SEARCH_TOL)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify",
                       help="verify a decomposition JSON file against a witness")
    _add_witness_args(p)
    p.add_argument("file", help="decomposition JSON file")
    p.add_argument("--tol", type=float, default=settings.VERIFY_TOL)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify",
                       help="certified lower bound on the setting count")
    _add_witness_args(p)
    p.add_argument("--restarts", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("classify",
                       help="expectation value and verdict on a density matrix")
    _add_witness_args(p)
    p.add_argument("state", help="density matrix JSON file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate",
                       help="shot-limited measurement of a decomposed witness")
    _add_witness_args(p)
    p.add_argument("state", help="density matrix JSON file")
    p.add_argument("--shots", type=int, default=10000,
                   help="shots per measurement setting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allocation", default="uniform",
                   choices=list(simulate.ALLOCATIONS))
    p.add_argument("--variant", default="axes", choices=["axes", "sanpera5"])
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold",
                       help="white-noise detection threshold of a witness")
    _add_witness_args(p)
    p.add_argument("--psi", default=None,
                   help="ghz | w | schmidt | singlet | pure-state JSON file "
                        "(default: the witness's target state)")
    p.set_defaults(func=cmd_threshold)

    return parser


def _write(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error_document(exc: CommandError) -> str:
    return json_dumps({"status": "error",
                       "payload": {"code": exc.code, "message": str(exc),
                                   **exc.payload},
                       "diagnostics": []})


def main(argv=None) -> int:
    """Run one command; the one place a failure becomes an error document."""
    output = None
    try:
        args = build_parser().parse_args(argv)
        output = args.output
        try:
            payload, diagnostics = args.func(args)
            text = json_dumps({"status": "ok", "payload": payload,
                               "diagnostics": diagnostics})
        except ValueError as exc:
            raise CommandError("validation-error", str(exc))
        status = EXIT_OK
    except CommandError as exc:
        text, status = _error_document(exc), exc.exit_code
    try:
        _write(text, output)
    except OSError as exc:
        sys.stdout.write(_error_document(CommandError(
            "unwritable-output", f"cannot write {output}: {exc}")))
        return EXIT_VALIDATION
    return status


if __name__ == "__main__":
    sys.exit(main())

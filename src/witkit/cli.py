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

The document is written by this module's own writer (:func:`json_dumps`)
in the layout of ``json.dumps(indent=2)``: ASCII, with a two-space
indent, the stdlib's text byte for byte.  Numbers are written as Python's
shortest round-trip ``repr`` (at most 17 significant digits), so parsing
the output recovers the exact doubles.

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

from . import certify, linalg, pauli, settings, simulate, states, witnesses
from .rng import real_array, real_number

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SEARCH_FAILED = 3

TIE_NOTE = ("values within eps = ||W||_F * 2^n * 2.1e-9 of a classification "
            "threshold resolve to the weaker label")


class CommandError(Exception):
    def __init__(self, code: str, message: str, exit_code: int = EXIT_VALIDATION,
                 payload: dict | None = None):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code
        self.payload = payload or {}


# --- the output document ------------------------------------------------------

# On Python 3.10 and 3.11 the stdlib's C encoder writes only compact JSON, so
# json.dumps(obj, indent=2) runs its pure-Python encoder; these helpers write
# the same text directly, at about the cost of the numbers' reprs.

_ENCODE_STRING = json.encoder.encode_basestring_ascii
_FLOAT_REPR = float.__repr__
_INT_REPR = int.__repr__
_FLOATS = {float}


def _float_text(x, pad: str = "") -> str:
    """``x`` as the stdlib writes it: ``float.__repr__``, or its ``ValueError``
    for NaN and the infinities, whose reprs alone hold an "n"."""
    text = _FLOAT_REPR(x)
    if "n" in text:
        raise ValueError("Out of range float values are not JSON compliant: " + repr(x))
    return text


def _key_text(key) -> str:
    """A dict key as the stdlib writes it: a number, bool or None as the
    quoted text of its value."""
    if isinstance(key, str):
        return _ENCODE_STRING(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _text(key, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _list_text(items, pad: str) -> str:
    if not items:
        return "[]"
    inner = pad + "  "
    if set(map(type, items)) == _FLOATS:  # a row of numbers: one join
        body = ("," + inner).join(map(_FLOAT_REPR, items))
        if "n" in body:  # raise at the first NaN or infinity, as the stdlib does
            for x in items:
                _float_text(x)
    else:
        body = ("," + inner).join([_text(item, inner) for item in items])
    return "[" + inner + body + pad + "]"


def _dict_text(items, pad: str) -> str:
    if not items:
        return "{}"
    inner = pad + "  "
    body = ("," + inner).join([_key_text(key) + ": " + _text(value, inner)
                               for key, value in items.items()])
    return "{" + inner + body + pad + "}"


_WRITERS = {
    str: lambda obj, pad: _ENCODE_STRING(obj),
    int: lambda obj, pad: _INT_REPR(obj),
    float: _float_text,
    bool: lambda obj, pad: "true" if obj else "false",
    type(None): lambda obj, pad: "null",
    list: _list_text,
    tuple: _list_text,
    dict: _dict_text,
}


def _text(obj, pad: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it where ``pad`` is the
    newline and indent of its line."""
    write = _WRITERS.get(type(obj))
    if write is None:  # a subclass writes as the first base the stdlib tests
        base = next((base for base in (str, int, float, list, tuple, dict)
                     if isinstance(obj, base)), None)
        if base is None:
            raise TypeError(f"Object of type {obj.__class__.__name__} "
                            f"is not JSON serializable")
        write = _WRITERS[base]
    return write(obj, pad)


def json_dumps(obj) -> str:
    """One output document, the text of ``json.dumps(obj, indent=2,
    allow_nan=False) + "\\n"``: ASCII, a two-space indent, and numbers as
    ``float.__repr__`` and ``int.__repr__`` write them.  A NaN or infinity
    raises the stdlib's ``ValueError``, a type JSON cannot hold its
    ``TypeError``; a container that holds itself is not looked for."""
    return _text(obj, "\n") + "\n"


# --- file formats -------------------------------------------------------------

def matrix_to_json_dict(m) -> dict:
    a = linalg.as_matrix(m)
    return {"real": a.real.tolist(), "imag": a.imag.tolist()}


def density_matrix_to_json_dict(rho: states.DensityMatrix) -> dict:
    out = {"n_qubits": rho.n_qubits}
    out.update(matrix_to_json_dict(rho.matrix))
    return out


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise CommandError("file-not-found", f"no such file: {path}")
    except OSError as exc:
        raise CommandError("unreadable-file", f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise CommandError("invalid-json", f"{path}: {exc}")
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, a number past the interpreter's digit limit or
        # nesting past its recursion limit
        raise CommandError("invalid-json", f"{path}: {exc}")


def _load_state(path: str, kind):
    data = _read_json(path)
    try:
        values = real_array(data["real"], "'real' entries") \
            + 1j * real_array(data["imag"], "'imag' entries")
        return kind(data["n_qubits"], values)
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


# --- command handlers: each gets the parsed args and their catalog witness ----

def cmd_witness(args, w):
    coeffs = witnesses.as_coefficients(w)
    payload = {
        "name": w.name,
        "n_qubits": w.n_qubits,
        "trace": float(np.real(np.trace(w.operator))),
        "matrix": matrix_to_json_dict(w.operator),
        "pauli": pauli.to_sparse_map(coeffs),
        "verdict_rules": [{"threshold": t, "label": label}
                          for t, label in w.verdict_rules],
        "margin": w.margin,
    }
    return payload, [TIE_NOTE]


def cmd_decompose(args, w):
    mode = {"paper": "catalog"}.get(args.mode, args.mode)
    if mode == "catalog":
        dec = _catalog_decomposition_for(args)
        return _decomposition_payload(w.name, mode, dec), []
    if mode == "cover":
        unknown = sorted(set(args.axes) - set(settings.AXES))
        if unknown:
            raise CommandError("validation-error",
                               f"unknown axes {''.join(unknown)!r}; use x, y, z")
        axes = [settings.AXES[ch] for ch in args.axes]
        try:
            dec = settings.group_pauli_terms(w, [axes] * w.n_qubits, exact=not args.greedy)
        except ValueError as exc:
            raise CommandError("uncoverable-term", str(exc))
        return _decomposition_payload(w.name, mode, dec), []
    result = settings.decomposition_search(
        w, max_settings=args.max, restarts=args.restarts,
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


def cmd_verify(args, w):
    data = _read_json(args.file)
    try:
        # a direction or weight near the float range overflows to an inf
        # norm, which the residual check below reports, not to a warning
        with np.errstate(over="ignore", invalid="ignore"):
            dec = settings.decomposition_from_json_dict(data)
            residual = settings.verify_decomposition(dec, w)
        if not residual < math.inf:
            raise ValueError(f"the residual against {w.name} overflows")
    except ValueError as exc:
        raise CommandError("invalid-decomposition", f"{args.file}: {exc}")
    # without --tol, the decomposition's own: SEARCH_TOL for a search result
    tol = dec.tol if args.tol is None else real_number(args.tol, "--tol", positive=True)
    payload = {
        "witness": w.name,
        "target": dec.target_label,
        "settings": dec.n_settings,
        "residual": residual,
        "verified": bool(residual < tol),
        "tolerance": tol,
    }
    return payload, []


def cmd_certify(args, w):
    cert = certify.lower_bound(w, restarts=args.restarts, seed=args.seed)
    return cert.to_json_dict(w.name), []


def cmd_classify(args, w):
    rho = _same_qubits(load_density_matrix(args.state), w)
    value = witnesses.expectation(w, rho)
    verdict = witnesses.classify(w, value)
    payload = {"witness": w.name, "value": value, "label": verdict.label}
    return payload, [TIE_NOTE]


def cmd_simulate(args, w):
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


def cmd_threshold(args, w):
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

VARIANT_HELP = ("catalog decomposition: axes, the first of each witness, or sanpera5, "
                "which applies to phi with alpha, beta > 0; w0 (alpha = -beta) "
                "always refuses it")


def _add_witness_args(p):
    p.add_argument("witness", help=" | ".join(settings.REGISTRY))
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
                        "search: random restarts, each a least-squares weight "
                        "solve and a Levenberg-Marquardt finish")
    p.add_argument("--variant", default="axes", choices=["axes", "sanpera5"],
                   help=VARIANT_HELP)
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
    p.add_argument("--tol", type=float, default=None,
                   help="default: 1e-8 for a file whose target is search, else 1e-10")
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
    p.add_argument("--variant", default="axes", choices=["axes", "sanpera5"],
                   help=VARIANT_HELP)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("threshold",
                       help="white-noise detection threshold of a witness")
    _add_witness_args(p)
    p.add_argument("--psi", default=None,
                   help=" | ".join([*states.NAMED_STATES, "pure-state JSON file "
                                    "(default: the witness's target state)"]))
    p.set_defaults(func=cmd_threshold)

    return parser


PARSER = build_parser()  # built once per process; parse_args keeps no state


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
        args = PARSER.parse_args(argv)
        output = args.output
        try:
            payload, diagnostics = args.func(args, _get_witness(args))
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

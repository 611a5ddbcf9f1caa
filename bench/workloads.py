"""The four closed-loop workloads and their correctness checks.

A workload turns the benchmark seed into an endless sequence of blocks of
operations: block ``b`` is drawn from ``numpy.random.default_rng`` keyed
by (seed, b), so the same seed always yields the same inputs, and every
block has the same mix of operation kinds.  A run executes a fixed number
of whole blocks, so every run measures the same mix and a latency
quantile falls on the same kind of operation from run to run.  ``run`` is
the timed call into witkit; ``check`` compares its output with references
from ``oracle`` (plain numpy) and returns an ``Outcome``.

Why these four (the layer -> end-to-end map is in ``run.py``):

* ``sweep``   analyses generated states: exact values, verdicts, PPT and
              shot-noise estimates.  Settings kernel, simulate, states and
              linalg; no search, no certificate.
* ``design``  finds few-setting decompositions: ALS searches at feasible
              and certified-infeasible budgets, exact and greedy covers.
* ``certify`` proves setting-count lower bounds: rank-one span searches,
              pauli slices and numerical ranks; mostly at the default
              500 restarts, with a stated share at 0..3 restarts.
* ``cli``     runs README commands and invalid invocations in process
              through ``witkit.cli.main``: argparse, file loading and JSON
              emission on top of the same layers.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import oracle

SQRT_HALF = 1.0 / math.sqrt(2.0)
ALLOCATIONS = ("uniform", "weighted")
PARTIES = "ABC"
# pairing label of a certificate -> index of the sliced party
PAIRING_PARTY = {"AB|C": 2, "AC|B": 1, "BC|A": 0}


class Mismatch(Exception):
    """An output disagreed with its reference."""


@dataclass
class Outcome:
    status: str = "ok"          # ok | defect | failed
    detail: str = ""
    solved: bool | None = None  # feasible search or tight certificate reached
    expect: Counter = field(default_factory=Counter)  # span name -> calls


def require(cond, detail):
    if not cond:
        raise Mismatch(detail)


def unit(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_setting_sum(rng, n, m):
    """Operator of m settings with random directions and outcome weights."""
    return sum(oracle.setting_operator([unit(rng) for _ in range(n)],
                                       rng.standard_normal((2,) * n))
               for _ in range(m))


def decomposition_parts(dec):
    return ([[d.vector for d in s.directions] for s in dec.settings],
            [np.asarray(s.weights, dtype=float) for s in dec.settings])


def rebuild(directions, weights):
    return sum(oracle.setting_operator(d, w) for d, w in zip(directions, weights))


def check_estimate(rho, directions, weights, estimate, shots, exact):
    """Shot-noise check of one estimate against exact Born statistics."""
    means, variances, ranges = [], [], []
    for d, w in zip(directions, weights):
        p = oracle.born_probabilities(rho, d)
        mean = float(np.sum(p * w))
        means.append(mean)
        variances.append(max(0.0, float(np.sum(p * w * w)) - mean * mean))
        ranges.append(float(np.abs(w - mean).max()))
    require(abs(sum(means) - exact) <= 1e-9, "setting means do not sum to the witness value")
    tol = oracle.shot_noise_tolerance(means, variances, ranges, shots)
    require(abs(estimate - exact) <= tol + 1e-9,
            f"estimate {estimate} is {abs(estimate - exact):.3g} from {exact} (bound {tol:.3g})")


def check_allocation(alloc, shots_per_setting, shots, counts):
    k = len(shots)
    if alloc == "uniform":
        require(all(s == shots_per_setting for s in shots), "uniform allocation is uneven")
    else:
        require(sum(shots) == k * shots_per_setting and min(shots) >= 1,
                "weighted allocation breaks its budget")
    require(all(int(np.sum(c)) == s for c, s in zip(counts, shots)),
            "outcome counts do not add up to the shots")


class Workload:
    name = ""
    block_salt = 0
    block_seconds = 1.0     # nominal time of one block on the reference machine
    accepts_errors = False  # whether an exception from run() goes to check()

    def __init__(self, wk, seed, workdir):
        self.wk = wk
        self.seed = int(seed)
        self.workdir = workdir

    def rng(self, block):
        return np.random.default_rng([self.seed, self.block_salt, block])

    def prepare(self):
        """Write any input files; called once before the first operation."""

    def block(self, b):
        raise NotImplementedError

    def warmup(self):
        """A fixed operation, independent of the seed, run before timing."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Outcome:
        raise NotImplementedError


# --- sweep --------------------------------------------------------------------

class Sweep(Workload):
    name = "sweep"
    block_salt = 1
    block_seconds = 0.19
    FAMILIES = ("ghz", "w", "schmidt", "biseparable", "slocc-w", "slocc-ghz")

    def block(self, b):
        rng = self.rng(b)
        return [self.draw(str(f), rng) for f in rng.permutation(self.FAMILIES)]

    def draw(self, family, rng):
        op = {"family": family}
        if family in ("ghz", "w", "schmidt"):
            op["p"] = float(rng.uniform(0.0, 1.0))
        if family == "schmidt":
            t = rng.uniform(0.0, math.pi / 2)
            op["ab"] = (math.cos(t), math.sin(t))
        elif family == "biseparable":
            op["partition"] = str(rng.choice(["A-BC", "B-AC", "C-AB"]))
            op["state_seed"] = int(rng.integers(2 ** 31))
        elif family.startswith("slocc"):
            lams = np.abs(rng.standard_normal(5))
            theta = float(rng.uniform(0.0, 2 * math.pi))
            if family == "slocc-w":
                lams[4], theta = 0.0, 0.0
            op["lams"] = tuple(float(x) for x in lams / np.linalg.norm(lams))
            op["theta"] = theta
        if family == "schmidt":
            t = rng.uniform(0.05, math.pi / 2 - 0.05)
            op["alpha"], op["beta"] = math.cos(t), math.sin(t)
            op["witnesses"] = [("w0", "anton"), ("phi", "anton"), ("phi", "sanpera5")]
        else:
            op["witnesses"] = [("ghz", None), ("w1", None), ("w2", None)]
        op["shots"] = [int(round(10 ** rng.uniform(2.0, 6.0))) for _ in op["witnesses"]]
        op["sim_seeds"] = [int(rng.integers(2 ** 31)) for _ in op["witnesses"]]
        return op

    def warmup(self):
        return {"family": "ghz", "p": 0.5, "witnesses": [("ghz", None), ("w1", None), ("w2", None)],
                "shots": [1000, 1000, 1000], "sim_seeds": [0, 1, 2]}

    def state(self, op):
        wk = self.wk
        fam = op["family"]
        if fam == "ghz":
            return wk.white_noise_mix(wk.ghz_state(), op["p"])
        if fam == "w":
            return wk.white_noise_mix(wk.w_state(), op["p"])
        if fam == "schmidt":
            return wk.white_noise_mix(wk.schmidt_state(*op["ab"]), op["p"])
        if fam == "biseparable":
            return wk.random_biseparable_state(op["partition"], op["state_seed"])
        return wk.slocc_normal_form(*op["lams"], theta=op["theta"]).density_matrix()

    def reference_state(self, op):
        fam = op["family"]
        if fam == "ghz":
            return oracle.white_noise_mix(oracle.GHZ, op["p"])
        if fam == "w":
            return oracle.white_noise_mix(oracle.W, op["p"])
        if fam == "schmidt":
            a, b = op["ab"]
            return oracle.white_noise_mix(np.array([0, a, b, 0], dtype=complex), op["p"])
        if fam.startswith("slocc"):
            l0, l1, l2, l3, l4 = op["lams"]
            v = np.zeros(8, dtype=complex)
            v[0b000], v[0b100], v[0b101], v[0b110], v[0b111] = (
                l0, l1 * np.exp(1j * op["theta"]), l2, l3, l4)
            return oracle.projector(v)
        return None

    @staticmethod
    def cuts(op):
        return "B" if op["family"] == "schmidt" else PARTIES

    def decomposition(self, name, variant, op):
        # the catalog entry the CLI's simulate command picks for each witness
        cat = self.wk.catalog_decomposition
        if name == "w0":
            return cat("anton", SQRT_HALF, -SQRT_HALF)
        if name == "phi":
            return cat(variant, op["alpha"], op["beta"])
        return cat(name)

    def run(self, op):
        wk = self.wk
        rho = self.state(op)
        per_witness = []
        for (name, variant), shots, sim_seed in zip(op["witnesses"], op["shots"], op["sim_seeds"]):
            w = wk.witnesses.catalog(name, op.get("alpha"), op.get("beta"))
            value = wk.expectation(w, rho)
            label = wk.classify(w, value).label
            dec = self.decomposition(name, variant, op)
            reports = [wk.estimate_witness(rho, dec, shots, sim_seed, allocation=a)
                       for a in ALLOCATIONS]
            per_witness.append((value, label, dec, reports))
        ppt = [wk.ppt_check(rho, party) for party in self.cuts(op)]
        return rho, per_witness, ppt

    def check(self, op, out):
        rho, per_witness, ppt = out
        mat = np.asarray(rho.matrix)
        n = 2 if op["family"] == "schmidt" else 3
        ref = self.reference_state(op)
        if ref is None:
            require(oracle.is_state(mat), "biseparable sample is not a density matrix")
            cut = PARTIES.index(op["partition"][0])
            require(oracle.min_pt_eigenvalue(mat, cut, 3) >= -1e-9,
                    "biseparable sample is entangled across its cut")
            ref = mat
        else:
            require(np.abs(mat - ref).max() <= 1e-12, "state differs from its recipe")
        result = Outcome()
        for (name, variant), (value, label, dec, reports), shots in zip(
                op["witnesses"], per_witness, op["shots"]):
            w_ref = oracle.witness_matrix(name, op.get("alpha"), op.get("beta"))
            exact = oracle.expectation(w_ref, ref)
            require(abs(value - exact) <= 1e-9, f"{name}: value {value} != {exact}")
            require(label == oracle.verdict(name, value), f"{name}: verdict {label}")
            if op["family"] == "biseparable":
                require(exact >= -1e-9, f"{name} is negative on a biseparable state")
            k_expected = {"anton": 3, "sanpera5": 4}.get(variant) or oracle.MIN_SETTINGS[name]
            require(dec.n_settings == k_expected, f"{name}: {dec.n_settings} settings")
            dirs, weights = decomposition_parts(dec)
            require(np.linalg.norm(rebuild(dirs, weights) - w_ref) <= 1e-9,
                    f"{name}: catalog decomposition does not rebuild the witness")
            for alloc, rep in zip(ALLOCATIONS, reports):
                got = [r.shots for r in rep.per_setting]
                require(len(got) == k_expected, "one report per setting")
                check_allocation(alloc, shots, got, [r.counts for r in rep.per_setting])
                check_estimate(ref, dirs, weights, rep.estimate, got, exact)
                result.expect["simulate.outcome_probabilities"] += len(got)
        for party, (min_eig, npt) in zip(self.cuts(op), ppt):
            want = oracle.min_pt_eigenvalue(ref, PARTIES.index(party), n)
            require(abs(min_eig - want) <= 1e-9, f"PPT {party}: {min_eig} != {want}")
            if abs(want) > 1e-8:
                require(bool(npt) == (want < 0), f"PPT {party}: wrong NPT flag")
        return result


# --- design -------------------------------------------------------------------

# (target, k, restarts, feasible): catalog witnesses at their certified
# minimum and one below it, random sums of m settings at k = m.  Budgets
# keep every job under about a second here; feasible catalog jobs get
# enough restarts to succeed nearly always, so solved_frac moves with the
# search's ability rather than with luck.  w1 at k = 5 runs twice per
# block.
#
# The search jobs do not depend on the workload seed: the j-th job of
# block b searches with seed 16 b + j, and the random targets of block b
# come from a stream keyed by b alone.  ALS cost varies several-fold with
# the target and the start; drawing them from the workload seed spread
# op_ms_p50 by 25% and ops_per_s by 11% between seeds on 20 s runs.  The
# workload seed varies the cover inputs.
SEARCH_JOBS = (
    ("w0", 3, 8, True), ("w0", 2, 8, False),
    ("ghz", 4, 16, True), ("ghz", 3, 4, False),
    ("w2", 4, 16, True), ("w2", 3, 4, False),
    ("w1", 5, 2, True), ("w1", 5, 2, True), ("w1", 4, 2, False),
    (2, 2, 2, True), (3, 3, 1, True), (4, 4, 1, True),
)
COVER_TARGETS = ("ghz", "w1", "w2", "w0")
RANDOM_COVER_AXES = ("xz", "xy", "yz", "xyz")
SEARCH_TOL = 1e-8


class Design(Workload):
    name = "design"
    block_salt = 2
    block_seconds = 2.4

    def __init__(self, wk, seed, workdir):
        super().__init__(wk, seed, workdir)
        self.min_cover = {}

    def block(self, b):
        rng = self.rng(b)
        targets = np.random.default_rng([self.block_salt, b])
        ops = []
        for j, (target, k, restarts, feasible) in enumerate(SEARCH_JOBS):
            op = {"kind": "search", "k": k, "restarts": restarts, "feasible": feasible,
                  "search_seed": 16 * b + j, "target": target}
            if isinstance(target, int):
                op["target"], op["matrix"] = "random", random_setting_sum(targets, 3, target)
            ops.append(op)
        name = COVER_TARGETS[b % len(COVER_TARGETS)]
        axes = "".join(rng.permutation(list("xyz")))
        random_axes = "".join(rng.permutation(list(rng.choice(RANDOM_COVER_AXES))))
        support, matrix = self.random_pauli_sum(rng, random_axes)
        for exact in (True, False):
            ops.append({"kind": "cover", "target": name, "axes": axes, "exact": exact})
            ops.append({"kind": "cover", "target": "random", "matrix": matrix,
                        "support": support, "axes": random_axes, "exact": exact})
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def random_pauli_sum(rng, axes):
        letters = [0] + [oracle.AXIS_INDEX[a] for a in axes]
        support, size = set(), int(rng.integers(3, 6))
        while len(support) < size:
            support.add(tuple(int(rng.choice(letters)) for _ in range(3)))
        support = sorted(support)
        matrix = sum(rng.standard_normal() * oracle.kron_list([oracle.SIGMA[i] for i in t])
                     for t in support)
        return support, matrix

    def warmup(self):
        return {"kind": "search", "target": "w0", "k": 3, "restarts": 8,
                "feasible": True, "search_seed": 0}

    def target(self, op):
        if op["target"] == "random":
            return op["matrix"]
        return self.wk.witnesses.catalog(op["target"]).operator

    def run(self, op):
        wk = self.wk
        c = wk.to_pauli(self.target(op))
        if op["kind"] == "search":
            return wk.decomposition_search(c, op["k"], restarts=op["restarts"],
                                           seed=op["search_seed"])
        axes = [wk.AXES[a] for a in op["axes"]]
        return wk.group_pauli_terms(c, [axes] * c.n_qubits, exact=op["exact"])

    def target_reference(self, op):
        if op["target"] == "random":
            return op["matrix"]
        return oracle.witness_matrix(op["target"])

    def check(self, op, out):
        target = self.target_reference(op)
        if op["kind"] == "cover":
            return self.check_cover(op, out, target)
        result = Outcome(expect=Counter({"settings._als_restart": out.restarts_used}))
        require(1 <= out.restarts_used <= op["restarts"], "restarts_used outside the budget")
        if out.success:
            require(op["feasible"], f"search beat the certified minimum of {op['target']}")
            require(out.decomposition.n_settings <= op["k"], "too many settings")
            require(out.residual < SEARCH_TOL, "success with a residual above tolerance")
            dirs, weights = decomposition_parts(out.decomposition)
            require(np.linalg.norm(rebuild(dirs, weights) - target) <= 1e-7,
                    "found decomposition does not rebuild the target")
        else:
            require(out.restarts_used == op["restarts"], "failed before the budget ran out")
            require(out.residual >= SEARCH_TOL, "failure with a residual below tolerance")
        if op["feasible"]:
            result.solved = bool(out.success)
        return result

    def check_cover(self, op, out, target):
        dirs, weights = decomposition_parts(out)
        require(np.linalg.norm(rebuild(dirs, weights) - target) <= 1e-9,
                "cover does not rebuild the target")
        allowed = [np.eye(3)[oracle.AXIS_INDEX[a] - 1] for a in op["axes"]]
        require(all(any(np.allclose(v, a) for a in allowed) for d in dirs for v in d),
                "cover uses a direction outside the candidate axes")
        n = int(round(math.log2(target.shape[0])))
        support = op.get("support")
        if support is None:
            coeffs = oracle.pauli_coefficients(target, n)
            support = [tuple(int(i) for i in t) for t in np.argwhere(np.abs(coeffs) > 1e-12)]
        key = (tuple(support), frozenset(op["axes"]), n)
        if key not in self.min_cover:
            self.min_cover[key] = oracle.min_cover_size(support, sorted(op["axes"]), n, 16)
        best = self.min_cover[key]
        if op["exact"]:
            require(out.n_settings == best, f"exact cover has {out.n_settings}, minimum is {best}")
        else:
            require(out.n_settings >= best, "greedy cover beat the minimum")
        return Outcome()


# --- certify ------------------------------------------------------------------

# restart counts the CLI accepts: the default for most operations, and a
# stated share (3 of 14) at 0..3 restarts, on sums of 2, 3 and 4 settings,
# where the certificate is known to overclaim
DEFAULT_RESTARTS = 500
LOW_RESTARTS = (0, 1, 2, 3)
LOW_M = (2, 3, 4)


class Certify(Workload):
    name = "certify"
    block_salt = 3
    block_seconds = 1.6

    def block(self, b):
        # catalog certificates use seed b whatever the workload seed, so
        # their cost repeats from run to run; random targets vary with it
        rng = self.rng(b)
        ops = [{"target": name, "restarts": DEFAULT_RESTARTS, "cert_seed": b}
               for name in ("w0", "ghz", "w2", "w1")]
        jobs = [(3, m, DEFAULT_RESTARTS) for m in range(1, 7)]
        jobs += [(3, m, int(rng.choice(LOW_RESTARTS))) for m in LOW_M]
        jobs.append((2, int(rng.integers(1, 7)), DEFAULT_RESTARTS))
        for n, m, restarts in jobs:
            ops.append({"target": "random", "n": n, "m": m, "restarts": restarts,
                        "matrix": random_setting_sum(rng, n, m),
                        "cert_seed": int(rng.integers(2 ** 20))})
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self):
        return {"target": "ghz", "restarts": 100, "cert_seed": 0}

    def run(self, op):
        target = op["matrix"] if op["target"] == "random" else \
            self.wk.witnesses.catalog(op["target"])
        return self.wk.lower_bound(target, restarts=op["restarts"], seed=op["cert_seed"])

    def check(self, op, out):
        if op["target"] == "random":
            matrix, n, cap = op["matrix"], op["n"], op["m"]
        else:
            matrix = oracle.witness_matrix(op["target"])
            n = 2 if op["target"] == "w0" else 3
            cap = oracle.MIN_SETTINGS[op["target"]]
        dims = oracle.slice_span_dimensions(oracle.pauli_coefficients(matrix, n))
        result = Outcome(expect=Counter({"certify.rank_one_elements_in_span": 3 if n == 3 else 0}))
        require(out.bound >= max(max(dims), 1), f"bound {out.bound} is below the span dimension")
        if n == 2:
            require(out.bound == max(dims[0], 1), "two-qubit bound is not the correlation rank")
        else:
            d = dims[PAIRING_PARTY[out.pairing_used]]
            require(out.span_dimension == d, "certificate misreports its span dimension")
            require(out.bound in (d, d + 1), "bound is neither d nor d + 1")
        if out.bound > cap:
            # a sum of m settings needs at most m settings, so the bound
            # overclaims: common at 0-3 restarts, rare at 100-500
            require(op["target"] == "random",
                    f"bound {out.bound} exceeds the {cap} settings that suffice")
            result.status = "defect"
            result.detail = ("certify-overclaim at <=3 restarts" if op["restarts"] <= 3
                             else f"certify-overclaim at {op['restarts']} restarts")
            return result
        if op["target"] != "random":
            result.solved = out.bound == cap
        return result


# --- cli ----------------------------------------------------------------------

# documented error classes: argv tail, expected code, expected exit status
DOCUMENTED_ERRORS = (
    (["witness", "foo"], "unknown-witness", 2),
    (["classify", "ghz", "missing.json"], "file-not-found", 2),
    (["classify", "ghz", "bad.json"], "invalid-json", 2),
    (["classify", "ghz", "nontrace.json"], "invalid-state", 2),
    (["classify", "w0", "ghz-state.json"], "invalid-state", 2),
    (["verify", "ghz", "baddec.json"], "invalid-decomposition", 2),
    (["decompose", "ghz", "--mode", "search", "--max", "3", "--restarts", "2"], "search-failed", 3),
    (["decompose", "ghz", "--mode", "cover", "--axes", "xz"], "uncoverable-term", 2),
    (["threshold", "ghz", "--psi", "w"], "no-threshold", 2),
    (["witness", "phi"], "validation-error", 2),
    (["simulate", "ghz", "ghz-state.json", "--shots", "0"], "validation-error", 2),
)
# inputs known to escape with a traceback instead of the JSON error
# envelope; they stay in the mix so a fix shows in ok_frac
TRACEBACK_INPUTS = (
    ["verify", "ghz", "twoparty.json"],
    ["verify", "ghz", "mixed.json"],
    ["verify", "ghz", "empty.json"],
    ["decompose", "ghz", "--mode", "search", "--max", "0"],
    ["decompose", "ghz", "--mode", "cover", "--axes", "q"],
    ["certify", "ghz", "--seed", "-1"],
)
ERRORS_PER_BLOCK = 3
TRACEBACKS_PER_BLOCK = 3
N_MIXES = 4
N_RANDOM_DECS = 3


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def density_json(rho):
    return {"n_qubits": int(round(math.log2(rho.shape[0]))),
            "real": rho.real.tolist(), "imag": rho.imag.tolist()}


def decomposition_json(directions, weights, target="random"):
    settings = []
    for d, w in zip(directions, weights):
        bits = {"".join(map(str, idx)): float(w[idx]) for idx in np.ndindex(w.shape)}
        settings.append({"directions": [list(map(float, v)) for v in d], "weights": bits})
    return {"target": target, "settings": settings}


def settings_of_json(data):
    dirs, weights = [], []
    for entry in data["settings"]:
        d = [np.asarray(v, dtype=float) for v in entry["directions"]]
        w = np.zeros((2,) * len(d))
        for bits, value in entry["weights"].items():
            w[tuple(int(ch) for ch in bits)] = value
        dirs.append(d)
        weights.append(w)
    return dirs, weights


class Cli(Workload):
    name = "cli"
    block_salt = 4
    block_seconds = 0.43
    accepts_errors = True

    def __init__(self, wk, seed, workdir):
        super().__init__(wk, seed, workdir)
        self.out_path = os.path.join(workdir, "out.json")
        self.states = {}
        self.files = {}
        self.cache = {}   # library results and cover minima, once per distinct input

    def path(self, name):
        return os.path.join(self.workdir, name)

    def prepare(self):
        rng = np.random.default_rng([self.seed, self.block_salt, 0, 0])  # not a block key
        states = {"ghz-state.json": oracle.projector(oracle.GHZ),
                  "schmidt-mix.json": oracle.white_noise_mix(
                      np.array([0, SQRT_HALF, SQRT_HALF, 0], dtype=complex),
                      float(rng.uniform(0.0, 1.0)))}
        for i in range(N_MIXES):
            psi = oracle.GHZ if i % 2 == 0 else oracle.W
            states[f"mix-{i}.json"] = oracle.white_noise_mix(psi, float(rng.uniform(0.0, 1.0)))
        for name, rho in states.items():
            write_json(self.path(name), density_json(rho))
        self.states = states
        catalog = self.wk.settings.decomposition_to_json_dict(
            self.wk.catalog_decomposition("ghz"))
        self.files["dec-ghz.json"] = settings_of_json(catalog)
        write_json(self.path("dec-ghz.json"), catalog)
        for i in range(N_RANDOM_DECS):
            m = int(rng.integers(2, 6))
            dirs = [[unit(rng) for _ in range(3)] for _ in range(m)]
            weights = [rng.standard_normal((2, 2, 2)) for _ in range(m)]
            self.files[f"dec-rand-{i}.json"] = (dirs, weights)
            write_json(self.path(f"dec-rand-{i}.json"), decomposition_json(dirs, weights))
        two = decomposition_json([[unit(rng), unit(rng)]], [rng.standard_normal((2, 2))])
        write_json(self.path("twoparty.json"), two)
        mixed = {"target": "x", "settings": catalog["settings"][:1] + two["settings"]}
        write_json(self.path("mixed.json"), mixed)
        write_json(self.path("empty.json"), {"target": "x", "settings": []})
        bad = {"target": "x", "settings": [{"directions": [[0, 0, 1]] * 3, "weights": {"0a1": 1.0}}]}
        write_json(self.path("baddec.json"), bad)
        write_json(self.path("nontrace.json"), density_json(np.eye(8, dtype=complex) / 4))
        with open(self.path("bad.json"), "w", encoding="utf-8") as fh:
            fh.write("{not json")

    def block(self, b):
        rng = self.rng(b)

        def pick(seq):
            return seq[int(rng.integers(len(seq)))]

        t = rng.uniform(0.05, math.pi / 2 - 0.05)
        ab = [repr(math.cos(t)), repr(math.sin(t))]
        perm = "".join(rng.permutation(list("xyz")))
        mix = f"mix-{int(rng.integers(N_MIXES))}.json"
        ok = [
            ["witness", pick(["ghz", "w1", "w2", "w0"])],
            ["witness", "phi", "--alpha", ab[0], "--beta", ab[1]],
            ["decompose", "ghz"],
            ["decompose", pick(["w1", "w2"]), "--mode", "paper"],
            ["decompose", "phi", "--alpha", ab[0], "--beta", ab[1], "--variant", "sanpera5"],
            ["decompose", "ghz", "--mode", "cover", "--axes", perm],
            ["decompose", pick(["ghz", "w1", "w2"]), "--mode", "cover", "--axes", perm, "--greedy"],
            ["decompose", "ghz", "--mode", "search", "--max", "4", "--restarts", "200", "--seed", "7"],
            ["verify", "ghz", "dec-ghz.json"],
            ["verify", "ghz", f"dec-rand-{int(rng.integers(N_RANDOM_DECS))}.json"],
            ["certify", "w1"],
            ["classify", "w2", "ghz-state.json"],
            ["classify", pick(["ghz", "w1", "w2"]), mix],
            ["classify", "w0", "schmidt-mix.json"],
            ["simulate", "ghz", "ghz-state.json", "--shots", "100000",
             "--seed", str(int(rng.integers(2 ** 20)))],
            ["simulate", pick(["ghz", "w1", "w2"]), mix,
             "--shots", str(int(round(10 ** rng.uniform(2.0, 5.0)))),
             "--seed", str(int(rng.integers(2 ** 20))), "--allocation", pick(list(ALLOCATIONS))],
            ["threshold", "w1"],
            ["threshold", pick(["ghz", "w2", "w0"])],
        ]
        ops = [{"argv": argv, "kind": "search" if "search" in argv else "ok"} for argv in ok]
        for i in range(ERRORS_PER_BLOCK):
            argv, code, status = DOCUMENTED_ERRORS[(b * ERRORS_PER_BLOCK + i) % len(DOCUMENTED_ERRORS)]
            ops.append({"argv": list(argv), "kind": "error", "code": code, "status": status})
        for i in range(TRACEBACKS_PER_BLOCK):
            argv = TRACEBACK_INPUTS[(b * TRACEBACKS_PER_BLOCK + i) % len(TRACEBACK_INPUTS)]
            ops.append({"argv": list(argv), "kind": "traceback"})
        return [ops[i] for i in rng.permutation(len(ops))]

    def warmup(self):
        return {"argv": ["decompose", "ghz"], "kind": "ok"}

    def argv(self, op):
        files = set(self.states) | set(self.files) | {
            "twoparty.json", "mixed.json", "empty.json", "baddec.json", "bad.json",
            "nontrace.json", "missing.json"}
        return ["--output", self.out_path] + [self.path(a) if a in files else a
                                              for a in op["argv"]]

    def run(self, op):
        return self.wk.cli.main(self.argv(op))

    def read_output(self):
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        finally:
            if os.path.exists(self.out_path):
                os.remove(self.out_path)

    def check(self, op, out):
        doc = self.read_output()
        result = Outcome(expect=Counter({"cli.main": 1}))
        if op["kind"] == "traceback":
            if isinstance(out, BaseException):
                result.status, result.detail = "defect", "cli-traceback"
                return result
            require(out in (2, 3) and doc is not None and doc["status"] == "error",
                    f"{op['argv']}: no error envelope")
            return result
        require(not isinstance(out, BaseException), f"{op['argv']} raised {out!r}")
        require(doc is not None and set(doc) == {"status", "payload", "diagnostics"},
                f"{op['argv']}: malformed envelope")
        payload = doc["payload"]
        if op["kind"] == "error":
            require(out == op["status"] and doc["status"] == "error"
                    and payload["code"] == op["code"],
                    f"{op['argv']}: exit {out}, code {payload.get('code')}")
            if payload["code"] == "search-failed":
                result.expect["settings._als_restart"] = payload["restarts"]
            return result
        if op["kind"] == "search":
            # a feasible budget: failing is a reported outcome, not a failed op
            result.solved = out == 0
            if out == 3 and payload["code"] == "search-failed":
                result.expect["settings._als_restart"] = payload["restarts"]
                return result
        require(out == 0 and doc["status"] == "ok", f"{op['argv']}: exit {out}")
        self.check_payload(op["argv"], payload, result)
        return result

    # --- per-command checks: independent reference, then library agreement

    def check_payload(self, argv, payload, result):
        cmd, name = argv[0], argv[1]
        opts = dict(zip(argv[2::2], argv[3::2])) if cmd in ("witness", "decompose", "certify", "threshold") else {}
        alpha = float(opts["--alpha"]) if "--alpha" in opts else None
        beta = float(opts["--beta"]) if "--beta" in opts else None
        w_ref = oracle.witness_matrix(name, alpha, beta)
        n = int(round(math.log2(w_ref.shape[0])))
        if cmd == "witness":
            m = np.asarray(payload["matrix"]["real"]) + 1j * np.asarray(payload["matrix"]["imag"])
            require(np.abs(m - w_ref).max() <= 1e-12, "witness matrix")
            coeffs = oracle.pauli_coefficients(w_ref, n)
            letters = "1xyz"
            want = {"".join(letters[i] for i in t): coeffs[tuple(t)]
                    for t in np.argwhere(np.abs(coeffs) > 1e-12)}
            require(set(payload["pauli"]) == set(want)
                    and all(abs(payload["pauli"][k] - v) <= 1e-12 for k, v in want.items()),
                    "witness Pauli support")
        elif cmd == "decompose":
            dirs, weights = settings_of_json(payload["decomposition"])
            tol = 1e-7 if opts.get("--mode") == "search" else 1e-9
            require(np.linalg.norm(rebuild(dirs, weights) - w_ref) <= tol,
                    "decomposition does not rebuild the witness")
            mode = opts.get("--mode", "catalog")
            if mode in ("catalog", "paper"):
                want = 4 if "--variant" in opts else oracle.MIN_SETTINGS[name]
                require(payload["settings"] == want, "catalog setting count")
            elif mode == "cover":
                support = [tuple(int(i) for i in t) for t in np.argwhere(
                    np.abs(oracle.pauli_coefficients(w_ref, n)) > 1e-12)]
                key = (name, frozenset(opts["--axes"]))
                if key not in self.cache:
                    self.cache[key] = oracle.min_cover_size(
                        support, sorted(opts["--axes"]), n, 16)
                best = self.cache[key]
                require(payload["settings"] == best if "--greedy" not in argv
                        else payload["settings"] >= best, "cover size")
            else:
                require(payload["settings"] <= int(opts["--max"]), "search setting count")
                result.expect["settings._als_restart"] = payload["restarts_used"]
        elif cmd == "verify":
            dirs, weights = self.files[argv[2]]
            want = float(np.linalg.norm(rebuild(dirs, weights) - w_ref))
            require(abs(payload["residual"] - want) <= 1e-9 * max(1.0, want), "verify residual")
            require(payload["verified"] == (want < 1e-10), "verify flag")
        elif cmd == "certify":
            require(payload["bound"] == oracle.MIN_SETTINGS[name], f"certified bound {payload['bound']}")
            result.expect["certify.rank_one_elements_in_span"] = 3
        elif cmd == "classify":
            exact = oracle.expectation(w_ref, self.states[argv[2]])
            require(abs(payload["value"] - exact) <= 1e-9, "classify value")
            require(payload["label"] == oracle.verdict(name, payload["value"]), "classify label")
        elif cmd == "simulate":
            rho = self.states[argv[2]]
            exact = oracle.expectation(w_ref, rho)
            opts = dict(zip(argv[3::2], argv[4::2]))
            reports = payload["per_setting"]
            shots = [r["shots"] for r in reports]
            counts = [list(r["counts"].values()) for r in reports]
            dec = self.library("catalog", name)
            dirs, weights = decomposition_parts(dec)
            require(len(reports) == len(dirs), "one report per setting")
            check_allocation(opts.get("--allocation", "uniform"), int(opts["--shots"]), shots, counts)
            check_estimate(rho, dirs, weights, payload["estimate"], shots, exact)
            require(payload["verdict"] == oracle.verdict(name, payload["estimate"]), "simulate verdict")
            result.expect["simulate.outcome_probabilities"] = len(reports)
        elif cmd == "threshold":
            require(abs(payload["threshold"] - oracle.THRESHOLDS[name]) <= 1e-12, "threshold")
        self.check_library(argv, payload)

    def library(self, kind, *key):
        """witkit's own result for a command, computed once per distinct input."""
        k = (kind,) + key
        if k not in self.cache:
            wk = self.wk
            if kind == "catalog":
                self.cache[k] = wk.catalog_decomposition(key[0])
            elif kind == "certify":
                self.cache[k] = wk.lower_bound(wk.witnesses.catalog(key[0])).to_json_dict(key[0])
            elif kind == "search":
                c = wk.to_pauli(wk.witnesses.catalog(key[0]).operator)
                self.cache[k] = wk.decomposition_search(c, *key[1:])
        return self.cache[k]

    def check_library(self, argv, payload):
        wk = self.wk
        cmd, name = argv[0], argv[1]
        if cmd == "certify":
            require(payload == self.library("certify", name), "certify differs from the library")
        elif cmd == "decompose" and "--mode" not in argv and name == "ghz":
            want = wk.settings.decomposition_to_json_dict(self.library("catalog", "ghz"))
            require(payload["decomposition"] == want, "catalog differs from the library")
        elif cmd == "decompose" and "search" in argv:
            opts = dict(zip(argv[2::2], argv[3::2]))
            res = self.library("search", name, int(opts["--max"]),
                               int(opts["--restarts"]), int(opts["--seed"]))
            want = wk.settings.decomposition_to_json_dict(res.decomposition)
            require(payload["decomposition"] == want
                    and payload["restarts_used"] == res.restarts_used,
                    "search differs from the library")
        elif cmd == "simulate":
            opts = dict(zip(argv[3::2], argv[4::2]))
            rep = wk.estimate_witness(wk.DensityMatrix(3, self.states[argv[2]]),
                                      self.library("catalog", name), int(opts["--shots"]),
                                      int(opts["--seed"]),
                                      allocation=opts.get("--allocation", "uniform"))
            require(payload["estimate"] == rep.estimate
                    and [r["shots"] for r in payload["per_setting"]] == [r.shots for r in rep.per_setting],
                    "simulate differs from the library")


WORKLOADS = {w.name: w for w in (Sweep, Design, Certify, Cli)}

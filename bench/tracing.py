"""Span tracing of witkit's modules from outside the package.

``Tracer.install`` replaces each public function of every layer module
(plus the few private kernels named in ``EXTRA``) with a wrapper that
records a span: name, start, end and the enclosing span.  Names bound
elsewhere by ``from x import y``, including the package's re-exports,
are patched too, so every call path is seen.  Spans stay in memory;
``summary`` derives per-layer counts and times from them and ``write``
saves them when the run ends.

A span's self time is its duration minus the durations of its direct
children (calls are nested on one thread, so children never overlap).
A name's busy time is the summed duration of its outermost spans, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("linalg", "pauli", "settings", "simulate", "certify", "states",
          "witnesses", "cli", "rng")

# private kernels whose cost the per-layer table names
EXTRA = {"settings": ("_als_restart",), "certify": ("_batched_descent",)}

# classes whose construction is a span (the constructor validates input)
CLASSES = {"states": ("DensityMatrix",)}

ROOT = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.stack = [-1]
        self.active = False
        self.counters: Counter = Counter()
        self.wrapped: list = [ROOT]
        self._undo: list = []

    # --- recording ---------------------------------------------------------

    def open(self, name):
        i = len(self.starts)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0)
        self.stack.append(i)
        self.starts.append(time.perf_counter_ns())
        return i

    def close(self, i):
        self.ends[i] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn, observe):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if observe is not None:
                observe(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # --- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every layer module of ``package`` (the imported witkit)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                    continue
                name = f"{layer}.{attr}"
                self.wrapped.append(name)
                wrappers[id(obj)] = (obj, self._wrap(name, obj, _observer(name, obj)))
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                init = cls.__init__
                self._undo.append((cls, "__init__", init))
                self.wrapped.append(f"{layer}.{cls_name}")
                cls.__init__ = self._wrap(f"{layer}.{cls_name}", init, None)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # --- analysis -----------------------------------------------------------

    def summary(self):
        """Per-name calls, self and busy milliseconds, plus integrity checks.

        Returns ``(stats, problems)`` where ``stats[name]`` is a dict with
        ``calls``, ``self_ms`` and ``busy_ms`` and ``problems`` lists every
        way the span tree fails to reconcile.
        """
        parents = np.asarray(self.parents, dtype=np.int64)
        starts = np.asarray(self.starts, dtype=np.int64)
        ends = np.asarray(self.ends, dtype=np.int64)
        n = len(self.names)
        problems = []
        if self.stack != [-1]:
            problems.append(f"{len(self.stack) - 1} spans left open")
        dur = ends - starts
        child = np.zeros(n, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ns = dur - child
        if n and self_ns.min() < 0:
            problems.append("a span is shorter than its children")
        inner = np.nonzero(has_parent)[0]
        p = parents[inner]
        if np.any(starts[inner] < starts[p]) or np.any(ends[inner] > ends[p]):
            problems.append("a child span leaves its parent's interval")
        roots = ~has_parent
        root_total = int(dur[roots].sum())
        if int(self_ns.sum()) != root_total:
            problems.append("self times do not add up to the root spans")
        if any(self.names[i] != ROOT for i in np.nonzero(roots)[0]):
            problems.append("a witkit span ran outside an operation")

        outermost = np.ones(n, dtype=bool)
        for i in range(n):
            name = self.names[i]
            j = self.parents[i]
            while j >= 0:
                if self.names[j] == name:
                    outermost[i] = False
                    break
                j = self.parents[j]

        stats = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "busy_ms": 0.0})
        for i, name in enumerate(self.names):
            s = stats[name]
            s["calls"] += 1
            s["self_ms"] += self_ns[i] / 1e6
            if outermost[i]:
                s["busy_ms"] += dur[i] / 1e6
        for name, s in stats.items():
            if s["busy_ms"] + 1e-9 < s["self_ms"]:
                problems.append(f"{name}: busy time below self time")
        return dict(stats), problems

    def write(self, path):
        """Save the spans as tab-separated id, parent, name, start, end (ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


# --- counters taken from arguments and results -------------------------------

def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return bind


def _observer(name, fn):
    if name == "simulate.estimate_witness":
        def observe(c, args, kwargs, result):
            c["simulate.shots"] += sum(int(r.shots) for r in result.per_setting)
        return observe
    if name == "settings.decomposition_search":
        def observe(c, args, kwargs, result):
            c["settings.search.solved"] += bool(result.success)
        return observe
    if name == "certify.rank_one_elements_in_span":
        bind = _bound(fn)

        def observe(c, args, kwargs, result):
            c["certify.rank_one.restarts"] += int(bind(args, kwargs)["restarts"])
            c["certify.rank_one.elements"] += len(result.elements)
            c["certify.rank_one.exhausted"] += bool(result.exhausted)
        return observe
    if name == "cli.json_dumps":
        def observe(c, args, kwargs, result):
            c["cli.json_dumps.bytes"] += len(result.encode("utf-8"))
        return observe
    return None


COUNTERS = ("simulate.shots", "settings.search.solved", "certify.rank_one.restarts",
            "certify.rank_one.elements", "certify.rank_one.exhausted", "cli.json_dumps.bytes")


def layer_metrics(stats, counters, names):
    """Flatten span statistics and counters into per-layer metric values.

    Every traced name appears, with zeros where the workload never called it.
    """
    out = dict.fromkeys(COUNTERS, 0)
    stats = {**{name: {"calls": 0, "self_ms": 0.0, "busy_ms": 0.0} for name in names}, **stats}
    for name, s in stats.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_ms"] = s["self_ms"]
        out[f"{name}.busy_ms"] = s["busy_ms"]
    for layer in LAYERS:
        own = [s for name, s in stats.items() if name.startswith(layer + ".")]
        out[f"{layer}.calls"] = sum(s["calls"] for s in own)
        out[f"{layer}.self_ms"] = sum(s["self_ms"] for s in own)
    out.update(counters)

    def get(key):
        return out.get(key, 0)

    restarts = get("settings._als_restart.calls")
    out["settings.search.restarts"] = restarts
    out["settings.search.ms_per_restart"] = (
        get("settings._als_restart.busy_ms") / restarts if restarts else 0.0)
    searches = get("settings.decomposition_search.calls")
    out["settings.search.solved_ratio"] = (
        get("settings.search.solved") / searches if searches else 0.0)
    r1 = get("certify.rank_one.restarts")
    out["certify.rank_one.yield"] = get("certify.rank_one.elements") / r1 if r1 else 0.0
    r1_calls = get("certify.rank_one_elements_in_span.calls")
    out["certify.exhausted_ratio"] = (
        get("certify.rank_one.exhausted") / r1_calls if r1_calls else 0.0)
    out["bench.glue_ms"] = stats.get(ROOT, {}).get("self_ms", 0.0)
    return out

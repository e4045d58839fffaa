"""Call spans around gepnerstab's public functions, installed from outside.

The tracer replaces every public function of the package, in every module
namespace that binds it, with a wrapper that times the call.  A call is
named after the module that defines it (``gfield.span``,
``hearts.phase_key``), so a call from ``quiverrep`` into ``gfield`` is
attributed to ``gfield``.  Besides module functions, the rich comparisons
of ``hearts.PhaseKey`` (one name, ``hearts.PhaseKey.compare``) and
``quiverrep.StabilitySpec.key`` (``quiverrep.key``) are wrapped.  Private
helpers and the methods of the value classes (``CycloNum``, ``Poly``) are
not wrapped: their time counts as self time of the wrapped caller.

Every wrapped call is counted and timed.  Self time is the call's
duration minus the durations of the wrapped calls it made.  The hot
helpers are aggregated: calls inside ``gfield`` (``span`` to ``rref`` and
the like) and most calls inside ``exactmath`` are not wrapped, so the self
time of a function called from outside includes its helpers, and the
``LEAVES`` take a cheaper wrapper that keeps no frame.  Calls outside ``AGGREGATED`` and at
most ``MAX_SPAN_DEPTH`` levels below an operation also keep a span record
``(id, name, start, end, parent id, op id)`` in memory, so a traced run's
memory stays bounded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from fractions import Fraction

PACKAGE = "gepnerstab"
LAYERS = (
    "quiverrep",
    "gfield",
    "hearts",
    "exactmath",
    "extcalc",
    "mfcore",
    "geomcharge",
    "classify",
    "polynomials",
    "cli",
)
MAX_SPAN_DEPTH = 3

# Calls inside these modules are not wrapped, except calls to the listed functions: their
# helpers (gfield.rref, exactmath.euler_phi) are called hundreds of thousands of times per
# pass, so their time counts as self time of the function called from outside.
INNER_UNWRAPPED = {"gfield": (), "exactmath": ("embed", "sign_real")}
# wrapped functions that call no other wrapped function: a cheaper wrapper that keeps no frame
LEAF_LAYERS = ("gfield",)
LEAVES = ("exactmath.cyclo",)
# called per subrepresentation class or per comparison: counted and timed, no span record
AGGREGATED_LAYERS = ("gfield", "exactmath")
AGGREGATED = ("quiverrep.key", "hearts.PhaseKey.compare")
# callees whose calls are also counted per caller
EDGE_CALLEES = ("exactmath.embed", "hearts.phase_key", "hearts.slope_mu")

# (module, class, method, span name)
METHODS = [("hearts", "PhaseKey", m, "hearts.PhaseKey.compare") for m in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")]
METHODS.append(("quiverrep", "StabilitySpec", "key", "quiverrep.key"))

# span name -> (counter name, function of the call's result)
RESULT_COUNTERS = {
    "quiverrep.subrep_classes": ("classes", len),
    "gfield.superspaces": ("yielded", len),
    "exactmath.phase_of": ("exact", lambda r: isinstance(r, Fraction)),
}


class Tracer:
    def __init__(self):
        # frame: [name, child time, depth, span id]
        self._root = ["bench", 0.0, 0, None]
        self._stack = [self._root]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.edges: dict[tuple[str, str], int] = {}  # (caller, callee) -> calls
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._next_id = 0
        self._op_id = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules[""] = importlib.import_module(PACKAGE)
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(PACKAGE + "."):
                    continue
                if home == mod.__name__ and layer in INNER_UNWRAPPED and attr not in INNER_UNWRAPPED[layer]:
                    continue
                key = id(obj)
                if key not in wrappers:
                    name = f"{home.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[key] = self._wrap(obj, name)
                self._patch(mod, attr, wrappers[key])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._wrap(cls.__dict__[meth], name))
        return self

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _wrap(self, fn, name):
        if name.split(".", 1)[0] in LEAF_LAYERS or name in LEAVES:
            return self._wrap_leaf(fn, name)
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges if name in EDGE_CALLEES else None
        spans = self.spans
        max_depth = -1 if name in AGGREGATED or name.split(".", 1)[0] in AGGREGATED_LAYERS else MAX_SPAN_DEPTH
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            depth = parent[2] + 1
            sid = None
            if depth <= max_depth:
                sid = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, depth, sid if sid is not None else parent[3]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if edges is not None:
                    edge = (parent[0], name)
                    edges[edge] = edges.get(edge, 0) + 1
                if sid is not None:
                    spans.append((sid, name, t0, t1, parent[3], tracer._op_id))
            if counter is not None:
                key = f"{name}.{counter[0]}"
                tracer.counters[key] = tracer.counters.get(key, 0) + int(counter[1](result))
            return result

        return wrapper

    def _wrap_leaf(self, fn, name):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        counters = self.counters

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack[-1][1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
            if counter is not None:
                key = f"{name}.{counter[0]}"
                counters[key] = counters.get(key, 0) + int(counter[1](result))
            return result

        return leaf

    # -- operations ----------------------------------------------------------

    @contextmanager
    def op(self, name: str, op_id):
        """Span of one benchmark operation; calls inside belong to op_id."""
        sid = self._next_id
        self._next_id += 1
        frame = [name, 0.0, 0, sid]
        self._stack.append(frame)
        self._op_id = op_id
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._op_id = None
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += t1 - t0
            stat[2] += t1 - t0 - frame[1]
            self.spans.append((sid, name, t0, t1, None, op_id))

    # -- results -------------------------------------------------------------

    def aggregates(self) -> dict:
        """Counts and times, JSON-serializable and mergeable across processes."""
        return {
            "stats": {k: v for k, v in self.stats.items() if v[0]},
            "edges": [[a, b, n] for (a, b), n in self.edges.items()],
            "counters": dict(self.counters),
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def merge(parts: list[dict]) -> dict:
    out = {"stats": {}, "edges": {}, "counters": {}, "spans": 0}
    for part in parts:
        for k, (c, tot, self_s) in part["stats"].items():
            acc = out["stats"].setdefault(k, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += tot
            acc[2] += self_s
        for a, b, n in part["edges"]:
            out["edges"][(a, b)] = out["edges"].get((a, b), 0) + n
        for k, n in part["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + n
        out["spans"] += part["spans"]
    return out


def layer_metrics(agg: dict, passes: int) -> dict:
    """The per-layer metric values of merged aggregates, per measured pass."""
    stats, edges, counters = agg["stats"], agg["edges"], agg["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for layer in LAYERS:
        names = [k for k in stats if k.split(".", 1)[0] == layer]
        put(f"{layer}.calls", sum(calls(k) for k in names) / passes, "count/pass")
        put(f"{layer}.self_s", sum(self_s(k) for k in names) / passes, "s/pass")

    for name in (
        "quiverrep.subrep_classes",
        "quiverrep.hn_filtration",
        "quiverrep.is_stable",
        "quiverrep.key",
        "gfield.superspaces",
        "gfield.extend_to_dim",
        "gfield.count_superspaces",
        "gfield.span",
        "hearts.phase_key",
        "hearts.PhaseKey.compare",
        "hearts.slope_mu",
        "exactmath.sign_real",
        "exactmath.embed",
        "exactmath.phase_of",
        "extcalc.ext_cc",
        "extcalc.ext_cm",
    ):
        put(f"{name}.calls", calls(name) / passes, "count/pass")
        put(f"{name}.self_s", self_s(name) / passes, "s/pass")
    for name in (
        "gfield.field_for",
        "hearts.lattice_for",
        "hearts.phase_table",
        "hearts.finite_phases",
        "extcalc.yoneda_relations",
        "mfcore.koszul_c",
        "mfcore.zg",
        "geomcharge.constants",
        "classify.enumerate_types",
        "cli.main",
    ):
        put(f"{name}.self_s", self_s(name) / passes, "s/pass")

    put("quiverrep.subrep_classes.classes", counters.get("quiverrep.subrep_classes.classes", 0) / passes, "count/pass")
    put("gfield.superspaces.yielded", counters.get("gfield.superspaces.yielded", 0) / passes, "count/pass")
    put(
        "quiverrep.witness_ops.self_s",
        (self_s("quiverrep.subrep_restriction") + self_s("quiverrep.quotient_rep")) / passes,
        "s/pass",
    )
    misses = edges.get(("quiverrep.key", "hearts.phase_key"), 0) + edges.get(("quiverrep.key", "hearts.slope_mu"), 0)
    put("quiverrep.key.miss_ratio", ratio(misses, calls("quiverrep.key")), "ratio")
    embeds = edges.get(("exactmath.sign_real", "exactmath.embed"), 0)
    put("exactmath.sign_real.embeds_per_call", ratio(embeds, calls("exactmath.sign_real")), "ratio")
    put(
        "exactmath.phase_of.exact_ratio",
        ratio(counters.get("exactmath.phase_of.exact", 0), calls("exactmath.phase_of")),
        "ratio",
    )
    put("trace.spans", agg["spans"] / passes, "count/pass")
    put("trace.wrapped_calls", sum(v[0] for k, v in stats.items() if not k.startswith("bench.")) / passes, "count/pass")
    return out

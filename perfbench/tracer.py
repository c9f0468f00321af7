"""Span tracing of qiso's layers from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a timing wrapper, in every loaded module namespace that binds it.
qiso imports with `from .transport import ...`, so patching only the
defining module would miss the calls made through those other bindings.
Each call becomes one span (name, parent, start, end) kept in memory;
`aggregate()` turns spans into calls, total time and self time per
function, where self time is the span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter

TRACED_MODULES = ("transport", "isometry", "coaction", "algebra",
                  "quantum_group", "envelope", "reports")

# functions whose result length is summed into a `<name>.vertices` counter
_COUNT_RESULTS = ("transport.enumerate_lipschitz_vertices",
                  "transport.enumerate_boxed_dual_vertices")


class Tracer:
    def __init__(self):
        self.names: list = []      # span name, one entry per span
        self.parent: list = []     # index of the enclosing span, -1 at top
        self.start: list = []
        self.end: list = []
        self.results: dict = {name: 0 for name in _COUNT_RESULTS}
        self._stack: list = []
        self._patched: list = []   # (namespace dict, attribute, original)

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn):
        names, parent, start, end = self.names, self.parent, self.start, self.end
        stack = self._stack
        count_result = name in self.results

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if count_result:
                self.results[name] += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the traced modules."""
        originals = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"qiso.{short}")
            for attr, value in vars(mod).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    originals[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._patched.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        return aggregate(self.names, self.parent, self.start, self.end)

    def write(self, path: str) -> None:
        """One line per span: id, parent id, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, (name, par, t0, t1) in enumerate(
                    zip(self.names, self.parent, self.start, self.end)):
                fh.write(f"{sid}\t{par}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    def layer_metrics(self, items: int) -> dict:
        """The per-layer metrics of one traced run, per timed item."""
        return layer_metrics(self.aggregate(), self.names, self.parent,
                             self.results, items)


def aggregate(names, parent, start, end) -> dict:
    """{name: {"calls", "total_s", "self_s"}} from spans.  A span's self
    time is its duration minus the durations of its direct children, which
    are disjoint because the traced program runs on one thread."""
    child_time = [0.0] * len(names)
    for sid, par in enumerate(parent):
        if par >= 0:
            child_time[par] += end[sid] - start[sid]
    out: dict = {}
    for sid, name in enumerate(names):
        dur = end[sid] - start[sid]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[sid]
    return out


# traced function -> the stats reported for it
_STATS = {
    "transport.min_cost_flow": ("calls", "self_s"),
    "transport.feasible_coupling_on": ("calls", "self_s"),
    "transport.kantorovich_w1": ("total_s",),
    "transport.solve_transport": ("self_s",),
    "transport.enumerate_boxed_dual_vertices": ("calls", "self_s"),
    "transport.enumerate_lipschitz_vertices": ("calls", "self_s"),
    "isometry.check_theorem_main": ("self_s",),
    "isometry.check_winf_universal": ("self_s",),
    "isometry.check_lip_p_universal": ("self_s",),
    "isometry.check_lip1_universal": ("self_s",),
    "isometry.check_lip_p_state": ("calls", "self_s"),
    "isometry.check_D": ("self_s",),
    "algebra.hermitian_max_eig": ("calls",),
    "algebra.exact_psd": ("calls",),
    "coaction.act_on_point": ("calls", "self_s"),
    "coaction.a_element": ("calls", "self_s"),
    "coaction.verify_coaction": ("self_s",),
    "quantum_group.verify_quantum_group": ("calls", "self_s"),
    "quantum_group.haar_state": ("self_s",),
    "envelope.envelope": ("self_s",),
    "reports.verify_instance": ("total_s",),
    "reports.build_instance": ("self_s",),
    "reports.emit_report": ("self_s",),
}

# metric name -> unit; every per-layer metric the traced run reports
UNITS = {f"{name}.{stat}": ("calls/item" if stat == "calls" else "s/item")
         for name, stats in _STATS.items() for stat in stats}
UNITS.update({
    "transport.wasserstein_inf.probes_per_call": "probes/call",
    "transport.enumerate_boxed_dual_vertices.vertices": "vertices/item",
    "transport.enumerate_lipschitz_vertices.vertices": "vertices/item",
    "isometry.vertex_cache.hit_ratio": "ratio",
    "trace.overhead": "ratio",
})


def _children_of(names, parent, child: str, parents: tuple) -> int:
    return sum(1 for sid, name in enumerate(names)
               if name == child and parent[sid] >= 0
               and names[parent[sid]] in parents)


def layer_metrics(agg: dict, names, parent, results: dict, items: int) -> dict:
    """Per-layer metrics, each count and time divided by the number of
    timed items; ratios are per call.  `trace.overhead` is added by the
    caller, which also ran the untraced twin."""
    items = max(items, 1)
    out = {}
    for name, stats in _STATS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = agg.get(name, {}).get(stat, 0) / items
    winf_calls = agg.get("transport.wasserstein_inf", {}).get("calls", 0)
    probes = _children_of(names, parent, "transport.feasible_coupling_on",
                          ("transport.wasserstein_inf",))
    out["transport.wasserstein_inf.probes_per_call"] = \
        probes / winf_calls if winf_calls else 0.0
    for name in _COUNT_RESULTS:
        out[f"{name}.vertices"] = results[name] / items
    lookups = sum(agg.get(f"isometry.{n}", {}).get("calls", 0)
                  for n in ("lipschitz_vertices_cached", "boxed_vertices_cached"))
    enumerations = sum(
        _children_of(names, parent, name, ("isometry.lipschitz_vertices_cached",
                                           "isometry.boxed_vertices_cached"))
        for name in _COUNT_RESULTS)
    out["isometry.vertex_cache.hit_ratio"] = 1 - enumerations / lookups if lookups else 0.0
    return out

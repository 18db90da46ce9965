"""Outside-in spans around drgkit's layer functions.

The wrappers are installed from outside: no file of the program changes.
Because ``from .x import y`` copies the function into the importing module,
every module attribute of the ``drgkit`` package that is bound to a traced
function is replaced, not only the defining one.  The self-test checks with a
profiler hook that every call of a target goes through its wrapper.  Spans are kept in memory and aggregated per operation.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import defaultdict

# (module, function) pairs; the span name is "<module>.<function>"
TARGETS = (
    ("cli", "main"),
    ("analysis", "analyze_graph"),
    ("analysis", "report_to_json"),
    ("graph_core", "load_graph"),
    ("graph_core", "distances"),
    ("scheme", "verify_drg"),
    ("scheme", "eigen_data"),
    ("scheme", "krein"),
    ("spectra", "subconstituent_spectrum"),
    ("exactla", "charpoly_int"),
    ("exactla", "eigenvalues_from_charpoly"),
    ("terwilliger", "terwilliger_dimension"),
    ("tmodules", "decompose_srg"),
    ("tmodules", "decompose_taylor"),
    ("tmodules", "decompose_at4"),
    ("pvt", "check_pvt"),
    ("pvt", "t_isomorphic_srg"),
)


def _graph_key(g) -> str:
    return hashlib.blake2b(g.adjacency.tobytes(), digest_size=8).hexdigest()


# span name -> function(args, result) -> {counter: value}; keys for "distinct"
def _closure_info(a, r):
    return {"key": (_graph_key(a[0]), int(a[1])), "dim": int(r)}


def _subconstituent_info(a, r):
    return {"key": (_graph_key(a[0]), int(a[1]), int(a[2])), "float": int(not r.exact)}


def _charpoly_info(a, r):
    return {"order": len(a[0])}


def _eigen_data_info(a, r):
    return {"float": int(not r.exact)}


OBSERVERS = {
    "terwilliger.terwilliger_dimension": _closure_info,
    "spectra.subconstituent_spectrum": _subconstituent_info,
    "exactla.charpoly_int": _charpoly_info,
    "scheme.eigen_data": _eigen_data_info,
}


class Tracer:
    """Installs span wrappers on every binding of the target functions."""

    def __init__(self):
        self.spans: list = []    # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self.originals = {}      # span name -> original function
        self._wrappers = {}      # span name -> wrapper
        for mod, fn in TARGETS:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"drgkit.{mod}"], fn)
            self.originals[name] = original
            self._wrappers[name] = self._wrap(name, original)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return wrapper

    def _bindings(self, funcs):
        """(module, attribute, span name) for every drgkit binding of funcs."""
        by_id = {id(f): name for name, f in funcs.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "drgkit" and not modname.startswith("drgkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    yield mod, attr, by_id[id(value)]

    def install(self):
        for mod, attr, name in list(self._bindings(self.originals)):
            setattr(mod, attr, self._wrappers[name])

    def uninstall(self):
        for mod, attr, name in list(self._bindings(self._wrappers)):
            setattr(mod, attr, self.originals[name])

    def take(self) -> list:
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans) -> dict:
    """Per span name: calls, self seconds, counters and the set of distinct keys."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    agg = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "keys": set(),
                               "dim_sum": 0, "dim_max": 0, "order_sum": 0,
                               "order_max": 0, "float": 0})
    roots = 0.0
    for i, (name, t0, t1, parent, info) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["self_s"] += (t1 - t0) - child_time[i]
        if parent < 0:
            roots += t1 - t0
        if info:
            if "key" in info:
                a["keys"].add(info["key"])
            if "dim" in info:
                a["dim_sum"] += info["dim"]
                a["dim_max"] = max(a["dim_max"], info["dim"])
            if "order" in info:
                a["order_sum"] += info["order"]
                a["order_max"] = max(a["order_max"], info["order"])
            a["float"] += info.get("float", 0)
    return {"layers": dict(agg), "root_s": roots}

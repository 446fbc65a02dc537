"""
Call tracing for the traced passes, installed from outside the library.

Every public function of the qbg modules, and every public method of the
classes they define, is replaced by a timing wrapper in each qbg module
namespace that holds it (``from .x import f`` copies the name, so
``tiltedorder.valid_shifts`` and ``exactgeom.interval_member_set`` are
patched too) and in ``suites.SUITES``.  Counts and inclusive and self
time are kept per function in memory; self time is inclusive time minus
the inclusive time of wrapped calls made inside it.  A generator function
is timed only while it builds its generator; the consumer pays for the
iteration.

The wrappers' own cost is measured on an empty function before they are
installed and taken out of the reported times: the part inside a call's
timed span from that call, and the part outside it from its caller.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

from workloads import LAYERS

# Metric groups: outermost calls into any of these functions.  A call made
# from inside another member of the same group (distances_from calls
# distance_vector_from) is part of the outer one and is not counted again.
GROUPS = {
    "qbgraph.build": ["qbgraph.build_graph"],
    "qbgraph.bfs": [
        "qbgraph.QuantumBruhatGraph.distance_vector_from",
        "qbgraph.QuantumBruhatGraph.distance_vector_to",
        "qbgraph.QuantumBruhatGraph.distances_from",
        "qbgraph.QuantumBruhatGraph.distances_to",
    ],
    "qbgraph.formula": ["qbgraph.formula_weight", "qbgraph.graph_distance"],
    "qbgraph.greedy": ["qbgraph.bfp_greedy_path"],
    "qbgraph.export": ["qbgraph.export_graph"],
    "latticepath.valid_shifts": ["latticepath.valid_shifts"],
    "tiltedorder.criterion": ["tiltedorder.interval_members_criterion"],
    "tiltedorder.member_set": ["tiltedorder.interval_member_set"],
    "diagrams.equations": ["diagrams.equations", "diagrams.equations_with_x"],
    "exactgeom.rank_region": ["exactgeom.rank_region"],
    "exactgeom.plucker": ["exactgeom.Flag.plucker"],
    "exactgeom.member_rank": ["exactgeom.member_T_rank"],
    "exactgeom.member_grassmann": ["exactgeom.member_T_grassmann"],
    "exactgeom.member_plucker": ["exactgeom.member_T_plucker"],
    "exactgeom.sample": ["exactgeom.sample_in_open_stratum"],
    "exactgeom.stratum": ["exactgeom.stratum"],
    "exactgeom.flags_built": ["exactgeom.Flag.__init__"],
}
GROUPED = {key for keys in GROUPS.values() for key in keys}
KINDS = ("plain", "group")


class Tracer:
    """Owns the per-function statistics of one traced pass."""

    def __init__(self) -> None:
        # stats[key] = [calls, inclusive s, self s, plain calls and group
        # calls made directly inside]
        self.stats: dict[str, list] = {}
        # groups[name] = [depth, outermost calls, outermost s, plain calls
        # and group calls made anywhere inside them]
        self.groups: dict[str, list] = {g: [0, 0, 0.0, 0, 0] for g in GROUPS}
        self.kind: dict[str, str] = {}
        self.edges_built = 0
        # Frames of [child s, plain child calls, group child calls]; the
        # bottom frame sums the top-level calls.
        self._stack = [[0.0, 0, 0]]
        # Wrapped calls so far: plain, group.
        self._calls = [0, 0]
        self._suite_keys: dict[str, str] = {}
        self._replaced: dict[int, object] = {}  # id of an original -> its wrapper
        # Wrapper cost per call, by kind: (inside the callee's timed span,
        # outside it, paid by the caller).
        self.cost = {kind: (0.0, 0.0) for kind in KINDS}
        self._calibrations: dict[str, list] = {kind: [] for kind in KINDS}

    def _wrap(self, fn, key: str, group: list | None = None):
        stack, calls = self._stack, self._calls
        st = self.stats[key] = [0, 0.0, 0.0, 0, 0]
        self.kind[key] = "plain" if group is None else "group"
        on_return = self._count_edges if key == "qbgraph.build_graph" else None

        if group is None:
            def wrapper(*args, **kwargs):
                frame = [0.0, 0, 0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += 1
                    calls[0] += 1
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[0]
                    st[3] += frame[1]
                    st[4] += frame[2]
        else:
            def wrapper(*args, **kwargs):
                outer = group[0] == 0
                group[0] += 1
                plain0, group0 = calls
                frame = [0.0, 0, 0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    parent = stack[-1]
                    parent[0] += dt
                    parent[2] += 1
                    group[0] -= 1
                    if outer:
                        group[1] += 1
                        group[2] += dt
                        group[3] += calls[0] - plain0
                        group[4] += calls[1] - group0
                    calls[1] += 1
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[0]
                    st[3] += frame[1]
                    st[4] += frame[2]
                if on_return is not None:
                    on_return(result)
                return result

        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__doc__ = fn.__doc__
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def calibrate(self, rounds: int = 7, n: int = 20000) -> None:
        """Measure each wrapper kind's own cost per call on an empty
        function (the cheapest of several rounds), and split it into the
        part inside the callee's timed span and the part the caller pays.
        It runs before install and again after the pass: the host's speed
        can differ between the two, so the cost used is their mean."""
        def empty(a, b):
            return None

        def loop(f) -> float:
            t0 = perf_counter()
            for i in range(n):
                f(i, n)
            return perf_counter() - t0

        saved = [list(frame) for frame in self._stack], list(self._calls)
        for kind in KINDS:
            best = None
            for _ in range(rounds):
                wrapped = self._wrap(empty, "calibrate", None if kind == "plain" else [0] * 5)
                bare = loop(empty)
                full = (loop(wrapped) - bare) / n
                inside = self.stats.pop("calibrate")[1] / n
                if best is None or full < best[0]:
                    best = (full, inside)
            self._calibrations[kind].append((best[1], max(best[0] - best[1], 0.0)))
            seen = self._calibrations[kind]
            self.cost[kind] = tuple(sum(part) / len(seen) for part in zip(*seen))
        del self.kind["calibrate"]
        self._stack[:], self._calls[:] = saved

    def _count_edges(self, graph) -> None:
        self.edges_built += self._edge_count(graph)

    def install(self) -> None:
        """Calibrate, then wrap every public callable of the qbg modules
        (import them first)."""
        self.calibrate()
        replaced = self._replaced
        self._member_set = sys.modules["qbg.tiltedorder"].interval_member_set
        self._edge_count = sys.modules["qbg.qbgraph"].QuantumBruhatGraph.edge_count
        suites = sys.modules["qbg.suites"]
        group_of = {key: self.groups[g] for g, keys in GROUPS.items() for key in keys}
        for suite, (fn, _) in suites.SUITES.items():
            key = self._suite_keys[suite] = f"suites.{fn.__name__}"
            group_of[key] = self.groups[key] = [0, 0, 0.0, 0, 0]
        for layer in LAYERS:
            mod = sys.modules[f"qbg.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        key = f"{layer}.{name}.{mname}"
                        if inspect.isfunction(meth) and (not mname.startswith("_") or key in GROUPED):
                            setattr(obj, mname, self._wrap(meth, key, group_of.get(key)))
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    key = f"{layer}.{name}"
                    replaced[id(obj)] = self._wrap(obj, key, group_of.get(key))
        for modname, mod in list(sys.modules.items()):
            if modname != "qbg" and not modname.startswith("qbg."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
        for suite, (fn, default_n) in list(suites.SUITES.items()):
            if id(fn) in replaced:
                suites.SUITES[suite] = (replaced[id(fn)], default_n)

    def unpatched(self) -> list[str]:
        """Places in the qbg modules that still hold an original of a
        wrapped function after install: a module global, or an item of a
        module-level dict, list or tuple, or of one nested in it (as
        ``suites.SUITES`` holds its functions).  Calls through any of them
        would escape the trace."""
        found = []

        def walk(obj, where: str, depth: int) -> None:
            if id(obj) in self._replaced:
                found.append(where)
            elif depth < 2 and isinstance(obj, dict):
                for k, v in list(obj.items()):
                    walk(v, f"{where}[{k!r}]", depth + 1)
            elif depth < 2 and isinstance(obj, (list, tuple)):
                for i, v in enumerate(obj):
                    walk(v, f"{where}[{i}]", depth + 1)

        for modname, mod in sorted(sys.modules.items()):
            if modname == "qbg" or modname.startswith("qbg."):
                for name, obj in list(vars(mod).items()):
                    walk(obj, f"{modname}.{name}", 0)
        return found

    def _self_s(self, key: str) -> float:
        calls, _, self_s, plain_inside, group_inside = self.stats[key]
        return (self_s - calls * self.cost[self.kind[key]][0]
                - plain_inside * self.cost["plain"][1] - group_inside * self.cost["group"][1])

    def _group_s(self, name: str) -> float:
        _, calls, seconds, plain_inside, group_inside = self.groups[name]
        return (seconds - calls * self.cost["group"][0]
                - plain_inside * sum(self.cost["plain"]) - group_inside * sum(self.cost["group"]))

    def accounts(self) -> dict[str, float]:
        """Where the traced time went: module self times, the estimated
        wrapper cost, and the top-level wrapped time before corrections.
        The rest of the pass's time is outside any wrapped call."""
        top_s, plain_top, group_top = self._stack[0]
        return {
            "self_s": sum(self._self_s(key) for key in self.stats),
            "instrumentation_s": sum(n * sum(self.cost[kind]) for kind, n in zip(KINDS, self._calls)),
            "top_level_s": top_s + plain_top * self.cost["plain"][1] + group_top * self.cost["group"][1],
            "cost_plain_us": 1e6 * sum(self.cost["plain"]),
            "cost_group_us": 1e6 * sum(self.cost["group"]),
        }

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass, named as in workloads.PER_LAYER."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            keys = [key for key in self.stats if key.split(".")[0] == layer]
            out[f"{layer}.self_s"] = sum(self._self_s(key) for key in keys)
            out[f"{layer}.calls"] = sum(self.stats[key][0] for key in keys)
        g = self.groups
        out["qbgraph.build_s"] = self._group_s("qbgraph.build")
        out["qbgraph.builds"] = g["qbgraph.build"][1]
        out["qbgraph.edges_built"] = self.edges_built
        out["qbgraph.bfs_calls"] = g["qbgraph.bfs"][1]
        out["qbgraph.bfs_s"] = self._group_s("qbgraph.bfs")
        out["qbgraph.formula_calls"] = g["qbgraph.formula"][1]
        out["qbgraph.formula_s"] = self._group_s("qbgraph.formula")
        out["qbgraph.greedy_s"] = self._group_s("qbgraph.greedy")
        out["qbgraph.export_s"] = self._group_s("qbgraph.export")
        out["latticepath.valid_shifts_calls"] = g["latticepath.valid_shifts"][1]
        out["tiltedorder.criterion_calls"] = g["tiltedorder.criterion"][1]
        out["tiltedorder.member_set_calls"] = g["tiltedorder.member_set"][1]
        info = self._member_set.cache_info()
        lookups = info.hits + info.misses
        out["tiltedorder.member_set_hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["tiltedorder.member_set_entries"] = info.currsize
        out["diagrams.equations_s"] = self._group_s("diagrams.equations")
        for name in ("rank_region", "plucker", "sample"):
            out[f"exactgeom.{name}_calls"] = g[f"exactgeom.{name}"][1]
            out[f"exactgeom.{name}_s"] = self._group_s(f"exactgeom.{name}")
        for name in ("member_rank", "member_grassmann", "member_plucker", "stratum"):
            out[f"exactgeom.{name}_s"] = self._group_s(f"exactgeom.{name}")
        out["exactgeom.flags_built"] = g["exactgeom.flags_built"][1]
        for suite, key in self._suite_keys.items():
            out[f"suites.{suite}_s"] = self._group_s(key)
        return out

    def cache_counts(self) -> dict[str, int]:
        info = self._member_set.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def table(self) -> dict[str, list]:
        """Per-function [calls, inclusive s, self s as measured, self s with
        the wrapper cost taken out], for the written trace."""
        return {key: [*st[:3], self._self_s(key)] for key, st in sorted(self.stats.items())}

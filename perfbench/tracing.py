"""Per-layer tracing of the program from outside.

``Tracer.install()`` replaces each public function of the program's modules
(and ``HerglotzField.build``, the ``Generator`` constructor and
``cli.main``) by a wrapper, under every module name a caller looks it up
by, so ``evolution.compose_arrays`` is wrapped as well as
``kernels.compose_arrays``.  ``uninstall()`` puts the originals back.
Nothing inside ``src/`` changes.

Each wrapped call is one span: layer, parent span, request (the CLI call
it belongs to), start and end.  Spans are kept in memory and written out
by ``write_spans`` when the run ends.  Per layer the tracer also keeps
calls, inclusive seconds (outermost calls only, so recursion is not
counted twice), self seconds (inclusive minus the spans directly below),
calls that raised, and work counts computed from the arguments.
"""

from __future__ import annotations

import importlib
import inspect
import math
import statistics
import sys
import time
import types
from array import array

import numpy as np

MODULES = ("jets", "kernels", "fourier", "generators", "catalog", "bounds", "evolution", "search", "descriptions", "cli")

# layers whose metrics cover the whole traced process (set-up included):
# their work happens when a cache is filled, which set-up does on purpose
WHOLE_RUN_LAYERS = ("kernels.basis_tables",)

# per-layer counters of the traced run, besides calls / s / self_s / failed
_COUNTERS = ("steps", "point_steps", "points")


def _step_count(s: float, t: float, step: float, breakpoints) -> int:
    """RK4 steps between s and t: the grid k*step, the breakpoints, the ends."""
    if not t > s:
        return 0
    nodes = [s, t]
    nodes.extend(step * k for k in range(math.floor(s / step) + 1, math.ceil(t / step)))
    nodes.extend(b for b in breakpoints if s < b < t)
    nodes.sort()
    merge = 1e-12 + 1e-9 * step
    kept = [nodes[0]]
    for u in nodes[1:]:
        if u - kept[-1] > merge:
            kept.append(u)
    return len(kept) - 1


def _rows(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


def _rk4_counts(bound) -> dict:
    return {"steps": int(np.size(bound.arguments["hs"]))}


def _evolve_point_counts(bound) -> dict:
    a = bound.arguments
    steps = _step_count(a["s"], a["t"], a["step"], a["field"].breakpoints)
    return {"point_steps": _rows(a["z"]) * steps}


def _membership_counts(bound) -> dict:
    g, grid = bound.arguments["g"], bound.arguments["grid"]
    per_companion = sum(1 if f == 0.0 else grid.angle_count for f in grid.companion_factors)
    total = 0
    for j in range(g.dim):
        deps = g.margin_deps[j] if g.margin_deps is not None else range(g.dim)
        size = grid.angle_count if j in deps else 1
        for k in deps:
            if k != j:
                size *= per_companion
        total += size * len(grid.radii)
    return {"points": total}


def _koebe_counts(bound) -> dict:
    return {"points": _rows(bound.arguments["points"])}


_COUNT_FROM_ARGS = {
    "kernels.rk4_jet_arrays": _rk4_counts,
    "evolution.evolve_point": _evolve_point_counts,
    "generators.membership_check": _membership_counts,
    "bounds.koebe_check": _koebe_counts,
}


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.request = -1
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[str, tuple] = {}  # layer -> (owner, original, attribute, wrapper)
        self._lru: dict[str, object] = {}
        self._tables: dict[int, object] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # per-layer totals, one entry per layer; wrappers hold these lists
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.failed: list[int] = []
        self.depth: list[int] = []
        self.counts: list[dict] = []

    def _add_layer(self, name: str) -> int:
        self.layers.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.failed.append(0)
        self.depth.append(0)
        self.counts.append(dict.fromkeys(_COUNTERS, 0))
        return len(self.layers) - 1

    def wrap(self, fn, name: str):
        """Wrapper that records one span per call of ``fn`` as layer ``name``."""
        idx = self._add_layer(name)
        count = _COUNT_FROM_ARGS.get(name)
        signature = inspect.signature(fn) if count else None
        keep_result = name == "kernels.basis_tables"
        stack, child = self._stack, self._child
        calls, total, self_time, failed, depth = self.calls, self.total, self.self_time, self.failed, self.depth
        s_layer, s_parent, s_request = self.span_layer, self.span_parent, self.span_request
        s_start, s_end = self.span_start, self.span_end
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(s_start)
            s_layer.append(idx)
            s_parent.append(stack[-1] if stack else -1)
            s_request.append(tracer.request)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            outer = depth[idx] == 0
            depth[idx] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in count(bound).items():
                    tracer.counts[idx][key] += value
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    tracer._tables[id(result)] = result
                return result
            except BaseException:
                failed[idx] += 1
                raise
            finally:
                t1 = perf()
                dur = t1 - t0
                depth[idx] -= 1
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += dur
                calls[idx] += 1
                self_time[idx] += dur - inner
                if outer:
                    total[idx] += dur
                s_start[sid] = t0
                s_end[sid] = t1

        return wrapper

    # -- patching -----------------------------------------------------------

    def _targets(self) -> list[tuple[str, object, object, str]]:
        """(layer, owner, original, attribute) for everything to wrap."""
        out = []
        for short in MODULES:
            mod = importlib.import_module("polyloewner." + short)
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                fn = getattr(obj, "__wrapped__", obj)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    out.append((f"{short}.{name}", None, obj, name))
                    if obj is not fn:
                        self._lru[f"{short}.{name}"] = obj
        evolution = importlib.import_module("polyloewner.evolution")
        generators = importlib.import_module("polyloewner.generators")
        out.append(("evolution.HerglotzField.build", evolution.HerglotzField, evolution.HerglotzField.__dict__["build"], "build"))
        out.append(("generators.Generator", generators.Generator, generators.Generator.__dict__["__init__"], "__init__"))
        return out

    def install(self) -> None:
        if not self._wrappers:
            for layer, owner, original, attr in self._targets():
                fn = original.__func__ if isinstance(original, staticmethod) else original
                wrapper = self.wrap(fn, layer)
                if isinstance(original, staticmethod):
                    wrapper = staticmethod(wrapper)
                self._wrappers[layer] = (owner, original, attr, wrapper)
        modules = [m for n, m in list(sys.modules.items()) if n == "polyloewner" or n.startswith("polyloewner.")]
        for owner, original, attr, wrapper in self._wrappers.values():
            if owner is not None:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out -------------------------------------------------------------

    def take(self) -> dict:
        """Per-layer totals since the last take, then reset them."""
        out = {}
        for i, name in enumerate(self.layers):
            if self.calls[i]:
                out[name] = {
                    "calls": self.calls[i],
                    "s": self.total[i],
                    "self_s": self.self_time[i],
                    "failed": self.failed[i],
                    **self.counts[i],
                }
        for i in range(len(self.layers)):
            self.calls[i] = self.failed[i] = 0
            self.total[i] = self.self_time[i] = 0.0
            self.counts[i] = dict.fromkeys(_COUNTERS, 0)
        return out

    def misses(self, layer: str) -> int:
        lru = self._lru.get(layer)
        return lru.cache_info().misses if lru is not None else 0

    def table_mb(self) -> float:
        """Bytes held by every cached basis table: each array attribute present."""
        return sum(_nbytes(v) for t in self._tables.values() for v in vars(t).values()) / 2**20

    def write_spans(self, path: str) -> None:
        np.savez_compressed(
            path,
            layers=np.array(self.layers),
            layer=np.frombuffer(self.span_layer, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def layer_metrics(names, setup: dict, passes: list[dict], tracer: Tracer, walls: dict) -> dict:
    """Values of the per-layer metrics ``names``.

    ``<layer>.<field>`` is the median over traced passes of the field's
    per-pass total, except for WHOLE_RUN_LAYERS, read over set-up plus all
    traced passes.  ``misses`` is the cache's own miss count over the traced
    process, ``kernels.table_mb`` the size of every cached basis table at
    the end, and ``trace.*`` are pass wall times (see the README).
    """
    layers_s = [sum(v["self_s"] for v in p.values()) for p in passes]
    special = {
        "kernels.table_mb": tracer.table_mb(),
        "trace.wall_s": statistics.median(walls["traced"]),
        "trace.untraced_wall_s": statistics.median(walls["untraced"]),
        "trace.layers_s": statistics.median(layers_s),
    }
    special["trace.overhead_s"] = special["trace.wall_s"] - special["trace.untraced_wall_s"]
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
            continue
        layer, field = name.rsplit(".", 1)
        if field == "misses":
            out[name] = tracer.misses(layer)
        elif layer in WHOLE_RUN_LAYERS:
            out[name] = sum(p.get(layer, {}).get(field, 0) for p in [setup] + passes)
        else:
            out[name] = statistics.median(p.get(layer, {}).get(field, 0) for p in passes)
    return out

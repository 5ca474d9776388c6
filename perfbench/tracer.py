"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of the loaded `trapmass`
modules, and `numpy.linalg.eigh`/`eigvalsh`/`norm`, with a wrapper that
records a span; `uninstall()` restores the originals. A layer is a module
(`fock`, `ramsey`, ...) or `linalg`. For each wrapped function the tracer
keeps `<layer>.<fn>.calls`, `.s` (inclusive seconds), `.self_s` and
`.errors`; for each layer `<layer>.self_s`, which is its spans minus the
spans they enclose. A few counters are taken from call arguments and
results where the work happens (see `_enter` and `_leave`).
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
import numpy.linalg

LINALG = ("eigh", "eigvalsh", "norm")


class Tracer:
    def __init__(self):
        self._patches = []
        self.values = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.open = Counter()
        self.stack = []

    def reset(self) -> None:
        """Forget every value; the installed wrappers keep recording."""
        self.values.clear()
        self.layer_self.clear()
        self.open.clear()
        self.stack.clear()

    # ------------------------------------------------------------ install ---

    def install(self) -> None:
        wrappers = {}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("trapmass.") and m is not None]
        for module in modules:
            layer = module.__name__.split(".")[1]
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._span(layer, fn)
        phasespace = sys.modules.get("trapmass.phasespace")
        helper = getattr(phasespace, "_coherent_matrix", None)
        if helper is not None:
            wrappers[helper] = self._count_grid_points(helper)
        for name in LINALG:
            fn = getattr(numpy.linalg, name)
            self._patch(numpy.linalg, name, self._span("linalg", fn))
        for module in modules + [sys.modules["trapmass"]]:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, name, wrappers[value])
                elif isinstance(value, dict):
                    # Dispatch tables such as cli._RUNNERS hold the functions.
                    for key, fn in list(value.items()):
                        if inspect.isfunction(fn) and fn in wrappers:
                            self._patch_item(value, key, wrappers[fn])

    def uninstall(self) -> None:
        for restore in reversed(self._patches):
            restore()
        self._patches = []

    def _patch(self, owner, name, new) -> None:
        old = getattr(owner, name)
        setattr(owner, name, new)
        self._patches.append(lambda: setattr(owner, name, old))

    def _patch_item(self, table: dict, key, new) -> None:
        old = table[key]
        table[key] = new
        self._patches.append(lambda: table.__setitem__(key, old))

    # -------------------------------------------------------------- spans ---

    def _span(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"
        values, stack, is_open = self.values, self.stack, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, self._enter(key, args, kwargs)]
            stack.append(frame)
            is_open[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                values[key + ".errors"] += 1
                raise
            finally:
                duration = perf_counter() - start
                is_open[key] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                values[key + ".calls"] += 1
                values[key + ".s"] += duration
                values[key + ".self_s"] += own
                self.layer_self[layer] += own
                if frame[1]:
                    values[frame[1] + ".self_s"] += own
            self._leave(key, result)
            return result

        return traced

    def _count_grid_points(self, fn):
        @functools.wraps(fn)
        def counted(dim, betas):
            if self.open["phasespace.qfunction"]:
                self.values["phasespace.q_points_evaluated"] += np.size(betas)
            return fn(dim, betas)

        return counted

    def _enter(self, key: str, args: tuple, kwargs: dict) -> str | None:
        """Counters taken from the arguments; returns an extra self-time tag."""
        v = self.values
        if key == "linalg.eigh":
            a = args[0]
            v["linalg.eigh.n3"] += float(a.shape[-1]) ** 3
            v["linalg.eigh.complex_calls"] += bool(np.iscomplexobj(a))
        elif key == "ramsey.ramsey_trace":
            state = args[1] if len(args) > 1 else kwargs["state"]
            return "ramsey.pure" if state.is_pure else "ramsey.mixed"
        elif key == "fock.build_workspace" and self.open["fock.converge_dim"]:
            v["fock.converge_probes"] += 1
        elif key == "phasespace.coherent_row" and self.open["phasespace.qfunction"]:
            v["phasespace.q_rounds"] += 1
        elif key == "drive.iterate_drive":
            v["drive.cycles"] += args[2] if len(args) > 2 else kwargs["N"]
        return None

    def _leave(self, key: str, result) -> None:
        v = self.values
        if key == "ramsey.ramsey_trace":
            v["ramsey.points"] += result.times.size
            v["ramsey.dim_sum"] += result.dim
        elif key == "phasespace.qfunction":
            v["phasespace.q_points_returned"] += result.q.size

    # ------------------------------------------------------------ metrics ---

    def snapshot(self) -> dict:
        """All values of the spans closed since the last reset, plus ratios."""
        out = dict(self.values)
        for layer, seconds in self.layer_self.items():
            out[layer + ".self_s"] = seconds
        trace_s = out.get("ramsey.ramsey_trace.s", 0.0)
        out["fock.converge_share"] = (
            out.get("fock.converge_dim.s", 0.0) / trace_s if trace_s else 0.0)
        evaluated = out.get("phasespace.q_points_evaluated", 0.0)
        out["phasespace.q_useful_ratio"] = (
            out.get("phasespace.q_points_returned", 0.0) / evaluated
            if evaluated else 0.0)
        out["all.self_s"] = sum(self.layer_self.values())
        return out

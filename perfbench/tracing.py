"""Span tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the pcbf modules from the
outside: each call records a span (name, start, end, parent) in memory, and
some calls bump deterministic work counters.  The library itself is not
edited.  Spans are written out when a pass ends.  The self time of a span is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("core", "paths", "horizon", "barrier", "qp", "scenarios",
           "simulate", "cli")

# spans reported as `<name>.calls` and `<name>.self_s`
SPANS = (
    "paths.evaluate", "paths.evaluate_many", "paths.tau_derivative",
    "paths.state_sensitivity",
    "horizon.scan", "horizon.find_maximizers", "horizon.find_root_before",
    "horizon.h_along", "horizon.evaluation",
    "barrier.eval_pcbf", "barrier.derivative_affine",
    "barrier.inner_product_monitor", "barrier.root_sensitivity_C1",
    "barrier.maximizer_sensitivity",
    "scenarios.h_value", "scenarios.h_grad",
    "qp.solve_min_deviation", "qp.ecbf",
    "simulate.step", "simulate.loop",
)
# spans reported by their total time in seconds
TOTALS = {"scenarios.build_s": "scenarios.build",
          "cli.parse_config.s": "cli.parse_config",
          "cli.write_csv.s": "cli.write_csv",
          "cli.summarize.s": "cli.summarize"}
CASE_LABELS = ("I_interior", "II_end_root_before", "III_boundary_root_self")
COUNTERS = ("paths.evaluate_many.taus", "paths.drift.rows", "paths.drift.calls",
            "horizon.scan.taus", "horizon.maximizers",
            "qp.rows", "qp.slack_rows", "qp.infeasible",
            "simulate.fallback_steps") + tuple(f"barrier.case.{c}" for c in CASE_LABELS)


def metric_names() -> set[str]:
    """Every per-layer metric a traced pass can produce."""
    names = {f"{s}.{kind}" for s in SPANS for kind in ("calls", "self_s")}
    names |= set(TOTALS) | set(COUNTERS)
    names |= {f"{m}.lines" for m in MODULES}
    names |= {"barrier.active_step_frac", "trace.overhead_frac"}
    return names


class Tracer:
    """Spans and counters of one pass, kept in flat in-memory arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()
        self.counters = dict.fromkeys(self.counters, 0)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name, fn, after=None, before=None):
        """fn wrapped so that each call records a span; `before(args)`
        returns a token and `after(args, kwargs, result, token)` counts."""
        nid = self.intern(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_function(self, mods, module, attr, wrap):
        orig = getattr(module, attr, None)
        if orig is None:
            return
        wrapped = wrap(orig)
        for mod in mods.values():  # names imported into other modules too
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, key, wrapped)

    def _patch_methods(self, module, attrs, name, after=None, before=None,
                       base=None):
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            if base is not None and not issubclass(cls, base):
                continue
            for attr in attrs:
                if attr in cls.__dict__:
                    self._set(cls, attr, self.span(name, cls.__dict__[attr],
                                                   after, before))

    def install(self):
        """Wrap the layer boundaries of every pcbf module."""
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"pcbf.{m}")
            except ImportError:
                continue
        core = mods["core"]
        paths, horizon, barrier = mods["paths"], mods["horizon"], mods["barrier"]
        qp, scenarios, simulate, cli = (mods["qp"], mods["scenarios"],
                                        mods["simulate"], mods["cli"])
        count = self.count

        def count_taus(args, kwargs, result, token):
            count("paths.evaluate_many.taus", len(args[1]))

        for attr in ("evaluate", "evaluate_many", "tau_derivative",
                     "state_sensitivity"):
            self._patch_methods(paths, [attr], f"paths.{attr}",
                                after=count_taus if attr == "evaluate_many" else None)

        # drift calls made while a paths span is innermost: state rows and calls
        paths_ids = {self.intern(f"paths.{a}") for a in
                     ("evaluate", "evaluate_many", "tau_derivative", "state_sensitivity")}
        name_id, stack = self.name_id, self.stack

        def count_drift(fn):
            def drift(model, t, x, *rest):
                if stack and name_id[stack[-1]] in paths_ids:
                    shape = np.shape(x)
                    count("paths.drift.calls")
                    count("paths.drift.rows", math.prod(shape[:-1]))
                return fn(model, t, x, *rest)
            return drift

        for mod in mods.values():
            for cls in vars(mod).values():
                if (inspect.isclass(cls) and cls.__module__ == mod.__name__
                        and issubclass(cls, core.DynamicsModel)
                        and cls is not core.DynamicsModel and "drift" in cls.__dict__):
                    self._set(cls, "drift", count_drift(cls.__dict__["drift"]))

        def after_scan(args, kwargs, grid, token):
            count("horizon.scan.taus", len(grid.taus))

        def after_maximizers(args, kwargs, mset, token):
            count("horizon.maximizers", len(mset.entries))

        self._patch_function(mods, horizon, "scan",
                             lambda f: self.span("horizon.scan", f, after_scan))
        self._patch_function(mods, horizon, "find_maximizers",
                             lambda f: self.span("horizon.find_maximizers", f,
                                                 after_maximizers))
        self._patch_function(mods, horizon, "find_root_before",
                             lambda f: self.span("horizon.find_root_before", f))
        self._patch_methods(horizon, ["h_along"], "horizon.h_along")
        self._patch_methods(horizon, ["evaluation"], "horizon.evaluation")

        def after_eval(args, kwargs, val, token):
            count(f"barrier.case.{val.case_label}")

        def after_deriv(args, kwargs, result, token):
            count("barrier.derivative_affine")

        self._patch_function(mods, barrier, "eval_pcbf",
                             lambda f: self.span("barrier.eval_pcbf", f, after_eval))
        self._patch_function(mods, barrier, "derivative_affine",
                             lambda f: self.span("barrier.derivative_affine", f,
                                                 after_deriv))
        for attr in ("inner_product_monitor", "root_sensitivity_C1",
                     "maximizer_sensitivity"):
            self._patch_function(mods, barrier, attr,
                                 lambda f, a=attr: self.span(f"barrier.{a}", f))

        self._patch_methods(scenarios, ["value"], "scenarios.h_value",
                            base=core.ConstraintFunction)
        self._patch_methods(scenarios, ["grad_x", "grad_t"], "scenarios.h_grad",
                            base=core.ConstraintFunction)
        for attr in ("build_intersection", "build_satellite"):
            self._patch_function(mods, scenarios, attr,
                                 lambda f: self.span("scenarios.build", f))

        def after_qp(args, kwargs, result, token):
            rows = args[1] if len(args) > 1 else kwargs["constraints"]
            count("qp.rows", len(rows))
            count("qp.slack_rows", sum(r.slack_weight is not None for r in rows))
            count("qp.infeasible", int(not result.feasible))

        self._patch_function(mods, qp, "solve_min_deviation",
                             lambda f: self.span("qp.solve_min_deviation", f, after_qp))

        def wrap_ecbf(factory):
            def ecbf_baseline(*args, **kwargs):
                return self.span("qp.ecbf", factory(*args, **kwargs))
            return ecbf_baseline

        self._patch_function(mods, qp, "ecbf_baseline", wrap_ecbf)

        # a step "computed a derivative" when derivative_affine ran inside it
        def before_step(args):
            return self.counters.get("barrier.derivative_affine", 0)

        def after_step(args, kwargs, dec, n_before):
            count("simulate.fallback_steps", int(not dec.feasible))
            if self.counters.get("barrier.derivative_affine", 0) > n_before:
                count("barrier.derivative_steps")
                count("barrier.active_steps", int(bool(len(dec.active))))

        self._patch_methods(simulate, ["step"], "simulate.step",
                            after=after_step, before=before_step)
        self._patch_function(mods, simulate, "run_closed_loop",
                             lambda f: self.span("simulate.loop", f))
        for attr in ("parse_config", "write_csv", "summarize"):
            self._patch_function(mods, cli, attr,
                                 lambda f, a=attr: self.span(f"cli.{a}", f))
        for key in COUNTERS:
            self.counters.setdefault(key, 0)

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def _arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        return nid, start, end, parent

    def layer_metrics(self, src: Path) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset."""
        nid, start, end, parent = self._arrays()
        dur = (end - start).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=dur - child, minlength=k) / 1e9
        total_s = np.bincount(nid, weights=dur, minlength=k) / 1e9
        ids = self._ids
        out: dict[str, float] = {}
        for s in SPANS:
            i = ids.get(s)
            out[f"{s}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{s}.self_s"] = float(self_s[i]) if i is not None else 0.0
        for key, s in TOTALS.items():
            i = ids.get(s)
            out[key] = float(total_s[i]) if i is not None else 0.0
        for key in COUNTERS:
            out[key] = int(self.counters.get(key, 0))
        deriv_steps = self.counters.get("barrier.derivative_steps", 0)
        out["barrier.active_step_frac"] = (
            self.counters.get("barrier.active_steps", 0) / deriv_steps
            if deriv_steps else 0.0)
        for m in MODULES:
            f = src / "pcbf" / f"{m}.py"
            out[f"{m}.lines"] = len(f.read_text().splitlines()) if f.is_file() else 0
        return out

    def save(self, path: Path):
        """Write the pass's spans: name table plus one row per span."""
        nid, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            start_ns=start, end_ns=end, parent=parent)

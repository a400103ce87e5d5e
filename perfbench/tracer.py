"""Spans around the calls into each dickesim layer, recorded from outside.

Nothing in ``src`` is changed: :meth:`Tracer.installed` replaces the public
names the callers look up (``dickesim.experiment.evolve``,
``dickesim.cli.run_rap``, ...) with wrappers that record a span (name, op,
parent, start, end) and a few counters taken at the same boundary, and puts
the originals back on exit.  Spans stay in memory until :meth:`dump`.
A layer's self time is its spans' duration minus their direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict


def _counted(hook, *args):
    """Run a counter hook.  A hook that no longer fits the program's API (a
    renamed argument or result field) records nothing rather than failing
    the op, so its counter reads 0."""
    try:
        return hook(*args)
    except (AttributeError, KeyError, TypeError):
        return None


class Tracer:
    def __init__(self):
        self.spans = []          # [span_id, op_id, name, parent_id, start, end]
        self.counts = Counter()
        self.norm_drift_max = 0.0
        self.op_id = None
        self._stack = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """``fn`` recording a span; ``hook(args, kwargs)`` may return ``after(result)``."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = _counted(hook, args, kwargs) if hook else None
            span = [len(self.spans), self.op_id, name,
                    self._stack[-1] if self._stack else None, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            if after:
                _counted(after, result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        patched = []
        try:
            for module, attr, name, hook in self._targets():
                original = getattr(module, attr, None)
                if original is None:
                    continue        # name gone in this version; its metrics stay 0
                setattr(module, attr, self.wrap(name, original, hook))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    # -- boundaries ----------------------------------------------------------

    def _targets(self):
        import dickesim.cli as cli
        import dickesim.experiment as experiment
        import dickesim.propagator as propagator

        evolve_hook = self._evolve_hook(propagator)
        spectrum_hook = self._after(lambda frame: self._add("spectral.grid_points",
                                                            len(frame.times)))
        targets = [
            (cli, "main", "cli.main", None),
            (experiment, "evolve", "propagator.evolve", evolve_hook),
            (propagator, "evolve", "propagator.evolve", evolve_hook),
            (propagator, "drive_terms", "drive.drive_terms", self._cache_hook(propagator)),
            (experiment, "spectrum_with_refinement", "spectral.spectrum", spectrum_hook),
            (experiment, "adiabatic_spectrum", "spectral.spectrum", spectrum_hook),
            (experiment, "build_five_state", "spectral.model", None),
            (experiment, "diabatic_bound", "spectral.bound", None),
            (experiment, "nonadiabatic_coupling", "spectral.bound", None),
            (experiment, "rap_diabatic_bound", "experiment.rap_diabatic_bound",
             self._after(self._bound_result)),
            (experiment, "trace_out_motion", "measurement.trace_out_motion", None),
            (experiment, "fidelity_dicke", "measurement.fidelity_dicke", None),
            (experiment, "build_space", "core.build_space", None),
            (experiment, "embed", "core.embed", None),
            (experiment, "make_dicke", "core.make_dicke", None),
            (cli, "parity_curve", "measurement.parity_curve",
             lambda args, kwargs: self._add("measurement.parity_points",
                                            len(args[1]) if len(args) > 1
                                            else len(kwargs["phi_grid"]))),
            (cli, "rotate_global", "measurement.rotate_global", None),
            (cli, "fit_parity", "measurement.fit_parity", None),
            (cli, "simulate_histogram", "measurement.simulate_histogram", None),
        ]
        sweep_hook = self._after(lambda res: self._add(
            "experiment.sweep.failed_points", sum(e is not None for e in res.errors)))
        for module in (experiment, cli):
            targets += [
                (module, "run_rap", "experiment.run_rap", None),
                (module, "sweep", "experiment.sweep", sweep_hook),
                (module, "potentials_report", "experiment.potentials_report", None),
            ]
        return targets

    def _add(self, key, value):
        self.counts[key] += value

    @staticmethod
    def _after(fn):
        return lambda args, kwargs: fn

    def _bound_result(self, bound):
        self._add("experiment.bound_calls", 1)
        self._add("experiment.bound_unresolved", bound is None)

    def _evolve_hook(self, propagator):
        """Steps requested by the inputs, ceil(duration / dt), and the norm drift."""
        def hook(args, kwargs):
            bound = inspect.signature(propagator.evolve).bind(*args, **kwargs)
            bound.apply_defaults()
            cfg, dt, duration = (bound.arguments["cfg"], bound.arguments["dt"],
                                 bound.arguments["duration"])
            duration = cfg.pulse.duration if duration is None else duration
            dt = propagator.default_dt(cfg) if dt is None else dt
            self._add("propagator.steps", max(1, math.ceil(duration / dt)))

            def after(result):
                self.norm_drift_max = max(self.norm_drift_max, result.norm_drift)
            return after
        return hook

    def _cache_hook(self, propagator):
        """Cache hits of ``drive_terms`` from ``cache_info()`` before and after."""
        info = getattr(getattr(propagator, "drive_terms", None), "cache_info", None)

        def hook(args, kwargs):
            if info is None:
                return None
            hits = info().hits
            return lambda result: self._add("drive.drive_terms.hits", info().hits - hits)
        return hook

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self seconds and call count per span name."""
        covered = defaultdict(float)
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        for span_id, _, name, _, start, end in self.spans:
            self_s[name] += end - start - covered[span_id]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, each per traced op unless it is a ratio or rate."""
        self_s, calls = self.self_times()

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

        c = self.counts
        evolve_s = self_s["propagator.evolve"]
        drive_calls = calls["drive.drive_terms"]
        return {
            "propagator.evolve.calls": calls["propagator.evolve"] / n_ops,
            "propagator.evolve.self_s": evolve_s / n_ops,
            "propagator.steps": c["propagator.steps"] / n_ops,
            "propagator.steps_per_s": c["propagator.steps"] / evolve_s if evolve_s else 0.0,
            "propagator.norm_drift_max": self.norm_drift_max,
            "spectral.spectrum.calls": calls["spectral.spectrum"] / n_ops,
            "spectral.spectrum.self_s": self_s["spectral.spectrum"] / n_ops,
            "spectral.self_s": layer("spectral", self_s) / n_ops,
            "spectral.grid_points": c["spectral.grid_points"] / n_ops,
            "measurement.calls": layer("measurement", calls) / n_ops,
            "measurement.self_s": layer("measurement", self_s) / n_ops,
            "measurement.parity_points": c["measurement.parity_points"] / n_ops,
            "drive.drive_terms.calls": drive_calls / n_ops,
            "drive.drive_terms.self_s": self_s["drive.drive_terms"] / n_ops,
            "drive.drive_terms.hit_ratio": (c["drive.drive_terms.hits"] / drive_calls
                                            if drive_calls else 0.0),
            "cli.self_s": self_s["cli.main"] / n_ops,
            "cli.bytes_written": c["cli.bytes_written"] / n_ops,
            "core.self_s": layer("core", self_s) / n_ops,
            "experiment.self_s": layer("experiment", self_s) / n_ops,
            "experiment.bound_unresolved_ratio": (
                c["experiment.bound_unresolved"] / c["experiment.bound_calls"]
                if c["experiment.bound_calls"] else 0.0),
            "experiment.sweep.failed_points": c["experiment.sweep.failed_points"] / n_ops,
        }

    def dump(self, path):
        """Write every span as one JSON line: id, op, name, parent, start, end."""
        keys = ("id", "op", "name", "parent", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

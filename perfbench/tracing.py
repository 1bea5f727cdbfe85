"""Span tracing for the benchmark's traced run.

Wrappers are installed from the benchmark's own files around entmap's public
functions, at every module attribute a caller looks them up through, and are
removed again when the traced block ends.  No code under src/ knows about them.

Each span records (name, start, end, parent span, run id) in flat arrays kept
in memory; they are written out once, when the run ends.  A layer's self time
is its span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALL = ("desk_characterize", "endpoint_sweep", "cli_noiseless")
SAMPLED = ("desk_characterize", "endpoint_sweep")
INVERTING = ("desk_characterize", "cli_noiseless")
CLI = ("cli_noiseless",)


def _count_shots(counters, args, kwargs, result, exc):
    if exc is None:
        counters["measure.shots_drawn"] += int(args[1] if len(args) > 1 else kwargs["shots"])


def _count_points(counters, args, kwargs, result, exc):
    if exc is None:
        counters["concest.points_estimated"] += len(result)


def _count_fallbacks(counters, args, kwargs, result, exc):
    if exc is None:
        counters["spectral.refine.fallbacks"] += bool(result.fallback)


def _count_degenerate(counters, args, kwargs, result, exc):
    if exc is None:
        counters["recon.degenerate"] += bool(result[3])


def _count_inconsistent(counters, args, kwargs, result, exc):
    if type(exc).__name__ == "InconsistentFrequencyError":
        counters["recon.inconsistent"] += 1


@dataclass(frozen=True)
class Hook:
    """A public function, the attributes its callers look it up through, and where calls are predicted.

    A hook with timed=False only counts calls and records no span, so its time
    stays in the caller's self time.
    """

    name: str
    sites: tuple[tuple[str, str], ...]
    expect: tuple[str, ...]
    observe: object = None
    timed: bool = True


HOOKS = (
    Hook("qcore.evolve", (("entmap.recon", "evolve"), ("entmap.runner", "evolve")), ALL),
    Hook("qcore.concurrence_sq_exact", (("entmap.runner", "concurrence_sq_exact"),), CLI),
    Hook("measure.outcome_probs", (("entmap.recon", "outcome_probs"),), ALL),
    Hook("measure.point_rng", (("entmap.recon", "point_rng"),), SAMPLED),
    Hook("measure.sample_counts", (("entmap.recon", "sample_counts"),), SAMPLED, _count_shots),
    Hook("concest.build_series", (("entmap.recon", "build_series"),), ALL, _count_points),
    Hook(
        "spectral.dft",
        (("entmap.recon", "dft"), ("entmap.runner", "dft"), ("entmap.spectral", "dft")),
        ALL,
    ),
    Hook("spectral.find_peak", (("entmap.recon", "find_peak"), ("entmap.runner", "find_peak")), ALL),
    Hook("spectral.refine_frequency", (("entmap.recon", "refine_frequency"),), ALL, _count_fallbacks),
    Hook("spectral.minimize_scalar", (("entmap.spectral", "minimize_scalar"),), ALL, timed=False),
    Hook(
        "recon.simulate_series",
        (("entmap.recon", "simulate_series"), ("entmap.runner", "simulate_series")),
        ALL,
    ),
    Hook("recon.estimate_combination", (("entmap.recon", "estimate_combination"),), ALL, _count_degenerate),
    Hook("recon.invert_frequencies", (("entmap.recon", "invert_frequencies"),), INVERTING, _count_inconsistent),
    Hook(
        "recon.characterize",
        (("entmap.recon", "characterize"), ("entmap.runner", "characterize")),
        INVERTING,
    ),
    Hook("gateerr.budget_curve", (("entmap.runner", "budget_curve"),), CLI),
    Hook("gateerr.measurements_for_threshold", (("entmap.runner", "measurements_for_threshold"),), CLI),
    Hook("runner.resolve_config", (("entmap.runner", "resolve_config"),), CLI),
    Hook("runner.cmd_simulate", (("entmap.runner", "cmd_simulate"),), CLI),
    Hook("runner.cmd_spectrum", (("entmap.runner", "cmd_spectrum"),), CLI),
    Hook("runner.cmd_characterize", (("entmap.runner", "cmd_characterize"),), CLI),
    Hook("runner.cmd_robustness", (("entmap.runner", "cmd_robustness"),), CLI),
    Hook("runner.cmd_gate_error", (("entmap.runner", "cmd_gate_error"),), CLI),
)

RUN_SPAN = "run"


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [RUN_SPAN] + [h.name for h in HOOKS if h.timed]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._run_id = -1

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.run.append(self._run_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def traced_run(self, run_id: int):
        """Root span of one timed run; every span inside it carries run_id."""
        self._run_id = run_id
        sid = self._open(0)
        try:
            yield
        finally:
            self._close(sid)
            self._run_id = -1

    def _wrap(self, hook: Hook, fn):
        counters = self.counters
        observe = hook.observe
        if not hook.timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counters[hook.name] += 1
                return fn(*args, **kwargs)

            return counted

        name_id = self._ids[hook.name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid)
                if observe is not None:
                    observe(counters, args, kwargs, None, exc)
                raise
            self._close(sid)
            if observe is not None:
                observe(counters, args, kwargs, result, None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook site of the loaded entmap modules; restore the originals on exit.

        A site whose module is loaded but whose attribute is gone is recorded in
        self.missing: the benchmark needs a follow-up for that refactor.
        """
        originals = []
        try:
            for hook in HOOKS:
                for module_name, attr in hook.sites:
                    module = sys.modules.get(module_name)
                    if module is None:
                        continue
                    if not hasattr(module, attr):
                        self.missing.append(f"{module_name}.{attr}")
                        continue
                    fn = getattr(module, attr)
                    originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(hook, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())

    def calls_and_self_ms(self, speed_factors=None) -> dict[str, tuple[int, float]]:
        """Per span name: number of spans and summed self time in ms.

        speed_factors, indexed by run id, rescales each run's spans to the
        reference CPU speed the end-to-end timings use.
        """
        s = self.spans()
        duration = s["end"] - s["start"]
        child = np.zeros_like(duration)
        nested = s["parent"] >= 0
        np.add.at(child, s["parent"][nested], duration[nested])
        self_ms = (duration - child) * 1e3
        if speed_factors is not None:
            self_ms = self_ms * np.asarray(speed_factors)[s["run"]]
        calls = np.bincount(s["name"], minlength=len(self.names))
        total = np.bincount(s["name"], weights=self_ms, minlength=len(self.names))
        return {name: (int(calls[i]), float(total[i])) for i, name in enumerate(self.names)}


def layer_metrics(tracer: Tracer, runs: int, speed_factors=None) -> dict[str, tuple[float, str]]:
    """Per-run call counts and self times of every hook, plus the layer counters."""
    per_run = 1.0 / max(runs, 1)
    spans = tracer.calls_and_self_ms(speed_factors)
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for hook in HOOKS:
        if hook.timed:
            calls, self_ms = spans[hook.name]
            out[f"{hook.name}.calls"] = (calls * per_run, "count/run")
            out[f"{hook.name}.self_ms"] = (self_ms * per_run, "ms/run")
        else:
            out[f"{hook.name}.calls"] = (c[hook.name] * per_run, "count/run")
    out[f"{RUN_SPAN}.self_ms"] = (spans[RUN_SPAN][1] * per_run, "ms/run")
    refines = spans["spectral.refine_frequency"][0]
    estimates = spans["recon.estimate_combination"][0]
    out["measure.shots_drawn"] = (c["measure.shots_drawn"] * per_run, "count/run")
    out["concest.points_estimated"] = (c["concest.points_estimated"] * per_run, "count/run")
    out["spectral.brent_solves_per_refine"] = (c["spectral.minimize_scalar"] / max(refines, 1), "ratio")
    out["spectral.refine.fallback_frac"] = (c["spectral.refine.fallbacks"] / max(refines, 1), "fraction")
    out["recon.inconsistent"] = (c["recon.inconsistent"] * per_run, "count/run")
    out["recon.degenerate_frac"] = (c["recon.degenerate"] / max(estimates, 1), "fraction")
    return out


def stale_hooks(tracer: Tracer, workload: str) -> list[str]:
    """Hooks predicted to be called on this workload that recorded no call, or lost their site."""
    spans = tracer.calls_and_self_ms()
    stale = []
    for hook in HOOKS:
        if workload not in hook.expect:
            continue
        calls = spans[hook.name][0] if hook.timed else tracer.counters[hook.name]
        if calls == 0:
            stale.append(hook.name)
    return stale + [f"{site} (attribute gone)" for site in tracer.missing]

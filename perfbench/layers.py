"""Layer-boundary tracing for the traced benchmark run (``--trace 1``).

The benchmark measures the ``repro`` library from the outside: it wraps
the public functions and methods at each layer boundary, records one
span per call (name, start, end, index of the span that caused it) in
memory, and turns the spans into per-layer call counts and self times.
Nothing under ``src/`` is edited.

A span's self time is its duration minus the time its direct child
spans cover.  The program is single-threaded, so child spans nest
strictly inside their parent and the covered time is the sum of the
children's durations.  Time spent in functions that are not wrapped is
charged to the nearest wrapped caller.

What a wrapper cannot see (see README.md, "Blind spots"):

* the event engine's generated dispatch programs call device bookkeeping
  directly, so per-kernel dispatch inside ``EventHeapEngine`` is charged
  to ``runtime.engine_run`` / ``runtime.engine_process``;
* the engine flushes its native trace buffers straight into the
  tracer's staging list, so ``obs.emit.calls`` counts only the
  control-plane events emitted through ``SpanTracer.emit``;
* functions bound into an object before the wrappers are installed keep
  the original; the wrappers are therefore installed before any object
  of the traced pass is built.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "PER_LAYER",
    "Recorder",
    "Wrappers",
    "layer_metrics",
]


class Recorder:
    """In-memory span store; written out once, after the run."""

    def __init__(self) -> None:
        #: ``[name, start_s, end_s, parent_index]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Event counts observed at the same boundaries (hooks).
        self.counts: Counter = Counter()
        #: Fault injectors bound during the run; their reports are read
        #: once the run has ended.
        self.injectors: List[object] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark itself makes."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """``{span name: (calls, self seconds)}``."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Tuple[int, float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child_s):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start - covered))
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines (times relative to the
        first span, in seconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps([name, start - t0, end - t0, parent]) + "\n"
                )


def _count_pruned(rec: Recorder, args, kwargs, result) -> None:
    configs = args[2] if len(args) > 2 else kwargs["configs"]
    rec.counts["lint.pruned_invalid"] += len(configs) - len(result[0])


def _count_configs(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["optim.enumerate_configs.configs"] += len(result)


def _count_plan_lookup(rec: Recorder, args, kwargs, result) -> None:
    rec.counts["scheduler.plan_cache.lookups"] += 1
    if result is not None:
        rec.counts["scheduler.plan_cache.hits"] += 1


def _keep_injector(rec: Recorder, args, kwargs, result) -> None:
    rec.injectors.append(args[0])


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``attr`` is ``"func"`` or ``"Class.method"``
    in ``module``; ``hook`` sees each call's arguments and result."""

    span: str
    module: str
    attr: str
    hook: Optional[Callable] = None


TARGETS: Tuple[Target, ...] = (
    Target("patterns.workload_summary", "repro.patterns.ppg", "Kernel.workload_summary"),
    Target("patterns.analyze_kernel", "repro.patterns.analysis", "analyze_kernel"),
    Target("lint.run_lint", "repro.lint.core", "run_lint"),
    Target("optim.prune_invalid_configs", "repro.optim.dse", "prune_invalid_configs", _count_pruned),
    Target("hardware.estimate", "repro.hardware.gpu_model", "GPUModel.estimate"),
    Target("hardware.estimate", "repro.hardware.fpga_model", "FPGAModel.estimate"),
    Target("hardware.estimate_batch", "repro.hardware.gpu_model", "GPUModel.estimate_batch"),
    Target("hardware.estimate_batch", "repro.hardware.fpga_model", "FPGAModel.estimate_batch"),
    Target("hardware.model_eval", "repro.hardware.model_cache", "ModelEvalCache.evaluate"),
    Target("hardware.model_eval", "repro.hardware.model_cache", "ModelEvalCache.evaluate_many"),
    Target("optim.enumerate_configs", "repro.optim.dse", "enumerate_configs", _count_configs),
    Target("optim.explore_kernel", "repro.optim.dse", "explore_kernel"),
    Target("optim.explore_kernel_guided", "repro.optim.search", "explore_kernel_guided"),
    Target("optim.pareto", "repro.optim.design_point", "KernelDesignSpace.pareto"),
    Target("optim.pareto", "repro.optim.pareto", "ParetoFrontier.hypervolume"),
    Target("optim.pareto", "repro.optim.pareto", "IncrementalHypervolume.insert"),
    Target("scheduler.schedule", "repro.scheduler.scheduler", "PolyScheduler.schedule"),
    Target("scheduler.schedule", "repro.scheduler.scheduler", "StaticScheduler.schedule"),
    Target("scheduler.plan_cache", "repro.scheduler.plan_cache", "SchedulePlanCache.lookup", _count_plan_lookup),
    Target("scheduler.plan_cache", "repro.scheduler.plan_cache", "SchedulePlanCache.store"),
    Target("scheduler.priority_order", "repro.scheduler.latency_opt", "LatencyOptimizer.priority_order"),
    Target("runtime.run_simulation", "repro.runtime.simulation", "run_simulation"),
    Target("runtime.engine_run", "repro.runtime.engine", "EventHeapEngine.run"),
    Target("runtime.engine_process", "repro.runtime.engine", "EventHeapEngine.process"),
    Target("runtime.leaf_submit", "repro.runtime.node", "LeafNode.submit"),
    Target("runtime.maybe_replan", "repro.runtime.node", "LeafNode.maybe_replan"),
    Target("faults.bind", "repro.faults.injector", "FaultInjector.bind", _keep_injector),
    Target("faults.advance", "repro.faults.injector", "FaultInjector.advance"),
    Target("faults.execution_fault", "repro.faults.injector", "FaultInjector.execution_fault"),
    Target("faults.confirm_failure", "repro.faults.failover", "FailoverPlanner.confirm_failure"),
    Target("cluster.run", "repro.cluster.simulation", "ClusterSimulation.run"),
    Target("cluster.route", "repro.cluster.dispatcher", "ClusterDispatcher.route"),
    Target("cluster.score", "repro.cluster.dispatcher", "ClusterDispatcher.score"),
    Target("cluster.autoscaler_evaluate", "repro.cluster.scaling", "Autoscaler.evaluate"),
    Target("obs.emit", "repro.obs.tracer", "SpanTracer.emit"),
    Target("obs.sample_events", "repro.obs.sampling", "sample_events"),
    Target("obs.export", "repro.obs.export", "write_perfetto_json"),
    Target("obs.slo", "repro.obs.timeseries", "feed_cluster_result"),
    Target("obs.slo", "repro.obs.slo", "evaluate_slos"),
)


def _wrap(fn: Callable, name: str, rec: Recorder, hook: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


class Wrappers:
    """Installs and removes the span wrappers of :data:`TARGETS`.

    Methods are replaced on their class.  Module-level functions are
    replaced in every loaded ``repro`` module that holds them, because
    ``from .x import f`` copies the binding into the importing module.
    """

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec
        #: ``(owner, attribute, original, owned)``; ``owned`` is False
        #: when the original was inherited rather than set on ``owner``.
        self._undo: List[Tuple[object, str, object, bool]] = []

    def install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, meth)
                owned = meth in vars(owner)
                setattr(owner, meth, _wrap(original, target.span, self._rec, target.hook))
                self._undo.append((owner, meth, original, owned))
                continue
            original = getattr(module, target.attr)
            wrapper = _wrap(original, target.span, self._rec, target.hook)
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original, True))

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


#: Per-layer metrics and their units, in report order.  ``X.calls`` and
#: ``X.s`` are the call count and self seconds of the spans named ``X``;
#: the rest are counts observed at the boundaries or outcome counts the
#: workload reports, and useful/attempted ratios derived from them.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("patterns.workload_summary.calls", "count"),
    ("patterns.workload_summary.s", "s"),
    ("patterns.analyze_kernel.calls", "count"),
    ("patterns.analyze_kernel.s", "s"),
    ("lint.run_lint.calls", "count"),
    ("lint.run_lint.s", "s"),
    ("lint.pruned_invalid", "count"),
    ("hardware.model_eval.requested", "count"),
    ("hardware.model_eval.misses", "count"),
    ("hardware.model_eval.hit_rate", "ratio"),
    ("hardware.model_eval.s", "s"),
    ("hardware.estimate.calls", "count"),
    ("hardware.estimate.s", "s"),
    ("hardware.estimate_batch.calls", "count"),
    ("hardware.estimate_batch.s", "s"),
    ("optim.enumerate_configs.calls", "count"),
    ("optim.enumerate_configs.s", "s"),
    ("optim.enumerate_configs.configs", "count"),
    ("optim.explore_kernel.s", "s"),
    ("optim.explore_kernel_guided.s", "s"),
    ("optim.pareto.s", "s"),
    ("optim.search.evaluations", "count"),
    ("optim.search.explored", "count"),
    ("optim.search.front_yield", "ratio"),
    ("scheduler.schedule.calls", "count"),
    ("scheduler.schedule.s", "s"),
    ("scheduler.plan_cache.lookups", "count"),
    ("scheduler.plan_cache.hit_rate", "ratio"),
    ("scheduler.plan_cache.s", "s"),
    ("scheduler.priority_order.calls", "count"),
    ("runtime.run_simulation.s", "s"),
    ("runtime.engine_run.calls", "count"),
    ("runtime.engine_run.s", "s"),
    ("runtime.engine_process.calls", "count"),
    ("runtime.leaf_submit.calls", "count"),
    ("runtime.leaf_submit.s", "s"),
    ("runtime.maybe_replan.calls", "count"),
    ("runtime.maybe_replan.s", "s"),
    ("runtime.requests", "count"),
    ("runtime.host_us_per_req", "us"),
    ("faults.advance.calls", "count"),
    ("faults.advance.s", "s"),
    ("faults.execution_fault.calls", "count"),
    ("faults.confirm_failure.calls", "count"),
    ("faults.retries", "count"),
    ("faults.failovers", "count"),
    ("faults.shed", "count"),
    ("cluster.run.s", "s"),
    ("cluster.route.calls", "count"),
    ("cluster.route.s", "s"),
    ("cluster.score.calls", "count"),
    ("cluster.autoscaler_evaluate.calls", "count"),
    ("cluster.autoscaler_evaluate.s", "s"),
    ("cluster.launches", "count"),
    ("cluster.terminations", "count"),
    ("cluster.mean_fleet", "nodes"),
    ("obs.emit.calls", "count"),
    ("obs.events_materialize.s", "s"),
    ("obs.sample_events.s", "s"),
    ("obs.sampled_kept_frac", "ratio"),
    ("obs.export.s", "s"),
    ("obs.slo.s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

#: Spans whose self time belongs to the runtime layer (host cost per
#: simulated request).
_RUNTIME_SPANS = (
    "runtime.run_simulation",
    "runtime.engine_run",
    "runtime.engine_process",
    "runtime.leaf_submit",
    "runtime.maybe_replan",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    rec: Recorder, outcome: Dict[str, float], overhead_s: float
) -> Dict[str, float]:
    """Per-layer values from the spans, the boundary counts and the
    workload's outcome counts (``outcome`` keys are metric names)."""
    times = rec.self_times()
    counts = Counter(rec.counts)
    counts.update(outcome)
    values: Dict[str, float] = {}
    for name, _unit in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = times.get(base, (0, 0.0))[0]
        elif field == "s" and name != "trace.overhead_s":
            values[name] = times.get(base, (0, 0.0))[1]
        else:
            values[name] = counts.get(name, 0)
    for injector in rec.injectors:
        report = injector.report
        counts["faults.retries"] += report.retries
        counts["faults.failovers"] += report.failovers
        counts["faults.shed"] += report.shed
    values.update(
        (name, counts[name])
        for name in ("faults.retries", "faults.failovers", "faults.shed")
    )
    requested = counts["hardware.model_eval.requested"]
    values["hardware.model_eval.hit_rate"] = _ratio(
        requested - counts["hardware.model_eval.misses"], requested
    )
    values["scheduler.plan_cache.hit_rate"] = _ratio(
        counts["scheduler.plan_cache.hits"],
        counts["scheduler.plan_cache.lookups"],
    )
    values["optim.search.front_yield"] = _ratio(
        counts["optim.search.front_points"], counts["optim.search.evaluations"]
    )
    values["obs.sampled_kept_frac"] = _ratio(
        counts["obs.sampled_events"], counts["obs.events"]
    )
    runtime_s = sum(times.get(s, (0, 0.0))[1] for s in _RUNTIME_SPANS)
    values["runtime.host_us_per_req"] = _ratio(
        runtime_s * 1e6, counts["runtime.requests"]
    )
    values["trace.spans"] = len(rec.spans)
    values["trace.overhead_s"] = overhead_s
    return values


#: The layer x workload matrix that holds at the commit that defined the
#: benchmark: counts that must be non-zero on the workload meant to
#: exercise a layer, and counts that must stay zero on a workload that
#: bypasses it.  A traced run reports departures from it.
MATRIX: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "dse": {
        "nonzero": (
            "patterns.workload_summary.calls",
            "patterns.analyze_kernel.calls",
            "hardware.model_eval.requested",
            "hardware.estimate_batch.calls",
            "optim.enumerate_configs.calls",
            "optim.search.evaluations",
        ),
        "zero": (
            "lint.run_lint.calls",
            "scheduler.schedule.calls",
            "runtime.requests",
            "faults.advance.calls",
            "cluster.route.calls",
            "obs.emit.calls",
        ),
    },
    "serve": {
        "nonzero": (
            "scheduler.schedule.calls",
            "scheduler.priority_order.calls",
            "runtime.engine_run.calls",
            "runtime.maybe_replan.calls",
            "runtime.requests",
        ),
        "zero": (
            "optim.enumerate_configs.calls",
            "runtime.leaf_submit.calls",
            "faults.advance.calls",
            "cluster.route.calls",
            "obs.emit.calls",
        ),
    },
    "fleet_chaos": {
        "nonzero": (
            "lint.run_lint.calls",
            "scheduler.schedule.calls",
            "runtime.engine_process.calls",
            "runtime.leaf_submit.calls",
            "faults.advance.calls",
            "faults.execution_fault.calls",
            "cluster.route.calls",
            "cluster.score.calls",
            "cluster.autoscaler_evaluate.calls",
            "obs.emit.calls",
        ),
        "zero": (
            "optim.enumerate_configs.calls",
            "runtime.engine_run.calls",
        ),
    },
}


def matrix_deviations(workload: str, values: Dict[str, float]) -> List[str]:
    """Departures of one traced run from :data:`MATRIX`."""
    expected = MATRIX.get(workload, {})
    out = [f"{name} is 0" for name in expected.get("nonzero", ()) if not values[name]]
    out += [f"{name} is {values[name]:g}" for name in expected.get("zero", ()) if values[name]]
    return out

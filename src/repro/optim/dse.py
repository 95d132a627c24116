"""Model-driven design space exploration (Section IV-C).

Exhaustive evaluation of every knob combination would take "tens of
hours" with real toolchains; the paper instead navigates with the
analytical models, reducing exploration to seconds.  We do the same:
enumerate the pruned local space crossed with the global options,
evaluate every combination with the GPU/FPGA analytical model, drop
infeasible FPGA points, and optionally subsample to a target size (the
per-kernel design counts of Table II).

Two mechanisms keep the sweep fast at application scale:

* model evaluations are memoized behind the process-wide
  :mod:`repro.hardware.model_cache`, so re-exploring an unchanged
  kernel (repeated experiments, figure regeneration, the bench
  harness's warm trials) costs dictionary lookups instead of model math;
* ``explore_application(n_jobs=N)`` fans the independent
  (kernel, platform) explorations out over a ``ProcessPoolExecutor``.
  Each pair's exploration is self-contained and deterministic, so the
  parallel product is bit-identical to the ``n_jobs=1`` serial path;
  workers ship their cache deltas back so the parent stays warm.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hardware import ImplConfig
from ..hardware.config import KNOB_DEFAULTS, KNOB_DTYPES, knob_tuple
from ..hardware.model_cache import model_cache
from ..hardware.specs import DeviceType
from ..patterns.ppg import Kernel
from .design_point import DesignPoint, KernelDesignSpace
from .global_opt import GlobalOptimizer
from .local_opt import LocalOptimizer

__all__ = [
    "KnobLattice",
    "explore_kernel",
    "explore_application",
    "enumerate_configs",
    "prune_invalid_configs",
]


@dataclass(frozen=True)
class KnobLattice:
    """A kernel's pruned knob space as a mixed-radix integer lattice.

    The shared substrate of exhaustive enumeration and the guided
    search's genome.  ``names`` are the candidate knobs in sorted order
    followed by ``"fused"``; ``alleles[k]`` lists the values of knob
    ``names[k]``; ``forced`` assignments apply to every design (the
    local pass pops a knob from its candidates when it forces it, so
    forced knobs are never lattice knobs).  A design is one
    digit per knob, and its lattice index reads the digits as a
    mixed-radix number with the last digit (fusion) least significant —
    so index order is exhaustive enumeration order.  Designs become
    :class:`ImplConfig` objects only through :meth:`configs`,
    :meth:`config` or :meth:`build`; :meth:`genes` maps a config back
    to the knob values it was built from.
    """

    names: Tuple[str, ...]
    alleles: Tuple[Tuple, ...]
    forced: Dict[str, Any]

    @classmethod
    def of(
        cls, kernel: Kernel, spec, overrides: Optional[Dict[str, Sequence]] = None
    ) -> "KnobLattice":
        """The lattice the local and global passes leave for ``kernel``.

        ``overrides`` replaces the candidate list of knobs already
        present in the plan (names the local pass pruned away or never
        enabled are ignored) — the hook the bench harness uses to
        synthetically enlarge the space.  Values are checked when a
        design is built, so every evaluated design passes
        :class:`ImplConfig` validation.
        """
        local = LocalOptimizer(spec.device_type).plan(kernel)
        global_plan = GlobalOptimizer(spec).plan(kernel)
        candidates: Dict[str, Tuple] = dict(local.candidates)
        if overrides:
            for name, values in overrides.items():
                if name in candidates:
                    candidates[name] = tuple(values)
        names = sorted(candidates)
        fused_options = (False, True) if global_plan.worthwhile else (False,)
        return cls(
            names=tuple(names) + ("fused",),
            alleles=tuple(tuple(candidates[n]) for n in names) + (fused_options,),
            forced=dict(local.forced),
        )

    @property
    def size(self) -> int:
        """Number of designs (the exhaustive enumeration's length)."""
        size = 1
        for values in self.alleles:
            size *= len(values)
        return size

    def genes(self, config: ImplConfig) -> Tuple:
        """A config's value of each lattice knob, in :attr:`names` order;
        equal gene tuples build equal configs."""
        return tuple(getattr(config, name) for name in self.names)

    def build(self, values: Sequence) -> ImplConfig:
        """The config with ``values[k]`` for knob ``names[k]``."""
        return ImplConfig(**dict(zip(self.names, values)), **self.forced)

    def config(self, index: int) -> ImplConfig:
        """The design at one lattice index."""
        values = []
        for alleles in reversed(self.alleles):
            index, digit = divmod(index, len(alleles))
            values.append(alleles[digit])
        return self.build(values[::-1])

    def configs(self) -> List[ImplConfig]:
        """Every design, in lattice index order."""
        return [self.build(values) for values in itertools.product(*self.alleles)]

    def columns(self) -> Dict[str, np.ndarray]:
        """Every design's knobs as numpy columns in lattice index order
        (the layout of :func:`~repro.hardware.config.knob_columns`)."""
        index = np.arange(self.size, dtype=np.int64)
        lattice_cols: Dict[str, np.ndarray] = {}
        stride = 1
        for name, values in zip(reversed(self.names), reversed(self.alleles)):
            table = np.array(values, dtype=KNOB_DTYPES[name])
            lattice_cols[name] = table[(index // stride) % len(values)]
            stride *= len(values)
        return {
            name: lattice_cols[name]
            if name in lattice_cols
            else np.full(self.size, self.forced.get(name, KNOB_DEFAULTS[name]), dtype)
            for name, dtype in KNOB_DTYPES.items()
        }


def enumerate_configs(
    kernel: Kernel, spec, overrides: Optional[Dict[str, Sequence]] = None
) -> List[ImplConfig]:
    """Enumerate candidate implementations after local+global pruning.

    The local pass supplies per-knob candidates and forced values; the
    global pass decides whether a fused variant is worth exploring
    (doubling the space when it is).
    """
    return KnobLattice.of(kernel, spec, overrides).configs()


def prune_invalid_configs(
    kernel: Kernel, spec, configs: Sequence[ImplConfig]
) -> Tuple[List[ImplConfig], "LintReport"]:
    """Drop configs the optimization-layer lint rules reject.

    Runs the ``OPT00x`` rules (knob applicability, FPGA resource budget,
    degenerate work-groups) over every candidate *before* the analytical
    models are evaluated; returns the surviving configs plus the full
    report so callers can surface why points were pruned.
    """
    from ..lint import DesignCheck, LintReport, run_lint

    report = LintReport()
    kept: List[ImplConfig] = []
    for config in configs:
        point_report = run_lint(DesignCheck(kernel, config, spec))
        report.extend(point_report)
        if point_report.ok:
            kept.append(config)
    return kept, report


def _evaluate(
    kernel: Kernel, spec, configs: Sequence[ImplConfig]
) -> List[DesignPoint]:
    """Run the analytical model over the candidates, dropping infeasible
    FPGA points (designs that do not place on the part).

    Evaluations go through the shared model cache's bulk path: cached
    entries are looked up in one pass and the misses are computed in a
    single vectorized model call (float-identical to the scalar path).
    """
    points: List[DesignPoint] = []
    for config, est in zip(configs, model_cache.evaluate_many(kernel, spec, configs)):
        if not est.feasible:
            continue
        points.append(
            DesignPoint(
                kernel_name=kernel.name,
                platform=spec.name,
                device_type=spec.device_type,
                config=config,
                latency_ms=est.latency_ms,
                power_w=est.active_power_w,
            )
        )
    return points


def _point_order_key(point: DesignPoint) -> Tuple:
    """Total order on design points: objectives, then the full knob tuple.

    (latency, power) alone is not a total order — distinct configs can
    model identically — so sorting by it leaves tie order at the mercy
    of the input ordering.  Appending the config fields makes subsample
    selection a pure function of the point *set*, independent of
    enumeration or worker completion order.
    """
    return (point.latency_ms, point.power_w) + knob_tuple(point.config)


def _subsample(points: List[DesignPoint], target: int) -> List[DesignPoint]:
    """Deterministically thin a design space to ``target`` points.

    Keeps the Pareto-relevant extremes by sampling evenly across the
    latency-sorted list — the paper's spaces (Table II) are similarly
    curated subsets of the raw combinatorial space.  A target of 1 keeps
    the first point of the total order, the fastest one.
    """
    if len(points) <= target:
        return points
    ordered = sorted(points, key=_point_order_key)
    if target == 1:
        return ordered[:1]
    step = (len(ordered) - 1) / (target - 1)
    picked = [ordered[round(i * step)] for i in range(target)]
    # Rounding can collide; dedupe while preserving order.
    seen, unique = set(), []
    for p in picked:
        key = id(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def check_target_points(target_points: Optional[int]) -> None:
    """Reject a design-count target below 1 before any exploration."""
    if target_points is not None and target_points < 1:
        raise ValueError(f"target_points must be >= 1, got {target_points}")


def explore_kernel(
    kernel: Kernel,
    spec,
    target_points: Optional[int] = None,
    validate: bool = False,
    candidate_overrides: Optional[Dict[str, Sequence]] = None,
) -> KernelDesignSpace:
    """Explore one kernel on one platform; returns its design space.

    ``target_points`` mirrors Table II's per-kernel design counts; when
    given, the evaluated space is thinned to that size.

    ``validate=True`` lints the kernel first (raising
    :class:`~repro.lint.LintError` on pattern-layer errors) and prunes
    configs the optimization-layer rules reject *before* the analytical
    models run; the number of pruned points is recorded on the returned
    space as ``pruned_invalid``.
    """
    check_target_points(target_points)
    pruned = 0
    if validate:
        from ..lint import LintContext, run_lint

        run_lint(kernel, LintContext(spec=spec)).raise_if_errors(
            f"kernel {kernel.name!r}"
        )
    configs = enumerate_configs(kernel, spec, overrides=candidate_overrides)
    if validate:
        kept, _report = prune_invalid_configs(kernel, spec, configs)
        pruned = len(configs) - len(kept)
        configs = kept
    points = _evaluate(kernel, spec, configs)
    if not points:
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )
    if target_points is not None:
        points = _subsample(points, target_points)
    return KernelDesignSpace(
        kernel.name, spec.name, spec.device_type, points, pruned_invalid=pruned
    )


def _explore_one(
    kernel: Kernel,
    spec,
    target: Optional[int],
    validate: bool,
    strategy: str,
    search,
    overrides: Optional[Dict[str, Sequence]],
) -> Tuple[KernelDesignSpace, Optional["SearchStats"]]:
    """One (kernel, platform) exploration under either strategy.

    Returns the space plus the guided-search stats (``None`` on the
    exhaustive path) so callers — serial loop and pool workers alike —
    report identically.
    """
    if strategy == "guided":
        from .search import explore_kernel_guided

        return explore_kernel_guided(
            kernel,
            spec,
            search=search,
            target_points=target,
            validate=validate,
            candidate_overrides=overrides,
        )
    if strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")
    space = explore_kernel(
        kernel,
        spec,
        target_points=target,
        validate=validate,
        candidate_overrides=overrides,
    )
    return space, None


def _explore_task(task: Tuple) -> Tuple:
    """Worker entry: one (kernel, platform) exploration (picklable).

    Returns the space and search stats plus the model-cache delta (new
    entries, hit/miss counts) this exploration produced: a forked
    worker inherits the parent's cache copy-on-write, but its additions
    die with the process unless the parent writes them back.
    """
    kernel, spec, target, validate, strategy, search, overrides = task
    known = model_cache.known_keys()
    hits, misses = model_cache.hits, model_cache.misses
    space, stats = _explore_one(
        kernel, spec, target, validate, strategy, search, overrides
    )
    return (
        space,
        stats,
        model_cache.delta(known),
        model_cache.hits - hits,
        model_cache.misses - misses,
    )


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize a worker count: ``None``/``-1`` mean all CPUs."""
    if n_jobs is None or n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1 or -1, got {n_jobs}")
    return n_jobs


def _report_exploration(
    spaces: Sequence[KernelDesignSpace],
    stats_list: Sequence,
    metrics,
    tracer,
) -> None:
    """Parent-side metrics/trace reporting, identical across paths.

    Runs after the serial loop, the process pool and the guided search
    alike, over worker-returned data — so counters (including
    ``dse_pruned_invalid_total``) and ``dse.search.*`` events do not
    depend on ``n_jobs`` or the strategy taken.
    """
    if metrics is not None:
        points_c = metrics.counter("dse_design_points_total")
        pruned_c = metrics.counter("dse_pruned_invalid_total")
        for space in spaces:
            points_c.inc(len(space))
            pruned_c.inc(space.pruned_invalid)
        search_stats = [s for s in stats_list if s is not None]
        if search_stats:
            evals_c = metrics.counter("dse_search_evaluations_total")
            explored_c = metrics.counter("dse_search_explored_total")
            skipped_c = metrics.counter("dse_search_skipped_total")
            screened_c = metrics.counter("dse_search_screened_total")
            gens_c = metrics.counter("dse_search_generations_total")
            for s in search_stats:
                evals_c.inc(s.evaluations)
                explored_c.inc(s.explored)
                skipped_c.inc(s.skipped)
                screened_c.inc(s.screened_infeasible)
                gens_c.inc(s.generations)
    if tracer is not None and getattr(tracer, "enabled", False):
        for stats in stats_list:
            if stats is None:
                continue
            label = f"{stats.kernel_name}@{stats.platform}"
            for r in stats.rungs:
                tracer.emit(
                    "dse.search.rung",
                    name=label,
                    kernel=stats.kernel_name,
                    platform=stats.platform,
                    rung=r.rung,
                    pool=r.pool,
                    kept=r.kept,
                )
            for g in stats.generation_log:
                tracer.emit(
                    "dse.search.generation",
                    name=label,
                    kernel=stats.kernel_name,
                    platform=stats.platform,
                    generation=g.generation,
                    evaluations=g.evaluations,
                    front_points=g.front_points,
                    hypervolume=g.hypervolume,
                )
            tracer.emit(
                "dse.search.done",
                name=label,
                kernel=stats.kernel_name,
                platform=stats.platform,
                strategy=stats.strategy,
                explored=stats.explored,
                pruned_invalid=stats.pruned_invalid,
                skipped=stats.skipped,
                evaluations=stats.evaluations,
                generations=stats.generations,
            )


def explore_application(
    kernels: Sequence[Kernel],
    specs: Sequence,
    targets: Optional[Dict[Tuple[str, DeviceType], int]] = None,
    validate: bool = False,
    n_jobs: int = 1,
    strategy: str = "exhaustive",
    search=None,
    metrics=None,
    tracer=None,
    candidate_overrides: Optional[Dict[str, Sequence]] = None,
) -> Dict[Tuple[str, str], KernelDesignSpace]:
    """Explore every kernel of an application on every platform.

    Returns ``{(kernel_name, platform_name): KernelDesignSpace}`` — the
    complete compile-time product the runtime scheduler loads.
    ``validate`` gates each per-kernel exploration through the lint
    rules (see :func:`explore_kernel`).

    ``strategy`` selects the explorer: ``"exhaustive"`` enumerates and
    evaluates the whole pruned space; ``"guided"`` runs the
    successive-halving + genetic search of :mod:`repro.optim.search`
    under ``search`` (a :class:`~repro.optim.search.SearchConfig`,
    defaulted when omitted), attaching per-space ``search_stats``.

    ``n_jobs`` fans the independent (kernel, platform) explorations out
    over a process pool (``-1`` = all CPUs).  Each exploration is
    deterministic and self-contained — the guided search's RNG is keyed
    per (seed, kernel, platform) — so any worker count produces a
    product bit-identical to the serial ``n_jobs=1`` path; result
    ordering is fixed by the (kernels x specs) enumeration, never by
    worker completion order.

    ``metrics`` (a ``MetricsRegistry``) and ``tracer`` (a ``SpanTracer``)
    receive exploration counters and ``dse.search.*`` events; both are
    driven from the parent process over worker-returned stats, so the
    reported numbers are identical across worker counts.
    """
    if strategy not in ("exhaustive", "guided"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "guided" and search is None:
        from .search import SearchConfig

        search = SearchConfig()
    tasks: List[Tuple] = []
    keys: List[Tuple[str, str]] = []
    for kernel in kernels:
        for spec in specs:
            target = None
            if targets is not None:
                target = targets.get((kernel.name, spec.device_type))
            tasks.append(
                (kernel, spec, target, validate, strategy, search, candidate_overrides)
            )
            keys.append((kernel.name, spec.name))

    workers = min(resolve_n_jobs(n_jobs), max(len(tasks), 1))
    results: List[KernelDesignSpace] = []
    stats_list: List = []
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            space, stats = _explore_one(*task)
            results.append(space)
            stats_list.append(stats)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for space, stats, entries, hits, misses in pool.map(_explore_task, tasks):
                model_cache.merge(entries, hits, misses)
                results.append(space)
                stats_list.append(stats)
    _report_exploration(results, stats_list, metrics, tracer)
    return dict(zip(keys, results))

"""Guided design-space exploration (ROADMAP item 3).

Exhaustive enumeration scales multiplicatively with every new Table-I
knob; the OPT004 budget caps it at 2048 configs/kernel and the next
knob dimensions (thread coarsening, inter-kernel pipes) blow well past
that.  This module searches the space instead of enumerating it, with
two stages under one model-evaluation budget:

1. **Successive halving** over the full knob lattice
   (:class:`~repro.optim.dse.KnobLattice`) using a cheap low-fidelity
   analytical proxy (roofline-style scoring vectorized over the
   lattice's knob columns, no model-cache traffic, no config objects).
   Each rung halves the candidate pool under a rotating latency/power
   scalarization — always retaining the proxy-Pareto members — until
   the pool reaches the genetic population size.
2. **Genetic refinement** over real model evaluations: tournament
   selection on Pareto-rank-peeled parents, per-knob uniform crossover,
   and mutation resampling from the lattice's alleles, driven by a
   deterministic ``SeedSequence``-keyed RNG.  Only the halving seeds
   and the bred children are built as :class:`ImplConfig` objects.

All real evaluations go through the vectorized
:meth:`~repro.hardware.model_cache.ModelEvalCache.evaluate_many` bulk
path (one numpy model call per generation).  The budget counts
*requested* evaluations — cache hits included — so the same seed yields
identical evaluation counts regardless of cache warmth, and the search
degrades to exhaustive exactly when the enumerated space fits the
budget, guaranteeing the guided front equals the exhaustive front on
today's apps (the golden A/B property the tests pin down).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..hardware.config import ImplConfig, knob_tuple
from ..hardware.fpga_model import FPGAModel
from ..hardware.model_cache import CachedEstimate, kernel_signature, model_cache
from ..hardware.specs import DeviceType
from ..patterns.ppg import Kernel
from .design_point import DesignPoint, KernelDesignSpace
from .dse import (
    KnobLattice,
    _evaluate,
    _subsample,
    check_target_points,
    prune_invalid_configs,
)
from .pareto import IncrementalHypervolume, ParetoFrontier

__all__ = [
    "SearchConfig",
    "RungStats",
    "GenerationStats",
    "SearchStats",
    "search_rng",
    "explore_kernel_guided",
    "space_hypervolume",
]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs of the guided explorer.

    ``max_evals`` budgets *requested model evaluations* (the quantity
    OPT004 checks in guided mode); spaces that fit the budget are
    evaluated exhaustively.  ``seed`` keys the deterministic RNG
    (``None`` trips OPT005 and falls back to 0);
    ``min_hypervolume_ratio`` is the quality gate the bench suite
    enforces against the exhaustive front (``None`` trips OPT005).
    """

    max_evals: int = 512
    seed: Optional[int] = 0
    rungs: int = 3
    population: int = 32
    generations: int = 8
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    stall_generations: int = 3
    min_hypervolume_ratio: Optional[float] = 0.99

    def __post_init__(self) -> None:
        if self.max_evals < 1:
            raise ValueError("max_evals must be >= 1")
        if self.rungs < 1:
            raise ValueError("rungs must be >= 1")
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.tournament < 1:
            raise ValueError("tournament must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be >= 1")
        if self.min_hypervolume_ratio is not None and not (
            0.0 < self.min_hypervolume_ratio <= 1.0
        ):
            raise ValueError("min_hypervolume_ratio must be in (0, 1]")


@dataclass(frozen=True)
class RungStats:
    """One successive-halving rung: pool size before and after."""

    rung: int
    pool: int
    kept: int


@dataclass(frozen=True)
class GenerationStats:
    """One genetic generation: cumulative evals and front quality."""

    generation: int
    evaluations: int
    front_points: int
    hypervolume: float


@dataclass
class SearchStats:
    """Everything a guided exploration did, picklable for pool workers.

    ``explored`` is the enumerated space size; ``evaluations`` the
    requested model evaluations (hits + misses — cache-warmth
    independent); ``skipped`` the duplicate/pruned children the GA
    declined to re-evaluate; ``screened_infeasible`` the FPGA configs
    the vectorized resource screen dropped before any latency/power
    model ran.
    """

    kernel_name: str
    platform: str
    strategy: str = "guided"
    explored: int = 0
    pruned_invalid: int = 0
    screened_infeasible: int = 0
    skipped: int = 0
    evaluations: int = 0
    generations: int = 0
    exhaustive_equivalent: bool = False
    hypervolume: float = 0.0
    rungs: List[RungStats] = field(default_factory=list)
    generation_log: List[GenerationStats] = field(default_factory=list)


def search_rng(seed: int, kernel: Kernel, spec) -> np.random.Generator:
    """Deterministic per-(seed, kernel, platform) random generator.

    Keyed through sha256 of the kernel's model signature and the
    platform name, so streams are independent of ``PYTHONHASHSEED``,
    enumeration order and worker process — the same triple always
    replays the same search.
    """
    digest = hashlib.sha256(
        f"{seed}|{kernel_signature(kernel)}|{spec.name}".encode()
    ).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(words))


# -- low-fidelity proxy -------------------------------------------------------


def _proxy_objectives(
    kernel: Kernel, spec, knobs: Mapping[str, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Roofline-style screening objectives, vectorized over knob columns.

    Deliberately *not* the real models: no occupancy tables, no
    calibration bias, no resource placement — just monotone trends in
    the knobs, cheap enough to score the entire enumerated space
    without touching the model cache.  Used only to rank
    successive-halving pools; proxy numbers never reach a DesignPoint.
    """
    freq = knobs["freq_scale"]
    unroll = knobs["unroll"].astype(np.float64)
    wg = knobs["work_group_size"].astype(np.float64)
    ops = float(kernel.total_ops)
    io = float(max(kernel.io_bytes, 1))
    dynamic = spec.peak_power_w - spec.idle_power_w
    if spec.device_type == DeviceType.GPU:
        coal = np.where(knobs["memory_coalescing"], 1.0, 0.55)
        scratch = np.where(knobs["use_scratchpad"], 0.8, 1.0)
        occ = np.minimum(wg / 256.0, 1.0) * np.sqrt(np.minimum(unroll / 4.0, 1.0))
        occ = np.maximum(occ, 0.05)
        compute = ops / (spec.peak_gflops * 1e6 * freq * occ)
        memory = io * scratch / (spec.mem_bandwidth_gbps * 1e6 * coal)
        power = spec.idle_power_w + dynamic * occ * freq**2.2
    else:
        cu = knobs["compute_units"].astype(np.float64)
        ports = knobs["bram_ports"].astype(np.float64)
        lanes = np.maximum(unroll * cu, 1.0)
        ii = np.where(knobs["pipelined"], 1.0, 4.0)
        starve = np.maximum(lanes / np.maximum(ports * 32.0, 1.0), 1.0)
        fmax = spec.peak_freq_mhz * spec.achievable_freq_frac * freq
        compute = ops * ii * starve / (lanes * fmax * 1e3)
        bw = np.where(knobs["double_buffer"], 0.75, 0.45)
        memory = io / (spec.mem_bandwidth_gbps * 1e6 * bw)
        util = np.minimum((lanes + ports) / 64.0, 1.0)
        power = spec.idle_power_w + dynamic * np.maximum(util, 0.05) * freq**2
    latency = np.maximum(compute, memory) + 0.3 * np.minimum(compute, memory)
    latency = np.where(knobs["fused"], latency * 0.9, latency)
    return latency, power


def _front_mask(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Membership mask of the 2-D minimization Pareto front.

    In (f1, f2) lexicographic order a point is on the front iff its f2
    is strictly below every earlier point's (objectives are finite).
    """
    order = np.lexsort((f2, f1))
    ranked = f2[order]
    best_before = np.empty_like(ranked)
    best_before[:1] = np.inf
    np.minimum.accumulate(ranked[:-1], out=best_before[1:])
    mask = np.zeros(len(f1), dtype=bool)
    mask[order] = ranked < best_before
    return mask


def _pareto_ranks(f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Front-peeling rank per point: 0 = Pareto front, 1 = next, ..."""
    n = len(f1)
    ranks = np.full(n, -1, dtype=np.int64)
    remaining = np.arange(n)
    rank = 0
    while len(remaining):
        mask = _front_mask(f1[remaining], f2[remaining])
        ranks[remaining[mask]] = rank
        remaining = remaining[~mask]
        rank += 1
    return ranks


def _normalized(values: np.ndarray) -> np.ndarray:
    span = float(np.ptp(values))
    if span <= 0.0:
        return np.zeros(len(values))
    return (values - float(values.min())) / span


def _successive_halving(
    proxy_lat: np.ndarray,
    proxy_pow: np.ndarray,
    search: SearchConfig,
    stats: SearchStats,
) -> np.ndarray:
    """Shrink the candidate pool to the GA population size, rung by rung.

    Each rung halves the pool (the final rung clamps to the population
    size) under a rotating latency/power blend; the proxy-Pareto members
    of the current pool are always retained so neither extreme of the
    trade-off can be screened out, and the rest of the rung is filled
    with the best-scoring non-front members.  Selection is a stable
    argsort over proxy scores — fully deterministic, no RNG involved.
    Returns the surviving candidate positions in ascending (enumeration)
    order.
    """
    target = search.population
    pool = np.arange(len(proxy_lat))
    for rung in range(search.rungs):
        if len(pool) <= target:
            break
        keep_n = max(len(pool) // 2, target)
        if rung == search.rungs - 1:
            keep_n = target
        lat = proxy_lat[pool]
        pw = proxy_pow[pool]
        weight = (rung + 0.5) / search.rungs
        score = weight * _normalized(lat) + (1.0 - weight) * _normalized(pw)
        order = np.argsort(score, kind="stable")
        keep = _front_mask(lat, pw)
        fill = keep_n - int(keep.sum())
        if fill > 0:
            keep[order[~keep[order]][:fill]] = True
        stats.rungs.append(
            RungStats(rung=rung, pool=len(pool), kept=int(keep.sum()))
        )
        pool = pool[keep]
    return pool


# -- genetic refinement -------------------------------------------------------


def _selection_keys(
    population: Sequence[Tuple[ImplConfig, float, float]],
) -> List[Tuple]:
    """Total-order sort keys: Pareto rank, scalarized score, knob tuple."""
    lat = np.fromiter((p[1] for p in population), np.float64, len(population))
    pw = np.fromiter((p[2] for p in population), np.float64, len(population))
    ranks = _pareto_ranks(lat, pw)
    score = 0.5 * _normalized(lat) + 0.5 * _normalized(pw)
    return [
        (int(ranks[i]), float(score[i]), knob_tuple(population[i][0]))
        for i in range(len(population))
    ]


def _tournament(
    rng: np.random.Generator,
    population: Sequence[Tuple[ImplConfig, float, float]],
    keys: Sequence[Tuple],
    size: int,
) -> ImplConfig:
    entrants = rng.integers(0, len(population), size=min(size, len(population)))
    return population[min(entrants.tolist(), key=keys.__getitem__)][0]


def _points_of(
    kernel: Kernel,
    spec,
    evaluated: Dict[ImplConfig, CachedEstimate],
) -> List[DesignPoint]:
    return [
        DesignPoint(
            kernel_name=kernel.name,
            platform=spec.name,
            device_type=spec.device_type,
            config=config,
            latency_ms=est.latency_ms,
            power_w=est.active_power_w,
        )
        for config, est in evaluated.items()
        if est.feasible
    ]


def space_hypervolume(
    space: KernelDesignSpace, reference: Optional[Tuple[float, float]] = None
) -> float:
    """Hypervolume of a design space's latency/power Pareto front.

    The default reference is 1.05x the space's own worst corner;
    callers comparing two spaces (the bench harness's guided-vs-
    exhaustive ratio) must pass one shared reference.
    """
    if reference is None:
        reference = (
            1.05 * max(p.latency_ms for p in space.points),
            1.05 * max(p.power_w for p in space.points),
        )
    frontier: ParetoFrontier[DesignPoint] = ParetoFrontier()
    for p in space.points:
        frontier.insert(p, p.latency_ms, p.power_w)
    return frontier.hypervolume(reference)


def explore_kernel_guided(
    kernel: Kernel,
    spec,
    search: Optional[SearchConfig] = None,
    target_points: Optional[int] = None,
    validate: bool = False,
    candidate_overrides: Optional[Dict[str, Sequence]] = None,
) -> Tuple[KernelDesignSpace, SearchStats]:
    """Guided exploration of one (kernel, platform) pair.

    Mirrors :func:`~repro.optim.dse.explore_kernel` (same lint gate,
    same ``pruned_invalid`` accounting, same subsampling) but spends at
    most ``search.max_evals`` model evaluations.  When the enumerated
    space fits the budget the search is exhaustive-equivalent and the
    returned front is exactly the exhaustive one.  Returns the design
    space (built from every feasible evaluated point, with the stats
    attached as ``space.search_stats``) plus the :class:`SearchStats`.
    """
    check_target_points(target_points)
    search = search or SearchConfig()
    stats = SearchStats(kernel_name=kernel.name, platform=spec.name)
    if validate:
        from ..lint import LintContext, run_lint

        run_lint(kernel, LintContext(spec=spec)).raise_if_errors(
            f"kernel {kernel.name!r}"
        )
    lattice = KnobLattice.of(kernel, spec, candidate_overrides)
    stats.explored = lattice.size
    pruned: Set[ImplConfig] = set()
    # Candidates are lattice indices; only the halving survivors and
    # the GA children become config objects.
    candidates = np.arange(lattice.size)
    if validate or lattice.size <= search.max_evals:
        # Lint needs every config, and a space within budget is
        # evaluated whole: both materialize the enumeration.
        configs = lattice.configs()
        if validate:
            kept, _report = prune_invalid_configs(kernel, spec, configs)
            stats.pruned_invalid = len(configs) - len(kept)
            pruned = set(configs).difference(kept)
            candidates = np.flatnonzero([c not in pruned for c in configs])
            configs = kept
        if len(configs) <= search.max_evals:
            # Budget covers the whole space: evaluate everything, so the
            # guided front IS the exhaustive front.
            stats.exhaustive_equivalent = True
            stats.evaluations = len(configs)
            points = _evaluate(kernel, spec, configs)
            return _finish(kernel, spec, points, target_points, stats)

    rng = search_rng(search.seed if search.seed is not None else 0, kernel, spec)
    knobs = {name: col[candidates] for name, col in lattice.columns().items()}

    # FPGA placement screen: the vectorized resource model rejects
    # un-placeable configs without spending latency/power evaluations.
    if spec.device_type == DeviceType.FPGA:
        feasible = FPGAModel(spec).feasible_columns(kernel, knobs)
        stats.screened_infeasible = int(len(feasible) - int(feasible.sum()))
        candidates = candidates[feasible]
        knobs = {name: column[feasible] for name, column in knobs.items()}
    if not len(candidates):
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )

    proxy_lat, proxy_pow = _proxy_objectives(kernel, spec, knobs)
    pool = _successive_halving(proxy_lat, proxy_pow, search, stats)
    seeds = [lattice.config(int(i)) for i in candidates[pool[: search.max_evals]]]

    evaluated: Dict[ImplConfig, CachedEstimate] = {}
    estimates = model_cache.evaluate_many(kernel, spec, seeds)
    stats.evaluations += len(seeds)
    population: List[Tuple[ImplConfig, float, float]] = []
    for config, est in zip(seeds, estimates):
        evaluated[config] = est
        if est.feasible:
            population.append((config, est.latency_ms, est.active_power_w))
    if not population:
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )

    reference = (
        2.0 * max(p[1] for p in population),
        2.0 * max(p[2] for p in population),
    )
    front: IncrementalHypervolume[ImplConfig] = IncrementalHypervolume(reference)
    for config, lat, pw in population:
        front.insert(config, lat, pw)
    stats.generation_log.append(
        GenerationStats(0, stats.evaluations, len(front), front.area)
    )

    # Children are deduplicated by genes, before any config is built:
    # designs already evaluated, pending or lint-pruned are skipped.
    seen = {lattice.genes(c) for c in evaluated}
    seen.update(lattice.genes(c) for c in pruned)
    stall = 0
    for gen in range(1, search.generations + 1):
        remaining = search.max_evals - stats.evaluations
        if remaining <= 0:
            break
        keys = _selection_keys(population)
        children: List[ImplConfig] = []
        attempts = 0
        want = min(search.population, remaining)
        while len(children) < want and attempts < 20 * search.population:
            attempts += 1
            genes = _breed(rng, population, keys, search, lattice)
            if genes in seen:
                stats.skipped += 1
                continue
            seen.add(genes)
            children.append(lattice.build(genes))
        if not children:
            break
        estimates = model_cache.evaluate_many(kernel, spec, children)
        stats.evaluations += len(children)
        gain = 0.0
        for config, est in zip(children, estimates):
            evaluated[config] = est
            if est.feasible:
                population.append((config, est.latency_ms, est.active_power_w))
                gain += front.insert(config, est.latency_ms, est.active_power_w)
        stats.generations = gen
        stats.generation_log.append(
            GenerationStats(gen, stats.evaluations, len(front), front.area)
        )
        population = _survivors(population, search.population)
        stall = stall + 1 if gain <= 0.0 else 0
        if stall >= search.stall_generations:
            break

    points = _points_of(kernel, spec, evaluated)
    return _finish(kernel, spec, points, target_points, stats)


def _finish(
    kernel: Kernel,
    spec,
    points: List[DesignPoint],
    target_points: Optional[int],
    stats: SearchStats,
) -> Tuple[KernelDesignSpace, SearchStats]:
    if not points:
        raise RuntimeError(
            f"no feasible design for kernel {kernel.name!r} on {spec.name!r}"
        )
    if target_points is not None:
        points = _subsample(points, target_points)
    space = KernelDesignSpace(
        kernel.name,
        spec.name,
        spec.device_type,
        points,
        pruned_invalid=stats.pruned_invalid,
    )
    stats.hypervolume = space_hypervolume(space)
    space.search_stats = stats
    return space, stats


def _breed(
    rng: np.random.Generator,
    population: Sequence[Tuple[ImplConfig, float, float]],
    keys: Sequence[Tuple],
    search: SearchConfig,
    lattice: KnobLattice,
) -> Tuple:
    """One child's genes: tournament parents, uniform crossover, mutation.

    Genes are the lattice's knobs and mutation resamples from its
    alleles, so every child lies inside the enumerated space —
    lint-pruned children are simply skipped by the caller.
    """
    parent = _tournament(rng, population, keys, search.tournament)
    genes = [getattr(parent, name) for name in lattice.names]
    if float(rng.random()) < search.crossover_rate:
        other = _tournament(rng, population, keys, search.tournament)
        # One uniform draw per gene, in gene order (a vector draw
        # consumes the stream exactly like per-gene scalar draws).
        swap = rng.random(len(genes)) < 0.5
        for k, name in enumerate(lattice.names):
            if swap[k]:
                genes[k] = getattr(other, name)
    for k, alleles in enumerate(lattice.alleles):
        if float(rng.random()) < search.mutation_rate:
            genes[k] = alleles[int(rng.integers(len(alleles)))]
    return tuple(genes)


def _survivors(
    population: List[Tuple[ImplConfig, float, float]], size: int
) -> List[Tuple[ImplConfig, float, float]]:
    """Deterministic (rank, score, knob-tuple) truncation selection."""
    if len(population) <= size:
        return population
    keys = _selection_keys(population)
    order = sorted(range(len(population)), key=lambda i: keys[i])
    return [population[i] for i in order[:size]]

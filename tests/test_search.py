"""Guided DSE: golden A/B parity, determinism, hypervolume, batch eval.

The contracts pinned down here are the ones the dse-perf CI job gates:

* full-budget guided exploration recovers the exhaustive Pareto front
  *exactly* on every bundled app (exhaustive-equivalence);
* on a >=10x-enlarged synthetic knob space, the budgeted search reaches
  >=0.99 of the exhaustive hypervolume with >=5x fewer model
  evaluations;
* the same seed yields an identical product — fronts, evaluation
  counts, reported stats — at any ``n_jobs`` and any cache warmth;
* the vectorized batch model path is float-identical to the scalar
  path, and the model cache's bulk counters match a scalar loop.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from conftest import small_kernel
from repro import apps, runtime
from repro.benchref.harness import _DSE_SEARCH_OVERRIDES
from repro.hardware import AMD_W9100, XILINX_7V3, ImplConfig, clear_model_cache
from repro.hardware.config import knob_columns
from repro.hardware.fpga_model import FPGAModel
from repro.hardware.gpu_model import GPUModel
from repro.hardware.model_cache import CachedEstimate, ModelEvalCache
from repro.hardware.specs import DeviceType
from repro.lint import LintContext, run_lint
from repro.obs import MetricsRegistry, SpanTracer
from repro.optim import (
    IncrementalHypervolume,
    ParetoFrontier,
    SearchConfig,
    explore_kernel_guided,
    hypervolume_2d,
    space_hypervolume,
)
from repro.optim.dse import (
    KnobLattice,
    _point_order_key,
    enumerate_configs,
    explore_application,
    explore_kernel,
    prune_invalid_configs,
)
from repro.optim.search import (
    SearchStats,
    _front_mask,
    _normalized,
    _proxy_objectives,
    _successive_halving,
)

PLATFORMS = runtime.setting("I", "Heter-Poly").platforms

#: The bench harness's synthetic enlargement (>=10x per device family),
#: so the quality tests pin the same space CI gates.
ENLARGE = _DSE_SEARCH_OVERRIDES


def _front_key(space):
    return [(p.config, p.latency_ms, p.power_w) for p in space.pareto()]


def _space_key(space):
    return [(p.config, p.latency_ms, p.power_w, p.index) for p in space]


# ---------------------------------------------------------------------------
# Hypervolume
# ---------------------------------------------------------------------------


class TestHypervolume:
    def _random_items(self, seed, n=300):
        rng = random.Random(seed)
        return [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]

    @pytest.mark.parametrize("seed", range(5))
    def test_frontier_sweep_matches_brute_force(self, seed):
        """The frontier's O(n) sweep must equal hypervolume_2d on random
        fronts (same reference, same items)."""
        items = self._random_items(seed)
        reference = (11.0, 11.0)
        frontier = ParetoFrontier()
        for it in items:
            frontier.insert(it, it[0], it[1])
        assert frontier.hypervolume(reference) == pytest.approx(
            hypervolume_2d(items, lambda t: t, reference), rel=1e-12
        )

    def test_points_beyond_reference_excluded(self):
        frontier = ParetoFrontier()
        frontier.insert("in", 1.0, 1.0)
        frontier.insert("out", 0.5, 99.0)  # beyond ref in f2
        assert frontier.hypervolume((2.0, 2.0)) == pytest.approx(1.0)

    def test_empty_frontier_zero(self):
        assert ParetoFrontier().hypervolume((1.0, 1.0)) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_incremental_gains_sum_to_area(self, seed):
        """insert() gains must telescope to the final area, which must
        equal a from-scratch sweep of the same point set."""
        items = self._random_items(seed, n=200)
        reference = (11.0, 11.0)
        inc = IncrementalHypervolume(reference)
        total = 0.0
        for it in items:
            gain = inc.insert(it, it[0], it[1])
            assert gain >= 0.0
            total += gain
        assert total == pytest.approx(inc.area, rel=1e-9)
        assert inc.area == pytest.approx(
            hypervolume_2d(items, lambda t: t, reference), rel=1e-9
        )

    def test_incremental_dominated_offer_is_free(self):
        inc = IncrementalHypervolume((10.0, 10.0))
        assert inc.insert("a", 2.0, 2.0) > 0.0
        area = inc.area
        assert inc.insert("b", 3.0, 3.0) == 0.0  # dominated: no re-sweep
        assert inc.area == area and len(inc) == 1


# ---------------------------------------------------------------------------
# SearchConfig validation + lint hygiene
# ---------------------------------------------------------------------------


class TestSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_evals": 0},
            {"rungs": 0},
            {"population": 1},
            {"generations": -1},
            {"tournament": 0},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"stall_generations": 0},
            {"min_hypervolume_ratio": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)

    def test_opt005_missing_seed_fires(self):
        report = run_lint(SearchConfig(seed=None), LintContext())
        assert len(report.by_rule("OPT005")) == 1
        assert "seed" in report.by_rule("OPT005")[0].message

    def test_opt005_missing_quality_gate_fires(self):
        report = run_lint(
            SearchConfig(min_hypervolume_ratio=None), LintContext()
        )
        assert len(report.by_rule("OPT005")) == 1
        assert "hypervolume" in report.by_rule("OPT005")[0].message

    def test_opt005_both_missing_fires_twice(self):
        report = run_lint(
            SearchConfig(seed=None, min_hypervolume_ratio=None), LintContext()
        )
        assert len(report.by_rule("OPT005")) == 2

    def test_opt005_defaults_clean(self):
        assert not run_lint(SearchConfig(), LintContext()).by_rule("OPT005")

    def test_opt004_guided_budgets_model_evaluations(self):
        """With a SearchConfig in context OPT004 budgets
        min(enumerated, max_evals), not the raw enumeration."""
        kernel = small_kernel("budget", elements=1 << 14)
        ctx = LintContext(spec=AMD_W9100, config_budget=4)
        exhaustive = run_lint(kernel, ctx, expand=False).by_rule("OPT004")
        assert len(exhaustive) == 1
        assert "enumerates" in exhaustive[0].message

        guided_ctx = LintContext(
            spec=AMD_W9100,
            config_budget=4,
            search=SearchConfig(max_evals=100),
        )
        guided = run_lint(kernel, guided_ctx, expand=False).by_rule("OPT004")
        assert len(guided) == 1
        assert "guided search spends up to" in guided[0].message

        # A budget the guided spend fits under: clean, even though the
        # enumeration alone would fire.
        roomy = LintContext(
            spec=AMD_W9100,
            config_budget=100,
            search=SearchConfig(max_evals=16),
        )
        assert not run_lint(kernel, roomy, expand=False).by_rule("OPT004")


# ---------------------------------------------------------------------------
# Golden A/B: guided == exhaustive at full budget
# ---------------------------------------------------------------------------


class TestGoldenParity:
    @pytest.mark.parametrize("name", sorted(apps.APP_BUILDERS))
    def test_full_budget_recovers_exhaustive_front_exactly(self, name):
        """On every bundled app the un-enlarged spaces fit an unbounded
        budget, so guided must be exhaustive-equivalent with fronts
        equal point-for-point."""
        app = apps.build(name)
        exhaustive = explore_application(app.kernels, PLATFORMS)
        guided = explore_application(
            app.kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=10**9, seed=0),
        )
        assert set(exhaustive) == set(guided)
        for key in exhaustive:
            assert _front_key(exhaustive[key]) == _front_key(guided[key]), key
            stats = guided[key].search_stats
            assert stats.exhaustive_equivalent
            assert stats.evaluations == stats.explored

    def test_exhaustive_spaces_carry_no_search_stats(self):
        app = apps.build("MF")
        spaces = explore_application(app.kernels, PLATFORMS)
        assert all(s.search_stats is None for s in spaces.values())


# ---------------------------------------------------------------------------
# Budgeted search on the enlarged space
# ---------------------------------------------------------------------------


class TestBudgetedQuality:
    def _explore_pair(self, budget=512, seed=0, n_jobs=1):
        app = apps.build("MF")
        exhaustive = explore_application(
            app.kernels, PLATFORMS, candidate_overrides=ENLARGE
        )
        guided = explore_application(
            app.kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=budget, seed=seed),
            candidate_overrides=ENLARGE,
            n_jobs=n_jobs,
        )
        return exhaustive, guided

    def test_recovers_hypervolume_with_far_fewer_evals(self):
        """The CI quality gate in miniature: >=0.99 hypervolume ratio per
        space at >=5x fewer model evaluations than enumeration."""
        exhaustive, guided = self._explore_pair()
        explored = evals = 0
        budgeted = 0
        for key, ex_space in exhaustive.items():
            g_space = guided[key]
            stats = g_space.search_stats
            budgeted += not stats.exhaustive_equivalent
            explored += stats.explored
            evals += stats.evaluations
            assert stats.evaluations <= 512
            reference = (
                1.05 * max(p.latency_ms for p in ex_space),
                1.05 * max(p.power_w for p in ex_space),
            )
            ratio = space_hypervolume(g_space, reference) / space_hypervolume(
                ex_space, reference
            )
            assert ratio >= 0.99, (key, ratio)
        # The enlarged GPU spaces genuinely exceed the budget (tiny
        # kernels whose space still fits it stay exhaustive-equivalent).
        assert budgeted > 0
        assert explored >= 5 * evals

    def test_enlargement_is_at_least_10x(self):
        """The synthetic override must actually enlarge every per-device
        space >=10x, or the quality test above proves nothing."""
        app = apps.build("MF")
        for kernel in app.kernels:
            for spec in PLATFORMS:
                plain = len(enumerate_configs(kernel, spec))
                enlarged = len(
                    enumerate_configs(kernel, spec, overrides=ENLARGE)
                )
                assert enlarged >= 10 * plain, (kernel.name, spec.name)

    def test_same_seed_identical_across_n_jobs(self):
        """Seeded determinism: the pooled product (including per-space
        stats) must be bit-identical to the serial one."""
        _, serial = self._explore_pair(budget=256)
        _, pooled = self._explore_pair(budget=256, n_jobs=2)
        for key in serial:
            assert _space_key(serial[key]) == _space_key(pooled[key])
            s, p = serial[key].search_stats, pooled[key].search_stats
            assert dataclasses.asdict(s) == dataclasses.asdict(p)

    def test_same_seed_identical_across_cache_warmth(self):
        """The budget counts *requested* evaluations, so a warm cache
        must not change fronts or any reported count."""
        clear_model_cache()
        try:
            _, cold = self._explore_pair(budget=256)
            _, warm = self._explore_pair(budget=256)
            for key in cold:
                assert _space_key(cold[key]) == _space_key(warm[key])
                assert (
                    dataclasses.asdict(cold[key].search_stats)
                    == dataclasses.asdict(warm[key].search_stats)
                )
        finally:
            clear_model_cache()

    def test_unknown_strategy_rejected(self):
        app = apps.build("MF")
        with pytest.raises(ValueError, match="strategy"):
            explore_application(app.kernels, PLATFORMS, strategy="random")

    def test_guided_single_kernel_entry_point(self):
        """explore_kernel_guided is usable directly and attaches stats."""
        kernel = apps.build("MF").kernels[0]
        space, stats = explore_kernel_guided(
            kernel,
            AMD_W9100,
            search=SearchConfig(max_evals=64, seed=0),
            candidate_overrides=ENLARGE,
        )
        assert space.search_stats is stats
        assert 0 < stats.evaluations <= 64
        assert stats.rungs and stats.generation_log
        assert stats.hypervolume > 0.0


# ---------------------------------------------------------------------------
# Knob lattice: enumeration order, columns, lazily built designs
# ---------------------------------------------------------------------------


def _asr_lstm():
    return next(k for k in apps.build("ASR").kernels if k.name == "LSTM_acoustic")


class TestKnobLattice:
    @pytest.mark.parametrize("spec", PLATFORMS, ids=lambda s: s.name)
    def test_index_order_is_enumeration_order(self, spec):
        """config(i) decodes the mixed-radix digits of index i; the
        enumeration is itertools.product over sorted knobs, fused last."""
        kernel = _asr_lstm()
        lattice = KnobLattice.of(kernel, spec)
        configs = lattice.configs()
        assert configs == enumerate_configs(kernel, spec)
        assert len(configs) == lattice.size
        assert lattice.names[-1] == "fused"
        assert list(lattice.names[:-1]) == sorted(lattice.names[:-1])
        assert [lattice.config(i) for i in range(lattice.size)] == configs
        assert [lattice.build(lattice.genes(c)) for c in configs] == configs
        expected = [
            dict(zip(lattice.names, values))
            for values in itertools.product(*lattice.alleles)
        ]
        assert [
            {n: getattr(c, n) for n in lattice.names} for c in configs
        ] == expected

    @pytest.mark.parametrize("spec", PLATFORMS, ids=lambda s: s.name)
    def test_columns_equal_columns_of_the_configs(self, spec):
        lattice = KnobLattice.of(_asr_lstm(), spec, ENLARGE)
        got = lattice.columns()
        want = knob_columns(lattice.configs())
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            assert np.array_equal(got[name], want[name]), name

    def test_forced_knobs_apply_to_every_design(self):
        """Irregular access forces coalescing on a GPU: not a lattice
        knob, but set on every design and in every column."""
        kernel = next(
            k for k in apps.build("IR").kernels
            if "memory_coalescing"
            in KnobLattice.of(k, AMD_W9100).forced
        )
        lattice = KnobLattice.of(kernel, AMD_W9100)
        assert "memory_coalescing" not in lattice.names
        assert all(c.memory_coalescing for c in lattice.configs())
        assert lattice.columns()["memory_coalescing"].all()

    @pytest.mark.parametrize("spec", PLATFORMS, ids=lambda s: s.name)
    def test_guided_builds_only_evaluated_designs(self, spec, monkeypatch):
        """With validation off and a lattice over budget, the search
        builds one ImplConfig per requested evaluation — never the
        enumeration, and never a duplicate child."""
        kernel = _asr_lstm()
        search = SearchConfig(max_evals=128, seed=0)
        assert KnobLattice.of(kernel, spec, ENLARGE).size > search.max_evals
        built = []
        check = ImplConfig.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(ImplConfig, "__post_init__", counting)
        _, stats = explore_kernel_guided(
            kernel, spec, search=search, candidate_overrides=ENLARGE
        )
        assert not stats.exhaustive_equivalent
        assert stats.skipped > 0
        assert len(built) == stats.evaluations
        assert len(set(built)) == len(built)

    def test_validated_seeds_come_from_the_lint_kept_designs(self):
        """With validation on and a lattice over budget, the halving
        seeds are the proxy survivors among the lint-kept designs, in
        enumeration order — the lattice-index candidates map back to
        the kept configs, not to positions in the kept list."""
        kernel = _asr_lstm()
        overrides = {"unroll": (1, 16, 256, 1024), "compute_units": (1, 4, 8)}
        search = SearchConfig(max_evals=64, seed=0, generations=0)
        model = FPGAModel(XILINX_7V3)
        lattice = KnobLattice.of(kernel, XILINX_7V3, overrides)
        assert lattice.size > search.max_evals
        kept, _ = prune_invalid_configs(kernel, XILINX_7V3, lattice.configs())
        knobs = knob_columns(kept)
        feasible = model.feasible_columns(kernel, knobs)
        kept = [c for c, ok in zip(kept, feasible) if ok]
        knobs = {name: column[feasible] for name, column in knobs.items()}
        lat, pw = _proxy_objectives(kernel, XILINX_7V3, knobs)
        stats = SearchStats(kernel.name, XILINX_7V3.name)
        want = [kept[i] for i in _successive_halving(lat, pw, search, stats)]

        space, got = explore_kernel_guided(
            kernel,
            XILINX_7V3,
            search=search,
            validate=True,
            candidate_overrides=overrides,
        )
        assert got.pruned_invalid > 0
        assert got.evaluations == len(want)
        assert {p.config for p in space.points} == {
            c for c in want if model.feasible(kernel, c)
        }


def _front_mask_loop(f1, f2):
    """Reference: the scalar sweep the vectorized mask replaced."""
    mask = np.zeros(len(f1), dtype=bool)
    best = np.inf
    for j in np.lexsort((f2, f1)):
        if f2[j] < best:
            mask[j] = True
            best = f2[j]
    return mask


def _halving_loop(proxy_lat, proxy_pow, search):
    """Reference: the per-index selection loop the vectorized halving
    replaced (front members first, then the stable score order)."""
    pool = list(range(len(proxy_lat)))
    for rung in range(search.rungs):
        if len(pool) <= search.population:
            break
        keep_n = max(len(pool) // 2, search.population)
        if rung == search.rungs - 1:
            keep_n = search.population
        lat, pw = proxy_lat[pool], proxy_pow[pool]
        weight = (rung + 0.5) / search.rungs
        score = weight * _normalized(lat) + (1.0 - weight) * _normalized(pw)
        kept = [pool[j] for j in np.nonzero(_front_mask_loop(lat, pw))[0]]
        seen = set(kept)
        for j in np.argsort(score, kind="stable"):
            if len(kept) >= max(keep_n, len(seen)):
                break
            if pool[int(j)] not in seen:
                seen.add(pool[int(j)])
                kept.append(pool[int(j)])
        pool = sorted(kept)
    return pool


class TestVectorizedSelection:
    """The numpy front mask and halving equal their loop references,
    ties and duplicate objectives included."""

    @pytest.mark.parametrize("seed", range(6))
    def test_front_mask_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # Coarse values force ties in both objectives.
        f1 = rng.integers(0, 20, n).astype(float)
        f2 = rng.integers(0, 20, n).astype(float)
        assert np.array_equal(_front_mask(f1, f2), _front_mask_loop(f1, f2))

    @pytest.mark.parametrize("seed", range(6))
    def test_halving_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 2000))
        lat = rng.integers(1, 50, n).astype(float)
        pw = rng.integers(1, 50, n).astype(float)
        search = SearchConfig(population=16, rungs=int(rng.integers(1, 5)))
        stats = SearchStats("k", "p")
        got = _successive_halving(lat, pw, search, stats)
        assert got.tolist() == _halving_loop(lat, pw, search)


class TestTargetPoints:
    """``target_points`` edge cases on both explorers."""

    def _explore(self, strategy, target):
        kernel = _asr_lstm()
        if strategy == "exhaustive":
            return explore_kernel(kernel, AMD_W9100, target_points=target)
        return explore_kernel_guided(
            kernel,
            AMD_W9100,
            search=SearchConfig(max_evals=64, seed=0),
            target_points=target,
            candidate_overrides=ENLARGE,
        )[0]

    @pytest.mark.parametrize("strategy", ["exhaustive", "guided"])
    def test_target_one_keeps_the_fastest_point(self, strategy):
        full = self._explore(strategy, None)
        (only,) = self._explore(strategy, 1).points
        first = min(full.points, key=_point_order_key)
        assert (only.config, only.latency_ms, only.power_w) == (
            first.config,
            first.latency_ms,
            first.power_w,
        )
        assert only.latency_ms == full.min_latency().latency_ms

    @pytest.mark.parametrize("target", [0, -3])
    @pytest.mark.parametrize("strategy", ["exhaustive", "guided"])
    def test_target_below_one_names_the_argument(self, strategy, target):
        with pytest.raises(ValueError, match="target_points"):
            self._explore(strategy, target)

    def test_application_targets_validated(self):
        kernel = _asr_lstm()
        with pytest.raises(ValueError, match="target_points"):
            explore_application(
                [kernel], [AMD_W9100], {(kernel.name, DeviceType.GPU): 0}
            )


# ---------------------------------------------------------------------------
# Reporting: metrics counters, trace events, pruned_invalid consistency
# ---------------------------------------------------------------------------


class TestReporting:
    def test_metrics_counters_match_stats(self):
        app = apps.build("MF")
        registry = MetricsRegistry()
        spaces = explore_application(
            app.kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=256, seed=0),
            candidate_overrides=ENLARGE,
            metrics=registry,
        )
        stats = [s.search_stats for s in spaces.values()]
        assert registry.value("dse_design_points_total") == sum(
            len(s) for s in spaces.values()
        )
        assert registry.value("dse_search_evaluations_total") == sum(
            s.evaluations for s in stats
        )
        assert registry.value("dse_search_explored_total") == sum(
            s.explored for s in stats
        )
        assert registry.value("dse_search_skipped_total") == sum(
            s.skipped for s in stats
        )
        assert registry.value("dse_search_screened_total") == sum(
            s.screened_infeasible for s in stats
        )
        assert registry.value("dse_search_generations_total") == sum(
            s.generations for s in stats
        )

    def test_trace_events_emitted_and_n_jobs_invariant(self):
        def traced(n_jobs):
            tracer = SpanTracer()
            explore_application(
                apps.build("MF").kernels,
                PLATFORMS,
                strategy="guided",
                search=SearchConfig(max_evals=256, seed=0),
                candidate_overrides=ENLARGE,
                tracer=tracer,
                n_jobs=n_jobs,
            )
            return [e.to_dict() for e in tracer.events]

        serial = traced(1)
        kinds = {e["kind"] for e in serial}
        assert kinds == {
            "dse.search.rung", "dse.search.generation", "dse.search.done"
        }
        done = [e for e in serial if e["kind"] == "dse.search.done"]
        assert {(e["args"]["kernel"], e["args"]["platform"]) for e in done} == {
            (k.name, s.name)
            for k in apps.build("MF").kernels
            for s in PLATFORMS
        }
        assert serial == traced(2)

    def test_pruned_invalid_consistent_across_paths(self):
        """Serial exhaustive, pooled exhaustive and guided must agree on
        pruned_invalid per space (and in the metrics rollup).

        The unroll=1024 override over-subscribes the Virtex-7 DSP budget
        on the LSTM kernel, so OPT002 genuinely prunes the FPGA space.
        """
        kernels = apps.build("ASR").kernels[:1]
        overrides = {"unroll": (1, 16, 256, 1024), "compute_units": (1, 4, 8)}
        kwargs = {"validate": True, "candidate_overrides": overrides}
        serial = explore_application(kernels, PLATFORMS, **kwargs)
        pooled = explore_application(kernels, PLATFORMS, n_jobs=2, **kwargs)
        registry = MetricsRegistry()
        guided = explore_application(
            kernels,
            PLATFORMS,
            strategy="guided",
            search=SearchConfig(max_evals=10**9, seed=0),
            metrics=registry,
            **kwargs,
        )
        total = 0
        for key in serial:
            pruned = serial[key].pruned_invalid
            assert pooled[key].pruned_invalid == pruned
            assert guided[key].pruned_invalid == pruned
            assert guided[key].search_stats.pruned_invalid == pruned
            total += pruned
        assert total > 0  # OPT002 really fires on the enlarged space
        assert registry.value("dse_pruned_invalid_total") == total


# ---------------------------------------------------------------------------
# Vectorized batch models: float-identical to the scalar path
# ---------------------------------------------------------------------------


class TestBatchFloatIdentity:
    @pytest.mark.parametrize("name", sorted(apps.APP_BUILDERS))
    def test_every_app_kernel_batch_matches_scalar(self, name):
        """estimate_batch must be bit-for-bit equal to per-config
        estimate()/feasible() on every enumerated config of every app
        (ASR et al. carry platform_bias != 1, covering the bias paths)."""
        app = apps.build(name)
        for kernel in app.kernels:
            for spec in PLATFORMS:
                configs = enumerate_configs(kernel, spec)
                if spec.device_type.value == "fpga":
                    model = FPGAModel(spec)
                    feasible, lat, power = model.estimate_batch(kernel, configs)
                    for i, config in enumerate(configs):
                        ok = model.feasible(kernel, config)
                        assert bool(feasible[i]) == ok, (kernel.name, i)
                        if ok:
                            est = model.estimate(kernel, config)
                            assert float(lat[i]) == est.latency_ms
                            assert float(power[i]) == est.active_power_w
                        else:
                            assert np.isnan(lat[i]) and np.isnan(power[i])
                else:
                    gpu = GPUModel(spec)
                    lat, power = gpu.estimate_batch(kernel, configs)
                    for i, config in enumerate(configs):
                        est = gpu.estimate(kernel, config)
                        assert float(lat[i]) == est.latency_ms, (kernel.name, i)
                        assert float(power[i]) == est.active_power_w

    @pytest.mark.parametrize("batch", [3, 8])
    def test_batched_invocations_match_scalar(self, batch):
        """The batch>1 (request batching) dimension, including the GPU
        bias-floor recursion on recurrent kernels."""
        app = apps.build("ASR")  # recurrent kernels + bias != 1
        kernel = app.kernels[0]
        for spec in PLATFORMS:
            configs = enumerate_configs(kernel, spec)[:32]
            if spec.device_type.value == "fpga":
                model = FPGAModel(spec)
                feasible, lat, power = model.estimate_batch(
                    kernel, configs, batch
                )
                for i, config in enumerate(configs):
                    if model.feasible(kernel, config):
                        est = model.estimate(kernel, config, batch)
                        assert float(lat[i]) == est.latency_ms
                        assert float(power[i]) == est.active_power_w
            else:
                gpu = GPUModel(spec)
                lat, power = gpu.estimate_batch(kernel, configs, batch)
                for i, config in enumerate(configs):
                    est = gpu.estimate(kernel, config, batch)
                    assert float(lat[i]) == est.latency_ms
                    assert float(power[i]) == est.active_power_w

    def test_empty_and_bad_batch(self):
        kernel = small_kernel("edge")
        lat, power = GPUModel(AMD_W9100).estimate_batch(kernel, [])
        assert len(lat) == 0 and len(power) == 0
        assert len(FPGAModel(XILINX_7V3).feasible_columns(kernel, knob_columns([]))) == 0
        with pytest.raises(ValueError):
            GPUModel(AMD_W9100).estimate_batch(kernel, [], batch=0)


# ---------------------------------------------------------------------------
# Model-cache bulk access: exact counters
# ---------------------------------------------------------------------------


class TestCacheBulkCounters:
    def _configs(self, kernel, spec, with_dups=True):
        configs = enumerate_configs(kernel, spec)[:8]
        if with_dups:
            configs = configs + configs[:3]  # in-batch duplicates
        return configs

    def test_bulk_counters_equal_scalar_loop(self):
        """evaluate_many on a fresh cache must produce exactly the
        entries, results and hit/miss counters of a scalar loop —
        in-batch duplicates of a miss count as hits."""
        kernel = small_kernel("bulk", elements=1 << 13)
        spec = AMD_W9100
        configs = self._configs(kernel, spec)

        scalar = ModelEvalCache()
        scalar_results = [scalar.evaluate(kernel, spec, c) for c in configs]

        bulk = ModelEvalCache()
        bulk_results = bulk.evaluate_many(kernel, spec, configs)

        assert bulk_results == scalar_results
        assert (bulk.hits, bulk.misses) == (scalar.hits, scalar.misses)
        assert bulk.hits == 3 and bulk.misses == 8
        assert len(bulk) == len(scalar) == 8

    def test_get_many_reports_misses_once(self):
        kernel = small_kernel("lookup", elements=1 << 13)
        cache = ModelEvalCache()
        configs = self._configs(kernel, AMD_W9100)
        results, miss_index = cache.get_many(kernel, AMD_W9100, configs)
        assert results == [None] * len(configs)
        assert miss_index == list(range(8))  # dups excluded
        assert (cache.hits, cache.misses) == (3, 8)

    def test_second_bulk_pass_all_hits(self):
        kernel = small_kernel("warm", elements=1 << 13)
        cache = ModelEvalCache()
        configs = self._configs(kernel, XILINX_7V3, with_dups=False)
        first = cache.evaluate_many(kernel, XILINX_7V3, configs)
        misses = cache.misses
        second = cache.evaluate_many(kernel, XILINX_7V3, configs)
        assert second == first
        assert cache.misses == misses
        assert cache.hits == len(configs)

    def test_bulk_matches_scalar_estimates_on_fpga(self):
        """The cached bulk path must store the exact scalar-path floats,
        including infeasible NaN rows."""
        kernel = small_kernel("fpga", elements=1 << 15)
        configs = enumerate_configs(kernel, XILINX_7V3)
        scalar = ModelEvalCache()
        bulk = ModelEvalCache()
        expected = [scalar.evaluate(kernel, XILINX_7V3, c) for c in configs]
        got = bulk.evaluate_many(kernel, XILINX_7V3, configs)
        assert got == expected

    def test_put_many_length_mismatch_rejected(self):
        kernel = small_kernel("bad")
        cache = ModelEvalCache()
        with pytest.raises(ValueError, match="equal length"):
            cache.put_many(
                kernel,
                AMD_W9100,
                [enumerate_configs(kernel, AMD_W9100)[0]],
                [],
            )

    def test_metrics_binding_tracks_bulk_counters_exactly(self):
        kernel = small_kernel("metrics", elements=1 << 13)
        cache = ModelEvalCache()
        registry = MetricsRegistry()
        cache.bind_metrics(registry)
        try:
            configs = self._configs(kernel, AMD_W9100)
            cache.evaluate_many(kernel, AMD_W9100, configs)
            cache.evaluate_many(kernel, AMD_W9100, configs)
        finally:
            cache.bind_metrics(None)
        assert registry.value("model_cache_hits_total") == cache.hits
        assert registry.value("model_cache_misses_total") == cache.misses
        assert cache.misses == 8  # second pass added none

    def test_merge_counts_and_metrics(self):
        kernel = small_kernel("merge", elements=1 << 13)
        worker = ModelEvalCache()
        configs = self._configs(kernel, AMD_W9100, with_dups=False)
        worker.evaluate_many(kernel, AMD_W9100, configs)
        parent = ModelEvalCache()
        registry = MetricsRegistry()
        parent.bind_metrics(registry)
        try:
            parent.merge(worker.delta(set()), worker.hits, worker.misses)
        finally:
            parent.bind_metrics(None)
        assert parent.merges == 1
        assert (parent.hits, parent.misses) == (worker.hits, worker.misses)
        assert registry.value("model_cache_merges_total") == 1
        assert len(parent) == len(worker)

    def test_cached_estimate_is_hashable_value_type(self):
        a = CachedEstimate(True, 1.0, 2.0)
        assert a == CachedEstimate(True, 1.0, 2.0)
        assert hash(a) == hash(CachedEstimate(True, 1.0, 2.0))

"""Simulation engine: A/B identity vs. the per-request path, the
ordering guard and ArrivalSpec.

The contract: a seeded run (the compiled dispatch program, handing
fault-touched requests to the node) is float-identical to the
per-request path, ``LeafNode.submit`` driven by hand per arrival
(``tests/reference.py``) — same request latencies, same power bins,
same obs event stream, same fault report.  The checked-in digests of
``tests/test_golden_digests.py`` pin both paths (and the fleet driver)
to recorded values; the A/B tests here cover extra shapes (homogeneous
systems, overload, bursty streams), node state and how few requests a
chaos run hands over.
"""

import numpy as np
import pytest

from reference import reference_run
from repro import apps as apps_mod
from repro import runtime
from repro.faults import FaultSchedule
from repro.runtime import (
    ArrivalSpec,
    EventHeapEngine,
    poisson_arrivals,
    run_simulation,
    setting,
)
from repro.runtime.node import LeafNode


@pytest.fixture(scope="module")
def asr():
    """ASR on Setting-I Heter-Poly: the DAG app (diamond joins, FPGA
    pool + one GPU) — the hardest case for the incremental EST tables."""
    app = apps_mod.build("ASR")
    system = setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


@pytest.fixture(scope="module")
def wt():
    """WT: a linear 3-kernel chain."""
    app = apps_mod.build("WT")
    system = setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


def request_sig(result):
    return [
        (r.arrival_ms, r.completion_ms, r.predicted_ms, r.served)
        for r in result.requests
    ]


def full_sig(result):
    return [
        (
            r.arrival_ms,
            r.completion_ms,
            r.predicted_ms,
            r.retries,
            r.dropped,
            r.failed,
        )
        for r in result.requests
    ]


def node_sig(result):
    node = result.node
    mon = node.monitor
    return (
        mon._correction,
        list(mon._latencies),
        list(mon._arrival_times),
        [
            (
                rec.device_id,
                rec.kernel_name,
                rec.point_index,
                rec.start_ms,
                rec.end_ms,
                rec.power_w,
                rec.batch,
            )
            for dev in node.devices
            for rec in dev.records
        ],
    )


def reference(app, system, spaces, arrivals, **kw):
    """The per-request path: ``LeafNode.submit`` per arrival."""
    return reference_run(system, app, spaces, arrivals, **kw)


def ab(app, system, spaces, arrivals, **kw):
    ref = reference(app, system, spaces, arrivals, **kw)
    event = run_simulation(system, app, spaces, arrivals, **kw)
    return ref, event


class TestOrderingGuard:
    def test_process_before_last_admitted_raises(self, wt):
        app, system, spaces = wt
        engine = EventHeapEngine(LeafNode(system, app, spaces, seed=0))
        engine.process(50.0)
        engine.process(50.0)  # ties are in order
        with pytest.raises(ValueError, match="precedes the last admitted"):
            engine.process(49.0)

    def test_chunk_boundaries_cannot_go_backwards(self, wt):
        """A stream that is sorted within each slice but not across
        slices is rejected at the slice boundary."""
        from repro.runtime.engine import ARRIVAL_CHUNK

        app, system, spaces = wt
        engine = EventHeapEngine(LeafNode(system, app, spaces, seed=0))
        stream = [float(i) for i in range(ARRIVAL_CHUNK)] + [0.5]
        with pytest.raises(ValueError, match="precedes the last admitted"):
            engine.run(stream)


class TestArrivalSpec:
    def test_poisson_spec_matches_direct_call(self):
        spec = ArrivalSpec.poisson(80.0, 3_000.0, seed=7)
        direct = poisson_arrivals(
            80.0, 3_000.0, rng=np.random.default_rng(7)
        )
        assert spec.generate() == direct

    def test_supplied_rng_overrides_seed(self):
        spec = ArrivalSpec.poisson(80.0, 3_000.0, seed=7)
        a = spec.generate(np.random.default_rng(11))
        b = poisson_arrivals(80.0, 3_000.0, rng=np.random.default_rng(11))
        assert a == b

    def test_constant_kind_needs_no_rng(self):
        spec = ArrivalSpec.constant(10.0, 1_000.0)
        assert spec.generate() == runtime.constant_arrivals(10.0, 1_000.0)

    def test_trace_kind(self):
        util = (0.2, 0.8, 0.5)
        spec = ArrivalSpec.trace(util, 500.0, 100.0, seed=3)
        direct = runtime.trace_arrivals(
            util, 500.0, 100.0, rng=np.random.default_rng(3)
        )
        assert spec.generate() == direct

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalSpec("bursty")

    def test_run_simulation_accepts_spec(self, wt):
        app, system, spaces = wt
        spec = ArrivalSpec.poisson(40.0, 2_000.0, seed=5)
        by_spec = run_simulation(system, app, spaces, spec, seed=0)
        by_list = run_simulation(system, app, spaces, spec.generate(), seed=0)
        assert request_sig(by_spec) == request_sig(by_list)


class TestBatchedLoadgen:
    def test_poisson_matches_scalar_reference(self):
        """The chunked cumsum draw must reproduce the scalar ``t += g``
        loop bit-for-bit (same RNG consumption, same float order)."""
        rng = np.random.default_rng(42)
        batched = poisson_arrivals(200.0, 5_000.0, rng=rng)

        rng = np.random.default_rng(42)
        mean_gap = 1000.0 / 200.0
        n_est = max(int(5_000.0 / mean_gap * 1.3) + 16, 16)
        scalar, t = [], 0.0
        done = False
        while not done:
            gaps = rng.exponential(mean_gap, size=n_est)
            for k, g in enumerate(gaps):
                t = float(np.cumsum(np.concatenate(((t,), gaps[k : k + 1])))[1])
                if t >= 5_000.0:
                    done = True
                    break
                scalar.append(t)
        assert batched == scalar

    def test_empty_and_invalid_streams(self):
        assert poisson_arrivals(0.0, 1_000.0) == []
        with pytest.raises(ValueError):
            poisson_arrivals(10.0, 0.0)


class TestGoldenFaultFree:
    def test_asr_identity(self, asr):
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            120.0, 4_000.0, rng=np.random.default_rng(3)
        )
        ref, event = ab(app, system, spaces, arrivals, seed=3)
        assert request_sig(ref) == request_sig(event)
        assert ref.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(ref) == node_sig(event)

    def test_wt_identity(self, wt):
        app, system, spaces = wt
        arrivals = poisson_arrivals(
            150.0, 4_000.0, rng=np.random.default_rng(9)
        )
        ref, event = ab(app, system, spaces, arrivals, seed=1)
        assert request_sig(ref) == request_sig(event)
        assert ref.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(ref) == node_sig(event)

    @pytest.mark.parametrize("system_name", ["Homo-GPU", "Homo-FPGA"])
    def test_homogeneous_systems(self, system_name):
        app = apps_mod.build("ASR")
        system = setting("I", system_name)
        spaces = app.explore(system.platforms)
        arrivals = poisson_arrivals(
            60.0, 2_000.0, rng=np.random.default_rng(2)
        )
        ref, event = ab(app, system, spaces, arrivals, seed=2)
        assert request_sig(ref) == request_sig(event)
        assert ref.power_bins_w.tolist() == event.power_bins_w.tolist()

    def test_overload_replans_identical(self, asr):
        """High load crosses several replan intervals and forces the
        overflow-alternate path; the two paths must still agree."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            400.0, 3_000.0, rng=np.random.default_rng(3)
        )
        ref, event = ab(app, system, spaces, arrivals, seed=3)
        assert request_sig(ref) == request_sig(event)
        assert node_sig(ref) == node_sig(event)

    def test_plan_cache_composes(self, asr):
        """The engine + SchedulePlanCache (the full fast path, compiled
        dispatch programs included) still matches the uncached
        per-request path."""
        from repro.scheduler import SchedulePlanCache

        app, system, spaces = asr
        arrivals = poisson_arrivals(
            120.0, 3_000.0, rng=np.random.default_rng(6)
        )
        ref = reference(app, system, spaces, arrivals, seed=6)
        event = run_simulation(
            system, app, spaces, arrivals, seed=6,
            plan_cache=SchedulePlanCache(),
        )
        assert request_sig(ref) == request_sig(event)
        assert ref.power_bins_w.tolist() == event.power_bins_w.tolist()

    def test_pareto_and_flash_crowd_streams(self, wt):
        app, system, spaces = wt
        for spec in (
            ArrivalSpec.pareto(80.0, 3_000.0, seed=4),
            ArrivalSpec.flash_crowd(40.0, 3_000.0, 1_000.0, 500.0, seed=4),
        ):
            arrivals = spec.generate()
            ref, event = ab(app, system, spaces, arrivals, seed=4)
            assert request_sig(ref) == request_sig(event), spec.kind


class TestGoldenChaos:
    def test_chaos_identity(self, asr):
        """A chaos run stays on the dispatch program and hands only
        fault-touched requests to the node; the whole result — records
        with their retry/shed/failed flags, power, fault report and node
        state — must match ``LeafNode.submit`` driven by hand."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            60.0, 4_000.0, rng=np.random.default_rng(8)
        )
        faults = FaultSchedule.single_crash(
            "fpga0", at_ms=1_000.0, recover_at_ms=2_500.0
        )
        ref, event = ab(app, system, spaces, arrivals, seed=8, faults=faults)
        assert full_sig(ref) == full_sig(event)
        assert ref.power_bins_w.tolist() == event.power_bins_w.tolist()
        assert node_sig(ref) == node_sig(event)
        assert ref.faults.summary() == event.faults.summary()

    def test_traced_identity(self, asr):
        from repro.obs import SpanTracer

        app, system, spaces = asr
        arrivals = poisson_arrivals(
            40.0, 2_000.0, rng=np.random.default_rng(5)
        )
        faults = FaultSchedule.single_crash(
            "gpu0", at_ms=600.0, recover_at_ms=1_400.0
        )
        for schedule in (None, faults):
            tracers = []
            for run in (reference, run_simulation):
                tracer = SpanTracer()
                kw = {} if schedule is None else {"faults": schedule}
                if run is reference:
                    run(app, system, spaces, arrivals, seed=5, tracer=tracer, **kw)
                else:
                    run(system, app, spaces, arrivals, seed=5, tracer=tracer, **kw)
                tracers.append(tracer)
            a, b = tracers
            assert len(a.events) == len(b.events)
            assert [e.to_dict() for e in a.events] == [
                e.to_dict() for e in b.events
            ]


class TestHandovers:
    """How many requests a chaos run hands to ``LeafNode``: read from
    the engine's ``handovers`` counter, never a setting."""

    @staticmethod
    def _engine(app, system, spaces, arrivals, faults, seed):
        from repro.faults import FaultInjector

        node = LeafNode(system, app, spaces, seed=seed)
        FaultInjector(faults).bind(node)
        engine = EventHeapEngine(node)
        engine.run(sorted(arrivals))
        return engine

    def test_golden_chaos_hands_over_only_faulted_and_cut_requests(self):
        """The golden ASR chaos case (``tests/golden``): its schedule is
        harsh — about a third of the requests lose an execution — so the
        bound is structural: every handed-over request either had a
        fault reach it (a retry, a failure or a shed) or arrived at a
        cut point (a state-changing schedule event or a heartbeat
        detection).  Full delegation hands over all 195 arrivals and
        fails this."""
        import importlib.util
        from pathlib import Path

        from repro.faults import FaultKind

        path = Path(__file__).parent / "golden" / "record_runtime_digests.py"
        spec = importlib.util.spec_from_file_location("golden_rec", path)
        rec = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(rec)
        app, system, spaces = rec.app_env("ASR")
        arrivals = runtime.poisson_arrivals(
            rec.RATE_RPS, rec.DURATION_MS, rng=np.random.default_rng(rec.SEED)
        )
        faults = rec._chaos_schedule(
            [d for d, _ in system.device_inventory()], rec.DURATION_MS, rec.SEED
        )
        engine = self._engine(app, system, spaces, arrivals, faults, rec.SEED)
        records = engine.records()
        faulted = sum(1 for r in records if r.retries or not r.served)
        cuts = sum(1 for e in faults if e.kind != FaultKind.TRANSIENT)
        detections = len(engine._node._planner.recoveries)
        assert 0 < engine.handovers <= faulted + cuts + detections
        assert engine.handovers < 0.5 * len(records)

    def test_light_faults_hand_over_at_most_a_tenth(self, asr):
        """The benchmark's fault shape (per-device MTBF 60 s, MTTR 5 s)
        on ASR for a minute below saturation: at most 10% of arrivals
        take the per-request path (about 1% do: three crashes, two
        recoveries, their detections and the few requests that lose an
        execution)."""
        app, system, spaces = asr
        arrivals = poisson_arrivals(
            40.0, 60_000.0, rng=np.random.default_rng(4)
        )
        faults = FaultSchedule.from_mtbf(
            [d for d, _ in system.device_inventory()],
            duration_ms=60_000.0,
            mtbf_ms=60_000.0,
            mttr_ms=5_000.0,
            seed=4,
        )
        assert faults.crashes()
        engine = self._engine(app, system, spaces, arrivals, faults, 4)
        assert 0 < engine.handovers <= 0.10 * len(arrivals)


class TestClusterGolden:
    def _fleet_sig(self, result):
        return (
            [
                (r.arrival_ms, r.completion_ms, r.predicted_ms)
                for r in result.requests
            ],
            result.node_ids,
            [(iv.t_ms, iv.arrivals, iv.p99_ms) for iv in result.intervals],
            [
                (e.t_ms, e.action, e.node_id, e.fleet_size)
                for e in result.timeline
            ],
            result.power_bins_w.tolist(),
        )

    def test_fleet_spec_equals_raw_list(self, asr):
        from repro.cluster import AutoscalerConfig, ClusterSimulation

        app, system, spaces = asr
        cfg = AutoscalerConfig(min_nodes=1, max_nodes=3)
        spec = ArrivalSpec.poisson(60.0, 8_000.0)

        def build():
            return ClusterSimulation(
                [system], app, spaces, config=cfg, seed=2
            )

        sim = build()
        raw = spec.generate(sim.arrival_rng())
        by_list = sim.run(raw, horizon_ms=8_000.0)
        by_spec = build().run(spec, horizon_ms=8_000.0)
        assert self._fleet_sig(by_list) == self._fleet_sig(by_spec)

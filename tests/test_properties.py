"""Property-based tests (hypothesis) on core invariants."""

import math
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import synthetic_space
from repro.hardware import AMD_W9100, GPUModel, ImplConfig, PCIeLink, XILINX_7V3, FPGAModel
from repro.hardware.specs import DeviceType
from repro.optim import pareto_front
from repro.patterns import Kernel, Map, PPG, Tensor
from repro.runtime import (
    energy_proportionality,
    max_throughput_under_qos,
    percentile_latency,
)

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.1, max_value=1e3),
    ),
    min_size=1,
    max_size=40,
)


class TestParetoProperties:
    @given(point_lists)
    def test_frontier_is_subset_and_nondominated(self, points):
        space = synthetic_space("k", "p", DeviceType.GPU, points)
        frontier = space.pareto()
        all_points = list(space)
        assert set(id(p) for p in frontier) <= set(id(p) for p in all_points)
        for a in frontier:
            assert not any(b.dominates(a) for b in all_points)

    @given(point_lists)
    def test_frontier_monotone_tradeoff(self, points):
        space = synthetic_space("k", "p", DeviceType.GPU, points)
        frontier = space.pareto()
        lats = [p.latency_ms for p in frontier]
        pows = [p.power_w for p in frontier]
        assert lats == sorted(lats)
        assert pows == sorted(pows, reverse=True)

    @given(point_lists)
    def test_extreme_points_on_frontier_generic(self, points):
        front = pareto_front(points, lambda t: t)
        min_lat = min(p[0] for p in points)
        assert any(math.isclose(p[0], min_lat) for p in front)


class TestModelProperties:
    @given(
        elements=st.integers(min_value=64, max_value=1 << 20),
        ops=st.floats(min_value=0.5, max_value=512.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_gpu_latency_monotone_in_work(self, elements, ops):
        x1 = Tensor("x", (elements,))
        x2 = Tensor("x", (elements,))
        ppg1, ppg2 = PPG("a"), PPG("b")
        ppg1.add_pattern(Map((x1,), ops_per_element=ops))
        ppg2.add_pattern(Map((x2,), ops_per_element=ops * 2))
        model = GPUModel(AMD_W9100)
        l1 = model.estimate(Kernel("a", ppg1), ImplConfig()).latency_ms
        l2 = model.estimate(Kernel("b", ppg2), ImplConfig()).latency_ms
        assert l2 >= l1 * 0.999

    @given(batch=st.integers(min_value=1, max_value=32))
    @settings(max_examples=20, deadline=None)
    def test_gpu_batch_latency_monotone(self, batch):
        x = Tensor("x", (1 << 16,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x,), ops_per_element=16.0))
        k = Kernel("k", ppg)
        model = GPUModel(AMD_W9100)
        lat_b = model.estimate(k, ImplConfig(), batch).latency_ms
        lat_b1 = model.estimate(k, ImplConfig(), batch + 1).latency_ms
        assert lat_b1 >= lat_b * 0.999
        # ...but per-request cost never grows with batching.
        assert lat_b1 / (batch + 1) <= lat_b / batch * 1.01

    @given(
        unroll=st.sampled_from([1, 2, 4, 8, 16, 32]),
        cu=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=20, deadline=None)
    def test_fpga_resources_monotone_in_lanes(self, unroll, cu):
        x = Tensor("x", (1 << 16,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x,), ops_per_element=8.0))
        k = Kernel("k", ppg)
        model = FPGAModel(XILINX_7V3)
        base = model.resources(k, ImplConfig())
        grown = model.resources(k, ImplConfig(unroll=unroll, compute_units=cu))
        assert grown.dsp >= base.dsp
        assert grown.logic_cells_k >= base.logic_cells_k

    @given(nbytes=st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=30)
    def test_pcie_superadditive_split(self, nbytes):
        link = PCIeLink()
        whole = link.transfer_ms(nbytes)
        halves = link.transfer_ms(nbytes // 2) + link.transfer_ms(
            nbytes - nbytes // 2
        )
        assert halves >= whole * 0.999  # latency term makes splitting worse


class TestMetricProperties:
    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=200),
        st.floats(min_value=1.0, max_value=100.0),
    )
    def test_percentile_bounds(self, lats, pct):
        p = percentile_latency(lats, pct)
        assert min(lats) <= p <= max(lats)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=200)
    )
    def test_percentile_monotone(self, lats):
        assert percentile_latency(lats, 50.0) <= percentile_latency(lats, 99.0)

    @given(
        idle=st.floats(min_value=0.0, max_value=300.0),
        peak_delta=st.floats(min_value=1.0, max_value=300.0),
        n=st.integers(min_value=3, max_value=11),
    )
    def test_ep_at_most_one_for_affine_curves(self, idle, peak_delta, n):
        # Any affine power curve with non-negative idle power sits on or
        # above its own proportional line => EP <= 1, and EP == 1 only
        # for zero idle power.
        loads = [i / (n - 1) for i in range(n)]
        curve = [idle + load * peak_delta for load in loads]
        ep = energy_proportionality(loads, curve)
        assert ep <= 1.0 + 1e-9
        if idle == 0.0:
            assert ep == pytest.approx(1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1, max_value=1000),
                st.floats(min_value=1, max_value=10_000),
            ),
            min_size=1,
            max_size=30,
        ),
        st.floats(min_value=1, max_value=10_000),
    )
    def test_max_throughput_only_counts_passing_levels(self, sweep, bound):
        rps = [r for r, _ in sweep]
        p99 = [p for _, p in sweep]
        knee = max_throughput_under_qos(rps, p99, bound)
        if knee > 0:
            assert any(
                math.isclose(r, knee) and p <= bound for r, p in zip(rps, p99)
            )
        else:
            assert min(p for r, p in sorted(zip(rps, p99))[:1]) > bound or knee == 0


class TestSchedulerProperties:
    @given(
        lat_gpu=st.floats(min_value=1.0, max_value=100.0),
        lat_fpga=st.floats(min_value=1.0, max_value=100.0),
        n=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=20, deadline=None)
    def test_chain_schedule_invariants(self, lat_gpu, lat_fpga, n):
        from conftest import chain_graph, synthetic_space
        from repro.scheduler import DeviceSlot, LatencyOptimizer

        graph = chain_graph(n)
        spaces = {}
        for name in graph.kernel_names:
            spaces[(name, AMD_W9100.name)] = synthetic_space(
                name, AMD_W9100.name, DeviceType.GPU, [(lat_gpu, 100.0)]
            )
            spaces[(name, XILINX_7V3.name)] = synthetic_space(
                name, XILINX_7V3.name, DeviceType.FPGA, [(lat_fpga, 20.0)]
            )
        devices = [
            DeviceSlot("gpu0", AMD_W9100.name, DeviceType.GPU),
            DeviceSlot("fpga0", XILINX_7V3.name, DeviceType.FPGA),
        ]
        sched = LatencyOptimizer(spaces).schedule(graph, devices)
        # Precedence holds and makespan is at least the serial minimum.
        names = graph.kernel_names
        for a, b in zip(names, names[1:]):
            assert sched[b].start_ms >= sched[a].end_ms - 1e-9
        assert sched.makespan_ms >= n * min(lat_gpu, lat_fpga) * 0.999


@lru_cache(maxsize=None)
def _serving_env(name):
    from repro import apps as apps_mod
    from repro.runtime import setting

    app = apps_mod.build(name)
    system = setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


def _request_rows(result):
    return [
        (r.arrival_ms, r.completion_ms, r.predicted_ms, r.retries,
         r.dropped, r.failed)
        for r in result.requests
    ]


def _fpga_overlaps(node):
    """Pairs of executions that share an FPGA at the same instant.

    Executions aborted before they started are cut to zero length and
    occupy no device time, so they are left out."""
    hits = []
    for dev in node.devices:
        if dev.device_type != DeviceType.FPGA:
            continue
        recs = sorted(
            (r for r in dev.records if r.end_ms > r.start_ms),
            key=lambda r: (r.start_ms, r.end_ms),
        )
        hits += [(a, b) for a, b in zip(recs, recs[1:]) if b.start_ms < a.end_ms]
    return hits


_apps = st.sampled_from(("ASR", "CS", "FQT", "IR", "MF", "WT"))


class TestEngineBoundaryProperties:
    """DESIGN.md §6 invariants at the ``run_simulation`` boundary.

    GPU records are deliberately not checked for overlap: a batch join
    stretches an already-launched earlier batch past a later launch on
    the same GPU (a known deviation, DESIGN.md §8).
    """

    @given(
        app=_apps,
        rps=st.floats(min_value=10.0, max_value=200.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_fault_free_stream(self, app, rps, seed):
        import numpy as np

        from repro.runtime import poisson_arrivals, run_simulation

        app_, system, spaces = _serving_env(app)
        arrivals = poisson_arrivals(
            rps, 800.0, rng=np.random.default_rng(seed)
        )
        assume(arrivals)
        event = run_simulation(system, app_, spaces, arrivals, seed=seed)
        # One record per arrival, in arrival order, never early.
        assert [r.arrival_ms for r in event.requests] == sorted(arrivals)
        assert all(r.completion_ms >= r.arrival_ms for r in event.requests)
        assert all(r.served for r in event.requests)
        assert _fpga_overlaps(event.node) == []
        legacy = run_simulation(
            system, app_, spaces, arrivals, seed=seed, engine="legacy"
        )
        assert _request_rows(legacy) == _request_rows(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()

    @given(
        app=_apps,
        rps=st.floats(min_value=10.0, max_value=120.0),
        seed=st.integers(min_value=0, max_value=2**16),
        mtbf_ms=st.floats(min_value=150.0, max_value=2_000.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_chaos_stream_conserves_requests(self, app, rps, seed, mtbf_ms):
        import numpy as np

        from repro.faults import FaultSchedule
        from repro.runtime import poisson_arrivals, run_simulation

        app_, system, spaces = _serving_env(app)
        arrivals = poisson_arrivals(
            rps, 800.0, rng=np.random.default_rng(seed)
        )
        assume(arrivals)
        faults = FaultSchedule.from_mtbf(
            [d for d, _ in system.device_inventory()],
            duration_ms=800.0,
            mtbf_ms=mtbf_ms,
            mttr_ms=mtbf_ms / 3.0,
            seed=seed,
            transient_rate_per_s=1.0,
        )
        priorities = list(
            np.random.default_rng(seed + 1).random(len(arrivals))
        )
        runs = [
            run_simulation(
                system, app_, spaces, arrivals, seed=seed, faults=faults,
                priorities=priorities, engine=engine,
            )
            for engine in ("event", "legacy")
        ]
        event, legacy = runs
        reqs = event.requests
        assert [r.arrival_ms for r in reqs] == sorted(arrivals)
        assert all(r.completion_ms >= r.arrival_ms for r in reqs)
        served = sum(1 for r in reqs if r.served)
        shed = sum(1 for r in reqs if r.dropped)
        failed = sum(1 for r in reqs if r.failed)
        assert len(reqs) == served + shed + failed
        report = event.faults
        assert (report.shed, report.failed_requests) == (shed, failed)
        assert _fpga_overlaps(event.node) == []
        assert _request_rows(legacy) == _request_rows(event)
        assert legacy.power_bins_w.tolist() == event.power_bins_w.tolist()


class TestEnergyStepProperties:
    """Step 2 (DESIGN.md §6): every accepted swap saves energy and keeps
    the makespan within the bound, so energy never increases over the
    step-1 schedule."""

    @given(
        app=_apps,
        slack=st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_swaps_save_energy_within_bound(self, app, slack):
        from repro.scheduler import DeviceSlot, EnergyOptimizer, LatencyOptimizer

        app_, system, spaces = _serving_env(app)
        devices = [
            DeviceSlot(device_id, spec.name, spec.device_type)
            for device_id, spec in system.device_inventory()
        ]
        latency = LatencyOptimizer(spaces)
        step1 = latency.schedule(app_.graph, devices)
        bound = step1.makespan_ms * slack
        final, steps = EnergyOptimizer(spaces, latency).optimize(
            app_.graph, devices, step1, bound
        )
        for step in steps:
            assert step.energy_saved_mj > EnergyOptimizer.MIN_GAIN_MJ
            assert step.makespan_ms <= bound
        assert final.makespan_ms <= bound
        assert final.total_energy_mj <= step1.total_energy_mj
        saved = sum(step.energy_saved_mj for step in steps)
        assert final.total_energy_mj == pytest.approx(
            step1.total_energy_mj - saved, rel=1e-9, abs=1e-9
        )

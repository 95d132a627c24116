"""Unit tests for the parallel pattern graph and Kernel aggregates."""

import pytest

from repro.patterns import Kernel, Map, Pipeline, PPG, Reduce, Tensor


def _two_pattern_ppg():
    x = Tensor("x", (1024,))
    ppg = PPG("k")
    m = ppg.add_pattern(Map((x,), func="mul", ops_per_element=2.0))
    r = ppg.add_pattern(Reduce((x,), func="add"))
    ppg.connect(m, r)
    return ppg, m, r


class TestPPG:
    def test_topological_order(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.patterns == [m, r]

    def test_edge_bytes_default_to_producer_output(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.edge_between(m, r).bytes_moved == m.output.nbytes

    def test_explicit_edge_bytes(self):
        x = Tensor("x", (64,))
        ppg = PPG("k")
        a, b = ppg.add_pattern(Map((x,))), ppg.add_pattern(Map((x,)))
        edge = ppg.connect(a, b, bytes_moved=12345)
        assert edge.bytes_moved == 12345

    def test_cycle_rejected(self):
        ppg, m, r = _two_pattern_ppg()
        with pytest.raises(ValueError, match="cycle"):
            ppg.connect(r, m)

    def test_connect_unregistered_raises(self):
        ppg, m, _ = _two_pattern_ppg()
        stray = Map((Tensor("y", (4,)),))
        with pytest.raises(KeyError):
            ppg.connect(m, stray)

    def test_sources_and_sinks(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.sources() == [m]
        assert ppg.sinks() == [r]

    def test_communication_bytes(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.communication_bytes() == m.output.nbytes

    def test_adjacent_pairs(self):
        ppg, m, r = _two_pattern_ppg()
        assert ppg.adjacent_pairs() == [(m, r)]

    def test_empty_ppg_invalid(self):
        with pytest.raises(ValueError, match="empty"):
            PPG("e").validate()

    def test_negative_edge_bytes_rejected(self):
        ppg, m, r2 = _two_pattern_ppg()
        x = Tensor("y", (4,))
        b = ppg.add_pattern(Map((x,)))
        with pytest.raises(ValueError):
            ppg.connect(m, b, bytes_moved=-1)


class TestKernel:
    def test_total_ops_sums_patterns(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.total_ops == m.workload.total_ops + r.workload.total_ops

    def test_io_excludes_intermediates(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.intermediate_bytes == m.output.nbytes
        assert k.io_bytes == sum(t.nbytes for t in m.inputs) + r.output.nbytes

    def test_pattern_kinds_deduplicated_in_order(self):
        x = Tensor("x", (16,))
        ppg = PPG("k")
        a = ppg.add_pattern(Map((x,)))
        b = ppg.add_pattern(Map((x,)))
        c = ppg.add_pattern(Reduce((x,)))
        ppg.connect(a, b)
        ppg.connect(b, c)
        k = Kernel("k", ppg)
        assert [kk.value for kk in k.pattern_kinds] == ["map", "reduce"]

    def test_cdfg_cache(self):
        ppg, m, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.cdfg(m) is k.cdfg(m)

    def test_cdfg_foreign_pattern_rejected(self):
        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        foreign = Map((Tensor("z", (4,)),))
        with pytest.raises(KeyError):
            k.cdfg(foreign)

    def test_resident_bytes_deduplicated(self):
        w = Tensor("w", (1024,), "int8", resident=True)
        x = Tensor("x", (64,))
        ppg = PPG("k")
        a = ppg.add_pattern(Map((x, w)))
        b = ppg.add_pattern(Map((x, w)))
        ppg.connect(a, b)
        k = Kernel("k", ppg)
        assert k.resident_bytes == 1024  # counted once

    def test_resident_split_stationary_vs_streamed(self):
        wst = Tensor("w1", (100,), resident=True, stationary=True)
        wls = Tensor("w2", (200,), resident=True, stationary=False)
        x = Tensor("x", (4,))
        ppg = PPG("k")
        ppg.add_pattern(Map((x, wst, wls)))
        k = Kernel("k", ppg)
        assert k.resident_stationary_bytes == 400
        assert k.resident_streamed_bytes == 800

    def test_workload_summary_propagates_steps(self):
        x = Tensor("x", (128,))
        ppg = PPG("k")
        m = ppg.add_pattern(Map((x,)))
        p = ppg.add_pattern(Pipeline((x,), stages=("a",), iterations=37))
        ppg.connect(m, p)
        k = Kernel("k", ppg)
        assert k.workload_summary().sequential_steps == 37

    def test_latency_bias_defaults_to_one(self):
        from repro.hardware.specs import DeviceType

        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        assert k.latency_bias(DeviceType.GPU) == 1.0

    def test_latency_bias_lookup(self):
        from repro.hardware.specs import DeviceType

        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg, platform_bias={DeviceType.FPGA: 2.5})
        assert k.latency_bias(DeviceType.FPGA) == 2.5
        assert k.latency_bias(DeviceType.GPU) == 1.0


class TestKernelProfile:
    def test_construction_bumps_version(self):
        ppg = PPG("k")
        assert ppg.version == 0
        x = Tensor("x", (64,))
        a = ppg.add_pattern(Map((x,)))
        b = ppg.add_pattern(Map((x,)))
        ppg.connect(a, b)
        assert ppg.version == 3

    def test_profile_computed_once_per_version(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        profile = k.profile
        k.workload_summary()
        assert k.total_ops == profile.total_ops
        assert k.profile is profile
        assert k.workload_summary() is profile.workload
        assert profile.patterns == (m, r)

    def test_patterns_is_a_fresh_list(self):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        listed = k.patterns
        listed.clear()
        assert k.patterns == [m, r]

    @pytest.mark.parametrize("mutation", ["add_pattern", "connect"])
    def test_mutated_ppg_recomputes(self, mutation):
        ppg, m, r = _two_pattern_ppg()
        k = Kernel("k", ppg)
        before = k.profile
        extra = Map((Tensor("y", (4096,)),), ops_per_element=3.0)
        ppg.add_pattern(extra)
        if mutation == "connect":
            after_add = k.profile
            ppg.connect(r, extra)
            assert k.profile is not after_add
        assert k.profile is not before
        assert k.total_ops == before.total_ops + extra.workload.total_ops
        assert extra in k.patterns
        assert k.max_data_parallelism == max(
            p.data_parallelism for p in ppg.patterns
        )

    def test_rebound_ppg_recomputes(self):
        ppg, _, _ = _two_pattern_ppg()
        k = Kernel("k", ppg)
        before = k.profile
        other = PPG("other")
        only = other.add_pattern(Map((Tensor("z", (8,)),)))
        k.ppg = other
        assert k.profile is not before
        assert k.patterns == [only]

    def test_profile_matches_graph_walk(self):
        """The cached aggregates equal a direct walk of the PPG."""
        from repro.apps import build

        for kernel in build("ASR").kernels:
            ppg = kernel.ppg
            order = ppg.patterns
            assert kernel.patterns == order
            assert kernel.total_ops == sum(p.workload.total_ops for p in order)
            assert kernel.intermediate_bytes == ppg.communication_bytes()
            assert kernel.io_bytes == sum(
                sum(t.nbytes for t in p.inputs) for p in ppg.sources()
            ) + sum(p.output.nbytes for p in ppg.sinks())
            wl = kernel.workload_summary()
            assert wl.elements == max(p.workload.elements for p in order)
            assert wl.sequential_steps == max(
                p.workload.sequential_steps for p in order
            )

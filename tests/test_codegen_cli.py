"""Tests for the OpenCL code generator and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import small_kernel
from repro.cli import build_parser, main
from repro.codegen import generate_host_snippet, generate_kernel_source
from repro.hardware import ImplConfig
from repro.hardware.specs import DeviceType
from repro.patterns import Gather, Kernel, Map, PPG, Reduce, Tensor


def _gather_kernel():
    x = Tensor("x", (4096,))
    ppg = PPG("g")
    g = ppg.add_pattern(Gather((x,)))
    m = ppg.add_pattern(Map((x,), func="mul", ops_per_element=2.0))
    ppg.connect(g, m)
    return Kernel("g", ppg)


class TestCodegen:
    def test_gpu_source_structure(self):
        k = small_kernel("K")
        src = generate_kernel_source(k, ImplConfig(), DeviceType.GPU)
        assert "__kernel void" in src
        assert "get_global_id" in src
        assert "reqd_work_group_size" in src

    def test_coalescing_remap_emitted(self):
        k = _gather_kernel()
        plain = generate_kernel_source(k, ImplConfig(), DeviceType.GPU)
        coal = generate_kernel_source(
            k, ImplConfig(memory_coalescing=True), DeviceType.GPU
        )
        assert "memory coalescing" not in plain
        assert "memory coalescing" in coal

    def test_scratchpad_uses_local(self):
        k = small_kernel("K")
        src = generate_kernel_source(
            k, ImplConfig(use_scratchpad=True), DeviceType.GPU
        )
        assert "__local" in src
        assert "barrier(CLK_LOCAL_MEM_FENCE)" in src

    def test_gpu_unroll_pragma(self):
        k = small_kernel("K")
        src = generate_kernel_source(k, ImplConfig(unroll=8), DeviceType.GPU)
        assert "#pragma unroll 8" in src

    def test_fpga_pipeline_and_units(self):
        k = small_kernel("K")
        src = generate_kernel_source(
            k,
            ImplConfig(pipelined=True, compute_units=4, bram_ports=8),
            DeviceType.FPGA,
        )
        assert "xcl_pipeline_loop" in src
        assert "num_compute_units(4)" in src
        assert "xcl_array_partition(cyclic, 8)" in src

    def test_fused_emits_single_kernel(self):
        k = _gather_kernel()
        fused = generate_kernel_source(k, ImplConfig(fused=True), DeviceType.FPGA)
        split = generate_kernel_source(k, ImplConfig(fused=False), DeviceType.FPGA)
        assert fused.count("__kernel void") == 1
        assert split.count("__kernel void") == 2
        assert "fused pattern" in fused

    def test_reduce_emits_tree_reduction(self):
        x = Tensor("x", (1024,))
        ppg = PPG("r")
        ppg.add_pattern(Reduce((x,), func="add"))
        src = generate_kernel_source(Kernel("r", ppg), ImplConfig(), DeviceType.GPU)
        assert "work_group_reduce_add" in src

    def test_dtype_mapping(self):
        x = Tensor("x", (64,), "fp16")
        ppg = PPG("h")
        ppg.add_pattern(Map((x,)))
        src = generate_kernel_source(Kernel("h", ppg), ImplConfig(), DeviceType.GPU)
        assert "half" in src

    def test_host_snippet_rounds_global_size(self):
        k = small_kernel("K", elements=1000)
        snippet = generate_host_snippet(k, ImplConfig(work_group_size=128), DeviceType.GPU)
        assert "local_size = 128" in snippet
        # 1000 rounded up to a multiple of 128 = 1024
        assert "global_size = 1024" in snippet

    def test_host_snippet_dvfs_hint(self):
        k = small_kernel("K")
        snippet = generate_host_snippet(
            k, ImplConfig(freq_scale=0.62), DeviceType.GPU
        )
        assert "62%" in snippet


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        for argv in (
            ["dse", "FQT"],
            ["schedule", "ASR", "--setting", "II"],
            ["simulate", "IR", "30"],
            ["codegen", "ASR", "LSTM_acoustic", "--fpga", "--unroll", "4"],
            ["figure", "fig11"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_figure_unknown_name(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().out

    def test_figure_fig11_runs(self, capsys):
        assert main(["figure", "fig11"]) == 0
        assert "utilization trace" in capsys.readouterr().out

    def test_codegen_runs(self, capsys):
        rc = main(
            ["codegen", "FQT", "PRNG", "--fpga", "--pipeline", "--unroll", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "__kernel" in out
        assert "xcl_pipeline_loop" in out

    def test_codegen_unknown_kernel(self, capsys):
        assert main(["codegen", "FQT", "Ghost"]) == 2


class TestCLIErrorContract:
    """Bad input is a usage error (exit 2, no traceback); valid edge
    cases (zero load, a closed output pipe) succeed."""

    def _usage_error(self, argv, capsys, arg):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"argument {arg}" in err.splitlines()[-1]
        return err.splitlines()[-1]

    def test_simulate_nan_rate(self, capsys):
        self._usage_error(["simulate", "asr", "nan"], capsys, "rps")

    def test_simulate_infinite_rate(self, capsys):
        self._usage_error(
            ["simulate", "asr", "inf", "--ms", "100"], capsys, "rps"
        )

    def test_cluster_zero_hours(self, capsys):
        self._usage_error(["cluster", "--hours", "0"], capsys, "--hours")

    def test_bench_zero_trials(self, capsys):
        self._usage_error(["bench", "--trials", "0"], capsys, "--trials")

    @pytest.mark.parametrize(
        "argv",
        [
            ["dse", "nosuch"],
            ["schedule", "nosuch"],
            ["simulate", "nosuch", "10"],
            ["codegen", "nosuch", "K"],
            ["obs", "nosuch"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_app_positional(self, argv, capsys):
        line = self._usage_error(argv, capsys, "app")
        assert "unknown app 'nosuch'; choose from" in line

    @pytest.mark.parametrize(
        "command", ["lint", "faults", "cluster", "bench"]
    )
    def test_unknown_app_option(self, command, capsys):
        self._usage_error([command, "--app", "nosuch"], capsys, "--app")

    @pytest.mark.parametrize(
        "argv,arg",
        [
            (["dse", "asr", "--budget", "0"], "--budget"),
            (["dse", "asr", "--n-jobs", "0"], "--n-jobs"),
            (["dse", "asr", "--n-jobs", "-2"], "--n-jobs"),
            (["bench", "--n-jobs", "0"], "--n-jobs"),
            (["obs", "asr", "--window-ms", "0", "--report"], "--window-ms"),
            (["obs", "asr", "--sample-top-k", "-1"], "--sample-top-k"),
            (["obs", "asr", "--sample-rate", "-1"], "--sample-rate"),
            (["obs", "asr", "--sample-rate", "2"], "--sample-rate"),
            (["cluster", "--trace", "--sample-rate", "-1"], "--sample-rate"),
            (["cluster", "--trace", "--sample-rate", "2"], "--sample-rate"),
            (["faults", "--mtbf-ms", "0"], "--mtbf-ms"),
            (["faults", "--mtbf-ms", "nan"], "--mtbf-ms"),
            (["faults", "--mtbf-ms", "-5"], "--mtbf-ms"),
            (["faults", "--mtbf-ms", "500", "--mttr-ms", "0"], "--mttr-ms"),
            (["faults", "--mtbf-ms", "500", "--mttr-ms", "inf"], "--mttr-ms"),
            (["cluster", "--peak-rps", "-5"], "--peak-rps"),
            (["cluster", "--peak-rps", "0"], "--peak-rps"),
            (["cluster", "--peak-factor", "0"], "--peak-factor"),
            (["cluster", "--peak-factor", "nan"], "--peak-factor"),
            (["cluster", "--eval-ms", "0"], "--eval-ms"),
            (["cluster", "--warmup-ms", "-1"], "--warmup-ms"),
            (["cluster", "--up-util", "2"], "--up-util"),
            (["cluster", "--down-util", "-0.1"], "--down-util"),
            (["cluster", "--target-util", "nan"], "--target-util"),
            (["cluster", "--min-nodes", "-1"], "--min-nodes"),
            (["cluster", "--max-nodes", "0"], "--max-nodes"),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else "",
    )
    def test_out_of_range_numbers(self, argv, arg, capsys, tmp_path):
        # An output directory in case a broken build runs the command.
        out = ["--out-dir", str(tmp_path)] if argv[0] == "obs" else []
        if argv[0] == "cluster":
            out = ["--hours", "0.5", "--trace-out", str(tmp_path)]
        self._usage_error(argv + out, capsys, arg)

    def test_valid_edge_values_parse(self):
        parser = build_parser()
        assert parser.parse_args(["dse", "asr", "--n-jobs", "-1"]).n_jobs == -1
        args = parser.parse_args(
            ["obs", "wt", "--sample-rate", "0", "--sample-top-k", "0"]
        )
        assert (args.app, args.sample_rate, args.sample_top_k) == ("WT", 0.0, 0)
        assert parser.parse_args(["cluster", "--sample-rate", "1"]).app == "ASR"
        args = parser.parse_args(
            ["cluster", "--warmup-ms", "0", "--min-nodes", "0", "--up-util", "1"]
        )
        assert (args.warmup_ms, args.min_nodes, args.up_util) == (0.0, 0, 1.0)
        args = parser.parse_args(["faults", "--mtbf-ms", "250", "--mttr-ms", "1e3"])
        assert (args.mtbf_ms, args.mttr_ms) == (250.0, 1000.0)

    def test_simulate_zero_rate_is_empty_result(self, capsys):
        assert main(["simulate", "asr", "0", "--ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "0 reqs" in out
        assert "p99        : nan ms" in out

    def test_closed_pipe_exits_quietly(self):
        """``repro figure table2 | head -1``: the reader is gone before
        the table is written; no BrokenPipeError traceback."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "figure", "table2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == ""

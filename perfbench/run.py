"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 0 --seconds 20 --trace 0

Run from the repository root; the ``repro`` package is imported from
``src/``.  With ``--trace 0`` the workload is set up several times over
the run (the median is ``setup_s``) and passed over repeatedly for
``--seconds`` seconds, at least twice; host times are each timed call's
mean time over the passes, summed (see ``workloads.unit_means``), and
put at the reference host speed by the calibration loop that
``workloads.HostSpeed`` runs every half second of the run.  With
``--trace 1`` two untraced passes are followed by one pass with the
layer wrappers of ``layers.py`` installed; the per-layer metrics come
from the traced pass, the tracing overhead is its wall time minus the
second untraced pass's, and the spans are written to ``perfbench/out/``.

Every run checks the simulated outputs (see ``workloads.py``).  The
second-to-last line of standard output is a JSON object with the
workload-specific metrics, the per-pass request accounting and the
sha256 digest of the simulated outputs; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Values are printed
with all their digits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up slots per untraced invocation; ``setup_s`` is the median of
#: every set-up timed in them.  The slots are spread over the run (one
#: before the passes, one after each pass, the rest at the end): the
#: host's speed flips between states every few seconds, and
#: back-to-back repeats would all land in the same one.
SETUP_SLOTS = 5
#: A slot repeats set-up until it has spent this long, so a set-up of a
#: few milliseconds (``dse``) is timed dozens of times, not five.
SETUP_SLOT_S = 0.1

#: Passes per untraced run at least, so every timed call is averaged
#: over more than one sample (see ``workloads.unit_means``).
MIN_PASSES = 2

#: End-to-end metrics, printed for every workload: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("sim_quality", "ratio"),
)

#: Units of the workload-specific metrics on the detail line.
DETAIL_UNITS = {
    "dse_exhaustive_s": "s",
    "dse_guided_s": "s",
    "dse_hv_ratio": "ratio",
    "serve_req_per_s": "req/s",
    "serve_in_slo_frac": "ratio",
    "serve_knee_rps": "rps",
    "serve_p99_ms": "ms",
    "serve_energy_j_per_req": "J",
    "fleet_req_per_s": "req/s",
    "fleet_p99_ms": "ms",
    "fleet_in_slo_frac": "ratio",
    "fleet_availability": "ratio",
    "fleet_cost_efficiency": "rps/USD",
    "sim_quality": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(workload, seed: int):
    import workloads

    gc.collect()
    spent = workloads.handler_seconds()
    start = time.perf_counter()
    inputs = workload.setup(seed)
    seconds = time.perf_counter() - start
    return inputs, seconds - (workloads.handler_seconds() - spent)


def setup_slot(workload, seed: int, times: list):
    """Set up until the slot has spent :data:`SETUP_SLOT_S`; returns
    the inputs of the last set-up."""
    spent = 0.0
    while spent < SETUP_SLOT_S:
        inputs, seconds = timed_setup(workload, seed)
        times.append(seconds)
        spent += seconds
    return inputs


def timed_pass(workload, inputs, span):
    gc.collect()
    start = time.perf_counter()
    p = workload.run_pass(inputs, span)
    return p, time.perf_counter() - start


def _no_span(name):
    return contextlib.nullcontext()


def verify(workload, inputs, passes) -> list:
    """Full checks on the first pass; later passes must reproduce it."""
    first = passes[0]
    workload.check_pass(inputs, first)
    first.outputs = None
    problems = list(first.problems)
    for i, p in enumerate(passes[1:], start=1):
        problems += p.problems
        if p.digest != first.digest:
            problems.append(f"pass {i} simulated outputs differ from pass 0")
    return problems


def measure(workload, seed: int, seconds: float, trace: bool):
    """Set up, measure and check one workload; returns the detail
    object and the result object that :func:`main` prints."""
    import layers
    import workloads

    if trace:
        inputs, _ = timed_setup(workload, seed)
        # The first pass fills process-wide caches (generated dispatch
        # programs, priority memos); the overhead baseline is the second.
        timed_pass(workload, inputs, _no_span)
        untraced, untraced_wall = timed_pass(workload, inputs, _no_span)
        rec = layers.Recorder()
        wrappers = layers.Wrappers(rec)
        from repro import hardware, obs

        registry = obs.MetricsRegistry()
        hardware.model_cache.bind_metrics(registry)
        wrappers.install()
        try:
            traced, traced_wall = timed_pass(workload, inputs, rec.span)
        finally:
            wrappers.uninstall()
            hardware.model_cache.bind_metrics(None)
        passes = [untraced, traced]
        outcome = dict(traced.layer_counts)
        hits = registry.value("model_cache_hits_total")
        misses = registry.value("model_cache_misses_total")
        outcome["hardware.model_eval.requested"] = hits + misses
        outcome["hardware.model_eval.misses"] = misses
        values = layers.layer_metrics(rec, outcome, traced_wall - untraced_wall)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER
        }
        workloads.OUT_DIR.mkdir(exist_ok=True)
        rec.write(workloads.OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz")
        detail = {
            "untraced_wall_s": untraced_wall,
            "traced_wall_s": traced_wall,
            "matrix_deviations": layers.matrix_deviations(workload.name, values),
        }
    else:
        passes = []
        setup_times: list = []
        with workloads.HostSpeed() as host:
            workloads.host_speed = host
            try:
                start = time.perf_counter()
                inputs = setup_slot(workload, seed, setup_times)
                slots = 1
                while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
                    p, _ = timed_pass(workload, inputs, _no_span)
                    if passes:
                        p.outputs = None
                    passes.append(p)
                    if slots < SETUP_SLOTS:
                        setup_slot(workload, seed, setup_times)
                        slots += 1
                rss = peak_rss_mb()
                for _ in range(slots, SETUP_SLOTS):
                    setup_slot(workload, seed, setup_times)
            finally:
                workloads.host_speed = None
        factor = host.factor()
        wall = workloads.unit_means(passes)
        scaled = {key: t * factor for key, t in wall.items()}
        setup_s = statistics.median(setup_times) * factor
        specific = workload.end_to_end(passes, scaled)
        pass_s = sum(scaled.values())
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "ops_per_s": passes[0].attempted / pass_s,
            "sim_quality": specific["sim_quality"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
        }
        detail = {
            "metrics": {
                k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in specific.items()
            },
            "passes": len(passes),
            "setup_wall_s": statistics.median(setup_times),
            "setup_times_s": setup_times,
            "pass_s": pass_s,
            "pass_wall_s": sum(wall.values()),
            "ops_per_wall_s": passes[0].attempted / sum(wall.values()),
            "pass_totals_s": [p.host_s for p in passes],
            "calibration_s": statistics.fmean(host.loop_s) if host.loop_s else None,
            "calibration_samples": len(host.loop_s),
            "stages_s": {
                stage: workloads.stage_seconds(scaled, stage)
                for stage in dict.fromkeys(k.split("/")[0] for k in scaled)
            },
            "counts": passes[0].layer_counts,
        }

    problems = verify(workload, inputs, passes)
    attempted = sum(p.attempted for p in passes)
    failed = min(sum(p.failed for p in passes), attempted)
    detail.update(
        {
            "workload": workload.name,
            "seed": seed,
            "digest": passes[0].digest,
            "summary": passes[0].summary,
            "problems": problems[:20],
        }
    )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    detail, result = measure(cls(), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

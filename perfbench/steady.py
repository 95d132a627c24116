"""Steadiness tooling: run a workload over many seeds, summarize, compare.

Run a set (each seed is one ``run.py`` invocation, run one after the
other) and save it:

    python3 perfbench/steady.py run --workload serve --seeds 0-9 \\
        --out perfbench/out/serve-a.json

Print each metric's median, quartiles and spread (the quartile distance
as a share of the median) of a saved set, next to the metric's bound in
``BENCHMARK.json``:

    python3 perfbench/steady.py show perfbench/out/serve-a.json

Compare two saved sets (a parent and a change, or two sets of the same
code) metric by metric: the change of the median as a share of the
first set's median, in the metric's "worse" direction, against its
bound:

    python3 perfbench/steady.py compare perfbench/out/serve-a.json \\
        perfbench/out/serve-b.json

Use ``show`` to set bounds (a bound should be at least three times the
spread seen) and ``compare`` to re-check a claim on seeds that were not
used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def declared_metrics() -> Dict[str, dict]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    doc = json.loads(path.read_text())
    return {m["name"]: m for m in doc["end_to_end"] + doc["per_layer"]}


def run_set(workload: str, seeds: List[int], seconds: int, trace: int) -> dict:
    runs = []
    for seed in seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, check=False
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: run.py exited {proc.returncode}")
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "detail": detail, "result": result})
        values = {k: v["value"] for k, v in result["metrics"].items()}
        print(
            f"seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']} "
            + " ".join(f"{k}={v:.6g}" for k, v in values.items() if trace == 0),
            flush=True,
        )
    return {"workload": workload, "seconds": seconds, "trace": trace, "runs": runs}


#: Wall-time figures of the detail line, beside their scaled metrics.
WALL_FIGURES = (("ops_per_wall_s", "1/s"), ("setup_wall_s", "s"))


def metric_values(doc: dict) -> Dict[str, List[float]]:
    """Result metrics first, then the workload-specific metrics and the
    wall-time figures of the detail line (shown, never gated)."""
    values: Dict[str, List[float]] = {}
    for run in doc["runs"]:
        metrics = dict(run["result"]["metrics"])
        for name, metric in run["detail"].get("metrics", {}).items():
            metrics.setdefault(name, metric)
        for name, unit in WALL_FIGURES:
            if name in run["detail"]:
                metrics.setdefault(name, {"value": run["detail"][name], "unit": unit})
        for name, metric in metrics.items():
            values.setdefault(name, []).append(metric["value"])
    return values


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def show(doc: dict) -> int:
    declared = declared_metrics()
    print(f"{doc['workload']}: {len(doc['runs'])} run(s)")
    print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} {'bound':>6s}")
    for name, values in metric_values(doc).items():
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / abs(q2) if q2 else 0.0
        bound = declared.get(name, {}).get("bound")
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "  <- over a third of its bound" if spread > bound / 3 else ""
        bound_txt = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"  {name:34s} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {bound_txt}{flag}")
    incorrect = [r["seed"] for r in doc["runs"] if not r["result"]["correct"]]
    failed = sum(r["result"]["failed"] for r in doc["runs"])
    attempted = sum(r["result"]["attempted"] for r in doc["runs"])
    print(f"  failed operations: {failed}/{attempted}; incorrect seeds: {incorrect or 'none'}")
    return 1 if incorrect else 0


def compare(a: dict, b: dict) -> int:
    declared = declared_metrics()
    va, vb = metric_values(a), metric_values(b)
    print(f"{a['workload']}: {len(a['runs'])} run(s) vs {len(b['runs'])} run(s)")
    print(f"  {'metric':34s} {'median A':>14s} {'median B':>14s} {'worse by':>9s} {'bound':>6s}")
    status = 0
    for name in va:
        if name not in vb:
            continue
        ma, mb = statistics.median(va[name]), statistics.median(vb[name])
        change = (mb - ma) / abs(ma) if ma else 0.0
        spec = declared.get(name)
        if spec is None:
            # A detail-line metric: no direction or bound is declared.
            print(f"  {name:34s} {ma:14.6g} {mb:14.6g} {'':9s}      -  change {change:+.4f}")
            continue
        worse = -change if spec["better"] == "higher" else change
        bound = spec.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "  REGRESSION" if worse > bound else "  ok"
            status |= worse > bound
        bound_txt = f"{bound:6.3f}" if bound is not None else "     -"
        print(f"  {name:34s} {ma:14.6g} {mb:14.6g} {worse:9.4f} {bound_txt}{verdict}")
    digests_a = {r["seed"]: r["detail"]["digest"] for r in a["runs"]}
    same = [
        r["seed"] for r in b["runs"]
        if digests_a.get(r["seed"]) == r["detail"]["digest"]
    ]
    shared = [r["seed"] for r in b["runs"] if r["seed"] in digests_a]
    print(f"  identical simulated outputs on {len(same)}/{len(shared)} shared seed(s)")
    return int(status)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,10-12")
    p.add_argument("--seconds", type=int, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("show")
    p.add_argument("set")
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)

    if args.cmd == "run":
        seconds = args.seconds
        if seconds is None:
            seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        doc = run_set(args.workload, parse_seeds(args.seeds), seconds, args.trace)
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        return show(doc)
    if args.cmd == "show":
        return show(json.loads(Path(args.set).read_text()))
    return compare(json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()))


if __name__ == "__main__":
    sys.exit(main())

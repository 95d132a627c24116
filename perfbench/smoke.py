"""Tiny-scale smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at :data:`workloads.TINY` scale, once untraced and
once traced, and fails (exit 1) unless:

* ``BENCHMARK.json`` declares exactly the workloads and metrics the code
  emits, with the same units;
* every untraced run emits every end-to-end metric, every traced run
  every per-layer metric, all as finite numbers;
* every run is correct with no failed operation;
* each traced run matches the layer x workload matrix of ``layers.py``.

Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def check_declaration(doc: dict) -> list:
    problems = []
    declared = [(m["name"], m["unit"]) for m in doc["end_to_end"]]
    if declared != list(run.END_TO_END):
        problems.append(f"end_to_end {declared} != emitted {list(run.END_TO_END)}")
    declared = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    if declared != list(layers.PER_LAYER):
        problems.append("per_layer metrics differ from layers.PER_LAYER")
    names = [w["name"] for w in doc["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"workloads {names} != {sorted(workloads.WORKLOADS)}")
    return problems


def check_run(label: str, detail: dict, result: dict, expected: list) -> list:
    problems = [f"{label}: {p}" for p in detail["problems"]]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(
            f"{label}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}"
        )
    emitted = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if emitted != expected:
        problems.append(f"{label}: emitted metrics differ from the declaration")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    for deviation in detail.get("matrix_deviations", ()):
        problems.append(f"{label}: layer matrix: {deviation}")
    return problems


def main() -> int:
    problems = check_declaration(json.loads((ROOT / "BENCHMARK.json").read_text()))
    for name, cls in workloads.WORKLOADS.items():
        for trace in (False, True):
            label = f"{name} ({'traced' if trace else 'untraced'})"
            detail, result = run.measure(cls(workloads.TINY), 0, 0.01, trace)
            expected = list(layers.PER_LAYER if trace else run.END_TO_END)
            found = check_run(label, detail, result, expected)
            print(f"{label}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

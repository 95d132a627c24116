"""Golden digests of seeded runtime runs.

Each digest is a sha256 over the ``repr`` of every float a run
produces: per-request arrival/completion/predicted times and outcome
flags, the binned power timeline, the resilience report of chaos runs,
and the JSONL event stream of traced runs.  The checked-in values in
``runtime_digests.json`` pin the behaviour of the request path; a
change to any dispatch decision, noise draw or emission shows up as a
changed digest.

Single-node cases: six apps x {fault_free, plan_cached, chaos,
traced, sampled} on Setting-I Heter-Poly through ``run_simulation``;
``sampled`` digests the traced run's JSONL after head sampling
(:data:`SAMPLING`).  Fleet
cases: an ASR flash-crowd replay x {fault_free, chaos (a fault
schedule on every node), traced (``trace_nodes=True``)} through
``ClusterSimulation``.

Re-record after a deliberate behaviour change (from the repository
root), and say why in CHANGES.md::

    PYTHONPATH=src python tests/golden/record_runtime_digests.py

``tests/test_golden_digests.py`` recomputes every digest on both
``run_simulation`` engines and on the fleet driver and compares.
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import apps as apps_mod
from repro import runtime
from repro.faults import FaultSchedule
from repro.obs import SamplingPolicy, SpanTracer, sample_events
from repro.scheduler import SchedulePlanCache

DIGEST_PATH = Path(__file__).with_name("runtime_digests.json")

APPS = ("ASR", "CS", "FQT", "IR", "MF", "WT")
SINGLE_MODES = ("fault_free", "plan_cached", "chaos", "traced", "sampled")
FLEET_MODES = ("fault_free", "chaos", "traced")

#: Single-node stream: Poisson at RATE_RPS for DURATION_MS, seeded.
RATE_RPS = 80.0
DURATION_MS = 2_500.0
SEED = 7
#: Head sampling of the ``sampled`` mode's exported event stream.
SAMPLING = SamplingPolicy(head_rate=0.1, seed=0)
#: Fleet replay: an ASR flash crowd over FLEET_MS on 1-4 nodes.
FLEET_MS = 16_000.0
FLEET_MAX_NODES = 4
FLEET_SEED = 5


@lru_cache(maxsize=None)
def app_env(name: str):
    """(app, system, design spaces) for one bundled app."""
    app = apps_mod.build(name)
    system = runtime.setting("I", "Heter-Poly")
    return app, system, app.explore(system.platforms)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _request_lines(requests):
    for r in requests:
        yield (
            f"{r.arrival_ms!r} {r.completion_ms!r} {r.predicted_ms!r} "
            f"{r.retries} {int(r.dropped)} {int(r.failed)}"
        )


def _jsonl_lines(events):
    for e in events:
        yield json.dumps(e.to_dict(), sort_keys=True)


def _chaos_schedule(device_ids, duration_ms: float, seed: int):
    return FaultSchedule.from_mtbf(
        device_ids,
        duration_ms=duration_ms,
        mtbf_ms=duration_ms / 2.5,
        mttr_ms=duration_ms / 6.0,
        seed=seed,
        transient_rate_per_s=0.5,
        slowdown_prob=0.25,
    )


def single_node_digest(name: str, mode: str, engine: str) -> str:
    """Digest of one seeded ``run_simulation`` case on ``engine``."""
    app, system, spaces = app_env(name)
    arrivals = runtime.poisson_arrivals(
        RATE_RPS, DURATION_MS, rng=np.random.default_rng(SEED)
    )
    kw = {}
    tracer = None
    if mode == "plan_cached":
        kw["plan_cache"] = SchedulePlanCache()
    elif mode == "chaos":
        kw["faults"] = _chaos_schedule(
            [d for d, _ in system.device_inventory()], DURATION_MS, SEED
        )
    elif mode in ("traced", "sampled"):
        tracer = kw["tracer"] = SpanTracer()
    elif mode != "fault_free":
        raise ValueError(f"unknown mode {mode!r}")
    result = runtime.run_simulation(
        system, app, spaces, arrivals, seed=SEED, engine=engine, **kw
    )
    lines = list(_request_lines(result.requests))
    lines += [repr(float(w)) for w in result.power_bins_w]
    if result.faults is not None:
        lines += [
            f"{k} {v!r}" for k, v in sorted(result.faults.summary().items())
        ]
    if mode == "traced":
        lines += list(_jsonl_lines(tracer.events))
    elif mode == "sampled":
        lines += list(_jsonl_lines(sample_events(tracer.events, SAMPLING).events))
    return _sha(lines)


def fleet_digest(mode: str) -> str:
    """Digest of one seeded ASR fleet replay (same signature fields as
    the fleet golden tests: requests, routing, intervals, timeline,
    power)."""
    from repro.cluster import AutoscalerConfig, ClusterSimulation

    app, system, spaces = app_env("ASR")
    kw = {}
    tracer = None
    if mode == "chaos":
        devices = [d for d, _ in system.device_inventory()]
        kw["fault_schedules"] = {
            f"node{i}": _chaos_schedule(devices, FLEET_MS, FLEET_SEED + i)
            for i in range(FLEET_MAX_NODES)
        }
    elif mode == "traced":
        tracer = kw["tracer"] = SpanTracer()
        kw["trace_nodes"] = True
    elif mode != "fault_free":
        raise ValueError(f"unknown mode {mode!r}")
    sim = ClusterSimulation(
        [system], app, spaces,
        config=AutoscalerConfig(min_nodes=1, max_nodes=FLEET_MAX_NODES),
        seed=FLEET_SEED,
        **kw,
    )
    spec = runtime.ArrivalSpec.flash_crowd(
        80.0, FLEET_MS, 6_000.0, 3_000.0, seed=0
    )
    result = sim.run(spec, horizon_ms=FLEET_MS)
    lines = list(_request_lines(result.requests))
    lines += result.node_ids
    lines += [
        f"{iv.t_ms!r} {iv.arrivals} {iv.p99_ms!r}" for iv in result.intervals
    ]
    lines += [
        f"{e.t_ms!r} {e.action} {e.node_id} {e.fleet_size}"
        for e in result.timeline
    ]
    lines += [repr(float(w)) for w in result.power_bins_w]
    if tracer is not None:
        lines += list(_jsonl_lines(tracer.events))
    return _sha(lines)


def record() -> dict:
    """Every digest; single-node cases run on the per-request
    ``legacy`` engine, the reference the event engine is held to."""
    return {
        "numpy": np.__version__,
        "single_node": {
            name: {
                mode: single_node_digest(name, mode, "legacy")
                for mode in SINGLE_MODES
            }
            for name in APPS
        },
        "fleet": {mode: fleet_digest(mode) for mode in FLEET_MODES},
    }


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")

"""The benchmark's three workloads: ``dse``, ``serve`` and ``fleet_chaos``.

Each workload has three parts:

* ``setup(seed)`` builds the apps, runs whatever DSE the workload needs
  before it can serve, and generates every input from the seed.  The
  program receives only these generated inputs.
* ``run_pass(inputs, span)`` calls the ``repro`` library once over the
  inputs and returns a :class:`Pass`: host seconds spent inside library
  calls, a summary of the simulated outputs, a sha256 digest of them and
  the operations attempted and failed.  ``span`` opens a benchmark-side
  span around calls that have no library function to wrap (the traced
  run passes :meth:`layers.Recorder.span`).
* ``check_pass(inputs, p)`` re-checks a pass's outputs; the cheap checks
  already ran inside ``run_pass``, outside the timed calls.

Library functions are always reached through their package module
(``rt.run_simulation``, not a name imported into this file), so the
traced run's wrappers see every call.

Why these workloads and what each one exercises is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import signal
import statistics
import struct
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import apps as apps_mod
from repro import cluster as cl
from repro import faults as fl
from repro import hardware as hw
from repro import lint
from repro import obs
from repro import optim
from repro import runtime as rt
from repro.experiments.harness import DEFAULT_LOADS, PEAK_RPS, geomean

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "data" / "dse_reference.json"
OUT_DIR = HERE / "out"

ALL_APPS = ("ASR", "FQT", "IR", "CS", "MF", "WT")

#: The serve load grid: the figure harness's load levels at its 100%
#: anchor, 12..120 rps.
SERVE_RATES = tuple(load * PEAK_RPS for load in DEFAULT_LOADS)
#: The grid point where every app meets QoS at seed 0.
SERVE_REFERENCE_RPS = 48.0


@dataclass(frozen=True)
class Scale:
    """How much work one pass does.  :data:`FULL` is the benchmark;
    :data:`TINY` only feeds the smoke check."""

    dse_apps: Tuple[str, ...] = ALL_APPS
    guided_max_evals: int = 512
    serve_apps: Tuple[str, ...] = ALL_APPS
    serve_ms: float = 60_000.0
    fleet_apps: Tuple[str, ...] = ("ASR", "CS")
    fleet_hours: float = 24.0
    fleet_compress: float = 200.0


FULL = Scale()
TINY = Scale(
    dse_apps=("MF",),
    guided_max_evals=64,
    serve_apps=("CS",),
    serve_ms=3_000.0,
    fleet_apps=("CS",),
    fleet_hours=1.0,
)


@dataclass
class Pass:
    """Outcome of one pass over the inputs."""

    #: Host seconds of each timed library call, keyed ``stage/label``.
    units: Dict[str, float]
    #: Simulated (deterministic) results of the pass.
    summary: Dict[str, float]
    digest: str
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    #: Outcome counts the traced run reports per layer.
    layer_counts: Dict[str, float] = field(default_factory=dict)
    #: Kept for :meth:`check_pass`; dropped after the first pass.
    outputs: object = None

    @property
    def host_s(self) -> float:
        return sum(self.units.values())


class _Digest:
    """sha256 over the simulated outputs, fed in a fixed order."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def floats(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64)
        self._h.update(struct.pack("<q", arr.size))
        self._h.update(arr.tobytes())

    def text(self, value: str) -> None:
        data = value.encode()
        self._h.update(struct.pack("<q", len(data)))
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()


#: The calibration loop's time at the reference host speed: host
#: seconds scaled by :class:`HostSpeed` are seconds on a host that runs
#: the loop in this time, about the fast state of a shared 2-vCPU host.
CAL_REF_S = 0.010
#: Wall seconds between two runs of the calibration loop.
CAL_EVERY_S = 0.5


def calibration_loop() -> float:
    """Seconds the host takes for a fixed pure-Python loop (integer
    arithmetic and a keyed sort; about :data:`CAL_REF_S`).  It allocates
    almost nothing, so the program's heap does not change its time."""
    start = time.perf_counter()
    x = 0
    for i in range(100_000):
        x = (x * 31 + i) & 0xFFFFF
    items = list(range(1000))
    for _ in range(5):
        items.sort(key=lambda v: (v * 7919 + x) % 1009)
    return time.perf_counter() - start


class HostSpeed:
    """Runs :func:`calibration_loop` every :data:`CAL_EVERY_S` of wall
    time while it is entered, from a ``SIGALRM`` handler in the
    benchmark's own thread, so the samples cover long library calls too.

    A shared host changes speed under the benchmark: on a shared 2-vCPU
    host the same pass took up to 1.8x longer for minutes at a time,
    and the loop slowed with it (see README.md, "End-to-end metrics").
    :meth:`factor` puts the host seconds of the sampled window at the
    reference speed.  Time spent in the handler is kept in ``spent_s``
    so timed calls can leave it out."""

    def __init__(self, every_s: float = CAL_EVERY_S) -> None:
        self.every_s = every_s
        self.loop_s: List[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.loop_s.append(calibration_loop())
        self.spent_s += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """:data:`CAL_REF_S` over the loop's mean time."""
        if not self.loop_s:
            return 1.0
        return CAL_REF_S / statistics.fmean(self.loop_s)


#: Set by ``run.py`` while an untraced run samples the host's speed.
host_speed: Optional[HostSpeed] = None


def handler_seconds() -> float:
    """Wall seconds spent in :class:`HostSpeed`'s handler so far."""
    return host_speed.spent_s if host_speed is not None else 0.0


def _timed(units: Dict[str, float], key: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` and record its wall seconds, less any time the
    host-speed handler took inside it.  A call that raises is not
    recorded."""
    with _timing(units, key):
        return fn(*args, **kwargs)


@contextlib.contextmanager
def _timing(units: Dict[str, float], key: str):
    spent = handler_seconds()
    start = time.perf_counter()
    yield
    units[key] = time.perf_counter() - start - (handler_seconds() - spent)


def _raised(label: str) -> str:
    """A library call that raises is a failed operation, not a crashed
    run: the run reports it and goes on."""
    return f"{label} raised: {traceback.format_exc(limit=3).strip()}"


def unit_means(passes: List[Pass]) -> Dict[str, float]:
    """Each timed call's mean time over the run's passes.

    Averaging every pass of the run over the whole of it was the
    steadiest estimate of one pass that was found (see README.md,
    "End-to-end metrics")."""
    return {
        key: statistics.fmean(p.units[key] for p in passes if key in p.units)
        for key in passes[0].units
    }


def stage_seconds(units: Dict[str, float], stage: str) -> float:
    return sum(v for k, v in units.items() if k.startswith(stage + "/"))


def _request_accounting(
    label: str, arrivals: Sequence[float], requests, qos_ms: float
) -> Tuple[Dict[str, int], List[str]]:
    """Offered = served + shed + abandoned, and every offered arrival has
    exactly one record, in arrival order."""
    problems: List[str] = []
    offered = len(arrivals)
    shed = sum(1 for r in requests if r.dropped)
    abandoned = sum(1 for r in requests if r.failed and not r.dropped)
    served = sum(1 for r in requests if r.served)
    in_qos = sum(1 for r in requests if r.served and r.latency_ms <= qos_ms)
    if len(requests) != offered:
        problems.append(f"{label}: {len(requests)} records for {offered} arrivals")
    elif [r.arrival_ms for r in requests] != sorted(arrivals):
        problems.append(f"{label}: records do not match the offered arrivals")
    if served + shed + abandoned != offered:
        problems.append(
            f"{label}: offered {offered} != served {served} + shed {shed} "
            f"+ abandoned {abandoned}"
        )
    counts = {
        "offered": offered,
        "served": served,
        "shed": shed,
        "abandoned": abandoned,
        "in_qos": in_qos,
    }
    return counts, problems


# ---------------------------------------------------------------------------
# dse: offline design-space exploration
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    """The enlarged knob space and the exhaustive hypervolume of every
    (app, kernel, platform) on it, recorded by ``make_reference.py``."""
    return json.loads(REFERENCE_PATH.read_text())


def enlarged_overrides(reference: dict) -> Dict[str, tuple]:
    return {k: tuple(v) for k, v in reference["overrides"].items()}


class DSE:
    """Exhaustive DSE of the apps on the Setting-I Heter-Poly platforms
    (the ``repro dse`` default path), then guided search of the same
    apps on the enlarged knob space, both from one cold model cache."""

    name = "dse"

    def __init__(self, scale: Scale = FULL) -> None:
        self.scale = scale

    def setup(self, seed: int) -> dict:
        reference = load_reference()
        return {
            "apps": [apps_mod.build(name) for name in self.scale.dse_apps],
            "platforms": rt.setting("I", "Heter-Poly").platforms,
            "overrides": enlarged_overrides(reference),
            "reference": reference["spaces"],
            "search": optim.SearchConfig(
                max_evals=self.scale.guided_max_evals, seed=seed
            ),
        }

    def run_pass(self, inp: dict, span) -> Pass:
        units: Dict[str, float] = {}
        problems: List[str] = []
        failed = 0
        platforms = inp["platforms"]
        hw.clear_model_cache()
        # One timed call per kernel: ``explore_application`` over a single
        # kernel is the loop ``Application.explore`` runs over all of
        # them.
        exhaustive: Dict[str, dict] = {app.name: {} for app in inp["apps"]}
        for app in inp["apps"]:
            targets = app.dse_targets()
            for kernel in app.kernels:
                label = f"{app.name}/{kernel.name}"
                try:
                    exhaustive[app.name].update(
                        _timed(
                            units, f"exhaustive/{label}", optim.explore_application,
                            [kernel], platforms, targets,
                        )
                    )
                except Exception:
                    failed += len(platforms)
                    problems.append(_raised(f"exhaustive DSE of {label}"))
        guided: Dict[str, dict] = {app.name: {} for app in inp["apps"]}
        for app in inp["apps"]:
            for kernel in app.kernels:
                label = f"{app.name}/{kernel.name}"
                try:
                    guided[app.name].update(
                        _timed(
                            units, f"guided/{label}", optim.explore_application,
                            [kernel], platforms, strategy="guided",
                            search=inp["search"],
                            candidate_overrides=inp["overrides"],
                        )
                    )
                except Exception:
                    failed += len(platforms)
                    problems.append(_raised(f"guided DSE of {label}"))

        digest = _Digest()
        searches = 2 * len(platforms) * sum(len(app.kernels) for app in inp["apps"])
        for label, product in (("exhaustive", exhaustive), ("guided", guided)):
            for app_name, spaces in product.items():
                for (kernel, platform), space in spaces.items():
                    front = space.pareto()
                    digest.text(f"{label}/{app_name}/{kernel}/{platform}")
                    digest.floats([v for p in front for v in (p.latency_ms, p.power_w)])
                    digest.text(repr([p.config for p in front]))
                    if label != "exhaustive":
                        continue
                    if not front or any(
                        p.dominates(f) for f in front for p in space.points
                    ):
                        failed += 1
                        problems.append(
                            f"exhaustive front of {app_name}/{kernel}@{platform} "
                            "is dominated"
                        )

        ratios = []
        evaluations = explored = front_points = 0
        for app_name, spaces in guided.items():
            for (kernel, platform), space in spaces.items():
                ref_lat, ref_pow, hv_exhaustive = inp["reference"][
                    f"{app_name}/{kernel}/{platform}"
                ]
                hv = optim.space_hypervolume(space, (ref_lat, ref_pow))
                ratios.append(hv / hv_exhaustive)
                stats = space.search_stats
                evaluations += stats.evaluations
                explored += stats.explored
                front_points += len(space.pareto())
        summary = {
            "dse_hv_ratio": min(ratios, default=0.0),
            "dse_hv_ratio_mean": sum(ratios) / max(len(ratios), 1),
            "searches": searches,
        }
        return Pass(
            units=units,
            summary=summary,
            digest=digest.hexdigest(),
            attempted=searches,
            failed=failed,
            problems=problems,
            layer_counts={
                "optim.search.evaluations": evaluations,
                "optim.search.explored": explored,
                "optim.search.front_points": front_points,
            },
            outputs=guided,
        )

    def check_pass(self, inp: dict, p: Pass) -> None:
        """Every guided front point is a design of the enlarged space."""
        by_name = {app.name: app for app in inp["apps"]}
        specs = {spec.name: spec for spec in inp["platforms"]}
        for app_name, spaces in p.outputs.items():
            kernels = {k.name: k for k in by_name[app_name].kernels}
            for (kernel, platform), space in spaces.items():
                allowed = set(
                    optim.enumerate_configs(
                        kernels[kernel], specs[platform], inp["overrides"]
                    )
                )
                stray = [q for q in space.pareto() if q.config not in allowed]
                if stray:
                    p.failed += 1
                    p.problems.append(
                        f"guided front of {app_name}/{kernel}@{platform} has "
                        f"{len(stray)} point(s) outside the enlarged space"
                    )

    @staticmethod
    def end_to_end(passes: List[Pass], times: Dict[str, float]) -> Dict[str, float]:
        first = passes[0].summary
        return {
            "dse_exhaustive_s": stage_seconds(times, "exhaustive"),
            "dse_guided_s": stage_seconds(times, "guided"),
            "sim_quality": first["dse_hv_ratio"],
            "dse_hv_ratio": first["dse_hv_ratio"],
        }


# ---------------------------------------------------------------------------
# serve: one fault-free leaf node across the load grid
# ---------------------------------------------------------------------------


class Serve:
    """Every app at every rate of the figure harness's load grid, one
    default ``run_simulation`` call per point (no plan cache), open-loop
    seeded Poisson arrivals."""

    name = "serve"

    def __init__(self, scale: Scale = FULL) -> None:
        self.scale = scale

    def setup(self, seed: int) -> dict:
        system = rt.setting("I", "Heter-Poly")
        hw.clear_model_cache()
        points = []
        for a, name in enumerate(self.scale.serve_apps):
            app = apps_mod.build(name)
            spaces = app.explore(system.platforms)
            for r, rps in enumerate(SERVE_RATES):
                arrivals = rt.poisson_arrivals(
                    rps,
                    self.scale.serve_ms,
                    rng=np.random.default_rng((seed, a, r)),
                )
                points.append((app, spaces, rps, arrivals))
        return {"system": system, "points": points, "seed": seed}

    def run_pass(self, inp: dict, span) -> Pass:
        units: Dict[str, float] = {}
        digest = _Digest()
        problems: List[str] = []
        totals = {"offered": 0, "served": 0, "shed": 0, "abandoned": 0, "in_qos": 0}
        failed = 0
        p99: Dict[str, Dict[float, float]] = {}
        energy_per_req: Dict[str, float] = {}
        for app, spaces, rps, arrivals in inp["points"]:
            label = f"{app.name}@{rps:g}rps"
            try:
                result = _timed(
                    units,
                    f"serve/{label}",
                    rt.run_simulation,
                    inp["system"],
                    app,
                    spaces,
                    arrivals,
                    seed=inp["seed"],
                )
            except Exception:
                totals["offered"] += len(arrivals)
                failed += len(arrivals)
                problems.append(_raised(label))
                continue
            counts, bad = _request_accounting(label, arrivals, result.requests, app.qos_ms)
            tail = result.p99_ms
            if not math.isfinite(tail):
                bad.append(f"{label}: p99 is not finite")
            problems += bad
            for key in totals:
                totals[key] += counts[key]
            failed += counts["offered"] if bad else counts["offered"] - counts["served"]
            p99.setdefault(app.name, {})[rps] = tail
            if rps == SERVE_REFERENCE_RPS:
                energy_per_req[app.name] = result.energy_j / counts["offered"]
            digest.text(label)
            digest.floats([r.latency_ms for r in result.requests])
            digest.floats(result.power_bins_w)
        qos = {app.name: app.qos_ms for app, _, _, _ in inp["points"]}
        knees = {
            name: rt.max_throughput_under_qos(
                list(curve), list(curve.values()), qos[name]
            )
            for name, curve in p99.items()
        }
        summary = dict(totals)
        summary.update(
            {
                "serve_in_slo_frac": totals["in_qos"] / totals["offered"],
                "serve_knee_rps": geomean(list(knees.values())),
                "serve_p99_ms": geomean(
                    [c[SERVE_REFERENCE_RPS] for c in p99.values() if SERVE_REFERENCE_RPS in c]
                ),
                "serve_energy_j_per_req": geomean(list(energy_per_req.values())),
            }
        )
        summary.update({f"knee_rps.{k}": v for k, v in knees.items()})
        return Pass(
            units=units,
            summary=summary,
            digest=digest.hexdigest(),
            attempted=totals["offered"],
            failed=failed,
            problems=problems,
            layer_counts={"runtime.requests": totals["offered"]},
        )

    def check_pass(self, inp: dict, p: Pass) -> None:
        if p.summary["shed"] or p.summary["abandoned"]:
            p.problems.append("fault-free serve run shed or abandoned requests")

    @staticmethod
    def end_to_end(passes: List[Pass], times: Dict[str, float]) -> Dict[str, float]:
        first = passes[0].summary
        return {
            "serve_req_per_s": first["offered"] / sum(times.values()),
            "sim_quality": first["serve_in_slo_frac"],
            "serve_in_slo_frac": first["serve_in_slo_frac"],
            "serve_knee_rps": first["serve_knee_rps"],
            "serve_p99_ms": first["serve_p99_ms"],
            "serve_energy_j_per_req": first["serve_energy_j_per_req"],
        }


# ---------------------------------------------------------------------------
# fleet_chaos: autoscaled fleet under device faults, traced and sampled
# ---------------------------------------------------------------------------

#: Peak offered load as a multiple of one node's estimated capacity.
FLEET_PEAK_FACTOR = 2.5
#: Per-device mean time between failures / to repair (simulated ms).
FLEET_MTBF_MS = 60_000.0
FLEET_MTTR_MS = 5_000.0
#: Head-sampling keep probability of the exported trace.
FLEET_HEAD_RATE = 0.1
#: Launches that get a fault schedule (``node0``..): more than a replay
#: makes, so every node the autoscaler launches runs under faults.
FLEET_FAULTED_LAUNCHES = 64
#: The diurnal trace shape (the ``repro cluster`` default trace seed).
FLEET_TRACE_SEED = 2011


class FleetChaos:
    """``ClusterSimulation.run`` over a compressed 24 h diurnal trace
    with device faults on every node the autoscaler can launch, node
    tracing on, then the ``repro cluster --trace`` / ``repro obs
    --report`` post-processing: materialize, SLO rollups, sampling and a
    Perfetto export."""

    name = "fleet_chaos"

    def __init__(self, scale: Scale = FULL) -> None:
        self.scale = scale
        self.config = cl.AutoscalerConfig(min_nodes=1, max_nodes=8)

    def setup(self, seed: int) -> dict:
        system = rt.setting("I", "Heter-Poly")
        trace = rt.synthesize_google_trace(
            hours=self.scale.fleet_hours, seed=FLEET_TRACE_SEED
        )
        interval_ms = trace.interval_s * 1000.0 / self.scale.fleet_compress
        horizon_ms = len(trace.utilization) * interval_ms
        devices = [device_id for device_id, _ in system.device_inventory()]
        hw.clear_model_cache()
        replays = []
        for a, name in enumerate(self.scale.fleet_apps):
            app = apps_mod.build(name)
            spaces = app.explore(system.platforms)
            probe = rt.LeafNode(system, app, spaces, seed=0)
            probe.maybe_replan(0.0)
            peak_rps = FLEET_PEAK_FACTOR * probe.capacity_estimate_rps()
            arrivals = rt.ArrivalSpec.trace(
                trace.utilization, interval_ms, peak_rps
            ).generate(np.random.default_rng((seed, a)))
            schedules = {
                f"node{i}": fl.FaultSchedule.from_mtbf(
                    devices,
                    horizon_ms,
                    FLEET_MTBF_MS,
                    FLEET_MTTR_MS,
                    seed=int(np.random.SeedSequence((seed, a, i)).generate_state(1)[0]),
                )
                for i in range(FLEET_FAULTED_LAUNCHES)
            }
            replays.append((app, spaces, arrivals, schedules))
        return {
            "system": system,
            "replays": replays,
            "horizon_ms": horizon_ms,
            "seed": seed,
        }

    def run_pass(self, inp: dict, span) -> Pass:
        units: Dict[str, float] = {}
        digest = _Digest()
        problems: List[str] = []
        totals = {"offered": 0, "served": 0, "shed": 0, "abandoned": 0, "in_qos": 0}
        layer = {
            "runtime.requests": 0,
            "cluster.launches": 0,
            "cluster.terminations": 0,
            "cluster.mean_fleet": 0.0,
            "obs.events": 0,
            "obs.sampled_events": 0,
        }
        failed = 0
        p99s, efficiency = [], []
        seed = inp["seed"]
        OUT_DIR.mkdir(exist_ok=True)
        for app, spaces, arrivals, schedules in inp["replays"]:
            label = f"{app.name} fleet"
            tracer = obs.SpanTracer()
            sampler = obs.SamplingPolicy(
                head_rate=FLEET_HEAD_RATE, seed=seed, tail_qos_ms=app.qos_ms
            )
            sim = cl.ClusterSimulation(
                inp["system"],
                app,
                spaces,
                config=self.config,
                seed=seed,
                tracer=tracer,
                trace_nodes=True,
                sampler=sampler,
                fault_schedules=schedules,
            )
            # The admission gates `repro cluster` runs: RT007 on the
            # autoscaler config, OBS002 on the traced fleet.
            for target in (self.config, sim):
                gate = lint.run_lint(target, lint.LintContext())
                if not gate.ok:
                    problems.append(f"{label}: lint gate failed: {gate}")
            try:
                result = _timed(
                    units, f"replay/{app.name}", sim.run, arrivals,
                    horizon_ms=inp["horizon_ms"],
                )
                with _timing(units, f"post/{app.name}"):
                    store = obs.TimeSeriesStore()
                    obs.feed_cluster_result(store, result)
                    obs.evaluate_slos(
                        store,
                        obs.default_slos(app.qos_ms, store.window_ms),
                        tracer=tracer,
                    )
                    with span("obs.events_materialize"):
                        events = tracer.events
                    sampled = obs.sample_events(events, sampler)
                    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                        obs.write_perfetto_json(
                            sampled.events, Path(tmp) / "trace.sampled.perfetto.json"
                        )
            except Exception:
                totals["offered"] += len(arrivals)
                failed += len(arrivals)
                problems.append(_raised(label))
                continue

            counts, bad = _request_accounting(label, arrivals, result.requests, app.qos_ms)
            tail = result.p99_ms
            if not math.isfinite(tail):
                bad.append(f"{label}: p99 is not finite")
            problems += bad
            for key in totals:
                totals[key] += counts[key]
            failed += counts["offered"] if bad else counts["offered"] - counts["served"]
            p99s.append(tail)
            efficiency.append(result.cost_efficiency())
            layer["runtime.requests"] += counts["offered"]
            if len(result.nodes) > FLEET_FAULTED_LAUNCHES:
                problems.append(f"{label}: launched nodes without a fault schedule")
            layer["cluster.launches"] += result.launches
            layer["cluster.terminations"] += result.terminations
            layer["cluster.mean_fleet"] += result.mean_fleet_size / len(inp["replays"])
            layer["obs.events"] += len(events)
            layer["obs.sampled_events"] += len(sampled.events)
            digest.text(label)
            digest.floats([r.latency_ms for r in result.requests])
            digest.text(",".join(result.node_ids))
            digest.floats(result.power_bins_w)
            digest.text(repr([(e.t_ms, e.action, e.node_id) for e in result.timeline]))
            del tracer, events, sampled, result, sim
        offered = totals["offered"]
        summary = dict(totals)
        summary.update(
            {
                "fleet_p99_ms": geomean(p99s),
                "fleet_in_slo_frac": totals["in_qos"] / offered,
                "fleet_availability": totals["served"] / offered,
                "fleet_cost_efficiency": geomean(efficiency),
            }
        )
        return Pass(
            units=units,
            summary=summary,
            digest=digest.hexdigest(),
            attempted=offered,
            failed=failed,
            problems=problems,
            layer_counts=layer,
        )

    def check_pass(self, inp: dict, p: Pass) -> None:
        return None

    @staticmethod
    def end_to_end(passes: List[Pass], times: Dict[str, float]) -> Dict[str, float]:
        first = passes[0].summary
        return {
            "fleet_req_per_s": first["offered"] / sum(times.values()),
            "sim_quality": first["fleet_in_slo_frac"],
            "fleet_p99_ms": first["fleet_p99_ms"],
            "fleet_in_slo_frac": first["fleet_in_slo_frac"],
            "fleet_availability": first["fleet_availability"],
            "fleet_cost_efficiency": first["fleet_cost_efficiency"],
        }


WORKLOADS = {w.name: w for w in (DSE, Serve, FleetChaos)}

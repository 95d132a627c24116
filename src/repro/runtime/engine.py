"""The simulation engine: compiled dispatch programs over sorted streams.

The simulator's original inner loop dispatched every request through
``LeafNode.submit`` — a per-request tower of method calls, dict plumbing
and dataclass construction.  This module replaces that loop with a
chunked replay through an incremental-EST fast path:

* **One drive path.** A run has only sorted timed inputs — the arrival
  stream and, in the cluster driver, the autoscaler's evaluation grid —
  so driving it is a plain sorted merge, not a priority queue.
  :meth:`EventHeapEngine.run` feeds the stream to the dispatch program
  in ``ARRIVAL_CHUNK`` slices; the cluster driver routes the arrivals
  below each evaluation bound through :meth:`EventHeapEngine.process`
  and then evaluates.  Time never goes backwards: a chunk or ``process``
  call whose first timestamp precedes the last admitted one raises.

* **Incremental EST tables.** Per plan, the engine compiles each
  kernel's dispatch entries once — batch-1..``MAX_GPU_BATCH`` latency/
  power ladders, device rows with integer tie-break ranks, PCIe
  transfer costs per DAG edge — and keeps earliest-start state (device
  horizons, open GPU batches, loaded FPGA bitstreams) updated at
  reservation commit instead of recomputing per request.  Device
  horizons stay write-through on the :class:`AcceleratorInstance`, so
  external readers (cluster dispatcher queue depths, the load signal)
  always see fresh state.

* **The bit-identity contract.** Seeded runs are float-identical to the
  per-request reference path (``LeafNode.submit`` →
  ``_execute_kernel``/``_allocate``): the generated program replays
  its decisions and float expressions (same finish estimates, same
  device-id tie-breaks, same overflow rule), draws noise from the
  node's shared buffered log-normal stream (numpy's vectorized draws
  match scalar draws bit-for-bit), and folds the monitor's EWMA
  correction inline with identical arithmetic.

* **One device state.** The program and ``LeafNode``'s per-request
  methods act on the same objects: each device's row store and its
  open GPU batch cells (``AcceleratorInstance._rows``/
  ``_open_batches``), its horizon and loaded bitstream, and the node's
  noise buffer and cursor.  Either path can therefore take over at any
  request once the engine has synced its inlined state (monitor
  buffers, EWMA correction, noise cursor, request cursor, deferred
  heartbeats) onto the node.

* **Native fault handling.** A fault-injected node runs on the program
  too; a request goes to the per-request path (a *handover*) only where
  a fault can reach it.  The fault schedule is one more sorted input:
  the first arrival at or after each state-changing schedule event, and
  the arrival at which a lapsed heartbeat is detected, go through
  ``LeafNode.submit`` (which applies the event, detects, quarantines and
  replans).  Between those cut points device health is constant, so the
  heartbeats of every natively served arrival are one batch write at
  the next sync.  While a device is quarantined, arrivals with a
  priority below ``FailoverPlanner.MAX_SHED`` go through ``submit``
  (they may be shed); a plan the program cannot compile hands its
  requests over from their first kernel.  Inside the program,
  fault-injected nodes carry a per-device guard: a dispatch whose end
  reaches the device's fault horizon
  (``FaultInjector.fault_horizon_ms``) and that the injector's own test
  (``execution_lost``) says is lost returns before committing that
  kernel or consuming its noise draw, and ``LeafNode`` finishes the
  request from that kernel through the resilient retry path.  Guarded
  programs also scale each noise draw by the device's slowdown, as
  ``_execute_kernel`` does.  Fault-free nodes get no guard, so their
  program source is unchanged.

* **Native tracing.** An enabled tracer does not force handovers: the
  engine swaps a :class:`_BufferTracer` onto the node, its scheduler,
  injector and failover planner for the run's lifetime, the compiled
  dispatch program appends compact per-request tuples (admit / kernel
  dispatch / complete) next to the buffered control-plane and fault-path
  emissions, and every chunk flushes the buffer to the real tracer in
  ``LeafNode.submit``'s emission order — so traced seeded runs produce
  byte-identical span streams to the per-request path.

Checked-in golden digests (``tests/test_golden_digests.py``) hold the
engine and the per-request path (``LeafNode.submit`` driven by hand per
arrival) to the same floats on seeded fault-free, plan-cached, chaos
and traced runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..faults.failover import FailoverPlanner
from ..faults.policy import DeviceHealth
from ..hardware.specs import DeviceType
from .node import (
    MAX_GPU_BATCH,
    NOISE_BLOCK,
    NOISE_SIGMA,
    LeafNode,
    RequestRecord,
)

__all__ = ["EventHeapEngine"]

#: Arrivals are admitted in slices of this size: each slice is one call
#: into the dispatch program per replan segment, amortizing the
#: per-call state sync over many requests.
ARRIVAL_CHUNK = 1024

#: Process-wide cache of compiled dispatch-program code objects, keyed
#: by generated source (identical plans on identical node configs
#: generate identical source; the population is one entry per distinct
#: plan shape, so the cache stays small).
_CODE_CACHE: Dict[str, object] = {}

#: Priorities at or above this are never shed (the planner caps its
#: shed level here), so they run natively while a device is quarantined.
_NEVER_SHED = FailoverPlanner.MAX_SHED


# Compiled dispatch-entry field layout (tuples, not dataclasses: the
# inner loop indexes them):
#   entry = (rows, lat1, impl_key, is_gpu, overflow_ms, power1,
#            lats, pows, point_index, kernel_name, fill)
# where lats/pows are 1-indexed per-batch ladders (GPU, lazily filled
# through ``fill`` — 0.0 marks an unfilled cell, latencies are always
# positive) or None (FPGA), and each device row is the mutable list
#   row = [device, open_batches, execution_rows, rank, reconfig_ms]
# holding the device's own stores (``AcceleratorInstance._open_batches``
# with cells [launch_ms, end_ms, size, row_ref, noise], and
# ``AcceleratorInstance._rows``).  Rows are rank-sorted, so a pool scan
# needs only a strict ``<`` — the first minimum seen is the
# lowest-ranked one.


class _BufferTracer:
    """Tracer stand-in the engine swaps onto the node (and its
    scheduler, injector and failover planner) for the lifetime of a
    traced run.

    Control-plane and fault-path emissions — replans, scheduler
    placements, monitor snapshots, handed-over requests — land in the
    engine's trace buffer as passthrough records, interleaved with the
    compact per-request tuples the dispatch program appends, so
    :meth:`EventHeapEngine._flush_trace` can replay the whole stream to
    the real tracer in ``LeafNode.submit``'s emission order.  Timestamps
    resolve at emit time (``now_ms`` is mutable and advanced by
    ``maybe_replan`` exactly as on a real tracer)."""

    __slots__ = ("_append", "now_ms")

    enabled = True

    def __init__(self, buffer: list) -> None:
        self._append = buffer.append
        self.now_ms = 0.0

    def emit(
        self,
        kind: str,
        name: str = "",
        t_ms: Optional[float] = None,
        dur_ms: Optional[float] = None,
        **args: Any,
    ) -> None:
        self._append(
            (0, kind, name, self.now_ms if t_ms is None else t_ms, dur_ms, args)
        )


def _make_fill(node, platform, name, point, lats, pows):
    """Lazy GPU-ladder cell fill: evaluates the hardware model for one
    batch size on first use (exactly the sizes the per-request path's
    ``_latency_fn`` cache would see) and memoizes it in the ladder."""

    def fill(size: int) -> float:
        lat, power = node._latency_of_platform(platform, name, point, size)
        lats[size] = lat
        pows[size] = power
        return lat

    return fill


class EventHeapEngine:
    """Compiled replay of one :class:`LeafNode`'s request stream.

    ``run`` drives a whole sorted stream; ``process`` admits a single
    arrival (the cluster driver's per-route entry point).  Call
    :meth:`finalize` once after the last arrival to flush the inlined
    monitor state and the noise-buffer cursor back onto the node.

    A node with a fault injector runs natively as well: the engine hands
    a request to ``LeafNode`` only where a fault can reach it (the
    module docstring gives the rule), and :attr:`handovers` counts those
    requests.  An enabled tracer also runs natively: emissions buffer as
    compact tuples and flush per chunk in ``LeafNode.submit``'s order,
    byte-identical to the per-request stream (golden-tested).
    """

    def __init__(self, node: LeafNode) -> None:
        self._node = node
        self._traced = node.tracer.enabled
        #: The node's fault injector; None compiles unguarded programs
        #: and never hands a request over.
        self._inj = node._injector

        mon = node.monitor
        self._corr = mon._correction
        self._alpha = mon.ewma_alpha
        self._corr_lo, self._corr_hi = mon.correction_bounds
        self._window = mon.window
        self._arr: List[float] = []
        self._lats: List[float] = []

        #: The node's buffered noise draws and cursor (one stream).
        self._nbuf: List[float] = node._noise_buf
        self._npos = node._noise_pos

        self._req_arr: List[float] = []
        self._req_comp: List[float] = []
        self._req_pred: List[float] = []
        #: Full records of handed-over requests (retries, shed, failed
        #: flags), by request index.
        self._handed: Dict[int, RequestRecord] = {}
        self._max_comp = 0.0

        #: Devices in device-id order; a device's index is its integer
        #: tie-break rank — isomorphic to the per-request path's string
        #: comparisons (ids are unique).
        self._by_rank = sorted(node.devices, key=lambda d: d.device_id)
        self._ranks = {d.device_id: i for i, d in enumerate(self._by_rank)}
        self._rows: Dict[int, list] = {}
        self._compiled: Dict[int, tuple] = {}
        #: Compiled dispatch program for the current plan (None: no plan
        #: the program can serve).
        self._fn: Any = None
        self._plan_ok = False
        self._win = 0.0
        self._makespan = 0.0
        self._last_replan = node._last_replan_ms

        order = node._topo_order
        self._kindex = {name: i for i, name in enumerate(order)}
        self._ends_t = [0.0] * len(order)
        self._ends_dev: List[object] = [None] * len(order)
        self._sinks = tuple(self._kindex[s] for s in node._sinks)
        self._finalized = False

        #: Fault state of guarded programs, refreshed at every handover:
        #: per-rank fault horizons (read by the program's guards), the
        #: next cut time (schedule event or heartbeat detection; None
        #: until the first arrival), whether any device is quarantined,
        #: and the last natively served arrival whose heartbeats are not
        #: yet written.
        self._guards = [float("inf")] * len(self._by_rank)
        self._cut: Optional[float] = None
        self._quarantined = False
        self._beat_ms: Optional[float] = None

        #: Timestamp of the last admitted arrival (the ordering guard).
        self._last_t: Optional[float] = None
        #: Native-tracing state: the trace buffer, the request-sequence
        #: cursor adopted from the node, and the (object, real tracer)
        #: pairs the buffer tracer replaces until :meth:`finalize`.
        self._tb: list = []
        self._rq = node._req_seq
        self._swapped: List[Tuple[object, object]] = []
        if self._traced:
            self._tracer = node.tracer
            owners = [node]
            if hasattr(node._scheduler, "tracer"):
                owners.append(node._scheduler)
            if self._inj is not None:
                owners += [
                    o
                    for o in (self._inj, self._inj.planner)
                    if o.tracer is self._tracer
                ]
            buffer_tracer = _BufferTracer(self._tb)
            for owner in owners:
                self._swapped.append((owner, owner.tracer))
                owner.tracer = buffer_tracer

    # -- driving --------------------------------------------------------------

    def run(
        self,
        ordered: Sequence[float],
        priorities: Optional[Sequence[float]] = None,
    ) -> List[RequestRecord]:
        """Replay a sorted arrival stream (in ``ARRIVAL_CHUNK`` slices)
        and return its request records."""
        for i in range(0, len(ordered), ARRIVAL_CHUNK):
            prios = (
                None if priorities is None else priorities[i : i + ARRIVAL_CHUNK]
            )
            self._process_chunk(ordered[i : i + ARRIVAL_CHUNK], prios)
        self.finalize()
        return self.records()

    def process(self, t_ms: float, priority: float = 1.0) -> RequestRecord:
        """Admit one arrival (the cluster driver's entry point)."""
        self._process_chunk((t_ms,), (priority,))
        k = len(self._req_comp) - 1
        handed = self._handed.get(k)
        if handed is not None:
            return handed
        return RequestRecord(self._req_arr[k], self._req_comp[k], self._req_pred[k])

    def records(self) -> List[RequestRecord]:
        """Materialize the per-request records."""
        out = [
            RequestRecord(a, c, p)
            for a, c, p in zip(self._req_arr, self._req_comp, self._req_pred)
        ]
        for k, record in self._handed.items():
            out[k] = record
        return out

    @property
    def handovers(self) -> int:
        """Requests realized (whole or from some kernel on) by
        ``LeafNode``'s per-request path instead of the program."""
        return len(self._handed)

    def finalize(self) -> None:
        """Sync the inlined state onto the node (:meth:`_sync_out`) —
        after this the node is indistinguishable from one that ran the
        per-request path.  Traced runs additionally flush the trace
        buffer and restore the real tracers."""
        if self._finalized:
            return
        self._sync_out()
        if self._traced:
            self._flush_trace()
            for owner, tracer in self._swapped:
                owner.tracer = tracer
            self._swapped.clear()
        self._finalized = True

    def _flush_trace(self) -> None:
        """Replay the trace buffer to the real tracer.

        The buffered tuples use :class:`~repro.obs.tracer.SpanTracer`'s
        raw-record format (tags 1-3 for the per-request lifecycle, tag 0
        for control-plane emissions already resolved by the buffer
        tracer), so the flush is a single ``extend`` onto the tracer's
        staging list — the events materialize lazily at read time into
        exactly what ``LeafNode.submit`` would have emitted: same names,
        rounded fields and emission order.
        """
        tr = self._tracer
        if self._last_t is not None:
            tr.now_ms = self._last_t
        if self._tb:
            tr._raw.extend(self._tb)
            self._tb.clear()

    # -- plan compilation ------------------------------------------------------

    def _row(self, dev) -> list:
        row = self._rows.get(id(dev))
        if row is None:
            row = [
                dev,
                dev._open_batches,
                dev._rows,
                self._ranks[dev.device_id],
                dev.reconfig_ms,
            ]
            self._rows[id(dev)] = row
        return row

    def _compile(self, plan) -> list:
        """Compile the active plan into per-kernel dispatch steps.

        Same sources as ``LeafNode._allocate`` (the plan's platforms in
        preference order, live platform pools, the shared latency
        cache), with the constant parts resolved once per plan: batch-1
        latency/power, overflow thresholds, a lazily filled per-batch
        GPU ladder so joins never call back into the model, and
        predecessor/transfer indices as integers.
        """
        node = self._node
        live = node._live_by_platform()
        kindex = self._kindex
        steps = []
        for ki, name in enumerate(node._topo_order):
            per_platform = plan.get(name)
            entries = []
            if per_platform:
                for platform, point in per_platform.items():
                    devs = live.get(platform)
                    if not devs:
                        continue
                    lat1, power1 = node._latency_of_platform(
                        platform, name, point, 1
                    )
                    is_gpu = devs[0].device_type == DeviceType.GPU
                    fill = None
                    if is_gpu:
                        # Lazy ladder: only batch-1 up front, higher
                        # sizes filled on first join — the same model
                        # evaluations, in the same order, as the
                        # per-request path's ``_latency_fn`` cache.
                        lats = [0.0] * (MAX_GPU_BATCH + 1)
                        pows = [0.0] * (MAX_GPU_BATCH + 1)
                        lats[1], pows[1] = lat1, power1
                        fill = _make_fill(
                            node, platform, name, point, lats, pows
                        )
                    else:
                        lats = pows = None
                    rows = sorted(
                        (self._row(d) for d in devs),
                        key=lambda r: r[3],
                    )
                    entries.append(
                        (
                            rows,
                            lat1,
                            (name, point.index),
                            is_gpu,
                            node._OVERFLOW_FACTOR * point.latency_ms,
                            power1,
                            lats,
                            pows,
                            point.index,
                            name,
                            fill,
                        )
                    )
            if not entries:
                raise RuntimeError(f"kernel {name!r} has no planned platform")
            preds = tuple(
                (kindex[p], node._xfer_ms[(p, name)])
                for p in node._preds[name]
            )
            steps.append((ki, entries, preds))
        return steps

    def _sync_plan(self, t_ms: float) -> None:
        """Replan through the node (same signal path, same state
        mutations) and adopt whichever plan is now active."""
        self._node.maybe_replan(t_ms)
        self._adopt_plan()

    def _adopt_plan(self) -> None:
        """Point the fast loop at the compiled program for the node's
        active plan (compiling it on first sight).  On a fault-injected
        node a plan the program cannot serve — a total blackout, or a
        kernel whose planned platforms all died — leaves ``_fn`` None,
        and its requests are handed over from their first kernel."""
        node = self._node
        plan = node._plan
        self._plan_ok = bool(plan)
        self._last_replan = node._last_replan_ms
        self._makespan = node._plan_makespan_ms
        self._win = node._batch_window_ms()
        self._fn = None
        if not plan:
            return
        cached = self._compiled.get(id(plan))
        if cached is None or cached[0] is not plan:
            try:
                steps = self._compile(plan)
            except RuntimeError:
                if self._inj is None:
                    raise
                cached = (plan, None)
            else:
                cached = (
                    plan,
                    self._codegen(steps, self._traced, self._inj is not None),
                )
            self._compiled[id(plan)] = cached
        self._fn = cached[1]

    # -- dispatch-program generation -------------------------------------------

    def _codegen(self, steps, traced: bool = False, guarded: bool = False):
        """Specialize the compiled tables into one straight-line chunk
        runner for this plan.

        The generated function unrolls every kernel step: pool scans
        become rank-ordered straight-line comparisons (strict ``<`` —
        the rows are rank-sorted, so the first minimum is the
        tie-break winner), per-entry constants (batch-1 latencies,
        impl keys, PCIe transfer costs, overflow thresholds) are baked
        in as literals or bound objects, and device horizons / loaded
        bitstreams / DAG end times live in plain locals, synced back to
        the authoritative objects when the runner returns — at every
        replan boundary and chunk end, so external readers (the replan
        signal path, the cluster dispatcher) always observe fresh
        state.  Float expressions are those of
        ``LeafNode._allocate``/``AcceleratorInstance.dispatch``, so the
        program stays bit-identical to the per-request path (pinned by
        the golden digests).

        Returns a function
        ``run(chunk, i, t_limit, win, mk, corr, npos, nbuf, max_comp)``
        that admits ``chunk[i:]`` until a timestamp reaches ``t_limit``
        (the next replan boundary) and returns the updated cursor and
        carried state.

        With ``traced`` the runner takes three extra parameters —
        ``rq`` (the request-sequence cursor), ``sk`` (1 when the chunk
        driver already emitted the admit for the first request, i.e.
        the one that triggered a replan) and ``pr`` (the chunk-aligned
        priority sequence, or None) — appends compact admit / dispatch
        / complete tuples to the engine's trace buffer at the same
        program points ``LeafNode.submit`` emits, and returns ``rq``.
        The traced variant generates different source, so it lands in
        its own ``_CODE_CACHE`` entry.

        With ``guarded`` (fault-injected nodes) the runner takes the
        stop index ``n`` as its third parameter, reads each device's
        fault horizon from ``self._guards`` and its slowdown from the
        device, and returns one more value, ``hk``: -1, or the
        topological index of the kernel it stopped at — a dispatch whose
        ``end`` reaches its device's horizon and that the injector's
        ``execution_lost`` test fails returns before committing that
        kernel or consuming its noise draw, leaving the request (already
        admitted, ``i`` past it) for ``LeafNode`` to finish from kernel
        ``hk``.
        """
        node = self._node
        consts: list = []
        bound: List[str] = []

        def bind(value, base: str) -> str:
            name = f"{base}{len(consts)}"
            consts.append(value)
            bound.append(name)
            return name

        # One local slot per device the plan touches: h<d> horizon,
        # l<d> loaded bitstream (FPGA pools only).
        dev_slot: Dict[int, int] = {}
        dev_name: List[str] = []
        dev_fpga: List[bool] = []
        dev_row: List[list] = []
        ename: Dict[int, Dict[str, str]] = {}
        for _ki, entries, _preds in steps:
            for entry in entries:
                for row in entry[0]:
                    key = id(row[0])
                    if key not in dev_slot:
                        dev_slot[key] = len(dev_name)
                        dev_name.append(bind(row[0], "D"))
                        dev_fpga.append(not entry[3])
                        dev_row.append(row)
                    elif not entry[3]:
                        dev_fpga[dev_slot[key]] = True
                names = ename.setdefault(id(entry), {})
                if not names:
                    names["K"] = bind(entry[2], "K")
                    names["N"] = bind(entry[9], "N")
                    if entry[3]:
                        names["LT"] = bind(entry[6], "LT")
                        names["PW"] = bind(entry[7], "PW")
                        names["FL"] = bind(entry[10], "FL")
        ra_name = {
            id(row[0]): bind(row[2].append, "RA") for row in dev_row
        }
        bd_name = {id(row[0]): bind(row[1], "BD") for row in dev_row}

        ET = bind(self._ends_t, "ET")
        ED = bind(self._ends_dev, "ED")
        LATA = bind(self._lats.append, "LATA")
        RCA = bind(self._req_comp.append, "RCA")
        RPA = bind(self._req_pred.append, "RPA")
        LN = bind(node._rng.lognormal, "LN")
        TB = bind(self._tb.append, "TB") if traced else ""
        GD = bind(self._guards, "GD") if guarded else ""
        FX = bind(self._inj.execution_lost, "FX") if guarded else ""
        sigma = repr(NOISE_SIGMA)
        block = repr(int(NOISE_BLOCK))
        maxb = repr(int(MAX_GPU_BATCH))
        alpha = repr(self._alpha)
        clo = repr(self._corr_lo)
        chi = repr(self._corr_hi)

        out: List[str] = []
        emit = out.append

        def scan_code(
            pad: str, entry, row, f_var: str, br: str = "br"
        ) -> None:
            """Finish-time estimate for one device row (the expressions
            of ``AcceleratorInstance.estimate_finish``)."""
            nm = ename[id(entry)]
            di = dev_slot[id(row[0])]
            h = f"h{di}"
            if entry[3]:
                bd = bd_name[id(row[0])]
                emit(f"{pad}b = {bd}.get({nm['K']})")
                emit(
                    f"{pad}if b is not None and b[0] >= {br} "
                    f"and b[2] < {maxb}:"
                )
                emit(f"{pad}    lv = {nm['LT']}[b[2] + 1]")
                emit(f"{pad}    if lv == 0.0:")
                emit(f"{pad}        lv = {nm['FL']}(b[2] + 1)")
                emit(f"{pad}    {f_var} = b[0] + lv")
                emit(f"{pad}else:")
                emit(
                    f"{pad}    {f_var} = ({h} if {h} > {br} else {br})"
                    f" + {entry[1]!r}"
                )
            else:
                li = f"l{di}"
                emit(f"{pad}s = {h} if {h} > {br} else {br}")
                emit(f"{pad}if {li} is not None and {li} != {nm['K']}:")
                emit(f"{pad}    s += {row[4]!r}")
                emit(f"{pad}{f_var} = s + {entry[1]!r}")

        def dispatch_code(pad: str, ki: int, entry, row, preds) -> None:
            """Reservation commit on the winning (entry, device)."""
            nm = ename[id(entry)]
            di = dev_slot[id(row[0])]
            dn = dev_name[di]
            h = f"h{di}"

            dev_id = row[0].device_id
            # Guarded programs scale the draw by the device's slowdown
            # (``_execute_kernel``'s ``noise *= slowdown``; x * 1.0 == x).
            nz = "nz" if guarded else "noise"
            if guarded:
                emit(f"{pad}nz = noise * s{di}")

            def guard(gpad: str, start: str) -> None:
                # Stop before the commit when a fault reaches it: the
                # horizon test filters, the injector's own test decides.
                if guarded:
                    emit(
                        f"{gpad}if end >= g{di} and "
                        f"{FX}({dev_id!r}, {start}, end):"
                    )
                    emit(f"{gpad}    hk = {ki}")
                    emit(f"{gpad}    break")
            if not preds:
                emit(f"{pad}ready = t")
            else:
                j0, x0 = preds[0]
                emit(
                    f"{pad}p = e{j0} if d{j0} is {dn} "
                    f"else e{j0} + {x0!r}"
                )
                emit(f"{pad}ready = p if p > t else t")
                for j, x in preds[1:]:
                    emit(
                        f"{pad}p = e{j} if d{j} is {dn} "
                        f"else e{j} + {x!r}"
                    )
                    emit(f"{pad}if p > ready: ready = p")
            if entry[3]:
                bd = bd_name[id(row[0])]
                emit(f"{pad}b = {bd}.get({nm['K']})")
                emit(
                    f"{pad}if b is not None and b[0] >= ready "
                    f"and b[2] < {maxb}:"
                )
                if guarded:
                    emit(f"{pad}    sz = b[2] + 1")
                    emit(f"{pad}    lv = {nm['LT']}[sz]")
                    emit(f"{pad}    if lv == 0.0:")
                    emit(f"{pad}        lv = {nm['FL']}(sz)")
                    emit(f"{pad}    end = b[0] + lv * b[4]")
                    guard(pad + "    ", "b[0]")
                    emit(f"{pad}    oe = b[1]")
                    emit(f"{pad}    b[2] = sz")
                else:
                    emit(f"{pad}    oe = b[1]")
                    emit(f"{pad}    sz = b[2] + 1")
                    emit(f"{pad}    b[2] = sz")
                    emit(f"{pad}    lv = {nm['LT']}[sz]")
                    emit(f"{pad}    if lv == 0.0:")
                    emit(f"{pad}        lv = {nm['FL']}(sz)")
                    emit(f"{pad}    end = b[0] + lv * b[4]")
                emit(f"{pad}    b[1] = end")
                emit(f"{pad}    rec = b[3]")
                emit(f"{pad}    rec[3] = end")
                emit(f"{pad}    rec[4] = {nm['PW']}[sz]")
                emit(f"{pad}    rec[5] = sz")
                emit(f"{pad}    hh = {h} + (end - oe)")
                emit(f"{pad}    {h} = hh if hh > end else end")
                if traced:
                    emit(
                        f"{pad}    {TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, b[0], end))"
                    )
                emit(f"{pad}else:")
                emit(f"{pad}    rw = ready + win")
                emit(f"{pad}    la = {h} if {h} > rw else rw")
                emit(f"{pad}    end = la + {entry[1]!r} * {nz}")
                guard(pad + "    ", "la")
                emit(
                    f"{pad}    rec = [{nm['N']}, {entry[8]!r}, la, end, "
                    f"{entry[5]!r}, 1]"
                )
                emit(f"{pad}    {ra_name[id(row[0])]}(rec)")
                emit(f"{pad}    {h} = end")
                emit(f"{pad}    {bd}[{nm['K']}] = [la, end, 1, rec, {nz}]")
                if traced:
                    emit(
                        f"{pad}    {TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, la, end))"
                    )
            else:
                li = f"l{di}"
                emit(f"{pad}st = {h} if {h} > ready else ready")
                emit(f"{pad}if {li} is not None and {li} != {nm['K']}:")
                emit(f"{pad}    st += {row[4]!r}")
                if guarded:
                    emit(f"{pad}end = st + {entry[1]!r} * nz")
                    guard(pad, "st")
                    emit(f"{pad}{li} = {nm['K']}")
                else:
                    emit(f"{pad}{li} = {nm['K']}")
                    emit(f"{pad}end = st + {entry[1]!r} * noise")
                emit(
                    f"{pad}{ra_name[id(row[0])]}(({nm['N']}, {entry[8]!r}, "
                    f"st, end, {entry[5]!r}, 1))"
                )
                emit(f"{pad}{h} = end")
                if traced:
                    emit(
                        f"{pad}{TB}((2, ready, rq, {entry[9]!r}, "
                        f"{dev_id!r}, {entry[8]!r}, st, end))"
                    )
            emit(f"{pad}e{ki} = end")
            emit(f"{pad}d{ki} = {dn}")

        params = ", ".join(
            f"{name}=_C[{idx}]" for idx, name in enumerate(bound)
        )
        emit("def _make(_C):")
        extra = " rq, sk, pr," if traced else ""
        stop = " n," if guarded else ""
        emit(
            f"    def _run(chunk, i,{stop} t_limit, win, mk, corr, npos, nbuf,"
            f" max_comp,{extra} {params}):"
        )
        if guarded:
            emit("        hk = -1")
        else:
            emit("        n = len(chunk)")
        emit("        nlen = len(nbuf)")
        for ki in range(len(steps)):
            emit(f"        e{ki} = {ET}[{ki}]")
            emit(f"        d{ki} = {ED}[{ki}]")
        for di, dn in enumerate(dev_name):
            emit(f"        h{di} = {dn}.horizon_ms")
            if dev_fpga[di]:
                emit(f"        l{di} = {dn}.loaded_impl")
            if guarded:
                emit(f"        g{di} = {GD}[{dev_row[di][3]}]")
                emit(f"        s{di} = {dn}.slowdown")
        emit("        while i < n:")
        emit("            t = chunk[i]")
        emit("            if t >= t_limit:")
        emit("                break")
        emit("            i += 1")
        if traced:
            # The admit event precedes everything the request does
            # (LeafNode.submit emits it first); the replan-triggering
            # request's admit was already emitted by the chunk driver.
            emit("            if sk:")
            emit("                sk = 0")
            emit("            else:")
            emit("                rq += 1")
            emit(
                f"                {TB}((1, t, rq, "
                "1.0 if pr is None else pr[i - 1]))"
            )

        pad = "            "
        for ki, entries, preds in steps:
            if preds:
                j0 = preds[0][0]
                emit(f"{pad}br = e{j0} if e{j0} > t else t")
                for j, _x in preds[1:]:
                    emit(f"{pad}if e{j} > br: br = e{j}")
            else:
                emit(f"{pad}br = t")

            primary = entries[0]
            branches = [
                (entry, row) for entry in entries for row in entry[0]
            ]
            single = len(branches) == 1
            has_alts = len(entries) > 1

            if not single:
                first = True
                bw = 0
                for row in primary[0]:
                    if first:
                        scan_code(pad, primary, row, "bf")
                        if has_alts:
                            emit(f"{pad}brk = {row[3]}")
                        emit(f"{pad}bw = 0")
                        first = False
                    else:
                        scan_code(pad, primary, row, "f")
                        emit(f"{pad}if f < bf:")
                        emit(f"{pad}    bf = f")
                        if has_alts:
                            emit(f"{pad}    brk = {row[3]}")
                        emit(f"{pad}    bw = {bw}")
                    bw += 1
                if has_alts:
                    emit(f"{pad}if bf - br > {primary[4]!r}:")
                    apad = pad + "    "
                    for alt in entries[1:]:
                        for row in alt[0]:
                            scan_code(apad, alt, row, "f")
                            emit(
                                f"{apad}if f < bf or "
                                f"(f == bf and {row[3]} < brk):"
                            )
                            emit(f"{apad}    bf = f")
                            emit(f"{apad}    brk = {row[3]}")
                            emit(f"{apad}    bw = {bw}")
                            bw += 1

            emit(f"{pad}if npos >= nlen:")
            emit(f"{pad}    nbuf = {LN}(0.0, {sigma}, {block}).tolist()")
            emit(f"{pad}    nlen = {block}")
            emit(f"{pad}    npos = 0")
            emit(f"{pad}noise = nbuf[npos]")
            if not guarded:
                emit(f"{pad}npos += 1")

            if single:
                dispatch_code(pad, ki, branches[0][0], branches[0][1], preds)
            else:
                for bw, (entry, row) in enumerate(branches):
                    if bw == 0:
                        emit(f"{pad}if bw == 0:")
                    else:
                        emit(f"{pad}elif bw == {bw}:")
                    dispatch_code(pad + "    ", ki, entry, row, preds)
            if guarded:
                # Consumed only once the kernel committed.
                emit(f"{pad}npos += 1")

        sinks = self._sinks
        emit(f"{pad}comp = e{sinks[0]}")
        for s in sinks[1:]:
            emit(f"{pad}if e{s} > comp: comp = e{s}")
        emit(f"{pad}if comp > max_comp:")
        emit(f"{pad}    max_comp = comp")
        emit(f"{pad}lat = comp - t")
        if traced:
            emit(f"{pad}{TB}((3, comp, rq, lat))")
        emit(f"{pad}{LATA}(lat)")
        emit(f"{pad}{RCA}(comp)")
        emit(f"{pad}{RPA}(mk)")
        emit(f"{pad}if mk > 0.0:")
        emit(f"{pad}    r = lat / mk")
        emit(f"{pad}    if r < {clo}:")
        emit(f"{pad}        r = {clo}")
        emit(f"{pad}    elif r > {chi}:")
        emit(f"{pad}        r = {chi}")
        emit(f"{pad}    corr += {alpha} * (r - corr)")

        for di, dn in enumerate(dev_name):
            emit(f"        {dn}.horizon_ms = h{di}")
            if dev_fpga[di]:
                emit(f"        {dn}.loaded_impl = l{di}")
        for ki in range(len(steps)):
            emit(f"        {ET}[{ki}] = e{ki}")
            emit(f"        {ED}[{ki}] = d{ki}")
        ret = "        return i, corr, npos, nbuf, max_comp"
        if traced:
            ret += ", rq"
        if guarded:
            ret += ", hk"
        emit(ret)
        emit("    return _run")

        src = "\n".join(out) + "\n"
        # Bytecode compilation dominates generation cost; the source is
        # deterministic for a given (plan, node config), so the code
        # object is shared process-wide (fresh engines re-bind their
        # own constants through ``_make``).
        code = _CODE_CACHE.get(src)
        if code is None:
            code = compile(src, "<dispatch-program>", "exec")
            _CODE_CACHE[src] = code
        namespace: Dict[str, object] = {"len": len}
        exec(code, namespace)
        return namespace["_make"](consts)

    # -- the fast path ---------------------------------------------------------

    def _flush_monitor(self) -> None:
        """Sync the inlined monitor state onto the node — before a traced
        replan (``monitor.snapshot`` inside ``maybe_replan`` must see
        exactly the arrivals/latencies/correction the per-request path
        would: every prior request completed, the triggering one not yet
        recorded) and before a handover.  ``clear()`` (never rebinding)
        keeps the compiled program's bound ``append`` methods valid."""
        mon = self._node.monitor
        mon._arrival_times.extend(self._arr)
        mon._latencies.extend(self._lats)
        mon._correction = self._corr
        self._arr.clear()
        self._lats.clear()

    def _process_chunk(
        self,
        chunk: Sequence[float],
        prios: Optional[Sequence[float]] = None,
    ) -> None:
        """Admit a sorted chunk of arrivals through the compiled
        dispatch program, one call per replan segment.

        Per kernel the program is float-expression-identical to
        ``LeafNode._execute_kernel``, with the monitor's bookkeeping
        inlined (EWMA correction folded sequentially; queue depth nets
        to zero per request; the sliding windows are rebuilt at
        finalize).  ``prios`` only changes floats through load shedding
        (fault-injected nodes hand low priorities over while a device is
        quarantined); traced admit events carry it.

        On a fault-injected node a segment also ends at the next cut
        (schedule event or heartbeat detection), at the next arrival
        that may be shed, and where the program's fault guard stops a
        request; each of those arrivals is handed over
        (:meth:`_handover`) and the segment loop goes on.

        Traced runs differ per segment, each step forced by
        ``LeafNode.submit``'s emission order: the admit of a
        replan-triggering request is emitted *before* the replan's own
        buffered emissions (``sk=1`` tells the program to skip it); the
        monitor buffers flush onto the node right before ``_sync_plan``
        so the replan snapshot matches; and ``_arr`` extends per
        processed segment — never up front — so a snapshot cannot see
        in-flight or future arrivals.  The trace buffer flushes at chunk
        end, keeping cluster-layer emissions (``cluster.route`` lands
        directly on the real tracer between ``process`` calls) correctly
        interleaved.
        """
        n = len(chunk)
        if not n:
            return
        if self._last_t is not None and chunk[0] < self._last_t:
            raise ValueError(
                f"arrival at {chunk[0]} ms precedes the last admitted "
                f"arrival at {self._last_t} ms; streams must be sorted"
            )
        traced = self._traced
        guarded = self._inj is not None
        interval = self._node.replan_interval_ms
        self._req_arr.extend(chunk)
        i = 0
        while i < n:
            t = chunk[i]
            prio = 1.0 if prios is None else prios[i]
            if guarded:
                if self._cut is None:
                    self._refresh_faults(t)
                if t >= self._cut or (self._quarantined and prio < _NEVER_SHED):
                    self._handover(t, prio)
                    i += 1
                    continue
                stop = n
                if self._quarantined and prios is not None:
                    # The next arrival that may be shed ends the segment.
                    stop = i + 1
                    while stop < n and prios[stop] >= _NEVER_SHED:
                        stop += 1
            sk = 0
            if not self._plan_ok or t - self._last_replan >= interval:
                if traced:
                    self._rq += 1
                    self._tb.append((1, t, self._rq, prio))
                    sk = 1
                    self._flush_monitor()
                self._sync_plan(t)
                if guarded:
                    self._refresh_guards(t)
            if self._fn is None:
                if not guarded:
                    raise RuntimeError("node has no plan (fast path)")
                # No program for this plan: the node realizes the
                # (admitted, replanned) request from its first kernel.
                if traced and not sk:
                    self._rq += 1
                    self._tb.append((1, t, self._rq, prio))
                self._arr.append(t)
                self._beat_ms = t
                i += 1
                self._handover(t, prio, first=0, ends={})
                continue
            prev = i
            t_limit = self._last_replan + interval
            if guarded and self._cut < t_limit:
                t_limit = self._cut
            out = self._fn(
                chunk,
                i,
                *((stop, t_limit) if guarded else (t_limit,)),
                self._win,
                self._makespan,
                self._corr,
                self._npos,
                self._nbuf,
                self._max_comp,
                *((self._rq, sk, prios) if traced else ()),
            )
            i, self._corr, self._npos, self._nbuf, self._max_comp = out[:5]
            if traced:
                self._rq = out[5]
            self._arr.extend(chunk[prev:i])
            if guarded and i > prev:
                self._beat_ms = chunk[i - 1]
                hk = out[-1]
                if hk >= 0:
                    # The guard stopped request i - 1 before kernel hk.
                    order = self._node._topo_order
                    ends_dev = self._ends_dev
                    self._handover(
                        chunk[i - 1],
                        1.0 if prios is None else prios[i - 1],
                        first=hk,
                        ends={
                            order[j]: (self._ends_t[j], ends_dev[j].device_id)
                            for j in range(hk)
                        },
                    )
        w = self._window
        if len(self._lats) > 4 * w:
            del self._lats[: len(self._lats) - w]
        if len(self._arr) > 4 * w:
            del self._arr[: len(self._arr) - w]
        self._last_t = chunk[n - 1]
        if traced:
            self._flush_trace()

    # -- handing requests to the node ------------------------------------------

    def _handover(
        self,
        t_ms: float,
        priority: float,
        first: Optional[int] = None,
        ends: Optional[Dict[str, Tuple[float, str]]] = None,
    ) -> None:
        """Realize one request on ``LeafNode``'s per-request path: the
        whole arrival through ``submit`` (``first`` None), or an
        admitted request from kernel ``first`` on with the ``ends`` the
        program built.  The engine's state is synced onto the node
        before and read back after."""
        node = self._node
        self._sync_out()
        if first is None:
            record = node.submit(t_ms, priority=priority)
        else:
            record = node._finish_request(t_ms, first, ends)
        self._handed[len(self._req_comp)] = record
        self._req_comp.append(record.completion_ms)
        self._req_pred.append(record.predicted_ms)
        self._corr = node.monitor._correction
        self._nbuf = node._noise_buf
        self._npos = node._noise_pos
        self._rq = node._req_seq
        self._adopt_plan()
        self._refresh_faults(t_ms)

    def _sync_out(self) -> None:
        """Write the inlined state onto the node: monitor buffers and
        correction, the noise cursor, the request cursor (traced), and
        — for natively served arrivals since the last sync — the
        heartbeats every live device sent and the shed level the last
        one set (health is constant between cut points, so each is one
        write)."""
        node = self._node
        self._flush_monitor()
        node._noise_buf = self._nbuf
        node._noise_pos = self._npos
        if self._traced:
            node._req_seq = node._current_req = self._rq
        beat = self._beat_ms
        if beat is not None:
            self._beat_ms = None
            record = node.monitor.record_heartbeat
            for dev in node.devices:
                if dev.health != DeviceHealth.FAILED:
                    record(dev.device_id, beat)
            if self._quarantined:
                node._planner.should_shed(1.0, beat)

    def _refresh_faults(self, t_ms: float) -> None:
        """Recompute the fault state the cut test and the program read,
        as of arrival ``t_ms``: the next cut (the injector's next
        state-changing schedule event, or the planner's next heartbeat
        detection), the quarantined flag and the fault horizons."""
        planner = self._node._planner
        self._cut = min(self._inj.next_event_ms(), planner.next_detection_ms())
        self._quarantined = bool(planner.quarantined)
        self._refresh_guards(t_ms)

    def _refresh_guards(self, t_ms: float) -> None:
        """Per-device fault horizons as of arrival ``t_ms`` (valid for
        any later arrival: they only grow as time passes, and a stale,
        smaller horizon merely sends more dispatches to the exact test)."""
        horizon = self._inj.fault_horizon_ms
        for rank, dev in enumerate(self._by_rank):
            self._guards[rank] = horizon(dev.device_id, t_ms)

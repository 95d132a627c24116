"""Memoized analytical-model evaluation for the DSE hot path.

The paper's pitch is that the analytical models make design-space
exploration cheap (Section IV-C); this module makes *repeated*
exploration nearly free.  Every (kernel, platform, config) evaluation —
feasibility plus the latency/power estimate — is memoized behind a key
of the kernel's *model-relevant signature*, the platform name and the
(hashable) :class:`~repro.hardware.config.ImplConfig`.

Keying on a structural signature rather than object identity means a
kernel rebuilt from the same annotations hits the cache, while any
change to workload, tensors or calibration bias misses it (natural
invalidation).  The cache is per-process; forked DSE workers inherit a
copy-on-write snapshot of whatever the parent had already evaluated,
and ship their new entries back for the parent to :meth:`merge
<ModelEvalCache.merge>` — so repeated parallel explorations stay warm.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..patterns.ppg import Kernel
from .config import ImplConfig
from .specs import DeviceType
from .fpga_model import FPGAModel
from .gpu_model import GPUModel

__all__ = [
    "CachedEstimate",
    "ModelEvalCache",
    "kernel_signature",
    "evaluate_cached",
    "evaluate_many_cached",
    "cache_stats",
    "clear_model_cache",
    "model_cache",
]


@dataclass(frozen=True)
class CachedEstimate:
    """The model outputs the DSE consumes, in cacheable form.

    ``feasible`` is always True for GPUs; for FPGAs it is the placement
    check, and infeasible entries carry NaN estimates (they are never
    turned into design points).
    """

    feasible: bool
    latency_ms: float
    active_power_w: float


def kernel_signature(kernel: Kernel) -> str:
    """Stable digest of everything the analytical models read.

    Covers the per-pattern workload descriptors, the kernel-level
    aggregates (ops, I/O, intermediate and resident traffic,
    parallelism) and the calibration bias table — the full input
    surface of :class:`GPUModel`/:class:`FPGAModel`.  Two kernels with
    equal signatures are indistinguishable to the models.
    """
    parts = [kernel.name]
    for pattern in kernel.patterns:
        wl = pattern.workload
        parts.append(
            f"{pattern.kind.value}|{pattern.data_parallelism}|"
            f"{wl.elements}|{wl.ops_per_element!r}|{wl.bytes_in}|"
            f"{wl.bytes_out}|{wl.op_kind}|{wl.access_regularity!r}|"
            f"{wl.sequential_steps}"
        )
    parts.append(
        f"agg|{kernel.total_ops!r}|{kernel.io_bytes}|"
        f"{kernel.intermediate_bytes}|{kernel.resident_stationary_bytes}|"
        f"{kernel.resident_streamed_bytes}|{kernel.max_data_parallelism}|"
        f"{len(kernel.patterns)}"
    )
    bias = sorted(
        (getattr(k, "value", str(k)), float(v))
        for k, v in kernel.platform_bias.items()
    )
    parts.append(f"bias|{bias!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


class ModelEvalCache:
    """Thread-safe memo table for analytical model evaluations."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, str, ImplConfig, int], CachedEstimate] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.merges = 0
        #: Counters in a bound obs registry, updated alongside the ints
        #: (``None`` until :meth:`bind_metrics`).
        self._metrics = None

    # -- keying --------------------------------------------------------------

    @staticmethod
    def _signature_of(kernel: Kernel) -> str:
        """Per-kernel signature, memoized on the kernel object itself.

        Recomputing the digest per lookup would eat the win; the digest
        is stashed on the kernel together with the kernel profile it was
        computed from and a key of its bias table — the one
        model-relevant attribute mutated in place in practice.  A new
        PPG version (a fresh profile) or a rebound bias invalidates the
        stashed digest.
        """
        bias_key = tuple(
            sorted((str(k), float(v)) for k, v in kernel.platform_bias.items())
        )
        profile = kernel.profile
        cached = getattr(kernel, "_model_signature", None)
        if cached is not None and cached[1] is profile and cached[2] == bias_key:
            return cached[0]
        sig = kernel_signature(kernel)
        kernel._model_signature = (sig, profile, bias_key)  # type: ignore[attr-defined]
        return sig

    # -- the memoized evaluation --------------------------------------------

    def evaluate(
        self, kernel: Kernel, spec, config: ImplConfig, batch: int = 1
    ) -> CachedEstimate:
        """Feasibility + latency/power of one candidate, memoized."""
        key = (self._signature_of(kernel), spec.name, config, batch)
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self.hits += 1
                if self._metrics is not None:
                    self._metrics[0].inc()
                return hit
            self.misses += 1
            if self._metrics is not None:
                self._metrics[1].inc()
        if spec.device_type == DeviceType.FPGA:
            model = FPGAModel(spec)
            if not model.feasible(kernel, config):
                entry = CachedEstimate(False, float("nan"), float("nan"))
            else:
                est = model.estimate(kernel, config, batch)
                entry = CachedEstimate(True, est.latency_ms, est.active_power_w)
        else:
            gpu_est = GPUModel(spec).estimate(kernel, config, batch)
            entry = CachedEstimate(True, gpu_est.latency_ms, gpu_est.active_power_w)
        with self._lock:
            self._entries[key] = entry
        return entry

    # -- bulk access (vectorized DSE path) ------------------------------------

    def get_many(
        self, kernel: Kernel, spec, configs: Sequence[ImplConfig], batch: int = 1
    ) -> Tuple[List[Optional[CachedEstimate]], List[int]]:
        """Bulk lookup: cached entries plus the indices still to compute.

        Counter semantics mirror a scalar :meth:`evaluate` loop exactly:
        each config is looked up in order, and a *duplicate* of a miss
        earlier in the same batch counts as a hit (the scalar loop would
        find the entry its first occurrence stored).  Duplicate
        positions are returned as ``None`` alongside the first
        occurrence's index in ``miss_index``; :meth:`evaluate_many`
        back-fills them once the misses are computed.
        """
        sig = self._signature_of(kernel)
        name = spec.name
        results: List[Optional[CachedEstimate]] = [None] * len(configs)
        miss_index: List[int] = []
        hits = misses = 0
        with self._lock:
            pending = set()
            for i, config in enumerate(configs):
                key = (sig, name, config, batch)
                entry = self._entries.get(key)
                if entry is not None:
                    results[i] = entry
                    hits += 1
                elif key in pending:
                    hits += 1
                else:
                    pending.add(key)
                    miss_index.append(i)
                    misses += 1
            self.hits += hits
            self.misses += misses
            if self._metrics is not None:
                self._metrics[0].inc(hits)
                self._metrics[1].inc(misses)
        return results, miss_index

    def put_many(
        self,
        kernel: Kernel,
        spec,
        configs: Sequence[ImplConfig],
        entries: Sequence[CachedEstimate],
        batch: int = 1,
    ) -> None:
        """Bulk store of computed entries (no counter changes, like the
        store half of :meth:`evaluate`)."""
        if len(configs) != len(entries):
            raise ValueError("configs and entries must have equal length")
        sig = self._signature_of(kernel)
        name = spec.name
        with self._lock:
            for config, entry in zip(configs, entries):
                self._entries[(sig, name, config, batch)] = entry

    def evaluate_many(
        self, kernel: Kernel, spec, configs: Sequence[ImplConfig], batch: int = 1
    ) -> List[CachedEstimate]:
        """Bulk memoized evaluation: one vectorized model call per batch.

        Splits ``configs`` into cached and uncached via :meth:`get_many`,
        evaluates all misses in a single
        :meth:`~repro.hardware.gpu_model.GPUModel.estimate_batch` /
        :meth:`~repro.hardware.fpga_model.FPGAModel.estimate_batch`
        call (float-identical to the scalar path), and stores the new
        entries.  Counters and returned estimates are exactly those a
        scalar :meth:`evaluate` loop would produce.
        """
        results, miss_index = self.get_many(kernel, spec, configs, batch)
        if miss_index:
            miss_configs = [configs[i] for i in miss_index]
            if spec.device_type == DeviceType.FPGA:
                feasible, lat, power = FPGAModel(spec).estimate_batch(
                    kernel, miss_configs, batch
                )
                entries = [
                    CachedEstimate(bool(f), float(l), float(p))
                    for f, l, p in zip(feasible, lat, power)
                ]
            else:
                lat, power = GPUModel(spec).estimate_batch(
                    kernel, miss_configs, batch
                )
                entries = [
                    CachedEstimate(True, float(l), float(p))
                    for l, p in zip(lat, power)
                ]
            self.put_many(kernel, spec, miss_configs, entries, batch)
            for i, entry in zip(miss_index, entries):
                results[i] = entry
        if any(r is None for r in results):
            # In-batch duplicates of a miss: resolve from the now-filled
            # table.
            sig = self._signature_of(kernel)
            with self._lock:
                for i, r in enumerate(results):
                    if r is None:
                        results[i] = self._entries[(sig, spec.name, configs[i], batch)]
        return results  # type: ignore[return-value]

    # -- parallel write-back -------------------------------------------------

    def known_keys(self) -> set:
        """Snapshot of the current entry keys (for delta computation)."""
        with self._lock:
            return set(self._entries)

    def delta(
        self, known: set
    ) -> Dict[Tuple[str, str, ImplConfig, int], CachedEstimate]:
        """Entries added since ``known`` was snapshotted.

        A forked DSE worker inherits the parent's entries copy-on-write
        but its additions die with the process; the worker ships this
        delta back so the parent can :meth:`merge` it.
        """
        with self._lock:
            return {k: v for k, v in self._entries.items() if k not in known}

    def merge(
        self,
        entries: Dict[Tuple[str, str, ImplConfig, int], CachedEstimate],
        hits: int = 0,
        misses: int = 0,
    ) -> None:
        """Fold a worker's cache delta and counters into this cache."""
        with self._lock:
            self._entries.update(entries)
            self.hits += hits
            self.misses += misses
            self.merges += 1
            if self._metrics is not None:
                hit_c, miss_c, merge_c = self._metrics
                hit_c.inc(hits)
                miss_c.inc(misses)
                merge_c.inc()

    # -- bookkeeping ---------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Mirror the hit/miss/merge counters into an obs registry.

        The registry's counters advance *alongside* the plain ints from
        the moment of binding (they do not backfill earlier activity —
        call before exploration to capture a full run).  Binding a new
        registry replaces the previous one; ``bind_metrics(None)``
        detaches.
        """
        if registry is None:
            with self._lock:
                self._metrics = None
            return
        counters = (
            registry.counter("model_cache_hits_total"),
            registry.counter("model_cache_misses_total"),
            registry.counter("model_cache_merges_total"),
        )
        with self._lock:
            self._metrics = counters

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "merges": float(self.merges),
            "size": float(len(self._entries)),
            "hit_rate": self.hits / total if total else 0.0,
        }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.merges = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"<ModelEvalCache: {int(s['size'])} entries, "
            f"{int(s['hits'])} hits / {int(s['misses'])} misses>"
        )


#: Process-wide cache instance the DSE routes through.
model_cache = ModelEvalCache()


def evaluate_cached(
    kernel: Kernel, spec, config: ImplConfig, batch: int = 1
) -> CachedEstimate:
    """Evaluate one (kernel, spec, config) candidate via the shared cache."""
    return model_cache.evaluate(kernel, spec, config, batch)


def evaluate_many_cached(
    kernel: Kernel, spec, configs: Sequence[ImplConfig], batch: int = 1
) -> List[CachedEstimate]:
    """Bulk-evaluate candidates via the shared cache (vectorized misses)."""
    return model_cache.evaluate_many(kernel, spec, configs, batch)


def cache_stats() -> Dict[str, float]:
    """Hit/miss/size counters of the shared cache."""
    return model_cache.stats()


def clear_model_cache() -> None:
    """Drop all memoized evaluations and reset the counters."""
    model_cache.clear()

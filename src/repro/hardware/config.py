"""Implementation configuration: the knob assignment of one design point.

An :class:`ImplConfig` records the values chosen for the optimization
knobs of Table I (work-group size, loop unrolling, compute units, BRAM
ports, pipelining, memory coalescing, scratchpad use, double buffering)
plus the global-optimization decisions (pattern fusion, DVFS level).
The hardware models map a (kernel, config) pair to latency, power and —
for FPGAs — resource usage.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Dict, Sequence

import numpy as np

__all__ = ["ImplConfig", "KNOB_DEFAULTS", "KNOB_DTYPES", "knob_tuple", "knob_columns"]


@dataclass(frozen=True)
class ImplConfig:
    """One point in a kernel's implementation space.

    GPU-relevant knobs: ``work_group_size``, ``unroll``,
    ``use_scratchpad``, ``memory_coalescing``, ``pipelined`` (software
    pipeline / persistent kernel), ``freq_scale``.

    FPGA-relevant knobs: ``unroll``, ``compute_units``, ``bram_ports``,
    ``pipelined`` (hardware pipeline), ``double_buffer``, ``freq_scale``.

    Shared/global knobs: ``fused`` (pattern fusion applied to the whole
    kernel), ``batch`` hints are *not* part of the config — batching is a
    runtime decision.
    """

    work_group_size: int = 64
    unroll: int = 1
    compute_units: int = 1
    bram_ports: int = 1
    use_scratchpad: bool = False
    memory_coalescing: bool = False
    pipelined: bool = False
    double_buffer: bool = False
    fused: bool = False
    freq_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.work_group_size <= 0 or self.work_group_size > 1024:
            raise ValueError("work_group_size must be in (0, 1024]")
        if self.unroll <= 0:
            raise ValueError("unroll must be positive")
        if self.compute_units <= 0:
            raise ValueError("compute_units must be positive")
        if self.bram_ports <= 0:
            raise ValueError("bram_ports must be positive")
        if not 0.1 <= self.freq_scale <= 1.0:
            raise ValueError("freq_scale must be in [0.1, 1.0]")

    @property
    def parallel_lanes(self) -> int:
        """Spatial parallelism on FPGAs: unrolled lanes times CUs."""
        return self.unroll * self.compute_units

    def scaled(self, freq_scale: float) -> "ImplConfig":
        """Same implementation at a different DVFS operating point."""
        return replace(self, freq_scale=freq_scale)

    def describe(self) -> str:
        """Compact human-readable knob summary."""
        flags = "".join(
            ch
            for ch, on in (
                ("S", self.use_scratchpad),
                ("C", self.memory_coalescing),
                ("P", self.pipelined),
                ("D", self.double_buffer),
                ("F", self.fused),
            )
            if on
        )
        return (
            f"wg{self.work_group_size}/u{self.unroll}/cu{self.compute_units}"
            f"/p{self.bram_ports}/f{self.freq_scale:.2f}"
            + (f"/{flags}" if flags else "")
        )


#: Every knob's default value, in :class:`ImplConfig` field order.
KNOB_DEFAULTS: Dict[str, object] = {f.name: f.default for f in fields(ImplConfig)}
#: The numpy dtype of each knob's column (bool, int64 or float64).
KNOB_DTYPES: Dict[str, np.dtype] = {
    name: np.dtype(type(value)) for name, value in KNOB_DEFAULTS.items()
}

#: ``knob_tuple(config)`` is the config's field values in field order —
#: what ``dataclasses.astuple`` returns, without its per-field deepcopy.
#: The DSE's total-order sort keys end with it.
knob_tuple = attrgetter(*KNOB_DEFAULTS)


def knob_columns(configs: Sequence[ImplConfig]) -> Dict[str, np.ndarray]:
    """Each knob of ``configs`` as one numpy column, keyed by field name
    (the input layout of the vectorized models and the search proxy)."""
    n = len(configs)
    return {
        name: np.fromiter((getattr(c, name) for c in configs), dtype, n)
        for name, dtype in KNOB_DTYPES.items()
    }

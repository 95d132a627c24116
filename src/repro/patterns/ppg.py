"""Parallel Pattern Graph (PPG) — Section IV-A, Fig. 4(a).

A kernel may involve multiple parallel patterns; Poly represents the
kernel as a PPG whose nodes are pattern instances and whose edges are
data dependencies between patterns.  The PPG is the unit the *global*
optimization pass (fusion, transfer-strategy selection) operates on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import networkx as nx

from .annotations import Pattern, PatternKind, Workload
from .cdfg import CDFG, lower_pattern

__all__ = ["PPGEdge", "PPG", "KernelProfile", "Kernel"]


@dataclass(frozen=True)
class PPGEdge:
    """Data dependency between two patterns.

    ``bytes_moved`` is the size of the intermediate tensor; the global
    optimizer decides whether it travels through off-chip global memory
    or stays on chip after fusion (Section IV-B).
    """

    src: Pattern
    dst: Pattern
    bytes_moved: int

    def __post_init__(self) -> None:
        if self.bytes_moved < 0:
            raise ValueError("bytes_moved must be non-negative")


class PPG:
    """Parallel Pattern Graph of a single OpenCL kernel."""

    def __init__(self, name: str = "kernel") -> None:
        self.name = name
        self.graph = nx.DiGraph()
        #: Bumped by every :meth:`add_pattern` and :meth:`connect`; the
        #: key :class:`Kernel` caches its :class:`KernelProfile` under.
        self.version = 0

    # -- construction ------------------------------------------------------

    def add_pattern(self, pattern: Pattern) -> Pattern:
        """Insert a pattern node (idempotent)."""
        self.graph.add_node(pattern)
        self.version += 1
        return pattern

    def connect(
        self, src: Pattern, dst: Pattern, bytes_moved: Optional[int] = None
    ) -> PPGEdge:
        """Add a data-dependency edge; defaults to the producer's output size.

        Acyclicity is preserved incrementally: the edge ``src -> dst``
        closes a cycle iff ``src`` is already reachable *from* ``dst``,
        so a single reachability probe over ``dst``'s descendants
        suffices — no full-graph DAG re-check per insert.
        """
        if src not in self.graph or dst not in self.graph:
            raise KeyError("add both patterns to the PPG before connecting them")
        if nx.has_path(self.graph, dst, src):
            raise ValueError(
                f"edge {src.name} -> {dst.name} would create a cycle in PPG "
                f"{self.name!r}"
            )
        if bytes_moved is None:
            bytes_moved = src.output.nbytes
        edge = PPGEdge(src, dst, bytes_moved)
        self.graph.add_edge(src, dst, edge=edge)
        self.version += 1
        return edge

    # -- queries -----------------------------------------------------------

    @property
    def patterns(self) -> List[Pattern]:
        """Patterns in topological order (stable for a given graph)."""
        return list(nx.topological_sort(self.graph))

    @property
    def edges(self) -> List[PPGEdge]:
        return [data["edge"] for _, _, data in self.graph.edges(data=True)]

    def successors(self, pattern: Pattern) -> List[Pattern]:
        return list(self.graph.successors(pattern))

    def predecessors(self, pattern: Pattern) -> List[Pattern]:
        return list(self.graph.predecessors(pattern))

    def edge_between(self, src: Pattern, dst: Pattern) -> PPGEdge:
        return self.graph.edges[src, dst]["edge"]

    def communication_bytes(self) -> int:
        """Total inter-pattern traffic (all through global memory before
        fusion) — the quantity global optimization attacks."""
        return sum(e.bytes_moved for e in self.edges)

    def sources(self) -> List[Pattern]:
        return [p for p in self.graph.nodes if self.graph.in_degree(p) == 0]

    def sinks(self) -> List[Pattern]:
        return [p for p in self.graph.nodes if self.graph.out_degree(p) == 0]

    def adjacent_pairs(self) -> List[Tuple[Pattern, Pattern]]:
        """Producer/consumer pairs — fusion candidates."""
        return [(u, v) for u, v in self.graph.edges]

    def validate(self) -> None:
        """Check PPG structural invariants."""
        if self.graph.number_of_nodes() == 0:
            raise ValueError(f"PPG {self.name!r} is empty")
        if not nx.is_directed_acyclic_graph(self.graph):
            raise ValueError(f"PPG {self.name!r} must be acyclic")

    def __len__(self) -> int:
        return self.graph.number_of_nodes()

    def __repr__(self) -> str:
        return (
            f"<PPG {self.name!r}: {len(self)} patterns, "
            f"{self.graph.number_of_edges()} deps>"
        )


@dataclass(frozen=True)
class KernelProfile:
    """One pass over a kernel's PPG: everything the models aggregate.

    The hardware models, the model-cache signature and the optimizers
    read these on every evaluation; :attr:`Kernel.profile` computes them
    once per PPG version instead of re-walking the graph per call.
    """

    #: Patterns in topological order.
    patterns: Tuple[Pattern, ...]
    workload: Workload
    total_ops: float
    io_bytes: int
    intermediate_bytes: int
    resident_stationary_bytes: int
    resident_streamed_bytes: int
    max_data_parallelism: int
    pattern_kinds: Tuple[PatternKind, ...]

    @classmethod
    def of(cls, ppg: PPG) -> "KernelProfile":
        patterns = tuple(ppg.patterns)
        total_ops = sum(p.workload.total_ops for p in patterns)
        elements = max(p.workload.elements for p in patterns)
        bytes_in = sum(sum(t.nbytes for t in p.inputs) for p in ppg.sources())
        bytes_out = sum(p.output.nbytes for p in ppg.sinks())
        resident: Dict[bool, Dict[str, int]] = {True: {}, False: {}}
        for pattern in patterns:
            for t in pattern.inputs:
                if t.resident:
                    resident[t.stationary][t.name] = t.nbytes
        return cls(
            patterns=patterns,
            workload=Workload(
                elements=elements,
                ops_per_element=total_ops / elements,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
                op_kind=patterns[0].workload.op_kind,
                access_regularity=min(
                    p.workload.access_regularity for p in patterns
                ),
                sequential_steps=max(
                    p.workload.sequential_steps for p in patterns
                ),
            ),
            total_ops=total_ops,
            io_bytes=bytes_in + bytes_out,
            intermediate_bytes=ppg.communication_bytes(),
            resident_stationary_bytes=sum(resident[True].values()),
            resident_streamed_bytes=sum(resident[False].values()),
            max_data_parallelism=max(p.data_parallelism for p in patterns),
            pattern_kinds=tuple(dict.fromkeys(p.kind for p in patterns)),
        )


class Kernel:
    """An OpenCL kernel: a named PPG plus its lowered CDFGs.

    This is the unit of design-space exploration (one design space per
    kernel per device, Table II) and of runtime scheduling (one node in
    the application kernel graph, Section V).
    """

    def __init__(
        self,
        name: str,
        ppg: PPG,
        platform_bias: Optional[Dict] = None,
    ) -> None:
        ppg.validate()
        self.name = name
        self.ppg = ppg
        self._cdfgs: Dict[Pattern, CDFG] = {}
        self._profile: Optional[Tuple[PPG, int, KernelProfile]] = None
        #: Calibration multipliers on modelled latency, keyed by
        #: :class:`~repro.hardware.specs.DeviceType`.  The analytical
        #: models are parameterized from public datasheets only; these
        #: constants absorb the per-kernel residual against the paper's
        #: measured hardware (toolchain quality, kernel-specific code
        #: generation) so the reproduced trade-off shapes match the
        #: published ones.  They scale latency only — knob trends and
        #: power still come from the models.
        self.platform_bias = dict(platform_bias or {})

    def latency_bias(self, device_type) -> float:
        """Calibration multiplier for one device family (default 1.0)."""
        return float(self.platform_bias.get(device_type, 1.0))

    def cdfg(self, pattern: Pattern) -> CDFG:
        """Lazily lower a pattern to its CDFG (cached)."""
        if pattern not in self._cdfgs:
            if pattern not in self.ppg.graph:
                raise KeyError(f"{pattern!r} is not part of kernel {self.name!r}")
            self._cdfgs[pattern] = lower_pattern(pattern)
        return self._cdfgs[pattern]

    @property
    def profile(self) -> KernelProfile:
        """The PPG's aggregates, recomputed only when the PPG changes
        (a new :attr:`PPG.version` or a rebound :attr:`ppg`)."""
        cached = self._profile
        if (
            cached is None
            or cached[0] is not self.ppg
            or cached[1] != self.ppg.version
        ):
            cached = (self.ppg, self.ppg.version, KernelProfile.of(self.ppg))
            self._profile = cached
        return cached[2]

    @property
    def patterns(self) -> List[Pattern]:
        return list(self.profile.patterns)

    @property
    def pattern_kinds(self) -> Tuple[PatternKind, ...]:
        """Distinct pattern kinds, in first-appearance order (Table II)."""
        return self.profile.pattern_kinds

    # -- aggregate workload, consumed by the hardware models ---------------

    @property
    def total_ops(self) -> float:
        """Total arithmetic operations per kernel invocation."""
        return self.profile.total_ops

    @property
    def io_bytes(self) -> int:
        """External input + output bytes (excludes inter-pattern traffic)."""
        return self.profile.io_bytes

    @property
    def intermediate_bytes(self) -> int:
        """Inter-pattern traffic (fusion target)."""
        return self.profile.intermediate_bytes

    @property
    def max_data_parallelism(self) -> int:
        return self.profile.max_data_parallelism

    @property
    def resident_bytes(self) -> int:
        """Total parameter/state bytes (deduplicated by tensor name).

        These persist across invocations and are re-read every
        sequential step; see :class:`~repro.patterns.annotations.Tensor`.
        """
        profile = self.profile
        return profile.resident_stationary_bytes + profile.resident_streamed_bytes

    @property
    def resident_stationary_bytes(self) -> int:
        """Resident bytes reused unchanged by every step (LSTM weights):
        an FPGA pins a compressed copy in BRAM once."""
        return self.profile.resident_stationary_bytes

    @property
    def resident_streamed_bytes(self) -> int:
        """Resident bytes where each step needs a different slice
        (per-layer DNN weights): streamed per step on all platforms."""
        return self.profile.resident_streamed_bytes

    def workload_summary(self) -> Workload:
        """Aggregate workload descriptor for the whole kernel."""
        return self.profile.workload

    def __repr__(self) -> str:
        kinds = ",".join(k.value for k in self.pattern_kinds)
        return f"<Kernel {self.name!r}: [{kinds}], {self.total_ops/1e6:.2f} Mops>"

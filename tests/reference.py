"""The per-request reference path: ``LeafNode.submit`` driven by hand.

``run_simulation`` replays a stream through the engine's compiled
dispatch program and hands a request to ``LeafNode`` only where a fault
reaches it.  :func:`reference_run` replays it the original way — one
``LeafNode.submit`` call per arrival, in order, with a bound
``FaultInjector`` when a schedule is given — and assembles the same
``SimulationResult``, so tests and the golden recorder can hold the
engine to it float for float.
"""

from __future__ import annotations

from repro.faults import FaultInjector
from repro.runtime.node import LeafNode
from repro.runtime.simulation import assemble_result


def reference_run(
    system,
    app,
    spaces,
    arrivals,
    *,
    seed=0,
    faults=None,
    priorities=None,
    tracer=None,
    plan_cache=None,
    bin_ms=1000.0,
    warmup_frac=0.1,
    replan_interval_ms=250.0,
):
    """``run_simulation``'s result, computed by ``LeafNode.submit`` per
    arrival (``priorities`` parallel to the sorted stream)."""
    node = LeafNode(
        system,
        app,
        spaces,
        replan_interval_ms=replan_interval_ms,
        seed=seed,
        tracer=tracer,
        plan_cache=plan_cache,
    )
    injector = None
    if faults is not None:
        injector = faults if isinstance(faults, FaultInjector) else FaultInjector(faults)
        injector.bind(node)
    ordered = sorted(arrivals)
    prios = [1.0] * len(ordered) if priorities is None else priorities
    requests = [node.submit(t, priority=p) for t, p in zip(ordered, prios)]
    return assemble_result(
        node, injector, ordered, requests, bin_ms, warmup_frac, tracer
    )

"""Golden digests of the offline design-space exploration.

For each bundled app on the Setting-I Heter-Poly platforms, three
sha256 digests over the ``repr`` of every float and config the DSE
returns:

* ``exhaustive`` — the Pareto front of every (kernel, platform) space
  of an untargeted exhaustive exploration;
* ``targeted`` — the front and every point of the exhaustive
  exploration thinned to the app's Table II design counts (pins the
  subsample order);
* ``guided`` — the front and every point of the seeded guided search
  on the bench harness's enlarged knob space (:data:`ENLARGE`, also
  what ``test_search.py`` uses), plus its
  :class:`SearchStats` counters.

The checked-in values in ``dse_digests.json`` pin the search's
behaviour: any change to enumeration order, proxy ranking, selection,
breeding or the models shows up as a changed digest.

Re-record after a deliberate behaviour change (from the repository
root), and say why in CHANGES.md::

    PYTHONPATH=src python tests/golden/record_dse_digests.py

``tests/test_golden_dse.py`` recomputes every digest and compares.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import apps as apps_mod
from repro import runtime
from repro.benchref.harness import _DSE_SEARCH_OVERRIDES
from repro.optim import SearchConfig
from repro.optim.dse import explore_application

DIGEST_PATH = Path(__file__).with_name("dse_digests.json")

APPS = ("ASR", "CS", "FQT", "IR", "MF", "WT")
MODES = ("exhaustive", "targeted", "guided")

#: The synthetic >=10x enlargement of the knob space.
ENLARGE = _DSE_SEARCH_OVERRIDES
SEARCH = SearchConfig(max_evals=512, seed=0)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _point_lines(points):
    for p in points:
        yield f"{p.latency_ms!r} {p.power_w!r} {p.config!r}"


def _stats_line(stats) -> str:
    rungs = [(r.rung, r.pool, r.kept) for r in stats.rungs]
    return (
        f"stats {stats.explored} {stats.evaluations} {stats.skipped} "
        f"{stats.screened_infeasible} {stats.generations} {rungs}"
    )


def dse_digest(name: str, mode: str) -> str:
    """Digest of one app's exploration under ``mode``."""
    app = apps_mod.build(name)
    platforms = runtime.setting("I", "Heter-Poly").platforms
    if mode == "exhaustive":
        spaces = explore_application(app.kernels, platforms)
    elif mode == "targeted":
        spaces = explore_application(app.kernels, platforms, app.dse_targets())
    elif mode == "guided":
        spaces = explore_application(
            app.kernels,
            platforms,
            strategy="guided",
            search=SEARCH,
            candidate_overrides=ENLARGE,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lines = []
    for (kernel, platform), space in spaces.items():
        lines.append(f"{kernel}@{platform}")
        lines += list(_point_lines(space.pareto()))
        if mode != "exhaustive":
            lines.append("points")
            lines += list(_point_lines(space))
        if mode == "guided":
            lines.append(_stats_line(space.search_stats))
    return _sha(lines)


def record() -> dict:
    return {
        "numpy": np.__version__,
        "apps": {name: {mode: dse_digest(name, mode) for mode in MODES} for name in APPS},
    }


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")

"""Checked-in golden digests of seeded runtime runs.

``tests/golden/runtime_digests.json`` holds sha256 digests recorded by
``tests/golden/record_runtime_digests.py``: six apps x {fault-free,
plan-cached, chaos, traced JSONL} through ``run_simulation`` and an ASR
fleet replay x {fault-free, chaos on every node, traced nodes} through
``ClusterSimulation``.  Every single-node case is recomputed on both
request paths (``rec.PATHS``: the per-request reference path, reached
through an empty fault schedule, and the engine's generated dispatch
program), so each is pinned to the same floats.

The digests depend on numpy's log-normal and exponential streams; if an
installed numpy changes them these tests fail (re-record deliberately,
never skip).
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "record_runtime_digests", _GOLDEN / "record_runtime_digests.py"
)
rec = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rec)

DIGESTS = json.loads(rec.DIGEST_PATH.read_text())


def test_digest_file_covers_every_case():
    assert sorted(DIGESTS["single_node"]) == sorted(rec.APPS)
    for modes in DIGESTS["single_node"].values():
        assert sorted(modes) == sorted(rec.SINGLE_MODES)
    assert sorted(DIGESTS["fleet"]) == sorted(rec.FLEET_MODES)


@pytest.mark.parametrize("path", rec.PATHS)
@pytest.mark.parametrize("mode", rec.SINGLE_MODES)
@pytest.mark.parametrize("app", rec.APPS)
def test_single_node_digest(app, mode, path):
    got = rec.single_node_digest(app, mode, path)
    assert got == DIGESTS["single_node"][app][mode], (
        f"{app}/{mode} on the {path} path diverged from the golden digest "
        f"(recorded with numpy {DIGESTS['numpy']})"
    )


@pytest.mark.parametrize("mode", rec.FLEET_MODES)
def test_fleet_digest(mode):
    assert rec.fleet_digest(mode) == DIGESTS["fleet"][mode], (
        f"fleet/{mode} diverged from the golden digest "
        f"(recorded with numpy {DIGESTS['numpy']})"
    )

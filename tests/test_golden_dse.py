"""Checked-in golden digests of the offline design-space exploration.

``tests/golden/dse_digests.json`` holds sha256 digests recorded by
``tests/golden/record_dse_digests.py``: for each app on Setting-I
Heter-Poly, the exhaustive fronts, the Table II-targeted spaces and
the seeded guided search on the enlarged knob space (front, points and
search counters).  Any change to enumeration order, proxy ranking,
halving, breeding, the selection keys or the models diverges here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location(
    "record_dse_digests", _GOLDEN / "record_dse_digests.py"
)
rec = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rec)

DIGESTS = json.loads(rec.DIGEST_PATH.read_text())


def test_digest_file_covers_every_case():
    assert sorted(DIGESTS["apps"]) == sorted(rec.APPS)
    for modes in DIGESTS["apps"].values():
        assert sorted(modes) == sorted(rec.MODES)


@pytest.mark.parametrize("app", rec.APPS)
def test_dse_digest(app):
    got = {mode: rec.dse_digest(app, mode) for mode in rec.MODES}
    assert got == DIGESTS["apps"][app], (
        f"{app} DSE diverged from the golden digest "
        f"(recorded with numpy {DIGESTS['numpy']})"
    )

"""Record the exhaustive reference for the ``dse`` workload's quality metric.

The guided search of the ``dse`` workload runs on an enlarged knob space
(a 20-step frequency ladder and eight work-group sizes, >=10x the real
space per device).  Its quality is the hypervolume its front recovers
against the exhaustive front of the same space.  Searching the enlarged
space exhaustively takes longer than the guided search itself, so the
exhaustive side is recorded once here, into ``data/dse_reference.json``,
and every benchmark run reads it:

    python3 perfbench/make_reference.py

For every (app, kernel, platform) the file holds the reference corner
(1.05x the exhaustive space's worst latency and power) and the
exhaustive front's hypervolume against that corner.  Rerun it only when
the models or the knob space change on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro import apps, optim, runtime  # noqa: E402

#: The enlarged knob space (denser frequency ladder, extra work-group
#: sizes); both knobs exist on every device family.
OVERRIDES = {
    "freq_scale": [round(float(v), 4) for v in np.linspace(0.3, 1.0, 20)],
    "work_group_size": [32, 64, 96, 128, 192, 256, 384, 512],
}


def main() -> int:
    platforms = runtime.setting("I", "Heter-Poly").platforms
    overrides = {k: tuple(v) for k, v in OVERRIDES.items()}
    spaces = {}
    for app in apps.build_all():
        product = optim.explore_application(
            app.kernels, platforms, candidate_overrides=overrides
        )
        for (kernel, platform), space in product.items():
            corner = (
                1.05 * max(p.latency_ms for p in space),
                1.05 * max(p.power_w for p in space),
            )
            spaces[f"{app.name}/{kernel}/{platform}"] = [
                corner[0],
                corner[1],
                optim.space_hypervolume(space, corner),
            ]
    out = HERE / "data" / "dse_reference.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(
        json.dumps({"overrides": OVERRIDES, "spaces": spaces}, indent=1) + "\n"
    )
    print(f"wrote {len(spaces)} reference spaces to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

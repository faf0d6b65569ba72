"""Calibration job: fixed work that runs next to every timed iteration.

Usage: ``python3 perfbench/calibrate.py OUT.json``

The host's speed drifts by up to 1.7x for tens of seconds to minutes at a
time, and a run's times drift with it.  This job never touches riskplan,
so its time moves only with the host; each timed command is reported as a
ratio to the calibration run of the same iteration, which cancels most of
the drift (perfbench/README.md).  Its work mixes what the commands do:
interpreter start with numpy, a JSON round trip through a file of package
dicts, pure-Python passes over small objects, and numpy uint64 arithmetic.
"""

from __future__ import annotations

import json
import sys

import numpy as np

PACKAGES = 50_000


def main(argv) -> int:
    rng = np.random.default_rng(0)
    rewards = rng.uniform(0.0, 10.0, PACKAGES).tolist()
    rhos = rng.uniform(0.0, 1.0, PACKAGES).tolist()
    doc = {"packages": [{"id": i, "reward": r, "rho": p}
                        for i, (r, p) in enumerate(zip(rewards, rhos))]}
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    with open(argv[0], encoding="utf-8") as fh:
        packages = json.load(fh)["packages"]
    order = sorted(packages, key=lambda p: p["reward"] * p["rho"] / (1.0 - p["rho"] + 1e-9))
    survival, total = 1.0, 0.0
    for p in order:
        survival *= p["rho"]
        total += survival * p["reward"]
    z = np.arange(1_000_000, dtype=np.uint64)
    for shift in (30, 27, 31, 30, 27, 31):
        z = (z ^ (z >> np.uint64(shift))) * np.uint64(0xBF58476D1CE4E5B9)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

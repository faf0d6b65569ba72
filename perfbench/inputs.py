"""Set-up inputs for the perfbench workloads.

Usage: ``python3 perfbench/inputs.py <workload> <seed> <out-dir> <params-json>``

Writes the files a workload's timed commands read, as riskplan JSON
documents, and prints one JSON line naming them.  The inputs are a pure
function of (workload, seed, params).  This script is the benchmark's own
code: it imports numpy but not riskplan, so set-up time does not move with
the program, and it runs in its own process so that the process that spawns
the timed commands never holds workload data.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

# Stream tags keep each input's random draws independent of the others.
_PER_EPOCH, _TEAM, _FINITE_BATCH, _INFINITE_BATCH = 1, 2, 3, 4


def _instance_doc(rng, n, epochs, theta_range, reward_range, rho_range):
    rewards = rng.uniform(*reward_range, size=n)
    rhos = rng.uniform(*rho_range, size=n)
    return {
        "theta": float(rng.uniform(*theta_range)),
        "horizon": {"finite": int(epochs)} if epochs is not None else "infinite",
        "packages": [
            {"id": i, "reward": float(r), "rho": float(p)}
            for i, (r, p) in enumerate(zip(rewards.tolist(), rhos.tolist()))
        ],
    }


def _write(path, doc):
    text = json.dumps(doc, separators=(",", ":")) + "\n"  # 4x faster than json.dump
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return os.path.getsize(path)


def per_epoch(seed, out, p):
    """One instance whose epochs each see a random half of the catalog.

    The packages' (reward, rho) pairs and theta are the same for every
    seed; the seed shuffles which id gets which pair and draws the
    catalogs.  Drawn afresh per seed, theta and the few extreme packages
    the plans take made plan lengths, and so the solve and simulate work,
    vary by a quarter from seed to seed; shuffled, they vary by a few
    percent.
    """
    doc = _instance_doc(np.random.default_rng(_PER_EPOCH), p["n"], p["epochs"],
                        (3.0, 3.0), (0.0, 10.0), (0.0, 1.0))
    rng = np.random.default_rng([seed, _PER_EPOCH])
    pairs = [(q["reward"], q["rho"]) for q in doc["packages"]]
    doc["packages"] = [{"id": i, "reward": pairs[j][0], "rho": pairs[j][1]}
                       for i, j in enumerate(rng.permutation(p["n"]).tolist())]
    member = rng.random((p["epochs"], p["n"])) < p["catalog_share"]
    doc["per_epoch_packages"] = [np.flatnonzero(row).tolist() for row in member]
    path = os.path.join(out, "instance.json")
    return {"instance": path, "instance_bytes": _write(path, doc)}


def small_verify(seed, out, p):
    """A team instance at the team module's limits, plus the oracle batch.

    The batch cycles through every (n, K) shape in a fixed order, so the
    brute-force enumeration work is the same for every seed; only the
    rewards, probabilities and theta are drawn.
    """
    # Rewarding, fairly safe packages against a small theta: the greedy
    # assigns most of them in every scenario, so its work varies little
    # from seed to seed (with theta in [0, 5] it varies by a third).
    rng = np.random.default_rng([seed, _TEAM])
    team = _instance_doc(rng, p["team_packages"], p["team_epochs"],
                         (1.0, 2.0), (5.0, 10.0), (0.8, 1.0))
    team_path = os.path.join(out, "team.json")

    rng = np.random.default_rng([seed, _FINITE_BATCH])
    shapes = [(n, k) for k in range(1, p["finite_k_max"] + 1)
              for n in range(1, p["finite_n_max"] + 1)]
    finite = [
        _instance_doc(rng, n, k, (0.0, 5.0), (0.0, 10.0), (0.0, 1.0))
        for n, k in (shapes[i % len(shapes)] for i in range(p["finite_instances"]))
    ]
    # rho stays below 0.95 so each stationary policy's fixed-point
    # iteration in the MDP oracle converges in a few hundred steps.
    rng = np.random.default_rng([seed, _INFINITE_BATCH])
    infinite = [
        _instance_doc(rng, p["infinite_n"], None, (0.0, 5.0), (0.0, 10.0), (0.0, 0.95))
        for _ in range(p["infinite_instances"])
    ]
    batch_path = os.path.join(out, "oracle_batch.json")
    return {
        "team": team_path,
        "team_bytes": _write(team_path, team),
        "batch": batch_path,
        "batch_bytes": _write(batch_path, {"finite": finite, "infinite": infinite}),
    }


def bulk_finite(seed, out, p):
    """Nothing to write: the timed ``riskplan gen`` makes the instance."""
    return {}


WRITERS = {"bulk-finite": bulk_finite, "per-epoch": per_epoch, "small-verify": small_verify}


def main(argv):
    workload, seed, out, params = argv
    os.makedirs(out, exist_ok=True)
    result = WRITERS[workload](int(seed), out, json.loads(params))
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Determinism guard for the benchmark.

    python3 bench/determinism.py [--workload NAME] [--seed N]

Runs one round of each workload four times: untraced and traced, each
under PYTHONHASHSEED 0 and 1. The states per round and every verdict must
be identical in all four runs, and every per-layer count in the two traced
runs. Verdicts must not depend on enumeration order. Exits 1 on any
difference.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("chain", "congruence", "simulate")
HASH_SEEDS = ("0", "1")


def one_round(workload: str, seed: int, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=600)
    result = json.loads((BENCH / "results" / f"{workload}-trace{trace}.json").read_text())
    return {
        "states": result["states_per_round"],
        "verdicts": result["verdicts"],
        "counts": result.get("layer_counts_per_round"),
        "problems": result["problems"],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    differences = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        runs = {(t, h): one_round(workload, args.seed, t, h) for t in (0, 1) for h in HASH_SEEDS}
        first = runs[(0, HASH_SEEDS[0])]
        for key, run in runs.items():
            where = f"{workload} trace={key[0]} PYTHONHASHSEED={key[1]}"
            for field in ("states", "verdicts"):
                if run[field] != first[field]:
                    differences += 1
                    print(f"DIFFERS {where}: {field}")
            if run["problems"]:
                differences += 1
                print(f"FAILED CHECK {where}: {run['problems'][0]}")
        traced = [runs[(1, h)]["counts"] for h in HASH_SEEDS]
        if traced[0] != traced[1]:
            differences += 1
            print(f"DIFFERS {workload}: per-layer counts between hash seeds {HASH_SEEDS}")
        print(f"{workload}: states {first['states'][0]}, {len(first['verdicts'])} verdicts, "
              f"{len(traced[0][0])} per-layer counts compared over 4 runs")
    print("identical" if not differences else f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

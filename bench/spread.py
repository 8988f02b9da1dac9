"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py --workload chain --seeds 1-10 [--seconds 25]

Runs one fresh process per seed, one after another. For each metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and their distance as a share of the median, and then the share of failed
operations. The runs are untraced.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--seconds", default="25")
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900).stdout
        result = json.loads(out.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    for k, vs in values.items():
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / q2 if q2 else 0.0
        print(f"{k}: median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g}, spread {share:.3f}")
    print(f"failed {failed} of {attempted} ({failed / attempted:.4%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

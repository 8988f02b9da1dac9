"""Paired benchmark runs of the working tree against a parent commit.

    python3 tools/bench_pairs.py --parent HEAD --workload congruence --pairs 10 --out BENCH.json

Unpacks the parent commit with ``git archive`` into a temporary directory,
then runs ``bench/run.py`` there and in the working tree, one run after the
other, alternating which side runs first from pair to pair. Each run is a
fresh process with the benchmark's default seed and the same duration.

Writes one JSON file at the root of the repository (``--out``), with one
entry per workload: the machine, both commits (the working tree as its
``HEAD`` and the hash of its uncommitted diff to the files a benchmark run
reads, if any: ``fingerprint``), each run's correctness, attempted and
failed operation counts, the median attempted count of each side, and per
end-to-end metric of ``BENCHMARK.json`` the per-pair values of both sides,
their medians and quartiles, and the number of pairs the working tree won.
The attempted counts tell a metric that grows with the operations a run
completes, such as ``peak_rss_mb`` (the benchmark keeps every operation's
record until its summary), from one that grows with the program. A
later call with another workload adds its entry to the same file, and one
with the same workload replaces it. ``median_gain`` is the
parent's median less the working tree's, signed so that a gain is
positive, and ``parent_iqr`` the distance between the parent's quartiles;
a claimed gain should win nearly every pair and exceed that distance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The paths whose contents a benchmark run reads: the package, the benchmark
# and its declaration. Edits anywhere else leave the fingerprint as it is.
BENCHED_PATHS = ("src", "bench", "BENCHMARK.json")


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    ).stdout


def fingerprint(root: Path = ROOT) -> dict:
    """The working tree of the repository at ``root`` as the benchmark sees
    it: its ``HEAD`` commit and the SHA-256 of its uncommitted diff to
    ``BENCHED_PATHS``, or None when there is none."""
    diff = git("diff", "HEAD", "--", *BENCHED_PATHS, cwd=root)
    return {
        "head": git("rev-parse", "HEAD", cwd=root).strip(),
        "uncommitted_diff_sha256": hashlib.sha256(diff.encode()).hexdigest() if diff else None,
    }


def unpack(ref: str, into: Path) -> None:
    """The tree of ``ref`` under ``into``, by ``git archive``."""
    archive = into / "parent.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", ref], cwd=ROOT, stdout=out, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_bench(tree: Path, workload: str, seconds: float) -> dict:
    """The summary ``bench/run.py`` prints as its last line, run in ``tree``
    with its default seed."""
    result = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    if result.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree}:\n{result.stderr}")
    return json.loads(result.stdout.splitlines()[-1])


def run_record(summary: dict) -> dict:
    """What a pair keeps of one ``bench/run.py`` summary: whether its
    outputs were correct, how many operations it attempted and how many
    failed, and each metric's value."""
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
    }


def quartiles(values: list[float]) -> list[float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    parent_q = quartiles(parent)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "parent_quartiles": parent_q,
        "change_quartiles": quartiles(change),
        "parent_iqr": parent_q[1] - parent_q[0],
        "median_gain": sign * (statistics.median(parent) - statistics.median(change)),
        "change_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
    }


def machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def parse_args(argv, benchmark: dict) -> argparse.Namespace:
    """The command line ``argv``; each run lasts ``benchmark``'s
    ``run_seconds`` unless ``--seconds`` says otherwise."""
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="the commit to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                   help="duration of each run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--out", default="BENCH.json", help="file name at the root of the repository")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    return args


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, benchmark)
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    parent_commit = git("rev-parse", args.parent).strip()
    change = fingerprint()

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        unpack(parent_commit, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_record(run_bench(trees[side], args.workload, args.seconds))
            runs.append(pair)
            wall = {side: pair[side]["metrics"]["wall_s"] for side in ("parent", "change")}
            print(f"pair {i + 1}/{args.pairs}: wall_s parent {wall['parent']:.4f} change {wall['change']:.4f}",
                  flush=True)

    entry = {
        "machine": machine(),
        "parent": {"ref": args.parent, "commit": parent_commit},
        "change": change,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "all_correct": all(r[s]["correct"] and r[s]["failed"] == 0 for r in runs for s in ("parent", "change")),
        "attempted_median": {s: statistics.median(r[s]["attempted"] for r in runs) for s in ("parent", "change")},
        "metrics": {
            name: summarize(
                metric,
                [r["parent"]["metrics"][name] for r in runs],
                [r["change"]["metrics"][name] for r in runs],
            )
            for name, metric in metrics.items()
        },
        "runs": runs,
    }
    out = ROOT / args.out
    report = json.loads(out.read_text()) if out.exists() else {}
    report.setdefault("workloads", {})[args.workload] = entry
    out.write_text(json.dumps(report, indent=1) + "\n")
    attempted = entry["attempted_median"]
    print(f"attempted ops per run: parent median {attempted['parent']:g} change median {attempted['change']:g}")
    for name, m in entry["metrics"].items():
        print(f"{name}: parent {m['parent_median']:.6g} change {m['change_median']:.6g} {m['unit']},"
              f" gain {m['median_gain']:+.6g} (parent IQR {m['parent_iqr']:.3g}),"
              f" change wins {m['change_wins']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of cqpkit on teleport chains, congruence contexts and long simulations.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Runs one workload in this process: one thread, closed loop, each operation
starting when the previous one returns. Rounds of identical operations
repeat until ``--seconds`` have passed; the last round always completes.
Prints every metric by name and unit, then, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 1`` the public functions of each cqpkit layer are wrapped and the
metrics are the per-layer ones, with the trace overhead: the run first
times one untraced round, the same operations as its first traced round.
Results go to ``bench/results/``.
"""

import os
import sys

# Pin string hashing, so set and dict orders repeat from run to run.
if "PYTHONHASHSEED" not in os.environ:
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
SETUPS = 5  # set-ups per run; setup_s takes their median

if not (SRC / "cqpkit" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no cqpkit sources at {SRC}; run it from a checkout of the repository")
sys.path.insert(0, str(SRC))

from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.start()

import spans  # noqa: E402
from workloads import WORKLOADS, Recorder  # noqa: E402

IMPORTS = PROBE.interval((T0, 0.0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values, ops_per_round: int) -> float:
    """The value with ten operations of every round above it (nearest rank),
    or the median where that rank lies below it."""
    ordered = sorted(values)
    beyond = math.ceil(10 * len(ordered) / ops_per_round - 1e-9)
    return max(ordered[max(0, len(ordered) - beyond - 1)], statistics.median(ordered))


def deltas(snaps: list[dict]) -> list[dict]:
    return [
        {k: after.get(k, 0) - before.get(k, 0) for k in after}
        for before, after in zip(snaps, snaps[1:])
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args.seed)
    rec = Recorder(PROBE)
    rec.install(count_built=workload.counts_built)
    tracer = untraced = None
    if args.trace:
        workload.setup()
        untraced = workload.round(rec, random.Random(args.seed), 0)
        tracer = spans.Tracer(PROBE.clock)
        spans.install(tracer)

    def snap() -> dict:
        return tracer.snapshot() if tracer else {}

    setup_snaps = [snap()]
    setups = []
    for _ in range(SETUPS):
        mark = PROBE.mark()
        workload.setup()
        setups.append(PROBE.interval(mark))
        setup_snaps.append(snap())

    rng = random.Random(args.seed)
    rounds = []
    round_snaps = [snap()]
    start = time.perf_counter()
    while True:
        rounds.append(workload.round(rec, rng, len(rounds)))
        round_snaps.append(snap())
        if time.perf_counter() - start >= args.seconds:
            break
    PROBE.stop()
    scaled = PROBE.scaled
    run_factor = PROBE.factor(T0, time.perf_counter())

    setup_s = scaled(IMPORTS) + statistics.median(scaled(iv) for iv in setups)
    op_ms = [scaled(iv) * 1e3 for r in rounds for _label, iv in r.ops]
    raw_ms = [iv.raw_s * 1e3 for r in rounds for _label, iv in r.ops]
    checked = rounds + ([untraced] if untraced else [])
    attempted = workload.ops_per_round * len(checked)
    failed = sum(r.failed for r in checked)
    problems = [p for r in checked for p in r.problems]
    run_problems = []
    if len({r.states for r in checked}) != 1:
        run_problems.append(f"states differ between rounds: {[r.states for r in checked]}")
    if untraced and untraced.verdicts != rounds[0].verdicts:
        run_problems.append("verdicts of the untraced round differ from those of the first traced round")
    run_problems += workload.run_problems(rounds)
    correct = failed == 0 and not run_problems and bool(op_ms)

    wall_s = statistics.median(scaled(r.interval) for r in rounds)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_ms_p50": (statistics.median(op_ms) if op_ms else 0.0, "ms"),
        "op_ms_tail": (tail(op_ms, workload.ops_per_round) if op_ms else 0.0, "ms"),
        "states": (rounds[0].states, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    RESULTS.mkdir(exist_ok=True)
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ["PYTHONHASHSEED"],
        "rounds": len(rounds),
        "ops_per_round": workload.ops_per_round,
        "speed_factor": run_factor,
        "reference_samples": len(PROBE.durations),
        "round_seconds": [scaled(r.interval) for r in rounds],
        "round_seconds_raw": [r.interval.raw_s for r in rounds],
        "states_per_round": [r.states for r in rounds],
        "verdicts": rounds[0].verdicts,
        "ops": [[label, iv.raw_s * 1e3, scaled(iv) * 1e3] for r in rounds for label, iv in r.ops],
        "problems": (run_problems + problems)[:50],
        "end_to_end": {k: v for k, (v, _unit) in end_to_end.items()},
    }
    metrics = end_to_end
    if tracer:
        setup_d, round_d = deltas(setup_snaps), deltas(round_snaps)

        def per_setup_and_round(key: str) -> float:
            return statistics.median(d.get(key, 0) for d in setup_d) + statistics.median(
                d.get(key, 0) for d in round_d
            )

        metrics = {
            name: (value / run_factor if unit == "s" else value, unit)
            for name, (value, unit) in spans.layer_metrics(per_setup_and_round, tracer.peak_qubits).items()
        }
        count_keys = sorted({k for d in round_d for k in d if not k.endswith((".s", ".self_s"))})
        result["layer_counts_per_round"] = [{k: d.get(k, 0) for k in count_keys} for d in round_d]
        base = scaled(untraced.interval)
        metrics["trace.overhead_s"] = (wall_s - base, "s")
        result["per_layer"] = {k: v for k, (v, _unit) in metrics.items()}
        print(f"trace overhead: traced wall_s {wall_s:.4f} s - untraced {base:.4f} s"
              f" = {wall_s - base:+.4f} s ({(wall_s - base) / base:+.1%})")
        tracer.write(RESULTS / f"{workload.name}-spans.npz")
    (RESULTS / f"{workload.name}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {workload.name}: {len(rounds)} round(s) of {workload.ops_per_round} operations,"
          f" seed {args.seed}, PYTHONHASHSEED={os.environ['PYTHONHASHSEED']}")
    print(f"speed: {len(PROBE.durations)} reference samples, this run {run_factor:.3f}x the reference time;"
          f" before scaling: wall_s {statistics.median(r.interval.raw_s for r in rounds):.6g} s,"
          f" op_ms_p50 {statistics.median(raw_ms) if raw_ms else 0.0:.6g} ms")
    for p in (run_problems + problems)[:20]:
        print(f"FAILED CHECK: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)

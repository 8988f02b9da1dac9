"""The benchmark still runs against the program.

``bench/spans.py`` wraps functions of each layer by name, so renaming or
removing one of them would otherwise show only under ``bench/run.py
--trace 1``. Each workload checks its outputs against a computation made
apart from the program, so a change that breaks one of those checks would
otherwise show only in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqpkit import cli

REPO = Path(__file__).resolve().parents[1]
INSTALL = (
    "import time, spans\n"
    "tracer = spans.Tracer(time.perf_counter)\n"
    "spans.install(tracer)\n"
    "print(len(tracer.names))\n"
)


def test_span_tracer_installs():
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "bench"), package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", INSTALL],
        env=env,
        capture_output=True,
        text=True,
        check=False,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 0


def run_one_round(workload: str, trace: int) -> dict:
    """The summary ``bench/run.py`` prints after one round of ``workload``."""
    result = subprocess.run(
        [sys.executable, str(REPO / "bench" / "run.py"),
         "--workload", workload, "--seconds", "0", "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=False,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["chain", "congruence", "simulate"])
def test_one_benchmark_round_passes_its_output_checks(workload):
    summary = run_one_round(workload, trace=0)
    assert summary["correct"] is True
    assert summary["failed"] == 0


def test_one_traced_round_passes_its_output_checks():
    """Under ``--trace 1`` every wrapped function runs inside a span, so a
    change in how ``semantics`` calls them shows here."""
    summary = run_one_round("simulate", trace=1)
    assert summary["correct"] is True
    assert summary["failed"] == 0

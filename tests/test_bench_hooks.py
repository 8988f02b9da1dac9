"""The benchmark's tracer still finds every function it wraps.

``bench/spans.py`` wraps functions of each layer by name, so renaming or
removing one of them would otherwise show only under ``bench/run.py
--trace 1``.
"""

import os
import subprocess
import sys
from pathlib import Path

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

"""The benchmark still runs against the program.

``bench/spans.py`` wraps functions of each layer by name, so renaming or
removing one of them would otherwise show only under ``bench/run.py
--trace 1``. Each workload checks its outputs against a computation made
apart from the program, so a change that breaks one of those checks would
otherwise show only in a benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqpkit import cli, qstate, semantics
from cqpkit.equiv import check_equivalence
from support import bench_workloads

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


def test_semantics_calls_the_wrapped_kernels_by_module_attribute(monkeypatch):
    """``bench/spans.py`` counts the kernels by replacing attributes of
    ``cqpkit.qstate``. One ``Chain2`` against ``Identity`` check makes as
    many calls through those attributes as before the kernels were
    rewritten, so a kernel reached another way would change a count.

    ``check_equivalence`` settles Chain2's prefix once per check: its two
    Bell pairs, an H and a CNOT each, take 4 gates once instead of once per
    each of the 4 inputs, so 64 - 3 * 4 = 52 gates. Settling also takes the
    private sends on ``c`` and on the link ``m``, so each of the first
    hop's 4 measurement branches would run Bob's correction and then the
    second hop's CNOT and H before the branches merge: 2 gates more in 3 of
    the branches per input, 52 + 2 * 3 * 4 = 76 gates. The branches of one
    measurement settle through one table of the configurations met before
    each private send, so branches 2 to 4 stop before the send on ``m`` at
    the configuration branch 1 met there after its correction, and take
    its state: 76 - 2 * 3 * 4 = 52 gates again. Each stop costs the phase
    comparison the merge in ``explore``'s intern would have made, so the
    24 comparisons stay.

    Each of the 8 measurements is collapsed once per outcome, 32 times,
    by ``collapse``, which slices out the measured qubits: they are dead
    once the payload holds their bits, and no other qubit dies then. So
    ``drop_basis_qubits`` runs only for the 8 other steps that leave a dead
    qubit, where it ran for the 32 branches too, 40 calls, when each
    branch was first collapsed at full width."""
    counts = {}

    def counted(name):
        fn = getattr(qstate, name)

        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(qstate, name, wrapped)

    for name in (
        "apply_gate",
        "measure",
        "collapse",
        "drop_basis_qubits",
        "reduced_density_matrix",
        "states_equal_up_to_global_phase",
    ):
        counted(name)
    workloads = bench_workloads()
    program, sigs = workloads.load(workloads.chain_source(2))
    assert check_equivalence(program, "Chain2", program, "Identity", sigs).equivalent
    assert counts == {
        "apply_gate": 52,
        "measure": 8,
        "collapse": 32,
        "drop_basis_qubits": 8,
        "reduced_density_matrix": 8,
        "states_equal_up_to_global_phase": 24,
    }


def test_every_successor_is_checked_for_ownership_once(monkeypatch):
    """``bench/spans.py`` times ``semantics.ownership`` by wrapping
    ``Configuration.check_ownership``, so the span covers the whole check:
    on one ``Chain2`` against ``Identity`` check, ``_follow`` calls it
    exactly once for each successor skeleton it builds, each built by one
    ``_advance`` call, and nothing else calls it.

    The check explores each side under 4 inputs from one settled
    configuration, so they share its skeleton, and a successor is built
    only the first time a step is taken from a skeleton, which keeps its
    live set. So each distinct skeleton is checked once, 42 checks where
    exploring each input from a fresh skeleton makes 141."""
    counts = {"_advance": 0, "check_ownership": 0}
    checked = []
    advance = semantics._advance
    check = semantics.Configuration.check_ownership

    def counted_advance(*args, **kwargs):
        counts["_advance"] += 1
        return advance(*args, **kwargs)

    def counted_check(config):
        counts["check_ownership"] += 1
        checked.append(config)  # kept, so that no identity below is reused
        return check(config)

    monkeypatch.setattr(semantics, "_advance", counted_advance)
    monkeypatch.setattr(semantics.Configuration, "check_ownership", counted_check)
    workloads = bench_workloads()
    program, sigs = workloads.load(workloads.chain_source(2))
    assert check_equivalence(program, "Chain2", program, "Identity", sigs).equivalent
    assert counts["check_ownership"] == counts["_advance"] == 42
    skeletons = {
        (id(c.bindings), id(c.procs), c.next_channel, c.next_fresh, c.qstate.num_qubits)
        for c in checked
    }
    assert len(skeletons) == len(checked)


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_fingerprints_only_what_the_benchmark_reads(tmp_path):
    """``tools/bench_pairs.py`` marks the working tree by the hash of its
    uncommitted diff to the package, the benchmark and its declaration. In
    a scratch repository, an edit to ROADMAP.md leaves that fingerprint as
    it is, and an edit under ``src/`` changes it."""
    bench_pairs = load_bench_pairs()

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org", *args],
            cwd=tmp_path, capture_output=True, check=True,
        )

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text("X = 1\n")
    (tmp_path / "ROADMAP.md").write_text("# Roadmap\n")
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    clean = bench_pairs.fingerprint(tmp_path)
    assert clean["uncommitted_diff_sha256"] is None
    assert len(clean["head"]) == 40

    (tmp_path / "ROADMAP.md").write_text("# Roadmap\n\nAn open item.\n")
    assert bench_pairs.fingerprint(tmp_path) == clean

    (tmp_path / "src" / "mod.py").write_text("X = 2\n")
    edited = bench_pairs.fingerprint(tmp_path)
    assert edited["head"] == clean["head"]
    assert edited["uncommitted_diff_sha256"] is not None
    (tmp_path / "ROADMAP.md").write_text("# Roadmap\n")
    assert bench_pairs.fingerprint(tmp_path) == edited


def test_bench_pairs_runs_as_long_as_the_benchmark_by_default():
    bench_pairs = load_bench_pairs()
    required = ["--parent", "HEAD", "--workload", "chain", "--pairs", "2"]
    assert bench_pairs.parse_args(required, {"run_seconds": 7}).seconds == 7.0
    assert bench_pairs.parse_args([*required, "--seconds", "3"], {"run_seconds": 7}).seconds == 3.0


def test_bench_pairs_keeps_each_runs_operation_counts():
    """A pair keeps each run's attempted and failed operation counts next
    to its correctness and metric values, so a paired file can show that a
    metric rose with the operations a run completed."""
    summary = {
        "correct": True,
        "attempted": 17800,
        "failed": 0,
        "metrics": {"wall_s": {"value": 0.097, "unit": "s"}, "peak_rss_mb": {"value": 51.2, "unit": "MB"}},
    }
    assert load_bench_pairs().run_record(summary) == {
        "correct": True,
        "attempted": 17800,
        "failed": 0,
        "metrics": {"wall_s": 0.097, "peak_rss_mb": 51.2},
    }

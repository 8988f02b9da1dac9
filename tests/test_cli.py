"""Command-line interface: exit codes, output formats, golden stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqpkit import cli
from cqpkit.corpus import CORPUS, corpus_path

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cpath(name: str) -> str:
    return str(corpus_path(name))


# ---------------------------------------------------------------------------
# parse / typecheck
# ---------------------------------------------------------------------------

def test_parse_prints_canonical_form(capsys):
    code, out, _err = run_cli(capsys, "parse", cpath("identity.cqp"))
    assert code == 0
    assert out.strip() == "Identity(c,d) = c?[x] . d![x] . 0"


def test_parse_error_exit_and_position(tmp_path, capsys):
    bad = tmp_path / "bad.cqp"
    bad.write_text("P() = c?[x . 0\n")
    code, _out, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "bad.cqp:1:" in err


def test_typecheck_positive_and_negative(capsys):
    code, out, _ = run_cli(capsys, "typecheck", cpath("teleport.cqp"))
    assert code == 0 and out == ""
    code, out, _ = run_cli(capsys, "typecheck", cpath("negative/use_after_send.cqp"))
    assert code == 1
    line = out.strip()
    assert "QubitUsedAfterSend" in line
    # file:line:col CATEGORY message
    prefix = line.split(" ")[0]
    assert prefix.endswith(":7:10") or prefix.count(":") >= 2


def test_typecheck_json_shape(capsys):
    code, out, _ = run_cli(capsys, "typecheck", cpath("negative/clone.cqp"), "--json")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(
        doc,
        {
            "type": "object",
            "required": ["diagnostics"],
            "properties": {
                "diagnostics": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["file", "line", "col", "category", "message"],
                        "properties": {
                            "line": {"type": "integer"},
                            "col": {"type": "integer"},
                            "category": {"type": "string"},
                        },
                    },
                }
            },
        },
    )


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_trace_matches_golden_and_is_stable(capsys):
    code, first, _ = run_cli(capsys, "run", cpath("teleport_harness.cqp"), "--seed", "7")
    assert code == 0
    code, second, _ = run_cli(capsys, "run", cpath("teleport_harness.cqp"), "--seed", "7")
    assert code == 0
    assert first == second
    assert first == (GOLDEN / "run_teleport_harness_seed7.txt").read_text()
    for line in first.strip().splitlines():
        label, state, term = line.split(" | ", 2)
        assert label and state and term


def test_run_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "run", cpath("teleport_harness.cqp"), "--seed", "3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(
        doc,
        {
            "type": "object",
            "required": ["seed", "steps"],
            "properties": {
                "steps": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["step", "label", "state", "term"],
                        "properties": {
                            "step": {"type": "integer"},
                            "label": {"type": "string"},
                            "probability": {"type": "number"},
                            "state": {
                                "type": "array",
                                "items": {
                                    "type": "array",
                                    "items": {"type": "number"},
                                    "minItems": 2,
                                    "maxItems": 2,
                                },
                            },
                            "term": {"type": "string"},
                        },
                    },
                }
            },
        },
    )
    assert any("probability" in s for s in doc["steps"])


# ---------------------------------------------------------------------------
# explore
# ---------------------------------------------------------------------------

def test_explore_summary(capsys):
    code, out, _ = run_cli(capsys, "explore", cpath("teleport.cqp"))
    assert code == 0
    assert out.startswith("states:")
    assert "probabilistic: " in out


def test_explore_dump_matches_golden_and_schema(capsys):
    code, out, _ = run_cli(capsys, "explore", cpath("bell.cqp"), "--json")
    assert code == 0
    assert out == (GOLDEN / "explore_bell_plts.json").read_text()
    doc = json.loads(out)
    jsonschema.validate(
        doc,
        {
            "type": "object",
            "required": ["states", "edges", "initial"],
            "properties": {
                "states": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["id", "kind", "terminal"],
                        "properties": {
                            "id": {"type": "integer"},
                            "kind": {"enum": ["nondet", "prob"]},
                            "terminal": {"type": "boolean"},
                        },
                    },
                },
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["src", "label", "dst"],
                        "properties": {
                            "src": {"type": "integer"},
                            "label": {"type": "string"},
                            "p": {"type": "number"},
                            "dst": {"type": "integer"},
                        },
                    },
                },
                "initial": {"type": "integer"},
            },
        },
    )
    prob_edges = [e for e in doc["edges"] if e["label"] == "prob"]
    assert prob_edges and all("p" in e for e in prob_edges)


def test_explore_cap_exit_code(capsys):
    code, _out, err = run_cli(
        capsys, "explore", cpath("teleport.cqp"), "--max-states", "2"
    )
    assert code == 70
    assert "cap" in err


@pytest.mark.parametrize("k", [10, 14])
def test_explore_call_fan_out_exits_at_the_component_cap(tmp_path, capsys, k):
    """``A_k(c) = (A_{k-1}(c) | A_{k-1}(c))`` unfolds into 2^k components.
    Each state would build a successor per component and check every
    component of each, so the state cap alone would stop this only after
    minutes; the component cap stops it while it unfolds."""
    lines = ["//: A0 : ^[Bit]", "A0(c) = c![0] . 0"]
    for j in range(1, k + 1):
        lines += [f"//: A{j} : ^[Bit]", f"A{j}(c) = (A{j - 1}(c) | A{j - 1}(c))"]
    lines += ["//: Main : ^[Bit]", f"Main(c) = A{k}(c)"]
    src = tmp_path / f"fan_out{k}.cqp"
    src.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, _out, err = run_cli(capsys, "explore", str(src), "--max-states", "1000")
    assert code == 70
    assert "component cap" in err
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# equiv
# ---------------------------------------------------------------------------

def test_equiv_teleport_identity(capsys):
    code, out, _ = run_cli(
        capsys, "equiv", cpath("teleport.cqp"), cpath("identity.cqp")
    )
    assert code == 0
    assert out == (GOLDEN / "equiv_teleport_identity.txt").read_text()
    assert out.strip() == "EQUIVALENT"


def test_equiv_coin_detzero(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv",
        cpath("coin.cqp"),
        cpath("coin.cqp"),
        "--left-entry",
        "Coin",
        "--right-entry",
        "DetZero",
    )
    assert code == 1
    assert out == (GOLDEN / "equiv_coin_detzero.txt").read_text()
    assert out.startswith("NOT EQUIVALENT")
    assert "probability" in out


def test_equiv_json_shape(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv",
        cpath("coin.cqp"),
        cpath("coin.cqp"),
        "--left-entry",
        "Coin",
        "--right-entry",
        "DetZero",
        "--json",
    )
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(
        doc,
        {
            "type": "object",
            "required": ["equivalent", "witness"],
            "properties": {
                "equivalent": {"type": "boolean"},
                "witness": {
                    "type": ["object", "null"],
                    "required": ["kind", "description"],
                    "properties": {
                        "kind": {"enum": ["label", "probability"]},
                        "description": {"type": "string"},
                        "left_probability": {"type": ["number", "null"]},
                        "right_probability": {"type": ["number", "null"]},
                        "instantiation": {"type": ["string", "null"]},
                    },
                },
            },
        },
    )
    assert doc["equivalent"] is False
    assert doc["witness"]["kind"] == "probability"


def test_equiv_basis_test_set_still_equivalent(capsys):
    code, out, _ = run_cli(
        capsys,
        "equiv",
        cpath("teleport.cqp"),
        cpath("identity.cqp"),
        "--qubit-tests",
        "basis",
    )
    assert code == 0 and out.strip() == "EQUIVALENT"


def test_equiv_custom_test_set_file(tmp_path, capsys):
    states = [
        {"name": "|0>", "amplitudes": [[1, 0], [0, 0]]},
        {"name": "|psi>", "amplitudes": [[0.6, 0], [0, 0.8]]},
    ]
    path = tmp_path / "tests.json"
    path.write_text(json.dumps(states))
    code, out, _ = run_cli(
        capsys,
        "equiv",
        cpath("teleport.cqp"),
        cpath("identity.cqp"),
        "--qubit-tests",
        f"file:{path}",
    )
    assert code == 0 and out.strip() == "EQUIVALENT"


# ---------------------------------------------------------------------------
# Error paths
# ---------------------------------------------------------------------------

def test_usage_error_exit_64(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 64
    assert run_cli(capsys, "equiv")[0] == 64


@pytest.mark.parametrize(
    "argv",
    [
        ("explore", "teleport.cqp", "--max-states", "0"),
        ("equiv", "teleport.cqp", "identity.cqp", "--max-states", "0"),
        ("run", "bell.cqp", "--max-steps", "-3"),
    ],
)
def test_bad_limit_is_a_usage_error(capsys, argv):
    command, *files, flag, value = argv
    code, _out, err = run_cli(capsys, command, *map(cpath, files), flag, value)
    assert code == 64
    assert err.startswith("usage:") and flag in err


REUSED_AFTER_SEND = "//: P : ^[Qbit]\nP(c) = (qbit x) c![x] . c![x] . 0\n"


@pytest.mark.parametrize(
    "argv",
    [("run", "{f}"), ("explore", "{f}"), ("equiv", "{f}", "{id}"), ("equiv", "{id}", "{f}")],
)
def test_ill_typed_program_is_refused(tmp_path, capsys, argv):
    bad = tmp_path / "reuse.cqp"
    bad.write_text(REUSED_AFTER_SEND)
    code, out, err = run_cli(
        capsys, *(a.format(f=bad, id=cpath("identity.cqp")) for a in argv)
    )
    assert code == 1
    assert out == ""
    assert "QubitUsedAfterSend" in err and "reuse.cqp:2:" in err


FORWARD = "Main(a, b) = a?[x] . b![x] . 0\n"


def test_equiv_same_named_entries_with_different_channel_types(tmp_path, capsys):
    qubits, bits = tmp_path / "qubits.cqp", tmp_path / "bits.cqp"
    qubits.write_text("//: Main : ^[Qbit], ^[Qbit]\n" + FORWARD)
    bits.write_text("//: Main : ^[Bit], ^[Bit]\n" + FORWARD)
    code, out, err = run_cli(capsys, "equiv", str(qubits), str(bits))
    assert code == 2
    assert out == ""
    assert "different channel types" in err


@pytest.mark.parametrize("argv", [("equiv", "{f}", "{id}"), ("equiv", "{id}", "{f}")])
def test_equiv_without_signature_exits_2(tmp_path, capsys, argv):
    bare = tmp_path / "bare.cqp"
    bare.write_text(FORWARD)
    code, out, err = run_cli(
        capsys, *(a.format(f=bare, id=cpath("identity.cqp")) for a in argv)
    )
    assert code == 2
    assert out == ""
    assert "no signature for process 'Main'" in err


def test_missing_file_exit_66(capsys):
    code, _out, err = run_cli(capsys, "parse", "no/such/file.cqp")
    assert code == 66
    assert "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "{f}"),
        ("typecheck", "{f}"),
        ("run", "{f}"),
        ("explore", "{f}"),
        ("equiv", "{f}", "{id}"),
        ("equiv", "{id}", "{f}"),
        ("run", "{id}", "--qubit-tests", "file:{f}"),
    ],
)
def test_non_utf8_file_exit_66(tmp_path, capsys, argv):
    bad = tmp_path / "utf16.cqp"
    bad.write_bytes(b"\xff\xfeP() = 0\n")
    code, _out, err = run_cli(
        capsys, *(a.format(f=bad, id=cpath("identity.cqp")) for a in argv)
    )
    assert code == 66
    assert "cannot read" in err and "utf16.cqp" in err
    assert "Traceback" not in err


def _one_state(name, amplitudes):
    return f'[{{"name": {name}, "amplitudes": {amplitudes}}}]'


@pytest.mark.parametrize("command", ["run", "explore", "equiv"])
@pytest.mark.parametrize(
    "content",
    [
        _one_state('"bad"', "[[NaN, 0], [0, 0]]"),
        _one_state('"bad"', "[[0, 0], [Infinity, 0]]"),
        _one_state('"bad"', "[[1e200, 0], [0, 0]]"),
        _one_state('"bad"', "[[1" + "0" * 400 + ", 0], [0, 0]]"),
        _one_state("[1]", "[[1, 0], [0, 0]]"),
        "[" * 100_000,
    ],
    ids=["nan", "infinity", "float-overflow", "int-overflow", "list-name", "deep-nesting"],
)
def test_bad_qubit_test_file_is_an_input_error(tmp_path, capsys, command, content):
    path = tmp_path / "tests.json"
    path.write_text(content)
    files = [cpath("teleport.cqp")] + ([cpath("identity.cqp")] if command == "equiv" else [])
    code, _out, err = run_cli(capsys, command, *files, "--qubit-tests", f"file:{path}")
    assert code == 2
    assert err.startswith("bad qubit test set")


def test_unknown_entry_is_an_error(capsys):
    code, _out, _err = run_cli(
        capsys, "run", cpath("teleport.cqp"), "--entry", "Missing"
    )
    assert code == 2


def test_module_entrypoint_runs():
    # The child process imports the same cqpkit as this one.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "cqpkit", "parse", cpath("identity.cqp")],
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    assert result.returncode == 0
    assert "Identity" in result.stdout


# ---------------------------------------------------------------------------
# Fuzzing: no input makes ``cqp`` raise or exit with an undocumented code
# ---------------------------------------------------------------------------

CORPUS_SOURCES = [corpus_path(e.path).read_bytes() for e in CORPUS]
FRAGMENTS = [b"(", b")", b"|", b".", b",", b"0", b"1", b"x", b"c", b"?[x]", b"![x]",
             b"(qbit y)", b"(new c)", b"{x *= H}", b"measure x", b"P(c)", b"//: P : ^[Qbit]\n"]
COMMANDS = [
    ("parse", "{f}"),
    ("typecheck", "{f}"),
    ("run", "{f}", "--max-steps", "50"),
    ("explore", "{f}", "--max-states", "300"),
    ("equiv", "{f}", "{id}", "--max-states", "300"),
]


@st.composite
def mutated_corpus_source(draw):
    """A corpus file with a few byte ranges replaced by grammar fragments,
    other parts of the file, or random bytes."""
    data = bytearray(draw(st.sampled_from(CORPUS_SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 12)))
        k = draw(st.integers(0, len(data)))
        data[i:j] = draw(
            st.sampled_from(FRAGMENTS)
            | st.just(bytes(data[k : k + 12]))
            | st.binary(max_size=3)
        )
    return bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    source=st.binary(max_size=64) | mutated_corpus_source(),
    command=st.sampled_from(COMMANDS),
)
def test_fuzzed_sources_exit_with_a_documented_code(tmp_path_factory, source, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.cqp"
    path.write_bytes(source)
    argv = [a.format(f=path, id=cpath("identity.cqp")) for a in command]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 64, 66, 70)

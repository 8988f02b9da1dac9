"""Command-line driver: parse, typecheck, run, explore, equiv.

Exit codes: 0 success (or EQUIVALENT), 1 expected failure (diagnostics
found, NOT EQUIVALENT, parse failure under ``parse``), 2 internal or input
error, 64 usage error, 66 unreadable file, 70 state, component or qubit cap
exceeded.

``run``, ``explore`` and ``equiv`` type-check their programs first and
print the diagnostics and exit 1 when the checker rejects one.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys

from . import equiv, qstate, semantics, typecheck
from .semantics import (
    DEFAULT_MAX_STATES,
    BASIS_TEST_QUBITS,
    DEFAULT_TEST_QUBITS,
    TestQubit,
    render_label,
)
from .syntax import ParseError, parse_program, pretty_print, pretty_print_program

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_USAGE = 64
EXIT_FILE = 66
EXIT_CAP = 70


class _CliExit(Exception):
    def __init__(self, code: int, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliExit(EXIT_USAGE, f"{self.prog}: error: {message}")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliExit(EXIT_FILE, f"cannot read {path}: {exc}") from exc


def _load(path: str, parse_exit: int = EXIT_ERROR):
    source = _read_file(path)
    try:
        program = parse_program(source)
        signatures = typecheck.parse_signatures(source)
    except ParseError as exc:
        raise _CliExit(parse_exit, f"{path}:{exc}") from exc
    except typecheck.SignatureError as exc:
        raise _CliExit(EXIT_ERROR, f"{path}: {exc}") from exc
    return program, signatures


def _diagnostics(program, signatures: dict, path: str) -> list:
    try:
        return typecheck.typecheck_program(program, signatures)
    except typecheck.SignatureError as exc:
        raise _CliExit(EXIT_ERROR, f"{path}: {exc}") from exc


def _load_well_typed(path: str):
    """``_load``, then refuse a program the linear type checker rejects:
    running it could clone or reuse a qubit that was sent away."""
    program, signatures = _load(path)
    diagnostics = _diagnostics(program, signatures, path)
    if diagnostics:
        raise _CliExit(EXIT_FAIL, "\n".join(d.render(path) for d in diagnostics))
    return program, signatures


def _default_entry(program) -> str:
    for d in program.definitions:
        if d.name == "Main":
            return "Main"
    return program.definitions[-1].name


def _pick_entry(program, requested: str | None) -> str:
    if requested is None:
        return _default_entry(program)
    try:
        program.definition(requested)
    except KeyError:
        raise _CliExit(EXIT_ERROR, f"unknown process {requested!r}") from None
    return requested


def _test_qubits(spec: str) -> tuple:
    if spec == "default":
        return DEFAULT_TEST_QUBITS
    if spec == "basis":
        return BASIS_TEST_QUBITS
    if spec.startswith("file:"):
        raw = _read_file(spec[len("file:") :])
        try:
            entries = json.loads(raw)
            out = []
            for e in entries:
                name = e["name"]
                if not isinstance(name, str):
                    raise ValueError(f"test state name {name!r} is not a string")
                (r0, i0), (r1, i1) = e["amplitudes"]
                a0, a1 = complex(r0, i0), complex(r1, i1)
                if not (cmath.isfinite(a0) and cmath.isfinite(a1)):
                    raise ValueError(f"test state {name!r} has a non-finite amplitude")
                norm = math.hypot(a0.real, a0.imag, a1.real, a1.imag)
                if abs(norm * norm - 1.0) > qstate.ATOL:
                    raise ValueError(f"test state {name!r} is not normalized")
                out.append(TestQubit(name, a0, a1))
            if not out:
                raise ValueError("empty test set")
            return tuple(out)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
            raise _CliExit(EXIT_ERROR, f"bad qubit test set: {exc}") from exc
    raise _CliExit(EXIT_ERROR, f"--qubit-tests must be basis, default or file:<path>")


def _initial_run(args):
    """The initial configuration and full input alphabet of the entry of
    ``args.file``, refused when the program is ill-typed; shared by ``run``
    and ``explore``."""
    program, signatures = _load_well_typed(args.file)
    entry = _pick_entry(program, args.entry)
    test_qubits = _test_qubits(args.qubit_tests)
    config = semantics.initial_configuration(program, entry, signatures=signatures)
    return config, semantics.input_alphabet(program, entry, signatures[entry], test_qubits)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    program, _sigs = _load(args.file, parse_exit=EXIT_FAIL)
    if args.json:
        doc = {
            "definitions": [
                {
                    "name": d.name,
                    "params": list(d.params),
                    "body": pretty_print(d.body),
                }
                for d in program.definitions
            ]
        }
        print(json.dumps(doc, indent=2))
    else:
        print(pretty_print_program(program))
    return EXIT_OK


def _cmd_typecheck(args) -> int:
    program, signatures = _load(args.file)
    diagnostics = _diagnostics(program, signatures, args.file)
    if args.json:
        doc = {
            "diagnostics": [
                {
                    "file": args.file,
                    "line": d.line,
                    "col": d.col,
                    "category": d.category,
                    "message": d.message,
                }
                for d in diagnostics
            ]
        }
        print(json.dumps(doc, indent=2))
    else:
        for d in diagnostics:
            print(d.render(args.file))
    return EXIT_FAIL if diagnostics else EXIT_OK


def _cmd_run(args) -> int:
    config, alphabet = _initial_run(args)
    trace = semantics.run_sampled(config, args.seed, alphabet, max_steps=args.max_steps)
    if args.json:
        steps = []
        for i, ts in enumerate(trace):
            entry_doc = {
                "step": i,
                "label": render_label(ts.label),
                # Adding 0.0 turns -0.0 into 0.0, so no output shows a zero's sign.
                "state": [
                    [z.real + 0.0, z.imag + 0.0] for z in ts.config.qstate.amplitudes
                ],
                "term": pretty_print(ts.config.term),
            }
            if ts.probability is not None:
                entry_doc["probability"] = ts.probability
            steps.append(entry_doc)
        print(json.dumps({"seed": args.seed, "steps": steps}, indent=2))
    else:
        for ts in trace:
            print(
                f"{render_label(ts.label)} | {qstate.dirac(ts.config.qstate)} | "
                f"{pretty_print(ts.config.term)}"
            )
    return EXIT_OK


def _cmd_explore(args) -> int:
    config, alphabet = _initial_run(args)
    plts = semantics.explore(config, max_states=args.max_states, alphabet=alphabet)
    if args.json:
        print(plts.dump_json())
    else:
        nondet = sum(1 for s in plts.states if s.kind == "nondet")
        prob = sum(1 for s in plts.states if s.kind == "prob")
        terminal = sum(1 for s in plts.states if s.terminal)
        print(
            f"states: {len(plts.states)} (nondeterministic: {nondet}, "
            f"probabilistic: {prob}, terminal: {terminal})"
        )
        print(f"edges: {len(plts.edges)}")
        print(f"initial: {plts.initial}")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    program_a, sigs_a = _load_well_typed(args.left)
    program_b, sigs_b = _load_well_typed(args.right)
    entry_a = _pick_entry(program_a, args.left_entry)
    entry_b = _pick_entry(program_b, args.right_entry)
    test_qubits = _test_qubits(args.qubit_tests)
    try:
        verdict = equiv.check_equivalence(
            program_a,
            entry_a,
            program_b,
            entry_b,
            sigs_a,
            sigs_b,
            test_qubits=test_qubits,
            max_states=args.max_states,
        )
    except ValueError as exc:
        raise _CliExit(EXIT_ERROR, str(exc)) from exc
    if args.json:
        witness = None if verdict.witness is None else dataclasses.asdict(verdict.witness)
        print(json.dumps({"equivalent": verdict.equivalent, "witness": witness}, indent=2))
    else:
        print(verdict.render())
    return EXIT_OK if verdict.equivalent else EXIT_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="cqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, entry=True):
        if entry:
            p.add_argument("--entry", help="entry process (default: Main, else the last definition)")
        p.add_argument(
            "--qubit-tests",
            default="default",
            help="external qubit inputs: basis | default | file:<path>",
        )

    p_parse = sub.add_parser("parse", help="parse a file and print its canonical form")
    p_parse.add_argument("file")
    p_parse.add_argument("--json", action="store_true")
    p_parse.set_defaults(func=_cmd_parse)

    p_type = sub.add_parser("typecheck", help="run the linear type checker")
    p_type.add_argument("file")
    p_type.add_argument("--json", action="store_true")
    p_type.set_defaults(func=_cmd_typecheck)

    p_run = sub.add_parser("run", help="sample one seeded execution trace")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--max-steps", type=_int_at_least(0), default=None)
    p_run.add_argument("--json", action="store_true")
    common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_exp = sub.add_parser("explore", help="exhaustively explore to a PLTS")
    p_exp.add_argument("file")
    p_exp.add_argument("--max-states", type=_int_at_least(1), default=DEFAULT_MAX_STATES)
    p_exp.add_argument("--json", action="store_true")
    common(p_exp)
    p_exp.set_defaults(func=_cmd_explore)

    p_eq = sub.add_parser("equiv", help="decide probabilistic branching bisimilarity")
    p_eq.add_argument("left")
    p_eq.add_argument("right")
    p_eq.add_argument("--left-entry")
    p_eq.add_argument("--right-entry")
    p_eq.add_argument("--max-states", type=_int_at_least(1), default=DEFAULT_MAX_STATES)
    p_eq.add_argument("--json", action="store_true")
    common(p_eq, entry=False)
    p_eq.set_defaults(func=_cmd_equiv)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliExit as exc:
        if exc.message:
            print(exc.message, file=sys.stderr)
        return exc.code
    except qstate.CapacityError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    except (semantics.SemanticsError, typecheck.SignatureError, ParseError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

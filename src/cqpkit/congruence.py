"""Congruence spot-checking by sampling process contexts.

Behavioural equivalence should be preserved by every surrounding process
context. A full proof of that is theory work; this module provides sampling
evidence: it generates random well-typed contexts (parallel observers,
channel relays, wrappings of the plugged process's input and output) and
checks that two already-equivalent processes stay equivalent inside each.

A context is a process term with exactly one hole. Filling the hole does
*not* rename anything: the plugged process's free channel names are
captured by the context's binders, which is what makes a context a context.
Every template here plugs a call ``Entry(hin, hout)`` whose two channels
carry one qubit each.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

from . import equiv, semantics, typecheck
from .syntax import (
    Call,
    GateAction,
    FixedGate,
    Hole,
    Input,
    MeasureExpr,
    NewChannel,
    Nil,
    Output,
    Parallel,
    ProcessDef,
    ProcessTerm,
    Program,
    QbitAlloc,
    Var,
    pretty_print,
)
from .typecheck import BIT, QBIT, ChannelType

QUBIT_CHANNEL = ChannelType((QBIT,))
BIT_CHANNEL = ChannelType((BIT,))


@dataclass(frozen=True)
class ProcessContext:
    """A term with exactly one hole plus the visible channels it exposes."""

    name: str
    term: ProcessTerm
    params: tuple  # of (channel name, ChannelType)

    def __post_init__(self):
        if _count_holes(self.term) != 1:
            raise ValueError(f"context {self.name!r} must have exactly one hole")


def _count_holes(term: ProcessTerm) -> int:
    if isinstance(term, Hole):
        return 1
    if isinstance(term, Parallel):
        return _count_holes(term.left) + _count_holes(term.right)
    if isinstance(term, (Input, Output, GateAction, QbitAlloc, NewChannel)):
        return _count_holes(term.continuation)
    return 0


def fill(context: ProcessContext | ProcessTerm, plug: ProcessTerm) -> ProcessTerm:
    """Replace the hole with ``plug``; free names of ``plug`` are captured."""
    term = context.term if isinstance(context, ProcessContext) else context
    if isinstance(term, Hole):
        return plug
    if isinstance(term, Parallel):
        return Parallel(left=fill(term.left, plug), right=fill(term.right, plug))
    if isinstance(term, (Input, Output, GateAction, QbitAlloc, NewChannel)):
        return dataclasses.replace(term, continuation=fill(term.continuation, plug))
    return term


# ---------------------------------------------------------------------------
# Context templates
# ---------------------------------------------------------------------------

def _gates(rng: random.Random, target: str, cont: ProcessTerm, max_gates: int = 2) -> ProcessTerm:
    for _ in range(rng.randint(0, max_gates)):
        name = rng.choice(["I", "H", "X", "Z"])
        cont = GateAction(targets=(target,), gate=FixedGate(name=name), continuation=cont)
    return cont


def _feeder(rng: random.Random, channel: str, qubit: str, cont: ProcessTerm) -> ProcessTerm:
    """Allocate a qubit, scramble it a little, send it on ``channel``."""
    send = Output(channel=channel, payload=(Var(name=qubit),), continuation=cont)
    return QbitAlloc(binders=(qubit,), continuation=_gates(rng, qubit, send))


def _tpl_trivial(rng: random.Random) -> ProcessContext:
    return ProcessContext(
        "trivial-hole",
        Hole(),
        (("hin", QUBIT_CHANNEL), ("hout", QUBIT_CHANNEL)),
    )


def _tpl_feeder(rng: random.Random) -> ProcessContext:
    term = NewChannel(
        binder="hin",
        continuation=Parallel(left=Hole(), right=_feeder(rng, "hin", "z", Nil())),
    )
    return ProcessContext("parallel-feeder", term, (("hout", QUBIT_CHANNEL),))


def _tpl_observer(rng: random.Random) -> ProcessContext:
    receive = Input(
        channel="hout",
        binders=("w",),
        continuation=_gates(
            rng,
            "w",
            Output(
                channel="res",
                payload=(MeasureExpr(names=("w",)),),
                continuation=Nil(),
            ),
            max_gates=1,
        ),
    )
    term = NewChannel(
        binder="hin",
        continuation=NewChannel(
            binder="hout",
            continuation=Parallel(left=Hole(), right=_feeder(rng, "hin", "z", receive)),
        ),
    )
    return ProcessContext("feed-and-measure", term, (("res", BIT_CHANNEL),))


def _tpl_out_relay(rng: random.Random) -> ProcessContext:
    relay = Input(
        channel="hout",
        binders=("z",),
        continuation=_gates(
            rng, "z", Output(channel="d", payload=(Var(name="z"),), continuation=Nil()), 1
        ),
    )
    term = NewChannel(binder="hout", continuation=Parallel(left=Hole(), right=relay))
    return ProcessContext(
        "output-relay", term, (("hin", QUBIT_CHANNEL), ("d", QUBIT_CHANNEL))
    )


def _tpl_in_relay(rng: random.Random) -> ProcessContext:
    relay = Input(
        channel="e",
        binders=("z",),
        continuation=Output(channel="hin", payload=(Var(name="z"),), continuation=Nil()),
    )
    term = NewChannel(binder="hin", continuation=Parallel(left=relay, right=Hole()))
    return ProcessContext(
        "input-relay", term, (("e", QUBIT_CHANNEL), ("hout", QUBIT_CHANNEL))
    )


def _tpl_noise(rng: random.Random) -> ProcessContext:
    noise = QbitAlloc(
        binders=("w",),
        continuation=GateAction(
            targets=("w",),
            gate=FixedGate(name="H"),
            continuation=Output(
                channel="n", payload=(MeasureExpr(names=("w",)),), continuation=Nil()
            ),
        ),
    )
    term = Parallel(left=Hole(), right=noise)
    return ProcessContext(
        "parallel-noise",
        term,
        (("hin", QUBIT_CHANNEL), ("hout", QUBIT_CHANNEL), ("n", BIT_CHANNEL)),
    )


def _tpl_double_relay(rng: random.Random) -> ProcessContext:
    relay_in = Input(
        channel="e",
        binders=("z",),
        continuation=Output(channel="hin", payload=(Var(name="z"),), continuation=Nil()),
    )
    relay_out = Input(
        channel="hout",
        binders=("w",),
        continuation=Output(channel="d", payload=(Var(name="w"),), continuation=Nil()),
    )
    term = NewChannel(
        binder="hin",
        continuation=NewChannel(
            binder="hout",
            continuation=Parallel(
                left=relay_in, right=Parallel(left=Hole(), right=relay_out)
            ),
        ),
    )
    return ProcessContext(
        "double-relay", term, (("e", QUBIT_CHANNEL), ("d", QUBIT_CHANNEL))
    )


TEMPLATES = (
    _tpl_trivial,
    _tpl_feeder,
    _tpl_observer,
    _tpl_out_relay,
    _tpl_in_relay,
    _tpl_noise,
    _tpl_double_relay,
)


def generate_context(rng: random.Random) -> ProcessContext:
    return rng.choice(TEMPLATES)(rng)


# ---------------------------------------------------------------------------
# Sampling driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceSample:
    context_name: str
    context_source: str
    outcome: str  # "equivalent" | "counterexample" | "skipped"
    detail: str = ""


@dataclass
class CongruenceReport:
    total: int
    passed: int
    counterexamples: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    samples: list = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"congruence samples: {self.total}, passed: {self.passed}, "
            f"counterexamples: {len(self.counterexamples)}, skipped: {len(self.skipped)}"
        ]
        for s in self.counterexamples:
            lines.append(f"  COUNTEREXAMPLE {s.context_name}: {s.detail}")
            lines.append(f"    context: {s.context_source}")
        for s in self.skipped:
            lines.append(f"  skipped {s.context_name}: {s.detail}")
        return "\n".join(lines)


def _context_program(
    program: Program, signatures: dict, entry: str, context: ProcessContext
) -> tuple[Program, dict, str]:
    """Wrap ``entry`` in the context, producing a new closed program whose
    main definition exposes the context's channels."""
    main_name = "CtxMain"
    existing = {d.name for d in program.definitions}
    k = 1
    while main_name in existing:
        main_name = f"CtxMain_{k}"
        k += 1
    plug = Call(process=entry, args=("hin", "hout"))
    body = fill(context, plug)
    main = ProcessDef(main_name, tuple(n for n, _t in context.params), body)
    new_program = Program(program.definitions + (main,))
    new_sigs = dict(signatures)
    new_sigs[main_name] = tuple(t for _n, t in context.params)
    return new_program, new_sigs, main_name


def check_congruence_samples(
    program_a: Program,
    entry_a: str,
    program_b: Program,
    entry_b: str,
    signatures_a: dict,
    signatures_b: dict | None = None,
    seed: int = 0,
    count: int = 50,
    test_qubits=semantics.DEFAULT_TEST_QUBITS,
    max_states: int = semantics.DEFAULT_MAX_STATES,
) -> CongruenceReport:
    """Check ``C[A] ~ C[B]`` for ``count`` sampled contexts.

    Samples whose exploration exceeds the state cap are reported as
    skipped, not failed. This is sampling evidence, not a proof.
    """
    if signatures_b is None:
        signatures_b = signatures_a
    for entry, sigs in ((entry_a, signatures_a), (entry_b, signatures_b)):
        sig = sigs[entry]
        if tuple(sig) != (QUBIT_CHANNEL, QUBIT_CHANNEL):
            raise ValueError(
                f"context templates expect {entry!r} to expose two qubit channels"
            )
    rng = random.Random(seed)
    report = CongruenceReport(total=count, passed=0)
    for _ in range(count):
        context = generate_context(rng)
        prog_a, sigs_a, main_a = _context_program(program_a, signatures_a, entry_a, context)
        prog_b, sigs_b, main_b = _context_program(program_b, signatures_b, entry_b, context)
        source = pretty_print(fill(context, Call(process=entry_a, args=("hin", "hout"))))
        diags = typecheck.typecheck_program(prog_a, sigs_a) + typecheck.typecheck_program(
            prog_b, sigs_b
        )
        if diags:
            sample = CongruenceSample(
                context.name, source, "skipped", f"generated context is ill-typed: {diags[0]}"
            )
            report.skipped.append(sample)
            report.samples.append(sample)
            continue
        try:
            verdict = equiv.check_equivalence(
                prog_a,
                main_a,
                prog_b,
                main_b,
                sigs_a,
                sigs_b,
                test_qubits=test_qubits,
                max_states=max_states,
            )
        except semantics.ExplorationLimitError as exc:
            sample = CongruenceSample(context.name, source, "skipped", str(exc))
            report.skipped.append(sample)
            report.samples.append(sample)
            continue
        if verdict.equivalent:
            report.passed += 1
            sample = CongruenceSample(context.name, source, "equivalent")
        else:
            detail = verdict.witness.description if verdict.witness else "no witness"
            sample = CongruenceSample(context.name, source, "counterexample", detail)
            report.counterexamples.append(sample)
        report.samples.append(sample)
    return report

"""Congruence spot-checking by sampling process contexts.

Behavioural equivalence should be preserved by every surrounding process
context. A full proof of that is theory work; this module provides sampling
evidence: it generates random well-typed contexts (parallel observers,
channel relays, wrappings of the plugged process's input and output) and
checks that two already-equivalent processes stay equivalent inside each.

A context is ``.cqp`` process source holding exactly one call
``PLUG(hin,hout)``. Plugging a process renames that call to the process's
entry name and parses the result, and renames nothing else: the plugged
process's free channel names are captured by the context's binders, which
is what makes a context a context. Every template here plugs a call
``Entry(hin, hout)`` whose two channels carry one qubit each.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from . import equiv, semantics, typecheck
from .syntax import ProcessDef, ProcessTerm, Program, parse_process, pretty_print
from .typecheck import BIT, QBIT, ChannelType

QUBIT_CHANNEL = ChannelType((QBIT,))
BIT_CHANNEL = ChannelType((BIT,))

_PLUG = re.compile(r"\bPLUG\b")


@dataclass(frozen=True)
class ProcessContext:
    """``.cqp`` process source with exactly one ``PLUG(hin,hout)`` call,
    plus the visible channels the context exposes.

    Plugging renames only the ``PLUG`` call, so the plugged process's free
    channels ``hin`` and ``hout`` are captured by the context's binders:
    a ``(new ...)`` in ``source``, or one of ``params``.
    """

    name: str
    source: str
    params: tuple  # of (channel name, ChannelType)

    def __post_init__(self):
        if len(_PLUG.findall(self.source)) != 1:
            raise ValueError(f"context {self.name!r} must have exactly one PLUG call")


def plug(context: ProcessContext, entry: str) -> ProcessTerm:
    """Parse ``context`` with its ``PLUG`` call renamed to ``entry``."""
    return parse_process(_PLUG.sub(entry, context.source))


# ---------------------------------------------------------------------------
# Context templates
# ---------------------------------------------------------------------------

def _gates(rng: random.Random, target: str, max_gates: int = 2) -> str:
    """Up to ``max_gates`` random gate prefixes on ``target``, as source text;
    the gate drawn last acts first."""
    prefix = ""
    for _ in range(rng.randint(0, max_gates)):
        prefix = f"{{{target} *= {rng.choice(['I', 'H', 'X', 'Z'])}}} . " + prefix
    return prefix


def _tpl_trivial(rng: random.Random) -> ProcessContext:
    return ProcessContext(
        "trivial-hole",
        "PLUG(hin,hout)",
        (("hin", QUBIT_CHANNEL), ("hout", QUBIT_CHANNEL)),
    )


def _tpl_feeder(rng: random.Random) -> ProcessContext:
    """Allocate a qubit, scramble it a little, send it on ``hin``."""
    return ProcessContext(
        "parallel-feeder",
        f"(new hin) (PLUG(hin,hout) | (qbit z) {_gates(rng, 'z')}hin![z] . 0)",
        (("hout", QUBIT_CHANNEL),),
    )


def _tpl_observer(rng: random.Random) -> ProcessContext:
    # The observer's gates are drawn before the feeder's.
    measure = f"hout?[w] . {_gates(rng, 'w', 1)}res![measure w] . 0"
    return ProcessContext(
        "feed-and-measure",
        f"(new hin) (new hout) (PLUG(hin,hout) | (qbit z) {_gates(rng, 'z')}hin![z] . {measure})",
        (("res", BIT_CHANNEL),),
    )


def _tpl_out_relay(rng: random.Random) -> ProcessContext:
    return ProcessContext(
        "output-relay",
        f"(new hout) (PLUG(hin,hout) | hout?[z] . {_gates(rng, 'z', 1)}d![z] . 0)",
        (("hin", QUBIT_CHANNEL), ("d", QUBIT_CHANNEL)),
    )


def _tpl_in_relay(rng: random.Random) -> ProcessContext:
    return ProcessContext(
        "input-relay",
        "(new hin) (e?[z] . hin![z] . 0 | PLUG(hin,hout))",
        (("e", QUBIT_CHANNEL), ("hout", QUBIT_CHANNEL)),
    )


def _tpl_noise(rng: random.Random) -> ProcessContext:
    return ProcessContext(
        "parallel-noise",
        "(PLUG(hin,hout) | (qbit w) {w *= H} . n![measure w] . 0)",
        (("hin", QUBIT_CHANNEL), ("hout", QUBIT_CHANNEL), ("n", BIT_CHANNEL)),
    )


def _tpl_double_relay(rng: random.Random) -> ProcessContext:
    return ProcessContext(
        "double-relay",
        "(new hin) (new hout) (e?[z] . hin![z] . 0 | (PLUG(hin,hout) | hout?[w] . d![w] . 0))",
        (("e", QUBIT_CHANNEL), ("d", QUBIT_CHANNEL)),
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
    main = ProcessDef(main_name, tuple(n for n, _t in context.params), plug(context, entry))
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

    Samples whose exploration exceeds the state or component cap are
    reported as skipped, not failed. This is sampling evidence, not a proof.
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
        source = pretty_print(prog_a.definition(main_a).body)
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

"""Congruence spot-checking by sampling process contexts.

Behavioural equivalence should be preserved by every surrounding process
context. A full proof of that is theory work; this module provides sampling
evidence: it generates random well-typed contexts (parallel observers,
channel relays, wrappings of the plugged process's input and output) and
checks that two already-equivalent processes stay equivalent inside each.

A context is ``.cqp`` process source holding exactly one call
``PLUG(hin,hout)``. A context is parsed once, and plugging a process
renames that call in the parsed term to the process's entry name, and
renames nothing else: the plugged process's free channel names are
captured by the context's binders, which is what makes a context a
context. The two processes of a check share the parse. Every template here plugs a call
``Entry(hin, hout)`` whose two channels carry one qubit each.

Most templates draw few or no random gates, so a run of samples draws many
contexts more than once (34 of the 50 drawn from seed 2024 repeat an
earlier one). Within one call of ``check_congruence_samples`` each distinct
context is plugged, type-checked and checked once, and a repeat reuses its
sample; the report is the one checking every draw would give.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass, field, replace

from . import equiv, qstate, typecheck
from .syntax import Call, Parallel, ProcessDef, ProcessTerm, Program, parse_process, pretty_print
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

    @functools.cached_property
    def term(self) -> ProcessTerm:
        """``source`` parsed, with its hole still a call of ``PLUG``."""
        return parse_process(self.source)


def plug(context: ProcessContext, entry: str) -> ProcessTerm:
    """``context``'s term with its ``PLUG`` call renamed to ``entry``. Only
    the nodes on the path to the call are made anew; every other subterm is
    shared with the context's one parse, whose positions it keeps."""
    plugged = _renamed(context.term, entry)
    if plugged is None:
        raise ValueError(f"context {context.name!r} has no PLUG call")
    return plugged


def _renamed(term: ProcessTerm, entry: str) -> ProcessTerm | None:
    """``term`` with its ``PLUG`` call renamed to ``entry``, or None when
    it holds none."""
    if isinstance(term, Call):
        return replace(term, process=entry) if term.process == "PLUG" else None
    if isinstance(term, Parallel):
        left = _renamed(term.left, entry)
        if left is not None:
            return replace(term, left=left)
        right = _renamed(term.right, entry)
        return None if right is None else replace(term, right=right)
    continuation = getattr(term, "continuation", None)
    if continuation is None:
        return None
    renamed = _renamed(continuation, entry)
    return None if renamed is None else replace(term, continuation=renamed)


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
    signatures_b: dict,
    seed: int = 0,
    count: int = 50,
) -> CongruenceReport:
    """Check ``C[A] ~ C[B]`` for ``count`` sampled contexts.

    Samples whose exploration exceeds the state, component or qubit cap
    are reported as skipped, not failed. This is sampling evidence, not a proof.

    Every context is drawn from the seeded generator in order, but each
    distinct ``ProcessContext`` is checked only once per call: a repeated
    draw appends the sample of its first draw again, to ``samples`` and to
    ``passed``, ``counterexamples`` or ``skipped``, whichever that sample
    went to. The report is the one that checking every draw would give,
    since a sample depends only on the context: the two programs, entries
    and signatures are fixed for the call, type checking is a function of
    the program, and ``check_equivalence`` explores and refines
    deterministically, with no state kept between checks. The memo lives
    only as long as the call.
    """
    for entry, sigs in ((entry_a, signatures_a), (entry_b, signatures_b)):
        sig = sigs[entry]
        if tuple(sig) != (QUBIT_CHANNEL, QUBIT_CHANNEL):
            raise ValueError(
                f"context templates expect {entry!r} to expose two qubit channels"
            )
    # Only a context's main definition is new, and the checker reads just the
    # signatures of the processes it calls, so each base program is checked once.
    base_a = typecheck.typecheck_program(program_a, signatures_a)
    base_b = typecheck.typecheck_program(program_b, signatures_b)

    def check(context: ProcessContext) -> CongruenceSample:
        prog_a, sigs_a, main_a = _context_program(program_a, signatures_a, entry_a, context)
        prog_b, sigs_b, main_b = _context_program(program_b, signatures_b, entry_b, context)
        ctx_a, ctx_b = prog_a.definition(main_a), prog_b.definition(main_b)
        source = pretty_print(ctx_a.body)
        diags = (
            base_a
            + typecheck.typecheck_program(Program((ctx_a,)), sigs_a)
            + base_b
            + typecheck.typecheck_program(Program((ctx_b,)), sigs_b)
        )
        if diags:
            return CongruenceSample(
                context.name, source, "skipped", f"generated context is ill-typed: {diags[0]}"
            )
        try:
            verdict = equiv.check_equivalence(prog_a, main_a, prog_b, main_b, sigs_a, sigs_b)
        except qstate.CapacityError as exc:
            return CongruenceSample(context.name, source, "skipped", str(exc))
        if verdict.equivalent:
            return CongruenceSample(context.name, source, "equivalent")
        detail = verdict.witness.description if verdict.witness else "no witness"
        return CongruenceSample(context.name, source, "counterexample", detail)

    rng = random.Random(seed)
    report = CongruenceReport(total=count, passed=0)
    checked: dict[ProcessContext, CongruenceSample] = {}
    for _ in range(count):
        context = generate_context(rng)
        sample = checked.get(context)
        if sample is None:
            sample = checked[context] = check(context)
        if sample.outcome == "equivalent":
            report.passed += 1
        elif sample.outcome == "counterexample":
            report.counterexamples.append(sample)
        else:
            report.skipped.append(sample)
        report.samples.append(sample)
    return report

"""The benchmark's workloads: program generation, set-up, and one round each.

Every round of a workload performs the same operations, so the share of
failed operations does not depend on how many rounds fit in a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import checks
from speed import Interval, SpeedProbe
from cqpkit import congruence, corpus, equiv, qstate, semantics, syntax, typecheck
from cqpkit.semantics import BASIS_TEST_QUBITS, DEFAULT_TEST_QUBITS, CommLabel

GATES = ("I", "X", "Z", "H")
TEST_SETS = {
    "default": DEFAULT_TEST_QUBITS,
    "basis": BASIS_TEST_QUBITS,
    # k=3 explores about 15k states per input, so its checks use one input.
    "plus": (DEFAULT_TEST_QUBITS[2],),
}
# (hops, trailing gate or None, test set) for every check_equivalence of a chain
# round. Checks of 1 hop run twice and of 2 hops three times per round, so
# that the median and the tail fall inside groups of alike checks rather
# than on the seam between two groups.
CHAIN_CHECKS = tuple(
    check
    for k, repeats in ((1, 2), (2, 3))
    for check in ([(k, None, "default")] + [(k, g, s) for g in GATES for s in ("default", "basis")]) * repeats
) + ((3, None, "plus"), (3, "Z", "plus"))

CONGRUENCE_SEED = 2024
CONGRUENCE_CONTEXTS = 50
SIMULATE_HOPS = 5
SIMULATE_RUNS = 50  # seeded runs per round
# Seeds of one benchmark run start at --seed * SIMULATE_SEED_STRIDE.
SIMULATE_SEED_STRIDE = 100_000

# Failures that cqpkit reports for a program; anything else is a defect and
# stops the benchmark.
PROGRAM_ERRORS = (semantics.SemanticsError, qstate.CapacityError)


@dataclass
class Round:
    interval: Interval | None = None
    ops: list = field(default_factory=list)  # (label, Interval) of each operation that returned
    states: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # simulate: per run, per hop


class Recorder:
    """Hooks present in every run, traced or not: the time and verdict of
    each ``check_equivalence``, the state count of each PLTS that ``explore``
    returns, and the configurations that ``step`` builds."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.checks: list[tuple[Interval, object]] = []
        self.states = 0
        self.built = 0
        self.keep: list | None = None  # receives (alphabet, plts) while set

    def install(self, count_built: bool):
        check = equiv.check_equivalence
        explore = semantics.explore
        step = semantics.step

        def timed_check(*args, **kwargs):
            mark = self.probe.mark()
            verdict = check(*args, **kwargs)
            self.checks.append((self.probe.interval(mark), verdict))
            return verdict

        def counted_explore(*args, **kwargs):
            plts = explore(*args, **kwargs)
            self.states += len(plts.states)
            if self.keep is not None:
                self.keep.append((kwargs.get("alphabet"), plts))
            return plts

        def counted_step(*args, **kwargs):
            transitions = step(*args, **kwargs)
            self.built += sum(len(t.outcomes) for t in transitions)
            return transitions

        equiv.check_equivalence = timed_check
        semantics.explore = counted_explore
        if count_built:
            semantics.step = counted_step


def _entry(k: int) -> str:
    return "Teleport" if k == 1 else f"Chain{k}"


def chain_source(max_k: int, gates=()) -> str:
    """Teleport chains ``Chain_k(a,b) = (new m)(Chain_{k-1}(a,m) | Teleport(m,b))``
    for k <= max_k, ``Identity``, and ``Chain{k}{U}``: chain k followed by a
    hop that applies gate U."""
    lines = [
        corpus.read_corpus_file("teleport.cqp"),
        "//: Identity : ^[Qbit], ^[Qbit]",
        "Identity(c, d) = c?[x] . d![x] . 0",
    ]
    for k in range(2, max_k + 1):
        lines += [
            f"//: Chain{k} : ^[Qbit], ^[Qbit]",
            f"Chain{k}(a, b) = (new m) ({_entry(k - 1)}(a, m) | Teleport(m, b))",
        ]
    for g in gates:
        lines += [f"//: Hop{g} : ^[Qbit], ^[Qbit]", f"Hop{g}(c, d) = c?[x] . {{x *= {g}}} . d![x] . 0"]
        for k in range(1, max_k + 1):
            lines += [
                f"//: Chain{k}{g} : ^[Qbit], ^[Qbit]",
                f"Chain{k}{g}(a, b) = (new m) ({_entry(k)}(a, m) | Hop{g}(m, b))",
            ]
    return "\n".join(lines) + "\n"


def harness_source(hops: int) -> str:
    """A closed harness: prepare |+>, send it through ``hops`` teleports, receive it as w."""
    return chain_source(hops) + (
        "//: Harness :\n"
        f"Harness() = (new a) (new b) ({_entry(hops)}(a, b) | (qbit z) {{z *= H}} . a![z] . b?[w] . 0)\n"
    )


def load(source: str):
    program = syntax.parse_program(source)
    signatures = typecheck.parse_signatures(source)
    diags = typecheck.typecheck_program(program, signatures)
    if diags:
        raise ValueError(f"generated program is ill-typed: {diags[0]}")
    return program, signatures


def _output_dms(plts) -> list:
    """Density matrices on the output channel (the entry's second parameter)."""
    return [
        e.label.qubit_dm.matrix
        for e in plts.edges
        if isinstance(e.label, CommLabel) and e.label.kind == "out" and e.label.channel == 1
    ]


def same_verdicts(rounds) -> list[str]:
    if len({tuple(r.verdicts) for r in rounds}) != 1:
        return ["verdicts differ between rounds"]
    return []


class Chain:
    """Teleport chains of 1 to 3 hops, plain and with a trailing gate hop,
    each checked against Identity."""

    name = "chain"
    ops_per_round = len(CHAIN_CHECKS)
    counts_built = False

    def __init__(self, seed: int):
        del seed  # the seed only orders the checks of each round

    def setup(self):
        self.program, self.signatures = load(chain_source(3, GATES))

    run_problems = staticmethod(same_verdicts)

    def round(self, rec: Recorder, rng, _index: int) -> Round:
        order = list(CHAIN_CHECKS)
        rng.shuffle(order)
        out = Round()
        rec.checks.clear()
        states0 = rec.states
        mark = rec.probe.mark()
        for k, gate, set_name in order:
            tests = TEST_SETS[set_name]
            entry = _entry(k) if gate is None else f"Chain{k}{gate}"
            what = f"{entry}/{set_name}"
            kept = rec.keep = [] if gate is None else None
            try:
                verdict = equiv.check_equivalence(
                    self.program, entry, self.program, "Identity", self.signatures, test_qubits=tests
                )
            except PROGRAM_ERRORS as exc:
                out.failed += 1
                out.problems.append(f"{what}: {type(exc).__name__}: {exc}")
                out.verdicts.append(f"{what}: {type(exc).__name__}")
                continue
            finally:
                rec.keep = None
            out.ops.append((what, rec.checks[-1][0]))
            problems = checks.check_verdict(verdict, gate, tests)
            for alphabet, plts in kept or ():
                (test_qubit,) = alphabet[0][0]
                problems += checks.check_output_projectors(
                    _output_dms(plts), (test_qubit.amp0, test_qubit.amp1)
                )
            if problems:
                out.failed += 1
                out.problems += [f"{what}: {p}" for p in problems]
            witness = verdict.witness.instantiation if verdict.witness else ""
            out.verdicts.append(f"{what}: {verdict.render().splitlines()[0]} {witness}".rstrip())
        out.interval = rec.probe.interval(mark)
        out.states = rec.states - states0
        out.verdicts.sort()
        return out


class Congruence:
    """Teleport and Identity inside the 50 contexts sampled with seed 2024."""

    name = "congruence"
    ops_per_round = CONGRUENCE_CONTEXTS
    counts_built = False

    def __init__(self, seed: int):
        del seed  # the context set is fixed by CONGRUENCE_SEED

    def setup(self):
        self.teleport = load(corpus.read_corpus_file("teleport.cqp"))
        self.identity = load(corpus.read_corpus_file("identity.cqp"))

    run_problems = staticmethod(same_verdicts)

    def round(self, rec: Recorder, _rng, _index: int) -> Round:
        out = Round()
        rec.checks.clear()
        states0 = rec.states
        mark = rec.probe.mark()
        report = congruence.check_congruence_samples(
            self.teleport[0], "Teleport", self.identity[0], "Identity",
            self.teleport[1], self.identity[1],
            seed=CONGRUENCE_SEED, count=CONGRUENCE_CONTEXTS,
        )
        out.interval = rec.probe.interval(mark)
        out.states = rec.states - states0
        out.ops = [(f"check {i}", iv) for i, (iv, _verdict) in enumerate(rec.checks)]
        out.problems = checks.check_congruence_report(report, CONGRUENCE_CONTEXTS)
        out.failed = CONGRUENCE_CONTEXTS - report.passed if out.problems else 0
        out.verdicts = [f"{i}:{s.context_name}:{s.outcome}" for i, s in enumerate(report.samples)]
        return out


class Simulate:
    """Seeded runs of a closed harness that teleports |+> through 5 hops."""

    name = "simulate"
    ops_per_round = SIMULATE_RUNS
    counts_built = True

    def __init__(self, seed: int):
        self.first_seed = seed * SIMULATE_SEED_STRIDE

    def setup(self):
        program, signatures = load(harness_source(SIMULATE_HOPS))
        self.config = semantics.initial_configuration(program, "Harness", signatures=signatures)

    @staticmethod
    def run_problems(rounds) -> list[str]:
        runs = [o for r in rounds for o in r.outcomes]
        return checks.check_outcome_frequencies(runs, SIMULATE_HOPS)

    def round(self, rec: Recorder, _rng, index: int) -> Round:
        out = Round()
        built0 = rec.built
        mark = rec.probe.mark()
        for j in range(SIMULATE_RUNS):
            seed = self.first_seed + index * SIMULATE_RUNS + j
            op_mark = rec.probe.mark()
            try:
                trace = semantics.run_sampled(self.config, seed)
            except PROGRAM_ERRORS as exc:
                out.failed += 1
                out.problems.append(f"seed {seed}: {type(exc).__name__}: {exc}")
                continue
            out.ops.append((f"seed {seed}", rec.probe.interval(op_mark)))
            problems, outcomes = self._check_run(trace)
            if problems:
                out.failed += 1
                out.problems += [f"seed {seed}: {p}" for p in problems]
            out.outcomes.append(outcomes)
        out.interval = rec.probe.interval(mark)
        out.states = rec.built - built0
        out.verdicts = [" ".join(f"{a}{b}" for a, b in o) for o in out.outcomes]
        return out

    @staticmethod
    def _check_run(trace) -> tuple[list, list]:
        final = trace[-1].config
        by_binder: dict[str, list] = {}
        for name, value in final.bindings.items():
            binder, _, n = name.partition("~")
            by_binder.setdefault(binder, []).append((int(n or 0), value))
        received = [v for _n, v in by_binder.get("w", [])]
        outcomes = [v for _n, v in sorted(by_binder.get("r", []))]
        problems = checks.check_step_probabilities(
            [s.probability for s in trace if s.probability is not None], SIMULATE_HOPS
        )
        if len(received) != 1 or not isinstance(received[0], semantics.QubitVal):
            problems.append(f"expected one received qubit w, found {received}")
        else:
            problems += checks.check_received(
                final.qstate.amplitudes, final.qstate.num_qubits, received[0].qid
            )
        if len(outcomes) != SIMULATE_HOPS:
            problems.append(f"{len(outcomes)} correction indices, expected {SIMULATE_HOPS}")
        return problems, outcomes


WORKLOADS = {w.name: w for w in (Chain, Congruence, Simulate)}

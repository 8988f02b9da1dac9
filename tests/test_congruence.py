"""Congruence sampling: C[A] ~ C[B] for generated contexts."""

import random
import re
from pathlib import Path

import pytest

from cqpkit import congruence, equiv, typecheck
from cqpkit.congruence import (
    ProcessContext,
    check_congruence_samples,
    generate_context,
    plug,
)
from cqpkit.syntax import parse_program, pretty_print
from cqpkit.typecheck import parse_signatures
from support import check_congruence_samples_oracle

GOLDEN = Path(__file__).parent / "golden"


def test_context_requires_exactly_one_hole():
    with pytest.raises(ValueError):
        ProcessContext("none", "0", ())
    with pytest.raises(ValueError):
        ProcessContext("two", "(PLUG(hin,hout) | PLUG(hin,hout))", ())


def test_plug_renames_only_the_plug_call_and_captures_names():
    context = ProcessContext(
        "wrap",
        "(PLUG(hin,hout) | hin![x] . 0)",
        (("hin", congruence.QUBIT_CHANNEL),),
    )
    plugged = plug(context, "Teleport")
    assert pretty_print(plugged) == "(Teleport(hin,hout) | hin![x] . 0)"


def test_each_context_is_parsed_once_for_both_sides(monkeypatch, teleport_program, identity_program):
    """A run of the 50 contexts of seed 2024 parses each of its 16 distinct
    contexts once, for both processes; plugging renames the call in that
    parse, and gives the term that parsing the source with ``PLUG``
    renamed gives."""
    parsed = []
    parse = congruence.parse_process

    def counted(source):
        parsed.append(source)
        return parse(source)

    monkeypatch.setattr(congruence, "parse_process", counted)
    (program_t, sigs_t), (program_i, sigs_i) = teleport_program, identity_program
    report = check_congruence_samples(
        program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i, seed=2024, count=50
    )
    assert report.passed == 50
    assert len(parsed) == len(set(parsed)) == 16
    rng = random.Random(2024)
    for _ in range(50):
        context = generate_context(rng)
        for entry in ("Teleport", "Identity"):
            plugged = plug(context, entry)
            assert plugged == parse(re.sub(r"\bPLUG\b", entry, context.source))
            assert pretty_print(plugged) == pretty_print(parse(re.sub(r"\bPLUG\b", entry, context.source)))


def test_trivial_context_reduces_to_base_equivalence(
    teleport_program, identity_program
):
    program_t, sigs_t = teleport_program
    program_i, sigs_i = identity_program
    trivial = congruence._tpl_trivial(random.Random(0))
    prog_a, sa, main_a = congruence._context_program(
        program_t, sigs_t, "Teleport", trivial
    )
    prog_b, sb, main_b = congruence._context_program(
        program_i, sigs_i, "Identity", trivial
    )
    wrapped = equiv.check_equivalence(prog_a, main_a, prog_b, main_b, sa, sb)
    direct = equiv.check_equivalence(
        program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i
    )
    assert wrapped.equivalent == direct.equivalent is True


def test_contexts_match_golden(teleport_program):
    """The 50 contexts of the ``congruence`` benchmark workload (seed 2024),
    each plugged with ``Teleport``, render exactly as recorded."""
    program, sigs = teleport_program
    rng = random.Random(2024)
    lines = []
    for _ in range(50):
        context = generate_context(rng)
        plugged, _sigs, main = congruence._context_program(
            program, sigs, "Teleport", context
        )
        d = plugged.definition(main)
        lines.append(
            f"{context.name}: {d.name}({','.join(d.params)}) = {pretty_print(d.body)}"
        )
    golden = (GOLDEN / "congruence_contexts_seed2024.txt").read_text()
    assert "\n".join(lines) + "\n" == golden


def test_generator_is_seed_deterministic():
    names_a = [generate_context(random.Random(5)).name for _ in range(3)]
    names_b = [generate_context(random.Random(5)).name for _ in range(3)]
    assert names_a == names_b


def test_small_congruence_sample_run(teleport_program, identity_program):
    program_t, sigs_t = teleport_program
    program_i, sigs_i = identity_program
    report = check_congruence_samples(
        program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i, seed=3, count=8
    )
    assert report.total == 8
    assert report.passed == 8
    assert report.counterexamples == []
    assert len(report.samples) == 8


FLIP = """
//: Flip : ^[Qbit], ^[Qbit]
Flip(c, d) = c?[x] . {x *= X} . d![x] . 0
"""


def flip_program():
    return parse_program(FLIP), parse_signatures(FLIP)


def test_congruence_detects_broken_plug(identity_program):
    """A context that measures the relayed qubit distinguishes a bit-flipped
    channel from the identity, so sampling must find counterexamples."""
    flipped, flipped_sigs = flip_program()
    program_i, sigs_i = identity_program
    report = check_congruence_samples(
        flipped, "Flip", program_i, "Identity", flipped_sigs, sigs_i, seed=1, count=6
    )
    assert report.counterexamples, "bit flip should break some context"


def test_rejects_wrong_interface(teleport_program, coin_program):
    program_t, sigs_t = teleport_program
    program_c, sigs_c = coin_program
    with pytest.raises(ValueError):
        check_congruence_samples(
            program_c, "Coin", program_t, "Teleport", sigs_c, sigs_t, count=1
        )


def test_fixed_programs_are_type_checked_once(monkeypatch, teleport_program, identity_program):
    """Only each context's ``CtxMain`` is new, so a round of 50 contexts
    checks Teleport, Alice, Bob and Identity once, and one ``CtxMain`` per
    side for each distinct context. Seed 2024 draws 16 distinct contexts
    (34 of the 50 draws repeat an earlier one), so 16 * 2 = 32 ``CtxMain``
    checks and 4 + 32 = 36 in all, where checking every draw made
    4 + 50 * 2 = 104."""
    checked = []
    check = typecheck.typecheck_program

    def counted(program, signatures):
        checked.extend(d.name for d in program.definitions)
        return check(program, signatures)

    monkeypatch.setattr(typecheck, "typecheck_program", counted)
    program_t, sigs_t = teleport_program
    program_i, sigs_i = identity_program
    report = check_congruence_samples(
        program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i, seed=2024, count=50
    )
    assert report.passed == 50
    assert len(checked) == 36
    assert sorted(set(checked)) == ["Alice", "Bob", "CtxMain", "Identity", "Teleport"]
    assert checked.count("CtxMain") == 32


BOB_SENDS_TWICE = """
//: Alice : Qbit, ^[Qbit], ^[Bit,Bit]
//: Bob : Qbit, ^[Bit,Bit], ^[Qbit]
//: Teleport : ^[Qbit], ^[Qbit]
Alice(q, in, out) = in?[u] . {u,q *= CNot} . {u *= H} . out![measure u,q] . 0
Bob(y, in, out) = in?[r] . {y *= sigma[r]} . out![y] . out![y] . 0
Teleport(a, b) = (qbit x,y) {x *= H} . {x,y *= CNot} . (new c) (Alice(x,a,c) | Bob(y,c,b))
"""


@pytest.mark.parametrize("ill_typed_side", ["a", "b"])
def test_ill_typed_base_program_skips_with_the_whole_program_detail(
    identity_program, ill_typed_side
):
    """A skipped sample names the first diagnostic of the whole context
    programs, checked in order: program a, then program b."""
    broken = (parse_program(BOB_SENDS_TWICE), parse_signatures(BOB_SENDS_TWICE), "Teleport")
    program_i, sigs_i = identity_program
    sides = [broken, (program_i, sigs_i, "Identity")]
    if ill_typed_side == "b":
        sides.reverse()
    (prog_a, sigs_a, entry_a), (prog_b, sigs_b, entry_b) = sides
    report = check_congruence_samples(
        prog_a, entry_a, prog_b, entry_b, sigs_a, sigs_b, seed=4, count=5
    )
    rng = random.Random(4)
    expected = []
    for _ in range(5):
        context = generate_context(rng)
        whole_a = congruence._context_program(prog_a, sigs_a, entry_a, context)[:2]
        whole_b = congruence._context_program(prog_b, sigs_b, entry_b, context)[:2]
        diags = typecheck.typecheck_program(*whole_a) + typecheck.typecheck_program(*whole_b)
        expected.append(f"generated context is ill-typed: {diags[0]}")
    assert [s.outcome for s in report.samples] == ["skipped"] * 5
    assert [s.detail for s in report.samples] == expected
    assert "'y'" in expected[0]


def qubit_hoard_source() -> str:
    """An entry that holds 12 live qubits, the qubit cap, before its input."""
    qubits = [f"q{i}" for i in range(1, 13)]
    sends = "".join(f"hout![{q}] . " for q in qubits)
    return (
        "//: Hoard : ^[Qbit], ^[Qbit]\n"
        f"Hoard(hin, hout) = (qbit {','.join(qubits)}) hin?[x] . {sends}hout![x] . 0\n"
    )


def wide_source() -> str:
    """``A_j(c,d) = (A_{j-1}(c,d) | A_{j-1}(c,d))``: 128 components, past the
    component cap of 64, once ``A7`` unfolds."""
    lines = ["//: A0 : ^[Qbit], ^[Qbit]", "A0(c, d) = c?[x] . d![x] . 0"]
    for j in range(1, 8):
        lines += [f"//: A{j} : ^[Qbit], ^[Qbit]", f"A{j}(c, d) = (A{j - 1}(c, d) | A{j - 1}(c, d))"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "source, entry, message",
    [
        (qubit_hoard_source(), "Hoard", "allocation of 1 qubit(s) would exceed cap of 12"),
        (wide_source(), "A7", "bounded exploration exceeded the component cap of 64"),
    ],
    ids=["qubit", "component"],
)
def test_context_past_a_cap_is_skipped_with_its_message(identity_program, source, entry, message):
    program_i, sigs_i = identity_program
    report = check_congruence_samples(
        parse_program(source), entry, program_i, "Identity", parse_signatures(source), sigs_i,
        seed=0, count=7,
    )
    assert report.passed == 0
    assert report.counterexamples == []
    assert report.skipped == report.samples
    assert [s.detail for s in report.samples] == [message] * 7
    assert len({s.context_name for s in report.samples}) > 3


def report_cases(teleport_program, identity_program):
    """``(name, program a, entry a, program b, entry b, signatures a,
    signatures b, seed, count)`` for each differential case: the benchmark's
    50 contexts, the bit flip's counterexamples, the two cap skips and the
    two ill-typed base sides."""
    program_t, sigs_t = teleport_program
    program_i, sigs_i = identity_program
    flipped, flipped_sigs = flip_program()
    broken = parse_program(BOB_SENDS_TWICE), parse_signatures(BOB_SENDS_TWICE)
    yield "seed2024", program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i, 2024, 50
    yield "flip", flipped, "Flip", program_i, "Identity", flipped_sigs, sigs_i, 1, 6
    for source, entry in ((qubit_hoard_source(), "Hoard"), (wide_source(), "A7")):
        program, sigs = parse_program(source), parse_signatures(source)
        yield entry, program, entry, program_i, "Identity", sigs, sigs_i, 0, 7
    yield "ill-typed-a", broken[0], "Teleport", program_i, "Identity", broken[1], sigs_i, 4, 5
    yield "ill-typed-b", program_i, "Identity", broken[0], "Teleport", sigs_i, broken[1], 4, 5


def test_checking_each_distinct_context_once_gives_the_oracle_report(
    teleport_program, identity_program
):
    """Each case's report equals, field by field, the one made by checking
    every draw (``check_congruence_samples_oracle``). Every case draws some
    context more than once, so each reuses a sample."""
    outcomes = set()
    for name, *args, seed, count in report_cases(teleport_program, identity_program):
        got = check_congruence_samples(*args, seed=seed, count=count)
        want = check_congruence_samples_oracle(*args, seed=seed, count=count)
        assert got.total == want.total == count, name
        assert got.passed == want.passed, name
        assert got.samples == want.samples, name
        assert got.counterexamples == want.counterexamples, name
        assert got.skipped == want.skipped, name
        rng = random.Random(seed)
        assert len({generate_context(rng) for _ in range(count)}) < count, name
        outcomes |= {s.outcome for s in got.samples}
    assert outcomes == {"equivalent", "counterexample", "skipped"}


def test_a_context_checked_again_later_gets_the_same_verdict(
    teleport_program, identity_program
):
    """Checking each distinct context once per call assumes that a verdict
    depends only on the context. The ``parallel-noise``, ``double-relay``
    and ``output-relay`` with an H contexts of seed 2024 are checked twice
    each in one process, with other checks in between, and render the same
    verdict both times."""
    program_t, sigs_t = teleport_program
    program_i, sigs_i = identity_program
    flipped, flipped_sigs = flip_program()
    rng = random.Random(2024)
    drawn = list(dict.fromkeys(generate_context(rng) for _ in range(50)))
    picked = [
        next(c for c in drawn if c.name == "parallel-noise"),
        next(c for c in drawn if c.name == "double-relay"),
        next(c for c in drawn if c.name == "output-relay" and "H" in c.source),
    ]
    others = [c for c in drawn if c not in picked]

    def render(context, program, entry, sigs):
        prog_a, sa, main_a = congruence._context_program(program, sigs, entry, context)
        prog_b, sb, main_b = congruence._context_program(program_i, sigs_i, "Identity", context)
        return equiv.check_equivalence(prog_a, main_a, prog_b, main_b, sa, sb).render()

    first = [render(c, program_t, "Teleport", sigs_t) for c in picked]
    for context in others:
        render(context, program_t, "Teleport", sigs_t)
        render(context, flipped, "Flip", flipped_sigs)
    again = [render(c, program_t, "Teleport", sigs_t) for c in reversed(picked)]
    assert again[::-1] == first

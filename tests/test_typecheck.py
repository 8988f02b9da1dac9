"""Linear type checker: no-cloning as a static guarantee."""

import random
from dataclasses import replace

import pytest

from cqpkit import congruence, corpus, semantics
from cqpkit.syntax import Nil, Parallel, Program, parse_process, parse_program
from cqpkit.typecheck import (
    BIT,
    CHANNEL_ARITY_MISMATCH,
    PAYLOAD_TYPE_MISMATCH,
    QBIT,
    QUBIT_DUPLICATED,
    QUBIT_USED_AFTER_SEND,
    UNBOUND_NAME,
    Binding,
    ChannelType,
    SignatureError,
    _Checker,
    parse_signatures,
    typecheck_program,
)
from support import bench_workloads, load_corpus_file, random_typed_program

QCHAN = ChannelType((QBIT,))
BCHAN = ChannelType((BIT,))


def check_source(source, signatures):
    return typecheck_program(parse_program(source), signatures)


def categories(diags):
    return [d.category for d in diags]


def check_term(term, env, signatures=None, diagnostics=None):
    """Run the usage analysis over one term, returning the final environment;
    diagnostics, if any, are appended to ``diagnostics``."""
    checker = _Checker(signatures or {})
    out = checker.check(term, env)
    if diagnostics is not None:
        diagnostics.extend(checker.diagnostics)
    return out


# ---------------------------------------------------------------------------
# The flagship program and the corpus
# ---------------------------------------------------------------------------

def test_teleport_corpus_is_well_typed(teleport_program):
    program, signatures = teleport_program
    assert typecheck_program(program, signatures) == []


def test_corpus_expectations_enforced():
    for entry in corpus.CORPUS:
        program, signatures, _src = load_corpus_file(entry.path)
        diags = typecheck_program(program, signatures)
        if entry.expectation == "typechecks":
            assert diags == [], f"{entry.path} should typecheck: {diags}"
        else:
            want = entry.expectation.split(":", 1)[1]
            assert want in categories(diags), f"{entry.path} should report {want}"
            assert all(d.line > 0 and d.col > 0 for d in diags)


def test_double_send_rejected():
    diags = check_source("P(c,q) = c![q] . c![q] . 0", {"P": (QCHAN, QBIT)})
    assert categories(diags) == [QUBIT_USED_AFTER_SEND]


def test_parallel_duplication_rejected():
    diags = check_source("P(c,q) = (c![q] . 0 | c![q] . 0)", {"P": (QCHAN, QBIT)})
    assert QUBIT_DUPLICATED in categories(diags)


# ---------------------------------------------------------------------------
# Rule-level behaviour
# ---------------------------------------------------------------------------

def test_infer_usage_nil_keeps_environment():
    env = {"q": Binding(QBIT), "c": Binding(QCHAN)}
    out = check_term(Nil(), env)
    assert out is env
    assert not out["q"].consumed


def test_infer_usage_send_consumes():
    term = parse_process("c![q] . 0")
    diags = []
    env = check_term(term, {"q": Binding(QBIT), "c": Binding(QCHAN)}, diagnostics=diags)
    assert env["q"].consumed
    assert diags == []


def test_infer_usage_over_alice_body(teleport_program):
    program, signatures = teleport_program
    alice = program.definition("Alice")
    env = {p: Binding(t) for p, t in zip(alice.params, signatures["Alice"])}
    diags = []
    out = check_term(alice.body, env, signatures, diags)
    assert diags == []
    # The final measure-and-send consumed both the received qubit's binder
    # (tracked inside the recursion) and the parameter qubit.
    assert out["q"].consumed


def test_gate_then_send_is_allowed():
    diags = check_source("P(c,q) = {q *= H} . c![q] . 0", {"P": (QCHAN, QBIT)})
    assert diags == []


def test_measure_after_send_rejected():
    diags = check_source(
        "P(c,d,q) = c![q] . d![measure q] . 0", {"P": (QCHAN, BCHAN, QBIT)}
    )
    assert QUBIT_USED_AFTER_SEND in categories(diags)


def test_gate_after_send_rejected():
    diags = check_source("P(c,q) = c![q] . {q *= H} . 0", {"P": (QCHAN, QBIT)})
    assert QUBIT_USED_AFTER_SEND in categories(diags)


def test_duplicate_gate_target_rejected():
    # The parser forbids literal duplicates, so exercise the checker on a
    # constructed term.
    from cqpkit.syntax import FixedGate, GateAction

    term = GateAction(targets=("q", "q"), gate=FixedGate(name="CNot"), continuation=Nil())
    diags = []
    check_term(term, {"q": Binding(QBIT)}, diagnostics=diags)
    assert QUBIT_DUPLICATED in categories(diags)


def test_unbound_name_reported():
    diags = check_source("P(c) = c![q] . 0", {"P": (QCHAN,)})
    assert UNBOUND_NAME in categories(diags)


def test_channel_arity_mismatch():
    diags = check_source("P(c) = c![0, 1] . 0", {"P": (BCHAN,)})
    assert CHANNEL_ARITY_MISMATCH in categories(diags)


def test_payload_type_mismatch():
    diags = check_source("P(c,q) = c![q] . 0", {"P": (BCHAN, QBIT)})
    assert PAYLOAD_TYPE_MISMATCH in categories(diags)


def test_gate_arity_mismatch_reported():
    diags = check_source("P(q) = {q *= CNot} . 0", {"P": (QBIT,)})
    assert PAYLOAD_TYPE_MISMATCH in categories(diags)


def test_sigma_index_must_be_classical():
    diags = check_source(
        "P(q,r) = {q *= sigma[r]} . 0", {"P": (QBIT, QBIT)}
    )
    assert PAYLOAD_TYPE_MISMATCH in categories(diags)


def test_affine_drop_at_nil_accepted():
    assert check_source("P(q) = 0", {"P": (QBIT,)}) == []


def test_call_consumes_qubit_argument():
    source = "Q(q) = 0\nP(c,q) = (Q(q) | c![q] . 0)"
    diags = check_source(source, {"Q": (QBIT,), "P": (QCHAN, QBIT)})
    assert QUBIT_DUPLICATED in categories(diags)


def test_packed_classical_input_accepted(teleport_program):
    # One binder may absorb a multi-bit classical payload (Bob's r).
    program, signatures = teleport_program
    assert typecheck_program(program, signatures) == []
    diags = check_source(
        "P(c,q) = c?[r] . 0", {"P": (ChannelType((QBIT, QBIT)), QBIT)}
    )
    assert CHANNEL_ARITY_MISMATCH in categories(diags)  # qubits cannot pack
    # The packed binder stands for its two bit slots wherever it is used.
    two, one = ChannelType((BIT, BIT)), BCHAN
    forward = "P(c,d) = c?[r] . d![r] . 0"
    assert categories(check_source(forward, {"P": (two, one)})) == [CHANNEL_ARITY_MISMATCH]
    assert check_source(forward, {"P": (two, two)}) == []
    diags = check_source(
        "P(c,d) = c?[r] . (qbit q) {q *= sigma[r]} . d![q] . 0", {"P": (one, QCHAN)}
    )
    assert [(d.category, d.message) for d in diags] == [
        (PAYLOAD_TYPE_MISMATCH, "sigma index 'r' must hold two bits, got Bit")
    ]


SENT_QUBIT = "(qbit q) c![q] . 0"
FORWARD_C = "c?[x] . d![x] . 0"
RELAY_CE = "c?[x] . e![x] . 0"
FORWARD_E = "e?[y] . d![y] . 0"
SENT_E = "c![e] . 0"
BIT_ON_X = "c?[x] . x![0] . 0"
QUBIT_ON_X = "c?[x] . (qbit q) x![q] . 0"


@pytest.mark.parametrize(
    "source, signature, expected",
    [
        ("P(c,q) = (new d) (d![q] . 0 | d?[w] . c![w] . 0)", (QCHAN, QBIT), []),
        # Each program below in both component orders. In one of them an input
        # on c (or e, or x) comes before the output that types the channel.
        (f"P(d) = (new c) ({FORWARD_C} | {SENT_QUBIT})", (QCHAN,), []),
        (f"P(d) = (new c) ({SENT_QUBIT} | {FORWARD_C})", (QCHAN,), []),
        (f"P(d) = (new c) ({FORWARD_C} | {SENT_QUBIT})", (BCHAN,), [PAYLOAD_TYPE_MISMATCH]),
        (f"P(d) = (new c) ({SENT_QUBIT} | {FORWARD_C})", (BCHAN,), [PAYLOAD_TYPE_MISMATCH]),
        (f"P(d) = (new c) (new e) ({RELAY_CE} | ({FORWARD_E} | {SENT_QUBIT}))", (QCHAN,), []),
        (f"P(d) = (new c) (new e) ({SENT_QUBIT} | ({FORWARD_E} | {RELAY_CE}))", (QCHAN,), []),
        (f"P(d) = (new c) (new e) ({SENT_E} | ({BIT_ON_X} | {FORWARD_E}))", (BCHAN,), []),
        (f"P(d) = (new c) (new e) (({FORWARD_E} | {BIT_ON_X}) | {SENT_E})", (BCHAN,), []),
        (
            f"P(d) = (new c) (new e) ({SENT_E} | ({QUBIT_ON_X} | {FORWARD_E}))",
            (BCHAN,),
            [PAYLOAD_TYPE_MISMATCH],
        ),
        (
            f"P(d) = (new c) (new e) (({FORWARD_E} | {QUBIT_ON_X}) | {SENT_E})",
            (BCHAN,),
            [PAYLOAD_TYPE_MISMATCH],
        ),
    ],
)
def test_new_channel_type_inferred_in_any_component_order(source, signature, expected):
    assert categories(check_source(source, {"P": signature})) == expected


def mirrored(term):
    """``term`` with the two sides of every parallel composition swapped."""
    if isinstance(term, Parallel):
        return replace(term, left=mirrored(term.right), right=mirrored(term.left))
    if getattr(term, "continuation", None) is not None:
        return replace(term, continuation=mirrored(term.continuation))
    return term


def order_cases():
    """Every corpus file, ``chain_source(3, GATES)`` and the 50 context
    programs of the ``congruence`` workload (seed 2024), as (program,
    signatures)."""
    for entry in corpus.CORPUS:
        program, signatures, _src = load_corpus_file(entry.path)
        yield entry.path, program, signatures
    workloads = bench_workloads()
    source = workloads.chain_source(3, workloads.GATES)
    yield "chain3", parse_program(source), parse_signatures(source)
    program, signatures, _src = load_corpus_file("teleport.cqp")
    rng = random.Random(2024)
    for i in range(50):
        context = congruence.generate_context(rng)
        plugged, sigs, _main = congruence._context_program(
            program, signatures, "Teleport", context
        )
        yield f"context{i}", plugged, sigs


def test_diagnostics_do_not_depend_on_component_order():
    assert mirrored(parse_process("(a![0] . 0 | (b![1] . 0 | 0))")) == parse_process(
        "((0 | b![1] . 0) | a![0] . 0)"
    )
    for name, program, signatures in order_cases():
        swapped = Program(
            tuple(replace(d, body=mirrored(d.body)) for d in program.definitions)
        )
        want = sorted(categories(typecheck_program(program, signatures)))
        assert sorted(categories(typecheck_program(swapped, signatures))) == want, name


def test_checker_is_deterministic(teleport_program):
    source = "P(c,q) = (c![q] . 0 | c![q] . {q *= H} . 0)"
    sigs = {"P": (QCHAN, QBIT)}
    first = check_source(source, sigs)
    second = check_source(source, sigs)
    assert first == second
    assert len(first) >= 2


def test_missing_signature_raises():
    with pytest.raises(SignatureError):
        check_source("P(q) = 0", {})
    with pytest.raises(SignatureError):
        check_source("P(q) = 0", {"P": (QBIT, QBIT)})


# ---------------------------------------------------------------------------
# Sidecar signatures
# ---------------------------------------------------------------------------

def test_parse_signatures_sidecar():
    sigs = parse_signatures(
        "//: Alice : Qbit, ^[Qbit], ^[Bit,Bit]\n//: Harness :\nAlice(q,c,d) = 0\n"
    )
    assert sigs["Alice"] == (QBIT, QCHAN, ChannelType((BIT, BIT)))
    assert sigs["Harness"] == ()


def test_parse_signatures_rejects_garbage():
    with pytest.raises(SignatureError):
        parse_signatures("//: P : Qubit\n")
    with pytest.raises(SignatureError):
        parse_signatures("//: P : ^[Bit\n")
    with pytest.raises(SignatureError):
        parse_signatures("//: P : Bit\n//: P : Bit\n")


# ---------------------------------------------------------------------------
# Soundness against the dynamic ownership check
# ---------------------------------------------------------------------------

def test_accepted_random_programs_never_violate_ownership():
    rng = random.Random(2024)
    accepted = 0
    for _ in range(100):
        program, signatures = random_typed_program(rng)
        diags = typecheck_program(program, signatures)
        assert diags == [], f"generator produced ill-typed program: {diags}"
        accepted += 1
        config = semantics.initial_configuration(program, "Gen", signatures=signatures)
        alphabet = semantics.input_alphabet(
            program, "Gen", signatures["Gen"], semantics.BASIS_TEST_QUBITS
        )
        semantics.explore(config, max_states=20000, alphabet=alphabet)
    assert accepted == 100

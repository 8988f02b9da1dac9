"""Parser, pretty printer, and name handling."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqpkit import corpus
from cqpkit.syntax import (
    BitLit,
    Call,
    FixedGate,
    GateAction,
    Input,
    MeasureExpr,
    NewChannel,
    Nil,
    Output,
    Parallel,
    ParseError,
    ProcessDef,
    QbitAlloc,
    Var,
    canonical_form,
    free_names,
    parse_process,
    parse_program,
    pretty_print,
    pretty_print_program,
    substitute,
)
from support import alpha_equivalent_oracle, alpha_variant, perturb, quoted, random_term

TELEPORT_SOURCE = """
Alice(q, in, out) = in?[u] . {u,q *= CNot} . {u *= H} . out![measure u,q] . 0
Bob(y, in, out) = in?[r] . {y *= sigma[r]} . out![y] . 0
Teleport(a, b) = (qbit x,y) {x *= H} . {x,y *= CNot} . (new c) (Alice(x,a,c) | Bob(y,c,b))
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_identity_definition():
    program = parse_program("Identity(c,d) = c?[x] . d![x] . 0")
    (d,) = program.definitions
    assert d == ProcessDef(
        "Identity",
        ("c", "d"),
        Input(
            channel="c",
            binders=("x",),
            continuation=Output(
                channel="d", payload=(Var(name="x"),), continuation=Nil()
            ),
        ),
    )


def test_parse_empty_process():
    program = parse_program("P() = 0")
    assert program.definitions[0] == ProcessDef("P", (), Nil())


def test_parse_full_teleport_source():
    program = parse_program(TELEPORT_SOURCE)
    assert [d.name for d in program.definitions] == ["Alice", "Bob", "Teleport"]
    alice = program.definition("Alice")
    assert isinstance(alice.body, Input)
    action = alice.body.continuation
    assert isinstance(action, GateAction) and action.targets == ("u", "q")
    assert action.gate == FixedGate(name="CNot")
    # The measured send carries one expression measuring both qubits.
    send = action.continuation.continuation
    assert send.payload == (MeasureExpr(names=("u", "q")),)
    teleport = program.definition("Teleport")
    assert isinstance(teleport.body, QbitAlloc)
    assert teleport.body.binders == ("x", "y")
    restriction = teleport.body.continuation.continuation.continuation
    assert isinstance(restriction, NewChannel)
    assert isinstance(restriction.continuation, Parallel)


def test_pretty_print_matches_surface_forms():
    assert pretty_print(Nil()) == "0"
    action = GateAction(
        targets=("u", "q"), gate=FixedGate(name="CNot"), continuation=Nil()
    )
    assert pretty_print(action) == "{u,q *= CNot} . 0"
    par = Parallel(
        left=Call(process="A", args=("x",)), right=Call(process="B", args=("y",))
    )
    assert pretty_print(par) == "(A(x) | B(y))"


@pytest.mark.parametrize(
    "entry", [e for e in corpus.CORPUS], ids=lambda e: e.path
)
def test_corpus_round_trips(entry):
    program, _sigs, _src = corpus.load_corpus_file(entry.path)
    reparsed = parse_program(pretty_print_program(program))
    assert reparsed == program


@pytest.mark.parametrize(
    "source, fragment",
    [
        ("P() = $", "unexpected character"),
        ("P() = c?[x] .", "expected a process"),
        ("P() = 0\nP() = 0", "duplicate definition"),
        ("P() = Q()", "unknown process"),
        ("P(x) = 0\nQ() = P(a,b)", "argument"),
        ("P() = Q()\nQ() = P()", "recursive"),
        ("P() = c?[x,x] . 0", "duplicate binder"),
        ("P(c,u) = c![measure u,u] . 0", "distinct"),
        ("P() = {x *= Toffoli} . 0", "unknown gate"),
    ],
)
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_program(source)
    assert fragment in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("P() = 0\nQ() = c?[x] ! 0")
    assert err.value.line == 2
    assert err.value.col > 1


# ---------------------------------------------------------------------------
# Free names
# ---------------------------------------------------------------------------

def test_free_names_input_binder_bound():
    term = parse_process("c?[x] . d![x] . 0")
    assert free_names(term) == {"c", "d"}


def test_free_names_nil_empty():
    assert free_names(Nil()) == frozenset()


def test_free_names_of_teleport_body():
    program = parse_program(TELEPORT_SOURCE)
    assert free_names(program.definition("Teleport").body) == {"a", "b"}


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def test_substitute_free_channel():
    term = parse_process("d![x] . 0")
    out = substitute(term, {"d": "e"})
    assert pretty_print(out) == "e![x] . 0"


def test_substitute_avoids_capture():
    term = parse_process("c?[x] . d![x] . 0")
    out = substitute(term, {"d": "x"})
    assert isinstance(out, Input)
    binder = out.binders[0]
    assert binder != "x"
    assert pretty_print(out) == f"c?[{binder}] . x![{binder}] . 0"
    assert free_names(out) == {"c", "x"}


def test_substitute_instantiates_parameters():
    program = parse_program(TELEPORT_SOURCE)
    alice = program.definition("Alice")
    body = substitute(
        alice.body, dict(zip(alice.params, ("qbit0", "chanA", "chanC")))
    )
    assert free_names(body) == {"qbit0", "chanA", "chanC"}
    assert pretty_print(body) == (
        "chanA?[u] . {u,qbit0 *= CNot} . {u *= H} . chanC![measure u,qbit0] . 0"
    )


def test_substitution_free_name_law_on_random_terms():
    rng = random.Random(404)
    for _ in range(200):
        term = random_term(rng)
        names = sorted(free_names(term))
        if not names:
            continue
        dom = [n for n in names if rng.random() < 0.5] or names[:1]
        mapping = {n: rng.choice(["n1", "n2", "n3"]) for n in dom}
        got = free_names(substitute(term, mapping))
        want = frozenset(
            mapping.get(n, n) for n in free_names(term)
        )
        assert got == want


# ---------------------------------------------------------------------------
# Alpha equivalence
# ---------------------------------------------------------------------------

def alpha_equivalent(a, b) -> bool:
    """Whether ``canonical_form`` with free names quoted, the form that
    configuration keys are built from, identifies the two terms."""
    return canonical_form(a, quoted) == canonical_form(b, quoted)


def test_alpha_equivalent_on_binders_only():
    assert alpha_equivalent(parse_process("c?[x] . 0"), parse_process("c?[y] . 0"))
    assert not alpha_equivalent(parse_process("c?[x] . 0"), parse_process("d?[x] . 0"))


def test_alpha_equivalent_teleport_renamed():
    program = parse_program(TELEPORT_SOURCE)
    body = program.definition("Teleport").body
    renamed = alpha_variant(body, random.Random(1))
    assert renamed != body  # the renaming really happened
    assert alpha_equivalent(body, renamed)


def test_alpha_equivalence_relation_on_random_terms():
    rng = random.Random(777)
    for _ in range(200):
        t = random_term(rng)
        v1 = alpha_variant(t, rng)
        v2 = alpha_variant(v1, rng)
        assert alpha_equivalent(t, t)  # reflexive
        assert alpha_equivalent(t, v1) and alpha_equivalent(v1, t)  # symmetric
        assert alpha_equivalent(v1, v2)
        assert alpha_equivalent(t, v2)  # transitive across the chain


def test_alpha_equivalent_agrees_with_pairwise_oracle():
    rng = random.Random(2026)
    differing = 0
    for _ in range(200):
        t = random_term(rng)
        for other in (t, alpha_variant(t, rng), random_term(rng), perturb(t, rng)):
            want = alpha_equivalent_oracle(t, other)
            assert alpha_equivalent(t, other) == want
            assert alpha_equivalent(other, t) == want
            differing += not want
    # Independent terms and perturbed copies mostly differ, so both answers occur.
    assert differing >= 300


def test_alpha_distinguishes_structure():
    rng = random.Random(99)
    seen = []
    for _ in range(40):
        seen.append(random_term(rng, depth=2))
    distinct = 0
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            if not alpha_equivalent(seen[i], seen[j]):
                distinct += 1
    assert distinct > 0


# ---------------------------------------------------------------------------
# Hypothesis: grammar round trip on generated terms
# ---------------------------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "x", "y", "z"])


def _exprs():
    return st.one_of(
        st.builds(lambda n: Var(name=n), _names),
        st.builds(lambda v: BitLit(value=v), st.integers(0, 1)),
        st.builds(
            lambda ns: MeasureExpr(names=tuple(ns)),
            st.lists(_names, min_size=1, max_size=2, unique=True),
        ),
    )


def _terms():
    base = st.one_of(
        st.just(Nil()),
        st.builds(lambda n: Call(process="P", args=(n,)), _names),
    )

    def extend(children):
        return st.one_of(
            st.builds(
                lambda ch, bs, k: Input(channel=ch, binders=tuple(bs), continuation=k),
                _names,
                st.lists(_names, min_size=1, max_size=2, unique=True),
                children,
            ),
            st.builds(
                lambda ch, es, k: Output(channel=ch, payload=tuple(es), continuation=k),
                _names,
                st.lists(_exprs(), min_size=1, max_size=2),
                children,
            ),
            st.builds(
                lambda t, g, k: GateAction(
                    targets=(t,), gate=FixedGate(name=g), continuation=k
                ),
                _names,
                st.sampled_from(["H", "X", "Z", "I"]),
                children,
            ),
            st.builds(
                lambda bs, k: QbitAlloc(binders=tuple(bs), continuation=k),
                st.lists(_names, min_size=1, max_size=2, unique=True),
                children,
            ),
            st.builds(
                lambda n, k: NewChannel(binder=n, continuation=k), _names, children
            ),
            st.builds(lambda l, r: Parallel(left=l, right=r), children, children),
        )

    return st.recursive(base, extend, max_leaves=12)


@given(_terms())
@settings(max_examples=150, deadline=None)
def test_pretty_parse_round_trip(term):
    source = f"P(a) = 0\nMain() = {pretty_print(term)}"
    program = parse_program(source)
    assert program.definition("Main").body == term

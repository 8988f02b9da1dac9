"""Fast paths of ``syntax`` and ``semantics`` against the slow paths they replace.

A running component is its program's own term under an environment, and
each term node computes its free names and key template once; a step
shares the components it leaves unchanged. These tests explore the corpus,
every entry of ``bench/workloads.chain_source(2, GATES)`` and 300 random
well-typed programs under both digest test sets and both ``reduce`` values,
and check every explored configuration against the term walks in
``tests/support.py``. A golden digest, made before the caches existed,
pins every state and edge of those explorations. It was last regenerated
when payloads became flat expression lists: the 52 explorations that hold
Teleport changed because a forced ``measure u,q`` now keys as ``b0,b1``
instead of ``(b0,b1)``. Their states and edges did not change: with each
``canonical_key`` replaced by its first-occurrence number and the canonical
form left out, all 1,288 digests were identical before and after.

``free_names`` and ``input_used_channels`` fold over ``syntax.scopes``; they
are checked against walks that write out each constructor's binders, on
every definition of the corpus, of ``chain_source(3, GATES)`` and of 300
random well-typed programs, on hand cases and on random terms.
"""

import dataclasses
import random
from pathlib import Path

import pytest

from cqpkit.qstate import StateVector
from cqpkit.semantics import (
    OwnershipViolation,
    QubitVal,
    _flatten,
    canonical_key,
    initial_configuration,
    input_used_channels,
    run_sampled,
    step,
)
from cqpkit.syntax import free_names, parse_process, parse_program, scopes
from support import (
    canonical_key_oracle,
    check_ownership_oracle,
    digest_explorations,
    exploration_digest,
    free_names_oracle,
    input_used_channels_oracle,
    name_walk_entries,
    random_term,
)

GOLDEN = Path(__file__).parent / "golden" / "exploration_digest.txt"


@pytest.fixture(scope="module")
def explorations():
    return list(digest_explorations())


def explored_configurations(explorations):
    for _name, outcome in explorations:
        if not isinstance(outcome, str):
            yield from (s.config for s in outcome.states if s.config is not None)


def test_exploration_digest_matches_golden(explorations):
    got = [f"{name} {exploration_digest(outcome)[:16]}" for name, outcome in explorations]
    assert got == GOLDEN.read_text().splitlines()


def test_canonical_key_matches_the_term_walk(explorations):
    configs = list(explored_configurations(explorations))
    assert len(configs) > 10_000
    for cfg in configs:
        assert canonical_key(cfg) == canonical_key_oracle(cfg)


def test_check_ownership_matches_the_term_walk(explorations):
    for cfg in explored_configurations(explorations):
        assert cfg.check_ownership() == check_ownership_oracle(cfg)


def test_hidden_channels_numbered_in_the_walk_order():
    """An output resolves its payload before its channel, so a hidden channel
    sent on another is numbered first; the template keeps that order."""
    program = parse_program("P(c) = (new d) (new e) (e![d] . 0 | (d![c] . 0 | e?[x] . x![c] . 0))")
    trace = run_sampled(initial_configuration(program, "P"), seed=0)
    assert len(trace) == 3
    for t in trace:
        assert canonical_key(t.config) == canonical_key_oracle(t.config)
    assert canonical_key(trace[1].config)[1][0] == "out(h1;h0;0)"


def test_shared_qubit_rejected_like_the_term_walk():
    program = parse_program("P(c) = (qbit q) (c![q] . 0 | {q *= H} . 0)")
    config = initial_configuration(program, "P")
    with pytest.raises(OwnershipViolation):
        step(config)
    shared = dataclasses.replace(
        config,
        qstate=StateVector.from_amplitudes([1.0, 0.0]),
        bindings={**config.bindings, "q": QubitVal(0)},
        procs=_flatten(parse_process("(c![q] . 0 | {q *= H} . 0)"), {}, program),
    )
    with pytest.raises(OwnershipViolation):
        check_ownership_oracle(shared)
    with pytest.raises(OwnershipViolation):
        shared.check_ownership()


def fan_out_source(k: int) -> str:
    """``A_k(c) = (A_{k-1}(c) | A_{k-1}(c))``: 2^k inputs on ``c`` through
    k levels of calls."""
    lines = ["A0(c) = c?[x] . 0"]
    lines += [f"A{j}(c) = (A{j - 1}(c) | A{j - 1}(c))" for j in range(1, k + 1)]
    return "\n".join(lines + [f"Main(c) = A{k}(c)"])


HAND_CASES = [
    ("shadowed by new", "P(a,b) = ((new a) a?[x] . 0 | b?[y] . 0)", "P", {1}),
    ("received channel", "P(a,b) = a?[c] . c?[x] . 0", "P", {0}),
    ("received shadows a parameter", "P(a,b) = a?[b] . b?[x] . 0", "P", {0}),
    ("qbit shadows a parameter", "P(a,b) = (qbit b) a?[x] . b?[y] . 0", "P", {0}),
    ("swapped call arguments", "R(x,y) = y?[v] . 0\nP(a,b) = R(b,a)", "P", {0}),
    (
        "both argument orders",
        "R(x,y) = (new x) (x![y] . 0 | y?[v] . 0)\nP(a,b,d) = (R(a,b) | R(b,d))",
        "P",
        {1, 2},
    ),
    ("call fan-out k=14", fan_out_source(14), "Main", {0}),
]


def subterms(term):
    yield term
    for _binders, sub in scopes(term):
        yield from subterms(sub)


@pytest.mark.parametrize(
    "source,entry,want", [c[1:] for c in HAND_CASES], ids=[c[0] for c in HAND_CASES]
)
def test_input_used_channels_hand_cases(source, entry, want):
    program = parse_program(source)
    assert input_used_channels_oracle(program, entry) == want
    assert input_used_channels(program, entry) == want


def test_name_walks_match_the_slow_paths():
    entries = list(name_walk_entries())
    assert len(entries) > 300
    mismatches = []
    for name, program, entry in entries:
        if input_used_channels(program, entry) != input_used_channels_oracle(program, entry):
            mismatches.append(f"{name}: input_used_channels")
        for t in subterms(program.definition(entry).body):
            if free_names(t) != free_names_oracle(t):
                mismatches.append(f"{name}: free_names of {t!r}")
    assert mismatches == []


def test_free_names_matches_the_slow_path_on_random_terms():
    rng = random.Random(12)
    for _ in range(200):
        for t in subterms(random_term(rng, depth=5)):
            assert free_names(t) == free_names_oracle(t)

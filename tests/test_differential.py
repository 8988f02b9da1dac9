"""The per-component caches of ``semantics`` against the slow paths they replace.

Each ``Component`` computes its free names and key template once; a step
shares the components it leaves unchanged. These tests explore the corpus,
every entry of ``bench/workloads.chain_source(2, GATES)`` and 300 random
well-typed programs under both digest test sets and both ``reduce`` values,
and check every explored configuration against the term walks in
``tests/support.py``. A golden digest, made before the caches existed,
pins every state and edge of those explorations.
"""

import dataclasses
from pathlib import Path

import pytest

from cqpkit.qstate import StateVector
from cqpkit.semantics import (
    OwnershipViolation,
    QubitVal,
    _flatten,
    canonical_key,
    initial_configuration,
    run_sampled,
    step,
)
from cqpkit.syntax import parse_process, parse_program
from support import (
    canonical_key_oracle,
    check_ownership_oracle,
    digest_explorations,
    exploration_digest,
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
        procs=_flatten(parse_process("(c![q] . 0 | {q *= H} . 0)"), program),
    )
    with pytest.raises(OwnershipViolation):
        check_ownership_oracle(shared)
    with pytest.raises(OwnershipViolation):
        shared.check_ownership()

"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time

import numpy as np

from cqpkit import congruence, corpus, equiv, qstate, semantics, typecheck
from cqpkit.cli import main as cli_main
from cqpkit.corpus import corpus_path
from cqpkit.semantics import DEFAULT_TEST_QUBITS, CommLabel, explore, initial_configuration
from support import (
    apply_gate_oracle,
    insert_tau,
    load_corpus_file,
    random_plts,
    random_state_amps,
    random_unitary,
    reachable_outputs,
    successors,
)


def report(number: int, text: str):
    print(f"ACCEPTANCE {number}: {text} ... PASS")


def test_criterion_1_teleportation_specification(capsys):
    """Teleport and the identity channel are behaviourally equivalent over
    the default four-state qubit test set, in under ten seconds."""
    start = time.monotonic()
    code = cli_main(
        ["equiv", str(corpus_path("teleport.cqp")), str(corpus_path("identity.cqp"))]
    )
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "EQUIVALENT"
    assert elapsed < 10.0
    with capsys.disabled():
        report(1, f"equiv teleport.cqp identity.cqp -> EQUIVALENT in {elapsed:.2f}s")


def test_criterion_2_per_branch_determinism(capsys):
    """All four measurement branches deliver the input projector, for each
    of the four test states: sixteen checks at 1e-9. The branches merge
    once the measured qubits are dropped, so they share one output edge;
    each branch is checked on the outputs reachable from it."""
    program, signatures, _src = load_corpus_file("teleport.cqp")
    checks = 0
    for test_state in DEFAULT_TEST_QUBITS:
        psi = np.array([test_state.amp0, test_state.amp1], dtype=complex)
        projector = np.outer(psi, psi.conj())
        config = initial_configuration(program, "Teleport", signatures=signatures)
        plts = explore(config, alphabet={0: [(test_state,)]})
        outputs = [
            e
            for e in plts.edges
            if isinstance(e.label, CommLabel) and e.label.kind == "out"
        ]
        assert len(outputs) == 1
        (fork,) = [s for s in plts.states if s.kind == "prob"]
        branches = successors(plts)[fork.id]
        assert len(branches) == 4
        for branch in branches:
            reached = reachable_outputs(plts, branch.dst)
            assert reached
            for e in reached:
                np.testing.assert_allclose(e.label.qubit_dm.matrix, projector, atol=1e-9)
            checks += 1
    assert checks == 16
    with capsys.disabled():
        report(2, "16/16 branch density matrices equal the input projector (1e-9)")


def test_criterion_3_entanglement_statistics(capsys):
    state = qstate.append_qubits(qstate.StateVector.empty(), [(1, 0)] * 2)
    state = qstate.apply_gate(state, qstate.standard_gate("H"), [0])
    state = qstate.apply_gate(state, qstate.standard_gate("CNot"), [0, 1])
    outcomes = qstate.measure(state, [0])
    assert len(outcomes) == 2
    for o in outcomes:
        assert abs(o.probability - 0.5) <= 1e-9
        (second,) = qstate.measure(qstate.collapse(o), [1])
        assert second.result == o.result
        assert abs(second.probability - 1.0) <= 1e-9
    with capsys.disabled():
        report(3, "Bell pair: two outcomes at 0.5 +- 1e-9, second qubit matches at p=1")


def test_criterion_4_superposition_gate_action(capsys):
    state = qstate.StateVector(3, np.array([0.5, 0, 0.5, 0, 0, 0, -0.5, -0.5], dtype=complex))
    out = qstate.apply_gate(state, qstate.standard_gate("X"), [1])
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[2], expected[4], expected[5] = 0.5, 0.5, -0.5, -0.5
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)
    with capsys.disabled():
        report(4, "three-qubit worked example maps entrywise within 1e-12")


def test_criterion_5_no_cloning_via_typing(capsys):
    rejected = {}
    for entry in corpus.CORPUS:
        program, signatures, _src = load_corpus_file(entry.path)
        diags = typecheck.typecheck_program(program, signatures)
        if entry.expectation == "typechecks":
            assert diags == [], f"{entry.path}: {diags}"
        else:
            want = entry.expectation.split(":", 1)[1]
            got = [d.category for d in diags]
            assert want in got, f"{entry.path}: expected {want}, got {got}"
            rejected[entry.path] = want
        if entry.entry is not None:
            config = initial_configuration(program, entry.entry, signatures=signatures)
            alphabet = semantics.input_alphabet(
                program, entry.entry, signatures[entry.entry], DEFAULT_TEST_QUBITS
            )
            explore(config, alphabet=alphabet)  # raises on ownership violation
    assert set(rejected) == {"negative/clone.cqp", "negative/use_after_send.cqp"}
    with capsys.disabled():
        report(
            5,
            "negative corpus rejected with documented categories; positives "
            "typecheck; exhaustive exploration raised no ownership violation",
        )


def test_criterion_6_congruence_sampling(capsys):
    program_t, sigs_t, _ = load_corpus_file("teleport.cqp")
    program_i, sigs_i, _ = load_corpus_file("identity.cqp")
    start = time.monotonic()
    rep = congruence.check_congruence_samples(
        program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i, seed=2024, count=50
    )
    elapsed = time.monotonic() - start
    assert rep.total == 50
    assert rep.counterexamples == []
    assert rep.passed + len(rep.skipped) == 50
    assert elapsed < 300.0
    with capsys.disabled():
        report(
            6,
            f"50 contexts: {rep.passed} equivalent, 0 counterexamples, "
            f"{len(rep.skipped)} skipped, in {elapsed:.1f}s",
        )


def test_criterion_7_equivalence_checker_calibration(capsys):
    program_c, sigs_c, _ = load_corpus_file("coin.cqp")
    verdict = equiv.check_equivalence(
        program_c, "Coin", program_c, "DetZero", sigs_c, sigs_c
    )
    assert not verdict.equivalent
    assert verdict.witness.kind == "probability"

    rng = random.Random(7)
    checked = 0
    while checked < 20:
        plts = random_plts(rng)
        live = [s.id for s in plts.states if not s.terminal and s.kind == "nondet"]
        if not live:
            continue
        padded = insert_tau(plts, rng.choice(live))
        assert equiv.branching_bisim(plts, padded).equivalent
        checked += 1
    with capsys.disabled():
        report(
            7,
            "coin vs deterministic: probability witness; 20 tau insertions inert",
        )


def test_criterion_8_simulator_oracle(capsys):
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, n + 1))
        amps = random_state_amps(rng, n)
        gate = qstate.Gate("rand", k, random_unitary(rng, 2**k))
        targets = list(rng.permutation(n)[:k])
        got = qstate.apply_gate(qstate.StateVector(n, amps), gate, targets).amplitudes
        want = apply_gate_oracle(amps, gate.matrix, targets, n)
        np.testing.assert_allclose(got, want, atol=1e-12)
    with capsys.disabled():
        report(8, "1000 random gate applications match the expanded-matrix oracle (1e-12)")

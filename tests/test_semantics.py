"""Operational semantics: stepping, exploration, sampling."""

import hashlib
import inspect
import itertools
import random
import types
from pathlib import Path

import numpy as np
import pytest

from cqpkit import corpus, qstate, semantics, syntax
from cqpkit.equiv import branching_bisim, check_equivalence, input_instantiations
from cqpkit.semantics import (
    DEFAULT_TEST_QUBITS,
    TAU,
    CommLabel,
    ExplorationLimitError,
    OwnershipViolation,
    ProbLabel,
    RuntimeProcessError,
    Tau,
    canonical_key,
    explore,
    initial_configuration,
    input_alphabet,
    input_used_channels,
    render_label,
    run_sampled,
    settle,
    step,
)
from cqpkit.syntax import Call, parse_program, pretty_print
from cqpkit.typecheck import parse_signatures
from support import (
    SQ2,
    basis_drops_oracle,
    bench_workloads,
    compact_oracle,
    exploration_digest,
    explore_unsettled_oracle,
    fresh_skeleton,
    load_corpus_file,
    random_typed_program,
    reachable_outputs,
    step_full_oracle,
    step_oracle,
    successors,
    walk_records,
)


def teleport_alphabet(test_state=DEFAULT_TEST_QUBITS[2]):
    return {0: [(test_state,)]}


def test_render_label_prints_no_negative_zero():
    """A density-matrix entry part that is -0.0 or a tiny negative prints as
    0.0000, so a label's text does not depend on the order of the
    arithmetic that made the matrix."""
    dm = qstate.DensityMatrix(
        1, [[complex(0.5, -0.0), complex(-0.0, 0.5)], [complex(-1e-17, -0.5), 0.5]]
    )
    label = CommLabel("out", 0, "c", (semantics.QubitSlot(0),), dm)
    assert render_label(label) == "c![qubit]<0.5000+0.0000i;0.0000+0.5000i;0.0000-0.5000i;0.5000+0.0000i>"


# ---------------------------------------------------------------------------
# Initial configurations
# ---------------------------------------------------------------------------

def test_initial_configuration_teleport(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    assert config.qstate.num_qubits == 0
    assert config.channel_names == {0: "a", 1: "b"}
    assert config.bindings["a"] == semantics.ChannelVal(0)


def test_initial_configuration_identity(identity_program):
    program, signatures = identity_program
    config = initial_configuration(program, "Identity", signatures=signatures)
    from cqpkit.syntax import Input

    assert isinstance(config.term, Input)


def test_initial_configuration_unknown_entry(teleport_program):
    program, signatures = teleport_program
    with pytest.raises(RuntimeProcessError):
        initial_configuration(program, "Nope")


def test_entry_must_expose_channels(teleport_program):
    program, signatures = teleport_program
    with pytest.raises(RuntimeProcessError):
        initial_configuration(program, "Alice", signatures=signatures)


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def test_step_teleport_initial_is_single_allocation(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    transitions = step_oracle(config, teleport_alphabet())
    assert len(transitions) == 1
    (t,) = transitions
    assert isinstance(t.label, Tau)
    assert len(t.outcomes) == 1
    assert t.outcomes[0][1].qstate.num_qubits == 2


def test_step_nil_is_terminal():
    program = parse_program("P() = 0")
    config = initial_configuration(program, "P")
    assert step_oracle(config) == []
    assert step(config, rng=random.Random(0)) == []


def test_measure_and_send_has_four_quarter_outcomes(teleport_program):
    """Walk Teleport to the sender's measurement; it must fork four ways at
    probability 1/4 each regardless of the input state."""
    program, signatures = teleport_program
    for test_state in DEFAULT_TEST_QUBITS:
        config = initial_configuration(program, "Teleport", signatures=signatures)
        alphabet = {0: [(test_state,)]}
        # Drive deterministically until the measurement fork appears.
        for _ in range(40):
            transitions = step_oracle(config, alphabet)
            assert transitions, "reached a terminal state before measuring"
            t = transitions[0]
            if len(t.outcomes) > 1:
                probs = sorted(p for p, _c in t.outcomes)
                assert len(probs) == 4
                assert all(abs(p - 0.25) <= 1e-9 for p in probs)
                break
            config = t.outcomes[0][1]
        else:
            pytest.fail("never reached the measurement")


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

def explore_or_full(config, alphabet=None, reduce=True):
    """``explore`` when ``reduce`` is true; otherwise every interleaving,
    each successor interned as it is (``explore_unsettled_oracle`` over
    ``step_full_oracle``), the reference the reduction is tested against."""
    if reduce:
        return explore(config, alphabet=alphabet)
    return explore_unsettled_oracle(config, alphabet=alphabet, step=step_full_oracle)


def test_explore_identity_is_a_three_state_chain(identity_program):
    program, signatures = identity_program
    config = initial_configuration(program, "Identity", signatures=signatures)
    plts = explore(config, alphabet=teleport_alphabet())
    assert len(plts.states) == 3
    labels = [e.label for e in plts.edges]
    assert labels[0].kind == "in" and labels[1].kind == "out"
    assert plts.states[2].terminal


def test_explore_teleport_shape(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    plts = explore(config, alphabet=teleport_alphabet())
    prob_states = [s for s in plts.states if s.kind == "prob"]
    assert len(prob_states) == 1
    succ = successors(plts)
    fork = succ[prob_states[0].id]
    assert len(fork) == 4
    assert all(abs(e.label.probability - 0.25) <= 1e-9 for e in fork)
    outputs = [
        e for e in plts.edges if isinstance(e.label, CommLabel) and e.label.kind == "out"
    ]
    assert len(outputs) == 1
    assert all(plts.states[e.dst].terminal for e in outputs)


def test_explore_nil_single_terminal():
    program = parse_program("P() = 0")
    plts = explore(initial_configuration(program, "P"))
    assert len(plts.states) == 1
    assert plts.states[0].terminal


def test_probability_conservation_at_prob_states(teleport_program, coin_program):
    for (program, signatures), entry in [(teleport_program, "Teleport"), (coin_program, "Coin")]:
        config = initial_configuration(program, entry, signatures=signatures)
        plts = explore(config, alphabet=teleport_alphabet())
        succ = successors(plts)
        for s in plts.states:
            if s.kind == "prob":
                total = sum(e.label.probability for e in succ[s.id])
                assert abs(total - 1.0) <= 1e-9


def test_per_branch_determinism(teleport_program):
    """Every measurement branch delivers the input projector exactly. The
    branches merge before the output, so each is checked on the outputs
    reachable from it."""
    program, signatures = teleport_program
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


DIAMOND = "P() = (qbit x,y) ({x *= X} . 0 | {y *= X} . 0)"


def test_interleaving_diamond_merges():
    program = parse_program(DIAMOND)
    plts = explore_or_full(initial_configuration(program, "P"), reduce=False)
    # init, allocated, one merged mid state (the qubit a finished component
    # held is dead and dropped), one merged final state
    assert len(plts.states) == 4
    assert sum(1 for s in plts.states if s.terminal) == 1


def test_reduced_diamond_is_one_path():
    program = parse_program(DIAMOND)
    config = initial_configuration(program, "P")
    # Under the priority rule each configuration has one τ step: init,
    # allocated, left gate done, both gates done.
    path = [config]
    while transitions := step_oracle(path[-1]):
        (t,) = transitions
        assert t.label == TAU
        ((_p, nxt),) = t.outcomes
        path.append(nxt)
    assert len(path) == 4
    assert canonical_key(settle(config)) == canonical_key(path[-1])
    # ``explore`` settles the whole path into its last configuration.
    plts = explore(config)
    assert len(plts.states) == 1
    assert plts.edges == []
    assert plts.states[0].terminal


def test_merged_configurations_step_alike(monkeypatch):
    """Re-expand deduplicated configurations one level: the kept and the
    dropped configuration must offer the same transitions."""
    diamond = parse_program(
        "P(out) = (qbit x,y,z) ({x *= X} . 0 | ({y *= X} . 0 | {z *= H} . out![measure z] . 0))"
    )
    wide = parse_program(
        "P() = (qbit v,w,x,y,z) (({v *= X} . 0 | ({w *= H} . 0 | {x *= X} . 0)) "
        "| ({y *= X} . 0 | {z *= Z} . 0))"
    )
    harness, harness_sigs, _src = load_corpus_file("teleport_harness.cqp")
    # The oracle's ``intern`` looks ``canonical_key`` up on ``semantics``,
    # so recording its calls yields every configuration it interns.
    interned = []
    real_key = semantics.canonical_key

    def recording_key(cfg):
        key = real_key(cfg)
        interned.append((key, cfg))
        return key

    monkeypatch.setattr(semantics, "canonical_key", recording_key)
    merged = []
    for config in (
        initial_configuration(diamond, "P"),
        initial_configuration(wide, "P"),
        initial_configuration(harness, "Harness", signatures=harness_sigs),
    ):
        interned.clear()
        explore_or_full(config, reduce=False)
        # Pair each configuration with the first earlier one it merges into.
        buckets: dict[tuple, list] = {}
        for key, cfg in interned:
            bucket = buckets.setdefault(key, [])
            known = next(
                (k for k in bucket
                 if qstate.states_equal_up_to_global_phase(k.qstate, cfg.qstate)),
                None,
            )
            if known is None:
                bucket.append(cfg)
            else:
                merged.append((known, cfg))
    assert len(merged) >= 50
    for kept, dropped in merged[:50]:
        t_kept = step_full_oracle(kept)
        t_dropped = step_full_oracle(dropped)
        assert len(t_kept) == len(t_dropped)
        for a, b in zip(t_kept, t_dropped):
            assert type(a.label) is type(b.label)
            assert len(a.outcomes) == len(b.outcomes)
            for (pa, ca), (pb, cb) in zip(a.outcomes, b.outcomes):
                assert abs(pa - pb) <= 1e-9
                assert ca.qstate.num_qubits == cb.qstate.num_qubits


SIBLINGS_APART = (
    "//: P : ^[Qbit]\n"
    "P(c) = (qbit x,y) {x *= H} . {x,y *= CNot} . (new e) "
    "(e![measure x] . 0 | e?[r] . (new f) (f![y] . 0 | f?[z] . c![z] . 0))\n"
)


def test_measurement_branches_with_equal_keys_and_different_states_stay_apart(monkeypatch):
    """Measuring half of a Bell pair leaves y in |0> or |1>. Both branches
    settle to the send of y on ``f`` with equal keys, since the received
    bit ``r`` is no longer free, but different amplitudes, so the table
    through which ``explore`` settles the branches must not merge them.
    The PLTS digest in the golden file was recorded before that table
    existed."""
    met = []
    follow = semantics._follow

    def recording(skel, qvec, move, built, *args):
        if move[0] is semantics._COMMUNICATE and not built:
            met.append((skel, qvec))
        return follow(skel, qvec, move, built, *args)

    monkeypatch.setattr(semantics, "_follow", recording)
    program, signatures = parse_program(SIBLINGS_APART), parse_signatures(SIBLINGS_APART)
    config = initial_configuration(program, "P", signatures=signatures)
    plts = explore(config)
    golden = Path(__file__).parent / "golden" / "siblings_apart_digest.txt"
    assert exploration_digest(plts) == golden.read_text().strip()
    assert [s.kind for s in plts.states].count("nondet") == 4
    _on_e0, (on_f0, state_f0), _on_e1, (on_f1, state_f1) = met
    assert canonical_key(on_f0) == canonical_key(on_f1)
    assert not qstate.states_equal_up_to_global_phase(state_f0, state_f1)


# ---------------------------------------------------------------------------
# Reduction against full interleaving
# ---------------------------------------------------------------------------

def assert_reduction_bisimilar(program, signatures, entry):
    config = initial_configuration(program, entry, signatures=signatures)
    for alphabet in input_instantiations(
        program, entry, program, entry, signatures, signatures, DEFAULT_TEST_QUBITS
    ):
        reduced = explore(config, alphabet=alphabet)
        full = explore_or_full(config, alphabet=alphabet, reduce=False)
        verdict = branching_bisim(reduced, full)
        assert verdict.equivalent, f"{entry} under {alphabet}: {verdict.render()}"


def corpus_and_chain_entries():
    """(program, signatures, entry) of every corpus entry, Chain2 and Chain2H."""
    for entry in corpus.CORPUS:
        if entry.entry is not None:
            program, signatures, _src = load_corpus_file(entry.path)
            yield program, signatures, entry.entry
    source = bench_workloads().chain_source(2, ("H",))
    program, signatures = parse_program(source), parse_signatures(source)
    for entry in ("Chain2", "Chain2H"):
        yield program, signatures, entry


def random_entries():
    """(program, signatures, entry) of 400 random well-typed programs."""
    rng = random.Random(404)
    for _ in range(400):
        program, signatures = random_typed_program(rng)
        yield program, signatures, "Gen"


def test_no_configuration_holds_a_call():
    """Calls unfold as a structural congruence when a component is
    flattened, so no explored configuration runs a component headed by one,
    whether or not the reduction is on."""
    explorations = [
        (initial_configuration(program, entry, signatures=signatures), alphabet)
        for program, signatures, entry in itertools.chain(
            corpus_and_chain_entries(), random_entries()
        )
        for alphabet in input_instantiations(
            program, entry, program, entry, signatures, signatures, DEFAULT_TEST_QUBITS
        )
    ]
    source = bench_workloads().chain_source(3, ("H",))
    program, signatures = parse_program(source), parse_signatures(source)
    config = initial_configuration(program, "Chain3", signatures=signatures)
    explorations.append((config, teleport_alphabet()))
    for config, alphabet in explorations:
        for reduce in (True, False):
            plts = explore_or_full(config, alphabet=alphabet, reduce=reduce)
            for s in plts.states:
                if s.config is not None:
                    assert not any(isinstance(term, Call) for term, *_ in s.config.procs)


def test_reduction_bisimilar_on_corpus_and_chains():
    for case in corpus_and_chain_entries():
        assert_reduction_bisimilar(*case)


def test_reduction_bisimilar_on_random_typed_programs():
    for case in random_entries():
        assert_reduction_bisimilar(*case)


def test_four_hop_chain_equals_identity_under_default_cap():
    source = bench_workloads().chain_source(5, ("H",))
    program, signatures = parse_program(source), parse_signatures(source)
    verdict = check_equivalence(
        program, "Chain4", program, "Identity", signatures,
        test_qubits=(DEFAULT_TEST_QUBITS[2],),
    )
    assert verdict.equivalent
    assert check_equivalence(program, "Chain5", program, "Identity", signatures).equivalent
    verdict = check_equivalence(program, "Chain5H", program, "Identity", signatures)
    assert not verdict.equivalent
    # H fixes only |+> of the default set; the witness must name another input.
    moved = [q.name for q in DEFAULT_TEST_QUBITS if q.name != "|+>"]
    assert any(f"[{name}]" in verdict.witness.instantiation for name in moved)
    # The measurement branches of each hop merge before the next hop
    # measures, so each hop adds a fixed number of states instead of
    # multiplying by 4. Settling takes each hop's private sends on c and m,
    # so a hop adds 2.
    counts = [
        len(explore(initial_configuration(program, entry, signatures=signatures),
                    alphabet=teleport_alphabet()).states)
        for entry in ("Teleport", "Chain2", "Chain3", "Chain4", "Chain5")
    ]
    assert counts == [5, 7, 9, 11, 13]


# ---------------------------------------------------------------------------
# Dropping dead qubits against keeping them
# ---------------------------------------------------------------------------

def explore_keeping_dead_qubits(config, alphabet, reduce):
    """``explore_or_full`` with every dead qubit left in the state vector,
    measured ones included: every qubit is passed to ``_basis_drops``, the
    one place both a measurement branch and any other step decide which
    qubits drop, as live."""
    drops = semantics._basis_drops

    def keep_all(state, _live, outcome=None):
        return drops(state, frozenset(range(state.num_qubits)), outcome)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_basis_drops", keep_all)
        return explore_or_full(config, alphabet=alphabet, reduce=reduce)


def assert_drop_bisimilar(program, signatures, entry):
    config = initial_configuration(program, entry, signatures=signatures)
    for alphabet in input_instantiations(
        program, entry, program, entry, signatures, signatures, DEFAULT_TEST_QUBITS
    ):
        for reduce in (True, False):
            dropped = explore_or_full(config, alphabet=alphabet, reduce=reduce)
            kept = explore_keeping_dead_qubits(config, alphabet, reduce)
            verdict = branching_bisim(dropped, kept)
            assert verdict.equivalent, (
                f"{entry} under {alphabet}, reduce={reduce}: {verdict.render()}"
            )


def test_dropping_dead_qubits_is_bisimilar_to_keeping_them():
    for case in itertools.chain(corpus_and_chain_entries(), random_entries()):
        assert_drop_bisimilar(*case)


# Programs whose one measurement meets each case of liveness: the source,
# the qubits a branch holds after it, and whether the component beside the
# measuring one keeps its record (None: there is none).
LIVENESS_CASES = {
    # x stays live after it is measured, so its axis is zero-filled.
    "measured qubit stays live": (
        "P(c, d) = (qbit x) {x *= H} . c![measure x] . {x *= H} . d![x] . 0",
        1,
        None,
    ),
    # x dies as it is measured and is sliced out; its partner y died at the
    # CNot, is a basis state once x is measured and drops too; z died in
    # |+> and stays. a, held beside them, is below every dropped qubit.
    "measured dead qubit beside older dead ones": (
        "P(c, d) = (qbit a) (qbit z) {z *= H} . (qbit x,y) {x *= H} . {x,y *= CNot} . "
        "(d![a] . 0 | c![measure x] . 0)",
        2,
        True,
    ),
    # x stays live; its dead partner y becomes a basis state and drops in
    # the same step, so w, allocated after y, is renumbered.
    "dead partner of a live measured qubit": (
        "P(c, d, e) = (qbit x,y) {x *= H} . {x,y *= CNot} . (qbit w) "
        "(e![w] . 0 | c![measure x] . {x *= H} . d![x] . 0)",
        2,
        False,
    ),
}


def measurement_step(config):
    """The first configuration on the path of first transitions from
    ``config`` that can take a measurement with several outcomes, and that
    transition."""
    while True:
        transitions = step_oracle(config)
        for t in transitions:
            if len(t.outcomes) > 1:
                return config, t
        config = transitions[0].outcomes[0][1]


@pytest.mark.parametrize("case", LIVENESS_CASES)
def test_measurement_branches_drop_as_the_zero_fill_path_does(case):
    """Every configuration explored, with and without reduction, holds the
    amplitudes, bindings and qubit sets of the slow path: the branch
    collapsed at full width, then every dead qubit scanned at once
    (``basis_drops_oracle``), and the survivors renumbered with every qubit
    set walked from the terms (``compact_oracle``)."""
    source, held, shared = LIVENESS_CASES[case]
    config = initial_configuration(parse_program(source), "P")
    for reduce in (True, False):
        got = explore_or_full(config, reduce=reduce)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(semantics, "_basis_drops", basis_drops_oracle)
            mp.setattr(semantics, "_compact", compact_oracle)
            want = explore_or_full(fresh_skeleton(config), reduce=reduce)
        assert [(e.src, render_label(e.label), e.dst) for e in got.edges] == [
            (e.src, render_label(e.label), e.dst) for e in want.edges
        ]
        assert len(got.states) == len(want.states)
        for a, b in zip(got.states, want.states):
            assert (a.config is None) == (b.config is None)
            if a.config is not None:
                assert np.array_equal(a.config.qstate.amplitudes, b.config.qstate.amplitudes)
                assert a.config.bindings == b.config.bindings
                assert [r[2] for r in a.config.procs] == [r[2] for r in b.config.procs]
    before, measured = measurement_step(config)
    for _p, after in measured.outcomes:
        assert after.qstate.num_qubits == held
        if shared is not None:
            # The component beside the measuring one keeps its record, the
            # same object, when its qubits all lie below the lowest dropped
            # qubit, and gets a renumbered one otherwise.
            assert (after.procs[0] is before.procs[0]) == shared


def test_entangled_dead_qubits_stay():
    """After the CNot, x is dead but entangled with y; after the output both
    are dead and still entangled. Neither may be dropped: the label must
    show y's mixed reduced state, and the terminal state keeps 2 qubits."""
    program = parse_program("P(out) = (qbit x,y) {x *= H} . {x,y *= CNot} . out![y] . 0")
    plts = explore(initial_configuration(program, "P"))
    (out,) = [e for e in plts.edges if isinstance(e.label, CommLabel)]
    np.testing.assert_allclose(out.label.qubit_dm.matrix, np.eye(2) / 2, atol=1e-12)
    (terminal,) = [s for s in plts.states if s.terminal]
    assert terminal.config.qstate.num_qubits == 2


def output_distribution(plts) -> dict[str, float]:
    """Probability of each rendered output label over the paths from the
    initial state, multiplying the probabilistic edges along the way."""
    succ = successors(plts)
    found: dict[str, float] = {}
    stack = [(plts.initial, 1.0)]
    while stack:
        sid, p = stack.pop()
        for e in succ[sid]:
            q = p * e.label.probability if isinstance(e.label, ProbLabel) else p
            if isinstance(e.label, CommLabel) and e.label.kind == "out":
                name = render_label(e.label)
                found[name] = found.get(name, 0.0) + q
            stack.append((e.dst, q))
    return found


def test_nested_and_repeated_measurements_in_one_payload():
    """Both measurements of the payload are forced, the one nested in the
    tuple first; the bits land in their slots."""
    source = (
        "//: Q : ^[Bit,Bit,Bit]\n"
        "Q(c) = (qbit x,y) {x *= H} . c![(0, measure x), measure y] . 0\n"
    )
    program, signatures = parse_program(source), parse_signatures(source)
    plts = explore(initial_configuration(program, "Q", signatures=signatures))
    dist = output_distribution(plts)
    assert sorted(dist) == ["c![0,0,0]", "c![0,1,0]"]
    for p in dist.values():
        assert abs(p - 0.5) <= 1e-9


def test_multi_slot_input_keeps_qubit_order():
    """The qubits of one input are bound to the binders in slot order:
    x receives the first test qubit."""
    source = (
        "//: P : ^[Qbit,Qbit], ^[Qbit]\n"
        "P(c, d) = c?[x,y] . d![x] . 0\n"
    )
    program, signatures = parse_program(source), parse_signatures(source)
    zero, one = DEFAULT_TEST_QUBITS[:2]
    for first, second, projector in ((zero, one, [[1, 0], [0, 0]]), (one, zero, [[0, 0], [0, 1]])):
        config = initial_configuration(program, "P", signatures=signatures)
        plts = explore(config, alphabet={0: [(first, second)]})
        (out,) = [
            e for e in plts.edges if isinstance(e.label, CommLabel) and e.label.kind == "out"
        ]
        np.testing.assert_allclose(out.label.qubit_dm.matrix, projector, atol=1e-12)


def test_sequential_programs_run_past_the_qubit_cap():
    """13 qubits one after another, each measured before the next is
    allocated: at most one is ever live, so the default cap of 12 holds."""
    steps = [f"(qbit x{i}) {{x{i} *= H}} . c![measure x{i}]" for i in range(13)]
    program = parse_program(f"P(c) = {' . '.join(steps)} . 0")
    config = initial_configuration(program, "P")
    assert qstate.DEFAULT_QUBIT_CAP == 12
    trace = run_sampled(config, seed=1)
    outputs = [ts for ts in trace if isinstance(ts.label, CommLabel)]
    assert len(outputs) == 13
    assert step_oracle(trace[-1].config) == []
    assert len(explore(config).states) == 53


def test_exploration_cap(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    with pytest.raises(ExplorationLimitError) as err:
        explore(config, max_states=3, alphabet=teleport_alphabet())
    assert "3" in str(err.value)


def test_dynamic_ownership_violation_detected(monkeypatch):
    """Bypasses the type checker: two components hold the same qubit, next
    to each other or with a third component between them. The step that
    allocates the qubit is the one that fails, whether it is stepped from
    the initial configuration or behind a gate on another qubit, and its
    error is the one a fresh check of the failed configuration raises,
    message included."""
    checked = []
    check = semantics.Configuration.check_ownership

    def recorded(config):
        checked.append(config)
        return check(config)

    monkeypatch.setattr(semantics.Configuration, "check_ownership", recorded)
    for body in (
        "(qbit q) (c![q] . 0 | c![q] . 0)",
        "(qbit q) (c![q] . 0 | (c![0] . 0 | c![q] . 0))",
    ):
        for prefix in ("", "(qbit p) {p *= H} . "):
            config = initial_configuration(parse_program(f"P(c) = {prefix}{body}"), "P")
            with pytest.raises(OwnershipViolation) as err:
                run_sampled(config, seed=0)
            with pytest.raises(OwnershipViolation) as full:
                fresh_skeleton(checked[-1]).check_ownership()
            assert str(err.value) == str(full.value)
            assert str(err.value).endswith("bound under two parallel components")


def test_no_skeleton_reaches_a_state(teleport_program):
    """A skeleton is everything of a configuration but its state, and what
    exploring records on it holds no state either. From the skeleton of
    every state of ``Teleport`` explored under its default alphabet, a walk
    (``walk_records``) reaches every move, settle move, successor table and
    drop table the exploration recorded, and meets no ``StateVector``."""
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    alphabet = input_alphabet(program, "Teleport", signatures["Teleport"], DEFAULT_TEST_QUBITS)
    plts = explore(config, alphabet=alphabet)
    assert walk_records(s.config.skel for s in plts.states if s.config is not None) == (22, 0)


def test_no_skeleton_builder_calls_a_kernel(monkeypatch, teleport_program):
    """The builders make skeletons only, and ``_follow`` applies each
    step's state operation itself: no function of ``qstate``, the kernels
    ``semantics`` calls among them, runs while ``_successor`` is on the
    stack. ``Teleport`` explored under its default alphabet builds receives
    of test qubits, allocations, gates, measurements, a ``new`` and
    communications; seeded runs of the teleport harness build their steps
    through the same builders."""
    building, reached, built = [], [], set()
    successor = semantics._successor

    def watched(skel, move, arg=None):
        built.add(type(move[2]).__name__ if move[0] is semantics._TAU else move[0])
        building.append(move)
        try:
            return successor(skel, move, arg)
        finally:
            building.pop()

    def guarded(name, fn):
        def wrapped(*args, **kwargs):
            if building:
                reached.append(name)
                raise AssertionError(f"a skeleton builder called qstate.{name}")
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(semantics, "_successor", watched)
    for name, fn in list(vars(qstate).items()):
        if inspect.isfunction(fn) and fn.__module__ == qstate.__name__:
            monkeypatch.setattr(qstate, name, guarded(name, fn))
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    alphabet = input_alphabet(program, "Teleport", signatures["Teleport"], DEFAULT_TEST_QUBITS)
    assert explore(config, alphabet=alphabet).states
    assert built == {"QbitAlloc", "GateAction", "NewChannel", "receive", "measure", "send", "communicate"}
    workloads = bench_workloads()
    program, signatures = workloads.load(workloads.harness_source(2))
    harness = initial_configuration(program, "Harness", signatures=signatures)
    for seed in range(4):
        assert run_sampled(harness, seed)
    assert reached == []


def test_sampled_runs_record_a_bounded_set_of_skeletons():
    """Seeded runs from one configuration replay the records of its
    skeleton, and a measurement branch a run draws is built fresh, not
    recorded (``_Skeleton``): the 5-hop harness records as many skeletons
    after 200 runs as after 1, and none of them reaches a state."""
    workloads = bench_workloads()
    program, signatures = workloads.load(workloads.harness_source(5))
    config = initial_configuration(program, "Harness", signatures=signatures)
    run_sampled(config, 0)
    after_one = walk_records([config.skel])
    for seed in range(1, 200):
        run_sampled(config, seed)
    assert walk_records([config.skel]) == after_one == (32, 0)


def five_hop_harness():
    workloads = bench_workloads()
    program, signatures = workloads.load(workloads.harness_source(5))
    return lambda: initial_configuration(program, "Harness", signatures=signatures)


def test_runs_from_one_configuration_take_its_deterministic_steps_once(monkeypatch):
    """A configuration keeps the transition of its deterministic τ, so a
    later run from it reads the step back (``step``). Counted through the
    attributes of ``qstate``, as ``bench/spans.py`` counts the kernels, up
    to the first drawn measurement of a 5-hop harness run.

    A run from a fresh configuration first takes 28 deterministic τ steps:
    per hop an allocation of two qubits, an H, a CNot and a ``new``, 20;
    the ``new`` of the 4 links between hops and of ``a`` and ``b``, 6; and
    the harness's allocation of ``z`` and its H, 2. That is 6 allocations
    and 11 gates. It then sends |+> on ``a``, a private communication, and
    Alice's CNot and H of the first hop make 2 gates more before her
    measurement: 6 ``append_qubits`` and 13 ``apply_gate`` calls. A second
    run from the same configuration reads the 28 steps back and makes
    only the 2 gates after the send, since a communication is not kept and
    the configurations after it are new. A run from another fresh
    configuration makes all of them again."""
    counts = {}
    for name in ("append_qubits", "apply_gate"):
        fn = getattr(qstate, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(qstate, name, counted)

    def until_drawn(config, seed):
        counts.update(append_qubits=0, apply_gate=0)
        rng = random.Random(seed)
        while True:
            (t,) = step(config, rng=rng)
            if t.drawn:
                return dict(counts)
            ((_p, config),) = t.outcomes

    fresh = five_hop_harness()
    config = fresh()
    assert until_drawn(config, 0) == {"append_qubits": 6, "apply_gate": 13}
    assert until_drawn(config, 1) == {"append_qubits": 0, "apply_gate": 2}
    assert until_drawn(fresh(), 1) == {"append_qubits": 6, "apply_gate": 13}


def test_runs_from_one_configuration_share_their_tau_prefix():
    """Two runs from one configuration, with one seed, share the
    configurations of their 28 deterministic τ steps, and no later one:
    the send on ``a`` and every step after it is built anew."""
    config = five_hop_harness()()
    first, second = run_sampled(config, 0), run_sampled(config, 0)
    assert len(first) == len(second) == 59
    shared = [a.config is b.config for a, b in zip(first, second)]
    assert shared == [True] * 28 + [False] * 31


def test_a_deterministic_step_that_raises_is_not_kept():
    """A τ step that raises keeps nothing on its configuration, so every
    run from it raises the same error."""
    program = parse_program("P() = (qbit q1,q2,q3,q4,q5,q6,q7,q8,q9,q10,q11,q12,q13) 0")
    config = initial_configuration(program, "P")
    for seed in range(2):
        with pytest.raises(qstate.CapacityError, match="exceed cap"):
            run_sampled(config, seed)
    assert config._tau is None


def test_sampled_runs_raise_only_on_the_moves_they_take():
    """A step takes the first enabled move even where a later move of the
    same skeleton holds a runtime error, here the scope extrusion of
    ``d![k]``: in a run from a fresh configuration, in a second run that
    replays the first one's records, and after ``explore`` has recorded the
    settle step and then raised the error. A run that goes on to that move
    raises the same error."""
    program = parse_program("P(c, d) = (new k) (c![0] . 0 | d![k] . 0)")
    config = initial_configuration(program, "P")

    def labels():
        return [render_label(ts.label) for ts in run_sampled(config, 0, max_steps=2)]

    assert labels() == ["tau", "c![0]"]
    assert labels() == ["tau", "c![0]"]
    with pytest.raises(RuntimeProcessError, match="scope extrusion") as explored:
        explore(config)
    assert labels() == ["tau", "c![0]"]
    with pytest.raises(RuntimeProcessError) as ran:
        run_sampled(config, 0)
    assert str(ran.value) == str(explored.value)


def test_qubit_capacity_respected():
    program = parse_program(
        "P() = (qbit q1,q2,q3,q4,q5,q6,q7,q8,q9,q10,q11,q12,q13) 0"
    )
    with pytest.raises(qstate.CapacityError):
        explore(initial_configuration(program, "P"))


def test_canonical_key_identifies_alpha_variants(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    from cqpkit.syntax import substitute

    renamed = fresh_skeleton(
        config,
        procs=tuple(
            (substitute(term, {"a": "left", "b": "right"}), env, qubits, hidden)
            for term, env, qubits, hidden in config.procs
        ),
        bindings={
            "left": config.bindings["a"],
            "right": config.bindings["b"],
        },
    )
    assert canonical_key(renamed) == canonical_key(config)


def test_running_renames_no_term_and_walks_each_node_once(monkeypatch):
    """A component is its program's own term under an environment, so
    exploring never calls ``substitute``, and the free names (a fold over
    ``scopes``) and the key template (one ``canonical_form``) of a term node
    are computed at most once, however many configurations share it. A
    forced output is made once per output node and outcome
    (``Output.forced``), so the four outcomes of Alice's one ``measure``
    make four nodes, shared by every hop of both entries."""
    source = bench_workloads().chain_source(5, ("H",))
    program, signatures = parse_program(source), parse_signatures(source)

    def nodes(term):
        yield term
        for _binders, sub in syntax.scopes(term):
            yield from nodes(sub)

    program_nodes = {id(t) for d in program.definitions for t in nodes(d.body)}
    substituted, scoped, formed = [], [], []

    def counted(calls, real):
        def wrapper(term, *args):
            calls.append(term)
            return real(term, *args)

        return wrapper

    monkeypatch.setattr(semantics, "substitute", counted(substituted, semantics.substitute))
    monkeypatch.setattr(syntax, "scopes", counted(scoped, syntax.scopes))
    monkeypatch.setattr(syntax, "canonical_form", counted(formed, syntax.canonical_form))
    explored = 0
    for entry in ("Chain5", "Chain5H"):
        config = initial_configuration(program, entry, signatures=signatures)
        alphabet = semantics.input_alphabet(program, entry, signatures[entry], DEFAULT_TEST_QUBITS)
        explored += len(explore(config, alphabet=alphabet).states)
    assert explored > 50
    assert substituted == []
    assert formed
    for calls in (scoped, formed):
        assert len({id(term) for term in calls}) == len(calls)
    forced = [term for term in scoped if id(term) not in program_nodes]
    assert sorted(pretty_print(term) for term in forced) == [
        f"out![{u}, {q}] . 0" for u in (0, 1) for q in (0, 1)
    ]


def equivalent(left: str, right: str, reduce: bool) -> bool:
    """Whether the entries ``L`` of ``left`` and ``R`` of ``right``, each a
    program with signatures, are bisimilar when both are explored by
    ``explore_or_full`` with ``reduce`` and every input value enabled at
    once."""
    (pa, sa), (pb, sb) = ((parse_program(s), parse_signatures(s)) for s in (left, right))
    alphabet = {
        **semantics.input_alphabet(pa, "L", sa["L"], DEFAULT_TEST_QUBITS),
        **semantics.input_alphabet(pb, "R", sb["R"], DEFAULT_TEST_QUBITS),
    }
    return branching_bisim(
        explore_or_full(initial_configuration(pa, "L", signatures=sa), alphabet, reduce),
        explore_or_full(initial_configuration(pb, "R", signatures=sb), alphabet, reduce),
    ).equivalent


CAPTURE = """//: Foo : ^[Bit]
//: L : ^[Bit]
Foo(x) = (new a) (a![1] . 0 | a?[z] . x![z] . 0)
L(a) = Foo(a)
"""
SHADOW = "//: L : ^[Bit], ^[Bit]\nL(c,d) = c?[x] . c?[x] . d![x] . 0\n"


@pytest.mark.parametrize("reduce", [True, False])
@pytest.mark.parametrize(
    "left, right, expected",
    [
        # The call passes ``a`` into a body that binds its own ``a``.
        (CAPTURE, "//: R : ^[Bit]\nR(a) = (new c) (c![1] . 0 | c?[z] . a![z] . 0)", True),
        (CAPTURE, "//: R : ^[Bit]\nR(a) = (new c) (c![0] . 0 | c?[z] . a![z] . 0)", False),
        # The second input shadows the first; both values are offered on c.
        (SHADOW, "//: R : ^[Bit], ^[Bit]\nR(c,d) = c?[y] . c?[x] . d![x] . 0", True),
        (SHADOW, "//: R : ^[Bit], ^[Bit]\nR(c,d) = c?[x] . c?[y] . d![x] . 0", False),
    ],
)
def test_captured_and_shadowed_names_resolve_to_their_binders(left, right, expected, reduce):
    assert equivalent(left, right, reduce) is expected


def test_canonical_key_ignores_bracketing_and_finished_components():
    """``A | (B | C)``, ``(A | B) | C`` and ``((A | 0) | B) | C`` are
    structurally congruent, so they are one configuration."""
    a, b, c = "c![0] . 0", "c![1] . 0", "c?[x] . 0"
    sources = (f"({a} | ({b} | {c}))", f"(({a} | {b}) | {c})", f"((({a} | 0) | {b}) | {c})")
    keys = {
        canonical_key(initial_configuration(parse_program(f"P(c) = {src}"), "P"))
        for src in sources
    }
    assert len(keys) == 1


# ---------------------------------------------------------------------------
# Sampled runs
# ---------------------------------------------------------------------------

def _harness_config():
    program, signatures, _src = load_corpus_file("teleport_harness.cqp")
    return initial_configuration(program, "Harness", signatures=signatures)


def test_sampled_run_is_reproducible():
    config = _harness_config()
    first = run_sampled(config, seed=7)
    second = run_sampled(config, seed=7)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert semantics.render_label(a.label) == semantics.render_label(b.label)
        assert qstate.dirac(a.config.qstate) == qstate.dirac(b.config.qstate)
        assert a.probability == b.probability


def test_harness_teleports_plus_state_for_any_seed():
    config = _harness_config()
    plus = np.array([SQ2, SQ2], dtype=complex)
    projector = np.outer(plus, plus.conj())
    seen_branches = set()
    for seed in range(12):
        trace = run_sampled(config, seed=seed)
        final = trace[-1].config
        (w_name,) = [n for n in final.bindings if n.startswith("w~")]
        qid = final.bindings[w_name].qid
        rho = qstate.reduced_density_matrix(final.qstate, [qid])
        fidelity = float(np.real(plus.conj() @ rho.matrix @ plus))
        assert fidelity >= 1.0 - 1e-9
        np.testing.assert_allclose(rho.matrix, projector, atol=1e-9)
        # The measured qubits are dropped, leaving only the received one.
        assert final.qstate.num_qubits == 1
        (r_name,) = [n for n in final.bindings if n.startswith("r~")]
        seen_branches.add(final.bindings[r_name])
    assert len(seen_branches) >= 2  # different seeds collapse differently


def fixed_draw(value: float):
    """A PRNG stub whose every ``random()`` is ``value``."""
    return types.SimpleNamespace(random=lambda: value)


def test_draw_falls_back_to_the_last_outcome_when_rounding_leaves_the_sum_short():
    """``_draw`` takes the first ``(p, arg, branch)`` outcome whose summed
    probability reaches the draw. When the probabilities, rounded, sum to
    less than a draw, no outcome reaches it, and the last is taken."""
    outcomes = [(0.25, (0, 0), "b00"), (0.25, (0, 1), "b01"), (0.5 - 1e-12, (1, 0), "b10")]
    assert semantics._draw(outcomes, fixed_draw(0.3)) is outcomes[1]
    assert semantics._draw(outcomes, fixed_draw(0.5)) is outcomes[1]
    short = 1.0 - 1e-13
    assert short > sum(p for p, _arg, _branch in outcomes)
    assert semantics._draw(outcomes, fixed_draw(short)) is outcomes[-1]


def test_a_sampled_run_builds_one_configuration_per_step(monkeypatch):
    """Counted as the benchmark counts ``simulate``'s states: every outcome
    of every transition that ``step``, looked up as a global of
    ``semantics``, returns, kept ones included. A run builds at most the
    configurations it takes, and each of 50 runs from one configuration,
    as a ``simulate`` round makes them, counts every step it takes: 59,
    though after the first run 28 of them are the kept transitions of the
    τ prefix, read back and not built again (``step``)."""
    workloads = bench_workloads()
    program, signatures = workloads.load(workloads.harness_source(5))
    config = initial_configuration(program, "Harness", signatures=signatures)
    built = 0
    full_step = semantics.step

    def counted_step(*args, **kwargs):
        nonlocal built
        transitions = full_step(*args, **kwargs)
        built += sum(len(t.outcomes) for t in transitions)
        return transitions

    monkeypatch.setattr(semantics, "step", counted_step)
    for seed in range(50):
        built = 0
        trace = run_sampled(config, seed)
        assert built == len(trace) == 59


def sampled_trace_digest(configs) -> str:
    """A SHA-256 digest of ``run_sampled(config, seed)`` for each seed and
    configuration of ``configs``: per step its rendered label, probability,
    qubit count, bindings and amplitudes, rounded to 12 digits with -0.0
    made 0.0."""
    h = hashlib.sha256()
    for seed, config in configs:
        h.update(f"seed {seed}\n".encode())
        for ts in run_sampled(config, seed):
            cfg = ts.config
            h.update(f"{render_label(ts.label)} {ts.probability!r} {cfg.num_qubits}\n".encode())
            h.update(repr(sorted(cfg.bindings.items())).encode())
            h.update((np.round(cfg.qstate.amplitudes, 12) + 0.0).tobytes())
    return h.hexdigest()


def test_sampled_traces_match_the_golden_digest():
    """Seeds 0 to 99 of the 5-hop harness, all run from one configuration,
    trace what the golden digest recorded, and so do the same seeds each
    run from a fresh configuration: what runs from one configuration share
    never changes a trace."""
    workloads = bench_workloads()
    program, signatures = workloads.load(workloads.harness_source(5))

    def fresh():
        return initial_configuration(program, "Harness", signatures=signatures)

    shared = fresh()
    golden = Path(__file__).parent / "golden" / "sampled_trace_digest.txt"
    assert sampled_trace_digest((seed, shared) for seed in range(100)) == golden.read_text().strip()
    assert sampled_trace_digest((seed, fresh()) for seed in range(100)) == golden.read_text().strip()


def test_bell_measurement_frequency_over_seeds(coin_program):
    program, signatures = coin_program
    config = initial_configuration(program, "Coin", signatures=signatures)
    zeros = 0
    runs = 10000
    for seed in range(runs):
        trace = run_sampled(config, seed=seed)
        out_labels = [
            ts.label
            for ts in trace
            if isinstance(ts.label, CommLabel) and ts.label.kind == "out"
        ]
        assert len(out_labels) == 1
        if out_labels[0].values == (0,):
            zeros += 1
    assert 0.48 <= zeros / runs <= 0.52


# ---------------------------------------------------------------------------
# External-input analysis
# ---------------------------------------------------------------------------

def test_input_alphabet_is_the_product_of_each_payload():
    source = "//: Pair : ^[Qbit, Bit], ^[Bit]\nPair(c, d) = c?[q, b] . d![b] . 0\n"
    program, signatures = parse_program(source), parse_signatures(source)
    zero, one = DEFAULT_TEST_QUBITS[:2]
    alphabet = semantics.input_alphabet(program, "Pair", signatures["Pair"], (zero, one))
    assert alphabet == {0: [(zero, 0), (zero, 1), (one, 0), (one, 1)]}
    source = "//: Relay : ^[^[Bit]]\nRelay(c) = c?[d] . d![0] . 0\n"
    program, signatures = parse_program(source), parse_signatures(source)
    with pytest.raises(RuntimeProcessError):
        semantics.input_alphabet(program, "Relay", signatures["Relay"], DEFAULT_TEST_QUBITS)


def test_input_used_channels(teleport_program, identity_program):
    program, _ = teleport_program
    assert input_used_channels(program, "Teleport") == {0}
    program_i, _ = identity_program
    assert input_used_channels(program_i, "Identity") == {0}
    bell, _sigs, _src = load_corpus_file("bell.cqp")
    assert input_used_channels(bell, "Bell") == set()

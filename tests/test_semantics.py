"""Operational semantics: stepping, exploration, sampling."""

import itertools
import random

import numpy as np
import pytest

from cqpkit import corpus, qstate, semantics
from cqpkit.equiv import branching_bisim, check_equivalence, input_instantiations
from cqpkit.semantics import (
    DEFAULT_TEST_QUBITS,
    CommLabel,
    Component,
    ExplorationLimitError,
    OwnershipViolation,
    ProbLabel,
    RuntimeProcessError,
    Tau,
    canonical_key,
    explore,
    initial_configuration,
    input_used_channels,
    render_label,
    run_sampled,
    step,
)
from cqpkit.syntax import Call, parse_program
from cqpkit.typecheck import parse_signatures
from support import SQ2, random_typed_program, reachable_outputs


def teleport_alphabet(test_state=DEFAULT_TEST_QUBITS[2]):
    return {0: [(test_state,)]}


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
    transitions = step(config, teleport_alphabet())
    assert len(transitions) == 1
    (t,) = transitions
    assert isinstance(t.label, Tau)
    assert len(t.outcomes) == 1
    assert t.outcomes[0][1].qstate.num_qubits == 2


def test_step_nil_is_terminal():
    program = parse_program("P() = 0")
    config = initial_configuration(program, "P")
    assert step(config) == []


def test_measure_and_send_has_four_quarter_outcomes(teleport_program):
    """Walk Teleport to the sender's measurement; it must fork four ways at
    probability 1/4 each regardless of the input state."""
    program, signatures = teleport_program
    for test_state in DEFAULT_TEST_QUBITS:
        config = initial_configuration(program, "Teleport", signatures=signatures)
        alphabet = {0: [(test_state,)]}
        # Drive deterministically until the measurement fork appears.
        for _ in range(40):
            transitions = step(config, alphabet)
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
    succ = plts.successors()
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
        succ = plts.successors()
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
        branches = plts.successors()[fork.id]
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
    plts = explore(initial_configuration(program, "P"), reduce=False)
    # init, allocated, one merged mid state (the qubit a finished component
    # held is dead and dropped), one merged final state
    assert len(plts.states) == 4
    assert sum(1 for s in plts.states if s.terminal) == 1


def test_reduced_diamond_is_one_path():
    program = parse_program(DIAMOND)
    plts = explore(initial_configuration(program, "P"))
    # init, allocated, left gate done, both gates done
    assert len(plts.states) == 4
    assert len(plts.edges) == len(plts.states) - 1
    assert sum(1 for s in plts.states if s.terminal) == 1


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
    harness, harness_sigs, _src = corpus.load_corpus_file("teleport_harness.cqp")
    # ``intern`` looks ``canonical_key`` up as a module global, so recording
    # its calls yields every configuration an exploration interns.
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
        explore(config, reduce=False)
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
        t_kept = step(kept, reduce=False)
        t_dropped = step(dropped, reduce=False)
        assert len(t_kept) == len(t_dropped)
        for a, b in zip(t_kept, t_dropped):
            assert type(a.label) is type(b.label)
            assert len(a.outcomes) == len(b.outcomes)
            for (pa, ca), (pb, cb) in zip(a.outcomes, b.outcomes):
                assert abs(pa - pb) <= 1e-9
                assert ca.qstate.num_qubits == cb.qstate.num_qubits


# ---------------------------------------------------------------------------
# Reduction against full interleaving
# ---------------------------------------------------------------------------

def chain_source(max_k: int) -> str:
    """Teleport chains Chain_k(a,b) = (new m)(Chain_{k-1}(a,m) | Teleport(m,b)),
    with Chain_1 = Teleport, and Chain_kH: Chain_k followed by a hop
    applying H."""
    def entry(k):
        return "Teleport" if k == 1 else f"Chain{k}"

    lines = [
        corpus.read_corpus_file("teleport.cqp"),
        "//: Identity : ^[Qbit], ^[Qbit]",
        "Identity(c, d) = c?[x] . d![x] . 0",
        "//: HopH : ^[Qbit], ^[Qbit]",
        "HopH(c, d) = c?[x] . {x *= H} . d![x] . 0",
    ]
    for k in range(2, max_k + 1):
        lines += [
            f"//: Chain{k} : ^[Qbit], ^[Qbit]",
            f"Chain{k}(a, b) = (new m) ({entry(k - 1)}(a, m) | Teleport(m, b))",
            f"//: Chain{k}H : ^[Qbit], ^[Qbit]",
            f"Chain{k}H(a, b) = (new m) (Chain{k}(a, m) | HopH(m, b))",
        ]
    return "\n".join(lines) + "\n"


def assert_reduction_bisimilar(program, signatures, entry):
    config = initial_configuration(program, entry, signatures=signatures)
    for alphabet in input_instantiations(program, entry, program, entry, signatures):
        reduced = explore(config, alphabet=alphabet)
        full = explore(config, alphabet=alphabet, reduce=False)
        verdict = branching_bisim(reduced, full)
        assert verdict.equivalent, f"{entry} under {alphabet}: {verdict.render()}"


def corpus_and_chain_entries():
    """(program, signatures, entry) of every corpus entry, Chain2 and Chain2H."""
    for entry in corpus.CORPUS:
        if entry.entry is not None:
            program, signatures, _src = corpus.load_corpus_file(entry.path)
            yield program, signatures, entry.entry
    source = chain_source(2)
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
        for alphabet in input_instantiations(program, entry, program, entry, signatures)
    ]
    source = chain_source(3)
    program, signatures = parse_program(source), parse_signatures(source)
    config = initial_configuration(program, "Chain3", signatures=signatures)
    explorations.append((config, teleport_alphabet()))
    for config, alphabet in explorations:
        for reduce in (True, False):
            plts = explore(config, alphabet=alphabet, reduce=reduce)
            for s in plts.states:
                if s.config is not None:
                    assert not any(isinstance(c.term, Call) for c in s.config.procs)


def test_reduction_bisimilar_on_corpus_and_chains():
    for case in corpus_and_chain_entries():
        assert_reduction_bisimilar(*case)


def test_reduction_bisimilar_on_random_typed_programs():
    for case in random_entries():
        assert_reduction_bisimilar(*case)


def test_four_hop_chain_equals_identity_under_default_cap():
    source = chain_source(5)
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
    # The measurement branches of each hop merge after the correction, so
    # each hop adds a fixed number of states instead of multiplying by 4.
    counts = [
        len(explore(initial_configuration(program, entry, signatures=signatures),
                    alphabet=teleport_alphabet()).states)
        for entry in ("Teleport", "Chain2", "Chain3", "Chain4", "Chain5")
    ]
    assert counts == [19, 37, 55, 73, 91]


# ---------------------------------------------------------------------------
# Dropping dead qubits against keeping them
# ---------------------------------------------------------------------------

def explore_keeping_dead_qubits(config, alphabet, reduce):
    """``explore`` with every dead qubit left in the state vector."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semantics, "_drop_dead_qubits", lambda config, live: config)
        return explore(config, alphabet=alphabet, reduce=reduce)


def assert_drop_bisimilar(program, signatures, entry):
    config = initial_configuration(program, entry, signatures=signatures)
    for alphabet in input_instantiations(program, entry, program, entry, signatures):
        for reduce in (True, False):
            dropped = explore(config, alphabet=alphabet, reduce=reduce)
            kept = explore_keeping_dead_qubits(config, alphabet, reduce)
            verdict = branching_bisim(dropped, kept)
            assert verdict.equivalent, (
                f"{entry} under {alphabet}, reduce={reduce}: {verdict.render()}"
            )


def test_dropping_dead_qubits_is_bisimilar_to_keeping_them():
    for case in itertools.chain(corpus_and_chain_entries(), random_entries()):
        assert_drop_bisimilar(*case)


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
    succ = plts.successors()
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
    assert step(trace[-1].config) == []
    assert len(explore(config).states) == 79


def test_exploration_cap(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    with pytest.raises(ExplorationLimitError) as err:
        explore(config, max_states=3, alphabet=teleport_alphabet())
    assert "3" in str(err.value)


def test_dynamic_ownership_violation_detected():
    # Bypasses the type checker: two components hold the same qubit, next
    # to each other or with a third component between them. The step that
    # allocates the qubit is the one that fails.
    for source in (
        "P(c) = (qbit q) (c![q] . 0 | c![q] . 0)",
        "P(c) = (qbit q) (c![q] . 0 | (c![0] . 0 | c![q] . 0))",
    ):
        config = initial_configuration(parse_program(source), "P")
        with pytest.raises(OwnershipViolation):
            step(config)


def test_qubit_capacity_respected():
    program = parse_program(
        "P() = (qbit q1,q2,q3,q4,q5,q6,q7,q8,q9,q10,q11,q12,q13) 0"
    )
    with pytest.raises(qstate.CapacityError):
        explore(initial_configuration(program, "P"))


def test_canonical_key_identifies_alpha_variants(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    import dataclasses

    from cqpkit.syntax import substitute

    renamed = dataclasses.replace(
        config,
        procs=tuple(
            Component(substitute(c.term, {"a": "left", "b": "right"})) for c in config.procs
        ),
        bindings={
            "left": config.bindings["a"],
            "right": config.bindings["b"],
        },
    )
    assert canonical_key(renamed) == canonical_key(config)


def test_free_names_computed_once_per_component(monkeypatch):
    """A step costs what it changes: ``free_names`` runs at most once for
    each component ``_flatten`` makes, and never again for a component that
    a successor shares with its parent, however many ownership checks and
    keys read it."""
    made, walked = [], []
    real_free_names = semantics.free_names

    class CountedComponent(semantics.Component):
        __slots__ = ()

        def __init__(self, term):
            made.append(term)
            super().__init__(term)

    def counted_free_names(term):
        walked.append(term)
        return real_free_names(term)

    monkeypatch.setattr(semantics, "Component", CountedComponent)
    monkeypatch.setattr(semantics, "free_names", counted_free_names)
    source = chain_source(2)
    program, signatures = parse_program(source), parse_signatures(source)
    config = initial_configuration(program, "Chain2", signatures=signatures)
    alphabet = semantics.input_alphabet(program, "Chain2", signatures["Chain2"], DEFAULT_TEST_QUBITS)
    plts = explore(config, alphabet=alphabet)
    assert len(plts.states) > 50
    assert 0 < len(walked) <= len(made)


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
    program, signatures, _src = corpus.load_corpus_file("teleport_harness.cqp")
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
    bell, _sigs, _src = corpus.load_corpus_file("bell.cqp")
    assert input_used_channels(bell, "Bell") == set()

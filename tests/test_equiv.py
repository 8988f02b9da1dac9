"""Probabilistic branching bisimilarity: verdicts, witnesses, label matching
and the one-pass classes against a round-based refinement oracle."""

import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cqpkit import qstate
from cqpkit.equiv import (
    EquivalenceVerdict,
    _build_graph,
    _classify,
    _LabelClasses,
    branching_bisim,
    check_equivalence,
    input_instantiations,
    labels_match,
)
from cqpkit.semantics import (
    DEFAULT_TEST_QUBITS,
    PLTS,
    TAU,
    CommLabel,
    PLTSEdge,
    PLTSState,
    ProbLabel,
    QubitSlot,
    explore,
    initial_configuration,
)
from cqpkit.syntax import parse_program
from cqpkit.typecheck import parse_signatures
from support import (
    SQ2,
    chain_verdicts,
    explore_unsettled_oracle,
    insert_tau,
    random_plts,
    random_typed_program,
    refine_partition,
    step_full_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


def dm_of(amps) -> qstate.DensityMatrix:
    amps = np.asarray(amps, dtype=complex)
    return qstate.DensityMatrix(1, np.outer(amps, amps.conj()))


def out_qubit(channel, dm, name="b"):
    return CommLabel("out", channel, name, (QubitSlot(0),), dm)


def chain(*labels, kinds=None) -> PLTS:
    """A linear PLTS initial -> ... -> terminal over the given labels."""
    states = [PLTSState(i, "nondet") for i in range(len(labels) + 1)]
    states[-1].terminal = True
    edges = [PLTSEdge(i, lbl, i + 1) for i, lbl in enumerate(labels)]
    return PLTS(states, edges, 0)


# ---------------------------------------------------------------------------
# Label matching
# ---------------------------------------------------------------------------

def test_qubit_outputs_match_by_density_matrix():
    psi = np.array([0.6, 0.8j])
    direct = out_qubit(1, dm_of(psi))
    teleported = out_qubit(1, dm_of(psi * np.exp(1j * 0.7)))  # same up to phase
    assert labels_match(direct, teleported)


def test_classical_values_must_agree():
    a = CommLabel("out", 0, "c", (0,))
    b = CommLabel("out", 0, "c", (1,))
    assert not labels_match(a, b)
    assert labels_match(a, CommLabel("out", 0, "c", (0,)))


def test_orthogonal_qubit_payloads_differ():
    zero = out_qubit(1, dm_of([1, 0]))
    plus = out_qubit(1, dm_of([SQ2, SQ2]))
    assert not labels_match(zero, plus)


def test_tau_matches_only_tau():
    assert labels_match(TAU, TAU)
    assert not labels_match(TAU, CommLabel("out", 0, "c", (0,)))


def test_explicit_density_matrix_override():
    a = out_qubit(0, dm_of([1, 0]))
    b = out_qubit(0, dm_of([0, 1]))
    assert not labels_match(a, b)
    same = dm_of([SQ2, SQ2])
    assert labels_match(replace(a, qubit_dm=same), replace(b, qubit_dm=same))


# ---------------------------------------------------------------------------
# The flagship equivalence
# ---------------------------------------------------------------------------

def test_teleport_equals_identity(teleport_program, identity_program):
    program_t, sigs_t = teleport_program
    program_i, sigs_i = identity_program
    verdict = check_equivalence(
        program_t, "Teleport", program_i, "Identity", sigs_t, sigs_i
    )
    assert verdict == EquivalenceVerdict(True)


def test_any_plts_equivalent_to_itself(teleport_program):
    program, signatures = teleport_program
    config = initial_configuration(program, "Teleport", signatures=signatures)
    plts = explore(config, alphabet={0: [(DEFAULT_TEST_QUBITS[0],)]})
    assert branching_bisim(plts, plts).equivalent


def test_coin_vs_deterministic_probability_witness(coin_program):
    program, signatures = coin_program
    verdict = check_equivalence(
        program, "Coin", program, "DetZero", signatures, signatures
    )
    assert not verdict.equivalent
    assert verdict.witness.kind == "probability"
    low, high = sorted(
        [verdict.witness.left_probability, verdict.witness.right_probability]
    )
    assert abs(low - 0.5) <= 1e-9 and abs(high - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# Relation properties on generated systems
# ---------------------------------------------------------------------------

def test_bisimilarity_is_an_equivalence_relation():
    rng = random.Random(12345)
    pool = [random_plts(rng) for _ in range(30)]
    for plts in pool:
        assert branching_bisim(plts, plts).equivalent  # reflexive
    results = {}
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            forward = branching_bisim(pool[i], pool[j]).equivalent
            backward = branching_bisim(pool[j], pool[i]).equivalent
            assert forward == backward  # symmetric
            results[(i, j)] = forward
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            for k in range(j + 1, len(pool)):
                if results[(i, j)] and results[(j, k)]:
                    assert results[(i, k)]  # transitive


def test_tau_prefix_insertion_preserves_equivalence():
    # Insertion points are live nondeterministic states: a terminated
    # process is observably stopped, and probabilistic states are the
    # encoding of a single measurement transition, not configurations.
    rng = random.Random(54321)
    checked = 0
    while checked < 20:
        plts = random_plts(rng)
        live = [s.id for s in plts.states if not s.terminal and s.kind == "nondet"]
        if not live:
            continue
        target = rng.choice(live)
        padded = insert_tau(plts, target)
        assert branching_bisim(plts, padded).equivalent, (
            f"tau before state {target} was not inert"
        )
        checked += 1


def test_witness_ignores_a_state_whose_one_move_is_a_tau():
    """A state whose one edge is a τ into a nondeterministic state adds no
    class and no label class, so the witness between two systems names the
    same label, side and block with or without it. This is the shape
    ``semantics.explore`` folds away when it settles deterministic τ runs."""
    rng = random.Random(19)
    checked = 0
    for _ in range(300):
        a, b = random_plts(rng), random_plts(rng)
        verdict = branching_bisim(a, b)
        if verdict.equivalent:
            continue
        target = rng.choice([s.id for s in a.states if s.kind == "nondet"])
        assert branching_bisim(insert_tau(a, target), b).render() == verdict.render()
        assert branching_bisim(b, insert_tau(a, target)).render() == branching_bisim(b, a).render()
        checked += 1
    assert checked > 100


def test_probability_perturbation_breaks_equivalence():
    """Shifting >= 1e-3 of mass between observably different branches must
    be detected; the branches carry different classical outputs."""
    rng = random.Random(999)

    def coin_like(p: float, pad_left: int, pad_right: int) -> PLTS:
        states = [PLTSState(0, "nondet"), PLTSState(1, "prob")]
        edges = [PLTSEdge(0, TAU, 1)]

        def branch(prob, value, pad):
            entry = len(states)
            states.append(PLTSState(entry, "nondet"))
            edges.append(PLTSEdge(1, ProbLabel(prob), entry))
            current = entry
            for _ in range(pad):
                nxt = len(states)
                states.append(PLTSState(nxt, "nondet"))
                edges.append(PLTSEdge(current, TAU, nxt))
                current = nxt
            final = len(states)
            states.append(PLTSState(final, "nondet", True))
            edges.append(PLTSEdge(current, CommLabel("out", 0, "c", (value,)), final))

        branch(p, 0, pad_left)
        branch(1.0 - p, 1, pad_right)
        return PLTS(states, edges, 0)

    for _ in range(10):
        p = rng.uniform(0.2, 0.8)
        pads = (rng.randint(0, 2), rng.randint(0, 2))
        base = coin_like(p, *pads)
        same = coin_like(p, rng.randint(0, 2), rng.randint(0, 2))
        bumped = coin_like(p + 1e-3, *pads)
        assert branching_bisim(base, same).equivalent
        assert not branching_bisim(base, bumped).equivalent


def test_orthogonal_output_state_breaks_equivalence():
    original = chain(out_qubit(0, dm_of([1, 0])))
    swapped = chain(out_qubit(0, dm_of([0, 1])))
    verdict = branching_bisim(original, swapped)
    assert not verdict.equivalent


def test_near_identical_probabilities_within_tolerance_match():
    a = PLTS(
        [PLTSState(0, "nondet"), PLTSState(1, "prob"), PLTSState(2, "nondet", True),
         PLTSState(3, "nondet", True)],
        [
            PLTSEdge(0, TAU, 1),
            PLTSEdge(1, ProbLabel(0.5), 2),
            PLTSEdge(1, ProbLabel(0.5), 3),
        ],
        0,
    )
    b = PLTS(
        [PLTSState(0, "nondet"), PLTSState(1, "prob"), PLTSState(2, "nondet", True),
         PLTSState(3, "nondet", True)],
        [
            PLTSEdge(0, TAU, 1),
            PLTSEdge(1, ProbLabel(0.5 + 1e-8), 2),
            PLTSEdge(1, ProbLabel(0.5 - 1e-8), 3),
        ],
        0,
    )
    assert branching_bisim(a, b).equivalent


def coin_system(heads_masses, reached: int) -> PLTS:
    """Coins numbered in the given order; each sends its heads mass to an
    output ``c![0]`` and the rest to ``c![1]``. The initial state steps by
    tau into coin number ``reached`` only."""
    heads, tails = CommLabel("out", 0, "c", (0,)), CommLabel("out", 0, "c", (1,))
    states = [PLTSState(0, "nondet")]
    edges = []
    for i, mass in enumerate(heads_masses):
        coin = len(states)
        states += [PLTSState(coin, "prob")] + [PLTSState(coin + k, "nondet") for k in (1, 2)]
        states += [PLTSState(coin + k, "nondet", True) for k in (3, 4)]
        edges += [
            PLTSEdge(coin, ProbLabel(mass), coin + 1),
            PLTSEdge(coin, ProbLabel(1.0 - mass), coin + 2),
            PLTSEdge(coin + 1, heads, coin + 3),
            PLTSEdge(coin + 2, tails, coin + 4),
        ]
        if i == reached:
            edges.append(PLTSEdge(0, TAU, coin))
    return PLTS(states, edges, 0)


def test_verdict_does_not_depend_on_state_numbering():
    # The heads masses differ by 1.6e-6 > PROB_TOL. An unreachable fair coin
    # lies within PROB_TOL of one of them, so grouping masses first-fit within
    # a tolerance would make the verdict depend on how states are numbered.
    a = coin_system([0.5 + 0.8e-6, 0.5], reached=0)
    a_renumbered = coin_system([0.5, 0.5 + 0.8e-6], reached=1)
    b = coin_system([0.5 + 1.6e-6], reached=0)
    pairs = [(a, b), (b, a), (a_renumbered, b), (b, a_renumbered)]
    assert [branching_bisim(x, y).equivalent for x, y in pairs] == [False] * 4


def test_label_classes_do_not_depend_on_order():
    # The output matrices of A and B differ by 1.6e-9 > LABEL_TOL. An
    # unreachable output in A2 lies within LABEL_TOL of both, so grouping
    # labels first-fit within a tolerance would join them when it comes first.
    def half_half(shift):
        return qstate.DensityMatrix(1, np.diag([0.5 + shift, 0.5 - shift]).astype(complex))

    a = chain(out_qubit(0, half_half(0.0)))
    b = chain(out_qubit(0, half_half(1.6e-9)))
    a2 = PLTS(
        a.states + [PLTSState(2, "nondet"), PLTSState(3, "nondet", True)],
        [PLTSEdge(2, out_qubit(0, half_half(0.8e-9)), 3)] + a.edges,
        a.initial,
    )
    pairs = [(a, b), (b, a), (a2, b), (b, a2)]
    assert [branching_bisim(x, y).equivalent for x, y in pairs] == [False] * 4


def test_cyclic_input_is_rejected():
    loop = PLTS(
        [PLTSState(0, "nondet"), PLTSState(1, "nondet")],
        [PLTSEdge(0, TAU, 1), PLTSEdge(1, TAU, 0)],
        0,
    )
    with pytest.raises(ValueError, match="transition system has a cycle"):
        branching_bisim(loop, chain())


def test_probabilistic_initial_state_is_rejected():
    coin = PLTS(
        [PLTSState(0, "prob"), PLTSState(1, "nondet", True), PLTSState(2, "nondet", True)],
        [PLTSEdge(0, ProbLabel(0.5), 1), PLTSEdge(0, ProbLabel(0.5), 2)],
        0,
    )
    for a, b in ((coin, chain()), (chain(), coin)):
        with pytest.raises(ValueError, match="an initial state is probabilistic"):
            branching_bisim(a, b)


def assert_classes_match_refinement(systems):
    graph, _ = _build_graph(systems, _LabelClasses())
    class_of, _ = _classify(graph)
    oracle = refine_partition(graph)
    # Equal as equivalence relations: the pairing of the two labelings is a bijection.
    assert len(set(class_of)) == len(set(oracle)) == len(set(zip(class_of, oracle)))


def test_one_pass_classes_match_round_based_refinement():
    rng = random.Random(2017)
    for _ in range(200):
        plts = random_plts(rng)
        live = [s.id for s in plts.states if not s.terminal and s.kind == "nondet"]
        assert_classes_match_refinement([plts])
        assert_classes_match_refinement([plts, random_plts(rng)])
        assert_classes_match_refinement([plts, insert_tau(plts, rng.choice(live))])
    for _ in range(200):
        program, signatures = random_typed_program(rng)
        config = initial_configuration(program, "Gen", signatures=signatures)
        for alphabet in input_instantiations(
            program, "Gen", program, "Gen", signatures, signatures, DEFAULT_TEST_QUBITS
        ):
            reduced = explore(config, alphabet=alphabet)
            full = explore_unsettled_oracle(config, alphabet=alphabet, step=step_full_oracle)
            assert_classes_match_refinement([reduced, full])


# ---------------------------------------------------------------------------
# Termination
# ---------------------------------------------------------------------------

TERMINATION_SRC = """
//: Stop : ^[Bit]
//: ViaCall : ^[Bit]
//: ViaNew : ^[Bit]
//: Done :
//: Send : ^[Bit]
//: Idle : ^[Bit]
Stop(c) = c?[v] . 0
ViaCall(c) = c?[v] . Done()
ViaNew(c) = c?[v] . (new d) 0
Done() = 0
Send(out) = out![0] . 0
Idle(out) = 0
"""


@pytest.mark.parametrize("right", ["ViaCall", "ViaNew"])
def test_internal_step_before_termination_is_inert(right):
    program = parse_program(TERMINATION_SRC)
    sigs = parse_signatures(TERMINATION_SRC)
    assert check_equivalence(program, "Stop", program, right, sigs).equivalent


def test_termination_differs_from_visible_action():
    program = parse_program(TERMINATION_SRC)
    sigs = parse_signatures(TERMINATION_SRC)
    verdict = check_equivalence(program, "Send", program, "Idle", sigs)
    assert not verdict.equivalent
    assert branching_bisim(chain(TAU), chain()).equivalent
    assert not branching_bisim(chain(CommLabel("out", 0, "c", (0,))), chain()).equivalent


# ---------------------------------------------------------------------------
# Known wrong EQUIVALENT verdicts, pinned until they are fixed
# ---------------------------------------------------------------------------

OBSERVER_SRC = """
//: Bell : ^[Qbit]
//: Mixed : ^[Qbit]
//: Obs : ^[Qbit], ^[Bit,Bit]
//: CB : ^[Bit,Bit]
//: CM : ^[Bit,Bit]
Bell(c) = (qbit x,y) {x *= H} . {x,y *= CNot} . c![x] . c![y] . 0
Mixed(c) = (qbit x,u,y,v) {u *= H} . {u,x *= CNot} . {v *= H} . {v,y *= CNot} . c![x] . c![y] . 0
Obs(c, out) = c?[a] . c?[b] . {a,b *= CNot} . {a *= H} . out![measure a,b] . 0
CB(out) = (new c) (Bell(c) | Obs(c,out))
CM(out) = (new c) (Mixed(c) | Obs(c,out))
"""

REPEATED_INPUT_SRC = """
//: L : ^[Bit], ^[Bit]
//: R : ^[Bit], ^[Bit]
L(c,d) = c?[x] . c?[x] . d![x] . 0
R(c,d) = c?[x] . c?[y] . d![x] . 0
"""

WRONGLY_EQUIVALENT = pytest.mark.xfail(strict=True, reason="EQUIVALENT today; must flip once fixed")


@pytest.mark.parametrize(
    "source, left, right",
    [
        # The Obs context tells the Bell pair from the mixed pair:
        # out![0,0] has probability 1 against 0.25.
        pytest.param(OBSERVER_SRC, "CB", "CM", id="CB-CM"),
        # Each output is labelled with the state of its own qubit alone, not
        # with the joint state of every qubit the environment holds.
        pytest.param(OBSERVER_SRC, "Bell", "Mixed", marks=WRONGLY_EQUIVALENT, id="Bell-Mixed"),
        # One input value per channel reaches both inputs of c, so no run
        # sends 0 and then 1 on c.
        pytest.param(REPEATED_INPUT_SRC, "L", "R", marks=WRONGLY_EQUIVALENT, id="L-R"),
    ],
)
def test_distinguishable_processes_are_not_equivalent(source, left, right):
    program = parse_program(source)
    sigs = parse_signatures(source)
    assert not check_equivalence(program, left, program, right, sigs).equivalent


# ---------------------------------------------------------------------------
# Driver-level behaviour
# ---------------------------------------------------------------------------

def test_interface_mismatch_rejected(teleport_program, coin_program):
    program_t, sigs_t = teleport_program
    program_c, sigs_c = coin_program
    with pytest.raises(ValueError):
        check_equivalence(program_t, "Teleport", program_c, "Coin", sigs_t, sigs_c)


def test_witness_reports_instantiation(teleport_program, identity_program):
    # Break teleportation by dropping a correction case; the witness should
    # say which injected input exposed it.
    from cqpkit.syntax import parse_program
    from cqpkit.typecheck import parse_signatures

    broken_src = """
//: Alice : Qbit, ^[Qbit], ^[Bit,Bit]
//: Bob : Qbit, ^[Bit,Bit], ^[Qbit]
//: Teleport : ^[Qbit], ^[Qbit]
Alice(q, in, out) = in?[u] . {u,q *= CNot} . {u *= H} . out![measure u,q] . 0
Bob(y, in, out) = in?[r] . out![y] . 0
Teleport(a, b) = (qbit x,y) {x *= H} . {x,y *= CNot} . (new c) (Alice(x,a,c) | Bob(y,c,b))
"""
    broken = parse_program(broken_src)
    broken_sigs = parse_signatures(broken_src)
    program_i, sigs_i = identity_program
    verdict = check_equivalence(
        broken, "Teleport", program_i, "Identity", broken_sigs, sigs_i
    )
    assert not verdict.equivalent
    assert verdict.witness.instantiation is not None
    assert "a<-" in verdict.witness.instantiation


def test_chain_verdicts_match_golden():
    """Every verdict of the benchmark's teleport chains, witness text
    included, as pinned before ``explore`` settled deterministic τ runs."""
    assert chain_verdicts() == (GOLDEN / "equiv_chain_verdicts.txt").read_text()

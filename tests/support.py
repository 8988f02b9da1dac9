"""Shared oracles and generators for the test suite.

Most oracles here recompute expected values by routes independent of the
package's own computation paths: explicit matrix expansion instead of
tensor reshaping, explicit index loops instead of einsum-style transposes,
and term walks instead of cached sets and key templates. The transpose
kernels that ``qstate`` replaced with cached layouts, and the zero-fill
collapse that ``qstate.collapse`` replaced with a slice, are kept here as
slow paths too.

The step oracles are the exception. ``deterministic_tau_oracle``,
``step_full_oracle``, ``step_oracle``, ``drop_dead``,
``explore_unsettled_oracle`` and ``run_sampled_oracle`` build successors
with ``semantics``' own rule helpers (``_advance``, ``_bind``,
``_communicate``, ``_basis_drops``, ``_compact`` and the name readers).
So they check the orchestration, that is settling, the skeleton records,
the intern table that settle runs probe (``semantics._meet``) and the
order in which dead qubits drop, but not the rules or the observer model
that labels outputs; ROADMAP item 15 plans the independent reference
semantics that would.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from pathlib import Path

import numpy as np

from cqpkit import congruence, corpus, equiv, qstate, semantics, typecheck
from cqpkit.equiv import _TAU_CLASS, PROB_TOL, check_equivalence
from cqpkit.qstate import (
    ATOL,
    PRUNE_TOL,
    CapacityError,
    StateVector,
    dirac,
    states_equal_up_to_global_phase,
)
from cqpkit.semantics import (
    BASIS_TEST_QUBITS,
    DEFAULT_MAX_STATES,
    DEFAULT_TEST_QUBITS,
    PLTS,
    TAU,
    ChannelVal,
    CommLabel,
    Configuration,
    ExplorationLimitError,
    OwnershipViolation,
    PLTSEdge,
    PLTSState,
    ProbLabel,
    QubitSlot,
    QubitVal,
    RuntimeProcessError,
    SemanticsError,
    TestQubit,
    TraceStep,
    Transition,
    canonical_key,
    explore,
    initial_configuration,
    input_alphabet,
    render_label,
)
from cqpkit.syntax import (
    BitLit,
    Call,
    Expression,
    FixedGate,
    GateAction,
    Input,
    MeasureExpr,
    NewChannel,
    Nil,
    Output,
    Parallel,
    ProcessDef,
    ProcessTerm,
    Program,
    QbitAlloc,
    SigmaGate,
    Var,
    canonical_form,
    parse_program,
    pretty_print,
    substitute,
)
from cqpkit.typecheck import BIT, QBIT, ChannelType, parse_signatures

SQ2 = 1.0 / np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) * SQ2
CNOT4 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


# ---------------------------------------------------------------------------
# Linear-algebra oracles
# ---------------------------------------------------------------------------

def random_state_amps(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return amps / np.linalg.norm(amps)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def expand_gate_matrix(gate_matrix: np.ndarray, targets, n: int) -> np.ndarray:
    """Expand a k-qubit gate to the full 2^n matrix by explicit index walks.

    targets[0] is the most significant bit of the gate's local index; qubit
    0 is the least significant bit of the global index.
    """
    dim = 2**n
    k = len(targets)
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> q) & 1 for q in range(n)]
        lin = 0
        for t in targets:
            lin = (lin << 1) | bits[t]
        for lout in range(2**k):
            amp = gate_matrix[lout, lin]
            if amp == 0:
                continue
            obits = list(bits)
            for j, t in enumerate(targets):
                obits[t] = (lout >> (k - 1 - j)) & 1
            row = sum(b << q for q, b in enumerate(obits))
            full[row, col] += amp
    return full


def apply_gate_oracle(amps: np.ndarray, gate_matrix: np.ndarray, targets, n: int) -> np.ndarray:
    return expand_gate_matrix(gate_matrix, targets, n) @ amps


def rdm_oracle(amps: np.ndarray, n: int, keep: int) -> np.ndarray:
    """Single-qubit reduced density matrix by explicit index splitting."""
    m = np.zeros((2, 2 ** (n - 1)), dtype=complex)
    for idx, a in enumerate(amps):
        b = (idx >> keep) & 1
        low = idx & ((1 << keep) - 1)
        high = idx >> (keep + 1)
        m[b, (high << keep) | low] += a
    return m @ m.conj().T


# ---------------------------------------------------------------------------
# The transpose kernels ``qstate`` used before its cached layouts: each call
# computes the axis permutation and its ``argsort``, transposes the whole
# vector, and transposes a gate's image back.
# ---------------------------------------------------------------------------

def _prune_oracle(amps: np.ndarray) -> np.ndarray:
    amps[np.abs(amps) < PRUNE_TOL] = 0.0
    return amps


def transpose_grouped_oracle(amps: np.ndarray, targets) -> tuple[np.ndarray, np.ndarray]:
    """``amps`` as a 2^k x 2^(n-k) matrix whose row index reads the k
    ``targets``, targets[0] most significant, and the permutation that
    flattens it back."""
    n = len(amps).bit_length() - 1
    axes = [n - 1 - t for t in targets]  # axis a holds qubit n-1-a
    perm = axes + [a for a in range(n) if a not in axes]
    grouped = np.transpose(amps.reshape([2] * n), perm).reshape(2 ** len(axes), -1)
    return grouped, np.argsort(perm)


def transpose_apply_gate_oracle(amps: np.ndarray, gate_matrix: np.ndarray, targets) -> np.ndarray:
    grouped, undo = transpose_grouped_oracle(amps, targets)
    image = (gate_matrix @ grouped).reshape([2] * len(undo))
    return _prune_oracle(np.transpose(image, undo).reshape(-1))


def transpose_measure_oracle(amps: np.ndarray, targets) -> list[tuple]:
    """``(bits, probability, post-measurement amplitudes)`` for each outcome
    with probability of at least ``PRUNE_TOL``, ordered by the bits."""
    grouped, undo = transpose_grouped_oracle(amps, targets)
    k = len(targets)
    probs = np.sum(np.abs(grouped) ** 2, axis=1)
    outcomes = []
    for r in range(2**k):
        p = float(probs[r])
        if p < PRUNE_TOL:
            continue
        projected = np.zeros_like(grouped)
        projected[r] = grouped[r] / np.sqrt(p)
        post = np.transpose(projected.reshape([2] * len(undo)), undo).reshape(-1)
        bits = tuple((r >> (k - 1 - j)) & 1 for j in range(k))
        outcomes.append((bits, p, _prune_oracle(post)))
    return outcomes


def transpose_rdm_oracle(amps: np.ndarray, keep) -> np.ndarray:
    grouped, _undo = transpose_grouped_oracle(amps, keep)
    return grouped @ grouped.conj().T


def monomial_oracle(amps: np.ndarray, gate_matrix: np.ndarray, targets) -> np.ndarray:
    """A monomial gate (one nonzero entry per row) on the transposed
    amplitudes, as ``qstate`` applied it before its full-length gather: the
    rows are permuted unless the matrix is diagonal, then multiplied by
    their phases unless all are 1. Equal to ``qstate``'s result bit for
    bit, the sign of every zero included."""
    grouped, undo = transpose_grouped_oracle(amps, targets)
    rows = range(len(gate_matrix))
    source = [next(c for c in rows if gate_matrix[r, c] != 0) for r in rows]
    phases = np.array([[gate_matrix[r, source[r]]] for r in rows])
    image = grouped.copy() if source == list(rows) else grouped[source]
    if (phases != 1).any():
        image = image * phases
    return _prune_oracle(np.transpose(image.reshape([2] * len(undo)), undo).reshape(-1))


def eigvalsh_density_check_oracle(mat: np.ndarray) -> None:
    """The checks ``DensityMatrix`` runs on matrices of two or more qubits,
    which it ran on one-qubit matrices too before their closed form:
    Hermiticity, unit trace, and positive semidefiniteness by
    ``np.linalg.eigvalsh``. Raises ValueError with ``DensityMatrix``'s
    messages."""
    adjoint = mat.conj().T
    if not np.abs(mat - adjoint).max() <= ATOL:
        raise ValueError("density matrix not Hermitian")
    trace = complex(mat.trace())
    if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")
    if np.linalg.eigvalsh((mat + adjoint) / 2.0)[0] < -ATOL:
        raise ValueError("density matrix not positive semidefinite")


def drop_basis_qubits_oracle(amps: np.ndarray, candidates) -> tuple[np.ndarray, dict[int, int]]:
    """``drop_basis_qubits`` by index arithmetic on the flat vector: a
    candidate q is dropped with value b when every amplitude whose index has
    bit q unequal to b is exactly zero; the kept amplitudes are gathered by
    computing each one's index in ``amps``."""
    n = len(amps).bit_length() - 1
    indices = np.arange(2**n)
    dropped = {}
    for q in candidates:
        for b in (0, 1):
            if not amps[(indices >> q) & 1 != b].any():
                dropped[q] = b
                break
    kept = [q for q in range(n) if q not in dropped]
    j = np.arange(2 ** len(kept))
    source = np.full(len(j), sum(b << q for q, b in dropped.items()))
    for k, q in enumerate(kept):
        source += ((j >> k) & 1) << q
    return np.array(amps[source], dtype=complex), dropped


def collapse_oracle(outcome) -> np.ndarray:
    """The amplitudes of the branch ``outcome`` at full width: those that
    agree with its bits copied into a zero vector and scaled by 1/sqrt(p),
    then pruned. ``qstate.collapse`` with nothing dropped gives the same
    bits; with measured qubits dropped it gives this followed by
    ``drop_basis_qubits_oracle``."""
    n = outcome.state.num_qubits
    index: list = [slice(None)] * n
    for t, b in zip(outcome.targets, outcome.result):
        index[n - 1 - t] = b  # axis a holds qubit n-1-a
    index = tuple(index)
    psi = outcome.state.amplitudes.reshape([2] * n)
    post = np.zeros(psi.shape, dtype=np.complex128)
    post[index] = psi[index] / math.sqrt(outcome.probability)
    return _prune_oracle(post.reshape(-1))


def basis_factored_amps(rng: np.random.Generator, n: int) -> tuple[np.ndarray, dict[int, int]]:
    """A random n-qubit state in which about half the qubits, chosen at
    random, are basis states: the amplitudes and a map from each such
    qubit to its value."""
    basis = {q: int(rng.integers(0, 2)) for q in range(n) if rng.random() < 0.5}
    rest = [q for q in range(n) if q not in basis]
    amps = np.zeros(2**n, dtype=complex)
    base = sum(b << q for q, b in basis.items())
    for j, a in enumerate(random_state_amps(rng, len(rest))):
        amps[base + sum(((j >> k) & 1) << q for k, q in enumerate(rest))] = a
    return amps, basis


def teleport_branches_oracle(psi: np.ndarray):
    """Walk the teleportation circuit with explicit full matrices.

    Qubit layout matches the package's execution of the corpus program:
    x = qubit 0, y = qubit 1 (the entangled pair), u = qubit 2 (the input).
    Returns, per measurement result (u_bit, x_bit): the branch probability,
    the post-measurement state, and the pure state left on y.
    """
    bell = np.array([1, 0, 0, 1], dtype=complex) * SQ2  # (|x=0,y=0> + |x=1,y=1>)/sqrt(2)
    state = np.kron(psi, bell)  # u occupies the high bit
    state = apply_gate_oracle(state, CNOT4, [2, 0], 3)  # CNot, control u, target x
    state = apply_gate_oracle(state, H2, [2], 3)  # H on u
    branches = {}
    for u_bit in (0, 1):
        for x_bit in (0, 1):
            projected = state.copy()
            for idx in range(8):
                if ((idx >> 2) & 1) != u_bit or (idx & 1) != x_bit:
                    projected[idx] = 0.0
            prob = float(np.sum(np.abs(projected) ** 2))
            post = projected / np.sqrt(prob)
            y_vec = np.array(
                [post[(u_bit << 2) | (b << 1) | x_bit] for b in (0, 1)], dtype=complex
            )
            branches[(u_bit, x_bit)] = (prob, post, y_vec)
    return branches


def derive_correction_table():
    """Find, per measurement branch, which Pauli correction restores the
    input on two generic states; the unique answer is the sigma table."""
    candidates = {"I": I2, "X": X2, "Z": Z2, "ZX": Z2 @ X2}
    rng = np.random.default_rng(1234)
    probes = [random_state_amps(rng, 1), random_state_amps(rng, 1)]
    table = {}
    for branch in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        working = None
        for name, mat in candidates.items():
            ok = True
            for psi in probes:
                _prob, _post, y_vec = teleport_branches_oracle(psi)[branch]
                fixed = mat @ y_vec
                if abs(abs(np.vdot(fixed, psi)) - 1.0) > 1e-9:
                    ok = False
                    break
            if ok:
                working = name
                break
        assert working is not None, f"no correction restores branch {branch}"
        table[branch] = working
    return table


# ---------------------------------------------------------------------------
# PLTS generators
# ---------------------------------------------------------------------------

def _label_pool():
    return [
        CommLabel("out", 0, "c", (0,)),
        CommLabel("out", 0, "c", (1,)),
        CommLabel("out", 1, "d", (0,)),
        CommLabel("in", 0, "c", (1,)),
    ]


def random_plts(rng: random.Random, min_states: int = 3, max_states: int = 8) -> PLTS:
    """A random finite acyclic PLTS alternating nondeterministic and
    probabilistic states, with probabilities summing to one."""
    n = rng.randint(min_states, max_states)
    states = [PLTSState(i, "nondet") for i in range(n)]
    edges = []
    pool = _label_pool()
    for i in range(n - 1):
        fanout = rng.randint(1, 2)
        for _ in range(fanout):
            dst = rng.randint(i + 1, n - 1)
            if rng.random() < 0.25 and dst < n - 1:
                # Insert a probabilistic node splitting between two targets.
                pid = len(states)
                states.append(PLTSState(pid, "prob"))
                other = rng.randint(dst, n - 1)
                p = rng.choice([0.5, 0.25, 0.75])
                edges.append(PLTSEdge(i, TAU, pid))
                if other == dst:
                    edges.append(PLTSEdge(pid, ProbLabel(1.0), dst))
                else:
                    edges.append(PLTSEdge(pid, ProbLabel(p), dst))
                    edges.append(PLTSEdge(pid, ProbLabel(1.0 - p), other))
            else:
                label = rng.choice(pool + [TAU])
                edges.append(PLTSEdge(i, label, dst))
    with_out = {e.src for e in edges}
    for s in states:
        s.terminal = s.id not in with_out
    return PLTS(states, edges, 0)


def insert_tau(plts: PLTS, target: int) -> PLTS:
    """Route every edge into ``target`` through a fresh tau-prefixed state."""
    new_id = len(plts.states)
    states = [PLTSState(s.id, s.kind, s.terminal, s.config) for s in plts.states]
    states.append(PLTSState(new_id, "nondet", False))
    edges = [
        PLTSEdge(e.src, e.label, new_id if e.dst == target else e.dst) for e in plts.edges
    ]
    edges.append(PLTSEdge(new_id, TAU, target))
    initial = new_id if plts.initial == target else plts.initial
    return PLTS(states, edges, initial)


# ---------------------------------------------------------------------------
# Round-based bisimulation oracle
# ---------------------------------------------------------------------------

def refine_partition(graph) -> list[int]:
    """Block of every state of an ``equiv._Graph`` under the coarsest stable
    partition, by repeated whole-graph signature refinement.

    Each round gives every state a signature (its visible and block-changing
    internal steps after inert internal and probabilistic steps inside its
    block) and a distribution over blocks, and splits blocks first-fit by
    both, with masses equal within ``PROB_TOL``. It shares no code with
    ``equiv._classify``'s one bottom-up pass.
    """
    n = len(graph.kinds)

    def signature(s: int, block_of: list[int]) -> frozenset:
        home = block_of[s]
        closure = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for cls, p, dst in graph.out_edges[u]:
                inert = p is not None or cls == _TAU_CLASS
                if inert and block_of[dst] == home and dst not in closure:
                    closure.add(dst)
                    stack.append(dst)
        sig = set()
        for u in closure:
            for cls, p, dst in graph.out_edges[u]:
                if p is None and not (cls == _TAU_CLASS and block_of[dst] == home):
                    sig.add((cls, block_of[dst]))
        return frozenset(sig)

    def distribution(s: int, block_of: list[int]) -> dict[int, float]:
        if graph.kinds[s] != "prob":
            return {block_of[s]: 1.0}
        dist: dict[int, float] = {}
        for _cls, p, dst in graph.out_edges[s]:
            if p is not None:
                dist[block_of[dst]] = dist.get(block_of[dst], 0.0) + p
        return dist

    def dists_equal(a: dict[int, float], b: dict[int, float]) -> bool:
        return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= PROB_TOL for k in set(a) | set(b))

    block_of = [0] * n
    while True:
        sigs = [signature(s, block_of) for s in range(n)]
        dists = [distribution(s, block_of) for s in range(n)]
        members_by_block: dict[int, list[int]] = {}
        for s in range(n):
            members_by_block.setdefault(block_of[s], []).append(s)
        new_block_of = [0] * n
        next_id = 0
        changed = False
        for bid in sorted(members_by_block):
            groups: list[tuple] = []  # (signature, distribution, members)
            for s in members_by_block[bid]:
                for sig, dist, members in groups:
                    if sig == sigs[s] and dists_equal(dist, dists[s]):
                        members.append(s)
                        break
                else:
                    groups.append((sigs[s], dists[s], [s]))
            changed |= len(groups) > 1
            for _sig, _dist, members in groups:
                for s in members:
                    new_block_of[s] = next_id
                next_id += 1
        block_of = new_block_of
        if not changed:
            return block_of


# ---------------------------------------------------------------------------
# Random process terms (untyped, for name-handling laws)
# ---------------------------------------------------------------------------

_NAMES = ("a", "b", "c", "x", "y", "z", "w")


def random_expressions(rng: random.Random) -> tuple:
    """One payload item, or the two a parenthesized ``(0, name)`` splices in."""
    roll = rng.random()
    if roll < 0.45:
        return (Var(name=rng.choice(_NAMES)),)
    if roll < 0.65:
        return (BitLit(value=rng.randint(0, 1)),)
    if roll < 0.85:
        k = rng.randint(1, 2)
        names = rng.sample(_NAMES, k)
        return (MeasureExpr(names=tuple(names)),)
    return (BitLit(value=0), Var(name=rng.choice(_NAMES)))


def random_term(rng: random.Random, depth: int = 3) -> ProcessTerm:
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice(
            [Nil(), Call(process="P", args=tuple(rng.sample(_NAMES, rng.randint(0, 2))))]
        )
    roll = rng.random()
    cont = random_term(rng, depth - 1)
    if roll < 0.2:
        binders = tuple(rng.sample(_NAMES, rng.randint(1, 2)))
        return Input(channel=rng.choice(_NAMES), binders=binders, continuation=cont)
    if roll < 0.4:
        payload = sum((random_expressions(rng) for _ in range(rng.randint(1, 2))), ())
        return Output(channel=rng.choice(_NAMES), payload=payload, continuation=cont)
    if roll < 0.55:
        gate = (
            FixedGate(name=rng.choice(["H", "X", "Z", "I"]))
            if rng.random() < 0.8
            else SigmaGate(index_var=rng.choice(_NAMES))
        )
        return GateAction(targets=(rng.choice(_NAMES),), gate=gate, continuation=cont)
    if roll < 0.7:
        binders = tuple(rng.sample(_NAMES, rng.randint(1, 2)))
        return QbitAlloc(binders=binders, continuation=cont)
    if roll < 0.8:
        return NewChannel(binder=rng.choice(_NAMES), continuation=cont)
    return Parallel(left=cont, right=random_term(rng, depth - 1))


def alpha_variant(term: ProcessTerm, rng: random.Random, salt: list | None = None) -> ProcessTerm:
    """Consistently rename bound names, leaving free names alone."""
    if salt is None:
        salt = [0]

    def rename(binders, cont):
        mapping = {}
        fresh = []
        for b in binders:
            salt[0] += 1
            nb = f"r{salt[0]}"
            mapping[b] = nb
            fresh.append(nb)
        return tuple(fresh), substitute(cont, mapping)

    if isinstance(term, Input):
        binders, cont = rename(term.binders, term.continuation)
        return Input(
            channel=term.channel, binders=binders, continuation=alpha_variant(cont, rng, salt)
        )
    if isinstance(term, QbitAlloc):
        binders, cont = rename(term.binders, term.continuation)
        return QbitAlloc(binders=binders, continuation=alpha_variant(cont, rng, salt))
    if isinstance(term, NewChannel):
        binders, cont = rename((term.binder,), term.continuation)
        return NewChannel(binder=binders[0], continuation=alpha_variant(cont, rng, salt))
    if isinstance(term, Output):
        return Output(
            channel=term.channel,
            payload=term.payload,
            continuation=alpha_variant(term.continuation, rng, salt),
        )
    if isinstance(term, GateAction):
        return GateAction(
            targets=term.targets,
            gate=term.gate,
            continuation=alpha_variant(term.continuation, rng, salt),
        )
    if isinstance(term, Parallel):
        return Parallel(
            left=alpha_variant(term.left, rng, salt),
            right=alpha_variant(term.right, rng, salt),
        )
    return term


_GATE_CYCLE = ("H", "X", "Z", "I")


def perturb(term: ProcessTerm, rng: random.Random) -> ProcessTerm:
    """A copy of ``term`` with one edit at a random site: one free name
    occurrence renamed to ``u``, one fixed gate swapped for another, or an
    unused binder ``u`` added to an input or qubit allocation. A term with no
    such site comes back unchanged."""
    counter = [0]
    target = [-1]

    def hit() -> bool:
        counter[0] += 1
        return counter[0] - 1 == target[0]

    def name(n: str, bound: frozenset) -> str:
        return "u" if n not in bound and hit() else n

    def expr(e, bound):
        if isinstance(e, Var):
            return Var(name=name(e.name, bound))
        if isinstance(e, MeasureExpr):
            return MeasureExpr(names=tuple(name(n, bound) for n in e.names))
        return e

    def widened(binders: tuple) -> tuple:
        return binders + ("u",) if hit() else binders

    def go(t: ProcessTerm, bound: frozenset) -> ProcessTerm:
        if isinstance(t, Input):
            return Input(
                channel=name(t.channel, bound),
                binders=widened(t.binders),
                continuation=go(t.continuation, bound | set(t.binders)),
            )
        if isinstance(t, Output):
            return Output(
                channel=name(t.channel, bound),
                payload=tuple(expr(e, bound) for e in t.payload),
                continuation=go(t.continuation, bound),
            )
        if isinstance(t, GateAction):
            targets = tuple(name(x, bound) for x in t.targets)
            if isinstance(t.gate, SigmaGate):
                gate = SigmaGate(index_var=name(t.gate.index_var, bound))
            elif hit():
                gate = FixedGate(name=_GATE_CYCLE[(_GATE_CYCLE.index(t.gate.name) + 1) % 4])
            else:
                gate = t.gate
            return GateAction(targets=targets, gate=gate, continuation=go(t.continuation, bound))
        if isinstance(t, QbitAlloc):
            return QbitAlloc(
                binders=widened(t.binders),
                continuation=go(t.continuation, bound | set(t.binders)),
            )
        if isinstance(t, NewChannel):
            return NewChannel(binder=t.binder, continuation=go(t.continuation, bound | {t.binder}))
        if isinstance(t, Parallel):
            return Parallel(left=go(t.left, bound), right=go(t.right, bound))
        if isinstance(t, Call):
            return Call(process=t.process, args=tuple(name(a, bound) for a in t.args))
        return t

    go(term, frozenset())
    if not counter[0]:
        return term
    target[0] = rng.randrange(counter[0])
    counter[0] = 0
    return go(term, frozenset())


def quoted(name: str) -> str:
    """A free-name token for ``canonical_form`` that no binder token or
    literal can equal."""
    return "'" + name


def alpha_equivalent_oracle(a: ProcessTerm, b: ProcessTerm) -> bool:
    """Structural equality up to consistent renaming of bound names, by
    walking both terms in lockstep and giving each pair of corresponding
    binders one shared marker. It shares no code with ``canonical_form``,
    whose strings with free names ``quoted`` it is checked against."""

    def expr_eq(x: Expression, y: Expression, env_a, env_b) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, Var):
            return env_a.get(x.name, x.name) == env_b.get(y.name, y.name)
        if isinstance(x, BitLit):
            return x.value == y.value
        if isinstance(x, MeasureExpr):
            return len(x.names) == len(y.names) and all(
                env_a.get(n, n) == env_b.get(m, m) for n, m in zip(x.names, y.names)
            )
        return False

    counter = [0]

    def go(x: ProcessTerm, y: ProcessTerm, env_a: dict, env_b: dict) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, Nil):
            return True
        if isinstance(x, Input):
            if env_a.get(x.channel, x.channel) != env_b.get(y.channel, y.channel):
                return False
            if len(x.binders) != len(y.binders):
                return False
            ea, eb = dict(env_a), dict(env_b)
            for bx, by in zip(x.binders, y.binders):
                counter[0] += 1
                marker = f"α{counter[0]}"
                ea[bx] = marker
                eb[by] = marker
            return go(x.continuation, y.continuation, ea, eb)
        if isinstance(x, Output):
            if env_a.get(x.channel, x.channel) != env_b.get(y.channel, y.channel):
                return False
            if len(x.payload) != len(y.payload):
                return False
            if not all(expr_eq(i, j, env_a, env_b) for i, j in zip(x.payload, y.payload)):
                return False
            return go(x.continuation, y.continuation, env_a, env_b)
        if isinstance(x, GateAction):
            if len(x.targets) != len(y.targets):
                return False
            if not all(
                env_a.get(t, t) == env_b.get(u, u) for t, u in zip(x.targets, y.targets)
            ):
                return False
            if type(x.gate) is not type(y.gate):
                return False
            if isinstance(x.gate, FixedGate):
                if x.gate.name != y.gate.name:
                    return False
            else:
                if env_a.get(x.gate.index_var, x.gate.index_var) != env_b.get(
                    y.gate.index_var, y.gate.index_var
                ):
                    return False
            return go(x.continuation, y.continuation, env_a, env_b)
        if isinstance(x, QbitAlloc):
            if len(x.binders) != len(y.binders):
                return False
            ea, eb = dict(env_a), dict(env_b)
            for bx, by in zip(x.binders, y.binders):
                counter[0] += 1
                marker = f"α{counter[0]}"
                ea[bx] = marker
                eb[by] = marker
            return go(x.continuation, y.continuation, ea, eb)
        if isinstance(x, NewChannel):
            counter[0] += 1
            marker = f"α{counter[0]}"
            ea = dict(env_a, **{x.binder: marker})
            eb = dict(env_b, **{y.binder: marker})
            return go(x.continuation, y.continuation, ea, eb)
        if isinstance(x, Parallel):
            return go(x.left, y.left, env_a, env_b) and go(x.right, y.right, env_a, env_b)
        if isinstance(x, Call):
            if x.process != y.process or len(x.args) != len(y.args):
                return False
            return all(env_a.get(p, p) == env_b.get(q, q) for p, q in zip(x.args, y.args))
        return False

    return go(a, b, {}, {})


def successors(plts: PLTS) -> dict[int, list[PLTSEdge]]:
    """The edges leaving each state of ``plts``, by state id, in edge order."""
    out: dict[int, list[PLTSEdge]] = {s.id: [] for s in plts.states}
    for e in plts.edges:
        out[e.src].append(e)
    return out


def reachable_outputs(plts: PLTS, start: int) -> list[PLTSEdge]:
    """Every output edge on some path from state ``start``."""
    succ = successors(plts)
    seen, stack, found = {start}, [start], []
    while stack:
        for e in succ[stack.pop()]:
            if isinstance(e.label, CommLabel) and e.label.kind == "out":
                found.append(e)
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return found


# ---------------------------------------------------------------------------
# Random well-typed programs
# ---------------------------------------------------------------------------

def random_typed_program(rng: random.Random):
    """A single-definition program that is well-typed by construction.

    Parameters are channels only (so the definition can be driven as an
    entry point); qubits are allocated inside and threaded linearly.
    """
    chans = {}
    for i in range(rng.randint(1, 2)):
        chans[f"c{i}"] = ChannelType((QBIT,)) if rng.random() < 0.5 else ChannelType((BIT,))
    counter = [0]

    def gen(qubits: list[str], depth: int) -> ProcessTerm:
        if depth <= 0 or rng.random() < 0.15:
            return Nil()
        moves = ["alloc", "input"]
        if qubits:
            moves += ["gate", "gate"]
            if any(ct == ChannelType((QBIT,)) for ct in chans.values()):
                moves.append("send_qubit")
            if any(ct == ChannelType((BIT,)) for ct in chans.values()):
                moves.append("send_measure")
        if any(ct == ChannelType((BIT,)) for ct in chans.values()):
            moves.append("send_bit")
        if depth >= 2 and rng.random() < 0.3:
            moves.append("parallel")
        move = rng.choice(moves)
        if move == "alloc" and len(qubits) < 3:
            counter[0] += 1
            q = f"q{counter[0]}"
            return QbitAlloc(binders=(q,), continuation=gen(qubits + [q], depth - 1))
        if move == "gate" and qubits:
            target = rng.choice(qubits)
            return GateAction(
                targets=(target,),
                gate=FixedGate(name=rng.choice(["H", "X", "Z", "I"])),
                continuation=gen(qubits, depth - 1),
            )
        if move == "send_qubit" and qubits:
            ch = rng.choice([c for c, t in chans.items() if t == ChannelType((QBIT,))])
            q = rng.choice(qubits)
            rest = [x for x in qubits if x != q]
            return Output(
                channel=ch, payload=(Var(name=q),), continuation=gen(rest, depth - 1)
            )
        if move == "send_measure" and qubits:
            ch = rng.choice([c for c, t in chans.items() if t == ChannelType((BIT,))])
            q = rng.choice(qubits)
            rest = [x for x in qubits if x != q]
            return Output(
                channel=ch,
                payload=(MeasureExpr(names=(q,)),),
                continuation=gen(rest, depth - 1),
            )
        if move == "send_bit":
            ch = rng.choice([c for c, t in chans.items() if t == ChannelType((BIT,))])
            return Output(
                channel=ch,
                payload=(BitLit(value=rng.randint(0, 1)),),
                continuation=gen(qubits, depth - 1),
            )
        if move == "input":
            ch = rng.choice(list(chans))
            counter[0] += 1
            binder = f"v{counter[0]}"
            got_qubit = chans[ch] == ChannelType((QBIT,))
            inner = gen(qubits + [binder] if got_qubit else qubits, depth - 1)
            return Input(channel=ch, binders=(binder,), continuation=inner)
        if move == "parallel":
            keep = [q for q in qubits if rng.random() < 0.5]
            rest = [q for q in qubits if q not in keep]
            return Parallel(left=gen(keep, depth - 1), right=gen(rest, depth - 1))
        return Nil()

    body = gen([], rng.randint(2, 5))
    params = tuple(chans)
    program = Program((ProcessDef("Gen", params, body),))
    signatures = {"Gen": tuple(chans[p] for p in params)}
    return program, signatures


# ---------------------------------------------------------------------------
# Slow paths of the per-component caches
# ---------------------------------------------------------------------------

def canonical_key_oracle(config) -> tuple:
    """``semantics.canonical_key`` by walking each component's display term,
    its term with its environment substituted, with ``canonical_form`` and
    resolving every free-name occurrence as the walk meets it, instead of
    filling in a term's cached key template through the environment."""
    hidden: dict[int, str] = {}

    def resolve(name: str) -> str:
        if name not in config.bindings:
            return f"?{name}"
        v = config.bindings[name]
        if isinstance(v, QubitVal):
            return f"q{v.qid}"
        if isinstance(v, ChannelVal):
            if v.cid in config.channel_names:
                return f"C{v.cid}"
            return hidden.setdefault(v.cid, f"h{len(hidden)}")
        if isinstance(v, tuple):
            return "(" + ",".join(str(b) for b in v) + ")"
        return f"b{v}"

    forms = tuple(canonical_form(substitute(term, env), resolve) for term, env, *_ in config.procs)
    return (config.qstate.num_qubits, forms)


def qubit_sets_oracle(bindings: dict, procs: tuple) -> tuple:
    """The qubit set of each ``(term, env, qubits)`` record of ``procs``,
    found by walking the component's display term, its term with its
    environment substituted, with ``free_names_oracle`` instead of reading
    a term's cached free names through the environment when the component
    is made. The record's own ``qubits`` is not read."""
    return tuple(
        frozenset(
            bindings[n].qid
            for n in free_names_oracle(substitute(term, env))
            if isinstance(bindings.get(n), QubitVal)
        )
        for term, env, *_ in procs
    )


def basis_drops_oracle(state, live, outcome=None):
    """``semantics._basis_drops`` by the slow paths: the branch ``outcome``,
    if any, collapsed at full width (``collapse_oracle``), then every dead
    qubit scanned at once (``drop_basis_qubits_oracle``)."""
    n = state.num_qubits
    amps = state.amplitudes if outcome is None else collapse_oracle(outcome)
    amps, dropped = drop_basis_qubits_oracle(amps, [q for q in range(n) if q not in live])
    if outcome is None and not dropped:
        return None
    return StateVector(n - len(dropped), amps), dropped


def compact_oracle(skel, dropped):
    """``semantics._compact`` by the slow paths: the survivors renumbered in
    order and every qubit set walked again from the terms
    (``qubit_sets_oracle``)."""
    n = skel.num_qubits
    renumber = {q: i for i, q in enumerate(q for q in range(n) if q not in dropped)}
    bindings = {
        name: QubitVal(renumber[v.qid]) if isinstance(v, QubitVal) else v
        for name, v in skel.bindings.items()
        if not (isinstance(v, QubitVal) and v.qid in dropped)
    }
    procs = tuple(
        (term, env, mine, hidden)
        for (term, env, _qubits, hidden), mine in zip(
            skel.procs, qubit_sets_oracle(bindings, skel.procs)
        )
    )
    return semantics._Skeleton(
        bindings,
        procs,
        skel.channel_names,
        skel.next_channel,
        skel.next_fresh,
        skel.program,
        len(renumber),
    )


def fresh_skeleton(config, **changes) -> Configuration:
    """``config`` with its fields copied into a new skeleton, each field
    named in ``changes``, ``qstate`` included, replaced: a configuration
    that shares nothing an exploration has recorded on ``config``'s
    skeleton, so exploring it builds every configuration it meets anew."""
    fields = {
        name: changes.pop(name, getattr(config.skel, name))
        for name in ("bindings", "procs", "channel_names", "next_channel", "next_fresh", "program")
    }
    qvec = changes.pop("qstate", config.qstate)
    assert not changes, f"not a configuration field: {sorted(changes)}"
    return Configuration(semantics._Skeleton(**fields, num_qubits=qvec.num_qubits), qvec)


def walk_records(roots) -> tuple[int, int]:
    """``(skeletons, states)``: how many ``_Skeleton`` and ``StateVector``
    objects a walk from ``roots`` meets through the attributes of skeletons
    and configurations and through the contents of dicts, lists, tuples and
    sets. From a skeleton, it reaches every move, settle move, successor
    table and drop table recorded on it and on the skeletons they lead
    to."""
    todo = list(roots)
    seen, skeletons, states = set(), 0, 0
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, StateVector):
            states += 1
        elif isinstance(obj, semantics._Skeleton):
            skeletons += 1
            todo += vars(obj).values()
        elif isinstance(obj, Configuration):
            todo += [obj.skel, obj.qstate]
        elif isinstance(obj, dict):
            todo += [*obj, *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += obj
    return skeletons, states


def hidden_sets_oracle(config) -> tuple:
    """The hidden channels each component of ``config`` holds, found as
    ``qubit_sets_oracle`` finds its qubits: by walking the component's
    display term with ``free_names_oracle``. The record's own ``hidden`` is
    not read."""
    return tuple(
        frozenset(
            v.cid
            for n in free_names_oracle(substitute(term, env))
            if isinstance(v := config.bindings.get(n), ChannelVal) and v.cid not in config.channel_names
        )
        for term, env, *_ in config.procs
    )


def check_ownership_oracle(config) -> set[int]:
    """``Configuration.check_ownership`` over the qubit sets of
    ``qubit_sets_oracle`` instead of the cached ones."""
    owned: set[int] = set()
    for mine in qubit_sets_oracle(config.bindings, config.procs):
        if owned & mine:
            raise OwnershipViolation(f"qubit id(s) {sorted(owned & mine)} bound twice")
        owned |= mine
    return owned


# ---------------------------------------------------------------------------
# The sampled path over the full step
# ---------------------------------------------------------------------------

def run_sampled_oracle(config, seed: int, alphabet: dict | None = None):
    """``semantics.run_sampled`` by asking ``step_oracle`` for every enabled
    transition, building every outcome of each, and taking the first
    transition; several outcomes are resolved by one draw from
    ``random.Random(seed)`` against their cumulative probabilities.

    Returns ``(trace, rng, error)``: the steps taken, the PRNG after the
    run, and the ``SemanticsError`` or ``CapacityError`` that stopped it,
    or None."""
    rng = random.Random(seed)
    trace: list[TraceStep] = []
    current = config
    while True:
        try:
            transitions = step_oracle(current, alphabet)
        except (SemanticsError, CapacityError) as exc:
            return trace, rng, exc
        if not transitions:
            return trace, rng, None
        t = transitions[0]
        if len(t.outcomes) == 1:
            probability = None
            current = t.outcomes[0][1]
        else:
            draw = rng.random()
            cumulative = 0.0
            probability, current = t.outcomes[-1]
            for p, child in t.outcomes:
                cumulative += p
                if draw <= cumulative:
                    probability, current = p, child
                    break
        trace.append(TraceStep(t.label, probability, current))


def trace_step_summary(ts: TraceStep) -> tuple:
    """What a sampled step shows: its rendered label with the label's
    density-matrix bytes, its probability, its state in Dirac form and as
    amplitude bytes, its display term and its bindings."""
    dm = getattr(ts.label, "qubit_dm", None)
    return (
        render_label(ts.label),
        None if dm is None else dm.matrix.tobytes(),
        ts.probability,
        dirac(ts.config.qstate),
        ts.config.qstate.amplitudes.tobytes(),
        pretty_print(ts.config.term),
        ts.config.bindings,
    )


# ---------------------------------------------------------------------------
# Exploration digests
# ---------------------------------------------------------------------------

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

DIGEST_TEST_SETS = {"default": DEFAULT_TEST_QUBITS, "basis": BASIS_TEST_QUBITS}
DIGEST_RANDOM_PROGRAMS = 300


def bench_workloads():
    """``bench/workloads.py``, imported from the checkout."""
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def load_corpus_file(relative: str) -> tuple[Program, dict, str]:
    """Parse a corpus file; returns (program, signatures, source)."""
    source = corpus.read_corpus_file(relative)
    return parse_program(source), parse_signatures(source), source


def _channel_entries(prefix: str, program, signatures):
    for d in program.definitions:
        if all(isinstance(t, ChannelType) for t in signatures[d.name]):
            yield f"{prefix}:{d.name}", program, signatures, d.name


def corpus_entries():
    """``(name, program, signatures, entry)`` for each definition of the
    positive corpus files whose parameters are all channels."""
    for item in corpus.CORPUS:
        if item.expectation != "typechecks":
            continue
        program, signatures, _src = load_corpus_file(item.path)
        yield from _channel_entries(item.path, program, signatures)


def digest_programs():
    """Every ``(name, program, signatures, entry)`` the exploration digest
    covers: each definition of the positive corpus files whose parameters
    are all channels, each entry of ``bench/workloads.chain_source(2,
    GATES)``, and the ``Gen`` of ``random_typed_program`` for seeds
    0..299."""
    yield from corpus_entries()
    workloads = bench_workloads()
    source = workloads.chain_source(2, workloads.GATES)
    yield from _channel_entries("chain2", parse_program(source), parse_signatures(source))
    for seed in range(DIGEST_RANDOM_PROGRAMS):
        program, signatures = random_typed_program(random.Random(seed))
        yield f"random{seed}:Gen", program, signatures, "Gen"


def digest_explorations(reduces=(True, False)):
    """Explore each of ``digest_programs`` under every digest test set,
    with the whole input alphabet enabled: by ``explore`` where ``reduce``
    is true (the ``:reduce`` lines), and where it is false (the ``:full``
    lines) by ``explore_unsettled_oracle`` over ``step_full_oracle``, every
    interleaving interned as it is. Yields ``(name, alphabet, reduce,
    outcome)`` for each value in ``reduces``, where the outcome is a
    ``PLTS``, or the class name of the ``SemanticsError`` or
    ``CapacityError`` the exploration raised."""
    for name, program, signatures, entry in digest_programs():
        config = initial_configuration(program, entry, signatures=signatures)
        for set_name, test_qubits in DIGEST_TEST_SETS.items():
            alphabet = input_alphabet(program, entry, signatures[entry], test_qubits)
            for reduce in reduces:
                try:
                    if reduce:
                        outcome = explore(config, max_states=5000, alphabet=alphabet)
                    else:
                        outcome = explore_unsettled_oracle(
                            config, 5000, alphabet, step=step_full_oracle
                        )
                except (SemanticsError, CapacityError) as exc:
                    outcome = type(exc).__name__
                yield f"{name}:{set_name}:{'reduce' if reduce else 'full'}", alphabet, reduce, outcome


def checked(skel, qvec) -> Configuration:
    """The configuration of ``skel``, a skeleton a ``semantics`` builder
    made, at state ``qvec``, checked for ownership as ``semantics._follow``
    checks every skeleton it builds."""
    config = Configuration(skel, qvec)
    config.check_ownership()
    return config


def drop_dead(config, outcome=None):
    """``config``, a successor built and checked (``checked``), with its
    dead qubits that sit in a basis state removed and the others
    renumbered, as ``semantics._follow`` removes them: ``_basis_drops``
    decides which drop, collapsing ``config.qstate`` onto the measurement
    branch ``outcome`` when given, and ``_compact`` rebuilds the rest.
    Without a dead qubit to drop or a branch to collapse the configuration
    is returned as it is."""
    found = semantics._basis_drops(config.qstate, config.skel.live, outcome)
    if found is None:
        return config
    qvec, dropped = found
    return Configuration(semantics._compact(config.skel, dropped), qvec)


def step_oracle(config, alphabet: dict | None = None) -> list[Transition]:
    """The transitions ``semantics.step`` picks the first of, each with
    every outcome built: the first deterministic τ step on its own when a
    component is headed by a qubit allocation, a ``new`` or a gate (the
    priority rule, see ``semantics.settle``), and otherwise every enabled
    transition (``step_full_oracle``)."""
    for i, (head, *_) in enumerate(config.procs):
        if isinstance(head, semantics._DETERMINISTIC_TAU):
            return [deterministic_tau_oracle(config, i)]
    return step_full_oracle(config, alphabet)


def deterministic_tau_oracle(config, i: int) -> Transition:
    """The τ step of component ``i``, headed by a qubit allocation, a
    ``new`` or a gate, built by calling the ``qstate`` kernel directly and
    ``_bind`` or ``_advance`` on the skeleton."""
    skel = config.skel
    head, env, *_ = skel.procs[i]
    heads = {i: (head.continuation, env)}
    qvec = config.qstate
    if isinstance(head, QbitAlloc):
        qvec = qstate.append_qubits(qvec, [(1.0, 0.0)] * len(head.binders))
        fresh = [DEFAULT_TEST_QUBITS[0]] * len(head.binders)  # |0>, bound as the new ids
        pre = semantics._bind(skel, heads, i, head.binders, fresh)
    elif isinstance(head, NewChannel):
        channel = (ChannelVal(skel.next_channel),)
        pre = semantics._bind(skel, heads, i, (head.binder,), channel, next_channel=skel.next_channel + 1)
    else:
        qids = semantics._qubit_ids(skel, env, head.targets)
        gate = semantics._gate_for(skel, env, head.gate)
        qvec = qstate.apply_gate(qvec, gate, qids)
        pre = semantics._advance(skel, heads)
    return Transition(TAU, ((1.0, drop_dead(checked(pre, qvec))),))


def step_full_oracle(config, alphabet: dict | None = None) -> list[Transition]:
    """``step_oracle`` with nothing given priority: every enabled
    transition, each deterministic τ step of every component included, in
    the order ``step`` takes them once no component is headed by one.
    It is the every-interleaving reference the partial τ-confluence
    reduction is tested against. Each helper is looked up on
    ``semantics`` when it is called, so a test that patches one there
    patches this step too."""
    alphabet = alphabet or {}
    skel, qvec = config.skel, config.qstate
    visible = skel.channel_names
    transitions = []
    senders, receivers = [], []  # (index, channel id) ready to communicate
    for i, (head, env, *_) in enumerate(skel.procs):
        if isinstance(head, semantics._DETERMINISTIC_TAU):
            transitions.append(deterministic_tau_oracle(config, i))
            continue

        if isinstance(head, Output):
            k = head.measure_index
            if k is not None:
                qids = semantics._qubit_ids(skel, env, head.payload[k].names)
                dist = []
                for o in qstate.measure(qvec, qids):
                    cfg = checked(semantics._advance(skel, {i: (head.forced(o.result), env)}), qvec)
                    cfg = drop_dead(cfg, o)
                    dist.append((o.probability, cfg))
                transitions.append(Transition(TAU, tuple(dist)))
                continue
            cid = semantics._channel_id(skel, env, head.channel)
            senders.append((i, cid))
            if cid in visible:
                label_values = []
                sent_qubits = []
                for v in semantics._eval_slots(skel, env, head.payload):
                    if isinstance(v, QubitVal):
                        label_values.append(QubitSlot(len(sent_qubits)))
                        sent_qubits.append(v.qid)
                    elif isinstance(v, ChannelVal) and v.cid not in visible:
                        raise RuntimeProcessError(
                            f"cannot send a hidden channel on {head.channel!r} (scope extrusion)"
                        )
                    else:
                        label_values.append(v)
                dm = qstate.reduced_density_matrix(qvec, sent_qubits) if sent_qubits else None
                label = CommLabel("out", cid, visible[cid], tuple(label_values), dm)
                cfg = drop_dead(checked(semantics._advance(skel, {i: (head.continuation, env)}), qvec))
                transitions.append(Transition(label, ((1.0, cfg),)))
            continue

        if isinstance(head, Input):
            cid = semantics._channel_id(skel, env, head.channel)
            receivers.append((i, cid))
            if cid in visible and cid in alphabet:
                for value_tuple in alphabet[cid]:
                    received = [(v.amp0, v.amp1) for v in value_tuple if isinstance(v, TestQubit)]
                    after = qstate.append_qubits(qvec, received) if received else qvec
                    pre = semantics._bind(skel, {i: (head.continuation, env)}, i, head.binders, value_tuple)
                    cfg = drop_dead(checked(pre, after))
                    label = CommLabel("in", cid, visible[cid], tuple(value_tuple))
                    transitions.append(Transition(label, ((1.0, cfg),)))
            continue

        raise TypeError(f"not a process term: {head!r}")

    for out_i, out_cid in senders:
        for in_i, in_cid in receivers:
            if in_cid == out_cid:
                cfg = drop_dead(checked(semantics._communicate(skel, out_i, in_i), qvec))
                transitions.append(Transition(TAU, ((1.0, cfg),)))
    return transitions


def explore_unsettled_oracle(
    config,
    max_states: int = DEFAULT_MAX_STATES,
    alphabet: dict | None = None,
    *,
    step=None,
) -> PLTS:
    """``semantics.explore`` that interns every successor as it is, one
    state per deterministic τ step, instead of settling it first: the loop
    ``explore`` ran before it settled. Successors come from ``step``, by
    default ``step_oracle``; with ``step_full_oracle`` every interleaving
    is explored. ``canonical_key`` is looked up on ``semantics`` when the
    exploration runs, so a test that patches it there patches this
    exploration too."""
    step = step or step_oracle
    states: list[PLTSState] = []
    edges: list[PLTSEdge] = []
    buckets: dict[tuple, list[int]] = {}
    prob_cache: dict[tuple, int] = {}
    queue: list[int] = []

    def intern(cfg) -> int:
        key = semantics.canonical_key(cfg)
        for sid in buckets.get(key, []):
            if states_equal_up_to_global_phase(states[sid].config.qstate, cfg.qstate):
                return sid
        if len(states) >= max_states:
            raise ExplorationLimitError(max_states)
        sid = len(states)
        states.append(PLTSState(sid, "nondet", config=cfg))
        buckets.setdefault(key, []).append(sid)
        queue.append(sid)
        return sid

    initial = intern(config)
    head = 0
    while head < len(queue):
        sid = queue[head]
        head += 1
        transitions = step(states[sid].config, alphabet)
        if not transitions:
            states[sid].terminal = True
            continue
        for t in transitions:
            if len(t.outcomes) == 1:
                edges.append(PLTSEdge(sid, t.label, intern(t.outcomes[0][1])))
                continue
            dist = tuple((round(p, 12), intern(child)) for p, child in t.outcomes)
            pid = prob_cache.get(dist)
            if pid is None:
                if len(states) >= max_states:
                    raise ExplorationLimitError(max_states)
                pid = len(states)
                states.append(PLTSState(pid, "prob"))
                prob_cache[dist] = pid
                for p, child in dist:
                    edges.append(PLTSEdge(pid, ProbLabel(p), child))
            edges.append(PLTSEdge(sid, t.label, pid))
    return PLTS(states, edges, initial)


def chain_verdicts() -> str:
    """The full ``render()`` of every check the benchmark's ``chain``
    workload makes and of the rest of their product: each chain of
    ``chain_source(3, GATES)`` of k <= 3 hops, plain and followed by each
    gate's hop, checked against ``Identity`` under each of the workload's
    test sets. One block per check, headed by its entry and test set; a
    check that raises shows the class name of its error."""
    workloads = bench_workloads()
    program, signatures = workloads.load(workloads.chain_source(3, workloads.GATES))
    blocks = []
    for k in range(1, 4):
        for gate in (None,) + workloads.GATES:
            entry = workloads._entry(k) if gate is None else f"Chain{k}{gate}"
            for set_name, test_qubits in workloads.TEST_SETS.items():
                try:
                    shown = check_equivalence(
                        program, entry, program, "Identity", signatures, test_qubits=test_qubits
                    ).render()
                except (SemanticsError, CapacityError) as exc:
                    shown = type(exc).__name__
                blocks.append(f"== {entry} / {set_name}\n{shown}\n")
    return "".join(blocks)


def _array_bytes(a: np.ndarray) -> bytes:
    # Rounding keeps the digest off the last bits of float arithmetic; adding
    # 0.0 turns a rounded -0.0 into 0.0.
    return (np.round(np.asarray(a, dtype=np.complex128), 10) + 0.0).tobytes()


def exploration_digest(outcome) -> str:
    """A SHA-256 digest of one exploration: each state's kind and terminal
    flag; for each configuration its ``canonical_key``, the canonical form
    of its components with free names quoted, its amplitudes, bindings,
    channel names and counters, and its live qubits; each edge's source,
    rendered label, label density matrix and target. Two explorations with
    equal digests built the same states and edges in the same order."""
    h = hashlib.sha256()
    if isinstance(outcome, str):
        h.update(outcome.encode())
        return h.hexdigest()
    h.update(f"initial {outcome.initial}\n".encode())
    for s in outcome.states:
        h.update(f"state {s.id} {s.kind} {s.terminal}\n".encode())
        cfg = s.config
        if cfg is None:
            continue
        h.update(repr(canonical_key(cfg)).encode())
        h.update(canonical_form(cfg.term, quoted).encode())
        h.update(_array_bytes(cfg.qstate.amplitudes))
        h.update(repr(sorted(cfg.bindings.items())).encode())
        h.update(repr(sorted(cfg.channel_names.items())).encode())
        h.update(f"{cfg.next_channel} {cfg.next_fresh} {sorted(cfg.check_ownership())}\n".encode())
    for e in outcome.edges:
        h.update(f"edge {e.src} {render_label(e.label)} {e.dst}\n".encode())
        if isinstance(e.label, CommLabel) and e.label.qubit_dm is not None:
            h.update(_array_bytes(e.label.qubit_dm.matrix))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Slow paths of the name walks that fold over ``syntax.scopes``
# ---------------------------------------------------------------------------

def _expr_names_oracle(e) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, MeasureExpr):
        return frozenset(e.names)
    return frozenset()


def free_names_oracle(term: ProcessTerm) -> frozenset[str]:
    """``syntax.free_names`` with each constructor's binders written out."""
    if isinstance(term, Nil):
        return frozenset()
    if isinstance(term, Input):
        return frozenset({term.channel}) | (
            free_names_oracle(term.continuation) - frozenset(term.binders)
        )
    if isinstance(term, Output):
        names = frozenset({term.channel}) | free_names_oracle(term.continuation)
        for e in term.payload:
            names |= _expr_names_oracle(e)
        return names
    if isinstance(term, GateAction):
        names = frozenset(term.targets) | free_names_oracle(term.continuation)
        if isinstance(term.gate, SigmaGate):
            names |= {term.gate.index_var}
        return names
    if isinstance(term, QbitAlloc):
        return free_names_oracle(term.continuation) - frozenset(term.binders)
    if isinstance(term, NewChannel):
        return free_names_oracle(term.continuation) - frozenset({term.binder})
    if isinstance(term, Parallel):
        return free_names_oracle(term.left) | free_names_oracle(term.right)
    if isinstance(term, Call):
        return frozenset(term.args)
    raise TypeError(f"not a process term: {term!r}")


def input_used_channels_oracle(program: Program, entry_name: str) -> set[int]:
    """``semantics.input_used_channels`` by walking each definition once per
    distinct tuple of entry positions its arguments carry, instead of
    composing one summary per definition."""
    used: set[int] = set()
    seen: set[tuple] = set()

    def walk_def(name: str, args_abs: tuple):
        if (name, args_abs) in seen:
            return
        seen.add((name, args_abs))
        d = program.definition(name)
        walk(d.body, dict(zip(d.params, args_abs)))

    def walk(term: ProcessTerm, env: dict):
        if isinstance(term, Input):
            if env.get(term.channel) is not None:
                used.add(env[term.channel])
            walk(term.continuation, {**env, **dict.fromkeys(term.binders)})
        elif isinstance(term, (Output, GateAction)):
            walk(term.continuation, env)
        elif isinstance(term, QbitAlloc):
            walk(term.continuation, {**env, **dict.fromkeys(term.binders)})
        elif isinstance(term, NewChannel):
            walk(term.continuation, {**env, term.binder: None})
        elif isinstance(term, Parallel):
            walk(term.left, env)
            walk(term.right, env)
        elif isinstance(term, Call):
            walk_def(term.process, tuple(env.get(a) for a in term.args))
        elif not isinstance(term, Nil):
            raise TypeError(f"not a process term: {term!r}")

    walk_def(entry_name, tuple(range(len(program.definition(entry_name).params))))
    return used


def name_walk_entries():
    """Every ``(name, program, definition)`` the name-walk differential
    tests cover: each definition of the positive corpus files and of
    ``bench/workloads.chain_source(3, GATES)``, and the ``Gen`` of
    ``random_typed_program`` for seeds 0..299."""
    for item in corpus.CORPUS:
        if item.expectation == "typechecks":
            program, _signatures, _src = load_corpus_file(item.path)
            yield from ((f"{item.path}:{d.name}", program, d.name) for d in program.definitions)
    workloads = bench_workloads()
    program = parse_program(workloads.chain_source(3, workloads.GATES))
    yield from ((f"chain3:{d.name}", program, d.name) for d in program.definitions)
    for seed in range(DIGEST_RANDOM_PROGRAMS):
        yield f"random{seed}:Gen", random_typed_program(random.Random(seed))[0], "Gen"


# ---------------------------------------------------------------------------
# Congruence sampling, one check per draw
# ---------------------------------------------------------------------------

def check_congruence_samples_oracle(
    program_a: Program,
    entry_a: str,
    program_b: Program,
    entry_b: str,
    signatures_a: dict,
    signatures_b: dict,
    seed: int = 0,
    count: int = 50,
) -> congruence.CongruenceReport:
    """``congruence.check_congruence_samples`` as it was before it checked
    each distinct context once per call: every draw is plugged,
    type-checked and checked anew."""
    for entry, sigs in ((entry_a, signatures_a), (entry_b, signatures_b)):
        sig = sigs[entry]
        if tuple(sig) != (congruence.QUBIT_CHANNEL, congruence.QUBIT_CHANNEL):
            raise ValueError(
                f"context templates expect {entry!r} to expose two qubit channels"
            )
    # Only a context's main definition is new, and the checker reads just the
    # signatures of the processes it calls, so each base program is checked once.
    base_a = typecheck.typecheck_program(program_a, signatures_a)
    base_b = typecheck.typecheck_program(program_b, signatures_b)
    rng = random.Random(seed)
    report = congruence.CongruenceReport(total=count, passed=0)
    for _ in range(count):
        context = congruence.generate_context(rng)
        prog_a, sigs_a, main_a = congruence._context_program(program_a, signatures_a, entry_a, context)
        prog_b, sigs_b, main_b = congruence._context_program(program_b, signatures_b, entry_b, context)
        ctx_a, ctx_b = prog_a.definition(main_a), prog_b.definition(main_b)
        source = pretty_print(ctx_a.body)
        diags = (
            base_a
            + typecheck.typecheck_program(Program((ctx_a,)), sigs_a)
            + base_b
            + typecheck.typecheck_program(Program((ctx_b,)), sigs_b)
        )
        if diags:
            sample = congruence.CongruenceSample(
                context.name, source, "skipped", f"generated context is ill-typed: {diags[0]}"
            )
            report.skipped.append(sample)
            report.samples.append(sample)
            continue
        try:
            verdict = equiv.check_equivalence(prog_a, main_a, prog_b, main_b, sigs_a, sigs_b)
        except qstate.CapacityError as exc:
            sample = congruence.CongruenceSample(context.name, source, "skipped", str(exc))
            report.skipped.append(sample)
            report.samples.append(sample)
            continue
        if verdict.equivalent:
            report.passed += 1
            sample = congruence.CongruenceSample(context.name, source, "equivalent")
        else:
            detail = verdict.witness.description if verdict.witness else "no witness"
            sample = congruence.CongruenceSample(context.name, source, "counterexample", detail)
            report.counterexamples.append(sample)
        report.samples.append(sample)
    return report

"""Shared oracles and generators for the test suite.

Everything here recomputes expected values by routes independent of the
package's own computation paths: explicit matrix expansion instead of
tensor reshaping, explicit index loops instead of einsum-style transposes,
and direct construction of transition systems.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

import numpy as np

from cqpkit import corpus
from cqpkit.equiv import _TAU_CLASS, PROB_TOL, labels_match
from cqpkit.qstate import CapacityError
from cqpkit.semantics import (
    BASIS_TEST_QUBITS,
    DEFAULT_TEST_QUBITS,
    PLTS,
    TAU,
    ChannelVal,
    CommLabel,
    OwnershipViolation,
    PLTSEdge,
    PLTSState,
    ProbLabel,
    QubitVal,
    SemanticsError,
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
    TupleExpr,
    Var,
    canonical_form,
    free_names,
    parse_program,
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


def plts_isomorphic(a: PLTS, b: PLTS) -> bool:
    """Exact graph isomorphism respecting kinds, terminal flags and labels.

    Backtracking matcher; intended for the small quotient systems produced
    by ``equiv.minimize``. Labels match by ``equiv.labels_match``.
    """
    if len(a.states) != len(b.states) or len(a.edges) != len(b.edges):
        return False
    succ_a = a.successors()
    succ_b = b.successors()
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def edge_match(e1: PLTSEdge, e2: PLTSEdge) -> bool:
        if isinstance(e1.label, ProbLabel) != isinstance(e2.label, ProbLabel):
            return False
        if isinstance(e1.label, ProbLabel):
            return abs(e1.label.probability - e2.label.probability) <= PROB_TOL
        return labels_match(e1.label, e2.label)

    def try_map(x: int, y: int) -> bool:
        if x in mapping:
            return mapping[x] == y
        if y in used:
            return False
        sa, sb = a.states[x], b.states[y]
        if sa.kind != sb.kind or sa.terminal != sb.terminal:
            return False
        ea, eb = succ_a[x], succ_b[y]
        if len(ea) != len(eb):
            return False
        mapping[x] = y
        used.add(y)

        def assign(i: int, taken: set[int]) -> bool:
            if i == len(ea):
                return True
            for j in range(len(eb)):
                if j in taken or not edge_match(ea[i], eb[j]):
                    continue
                snapshot = dict(mapping), set(used)
                if try_map(ea[i].dst, eb[j].dst) and assign(i + 1, taken | {j}):
                    return True
                mapping.clear()
                mapping.update(snapshot[0])
                used.clear()
                used.update(snapshot[1])
            return False

        if assign(0, set()):
            return True
        del mapping[x]
        used.discard(y)
        return False

    return try_map(a.initial, b.initial)


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


def random_expression(rng: random.Random) -> object:
    roll = rng.random()
    if roll < 0.45:
        return Var(name=rng.choice(_NAMES))
    if roll < 0.65:
        return BitLit(value=rng.randint(0, 1))
    if roll < 0.85:
        k = rng.randint(1, 2)
        names = rng.sample(_NAMES, k)
        return MeasureExpr(names=tuple(names))
    return TupleExpr(items=(BitLit(value=0), Var(name=rng.choice(_NAMES))))


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
        payload = tuple(random_expression(rng) for _ in range(rng.randint(1, 2)))
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
        if isinstance(e, TupleExpr):
            return TupleExpr(items=tuple(expr(x, bound) for x in e.items))
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
        if isinstance(x, TupleExpr):
            return len(x.items) == len(y.items) and all(
                expr_eq(i, j, env_a, env_b) for i, j in zip(x.items, y.items)
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


def reachable_outputs(plts: PLTS, start: int) -> list[PLTSEdge]:
    """Every output edge on some path from state ``start``."""
    succ = plts.successors()
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
    """``semantics.canonical_key`` by walking each component's whole term
    with ``canonical_form`` and resolving every free-name occurrence as the
    walk meets it, instead of filling in a cached key template."""
    hidden: dict[int, str] = {}

    def resolve(name: str) -> str:
        if name not in config.bindings:
            return f"?{name}"
        v = config.bindings[name]
        if isinstance(v, QubitVal):
            return f"q{v.qid}"
        if isinstance(v, ChannelVal):
            if config.is_visible(v.cid):
                return f"C{v.cid}"
            return hidden.setdefault(v.cid, f"h{len(hidden)}")
        if isinstance(v, tuple):
            return "(" + ",".join(str(b) for b in v) + ")"
        return f"b{v}"

    forms = tuple(canonical_form(c.term, resolve) for c in config.procs)
    return (config.qstate.num_qubits, forms)


def check_ownership_oracle(config) -> set[int]:
    """``Configuration.check_ownership`` by recomputing ``free_names`` of each
    component's term instead of reading the cached names."""
    owned: set[int] = set()
    for c in config.procs:
        mine = {
            config.bindings[n].qid
            for n in free_names(c.term)
            if isinstance(config.bindings.get(n), QubitVal)
        }
        if owned & mine:
            raise OwnershipViolation(f"qubit id(s) {sorted(owned & mine)} bound twice")
        owned |= mine
    return owned


# ---------------------------------------------------------------------------
# Exploration digests
# ---------------------------------------------------------------------------

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

DIGEST_TEST_SETS = {"default": DEFAULT_TEST_QUBITS, "basis": BASIS_TEST_QUBITS}
DIGEST_RANDOM_PROGRAMS = 300


def _channel_entries(prefix: str, program, signatures):
    for d in program.definitions:
        if all(isinstance(t, ChannelType) for t in signatures[d.name]):
            yield f"{prefix}:{d.name}", program, signatures, d.name


def digest_programs():
    """Every ``(name, program, signatures, entry)`` the exploration digest
    covers: each definition of the positive corpus files whose parameters
    are all channels, each entry of ``bench/workloads.chain_source(2,
    GATES)``, and the ``Gen`` of ``random_typed_program`` for seeds
    0..299."""
    for item in corpus.CORPUS:
        if item.expectation != "typechecks":
            continue
        program, signatures, _src = corpus.load_corpus_file(item.path)
        yield from _channel_entries(item.path, program, signatures)
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))
    import workloads

    source = workloads.chain_source(2, workloads.GATES)
    yield from _channel_entries("chain2", parse_program(source), parse_signatures(source))
    for seed in range(DIGEST_RANDOM_PROGRAMS):
        program, signatures = random_typed_program(random.Random(seed))
        yield f"random{seed}:Gen", program, signatures, "Gen"


def digest_explorations():
    """Explore each of ``digest_programs`` under every digest test set and
    both ``reduce`` values, with the whole input alphabet enabled. Yields
    ``(name, outcome)`` where the outcome is a ``PLTS``, or the class name
    of the ``SemanticsError`` or ``CapacityError`` the exploration raised."""
    for name, program, signatures, entry in digest_programs():
        config = initial_configuration(program, entry, signatures=signatures)
        for set_name, test_qubits in DIGEST_TEST_SETS.items():
            alphabet = input_alphabet(program, entry, signatures[entry], test_qubits)
            for reduce in (True, False):
                try:
                    outcome = explore(config, max_states=5000, alphabet=alphabet, reduce=reduce)
                except (SemanticsError, CapacityError) as exc:
                    outcome = type(exc).__name__
                yield f"{name}:{set_name}:{'reduce' if reduce else 'full'}", outcome


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

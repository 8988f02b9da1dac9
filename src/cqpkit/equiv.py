"""Probabilistic branching bisimilarity of explored transition systems.

The relation refines a partition of the two systems' joint state space
until stable. Two states stay together only if

- every visible step of one (and every internal step that changes block)
  is matched by the other after inert internal steps that remain inside
  the source's block, and
- probabilistic states assign equal probability (within a tolerance) to
  every block of the current partition, where a nondeterministic state
  counts as assigning probability 1 to its own block.

The second condition lets a measurement whose branches all rejoin the same
block act like an inert internal step, which is exactly what makes a
protocol with compensating corrections equal to its deterministic
specification.

Termination is observable but τ-closed: every state with no outgoing
transitions gets a tick edge into one shared sink, and the tick is a
visible label. A process that has stopped therefore differs from one that
can still perform a visible action, while an internal step before stopping
is inert like any other: ``τ.0`` and ``0`` are equivalent. This is what
lets ``semantics.step`` give deterministic internal steps (call unfolding,
``new``, qubit allocation, gates) priority without changing verdicts.

Label matching is quantum-aware: output labels carrying qubits compare by
the reduced density matrix of the transmitted qubits, entrywise within a
tolerance, which is insensitive to global phase and to how the rest of the
system is entangled with bookkeeping qubits left behind.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import semantics
from .qstate import DensityMatrix, density_matrices_equal
from .semantics import (
    PLTS,
    CommLabel,
    PLTSEdge,
    PLTSState,
    ProbLabel,
    Tau,
    TestQubit,
    QubitSlot,
    render_label,
)

PROB_TOL = 1e-6
LABEL_TOL = 1e-9

_TAU_CLASS = -1
_TICK_CLASS = -2


def labels_match(l1, l2, q1: DensityMatrix | None = None, q2: DensityMatrix | None = None,
                 tol: float = LABEL_TOL) -> bool:
    """Observable equality of labels; qubit payloads compare by density matrix.

    ``q1``/``q2`` override the density matrices attached to the labels.
    """
    if isinstance(l1, Tau) or isinstance(l2, Tau):
        return isinstance(l1, Tau) and isinstance(l2, Tau)
    if isinstance(l1, ProbLabel) or isinstance(l2, ProbLabel):
        return (
            isinstance(l1, ProbLabel)
            and isinstance(l2, ProbLabel)
            and abs(l1.probability - l2.probability) <= tol
        )
    if not (isinstance(l1, CommLabel) and isinstance(l2, CommLabel)):
        return False
    if l1.kind != l2.kind or l1.channel != l2.channel:
        return False
    if len(l1.values) != len(l2.values):
        return False
    for v1, v2 in zip(l1.values, l2.values):
        if isinstance(v1, QubitSlot) or isinstance(v2, QubitSlot):
            if not (isinstance(v1, QubitSlot) and isinstance(v2, QubitSlot)):
                return False
            if v1.index != v2.index:
                return False
        elif isinstance(v1, TestQubit) or isinstance(v2, TestQubit):
            if not (isinstance(v1, TestQubit) and isinstance(v2, TestQubit)):
                return False
            if v1.name != v2.name or v1.amp0 != v2.amp0 or v1.amp1 != v2.amp1:
                return False
        elif v1 != v2:
            return False
    d1 = q1 if q1 is not None else l1.qubit_dm
    d2 = q2 if q2 is not None else l2.qubit_dm
    if (d1 is None) != (d2 is None):
        return False
    if d1 is not None and not density_matrices_equal(d1, d2, tol):
        return False
    return True


class _LabelClasses:
    """Interns labels into integer classes under tolerant matching."""

    def __init__(self, tol: float):
        self.tol = tol
        self.reps: list = []

    def of(self, label) -> int:
        if isinstance(label, Tau):
            return _TAU_CLASS
        for i, rep in enumerate(self.reps):
            if labels_match(rep, label, tol=self.tol):
                return i
        self.reps.append(label)
        return len(self.reps) - 1


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of state indices covering the joint state space."""

    blocks: tuple

    def block_of(self) -> dict[int, int]:
        out = {}
        for i, block in enumerate(self.blocks):
            for s in block:
                out[s] = i
        return out


@dataclass(frozen=True)
class Witness:
    """First observable difference found between the two initial states."""

    kind: str  # "label" | "probability"
    description: str
    label: str | None = None
    left_probability: float | None = None
    right_probability: float | None = None
    instantiation: str | None = None


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    witness: Witness | None = None

    def render(self) -> str:
        if self.equivalent:
            return "EQUIVALENT"
        lines = ["NOT EQUIVALENT"]
        if self.witness is not None:
            if self.witness.instantiation:
                lines.append(f"  under input instantiation: {self.witness.instantiation}")
            lines.append(f"  {self.witness.description}")
        return "\n".join(lines)


@dataclass
class _Graph:
    kinds: list[str]
    out_edges: list[list[tuple]]  # per state: (label_class, is_tau, is_prob, prob, dst, label)
    sink: int  # target of every tick edge; not a state of any input system


def _build_graph(systems: list[PLTS], classes: _LabelClasses) -> tuple[_Graph, list[int]]:
    """Join the systems into one graph of label classes, and give every
    state without outgoing edges a tick edge into a shared sink (the last
    state)."""
    kinds: list[str] = []
    out_edges: list[list[tuple]] = []
    initials: list[int] = []
    offset = 0
    for plts in systems:
        initials.append(offset + plts.initial)
        for s in plts.states:
            kinds.append(s.kind)
            out_edges.append([])
        for e in plts.edges:
            if isinstance(e.label, ProbLabel):
                entry = (None, False, True, e.label.probability, offset + e.dst, e.label)
            else:
                cls = classes.of(e.label)
                entry = (cls, cls == _TAU_CLASS, False, None, offset + e.dst, e.label)
            out_edges[offset + e.src].append(entry)
        offset += len(plts.states)
    sink = offset
    for edges in out_edges:
        if not edges:
            edges.append((_TICK_CLASS, False, False, None, sink, None))
    kinds.append("nondet")
    out_edges.append([])
    return _Graph(kinds, out_edges, sink), initials


def _signature(graph: _Graph, s: int, block_of: list[int]) -> frozenset:
    home = block_of[s]
    closure = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for cls, is_tau, is_prob, _p, dst, _lbl in graph.out_edges[u]:
            if (is_tau or is_prob) and block_of[dst] == home and dst not in closure:
                closure.add(dst)
                stack.append(dst)
    sig = set()
    for u in closure:
        for cls, is_tau, is_prob, _p, dst, _lbl in graph.out_edges[u]:
            if is_prob:
                continue
            if is_tau:
                if block_of[dst] != home:
                    sig.add((_TAU_CLASS, block_of[dst]))
            else:
                sig.add((cls, block_of[dst]))
    return frozenset(sig)


def _block_distribution(graph: _Graph, s: int, block_of: list[int]) -> dict[int, float]:
    if graph.kinds[s] != "prob":
        return {block_of[s]: 1.0}
    dist: dict[int, float] = {}
    for _cls, _is_tau, is_prob, p, dst, _lbl in graph.out_edges[s]:
        if is_prob:
            dist[block_of[dst]] = dist.get(block_of[dst], 0.0) + p
    return dist


def _dists_equal(a: dict[int, float], b: dict[int, float], tol: float) -> bool:
    for key in set(a) | set(b):
        if abs(a.get(key, 0.0) - b.get(key, 0.0)) > tol:
            return False
    return True


def _refine(
    graph: _Graph,
    prob_tol: float,
    watch: tuple[int, int] | None = None,
    classes: _LabelClasses | None = None,
) -> tuple[list[int], Witness | None]:
    """Signature refinement to the coarsest stable partition.

    If ``watch`` names two states, returns a witness for the split that
    first separates them (and stops refining further).
    """
    n = len(graph.kinds)
    block_of = [0] * n
    while True:
        sigs = [_signature(graph, s, block_of) for s in range(n)]
        dists = [_block_distribution(graph, s, block_of) for s in range(n)]

        members_by_block: dict[int, list[int]] = {}
        for s in range(n):
            members_by_block.setdefault(block_of[s], []).append(s)

        new_block_of = [0] * n
        next_id = 0
        changed = False
        for bid in sorted(members_by_block):
            groups: list[dict] = []
            for s in members_by_block[bid]:
                placed = False
                for g in groups:
                    if g["sig"] == sigs[s] and _dists_equal(g["dist"], dists[s], prob_tol):
                        g["members"].append(s)
                        placed = True
                        break
                if not placed:
                    groups.append({"sig": sigs[s], "dist": dists[s], "members": [s]})
            if len(groups) > 1:
                changed = True
            for g in groups:
                for s in g["members"]:
                    new_block_of[s] = next_id
                next_id += 1

        if watch is not None and new_block_of[watch[0]] != new_block_of[watch[1]]:
            w = _witness_for_split(
                graph, watch, sigs, dists, block_of, prob_tol, classes
            )
            return new_block_of, w
        block_of = new_block_of
        if not changed:
            return block_of, None


def _offer_probability(graph: _Graph, s: int, cls: int, blk: int, block_of: list[int]) -> float:
    """Probability of eventually performing an edge of label class ``cls``
    into block ``blk``, following internal steps only (nondeterminism
    resolved by the maximizing scheduler)."""
    memo: dict[int, float] = {}

    def go(u: int) -> float:
        if u in memo:
            return memo[u]
        memo[u] = 0.0  # cycle guard
        if graph.kinds[u] == "prob":
            total = 0.0
            for _c, _t, is_prob, p, dst, _l in graph.out_edges[u]:
                if is_prob:
                    total += p * go(dst)
            memo[u] = total
            return total
        best = 0.0
        for c, is_tau, _is_prob, _p, dst, _l in graph.out_edges[u]:
            if c == cls and block_of[dst] == blk:
                best = 1.0
                break
            if is_tau:
                best = max(best, go(dst))
        memo[u] = best
        return best

    return go(s)


def _witness_for_split(graph, watch, sigs, dists, block_of, prob_tol, classes) -> Witness:
    a, b = watch
    sig_a, sig_b = sigs[a], sigs[b]

    def shown_label(cls: int) -> str:
        if cls == _TAU_CLASS:
            return "tau"
        if cls == _TICK_CLASS:
            return "termination"
        return render_label(classes.reps[cls]) if classes else f"label#{cls}"

    # Prefer a probabilistic account: a visible action one side offers with
    # different probability mass than the other.
    for cls, blk in sorted(sig_a | sig_b):
        if cls == _TAU_CLASS:
            continue
        pa = _offer_probability(graph, a, cls, blk, block_of)
        pb = _offer_probability(graph, b, cls, blk, block_of)
        if abs(pa - pb) > prob_tol and {pa, pb} != {0.0, 1.0}:
            return Witness(
                "probability",
                f"probability of offering {shown_label(cls)} after internal steps "
                f"differs: {pa:.6f} vs {pb:.6f}",
                label=shown_label(cls),
                left_probability=pa,
                right_probability=pb,
            )

    if sig_a != sig_b:
        diff = sorted(sig_a.symmetric_difference(sig_b))
        cls, blk = diff[0]
        side = "left" if (cls, blk) in sig_a else "right"
        return Witness(
            "label",
            f"only the {side} process offers {shown_label(cls)} into block {blk}",
            label=shown_label(cls),
        )
    da, db = dists[a], dists[b]
    for key in sorted(set(da) | set(db)):
        pa, pb = da.get(key, 0.0), db.get(key, 0.0)
        if abs(pa - pb) > prob_tol:
            return Witness(
                "probability",
                f"probability of reaching block {key} differs: {pa:.6f} vs {pb:.6f}",
                left_probability=pa,
                right_probability=pb,
            )
    return Witness("label", "states separated by refinement")


def branching_bisim(
    p1: PLTS,
    p2: PLTS,
    prob_tol: float = PROB_TOL,
    label_tol: float = LABEL_TOL,
) -> EquivalenceVerdict:
    """Decide probabilistic branching bisimilarity of two finite PLTSs."""
    classes = _LabelClasses(label_tol)
    graph, initials = _build_graph([p1, p2], classes)
    block_of, witness = _refine(
        graph, prob_tol, watch=(initials[0], initials[1]), classes=classes
    )
    if block_of[initials[0]] == block_of[initials[1]]:
        return EquivalenceVerdict(True)
    if witness is None:
        witness = Witness("label", "initial states are not related")
    return EquivalenceVerdict(False, witness)


def bisimulation_partition(
    systems: list[PLTS], prob_tol: float = PROB_TOL, label_tol: float = LABEL_TOL
) -> Partition:
    """The coarsest stable partition over the disjoint union of the systems."""
    classes = _LabelClasses(label_tol)
    graph, _ = _build_graph(systems, classes)
    block_of, _ = _refine(graph, prob_tol)
    blocks: dict[int, set[int]] = {}
    for s, b in enumerate(block_of[: graph.sink]):
        blocks.setdefault(b, set()).add(s)
    return Partition(tuple(frozenset(b) for _, b in sorted(blocks.items())))


def minimize(p: PLTS, prob_tol: float = PROB_TOL, label_tol: float = LABEL_TOL) -> PLTS:
    """Quotient a PLTS by the bisimulation fixpoint, dropping inert steps."""
    classes = _LabelClasses(label_tol)
    graph, initials = _build_graph([p], classes)
    block_of, _ = _refine(graph, prob_tol)

    sigs = {}
    dists = {}
    kinds = {}
    members_by_block: dict[int, list[int]] = {}
    for s, b in enumerate(block_of[: graph.sink]):
        members_by_block.setdefault(b, []).append(s)
    for bid, members in members_by_block.items():
        rep = members[0]
        sigs[bid] = {
            item for item in _signature(graph, rep, block_of) if item[0] != _TICK_CLASS
        }
        if all(graph.kinds[s] == "prob" for s in members):
            d = _block_distribution(graph, rep, block_of)
            if not (len(d) == 1 and bid in d):
                kinds[bid] = "prob"
                dists[bid] = d
                continue
        kinds[bid] = "nondet"

    def rep_label(cls: int, target_bid: int):
        if cls == _TAU_CLASS:
            return semantics.TAU
        return classes.reps[cls]

    # Breadth-first over quotient blocks for stable state numbering.
    order: list[int] = []
    index: dict[int, int] = {}
    queue = [block_of[initials[0]]]
    index[queue[0]] = 0
    order.append(queue[0])
    head = 0
    edges_by_block: dict[int, list[tuple]] = {}
    while head < len(queue):
        bid = queue[head]
        head += 1
        outgoing: list[tuple] = []
        if kinds[bid] == "prob":
            for target_bid, prob in sorted(dists[bid].items()):
                outgoing.append((ProbLabel(prob), target_bid))
        else:
            for cls, target_bid in sorted(
                sigs[bid], key=lambda item: (item[1], item[0])
            ):
                outgoing.append((rep_label(cls, target_bid), target_bid))
        edges_by_block[bid] = outgoing
        for _lbl, target_bid in outgoing:
            if target_bid not in index:
                index[target_bid] = len(order)
                order.append(target_bid)
                queue.append(target_bid)

    states = []
    edges = []
    for bid in order:
        sid = index[bid]
        outgoing = edges_by_block[bid]
        states.append(
            PLTSState(sid, kinds[bid], terminal=not outgoing, config=None)
        )
        for lbl, target_bid in outgoing:
            edges.append(PLTSEdge(sid, lbl, index[target_bid]))
    return PLTS(states, edges, 0)


def plts_isomorphic(a: PLTS, b: PLTS, label_tol: float = LABEL_TOL) -> bool:
    """Exact graph isomorphism respecting kinds, terminal flags and labels.

    Backtracking matcher; intended for the small quotient systems produced
    by ``minimize``.
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
        return labels_match(e1.label, e2.label, tol=label_tol)

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
# Program-level driver
# ---------------------------------------------------------------------------

def _describe_instantiation(alphabet: dict, channel_names: dict[int, str]) -> str:
    parts = []
    for cid in sorted(alphabet):
        for vt in alphabet[cid]:
            rendered = ",".join(semantics.render_value(v) for v in vt)
            parts.append(f"{channel_names.get(cid, cid)}<-[{rendered}]")
    return " ".join(parts) if parts else "(closed system)"


def input_instantiations(
    program_a,
    entry_a: str,
    program_b,
    entry_b: str,
    signatures: dict,
    test_qubits=semantics.DEFAULT_TEST_QUBITS,
) -> list[dict]:
    """One alphabet per assignment of a single value tuple to each
    input-used external channel; the equivalence is checked per
    instantiation and conjoined."""
    def_a = program_a.definition(entry_a)
    def_b = program_b.definition(entry_b)
    if len(def_a.params) != len(def_b.params):
        raise ValueError(
            f"{entry_a!r} and {entry_b!r} expose different numbers of channels"
        )
    sig_a = signatures[entry_a]
    sig_b = signatures[entry_b]
    if sig_a != sig_b:
        raise ValueError(f"{entry_a!r} and {entry_b!r} have different channel types")
    used = semantics.input_used_channels(program_a, entry_a) | semantics.input_used_channels(
        program_b, entry_b
    )
    instantiations: list[dict] = [{}]
    for cid in sorted(used):
        ctype = sig_a[cid]
        tuples = semantics.channel_value_tuples(ctype, test_qubits)
        instantiations = [
            {**inst, cid: [vt]} for inst in instantiations for vt in tuples
        ]
    return instantiations


def check_equivalence(
    program_a,
    entry_a: str,
    program_b,
    entry_b: str,
    signatures_a: dict,
    signatures_b: dict | None = None,
    test_qubits=semantics.DEFAULT_TEST_QUBITS,
    max_states: int = semantics.DEFAULT_MAX_STATES,
    prob_tol: float = PROB_TOL,
    label_tol: float = LABEL_TOL,
) -> EquivalenceVerdict:
    """Conjoin branching bisimilarity over every external-input instantiation."""
    if signatures_b is None:
        signatures_b = signatures_a
    instantiations = input_instantiations(
        program_a, entry_a, program_b, entry_b,
        {entry_a: signatures_a[entry_a], entry_b: signatures_b[entry_b]},
        test_qubits,
    )
    cfg_a = semantics.initial_configuration(program_a, entry_a, signatures=signatures_a)
    cfg_b = semantics.initial_configuration(program_b, entry_b, signatures=signatures_b)
    for alphabet in instantiations:
        plts_a = semantics.explore(cfg_a, max_states=max_states, alphabet=alphabet)
        plts_b = semantics.explore(cfg_b, max_states=max_states, alphabet=alphabet)
        verdict = branching_bisim(plts_a, plts_b, prob_tol=prob_tol, label_tol=label_tol)
        if not verdict.equivalent:
            witness = verdict.witness
            if witness is not None:
                witness = Witness(
                    witness.kind,
                    witness.description,
                    label=witness.label,
                    left_probability=witness.left_probability,
                    right_probability=witness.right_probability,
                    instantiation=_describe_instantiation(
                        alphabet, cfg_a.channel_names
                    ),
                )
            return EquivalenceVerdict(False, witness)
    return EquivalenceVerdict(True)

"""Probabilistic branching bisimilarity of explored transition systems.

One pass over the two systems' joint state space, in the post-order of a
depth-first search from the initial states, gives every state its class:
the classes of a state's successors are final when the state is reached,
and its class is hash-consed from them. Classes are numbered in that
order, which does not depend on how states are numbered, so witnesses name
the same blocks whether or not ``semantics.explore`` folded a run of
deterministic τ steps into its last state.

- A nondeterministic state's signature is the set of its (label, successor
  class) pairs. If an internal step leads to a class whose signature covers
  all of those pairs, that step is inert and the state joins the class.
- A probabilistic state's key is its mass per successor class, rounded to
  the ``PROB_TOL`` grid. A state whose whole mass goes to one
  nondeterministic class joins that class instead.

The pass needs acyclic input, since a cycle has no such order; a cyclic
system raises ``ValueError``. Every system ``semantics.explore`` builds is
acyclic, because the parser rejects recursive definitions. Cyclic systems
would need the general algorithm of Groote, Jansen, Keiren & Wijs, "An
O(m log n) algorithm for computing stuttering equivalence and branching
bisimulation" (ACM TOCL 2017). Rounding to the grid is transitive and does
not depend on the order in which states are numbered, unlike a pairwise
tolerance; the price is that two masses less than ``PROB_TOL`` apart
separate when a grid midpoint falls between them.

The probabilistic rule lets a measurement whose branches all rejoin the same
class act like an inert internal step, which is exactly what makes a
protocol with compensating corrections equal to its deterministic
specification.

Termination is observable but τ-closed: every state with no outgoing
transitions gets a tick edge into one shared sink, and the tick is a
visible label. A process that has stopped therefore differs from one that
can still perform a visible action, while an internal step before stopping
is inert like any other: ``τ.0`` and ``0`` are equivalent. This is what
lets ``semantics.step`` give deterministic internal steps (``new``, qubit
allocation, gates) priority without changing verdicts.

Label matching is quantum-aware: output labels carrying qubits compare by
the reduced density matrix of the transmitted qubits, which is insensitive
to global phase and to how the rest of the system is entangled with
bookkeeping qubits left behind. Each label has one key (``label_key``) with
the matrix rounded to the ``LABEL_TOL`` grid, and labels match when their
keys are equal. Like the ``PROB_TOL`` grid, this is transitive and does not
depend on the order in which labels are met; the price is that two matrices
closer than ``LABEL_TOL`` still split when a grid midpoint falls between
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import semantics
from .semantics import (
    PLTS,
    CommLabel,
    ProbLabel,
    Tau,
    render_label,
)

PROB_TOL = 1e-6
LABEL_TOL = 1e-9

_TAU_CLASS = -1
_TICK_CLASS = -2


def label_key(label) -> tuple:
    """``(kind, channel, values, dm)``: labels match when their keys are
    equal. ``dm`` is the density matrix of an output's qubits rounded to
    the ``LABEL_TOL`` grid, real and imaginary parts interleaved, or None;
    the values compare exactly, qubit slots by position and test qubits by
    name and amplitudes."""
    if isinstance(label, Tau):
        return ("tau", None, (), None)
    if not isinstance(label, CommLabel):
        raise TypeError(f"not a label: {label!r}")
    dm = label.qubit_dm
    if dm is not None:
        dm = np.rint(dm.matrix.view(np.float64) / LABEL_TOL).astype(np.int64).tobytes()
    return (label.kind, label.channel, label.values, dm)


def labels_match(l1, l2) -> bool:
    """Observable equality of labels; qubit payloads compare by density matrix."""
    return label_key(l1) == label_key(l2)


class _LabelClasses:
    """Interns labels into integer classes by ``label_key``; ``reps`` holds
    the first label of each class, for witness text."""

    def __init__(self):
        self.reps: list = []
        self.ids: dict[tuple, int] = {}

    def of(self, label) -> int:
        if isinstance(label, Tau):
            return _TAU_CLASS
        key = label_key(label)
        if key not in self.ids:
            self.ids[key] = len(self.reps)
            self.reps.append(label)
        return self.ids[key]


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
    out_edges: list[list[tuple]]  # per state: (label_class, prob, dst); prob set on ProbLabel only
    order: list[int]  # every state, each after all of its successors


def _build_graph(systems: list[PLTS], classes: _LabelClasses) -> tuple[_Graph, list[int]]:
    """Join the systems into one graph of label classes, and give every
    state without outgoing edges a tick edge into a shared sink (the last
    state). Raises ``ValueError`` if the graph has a cycle.

    ``order`` lists the states in the post-order of a depth-first search
    from each initial state in turn, then from any state not yet reached,
    following each state's edges in their order; label classes are numbered
    as the search first meets their labels. Both depend on the systems'
    shape and edge order but not on how their states are numbered. A
    state whose one edge is a τ adds no class and no label class of its
    own, so a system with such states folded into their targets, as
    ``semantics.explore`` settles them, gets the same classes in the same
    order, and a witness names the same blocks."""
    kinds: list[str] = []
    raw: list[list[tuple]] = []
    initials: list[int] = []
    offset = 0
    for plts in systems:
        initials.append(offset + plts.initial)
        for s in plts.states:
            kinds.append(s.kind)
            raw.append([])
        for e in plts.edges:
            raw[offset + e.src].append((e.label, offset + e.dst))
        offset += len(plts.states)
    sink = offset
    kinds.append("nondet")
    raw.append([])
    out_edges: list[list[tuple]] = [[] for _ in kinds]

    def enter(s: int) -> list[tuple]:
        edges = out_edges[s]
        for label, dst in raw[s]:
            if isinstance(label, ProbLabel):
                edges.append((None, label.probability, dst))
            else:
                edges.append((classes.of(label), None, dst))
        if not edges and s != sink:
            edges.append((_TICK_CLASS, None, sink))
        return edges

    mark = [0] * len(kinds)  # 0 not reached, 1 on the search path, 2 ordered
    order: list[int] = []
    for root in itertools.chain(initials, range(len(kinds))):
        if mark[root]:
            continue
        mark[root] = 1
        path = [(root, iter(enter(root)))]
        while path:
            s, edges = path[-1]
            for _cls, _p, dst in edges:
                if mark[dst] == 1:
                    raise ValueError("transition system has a cycle")
                if not mark[dst]:
                    mark[dst] = 1
                    path.append((dst, iter(enter(dst))))
                    break
            else:
                path.pop()
                mark[s] = 2
                order.append(s)
    return _Graph(kinds, out_edges, order), initials


def _classify(graph: _Graph) -> tuple[list[int], list[tuple]]:
    """Branching bisimulation classes of an acyclic graph in one pass.

    Returns the class of every state, and per class either
    ``("nondet", signature)``, a frozenset of (label class, target class)
    pairs, or ``("prob", distribution)``, the mass per target class of the
    class's first member. States are visited in ``graph.order``, so the
    classes of a state's successors are final when it is reached, and
    classes are numbered as they are first met.
    """
    class_of = [-1] * len(graph.kinds)
    shapes: list[tuple] = []
    ids: dict[tuple, int] = {}

    def intern(key: tuple, shape: tuple) -> int:
        if key not in ids:
            ids[key] = len(shapes)
            shapes.append(shape)
        return ids[key]

    for s in graph.order:
        if graph.kinds[s] == "prob":
            mass: dict[int, float] = {}
            for _cls, p, dst in graph.out_edges[s]:
                mass[class_of[dst]] = mass.get(class_of[dst], 0.0) + p
            targets = list(mass)
            if len(targets) == 1 and shapes[targets[0]][0] == "nondet":
                # Every branch rejoins one class: the measurement is inert.
                class_of[s] = targets[0]
            else:
                key = ("prob", frozenset((c, round(m / PROB_TOL)) for c, m in mass.items()))
                class_of[s] = intern(key, ("prob", mass))
        else:
            sig = frozenset((cls, class_of[dst]) for cls, _p, dst in graph.out_edges[s])
            for cls, target in sig:
                kind, target_sig = shapes[target]
                if (
                    cls == _TAU_CLASS
                    and kind == "nondet"
                    and sig <= target_sig | {(_TAU_CLASS, target)}
                ):
                    # An inert internal step: the target can match every move.
                    # At most one target qualifies, since a qualifying
                    # signature names every other target, and a signature
                    # names only classes interned before it.
                    sig = target_sig
                    break
            class_of[s] = intern(("nondet", sig), ("nondet", sig))
    return class_of, shapes


def _offer_probability(graph: _Graph, s: int, cls: int, target: int, class_of: list[int]) -> float:
    """Probability of eventually performing an edge of label class ``cls``
    into class ``target``, following internal steps only (nondeterminism
    resolved by the maximizing scheduler)."""
    memo: dict[int, float] = {}

    def go(u: int) -> float:
        if u in memo:
            return memo[u]
        if graph.kinds[u] == "prob":
            memo[u] = sum(p * go(dst) for _c, p, dst in graph.out_edges[u])
            return memo[u]
        best = 0.0
        for c, _p, dst in graph.out_edges[u]:
            if c == cls and class_of[dst] == target:
                best = 1.0
                break
            if c == _TAU_CLASS:
                best = max(best, go(dst))
        memo[u] = best
        return best

    return go(s)


def _witness_for_split(graph, a, b, class_of, shapes, classes) -> Witness:
    """The first observable difference between initial states ``a`` and
    ``b``. Both are nondeterministic and a class is interned by its
    signature, so their signatures differ, and a label witness always
    exists when no probabilistic one is found."""
    sig_a, sig_b = shapes[class_of[a]][1], shapes[class_of[b]][1]

    def shown_label(cls: int) -> str:
        if cls == _TAU_CLASS:
            return "tau"
        if cls == _TICK_CLASS:
            return "termination"
        return render_label(classes.reps[cls])

    # Prefer a probabilistic account: a visible action one side offers with
    # different probability mass than the other.
    for cls, blk in sorted(sig_a | sig_b):
        if cls == _TAU_CLASS:
            continue
        pa = _offer_probability(graph, a, cls, blk, class_of)
        pb = _offer_probability(graph, b, cls, blk, class_of)
        if abs(pa - pb) > PROB_TOL and {pa, pb} != {0.0, 1.0}:
            return Witness(
                "probability",
                f"probability of offering {shown_label(cls)} after internal steps "
                f"differs: {pa:.6f} vs {pb:.6f}",
                label=shown_label(cls),
                left_probability=pa,
                right_probability=pb,
            )

    cls, blk = min(sig_a ^ sig_b)
    side = "left" if (cls, blk) in sig_a else "right"
    return Witness(
        "label",
        f"only the {side} process offers {shown_label(cls)} into block {blk}",
        label=shown_label(cls),
    )


def branching_bisim(p1: PLTS, p2: PLTS) -> EquivalenceVerdict:
    """Decide probabilistic branching bisimilarity of two finite PLTSs.

    Both systems are classified in one bottom-up pass (``_classify``), and
    they are equivalent when their initial states share a class. The pass
    fixes a state's class from the classes of its successors, so the systems
    must be acyclic; a cycle raises ``ValueError``. Both initial states must
    be nondeterministic, as ``semantics.explore`` always makes them; a
    probabilistic one raises ``ValueError`` too. Probability masses are
    compared after rounding to the ``PROB_TOL`` grid, which is transitive
    and independent of state numbering, but two masses closer than
    ``PROB_TOL`` still separate when a grid midpoint falls between them.
    """
    classes = _LabelClasses()
    graph, (a, b) = _build_graph([p1, p2], classes)
    if "prob" in (graph.kinds[a], graph.kinds[b]):
        raise ValueError("an initial state is probabilistic")
    class_of, shapes = _classify(graph)
    if class_of[a] == class_of[b]:
        return EquivalenceVerdict(True)
    return EquivalenceVerdict(False, _witness_for_split(graph, a, b, class_of, shapes, classes))


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
    signatures_a: dict,
    signatures_b: dict,
    test_qubits,
) -> list[dict]:
    """One alphabet per assignment of a single value tuple to each
    input-used external channel of either side; the equivalence is checked
    per instantiation and conjoined. Channel ids vary in ascending order,
    the last fastest, so the order (and the first failing instantiation)
    is fixed."""
    def_a = program_a.definition(entry_a)
    def_b = program_b.definition(entry_b)
    if len(def_a.params) != len(def_b.params):
        raise ValueError(
            f"{entry_a!r} and {entry_b!r} expose different numbers of channels"
        )
    sig_a = signatures_a[entry_a]
    sig_b = signatures_b[entry_b]
    if sig_a != sig_b:
        raise ValueError(f"{entry_a!r} and {entry_b!r} have different channel types")
    alphabet = {
        **semantics.input_alphabet(program_a, entry_a, sig_a, test_qubits),
        **semantics.input_alphabet(program_b, entry_b, sig_b, test_qubits),
    }
    cids = sorted(alphabet)
    return [
        {cid: [vt] for cid, vt in zip(cids, choice)}
        for choice in itertools.product(*(alphabet[cid] for cid in cids))
    ]


def check_equivalence(
    program_a,
    entry_a: str,
    program_b,
    entry_b: str,
    signatures_a: dict,
    signatures_b: dict | None = None,
    test_qubits=semantics.DEFAULT_TEST_QUBITS,
    max_states: int = semantics.DEFAULT_MAX_STATES,
) -> EquivalenceVerdict:
    """Conjoin branching bisimilarity over every external-input instantiation.

    Each side's initial configuration is settled once (``semantics.settle``)
    before the loop: its prefix of deterministic τ steps and private
    communications, such as allocating Bell pairs and making ``new``
    channels, does not depend on the inputs, so ``explore`` finds it
    settled under every instantiation. Side b's prefix
    therefore runs before side a is explored, and an error in it, such as
    passing the qubit cap, is raised before any error that exploring side a
    would raise.

    Each side's explorations start at its settled configuration, so they
    share its skeleton, and the work that reads no amplitude is done once
    per check rather than once per instantiation; later instantiations run
    only the ``qstate`` kernels and the decisions that read amplitudes.
    ``semantics._Skeleton`` says why every verdict is still the one
    exploring each instantiation from a fresh skeleton gives.
    """
    if signatures_b is None:
        signatures_b = signatures_a
    instantiations = input_instantiations(
        program_a, entry_a, program_b, entry_b, signatures_a, signatures_b, test_qubits
    )
    cfg_a = semantics.settle(
        semantics.initial_configuration(program_a, entry_a, signatures=signatures_a)
    )
    cfg_b = semantics.settle(
        semantics.initial_configuration(program_b, entry_b, signatures=signatures_b)
    )
    for alphabet in instantiations:
        plts_a = semantics.explore(cfg_a, max_states=max_states, alphabet=alphabet)
        plts_b = semantics.explore(cfg_b, max_states=max_states, alphabet=alphabet)
        verdict = branching_bisim(plts_a, plts_b)
        if not verdict.equivalent:
            witness = verdict.witness
            if witness is not None:
                witness = replace(
                    witness,
                    instantiation=_describe_instantiation(alphabet, cfg_a.channel_names),
                )
            return EquivalenceVerdict(False, witness)
    return EquivalenceVerdict(True)

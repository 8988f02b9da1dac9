"""Executable operational semantics over process configurations.

A configuration pairs a global quantum state with its running parallel
components, kept as a flat tuple, plus the bindings from source names to
runtime values (qubit ids, classical bits, channel ids). Holding the
components flat builds in three structural congruences: ``P | 0 ≡ P``,
``(P | Q) | R ≡ P | (Q | R)`` and the unfolding of a process call,
``A(x̃) ≡ P{x̃/ỹ}`` for a definition ``A(ỹ) = P``. A component whose head
becomes a parallel composition is spliced into its parts, a call is
replaced by its body, and a component that reaches ``0`` is dropped, all
without a transition. ``step`` enumerates the enabled transitions of a
configuration, giving priority to one deterministic internal step when a
component can take one (see its docstring); ``explore`` closes a
configuration under ``step`` into a finite probabilistic labelled
transition system (PLTS) whose states alternate between nondeterministic
choice and probability distributions; ``run_sampled`` walks one seeded
path for simulation.

Communication is synchronous (handshake), as in pi-calculus. A measurement
sitting inside an output payload is forced first as an internal
probabilistic step; the send then carries the classical result.

External interactions happen on visible channels only. Inputs are
instantiated from a finite alphabet of injectable values; qubit inputs come
from a small test set of single-qubit states. Outputs carrying qubits are
labelled with the reduced density matrix of the transmitted qubits, which
is all an observer can see of them.

A step replaces at most two components and shares the rest with its
successor. Each component is a ``Component`` record that computes its free
names when ``_flatten`` makes it and its ``canonical_key`` template when a
configuration holding it is first keyed, so the ownership check and the key
of a successor walk only the terms the step changed. ``_flatten`` also
bounds the components one configuration may hold (``MAX_COMPONENTS``), so
a call fan-out stops with ``ExplorationLimitError`` while it unfolds.

Every successor drops its dead qubits that sit in a basis state: qubits no
free name of a component refers to any more, such as those measured into a
payload, whose amplitudes are exactly zero on one basis value
(``Configuration`` says why that is sound). Measurement branches that
differ only in such qubits then become one configuration, and the qubit
cap bounds the qubits held at one time rather than all ever allocated.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass

import numpy as np

from . import qstate
from .qstate import DensityMatrix, StateVector
from .syntax import (
    BitLit,
    Call,
    FixedGate,
    GateAction,
    Input,
    MeasureExpr,
    NewChannel,
    Nil,
    Output,
    Parallel,
    ProcessTerm,
    Program,
    QbitAlloc,
    SigmaGate,
    TupleExpr,
    Var,
    canonical_form,
    free_names,
    substitute,
)
from .typecheck import BitType, ChannelType, QbitType

DEFAULT_MAX_STATES = 20000
# Most parallel components one configuration may hold. A step builds one
# successor per component and checks every component of each, so a state
# costs time quadratic in this count; the corpus and the benchmark programs
# hold at most 11.
MAX_COMPONENTS = 64


class SemanticsError(Exception):
    pass


class OwnershipViolation(SemanticsError):
    """A qubit is referenced by two parallel components (dynamic no-cloning)."""


class RuntimeProcessError(SemanticsError):
    """Unbound name, arity mismatch, or ill-formed value hit at runtime."""


class ExplorationLimitError(SemanticsError):
    """An exploration outgrew a cap: states of a PLTS (``what="state"``) or
    parallel components of one configuration (``what="component"``)."""

    def __init__(self, limit: int, what: str = "state"):
        super().__init__(f"bounded exploration exceeded the {what} cap of {limit}")
        self.limit = limit


# ---------------------------------------------------------------------------
# Runtime values and labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QubitVal:
    qid: int


@dataclass(frozen=True)
class ChannelVal:
    cid: int


@dataclass(frozen=True)
class TestQubit:
    """A named single-qubit state injectable on an external channel."""

    name: str
    amp0: complex
    amp1: complex


_S = 1.0 / np.sqrt(2.0)

DEFAULT_TEST_QUBITS = (
    TestQubit("|0>", 1.0, 0.0),
    TestQubit("|1>", 0.0, 1.0),
    TestQubit("|+>", _S, _S),
    TestQubit("|i>", _S, complex(0.0, _S)),
)

BASIS_TEST_QUBITS = DEFAULT_TEST_QUBITS[:2]

_KET0 = DEFAULT_TEST_QUBITS[0]  # the state of a freshly allocated qubit


@dataclass(frozen=True)
class Tau:
    def __repr__(self):
        return "tau"


TAU = Tau()


@dataclass(frozen=True)
class ProbLabel:
    probability: float


@dataclass(frozen=True)
class QubitSlot:
    """Marks a qubit position in an output label; content lives in qubit_dm."""

    index: int


@dataclass(frozen=True, eq=False)
class CommLabel:
    kind: str  # "in" | "out"
    channel: int
    channel_name: str
    values: tuple
    qubit_dm: DensityMatrix | None = None


def render_value(v) -> str:
    if isinstance(v, TestQubit):
        return v.name
    if isinstance(v, QubitSlot):
        return "qubit"
    if isinstance(v, ChannelVal):
        return f"#chan{v.cid}"
    if isinstance(v, tuple):
        return "(" + ",".join(str(b) for b in v) + ")"
    return str(v)


def render_label(label) -> str:
    if isinstance(label, Tau):
        return "tau"
    if isinstance(label, ProbLabel):
        return f"prob {label.probability:.6f}"
    if isinstance(label, CommLabel):
        op = "?" if label.kind == "in" else "!"
        vals = ",".join(render_value(v) for v in label.values)
        rendered = f"{label.channel_name}{op}[{vals}]"
        if label.qubit_dm is not None:
            entries = ";".join(
                f"{z.real:.4f}{z.imag:+.4f}i" for z in label.qubit_dm.matrix.reshape(-1)
            )
            rendered += f"<{entries}>"
        return rendered
    raise TypeError(f"not a label: {label!r}")


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

class Component:
    """One running parallel component: its term and the facts about the term
    that every configuration holding it needs, computed once.

    ``_flatten`` makes a component and a step replaces at most two, so an
    unchanged component is shared by a configuration and its successors and
    its facts are reused rather than recomputed, as in hash-consing
    (Filliâtre & Conchon, "Type-safe modular hash-consing", ML Workshop
    2006). ``names`` (the term's free names) is computed at once, since
    every successor's ownership check reads it; ``key_template`` only when a
    configuration is first keyed, since ``run_sampled`` never keys one.
    """

    __slots__ = ("term", "names", "_template")

    def __init__(self, term: ProcessTerm):
        self.term = term
        self.names = free_names(term)
        self._template = None

    def key_template(self) -> tuple:
        """``(fmt, slots)``: ``canonical_form`` of the term with each free
        name left as a slot, as a ``str.format`` string whose field ``k``
        stands for ``slots[k]``. The slots are the distinct free names in the
        order ``canonical_form`` first asks for them, which is not always
        their order in the string (an output's payload is walked before its
        channel). Resolving the slots in order therefore numbers hidden
        channels by first occurrence exactly as resolving every name the
        walk meets would."""
        if self._template is None:
            slots: dict[str, int] = {}

            def slot(name: str) -> str:
                return "\0%d\0" % slots.setdefault(name, len(slots))

            # Names, gate names and the form's own tokens hold no braces, so
            # the literal parts need no escaping.
            parts = canonical_form(self.term, slot).split("\0")
            parts[1::2] = ["{%s}" % k for k in parts[1::2]]
            self._template = ("".join(parts), tuple(slots))
        return self._template

    def __repr__(self):
        return f"Component({self.term!r})"


@dataclass(eq=False)
class Configuration:
    """Snapshot of one run: quantum state, name bindings, running components.

    Treated as immutable; every step produces fresh copies, sharing the
    components it leaves unchanged. ``procs`` holds the parallel components
    in left-to-right order as ``Component`` records; no component's term is a
    parallel composition, a call or ``0`` (``_flatten``), so a finished run
    has none. ``channel_names`` maps visible channel ids (the entry's channel
    parameters, numbered by position) to their display names; hidden
    channels get ids from ``next_channel``.

    A qubit is *live* when a free name of some component is bound to it and
    *dead* otherwise: it was measured into a payload, sent away, or its
    binder went out of scope. Every name is freshened when bound, so
    nothing can refer to a dead qubit again. ``step`` drops each dead qubit
    whose amplitudes are exactly zero on one basis value (measurement and
    gate pruning leave such exact zeros). That qubit is an exact tensor
    factor |b> of ``qstate``: no gate or measurement acts on it again, and
    the reduced density matrix of any other qubits, which is all an output
    label shows, is the same with or without it. So configurations that
    differ only in such qubits, such as the measurement branches of a
    teleport after the correction, are the same configuration. A dead
    qubit in superposition or entangled with others stays in ``qstate``;
    it still shapes the reduced state of its partners.
    """

    qstate: StateVector
    bindings: dict
    procs: tuple  # of Component
    channel_names: dict[int, str]
    next_channel: int
    next_fresh: int
    program: Program

    @property
    def term(self) -> ProcessTerm:
        """The components folded left to right into one term, for display."""
        if not self.procs:
            return Nil()
        terms = (c.term for c in self.procs)
        return functools.reduce(lambda l, r: Parallel(left=l, right=r), terms)

    def is_visible(self, cid: int) -> bool:
        return cid in self.channel_names

    def display_channel(self, cid: int) -> str:
        return self.channel_names.get(cid, f"#chan{cid}")

    def check_ownership(self) -> set[int]:
        """Raise OwnershipViolation if a qubit is bound in two components;
        otherwise return the live qubits, those bound to a free name of some
        component. Reads each component's cached free names, so no term is
        walked."""
        bindings = self.bindings
        owned: set[int] = set()
        for c in self.procs:
            mine = {v.qid for n in c.names if isinstance(v := bindings.get(n), QubitVal)}
            if not owned.isdisjoint(mine):
                shared = owned & mine
                raise OwnershipViolation(
                    f"qubit id(s) {sorted(shared)} bound under two parallel components"
                )
            owned |= mine
        return owned


@dataclass(frozen=True)
class Transition:
    """One enabled move: a label and a distribution over successor configs."""

    label: object
    outcomes: tuple  # of (probability, Configuration)


@dataclass(frozen=True)
class TraceStep:
    label: object
    probability: float | None
    config: Configuration


def initial_configuration(
    program: Program, entry: str, signatures: dict | None = None
) -> Configuration:
    """Instantiate an entry process with its channel parameters bound to
    visible channel ids numbered by parameter position."""
    try:
        d = program.definition(entry)
    except KeyError:
        raise RuntimeProcessError(f"unknown process {entry!r}") from None
    if signatures is not None and entry in signatures:
        for p, t in zip(d.params, signatures[entry]):
            if not isinstance(t, ChannelType):
                raise RuntimeProcessError(f"entry parameter {p!r} of {entry!r} is not a channel")
    return Configuration(
        qstate=StateVector.empty(),
        bindings={p: ChannelVal(i) for i, p in enumerate(d.params)},
        procs=_flatten(d.body, program),
        channel_names=dict(enumerate(d.params)),
        next_channel=len(d.params),
        next_fresh=0,
        program=program,
    )


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _flatten(term: ProcessTerm, program: Program, others: int = 0) -> tuple:
    """The parallel components of ``term`` in left-to-right order, as
    ``Component`` records, with every call unfolded into its body and the
    finished components (``0``) dropped.

    Raises ExplorationLimitError as soon as these components and the
    ``others`` held beside them would exceed ``MAX_COMPONENTS``, before the
    rest of an exponential call fan-out is unfolded."""
    if isinstance(term, Parallel):
        left = _flatten(term.left, program, others)
        return left + _flatten(term.right, program, others + len(left))
    if isinstance(term, Nil):
        return ()
    if isinstance(term, Call):
        d = program.definition(term.process)
        return _flatten(substitute(d.body, dict(zip(d.params, term.args))), program, others)
    if others >= MAX_COMPONENTS:
        raise ExplorationLimitError(MAX_COMPONENTS, "component")
    return (Component(term),)


def _lookup(config: Configuration, name: str):
    try:
        return config.bindings[name]
    except KeyError:
        raise RuntimeProcessError(f"unbound name {name!r} at runtime") from None


def _channel_id(config: Configuration, name: str) -> int:
    v = _lookup(config, name)
    if not isinstance(v, ChannelVal):
        raise RuntimeProcessError(f"{name!r} is not a channel at runtime")
    return v.cid


def _qubit_ids(config: Configuration, names) -> list[int]:
    qids = []
    for n in names:
        v = _lookup(config, n)
        if not isinstance(v, QubitVal):
            raise RuntimeProcessError(f"{n!r} is not a qubit at runtime")
        qids.append(v.qid)
    if len(set(qids)) != len(qids):
        raise OwnershipViolation(f"gate or measurement lists the same qubit twice: {qids}")
    return qids


def _eval_slots(config: Configuration, exprs) -> list:
    """Evaluate fully-forced payload expressions into a flat slot list."""
    slots = []
    for e in exprs:
        if isinstance(e, BitLit):
            slots.append(e.value)
        elif isinstance(e, Var):
            v = _lookup(config, e.name)
            if isinstance(v, tuple):
                slots.extend(v)
            else:
                slots.append(v)
        elif isinstance(e, TupleExpr):
            slots.extend(_eval_slots(config, e.items))
        elif isinstance(e, MeasureExpr):
            raise RuntimeProcessError("unforced measurement in payload")
        else:
            raise TypeError(f"not an expression: {e!r}")
    return slots


def _measure_path(exprs) -> tuple | None:
    """Index path to the leftmost measurement of a payload, through nested
    tuples, or None when the payload has none."""
    for i, e in enumerate(exprs):
        if isinstance(e, MeasureExpr):
            return (i,)
        if isinstance(e, TupleExpr):
            inner = _measure_path(e.items)
            if inner is not None:
                return (i,) + inner
    return None


def _splice(exprs, path: tuple, lit) -> tuple:
    """``exprs`` with the expression at index ``path`` replaced by ``lit``."""
    i = path[0]
    if len(path) > 1:
        lit = TupleExpr(items=_splice(exprs[i].items, path[1:], lit))
    return exprs[:i] + (lit,) + exprs[i + 1 :]


def _advance(
    config: Configuration,
    heads: dict,
    *,
    qstate: StateVector | None = None,
    bindings: dict | None = None,
    next_channel: int | None = None,
    next_fresh: int | None = None,
) -> Configuration:
    """The successor with each given field replaced and each component
    ``i`` in ``heads`` replaced by the components of ``heads[i]``
    (``_flatten``), checked for ownership and with its dead basis qubits
    dropped. The other components are shared with ``config``.

    Every successor ``step`` builds passes through here. Without a dead
    qubit (the common case) the configuration is returned as it is.
    """
    procs = config.procs
    pending = len(heads)
    for i in sorted(heads, reverse=True):  # splicing from the right keeps indices valid
        others = len(procs) - pending  # the components that stay beside this head's
        procs = procs[:i] + _flatten(heads[i], config.program, others) + procs[i + 1 :]
        pending -= 1
    config = Configuration(
        config.qstate if qstate is None else qstate,
        config.bindings if bindings is None else bindings,
        procs,
        config.channel_names,
        config.next_channel if next_channel is None else next_channel,
        config.next_fresh if next_fresh is None else next_fresh,
        config.program,
    )
    live = config.check_ownership()
    if len(live) == config.qstate.num_qubits:
        return config
    return _drop_dead_qubits(config, live)


def _drop_dead_qubits(config: Configuration, live: set[int]) -> Configuration:
    """Remove the dead qubits that sit in a basis state (see ``Configuration``)
    and renumber the others in their old order. Bindings of the survivors
    are rewritten, those of the dropped qubits deleted; bit and channel
    bindings stay. Components refer to qubits only through bindings, so
    they are shared unchanged."""
    dead = [q for q in range(config.qstate.num_qubits) if q not in live]
    qvec, dropped = qstate.drop_basis_qubits(config.qstate, dead)
    if not dropped:
        return config
    kept = [q for q in range(config.qstate.num_qubits) if q not in dropped]
    renumber = {q: i for i, q in enumerate(kept)}
    bindings = {}
    for name, v in config.bindings.items():
        if not isinstance(v, QubitVal):
            bindings[name] = v
        elif v.qid in renumber:
            bindings[name] = QubitVal(renumber[v.qid])
    return Configuration(
        qvec,
        bindings,
        config.procs,
        config.channel_names,
        config.next_channel,
        config.next_fresh,
        config.program,
    )


def _bind(config: Configuration, heads: dict, i: int, binders, values, **changes) -> Configuration:
    """The successor in which component ``i`` goes on as ``heads[i]`` with
    ``binders`` bound to ``values``; ``heads`` and ``changes`` otherwise as
    in ``_advance``.

    This is the only place that makes runtime names: each binder gets the
    fresh name ``binder~n``, so no two bindings clash and nothing can name
    a dead qubit again. Each ``TestQubit`` among the values is first
    appended to the state as a new qubit, in order, and bound as its id.
    One binder receiving several bits binds them as one tuple.
    """
    qubits = [(v.amp0, v.amp1) for v in values if isinstance(v, TestQubit)]
    if qubits:
        changes["qstate"] = qstate.append_qubits(config.qstate, qubits)
        new_ids = itertools.count(config.qstate.num_qubits)
        values = [QubitVal(next(new_ids)) if isinstance(v, TestQubit) else v for v in values]
    if len(binders) == len(values):
        pairs = zip(binders, values)
    elif len(binders) == 1 and len(values) > 1 and all(isinstance(v, int) for v in values):
        pairs = [(binders[0], tuple(values))]
    else:
        raise RuntimeProcessError(
            f"input binds {len(binders)} name(s) but {len(values)} value(s) arrived"
        )
    bindings = dict(config.bindings)
    fresh = config.next_fresh
    mapping = {}
    for binder, value in pairs:
        mapping[binder] = runtime_name = f"{binder}~{fresh}"
        bindings[runtime_name] = value
        fresh += 1
    heads = {**heads, i: substitute(heads[i], mapping)}
    return _advance(config, heads, bindings=bindings, next_fresh=fresh, **changes)


def _gate_for(config: Configuration, ref) -> qstate.Gate:
    if isinstance(ref, FixedGate):
        return qstate.standard_gate(ref.name)
    if isinstance(ref, SigmaGate):
        v = _lookup(config, ref.index_var)
        if not (isinstance(v, tuple) and len(v) == 2 and all(b in (0, 1) for b in v)):
            raise RuntimeProcessError(
                f"sigma index {ref.index_var!r} must hold a two-bit value, got {v!r}"
            )
        return qstate.sigma_correction(v)
    raise TypeError(f"not a gate reference: {ref!r}")


# Heads whose step is a deterministic τ touching only the component's own
# qubits and fresh names; ``step`` gives them priority when reducing.
_DETERMINISTIC_TAU = (QbitAlloc, NewChannel, GateAction)


def _deterministic_tau(config: Configuration, i: int, head: ProcessTerm) -> Transition:
    """The single τ transition of component ``i``, headed by a qubit
    allocation, a channel restriction or a gate. Allocation binds one
    fresh |0> qubit per binder and ``new`` one fresh channel, both through
    ``_bind``."""
    if isinstance(head, QbitAlloc):
        zeros = (_KET0,) * len(head.binders)
        cfg = _bind(config, {i: head.continuation}, i, head.binders, zeros)
    elif isinstance(head, NewChannel):
        cfg = _bind(
            config,
            {i: head.continuation},
            i,
            (head.binder,),
            (ChannelVal(config.next_channel),),
            next_channel=config.next_channel + 1,
        )
    else:
        qids = _qubit_ids(config, head.targets)
        gate = _gate_for(config, head.gate)
        qvec = qstate.apply_gate(config.qstate, gate, qids)
        cfg = _advance(config, {i: head.continuation}, qstate=qvec)
    return Transition(TAU, ((1.0, cfg),))


def step(
    config: Configuration, alphabet: dict | None = None, *, reduce: bool = True
) -> list[Transition]:
    """Enumerate the enabled transitions in a fixed, deterministic order.

    ``alphabet`` maps visible channel ids to the value tuples the
    environment may inject on them; without it, external inputs stay
    disabled (they simply do not fire).

    Priority rule (``reduce=True``): scanning ``config.procs`` in order,
    the first component headed by a qubit allocation, a channel
    restriction ``new`` or a gate gives the only transition, a τ to a
    single successor, and no other successor is built. Such a step is
    confluent with every other enabled step and inert:

    - it reads and writes only the qubits its component owns, and disjoint
      ownership (checked on every step) means no other component can
      touch them, while a visible output of another component is labelled
      with the reduced density matrix of that component's own qubits,
      which a unitary on other qubits leaves unchanged;
    - it uses only fresh names and fresh channels, so it enables or
      disables nothing else;
    - it can be postponed only finitely often: the parser's
      ``_check_calls`` rejects recursion, so ``_flatten`` unfolds every
      call in finitely many rounds, and every step then consumes a prefix
      of a component, so there are no τ-cycles to hide it on;
    - the checker treats termination as τ-closed (``equiv``): a τ before
      a component stops is inert, so giving it priority cannot turn
      "stopped now" into "stops later" in a way the checker would see.

    This is partial τ-confluence reduction (Groote & van de Pol, "State
    space reduction using partial τ-confluence", MFCS 2000); the checker's
    verdicts are unchanged because the reduced system is branching
    bisimilar to the full one. The same teleport-versus-identity checks
    are the case study of Ardeshir-Larijani, Gay & Nagarajan, "Equivalence
    checking of quantum protocols" (TACAS 2013).

    What stays out: measurement forcing, outputs, inputs and internal
    communication keep the full enumeration. A probabilistic τ does not
    commute branch by branch with visible outputs of entangled qubits
    (Baier, D'Argenio & Größer, "Partial order reduction for probabilistic
    branching time", QAPL 2005), and communications can disable each other.

    ``reduce=False`` enumerates every interleaving and gives nothing
    priority; it is the reference the reduction is tested against.

    Every successor is built one of two ways. A step that binds names
    (input, internal communication, ``qbit`` and ``new``) goes through
    ``_bind``, which appends received test qubits and fresh |0> qubits to
    the state; every other step replaces its component's head through
    ``_advance``. Either way, a new head that is a parallel composition is
    spliced into its parts, a call is unfolded, and one that is ``0`` is
    dropped.
    """
    alphabet = alphabet or {}
    heads = [c.term for c in config.procs]
    if reduce:
        for i, head in enumerate(heads):
            if isinstance(head, _DETERMINISTIC_TAU):
                return [_deterministic_tau(config, i, head)]

    transitions: list[Transition] = []
    senders, receivers = [], []  # (index, head, channel id) ready to communicate
    for i, head in enumerate(heads):
        if isinstance(head, _DETERMINISTIC_TAU):
            transitions.append(_deterministic_tau(config, i, head))
            continue

        if isinstance(head, Output):
            measured = _measure_path(head.payload)
            if measured is not None:
                exprs = head.payload
                for k in measured[:-1]:
                    exprs = exprs[k].items
                qids = _qubit_ids(config, exprs[measured[-1]].names)
                dist = []
                for o in qstate.measure(config.qstate, qids):
                    bits = tuple(BitLit(value=b) for b in o.result)
                    lit = bits[0] if len(bits) == 1 else TupleExpr(items=bits)
                    new_head = Output(
                        channel=head.channel,
                        payload=_splice(head.payload, measured, lit),
                        continuation=head.continuation,
                        pos=head.pos,
                    )
                    cfg = _advance(config, {i: new_head}, qstate=o.post_state)
                    dist.append((o.probability, cfg))
                transitions.append(Transition(TAU, tuple(dist)))
                continue
            cid = _channel_id(config, head.channel)
            senders.append((i, head, cid))
            if config.is_visible(cid):
                label_values = []
                sent_qubits = []
                for v in _eval_slots(config, head.payload):
                    if isinstance(v, QubitVal):
                        label_values.append(QubitSlot(len(sent_qubits)))
                        sent_qubits.append(v.qid)
                    else:
                        label_values.append(v)
                dm = (
                    qstate.reduced_density_matrix(config.qstate, sent_qubits)
                    if sent_qubits
                    else None
                )
                label = CommLabel(
                    "out", cid, config.display_channel(cid), tuple(label_values), dm
                )
                cfg = _advance(config, {i: head.continuation})
                transitions.append(Transition(label, ((1.0, cfg),)))
            continue

        if isinstance(head, Input):
            cid = _channel_id(config, head.channel)
            receivers.append((i, head, cid))
            if config.is_visible(cid) and cid in alphabet:
                for value_tuple in alphabet[cid]:
                    cfg = _bind(config, {i: head.continuation}, i, head.binders, value_tuple)
                    label = CommLabel("in", cid, config.display_channel(cid), tuple(value_tuple))
                    transitions.append(Transition(label, ((1.0, cfg),)))
            continue

        raise TypeError(f"not a process term: {head!r}")

    # Internal synchronous communication between any two parallel components
    # sharing a channel, hidden or visible: the receiver binds the sender's
    # slots while the sender moves on to its continuation.
    for out_i, out_head, out_cid in senders:
        for in_i, in_head, in_cid in receivers:
            if in_cid != out_cid:
                continue
            values = _eval_slots(config, out_head.payload)
            heads = {out_i: out_head.continuation, in_i: in_head.continuation}
            cfg = _bind(config, heads, in_i, in_head.binders, values)
            transitions.append(Transition(TAU, ((1.0, cfg),)))

    return transitions


# ---------------------------------------------------------------------------
# Canonical configuration keys (deduplication)
# ---------------------------------------------------------------------------

def canonical_key(config: Configuration) -> tuple:
    """Discrete part of configuration identity: the number of qubits and
    the ``canonical_form`` of each component in order, with every free name
    replaced by the value it is bound to and hidden channels numbered by
    first occurrence across all components.
    Configurations with equal keys are merged when their quantum states
    agree up to global phase.

    Each component's form comes from its cached ``key_template``, so only
    its free names are resolved here; no term is walked once a component
    has been keyed."""
    bindings = config.bindings
    hidden: dict[int, str] = {}

    def resolve(name: str) -> str:
        if name not in bindings:
            return f"?{name}"
        v = bindings[name]
        if isinstance(v, QubitVal):
            return f"q{v.qid}"
        if isinstance(v, ChannelVal):
            if config.is_visible(v.cid):
                return f"C{v.cid}"
            return hidden.setdefault(v.cid, f"h{len(hidden)}")
        if isinstance(v, tuple):
            return "(" + ",".join(str(b) for b in v) + ")"
        return f"b{v}"

    forms = []
    for c in config.procs:
        fmt, slots = c.key_template()
        forms.append(fmt.format(*map(resolve, slots)))
    return (config.qstate.num_qubits, tuple(forms))


# ---------------------------------------------------------------------------
# PLTS construction
# ---------------------------------------------------------------------------

@dataclass
class PLTSState:
    id: int
    kind: str  # "nondet" | "prob"
    terminal: bool = False
    config: Configuration | None = None


@dataclass
class PLTSEdge:
    src: int
    label: object
    dst: int


@dataclass
class PLTS:
    states: list[PLTSState]
    edges: list[PLTSEdge]
    initial: int

    def successors(self) -> dict[int, list[PLTSEdge]]:
        out: dict[int, list[PLTSEdge]] = {s.id: [] for s in self.states}
        for e in self.edges:
            out[e.src].append(e)
        return out

    def dump_json(self) -> str:
        states = [
            {"id": s.id, "kind": s.kind, "terminal": s.terminal} for s in self.states
        ]
        edges = []
        for e in self.edges:
            if isinstance(e.label, ProbLabel):
                edges.append(
                    {
                        "src": e.src,
                        "label": "prob",
                        "p": round(e.label.probability, 12),
                        "dst": e.dst,
                    }
                )
            else:
                edges.append({"src": e.src, "label": render_label(e.label), "dst": e.dst})
        return json.dumps(
            {"states": states, "edges": edges, "initial": self.initial}, indent=2
        )


def explore(
    config: Configuration,
    max_states: int = DEFAULT_MAX_STATES,
    alphabet: dict | None = None,
    *,
    reduce: bool = True,
) -> PLTS:
    """Breadth-first closure of a configuration under ``step``.

    Configurations whose components (``Configuration.procs``) are equal in
    order up to bound-name renaming and hidden-channel bijection, and whose
    states are equal up to global phase, are merged (``canonical_key``).
    Since the components are held flat, how a composition was bracketed
    plays no part. Transitions with more than one outcome go through an
    intermediate probabilistic state.

    ``step`` has already dropped the dead basis-state qubits of every
    successor (see ``Configuration``), so two configurations that differ
    only in such qubits, like the four branches of a teleport after Bob's
    correction, get the same key and are merged. The qubit cap of an
    allocation or input counts only this compacted vector.

    ``reduce`` is passed to ``step``: the default explores one order of
    independent deterministic τ steps, ``reduce=False`` every interleaving.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    states: list[PLTSState] = []
    edges: list[PLTSEdge] = []
    buckets: dict[tuple, list[int]] = {}
    prob_cache: dict[tuple, int] = {}
    queue: list[int] = []

    def intern(cfg: Configuration) -> int:
        key = canonical_key(cfg)
        for sid in buckets.get(key, []):
            if qstate.states_equal_up_to_global_phase(states[sid].config.qstate, cfg.qstate):
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
        cfg = states[sid].config
        transitions = step(cfg, alphabet, reduce=reduce)
        if not transitions:
            states[sid].terminal = True
            continue
        for t in transitions:
            if len(t.outcomes) == 1:
                dst = intern(t.outcomes[0][1])
                edges.append(PLTSEdge(sid, t.label, dst))
                continue
            dist = tuple(
                (round(p, 12), intern(child)) for p, child in t.outcomes
            )
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


def run_sampled(
    config: Configuration,
    seed: int,
    alphabet: dict | None = None,
    max_steps: int | None = None,
) -> list[TraceStep]:
    """One seeded path: the first enabled transition in enumeration order,
    with probabilistic outcomes resolved by a deterministic PRNG. Under the
    priority rule of ``step``, a deterministic τ is the only transition
    offered, so none is built only to be dropped."""
    rng = random.Random(seed)
    trace: list[TraceStep] = []
    current = config
    while max_steps is None or len(trace) < max_steps:
        transitions = step(current, alphabet)
        if not transitions:
            break
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
    return trace


# ---------------------------------------------------------------------------
# External-input alphabets
# ---------------------------------------------------------------------------

def input_used_channels(program: Program, entry_name: str) -> set[int]:
    """Entry channel positions on which the program can ever perform input.

    Channels are tracked positionally through (non-recursive) calls;
    channels received as payload are not tracked.
    """
    used: set[int] = set()
    seen: set[tuple] = set()

    def walk_def(name: str, args_abs: tuple):
        key = (name, args_abs)
        if key in seen:
            return
        seen.add(key)
        d = program.definition(name)
        walk(d.body, dict(zip(d.params, args_abs)))

    def walk(term: ProcessTerm, env: dict):
        if isinstance(term, Nil):
            return
        if isinstance(term, Input):
            pos = env.get(term.channel)
            if pos is not None:
                used.add(pos)
            env2 = dict(env)
            for b in term.binders:
                env2[b] = None
            walk(term.continuation, env2)
            return
        if isinstance(term, Output):
            walk(term.continuation, env)
            return
        if isinstance(term, GateAction):
            walk(term.continuation, env)
            return
        if isinstance(term, (QbitAlloc, NewChannel)):
            binders = term.binders if isinstance(term, QbitAlloc) else (term.binder,)
            env2 = dict(env)
            for b in binders:
                env2[b] = None
            walk(term.continuation, env2)
            return
        if isinstance(term, Parallel):
            walk(term.left, env)
            walk(term.right, env)
            return
        if isinstance(term, Call):
            walk_def(term.process, tuple(env.get(a) for a in term.args))
            return
        raise TypeError(f"not a process term: {term!r}")

    d = program.definition(entry_name)
    walk_def(entry_name, tuple(range(len(d.params))))
    return used


def input_alphabet(program: Program, entry: str, signature, test_qubits) -> dict[int, list[tuple]]:
    """Every value tuple the environment may inject on each channel of
    ``input_used_channels``, keyed by channel id in ascending order: the
    cartesian product over the channel's payload, with ``test_qubits`` for
    a qubit slot and 0 and 1 for a bit slot. ``signature`` is the entry's
    list of parameter types."""
    alphabet = {}
    for cid in sorted(input_used_channels(program, entry)):
        pools = []
        for slot in signature[cid].payload:
            if isinstance(slot, QbitType):
                pools.append(test_qubits)
            elif isinstance(slot, BitType):
                pools.append((0, 1))
            else:
                raise RuntimeProcessError(
                    f"cannot enumerate external inputs for payload type {slot}"
                )
        alphabet[cid] = list(itertools.product(*pools))
    return alphabet

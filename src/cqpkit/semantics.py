"""Executable operational semantics over process configurations.

A configuration pairs a global quantum state with its running parallel
components, kept as a flat tuple, plus the bindings from source names to
runtime values (qubit ids, classical bits, channel ids). Holding the
components flat builds in three structural congruences: ``P | 0 ≡ P``,
``(P | Q) | R ≡ P | (Q | R)`` and the unfolding of a process call,
``A(x̃) ≡ P{x̃/ỹ}`` for a definition ``A(ỹ) = P``. A component whose head
becomes a parallel composition is spliced into its parts, a call is
replaced by its body, and a component that reaches ``0`` is dropped, all
without a transition. ``explore`` closes a configuration under its
enabled transitions into a finite probabilistic labelled transition system
(PLTS) whose states alternate between nondeterministic choice and
probability distributions. It first settles each configuration
(``settle``): it runs the deterministic internal steps, which have
priority (``settle`` says why), and then the communications on a hidden
channel that only their sender and receiver hold, until neither is left,
so no state of the PLTS is one that could take such a step. ``explore``
says why settling changes no verdict. One table per exploration decides
which configurations are one state, and every settle run probes it before
each private communication (``_meet``, which says why that is sound), so
branches that a correction has made equal run the rest once.
``run_sampled`` walks one seeded path for simulation: each ``step`` takes
the first enabled transition, builds at most the configuration the path
takes, and collapses the state only onto the measurement branch it draws.
A configuration keeps its first step once a run with no alphabet has
built it: a step with one outcome, or a measurement's outcome list. So
the traces of such runs from one configuration share the configurations
up to their first draw.

Communication is synchronous (handshake), as in pi-calculus. A payload is
a flat list of expressions. Before an output can send, the leftmost
``measure x̃`` in its payload is forced as an internal probabilistic step,
which puts one bit literal per measured qubit in its place; the send then
carries the classical results.

External interactions happen on visible channels only. Inputs are
instantiated from a finite alphabet of injectable values; qubit inputs come
from a small test set of single-qubit states. Outputs carrying qubits are
labelled with the reduced density matrix of the transmitted qubits, which
is all an observer can see of them. Scope extrusion is not modelled: sending
a hidden channel on a visible one raises ``RuntimeProcessError``.

A running component is a record ``(term, env, qubits, hidden)``. Its
first two fields are a closure (Abadi, Cardelli, Curien & Lévy, "Explicit
substitutions", JFP 1991): ``term`` is a subterm of the program, or an
output whose measurement was forced (``Output.forced``, one node per
outcome), and ``env`` maps its free names to runtime names; a name it does
not map, such as an entry parameter, stands for itself. Binding extends
``env`` and a call starts a new one, so no term is renamed while it runs
and each term node computes its free names and key template once
(``ProcessTerm``). ``_flatten`` makes the records and caps the components
of a configuration (``MAX_COMPONENTS``).

``qubits`` is the set of qubits the component's free names resolve to,
and ``hidden`` the set of hidden channels they resolve to, both computed
in one pass when the component is made. A continuation that goes on under
its component's environment and drops no name bound to a qubit or a hidden
channel, such as that of a gate, keeps the component's sets instead
(``_advance``). ``settle`` counts the holders of a hidden channel on the
``hidden`` sets. Every successor is made by ``_follow``: it applies the
step's state operation, checks each skeleton it builds against the
``qubits`` sets for a qubit held by two components (dynamic no-cloning,
``Configuration.check_ownership``), and then drops the dead qubits that
sit in a basis state (``Configuration`` says which drop and why that is
sound).

A configuration is its *skeleton*, everything but its state, plus its
state (``Configuration``). ``explore`` does the work that reads no
amplitude once per skeleton, which keeps what it finds: every step taken
from a skeleton is built once, and a configuration that meets the skeleton
again runs only the state kernels. ``_Skeleton`` gives the argument that
replaying a step builds what building it anew would. Explorations from one
configuration share its skeleton, such as those of
``equiv.check_equivalence`` under a side's input instantiations. Seeded
runs build no records (``step``).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .qstate import DensityMatrix, MeasurementOutcome, StateVector
from .syntax import (
    BitLit,
    Call,
    FixedGate,
    GateAction,
    Input,
    NewChannel,
    Nil,
    Output,
    Parallel,
    ProcessTerm,
    Program,
    QbitAlloc,
    SigmaGate,
    Var,
    free_names,
    scopes,
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


class ExplorationLimitError(SemanticsError, qstate.CapacityError):
    """An exploration outgrew a cap: states of a PLTS (``what="state"``) or
    parallel components of one configuration (``what="component"``). A
    ``CapacityError`` like the qubit cap, so callers catch one type."""

    def __init__(self, limit: int, what: str = "state"):
        super().__init__(f"bounded exploration exceeded the {what} cap of {limit}")


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
            entries = ";".join(qstate.format_complex(z) for z in label.qubit_dm.matrix.reshape(-1))
            rendered += f"<{entries}>"
        return rendered
    raise TypeError(f"not a label: {label!r}")


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

@dataclass(eq=False, slots=True)
class Configuration:
    """Snapshot of one run: its skeleton ``skel`` (``_Skeleton``), which
    holds the name bindings and the running components, and its quantum
    state ``qstate``, of ``skel.num_qubits`` qubits.

    Treated as immutable; a step produces a fresh successor, sharing the
    components it leaves unchanged. The exception is ``_kept_step``, the
    configuration's first step as ``step`` finds it (``_first_step``) for
    a run with no alphabet, which ``step`` keeps, so such runs from one
    configuration share the configurations of those steps. The
    skeleton's fields but ``program`` read through as properties of the same names. ``procs`` holds the
    parallel components in left-to-right order as ``(term, env, qubits,
    hidden)`` records; no term is a parallel composition, a call or ``0``
    (``_flatten``), so a finished run has none. ``qubits`` holds the ids of the qubits a free
    name of the component resolves to, computed when the component is made
    and renumbered when qubits are dropped; ``hidden`` holds the ids of the
    hidden channels they resolve to. Bindings are never rebound, so a
    shared component keeps its sets, and so does a continuation that keeps
    its component's environment and drops no name bound to a qubit or a
    hidden channel (``_advance``). ``bindings`` maps runtime names, the
    entry's parameters and the ``binder~n`` names ``_bind`` makes, to
    values. ``channel_names`` maps visible channel ids (the entry's channel
    parameters, numbered by position) to their display names; hidden
    channels get ids from ``next_channel``.

    A qubit is *live* when a free name of some component resolves to it and
    *dead* otherwise: it was measured into a payload, sent away, or its
    binder went out of scope. Every binding gets a fresh runtime name, so
    nothing can refer to a dead qubit again. A step drops each dead qubit
    whose amplitudes are exactly zero on one basis value (measurement and
    gate pruning leave such exact zeros). A qubit measured into a payload
    is such a qubit in every branch, so the branch is collapsed with it
    already sliced out, and only the other dead qubits are scanned for
    those zeros (``_basis_drops``). A dropped qubit is an exact tensor
    factor |b> of ``qstate``: no gate or measurement acts on it again, and
    the reduced density matrix of any other qubits, which is all an output
    label shows, is the same with or without it. So configurations that
    differ only in such qubits, such as the measurement branches of a
    teleport after the correction, are the same configuration, which
    ``explore`` merges, and the qubit cap bounds the qubits held at one time
    rather than all ever allocated. A dead qubit in superposition or
    entangled with others stays in ``qstate``; it still shapes the reduced
    state of its partners.
    """

    skel: _Skeleton
    qstate: StateVector
    _kept_step: tuple | None = field(default=None, init=False, repr=False)

    @property
    def bindings(self) -> dict:
        return self.skel.bindings

    @property
    def procs(self) -> tuple:
        return self.skel.procs

    @property
    def channel_names(self) -> dict[int, str]:
        return self.skel.channel_names

    @property
    def next_channel(self) -> int:
        return self.skel.next_channel

    @property
    def next_fresh(self) -> int:
        return self.skel.next_fresh

    @property
    def num_qubits(self) -> int:
        return self.skel.num_qubits

    @property
    def term(self) -> ProcessTerm:
        """The components with their environments applied, folded left to
        right into one term, for display."""
        if not self.procs:
            return Nil()
        terms = (substitute(term, env) for term, env, *_ in self.procs)
        return functools.reduce(lambda l, r: Parallel(left=l, right=r), terms)

    def check_ownership(self) -> frozenset[int]:
        """Raise OwnershipViolation if a qubit is held by two components;
        otherwise return the live qubits, the union of their qubit sets.
        Reads only the cached sets, so no free name is looked up. The result
        is kept as the skeleton's ``live``, so a later call returns it."""
        skel = self.skel
        if skel.live is not None:
            return skel.live
        live = set()
        for _term, _env, mine, _hidden in skel.procs:
            if not live.isdisjoint(mine):
                raise OwnershipViolation(
                    f"qubit id(s) {sorted(live & mine)} bound under two parallel components"
                )
            live |= mine
        skel.live = live = frozenset(live)
        return live


_UNKNOWN = object()  # a field of a ``_Skeleton`` not computed yet


class _Skeleton:
    """Everything of a configuration but its state: ``bindings``,
    ``procs``, ``channel_names``, ``next_channel``, ``next_fresh``,
    ``program`` and the qubit count ``num_qubits`` (``Configuration`` says
    what each holds), with what exploring it has found out so far. Every
    step makes new skeletons; ``channel_names`` and ``program`` are those of
    the initial configuration throughout. A skeleton never holds a state.

    What exploring finds out is recorded as each is first needed, and kept
    as long as the skeleton is: ``live``, the live set of the ownership
    check (``Configuration.check_ownership``); the ``canonical_key``
    (``key``); ``settling``, ``_UNKNOWN`` until computed and then None or
    the settle move (the deterministic τ with its state operation,
    ``_tau_move``, or else the private communication, ``_private_redex``)
    with its table of what it built (``_follow``); ``moves``, such pairs for
    each move of ``_moves``; and ``drops``, the skeleton left per set of
    dropped dead qubits (``_compact``). A table maps each measurement
    outcome or received value tuple to the skeleton the move built.

    So the work that reads no amplitude is done once per skeleton, not
    once per configuration met: the ownership check, key and redex of a
    skeleton, its settle steps and moves, and the skeletons of its
    successors. An exploration that meets a skeleton again, later on, under
    another value received on one channel, or as a later exploration from
    the same configuration, runs only the ``qstate`` kernels and the
    decisions that read amplitudes: which outcomes a measurement has, which
    dead qubits drop, hits in the intern table (``_meet``), and the density
    matrices of labels. Replaying a recorded successor builds the
    configuration that building it anew would build, for three reasons:

    - A step's effect on the skeleton depends only on the skeleton, the
      move taken, the bits of its outcome or the values received (a test
      qubit stands for the fresh qubit id it is bound as, whatever its
      amplitudes), and the set of dead qubits dropped, which is decided
      anew from the amplitudes each time. Runtime names come from
      ``next_fresh``, qubit ids from the qubit count and hidden channel ids
      from ``next_channel``, all skeleton fields.
    - The state operation is kept with the move (``_state_op``), or is
      the received test qubits (``_received``). ``_follow`` applies it on
      every path; no builder reads or writes amplitudes.
    - Errors are raised anew. Every error the skeleton work of a step can
      raise (an unbound name, an arity mismatch, an ownership violation,
      the component cap) depends only on the skeleton, and a step that
      raises records nothing, so every exploration that takes the step
      raises it again. The kernels, and with them the qubit cap, and the
      state cap run every time.

    So every kernel call, every PLTS and every verdict is the one exploring
    from a fresh skeleton gives. The records serve ``settle`` and
    ``explore`` alone: seeded runs (``step``) build every step with none."""

    live = None
    _key = None
    settling = _UNKNOWN
    moves = None
    drops = None

    def __init__(self, bindings, procs, channel_names, next_channel, next_fresh, program, num_qubits):
        self.bindings = bindings
        self.procs = procs
        self.channel_names = channel_names
        self.next_channel = next_channel
        self.next_fresh = next_fresh
        self.program = program
        self.num_qubits = num_qubits

    def key(self) -> tuple:
        """``canonical_key`` of this skeleton at any state of its size."""
        if self._key is None:
            self._key = canonical_key(self)
        return self._key


@dataclass(frozen=True)
class Transition:
    """One enabled move: a label and a distribution over successor configs.
    ``step`` builds only the outcome its ``rng`` draws, so ``outcomes``
    holds one; ``drawn`` marks a measurement that had several."""

    label: object
    outcomes: tuple  # of (probability, Configuration)
    drawn: bool = False


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
    bindings = {p: ChannelVal(i) for i, p in enumerate(d.params)}
    channel_names = dict(enumerate(d.params))
    procs = _flatten(d.body, {}, bindings, channel_names, program)
    return Configuration(
        _Skeleton(bindings, procs, channel_names, len(d.params), 0, program, 0), StateVector.empty()
    )


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def _flatten(
    term: ProcessTerm,
    env: dict,
    bindings: dict,
    channel_names: dict,
    program: Program,
    others: int = 0,
) -> tuple:
    """The parallel components of ``term`` under ``env`` in left-to-right
    order, as ``(term, env, qubits, hidden)`` records, with every call
    unfolded into its body, under an environment mapping each parameter to
    its argument, and the finished components (``0``) dropped. One pass
    over the term's cached free names, resolved through ``env`` and
    ``bindings``, gives both ``qubits`` and ``hidden``, the ids of the
    channels they resolve to that are not in ``channel_names``.

    Raises ExplorationLimitError as soon as these components and the
    ``others`` held beside them would exceed ``MAX_COMPONENTS``, before the
    rest of an exponential call fan-out is unfolded."""
    if isinstance(term, Parallel):
        left = _flatten(term.left, env, bindings, channel_names, program, others)
        right = _flatten(term.right, env, bindings, channel_names, program, others + len(left))
        return left + right
    if isinstance(term, Nil):
        return ()
    if isinstance(term, Call):
        d = program.definition(term.process)
        inner = {p: env.get(a, a) for p, a in zip(d.params, term.args)}
        return _flatten(d.body, inner, bindings, channel_names, program, others)
    if others >= MAX_COMPONENTS:
        raise ExplorationLimitError(MAX_COMPONENTS, "component")
    qubits, hidden = [], []
    for n in free_names(term):
        v = bindings.get(env.get(n, n))
        if isinstance(v, QubitVal):
            qubits.append(v.qid)
        elif isinstance(v, ChannelVal) and v.cid not in channel_names:
            hidden.append(v.cid)
    return ((term, env, frozenset(qubits), frozenset(hidden)),)


def _lookup(skel: _Skeleton, env: dict, name: str):
    """The value of ``name`` in a component of ``skel`` with environment
    ``env``."""
    try:
        return skel.bindings[env.get(name, name)]
    except KeyError:
        raise RuntimeProcessError(f"unbound name {name!r} at runtime") from None


def _channel_id(skel: _Skeleton, env: dict, name: str) -> int:
    v = _lookup(skel, env, name)
    if not isinstance(v, ChannelVal):
        raise RuntimeProcessError(f"{name!r} is not a channel at runtime")
    return v.cid


def _qubit_ids(skel: _Skeleton, env: dict, names) -> list[int]:
    qids = []
    for n in names:
        v = _lookup(skel, env, n)
        if not isinstance(v, QubitVal):
            raise RuntimeProcessError(f"{n!r} is not a qubit at runtime")
        qids.append(v.qid)
    if len(set(qids)) != len(qids):
        raise OwnershipViolation(f"gate or measurement lists the same qubit twice: {qids}")
    return qids


def _eval_slots(skel: _Skeleton, env: dict, exprs) -> list:
    """Evaluate fully-forced payload expressions into a flat slot list."""
    slots = []
    for e in exprs:
        if isinstance(e, BitLit):
            slots.append(e.value)
        elif isinstance(e, Var):
            v = _lookup(skel, env, e.name)
            if isinstance(v, tuple):
                slots.extend(v)
            else:
                slots.append(v)
        else:
            raise TypeError(f"not an expression: {e!r}")
    return slots


def _advance(
    skel: _Skeleton,
    heads: dict,
    *,
    num_qubits: int | None = None,
    bindings: dict | None = None,
    next_channel: int | None = None,
    next_fresh: int | None = None,
) -> _Skeleton:
    """The successor of ``skel`` with each given field replaced and each
    component ``i`` in ``heads`` replaced by the components of the closure
    ``heads[i]`` (``_flatten``); ``_follow`` then checks its ownership and
    drops its dead basis qubits. The other components are shared with
    ``skel``, qubit sets included; only the new components compute theirs.

    A closure that goes on under its component's own ``env`` keeps the
    component's ``qubits`` and ``hidden`` sets instead of resolving its
    names again when its free names are the component's, less names bound
    to neither a qubit nor a hidden channel (``_keeps_sets``): the
    continuation of a gate on qubits it goes on to use, or of Bob's
    correction ``{y *= sigma[r]}``, which drops only the bits ``r``. Its
    other names resolve through the same ``env`` and bindings, which are
    never rebound, and ``_compact`` rebuilds every set it renumbers. A
    parallel composition, a call or ``0`` still goes through ``_flatten``,
    and so does every closure under a new ``env`` (``_bind``).
    """
    bindings = skel.bindings if bindings is None else bindings
    visible = skel.channel_names
    procs = skel.procs
    pending = len(heads)
    for i in sorted(heads, reverse=True):  # splicing from the right keeps indices valid
        others = len(procs) - pending  # the components that stay beside this head's
        term, env = heads[i]
        head, head_env, qubits, hidden = procs[i]
        if (
            env is head_env
            and not isinstance(term, _UNFOLDED)
            and _keeps_sets(term.free_names, head.free_names, env, bindings, visible)
        ):
            if others >= MAX_COMPONENTS:
                raise ExplorationLimitError(MAX_COMPONENTS, "component")
            parts = ((term, env, qubits, hidden),)
        else:
            parts = _flatten(term, env, bindings, visible, skel.program, others)
        procs = procs[:i] + parts + procs[i + 1 :]
        pending -= 1
    return _Skeleton(
        bindings,
        procs,
        visible,
        skel.next_channel if next_channel is None else next_channel,
        skel.next_fresh if next_fresh is None else next_fresh,
        skel.program,
        skel.num_qubits if num_qubits is None else num_qubits,
    )


def _keeps_sets(names: frozenset, held: frozenset, env: dict, bindings: dict, visible: dict) -> bool:
    """Whether a continuation with free names ``names``, under the ``env``
    of a component whose head has free names ``held``, resolves to the
    component's qubits and hidden channels: ``names`` is ``held`` less
    names bound to neither a qubit nor a hidden channel."""
    if names == held:
        return True
    if not names < held:
        return False
    for n in held - names:
        v = bindings.get(env.get(n, n))
        if isinstance(v, QubitVal) or (isinstance(v, ChannelVal) and v.cid not in visible):
            return False
    return True


def _basis_drops(
    state: StateVector, live: frozenset, outcome: MeasurementOutcome | None = None
) -> tuple[StateVector, dict[int, int]] | None:
    """``(qvec, dropped)``: ``state``, collapsed onto ``outcome`` when given,
    with its dead qubits (those not in ``live``) that sit in a basis state
    sliced out, and those qubits with their bits; or None when there is no
    branch to collapse and no dead qubit drops. This is the part of
    dropping dead qubits that reads amplitudes.

    With ``outcome``, a measurement of ``state``, the measured dead qubits
    are in the basis state of their bit, so ``qstate.collapse`` slices them
    out, and only the other dead qubits are scanned, on the smaller
    state."""
    n = state.num_qubits
    if outcome is None:
        if len(live) == n:
            return None
        qvec, dropped = qstate.drop_basis_qubits(state, [q for q in range(n) if q not in live])
        return (qvec, dropped) if dropped else None
    dropped = {t: b for t, b in zip(outcome.targets, outcome.result) if t not in live}
    qvec = qstate.collapse(outcome, dropped)
    rest = [q for q in range(n) if q not in live and q not in dropped]
    if rest:
        at = {q: q - sum(d < q for d in dropped) for q in rest}  # each one's id in qvec
        qvec, more = qstate.drop_basis_qubits(qvec, list(at.values()))
        dropped.update((q, more[at[q]]) for q in rest if at[q] in more)
    return qvec, dropped


def _compact(skel: _Skeleton, dropped) -> _Skeleton:
    """``skel`` with the qubits ``dropped`` gone: the others renumbered in
    their old order, the bindings and qubit sets of the survivors
    rewritten, and the bindings of the dropped qubits deleted; bit and
    channel bindings stay. Terms and environments refer to qubits only
    through bindings, so they are shared unchanged, and so is every qubit
    set below the lowest dropped qubit, which no renumbering moves."""
    n = skel.num_qubits
    kept = [q for q in range(n) if q not in dropped]
    renumber = {q: i for i, q in enumerate(kept)}
    lowest = min(dropped, default=n)
    bindings = {}
    for name, v in skel.bindings.items():
        if not isinstance(v, QubitVal):
            bindings[name] = v
        elif v.qid in renumber:
            bindings[name] = QubitVal(renumber[v.qid])
    procs = tuple(
        record
        if max(record[2], default=-1) < lowest
        else (record[0], record[1], frozenset(renumber[q] for q in record[2]), record[3])
        for record in skel.procs
    )
    return _Skeleton(
        bindings, procs, skel.channel_names, skel.next_channel, skel.next_fresh, skel.program, len(kept)
    )


def _bind(skel: _Skeleton, heads: dict, i: int, binders, values, **changes) -> _Skeleton:
    """The successor in which component ``i`` goes on as the closure
    ``heads[i]`` with ``binders`` bound to ``values``; ``heads`` and
    ``changes`` otherwise as in ``_advance``.

    This is the only place that makes runtime names: each binder gets the
    fresh name ``binder~n`` in the component's environment, so no two
    bindings clash and nothing can name a dead qubit again. Each
    ``TestQubit`` among the values, a received one or the |0> of an
    allocation, is bound as the id of a new qubit, numbered in order from
    ``skel.num_qubits``, which rises by their count; ``_follow`` appends
    them to the state. One binder receiving several bits binds them as
    one tuple.
    """
    new_ids = itertools.count(skel.num_qubits)
    values = [QubitVal(next(new_ids)) if isinstance(v, TestQubit) else v for v in values]
    if len(binders) == len(values):
        pairs = zip(binders, values)
    elif len(binders) == 1 and len(values) > 1 and all(isinstance(v, int) for v in values):
        pairs = [(binders[0], tuple(values))]
    else:
        raise RuntimeProcessError(
            f"input binds {len(binders)} name(s) but {len(values)} value(s) arrived"
        )
    bindings = dict(skel.bindings)
    fresh = skel.next_fresh
    term, env = heads[i]
    env = dict(env)
    for binder, value in pairs:
        env[binder] = runtime_name = f"{binder}~{fresh}"
        bindings[runtime_name] = value
        fresh += 1
    heads = {**heads, i: (term, env)}
    num_qubits = next(new_ids)  # the first id no value took
    return _advance(skel, heads, num_qubits=num_qubits, bindings=bindings, next_fresh=fresh, **changes)


def _received(qvec: StateVector, values) -> StateVector:
    """``qvec`` with each ``TestQubit`` among ``values`` appended, in order,
    as a new qubit; ``qvec`` itself when there is none."""
    qubits = [(v.amp0, v.amp1) for v in values if isinstance(v, TestQubit)]
    return qstate.append_qubits(qvec, qubits) if qubits else qvec


def _gate_for(skel: _Skeleton, env: dict, ref) -> qstate.Gate:
    if isinstance(ref, FixedGate):
        return qstate.standard_gate(ref.name)
    if isinstance(ref, SigmaGate):
        v = _lookup(skel, env, ref.index_var)
        if not (isinstance(v, tuple) and len(v) == 2 and all(b in (0, 1) for b in v)):
            raise RuntimeProcessError(
                f"sigma index {ref.index_var!r} must hold a two-bit value, got {v!r}"
            )
        return qstate.sigma_correction(v)
    raise TypeError(f"not a gate reference: {ref!r}")


# Terms that ``_flatten`` splices, unfolds or drops instead of keeping as a
# component.
_UNFOLDED = (Parallel, Call, Nil)

# Heads whose step is a deterministic τ touching only the component's own
# qubits and fresh names; ``settle`` says why they have priority.
_DETERMINISTIC_TAU = (QbitAlloc, NewChannel, GateAction)


# The gates whose matrix is the identity. ``qstate`` keeps every state it
# makes pruned, so applying one would copy the state and change nothing.
_IDENTITY_GATES = (qstate.standard_gate("I"), qstate.standard_gate("sigma00"))


def _state_op(skel: _Skeleton, head: ProcessTerm, env: dict) -> tuple | None:
    """The state operation of the deterministic τ step of ``head``, as the
    name of a ``qstate`` function and its arguments after the state: a
    gate's ``apply_gate`` on the qubits it names, an allocation's
    ``append_qubits`` of one |0> qubit per binder; None for ``new`` and
    for an identity gate on as many qubits as it acts on. It reads only
    names and bindings, never amplitudes (``_applied``)."""
    if isinstance(head, GateAction):
        qids = _qubit_ids(skel, env, head.targets)
        gate = _gate_for(skel, env, head.gate)
        if gate in _IDENTITY_GATES and len(qids) == gate.arity:
            return None
        return "apply_gate", gate, qids
    if isinstance(head, QbitAlloc):
        return "append_qubits", [(_KET0.amp0, _KET0.amp1)] * len(head.binders)
    return None


def _applied(op: tuple | None, qvec: StateVector) -> StateVector:
    """``qvec`` after the state operation ``op`` (``_state_op``)."""
    return qvec if op is None else getattr(qstate, op[0])(qvec, *op[1:])


def _communicate(skel: _Skeleton, out_i: int, in_i: int) -> _Skeleton:
    """The successor of the internal communication in which component
    ``out_i``, headed by an output with no ``measure`` left in its payload,
    sends to component ``in_i``, headed by an input on the same channel:
    the receiver binds the sender's slots while the sender moves on to its
    continuation."""
    out_head, out_env, _out_qubits, _out_hidden = skel.procs[out_i]
    in_head, in_env, _in_qubits, _in_hidden = skel.procs[in_i]
    values = _eval_slots(skel, out_env, out_head.payload)
    heads = {out_i: (out_head.continuation, out_env), in_i: (in_head.continuation, in_env)}
    return _bind(skel, heads, in_i, in_head.binders, values)


def _private_redex(skel: _Skeleton) -> tuple[int, int] | None:
    """``(sender, receiver)``, the component indices of the first private
    communication in ``step``'s order of internal communications, or None.

    A communication on channel ``c`` is private when ``c`` is hidden and
    exactly two components hold it, that is, resolve a free name to it:
    one headed by an output on ``c`` with no ``measure`` left in its
    payload, the other headed by an input on ``c``. Holders are counted on
    the records' ``hidden`` sets, so no free name is resolved again. A head
    whose channel does not resolve to a channel is passed over, and
    ``_moves`` raises on it as it would without settling."""
    procs = skel.procs
    bindings = skel.bindings
    for out_i, (head, env, _qubits, hidden) in enumerate(procs):
        if not hidden or not isinstance(head, Output) or head.measure_index is not None:
            continue
        v = bindings.get(env.get(head.channel, head.channel))
        if not isinstance(v, ChannelVal) or v.cid not in hidden:
            continue
        holders = [j for j, record in enumerate(procs) if v.cid in record[3]]
        if len(holders) != 2:
            continue
        in_i = holders[1] if holders[0] == out_i else holders[0]
        in_head, in_env, _in_qubits, _in_hidden = procs[in_i]
        if not isinstance(in_head, Input):
            continue
        if bindings.get(in_env.get(in_head.channel, in_head.channel)) == v:
            return out_i, in_i
    return None


def settle(config: Configuration) -> Configuration:
    """The first configuration with neither a deterministic τ step nor a
    private communication (``_private_redex``) that ``config`` reaches by
    taking them, each with every check of a step. Each time, the first
    component headed by a qubit allocation, a ``new`` or a gate moves
    (``_tau_move``); only when none is left does the first private
    communication go (``_communicate``). A configuration that has neither
    comes back with the same fields. The run is ``_settle``'s from the
    configuration's skeleton, so the skeletons it meets keep what it found
    (``_Skeleton``).

    Priority rule: a deterministic τ step is confluent with every other
    enabled step and inert, so it goes first, and no other successor of
    its configuration is built (``step`` takes it the same way):

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

    What stays out: measurement forcing, outputs, inputs and the other
    internal communications. A probabilistic τ does not commute branch by
    branch with visible outputs of entangled qubits (Baier, D'Argenio &
    Größer, "Partial order reduction for probabilistic branching time",
    QAPL 2005), and communications on a channel a third component holds
    can disable each other: two receivers race for one send.

    A private communication on ``c`` is τ-confluent and inert, like a
    deterministic τ. No component but its sender ``S`` and
    receiver ``R`` holds ``c``, and a hidden channel can only reach another
    component by being sent, which only ``S`` or ``R`` could do; both are
    blocked on this very step. So no other step can take ``c`` from them,
    race for it or disable the communication, and the communication
    neither enables nor disables another step: it touches no other
    component, and no qubit, since sending a qubit only moves its
    ownership from ``S`` to ``R``. Each other move, and each branch of a
    measurement, therefore commutes with the communication: the
    configuration after it still has the communication, into the one the
    same move reaches from the communication's target. This is the
    confluence of private π-calculus channels (Philippou & Walker, "On
    confluence in the π-calculus", ICALP 1997; Groote & Sellink,
    "Confluence for process verification", TCS 1996). Every step consumes
    a prefix, so every run of these steps is finite.

    ``explore`` settles every configuration through the one table in which
    it interns its states (``_meet``, which says why that is sound), so a
    run may stop where an earlier run of the exploration went on.
    """
    skel, qvec, _sid = _settle(config.skel, config.qstate)
    return Configuration(skel, qvec)


def _meet(table: dict, run: list, skel: _Skeleton, qvec: StateVector) -> int | None:
    """The PLTS state of an entry of ``table`` under the ``canonical_key``
    of ``skel`` whose amplitudes equal ``qvec``'s up to global phase; or
    None, after noting this configuration as an entry of the run in
    progress, ``run``, whose sid ``explore`` fills in once it is interned.

    ``explore`` keeps one table per exploration, filed under
    ``canonical_key``, with an entry ``[state, sid]`` for each
    configuration it has settled and interned and for each at which a
    settle run met a private communication (``_settle``). This is the one
    place it decides that two configurations are one PLTS state: an equal
    key and amplitudes equal within ATOL up to global phase. A settled
    configuration and one before a private communication never share a
    key, since an equal key gives an equal ``_private_redex``, so the two
    kinds of entry never match each other.

    Before each private communication, a run probes its configuration
    here; on a hit it stops, and it takes the state the earlier run was
    interned as. The four branches of a teleport hop so meet after Bob's
    correction, and only the first runs the send on the next link and the
    next hop's gates; two paths of one exploration meet the same way. A
    hit is sound for three reasons:

    - Unitary steps keep distances. Every step of a run applies one gate
      to both states, or binds names and appends the same fresh qubits to
      both, or slices the same dead basis qubits out of both; each keeps
      the distance between the states, so two configurations within ATOL
      of each other stay so along their runs.
    - An equal key and state give the same run. The key fixes every
      component's term and what its free names are bound to, hidden
      channels up to renaming included, so it fixes which step goes next,
      which qubits it touches and who holds which channel; the two runs
      take the same steps and end in states that ``explore`` would merge.
    - Errors come from the first run. Had the skipped steps raised (an
      arity mismatch, an ownership violation or a cap), the earlier run
      would have raised the same error from the same configuration, and
      the exploration would have stopped before this run began.

    A miss only costs the run in full, so it never causes a merge, and a
    hit merges no more than interning the settled configurations would,
    beyond the tolerance by which that interning itself merges. The table
    is probed only before private communications and at the end of a run,
    not before every step, which costs more than it saves."""
    entries = table.setdefault(skel.key(), [])
    for met, sid in entries:
        # An entry with no sid yet was met by this very run.
        if sid is not None and qstate.states_equal_up_to_global_phase(met, qvec):
            return sid
    entry = [qvec, None]
    entries.append(entry)
    run.append(entry)
    return None


def _draw(outcomes: list, rng: random.Random) -> tuple:
    """The outcome ``(p, arg, branch)`` whose cumulative probability,
    summed in order, first reaches one draw from ``rng``; the last when
    rounding leaves it short."""
    draw = rng.random()
    cumulative = 0.0
    for o in outcomes:
        cumulative += o[0]
        if draw <= cumulative:
            return o
    return outcomes[-1]


def step(config: Configuration, alphabet: dict | None = None, *, rng: random.Random) -> list[Transition]:
    """The first enabled transition of ``config``, as a list of one, or
    ``[]`` when none is enabled: one step of ``run_sampled``.

    ``alphabet`` maps visible channel ids to the value tuples the
    environment may inject on them; without it, external inputs stay
    disabled (they simply do not fire).

    The order is fixed. The first component headed by a qubit allocation,
    a ``new`` or a gate takes its deterministic τ, which has priority (see
    ``settle``), one at a time, so ``run_sampled`` traces show each.
    Otherwise the moves of ``_moves`` come in their order, an input once
    per value tuple. The moves are enumerated lazily and only the
    transition taken is built, so a runtime error that only a later one
    would raise is not raised. A measurement with several outcomes draws
    one from ``rng`` (``_draw``) and builds only that branch; the
    transition is then ``drawn``. Each successor is built through a
    table of its own, never through the records of ``explore``
    (``_Skeleton``), so nothing is recorded on a skeleton.

    With no ``alphabet``, ``config`` keeps its first step (``_first_step``)
    once it is found, so runs from one configuration share the
    configurations of those steps: a step with one outcome, such as a
    deterministic τ, a private communication or a send, and the outcome
    list of a measurement with several, from which each run draws and
    builds its own branch. With no input enabled, the first step reads no
    ``rng`` and depends on ``config`` alone. A run under an alphabet
    neither reads nor keeps a step: an input the alphabet enables may come
    before a kept one in ``_moves``' order. A step that raises keeps
    nothing, so every run from ``config`` raises it again.
    """
    kept = None if alphabet else config._kept_step
    if kept is None:
        kept = _first_step(config.skel, config.qstate, alphabet or {})
        if kept is None:
            return []
        if not alphabet:
            config._kept_step = kept
    move, label, taken = kept
    if isinstance(taken, Transition):
        return [taken]
    p, arg, branch = _draw(taken, rng)
    successor = Configuration(*_follow(config.skel, config.qstate, move, {}, arg, branch))
    return [Transition(label, ((p, successor),), True)]


def _first_step(skel: _Skeleton, qvec: StateVector, alphabet: dict) -> tuple | None:
    """``(move, label, taken)`` for ``step``'s first enabled transition
    from ``skel`` at state ``qvec``, or None: the deterministic τ of
    ``_tau_move``, or else the first move of ``_moves`` with a transition
    under ``alphabet``. ``taken`` is the ``Transition`` built when it has
    one outcome, or else the measurement's outcome list to draw from. The
    successor is built through a throwaway table (``_follow``)."""
    tau = _tau_move(skel)
    for move in _moves(skel) if tau is None else (tau,):
        for label, outcomes in _move_transitions(move, qvec, skel.channel_names, alphabet):
            if len(outcomes) > 1:
                return move, label, outcomes
            ((p, arg, branch),) = outcomes
            successor = Configuration(*_follow(skel, qvec, move, {}, arg, branch))
            return move, label, Transition(label, ((p, successor),))
    return None


# The kinds of a move: a deterministic τ (``_tau_move``), and those of
# ``_moves``.
_TAU, _MEASURE, _SEND, _RECEIVE, _COMMUNICATE = "tau", "measure", "send", "receive", "communicate"


def _tau_move(skel: _Skeleton) -> tuple | None:
    """``(_TAU, i, head, env, op)`` for the first component ``i`` headed by
    a qubit allocation, a ``new`` or a gate, which has priority
    (``settle``), with the state operation ``op`` of its step
    (``_state_op``); or None."""
    for i, (head, env, _qubits, _hidden) in enumerate(skel.procs):
        if isinstance(head, _DETERMINISTIC_TAU):
            return _TAU, i, head, env, _state_op(skel, head, env)
    return None


def _move_transitions(move: tuple, qvec: StateVector, channel_names: dict, alphabet: dict) -> list:
    """The transitions of ``move``, a deterministic τ or a move of
    ``_moves``, at state ``qvec``, in ``step``'s order, as ``(label,
    outcomes)``, each outcome a ``(probability, arg, branch)`` of what
    ``_follow`` takes: a measurement's outcome bits and branch, or a
    received value tuple. The kernels that a label or a distribution reads
    run here; no successor is built."""
    kind = move[0]
    if kind is _MEASURE:
        return [(TAU, [(o.probability, o.result, o) for o in qstate.measure(qvec, move[4])])]
    if kind is _SEND:
        _kind, _i, _head, _env, cid, values, sent = move
        dm = qstate.reduced_density_matrix(qvec, sent) if sent else None
        return [(CommLabel("out", cid, channel_names[cid], values, dm), _ONE_OUTCOME)]
    if kind is _RECEIVE:
        cid = move[4]
        return [
            (CommLabel("in", cid, channel_names[cid], tuple(values)), [(1.0, values, None)])
            for values in alphabet.get(cid, ())
        ]
    return [(TAU, _ONE_OUTCOME)]


_ONE_OUTCOME = [(1.0, None, None)]  # of a send or a communication; never mutated


def _successor(skel: _Skeleton, move: tuple, arg=None) -> _Skeleton:
    """The skeleton ``move`` builds from ``skel`` with ``arg``
    (``_move_transitions``), before its ownership is checked and its dead
    qubits drop (``_follow``, which also applies the move's state
    operation). ``step``, ``settle`` and ``explore`` build every successor
    here. Allocation binds one fresh |0> qubit per binder and ``new`` one
    fresh channel, both through ``_bind``, as a receive binds its values."""
    kind = move[0]
    if kind is _COMMUNICATE:
        return _communicate(skel, move[1], move[2])
    i, head, env = move[1:4]
    heads = {i: (head.forced(arg) if kind is _MEASURE else head.continuation, env)}
    if isinstance(head, QbitAlloc):
        return _bind(skel, heads, i, head.binders, [_KET0] * len(head.binders))
    if isinstance(head, NewChannel):
        cid = skel.next_channel
        return _bind(skel, heads, i, (head.binder,), (ChannelVal(cid),), next_channel=cid + 1)
    if kind is _RECEIVE:
        return _bind(skel, heads, i, head.binders, arg)
    return _advance(skel, heads)


def _moves(skel: _Skeleton):
    """The moves of a skeleton with no deterministic τ head, in
    ``step``'s order, each as a tuple of what its transitions are built
    from; the part of a step that reads no amplitude, and raises any
    runtime error a head holds:

    - ``(_MEASURE, i, head, env, qids)``: component ``i`` forces the
      leftmost ``measure`` of its output, on qubits ``qids``;
    - ``(_SEND, i, head, env, cid, values, sent)``: an output on visible
      channel ``cid``, with label values ``values``, in which a
      ``QubitSlot`` stands for each qubit of ``sent``;
    - ``(_RECEIVE, i, head, env, cid)``: an input on visible channel
      ``cid``, which fires once per value tuple the alphabet holds for it;
    - ``(_COMMUNICATE, out_i, in_i)``: an internal communication between
      any two components sharing a channel, hidden or visible, after every
      move of a single component."""
    visible = skel.channel_names
    senders, receivers = [], []  # (index, channel id) ready to communicate
    for i, (head, env, _qubits, _hidden) in enumerate(skel.procs):
        if isinstance(head, Output):
            k = head.measure_index
            if k is not None:
                yield _MEASURE, i, head, env, _qubit_ids(skel, env, head.payload[k].names)
                continue
            cid = _channel_id(skel, env, head.channel)
            senders.append((i, cid))
            if cid in visible:
                label_values = []
                sent_qubits = []
                for v in _eval_slots(skel, env, head.payload):
                    if isinstance(v, QubitVal):
                        label_values.append(QubitSlot(len(sent_qubits)))
                        sent_qubits.append(v.qid)
                    elif isinstance(v, ChannelVal) and v.cid not in visible:
                        # The channel would stay hidden once sent, so no label can name it.
                        raise RuntimeProcessError(
                            f"cannot send a hidden channel on {head.channel!r} (scope extrusion)"
                        )
                    else:
                        label_values.append(v)
                yield _SEND, i, head, env, cid, tuple(label_values), sent_qubits
            continue

        if isinstance(head, Input):
            cid = _channel_id(skel, env, head.channel)
            receivers.append((i, cid))
            if cid in visible:
                yield _RECEIVE, i, head, env, cid
            continue

        raise TypeError(f"not a process term: {head!r}")

    for out_i, out_cid in senders:
        for in_i, in_cid in receivers:
            if in_cid == out_cid:
                yield _COMMUNICATE, out_i, in_i


# ---------------------------------------------------------------------------
# Canonical configuration keys (deduplication)
# ---------------------------------------------------------------------------

def canonical_key(config: Configuration | _Skeleton) -> tuple:
    """Discrete part of configuration identity: the number of qubits and
    the ``canonical_form`` of each component in order, with every free name
    replaced by the value it is bound to and hidden channels numbered by
    first occurrence across all components. It reads only skeleton fields,
    so a skeleton has the key of each of its configurations.
    Configurations with equal keys are merged when their amplitudes agree
    within ATOL up to global phase.

    Each component's form comes from its term's cached ``key_template``,
    whose slots are resolved through the component's environment and then
    ``bindings``; no term is walked once it has been keyed."""
    bindings = config.bindings
    visible = config.channel_names
    hidden: dict[int, str] = {}

    def resolve(name: str) -> str:
        if name not in bindings:
            return f"?{name}"
        v = bindings[name]
        if isinstance(v, QubitVal):
            return f"q{v.qid}"
        if isinstance(v, ChannelVal):
            if v.cid in visible:
                return f"C{v.cid}"
            return hidden.setdefault(v.cid, f"h{len(hidden)}")
        if isinstance(v, tuple):
            return "(" + ",".join(str(b) for b in v) + ")"
        return f"b{v}"

    forms = []
    for term, env, _qubits, _hidden in config.procs:
        fmt, slots = term.key_template
        forms.append(fmt.format(*[resolve(env.get(n, n)) for n in slots]))
    return (config.num_qubits, tuple(forms))


# ---------------------------------------------------------------------------
# Exploring skeletons: the amplitude-free work, done once per skeleton
# ---------------------------------------------------------------------------

def _settle(skel: _Skeleton, qvec: StateVector, table: dict | None = None, run: list | None = None) -> tuple:
    """``settle``'s run from ``skel`` at state ``qvec``, as ``(skeleton,
    state, None)``; or, with ``explore``'s ``table`` and the entries of the
    run in progress, ``(skeleton, state, sid)`` where the run stopped, once
    it meets before a private communication a configuration that an
    earlier run met, which was interned as the PLTS state ``sid``
    (``_meet``)."""
    while True:
        settling = _settling(skel)
        if settling is None:
            return skel, qvec, None
        move, built = settling
        if table is not None and move[0] is _COMMUNICATE:
            sid = _meet(table, run, skel, qvec)
            if sid is not None:
                return skel, qvec, sid
        skel, qvec = _follow(skel, qvec, move, built)


def _settling(skel: _Skeleton) -> tuple | None:
    """``skel.settling``, found on the first call: the deterministic τ of
    ``_tau_move``, or else the private communication of ``_private_redex``,
    with an empty table of what it builds; or None."""
    if skel.settling is _UNKNOWN:
        move = _tau_move(skel)
        if move is None:
            redex = _private_redex(skel)
            move = None if redex is None else (_COMMUNICATE, *redex)
        skel.settling = None if move is None else (move, {})
    return skel.settling


def _transitions(skel: _Skeleton, qvec: StateVector, alphabet: dict) -> list[tuple]:
    """The enabled transitions of the settled ``skel`` at state ``qvec``, in
    ``step``'s order, as ``(label, outcomes)`` with each outcome a
    ``(probability, (skeleton, state))``. The moves are enumerated once per
    skeleton (``_recorded_moves``), and the labels and distributions read
    the amplitudes each time (``_move_transitions``)."""
    names = skel.channel_names
    found = []
    for move, built in _recorded_moves(skel):
        for label, outcomes in _move_transitions(move, qvec, names, alphabet):
            found.append((label, [(p, _follow(skel, qvec, move, built, arg, o)) for p, arg, o in outcomes]))
    return found


def _follow(skel: _Skeleton, qvec: StateVector, move: tuple, built: dict, arg=None, branch=None) -> tuple:
    """``(skeleton, state)``: the successor of ``move`` from ``skel`` at
    state ``qvec`` with ``arg``, with its dead qubits that sit in a basis
    state removed and the others renumbered in their old order (see
    ``Configuration``). A measurement passes its branch as ``branch``, a
    measurement of ``qvec``: the components are built and checked first,
    so the branch is collapsed once, with the measured qubits that are now
    dead already sliced out.

    This is the one place a step touches the state. The move's state
    operation goes first, on every path: a deterministic τ's
    (``_applied``), or the received test qubits appended in order
    (``_received``). ``built`` maps the bits of each outcome, or each
    value tuple received with its test qubits blanked, to the skeleton
    the move built with it. Only an ``arg`` not met before builds a
    skeleton (``_successor``), which is checked for ownership
    (``Configuration.check_ownership``) before it is recorded. The
    amplitudes then decide which dead qubits drop (``_basis_drops``), and
    the skeleton left is built once per set of dropped qubits
    (``_compact``)."""
    kind = move[0]
    slot = arg
    if kind is _RECEIVE:
        qvec = _received(qvec, arg)
        slot = tuple(None if isinstance(v, TestQubit) else v for v in arg)
    elif kind is _TAU:
        qvec = _applied(move[4], qvec)
    pre = built.get(slot)
    if pre is None:
        pre = _successor(skel, move, arg)
        Configuration(pre, qvec).check_ownership()
        built[slot] = pre
    found = _basis_drops(qvec, pre.live, branch)
    if found is None:
        return pre, qvec
    qout, dropped = found
    if pre.drops is None:
        pre.drops = {}
    gone = frozenset(dropped)
    left = pre.drops.get(gone)
    if left is None:
        left = pre.drops[gone] = _compact(pre, dropped)
    return left, qout


def _recorded_moves(skel: _Skeleton):
    """``skel.moves``, for ``explore``'s ``_transitions``: each move of
    ``_moves`` with an empty table of what it builds, enumerated whole and
    recorded on the first call. When enumerating raises, nothing is
    recorded and the moves come lazily, so ``explore`` takes the moves
    before the failing one, and meets what they raise, first, as without
    records."""
    if skel.moves is None:
        try:
            skel.moves = [(move, {}) for move in _moves(skel)]
        except SemanticsError:
            return ((move, {}) for move in _moves(skel))
    return skel.moves


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
) -> PLTS:
    """Breadth-first closure of a configuration under its enabled
    transitions (``_moves``, in ``step``'s order).

    Configurations whose components (``Configuration.procs``) are equal in
    order up to bound-name renaming and hidden-channel bijection
    (``canonical_key``), and whose amplitudes agree within ATOL once their
    global phases are aligned, are merged (``_meet``).
    Since the components are held flat, how a composition was bracketed
    plays no part. Transitions with more than one outcome go through an
    intermediate probabilistic state.

    Every successor has already dropped its dead basis-state qubits (see
    ``Configuration``).

    Every configuration is settled (``settle``) before it is interned, the
    initial one and every successor, so no state of the PLTS has a
    deterministic τ step or a private communication: each state on a run
    of them is folded into the state that ends the run, its τ-confluent
    representative (Blom & van de Pol, "State space reduction by proving
    confluence", CAV 2002). Verdicts cannot change. Under the priority
    rule (``settle``) a configuration with a deterministic τ step has exactly
    one transition, a τ to one successor, and the run ends in a state
    without one. ``equiv._classify`` always puts such a state in its
    target's class, since every move of the state is the τ into that class,
    and ``equiv``'s offer probabilities pass through it to its target
    unchanged. Leaving the run out therefore changes no class, and since
    ``equiv`` numbers classes in an order such a state does not affect
    (``equiv._build_graph``), no witness either.

    A state with a private communication is branching bisimilar to its
    τ-successor, since the communication is confluent (see ``settle``), and
    ``equiv._classify`` puts it in that successor's class, since its
    signature is the successor's and the τ into it. Classes are still
    numbered in search order, which such a state can shift; no witness of
    the corpus, of the chain goldens or of the random pairs the
    differential tests check changed.

    One table per exploration holds the interned states and the
    configurations at which settle runs met a private communication, and
    one probe (``_meet``) decides both kinds of merge; it says why the PLTS
    is the one interning each settled configuration gives.

    The exploration starts at ``config``'s skeleton, and every skeleton it
    meets keeps the work that reads no amplitude (``_Skeleton``, which says
    why every kernel call and every PLTS is still the one a fresh skeleton
    gives). So explorations from one configuration share that work.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    alphabet = alphabet or {}
    states: list[PLTSState] = []
    edges: list[PLTSEdge] = []
    table: dict[tuple, list[list]] = {}  # canonical key -> [state, sid] (``_meet``)
    prob_cache: dict[tuple, int] = {}
    queue: list[int] = []

    def intern(skel: _Skeleton, qvec: StateVector) -> int:
        """Settle and intern the configuration ``skel`` at state ``qvec``."""
        run: list[list] = []
        skel, qvec, sid = _settle(skel, qvec, table, run)
        if sid is None:
            sid = _meet(table, run, skel, qvec)
        if sid is None:
            if len(states) >= max_states:
                raise ExplorationLimitError(max_states)
            sid = len(states)
            states.append(PLTSState(sid, "nondet", config=Configuration(skel, qvec)))
            queue.append(sid)
        for entry in run:
            entry[1] = sid
        return sid

    initial = intern(config.skel, config.qstate)
    head = 0
    while head < len(queue):
        sid = queue[head]
        head += 1
        current = states[sid].config
        transitions = _transitions(current.skel, current.qstate, alphabet)
        if not transitions:
            states[sid].terminal = True
            continue
        for label, outcomes in transitions:
            if len(outcomes) == 1:
                dst = intern(*outcomes[0][1])
                edges.append(PLTSEdge(sid, label, dst))
                continue
            dist = tuple((round(p, 12), intern(*child)) for p, child in outcomes)
            pid = prob_cache.get(dist)
            if pid is None:
                if len(states) >= max_states:
                    raise ExplorationLimitError(max_states)
                pid = len(states)
                states.append(PLTSState(pid, "prob"))
                prob_cache[dist] = pid
                for p, child in dist:
                    edges.append(PLTSEdge(pid, ProbLabel(p), child))
            edges.append(PLTSEdge(sid, label, pid))

    return PLTS(states, edges, initial)


def run_sampled(
    config: Configuration,
    seed: int,
    alphabet: dict | None = None,
    max_steps: int | None = None,
) -> list[TraceStep]:
    """One seeded path: at each step the first enabled transition in
    ``step``'s order, with a measurement of several outcomes resolved by
    one draw from a PRNG seeded with ``seed``, which ``step`` is given. It
    builds at most the configuration the path takes, one per step. Runs
    from one configuration with no ``alphabet`` read back the steps that an
    earlier such run kept on the configurations it passed (``step``), so
    their traces share every step up to the first drawn measurement, whose
    outcome list they share and whose branch each run draws and builds
    itself. Runs under an alphabet keep and read back nothing.

    A step's ``probability`` is the Born probability of the drawn branch,
    or None when the step had one outcome. Since the transitions the path
    does not take are never built, a runtime error that only one of them
    would raise is not raised here; ``explore`` (``cqp explore``) still
    reports it."""
    rng = random.Random(seed)
    trace: list[TraceStep] = []
    current = config
    while max_steps is None or len(trace) < max_steps:
        transitions = step(current, alphabet, rng=rng)
        if not transitions:
            break
        (t,) = transitions
        ((probability, current),) = t.outcomes
        trace.append(TraceStep(t.label, probability if t.drawn else None, current))
    return trace


# ---------------------------------------------------------------------------
# External-input alphabets
# ---------------------------------------------------------------------------

def input_used_channels(program: Program, entry_name: str) -> set[int]:
    """Entry channel positions on which the program can ever perform input.

    Each definition is summarized once, as the positions of the parameters
    that it or a process it calls inputs on, and a call composes the
    callee's summary with its arguments (Sharir & Pnueli, "Two approaches to
    interprocedural data flow analysis", 1981). Channels received as payload
    are not tracked.
    """

    @functools.cache
    def summary(name: str) -> frozenset[int]:
        d = program.definition(name)
        position = {p: i for i, p in enumerate(d.params)}
        return frozenset(position[n] for n in inputs(d.body) if n in position)

    def inputs(term: ProcessTerm) -> set[str]:
        """The free names of ``term`` on which it or a process it calls inputs."""
        if isinstance(term, Input):
            names = {term.channel}
        elif isinstance(term, Call):
            names = {term.args[i] for i in summary(term.process)}
        else:
            names = set()
        for binders, sub in scopes(term):
            names |= inputs(sub).difference(binders)
        return names

    return set(summary(entry_name))


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

"""Linear type checker enforcing no-cloning of qubits.

Every qubit name is consumed at most once along a control path: sending a
qubit consumes it, measuring it consumes it (the result is classical), and
passing it to another process consumes it. Gate actions use a qubit without
consuming it, so it can be transformed and then sent. Parallel composition
must split qubit names disjointly between its components. A qubit may be
silently dropped at ``0`` (affine at termination: discarding is not cloning).

Classical bits and channels are unrestricted. One input binder may receive
a payload of k > 1 bits; it then stands for those k ``Bit`` slots wherever
it is used: it adds k slots to a payload, a ``sigma[r]`` index must be
exactly two of them, and it is not a channel.

Process signatures are supplied externally, via sidecar comment lines:

    //: Alice : Qbit, ^[Qbit], ^[Bit,Bit]

where ``^[T,...]`` is a channel carrying the listed payload types. Channels
bound by ``(new c)`` carry no annotation; a call argument or an output
payload types one. Binders received on a channel not yet typed are guessed
``Bit``, and a payload holding a guess types no channel. So a definition is
checked in passes that keep the channel types found so far, until a pass
guesses nothing; once a pass types no new channel, a last pass lets guesses
type channels too. The verdict does not depend on component order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .qstate import standard_gate
from .syntax import (
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
    Pos,
    ProcessTerm,
    Program,
    QbitAlloc,
    Var,
    free_names,
)

# Diagnostic categories.
QUBIT_DUPLICATED = "QubitDuplicated"
QUBIT_USED_AFTER_SEND = "QubitUsedAfterSend"
UNBOUND_NAME = "UnboundName"
CHANNEL_ARITY_MISMATCH = "ChannelArityMismatch"
PAYLOAD_TYPE_MISMATCH = "PayloadTypeMismatch"


class SignatureError(Exception):
    """Malformed or missing process signature."""


@dataclass(frozen=True)
class QbitType:
    def __str__(self):
        return "Qbit"


@dataclass(frozen=True)
class BitType:
    def __str__(self):
        return "Bit"


@dataclass(frozen=True)
class ChannelType:
    payload: tuple = ()

    def __str__(self):
        return "^[" + ",".join(str(t) for t in self.payload) + "]"


QBIT = QbitType()
BIT = BitType()

TypeExpr = QbitType | BitType | ChannelType


# The type of a binder received on a channel not yet typed: a ``Bit``, told
# apart from ``BIT`` by identity only.
_GUESS = BitType()


class _ChanVar:
    """Placeholder for a ``(new c)`` channel whose payload is not yet known."""

    __slots__ = ("resolved",)

    def __init__(self):
        self.resolved: ChannelType | None = None

    def __str__(self):
        return str(self.resolved) if self.resolved else "^[?]"


@dataclass
class Binding:
    # A TypeExpr, a _ChanVar, or a tuple of k BIT slots for one binder that
    # packs a k-bit payload.
    type: object
    consumed: bool = False


TypeEnv = dict[str, Binding]


@dataclass(frozen=True)
class Diagnostic:
    category: str
    message: str
    line: int = 0
    col: int = 0

    def render(self, path: str = "<input>") -> str:
        return f"{path}:{self.line}:{self.col} {self.category} {self.message}"


# ---------------------------------------------------------------------------
# Signature sidecar parsing
# ---------------------------------------------------------------------------

_SIDE_RE = re.compile(r"^\s*//:\s*([a-zA-Z][a-zA-Z0-9_]*)\s*:(.*)$")


def _parse_type_list(text: str, line_no: int) -> tuple:
    """Parse ``Qbit, ^[Bit,Bit], ...`` into a tuple of TypeExpr."""
    tokens = re.findall(r"\^|\[|\]|,|Qbit|Bit|\S+", text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise SignatureError(
                f"line {line_no}: bad type syntax, expected {expected or 'a type'}, got {tok!r}"
            )
        pos[0] += 1
        return tok

    def one() -> TypeExpr:
        tok = peek()
        if tok == "Qbit":
            take()
            return QBIT
        if tok == "Bit":
            take()
            return BIT
        if tok == "^":
            take()
            take("[")
            inner = []
            if peek() != "]":
                inner.append(one())
                while peek() == ",":
                    take()
                    inner.append(one())
            take("]")
            return ChannelType(tuple(inner))
        raise SignatureError(f"line {line_no}: unknown type {tok!r}")

    types = []
    if peek() is not None:
        types.append(one())
        while peek() == ",":
            take()
            types.append(one())
    if peek() is not None:
        raise SignatureError(f"line {line_no}: trailing tokens in signature")
    return tuple(types)


def parse_signatures(source: str) -> dict[str, tuple]:
    """Collect ``//: Name : T, ...`` sidecar lines from a source file."""
    sigs: dict[str, tuple] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        m = _SIDE_RE.match(line)
        if not m:
            continue
        name = m.group(1)
        if name in sigs:
            raise SignatureError(f"line {line_no}: duplicate signature for {name!r}")
        sigs[name] = _parse_type_list(m.group(2).strip(), line_no)
    return sigs


# ---------------------------------------------------------------------------
# Checker
# ---------------------------------------------------------------------------

def _resolve(t):
    return t.resolved if isinstance(t, _ChanVar) and t.resolved is not None else t


def _show(t) -> str:
    return "[" + ",".join(map(str, t)) + "]" if isinstance(t, tuple) else str(t)


def _copy_env(env: TypeEnv) -> TypeEnv:
    # Shallow-copies bindings; unresolved channel variables stay shared so
    # inference in one parallel branch is visible in the other.
    return {name: Binding(b.type, b.consumed) for name, b in env.items()}


class _Checker:
    def __init__(self, signatures: dict[str, tuple], known: dict | None = None, final=True):
        self.signatures = signatures
        self.diagnostics: list[Diagnostic] = []
        # Each ``(new c)`` channel, by ``id`` of its NewChannel term, kept
        # across passes with the type that earlier passes found.
        self.known = {} if known is None else known
        self.final = final  # whether a guessed payload may type a channel
        self.guessed = False

    def report(self, category: str, message: str, pos: Pos | None):
        line, col = pos or (0, 0)
        self.diagnostics.append(Diagnostic(category, message, line, col))

    def use_qubit(self, name: str, env: TypeEnv, pos: Pos | None, consume: bool, what: str):
        b = env.get(name)
        if b is None:
            self.report(UNBOUND_NAME, f"{name!r} is not bound", pos)
            return
        if not isinstance(_resolve(b.type), QbitType):
            self.report(PAYLOAD_TYPE_MISMATCH, f"{name!r} is not a qubit", pos)
            return
        if b.consumed:
            self.report(
                QUBIT_USED_AFTER_SEND, f"qubit {name!r} was already consumed before {what}", pos
            )
            return
        if consume:
            b.consumed = True

    def expr_slots(self, e: Expression, env: TypeEnv) -> list:
        """Payload slot types contributed by one expression."""
        if isinstance(e, BitLit):
            return [BIT]
        if isinstance(e, Var):
            b = env.get(e.name)
            if b is None:
                self.report(UNBOUND_NAME, f"{e.name!r} is not bound", e.pos)
                return [BIT]
            t = _resolve(b.type)
            if isinstance(t, QbitType):
                self.use_qubit(e.name, env, e.pos, consume=True, what="sending it")
                return [QBIT]
            return list(t) if isinstance(t, tuple) else [t]
        if isinstance(e, MeasureExpr):
            for n in e.names:
                self.use_qubit(n, env, e.pos, consume=True, what="measuring it")
            return [BIT] * len(e.names)
        raise TypeError(f"not an expression: {e!r}")

    def channel_of(self, name: str, env: TypeEnv, pos: Pos | None):
        """Returns the Binding for a channel-typed name, or None after reporting."""
        b = env.get(name)
        if b is None:
            self.report(UNBOUND_NAME, f"{name!r} is not bound", pos)
            return None
        t = _resolve(b.type)
        if isinstance(t, (QbitType, BitType, tuple)):
            self.report(PAYLOAD_TYPE_MISMATCH, f"{name!r} is not a channel", pos)
            return None
        return b

    def check(self, term: ProcessTerm, env: TypeEnv) -> TypeEnv:
        if isinstance(term, Nil):
            return env

        if isinstance(term, Input):
            b = self.channel_of(term.channel, env, term.pos)
            ctype = _resolve(b.type) if b else None
            if isinstance(ctype, ChannelType):
                carried = ctype.payload
                if len(term.binders) == len(carried):
                    for binder, t in zip(term.binders, carried):
                        env[binder] = Binding(t)
                elif len(term.binders) == 1 and len(carried) > 1 and all(
                    isinstance(t, BitType) for t in carried
                ):
                    # One binder packs a multi-bit classical payload.
                    env[term.binders[0]] = Binding(carried)
                else:
                    self.report(
                        CHANNEL_ARITY_MISMATCH,
                        f"channel {term.channel!r} carries {len(carried)} value(s), "
                        f"input binds {len(term.binders)}",
                        term.pos,
                    )
                    for binder in term.binders:
                        env[binder] = Binding(BIT)
            else:
                self.guessed = True
                for binder in term.binders:
                    env[binder] = Binding(_GUESS)
            return self.check(term.continuation, env)

        if isinstance(term, Output):
            slots = []
            for e in term.payload:
                slots.extend(self.expr_slots(e, env))
            b = self.channel_of(term.channel, env, term.pos)
            if b is not None:
                t = b.type
                if isinstance(t, _ChanVar) and t.resolved is None:
                    if self.final or not any(s is _GUESS for s in slots):
                        t.resolved = ChannelType(tuple(slots))
                    else:
                        self.guessed = True
                else:
                    ctype = _resolve(t)
                    if len(ctype.payload) != len(slots):
                        self.report(
                            CHANNEL_ARITY_MISMATCH,
                            f"channel {term.channel!r} carries {len(ctype.payload)} value(s), "
                            f"output supplies {len(slots)}",
                            term.pos,
                        )
                    else:
                        for i, (want, got) in enumerate(zip(ctype.payload, slots)):
                            if _resolve(want) != got:
                                self.report(
                                    PAYLOAD_TYPE_MISMATCH,
                                    f"payload slot {i} of {term.channel!r} expects {want}, got {got}",
                                    term.pos,
                                )
            return self.check(term.continuation, env)

        if isinstance(term, GateAction):
            seen = set()
            for t in term.targets:
                if t in seen:
                    self.report(
                        QUBIT_DUPLICATED, f"qubit {t!r} listed twice in one gate action", term.pos
                    )
                    continue
                seen.add(t)
                self.use_qubit(t, env, term.pos, consume=False, what="a gate action")
            if isinstance(term.gate, FixedGate):
                arity = standard_gate(term.gate.name).arity
                if len(term.targets) != arity:
                    self.report(
                        PAYLOAD_TYPE_MISMATCH,
                        f"gate {term.gate.name} acts on {arity} qubit(s), got {len(term.targets)}",
                        term.pos,
                    )
            else:
                if len(term.targets) != 1:
                    self.report(
                        PAYLOAD_TYPE_MISMATCH,
                        f"sigma correction acts on 1 qubit, got {len(term.targets)}",
                        term.pos,
                    )
                idx = env.get(term.gate.index_var)
                if idx is None:
                    self.report(UNBOUND_NAME, f"{term.gate.index_var!r} is not bound", term.pos)
                elif (got := _resolve(idx.type)) != (BIT, BIT):
                    self.report(
                        PAYLOAD_TYPE_MISMATCH,
                        f"sigma index {term.gate.index_var!r} must hold two bits, got {_show(got)}",
                        term.pos,
                    )
            return self.check(term.continuation, env)

        if isinstance(term, QbitAlloc):
            for binder in term.binders:
                env[binder] = Binding(QBIT)
            return self.check(term.continuation, env)

        if isinstance(term, NewChannel):
            env[term.binder] = Binding(self.known.setdefault(id(term), _ChanVar()))
            return self.check(term.continuation, env)

        if isinstance(term, Parallel):
            left_free = free_names(term.left)
            right_free = free_names(term.right)
            for name in sorted(left_free & right_free):
                b = env.get(name)
                if b is not None and isinstance(_resolve(b.type), QbitType):
                    self.report(
                        QUBIT_DUPLICATED,
                        f"qubit {name!r} is shared between parallel components",
                        term.pos,
                    )
            env_l = self.check(term.left, _copy_env(env))
            env_r = self.check(term.right, _copy_env(env))
            for name, b in env.items():
                consumed_l = env_l[name].consumed if name in env_l else False
                consumed_r = env_r[name].consumed if name in env_r else False
                b.consumed = b.consumed or consumed_l or consumed_r
            return env

        if isinstance(term, Call):
            sig = self.signatures.get(term.process)
            if sig is None:
                raise SignatureError(f"no signature for process {term.process!r}")
            if len(sig) != len(term.args):
                self.report(
                    CHANNEL_ARITY_MISMATCH,
                    f"{term.process!r} expects {len(sig)} argument(s), got {len(term.args)}",
                    term.pos,
                )
                return env
            for arg, want in zip(term.args, sig):
                b = env.get(arg)
                if b is None:
                    self.report(UNBOUND_NAME, f"{arg!r} is not bound", term.pos)
                    continue
                if isinstance(want, QbitType):
                    self.use_qubit(arg, env, term.pos, consume=True, what="passing it on")
                    continue
                t = b.type
                if isinstance(want, ChannelType) and isinstance(t, _ChanVar) and t.resolved is None:
                    t.resolved = want
                    continue
                got = _resolve(t)
                if got != want:
                    self.report(
                        PAYLOAD_TYPE_MISMATCH,
                        f"argument {arg!r} of {term.process!r} expects {want}, got {_show(got)}",
                        term.pos,
                    )
            return env

        raise TypeError(f"not a process term: {term!r}")


def typecheck_program(program: Program, signatures: dict[str, tuple]) -> list[Diagnostic]:
    """Check every definition against its signature; empty list iff well-typed."""
    for d in program.definitions:
        sig = signatures.get(d.name)
        if sig is None:
            raise SignatureError(f"no signature for process {d.name!r}")
        if len(sig) != len(d.params):
            raise SignatureError(
                f"signature for {d.name!r} lists {len(sig)} type(s) "
                f"but the definition has {len(d.params)} parameter(s)"
            )
    diagnostics = []
    for d in program.definitions:
        known: dict[int, _ChanVar] = {}
        final = False
        while True:
            typed = sum(v.resolved is not None for v in known.values())
            checker = _Checker(signatures, known, final)
            checker.check(d.body, {p: Binding(t) for p, t in zip(d.params, signatures[d.name])})
            if final or not checker.guessed:
                break
            final = sum(v.resolved is not None for v in known.values()) == typed
        diagnostics += checker.diagnostics
    return diagnostics

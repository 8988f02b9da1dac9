"""Abstract syntax and parser for the process language.

Surface syntax (files use extension ``.cqp``, UTF-8, ``//`` line comments):

    program := def+
    def     := NAME "(" params? ")" "=" proc
    proc    := "0"
             | NAME "?" "[" names "]" "." proc
             | NAME "!" "[" exprs "]" "." proc
             | "{" names "*=" gate "}" "." proc
             | "(" "qbit" names ")" proc
             | "(" "new" NAME ")" proc
             | "(" proc "|" proc ")"
             | NAME "(" names? ")"
    gate    := "H" | "X" | "Z" | "CNot" | "I" | "sigma" "[" NAME "]"
    expr    := NAME | "0" | "1" | "measure" names | "(" exprs ")"

``measure`` greedily takes every following comma-separated name, matching
the usual rendering ``out![measure u,q]``. Calls may not be recursive
(directly or mutually); programs are finite unfoldings by construction.

Lines starting with ``//:`` are type-signature sidecars; the parser skips
them like any comment and the type checker reads them separately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

GATE_NAMES = {"I", "X", "Z", "H", "CNot"}
NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")


class ParseError(Exception):
    """Lexical or syntax error with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Pos = tuple[int, int]


def _pos_field() -> Pos | None:
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Expression:
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Var(Expression):
    name: str = ""


@dataclass(frozen=True)
class BitLit(Expression):
    value: int = 0


@dataclass(frozen=True)
class MeasureExpr(Expression):
    names: tuple[str, ...] = ()


@dataclass(frozen=True)
class TupleExpr(Expression):
    items: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class GateRef:
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class FixedGate(GateRef):
    name: str = ""


@dataclass(frozen=True)
class SigmaGate(GateRef):
    """Correction gate selected at runtime by a classical variable."""

    index_var: str = ""


@dataclass(frozen=True)
class ProcessTerm:
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Nil(ProcessTerm):
    pass


@dataclass(frozen=True)
class Input(ProcessTerm):
    channel: str = ""
    binders: tuple[str, ...] = ()
    continuation: ProcessTerm = None


@dataclass(frozen=True)
class Output(ProcessTerm):
    channel: str = ""
    payload: tuple[Expression, ...] = ()
    continuation: ProcessTerm = None


@dataclass(frozen=True)
class GateAction(ProcessTerm):
    targets: tuple[str, ...] = ()
    gate: GateRef = None
    continuation: ProcessTerm = None


@dataclass(frozen=True)
class QbitAlloc(ProcessTerm):
    binders: tuple[str, ...] = ()
    continuation: ProcessTerm = None


@dataclass(frozen=True)
class NewChannel(ProcessTerm):
    binder: str = ""
    continuation: ProcessTerm = None


@dataclass(frozen=True)
class Parallel(ProcessTerm):
    left: ProcessTerm = None
    right: ProcessTerm = None


@dataclass(frozen=True)
class Call(ProcessTerm):
    process: str = ""
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class ProcessDef:
    name: str
    params: tuple[str, ...]
    body: ProcessTerm
    pos: Pos | None = _pos_field()


@dataclass(frozen=True)
class Program:
    definitions: tuple[ProcessDef, ...]

    def definition(self, name: str) -> ProcessDef:
        for d in self.definitions:
            if d.name == name:
                return d
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # NAME, BIT, or the punctuation itself
    text: str
    line: int
    col: int


_PUNCT = ("*=", "?", "!", ".", ",", "|", "=", "(", ")", "[", "]", "{", "}")


def _lex(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < len(source) and source[i] != "\n":
                i += 1
            continue
        if ch in "01" and not (i + 1 < len(source) and source[i + 1].isalnum()):
            tokens.append(_Token("BIT", ch, line, col))
            i += 1
            col += 1
            continue
        m = NAME_RE.match(source, i)
        if m:
            text = m.group(0)
            tokens.append(_Token("NAME", text, line, col))
            i = m.end()
            col += len(text)
            continue
        for p in _PUNCT:
            if source.startswith(p, i):
                tokens.append(_Token(p, p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def _peek(self, offset: int = 0) -> _Token | None:
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else None

    def _here(self) -> Pos:
        tok = self._peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            return (last.line, last.col) if last else (1, 1)
        return (tok.line, tok.col)

    def _error(self, message: str):
        line, col = self._here()
        raise ParseError(message, line, col)

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.kind != kind:
            got = tok.text if tok else "end of input"
            self._error(f"expected {kind!r}, got {got!r}")
        self.i += 1
        return tok

    def _at(self, kind: str, text: str | None = None) -> bool:
        tok = self._peek()
        return tok is not None and tok.kind == kind and (text is None or tok.text == text)

    def parse_program(self) -> Program:
        defs = []
        while self._peek() is not None:
            defs.append(self._definition())
        if not defs:
            self._error("empty program")
        return Program(tuple(defs))

    def _definition(self) -> ProcessDef:
        pos = self._here()
        name = self._expect("NAME").text
        self._expect("(")
        params: list[str] = []
        if not self._at(")"):
            params = self._name_list()
        self._expect(")")
        self._expect("=")
        body = self._proc()
        if len(set(params)) != len(params):
            raise ParseError(f"duplicate parameter in definition of {name!r}", *pos)
        return ProcessDef(name, tuple(params), body, pos=pos)

    def _name_list(self) -> list[str]:
        names = [self._expect("NAME").text]
        while self._at(","):
            self.i += 1
            names.append(self._expect("NAME").text)
        return names

    def _proc(self) -> ProcessTerm:
        pos = self._here()
        if self._at("BIT", "0"):
            self.i += 1
            return Nil(pos=pos)
        if self._at("{"):
            return self._action(pos)
        if self._at("("):
            return self._paren_proc(pos)
        if self._at("NAME"):
            nxt = self._peek(1)
            if nxt is not None and nxt.kind == "?":
                return self._input(pos)
            if nxt is not None and nxt.kind == "!":
                return self._output(pos)
            if nxt is not None and nxt.kind == "(":
                return self._call(pos)
            self._error("expected '?', '!' or '(' after name in process position")
        self._error("expected a process")

    def _input(self, pos: Pos) -> Input:
        channel = self._expect("NAME").text
        self._expect("?")
        self._expect("[")
        binders = self._name_list()
        self._expect("]")
        self._expect(".")
        cont = self._proc()
        if len(set(binders)) != len(binders):
            raise ParseError("duplicate binder in input", *pos)
        return Input(channel=channel, binders=tuple(binders), continuation=cont, pos=pos)

    def _output(self, pos: Pos) -> Output:
        channel = self._expect("NAME").text
        self._expect("!")
        self._expect("[")
        payload = [self._expr()]
        while self._at(","):
            self.i += 1
            payload.append(self._expr())
        self._expect("]")
        self._expect(".")
        cont = self._proc()
        return Output(channel=channel, payload=tuple(payload), continuation=cont, pos=pos)

    def _expr(self) -> Expression:
        pos = self._here()
        if self._at("BIT"):
            return BitLit(value=int(self._expect("BIT").text), pos=pos)
        if self._at("NAME", "measure"):
            self.i += 1
            # Greedy over names, but a comma followed by a non-name belongs
            # to the enclosing payload list.
            names = [self._expect("NAME").text]
            while self._at(",") and (
                (nxt := self._peek(1)) is not None and nxt.kind == "NAME"
            ):
                self.i += 1
                names.append(self._expect("NAME").text)
            if len(set(names)) != len(names):
                raise ParseError("measure names must be distinct", *pos)
            return MeasureExpr(names=tuple(names), pos=pos)
        if self._at("("):
            self.i += 1
            items = [self._expr()]
            while self._at(","):
                self.i += 1
                items.append(self._expr())
            self._expect(")")
            if len(items) == 1:
                return items[0]  # plain grouping, not a 1-tuple
            return TupleExpr(items=tuple(items), pos=pos)
        if self._at("NAME"):
            return Var(name=self._expect("NAME").text, pos=pos)
        self._error("expected an expression")

    def _action(self, pos: Pos) -> GateAction:
        self._expect("{")
        targets = self._name_list()
        self._expect("*=")
        gate = self._gate()
        self._expect("}")
        self._expect(".")
        cont = self._proc()
        if len(set(targets)) != len(targets):
            raise ParseError("duplicate gate target", *pos)
        return GateAction(targets=tuple(targets), gate=gate, continuation=cont, pos=pos)

    def _gate(self) -> GateRef:
        pos = self._here()
        tok = self._expect("NAME")
        if tok.text == "sigma":
            self._expect("[")
            var = self._expect("NAME").text
            self._expect("]")
            return SigmaGate(index_var=var, pos=pos)
        if tok.text not in GATE_NAMES:
            raise ParseError(f"unknown gate {tok.text!r}", tok.line, tok.col)
        return FixedGate(name=tok.text, pos=pos)

    def _paren_proc(self, pos: Pos) -> ProcessTerm:
        self._expect("(")
        if self._at("NAME", "qbit"):
            self.i += 1
            binders = self._name_list()
            self._expect(")")
            cont = self._proc()
            if len(set(binders)) != len(binders):
                raise ParseError("duplicate qbit binder", *pos)
            return QbitAlloc(binders=tuple(binders), continuation=cont, pos=pos)
        if self._at("NAME", "new"):
            self.i += 1
            binder = self._expect("NAME").text
            self._expect(")")
            cont = self._proc()
            return NewChannel(binder=binder, continuation=cont, pos=pos)
        proc = self._proc()
        while self._at("|"):
            self.i += 1
            right = self._proc()
            proc = Parallel(left=proc, right=right, pos=pos)
        self._expect(")")
        return proc

    def _call(self, pos: Pos) -> Call:
        name = self._expect("NAME").text
        self._expect("(")
        args: list[str] = []
        if not self._at(")"):
            args = self._name_list()
        self._expect(")")
        return Call(process=name, args=tuple(args), pos=pos)


def _check_calls(program: Program):
    by_name: dict[str, ProcessDef] = {}
    for d in program.definitions:
        if d.name in by_name:
            raise ParseError(f"duplicate definition of {d.name!r}", *(d.pos or (1, 1)))
        by_name[d.name] = d

    calls: dict[str, set[str]] = {d.name: set() for d in program.definitions}

    def walk(owner: str, term: ProcessTerm):
        if isinstance(term, Call):
            target = by_name.get(term.process)
            if target is None:
                raise ParseError(f"call to unknown process {term.process!r}", *(term.pos or (1, 1)))
            if len(term.args) != len(target.params):
                raise ParseError(
                    f"{term.process!r} takes {len(target.params)} argument(s), got {len(term.args)}",
                    *(term.pos or (1, 1)),
                )
            calls[owner].add(term.process)
        elif isinstance(term, Parallel):
            walk(owner, term.left)
            walk(owner, term.right)
        elif isinstance(term, (Input, Output, GateAction, QbitAlloc, NewChannel)):
            walk(owner, term.continuation)

    for d in program.definitions:
        walk(d.name, d.body)

    # Reject recursion cycles so every program unfolds finitely.
    seen_done: set[str] = set()
    in_stack: set[str] = set()

    def visit(name: str):
        if name in seen_done:
            return
        if name in in_stack:
            raise ParseError(f"recursive call cycle through {name!r}", *(by_name[name].pos or (1, 1)))
        in_stack.add(name)
        for callee in sorted(calls[name]):
            visit(callee)
        in_stack.discard(name)
        seen_done.add(name)

    for d in program.definitions:
        visit(d.name)


def parse_program(source: str) -> Program:
    """Parse a program; raises ParseError with line/column on failure."""
    program = _Parser(_lex(source)).parse_program()
    _check_calls(program)
    return program


def parse_process(source: str) -> ProcessTerm:
    """Parse a single process term (convenience for tests and contexts)."""
    parser = _Parser(_lex(source))
    term = parser._proc()
    if parser._peek() is not None:
        parser._error("trailing input after process")
    return term


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def pretty_expr(e: Expression) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BitLit):
        return str(e.value)
    if isinstance(e, MeasureExpr):
        return "measure " + ",".join(e.names)
    if isinstance(e, TupleExpr):
        return "(" + pretty_payload(e.items) + ")"
    raise TypeError(f"not an expression: {e!r}")


def pretty_payload(exprs) -> str:
    """Render a comma-separated expression list; a measure expression in a
    non-final position is parenthesized so it cannot swallow the next name."""
    parts = []
    for i, e in enumerate(exprs):
        rendered = pretty_expr(e)
        if isinstance(e, MeasureExpr) and i + 1 < len(exprs):
            rendered = f"({rendered})"
        parts.append(rendered)
    return ", ".join(parts)


def pretty_gate(g: GateRef) -> str:
    if isinstance(g, FixedGate):
        return g.name
    if isinstance(g, SigmaGate):
        return f"sigma[{g.index_var}]"
    raise TypeError(f"not a gate: {g!r}")


def pretty_print(term: ProcessTerm) -> str:
    """Render a term in the surface syntax; parses back to the same AST."""
    if isinstance(term, Nil):
        return "0"
    if isinstance(term, Input):
        return f"{term.channel}?[{','.join(term.binders)}] . {pretty_print(term.continuation)}"
    if isinstance(term, Output):
        return (
            f"{term.channel}![{pretty_payload(term.payload)}]"
            f" . {pretty_print(term.continuation)}"
        )
    if isinstance(term, GateAction):
        return (
            f"{{{','.join(term.targets)} *= {pretty_gate(term.gate)}}}"
            f" . {pretty_print(term.continuation)}"
        )
    if isinstance(term, QbitAlloc):
        return f"(qbit {','.join(term.binders)}) {pretty_print(term.continuation)}"
    if isinstance(term, NewChannel):
        return f"(new {term.binder}) {pretty_print(term.continuation)}"
    if isinstance(term, Parallel):
        return f"({pretty_print(term.left)} | {pretty_print(term.right)})"
    if isinstance(term, Call):
        return f"{term.process}({','.join(term.args)})"
    raise TypeError(f"not a process term: {term!r}")


def pretty_print_program(program: Program) -> str:
    return "\n".join(
        f"{d.name}({','.join(d.params)}) = {pretty_print(d.body)}" for d in program.definitions
    )


# ---------------------------------------------------------------------------
# Name handling
# ---------------------------------------------------------------------------

def _expr_names(e: Expression) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset({e.name})
    if isinstance(e, BitLit):
        return frozenset()
    if isinstance(e, MeasureExpr):
        return frozenset(e.names)
    if isinstance(e, TupleExpr):
        return frozenset().union(*(_expr_names(x) for x in e.items)) if e.items else frozenset()
    raise TypeError(f"not an expression: {e!r}")


def free_names(term: ProcessTerm) -> frozenset[str]:
    """Free value names of a term; process names in calls are not included."""
    if isinstance(term, Nil):
        return frozenset()
    if isinstance(term, Input):
        return frozenset({term.channel}) | (free_names(term.continuation) - frozenset(term.binders))
    if isinstance(term, Output):
        names = frozenset({term.channel}) | free_names(term.continuation)
        for e in term.payload:
            names |= _expr_names(e)
        return names
    if isinstance(term, GateAction):
        names = frozenset(term.targets) | free_names(term.continuation)
        if isinstance(term.gate, SigmaGate):
            names |= {term.gate.index_var}
        return names
    if isinstance(term, QbitAlloc):
        return free_names(term.continuation) - frozenset(term.binders)
    if isinstance(term, NewChannel):
        return free_names(term.continuation) - frozenset({term.binder})
    if isinstance(term, Parallel):
        return free_names(term.left) | free_names(term.right)
    if isinstance(term, Call):
        return frozenset(term.args)
    raise TypeError(f"not a process term: {term!r}")


def fresh_name(base: str, avoid) -> str:
    """Pick a name not in ``avoid``, derived from ``base`` by numeric suffix."""
    if base not in avoid:
        return base
    root = base.split("_")[0] if base.rsplit("_", 1)[-1].isdigit() else base
    k = 1
    while f"{root}_{k}" in avoid:
        k += 1
    return f"{root}_{k}"


def _subst_expr(e: Expression, mapping: dict[str, str]) -> Expression:
    if isinstance(e, Var):
        return Var(name=mapping.get(e.name, e.name), pos=e.pos)
    if isinstance(e, BitLit):
        return e
    if isinstance(e, MeasureExpr):
        return MeasureExpr(names=tuple(mapping.get(n, n) for n in e.names), pos=e.pos)
    if isinstance(e, TupleExpr):
        return TupleExpr(items=tuple(_subst_expr(x, mapping) for x in e.items), pos=e.pos)
    raise TypeError(f"not an expression: {e!r}")


def substitute(term: ProcessTerm, mapping: dict[str, str]) -> ProcessTerm:
    """Capture-avoiding renaming of free names; binders alpha-rename on clash."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    if not mapping:
        return term

    def rebind(binders: tuple[str, ...], cont: ProcessTerm):
        """Drop shadowed entries and alpha-rename binders that would capture."""
        inner = {k: v for k, v in mapping.items() if k not in binders}
        targets = set(inner.values())
        if not (targets & set(binders)):
            return binders, substitute(cont, inner)
        avoid = targets | set(binders) | free_names(cont)
        renaming = {}
        new_binders = []
        for b in binders:
            if b in targets:
                nb = fresh_name(b, avoid)
                avoid.add(nb)
                renaming[b] = nb
                new_binders.append(nb)
            else:
                new_binders.append(b)
        cont = substitute(cont, renaming)
        return tuple(new_binders), substitute(cont, inner)

    if isinstance(term, Nil):
        return term
    if isinstance(term, Input):
        binders, cont = rebind(term.binders, term.continuation)
        return Input(
            channel=mapping.get(term.channel, term.channel),
            binders=binders,
            continuation=cont,
            pos=term.pos,
        )
    if isinstance(term, Output):
        return Output(
            channel=mapping.get(term.channel, term.channel),
            payload=tuple(_subst_expr(e, mapping) for e in term.payload),
            continuation=substitute(term.continuation, mapping),
            pos=term.pos,
        )
    if isinstance(term, GateAction):
        gate = term.gate
        if isinstance(gate, SigmaGate):
            gate = SigmaGate(index_var=mapping.get(gate.index_var, gate.index_var), pos=gate.pos)
        return GateAction(
            targets=tuple(mapping.get(t, t) for t in term.targets),
            gate=gate,
            continuation=substitute(term.continuation, mapping),
            pos=term.pos,
        )
    if isinstance(term, QbitAlloc):
        binders, cont = rebind(term.binders, term.continuation)
        return QbitAlloc(binders=binders, continuation=cont, pos=term.pos)
    if isinstance(term, NewChannel):
        binders, cont = rebind((term.binder,), term.continuation)
        return NewChannel(binder=binders[0], continuation=cont, pos=term.pos)
    if isinstance(term, Parallel):
        return Parallel(
            left=substitute(term.left, mapping),
            right=substitute(term.right, mapping),
            pos=term.pos,
        )
    if isinstance(term, Call):
        return Call(
            process=term.process,
            args=tuple(mapping.get(a, a) for a in term.args),
            pos=term.pos,
        )
    raise TypeError(f"not a process term: {term!r}")


def canonical_form(term: ProcessTerm, free) -> str:
    """Serialize ``term`` so that terms equal up to renaming of bound names,
    and only those, get the same string.

    Binders become ``v1``, ``v2``, ... in the order the walk meets them, so
    a bound name is known by its binder's position. Every free name ``n``
    becomes ``free(n)``; the caller picks tokens that cannot collide with
    the binder tokens or with literals (``b0``, ``b1``), and may map two
    free names to one token to identify them. Input and qubit binders are
    counted, so ``c?[x,y] . 0`` and ``c?[x] . 0`` differ.
    """
    counter = [0]

    def name(n: str, env: dict) -> str:
        return env[n] if n in env else free(n)

    def expr(e: Expression, env: dict) -> str:
        if isinstance(e, Var):
            return name(e.name, env)
        if isinstance(e, BitLit):
            return f"b{e.value}"
        if isinstance(e, MeasureExpr):
            return "m(" + ",".join(name(n, env) for n in e.names) + ")"
        if isinstance(e, TupleExpr):
            return "(" + ",".join(expr(x, env) for x in e.items) + ")"
        raise TypeError(f"not an expression: {e!r}")

    def bind(binders, env: dict) -> dict:
        env = dict(env)
        for b in binders:
            counter[0] += 1
            env[b] = f"v{counter[0]}"
        return env

    def ser(t: ProcessTerm, env: dict) -> str:
        if isinstance(t, Nil):
            return "0"
        if isinstance(t, Input):
            inner = bind(t.binders, env)
            return f"in({name(t.channel, env)};{len(t.binders)};{ser(t.continuation, inner)})"
        if isinstance(t, Output):
            payload = ",".join(expr(e, env) for e in t.payload)
            return f"out({name(t.channel, env)};{payload};{ser(t.continuation, env)})"
        if isinstance(t, GateAction):
            gate = (
                t.gate.name
                if isinstance(t.gate, FixedGate)
                else f"sigma[{name(t.gate.index_var, env)}]"
            )
            targets = ",".join(name(x, env) for x in t.targets)
            return f"act({targets};{gate};{ser(t.continuation, env)})"
        if isinstance(t, QbitAlloc):
            inner = bind(t.binders, env)
            return f"qbit({len(t.binders)};{ser(t.continuation, inner)})"
        if isinstance(t, NewChannel):
            return f"new({ser(t.continuation, bind((t.binder,), env))})"
        if isinstance(t, Parallel):
            return f"par({ser(t.left, env)}|{ser(t.right, env)})"
        if isinstance(t, Call):
            return f"call({t.process};{','.join(name(a, env) for a in t.args)})"
        raise TypeError(f"not a process term: {t!r}")

    return ser(term, {})

"""Parser for the tiny-ML input format: a qualifier set followed by val
bindings, plus a parser for printed types, which reads the JSON output back
and the constant table's schemes (`syntax.PRIM_SCHEMES`).

A file looks like::

    Qualifiers { v >= 0, v <= 0 }

    val mul = \\x . * x x
    val neg = \\x. - x

Qualifiers and printed refinements are read by one precedence grammar.
Inside qualifiers ``v`` is the reserved value-variable spelling.  Line
comments start with ``--``.  Every binder is made globally unique during
parsing (names only change when they would collide).
"""

from __future__ import annotations

from typing import Callable, Collection, NamedTuple, Union

from .syntax import (
    App,
    Arm,
    BaseArm,
    BOOL,
    BoolConst,
    Const,
    FALSE,
    FAnd,
    FAtom,
    FBoolVar,
    FIff,
    Formula,
    FunArm,
    INT,
    IntConst,
    LAdd,
    Lam,
    Let,
    LInt,
    LiqError,
    LiquidType,
    LMul,
    LNeg,
    LogicTerm,
    LSub,
    LVar,
    NameSource,
    PrimConst,
    Scheme,
    Term,
    TRUE,
    Var,
    VarArm,
    VALUE_VAR,
    make_type,
    render_refinement,
    render_term,
)


class ParseError(LiqError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Program(NamedTuple):
    qualifiers: tuple[Formula, ...]
    bindings: tuple[tuple[str, Term], ...]


CMP_OPS = ("=", "<=", ">=", "<", ">")

KEYWORDS = {"Qualifiers", "val", "let", "in", "true", "false", "if", "fix"}

PRIM_TOKENS = {
    "+": "add",
    "-": "neg",
    "*": "mul",
    "<=": "le",
    ">=": "ge",
    "<": "lt",
    ">": "gt",
    "=": "eq",
    "if": "ite",
    "fix": "fix",
    "neg": "neg",
    "add": "add",
    "sub": "sub",
    "mul": "mul",
}

SYMBOLS = ("<=>", "&&", "/\\", "->", "<=", ">=", "{", "}", "(", ")", ",", "\\", ".",
           "+", "-", "*", "<", ">", "=", "|", ":")


class Token(NamedTuple):
    kind: str  # "int", "ident", "sym", "eof"
    text: str
    line: int
    col: int


def _int_value(t: Token) -> int:
    """The value of an int token; `isdigit` also admits digits `int` rejects,
    such as superscripts, and `int` refuses literals past its digit limit."""
    try:
        return int(t.text)
    except ValueError:
        raise ParseError(f"bad integer literal of {len(t.text)} characters", t.line, t.col) from None


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'%"):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                toks.append(Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class _Tokens:
    def __init__(self, toks: list[Token]) -> None:
        self.toks = toks
        self.i = 0

    def peek(self) -> Token:
        return self.toks[min(self.i, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}", t.line, t.col)
        return self.next()

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)


# ---------------------------------------------------------------------------
# Refinements: one precedence grammar
# ---------------------------------------------------------------------------
#
# Qualifiers and printed refinements are one language, read by precedence
# climbing (Pratt, POPL 1973). From loosest to tightest: `<=>`, `&&`,
# comparison, `+ -`, `*`, unary `-`. Binary operators group to the left, and
# an `&&` chain is one n-ary conjunction. A bare name is an integer variable
# until a formula is wanted, and there it is a boolean variable.

_PRECEDENCE = {"<=>": 1, "&&": 2, "+": 4, "-": 4, "*": 5, **dict.fromkeys(CMP_OPS, 3)}
_ARITH = {"+": LAdd, "-": LSub, "*": LMul}
_TERMS = (LInt, LVar, LNeg, LAdd, LSub, LMul)


def _term(e: Union[LogicTerm, Formula], at: Token) -> LogicTerm:
    if isinstance(e, _TERMS):
        return e
    raise ParseError("expected an integer term, found a formula", at.line, at.col)


def _formula(e: Union[LogicTerm, Formula], at: Token) -> Formula:
    if isinstance(e, LVar):
        return FBoolVar(e.name)
    if isinstance(e, _TERMS):
        raise ParseError("expected a formula, found an integer term", at.line, at.col)
    return e


def _operand(ts: _Tokens, level: int, want: Callable) -> Union[LogicTerm, Formula]:
    at = ts.peek()
    return want(_refinement(ts, level), at)


def _refinement(ts: _Tokens, level: int = 1) -> Union[LogicTerm, Formula]:
    """An expression whose binary operators bind at `level` or tighter."""
    start = t = ts.next()
    if t.kind == "int":
        lhs = LInt(_int_value(t))
    elif t.text in ("true", "false"):
        lhs = TRUE if t.text == "true" else FALSE
    elif t.kind == "ident" and t.text not in KEYWORDS:
        lhs = LVar(t.text)
    elif t.text == "-":
        lhs = LNeg(_operand(ts, 6, _term))  # tighter than every binary operator
    elif t.text == "(":
        lhs = _refinement(ts)
        ts.expect(")")
    else:
        raise ParseError(f"expected a refinement, found {t.text or 'end of input'!r}", t.line, t.col)
    while True:
        op = ts.peek()
        prec = _PRECEDENCE.get(op.text, 0)
        if prec < level:
            return lhs
        ts.next()
        if op.text == "&&":
            parts = [_formula(lhs, start), _operand(ts, prec + 1, _formula)]
            while ts.peek().text == "&&":
                ts.next()
                parts.append(_operand(ts, prec + 1, _formula))
            lhs = FAnd(tuple(parts))
        elif op.text == "<=>":
            lhs = FIff(_formula(lhs, start), _operand(ts, prec + 1, _formula))
        else:
            lhs = _term(lhs, start)
            rhs = _operand(ts, prec + 1, _term)
            lhs = FAtom(op.text, lhs, rhs) if op.text in CMP_OPS else _ARITH[op.text](lhs, rhs)


def _is_plain(e: Union[LogicTerm, Formula]) -> bool:
    """Whether `e` has no conjunction, biconditional or product."""
    if isinstance(e, (FAtom, LAdd, LSub)):
        return _is_plain(e.lhs) and _is_plain(e.rhs)
    return _is_plain(e.arg) if isinstance(e, LNeg) else not isinstance(e, (FAnd, FIff, LMul))


def _qualifier(ts: _Tokens) -> Formula:
    """A refinement of the qualifier language: one comparison of sums, a
    boolean variable, `true` or `false`. These are the plain formulas, since
    a comparison's sides are terms."""
    at = ts.peek()
    q = _operand(ts, 1, _formula)
    if not _is_plain(q):
        message = "a qualifier must be one comparison of sums, a boolean variable, true or false"
        raise ParseError(message, at.line, at.col)
    return q


def parse_qualifier(text: str) -> Formula:
    ts = _Tokens(tokenize(text))
    q = _qualifier(ts)
    if ts.peek().kind != "eof":
        raise ts.fail("trailing input after qualifier")
    return q


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def _check_binder(b: Token, reserved=KEYWORDS | PRIM_TOKENS.keys()) -> None:
    """A binder may not spell the value variable or a reserved word, which
    no use could refer to. A `val` name may spell a primitive that is not a
    keyword: the paper's sign example binds `mul` and `neg`. In the later
    bindings that name is the binding, not the primitive."""
    if b.text == VALUE_VAR:
        raise ParseError(f"{VALUE_VAR!r} is reserved for the value variable", b.line, b.col)
    if b.text in reserved:
        raise ParseError(f"{b.text!r} cannot be used as a binder", b.line, b.col)


class _TermParser:
    """Terms of one binding. `vals` holds the names of the earlier `val`
    bindings, which shadow the primitives they spell."""

    def __init__(self, ts: _Tokens, names: NameSource, vals: Collection[str] = ()) -> None:
        self.ts = ts
        self.names = names
        self.vals = vals

    def term(self, scope: dict[str, str]) -> Term:
        t = self.ts.peek()
        if t.text == "\\":
            self.ts.next()
            b = self.ts.peek()
            if b.kind != "ident":
                raise self.ts.fail("expected a binder after \\")
            self.ts.next()
            _check_binder(b)
            fresh = self.names.fresh(b.text)
            self.ts.expect(".")
            body = self.term({**scope, b.text: fresh})
            return Lam(fresh, body)
        if t.text == "let":
            self.ts.next()
            b = self.ts.peek()
            if b.kind != "ident":
                raise self.ts.fail("expected a binder after let")
            self.ts.next()
            _check_binder(b)
            fresh = self.names.fresh(b.text)
            self.ts.expect("=")
            bound = self.term(scope)
            self.ts.expect("in")
            body = self.term({**scope, b.text: fresh})
            return Let(fresh, bound, body)
        return self.app(scope)

    def app(self, scope: dict[str, str]) -> Term:
        head = self.atom(scope)
        while True:
            nxt = self.ts.peek()
            if nxt.kind in ("int", "ident") or nxt.text in ("(", "\\") or nxt.text in PRIM_TOKENS:
                if nxt.text in ("in", "val") or nxt.kind == "eof":
                    break
                arg = self.atom(scope)
                head = App(head, arg)
            else:
                break
        return head

    def atom(self, scope: dict[str, str]) -> Term:
        t = self.ts.peek()
        if t.kind == "int":
            self.ts.next()
            return Const(IntConst(_int_value(t)))
        if t.text == "true" or t.text == "false":
            self.ts.next()
            return Const(BoolConst(t.text == "true"))
        if t.text == "(":
            self.ts.next()
            inner = self.term(scope)
            self.ts.expect(")")
            return inner
        if t.text == "\\" or t.text == "let":
            return self.term(scope)
        if t.text in PRIM_TOKENS and t.text not in self.vals and (
            t.kind == "sym" or t.text in ("if", "fix", "neg", "add", "sub", "mul")
        ):
            self.ts.next()
            return Const(PrimConst(PRIM_TOKENS[t.text]))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.ts.next()
            return Var(scope.get(t.text, t.text))
        raise self.ts.fail(f"expected a term, found {t.text or 'end of input'!r}")


def parse_term(text: str) -> Term:
    ts = _Tokens(tokenize(text))
    t = _TermParser(ts, NameSource("x")).term({})
    if ts.peek().kind != "eof":
        raise ts.fail("trailing input after term")
    return t


def parse_program(text: str) -> Program:
    ts = _Tokens(tokenize(text))
    quals: list[Formula] = []
    ts.expect("Qualifiers")
    ts.expect("{")
    if ts.peek().text != "}":
        quals.append(_qualifier(ts))
        while ts.peek().text == ",":
            ts.next()
            quals.append(_qualifier(ts))
    ts.expect("}")
    bindings: list[tuple[str, Term]] = []
    seen: set[str] = set()
    while ts.peek().text == "val":
        ts.next()
        nm = ts.peek()
        if nm.kind != "ident":
            raise ts.fail("expected a binding name after val")
        if nm.text in seen:
            raise ParseError(f"duplicate binding name {nm.text!r}", nm.line, nm.col)
        _check_binder(nm, KEYWORDS)
        ts.next()
        ts.expect("=")
        # binders are unique within one binding; bindings do not share names
        parser = _TermParser(ts, NameSource("x"), seen)
        bindings.append((nm.text, parser.term({})))
        seen.add(nm.text)
    if ts.peek().kind != "eof":
        raise ts.fail(f"expected 'val' or end of input, found {ts.peek().text!r}")
    return Program(tuple(quals), tuple(bindings))


def pretty_print(program: Program) -> str:
    """Inverse of parse_program on canonical ASTs."""
    quals = ",".join(f" {render_refinement(q)}" for q in program.qualifiers)
    lines = ["Qualifiers {" + quals + " }", ""]
    for name, term in program.bindings:
        lines.append(f"val {name} = {render_term(term)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Printed-type parser (the JSON round trip and the constant table)
# ---------------------------------------------------------------------------


def parse_scheme(text: str) -> Scheme:
    ts = _Tokens(tokenize(text))
    qvars: list[str] = []
    if ts.peek().text == "forall":
        ts.next()
        while ts.peek().kind == "ident" and ts.peek().text != ".":
            qvars.append(ts.next().text)
        ts.expect(".")
    body = _parse_liquid(ts)
    if ts.peek().kind != "eof":
        raise ts.fail("trailing input after type")
    return Scheme(tuple(qvars), body)


def _parse_liquid(ts: _Tokens) -> LiquidType:
    arms = [_parse_arm(ts)]
    while ts.peek().text == "/\\":
        ts.next()
        arms.append(_parse_arm(ts))
    return make_type(arms)


def _parse_arm(ts: _Tokens) -> Arm:
    t = ts.peek()
    if t.text == "{":
        ts.next()
        ts.expect(VALUE_VAR)
        ts.expect(":")
        base_tok = ts.next()
        if base_tok.text not in ("int", "bool"):
            raise ParseError(f"unknown base type {base_tok.text!r}", base_tok.line, base_tok.col)
        ts.expect("|")
        ref = _operand(ts, 1, _formula)
        ts.expect("}")
        return BaseArm(INT if base_tok.text == "int" else BOOL, ref)
    if t.text == "(":
        ts.next()
        binder = ts.next()
        if binder.kind != "ident":
            raise ParseError("expected a binder in a function arm", binder.line, binder.col)
        ts.expect(":")
        dom = _parse_liquid(ts)
        ts.expect("->")
        cod = _parse_liquid(ts)
        ts.expect(")")
        return FunArm(binder.text, dom, cod)
    if t.kind == "ident":
        ts.next()
        return VarArm(t.text)
    raise ts.fail(f"expected a type arm, found {t.text!r}")

"""Concrete syntax for join-calculus programs (``.jc`` files).

Grammar sketch::

    process  := unit { "|" unit }
    unit     := "0" | "HOLE"
              | ident "<" exprs? ">"
              | ident "(" exprs? ")" [ ";" process ]
              | "def" defs "in" process
              | "let" idlist "=" expr "in" process
              | "return" exprs? "to" ident
              | "if" "[" aexpr "=" aexpr "]" "then" unit "else" unit
              | aexpr ";" process
              | "(" process ")"
    defs     := rule { "and" rule }
    rule     := "T" | join "|>" process
    join     := pat { "|" pat }
    pat      := ident "<" idlist? ">" | ident "(" idlist? ")"
    expr     := ident "(" exprs? ")" | "def" defs "in" expr | aexpr
    aexpr    := aterm [ "++" aexpr ]
    aterm    := ident | integer | string | "fst" "(" aexpr ")"
              | "snd" "(" aexpr ")" | "(" aexpr ")"

Comments run from ``#`` to end of line.  ``ident~N`` denotes a
machine-indexed name and only appears in machine output.  The environment
and malware builders write their models in this syntax, formatting
caller-supplied atoms with :func:`atom_source`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Atom,
    CallPat,
    Concat,
    Conditional,
    Conj,
    Definition,
    ExprDef,
    Expression,
    Hole,
    Let,
    Lit,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    Null,
    Parallel,
    PatJoin,
    Process,
    Proj,
    Return,
    Rule,
    Sequence,
    SyncCall,
    Top,
    embed_atom,
    pattern_atoms,
    pretty,
)

KEYWORDS = {"def", "in", "let", "return", "to", "if", "then", "else", "and", "T", "fst", "snd", "HOLE"}

PUNCT = ["|>", "++", "<", ">", "(", ")", "[", "]", "=", ",", ";", "|"]


class ParseError(Exception):
    def __init__(self, line: int, column: int, message: str, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        super().__init__(f"{line}:{column}: {message}")


@dataclass
class _Tok:
    kind: str  # ident, name, int, str, punct, kw, eof
    text: str
    line: int
    col: int
    value: object = None


def _lex(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[i:j]
            idx = None
            if j < n and src[j] == "~":
                k = j + 1
                while k < n and src[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError(line, col, "expected digits after '~'")
                idx = int(src[j + 1 : k])
                j = k
            col += j - i
            i = j
            if idx is not None:
                toks.append(_Tok("name", text, start_line, start_col, Name(text, idx)))
            elif text in KEYWORDS:
                toks.append(_Tok("kw", text, start_line, start_col))
            else:
                toks.append(_Tok("ident", text, start_line, start_col))
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            toks.append(_Tok("int", src[i:j], start_line, start_col, int(src[i:j])))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                if src[j] == "\n":
                    raise ParseError(start_line, start_col, "unterminated string literal")
                j += 1
            if j >= n:
                raise ParseError(start_line, start_col, "unterminated string literal")
            toks.append(_Tok("str", src[i : j + 1], start_line, start_col, src[i + 1 : j]))
            col += j + 1 - i
            i = j + 1
            continue
        for p in PUNCT:
            if src.startswith(p, i):
                toks.append(_Tok("punct", p, start_line, start_col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(line, col, f"unexpected character {c!r}")
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def peek2(self) -> _Tok:
        return self.toks[min(self.pos + 1, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, expected: tuple[str, ...] = ()) -> ParseError:
        t = self.peek()
        what = f"got {t.text!r}" if t.kind != "eof" else "got end of input"
        return ParseError(t.line, t.col, f"{msg}, {what}", expected)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise self.fail(f"expected {text or kind}", (text or kind,))
        return self.next()

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    # -- names

    def name(self) -> Name:
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return Name(t.text)
        if t.kind == "name":
            self.next()
            return t.value  # type: ignore[return-value]
        raise self.fail("expected a name", ("identifier",))

    def idlist(self, closer: str) -> tuple[Name, ...]:
        if self.at("punct", closer):
            return ()
        out = [self.name()]
        while self.at("punct", ","):
            self.next()
            out.append(self.name())
        return tuple(out)

    # -- processes

    def process(self) -> Process:
        left = self.unit()
        while self.at("punct", "|"):
            self.next()
            left = Parallel(left, self.unit())
        return left

    def unit(self) -> Process:
        t = self.peek()
        if t.kind == "int" and t.text == "0" and not self.peek2().text == ";":
            self.next()
            return Null()
        if self.at("kw", "HOLE"):
            self.next()
            return Hole()
        if self.at("kw", "def"):
            self.next()
            d = self.defs()
            self.expect("kw", "in")
            return LocalDef(d, self.process())
        if self.at("kw", "let"):
            self.next()
            xs = [self.name()]
            while self.at("punct", ","):
                self.next()
                xs.append(self.name())
            self.expect("punct", "=")
            e = self.expr()
            self.expect("kw", "in")
            return Let(tuple(xs), e, self.process())
        if self.at("kw", "return"):
            self.next()
            vals: tuple[Expression, ...] = ()
            if not self.at("kw", "to"):
                vals = self.exprs()
            self.expect("kw", "to")
            return Return(vals, self.name())
        if self.at("kw", "if"):
            self.next()
            self.expect("punct", "[")
            a = self.atom_expr()
            self.expect("punct", "=")
            b = self.atom_expr()
            self.expect("punct", "]")
            self.expect("kw", "then")
            then = self.unit()
            self.expect("kw", "else")
            return Conditional(a, b, then, self.unit())
        if self.at("punct", "("):
            self.next()
            p = self.process()
            self.expect("punct", ")")
            return p
        if t.kind in ("ident", "name"):
            nxt = self.peek2()
            if nxt.text == "<":
                ch = self.name()
                self.next()
                args = self.exprs() if not self.at("punct", ">") else ()
                self.expect("punct", ">")
                return Message(ch, args)
            if nxt.text == "(":
                call = self.call_expr()
                if self.at("punct", ";"):
                    self.next()
                    return Sequence(call, self.process())
                return Sequence(call, Null())
            # bare atom expression sequence: "a; P" / "a ++ b; P"
            e = self.atom_expr()
            self.expect("punct", ";")
            return Sequence(e, self.process())
        if t.kind in ("int", "str") or self.at("kw", "fst") or self.at("kw", "snd"):
            e = self.atom_expr()
            self.expect("punct", ";")
            return Sequence(e, self.process())
        raise self.fail("expected a process", ("0", "def", "let", "return", "if", "message", "call"))

    # -- definitions

    def defs(self) -> Definition:
        d: Definition = self.rule()
        while self.at("kw", "and"):
            self.next()
            d = Conj(d, self.rule())
        return d

    def rule(self) -> Definition:
        if self.at("kw", "T"):
            self.next()
            return Top()
        j = self.join()
        self.expect("punct", "|>")
        body = self.process()
        r = Rule(j, body)
        self._check_rule(r)
        return r

    def _check_rule(self, r: Rule) -> None:
        atoms = pattern_atoms(r.pattern)
        chans = [a.channel for a in atoms]
        if len(chans) != len(set(chans)):
            t = self.toks[self.pos - 1]
            raise ParseError(t.line, t.col, "channel repeated in join pattern")
        binders: list[Name] = []
        for a in atoms:
            binders.extend(a.binders)
        if len(binders) != len(set(binders)):
            t = self.toks[self.pos - 1]
            raise ParseError(t.line, t.col, "binder repeated in join pattern")
        if set(binders) & set(chans):
            t = self.toks[self.pos - 1]
            raise ParseError(t.line, t.col, "name both defined and received in one pattern")

    def join(self):
        left = self.pattern()
        while self.at("punct", "|"):
            self.next()
            left = PatJoin(left, self.pattern())
        return left

    def pattern(self):
        ch = self.name()
        if self.at("punct", "<"):
            self.next()
            binders = self.idlist(">")
            self.expect("punct", ">")
            return MsgPat(ch, binders)
        if self.at("punct", "("):
            self.next()
            binders = self.idlist(")")
            self.expect("punct", ")")
            return CallPat(ch, binders)
        raise self.fail("expected '<' or '(' in join pattern", ("<", "("))

    # -- expressions

    def exprs(self) -> tuple[Expression, ...]:
        out = [self.expr()]
        while self.at("punct", ","):
            self.next()
            out.append(self.expr())
        return tuple(out)

    def expr(self) -> Expression:
        t = self.peek()
        if t.kind in ("ident", "name") and self.peek2().text == "(":
            return self.call_expr()
        if self.at("kw", "def"):
            self.next()
            d = self.defs()
            self.expect("kw", "in")
            return ExprDef(d, self.expr())
        return self.atom_expr()

    def call_expr(self) -> SyncCall:
        ch = self.name()
        self.expect("punct", "(")
        args = self.exprs() if not self.at("punct", ")") else ()
        self.expect("punct", ")")
        return SyncCall(ch, args)

    def atom_expr(self) -> Expression:
        left = self.atom_term()
        if self.at("punct", "++"):
            self.next()
            return Concat(left, self.atom_expr())
        return left

    def atom_term(self) -> Expression:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Lit(t.value)  # type: ignore[arg-type]
        if t.kind == "str":
            self.next()
            return Lit(t.value)  # type: ignore[arg-type]
        if self.at("kw", "fst") or self.at("kw", "snd"):
            i = 1 if t.text == "fst" else 2
            self.next()
            self.expect("punct", "(")
            e = self.atom_expr()
            self.expect("punct", ")")
            return Proj(e, i)
        if self.at("punct", "("):
            self.next()
            e = self.atom_expr()
            self.expect("punct", ")")
            return e
        if t.kind in ("ident", "name"):
            return NameRef(self.name())
        raise self.fail("expected an atom", ("identifier", "literal"))


def parse(text: str) -> Process:
    """Parse a program; raises :class:`ParseError` with line/column info."""
    p = _Parser(_lex(text))
    proc = p.process()
    if not p.at("eof"):
        raise p.fail("trailing input after program")
    return proc


def parse_definition(text: str) -> Definition:
    p = _Parser(_lex(text))
    d = p.defs()
    if not p.at("eof"):
        raise p.fail("trailing input after definition")
    return d


def atom_source(a: Atom, error: type[Exception]) -> str:
    """``a`` in concrete syntax, for writing into model text: a pair comes
    parenthesized, so the text can stand on either side of ``++``.  Raises
    ``error`` unless the text reads back as ``a`` itself; a keyword such as
    ``in``, or a name holding ``|`` or ``<``, is refused."""
    e = embed_atom(a)
    text = pretty(e)
    try:
        p = _Parser(_lex(text))
        same = p.atom_expr() == e and p.at("eof")
    except ParseError:
        same = False
    if not same:
        raise error(f"{text!r} cannot be written as an atom")
    return f"({text})" if isinstance(e, Concat) else text

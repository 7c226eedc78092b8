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

An identifier starts with a letter or ``_`` and goes on with letters,
digits and ``_``; an integer is decimal digits; a comment runs from ``#``
to the end of its line.  ``ident~N`` denotes a machine-indexed name and
only appears in machine output.  The environment and malware builders
write their models in this syntax, formatting caller-supplied atoms with
:func:`atom_source`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

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

# One token per match, with the blanks and comment before it (group 1);
# tokens never span lines, so ``_lex`` matches one line at a time.
_TOKEN = re.compile(
    r"((?:[ \t\r]+|#.*)*)"
    r"(?:(?P<punct>\|>|\+\+|[<>()\[\]=,;|])|(?P<int>\d+)|(?P<ident>\w+(?:~\d*)?)"
    r'|(?P<str>"[^"]*")|(?P<eol>\Z)|(?P<bad>.))'
)


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
    for line, text in enumerate(src.split("\n"), 1):
        for m in _TOKEN.finditer(text):
            col = m.end(1) + 1  # the token's offset in its line, from 1
            kind = m.lastgroup
            tok = m.group(kind)
            if kind == "punct":
                toks.append(_Tok("punct", tok, line, col))
            elif kind == "ident":
                if tok in KEYWORDS:
                    toks.append(_Tok("kw", tok, line, col))
                elif not (tok[0].isalpha() or tok[0] == "_"):
                    raise ParseError(line, col, f"unexpected character {tok[0]!r}")
                elif "~" not in tok:
                    toks.append(_Tok("ident", tok, line, col))
                else:
                    ident, idx = tok.split("~")
                    if not idx:
                        raise ParseError(line, col, "expected digits after '~'")
                    toks.append(_Tok("name", ident, line, col, Name(ident, int(idx))))
            elif kind == "int":
                toks.append(_Tok("int", tok, line, col, int(tok)))
            elif kind == "str":
                toks.append(_Tok("str", tok, line, col, tok[1:-1]))
            elif kind == "eol":
                break
            elif tok == '"':
                raise ParseError(line, col, "unterminated string literal")
            else:
                raise ParseError(line, col, f"unexpected character {tok!r}")
    toks.append(_Tok("eof", "", line, col))
    return toks


# a join pattern's opening bracket -> its closing bracket and atom type
_PATTERNS = {"<": (">", MsgPat), "(": (")", CallPat)}


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def peek2(self) -> _Tok:
        return self.toks[min(self.pos + 1, len(self.toks) - 1)]

    def fail(self, msg: str, expected: tuple[str, ...] = ()) -> ParseError:
        t = self.peek()
        what = f"got {t.text!r}" if t.kind != "eof" else "got end of input"
        return ParseError(t.line, t.col, f"{msg}, {what}", expected)

    def at(self, kind: str, text: str) -> bool:
        t = self.toks[self.pos]
        return t.kind == kind and t.text == text

    def accept(self, kind: str, text: str) -> bool:
        """Advance past the token if it is ``text`` of ``kind``."""
        t = self.toks[self.pos]
        if t.kind == kind and t.text == text:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, text: str) -> None:
        if not self.accept(kind, text):
            raise self.fail(f"expected {text}", (text,))

    def sep_by(self, item, sep: str = ",", kind: str = "punct") -> tuple:
        """``item { sep item }``"""
        out = [item()]
        while self.accept(kind, sep):
            out.append(item())
        return tuple(out)

    def parenthesized(self, item):
        self.expect("punct", "(")
        out = item()
        self.expect("punct", ")")
        return out

    def listed(self, item, closer: str) -> tuple:
        """``[ item { "," item } ] closer``"""
        out = () if self.at("punct", closer) else self.sep_by(item)
        self.expect("punct", closer)
        return out

    # -- names

    def name(self) -> Name:
        t = self.peek()
        if t.kind == "ident":
            self.pos += 1
            return Name(t.text)
        if t.kind == "name":
            self.pos += 1
            return t.value  # type: ignore[return-value]
        raise self.fail("expected a name", ("identifier",))

    # -- processes

    def process(self) -> Process:
        return reduce(Parallel, self.sep_by(self.unit, "|"))

    def unit(self) -> Process:
        t = self.peek()
        if t.kind == "int" and t.text == "0" and self.peek2().text != ";":
            self.pos += 1
            return Null()
        if self.accept("kw", "HOLE"):
            return Hole()
        if self.accept("kw", "def"):
            return self.def_in(LocalDef, self.process)
        if self.accept("kw", "let"):
            xs = self.sep_by(self.name)
            self.expect("punct", "=")
            e = self.expr()
            self.expect("kw", "in")
            return Let(xs, e, self.process())
        if self.accept("kw", "return"):
            vals = () if self.at("kw", "to") else self.sep_by(self.expr)
            self.expect("kw", "to")
            return Return(vals, self.name())
        if self.accept("kw", "if"):
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
            return self.parenthesized(self.process)
        if t.kind in ("ident", "name"):
            nxt = self.peek2().text
            if nxt == "<":
                ch = self.name()
                self.pos += 1
                return Message(ch, self.listed(self.expr, ">"))
            if nxt == "(":
                call = self.call_expr()
                return Sequence(call, self.process() if self.accept("punct", ";") else Null())
        if t.kind in ("ident", "name", "int", "str") or (t.kind == "kw" and t.text in ("fst", "snd")):
            # bare atom expression sequence: "a; P" / "a ++ b; P"
            e = self.atom_expr()
            self.expect("punct", ";")
            return Sequence(e, self.process())
        raise self.fail("expected a process", ("0", "def", "let", "return", "if", "message", "call"))

    def def_in(self, make, body):
        d = self.defs()
        self.expect("kw", "in")
        return make(d, body())

    # -- definitions

    def defs(self) -> Definition:
        return reduce(Conj, self.sep_by(self.rule, "and", "kw"))

    def rule(self) -> Definition:
        if self.accept("kw", "T"):
            return Top()
        j = reduce(PatJoin, self.sep_by(self.pattern, "|"))
        self.expect("punct", "|>")
        r = Rule(j, self.process())
        atoms = pattern_atoms(j)
        chans = [a.channel for a in atoms]
        binders = [b for a in atoms for b in a.binders]
        if len(chans) != len(set(chans)):
            problem = "channel repeated in join pattern"
        elif len(binders) != len(set(binders)):
            problem = "binder repeated in join pattern"
        elif set(binders) & set(chans):
            problem = "name both defined and received in one pattern"
        else:
            return r
        t = self.toks[self.pos - 1]
        raise ParseError(t.line, t.col, problem)

    def pattern(self):
        ch = self.name()
        t = self.peek()
        if t.kind != "punct" or t.text not in _PATTERNS:
            raise self.fail("expected '<' or '(' in join pattern", ("<", "("))
        self.pos += 1
        closer, make = _PATTERNS[t.text]
        return make(ch, self.listed(self.name, closer))

    # -- expressions

    def expr(self) -> Expression:
        t = self.peek()
        if t.kind in ("ident", "name") and self.peek2().text == "(":
            return self.call_expr()
        if self.accept("kw", "def"):
            return self.def_in(ExprDef, self.expr)
        return self.atom_expr()

    def call_expr(self) -> SyncCall:
        ch = self.name()
        self.expect("punct", "(")
        return SyncCall(ch, self.listed(self.expr, ")"))

    def atom_expr(self) -> Expression:
        left = self.atom_term()
        if self.accept("punct", "++"):
            return Concat(left, self.atom_expr())
        return left

    def atom_term(self) -> Expression:
        t = self.peek()
        if t.kind == "int" or t.kind == "str":
            self.pos += 1
            return Lit(t.value)  # type: ignore[arg-type]
        if t.kind in ("ident", "name"):
            return NameRef(self.name())
        if t.kind == "kw" and t.text in ("fst", "snd"):
            self.pos += 1
            return Proj(self.parenthesized(self.atom_expr), 1 if t.text == "fst" else 2)
        if self.at("punct", "("):
            return self.parenthesized(self.atom_expr)
        raise self.fail("expected an atom", ("identifier", "literal"))


def _whole(text: str, read, what: str):
    """``read`` of a fresh parser over ``text``, which must use all of it."""
    p = _Parser(_lex(text))
    out = read(p)
    if p.peek().kind != "eof":
        raise p.fail(f"trailing input after {what}")
    return out


def parse(text: str) -> Process:
    """Parse a program; raises :class:`ParseError` with line/column info."""
    return _whole(text, _Parser.process, "program")


def parse_definition(text: str) -> Definition:
    return _whole(text, _Parser.defs, "definition")


def atom_source(a: Atom, error: type[Exception]) -> str:
    """``a`` in concrete syntax, for writing into model text: a pair comes
    parenthesized, so the text can stand on either side of ``++``.  Raises
    ``error`` unless the text reads back as ``a`` itself; a keyword such as
    ``in``, or a name holding ``|`` or ``<``, is refused."""
    e = embed_atom(a)
    text = pretty(e)
    try:
        same = _whole(text, _Parser.atom_expr, "atom") == e
    except ParseError:
        same = False
    if not same:
        raise error(f"{text!r} cannot be written as an atom")
    return f"({text})" if isinstance(e, Concat) else text

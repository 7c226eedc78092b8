"""Abstract syntax for the join calculus, enriched with synchronous calls.

Terms come in four sorts: processes, definitions, join patterns and
expressions.  Processes communicate by emitting asynchronous messages that
are matched against join patterns; definitions group reaction rules.
Synchronous calls in expressions, and the process forms that sequence them
(``E; P``) and bind their results (``let x = E in P``), compile down to the
asynchronous core (see ``desugar``).

Values transmitted on channels are *atoms*: channel names, integer or
string literals, or pairs of atoms (used to model compound names such as a
file name plus extension).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# names and atoms


@dataclass(frozen=True, order=True)
class Name:
    """A channel or variable name.

    ``index`` is None for names written in source programs; the machine
    assigns an index when it activates a definition, so each activation gets
    channels distinct from every other. Equality is on (base, index).
    """

    base: str
    index: Optional[int] = None
    # the hash, computed on first use (names key every dict of the machine)
    hash_cache: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self.hash_cache
        if h is None:
            h = hash((self.base, self.index))
            object.__setattr__(self, "hash_cache", h)
        return h

    def __str__(self) -> str:
        return self.base if self.index is None else f"{self.base}~{self.index}"


@dataclass(frozen=True, order=True)
class Pair:
    """Compound atom: an ordered pair, used for name concatenation and lists."""

    first: "Atom"
    second: "Atom"

    def __str__(self) -> str:
        return f"({atom_str(self.first)} ++ {atom_str(self.second)})"


Atom = Union[Name, int, str, Pair]

# conventional list terminator (a plain free name, compared like any other name)
NIL = Name("nil")


def atom_str(a: Atom) -> str:
    if isinstance(a, Name):
        return str(a)
    if isinstance(a, str):
        return '"%s"' % a
    return str(a)


def cons_list(items: list[Atom]) -> Atom:
    """Encode a python list of atoms as nested pairs terminated by ``nil``."""
    out: Atom = NIL
    for a in reversed(items):
        out = Pair(a, out)
    return out


# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class NameRef:
    name: Name


@dataclass(frozen=True)
class Lit:
    value: Union[int, str]


@dataclass(frozen=True)
class Concat:
    """Pairing of two atom-valued expressions (written ``a ++ b``)."""

    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Proj:
    """Projection out of a pair: ``fst(e)`` / ``snd(e)``."""

    expr: "Expression"
    index: int  # 1 = first, 2 = second


@dataclass(frozen=True)
class SyncCall:
    """Synchronous call ``x(e1,...,en)``; blocks until the callee replies."""

    channel: Name
    args: tuple["Expression", ...] = ()


@dataclass(frozen=True)
class ExprDef:
    defs: "Definition"
    body: "Expression"


Expression = Union[NameRef, Lit, Concat, Proj, SyncCall, ExprDef]


def embed_atom(a: Atom) -> Expression:
    """Lift a runtime atom back into expression syntax."""
    if isinstance(a, Name):
        return NameRef(a)
    if isinstance(a, Pair):
        return Concat(embed_atom(a.first), embed_atom(a.second))
    return Lit(a)


def is_atom_expr(e: Expression) -> bool:
    """True when evaluating ``e`` needs no communication."""
    match e:
        case NameRef() | Lit():
            return True
        case Concat(left, right):
            return is_atom_expr(left) and is_atom_expr(right)
        case Proj(inner, _):
            return is_atom_expr(inner)
        case _:
            return False


# ---------------------------------------------------------------------------
# join patterns


@dataclass(frozen=True)
class MsgPat:
    """Asynchronous message pattern ``x<y1,...,yn>``."""

    channel: Name
    binders: tuple[Name, ...] = ()


@dataclass(frozen=True)
class CallPat:
    """Synchronous call pattern ``x(y1,...,yn)``; receives an implicit reply
    channel in addition to its binders."""

    channel: Name
    binders: tuple[Name, ...] = ()


@dataclass(frozen=True)
class PatJoin:
    left: "JoinPattern"
    right: "JoinPattern"


JoinPattern = Union[MsgPat, CallPat, PatJoin]


def pattern_atoms(j: JoinPattern) -> list[Union[MsgPat, CallPat]]:
    match j:
        case PatJoin(l, r):
            return pattern_atoms(l) + pattern_atoms(r)
        case _:
            return [j]


def join_of(atoms: list[Union[MsgPat, CallPat]]) -> JoinPattern:
    """The left-nested join of ``atoms``, the shape the parser builds."""
    j: JoinPattern = atoms[0]
    for a in atoms[1:]:
        j = PatJoin(j, a)
    return j


# ---------------------------------------------------------------------------
# definitions


@dataclass(frozen=True)
class Rule:
    pattern: JoinPattern
    body: "Process"


@dataclass(frozen=True)
class Conj:
    left: "Definition"
    right: "Definition"


@dataclass(frozen=True)
class Top:
    """The empty definition, written ``T``."""


Definition = Union[Rule, Conj, Top]


def rules_of(d: Definition) -> list[Rule]:
    match d:
        case Rule():
            return [d]
        case Conj(l, r):
            return rules_of(l) + rules_of(r)
        case Top():
            return []
    raise TypeError(d)


def conj_of(rules: list[Rule]) -> Definition:
    if not rules:
        return Top()
    d: Definition = rules[0]
    for r in rules[1:]:
        d = Conj(d, r)
    return d


# ---------------------------------------------------------------------------
# processes


@dataclass(frozen=True)
class Message:
    channel: Name
    args: tuple[Expression, ...] = ()


@dataclass(frozen=True)
class LocalDef:
    defs: Definition
    body: "Process"


@dataclass(frozen=True)
class Parallel:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Null:
    pass


@dataclass(frozen=True)
class Sequence:
    """``E; P`` - evaluate E synchronously, discard its result, run P."""

    expr: Expression
    rest: "Process"


@dataclass(frozen=True)
class Let:
    binders: tuple[Name, ...]
    expr: Expression
    body: "Process"


@dataclass(frozen=True)
class Return:
    values: tuple[Expression, ...]
    to: Name


@dataclass(frozen=True)
class Conditional:
    """Atom equality test ``if [a = b] then P else Q``; resolved when the
    enclosing rule body is instantiated."""

    lhs: Expression
    rhs: Expression
    then: "Process"
    orelse: "Process"


@dataclass(frozen=True)
class Hole:
    """Plug point of a process context; never executed directly."""


Process = Union[Message, LocalDef, Parallel, Null, Sequence, Let, Return, Conditional, Hole]

Term = Union[Process, Definition, JoinPattern, Expression]


def par(*ps: Process) -> Process:
    """Right-nested parallel composition of the given processes."""
    ps = tuple(p for p in ps if not isinstance(p, Null))
    if not ps:
        return Null()
    out = ps[-1]
    for p in reversed(ps[:-1]):
        out = Parallel(p, out)
    return out


def parallel_parts(p: Process) -> list[Process]:
    match p:
        case Parallel(l, r):
            return parallel_parts(l) + parallel_parts(r)
        case Null():
            return []
        case _:
            return [p]


# ---------------------------------------------------------------------------
# sub-term traversal


def subterms(t: Union[Process, Expression]) -> Iterator[Union[Process, Expression]]:
    """``t`` and every process and expression inside it, rule bodies
    included, in left-to-right pre-order.  Scoping is ignored: a sub-term
    under a binder is visited like any other."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(_children(t)))


def _children(t: Union[Process, Expression]) -> tuple:
    match t:
        case Message(_, args) | SyncCall(_, args):
            return args
        case Return(vals, _):
            return vals
        case LocalDef(d, body) | ExprDef(d, body):
            return (*(r.body for r in rules_of(d)), body)
        case Parallel(l, r) | Concat(l, r):
            return (l, r)
        case Sequence(e, p) | Let(_, e, p):
            return (e, p)
        case Conditional(a, b, th, el):
            return (a, b, th, el)
        case Proj(e, _):
            return (e,)
    return ()


# ---------------------------------------------------------------------------
# name sets


@dataclass
class NameSets:
    """Channels defined by join definitions (dv), names bound by join
    patterns (rv) and free names (fv) of a term."""

    dv: set[Name] = field(default_factory=set)
    rv: set[Name] = field(default_factory=set)
    fv: set[Name] = field(default_factory=set)


def pattern_dv(j: JoinPattern) -> set[Name]:
    return {a.channel for a in pattern_atoms(j)}


def pattern_rv(j: JoinPattern) -> set[Name]:
    out: set[Name] = set()
    for a in pattern_atoms(j):
        out.update(a.binders)
    return out


def def_channels(d: Definition) -> list[Name]:
    """The channels ``d`` defines, each once, in pattern order."""
    return list(dict.fromkeys(a.channel for r in rules_of(d) for a in pattern_atoms(r.pattern)))


def name_sets(term: Term) -> NameSets:
    """Compute dv, rv and fv for any term.

    dv and rv accumulate over *all* definitions and patterns inside the
    term; fv follows the usual inductive scoping rules.
    """
    ns = NameSets()
    ns.fv = _fv(term, ns)
    return ns


def free_names(term: Term) -> set[Name]:
    return _fv(term, NameSets())


def _fv_exprs(es: tuple[Expression, ...], ns: NameSets) -> set[Name]:
    out: set[Name] = set()
    for e in es:
        out |= _fv(e, ns)
    return out


def _fv(term: Term, ns: NameSets) -> set[Name]:
    match term:
        # processes, and the calls and local definitions of expressions
        case Message(ch, args) | SyncCall(ch, args):
            return {ch} | _fv_exprs(args, ns)
        case LocalDef(d, p) | ExprDef(d, p):
            dv = set(def_channels(d))
            ns.dv.update(dv)
            return (_fv(d, ns) | _fv(p, ns)) - dv
        case Parallel(l, r):
            return _fv(l, ns) | _fv(r, ns)
        case Null() | Hole():
            return set()
        case Sequence(e, p):
            return _fv(e, ns) | _fv(p, ns)
        case Let(xs, e, p):
            return _fv(e, ns) | (_fv(p, ns) - set(xs))
        case Return(vals, to):
            return _fv_exprs(vals, ns) | {to}
        case Conditional(a, b, t, o):
            return _fv(a, ns) | _fv(b, ns) | _fv(t, ns) | _fv(o, ns)
        # definitions
        case Rule(j, p):
            dv, rv = pattern_dv(j), pattern_rv(j)
            ns.dv.update(dv)
            ns.rv.update(rv)
            return dv | (_fv(p, ns) - rv)
        case Conj(l, r):
            return _fv(l, ns) | _fv(r, ns)
        case Top():
            return set()
        # patterns
        case MsgPat(ch, binders) | CallPat(ch, binders):
            ns.dv.add(ch)
            ns.rv.update(binders)
            return {ch}
        case PatJoin(l, r):
            return _fv(l, ns) | _fv(r, ns)
        # expressions
        case NameRef(n):
            return {n}
        case Lit(_):
            return set()
        case Concat(l, r):
            return _fv(l, ns) | _fv(r, ns)
        case Proj(e, _):
            return _fv(e, ns)
    raise TypeError(f"not a term: {term!r}")


# ---------------------------------------------------------------------------
# substitution


class SubstitutionError(Exception):
    pass


class FreshNames:
    """Mints names whose indices count up from ``start + 1``."""

    def __init__(self, start: int):
        self.n = start

    def fresh(self, base: str) -> Name:
        self.n += 1
        return Name(base, self.n)


class _FreshAbove(FreshNames):
    """Mints names above every index in ``term``.  The term is walked on
    the first ``fresh``: most substitutions rename no binder."""

    def __init__(self, term: object):
        self.term = term
        self.n = None

    def fresh(self, base: str) -> Name:
        if self.n is None:
            self.n = _max_index(self.term)
        return super().fresh(base)


def _max_index(term: Term) -> int:
    """The largest index of a name anywhere in ``term``, or -1."""
    hi = -1
    stack: list = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Name):
            if t.index is not None and t.index > hi:
                hi = t.index
        elif isinstance(t, tuple):
            stack.extend(t)
        elif not isinstance(t, (int, str)):
            stack.extend(vars(t).values())
    return hi


def _atom_names(a: Atom) -> Iterator[Name]:
    if isinstance(a, Name):
        yield a
    elif isinstance(a, Pair):
        yield from _atom_names(a.first)
        yield from _atom_names(a.second)


def substitute(term: Term, mapping: dict[Name, Atom]) -> Term:
    """Replace free occurrences of the mapping keys, avoiding capture.

    ``term`` must be a core term (see ``desugar``): a synchronous call,
    expression-level ``def``, sequence, ``let``, ``return`` or bare join
    pattern raises :class:`TypeError`.  Values may be names, literals or
    pairs.  Binders that would capture a free name of a substituted value
    are renamed to fresh indexed names, minted above every index in
    ``term`` and ``mapping``.  A mapping that puts a non-name atom in
    channel position raises :class:`SubstitutionError`.
    """
    if not mapping:
        return term
    mapping = _Mapping(mapping)
    return _subst(term, mapping, _FreshAbove((term, tuple(mapping.items()))))


class _Mapping(dict):
    """A substitution's mapping from names to atoms; ``names``, the names
    occurring in its values, is found once, on first use."""

    @cached_property
    def names(self) -> set[Name]:
        return {n for v in self.values() for n in _atom_names(v)}


def _narrow(mapping: _Mapping, bound: set[Name]) -> _Mapping:
    """``mapping`` without the keys in ``bound``: ``mapping`` itself when it
    has none of them."""
    if bound.isdisjoint(mapping):
        return mapping
    return _Mapping({k: v for k, v in mapping.items() if k not in bound})


def _subst_channel(ch: Name, mapping: dict[Name, Atom]) -> Name:
    v = mapping.get(ch)
    if v is None:
        return ch
    if not isinstance(v, Name):
        raise SubstitutionError(f"cannot place {atom_str(v)} in channel position for {ch}")
    return v


def _rename_binders(binders: tuple[Name, ...], mapping: _Mapping, inner: _Mapping, ctr: FreshNames) -> _Mapping:
    """Renaming for binders colliding with the range of ``inner``, the
    narrowing of ``mapping`` to their scope, minted in the order of
    ``binders`` so that the fresh indices do not depend on the hash seed; a
    binder listed twice is renamed once.  Narrowing only shrinks the range,
    so ``inner``'s is read only for a binder in ``mapping``'s."""
    ren = _Mapping()
    for b in binders:
        if b in mapping.names and b in inner.names and b not in ren:
            ren[b] = ctr.fresh(b.base)
    return ren


def _subst(term: Term, mapping: _Mapping, ctr: FreshNames) -> Term:
    match term:
        case Message(ch, args):
            return Message(_subst_channel(ch, mapping), tuple(_subst(a, mapping, ctr) for a in args))
        case NameRef(n):
            return embed_atom(mapping[n]) if n in mapping else term
        case LocalDef(d, p):
            return LocalDef(*_subst_scope(d, p, mapping, ctr))
        case Parallel(l, r):
            return Parallel(_subst(l, mapping, ctr), _subst(r, mapping, ctr))
        case Null() | Top() | Hole() | Lit():
            return term
        case Conditional(a, b, t, o):
            return Conditional(
                _subst(a, mapping, ctr),
                _subst(b, mapping, ctr),
                _subst(t, mapping, ctr),
                _subst(o, mapping, ctr),
            )
        case Rule(j, p):
            # pattern channels behave as free occurrences of a bare rule;
            # received names are binders scoping the body.  Each head keeps
            # its own type, so a call pattern left undesugared still reaches
            # ``heat``, which rejects it.
            heads = pattern_atoms(j)
            binders = tuple(b for a in heads for b in a.binders)
            inner = _narrow(mapping, set(binders))
            ren = _rename_binders(binders, mapping, inner, ctr)
            if ren:
                p = _subst(p, ren, ctr)
            j = join_of([
                type(a)(_subst_channel(a.channel, inner), tuple(ren.get(b, b) for b in a.binders))  # type: ignore[misc]
                for a in heads
            ])
            return Rule(j, _subst(p, inner, ctr) if inner else p)
        case Conj(l, r):
            return Conj(_subst(l, mapping, ctr), _subst(r, mapping, ctr))
        case Concat(l, r):
            return Concat(_subst(l, mapping, ctr), _subst(r, mapping, ctr))
        case Proj(inner, i):
            return Proj(_subst(inner, mapping, ctr), i)
    raise TypeError(f"not a core term: {term!r}")


def _subst_scope(d: Definition, body: Process, mapping: _Mapping, ctr: FreshNames):
    """Handle a def scope: dv(d) binds inside rule bodies and the body."""
    channels = tuple(def_channels(d))
    inner = _narrow(mapping, set(channels))
    ren = _rename_binders(channels, mapping, inner, ctr)
    if ren:
        d = _subst(d, ren, ctr)  # renames pattern channels and recursive uses
        body = _subst(body, ren, ctr)
    if not inner:
        return d, body
    return _subst(d, inner, ctr), _subst(body, inner, ctr)


# ---------------------------------------------------------------------------
# pretty printing


def pretty(term: Term) -> str:
    """Render a term in the concrete grammar; ``parse(pretty(t)) == t`` for
    every term the parser builds and for its desugared form."""
    match term:
        case Message(ch, args):
            return f"{ch}<{_expr_list(args)}>"
        case LocalDef(d, p) | ExprDef(d, p):
            return f"def {pretty(d)} in {pretty(p)}"
        case Parallel(l, r):
            # the parser is left-associative; right-nested composition keeps
            # its parens so parsing reproduces the exact tree
            left = pretty(l) if isinstance(l, Parallel) else _par_operand(l)
            return f"{left} | {_par_operand(r)}"
        case Null():
            return "0"
        case Sequence(e, rest):
            if isinstance(rest, Null) and isinstance(e, SyncCall):
                return pretty(e)
            return f"{pretty(e)}; {pretty(rest)}"
        case Let(xs, e, p):
            return f"let {', '.join(str(x) for x in xs)} = {pretty(e)} in {pretty(p)}"
        case Return(vals, to):
            if vals:
                return f"return {_expr_list(vals)} to {to}"
            return f"return to {to}"
        case Conditional(a, b, t, o):
            return f"if [{pretty(a)} = {pretty(b)}] then {_branch(t)} else {_branch(o)}"
        case Hole():
            return "HOLE"
        case Rule(j, p):
            return f"{pretty(j)} |> {_rule_body(p)}"
        case Conj(l, r):
            return f"{pretty(l)} and {pretty(r)}"
        case Top():
            return "T"
        case MsgPat(ch, binders):
            return f"{ch}<{', '.join(str(b) for b in binders)}>"
        case CallPat(ch, binders):
            return f"{ch}({', '.join(str(b) for b in binders)})"
        case PatJoin(l, r):
            return f"{pretty(l)} | {pretty(r)}"
        case NameRef(n):
            return str(n)
        case Lit(v):
            return atom_str(v)
        case Concat(l, r):
            return f"{_concat_operand(l)} ++ {_concat_operand(r)}"
        case Proj(e, i):
            return f"{'fst' if i == 1 else 'snd'}({pretty(e)})"
        case SyncCall(ch, args):
            return f"{ch}({_expr_list(args)})"
    raise TypeError(f"not a term: {term!r}")


def _expr_list(es: tuple[Expression, ...]) -> str:
    return ", ".join(pretty(e) for e in es)


def _par_operand(p: Process) -> str:
    if isinstance(p, (Message, Null, Hole)) or (isinstance(p, Sequence) and isinstance(p.rest, Null) and isinstance(p.expr, SyncCall)):
        return pretty(p)
    return f"({pretty(p)})"


def _branch(p: Process) -> str:
    # conditional branches chain without parens; anything compound is wrapped
    if isinstance(p, (Message, Null, Conditional, Hole)):
        return pretty(p)
    return f"({pretty(p)})"


def _rule_body(p: Process) -> str:
    # "def"/"let" bodies swallow trailing "and"/"in"; parenthesise them
    if isinstance(p, (LocalDef, Let, Sequence, Return)):
        return f"({pretty(p)})"
    return pretty(p)


def _concat_operand(e: Expression) -> str:
    if isinstance(e, Concat):
        return f"({pretty(e)})"
    return pretty(e)

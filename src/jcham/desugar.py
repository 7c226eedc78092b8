"""Compilation of the enriched syntax down to the asynchronous core.

The core keeps only messages, definitions, parallel composition, the null
process and atom-equality conditionals.  Synchronous calls, sequences,
value bindings and returns are compiled by continuation passing: every
call gets a freshly defined reply channel, passed as an extra trailing
argument; a call pattern ``x(a, b)`` becomes the message pattern
``x<a, b, k>`` and ``return v to x`` becomes ``k<v>``.

Two conventions make the compiled programs behave like the informal
reduction style used when modelling systems:

* a rule that receives on a call pattern but never returns to it replies
  with an empty message as soon as it fires ("auto-acknowledge"), so
  callers of notification-style services resume;
* ``return f(args) to x`` forwards the caller's reply channel to ``f``
  (a tail call), so services can hand out whatever ``f`` produces without
  knowing its arity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .syntax import (
    CallPat,
    Concat,
    Conditional,
    Definition,
    ExprDef,
    Expression,
    FreshNames,
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
    Process,
    Proj,
    Return,
    Rule,
    Sequence,
    SyncCall,
    Term,
    _max_index,
    conj_of,
    def_channels,
    is_atom_expr,
    join_of,
    pattern_atoms,
    rules_of,
)


class DesugarError(Exception):
    pass


class _Renv:
    """Maps call-pattern channels in scope to their reply-channel binders."""

    def __init__(self, entries: dict[Name, Name] | None = None):
        self.entries = entries or {}
        self.used: set[Name] = set()

    def shadow(self, names: set[Name]) -> "_Renv":
        child = _Renv({k: v for k, v in self.entries.items() if k not in names})
        child.used = self.used  # same usage tracker all the way down
        return child

    def extend(self, more: dict[Name, Name]) -> "_Renv":
        child = _Renv({**{k: v for k, v in self.entries.items() if k not in more}, **more})
        child.used = self.used
        return child

    def lookup(self, x: Name) -> Name:
        if x not in self.entries:
            raise DesugarError(f"'return ... to {x}' has no enclosing call pattern on {x}")
        self.used.add(self.entries[x])
        return self.entries[x]


def desugar(p: Process) -> Process:
    """Compile ``p`` to the core; identity on programs already in the core.

    This is the one boundary between sugar and core: nothing below it
    (``substitute``, ``heat``, ``canon``) has a case for synchronous calls,
    ``let``, ``;``, ``return`` or call patterns, and ``substitute`` raises
    ``TypeError`` on them."""
    gen = FreshNames(_max_index(p))
    return _proc(p, _Renv(), gen)


def _defs(d: Definition, renv: _Renv, gen: FreshNames) -> Definition:
    return conj_of([_rule(r, renv, gen) for r in rules_of(d)])


def _rule(r: Rule, renv: _Renv, gen: FreshNames) -> Rule:
    replies: dict[Name, Name] = {}
    atoms = []
    for a in pattern_atoms(r.pattern):
        if isinstance(a, CallPat):
            replies[a.channel] = k = gen.fresh("k")
            a = MsgPat(a.channel, a.binders + (k,))
        atoms.append(a)
    inner = renv.extend(replies)
    body = _proc(r.body, inner, gen)
    # auto-acknowledge call patterns the body never replies to
    for ch, k in replies.items():
        if k not in inner.used:
            body = Parallel(body, Message(k, ()))
    return Rule(join_of(atoms), body)


def _proc(p: Process, renv: _Renv, gen: FreshNames) -> Process:
    match p:
        case Message(ch, args):
            return _eval_args(list(args), [], renv, gen, lambda atoms: Message(ch, tuple(atoms)))
        case LocalDef(d, body):
            scoped = renv.shadow(set(def_channels(d)))
            return LocalDef(_defs(d, scoped, gen), _proc(body, scoped, gen))
        case Parallel(l, r):
            return Parallel(_proc(l, renv, gen), _proc(r, renv, gen))
        case Null() | Hole():
            return p
        case Sequence(e, rest):
            return _bind((), e, _proc(rest, renv, gen), renv, gen)
        case Let(xs, e, body):
            return _bind(xs, e, _proc(body, renv.shadow(set(xs)), gen), renv, gen)
        case Return(vals, to):
            k = renv.lookup(to)
            if len(vals) == 1 and isinstance(vals[0], SyncCall):
                # a tail call: the callee replies to our caller directly
                return _emit_call(vals[0], k, renv, gen)
            return _eval_args(list(vals), [], renv, gen, lambda atoms: Message(k, tuple(atoms)))
        case Conditional(a, b, t, o):
            return Conditional(a, b, _proc(t, renv, gen), _proc(o, renv, gen))
    raise TypeError(f"not a process: {p!r}")


def _eval_args(
    pending: list[Expression],
    done: list[Expression],
    renv: _Renv,
    gen: FreshNames,
    finish: Callable[[list[Expression]], Process],
) -> Process:
    """Evaluate expressions left to right, then build the final process.

    Atom expressions pass through; each call is given a fresh one-slot
    reply channel whose rule carries on with the remaining evaluation.
    """
    if not pending:
        return finish(done)
    e, rest = pending[0], pending[1:]
    if is_atom_expr(e):
        return _eval_args(rest, done + [e], renv, gen, finish)
    if isinstance(e, SyncCall):
        k, res = gen.fresh("k"), gen.fresh("r")
        cont = _eval_args(rest, done + [NameRef(res)], renv, gen, finish)
        return LocalDef(Rule(MsgPat(k, (res,)), cont), _emit_call(e, k, renv, gen))
    if isinstance(e, ExprDef):
        scoped = renv.shadow(set(def_channels(e.defs)))
        return LocalDef(_defs(e.defs, scoped, gen), _eval_args([e.body] + rest, done, scoped, gen, finish))
    raise TypeError(f"not an expression: {e!r}")


def _emit_call(call: SyncCall, k: Name, renv: _Renv, gen: FreshNames) -> Process:
    return _eval_args(
        list(call.args), [], renv, gen,
        lambda atoms: Message(call.channel, tuple(atoms) + (NameRef(k),)),
    )


def _bind(xs: tuple[Name, ...], e: Expression, body: Process, renv: _Renv, gen: FreshNames) -> Process:
    """``let xs = e in body``, ``body`` already compiled; with no binders this
    is ``e; body``, which runs ``e`` for its effect only."""
    if is_atom_expr(e):
        if not xs:
            return body
        if len(xs) != 1:
            raise DesugarError(f"let of an atom expression binds exactly one name, got {len(xs)}")
        k = gen.fresh("k")
        return LocalDef(Rule(MsgPat(k, xs), body), Message(k, (e,)))
    if isinstance(e, SyncCall):
        k = gen.fresh("k")
        return LocalDef(Rule(MsgPat(k, xs), body), _emit_call(e, k, renv, gen))
    if isinstance(e, ExprDef):
        scoped = renv.shadow(set(def_channels(e.defs)))
        return LocalDef(_defs(e.defs, scoped, gen), _bind(xs, e.body, body, scoped, gen))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# decidable fragment


@dataclass
class FragmentReport:
    """Outcome of the no-name-generation fragment check.

    ``in_fragment`` holds exactly when ``violations`` is empty.  Programs in
    the fragment activate all their definitions up front and never mint new
    channels or atoms afterwards, which is what makes exhaustive analysis
    complete for them.
    """

    violations: list[tuple[str, str]] = field(default_factory=list)

    @property
    def in_fragment(self) -> bool:
        return not self.violations


def check_core_fragment(p: Process) -> FragmentReport:
    report = FragmentReport()
    _walk_fragment(p, "", False, report)
    return report


def _walk_fragment(t: Term, path: str, in_rule_body: bool, rep: FragmentReport) -> None:
    match t:
        case Message(_, args):
            for i, a in enumerate(args):
                _walk_expr(a, f"{path}.arg[{i}]", in_rule_body, rep)
        case LocalDef(d, body):
            if in_rule_body:
                rep.violations.append((path, "nested-definition"))
            for i, r in enumerate(rules_of(d)):
                for a in pattern_atoms(r.pattern):
                    if isinstance(a, CallPat):
                        rep.violations.append((f"{path}.rule[{i}]", "synchronous-call"))
                _walk_fragment(r.body, f"{path}.rule[{i}].body", True, rep)
            _walk_fragment(body, f"{path}.in", in_rule_body, rep)
        case Parallel(l, r):
            _walk_fragment(l, f"{path}.par[0]", in_rule_body, rep)
            _walk_fragment(r, f"{path}.par[1]", in_rule_body, rep)
        case Null() | Hole():
            pass
        case Sequence(e, rest):
            rep.violations.append((path, "fresh-requiring-desugar"))
            _walk_expr(e, f"{path}.expr", in_rule_body, rep)
            _walk_fragment(rest, f"{path}.rest", in_rule_body, rep)
        case Let(_, e, body):
            rep.violations.append((path, "let-binding"))
            _walk_expr(e, f"{path}.expr", in_rule_body, rep)
            _walk_fragment(body, f"{path}.in", in_rule_body, rep)
        case Return(vals, _):
            rep.violations.append((path, "return"))
            for i, v in enumerate(vals):
                _walk_expr(v, f"{path}.val[{i}]", in_rule_body, rep)
        case Conditional(a, b, then, orelse):
            _walk_expr(a, f"{path}.lhs", in_rule_body, rep)
            _walk_expr(b, f"{path}.rhs", in_rule_body, rep)
            _walk_fragment(then, f"{path}.then", in_rule_body, rep)
            _walk_fragment(orelse, f"{path}.else", in_rule_body, rep)
        case _:
            raise TypeError(f"not a process: {t!r}")


def _walk_expr(e: Expression, path: str, in_rule_body: bool, rep: FragmentReport) -> None:
    match e:
        case NameRef() | Lit():
            pass
        case Concat(l, r):
            # atom construction at reaction time mints unbounded new atoms
            if in_rule_body and not (isinstance(l, Lit) and isinstance(r, Lit)):
                rep.violations.append((path, "fresh-requiring-desugar"))
            _walk_expr(l, f"{path}.l", in_rule_body, rep)
            _walk_expr(r, f"{path}.r", in_rule_body, rep)
        case Proj(inner, _):
            if in_rule_body and not isinstance(inner, Lit):
                rep.violations.append((path, "fresh-requiring-desugar"))
            _walk_expr(inner, f"{path}.e", in_rule_body, rep)
        case SyncCall(_, args):
            rep.violations.append((path, "synchronous-call"))
            for i, a in enumerate(args):
                _walk_expr(a, f"{path}.arg[{i}]", in_rule_body, rep)
        case ExprDef(_, body):
            rep.violations.append((path, "nested-definition"))
            _walk_expr(body, f"{path}.in", in_rule_body, rep)
        case _:
            raise TypeError(f"not an expression: {e!r}")

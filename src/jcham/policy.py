"""Containment analysis: non-infection, isolation, token policies.

Non-infection is the integrity reading of non-interference: running a
process inside a stable environment must not change how the environment
behaves for any harmless test process afterwards.  Behaviour is compared
as depth-bounded sets of observable emission sequences (messages on
published channels or on channels nothing defines), so every verdict is
explicit about the equivalence strength used: ``satisfied_to_depth(k)``.

Isolation classifies each definition of an environment by what it lets a
plugged process do to resources; write or create access anywhere means
non-infection cannot be guaranteed.  Token policies rewrite an environment
so that guarded channels check a non-forgeable token first, spatially or
with a bounded use count; enforcement is sound exactly when the guarded
environment without any token distributor satisfies non-infection against
a battery of tokenless probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, count
from typing import Dict, List, Optional, Sequence as Seq, Tuple, Union

from .contexts import Context, ContextError, TokenGuard, _validate, defined_bases, plug
from .engine import (
    BudgetExhausted,
    GroundMessage,
    ModelError,
    Redex,
    Rules,
    Soup,
    atom_contains,
    enabled_redexes,
    eval_atom,
    graft,
    inject,
    quiescent,
    search,
)
from .parser import atom_source, parse, parse_definition
from .syntax import (
    Atom,
    CallPat,
    Let,
    LocalDef,
    Message,
    MsgPat,
    Name,
    Null,
    Pair,
    Parallel,
    Process,
    Rule,
    Sequence,
    SyncCall,
    conj_of,
    cons_list,
    free_names,
    is_atom_expr,
    name_sets,
    pattern_atoms,
    rules_of,
    subterms,
)


class UnstableContext(Exception):
    pass


class InfectingTest(Exception):
    pass


class UnknownChannel(ContextError):
    """A policy names a channel the context does not publish."""


# ---------------------------------------------------------------------------
# definition classification


READ_ONLY = "I.1"
RESOURCE_WRITE = "I.2"
RESOURCE_EXEC = "I.3"
SERVICE_PLAIN = "II.1"
SERVICE_WRITE = "II.2"
SERVICE_EXEC = "II.3"
SERVICE_EXEC_UNRESOLVED = "II.3-unresolved"


@dataclass
class IsolationReport:
    """Per-definition intrusion classification of an environment."""

    classifications: List[Tuple[str, str]] = field(default_factory=list)
    isolation_holds: bool = False

    def kinds(self) -> set[str]:
        return {k for _, k in self.classifications}


def _top_rules(ctx: Context) -> List[Rule]:
    t = ctx.template
    if isinstance(t, LocalDef):
        return rules_of(t.defs)
    return []


def _initial_contents(ctx: Context) -> Dict[str, List[Atom]]:
    """Initial content atoms per internal state channel base."""
    out: Dict[str, List[Atom]] = {}
    # a stack, not a recursive closure (a reference cycle on every call)
    stack = [ctx.template]
    while stack:
        match stack.pop():
            case Message(ch, args):
                if len(args) >= 1 and is_atom_expr(args[0]):
                    try:
                        out.setdefault(ch.base, []).append(eval_atom(args[0]))
                    except ModelError:
                        pass
            case Parallel(l, r):
                stack += (r, l)
            case LocalDef(_, body) | Let(_, _, body) | Sequence(_, body):
                stack.append(body)
    return out


@dataclass
class _RuleShape:
    """A rule's heads split into state heads (channels its body re-emits,
    holding stored content) and access heads (requests)."""

    state_heads: List[Union[MsgPat, CallPat]]
    access_heads: List[Union[MsgPat, CallPat]]
    chans: set[Name]  # channels the body uses in channel position
    stores_access: bool  # some access binder is stored back into state


def _rule_shape(rule: Rule) -> _RuleShape:
    chans: set[Name] = set()
    emissions: List[Message] = []
    for t in subterms(rule.body):
        if isinstance(t, (Message, SyncCall)):
            chans.add(t.channel)
        if isinstance(t, Message):
            emissions.append(t)
    emitted_bases = {m.channel.base for m in emissions}
    heads = pattern_atoms(rule.pattern)
    state_heads = [h for h in heads if h.channel.base in emitted_bases]
    access_heads = [h for h in heads if h not in state_heads]
    state_bases = {h.channel.base for h in state_heads}
    access_binders = {b for h in access_heads for b in h.binders}
    stores_access = any(
        m.channel.base in state_bases and any(free_names(a) & access_binders for a in m.args) for m in emissions
    )
    return _RuleShape(state_heads, access_heads, chans, stores_access)


def _classify_rule(rule: Rule, ctx: Context, contents: Dict[str, List[Atom]], abstractions: Dict[str, Rule], seen: set[str]) -> str:
    if ctx.dynamic_resource_bases & defined_bases(rule.body):
        return SERVICE_WRITE  # activates storage behind published dynamic channels
    shape = _rule_shape(rule)
    r_bases = ctx.resources | ctx.dynamic_resource_bases
    state_binders = {b for h in shape.state_heads for b in h.binders}
    access_binders = {b for h in shape.access_heads for b in h.binders}
    is_resource = any(h.channel.base in r_bases for h in shape.access_heads)
    executed = shape.chans & (state_binders | access_binders)

    if shape.state_heads and is_resource:
        # handing stored content to an executing service is execution too
        if (executed & state_binders) or _delegated_to_exec(rule.body, state_binders, _exec_access_bases(ctx)):
            return _chase_exec(rule, ctx, contents, abstractions, shape.state_heads, seen)
        return RESOURCE_WRITE if shape.stores_access else READ_ONLY

    # service definition
    uses = {c.base for c in shape.chans}
    if uses & _write_access_bases(ctx) or uses & {"mk_res", "mk_file", "new"}:
        return SERVICE_WRITE
    if executed:
        return SERVICE_EXEC_UNRESOLVED
    return SERVICE_PLAIN


def _delegated_to_exec(body: Process, state_binders: set[Name], exec_bases: frozenset[str]) -> bool:
    return any(
        isinstance(t, (Message, SyncCall))
        and t.channel.base in exec_bases
        and any(free_names(a) & state_binders for a in t.args)
        for t in subterms(body)
    )


def _chase_exec(rule: Rule, ctx: Context, contents, abstractions, state_heads, seen: set[str]) -> str:
    """Exec access: the verdict depends on what the stored content does."""
    for h in state_heads:
        for atom in contents.get(h.channel.base, []):
            if isinstance(atom, Name) and atom.base in abstractions:
                if atom.base in seen:
                    return SERVICE_EXEC_UNRESOLVED  # cycle
                sub = _classify_rule(abstractions[atom.base], ctx, contents, abstractions, seen | {atom.base})
                if sub in (RESOURCE_WRITE, SERVICE_WRITE, SERVICE_EXEC_UNRESOLVED):
                    return SERVICE_EXEC_UNRESOLVED
    return RESOURCE_EXEC


def _write_access_bases(ctx: Context) -> set[str]:
    """Resource access channels that can change stored state, derived from
    the resource rules themselves."""
    # file-system style name-indexed commands mutate state through dispatch
    out = set(ctx.services & {"write", "new", "delete", "move", "preempt"})
    r_bases = ctx.resources | ctx.dynamic_resource_bases
    for rule in _top_rules(ctx):
        shape = _rule_shape(rule)
        if shape.stores_access:
            out.update(h.channel.base for h in shape.access_heads if h.channel.base in r_bases)
    return out


def _exec_access_bases(ctx: Context) -> frozenset[str]:
    return ctx.exec_bases | (ctx.services & {"execute", "proc_exec"})


def classify_context(ctx: Context) -> IsolationReport:
    """Walk every definition and classify it according to what it lets a
    plugged process reach; isolation holds when nothing can write or create,
    and every exec chain bottoms out in read-only or plain-service cases."""
    contents = _initial_contents(ctx)
    abstractions: Dict[str, Rule] = {}
    for r in _top_rules(ctx):
        heads = pattern_atoms(r.pattern)
        if len(heads) == 1:
            abstractions[heads[0].channel.base] = r
    report = IsolationReport()
    ok = True
    for r in _top_rules(ctx):
        label = "&".join(str(h.channel) for h in pattern_atoms(r.pattern))
        kind = _classify_rule(r, ctx, contents, abstractions, set())
        report.classifications.append((label, kind))
        if kind in (RESOURCE_WRITE, SERVICE_WRITE, SERVICE_EXEC_UNRESOLVED):
            ok = False
    report.isolation_holds = ok
    return report


# ---------------------------------------------------------------------------
# observable traces and non-infection


@dataclass(frozen=True)
class Observation:
    channel: str
    args: tuple

    def __str__(self) -> str:
        return f"{self.channel}<{', '.join(map(str, self.args))}>"


def _normalize_atom(a: Atom):
    if isinstance(a, Name):
        return a.base
    if isinstance(a, Pair):
        return (_normalize_atom(a.first), _normalize_atom(a.second))
    return a


def _observable(soup: Soup, ctx: Context, m: GroundMessage) -> bool:
    base = m.channel.base
    if base in ctx.services or base in ctx.resources:
        return True
    return not any(r.defines(base) for r in soup.rules)


def observable_traces(soup: Soup, ctx: Context, depth: int, max_paths: int = 20_000) -> frozenset:
    """All sequences of observable emissions along reductions of length
    <= depth, as a set (the bounded trace semantics used for equivalence).
    Raises :class:`BudgetExhausted` when more than ``max_paths`` (state,
    sequence) pairs are reached."""

    def observe(obs: tuple, r: Redex, s2: Soup, emitted: List[GroundMessage]) -> tuple:
        return obs + tuple(
            Observation(m.channel.base, tuple(_normalize_atom(a) for a in m.args))
            for m in emitted
            if _observable(s2, ctx, m)
        )

    out: set[tuple] = {()}
    search([soup], max_paths, horizon=depth, label=observe, root_label=(), visit=lambda e: out.add(e.label))
    return frozenset(out)


@dataclass
class NonInfectionVerdict:
    outcome: str  # "satisfied_to_depth" | "violated" | "budget_exhausted"
    depth: int
    distinguishing: Optional[Tuple[Process, tuple, tuple]] = None
    notes: List[str] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return self.outcome == "satisfied_to_depth"


def check_test_harmless(ctx: Context, test: Process) -> None:
    """A test may only read and call plain services; anything that writes,
    creates or executes makes it useless as a witness and is rejected."""
    mutating = _write_access_bases(ctx) | _exec_access_bases(ctx)
    used = {n.base for n in free_names(test)}
    bad = used & mutating
    if bad:
        raise InfectingTest(f"test process uses mutating channels: {sorted(bad)}")


def non_infection_test(
    ctx: Context,
    p: Process,
    tests: Seq[Process],
    depth: int = 6,
    quiescence_budget: int = 600,
) -> NonInfectionVerdict:
    """Compare the environment before and after hosting ``p``, through the
    eyes of each test process, on observable traces bounded by ``depth``;
    ``p`` is evolved to every quiescent state any of its runs reaches, and
    the outcome is ``violated`` when a test tells one of them apart.  It is
    ``budget_exhausted`` when a trace set grows past its budget, or when
    that evolution visits more than ``quiescence_budget`` states or reaches
    no quiescent state.  Raises ``ValueError`` when ``tests`` is empty:
    nothing would be compared, and ``satisfied_to_depth`` would hold
    vacuously."""
    root = Rules()  # the starts of this call share their rules values
    _check_harness(ctx, tests, root)
    try:
        return _non_infection(ctx, p, tests, depth, root, quiescence_budget)
    except BudgetExhausted as e:
        return NonInfectionVerdict("budget_exhausted", depth, None, [str(e)])


def _check_harness(ctx: Context, tests: Seq[Process], root: Rules) -> None:
    """Refuse a context that reacts with nothing plugged in, an empty test
    list and a test that could infect; none of it depends on the process
    under test.  The empty context is injected over ``root``."""
    if enabled_redexes(inject(ctx.plug(Null()), root)):
        raise UnstableContext("the environment reacts without any plugged process")
    if not tests:
        raise ValueError("no test process: a non-infection test would compare nothing")
    for t in tests:
        check_test_harmless(ctx, t)


def _non_infection(
    ctx: Context,
    p: Process,
    tests: Seq[Process],
    depth: int,
    root: Rules,
    quiescence_budget: int = 600,
    baselines: Optional[dict] = None,
):
    """``non_infection_test`` once ``_check_harness`` has passed, with a
    tripped budget raised, not reported.  ``baselines`` keeps each test's
    trace set without ``p`` across the calls that share it; those sets do
    not depend on ``p``.  The starts are injected over ``root``, which the
    caller scopes to one check, so that equal rules share one value."""
    try:
        evolved = quiescent([inject(ctx.plug(p), root)], quiescence_budget)
    except BudgetExhausted:
        evolved = []
    if not evolved:  # a tripped budget, or no run that stops
        raise BudgetExhausted("quiescence_budget", quiescence_budget)
    baselines = {} if baselines is None else baselines
    for t in tests:
        if t not in baselines:
            baselines[t] = observable_traces(inject(ctx.plug(t), root), ctx, depth)
        ta = baselines[t]
        for state in evolved:
            tb = observable_traces(graft(state, t), ctx, depth)
            if ta != tb:
                only_a = tuple(sorted(ta - tb, key=str))[:4]
                only_b = tuple(sorted(tb - ta, key=str))[:4]
                return NonInfectionVerdict("violated", depth, (t, only_a, only_b))
    return NonInfectionVerdict("satisfied_to_depth", depth)


# ---------------------------------------------------------------------------
# token policies


def tokenize_context(ctx: Context, guard: TokenGuard) -> Context:
    """Rewrite the guarded channels to require a valid token first.

    The token is a channel name minted by the environment itself, so it
    cannot be forged from outside; a caller without it supplies some other
    atom, the equality check fails, and the request dies while internal
    state is restored.  Counted mode shares one decrementing use counter
    across all guarded channels; at zero even valid tokens stop working.
    A context is tokenized at most once.

    A guarded rule gains a token binder, and in counted mode a counter
    binder: ``tk`` and ``uc``, or the first of ``tk1``, ``tk2``, … (``uc1``,
    …) that the rule does not use, so neither captures a name of its body.
    :class:`ContextError` refuses a context that already uses a name the
    guard adds (the token base, and ``uses_left`` in counted mode), and in
    counted mode a guarded rule that binds ``nil``, the counter's end.
    """
    published = ctx.services | ctx.resources
    for g in guard.guarded:
        if g not in published:
            raise UnknownChannel(f"cannot guard unpublished channel {g}")
    if ctx.guard is not None:
        raise ContextError(f"context is already tokenized (guarding {','.join(ctx.guard.guarded)})")
    if not isinstance(ctx.template, LocalDef):
        raise UnknownChannel("environment has no definitions to guard")

    tok = atom_source(Name(guard.token_base), ContextError)
    counted = guard.mode == "counted"
    added = {guard.token_base, "uses_left"} if counted else {guard.token_base}
    ns = name_sets(ctx.template)
    clash = added & {n.base for n in ns.dv | ns.rv | ns.fv}
    if clash:
        raise ContextError(f"the context already uses {min(clash)}, a name the token guard adds")

    def guard_rule(rule: Rule) -> Rule:
        heads = pattern_atoms(rule.pattern)
        target = next((h for h in heads if h.channel.base in guard.guarded), None)
        if target is None:
            return rule
        ns = name_sets(rule)
        bound = {n.base for n in ns.dv | ns.rv}
        if counted and "nil" in bound:
            raise ContextError(f"guarded rule on {target.channel.base} binds nil, the end of the use counter")
        used = bound | {n.base for n in ns.fv} | added
        tk = _unused("tk", used)
        uc = _unused("uc", used | {tk})
        # the rule as text, with a hole where its body goes
        pattern = [
            _head_source(h.channel, ((Name(tk),) if h is target else ()) + h.binders, isinstance(h, CallPat))
            for h in heads
        ]
        restore = [_head_source(h.channel, h.binders) for h in heads if h is not target]
        run = [] if isinstance(rule.body, Null) else ["HOLE"]
        if counted:
            pattern.append(f"uses_left<{uc}>")
            restore.append(f"uses_left<{uc}>")
            run.append(f"uses_left<snd({uc})>")
        denied, granted = " | ".join(restore) or "0", " | ".join(run) or "0"
        if counted:  # no use left: the token is denied too
            granted = f"if [{uc} = nil] then ({denied}) else ({granted})"
        written = parse_definition(f"{' | '.join(pattern)} |> if [{tk} = {tok}] then ({granted}) else ({denied})")
        return written if isinstance(rule.body, Null) else Rule(written.pattern, plug(written.body, rule.body))

    rules = [guard_rule(r) for r in _top_rules(ctx)]
    rules.append(parse_definition(f"{tok}<> |> 0"))
    body = ctx.template.body
    if counted:
        uses = atom_source(cons_list([Name("use")] * guard.count), ContextError)
        body = plug(parse(f"uses_left<{uses}> | HOLE"), body)
    template = LocalDef(conj_of(rules), body)
    return _validate(replace(ctx, template=template, privileged=ctx.privileged | added, guard=guard))


def _unused(base: str, used: set[str]) -> str:
    """``base``, or the first of ``base1``, ``base2``, … not in ``used``."""
    return next(b for b in chain([base], (f"{base}{i}" for i in count(1))) if b not in used)


def _head_source(channel: Name, names: Seq[Name], call: bool = False) -> str:
    """``channel<names>`` in concrete syntax, or ``channel(names)`` for a
    call pattern."""
    ch, args = atom_source(channel, ContextError), ", ".join(atom_source(n, ContextError) for n in names)
    return f"{ch}({args})" if call else f"{ch}<{args}>"


def add_token_distributor(ctx: Context, channel: str = "get_token") -> Context:
    """Install the token distribution service; after this, anything plugged
    in can acquire the token, so enforcement rests only on the checks."""
    if ctx.guard is None:
        raise UnknownChannel("context has no token guard to distribute for")
    if not isinstance(ctx.template, LocalDef):
        raise UnknownChannel("environment has no definitions")
    tok, ch = atom_source(Name(ctx.guard.token_base), ContextError), atom_source(Name(channel), ContextError)
    rules = _top_rules(ctx) + [parse_definition(f"{ch}() |> return {tok} to {ch}")]
    return replace(
        ctx,
        template=LocalDef(conj_of(rules), ctx.template.body),
        services=ctx.services | {channel},
        guard=replace(ctx.guard, distributor_base=channel),
    )


def _probe_battery(ctx: Context) -> List[Process]:
    """One write probe and one exec probe per guarded channel, without the
    token (they pass an inert atom where the token belongs)."""
    probes: List[Process] = []
    guarded = ctx.guard.guarded if ctx.guard is not None else tuple(
        sorted(_write_access_bases(ctx) & ctx.resources)
    )
    wrong = "not_the_token, " if ctx.guard is not None else ""
    for g in guarded:
        probes.append(parse(f"{atom_source(Name(g), ContextError)}({wrong}probe_val); probe_done<>"))
        exec_base = "se" + g[2:] if g.startswith("sw") else None
        if exec_base and exec_base in ctx.exec_bases:
            probes.append(parse(f"{atom_source(Name(exec_base), ContextError)}({wrong}probe_arg); probe_done<>"))
    return probes


def _reader_tests(ctx: Context) -> List[Process]:
    """Read-only witnesses: sample each readable channel and report."""
    tests: List[Process] = []
    read_bases = sorted(b for b in ctx.resources if b.startswith(("sr", "fsr")) or b.endswith("_read"))
    for rb in read_bases[:3]:
        if ctx.guard is not None and rb in ctx.guard.guarded:
            continue
        tests.append(parse(f"let x = {atom_source(Name(rb), ContextError)}() in observed<x>"))
    if not tests:
        tests.append(parse("observed<nothing>"))
    return tests


def enforcement_sound(ctx_guarded: Context, depth: int = 6) -> bool:
    """True when tokenless probes cannot distinguish the environment from an
    untouched one, i.e. the checks cannot be bypassed without the token.
    Raises :class:`BudgetExhausted` when a comparison runs out of budget,
    and ``ValueError`` when there is no probe (no guarded channel and no
    write-access resource): ``True`` would then hold vacuously.  The
    context's stability and the tests' harmlessness are checked once,
    before any probe runs."""
    tests = _reader_tests(ctx_guarded)
    guard = ctx_guarded.guard
    if guard is not None and guard.distributor_base in ctx_guarded.services and guard.guarded:
        # a published distributor defeats the point: an acquiring probe gets
        # the token and writes
        dist, g = (atom_source(Name(c), ContextError) for c in (guard.distributor_base, guard.guarded[0]))
        probes = [parse(f"let t = {dist}() in {g}(t, probe_val); probe_done<>")]
    else:
        probes = _probe_battery(ctx_guarded)
        if not probes:
            raise ValueError("no probe: the context has no guarded channel and no write-access resource")
    # each test's trace set without a probe, and the root of every start,
    # for this call
    baselines: dict = {}
    root = Rules()
    _check_harness(ctx_guarded, tests, root)
    return all(_non_infection(ctx_guarded, probe, tests, depth, root, baselines=baselines).satisfied for probe in probes)


def token_leak_free(ctx_guarded: Context, depth: int = 6, max_states: int = 4000) -> bool:
    """No reachable state shows the token on a published channel, alone or
    inside a pair, when a tokenless probe runs inside: neither the start
    soup nor a message emitted within ``depth`` reductions.  Raises
    :class:`BudgetExhausted` when ``max_states`` trips before ``depth`` is
    covered."""
    if ctx_guarded.guard is None:
        return True
    tok = Name(ctx_guarded.guard.token_base)
    published = ctx_guarded.services | ctx_guarded.resources

    def leak(msgs) -> bool:
        return any(m.channel.base in published and any(atom_contains(tok, a) for a in m.args) for m in msgs)

    def leaks(start: Soup) -> bool:
        shown = leak(start.messages)
        return shown or search([start], max_states, horizon=depth, visit=lambda e: leak(e.emitted) or None) is not None

    return not any(leaks(inject(ctx_guarded.plug(probe))) for probe in _probe_battery(ctx_guarded))

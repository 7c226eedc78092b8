"""System environment templates: processes with a hole.

An environment provides services (request/reply definitions) and resources
(state stored on internal channels behind access definitions).  A template
never reacts on its own; everything it does is a response to messages from
the process plugged into its hole.

Builders here follow a naming convention that keeps runtime channels
addressable: every instance gets its own base name (``sw1``, ``sw2``,
``content1`` ...), so after activation a base identifies one channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence as Seq

from .syntax import (
    Atom,
    CallPat,
    Conditional,
    ExprDef,
    Hole,
    Let,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    Null,
    Parallel,
    PatJoin,
    Process,
    Return,
    Rule,
    Sequence,
    SyncCall,
    conj_of,
    cons_list,
    def_dv,
    par,
    pretty,
    rules_of,
    subterms,
)
from .parser import parse


class ContextError(Exception):
    pass


class DuplicateLabel(ContextError):
    pass


class ArityMismatch(ContextError):
    pass


@dataclass(frozen=True)
class ResourceSpec:
    """A storage brick: static resources read/write, executable ones also run."""

    label: str
    kind: str = "static"  # "static" | "executable"
    initial: Atom = Name("empty")

    def __post_init__(self):
        if self.kind not in ("static", "executable"):
            raise ContextError(f"unknown resource kind {self.kind!r}")


@dataclass(frozen=True)
class TokenGuard:
    """Recorded when a context has been rewritten for token checking."""

    token_base: str
    mode: str  # "spatial" | "counted"
    count: int = 0
    guarded: tuple[str, ...] = ()
    distributor_base: Optional[str] = None


@dataclass(frozen=True)
class Context:
    """A process with exactly one hole plus its published channel sets."""

    template: Process
    services: frozenset[Name] = frozenset()
    resources: frozenset[Name] = frozenset()
    privileged: frozenset[Name] = frozenset()
    exports: frozenset[str] = frozenset()
    dynamic_resource_bases: frozenset[str] = frozenset()
    exec_bases: frozenset[str] = frozenset()
    guard: Optional[TokenGuard] = None

    def plug(self, p: Process) -> Process:
        return plug(self.template, p)

    def service_bases(self) -> frozenset[str]:
        return frozenset(n.base for n in self.services)

    def resource_bases(self) -> frozenset[str]:
        return frozenset(n.base for n in self.resources)


def defined_bases(p: Process) -> frozenset[str]:
    """Bases of every channel some definition inside ``p`` defines."""
    return frozenset(
        n.base for t in subterms(p) if isinstance(t, (LocalDef, ExprDef)) for n in def_dv(t.defs)
    )


def count_holes(p: Process) -> int:
    return sum(isinstance(t, Hole) for t in subterms(p))


def plug(template: Process, filler: Process) -> Process:
    """Replace the hole; deliberately *not* capture-avoiding, since the
    point of a context is to bind the plugged process's free names."""

    filled = []

    def go(t: Process) -> Process:
        match t:
            case Hole():
                filled.append(t)
                return filler
            case LocalDef(d, body):
                rules = [Rule(r.pattern, go(r.body)) for r in rules_of(d)]
                return LocalDef(conj_of(rules), go(body))
            case Parallel(l, r):
                return Parallel(go(l), go(r))
            case Sequence(e, rest):
                return Sequence(e, go(rest))
            case Let(xs, e, body):
                return Let(xs, e, go(body))
            case Conditional(a, b, th, el):
                return Conditional(a, b, go(th), go(el))
            case _:
                return t

    if count_holes(template) != 1:
        raise ContextError("template must contain exactly one hole")
    plugged = go(template)
    if not filled:
        raise ContextError("the hole sits inside an expression, where nothing can be plugged")
    return plugged


def _validate(ctx: Context) -> Context:
    if count_holes(ctx.template) != 1:
        raise ContextError("template must contain exactly one hole")
    if ctx.services & ctx.resources:
        raise ContextError("a channel cannot be both service and resource")
    if ctx.privileged & (ctx.services | ctx.resources):
        raise ContextError("privileged channels must stay unpublished")
    defined = defined_bases(ctx.template)
    for n in ctx.services | ctx.resources:
        if n.base not in defined:
            raise ContextError(f"published channel {n} is not defined by the template")
    return ctx


# ---------------------------------------------------------------------------
# small AST helpers used by all builders


def _n(s: str) -> Name:
    return Name(s)


def _ref(s: str) -> NameRef:
    return NameRef(_n(s))


def _join(*pats) -> object:
    out = pats[0]
    for p in pats[1:]:
        out = PatJoin(out, p)
    return out


def _call(ch: str, *args) -> SyncCall:
    return SyncCall(_n(ch), tuple(args))


def _do(call: SyncCall, rest: Process = Null()) -> Process:
    return Sequence(call, rest)


# ---------------------------------------------------------------------------
# basic service/resource context


def service_rule(channel: Name, fn: Name, arity: int = 1) -> Rule:
    """``channel(a1..an) |> return fn(a1..an) to channel``"""
    binders = tuple(Name(f"a{i}") for i in range(1, arity + 1))
    return Rule(
        CallPat(channel, binders),
        Return((SyncCall(fn, tuple(NameRef(b) for b in binders)),), channel),
    )


def resource_rules(spec: ResourceSpec, read: Name, write: Name, execute: Optional[Name], content: Name, runner: Optional[Name] = None) -> list[Rule]:
    """Access definitions around one internal ``content`` channel.

    When ``runner`` is given, execution is delegated to it (the executing
    service updates the active-process pointer before the content runs);
    otherwise the content is applied directly.
    """
    f, fnew, arg = Name("f"), Name("fnew"), Name("arg")
    rules = [
        Rule(
            _join(CallPat(write, (fnew,)), MsgPat(content, (f,))),
            Parallel(Return((), write), Message(content, (NameRef(fnew),))),
        ),
        Rule(
            _join(CallPat(read, ()), MsgPat(content, (f,))),
            Parallel(Return((NameRef(f),), read), Message(content, (NameRef(f),))),
        ),
    ]
    if spec.kind == "executable":
        assert execute is not None
        if runner is not None:
            body = Return((SyncCall(runner, (NameRef(f), NameRef(arg))),), execute)
        else:
            body = Return((SyncCall(f, (NameRef(arg),)),), execute)
        rules.append(
            Rule(
                _join(CallPat(execute, (arg,)), MsgPat(content, (f,))),
                Parallel(body, Message(content, (NameRef(f),))),
            )
        )
    return rules


def managed_execution_rules() -> list[Rule]:
    """``proc_exec(p, a)`` records ``p`` as the active process on the
    internal ``current`` channel, then runs it; ``sys_updt`` sets and
    ``sys_ref`` reads that pointer."""
    p_, a_, rn, rc = Name("p"), Name("a"), Name("rnew"), Name("rcur")
    return [
        Rule(
            CallPat(_n("proc_exec"), (p_, a_)),
            Sequence(
                SyncCall(_n("sys_updt"), (NameRef(p_),)),
                Return((SyncCall(p_, (NameRef(a_),)),), _n("proc_exec")),
            ),
        ),
        Rule(
            _join(CallPat(_n("sys_updt"), (rn,)), MsgPat(_n("current"), (rc,))),
            Message(_n("current"), (NameRef(rn),)),
        ),
        Rule(
            _join(CallPat(_n("sys_ref"), ()), MsgPat(_n("current"), (rc,))),
            Parallel(Message(_n("current"), (NameRef(rc),)), Return((NameRef(rc),), _n("sys_ref"))),
        ),
    ]


def base_context(services: Seq[tuple[Name, Name]] = (), resources: Seq[ResourceSpec] = ()) -> Context:
    """Environment with plain execution-server services and storage resources.

    ``services`` pairs a published channel with the function it applies.
    Resource access channels are named ``<label>_read``/``_write``/``_exec``.
    """
    labels = [r.label for r in resources]
    if len(labels) != len(set(labels)):
        raise DuplicateLabel(f"resource labels must be distinct: {labels}")
    svc_names = [s for s, _ in services]
    if len(svc_names) != len(set(svc_names)):
        raise DuplicateLabel("service names must be distinct")

    rules: list[Rule] = [service_rule(ch, fn) for ch, fn in services]
    initial: list[Process] = []
    r_set: set[Name] = set()
    priv: set[Name] = set()
    for spec in resources:
        read, write = Name(f"{spec.label}_read"), Name(f"{spec.label}_write")
        execute = Name(f"{spec.label}_exec") if spec.kind == "executable" else None
        content = Name(f"{spec.label}_content")
        rules.extend(resource_rules(spec, read, write, execute, content))
        initial.append(Message(content, (_embed(spec.initial),)))
        r_set.update({read, write} | ({execute} if execute else set()))
        priv.add(content)

    body = par(*initial, Hole())
    template: Process = LocalDef(conj_of(rules), body) if rules else body
    return _validate(
        Context(
            template=template,
            services=frozenset(svc_names),
            resources=frozenset(r_set),
            privileged=frozenset(priv),
            exec_bases=frozenset(n.base for n in r_set if n.base.endswith("_exec")),
        )
    )


def _embed(a: Atom):
    from .syntax import embed_atom

    return embed_atom(a)


# ---------------------------------------------------------------------------
# refined replication environment


def refined_context(n: int, initial: Optional[Seq[Atom]] = None) -> Context:
    """Environment with managed execution, a self-reference service, a copy
    service and ``n`` executable target resources.

    * ``proc_exec(p, a)`` runs a program abstraction and keeps the active
      process pointer (the internal ``current`` channel) up to date;
    * ``sys_ref()`` returns the pointer, ``sys_updt`` stays internal;
    * ``sys_rep(in, out)`` copies ``in`` to the ``out`` channel;
    * target ``i`` exposes ``sr<i>``/``sw<i>``/``se<i>`` around
      ``content<i>``; execution routes through ``proc_exec``;
    * ``mk_res(f0)`` builds a fresh target at run time and returns its
      access channels.
    """
    if n < 1:
        raise ContextError("need at least one target resource")
    if initial is None:
        initial = [Name(f"f{i}") for i in range(1, n + 1)]
    if len(initial) != n:
        raise ArityMismatch(f"expected {n} initial contents, got {len(initial)}")

    in_, out_ = Name("inp"), Name("out")
    d_rep = Rule(
        CallPat(_n("sys_rep"), (in_, out_)),
        Return((SyncCall(_n("sys_copy"), (NameRef(in_), NameRef(out_))),), _n("sys_rep")),
    )
    # the system copy routine forwards its input to the output channel
    d_copy = Rule(CallPat(_n("sys_copy"), (Name("v"), Name("w"))), _do(SyncCall(Name("w"), (NameRef(Name("v")),))))

    rules: list[Rule] = [*managed_execution_rules(), d_rep, d_copy]
    initial_msgs: list[Process] = [Message(_n("current"), (NameRef(Name("null")),))]
    r_set: set[Name] = set()
    priv: set[Name] = {_n("current"), _n("sys_updt"), _n("sys_copy"), _n("mk_res")}
    for i in range(1, n + 1):
        spec = ResourceSpec(label=f"t{i}", kind="executable", initial=initial[i - 1])
        sr, sw, se, content = (Name(f"sr{i}"), Name(f"sw{i}"), Name(f"se{i}"), Name(f"content{i}"))
        rules.extend(resource_rules(spec, sr, sw, se, content, runner=_n("proc_exec")))
        initial_msgs.append(Message(content, (_embed(initial[i - 1]),)))
        r_set.update({sr, sw, se})
        priv.add(content)

    # run-time resource factory: mk_res(f0) returns read/write/exec channels
    f0 = Name("f0")
    dyn_spec = ResourceSpec(label="tgt", kind="executable", initial=Name("empty"))
    inner_rules = resource_rules(
        dyn_spec, _n("tgt_read"), _n("tgt_write"), _n("tgt_exec"), _n("tgt_content"), runner=_n("proc_exec")
    )
    mk_res = Rule(
        CallPat(_n("mk_res"), (f0,)),
        LocalDef(
            conj_of(inner_rules),
            Parallel(
                Message(_n("tgt_content"), (NameRef(f0),)),
                Return((_ref("tgt_read"), _ref("tgt_write"), _ref("tgt_exec")), _n("mk_res")),
            ),
        ),
    )
    rules.append(mk_res)

    template = LocalDef(conj_of(rules), par(*initial_msgs, Hole()))
    return _validate(
        Context(
            template=template,
            services=frozenset({_n("proc_exec"), _n("sys_ref"), _n("sys_rep")}),
            resources=frozenset(r_set),
            privileged=frozenset(priv),
            dynamic_resource_bases=frozenset({"tgt_read", "tgt_write", "tgt_exec"}),
            exec_bases=frozenset({f"se{i}" for i in range(1, n + 1)} | {"tgt_exec"}),
        )
    )


# ---------------------------------------------------------------------------
# two-level worm topology


def worm_topology(remote_handler: Optional[Process] = None) -> Context:
    """A local system nested in a global architecture with a buffered
    communication pair ``snd``/``rcv`` to one remote system.

    The local level provides managed execution, the self-reference service
    and a propagation service ``sys_prop`` that copies its input to an
    output channel (the remote send channel, for a worm).  The remote level
    runs ``remote_handler``, which receives with ``rcv()``; the default
    handler re-emits whatever it gets on ``handled``.
    """
    if remote_handler is None:
        remote_handler = Let((Name("d"),), SyncCall(_n("rcv"), ()), Message(_n("handled"), (_ref("d"),)))

    com = Rule(
        _join(MsgPat(_n("sd"), (Name("m"),)), CallPat(_n("rcv"), ())),
        Return((_ref("m"),), _n("rcv")),
    )

    d_prop = Rule(
        CallPat(_n("sys_prop"), (Name("inp"), Name("out"))),
        Return((SyncCall(_n("prop_copy"), (_ref("inp"), _ref("out"))),), _n("sys_prop")),
    )
    # propagation sends into the one-slot buffer, fire-and-forget
    d_copy = Rule(CallPat(_n("prop_copy"), (Name("v"), Name("w"))), Message(Name("w"), (_ref("v"),)))

    local = LocalDef(
        conj_of([*managed_execution_rules(), d_prop, d_copy]),
        par(Message(_n("current"), (NameRef(Name("null")),)), Hole()),
    )
    template = LocalDef(conj_of([com]), Parallel(remote_handler, local))
    return _validate(
        Context(
            template=template,
            services=frozenset({_n("proc_exec"), _n("sys_ref"), _n("sys_prop")}),
            resources=frozenset(),
            privileged=frozenset({_n("current"), _n("sys_updt"), _n("prop_copy")}),
            exports=frozenset({"sd"}),
        )
    )


# ---------------------------------------------------------------------------
# kernel environment for stealth payloads


def rootkit_kernel(syscalls: Seq[Atom], scbase: Atom = Name("scbase"), attacker: Optional[Process] = None) -> Context:
    """Kernel-style environment: a command pair to the outside, a driver
    loader, a system-call table behind a privileged ``hook`` channel, and an
    allocation service that leaks ``hook`` exactly when asked for the
    table's base address.
    """
    if not syscalls:
        raise ContextError("need at least one system call")

    com = Rule(
        _join(MsgPat(_n("sd"), (Name("m"),)), CallPat(_n("rcv"), ())),
        Return((_ref("m"),), _n("rcv")),
    )
    mdriv = Rule(CallPat(_n("load"), (Name("d"),)), Message(Name("d"), ()))
    t_ = Name("t")
    tsc = [
        Rule(
            _join(CallPat(_n("publish"), ()), MsgPat(_n("table"), (t_,))),
            Parallel(Return((NameRef(t_),), _n("publish")), Message(_n("table"), (NameRef(t_),))),
        ),
        Rule(
            _join(CallPat(_n("hook"), (Name("tnew"),)), MsgPat(_n("table"), (t_,))),
            Message(_n("table"), (_ref("tnew"),)),
        ),
    ]
    alloc = Rule(
        CallPat(_n("alloc"), (Name("b"), Name("s"))),
        Conditional(
            _ref("b"),
            _embed(scbase),
            Return((_ref("hook"),), _n("alloc")),
            Return((_ref("access"),), _n("alloc")),
        ),
    )
    body = par(
        Message(_n("table"), (_embed(cons_list(list(syscalls))),)),
        attacker if attacker is not None else Null(),
        Hole(),
    )
    template = LocalDef(conj_of([com, mdriv, *tsc, alloc]), body)
    return _validate(
        Context(
            template=template,
            services=frozenset({_n("alloc"), _n("publish"), _n("load"), _n("sd"), _n("rcv")}),
            resources=frozenset(),
            privileged=frozenset({_n("hook"), _n("table")}),
        )
    )


# ---------------------------------------------------------------------------
# serialization


def save_context(ctx: Context) -> str:
    """Render a context to ``.jc`` text with a header listing its sets."""
    hdr = "#! services: %s  resources: %s  privileged: %s" % (
        ",".join(sorted(n.base for n in ctx.services)),
        ",".join(sorted(n.base for n in ctx.resources)),
        ",".join(sorted(n.base for n in ctx.privileged)),
    )
    lines = [hdr]
    if ctx.exports:
        lines.append("#! exports: %s" % ",".join(sorted(ctx.exports)))
    if ctx.dynamic_resource_bases:
        lines.append("#! dynamic: %s" % ",".join(sorted(ctx.dynamic_resource_bases)))
    if ctx.exec_bases:
        lines.append("#! exec: %s" % ",".join(sorted(ctx.exec_bases)))
    if ctx.guard is not None:
        g = ctx.guard
        guard = f"#! guard: token={g.token_base} mode={g.mode} count={g.count} guarded={','.join(g.guarded)}"
        lines.append(guard + (f" distributor={g.distributor_base}" if g.distributor_base else ""))
    lines.append(pretty(ctx.template))
    return "\n".join(lines) + "\n"


def _load_guard(text: str) -> TokenGuard:
    try:
        f = dict(item.split("=", 1) for item in text.split())
        guarded = tuple(g for g in f["guarded"].split(",") if g)
        return TokenGuard(f["token"], f["mode"], int(f["count"]), guarded, f.get("distributor"))
    except (KeyError, ValueError) as e:
        raise ContextError(f"malformed guard header {text.strip()!r}") from e


def load_context(text: str) -> Context:
    """Read what :func:`save_context` wrote."""
    fields: dict[str, list[str]] = {}
    guard: Optional[TokenGuard] = None
    body_lines = []
    for line in text.splitlines():
        if not line.startswith("#!"):
            body_lines.append(line)
            continue
        for part in line[2:].split("  "):
            key, sep, vals = part.partition(":")
            if not sep:
                continue
            if key.strip() == "guard":
                guard = _load_guard(vals)
            else:
                fields.setdefault(key.strip(), []).extend(v for v in vals.strip().split(",") if v)

    def bases(key: str) -> frozenset[str]:
        return frozenset(fields.get(key, ()))

    def names(key: str) -> frozenset[Name]:
        return frozenset(Name(v) for v in bases(key))

    return _validate(
        Context(
            template=parse("\n".join(body_lines)),
            services=names("services"),
            resources=names("resources"),
            privileged=names("privileged"),
            exports=bases("exports"),
            dynamic_resource_bases=bases("dynamic"),
            exec_bases=bases("exec"),
            guard=guard,
        )
    )

"""System environment templates: processes with a hole.

An environment provides services (request/reply definitions) and resources
(state stored on internal channels behind access definitions).  A template
never reacts on its own; everything it does is a response to messages from
the process plugged into its hole.

Each template is written in the concrete syntax of ``parser`` and parsed.
Caller-supplied processes and rules are attached as syntax trees, never
printed; caller-supplied names and atoms are written through
``parser.atom_source``, which refuses any that would not read back as
themselves.  Builders follow a naming convention that keeps runtime
channels addressable: every instance gets its own base name (``sw1``,
``sw2``, ``content1`` ...), so after activation a base identifies one
channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence as Seq

from .syntax import (
    Atom,
    Conditional,
    ExprDef,
    Hole,
    Let,
    LocalDef,
    Name,
    Parallel,
    Process,
    Rule,
    Sequence,
    conj_of,
    cons_list,
    def_channels,
    name_sets,
    pattern_atoms,
    pretty,
    rules_of,
    subterms,
)
from .parser import atom_source, parse, parse_definition


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
    """A token policy: which published channels check the token, and how.

    Spatial mode only checks the token; counted mode also shares one
    decrementing counter of ``count`` uses across the guarded channels.
    ``distributor_base`` names the service that hands the token out, once
    one is installed."""

    mode: str = "spatial"  # "spatial" | "counted"
    count: int = 0
    guarded: tuple[str, ...] = ()
    token_base: str = "sectok"
    distributor_base: Optional[str] = None

    def __post_init__(self):
        if self.mode not in ("spatial", "counted"):
            raise ValueError(f"unknown token mode {self.mode!r}")
        if self.mode == "counted" and self.count < 1:
            raise ValueError("counted policy needs a positive count")


@dataclass(frozen=True)
class Context:
    """A process with exactly one hole plus its channel sets, each a set of
    base names: published services and resources, unpublished privileged
    channels, export channels, the bases of resources created at run time,
    and the executing resource channels."""

    template: Process
    services: frozenset[str] = frozenset()
    resources: frozenset[str] = frozenset()
    privileged: frozenset[str] = frozenset()
    exports: frozenset[str] = frozenset()
    dynamic_resource_bases: frozenset[str] = frozenset()
    exec_bases: frozenset[str] = frozenset()
    guard: Optional[TokenGuard] = None

    def plug(self, p: Process) -> Process:
        return plug(self.template, p)


def defined_bases(p: Process) -> frozenset[str]:
    """Bases of every channel some definition inside ``p`` defines."""
    return frozenset(
        n.base for t in subterms(p) if isinstance(t, (LocalDef, ExprDef)) for n in def_channels(t.defs)
    )


def count_holes(p: Process) -> int:
    return sum(isinstance(t, Hole) for t in subterms(p))


def plug(template: Process, filler: Process) -> Process:
    """Replace the hole; deliberately *not* capture-avoiding, since the
    point of a context is to bind the plugged process's free names."""
    if count_holes(template) != 1:
        raise ContextError("template must contain exactly one hole")
    filled: list[Hole] = []
    plugged = _plug(template, filler, filled)
    if not filled:
        raise ContextError("the hole sits inside an expression, where nothing can be plugged")
    return plugged


def _plug(t: Process, filler: Process, filled: list) -> Process:
    # a module function, not a closure: a recursive closure is a reference
    # cycle that only the cyclic collector frees
    match t:
        case Hole():
            filled.append(t)
            return filler
        case LocalDef(d, body):
            rules = [Rule(r.pattern, _plug(r.body, filler, filled)) for r in rules_of(d)]
            return LocalDef(conj_of(rules), _plug(body, filler, filled))
        case Parallel(l, r):
            return Parallel(_plug(l, filler, filled), _plug(r, filler, filled))
        case Sequence(e, rest):
            return Sequence(e, _plug(rest, filler, filled))
        case Let(xs, e, body):
            return Let(xs, e, _plug(body, filler, filled))
        case Conditional(a, b, th, el):
            return Conditional(a, b, _plug(th, filler, filled), _plug(el, filler, filled))
        case _:
            return t


def _validate(ctx: Context) -> Context:
    if count_holes(ctx.template) != 1:
        raise ContextError("template must contain exactly one hole")
    if ctx.services & ctx.resources:
        raise ContextError("a channel cannot be both service and resource")
    if ctx.privileged & (ctx.services | ctx.resources):
        raise ContextError("privileged channels must stay unpublished")
    undefined = (ctx.services | ctx.resources) - defined_bases(ctx.template)
    if undefined:
        raise ContextError(f"published channel {min(undefined)} is not defined by the template")
    if ctx.guard is not None:
        if not ctx.guard.guarded:
            raise ContextError("a token guard must guard at least one channel")
        unpublished = set(ctx.guard.guarded) - ctx.services - ctx.resources
        if unpublished:
            raise ContextError(f"cannot guard unpublished channel {min(unpublished)}")
        _check_token_use(ctx.template, ctx.guard)
    return ctx


def _check_token_use(template: Process, guard: TokenGuard) -> None:
    """Only the rules the guard puts in may mention the token: a guarded
    rule, the token's own definition and the distributor.  Any other
    top-level rule that names it would hand the token to whoever calls it,
    which the probes of ``policy.token_leak_free`` do not try."""
    if not isinstance(template, LocalDef):
        return
    owners = {*guard.guarded, guard.token_base, guard.distributor_base}
    for rule in rules_of(template.defs):
        if any(h.channel.base in owners for h in pattern_atoms(rule.pattern)):
            continue
        ns = name_sets(rule)
        if any(n.base == guard.token_base for n in ns.dv | ns.rv | ns.fv):
            heads = " | ".join(pretty(h) for h in pattern_atoms(rule.pattern))
            raise ContextError(f"unguarded rule {heads} mentions the token {guard.token_base}")


# ---------------------------------------------------------------------------
# model text shared by the builders


# ``proc_exec(p, a)`` records ``p`` as the active process on the internal
# ``current`` channel, then runs it; ``sys_updt`` sets and ``sys_ref``
# reads that pointer
MANAGED_EXECUTION = """
        proc_exec(p, a) |> (sys_updt(p); return p(a) to proc_exec)
    and sys_updt(rnew) | current<rcur> |> current<rnew>
    and sys_ref() | current<rcur> |> current<rcur> | (return rcur to sys_ref)"""


def resource_text(read: str, write: str, content: str, execute: Optional[str] = None, runner: Optional[str] = None) -> str:
    """Access definitions around one internal ``content`` channel, with an
    exec channel when ``execute`` is given; the arguments are channel names
    as source text.  When ``runner`` is given,
    execution is delegated to it (the executing service updates the
    active-process pointer before the content runs); otherwise the content
    is applied directly."""
    text = f"""
        {write}(fnew) | {content}<f> |> (return to {write}) | {content}<fnew>
    and {read}() | {content}<f> |> (return f to {read}) | {content}<f>"""
    if execute is not None:
        run = f"{runner}(f, arg)" if runner is not None else "f(arg)"
        text += f"""
    and {execute}(arg) | {content}<f> |> (return {run} to {execute}) | {content}<f>"""
    return text


def par_text(parts: Seq[str]) -> str:
    """``a | (b | (... | z))``, the text of ``par(a, b, ..., z)``."""
    return " | (".join(parts) + ")" * (len(parts) - 1)


# ---------------------------------------------------------------------------
# basic service/resource context


def service_rule(channel: Name, fn: Name, arity: int = 1) -> Rule:
    """``channel(a1..an) |> return fn(a1..an) to channel``"""
    ch, f = atom_source(channel, ContextError), atom_source(fn, ContextError)
    args = ", ".join(f"a{i}" for i in range(1, arity + 1))
    return parse_definition(f"{ch}({args}) |> return {f}({args}) to {ch}")


def resource_rules(spec: ResourceSpec, read: Name, write: Name, execute: Optional[Name], content: Name, runner: Optional[Name] = None) -> list[Rule]:
    """The rules of :func:`resource_text`; ``execute`` is used only for an
    executable ``spec``."""
    if spec.kind == "executable":
        assert execute is not None
    else:
        execute = None
    src = [None if n is None else atom_source(n, ContextError) for n in (read, write, content, execute, runner)]
    return rules_of(parse_definition(resource_text(*src)))


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
    initial = []
    r_set: set[str] = set()
    priv: set[str] = set()
    for spec in resources:
        read, write, content = (Name(f"{spec.label}_{s}") for s in ("read", "write", "content"))
        execute = Name(f"{spec.label}_exec") if spec.kind == "executable" else None
        rules.extend(resource_rules(spec, read, write, execute, content))
        initial.append(f"{content}<{atom_source(spec.initial, ContextError)}>")
        r_set.update(n.base for n in (read, write, execute) if n is not None)
        priv.add(content.base)

    body = parse(par_text([*initial, "HOLE"]))
    return _validate(
        Context(
            template=LocalDef(conj_of(rules), body) if rules else body,
            services=frozenset(s.base for s in svc_names),
            resources=frozenset(r_set),
            privileged=frozenset(priv),
            exec_bases=frozenset(b for b in r_set if b.endswith("_exec")),
        )
    )


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

    targets = range(1, n + 1)
    resources = " and ".join(resource_text(f"sr{i}", f"sw{i}", f"content{i}", f"se{i}", "proc_exec") for i in targets)
    contents = [f"content{i}<{atom_source(a, ContextError)}>" for i, a in zip(targets, initial)]
    template = parse(f"""
        def {MANAGED_EXECUTION}
        and sys_rep(inp, out) |> (return sys_copy(inp, out) to sys_rep)
        # the system copy routine forwards its input to the output channel
        and sys_copy(v, w) |> w(v)
        and {resources}
        # run-time resource factory: mk_res(f0) returns read/write/exec channels
        and mk_res(f0) |> (
            def {resource_text("tgt_read", "tgt_write", "tgt_content", "tgt_exec", "proc_exec")}
            in tgt_content<f0> | (return tgt_read, tgt_write, tgt_exec to mk_res))
        in {par_text(["current<null>", *contents, "HOLE"])}
    """)
    return _validate(
        Context(
            template=template,
            services=frozenset({"proc_exec", "sys_ref", "sys_rep"}),
            resources=frozenset(f"{c}{i}" for c in ("sr", "sw", "se") for i in targets),
            privileged=frozenset({"current", "sys_updt", "sys_copy", "mk_res", *(f"content{i}" for i in targets)}),
            dynamic_resource_bases=frozenset({"tgt_read", "tgt_write", "tgt_exec"}),
            exec_bases=frozenset({f"se{i}" for i in targets} | {"tgt_exec"}),
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
        remote_handler = parse("let d = rcv() in handled<d>")
    local = parse(f"""
        def {MANAGED_EXECUTION}
        and sys_prop(inp, out) |> (return prop_copy(inp, out) to sys_prop)
        # propagation sends into the one-slot buffer, fire-and-forget
        and prop_copy(v, w) |> w<v>
        in current<null> | HOLE
    """)
    com = parse_definition("sd<m> | rcv() |> return m to rcv")
    return _validate(
        Context(
            template=LocalDef(com, Parallel(remote_handler, local)),
            services=frozenset({"proc_exec", "sys_ref", "sys_prop"}),
            privileged=frozenset({"current", "sys_updt", "prop_copy"}),
            exports=frozenset({"sd"}),
        )
    )


# ---------------------------------------------------------------------------
# kernel environment for stealth payloads


def rootkit_kernel(syscalls: Seq[Atom], scbase: Atom = Name("scbase"), attacker: Optional[Process] = None) -> Context:
    """Kernel-style environment: a command pair to the outside, a driver
    loader, a system-call table behind a privileged ``hook`` channel, and an
    allocation service that leaks ``hook`` exactly when asked for the
    table's base address.  ``attacker`` runs next to the hole.
    """
    if not syscalls:
        raise ContextError("need at least one system call")
    template = parse(f"""
        def sd<m> | rcv() |> (return m to rcv)
        and load(d) |> d<>
        and publish() | table<t> |> (return t to publish) | table<t>
        and hook(tnew) | table<t> |> table<tnew>
        and alloc(b, s) |> if [b = {atom_source(scbase, ContextError)}]
                           then (return hook to alloc) else (return access to alloc)
        in table<{atom_source(cons_list(list(syscalls)), ContextError)}> | HOLE
    """)
    if attacker is not None:
        template = plug(template, Parallel(attacker, Hole()))
    return _validate(
        Context(
            template=template,
            services=frozenset({"alloc", "publish", "load", "sd", "rcv"}),
            privileged=frozenset({"hook", "table"}),
        )
    )


# ---------------------------------------------------------------------------
# serialization


# the header key of each channel set; the first three share the first line
_SET_KEYS = (
    ("services", "services"),
    ("resources", "resources"),
    ("privileged", "privileged"),
    ("exports", "exports"),
    ("dynamic", "dynamic_resource_bases"),
    ("exec", "exec_bases"),
)


def save_context(ctx: Context) -> str:
    """Render a context to ``.jc`` text with a header listing its sets."""

    def joined(attr: str) -> str:
        return ",".join(sorted(getattr(ctx, attr)))

    lines = ["#! " + "  ".join(f"{key}: {joined(attr)}" for key, attr in _SET_KEYS[:3])]
    lines += [f"#! {key}: {joined(attr)}" for key, attr in _SET_KEYS[3:] if getattr(ctx, attr)]
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
        return TokenGuard(f["mode"], int(f["count"]), guarded, f["token"], f.get("distributor"))
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

    sets = {attr: frozenset(fields.get(key, ())) for key, attr in _SET_KEYS}
    return _validate(Context(template=parse("\n".join(body_lines)), guard=guard, **sets))

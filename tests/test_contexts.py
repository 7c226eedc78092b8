import pytest

from jcham.contexts import (
    ArityMismatch,
    Context,
    ContextError,
    DuplicateLabel,
    ResourceSpec,
    base_context,
    load_context,
    refined_context,
    rootkit_kernel,
    save_context,
    worm_topology,
)
from jcham.filesystem import file_system
from jcham.engine import barb, enabled_redexes, inject, inject_message, is_inert, run
from jcham.parser import parse
from jcham.scenarios import build_context
from jcham.syntax import Hole, Name, Null, pretty

from _atoms import iter_cons


ALL_BUILDERS = [
    lambda: base_context(resources=[ResourceSpec(label="st", initial=Name("c0"))]),
    lambda: base_context(resources=[ResourceSpec(label="ex", kind="executable", initial=Name("f0"))]),
    lambda: refined_context(2),
    lambda: worm_topology(),
    lambda: rootkit_kernel(syscalls=[Name("sc1")], scbase=Name("scbase")),
]


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_contexts_are_stable(build):
    ctx = build()
    soup = inject(ctx.plug(Null()))
    assert is_inert(soup)


@pytest.mark.parametrize("build", ALL_BUILDERS)
def test_no_spontaneous_privileged_leak(build):
    # with a null plug nothing moves, so no published message can ever carry
    # a privileged channel; explore a few steps to be sure
    ctx = build()
    soup = inject(ctx.plug(Null()))
    published = ctx.services | ctx.resources
    priv = ctx.privileged
    frontier = [soup]
    for _ in range(6):
        nxt = []
        for s in frontier:
            for m in s.messages:
                if m.channel.base in published:
                    for a in m.args:
                        assert getattr(a, "base", None) not in priv
            for r in enabled_redexes(s):
                from jcham.engine import reduce

                nxt.append(reduce(s, r))
        frontier = nxt
        if not frontier:
            break


def test_empty_context():
    ctx = base_context()
    assert ctx.template == Hole()
    assert not ctx.services and not ctx.resources


def test_duplicate_labels_rejected():
    with pytest.raises(DuplicateLabel):
        base_context(resources=[ResourceSpec(label="a"), ResourceSpec(label="a")])


def test_static_resource_read_write():
    ctx = base_context(resources=[ResourceSpec(label="st", initial=Name("c0"))])
    probe = parse("let x = st_read() in first<x> | (st_write(c1); (let y = st_read() in second<y>))")
    tr = run(inject(ctx.plug(probe)), seed=0, max_steps=60)
    msgs = {m.channel.base: m.args for m in tr.final.messages}
    assert msgs["first"] == (Name("c0"),)
    assert msgs["second"] == (Name("c1"),)


def test_executable_resource_runs_content():
    ctx = base_context(resources=[ResourceSpec(label="ex", kind="executable", initial=Name("f0"))])
    probe = parse("ex_exec(arg0); 0")
    tr = run(inject(ctx.plug(probe)), seed=0, max_steps=40)
    assert any(m.channel.base == "f0" and m.args[0] == Name("arg0") for m in tr.final.messages)


def test_refined_context_shape():
    ctx = refined_context(2)
    assert ctx.services == {"proc_exec", "sys_ref", "sys_rep"}
    assert ctx.resources == {"sr1", "sw1", "se1", "sr2", "sw2", "se2"}
    soup = inject(ctx.plug(Null()))
    contents = sorted(str(m) for m in soup.messages if m.channel.base.startswith("content"))
    assert len(contents) == 2
    assert any(m.channel.base == "current" and m.args[0] == Name("null") for m in soup.messages)


def test_refined_arity_mismatch():
    with pytest.raises(ArityMismatch):
        refined_context(2, initial=[Name("f1")])


def test_refined_sys_ref_initially_null():
    ctx = refined_context(1)
    probe = parse("let r = sys_ref() in got<r>")
    tr = run(inject(ctx.plug(probe)), seed=0, max_steps=40)
    assert any(m.channel.base == "got" and m.args[0] == Name("null") for m in tr.final.messages)


def test_refined_proc_exec_updates_current_before_running():
    ctx = refined_context(1)
    prog = parse("def m(x) |> (let r = sys_ref() in saw<r>) in proc_exec(m, a0)")
    tr = run(inject(ctx.plug(prog)), seed=0, max_steps=60)
    saw = [m for m in tr.final.messages if m.channel.base == "saw"]
    assert saw and saw[0].args[0].base == "m"
    # the exec channel routes through the managed runner too
    s = tr.final
    s2 = inject_message(s, s.channel("se1"), (Name("a1"), Name("done")))
    tr2 = run(s2, seed=0, max_steps=60)
    cur = [m for m in tr2.final.messages if m.channel.base == "current"]
    assert cur and cur[0].args[0] == Name("f1")


def test_worm_topology_send_probe():
    ctx = worm_topology()
    tr = run(inject(ctx.plug(parse("sd<m0>"))), seed=0, max_steps=40)
    handled = [m for m in tr.final.messages if m.channel.base == "handled"]
    assert handled and handled[0].args[0] == Name("m0")


def test_worm_topology_custom_handler():
    handler = parse("let d = rcv() in decoded<snd(d)>")
    ctx = worm_topology(remote_handler=handler)
    tr = run(inject(ctx.plug(parse("sd<hdr ++ body0>"))), seed=0, max_steps=40)
    dec = [m for m in tr.final.messages if m.channel.base == "decoded"]
    assert dec and dec[0].args[0] == Name("body0")


def test_rootkit_alloc_branches():
    ctx = rootkit_kernel(syscalls=[Name("sc1")], scbase=Name("scbase"))
    tr = run(inject(ctx.plug(parse("let h = alloc(scbase, sz) in got<h>"))), seed=0, max_steps=40)
    assert any(m.channel.base == "got" and m.args[0].base == "hook" for m in tr.final.messages)
    tr2 = run(inject(ctx.plug(parse("let h = alloc(other, sz) in got<h>"))), seed=0, max_steps=40)
    assert any(m.channel.base == "got" and m.args[0] == Name("access") for m in tr2.final.messages)


def test_rootkit_publish_returns_table():
    ctx = rootkit_kernel(syscalls=[Name("sc1"), Name("sc2")], scbase=Name("scbase"))
    tr = run(inject(ctx.plug(parse("let t = publish() in tbl<t>"))), seed=0, max_steps=40)
    tbl = [m for m in tr.final.messages if m.channel.base == "tbl"]
    assert tbl
    assert [a.base for a in iter_cons(tbl[0].args[0])] == ["sc1", "sc2"]


ROUND_TRIP_SPECS = [
    "refined(n=2)",
    "worm()",
    "filesystem(files=n1=f1,n2=f2; complements=com,exe)",
    "rootkit(syscalls=sc1,sc2)",
    "tokenized(n=2; mode=spatial; guard=sw1,sw2; distribute=yes)",
    "tokenized(n=2; mode=counted; count=2; guard=sw2,sw1; distribute=yes)",
]
CHANNEL_SETS = ("services", "resources", "privileged", "exports", "dynamic_resource_bases", "exec_bases")


def test_context_serialization_round_trip():
    filled = set()
    for spec in ROUND_TRIP_SPECS:
        ctx = build_context(spec)
        text = save_context(ctx)
        assert text.startswith("#! services:")
        back = load_context(text)
        for attr in CHANNEL_SETS:
            assert getattr(back, attr) == getattr(ctx, attr), (spec, attr)
        assert back.guard == ctx.guard, spec
        assert pretty(back.template) == pretty(ctx.template), spec
        assert is_inert(inject(back.plug(Null())))
        filled.update(attr for attr in CHANNEL_SETS if getattr(ctx, attr))
        if spec.startswith("tokenized"):
            assert ctx.guard.distributor_base == "get_token"
    # every set is non-empty in some kind, so no comparison above is vacuous
    assert filled == set(CHANNEL_SETS)


@pytest.mark.parametrize(
    "spec",
    [
        "refined(n=2)",
        "worm()",
        "rootkit(syscalls=sc1,sc2)",
        "filesystem(files=n1=f1,n2=f2; complements=com,exe)",
        "tokenized(n=2; mode=counted; count=3; guard=sw2,sw1)",
        "tokenized(n=2; guard=sw1,sw2; distribute=yes)",
    ],
)
def test_context_files_keep_every_field(spec):
    ctx = build_context(spec)
    assert load_context(save_context(ctx)) == ctx


@pytest.mark.parametrize("bad", [Name("in"), Name("a|b"), Name("x<y")])
def test_names_that_do_not_read_back_are_refused(bad):
    with pytest.raises(ContextError):
        refined_context(1, initial=[bad])
    with pytest.raises(ContextError):
        rootkit_kernel(syscalls=[Name("sc1"), bad])
    with pytest.raises(ContextError):
        base_context(services=[(bad, Name("fn"))])
    with pytest.raises(ContextError):
        file_system([(bad, Name("f1"))])
    with pytest.raises(ContextError):
        file_system([(Name("n1"), Name("f1"))], complements=[bad])


def test_plug_requires_one_hole():
    with pytest.raises(ContextError):
        Context(template=Null()).plug(Null())
    # a hole under an expression-level definition cannot be filled
    with pytest.raises(ContextError):
        Context(template=parse("let x = def f() |> (HOLE | return 1 to f) in f() in out<x>")).plug(Null())

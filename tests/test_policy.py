from functools import partial

import pytest

import jcham.policy as policy
from jcham.contexts import (
    Context,
    ContextError,
    ResourceSpec,
    TokenGuard,
    _validate,
    base_context,
    load_context,
    refined_context,
)
from jcham.detector import explore, viral_set_member
from jcham.engine import BudgetExhausted, barb, inject, is_inert
from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus, token_aware_overwrite
from jcham.parser import parse
from jcham.policy import (
    InfectingTest,
    UnknownChannel,
    UnstableContext,
    add_token_distributor,
    classify_context,
    enforcement_sound,
    non_infection_test,
    observable_traces,
    token_leak_free,
    tokenize_context,
)
from jcham.syntax import (
    CallPat,
    Hole,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    Null,
    Parallel,
    PatJoin,
    Return,
    Rule,
    SyncCall,
    conj_of,
    par,
    pretty,
    rules_of,
)


def read_only_context():
    f = Name("f")
    rules = [
        Rule(
            PatJoin(CallPat(Name("ro_read"), ()), MsgPat(Name("ro_content"), (f,))),
            Parallel(Return((NameRef(f),), Name("ro_read")), Message(Name("ro_content"), (NameRef(f),))),
        )
    ]
    return _validate(
        Context(
            template=LocalDef(conj_of(rules), par(Message(Name("ro_content"), (NameRef(Name("c0")),)), Hole())),
            services=frozenset(),
            resources=frozenset({"ro_read"}),
            privileged=frozenset({"ro_content"}),
        )
    )


READ_TEST = parse("let x = sr1() in observed<x>")


def test_classify_base_context_static():
    rep = classify_context(base_context(resources=[ResourceSpec(label="st", initial=Name("c0"))]))
    assert {"I.1", "I.2"} <= rep.kinds()
    assert not rep.isolation_holds


def test_classify_read_only_isolates():
    rep = classify_context(read_only_context())
    assert rep.kinds() == {"I.1"}
    assert rep.isolation_holds


def test_classify_refined_not_isolating():
    rep = classify_context(refined_context(2))
    assert not rep.isolation_holds
    assert "I.2" in rep.kinds()


def test_classify_exec_chases_content():
    ctx = base_context(resources=[ResourceSpec(label="ex", kind="executable", initial=Name("f0"))])
    rep = classify_context(ctx)
    kinds = dict(rep.classifications)
    exec_rules = [k for label, k in rep.classifications if label.startswith("ex_exec")]
    assert exec_rules == ["I.3"]


def test_classify_finds_calls_nested_in_expressions():
    def one_service(svc, body):
        x = Name("x")
        rule = Rule(CallPat(svc, (x,)), Return((body(x),), svc))
        return _validate(Context(template=LocalDef(rule, Hole()), services=frozenset({svc.base})))

    # svc(x) |> return g(x()) to svc   and   svc2(x) |> return x() to svc2
    nested = one_service(Name("svc"), lambda x: SyncCall(Name("g"), (SyncCall(x, ()),)))
    plain = one_service(Name("svc2"), lambda x: SyncCall(x, ()))
    for ctx in (nested, plain):
        rep = classify_context(ctx)
        assert rep.kinds() == {"II.3-unresolved"}
        assert not rep.isolation_holds


def test_non_infection_write_probe_violated():
    ctx = refined_context(2)
    verdict = non_infection_test(ctx, parse("sw1(evil); probe_done<>"), [READ_TEST], depth=6)
    assert verdict.outcome == "violated"
    test_proc, only_a, only_b = verdict.distinguishing
    assert only_a or only_b
    flat = [str(o) for seq in (only_a + only_b) for o in seq]
    assert any("observed" in s for s in flat)


def test_non_infection_read_probe_satisfied():
    ctx = refined_context(2)
    verdict = non_infection_test(ctx, parse("let y = sr1() in 0"), [READ_TEST], depth=6)
    assert verdict.satisfied and verdict.depth == 6


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: noninfect evolves the hosted process along one run, "
    "the one that fires the first enabled redex",
)
def test_non_infection_does_not_depend_on_the_order_of_the_and_clauses():
    # go<> and bad<> race for tok<>; only bad's run writes evil into sw1
    ctx = refined_context(2)
    go, bad = "go<> | tok<> |> 0", "bad<> | tok<> |> sw1(evil); done<>"
    outcomes = {
        non_infection_test(ctx, parse(f"def {first} and {second} in go<> | bad<> | tok<>"), [READ_TEST], depth=6).outcome
        for first, second in ((go, bad), (bad, go))
    }
    assert outcomes == {"violated"}


def test_non_infection_null_trivially_satisfied():
    ctx = refined_context(2)
    for depth in (2, 4):
        assert non_infection_test(ctx, Null(), [READ_TEST], depth=depth).satisfied


def test_non_infection_rejects_infecting_test():
    ctx = refined_context(2)
    with pytest.raises(InfectingTest):
        non_infection_test(ctx, Null(), [parse("sw1(evil); 0")], depth=4)


def test_non_infection_rejects_unstable_context():
    busy = Context(
        template=LocalDef(
            conj_of([Rule(MsgPat(Name("tick"), ()), Message(Name("tick"), ()))]),
            par(Message(Name("tick"), ()), Hole()),
        ),
    )
    with pytest.raises(UnstableContext):
        non_infection_test(busy, Null(), [], depth=2)


def test_non_infection_refuses_an_empty_test_list():
    with pytest.raises(ValueError, match="no test process"):
        non_infection_test(refined_context(2), parse("sw1(evil); probe_done<>"), [], depth=4)


def test_trace_sets_do_not_depend_on_rule_order():
    # s -> b1 -> m -> y1 -> y2 -> out takes 5 reductions; the a-branch reaches
    # m at depth 4, which must not hide the shorter path
    a_branch = "s<> |> a1<> and a1<> |> a2<> and a2<> |> a3<> and a3<> |> m<>"
    rest = "m<> |> y1<> and y1<> |> y2<> and y2<> |> out<> in s<>"
    written = parse(f"def s<> |> b1<> and b1<> |> m<> and {a_branch} and {rest}")
    swapped = parse(f"def {a_branch} and s<> |> b1<> and b1<> |> m<> and {rest}")
    ctx = Context(template=Hole())
    traces = observable_traces(inject(written), ctx, depth=5)
    assert traces == observable_traces(inject(swapped), ctx, depth=5)
    assert ("out<>",) in {tuple(map(str, t)) for t in traces}


def test_tripped_budgets_are_not_verdicts(monkeypatch):
    ctx = refined_context(2)
    growing = parse("def a<> |> x<> | a<> and b<> |> y<> | b<> in a<> | b<>")
    with pytest.raises(BudgetExhausted):
        observable_traces(inject(ctx.plug(growing)), ctx, depth=6, max_paths=5)
    with pytest.raises(BudgetExhausted):
        token_leak_free(guarded2(), max_states=0)
    monkeypatch.setattr(policy, "observable_traces", partial(observable_traces, max_paths=0))
    verdict = non_infection_test(ctx, parse("let y = sr1() in 0"), [READ_TEST], depth=6)
    assert verdict.outcome == "budget_exhausted" and not verdict.satisfied
    with pytest.raises(BudgetExhausted):
        enforcement_sound(guarded2())


def test_a_tripped_quiescence_budget_is_not_a_verdict(monkeypatch):
    # slow needs 9 steps to reach sw1: cut at 3, the two runs still look alike
    slow = parse(
        "def slow<n> |> if [n = nil] then sw1(evil) else slow<snd(n)> "
        "in slow<a ++ b ++ c ++ d ++ e ++ f ++ g ++ h ++ nil>"
    )
    ctx = refined_context(1)
    cut = non_infection_test(ctx, slow, [READ_TEST], depth=4, quiescence_budget=3)
    assert cut.outcome == "budget_exhausted" and cut.notes == ["budget quiescence_budget=3 exhausted"]
    assert non_infection_test(ctx, slow, [READ_TEST], depth=4).outcome == "violated"
    monkeypatch.setattr(policy, "settle", lambda soup, budget: (soup, False))
    with pytest.raises(BudgetExhausted):
        enforcement_sound(guarded2())


def test_violation_persists_at_greater_depth():
    ctx = refined_context(2)
    probe = parse("sw1(evil); probe_done<>")
    v6 = non_infection_test(ctx, probe, [READ_TEST], depth=6)
    v8 = non_infection_test(ctx, probe, [READ_TEST], depth=8)
    assert v6.outcome == v8.outcome == "violated"


# -- tokens


def guarded2():
    return tokenize_context(refined_context(2), TokenGuard(mode="spatial", guarded=("sw1", "sw2")))


def plain_virus():
    return build_virus(
        MalwareSpec(
            family="virus",
            klass="III",
            mech=ReplicationMech("overwrite"),
            targets=TargetRoutine("hardcoded", (Name("sw1"), Name("sw2"))),
        )
    )


def aware_virus(targets=(Name("sw1"), Name("sw2"))):
    return build_virus(
        MalwareSpec(
            family="virus",
            klass="III",
            mech=token_aware_overwrite(),
            targets=TargetRoutine("hardcoded", tuple(targets)),
        )
    )


def test_tokenize_guard_validation():
    with pytest.raises(UnknownChannel):
        tokenize_context(refined_context(2), TokenGuard(guarded=("nope",)))
    with pytest.raises(ContextError, match="at least one channel"):
        tokenize_context(refined_context(2), TokenGuard())
    with pytest.raises(ValueError):
        TokenGuard(mode="counted", count=0)


def test_tokenize_guards_a_message_head_and_an_empty_body():
    ctx = load_context(
        "#! services: a  resources: w  privileged: st\n"
        "def w<v> | st<x> |> 0 and a() |> (return to a) in st<s0> | HOLE\n"
    )
    counted = tokenize_context(ctx, TokenGuard(mode="counted", count=1, guarded=("w",)))
    # the granted branch is the counter alone, with no ``0 |`` in front
    assert pretty(rules_of(counted.template.defs)[0]) == (
        "w<tk, v> | st<x> | uses_left<uc> |> if [tk = sectok] then if [uc = nil] then (st<x> | uses_left<uc>)"
        " else uses_left<snd(uc)> else (st<x> | uses_left<uc>)"
    )


def test_tokenize_refuses_a_tokenized_context():
    with pytest.raises(ContextError, match="already tokenized"):
        tokenize_context(guarded2(), TokenGuard(guarded=("sw1",)))
    with pytest.raises(ContextError, match="already tokenized"):
        tokenize_context(add_token_distributor(guarded2()), TokenGuard(mode="counted", count=1, guarded=("sw2",)))


def test_tokenized_context_still_stable():
    assert is_inert(inject(guarded2().plug(Null())))


def test_wrong_token_leaves_state_untouched():
    ctx = guarded2()
    probe = parse("sw1(fake, evil); (let x = sr1() in observed<x>)")
    from jcham.engine import run

    tr = run(inject(ctx.plug(probe)), seed=0, max_steps=100)
    obs = [m for m in tr.final.messages if m.channel.base == "observed"]
    # the write never acknowledges, so the probe's read never runs; state holds
    contents = [m for m in tr.final.messages if m.channel.base == "content1"]
    assert contents and contents[0].args[0] == Name("f1")
    assert not obs


def test_token_flip_not_vulnerable():
    assert explore(guarded2(), plain_virus()).outcome == "not_vulnerable"


def test_token_flip_back_with_distribution():
    assert explore(add_token_distributor(guarded2()), aware_virus()).vulnerable


def test_tokenless_aware_virus_blocked():
    assert explore(guarded2(), aware_virus()).outcome == "not_vulnerable"


def test_counted_blocks_third_attempt():
    ctx3 = refined_context(3)
    counted = add_token_distributor(
        tokenize_context(ctx3, TokenGuard(mode="counted", count=2, guarded=("sw1", "sw2", "sw3")))
    )
    v2 = viral_set_member(counted, aware_virus((Name("sw1"), Name("sw2"), Name("sw3"))), iterations=2, max_states=20000)
    v3 = viral_set_member(counted, aware_virus((Name("sw1"), Name("sw2"), Name("sw3"))), iterations=3, max_states=20000)
    assert v2.vulnerable
    assert v3.outcome == "not_vulnerable"


def test_enforcement_sound_cases():
    g = guarded2()
    assert enforcement_sound(g)
    assert not enforcement_sound(add_token_distributor(g))
    assert not enforcement_sound(refined_context(2))


@pytest.mark.parametrize("spec", ["worm()", "rootkit(syscalls=s1)", "bare(resources=r1)"])
def test_enforcement_sound_refuses_a_context_without_probes(spec):
    from jcham.scenarios import build_context

    # no guarded channel and no write-access resource: nothing to probe
    ctx = build_context(spec)
    assert policy._probe_battery(ctx) == []
    with pytest.raises(ValueError, match="no probe"):
        enforcement_sound(ctx)


def test_token_never_leaks():
    assert token_leak_free(guarded2())


def _logging_sw1(emitted):
    # sw1's denied branch emits ``emitted`` on the published channel log
    return load_context(
        "#! services: log  resources: sw1  privileged: content1,sectok\n"
        "#! guard: token=sectok mode=spatial count=0 guarded=sw1\n"
        "def sw1(tk, fnew) | content1<f> |> if [tk = sectok] then ((return to sw1) | content1<fnew>)"
        f" else (content1<f> | log<{emitted}>) and log<x> |> 0 and sectok<> |> 0 in content1<f1> | HOLE\n"
    )


@pytest.mark.parametrize("emitted", ["sectok", "sectok ++ f", "f ++ (tk ++ sectok)"])
def test_a_token_leaks_alone_or_inside_a_pair(emitted):
    assert not token_leak_free(_logging_sw1(emitted))


def test_a_denied_branch_without_the_token_does_not_leak():
    assert token_leak_free(_logging_sw1("f ++ tk"))


def _write_sw1(body, binder="fnew"):
    # sw1 stores its argument; ``body`` is what the write does besides
    return load_context(
        "#! services: log  resources: sw1  privileged: content1\n"
        f"def sw1({binder}) | content1<f> |> (return to sw1) | {body} and log<x> |> 0 in content1<f1> | HOLE\n"
    )


@pytest.mark.parametrize("mode", ["spatial", "counted"])
def test_the_token_binder_does_not_capture_a_free_name_of_the_rule(mode):
    # the body logs its own free ``tk``: bound by the guard, a granted
    # write would put the token itself on the published log
    guarded = tokenize_context(_write_sw1("content1<fnew> | log<tk>"), TokenGuard(mode=mode, count=2, guarded=("sw1",)))
    rule = pretty(rules_of(guarded.template.defs)[0])
    assert rule.startswith("sw1(tk1, fnew) | content1<f>") and "[tk1 = sectok]" in rule
    soup = inject(guarded.plug(parse("sw1(sectok, v); done<>")))
    assert barb(soup, Name("content1"), Name("v")) and barb(soup, Name("log"), Name("tk"))
    assert not barb(soup, Name("log"), Name("sectok"))
    assert token_leak_free(guarded)


def test_the_guard_binders_avoid_a_binder_of_the_rule():
    ctx = _write_sw1("content1<tk> | log<uc>", binder="tk")
    counted = tokenize_context(ctx, TokenGuard(mode="counted", count=1, guarded=("sw1",)))
    assert pretty(rules_of(counted.template.defs)[0]).startswith("sw1(tk1, tk) | content1<f> | uses_left<uc1> |>")
    soup = inject(counted.plug(parse("sw1(sectok, v); done<>")))
    assert barb(soup, Name("content1"), Name("v")) and barb(soup, Name("done"))
    # a context that does not clash keeps ``tk`` and ``uc``
    plain = tokenize_context(_write_sw1("content1<fnew>"), TokenGuard(mode="counted", count=1, guarded=("sw1",)))
    assert pretty(rules_of(plain.template.defs)[0]).startswith("sw1(tk, fnew) | content1<f> | uses_left<uc> |>")


@pytest.mark.parametrize(
    "mode, body, binder, refusal",
    [
        ("spatial", "content1<fnew> | log<sectok>", "fnew", "the context already uses sectok,"),
        ("counted", "content1<fnew> | log<sectok>", "fnew", "the context already uses sectok,"),
        ("counted", "content1<fnew> | uses_left<fnew>", "fnew", "the context already uses uses_left,"),
        ("counted", "content1<nil>", "nil", "guarded rule on sw1 binds nil,"),
        # an unguarded rule: the token's own definition would bind its free
        # sectok, so a call to peek would put the token on log
        ("spatial", "content1<fnew> and peek<> |> log<sectok>", "fnew", "the context already uses sectok,"),
    ],
)
def test_tokenize_refuses_a_context_that_uses_a_name_the_guard_reads(mode, body, binder, refusal):
    with pytest.raises(ContextError, match=refusal):
        tokenize_context(_write_sw1(body, binder), TokenGuard(mode=mode, count=1, guarded=("sw1",)))


def test_tokenize_keeps_a_rule_that_uses_nil_or_the_counter_name_where_the_guard_does_not_read_it():
    # a free nil is the counter's own end; spatial mode has no counter
    counted = tokenize_context(_write_sw1("content1<fnew ++ nil>"), TokenGuard(mode="counted", count=1, guarded=("sw1",)))
    assert "content1<fnew ++ nil>" in pretty(rules_of(counted.template.defs)[0])
    spatial = tokenize_context(_write_sw1("content1<fnew> | uses_left<fnew>"), TokenGuard(guarded=("sw1",)))
    assert "uses_left<fnew>" in pretty(rules_of(spatial.template.defs)[0])


def test_cli_tokenize_refuses_a_clashing_rule_on_exit_65(tmp_path, capsys):
    from jcham.cli import main

    path = tmp_path / "ctx.txt"
    path.write_text(
        "#! services: log  resources: sw1  privileged: content1\n"
        "def sw1(fnew) | content1<f> |> (return to sw1) | content1<fnew> | log<sectok> and log<x> |> 0"
        " in content1<f1> | HOLE\n"
    )
    assert main(["policy", "tokenize", "--context", str(path), "--guard", "sw1"]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "the context already uses sectok, a name the token guard adds\n"


# a loaded context whose guard the published peek gets round: an
# unguarded rule that hands out the token, which no probe calls
_PEEK_LEAK = (
    "#! services: log,peek  resources: sw1  privileged: content1,sectok\n"
    "#! guard: token=sectok mode=spatial count=0 guarded=sw1\n"
    "def sw1(tk, fnew) | content1<f> |> if [tk = sectok] then ((return to sw1) | content1<fnew>) else content1<f>"
    " and peek<> |> log<sectok> and log<x> |> 0 and sectok<> |> 0 in content1<f1> | HOLE\n"
)


def test_a_loaded_guard_refuses_an_unguarded_rule_that_mentions_the_token(tmp_path, capsys):
    from jcham.cli import main

    with pytest.raises(ContextError, match="unguarded rule peek<> mentions the token sectok"):
        load_context(_PEEK_LEAK)
    path = tmp_path / "leak.jc"
    path.write_text(_PEEK_LEAK)
    with pytest.raises(SystemExit) as stop:
        main(["policy", "enforce", "--context", str(path)])
    assert stop.value.code == 65
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "unguarded rule peek<> mentions the token sectok\n"
    # the same rule on a guarded channel is the guard's own, and loads
    load_context(_PEEK_LEAK.replace("guarded=sw1", "guarded=sw1,peek"))


def test_isolation_implies_noninfection_for_probes():
    ctx = read_only_context()
    assert classify_context(ctx).isolation_holds
    probe = parse("let x = ro_read() in peek<x>")
    test = parse("let y = ro_read() in observed<y>")
    assert non_infection_test(ctx, probe, [test], depth=6).satisfied


def test_enforcement_sound_computes_each_baseline_once(monkeypatch):
    from jcham.canon import canonicalize

    counted = tokenize_context(refined_context(2), TokenGuard(mode="counted", count=2, guarded=("sw1", "sw2")))
    tests = policy._reader_tests(counted)
    baselines = {canonicalize(inject(counted.plug(t))).digest for t in tests}
    probes = policy._probe_battery(counted)
    traced = []

    def recording(soup, ctx, depth, max_paths=20_000):
        traced.append(canonicalize(soup).digest)
        return observable_traces(soup, ctx, depth, max_paths)

    monkeypatch.setattr(policy, "observable_traces", recording)
    assert enforcement_sound(counted)
    # every probe is compared with every test, against one baseline per test
    assert len(tests) == 2 and len(probes) == 4 and len(traced) == len(tests) * (1 + len(probes))
    assert sorted(d for d in traced if d in baselines) == sorted(baselines)


def test_enforcement_sound_injects_the_empty_context_once(monkeypatch):
    counted = tokenize_context(refined_context(2), TokenGuard(mode="counted", count=2, guarded=("sw1", "sw2")))
    tests, probes = policy._reader_tests(counted), policy._probe_battery(counted)
    injected, roots = [], []

    def recording(p, root):
        injected.append(p)
        roots.append(root)
        return inject(p, root)

    monkeypatch.setattr(policy, "inject", recording)
    assert enforcement_sound(counted)
    # the empty context once, each probe once, each test's baseline once
    assert len(tests) == 2 and len(probes) == 4 and len(injected) == 1 + len(probes) + len(tests)
    assert injected.count(counted.plug(Null())) == 1
    # every start of the call extends one rules root
    assert len({id(r) for r in roots}) == 1 and roots[0] == ()


@pytest.mark.parametrize("distribute", [False, True])
def test_enforcement_sound_refuses_an_unstable_guarded_context_before_any_probe(monkeypatch, distribute):
    from dataclasses import replace

    g = add_token_distributor(guarded2()) if distribute else guarded2()
    # a rule and a message that react without any plugged process
    ticking = Rule(MsgPat(Name("tick"), ()), Message(Name("tick"), ()))
    unstable = replace(g, template=LocalDef(conj_of([ticking]), par(Message(Name("tick"), ()), g.template)))
    settled = []
    monkeypatch.setattr(policy, "settle", lambda soup, budget: settled.append(soup) or (soup, True))
    with pytest.raises(UnstableContext):
        enforcement_sound(unstable)
    assert settled == []

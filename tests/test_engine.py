import random
from itertools import combinations

import pytest

from _canon_referee import rebuilt
from jcham.canon import canonicalize
from jcham.contexts import refined_context
from jcham.engine import (
    CUT,
    BudgetExhausted,
    DetectionStats,
    GroundMessage,
    ModelError,
    Soup,
    StaleRedex,
    barb,
    enabled_redexes,
    graft,
    heat,
    inject,
    inject_message,
    is_inert,
    reduce,
    reduce_with_info,
    replay,
    run,
    search,
    valued_reaction,
)
from jcham.parser import parse
from jcham.syntax import Name, Null, SubstitutionError, substitute


def bases(soup):
    return sorted(m.channel.base for m in soup.message_list())


def test_inject_null_is_empty():
    s = inject(parse("0"))
    assert not s.rules and not s.messages


def test_inject_renames_defined_channels():
    s = inject(parse("def x<u> |> y<u> in x<a> | x<b>"))
    assert len(s.rules) == 1
    ch = s.rules[0].heads[0].channel
    assert ch.base == "x" and ch.index is not None
    msgs = s.message_list()
    assert [m.channel for m in msgs] == [ch, ch]
    assert sorted(str(m.args[0]) for m in msgs) == ["a", "b"]


def test_inject_drops_top():
    s = inject(parse("def T in 0"))
    assert not s.rules and not s.messages


def test_enabled_unique_match():
    s = inject(parse("def a<u> | b<v> |> c<u, v> in a<1> | b<2>"))
    rs = enabled_redexes(s)
    assert len(rs) == 1
    assert dict(rs[0].binding) == {Name("u"): 1, Name("v"): 2}


def brute_force_matches(soup, rule_index):
    """Oracle: all sub-multisets of messages satisfying the join pattern."""
    rule = soup.rules[rule_index]
    msgs = soup.message_list()
    found = set()
    for combo in combinations(range(len(msgs)), len(rule.heads)):
        chosen = [msgs[i] for i in combo]
        for perm in _perms(chosen):
            if all(
                m.channel == h.channel and len(m.args) == len(h.binders)
                for m, h in zip(perm, rule.heads)
            ):
                found.add(tuple(perm))
                break
    return found


def _perms(items):
    from itertools import permutations

    return set(permutations(items))


def test_enabled_two_candidates_match_oracle():
    s = inject(parse("def a<u> | b<v> |> c<u, v> in a<1> | a<2> | b<3>"))
    rs = enabled_redexes(s)
    assert len(rs) == 2
    assert sorted(dict(r.binding)[Name("u")] for r in rs) == [1, 2]
    assert {r.matched for r in rs} == brute_force_matches(s, 0)


def test_enabled_ignores_undefined_channels():
    s = inject(parse("def a<> |> 0 in b<> | c<x>"))
    assert enabled_redexes(s) == []
    assert is_inert(s)


def test_reduce_keeps_rule_and_consumes_message():
    s = inject(parse("def x<z> |> out<z> in x<7>"))
    s2 = reduce(s, enabled_redexes(s)[0])
    assert len(s2.rules) == 1
    assert bases(s2) == ["out"]
    assert s2.message_list()[0].args == (7,)


def test_reduce_conditional_equal_drops():
    s = inject(parse("def x<c> |> if [c = dl] then 0 else k<c> in x<dl>"))
    s2 = reduce(s, enabled_redexes(s)[0])
    assert bases(s2) == []


def test_reduce_conditional_unequal_takes_else():
    s = inject(parse("def x<c> |> if [c = dl] then 0 else k<c> in x<mv>"))
    s2 = reduce(s, enabled_redexes(s)[0])
    assert bases(s2) == ["k"]


def test_reduce_null_body_only_removes():
    s = inject(parse("def x<> |> 0 in x<>"))
    s2 = reduce(s, enabled_redexes(s)[0])
    assert not s2.messages


def test_stale_redex():
    s = inject(parse("def x<> |> 0 in x<>"))
    r = enabled_redexes(s)[0]
    s2 = reduce(s, r)
    with pytest.raises(StaleRedex):
        reduce(s2, r)


def test_red_conservation():
    rng = random.Random(3)
    programs = [
        "def a<u> | b<v> |> c<u> | d<v> in a<1> | b<2> | a<3>",
        "def x<> |> x<> | y<> in x<>",
        "def p<u> |> if [u = a] then q<> else (r<> | s<>) in p<a> | p<b>",
    ]
    for src in programs:
        s = inject(parse(src))
        for _ in range(10):
            rs = enabled_redexes(s)
            if not rs:
                break
            r = rng.choice(rs)
            before = s.message_count()
            s2, emitted = reduce_with_info(s, r)
            assert s2.message_count() == before - len(r.matched) + len(emitted)
            assert s2.rules[: len(s.rules)] == s.rules
            s = s2


def test_run_deterministic():
    src = "def a<> |> b<> and b<> |> a<> in a<>"
    t1 = run(inject(parse(src)), seed=42, max_steps=25)
    t2 = run(inject(parse(src)), seed=42, max_steps=25)
    assert t1.format() == t2.format()
    t3 = run(inject(parse(src)), seed=43, max_steps=25)
    assert len(t3.steps) == 25


def test_run_and_replay_keep_one_memo_per_trace(monkeypatch):
    import jcham.canon as canon
    from jcham.cli import corpus_path

    with open(corpus_path("pingpong.jc")) as fh:
        soup = inject(parse(fh.read()))
    parts = [0]

    def counted_part(rules):
        parts[0] += 1
        return rules_part(rules)

    rules_part = canon._rules_part
    monkeypatch.setattr(canon, "_rules_part", counted_part)
    trace = run(soup, seed=7, max_steps=200)
    # the token goes back and forth between two soups over one rules value
    assert len(trace.steps) == 200 and parts[0] == 1
    # the replay starts from the trace's start soup, over that same value
    replay(trace)
    assert parts[0] == 1
    original = canon.canonicalize
    monkeypatch.setattr(canon, "canonicalize", lambda s: original(rebuilt(s)))
    assert run(soup, seed=7, max_steps=200).format() == trace.format()
    # over rebuilt rules every step builds its rules part again
    assert parts[0] == 1 + 200


def test_run_inert_empty_trace():
    t = run(inject(parse("def a<>|b<> |> 0 in a<>")), seed=0, max_steps=10)
    assert t.steps == []


def test_run_budget_exhaustion():
    t = run(inject(parse("def a<> |> b<> and b<> |> a<> in a<>")), seed=7, max_steps=10)
    assert len(t.steps) == 10


def test_trace_format_shape():
    t = run(inject(parse("def x<z> |> out<z> in x<7>")), seed=0, max_steps=5)
    line = t.format()
    assert line.startswith("STEP 0 RULE x~1 CONSUME x~1<7> EMIT out<7> DIGEST ")
    assert len(line.rsplit(" ", 1)[1]) == 16


def test_barb_direct_and_value():
    s = inject(parse("x<a>"))
    assert barb(s, Name("x"))
    assert barb(s, Name("x"), Name("a"))
    assert not barb(s, Name("x"), Name("b"))
    assert not barb(s, Name("y"))


def test_barb_reports_a_tripped_budget():
    # goal is 4 reductions away while t mints a new state on every step
    s = inject(parse(
        "def t<> |> t<> | x<> and t<> |> t<> | y<> and g1<> |> g2<> and g2<> |> g3<> "
        "and g3<> |> g4<> and g4<> |> goal<> in t<> | g1<>"
    ))
    with pytest.raises(BudgetExhausted) as tripped:
        barb(s, Name("goal"), depth=4, max_states=10)
    assert tripped.value.budget == "max_states"
    assert barb(s, Name("goal"), depth=4)


def test_a_tripped_search_budget_gives_its_depth_and_frontier():
    # one chain: each state has one successor
    chain = inject(parse("def a<> |> a<> | b<> in a<>"))
    with pytest.raises(BudgetExhausted) as tripped:
        search([chain], 100, max_depth=3)
    e = tripped.value
    assert (e.budget, e.limit, e.depth, e.frontier, str(e)) == ("max_depth", 3, 3, 0, "budget max_depth=3 exhausted")
    # two counters grow apart, so level d holds d + 1 states: the third new
    # state of level 2 trips, with the other two states of level 1 queued
    grid = inject(parse("def a<> |> a<> | c<> and b<> |> b<> | d<> in a<> | b<>"))
    with pytest.raises(BudgetExhausted) as tripped:
        search([grid], 5)
    e = tripped.value
    assert (e.budget, e.limit, e.depth, e.frontier, str(e)) == ("max_states", 5, 2, 2, "budget max_states=5 exhausted")
    # a budget outside the search has neither
    assert BudgetExhausted("completion_steps", 400).depth is BudgetExhausted("max_basis", 1).frontier is None


def test_barb_empty_soup():
    s = inject(parse("0"))
    assert not barb(s, Name("anything"))


def test_barb_self_replication():
    # def s(c, x) |> R with R emitting c<s>: the barb on c restricted to s holds
    p = parse("def s(c, x) |> c<s> in s<tgt, v0, kdone>")
    soup = inject(p)
    assert barb(soup, Name("tgt"), Name("s"))
    assert not barb(soup, Name("tgt"), Name("other"))


def test_barb_needs_reachability():
    p = parse("def a<> |> b<> and b<> |> goal<hit> in a<>")
    assert barb(inject(p), Name("goal"), Name("hit"), depth=4)
    assert not barb(inject(p), Name("goal"), Name("miss"), depth=4)


def test_valued_reaction_resolves():
    s = inject(parse("def x<m> |> got<m> in x<a>"))
    s2 = valued_reaction(s, Name("x"), Name("a"))
    assert s2 is not None
    assert bases(s2) == ["got"]


def test_valued_reaction_uncaptured():
    s = inject(parse("def y<> |> 0 in x<a>"))
    assert valued_reaction(s, Name("x"), Name("a")) is None


def test_valued_reaction_value_mismatch():
    s = inject(parse("def x<m> |> got<m> in x<b>"))
    assert valued_reaction(s, Name("x"), Name("a")) is None


def test_inject_message_copies():
    s = inject(parse("def x<u> |> 0 in 0"))
    ch = s.channel("x")
    s2 = inject_message(s, ch, (Name("a"),))
    assert s.message_count() == 0
    assert s2.message_count() == 1
    assert enabled_redexes(s2)


def test_heat_rejects_a_call_pattern_left_undesugared():
    # substitution keeps each head's own type, so the call pattern reaches
    # the check in ``heat`` instead of passing as a message pattern
    with pytest.raises(ModelError, match="call pattern survived desugaring"):
        heat(Soup(), parse("def x(u) |> 0 in 0"))


def test_graft_binds_a_free_name_to_its_one_activation():
    soup = inject(refined_context(2).plug(Null()))
    before = soup.copy()
    grafted = graft(soup, parse("let x = sr1() in observed<x>"))
    assert soup == before
    # the desugared call is one reply rule plus one message on sr1's activation
    assert grafted.rules[:-1] == soup.rules
    reply = grafted.rules[-1].heads[0].channel
    assert grafted.messages - soup.messages == {GroundMessage(soup.channel("sr1"), (reply,)): 1}


def test_graft_leaves_a_name_with_two_activations_free():
    soup = inject(parse("(def c<> |> 0 in 0) | (def c<> |> 0 in 0)"))
    assert len(soup.channels("c")) == 2
    grafted = graft(soup, parse("c<> | e<>"))
    assert [str(m) for m in grafted.message_list()] == ["c<>", "e<>"]


# -- heats replayed from a rules value's memo against heating afresh


def _memo_referee(monkeypatch) -> list:
    """Checks every reduction against heating the rule body afresh into a
    copy of the consumed soup: the same rules value, the same emitted
    messages in order, the same messages in the same order and the same
    name supply; records for each reduction whether it replayed a heat."""
    import jcham.engine as engine

    replayed = []
    original = engine.reduce_with_info

    def refereed(soup, redex):
        hit = (redex.rule_index, redex.binding, soup.fresh_counter) in soup.rules.fired
        got, emitted = original(soup, redex)
        fresh = soup.copy()
        for m in redex.matched:
            fresh.messages[m] -= 1
            if not fresh.messages[m]:
                del fresh.messages[m]
        expected = heat(fresh, substitute(soup.rules[redex.rule_index].body, redex.binding_map()))
        assert emitted == expected and got.rules is fresh.rules and tuple(got.rules) == tuple(fresh.rules)
        assert list(got.messages.items()) == list(fresh.messages.items()) and got.fresh_counter == fresh.fresh_counter
        replayed.append(hit)
        return got, emitted

    monkeypatch.setattr(engine, "reduce_with_info", refereed)
    return replayed


def test_replayed_heats_agree_with_heating_afresh_on_seeded_searches(monkeypatch):
    from importlib.resources import files

    from _gen import fragment_instance, shaped_program
    from jcham.cli import corpus_path
    from jcham.scenarios import build_context, build_process, load_scenario, run_scenario

    replayed = _memo_referee(monkeypatch)
    starts = []
    for f in sorted(f.name for f in files("jcham").joinpath("corpus").iterdir()):
        if f.endswith(".scn"):
            sc = load_scenario(corpus_path(f))
            run_scenario(sc)  # its own searches, on the scenario's verdict path
            starts.append(inject(build_context(sc.context_spec).plug(build_process(sc)[0])))
        elif f.endswith(".jc"):
            with open(corpus_path(f)) as fh:
                starts.append(inject(parse(fh.read())))
    rng = random.Random(23)
    for _ in range(30):
        ctx, program, _ = fragment_instance(rng)
        starts.append(inject(ctx.plug(program)))
    starts += [inject(parse(shaped_program(random.Random(s), 5, 2, 6, 2))) for s in range(30)]
    for s in starts:
        try:
            search([s], 300, horizon=8)
        except BudgetExhausted:
            pass
    # most reductions fire a rule again with a binding and name supply met before
    assert len(replayed) > 3000 and sum(replayed) > len(replayed) // 2


def test_a_replayed_heat_appends_the_same_rules_and_emits_in_the_same_order(monkeypatch):
    replayed = _memo_referee(monkeypatch)
    soup = inject(parse("def go<> |> (def k<x> |> out<x> in k<1> | b<> | a<> | b<>) in go<> | go<> | a<>"))
    [r] = enabled_redexes(soup)
    first, again = reduce(soup, r), reduce(soup, r)
    assert replayed == [False, True]
    assert first.rules is again.rules and len(first.rules) == 2 and first.fresh_counter == again.fresh_counter == 2
    assert list(again.messages.items()) == list(first.messages.items())
    assert [str(m) for m in first.messages] == ["go~1<>", "a<>", "k~2<1>", "b<>"]
    # the next firing has a new name supply, so it is heated afresh
    reduce(first, enabled_redexes(first)[0])
    assert replayed == [False, True, False]


@pytest.mark.parametrize(
    "src, error",
    [
        ("def x<v> |> out<fst(v)> in x<a>", ModelError),
        ("def x<v> |> v<> in x<3>", SubstitutionError),
        # the branch the conditional drops is substituted too
        ("def x<v> |> if [v = 3] then out<v> else v<> in x<3>", SubstitutionError),
    ],
)
def test_a_firing_that_raises_is_not_kept_and_raises_each_time(src, error):
    soup = inject(parse(src))
    [r] = enabled_redexes(soup)
    for _ in range(3):
        with pytest.raises(error):
            reduce(soup, r)
        assert not soup.rules.fired
    assert [str(m) for m in soup.message_list()] == [str(r.matched[0])]


# -- redexes derived from the parent's against full matching


def _referee(monkeypatch) -> list:
    """Checks every redex list a search derives from its parent's against
    a fresh ``enabled_redexes`` and against the list derived for the soup
    rebuilt from fresh rules, which builds its head index afresh; returns
    the (since, list) pairs checked."""
    import jcham.engine as engine

    checked = []
    original = engine.enabled_redexes

    def refereed(soup, since=None):
        got = original(soup, since)
        if since is not None:
            assert got == original(rebuilt(soup)) == original(rebuilt(soup), since), soup.dump()
            checked.append((since, got))
        return got

    monkeypatch.setattr(engine, "enabled_redexes", refereed)
    return checked


JOINS = [
    # joins over old and new messages, messages emitted again
    "def a<x> | b<y> |> a<y> | b<x> | c<x> and b<u> | c<v> |> a<u> in a<1> | a<2> | b<3>",
    "def k<x> | t<> |> k<x> | t<> | u<x> and u<y> | k<z> |> k<y> in k<1> | k<2> | t<>",
    "def p<x, y> | q<w> |> q<x> | p<w, y> and q<z> |> r<z, z> in p<1, 2> | q<2> | q<1>",
]


def test_derived_redexes_agree_with_full_matching_on_seeded_searches(monkeypatch):
    from importlib.resources import files

    from _gen import fragment_instance, shaped_program
    from jcham.cli import corpus_path
    from jcham.detector import viral_set_member
    from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus
    from jcham.policy import non_infection_test
    from jcham.scenarios import build_context, build_process, load_scenario

    checked = _referee(monkeypatch)
    starts = [inject(parse(src)) for src in JOINS]
    for f in sorted(f.name for f in files("jcham").joinpath("corpus").iterdir()):
        if f.endswith(".scn"):
            sc = load_scenario(corpus_path(f))
            starts.append(inject(build_context(sc.context_spec).plug(build_process(sc)[0])))
        elif f.endswith(".jc"):
            with open(corpus_path(f)) as fh:
                starts.append(inject(parse(fh.read())))
    rng = random.Random(22)
    for _ in range(30):
        ctx, program, _ = fragment_instance(rng)
        starts.append(inject(ctx.plug(program)))
    starts += [inject(parse(shaped_program(random.Random(s), 5, 2, 6, 2))) for s in range(30)]
    for s in starts:
        try:
            search([s], 300, horizon=8)
        except BudgetExhausted:
            pass
    searched = len(checked)
    virus = build_virus(MalwareSpec("virus", "III", ReplicationMech("overwrite"), TargetRoutine("hardcoded", (Name("sw1"), Name("sw2")))))
    assert viral_set_member(refined_context(2), virus, iterations=2).outcome == "vulnerable"
    viral = len(checked) - searched
    reads = [parse("let x = sr1() in observed<x>"), parse("let x = sr1() in let y = sr2() in observed<x> | observed<y>")]
    assert non_infection_test(refined_context(2), parse("let y = sr1() in 0"), reads, depth=10).satisfied
    assert searched > 2900 and viral > 30 and len(checked) - searched - viral > 10
    # the parent's redexes carried over, and combinations with old messages added
    assert any(got and since[0] and got[0] in since[0] for since, got in checked)
    assert any(any(m not in since[2] for m in r.matched) and r not in since[0] for since, got in checked for r in got)


def test_derived_redexes_keep_a_message_consumed_and_emitted_again(monkeypatch):
    checked = _referee(monkeypatch)
    search([inject(parse("def k<x> | t<> |> k<x> in k<1> | t<> | t<>"))], 10)
    # k<1> is consumed and emitted again: present before and after, so not new
    (since, got), (since2, got2) = checked
    assert since[2] == set() and got == since[0] and len(got) == 1
    assert got2 == []


def test_derived_redexes_drop_the_last_copy_of_a_message(monkeypatch):
    checked = _referee(monkeypatch)
    search([inject(parse("def a<> | b<> |> 0 and a<> | c<> |> 0 in a<> | a<> | b<> | c<>"))], 10)
    # the first reduction leaves one a<>, the second none (both ways reach
    # one empty soup, expanded once)
    assert [(len(since[0]), len(got)) for since, got in checked] == [(2, 1), (2, 1), (1, 0)]


def test_derived_redexes_read_an_appended_rule_with_no_new_message(monkeypatch):
    checked = _referee(monkeypatch)
    soup = inject(parse("def go<> |> (def b<> |> out<> in 0) in go<>"))
    # b~2 is the name the def in go's body mints
    soup = inject_message(soup, Name("b", soup.fresh_counter + 1))
    search([soup], 10)
    since, got = checked[0]
    assert since[1] == 1 and since[2] == set()
    assert [r.label for r in got] == [f"b~{soup.fresh_counter + 1}"]


def test_states_at_the_horizon_are_not_matched(monkeypatch):
    import jcham.engine as engine

    checked = _referee(monkeypatch)
    calls = [0]
    refereed = engine.enabled_redexes

    def counted(*args):
        calls[0] += 1
        return refereed(*args)

    monkeypatch.setattr(engine, "enabled_redexes", counted)
    stats = DetectionStats()
    search([inject(parse("def a<> |> a<> | b<> in a<>"))], 10, horizon=3, stats=stats)
    # depths 0, 1 and 2 are expanded; the state at depth 3 is kept unmatched
    assert stats.states_explored == 3 and calls[0] == 3 and len(checked) == 2


# -- lazy digests: an edge is canonicalized only when its step is read


def _spied_edges(monkeypatch) -> tuple:
    """Record every soup canonicalized, and every edge the detector's
    searches show their visitor, with its answer."""
    import jcham.canon as canon
    import jcham.detector as detector

    formed, shown = [], []
    original, search_ = canon.canonicalize, detector.search
    monkeypatch.setattr(canon, "canonicalize", lambda soup: formed.append(soup) or original(soup))

    def spied(*args, visit=None, **kw):
        def shown_to(edge):
            answer = visit(edge) if visit is not None else None
            shown.append((edge, answer))
            return answer

        return search_(*args, visit=shown_to, **kw)

    monkeypatch.setattr(detector, "search", spied)
    return formed, shown


def _check_lazy(formed: list, shown: list) -> int:
    """A cut edge was canonicalized only if its digest was read; a kept
    edge's step carries its soup's digest.  Returns the cut edges never
    canonicalized."""
    ids = {id(s) for s in formed}  # ``formed`` keeps every soup alive
    cut = [e for e, answer in shown if answer is CUT]
    assert all((id(e.soup) in ids) == (e.digest_cache is not None) for e in cut)
    unread = sum(e.digest_cache is None for e in cut)
    for e, answer in shown:
        if answer is None:
            assert id(e.soup) in ids and e.step.digest == canonicalize(e.soup).digest[:16]
    return unread


def test_an_edge_is_canonicalized_only_when_its_step_is_read(monkeypatch):
    from _gen import fragment_instance, shaped_program
    from jcham.detector import explore, viral_set_member
    from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus

    formed, shown = _spied_edges(monkeypatch)
    rng = random.Random(26)

    def visitor(edge):
        # drop some edges unread, read the step of some before dropping
        # them, and end a few searches
        roll = rng.random()
        answer = CUT if roll < 0.25 else "stop" if roll > 0.997 else None
        if roll < 0.08:
            edge.step
        shown.append((edge, answer))
        return answer

    starts = [inject(ctx.plug(program)) for ctx, program, _ in (fragment_instance(rng) for _ in range(30))]
    starts += [inject(parse(shaped_program(random.Random(s), 5, 2, 6, 2))) for s in range(30)]
    ended = 0
    for start in starts:
        try:
            found = search([start], 300, horizon=8, visit=visitor)
        except BudgetExhausted:
            continue
        if found is not None:
            ended += 1
            assert replay(found[0].trace()).messages == found[0].soup.messages
    assert ended > 3 and len(shown) > 1000
    assert _check_lazy(formed, shown) > 150
    formed.clear(), shown.clear()
    for n in (2, 3):
        targets = tuple(Name(f"sw{i}") for i in range(1, n + 1))
        virus = build_virus(MalwareSpec("virus", "III", ReplicationMech("overwrite"), TargetRoutine("hardcoded", targets)))
        for verdict in (viral_set_member(refined_context(n), virus, iterations=n), explore(refined_context(n), virus)):
            assert verdict.outcome == "vulnerable"
            assert replay(verdict.witness).messages
    # each viral iteration reads the step of its first replication only
    assert _check_lazy(formed, shown) > 5

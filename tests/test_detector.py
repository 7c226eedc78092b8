import random
import time

import pytest

from jcham.contexts import Context, refined_context, worm_topology
from jcham.desugar import desugar
from jcham.detector import (
    ExplosionGuard,
    FragmentViolation,
    InvalidActivation,
    detect_via_coverability,
    explore,
    ground,
    to_petri,
    viral_set_member,
)
from jcham.engine import replay
from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus, build_worm
from jcham.parser import parse
from jcham.petri import coverable
from jcham.scenarios import build_context
from jcham.syntax import Hole, Name, Null, Pair, pretty

from _gen import fragment_instance, shaped_program
from _petri_referee import covers_any, forward_enumerate, producible, product_ground


def virus(klass, mech="overwrite", targets=(Name("sw1"), Name("sw2"))):
    return build_virus(
        MalwareSpec(family="virus", klass=klass, mech=ReplicationMech(mech), targets=TargetRoutine("hardcoded", tuple(targets)))
    )


def test_explore_class_iii_witness_writes_first_target():
    ctx = refined_context(2)
    v = explore(ctx, virus("III"))
    assert v.vulnerable
    final_step = v.witness.steps[-1]
    touched = {m.channel.base for m in final_step.redex.matched} | {m.channel.base for m in final_step.emitted}
    assert "sw1" in touched or "content1" in touched


def test_explore_null_one_state():
    v = explore(refined_context(2), Null())
    assert v.outcome == "not_vulnerable"
    assert v.stats.states_explored == 1


def test_explore_append_vulnerable():
    ctx = refined_context(2)
    v = explore(ctx, virus("I", mech="append", targets=(Pair(Name("sw1"), Name("sr1")), Pair(Name("sw2"), Name("sr2")))))
    assert v.vulnerable
    assert v.stats.states_explored <= 10_000


def test_witness_replays():
    ctx = refined_context(2)
    for build in (lambda: virus("III"), lambda: virus("I")):
        v = explore(ctx, build())
        final = replay(v.witness)
        assert final is not None


def test_budget_monotonicity():
    ctx = refined_context(2)
    v_small = explore(ctx, virus("III"), max_states=50)
    v_big = explore(ctx, virus("III"), max_states=5000)
    assert v_big.vulnerable
    assert v_small.outcome in ("vulnerable", "budget_exhausted")


def test_diverging_program_exhausts_any_budget():
    ctx = refined_context(2)
    div = parse("def m(x) |> (def tick<> |> tick<> | junk<> in tick<>) in proc_exec(m, a0)")
    for budget in (50, 200, 800):
        v = explore(ctx, div, max_states=budget)
        assert v.outcome == "budget_exhausted", budget


def test_viral_set_two_iterations():
    ctx = refined_context(2)
    v = viral_set_member(ctx, virus("III"), iterations=2)
    assert v.vulnerable


def test_viral_set_exhausted_targets():
    ctx = refined_context(2)
    v = viral_set_member(ctx, virus("III", targets=(Name("sw1"),)), iterations=2)
    assert v.outcome == "not_vulnerable"


def test_viral_set_null():
    assert viral_set_member(refined_context(2), Null(), iterations=2).outcome == "not_vulnerable"


def test_viral_set_requires_two_iterations():
    with pytest.raises(ValueError):
        viral_set_member(refined_context(2), Null(), iterations=1)


def test_viral_set_rejects_non_exec_activation():
    ctx = refined_context(2)
    with pytest.raises(InvalidActivation):
        viral_set_member(ctx, virus("III"), iterations=2, activations=[Name("sw1")])


def test_viral_set_explicit_activation():
    ctx = refined_context(2)
    v = viral_set_member(ctx, virus("III"), iterations=2, activations=[Name("se1")])
    assert v.vulnerable


def test_viral_set_starts_each_completion_once(monkeypatch):
    # completions that repeat one another (same rules, same message counts)
    # seed no starts; the searches, and so the verdict and counters, are
    # those of all completions, whose repeats the search dropped itself
    import jcham.detector as detector

    searched = []
    original = detector.search

    def recorded(starts, *args, **kwargs):
        searched.append(list(starts))
        return original(starts, *args, **kwargs)

    monkeypatch.setattr(detector, "search", recorded)
    v = viral_set_member(refined_context(4), virus("III", targets=[Name(f"sw{i}") for i in range(1, 5)]), iterations=4)
    assert v.vulnerable
    # the counts with every completion kept: 16, 8 and 8 starts
    assert (v.stats.states_explored, v.stats.dedup_hits) == (79, 10)
    assert [len(starts) for starts in searched] == [1, 4, 4, 4]
    for starts in searched:
        keys = [(s.rules, frozenset(s.messages.items())) for s in starts]
        assert len(set(keys)) == len(keys)


def test_viral_set_completion_that_keeps_reacting_trips_its_budget():
    # the virus starts a ticking loop once it has replicated: no hit settles
    # into a completed state, so none may seed the next iteration
    text = pretty(virus("III"))
    ticking = text.replace(
        "in loc_rep(sys_ref(), loc_targ()))", "in loc_rep(sys_ref(), loc_targ()) | (def tick<> |> tick<> in tick<>))"
    )
    assert ticking != text
    v = viral_set_member(refined_context(2), parse(ticking), iterations=2)
    assert v.outcome == "budget_exhausted"
    assert v.notes[-2:] == ["budget completion_steps=400 exhausted", "iteration 1 failed"]


def test_viral_set_last_iteration_is_not_settled():
    # the virus ticks only when an activation runs it: the hits of the
    # iteration that follows one keep reacting.  A last iteration's hits
    # start nothing, so they count; an earlier one's would be start states
    text = pretty(virus("III"))
    ticking = text.replace(
        "in loc_rep(sys_ref(), loc_targ()))",
        "in loc_rep(sys_ref(), loc_targ()) | (if [x = a0] then 0 else (def tick<> |> tick<> in tick<>)))",
    )
    assert ticking != text
    v = viral_set_member(refined_context(2), parse(ticking), iterations=2)
    assert v.outcome == "vulnerable"
    assert v.notes[-2:] == ["iteration 1 replicated", "iteration 2 replicated"]
    v = viral_set_member(refined_context(2), parse(ticking), iterations=3)
    assert v.outcome == "budget_exhausted"
    assert v.notes[-3:] == ["iteration 1 replicated", "budget completion_steps=400 exhausted", "iteration 2 failed"]


def test_viral_set_witness_replays():
    ctx = refined_context(2)
    v = viral_set_member(ctx, virus("III"), iterations=2)
    assert v.vulnerable and v.witness is not None
    replay(v.witness)


# -- grounding


def test_ground_instance_counts():
    g = ground(parse("def x<u> |> y<u> in x<a> | x<b>"))
    # one instance per message the head can take
    assert [gr.label for gr in g.rules] == ["x~1<a>", "x~1<b>"]
    # z carries only b and nothing emits on it, so only x<a> | z<b> can form
    g2 = ground(parse("def x<u> | z<v> |> y<u> in x<a> | z<b> | w<c>"))
    assert [gr.label for gr in g2.rules] == ["x~1<a>&z~2<b>"]


def test_ground_follows_bodies_to_later_instances():
    # y<a> exists only once the x instance has fired, and z<> never exists
    g = ground(parse("def x<u> |> y<u> and y<v> |> out<v> and z<> | y<w> |> x<w> in x<a>"))
    assert [(gr.rule_index, gr.label, [str(m) for m in gr.body]) for gr in g.rules] == [
        (0, "x~1<a>", ["y~2<a>"]),
        (1, "y~2<a>", ["out<a>"]),
    ]


def test_ground_rejects_nested_defs():
    with pytest.raises(FragmentViolation):
        ground(parse("def x<u> |> (def y<v> |> 0 in y<u>) in x<a>"))


def test_ground_explosion_guard():
    # three heads with 11 messages each: 1,331 bindings over a cap of 1,000
    msgs = " | ".join(f"{ch}<q{i}>" for ch in ("x", "y", "z") for i in range(11))
    big = parse(f"def x<u> | y<v> | z<w> |> 0 in {msgs}")
    with pytest.raises(ExplosionGuard):
        ground(big, max_instances=1000)
    assert len(ground(big, max_instances=1331).rules) == 1331


def test_ground_conditionals_resolve_statically():
    g = ground(parse("def x<u> |> if [u = a] then hit<u> else 0 in x<a> | x<b>"))
    bodies = {gr.guard[0].args[0]: gr.body for gr in g.rules if gr.guard[0].channel.base == "x"}
    hits = {str(k): [str(m) for m in v] for k, v in bodies.items()}
    assert hits["a"] == ["hit<a>"]
    assert hits["b"] == []


def test_ground_matches_the_product_referee_on_producible_guards():
    # the product grounding over the payload universe, cut to the instances
    # whose guard messages can all be produced, in the same order
    rng = random.Random(2718)
    ctx = build_context("bare(resources=r1)")
    programs = [desugar(c.plug(prog)) for c, prog, _ in (fragment_instance(rng) for _ in range(60))]
    programs += [desugar(ctx.plug(parse(shaped_program(random.Random(s), 5, 2, 6, 2)))) for s in range(40)]
    nonempty = 0
    for p in programs:
        g = ground(p)
        referee = product_ground(p)
        known = producible(referee, g.initial)
        assert g.rules == [gr for gr in referee if set(gr.guard) <= known], pretty(p)
        nonempty += bool(g.rules) and len(g.rules) < len(referee)
    # most programs have instances, and fewer than the whole product
    assert nonempty >= 50


def test_to_petri_shapes():
    g = ground(parse("def x<> |> y<> in x<>"))
    net, init, places = to_petri(g)
    assert len(net.transitions) == 1
    assert sum(init) == 1


# -- the decidable route


def test_coverability_toy_replicator():
    ctx = Context(template=Hole(), services=frozenset(), resources=frozenset({"sw1"}))
    toy = parse("def t<> |> sw1<p> | t<> in t<>")
    v = detect_via_coverability(ctx, toy, self_channel=Name("p"))
    assert v.vulnerable
    assert len(v.witness.steps) == 1
    replay(v.witness)


def test_coverability_unreachable_target():
    ctx = Context(template=Hole(), services=frozenset({"sw1"}), resources=frozenset({"sw2"}))
    toy = parse("def t<> |> sw1<p> | t<> in t<>")
    assert detect_via_coverability(ctx, toy, self_channel=Name("p")).outcome == "not_vulnerable"


def test_coverability_note_does_not_depend_on_body_spelling():
    # the witness covers both emissions; grounding numbers the places in the
    # order the body writes them, and the note must not follow that order
    notes = [
        detect_via_coverability(build_context("bare(resources=r1)"), parse(f"def go<> |> {body} in go<>"), Name("p")).notes[-1]
        for body in ("out<p> | r1<p>", "r1<p> | out<p>")
    ]
    assert notes == ["coverability witness: emission out<p>"] * 2


def test_coverability_stops_at_the_first_cover(monkeypatch):
    # a program that grounds to 25 places and 155 transitions; run to
    # saturation the backward search took over 40 s on it
    import jcham.detector as detector

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return coverable(*args, **kwargs)

    monkeypatch.setattr(detector, "coverable", counted)
    prog = parse(
        "def ca<x> | cb<y> | cc<z> |> cb<x> | cc<y> | r1<z> and cb<x> |> cc<x> and cc<x> | ca<y> |> ca<x> | out<y> "
        "in ca<a0> | ca<a1> | ca<a2> | ca<a3> | cb<p> | cc<a0>"
    )
    t0 = time.perf_counter()
    v = detect_via_coverability(build_context("bare(resources=r1)"), prog, self_channel=Name("p"))
    elapsed = time.perf_counter() - t0
    assert v.vulnerable and elapsed < 5.0
    assert len(calls) == 1
    replay(v.witness)


@pytest.mark.parametrize(
    "text",
    [
        # shaped_program(Random(seed), *shape) for seeds 107 and 112 of shape
        # (4, 3, 7, 2) and 118 of (6, 2, 8, 2): over the whole payload product
        # each grounds to hundreds of dead instances, and a backward search
        # through them ran past 8 s (seed 107 past 90 s)
        "def c0<> |> c2<a0, a2> | r1<p> and c1<x0, x1> | c3<x2, x3> |> out<p> and c2<x0, x1> | c3<x2, x3> |> "
        "c1<x2, x3> and c3<x0, x1> | c0<> |> c3<x1, x1> and c0<> | c2<x0, x1> |> c3<x1, x0> | r1<p> and "
        "c1<x0, x1> | c2<x2, x3> |> if [x0 = p] then (c3<p, x2>) else 0 and c2<x0, x1> |> c1<a2, a2> | "
        "c1<a2, p> in c3<a1, p> | c3<p, a2> | c3<p, a1>",
        "def c0<x0> | c2<x1, x2> |> out<x1> | c2<x1, a0> and c1<x0, x1> | c0<x2> |> c3<p, x2> | c2<x1, x1> | "
        "out<a0> and c2<x0, x1> |> if [x0 = a0] then (c3<a1, p> | c3<a1, a0> | c2<x0, x0>) else 0 and "
        "c3<x0, x1> | c2<x2, x3> |> if [x0 = a0] then (r1<x0>) else 0 and c0<x0> | c3<x1, x2> |> c0<a2> | "
        "c2<a1, a2> and c1<x0, x1> |> if [x0 = p] then (c2<a1, a0>) else 0 and c2<x0, x1> | c1<x2, x3> |> "
        "r1<x2> in c1<p, a1> | c0<p>",
        "def c0<x0, x1> | c1<x2, x3> |> c5<x0, p> | out<p> and c1<x0, x1> | c5<x2, x3> |> if [x0 = a0] then "
        "(c0<x1, p>) else 0 and c2<> | c0<x0, x1> |> c0<a1, p> | c5<a1, a0> | r1<x0> and c3<x0> | c0<x1, x2> "
        "|> c1<p, x0> | c1<x1, x1> and c4<> |> c2<> and c5<x0, x1> | c2<> |> if [x0 = p] then (c2<> | "
        "c1<p, a1>) else 0 and c0<x0, x1> |> c2<> and c1<x0, x1> |> if [x0 = a1] then (c4<>) else 0 in "
        "c3<p> | c3<a1> | c0<a1, p>",
    ],
    ids=["4-3-7-2#107", "4-3-7-2#112", "6-2-8-2#118"],
)
def test_coverability_decides_programs_with_dead_instances_quickly(text):
    t0 = time.perf_counter()
    v = detect_via_coverability(build_context("bare(resources=r1)"), parse(text), self_channel=Name("p"))
    assert v.outcome == "not_vulnerable"
    assert time.perf_counter() - t0 < 2.0


def test_coverability_agrees_with_explore_on_generated_corpus():
    rng = random.Random(1234)
    decided = 0
    tried = 0
    while decided < 20 and tried < 200:
        tried += 1
        ctx, prog, self_ch = fragment_instance(rng)
        ex = explore(ctx, prog, max_states=4000, max_steps_per_branch=200, self_channel=self_ch)
        if ex.outcome == "budget_exhausted":
            continue
        cov = detect_via_coverability(ctx, prog, self_channel=self_ch)
        assert cov.outcome == ex.outcome, prog
        if cov.vulnerable:
            replay(cov.witness)
        decided += 1
    assert decided >= 20


def test_forward_enumerate_agrees_with_coverable_on_generated_nets():
    rng = random.Random(4321)
    checked = 0
    for _ in range(40):
        ctx, prog, self_ch = fragment_instance(rng)
        from jcham.contexts import plug
        from jcham.desugar import desugar

        g = ground(desugar(ctx.plug(prog)))
        net, init, places = to_petri(g)
        seen, saturated = forward_enumerate(net, init, cap=2000)
        if not saturated:
            continue
        for i in rng.sample(range(len(places)), min(3, len(places))):
            target = net.marking({i: 1})
            ok, _ = coverable(net, init, target)
            assert ok == covers_any(seen, target)
            checked += 1
    assert checked >= 20


def test_rich_environments_outside_fragment_are_rejected():
    ctx = refined_context(2)
    with pytest.raises(FragmentViolation):
        detect_via_coverability(ctx, virus("III"))


def test_worm_detection_via_export():
    wt = worm_topology()
    w = build_worm(MalwareSpec(family="worm", klass="IV", targets=TargetRoutine("hardcoded", (Name("sd"),))))
    v = explore(wt, w)
    assert v.vulnerable
    replay(v.witness)


def test_equal_rules_tuples_share_one_carrier_entry(monkeypatch):
    import jcham.detector as detector
    from jcham.engine import ActiveRule, Soup

    walked = []

    def counted_free_names(p):
        walked.append(p)
        return free_names(p)

    free_names = detector.free_names
    monkeypatch.setattr(detector, "free_names", counted_free_names)
    soup, _, qual = detector._prepare(refined_context(2), virus("I", "prepend"), None)
    carriers = qual._carriers(soup)
    assert carriers and len(walked) == sum(len(r.heads) == 1 and r.heads[0].channel.base != "k" for r in soup.rules)
    # the same rules, rebuilt: an equal tuple of other objects
    rebuilt = tuple(ActiveRule(r.heads, r.body) for r in soup.rules)
    assert rebuilt == soup.rules and rebuilt is not soup.rules
    assert qual._carriers(Soup(rebuilt)) is carriers and len(qual._carrier_cache) == 1
    # a longer tuple is a new entry, and walks only its new rule's body
    walks = len(walked)
    longer = Soup(soup.rules + (ActiveRule(soup.rules[0].heads, Null()),))
    assert qual._carriers(longer) == carriers and len(qual._carrier_cache) == 2
    assert len(walked) == walks + 1


def test_a_witness_trace_keeps_no_search_cache(monkeypatch):
    import jcham.detector as detector

    searched = []
    search = detector.search

    def recorded(starts, *args, **kw):
        searched.extend(s.rules for s in starts)
        return search(starts, *args, **kw)

    monkeypatch.setattr(detector, "search", recorded)
    for n in (2, 3):
        program = virus("III", targets=[Name(f"sw{i}") for i in range(1, n + 1)])
        for check in (explore, lambda ctx, p: viral_set_member(ctx, p, iterations=n)):
            searched.clear()
            verdict = check(refined_context(n), program)
            assert verdict.vulnerable and verdict.witness.steps
            start = verdict.witness.initial.rules
            # an equal rules value of its own, which no search matched or canonicalized
            assert any(start == r for r in searched) and all(start is not r for r in searched)
            assert start.heads is None and start.canon_part is None and not start.canon_memo
            # every recorded digest is reproduced
            replay(verdict.witness)


def test_viral_and_classify_calls_leave_no_reference_cycle():
    # with the cyclic collector off, a call's garbage is freed by reference
    # counting alone: a recursive closure or a rules value reachable from its
    # own caches (its extended values, its heats replayed) would be left for
    # the collector
    import gc

    from jcham.cli import corpus_path
    from jcham.engine import inject, run
    from jcham.policy import TokenGuard, classify_context, enforcement_sound, tokenize_context
    from jcham.scenarios import build_process, load_scenario

    def viral(n):
        program = virus("III", targets=[Name(f"sw{i}") for i in range(1, n + 1)])
        return lambda: viral_set_member(refined_context(n), program, iterations=n)

    scenario = load_scenario(corpus_path("worm_class3.scn"))
    counted = tokenize_context(refined_context(2), TokenGuard(mode="counted", count=2, guarded=("sw1", "sw2")))
    with open(corpus_path("pingpong.jc")) as fh:
        pingpong = parse(fh.read())
    calls = [
        lambda: classify_context(refined_context(2)),
        viral(2),
        viral(3),
        lambda: explore(build_context(scenario.context_spec), build_process(scenario)[0]),
        lambda: enforcement_sound(counted),
        lambda: run(inject(pingpong), seed=7, max_steps=50),
    ]
    for call in calls:
        call()  # the first call fills module-level caches
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()

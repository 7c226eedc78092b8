"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its timing.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from jcham.canon import canonicalize
from jcham.contexts import TokenGuard, refined_context, rootkit_kernel, worm_topology
from jcham.detector import detect_via_coverability, explore, viral_set_member
from jcham.engine import (
    BudgetExhausted,
    inject,
    inject_message,
    replay,
    run,
    search,
)
from jcham.filesystem import file_system
from jcham.malware import (
    MalwareSpec,
    ReplicationMech,
    TargetRoutine,
    build_rootkit,
    build_virus,
    build_worm,
    loadable_driver,
    token_aware_overwrite,
)
from jcham.parser import parse
from jcham.petri import coverable
from jcham.policy import (
    add_token_distributor,
    classify_context,
    non_infection_test,
    tokenize_context,
)
from jcham.syntax import Name, Null, Pair

from _atoms import iter_cons
from _gen import fragment_instance
from _petri_referee import covers_any, forward_enumerate
from _props import (
    check_canonical_brute_agreement,
    check_heating_reversibility,
    check_red_conservation,
    check_substitution_capture,
)


def report(n, ok, detail, t0, bound=None):
    """Print the test's line with its time and, when it has one, the timing
    bound it must meet; fail the test when it did not pass."""
    status = "PASS" if ok else "FAIL"
    limit = "" if bound is None else f", bound {bound}s"
    print(f"\nACCEPTANCE {n:02d} {status} {detail} ({time.time() - t0:.2f}s{limit})")
    assert ok, detail


def _class_iii_virus(targets=(Name("sw1"), Name("sw2"))):
    return build_virus(
        MalwareSpec(
            family="virus",
            klass="III",
            mech=ReplicationMech("overwrite"),
            targets=TargetRoutine("hardcoded", tuple(targets)),
        )
    )


def _state_space(soup, max_states):
    """The reachable soups, breadth first, and whether they are all of them
    (False when more than ``max_states`` new states turned up)."""
    seen = {canonicalize(soup).digest[:16]: soup}

    def keep(edge):
        seen.setdefault(edge.step.digest, edge.soup)

    try:
        search([soup], max_states, visit=keep)
    except BudgetExhausted:
        return list(seen.values()), False
    return list(seen.values()), True


def _has(soup, base, payload_base=None):
    for m in soup.messages:
        if m.channel.base != base:
            continue
        if payload_base is None:
            return True
        if m.args and getattr(m.args[0], "base", None) == payload_base:
            return True
    return False


def _infection_state(soup):
    return _has(soup, "content1", "v") and _has(soup, "content2", "f2") and _has(soup, "current", "v")


def test_01_golden_initial_infection():
    """Class III overwrite in the two-target environment reaches the state
    content1<v> | content2<f2> | current<v>, exhaustively, within budget."""
    t0 = time.time()
    ctx = refined_context(2)
    soup = inject(ctx.plug(_class_iii_virus()))
    states, complete = _state_space(soup, max_states=500)
    hits = [s for s in states if _infection_state(s)]
    elapsed = time.time() - t0
    ok = bool(hits) and complete and len(states) < 500 and elapsed < 1.0
    detail = f"initial infection state found in {len(states)} states, complete={complete}"
    report(1, ok, detail, t0, bound=1.0)
    # stash for criterion 2
    test_01_golden_initial_infection.final = hits[0]


def test_02_golden_second_infection():
    """From the infected state, an execution request on the first resource
    re-runs the code and infects the second target."""
    start = getattr(test_01_golden_initial_infection, "final", None)
    if start is None:
        ctx = refined_context(2)
        states, _ = _state_space(inject(ctx.plug(_class_iii_virus())), 500)
        start = next(s for s in states if _infection_state(s))
    # the bound covers the second infection only, whether or not test 01 ran first
    t0 = time.time()
    se1 = start.channel("se1")
    poked = inject_message(start, se1, (Name("a1"), Name("act_done")))
    states, complete = _state_space(poked, max_states=600)
    hits = [s for s in states if _has(s, "content1", "v") and _has(s, "content2", "v")]
    elapsed = time.time() - t0
    ok = bool(hits) and elapsed < 1.0
    report(2, ok, f"second infection reached (content1<v> and content2<v>)", t0, bound=1.0)


def test_03_class_coverage():
    """All four virus classes and all four worm classes replicate in their
    environments, within 10^4 states each and 30 s total."""
    t0 = time.time()
    ctx = refined_context(2)
    wt = worm_topology()
    outcomes = {}
    for klass in ("I", "II", "III", "IV"):
        v = build_virus(
            MalwareSpec(
                family="virus",
                klass=klass,
                mech=ReplicationMech("overwrite"),
                targets=TargetRoutine("hardcoded", (Name("sw1"), Name("sw2"))),
            )
        )
        res = explore(ctx, v, max_states=10_000)
        outcomes[f"V_{klass}"] = res.outcome
        w = build_worm(
            MalwareSpec(family="worm", klass=klass, targets=TargetRoutine("hardcoded", (Name("sd"),)))
        )
        res_w = explore(wt, w, max_states=10_000)
        outcomes[f"W_{klass}"] = res_w.outcome
    elapsed = time.time() - t0
    ok = all(o == "vulnerable" for o in outcomes.values()) and elapsed < 30.0
    report(3, ok, f"verdicts {outcomes}", t0, bound=30.0)


def test_04_companion_behaviour():
    """Renaming companions leave the original readable under the copy name
    and run viral code under the target name; preempting companions win the
    completion order."""
    t0 = time.time()
    fs = file_system([(Name("n1"), Name("f1")), (Name("n2"), Name("f2"))])
    spec = MalwareSpec(
        family="virus",
        klass="III",
        mech=ReplicationMech("companion_rename", companion_name=Name("n_copy")),
        targets=TargetRoutine("hardcoded", (Name("n1"),)),
    )
    settled = run(inject(fs.plug(build_virus(spec))), seed=0, max_steps=400).final
    t_read = time.time()
    probe = run(
        inject_message(settled, settled.channel("read"), (Name("n_copy"), Name("obs"), Name("k0"))),
        seed=0,
        max_steps=200,
    ).final
    original_kept = any(
        m.channel.base == "obs" and m.args == (Name("f1"),) for m in probe.messages
    )
    exec_run = run(
        inject_message(settled, settled.channel("execute"), (Name("n1"), Name("aa"), Name("k1"))),
        seed=0,
        max_steps=300,
    )
    viral_ran = any(st.label.split("&")[0].split("~")[0] == "v" for st in exec_run.steps)
    rename_time = time.time() - t0

    t1 = time.time()
    exe, com, vxt = Name("exe"), Name("com"), Name("vxt")
    fsp = file_system([(Pair(Name("p"), exe), Name("f1"))], complements=[com, exe])
    spec2 = MalwareSpec(
        family="virus",
        klass="III",
        mech=ReplicationMech("companion_preempt", companion_ext=vxt),
        targets=TargetRoutine("hardcoded", (Pair(Name("p"), exe),)),
    )
    settled2 = run(inject(fsp.plug(build_virus(spec2))), seed=0, max_steps=500).final
    exec2 = run(
        inject_message(settled2, settled2.channel("execute"), (Name("p"), Name("aa"), Name("k2"))),
        seed=0,
        max_steps=400,
    )
    preempt_won = any(st.label.split("&")[0].split("~")[0] == "v" for st in exec2.steps)
    preempt_time = time.time() - t1
    ok = original_kept and viral_ran and preempt_won and rename_time < 1.0 and preempt_time < 1.0
    # the bound holds for each of the two parts
    detail = f"rename(read_copy={original_kept}, exec_viral={viral_ran}) preempt={preempt_won}"
    report(4, ok, f"{detail}, parts {rename_time:.2f}s and {preempt_time:.2f}s", t0, bound=1.0)


def test_05_rootkit_derivation():
    """Loading through the driver manager installs the fake call table; the
    allocation service leaks the hook only for the table base address."""
    t0 = time.time()
    ctx = rootkit_kernel(syscalls=[Name("sc_open"), Name("sc_read")], scbase=Name("scbase"))
    rkit = build_rootkit(
        commands=[(Name("c_hide"), parse("hidden<arg>"))],
        fake_syscalls=[(Name("fsc_open"), Null()), (Name("fsc_read"), Null())],
    )
    settled = run(inject(ctx.plug(loadable_driver(rkit))), seed=0, max_steps=400).final
    tables = [m for m in settled.messages if m.channel.base == "table"]
    hooked = len(tables) == 1 and [a.base for a in iter_cons(tables[0].args[0])] == ["fsc_open", "fsc_read"]

    got_hook = run(inject(ctx.plug(parse("let h = alloc(scbase, sz) in got<h>"))), seed=0, max_steps=60).final
    leak = any(m.channel.base == "got" and m.args[0].base == "hook" for m in got_hook.messages)
    got_access = run(inject(ctx.plug(parse("let h = alloc(other, sz) in got<h>"))), seed=0, max_steps=60).final
    benign = any(m.channel.base == "got" and m.args[0] == Name("access") for m in got_access.messages)
    elapsed = time.time() - t0
    ok = hooked and leak and benign and elapsed < 1.0
    report(5, ok, f"table_hooked={hooked} hook_leak={leak} benign_access={benign}", t0, bound=1.0)


def test_06_decidable_fragment_agreement():
    """On generated no-name-generation programs plus the fragment corpus
    scenario, the coverability route agrees with exhaustive exploration, and
    the forward enumerator agrees with the backward decision."""
    t0 = time.time()
    rng = random.Random(20240817)
    decided = 0
    tried = 0
    while decided < 20 and tried < 300:
        tried += 1
        ctx, prog, self_ch = fragment_instance(rng)
        ex = explore(ctx, prog, max_states=4000, max_steps_per_branch=200, self_channel=self_ch)
        if ex.outcome == "budget_exhausted":
            continue
        cov = detect_via_coverability(ctx, prog, self_channel=self_ch)
        assert cov.outcome == ex.outcome
        if cov.vulnerable:
            replay(cov.witness)
        decided += 1

    # the corpus scenario that fits the fragment
    from jcham.cli import corpus_path
    from jcham.scenarios import load_scenario, run_scenario

    toy = run_scenario(load_scenario(corpus_path("toy_petri.scn")))
    assert toy.expectation_met

    # forward oracle vs backward decision on the derived nets
    from jcham.contexts import plug
    from jcham.desugar import desugar
    from jcham.detector import ground, to_petri

    checked = 0
    rng2 = random.Random(99)
    for _ in range(40):
        ctx, prog, self_ch = fragment_instance(rng2)
        g = ground(desugar(ctx.plug(prog)))
        net, init, places = to_petri(g)
        seen, saturated = forward_enumerate(net, init, cap=2000)
        if not saturated:
            continue
        for i in rng2.sample(range(len(places)), min(3, len(places))):
            target = net.marking({i: 1})
            ok_b, _ = coverable(net, init, target)
            assert ok_b == covers_any(seen, target)
            checked += 1
    elapsed = time.time() - t0
    ok = decided >= 20 and checked >= 20 and elapsed < 60.0
    report(6, ok, f"{decided} programs agreed, {checked} net targets cross-checked", t0, bound=60.0)


def test_07_undecidability_respected():
    """A diverging non-replicating program exhausts every finite budget and
    is never declared safe."""
    t0 = time.time()
    ctx = refined_context(2)
    div = parse("def m(x) |> (def tick<> |> tick<> | junk<> in tick<>) in proc_exec(m, a0)")
    outcomes = []
    for budget in (100, 400, 1200):
        v = explore(ctx, div, max_states=budget)
        outcomes.append(v.outcome)
    ok = all(o == "budget_exhausted" for o in outcomes)
    report(7, ok, f"budgets -> {outcomes}", t0)


def test_08_non_infection_and_isolation():
    """A write probe is distinguishable afterwards, a read probe is not;
    the replication environment classifies as non-isolating, a read-only
    one as isolating."""
    t0 = time.time()
    ctx = refined_context(2)
    read_test = parse("let x = sr1() in observed<x>")
    violated = non_infection_test(ctx, parse("sw1(evil); probe_done<>"), [read_test], depth=6)
    satisfied = non_infection_test(ctx, parse("let y = sr1() in 0"), [read_test], depth=6)
    refined_rep = classify_context(ctx)
    from test_policy import read_only_context

    ro_rep = classify_context(read_only_context())
    elapsed = time.time() - t0
    ok = (
        violated.outcome == "violated"
        and violated.distinguishing is not None
        and satisfied.satisfied
        and satisfied.depth == 6
        and not refined_rep.isolation_holds
        and ro_rep.isolation_holds
        and elapsed < 5.0
    )
    report(
        8,
        ok,
        f"write={violated.outcome} read={satisfied.outcome} refined_isolates={refined_rep.isolation_holds} "
        f"read_only_isolates={ro_rep.isolation_holds}",
        t0,
        bound=5.0,
    )


def test_09_token_containment():
    """Guarding the write channels flips the class III verdict off; adding
    the distributor (and a token-aware mechanism) flips it back; a two-use
    counter blocks the third of three replications."""
    t0 = time.time()
    ctx = refined_context(2)
    guarded = tokenize_context(ctx, TokenGuard(mode="spatial", guarded=("sw1", "sw2")))
    off = explore(guarded, _class_iii_virus())
    aware = build_virus(
        MalwareSpec(
            family="virus",
            klass="III",
            mech=token_aware_overwrite(),
            targets=TargetRoutine("hardcoded", (Name("sw1"), Name("sw2"))),
        )
    )
    back_on = explore(add_token_distributor(guarded), aware)

    ctx3 = refined_context(3)
    counted = add_token_distributor(
        tokenize_context(ctx3, TokenGuard(mode="counted", count=2, guarded=("sw1", "sw2", "sw3")))
    )
    aware3 = build_virus(
        MalwareSpec(
            family="virus",
            klass="III",
            mech=token_aware_overwrite(),
            targets=TargetRoutine("hardcoded", (Name("sw1"), Name("sw2"), Name("sw3"))),
        )
    )
    two = viral_set_member(counted, aware3, iterations=2, max_states=20_000)
    three = viral_set_member(counted, aware3, iterations=3, max_states=20_000)
    elapsed = time.time() - t0
    ok = (
        off.outcome == "not_vulnerable"
        and back_on.vulnerable
        and two.vulnerable
        and three.outcome == "not_vulnerable"
        and elapsed < 10.0
    )
    report(
        9,
        ok,
        f"guarded={off.outcome} distributed={back_on.outcome} counted2={two.outcome} counted3={three.outcome}",
        t0,
        bound=10.0,
    )


def test_10_engine_property_suite():
    """Heating reversibility, reduction conservation, canonical-form
    agreement with brute force, and capture-avoiding substitution over at
    least a thousand generated cases."""
    t0 = time.time()
    total = 0
    total += check_heating_reversibility(280)
    total += check_red_conservation(280)
    total += check_canonical_brute_agreement(200)
    total += check_substitution_capture(280)
    elapsed = time.time() - t0
    ok = total >= 1000 and elapsed < 60.0
    report(10, ok, f"{total} generated cases, zero failures", t0, bound=60.0)

import dataclasses
import random
from collections import Counter
from itertools import permutations

import pytest

from _canon_referee import rebuilt
from jcham.canon import _message_flat, _render, _rule_flat, canonicalize, congruent
from jcham.engine import ActiveRule, GroundMessage, Rules, Soup, enabled_redexes, inject, reduce
from jcham.parser import parse
from jcham.syntax import Message, MsgPat, Name, NameRef, Parallel


def test_parallel_commutativity():
    assert congruent(inject(parse("a<> | b<>")), inject(parse("b<> | a<>")))


def test_fresh_counter_invariance():
    s1 = inject(parse("def x<u> |> y<u> in x<a>"))
    s2 = Soup()
    s2.fresh_counter = 40
    from jcham.engine import heat
    from jcham.desugar import desugar

    heat(s2, desugar(parse("def x<u> |> y<u> in x<a>")))
    assert canonicalize(s1).digest == canonicalize(s2).digest


def test_rule_order_invariance():
    s1 = inject(parse("def a<> |> x<> and b<> |> y<> in 0"))
    s2 = inject(parse("def b<> |> y<> and a<> |> x<> in 0"))
    assert congruent(s1, s2)


def test_message_difference_detected():
    assert not congruent(inject(parse("a<> | b<>")), inject(parse("a<> | c<>")))
    assert not congruent(inject(parse("a<1>")), inject(parse("a<2>")))
    assert not congruent(inject(parse("a<>")), inject(parse("a<> | a<>")))


def test_distinguishes_bases_of_indexed_names():
    # the rendering of an indexed name keeps its base next to its position
    assert not congruent(inject(parse("def a<> |> 0 in a<>")), inject(parse("def b<> |> 0 in b<>")))
    p, q = Name("p", 1), Name("q", 2)
    tell = Name("tell")
    pp = Soup((), Counter({GroundMessage(tell, (p, Name("p", 2))): 1}), [], 3)
    pq = Soup((), Counter({GroundMessage(tell, (p, q)): 1}), [], 3)
    assert not congruent(pp, pq) and not brute_congruent(pp, pq)


def test_distinguishes_wiring():
    # same bases, different message-to-rule wiring
    s1 = inject(parse("def x<> |> p<> and y<> |> q<> in x<>"))
    s2 = inject(parse("def x<> |> p<> and y<> |> q<> in y<>"))
    assert not congruent(s1, s2)


# -- brute-force congruence oracle


def _flats(soup: Soup) -> list:
    """Each rule and message of the soup, as ("rule" or "msg", skeleton)."""
    out = [("rule", _rule_flat(r)) for r in soup.rules]
    return out + [("msg", _message_flat(m, k)) for m, k in soup.messages.items()]


def _global_indexed_names(soup: Soup) -> list[Name]:
    """The indexed names occurring free in the soup, sorted: exactly the
    slots of the item skeletons."""
    return sorted({n for _, f in _flats(soup) for n in f.slots}, key=lambda n: (n.base, n.index))


def _serialize_with(soup, mapping):
    colors = {n: str(mapping.get(n, n)) for n in _global_indexed_names(soup)}
    rendered = [(kind, _render(f.toks, colors)) for kind, f in _flats(soup)]
    rules = tuple(sorted(s for kind, s in rendered if kind == "rule"))
    msgs = tuple(sorted(s for kind, s in rendered if kind == "msg"))
    return (rules, msgs)


def brute_congruent(s1: Soup, s2: Soup) -> bool:
    """Try every base-preserving bijection of indexed names."""
    n1, n2 = _global_indexed_names(s1), _global_indexed_names(s2)
    by_base1, by_base2 = {}, {}
    for n in n1:
        by_base1.setdefault(n.base, []).append(n)
    for n in n2:
        by_base2.setdefault(n.base, []).append(n)
    if set(by_base1) != set(by_base2):
        return s1.messages == s2.messages and not n1 and not n2
    if any(len(by_base1[b]) != len(by_base2[b]) for b in by_base1):
        return False
    target = _serialize_with(s2, {})

    def assign(bases, mapping):
        if not bases:
            return _serialize_with(s1, mapping) == target
        b, rest = bases[0], bases[1:]
        for perm in permutations(by_base2[b]):
            m2 = dict(mapping)
            m2.update(zip(by_base1[b], perm))
            if assign(rest, m2):
                return True
        return False

    return assign(list(by_base1), {})


def _random_program(rng: random.Random) -> str:
    lines = []
    n_rules = rng.randint(1, 3)
    chans = rng.sample(["ca", "cb", "cc", "cd"], n_rules)
    rules = []
    for ch in chans:
        arity = rng.randint(0, 1)
        binder = "u" if arity else ""
        body_ch = rng.choice(chans + ["sink"])
        body_arg = rng.choice(["u" if arity else "a", "a", "b"])
        body = f"{body_ch}<{body_arg}>" if rng.random() < 0.8 else "0"
        rules.append(f"{ch}<{binder}> |> {body}")
    # messages drawn from the rules keep arities consistent
    msgs = []
    for _ in range(rng.randint(1, 4)):
        pick = rng.choice(rules + ["free1<a>", "free2<b>"])
        if "<u>" in pick:
            msgs.append(pick.split("<")[0] + f"<{rng.choice('ab')}>")
        elif pick.startswith("free"):
            msgs.append(pick)
        else:
            msgs.append(pick.split("<")[0] + "<>")
    return "def " + " and ".join(rules) + " in " + " | ".join(msgs)


def _random_soup(rng: random.Random) -> Soup:
    s = inject(parse(_random_program(rng)))
    for _ in range(rng.randint(0, 3)):
        rs = enabled_redexes(s)
        if not rs:
            break
        s = reduce(s, rng.choice(rs))
    return s


def test_agrees_with_brute_force_on_corpus():
    rng = random.Random(2024)
    soups = [_random_soup(rng) for _ in range(60)]
    # compare a sample of pairs, including self-congruent rebuilds
    checked = 0
    for i in range(len(soups)):
        for j in range(i, min(i + 4, len(soups))):
            a, b = soups[i], soups[j]
            if a.message_count() > 8 or b.message_count() > 8:
                continue
            expected = brute_congruent(a, b)
            got = canonicalize(a).digest == canonicalize(b).digest
            assert got == expected, (a.dump(), b.dump())
            checked += 1
    assert checked >= 100


def test_rule_skeleton_cache_shared_across_soups():
    # rule objects persist from state to state and keep their skeleton; the
    # digest of every soup sharing them must match an uncached rebuild.  The
    # two x activations share a base, so their order depends on refinement,
    # and the late a activation renumbers the names sorted after it.
    src = "def mk<v> |> (def x<> |> v<> in go<x>) and z<> |> (def a<> |> 0 in y<a>) in mk<p> | mk<q> | z<>"
    s1 = inject(parse(src))

    def fire(s: Soup, base: str) -> Soup:
        return reduce(s, next(r for r in enabled_redexes(s) if r.label.startswith(base + "~")))

    s2 = fire(fire(s1, "mk"), "mk")
    s3 = fire(s2, "z")
    soups = (s1, s2, s3)
    assert len(s1.rules) < len(s2.rules) < len(s3.rules)
    assert all(a is b for p, q in ((s1, s2), (s2, s3)) for a, b in zip(p.rules, q.rules))
    assert len({frozenset(s.messages.items()) for s in soups}) == 3

    digests = [canonicalize(s).digest for s in soups]
    assert all(r.canon_skeleton is not None for r in s3.rules)
    assert all(r.canon_skeleton is None for r in rebuilt(s3).rules)
    assert digests == [canonicalize(rebuilt(s)).digest for s in soups]
    assert digests == [canonicalize(s).digest for s in reversed(soups)][::-1]
    assert len(set(digests)) == 3


def _rename(obj, mapping):
    """``obj`` with every name in ``mapping`` replaced, through tuples and
    syntax dataclasses."""
    if isinstance(obj, Name):
        return mapping.get(obj, obj)
    if isinstance(obj, tuple):
        return tuple(_rename(x, mapping) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return type(obj)(**{f.name: _rename(getattr(obj, f.name), mapping) for f in dataclasses.fields(obj) if f.init})
    return obj


def congruent_copy(soup: Soup, rng: random.Random) -> Soup:
    """``soup`` with its indexed names moved onto fresh indices (each keeping
    its base) in random order, and its rules and messages shuffled; the
    rules are rebuilt, so no cached skeleton carries over."""
    names = _global_indexed_names(soup)
    start = 1 + max((n.index for n in names), default=soup.fresh_counter)
    fresh = list(range(start, start + len(names)))
    rng.shuffle(fresh)
    mapping = {n: Name(n.base, i) for n, i in zip(names, fresh)}
    rules = [ActiveRule(_rename(r.heads, mapping), _rename(r.body, mapping)) for r in soup.rules]
    rng.shuffle(rules)
    messages = [(_rename(m, mapping), k) for m, k in soup.messages.items()]
    rng.shuffle(messages)
    return Soup(tuple(rules), Counter(dict(messages)), [], start + len(names))


def test_congruent_copy_renames_and_shuffles():
    s = inject(parse("def hub<x> |> 0 in " + " | ".join(["(def k<> |> hub<j> and j<y> |> k<> in go<k>)"] * 3)))
    copy = congruent_copy(s, random.Random(5))
    assert not set(_global_indexed_names(s)) & set(_global_indexed_names(copy))
    assert sorted(n.base for n in _global_indexed_names(s)) == sorted(n.base for n in _global_indexed_names(copy))
    assert brute_congruent(s, copy)


def test_interchangeable_names_do_not_explode():
    # many identical dead reply rules: still fast and stable
    s = inject(parse("def g(a) |> (return a to g) in " + " | ".join(["(let r = g(1) in 0)"] * 8)))
    for _ in range(40):
        rs = enabled_redexes(s)
        if not rs:
            break
        s = reduce(s, rs[0])
    rng = random.Random(8)
    assert all(canonicalize(congruent_copy(s, rng)).digest == canonicalize(s).digest for _ in range(5))


# -- component recursion: interchangeable clusters hanging off fixed names

_CLUSTER = "(def k<> |> hub<j> and j<y> |> k<> | y<> in go<k>)"
_CLUSTER_SPELLED_OTHERWISE = "(def j<y> |> y<> | k<> and k<> |> hub<j> in go<k>)"
_PERTURBED = (
    "(def k<> |> hub<k> and j<y> |> k<> | y<> in go<k>)",  # wired back to itself
    "(def k<> |> tap<j> and j<y> |> k<> | y<> in go<k>)",  # hangs off the other fixed name
    "(def k<> |> hub<j> and j<y> |> k<> | y<> in go<j>)",  # publishes the other name
)


def _hub_soup(clusters) -> Soup:
    return inject(parse("def hub<x> |> 0 and tap<x> |> 0 in " + " | ".join(clusters)))


def _needs_joint(soup: Soup) -> bool:
    """Whether a message of ``soup`` carries a name that its rules leave
    loose or do not mention: only then is the soup refined jointly."""
    import jcham.canon as canon

    part = canon._rules_part(soup.rules)
    carried = {n for m, k in soup.messages.items() for n in _message_flat(m, k).slots}
    return bool(carried - (set(part.names) - part.loose))


def _spy_joint(monkeypatch) -> list:
    """Record every call of the joint refinement."""
    import jcham.canon as canon

    joint = []
    joint_serialization = canon._joint_serialization
    monkeypatch.setattr(canon, "_joint_serialization", lambda *a: joint.append(a) or joint_serialization(*a))
    return joint


def test_component_split_agrees_with_brute_force(monkeypatch):
    joint = _spy_joint(monkeypatch)
    verdicts = []
    for copies in (2, 3):
        soups = [
            _hub_soup([_CLUSTER] * copies),
            _hub_soup([_CLUSTER_SPELLED_OTHERWISE] + [_CLUSTER] * (copies - 1)),
            _hub_soup([_CLUSTER] * (copies - 1) + [_CLUSTER_SPELLED_OTHERWISE]),
        ]
        soups += [_hub_soup([_CLUSTER] * (copies - 1) + [odd]) for odd in _PERTURBED]
        soups += [_hub_soup([odd] + [_CLUSTER] * (copies - 1)) for odd in _PERTURBED]
        routes = []
        for s in soups:
            joint.clear()
            canonicalize(s)
            routes.append(bool(joint))
        # identical clusters are interchangeable, and every go<k> message
        # carries a loose k: only a pair whose rules differ is told apart by
        # the rules alone, and its messages then skip the joint refinement.
        # Publishing the other name perturbs a message, not the rules.
        perturbed = [copies > 2, copies > 2, True]
        assert routes == [_needs_joint(s) for s in soups] == [True] * 3 + perturbed * 2
        for i, a in enumerate(soups):
            for b in soups[i:]:
                expected = brute_congruent(a, b)
                assert (canonicalize(a).digest == canonicalize(b).digest) == expected, (a.dump(), b.dump())
                verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_components_off_different_fixed_names_keep_apart():
    # clusters off hub and clusters off tap fall into different classes, but
    # each class still holds two interchangeable components
    hub, tap = _CLUSTER, _PERTURBED[1]
    soups = [_hub_soup([hub, tap, hub, tap]), _hub_soup([tap, tap, hub, hub]), _hub_soup([hub, tap, tap, tap])]
    rng = random.Random(3)
    for s in soups:
        assert all(canonicalize(congruent_copy(s, rng)).digest == canonicalize(s).digest for _ in range(6))
    assert canonicalize(soups[0]).digest == canonicalize(soups[1]).digest
    assert canonicalize(soups[0]).digest != canonicalize(soups[2]).digest


def _regular_digraph(n: int, rng: random.Random) -> Soup:
    """Messages ``e<x~i, x~j>`` along the edges of a random digraph in which
    every name has two successors and two predecessors, plus ``h<hub~0, x~i>``
    for every name.  Refinement leaves the x names in one class, but the
    digraph need not be symmetric, so the orders that individualization
    reaches can serialize differently."""
    p, q = list(range(n)), list(range(n))
    while not all(p[i] != i and q[i] != i and p[i] != q[i] for i in range(n)):
        rng.shuffle(p)
        rng.shuffle(q)
    hub = Name("hub", 0)
    messages = Counter(GroundMessage(Name("h"), (hub, Name("x", i + 1))) for i in range(n))
    for i in range(n):
        messages.update(GroundMessage(Name("e"), (Name("x", i + 1), Name("x", j + 1))) for j in (p[i], q[i]))
    return Soup((), messages, [], n + 1)


def test_component_individualization_takes_the_least_order():
    rng = random.Random(11)
    soups = [_regular_digraph(6, rng) for _ in range(8)]
    for a in soups:
        assert all(canonicalize(congruent_copy(a, rng)).digest == canonicalize(a).digest for _ in range(3))
    for a, b in zip(soups[:3], soups[1:4]):
        assert (canonicalize(a).digest == canonicalize(b).digest) == brute_congruent(a, b)


def _class_iii_virus(n: int):
    from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus

    targets = tuple(Name(f"sw{i}") for i in range(1, n + 1))
    return build_virus(MalwareSpec("virus", "III", ReplicationMech("overwrite"), TargetRoutine("hardcoded", targets)))


def _viral_states(n: int) -> list:
    """Every soup ``viral_set_member`` canonicalizes on ``refined_context(n)``."""
    import jcham.canon as canon
    from jcham.contexts import refined_context
    from jcham.detector import viral_set_member

    seen = []
    original = canon.canonicalize

    def recording(soup, *rest):
        seen.append(soup)
        return original(soup, *rest)

    virus = _class_iii_virus(n)
    canon.canonicalize = recording
    try:
        verdict = viral_set_member(refined_context(n), virus, iterations=n)
    finally:
        canon.canonicalize = original
    assert verdict.outcome == "vulnerable"
    return seen


def test_digest_invariant_on_viral_states():
    states = _viral_states(4)
    assert len(states) >= 89
    rng = random.Random(4)
    for s in states:
        assert canonicalize(congruent_copy(s, rng)).digest == canonicalize(s).digest, s.dump()


def test_viral_component_searches_stay_within_budget(monkeypatch):
    # a search that the budget cuts explores fewer orders than one without a budget
    import jcham.canon as canon

    searches, tripped = [0], []

    def counted(slotted, colors):
        orders = discrete_orders(slotted, colors)
        budget = canon._BRANCH_BUDGET
        canon._BRANCH_BUDGET = 10**9
        try:
            unbounded = discrete_orders(slotted, colors)
        finally:
            canon._BRANCH_BUDGET = budget
        searches[0] += 1
        if len(orders) < len(unbounded):
            tripped.append((len(orders), len(unbounded)))
        return orders

    discrete_orders = canon._discrete_orders
    monkeypatch.setattr(canon, "_discrete_orders", counted)
    _viral_states(4)
    assert searches[0] > 0
    assert tripped == []
    # the counter does see a search that the budget cuts
    monkeypatch.setattr(canon, "_BRANCH_BUDGET", 1)
    canonicalize(_regular_digraph(6, random.Random(11)))
    assert tripped


# -- the caches of a rules value: its rules part, and one memo of message
# skeletons and component results per lineage, never a form


def _checked_forms(monkeypatch) -> list:
    """Make each ``canonicalize`` call also compute the form of the soup
    rebuilt from fresh rules, and compare the two; the returned list counts
    the calls whose rules value already carried its rules part."""
    import jcham.canon as canon

    original = canon.canonicalize
    hits = [0]

    def checked(soup):
        hits[0] += soup.rules.canon_part is not None
        form = original(soup)
        assert form == original(rebuilt(soup)), soup.dump()
        return form

    monkeypatch.setattr(canon, "canonicalize", checked)
    return hits


def test_memo_gives_the_uncached_form_on_every_edge(monkeypatch):
    from _gen import fragment_instance
    from jcham.contexts import refined_context
    from jcham.detector import viral_set_member
    from jcham.engine import BudgetExhausted, search

    hits = _checked_forms(monkeypatch)
    assert search([inject(refined_context(2).plug(_class_iii_virus(2)))], 500) is None
    assert viral_set_member(refined_context(3), _class_iii_virus(3), iterations=3).outcome == "vulnerable"
    rng = random.Random(12)
    for _ in range(30):
        ctx, program, _ = fragment_instance(rng)
        try:
            search([inject(ctx.plug(program))], 300, horizon=6)
        except BudgetExhausted:
            pass
    assert hits[0] > 0


def test_memo_is_exact_where_the_branch_budget_trips(monkeypatch):
    import jcham.canon as canon
    from jcham.engine import search

    tripped = [0]

    def counted(slotted, colors):
        orders = discrete_orders(slotted, colors)
        monkeypatch.setattr(canon, "_BRANCH_BUDGET", 10**9)
        tripped[0] += len(orders) < len(discrete_orders(slotted, colors))
        monkeypatch.setattr(canon, "_BRANCH_BUDGET", 1)
        return orders

    discrete_orders = canon._discrete_orders
    monkeypatch.setattr(canon, "_discrete_orders", counted)
    monkeypatch.setattr(canon, "_BRANCH_BUDGET", 1)
    hits = _checked_forms(monkeypatch)
    # the digraph's names stay interchangeable under refinement, and the
    # reactions on u and w commute
    diamond = inject(parse("def u<> |> 0 and w<> |> 0 in u<> | w<>"))
    digraph = _regular_digraph(6, random.Random(11))
    soup = Soup(diamond.rules, digraph.messages + diamond.messages, [], digraph.fresh_counter)
    assert search([soup], 100) is None
    assert tripped[0] > 0 and hits[0] > 0


def test_memo_closes_a_diamond_with_one_rules_part(monkeypatch):
    import jcham.canon as canon
    from jcham.engine import DetectionStats, search

    soup = inject(parse("def x<> |> 0 and y<> |> 0 in x<> | y<>"))
    built, edges = [], []
    rules_part = canon._rules_part
    monkeypatch.setattr(canon, "_rules_part", lambda rules: built.append(rules) or rules_part(rules))
    memoized = DetectionStats()
    assert search([soup], 10, stats=memoized, visit=edges.append) is None
    # x then y and y then x both reach the soup with no messages left
    assert len(edges) == 4 and edges[2].soup.messages == edges[3].soup.messages == Counter()
    assert len(built) == 1

    original = canon.canonicalize
    monkeypatch.setattr(canon, "canonicalize", lambda s: original(rebuilt(s)))
    unmemoized, plain_edges = DetectionStats(), []
    search([soup], 10, stats=unmemoized, visit=plain_edges.append)
    assert (memoized.states_explored, memoized.dedup_hits) == (unmemoized.states_explored, unmemoized.dedup_hits) == (3, 1)
    assert [e.step.digest for e in edges] == [e.step.digest for e in plain_edges]
    # over rebuilt rules the start soup and every edge build the rules part
    assert len(built) == 1 + 1 + len(edges)


def test_memo_holds_rules_parts_and_skeletons_only():
    from jcham.canon import _COMPONENTS, _Component, _Flat, _RulesPart
    from jcham.syntax import Null

    x, y = GroundMessage(Name("x", 1)), GroundMessage(Name("y", 2))
    soup = Soup((), Counter({x: 1, y: 1}))
    first = canonicalize(soup)
    rules, memo = soup.rules, soup.rules.canon_memo
    second = canonicalize(Soup(rules, Counter({y: 1, x: 1})))
    # the rules value carries its rules part; its memo holds one skeleton
    # per (message, count) and the component table, empty here: x~1 and y~2
    # are told apart by their bases.  No form is stored, for either order
    assert isinstance(rules.canon_part, _RulesPart)
    assert Counter(type(v).__name__ for v in memo.values()) == {_Flat.__name__: 2, "dict": 1}
    assert memo[_COMPONENTS] == {}
    assert first == second == canonicalize(Soup(rules, Counter({x: 1, y: 1}))) and len(memo) == 3
    # interchangeable clusters add component results to the table, which
    # every rules value extended from the same one shares, and nothing else
    hub = _hub_soup([_CLUSTER] * 3)
    longer = Soup(hub.rules + (ActiveRule(hub.rules[0].heads, Null()),), hub.messages, [], hub.fresh_counter)
    canonicalize(hub)
    canonicalize(longer)
    memo = hub.rules.canon_memo
    assert longer.rules.canon_memo is memo and longer.rules.canon_part is not hub.rules.canon_part
    assert Counter(type(v).__name__ for v in memo.values() if not isinstance(v, _Flat)) == {"dict": 1}
    table = memo[_COMPONENTS]
    assert table and all(isinstance(v, _Component) for v in table.values())
    assert hub.rules.canon_part.table is longer.rules.canon_part.table is table


# -- the caches of rules values against soups rebuilt from fresh rules:
# skeletons, renderings and head indices kept across a lineage change nothing


def _walk(start: Soup, rng: random.Random, steps: int) -> list:
    """``start`` and the soups of one seeded random walk from it."""
    out = [start]
    for _ in range(steps):
        rs = enabled_redexes(out[-1])
        if not rs:
            break
        out.append(reduce(out[-1], rng.choice(rs)))
    return out


def _memo_referee_states() -> list:
    from _gen import fragment_instance

    rng = random.Random(17)
    states = [s for _ in range(30) for s in _walk(_random_soup(rng), rng, 6)]
    for _ in range(30):
        ctx, program, _ = fragment_instance(rng)
        states += _walk(inject(ctx.plug(program)), rng, 6)
    states += _viral_states(3)
    states += [s for start in _viral_states(2)[:4] for s in _walk(start, rng, 8)]
    return states


def test_memoized_matching_and_forms_agree_with_the_plain_calls():
    from jcham.engine import _head_index

    states = _memo_referee_states()
    values = list({id(s.rules): s.rules for s in states}.values())
    # a value that ``+`` extended carries its parent's head index extended,
    # which is the index built afresh; many values share their lineage's memo
    assert sum(r.heads is not None for r in values) > 30
    assert all(r.heads is None or r.heads == _head_index(r) for r in values)
    lineages = Counter(id(r.canon_memo) for r in values)
    assert sum(k for k in lineages.values() if k > 1) > 20
    for s in states + states[::-1]:
        fresh = rebuilt(s)
        assert type(fresh.rules) is Rules and fresh.rules == s.rules and fresh.rules is not s.rules
        assert fresh.rules.heads is None and fresh.rules.canon_part is None and not fresh.rules.canon_memo
        assert enabled_redexes(s) == enabled_redexes(fresh), s.dump()
        assert canonicalize(s).serialization == canonicalize(fresh).serialization, s.dump()
        assert s.rules.heads == fresh.rules.heads
    # messages met over several rules values of one lineage
    values_of: dict = {}
    for s in states:
        for mk in s.messages.items():
            values_of.setdefault((id(s.rules.canon_memo), mk), set()).add(id(s.rules))
    assert max(map(len, values_of.values())) > 1


def test_one_message_over_changing_rules_tuples():
    # tell<a~1> keeps one skeleton while a~1 is fixed by one rule, loose
    # between two twins, first or second of two fixed names, and in no rule
    import jcham.canon as canon

    a1 = Name("a", 1)
    tell, ping = GroundMessage(Name("tell"), (a1,)), GroundMessage(a1)
    sources = (
        "def a<> |> 0 in 0",
        "def a<> |> 0 in (def a<> |> 0 in 0)",
        "def a<> |> 0 in (def a<> |> out<> in 0)",
        "def a<> |> out<> in (def a<> |> 0 in 0)",
    )
    # one lineage: every rules value extended from the same empty one
    root = Rules()
    tuples = tuple(root + inject(parse(src)).rules for src in sources)
    assert {rules[0].heads[0].channel for rules in tuples} == {a1}
    assert all(rules.canon_memo is root.canon_memo for rules in tuples)
    soups = [
        Soup(rules, Counter(counts), [], 3)
        for rules in tuples + (root,)
        for counts in ({tell: 1}, {tell: 1, ping: 1}, {ping: 2, tell: 1})
    ]
    for s in soups + soups[::-1]:
        assert canonicalize(s).serialization == canonicalize(rebuilt(s)).serialization, s.dump()
        assert enabled_redexes(s) == enabled_redexes(rebuilt(s)), s.dump()
    assert sum(isinstance(v, canon._Flat) for v in root.canon_memo.values()) == 3
    # tell<a~1> is rendered under the rules-only order of each tuple that
    # fixes a~1, as a different position in ``pair`` and ``swapped``
    rendered = [rules.canon_part.rendered.get((tell, 1)) for rules in tuples]
    assert rendered[1] is None and len(set(rendered[2:])) == 2


def test_rules_only_order_is_built_when_a_state_first_needs_it(monkeypatch):
    import jcham.canon as canon

    orders = []
    component_order = canon._component_order
    monkeypatch.setattr(canon, "_component_order", lambda *a: orders.append(a) or component_order(*a))
    # every go<k> carries a loose name: only the joint route runs
    marked = _marked_hub_soups()
    hub = Soup(marked[0].rules, _hub_soup([_CLUSTER] * 3).messages, [], marked[0].fresh_counter)
    canonicalize(hub)
    assert len(orders) == 1
    part = hub.rules.canon_part
    assert "marks" not in vars(part) and "rendering" not in vars(part)
    # a state on the rules' fixed names alone builds the order, once
    orders.clear()
    for s in marked:
        canonicalize(s)
    assert len(orders) == 1 and "rendering" in vars(part)


# -- rules first: the rules part of each rules tuple, then the messages


def _with_messages(soup: Soup, *messages: GroundMessage) -> Soup:
    """``soup`` with more messages, over the very same rules tuple."""
    return Soup(soup.rules, soup.messages + Counter(messages), [], soup.fresh_counter)


def _outside_soups(rng: random.Random) -> list:
    """Groups of random soups, each soup of a group being one rules tuple
    plus messages on a channel no rule reads.  These carry indexed names
    that no rule mentions, next to a name that the rules do, and the soups
    of a group differ only in how those messages wire the names."""
    p, p2, q = Name("p", 90), Name("p", 91), Name("q", 92)
    wirings = [
        ((p, p2), (p2, None)),
        ((p2, p), (p, None)),  # the first with p~90 and p~91 swapped
        ((p, p), (p2, None)),
        ((p, p2), (p, None)),
        ((q, p), (p, None)),
    ]
    groups = []
    while len(groups) < 12:
        s = _random_soup(rng)
        inside = _global_indexed_names(s)
        if inside:
            n = rng.choice(inside)
            groups.append(
                [_with_messages(s, *(GroundMessage(Name("tell"), (a, b or n)) for a, b in w)) for w in wirings]
            )
    return groups


def test_names_outside_the_rules_agree_with_brute_force():
    import jcham.canon as canon

    rng = random.Random(14)
    verdicts = []
    for group in _outside_soups(rng):
        for i, a in enumerate(group):
            assert set(_global_indexed_names(a)) - set(canon._rules_part(a.rules).names)
            assert all(canonicalize(congruent_copy(a, rng)).digest == canonicalize(a).digest for _ in range(3)), a.dump()
            for b in group[i + 1 :]:
                expected = brute_congruent(a, b)
                assert (canonicalize(a).digest == canonicalize(b).digest) == expected, (a.dump(), b.dump())
                verdicts.append(expected)
    assert True in verdicts and False in verdicts


def test_messages_split_rules_that_refine_to_no_discrete_colouring(monkeypatch):
    import jcham.canon as canon

    split = []
    component_order = canon._component_order
    monkeypatch.setattr(canon, "_component_order", lambda *a: split.append(a) or component_order(*a))
    joint = _spy_joint(monkeypatch)
    rng = random.Random(15)
    for copies in (2, 3):
        base = _hub_soup([_CLUSTER] * copies)
        part = canon._rules_part(base.rules)
        ks = sorted({n for n in _global_indexed_names(base) if n.base == "k"})
        js = sorted({n for n in _global_indexed_names(base) if n.base == "j"})
        assert set(ks + js) <= part.loose
        soups = [_with_messages(base, GroundMessage(Name("mark"), (n,))) for n in ks + js]
        soups.append(_with_messages(base, GroundMessage(Name("mark"), (ks[0],)), GroundMessage(Name("mark"), (js[1],))))
        soups.append(_with_messages(base, GroundMessage(Name("mark"), (ks[1],)), GroundMessage(Name("mark"), (js[0],))))
        soups.append(_with_messages(base, GroundMessage(Name("mark"), (ks[0],)), GroundMessage(Name("mark"), (js[0],))))
        routes, splits = [], []
        for s in soups:
            joint.clear()
            split.clear()
            digest = canonicalize(s).digest
            routes.append(bool(joint))
            splits.append(bool(split))
            assert digest == canonicalize(rebuilt(s)).digest
            assert all(canonicalize(congruent_copy(s, rng)).digest == digest for _ in range(3)), s.dump()
        # the go<k> messages carry loose names, so every soup is refined jointly
        assert routes == [_needs_joint(s) for s in soups] and all(routes)
        # of two clusters, marking one leaves none interchangeable; of three,
        # two stay interchangeable unless two clusters are marked
        assert not any(splits) if copies == 2 else any(splits) and not all(splits)
        verdicts = []
        for i, a in enumerate(soups):
            for b in soups[i + 1 :]:
                expected = brute_congruent(a, b)
                assert (canonicalize(a).digest == canonicalize(b).digest) == expected, (a.dump(), b.dump())
                verdicts.append(expected)
        assert True in verdicts and False in verdicts


def _marked_hub_soups() -> list:
    """Three interchangeable clusters with ``mark`` messages on the names
    their rules fix, and no message on a loose name."""
    import jcham.canon as canon

    hub = _hub_soup([_CLUSTER] * 3)
    part = canon._rules_part(hub.rules)
    fixed = [n for n in part.names if n not in part.loose]
    marks = [GroundMessage(Name("mark"), (n,)) for n in fixed]
    counts = [Counter({m: 1}) for m in marks] + [Counter(marks), Counter({marks[0]: 2, GroundMessage(Name("mark")): 1})]
    return [Soup(hub.rules, c, [], hub.fresh_counter) for c in counts]


def test_messages_clear_of_loose_names_render_only_the_messages(monkeypatch):
    import jcham.canon as canon

    joint = _spy_joint(monkeypatch)
    soups = _marked_hub_soups()
    part = canon._rules_part(soups[0].rules)
    assert part.loose  # the rules alone refine to no discrete colouring
    for s in soups:
        form = canonicalize(s)
        assert form.serialization.startswith(part.rendering + "//")
    assert joint == []
    # a mark on a loose name takes the joint route
    k = min(part.loose, key=lambda n: (n.base, n.index))
    canonicalize(_with_messages(soups[0], GroundMessage(Name("mark"), (k,))))
    assert len(joint) == 1


def test_rules_only_order_agrees_with_the_joint_refinement():
    # the joint refinement is the referee: whichever route a soup takes, its
    # serialization is the one the joint refinement gives
    import jcham.canon as canon

    marked = _marked_hub_soups()
    states = _viral_states(3) + _viral_states(4) + marked
    rules_only = 0
    for s in states:
        part = canon._rules_part(s.rules)
        msgs = [_message_flat(m, k) for m, k in s.messages.items()]
        outside = canon._sorted_names(n for f in msgs for n in f.slots if n not in part.number)
        assert canonicalize(s).serialization == canon._joint_serialization(part, msgs, outside), s.dump()
        rules_only += bool(part.loose) and not _needs_joint(s)
    # the viral states take that route too, not only the marked clusters
    assert rules_only >= len(marked) + 10


def test_shared_memo_gives_the_unshared_digest_across_one_rules_tuple():
    from jcham.canon import _RulesPart

    rng = random.Random(16)
    soups = [s for group in _outside_soups(rng) for s in group]
    hub = _hub_soup([_CLUSTER] * 3)
    k1 = next(n for n in _global_indexed_names(hub) if n.base == "k")
    soups += [hub, _with_messages(hub, GroundMessage(Name("mark"), (k1,)))]
    soups += [_with_messages(hub, GroundMessage(Name("tell"), (Name("p", 90 + i),))) for i in range(2)]
    rng.shuffle(soups)
    for s in soups + soups[::-1]:
        assert canonicalize(s).digest == canonicalize(rebuilt(s)).digest, s.dump()
    parts = {id(s.rules.canon_part) for s in soups}
    assert len(parts) == len({id(s.rules) for s in soups}) < len(soups)
    assert all(isinstance(s.rules.canon_part, _RulesPart) for s in soups)


def test_rules_part_is_built_once_per_rules_tuple_in_a_search(monkeypatch):
    import jcham.canon as canon
    from jcham.contexts import refined_context
    from jcham.engine import DetectionStats, search

    built, calls = [], [0]
    rules_part, canonicalize_ = canon._rules_part, canon.canonicalize

    def counted_part(rules):
        built.append(rules)
        return rules_part(rules)

    def counted(soup):
        calls[0] += 1
        return canonicalize_(soup)

    monkeypatch.setattr(canon, "_rules_part", counted_part)
    monkeypatch.setattr(canon, "canonicalize", counted)
    stats = DetectionStats()
    assert search([inject(refined_context(2).plug(_class_iii_virus(2)))], 500, stats=stats) is None
    # two paths that append equal rules to one value reach one value
    assert len(built) == len(set(built)) and 1 < len(built) < stats.states_explored < calls[0]


# -- hashes cached on the object, outside equality, ordering and repr


def _hash_cases():
    soup = inject(parse("def k<x> |> out<x> | k<x> in k<a>"))
    (rule,) = soup.rules
    (msg,) = soup.messages
    return [(Name("a", 1), Name("a", 1)), (msg, GroundMessage(msg.channel, msg.args)), (rule, ActiveRule(rule.heads, rule.body))]


def test_equal_objects_hash_equal():
    for a, b in _hash_cases():
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(a)


def test_hash_cache_stays_out_of_equality_ordering_and_repr():
    for a, b in _hash_cases():
        hash(a)
        assert a.hash_cache is not None and b.hash_cache is None
        assert a == b and repr(a) == repr(b) and "hash_cache" not in repr(a)
        assert "hash_cache" not in {f.name for f in dataclasses.fields(a) if f.init}
    a, b = Name("a", 1), Name("a", 1)
    hash(a)
    assert not a < b and not b < a and a <= b and sorted([Name("b"), a]) == [a, Name("b")]
    # a message keeps its text the same way
    msg, fresh = _hash_cases()[1]
    text = str(msg)
    assert msg.str_cache == text and fresh.str_cache is None
    assert msg == fresh and repr(msg) == repr(fresh) and "str_cache" not in repr(msg)
    assert {f.name for f in dataclasses.fields(msg) if f.compare} == {"channel", "args"}
    assert "str_cache" not in {f.name for f in dataclasses.fields(msg) if f.init}
    replaced = dataclasses.replace(msg, args=(Name("b"),))
    assert replaced.str_cache is None and str(replaced) == f"{msg.channel}<b>" != text


def test_replace_drops_the_cached_hash():
    name = Name("a", 1)
    hash(name)
    assert hash(dataclasses.replace(name, index=2)) == hash(Name("a", 2))
    msg = GroundMessage(name, (Name("b"),))
    hash(msg)
    assert hash(dataclasses.replace(msg, args=())) == hash(GroundMessage(name))
    (rule,) = inject(parse("def k<x> |> out<x> in 0")).rules
    hash(rule)
    body = parse("out<x> | out<x>")
    assert hash(dataclasses.replace(rule, body=body)) == hash(ActiveRule(rule.heads, body))


def test_renamed_names_key_dicts_next_to_fresh_ones():
    old, new = Name("a", 1), Name("a", 2)
    msg = GroundMessage(Name("k", 3), (old,))
    hash(old), hash(msg)
    renamed = _rename(msg, {old: new})
    table = {new: "fresh", GroundMessage(Name("k", 3), (Name("a", 2),)): "fresh"}
    assert table[renamed.args[0]] == table[renamed] == "fresh"
    table[renamed] = "renamed"
    assert len(table) == 2


# -- class-local refinement against the plain round


def test_refinement_agrees_with_the_plain_round():
    from _canon_referee import plain_refine, random_slotted
    from jcham.canon import _refine_fixpoint

    rng = random.Random(21)
    seen = Counter()
    for _ in range(6000):
        slotted, colors = random_slotted(rng)
        got = _refine_fixpoint(slotted, list(colors))
        assert got == plain_refine(slotted, list(colors)), (slotted, colors)
        seen["discrete"] += len(set(colors)) == len(colors)
        seen["no slots"] += any(not ids for _, ids in slotted)
        seen["repeated"] += any(len(set(ids)) < len(ids) for _, ids in slotted)
        seen["individualized"] += -1 in colors and len(set(colors)) < len(colors)
        seen["unsplit"] += len(set(got)) == len(set(colors)) < len(colors) and got != colors
    assert min(seen.values()) >= 100, seen


# -- seeded refinement: the joint route signs only what a message can split


def test_seeded_refinement_agrees_with_the_plain_round(monkeypatch):
    from _canon_referee import plain_refine, random_slotted
    from jcham.contexts import refined_context
    from jcham.detector import viral_set_member
    import jcham.canon as canon

    # every joint call of the viral runs: its seeded refinement over the
    # doubtful items equals the plain round over every item of the soup
    refine, joint_serialization = canon._refine_fixpoint, canon._joint_serialization
    seeded, joint = [], []

    def spied_refine(slotted, colors, seeds=None):
        out = refine(slotted, colors, seeds)
        if seeds is not None:
            seeded.append(list(out))
        return out

    def spied_joint(part, msgs, outside):
        joint.append((part, msgs, outside))
        return joint_serialization(part, msgs, outside)

    monkeypatch.setattr(canon, "_refine_fixpoint", spied_refine)
    monkeypatch.setattr(canon, "_joint_serialization", spied_joint)
    for k in (2, 3, 4):
        assert viral_set_member(refined_context(k), _class_iii_virus(k), iterations=k).outcome == "vulnerable"
    assert len(seeded) == len(joint) > 30
    split = 0
    for out, (part, msgs, outside) in zip(seeded, joint):
        number = dict(part.number)
        number.update((n, i) for i, n in enumerate(outside, len(part.names)))
        every = [(f.shape, tuple(number[n] for n in f.slots)) for f in part.flats + msgs if f.slots]
        start = canon._ranks([(0, c) for c in part.colors] + [(1, n.base) for n in outside])
        assert out == plain_refine(every, start)
        split += len(set(out)) > len(set(start))
    assert split > 20, split

    # random systems made stable over some items, then extended by items
    # whose names are the seeds
    rng = random.Random(24)
    seen = Counter()
    for _ in range(4000):
        slotted, colors = random_slotted(rng)
        cut = rng.randint(0, len(slotted))
        stable = plain_refine(slotted[:cut], colors)
        seeds = {i for _, ids in slotted[cut:] for i in ids}
        got = refine(slotted, list(stable), seeds)
        assert got == plain_refine(slotted, list(stable)), (slotted, cut, colors)
        seen["split by the extra items"] += len(set(got)) > len(set(stable))
        seen["unsplit"] += len(set(got)) == len(set(stable)) < len(stable)
        seen["a lone seed splits less"] += len(set(got)) > len(set(refine(slotted, list(stable), seeds and {min(seeds)})))
    assert min(seen.values()) >= 100, seen


# -- component results: one per structure, kept in the lineage memo's table


def _cluster_soups() -> list:
    hub, tap = _CLUSTER, _PERTURBED[1]
    groups = [[hub] * 3, [hub, tap, hub, tap], [_CLUSTER_SPELLED_OTHERWISE, hub, hub], [hub, hub, _PERTURBED[0]]]
    soups = [_hub_soup(g) for g in groups]
    soups += [_with_messages(s, GroundMessage(Name("mark"), (n,))) for s in soups[:2] for n in _global_indexed_names(s)[:4]]
    return soups + _marked_hub_soups()


def test_component_table_gives_the_fresh_form(monkeypatch):
    import jcham.canon as canon

    orders = [0]
    discrete_orders = canon._discrete_orders
    monkeypatch.setattr(canon, "_discrete_orders", lambda *a: orders.__setitem__(0, orders[0] + 1) or discrete_orders(*a))
    rng = random.Random(25)
    clusters = [congruent_copy(s, rng) for s in _cluster_soups() for _ in range(3)]
    viral = _viral_states(3) + _viral_states(4)
    for states in (clusters, viral):
        rng.shuffle(states)
        # the states, rebuilt into one lineage: rules values extended from one
        root = Rules()
        states = [Soup(root + rebuilt(s).rules, s.messages, [], s.fresh_counter) for s in states]
        orders[0] = 0
        forms = [canonicalize(s).serialization for s in states + states[::-1]]
        shared = orders[0]
        orders[0] = 0
        assert forms == [canonicalize(rebuilt(s)).serialization for s in states + states[::-1]]
        # the shared table individualizes each structure once, fresh lineages once a call
        assert 0 < len(root.canon_memo[canon._COMPONENTS]) == shared < orders[0]


def test_one_individualization_per_component_structure(monkeypatch):
    import jcham.canon as canon

    structures = []
    discrete_orders = canon._discrete_orders
    monkeypatch.setattr(canon, "_discrete_orders", lambda *a: structures.append(a) or discrete_orders(*a))
    canonicalize(_hub_soup([_CLUSTER] * 3))
    assert len(structures) == 1
    # clusters off hub and off tap are two structures, two of each
    structures.clear()
    canonicalize(_hub_soup([_CLUSTER, _PERTURBED[1]] * 2))
    assert len(structures) == 2


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the parallel parts of a rule body keep their syntax order on ties, "
    "which orders interchangeable names",
)
def test_a_rule_body_written_in_either_order_gives_one_digest():
    # a~1 and a~2 are interchangeable, and keep<a~1, a~2> tells them apart
    # only through the order the body's two messages are written in
    a1, a2, go = Name("a", 1), Name("a", 2), Name("go", 1)

    def soup(first, second):
        body = Parallel(Message(Name("out"), (NameRef(first),)), Message(Name("out"), (NameRef(second),)))
        messages = Counter({GroundMessage(Name("keep"), (a1, a2)): 1, GroundMessage(go): 1})
        return Soup((ActiveRule((MsgPat(go),), body),), messages)

    assert canonicalize(soup(a1, a2)).digest == canonicalize(soup(a2, a1)).digest

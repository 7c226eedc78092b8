import random
from collections import Counter
from itertools import permutations

from jcham.canon import _flatten, _items, _render, canonicalize, congruent
from jcham.engine import ActiveRule, Soup, enabled_redexes, inject, reduce
from jcham.parser import parse
from jcham.syntax import Name


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


def test_distinguishes_wiring():
    # same bases, different message-to-rule wiring
    s1 = inject(parse("def x<> |> p<> and y<> |> q<> in x<>"))
    s2 = inject(parse("def x<> |> p<> and y<> |> q<> in y<>"))
    assert not congruent(s1, s2)


# -- brute-force congruence oracle


def _global_indexed_names(soup: Soup) -> list[Name]:
    """The indexed names occurring free in the soup, sorted: exactly the
    slots of the item skeletons."""
    return sorted({n for item in _items(soup) for n in _flatten(item).slots}, key=lambda n: (n.base, n.index))


def _serialize_with(soup, mapping):
    colors = {n: str(mapping.get(n, n)) for n in _global_indexed_names(soup)}
    rendered = [(item[0], _render(_flatten(item).toks, colors)) for item in _items(soup)]
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

    def uncached(s: Soup) -> Soup:
        return Soup(tuple(ActiveRule(r.heads, r.body) for r in s.rules), Counter(s.messages), [], s.fresh_counter)

    digests = [canonicalize(s).digest for s in soups]
    assert all(r.canon_skeleton is not None for r in s3.rules)
    assert all(r.canon_skeleton is None for r in uncached(s3).rules)
    assert digests == [canonicalize(uncached(s)).digest for s in soups]
    assert digests == [canonicalize(s).digest for s in reversed(soups)][::-1]
    assert len(set(digests)) == 3


def test_interchangeable_names_do_not_explode():
    # many identical dead reply rules: still fast and stable
    src = "def x<> |> 0 in x<>"
    s = inject(parse("def g(a) |> (return a to g) in " + " | ".join(["(let r = g(1) in 0)"] * 8)))
    for _ in range(40):
        rs = enabled_redexes(s)
        if not rs:
            break
        s = reduce(s, rs[0])
    d1 = canonicalize(s).digest
    d2 = canonicalize(s.copy()).digest
    assert d1 == d2

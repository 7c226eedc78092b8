import json
import random

import pytest

import jcham.petri as petri
from jcham.cli import main
from jcham.engine import BudgetExhausted
from jcham.petri import (
    PetriNet,
    Transition,
    coverable,
    fire,
    fire_sequence,
    leq,
    parse_net,
    pre_image,
)

from _petri_referee import OMEGA, format_net, forward_enumerate, karp_miller, km_covers, plain_coverable


def net_of(places, transitions):
    net = PetriNet([f"p{i}" for i in range(places)], [])
    net.transitions = [Transition(net.marking(pre), net.marking(post), str(i)) for i, (pre, post) in enumerate(transitions)]
    return net


def test_one_step_cover():
    net = net_of(2, [({0: 1}, {1: 1})])
    ok, wit = coverable(net, net.marking({0: 1}), net.marking({1: 1}))
    assert ok and wit == [0]


def test_no_producer_means_uncoverable():
    net = net_of(2, [({0: 1}, {0: 1})])
    ok, wit = coverable(net, net.marking({0: 1}), net.marking({1: 1}))
    assert not ok and wit is None


def test_pre_image_formula():
    t = net_of(3, [({0: 1}, {1: 2})]).transitions[0]
    assert pre_image((0, 3, 1), t) == (1, 1, 1)
    # postset larger than the demand clamps at zero
    assert pre_image((0, 1, 0), t) == (1, 0, 0)


def test_fire_semantics():
    t = net_of(2, [({0: 2}, {1: 1})]).transitions[0]
    assert fire((1, 0), t) is None
    assert fire((2, 0), t) == (0, 1)


def test_marking_from_sparse_counts():
    net = net_of(3, [])
    assert net.marking({2: 1, 0: 3}) == (3, 0, 1)
    assert net.marking([(1, 1), (1, 1)]) == (0, 2, 0)
    assert net.marking({}) == (0, 0, 0)
    with pytest.raises(ValueError, match="unknown place 3"):
        net.marking({3: 1})
    with pytest.raises(ValueError, match="unknown place -1"):
        net.marking({-1: 1})
    with pytest.raises(ValueError, match="negative"):
        net.marking({0: -1})


def test_unbounded_chain_still_decides():
    # a self-loop pumping tokens: target needs 3 tokens in p1
    net = net_of(2, [({0: 1}, {0: 1, 1: 1})])
    ok, wit = coverable(net, net.marking({0: 1}), net.marking({1: 3}))
    assert ok
    assert len(wit) == 3


def test_witness_validates_by_simulation():
    net = net_of(4, [({0: 1}, {1: 1}), ({1: 1}, {2: 1}), ({2: 1}, {3: 1})])
    ok, wit = coverable(net, net.marking({0: 1}), net.marking({3: 1}))
    assert ok
    m = net.marking({0: 1})
    for ti in wit:
        m = fire(m, net.transitions[ti])
        assert m is not None
    assert leq(net.marking({3: 1}), m)


def test_forward_enumerate_inert():
    net = net_of(1, [])
    seen, saturated = forward_enumerate(net, net.marking({0: 1}), cap=10)
    assert seen == {net.marking({0: 1})} and saturated


def test_forward_enumerate_cap():
    net = net_of(1, [({}, {0: 1})])
    seen, saturated = forward_enumerate(net, net.marking({}), cap=10)
    assert len(seen) == 10 and not saturated


def test_karp_miller_marks_unbounded_places():
    # p0 pumps p1 without bound; p2 is never marked
    net = net_of(3, [({0: 1}, {0: 1, 1: 1})])
    nodes = karp_miller(net, net.marking({0: 1}))
    assert nodes == {(1, 0, 0), (1, OMEGA, 0)}
    assert km_covers(nodes, net.marking({1: 50}))
    assert not km_covers(nodes, net.marking({2: 1}))


def test_target_covered_by_init_needs_no_step():
    net = net_of(2, [({0: 1}, {1: 1})])
    assert coverable(net, net.marking({0: 2}), net.marking({0: 1})) == (True, [])


def test_one_run_answers_for_the_coverable_target():
    # p2 has no producer; p1 is one step away
    net = net_of(3, [({0: 1}, {1: 1})])
    init = net.marking({0: 1})
    uncoverable, reachable = net.marking({2: 1}), net.marking({1: 1})
    ok, wit = coverable(net, init, uncoverable, reachable)
    assert ok and wit == [0]
    assert leq(reachable, fire_sequence(init, net, wit))
    assert coverable(net, init, uncoverable, net.marking({2: 1, 1: 1})) == (False, None)


def test_monotone_in_initial():
    rng = random.Random(9)
    for _ in range(30):
        places = rng.randint(2, 4)
        transitions = []
        for _ in range(rng.randint(1, 4)):
            pre = {rng.randrange(places): rng.randint(1, 2)}
            post = {rng.randrange(places): rng.randint(1, 2)}
            transitions.append((pre, post))
        net = net_of(places, transitions)
        init = {p: rng.randint(0, 2) for p in range(places)}
        target = net.marking({rng.randrange(places): rng.randint(1, 2)})
        ok1, _ = coverable(net, net.marking(init), target)
        bigger = dict(init)
        bigger[rng.randrange(places)] = bigger.get(rng.randrange(places), 0) + 2
        ok2, _ = coverable(net, net.marking(bigger), target)
        if ok1:
            assert ok2


def test_backward_agrees_with_forward_on_random_nets():
    rng = random.Random(77)
    agreed = 0
    for _ in range(40):
        places = rng.randint(2, 5)
        transitions = []
        for _ in range(rng.randint(1, 5)):
            pre = {rng.randrange(places): 1}
            post = {rng.randrange(places): 1}
            if rng.random() < 0.3:
                post[rng.randrange(places)] = post.get(rng.randrange(places), 0) + 1
            transitions.append((pre, post))
        net = net_of(places, transitions)
        init = net.marking({p: rng.randint(0, 1) for p in range(places)})
        target = net.marking({rng.randrange(places): 1})
        ok, _ = coverable(net, init, target)
        assert ok == km_covers(karp_miller(net, init), target)
        agreed += 1
    assert agreed >= 20


def test_never_marked_places_do_not_change_verdict_or_witness():
    # the same net with never-marked places interleaved among its own, and
    # transitions that read them interleaved among its own; a target that
    # needs such a place is added too
    rng = random.Random(58)
    verdicts = []
    for _ in range(100):
        places = rng.randint(3, 6)
        transitions = []
        for _ in range(rng.randint(2, 7)):
            pre = {rng.randrange(places): 1}
            post = {rng.randrange(places): rng.randint(1, 2) for _ in range(rng.randint(1, 2))}
            transitions.append((pre, post))
        init = {rng.randrange(places): 1}
        targets = [{rng.randrange(places): rng.randint(1, 3)} for _ in range(rng.randint(1, 3))]
        net = net_of(places, transitions)
        want = coverable(net, net.marking(init), *map(net.marking, targets))

        dead = rng.randint(1, 3)
        order = rng.sample(range(places + dead), places + dead)
        where, ghosts = order[:places], order[places:]  # new index of each old place; the dead places

        def moved(d):
            return {where[p]: c for p, c in d.items()}

        wide = [(moved(pre), moved(post)) for pre, post in transitions]
        old_index = list(range(len(wide)))
        for _ in range(rng.randint(1, 4)):
            pre = {rng.choice(ghosts): 1, rng.randrange(places + dead): 1}
            post = {rng.randrange(places + dead): rng.randint(1, 2)}
            at = rng.randint(0, len(wide))
            wide.insert(at, (pre, post))
            old_index.insert(at, None)
        big = net_of(places + dead, wide)
        big_targets = [moved(t) for t in targets]
        big_targets.insert(rng.randint(0, len(big_targets)), {rng.choice(ghosts): 1})
        ok, wit = coverable(big, big.marking(moved(init)), *map(big.marking, big_targets))
        assert (ok, None if wit is None else [old_index[ti] for ti in wit]) == want
        verdicts.append(want)
    assert sum(len(wit) >= 2 for ok, wit in verdicts if ok) >= 10
    assert any(not ok for ok, _ in verdicts)


def test_transition_with_empty_preset_marks_places():
    # nothing is marked at first; the source transition makes p0 markable
    net = net_of(3, [({2: 1}, {1: 1}), ({0: 1}, {1: 1}), ({}, {0: 1})])
    assert coverable(net, net.marking({}), net.marking({1: 2})) == (True, [2, 2, 1, 1])


def test_cover_witness_indexes_the_files_transitions(tmp_path, capsys):
    # transition 0 reads the never-marked place 2, so the search runs
    # without it; the witness still names the file's transition 1
    net = tmp_path / "n.net"
    net.write_text(
        "place 0 start\nplace 1 goal\nplace 2 never\n"
        "trans dead pre 2:1 post 1:1\ntrans go pre 0:1 post 1:1\ninit 0:1\ntarget 1:1\n"
    )
    assert main(["petri", "cover", "--net", str(net), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"coverable": True, "witness": [1]}
    assert main(["petri", "cover", "--net", str(net)]) == 1
    assert capsys.readouterr().out == "coverable: True\nwitness: go\n"


def _outcome(search, net, init, targets, max_basis):
    try:
        return search(net, init, *targets, max_basis=max_basis)
    except BudgetExhausted as e:
        return e.budget, e.limit


def test_skips_keep_verdict_witness_and_budget_of_the_plain_search():
    rng = random.Random(2024)
    outcomes = []
    for _ in range(2000):
        places = rng.randint(1, 7)

        def tokens(least, most):
            return [(rng.randrange(places), 1) for _ in range(rng.randint(least, most))]

        net = net_of(places, [(tokens(1, 2), tokens(1, 4)) for _ in range(rng.randint(0, 9))])
        init = net.marking(tokens(1, 3))
        targets = [net.marking(tokens(2, 5)) for _ in range(rng.randint(1, 3))]
        max_basis = rng.choice((5, 20, 200_000))
        got = _outcome(coverable, net, init, targets, max_basis)
        assert got == _outcome(plain_coverable, net, init, targets, max_basis)
        outcomes.append(got)
    # all three outcomes occur, and many witnesses take several steps
    assert sum(o[0] == "max_basis" for o in outcomes) >= 100
    assert sum(o[0] is True and len(o[1]) >= 2 for o in outcomes) >= 200
    assert sum(o == (False, None) for o in outcomes) >= 500


def _record(monkeypatch, name):
    """The arguments and result of each call to ``jcham.petri.<name>``
    that ``coverable`` makes."""
    calls = []
    real = getattr(petri, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(petri, name, spy)
    return calls


def test_pre_images_that_dominate_their_source_are_not_built(monkeypatch):
    # the pump p0 -> p0 + p1 gains on p1 only, so from a marking without
    # tokens on p1 its pre-image is the marking itself
    net = net_of(2, [({0: 1}, {0: 1, 1: 1})])
    built = _record(monkeypatch, "pre_image")
    assert coverable(net, net.marking({0: 1}), net.marking({0: 2, 1: 1})) == (False, None)
    assert [args[0] for args, _ in built] == [(2, 1)]  # not (2, 0), whose pre-image is (2, 0)
    assert plain_coverable(net, net.marking({0: 1}), net.marking({0: 2, 1: 1})) == (False, None)


def test_a_repeated_candidate_is_not_tested_again(monkeypatch):
    # two copies of p0 -> p1 give the same pre-image of the p1 target
    net = net_of(3, [({0: 1}, {1: 1}), ({0: 1}, {1: 1}), ({2: 1}, {0: 1})])
    init, target = net.marking({2: 1}), net.marking({1: 1})
    built = _record(monkeypatch, "pre_image")
    tested = _record(monkeypatch, "_insert_minimal")
    assert coverable(net, init, target) == (True, [2, 0]) == plain_coverable(net, init, target)
    assert [m for _, m in built] == [(1, 0, 0), (1, 0, 0), (0, 0, 1)]
    assert [args[1] for args, _ in tested] == [(0, 1, 0), (1, 0, 0), (0, 0, 1)]


def test_max_basis_trips_at_the_same_insertion_as_the_plain_search():
    # p1 is pumped one token a round, beside an idle loop and a copy of
    # the pump: six insertions, from the target (0, 5) down to (1, 0)
    net = net_of(2, [({0: 1}, {0: 1, 1: 1}), ({0: 1}, {0: 1}), ({0: 1}, {0: 1, 1: 1})])
    init, target = net.marking({0: 1}), net.marking({1: 5})
    for max_basis in range(7):
        got = _outcome(coverable, net, init, [target], max_basis)
        assert got == _outcome(plain_coverable, net, init, [target], max_basis)
        assert got == (("max_basis", max_basis) if max_basis < 5 else (True, [0] * 5))


def test_antichain_is_minimal_after_run():
    # indirectly: duplicated transitions must not change the verdict
    net = net_of(2, [({0: 1}, {1: 1}), ({0: 1}, {1: 1})])
    ok, _ = coverable(net, net.marking({0: 1}), net.marking({1: 1}))
    assert ok


def test_zero_target_rejected():
    net = net_of(1, [])
    with pytest.raises(ValueError):
        coverable(net, net.marking({}), net.marking({}))
    with pytest.raises(ValueError):
        coverable(net, net.marking({}))
    with pytest.raises(ValueError):
        coverable(net, net.marking({}), net.marking({0: 1}), net.marking({}))


def test_marking_of_another_length_rejected():
    net = net_of(2, [({0: 1}, {1: 1})])
    with pytest.raises(ValueError, match="2 places"):
        coverable(net, (1,), (0, 1))
    with pytest.raises(ValueError, match="2 places"):
        coverable(net, (1, 0), (0, 1, 0))
    net.transitions.append(Transition((1, 0, 0), (0, 1, 0), "wide"))
    with pytest.raises(ValueError, match="'wide'"):
        coverable(net, (1, 0), (0, 1))


def test_relabelling_places_keeps_verdict_and_witness():
    rng = random.Random(31)
    verdicts = []
    for _ in range(60):
        places = rng.randint(3, 6)
        transitions = []
        for _ in range(rng.randint(2, 7)):
            pre = {rng.randrange(places): 1}
            post = {rng.randrange(places): rng.randint(1, 2) for _ in range(rng.randint(1, 2))}
            transitions.append((pre, post))
        init = {rng.randrange(places): 1}
        targets = [{rng.randrange(places): rng.randint(1, 3)} for _ in range(rng.randint(1, 3))]
        perm = list(range(places))
        rng.shuffle(perm)

        def moved(d):
            return {perm[p]: c for p, c in d.items()}

        net = net_of(places, transitions)
        relabelled = net_of(places, [(moved(pre), moved(post)) for pre, post in transitions])
        got = coverable(net, net.marking(init), *map(net.marking, targets))
        assert got == coverable(
            relabelled, relabelled.marking(moved(init)), *(relabelled.marking(moved(t)) for t in targets)
        )
        verdicts.append(got)
    # both verdicts occur, and many witnesses take several steps
    assert sum(len(wit) >= 2 for ok, wit in verdicts if ok) >= 10
    assert any(not ok for ok, _ in verdicts)


def test_text_format_round_trip():
    net = net_of(3, [({0: 1, 1: 1}, {2: 2}), ({2: 1}, {})])
    init = net.marking({0: 1, 1: 1})
    target = net.marking({2: 2})
    text = format_net(net, init, target)
    net2, init2, target2 = parse_net(text)
    assert init2 == init and target2 == target
    assert [(t.pre, t.post) for t in net2.transitions] == [(t.pre, t.post) for t in net.transitions]
    ok1, _ = coverable(net, init, target)
    ok2, _ = coverable(net2, init2, target2)
    assert ok1 == ok2 == True

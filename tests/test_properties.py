import random
from dataclasses import replace
from typing import Callable

from jcham.cli import corpus_path
from jcham.contexts import TokenGuard, refined_context
from jcham.detector import viral_set_member
from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus
from jcham.parser import parse
from jcham.policy import add_token_distributor, enforcement_sound, non_infection_test, tokenize_context
from jcham.syntax import (
    Conditional,
    Let,
    LocalDef,
    Name,
    Parallel,
    Process,
    Rule,
    Sequence,
    conj_of,
    par,
    parallel_parts,
    pretty,
    rules_of,
)

from _gen import fragment_instance, shaped_program
from _props import (
    check_canonical_brute_agreement,
    check_heating_reversibility,
    check_red_conservation,
    check_substitution_capture,
)


def test_heating_reversibility_family():
    assert check_heating_reversibility(120) >= 120


def test_red_conservation_family():
    assert check_red_conservation(200) >= 200


def test_canonical_brute_agreement_family():
    assert check_canonical_brute_agreement(120) >= 120


def test_substitution_capture_family():
    assert check_substitution_capture(200) >= 200


# -- verdicts do not depend on how a program is written


def _permuted(p: Process, order: Callable[[list], None]) -> Process:
    """``p`` with the ``and`` clauses of each definition and the parallel
    components of each process put in a new order by ``order``, which
    reorders a list in place, rule bodies included: a program structurally
    congruent to ``p``."""
    match p:
        case Parallel():
            parts = [_permuted(q, order) for q in parallel_parts(p)]
            order(parts)
            return par(*parts)
        case LocalDef(d, body):
            rules = [Rule(r.pattern, _permuted(r.body, order)) for r in rules_of(d)]
            order(rules)
            return LocalDef(conj_of(rules), _permuted(body, order))
        case Sequence(e, rest):
            return Sequence(e, _permuted(rest, order))
        case Let(xs, e, body):
            return Let(xs, e, _permuted(body, order))
        case Conditional(a, b, then, orelse):
            return Conditional(a, b, _permuted(then, order), _permuted(orelse, order))
    return p


def _same_outcome(verdict, p: Process, seed: int, copies: int = 3) -> None:
    """``verdict`` gives ``p`` one outcome with every list reversed and in
    ``copies`` seeded shuffles."""
    want = verdict(p)
    for order in [list.reverse] + [random.Random(seed).shuffle] * copies:
        q = _permuted(p, order)
        assert verdict(q) == want, (pretty(p), pretty(q))


def _virus(klass: str) -> Process:
    return build_virus(
        MalwareSpec("virus", klass, ReplicationMech("overwrite"), TargetRoutine("hardcoded", (Name("sw1"), Name("sw2"))))
    )


# the two clauses race for tok<>; only bad's run writes evil into sw1
_RACE = "def go<> | tok<> |> 0 and bad<> | tok<> |> sw1(evil); done<> in go<> | bad<> | tok<>"


def test_non_infection_does_not_depend_on_the_order_of_clauses_and_components():
    ctx = refined_context(2)
    read = parse("let x = sr1() in observed<x>")

    def outcome(p):
        return non_infection_test(ctx, p, [read], depth=4, quiescence_budget=200).outcome

    with open(corpus_path("probe_write.jc")) as fh, open(corpus_path("probe_read.jc")) as gh:
        programs = [parse(_RACE), parse(fh.read()), parse(gh.read())]
    programs += [_virus(k) for k in ("I", "III")]
    rng = random.Random(29)
    programs += [fragment_instance(rng)[1] for _ in range(6)]
    programs += [parse(shaped_program(rng, 3, 1, 3, 1)) for _ in range(6)]
    outcomes = set()
    for seed, p in enumerate(programs):
        _same_outcome(outcome, p, seed)
        outcomes.add(outcome(p))
    assert outcomes >= {"violated", "satisfied_to_depth"}


def test_enforcement_sound_does_not_depend_on_the_order_of_clauses_and_components():
    guarded = tokenize_context(refined_context(2), TokenGuard(mode="spatial", guarded=("sw1", "sw2")))
    counted = tokenize_context(refined_context(2), TokenGuard(mode="counted", count=2, guarded=("sw1",)))
    for seed, ctx in enumerate((guarded, counted, add_token_distributor(guarded), refined_context(2))):
        _same_outcome(lambda t: enforcement_sound(replace(ctx, template=t)), ctx.template, seed, copies=2)


def test_viral_set_member_does_not_depend_on_the_order_of_clauses_and_components():
    ctx = refined_context(2)
    for seed, klass in enumerate(("I", "II", "III", "IV")):
        _same_outcome(lambda p: viral_set_member(ctx, p, iterations=2).outcome, _virus(klass), seed)

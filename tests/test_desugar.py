from importlib.resources import files

import pytest

from jcham.cli import corpus_path
from jcham.desugar import DesugarError, check_core_fragment, desugar
from jcham.engine import inject, search
from jcham.canon import canonicalize
from jcham.parser import parse
from jcham.scenarios import build_context, build_process, load_scenario
from jcham.syntax import (
    Conditional,
    Let,
    LocalDef,
    Message,
    Null,
    Parallel,
    Return,
    Sequence,
    SyncCall,
    free_names,
    pretty,
)


def _core_forms_only(p):
    match p:
        case Message() | Null():
            return True
        case Parallel(l, r):
            return _core_forms_only(l) and _core_forms_only(r)
        case LocalDef(d, body):
            from jcham.syntax import rules_of

            return all(_core_forms_only(r.body) for r in rules_of(d)) and _core_forms_only(body)
        case Conditional(_, _, t, o):
            return _core_forms_only(t) and _core_forms_only(o)
        case _:
            return False


def test_desugar_identity_on_core():
    p = parse("def x<u> |> y<u> in x<a> | x<b>")
    assert desugar(p) == p


def test_desugar_removes_enriched_forms():
    p = parse("def f(a) |> (return a to f) in let r = f(5) in out<r>")
    core = desugar(p)
    assert _core_forms_only(core)


def test_desugar_return_without_call_pattern():
    with pytest.raises(DesugarError):
        desugar(parse("return v to x"))


def test_desugar_free_names_do_not_grow():
    for src in [
        "let r = f(a) in out<r>",
        "def g(x) |> (return x to g) in g(v); done<>",
        "sys_updt(p); out<p>",
    ]:
        t = parse(src)
        assert free_names(desugar(t)) <= free_names(t)


def _bounded_obs(soup, depth=6):
    """All multisets of free-channel messages reachable within depth."""
    states = {canonicalize(soup).digest[:16]: soup}

    def keep(edge):
        states.setdefault(edge.step.digest, edge.soup)

    search([soup], 10_000, horizon=depth, visit=keep)

    def snap(s):
        return frozenset(
            (str(m.channel.base), tuple(str(a) for a in m.args), k)
            for m, k in s.messages.items()
            if not any(r.defines(m.channel.base) for r in s.rules)
        )

    return {snap(s) for s in states.values()}


def test_let_call_equivalent_to_manual_continuation():
    # the sugared form and a hand-written reply channel must show the same
    # observable behaviour within a bounded horizon
    sugared = parse("def f(a) |> (return a to f) in let r = f(7) in out<r>")
    manual = parse("def f<a, k> |> k<a> in def k0<r> |> out<r> in f<7, k0>")
    obs_a = _bounded_obs(inject(sugared))
    obs_b = _bounded_obs(inject(manual))
    assert obs_a == obs_b


def test_auto_ack_resumes_caller():
    # a notification-style call pattern with no return still resumes callers
    p = parse("def upd(v)|cur<c> |> cur<v> in cur<n0> | (upd(n1); done<>)")
    from jcham.engine import run

    tr = run(inject(p), seed=0, max_steps=30)
    bases = {m.channel.base for m in tr.final.messages}
    assert "done" in bases
    assert any(m.channel.base == "cur" and m.args[0].base == "n1" for m in tr.final.messages)


def test_tail_call_forwards_reply():
    # return f(x) to g hands g's caller directly to f
    p = parse(
        "def f(a) |> (return a, a to f) and g(x) |> (return f(x) to g) in let u, v = g(3) in out<u, v>"
    )
    from jcham.engine import run

    tr = run(inject(p), seed=0, max_steps=40)
    assert any(m.channel.base == "out" and m.args == (3, 3) for m in tr.final.messages)


@pytest.mark.parametrize(
    "src, out",
    [
        # a definition in argument position, then in a let-bound expression
        ("def f(x) |> return x to f in out<def g(z) |> return z to g in g(5)>", 5),
        ("let y = def g(z) |> return z to g in g(7) in out<y>", 7),
    ],
)
def test_expression_level_definition_runs_and_leaves_the_fragment(src, out):
    from jcham.engine import run

    p = parse(src)
    tr = run(inject(p), seed=0, max_steps=50)
    assert [(m.channel.base, m.args) for m in tr.final.messages] == [("out", (out,))]
    assert "nested-definition" in {k for _, k in check_core_fragment(p).violations}


# -- fragment checking


def test_fragment_accepts_core():
    assert check_core_fragment(parse("def x<u> |> out<u> in x<a>")).in_fragment


def test_fragment_rejects_nested_definition():
    rep = check_core_fragment(parse("def x<u> |> (def y<v> |> 0 in y<u>) in x<a>"))
    assert not rep.in_fragment
    assert "nested-definition" in {k for _, k in rep.violations}


def test_fragment_rejects_sync_call():
    rep = check_core_fragment(parse("def f(a) |> (return a to f) in let r = f(5) in out<r>"))
    kinds = {k for _, k in rep.violations}
    assert "synchronous-call" in kinds
    assert "let-binding" in kinds
    assert "return" in kinds


def test_fragment_allows_conditionals():
    rep = check_core_fragment(parse("def x<u> |> if [u = a] then 0 else out<u> in x<a>"))
    assert rep.in_fragment


def test_fragment_flags_atom_construction_in_rule_bodies():
    rep = check_core_fragment(parse("def x<u> |> out<u ++ c> in x<a>"))
    assert not rep.in_fragment
    assert "fresh-requiring-desugar" in {k for _, k in rep.violations}


def test_fragment_report_consistency():
    rep = check_core_fragment(parse("0"))
    assert rep.in_fragment and rep.violations == []


def test_desugared_core_fragment_implication():
    # a program whose desugaring is still in the fragment was core already
    for src in ["def x<u> |> out<u> in x<a>", "a<> | b<c>", "0"]:
        t = parse(src)
        d = desugar(t)
        if check_core_fragment(d).in_fragment:
            assert d == t


CORPUS = sorted(f.name for f in files("jcham").joinpath("corpus").iterdir() if f.name.endswith((".scn", ".jc")))


@pytest.mark.parametrize("name", CORPUS)
def test_desugared_corpus_prints_and_parses_back(name):
    # ``run --dump`` prints desugared programs; they must read back as printed
    if name.endswith(".scn"):
        sc = load_scenario(corpus_path(name))
        p = build_context(sc.context_spec).plug(build_process(sc)[0])
    else:
        with open(corpus_path(name)) as fh:
            p = parse(fh.read())
    d = desugar(p)
    assert parse(pretty(d)) == d

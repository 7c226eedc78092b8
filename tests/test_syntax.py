import os
import random
import subprocess
import sys
from typing import get_args

import pytest

import jcham.syntax
from jcham.parser import ParseError, atom_source, parse
from jcham.syntax import (
    CallPat,
    Concat,
    Conditional,
    ExprDef,
    Expression,
    Let,
    Lit,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    Null,
    Pair,
    Parallel,
    PatJoin,
    Process,
    Proj,
    Return,
    Rule,
    Sequence,
    SyncCall,
    Top,
    embed_atom,
    free_names,
    name_sets,
    pretty,
    substitute,
    subterms,
)

# the child process imports the same ``jcham`` as the tests do
_SRC = os.path.dirname(os.path.dirname(jcham.syntax.__file__))


def test_parse_null():
    assert parse("0") == Null()


def test_parse_simple_def():
    p = parse("def x<u> |> y<u> in x<a>")
    assert p == LocalDef(
        Rule(MsgPat(Name("x"), (Name("u"),)), Message(Name("y"), (NameRef(Name("u")),))),
        Message(Name("x"), (NameRef(Name("a")),)),
    )


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("def in 0")
    assert exc.value.line == 1
    assert "in" in str(exc.value)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("out<1²>", 1, 6, "unexpected character '²'"),
        ("out<½>", 1, 5, "unexpected character '½'"),
        ("0 | x~", 1, 5, "expected digits after '~'"),
        ('0 |\n  out<"abc>', 2, 7, "unterminated string literal"),
        ("def x<> |> 0 in # trailing", 1, 27, "expected a process, got end of input"),
        ("0 # note\n|", 2, 2, "expected a process, got end of input"),
    ],
)
def test_lexer_error_positions(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column, str(exc.value)) == (line, column, f"{line}:{column}: {message}")


def test_lexer_reads_digits_names_and_indices():
    assert parse("out<٣, x², _y~12>") == Message(
        Name("out"), (Lit(3), NameRef(Name("x²")), NameRef(Name("_y", 12)))
    )


def test_parse_rejects_repeated_channel():
    with pytest.raises(ParseError, match="^1:20: channel repeated in join pattern$"):
        parse("def a<x> | a<y> |> 0 in 0")


def test_parse_rejects_repeated_binder():
    with pytest.raises(ParseError, match="^1:20: binder repeated in join pattern$"):
        parse("def a<x> | b<x> |> 0 in 0")


def test_parse_rejects_a_name_both_defined_and_received():
    with pytest.raises(ParseError, match="^2:1: name both defined and received in one pattern$"):
        parse("def a<b> | b<x> |>\n0 in 0")


def test_parse_literals_and_conditional():
    p = parse('if [c = "dl"] then 0 else out<5>')
    assert isinstance(p, Conditional)
    assert p.rhs == Lit("dl")
    assert p.orelse == Message(Name("out"), (Lit(5),))


def test_parse_concat_and_proj():
    p = parse("out<a ++ b, fst(x)>")
    assert p == Message(
        Name("out"),
        (Concat(NameRef(Name("a")), NameRef(Name("b"))), Proj(NameRef(Name("x")), 1)),
    )


def test_name_sets_rule():
    ns = name_sets(parse("def x<u> |> y<u> in 0"))
    assert Name("x") in ns.dv
    assert Name("u") in ns.rv
    rule_ns = name_sets(Rule(MsgPat(Name("x"), (Name("u"),)), Message(Name("y"), (NameRef(Name("u")),))))
    assert rule_ns.dv == {Name("x")}
    assert rule_ns.rv == {Name("u")}
    assert rule_ns.fv == {Name("x"), Name("y")}


def test_name_sets_two_channel_join():
    ns = name_sets(parse("def x<u>|z<v> |> x<v> in x<a>|z<b>"))
    assert ns.dv == {Name("x"), Name("z")}
    assert ns.rv == {Name("u"), Name("v")}
    assert ns.fv == {Name("a"), Name("b")}


def test_name_sets_null():
    ns = name_sets(Null())
    assert ns.dv == set() and ns.rv == set() and ns.fv == set()


def test_substitute_message():
    p = Message(Name("out"), (NameRef(Name("z")),))
    q = substitute(p, {Name("z"): 7})
    assert q == Message(Name("out"), (Lit(7),))


def test_substitute_identity_on_null():
    assert substitute(Null(), {Name("z"): Name("a")}) == Null()


def test_substitute_respects_binders():
    p = parse("def x<z> |> c<z> in c<z>")
    q = substitute(p, {Name("z"): Name("a")})
    assert isinstance(q, LocalDef)
    # the bound z inside the rule is untouched, the free one replaced
    assert q.defs == Rule(MsgPat(Name("x"), (Name("z"),)), Message(Name("c"), (NameRef(Name("z")),)))
    assert q.body == Message(Name("c"), (NameRef(Name("a")),))


def test_substitute_avoids_capture():
    # mapping introduces a name the inner binder would capture
    p = parse("def x<u> |> out<u, w> in 0")
    q = substitute(p, {Name("w"): Name("u")})
    rule = q.defs
    binder = rule.pattern.binders[0]
    assert binder != Name("u")  # binder renamed
    args = rule.body.args
    assert args[0] == NameRef(binder)
    assert args[1] == NameRef(Name("u"))


def test_substitute_finds_its_fresh_floor_only_to_rename(monkeypatch):
    import jcham.syntax as syntax

    walks = []
    max_index = syntax._max_index
    monkeypatch.setattr(syntax, "_max_index", lambda t: walks.append(t) or max_index(t))
    p = Parallel(parse("def x<u> |> out<u, w> in 0"), Message(Name("k", 4), ()))
    assert substitute(p, {Name("w"): Name("a")}).left.defs.pattern.binders == (Name("u"),)
    assert walks == []
    # both binders of the pattern collide; one walk gives the floor for both
    p = Parallel(parse("def x<u, v> |> out<u, v, w> in 0"), Message(Name("k", 4), ()))
    q = substitute(p, {Name("w"): Pair(Name("u"), Name("v")), Name("z"): Name("q", 9)})
    assert q.left.defs.pattern.binders == (Name("u", 10), Name("v", 11)) and len(walks) == 1


@pytest.mark.parametrize("seed", ["0", "1"])
def test_fresh_floor_renaming_does_not_depend_on_the_hash_seed(seed):
    # minted in the order of a set of binders, the fresh indices would
    # follow the set's order, which changes with the hash seed
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    test = f"{__file__}::test_substitute_finds_its_fresh_floor_only_to_rename"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


_A, _F = Name("a"), Name("f")
_CALL = SyncCall(_F, (NameRef(_A),))
_SUGAR = {
    "call": _CALL,
    "expression def": ExprDef(Top(), NameRef(_A)),
    "sequence": Sequence(_CALL, Null()),
    "let": Let((Name("x"),), _CALL, Message(Name("out"), (NameRef(Name("x")),))),
    "return": Return((NameRef(_A),), _F),
    "call pattern": CallPat(_F, (Name("u"),)),
    "call in a message": Message(Name("out"), (_CALL,)),
    "let in a rule body": parse("def g<u> |> (let x = f(a) in out<x>) in 0"),
}


@pytest.mark.parametrize("term", _SUGAR.values(), ids=_SUGAR.keys())
def test_substitute_refuses_sugar(term):
    # substitution runs below ``desugar``: it takes core terms only
    with pytest.raises(TypeError, match="not a core term"):
        substitute(term, {_A: Name("b"), _F: Name("h")})


def test_substitute_pair_values():
    p = Message(Name("out"), (NameRef(Name("z")),))
    q = substitute(p, {Name("z"): Pair(Name("a"), Name("b"))})
    assert q == Message(Name("out"), (Concat(NameRef(Name("a")), NameRef(Name("b"))),))


def test_substitution_composition():
    rng = random.Random(11)
    for _ in range(50):
        t = _random_term(rng, 3)
        fv = sorted(free_names(t), key=str)
        if len(fv) < 2:
            continue
        a, b = fv[0], fv[1]
        s1 = {a: Name("fresh_one")}
        s2 = {b: Name("fresh_two")}
        lhs = substitute(substitute(t, s1), s2)
        rhs = substitute(substitute(t, s2), s1)
        assert lhs == rhs


def _random_term(rng, depth):
    if depth == 0:
        return Message(Name(rng.choice("xyzuv")), (NameRef(Name(rng.choice("abcde"))),))
    kind = rng.randrange(4)
    if kind == 0:
        return Parallel(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    if kind == 1:
        binder = Name(rng.choice("mn"))
        return LocalDef(
            Rule(MsgPat(Name(rng.choice("pq")), (binder,)), _random_term(rng, depth - 1)),
            _random_term(rng, depth - 1),
        )
    if kind == 2:
        return Null()
    return Message(Name(rng.choice("xyz")), (NameRef(Name(rng.choice("abcde"))),))


# -- pretty printing round trips


ROUND_TRIP_SOURCES = [
    "0",
    "x<>",
    "x<a, 5, \"lit\">",
    "def x<u> |> y<u> in x<a>",
    "def a<> | b<> |> 0 in a<> | b<>",
    "def f(a) |> (return a to f) in let r = f(5) in out<r>",
    "def T in 0",
    "def x<u> |> y<u> and z<v> |> 0 in x<a>",
    "if [a = b] then x<> else y<>",
    "if [a = b] then 0 else (if [a = c] then x<> else y<>)",
    "sys_updt(p); out<done>",
    "f(a)",
    "out<a ++ (b ++ nil)>",
    "out<fst(x), snd(x)>",
    "return v, w to chan",
    "return to chan",
    "let x, y = f(a, b) in out<x, y>",
    "(def x<u> |> 0 in x<a>) | y<b>",
    "let x = def k() |> return 1 to k in k() in out<x>",
    "out<def k() |> return 1 to k and j() |> return to j in k(), a>",
    "def s(x) |> (return x to s) in (HOLE | out<s(a)>)",
]


@pytest.mark.parametrize("src", ROUND_TRIP_SOURCES)
def test_round_trip(src):
    t = parse(src)
    assert parse(pretty(t)) == t


def test_round_trip_sources_hold_every_process_and_expression_form():
    seen = {type(t) for src in ROUND_TRIP_SOURCES for t in subterms(parse(src))}
    assert set(get_args(Process)) | set(get_args(Expression)) <= seen


def test_round_trip_generated():
    rng = random.Random(5)
    for _ in range(200):
        t = _random_term(rng, 3)
        assert parse(pretty(t)) == t


def test_subterms_pre_order_enters_rule_bodies_and_expressions():
    p = parse(
        'def f(a) |> (return g(fst(a) ++ "s") to f) in '
        "let r = f(def k() |> return 1 to k in k()) in (out<r> | if [r = 2] then (h(r); 0) else HOLE)"
    )
    assert [type(t).__name__ for t in subterms(p)] == [
        "LocalDef", "Return", "SyncCall", "Concat", "Proj", "NameRef", "Lit",
        "Let", "SyncCall", "ExprDef", "Return", "Lit", "SyncCall",
        "Parallel", "Message", "NameRef",
        "Conditional", "NameRef", "Lit", "Sequence", "SyncCall", "NameRef", "Null", "Hole",
    ]


def test_atom_source_writes_atoms_that_read_back():
    for a in (Name("x"), Name("x", 3), 7, "mail", Pair(Name("a"), Pair(Name("b"), Name("nil"))), Pair(Pair(Name("a"), 1), Name("c"))):
        text = atom_source(a, ValueError)
        assert parse(f"m<{text}>") == Message(Name("m"), (embed_atom(a),))
        # a pair comes parenthesized, so it stays one operand of ++
        assert parse(f"m<{text} ++ z>") == Message(Name("m"), (Concat(embed_atom(a), NameRef(Name("z"))),))
    for bad in (Name("in"), Name("fst"), Name("HOLE"), Name("a|b"), Name("x<y"), Name("x~3"), Name(""), -1, 'say "hi"'):
        with pytest.raises(ValueError):
            atom_source(bad, ValueError)

import json
import os
import subprocess
import sys
from functools import partial

import pytest

import jcham.cli
import jcham.policy
import jcham.scenarios
from jcham.cli import corpus_path, main, make_parser
from jcham.engine import BudgetExhausted, barb
from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus
from jcham.parser import parse
from jcham.policy import observable_traces
from jcham.scenarios import Scenario, ScenarioError, build_context, load_scenario, run_scenario
from jcham.syntax import Name, pretty


# the child process imports the same ``jcham`` as the tests do
_SRC = os.path.dirname(os.path.dirname(jcham.cli.__file__))


def cli(*args, **env_overrides):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))))
    env.update(env_overrides)
    proc = subprocess.run(
        [sys.executable, "-m", "jcham.cli", *args], capture_output=True, text=True, timeout=300, env=env
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_scenario_parsing():
    sc = Scenario.parse(
        "context=refined(n=2) family=virus class=III mech=overwrite targets=sw1,sw2 "
        "mode=explore expect=vulnerable"
    )
    assert sc.context_spec == "refined(n=2)"
    assert sc.malware["class"] == "III"
    assert sc.expect == "vulnerable"


def test_scenario_rejects_garbage():
    with pytest.raises(ScenarioError):
        Scenario.parse("context=refined(n=2) junk")
    with pytest.raises(ScenarioError):
        Scenario.parse("family=virus")
    with pytest.raises(ScenarioError):
        Scenario.parse("context=refined(n=2) expect=maybe")


def test_build_context_kinds():
    for spec in ["refined(n=2)", "worm()", "filesystem(files=n1=f1)", "rootkit(syscalls=s1)", "bare(resources=r1)"]:
        assert build_context(spec) is not None
    with pytest.raises(ScenarioError):
        build_context("mystery()")


CORPUS_EXPECTATIONS = {
    "null.scn": 0,
    "virus_class1.scn": 1,
    "virus_class2.scn": 1,
    "virus_class3.scn": 1,
    "virus_class4.scn": 1,
    "virus_append.scn": 1,
    "virus_dynamic.scn": 1,
    "worm_class1.scn": 1,
    "worm_class2.scn": 1,
    "worm_class3.scn": 1,
    "worm_class4.scn": 1,
    "companion_rename.scn": 1,
    "companion_preempt.scn": 1,
    "rootkit.scn": 1,
    "token_spatial.scn": 0,
    "token_distributed.scn": 1,
    "token_counted.scn": 0,
    "toy_petri.scn": 1,
    "diverge.scn": 2,
}


@pytest.mark.parametrize("name,expected_exit", sorted(CORPUS_EXPECTATIONS.items()))
def test_corpus_scenarios_meet_expectations(name, expected_exit):
    sc = load_scenario(corpus_path(name))
    result = run_scenario(sc)
    assert result.expectation_met, (name, result.outcome, result.expected)
    from jcham.cli import _VERDICT_EXIT

    assert _VERDICT_EXIT[result.outcome] == expected_exit


# (states_explored, dedup_hits) of each corpus scenario.  The counts move
# when a change to the canonical forms moves the congruence classes, which
# the verdicts alone need not show.
CORPUS_DEDUP = {
    "companion_preempt.scn": (76, 60),
    "companion_rename.scn": (76, 60),
    "diverge.scn": (400, 197),
    "null.scn": (1, 0),
    "rootkit.scn": (17, 9),
    "token_counted.scn": (79, 31),
    "token_distributed.scn": (27, 11),
    "token_spatial.scn": (20, 7),
    "toy_petri.scn": (1, 0),
    "virus_append.scn": (35, 19),
    "virus_class1.scn": (18, 5),
    "virus_class2.scn": (18, 5),
    "virus_class3.scn": (18, 5),
    "virus_class4.scn": (18, 5),
    "virus_dynamic.scn": (23, 8),
    "worm_class1.scn": (18, 5),
    "worm_class2.scn": (18, 5),
    "worm_class3.scn": (18, 5),
    "worm_class4.scn": (18, 5),
}


@pytest.mark.parametrize("name", sorted(CORPUS_EXPECTATIONS))
def test_corpus_scenarios_keep_their_dedup_counts(monkeypatch, name):
    import jcham.engine as engine

    # a barb scenario reports no verdict: read its one search's counters
    searched = []
    search = engine.search

    def counted(starts, max_states, *args, stats=None, **kwargs):
        searched.append(stats if stats is not None else engine.DetectionStats())
        return search(starts, max_states, *args, stats=searched[-1], **kwargs)

    monkeypatch.setattr(engine, "search", counted)
    result = run_scenario(load_scenario(corpus_path(name)))
    if result.detail is None:
        assert len(searched) == 1
        stats = searched[0]
    else:
        stats = result.detail.stats
    assert (stats.states_explored, stats.dedup_hits) == CORPUS_DEDUP[name]


def test_cli_run_trace_and_exit():
    code, out, err = cli("run", corpus_path("red_basic.jc"))
    assert code == 0
    assert "EMIT out<7>" in out


def test_cli_run_is_reproducible(tmp_path):
    a = cli("run", corpus_path("pingpong.jc"), "--seed", "5", "--max-steps", "12")
    b = cli("run", corpus_path("pingpong.jc"), "--seed", "5", "--max-steps", "12")
    assert a == b
    assert len(a[1].strip().splitlines()) == 12


def test_cli_parse_error_exit(tmp_path):
    bad = tmp_path / "bad.jc"
    bad.write_text("def in 0")
    code, out, err = cli("parse", str(bad))
    assert code == 64
    assert "1:5" in err


@pytest.mark.parametrize(
    "text, where",
    [
        ("out<²>", "1:5: unexpected character '²'"),
        ("def x<> |> 0 in # trailing", "1:27: expected a process, got end of input"),
    ],
)
def test_cli_parse_errors_are_one_line(tmp_path, capsys, text, where):
    bad = tmp_path / "bad.jc"
    bad.write_text(text)
    with pytest.raises(SystemExit) as exit_:
        main(["parse", str(bad)])
    assert exit_.value.code == 64
    assert capsys.readouterr().err == f"{bad}:{where}\n"


def test_cli_context_atom_with_a_non_decimal_digit_is_refused(tmp_path, capsys):
    proc = tmp_path / "P.jc"
    proc.write_text("out<a>")
    with pytest.raises(SystemExit) as exit_:
        main(["detect", "--context", "filesystem(files=a=²)", "--process", str(proc)])
    assert exit_.value.code == 65
    assert capsys.readouterr().err == "'²' cannot be written as an atom\n"


def test_cli_parse_prints_expression_definitions(tmp_path, capsys):
    src = tmp_path / "e.jc"
    src.write_text("let x = def k() |> return 1 to k in k() in out<x>")
    assert main(["parse", str(src)]) == 0
    assert parse(capsys.readouterr().out) == parse(src.read_text())


@pytest.mark.parametrize(
    "header",
    [
        "#! services: nosuch  resources:   privileged:",
        "#! services:  resources:   privileged:  guard: token=t mode=spatial",
        "#! services:  resources:   privileged:  guard: token=sectok mode=bogus count=-3 guarded=sw1",
        "#! services:  resources:   privileged:  guard: token=sectok mode=spatial count=0 guarded=",
        "#! services:  resources:   privileged:  guard: token=sectok mode=spatial count=0 guarded=zz",
    ],
)
def test_cli_bad_context_file_is_a_usage_error(tmp_path, capsys, header):
    bad = tmp_path / "bad.jc"
    bad.write_text(f"{header}\nHOLE\n")
    with pytest.raises(SystemExit) as exit_:
        main(["policy", "isolate", "--context", str(bad)])
    assert exit_.value.code == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


_RED = corpus_path("red_basic.jc")
_PROBE = corpus_path("probe_read.jc")


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--context", "refined(n=2)", "--process", _RED, "--iterations", "1"],
        ["detect", "--context", "refined(n=2)", "--process", _RED, "--iterations", "-1"],
        ["detect", "--context", "refined(n=2)", "--process", _RED, "--max-states", "-5"],
        ["detect", "--context", "refined(n=2)", "--process", _RED, "--max-depth", "-1"],
        ["run", _RED, "--max-steps", "-1"],
        ["policy", "noninfect", "--context", "refined(n=2)", "--process", _PROBE, "--tests", _PROBE, "--depth", "-2"],
        ["policy", "enforce", "--context", "refined(n=2)", "--depth", "-1"],
    ],
)
def test_cli_bad_budget_is_a_usage_error(capsys, argv):
    assert main(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--process", _RED],
        ["detect", "--context", "refined(n=2)", "--process", _RED, "--max-states", "abc"],
    ],
)
def test_cli_argument_errors_are_usage_errors(capsys, argv):
    # argparse's own exit code, 2, would read as a tripped budget
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 65
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: jcham detect")


@pytest.mark.parametrize("argv", [["--help"], ["detect", "--help"], ["--version"]])
def test_cli_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "knobs",
    ["mode=explore max_states=-1", "mode=explore depth=-1", "mode=barb barb_depth=-1", "mode=viral_set iterations=1"],
)
def test_scenario_budget_knob_out_of_range_is_a_usage_error(tmp_path, capsys, knobs):
    scn = tmp_path / "bad.scn"
    scn.write_text(f"context=refined(n=2) process=null {knobs}\n")
    with pytest.raises(ScenarioError, match="must be"):
        run_scenario(load_scenario(str(scn)))
    assert main(["scenario", str(scn)]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", _RED, "--trace", "OUT"],
        ["detect", "--context", "bare(resources=sw1)", "--process", corpus_path("toy_replicator.jc"),
         "--self-channel", "p", "--mode", "petri", "--trace", "OUT"],
        ["policy", "tokenize", "--context", "refined(n=2)", "--guard", "sw1", "--out", "OUT"],
    ],
)
def test_cli_unwritable_output_file_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 would read as vulnerable / violated
    unwritable = str(tmp_path / "missing" / "out")
    with pytest.raises(SystemExit) as exit_:
        main([unwritable if a == "OUT" else a for a in argv])
    assert exit_.value.code == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_cli_detect_trace_without_witness_leaves_an_empty_file(tmp_path, capsys):
    # an earlier run's trace must not stay behind a verdict with no witness
    trace = tmp_path / "w.trace"
    trace.write_text("STEP 0 RULE stale\n")
    argv = ["detect", "--context", "refined(n=2)", "--process", corpus_path("inert.jc"), "--json", "--trace", str(trace)]
    assert main(argv) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["outcome"] == "not_vulnerable" and record["witness_path"] is None
    assert trace.read_text() == ""


def test_cli_main_calls_share_the_parser_but_no_state(tmp_path, capsys):
    net = tmp_path / "n.net"
    net.write_text("place 0 start\nplace 1 goal\ntrans go pre 0:1 post 1:1\ninit 0:1\ntarget 1:1\n")
    runs = [
        ["petri", "cover", "--net", str(net), "--json"],
        ["detect", "--process", _RED],
        ["detect", "--context", "refined(n=2)", "--process", corpus_path("inert.jc")],
        ["scenario", "null.scn", "--json"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in runs]
    fresh = []
    for argv in runs:
        make_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 65, 0, 0]
    assert shared[2][1].startswith("outcome: not_vulnerable\n")


def test_cli_policy_noninfect_without_tests_is_a_usage_error(capsys):
    # no test process compares nothing, so "satisfied_to_depth" would be vacuous
    assert main(["policy", "noninfect", "--context", "refined(n=2)", "--process", _PROBE, "--tests", ","]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


_HASH_SEEDED = "def g<a, b> |> (def f<u, v> |> out<a, b, u, v> in f<a, b>) in g<u, v>"


def test_cli_run_dump_does_not_depend_on_the_hash_seed(tmp_path):
    # g's arguments collide with both binders of f; the renamed binders get
    # their fresh indices in pattern order, whatever the order of a set
    prog = tmp_path / "p.jc"
    prog.write_text(_HASH_SEEDED)
    runs = [cli("run", str(prog), "--seed", "7", "--dump", PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 0, err
    assert "def f~2<u~0, v~1>" in out


def test_cli_zero_budgets_stay_valid(capsys):
    assert main(["detect", "--context", "refined(n=2)", "--process", _RED, "--iterations", "0", "--max-states", "0"]) == 2
    assert main(["run", _RED, "--max-steps", "0"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "context=refined(n=2) family=virus class=V"],
        ["scenario", "context=refined(n=2) family=virus class=III mech=bogus"],
        ["scenario", "context=refined(n=0) family=virus class=III"],
        ["scenario", "context=tokenized(n=2; mode=spatial; guard=zz) family=virus class=III"],
        ["scenario", "context=filesystem(files=n1=f1) family=virus class=III mech=companion_rename:in targets=n1"],
        ["policy", "isolate", "--context", "tokenized(n=2; mode=spatial; guard=zz)"],
        ["policy", "tokenize", "--context", "refined(n=2)", "--guard", "zz"],
        ["policy", "tokenize", "--context", "refined(n=2)", "--guard", ","],
        ["policy", "tokenize", "--context", "refined(n=2)", "--guard", "sw1", "--mode", "bogus"],
        ["policy", "tokenize", "--context", "refined(n=2)", "--guard", "sw1", "--mode", "counted:x"],
        ["policy", "isolate", "--context", "tokenized(n=2;mode=bogus)"],
        ["policy", "isolate", "--context", "refined(n=x)"],
        ["policy", "isolate", "--context", "filesystem(files=n1)"],
        ["policy", "isolate", "--context", "DIR"],
        ["policy", "tokenize", "--context", "tokenized(n=2; mode=counted; count=2; guard=sw1)", "--guard", "sw2",
         "--mode", "counted:1"],
    ],
)
def test_cli_model_errors_are_usage_errors(tmp_path, capsys, argv):
    argv = [str(tmp_path) if a == "DIR" else a for a in argv]
    if argv[0] == "scenario":
        scn = tmp_path / "bad.scn"
        scn.write_text(argv[1] + " mode=explore\n")
        argv = ["scenario", str(scn)]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


def class_iii_virus():
    return build_virus(
        MalwareSpec(
            family="virus",
            klass="III",
            mech=ReplicationMech("overwrite"),
            targets=TargetRoutine("hardcoded", (Name("sw1"), Name("sw2"))),
        )
    )


def test_cli_detect_json(tmp_path):
    proc_file = tmp_path / "v.jc"
    proc_file.write_text(pretty(class_iii_virus()))
    trace_file = tmp_path / "w.trace"
    code, out, err = cli(
        "detect", "--context", "refined(n=2)", "--process", str(proc_file), "--json", "--trace", str(trace_file)
    )
    assert code == 1, err
    record = json.loads(out)
    assert record["outcome"] == "vulnerable"
    assert record["stats"]["states_explored"] > 0
    assert os.path.exists(record["witness_path"])
    assert "STEP 0" in trace_file.read_text()


def test_cli_detect_fragment_exit(tmp_path):
    proc_file = tmp_path / "v.jc"
    proc_file.write_text("def f(a) |> (return a to f) in let r = f(1) in out<r>")
    code, out, err = cli("detect", "--context", "bare(resources=r1)", "--process", str(proc_file), "--mode", "petri")
    assert code == 3
    assert "fragment" in err


def test_cli_petri_cover(tmp_path):
    net = tmp_path / "n.net"
    net.write_text(
        "place 0 start\nplace 1 goal\ntrans 0 pre 0:1 post 1:1\ninit 0:1\ntarget 1:1\n"
    )
    code, out, err = cli("petri", "cover", "--net", str(net))
    assert code == 1
    assert "coverable: True" in out


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("place 0 a\ntrans t pre 0:1 post 5:1\ninit 0:1\ntarget 0:1\n", id="undeclared-transition-place"),
        pytest.param("place 0 a\ntrans t pre 0:1\ninit 0:1\ntarget 0:1\n", id="no-post"),
        pytest.param("place 0 a\ninit 0:x\ntarget 0:1\n", id="bad-count"),
        pytest.param("place 0 a\ninit 0:1\ntarget -\n", id="empty-target"),
        pytest.param("place 0 a\ninit 0:1\ntarget 0:1\narc 0 0\n", id="unknown-line"),
        pytest.param("place 0 a\ninit 3:1\ntarget 0:1\n", id="undeclared-init-place"),
        pytest.param("place 0 a\ninit 0:1\ntarget 3:1\n", id="undeclared-target-place"),
        pytest.param(None, id="missing-file"),
    ],
)
def test_cli_petri_cover_rejects_a_bad_net(tmp_path, capsys, text):
    net = tmp_path / "n.net"
    if text is not None:
        net.write_text(text)
    assert main(["petri", "cover", "--net", str(net)]) == 65
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


def test_cli_policy_isolate():
    code, out, err = cli("policy", "isolate", "--context", "refined(n=2)")
    assert code == 1
    assert "isolation_holds: False" in out


def test_cli_policy_noninfect(tmp_path):
    probe = tmp_path / "probe.jc"
    probe.write_text("sw1(evil); probe_done<>")
    test = tmp_path / "t.jc"
    test.write_text("let x = sr1() in observed<x>")
    code, out, err = cli(
        "policy", "noninfect", "--context", "refined(n=2)", "--process", str(probe), "--tests", str(test)
    )
    assert code == 1
    assert "violated" in out


def test_cli_policy_noninfect_without_quiescence_has_no_answer(tmp_path, capsys):
    # loop never quiesces, and the read test cannot tell it from nothing
    loop = tmp_path / "loop.jc"
    loop.write_text("def loop<> |> loop<> in loop<>")
    code = main(["policy", "noninfect", "--context", "refined(n=1)", "--process", str(loop), "--tests", _PROBE,
                 "--depth", "4"])
    assert code == 2
    assert capsys.readouterr().out == (
        "outcome: budget_exhausted(depth=4)\nnote: budget quiescence_budget=600 exhausted\n"
    )


def test_cli_policy_noninfect_prints_distinguishing_traces(tmp_path):
    # the traces differ after a shared prefix, so formatting them sorts
    # tuples of observations
    proc = tmp_path / "P.jc"
    proc.write_text("def go<> |> (sw1(evil); 0) in go<>")
    test = tmp_path / "t.jc"
    test.write_text("let x = sr2() in (observed<x> | let y = sr1() in observed<y>)")
    code, out, err = cli(
        "policy", "noninfect", "--context", "refined(n=2)", "--process", str(proc), "--tests", str(test),
    )
    assert code == 1, err
    assert "Traceback" not in err
    assert "evolved-only traces:  [('observed<f2>', 'sr1<k>', 'observed<evil>')]" in out


def test_cli_policy_noninfect_does_not_depend_on_the_order_of_the_and_clauses(tmp_path):
    # go<> and bad<> race for tok<>: the run in which bad<> wins writes evil
    # into sw1, whichever clause is written first
    go, bad = "go<> | tok<> |> 0", "bad<> | tok<> |> sw1(evil); done<>"
    for name, first, second in (("P.jc", go, bad), ("Q.jc", bad, go)):
        proc = tmp_path / name
        proc.write_text(f"def {first} and {second} in go<> | bad<> | tok<>")
        code, out, err = cli(
            "policy", "noninfect", "--context", "refined(n=2)", "--process", str(proc),
            "--tests", corpus_path("probe_read.jc"), "--depth", "6",
        )
        assert code == 1, (name, err)
        assert out.splitlines()[0] == "outcome: violated(depth=6)", name


def test_cli_viral_set_honours_max_depth(tmp_path):
    proc_file = tmp_path / "v.jc"
    proc_file.write_text(pretty(class_iii_virus()))
    code, out, err = cli(
        "detect", "--context", "refined(n=2)", "--process", str(proc_file), "--iterations", "2", "--max-depth", "1"
    )
    assert code == 2, err
    assert "note: budget max_depth=1 exhausted" in out


def test_cli_tripped_budgets_exit_2(tmp_path, monkeypatch, capsys):
    net = tmp_path / "n.net"
    net.write_text("place 0 start\nplace 1 goal\ntrans 0 pre 0:1 post 1:1\ninit 0:1\ntarget 1:1\n")

    def basis_exploded(*args, **kwargs):
        raise BudgetExhausted("max_basis", 1)

    monkeypatch.setattr(jcham.cli, "coverable", basis_exploded)
    assert main(["petri", "cover", "--net", str(net)]) == 2
    assert capsys.readouterr().err == "budget max_basis=1 exhausted\n"

    probe = tmp_path / "probe.jc"
    probe.write_text("let y = sr1() in 0")
    test = tmp_path / "t.jc"
    test.write_text("let x = sr1() in observed<x>")
    monkeypatch.setattr(jcham.policy, "observable_traces", partial(observable_traces, max_paths=0))
    argv = ["policy", "noninfect", "--context", "refined(n=2)", "--process", str(probe), "--tests", str(test)]
    assert main(argv) == 2
    assert "outcome: budget_exhausted(depth=6)" in capsys.readouterr().out
    assert main(["policy", "enforce", "--context", "tokenized(n=2)"]) == 2
    assert capsys.readouterr().err == "budget max_states=0 exhausted\n"

    scn = tmp_path / "barb.scn"
    scn.write_text("context=bare() process_file=goal.jc mode=barb channel=goal barb_depth=4 expect=budget_exhausted\n")
    (tmp_path / "goal.jc").write_text(
        "def t<> |> t<> | x<> and t<> |> t<> | y<> and g1<> |> g2<> and g2<> |> g3<> "
        "and g3<> |> g4<> and g4<> |> goal<> in t<> | g1<>"
    )
    monkeypatch.setattr(jcham.scenarios, "barb", partial(barb, max_states=10))
    assert main(["scenario", str(scn)]) == 2


def test_cli_policy_tokenize_round_trip(tmp_path):
    out_file = tmp_path / "guarded.jc"
    code, out, err = cli(
        "policy", "tokenize", "--context", "refined(n=2)", "--guard", "sw1,sw2", "--mode", "counted:3",
        "--out", str(out_file),
    )
    assert code == 0, err
    text = out_file.read_text()
    assert text.startswith("#! services:")
    code2, out2, err2 = cli("policy", "isolate", "--context", str(out_file))
    assert code2 in (0, 1)


def test_cli_file_loaded_context_enforces_like_inline(tmp_path):
    out_file = tmp_path / "g.jc"
    code, _, err = cli(
        "policy", "tokenize", "--context", "refined(n=2)", "--guard", "sw1,sw2", "--distribute", "--out", str(out_file)
    )
    assert code == 0, err
    from_file = cli("policy", "enforce", "--context", str(out_file))
    inline = cli("policy", "enforce", "--context", "tokenized(n=2; mode=spatial; guard=sw1,sw2; distribute=yes)")
    assert from_file == inline == (1, "enforcement_sound: False\n", "")


def test_cli_enforce_without_an_answer_exits_65(tmp_path):
    guarded, unstable = tmp_path / "g.jc", tmp_path / "g2.jc"
    assert cli("policy", "tokenize", "--context", "refined(n=1)", "--guard", "sw1", "--out", str(guarded))[0] == 0
    text = guarded.read_text()
    # a rule and a message that react without any plugged process
    unstable.write_text(text.replace(" in current<null>", " and go<> |> go<> in go<> | current<null>", 1))
    assert unstable.read_text() != text
    code, out, err = cli("policy", "enforce", "--context", str(unstable))
    assert (code, out, err) == (65, "", "the environment reacts without any plugged process\n")
    # no guarded channel and no write-access resource: no probe runs
    for spec in ("worm()", "rootkit(syscalls=s1)", "bare(resources=r1)"):
        code, out, err = cli("policy", "enforce", "--context", spec)
        assert code == 65 and out == "" and err.startswith("no probe") and len(err.splitlines()) == 1, (spec, err)


def test_cli_scenario_expectation_mismatch(tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text("context=refined(n=2) process=null mode=explore expect=vulnerable\n")
    code, out, err = cli("scenario", str(scn))
    assert code == 70
    assert "MISMATCH" in out


def test_cli_scenario_invalid(tmp_path):
    scn = tmp_path / "broken.scn"
    scn.write_text("context=refined(n=2) mode=warp\n")
    code, out, err = cli("scenario", str(scn))
    assert code == 65


def test_cli_scenario_resolves_corpus_names():
    code, out, err = cli("scenario", "null.scn", "--json")
    assert code == 0
    assert json.loads(out)["met"] is True

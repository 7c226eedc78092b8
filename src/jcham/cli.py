"""Command-line front end.

Subcommands: ``parse`` / ``run`` a program, ``detect`` replication in a
context, ``petri`` coverability queries, ``policy`` checks, ``scenario``
for packaged analysis descriptions.  Identical inputs and seeds produce
byte-identical output.

Exit codes: analysis outcomes use 0 (not vulnerable / holds), 1
(vulnerable / violated), 2 (budget exhausted), 3 (outside the decidable
fragment); 64 parse error, 65 invalid scenario, context or usage, 70
expectation mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources as importlib_resources

from . import __version__
from .contexts import Context, ContextError, TokenGuard, load_context, save_context
from .detector import DetectionVerdict, FragmentViolation, detect_via_coverability, explore, viral_set_member
from .engine import BudgetExhausted, inject, run
from .malware import MalwareError
from .parser import ParseError, parse
from .petri import coverable, parse_net
from .policy import (
    InfectingTest,
    UnstableContext,
    add_token_distributor,
    classify_context,
    enforcement_sound,
    non_infection_test,
    tokenize_context,
)
from .scenarios import BUDGET_FLOORS, ScenarioError, build_context, check_budget, load_scenario, run_scenario
from .syntax import Name, pretty

EXIT_OK = 0
EXIT_VULNERABLE = 1
EXIT_BUDGET = 2
EXIT_FRAGMENT = 3
EXIT_PARSE = 64
EXIT_USAGE = 65
EXIT_EXPECT = 70

_VERDICT_EXIT = {
    "not_vulnerable": EXIT_OK,
    "vulnerable": EXIT_VULNERABLE,
    "budget_exhausted": EXIT_BUDGET,
    "observed": EXIT_VULNERABLE,
    "not_observed": EXIT_OK,
    "satisfied_to_depth": EXIT_OK,
    "violated": EXIT_VULNERABLE,
}


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        print(str(e), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_program(path: str):
    try:
        return parse(_read(path))
    except ParseError as e:
        print(f"{path}:{e}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)
    except OSError as e:
        print(str(e), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_context_arg(spec: str) -> Context:
    try:
        return load_context(_read(spec)) if os.path.exists(spec) else build_context(spec)
    except (ContextError, ScenarioError, OSError) as e:
        print(str(e), file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit_verdict(v: DetectionVerdict, args) -> int:
    trace_path = getattr(args, "trace", None)
    if trace_path:
        # an empty file when there is no witness, so no earlier trace stays
        _write(trace_path, "" if v.witness is None else v.witness.format() + "\n")
    if getattr(args, "json", False):
        record = {
            "outcome": v.outcome,
            "witness_path": trace_path if (trace_path and v.witness) else None,
            "stats": {
                "states_explored": v.stats.states_explored,
                "dedup_hits": v.stats.dedup_hits,
                "frontier_peak": v.stats.frontier_peak,
            },
            "notes": v.notes,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"outcome: {v.outcome}")
        print(
            "stats: states=%d dedup=%d frontier_peak=%d"
            % (v.stats.states_explored, v.stats.dedup_hits, v.stats.frontier_peak)
        )
        for note in v.notes:
            print(f"note: {note}")
        if v.witness is not None:
            print("witness:")
            print(v.witness.format())
    return _VERDICT_EXIT[v.outcome]


def cmd_parse(args) -> int:
    p = _load_program(args.file)
    print(pretty(p))
    return EXIT_OK


def cmd_run(args) -> int:
    p = _load_program(args.file)
    trace = run(inject(p), seed=args.seed, max_steps=args.max_steps)
    text = trace.format()
    if args.trace:
        _write(args.trace, text + ("\n" if text else ""))
    if text:
        print(text)
    if args.dump:
        print("-- final configuration --")
        print(trace.final.dump())
    return EXIT_OK


def cmd_detect(args) -> int:
    ctx = _load_context_arg(args.context)
    proc = _load_program(args.process)
    self_ch = Name(args.self_channel) if args.self_channel else None
    try:
        if args.mode == "petri":
            v = detect_via_coverability(ctx, proc, self_channel=self_ch)
        elif args.iterations > 0:
            v = viral_set_member(
                ctx,
                proc,
                iterations=args.iterations,
                max_states=args.max_states,
                max_steps_per_branch=args.max_depth,
                self_channel=self_ch,
            )
        else:
            v = explore(
                ctx,
                proc,
                max_states=args.max_states,
                max_steps_per_branch=args.max_depth,
                self_channel=self_ch,
            )
    except FragmentViolation as e:
        print(str(e), file=sys.stderr)
        for loc, kind in e.report.violations:
            print(f"  {kind} at {loc or '<top>'}", file=sys.stderr)
        return EXIT_FRAGMENT
    return _emit_verdict(v, args)


def cmd_petri(args) -> int:
    try:
        net, init, target = parse_net(_read(args.net))
    except (OSError, ValueError) as e:
        print(f"{args.net}: {e}", file=sys.stderr)
        return EXIT_USAGE
    if target is None:
        print("net file has no target marking", file=sys.stderr)
        return EXIT_USAGE
    ok, witness = coverable(net, init, target)
    if args.json:
        print(json.dumps({"coverable": ok, "witness": witness}))
    else:
        print(f"coverable: {ok}")
        if witness is not None:
            labels = [net.transitions[t].label or str(t) for t in witness]
            print("witness:", " -> ".join(labels) if labels else "(already covered)")
    return EXIT_VULNERABLE if ok else EXIT_OK


def cmd_policy(args) -> int:
    ctx = _load_context_arg(args.context)
    if args.policy_cmd == "isolate":
        report = classify_context(ctx)
        for label, kind in report.classifications:
            print(f"{kind:18} {label}")
        print(f"isolation_holds: {report.isolation_holds}")
        return EXIT_OK if report.isolation_holds else EXIT_VULNERABLE
    if args.policy_cmd == "noninfect":
        proc = _load_program(args.process)
        tests = [_load_program(t) for t in args.tests.split(",") if t]
        try:
            verdict = non_infection_test(ctx, proc, tests, depth=args.depth)
        except (UnstableContext, InfectingTest, ValueError) as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
        print(f"outcome: {verdict.outcome}(depth={verdict.depth})")
        if verdict.distinguishing is not None:
            t, only_a, only_b = verdict.distinguishing
            print(f"distinguishing test: {pretty(t)}")
            print(f"  baseline-only traces: {[tuple(map(str, o)) for o in only_a]}")
            print(f"  evolved-only traces:  {[tuple(map(str, o)) for o in only_b]}")
        for note in verdict.notes:
            print(f"note: {note}")
        return _VERDICT_EXIT[verdict.outcome]
    if args.policy_cmd == "tokenize":
        mode, _, count = args.mode.partition(":")
        try:
            guard = TokenGuard(mode, int(count) if count else 0, tuple(g for g in args.guard.split(",") if g))
        except ValueError as e:
            print(f"--mode {args.mode}: {e}", file=sys.stderr)
            return EXIT_USAGE
        guarded = tokenize_context(ctx, guard)
        if args.distribute:
            guarded = add_token_distributor(guarded)
        text = save_context(guarded)
        if args.out:
            _write(args.out, text)
        else:
            print(text, end="")
        return EXIT_OK
    if args.policy_cmd == "enforce":
        try:
            sound = enforcement_sound(ctx, depth=args.depth)
        except (UnstableContext, InfectingTest, ValueError) as e:
            print(str(e), file=sys.stderr)
            return EXIT_USAGE
        print(f"enforcement_sound: {sound}")
        return EXIT_OK if sound else EXIT_VULNERABLE
    raise SystemExit(EXIT_USAGE)


def corpus_path(name: str) -> str:
    base = importlib_resources.files("jcham").joinpath("corpus")
    return str(base.joinpath(name))


def cmd_scenario(args) -> int:
    path = args.file
    if not os.path.exists(path):
        candidate = corpus_path(path)
        if os.path.exists(candidate):
            path = candidate
    try:
        sc = load_scenario(path)
        result = run_scenario(sc)
    except (ScenarioError, ContextError, MalwareError, OSError, KeyError, ValueError) as e:
        print(f"invalid scenario: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        record = {"outcome": result.outcome, "expected": result.expected, "met": result.expectation_met}
        if result.detail is not None:
            record["stats"] = {
                "states_explored": result.detail.stats.states_explored,
                "dedup_hits": result.detail.stats.dedup_hits,
            }
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"outcome: {result.outcome}")
        if result.expected is not None:
            print(f"expected: {result.expected} ({'met' if result.expectation_met else 'MISMATCH'})")
    if not result.expectation_met:
        return EXIT_EXPECT
    return _VERDICT_EXIT.get(result.outcome, EXIT_OK)


class _ArgumentParser(argparse.ArgumentParser):
    """Command-line errors exit 65, since argparse's own 2 means a tripped
    budget here; subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
    ap = _ArgumentParser(prog="jcham", description=__doc__)
    ap.add_argument("--version", action="version", version=f"jcham {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("parse", help="parse a program and print it back")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("run", help="execute a program with a seeded scheduler")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=200)
    p.add_argument("--trace", help="write the trace to this file")
    p.add_argument("--dump", action="store_true", help="print the final configuration")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("detect", help="decide or semi-decide self-replication")
    p.add_argument("--context", required=True, help="context file or spec, e.g. refined(n=2)")
    p.add_argument("--process", required=True)
    p.add_argument("--mode", choices=("explore", "petri"), default="explore")
    p.add_argument("--max-states", type=int, default=10_000)
    p.add_argument("--max-depth", type=int, default=400)
    p.add_argument("--iterations", type=int, default=0, help="check iterated replication K times")
    p.add_argument("--self-channel", help="abstraction channel base, when not inferable")
    p.add_argument("--trace", help="write the witness trace to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("petri", help="coverability on a net file")
    psub = p.add_subparsers(dest="petri_cmd", required=True)
    pc = psub.add_parser("cover")
    pc.add_argument("--net", required=True)
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=cmd_petri)

    p = sub.add_parser("policy", help="containment analyses")
    psub = p.add_subparsers(dest="policy_cmd", required=True)
    pn = psub.add_parser("noninfect")
    pn.add_argument("--context", required=True)
    pn.add_argument("--process", required=True)
    pn.add_argument("--tests", required=True, help="comma-separated test files")
    pn.add_argument("--depth", type=int, default=6)
    pn.set_defaults(fn=cmd_policy)
    pi = psub.add_parser("isolate")
    pi.add_argument("--context", required=True)
    pi.set_defaults(fn=cmd_policy)
    pt = psub.add_parser("tokenize")
    pt.add_argument("--context", required=True)
    pt.add_argument("--guard", required=True, help="comma-separated channel bases")
    pt.add_argument("--mode", default="spatial", help="spatial or counted:K")
    pt.add_argument("--distribute", action="store_true")
    pt.add_argument("--out")
    pt.set_defaults(fn=cmd_policy)
    pe = psub.add_parser("enforce")
    pe.add_argument("--context", required=True)
    pe.add_argument("--depth", type=int, default=6)
    pe.set_defaults(fn=cmd_policy)

    p = sub.add_parser("scenario", help="run a packaged scenario file")
    p.add_argument("file", help="path or corpus scenario name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_scenario)

    return ap


def _check_budgets(args) -> None:
    """Budget flags keep the floors of the scenario knobs of the same name,
    except that ``--iterations 0`` (the default) switches iteration off."""
    for dest in BUDGET_FLOORS:
        value = getattr(args, dest, None)
        if value is not None and not (dest == "iterations" and value == 0):
            check_budget("--" + dest.replace("_", "-"), value)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        _check_budgets(args)
        return args.fn(args)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return EXIT_PARSE
    except (ContextError, ScenarioError) as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhausted as e:
        print(str(e), file=sys.stderr)
        return EXIT_BUDGET
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

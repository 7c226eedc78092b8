"""Golden CLI output: stdout and exit code of a fixed command set, trace
``DIGEST`` lines included, byte for byte.

The commands cover every corpus scenario, seeded runs of the corpus
programs, one detect, the non-infection probes and the enforcement checks.
A change that should keep the output (a refactor, a speed-up) must pass
this test unchanged; a change that means to move the output regenerates
the file with ``python tests/test_golden_cli.py`` and says why.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from jcham.cli import corpus_path, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

_SCENARIOS = [
    "companion_preempt.scn", "companion_rename.scn", "diverge.scn", "null.scn", "rootkit.scn",
    "token_counted.scn", "token_distributed.scn", "token_spatial.scn", "toy_petri.scn",
    "virus_append.scn", "virus_class1.scn", "virus_class2.scn", "virus_class3.scn",
    "virus_class4.scn", "virus_dynamic.scn", "worm_class1.scn", "worm_class2.scn",
    "worm_class3.scn", "worm_class4.scn",
]

# argv with corpus file names in place of paths; ``_resolve`` fills them in
COMMANDS = (
    [["scenario", name, "--json"] for name in _SCENARIOS]
    + [["run", prog, "--seed", "7", "--max-steps", "200", "--dump"]
       for prog in ("red_basic.jc", "inert.jc", "pingpong.jc", "toy_replicator.jc")]
    + [["detect", "--context", "refined(n=2)", "--process", "diverge.jc", "--max-states", "800", "--json"]]
    + [["policy", "noninfect", "--context", ctx, "--process", probe, "--tests", "probe_read.jc", *depth]
       for ctx, depth in (("refined(n=2)", ()), ("refined(n=3)", ("--depth", "8")), ("refined(n=4)", ("--depth", "8")))
       for probe in ("probe_write.jc", "probe_read.jc")]
    + [["policy", "enforce", "--context", spec]
       for spec in ("tokenized(n=2; mode=spatial; guard=sw1,sw2)",
                    "tokenized(n=2; mode=counted; count=2; guard=sw1,sw2)")]
    + [["policy", "tokenize", "--context", "refined(n=2)", "--guard", "sw1,sw2", *opts]
       for opts in ((), ("--mode", "counted:2"), ("--distribute",))]
)


def _resolve(argv):
    return [corpus_path(a) if a.endswith(".jc") else a for a in argv]


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(_resolve(argv))
        except SystemExit as e:
            code = e.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def _golden():
    with open(GOLDEN) as fh:
        return {tuple(r["argv"]): r for r in json.load(fh)}


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(tuple(a) for a in COMMANDS)
    assert sum(r["stdout"].count(" DIGEST ") for r in _golden().values()) > 0


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a) for a in COMMANDS])
def test_cli_output_is_byte_identical_to_the_golden_file(argv):
    assert _run(argv) == _golden()[tuple(argv)]


if __name__ == "__main__":
    records = [_run(argv) for argv in COMMANDS]
    with open(GOLDEN, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)

"""The three workloads: their fixed inputs, one pass over them, and the
checks of their outputs.

Each workload is built by ``build(name, seed, workdir)`` and offers:

* ``ops``: the operations of one pass, as (label, callable) pairs; the
  callable returns what the operation produced;
* ``signature(output)``: what two passes must agree on byte for byte;
* ``largest``: the label of the workload's single biggest input;
* ``check(outputs)``: the list of failed checks on one pass's outputs,
  where ``outputs`` maps each label to its result;
* ``soup_starts()``: configurations from which the canonical-form
  invariance check draws its sample;
* ``notes``: counts of what the checks covered, printed to stderr.

CLI operations go through ``jcham.cli.main`` in this process, with the
standard streams captured; their result is (exit code, stdout, stderr).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from typing import Callable, Dict, List, Tuple

import jcham.cli as cli
from jcham.contexts import refined_context
import jcham.detector as detector
from jcham.engine import inject, replay
from jcham.malware import MalwareSpec, ReplicationMech, TargetRoutine, build_virus
from jcham.parser import parse
from jcham.scenarios import build_context, build_process, load_scenario
from jcham.syntax import Name

from oracles import TRACE_LINE, Net, enumerate_covers, karp_miller_covers, refire_covers, split_messages

Op = Tuple[str, Callable[[], object]]

# exit codes documented in the project README
EXIT_OF_OUTCOME = {"not_vulnerable": 0, "vulnerable": 1, "budget_exhausted": 2, "observed": 1, "not_observed": 0}


def run_cli(argv: List[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # looked up on each call, so the traced run sees the wrapped entry point
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_op(label: str, argv: List[str]) -> Op:
    return label, lambda: run_cli(argv)


class Workload:
    largest = ""

    def __init__(self):
        self.ops: List[Op] = []
        self.notes: Dict[str, int] = {}

    def signature(self, output):
        """What two passes must agree on, byte for byte."""
        return output

    def check(self, outputs: Dict[str, object]) -> List[str]:
        raise NotImplementedError

    def soup_starts(self) -> list:
        raise NotImplementedError


def _cli_errors(label: str, result, want_rc: int) -> List[str]:
    rc, _, err = result
    errors = []
    if rc != want_rc:
        errors.append(f"{label}: exit code {rc}, expected {want_rc}")
    if err:
        errors.append(f"{label}: unexpected stderr {err.strip()[:200]!r}")
    return errors


def _trace_steps(label: str, text: str, errors: List[str]) -> List[Tuple[List[str], List[str]]]:
    """Parse ``STEP`` lines into (consumed, emitted) lists, checking the
    format and the step numbering."""
    steps = []
    for n, line in enumerate(text.splitlines()):
        m = TRACE_LINE.match(line)
        if m is None or int(m.group(1)) != n:
            errors.append(f"{label}: malformed trace line {n}: {line[:120]!r}")
            continue
        steps.append((split_messages(m.group(3)), split_messages(m.group(4))))
    return steps


# ---------------------------------------------------------------------------
# corpus: everything the CLI ships


class Corpus(Workload):
    largest = "detect diverge.jc"
    RUN_SEED = "7"
    RUN_STEPS = "200"

    def __init__(self, seed: int):
        super().__init__()
        self.dir = cli.corpus_path("")
        self.scenarios = sorted(f for f in os.listdir(self.dir) if f.endswith(".scn"))
        self.expected: Dict[str, str] = {}
        for name in self.scenarios:
            with open(self.path(name)) as fh:
                text = "\n".join(line.split("#", 1)[0] for line in fh)
            self.expected[name] = re.search(r"\bexpect=(\S+)", text).group(1)
        ops = [_cli_op(f"scenario {s}", ["scenario", s, "--json"]) for s in self.scenarios]
        for prog in ("red_basic.jc", "inert.jc", "pingpong.jc", "toy_replicator.jc"):
            argv = ["run", self.path(prog), "--seed", self.RUN_SEED, "--max-steps", self.RUN_STEPS]
            ops.append(_cli_op(f"run {prog}", argv))
        ops.append(
            _cli_op(
                self.largest,
                ["detect", "--context", "refined(n=2)", "--process", self.path("diverge.jc"),
                 "--max-states", "800", "--json"],
            )
        )
        for probe in ("probe_write.jc", "probe_read.jc"):
            argv = ["policy", "noninfect", "--context", "refined(n=2)", "--process", self.path(probe),
                    "--tests", self.path("probe_read.jc")]
            ops.append(_cli_op(f"noninfect {probe}", argv))
        ops.append(_cli_op("isolate refined(n=2)", ["policy", "isolate", "--context", "refined(n=2)"]))
        for mode in ("mode=spatial", "mode=counted; count=2"):
            spec = f"tokenized(n=2; {mode}; guard=sw1,sw2)"
            ops.append(_cli_op(f"enforce {spec}", ["policy", "enforce", "--context", spec]))
        random.Random(seed).shuffle(ops)
        self.ops = ops

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def check(self, outputs) -> List[str]:
        errors: List[str] = []
        for name in self.scenarios:
            label = f"scenario {name}"
            rc, out, _ = outputs[label]
            record = json.loads(out)
            want = self.expected[name]
            if record["outcome"] != want:
                errors.append(f"{label}: outcome {record['outcome']}, expected {want}")
            errors += _cli_errors(label, outputs[label], EXIT_OF_OUTCOME[want])

        runs = {}
        for prog in ("red_basic.jc", "inert.jc", "pingpong.jc", "toy_replicator.jc"):
            label = f"run {prog}"
            errors += _cli_errors(label, outputs[label], 0)
            runs[prog] = _trace_steps(label, outputs[label][1], errors)
        if [emitted for _, emitted in runs["red_basic.jc"]] != [["out<7>"]]:
            errors.append(f"run red_basic.jc: expected one step emitting out<7>, got {runs['red_basic.jc']}")
        if runs["inert.jc"]:
            errors.append("run inert.jc: an inert program took a step")
        for prog in ("pingpong.jc", "toy_replicator.jc"):
            if len(runs[prog]) != int(self.RUN_STEPS):
                errors.append(f"run {prog}: {len(runs[prog])} steps, expected the budget {self.RUN_STEPS}")
        if any((len(c), len(e)) != (1, 1) for c, e in runs["pingpong.jc"]):
            errors.append("run pingpong.jc: a step did not consume one message and emit one")
        if any("sw1<p>" not in e for _, e in runs["toy_replicator.jc"]):
            errors.append("run toy_replicator.jc: a step did not emit sw1<p>")

        label = self.largest
        errors += _cli_errors(label, outputs[label], 2)
        if json.loads(outputs[label][1])["outcome"] != "budget_exhausted":
            errors.append(f"{label}: a diverging program was not reported budget_exhausted")

        for label, rc, line in (
            ("noninfect probe_write.jc", 1, "outcome: violated(depth=6)"),
            ("noninfect probe_read.jc", 0, "outcome: satisfied_to_depth(depth=6)"),
            ("isolate refined(n=2)", 1, "isolation_holds: False"),
            ("enforce tokenized(n=2; mode=spatial; guard=sw1,sw2)", 0, "enforcement_sound: True"),
            ("enforce tokenized(n=2; mode=counted; count=2; guard=sw1,sw2)", 0, "enforcement_sound: True"),
        ):
            errors += _cli_errors(label, outputs[label], rc)
            if line not in outputs[label][1].splitlines():
                errors.append(f"{label}: no line {line!r} in the output")
        return errors

    def soup_starts(self) -> list:
        starts = []
        for name in self.scenarios:
            sc = load_scenario(self.path(name))
            proc, _ = build_process(sc)
            starts.append(inject(build_context(sc.context_spec).plug(proc)))
        for prog in ("red_basic.jc", "pingpong.jc", "toy_replicator.jc"):
            with open(self.path(prog)) as fh:
                starts.append(inject(parse(fh.read())))
        return starts


# ---------------------------------------------------------------------------
# viral_scaling: iterated replication over n interchangeable resources


class ViralScaling(Workload):
    SIZES = (2, 3, 4, 5, 6)
    largest = f"viral n={SIZES[-1]}"

    def __init__(self, seed: int):
        super().__init__()
        self.cases = {}
        for n in self.SIZES:
            ctx = refined_context(n)
            virus = build_virus(
                MalwareSpec(
                    family="virus",
                    klass="III",
                    mech=ReplicationMech("overwrite"),
                    targets=TargetRoutine("hardcoded", tuple(Name(f"sw{i}") for i in range(1, n + 1))),
                )
            )
            self.cases[n] = (ctx, virus)
            self.ops.append((f"viral n={n}", self._op(ctx, virus, n)))
        random.Random(seed).shuffle(self.ops)

    @staticmethod
    def _op(ctx, virus, n):
        # looked up on each call, so the traced run sees the wrapped function
        return lambda: detector.viral_set_member(ctx, virus, iterations=n)

    def check(self, outputs) -> List[str]:
        errors = []
        for n in self.SIZES:
            label = f"viral n={n}"
            v = outputs[label]
            if v.outcome != "vulnerable":
                errors.append(f"{label}: outcome {v.outcome}, expected vulnerable")
                continue
            want = [f"iteration {i} replicated" for i in range(1, n + 1)]
            if [note for note in v.notes if note.startswith("iteration")] != want:
                errors.append(f"{label}: notes {v.notes} do not list iterations 1..{n} as replicated")
            try:
                replay(v.witness)
            except Exception as e:  # any failure to replay is a wrong witness
                errors.append(f"{label}: witness does not replay: {e}")
        return errors

    def soup_starts(self) -> list:
        return [inject(ctx.plug(virus)) for ctx, virus in self.cases.values()]

    def signature(self, v) -> str:
        witness = v.witness.format() if v.witness is not None else ""
        return f"{v.outcome}|{v.notes}|{v.stats}|{witness}"


# ---------------------------------------------------------------------------
# petri: random nets and random no-name-generation programs
#
# The families are drawn once from fixed generator seeds, so every run does
# the same work; ``--seed`` draws an isomorphic copy of each input (place
# numbering and labels of the nets, channel and atom names of the programs,
# the order of the pass).  Transition and rule order stay as drawn: the
# backward search visits transitions in file order, and that order decides
# which markings it meets first and how many it drops later.

NET_CLASSES = ((10, 12, 3), (12, 14, 3), (10, 14, 3))  # places, transitions, target tokens
NETS_PER_CLASS = 8
BIG_NET = (12, 14, 3, 18)  # places, transitions, target tokens, generator seed
PROGRAM_SEEDS = range(20)
PROGRAM_SHAPE = (5, 2, 6, 2)  # channels, extra atoms, rules, largest arity


def draw_net(rng: random.Random, places: int, transitions: int, target_tokens: int) -> Net:
    ts = []
    for _ in range(transitions):
        pre: Dict[int, int] = {}
        post: Dict[int, int] = {}
        for _ in range(rng.choice((1, 2))):
            p = rng.randrange(places)
            pre[p] = pre.get(p, 0) + 1
        for _ in range(rng.choice((1, 2, 2, 3))):
            p = rng.randrange(places)
            post[p] = post.get(p, 0) + 1
        ts.append((pre, post))
    init = {p: 1 for p in range(places) if rng.random() < 0.4}
    target: Dict[int, int] = {}
    for _ in range(target_tokens):
        p = rng.randrange(places)
        target[p] = target.get(p, 0) + 1
    return Net(places, ts, init, target)


def relabel_net(net: Net, rng: random.Random) -> Net:
    perm = list(range(net.places))
    rng.shuffle(perm)

    def moved(v):
        return {perm[p]: c for p, c in enumerate(v) if c}

    labels = [f"q{rng.randrange(10**6)}_{i}" for i in range(net.places)]
    return Net(net.places, [(moved(a), moved(b)) for a, b in net.transitions], moved(net.init), moved(net.target), labels)


def draw_program(rng: random.Random, n_chans: int, n_atoms: int, n_rules: int, max_arity: int) -> str:
    """A program of the no-name-generation fragment over channels c0.. and
    atoms p, a0..; ``p`` stands for the program's abstraction, ``r1`` is
    the context's resource and ``out`` is free."""
    chans = [f"c{i}" for i in range(n_chans)]
    atoms = ["p"] + [f"a{i}" for i in range(n_atoms)]
    arity = {c: rng.randint(0, max_arity) for c in chans}
    rules = []
    for r in range(n_rules):
        c = chans[r % n_chans]
        heads = [c]
        if rng.random() < 0.4:
            heads.append(rng.choice([b for b in chans if b != c]))
        pats, binders = [], []
        for h in heads:
            bs = [f"x{len(binders) + j}" for j in range(arity[h])]
            binders += bs
            pats.append(f"{h}<{', '.join(bs)}>")
        emissions = []
        for _ in range(rng.randint(1, 3)):
            tgt = rng.choice(chans + ["r1", "out"])
            vals = [rng.choice(binders + atoms) for _ in range(arity.get(tgt, 1))]
            emissions.append(f"{tgt}<{', '.join(vals)}>")
        body = " | ".join(emissions)
        if binders and rng.random() < 0.3:
            body = f"if [{binders[0]} = {rng.choice(atoms)}] then ({body}) else 0"
        rules.append(" | ".join(pats) + " |> " + body)
    msgs = []
    for _ in range(rng.randint(2, 4)):
        c = rng.choice(chans)
        msgs.append(f"{c}<{', '.join(rng.choice(atoms) for _ in range(arity[c]))}>")
    return "def " + " and ".join(rules) + " in " + " | ".join(msgs)


def relabel_program(text: str, rng: random.Random) -> str:
    """Rename channels freely and the atoms a0.. in an order-preserving way
    (grounding enumerates atoms in name order)."""
    chans = sorted(set(re.findall(r"\bc\d+\b", text)))
    atoms = sorted(set(re.findall(r"\ba\d+\b", text)), key=lambda a: int(a[1:]))
    new_chans = rng.sample([f"k{i}" for i in range(100)], len(chans))
    new_atoms = sorted(rng.sample([f"a{i:02d}" for i in range(100)], len(atoms)))
    mapping = dict(zip(chans, new_chans)) | dict(zip(atoms, new_atoms))
    return re.sub(r"\b[ca]\d+\b", lambda m: mapping[m.group(0)], text)


class Petri(Workload):
    largest = "cover big"
    EXPLORE_STATES = 1000
    ENUMERATION_CAP = 2000
    KARP_MILLER_CAP = 200_000
    CONTEXT = "bare(resources=r1)"

    def __init__(self, seed: int, workdir: str):
        super().__init__()
        rng = random.Random(seed)
        self.nets: Dict[str, Net] = {}
        for places, transitions, tokens in NET_CLASSES:
            gen = random.Random(f"net-{places}-{transitions}-{tokens}")
            for k in range(NETS_PER_CLASS):
                self.nets[f"cover {places}x{transitions}t{tokens}#{k}"] = draw_net(gen, places, transitions, tokens)
        *shape, big_seed = BIG_NET
        self.nets[self.largest] = draw_net(random.Random(big_seed), *shape)
        for i, (label, net) in enumerate(self.nets.items()):
            net = self.nets[label] = relabel_net(net, rng)
            path = os.path.join(workdir, f"net{i}.txt")
            with open(path, "w") as fh:
                fh.write(net.text())
            self.ops.append(_cli_op(label, ["petri", "cover", "--net", path, "--json"]))

        self.programs: Dict[str, str] = {}
        for s in PROGRAM_SEEDS:
            label = f"detect program#{s}"
            text = relabel_program(draw_program(random.Random(s), *PROGRAM_SHAPE), rng)
            self.programs[label] = text
            path = os.path.join(workdir, f"program{s}.jc")
            with open(path, "w") as fh:
                fh.write(text + "\n")
            argv = ["detect", "--context", self.CONTEXT, "--process", path, "--mode", "petri",
                    "--self-channel", "p", "--json"]
            self.ops.append(_cli_op(label, argv))
        rng.shuffle(self.ops)

    def check(self, outputs) -> List[str]:
        errors: List[str] = []
        notes = dict.fromkeys(
            ("coverable_refired", "uncoverable_by_enumeration", "uncoverable_by_karp_miller",
             "programs_agree_with_explore", "programs_explore_undecided"),
            0,
        )
        for label, net in self.nets.items():
            rc, out, _ = outputs[label]
            record = json.loads(out)
            errors += _cli_errors(label, outputs[label], 1 if record["coverable"] else 0)
            if record["coverable"]:
                if refire_covers(net, record["witness"]):
                    notes["coverable_refired"] += 1
                else:
                    errors.append(f"{label}: witness {record['witness']} does not cover the target")
                continue
            verdict = enumerate_covers(net, self.ENUMERATION_CAP)
            key = "uncoverable_by_enumeration"
            if verdict is None:
                verdict = karp_miller_covers(net, self.KARP_MILLER_CAP)
                key = "uncoverable_by_karp_miller"
            if verdict is False:
                notes[key] += 1
            else:
                errors.append(f"{label}: reported uncoverable, forward check says {verdict}")

        ctx = build_context(self.CONTEXT)
        for label, text in self.programs.items():
            rc, out, _ = outputs[label]
            outcome = json.loads(out)["outcome"]
            errors += _cli_errors(label, outputs[label], EXIT_OF_OUTCOME[outcome])
            ex = detector.explore(ctx, parse(text), max_states=self.EXPLORE_STATES, max_steps_per_branch=200,
                         self_channel=Name("p"))
            if ex.outcome == "budget_exhausted":
                notes["programs_explore_undecided"] += 1
            elif ex.outcome == outcome:
                notes["programs_agree_with_explore"] += 1
            else:
                errors.append(f"{label}: coverability says {outcome}, explore says {ex.outcome}")
        self.notes = notes
        return errors

    def soup_starts(self) -> list:
        ctx = build_context(self.CONTEXT)
        return [inject(ctx.plug(parse(text))) for text in self.programs.values()]


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "corpus":
        return Corpus(seed)
    if name == "viral_scaling":
        return ViralScaling(seed)
    if name == "petri":
        return Petri(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("corpus", "viral_scaling", "petri")

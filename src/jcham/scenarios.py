"""Scenario files: one-line descriptions of an analysis to run.

Format: whitespace-separated ``key=value`` tokens, ``#`` comments.  Example::

    context=refined(n=2) family=virus class=III mech=overwrite
    targets=sw1,sw2 mode=explore expect=vulnerable

Keys:
  context   refined(n=N) | worm() | filesystem(files=n1=f1,n2=f2; complements=a,b)
            | rootkit(syscalls=s1,s2) | tokenized(n=N; mode=spatial|counted;
              count=K; guard=sw1,sw2; distribute=yes|no)
  family/class/mech/targets/payload    malware description
  process   null | rootkit            (instead of a malware description)
  process_file  path to a ``.jc`` file (relative to the scenario)
  self      base name of the abstraction channel, when it cannot be inferred
  mode      explore | petri | viral_set | barb
  expect    vulnerable | not_vulnerable | budget_exhausted | observed | not_observed
  max_states, iterations, depth, channel, value, barb_depth    analysis knobs

Targets are comma-separated atoms; ``a:b`` builds the pair ``a ++ b``
(used for write:read targets and for name:extension file names).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from .contexts import Context, TokenGuard, refined_context, rootkit_kernel, worm_topology
from .detector import DetectionVerdict, detect_via_coverability, explore, viral_set_member
from .engine import BudgetExhausted, barb, inject
from .filesystem import file_system
from .malware import (
    MalwareSpec,
    ReplicationMech,
    TargetRoutine,
    build_rootkit,
    build_virus,
    build_worm,
    loadable_driver,
    token_aware_overwrite,
)
from .parser import parse
from .policy import add_token_distributor, tokenize_context
from .syntax import Atom, Name, Null, Pair, Process


class ScenarioError(Exception):
    pass


VERDICTS = ("vulnerable", "not_vulnerable", "budget_exhausted", "observed", "not_observed")

# the least value of each search budget, by scenario knob (the CLI's flags
# are the same names with dashes): step, state and depth budgets may be 0,
# and iterated replication needs at least two generations
BUDGET_FLOORS = {"max_steps": 0, "max_states": 0, "max_depth": 0, "depth": 0, "barb_depth": 0, "iterations": 2}


def check_budget(name: str, value: int) -> int:
    """``value`` when it meets the floor of budget ``name`` (a scenario knob
    or its CLI flag), otherwise a :class:`ScenarioError` naming it."""
    floor = BUDGET_FLOORS[name.lstrip("-").replace("-", "_")]
    if value < floor:
        bound = "0 or more" if floor == 0 else f"at least {floor}"
        raise ScenarioError(f"{name} must be {bound}, got {value}")
    return value


@dataclass
class Scenario:
    context_spec: str
    malware: Dict[str, str] = field(default_factory=dict)
    mode: str = "explore"
    expect: Optional[str] = None
    knobs: Dict[str, str] = field(default_factory=dict)
    base_dir: str = "."

    @staticmethod
    def parse(text: str, base_dir: str = ".") -> "Scenario":
        tokens: list[str] = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            # context specs may contain spaces inside parentheses
            for raw in line.split():
                if tokens and tokens[-1].count("(") > tokens[-1].count(")"):
                    tokens[-1] += raw
                else:
                    tokens.append(raw)
        kv: Dict[str, str] = {}
        for tok in tokens:
            if "=" not in tok:
                raise ScenarioError(f"malformed token {tok!r}")
            k, v = tok.split("=", 1)
            kv[k] = v
        if "context" not in kv:
            raise ScenarioError("scenario needs a context")
        mode = kv.pop("mode", "explore")
        expect = kv.pop("expect", None)
        if expect is not None and expect not in VERDICTS:
            raise ScenarioError(f"unknown expectation {expect!r}")
        ctx = kv.pop("context")
        malware_keys = ("family", "class", "mech", "targets", "routine", "payload", "process", "process_file", "self")
        malware = {k: kv.pop(k) for k in list(kv) if k in malware_keys}
        return Scenario(ctx, malware, mode, expect, kv, base_dir)


def _parse_atom(text: str) -> Atom:
    if ":" in text:
        left, right = text.split(":", 1)
        return Pair(_parse_atom(left), _parse_atom(right))
    if text.isdecimal():
        return int(text)
    return Name(text)


def _parse_params(spec: str) -> tuple[str, Dict[str, str]]:
    if "(" not in spec:
        return spec, {}
    kind, rest = spec.split("(", 1)
    if not rest.endswith(")"):
        raise ScenarioError(f"unbalanced context spec {spec!r}")
    params: Dict[str, str] = {}
    body = rest[:-1].strip()
    if body:
        for item in body.split(";"):
            if "=" not in item:
                raise ScenarioError(f"malformed context parameter {item!r}")
            k, v = item.split("=", 1)
            params[k.strip()] = v.strip()
    return kind, params


def _int_param(params: Dict[str, str], key: str, default: str) -> int:
    text = params.get(key, default)
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"context parameter {key}={text!r} is not an integer") from None


def build_context(spec: str) -> Context:
    kind, params = _parse_params(spec)
    if kind == "refined":
        return refined_context(_int_param(params, "n", "2"))
    if kind == "bare":
        # schematic context: a hole with declared channel sets only
        from .syntax import Hole

        return Context(
            template=Hole(),
            services=frozenset(s for s in params.get("services", "").split(",") if s),
            resources=frozenset(r for r in params.get("resources", "").split(",") if r),
        )
    if kind == "worm":
        return worm_topology()
    if kind == "filesystem":
        entries = []
        for item in params.get("files", "").split(","):
            if not item:
                continue
            if "=" not in item:
                raise ScenarioError(f"file entry {item!r} is not name=content")
            name, content = item.split("=", 1)
            entries.append((_parse_atom(name), _parse_atom(content)))
        comps = None
        if "complements" in params:
            comps = [_parse_atom(c) for c in params["complements"].split(",") if c]
        return file_system(entries, complements=comps)
    if kind == "rootkit":
        scs = [_parse_atom(s) for s in params.get("syscalls", "sc_open").split(",") if s]
        return rootkit_kernel(syscalls=scs, scbase=Name("scbase"))
    if kind == "tokenized":
        n = _int_param(params, "n", "2")
        ctx = refined_context(n)
        mode = params.get("mode", "spatial")
        count = _int_param(params, "count", "0")
        guarded = tuple(g for g in params.get("guard", "").split(",") if g)
        if not guarded:
            guarded = tuple(f"sw{i}" for i in range(1, n + 1))
        try:
            guard = TokenGuard(mode, count, guarded)
        except ValueError as e:
            raise ScenarioError(str(e)) from None
        ctx = tokenize_context(ctx, guard)
        if params.get("distribute", "no") == "yes":
            ctx = add_token_distributor(ctx)
        return ctx
    raise ScenarioError(f"unknown context kind {kind!r}")


def build_process(sc: Scenario) -> tuple[Process, Optional[Name]]:
    m = sc.malware
    self_ch = Name(m["self"]) if "self" in m else None
    if "process_file" in m:
        path = os.path.join(sc.base_dir, m["process_file"])
        with open(path) as fh:
            return parse(fh.read()), self_ch
    if m.get("process") == "null":
        return Null(), self_ch
    if m.get("process") == "rootkit":
        rkit = build_rootkit(
            commands=[(Name("c_hide"), parse("hidden<arg>"))],
            fake_syscalls=[
                (Name("fsc_open"), parse("fake_open<arg>")),
                (Name("fsc_read"), parse("fake_read<arg>")),
            ],
        )
        return loadable_driver(rkit), self_ch
    if "family" not in m:
        raise ScenarioError("scenario describes no process")

    mech_spec = m.get("mech", "overwrite")
    if ":" in mech_spec:
        mech_kind, mech_arg = mech_spec.split(":", 1)
    else:
        mech_kind, mech_arg = mech_spec, None
    if mech_kind == "token_overwrite":
        mech = token_aware_overwrite()
    elif mech_kind == "companion_rename":
        mech = ReplicationMech("companion_rename", companion_name=_parse_atom(mech_arg or "n_copy"))
    elif mech_kind == "companion_preempt":
        mech = ReplicationMech("companion_preempt", companion_ext=_parse_atom(mech_arg or "ext_v"))
    else:
        mech = ReplicationMech(mech_kind)

    targets = tuple(_parse_atom(t) for t in m.get("targets", "sw1").split(",") if t)
    routine_kind = m.get("routine", "hardcoded")
    routine = TargetRoutine(routine_kind, targets) if routine_kind == "hardcoded" else TargetRoutine(routine_kind)
    payload = Null() if m.get("payload", "null") == "null" else parse(m["payload"])
    spec = MalwareSpec(family=m["family"], klass=m["class"], mech=mech, targets=routine, payload=payload)
    proc = build_virus(spec) if m["family"] == "virus" else build_worm(spec)
    return proc, self_ch


@dataclass
class ScenarioResult:
    outcome: str
    detail: Optional[DetectionVerdict]
    expected: Optional[str]

    @property
    def expectation_met(self) -> bool:
        return self.expected is None or self.outcome == self.expected


def _budget(sc: Scenario, key: str, default: str) -> int:
    return check_budget(key, int(sc.knobs.get(key, default)))


def run_scenario(sc: Scenario) -> ScenarioResult:
    ctx = build_context(sc.context_spec)
    proc, self_ch = build_process(sc)
    max_states = _budget(sc, "max_states", "10000")
    depth = _budget(sc, "depth", "400")
    if sc.mode == "explore":
        v = explore(ctx, proc, max_states=max_states, max_steps_per_branch=depth, self_channel=self_ch)
        return ScenarioResult(v.outcome, v, sc.expect)
    if sc.mode == "petri":
        v = detect_via_coverability(ctx, proc, self_channel=self_ch)
        return ScenarioResult(v.outcome, v, sc.expect)
    if sc.mode == "viral_set":
        iters = _budget(sc, "iterations", "2")
        v = viral_set_member(
            ctx, proc, iterations=iters, max_states=max_states, max_steps_per_branch=depth, self_channel=self_ch
        )
        return ScenarioResult(v.outcome, v, sc.expect)
    if sc.mode == "barb":
        channel = Name(sc.knobs.get("channel", "table"))
        value = _parse_atom(sc.knobs["value"]) if "value" in sc.knobs else None
        try:
            seen = barb(inject(ctx.plug(proc)), channel, value, depth=_budget(sc, "barb_depth", "30"))
        except BudgetExhausted:
            return ScenarioResult("budget_exhausted", None, sc.expect)
        return ScenarioResult("observed" if seen else "not_observed", None, sc.expect)
    raise ScenarioError(f"unknown mode {sc.mode!r}")


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        return Scenario.parse(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))

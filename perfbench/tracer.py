"""Per-module counters and timers, taken by wrapping jcham's public
functions from outside.

``Tracer.install()`` replaces each listed function, in every loaded
``jcham`` module that holds it by name, with a wrapper that records calls,
time and self time (its duration minus that of the wrapped calls it made);
``uninstall()`` puts the originals back.  A group's time counts only its
outermost calls, so a wrapped function that reaches another of its own
group is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _verdict_stats(acc, v) -> None:
    acc["detector.states"] += v.stats.states_explored
    acc["detector.dedup_hits"] += v.stats.dedup_hits


def _petri_size(acc, result) -> None:
    net = result[0]
    acc["detector.places"] += len(net.place_labels)
    acc["detector.transitions"] += len(net.transitions)


def _coverable(acc, result) -> None:
    ok, witness = result
    acc["petri.coverable_true"] += bool(ok)
    acc["petri.witness_steps"] += len(witness) if witness is not None else 0


def _redexes(acc, result) -> None:
    acc["engine.redexes_found"] += len(result)


def _instances(acc, gs) -> None:
    acc["detector.ground_instances"] += len(gs.rules)


# (group, module, function, what to read off the result)
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("canon", "jcham.canon", "canonicalize", None),
    ("engine.match", "jcham.engine", "enabled_redexes", _redexes),
    ("engine.reduce", "jcham.engine", "reduce_with_info", None),
    ("engine.inject", "jcham.engine", "inject", None),
    ("engine.inject", "jcham.engine", "inject_message", None),
    ("engine.inject", "jcham.engine", "graft", None),
    ("engine.run", "jcham.engine", "run", None),
    ("syntax.substitute", "jcham.syntax", "substitute", None),
    ("detector.search", "jcham.detector", "explore", _verdict_stats),
    ("detector.search", "jcham.detector", "viral_set_member", _verdict_stats),
    ("detector.search", "jcham.detector", "detect_via_coverability", None),
    ("detector.ground", "jcham.detector", "ground", _instances),
    ("detector.to_petri", "jcham.detector", "to_petri", _petri_size),
    ("petri.coverable", "jcham.petri", "coverable", _coverable),
    ("parser.parse", "jcham.parser", "parse", None),
    ("parser.parse", "jcham.parser", "parse_definition", None),
    ("desugar.desugar", "jcham.desugar", "desugar", None),
    ("contexts.build", "jcham.contexts", "refined_context", None),
    ("contexts.build", "jcham.contexts", "worm_topology", None),
    ("contexts.build", "jcham.contexts", "rootkit_kernel", None),
    ("contexts.build", "jcham.contexts", "base_context", None),
    ("contexts.build", "jcham.contexts", "load_context", None),
    ("contexts.build", "jcham.filesystem", "file_system", None),
    ("contexts.plug", "jcham.contexts", "plug", None),
    ("malware.build", "jcham.malware", "build_virus", None),
    ("malware.build", "jcham.malware", "build_worm", None),
    ("malware.build", "jcham.malware", "build_rootkit", None),
    ("malware.build", "jcham.malware", "loadable_driver", None),
    ("malware.build", "jcham.malware", "token_aware_overwrite", None),
    ("scenarios.build", "jcham.scenarios", "load_scenario", None),
    ("scenarios.build", "jcham.scenarios", "build_context", None),
    ("scenarios.build", "jcham.scenarios", "build_process", None),
    ("cli", "jcham.cli", "main", None),
    ("policy.noninfect", "jcham.policy", "non_infection_test", None),
    ("policy.enforce", "jcham.policy", "enforcement_sound", None),
    ("policy.tokenize", "jcham.policy", "tokenize_context", None),
    ("policy.tokenize", "jcham.policy", "add_token_distributor", None),
    ("policy.classify", "jcham.policy", "classify_context", None),
]

# per-layer metric -> (unit, how it is read from the accumulated values)
METRICS: Dict[str, Tuple[str, Callable[[Dict[str, float]], float]]] = {
    "canon.canonicalize_s": ("s", lambda a: a["canon.time"]),
    "canon.calls": ("count", lambda a: a["canon.calls"]),
    "canon.us_per_call": ("us", lambda a: 1e6 * a["canon.time"] / a["canon.calls"] if a["canon.calls"] else 0.0),
    "engine.match_s": ("s", lambda a: a["engine.match.time"]),
    "engine.match_calls": ("count", lambda a: a["engine.match.calls"]),
    "engine.redexes_found": ("count", lambda a: a["engine.redexes_found"]),
    "engine.reduce_s": ("s", lambda a: a["engine.reduce.time"]),
    "engine.reduce_calls": ("count", lambda a: a["engine.reduce.calls"]),
    "engine.inject_s": ("s", lambda a: a["engine.inject.time"]),
    "engine.run_self_s": ("s", lambda a: a["engine.run.self"]),
    "syntax.substitute_s": ("s", lambda a: a["syntax.substitute.time"]),
    "syntax.substitute_calls": ("count", lambda a: a["syntax.substitute.calls"]),
    "detector.search_self_s": ("s", lambda a: a["detector.search.self"]),
    "detector.states": ("count", lambda a: a["detector.states"]),
    "detector.dedup_hits": ("count", lambda a: a["detector.dedup_hits"]),
    "detector.new_state_share": (
        "ratio", lambda a: a["detector.states"] / a["canon.calls"] if a["canon.calls"] else 0.0),
    "detector.ground_s": ("s", lambda a: a["detector.ground.time"]),
    "detector.ground_instances": ("count", lambda a: a["detector.ground_instances"]),
    "detector.to_petri_s": ("s", lambda a: a["detector.to_petri.time"]),
    "detector.places": ("count", lambda a: a["detector.places"]),
    "detector.transitions": ("count", lambda a: a["detector.transitions"]),
    "petri.coverable_s": ("s", lambda a: a["petri.coverable.time"]),
    "petri.coverable_calls": ("count", lambda a: a["petri.coverable.calls"]),
    "petri.coverable_true_share": (
        "ratio",
        lambda a: a["petri.coverable_true"] / a["petri.coverable.calls"] if a["petri.coverable.calls"] else 0.0,
    ),
    "petri.witness_steps": ("count", lambda a: a["petri.witness_steps"]),
    "parser.parse_s": ("s", lambda a: a["parser.parse.time"]),
    "desugar.desugar_s": ("s", lambda a: a["desugar.desugar.time"]),
    "contexts.build_s": ("s", lambda a: a["contexts.build.time"]),
    "contexts.plug_s": ("s", lambda a: a["contexts.plug.time"]),
    "malware.build_s": ("s", lambda a: a["malware.build.time"]),
    "scenarios.build_s": ("s", lambda a: a["scenarios.build.time"]),
    "cli.self_s": ("s", lambda a: a["cli.self"]),
    "policy.noninfect_s": ("s", lambda a: a["policy.noninfect.time"]),
    "policy.enforce_s": ("s", lambda a: a["policy.enforce.time"]),
    "policy.tokenize_s": ("s", lambda a: a["policy.tokenize.time"]),
    "policy.classify_s": ("s", lambda a: a["policy.classify.time"]),
}


class Tracer:
    def __init__(self):
        self.acc: Dict[str, float] = defaultdict(float)
        self._child_time: List[float] = []  # one slot per active wrapped call
        self._depth: Dict[str, int] = defaultdict(int)
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.acc = defaultdict(float)

    def metrics(self) -> Dict[str, float]:
        return {name: float(read(self.acc)) for name, (_, read) in METRICS.items()}

    def _wrap(self, fn, group: str, on_result):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._child_time.append(0.0)
            tracer._depth[group] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = tracer._child_time.pop()
                tracer._depth[group] -= 1
                if tracer._child_time:
                    tracer._child_time[-1] += dt
                acc = tracer.acc
                acc[group + ".calls"] += 1
                acc[group + ".self"] += dt - children
                if tracer._depth[group] == 0:
                    acc[group + ".time"] += dt
            if on_result is not None:
                on_result(tracer.acc, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == "jcham" or name.startswith("jcham.")]
        for group, module, attr, on_result in TARGETS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(original, group, on_result)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._installed):
            setattr(mod, name, original)
        self._installed.clear()

"""Answers computed apart from jcham, used to check its verdicts.

Nothing here calls into jcham's decision procedures: Petri nets are fired,
enumerated and covered by a Karp-Miller tree written from scratch, trace
lines are parsed with a regular expression, and soups are renamed by a
generic walk over the frozen dataclasses that make up a configuration.
"""

from __future__ import annotations

import dataclasses
import math
import re
from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

OMEGA = math.inf


class Net:
    """A place/transition net held as plain tuples, with its init and target."""

    def __init__(self, places: int, transitions, init: Dict[int, int], target: Dict[int, int], labels=None):
        self.places = places
        # each transition: (pre, post), both tuples of length ``places``
        self.transitions: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = [
            (self.vector(pre), self.vector(post)) for pre, post in transitions
        ]
        self.init = self.vector(init)
        self.target = self.vector(target)
        self.labels = labels or [f"p{i}" for i in range(places)]

    def vector(self, d: Dict[int, int]) -> Tuple[int, ...]:
        v = [0] * self.places
        for p, c in d.items():
            v[p] += c
        return tuple(v)

    def text(self) -> str:
        """The net in jcham's exchange format (``petri cover --net``)."""

        def counts(v) -> str:
            return ",".join(f"{p}:{c}" for p, c in enumerate(v) if c) or "-"

        lines = [f"place {i} {label}" for i, label in enumerate(self.labels)]
        for i, (pre, post) in enumerate(self.transitions):
            lines.append(f"trans t{i} pre {counts(pre)} post {counts(post)}")
        lines.append(f"init {counts(self.init)}")
        lines.append(f"target {counts(self.target)}")
        return "\n".join(lines) + "\n"


def fire(m, t):
    pre, post = t
    if any(have < need for have, need in zip(m, pre)):
        return None
    return tuple(have - need + add for have, need, add in zip(m, pre, post))


def covers(m, target) -> bool:
    return all(have >= need for have, need in zip(m, target))


def refire_covers(net: Net, witness: List[int]) -> bool:
    """Fire the witness from ``init``; True when every step is enabled and
    the last marking covers the target."""
    m = net.init
    for ti in witness:
        if not 0 <= ti < len(net.transitions):
            return False
        m = fire(m, net.transitions[ti])
        if m is None:
            return False
    return covers(m, net.target)


def enumerate_covers(net: Net, cap: int) -> Optional[bool]:
    """Breadth-first reachable markings; None when more than ``cap`` exist."""
    seen = {net.init}
    queue = deque([net.init])
    while queue:
        m = queue.popleft()
        if covers(m, net.target):
            return True
        for t in net.transitions:
            nxt = fire(m, t)
            if nxt is None or nxt in seen:
                continue
            if len(seen) >= cap:
                return None
            seen.add(nxt)
            queue.append(nxt)
    return False


def karp_miller_covers(net: Net, cap: int) -> Optional[bool]:
    """Coverability by a Karp-Miller tree with subsumption: a successor that
    strictly dominates one of its ancestors gets omega wherever it grew,
    and a successor covered by a node already in the tree is dropped
    (whatever it reaches, that node reaches a cover of).  None when the
    tree passes ``cap`` nodes."""
    nodes = [net.init]
    stack: List[Tuple[tuple, tuple]] = [(net.init, (net.init,))]
    while stack:
        m, path = stack.pop()
        if covers(m, net.target):
            return True
        for t in net.transitions:
            nxt = fire(m, t)
            if nxt is None:
                continue
            grown = list(nxt)
            for a in path:
                if covers(nxt, a) and a != nxt:
                    for i, (x, y) in enumerate(zip(nxt, a)):
                        if x > y:
                            grown[i] = OMEGA
            nxt = tuple(grown)
            if any(covers(n, nxt) for n in nodes):
                continue
            if len(nodes) >= cap:
                return None
            nodes.append(nxt)
            stack.append((nxt, path + (nxt,)))
    return False


# ---------------------------------------------------------------------------
# trace lines

TRACE_LINE = re.compile(r"^STEP (\d+) RULE (\S+) CONSUME (.*) EMIT (.*) DIGEST ([0-9a-f]{16})$")


def split_messages(text: str) -> List[str]:
    """Split a CONSUME or EMIT list on the commas outside angle brackets
    and parentheses."""
    out: List[str] = []
    depth = 0
    cur = ""
    for ch in text:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if ch == "," and depth == 0:
            out.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# congruent copies of a soup


def _rename(obj, mapping):
    """Apply ``mapping`` to every machine-indexed name inside ``obj``."""
    if isinstance(obj, tuple):
        return tuple(_rename(x, mapping) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if type(obj).__name__ == "Name":
            return mapping.get(obj, obj)
        kwargs = {f.name: _rename(getattr(obj, f.name), mapping) for f in dataclasses.fields(obj) if f.init}
        return type(obj)(**kwargs)
    return obj


def _indexed_names(obj, out: set) -> None:
    if isinstance(obj, tuple):
        for x in obj:
            _indexed_names(x, out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        if type(obj).__name__ == "Name":
            if obj.index is not None:
                out.add(obj)
            return
        for f in dataclasses.fields(obj):
            if f.init:
                _indexed_names(getattr(obj, f.name), out)


def congruent_copy(soup, rng):
    """A copy of ``soup`` under a random base-preserving bijection of its
    indexed names (onto fresh indices) with its top-level rules and
    messages shuffled.  Rules are rebuilt, so no cached skeleton carries
    over."""
    names: set = set()
    for r in soup.rules:
        _indexed_names(r.heads, names)
        _indexed_names(r.body, names)
    for m in soup.messages:
        _indexed_names(m, names)
    ordered = sorted(names)
    offset = 1 + max((n.index for n in ordered), default=0)
    fresh = list(range(offset, offset + len(ordered)))
    rng.shuffle(fresh)
    mapping = {n: type(n)(n.base, i) for n, i in zip(ordered, fresh)}
    rules = [type(r)(_rename(r.heads, mapping), _rename(r.body, mapping)) for r in soup.rules]
    rng.shuffle(rules)
    items = [(_rename(m, mapping), k) for m, k in soup.messages.items()]
    rng.shuffle(items)
    messages = Counter()
    for m, k in items:
        messages[m] = k
    return type(soup)(tuple(rules), messages, [], max(soup.fresh_counter, offset + len(ordered)))

"""Place/transition nets with an exact coverability decision.

Coverability is decided backwards: starting from the upward closure of the
target marking, pre-images under all transitions are added until fixpoint,
keeping only the minimal elements (an antichain); well-quasi-ordering of
markings guarantees termination.  The pre-image of marking ``m`` under a
transition is ``max(m - post, 0) + pre``, component-wise.  A forward
breadth-first enumerator doubles as a testing oracle on bounded nets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .engine import BudgetExhausted


@dataclass(frozen=True)
class Marking:
    counts: Tuple[Tuple[int, int], ...]  # sorted (place, count), zero-free

    @staticmethod
    def of(d: Dict[int, int]) -> "Marking":
        return Marking(tuple(sorted((p, c) for p, c in d.items() if c > 0)))

    def as_dict(self) -> Dict[int, int]:
        return dict(self.counts)

    def get(self, place: int) -> int:
        for p, c in self.counts:
            if p == place:
                return c
        return 0

    def leq(self, other: "Marking") -> bool:
        o = other.as_dict()
        return all(o.get(p, 0) >= c for p, c in self.counts)

    def size(self) -> int:
        return sum(c for _, c in self.counts)

    def __str__(self) -> str:
        return ",".join(f"{p}:{c}" for p, c in self.counts) or "-"


@dataclass(frozen=True)
class Transition:
    pre: Tuple[Tuple[int, int], ...]
    post: Tuple[Tuple[int, int], ...]
    label: str = ""

    @staticmethod
    def of(pre: Dict[int, int], post: Dict[int, int], label: str = "") -> "Transition":
        return Transition(
            tuple(sorted((p, c) for p, c in pre.items() if c > 0)),
            tuple(sorted((p, c) for p, c in post.items() if c > 0)),
            label,
        )


@dataclass
class PetriNet:
    place_labels: List[str]
    transitions: List[Transition]

    def check(self) -> None:
        n = len(self.place_labels)
        for t in self.transitions:
            for p, _ in t.pre + t.post:
                if not 0 <= p < n:
                    raise ValueError(f"transition {t.label!r} uses unknown place {p}")


def fire(m: Marking, t: Transition) -> Optional[Marking]:
    d = m.as_dict()
    for p, c in t.pre:
        if d.get(p, 0) < c:
            return None
    for p, c in t.pre:
        d[p] = d[p] - c
    for p, c in t.post:
        d[p] = d.get(p, 0) + c
    return Marking.of(d)


def pre_image(m: Marking, t: Transition) -> Marking:
    """Smallest marking that can fire ``t`` and then dominate ``m``."""
    d = m.as_dict()
    for p, c in t.post:
        d[p] = max(d.get(p, 0) - c, 0)
    for p, c in t.pre:
        d[p] = d.get(p, 0) + c
    return Marking.of(d)


def _insert_minimal(basis: List[Marking], cand: Marking) -> bool:
    """Add ``cand`` to the antichain unless it is already covered; prune
    elements it covers.  Returns True when the basis changed."""
    for b in basis:
        if b.leq(cand):
            return False
    basis[:] = [b for b in basis if not cand.leq(b)]
    basis.append(cand)
    return True


def coverable(
    net: PetriNet, init: Marking, target: Marking, max_basis: int = 200_000
) -> Tuple[bool, Optional[List[int]]]:
    """Decide whether a reachable marking dominates ``target``.

    Returns the verdict and, when coverable, a transition-index witness that
    is validated by forward simulation before being returned.
    """
    if target.size() == 0:
        raise ValueError("target marking must be nonzero")
    net.check()
    basis: List[Marking] = [target]
    parent: Dict[Marking, Optional[Tuple[int, Marking]]] = {target: None}
    frontier: List[Marking] = [target]
    while frontier:
        new_frontier: List[Marking] = []
        for m in frontier:
            for ti, t in enumerate(net.transitions):
                pm = pre_image(m, t)
                if _insert_minimal(basis, pm):
                    parent.setdefault(pm, (ti, m))
                    new_frontier.append(pm)
                    if len(parent) > max_basis:
                        raise BudgetExhausted("max_basis", max_basis)
        still_minimal = set(basis)
        frontier = [m for m in new_frontier if m in still_minimal]
    hits = [b for b in basis if b.leq(init)]
    if not hits:
        return False, None
    start = min(hits, key=lambda m: (m.size(), str(m)))
    seq: List[int] = []
    cur: Optional[Tuple[int, Marking]] = parent.get(start)
    while cur is not None:
        ti, nxt = cur
        seq.append(ti)
        cur = parent.get(nxt)
    # forward validation; a failure here is a bug, not an input error
    m = init
    for ti in seq:
        nxt = fire(m, net.transitions[ti])
        if nxt is None:
            raise AssertionError("backward witness failed forward validation")
        m = nxt
    if not target.leq(m):
        raise AssertionError("witness does not dominate the target")
    return True, seq


def forward_enumerate(net: PetriNet, init: Marking, cap: int) -> Tuple[set, bool]:
    """Breadth-first reachable markings, up to ``cap`` distinct ones.

    ``saturated`` is False when the cap was hit, meaning the result is a
    strict under-approximation.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    net.check()
    seen = {init}
    queue = deque([init])
    saturated = True
    while queue:
        m = queue.popleft()
        for t in net.transitions:
            nxt = fire(m, t)
            if nxt is None or nxt in seen:
                continue
            if len(seen) >= cap:
                saturated = False
                queue.clear()
                break
            seen.add(nxt)
            queue.append(nxt)
    return seen, saturated


def covers_any(markings: Iterable[Marking], target: Marking) -> bool:
    return any(target.leq(m) for m in markings)


# ---------------------------------------------------------------------------
# text exchange format


def format_net(net: PetriNet, init: Marking, target: Optional[Marking] = None) -> str:
    lines = []
    for i, label in enumerate(net.place_labels):
        lines.append(f"place {i} {label}")
    for i, t in enumerate(net.transitions):
        pre = ",".join(f"{p}:{c}" for p, c in t.pre) or "-"
        post = ",".join(f"{p}:{c}" for p, c in t.post) or "-"
        lines.append(f"trans {i} pre {pre} post {post}")
    lines.append(f"init {init}")
    if target is not None:
        lines.append(f"target {target}")
    return "\n".join(lines) + "\n"


def parse_net(text: str) -> Tuple[PetriNet, Marking, Optional[Marking]]:
    places: Dict[int, str] = {}
    transitions: List[Transition] = []
    init: Optional[Marking] = None
    target: Optional[Marking] = None

    def parse_counts(s: str) -> Dict[int, int]:
        if s == "-":
            return {}
        out: Dict[int, int] = {}
        for item in s.split(","):
            p, c = item.split(":")
            out[int(p)] = int(c)
        return out

    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if parts[0] == "place":
            places[int(parts[1])] = parts[2] if len(parts) > 2 else ""
        elif parts[0] == "trans":
            rest = parts[2]
            pre_part, post_part = rest.split("post")
            pre_str = pre_part.replace("pre", "").strip()
            transitions.append(Transition.of(parse_counts(pre_str), parse_counts(post_part.strip()), parts[1]))
        elif parts[0] == "init":
            init = Marking.of(parse_counts(parts[1]))
        elif parts[0] == "target":
            target = Marking.of(parse_counts(parts[1]))
        else:
            raise ValueError(f"unknown line: {line}")
    labels = [places.get(i, "") for i in range(max(places) + 1 if places else 0)]
    net = PetriNet(labels, transitions)
    net.check()
    if init is None:
        init = Marking.of({})
    return net, init, target

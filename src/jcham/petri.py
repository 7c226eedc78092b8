"""Place/transition nets with an exact coverability decision.

Coverability is decided backwards (Abdulla, Čerāns, Jonsson & Tsay 1996).
One antichain is seeded with every target marking and grown by rounds of
pre-images under all transitions, keeping only its minimal elements.  The
pre-image of marking ``m`` under a transition is ``max(m - post, 0) + pre``,
component-wise.  The run stops at the first minimal marking that lies below
the initial marking: the parent pointers from that marking back to its
target spell a firing sequence, which is replayed forwards before it is
returned.  When no such marking appears, the antichain saturates, which
well-quasi-ordering of markings guarantees, and the targets are
uncoverable.  A text format exchanges nets with the command line.
"""

from __future__ import annotations

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
    have = cand.as_dict()  # built once: every candidate scans the whole basis
    if any(all(have.get(p, 0) >= c for p, c in b.counts) for b in basis):
        return False
    basis[:] = [b for b in basis if not cand.leq(b)]
    basis.append(cand)
    return True


def fire_sequence(m: Marking, net: PetriNet, seq: Iterable[int]) -> Optional[Marking]:
    """The marking reached by firing ``seq`` from ``m``, or None when one of
    its transitions is not enabled on the way."""
    for ti in seq:
        nxt = fire(m, net.transitions[ti])
        if nxt is None:
            return None
        m = nxt
    return m


def coverable(
    net: PetriNet, init: Marking, *targets: Marking, max_basis: int = 200_000
) -> Tuple[bool, Optional[List[int]]]:
    """Decide whether a reachable marking dominates one of ``targets``.

    Returns the verdict and, when coverable, a transition-index witness
    whose firing from ``init`` ends in a marking that dominates one of the
    targets; it is validated by forward simulation before being returned.
    ``max_basis`` bounds the markings the search inserts.
    """
    if not targets or any(t.size() == 0 for t in targets):
        raise ValueError("need at least one target marking, each nonzero")
    net.check()
    basis: List[Marking] = []
    parent: Dict[Marking, Optional[Tuple[int, Marking]]] = {}  # (transition, successor) back to a target
    candidates: Iterable[Tuple[Marking, Optional[Tuple[int, Marking]]]] = [(t, None) for t in targets]
    while True:
        inserted: List[Marking] = []
        for pm, via in candidates:
            if not _insert_minimal(basis, pm):
                continue
            parent[pm] = via  # a marking once inserted stays covered, so never returns
            if pm.leq(init):
                return True, _witness(net, init, targets, parent, pm)
            if len(parent) > max_basis:
                raise BudgetExhausted("max_basis", max_basis)
            inserted.append(pm)
        still_minimal = set(basis)
        frontier = [m for m in inserted if m in still_minimal]
        if not frontier:
            return False, None
        candidates = ((pre_image(m, t), (ti, m)) for m in frontier for ti, t in enumerate(net.transitions))


def _witness(net: PetriNet, init: Marking, targets: Tuple[Marking, ...], parent, start: Marking) -> List[int]:
    seq: List[int] = []
    cur = parent[start]
    while cur is not None:
        ti, nxt = cur
        seq.append(ti)
        cur = parent[nxt]
    # forward validation; a failure here is a bug, not an input error
    final = fire_sequence(init, net, seq)
    if final is None:
        raise AssertionError("backward witness failed forward validation")
    if not any(t.leq(final) for t in targets):
        raise AssertionError("witness does not dominate a target")
    return seq


# ---------------------------------------------------------------------------
# text exchange format


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

"""Place/transition nets with an exact coverability decision.

A marking is a tuple of token counts with one entry per place, and a
transition's preset and postset are markings too; ``PetriNet.marking`` is
the one place that turns sparse ``place: count`` pairs into one.

A forward saturation first cuts the net to the part that can act: the
places ``init`` marks or a live transition's postset has, and the live
transitions, whose presets lie on such places.  Whatever the backward
search would derive from the rest keeps a token on a never-marked place, so
the cut keeps the verdict and the witness.  Then coverability is decided
backwards (Abdulla, Čerāns, Jonsson & Tsay 1996).  One antichain is seeded
with every target marking and grown by rounds of pre-images under all
transitions, keeping only its minimal elements.  The pre-image of marking
``m`` under a transition is ``max(m - post, 0) + pre``, component-wise.
The run stops at the first minimal marking that lies below the initial
marking: the parent pointers from that marking back to its target spell a
firing sequence, which is replayed forwards before it is returned.  When no
such marking appears, the antichain saturates, which well-quasi-ordering of
markings guarantees, and the targets are uncoverable.

The set of markings the antichain covers only grows, so a candidate that is
covered once stays covered and would be rejected.  Three exact skips keep
the search from testing such candidates against the whole antichain:

* A pre-image that dominates its source is never built.  ``pre_image(m, t)
  >= m`` exactly when ``m[p] <= pre[p]`` on every place where ``t`` gains
  tokens (``post[p] > pre[p]``).  ``m`` was inserted, so ``m`` or a later
  minimal element below it covers such a pre-image.
* A candidate tested before in the same call is dropped: it was inserted,
  and so covers itself, or it was covered already.
* Each antichain element carries its token sum and its support as a bit
  mask.  ``b <= c`` is tested only when ``sum(b) <= sum(c)`` and ``b``'s
  support lies inside ``c``'s, and pruning filters the other way round.

None of them changes which candidates are inserted, or in which order.  The
verdict, the parent pointers and so the witness, and the insertion count
that ``max_basis`` bounds are those of the search without them, which
``tests/_petri_referee.py`` keeps as ``plain_coverable``.

A text format exchanges nets with the command line, one declaration per
line: ``place <i> [label]``, ``trans <label> pre <counts> post <counts>``,
``init <counts>`` and ``target <counts>``, where ``<counts>`` is
``place:count`` pairs joined by commas, or ``-`` for no tokens.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, lt
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .engine import BudgetExhausted

Marking = Tuple[int, ...]  # token count per place


@dataclass(frozen=True)
class Transition:
    pre: Marking
    post: Marking
    label: str = ""


@dataclass
class PetriNet:
    place_labels: List[str]
    transitions: List[Transition]

    def marking(self, counts: Union[Mapping[int, int], Iterable[Tuple[int, int]]]) -> Marking:
        """The marking with the given counts: a ``place: count`` mapping or
        ``(place, count)`` pairs, whose counts add up per place."""
        m = [0] * len(self.place_labels)
        for p, c in counts.items() if isinstance(counts, Mapping) else counts:
            if not 0 <= p < len(m):
                raise ValueError(f"unknown place {p}")
            if c < 0:
                raise ValueError(f"negative count {c} on place {p}")
            m[p] += c
        return tuple(m)


def leq(a: Marking, b: Marking) -> bool:
    """``b`` dominates ``a`` on every place."""
    return all(map(le, a, b))


def fire(m: Marking, t: Transition) -> Optional[Marking]:
    if any(map(lt, m, t.pre)):
        return None
    return tuple(c - i + o for c, i, o in zip(m, t.pre, t.post))


def pre_image(m: Marking, t: Transition) -> Marking:
    """Smallest marking that can fire ``t`` and then dominate ``m``."""
    return tuple([c - o + i if c > o else i for c, i, o in zip(m, t.pre, t.post)])


def _insert_minimal(basis: Dict[Marking, Tuple[int, int]], cand: Marking, total: int, support: int) -> bool:
    """Add ``cand``, whose token sum is ``total`` and support mask
    ``support``, to the antichain unless it is already covered; prune the
    elements it covers.  ``basis`` maps each element to its own sum and
    mask, and ``leq`` runs only on pairs that those admit.  Returns True
    when the basis changed."""
    for b, (s, k) in basis.items():
        if s <= total and not k & ~support and leq(b, cand):
            return False
    for b in [b for b, (s, k) in basis.items() if total <= s and not support & ~k and leq(cand, b)]:
        del basis[b]
    basis[cand] = (total, support)
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
    if not targets or not all(any(t) for t in targets):
        raise ValueError("need at least one target marking, each nonzero")
    n = len(net.place_labels)
    if any(len(m) != n for m in (init, *targets)):
        raise ValueError(f"marking length differs from the net's {n} places")
    for t in net.transitions:
        if len(t.pre) != n or len(t.post) != n:
            raise ValueError(f"transition {t.label!r} does not have the net's {n} places")
    places, live = _saturate(net, init)
    targets = tuple(t for t in targets if all(c == 0 or p in places for p, c in enumerate(t)))
    if not targets:
        return False, None

    def project(m: Marking) -> Marking:
        return tuple(m[p] for p in places)

    moves = [Transition(project(t.pre), project(t.post)) for t in (net.transitions[ti] for ti in live)]
    # per move, (place, preset count) where it gains tokens: its pre-image of
    # m dominates m, and is covered, unless m exceeds one of those counts
    gains = [[(p, i) for p, (i, o) in enumerate(zip(t.pre, t.post)) if o > i] for t in moves]
    bits = [1 << p for p in range(len(places))]
    low = project(init)
    basis: Dict[Marking, Tuple[int, int]] = {}  # minimal marking -> (token sum, support mask)
    parent: Dict[Marking, Optional[Tuple[int, Marking]]] = {}  # (move, successor) back to a target
    tested: set[Marking] = set()
    candidates: Iterable[Tuple[Marking, Optional[Tuple[int, Marking]]]] = [(project(t), None) for t in targets]
    while True:
        inserted: List[Marking] = []
        for pm, via in candidates:
            if pm in tested:
                continue
            tested.add(pm)
            if not _insert_minimal(basis, pm, sum(pm), sum([b for b, c in zip(bits, pm) if c])):
                continue
            parent[pm] = via  # a marking once inserted stays covered, so never returns
            if leq(pm, low):
                return True, _witness(net, init, targets, parent, pm, live)
            if len(parent) > max_basis:
                raise BudgetExhausted("max_basis", max_basis)
            inserted.append(pm)
        frontier = [m for m in inserted if m in basis]
        if not frontier:
            return False, None
        candidates = (
            (pre_image(m, t), (mi, m))
            for m in frontier
            for mi, (t, gain) in enumerate(zip(moves, gains))
            if any(m[p] > i for p, i in gain)
        )


def _saturate(net: PetriNet, init: Marking) -> Tuple[List[int], List[int]]:
    """The markable places and the live transitions, in index order."""
    markable = {p for p, c in enumerate(init) if c}
    live: set[int] = set()
    grew = True
    while grew:
        grew = False
        for ti, t in enumerate(net.transitions):
            if ti not in live and all(p in markable for p, c in enumerate(t.pre) if c):
                live.add(ti)
                markable.update(p for p, c in enumerate(t.post) if c)
                grew = True
    return sorted(markable), sorted(live)


def _witness(
    net: PetriNet, init: Marking, targets: Tuple[Marking, ...], parent, start: Marking, live: List[int]
) -> List[int]:
    seq: List[int] = []
    cur = parent[start]
    while cur is not None:
        mi, nxt = cur
        seq.append(live[mi])
        cur = parent[nxt]
    # forward validation; a failure here is a bug, not an input error
    final = fire_sequence(init, net, seq)
    if final is None:
        raise AssertionError("backward witness failed forward validation")
    if not any(leq(t, final) for t in targets):
        raise AssertionError("witness does not dominate a target")
    return seq


# ---------------------------------------------------------------------------
# text exchange format


def parse_net(text: str) -> Tuple[PetriNet, Marking, Optional[Marking]]:
    """Read a net in the text format; a ``ValueError`` names the first bad
    line, an undeclared place or an empty target."""
    places: Dict[int, str] = {}
    transitions: List[Tuple[Dict[int, int], Dict[int, int], str]] = []
    init: Dict[int, int] = {}
    target: Optional[Dict[int, int]] = None

    def parse_counts(s: str) -> Dict[int, int]:
        if s == "-":
            return {}
        out: Dict[int, int] = {}
        for item in s.split(","):
            p, c = item.split(":")
            out[int(p)] = int(c)
        return out

    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "place" and len(fields) >= 2 and int(fields[1]) >= 0:
                places[int(fields[1])] = line.split(None, 2)[2] if len(fields) > 2 else ""
            elif fields[0] == "trans" and len(fields) == 6 and fields[2] == "pre" and fields[4] == "post":
                transitions.append((parse_counts(fields[3]), parse_counts(fields[5]), fields[1]))
            elif fields[0] == "init" and len(fields) == 2:
                init = parse_counts(fields[1])
            elif fields[0] == "target" and len(fields) == 2:
                target = parse_counts(fields[1])
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {no}: cannot read {line!r}") from None
    net = PetriNet([places.get(i, "") for i in range(max(places) + 1 if places else 0)], [])
    net.transitions = [Transition(net.marking(pre), net.marking(post), label) for pre, post, label in transitions]
    if target is not None and not any(target.values()):
        raise ValueError("target marking has no tokens")
    return net, net.marking(init), None if target is None else net.marking(target)

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
  minimal element below it covers such a pre-image.  Per place, the
  preset counts of the moves that gain tokens there are kept sorted, each
  with the bit set of the moves up to it, so the other moves are read off
  with one bisection per marked place.
* A candidate tested before in the same call is dropped: it was inserted,
  and so covers itself, or it was covered already.
* The antichain is indexed by place.  Its markings sit in numbered slots,
  with their token sums, and per place one integer has a bit for each slot
  whose marking puts a token there.  Only the markings outside the union
  of the sets of the places a candidate leaves empty can lie below it, and
  only those in the intersection of the sets of the places it marks can
  lie above it.  ``leq`` runs on those alone, once their sums and tuples
  also compare: ``b <= c`` on every place implies ``sum(b) <= sum(c)`` and
  ``b <= c`` lexicographically.  A set with few bits set is stepped bit by
  bit, a denser one is read off its binary digits in one pass, so a query
  costs at most one scan of the slots.  A dropped marking keeps its bits,
  which the set of held slots masks out.  Between rounds, once dropped
  slots are half of 64 or more, the held markings are numbered from 0
  again.

None of them changes which candidates are inserted, or in which order.  The
verdict, the parent pointers and so the witness, and the insertion count
that ``max_basis`` bounds are those of the search without them, which
``tests/_petri_referee.py`` keeps as ``plain_coverable``.

A text format exchanges nets with the command line, one declaration per
line: ``place <i> [label]``, ``trans <label> pre <counts> post <counts>``,
``init <counts>`` and ``target <counts>``, where ``<counts>`` is
``place:count`` pairs joined by commas, or ``-`` for no tokens.  A place
is declared once and listed at most once in each ``<counts>``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress, count
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
    return tuple([c - i + o for c, i, o in zip(m, t.pre, t.post)])


def pre_image(m: Marking, t: Transition) -> Marking:
    """Smallest marking that can fire ``t`` and then dominate ``m``."""
    return tuple([c - o + i if c > o else i for c, i, o in zip(m, t.pre, t.post)])


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _members(mask: int) -> Iterable[int]:
    """The positions of the set bits of ``mask``, lowest first.  A sparse
    mask is stepped bit by bit; a dense one is read off its binary digits
    in one pass, since each bitwise step costs a pass over the whole mask."""
    if mask.bit_count() * 8 < mask.bit_length():
        out = []
        while mask:
            bit = mask & -mask
            out.append(bit.bit_length() - 1)
            mask ^= bit
        return out
    return compress(count(), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS))


class _Antichain:
    """Minimal markings in numbered slots, with their token sums, indexed by
    place: ``on[p]`` has bit ``i`` set when the marking in slot ``i`` puts
    a token on place ``p``, and ``alive`` has the bits of the slots still
    held.  A dropped marking keeps its bits in ``on``; every query masks
    them with ``alive``."""

    def __init__(self, places: int):
        self.slots: List[Marking] = []
        self.sums: List[int] = []
        self.on = [0] * places
        self.alive = 0

    def insert(self, cand: Marking) -> bool:
        """Add ``cand`` unless a held marking lies below it, and drop the
        held markings above it; ``leq`` runs only on those whose support,
        token sum and tuple order admit the pair.  Returns True when
        ``cand`` was added, in the next slot."""
        slots, sums, alive = self.slots, self.sums, self.alive
        total = sum(cand)
        empty, above = 0, alive
        for c, held in zip(cand, self.on):
            if c:
                above &= held
            else:
                empty |= held
        # b <= cand on every place only if b's support lies inside cand's,
        # its sum is at most cand's, and b <= cand as tuples (a
        # lexicographic test run in C)
        for i in _members(alive & ~empty):
            if sums[i] <= total:
                b = slots[i]
                if b <= cand and all(map(le, b, cand)):
                    return False
        for i in _members(above):
            if total <= sums[i]:
                b = slots[i]
                if cand <= b and all(map(le, cand, b)):
                    alive ^= 1 << i
        bit = 1 << len(slots)
        slots.append(cand)
        sums.append(total)
        self.alive = alive | bit
        on = self.on
        for p in compress(range(len(on)), cand):
            on[p] |= bit
        return True

    def held(self, start: int = 0) -> List[Marking]:
        """The markings still held in slots ``start`` on, in slot order."""
        rest, out = self.alive >> start, []
        while rest:
            bit = rest & -rest
            out.append(self.slots[start + bit.bit_length() - 1])
            rest ^= bit
        return out

    def renumber(self) -> None:
        """Number the held markings from 0, in their order, once dropped
        ones fill half of 64 slots or more."""
        if len(self.slots) >= 64 and len(self.slots) >= 2 * self.alive.bit_count():
            self.slots = self.held()
            self.sums = [sum(m) for m in self.slots]
            self.on = [0] * len(self.on)
            for i, m in enumerate(self.slots):
                for p in compress(range(len(m)), m):
                    self.on[p] |= 1 << i
            self.alive = (1 << len(self.slots)) - 1


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
    # gainers[p]: the preset counts, sorted, of the moves that gain tokens
    # on place p, and after k of them the bits of the first k moves.  The
    # pre-image of m under a move whose preset m does not exceed on any such
    # place dominates m, and is covered.
    gainers = []
    for p in range(len(places)):
        gain = sorted((t.pre[p], mi) for mi, t in enumerate(moves) if t.post[p] > t.pre[p])
        masks = [0]
        for _, mi in gain:
            masks.append(masks[-1] | 1 << mi)
        gainers.append(([i for i, _ in gain], masks))
    low = project(init)
    basis = _Antichain(len(places))
    parent: Dict[Marking, Optional[Tuple[int, Marking]]] = {}  # (move, successor) back to a target
    tested: set[Marking] = set()
    candidates: Iterable[Tuple[Marking, Optional[Tuple[int, Marking]]]] = [(project(t), None) for t in targets]
    while True:
        start = len(basis.slots)
        for pm, via in candidates:
            if pm in tested:
                continue
            tested.add(pm)
            if not basis.insert(pm):
                continue
            parent[pm] = via  # a marking once inserted stays covered, so never returns
            if leq(pm, low):
                return True, _witness(net, init, targets, parent, pm, live)
            if len(parent) > max_basis:
                raise BudgetExhausted("max_basis", max_basis)
        frontier = basis.held(start)  # this round's insertions still minimal
        if not frontier:
            return False, None
        basis.renumber()
        candidates = _pre_images(frontier, moves, gainers)


def _pre_images(frontier: List[Marking], moves: List[Transition], gainers: List[Tuple[List[int], List[int]]]):
    """Each frontier marking's pre-images that do not dominate it, with the
    move and the marking, in frontier order and then move order."""
    for m in frontier:
        due = 0
        for (counts, masks), c in zip(gainers, m):
            if c:
                due |= masks[bisect_left(counts, c)]
        while due:
            bit = due & -due
            mi = bit.bit_length() - 1
            yield pre_image(m, moves[mi]), (mi, m)
            due ^= bit


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
            if int(p) in out:
                raise ValueError
            out[int(p)] = int(c)
        return out

    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if fields[0] == "place" and len(fields) >= 2 and int(fields[1]) >= 0 and int(fields[1]) not in places:
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

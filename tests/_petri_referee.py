"""Referees for the coverability route: forward ones and the unfiltered
backward loop for the backward decision in ``jcham.petri``, and the product
grounding for ``jcham.detector.ground``.

``forward_enumerate`` lists the reachable markings of a net breadth-first, up
to a cap, so it settles coverability only on nets it saturates.
``karp_miller`` builds a Karp–Miller coverability tree (Karp & Miller 1969),
which is finite on every net, bounded or not: a target is coverable exactly
when one of the tree's markings dominates it.  Markings are the tuples of
per-place counts that ``jcham.petri`` uses.  Both referees fire transitions
with ``jcham.petri.fire`` semantics but share no code with the backward
search.

``plain_coverable`` is the backward search without its skips: every
pre-image of every frontier marking is tested against the whole antichain,
repeated ones too, and the verdict, witness and ``max_basis`` trip must
come out the same.

``product_ground`` instantiates every rule over the whole ``atoms^k``
product of the payload universe, a superset of the reachable instances
that ``jcham.detector.ground`` builds; ``producible`` is the relaxed
reachability of a list of ground rules, which cuts the product down to
them.
"""

import math
from collections import deque
from itertools import product
from typing import Dict, Iterable, List, Optional, Set, Tuple

from jcham.detector import GroundRule
from jcham.engine import BudgetExhausted, GroundMessage, ModelError, Soup, eval_atom, heat, inject
from jcham.petri import Marking, PetriNet, Transition, _saturate, _witness, fire, leq
from jcham.syntax import Atom, Message, Pair, Process, SubstitutionError, free_names, is_atom_expr, substitute, subterms

OMEGA = math.inf  # a place the tree has found unbounded


def forward_enumerate(net: PetriNet, init: Marking, cap: int) -> Tuple[set, bool]:
    """Breadth-first reachable markings, up to ``cap`` distinct ones.

    ``saturated`` is False when the cap was hit, meaning the result is a
    strict under-approximation.
    """
    if cap < 1:
        raise ValueError("cap must be positive")
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
    return any(all(have >= need for have, need in zip(m, target)) for m in markings)


def karp_miller(net: PetriNet, init: Marking, cap: int = 100_000) -> Set[Marking]:
    """The markings of a Karp–Miller tree, with ``OMEGA`` for unbounded
    places.

    A new node that strictly dominates one of its ancestors gets ``OMEGA``
    on every place where it exceeds that ancestor; a node whose marking is
    already in the tree is not expanded again.
    """
    nodes = {init}
    stack = [(init, (init,))]  # a node and the markings on its path from the root
    while stack:
        m, path = stack.pop()
        for t in net.transitions:
            if any(have < need for have, need in zip(m, t.pre)):
                continue
            nxt = [have - need + add for have, need, add in zip(m, t.pre, t.post)]
            for anc in path:
                if all(a <= b for a, b in zip(anc, nxt)):
                    nxt = [OMEGA if b > a else b for a, b in zip(anc, nxt)]
            node = tuple(nxt)
            if node in nodes:
                continue
            if len(nodes) >= cap:
                raise RuntimeError(f"Karp-Miller tree exceeds {cap} markings")
            nodes.add(node)
            stack.append((node, path + (node,)))
    return nodes


km_covers = covers_any  # an OMEGA place covers any count


def plain_insert_minimal(basis: List[Marking], cand: Marking) -> bool:
    """Add ``cand`` to the antichain unless it is already covered; prune
    elements it covers.  Returns True when the basis changed."""
    if any(leq(b, cand) for b in basis):
        return False
    basis[:] = [b for b in basis if not leq(cand, b)]
    basis.append(cand)
    return True


def plain_coverable(
    net: PetriNet, init: Marking, *targets: Marking, max_basis: int = 200_000
) -> Tuple[bool, Optional[List[int]]]:
    """``jcham.petri.coverable`` over the same cut net, with each round's
    candidates all tested against the whole antichain."""
    places, live = _saturate(net, init)
    targets = tuple(t for t in targets if all(c == 0 or p in places for p, c in enumerate(t)))
    if not targets:
        return False, None

    def project(m: Marking) -> Marking:
        return tuple(m[p] for p in places)

    moves = [Transition(project(t.pre), project(t.post)) for t in (net.transitions[ti] for ti in live)]
    low = project(init)
    basis: List[Marking] = []
    parent: Dict[Marking, Optional[Tuple[int, Marking]]] = {}
    candidates: Iterable[Tuple[Marking, Optional[Tuple[int, Marking]]]] = [(project(t), None) for t in targets]
    while True:
        inserted: List[Marking] = []
        for pm, via in candidates:
            if not plain_insert_minimal(basis, pm):
                continue
            parent[pm] = via
            if leq(pm, low):
                return True, _witness(net, init, targets, parent, pm, live)
            if len(parent) > max_basis:
                raise BudgetExhausted("max_basis", max_basis)
            inserted.append(pm)
        still_minimal = set(basis)
        frontier = [m for m in inserted if m in still_minimal]
        if not frontier:
            return False, None
        candidates = (
            (tuple(max(c - o, 0) + i for c, i, o in zip(m, t.pre, t.post)), (mi, m))
            for m in frontier
            for mi, t in enumerate(moves)
        )


def format_net(net: PetriNet, init: Marking, target: Optional[Marking] = None) -> str:
    """The text format that ``jcham.petri.parse_net`` reads."""

    def counts(m: Marking) -> str:
        return ",".join(f"{p}:{c}" for p, c in enumerate(m) if c) or "-"

    lines = [f"place {i} {label}" for i, label in enumerate(net.place_labels)]
    for i, t in enumerate(net.transitions):
        lines.append(f"trans {i} pre {counts(t.pre)} post {counts(t.post)}")
    lines.append(f"init {counts(init)}")
    if target is not None:
        lines.append(f"target {counts(target)}")
    return "\n".join(lines) + "\n"


def product_ground(p: Process) -> List[GroundRule]:
    """Every rule instantiated over every binding of its binders to the
    payload universe: initial message arguments plus constant arguments of
    body emissions, closed under pair projection, ordered by ``str``.
    Instances whose heated body is type-inconsistent are skipped."""
    soup = inject(p)
    universe: Dict[Atom, None] = {}

    def see_atom(a: Atom):
        if a not in universe:
            universe[a] = None
            if isinstance(a, Pair):
                see_atom(a.first)
                see_atom(a.second)

    for m in soup.messages:
        for a in m.args:
            see_atom(a)
    for r in soup.rules:
        bound = {b for h in r.heads for b in h.binders}
        for t in subterms(r.body):
            if isinstance(t, Message):
                for a in t.args:
                    if is_atom_expr(a) and not (free_names(a) & bound):
                        see_atom(eval_atom(a))
    atoms = sorted(universe, key=str)
    rules: List[GroundRule] = []
    for idx, rule in enumerate(soup.rules):
        binders = [b for h in rule.heads for b in h.binders]
        for combo in product(atoms, repeat=len(binders)):
            binding = dict(zip(binders, combo))
            guard = tuple(GroundMessage(h.channel, tuple(binding[b] for b in h.binders)) for h in rule.heads)
            try:
                body = heat(Soup(), substitute(rule.body, binding))
            except (SubstitutionError, ModelError):
                continue
            rules.append(GroundRule(idx, guard, tuple(body), tuple(binding.items())))
    return rules


def producible(rules: List[GroundRule], initial: Iterable[GroundMessage]) -> Set[GroundMessage]:
    """The messages some instance sequence can emit from ``initial``, when
    every instance whose guard messages are all producible may fire."""
    known = set(initial)
    grew = True
    while grew:
        grew = False
        for gr in rules:
            if set(gr.guard) <= known and not set(gr.body) <= known:
                known |= set(gr.body)
                grew = True
    return known

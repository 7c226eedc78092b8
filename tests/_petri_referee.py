"""Forward referees for the backward coverability decision in ``jcham.petri``.

``forward_enumerate`` lists the reachable markings of a net breadth-first, up
to a cap, so it settles coverability only on nets it saturates.
``karp_miller`` builds a Karp–Miller coverability tree (Karp & Miller 1969),
which is finite on every net, bounded or not: a target is coverable exactly
when one of the tree's markings dominates it.  Both fire transitions with
``jcham.petri.fire`` semantics but share no code with the backward search.
"""

import math
from collections import deque
from typing import Iterable, Optional, Set, Tuple

from jcham.petri import Marking, PetriNet, fire

OMEGA = math.inf  # a place the tree has found unbounded


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


def karp_miller(net: PetriNet, init: Marking, cap: int = 100_000) -> Set[tuple]:
    """The markings of a Karp–Miller tree, as tuples indexed by place with
    ``OMEGA`` for unbounded places.

    A new node that strictly dominates one of its ancestors gets ``OMEGA``
    on every place where it exceeds that ancestor; a node whose marking is
    already in the tree is not expanded again.
    """
    net.check()
    counts = dict(init.counts)
    root = tuple(counts.get(p, 0) for p in range(len(net.place_labels)))
    nodes = {root}
    stack = [(root, (root,))]  # a node and the markings on its path from the root
    while stack:
        m, path = stack.pop()
        for t in net.transitions:
            if any(m[p] < c for p, c in t.pre):
                continue
            nxt = list(m)
            for p, c in t.pre:
                nxt[p] -= c
            for p, c in t.post:
                nxt[p] += c
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


def km_covers(nodes: Iterable[tuple], target: Marking) -> bool:
    return any(all(node[p] >= c for p, c in target.counts) for node in nodes)


def format_net(net: PetriNet, init: Marking, target: Optional[Marking] = None) -> str:
    """The text format that ``jcham.petri.parse_net`` reads."""
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

"""Referee for colour refinement in ``jcham.canon``.

``plain_refine`` is the refinement round over the whole system: every item
is described by its shape and the colours of its slots, every name gets the
rank of its (old colour, sorted signature) among all names, and the rounds
stop when the number of classes stops growing.  ``canon._refine_fixpoint``
works only on the classes that can still split and must give the same
colour list, integer for integer.

``random_slotted`` draws a slotted system with a start colouring: discrete
or not, with individualized ``-1`` colours and gaps in the colour values,
items with no slots and names repeated within one item.

``rebuilt`` is the referee for the caches a rules value carries: the soup
over rules rebuilt as fresh ``ActiveRule``s, in a plain tuple, so it gets a
fresh rules value with no head index, no rules part and an empty memo.
"""

import random
from collections import Counter
from typing import List, Tuple

from jcham.engine import ActiveRule, Soup

SlotItem = Tuple[str, Tuple[int, ...]]


def _ranks(keys: list) -> List[int]:
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def plain_refine(slotted: List[SlotItem], colors: List[int]) -> List[int]:
    classes = len(set(colors))
    while classes < len(colors):
        described = _ranks([(shape, tuple(colors[i] for i in ids)) for shape, ids in slotted])
        sigs: List[List[Tuple[int, int]]] = [[] for _ in colors]
        for d, (_, ids) in zip(described, slotted):
            for slot, i in enumerate(ids):
                sigs[i].append((d, slot))
        colors = _ranks([(c, tuple(sorted(sig))) for c, sig in zip(colors, sigs)])
        refined = max(colors) + 1
        if refined == classes:
            break
        classes = refined
    return colors


def random_slotted(rng: random.Random) -> Tuple[List[SlotItem], List[int]]:
    n = rng.randint(1, 9)
    if rng.random() < 0.15:
        colors = rng.sample(range(-1, 3 * n), n)  # discrete
    else:
        palette = rng.sample(range(-1, 8), rng.randint(1, 4))
        colors = [rng.choice(palette) for _ in range(n)]
    slotted = []
    for _ in range(rng.randint(0, 7)):
        ids = tuple(rng.randrange(n) for _ in range(rng.choice([0, 1, 1, 2, 2, 3, 4])))
        slotted.append((rng.choice("abc"), ids))
    return slotted, colors


def rebuilt(soup: Soup) -> Soup:
    return Soup(tuple(ActiveRule(r.heads, r.body) for r in soup.rules), Counter(soup.messages), [], soup.fresh_counter)

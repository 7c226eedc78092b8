"""Random no-name-generation programs for oracle-agreement suites."""

import random

from jcham.contexts import Context
from jcham.parser import parse
from jcham.syntax import Hole, Name

BASES = ["ca", "cb", "cc", "cd"]
ATOMS = ["p", "a", "b"]


def fragment_instance(rng: random.Random):
    """One schematic context plus a fragment program; the abstraction is
    represented by the free atom ``p``."""
    n_chans = rng.randint(2, 4)
    chans = BASES[:n_chans]
    arity = {c: rng.randint(0, 1) for c in chans}

    rules = []
    for c in chans[: rng.randint(2, min(4, n_chans) + 2)]:
        heads = [c]
        if rng.random() < 0.35:
            others = [b for b in chans if b != c]
            if others:
                heads.append(rng.choice(others))
        pat_parts, binders = [], []
        for h in heads:
            if arity[h]:
                b = f"x{len(binders)}"
                binders.append(b)
                pat_parts.append(f"{h}<{b}>")
            else:
                pat_parts.append(f"{h}<>")
        emissions = []
        for _ in range(rng.randint(0, 2)):
            tgt = rng.choice(chans + ["r1", "out"])
            if tgt in chans and arity[tgt] == 0:
                emissions.append(f"{tgt}<>")
            else:
                val = rng.choice(binders + ATOMS)
                emissions.append(f"{tgt}<{val}>")
        body = " | ".join(emissions) if emissions else "0"
        if binders and emissions and rng.random() < 0.3:
            body = f"if [{binders[0]} = p] then ({body}) else 0"
        rules.append(" | ".join(pat_parts) + " |> " + (body if body != "0" else "0"))

    msgs = []
    for _ in range(rng.randint(1, 3)):
        c = rng.choice(chans)
        if arity[c]:
            msgs.append(f"{c}<{rng.choice(ATOMS)}>")
        else:
            msgs.append(f"{c}<>")
    text = "def " + " and ".join(rules) + " in " + " | ".join(msgs)
    ctx = Context(template=Hole(), services=frozenset(), resources=frozenset({"r1"}))
    return ctx, parse(text), Name("p")


def shaped_program(rng: random.Random, n_chans: int, n_atoms: int, n_rules: int, max_arity: int) -> str:
    """A fragment program over channels ``c0..``, atoms ``p, a0..``, the
    resource ``r1`` and the free channel ``out``: ``n_rules`` rules of one or
    two heads, each channel of arity at most ``max_arity``."""
    chans = [f"c{i}" for i in range(n_chans)]
    atoms = ["p"] + [f"a{i}" for i in range(n_atoms)]
    arity = {c: rng.randint(0, max_arity) for c in chans}
    rules = []
    for r in range(n_rules):
        heads = [chans[r % n_chans]]
        if rng.random() < 0.4:
            heads.append(rng.choice([c for c in chans if c != heads[0]]))
        pats, binders = [], []
        for h in heads:
            mine = [f"x{len(binders) + j}" for j in range(arity[h])]
            binders += mine
            pats.append(f"{h}<{', '.join(mine)}>")
        emissions = []
        for _ in range(rng.randint(1, 3)):
            tgt = rng.choice(chans + ["r1", "out"])
            emissions.append(f"{tgt}<{', '.join(rng.choice(binders + atoms) for _ in range(arity.get(tgt, 1)))}>")
        body = " | ".join(emissions)
        if binders and rng.random() < 0.3:
            body = f"if [{binders[0]} = {rng.choice(atoms)}] then ({body}) else 0"
        rules.append(" | ".join(pats) + " |> " + body)
    msgs = []
    for _ in range(rng.randint(2, 4)):
        c = rng.choice(chans)
        msgs.append(f"{c}<{', '.join(rng.choice(atoms) for _ in range(arity[c]))}>")
    return "def " + " and ".join(rules) + " in " + " | ".join(msgs)

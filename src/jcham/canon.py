"""Canonical forms for soups.

Two soups are congruent when one can be turned into the other by reordering
rules and messages and by a base-preserving bijection of machine-indexed
names.  ``canonicalize`` computes a digest invariant under exactly those
changes.  Indexed names are partitioned by iterated signature refinement (a
name's signature is the multiset of its occurrence slots across the items,
described up to the current partition).  When every class is a single
name, the soup is serialized once in colour order, each indexed name
written as its base and its position.  Otherwise the names alone in their
class are fixed, and the rest fall into components, joined through the
items they share: typically the interchangeable clusters (dead reply
channels, identical resources) that hang off the same live names.  Each
component is made discrete on its own by individualizing one name of its
first ambiguous class and re-refining, over its own items only; components
are then sorted by their least rendering, and the soup is serialized once
in the order this gives (component recursion, Junttila & Kaski 2011).  A
branch budget bounds each component's search; past it the digest may tell
congruent soups apart, but never merges distinct ones.

Rules first.  In a reflexive CHAM the activated rules persist and only
messages come and go, so a search meets few rules tuples and many message
multisets over each.  The rules part of a rules tuple is computed once: its
indexed names, the stable colouring of those names over the rules alone
(from their bases) and the loose names (those sharing their colour with
another; the others are fixed).  A rules tuple usually extends one met
before by the rules a reaction activated, so its part extends the part of
the nearest prefix that has one: the skeletons, the names, their numbering
and the slotted rules are copied and only the appended rules are added.
Names are numbered in order of first occurrence in the rules tuple, so a
prefix's numbering is the start of the longer tuple's; the colours, the
loose names and every rendering do not depend on the numbering (only which
name a tripped branch budget individualizes does, and an extended part
numbers as a fresh one).  The colouring itself is refined from the bases
over all rules again.

When every name a message carries occurs in a rule and is fixed there, the
digest renders only the messages, under the order of the names over the
rules alone (colour order, or the component order below when some are
loose), after the sorted rendering of all rules in that order.  That order
and that rendering are built when a state of the rules tuple first takes
this route, and each message is rendered under the order once.  This is
what the joint route below gives: messages on fixed names split no class
of a stable colouring, and the components hold only rule items, the same
ones at the same indices.
Otherwise a soup's names are refined jointly over all items, starting from
the rules' colours for the names the rules mention and from the base for
the names only messages carry.  The joint partition refines the rules'
one, so its classes are those a refinement from bases alone reaches; only
the order of the colours differs.  Refinement stops as soon as the
partition is discrete, which is stable, so no round is spent confirming it.
The rules part keeps the sorted rendering of all rules by the marks the
joint order gives the rules' names, so a state whose rules come out marked
as in a state met before renders only its messages.

Only the doubtful items enter the joint refinement and the component order:
the rules with a loose name (listed once per rules part) and the messages
with a loose name or one outside the rules.  An item whose names are all
fixed splits no class and joins no component.  The rules' colouring is
stable over the rules, so the joint refinement is seeded: its first round
signs only the classes of the names those messages carry, and each later
round only the classes with a member in an item that holds a name whose
class split in the round before.

Each ``ActiveRule`` is flattened into its skeleton (and the indexed-name
slots in it) only once and keeps it.  Refinement colours are integer ranks:
a name's new colour is the rank of its (old colour, sorted signature) among
those of all names.  A round computes that rank only where it can change:
it describes the items that hold a name of a class that can split, signs
only those names, and splits each such class on its own (Paige & Tarjan
1987 refine only the classes that can split).

A soup's rules value (``engine.Rules``) carries its rules part, and hands
on to the values extended from it one memo of the message skeletons and
component results met, so a new state costs only what it does not share
with the states of its lineage met before.  The form itself is not stored.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .engine import ActiveRule, GroundMessage, Soup
from .syntax import (
    Atom,
    Concat,
    Conditional,
    Expression,
    Lit,
    LocalDef,
    Message,
    MsgPat,
    Name,
    NameRef,
    Null,
    Pair,
    Parallel,
    Process,
    Proj,
    parallel_parts,
    pattern_atoms,
    rules_of,
)

_BRANCH_BUDGET = 48


@dataclass(frozen=True)
class CanonicalForm:
    digest: str
    serialization: str


def canonicalize(soup: Soup) -> CanonicalForm:
    """The soup's canonical form."""
    rules = soup.rules
    memo, part = rules.canon_memo, rules.canon_part
    if part is None:
        part = rules.canon_part = _rules_part(rules, rules.canon_base)
        rules.canon_base = None
        part.table = memo.setdefault(_COMPONENTS, {})
    items = soup.messages.items()
    rendered = part.rendered
    new = {mk: _memo_flat(mk, memo) for mk in items if mk not in rendered}
    if all(part.fixes(f) for f in new.values()):
        # the messages carry only names the rules alone fix: render only them
        marks = part.marks
        rendered.update((mk, _render(f.toks, marks)) for mk, f in new.items())
        best_s = part.rendering + "//" + ";".join(sorted(rendered[mk] for mk in items))
    else:
        msgs = [_memo_flat(mk, memo) for mk in items]
        outside = _sorted_names(n for f in msgs for n in f.slots if n not in part.number)
        best_s = _joint_serialization(part, msgs, outside)
    return CanonicalForm(hashlib.sha256(best_s.encode()).hexdigest(), best_s)


# the key of the component table in a rules value's memo
_COMPONENTS = "components"


@dataclass
class _RulesPart:
    """What a state's canonical form needs of its rules alone.  The
    rules-only order, and what is rendered under it, are built when a state
    first takes the rules-only route."""

    names: List[Name]  # the rules' indexed names, in order of first occurrence
    number: Dict[Name, int]  # each name's position in ``names``
    flats: List[_Flat]  # every rule
    # the rules with a slot, numbered by ``number``, and their skeletons
    slotted: List[SlotItem]
    slotted_flats: List[_Flat]
    colors: List[int]  # the stable colouring of ``names`` over the rules alone
    loose: frozenset  # the names that share their colour with another
    # the rules with a loose name, and their skeletons: the only rules that
    # refinement and component order can read something from
    doubtful: List[SlotItem]
    doubtful_flats: List[_Flat]
    # component results: the table of the rules value's memo, shared by
    # the rules parts of one lineage
    table: dict = field(default_factory=dict, repr=False)
    # each (message, count) whose names the rules fix, rendered under ``marks``
    rendered: Dict[Tuple[GroundMessage, int], str] = field(default_factory=dict)
    # the sorted rendering of all rules, by the marks of ``names`` it is under
    sections: Dict[Tuple[str, ...], str] = field(default_factory=dict, repr=False)

    @cached_property
    def marks(self) -> Dict[Name, str]:
        """Each name as ``base%position`` in the rules-only order."""
        # with no loose name this is colour order
        doubtful = self.doubtful
        order = _component_order(doubtful, self.doubtful_flats, len(doubtful), self.names, self.colors, self.table)
        return {self.names[i]: f"{self.names[i].base}%{p}" for p, i in enumerate(order)}

    @cached_property
    def rendering(self) -> str:
        """The sorted rendering of all rules under ``marks``."""
        return self.section(self.marks)

    def section(self, marks: Dict[Name, str]) -> str:
        """The sorted rendering of all rules under ``marks``, which marks
        every name of the rules; rendered once per distinct marking."""
        key = tuple([marks[n] for n in self.names])
        s = self.sections.get(key)
        if s is None:
            s = self.sections[key] = ";".join(sorted(_render(f.toks, marks) for f in self.flats))
        return s

    def fixes(self, flat: _Flat) -> bool:
        """Every name the item carries occurs in a rule and is fixed there."""
        return all(n in self.number and n not in self.loose for n in flat.slots)


def _rules_part(rules: Tuple[ActiveRule, ...], base: Optional[_RulesPart] = None) -> _RulesPart:
    """The rules part of ``rules``, extending ``base``, the part of a prefix
    of them, when given: its names, numbering and slotted items are copied
    and only the rules after the prefix are added.  The colouring is refined
    from the bases over all rules."""
    if base is None:
        names, number, flats, slotted, slotted_flats = [], {}, [], [], []
    else:
        names, number, flats = list(base.names), dict(base.number), list(base.flats)
        slotted, slotted_flats = list(base.slotted), list(base.slotted_flats)
    for r in rules[len(flats) :]:
        f = _rule_flat(r)
        flats.append(f)
        if f.slots:
            for n in f.slots:
                if n not in number:
                    number[n] = len(names)
                    names.append(n)
            slotted.append((f.shape, tuple([number[n] for n in f.slots])))
            slotted_flats.append(f)
    colors = _refine_fixpoint(slotted, _ranks([n.base for n in names]))
    size = Counter(colors)
    loose = {i for i, c in enumerate(colors) if size[c] > 1}
    doubtful = [k for k, (_, ids) in enumerate(slotted) if not loose.isdisjoint(ids)]
    return _RulesPart(
        names, number, flats, slotted, slotted_flats, colors, frozenset(names[i] for i in loose),
        [slotted[k] for k in doubtful], [slotted_flats[k] for k in doubtful],
    )


def _joint_serialization(part: _RulesPart, msgs: List[_Flat], outside: List[Name]) -> str:
    """The soup refined over all its items, from the rules' colours for the
    rules' names and from the base for ``outside``, the names only messages
    carry.  The rules' colouring is stable over the rules, so refinement
    reads only the doubtful items (the rules with a loose name and the
    messages with a loose or outside name), and its first round signs only
    the classes of the names those messages carry.  The rules are rendered
    once per distinct marking of their names."""
    fresh = part.names + outside
    number = dict(part.number)
    number.update((n, i) for i, n in enumerate(outside, len(part.names)))
    doubtful = [f for f in msgs if not part.fixes(f)]
    carried = [tuple(number[n] for n in f.slots) for f in doubtful]
    slotted = part.doubtful + [(f.shape, ids) for f, ids in zip(doubtful, carried)]
    start = [(0, c) for c in part.colors] + [(1, n.base) for n in outside]
    colors = _refine_fixpoint(slotted, _ranks(start), {i for ids in carried for i in ids})
    if len(set(colors)) == len(colors):
        order = sorted(range(len(fresh)), key=colors.__getitem__)
    else:
        flats = part.doubtful_flats + doubtful
        order = _component_order(slotted, flats, len(part.doubtful), fresh, colors, part.table)
    marks = {fresh[i]: f"{fresh[i].base}%{p}" for p, i in enumerate(order)}
    return part.section(marks) + "//" + ";".join(sorted(_render(f.toks, marks) for f in msgs))


def congruent(a: Soup, b: Soup) -> bool:
    return canonicalize(a).digest == canonicalize(b).digest


# ---------------------------------------------------------------------------
# names


def _sorted_names(names: Iterable[Name]) -> List[Name]:
    return sorted(set(names), key=lambda n: (n.base, n.index))


# ---------------------------------------------------------------------------
# serialization with occurrence slots
#
# each item is flattened into a token skeleton: literal strings plus Name
# slots for globally indexed names, with adjacent literals merged so that a
# skeleton with k slots has about 2k+1 tokens.  Nothing re-walks the syntax
# after that: refinement reads only each skeleton's shape and slot names, and
# colours there are integer ranks, not hashes of renderings.  The soup is
# serialized once, joining tokens under the final order, so an item without
# slots is rendered once per call (the rules not at all when the messages
# carry only fixed names or the rules' marks were met before); only the
# items of a component are rendered per candidate order of that component.
# A rule's skeleton is built once and kept on the ActiveRule (rules persist
# across states); a message's skeleton carries its multiplicity, and the
# rules value's memo keeps one per (message, count) met.
# Composite structure (parallel parts, nested rules) is ordered by the
# base-name projection of the part skeletons, which does not depend on the
# coloring; ties keep their syntactic order.

Skeleton = Sequence[object]  # str literals and Name slots
Slots = Tuple[Name, ...]  # the names in a skeleton's slots, in order


def _base_proj(toks: Skeleton) -> str:
    return "".join(t if isinstance(t, str) else f"~{t.base}" for t in toks)


def _render(toks: Skeleton, colors: Dict[Name, str]) -> str:
    # a mark is never empty, so ``or`` builds the fallback only on a miss
    return "".join(t if isinstance(t, str) else colors.get(t) or f"?{t.base}" for t in toks)


class _Skel:
    def __init__(self):
        self.toks: List[object] = []

    def lit(self, s: str) -> None:
        if self.toks and isinstance(self.toks[-1], str):
            self.toks[-1] += s
        else:
            self.toks.append(s)

    def extend(self, toks: Skeleton) -> None:
        for t in toks:
            if isinstance(t, str):
                self.lit(t)
            else:
                self.toks.append(t)

    def name(self, n: Name, local: Dict[Name, str]) -> None:
        if n in local:
            self.lit(local[n])
        elif n.index is None:
            self.lit(n.base)
        else:
            self.toks.append(n)

    def value(self, v: Union[Atom, Expression], local: Dict[Name, str]) -> None:
        """A runtime atom or an atom expression: the two are written alike."""
        match v:
            case Name():
                self.name(v, local)
            case NameRef(n):
                self.name(n, local)
            case Pair(l, r) | Concat(l, r):
                self.lit("(")
                self.value(l, local)
                self.lit(".")
                self.value(r, local)
                self.lit(")")
            case Lit(a):
                self.value(a, local)
            case str():
                self.lit(f'"{v}"')
            case int():
                self.lit(str(v))
            case Proj(inner, i):
                self.lit(f"pi{i}(")
                self.value(inner, local)
                self.lit(")")
            case _:
                raise TypeError(f"not a core value: {v!r}")

    def process(self, p: Process, local: Dict[Name, str]) -> None:
        match p:
            case Null():
                self.lit("0")
            case Parallel():
                parts = []
                for q in parallel_parts(p):
                    sub = _Skel()
                    sub.process(q, local)
                    parts.append(sub.toks)
                parts.sort(key=_base_proj)
                self.lit("(")
                for i, part in enumerate(parts):
                    if i:
                        self.lit("|")
                    self.extend(part)
                self.lit(")")
            case Message(ch, args):
                self.name(ch, local)
                self.lit("<")
                for i, a in enumerate(args):
                    if i:
                        self.lit(",")
                    self.value(a, local)
                self.lit(">")
            case LocalDef(d, body):
                inner = dict(local)
                for r in rules_of(d):
                    for h in pattern_atoms(r.pattern):
                        if h.channel not in inner:
                            inner[h.channel] = f"!{len(inner)}"
                rule_skels = []
                for r in rules_of(d):
                    sub = _Skel()
                    sub.rule(pattern_atoms(r.pattern), r.body, inner)
                    rule_skels.append(sub.toks)
                rule_skels.sort(key=_base_proj)
                self.lit("def[")
                for i, rs in enumerate(rule_skels):
                    if i:
                        self.lit(";")
                    self.extend(rs)
                self.lit("]in")
                self.process(body, inner)
            case Conditional(a, b, t, o):
                self.lit("if(")
                self.value(a, local)
                self.lit("=")
                self.value(b, local)
                self.lit("){")
                self.process(t, local)
                self.lit("}{")
                self.process(o, local)
                self.lit("}")
            case _:
                raise TypeError(f"not a core process: {p!r}")

    def rule(self, heads: Sequence[MsgPat], body: Process, local: Dict[Name, str]) -> None:
        """An activated rule (``local`` empty) or a rule of a nested ``def``
        (``local`` naming the channels it defines): the binders are local
        to the rule."""
        bound = dict(local)
        for h in heads:
            for b in h.binders:
                bound[b] = f"!{len(bound)}"
        for j, h in enumerate(heads):
            if j:
                self.lit(",")
            self.name(h.channel, local)
            self.lit("(" + ",".join(bound[b] for b in h.binders) + ")")
        self.lit("=>")
        self.process(body, bound)


class _Flat(NamedTuple):
    toks: Skeleton
    slots: Slots
    shape: str  # the base projection
    # the literals with their positions: with the slots, they give back the skeleton
    lits: Tuple[Tuple[int, str], ...]


def _flat(toks: Skeleton) -> _Flat:
    # one pass: this runs for every message skeleton a lineage meets
    slots, proj, lits = [], [], []
    for j, t in enumerate(toks):
        if t.__class__ is str:
            proj.append(t)
            lits.append((j, t))
        else:
            slots.append(t)
            proj.append("~" + t.base)
    return _Flat(toks, tuple(slots), "".join(proj), tuple(lits))


def _message_flat(m: GroundMessage, count: int) -> _Flat:
    sk = _Skel()
    sk.lit(f"{count}*")
    sk.name(m.channel, {})
    sk.lit("<")
    for i, a in enumerate(m.args):
        if i:
            sk.lit(",")
        sk.value(a, {})
    sk.lit(">")
    return _flat(sk.toks)


def _memo_flat(item: Tuple[GroundMessage, int], memo: dict) -> _Flat:
    flat = memo.get(item)
    if flat is None:
        flat = memo[item] = _message_flat(*item)
    return flat


def _rule_flat(r: ActiveRule) -> _Flat:
    if r.canon_skeleton is None:
        sk = _Skel()
        sk.rule(r.heads, r.body, {})
        object.__setattr__(r, "canon_skeleton", _flat(tuple(sk.toks)))
    return r.canon_skeleton


def _serialize_soup(skeletons: List[Tuple[str, Skeleton]], colors: Dict[Name, str]) -> str:
    rules = sorted(_render(toks, colors) for kind, toks in skeletons if kind == "rule")
    msgs = sorted(_render(toks, colors) for kind, toks in skeletons if kind == "msg")
    return ";".join(rules) + "//" + ";".join(msgs)


# ---------------------------------------------------------------------------
# refinement
#
# names are numbered by their position in ``fresh`` and colours are integer
# ranks.  Each slotted item is reduced to its shape (its base projection)
# and the numbers of the names in its slots, in order.  A round gives each
# name the rank of its (old colour, sorted signature) among all names, where
# the signature lists the items it occurs in, each described by its shape
# and the colours of its slots, and at which slot.  So each round refines
# the last; the fixpoint is reached when no class splits, or at once when
# every class is a single name (a discrete start is returned as it is; any
# other comes back ranked 0..k-1, split or not; a start that runs 0..k-1
# already is not ranked again, but refined in place).
#
# A round works class by class, in colour order.  A class of one name stays
# one class, so only the names of larger classes are signed, through an
# occurrence index built once per call, and only the items that hold them
# are described, by their rank among those items alone: that keeps the
# order of their ranks among all items, so signatures compare as before.  A
# larger class splits by its sorted distinct signatures, and renumbering the
# classes in order gives each name the rank of its (old colour, signature).
#
# A class is signed only when it can split (Paige & Tarjan 1987).  Its
# members' signatures were equal in the round before, or it would have
# split; they can differ now only if an item one of them occurs in holds a
# name whose class just split.  So a round signs only the classes with a
# member in such an item.  The first round signs every larger class, or,
# given ``seeds``, only those with a member among them: the caller vouches
# that the start colouring is stable over the items that hold no seed.

SlotItem = Tuple[str, Tuple[int, ...]]


def _ranks(keys: list) -> List[int]:
    """Each key's rank among the distinct keys."""
    rank = {k: i for i, k in enumerate(sorted(set(keys)))}
    return [rank[k] for k in keys]


def _refine_fixpoint(slotted: List[SlotItem], colors: List[int], seeds: Optional[Iterable[int]] = None) -> List[int]:
    classes = set(colors)
    if len(classes) == len(colors):
        return colors
    if min(classes) != 0 or max(classes) != len(classes) - 1:
        colors = _ranks(colors)
    cells: List[List[int]] = [[] for _ in range(len(classes))]
    for i, c in enumerate(colors):
        cells[c].append(i)
    # the occurrences, as (item, slot), of the names in doubt: only they can split
    occurs: Dict[int, List[Tuple[int, int]]] = {i: [] for cell in cells if len(cell) > 1 for i in cell}
    for k, (_, ids) in enumerate(slotted):
        for slot, i in enumerate(ids):
            if i in occurs:
                occurs[i].append((k, slot))
    # the classes this round signs
    signed = {colors[i] for i in (occurs if seeds is None else seeds) if len(cells[colors[i]]) > 1}
    while True:
        ks = list({k for c in signed for i in cells[c] for k, _ in occurs[i]})
        if not ks:
            break  # no name of a class that can split occurs in an item
        described = dict(zip(ks, _ranks([(slotted[k][0], tuple([colors[i] for i in slotted[k][1]])) for k in ks])))
        split: List[List[int]] = []
        moved: List[int] = []  # the names whose class split
        for c, cell in enumerate(cells):
            if c not in signed:
                split.append(cell)
                continue
            groups: Dict[tuple, List[int]] = {}
            for i in cell:
                groups.setdefault(tuple(sorted([(described[k], slot) for k, slot in occurs[i]])), []).append(i)
            if len(groups) > 1:
                moved.extend(cell)
            split.extend(groups[sig] for sig in sorted(groups))
        if not moved:
            break
        cells = split
        for c, cell in enumerate(cells):
            for i in cell:
                colors[i] = c
        touched = {colors[j] for i in moved for k, _ in occurs[i] for j in slotted[k][1]}
        signed = {c for c in touched if len(cells[c]) > 1}
    return colors


def _discrete_orders(slotted: List[SlotItem], colors: List[int]) -> List[List[int]]:
    """Orders of the names consistent with the refined partition, made
    discrete by individualization; branches stay within a fixed budget."""
    out: List[List[int]] = []
    _individualize(slotted, colors, [_BRANCH_BUDGET], out)
    return out


def _individualize(slotted: List[SlotItem], cols: List[int], budget: List[int], out: List[List[int]]) -> None:
    # a module function, not a closure: a recursive closure is a reference
    # cycle that keeps each search's orders until the cyclic collector runs
    groups: Dict[int, List[int]] = {}
    for i, c in enumerate(cols):
        groups.setdefault(c, []).append(i)
    ordered = [groups[c] for c in sorted(groups)]
    first_ambiguous = next((g for g in ordered if len(g) > 1), None)
    if first_ambiguous is None:
        out.append([g[0] for g in ordered])
        return
    candidates = first_ambiguous if budget[0] >= len(first_ambiguous) else first_ambiguous[:1]
    budget[0] = max(budget[0] // max(len(candidates), 1), 1)
    for pick in candidates:
        # -1 is below every rank: the picked name becomes a class of its own
        cols2 = list(cols)
        cols2[pick] = -1
        _individualize(slotted, _refine_fixpoint(slotted, cols2), budget, out)


# ---------------------------------------------------------------------------
# component recursion (Junttila & Kaski 2011)
#
# names left alone in their class by refinement are fixed: an automorphism
# of the soup keeps the refined colouring, so it maps each of them to
# itself.  The other names are joined into components through the slotted
# items they share, and an automorphism can only permute whole components.
# Each component is individualized on its own, over its own items, with the
# fixed names in them as constants of their colour.  It keeps the least
# rendering of those items (a fixed name written ``#colour``, a component
# name as its position in the component) and the order that gave it.
# Components with equal renderings are isomorphic over the fixed names, so
# swapping them leaves the soup's serialization as it is; orders of one
# component with equal renderings differ by an automorphism, likewise.  The
# branch budget holds for each component's search; when it trips, the
# rendering is the least over the orders explored, so congruent soups can
# get different digests, but the digest still serializes the whole soup and
# never joins two distinct ones.
#
# A component's result depends only on its structure: its items written
# over local vertex numbers (its names in order, then the fixed names in its
# items), the colours of those vertices and how many are its own.
# Interchangeable clusters repeat one structure within a soup and across the
# states of a lineage, so the memo's component table keeps each structure's
# least rendering and the order that gave it, as local vertex numbers.


class _Component(NamedTuple):
    rendering: str
    order: Tuple[int, ...]  # the component's names, as local vertex numbers


def _component_order(
    slotted: List[SlotItem], flats: List[_Flat], rules: int, fresh: List[Name], colors: List[int], table: dict
) -> List[int]:
    """All names in serialization order: the fixed names by colour, then each
    component's names, components sorted by their least rendering.
    ``flats`` gives each slotted item's skeleton, the first ``rules`` of
    them rules and the others messages; ``table`` keeps the result of each
    component structure met."""
    size = Counter(colors)
    loose = [size[c] > 1 for c in colors]
    parent = list(range(len(colors)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for _, ids in slotted:
        mine = [i for i in ids if loose[i]]
        for i in mine[1:]:
            parent[find(i)] = find(mine[0])
    members: Dict[int, List[int]] = {}
    for i in range(len(colors)):
        if loose[i]:
            members.setdefault(find(i), []).append(i)
    items: Dict[int, List[int]] = {}
    for k, (_, ids) in enumerate(slotted):
        first = next((i for i in ids if loose[i]), None)
        if first is not None:
            items.setdefault(find(first), []).append(k)

    def least(names: List[int], ks: List[int]) -> Tuple[str, List[int]]:
        # local numbering: the component's names, then the fixed names in its items
        vertices = names + sorted({i for k in ks for i in slotted[k][1]}.difference(names))
        local = {g: v for v, g in enumerate(vertices)}
        sub = [(slotted[k][0], tuple(local[i] for i in slotted[k][1])) for k in ks]
        shown = sorted((k < rules, shape, ids, flats[k].lits) for k, (shape, ids) in zip(ks, sub))
        key = (tuple(shown), tuple(colors[g] for g in vertices), len(names))
        found = table.get(key)
        if found is None:
            own = [("rule" if k < rules else "msg", flats[k].toks) for k in ks]
            marks = {fresh[g]: f"#{colors[g]}" for g in vertices[len(names) :]}

            def rendering(order: List[int]) -> _Component:
                mine = tuple(v for v in order if v < len(names))
                marks.update((fresh[vertices[v]], f"{fresh[vertices[v]].base}%{p}") for p, v in enumerate(mine))
                return _Component(_serialize_soup(own, marks), mine)

            orders = _discrete_orders(sub, [colors[g] for g in vertices])
            found = table[key] = min(map(rendering, orders), key=lambda r: r.rendering)
        return found.rendering, [vertices[v] for v in found.order]

    fixed = sorted((i for i in range(len(colors)) if not loose[i]), key=colors.__getitem__)
    components = sorted((least(members[r], items[r]) for r in members), key=lambda c: c[0])
    return fixed + [i for _, order in components for i in order]

"""Execution engine: a reflexive chemical abstract machine.

A :class:`Soup` holds the activated reaction rules and the multiset of
pending ground messages.  Structural rules are applied eagerly ("heating"):
parallel compositions split, null processes vanish, conjunctions split,
empty definitions vanish, and local definitions activate with their defined
channels renamed to fresh indexed names.  The only irreversible step is the
reduction of a join pattern: the matched messages are consumed and the rule
body is instantiated with the transmitted values, then heated.

Conditionals are resolved during heating, once their operands are ground
atoms.  Rules persist after firing, so a definition behaves like a
replicated server.

Join matching (:func:`enabled_redexes`) finds the rules to try through the
head index that the soup's :class:`Rules` value carries: the rules by the
(channel, arity) of each of their heads.  A reduction only removes the
messages it consumes and adds the messages and rules it makes, so
:func:`search` derives each state's redexes from its parent's: the ones
whose messages are still present, plus those reading a newly present
message or an appended rule.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .desugar import desugar
from .syntax import (
    Atom,
    Concat,
    Conditional,
    Expression,
    FreshNames,
    Hole,
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
    atom_str,
    def_channels,
    free_names,
    pattern_atoms,
    rules_of,
    substitute,
)


class ModelError(Exception):
    """A model reached a state the calculus gives no meaning to."""


class StaleRedex(Exception):
    """The redex refers to messages no longer present in the soup."""


class BudgetExhausted(Exception):
    """A bounded analysis stopped with work left, so it has no answer;
    ``budget`` names the limit that tripped.  A trip in :func:`search` also
    gives ``depth``, the level it was expanding, and ``frontier``, the
    number of states still queued; elsewhere both are None."""

    def __init__(self, budget: str, limit: int, depth: Optional[int] = None, frontier: Optional[int] = None):
        super().__init__(f"budget {budget}={limit} exhausted")
        self.budget = budget
        self.limit = limit
        self.depth = depth
        self.frontier = frontier


@dataclass(frozen=True)
class GroundMessage:
    channel: Name
    args: tuple[Atom, ...] = ()
    # the hash, computed on first use (messages key every soup's Counter)
    hash_cache: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    # the text, computed on first use (it is the sort key of every redex)
    str_cache: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self.hash_cache
        if h is None:
            h = hash((self.channel, self.args))
            object.__setattr__(self, "hash_cache", h)
        return h

    def __str__(self) -> str:
        s = self.str_cache
        if s is None:
            s = f"{self.channel}<{', '.join(atom_str(a) for a in self.args)}>"
            object.__setattr__(self, "str_cache", s)
        return s


@dataclass(frozen=True)
class ActiveRule:
    """A reaction rule after activation: flattened pattern plus body."""

    heads: tuple[MsgPat, ...]
    body: Process
    # the rule's canonical-form skeleton, built by ``canon`` on first use;
    # rules persist across states, so each is flattened only once
    canon_skeleton: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # the hash, computed on first use: the generated one would rehash the
    # whole body each time a rules tuple is hashed
    hash_cache: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        h = self.hash_cache
        if h is None:
            h = hash((self.heads, self.body))
            object.__setattr__(self, "hash_cache", h)
        return h

    @property
    def label(self) -> str:
        return "&".join(str(h.channel) for h in self.heads)

    def defines(self, base: str) -> bool:
        return any(h.channel.base == base for h in self.heads)


class Rules(tuple):
    """A soup's activated rules, with what is derived from them alone: its
    hash, computed once; ``heads``, the head index of :func:`enabled_redexes`,
    built at the first match or extended from the parent's when ``heat``
    appends rules with ``+``; ``canon_part``, ``canon``'s rules part, built
    on first use; and ``canon_memo``, ``canon``'s message skeletons and
    component results, one dict that ``+`` hands on to every value extended
    from this one.  ``+`` keeps the values it made by the rules appended, so
    two paths that append equal rules to one value share the value they
    reach, and its caches.  ``fired`` keeps what each reduction over this
    value heated, by (rule index, binding, fresh counter): the rules value
    reached, the messages emitted in order and the counter after.  That is
    all ``heat`` changes, and it reads nothing else of the soup, so
    :func:`reduce_with_info` replays an entry instead of heating the body
    again.  An entry stores None for the rules value when the firing
    appended no rule: the value itself would put it in its own dict, a
    reference cycle.  A firing that raised is not stored.  None of them
    changes a redex or a digest."""

    heads: Optional[tuple[dict, dict]] = None
    canon_part: Optional[object] = None
    hash_cache: Optional[int] = None

    def __init__(self, rules: Iterable[ActiveRule] = ()):
        self.canon_memo = {}
        self.extended = {}
        self.fired = {}

    def __hash__(self) -> int:
        h = self.hash_cache
        if h is None:
            h = self.hash_cache = tuple.__hash__(self)
        return h

    def __add__(self, more: tuple) -> "Rules":
        if not more:
            return self
        out = self.extended.get(more)
        if out is None:
            out = self.extended[more] = Rules(chain(self, more))
            out.canon_memo = self.canon_memo
            if self.heads is not None:
                out.heads = _head_index(out, len(self), self.heads)
        return out


@dataclass
class Soup:
    """One machine configuration: active rules, pending messages, name supply.
    A plain tuple of rules is wrapped in a fresh :class:`Rules`."""

    rules: Rules = ()  # type: ignore[assignment]
    messages: "Counter[GroundMessage]" = field(default_factory=Counter)
    pending: list[Process] = field(default_factory=list)  # unused; perfbench/oracles.py passes it positionally
    fresh_counter: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.rules, Rules):
            self.rules = Rules(self.rules)

    def copy(self) -> "Soup":
        return Soup(self.rules, Counter(self.messages), [], self.fresh_counter)

    def message_list(self) -> list[GroundMessage]:
        out: list[GroundMessage] = []
        for m, k in sorted(self.messages.items(), key=lambda kv: str(kv[0])):
            out.extend([m] * k)
        return out

    def message_count(self) -> int:
        return sum(self.messages.values())

    def channels(self, base: str) -> list[Name]:
        """Activated channels with the given base name, oldest first."""
        seen: dict[Name, None] = {}
        for r in self.rules:
            for h in r.heads:
                if h.channel.base == base:
                    seen[h.channel] = None
        return sorted(seen, key=lambda n: n.index if n.index is not None else -1)

    def channel(self, base: str) -> Name:
        found = self.channels(base)
        if len(found) != 1:
            raise ModelError(f"expected one activated channel named {base}, found {len(found)}")
        return found[0]

    def dump(self) -> str:
        """Configuration in (roughly) the concrete grammar: one activated
        rule per line, then the pending messages."""
        from .syntax import pretty

        lines = []
        for r in self.rules:
            heads = " | ".join(
                f"{h.channel}<{', '.join(str(b) for b in h.binders)}>" for h in r.heads
            )
            lines.append(f"def {heads} |> {pretty(r.body)}")
        lines += [str(m) for m in self.message_list()]
        return "\n".join(lines)


@dataclass(frozen=True)
class Redex:
    """A rule together with one satisfying combination of messages."""

    rule_index: int
    label: str
    matched: tuple[GroundMessage, ...]
    binding: tuple[tuple[Name, Atom], ...]

    def binding_map(self) -> dict[Name, Atom]:
        return dict(self.binding)

    def __str__(self) -> str:
        return f"{self.label}[{', '.join(str(m) for m in self.matched)}]"


# ---------------------------------------------------------------------------
# atom evaluation


def eval_atom(e: Expression) -> Atom:
    """The atom ``e`` denotes."""
    match e:
        case NameRef(n):
            return n
        case Lit(v):
            return v
        case Concat(l, r):
            return Pair(eval_atom(l), eval_atom(r))
        case Proj(inner, i):
            v = eval_atom(inner)
            if not isinstance(v, Pair):
                raise ModelError(f"projection from non-pair atom {atom_str(v)}")
            return v.first if i == 1 else v.second
    raise ModelError(f"expression is not ground: {e!r}")


# ---------------------------------------------------------------------------
# heating


def heat(soup: Soup, p: Process) -> list[GroundMessage]:
    """Apply the structural rules until only rules and messages remain.

    ``p`` is a core term; a fired rule's body is heated once the values it
    received are substituted into it.  A conditional keeps the branch its
    ground operands select; a nested ``def`` has its defined channels
    renamed to the soup's fresh names before its rules join the soup.  An
    error can leave ``soup`` part heated, so callers heat into a copy they
    drop on error.

    Returns the messages added, in emission order.
    """
    emitted: list[GroundMessage] = []
    stack = [p]
    while stack:
        t = stack.pop()
        match t:
            case Null():
                continue
            case Parallel(l, r):
                stack.append(r)
                stack.append(l)
            case Message(ch, args):
                m = GroundMessage(ch, tuple(eval_atom(a) for a in args))
                soup.messages[m] += 1
                emitted.append(m)
            case LocalDef(d, body):
                names = FreshNames(soup.fresh_counter)
                ren: dict[Name, Atom] = {c: names.fresh(c.base) for c in def_channels(d)}
                soup.fresh_counter = names.n
                new_rules = []
                for rule in rules_of(d):
                    rule = substitute(rule, ren)
                    heads = tuple(pattern_atoms(rule.pattern))
                    if any(not isinstance(h, MsgPat) for h in heads):
                        raise ModelError("call pattern survived desugaring")
                    new_rules.append(ActiveRule(heads, rule.body))
                soup.rules = soup.rules + tuple(new_rules)
                stack.append(substitute(body, ren))
            case Conditional(a, b, then, orelse):
                stack.append(then if eval_atom(a) == eval_atom(b) else orelse)
            case Hole():
                raise ModelError("cannot run a context template; plug it first")
            case _:
                raise ModelError(f"enriched form reached the machine: {t!r}")
    return emitted


def inject(p: Process, root: Optional[Rules] = None) -> Soup:
    """Desugar ``p`` and heat it into an initial soup.  Its rules extend
    ``root`` when given (a fresh, empty :class:`Rules` otherwise), so starts
    injected over one root that activate equal rules share one rules value
    and its caches."""
    soup = Soup(Rules() if root is None else root)
    heat(soup, desugar(p))
    return soup


def inject_message(soup: Soup, channel: Name, args: Iterable[Atom] = ()) -> Soup:
    """Return a copy of ``soup`` with one extra ground message."""
    out = soup.copy()
    out.messages[GroundMessage(channel, tuple(args))] += 1
    return out


def graft(soup: Soup, p: Process) -> Soup:
    """Heat a process into a copy of ``soup``, binding each free name to the
    soup's activated channel of the same base, when there is exactly one -
    the process behaves as if it had been part of the original program's
    hole.  ``p`` is desugared first: ``heat`` takes core terms only."""
    core = desugar(p)
    mapping: dict[Name, Atom] = {}
    for n in free_names(core):
        if n.index is None:
            built = soup.channels(n.base)
            if len(built) == 1:
                mapping[n] = built[0]
    out = soup.copy()
    heat(out, substitute(core, mapping))
    return out


# ---------------------------------------------------------------------------
# matching and reduction


def enabled_redexes(soup: Soup, since: Optional[tuple] = None) -> list[Redex]:
    """Every (rule, message combination) that can react, one redex per
    distinct multiset of matched messages, sorted by (rule index, ``str``).

    ``since`` derives the list from that of the state ``soup`` was reduced
    from: ``(its redexes, its rule count, the messages the step made newly
    present)``.  The list keeps the parent's redexes whose messages are all
    still present (matching reads distinct messages, not counts) and adds
    the combinations that read a newly present message or an appended rule;
    without ``since`` every message is new and every rule appended.  The
    rules tried are found through the head index of the rules value: the
    indices of the rules by the (channel, arity) of their first head, and
    by that of each later head."""
    rules, present = soup.rules, soup.messages
    parent, known, new = since if since is not None else ((), 0, present)
    index = rules.heads
    if index is None:
        index = rules.heads = _head_index(rules)
    out = [r for r in parent if all(m in present for m in r.matched)]
    kept = len(out)
    # the rules with a head on a new message, and the appended rules; when
    # every message is new, a rule can react only through its first head
    first, later = index
    keys = {(m.channel, len(m.args)) for m in new}
    tried = {i for key in keys for i in first.get(key, ())}
    if len(new) < len(present):
        tried.update(i for key in keys for i in later.get(key, ()))
        tried.update(range(known, len(rules)))
    groups: dict[tuple[Name, int], list[GroundMessage]] = {}
    if tried:
        for m in present:
            groups.setdefault((m.channel, len(m.args)), []).append(m)
    for idx in tried:
        rule = rules[idx]
        lists = [groups.get((h.channel, len(h.binders)), ()) for h in rule.heads]
        if not all(lists):
            continue
        if idx >= known:
            combos: Iterable = product(*lists)
        else:
            # each combination reading a new message, once: at the first head that does
            olds = [[m for m in l if m not in new] for l in lists]
            combos = chain.from_iterable(
                product(*olds[:j], [m for m in l if m in new], *lists[j + 1:]) for j, l in enumerate(lists)
            )
        for combo in combos:
            binding: list[tuple[Name, Atom]] = []
            for head, msg in zip(rule.heads, combo):
                binding.extend(zip(head.binders, msg.args))
            out.append(Redex(idx, rule.label, tuple(combo), tuple(binding)))
    if len(out) > kept:  # the parent's redexes are sorted already
        out.sort(key=lambda r: (r.rule_index, str(r)))
    return out


def _head_index(rules: tuple[ActiveRule, ...], start: int = 0, base: Optional[tuple] = None) -> tuple[dict, dict]:
    """The indices of ``rules`` by the (channel, arity) of their first head,
    and by that of each later head.  ``base``, when given, is the index of
    ``rules[:start]``; it is extended, not changed."""
    first, later = ({}, {}) if base is None else (dict(base[0]), dict(base[1]))
    for i in range(0 if base is None else start, len(rules)):
        where = first
        for h in rules[i].heads:
            key = (h.channel, len(h.binders))
            where[key] = where.get(key, ()) + (i,)
            where = later
    return first, later


def is_inert(soup: Soup) -> bool:
    return not enabled_redexes(soup)


def reduce(soup: Soup, redex: Redex) -> Soup:
    s, _ = reduce_with_info(soup, redex)
    return s


def reduce_with_info(soup: Soup, redex: Redex) -> tuple[Soup, list[GroundMessage]]:
    """Consume the matched messages, substitute the binding into the rule
    body and heat it, or replay the heat of an equal firing over the same
    rules value (:attr:`Rules.fired`): the messages are added in emission
    order, so the soup is the same, down to the order of its ``messages``."""
    need = Counter(redex.matched)
    for m, k in need.items():
        if soup.messages[m] < k:
            raise StaleRedex(f"{m} not available")
    out = soup.copy()
    for m, k in need.items():
        out.messages[m] -= k
        if out.messages[m] == 0:
            del out.messages[m]
    rules = out.rules
    key = (redex.rule_index, redex.binding, out.fresh_counter)
    fired = rules.fired.get(key)
    if fired is None:
        emitted = heat(out, substitute(rules[redex.rule_index].body, redex.binding_map()))
        rules.fired[key] = (None if out.rules is rules else out.rules, tuple(emitted), out.fresh_counter)
        return out, emitted
    grown, made, out.fresh_counter = fired
    if grown is not None:
        out.rules = grown
    for m in made:
        out.messages[m] += 1
    return out, list(made)


# ---------------------------------------------------------------------------
# runs and traces


@dataclass
class TraceStep:
    redex: Redex
    emitted: list[GroundMessage]
    digest: str

    @property
    def label(self) -> str:
        return self.redex.label


@dataclass
class Trace:
    initial: Soup
    steps: list[TraceStep] = field(default_factory=list)
    final: Optional[Soup] = None

    def format(self) -> str:
        lines = []
        for n, s in enumerate(self.steps):
            consume = ",".join(str(m) for m in s.redex.matched)
            emit = ",".join(str(m) for m in s.emitted)
            lines.append(f"STEP {n} RULE {s.label} CONSUME {consume} EMIT {emit} DIGEST {s.digest}")
        return "\n".join(lines)


def replay(trace: Trace) -> Soup:
    """Re-fire a trace's redexes from its initial soup, checking that every
    recorded digest is reproduced; returns the final soup."""
    from .canon import canonicalize

    current = trace.initial.copy()
    for step in trace.steps:
        current, _ = reduce_with_info(current, step.redex)
        got = canonicalize(current).digest[: len(step.digest)]
        if got != step.digest:
            raise StaleRedex(f"replay diverged: {got} != {step.digest}")
    return current


def run(soup: Soup, seed: int, max_steps: int) -> Trace:
    """Reduce with a seeded pseudo-random scheduler until inert or out of
    budget.  Identical arguments give identical traces."""
    from .canon import canonicalize

    rng = random.Random(seed)
    current = soup.copy()
    trace = Trace(initial=soup.copy())
    for _ in range(max_steps):
        redexes = enabled_redexes(current)
        if not redexes:
            break
        choice = rng.choice(redexes)
        current, emitted = reduce_with_info(current, choice)
        trace.steps.append(TraceStep(choice, emitted, canonicalize(current).digest[:16]))
    trace.final = current
    return trace


def settle(soup: Soup, max_steps: int) -> tuple[Soup, bool]:
    """Fire the first enabled redex until the soup is inert or ``max_steps``
    reductions were made; also says whether it was found inert."""
    cur = soup
    for _ in range(max_steps):
        rs = enabled_redexes(cur)
        if not rs:
            return cur, True
        cur, _ = reduce_with_info(cur, rs[0])
    return cur, False


# ---------------------------------------------------------------------------
# state-space search


@dataclass
class DetectionStats:
    states_explored: int = 0
    dedup_hits: int = 0
    frontier_peak: int = 0


# a ``search`` visitor returns this to drop an edge without deduplicating it
CUT = object()


@dataclass
class Edge:
    """One reduction out of a searched state, shown to the visitor before
    the state it reaches is canonicalized.  ``step``, which holds the
    digest, is built on first read: by ``search`` for every edge it keeps,
    by :meth:`trace` or by the visitor for the others."""

    soup: Soup
    redex: Redex
    emitted: list[GroundMessage]
    label: Hashable
    parent: tuple
    tree: dict = field(repr=False)
    # the soup's canonical digest and the step, computed on first read
    digest_cache: Optional[str] = field(default=None, init=False, repr=False)
    step_cache: Optional[TraceStep] = field(default=None, init=False, repr=False)

    @property
    def digest(self) -> str:
        """The canonical digest of the soup reached."""
        d = self.digest_cache
        if d is None:
            from .canon import canonicalize

            d = self.digest_cache = canonicalize(self.soup).digest
        return d

    @property
    def step(self) -> TraceStep:
        s = self.step_cache
        if s is None:
            s = self.step_cache = TraceStep(self.redex, self.emitted, self.digest[:16])
        return s

    def trace(self) -> Trace:
        """The reductions from the search's start soup to this edge,
        replayable.  The trace starts from a fresh rules value, so it keeps
        none of the search's caches alive."""
        steps = [self.step]
        entry = self.tree[self.parent]
        while not isinstance(entry, Soup):
            key, step = entry
            steps.append(step)
            entry = self.tree[key]
        start = Soup(Rules(entry.rules), Counter(entry.messages), [], entry.fresh_counter)
        return Trace(initial=start, steps=steps[::-1])


def search(
    starts: Sequence[Soup],
    max_states: int,
    max_depth: Optional[int] = None,
    horizon: Optional[int] = None,
    stats: Optional[DetectionStats] = None,
    label: Optional[Callable] = None,
    root_label: Hashable = None,
    visit: Optional[Callable[[Edge], object]] = None,
) -> Optional[tuple[Edge, object]]:
    """Breadth-first walk of the soups reachable from ``starts``.

    A state's key is its canonical digest joined with a caller label:
    ``root_label`` at the starts, ``label(parent_label, redex, soup,
    emitted)`` along each edge.  Every edge goes to ``visit`` before its
    state is canonicalized; ``visit`` answers None to go on, :data:`CUT` to
    drop the edge, or anything else to end the search, and ``search`` then
    returns ``(edge, answer)``.  It returns None once the space is
    exhausted.  An edge's digest is computed when its ``step`` is first
    read, so a dropped edge whose step no one reads is never canonicalized.

    ``horizon`` is part of the question: states that deep are kept but not
    expanded.  ``max_depth`` and ``max_states`` are budgets: a new state
    deeper than ``max_depth``, or a new state when ``stats`` already counts
    ``max_states`` (start soups are not counted), raises
    :class:`BudgetExhausted` naming that budget, with the depth being
    expanded and the number of states still queued.

    The queue carries each new state with what its reduction changed: the
    parent's redex list (shared by its children, freed once the last one is
    expanded), the parent's rule count and the messages the step made newly
    present.  ``enabled_redexes`` derives the state's list from them, equal
    to matching it afresh; start states are matched afresh.
    """
    from .canon import canonicalize

    stats = stats if stats is not None else DetectionStats()
    tree: dict = {}  # key -> its start soup, or (parent key, step)
    queue: deque = deque()
    for s in starts:
        key = (canonicalize(s).digest, root_label)
        if key not in tree:
            tree[key] = s
            queue.append((key, s, 0, None))
    level = -1
    while queue:
        key, soup, depth, since = queue.popleft()
        if depth != level:
            level = depth
            stats.frontier_peak = max(stats.frontier_peak, len(queue) + 1)
        if depth == horizon:
            continue
        redexes = enabled_redexes(soup, since)
        for r in redexes:
            s2, emitted = reduce_with_info(soup, r)
            lab = label(key[1], r, s2, emitted) if label is not None else root_label
            edge = Edge(s2, r, emitted, lab, key, tree)
            answer = visit(edge) if visit is not None else None
            if answer is CUT:
                continue
            if answer is not None:
                return edge, answer
            key2 = (edge.digest, lab)
            if key2 in tree:
                stats.dedup_hits += 1
                continue
            if max_depth is not None and depth + 1 > max_depth:
                raise BudgetExhausted("max_depth", max_depth, depth, len(queue))
            if stats.states_explored >= max_states:
                raise BudgetExhausted("max_states", max_states, depth, len(queue))
            tree[key2] = (key, edge.step)
            stats.states_explored += 1
            fresh = {m for m in emitted if m not in soup.messages}
            queue.append((key2, s2, depth + 1, (redexes, len(soup.rules), fresh)))
    return None


# ---------------------------------------------------------------------------
# observation predicates


def name_matches(query: Name, actual: Name) -> bool:
    """Source-name queries match any activation of that base; indexed
    queries match exactly."""
    if query.index is None:
        return actual.base == query.base
    return query == actual


def atom_matches(query: Atom, actual: Atom) -> bool:
    if isinstance(query, Name) and isinstance(actual, Name):
        return name_matches(query, actual)
    if isinstance(query, Pair) and isinstance(actual, Pair):
        return atom_matches(query.first, actual.first) and atom_matches(query.second, actual.second)
    return query == actual


def atom_contains(query: Atom, actual: Atom) -> bool:
    """The queried atom occurs in ``actual``, looking inside pairs."""
    if atom_matches(query, actual):
        return True
    if isinstance(actual, Pair):
        return atom_contains(query, actual.first) or atom_contains(query, actual.second)
    return False


def message_observable(msg: GroundMessage, channel: Name, value: Optional[Atom]) -> bool:
    if not name_matches(channel, msg.channel):
        return False
    if value is None:
        return True
    return any(atom_contains(value, a) for a in msg.args)


def barb(soup: Soup, channel: Name, value: Optional[Atom] = None, depth: int = 8, max_states: int = 4000) -> bool:
    """Can some soup reachable within ``depth`` reductions show a message on
    ``channel`` (carrying ``value``, when given)?  Raises
    :class:`BudgetExhausted` when ``max_states`` trips first."""

    def shows(s: Soup) -> bool:
        return any(message_observable(m, channel, value) for m in s.messages)

    if shows(soup):
        return True
    return search([soup], max_states, horizon=depth, visit=lambda e: shows(e.soup) or None) is not None


def valued_reaction(soup: Soup, channel: Name, value: Atom) -> Optional[Soup]:
    """If a message on ``channel`` carrying ``value`` is present and captured
    by an active rule, resolve that reaction and return the new soup."""
    for r in enabled_redexes(soup):
        if any(message_observable(m, channel, value) for m in r.matched):
            return reduce(soup, r)
    return None

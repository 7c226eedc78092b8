"""Self-replication detection.

A program replicates when running it inside an environment lands its own
abstraction channel on a qualifying target: a resource access channel
(including those of resources created at run time), an export channel
crossing to a remote system, or a channel nothing in the plugged system
defines.  On defined channels the event is the consuming reaction actually
firing and keeping the payload; on undefined ones it is the emission
itself.  Service channels and the environment's internal plumbing never
qualify.

Two routes are provided: ``explore`` walks the reachable configurations
exhaustively with congruence-based deduplication (a semi-decision: it may
exhaust its budget on diverging systems), and ``detect_via_coverability``
decides the question exactly for programs in the no-name-generation
fragment by reduction to Petri-net coverability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Dict, FrozenSet, List, Optional, Sequence as Seq, Tuple

from .canon import canonicalize
from .contexts import Context, defined_bases
from .desugar import FragmentReport, check_core_fragment, desugar
from .engine import (
    CUT,
    ActiveRule,
    BudgetExhausted,
    DetectionStats,
    GroundMessage,
    ModelError,
    Redex,
    Rules,
    Soup,
    Trace,
    TraceStep,
    heat,
    inject,
    inject_message,
    reduce_with_info,
    search,
    settle,
)
from .malware import abstraction_channel
from .petri import Marking, PetriNet, Transition, coverable, fire_sequence, leq
from .syntax import (
    Atom,
    Name,
    Pair,
    Process,
    SubstitutionError,
    free_names,
    substitute,
)


class FragmentViolation(Exception):
    def __init__(self, report: FragmentReport):
        self.report = report
        kinds = ", ".join(sorted({k for _, k in report.violations}))
        super().__init__(f"program outside the decidable fragment: {kinds}")


class ExplosionGuard(BudgetExhausted):
    """Grounding would instantiate more rules than its budget allows."""


class InvalidActivation(Exception):
    pass


@dataclass
class DetectionVerdict:
    outcome: str  # "vulnerable" | "not_vulnerable" | "budget_exhausted"
    witness: Optional[Trace] = None
    stats: DetectionStats = field(default_factory=DetectionStats)
    notes: List[str] = field(default_factory=list)

    @property
    def vulnerable(self) -> bool:
        return self.outcome == "vulnerable"


# the steps a replication hit gets to settle into a completed state
_COMPLETION_STEPS = 400

_CLAUSE_NOTE = (
    "free-channel clause evaluated against every channel defined by the plugged "
    "system; write channels of run-time-created resources qualify as targets"
)


class _Qualifier:
    """Decides which reactions count as replication of the tested program.

    On a channel some active rule defines (resources, exports), replication
    lands when the consuming reaction fires - a request that never matches,
    for instance because a guard changed the channel's shape, is not a
    replication.  On channels nothing defines, the emission itself is the
    event, since no reaction will ever resolve it.

    A payload carries the program when it is the program's own abstraction
    channel, or an activated abstraction whose rule body references one
    (infected wrappers produced by append/prepend-style mechanisms).
    Desugar-generated reply channels are never counted as carriers.
    """

    def __init__(self, ctx: Context, plugged_core: Process, self_base: Optional[str]):
        self.self_base = self_base
        self.r_bases = ctx.resources | ctx.dynamic_resource_bases
        self.export_bases = ctx.exports
        self.known = defined_bases(plugged_core) | ctx.services | self.r_bases
        # for one verdict: the carriers of each rules value met, and the free
        # names of each rule body outside the rule's binders
        self._carrier_cache: Dict[Rules, set[Name]] = {}
        self._free: Dict[ActiveRule, FrozenSet[Name]] = {}

    def _carriers(self, soup: Soup) -> set[Name]:
        carriers = self._carrier_cache.get(soup.rules)
        if carriers is None:
            carriers = self._carrier_cache[soup.rules] = self._find_carriers(soup.rules)
        return carriers

    def _find_carriers(self, rules: Tuple[ActiveRule, ...]) -> set[Name]:
        assert self.self_base is not None
        viral_names: set[Name] = set()
        carriers: set[Name] = set()
        changed = True
        while changed:
            changed = False
            for r in rules:
                if len(r.heads) != 1:
                    continue
                ch = r.heads[0].channel
                if ch.base == "k" or ch in carriers:
                    continue
                for n in self._free_outside_binders(r):
                    if n.base == self.self_base or n in viral_names:
                        carriers.add(ch)
                        viral_names.add(ch)
                        changed = True
                        break
        return carriers

    def _free_outside_binders(self, r: ActiveRule) -> FrozenSet[Name]:
        free = self._free.get(r)
        if free is None:
            free = self._free[r] = frozenset(free_names(r.body) - {b for h in r.heads for b in h.binders})
        return free

    def _payload_viral(self, atom: Atom, soup: Soup) -> bool:
        if isinstance(atom, Name):
            if atom.base == self.self_base:
                return True
            return atom in self._carriers(soup)
        if isinstance(atom, Pair):
            return self._payload_viral(atom.first, soup) or self._payload_viral(atom.second, soup)
        return False

    def viral_message(self, m: GroundMessage, soup: Soup) -> bool:
        if self.self_base is None:
            return False
        return any(self._payload_viral(a, soup) for a in m.args)

    @staticmethod
    def _consumable(soup: Soup, m: GroundMessage) -> bool:
        return any(h.channel == m.channel for r in soup.rules for h in r.heads)

    def emission_hit(self, m: GroundMessage, soup: Soup) -> bool:
        """A viral payload lands on a channel no reaction will ever resolve."""
        if not self.viral_message(m, soup):
            return False
        base = m.channel.base
        if base in self.r_bases or base in self.export_bases:
            return not self._consumable(soup, m)
        return base not in self.known

    def on_target_channel(self, m: GroundMessage) -> bool:
        return m.channel.base in self.r_bases or m.channel.base in self.export_bases

    def consumption_hit(self, m: GroundMessage, soup: Soup) -> bool:
        """A viral payload on a target channel was consumed by a reaction."""
        return self.on_target_channel(m) and self.viral_message(m, soup)

    def step_hit(self, matched, emitted, soup_after: Soup):
        """The replication event of one reduction step, if any.

        Consuming a viral request on a target channel only counts when the
        reaction keeps the payload alive (stores or forwards it); a guard
        that swallows the request and restores its state has blocked the
        replication, not performed it.
        """
        landed = any(self.viral_message(m, soup_after) for m in emitted)
        if landed:
            for m in matched:
                if self.consumption_hit(m, soup_after):
                    return m
        for m in emitted:
            if self.emission_hit(m, soup_after):
                return m
        return None


def _self_base(p: Process, self_channel: Optional[Name]) -> Optional[str]:
    """The program's own channel base: the one given, else its abstraction's."""
    ch = self_channel if self_channel is not None else abstraction_channel(p)
    return ch.base if ch is not None else None


def _prepare(ctx: Context, p: Process, self_channel: Optional[Name]):
    plugged = ctx.plug(p)
    core = desugar(plugged)
    qual = _Qualifier(ctx, core, _self_base(p, self_channel))
    soup = Soup()
    emitted = heat(soup, core)
    return soup, emitted, qual


def explore(
    ctx: Context,
    p: Process,
    max_states: int = 10_000,
    max_steps_per_branch: int = 400,
    self_channel: Optional[Name] = None,
) -> DetectionVerdict:
    """Exhaustive breadth-first search for a qualifying emission.

    States are deduplicated by canonical digest; revisiting a congruent
    configuration cuts the branch, which silences loops that keep reacting
    without producing new behaviour.  ``budget_exhausted`` is returned
    instead of ``not_vulnerable`` whenever a budget trips with work left.
    """
    soup0, emitted0, qual = _prepare(ctx, p, self_channel)
    stats = DetectionStats(states_explored=1)
    notes = [_CLAUSE_NOTE]
    hit0 = next((m for m in emitted0 if qual.emission_hit(m, soup0)), None)
    if hit0 is not None:
        return DetectionVerdict(
            "vulnerable",
            Trace(initial=soup0.copy()),
            stats,
            notes + [f"initial configuration already emits {hit0}"],
        )

    def hit(edge):
        return qual.step_hit(edge.redex.matched, edge.emitted, edge.soup)

    try:
        found = search([soup0], max_states, max_steps_per_branch, stats=stats, visit=hit)
    except BudgetExhausted as e:
        return DetectionVerdict("budget_exhausted", None, stats, notes + [str(e)])
    if found is None:
        return DetectionVerdict("not_vulnerable", None, stats, notes)
    edge, event = found
    return DetectionVerdict("vulnerable", edge.trace(), stats, notes + [f"replication event {event}"])


# ---------------------------------------------------------------------------
# iterated (viable) replication


def viral_set_member(
    ctx: Context,
    p: Process,
    iterations: int = 2,
    max_states: int = 10_000,
    max_steps_per_branch: int = 400,
    activations: Optional[Seq[Name]] = None,
    self_channel: Optional[Name] = None,
) -> DetectionVerdict:
    """Check iterated replication: the program must replicate once when
    executed, and each activation of an infected resource must replicate
    again, ``iterations`` times in total.

    Each iteration searches from every configuration the previous one
    completed in, for the program's abstraction firing and a replication
    event following it.  Activation messages are sent on resource exec
    channels with fresh inert arguments, so they cannot simulate viral
    activity themselves.  The state budget is shared by all iterations.  A
    replication before the last iteration that still reacts after
    ``_COMPLETION_STEPS`` settling steps starts nothing and counts as a
    tripped ``completion_steps`` budget; the last iteration's replications
    start nothing, so they are not settled.
    """
    if iterations < 2:
        raise ValueError("viable replication is defined for at least 2 iterations")
    soup0, _, qual = _prepare(ctx, p, self_channel)
    if qual.self_base is None:
        return DetectionVerdict("not_vulnerable", None, DetectionStats(states_explored=1), [_CLAUSE_NOTE])

    exec_bases = set(ctx.exec_bases)
    if activations is not None:
        if len(activations) < iterations - 1:
            raise InvalidActivation(f"need {iterations - 1} activation channels, got {len(activations)}")
        for a in activations:
            if a.base not in exec_bases:
                raise InvalidActivation(f"{a} is not a resource exec channel")

    def fired(phase: bool, r: Redex, s2: Soup, emitted) -> bool:
        """Whether the program's abstraction has fired on the way here."""
        return phase or any(m.channel.base == qual.self_base for m in r.matched)

    stats = DetectionStats()
    notes = [_CLAUSE_NOTE, "activations use fresh inert arguments"]
    # a budget that trips (the search's, or a completion's that does not
    # settle) leaves the next iterations searching from a partial start set:
    # none may then report not_vulnerable
    tripped: Optional[BudgetExhausted] = None
    witness: Optional[Trace] = None
    states = [soup0]
    for it in range(iterations):
        if it == 0:
            starts = states
        else:
            starts = []
            for s in states:
                if activations is not None:
                    chans = s.channels(activations[it - 1].base)
                else:
                    chans = []
                    for b in sorted(exec_bases):
                        chans.extend(s.channels(b))
                for ch in chans:
                    starts.append(
                        inject_message(s, ch, (Name(f"act{it}"), Name(f"act_done{it}")))
                    )
        # each completed state once, first occurrence first: a repeat (same
        # rules tuple and message counts) would only seed starts that the
        # search drops as duplicates after canonicalizing them
        completed: Dict[tuple, Soup] = {}
        traces: List[Trace] = []
        last = it == iterations - 1

        def replicated(edge):
            nonlocal tripped
            if not edge.label or qual.step_hit(edge.redex.matched, edge.emitted, edge.soup) is None:
                return None
            if not traces:
                traces.append(edge.trace())
            if last:  # the last iteration's completions would start nothing
                return CUT
            done, quiet = settle(edge.soup, _COMPLETION_STEPS)
            if not quiet:  # still reacting: no completed state to start from
                tripped = BudgetExhausted("completion_steps", _COMPLETION_STEPS)
                return CUT
            completed.setdefault((done.rules, frozenset(done.messages.items())), done)
            return CUT

        try:
            search(starts, max_states, max_steps_per_branch, stats=stats,
                   label=fired, root_label=False, visit=replicated)
        except BudgetExhausted as e:
            tripped = e
        if not (traces if last else completed):
            outcome = "budget_exhausted" if tripped else "not_vulnerable"
            budget_note = [str(tripped)] if tripped else []
            return DetectionVerdict(outcome, None, stats, notes + budget_note + [f"iteration {it + 1} failed"])
        states = list(completed.values())
        witness = traces[0]
        notes.append(f"iteration {it + 1} replicated")
    return DetectionVerdict("vulnerable", witness, stats, notes)


# ---------------------------------------------------------------------------
# grounding and the decidable route


@dataclass(frozen=True)
class GroundRule:
    rule_index: int
    guard: Tuple[GroundMessage, ...]
    body: Tuple[GroundMessage, ...]
    binding: Tuple[Tuple[Name, Atom], ...]

    @property
    def label(self) -> str:
        return "&".join(str(g) for g in self.guard)


@dataclass
class GroundSystem:
    rules: List[GroundRule]
    initial: List[GroundMessage]
    soup: Soup


def ground(p: Process, max_instances: int = 1_000_000) -> GroundSystem:
    """Instantiate every rule on the messages that can ever be produced.

    A fixpoint from the initial messages joins each new message with those
    known before it, and the bodies of the instances it forms add messages
    in turn; a fragment body emits only binder values and constants, so the
    fixpoint is finite.  Instances are ordered by rule, then by binding.
    Bodies are heated as a reaction would heat them, which resolves
    conditionals; a binding that puts a non-channel atom in channel position
    or projects from a non-pair is skipped as type-inconsistent.
    ``max_instances`` bounds the bindings tried.
    """
    report = check_core_fragment(p)
    if not report.in_fragment:
        raise FragmentViolation(report)
    soup = inject(p)
    initial = list(soup.message_list())
    known: Dict[Tuple[Name, int], Dict[GroundMessage, None]] = {}  # by channel and arity
    todo = list(initial)
    rules: List[GroundRule] = []
    tried = 0
    while todo:
        m = todo.pop()
        key = (m.channel, len(m.args))
        if m in known.setdefault(key, {}):
            continue
        known[key][m] = None
        # the joins ``m`` makes with the messages known before it; a join
        # pattern never repeats a channel, so ``m`` fits one head at most
        for idx, rule in enumerate(soup.rules):
            keys = [(h.channel, len(h.binders)) for h in rule.heads]
            if key not in keys:
                continue
            for guard in product(*([m] if k == key else known.get(k, ()) for k in keys)):
                tried += 1
                if tried > max_instances:
                    raise ExplosionGuard("max_instances", max_instances)
                binding = tuple(pair for h, g in zip(rule.heads, guard) for pair in zip(h.binders, g.args))
                try:
                    body = heat(Soup(), substitute(rule.body, dict(binding)))
                except (SubstitutionError, ModelError):
                    continue
                rules.append(GroundRule(idx, guard, tuple(body), binding))
                todo += body
    rules.sort(key=lambda gr: (gr.rule_index, [str(a) for _, a in gr.binding]))
    return GroundSystem(rules, initial, soup)


def to_petri(gs: GroundSystem) -> Tuple[PetriNet, Marking, List[GroundMessage]]:
    """One place per ground message, one transition per rule instance, in
    rule order.  Definitions persist, so transitions need no control places."""
    places: Dict[GroundMessage, int] = {}
    for m in gs.initial:
        places.setdefault(m, len(places))
    for gr in gs.rules:
        for m in gr.guard + gr.body:
            places.setdefault(m, len(places))
    net = PetriNet([str(m) for m in places], [])

    def marking(msgs: Seq[GroundMessage]) -> Marking:
        return net.marking((places[m], 1) for m in msgs)

    net.transitions = [Transition(marking(gr.guard), marking(gr.body), gr.label) for gr in gs.rules]
    return net, marking(gs.initial), list(places)


def detect_via_coverability(ctx: Context, p: Process, self_channel: Optional[Name] = None) -> DetectionVerdict:
    """Exact decision on the no-name-generation fragment: build the ground
    system, convert to a net, and ask one coverability question for all
    the markings that would witness a qualifying emission.

    ``ground`` checks the fragment on the plugged program as written:
    synchronous calls are rejected even when their compilation would happen
    to stay fragment-safe, since fragment services must use fixed reply
    channels.
    """
    plugged = ctx.plug(p)
    gs = ground(plugged)
    qual = _Qualifier(ctx, plugged, _self_base(p, self_channel))
    net, init, place_msgs = to_petri(gs)
    stats = DetectionStats(states_explored=len(gs.rules))
    notes = [_CLAUSE_NOTE, f"{len(place_msgs)} places, {len(net.transitions)} transitions"]

    # a qualifying emission may already sit in the initial marking
    for m in gs.initial:
        if qual.emission_hit(m, gs.soup):
            return DetectionVerdict("vulnerable", _replay(gs, []), stats, notes + [f"initial emission {m}"])

    # consumption targets: the preset of a reaction resolving a viral
    # payload on a target channel must be coverable for it to fire; the
    # instance must also keep the payload alive in its body
    targets: List[Tuple[Marking, str]] = []
    for t, gr in zip(net.transitions, gs.rules):
        if not any(qual.viral_message(b, gs.soup) for b in gr.body):
            continue
        for g in gr.guard:
            if qual.consumption_hit(g, gs.soup):
                targets.append((t.pre, f"reaction on {g}"))
                break
    # emission targets: viral payloads on channels nothing resolves, in
    # label order, which does not depend on how grounding numbered the places
    for i, m in sorted(enumerate(place_msgs), key=lambda im: str(im[1])):
        if qual.emission_hit(m, gs.soup):
            targets.append((net.marking({i: 1}), f"emission {m}"))

    ok, seq = coverable(net, init, *(target for target, _ in targets)) if targets else (False, None)
    if not ok:
        return DetectionVerdict("not_vulnerable", None, stats, notes)
    # name the covered target with the least label, which does not depend
    # on the order in which grounding numbered the places
    final = fire_sequence(init, net, seq)
    label = min(label for target, label in targets if leq(target, final))
    return DetectionVerdict("vulnerable", _replay(gs, seq), stats, notes + [f"coverability witness: {label}"])


def _replay(gs: GroundSystem, transition_seq: List[int]) -> Trace:
    """Fire the witness transitions in the machine to get a replayable trace."""
    soup = gs.soup.copy()
    steps: List[TraceStep] = []
    for ti in transition_seq:
        gr = gs.rules[ti]
        redex = Redex(gr.rule_index, soup.rules[gr.rule_index].label, gr.guard, gr.binding)
        soup, emitted = reduce_with_info(soup, redex)
        steps.append(TraceStep(redex, emitted, canonicalize(soup).digest[:16]))
    return Trace(initial=gs.soup.copy(), steps=steps)

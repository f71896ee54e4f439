"""Distributed runs: occurrence-net modules recording one behavior.

A run's conditions carry (place, value), its events (transition,
binding); the flow relation is acyclic and conditions are unbranched, so
independence of events is explicit.  A run is itself a module: its left
interface exposes the initial cut, its right interface the final cut,
and run segments compose with the ordinary module composition (fused
conditions must agree on place and value).

Simulation builds a run from a system under a scheduling policy; every
linearization of a valid run replays as a firing sequence.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (CompositionError, EvalError, ModelError, ScriptError,
                     Violation)
from .modules import Module, PLACE, InterfaceElement, compose
from .nets import (Condition, Event, Marking, OccurrenceNet, Stepper,
                   guarded_occurrence)
from .signature import value_in_sort
from .systems import System
from .terms import Binding, render_binding
from .values import Multiset, Value, render_value


@dataclass(frozen=True)
class SchedulingPolicy:
    """How simulate resolves choice: seeded uniform, or a fixed script."""

    mode: str = "random"  # "random" | "script"
    seed: int = 0
    step_limit: int = 0
    script: tuple[tuple[str, Binding], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in ("random", "script"):
            raise ValueError(f"unknown policy mode {self.mode!r}")
        if self.step_limit < 0:
            raise ValueError("step_limit must be >= 0")
        if self.mode == "script" and self.step_limit > len(self.script):
            raise ValueError(f"step_limit {self.step_limit} exceeds the "
                             f"{len(self.script)} steps of the script")


def random_policy(seed: int, steps: int) -> SchedulingPolicy:
    return SchedulingPolicy("random", seed=seed, step_limit=steps)


def scripted_policy(steps) -> SchedulingPolicy:
    script = tuple((name, b) for name, b in steps)
    return SchedulingPolicy("script", step_limit=len(script), script=script)


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

def simulate(sys: System, policy: SchedulingPolicy) -> Module:
    """Execute up to ``step_limit`` firings and record them as a run.

    The current cut is kept per place in creation order.  One
    :class:`Stepper` enables and fires every step on the interned states
    ``explore`` steps on: the initial marking is encoded once, the
    options at each state are :meth:`Stepper.enabled` of each transition
    in name order, and :meth:`Stepper.fire` gives the chosen one's tokens
    and the next state.  So a transition whose input tokens did not
    change is not matched again, and a repeated (transition, binding) is
    evaluated only once.  Each firing appends one event that consumes
    conditions holding its input tokens (among equal tokens, the oldest)
    and produces fresh conditions for its output tokens.  The final cut
    equals the marking reached by sequential replay.
    """
    net, s = sys.net, sys.structure
    conditions: list[Condition] = []
    events: list[Event] = []
    flow: list[tuple[str, str]] = []
    cut: dict[str, list[Condition]] = {}

    def new_condition(place: str, value: Value) -> Condition:
        c = Condition(f"b{len(conditions)}", place, value)
        conditions.append(c)
        cut.setdefault(place, []).append(c)
        return c

    for place, tokens in sys.initial.items():
        for v in tokens:
            new_condition(place, v)
    initial_conditions = list(conditions)

    stepper = Stepper(net, s)
    state, _ = stepper.encoding(sys.initial)
    rng = random.Random(policy.seed)
    steps_taken = 0
    while steps_taken < policy.step_limit:
        if policy.mode == "script":
            wanted_name, wanted = policy.script[steps_taken]
            if not net.has_transition(wanted_name):
                raise ScriptError(f"script step {steps_taken + 1}: "
                                  f"no transition {wanted_name!r}")
            matches = [(wanted_name, b)
                       for b in stepper.enabled(state, wanted_name)
                       if b.extends(wanted)]
            if not matches:
                variables = dict(net.transition(wanted_name).variables)
                for v, _ in wanted.pairs():
                    if v not in variables:
                        raise ScriptError(f"script step {steps_taken + 1}: "
                                          f"{wanted_name} has no variable {v!r}")
                raise ScriptError(
                    f"script step {steps_taken + 1}: {wanted_name} "
                    f"{render_binding(wanted)} is not enabled")
            if len(matches) > 1:
                raise ScriptError(
                    f"script step {steps_taken + 1}: {wanted_name} "
                    f"{render_binding(wanted)} matches {len(matches)} bindings; "
                    "add assignments to disambiguate")
            name, binding = matches[0]
        else:
            options = [(t.name, b) for t in stepper.transitions
                       for b in stepper.enabled(state, t.name)]
            if not options:
                break
            name, binding = options[rng.randrange(len(options))]

        (consumed, produced), state = stepper.fire(state, name, binding)
        event = Event(f"e{len(events)}", name, binding)
        events.append(event)
        for place in sorted(consumed):
            pool = cut.get(place, [])
            for value in Multiset._from_pairs(consumed[place]):
                i = next(i for i, c in enumerate(pool) if c.value == value)
                flow.append((pool.pop(i).id, event.id))
        for place in sorted(produced):
            for value in Multiset._from_pairs(produced[place]):
                flow.append((event.id, new_condition(place, value).id))
        steps_taken += 1

    final_conditions = [c for place in sorted(cut) for c in cut[place]]
    inner = OccurrenceNet(tuple(conditions), tuple(events), tuple(flow))
    return Module(
        f"{sys.name}_run", sys.name, inner,
        left=_cut_interface(initial_conditions),
        right=_cut_interface(final_conditions),
    )


def _cut_interface(conds: list[Condition]) -> tuple[InterfaceElement, ...]:
    """Label a cut deterministically: ``place:value``, with ``#k`` added
    when several conditions carry equal labels.  ``conds`` lists each
    place's conditions in creation order, which numbers them."""
    ordered = sorted(conds, key=lambda c: (c.place, c.value.key()))
    by_label: dict[tuple[str, str], list[Condition]] = {}
    for c in ordered:
        by_label.setdefault((c.place, render_value(c.value)), []).append(c)
    elements = []
    for (place, value_text), group in by_label.items():
        for i, c in enumerate(group, start=1):
            suffix = f"#{i}" if len(group) > 1 else ""
            elements.append(InterfaceElement(PLACE, f"{place}:{value_text}{suffix}", c.id))
    elements.sort(key=lambda e: e.label)
    return tuple(elements)


# ---------------------------------------------------------------------------
# Cuts and causal order
# ---------------------------------------------------------------------------

def initial_cut(run: Module) -> Marking:
    inner = _occurrence(run)
    return _cut(inner.conditions, inner.pre)


def final_cut(run: Module) -> Marking:
    inner = _occurrence(run)
    return _cut(inner.conditions, inner.post)


def _cut(conditions: Iterable[Condition],
         linked: Callable[[str], tuple[str, ...]]) -> Marking:
    """The tokens of the conditions that ``linked`` (a pre- or post-set
    lookup) connects to no event."""
    per_place: dict[str, list[Value]] = {}
    for c in conditions:
        if not linked(c.id):
            per_place.setdefault(c.place, []).append(c.value)
    return Marking({p: Multiset(vs) for p, vs in per_place.items()})


def ordered(run: Module, e1: str | Event, e2: str | Event) -> str:
    """Causal order of two events: 'before', 'after', or 'independent'.

    An event is 'before' itself by convention.
    """
    inner = _occurrence(run)
    a = e1.id if isinstance(e1, Event) else e1
    b = e2.id if isinstance(e2, Event) else e2
    inner.event(a)
    inner.event(b)
    if a == b or _reaches(inner, a, b):
        return "before"
    if _reaches(inner, b, a):
        return "after"
    return "independent"


def _reaches(inner: OccurrenceNet, src: str, dst: str) -> bool:
    seen = {src}
    stack = [src]
    while stack:
        node = stack.pop()
        for nxt in inner.post(node):
            if nxt == dst:
                return True
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def find_event(run: Module, transition: str,
               partial: Binding | None = None) -> Event:
    """The unique event with this transition whose binding extends
    ``partial``; raises if none or several."""
    inner = _occurrence(run)
    matches = [e for e in inner.events
               if e.transition == transition
               and (partial is None or e.binding.extends(partial))]
    if len(matches) != 1:
        raise ModelError(
            f"{len(matches)} events match {transition} "
            f"{render_binding(partial) if partial else ''}")
    return matches[0]


def _occurrence(run: Module) -> OccurrenceNet:
    if not isinstance(run.inner, OccurrenceNet):
        raise ModelError(f"module {run.name!r} is not a run")
    return run.inner


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_run(run: Module, sys: System) -> list[Violation]:
    """Check that ``run`` is a distributed run of ``sys``.

    Verifies graph shape (acyclic, unbranched conditions, bipartite
    flow), per-event consistency (a binding of exactly the transition's
    variables, guard true under it, pre- and post-sets matching the
    evaluated arc inscriptions), and that the initial cut is part of the
    initial marking.  Empty report iff valid.
    """
    out: list[Violation] = []
    if not isinstance(run.inner, OccurrenceNet):
        return [Violation("not-a-run", f"module {run.name!r} has a schematic inner net")]
    inner = run.inner
    net, s = sys.net, sys.structure

    for c in inner.conditions:
        try:
            place = net.place(c.place)
        except KeyError:
            out.append(Violation(
                "unknown-place",
                f"condition {c.id} is labeled with unknown place {c.place!r}"))
            continue
        if place.sort is not None and not value_in_sort(c.value, place.sort, s):
            out.append(Violation(
                "token-sort",
                f"condition {c.id} carries {render_value(c.value)}, outside "
                f"the sort of {c.place!r}"))

    conditions, events = inner.index.conditions, inner.index.events
    for src, tgt in inner.flow:
        if not ((src in conditions and tgt in events)
                or (src in events and tgt in conditions)):
            out.append(Violation(
                "flow", f"flow arc {src} -> {tgt} must connect a condition "
                "and an event"))
    if inner.topo_levels() is None:
        out.append(Violation("cycle", "the flow relation is cyclic"))
    for c in inner.conditions:
        if len(inner.pre(c.id)) > 1:
            out.append(Violation(
                "branching", f"condition {c.id} is produced by several events"))
        if len(inner.post(c.id)) > 1:
            out.append(Violation(
                "branching", f"condition {c.id} is consumed by several events"))

    for e in inner.events:
        try:
            transition = net.transition(e.transition)
        except KeyError:
            out.append(Violation(
                "unknown-transition",
                f"event {e.id} is labeled with unknown transition {e.transition!r}"))
            continue
        assigned = [name for name, _ in e.binding.pairs()]
        declared = [name for name, _ in transition.variables]
        if assigned != declared:
            out.append(Violation(
                "binding", f"event {e.id}: the binding assigns [{', '.join(assigned)}], "
                f"but {e.transition!r} has the variables [{', '.join(declared)}]"))
            continue
        try:
            found = guarded_occurrence(net, e.transition, e.binding, s)
        except EvalError as exc:  # evaluation failure under this binding
            out.append(Violation(
                "binding", f"event {e.id}: {exc}"))
            continue
        if found is None:
            out.append(Violation(
                "guard", f"event {e.id}: guard of {e.transition!r} is false "
                f"under {render_binding(e.binding)}"))
            continue
        consumed, produced = found
        for label, expected, linked in (("pre", consumed, inner.pre(e.id)),
                                        ("post", produced, inner.post(e.id))):
            got: dict[str, dict[Value, int]] = {}
            for cid in linked:
                c = conditions.get(cid)
                if c is not None:
                    counts = got.setdefault(c.place, {})
                    counts[c.value] = counts.get(c.value, 0) + 1
            if got != {p: counts for p, counts in expected.items() if counts}:
                out.append(Violation(
                    f"{label}-set",
                    f"event {e.id} ({e.transition}): {label}-set does not match "
                    "the evaluated arc inscriptions"))

    start = initial_cut(run)
    for place, tokens in start.items():
        if not tokens <= sys.initial.get(place):
            out.append(Violation(
                "initial-cut",
                f"initial cut puts tokens on {place!r} beyond the initial marking"))
    return out


# ---------------------------------------------------------------------------
# Composition and linearization
# ---------------------------------------------------------------------------

def compose_runs(r1: Module, r2: Module) -> Module:
    """Module composition, then a check that the result is again a run."""
    result = compose(r1, r2)
    if not isinstance(result.inner, OccurrenceNet):
        return result  # one operand was the neutral empty module
    inner = result.inner
    for c in inner.conditions:
        if len(inner.pre(c.id)) > 1 or len(inner.post(c.id)) > 1:
            raise CompositionError(
                f"composing runs branches condition {c.id} "
                f"({c.place}, {render_value(c.value)})")
    if inner.topo_levels() is None:
        raise CompositionError("composing runs creates a causal cycle")
    return result


def linearize(run: Module, seed: int = 0) -> list[tuple[str, Binding]]:
    """One admissible total order of the run's events (seed-dependent)."""
    inner = _occurrence(run)
    if inner.topo_levels() is None:
        raise ModelError("cannot linearize a cyclic run")
    # an event waits for the producer of each condition it consumes (of
    # several, the last in flow order); a producer that is no event never
    # occurs, so its consumers stay pending
    conditions = inner.index.conditions
    pending = {e.id: e for e in inner.events}
    waiting: dict[str, int] = {}
    consumers: dict[str, list[str]] = {}
    for eid in pending:
        producers = {inner.pre(cid)[-1] for cid in inner.pre(eid)
                     if cid in conditions and inner.pre(cid)}
        waiting[eid] = len(producers)
        for producer in producers:
            consumers.setdefault(producer, []).append(eid)
    ready = sorted(eid for eid, n in waiting.items() if n == 0)
    rng = random.Random(seed)
    result: list[tuple[str, Binding]] = []
    while ready:
        event = pending.pop(ready.pop(rng.randrange(len(ready))))
        result.append((event.transition, event.binding))
        for eid in consumers.get(event.id, ()):
            waiting[eid] -= 1
            if waiting[eid] == 0:
                insort(ready, eid)
    if pending:
        raise ModelError("cannot linearize: cyclic event dependencies")
    return result

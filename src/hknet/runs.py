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
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import (CompositionError, EvalError, ModelError, ScriptError,
                     Violation)
from .modules import Module, PLACE, InterfaceElement, compose
from .nets import (Condition, Event, Marking, OccurrenceNet,
                   enabled_bindings)
from .signature import value_in_sort
from .systems import System
from .terms import Binding, eval_guard, inscription_tokens, render_binding
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

    The current cut is maintained explicitly; each firing appends one
    event that consumes conditions holding its input tokens (among equal
    tokens, the oldest condition) and produces fresh conditions for its
    output tokens.  The final cut always equals the marking reached by
    sequential replay.
    """
    net, s = sys.net, sys.structure
    conditions: list[Condition] = []
    events: list[Event] = []
    flow: list[tuple[str, str]] = []
    cut: dict[str, list[Condition]] = {}
    order: dict[str, int] = {}

    def new_condition(place: str, value: Value) -> Condition:
        c = Condition(f"b{len(conditions)}", place, value)
        conditions.append(c)
        order[c.id] = len(order)
        cut.setdefault(place, []).append(c)
        return c

    for place, tokens in sys.initial.items():
        for v in tokens:
            new_condition(place, v)
    initial_conditions = list(conditions)

    marking = sys.initial
    rng = random.Random(policy.seed)
    steps_taken = 0
    while steps_taken < policy.step_limit:
        if policy.mode == "script":
            wanted_name, wanted = policy.script[steps_taken]
            matches = [(wanted_name, b)
                       for b in enabled_bindings(net, marking, wanted_name, s)
                       if b.extends(wanted)]
            if not matches:
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
            options = [(t.name, b)
                       for t in sorted(net.transitions, key=lambda t: t.name)
                       for b in enabled_bindings(net, marking, t, s)]
            if not options:
                break
            name, binding = options[rng.randrange(len(options))]

        event = Event(f"e{len(events)}", name, binding)
        events.append(event)
        transition = net.transition(name)
        for arc in sorted(net.arcs_into(name), key=lambda a: a.source):
            needed = inscription_tokens(arc.inscription, s, binding)
            for value in needed:
                candidates = [c for c in cut.get(arc.source, ()) if c.value == value]
                chosen = min(candidates, key=lambda c: order[c.id])
                cut[arc.source].remove(chosen)
                flow.append((chosen.id, event.id))
        for arc in sorted(net.arcs_out_of(name), key=lambda a: a.target):
            produced = inscription_tokens(arc.inscription, s, binding)
            for value in produced:
                c = new_condition(arc.target, value)
                flow.append((event.id, c.id))
        marking = sys.fire(marking, transition.name, binding)
        steps_taken += 1

    final_conditions = [c for place in sorted(cut) for c in cut[place]]
    inner = OccurrenceNet(tuple(conditions), tuple(events), tuple(flow))
    return Module(
        f"{sys.name}_run", sys.name, inner,
        left=_cut_interface(initial_conditions, order),
        right=_cut_interface(final_conditions, order),
    )


def _cut_interface(conds: list[Condition],
                   order: dict[str, int]) -> tuple[InterfaceElement, ...]:
    """Label a cut deterministically: ``place:value``, with ``#k`` added
    per creation order when several conditions carry equal labels."""
    ordered = sorted(conds, key=lambda c: (c.place, c.value.key(), order[c.id]))
    by_label: dict[tuple[str, str], list[Condition]] = {}
    for c in ordered:
        by_label.setdefault((c.place, render_value(c.value)), []).append(c)
    elements = []
    for (place, value_text), group in by_label.items():
        if len(group) == 1:
            elements.append(InterfaceElement(PLACE, f"{place}:{value_text}",
                                             group[0].id))
        else:
            for i, c in enumerate(group, start=1):
                elements.append(InterfaceElement(PLACE, f"{place}:{value_text}#{i}",
                                                 c.id))
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
    flow), per-event consistency (guard true under the binding, pre- and
    post-sets matching the evaluated arc inscriptions), and that the
    initial cut is part of the initial marking.  Empty report iff valid.
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
        try:
            if not eval_guard(transition.guard, s, e.binding):
                out.append(Violation(
                    "guard", f"event {e.id}: guard of {e.transition!r} is false "
                    f"under {render_binding(e.binding)}"))
                continue
            expected_pre = {
                arc.source: inscription_tokens(arc.inscription, s, e.binding)
                for arc in net.arcs_into(e.transition)}
            expected_post = {
                arc.target: inscription_tokens(arc.inscription, s, e.binding)
                for arc in net.arcs_out_of(e.transition)}
        except EvalError as exc:  # evaluation failure under this binding
            out.append(Violation(
                "binding", f"event {e.id}: {exc}"))
            continue
        for label, expected, linked in (("pre", expected_pre, inner.pre(e.id)),
                                        ("post", expected_post, inner.post(e.id))):
            actual: dict[str, list[Value]] = {}
            for cid in linked:
                c = conditions.get(cid)
                if c is not None:
                    actual.setdefault(c.place, []).append(c.value)
            expected = {p: ms for p, ms in expected.items() if ms}
            got = {p: Multiset(vs) for p, vs in actual.items()}
            if expected != got:
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
    # an event waits for the producer of each condition it consumes; of
    # several producers, the last in flow order counts
    conditions = inner.index.conditions
    deps = {e.id: {inner.pre(cid)[-1] for cid in inner.pre(e.id)
                   if cid in conditions and inner.pre(cid)}
            for e in inner.events}
    rng = random.Random(seed)
    done: set[str] = set()
    result: list[tuple[str, Binding]] = []
    pending = {e.id: e for e in inner.events}
    while pending:
        ready = sorted(eid for eid, need in deps.items()
                       if eid in pending and need <= done)
        if not ready:
            raise ModelError("cannot linearize: cyclic event dependencies")
        eid = ready[rng.randrange(len(ready))]
        event = pending.pop(eid)
        done.add(eid)
        result.append((event.transition, event.binding))
    return result

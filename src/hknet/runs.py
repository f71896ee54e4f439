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
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import (CompositionError, EvalError, ModelError, ScriptError,
                     Violation)
from .modules import Module, PLACE, InterfaceElement, compose
from .nets import (Condition, Event, Marking, OccurrenceNet, SchematicNet, Stepper,
                   _kernel)
from .signature import Structure, value_in_sort
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

    One :class:`Stepper` enables and fires every step on the interned
    states ``explore`` steps on: the initial marking is encoded once, the
    options at each state are :meth:`Stepper.enabled` of each transition
    in name order, and :meth:`Stepper.fire` gives the chosen one's tokens
    and the next state.  So a transition whose input tokens did not
    change is not matched again, and a repeated (transition, binding) is
    evaluated only once.  Each firing appends one event that consumes
    conditions holding its input tokens (among equal tokens, the oldest)
    and produces fresh conditions for its output tokens, place by place
    in name order and value by value in canonical order.  The current
    cut is one queue of conditions per (place, value) in creation order,
    so the oldest equal token is the head of its queue.  The final cut
    equals the marking reached by sequential replay.
    """
    net, s = sys.net, sys.structure
    conditions: list[Condition] = []
    events: list[Event] = []
    flow: list[tuple[str, str]] = []
    cut: defaultdict[tuple[str, Value], deque[Condition]] = defaultdict(deque)

    def new_condition(place: str, value: Value) -> str:
        c = Condition(f"b{len(conditions)}", place, value)
        conditions.append(c)
        cut[place, value].append(c)
        return c.id

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
        eid = f"e{len(events)}"
        events.append(Event(eid, name, binding))
        for place in sorted(consumed):
            for value, n in _in_order(consumed[place]):
                queue = cut[place, value]
                for _ in range(n):
                    flow.append((queue.popleft().id, eid))
        for place in sorted(produced):
            for value, n in _in_order(produced[place]):
                for _ in range(n):
                    flow.append((eid, new_condition(place, value)))
        steps_taken += 1

    final_conditions = [c for queue in cut.values() for c in queue]
    inner = OccurrenceNet(tuple(conditions), tuple(events), tuple(flow))
    return Module(
        f"{sys.name}_run", sys.name, inner,
        left=_cut_interface(initial_conditions),
        right=_cut_interface(final_conditions),
    )


def _in_order(counts: dict[Value, int]) -> Iterable[tuple[Value, int]]:
    """The ``(value, count)`` pairs of a token map in canonical value
    order; a map of one value needs no sort."""
    if len(counts) == 1:
        return counts.items()
    return sorted(counts.items(), key=lambda pair: pair[0].key())


def _cut_interface(conds: list[Condition]) -> tuple[InterfaceElement, ...]:
    """Label a cut deterministically: ``place:value``, with ``#k`` added
    when several conditions carry equal labels.  ``conds`` lists the
    conditions of each (place, value) in creation order, which numbers
    them; the stable sort keeps that order."""
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
    return _cut(inner.conditions, inner.index.pre)


def final_cut(run: Module) -> Marking:
    inner = _occurrence(run)
    return _cut(inner.conditions, inner.index.post)


def _cut(conditions: Iterable[Condition],
         linked: Mapping[str, tuple[str, ...]]) -> Marking:
    """The tokens of the conditions that ``linked`` (the pre- or
    post-sets of the run's index) links to no node."""
    per_place: dict[str, list[Value]] = {}
    for c in conditions:
        if c.id not in linked:
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

    Verifies graph shape (distinct node ids, acyclic, unbranched
    conditions, bipartite flow), per-event consistency (a binding of
    exactly the transition's variables, guard true under it, pre- and
    post-sets matching the evaluated arc inscriptions), and that the
    initial cut is part of the initial marking.  Empty report iff valid.

    What depends on a node's label alone is worked out once per distinct
    label in the call: the place and its sort test per (place, value),
    and the transition, its variables, its guard and the evaluated arc
    inscriptions per (transition, binding).  Findings stay one per node,
    in node order, so a bad label is reported at every node carrying it;
    the flow, branching and pre-/post-set checks read each node's own
    arcs from the run's index.
    """
    out: list[Violation] = []
    if not isinstance(run.inner, OccurrenceNet):
        return [Violation("not-a-run", f"module {run.name!r} has a schematic inner net")]
    inner = run.inner
    net, s = sys.net, sys.structure
    index = inner.index
    conditions, events, pre, post = index.conditions, index.events, index.pre, index.post

    ids: set[str] = set()
    for node in (*inner.conditions, *inner.events):
        if node.id in ids:
            out.append(Violation("duplicate-id", f"duplicate node id {node.id}"))
        ids.add(node.id)

    # per (place, value): (code, message after the condition's id), or () if fine
    condition_findings: dict[tuple[str, Value], tuple[str, ...]] = {}
    for c in inner.conditions:
        label = (c.place, c.value)
        finding = condition_findings.get(label)
        if finding is None:
            finding = condition_findings[label] = _condition_finding(net, c.place, c.value, s)
        if finding:
            out.append(Violation(finding[0], f"condition {c.id}{finding[1]}"))

    for src, tgt in inner.flow:
        if not ((src in conditions and tgt in events)
                or (src in events and tgt in conditions)):
            out.append(Violation(
                "flow", f"flow arc {src} -> {tgt} must connect a condition "
                "and an event"))
    if not inner.is_acyclic():
        out.append(Violation("cycle", "the flow relation is cyclic"))
    for c in inner.conditions:
        if len(pre.get(c.id, ())) > 1:
            out.append(Violation(
                "branching", f"condition {c.id} is produced by several events"))
        if len(post.get(c.id, ())) > 1:
            out.append(Violation(
                "branching", f"condition {c.id} is consumed by several events"))

    verdicts: dict[tuple[str, Binding], tuple] = {}
    for e in inner.events:
        label = (e.transition, e.binding)
        verdict = verdicts.get(label)
        if verdict is None:
            verdict = verdicts[label] = _event_verdict(net, e.transition, e.binding, s)
        code, text, expected = verdict
        if code is not None:
            out.append(Violation(code, f"event {e.id}{text}"))
            continue
        for side, wanted, linked in (("pre", expected[0], pre.get(e.id, ())),
                                     ("post", expected[1], post.get(e.id, ()))):
            got: dict[str, dict[Value, int]] = {}
            for cid in linked:
                c = conditions.get(cid)
                if c is not None:
                    counts = got.setdefault(c.place, {})
                    counts[c.value] = counts.get(c.value, 0) + 1
            if got != wanted:
                out.append(Violation(
                    f"{side}-set",
                    f"event {e.id} ({e.transition}): {side}-set does not match "
                    "the evaluated arc inscriptions"))

    start = _cut(inner.conditions, pre)
    for place, tokens in start.items():
        if not tokens <= sys.initial.get(place):
            out.append(Violation(
                "initial-cut",
                f"initial cut puts tokens on {place!r} beyond the initial marking"))
    return out


def _condition_finding(net: SchematicNet, place_name: str, value: Value,
                       s: Structure) -> tuple[str, ...]:
    """The violation code and the message after the condition's id of a
    condition labeled ``(place_name, value)``, or () if the place exists
    and its sort holds the value."""
    try:
        place = net.place(place_name)
    except KeyError:
        return ("unknown-place", f" is labeled with unknown place {place_name!r}")
    if place.sort is not None and not value_in_sort(value, place.sort, s):
        return ("token-sort", f" carries {render_value(value)}, outside "
                f"the sort of {place_name!r}")
    return ()


def _event_verdict(net: SchematicNet, name: str, b: Binding, s: Structure) -> tuple:
    """``(code, message after the event's id, None)`` for the first check
    an event labeled ``(name, b)`` fails of: ``name`` is a transition,
    ``b`` assigns exactly its variables, and the guard and the arc
    inscriptions evaluate under ``b``, the guard to true; else
    ``(None, "", (pre, post))`` with the ``{place: {value: count}}``
    tokens its pre- and post-set must carry.  The kernel tests the guard
    and evaluates the arcs on one dict of ``b``, as :func:`nets.fire` does."""
    try:
        transition = net.transition(name)
    except KeyError:
        return ("unknown-transition", f" is labeled with unknown transition {name!r}", None)
    assigned = [variable for variable, _ in b.pairs()]
    declared = [variable for variable, _ in transition.variables]
    if assigned != declared:
        return ("binding", f": the binding assigns [{', '.join(assigned)}], "
                f"but {name!r} has the variables [{', '.join(declared)}]", None)
    try:
        kernel, env = _kernel(net, name, s), dict(b.pairs())
        if not kernel.holds(env):
            return ("guard", f": guard of {name!r} is false under {render_binding(b)}", None)
        found = kernel.occurrence(env)
    except EvalError as exc:  # evaluation failure under this binding
        return ("binding", f": {exc}", None)
    return (None, "", tuple({p: counts for p, counts in tokens.items() if counts}
                            for tokens in found))


# ---------------------------------------------------------------------------
# Composition and linearization
# ---------------------------------------------------------------------------

def compose_runs(r1: Module, r2: Module) -> Module:
    """Module composition, then a check that the result is again a run."""
    result = compose(r1, r2)
    if not isinstance(result.inner, OccurrenceNet):
        return result  # one operand was the neutral empty module
    inner = result.inner
    pre, post = inner.index.pre, inner.index.post
    for c in inner.conditions:
        if len(pre.get(c.id, ())) > 1 or len(post.get(c.id, ())) > 1:
            raise CompositionError(
                f"composing runs branches condition {c.id} "
                f"({c.place}, {render_value(c.value)})")
    if not inner.is_acyclic():
        raise CompositionError("composing runs creates a causal cycle")
    return result


def linearize(run: Module, seed: int = 0) -> list[tuple[str, Binding]]:
    """One admissible total order of the run's events (seed-dependent)."""
    inner = _occurrence(run)
    if not inner.is_acyclic():
        raise ModelError("cannot linearize a cyclic run")
    # an event waits for the producer of each condition it consumes (of
    # several, the last in flow order); a producer that is no event never
    # occurs, so its consumers stay pending
    conditions, pre = inner.index.conditions, inner.index.pre
    pending = {e.id: e for e in inner.events}
    waiting: dict[str, int] = {}
    consumers: dict[str, list[str]] = {}
    for eid in pending:
        producers = set()
        for cid in pre.get(eid, ()):
            if cid in conditions and (made_by := pre.get(cid)):
                producers.add(made_by[-1])
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

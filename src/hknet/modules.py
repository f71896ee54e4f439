"""Modules with labeled left/right interfaces and their composition.

A module wraps an inner net (schematic or occurrence) in two interfaces.
Composition fuses every (kind, label) pair that appears in the left
operand's right interface and the right operand's left interface:

* fused places unite their arcs and initial inscriptions, and must agree
  on their sort (or one side is unsorted);
* fused transitions conjoin their guards and unite their free-variable
  declarations;
* fused run conditions/events must carry equal labels (place and value,
  or transition and binding).

Unmatched interface elements propagate: the result's left interface is
the left operand's plus whatever the right operand's left interface did
not find a partner for, and symmetrically on the right.  The operator is
associative up to :func:`canonicalize`, which renames inner element
identifiers into a form that is equal for exactly the isomorphic modules
(respecting kinds, labels, arcs, and inscriptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .errors import CompositionError, Violation
from .nets import (Arc, Condition, Event, OccurrenceNet, Place, SchematicNet,
                   Transition)
from .signature import render_sort
from .spans import SourceSpan
from .terms import (App, Elm, GuardAtom, SetTerm, TupleTerm, canonical_guard,
                    conjoin, render_binding, render_term)
from .values import render_value

PLACE = "place"
TRANSITION = "transition"


@dataclass(frozen=True)
class InterfaceElement:
    kind: str  # PLACE or TRANSITION
    label: str
    ref: str  # id of the inner element this exposes
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Module:
    name: str
    sig: str  # signature name; for runs, the system name; may be ""
    inner: SchematicNet | OccurrenceNet
    left: tuple[InterfaceElement, ...] = ()
    right: tuple[InterfaceElement, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def is_run(self) -> bool:
        return isinstance(self.inner, OccurrenceNet)

    def is_empty(self) -> bool:
        return self.inner.is_empty() and not self.left and not self.right


def empty_module(name: str = "empty") -> Module:
    return Module(name, "", SchematicNet())


def empty_run(name: str = "empty") -> Module:
    return Module(name, "", OccurrenceNet())


def interface_of(m: Module, side: str) -> list[tuple[str, str]]:
    """(kind, label) pairs of one interface, in declaration order."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    elements = m.left if side == "left" else m.right
    return [(e.kind, e.label) for e in elements]


def _inner_ids(inner: SchematicNet | OccurrenceNet) -> dict[str, str]:
    """Map of element id to kind for either net flavour."""
    if isinstance(inner, SchematicNet):
        ids = {p.name: PLACE for p in inner.places}
        ids.update({t.name: TRANSITION for t in inner.transitions})
        return ids
    ids = {c.id: PLACE for c in inner.conditions}
    ids.update({e.id: TRANSITION for e in inner.events})
    return ids


def interface_violations(m: Module) -> list[Violation]:
    """Module invariants: interface refs exist, kinds match, labels are
    unique per kind within each side."""
    out: list[Violation] = []
    ids = _inner_ids(m.inner)
    for side_name, side in (("left", m.left), ("right", m.right)):
        seen: set[tuple[str, str]] = set()
        seen_refs: set[str] = set()
        for e in side:
            if e.ref in seen_refs:
                out.append(Violation(
                    "interface-ref-twice",
                    f"element {e.ref!r} appears twice in the {side_name} "
                    "interface", e.span))
            seen_refs.add(e.ref)
            if not e.label:
                out.append(Violation(
                    "interface-label", f"{side_name} interface has an empty label",
                    e.span))
            if e.ref not in ids:
                out.append(Violation(
                    "interface-ref",
                    f"{side_name} interface exposes unknown element {e.ref!r}",
                    e.span))
            elif ids[e.ref] != e.kind:
                out.append(Violation(
                    "interface-kind",
                    f"{side_name} interface exposes {e.ref!r} as {e.kind}, "
                    f"but it is a {ids[e.ref]}", e.span))
            if (e.kind, e.label) in seen:
                out.append(Violation(
                    "interface-duplicate",
                    f"duplicate {e.kind} label {e.label!r} in {side_name} interface",
                    e.span))
            seen.add((e.kind, e.label))
    return out


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------

def rename_elements(m: Module, mapping: Mapping[str, str]) -> Module:
    """Rename inner element ids; interface labels stay untouched."""

    def ren(x: str) -> str:
        return mapping.get(x, x)

    inner = m.inner
    if isinstance(inner, SchematicNet):
        new_inner: SchematicNet | OccurrenceNet = SchematicNet(
            places=tuple(replace(p, name=ren(p.name)) for p in inner.places),
            transitions=tuple(replace(t, name=ren(t.name)) for t in inner.transitions),
            arcs=tuple(replace(a, source=ren(a.source), target=ren(a.target))
                       for a in inner.arcs),
        )
    else:
        new_inner = OccurrenceNet(
            conditions=tuple(replace(c, id=ren(c.id)) for c in inner.conditions),
            events=tuple(replace(e, id=ren(e.id)) for e in inner.events),
            flow=tuple((ren(s), ren(t)) for s, t in inner.flow),
        )
    return Module(
        m.name, m.sig, new_inner,
        left=tuple(replace(e, ref=ren(e.ref)) for e in m.left),
        right=tuple(replace(e, ref=ren(e.ref)) for e in m.right),
    )


def _fresh_id(base: str, used: set[str]) -> str:
    if base not in used:
        return base
    n = 2
    while f"{base}__{n}" in used:
        n += 1
    return f"{base}__{n}"


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def compose(a: Module, b: Module) -> Module:
    """Fuse equally labeled interface elements of ``a.right`` and ``b.left``."""
    if a.is_empty():
        return b
    if b.is_empty():
        return a
    if type(a.inner) is not type(b.inner):
        raise CompositionError(
            f"cannot compose a {'run' if a.is_run() else 'schematic'} module "
            f"with a {'run' if b.is_run() else 'schematic'} module")
    if isinstance(a.inner, SchematicNet):
        if a.sig and b.sig and a.sig != b.sig:
            raise CompositionError(
                f"modules are over different signatures: {a.sig!r} vs {b.sig!r}")
        sig = a.sig or b.sig
    else:
        # a run's reference names the system it came from; runs of
        # different systems may still compose as modules
        sig = a.sig if a.sig == b.sig else ""

    a_exposed = {(e.kind, e.label): e for e in a.right}
    b_exposed = {(e.kind, e.label): e for e in b.left}
    matched = {key: (a_exposed[key], b_exposed[key])
               for key in a_exposed if key in b_exposed}

    # rename b's inner ids: fused elements take a's id, the rest stay
    # unless they collide with an id already present on a's side
    used = set(_inner_ids(a.inner))
    fused_targets = {be.ref: ae.ref for (ae, be) in matched.values()}
    mapping: dict[str, str] = {}
    for b_id in _inner_ids(b.inner):
        if b_id in fused_targets:
            mapping[b_id] = fused_targets[b_id]
        else:
            fresh = _fresh_id(b_id, used)
            mapping[b_id] = fresh
            used.add(fresh)
    b_renamed = rename_elements(b, mapping)
    fused_ids = set(fused_targets.values())

    if isinstance(a.inner, SchematicNet):
        inner = _merge_schematic(a.inner, b_renamed.inner, fused_ids)
    else:
        inner = _merge_occurrence(a.inner, b_renamed.inner, fused_ids)

    left = list(a.left)
    for e in b_renamed.left:
        if (e.kind, e.label) not in matched:
            left.append(e)
    right = list(b_renamed.right)
    for e in a.right:
        if (e.kind, e.label) not in matched:
            right.append(e)
    for side_name, side in (("left", left), ("right", right)):
        keys = [(e.kind, e.label) for e in side]
        if len(keys) != len(set(keys)):
            dup = next(k for k in keys if keys.count(k) > 1)
            raise CompositionError(
                f"composition yields duplicate {dup[0]} label {dup[1]!r} "
                f"in the {side_name} interface")

    return Module(f"{a.name}__{b.name}", sig, inner,
                  tuple(left), tuple(right))


def _merge_schematic(a: SchematicNet, b: SchematicNet,
                     fused: set[str]) -> SchematicNet:
    places: dict[str, Place] = {p.name: p for p in a.places}
    for p in b.places:
        if p.name in fused and p.name in places:
            places[p.name] = _fuse_places(places[p.name], p)
        elif p.name in places:
            raise CompositionError(f"id collision on place {p.name!r}")
        else:
            places[p.name] = p
    transitions: dict[str, Transition] = {t.name: t for t in a.transitions}
    for t in b.transitions:
        if t.name in fused and t.name in transitions:
            transitions[t.name] = _fuse_transitions(transitions[t.name], t)
        elif t.name in transitions:
            raise CompositionError(f"id collision on transition {t.name!r}")
        else:
            transitions[t.name] = t
    arcs: dict[tuple[str, str], Arc] = {(x.source, x.target): x for x in a.arcs}
    for x in b.arcs:
        key = (x.source, x.target)
        if key in arcs:
            merged = tuple(sorted(arcs[key].inscription + x.inscription,
                                  key=render_term))
            arcs[key] = replace(arcs[key], inscription=merged)
        else:
            arcs[key] = x
    return SchematicNet(
        places=tuple(sorted(places.values(), key=lambda p: p.name)),
        transitions=tuple(sorted(transitions.values(), key=lambda t: t.name)),
        arcs=tuple(sorted(arcs.values(), key=lambda x: (x.source, x.target))),
    )


def _fuse_places(p: Place, q: Place) -> Place:
    if p.sort is None:
        sort = q.sort
    elif q.sort is None or q.sort == p.sort:
        sort = p.sort
    else:
        raise CompositionError(
            f"fused place {p.name!r} has incompatible sorts "
            f"{render_sort(p.sort)} and {render_sort(q.sort)}")
    init = tuple(sorted(p.init + q.init, key=render_term))
    return Place(p.name, sort, init)


def _fuse_transitions(t: Transition, u: Transition) -> Transition:
    free: dict[str, object] = dict(t.free)
    for name, sort in u.free:
        if name in free and free[name] != sort:
            raise CompositionError(
                f"fused transition {t.name!r} declares free variable {name!r} "
                "with two different sorts")
        free[name] = sort
    guard = conjoin(t.guard, u.guard)
    return Transition(t.name, guard, tuple(sorted(free.items())))  # type: ignore[arg-type]


def _merge_occurrence(a: OccurrenceNet, b: OccurrenceNet,
                      fused: set[str]) -> OccurrenceNet:
    conditions: dict[str, Condition] = {c.id: c for c in a.conditions}
    for c in b.conditions:
        if c.id in fused and c.id in conditions:
            old = conditions[c.id]
            if old.place != c.place or old.value != c.value:
                raise CompositionError(
                    f"fused conditions {c.id!r} disagree: "
                    f"({old.place}, {render_value(old.value)}) vs "
                    f"({c.place}, {render_value(c.value)})")
        elif c.id in conditions:
            raise CompositionError(f"id collision on condition {c.id!r}")
        else:
            conditions[c.id] = c
    events: dict[str, Event] = {e.id: e for e in a.events}
    for e in b.events:
        if e.id in fused and e.id in events:
            old = events[e.id]
            if old.transition != e.transition or old.binding != e.binding:
                raise CompositionError(
                    f"fused events {e.id!r} disagree: "
                    f"{old.transition}{render_binding(old.binding)} vs "
                    f"{e.transition}{render_binding(e.binding)}")
        elif e.id in events:
            raise CompositionError(f"id collision on event {e.id!r}")
        else:
            events[e.id] = e
    flow = tuple(sorted(set(a.flow) | set(b.flow)))
    return OccurrenceNet(
        conditions=tuple(sorted(conditions.values(), key=lambda c: c.id)),
        events=tuple(sorted(events.values(), key=lambda e: e.id)),
        flow=flow,
    )


def compose_all(modules: Iterable[Module]) -> Module:
    """Left fold of :func:`compose`."""
    mods = list(modules)
    if not mods:
        return empty_module()
    result = mods[0]
    for m in mods[1:]:
        result = compose(result, m)
    return result


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def canonicalize(m: Module) -> Module:
    """Deterministic renaming of inner ids into a canonical module.

    Two modules have equal canonical forms exactly when they are
    isomorphic respecting kinds, decorations (sorts, initial
    inscriptions, guards, condition/event labels), arc inscriptions, and
    interface labels.  Inner identifiers, the module name, and any
    non-structural order (inscription multisets, set-literal elements,
    guard conjunctions) carry no meaning and are normalized away.

    Uses color refinement with individualization on ties, taking the
    ordering with the least certificate, so the result does not depend
    on the input's identifier choices.  Idempotent.
    """
    m = _normalize_module(m)
    ids, kinds, decor, out_adj, in_adj = _module_graph(m)
    if not ids:
        base = SchematicNet() if not m.is_run() else OccurrenceNet()
        return Module("_", "", base,
                      tuple(sorted(m.left, key=lambda e: (e.kind, e.label))),
                      tuple(sorted(m.right, key=lambda e: (e.kind, e.label))))

    initial = _rank({n: decor[n] for n in ids})
    _, order = _canonical_search(ids, initial, decor, out_adj, in_adj)

    mapping: dict[str, str] = {}
    run = m.is_run()
    p_count = t_count = 0
    for node in order:
        if kinds[node] == PLACE:
            mapping[node] = ("b" if run else "p") + str(p_count)
            p_count += 1
        else:
            mapping[node] = ("e" if run else "t") + str(t_count)
            t_count += 1

    renamed = rename_elements(m, mapping)
    index = {mapping[n]: i for i, n in enumerate(order)}
    inner = renamed.inner
    if isinstance(inner, SchematicNet):
        inner = SchematicNet(
            places=tuple(sorted(inner.places, key=lambda p: index[p.name])),
            transitions=tuple(sorted(inner.transitions, key=lambda t: index[t.name])),
            arcs=tuple(sorted(inner.arcs,
                              key=lambda a: (index[a.source], index[a.target]))),
        )
    else:
        inner = OccurrenceNet(
            conditions=tuple(sorted(inner.conditions, key=lambda c: index[c.id])),
            events=tuple(sorted(inner.events, key=lambda e: index[e.id])),
            flow=tuple(sorted(inner.flow, key=lambda f: (index[f[0]], index[f[1]]))),
        )
    return Module(
        "_", "", inner,
        left=tuple(sorted(renamed.left, key=lambda e: (e.kind, e.label))),
        right=tuple(sorted(renamed.right, key=lambda e: (e.kind, e.label))),
    )


def canonical_equal(a: Module, b: Module) -> bool:
    return canonicalize(a) == canonicalize(b)


def _normalize_term(t):
    """Sort set-literal elements; the rest of the term is order-rigid."""
    if isinstance(t, SetTerm):
        elements = tuple(sorted((_normalize_term(e) for e in t.elements),
                                key=render_term))
        return SetTerm(elements)
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(_normalize_term(e) for e in t.items))
    if isinstance(t, App):
        return App(t.function, tuple(_normalize_term(a) for a in t.args))
    if isinstance(t, Elm):
        return Elm(_normalize_term(t.inner))
    return t


def _normalize_terms(terms) -> tuple:
    return tuple(sorted((_normalize_term(t) for t in terms), key=render_term))


def _normalize_module(m: Module) -> Module:
    inner = m.inner
    if not isinstance(inner, SchematicNet):
        return m
    places = tuple(replace(p, init=_normalize_terms(p.init))
                   for p in inner.places)
    transitions = []
    for t in inner.transitions:
        guard = canonical_guard(
            GuardAtom(a.op, _normalize_term(a.left), _normalize_term(a.right))
            for a in t.guard.atoms)
        transitions.append(replace(t, guard=guard, free=tuple(sorted(t.free))))
    arcs = tuple(replace(a, inscription=_normalize_terms(a.inscription))
                 for a in inner.arcs)
    return Module(m.name, m.sig,
                  SchematicNet(places, tuple(transitions), arcs),
                  m.left, m.right)


def _module_graph(m: Module):
    """Id-free node decorations and adjacency for canonical labeling."""
    decor: dict[str, str] = {}
    kinds: dict[str, str] = {}
    out_adj: dict[str, list[tuple[str, str]]] = {}
    in_adj: dict[str, list[tuple[str, str]]] = {}
    anchors: dict[str, list[str]] = {}
    for side_name, side in (("L", m.left), ("R", m.right)):
        for e in side:
            anchors.setdefault(e.ref, []).append(f"{side_name}:{e.kind}:{e.label}")

    inner = m.inner
    if isinstance(inner, SchematicNet):
        for p in inner.places:
            sort = render_sort(p.sort) if p.sort is not None else ""
            init = ",".join(sorted(render_term(t) for t in p.init))
            decor[p.name] = f"place|{sort}|{init}"
            kinds[p.name] = PLACE
        for t in inner.transitions:
            guard = " and ".join(sorted(
                f"{render_term(a.left)} {a.op} {render_term(a.right)}"
                for a in t.guard.atoms))
            free = ",".join(f"{n}:{render_sort(s)}" for n, s in sorted(t.free))
            decor[t.name] = f"trans|{guard}|{free}"
            kinds[t.name] = TRANSITION
        edges = [(a.source, a.target,
                  ",".join(sorted(render_term(t) for t in a.inscription)))
                 for a in inner.arcs]
    else:
        for c in inner.conditions:
            decor[c.id] = f"cond|{c.place}|{render_value(c.value)}"
            kinds[c.id] = PLACE
        for e in inner.events:
            decor[e.id] = f"event|{e.transition}|{render_binding(e.binding)}"
            kinds[e.id] = TRANSITION
        edges = [(s, t, "") for s, t in inner.flow]

    for node, tags in anchors.items():
        if node in decor:
            decor[node] += "|" + ";".join(sorted(tags))
    ids = sorted(decor)
    for n in ids:
        out_adj[n] = []
        in_adj[n] = []
    for src, tgt, label in edges:
        if src in decor and tgt in decor:
            out_adj[src].append((tgt, label))
            in_adj[tgt].append((src, label))
    return ids, kinds, decor, out_adj, in_adj


def _rank(keys: dict[str, object]) -> dict[str, int]:
    # all keys passed in share one shape, so plain tuple order applies
    ordered = {k: i for i, k in enumerate(sorted(set(keys.values())))}
    return {n: ordered[keys[n]] for n in keys}


def _refine(ids, colors, out_adj, in_adj) -> dict[str, int]:
    while True:
        keys = {}
        for n in ids:
            outs = tuple(sorted((label, colors[t]) for t, label in out_adj[n]))
            ins = tuple(sorted((label, colors[s]) for s, label in in_adj[n]))
            keys[n] = (colors[n], outs, ins)
        new_colors = _rank(keys)
        if new_colors == colors:
            return colors
        colors = new_colors


def _canonical_search(ids, colors, decor, out_adj, in_adj):
    colors = _refine(ids, colors, out_adj, in_adj)
    groups: dict[int, list[str]] = {}
    for n in ids:
        groups.setdefault(colors[n], []).append(n)
    tie = None
    for color in sorted(groups):
        if len(groups[color]) > 1:
            tie = groups[color]
            break
    if tie is None:
        order = sorted(ids, key=lambda n: colors[n])
        return _certificate(order, decor, out_adj), order
    best = None
    for candidate in tie:
        trial = dict(colors)
        trial[candidate] = -1
        trial = _rank({n: (trial[n],) for n in ids})
        cert, order = _canonical_search(ids, trial, decor, out_adj, in_adj)
        if best is None or cert < best[0]:
            best = (cert, order)
    return best


def _certificate(order, decor, out_adj):
    index = {n: i for i, n in enumerate(order)}
    nodes = tuple(decor[n] for n in order)
    edges = tuple(sorted((index[s], index[t], label)
                         for s in order for t, label in out_adj[s]))
    return (nodes, edges)

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
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Iterable, Mapping

from .errors import CompositionError, ModelError, Violation
from .nets import (Arc, Condition, Event, OccurrenceNet, Place, SchematicNet,
                   Transition)
from .signature import render_sort
from .spans import SourceSpan
from .terms import (App, Elm, GuardAtom, SetTerm, TupleTerm, canonical_guard,
                    canonical_terms, conjoin, render_binding, render_term)
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


def _shared_id(inner: SchematicNet | OccurrenceNet) -> str:
    """The least id naming both a place and a transition (a condition and
    an event), or ''."""
    if isinstance(inner, SchematicNet):
        nodes = ({p.name for p in inner.places}, {t.name for t in inner.transitions})
    else:
        nodes = ({c.id for c in inner.conditions}, {e.id for e in inner.events})
    return min(nodes[0] & nodes[1], default="")


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
    """Rename inner element ids; an id the mapping lacks stays, and so do
    interface labels.  Every element keeps its place in the order and
    every field, the span and a resolved transition's variables too."""
    return _rebuilt(m, mapping, lambda _: 0)


def _rebuilt(m: Module, mapping: Mapping[str, str], rank: Callable[[str], int]) -> Module:
    """``m`` with each inner id ``x`` renamed to ``mapping.get(x, x)`` and
    every field kept, in :func:`_ordered`'s order."""

    def ren(x: str) -> str:
        return mapping.get(x, x)

    places, transitions, arcs = _ordered(m.inner, rank)
    if isinstance(m.inner, SchematicNet):
        new_inner: SchematicNet | OccurrenceNet = SchematicNet(
            tuple(Place(ren(p.name), p.sort, p.init, p.span) for p in places),
            tuple(Transition(ren(t.name), t.guard, t.free, t.variables, t.span)
                  for t in transitions),
            tuple(Arc(ren(a.source), ren(a.target), a.inscription, a.span) for a in arcs))
    else:
        new_inner = OccurrenceNet(
            tuple(Condition(ren(c.id), c.place, c.value, c.span) for c in places),
            tuple(Event(ren(e.id), e.transition, e.binding, e.span) for e in transitions),
            tuple((ren(s), ren(t)) for s, t in arcs))

    def exposed(side: tuple[InterfaceElement, ...]) -> tuple[InterfaceElement, ...]:
        return tuple(InterfaceElement(e.kind, e.label, ren(e.ref), e.span) for e in side)

    return Module(m.name, m.sig, new_inner, exposed(m.left), exposed(m.right), m.span)


def _ordered(inner: SchematicNet | OccurrenceNet, rank: Callable[[str], int]) -> tuple:
    """The places, transitions and arcs of ``inner`` (a run's conditions,
    events and flow) as lists: nodes ordered by the ``rank`` of their id,
    arcs by the ranks of their two ends; the sorts are stable."""
    if isinstance(inner, SchematicNet):
        return (sorted(inner.places, key=lambda p: rank(p.name)),
                sorted(inner.transitions, key=lambda t: rank(t.name)),
                sorted(inner.arcs, key=lambda a: (rank(a.source), rank(a.target))))
    return (sorted(inner.conditions, key=lambda c: rank(c.id)),
            sorted(inner.events, key=lambda e: rank(e.id)),
            sorted(inner.flow, key=lambda f: (rank(f[0]), rank(f[1]))))


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
    for m in (a, b):
        shared = _shared_id(m.inner)
        if shared:
            kinds = "a place and a transition" if isinstance(m.inner, SchematicNet) \
                else "a condition and an event"
            raise CompositionError(f"module {m.name!r} names {kinds} {shared!r}")
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


def _union(what: str, mine, theirs, fused: set[str], fuse, key) -> tuple:
    """The elements of ``mine`` and ``theirs`` in id order: a fused id joins
    through ``fuse``, any other id on both sides, or twice on one side, is
    a collision."""
    union: dict = {}
    for side in (mine, theirs):
        seen: set = set()
        for x in side:
            k = key(x)
            if k in seen or k in union and k not in fused:
                raise CompositionError(f"id collision on {what} {k!r}")
            seen.add(k)
            union[k] = fuse(union[k], x) if k in union else x
    return tuple(union[k] for k in sorted(union))


def _merge_schematic(a: SchematicNet, b: SchematicNet,
                     fused: set[str]) -> SchematicNet:
    name = attrgetter("name")
    places = _union("place", a.places, b.places, fused, _fuse_places, name)
    transitions = _union("transition", a.transitions, b.transitions, fused,
                         _fuse_transitions, name)
    # every shared arc merges: an arc between fused nodes unites inscriptions
    arcs: dict[tuple[str, str], Arc] = {(x.source, x.target): x for x in a.arcs}
    for x in b.arcs:
        key = (x.source, x.target)
        if key in arcs:
            merged = canonical_terms(arcs[key].inscription + x.inscription)
            arcs[key] = replace(arcs[key], inscription=merged)
        else:
            arcs[key] = x
    return SchematicNet(places, transitions, tuple(arcs[k] for k in sorted(arcs)))


def _fuse_places(p: Place, q: Place) -> Place:
    if p.sort is None:
        sort = q.sort
    elif q.sort is None or q.sort == p.sort:
        sort = p.sort
    else:
        raise CompositionError(
            f"fused place {p.name!r} has incompatible sorts "
            f"{render_sort(p.sort)} and {render_sort(q.sort)}")
    return Place(p.name, sort, canonical_terms(p.init + q.init), p.span)


def _fuse_transitions(t: Transition, u: Transition) -> Transition:
    free: dict[str, object] = dict(t.free)
    for name, sort in u.free:
        if name in free and free[name] != sort:
            raise CompositionError(
                f"fused transition {t.name!r} declares free variable {name!r} "
                "with two different sorts")
        free[name] = sort
    guard = conjoin(t.guard, u.guard)
    return Transition(t.name, guard, tuple(sorted(free.items())),  # type: ignore[arg-type]
                      span=t.span)


def _fuse_conditions(c: Condition, d: Condition) -> Condition:
    if c.place != d.place or c.value != d.value:
        raise CompositionError(
            f"fused conditions {c.id!r} disagree: "
            f"({c.place}, {render_value(c.value)}) vs "
            f"({d.place}, {render_value(d.value)})")
    return c


def _fuse_events(e: Event, f: Event) -> Event:
    if e.transition != f.transition or e.binding != f.binding:
        raise CompositionError(
            f"fused events {e.id!r} disagree: "
            f"{e.transition}{render_binding(e.binding)} vs "
            f"{f.transition}{render_binding(f.binding)}")
    return e


def _merge_occurrence(a: OccurrenceNet, b: OccurrenceNet,
                      fused: set[str]) -> OccurrenceNet:
    node_id = attrgetter("id")
    return OccurrenceNet(
        _union("condition", a.conditions, b.conditions, fused, _fuse_conditions,
               node_id),
        _union("event", a.events, b.events, fused, _fuse_events, node_id),
        tuple(sorted(set(a.flow) | set(b.flow))),
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
    :func:`canonical_equal` compares two canonical forms without
    building them.

    The order of the nodes is the leaf with the least certificate in an
    individualisation-refinement search (McKay & Piperno, "Practical
    graph isomorphism, II", 2014), and among equal certificates the
    first one found, so the result does not depend on the input's
    identifier choices.  Colour refinement is incremental: a round
    re-keys only the cells next to nodes whose cell split in the round
    before (Paige & Tarjan, 1987), and names the colours as refining
    every node every round would.  The search prunes a tie candidate in
    the orbit of an explored one under the automorphisms it has found
    that fix the current path; such a subtree holds no certificate that
    an explored one lacks, so the least certificate and the first leaf
    reaching it stay the same.  Idempotent.
    """
    m, names, position = _canonical_renaming(m)
    return _rebuilt(m, names, position.__getitem__)


def automorphisms(m: Module) -> list[dict[str, str]]:
    """The automorphisms of ``m`` that the search under :func:`canonicalize`
    found, as maps of inner ids.  Each keeps kinds, decorations, arcs and
    interface labels; together they generate the group the search prunes
    by, a subgroup of all automorphisms (all of them for interchangeable
    places, see the tests).  For symmetry reduction."""
    ids, graph = _labelling_graph(_normalize_module(m))
    _, generators = _canonical_search(*graph)
    return [{ids[v]: ids[w] for v, w in enumerate(g)} for g in generators]


def canonical_equal(a: Module, b: Module) -> bool:
    """``canonicalize(a) == canonicalize(b)``, without building either."""
    return _compared(a) == _compared(b)


def _canonical_renaming(m: Module) -> tuple[Module, dict[str, str], dict[str, int]]:
    """``m`` normalized, named ``_`` with no signature and its interfaces
    sorted by (kind, label); the canonical name of each inner id; and each
    id's position in the canonical order."""
    m = _normalize_module(m)
    by_label = attrgetter("kind", "label")
    m = Module("_", "", m.inner, tuple(sorted(m.left, key=by_label)),
               tuple(sorted(m.right, key=by_label)))
    ids, graph = _labelling_graph(m)
    order, _ = _canonical_search(*graph)
    kinds = _inner_ids(m.inner)
    run = m.is_run()
    prefix = {PLACE: "b" if run else "p", TRANSITION: "e" if run else "t"}
    counts = {PLACE: 0, TRANSITION: 0}
    names: dict[str, str] = {}
    position: dict[str, int] = {}
    for i, v in enumerate(order):
        node = ids[v]
        kind = kinds[node]
        names[node] = prefix[kind] + str(counts[kind])
        counts[kind] += 1
        position[node] = i
    return m, names, position


def _compared(m: Module) -> tuple:
    """What ``Module.__eq__`` compares of ``canonicalize(m)``, as plain
    tuples in :func:`_rebuilt`'s order: the net's type, each element's
    compared fields with its ids renamed, and each interface element's
    (kind, label, renamed ref)."""
    m, names, position = _canonical_renaming(m)
    places, transitions, arcs = _ordered(m.inner, position.__getitem__)
    if isinstance(m.inner, SchematicNet):
        net = (tuple([(names[p.name], p.sort, p.init) for p in places]),
               tuple([(names[t.name], t.guard, t.free) for t in transitions]),
               tuple([(names[a.source], names[a.target], a.inscription) for a in arcs]))
    else:
        net = (tuple([(names[c.id], c.place, c.value) for c in places]),
               tuple([(names[e.id], e.transition, e.binding) for e in transitions]),
               tuple([(names[s], names[t]) for s, t in arcs]))

    def exposed(side: tuple[InterfaceElement, ...]) -> tuple:
        return tuple([(e.kind, e.label, names.get(e.ref, e.ref)) for e in side])

    return type(m.inner), net, exposed(m.left), exposed(m.right)


def _normalize_term(t):
    """Sort set-literal elements; the rest of the term is order-rigid."""
    if isinstance(t, SetTerm):
        return SetTerm(canonical_terms(map(_normalize_term, t.elements)))
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(_normalize_term(e) for e in t.items))
    if isinstance(t, App):
        return App(t.function, tuple(_normalize_term(a) for a in t.args))
    if isinstance(t, Elm):
        return Elm(_normalize_term(t.inner))
    return t


def _normalize_module(m: Module) -> Module:
    inner = m.inner
    if not isinstance(inner, SchematicNet):
        return m
    places = tuple(replace(p, init=canonical_terms(map(_normalize_term, p.init)))
                   for p in inner.places)
    transitions = []
    for t in inner.transitions:
        guard = canonical_guard(
            GuardAtom(a.op, _normalize_term(a.left), _normalize_term(a.right))
            for a in t.guard.atoms)
        transitions.append(replace(t, guard=guard, free=tuple(sorted(t.free))))
    arcs = tuple(replace(a, inscription=canonical_terms(map(_normalize_term, a.inscription)))
                 for a in inner.arcs)
    return Module(m.name, m.sig,
                  SchematicNet(places, tuple(transitions), arcs),
                  m.left, m.right)


def _labelling_graph(m: Module):
    """The id-free graph that canonical labelling reads, in one pass: the
    node ids in order (node ``i`` stands for ``ids[i]``), and for
    :func:`_canonical_search` each node's decoration rank, the edges as
    ``(source, target, label rank)``, and per node its out- and
    in-neighbours as ``(base, neighbour)``.

    A decoration renders a node's kind, labels and interface tags; an
    edge label renders its inscription.  ``m`` comes from
    :func:`_normalize_module`, so its initial terms, guard atoms, free
    variables and inscriptions are rendered in their one order.  Ranks
    follow the order of these strings, and among equal strings that of
    the sorted tags, as a label may hold the ``;`` that joins them.  A run renders each distinct
    (place, value) and (transition, binding) once.  A node's colour lies
    in ``[-n, n)``, so ``base + colour`` with ``base = label * (2n + 1) +
    n`` orders the neighbours of one node as ``(label, colour)`` pairs
    do.  An arc or flow pair naming an unknown node is an error."""
    decor: dict[str, tuple[str, tuple[str, ...]]] = {}
    inner = m.inner
    if isinstance(inner, SchematicNet):
        for p in inner.places:
            sort = render_sort(p.sort) if p.sort is not None else ""
            init = ",".join(map(render_term, p.init))
            decor[p.name] = (f"place|{sort}|{init}", ())
        for t in inner.transitions:
            guard = " and ".join(f"{render_term(a.left)} {a.op} {render_term(a.right)}"
                                 for a in t.guard.atoms)
            free = ",".join(f"{n}:{render_sort(s)}" for n, s in t.free)
            decor[t.name] = (f"trans|{guard}|{free}", ())
        labelled = [(a.source, a.target, ",".join(map(render_term, a.inscription)), a)
                    for a in inner.arcs]
    else:
        conditions: dict = {}
        for c in inner.conditions:
            key = (c.place, c.value)
            d = conditions.get(key)
            if d is None:
                d = conditions[key] = (f"cond|{c.place}|{render_value(c.value)}", ())
            decor[c.id] = d
        events: dict = {}
        for e in inner.events:
            key = (e.transition, e.binding)
            d = events.get(key)
            if d is None:
                d = events[key] = (f"event|{e.transition}|{render_binding(e.binding)}", ())
            decor[e.id] = d
        labelled = [(s, t, "", None) for s, t in inner.flow]

    anchors: dict[str, list[str]] = {}
    for side_name, side in (("L", m.left), ("R", m.right)):
        for e in side:
            anchors.setdefault(e.ref, []).append(f"{side_name}:{e.kind}:{e.label}")
    for node, tags in anchors.items():
        if node in decor:
            tags.sort()
            decor[node] = (decor[node][0] + "|" + ";".join(tags), tuple(tags))

    ids = sorted(decor)
    n = len(ids)
    index = {node: i for i, node in enumerate(ids)}
    labels = {label: r for r, label in enumerate(sorted({x[2] for x in labelled}))}
    arcs = []
    outs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, t, label, arc in labelled:
        if s not in index or t not in index:
            what = "flow" if arc is None else "arc"
            raise ModelError(f"{what} {s} -> {t} mentions unknown node "
                             f"{s if s not in index else t!r}",
                             None if arc is None else arc.span)
        i, j, r = index[s], index[t], labels[label]
        arcs.append((i, j, r))
        base = r * (2 * n + 1) + n
        outs[i].append((base, j))
        ins[j].append((base, i))
    ranks = {d: r for r, d in enumerate(sorted(set(decor.values())))}
    return ids, ([ranks[decor[node]] for node in ids], arcs, outs, ins)


def _refine(color: list[int], cells: dict[int, list[int]], changed,
            outs, ins) -> None:
    """Refine an ordered partition in place until it is equitable.

    ``color[v]`` orders the cells: it is the position at which ``v``'s
    cell starts, or, for a node individualised at depth ``d``, ``-1 - d``.
    ``cells`` maps the colour of each cell of two or more nodes to its
    members.  ``changed`` holds the nodes whose cell lost members since
    the partition was last equitable.

    A round keys the nodes of each cell next to a changed node by the
    sorted ``(label, colour)`` pairs of their out- and then in-neighbours
    (one pair needs no sort), and splits the cell by key, parts in key
    order.  Members with no
    changed neighbour share one key, as their cell was equitable towards
    the cells they see.  Only the parts other than a largest one count as
    changed for the next round (Hopcroft): a neighbour count into the
    largest part follows from the counts into the old cell and the other
    parts.  The colours equal those of re-keying every node every round,
    up to an order-keeping renaming."""
    while changed:
        touched: dict[int, set[int]] = {}
        for v in changed:
            for neighbours in (outs[v], ins[v]):
                for _, w in neighbours:
                    c = color[w]
                    if c in cells:
                        touched.setdefault(c, set()).add(w)

        def key(v: int) -> tuple:
            out, into = outs[v], ins[v]
            return ((out[0][0] + color[out[0][1]],) if len(out) == 1
                    else tuple(sorted([base + color[w] for base, w in out])),
                    (into[0][0] + color[into[0][1]],) if len(into) == 1
                    else tuple(sorted([base + color[w] for base, w in into])))

        splits = []
        for c, near in touched.items():
            members = cells[c]
            parts: dict[tuple, list[int]] = {}
            if len(near) < len(members):
                rest = [v for v in members if v not in near]
                parts[key(rest[0])] = rest
            for v in near:
                parts.setdefault(key(v), []).append(v)
            if len(parts) > 1:
                splits.append((c, [parts[k] for k in sorted(parts)]))

        changed = []
        for c, parts in splits:
            del cells[c]
            largest = max(parts, key=len)
            for part in parts:
                for v in part:
                    color[v] = c
                if len(part) > 1:
                    cells[c] = part
                if part is not largest:
                    changed += part
                c += len(part)


def _canonical_search(decor_rank: list[int], arcs, outs, ins):
    """The node order of the canonical form, and the automorphisms found.

    Refines the colouring by decoration; while a cell has two or more
    nodes, branches on each member of the first such cell in node order,
    individualising it (it takes a colour below all others) and refining
    again.  Each discrete colouring is a leaf; the result is the first
    leaf found with the least :func:`_certificate`.

    Two leaves with equal certificates differ by an automorphism
    ``gamma`` (``gamma[v]`` is the node in ``v``'s place).  A candidate
    in the orbit of an explored sibling under the automorphisms that fix
    the current path is skipped.  When ``gamma`` maps the earlier leaf's
    path onto the new leaf's, the subtree where the two paths part is
    ``gamma``'s image of one already searched, and the search returns to
    the node where they part.

    The search does not recurse: ``stack[d]`` holds the tree node at
    depth ``d`` on the current path as its suspended ``children`` loop,
    and returning to depth ``r`` drops the entries below ``r``."""
    n = len(decor_rank)
    classes: list[list[int]] = [[] for _ in range(max(decor_rank, default=-1) + 1)]
    for v, rank in enumerate(decor_rank):
        classes[rank].append(v)
    starts = list(accumulate(map(len, classes), initial=0))  # ranks are 0, 1, ...
    color = [starts[rank] for rank in decor_rank]
    cells = {starts[r]: members for r, members in enumerate(classes) if len(members) > 1}
    _refine(color, cells, range(n), outs, ins)
    if not cells:
        return _order(color), []

    generators: list[list[int]] = []
    first = best = None  # (certificate, order, path) of a leaf

    def leaf(color: list[int], path: list[int]) -> int:
        nonlocal first, best
        order = _order(color)
        cert = _certificate(order, decor_rank, arcs)
        if first is None:
            first = best = (cert, order, path)
            return len(path)
        if cert != first[0] and cert != best[0]:
            if cert < best[0]:
                best = (cert, order, path)
            return len(path)
        _, known, known_path = first if cert == first[0] else best
        gamma = [0] * n
        for v, w in zip(known, order):
            gamma[v] = w
        generators.append(gamma)
        if len(known_path) == len(path) and all(
                gamma[v] == w for v, w in zip(known_path, path)):
            return next(d for d, (v, w) in enumerate(zip(known_path, path)) if v != w)
        return len(path)

    def children(color: list[int], cells: dict[int, list[int]], path: list[int]):
        """Each member of the target cell that no explored member maps to,
        individualised and refined, as ``(colouring, cells, path)``."""
        depth = len(path)
        target = min(cells)
        members = sorted(cells[target])
        orbit = {v: v for v in members}  # union-find over the target cell

        def find(v: int) -> int:
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        seen = 0
        explored: list[int] = []
        for v in members:
            if explored:
                for gamma in generators[seen:]:
                    if all(gamma[u] == u for u in path):
                        for u in members:
                            orbit[find(u)] = find(gamma[u])
                seen = len(generators)
                if any(find(u) == find(v) for u in explored):
                    continue
            explored.append(v)
            trial, trial_cells = color[:], dict(cells)
            rest = [u for u in trial_cells.pop(target) if u != v]
            trial[v] = -1 - depth
            for u in rest:
                trial[u] = target + 1
            if len(rest) > 1:
                trial_cells[target + 1] = rest
            _refine(trial, trial_cells, [v], outs, ins)
            yield trial, trial_cells, path + [v]

    stack = [children(color, cells, [])]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        elif child[1]:
            stack.append(children(*child))
        else:
            del stack[leaf(child[0], child[2]) + 1:]
    return best[1], generators


def _order(color: list[int]) -> list[int]:
    return sorted(range(len(color)), key=color.__getitem__)


def _certificate(order: list[int], decor_rank: list[int], arcs) -> tuple:
    """What leaves of one search are compared by: the decorations in
    ``order`` and the sorted arcs between positions.  Ranks follow the
    order of the decorations and labels, so certificates compare as the
    rendered ones would."""
    position = [0] * len(order)
    for i, v in enumerate(order):
        position[v] = i
    return (tuple(decor_rank[v] for v in order),
            tuple(sorted((position[s], position[t], label) for s, t, label in arcs)))

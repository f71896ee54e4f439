"""Seeded random generators and reference oracles shared by property and
acceptance tests."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import re
import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Mapping, Sequence

from hknet import (Arc, Atom, Binding, Condition, EvalError, Event, FiringError,
                   Guard, GuardAtom, Ident, InterfaceElement, Marking, Module,
                   Multiset, OccurrenceNet, ParseError, Place, PowSort,
                   SchematicNet,
                   SetTerm, SetValue, Signature, SortName, Transition,
                   TupleSort, TupleTerm, TupleValue, Value, enabled_bindings,
                   enumerate_bindings, eval_guard, fire, inscription_tokens, render_sort, render_term,
                   render_binding, render_value, value_in_sort)
from hknet import nets
from hknet.modules import (PLACE, TRANSITION, _inner_ids, _normalize_module,
                           compose_all, rename_elements)
from hknet.nets import Stepper
from hknet.runs import _cut_interface
from hknet.terms import term_tokens
from hknet.parser import ModelDocument, StructureDoc, StructureEntry, SystemDoc
from hknet.spans import SourceSpan

ATOMS = ["a", "b", "c", "d", "e1", "e2"]


# ---------------------------------------------------------------------------
# Random modules with compatible interfaces
# ---------------------------------------------------------------------------

def _stable(label: str) -> int:
    return zlib.crc32(label.encode("utf-8"))


def _sort_for_label(label: str):
    """Deterministic per label, so both fusion partners agree."""
    return [None, SortName("S"), SortName("T")][_stable(label) % 3]


def _random_ground_term(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return Ident(rng.choice(ATOMS))
    if kind == 1:
        return TupleTerm((Ident(rng.choice(ATOMS)), Ident(rng.choice(ATOMS))))
    return SetTerm(tuple(Ident(a) for a in rng.sample(ATOMS, rng.randrange(3))))


def _random_inscription(rng: random.Random):
    terms = [_random_ground_term(rng) for _ in range(rng.randrange(1, 3))]
    if rng.random() < 0.2:
        terms[0] = SetTerm(tuple(Ident(a) for a in rng.sample(ATOMS, 2)))
    return tuple(terms)


def random_module(rng: random.Random, name: str,
                  left_spec: list[tuple[str, str]],
                  right_spec: list[tuple[str, str]]) -> Module:
    """A small schematic module exposing exactly the given interfaces.

    Inner ids are generic (p0, t0, ...) in every module, so composition
    must rename; decorations of interface elements are derived from the
    label, which keeps fusion compatible by construction.
    """
    iface_nodes: dict[tuple[str, str], str] = {}
    places: list[Place] = []
    transitions: list[Transition] = []
    counter = 0
    for kind, label in dict.fromkeys(left_spec + right_spec):
        node_id = f"{'p' if kind == PLACE else 't'}{counter}"
        counter += 1
        iface_nodes[(kind, label)] = node_id
        if kind == PLACE:
            init = (_random_ground_term(rng),) if _stable(label) % 2 else ()
            places.append(Place(node_id, _sort_for_label(label), init))
        else:
            guard = Guard()
            if _stable(label) % 3 == 0:
                guard = Guard((GuardAtom("in", Ident(f"v_{label}"), Ident("S")),))
            free = ((f"v_{label}", SortName("S")),) if _stable(label) % 3 == 0 else ()
            transitions.append(Transition(node_id, guard, free))
    for _ in range(rng.randrange(3)):
        node_id = f"p{counter}"
        counter += 1
        init = (_random_ground_term(rng),) if rng.random() < 0.5 else ()
        places.append(Place(node_id, rng.choice([None, SortName("S")]), init))
    for _ in range(rng.randrange(2)):
        node_id = f"t{counter}"
        counter += 1
        transitions.append(Transition(node_id))

    arcs: dict[tuple[str, str], Arc] = {}
    if places and transitions:
        for _ in range(rng.randrange(1, 5)):
            p = rng.choice(places).name
            t = rng.choice(transitions).name
            src, tgt = (p, t) if rng.random() < 0.5 else (t, p)
            if (src, tgt) not in arcs:
                arcs[(src, tgt)] = Arc(src, tgt, _random_inscription(rng))

    left = tuple(InterfaceElement(kind, label, iface_nodes[(kind, label)])
                 for kind, label in left_spec)
    right = tuple(InterfaceElement(kind, label, iface_nodes[(kind, label)])
                  for kind, label in right_spec)
    return Module(name, "toy", SchematicNet(
        tuple(places), tuple(transitions),
        tuple(arcs.values())), left, right)


def compatible_triple(rng: random.Random) -> tuple[Module, Module, Module]:
    """Three modules whose two association orders are both defined.

    Shared label pools: s1 joins A.right with B.left, s2 joins B.right
    with C.left, s3 passes from A.right through to C.left.  All other
    labels are globally unique, so no result interface ever collides.
    """
    serial = 0

    def fresh(pool: str, n: int) -> list[tuple[str, str]]:
        nonlocal serial
        out = []
        for _ in range(n):
            kind = rng.choice([PLACE, TRANSITION])
            out.append((kind, f"{pool}{serial}"))
            serial += 1
        return out

    s1 = fresh("s1_", rng.randrange(1, 3))
    s2 = fresh("s2_", rng.randrange(1, 3))
    s3 = fresh("s3_", rng.randrange(2))
    a_left, a_right = fresh("al_", rng.randrange(2)), fresh("ar_", rng.randrange(2))
    b_left, b_right = fresh("bl_", rng.randrange(2)), fresh("br_", rng.randrange(2))
    c_left, c_right = fresh("cl_", rng.randrange(2)), fresh("cr_", rng.randrange(2))

    def shuffled(items: list) -> list:
        items = list(items)
        rng.shuffle(items)
        return items

    a = random_module(rng, "A", shuffled(a_left), shuffled(s1 + s3 + a_right))
    b = random_module(rng, "B", shuffled(s1 + b_left), shuffled(s2 + b_right))
    c = random_module(rng, "C", shuffled(s2 + s3 + c_left), shuffled(c_right))
    return a, b, c


# ---------------------------------------------------------------------------
# Random well-formed documents
# ---------------------------------------------------------------------------

def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(4 if depth < 2 else 1)
    if kind == 0:
        return Atom(rng.choice(ATOMS))
    if kind == 1:
        return TupleValue((_random_value(rng, depth + 1),
                           _random_value(rng, depth + 1)))
    return SetValue(_random_value(rng, depth + 1)
                    for _ in range(rng.randrange(3)))


def _random_sort(rng: random.Random, names: list[str], depth: int = 0):
    kind = rng.randrange(3 if depth == 0 else 2)
    if kind == 0:
        return SortName(rng.choice(names))
    if kind == 1:
        return PowSort(rng.choice(names))
    return TupleSort((_random_sort(rng, names, 1), _random_sort(rng, names, 1)))


def _random_signature(rng: random.Random) -> Signature:
    n_sets = rng.randrange(1, 4)
    sets = [f"Set{i}" for i in range(n_sets)]
    subsets = []
    for i in range(rng.randrange(2)):
        subsets.append((f"Sub{i}", rng.choice(sets)))
    names = sets + [s for s, _ in subsets]
    constants = [(f"k{i}", _random_sort(rng, names))
                 for i in range(rng.randrange(2))]
    functions = []
    for i in range(rng.randrange(3)):
        args = tuple(_random_sort(rng, names)
                     for _ in range(rng.randrange(1, 3)))
        functions.append((f"f{i}", args, _random_sort(rng, names)))
    return Signature(f"sig{rng.randrange(100)}", tuple(sorted(sets)),
                     tuple(sorted(subsets)), tuple(sorted(constants)),
                     tuple(sorted(functions)))


def _random_structure_doc(rng: random.Random) -> StructureDoc:
    entries = []
    used = set()
    for _ in range(rng.randrange(1, 5)):
        sym = f"S{rng.randrange(20)}"
        if sym in used:
            continue
        used.add(sym)
        kind = rng.randrange(3)
        if kind == 0:
            entries.append(StructureEntry(
                sym, "value", value=SetValue(_random_value(rng)
                                             for _ in range(rng.randrange(3)))))
        elif kind == 1:
            keys = []
            pairs = []
            for _ in range(rng.randrange(1, 4)):
                key = _random_value(rng)
                if key in keys:
                    continue
                keys.append(key)
                pairs.append((key, _random_value(rng)))
            pairs.sort(key=lambda kv: (kv[0].key(), kv[1].key()))
            entries.append(StructureEntry(sym, "table", table=tuple(pairs)))
        else:
            entries.append(StructureEntry(sym, "pow", pow_of=f"Base{rng.randrange(3)}"))
    entries.sort(key=lambda e: e.symbol)
    return StructureDoc(f"st{rng.randrange(100)}", "somesig", tuple(entries))


def _random_term(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5 if depth < 2 else 1)
    if kind == 0:
        return Ident(rng.choice(ATOMS + ["x", "y", "Menu"]))
    if kind == 1:
        return TupleTerm((_random_term(rng, depth + 1), _random_term(rng, depth + 1)))
    if kind == 2:
        return SetTerm(tuple(_random_term(rng, depth + 1)
                             for _ in range(rng.randrange(3))))
    return Ident(rng.choice(ATOMS))


def _random_module_doc(rng: random.Random) -> Module:
    sort_names = ["S", "T", "U"]
    places = []
    for i in range(rng.randrange(1, 5)):
        sort = rng.choice([None, _random_sort(rng, sort_names)])
        init = tuple(sorted((_random_term(rng)
                             for _ in range(rng.randrange(2))),
                            key=render_term))
        places.append(Place(f"p{i}", sort, init))
    transitions = []
    for i in range(rng.randrange(1, 4)):
        atoms = []
        for _ in range(rng.randrange(2)):
            atoms.append(GuardAtom(rng.choice(["=", "in", "sub"]),
                                   _random_term(rng), _random_term(rng)))
        atoms.sort(key=lambda a: (render_term(a.left), a.op, render_term(a.right)))
        free = tuple(sorted((f"v{j}", _random_sort(rng, sort_names))
                            for j in range(rng.randrange(2))))
        transitions.append(Transition(f"t{i}", Guard(tuple(atoms)), free))
    arcs = {}
    for _ in range(rng.randrange(4)):
        p = rng.choice(places).name
        t = rng.choice(transitions).name
        src, tgt = (p, t) if rng.random() < 0.5 else (t, p)
        terms = tuple(sorted((_random_term(rng)
                              for _ in range(rng.randrange(1, 3))),
                             key=render_term))
        arcs[(src, tgt)] = Arc(src, tgt, terms)
    left, right = [], []
    labels = [f"L{i}" for i in range(3)] + ["label with space", "menu:{a, b}#1"]
    for side in (left, right):
        seen = set()
        seen_refs = set()
        for _ in range(rng.randrange(3)):
            if rng.random() < 0.5 and places:
                kind, ref = PLACE, rng.choice(places).name
            else:
                kind, ref = TRANSITION, rng.choice(transitions).name
            label = rng.choice(labels)
            if (kind, label) in seen or ref in seen_refs:
                continue
            seen.add((kind, label))
            seen_refs.add(ref)
            side.append(InterfaceElement(kind, label, ref))
    return Module(
        f"m{rng.randrange(100)}", rng.choice(["", "sig_x"]),
        SchematicNet(
            tuple(sorted(places, key=lambda p: p.name)),
            tuple(sorted(transitions, key=lambda t: t.name)),
            tuple(sorted(arcs.values(), key=lambda a: (a.source, a.target)))),
        tuple(left), tuple(right))


def _random_run_doc(rng: random.Random) -> Module:
    conditions = [Condition(f"c{i}", f"pl{rng.randrange(3)}", _random_value(rng))
                  for i in range(rng.randrange(1, 5))]
    events = [Event(f"e{i}", f"tr{rng.randrange(3)}",
                    Binding({f"v{j}": _random_value(rng)
                             for j in range(rng.randrange(3))}))
              for i in range(rng.randrange(1, 4))]
    flow = set()
    for _ in range(rng.randrange(4)):
        c = rng.choice(conditions).id
        e = rng.choice(events).id
        flow.add((c, e) if rng.random() < 0.5 else (e, c))
    left, right = [], []
    for side in (left, right):
        seen = set()
        seen_refs = set()
        for _ in range(rng.randrange(3)):
            c = rng.choice(conditions)
            label = f"{c.place}:{rng.randrange(5)}"
            if (PLACE, label) in seen or c.id in seen_refs:
                continue
            seen.add((PLACE, label))
            seen_refs.add(c.id)
            side.append(InterfaceElement(PLACE, label, c.id))
    key = lambda i: (len(i), i)
    return Module(
        f"r{rng.randrange(100)}", rng.choice(["", "sys_x"]),
        OccurrenceNet(
            tuple(sorted(conditions, key=lambda c: key(c.id))),
            tuple(sorted(events, key=lambda e: key(e.id))),
            tuple(sorted(flow, key=lambda f: (key(f[0]), key(f[1]))))),
        tuple(left), tuple(right))


def random_document(rng: random.Random) -> ModelDocument:
    kind = rng.randrange(5)
    if kind == 0:
        return ModelDocument("signature", _random_signature(rng))
    if kind == 1:
        return ModelDocument("structure", _random_structure_doc(rng))
    if kind == 2:
        return ModelDocument("module", _random_module_doc(rng))
    if kind == 3:
        return ModelDocument("run", _random_run_doc(rng))
    sig = _random_signature(rng)
    struct = _random_structure_doc(rng)
    struct = StructureDoc(struct.name, sig.name, struct.entries)
    module = _random_module_doc(rng)
    module = Module(module.name, sig.name, module.inner, module.left, module.right)
    inner = module.inner
    marking = Marking({p.name: Multiset([_random_value(rng)])
                       for p in inner.places if rng.random() < 0.5})
    return ModelDocument("system", SystemDoc(
        f"sys{rng.randrange(100)}", sig, struct, module, marking))


# ---------------------------------------------------------------------------
# Replay oracle
# ---------------------------------------------------------------------------

def replay(system, steps) -> Marking:
    """Sequentially fire a list of (transition, binding) from the initial
    marking; raises if any step is not enabled."""
    m = system.initial
    for name, binding in steps:
        m = system.fire(m, name, binding)
    return m


def reference_simulate(system, policy) -> tuple[list[tuple[str, Binding]], Marking]:
    """The ``(transition, binding)`` steps that ``simulate`` takes under
    ``policy`` and the marking they reach, by the definitional loop: the
    options are the :func:`enabled_bindings` of each transition in name
    order (or a script step's one matching binding), one seeded
    ``random.Random`` picks among them, and :func:`fire` advances the
    marking.  Remembers nothing between steps."""
    net, s = system.net, system.structure
    rng = random.Random(policy.seed)
    m, steps = system.initial, []
    for k in range(policy.step_limit):
        if policy.mode == "script":
            name, wanted = policy.script[k]
            options = [(name, b) for b in enabled_bindings(net, m, name, s)
                       if b.extends(wanted)]
            if len(options) != 1:
                raise ValueError(f"script step {k + 1} matches {len(options)} bindings")
        else:
            options = [(t.name, b) for t in sorted(net.transitions, key=lambda t: t.name)
                       for b in enabled_bindings(net, m, t, s)]
            if not options:
                break
        name, b = options[rng.randrange(len(options))]
        m = fire(net, m, name, b, s)
        steps.append((name, b))
    return steps, m


def reference_run(system, policy) -> Module:
    """The run ``simulate`` records under ``policy``, by the definitional
    recorder: :func:`reference_simulate`'s steps, each step's tokens
    evaluated afresh from its arc inscriptions, and the cut kept as one
    list per place in creation order.  A step takes its tokens
    place by place in name order, value by value in canonical order, and
    finds each by a linear scan of its place's cut (of equal tokens, the
    oldest); then it puts its output tokens on, in the same order, as
    fresh conditions."""
    net, s = system.net, system.structure
    steps, _ = reference_simulate(system, policy)
    conditions: list[Condition] = []
    events: list[Event] = []
    flow: list[tuple[str, str]] = []
    cut: dict[str, list[Condition]] = {}

    def new_condition(place: str, value: Value) -> Condition:
        c = Condition(f"b{len(conditions)}", place, value)
        conditions.append(c)
        cut.setdefault(place, []).append(c)
        return c

    for place, tokens in system.initial.items():
        for v in tokens:
            new_condition(place, v)
    initial = list(conditions)
    for name, b in steps:
        event = Event(f"e{len(events)}", name, b)
        events.append(event)
        consumed = _reference_arc_tokens(net.arcs_into(name), "source", s, b)
        for place in sorted(consumed):
            pool = cut.get(place, [])
            for value in consumed[place]:
                i = next(i for i, c in enumerate(pool) if c.value == value)
                flow.append((pool.pop(i).id, event.id))
        produced = _reference_arc_tokens(net.arcs_out_of(name), "target", s, b)
        for place in sorted(produced):
            for value in produced[place]:
                flow.append((event.id, new_condition(place, value).id))
    final = [c for place in sorted(cut) for c in cut[place]]
    inner = OccurrenceNet(tuple(conditions), tuple(events), tuple(flow))
    return Module(f"{system.name}_run", system.name, inner,
                  left=_cut_interface(initial), right=_cut_interface(final))


# ---------------------------------------------------------------------------
# Occurrence-net lookup oracle: linear scans over the net's fields
# ---------------------------------------------------------------------------

def scan_condition(net: OccurrenceNet, node_id: str) -> Condition:
    for c in net.conditions:
        if c.id == node_id:
            return c
    raise KeyError(f"no condition {node_id!r}")


def scan_event(net: OccurrenceNet, node_id: str) -> Event:
    for e in net.events:
        if e.id == node_id:
            return e
    raise KeyError(f"no event {node_id!r}")


def scan_pre(net: OccurrenceNet, node_id: str) -> tuple[str, ...]:
    return tuple(src for src, tgt in net.flow if tgt == node_id)


def scan_post(net: OccurrenceNet, node_id: str) -> tuple[str, ...]:
    return tuple(tgt for src, tgt in net.flow if src == node_id)


def scan_topo_levels(net: OccurrenceNet) -> list[str] | None:
    """All node ids in one topological order, or None if cyclic; raises
    KeyError on a flow arc into an unknown node."""
    succ: dict[str, list[str]] = {}
    indeg: dict[str, int] = {}
    ids = [c.id for c in net.conditions] + [e.id for e in net.events]
    for i in ids:
        indeg[i] = 0
    for src, tgt in net.flow:
        succ.setdefault(src, []).append(tgt)
        if tgt in indeg:
            indeg[tgt] += 1
    frontier = sorted(i for i in ids if indeg[i] == 0)
    order: list[str] = []
    while frontier:
        node = frontier.pop(0)
        order.append(node)
        for nxt in sorted(succ.get(node, ())):
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                frontier.append(nxt)
        frontier.sort()
    if len(order) != len(ids):
        return None
    return order


def reference_linearize(net: OccurrenceNet, seed: int = 0) -> list[tuple[str, Binding]]:
    """``linearize`` by rescanning every pending event at each step: the
    sorted ready events, one drawn with ``randrange``; raises ValueError
    when events are left but none is ready."""
    conditions = {}
    for c in net.conditions:
        conditions.setdefault(c.id, c)
    deps = {e.id: {scan_pre(net, cid)[-1] for cid in scan_pre(net, e.id)
                   if cid in conditions and scan_pre(net, cid)}
            for e in net.events}
    rng = random.Random(seed)
    done: set[str] = set()
    result: list[tuple[str, Binding]] = []
    pending = {e.id: e for e in net.events}
    while pending:
        ready = sorted(eid for eid, need in deps.items()
                       if eid in pending and need <= done)
        if not ready:
            raise ValueError("cyclic event dependencies")
        eid = ready[rng.randrange(len(ready))]
        event = pending.pop(eid)
        done.add(eid)
        result.append((event.transition, event.binding))
    return result


# ---------------------------------------------------------------------------
# Enabling oracle
# ---------------------------------------------------------------------------

def brute_force_bindings(net, m, t, s) -> list[Binding]:
    """The definition of enabling, by carrier enumeration: every
    sort-respecting total binding, in lexicographic carrier order, whose
    guard holds and whose evaluated input inscriptions the marking
    contains.  A binding under which evaluation fails is not enabled."""
    out = []
    for b in enumerate_bindings(t.variables, s):
        try:
            if not eval_guard(t.guard, s, b):
                continue
            needed: dict[str, Multiset] = {}
            for arc in net.arcs_into(t.name):
                tokens = inscription_tokens(arc.inscription, s, b)
                needed[arc.source] = needed.get(arc.source, Multiset()) + tokens
        except EvalError:
            continue
        if all(ms <= m.get(place) for place, ms in needed.items()):
            out.append(b)
    return out


# ---------------------------------------------------------------------------
# Multiset, marking and firing oracle: the sorted-pair representation
# ---------------------------------------------------------------------------

class ReferenceMultiset:
    """An immutable multiset of values with canonical iteration order."""

    __slots__ = ("_pairs",)

    def __init__(self, values: Iterable[Value] = ()):
        counts: dict[Value, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        self._pairs = tuple(sorted(counts.items(), key=lambda kv: kv[0].key()))

    @classmethod
    def _from_pairs(cls, pairs: Iterable[tuple[Value, int]]) -> "ReferenceMultiset":
        m = cls.__new__(cls)
        m._pairs = tuple(sorted(
            ((v, n) for v, n in pairs if n > 0), key=lambda kv: kv[0].key()))
        return m

    def pairs(self) -> tuple[tuple[Value, int], ...]:
        return self._pairs

    def count(self, v: Value) -> int:
        for w, n in self._pairs:
            if w == v:
                return n
        return 0

    def total(self) -> int:
        return sum(n for _, n in self._pairs)

    def distinct(self) -> tuple[Value, ...]:
        return tuple(v for v, _ in self._pairs)

    def __iter__(self) -> Iterator[Value]:
        for v, n in self._pairs:
            for _ in range(n):
                yield v

    def __len__(self) -> int:
        return self.total()

    def __bool__(self) -> bool:
        return bool(self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReferenceMultiset) and other._pairs == self._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __add__(self, other: "ReferenceMultiset") -> "ReferenceMultiset":
        counts = dict(self._pairs)
        for v, n in other._pairs:
            counts[v] = counts.get(v, 0) + n
        return ReferenceMultiset._from_pairs(counts.items())

    def __sub__(self, other: "ReferenceMultiset") -> "ReferenceMultiset":
        counts = dict(self._pairs)
        for v, n in other._pairs:
            have = counts.get(v, 0)
            if have < n:
                raise ValueError(f"cannot remove {n} of {render_value(v)}, have {have}")
            counts[v] = have - n
        return ReferenceMultiset._from_pairs(counts.items())

    def __le__(self, other: "ReferenceMultiset") -> bool:
        """Multiset containment."""
        return all(other.count(v) >= n for v, n in self._pairs)

    def __repr__(self) -> str:
        return f"Multiset([{', '.join(render_value(v) for v in self)}])"


class ReferenceMarking:
    """An immutable per-place multiset of values; hashable, canonical."""

    __slots__ = ("_entries",)

    def __init__(self, per_place: Mapping[str, ReferenceMultiset | Iterable[Value]] = ()):
        entries = []
        items = per_place.items() if isinstance(per_place, Mapping) else per_place
        for place, tokens in items:
            ms = tokens if isinstance(tokens, ReferenceMultiset) else ReferenceMultiset(tokens)
            if ms:
                entries.append((place, ms))
        self._entries = tuple(sorted(entries))

    def get(self, place: str) -> ReferenceMultiset:
        for name, ms in self._entries:
            if name == place:
                return ms
        return ReferenceMultiset()

    def items(self) -> tuple[tuple[str, ReferenceMultiset], ...]:
        return self._entries

    def updated(self, remove: Mapping[str, ReferenceMultiset],
                add: Mapping[str, ReferenceMultiset]) -> "ReferenceMarking":
        per_place = {name: ms for name, ms in self._entries}
        for place, ms in remove.items():
            per_place[place] = per_place.get(place, ReferenceMultiset()) - ms
        for place, ms in add.items():
            per_place[place] = per_place.get(place, ReferenceMultiset()) + ms
        return ReferenceMarking(per_place)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ReferenceMarking) and other._entries == self._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def rendered_entries(self) -> list[str]:
        """``place: v1, v2`` per marked place, in canonical order."""
        return [f"{p}: " + ", ".join(render_value(v) for v in ms)
                for p, ms in self._entries]

    def __repr__(self) -> str:
        return f"Marking({'; '.join(self.rendered_entries())})"


def _reference_tokens(terms, s, b) -> ReferenceMultiset:
    return ReferenceMultiset(v for t in terms for v in term_tokens(t, s, b))


def _reference_arc_tokens(arcs, end: str, s, b) -> dict[str, ReferenceMultiset]:
    """The tokens ``arcs`` carry under ``b``, summed per place at their
    ``end`` (``"source"`` or ``"target"``)."""
    out: dict[str, ReferenceMultiset] = {}
    for arc in arcs:
        place = getattr(arc, end)
        out[place] = out.get(place, ReferenceMultiset()) + _reference_tokens(arc.inscription, s, b)
    return out


def reference_fire(net, m: ReferenceMarking, transition, b: Binding, s) -> ReferenceMarking:
    """Fire one transition occurrence; pure, raises if not enabled."""
    t = net.transition(transition) if isinstance(transition, str) else transition
    for name, _ in t.variables or ():
        if name not in b:
            raise FiringError(
                f"binding does not assign variable {name!r} of {t.name!r}")
    if not eval_guard(t.guard, s, b):
        raise FiringError(f"guard of {t.name!r} is false under {b!r}")
    consumed = _reference_arc_tokens(net.arcs_into(t.name), "source", s, b)
    for place, needed in consumed.items():
        if not needed <= m.get(place):
            raise FiringError(
                f"{t.name!r} is not enabled: {place!r} lacks required tokens")
    produced = _reference_arc_tokens(net.arcs_out_of(t.name), "target", s, b)
    for place_name, tokens in produced.items():
        place = net.place(place_name)
        if place.sort is None:
            continue
        for v in tokens.distinct():
            if not value_in_sort(v, place.sort, s):
                raise FiringError(
                    f"{t.name!r} would put {render_value(v)} on {place_name!r}, "
                    f"outside sort {render_sort(place.sort)}")
    return m.updated(consumed, produced)


def reference_successors(net, m: Marking, s) -> list[tuple[str, Binding, Marking]]:
    """All enabled (transition, binding) pairs with their successor
    markings, in deterministic order: every transition enabled and every
    binding fired afresh at ``m``, remembering nothing between calls."""
    out = []
    for t in sorted(net.transitions, key=lambda t: t.name):
        for b in enabled_bindings(net, m, t, s):
            out.append((t.name, b, fire(net, m, t, b, s)))
    return out


def stepper_disagreements(net, s, markings: Iterable[Marking]) -> list[tuple]:
    """Step one :class:`nets.Stepper` over ``markings`` in turn and list
    ``(index, transition or None, marking)`` wherever its enabled
    bindings differ from the brute-force ones, a state it fires one to
    decodes to another marking (or error) than :func:`fire` gives, or
    its successors (None) differ from the reference ones, so that
    whatever it kept from an earlier marking must still hold at this
    one."""
    stepper = Stepper(net, s)
    out = []
    for i, m in enumerate(markings):
        state, decode = stepper.encoding(m)
        for t in net.transitions:
            found = stepper.enabled(state, t.name)
            if found != brute_force_bindings(net, m, t, s) or any(
                    _outcome(lambda: decode(stepper.fire(state, t.name, b)[1]))
                    != _outcome(lambda: fire(net, m, t.name, b, s)) for b in found):
                out.append((i, t.name, m))
        if stepper.successors(m) != reference_successors(net, m, s):
            out.append((i, None, m))
    return out


def wrap_kernels(monkeypatch, net, s, slot: str, wrap) -> None:
    """Replace ``slot`` (such as ``"join"`` or ``"occurrence"``) of
    the kernel of each of ``net``'s transitions under ``s`` by ``wrap(name,
    the function it held)``, in place, so that every caller that fetches
    the kernel calls the wrapper until ``monkeypatch`` undoes it."""
    for t in net.transitions:
        kernel = nets._kernel(net, t.name, s)
        monkeypatch.setattr(kernel, slot, wrap(t.name, getattr(kernel, slot)))


def counting_occurrences(monkeypatch, net, s) -> list[tuple[str, Binding]]:
    """The (transition, binding) of each occurrence that the kernels of
    ``net`` under ``s`` evaluate from now on (:func:`wrap_kernels`)."""
    calls = []

    def wrap(name, occurrence):
        def counted(env):
            calls.append((name, Binding(env)))
            return occurrence(env)
        return counted

    wrap_kernels(monkeypatch, net, s, "occurrence", wrap)
    return calls


def _outcome(step):
    """What ``step()`` returns, or the type and message of the firing or
    evaluation error it raises."""
    try:
        return step()
    except (FiringError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Rational elimination oracle
# ---------------------------------------------------------------------------

def rational_nullspace(matrix: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Integer basis of {x : matrix @ x = 0} for a matrix with ``width``
    columns, via exact rational elimination.

    Each basis vector is scaled to coprime integers with a positive
    first nonzero entry.
    """
    rows = [[Fraction(v) for v in row] for row in matrix if any(row)]
    n = width
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][col] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        factor = rows[r][col]
        rows[r] = [v / factor for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                coef = rows[k][col]
                rows[k] = [a - coef * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free_cols = [c for c in range(n) if c not in pivots]
    basis: list[tuple[int, ...]] = []
    for free in free_cols:
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row_idx, col in enumerate(pivots):
            x[col] = -rows[row_idx][free]
        basis.append(_to_integer(x))
    return basis


def _to_integer(vector: list[Fraction]) -> tuple[int, ...]:
    denom = 1
    for v in vector:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vector]
    common = 0
    for v in ints:
        common = gcd(common, abs(v))
    if common > 1:
        ints = [v // common for v in ints]
    first = next((v for v in ints if v != 0), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def rational_in_span(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Exact test that ``vector`` is a rational combination of ``basis``."""
    if not basis:
        return all(v == 0 for v in vector)
    n = len(vector)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(vector[i])]
            for i in range(n)]
    cols = len(basis)
    r = 0
    for col in range(cols):
        pivot = next((k for k in range(r, n) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        factor = rows[r][col]
        rows[r] = [v / factor for v in rows[r]]
        for k in range(n):
            if k != r and rows[k][col] != 0:
                coef = rows[k][col]
                rows[k] = [a - coef * b for a, b in zip(rows[k], rows[r])]
        r += 1
    for k in range(r, n):
        if rows[k][cols] != 0 and all(rows[k][c] == 0 for c in range(cols)):
            return False
    return True


# ---------------------------------------------------------------------------
# Lexer oracle: the character-by-character scanner the parser used before
# its regular-expression lexer, kept unchanged
# ---------------------------------------------------------------------------

_TWO_CHAR = ("->", "<=", ">=", "!=")
_ONE_CHAR = "{}()[],;:=<>"


@dataclass(frozen=True)
class _Token:
    type: str  # IDENT | STRING | INT | punctuation text | EOF
    text: str
    line: int
    col: int

    @property
    def end_col(self) -> int:
        return self.col + max(len(self.text), 1)

    def span(self, filename: str) -> SourceSpan:
        return SourceSpan(filename, self.line, self.col, self.line, self.end_col)


def reference_lex(source: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source[i:i + 2] in _TWO_CHAR:
            tokens.append(_Token(source[i:i + 2], source[i:i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            start_col = col
            i += 1
            col += 1
            buf = []
            while i < n and source[i] != '"':
                if source[i] == "\n":
                    raise ParseError("unterminated string",
                                     SourceSpan(filename, line, start_col,
                                                line, col))
                if source[i] == "\\" and i + 1 < n:
                    i += 1
                    col += 1
                buf.append(source[i])
                i += 1
                col += 1
            if i == n:
                raise ParseError("unterminated string",
                                 SourceSpan(filename, line, start_col, line, col))
            i += 1
            col += 1
            tokens.append(_Token("STRING", "".join(buf), line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            start_col = col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
                col += 1
            tokens.append(_Token("IDENT", source[start:i], line, start_col))
            continue
        if ch.isdigit():
            start = i
            start_col = col
            while i < n and source[i].isdigit():
                i += 1
                col += 1
            tokens.append(_Token("INT", source[start:i], line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}",
                         SourceSpan(filename, line, col, line, col + 1))
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Seeded mutations of source text, and what a parse attaches to its result
# ---------------------------------------------------------------------------

_WORDS = re.compile(r'"[^"\n]*"|\w+|->|\S')


def mutate_source(text: str, rng: random.Random, alphabet: str) -> str:
    """One to three character or token edits: delete or insert a few
    characters drawn from ``alphabet``, or delete, duplicate, swap or
    replace whole tokens."""
    for _ in range(rng.randrange(1, 4)):
        words = [m.span() for m in _WORDS.finditer(text)]
        op = rng.randrange(6)
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randrange(1, 4):]
        elif op == 1 or not words:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + "".join(
                rng.choice(alphabet) for _ in range(rng.randrange(1, 4))) + text[i:]
        else:
            k = rng.randrange(len(words))
            a, b = words[k]
            if op == 2:
                text = text[:a] + text[b:]
            elif op == 3:
                text = text[:b] + " " + text[a:b] + text[b:]
            elif op == 4 and k + 1 < len(words):
                c, d = words[k + 1]
                text = text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
            else:
                c, d = words[rng.randrange(len(words))]
                text = text[:a] + text[c:d] + text[b:]
    return text


def attached_spans(obj, path: str = "") -> list[str]:
    """Every source span reachable from a parse result, with the field
    path that leads to it, in field order."""
    if isinstance(obj, SourceSpan):
        return [f"{path}={obj.file}:{obj.line}:{obj.col}-{obj.end_line}:{obj.end_col}"]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [s for f in dataclasses.fields(obj)
                for s in attached_spans(getattr(obj, f.name), f"{path}.{f.name}")]
    if isinstance(obj, (tuple, list)):
        return [s for i, item in enumerate(obj)
                for s in attached_spans(item, f"{path}[{i}]")]
    return []


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Canonical labelling oracle
# ---------------------------------------------------------------------------
#
# ``reference_canonicalize`` is ``modules.canonicalize`` as it stood before
# incremental refinement and automorphism pruning: full colour refinement
# each round, and an individualisation search that visits every leaf.  It
# is factorial in interchangeable nodes, so keep its inputs small.

def reference_module_graph(m: Module):
    """Id-free node decorations, each a string and its sorted interface
    tags, and adjacency for canonical labeling."""
    decor: dict[str, object] = {}
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

    # a label may hold the ";" that joins the tags, so the sorted tags
    # rank nodes whose strings are equal
    for node in decor:
        tags = tuple(sorted(anchors.get(node, ())))
        decor[node] = (decor[node] + "|" + ";".join(tags) if tags else decor[node], tags)
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


def reference_canonicalize(m: Module) -> Module:
    """The canonical form of ``m`` by the exhaustive search above."""
    m = _normalize_module(m)
    ids, kinds, decor, out_adj, in_adj = reference_module_graph(m)
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


def reference_leaves(m: Module, limit: int) -> int:
    """How many leaves ``reference_canonicalize`` visits on ``m``, counting
    no further than ``limit + 1``."""
    ids, _, decor, out_adj, in_adj = reference_module_graph(_normalize_module(m))
    count = 0

    def visit(colors) -> None:
        nonlocal count
        colors = _refine(ids, colors, out_adj, in_adj)
        groups: dict[int, list[str]] = {}
        for n in ids:
            groups.setdefault(colors[n], []).append(n)
        tie = next((groups[c] for c in sorted(groups) if len(groups[c]) > 1), None)
        if tie is None:
            count += 1
            return
        for candidate in tie:
            if count > limit:
                return
            trial = dict(colors)
            trial[candidate] = -1
            visit(_rank({n: (trial[n],) for n in ids}))

    if ids:
        visit(_rank({n: decor[n] for n in ids}))
    return count


def identical_copies(m: Module, count: int) -> Module:
    """``m`` composed with ``count - 1`` copies of its inner net that expose
    no interface, so the copies are interchangeable."""
    bare = Module(m.name, m.sig, m.inner)
    return compose_all([m] + [bare] * (count - 1))


def random_relabeling(m: Module, rng: random.Random) -> Module:
    """``m`` with every inner id replaced by a fresh random one."""
    ids = sorted(_inner_ids(m.inner))
    rng.shuffle(ids)
    return rename_elements(m, {old: f"n{rng.randrange(10**6)}_{i}"
                               for i, old in enumerate(ids)})


def structure_text(n: int, k: int) -> str:
    """The ``.hks`` text of a restaurant branch over ``sigma0`` with n
    clients, n tables and k menu entries; dishes share the menu's names,
    so ``f`` and ``g`` are identity tables."""
    def names(prefix: str, count: int) -> list[str]:
        width = len(str(count))
        return [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]

    def set_text(items) -> str:
        return "{" + ", ".join(items) + "}"

    menu = names("m", k)
    subsets = [c for r in range(k + 1) for c in itertools.combinations(menu, r)]
    return "\n".join([
        f"structure s_{n}_{k} of sigma0 {{",
        f"  Clients = {set_text(names('c', n))};",
        f"  Tables = {set_text(names('t', n))};",
        f"  Menu = {set_text(menu)};",
        "  Orders = pow(Menu);",
        f"  Meal_items = {set_text(menu)};",
        "  Meals = pow(Meal_items);",
        "  f = {" + ", ".join(f"{m} -> {m}" for m in menu) + "};",
        "  g = {" + ", ".join(f"{set_text(s)} -> {set_text(s)}" for s in subsets) + "};",
        "}", ""])

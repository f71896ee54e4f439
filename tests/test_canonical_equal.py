"""``canonical_equal`` against the comparison of two canonical forms.

``canonical_equal(a, b)`` must say exactly what ``canonicalize(a) ==
canonicalize(b)`` says, and ``canonicalize`` must give what the
exhaustive ``support.reference_canonicalize`` gives, on random module
pairs, relabelled copies, single-field mutations, simulated runs against
their printed and re-parsed text, runs against schematic modules, and
the empty module and run.  Every property runs derandomized.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from hknet import (Arc, Atom, Binding, Condition, Event, Guard, GuardAtom, Ident,
                   InterfaceElement, ModelError, Module, OccurrenceNet, Place,
                   SchematicNet, SortName, Transition, canonical_equal,
                   canonicalize, compose_all, empty_module, empty_run, parse,
                   print_run, random_policy, simulate)
from hknet.modules import PLACE, TRANSITION
from hknet.spans import SourceSpan

from conftest import load, synthetic
from support import (_random_module_doc, _random_run_doc, compatible_triple,
                     random_module, random_relabeling, reference_canonicalize,
                     reference_leaves)
from test_canonical import LEAF_LIMIT, module_inputs

SEEDS = st.integers(0, 2**32 - 1)


def agreed(a: Module, b: Module) -> bool:
    """``canonical_equal(a, b)``, checked against the two canonical forms,
    and each form against the reference where its search stays small."""
    equal = canonical_equal(a, b)
    assert equal is (canonicalize(a) == canonicalize(b))
    for m in (a, b):
        if reference_leaves(m, LEAF_LIMIT) <= LEAF_LIMIT:
            assert canonicalize(m) == reference_canonicalize(m)
    return equal


def random_spec(rng: random.Random) -> list[tuple[str, str]]:
    """Up to three (kind, label) pairs from a small pool, so that two
    random modules sometimes share an interface."""
    pool = [(kind, label) for kind in (PLACE, TRANSITION) for label in ("x", "y")]
    return rng.sample(pool, rng.randrange(4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(SEEDS)
def test_random_module_pairs(seed):
    rng = random.Random(seed)
    a = random_module(rng, "a", random_spec(rng), random_spec(rng))
    b = random_module(rng, "b", random_spec(rng), random_spec(rng))
    agreed(a, b)
    agreed(a, a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(module_inputs(), SEEDS)
def test_relabelled_pairs_are_equal(m, seed):
    assert agreed(m, random_relabeling(m, random.Random(seed)))


# ---------------------------------------------------------------------------
# Single-field mutations
# ---------------------------------------------------------------------------

MUTATED = "mutated"


def mutations(m: Module) -> list[Module]:
    """``m`` with one field of one element set to a value that occurs
    nowhere in ``m``, once per element and field."""
    inner = m.inner
    out = []

    def swap(field: str, items: tuple, i: int, item) -> None:
        changed = items[:i] + (item,) + items[i + 1:]
        if field in ("left", "right"):
            out.append(replace(m, **{field: changed}))
        else:
            out.append(replace(m, inner=replace(inner, **{field: changed})))

    for side in ("left", "right"):
        for i, e in enumerate(getattr(m, side)):
            swap(side, getattr(m, side), i, replace(e, label=MUTATED))
    if isinstance(inner, SchematicNet):
        for i, p in enumerate(inner.places):
            swap("places", inner.places, i, replace(p, sort=SortName("Mutated")))
            swap("places", inner.places, i, replace(p, init=(Ident(MUTATED),)))
        for i, t in enumerate(inner.transitions):
            atom = GuardAtom("=", Ident(MUTATED), Ident(MUTATED))
            swap("transitions", inner.transitions, i, replace(t, guard=Guard((atom,))))
            swap("transitions", inner.transitions, i,
                 replace(t, free=((MUTATED, SortName("S")),)))
        for i, a in enumerate(inner.arcs):
            swap("arcs", inner.arcs, i, replace(a, inscription=(Ident(MUTATED),)))
    else:
        for i, c in enumerate(inner.conditions):
            swap("conditions", inner.conditions, i, replace(c, place=MUTATED))
            swap("conditions", inner.conditions, i, replace(c, value=Atom(MUTATED)))
        for i, e in enumerate(inner.events):
            swap("events", inner.events, i, replace(e, transition=MUTATED))
            swap("events", inner.events, i,
                 replace(e, binding=Binding({MUTATED: Atom(MUTATED)})))
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(module_inputs(), SEEDS)
def test_single_field_mutations_are_unequal(m, seed):
    rng = random.Random(seed)
    variants = mutations(m)
    assert variants
    for variant in rng.sample(variants, min(len(variants), 4)):
        assert not agreed(m, random_relabeling(variant, rng))


def test_every_mutation_is_seen_on_a_fixed_module_and_run():
    rng = random.Random(3)
    for m in (compatible_triple(rng)[1], _random_module_doc(rng), _random_run_doc(rng)):
        for variant in mutations(m):
            assert not agreed(m, variant)


# ---------------------------------------------------------------------------
# Simulated runs, runs against schematic modules, empty modules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def system(n: int, k: int):
    parts = [load(f).body for f in ("entry.hk", "guest_area.hk", "kitchen.hk")]
    return synthetic(compose_all(parts), n, k)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([(1, 1), (1, 2), (2, 2)]), st.integers(0, 40), SEEDS)
def test_simulated_runs_equal_their_printed_round_trip(size, steps, seed):
    run = simulate(system(*size), random_policy(seed=seed, steps=steps))
    parsed = parse(print_run(run), "roundtrip.hkrun").body
    assert agreed(run, parsed)
    assert agreed(random_relabeling(parsed, random.Random(seed)), run)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SEEDS, st.booleans())
def test_runs_differ_from_schematic_modules(seed, simulated):
    rng = random.Random(seed)
    if simulated:
        run = simulate(system(1, 1), random_policy(seed=seed, steps=rng.randrange(6)))
    else:
        run = _random_run_doc(rng)
    schematic = _random_module_doc(rng)
    assert not agreed(run, schematic)
    assert not agreed(schematic, run)
    assert not agreed(run, empty_module())
    assert not agreed(schematic, empty_run())


def test_the_empty_module_and_the_empty_run():
    assert agreed(empty_module(), empty_module("other"))
    assert agreed(empty_run(), empty_run("other"))
    assert not agreed(empty_module(), empty_run())
    assert canonicalize(empty_module("x")) == Module("_", "", SchematicNet())
    labelled = Module("m", "", SchematicNet(), (InterfaceElement(PLACE, "b", "q"),
                                                InterfaceElement(PLACE, "a", "p")))
    assert agreed(labelled, replace(labelled, left=labelled.left[::-1]))
    assert not agreed(labelled, empty_module())


# ---------------------------------------------------------------------------
# Labels that hold the tag separator; arcs to unknown nodes
# ---------------------------------------------------------------------------

def colliding_labels(first: str, second: str) -> Module:
    """Places ``first`` and ``second``, where ``first``'s one tag, the left
    label ``x;R:place:y``, renders as ``second``'s two tags joined by ``;``."""
    return Module("m", "", SchematicNet((Place("p"), Place("q"))),
                  (InterfaceElement(PLACE, "x;R:place:y", first),
                   InterfaceElement(PLACE, "x", second)),
                  (InterfaceElement(PLACE, "y", second),))


def test_labels_holding_the_tag_separator_keep_the_form_canonical():
    a, b = colliding_labels("p", "q"), colliding_labels("q", "p")
    assert agreed(a, b)
    assert canonicalize(a) == canonicalize(b) == reference_canonicalize(b)
    assert canonicalize(a).left == (InterfaceElement(PLACE, "x", "p0"),
                                    InterfaceElement(PLACE, "x;R:place:y", "p1"))


def test_an_arc_to_an_unknown_node_is_named():
    run = Module("r", "", OccurrenceNet(
        (Condition("b0", "p", Atom("a")),), (Event("e0", "t", Binding()),),
        (("b0", "e0"), ("e0", "b9"))))
    span = SourceSpan("m.hk", 3, 5, 3, 16)
    net = Module("m", "", SchematicNet(
        (Place("p"),), (Transition("t"),),
        (Arc("p", "t", (Ident("x"),)), Arc("t9", "p", (Ident("x"),), span))))
    for m, message in ((run, "flow e0 -> b9 mentions unknown node 'b9'"),
                       (net, "arc t9 -> p mentions unknown node 't9'")):
        for call in (lambda: canonicalize(m), lambda: canonical_equal(m, m),
                     lambda: canonical_equal(empty_module(), m)):
            with pytest.raises(ModelError) as caught:
                call()
            assert caught.value.message == message
    with pytest.raises(ModelError) as caught:
        canonicalize(net)
    assert caught.value.span == span

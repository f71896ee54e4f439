import pickle
import random
from dataclasses import replace
from pathlib import Path

import pytest

from hknet import (Arc, Atom, Binding, CompositionError, Condition, Event, Ident,
                   InterfaceElement, Marking, ModelDocument, ModelError, Module,
                   OccurrenceNet, Place, SchematicNet, Signature, SortName, Transition,
                   Violation, canonical_equal, canonicalize, compose, compose_all,
                   enabled_bindings, empty_module, export_dot, instantiate, interface_of,
                   interface_violations, print_document, print_run, rename_elements,
                   resolve_net)
from hknet.modules import PLACE, TRANSITION, _inner_ids
from hknet.spans import SourceSpan

from support import attached_spans, compatible_triple


def elements(m: Module) -> int:
    return len(m.inner.places) + len(m.inner.transitions)


def test_branch_exposes_enter_and_leave(branch):
    assert interface_of(branch, "left") == [(TRANSITION, "enter")]
    assert interface_of(branch, "right") == [(TRANSITION, "leave")]


def test_entry_has_empty_left_interface(entry):
    assert interface_of(entry, "left") == []
    assert interface_of(entry, "right") == [(PLACE, "free_tables"),
                                            (PLACE, "offered_tables")]


def test_empty_module_interfaces():
    assert interface_of(empty_module(), "right") == []
    assert interface_of(empty_module(), "left") == []


def test_composing_no_modules_gives_the_empty_module():
    assert compose_all([]) == empty_module()


def test_empty_module_is_neutral(entry, branch):
    for m in (entry, branch):
        assert compose(m, empty_module()) == m
        assert compose(empty_module(), m) == m


def test_fusion_count(entry, guest_area):
    fused = compose(entry, guest_area)
    matched = {(e.kind, e.label) for e in entry.right} & \
        {(e.kind, e.label) for e in guest_area.left}
    assert elements(fused) == elements(entry) + elements(guest_area) - len(matched)
    assert len(matched) == 2


def test_fused_places_unite_arcs(entry, guest_area, kitchen):
    branch = compose(compose(entry, guest_area), kitchen)
    inner = branch.inner
    # free_tables now feeds offer_table and receives from leave
    assert any(a.source == "free_tables" and a.target == "offer_table"
               for a in inner.arcs)
    assert any(a.source == "leave" and a.target == "free_tables"
               for a in inner.arcs)
    # the fused hand_over conjoins the kitchen guard
    hand_over = inner.transition("hand_over")
    assert not hand_over.guard.is_true()


def test_composition_preserves_unmatched_structure(entry, guest_area):
    fused = compose(entry, guest_area)
    inner = fused.inner
    offer_arcs = [(a.source, a.target) for a in inner.arcs
                  if "offer_table" in (a.source, a.target)]
    assert sorted(offer_arcs) == [("free_tables", "offer_table"),
                                  ("offer_table", "offered_tables")]


def test_mismatched_sorts_refuse_to_fuse():
    a = Module("a", "", SchematicNet(places=(Place("p", SortName("S")),)),
               right=(InterfaceElement(PLACE, "x", "p"),))
    b = Module("b", "", SchematicNet(places=(Place("p", SortName("T")),)),
               left=(InterfaceElement(PLACE, "x", "p"),))
    with pytest.raises(CompositionError,
                       match=r"^fused place 'p' has incompatible sorts S and T$"):
        compose(a, b)


def test_unsorted_side_adopts_the_sorted_one():
    a = Module("a", "", SchematicNet(places=(Place("p", None),)),
               right=(InterfaceElement(PLACE, "x", "p"),))
    b = Module("b", "", SchematicNet(places=(Place("p", SortName("T")),)),
               left=(InterfaceElement(PLACE, "x", "p"),))
    fused = compose(a, b)
    assert fused.inner.place("p").sort == SortName("T")


def test_fused_transition_merges_free_variables():
    def module(name, side, free):
        net = SchematicNet(transitions=(Transition("t", free=free),))
        return Module(name, "", net, **{side: (InterfaceElement(TRANSITION, "u", "t"),)})

    a = module("a", "right", (("x", SortName("A")),))
    b = module("b", "left", (("x", SortName("A")), ("y", SortName("B"))))
    fused = compose(a, b).inner.transition("t")
    assert fused.free == (("x", SortName("A")), ("y", SortName("B")))
    clash = module("c", "left", (("x", SortName("B")),))
    with pytest.raises(CompositionError, match=r"^fused transition 't' declares free "
                       r"variable 'x' with two different sorts$"):
        compose(a, clash)


def twice(node) -> tuple:
    return (node, node)


REPEATED_IDS = [
    (SchematicNet(places=(Place("x"),)),
     SchematicNet(places=twice(Place("q"))), "place", "q"),
    (SchematicNet(transitions=(Transition("x"),)),
     SchematicNet(transitions=twice(Transition("u"))), "transition", "u"),
    (OccurrenceNet(conditions=(Condition("x", "p", Atom("v")),)),
     OccurrenceNet(conditions=twice(Condition("c", "p", Atom("v")))), "condition", "c"),
    (OccurrenceNet(events=(Event("x", "t", Binding({})),)),
     OccurrenceNet(events=twice(Event("e", "t", Binding({})))), "event", "e"),
]


@pytest.mark.parametrize("a_inner, b_inner, what, name", REPEATED_IDS)
def test_unfused_shared_ids_collide(a_inner, b_inner, what, name):
    # only a module built through the API can hold two equally named nodes
    with pytest.raises(CompositionError, match=rf"^id collision on {what} '{name}'$"):
        compose(Module("a", "", a_inner), Module("b", "", b_inner))


@pytest.mark.parametrize("a_inner, b_inner, what, name", REPEATED_IDS)
def test_an_id_repeated_in_the_left_operand_collides_too(a_inner, b_inner, what, name):
    # the same pair of nodes as above, now in the left operand
    with pytest.raises(CompositionError, match=rf"^id collision on {what} '{name}'$"):
        compose(Module("b", "", b_inner), Module("a", "", a_inner))


def test_a_fused_id_repeated_in_one_operand_collides():
    ends = (InterfaceElement(PLACE, "x", "q"),)
    once = Module("a", "", SchematicNet(places=(Place("q"),)), right=ends)
    repeated = SchematicNet(places=twice(Place("q")))
    with pytest.raises(CompositionError, match=r"^id collision on place 'q'$"):
        compose(once, Module("b", "", repeated, left=ends))
    with pytest.raises(CompositionError, match=r"^id collision on place 'q'$"):
        compose(Module("b", "", repeated, right=ends),
                Module("a", "", SchematicNet(places=(Place("q"),)), left=ends))


@pytest.mark.parametrize("a_inner, b_inner, kinds", [
    (SchematicNet(places=(Place("x"),)),
     SchematicNet(places=(Place("q"),), transitions=(Transition("q"),)),
     "a place and a transition"),
    (OccurrenceNet(conditions=(Condition("x", "p", Atom("v")),)),
     OccurrenceNet(conditions=(Condition("q", "p", Atom("v")),),
                   events=(Event("q", "t", Binding({})),)),
     "a condition and an event"),
])
def test_an_id_naming_two_kinds_of_element_is_rejected(a_inner, b_inner, kinds):
    # only a module built through the API can hold such an id
    a, b = Module("a", "", a_inner), Module("b", "", b_inner)
    for left, right in ((a, b), (b, a)):
        with pytest.raises(CompositionError, match=rf"^module 'b' names {kinds} 'q'$"):
            compose(left, right)


def test_duplicate_result_labels_rejected():
    a = Module("a", "", SchematicNet(places=(Place("p"),)),
               left=(InterfaceElement(PLACE, "x", "p"),))
    b = Module("b", "", SchematicNet(places=(Place("q"),)),
               left=(InterfaceElement(PLACE, "x", "q"),))
    with pytest.raises(CompositionError, match="duplicate"):
        compose(a, b)


def test_place_never_fuses_with_transition():
    a = Module("a", "", SchematicNet(places=(Place("p"),)),
               right=(InterfaceElement(PLACE, "x", "p"),))
    b = Module("b", "", SchematicNet(transitions=(Transition("t"),)),
               left=(InterfaceElement(TRANSITION, "x", "t"),))
    fused = compose(a, b)
    assert elements(fused) == 2  # nothing matched
    assert (PLACE, "x") in interface_of(fused, "right")
    assert (TRANSITION, "x") in interface_of(fused, "left")


def test_signature_names_must_agree(entry):
    other = Module("m", "othersig", SchematicNet(), (), ())
    other = Module("m", "othersig",
                   SchematicNet(places=(Place("p"),)), (), ())
    with pytest.raises(CompositionError, match="signature"):
        compose(entry, other)


def test_canonicalize_ignores_id_permutations(guest_area):
    permuted = rename_elements(guest_area, {
        "menu": "zz_menu", "waiting": "w0", "select": "sel",
        "eating": "room", "enter": "enter0",
    })
    assert canonicalize(permuted) == canonicalize(guest_area)
    assert permuted != guest_area


def test_canonicalize_distinguishes_different_modules(entry, kitchen, guest_area):
    assert canonicalize(entry) != canonicalize(kitchen)
    assert canonicalize(entry) != canonicalize(guest_area)


def test_canonicalize_is_idempotent(entry, guest_area, kitchen, branch):
    for m in (entry, guest_area, kitchen, branch):
        once = canonicalize(m)
        assert canonicalize(once) == once


def test_canonical_form_is_id_free(branch):
    canon = canonicalize(branch)
    names = {p.name for p in canon.inner.places} | \
        {t.name for t in canon.inner.transitions}
    assert all(n[0] in "pt" and n[1:].isdigit() for n in names)


def test_interface_violations_catch_dangling_refs():
    m = Module("m", "", SchematicNet(places=(Place("p"),)),
               left=(InterfaceElement(PLACE, "x", "ghost"),))
    assert any(v.code == "interface-ref" for v in interface_violations(m))


def at(col: int) -> SourceSpan:
    return SourceSpan("m.hk", 1, col, 1, col + 1)


# a schematic net and a run, each with two nodes a and b of place kind
INNERS = {
    "net": SchematicNet(places=(Place("a"), Place("b"))),
    "run": OccurrenceNet(conditions=(Condition("a", "p", Atom("v")),
                                     Condition("b", "p", Atom("v")))),
}


@pytest.mark.parametrize("inner", INNERS.values(), ids=INNERS.keys())
@pytest.mark.parametrize("side, elements, code, message, col", [
    ("left", [("", "a")], "interface-label",
     "left interface has an empty label", 1),
    ("right", [("x", "a"), ("x", "b")], "interface-duplicate",
     "duplicate place label 'x' in right interface", 2),
    ("left", [("x", "a"), ("y", "a")], "interface-ref-twice",
     "element 'a' appears twice in the left interface", 2),
])
def test_interface_violations_report_labels_and_refs_at_the_element(
        inner, side, elements, code, message, col):
    exposed = tuple(InterfaceElement(PLACE, label, ref, at(i))
                    for i, (label, ref) in enumerate(elements, start=1))
    m = Module("m", "", inner, **{side: exposed})
    assert interface_violations(m) == [Violation(code, message, at(col))]


def test_associativity_on_seeded_triples():
    rng = random.Random(20240817)
    for _ in range(100):
        a, b, c = compatible_triple(rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert canonical_equal(left, right)


def test_composition_order_matters_without_matching_labels():
    rng = random.Random(7)
    a, b, c = compatible_triple(rng)
    ab = compose(a, b)
    assert interface_of(ab, "left")[:len(a.left)] == interface_of(a, "left")


def test_canonical_form_ignores_non_structural_order():
    from hknet import Arc, Ident, SetTerm
    base = SchematicNet(
        places=(Place("p"), Place("q")),
        transitions=(Transition("t"),),
        arcs=(Arc("p", "t", (Ident("x"), SetTerm((Ident("a"), Ident("b"))))),
              Arc("t", "q", (Ident("x"),))),
    )
    shuffled = SchematicNet(
        places=(Place("p"), Place("q")),
        transitions=(Transition("t"),),
        arcs=(Arc("p", "t", (SetTerm((Ident("b"), Ident("a"))), Ident("x"))),
              Arc("t", "q", (Ident("x"),))),
    )
    one = Module("m1", "", base)
    two = Module("m2", "", shuffled)
    assert one.inner != two.inner
    assert canonicalize(one) == canonicalize(two)


def test_canonicalize_invariant_under_random_relabelings():
    rng = random.Random(97)
    for _ in range(50):
        a, b, c = compatible_triple(rng)
        m = compose(compose(a, b), c)
        ids = [p.name for p in m.inner.places] + \
            [t.name for t in m.inner.transitions]
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = {old: f"n{rng.randrange(10**6)}_{i}"
                   for i, old in enumerate(shuffled)}
        assert canonicalize(rename_elements(m, mapping)) == canonicalize(m)


# ---------------------------------------------------------------------------
# Renaming keeps every field, the ones equality ignores included
# ---------------------------------------------------------------------------

def resolved_module(m: Module, system) -> Module:
    """``m`` with its inner net replaced by the resolved net of ``system``."""
    return Module(m.name, m.sig, system.net, m.left, m.right, m.span)


def renamings(m: Module) -> list[dict[str, str]]:
    """The identity map of ``m``'s inner ids and a bijection onto fresh ids."""
    ids = sorted(_inner_ids(m.inner))
    return [{x: x for x in ids}, {x: f"n{i}" for i, x in enumerate(reversed(ids))}]


def renamed_enabling(net, mapping, system) -> list[list[Binding]]:
    """The bindings of each transition of ``system`` at its initial marking,
    read off ``net``, which names each node ``n`` as ``mapping[n]``."""
    marking = Marking({mapping[p]: tokens for p, tokens in system.initial.items()})
    return [enabled_bindings(net, marking, mapping[t.name], system.structure)
            for t in system.net.transitions]


def test_rename_elements_keeps_order_spans_and_variables(guest_area, branch, sys_tiny, a0):
    resolved = resolved_module(branch, sys_tiny)
    for m in (guest_area, resolved, a0):
        for mapping in renamings(m):
            renamed = rename_elements(m, mapping)
            assert attached_spans((renamed.inner, renamed.left, renamed.right)) == \
                attached_spans((m.inner, m.left, m.right))
            if m.is_run():
                nodes = [(x.id, y.id) for old, new in
                         ((m.inner.conditions, renamed.inner.conditions),
                          (m.inner.events, renamed.inner.events))
                         for x, y in zip(old, new, strict=True)]
            else:
                nodes = [(x.name, y.name) for old, new in
                         ((m.inner.places, renamed.inner.places),
                          (m.inner.transitions, renamed.inner.transitions))
                         for x, y in zip(old, new, strict=True)]
                assert [t.variables for t in renamed.inner.transitions] == \
                    [t.variables for t in m.inner.transitions]
            assert all(mapping[old] == new for old, new in nodes)
    for t in resolved.inner.transitions:
        assert t.variables is not None


def test_a_renamed_resolved_net_enables_as_before(branch, sys_tiny):
    resolved = resolved_module(branch, sys_tiny)
    identity = {x: x for x in _inner_ids(resolved.inner)}
    before = renamed_enabling(sys_tiny.net, identity, sys_tiny)
    assert any(before)
    for mapping in renamings(resolved):
        after = rename_elements(resolved, mapping).inner
        assert renamed_enabling(after, mapping, sys_tiny) == before


@pytest.mark.parametrize("name", ["entry", "guest_area", "kitchen"])
def test_the_canonical_form_of_a_resolved_net_keeps_spans_and_variables(
        request, s0_tiny, name):
    m = request.getfixturevalue(name)
    system = instantiate(m, s0_tiny)
    net = system.net
    canon = canonicalize(resolved_module(m, system))
    # parsed nodes have distinct spans, which lead to their canonical ids
    places = {p.span: p for p in canon.inner.places}
    transitions = {t.span: t for t in canon.inner.transitions}
    assert None not in places and None not in transitions
    assert len(places) == len(net.places) and len(transitions) == len(net.transitions)
    mapping = {p.name: places[p.span].name for p in net.places}
    mapping.update({t.name: transitions[t.span].name for t in net.transitions})
    for t in net.transitions:
        assert transitions[t.span].variables == t.variables
    assert sorted((mapping[a.source], mapping[a.target], str(a.span)) for a in net.arcs) \
        == sorted((a.source, a.target, str(a.span)) for a in canon.inner.arcs)
    for side, canonical_side in ((m.left, canon.left), (m.right, canon.right)):
        assert sorted((mapping[e.ref], e.label, str(e.span)) for e in side) == \
            sorted((e.ref, e.label, str(e.span)) for e in canonical_side)
    identity = {x: x for x in mapping}
    assert renamed_enabling(canon.inner, mapping, system) == \
        renamed_enabling(net, identity, system)


def test_fused_nodes_keep_the_left_operands_span(branch, sigma0):
    # entry . guest_area fuses the two table places, and (entry .
    # guest_area) . kitchen fuses orders and hand_over
    net = branch.inner
    fused = {"free_tables": "entry.hk", "offered_tables": "entry.hk",
             "orders": "guest_area.hk", "hand_over": "guest_area.hk"}
    nodes = {n.name: n for n in (*net.places, *net.transitions)}
    assert all(n.span is not None for n in nodes.values())
    assert {name: Path(nodes[name].span.file).name for name in fused} == fused
    # an undeclared sort on a fused place, and an output-only variable on
    # the fused transition, are reported where the left operand declares them
    _, violations = resolve_net(net, Signature("empty"))
    stray = replace(net, arcs=net.arcs + (Arc("hand_over", "cooked", (Ident("stray"),)),))
    violations += resolve_net(stray, sigma0)[1]
    on_fused = {name: [v for v in violations if f"{name!r}" in v.message] for name in fused}
    assert all(on_fused.values())
    for name, found in on_fused.items():
        # file:line:col of the node's declaration
        assert {str(v.span) for v in found} == {str(nodes[name].span)}


# One row per call on the wrong kind of input, or a path no other test
# takes: the call, given the fixture lookup, and what it gives or raises.
ODD_CALLS = {
    "export_dot of a marking": (lambda get: export_dot(Marking()),
                                "TypeError: cannot export Marking() to DOT"),
    "print_document of an unknown kind": (
        lambda get: print_document(ModelDocument("figure", get("branch"))),
        "ValueError: unknown document kind 'figure'"),
    "print_run of a schematic module": (lambda get: print_run(empty_module("e")),
                                        "ValueError: module 'e' is not a run"),
    "instantiate of a run": (lambda get: instantiate(get("a0"), get("s0")),
                             "ModelError: module 'a0' is a run, not a schematic module"),
    "compose of a run with a schematic module": (
        lambda get: compose(get("a0"), get("branch")),
        "CompositionError: cannot compose a run module with a schematic module"),
    "interface_of the middle": (lambda get: interface_of(get("branch"), "middle"),
                                "ValueError: side must be 'left' or 'right', got 'middle'"),
    "pickle round trip of a marking": (
        lambda get: pickle.loads(pickle.dumps(get("sys0").initial)) == get("sys0").initial,
        True),
}


@pytest.mark.parametrize("case", ODD_CALLS)
def test_odd_calls_raise_or_give_what_they_say(case, request):
    call, want = ODD_CALLS[case]
    try:
        got = call(request.getfixturevalue)
    except (CompositionError, ModelError, TypeError, ValueError) as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == want

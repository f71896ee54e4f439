import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hknet import (Arc, Atom, Binding, EvalError, FiringError, Ident,
                   Marking, ModelError, Module, Multiset, Place, PowSort,
                   SchematicNet, SetValue, Signature, SortName, Transition,
                   TupleValue, bind_structure, carrier_of, check_net,
                   enabled_bindings, fire, instantiate, make_structure,
                   marking_violations, parse, resolve_net, successors)
from hknet.spans import SourceSpan
from hknet.terms import Elm

from support import (ReferenceMarking, ReferenceMultiset, brute_force_bindings,
                     reference_fire, stepper_disagreements)


def marking(**kwargs):
    return Marking({k: v for k, v in kwargs.items()})


def order(*entries):
    return SetValue([Atom(e) for e in entries])


def test_enter_binds_offered_table_and_any_client(sys0):
    m = marking(offered_tables=[Atom("t1")],
                menu=[order("meat", "rice", "salad")])
    got = enabled_bindings(sys0.net, m, "enter", sys0.structure)
    expected = {Binding({"t": Atom("t1"), "c": c})
                for c in sys0.structure.carrier("Clients")}
    assert set(got) == expected
    assert len(got) == 2


def test_no_tokens_means_no_bindings(sys0):
    empty = Marking()
    for name in ("enter", "select", "unfold", "cook", "hand_over", "leave"):
        assert enabled_bindings(sys0.net, empty, name, sys0.structure) == []


def test_select_enables_all_subsets_per_waiting_client(sys0):
    m = marking(clients_ready_to_order=[TupleValue([Atom("Alice"), Atom("t1")])],
                menu=[order("meat", "rice", "salad")])
    got = enabled_bindings(sys0.net, m, "select", sys0.structure)
    # oracle: brute-force enumeration of subsets satisfying the guard
    menu = [Atom("meat"), Atom("rice"), Atom("salad")]
    subsets = {SetValue(combo)
               for r in range(4) for combo in itertools.combinations(menu, r)}
    assert {b["X"] for b in got} == subsets
    assert len(got) == 8


def test_fire_offer_table_moves_the_token(sys0):
    before = sys0.initial
    b = Binding({"t": Atom("t1")})
    after = fire(sys0.net, before, "offer_table", b, sys0.structure)
    assert after.get("free_tables") == Multiset([Atom("t2"), Atom("t3"), Atom("t4")])
    assert after.get("offered_tables") == Multiset([Atom("t1")])
    # purity: the input marking is untouched
    assert before.get("free_tables").total() == 4


def test_fire_unfold_expands_the_order(sys0):
    m = marking(orders=[TupleValue([Atom("t1"), order("rice", "meat")])])
    b = Binding({"t": Atom("t1"), "X": order("rice", "meat")})
    after = fire(sys0.net, m, "unfold", b, sys0.structure)
    assert after.get("pending_orders") == Multiset(
        [TupleValue([Atom("t1"), order("meat", "rice")])])
    assert after.get("ordered_items") == Multiset([Atom("meat"), Atom("rice")])
    assert after.get("orders") == Multiset()


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_elm_arc_moves_exactly_cardinality_tokens(sys0, size):
    menu = ["meat", "rice", "salad"][:size]
    x = order(*menu)
    m = marking(orders=[TupleValue([Atom("t1"), x])])
    b = Binding({"t": Atom("t1"), "X": x})
    after = fire(sys0.net, m, "unfold", b, sys0.structure)
    assert after.get("ordered_items").total() == size


def test_fire_rejects_disabled_binding(sys0):
    b = Binding({"t": Atom("t1")})
    with pytest.raises(FiringError):
        fire(sys0.net, Marking(), "offer_table", b, sys0.structure)


def test_fire_conserves_tokens_on_plain_relay():
    sig = Signature("relay", sets=("A",))
    s = make_structure("one", sig, {"A": (Atom("a"), Atom("b"))})
    net = SchematicNet(
        places=(Place("src", SortName("A")), Place("dst", SortName("A"))),
        transitions=(Transition("move"),),
        arcs=(Arc("src", "move", (Ident("x"),)),
              Arc("move", "dst", (Ident("x"),))),
    )
    net, problems = resolve_net(net, sig)
    assert problems == []
    m = marking(src=[Atom("a"), Atom("b")])
    for b in enabled_bindings(net, m, "move", s):
        after = fire(net, m, "move", b, s)
        assert after.total() == m.total()


def test_initial_successors_are_the_four_offers(sys0):
    succ = successors(sys0.net, sys0.initial, sys0.structure)
    assert len(succ) == 4
    assert {name for name, _, _ in succ} == {"offer_table"}
    # oracle: construct each expected successor marking independently
    for i in (1, 2, 3, 4):
        rest = [Atom(f"t{j}") for j in (1, 2, 3, 4) if j != i]
        expected = marking(free_tables=rest, offered_tables=[Atom(f"t{i}")],
                           menu=[order("meat", "rice", "salad")])
        assert any(m == expected for _, _, m in succ)


def test_deadlocked_marking_has_no_successors(sys0):
    assert successors(sys0.net, Marking(), sys0.structure) == []


def test_successor_count_matches_enabled_sum(sys0):
    m = fire(sys0.net, sys0.initial, "offer_table",
             Binding({"t": Atom("t1")}), sys0.structure)
    succ = successors(sys0.net, m, sys0.structure)
    total = sum(len(enabled_bindings(sys0.net, m, t, sys0.structure))
                for t in sys0.net.transitions)
    assert len(succ) == total
    for name, b, target in succ:
        assert b in enabled_bindings(sys0.net, m, name, sys0.structure)
        assert fire(sys0.net, m, name, b, sys0.structure) == target


def test_adding_tokens_elsewhere_never_disables(sys0):
    m = marking(offered_tables=[Atom("t1")],
                menu=[order("meat", "rice", "salad")])
    before = enabled_bindings(sys0.net, m, "enter", sys0.structure)
    bigger = m.updated({}, {"cooked": Multiset([Atom("rice")]).counts(),
                            "offered_tables": Multiset([Atom("t2")]).counts()})
    after = enabled_bindings(sys0.net, bigger, "enter", sys0.structure)
    assert set(before) <= set(after)


def test_marking_violations_flag_foreign_tokens(sys0):
    bad = marking(free_tables=[Atom("nonsense")])
    report = marking_violations(sys0.net, bad, sys0.structure)
    assert [v.code for v in report] == ["token-sort"]
    assert marking_violations(sys0.net, sys0.initial, sys0.structure) == []


def test_resolution_rejects_output_only_variables(sigma0):
    net = SchematicNet(
        places=(Place("out", SortName("Tables")),),
        transitions=(Transition("spawn"),),
        arcs=(Arc("spawn", "out", (Ident("t"),)),),
    )
    _, problems = resolve_net(net, sigma0)
    assert any(v.code == "free-variable" for v in problems)


def test_resolution_rejects_nested_elm(sigma0):
    net = SchematicNet(
        places=(Place("p", SortName("Tables")),),
        transitions=(Transition("t0"),),
        arcs=(Arc("p", "t0", (Elm(Elm(Ident("Tables"))),)),),
    )
    _, problems = resolve_net(net, sigma0)
    assert any(v.code == "nested-elm" for v in problems)


def test_resolution_infers_variable_sorts_from_function(sigma0):
    net = SchematicNet(
        places=(Place("items", SortName("Menu")), Place("done", SortName("Meal_items"))),
        transitions=(Transition("cook"),),
        arcs=(Arc("items", "cook", (Ident("f"),)),),
    )
    # bare function symbol is rejected
    _, problems = resolve_net(net, sigma0)
    assert any(v.code == "bare-function" for v in problems)


@pytest.mark.parametrize("first, second, conflict", [
    ("Orders", "Menu", True), ("Menu", "Orders", True), ("Menu", "pow(Menu)", True),
    ("Orders", "pow(Menu)", False), ("Orders", "Specials", False),
])
def test_a_subset_symbol_is_compatible_with_its_powerset_not_its_base(first, second,
                                                                       conflict):
    sig = parse("signature shop { sets Menu; subsets Orders of pow(Menu); "
                "subsets Specials of pow(Menu); }").body
    module = parse(f"module m of shop {{ places {{ p : {first}; q : {second}; }} "
                   "trans { t; } arcs { p -> t : x; q -> t : x; } }").body
    want = f"variable 'x' used both as {first} and as {second}"
    assert [v.message for v in check_net(module.inner, sig)] == ([want] if conflict else [])


def test_resolution_reports_unknown_sorts(sigma0):
    net = SchematicNet(places=(Place("p", SortName("Nowhere")),))
    _, problems = resolve_net(net, sigma0)
    assert any(v.code == "undeclared-sort" for v in problems)


def test_resolution_rejects_equally_named_nodes():
    # names identify nodes: a second transition t, and a transition named
    # like the place q, are each reported at their own span
    sig = Signature("twin", sets=("A",))
    s = make_structure("twin_s", sig, {"A": (Atom("a"), Atom("b"))})
    second, third = SourceSpan("m.hk", 3, 5, 3, 6), SourceSpan("m.hk", 4, 5, 4, 6)
    net = SchematicNet(
        places=(Place("p", SortName("A")), Place("q", SortName("A"))),
        transitions=(Transition("t"), Transition("t", span=second),
                     Transition("q", span=third)),
        arcs=(Arc("p", "t", (Ident("x"),)), Arc("t", "q", (Ident("x"),))))
    _, problems = resolve_net(net, sig)
    assert [(v.message, v.span) for v in problems if v.code == "duplicate-name"] == [
        ("duplicate element name 't'", second), ("duplicate element name 'q'", third)]
    with pytest.raises(ModelError, match=r"m\.hk:3:5: \[duplicate-name\] "
                                         "duplicate element name 't'"):
        instantiate(Module("twin_m", "twin", net), s)


def test_resolution_merges_arcs_between_the_same_endpoints(sigma0):
    # the first arc's span stays; the terms of both come out sorted
    first = SourceSpan("m.hk", 2, 1, 2, 9)
    net, problems = resolve_net(SchematicNet(
        places=(Place("p", SortName("Tables")), Place("q", SortName("Tables"))),
        transitions=(Transition("t0"),),
        arcs=(Arc("p", "t0", (Ident("y"),), first), Arc("t0", "q", (Ident("x"),)),
              Arc("p", "t0", (Ident("x"),)))), sigma0)
    assert problems == []
    (into,) = net.arcs_into("t0")
    assert into.span == first
    assert [v.name for v in into.inscription] == ["x", "y"]
    assert [n for n, _ in net.transition("t0").variables] == ["x", "y"]


def test_resolved_variables_are_recorded(sys0):
    hand_over = sys0.net.transition("hand_over")
    assert [n for n, _ in hand_over.variables] == ["X", "Y", "c", "t"]
    select = sys0.net.transition("select")
    assert [n for n, _ in select.variables] == ["X", "c", "m", "t"]


def test_enabled_bindings_matches_brute_force_definition(sys0, sys_small):
    # oracle: enumerate every sort-respecting total binding, keep those
    # whose guard holds and whose evaluated inputs the marking contains;
    # the order must agree too
    for system in (sys0, sys_small):
        rng = random.Random(5)
        m = system.initial
        for _ in range(12):
            for t in system.net.transitions:
                fast = enabled_bindings(system.net, m, t, system.structure)
                slow = brute_force_bindings(system.net, m, t, system.structure)
                assert fast == slow, (system.name, t.name, m)
            succ = successors(system.net, m, system.structure)
            if not succ:
                break
            m = succ[rng.randrange(len(succ))][2]


# Each transition exercises one way of binding a variable:
#   twice           one input term needing two copies of one token
#   two_of          two patterns drawing on the tokens of one place
#   split           token components outside the variables' carriers
#   const_in_tuple  a constant inside a tuple pattern
#   under_fn        y bound only under h(y), Y only under elm(Y)
#   chosen          a declared free variable, constrained by the guard
#   free_bound      a declared free variable that a pattern also binds
HAND_BUILT = ("""
signature hand {
  sets A, B;
  consts k: A;
  fns h: B -> A;
}
""", """
structure hand_s of hand {
  A = {a1, a2, a3};
  B = {b1, b2};
  k = a2;
  h = {b1 -> a1, b2 -> a1};
}
""", """
module hand_m of hand {
  places { p : A; q : A; pair : (A, B); loose; out : A; }
  trans {
    twice;
    two_of;
    split;
    const_in_tuple;
    under_fn;
    chosen guard h(z) = x free z : B;
    free_bound free x : A;
  }
  arcs {
    p -> twice : x, x;
    twice -> out : x;
    p -> two_of : x, y;
    two_of -> out : x;
    pair -> split : (x, y);
    split -> out : x;
    pair -> const_in_tuple : (k, y);
    const_in_tuple -> out : h(y);
    p -> under_fn : h(y);
    q -> under_fn : elm(Y);
    under_fn -> out : k;
    p -> chosen : x;
    chosen -> pair : (x, z);
    loose -> free_bound : x;
    free_bound -> out : x;
  }
}
""")


@pytest.fixture(scope="module")
def hand_built():
    sig_text, structure_text, module_text = HAND_BUILT
    sig = parse(sig_text).body
    structure = bind_structure(parse(structure_text).body, sig)
    return instantiate(parse(module_text).body, structure)


def test_hand_built_nets_bind_each_kind_of_variable(hand_built):
    net, s = hand_built.net, hand_built.structure

    def bindings(name, **tokens):
        return [b.pairs() for b in enabled_bindings(net, marking(**tokens), name, s)]

    a1, a2, b1, zzz = Atom("a1"), Atom("a2"), Atom("b1"), Atom("zzz")
    assert bindings("twice", p=[a1]) == []
    assert bindings("twice", p=[a1, a1, a2]) == [(("x", a1),)]
    assert bindings("two_of", p=[a1, a2]) == [(("x", a1), ("y", a2)),
                                              (("x", a2), ("y", a1))]
    assert bindings("split", pair=[TupleValue([zzz, b1]), TupleValue([a1, zzz])]) == []
    assert bindings("const_in_tuple", pair=[TupleValue([a1, b1]),
                                           TupleValue([a2, b1])]) == [(("y", b1),)]
    # h maps both dishes to a1; Y may be empty, which consumes nothing
    assert len(bindings("under_fn", p=[a1], q=[a2])) == 2 * 2
    assert bindings("chosen", p=[a1, a2]) == [(("x", a1), ("z", b1)),
                                              (("x", a1), ("z", Atom("b2")))]
    assert bindings("free_bound", loose=[zzz, a2]) == [(("x", a2),)]


def test_hand_built_nets_match_brute_force_on_random_markings(hand_built):
    net, s = hand_built.net, hand_built.structure
    atoms = [Atom(n) for n in ("a1", "a2", "a3", "b1", "b2", "zzz")]
    pool = {"p": atoms, "q": atoms, "loose": atoms, "out": atoms,
            "pair": [TupleValue([x, y]) for x in atoms for y in atoms]}
    rng = random.Random(11)
    for _ in range(150):
        m = Marking({place: [v for v in rng.sample(values, 3)
                             for _ in range(rng.randrange(3))]
                     for place, values in pool.items()})
        for t in net.transitions:
            assert enabled_bindings(net, m, t, s) == brute_force_bindings(net, m, t, s), \
                (t.name, m)


def test_one_stepper_enables_under_fn_as_the_oracle_does_as_its_inputs_change(hand_built):
    # under_fn has no pattern to match: every binding depends only on
    # the tokens on p and q, which change from one marking to the next
    net, s = hand_built.net, hand_built.structure
    a1, a2, a3 = Atom("a1"), Atom("a2"), Atom("a3")
    markings = [marking(p=p, q=q) for p in ([], [a1], [a1, a1], [a2, a3])
                for q in ([], [a1], [a2, a3], [a1, a2, a3])]
    assert any(enabled_bindings(net, m, "under_fn", s) for m in markings)
    assert stepper_disagreements(net, s, markings + markings[::-1]) == []


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enabled_bindings_match_brute_force_on_random_markings(data, sys_tiny, sys_small):
    system = data.draw(st.sampled_from([sys_tiny, sys_small]), label="system")
    net, s = system.net, system.structure
    per_place = {}
    for place in net.places:
        values = carrier_of(place.sort, s)
        counts = data.draw(st.lists(st.integers(0, 2), min_size=len(values),
                                    max_size=len(values)), label=place.name)
        per_place[place.name] = [v for v, n in zip(values, counts) for _ in range(n)]
    m = Marking(per_place)
    for t in net.transitions:
        assert enabled_bindings(net, m, t, s) == brute_force_bindings(net, m, t, s)


def _same_marking(got, want) -> None:
    """A marking equal to, hashing like and printing like a reference one."""
    assert repr(got) == repr(want)
    assert got.rendered_entries() == want.rendered_entries()
    assert [(p, ms.pairs()) for p, ms in got.items()] == \
        [(p, ms.pairs()) for p, ms in want.items()]
    rebuilt = Marking({p: list(ms) for p, ms in want.items()})
    assert got == rebuilt and hash(got) == hash(rebuilt)


def _outcome(step):
    try:
        return step()
    except (FiringError, EvalError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fire_matches_the_sorted_pair_reference_on_random_markings(data, sys_tiny, sys_small):
    system = data.draw(st.sampled_from([sys_tiny, sys_small]), label="system")
    net, s = system.net, system.structure
    per_place = {}
    for place in net.places:
        values = carrier_of(place.sort, s)
        counts = data.draw(st.lists(st.integers(0, 2), min_size=len(values),
                                    max_size=len(values)), label=place.name)
        per_place[place.name] = [v for v, n in zip(values, counts) for _ in range(n)]
    m, ref = Marking(per_place), ReferenceMarking(per_place)
    _same_marking(m, ref)
    for t in net.transitions:
        drawn = Binding((name, data.draw(st.sampled_from(carrier_of(sort, s)), label=name))
                        for name, sort in t.variables)
        partial = Binding(drawn.pairs()[1:])
        for b in enabled_bindings(net, m, t, s) + [drawn, partial]:
            got = _outcome(lambda: fire(net, m, t, b, s))
            want = _outcome(lambda: reference_fire(net, ref, t, b, s))
            if isinstance(want, str):
                assert got == want
            else:
                _same_marking(got, want)
    # updated itself, with removals that the marking may not cover
    place = data.draw(st.sampled_from([p.name for p in net.places]), label="place")
    taken = data.draw(st.lists(st.sampled_from(carrier_of(net.place(place).sort, s)),
                               max_size=3), label="taken")
    got = _outcome(lambda: m.updated({place: Multiset(taken).counts()},
                                     {place: Multiset(taken[:1]).counts()}))
    want = _outcome(lambda: ref.updated({place: ReferenceMultiset(taken)},
                                        {place: ReferenceMultiset(taken[:1])}))
    if isinstance(want, str):
        assert got == want
    else:
        _same_marking(got, want)


def test_enabled_bindings_enforce_the_powerset_cap():
    # X is bound from the token alone, yet pow(W) is still over the cap
    sig = Signature("wide", sets=("W",))
    s = make_structure("big", sig, {"W": tuple(Atom(f"w{i:02d}") for i in range(17))})
    net, problems = resolve_net(SchematicNet(
        places=(Place("p", PowSort("W")),),
        transitions=(Transition("take"),),
        arcs=(Arc("p", "take", (Ident("X"),)),)), sig)
    assert problems == []
    # an empty input place of a pattern decides before the cap is met,
    # also on the first join, which compiles the transition; every later
    # join over a token raises afresh
    assert enabled_bindings(net, marking(), "take", s) == []
    for _ in range(2):
        with pytest.raises(EvalError, match="exceeds the cap of 16"):
            enabled_bindings(net, marking(p=[SetValue([Atom("w00")])]), "take", s)
        assert enabled_bindings(net, marking(), "take", s) == []

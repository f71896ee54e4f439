import itertools

import pytest
from hypothesis import given, strategies as st

from hknet import (App, Atom, Binding, EvalError, Guard, GuardAtom, Multiset, TupleTerm,
                   PowSort, SetValue, SortName, SymbolRef, TupleValue, Var,
                   enumerate_bindings, eval_guard, evaluate, make_structure,
                   Signature)
from hknet.terms import Elm, render_guard, term_tokens


def bind(**kwargs):
    return Binding({k: v for k, v in kwargs.items()})


def test_set_symbol_evaluates_to_its_carrier(s0):
    menu = evaluate(SymbolRef("Menu"), s0)
    assert menu == SetValue([Atom("rice"), Atom("meat"), Atom("salad")])
    assert len(menu) == 3


def test_variable_lookup(s0):
    t = Var("x", SortName("Tables"))
    assert evaluate(t, s0, bind(x=Atom("t1"))) == Atom("t1")


def test_function_application_maps_dish_to_menu_entry(s0):
    term = App("f", (Var("y", SortName("Meal_items")),))
    assert evaluate(term, s0, bind(y=Atom("rice"))) == Atom("rice")


def test_function_application_with_nonidentity_table():
    sig = Signature("pairs", sets=("D", "E"),
                    functions=(("h", (SortName("D"),), SortName("E")),))
    s = make_structure("swap", sig,
                       {"D": (Atom("x"), Atom("y")), "E": (Atom("u"), Atom("v"))},
                       {"h": {Atom("x"): Atom("v"), Atom("y"): Atom("u")}})
    assert evaluate(App("h", (Var("d", SortName("D")),)), s, bind(d=Atom("x"))) == Atom("v")


def test_unbound_variable_raises(s0):
    with pytest.raises(EvalError, match="unbound"):
        evaluate(Var("x", SortName("Tables")), s0)


def test_application_outside_table_domain_raises(s0):
    term = App("f", (Var("y", SortName("Meal_items")),))
    with pytest.raises(EvalError, match="undefined"):
        evaluate(term, s0, bind(y=Atom("pizza")))


def test_elm_term_is_not_a_value(s0):
    with pytest.raises(EvalError, match="elm"):
        evaluate(Elm(SymbolRef("Tables")), s0)


def expand_elm(v):
    """The tokens of ``elm(X)`` with the set variable X bound to ``v``;
    evaluating a variable reads no structure."""
    return Multiset(term_tokens(Elm(Var("X", PowSort("E"))), None, bind(X=v)))


def test_expand_elm_of_tables(s0):
    assert Multiset(term_tokens(Elm(SymbolRef("Tables")), s0)) == Multiset(
        [Atom("t1"), Atom("t2"), Atom("t3"), Atom("t4")])


def test_expand_elm_of_empty_set():
    assert expand_elm(SetValue()) == Multiset()


def test_expand_elm_goes_one_level_only():
    nested = SetValue([SetValue([Atom("a")]), SetValue([Atom("b")])])
    assert expand_elm(nested) == Multiset([SetValue([Atom("a")]),
                                           SetValue([Atom("b")])])


def test_expand_elm_rejects_non_sets():
    with pytest.raises(EvalError, match="elm expects a set value, got a"):
        expand_elm(Atom("a"))


@given(st.sets(st.sampled_from("abcdef"), max_size=6))
def test_expand_elm_cardinality(names):
    v = SetValue(Atom(n) for n in names)
    assert expand_elm(v).total() == len(v)


def subset_guard():
    return Guard((GuardAtom("sub", Var("X", PowSort("Menu")), SymbolRef("Menu")),))


def test_guard_subset_of_menu_holds(s0):
    b = bind(X=SetValue([Atom("rice"), Atom("meat")]))
    assert eval_guard(subset_guard(), s0, b)


def test_guard_subset_fails_for_unknown_entry(s0):
    b = bind(X=SetValue([Atom("rice"), Atom("pizza")]))
    assert not eval_guard(subset_guard(), s0, b)


def test_empty_guard_is_true(s0):
    assert eval_guard(Guard(), s0, bind())
    assert eval_guard(Guard(), s0, bind(x=Atom("t1")))


def test_guard_membership_and_equality(s0):
    g = Guard((GuardAtom("in", Var("t", SortName("Tables")), SymbolRef("Tables")),
               GuardAtom("=", Var("t", SortName("Tables")),
                         Var("u", SortName("Tables")))))
    assert eval_guard(g, s0, bind(t=Atom("t1"), u=Atom("t1")))
    assert not eval_guard(g, s0, bind(t=Atom("t1"), u=Atom("t2")))


def test_guard_is_deterministic_under_equal_bindings(s0):
    b1 = bind(X=SetValue([Atom("meat"), Atom("rice")]))
    b2 = bind(X=SetValue([Atom("rice"), Atom("meat")]))
    assert b1 == b2
    assert eval_guard(subset_guard(), s0, b1) == eval_guard(subset_guard(), s0, b2)


def test_enumerate_bindings_over_tables(s0):
    got = list(enumerate_bindings([("t", SortName("Tables"))], s0))
    assert len(got) == 4
    assert got == [bind(t=Atom(f"t{i}")) for i in (1, 2, 3, 4)]


def test_enumerate_no_variables_gives_empty_binding(s0):
    assert list(enumerate_bindings([], s0)) == [Binding()]


def test_enumerate_two_variables_counts_product(s0):
    # oracle: brute-force product over the two carriers
    expected = {Binding({"c": c, "t": t})
                for c, t in itertools.product(s0.carrier("Clients"),
                                              s0.carrier("Tables"))}
    got = list(enumerate_bindings([("c", SortName("Clients")),
                                   ("t", SortName("Tables"))], s0))
    assert len(got) == len(expected) == 8
    assert set(got) == expected


def test_enumerate_yields_no_duplicates_and_full_count(s0):
    variables = [("t", SortName("Tables")), ("X", PowSort("Menu"))]
    got = list(enumerate_bindings(variables, s0))
    assert len(got) == len(set(got)) == 4 * 8


def test_enumerate_order_is_lexicographic(s0):
    got = list(enumerate_bindings([("b", SortName("Clients")),
                                   ("a", SortName("Clients"))], s0))
    firsts = [b["a"] for b in got]
    assert firsts == [Atom("Alice"), Atom("Alice"), Atom("Bob"), Atom("Bob")]


def test_evaluate_is_deterministic(s0):
    term = App("g", (Var("Y", PowSort("Meal_items")),))
    b = bind(Y=SetValue([Atom("rice"), Atom("meat")]))
    assert evaluate(term, s0, b) == evaluate(term, s0, b)
    assert evaluate(term, s0, b) == SetValue([Atom("meat"), Atom("rice")])


def test_tuple_term_evaluation(s0):
    t = TupleTerm((Var("c", SortName("Clients")), Var("t", SortName("Tables"))))
    assert evaluate(t, s0, bind(c=Atom("Alice"), t=Atom("t1"))) == \
        TupleValue([Atom("Alice"), Atom("t1")])


def test_the_true_guard_renders_as_true():
    assert render_guard(Guard()) == "true"


def test_indexing_a_binding_by_a_name_it_lacks_raises_key_error():
    b = Binding({"x": Atom("a")})
    assert b["x"] == Atom("a")
    with pytest.raises(KeyError, match="'y'"):
        b["y"]


def test_enumerating_a_variable_named_twice_raises(s0):
    with pytest.raises(EvalError, match=r"duplicate variable names in \['t', 't'\]"):
        list(enumerate_bindings([("t", SortName("Tables")), ("t", SortName("Menu"))], s0))

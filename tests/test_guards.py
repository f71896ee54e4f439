"""Calls on the wrong kind of input, and the corner cases of small
helpers: each guard raises what it says, and each corner gives its
answer.  One row per call."""

import pickle

import pytest

from hknet import (Atom, Elm, EvalError, Ident, Marking, Module, Place, PowSort,
                   SchematicNet, Signature, SortError, SortName, TupleSort, TupleValue,
                   Var, Value, carrier_of, evaluate, export_dot, make_structure,
                   render_sort, render_term, render_value, resolve_net, value_in_sort)
from hknet.spans import SourceSpan
from hknet.terms import term_variables

SIG = Signature("guards", sets=("A",))
A = make_structure("guards_s", SIG, {"A": (Atom("a"),)})
a = Atom("a")

CALLS = {
    "render_term of a value": (lambda: render_term(a), "TypeError: not a term: Atom('a')"),
    "term_variables of a value": (lambda: term_variables(a),
                                  "TypeError: not a term: Atom('a')"),
    "render_sort of a name": (lambda: render_sort("A"), "TypeError: not a sort: 'A'"),
    "carrier_of a name": (lambda: carrier_of("A", A), "TypeError: not a sort: 'A'"),
    "value_in_sort of a name": (lambda: value_in_sort(a, "A", A),
                                "TypeError: not a sort: 'A'"),
    "render_value of a string": (lambda: render_value("a"), "TypeError: not a value: 'a'"),
    "export_dot of a module around a marking": (
        lambda: export_dot(Module("m", "guards", Marking())),
        "TypeError: unknown inner net Marking()"),
    "resolve_net of a place init that is no term": (
        lambda: resolve_net(SchematicNet(places=(Place("p", SortName("A"), (a,)),)), SIG),
        "TypeError: not a term: Atom('a')"),
    "evaluate of elm": (lambda: evaluate(Elm(Var("Y", None)), A),
                        "EvalError: elm(...) is not a value; it may only inscribe arcs "
                        "and initial markings"),
    "evaluate of an identifier": (
        lambda: evaluate(Ident("x"), A),
        "EvalError: unresolved identifier 'x'; resolve the net against its signature first"),
    "evaluate of a value": (lambda: evaluate(a, A), "TypeError: not a term: Atom('a')"),
    "a subset over an undeclared base": (
        lambda: Signature("bad", sets=("A",), subsets=(("S", "B"),)),
        "SortError: subset base 'B' is not a declared set symbol"),
    "value_in_sort of an atom in a pow sort": (lambda: value_in_sort(a, PowSort("A"), A),
                                               False),
    "value_in_sort of a triple in a pair sort": (
        lambda: value_in_sort(TupleValue([a, a, a]),
                              TupleSort((SortName("A"), SortName("A"))), A),
        False),
    "SourceSpan.contains across files": (
        lambda: SourceSpan("f.hk", 1, 1, 9, 9).contains(SourceSpan("g.hk", 2, 1, 2, 3)),
        False),
    "Value.key": (lambda: Value().key(), "NotImplementedError: "),
    "Value.__le__": (lambda: (Atom("a") <= Atom("b"), Atom("b") <= Atom("a")), (True, False)),
    "pickle round trip of a tuple value": (
        lambda: pickle.loads(pickle.dumps(TupleValue([a, a]))) == TupleValue([a, a]), True),
}


@pytest.mark.parametrize("case", CALLS)
def test_each_guard_and_corner_gives_what_it_says(case):
    call, want = CALLS[case]
    try:
        got = call()
    except (EvalError, NotImplementedError, SortError, TypeError) as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == want

"""The definitional evaluator as the oracle of every path that evaluates
a transition's terms: occurrence, firing and enabling.

One net below inscribes, in its arcs and its guards, every kind of term
(``Var``, ``ConstRef``, ``SymbolRef``, unary and binary ``App``,
``TupleTerm``, ``SetTerm``, ``Elm``) and every guard operator, each once
where it evaluates and once where evaluation fails: an unbound
variable, a constant without a value, a function without a table, an
argument outside a partial table, ``elm`` of a non-set and ``elm``
nested in a value.  What ``occurrence``, ``fire`` and
``enabled_bindings`` give, values and raised errors alike (type,
message and span), must be what ``term_tokens`` and ``eval_guard``
give (``support.reference_fire``, ``support.brute_force_bindings``).
The closures a transition's kernel compiles (``hknet.compiled``) are
held to ``evaluate``, ``term_tokens`` and ``eval_guard`` directly, and a
structure compiles each transition of a net once.
"""

import dataclasses
import gc
import os
import random
import sys
import threading

import pytest

from hknet import (Atom, EvalError, FiringError, Marking, SchematicNet,
                   SetValue, TupleValue, bind_structure, carrier_of,
                   enabled_bindings, enumerate_bindings, evaluate, explore, fire,
                   ground, instantiate, make_structure, parse, random_policy,
                   resolve_net, simulate)
from hknet import compiled, nets
from hknet.signature import SortName, value_in_sort
from hknet.terms import Binding, GuardAtom, eval_atom, eval_guard, term_tokens

from support import (ReferenceMarking, brute_force_bindings, reference_fire,
                     reference_occurrence, structure_text)


SIGNATURE = """
signature kinds {
  sets A, B;
  subsets Sub of pow(B);
  consts k: A, gone: A;
  fns f: B -> A, part: B -> A, pair: A, B -> A, none: B -> A, fs: pow(B) -> A;
}
"""

# transition name -> the term it puts on the unsorted place out, or its
# guard; every transition reads x from p, y from q and Y from sets, and
# each guarded one puts x on out
OUTPUTS = {
    "var": "x",
    "const": "k",
    "symbol": "B",
    "unary": "f(y)",
    "binary": "pair(x, y)",
    "tuple": "(x, y)",
    "set": "{x, k}",
    "elm": "elm(Y)",
    "nested": "(f(y), {y}, fs(Y), pair(k, y))",
    "unbound": "w",
    "no_value": "gone",
    "no_table": "none(y)",
    "outside": "part(y)",
    "outside_binary": "pair(x, y), (x, y)",
    "elm_of_atom": "elm(x)",
    "elm_in_value": "f(elm(Y))",
}
GUARDS = {
    "eq": "f(y) = x",
    "eq_reversed": "x = f(y)",
    "in": "y in Y",
    "in_symbol": "x in A",
    "sub": "Y sub B",
    "sub_set": "{y} sub Y",
    "in_not_set": "x in x",
    "sub_not_set": "x sub Y",
    "guard_outside": "part(y) = x",
    "guard_no_table": "none(y) = x",
    "two_atoms": "y in Y and f(y) = x",
}


def module_text() -> str:
    names = [*OUTPUTS, *GUARDS]
    trans = [f"{name};" for name in OUTPUTS]
    trans += [f"{name} guard {guard};" for name, guard in GUARDS.items()]
    arcs = []
    for name in names:
        arcs += [f"p -> {name} : x;", f"q -> {name} : y;", f"sets -> {name} : Y;",
                 f"{name} -> out : {OUTPUTS.get(name, 'x')};"]
    return ("module kinds_m of kinds {\n"
            "  places { p : A; q : B; sets : pow(B); out; }\n"
            "  trans { " + " ".join(trans) + " }\n"
            "  arcs { " + " ".join(arcs) + " }\n}\n")


def structure():
    a1, a2, a3, b1, b2 = (Atom(n) for n in ("a1", "a2", "a3", "b1", "b2"))
    sig = parse(SIGNATURE).body
    sub = [SetValue([]), SetValue([b1])]
    pow_b = [SetValue([]), SetValue([b1]), SetValue([b2]), SetValue([b1, b2])]
    # gone has no value and none no table; part and pair are partial
    return sig, make_structure(
        "kinds_s", sig, {"A": (a1, a2, a3), "B": (b1, b2), "Sub": sub},
        functions={"f": {b1: a1, b2: a2}, "part": {b1: a2},
                   "pair": {(a1, b1): a3, (a2, b2): a1},
                   "fs": dict(zip(pow_b, (a1, a2, a2, a3)))},
        constants={"k": a1})


def kinds_net(sig):
    """The resolved net, with its resolution violations (``w`` is free
    and unsorted, ``elm`` nests in ``f(elm(Y))``) ignored, plus one
    transition whose guard atom has an operator no parser produces."""
    net, _ = resolve_net(parse(module_text()).body.inner, sig)
    eq = net.transition("eq")
    odd = dataclasses.replace(
        eq, name="unknown_op",
        guard=dataclasses.replace(eq.guard, atoms=(GuardAtom(
            "lt", eq.guard.atoms[0].left, eq.guard.atoms[0].right,
            eq.guard.atoms[0].span),)))
    arcs = tuple(dataclasses.replace(a, source="unknown_op") if a.source == "eq"
                 else dataclasses.replace(a, target="unknown_op") if a.target == "eq"
                 else a for a in net.arcs if "eq" in (a.source, a.target))
    return SchematicNet(net.places, tuple(sorted((*net.transitions, odd),
                                                 key=lambda t: t.name)),
                        tuple(sorted((*net.arcs, *arcs),
                                     key=lambda a: (a.source, a.target))))


@pytest.fixture(scope="module")
def kinds():
    sig, s = structure()
    return kinds_net(sig), s


def outcome(step):
    """A result, or the type, message and span of the error raised."""
    try:
        return ("ok", step())
    except (EvalError, FiringError) as exc:
        return (type(exc).__name__, exc.message, exc.span)


def bindings_of(t, s):
    """Every total binding of ``t``, and each with its first variable
    dropped."""
    total = list(enumerate_bindings(t.variables, s))
    return total + [Binding(b.pairs()[1:]) for b in total]


def full_marking(net, s):
    return Marking({p.name: carrier_of(p.sort, s) for p in net.places
                    if p.sort is not None})


def test_the_net_covers_every_term_kind_guard_operator_and_failure(kinds):
    net, s = kinds
    want = {"Var", "ConstRef", "SymbolRef", "App", "TupleTerm", "SetTerm", "Elm"}
    seen, ops = set(), set()

    def walk(term):
        seen.add(type(term).__name__)
        for child in (getattr(term, "args", ()) or getattr(term, "items", ())
                      or getattr(term, "elements", ())):
            walk(child)
        if hasattr(term, "inner"):
            walk(term.inner)

    for arc in net.arcs:
        for term in arc.inscription:
            walk(term)
    for t in net.transitions:
        for atom in t.guard.atoms:
            ops.add(atom.op)
            walk(atom.left)
            walk(atom.right)
    assert seen == want and ops == {"=", "in", "sub", "lt"}
    raised = " | ".join(
        out[1] for t in net.transitions for b in bindings_of(t, s)
        for out in (outcome(lambda: reference_occurrence(net, t.name, b, s)),
                    outcome(lambda: eval_guard(t.guard, s, b)))
        if out[0] != "ok")
    for message in ("unbound variable", "has no value", "has no table", "is undefined on",
                    "elm expects a set value", "elm(...) is not a value",
                    "'in' needs a set", "'sub' compares two set values",
                    "unknown guard operator"):
        assert message in raised


def test_occurrence_evaluates_every_term_as_the_interpreter_does(kinds):
    # occurrence takes total bindings; fire, below, takes partial ones too
    net, s = kinds
    for t in net.transitions:
        for b in enumerate_bindings(t.variables, s):
            got = outcome(lambda: nets.occurrence(net, t.name, b, s))
            assert got == outcome(lambda: reference_occurrence(net, t.name, b, s)), \
                (t.name, b)


def test_fire_checks_every_guard_operator_as_the_interpreter_does(kinds):
    net, s = kinds
    # every input token is there: fire evaluates the outputs before it
    # checks containment, the reference after
    m = full_marking(net, s)
    ref = ReferenceMarking({p: list(ms) for p, ms in m.items()})
    for t in net.transitions:
        for b in bindings_of(t, s):
            got = outcome(lambda: fire(net, m, t.name, b, s))
            want = outcome(lambda: reference_fire(net, ref, t.name, b, s))
            if got[0] == "ok" and want[0] == "ok":
                got, want = (got[1].rendered_entries(), want[1].rendered_entries())
            assert got == want, (t.name, b)


def test_enabling_matches_the_definition_on_every_term_kind(kinds):
    net, s = kinds
    pool = {p.name: list(carrier_of(p.sort, s)) + [Atom("zzz")]
            for p in net.places if p.sort is not None}
    rng = random.Random(18)
    markings = [full_marking(net, s)]
    for _ in range(40):
        markings.append(Marking({place: [v for v in rng.sample(values, 3)
                                         for _ in range(rng.randrange(3))]
                                 for place, values in pool.items()}))
    for m in markings:
        for t in net.transitions:
            assert enabled_bindings(net, m, t, s) == brute_force_bindings(net, m, t, s), \
                (t.name, m)


def test_a_check_on_a_variable_outside_the_transition_rejects_every_binding():
    # w occurs only in the guard and is declared nowhere, so resolution
    # leaves it out of t.variables; its check goes last and fails there
    sig, s = structure()
    net, problems = resolve_net(parse("""
    module stray_m of kinds {
      places { p : A; out : A; }
      trans { stray guard w = x; }
      arcs { p -> stray : x; stray -> out : x; }
    }
    """).body.inner, sig)
    assert {v.code for v in problems} == {"free-variable", "unsorted-variable"}
    plan = net.index.plans["stray"]
    assert plan.names == ("x",) and len(plan.checks[-1]) == 1
    m = Marking({"p": [Atom("a1"), Atom("a2")]})
    assert enabled_bindings(net, m, "stray", s) == brute_force_bindings(
        net, m, net.transition("stray"), s) == []


def test_tuple_tokens_of_the_wrong_shape_match_no_pattern(kinds):
    # a pattern (x, y) never binds from an atom or a tuple of another
    # length, and a bound position must agree with the token
    _, s = kinds
    sig = parse(SIGNATURE).body
    net, problems = resolve_net(parse("""
    module shape_m of kinds {
      places { pairs : (A, B); out; }
      trans { split; same; }
      arcs { pairs -> split : (x, y); split -> out : y;
             pairs -> same : (x, y), (k, y); same -> out : x; }
    }
    """).body.inner, sig)
    assert problems == []
    a1, a2, b1, b2 = (Atom(n) for n in ("a1", "a2", "b1", "b2"))
    m = Marking({"pairs": [a1, TupleValue([a1]), TupleValue([a1, b1, b1]),
                           TupleValue([a1, b1]), TupleValue([a2, b1]),
                           TupleValue([a2, b2]), TupleValue([b1, a1])]})
    for name in ("split", "same"):
        t = net.transition(name)
        assert enabled_bindings(net, m, name, s) == brute_force_bindings(net, m, t, s)
    assert [b["x"] for b in enabled_bindings(net, m, "same", s)] == [a2]


def test_a_join_level_with_a_guard_atom_and_a_token_check(kinds):
    # once y is bound, one level checks both the token part(y) on p, which
    # raises outside part's table, and the guard f(y) = x
    _, s = kinds
    net, problems = resolve_net(parse("""
    module mixed_m of kinds {
      places { p : A; q : B; }
      trans { mixed guard f(y) = x; }
      arcs { p -> mixed : x, part(y); q -> mixed : y; }
    }
    """).body.inner, parse(SIGNATURE).body)
    assert problems == []
    level = net.index.plans["mixed"].checks[-1]
    assert {type(check).__name__ for check in level} == {"GuardAtom", "tuple"}
    t = net.transition("mixed")
    a1, a2, a3, b1, b2 = (Atom(n) for n in ("a1", "a2", "a3", "b1", "b2"))
    rng = random.Random(20)
    enabled = 0
    for _ in range(60):
        m = Marking({"p": [rng.choice((a1, a2, a3)) for _ in range(rng.randrange(4))],
                     "q": rng.sample((b1, b2), rng.randrange(3))})
        found = enabled_bindings(net, m, "mixed", s)
        assert found == brute_force_bindings(net, m, t, s), m
        enabled += len(found)
    assert enabled


# ---------------------------------------------------------------------------
# The compiled closures themselves
# ---------------------------------------------------------------------------

def test_compiled_terms_tokens_and_guards_equal_the_interpreter(kinds):
    # every arc term and guard atom of the net, compiled as a kernel
    # compiles them, and each kernel's guard, under every total binding:
    # values and errors alike
    net, s = kinds
    for t in net.transitions:
        names = frozenset(name for name, _ in t.variables)
        terms = [term for arc in (*net.arcs_into(t.name), *net.arcs_out_of(t.name))
                 for term in arc.inscription]
        terms += [side for atom in t.guard.atoms for side in (atom.left, atom.right)]
        values = [(compiled._value(term, s, names), term) for term in terms]
        tokens = [(compiled._tokens(term, s, names), term) for term in terms]
        atoms = [(compiled._atom(atom, s, names), atom) for atom in t.guard.atoms]
        holds = nets._kernel(net, t.name, s).holds
        for b in enumerate_bindings(t.variables, s):
            env = dict(b.pairs())
            for closure, term in values:
                assert outcome(lambda: closure(env)) == \
                    outcome(lambda: evaluate(term, s, b)), (t.name, term, b)
            for closure, term in tokens:
                assert outcome(lambda: closure(env)) == \
                    outcome(lambda: term_tokens(term, s, b)), (t.name, term, b)
            for closure, atom in atoms:
                assert outcome(lambda: closure(env)) == \
                    outcome(lambda: eval_atom(atom, s, b)), (t.name, atom, b)
            assert outcome(lambda: holds(env)) == outcome(lambda: eval_guard(t.guard, s, b)), \
                (t.name, b)


def test_an_output_sort_the_structure_lacks_raises_as_value_in_sort_does():
    # the kernel cannot build a membership table for C, so it leaves the
    # test to value_in_sort, which raises when the transition fires
    sig = parse("signature lack { sets A, C; consts c: C; }").body
    a1 = Atom("a1")
    s = make_structure("lack_s", sig, {"A": (a1,)}, constants={"c": a1})
    net, problems = resolve_net(parse("""
    module lack_m of lack {
      places { p : A; out : C; }
      trans { t; }
      arcs { p -> t : x; t -> out : c; }
    }
    """).body.inner, sig)
    assert problems == []
    m, b = Marking({"p": [a1]}), Binding({"x": a1})
    want = outcome(lambda: value_in_sort(a1, SortName("C"), s))
    assert want[0] == "EvalError"
    assert outcome(lambda: fire(net, m, "t", b, s)) == want


def test_a_second_explore_compiles_nothing(branch, sigma0, monkeypatch):
    # kernels are kept on the structure: the first explore of a freshly
    # bound one compiles each transition once, later calls on the same
    # system compile none
    builds = []

    class Counting(nets.Kernel):
        def __init__(self, index, name, s):
            builds.append(name)
            super().__init__(index, name, s)

    monkeypatch.setattr(nets, "Kernel", Counting)
    s = bind_structure(parse(structure_text(1, 2), "s_1_2.hks").body, sigma0)
    system = instantiate(branch, s)
    first = explore(system)
    assert sorted(builds) == sorted(t.name for t in system.net.transitions)
    builds.clear()
    assert explore(system) == first
    simulate(system, random_policy(seed=1, steps=12))
    ground(system)
    assert builds == []
    # another net over the same structure has kernels of its own, which
    # the structure drops with that net
    explore(instantiate(branch, s))
    assert len(builds) == len(system.net.transitions)
    gc.collect()
    assert len(s._kernels) == len(system.net.transitions)


def test_threads_racing_on_first_use_share_one_kernel_per_transition(branch, sigma0):
    # a freshly bound structure, explored by more threads than cores at
    # once with a short switch interval: every thread sees the graph that
    # one thread alone sees, and each transition keeps one kernel
    def fresh_system():
        return instantiate(branch, bind_structure(
            parse(structure_text(1, 2), "s_1_2.hks").body, sigma0))

    want = explore(fresh_system())
    system = fresh_system()
    results, errors = [], []

    def work():
        try:
            for _ in range(50):
                results.append(explore(system))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=work) for _ in range(2 * (os.cpu_count() or 1) + 2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(results) == 50 * len(threads) and all(graph == want for graph in results)
    net, s = system.net, system.structure
    assert len(s._kernels) == len(net.transitions)
    for t in net.transitions:
        assert nets._kernel(net, t.name, s) is s._kernels[net.index.plans[t.name]]

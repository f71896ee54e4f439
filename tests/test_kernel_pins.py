"""Pins of the high-level enabling and successor kernel.

Digests of explored graphs and printed simulated runs, recorded before
the kernel was made faster, so any change to an order, a binding or a
marking shows; and the brute-force enabling oracle
(``support.brute_force_bindings``) on a hand-built net whose guards pin
a variable through a function table in every shape that binding by
inverse tables must either handle or leave to carrier enumeration,
with the steps ``MatchPlan`` chooses for it and the guard evaluations
they save.
"""

import hashlib
import random

import pytest

from hknet import (Atom, Elm, EvalError, Marking, SetValue, Var, bind_structure,
                   enabled_bindings, explore, parse, parse_predicate,
                   print_run, random_policy, resolve_net, simulate)
from hknet import compiled
from hknet.signature import inverse_table

from conftest import synthetic
from support import brute_force_bindings


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Explored graphs
# ---------------------------------------------------------------------------

# (system, max_nodes, max_edges, predicate) -> digest of markings, edges,
# deadlocks, predicate hits and truncated_by
EXPLORE_DIGESTS = {
    ("tiny", 10000, 100000, "contains(eating, (Alice, t1))"):
        "9ff2666a126b547898729881a3385800",  # 9 states, 10 edges, 1 hit
    ("small", 10000, 100000, "contains(eating, (Alice, t1))"):
        "07ef66b0afbe96f38a75ed17428fa3aa",  # 956 states, 2448 edges, 32 hits
    ("small", 10000, 100000, "count(free_tables) = 0 and count(orders) >= 1"):
        "a7389e2186d67e581a84ff4eecfc4d39",  # 956 states, 2448 edges, 432 hits
    ("s_2_1", 10000, 100000, "contains(eating, (c1, t1))"):
        "a8b843e341f75cbdeec3db6fddc33637",  # 252 states, 600 edges, 16 hits
    ("s_2_1", 10000, 100000,
     "tokens(cooked, m1) >= 1 or not contains(offered_tables, t1)"):
        "738168645747b7c9d298021768a04306",  # 252 states, 600 edges, 238 hits
    ("s_2_1", 100000, 400, "contains(eating, (c1, t1))"):
        "db17d510128792fdd57b8276c2e45672",  # 252 states, 400 edges, 16 hits, edges cap
    ("s0", 120, 100000, "count(orders) >= 1 or count(waiting) >= 2"):
        "01eb4e8806dbce5c2604936974fa3108",  # 120 states, 168 edges, 69 hits, nodes cap
}


def test_explored_graphs_are_pinned(branch, sys_tiny, sys_small, sys0):
    systems = {"tiny": sys_tiny, "small": sys_small, "s0": sys0,
               "s_2_1": synthetic(branch, 2, 1)}
    got = {}
    for key in EXPLORE_DIGESTS:
        name, max_nodes, max_edges, predicate = key
        graph = explore(systems[name], max_nodes=max_nodes, max_edges=max_edges,
                        predicate=parse_predicate(predicate))
        got[key] = _digest(
            (graph.markings, graph.edges, graph.deadlocks, graph.predicate_hits,
             graph.truncated_by))
    assert got == EXPLORE_DIGESTS


# ---------------------------------------------------------------------------
# Simulated runs
# ---------------------------------------------------------------------------

# (n, k, policy seed) -> digest of the printed 24-step run on s_n_k
SIMULATE_DIGESTS = {
    (2, 3, 0): "f9e6146e7ad4133a068786734b95cb66",
    (2, 3, 1): "7c291d9a35c16398c1de32a5caab7ffb",
    (2, 3, 2): "09aa54be8cb69fb6a965ef82c9b0d995",
    (2, 3, 3): "0464d5b15ffb29190810bded82ca1c46",
    (32, 3, 0): "abe20638c08553b4037fc7d5e4b0bf5a",
    (32, 3, 1): "4ac69a2e433f46900e3d8563fdf4f1ef",
    (32, 3, 2): "654aa5c49860ca0f88dc7ec5cc35dbd9",
    (32, 3, 3): "d6918361c4a1d6fb825e7d3bd21dcdff",
}

A0_STEPS_DIGEST = "dd48831384c26e2b87250a02df8e4dc7"


def test_simulated_runs_are_pinned(branch, sys0, a0_simulated):
    systems = {(n, k): synthetic(branch, n, k) for n, k in {(n, k) for n, k, _ in
                                                             SIMULATE_DIGESTS}}
    got = {(n, k, seed): _digest(print_run(simulate(systems[(n, k)],
                                                    random_policy(seed=seed, steps=24))))
           for n, k, seed in SIMULATE_DIGESTS}
    assert got == SIMULATE_DIGESTS
    assert _digest(print_run(a0_simulated)) == A0_STEPS_DIGEST


# ---------------------------------------------------------------------------
# Guards that pin a variable through a function table
# ---------------------------------------------------------------------------

# Every transition draws x (or z) from an input place and has a free
# variable pinned, or not, by a guard equation through a table:
#   noninj    f(y) = x        f maps two values to a1
#   partial   part(y) = x     part is defined on two values only
#   outside   g(y) = x        g has an entry for b9, outside B
#   subset    fs(s) = x       s ranges over Sub, fs over all of pow(B)
#   reversed  x = f(y)        the equation the other way round
#   constant  f(y) = k        nothing to bind first
#   binary    bin(y, y) = x   a binary function: carrier enumeration
#   unbound   f(v) = w        w is bound after v: carrier enumeration
#   no_table  none(y) = x     a function without a table
#   failing   f(y) = part(z)  part(z) is undefined for some z
PINNED = ("""
signature inv {
  sets A, B;
  subsets Sub of pow(B);
  consts k: A;
  fns f: B -> A, g: B -> A, part: B -> A, fs: pow(B) -> A, bin: B, B -> A,
    none: B -> A;
}
""", """
structure inv_s of inv {
  A = {a1, a2, a3};
  B = {b1, b2, b3, b4};
  Sub = {{}, {b1}, {b1, b2}};
  k = a1;
  f = {b1 -> a1, b2 -> a1, b3 -> a2, b4 -> a3};
  g = {b1 -> a1, b9 -> a1, b2 -> a3};
  part = {b1 -> a2, b3 -> a2};
  fs = {{} -> a1, {b1} -> a2, {b2} -> a2, {b1, b2} -> a2, {b3} -> a1};
  bin = {(b1, b1) -> a1, (b2, b2) -> a1, (b3, b3) -> a2};
}
""", """
module inv_m of inv {
  places { p : A; q : B; out; }
  trans {
    noninj guard f(y) = x free y : B;
    partial guard part(y) = x free y : B;
    outside guard g(y) = x free y : B;
    subset guard fs(s) = x free s : Sub;
    reversed guard x = f(y) free y : B;
    constant guard f(y) = k free y : B;
    binary guard bin(y, y) = x free y : B;
    unbound guard f(v) = w free v : B, w : A;
    no_table guard none(y) = x free y : B;
    failing guard f(y) = part(z) free y : B;
  }
  arcs {
    p -> noninj : x;       noninj -> out : y;
    p -> partial : x;      partial -> out : y;
    p -> outside : x;      outside -> out : y;
    p -> subset : x;       subset -> out : s;
    p -> reversed : x;     reversed -> out : y;
    p -> constant : x;     constant -> out : y;
    p -> binary : x;       binary -> out : y;
    p -> unbound : x;      unbound -> out : (v, w);
    p -> no_table : x;     no_table -> out : y;
    q -> failing : z;      failing -> out : y;
  }
}
""")


@pytest.fixture(scope="module")
def pinned():
    sig_text, structure_text_, module_text = PINNED
    sig = parse(sig_text).body
    structure = bind_structure(parse(structure_text_).body, sig)
    net, violations = resolve_net(parse(module_text).body.inner, sig)
    assert violations == []
    return net, structure


def test_pinned_variables_bind_as_the_definition_says(pinned):
    net, s = pinned
    a1, a2, a3 = Atom("a1"), Atom("a2"), Atom("a3")
    b1, b2, b3, b4 = (Atom(f"b{i}") for i in range(1, 5))
    m = Marking({"p": [a1, a2, a2, a3], "q": [b1, b2, b3]})

    def bound(name, var):
        return [b[var] for b in enabled_bindings(net, m, name, s)]

    assert bound("noninj", "y") == [b1, b2, b3, b4]
    assert bound("partial", "y") == [b1, b3]
    assert bound("outside", "y") == [b1, b2]
    assert bound("subset", "s") == [SetValue([]), SetValue([b1]), SetValue([b1, b2])]
    assert bound("reversed", "y") == [b1, b2, b3, b4]
    assert bound("constant", "y") == [b1, b2, b1, b2, b1, b2]
    assert bound("binary", "y") == [b1, b2, b3]
    assert len(bound("unbound", "v")) == 3 * 4
    assert bound("no_table", "y") == []
    assert bound("failing", "y") == [b3, b3]
    for t in net.transitions:
        assert enabled_bindings(net, m, t, s) == brute_force_bindings(net, m, t, s), t.name


def test_pinned_variables_match_brute_force_on_random_markings(pinned):
    net, s = pinned
    junk = Atom("zzz")
    pool = {"p": [Atom(n) for n in ("a1", "a2", "a3", "b1")] + [junk],
            "q": [Atom(n) for n in ("b1", "b2", "b3", "b4", "b9", "a1")] + [junk]}
    rng = random.Random(14)
    for _ in range(120):
        m = Marking({place: [v for v in rng.sample(values, 3)
                             for _ in range(rng.randrange(3))]
                     for place, values in pool.items()})
        for t in net.transitions:
            assert enabled_bindings(net, m, t, s) == brute_force_bindings(net, m, t, s), \
                (t.name, m)


def test_a_pinned_variable_is_drawn_from_the_inverse_table(pinned):
    net, s = pinned
    kinds = {name: plan.steps[-1][:2] for name, plan in net.index.plans.items()}
    free = {"subset": "s", "unbound": "w"}
    assert kinds == {name: ("carrier" if name in ("binary", "unbound") else "preimage",
                            free.get(name, "y"))
                     for name in kinds}
    # unbound: v comes first and is enumerated, so w = f(v) has v bound
    assert net.index.plans["unbound"].steps[-2][:2] == ("carrier", "v")
    assert net.index.plans["reversed"].steps[-1][2:] == net.index.plans["noninj"].steps[-1][2:]


def test_a_preimage_step_leaves_its_equation_unchecked(pinned):
    # each transition has one guard atom: a preimage step makes it hold,
    # else the join checks it once its variables are bound
    net, _ = pinned
    for name, plan in net.index.plans.items():
        checked = [check for level in plan.checks for check in level]
        (atom,) = net.transition(name).guard.atoms
        if plan.steps[-1][0] == "preimage":
            assert checked == [], name
        else:
            assert len(checked) == 1 and checked[0] is atom, name


def test_inverse_tables_list_every_argument_of_a_unary_function(pinned):
    _, s = pinned
    a1, a2, b1, b2, b3 = (Atom(n) for n in ("a1", "a2", "b1", "b2", "b3"))
    assert inverse_table("f", s) == {a1: (b1, b2), a2: (b3,), Atom("a3"): (Atom("b4"),)}
    assert inverse_table("g", s)[a1] == (b1, Atom("b9"))
    assert inverse_table("part", s) == {a2: (b1, b3)}
    assert inverse_table("bin", s) == {} and inverse_table("none", s) == {}


def test_binding_through_the_inverse_skips_the_carrier(pinned, monkeypatch):
    # f(y) = x at x = a1, a2, a3 has 2 + 1 + 1 candidates for y, not 3 x 4,
    # and the join evaluates f(y) = x for none of them, as the inverse
    # table makes it hold; the evaluations are counted on the guard atoms
    # the kernel compiles, under a structure equal to the fixture's, which
    # nothing compiled yet
    net, _ = pinned
    sig = parse(PINNED[0]).body
    s = bind_structure(parse(PINNED[1]).body, sig)
    calls = []
    original = compiled._atom

    def counting(atom, s_, names):
        holds = original(atom, s_, names)

        def counted(env):
            calls.append(atom)
            return holds(env)
        return counted

    monkeypatch.setattr(compiled, "_atom", counting)
    m = Marking({"p": [Atom("a1"), Atom("a2"), Atom("a3")]})
    assert len(enabled_bindings(net, m, "noninj", s)) == 4
    assert len(calls) == 0
    calls.clear()
    assert len(enabled_bindings(net, m, "binary", s)) == 3
    assert len(calls) == 3 * 4


def test_a_carrier_symbol_evaluates_to_the_set_of_its_carrier(s0):
    menu = s0.carrier_value("Menu")
    assert menu == SetValue(s0.carrier("Menu"))
    with pytest.raises(EvalError, match="no carrier for symbol 'Nothing'"):
        s0.carrier_value("Nothing")


def test_hand_over_draws_the_meal_from_the_inverse_of_g(sys0):
    plan = sys0.net.index.plans["hand_over"]
    assert [step[:2] for step in plan.steps] == [
        ("match", "pending_orders"), ("match", "waiting"), ("preimage", "Y")]
    # g(Y) = X holds by the inverse table, so the join checks only
    # elm(Y) on cooked, which no match step reads, once Y is drawn
    assert not any(plan.checks[:-1])
    assert plan.checks[-1] == (("cooked", Elm(Var("Y", None))),)
    select = sys0.net.index.plans["select"]
    assert select.steps[-1][:2] == ("carrier", "X")


# ---------------------------------------------------------------------------
# Markings
# ---------------------------------------------------------------------------

def test_updated_marking_keeps_no_empty_place():
    a, b = Atom("a"), Atom("b")
    m = Marking({"p": [a], "q": [a, b]})
    # p loses its last token, r is named by an empty add map only, as
    # elm({}) produces; q keeps one token and s gains one
    after = m.updated({"p": {a: 1}, "q": {a: 1}}, {"r": {}, "s": {b: 2}})
    assert after.places() == ("q", "s")
    assert after.get("p").total() == 0 and after.get("r").total() == 0
    want = Marking({"q": [b], "s": [b, b]})
    assert after == want and hash(after) == hash(want)
    assert repr(after) == repr(want)
    emptied = after.updated({"q": {b: 1}, "s": {b: 2}}, {"q": {}})
    assert emptied.places() == () and emptied == Marking() and hash(emptied) == hash(Marking())

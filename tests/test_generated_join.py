"""Joins on a net whose names are Python's own words.

A transition's join runs as code made from the shape of its plan, so
nothing a model names may reach that code as text.  The net below names
its signature, sets, constants, function, places, transitions and
variables with Python keywords, builtins and dunder names, and its plans
take every step kind (match with a fresh, a bound and a constant
component, preimage, carrier), a guard check and a token check of both
forms: counted on a matched place, and a membership test on a place no
match step reads.  Enabling must still be the definition
(``support.brute_force_bindings``), and the high-level state space the
grounded one (``explore_grounded``, through ``marking_vector``).

Below that: shapes hold nothing of the model, the compiled code is kept
once per process for every plan of one shape, and a plan deeper than
Python lets blocks nest still joins.
"""

import ast
import random
import re

import pytest

from hknet import (Atom, Elm, GuardAtom, Marking, SetValue, System, TupleValue, Var,
                   bind_structure, carrier_of, enabled_bindings, explore, explore_grounded,
                   ground, instantiate, parse, resolve_net)
from hknet import compiled, nets, terms
from hknet.signature import carrier_rank

from support import brute_force_bindings, structure_text


SIGNATURE = """
signature class {
  sets lambda, None;
  subsets __import__ of pow(None);
  consts True: lambda, False: None, __debug__: None;
  fns def: None -> lambda;
}
"""

STRUCTURE = """
structure return of class {
  lambda = {for, if, while};
  None = {not, is};
  __import__ = pow(None);
  True = for;
  False = not;
  __debug__ = is;
  def = {not -> for, is -> if};
}
"""

MODULE = """
module yield of class {
  places {
    assert : lambda init elm(lambda);
    except : (lambda, None) init (True, False), (True, False), (True, __debug__),
                                 (True, __debug__);
    finally : __import__ init {}, {__debug__};
    found : None init False, __debug__;
    tokens_on : None;
  }
  trans {
    try guard def(is) = pass;
    with;
    raise guard def(__class__) = print free __class__ : None;
    del guard is in or free or : __import__;
    global;
    __init__;
  }
  arcs {
    assert -> try : pass;  except -> try : (pass, is);  try -> assert : pass;
    except -> with : (True, not), (True, not);  with -> found : not;
    assert -> raise : print;  raise -> found : __class__;
    found -> del : is;  del -> finally : or;
    finally -> global : __builtins__;  found -> global : elm(__builtins__);
    global -> finally : __builtins__;  global -> tokens_on : elm(__builtins__);
    tokens_on -> __init__ : self;  __init__ -> found : self;
  }
}
"""


@pytest.fixture(scope="module")
def keywords():
    sig = parse(SIGNATURE).body
    return instantiate(parse(MODULE).body, bind_structure(parse(STRUCTURE).body, sig))


def test_the_keyword_net_takes_every_step_and_check_kind(keywords):
    plans = keywords.net.index.plans
    steps = {step[0] for plan in plans.values() for step in plan.steps}
    checks = {type(check) for plan in plans.values() for level in plan.checks
              for check in level}
    assert steps == {"match", "preimage", "carrier"} and checks == {GuardAtom, tuple}
    assert plans["try"].steps[1][2].items[0].name == "pass"  # bound before
    assert plans["with"].steps[0][2].items[0].name == "True"  # a constant
    # global checks elm(__builtins__) on found, which no match step reads
    assert [check for level in plans["global"].checks for check in level] == [
        ("found", Elm(Var("__builtins__", None)))]
    assert "found" in plans["global"].places and "found" not in plans["global"].matched
    forms = set()
    for name in plans:
        shape = shape_of(keywords.net, name, keywords.structure)[0]
        counted = shape[4]
        forms.update("counted" if place in counted else "membership"
                     for op in shape[5:] if op[0] == "K" for place in op[1] if place >= 0)
    assert forms == {"counted", "membership"}


def test_enabling_on_the_keyword_net_matches_the_definition(keywords):
    net, s = keywords.net, keywords.structure
    pool = {p.name: list(carrier_of(p.sort, s)) + [Atom("None")] for p in net.places}
    rng = random.Random(7)
    markings = [keywords.initial]
    for _ in range(30):
        markings.append(Marking({place: [v for v in rng.sample(values, min(3, len(values)))
                                         for _ in range(rng.randrange(3))]
                                 for place, values in pool.items()}))
    enabled = set()
    for m in markings:
        for t in net.transitions:
            found = enabled_bindings(net, m, t, s)
            assert found == brute_force_bindings(net, m, t, s), (t.name, m)
            if found:
                enabled.add(t.name)
    assert enabled == {t.name for t in net.transitions}


def test_a_kernels_join_returns_the_enabled_bindings_themselves(sys_small):
    # no stage follows the join: every input term that is not a match
    # step is one of its checks, so what it returns is final
    net, s = sys_small.net, sys_small.structure
    kernels = {t.name: nets._kernel(net, t.name, s) for t in net.transitions}
    for m in explore(sys_small).markings:
        for name, kernel in kernels.items():
            found = kernel.join(m.get)
            assert type(found) is list and found == enabled_bindings(net, m, name, s), (name, m)


def test_the_keyword_net_explores_as_its_grounding(keywords):
    g = ground(keywords)
    high = explore(keywords)
    low = explore_grounded(g)
    assert not high.truncated and not low.truncated
    assert (len(high.markings), len(high.edges)) == (len(low.vectors), len(low.edges))
    assert {g.marking_vector(m) for m in high.markings} == set(low.vectors)


# ---------------------------------------------------------------------------
# The branch's join shapes on tokens the restaurant never holds
# ---------------------------------------------------------------------------

# unfold, select and hand_over as the branch has them, but reading places
# without a sort, so a tuple pattern meets atoms and tuples of other
# arities whose components lie in its variables' carriers, and with
# select's guard on the menu it read, which fails for a larger X
MIXED_STRUCTURE = """
structure mixed_s of sigma0 {
  Clients = {ca, cb};
  Tables = {ca, cb};
  Menu = {ma, mb};
  Meal_items = {ma, mb};
  Orders = pow(Menu);
  Meals = pow(Meal_items);
  f = {ma -> ma, mb -> mb};
  g = {{} -> {}, {ma} -> {ma}, {mb} -> {mb}, {ma, mb} -> {ma, mb}};
}
"""

MIXED_MODULE = """
module mixed of sigma0 {
  places { orders; clients; menu; waiting; pending; cooked : Meal_items; done; }
  trans {
    unfold free t : Tables, X : Orders;
    select guard X sub m free c : Clients, t : Tables, m : pow(Menu), X : pow(Menu);
    hand_over guard g(Y) = X free c : Clients, t : Tables, X : Orders;
  }
  arcs {
    orders -> unfold : (t, X);  unfold -> done : t;
    clients -> select : (c, t);  menu -> select : m;  select -> menu : m;
    select -> done : c;
    pending -> hand_over : (t, X);  waiting -> hand_over : (c, t, X);
    cooked -> hand_over : elm(Y);  hand_over -> done : c;
  }
}
"""


@pytest.fixture(scope="module")
def mixed(sigma0):
    s = bind_structure(parse(MIXED_STRUCTURE).body, sigma0)
    module = parse(MIXED_MODULE).body
    net, problems = resolve_net(module.inner, sigma0)
    assert problems == []
    ca, cb, ma, mb = (Atom(n) for n in ("ca", "cb", "ma", "mb"))
    none, a, b, both = SetValue(), SetValue([ma]), SetValue([mb]), SetValue([ma, mb])

    def tup(*items):
        return TupleValue(items)

    initial = Marking({
        "orders": [ca, tup(ca, a), tup(cb, none), tup(ca, cb), tup(ca, a, ca)],
        "clients": [ca, tup(ca, cb), tup(cb, ca), tup(ca, cb, ca), tup(ca, a)],
        "menu": [a, ca, tup(ca, cb), tup(a, b)],
        "pending": [ca, tup(ca, a), tup(cb, b), tup(ca, a, ca), tup(ca, cb)],
        "waiting": [ca, tup(cb, ca, a), tup(ca, cb, b), tup(ca, cb), tup(ca, cb, b, ca)],
        "cooked": [ma, mb],
    })
    return System("mixed", module, s, initial, net)


def test_the_mixed_net_takes_the_branchs_join_shapes(mixed, sys_small):
    for name in ("unfold", "select", "hand_over"):
        assert shape_of(mixed.net, name, mixed.structure)[0] == \
            shape_of(sys_small.net, name, sys_small.structure)[0], name


def test_tuple_patterns_enable_only_tokens_of_their_arity(mixed):
    # every read place holds an atom and tuples of two and three items
    net, s = mixed.net, mixed.structure
    graph = explore(mixed)
    assert not graph.truncated
    enabled = set()
    for m in graph.markings:
        for t in net.transitions:
            found = enabled_bindings(net, m, t, s)
            assert found == brute_force_bindings(net, m, t, s), (t.name, m)
            enabled.update(t.name for _ in found[:1])
    assert enabled == {"unfold", "select", "hand_over"}
    unfold = enabled_bindings(net, mixed.initial, "unfold", s)
    assert [(b["t"], b["X"]) for b in unfold] == [
        (Atom("cb"), SetValue()), (Atom("ca"), SetValue([Atom("ma")]))]


def test_a_guard_of_selects_shape_that_fails_leaves_its_binding_out(mixed):
    # X sub m holds for two of the four X under m = {ma}
    net, s = mixed.net, mixed.structure
    found = enabled_bindings(net, mixed.initial, "select", s)
    assert {b["X"] for b in found} == {SetValue(), SetValue([Atom("ma")])}
    assert len(found) == 4 == len(brute_force_bindings(net, mixed.initial,
                                                       net.transition("select"), s))


# ---------------------------------------------------------------------------
# Shapes and the code table
# ---------------------------------------------------------------------------

TAGS = {"K", "M", "P", "C", "L", "f", "b", "c", "t"}
# every name the generated source may use: its own locals and parameters,
# the helpers of its namespace, builtins and methods of values it reads
GENERATED = re.compile(r"(make|join|tokens_on|places|names|ranks|found|append|first|take"
                       r"|held|from_sorted|NOTHING|EvalError|TupleValue|isinstance|len|counts"
                       r"|get|items|sort|key|b|e|n|v|y|taken"
                       r"|(p|n|rk|h|t|x|r|v|ok|took|k|g|tk|c|iv|tg|cp)[0-9]+)")


def shape_of(net, name, s):
    """The shape of the join of ``name`` under ``s``, and the arguments
    of its factory, as the transition's kernel makes them."""
    plan, t = net.index.plans[name], net.transition(name)
    names = frozenset(plan.names)
    closures = compiled._closures(t.guard.atoms, (*net.arcs_into(name), *net.arcs_out_of(name)),
                                  s, names)
    return compiled._shape(plan, s, names, [carrier_rank(sort, s) for sort in plan.sorts],
                           closures)


def shapes(system):
    net, s = system.net, system.structure
    for t in net.transitions:
        yield t.name, shape_of(net, t.name, s)


def leaves(shape):
    for part in shape:
        if isinstance(part, tuple):
            yield from leaves(part)
        else:
            yield part


def test_join_source_holds_only_generated_names(keywords, sys0):
    for system in (keywords, sys0):
        for name, (shape, args) in shapes(system):
            assert all(type(leaf) in (int, bool) or leaf in TAGS for leaf in leaves(shape)), name
            tree = ast.parse(compiled._Source(shape).text)
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Constant) and isinstance(node.value, str)), name
                word = getattr(node, "id", None) or getattr(node, "attr", None) or \
                    getattr(node, "arg", None)
                if isinstance(node, ast.FunctionDef):
                    word = node.name
                assert word is None or GENERATED.fullmatch(word), (name, word)


@pytest.fixture
def counted_compiles(monkeypatch):
    """An empty code table, and the sources compiled into it."""
    sources = []
    original = compiled._compile

    def counting(source):
        sources.append(source)
        return original(source)
    monkeypatch.setattr(compiled, "_factories", {})
    monkeypatch.setattr(compiled, "_compile", counting)
    return sources


def fresh_structure(sigma0, n=1, k=2):
    return bind_structure(parse(structure_text(n, k), f"s_{n}_{k}.hks").body, sigma0)


def test_a_shape_compiles_once_per_process(branch, sigma0, counted_compiles):
    system = instantiate(branch, fresh_structure(sigma0))
    explore(system)
    distinct = {shape for _, (shape, _) in shapes(system)}
    assert len(counted_compiles) == len(distinct) == len(compiled._factories)
    # the same net under a second structure, and a second instantiation
    # under a third one, build kernels of their own and compile nothing
    other = fresh_structure(sigma0, 2, 2)
    for t in system.net.transitions:
        enabled_bindings(system.net, system.initial, t, other)
    assert len(other._kernels) == len(system.net.transitions)
    again = instantiate(branch, fresh_structure(sigma0, 2, 1))
    explore(again)
    assert len(again.structure._kernels) == len(again.net.transitions)
    assert len(counted_compiles) == len(distinct)


def test_instantiating_and_exploring_again_keeps_the_table_size(branch, sigma0):
    explore(instantiate(branch, fresh_structure(sigma0, 1, 1)))
    size = len(compiled._factories)
    for _ in range(200):
        explore(instantiate(branch, fresh_structure(sigma0, 1, 1)))
    assert len(compiled._factories) == size


def test_a_full_code_table_is_cleared_and_joins_stay_right(branch, sigma0, counted_compiles,
                                                           monkeypatch):
    # a table capped at two shapes: the third shape compiled clears it,
    # and the kernels built meanwhile keep the factories they took
    monkeypatch.setattr(compiled, "_FACTORIES_MAX", 2)
    system = instantiate(branch, fresh_structure(sigma0, 1, 1))
    net, s = system.net, system.structure
    sizes = []
    for t in net.transitions:
        enabled_bindings(net, system.initial, t, s)
        sizes.append(len(compiled._factories))
    assert len({shape for _, (shape, _) in shapes(system)}) >= 3
    assert max(sizes) == 2 and any(b < a for a, b in zip(sizes, sizes[1:])), sizes
    graph = explore(system)
    assert len(compiled._factories) <= 2
    for m in graph.markings:
        for t in net.transitions:
            assert enabled_bindings(net, m, t, s) == brute_force_bindings(net, m, t, s), \
                (t.name, m)


def test_a_kernel_compiles_each_guard_atom_and_arc_term_once(keywords, sys0, monkeypatch):
    # the join, holds and occurrence share one closure per guard atom and
    # per term on the transition's arcs, whatever checks or steps use it
    built = []
    for helper in ("_atom", "_tokens"):
        def counting(item, s, names, original=getattr(compiled, helper)):
            built.append(item)
            return original(item, s, names)
        monkeypatch.setattr(compiled, helper, counting)
    for system in (keywords, sys0):
        net, s = system.net, system.structure
        for t in net.transitions:
            built.clear()
            compiled.Kernel(net.index, t.name, s)
            terms = [term for arc in (*net.arcs_into(t.name), *net.arcs_out_of(t.name))
                     for term in arc.inscription]
            assert sorted(map(id, built)) == sorted(map(id, (*t.guard.atoms, *terms))), \
                (system.name, t.name)


def test_a_warm_build_finds_ground_subterms_without_term_variables(sys_small, monkeypatch):
    # a term is compiled bottom-up and folded to a constant when all its
    # parts are; term_variables at each level of a nested term took 37
    # calls here
    net, s = sys_small.net, sys_small.structure
    for t in net.transitions:
        compiled.Kernel(net.index, t.name, s)
    calls = []
    original = terms.term_variables

    def counting(term):
        calls.append(term)
        return original(term)

    monkeypatch.setattr(terms, "term_variables", counting)
    monkeypatch.setattr(compiled, "term_variables", counting, raising=False)
    for t in net.transitions:
        compiled.Kernel(net.index, t.name, s)
    assert len(net.transitions) == 7 and calls == []


def test_a_plan_deeper_than_blocks_nest_still_joins():
    # one match step per input place, a guard atom and a second term on
    # the first place, each checked once its variables are bound: the
    # join goes on in nested functions
    depth = 30
    sig = parse("signature deep { sets A, B; fns f: A -> B; }").body
    s = bind_structure(parse(
        "structure d of deep { A = {a1, a2}; B = {b1}; f = {a1 -> b1, a2 -> b1}; }").body, sig)
    places = [f"q{i} : {'A' if i < 3 else 'B'};" for i in range(depth)]
    arcs = [f"q{i} -> t : x{i};" for i in range(depth)] + ["q0 -> t : x0;"]
    net, problems = resolve_net(parse(
        "module deep_m of deep {\n"
        f"  places {{ {' '.join(places)} }}\n"
        f"  trans {{ t guard f(x2) = x{depth - 1}; }}\n"
        f"  arcs {{ {' '.join(arcs)} }}\n}}\n").body.inner, sig)
    assert problems == []
    plan = net.index.plans["t"]
    assert len(plan.steps) == depth
    assert {type(check) for level in plan.checks for check in level} == {GuardAtom, tuple}
    assert "def k" in compiled._Source(shape_of(net, "t", s)[0]).text
    a1, a2, b1 = Atom("a1"), Atom("a2"), Atom("b1")
    t = net.transition("t")
    rng = random.Random(3)
    found = 0
    for _ in range(20):
        m = Marking({f"q{i}": rng.choices((a1, a2), k=rng.randrange(1, 4)) if i < 3
                     else [b1] * rng.randrange(0 if i == depth - 1 else 1, 2)
                     for i in range(depth)})
        enabled = enabled_bindings(net, m, t, s)
        assert enabled == brute_force_bindings(net, m, t, s), m
        found += len(enabled)
    assert found

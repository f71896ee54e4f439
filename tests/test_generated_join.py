"""Joins on a net whose names are Python's own words.

A transition's join runs as code made from the shape of its plan, so
nothing a model names may reach that code as text.  The net below names
its signature, sets, constants, function, places, transitions and
variables with Python keywords, builtins and dunder names, and its plans
take every step kind (match with a fresh, a bound and a constant
component, preimage, carrier), a guard check, a token check on a matched
place and a residual term.  Enabling must still be the definition
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

from hknet import (Atom, Guard, Marking, bind_structure, carrier_of, enabled_bindings,
                   explore, explore_grounded, ground, instantiate, parse, resolve_net)
from hknet import compiled
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
    assert steps == {"match", "preimage", "carrier"} and checks == {Guard, tuple}
    assert plans["try"].steps[1][2].items[0].name == "pass"  # bound before
    assert plans["with"].steps[0][2].items[0].name == "True"  # a constant
    assert plans["global"].residual


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


def test_the_keyword_net_explores_as_its_grounding(keywords):
    g = ground(keywords)
    high = explore(keywords)
    low = explore_grounded(g)
    assert not high.truncated and not low.truncated
    assert (len(high.markings), len(high.edges)) == (len(low.vectors), len(low.edges))
    assert {g.marking_vector(m) for m in high.markings} == set(low.vectors)


# ---------------------------------------------------------------------------
# Shapes and the code table
# ---------------------------------------------------------------------------

TAGS = {"K", "M", "P", "C", "L", "f", "b", "c", "t"}
# every name the generated source may use: its own locals and parameters,
# the helpers of its namespace, builtins and methods of values it reads
GENERATED = re.compile(r"(make|join|tokens_on|places|names|ranks|found|append|first|take"
                       r"|from_sorted|NOTHING|EvalError|TupleValue|isinstance|len|counts"
                       r"|get|items|sort|key|b|e|n|v|y|taken"
                       r"|(p|n|rk|h|t|x|r|v|ok|took|k|need|g|tk|c|iv|tg|cp|q|w)[0-9]+)")


def shapes(system):
    net, s = system.net, system.structure
    for t in net.transitions:
        plan = net.index.plans[t.name]
        ranks = [carrier_rank(sort, s) for sort in plan.sorts]
        yield t.name, compiled._shape(plan, s, frozenset(plan.names), ranks)


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
    assert {type(check) for level in plan.checks for check in level} == {Guard, tuple}
    shape, _ = compiled._shape(plan, s, frozenset(plan.names),
                               [carrier_rank(sort, s) for sort in plan.sorts])
    assert "def k" in compiled._Source(shape).text
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

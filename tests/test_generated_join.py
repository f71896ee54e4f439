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
Python lets blocks nest still joins.  Last, a transition's occurrence
also runs as code made from the shape of its arcs: the nets here reach
every entry of that shape, and each occurrence is the definition's
(``support.reference_occurrence``), errors included.
"""

import ast
import random
import re

import pytest

from hknet import (Arc, Atom, Elm, EvalError, GuardAtom, Marking, Place, SchematicNet,
                   SetValue, System, TupleValue, Var, bind_structure, carrier_of,
                   enabled_bindings, enumerate_bindings, explore, explore_grounded, ground,
                   instantiate, parse, resolve_net)
from hknet import compiled, nets, terms
from hknet.signature import carrier_rank

from support import (CHECKED_ONLY, SHARED_NEEDS, brute_force_bindings,
                     reference_occurrence, structure_text)


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
FIRING_TAGS = {"F", "v", "t", "a", "e"}
# every name the generated source may use: its own locals and parameters,
# the helpers of its namespace, builtins and methods of values it reads
GENERATED = re.compile(r"(make|join|tokens_on|places|names|ranks|found|append|first|take"
                       r"|held|from_sorted|NOTHING|EvalError|TupleValue|isinstance|len|counts"
                       r"|get|items|sort|key|b|e|n|v|y|taken"
                       r"|(p|n|rk|h|t|x|r|v|ok|took|k|g|tk|c|iv|tg|cp)[0-9]+)")
FIRED = re.compile(r"(make|occurrence|env|places|names|TupleValue|dict|fromkeys|get|v"
                   r"|(p|n|x|a|tk)[0-9]+)")


def shape_of(net, name, s):
    """The shape of the join of ``name`` under ``s``, and the arguments
    of its factory, as the transition's kernel makes them."""
    plan, t = net.index.plans[name], net.transition(name)
    names = frozenset(plan.names)
    closures = compiled._closures(
        t.guard.atoms, (*net.arcs_into(name), *net.arcs_out_of(name)), s, names)
    return compiled._shape(plan, s, names, [carrier_rank(sort, s) for sort in plan.sorts],
                           closures)


def firing_shape_of(net, name, s):
    """The shape of the occurrence of ``name`` under ``s``, and the
    arguments of its factory, as the transition's kernel makes them."""
    names = frozenset(net.index.plans[name].names)
    into, out_of = net.arcs_into(name), net.arcs_out_of(name)
    closures = compiled._closures(net.transition(name).guard.atoms,
                                  (*into, *out_of), s, names)
    return compiled._firing_shape(into, out_of, names, closures)


def all_shapes(system):
    """The join and firing shapes of every transition of ``system``."""
    net, s = system.net, system.structure
    return {shape for t in net.transitions
            for shape, _ in (shape_of(net, t.name, s), firing_shape_of(net, t.name, s))}


def leaves(shape):
    for part in shape:
        if isinstance(part, tuple):
            yield from leaves(part)
        else:
            yield part


def words(text):
    """The names the source ``text`` uses or defines; it holds no string."""
    for node in ast.walk(ast.parse(text)):
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, str))
        word = node.name if isinstance(node, ast.FunctionDef) else (
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None))
        if word is not None:
            yield word


def test_join_source_holds_only_generated_names(keywords, sys0):
    # and the firing sources, of every net the occurrence tests below use
    systems = [(system.net, system.structure) for system in (keywords, sys0)]
    for net, s in systems + [resolved(texts) for texts in (SHARED_NEEDS, CHECKED_ONLY, FIRING)]:
        for t in net.transitions:
            join, firing = shape_of(net, t.name, s)[0], firing_shape_of(net, t.name, s)[0]
            for shape, tags, text, allowed in (
                    (join, TAGS, compiled._Source(join).text, GENERATED),
                    (firing, FIRING_TAGS, compiled._firing_source(firing), FIRED)):
                assert all(type(leaf) in (int, bool) or leaf in tags
                           for leaf in leaves(shape)), t.name
                for word in words(text):
                    assert allowed.fullmatch(word), (t.name, word)


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
    distinct = all_shapes(system)
    assert len(counted_compiles) == len(distinct) == len(compiled._factories)
    firing = {shape for shape in distinct if shape[0] == "F"}
    assert 0 < len(firing) == sum("def occurrence(env):" in text for text in counted_compiles)
    # the same net under a second structure, and a second instantiation
    # under a third one, build kernels of their own and compile nothing,
    # neither joins nor occurrences
    other = fresh_structure(sigma0, 2, 2)
    for t in system.net.transitions:
        enabled_bindings(system.net, system.initial, t, other)
    assert len(other._kernels) == len(system.net.transitions)
    again = instantiate(branch, fresh_structure(sigma0, 2, 1))
    explore(again)
    assert len(again.structure._kernels) == len(again.net.transitions)
    assert len(counted_compiles) == len(distinct)


def test_instantiating_and_exploring_again_keeps_the_table_size(branch, sigma0):
    # the table holds the joins and the occurrences, which explore and
    # ground both fire through
    system = instantiate(branch, fresh_structure(sigma0, 1, 1))
    explore(system)
    size = len(compiled._factories)
    assert all_shapes(system) <= set(compiled._factories)
    for _ in range(200):
        system = instantiate(branch, fresh_structure(sigma0, 1, 1))
        explore(system)
        ground(system)
    assert len(compiled._factories) == size


def test_a_full_code_table_is_cleared_and_joins_stay_right(branch, sigma0, counted_compiles,
                                                           monkeypatch):
    # a table capped at two shapes: the third shape compiled clears it,
    # and the kernels built meanwhile keep the factories they took, for
    # their joins and their occurrences alike
    monkeypatch.setattr(compiled, "_FACTORIES_MAX", 2)
    sizes = []  # the table's size at each compile
    counting = compiled._compile

    def sized(source):
        sizes.append(len(compiled._factories))
        return counting(source)
    monkeypatch.setattr(compiled, "_compile", sized)
    system = instantiate(branch, fresh_structure(sigma0, 1, 1))
    net, s = system.net, system.structure
    for t in net.transitions:
        enabled_bindings(net, system.initial, t, s)
    assert len(sizes) >= len(all_shapes(system)) >= 3
    assert max(sizes) == 2 and any(b < a for a, b in zip(sizes, sizes[1:])), sizes
    graph = explore(system)
    assert len(compiled._factories) <= 2
    occurrences = 0
    for m in graph.markings:
        for t in net.transitions:
            found = enabled_bindings(net, m, t, s)
            assert found == brute_force_bindings(net, m, t, s), (t.name, m)
            for b in found:
                assert ordered(nets.occurrence(net, t.name, b, s)) == \
                    ordered(reference_occurrence(net, t.name, b, s)), (t.name, b)
                occurrences += 1
    assert occurrences


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


# ---------------------------------------------------------------------------
# The generated occurrence
# ---------------------------------------------------------------------------

# A net of its own for what the nets above lack: folded constants, one
# twice on a place, set literals, a tuple with a constant and elm of {}.
# p and q are partial, so that under y = b3 an input term fails before
# an output term does, and under y = b1 only an output term fails; p(y)
# on got comes before w on more, so a binding without w fails at p(b3).
FIRING = ("""
signature firing { sets A, B; consts one: A; fns p: B -> A, q: B -> A; }
""", """
structure firing_s of firing {
  A = {a1, a2}; B = {b1, b2, b3}; one = a1; p = {b1 -> a1, b2 -> a2}; q = {b2 -> a1, b3 -> a2};
}
""", """
module firing_m of firing {
  places { src : B; got : A; more : B; out : A; sets; pairs; nothing; }
  trans { t; }
  arcs {
    src -> t : y;  got -> t : p(y), one;  more -> t : w;
    t -> out : one, q(y), one;  t -> sets : {p(y), one}, {y}, {one};
    t -> pairs : (y, w);  t -> pairs : (y, one);  t -> nothing : elm({});
  }
}
""")


def resolved(texts):
    """The resolved net of a ``(signature, structure, module)`` triple of
    texts and its structure; instantiate would refuse a partial table."""
    sig_text, structure_text_, module_text = texts
    sig = parse(sig_text).body
    net, problems = resolve_net(parse(module_text).body.inner, sig)
    assert problems == []
    return net, bind_structure(parse(structure_text_).body, sig)


def with_arcs_no_parser_makes(net):
    """``net`` with what only a hand-built net can hold: a second arc
    from a place its transition already reads, and an arc with no term,
    to a place of its own."""
    t = net.transitions[0].name
    first = net.arcs_into(t)[0]
    arcs = (*net.arcs, Arc(first.source, t, first.inscription[:1]), Arc(t, "blank", ()))
    return SchematicNet((*net.places, Place("blank")), net.transitions, arcs)


def ordered(tokens):
    """Consumed and produced tokens as lists, so that insertion order
    counts when compared."""
    return [[(place, list(counts.items())) for place, counts in side.items()]
            for side in tokens]


def fired(step):
    """The ordered tokens ``step()`` gives, or the error it raises: a
    KeyError's variable, an EvalError's message and span."""
    try:
        return ("ok", ordered(step()))
    except KeyError as exc:
        return ("KeyError", exc.args[0])
    except EvalError as exc:
        return ("EvalError", exc.message, exc.span)


def expected(net, name, b, s):
    """What the occurrence of ``name`` under ``b`` gives by the
    definition, where an unbound variable that the kernel binds is the
    KeyError of a dict that leaves it out."""
    want = fired(lambda: reference_occurrence(net, name, b, s))
    prefix = "unbound variable "
    if want[0] == "EvalError" and want[1].startswith(prefix):
        variable = ast.literal_eval(want[1][len(prefix):])
        if variable in net.index.plans[name].names:
            return ("KeyError", variable)
    return want


def test_every_firing_entry_occurs_and_fires_as_the_definition(sys_small, keywords, mixed):
    # under every total binding, and each with one variable left out, on
    # the branch, the keyword and mixed nets, SHARED_NEEDS, CHECKED_ONLY,
    # FIRING and FIRING with arcs no parser makes: values, order and the
    # first error alike
    entries, widths, empty, spans = set(), set(), False, set()
    systems = [(system.net, system.structure) for system in (sys_small, keywords, mixed)]
    systems += [resolved(texts) for texts in (SHARED_NEEDS, CHECKED_ONLY, FIRING)]
    net, s = systems[-1]
    systems.append((with_arcs_no_parser_makes(net), s))
    for net, s in systems:
        for t in net.transitions:
            (_, *sides), _ = firing_shape_of(net, t.name, s)
            arcs = (net.arcs_into(t.name), net.arcs_out_of(t.name))
            for side, side_arcs in zip(sides, arcs):
                terms_on = {}
                for (slot, kinds), arc in zip(side, side_arcs):
                    entries.update((kind[0], type(term).__name__)
                                   for kind, term in zip(kinds, arc.inscription))
                    terms_on[slot] = terms_on.get(slot, 0) + len(kinds)
                widths.update(min(n, 2) for n in terms_on.values())
            occurrence = nets._kernel(net, t.name, s).occurrence
            for b in enumerate_bindings(t.variables, s):
                pairs = b.pairs()
                for env in [dict(pairs)] + [dict(pairs[:i] + pairs[i + 1:])
                                            for i in range(len(pairs))]:
                    got = fired(lambda: occurrence(env))
                    assert got == expected(net, t.name, terms.Binding(env), s), (t.name, env)
                    if got[0] == "ok":
                        empty = empty or any(not counts for side in got[1]
                                             for _, counts in side)
                    elif got[0] == "EvalError":
                        spans.add(got[2])
    # a constant or a set literal of constants is folded by its closure
    assert entries == {("v", "Var"), ("t", "TupleTerm"), ("a", "ConstRef"), ("a", "App"),
                       ("a", "SetTerm"), ("a", "TupleTerm"), ("e", "Elm")}
    assert widths == {0, 1, 2} and empty
    # FIRING fails at both partial applications, and SHARED_NEEDS at k(z)
    assert len(spans) >= 3

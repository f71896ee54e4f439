"""The markings of an explored graph against dict-backed copies.

Each marking that ``explore`` returns must behave as
``Marking(dict(m.items()))``, the marking built from its places: equal
both ways, with the same hash and set membership, the same ``items``,
``places``, ``total``, ``rendered_entries`` and repr, a pickle round
trip, and the same results of ``updated`` and ``System.fire``.  Each
check runs on the markings of a freshly explored graph, so no other
check has read them before.  The systems are s0_small in full, s0
capped at 120 nodes, the keyword net of ``test_generated_join`` and
``support.CHECKED_ONLY``, the last two also with a place outside the net
on their initial marking.  Predicate hits must be those of the predicate
on the dict-backed copies.
"""

import pickle
from dataclasses import replace

import pytest

from hknet import Atom, Marking, Multiset, explore, parse_predicate

from support import CHECKED_ONLY, system_of
from test_generated_join import MODULE, SIGNATURE, STRUCTURE

ASIDE = "aside"  # a place no net here has


def dict_backed(m: Marking) -> Marking:
    return Marking(dict(m.items()))


def with_aside(system):
    """``system`` with one more token on its initial marking, on a place
    that its net lacks and no firing touches."""
    places = dict(system.initial.items())
    places[ASIDE] = Multiset([Atom("x"), Atom("x")])
    return replace(system, initial=Marking(places))


@pytest.fixture(scope="module")
def systems(sys_small, sys0):
    """name -> (system, max_nodes)."""
    keywords = system_of((SIGNATURE, STRUCTURE, MODULE))
    checked = system_of(CHECKED_ONLY)
    return {"s0_small": (sys_small, 10000), "s0_n120": (sys0, 120),
            "keywords": (keywords, 10000), "keywords_aside": (with_aside(keywords), 10000),
            "checked": (checked, 10000), "checked_aside": (with_aside(checked), 10000)}


SYSTEMS = ("s0_small", "s0_n120", "keywords", "keywords_aside", "checked", "checked_aside")


def fresh_graph(systems, name):
    system, max_nodes = systems[name]
    return system, explore(system, max_nodes=max_nodes)


def every_place(system) -> list[str]:
    return sorted({p.name for p in system.net.places} | {ASIDE, "no_such_place"})


@pytest.mark.parametrize("name", SYSTEMS)
def test_explored_markings_read_each_place_as_their_dict_backed_copies(systems, name):
    system, graph = fresh_graph(systems, name)
    places = every_place(system)
    refs = [dict_backed(m) for m in fresh_graph(systems, name)[1].markings]
    empty_slots = 0
    for m, ref in zip(graph.markings, refs):
        for place in places:
            assert m.get(place) == ref.get(place), (place, ref)
            if place in system.net.index.slot_of and not m.get(place):
                assert m.get(place) == Multiset()
                empty_slots += 1
    assert empty_slots  # a slot holding the empty multiset was read
    assert graph.truncated == (name == "s0_n120")
    if name.endswith("_aside"):
        assert all(m.get(ASIDE).total() == 2 for m in graph.markings)


@pytest.mark.parametrize("name", SYSTEMS)
@pytest.mark.parametrize("check", ["eq", "ne", "hash", "set", "items", "places", "total",
                                   "rendered_entries", "repr", "pickle"])
def test_explored_markings_behave_as_their_dict_backed_copies(systems, name, check):
    _, graph = fresh_graph(systems, name)
    refs = [dict_backed(m) for m in fresh_graph(systems, name)[1].markings]
    other = Marking({"no_such_place": [Atom("y")]})
    for m, ref in zip(graph.markings, refs):
        if check == "eq":
            assert m == ref and ref == m and m == m
        elif check == "ne":
            assert not (m != ref) and not (ref != m) and m != other and other != m
        elif check == "hash":
            assert hash(m) == hash(ref)
        elif check == "set":
            assert m in {ref} and ref in {m} and len({m, ref}) == 1
        elif check == "items":
            assert m.items() == ref.items()
        elif check == "places":
            assert m.places() == ref.places()
        elif check == "total":
            assert m.total() == ref.total()
        elif check == "rendered_entries":
            assert m.rendered_entries() == ref.rendered_entries()
        elif check == "repr":
            assert repr(m) == repr(ref)
        else:
            back = pickle.loads(pickle.dumps(m))
            assert type(back) is Marking
            assert back == ref and hash(back) == hash(ref) and back.items() == ref.items()
            assert repr(back) == repr(ref)


@pytest.mark.parametrize("name", SYSTEMS)
def test_explored_markings_fire_as_their_dict_backed_copies(systems, name):
    system, graph = fresh_graph(systems, name)
    refs = [dict_backed(m) for m in fresh_graph(systems, name)[1].markings]
    for source, transition, binding, target in graph.edges:
        got = system.fire(graph.markings[source], transition, binding)
        assert got == system.fire(refs[source], transition, binding) == refs[target]
        assert got.items() == refs[target].items()


@pytest.mark.parametrize("name", SYSTEMS)
def test_explored_markings_update_as_their_dict_backed_copies(systems, name):
    """One token moved from the first marked place to a slot that may be
    empty, to a place outside the net, and nothing changed at all."""
    system, graph = fresh_graph(systems, name)
    target = system.net.index.slots[-1]
    for m, ref in zip(graph.markings, map(dict_backed, fresh_graph(systems, name)[1].markings)):
        place, tokens = ref.items()[0]
        value = tokens.distinct()[0]
        for remove, add in (({place: {value: 1}}, {target: {value: 1}}),
                            ({place: {value: tokens.count(value)}}, {ASIDE: {value: 2}}),
                            ({}, {})):
            got = m.updated(remove, add)
            assert got == ref.updated(remove, add)
            assert got.items() == ref.updated(remove, add).items()
        assert m == ref


PREDICATES = (
    "contains(eating, (Alice, t1))",
    "count(free_tables) = 0 and count(orders) >= 1",
    "tokens(cooked, rice) >= 1 or not contains(offered_tables, t1)",
    "count(waiting) >= 2",
    "not (count(free_tables) >= 1 and contains(eating, (Alice, t1)))",
)


@pytest.mark.parametrize("name", ["s0_small", "s0_n120"])
@pytest.mark.parametrize("text", PREDICATES)
def test_predicate_hits_are_those_of_the_dict_backed_copies(systems, name, text):
    system, max_nodes = systems[name]
    predicate = parse_predicate(text, places=system.net.index.places)
    graph = explore(system, max_nodes=max_nodes, predicate=predicate)
    refs = [dict_backed(m) for m in explore(system, max_nodes=max_nodes).markings]
    assert graph.predicate_hits == tuple(i for i, m in enumerate(refs) if predicate(m))


def test_the_predicates_both_hit_and_miss(systems):
    system, _ = systems["s0_small"]
    graph = explore(system)
    for text in PREDICATES:
        hits = [parse_predicate(text)(m) for m in graph.markings]
        assert any(hits) and not all(hits), text


def numbered(graph) -> tuple[list, set[int]]:
    """The multisets by id that ``graph``'s markings share, and the ids
    their states hold."""
    tables = {id(m._table): m._table for m in graph.markings}
    assert len(tables) == 1
    return next(iter(tables.values())).multisets, {i for m in graph.markings for i in m._state}


def test_a_node_capped_graph_keeps_only_the_multisets_its_states_hold(sys0):
    graph = explore(sys0, max_nodes=120)
    multisets, held = numbered(graph)
    assert len(held) < len(multisets)  # the search numbered more for dropped states
    assert {i for i, ms in enumerate(multisets) if ms is not None} == held


@pytest.mark.parametrize("caps", [{}, {"max_edges": 150}])
def test_a_search_that_drops_no_state_holds_every_multiset_it_numbered(sys_small, caps):
    graph = explore(sys_small, **caps)
    assert graph.truncated == bool(caps)
    multisets, held = numbered(graph)
    assert held == set(range(len(multisets)))

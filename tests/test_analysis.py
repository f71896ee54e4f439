import hashlib
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from hknet import (Arc, Atom, EvalError, Ident, Marking, ModelError, Module,
                   Place, SchematicNet, SetTerm, SetValue, Signature,
                   SortError, SortName, Transition, TupleValue, bind_structure,
                   explore, explore_grounded, ground, in_span, instantiate,
                   make_structure, nullspace, parse, parse_predicate,
                   place_invariants, transition_invariants)
from hknet import analysis, nets

from support import rational_in_span, rational_nullspace, structure_text


def test_ground_expands_free_tables_per_carrier(sys0):
    g = ground(sys0)
    free = [pv for pv in g.places if pv[0] == "free_tables"]
    assert len(free) == len(sys0.structure.carrier("Tables")) == 4


def test_ground_without_transitions_has_zero_columns():
    sig = Signature("still", sets=("A",), constants=(("k", SortName("A")),))
    s = make_structure("s", sig, {"A": (Atom("a"),)}, constants={"k": Atom("a")})
    module = Module("m", "still", SchematicNet(
        places=(Place("p", SortName("A"), (Ident("k"),)),)))
    g = ground(instantiate(module, s))
    assert len(g.transitions) == 0
    assert g.incidence == ((),)
    assert g.initial == (1,)


def test_ground_rejects_an_unsorted_place():
    sig = Signature("bare", sets=("A",), constants=(("k", SortName("A")),))
    s = make_structure("s", sig, {"A": (Atom("a"),)}, constants={"k": Atom("a")})
    module = Module("m", "bare", SchematicNet(
        places=(Place("p", SortName("A"), (Ident("k"),)), Place("q", None, (Ident("k"),)))))
    with pytest.raises(ModelError, match="^place 'q' has no sort; grounding needs every "
                                         "place sorted$"):
        ground(instantiate(module, s))


def singleton_system():
    """p -> step -> q, where step puts {x} on q of sort S = {{a}} <= pow(A)."""
    a_sort = SortName("A")
    sig = Signature("sub", sets=("A",), subsets=(("S", "A"),), constants=(("k", a_sort),))
    s = make_structure("s", sig, {"A": (Atom("a"), Atom("b")), "S": (SetValue([Atom("a")]),)},
                       constants={"k": Atom("a")})
    net = SchematicNet(
        places=(Place("p", a_sort, (Ident("k"),)), Place("q", SortName("S"))),
        transitions=(Transition("step"),),
        arcs=(Arc("p", "step", (Ident("x"),)), Arc("step", "q", (SetTerm((Ident("x"),)),))),
    )
    return instantiate(Module("m", "sub", net), s)


def test_ground_drops_bindings_with_tokens_outside_a_carrier():
    # x = b would put {b} on q, outside the carrier of S: no column
    g = ground(singleton_system())
    assert [b["x"] for _, b in g.transitions] == [Atom("a")]


# sha256(repr((places, transitions, pre, post, incidence, initial)))[:32]
# of the grounded net, recorded while ground built the dense matrices
GROUNDED_DIGESTS = {
    "s0_tiny": "da1f7a901681b4accf857a66574c93b4",  # 14 places, 12 transitions
    "s0_small": "d1c92a5be839a8fbd9f7e8bb733ffdfb",  # 52, 100
    "s0": "8a0926c08f0e65760127f45c3989e40d",  # 166, 631
    "s_2_2": "09d6e86ac923397851de5c287b58953b",  # 52, 100
}


def test_grounded_nets_are_unchanged(sys_tiny, sys_small, sys0, sigma0, branch):
    structure = bind_structure(parse(structure_text(2, 2), "s_2_2.hks").body, sigma0)
    systems = {"s0_tiny": sys_tiny, "s0_small": sys_small, "s0": sys0,
               "s_2_2": instantiate(branch, structure)}
    for name, system in systems.items():
        g = ground(system)
        text = repr((g.places, g.transitions, g.pre, g.post, g.incidence, g.initial))
        assert hashlib.sha256(text.encode()).hexdigest()[:32] == GROUNDED_DIGESTS[name], name


def test_grounded_exploration_counts(sys_tiny, sys_small):
    for system, counts in ((sys_tiny, (9, 10, 0)), (sys_small, (956, 2448, 0))):
        graph = explore_grounded(ground(system))
        assert not graph.truncated
        assert (len(graph.vectors), len(graph.edges), len(graph.deadlocks)) == counts


def failing_kernels(monkeypatch, closure, error):
    """Make ``closure``, ``"holds"`` or ``"occurrence"``, of each kernel
    that ground fetches raise ``error``."""
    def failing(env):
        raise error

    def kernel(net, name, s):
        real = nets._kernel(net, name, s)
        closures = {"holds": real.holds, "occurrence": real.occurrence, closure: failing}
        return SimpleNamespace(**closures)
    monkeypatch.setattr(analysis, "_kernel", kernel)


def test_ground_drops_bindings_whose_evaluation_fails(monkeypatch):
    assert len(ground(singleton_system()).transitions) == 1
    for closure in ("holds", "occurrence"):
        with monkeypatch.context() as patched:
            failing_kernels(patched, closure, EvalError("undefined"))
            assert ground(singleton_system()).transitions == (), closure


@pytest.mark.parametrize("error", [KeyError("x"), SortError("ill-sorted")])
def test_ground_propagates_errors_other_than_evaluation(monkeypatch, error):
    for closure in ("holds", "occurrence"):
        with monkeypatch.context() as patched:
            failing_kernels(patched, closure, error)
            with pytest.raises(type(error)):
                ground(singleton_system())


def test_grounded_transitions_respect_guards(sys_tiny):
    g = ground(sys_tiny)
    hand_overs = [(n, b) for n, b in g.transitions if n == "hand_over"]
    # oracle: Y is forced to equal X by g(Y) = X, so one per (c, t, X)
    assert len(hand_overs) == 1 * 1 * 2
    for _, b in hand_overs:
        assert b["Y"] == b["X"]


def test_grounded_initial_vector_matches_marking(sys0):
    g = ground(sys0)
    assert g.initial == g.marking_vector(sys0.initial)
    assert sum(g.initial) == sys0.initial.total()


def test_nullspace_of_zero_matrix_is_standard_basis():
    basis = nullspace([[0, 0, 0], [0, 0, 0]], width=3)
    assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_nullspace_known_kernel():
    # x + y - z = 0 and y - z = 0  =>  kernel spanned by (0, 1, 1)
    basis = nullspace([[1, 1, -1], [0, 1, -1]], width=3)
    assert basis == [(0, 1, 1)]


def test_nullspace_vectors_are_primitive_integers():
    basis = nullspace([[2, -4]], width=2)
    assert basis == [(2, 1)]


SMALL = st.integers(-3, 3)
# mostly small entries, some large ones so that rows need gcd normalisation
ENTRY = st.one_of(SMALL, SMALL, SMALL, st.integers(-10**6, 10**6))


@st.composite
def integer_matrices(draw):
    """Up to 8 rows x 10 columns, with zero, duplicate and scaled rows."""
    width = draw(st.integers(0, 10))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "scaled"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append([0] * width)
        elif kind == "fresh":
            rows.append(draw(st.lists(ENTRY, min_size=width, max_size=width)))
        else:
            earlier = rows[draw(st.integers(0, len(rows) - 1))]
            factor = 1 if kind == "copy" else draw(st.integers(-10**6, 10**6))
            rows.append([factor * v for v in earlier])
    return rows, width


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_nullspace_matches_rational_oracle(case):
    matrix, width = case
    assert nullspace(matrix, width) == rational_nullspace(matrix, width)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=integer_matrices(), data=st.data())
def test_elimination_ignores_the_order_of_rows(case, data):
    # the reduced row-echelon form is unique for a row space, so reordering
    # the rows may change the work done but never a basis or a verdict
    matrix, width = case
    shuffled = data.draw(st.permutations(matrix))
    assert nullspace(shuffled, width) == nullspace(matrix, width)
    vector = data.draw(st.lists(SMALL, min_size=width, max_size=width))
    for candidate in (vector, [sum(row[i] for row in matrix) for i in range(width)]):
        assert in_span(shuffled, candidate) == in_span(matrix, candidate)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_in_span_matches_rational_oracle(data):
    width = data.draw(st.integers(0, 10))
    basis = data.draw(st.lists(st.lists(SMALL, min_size=width, max_size=width),
                               max_size=5))
    coefs = data.draw(st.lists(st.integers(-5, 5), min_size=len(basis),
                               max_size=len(basis)))
    combination = [sum(c * b[i] for c, b in zip(coefs, basis)) for i in range(width)]
    assert in_span(basis, combination)
    assert rational_in_span(basis, combination)
    if width:
        combination[data.draw(st.integers(0, width - 1))] += data.draw(SMALL)
    assert in_span(basis, combination) == rational_in_span(basis, combination)


def test_elimination_of_empty_bases_and_zero_width():
    assert nullspace([], 0) == nullspace([[], []], 0) == []
    assert nullspace([], 2) == rational_nullspace([], 2) == [(1, 0), (0, 1)]
    assert in_span([], [])
    assert in_span([], [0, 0])
    assert not in_span([], [0, 1])
    assert in_span([[], []], [])
    for vector in ([], [0, 0], [0, 1]):
        assert in_span([], vector) == rational_in_span([], vector)


def test_elimination_rejects_vectors_of_another_length():
    with pytest.raises(ValueError, match=r"^row 0 has 3 entries, not the width 2$"):
        nullspace([[1, 1, 1]], width=2)
    with pytest.raises(ValueError, match=r"^row 1 has 1 entries, not the width 2$"):
        nullspace([[1, 0], [1]], width=2)
    for vector, n in (((1, 0), 2), ((1, 0, 0, 5), 4)):
        with pytest.raises(ValueError, match=rf"^basis vector 0 has 3 entries, the vector {n}$"):
            in_span([(1, 0, 0)], vector)
    with pytest.raises(ValueError, match=r"^basis vector 1 has 2 entries, the vector 3$"):
        in_span([(1, 0, 0), (0, 1)], (1, 0, 0))
    assert in_span([], (0, 0, 0))


def test_invariants_of_corpus_s0(sys0):
    # digest of the bases the former rational elimination computed
    g = ground(sys0)
    places, transitions = place_invariants(g), transition_invariants(g)
    assert (len(places), len(transitions)) == (47, 512)
    digest = hashlib.sha256(repr((places, transitions)).encode()).hexdigest()
    assert digest[:32] == "12b1a0a9063204e9f1a2cf4c782b12e4"


def test_place_invariants_annihilate_incidence(sys_tiny):
    g = ground(sys_tiny)
    basis = place_invariants(g)
    assert basis
    c = g.incidence
    for vec in basis:
        for t in range(len(g.transitions)):
            assert sum(vec[p] * c[p][t] for p in range(len(g.places))) == 0


def test_per_table_conservation_along_random_walks(sys_small):
    g = ground(sys_small)
    # the table-conservation vector: each table is in exactly one of its
    # life-cycle places
    t1 = Atom("t1")
    vec = []
    for place, value in g.places:
        held = (place in ("free_tables", "offered_tables") and value == t1) or (
            place in ("clients_ready_to_order", "waiting", "eating")
            and isinstance(value, TupleValue) and value.items[1] == t1)
        vec.append(1 if held else 0)
    m0 = g.initial
    weight = sum(a * b for a, b in zip(vec, m0))
    assert weight == 1
    # oracle: 100 random firing sequences never change the weight
    rng = random.Random(99)
    for _ in range(20):
        m = sys_small.initial
        for _ in range(5):
            succ = sys_small.successors(m)
            if not succ:
                break
            _, _, m = succ[rng.randrange(len(succ))]
            current = sum(a * b for a, b in zip(vec, g.marking_vector(m)))
            assert current == weight
    assert in_span(place_invariants(g), vec)


def ground_line():
    """p -> step -> q over a one-element carrier: C = (-1, 1)^T."""
    sig = Signature("line", sets=("A",), constants=(("k", SortName("A")),))
    s = make_structure("s", sig, {"A": (Atom("a"),)}, constants={"k": Atom("a")})
    net = SchematicNet(
        places=(Place("p", SortName("A"), (Ident("k"),)), Place("q", SortName("A"))),
        transitions=(Transition("step"),),
        arcs=(Arc("p", "step", (Ident("x"),)), Arc("step", "q", (Ident("x"),))),
    )
    return ground(instantiate(Module("m", "line", net), s))


def test_transition_invariants_of_acyclic_net_are_trivial():
    assert transition_invariants(ground_line()) == []


def test_invariant_self_check_rejects_a_wrong_basis(monkeypatch):
    # a first unit vector is in neither null-space of C = (-1, 1)^T
    g = ground_line()
    monkeypatch.setattr(analysis, "_basis", lambda pivots, width: [{0: 1}])
    with pytest.raises(ModelError, match="place invariant 0 "):
        place_invariants(g)
    with pytest.raises(ModelError, match="transition invariant 0 "):
        transition_invariants(g)


def test_transition_invariants_of_a_cycle():
    # p -> forth -> q -> back -> p reproduces the marking: basis (1, 1)
    sig = Signature("ring", sets=("A",), constants=(("k", SortName("A")),))
    s = make_structure("s", sig, {"A": (Atom("a"),)}, constants={"k": Atom("a")})
    net = SchematicNet(
        places=(Place("p", SortName("A"), (Ident("k"),)), Place("q", SortName("A"))),
        transitions=(Transition("back"), Transition("forth")),
        arcs=(Arc("p", "forth", (Ident("x"),)), Arc("forth", "q", (Ident("x"),)),
              Arc("q", "back", (Ident("x"),)), Arc("back", "p", (Ident("x"),))),
    )
    g = ground(instantiate(Module("m", "ring", net), s))
    assert transition_invariants(g) == [(1, 1)]
    c = g.incidence
    for p in range(len(g.places)):
        assert sum(c[p][t] for t in range(len(g.transitions))) == 0


def test_explore_truncates_at_caps(sys0):
    graph = explore(sys0, max_nodes=1, max_edges=0)
    assert len(graph.markings) == 1
    assert graph.edges == ()
    assert graph.truncated


def test_a_node_cap_below_one_is_rejected(sys_tiny):
    # the initial marking is always kept, so no search fits under 1 node
    for cap in (0, -1):
        with pytest.raises(ValueError, match=f"max_nodes must be at least 1.*: {cap}$"):
            explore(sys_tiny, max_nodes=cap)
        with pytest.raises(ValueError, match=f"max_nodes must be at least 1.*: {cap}$"):
            explore_grounded(ground(sys_tiny), max_nodes=cap)
    assert len(explore(sys_tiny, max_nodes=1).markings) == 1
    assert len(explore_grounded(ground(sys_tiny), max_nodes=1).vectors) == 1


def test_a_truncated_search_names_the_cap_it_hit(sys0, sigma0, branch):
    assert explore(sys0, max_nodes=120, max_edges=1_000_000).truncated_by == "nodes"
    structure = bind_structure(parse(structure_text(2, 1), "s_2_1.hks").body, sigma0)
    s_2_1 = instantiate(branch, structure, name="branch_s_2_1")
    assert explore(s_2_1, max_nodes=100_000, max_edges=400).truncated_by == "edges"
    full = explore(s_2_1)
    assert full.truncated_by == "" and not full.truncated
    assert explore_grounded(ground(s_2_1), max_edges=400).truncated_by == "edges"
    assert explore_grounded(ground(s_2_1), max_nodes=10).truncated_by == "nodes"


def test_explore_edge_count_is_successor_sum(sys_tiny):
    graph = explore(sys_tiny, max_nodes=1000, max_edges=10000)
    assert not graph.truncated
    total = sum(len(sys_tiny.successors(m)) for m in graph.markings)
    assert len(graph.edges) == total


def test_tiny_instance_runs_forever_without_deadlock(sys_tiny):
    graph = explore(sys_tiny, max_nodes=1000, max_edges=10000)
    assert not graph.truncated
    assert graph.deadlocks == ()
    assert graph.markings[0] == sys_tiny.initial


def test_explore_is_deterministic(sys_tiny):
    g1 = explore(sys_tiny, max_nodes=1000, max_edges=10000)
    g2 = explore(sys_tiny, max_nodes=1000, max_edges=10000)
    assert g1 == g2


def test_explore_reports_predicate_hits(sys_tiny, sys_small):
    eating = lambda m: m.get("eating").total() > 0
    graph = explore(sys_tiny, max_nodes=1000, max_edges=10000, predicate=eating)
    assert graph.predicate_hits
    # exactly the kept markings it holds on, in node order, also under a cap
    assert graph.predicate_hits == tuple(
        i for i, m in enumerate(graph.markings) if eating(m))
    full = explore(sys_small, predicate=eating)
    capped = explore(sys_small, max_nodes=300, predicate=eating)
    assert capped.truncated_by == "nodes"
    assert capped.markings == full.markings[:300]
    assert capped.predicate_hits == tuple(
        i for i, m in enumerate(capped.markings) if eating(m))
    assert 0 < len(capped.predicate_hits) < len(full.predicate_hits)


def test_grounded_exploration_matches_high_level(sys_tiny):
    g = ground(sys_tiny)
    hl = explore(sys_tiny, max_nodes=10000, max_edges=100000)
    gr = explore_grounded(g, max_nodes=10000, max_edges=100000)
    assert len(hl.markings) == len(gr.vectors)
    assert len(hl.edges) == len(gr.edges)
    translated = {g.marking_vector(m) for m in hl.markings}
    assert translated == set(gr.vectors)


def test_invariants_hold_on_every_reachable_marking(sys_tiny):
    g = ground(sys_tiny)
    basis = place_invariants(g)
    graph = explore(sys_tiny, max_nodes=1000, max_edges=10000)
    for vec in basis:
        weights = {sum(a * b for a, b in zip(vec, g.marking_vector(m)))
                   for m in graph.markings}
        assert len(weights) == 1


# sha256(repr(graph))[:32] of explore (with the predicate below) and of
# explore_grounded, recorded before the two shared one search loop;
# the comments give nodes, edges, truncated, deadlocks and hits
GRAPH_DIGESTS = {
    ("tiny", 10000, 100000): ("8838a577e3d65c658b7b9427e8a5ba50",
                              "da9e356ef4c1d77bb3dd3a0b854179c8"),  # 9 10 no 0 1
    ("tiny", 5, 100): ("2bebfc98f44aabda6bec92043077847c",
                       "899865c2b0395d766053d7ecdbf0dde9"),  # 5 4 yes 0 0
    ("tiny", 100, 4): ("d88bf9a1b70182d6b80d206615a9ee8a",
                       "c6765b62a4e3788ae0b6ec9e5831922d"),  # 9 4 yes 0 1
    ("small", 10000, 100000): ("041fd657fb53ed679ea4dd04a87c8ee5",
                               "f6f3cdd88b184bc1641d8c067d09aa59"),  # 956 2448 no 0 32
    ("small", 40, 1000): ("cbfb260170146de67c4184407bcd2242",
                          "00bb9f489aba4da77c9fb03cc3629948"),  # 40 52 yes 0 0
    ("small", 1000, 30): ("363062d8d249745c1d3a439f08b70588",
                          "94060e59e9f73915fa40f2d5d010219f"),  # 956 30 yes 0 32
    ("no_menu", 10000, 100000): ("fe6d8a14a116f7dfd77f4db18439868e",
                                 "55ec3b7a59b5ecc71e073e3ce550bafd"),  # 16 24 no 4 0
    ("no_menu", 6, 100): ("3390e359c367c1cbcd7e89d09f025686",
                          "b185581afef4e99c049d7977a82c1f5b"),  # 6 6 yes 0 0
}


def test_explored_graphs_are_unchanged(sys_tiny, sys_small):
    def digest(graph) -> str:
        return hashlib.sha256(repr(graph).encode("utf-8")).hexdigest()[:32]

    # without a menu every client who enters waits forever: deadlocks
    no_menu = replace(sys_small, initial=Marking(
        {"free_tables": sys_small.initial.get("free_tables")}))
    systems = {"tiny": sys_tiny, "small": sys_small, "no_menu": no_menu}
    grounded = {name: ground(system) for name, system in systems.items()}
    predicate = parse_predicate("contains(eating, (Alice, t1))")
    for (name, max_nodes, max_edges), expected in GRAPH_DIGESTS.items():
        graph = explore(systems[name], max_nodes, max_edges, predicate)
        vectors = explore_grounded(grounded[name], max_nodes, max_edges)
        assert (digest(graph), digest(vectors)) == expected, (name, max_nodes, max_edges)

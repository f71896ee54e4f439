"""Canonical labelling against the exhaustive search it replaces.

``golden/canonical_forms.txt`` holds the printed canonical forms of the
corpus modules, the composed branch and ``a0``, and digests of those of
runs simulated on two synthetic structures; regenerate it (only on
purpose) with
``PYTHONPATH=src python tests/test_canonical.py > tests/golden/canonical_forms.txt``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from hknet import (Arc, Guard, Ident, Module, Place, SchematicNet, SortName, Transition,
                   bind_structure, canonicalize, compose, compose_all, instantiate,
                   parse, print_module, random_policy, rename_elements, simulate)
from hknet import modules

from conftest import load
from support import (compatible_triple, digest, identical_copies, reference_leaves,
                     random_relabeling, reference_canonicalize,
                     _canonical_search as reference_search,
                     structure_text, _random_module_doc, _random_run_doc)

GOLDEN = Path(__file__).resolve().parent / "golden" / "canonical_forms.txt"

# runs simulated with policy seed 0, as the runcheck benchmark does
SIMULATED = (((1, 2), 100), ((2, 2), 250))

# the most leaves the reference search may visit on a property input
LEAF_LIMIT = 200


def golden_modules():
    """(name, module) pairs the golden pins."""
    sigma0 = load("sigma0.hksig").body
    parts = [load(f).body for f in ("entry.hk", "guest_area.hk", "kitchen.hk")]
    branch = compose_all(parts)
    named = [("entry", parts[0]), ("guest_area", parts[1]), ("kitchen", parts[2]),
             ("branch", branch), ("a0", load("a0.hkrun").body)]
    for (n, k), steps in SIMULATED:
        text = structure_text(n, k)
        structure = bind_structure(parse(text, f"s_{n}_{k}.hks").body, sigma0)
        system = instantiate(branch, structure, name=f"branch_s_{n}_{k}")
        named.append((f"s_{n}_{k}/ev{steps}",
                      simulate(system, random_policy(seed=0, steps=steps))))
    return named


def golden_lines(canon) -> list[str]:
    lines = []
    for name, module in golden_modules():
        text = print_module(canon(module))
        if "/" in name:
            lines.append(f"## {name} {digest(text)}")
        else:
            lines.append(f"## {name}")
            lines.extend(text.splitlines())
    return lines


def test_canonical_forms_are_unchanged():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines(canonicalize) == golden


def test_reference_gives_the_golden_forms():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert golden_lines(reference_canonicalize) == golden


@st.composite
def module_inputs(draw):
    """A random module or run, maybe relabelled, maybe as 2-4 copies."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["triple", "composed", "document", "run"]))
    if kind == "triple":
        m = compatible_triple(rng)[0]
    elif kind == "composed":
        a, b, c = compatible_triple(rng)
        m = compose(compose(a, b), c)
    elif kind == "document":
        m = _random_module_doc(rng)
    else:
        m = _random_run_doc(rng)
    if draw(st.booleans()):
        m = random_relabeling(m, rng)
    copies = draw(st.integers(1, 4))
    while copies > 1 and reference_leaves(identical_copies(m, copies), LEAF_LIMIT) > LEAF_LIMIT:
        copies -= 1
    m = identical_copies(m, copies)
    assume(reference_leaves(m, LEAF_LIMIT) <= LEAF_LIMIT)
    return m


@settings(max_examples=300, deadline=None)
@given(module_inputs())
def test_canonicalize_equals_the_reference(m):
    assert canonicalize(m) == reference_canonicalize(m)


@settings(max_examples=100, deadline=None)
@given(module_inputs(), st.integers(0, 2**32 - 1))
def test_relabelled_modules_share_the_reference_form(m, seed):
    relabelled = random_relabeling(m, random.Random(seed))
    assert canonicalize(relabelled) == reference_canonicalize(m)


# ---------------------------------------------------------------------------
# Automorphism pruning, counted in leaves rather than timed
# ---------------------------------------------------------------------------

def unconnected_places(k: int) -> Module:
    """k interchangeable places: their automorphism group is S_k."""
    return Module("m", "", SchematicNet(
        places=tuple(Place(f"p{i:02d}", SortName("Tables")) for i in range(k))))


def kitchen_copies(kitchen, count: int = 4) -> Module:
    """``count`` disjoint, renamed copies of kitchen's inner net, no interface."""
    return identical_copies(Module("k", kitchen.sig, kitchen.inner), count)


def count_leaves(monkeypatch, m: Module) -> int:
    calls = 0
    certificate = modules._certificate

    def counting(*args):
        nonlocal calls
        calls += 1
        return certificate(*args)

    monkeypatch.setattr(modules, "_certificate", counting)
    canonicalize(m)
    monkeypatch.setattr(modules, "_certificate", certificate)
    return calls


@pytest.mark.parametrize("k", [8, 64])
def test_identical_places_take_a_linear_number_of_leaves(monkeypatch, k):
    assert count_leaves(monkeypatch, unconnected_places(k)) <= 2 * k


def test_copies_of_a_net_take_a_linear_number_of_leaves(monkeypatch, kitchen):
    copies = kitchen_copies(kitchen)
    assert count_leaves(monkeypatch, copies) <= 2 * 4
    assert canonicalize(copies) == reference_canonicalize(copies)


def test_a_discrete_colouring_builds_no_certificate(monkeypatch, branch, a0):
    assert count_leaves(monkeypatch, branch) == 0
    assert count_leaves(monkeypatch, a0) == 0


def test_pruned_search_keeps_the_reference_form_on_ties():
    m = unconnected_places(5)
    assert canonicalize(m) == reference_canonicalize(m)


def place_cycles(*sizes: int) -> Module:
    """Disjoint place/transition cycles, one of ``size`` places each, every
    arc inscribed ``x``: refinement cannot tell any two places apart."""
    places, transitions, arcs = [], [], []
    for c, size in enumerate(sizes):
        for i in range(size):
            place, transition = f"p{c}_{i}", f"t{c}_{i}"
            places.append(Place(place))
            transitions.append(Transition(transition))
            arcs += [Arc(place, transition, (Ident("x"),)),
                     Arc(transition, f"p{c}_{(i + 1) % size}", (Ident("x"),))]
    return Module("m", "", SchematicNet(tuple(places), tuple(transitions), tuple(arcs)))


def test_a_later_leaf_with_a_lesser_certificate_becomes_the_form(monkeypatch):
    # individualising a place of the 6-cycle first gives a leaf whose
    # certificate a place of a 3-cycle undercuts
    m = place_cycles(6, 3, 3)
    certificates = []
    certificate = modules._certificate

    def recording(*args):
        certificates.append(certificate(*args))
        return certificates[-1]

    monkeypatch.setattr(modules, "_certificate", recording)
    canon = canonicalize(m)
    monkeypatch.undo()
    assert min(certificates) < certificates[0]
    assert canon == reference_canonicalize(m)
    rng = random.Random(6)
    for _ in range(5):
        assert canonicalize(random_relabeling(m, rng)) == canon


# Six nodes of one decoration and arcs of two labels, ``(source, target,
# label)``.  Colour refinement cannot tell the nodes apart, and
# individualising node 0 alone, or node 5 and then node 0, gives the same
# discrete colouring: two leaves with one certificate at depths 1 and 2.
# The automorphism found there cannot map the one path onto the other, so
# the search goes on past the later leaf instead of returning to where
# the paths part.  A random search over millions of small bipartite
# place/transition graphs found none that does this, so the search runs on
# this graph directly.
UNEVEN_LEAVES = ((0, 2, 1), (0, 3, 0), (0, 5, 0), (0, 5, 1), (1, 2, 0), (1, 3, 1),
                 (1, 4, 0), (1, 4, 1), (2, 0, 1), (2, 1, 0), (2, 4, 0), (2, 4, 1),
                 (3, 0, 0), (3, 1, 1), (3, 5, 0), (3, 5, 1), (4, 1, 0), (4, 1, 1),
                 (4, 2, 0), (4, 2, 1), (5, 0, 0), (5, 0, 1), (5, 3, 0), (5, 3, 1))


def test_equal_leaves_at_different_depths_keep_the_search_going(monkeypatch):
    n, arcs = 6, list(UNEVEN_LEAVES)
    decor = [0] * n
    outs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for s, t, label in arcs:  # as _labelling_graph lays them out
        base = label * (2 * n + 1) + n
        outs[s].append((base, t))
        ins[t].append((base, s))
    leaves = []
    certificate = modules._certificate

    def recording(order, *args):
        leaves.append(tuple(order))
        return certificate(order, *args)

    monkeypatch.setattr(modules, "_certificate", recording)
    order, generators = modules._canonical_search(decor, arcs, outs, ins)
    monkeypatch.undo()
    # one colouring reached twice, and the search went on after it
    again = next(i for i, leaf in enumerate(leaves) if leaf in leaves[:i])
    assert again < len(leaves) - 1
    assert generators
    # the least certificate over every leaf, as the exhaustive reference
    # search finds it
    ids = [str(v) for v in range(n)]
    out_adj = {v: [(str(t), str(label)) for s, t, label in arcs if str(s) == v] for v in ids}
    in_adj = {v: [(str(s), str(label)) for s, t, label in arcs if str(t) == v] for v in ids}
    _, least = reference_search(ids, dict.fromkeys(ids, 0), dict.fromkeys(ids, ""),
                                out_adj, in_adj)
    assert certificate(order, decor, arcs) == certificate([int(v) for v in least], decor, arcs)
    for gamma in generators:
        assert {(gamma[s], gamma[t], label) for s, t, label in arcs} == set(arcs)


def orbit_product(generators: list[dict[str, str]], base: list[str]) -> int:
    """The product over ``base`` of each point's orbit under the generators
    that fix the points before it.  It is at most the order of the group
    they generate, and equals it for a strong generating set."""
    product = 1
    for i, point in enumerate(base):
        fixing = [g for g in generators if all(g[b] == b for b in base[:i])]
        orbit, frontier = {point}, [point]
        while frontier:
            x = frontier.pop()
            for g in fixing:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    frontier.append(g[x])
        product *= len(orbit)
    return product


def test_automorphisms_of_identical_places_generate_the_symmetric_group():
    k = 8
    m = unconnected_places(k)
    generators = modules.automorphisms(m)
    # the search individualises the places in id order, so the generators
    # are strong for that base, and the group lies inside S_k
    assert orbit_product(generators, sorted(p.name for p in m.inner.places)) == 40320
    assert len(generators) < k


def test_automorphisms_keep_every_node_and_arc(kitchen):
    copies = kitchen_copies(kitchen)
    inner = copies.inner
    generators = modules.automorphisms(copies)
    assert generators
    for g in generators:
        moved = rename_elements(copies, g).inner
        assert set(moved.places) == set(inner.places)
        assert set(moved.transitions) == set(inner.transitions)
        assert set(moved.arcs) == set(inner.arcs)
    assert modules.automorphisms(kitchen) == []


# ---------------------------------------------------------------------------
# Hash order
# ---------------------------------------------------------------------------

HASH_SCRIPT = """
from hknet import *
from conftest import load
from support import structure_text
branch = compose_all([load(f).body for f in ("entry.hk", "guest_area.hk", "kitchen.hk")])
sigma0 = load("sigma0.hksig").body
structure = bind_structure(parse(structure_text(2, 2), "s_2_2.hks").body, sigma0)
system = instantiate(branch, structure, name="branch_s_2_2")
print(print_module(canonicalize(branch)))
print(print_run(canonicalize(simulate(system, random_policy(seed=0, steps=250)))))
"""


def run_script(script: str, **env: str) -> bytes:
    """The standard output of ``script`` in a fresh interpreter that
    imports hknet from this tree and the test helpers from this folder."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(here.parent / "src"), str(here),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, check=True)
    return done.stdout


def test_canonical_forms_do_not_depend_on_the_hash_seed():
    outputs = [run_script(HASH_SCRIPT, PYTHONHASHSEED=seed) for seed in ("1", "2")]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 1000


# ---------------------------------------------------------------------------
# Search depth
# ---------------------------------------------------------------------------

RECURSION_SCRIPT = """
import sys
from hknet import canonicalize
from test_canonical import unconnected_places
m = unconnected_places(120)
sys.setrecursionlimit(100)
print(repr(canonicalize(m)))
"""


def test_the_search_depth_does_not_reach_the_recursion_limit():
    # the search individualises one of 120 interchangeable places per
    # level, so a search that recursed per level would need more than 100
    # frames
    out = run_script(RECURSION_SCRIPT)
    assert out.decode().strip() == repr(canonicalize(unconnected_places(120)))


if __name__ == "__main__":
    print("\n".join(golden_lines(reference_canonicalize)))


# ---------------------------------------------------------------------------
# Orders without meaning
# ---------------------------------------------------------------------------

UNORDERED = """module m of sigma0 {
  left { place in = q; trans go = u; }
  right { place out = p; }
  places {
    p : Clients init Bob, {Bob, Alice}, Alice;
    q : pow(Clients) init {Bob, Alice, Carol}, {};
  }
  trans {
    u guard X sub {Bob, Alice} and c in X and {c} sub X free c : Clients, X : pow(Clients);
    v guard c = Bob and X = {Carol, Alice};
  }
  arcs {
    q -> u : X;
    p -> u : c, Bob;
    u -> p : {c, Alice}, c;
    p -> v : c;
    v -> q : X;
  }
}
"""

CANONICAL_UNORDERED = """module _ {
  left {
    place in = p1;
    trans go = t1;
  }
  right {
    place out = p0;
  }
  places {
    p0 : Clients init Alice, Bob, {Alice, Bob};
    p1 : pow(Clients) init {Alice, Bob, Carol}, {};
  }
  trans {
    t0 guard X = {Alice, Carol} and c = Bob;
    t1 guard X sub {Alice, Bob} and c in X and {c} sub X free X: pow(Clients), c: Clients;
  }
  arcs {
    p0 -> t0 : c;
    p0 -> t1 : Bob, c;
    p1 -> t1 : X;
    t0 -> p1 : X;
    t1 -> p0 : c, {Alice, c};
  }
}
"""


def reversed_orders(m: Module) -> Module:
    """``m`` with its initial terms, guard atoms, free variables and
    inscriptions in reverse order, as no parser would leave them."""
    net = m.inner
    return Module(m.name, m.sig, SchematicNet(
        tuple(replace(p, init=p.init[::-1]) for p in net.places),
        tuple(replace(t, guard=Guard(t.guard.atoms[::-1]), free=t.free[::-1])
              for t in net.transitions),
        tuple(replace(a, inscription=a.inscription[::-1]) for a in net.arcs)),
        m.left, m.right)


def test_canonicalize_sorts_initial_terms_guard_atoms_and_set_literals():
    m = parse(UNORDERED, "m.hk").body
    assert print_module(canonicalize(m)) == CANONICAL_UNORDERED
    shuffled = reversed_orders(m)
    assert shuffled != m
    assert print_module(canonicalize(shuffled)) == CANONICAL_UNORDERED
    # the same module written with other ids and set literals in other orders
    renamed = (UNORDERED.replace("{Bob, Alice}", "{Alice, Bob}")
               .replace("{Carol, Alice}", "{Alice, Carol}")
               .replace("{Bob, Alice, Carol}", "{Carol, Alice, Bob}")
               .replace("{c, Alice}", "{Alice, c}"))
    assert renamed != UNORDERED
    again = parse(renamed.replace(" u", " w"), "m2.hk").body
    assert print_module(canonicalize(again)) == CANONICAL_UNORDERED
    assert modules.canonical_equal(shuffled, again)

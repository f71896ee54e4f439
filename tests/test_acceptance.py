"""Acceptance suite: one test per shipped criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and
asserts its criterion at the stated tolerance; timings are wall-clock.
Run with::

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from dataclasses import replace

from hknet import (Atom, Binding, Module, Multiset, SetValue, bind_structure,
                   canonical_equal, canonicalize, carrier_of, compose,
                   compose_all, compose_runs, explore, explore_grounded,
                   final_cut, find_event, ground, in_span, instantiate,
                   linearize, ordered, parse, place_invariants, print_document,
                   random_policy, scripted_policy, simulate, validate_run)
from hknet.signature import PowSort
from hknet.values import TupleValue

from conftest import CORPUS, CORPUS_DOCUMENTS, load
from support import compatible_triple, random_document, replay


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}",
          flush=True)
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_case_study_pipeline():
    started = time.perf_counter()
    sig = load("sigma0.hksig").body
    s0 = bind_structure(load("s0.hks").body, sig)
    modules = [load(n).body for n in ("entry.hk", "guest_area.hk", "kitchen.hk")]
    branch = compose_all(modules)
    system = instantiate(branch, s0, name="branch_s0")
    elapsed = time.perf_counter() - started

    free = system.initial.get("free_tables")
    menu = system.initial.get("menu")
    ok = (free == Multiset([Atom("t1"), Atom("t2"), Atom("t3"), Atom("t4")])
          and menu == Multiset([SetValue([Atom("rice"), Atom("meat"),
                                          Atom("salad")])])
          and menu.total() == 1
          and elapsed < 1.0)
    report(1, f"compose+instantiate pipeline ({elapsed:.3f}s)", ok)


def test_criterion_2_reference_run_reproduction(sys0, a0, a0_segments, a0_script):
    started = time.perf_counter()
    simulated = simulate(sys0, scripted_policy(a0_script))

    reproduced = canonical_equal(simulated, a0) and validate_run(a0, sys0) == []

    # (a) the Alice and Bob strands are independent before the kitchen
    pairs = [("offer_table", {"t": "t1"}, "offer_table", {"t": "t2"}),
             ("offer_table", {"t": "t1"}, "enter", {"c": "Bob"}),
             ("enter", {"c": "Alice"}, "enter", {"c": "Bob"}),
             ("enter", {"c": "Alice"}, "offer_table", {"t": "t2"})]
    independent = all(
        ordered(a0,
                find_event(a0, t1, Binding({k: Atom(v) for k, v in b1.items()})),
                find_event(a0, t2, Binding({k: Atom(v) for k, v in b2.items()})))
        == "independent"
        for t1, b1, t2, b2 in pairs)

    # (b) exchanging the two indistinguishable rice portions changes nothing
    inner = a0.inner
    rice = [c.id for c in inner.conditions
            if c.place == "cooked" and c.value == Atom("rice")]
    swap = {rice[0]: rice[1], rice[1]: rice[0]}
    swapped_flow = tuple((swap.get(s, s), swap.get(t, t)) for s, t in inner.flow)
    swapped = Module(a0.name, a0.sig, replace(inner, flow=swapped_flow),
                     a0.left, a0.right)
    swap_equal = len(rice) == 2 and canonical_equal(a0, swapped) \
        and validate_run(swapped, sys0) == []

    # (c) the three shipped segments compose to exactly the reference run
    begin, middle, end = a0_segments
    joined = compose_runs(compose_runs(begin, middle), end)
    composes = canonical_equal(joined, a0)

    elapsed = time.perf_counter() - started
    ok = reproduced and independent and swap_equal and composes and elapsed < 1.0
    report(2, f"run reproduction, independence, swap, segments ({elapsed:.3f}s)", ok)


def test_criterion_3_associativity_on_1000_triples():
    rng = random.Random(0xA550C)
    failures = 0
    for _ in range(1000):
        a, b, c = compatible_triple(rng)
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        if canonicalize(left) != canonicalize(right):
            failures += 1
    report(3, f"associativity on 1000 random triples ({failures} failures)",
           failures == 0)


def test_criterion_4_linearizations_replay(sys0):
    failures = 0
    for seed in range(100):
        run = simulate(sys0, random_policy(seed=seed, steps=30))
        target = final_cut(run)
        if validate_run(run, sys0):
            failures += 1
            continue
        for lin_seed in range(20):
            sequence = linearize(run, seed=lin_seed)
            try:
                reached = replay(sys0, sequence)
            except Exception:
                failures += 1
                continue
            if reached != target:
                failures += 1
    report(4, f"100 simulations x 20 linearizations replayed ({failures} failures)",
           failures == 0)


def test_criterion_5_invariants_on_restricted_instance(sys_small):
    started = time.perf_counter()
    grounded = ground(sys_small)
    basis = place_invariants(grounded)
    graph = explore(sys_small, max_nodes=100000, max_edges=1000000)
    assert not graph.truncated

    m0 = grounded.initial
    mismatches = 0
    for marking in graph.markings:
        vector = grounded.marking_vector(marking)
        for inv in basis:
            if sum(a * b for a, b in zip(inv, vector)) != \
                    sum(a * b for a, b in zip(inv, m0)):
                mismatches += 1

    conservation_ok = True
    for table in sys_small.structure.carrier("Tables"):
        target = []
        for place, value in grounded.places:
            held = (place in ("free_tables", "offered_tables") and value == table) \
                or (place in ("clients_ready_to_order", "waiting", "eating")
                    and isinstance(value, TupleValue) and value.items[1] == table)
            target.append(1 if held else 0)
        weight = sum(a * b for a, b in zip(target, m0))
        if weight != 1 or not in_span(basis, target):
            conservation_ok = False

    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and conservation_ok and basis and elapsed < 30.0
    report(5, f"invariants constant over {len(graph.markings)} markings, "
              f"per-table conservation in span ({elapsed:.2f}s)", ok)


def test_criterion_6_grounding_equivalence(sys_tiny):
    grounded = ground(sys_tiny)
    hl = explore(sys_tiny, max_nodes=100000, max_edges=1000000)
    gr = explore_grounded(grounded, max_nodes=100000, max_edges=1000000)
    mismatches = 0

    if len(hl.markings) != len(gr.vectors) or len(hl.edges) != len(gr.edges):
        mismatches += 1
    translation = [grounded.marking_vector(m) for m in hl.markings]
    if len(set(translation)) != len(translation):
        mismatches += 1  # not injective
    if set(translation) != set(gr.vectors):
        mismatches += 1  # not onto
    trans_index = {tb: i for i, tb in enumerate(grounded.transitions)}
    hl_edges = {(translation[src], trans_index[(name, binding)], translation[dst])
                for src, name, binding, dst in hl.edges}
    gr_edges = {(gr.vectors[src], t, gr.vectors[dst]) for src, t, dst in gr.edges}
    if hl_edges != gr_edges:
        mismatches += 1
    report(6, f"high-level vs grounded reachability isomorphic "
              f"({len(hl.markings)} nodes, {len(hl.edges)} edges, "
              f"{mismatches} mismatches)", mismatches == 0)


def test_criterion_7_parser_round_trip():
    failures = 0
    for name in CORPUS_DOCUMENTS:
        text = (CORPUS / name).read_text(encoding="utf-8")
        doc = parse(text, name)
        if parse(print_document(doc), name) != doc:
            failures += 1
    rng = random.Random(0x0707)
    for i in range(500):
        doc = random_document(rng)
        first = parse(print_document(doc), f"gen{i}")
        if parse(print_document(first), f"gen{i}") != first:
            failures += 1
    report(7, f"round-trip on {len(CORPUS_DOCUMENTS)} corpus files + 500 generated "
              f"documents ({failures} failures)", failures == 0)


def test_criterion_8_schema_reuse(branch, s0, s0_small):
    big = instantiate(branch, s0)
    small = instantiate(branch, s0_small)

    same_schema = (big.module is small.module
                   and canonicalize(big.module) == canonicalize(small.module)
                   and big.module.left == small.module.left
                   and big.module.right == small.module.right)
    markings_differ = (big.initial != small.initial
                       and big.initial.get("free_tables").total() == 4
                       and small.initial.get("free_tables").total() == 2)
    domains_differ = len(carrier_of(PowSort("Menu"), big.structure)) == 8 \
        and len(carrier_of(PowSort("Menu"), small.structure)) == 4
    ok = same_schema and markings_differ and domains_differ
    report(8, "one schematic module, two instantiations differing only in "
              "markings and binding domains", ok)

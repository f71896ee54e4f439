import os
import re
from dataclasses import replace
from pathlib import Path

import pytest

from hknet import (Arc, Atom, Binding, CompositionError, Condition, EvalError, Event,
                   FiringError, Ident, InterfaceElement, Marking, ModelError, Module, Multiset,
                   Place, SchematicNet, SchedulingPolicy, ScriptError, SetValue, Signature,
                   SortName, Transition, TupleValue, canonical_equal, compose, compose_runs,
                   empty_module, empty_run, enabled_bindings, final_cut, find_event, fire,
                   initial_cut,
                   instantiate, linearize, make_structure, ordered, print_run,
                   random_policy, render_binding, scripted_policy, simulate,
                   validate_run)
from hknet import nets
from hknet.modules import PLACE, TRANSITION
from hknet.nets import OccurrenceNet

from conftest import synthetic
from support import (ReferenceMarking, digest, reference_fire, reference_linearize,
                     reference_run, reference_simulate, replay, scan_condition, scan_event, scan_post, scan_pre,
                     scan_topo_levels)

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN.parent.parent / "corpus"


def one_shot_system(place: str, transition: str, out: str, token: str):
    sig = Signature("tiny_" + transition, sets=("A",),
                    constants=(("seedval", SortName("A")),))
    s = make_structure("only", sig, {"A": (Atom(token),)},
                       constants={"seedval": Atom(token)})
    net = SchematicNet(
        places=(Place(place, SortName("A"), (Ident("seedval"),)),
                Place(out, SortName("A"))),
        transitions=(Transition(transition),),
        arcs=(Arc(place, transition, (Ident("x"),)),
              Arc(transition, out, (Ident("x"),))),
    )
    return instantiate(Module("m_" + transition, sig.name, net), s)


def test_zero_steps_records_only_the_initial_cut(sys0):
    run = simulate(sys0, random_policy(seed=3, steps=0))
    assert len(run.inner.conditions) == 5
    assert len(run.inner.events) == 0
    assert initial_cut(run) == sys0.initial == final_cut(run)
    assert len(run.left) == len(run.right) == 5


def test_event_count_equals_firings(sys0):
    for steps in (1, 4, 9):
        run = simulate(sys0, random_policy(seed=steps, steps=steps))
        assert len(run.inner.events) == steps


def test_simulated_runs_validate_for_any_seed(sys0):
    for seed in range(6):
        run = simulate(sys0, random_policy(seed=seed, steps=12))
        assert validate_run(run, sys0) == []


def simulation_lines(sys_tiny, sys_small, sys0, a0_script) -> list[str]:
    """A digest of the printed run per system and seed, and of the a0 script."""
    lines = [f"{system.name} seed {seed}: "
             + digest(print_run(simulate(system, random_policy(seed=seed, steps=20))))
             for system in (sys_tiny, sys_small, sys0) for seed in range(10)]
    lines.append("branch_s0 a0.steps: "
                 + digest(print_run(simulate(sys0, scripted_policy(a0_script)))))
    return lines


def test_simulated_runs_are_unchanged(sys_tiny, sys_small, sys0, a0_script):
    golden = (GOLDEN / "simulate_runs.txt").read_text(encoding="utf-8")
    assert simulation_lines(sys_tiny, sys_small, sys0, a0_script) == golden.splitlines()


def test_simulate_evaluates_each_event_once(sys0, a0_script, monkeypatch):
    # at most once: an event repeating an earlier (transition, binding)
    # reuses its evaluated tokens
    calls = []
    evaluate = nets.occurrence

    def counting(net, transition, b, s):
        calls.append((transition, b))
        return evaluate(net, transition, b, s)

    monkeypatch.setattr(nets, "occurrence", counting)
    for policy in (random_policy(seed=3, steps=20), scripted_policy(a0_script)):
        calls.clear()
        run = simulate(sys0, policy)
        assert calls == list(dict.fromkeys((e.transition, e.binding)
                                           for e in run.inner.events))


def test_final_cut_equals_sequential_replay(sys0):
    for seed in range(4):
        run = simulate(sys0, random_policy(seed=seed, steps=15))
        seq = linearize(run, seed)
        assert replay(sys0, seq) == final_cut(run)


def test_simulate_takes_the_steps_of_the_definitional_loop(branch, sys_tiny, sys_small,
                                                          sys0, a0_script):
    systems = [sys_tiny, sys_small, sys0] + [synthetic(branch, n, 3) for n in (1, 2, 4, 8)]
    cases = [(system, random_policy(seed=seed, steps=30))
             for system in systems for seed in range(8)]
    cases.append((sys0, scripted_policy(a0_script)))
    for system, policy in cases:
        run = simulate(system, policy)
        steps, reached = reference_simulate(system, policy)
        assert [(e.transition, e.binding) for e in run.inner.events] == steps, \
            (system.name, policy.seed)
        assert final_cut(run) == reached, (system.name, policy.seed)


def equal_tokens_system():
    """Two equal ``a`` tokens and a ``c`` on ``p`` at the start; ``feed``
    puts a younger ``a`` on ``p`` whenever it fires, ``pair`` takes two
    equal tokens off ``p`` and puts one back, and ``drain`` takes two."""
    sig = Signature("ages", sets=("A",),
                    constants=(("a", SortName("A")), ("c", SortName("A"))))
    s = make_structure("ac", sig, {"A": (Atom("a"), Atom("c"))},
                       constants={"a": Atom("a"), "c": Atom("c")})
    x = Ident("x")
    net = SchematicNet(
        places=(Place("p", SortName("A"), (Ident("a"), Ident("a"), Ident("c"))),
                Place("q", SortName("A"), (Ident("a"),)),
                Place("r", SortName("A"))),
        transitions=(Transition("feed"), Transition("pair"), Transition("drain")),
        arcs=(Arc("q", "feed", (x,)), Arc("feed", "q", (x,)), Arc("feed", "p", (x,)),
              Arc("p", "pair", (x, x)), Arc("pair", "p", (x,)), Arc("pair", "r", (x,)),
              Arc("p", "drain", (x, x)), Arc("drain", "r", (x, x))),
    )
    return instantiate(Module("m_ages", sig.name, net), s)


def test_simulate_records_the_run_of_the_reference_recorder(branch, sys_tiny, sys_small,
                                                            sys0, a0_script):
    cases = [(system, random_policy(seed=seed, steps=20))
             for system in (sys_tiny, sys_small, sys0) for seed in range(4)]
    cases.append((sys0, scripted_policy(a0_script)))
    cases += [(synthetic(branch, n, 3), random_policy(seed=seed, steps=100))
              for n in (1, 2, 4, 8) for seed in range(3)]
    ages = equal_tokens_system()
    a = Binding({"x": Atom("a")})
    cases += [(ages, random_policy(seed=seed, steps=12)) for seed in range(6)]
    cases.append((ages, scripted_policy([("feed", a), ("pair", a), ("feed", a),
                                         ("drain", a), ("feed", a), ("pair", a)])))
    for system, policy in cases:
        assert print_run(simulate(system, policy)) == print_run(reference_run(system, policy)), \
            (system.name, policy)


def test_of_equal_tokens_of_different_ages_an_event_takes_the_oldest():
    a = Binding({"x": Atom("a")})
    run = simulate(equal_tokens_system(),
                   scripted_policy([("feed", a), ("pair", a), ("pair", a)]))
    inner = run.inner
    # b0 and b1 are the initial a's on p, b4 is feed's; pair takes the
    # two oldest, then the younger two: feed's b4 and its own b6
    assert [(c.id, c.place, c.value) for c in inner.conditions[:2]] == \
        [("b0", "p", Atom("a")), ("b1", "p", Atom("a"))]
    assert inner.pre("e1") == ("b0", "b1")
    assert inner.post("e1") == ("b6", "b7")
    assert inner.pre("e2") == ("b4", "b6")


def test_simulate_stops_at_a_deadlock_before_its_step_limit():
    # no corpus system deadlocks; this one does after its one firing
    system = one_shot_system("p", "go", "q", "v")
    for seed in range(3):
        policy = random_policy(seed=seed, steps=5)
        run = simulate(system, policy)
        steps, reached = reference_simulate(system, policy)
        assert [(e.transition, e.binding) for e in run.inner.events] == steps
        assert len(steps) == 1 < policy.step_limit
        assert final_cut(run) == reached
        assert not any(enabled_bindings(system.net, reached, t, system.structure)
                       for t in system.net.transitions)


def test_script_policy_rejects_more_steps_than_its_script():
    with pytest.raises(ValueError, match="step_limit 2 exceeds the 0 steps"):
        SchedulingPolicy("script", step_limit=2, script=())
    step = ("enter", Binding({"c": Atom("Alice"), "t": Atom("t1")}))
    with pytest.raises(ValueError, match="step_limit 2 exceeds the 1 steps"):
        SchedulingPolicy("script", step_limit=2, script=(step,))
    assert SchedulingPolicy("script", step_limit=1, script=(step, step)).step_limit == 1


def test_script_must_be_enabled(sys0):
    steps = [("enter", Binding({"c": Atom("Alice"), "t": Atom("t1")}))]
    with pytest.raises(ScriptError, match="not enabled"):
        simulate(sys0, scripted_policy(steps))


def test_script_step_must_name_a_transition(sys0):
    steps = [("no_such_transition", Binding({}))]
    with pytest.raises(ScriptError,
                       match=r"^script step 1: no transition 'no_such_transition'$"):
        simulate(sys0, scripted_policy(steps))


def test_a_script_step_naming_a_variable_its_transition_lacks_says_so(sys0):
    steps = [("offer_table", Binding({"t": Atom("t1"), "zz": Atom("t2")}))]
    with pytest.raises(ScriptError,
                       match=r"^script step 1: offer_table has no variable 'zz'$"):
        simulate(sys0, scripted_policy(steps))


def test_ambiguous_script_step_is_rejected(sys0):
    steps = [("offer_table", Binding({"t": Atom("t1")})),
             ("enter", Binding({"t": Atom("t1")}))]  # c left open: two clients
    with pytest.raises(ScriptError, match="disambiguate"):
        simulate(sys0, scripted_policy(steps))


def test_partial_script_bindings_resolve_when_unique(sys0):
    steps = [("offer_table", Binding({"t": Atom("t2")})),
             ("enter", Binding({"c": Atom("Bob")}))]  # t forced by the token
    run = simulate(sys0, scripted_policy(steps))
    event = find_event(run, "enter")
    assert event.binding == Binding({"c": Atom("Bob"), "t": Atom("t2")})


def test_equal_tokens_are_consumed_oldest_first(sys0, a0_script):
    run = simulate(sys0, scripted_policy(a0_script))
    cook_rice_first = find_event(run, "hand_over", Binding({"c": Atom("Bob")}))
    rice_inputs = [run.inner.condition(cid)
                   for cid in run.inner.pre(cook_rice_first.id)
                   if run.inner.condition(cid).place == "cooked"
                   and run.inner.condition(cid).value == Atom("rice")]
    assert len(rice_inputs) == 1
    # the first cooked rice stems from Alice's strand, so Bob eats it
    producer = run.inner.pre(rice_inputs[0].id)[0]
    alice_unfold = find_event(run, "unfold", Binding({"t": Atom("t1")}))
    assert ordered(run, alice_unfold, producer) == "before"


def test_validate_reference_run(sys0, a0):
    assert validate_run(a0, sys0) == []


def test_a_policy_rejects_an_unknown_mode_and_a_negative_step_limit():
    with pytest.raises(ValueError, match=r"^unknown policy mode 'sometimes'$"):
        SchedulingPolicy("sometimes")
    with pytest.raises(ValueError, match=r"^step_limit must be >= 0$"):
        SchedulingPolicy("random", step_limit=-1)


def test_find_event_without_a_match_says_how_many_matched(a0):
    with pytest.raises(ModelError, match=r"^0 events match enter \[c=Nobody\]$"):
        find_event(a0, "enter", Binding({"c": Atom("Nobody")}))


def test_a_schematic_module_is_no_run(sys0, kitchen):
    with pytest.raises(ModelError, match=r"^module 'kitchen' is not a run$"):
        linearize(kitchen)
    report = validate_run(kitchen, sys0)
    assert [(v.code, v.message) for v in report] == \
        [("not-a-run", "module 'kitchen' has a schematic inner net")]


def test_composing_two_empty_modules_as_runs_gives_an_empty_module():
    result = compose_runs(empty_module("left"), empty_module("right"))
    assert result == empty_module("right") and result.is_empty()


# ---------------------------------------------------------------------------
# Broken runs: each builder changes one thing in a valid run
# ---------------------------------------------------------------------------

def with_false_guard(a0):
    inner = a0.inner
    bad_events = []
    for e in inner.events:
        if e.transition == "hand_over" and e.binding["c"] == Atom("Alice"):
            pairs = dict(e.binding.pairs())
            pairs["Y"] = SetValue([Atom("salad")])
            e = type(e)(e.id, e.transition, Binding(pairs))
        bad_events.append(e)
    return Module(a0.name, a0.sig, OccurrenceNet(
        inner.conditions, tuple(bad_events), inner.flow), a0.left, a0.right)


def with_branching_condition(a0):
    inner = a0.inner
    # let one menu condition be consumed by both selects
    menu_start = next(c for c in inner.conditions
                      if c.place == "menu" and not inner.pre(c.id))
    selects = [e for e in inner.events if e.transition == "select"]
    extra = (menu_start.id, selects[1].id)
    return Module(a0.name, a0.sig, OccurrenceNet(
        inner.conditions, inner.events, inner.flow + (extra,)),
        a0.left, a0.right)


def with_oversized_initial_cut(a0):
    inner = a0.inner
    ghost = type(inner.conditions[0])("b_extra", "free_tables", Atom("t1"))
    return Module(a0.name, a0.sig, OccurrenceNet(
        inner.conditions + (ghost,), inner.events, inner.flow),
        a0.left, a0.right)


def with_ill_sorted_condition(a0):
    inner = a0.inner
    changed = tuple(
        Condition(c.id, c.place, Atom("pizza"))
        if c.id == "b13" else c  # an ordered_items entry
        for c in inner.conditions)
    return Module(a0.name, a0.sig, OccurrenceNet(
        changed, inner.events, inner.flow), a0.left, a0.right)


def with_unknown_place(a0):
    inner = a0.inner
    ghost = Condition("bx", "warehouse", Atom("t1"))
    return Module(a0.name, a0.sig, OccurrenceNet(
        inner.conditions + (ghost,), inner.events, inner.flow),
        a0.left, a0.right)


def with_event_outside_a_function_table(a0_simulated):
    # f has no entry for pizza, so cook's input f(y) cannot be evaluated
    inner = a0_simulated.inner
    cook = next(e for e in inner.events if e.transition == "cook")
    bad = replace(cook, binding=Binding({"y": Atom("pizza")}))
    events = tuple(bad if e is cook else e for e in inner.events)
    return replace(a0_simulated, inner=replace(inner, events=events))


def with_dropped_input(a0):
    # the first cook no longer consumes its ordered item, which then
    # stays in the final cut
    inner = a0.inner
    cook = next(e for e in inner.events if e.transition == "cook")
    return replace(a0, inner=replace(inner, flow=tuple(
        arc for arc in inner.flow if arc[1] != cook.id)))


def with_wrong_output(a0):
    # the first cook produces a dish other than the one it was bound to
    inner = a0.inner
    cook = next(e for e in inner.events if e.transition == "cook")
    produced = inner.post(cook.id)[0]
    other = Atom("salad" if inner.condition(produced).value != Atom("salad") else "rice")
    return replace(a0, inner=replace(inner, conditions=tuple(
        replace(c, value=other) if c.id == produced else c
        for c in inner.conditions)))


def with_flow_to_an_unknown_node(sys0):
    inner = OccurrenceNet((Condition("b0", "free_tables", Atom("t1")),), (),
                          (("b0", "zz"),))
    return Module("stray", sys0.name, inner)


def with_flow_from_an_unknown_node(sys0):
    inner = OccurrenceNet((Condition("b0", "free_tables", Atom("t1")),), (),
                          (("zz", "b0"),))
    return Module("stray", sys0.name, inner)


def with_cycle():
    inner = OccurrenceNet(
        conditions=(Condition("c1", "p", Atom("a")),
                    Condition("c2", "p", Atom("a"))),
        events=(Event("e1", "t", Binding()), Event("e2", "t", Binding())),
        flow=(("c1", "e1"), ("e1", "c2"), ("c2", "e2"), ("e2", "c1")),
    )
    return Module("loop", "", inner)


def broken_runs(sys0, a0, a0_simulated) -> dict[str, Module]:
    return {"false-guard": with_false_guard(a0),
            "branching": with_branching_condition(a0),
            "oversized-initial-cut": with_oversized_initial_cut(a0),
            "ill-sorted-condition": with_ill_sorted_condition(a0),
            "unknown-place": with_unknown_place(a0),
            "outside-a-function-table": with_event_outside_a_function_table(a0_simulated),
            "dropped-input": with_dropped_input(a0),
            "wrong-output": with_wrong_output(a0),
            "flow-to-unknown": with_flow_to_an_unknown_node(sys0),
            "flow-from-unknown": with_flow_from_an_unknown_node(sys0),
            "cycle": with_cycle()}


def validation_lines(sys0, a0, a0_simulated) -> list[str]:
    """Every violation ``validate_run`` reports on each broken run, with
    corpus paths made relative."""
    return [f"{name}: {violation}".replace(f"{CORPUS}{os.sep}", "")
            for name, run in broken_runs(sys0, a0, a0_simulated).items()
            for violation in validate_run(run, sys0) or ["ok"]]


def test_validation_reports_on_broken_runs_are_unchanged(sys0, a0, a0_simulated):
    golden = (GOLDEN / "validate_run_broken.txt").read_text(encoding="utf-8")
    assert validation_lines(sys0, a0, a0_simulated) == golden.splitlines()


def test_validate_rejects_false_guard(sys0, a0):
    codes = {v.code for v in validate_run(with_false_guard(a0), sys0)}
    assert "guard" in codes


def test_validate_rejects_branching_conditions(sys0, a0):
    codes = {v.code for v in validate_run(with_branching_condition(a0), sys0)}
    assert "branching" in codes


def test_validate_rejects_oversized_initial_cut(sys0, a0):
    codes = {v.code for v in validate_run(with_oversized_initial_cut(a0), sys0)}
    assert "initial-cut" in codes


def test_validate_rejects_mismatched_pre_and_post_sets(sys0, a0):
    assert [v.code for v in validate_run(with_dropped_input(a0), sys0)] == ["pre-set"]
    # the changed dish is also what hand_over then finds in its pre-set
    assert [v.code for v in validate_run(with_wrong_output(a0), sys0)] == \
        ["post-set", "pre-set"]


def test_compose_with_empty_run_is_neutral(a0):
    assert compose_runs(a0, empty_run()) == a0
    assert compose_runs(empty_run(), a0) == a0


def test_composing_independent_runs_keeps_events_unordered():
    sys_a = one_shot_system("pa", "ta", "qa", "va")
    sys_b = one_shot_system("pb", "tb", "qb", "vb")
    run_a = simulate(sys_a, random_policy(seed=0, steps=1))
    run_b = simulate(sys_b, random_policy(seed=0, steps=1))
    combined = compose_runs(run_a, run_b)
    assert len(combined.inner.events) == 2
    ea, eb = combined.inner.events
    assert ordered(combined, ea.id, eb.id) == "independent"


def test_fused_conditions_must_agree_on_values(a0_segments):
    begin, middle, end = a0_segments
    inner = middle.inner
    changed = tuple(
        type(c)(c.id, c.place, Atom("t9")) if c.id == "m1" else c
        for c in inner.conditions)
    tampered = Module(middle.name, middle.sig, OccurrenceNet(
        changed, inner.events, inner.flow), middle.left, middle.right)
    with pytest.raises(CompositionError, match="disagree"):
        compose_runs(begin, tampered)


def test_fused_events_must_agree_on_bindings():
    def exposing(side: str, node: str, value: str) -> Module:
        event = Event(node, "t", Binding({"x": Atom(value)}))
        return Module(node, "", OccurrenceNet(events=(event,)),
                      **{side: (InterfaceElement(TRANSITION, "u", node),)})

    with pytest.raises(CompositionError,
                       match=re.escape("fused events 'e' disagree: t[x=v] vs t[x=w]")):
        compose(exposing("right", "e", "v"), exposing("left", "f", "w"))


def test_composing_runs_must_not_branch():
    sys_a = one_shot_system("pa", "ta", "qa", "va")
    run_a = simulate(sys_a, random_policy(seed=0, steps=1))
    # a twin whose left interface exposes its *produced* condition: fusing
    # would give that condition two producing events
    twin = Module(run_a.name, run_a.sig, run_a.inner, run_a.right, ())
    with pytest.raises(CompositionError, match="branch"):
        compose_runs(run_a, twin)


def test_composing_runs_must_not_create_a_cycle():
    # b1 -> ea -> b2 and b3 -> eb -> b4, fused b1 with b4 and b2 with b3
    def one_event(event, before, after, exposed):
        inner = OccurrenceNet(
            conditions=(Condition(before, "p", Atom("v")), Condition(after, "p", Atom("v"))),
            events=(Event(event, "t", Binding({})),),
            flow=((before, event), (event, after)))
        return Module(event, "", inner, **exposed)

    ea = one_event("ea", "b1", "b2", {"right": (InterfaceElement(PLACE, "u", "b1"),
                                                InterfaceElement(PLACE, "w", "b2"))})
    eb = one_event("eb", "b3", "b4", {"left": (InterfaceElement(PLACE, "u", "b4"),
                                               InterfaceElement(PLACE, "w", "b3"))})
    with pytest.raises(CompositionError, match="^composing runs creates a causal cycle$"):
        compose_runs(ea, eb)


def test_linearize_single_event_run():
    system = one_shot_system("p", "go", "q", "v")
    run = simulate(system, random_policy(seed=0, steps=1))
    assert linearize(run) == [("go", Binding({"x": Atom("v")}))]


def test_linearize_covers_all_interleavings():
    sys_a = one_shot_system("pa", "ta", "qa", "va")
    sys_b = one_shot_system("pb", "tb", "qb", "vb")
    combined = compose_runs(simulate(sys_a, random_policy(0, 1)),
                            simulate(sys_b, random_policy(0, 1)))
    # oracle: a 2-antichain has exactly two topological orders
    seen = {tuple(name for name, _ in linearize(combined, seed))
            for seed in range(16)}
    assert seen == {("ta", "tb"), ("tb", "ta")}


def test_linearizations_replay_from_reference(sys0, a0):
    for seed in (0, 1, 2):
        assert replay(sys0, linearize(a0, seed)) == final_cut(a0)


def test_causal_order_in_reference_run(a0):
    offer_t1 = find_event(a0, "offer_table", Binding({"t": Atom("t1")}))
    enter_alice = find_event(a0, "enter", Binding({"c": Atom("Alice")}))
    offer_t2 = find_event(a0, "offer_table", Binding({"t": Atom("t2")}))
    enter_bob = find_event(a0, "enter", Binding({"c": Atom("Bob")}))
    assert ordered(a0, offer_t1, enter_alice) == "before"
    assert ordered(a0, enter_alice, offer_t1) == "after"
    assert ordered(a0, offer_t1, offer_t2) == "independent"
    assert ordered(a0, enter_alice, enter_bob) == "independent"
    assert ordered(a0, offer_t1, enter_bob) == "independent"


def test_an_event_is_before_itself_by_convention(a0):
    e = find_event(a0, "cook", Binding({"y": Atom("salad")}))
    assert ordered(a0, e, e) == "before"


def test_ordered_rejects_unknown_events(a0):
    with pytest.raises(KeyError):
        ordered(a0, "ev1", "nowhere")


def test_cyclic_run_cannot_linearize():
    with pytest.raises(ModelError, match="cyclic|linearize"):
        linearize(with_cycle())


def test_a_flow_arc_between_two_conditions_is_reported():
    system = one_shot_system("p", "go", "q", "v")
    run = simulate(system, random_policy(seed=0, steps=1))
    inner = run.inner
    assert inner.flow == (("b0", "e0"), ("e0", "b1"))
    bad = replace(run, inner=replace(inner, flow=inner.flow + (("b0", "b1"),)))
    assert [str(v) for v in validate_run(bad, system)] == [
        "[flow] flow arc b0 -> b1 must connect a condition and an event",
        "[branching] condition b0 is consumed by several events",
        "[branching] condition b1 is produced by several events"]


def test_validate_rejects_ill_sorted_condition_values(sys0, a0):
    codes = {v.code for v in validate_run(with_ill_sorted_condition(a0), sys0)}
    assert "token-sort" in codes


def test_validate_rejects_unknown_places(sys0, a0):
    codes = {v.code for v in validate_run(with_unknown_place(a0), sys0)}
    assert "unknown-place" in codes


def with_rebound_first_event(a0, pairs: dict) -> Module:
    """``a0`` with the binding of its event ``ev1`` (offer_table, t=t1)
    replaced by ``pairs``."""
    inner = a0.inner
    events = tuple(replace(e, binding=Binding(pairs)) if e.id == "ev1" else e
                   for e in inner.events)
    return Module(a0.name, a0.sig, replace(inner, events=events), a0.left, a0.right)


@pytest.mark.parametrize("pairs, assigned", [
    ({"t": Atom("t1"), "zz": Atom("foo")}, "[t, zz]"),
    ({}, "[]"),
])
def test_a_binding_of_other_variables_is_a_binding_violation(sys0, a0, pairs, assigned):
    report = validate_run(with_rebound_first_event(a0, pairs), sys0)
    assert [str(v) for v in report] == [
        f"[binding] event ev1: the binding assigns {assigned}, but 'offer_table' "
        "has the variables [t]"]


def test_event_outside_a_function_table_is_a_binding_violation(sys0, a0_simulated):
    cook = next(e for e in a0_simulated.inner.events if e.transition == "cook")
    report = validate_run(with_event_outside_a_function_table(a0_simulated), sys0)
    assert [v.code for v in report] == ["binding"]
    assert cook.id in report[0].message and "pizza" in report[0].message


# ---------------------------------------------------------------------------
# Validation once per label: findings stay one per node, in node order
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def s12_run(branch):
    """The branch on s_1_2 and a 100-event run of it: 17 distinct event
    labels and 21 distinct condition labels."""
    system = synthetic(branch, 1, 2)
    return system, simulate(system, random_policy(seed=0, steps=100))


def relabeled(run: Module, transition: str, old: Binding, new: Binding):
    """``run`` with every event labeled ``(transition, old)`` bound by
    ``new`` instead, and the ids of those events, of which there are
    several."""
    inner = run.inner
    ids = [e.id for e in inner.events if e.transition == transition and e.binding == old]
    assert len(ids) >= 2
    events = tuple(replace(e, binding=new) if e.id in ids else e for e in inner.events)
    return replace(run, inner=replace(inner, events=events)), ids


def per_label_cases(run: Module) -> list[tuple[str, Module, list[tuple[str, str]]]]:
    """``(case, broken run, its (code, message) findings in node order)``
    per way a label can be bad; each bad label sits at two or more nodes."""
    inner = run.inner
    c1, t1, m1, m2 = (Atom(name) for name in ("c1", "t1", "m1", "m2"))
    cases = []

    # g(Y) = X is false for X = {m1} and Y = {m2}
    bad, ids = relabeled(run, "hand_over",
                         Binding({"X": SetValue([m1]), "Y": SetValue([m1]), "c": c1, "t": t1}),
                         Binding({"X": SetValue([m1]), "Y": SetValue([m2]), "c": c1, "t": t1}))
    cases.append(("false-guard", bad, [
        ("guard", f"event {i}: guard of 'hand_over' is false under "
                  "[X={m1}, Y={m2}, c=c1, t=t1]") for i in ids]))

    # f has no entry for c1, so cook's input f(y) cannot be evaluated
    bad, ids = relabeled(run, "cook", Binding({"y": m1}), Binding({"y": c1}))
    cases.append(("outside-a-function-table", bad, [
        ("binding", f"event {i}: kitchen.hk:24:29: function 'f' is undefined on (c1)")
        for i in ids]))

    bad, ids = relabeled(run, "leave", Binding({"c": c1, "t": t1}), Binding({"t": t1}))
    cases.append(("wrong-variables", bad, [
        ("binding", f"event {i}: the binding assigns [t], but 'leave' has the "
                    "variables [c, t]") for i in ids]))

    # two conditions on eating carry (c1, m1): each is reported, and so is
    # the hand_over producing it and the leave consuming it
    eating = [c.id for c in inner.conditions if c.place == "eating"][:2]
    (first_made, first_taken), (second_made, second_taken) = (
        (inner.pre(cid)[0], inner.post(cid)[0]) for cid in eating)
    order = [e.id for e in inner.events]
    assert (order.index(first_made) < order.index(first_taken)
            < order.index(second_made) < order.index(second_taken))
    conditions = tuple(replace(c, value=TupleValue([c1, m1])) if c.id in eating else c
                       for c in inner.conditions)
    mismatch = "{} ({}): {}-set does not match the evaluated arc inscriptions"
    cases.append(("ill-sorted-conditions", replace(run, inner=replace(inner, conditions=conditions)), [
        *[("token-sort", f"condition {cid} carries (c1, m1), outside the sort of 'eating'")
          for cid in eating],
        ("post-set", "event " + mismatch.format(first_made, "hand_over", "post")),
        ("pre-set", "event " + mismatch.format(first_taken, "leave", "pre")),
        ("post-set", "event " + mismatch.format(second_made, "hand_over", "post")),
        ("pre-set", "event " + mismatch.format(second_taken, "leave", "pre"))]))

    # of the cooks of m2, only the first loses its input arc
    cooks = [e.id for e in inner.events
             if e.transition == "cook" and e.binding == Binding({"y": m2})]
    assert len(cooks) >= 2
    flow = tuple(arc for arc in inner.flow if arc[1] != cooks[0])
    cases.append(("one-pre-set-of-two", replace(run, inner=replace(inner, flow=flow)), [
        ("pre-set", "event " + mismatch.format(cooks[0], "cook", "pre"))]))
    return cases


def test_a_bad_label_is_reported_at_each_of_its_nodes_in_node_order(s12_run):
    system, run = s12_run
    assert validate_run(run, system) == []
    for case, bad, expected in per_label_cases(run):
        got = [(v.code, v.message.replace(f"{CORPUS}{os.sep}", ""))
               for v in validate_run(bad, system)]
        assert got == expected, case


def test_validation_keeps_no_label_verdict_between_calls(branch, s12_run):
    # s_1_1 lacks m2, so under it the same labels break sorts, guards,
    # function tables and the initial marking
    system, run = s12_run
    narrow = synthetic(branch, 1, 1)
    reports = [validate_run(run, against) for against in (system, narrow, system)]
    assert reports[0] == reports[2] == []
    assert {v.code for v in reports[1]} == {"token-sort", "guard", "binding", "initial-cut"}


def test_firing_each_label_of_the_broken_runs_fails_as_the_reference_does(s12_run):
    # at the initial marking, where most are not enabled, and at one
    # holding every token of the run; enter under c = m1 puts (m1, t1)
    # outside the sort of clients_ready_to_order
    system, run = s12_run
    net, s = system.net, system.structure
    labels = dict.fromkeys((e.transition, e.binding) for _, bad, _ in per_label_cases(run)
                           for e in bad.inner.events)
    labels[("enter", Binding({"c": Atom("m1"), "t": Atom("t1")}))] = None
    everything: dict[str, list] = {}
    for c in run.inner.conditions:
        everything.setdefault(c.place, []).append(c.value)

    def outcome(step):
        try:
            return step().rendered_entries()
        except (FiringError, EvalError) as exc:
            return f"{type(exc).__name__}: {exc}"

    seen = []
    for m in (system.initial, Marking(everything)):
        ref = ReferenceMarking({p: list(ms) for p, ms in m.items()})
        for name, b in labels:
            got = outcome(lambda: fire(net, m, name, b, s))
            assert got == outcome(lambda: reference_fire(net, ref, name, b, s)), (name, b)
            seen.append(got)
    for message in ("does not assign variable", "is false under", "lacks required tokens",
                    "outside sort", "is undefined on"):
        assert any(message in str(out) for out in seen), message


# ---------------------------------------------------------------------------
# Indexed occurrence-net lookups against the linear-scan oracle
# ---------------------------------------------------------------------------

def assert_lookups_match_scans(net: OccurrenceNet) -> None:
    nodes = {c.id for c in net.conditions} | {e.id for e in net.events}
    nodes |= {node for arc in net.flow for node in arc} | {"nowhere"}
    for node in sorted(nodes):
        assert net.pre(node) == scan_pre(net, node)
        assert net.post(node) == scan_post(net, node)
        for indexed, scan in ((net.condition, scan_condition),
                              (net.event, scan_event)):
            try:
                expected = scan(net, node)
            except KeyError as exc:
                with pytest.raises(KeyError) as got:
                    indexed(node)
                assert str(got.value) == str(exc)
            else:
                assert indexed(node) is expected
    assert net.is_acyclic() == (scan_topo_levels(net) is not None)


def test_lookups_match_scans_on_simulated_runs(sys0, sys_small):
    for system in (sys0, sys_small):
        for seed in range(5):
            run = simulate(system, random_policy(seed=seed, steps=20))
            assert_lookups_match_scans(run.inner)


def test_lookups_match_scans_on_the_reference_run_and_its_segments(a0, a0_segments):
    begin, middle, end = a0_segments
    for run in (a0, begin, middle, end, compose_runs(begin, middle),
                compose_runs(middle, end),
                compose_runs(compose_runs(begin, middle), end)):
        assert_lookups_match_scans(run.inner)


def hand_built_occurrence_nets() -> list[OccurrenceNet]:
    a, b = Atom("a"), Atom("b")
    # ids shared by two conditions, two events, and a condition and an
    # event; a doubled arc; acyclic all the same
    duplicate_ids = OccurrenceNet(
        conditions=(Condition("b0", "p", a), Condition("b0", "q", b),
                    Condition("b1", "p", a)),
        events=(Event("e0", "t", Binding()), Event("e1", "u", Binding()),
                Event("e1", "t", Binding()), Event("b0", "t", Binding())),
        flow=(("b0", "e0"), ("e0", "b1"), ("b0", "e0"), ("e1", "b1")))
    branched = OccurrenceNet(
        conditions=(Condition("c0", "p", a), Condition("c1", "p", a),
                    Condition("c2", "q", b)),
        events=(Event("e2", "t", Binding()), Event("e1", "t", Binding()),
                Event("e0", "u", Binding())),
        flow=(("c0", "e1"), ("c0", "e2"), ("e2", "c2"), ("e1", "c2"),
              ("e0", "c2"), ("c1", "e0")))
    cycle = OccurrenceNet(
        conditions=(Condition("c1", "p", a), Condition("c2", "p", a),
                    Condition("c3", "p", b)),
        events=(Event("e1", "t", Binding()), Event("e2", "t", Binding())),
        flow=(("c1", "e1"), ("e1", "c2"), ("c2", "e2"), ("e2", "c1"),
              ("c3", "e2")))
    return [duplicate_ids, branched, cycle, OccurrenceNet()]


def test_lookups_match_scans_on_hand_built_nets():
    nets_ = hand_built_occurrence_nets()
    for net in nets_:
        assert_lookups_match_scans(net)
    assert [net.is_acyclic() for net in nets_] == [True, True, False, True]


def test_linearizations_of_the_reference_run_are_unchanged(a0):
    golden = (GOLDEN / "linearize_a0.txt").read_text(encoding="utf-8").splitlines()
    got = [" ; ".join(f"{name} {render_binding(b)}" for name, b in linearize(a0, seed))
           for seed in range(20)]
    assert got == golden


def test_linearize_matches_the_rescanning_reference(sys0, sys_small, a0, a0_segments):
    runs = [simulate(system, random_policy(seed=seed, steps=25))
            for system in (sys0, sys_small) for seed in range(4)]
    runs += [a0, *a0_segments]
    for run in runs:
        for seed in range(6):
            assert linearize(run, seed) == reference_linearize(run.inner, seed)


def test_linearize_waits_forever_on_a_missing_producer():
    # e1 consumes c1, whose producer zz is no event: it can never be ready
    inner = OccurrenceNet(
        conditions=(Condition("c0", "p", Atom("a")), Condition("c1", "p", Atom("a"))),
        events=(Event("e0", "t", Binding()), Event("e1", "t", Binding())),
        flow=(("c0", "e0"), ("zz", "c1"), ("c1", "e1")))
    assert inner.is_acyclic()
    with pytest.raises(ValueError, match="cyclic event dependencies"):
        reference_linearize(inner)
    with pytest.raises(ModelError, match="cyclic event dependencies"):
        linearize(Module("stray", "", inner))


def test_flow_arc_to_an_unknown_node_is_reported_not_raised(sys0):
    run = with_flow_to_an_unknown_node(sys0)
    inner = run.inner
    assert inner.is_acyclic()
    report = validate_run(run, sys0)
    assert [v.code for v in report] == ["flow"]
    assert "b0 -> zz" in report[0].message
    assert linearize(run) == []
    assert compose_runs(run, empty_run()).inner == inner


def test_flow_arc_from_an_unknown_node_is_reported_not_a_cycle(sys0):
    run = with_flow_from_an_unknown_node(sys0)
    inner = run.inner
    assert inner.is_acyclic()
    report = validate_run(run, sys0)
    assert [v.code for v in report] == ["flow"]
    assert "zz -> b0" in report[0].message
    assert linearize(run) == []

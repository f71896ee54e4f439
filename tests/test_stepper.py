"""The per-call memo of enabling and occurrences (``nets.Stepper``):
successors against the oracle that enables and fires every transition
afresh at each marking (``support.reference_successors``), its edges,
and call counts that show what it saves."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from hknet import (App, Arc, Atom, Binding, EvalError, FiringError, Ident,
                   Marking, Module, Multiset, Place, PowSort, SchematicNet, SetValue,
                   Signature, SortError, SortName, System, Transition, TupleValue,
                   bind_structure, carrier_of, enabled_bindings, explore, fire,
                   instantiate, make_structure, parse, random_policy,
                   resolve_net, scripted_policy, simulate, successors)
from hknet import nets
from hknet.nets import Stepper

from conftest import synthetic
from support import (CHECKED_ONLY, SHARED_NEEDS, counting_occurrences, reference_successors,
                     stepper_disagreements, system_of, wrap_kernels)
from test_generated_join import MODULE, SIGNATURE, STRUCTURE


def _outcome(step):
    try:
        return step()
    except (FiringError, EvalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_explore_edges_match_reference_successors(branch, sys_tiny, sys_small):
    for system in (sys_tiny, sys_small, synthetic(branch, 1, 3), synthetic(branch, 2, 1)):
        net, s = system.net, system.structure
        graph = explore(system)
        assert not graph.truncated
        out = {i: [] for i in range(len(graph.markings))}
        for source, name, binding, target in graph.edges:
            out[source].append((name, binding, graph.markings[target]))
        stepper = Stepper(net, s)
        for i, m in enumerate(graph.markings):
            want = reference_successors(net, m, s)
            assert out[i] == want, (system.name, i)
            assert successors(net, m, s) == want, (system.name, i)
            assert stepper.successors(m) == want, (system.name, i)


def test_fire_gives_the_occurrence_and_the_successor_that_step_gives(branch, sys_small):
    # one stepper stepped as explore steps, another used only through
    # enabled and fire, at every marking explore reaches
    for system in (sys_small, synthetic(branch, 2, 3)):
        net, s = system.net, system.structure
        stepping, firing = Stepper(net, s), Stepper(net, s)
        graph = explore(system)
        assert not graph.truncated
        fired_count = 0
        for m in graph.markings:
            state, decode = stepping.encoding(m)
            at, decode_fired = firing.encoding(m)
            fired = []
            for t in firing.transitions:
                for b in firing.enabled(at, t.name):
                    found, succ = firing.fire(at, t.name, b)
                    assert found == nets.occurrence(net, t.name, b, s), (system.name, t.name, b)
                    fired.append((t.name, b, decode_fired(succ)))
            assert fired == [(name, b, decode(succ)) for name, b, succ in stepping.step(state)]
            fired_count += len(fired)
        assert fired_count == len(graph.edges)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_successors_match_reference_on_random_markings(data, sys_tiny, sys_small):
    system = data.draw(st.sampled_from([sys_tiny, sys_small]), label="system")
    net, s = system.net, system.structure
    markings = []
    for _ in range(3):
        per_place = {}
        for place in net.places:
            values = carrier_of(place.sort, s)
            counts = data.draw(st.lists(st.integers(0, 2), min_size=len(values),
                                        max_size=len(values)), label=place.name)
            per_place[place.name] = [v for v, n in zip(values, counts) for _ in range(n)]
        markings.append(Marking(per_place))
    stepper = Stepper(net, s)
    for m in markings + markings[:1]:
        want = _outcome(lambda: reference_successors(net, m, s))
        assert _outcome(lambda: successors(net, m, s)) == want
        assert _outcome(lambda: stepper.successors(m)) == want


def test_a_stepper_keeps_no_enabling_that_only_the_input_places_it_reads_decide(sys_small):
    # hand_over matches waiting and pending_orders and only checks cooked
    # for elm(Y); cook only checks ordered_items for f(y).  The tokens on
    # the matched places stay, those on the checked ones change.
    order = SetValue([Atom("meat"), Atom("rice")])
    rice = SetValue([Atom("rice")])
    fixed = {
        "waiting": [TupleValue([Atom("Alice"), Atom("t1"), order]),
                    TupleValue([Atom("Bob"), Atom("t2"), rice])],
        "pending_orders": [TupleValue([Atom("t1"), order]),
                           TupleValue([Atom("t2"), rice])],
    }
    meat, rice_ = Atom("meat"), Atom("rice")
    varied = [([], []), ([meat], [rice_]), ([rice_], []), ([meat, rice_], [meat]),
              ([rice_, rice_], [meat, rice_]), ([meat, meat, rice_], []), ([], [])]
    markings = [Marking({**fixed, "cooked": cooked, "ordered_items": items})
                for cooked, items in varied]
    net, s = sys_small.net, sys_small.structure
    # g is the identity, so hand_over takes an order's items from cooked
    assert [len(enabled_bindings(net, m, "hand_over", s)) for m in markings] == \
        [0, 0, 1, 2, 1, 2, 0]
    assert stepper_disagreements(net, s, markings + markings[::-1]) == []


def test_needs_of_checked_places_add_up_and_a_partial_table_enables_nothing():
    # k is partial, which instantiate refuses, so the net is resolved here
    sig_text, structure_text, module_text = SHARED_NEEDS
    sig = parse(sig_text).body
    structure = bind_structure(parse(structure_text).body, sig)
    net, problems = resolve_net(parse(module_text).body.inner, sig)
    assert problems == []
    a1, a2 = Atom("a1"), Atom("a2")
    b1, b2, b3 = Atom("b1"), Atom("b2"), Atom("b3")
    src = [b1, b2, b3]
    rs = [[], [a1], [a1, a1], [a1, a2], [a1, a1, a2], [a2, a2], [a1, a1, a1]]
    markings = [Marking({"src": src, "r": r, "s": s_}) for r in rs
                for s_ in ([], [a2], [a1, a2])]
    # y = b1 and z = b1 need two a1 on r and a2 on s; z = b3 is never enabled
    want = Binding({"y": b1, "z": b1})
    m = Marking({"src": src, "r": [a1, a1], "s": [a2]})
    assert want in enabled_bindings(net, m, "t", structure)
    assert want not in enabled_bindings(net, Marking({"src": src, "r": [a1], "s": [a2]}),
                                        "t", structure)
    assert all(b["z"] != b3 for m in markings
               for b in enabled_bindings(net, m, "t", structure))
    assert stepper_disagreements(net, structure, markings + markings[::-1]) == []


def _shared_needs_system():
    """SHARED_NEEDS from tokens enough to fire t more than once; built
    by hand, as instantiate refuses the partial k."""
    sig_text, structure_text, module_text = SHARED_NEEDS
    sig = parse(sig_text).body
    structure = bind_structure(parse(structure_text).body, sig)
    module = parse(module_text).body
    net, problems = resolve_net(module.inner, sig)
    assert problems == []
    a1, a2 = Atom("a1"), Atom("a2")
    initial = Marking({"src": [Atom("b1"), Atom("b2"), Atom("b3")],
                       "r": [a1, a1, a1, a2], "s": [a1, a2, a2]})
    return System("needs", module, structure, initial, net)


def test_a_stepper_enables_as_the_definition_at_every_explored_state(branch, sys_small):
    checked = system_of(CHECKED_ONLY)
    for system in (sys_small, synthetic(branch, 1, 3), system_of((SIGNATURE, STRUCTURE, MODULE)),
                   _shared_needs_system(), checked):
        graph = explore(system)
        assert not graph.truncated and len(graph.edges) > len(graph.markings) > 1, system.name
        assert stepper_disagreements(system.net, system.structure, graph.markings) == [], \
            system.name
    net, s = checked.net, checked.structure
    markings = explore(checked).markings
    assert any(not m.get("pool") and Binding({"Y": SetValue()}) in
               enabled_bindings(net, m, "take", s) for m in markings)
    assert any(not m.get("pool") and Binding({"Y": SetValue(), "Z": SetValue()}) in
               enabled_bindings(net, m, "pair", s) for m in markings)


def test_a_transition_without_input_places_enables_alike_at_every_state():
    # spawn reads no place, so its memo key is the same at every state
    sig = Signature("spawn", sets=("A",))
    a, b = Atom("a"), Atom("b")
    s = make_structure("spawn_s", sig, {"A": (a, b)})
    net, problems = resolve_net(SchematicNet(
        places=(Place("q", SortName("A")),),
        transitions=(Transition("spawn", free=(("x", SortName("A")),)),),
        arcs=(Arc("spawn", "q", (Ident("x"),)),)), sig)
    assert problems == []
    assert net.index.input_ids["spawn"]((3,)) == ()
    markings = [Marking({"q": tokens}) for tokens in ([], [a], [a, b, b], [])]
    assert [len(enabled_bindings(net, m, "spawn", s)) for m in markings] == [2, 2, 2, 2]
    assert stepper_disagreements(net, s, markings) == []


def test_a_place_outside_the_net_is_kept_in_every_successor(sys_small):
    net, s = sys_small.net, sys_small.structure
    elsewhere = Multiset([Atom("x"), Atom("x"), Atom("y")])
    m = Marking({**dict(sys_small.initial.items()), "elsewhere": elsewhere})
    assert not net.has_place("elsewhere")
    want = reference_successors(net, m, s)
    assert want
    for got in (Stepper(net, s).successors(m), successors(net, m, s)):
        assert got == want
        assert all(succ.get("elsewhere") == elsewhere for _, _, succ in got)


def test_a_transition_argument_stands_for_the_node_of_its_name(sys0):
    # an unresolved Transition("enter") is a handle to the net's resolved one
    net, s = sys0.net, sys0.structure
    m = Marking({"offered_tables": [Atom("t1")]})
    handle = Transition("enter")
    want = enabled_bindings(net, m, "enter", s)
    assert want and handle.variables is None
    assert enabled_bindings(net, m, handle, s) == want
    assert fire(net, m, handle, want[0], s) == fire(net, m, "enter", want[0], s)


def _partial():
    """A net whose transition t moves x from p to f(x) on q, where f(a)
    lies outside A and f(b) is undefined: firing x=a fails the sort check,
    x=b the evaluation."""
    sig = Signature("partial", sets=("A",),
                    functions=(("f", (SortName("A"),), SortName("A")),))
    a, b = Atom("a"), Atom("b")
    s = make_structure("partial_s", sig, {"A": (a, b)}, functions={"f": {a: Atom("z")}})
    net, problems = resolve_net(SchematicNet(
        places=(Place("p", SortName("A")), Place("q", SortName("A"))),
        transitions=(Transition("t"),),
        arcs=(Arc("p", "t", (Ident("x"),)), Arc("t", "q", (App("f", (Ident("x"),)),)))),
        sig)
    assert problems == []
    return net, s, a, b


def test_explore_raises_the_first_failing_occurrence():
    net, s, a, b = _partial()

    def explored(tokens):
        system = System("partial", Module("partial_m", "partial", net), s,
                        Marking({"p": tokens}), net)
        return _outcome(lambda: explore(system))

    assert explored([a, b]) == "FiringError: 't' would put z on 'q', outside sort A"
    assert explored([b]) == "EvalError: function 'f' is undefined on (b)"


def test_simulate_raises_the_error_of_the_firing_it_chose():
    net, s, a, b = _partial()
    system = System("partial", Module("partial_m", "partial", net), s,
                    Marking({"p": [a, b]}), net)

    def simulated(x):
        return _outcome(lambda: simulate(system, scripted_policy([("t", Binding({"x": x}))])))

    assert simulated(a) == "FiringError: 't' would put z on 'q', outside sort A"
    assert simulated(b) == "EvalError: function 'f' is undefined on (b)"


def _count_calls(monkeypatch, name):
    """The binding of each call of ``nets.<name>``."""
    calls = []
    original = getattr(nets, name)

    def counting(*args):
        calls.append(args[-2])
        return original(*args)

    monkeypatch.setattr(nets, name, counting)
    return calls


def test_failed_attempts_are_not_remembered(monkeypatch):
    net, s, a, b = _partial()
    m, xa, xb = Marking({"p": [a, b]}), Binding({"x": a}), Binding({"x": b})
    wants = {xa: _outcome(lambda: fire(net, m, "t", xa, s)),
             xb: _outcome(lambda: fire(net, m, "t", xb, s))}
    assert wants[xa] == "FiringError: 't' would put z on 'q', outside sort A"
    assert wants[xb].startswith("EvalError: ")
    calls = counting_occurrences(monkeypatch, net, s)
    stepper = Stepper(net, s)
    state, _ = stepper.encoding(m)
    assert stepper.enabled(state, "t") == [xa, xb]
    for binding, want in wants.items():
        for _ in range(2):
            assert _outcome(lambda: stepper.fire(state, "t", binding)) == want
    assert [b for _, b in calls] == [xa, xa, xb, xb]


def test_a_binding_enabled_at_the_marking_is_checked_for_output_sorts_only(monkeypatch):
    net, s, a, b = _partial()
    m, xa, xb = Marking({"p": [a, b]}), Binding({"x": a}), Binding({"x": b})
    wants = {x: _outcome(lambda: fire(net, m, "t", x, s)) for x in (xa, xb)}
    calls = _count_calls(monkeypatch, "fire")
    stepper = Stepper(net, s)
    state, _ = stepper.encoding(m)
    assert stepper.enabled(state, "t") == [xa, xb]
    for x, want in wants.items():
        assert _outcome(lambda: stepper.fire(state, "t", x)) == want
    assert calls == []


def test_failed_enabling_is_not_remembered():
    sig = Signature("wide", sets=("W",))
    s = make_structure("big", sig, {"W": tuple(Atom(f"w{i:02d}") for i in range(17))})
    net = instantiate(Module("wide_m", "wide", SchematicNet(
        places=(Place("p", PowSort("W")),),
        transitions=(Transition("take"),),
        arcs=(Arc("p", "take", (Ident("X"),)),))), s).net
    m = Marking({"p": [SetValue([Atom("w00")])]})
    stepper = Stepper(net, s)
    state, _ = stepper.encoding(m)
    for _ in range(2):
        with pytest.raises(EvalError, match="exceeds the cap of 16"):
            stepper.enabled(state, "take")


def _input_tokens(net, name, tokens_on):
    return (name, *map(tokens_on, net.index.plans[name].places))


def _slot_tokens(net, tokens_on):
    """The tokens on every slot of a stepper's states, in slot order."""
    return tuple(map(tokens_on, net.index.slots))


def _count_enabling(monkeypatch, net, s):
    """The enabling a stepper runs: the (transition, tokens on its input
    places) of each call of a kernel's ``join``, with the tokens on every
    slot it was called at."""
    calls = []

    def wrap(name, join):
        def counting_join(tokens_on):
            calls.append((_input_tokens(net, name, tokens_on), _slot_tokens(net, tokens_on)))
            return join(tokens_on)
        return counting_join

    wrap_kernels(monkeypatch, net, s, "join", wrap)
    return calls


def test_explore_enables_once_per_transition_and_input_tokens(sys_small, monkeypatch):
    net = sys_small.net
    calls = _count_enabling(monkeypatch, net, sys_small.structure)
    graph = explore(sys_small)
    keys = [key for key, _ in calls]
    distinct = {_input_tokens(net, t.name, m.get)
                for m in graph.markings for t in net.transitions}
    assert len(keys) == len(set(keys)) == len(distinct)
    assert set(keys) == distinct
    assert len(keys) < len(graph.markings) * len(net.transitions) / 5


def test_simulate_enables_again_only_transitions_whose_inputs_changed(sys0, monkeypatch):
    net, s = sys0.net, sys0.structure
    calls = _count_enabling(monkeypatch, net, s)
    run = simulate(sys0, random_policy(seed=3, steps=40))
    events = run.inner.events
    assert len(events) == 40
    trajectory = [sys0.initial]
    for e in events:
        trajectory.append(fire(net, trajectory[-1], e.transition, e.binding, s))
    enabled_at = trajectory[:-1]  # the step limit ends the run, not a deadlock
    keys = [key for key, _ in calls]
    distinct = {_input_tokens(net, t.name, m.get) for m in enabled_at for t in net.transitions}
    assert len(keys) == len(set(keys)) == len(distinct)
    assert set(keys) == distinct
    # at a marking equal to an earlier one every transition is remembered,
    # so each call belongs to the first of its equal markings
    at = [_slot_tokens(net, m.get) for m in enabled_at]
    slot_of = net.index.slot_of
    for (name, *_), tokens in calls:
        k = at.index(tokens)
        if k > 0:
            before = at[k - 1]
            assert any(before[slot_of[p]] != tokens[slot_of[p]]
                       for p in net.index.plans[name].places)
    assert len(keys) < len(enabled_at) * len(net.transitions) / 2
    # a scripted run repeats none of its enabling either
    calls.clear()
    steps = [(e.transition, e.binding) for e in events]
    simulate(sys0, scripted_policy(steps))
    keys = [key for key, _ in calls]
    assert len(keys) == len(set(keys))


def test_explore_fires_on_interned_states(sys_small, monkeypatch):
    # successors are built from remembered ids, not from markings: no
    # Marking.updated, and a multiset only for a change of tokens not yet
    # applied to the multiset it changes
    calls = {Marking: 0, Multiset: 0}
    for cls in calls:
        original = cls.updated

        def counting(self, *args, cls=cls, original=original):
            calls[cls] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, "updated", counting)
    graph = explore(sys_small)
    assert calls[Marking] == 0
    assert 0 < calls[Multiset] < len(graph.edges)


def test_each_stepping_path_keeps_only_its_own_memo(sys_small):
    # step (explore) keeps each key's moves and enabled (simulate) its
    # bindings; neither fills the other's memo
    net, s = sys_small.net, sys_small.structure
    stepping = Stepper(net, s)
    state, _ = stepping.encoding(sys_small.initial)
    seen, frontier = {state}, [state]
    while frontier and len(seen) < 200:
        for _, _, succ in stepping.step(frontier.pop()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    assert stepping._fired and not stepping._bindings
    enabling = Stepper(net, s)
    state, _ = enabling.encoding(sys_small.initial)
    for _ in range(40):
        options = [(t.name, b) for t in enabling.transitions
                   for b in enabling.enabled(state, t.name)]
        if not options:
            break
        _, state = enabling.fire(state, *options[len(options) // 2])
    assert enabling._bindings and not enabling._fired


def test_fire_keeps_each_move_it_fires_and_repeats_it_by_lookup(branch, monkeypatch):
    # a long random run, as simulate takes it: fire keeps the move of each
    # binding it fires, with after tables of its own that its first firing
    # seeds, so firing it again from the ids it left from builds no
    # multiset
    system = synthetic(branch, 64, 3)
    stepper = Stepper(system.net, system.structure)
    state, _ = stepper.encoding(system.initial)
    rng = random.Random(1)
    left_from = {}
    for _ in range(300):
        options = [(t.name, b) for t in stepper.transitions
                   for b in stepper.enabled(state, t.name)]
        assert options
        move = rng.choice(options)
        left_from.setdefault(move, state)
        _, state = stepper.fire(state, *move)
    assert set(stepper._moves) == set(left_from)
    assert stepper._bindings and not stepper._fired and not stepper._deltas
    calls = []
    original = Multiset.updated

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(Multiset, "updated", counting)
    for move, before in left_from.items():
        stepper.fire(before, *move)
    assert calls == []


def test_a_change_that_puts_back_what_it_takes_is_left_out(sys_small):
    # select reads the menu token: it takes m off menu and puts m back.
    # The occurrence keeps both, so a run still consumes and produces a
    # menu condition, but no move, kept by fire or by step, changes the
    # slot of menu.
    net, s = sys_small.net, sys_small.structure
    stepper = Stepper(net, s)
    state, decode = stepper.encoding(sys_small.initial)
    while not (selects := stepper.enabled(state, "select")):
        name = next(t.name for t in stepper.transitions if stepper.enabled(state, t.name))
        _, state = stepper.fire(state, name, stepper.enabled(state, name)[0])
    menu = net.index.slot_of["menu"]
    stepping = Stepper(net, s)
    at, _ = stepping.encoding(decode(state))
    stepping.step(at)
    for b in selects:
        _, succ = stepper.fire(state, "select", b)
        for kept in (stepper, stepping):
            (consumed, produced), changes = kept._moves[("select", b)]
            assert consumed["menu"] == produced["menu"]
            assert changes and menu not in [slot for slot, _, _, _ in changes]
        assert succ[menu] == state[menu]
        assert decode(succ) == fire(net, decode(state), "select", b, s)


def test_a_stepper_over_an_unresolved_net_raises_sort_error(sys_tiny):
    # the parsed module's net, whose transitions resolve_net has not typed
    net, s, m = sys_tiny.module.inner, sys_tiny.structure, sys_tiny.initial
    first = min(t.name for t in net.transitions)
    unresolved = f"^transition {first!r} is unresolved; call resolve_net first$"
    with pytest.raises(SortError, match=unresolved):
        Stepper(net, s)
    with pytest.raises(SortError, match=unresolved):
        successors(net, m, s)
    system = replace(sys_tiny, net=net)
    with pytest.raises(SortError, match=unresolved):
        explore(system)
    with pytest.raises(SortError, match=unresolved):
        simulate(system, random_policy(seed=0, steps=3))


def test_enabled_rejects_a_name_the_net_lacks(sys_tiny):
    stepper = Stepper(sys_tiny.net, sys_tiny.structure)
    state, _ = stepper.encoding(sys_tiny.initial)
    with pytest.raises(KeyError, match="no transition 'nope'"):
        stepper.enabled(state, "nope")

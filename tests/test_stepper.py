"""The per-call memo of enabling and occurrences (``nets.Stepper``):
successors against the oracle that enables and fires every transition
afresh at each marking (``support.reference_successors``), its edges,
and call counts that show what it saves."""

import pytest
from hypothesis import given, settings, strategies as st

from hknet import (App, Arc, Atom, Binding, EvalError, FiringError, Ident,
                   Marking, Module, Multiset, Place, PowSort, SchematicNet, SetValue,
                   Signature, SortName, System, Transition, carrier_of,
                   enabled_bindings, explore, fire, instantiate,
                   make_structure, random_policy, resolve_net,
                   scripted_policy, simulate, successors)
from hknet import nets
from hknet.nets import Stepper, checked_occurrence

from conftest import synthetic
from support import reference_successors


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
    assert Stepper(net, s).enabled(m, handle) == want
    assert Stepper(net, s).occurrence(m, handle, want[0]) == \
        checked_occurrence(net, m, "enter", want[0], s)


def test_a_remembered_occurrence_is_checked_against_the_current_marking(sys0):
    net, s = sys0.net, sys0.structure
    b = Binding({"t": Atom("t1")})
    stepper = Stepper(net, s)
    stepper.occurrence(sys0.initial, "offer_table", b)
    lacking = Marking({"free_tables": [Atom("t2")]})
    want = _outcome(lambda: fire(net, lacking, "offer_table", b, s))
    assert want.startswith("FiringError: 'offer_table' is not enabled")
    assert _outcome(lambda: stepper.occurrence(lacking, "offer_table", b)) == want
    # and the remembered tokens still serve a marking that holds them
    assert stepper.occurrence(sys0.initial, "offer_table", b) == \
        checked_occurrence(net, sys0.initial, "offer_table", b, s)


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


def _count_checks(monkeypatch):
    """The binding of each call of ``nets.checked_occurrence``."""
    calls = []
    original = nets.checked_occurrence

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(nets, "checked_occurrence", counting)
    return calls


def test_failed_attempts_are_not_remembered(monkeypatch):
    net, s, a, b = _partial()
    m, xa, xb = Marking({"p": [a, b]}), Binding({"x": a}), Binding({"x": b})
    wants = {xa: _outcome(lambda: fire(net, m, "t", xa, s)),
             xb: _outcome(lambda: fire(net, m, "t", xb, s))}
    assert wants[xa] == "FiringError: 't' would put z on 'q', outside sort A"
    assert wants[xb].startswith("EvalError: ")
    calls = _count_checks(monkeypatch)
    stepper = Stepper(net, s)
    for binding, want in wants.items():
        for _ in range(2):
            assert _outcome(lambda: stepper.occurrence(m, "t", binding)) == want
    assert calls == [xa, xa, xb, xb]


def test_a_binding_enabled_at_the_marking_is_checked_for_output_sorts_only(monkeypatch):
    net, s, a, b = _partial()
    m, xa, xb = Marking({"p": [a, b]}), Binding({"x": a}), Binding({"x": b})
    wants = {x: _outcome(lambda: fire(net, m, "t", x, s)) for x in (xa, xb)}
    calls = _count_checks(monkeypatch)
    stepper = Stepper(net, s)
    assert stepper.enabled(m, "t") == [xa, xb]
    for x, want in wants.items():
        assert _outcome(lambda: stepper.occurrence(m, "t", x)) == want
    assert calls == []
    # at another marking, even an equal one, nothing is known to be enabled
    assert _outcome(lambda: stepper.occurrence(Marking({"p": [a, b]}), "t", xa)) == wants[xa]
    assert calls == [xa]


def test_failed_enabling_is_not_remembered():
    sig = Signature("wide", sets=("W",))
    s = make_structure("big", sig, {"W": tuple(Atom(f"w{i:02d}") for i in range(17))})
    net = instantiate(Module("wide_m", "wide", SchematicNet(
        places=(Place("p", PowSort("W")),),
        transitions=(Transition("take"),),
        arcs=(Arc("p", "take", (Ident("X"),)),))), s).net
    m = Marking({"p": [SetValue([Atom("w00")])]})
    stepper = Stepper(net, s)
    for _ in range(2):
        with pytest.raises(EvalError, match="exceeds the cap of 16"):
            stepper.enabled(m, "take")


def _input_tokens(net, name, m):
    return (name, *map(m.get, net.index.plans[name].places))


def _count_enabling(monkeypatch, net):
    """The (transition, tokens on its input places) of each call of
    ``nets.enabled_bindings``, with the marking it was called at."""
    calls = []
    original = nets.enabled_bindings

    def counting(net_, m, transition, s):
        name = transition if isinstance(transition, str) else transition.name
        calls.append((_input_tokens(net, name, m), m))
        return original(net_, m, transition, s)

    monkeypatch.setattr(nets, "enabled_bindings", counting)
    return calls


def test_explore_enables_once_per_transition_and_input_tokens(sys_small, monkeypatch):
    net = sys_small.net
    calls = _count_enabling(monkeypatch, net)
    graph = explore(sys_small)
    keys = [key for key, _ in calls]
    distinct = {_input_tokens(net, t.name, m)
                for m in graph.markings for t in net.transitions}
    assert len(keys) == len(set(keys)) == len(distinct)
    assert set(keys) == distinct
    assert len(keys) < len(graph.markings) * len(net.transitions) / 5


def test_simulate_enables_again_only_transitions_whose_inputs_changed(sys0, monkeypatch):
    net, s = sys0.net, sys0.structure
    calls = _count_enabling(monkeypatch, net)
    run = simulate(sys0, random_policy(seed=3, steps=40))
    events = run.inner.events
    assert len(events) == 40
    trajectory = [sys0.initial]
    for e in events:
        trajectory.append(fire(net, trajectory[-1], e.transition, e.binding, s))
    enabled_at = trajectory[:-1]  # the step limit ends the run, not a deadlock
    keys = [key for key, _ in calls]
    distinct = {_input_tokens(net, t.name, m) for m in enabled_at for t in net.transitions}
    assert len(keys) == len(set(keys)) == len(distinct)
    assert set(keys) == distinct
    # at a marking equal to an earlier one every transition is remembered,
    # so each call belongs to the first of its equal markings
    for (name, *_), m in calls:
        k = enabled_at.index(m)
        if k > 0:
            before = enabled_at[k - 1]
            assert any(before.get(p) != m.get(p) for p in net.index.plans[name].places)
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

"""A stateful test of ``nets.Stepper``: one stepper per system is asked,
in any order, for the bindings of a transition at a state it has seen
(``enabled``), for the occurrence and successor of one of them
(``fire``) and for every successor of a state (``step``).  Each answer
is checked against the definitions on the decoded marking, so whatever
the stepper kept from earlier questions must still hold for this one."""

from functools import cache

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from hknet import compose_all, instantiate, bind_structure, nets
from hknet.nets import Stepper

from conftest import load
from support import CHECKED_ONLY, brute_force_bindings, reference_successors, system_of


@cache
def _systems():
    branch = compose_all([load(name).body for name in ("entry.hk", "guest_area.hk", "kitchen.hk")])
    s0_small = bind_structure(load("s0_small.hks").body, load("sigma0.hksig").body)
    return (instantiate(branch, s0_small, name="branch_small"), system_of(CHECKED_ONLY))


class _Walk:
    """One system's stepper and the states it has handed out, each with
    the marking it decodes to."""

    def __init__(self, system):
        self.system = system
        self.stepper = Stepper(system.net, system.structure)
        state, self.decode = self.stepper.encoding(system.initial)
        self.states = {state: system.initial}

    def __repr__(self) -> str:
        return f"<walk on {self.system.name}>"

    def reached(self, state, marking) -> None:
        """Record a state the stepper led to; it must decode to the
        marking the definition gives."""
        assert self.decode(state) == marking
        self.states.setdefault(state, marking)


class StepperMachine(RuleBasedStateMachine):

    def __init__(self):
        super().__init__()
        self.walks = [_Walk(system) for system in _systems()]

    def _pick(self, data):
        walk = data.draw(st.sampled_from(self.walks), label="system")
        state = data.draw(st.sampled_from(sorted(walk.states)), label="state")
        return walk, state, walk.states[state]

    @rule(data=st.data())
    def enabled(self, data):
        walk, state, m = self._pick(data)
        net, s = walk.system.net, walk.system.structure
        t = data.draw(st.sampled_from(sorted(net.transitions, key=lambda t: t.name)),
                      label="transition")
        assert walk.stepper.enabled(state, t.name) == brute_force_bindings(net, m, t, s)

    @rule(data=st.data())
    def fire(self, data):
        walk, state, m = self._pick(data)
        net, s = walk.system.net, walk.system.structure
        options = [(t.name, b) for t in walk.stepper.transitions
                   for b in walk.stepper.enabled(state, t.name)]
        if not options:
            return
        name, b = data.draw(st.sampled_from(options), label="move")
        found, succ = walk.stepper.fire(state, name, b)
        assert found == nets.occurrence(net, name, b, s)
        walk.reached(succ, nets.fire(net, m, name, b, s))

    @rule(data=st.data())
    def step(self, data):
        walk, state, m = self._pick(data)
        want = reference_successors(walk.system.net, m, walk.system.structure)
        got = walk.stepper.step(state)
        assert [(name, b) for name, b, _ in got] == [(name, b) for name, b, _ in want]
        for (_, _, succ), (_, _, marking) in zip(got, want):
            walk.reached(succ, marking)

    @invariant()
    def equal_markings_are_one_state(self):
        for walk in self.walks:
            assert len(set(walk.states.values())) == len(walk.states)
            for state, m in walk.states.items():
                assert walk.stepper.encoding(m)[0] == state


TestStepperMachine = StepperMachine.TestCase
TestStepperMachine.settings = settings(max_examples=25, stateful_step_count=30,
                                       derandomize=True, deadline=None)

"""Transitions compiled against a structure.

The terms of a resolved transition and the structure that interprets
them are fixed, so :class:`Kernel` turns each term into a closure once:
carriers, constants and function tables are looked up when it is built,
and a match step of the join knows which variables of its pattern
earlier steps bind (:class:`nets.MatchPlan`).  :func:`terms.evaluate`,
:func:`terms.eval_guard` and :func:`signature.value_in_sort` stay the
definition: what these closures do not handle, and every lookup that
fails when they are built, is left to them, so an error arises when and
where they raise it.  ``nets`` keeps one kernel per transition on the
structure (``nets._kernel``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import EvalError
from .signature import (PowSort, Sort, SortName, Structure, TupleSort,
                        carrier_of, carrier_rank, inverse_table, value_in_sort)
from .terms import (App, Binding, Elm, Guard, GuardAtom, SetTerm, Term,
                    TupleTerm, Var, eval_guard, evaluate, term_variables)
from .values import Multiset, SetValue, TupleValue, Value, render_value

if TYPE_CHECKING:
    from .nets import Arc, MatchPlan, NetIndex

Tokens = dict[str, dict[Value, int]]  # {place: {value: count}}
TokensOn = Callable[[str], Multiset]  # place -> the multiset on it
Env = dict[str, Value]  # a binding as a plain dict; evaluate reads it too


class Kernel:
    """One resolved transition compiled against one structure:

    * ``join(tokens_on)`` is :func:`nets.join_bindings` at the tokens
      ``tokens_on(place)`` gives;
    * ``holds(env)`` is :func:`terms.eval_guard` of its guard and
      ``occurrence(env)`` is :func:`nets.occurrence`, under a binding
      given as a dict that assigns every variable of the transition; a
      variable it leaves out raises KeyError;
    * ``sorts`` holds, per sorted output place, the membership test of
      its sort (:func:`signature.value_in_sort`).

    The closures keep nothing between calls, and a kernel never changes
    once built.  They keep neither the net nor its plan, so that the
    structure, which holds a kernel only as long as its plan lives,
    drops it with the net."""

    __slots__ = ("join", "holds", "occurrence", "sorts")

    def __init__(self, index: NetIndex, name: str, s: Structure):
        plan = index.plans[name]
        names = frozenset(plan.names)
        self.join = _join(plan, s, names)
        self.holds = _guard(index.transitions[name].guard, s, names)
        out_of = index.arcs_out_of.get(name, ())
        self.occurrence = _occurrence(index.arcs_into.get(name, ()), out_of, s, names)
        self.sorts = {a.target: _member(place.sort, s) for a in out_of
                      if (place := index.places.get(a.target)) is not None
                      and place.sort is not None}


def _interpreted(term: Term, s: Structure) -> Callable[[Env], Value]:
    return lambda env: evaluate(term, s, env)


def _value(term: Term, s: Structure, names: frozenset[str]) -> Callable[[Env], Value]:
    """``evaluate(term, s, env)`` as a closure of ``env``, which assigns
    each of ``names`` when called; any other variable is left to the
    interpreter.  A term without variables is evaluated here, once."""
    if isinstance(term, Var):
        return itemgetter(term.name) if term.name in names else _interpreted(term, s)
    if not term_variables(term):
        try:
            value = evaluate(term, s)
        except EvalError:
            return _interpreted(term, s)
        return lambda env: value
    if isinstance(term, App) and term.function in s.functions:
        return _application(term, s.functions[term.function],
                            [_value(a, s, names) for a in term.args])
    if isinstance(term, TupleTerm):
        items = [_value(item, s, names) for item in term.items]
        return lambda env: TupleValue([item(env) for item in items])
    if isinstance(term, SetTerm):
        elements = [_value(e, s, names) for e in term.elements]
        return lambda env: SetValue([e(env) for e in elements])
    return _interpreted(term, s)


def _application(term: App, table: Mapping[tuple[Value, ...], Value],
                 args: list[Callable[[Env], Value]]) -> Callable[[Env], Value]:
    function, span = term.function, term.span

    def apply(env: Env) -> Value:
        key = tuple([arg(env) for arg in args])
        try:
            return table[key]
        except KeyError:
            raise EvalError(f"function {function!r} is undefined on "
                            f"({', '.join(map(render_value, key))})", span) from None
    return apply


def _tokens(term: Term, s: Structure,
            names: frozenset[str]) -> Callable[[Env], tuple[Value, ...]]:
    """``term_tokens(term, s, env)`` as a closure of ``env``."""
    if not isinstance(term, Elm):
        value = _value(term, s, names)
        return lambda env: (value(env),)
    inner, span = _value(term.inner, s, names), term.span

    def elements(env: Env) -> tuple[Value, ...]:
        v = inner(env)
        if not isinstance(v, SetValue):
            raise EvalError(f"elm expects a set value, got {render_value(v)}", span)
        return v.elements
    return elements


def _guard(guard: Guard, s: Structure, names: frozenset[str]) -> Callable[[Env], bool]:
    """``eval_guard(guard, s, env)`` as a closure of ``env``."""
    atoms = [_atom(atom, s, names) for atom in guard.atoms]
    if len(atoms) == 1:
        return atoms[0]

    def holds(env: Env) -> bool:
        for atom in atoms:
            if not atom(env):
                return False
        return True
    return holds


def _atom(atom: GuardAtom, s: Structure, names: frozenset[str]) -> Callable[[Env], bool]:
    left, right, span = _value(atom.left, s, names), _value(atom.right, s, names), atom.span
    if atom.op == "=":
        return lambda env: left(env) == right(env)
    if atom.op == "in":
        def member(env: Env) -> bool:
            value, within = left(env), right(env)
            if not isinstance(within, SetValue):
                raise EvalError(
                    f"'in' needs a set on the right, got {render_value(within)}", span)
            return value in within
        return member
    if atom.op == "sub":
        def subset(env: Env) -> bool:
            part, whole = left(env), right(env)
            if not isinstance(part, SetValue) or not isinstance(whole, SetValue):
                raise EvalError("'sub' compares two set values", span)
            return part.issubset(whole)
        return subset
    alone = Guard((atom,))  # an operator no parser produces
    return lambda env: eval_guard(alone, s, env)


def _member(sort: Sort, s: Structure) -> Callable[[Value], bool]:
    """``value_in_sort(v, sort, s)`` as a closure of ``v``."""
    try:
        if isinstance(sort, SortName):
            return carrier_rank(sort, s).__contains__
        if isinstance(sort, PowSort):
            base = carrier_rank(SortName(sort.base), s)
            return lambda v: isinstance(v, SetValue) and all(map(base.__contains__, v))
        if isinstance(sort, TupleSort):
            parts = [_member(c, s) for c in sort.components]
            return lambda v: (isinstance(v, TupleValue) and len(v.items) == len(parts)
                              and all(p(x) for p, x in zip(parts, v.items)))
    except EvalError:
        pass
    return lambda v: value_in_sort(v, sort, s)


def _occurrence(into: Iterable[Arc], out_of: Iterable[Arc], s: Structure,
                names: frozenset[str]) -> Callable[[Env], tuple[Tokens, Tokens]]:
    inputs = [(a.source, [_tokens(t, s, names) for t in a.inscription]) for a in into]
    outputs = [(a.target, [_tokens(t, s, names) for t in a.inscription]) for a in out_of]

    def occurrence(env: Env) -> tuple[Tokens, Tokens]:
        consumed: Tokens = {}
        produced: Tokens = {}
        for tokens, arcs in ((consumed, inputs), (produced, outputs)):
            for place, terms in arcs:
                counts = tokens.setdefault(place, {})
                for term in terms:
                    for v in term(env):
                        counts[v] = counts.get(v, 0) + 1
        return consumed, produced
    return occurrence


# A level of a compiled join runs the checks that become decidable there
# and then its step, which calls the next level per candidate.  It is
# called as run(binding, have, taken, found): the binding being built, as
# a dict, and per matched place the tokens on it and the counts taken
# off them by the steps and checks above; found collects the results.
Level = Callable[[Env, list, list, list], None]


def _join(plan: MatchPlan, s: Structure,
          variables: frozenset[str]) -> Callable[[TokensOn], tuple]:
    """:func:`nets.join_bindings` of ``plan``, whose variables are
    ``variables``, under ``s`` as a closure of the tokens on each place."""
    names, matched, steps, checks = plan.names, plan.matched, plan.steps, plan.checks
    try:
        ranks = [carrier_rank(sort, s) for sort in plan.sorts]
    except EvalError as exc:
        message, span = exc.message, exc.span

        def failing(tokens_on: TokensOn) -> tuple:
            if all(tokens_on(place) for place in matched):
                raise EvalError(message, span)
            return [], None
        return failing
    rank_of = dict(zip(names, ranks))
    slot = {place: i for i, place in enumerate(matched)}
    # the levels whose step or checks count tokens taken off each place
    counted: dict[str, list[int]] = {place: [] for place in matched}
    for level, step in enumerate(steps):
        if step[0] == "match":
            counted[step[1]].append(level)
    for level, level_checks in enumerate(checks):
        for check in level_checks:
            if isinstance(check, tuple):
                counted[check[0]].append(level)
    bound_before, known = [], set()
    for step in steps:
        bound_before.append(set(known))
        known |= term_variables(step[2]) if step[0] == "match" else {step[1]}

    run = _leaf(plan, s, variables)
    for level in reversed(range(len(steps) + 1)):
        if level < len(steps):
            step = steps[level]
            if step[0] == "match":
                _, place, pattern = step
                run = _match_step(slot[place], _pattern(pattern, bound_before[level], rank_of, s),
                                  counted[place] == [level], run)
            elif step[0] == "preimage":
                run = _preimage_step(step, rank_of[step[1]], s, variables, run)
            else:
                run = _carrier_step(step[1], carrier_of(step[2], s), run)
        if checks[level]:
            run = _checks(checks[level], slot, s, variables, run)

    def key(values: tuple[Value, ...]) -> list[int]:
        return [rank[v] for rank, v in zip(ranks, values)]

    residual = bool(plan.residual)  # the closure must not keep the plan

    def join(tokens_on: TokensOn) -> tuple:
        have = [tokens_on(place).counts() for place in matched]
        if not all(have):
            return [], None
        found: list = []
        run({}, have, [{} for _ in matched], found)
        if not residual:
            found.sort(key=key)
            return [Binding._from_sorted(tuple(zip(names, v))) for v in found], None
        found.sort(key=lambda entry: key(entry[0]))
        return ([Binding._from_sorted(tuple(zip(names, v))) for v, _ in found],
                [wanted for _, wanted in found])
    return join


def _leaf(plan: MatchPlan, s: Structure, variables: frozenset[str]) -> Level:
    """The last level: the values of a complete binding, with the tokens
    its residual terms need if the plan has any; a binding under which
    one of them raises is left out."""
    names = plan.names

    def values(binding: Env) -> tuple[Value, ...]:
        return tuple(map(binding.__getitem__, names))
    if not plan.residual:
        def leaf(binding, have, taken, found):
            found.append(values(binding))
        return leaf
    needs = [(place, _tokens(term, s, variables)) for place, term in plan.residual]

    def leaf_with_needs(binding, have, taken, found):
        wanted: Tokens = {}
        try:
            for place, tokens in needs:
                counts = wanted.setdefault(place, {})
                for v in tokens(binding):
                    counts[v] = counts.get(v, 0) + 1
        except EvalError:
            return
        found.append((values(binding), wanted))
    return leaf_with_needs


def _pattern(term: Term, bound: set[str], rank_of: Mapping[str, Mapping[Value, int]],
             s: Structure) -> Callable[[Value, Env], bool]:
    """Whether a token matches a match step's pattern, binding the
    pattern's fresh variables; ``bound`` holds the variables bound
    before it and gains those it binds."""
    if isinstance(term, Var):
        name = term.name
        if name in bound:
            return lambda value, binding: binding[name] == value
        bound.add(name)
        rank = rank_of[name]

        def fresh(value: Value, binding: Env) -> bool:
            if value in rank:
                binding[name] = value
                return True
            return False
        return fresh
    if isinstance(term, TupleTerm):
        items = [_pattern(item, bound, rank_of, s) for item in term.items]
        width = len(items)

        def components(value: Value, binding: Env) -> bool:
            if not isinstance(value, TupleValue) or len(value.items) != width:
                return False
            for item, v in zip(items, value.items):
                if not item(v, binding):
                    return False
            return True
        return components
    constant = s.constants.get(term.name)  # None, which no token equals, if unset
    return lambda value, binding: constant == value


def _match_step(i: int, matches: Callable[[Value, Env], bool], alone: bool,
                then: Level) -> Level:
    """Each distinct token on matched place ``i`` that the pattern
    matches; unless the step is ``alone`` in reading the place, only
    those not yet taken off it, counted as taken while ``then`` runs."""
    if alone:
        def match_alone(binding, have, taken, found):
            for value in have[i]:
                if matches(value, binding):
                    then(binding, have, taken, found)
        return match_alone

    def match(binding, have, taken, found):
        counts = taken[i]
        for value, available in have[i].items():
            if counts.get(value, 0) < available and matches(value, binding):
                counts[value] = counts.get(value, 0) + 1
                then(binding, have, taken, found)
                counts[value] -= 1
    return match


def _preimage_step(step: tuple, rank: Mapping[Value, int], s: Structure,
                   variables: frozenset[str], then: Level) -> Level:
    """The arguments inside the variable's carrier that the function maps
    to the term's value; nothing if the term raises."""
    _, name, function, term = step
    inverse = {target: kept for target, args in inverse_table(function, s).items()
               if (kept := tuple(v for v in args if v in rank))}
    target_of = _value(term, s, variables)

    def preimage(binding, have, taken, found):
        try:
            target = target_of(binding)
        except EvalError:
            return
        for value in inverse.get(target, ()):
            binding[name] = value
            then(binding, have, taken, found)
    return preimage


def _carrier_step(name: str, values: tuple[Value, ...], then: Level) -> Level:
    def carrier(binding, have, taken, found):
        for value in values:
            binding[name] = value
            then(binding, have, taken, found)
    return carrier


def _checks(level_checks: tuple, slot: Mapping[str, int], s: Structure,
            variables: frozenset[str], then: Level) -> Level:
    """Run ``then`` if every guard atom holds and every term's tokens are
    still on its matched place, taking them off while it runs; a check
    that raises fails."""
    tests = [(None, _guard(c, s, variables)) if isinstance(c, Guard)
             else (slot[c[0]], _tokens(c[1], s, variables)) for c in level_checks]
    if all(i is None for i, _ in tests):
        guards = [test for _, test in tests]

        def guarded(binding, have, taken, found):
            try:
                for guard in guards:
                    if not guard(binding):
                        return
            except EvalError:
                return
            then(binding, have, taken, found)
        return guarded

    def admitted(binding, have, taken, took) -> bool:
        try:
            for i, test in tests:
                if i is None:
                    if not test(binding):
                        return False
                    continue
                counts, available = taken[i], have[i]
                for v in test(binding):
                    n = counts[v] = counts.get(v, 0) + 1
                    took.append((counts, v))
                    if n > available.get(v, 0):
                        return False
        except EvalError:
            return False
        return True

    def checked(binding, have, taken, found):
        took: list = []
        if admitted(binding, have, taken, took):
            then(binding, have, taken, found)
        for counts, v in took:
            counts[v] -= 1
    return checked

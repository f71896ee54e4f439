"""Transitions compiled against a structure.

The terms of a resolved transition and the structure that interprets
them are fixed, so :class:`Kernel` turns each guard atom and arc term
into one closure, once, looking up carriers, constants and function
tables as it is built.  The join and the occurrence rule each run as
one Python function per transition, generated from a shape alone: the
join's from its :class:`nets.MatchPlan`, a nested loop per step with
pattern tests inline and each level's checks calling those closures;
the occurrence's from its arcs, straight-line code that reads the
binding, builds tuples and counts tokens inline, calling a closure only
for a term it does not write out.  Everything the model gives enters
these functions as arguments, so their sources name nothing of the
model, and the compiled code is kept once per process for every
transition of the same shape.  :func:`terms.evaluate`,
:func:`terms.eval_atom` and :func:`signature.value_in_sort` stay the
definition: what the closures do not handle, and every lookup that
fails when they are built, is left to them, so an error arises when
and where they raise it.  ``nets`` keeps one kernel per transition on
the structure (``nets._kernel``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING

from .errors import EvalError
from .signature import (PowSort, Sort, SortName, Structure, TupleSort,
                        carrier_of, carrier_rank, inverse_table, value_in_sort)
from .terms import (App, Binding, Elm, GuardAtom, SetTerm, Term, TupleTerm, Var,
                    eval_atom, evaluate)
from .values import Multiset, SetValue, TupleValue, Value, render_value

if TYPE_CHECKING:
    from .nets import Arc, MatchPlan, NetIndex

Tokens = dict[str, dict[Value, int]]  # {place: {value: count}}
TokensOn = Callable[[str], Multiset]  # place -> the multiset on it
Env = dict[str, Value]  # a binding as a plain dict; evaluate reads it too


class Kernel:
    """One resolved transition compiled against one structure:

    * ``join(tokens_on)`` is :func:`nets.enabled_bindings` at the tokens
      ``tokens_on(place)`` gives, such as a marking's ``get``;
    * ``holds(env)`` is :func:`terms.eval_guard` of its guard and
      ``occurrence(env)`` is :func:`nets.occurrence`, under a binding
      given as a dict that assigns every variable of the transition; a
      variable it leaves out raises KeyError;
    * ``sorts`` holds, per sorted output place, the membership test of
      its sort (:func:`signature.value_in_sort`).

    The three share one closure per guard atom and arc term
    (:func:`_closures`).  ``join`` is generated from the shape of the
    plan and ``occurrence`` from the shape of the arcs; their compiled
    code, shared by every transition of the same shape, holds nothing
    of the model, which it gets as arguments.  The functions keep
    nothing between calls, nor the net or its plan, so that the
    structure, which holds a kernel only as long as its plan lives,
    drops it with the net; a kernel never changes once built."""

    __slots__ = ("join", "holds", "occurrence", "sorts")

    def __init__(self, index: NetIndex, name: str, s: Structure):
        plan = index.plans[name]
        names = frozenset(plan.names)
        atoms = index.transitions[name].guard.atoms
        into, out_of = index.arcs_into.get(name, ()), index.arcs_out_of.get(name, ())
        closures = _closures(atoms, into + out_of, s, names)
        self.join = _join(plan, s, names, closures)
        self.holds = _conjunction([closures[id(atom)] for atom in atoms])
        self.occurrence = _occurrence(into, out_of, names, closures)
        self.sorts = {a.target: _member(place.sort, s) for a in out_of
                      if (place := index.places.get(a.target)) is not None
                      and place.sort is not None}


def _closures(atoms: Iterable[GuardAtom], arcs: Iterable[Arc], s: Structure,
              names: frozenset[str]) -> dict[int, Callable]:
    """One closure per guard atom (:func:`_atom`) and per term on ``arcs``
    (:func:`_tokens`), keyed by identity: hashing terms costs more."""
    closures = {}
    for atom in atoms:
        closures[id(atom)] = _atom(atom, s, names)
    for arc in arcs:
        for term in arc.inscription:
            closures[id(term)] = _tokens(term, s, names)
    return closures


def _value(term: Term, s: Structure, names: frozenset[str]) -> Callable[[Env], Value]:
    """``evaluate(term, s, env)`` as a closure of ``env``, which assigns
    each of ``names`` when called; any other variable is left to the
    interpreter.  A term without variables is evaluated here, once."""
    return _folded(term, s, names)[0]


_NO_VALUE = object()  # what _folded gives for a term with variables or one that fails


def _folded(term: Term, s: Structure,
            names: frozenset[str]) -> tuple[Callable[[Env], Value], object]:
    """:func:`_value` of ``term``, and its value if it has no variables
    and evaluates, else ``_NO_VALUE``.  The parts are compiled first, and
    a term whose parts all have values is evaluated from them, so no
    subterm is walked twice."""
    if isinstance(term, Var):
        closure = itemgetter(term.name) if term.name in names else partial(evaluate, term, s)
        return closure, _NO_VALUE
    if isinstance(term, App) and term.function in s.functions:
        parts = [_folded(a, s, names) for a in term.args]
        closure = _application(term, s.functions[term.function], [p for p, _ in parts])
    elif isinstance(term, TupleTerm):
        parts = [_folded(item, s, names) for item in term.items]
        items = [p for p, _ in parts]
        closure = lambda env: TupleValue([item(env) for item in items])
    elif isinstance(term, SetTerm):
        parts = [_folded(e, s, names) for e in term.elements]
        elements = [p for p, _ in parts]
        closure = lambda env: SetValue([e(env) for e in elements])
    else:  # a constant or symbol; evaluate refuses elm, identifiers and unknown functions
        parts, closure = [], partial(evaluate, term, s)
    if any(value is _NO_VALUE for _, value in parts):
        return closure, _NO_VALUE
    try:
        value = closure({})
    except EvalError:
        return partial(evaluate, term, s), _NO_VALUE
    return (lambda env: value), value


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


def _conjunction(atoms: list[Callable[[Env], bool]]) -> Callable[[Env], bool]:
    """``eval_guard`` of a guard whose atoms compiled to ``atoms``."""
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
    return lambda env: eval_atom(atom, s, env)  # an operator no parser produces


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
            arity = len(parts)

            def member(v: Value) -> bool:
                # a plain loop: a generator per call costs about twice the time
                if not isinstance(v, TupleValue) or len(v.items) != arity:
                    return False
                for part, x in zip(parts, v.items):
                    if not part(x):
                        return False
                return True
            return member
    except EvalError:
        pass
    return lambda v: value_in_sort(v, sort, s)


# A join and an occurrence run as Python source written from a shape
# alone (see _shape and _firing_shape): the join is one nested loop per
# step with its pattern tests inline, each level's checks before its
# step, and a leaf that appends (rank key, binding pairs); the
# occurrence is straight-line code in term order.  What the model gives
# (place and variable names, ranks, carriers, constants, inverse tables,
# term and guard closures) enters as an argument of the factory the
# source defines, so the source names nothing of the model, and every
# transition of one shape, under any structure, shares one compiled
# factory.

# join and firing factories kept compiled per process: two per transition,
# so shapes for 256 transitions
_FACTORIES_MAX = 512
_factories: dict[tuple, Callable] = {}


def _factory(shape: tuple) -> Callable:
    """The factory ``make`` of the source of ``shape``, a firing's if it
    is tagged ``"F"``, else a join's, compiled on first use."""
    factory = _factories.get(shape)
    if factory is None:
        factory = _compile(_firing_source(shape) if shape[0] == "F" else _Source(shape).text)
        if len(_factories) >= _FACTORIES_MAX:
            _factories.clear()
        # two threads racing here compile equal code; the first stored stays
        factory = _factories.setdefault(shape, factory)
    return factory


def _compile(source: str) -> Callable:
    namespace = {"EvalError": EvalError, "TupleValue": TupleValue, "take": _take,
                 "held": _held, "first": itemgetter(0), "from_sorted": Binding._from_sorted,
                 "NOTHING": object()}  # a preimage target no inverse table holds
    exec(compile(source, "<hknet kernel>", "exec"), namespace)
    return namespace["make"]


def _take(taken: dict[Value, int], have: Mapping[Value, int], tokens: Iterable[Value],
          took: list) -> bool:
    """Count ``tokens`` as taken off a matched place holding ``have``,
    noting each in ``took``; whether they all were still there."""
    for v in tokens:
        n = taken[v] = taken.get(v, 0) + 1
        took.append((taken, v))
        if n > have.get(v, 0):
            return False
    return True


def _held(have: Mapping[Value, int], tokens: Iterable[Value]) -> bool:
    """Whether each of ``tokens`` is on a place holding ``have``: the
    check of a term alone in reading its place, which wants each token
    once, as a term yields one value or the distinct elements of a set."""
    for v in tokens:
        if v not in have:
            return False
    return True


def _join(plan: MatchPlan, s: Structure, variables: frozenset[str],
          closures: Mapping[int, Callable]) -> Callable[[TokensOn], list[Binding]]:
    """:func:`nets.enabled_bindings` of ``plan``, whose variables are
    ``variables``, under ``s`` as a function of the tokens on each place,
    calling the :func:`_closures` of its checks."""
    matched = plan.matched
    try:
        ranks = [carrier_rank(sort, s) for sort in plan.sorts]
    except EvalError as exc:
        message, span = exc.message, exc.span

        def failing(tokens_on: TokensOn) -> list[Binding]:
            if all(tokens_on(place) for place in matched):
                raise EvalError(message, span)
            return []
        return failing
    shape, args = _shape(plan, s, variables, ranks, closures)
    return _factory(shape)(*args)


def _shape(plan: MatchPlan, s: Structure, variables: frozenset[str],
           ranks: list[Mapping[Value, int]],
           closures: Mapping[int, Callable]) -> tuple[tuple, list]:
    """Every choice the join source of ``plan`` makes, as ints, strings
    and tuples that name nothing of the model, and the arguments of the
    factory that source defines, in the order it takes them.

    The join reads every input place, the matched ones first.  The shape
    starts with the number of matched places, of places read and of
    variables, whether closures are called (and so need the binding as
    a dict) and the places whose taken tokens are counted, as they are
    where a step or check is not alone in reading its place.  One entry
    per level follows, its checks first:

    * ``("K", kinds)``: one closure per check, ``-1`` for a guard atom,
      else the place the term's tokens are taken off, counted or, on a
      place it alone reads, tested for membership;
    * ``("M", place, alone, pattern)``: a match step; ``pattern`` is
      ``("f", k)`` for a fresh variable ``k`` of ``plan.names``,
      ``("b", k)`` for a bound one, ``("c",)`` for a constant, taking its
      value, and ``("t", *items)`` for a tuple;
    * ``("P", k, j)``: a preimage step, taking its inverse table; its
      target is variable ``j``, or a closure taken next where ``j`` is -1;
    * ``("C", k)``: a carrier step, taking the (value, rank) pairs;
    * ``("L",)``: the leaf."""
    names, matched, steps = plan.names, plan.matched, plan.steps
    read = matched + tuple([place for place in plan.places if place not in matched])
    var = {name: k for k, name in enumerate(names)}
    slot = {place: i for i, place in enumerate(read)}
    readers = dict.fromkeys(read, 0)  # the steps and checks reading each place
    for step in steps:
        if step[0] == "match":
            readers[step[1]] += 1
    for level_checks in plan.checks:
        for check in level_checks:
            if not isinstance(check, GuardAtom):
                readers[check[0]] += 1
    # whether closures are called; a preimage step may yet call one
    shape: list = [len(matched), len(read), len(names), any(plan.checks),
                   tuple([slot[place] for place, n in readers.items() if n > 1])]
    args: list = [read, names, ranks]
    bound: set[str] = set()

    def pattern(term: Term) -> tuple:
        if isinstance(term, Var):
            if term.name in bound:
                return ("b", var[term.name])
            bound.add(term.name)
            return ("f", var[term.name])
        if isinstance(term, TupleTerm):
            return ("t", *[pattern(item) for item in term.items])
        args.append(s.constants.get(term.name))  # None, which no token equals, if unset
        return ("c",)

    for level, level_checks in enumerate(plan.checks):
        if level_checks:
            kinds = []
            for check in level_checks:
                if isinstance(check, GuardAtom):
                    args.append(closures[id(check)])
                    kinds.append(-1)
                else:
                    args.append(closures[id(check[1])])
                    kinds.append(slot[check[0]])
            shape.append(("K", tuple(kinds)))
        if level == len(steps):
            break
        step = steps[level]
        if step[0] == "match":
            shape.append(("M", slot[step[1]], readers[step[1]] == 1, pattern(step[2])))
            continue
        k = var[step[1]]
        rank = ranks[k]
        bound.add(step[1])
        if step[0] == "preimage":
            args.append({target: kept for target, values in inverse_table(step[2], s).items()
                         if (kept := tuple(v for v in values if v in rank))})
            term = step[3]
            if isinstance(term, Var) and term.name in variables:  # read from its local
                shape.append(("P", k, var[term.name]))
            else:
                args.append(_value(term, s, variables))
                shape.append(("P", k, -1))
                shape[3] = True
        else:
            values = carrier_of(step[2], s)
            args.append(rank.items() if len(rank) == len(values)
                        else tuple((v, rank[v]) for v in values))
            shape.append(("C", k))
    shape.append(("L",))
    return tuple(shape), args


class _Source:
    """The join source ``text`` of one shape (see :func:`_shape`): it
    defines ``make``, which takes the arguments and returns the join.

    In the join, ``h<i>`` holds the tokens on place ``i`` and ``t<i>``
    the counts taken off it, if they are counted.  A check of a term
    comes in two forms: ``take`` counts its tokens against those the
    other readers of the place took, and ``held``, on a place the term
    alone reads, tests each token for membership.  ``x<k>`` and
    ``r<k>`` hold the value and the carrier rank of variable ``k``, and
    ``b`` the same values by name, if closures are called.  A body
    nested ``_SPLIT`` levels deep goes on in a nested function, as
    Python limits how deep blocks nest."""

    _SPLIT = 12

    def __init__(self, shape: tuple):
        matched, places, self.count, self.env, self.counted = shape[:5]
        self.ops = shape[5:]
        self.params = ["places", "names", "ranks"]
        self.temps = 0
        self.frame: tuple[list[str], list[str]] = ([], [])  # (nested defs, body)
        self.level(0, 2, 2)
        lines = [f"def make({', '.join(self.params)}):"]
        for prefix, size, given in (("p", places, "places"), ("n", self.count, "names"),
                                    ("rk", self.count, "ranks")):
            if size:
                lines.append(f"    {', '.join(f'{prefix}{i}' for i in range(size))}, = {given}")
        lines.append("    def join(tokens_on):")
        lines += [f"        h{i} = tokens_on(p{i}).counts()" for i in range(places)]
        if matched:
            empty = " or ".join(f"not h{i}" for i in range(matched))
            lines += [f"        if {empty}:", "            return []"]
        lines += [f"        t{i} = {{}}" for i in self.counted]
        if self.env:
            lines.append("        b = {}")
        lines += ["        found = []", "        append = found.append"]
        lines += self.frame[0] + self.frame[1]
        lines += ["        found.sort(key=first)",
                  "        return [from_sorted(e[1]) for e in found]",
                  "    return join", ""]
        self.text = "\n".join(lines)

    def arg(self, prefix: str) -> str:
        name = f"{prefix}{len(self.params)}"
        self.params.append(name)
        return name

    def temp(self) -> str:
        self.temps += 1
        return f"v{self.temps}"

    def line(self, depth: int, text: str) -> None:
        self.frame[1].append("    " * depth + text)

    def level(self, i: int, depth: int, base: int) -> None:
        """Entry ``i`` of the shape and those after it, at ``depth`` in
        a function whose body starts at ``base``."""
        if depth - base >= self._SPLIT:
            self.line(depth, f"k{i}()")
            outer, self.frame = self.frame, ([], [])
            self.level(i, base + 1, base + 1)
            outer[0].append("    " * base + f"def k{i}():")
            outer[0].extend(self.frame[0] + self.frame[1])
            self.frame = outer
            return
        op = self.ops[i]
        getattr(self, op[0])(i, depth, base, *op[1:])

    def K(self, i: int, depth: int, base: int, kinds: tuple[int, ...]) -> None:
        """Run the levels below if every guard atom holds and the tokens
        of every term are still on its place, taking them off while they
        run where they are counted; a check that raises fails."""
        ok, took = f"ok{i}", f"took{i}"
        calls = [f"{self.arg('g')}(b)" if place < 0
                 else f"take(t{place}, h{place}, {self.arg('tk')}(b), {took})"
                 if place in self.counted else f"held(h{place}, {self.arg('tk')}(b))"
                 for place in kinds]
        counting = any(place in self.counted for place in kinds)
        if counting:
            self.line(depth, f"{took} = []")
        self.line(depth, "try:")
        self.line(depth + 1, f"{ok} = {' and '.join(calls)}")
        self.line(depth, "except EvalError:")
        self.line(depth + 1, f"{ok} = False")
        self.line(depth, f"if {ok}:")
        self.level(i + 1, depth + 1, base)
        if counting:
            self.line(depth, f"for taken, v in {took}:")
            self.line(depth + 1, "taken[v] -= 1")

    def M(self, i: int, depth: int, base: int, place: int, alone: bool,
          pattern: tuple) -> None:
        """Each distinct token on the place that the pattern matches;
        unless the step is alone in reading the place, only those not yet
        taken off it, counted as taken while the levels below run."""
        token = f"x{pattern[1]}" if pattern[0] == "f" else self.temp()
        if alone:
            self.line(depth, f"for {token} in h{place}:")
            tests = []
        else:
            self.line(depth, f"for {token}, n in h{place}.items():")
            tests = [f"t{place}.get({token}, 0) < n"]
        fresh: list[int] = []
        depth = self.flush(tests, self.pattern(pattern, token, tests, depth + 1, fresh))
        self.store(sorted(fresh), depth)
        if not alone:
            self.line(depth, f"t{place}[{token}] = t{place}.get({token}, 0) + 1")
        self.level(i + 1, depth, base)
        if not alone:
            self.line(depth, f"t{place}[{token}] -= 1")

    def pattern(self, pattern: tuple, v: str, tests: list[str], depth: int,
                fresh: list[int]) -> int:
        """Add to ``tests`` that the value ``v`` matches ``pattern``,
        noting its fresh variables in ``fresh``, and return the depth
        they are tested at; a fresh variable ``k`` is already in ``x<k>``."""
        kind = pattern[0]
        if kind == "f":
            k = pattern[1]
            fresh.append(k)
            tests.append(f"(r{k} := rk{k}.get({v})) is not None")
        elif kind == "b":
            tests.append(f"x{pattern[1]} == {v}")
        elif kind == "c":
            tests.append(f"{self.arg('c')} == {v}")
        else:
            items = pattern[1:]
            tests.append(f"isinstance({v}, TupleValue) and len({v}.items) == {len(items)}")
            depth = self.flush(tests, depth)
            targets = [f"x{item[1]}" if item[0] == "f" else self.temp() for item in items]
            self.line(depth, f"{', '.join(targets)}, = {v}.items")
            for item, target in zip(items, targets):
                depth = self.pattern(item, target, tests, depth, fresh)
        return depth

    def flush(self, tests: list[str], depth: int) -> int:
        self.line(depth, f"if {' and '.join(tests)}:")
        tests.clear()
        return depth + 1

    def store(self, ks: Iterable[int], depth: int) -> None:
        """Put the variables ``ks`` just bound into ``b``."""
        if self.env:
            for k in ks:
                self.line(depth, f"b[n{k}] = x{k}")

    def P(self, i: int, depth: int, base: int, k: int, j: int) -> None:
        """The arguments inside the variable's carrier that the function
        maps to the target's value; none if the target raises."""
        table = self.arg("iv")
        if j >= 0:
            self.line(depth, f"for x{k} in {table}.get(x{j}, ()):")
        else:
            self.line(depth, "try:")
            self.line(depth + 1, f"y = {self.arg('tg')}(b)")
            self.line(depth, "except EvalError:")
            self.line(depth + 1, "y = NOTHING")
            self.line(depth, f"for x{k} in {table}.get(y, ()):")
        self.line(depth + 1, f"r{k} = rk{k}[x{k}]")
        self.store((k,), depth + 1)
        self.level(i + 1, depth + 1, base)

    def C(self, i: int, depth: int, base: int, k: int) -> None:
        self.line(depth, f"for x{k}, r{k} in {self.arg('cp')}:")
        self.store((k,), depth + 1)
        self.level(i + 1, depth + 1, base)

    def L(self, i: int, depth: int, base: int) -> None:
        """The rank key and the name-value pairs of a complete binding."""
        count = self.count
        key = "r0" if count == 1 else f"({', '.join(f'r{k}' for k in range(count))})"
        pairs = f"({''.join(f'(n{k}, x{k}), ' for k in range(count))})"
        self.line(depth, f"append(({key}, {pairs}))")


def _occurrence(into: Iterable[Arc], out_of: Iterable[Arc], names: frozenset[str],
                closures: Mapping[int, Callable]) -> Callable[[Env], tuple[Tokens, Tokens]]:
    """:func:`nets.occurrence` of the arcs ``into`` and ``out_of`` a
    transition whose kernel binds ``names``, as a function of the
    binding, calling the :func:`_closures` of the terms its source does
    not write out."""
    shape, args = _firing_shape(into, out_of, names, closures)
    return _factory(shape)(*args)


def _firing_shape(into: Iterable[Arc], out_of: Iterable[Arc], names: frozenset[str],
                  closures: Mapping[int, Callable]) -> tuple[tuple, list]:
    """Every choice the firing source of a transition's arcs makes, as
    strings and ints that name nothing of the model, and the arguments
    of the factory that source defines, in the order it takes them: the
    places, the variables, then one closure per entry that takes one.

    The shape is ``"F"`` and one tuple per side, inputs first, holding
    per arc, in order, the slot of its place (numbered by first
    appearance, inputs first, so a place on both sides has two slots)
    and one entry per term, in inscription order:

    * ``("v", k)``: a variable the kernel binds, numbered ``k`` by first
      use;
    * ``("t", k, ...)``: a tuple of such variables;
    * ``("a",)``: any other term but ``elm`` (a constant, an
      application, a set literal, a variable the kernel does not bind),
      taking its closure, which gives one token, a folded constant's
      without evaluating;
    * ``("e",)``: an ``elm``, taking its closure, which gives the
      elements of a set."""
    places: list[str] = []
    variables: dict[str, int] = {}
    taken: list = []

    def entry(term: Term) -> tuple:
        if isinstance(term, Var) and term.name in names:
            return ("v", variables.setdefault(term.name, len(variables)))
        if isinstance(term, TupleTerm) and all(
                isinstance(item, Var) and item.name in names for item in term.items):
            return ("t", *[variables.setdefault(item.name, len(variables))
                           for item in term.items])
        taken.append(closures[id(term)])
        return ("e",) if isinstance(term, Elm) else ("a",)

    sides = []
    for arcs, end in ((into, "source"), (out_of, "target")):
        slots: dict[str, int] = {}
        side = []
        for arc in arcs:
            place = getattr(arc, end)
            if place not in slots:
                slots[place] = len(places)
                places.append(place)
            side.append((slots[place], tuple([entry(term) for term in arc.inscription])))
        sides.append(tuple(side))
    return ("F", *sides), [places, list(variables), *taken]


def _firing_source(shape: tuple) -> str:
    """The firing source of ``shape`` (see :func:`_firing_shape`): it
    defines ``make``, which takes the arguments and returns the
    occurrence.

    Terms are evaluated in order, so the first that fails raises, as
    :func:`terms.term_tokens` would.  ``x<k>`` holds variable ``k``,
    read from the binding where a term first uses it, so a variable the
    binding leaves out raises KeyError there, and ``a<i>`` holds the
    counts of the tokens on place ``i``, made at its first term; the
    elements of a set are distinct, so an ``elm`` there counts each
    once."""
    _, inputs, outputs = shape
    params, body, read, made = ["places", "names"], [], set(), set()

    def tokens(entry: tuple) -> str:
        kind = entry[0]
        if kind in ("v", "t"):
            for k in entry[1:]:
                if k not in read:
                    read.add(k)
                    body.append(f"x{k} = env[n{k}]")
            if kind == "v":
                return f"x{entry[1]}"
            return f"TupleValue(({''.join(f'x{k}, ' for k in entry[1:])}))"
        name = f"tk{len(params)}"
        params.append(name)
        return f"{name}(env)[0]" if kind == "a" else f"{name}(env)"

    for slot, entries in inputs + outputs:
        counts = f"a{slot}"
        for entry in entries:
            value = tokens(entry)
            if slot not in made:
                made.add(slot)
                body.append(f"{counts} = dict.fromkeys({value}, 1)" if entry[0] == "e"
                            else f"{counts} = {{{value}: 1}}")
            elif entry[0] == "e":
                body += [f"for v in {value}:", f"    {counts}[v] = {counts}.get(v, 0) + 1"]
            else:
                if not value.isidentifier():
                    body.append(f"v = {value}")
                    value = "v"
                body.append(f"{counts}[{value}] = {counts}.get({value}, 0) + 1")
        if slot not in made:
            made.add(slot)
            body.append(f"{counts} = {{}}")

    def mapping(side: tuple) -> str:
        slots = dict.fromkeys(slot for slot, _ in side)
        return f"{{{', '.join(f'p{i}: a{i}' for i in slots)}}}"

    lines = [f"def make({', '.join(params)}):"]
    for prefix, size, given in (("p", len(made), "places"), ("n", len(read), "names")):
        if size:
            lines.append(f"    {', '.join(f'{prefix}{i}' for i in range(size))}, = {given}")
    lines.append("    def occurrence(env):")
    lines += [f"        {line}" for line in body]
    lines += [f"        return {mapping(inputs)}, {mapping(outputs)}",
              "    return occurrence", ""]
    return "\n".join(lines)

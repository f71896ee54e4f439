"""Schematic high-level nets, markings, occurrence nets, and firing.

A schematic net's places are predicates: under a structure, the tokens
on a place are the values the predicate currently holds of.  Arcs carry
multisets of terms (each possibly ``elm``-wrapped at top level) and
transitions carry a guard plus declarations of free-choice variables.

Enabling and firing are pure functions of (net, marking, structure);
they run through each transition's kernel, compiled once per structure
(:mod:`hknet.compiled`), and a :class:`Stepper` remembers their results
for one caller.  Nets must be *resolved* against a signature first:
resolution classifies identifier leaves, infers variable sorts from
input-arc terms and function signatures, and records the full variable
list per transition.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter

from .compiled import Kernel, Tokens
from .errors import FiringError, SortError, Violation
from .signature import (PowSort, Signature, Sort, SortName, Structure,
                        TupleSort, render_sort, sort_symbols, sorts_compatible,
                        value_in_sort)
from .spans import SourceSpan
from .terms import (App, Binding, ConstRef, Elm, Guard, GuardAtom, Ident,
                    SetTerm, SymbolRef, Term, TupleTerm, Var, canonical_terms,
                    guard_variables, term_variables)
from .values import Multiset, Value, render_value


# ---------------------------------------------------------------------------
# Schematic nets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Place:
    name: str
    sort: Sort | None = None
    init: tuple[Term, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def display(self) -> str:
        return self.name.replace("_", " ")


@dataclass(frozen=True)
class Transition:
    name: str
    guard: Guard = Guard()
    free: tuple[tuple[str, Sort], ...] = ()
    # full (name, sort) list, filled in by resolve_net; derived, not compared
    variables: tuple[tuple[str, Sort], ...] | None = field(
        default=None, compare=False, repr=False)
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    @property
    def display(self) -> str:
        return self.name.replace("_", " ")


@dataclass(frozen=True)
class Arc:
    source: str
    target: str
    inscription: tuple[Term, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SchematicNet:
    places: tuple[Place, ...] = ()
    transitions: tuple[Transition, ...] = ()
    arcs: tuple[Arc, ...] = ()

    @cached_property
    def index(self) -> "NetIndex":
        """Lookups built once from the net's immutable fields."""
        return NetIndex(self)

    def place(self, name: str) -> Place:
        try:
            return self.index.places[name]
        except KeyError:
            raise KeyError(f"no place {name!r}") from None

    def transition(self, name: str) -> Transition:
        try:
            return self.index.transitions[name]
        except KeyError:
            raise KeyError(f"no transition {name!r}") from None

    def has_place(self, name: str) -> bool:
        return name in self.index.places

    def has_transition(self, name: str) -> bool:
        return name in self.index.transitions

    def arcs_into(self, transition: str) -> tuple[Arc, ...]:
        return self.index.arcs_into.get(transition, ())

    def arcs_out_of(self, transition: str) -> tuple[Arc, ...]:
        return self.index.arcs_out_of.get(transition, ())

    def is_empty(self) -> bool:
        return not (self.places or self.transitions or self.arcs)


class NetIndex:
    """Places and transitions by name, arcs by endpoint, and one
    :class:`MatchPlan` per resolved transition.  Names identify nodes
    (:func:`name_violations`); in a net that breaks this, the first of
    several equally named nodes wins, as in a linear scan.

    ``slots`` names every place, and every arc endpoint a firing
    touches, once, in name order: a :class:`Stepper` state holds one
    multiset id per slot.  ``input_ids`` gives, per resolved transition,
    the function that reads a state's ids on its plan's input places: one
    id, a tuple of them or ``()``, a memo key rather than a sequence.
    These tables are built on first use, as only stepping reads them."""

    def __init__(self, net: SchematicNet):
        self.places: dict[str, Place] = {}
        for p in net.places:
            self.places.setdefault(p.name, p)
        self.transitions: dict[str, Transition] = {}
        for t in net.transitions:
            self.transitions.setdefault(t.name, t)
        into: dict[str, list[Arc]] = {}
        out_of: dict[str, list[Arc]] = {}
        for a in net.arcs:
            into.setdefault(a.target, []).append(a)
            out_of.setdefault(a.source, []).append(a)
        self.arcs_into = {node: tuple(arcs) for node, arcs in into.items()}
        self.arcs_out_of = {node: tuple(arcs) for node, arcs in out_of.items()}
        self.plans = {t.name: MatchPlan(t, self.arcs_into.get(t.name, ()))
                      for t in self.transitions.values() if t.variables is not None}

    @cached_property
    def slots(self) -> tuple[str, ...]:
        touched = {a.source for t in self.transitions for a in self.arcs_into.get(t, ())}
        touched.update(a.target for t in self.transitions for a in self.arcs_out_of.get(t, ()))
        return tuple(sorted(touched.union(self.places)))

    @cached_property
    def slot_of(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.slots)}

    @cached_property
    def input_ids(self) -> dict[str, Callable]:
        slot = self.slot_of.__getitem__
        return {name: itemgetter(*map(slot, plan.places)) if plan.places else lambda state: ()
                for name, plan in self.plans.items()}


def _is_pattern(term: Term) -> bool:
    """Variables and constants, possibly nested in tuples: terms whose
    variables can be read off a token instead of being enumerated."""
    if isinstance(term, TupleTerm):
        return all(_is_pattern(item) for item in term.items)
    return isinstance(term, (Var, ConstRef))


class MatchPlan:
    """How :func:`enabled_bindings` binds one resolved transition.

    ``names`` and ``sorts`` list the transition's variables by name.
    ``steps`` bind them in order, each in one of three ways:

    * ``("match", place, pattern)`` matches a pattern that still has
      unbound variables against the distinct tokens on its input place;
    * ``("preimage", name, function, term)`` draws a variable no pattern
      binds from the arguments that the unary ``function`` maps to the
      value of ``term``, read off an inverse table built per kernel
      (:func:`signature.inverse_table`) and kept only inside the
      variable's carrier.  The guard equates ``function(name)`` with
      ``term``, either way round, and every variable of ``term`` is bound
      by an earlier step; if ``term`` fails to evaluate, nothing is bound;
    * ``("carrier", name, sort)`` enumerates the carrier of any other
      variable no pattern binds: free-choice variables and those
      occurring only under a function, in a set term or in ``elm``.

    ``places`` lists the input places and ``matched`` those of the match
    steps; while one of the matched places is empty, nothing is enabled.
    An empty place that only checks read may still enable a binding, as
    ``elm(Y)`` with ``Y = {}`` needs no token.

    ``checks[i]`` holds what becomes decidable once ``steps[:i]`` have
    bound their variables: guard atoms, but not the equation behind a
    preimage step, which its inverse table guarantees, and every input
    term that is not a match step, given as ``(place, term)``.  A term's
    tokens are counted against those the other steps and checks on its
    place take; on a place no match step reads, such as ``cooked`` for
    ``elm(Y)`` in the restaurant's ``hand_over``, a term alone in reading
    it only has its tokens tested for membership.

    A plan is fixed per net; under each structure, the transition's
    kernel (:class:`compiled.Kernel`) runs its steps and checks as one
    function generated from the plan's shape, which returns the enabled
    bindings.
    """

    def __init__(self, t: Transition, arcs: tuple[Arc, ...]):
        variables = sorted(t.variables or (), key=itemgetter(0))
        self.names = tuple(n for n, _ in variables)
        self.sorts = tuple(sort for _, sort in variables)
        self.places = tuple(dict.fromkeys(a.source for a in arcs))
        stage: dict[str, int] = {}   # variable -> index of the step binding it
        steps: list[tuple] = []
        pending: list[tuple[set[str], object]] = []
        for arc in arcs:
            for term in arc.inscription:
                used = term_variables(term)
                fresh = used - stage.keys()
                if fresh and _is_pattern(term) and used <= set(self.names):
                    for name in fresh:
                        stage[name] = len(steps)
                    steps.append(("match", arc.source, term))
                else:
                    pending.append((used, (arc.source, term)))
        self.matched = tuple(dict.fromkeys(step[1] for step in steps))
        implied: list[GuardAtom] = []  # the equations preimage steps guarantee
        for name, sort in variables:
            if name not in stage:
                pin = _pinned_by(name, t.guard, stage.keys())
                stage[name] = len(steps)
                steps.append(("preimage", name, *pin[:2]) if pin else ("carrier", name, sort))
                implied += pin[2:]
        pending += [(term_variables(atom.left) | term_variables(atom.right), atom)
                    for atom in t.guard.atoms if not any(atom is e for e in implied)]
        checks: list[list[object]] = [[] for _ in range(len(steps) + 1)]
        for used, check in pending:
            # a variable outside t.variables never gets bound: its check
            # goes last and fails there with an unbound-variable error
            ready = max((stage.get(n, len(steps) - 1) for n in used), default=-1)
            checks[ready + 1].append(check)
        self.steps = tuple(steps)
        self.checks = tuple(tuple(c) for c in checks)


def _pinned_by(name: str, guard: Guard, bound: Iterable[str]) -> tuple:
    """``(f, e, atom)`` for the first guard equation ``atom`` that reads
    ``f(name) = e`` or ``e = f(name)`` with a unary ``f`` and every
    variable of ``e`` in ``bound``, else ``()``."""
    for atom in guard.atoms:
        if atom.op != "=":
            continue
        for side, other in ((atom.left, atom.right), (atom.right, atom.left)):
            if (isinstance(side, App) and len(side.args) == 1
                    and isinstance(side.args[0], Var) and side.args[0].name == name
                    and term_variables(other) <= set(bound)):
                return side.function, other, atom
    return ()


# ---------------------------------------------------------------------------
# Markings
# ---------------------------------------------------------------------------

class Marking:
    """An immutable per-place multiset of values; hashable, canonical.

    It holds one ``{place: Multiset}`` dict of the marked places, or a
    :class:`Stepper` state and the :class:`_StateTable` of the call that
    numbered it.  Such a marking reads a place's tokens off the state;
    its place dict is built on first use by any other method.  The
    canonical place order is computed on first use, the hash on each call
    from the hashes its multisets keep."""

    __slots__ = ("_places", "_entries", "_state", "_table")

    def __init__(self, per_place: Mapping[str, Multiset | Iterable[Value]] = ()):
        places: dict[str, Multiset] = {}
        items = per_place.items() if isinstance(per_place, Mapping) else per_place
        for place, tokens in items:
            ms = tokens if isinstance(tokens, Multiset) else Multiset(tokens)
            if ms:
                places[place] = ms
        self._places: dict[str, Multiset] | None = places
        self._entries: tuple[tuple[str, Multiset], ...] | None = None
        self._state = self._table = None

    def get(self, place: str) -> Multiset:
        places = self._places
        if places is None:
            table = self._table
            slot = table.slot_of.get(place)
            if slot is None:
                return table.outside.get(place, _NO_TOKENS)
            return table.multisets[self._state[slot]]
        return places.get(place, _NO_TOKENS)

    def _by_place(self) -> dict[str, Multiset]:
        """The ``{place: Multiset}`` dict of the marked places, built off
        the state on first use and kept in one attribute assignment."""
        places = self._places
        if places is None:
            places = self._places = self._table.places(self._state)
        return places

    def items(self) -> tuple[tuple[str, Multiset], ...]:
        """``(place, tokens)`` per marked place, by place name."""
        if self._entries is None:
            self._entries = tuple(sorted(self._by_place().items(), key=itemgetter(0)))
        return self._entries

    def places(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.items())

    def total(self) -> int:
        return sum(ms.total() for ms in self._by_place().values())

    @classmethod
    def _from_places(cls, places: dict[str, Multiset]) -> "Marking":
        """The marking that takes over ``places``, whose multisets are all
        non-empty; the caller must not change the dict afterwards."""
        m = cls.__new__(cls)
        m._places = places
        m._entries = m._state = m._table = None
        return m

    def updated(self, remove: Mapping[str, Mapping[Value, int]],
                add: Mapping[str, Mapping[Value, int]]) -> "Marking":
        """The marking with the ``{place: {value: count}}`` maps ``remove``
        taken off and ``add`` put on.  Each place they name is copied
        once, and dropped if it ends up empty; the others are shared with
        this marking."""
        places = self._by_place().copy()
        for place in (*remove, *(p for p in add if p not in remove)):
            tokens = places.get(place, _NO_TOKENS).updated(
                remove.get(place, _NO_COUNTS), add.get(place, _NO_COUNTS))
            if tokens:
                places[place] = tokens
            else:
                places.pop(place, None)
        return Marking._from_places(places)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and other._by_place() == self._by_place()

    def __hash__(self) -> int:
        return hash(frozenset(self._by_place().items()))

    def __reduce__(self):
        return (Marking, (self._by_place(),))

    def rendered_entries(self) -> list[str]:
        """``place: v1, v2`` per marked place, in canonical order."""
        return [f"{p}: " + ", ".join(render_value(v) for v in ms)
                for p, ms in self.items()]

    def __repr__(self) -> str:
        return f"Marking({'; '.join(self.rendered_entries())})"


_NO_TOKENS = Multiset()
_NO_COUNTS: Mapping[Value, int] = {}
# what a Stepper keeps for every key that enables nothing: one list, read only
_EMPTY: list = []


def marking_violations(net: SchematicNet, m: Marking, s: Structure) -> list[Violation]:
    """Tokens on sorted places must lie in the carrier of the place sort."""
    out: list[Violation] = []
    for place_name, ms in m.items():
        if not net.has_place(place_name):
            out.append(Violation("unknown-place", f"marking mentions {place_name!r}"))
            continue
        place = net.place(place_name)
        if place.sort is None:
            continue
        for v in ms.distinct():
            if not value_in_sort(v, place.sort, s):
                out.append(Violation(
                    "token-sort",
                    f"token {render_value(v)} on {place_name!r} is outside "
                    f"sort {render_sort(place.sort)}"))
    return out


# ---------------------------------------------------------------------------
# Resolution: identifier classification and variable sort inference
# ---------------------------------------------------------------------------

def arc_endpoint_violations(net: SchematicNet) -> list[Violation]:
    """Arcs that do not lead from a place to a transition or back."""
    return [Violation("arc-endpoints",
                      f"arc {a.source} -> {a.target} must connect a place and "
                      "a transition", a.span)
            for a in net.arcs
            if not (net.has_place(a.source) and net.has_transition(a.target)
                    or net.has_transition(a.source) and net.has_place(a.target))]


def name_violations(net: SchematicNet) -> list[Violation]:
    """Places and transitions that reuse the name of an earlier node:
    names identify nodes, across places and transitions."""
    names: set[str] = set()
    out: list[Violation] = []
    for node in (*net.places, *net.transitions):
        if node.name in names:
            out.append(Violation("duplicate-name",
                                 f"duplicate element name {node.name!r}", node.span))
        names.add(node.name)
    return out


def resolve_net(net: SchematicNet, sig: Signature) -> tuple[SchematicNet, list[Violation]]:
    """Classify identifiers, infer variable sorts, and well-form the net.

    Returns the resolved net together with all violations found.  The
    returned net is usable only if the violation list is empty.
    """
    violations = name_violations(net)

    for p in net.places:
        if p.sort is not None:
            _check_sort_declared(p.sort, sig, f"place {p.name!r}", p.span, violations)

    violations += arc_endpoint_violations(net)

    new_places = []
    for p in net.places:
        init = tuple(_resolve_term(t, sig, top_level=True, violations=violations)
                     for t in p.init)
        for t in init:
            for name in sorted(term_variables(t)):
                violations.append(Violation(
                    "open-init",
                    f"initial inscription of {p.name!r} contains variable {name!r}",
                    p.span))
        new_places.append(replace(p, init=init))

    new_transitions = []
    # (source, target) -> the first arc between them and the resolved
    # terms of all of them
    merged: dict[tuple[str, str], tuple[Arc, list[Term]]] = {}
    for t in net.transitions:
        env: dict[str, Sort | None] = {}
        for name, sort in t.free:
            _check_sort_declared(sort, sig, f"free variable {name!r}", t.span, violations)
            env[name] = sort

        input_vars: set[str] = set()
        used_later: set[str] = set()
        ins = [(a, a.source, input_vars) for a in net.arcs_into(t.name)
               if net.has_place(a.source)]
        outs = [(a, a.target, used_later) for a in net.arcs_out_of(t.name)
                if net.has_place(a.target)]
        for arc, place_name, seen in ins + outs:
            sort = net.place(place_name).sort
            _, terms = merged.setdefault((arc.source, arc.target), (arc, []))
            for raw in arc.inscription:
                term = _resolve_term(raw, sig, top_level=True, violations=violations)
                _infer(term, sort, env, sig, violations)
                seen |= term_variables(term)
                terms.append(term)

        guard_atoms = []
        for atom in t.guard.atoms:
            left = _resolve_term(atom.left, sig, top_level=False, violations=violations)
            right = _resolve_term(atom.right, sig, top_level=False, violations=violations)
            guard_atoms.append(GuardAtom(atom.op, left, right, atom.span))
        guard = Guard(tuple(guard_atoms), t.guard.span)
        used_later |= guard_variables(guard)
        free_names = {name for name, _ in t.free}
        for name in sorted(used_later - input_vars - free_names):
            violations.append(Violation(
                "free-variable",
                f"variable {name!r} of transition {t.name!r} occurs only in "
                "outputs or the guard; declare it free or bind it on an input arc",
                t.span))
        for name in sorted((input_vars | used_later) - set(env)):
            env.setdefault(name, None)

        unresolved = [n for n, s_ in sorted(env.items()) if s_ is None]
        for name in unresolved:
            violations.append(Violation(
                "unsorted-variable",
                f"cannot infer a sort for variable {name!r} of transition {t.name!r}",
                t.span))

        variables = tuple((n, s_) for n, s_ in sorted(env.items()) if s_ is not None)
        new_transitions.append(replace(t, guard=guard, variables=variables))

    new_arcs = {key: replace(first, inscription=canonical_terms(terms))
                for key, (first, terms) in merged.items()}
    # keep arcs that failed endpoint checks so printing stays faithful
    for a in net.arcs:
        new_arcs.setdefault((a.source, a.target), a)

    resolved = SchematicNet(
        places=tuple(sorted(new_places, key=lambda p: p.name)),
        transitions=tuple(sorted(new_transitions, key=lambda t: t.name)),
        arcs=tuple(sorted(new_arcs.values(), key=lambda a: (a.source, a.target))),
    )
    return resolved, violations


def _check_sort_declared(sort: Sort, sig: Signature, where: str,
                         span: SourceSpan | None, violations: list[Violation]) -> None:
    for name in sort_symbols(sort):
        if not sig.declares_carrier(name):
            violations.append(Violation(
                "undeclared-sort", f"{where}: unknown sort symbol {name!r}", span))


def _resolve_term(t: Term, sig: Signature, top_level: bool,
                  violations: list[Violation]) -> Term:
    if isinstance(t, Ident):
        kind = sig.symbol_kind(t.name)
        if kind in ("set", "subset"):
            return SymbolRef(t.name, t.span)
        if kind == "constant":
            return ConstRef(t.name, t.span)
        if kind == "function":
            violations.append(Violation(
                "bare-function",
                f"function symbol {t.name!r} used without arguments", t.span))
            return t
        return Var(t.name, sort=None, span=t.span)  # type: ignore[arg-type]
    if isinstance(t, (Var, ConstRef, SymbolRef)):
        return t
    if isinstance(t, App):
        if sig.function_signature(t.function) is None:
            violations.append(Violation(
                "unknown-function", f"unknown function symbol {t.function!r}", t.span))
        args = tuple(_resolve_term(a, sig, False, violations) for a in t.args)
        return App(t.function, args, t.span)
    if isinstance(t, TupleTerm):
        return TupleTerm(tuple(_resolve_term(a, sig, False, violations)
                               for a in t.items), t.span)
    if isinstance(t, SetTerm):
        return SetTerm(tuple(_resolve_term(a, sig, False, violations)
                             for a in t.elements), t.span)
    if isinstance(t, Elm):
        if not top_level:
            violations.append(Violation(
                "nested-elm", "elm(...) is only permitted at the top level of an "
                "arc or initial-marking inscription", t.span))
        return Elm(_resolve_term(t.inner, sig, False, violations), t.span)
    raise TypeError(f"not a term: {t!r}")


def _infer(term: Term, expected: Sort | None, env: dict[str, Sort | None],
           sig: Signature, violations: list[Violation]) -> None:
    """Propagate expected sorts into variables; record conflicts."""
    if isinstance(term, Var):
        known = env.get(term.name)
        if known is None:
            if expected is not None:
                env[term.name] = expected
            else:
                env.setdefault(term.name, None)
        elif expected is not None and not sorts_compatible(known, expected, sig):
            violations.append(Violation(
                "sort-conflict",
                f"variable {term.name!r} used both as {render_sort(known)} "
                f"and as {render_sort(expected)}", term.span))
        return
    if isinstance(term, ConstRef):
        declared = sig.constant_sort(term.name)
        if declared is not None and expected is not None \
                and not sorts_compatible(declared, expected, sig):
            violations.append(Violation(
                "sort-conflict",
                f"constant {term.name!r} of sort {render_sort(declared)} used "
                f"where {render_sort(expected)} is expected", term.span))
        return
    if isinstance(term, SymbolRef):
        actual = PowSort(term.name)
        if expected is not None and not sorts_compatible(actual, expected, sig):
            violations.append(Violation(
                "sort-conflict",
                f"symbol {term.name!r} denotes a set of sort {render_sort(actual)}, "
                f"used where {render_sort(expected)} is expected", term.span))
        return
    if isinstance(term, App):
        fsig = sig.function_signature(term.function)
        if fsig is None:
            return
        arg_sorts, result = fsig
        if expected is not None and not sorts_compatible(result, expected, sig):
            violations.append(Violation(
                "sort-conflict",
                f"{term.function}(...) yields {render_sort(result)}, used where "
                f"{render_sort(expected)} is expected", term.span))
        if len(term.args) != len(arg_sorts):
            violations.append(Violation(
                "arity",
                f"{term.function} expects {len(arg_sorts)} arguments, "
                f"got {len(term.args)}", term.span))
            return
        for arg, arg_sort in zip(term.args, arg_sorts):
            _infer(arg, arg_sort, env, sig, violations)
        return
    if isinstance(term, TupleTerm):
        if isinstance(expected, TupleSort) and len(expected.components) == len(term.items):
            for item, comp in zip(term.items, expected.components):
                _infer(item, comp, env, sig, violations)
        elif expected is not None and not isinstance(expected, TupleSort):
            violations.append(Violation(
                "sort-conflict",
                f"tuple term used where {render_sort(expected)} is expected",
                term.span))
        else:
            for item in term.items:
                _infer(item, None, env, sig, violations)
        return
    if isinstance(term, SetTerm):
        element_sort: Sort | None = None
        if isinstance(expected, PowSort):
            element_sort = SortName(expected.base)
        elif isinstance(expected, SortName):
            base = sig.subset_base(expected.name)
            if base is not None:
                element_sort = SortName(base)
        for e in term.elements:
            _infer(e, element_sort, env, sig, violations)
        return
    if isinstance(term, Elm):
        # elm expands a set of S into tokens of S
        inner_expected: Sort | None = None
        if isinstance(expected, SortName):
            inner_expected = PowSort(expected.name)
        _infer(term.inner, inner_expected, env, sig, violations)
    # an Ident left by _resolve_term, a bare function symbol, has no sort;
    # _resolve_term has rejected anything that is no term


def check_net(net: SchematicNet, sig: Signature) -> list[Violation]:
    _, violations = resolve_net(net, sig)
    return violations


# ---------------------------------------------------------------------------
# Enabling and firing
# ---------------------------------------------------------------------------

def _resolved(net: SchematicNet, transition: Transition | str) -> Transition:
    """The net's transition of the given name, after checking it is
    resolved; a Transition stands for the net's node of its name."""
    t = net.transition(transition if isinstance(transition, str) else transition.name)
    if t.variables is None:
        raise SortError(
            f"transition {t.name!r} is unresolved; call resolve_net first")
    return t


def _kernel(net: SchematicNet, name: str, s: Structure) -> Kernel:
    """The net's transition ``name`` compiled against ``s``: built on
    first use and kept on ``s`` per :class:`MatchPlan`.  An unknown or
    unresolved transition is rejected, as by :func:`_resolved`."""
    plan = net.index.plans.get(name)
    if plan is None:
        _resolved(net, name)  # raises: every resolved transition has a plan
    kernel = s._kernels.get(plan)
    if kernel is None:
        # two threads racing here build equal kernels; the first stored stays
        kernel = s._kernels.setdefault(plan, Kernel(net.index, name, s))
    return kernel


def enabled_bindings(net: SchematicNet, m: Marking,
                     transition: Transition | str, s: Structure) -> list[Binding]:
    """All total bindings of the transition's variables such that the
    guard holds and every evaluated input inscription is contained in
    the marking.

    The result is in lexicographic carrier order: by variable name, then
    by each value's position in the carrier of the variable's sort.

    It is the join of the transition's kernel (:class:`compiled.Kernel`)
    at ``m.get``, which runs the steps and checks of its plan
    (:class:`MatchPlan`): a pattern's bound variable must agree with the
    token, a fresh one takes the token's component if it lies in the
    variable's carrier, and a check runs once its variables are bound, a
    term against the tokens left over.  A function application outside
    its table leaves the candidate out.  The kernel is built on the first
    call under ``s``, which looks up the carriers, and kept on ``s``; a
    carrier that cannot be built, such as a powerset over the cap, raises
    on every call whose matched places all hold tokens.  A pattern on an
    empty input place enables nothing.
    """
    name = transition if isinstance(transition, str) else transition.name
    return _kernel(net, name, s).join(m.get)


def occurrence(net: SchematicNet, transition: str, b: Binding,
               s: Structure) -> tuple[Tokens, Tokens]:
    """The occurrence rule: the tokens ``transition`` under ``b``, which
    assigns every variable of the transition, takes from each input
    place and puts on each output place.  Each arc inscription is
    evaluated once, inputs first, by the transition's kernel; an
    EvalError propagates."""
    return _kernel(net, transition, s).occurrence(dict(b.pairs()))


def fire(net: SchematicNet, m: Marking, transition: Transition | str,
         b: Binding, s: Structure) -> Marking:
    """Fire one transition occurrence; pure.  A FiringError names the
    first failing check of: ``b`` assigns every variable, the guard
    holds, ``m`` holds the consumed tokens (the first place lacking some,
    in arc order), and the produced ones lie in their places' sorts (the
    first, canonically).  The kernel runs the last three on one dict."""
    t = _resolved(net, transition)
    env = dict(b.pairs())
    for name, _ in t.variables:
        if name not in env:
            raise FiringError(
                f"binding does not assign variable {name!r} of {t.name!r}")
    kernel = _kernel(net, t.name, s)
    if not kernel.holds(env):
        raise FiringError(f"guard of {t.name!r} is false under {b!r}")
    consumed, produced = kernel.occurrence(env)
    # plain loops: a generator per call costs about twice the time
    for place, counts in consumed.items():
        have = m.get(place).counts()
        for v, n in counts.items():
            if have.get(v, 0) < n:
                raise FiringError(
                    f"{t.name!r} is not enabled: {place!r} lacks required tokens")
    _require_sorts(net, t.name, produced, kernel.sorts)
    return m.updated(consumed, produced)


def _require_sorts(net: SchematicNet, transition: str, produced: Tokens,
                   tests: Mapping[str, Callable[[Value], bool]]) -> None:
    """Raise the FiringError of a transition that would put a value
    outside its place's sort, naming the first such value canonically;
    ``tests`` are the membership tests of the transition's kernel
    (:attr:`compiled.Kernel.sorts`)."""
    for place_name, tokens in produced.items():
        test = tests.get(place_name)
        if test is None:
            net.place(place_name)  # unsorted; a target that is no place raises
            continue
        if all(map(test, tokens)):
            continue
        v = min((v for v in tokens if not test(v)), key=lambda v: v.key())
        raise FiringError(
            f"{transition!r} would put {render_value(v)} on {place_name!r}, "
            f"outside sort {render_sort(net.place(place_name).sort)}")


class Stepper:
    """Enabling and firing of one net under one structure, remembered
    for the life of this object (one ``explore`` or ``simulate`` call).

    It steps on interned states: each distinct multiset on a place gets
    a small int id, and a state is the tuple of ids on the net's slots
    (:attr:`NetIndex.slots`); :meth:`encoding` turns a marking into one
    and gives the table through which a state reads as a marking.  The
    bindings of a transition depend only on the tokens on its input
    places, so each path keeps its own memo per ``(name, ids on its
    input slots)``: :meth:`enabled` (``simulate``) the bindings,
    :meth:`step` (``explore``) each binding with its move.  A move
    (:meth:`_move`), kept per ``(name, binding)`` at its first firing by
    either path, is the occurrence, with its output sorts checked, and a
    change per place whose take differs from its put: the slot, the take,
    the put and an ``after`` table from the id on the slot before a
    firing to the id after it.  One :meth:`_successor` applies every
    move, filling ``after`` on a miss, so a repeat from the same ids is a
    lookup.  :meth:`step`'s equal changes share one ``after``;
    :meth:`fire`'s each have their own, as a run seldom repeats a change
    elsewhere and building the sharing key costs more than it saves.
    None of them takes a marking: a state alone says which multiset lies
    on each slot.

    It enables as :func:`enabled_bindings` does: one join of the
    transition's kernel per miss of a path's memo, on the multisets the
    state's ids number.

    A binding that :func:`enabled_bindings` returns assigns every
    variable, satisfies the guard and finds its input tokens, so a move
    checks only the sorts of its output tokens; :meth:`fire` takes only
    such bindings.  A net with an unresolved transition is rejected when
    the stepper is built, a name the net lacks when it is asked for.
    Errors are not kept.  It joins and evaluates through the kernel of
    each transition (:class:`compiled.Kernel`), fetched on first use and
    kept on the structure for every later caller.  Of the rest, only its
    numbered multisets can outlive the stepper, held by the markings that
    its encoding tables make.
    """

    def __init__(self, net: SchematicNet, s: Structure):
        self.net = net
        self.structure = s
        self.transitions = tuple(sorted(net.transitions, key=lambda t: t.name))
        for t in self.transitions:
            _resolved(net, t)
        index = net.index
        self._slots, self._slot_of = index.slots, index.slot_of
        self._keys = index.input_ids
        self._order = [(t.name, self._keys[t.name]) for t in self.transitions]
        self._ids = _Ids()
        # (name, ids on its input slots) -> its bindings, for enabled
        self._bindings: dict[tuple, list[Binding]] = {}
        # (name, ids on its input slots) -> [(binding, its changes)], for step
        self._fired: dict[tuple, list[tuple[Binding, tuple]]] = {}
        # (name, binding) -> (its occurrence, its (slot, remove, add, after) changes)
        self._moves: dict[tuple[str, Binding], tuple] = {}
        # (remove pairs, add pairs) -> the after table of equal changes, for step
        self._deltas: dict[tuple, dict[int, int]] = {}
        self._kernels: dict[str, Kernel] = {}

    def enabled(self, state: tuple[int, ...], name: str) -> list[Binding]:
        """:func:`enabled_bindings` of ``name`` at ``state``; read the
        list, never change it."""
        key = self._keys.get(name)
        if key is None:
            _resolved(self.net, name)
        ids = (name, key(state))
        found = self._bindings.get(ids)
        if found is None:
            found = self._bindings[ids] = self._enable(name, state)
        return found

    def fire(self, state: tuple[int, ...], name: str,
             b: Binding) -> tuple[tuple[Tokens, Tokens], tuple[int, ...]]:
        """The occurrence of ``(name, b)``, which :meth:`enabled` returned
        at ``state``, and the state it leads to; read the maps, never
        change them."""
        found, changes = self._moves.get((name, b)) or self._move(name, b, share=False)
        return found, self._successor(state, changes)

    def successors(self, m: Marking) -> list[tuple[str, Binding, Marking]]:
        """All enabled (transition, binding) pairs with their successor
        markings, in deterministic order."""
        state, decode = self.encoding(m)
        return [(name, b, decode(succ)) for name, b, succ in self.step(state)]

    def encoding(self, m: Marking) -> tuple[tuple[int, ...], "_StateTable"]:
        """The state of ``m``, and the table that turns a state into its
        marking when called on it: the net's slots, this stepper's
        numbered multisets and ``m``'s places outside the slots, which no
        firing touches.  Every marking it makes reads its places off its
        state through this one table."""
        slot_of, ids = self._slot_of, self._ids
        outside = {p: ms for p, ms in m._by_place().items() if p not in slot_of}
        get = m.get
        return (tuple([ids[get(p)] for p in self._slots]),
                _StateTable(self._slots, slot_of, ids.multisets, outside))

    def step(self, state: tuple[int, ...]) -> list[tuple[str, Binding, tuple[int, ...]]]:
        """``(name, binding, successor state)`` of every enabled
        occurrence at ``state``, in deterministic order."""
        out = []
        fired, kept, successor = self._fired, self._moves.get, self._successor
        for name, key in self._order:
            ids = (name, key(state))
            moves = fired.get(ids)
            if moves is None:
                moves = fired[ids] = [
                    (b, (kept((name, b)) or self._move(name, b, share=True))[1])
                    for b in self._enable(name, state)] or _EMPTY
            for b, changes in moves:
                out.append((name, b, successor(state, changes)))
        return out

    def _enable(self, name: str, state: tuple[int, ...]) -> list[Binding]:
        """The bindings of ``name`` at ``state``, kept by the caller."""
        multisets, slot_of = self._ids.multisets, self._slot_of

        def tokens_on(place: str) -> Multiset:
            return multisets[state[slot_of[place]]]

        return self._kernel(name).join(tokens_on) or _EMPTY

    def _kernel(self, name: str) -> Kernel:
        """The kernel of ``name``, fetched by :func:`_kernel` on first use."""
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = self._kernels[name] = _kernel(self.net, name, self.structure)
        return kernel

    def _move(self, name: str, b: Binding, share: bool) -> tuple:
        """Keep and return the move of ``(name, b)``, an enabled binding:
        its occurrence, with its output sorts checked, and ``(slot, remove,
        add, after)`` of each place whose take differs from its put.
        ``after`` maps the id on the slot before a firing to the id after
        it, as :meth:`_successor` fills it.  With ``share``, equal changes
        share one ``after``, keyed by tuples of their pairs: hashing them
        costs less than building multisets."""
        kernel = self._kernel(name)
        found = consumed, produced = kernel.occurrence(dict(b.pairs()))
        _require_sorts(self.net, name, produced, kernel.sorts)
        changes = []
        for p in dict.fromkeys((*consumed, *produced)):
            remove, add = consumed.get(p, _NO_COUNTS), produced.get(p, _NO_COUNTS)
            if remove != add:
                after = {}
                if share:
                    after = self._deltas.setdefault(
                        (tuple(remove.items()), tuple(add.items())), after)
                changes.append((self._slot_of[p], remove, add, after))
        move = self._moves[(name, b)] = (found, tuple(changes))
        return move

    def _successor(self, state: tuple[int, ...], changes: tuple) -> tuple[int, ...]:
        """``state`` with each change of a move applied: the id in its
        ``after`` table, or on a miss the id of the updated multiset,
        interned and stored there."""
        succ = list(state)
        for i, remove, add, after in changes:
            before = succ[i]
            if before in after:
                succ[i] = after[before]
            else:
                ids = self._ids
                succ[i] = after[before] = ids[ids.multisets[before].updated(remove, add)]
        return tuple(succ)


class _Ids(dict):
    """Multisets numbered from 0 in the order first looked up; the empty
    one is 0, and ``multisets[i]`` is the one numbered i."""

    def __init__(self) -> None:
        super().__init__({_NO_TOKENS: 0})
        self.multisets = [_NO_TOKENS]

    def __missing__(self, ms: Multiset) -> int:
        found = self[ms] = len(self.multisets)
        self.multisets.append(ms)
        return found


class _StateTable:
    """What the markings of one :meth:`Stepper.encoding` share, read only:
    ``slots`` and ``slot_of`` of the net, the stepper's ``multisets`` by
    id and the ``outside`` places of the encoded marking.  Called on a
    state, it returns the marking that reads its places off the state."""

    __slots__ = ("slots", "slot_of", "multisets", "outside")

    def __init__(self, slots: tuple[str, ...], slot_of: dict[str, int],
                 multisets: list, outside: dict[str, Multiset]):
        self.slots, self.slot_of = slots, slot_of
        self.multisets, self.outside = multisets, outside

    def __call__(self, state: tuple[int, ...]) -> Marking:
        m = Marking.__new__(Marking)
        m._places = m._entries = None
        m._state, m._table = state, self
        return m

    def places(self, state: tuple[int, ...]) -> dict[str, Multiset]:
        """The ``{place: Multiset}`` dict of the places ``state`` marks."""
        places = dict(compress(zip(self.slots, map(self.multisets.__getitem__, state)), state))
        places.update(self.outside)
        return places

    def held_by(self, states: Iterable[tuple[int, ...]]) -> "_StateTable":
        """This table with only the multisets that ``states`` hold, for
        their markings: the other ids keep None, so the states read as
        before and the rest can be let go."""
        multisets = self.multisets
        kept: list = [None] * len(multisets)
        for i in set(chain.from_iterable(states)):
            kept[i] = multisets[i]
        return _StateTable(self.slots, self.slot_of, kept, self.outside)


def successors(net: SchematicNet, m: Marking,
               s: Structure) -> list[tuple[str, Binding, Marking]]:
    """All enabled (transition, binding) pairs with their successor
    markings, in deterministic order."""
    return Stepper(net, s).successors(m)


# ---------------------------------------------------------------------------
# Occurrence nets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Condition:
    id: str
    place: str
    value: Value
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Event:
    id: str
    transition: str
    binding: Binding
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class OccurrenceNet:
    """An acyclic condition/event net with unbranched conditions.

    The net holds its nodes and arcs as given: :meth:`is_acyclic` and
    ``runs.validate_run`` test the two properties, and :attr:`index`
    looks nodes and their pre- and post-sets up by id."""

    conditions: tuple[Condition, ...] = ()
    events: tuple[Event, ...] = ()
    flow: tuple[tuple[str, str], ...] = ()

    @cached_property
    def index(self) -> "OccurrenceIndex":
        """Lookups built once from the net's immutable fields."""
        return OccurrenceIndex(self)

    def condition(self, node_id: str) -> Condition:
        try:
            return self.index.conditions[node_id]
        except KeyError:
            raise KeyError(f"no condition {node_id!r}") from None

    def event(self, node_id: str) -> Event:
        try:
            return self.index.events[node_id]
        except KeyError:
            raise KeyError(f"no event {node_id!r}") from None

    def pre(self, node_id: str) -> tuple[str, ...]:
        return self.index.pre.get(node_id, ())

    def post(self, node_id: str) -> tuple[str, ...]:
        return self.index.post.get(node_id, ())

    def is_empty(self) -> bool:
        return not (self.conditions or self.events or self.flow)

    def is_acyclic(self) -> bool:
        """Whether the flow relation has no cycle: one pass of Kahn's
        algorithm over :attr:`OccurrenceIndex.post` that only counts the
        nodes it reaches.  Arcs from or into unknown nodes are ignored,
        and an id that several nodes share counts once."""
        indeg = dict.fromkeys([c.id for c in self.conditions] + [e.id for e in self.events], 0)
        for src, tgt in self.flow:
            if src in indeg and tgt in indeg:
                indeg[tgt] += 1
        ready = [i for i, n in indeg.items() if n == 0]
        reached = len(ready)
        post = self.index.post
        while ready:
            for nxt in post.get(ready.pop(), ()):
                if nxt in indeg:
                    indeg[nxt] -= 1
                    if indeg[nxt] == 0:
                        ready.append(nxt)
                        reached += 1
        return reached == len(indeg)


class OccurrenceIndex:
    """Conditions and events by id, and each node's pre- and post-set in
    flow order.  The first of several equal ids wins, as in a linear scan."""

    def __init__(self, net: OccurrenceNet):
        self.conditions: dict[str, Condition] = {}
        for c in net.conditions:
            self.conditions.setdefault(c.id, c)
        self.events: dict[str, Event] = {}
        for e in net.events:
            self.events.setdefault(e.id, e)
        pre: dict[str, list[str]] = {}
        post: dict[str, list[str]] = {}
        for src, tgt in net.flow:
            pre.setdefault(tgt, []).append(src)
            post.setdefault(src, []).append(tgt)
        self.pre = {node: tuple(ids) for node, ids in pre.items()}
        self.post = {node: tuple(ids) for node, ids in post.items()}

"""Terms over a signature, guards, bindings, and their evaluation.

Parsed terms contain :class:`Ident` leaves; resolving a net against its
signature replaces each leaf by a variable, constant, or symbol
reference (see :mod:`hknet.nets`).  Evaluation requires resolved terms.

``elm`` is a multiset operator, not a value operator: it may appear only
at the top level of an arc or initial-marking inscription, where
:func:`inscription_tokens` expands the wrapped set into one token per
element.  :func:`evaluate` therefore rejects ``elm`` terms.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from .errors import EvalError
from .signature import Sort, Structure, carrier_of
from .spans import SourceSpan
from .values import Multiset, SetValue, TupleValue, Value, render_value


# ---------------------------------------------------------------------------
# Term syntax
# ---------------------------------------------------------------------------

class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Ident(Term):
    """An unresolved identifier (variable, constant, or symbol)."""

    name: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Sort
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ConstRef(Term):
    """A constant symbol of the signature."""

    name: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SymbolRef(Term):
    """A set or subset symbol used as a term; denotes its carrier."""

    name: str
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class App(Term):
    function: str
    args: tuple[Term, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class TupleTerm(Term):
    items: tuple[Term, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class SetTerm(Term):
    elements: tuple[Term, ...]
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Elm(Term):
    """Set expansion marker around a set-sorted term."""

    inner: Term
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


def render_term(t: Term) -> str:
    if isinstance(t, (Ident, Var, ConstRef, SymbolRef)):
        return t.name
    if isinstance(t, App):
        return f"{t.function}(" + ", ".join(render_term(a) for a in t.args) + ")"
    if isinstance(t, TupleTerm):
        return "(" + ", ".join(render_term(a) for a in t.items) + ")"
    if isinstance(t, SetTerm):
        return "{" + ", ".join(render_term(a) for a in t.elements) + "}"
    if isinstance(t, Elm):
        return f"elm({render_term(t.inner)})"
    raise TypeError(f"not a term: {t!r}")


def canonical_terms(terms: Iterable[Term]) -> tuple[Term, ...]:
    """The one order of inscriptions and initial terms: by rendering."""
    return tuple(sorted(terms, key=render_term))


def term_variables(t: Term) -> set[str]:
    """Names of variables (and unresolved identifiers) occurring in t."""
    if isinstance(t, (Var, Ident)):
        return {t.name}
    if isinstance(t, (ConstRef, SymbolRef)):
        return set()
    if isinstance(t, App):
        return set().union(*(term_variables(a) for a in t.args)) if t.args else set()
    if isinstance(t, TupleTerm):
        return set().union(*(term_variables(a) for a in t.items)) if t.items else set()
    if isinstance(t, SetTerm):
        return set().union(*(term_variables(a) for a in t.elements)) if t.elements else set()
    if isinstance(t, Elm):
        return term_variables(t.inner)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

# op is one of '=', 'in', 'sub'
@dataclass(frozen=True)
class GuardAtom:
    op: str
    left: Term
    right: Term
    span: SourceSpan | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Guard:
    """A conjunction of atoms; the empty conjunction is ``true``."""

    atoms: tuple[GuardAtom, ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def is_true(self) -> bool:
        return not self.atoms


def render_guard(g: Guard) -> str:
    if g.is_true():
        return "true"
    return " and ".join(
        f"{render_term(a.left)} {a.op} {render_term(a.right)}" for a in g.atoms)


def canonical_guard(atoms: Iterable[GuardAtom],
                    span: SourceSpan | None = None) -> Guard:
    """The conjunction of ``atoms`` in canonical order: by rendered left
    side, operator and rendered right side."""
    return Guard(tuple(sorted(
        atoms, key=lambda a: (render_term(a.left), a.op, render_term(a.right)))),
        span)


def conjoin(a: Guard, b: Guard) -> Guard:
    return canonical_guard(dict.fromkeys((*a.atoms, *b.atoms)))


def guard_variables(g: Guard) -> set[str]:
    out: set[str] = set()
    for a in g.atoms:
        out |= term_variables(a.left) | term_variables(a.right)
    return out


# ---------------------------------------------------------------------------
# Bindings
# ---------------------------------------------------------------------------

class Binding:
    """An immutable, hashable map from variable names to values."""

    __slots__ = ("_pairs",)

    def __init__(self, assignment: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        self._pairs = tuple(sorted(items))

    @classmethod
    def _from_sorted(cls, pairs: tuple[tuple[str, Value], ...]) -> "Binding":
        """The binding of ``pairs``, which are already sorted by name."""
        b = cls.__new__(cls)
        b._pairs = pairs
        return b

    def pairs(self) -> tuple[tuple[str, Value], ...]:
        return self._pairs

    def get(self, name: str) -> Value | None:
        for n, v in self._pairs:
            if n == name:
                return v
        return None

    def __getitem__(self, name: str) -> Value:
        v = self.get(name)
        if v is None:
            raise KeyError(name)
        return v

    def __contains__(self, name: str) -> bool:
        return any(n == name for n, _ in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def extends(self, partial: "Binding") -> bool:
        return all(self.get(n) == v for n, v in partial.pairs())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Binding) and other._pairs == self._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"Binding({render_binding(self)})"


EMPTY_BINDING = Binding()


def render_binding(b: Binding) -> str:
    return "[" + ", ".join(f"{n}={render_value(v)}" for n, v in b.pairs()) + "]"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(t: Term, s: Structure, b: Binding = EMPTY_BINDING) -> Value:
    """Bottom-up evaluation of a resolved, elm-free term."""
    if isinstance(t, Var):
        v = b.get(t.name)
        if v is None:
            raise EvalError(f"unbound variable {t.name!r}", t.span)
        return v
    if isinstance(t, ConstRef):
        if t.name not in s.constants:
            raise EvalError(f"constant {t.name!r} has no value in {s.name!r}", t.span)
        return s.constants[t.name]
    if isinstance(t, SymbolRef):
        return s.carrier_value(t.name)
    if isinstance(t, App):
        args = tuple(evaluate(a, s, b) for a in t.args)
        table = s.functions.get(t.function)
        if table is None:
            raise EvalError(f"function {t.function!r} has no table in {s.name!r}", t.span)
        if args not in table:
            arg_text = ", ".join(render_value(a) for a in args)
            raise EvalError(
                f"function {t.function!r} is undefined on ({arg_text})", t.span)
        return table[args]
    if isinstance(t, TupleTerm):
        return TupleValue(evaluate(a, s, b) for a in t.items)
    if isinstance(t, SetTerm):
        return SetValue(evaluate(a, s, b) for a in t.elements)
    if isinstance(t, Elm):
        raise EvalError("elm(...) is not a value; it may only inscribe arcs "
                        "and initial markings", t.span)
    if isinstance(t, Ident):
        raise EvalError(f"unresolved identifier {t.name!r}; resolve the net "
                        "against its signature first", t.span)
    raise TypeError(f"not a term: {t!r}")


def term_tokens(t: Term, s: Structure, b: Binding = EMPTY_BINDING) -> tuple[Value, ...]:
    """The tokens one inscription term stands for: its value, or, for an
    ``elm`` term, the elements of its set value."""
    if isinstance(t, Elm):
        value = evaluate(t.inner, s, b)
        if not isinstance(value, SetValue):
            raise EvalError(
                f"elm expects a set value, got {render_value(value)}", t.span)
        return value.elements
    return (evaluate(t, s, b),)


def inscription_tokens(terms: Iterable[Term], s: Structure,
                       b: Binding = EMPTY_BINDING) -> Multiset:
    """Evaluate an inscription (a multiset of terms, each possibly
    elm-wrapped at top level) into a multiset of tokens."""
    counts: dict[Value, int] = {}
    for t in terms:
        for v in term_tokens(t, s, b):
            counts[v] = counts.get(v, 0) + 1
    return Multiset._from_pairs(counts)


def eval_guard(g: Guard, s: Structure, b: Binding = EMPTY_BINDING) -> bool:
    for atom in g.atoms:
        if not _eval_atom(atom, s, b):
            return False
    return True


def _eval_atom(atom: GuardAtom, s: Structure, b: Binding) -> bool:
    left = evaluate(atom.left, s, b)
    right = evaluate(atom.right, s, b)
    if atom.op == "=":
        return left == right
    if atom.op == "in":
        if not isinstance(right, SetValue):
            raise EvalError(
                f"'in' needs a set on the right, got {render_value(right)}", atom.span)
        return left in right
    if atom.op == "sub":
        if not isinstance(left, SetValue) or not isinstance(right, SetValue):
            raise EvalError("'sub' compares two set values", atom.span)
        return left.issubset(right)
    raise EvalError(f"unknown guard operator {atom.op!r}", atom.span)


# ---------------------------------------------------------------------------
# Binding enumeration
# ---------------------------------------------------------------------------

def enumerate_bindings(variables: Sequence[tuple[str, Sort]],
                       s: Structure) -> Iterator[Binding]:
    """Yield every sort-respecting total assignment exactly once.

    Order is deterministic: variables are taken lexicographically by
    name and their carriers in canonical value order, so the stream is
    lexicographic overall.
    """
    ordered = sorted(variables, key=lambda nv: nv[0])
    names = [n for n, _ in ordered]
    if len(set(names)) != len(names):
        raise EvalError(f"duplicate variable names in {names}")
    domains = [carrier_of(sort, s) for _, sort in ordered]
    for combo in itertools.product(*domains):
        yield Binding(zip(names, combo))

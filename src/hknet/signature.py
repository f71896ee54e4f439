"""Signatures (symbol alphabets), sorts, and structures interpreting them.

A signature declares set symbols, subset symbols (subsets of a powerset
of some declared symbol), typed constant symbols, and typed function
symbols.  A structure gives every symbol a finite, explicit
interpretation: carriers as value sets, functions as total lookup
tables, constants as values.  Structures are validated against their
signature by :func:`validate_structure`, which reports violations
instead of raising.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping, Sequence

from .errors import EvalError, SortError, Violation
from .spans import SourceSpan
from .values import SetValue, TupleValue, Value, render_value

POWERSET_CAP = 16  # the largest base carrier whose powerset is built


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

class Sort:
    __slots__ = ()


@dataclass(frozen=True)
class SortName(Sort):
    """A declared set or subset symbol used as a sort."""

    name: str


@dataclass(frozen=True)
class PowSort(Sort):
    """The powerset of a declared symbol's carrier."""

    base: str


@dataclass(frozen=True)
class TupleSort(Sort):
    components: tuple[Sort, ...]


def render_sort(s: Sort) -> str:
    if isinstance(s, SortName):
        return s.name
    if isinstance(s, PowSort):
        return f"pow({s.base})"
    if isinstance(s, TupleSort):
        return "(" + ", ".join(render_sort(c) for c in s.components) + ")"
    raise TypeError(f"not a sort: {s!r}")


# ---------------------------------------------------------------------------
# Signature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """An alphabet of typed symbols from which terms are built.

    The lookups read one ``{symbol: (kind, detail)}`` table, built once
    and kept, as :class:`Structure` keeps its tables.  The detail is None
    for a set, the base for a subset, the sort for a constant, and
    ``(argument sorts, result sort)`` for a function."""

    name: str
    sets: tuple[str, ...] = ()
    # (symbol, base set symbol): symbol denotes a subset of pow(base)
    subsets: tuple[tuple[str, str], ...] = ()
    constants: tuple[tuple[str, Sort], ...] = ()
    functions: tuple[tuple[str, tuple[Sort, ...], Sort], ...] = ()
    span: SourceSpan | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._symbols  # built first, so a repeated symbol name raises here
        for _, base in self.subsets:
            if base not in self.sets:
                raise SortError(f"subset base {base!r} is not a declared set symbol")
        for name, sort in self.constants:
            self._check_sort(sort, f"constant {name!r}")
        for name, args, res in self.functions:
            for a in (*args, res):
                self._check_sort(a, f"function {name!r}")

    @cached_property
    def _symbols(self) -> dict[str, tuple[str, Any]]:
        """The symbol table; a name declared twice is a :class:`SortError`."""
        table: dict[str, tuple[str, Any]] = {}
        for name, entry in itertools.chain(
                ((n, ("set", None)) for n in self.sets),
                ((n, ("subset", base)) for n, base in self.subsets),
                ((n, ("constant", sort)) for n, sort in self.constants),
                ((n, ("function", (args, res))) for n, args, res in self.functions)):
            if name in table:
                raise SortError(f"duplicate symbol name {name!r} in signature {self.name!r}")
            table[name] = entry
        return table

    def _check_sort(self, sort: Sort, where: str) -> None:
        for name in sort_symbols(sort):
            if not self.declares_carrier(name):
                raise SortError(f"{where} mentions undeclared sort symbol {name!r}")

    # lookup helpers -------------------------------------------------------

    def _detail(self, name: str, kind: str) -> Any:
        found, detail = self._symbols.get(name, (None, None))
        return detail if found == kind else None

    def declares_carrier(self, name: str) -> bool:
        return self.symbol_kind(name) in ("set", "subset")

    def subset_base(self, name: str) -> str | None:
        return self._detail(name, "subset")

    def constant_sort(self, name: str) -> Sort | None:
        return self._detail(name, "constant")

    def function_signature(self, name: str) -> tuple[tuple[Sort, ...], Sort] | None:
        return self._detail(name, "function")

    def symbol_kind(self, name: str) -> str | None:
        """One of 'set', 'subset', 'constant', 'function', or None."""
        return self._symbols.get(name, (None,))[0]


def sort_symbols(sort: Sort) -> Iterable[str]:
    if isinstance(sort, SortName):
        yield sort.name
    elif isinstance(sort, PowSort):
        yield sort.base
    elif isinstance(sort, TupleSort):
        for c in sort.components:
            yield from sort_symbols(c)


def sorts_compatible(a: Sort, b: Sort, sig: Signature) -> bool:
    """Structural equality, loosened so a subset symbol matches the
    powerset it was carved out of and every other subset of that
    powerset, but not the base set.  Used for static checks only;
    runtime carrier membership is the authority."""
    if a == b:
        return True
    if isinstance(a, SortName) and isinstance(b, SortName):
        base = sig.subset_base(a.name)
        return base is not None and base == sig.subset_base(b.name)
    if isinstance(a, SortName) and isinstance(b, PowSort):
        return sig.subset_base(a.name) == b.base
    if isinstance(a, PowSort) and isinstance(b, SortName):
        return sig.subset_base(b.name) == a.base
    if isinstance(a, TupleSort) and isinstance(b, TupleSort):
        return len(a.components) == len(b.components) and all(
            sorts_compatible(x, y, sig) for x, y in zip(a.components, b.components))
    return False


# ---------------------------------------------------------------------------
# Structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Structure:
    """A concrete interpretation of a signature.

    Function tables are keyed by argument tuples; carriers are stored in
    canonical value order.  Structures are immutable after construction
    and safe to share between concurrent readers.  Only two tables are
    kept on one: the carrier table of each sort and the compiled kernel
    of each transition enabled or fired under it, dropped with its net.
    They are derived from the fields on first use, and an entry, once
    added, is never changed.
    """

    name: str
    signature: Signature
    carriers: Mapping[str, tuple[Value, ...]]
    functions: Mapping[str, Mapping[tuple[Value, ...], Value]]
    constants: Mapping[str, Value]

    def carrier(self, symbol: str) -> tuple[Value, ...]:
        try:
            return self.carriers[symbol]
        except KeyError:
            raise EvalError(f"no carrier for symbol {symbol!r} in structure {self.name!r}")

    def carrier_value(self, symbol: str) -> SetValue:
        """The carrier of ``symbol`` as one set value, built on each call:
        a kernel folds a symbol to its value once per build."""
        return SetValue(self.carrier(symbol))

    @cached_property
    def _carrier_tables(self) -> dict[Sort, tuple[tuple[Value, ...], dict[Value, int]]]:
        """Per sort: :func:`carrier_of` and each value's position in it."""
        return {}

    @cached_property
    def _kernels(self) -> weakref.WeakKeyDictionary:
        """Per resolved transition's match plan: the transition compiled
        against this structure (``nets._kernel``), kept while the plan,
        and so its net, lives."""
        return weakref.WeakKeyDictionary()


def make_structure(name: str,
                   signature: Signature,
                   carriers: Mapping[str, Iterable[Value]],
                   functions: Mapping[str, Mapping] | None = None,
                   constants: Mapping[str, Value] | None = None) -> Structure:
    """Normalize plain dicts into a Structure (sorted carriers, tuple keys)."""
    carr = {sym: tuple(sorted(set(vals), key=lambda v: v.key())) for sym, vals in carriers.items()}
    fns: dict[str, dict[tuple[Value, ...], Value]] = {}
    for fname, table in (functions or {}).items():
        norm: dict[tuple[Value, ...], Value] = {}
        for args, result in table.items():
            if isinstance(args, Value):
                args = (args,)
            norm[tuple(args)] = result
        fns[fname] = norm
    return Structure(name, signature, carr, fns, dict(constants or {}))


def carrier_of(sort: Sort, s: Structure) -> tuple[Value, ...]:
    """All values of a sort under a structure, in canonical order.

    Powerset sorts are materialized explicitly and are capped: a base
    carrier larger than :data:`POWERSET_CAP` is rejected rather than
    silently exploding.  The result is memoised on ``s``.
    """
    return _carrier_table(sort, s)[0]


def carrier_rank(sort: Sort, s: Structure) -> Mapping[Value, int]:
    """Position of every value of ``carrier_of(sort, s)``: a membership
    table that also orders values as the carrier does.  Memoised on
    ``s``, and capped like :func:`carrier_of`."""
    return _carrier_table(sort, s)[1]


def _carrier_table(sort: Sort, s: Structure) -> tuple[tuple[Value, ...], dict[Value, int]]:
    table = s._carrier_tables.get(sort)
    if table is None:
        values = _build_carrier(sort, s)
        table = (values, {v: i for i, v in enumerate(values)})
        s._carrier_tables[sort] = table
    return table


def inverse_table(function: str, s: Structure) -> Mapping[Value, tuple[Value, ...]]:
    """Every result of the unary ``function`` under ``s`` with the
    arguments its table maps to it, in table order; entries of other
    arities are left out, and a function without a table has none.
    Built on each call: a kernel reads it once per build."""
    preimages: dict[Value, list[Value]] = {}
    for args, result in s.functions.get(function, {}).items():
        if len(args) == 1:
            preimages.setdefault(result, []).append(args[0])
    return {result: tuple(args) for result, args in preimages.items()}


def _build_carrier(sort: Sort, s: Structure) -> tuple[Value, ...]:
    if isinstance(sort, SortName):
        return s.carrier(sort.name)
    if isinstance(sort, PowSort):
        return powerset(sort.base, s.carrier(sort.base))
    if isinstance(sort, TupleSort):
        components = [carrier_of(c, s) for c in sort.components]
        return tuple(TupleValue(items) for items in itertools.product(*components))
    raise TypeError(f"not a sort: {sort!r}")


def powerset(symbol: str, base: Sequence[Value]) -> tuple[SetValue, ...]:
    """Every subset of the carrier ``base`` of ``symbol``, in canonical
    order; an :class:`EvalError` when ``base`` has more than
    :data:`POWERSET_CAP` values."""
    if len(base) > POWERSET_CAP:
        raise EvalError(
            f"powerset of {symbol!r} has base size {len(base)}, "
            f"which exceeds the cap of {POWERSET_CAP}")
    subsets = (SetValue(combo) for r in range(len(base) + 1)
               for combo in itertools.combinations(base, r))
    return tuple(sorted(subsets, key=lambda v: v.key()))


def value_in_sort(v: Value, sort: Sort, s: Structure) -> bool:
    """Membership test that never materializes powersets."""
    if isinstance(sort, SortName):
        return v in carrier_rank(sort, s)
    if isinstance(sort, PowSort):
        if not isinstance(v, SetValue):
            return False
        base = carrier_rank(SortName(sort.base), s)
        return all(e in base for e in v)
    if isinstance(sort, TupleSort):
        if not isinstance(v, TupleValue) or len(v.items) != len(sort.components):
            return False
        return all(value_in_sort(x, c, s) for x, c in zip(v.items, sort.components))
    raise TypeError(f"not a sort: {sort!r}")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_structure(sig: Signature, s: Structure) -> list[Violation]:
    """Check that ``s`` is a model of ``sig``; empty report means yes.

    Reported codes: ``missing-carrier``, ``subset``, ``missing-constant``,
    ``constant-sort``, ``missing-function``, ``non-total-function``,
    ``function-domain``, ``codomain``.
    """
    out: list[Violation] = []
    for sym in sig.sets:
        if sym not in s.carriers:
            out.append(Violation("missing-carrier", f"set symbol {sym!r} has no carrier"))
    for sym, base in sig.subsets:
        if sym not in s.carriers:
            out.append(Violation("missing-carrier", f"subset symbol {sym!r} has no carrier"))
            continue
        if base not in s.carriers:
            continue  # reported above for the base symbol
        base_vals = set(s.carriers[base])
        for v in s.carriers[sym]:
            if not isinstance(v, SetValue):
                out.append(Violation(
                    "subset", f"{sym!r} contains non-set value {render_value(v)}"))
            elif not all(e in base_vals for e in v):
                out.append(Violation(
                    "subset",
                    f"{sym!r} contains {render_value(v)}, not a subset of {base!r}"))
    for name, sort in sig.constants:
        if name not in s.constants:
            out.append(Violation("missing-constant", f"constant {name!r} has no value"))
        elif not _sort_ready(sort, s):
            pass
        elif not value_in_sort(s.constants[name], sort, s):
            out.append(Violation(
                "constant-sort",
                f"constant {name!r} = {render_value(s.constants[name])} "
                f"is outside sort {render_sort(sort)}"))
    for name, arg_sorts, res_sort in sig.functions:
        if name not in s.functions:
            out.append(Violation("missing-function", f"function {name!r} has no table"))
            continue
        table = s.functions[name]
        if not all(_sort_ready(srt, s) for srt in (*arg_sorts, res_sort)):
            continue
        domain = list(itertools.product(*(carrier_of(a, s) for a in arg_sorts)))
        domain_set = set(domain)
        for args in domain:
            if args not in table:
                arg_text = ", ".join(render_value(a) for a in args)
                out.append(Violation(
                    "non-total-function",
                    f"function {name!r} is undefined on ({arg_text})"))
        for args, result in table.items():
            if args not in domain_set:
                arg_text = ", ".join(render_value(a) for a in args)
                out.append(Violation(
                    "function-domain",
                    f"function {name!r} has an entry outside its domain: ({arg_text})"))
            elif not value_in_sort(result, res_sort, s):
                out.append(Violation(
                    "codomain",
                    f"function {name!r} maps into {render_value(result)}, "
                    f"outside {render_sort(res_sort)}"))
    return out


def _sort_ready(sort: Sort, s: Structure) -> bool:
    """True when every symbol the sort mentions has a carrier."""
    return all(sym in s.carriers for sym in sort_symbols(sort))

"""Ground values (atoms, tuples, finite sets) and multisets of them.

All values are immutable, hashable, and totally ordered by a canonical
key: atoms by name, tuples lexicographically, sets by their sorted
element sequence, with the kind as first tie-breaker.  This single order
is what makes enumeration, marking iteration, and printing deterministic
everywhere in the kernel.

Values and multisets are hashed on every marking lookup, so a value
computes its hash once, when it is built, and a multiset keeps a
``{value: count}`` dict whose sorted view and hash are computed on first
use.  Dict and set order never reaches output.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping


class Value:
    """Base class of ground values."""

    __slots__ = ()

    def key(self) -> tuple:
        raise NotImplementedError

    def __lt__(self, other: "Value") -> bool:
        return self.key() < other.key()

    def __le__(self, other: "Value") -> bool:
        return self.key() <= other.key()


class Atom(Value):
    """An opaque named element, e.g. ``t1`` or ``Alice``."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash((Atom, name))

    def key(self) -> tuple:
        return (0, self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Atom) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Atom, (self.name,))

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"


class TupleValue(Value):
    """An ordered, fixed-arity grouping of values."""

    __slots__ = ("items", "_hash")

    def __init__(self, items: Iterable[Value]):
        self.items = tuple(items)
        self._hash = hash((TupleValue, self.items))

    def key(self) -> tuple:
        return (1, tuple(v.key() for v in self.items))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TupleValue) and other.items == self.items

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (TupleValue, (self.items,))

    def __repr__(self) -> str:
        return f"TupleValue({list(self.items)!r})"


class SetValue(Value):
    """An unordered, duplicate-free collection of values.

    Elements are stored sorted by canonical key, so iteration order is
    deterministic and equality is structural.
    """

    __slots__ = ("elements", "_hash", "_members")

    def __init__(self, elements: Iterable[Value] = ()):
        seen = {}
        for v in elements:
            seen[v] = None
        self.elements = tuple(sorted(seen, key=lambda v: v.key()))
        self._hash = hash((SetValue, self.elements))
        self._members: frozenset[Value] | None = None

    def key(self) -> tuple:
        return (2, tuple(v.key() for v in self.elements))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetValue) and other.elements == self.elements

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (SetValue, (self.elements,))

    def _member_set(self) -> frozenset[Value]:
        if self._members is None:
            self._members = frozenset(self.elements)
        return self._members

    def __contains__(self, v: Value) -> bool:
        return v in self._member_set()

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def issubset(self, other: "SetValue") -> bool:
        return self._member_set() <= other._member_set()

    def __repr__(self) -> str:
        return f"SetValue({list(self.elements)!r})"


def render_value(v: Value) -> str:
    if isinstance(v, Atom):
        return v.name
    if isinstance(v, TupleValue):
        return "(" + ", ".join(render_value(x) for x in v.items) + ")"
    if isinstance(v, SetValue):
        return "{" + ", ".join(render_value(x) for x in v.elements) + "}"
    raise TypeError(f"not a value: {v!r}")


def _value_key(pair: tuple[Value, int]) -> tuple:
    return pair[0].key()


class Multiset:
    """An immutable multiset of values with canonical iteration order.

    It holds one ``{value: count}`` dict of positive counts.  The
    canonical sorted pairs, and the hash, are computed on first use and
    kept; both depend only on the dict, which never changes.
    """

    __slots__ = ("_counts", "_pairs", "_hash")

    def __init__(self, values: Iterable[Value] = ()):
        counts: dict[Value, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        self._counts = counts
        self._pairs: tuple[tuple[Value, int], ...] | None = None
        self._hash: int | None = None

    @classmethod
    def _from_pairs(cls, counts: dict[Value, int]) -> "Multiset":
        """The multiset that takes over ``counts``, whose counts are all
        positive; the caller must not change the dict afterwards."""
        m = cls.__new__(cls)
        m._counts = counts
        m._pairs = None
        m._hash = None
        return m

    def pairs(self) -> tuple[tuple[Value, int], ...]:
        """``(value, count)`` pairs in canonical value order."""
        if self._pairs is None:
            self._pairs = tuple(sorted(self._counts.items(), key=_value_key))
        return self._pairs

    def counts(self) -> Mapping[Value, int]:
        """The ``{value: count}`` dict itself, in no particular order;
        read it, never change it."""
        return self._counts

    def count(self, v: Value) -> int:
        return self._counts.get(v, 0)

    def total(self) -> int:
        return sum(self._counts.values())

    def distinct(self) -> tuple[Value, ...]:
        return tuple(v for v, _ in self.pairs())

    def __iter__(self) -> Iterator[Value]:
        for v, n in self.pairs():
            for _ in range(n):
                yield v

    def __len__(self) -> int:
        return self.total()

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and other._counts == self._counts

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._counts.items()))
        return self._hash

    def updated(self, remove: Mapping[Value, int], add: Mapping[Value, int]) -> "Multiset":
        """The multiset with the ``{value: count}`` dict ``remove`` taken
        off and ``add`` put on; a ``ValueError`` names the first value,
        canonically, of which ``remove`` asks more than there is."""
        counts = self._counts.copy()
        for v, n in remove.items():
            left = counts.get(v, 0) - n
            if left < 0:
                first, wanted = next((w, k) for w, k in sorted(remove.items(), key=_value_key)
                                     if self.count(w) < k)
                raise ValueError(f"cannot remove {wanted} of {render_value(first)}, "
                                 f"have {self.count(first)}")
            if left:
                counts[v] = left
            else:
                counts.pop(v, None)
        for v, n in add.items():
            counts[v] = counts.get(v, 0) + n
        return Multiset._from_pairs(counts)

    def __add__(self, other: "Multiset") -> "Multiset":
        return self.updated({}, other._counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        return self.updated(other._counts, {})

    def __le__(self, other: "Multiset") -> bool:
        """Multiset containment."""
        have = other._counts
        return all(have.get(v, 0) >= n for v, n in self._counts.items())

    def __reduce__(self):
        return (Multiset, (list(self),))

    def __repr__(self) -> str:
        return f"Multiset([{', '.join(render_value(v) for v in self)}])"

"""Per-instantiation verification: grounding, invariants, reachability.

Grounding expands an instantiated high-level net into an elementary net:
one grounded place per (place, carrier value), one grounded transition
per (transition, guard-satisfying binding), with integer incidence
entries read off the evaluated arc inscriptions.  Place and transition
invariants are integer bases of the left and right null-spaces of the
incidence matrix, read off one sparse, fraction-free elimination over
integer rows and verified by multiplication.  Reachability exploration
is plain breadth-first search over the interned states of a
:class:`nets.Stepper` with node/edge caps; each node's marking reads its
places off its state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from math import gcd, lcm
from typing import Any, Callable, Hashable, Iterable, Sequence

from .errors import EvalError, ModelError
from .nets import Marking, Stepper, _kernel
from .signature import carrier_of
from .systems import System
from .terms import Binding, _carrier_product, render_binding
from .values import Value, render_value


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundedNet:
    """Elementary place/transition view of one instantiation, kept by
    column: ``pre_columns[t]`` and ``post_columns[t]`` map the index of each
    place that transition ``t`` consumes from or produces on to its nonzero
    count.  The dense places x transitions views are derived on first use."""

    places: tuple[tuple[str, Value], ...]
    transitions: tuple[tuple[str, Binding], ...]
    pre_columns: tuple[dict[int, int], ...]
    post_columns: tuple[dict[int, int], ...]
    initial: tuple[int, ...]

    @cached_property
    def incidence_columns(self) -> tuple[dict[int, int], ...]:
        """Per transition, its nonzero effect: {place index: post - pre}."""
        return tuple({p: n for p in {**pre, **post} if (n := post.get(p, 0) - pre.get(p, 0))}
                     for pre, post in zip(self.pre_columns, self.post_columns))

    @cached_property
    def incidence_rows(self) -> tuple[dict[int, int], ...]:
        """Per place, its nonzero effects: {transition index: post - pre}."""
        rows: tuple[dict[int, int], ...] = tuple({} for _ in self.places)
        for t, column in enumerate(self.incidence_columns):
            for p, n in column.items():
                rows[p][t] = n
        return rows

    @cached_property
    def pre(self) -> tuple[tuple[int, ...], ...]:
        return self._dense(self.pre_columns)

    @cached_property
    def post(self) -> tuple[tuple[int, ...], ...]:
        return self._dense(self.post_columns)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        return self._dense(self.incidence_columns)

    def _dense(self, columns: Sequence[dict[int, int]]) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(column.get(p, 0) for column in columns)
                     for p in range(len(self.places)))

    def place_label(self, index: int) -> str:
        place, value = self.places[index]
        return f"{place}:{render_value(value)}"

    def transition_label(self, index: int) -> str:
        name, binding = self.transitions[index]
        return f"{name}{render_binding(binding)}"

    def marking_vector(self, m: Marking) -> tuple[int, ...]:
        return tuple(m.get(place).count(value) for place, value in self.places)


def _sparse(row: Iterable[int]) -> dict[int, int]:
    return {c: v for c, v in enumerate(row) if v}


def _dense(vec: dict[int, int], width: int) -> tuple[int, ...]:
    x = [0] * width
    for c, v in vec.items():
        x[c] = v
    return tuple(x)


def ground(sys: System) -> GroundedNet:
    """Expand a system into its grounded elementary net.

    Place domains are over-approximated by the full carrier of the place
    sort, which is sound for invariants; every place must therefore be
    sorted.  Binding domains run through the same powerset cap as
    enumeration.  A binding under which evaluation fails, or which puts
    a token outside a place's carrier, can never fire and gets no
    column.  Each transition's kernel evaluates its guard and then its
    arcs on one plain dict per binding; a :class:`Binding` is built only
    for the bindings that get a column.
    """
    net, s = sys.net, sys.structure
    places: list[tuple[str, Value]] = []
    for p in sorted(net.places, key=lambda p: p.name):
        if p.sort is None:
            raise ModelError(
                f"place {p.name!r} has no sort; grounding needs every place sorted")
        for v in carrier_of(p.sort, s):
            places.append((p.name, v))
    place_index = {pv: i for i, pv in enumerate(places)}

    kept: list[tuple[tuple[str, Binding], dict[int, int], dict[int, int]]] = []
    for t in sorted(net.transitions, key=lambda t: t.name):
        names, combos = _carrier_product(t.variables or (), s)
        kernel = _kernel(net, t.name, s)
        for combo in combos:
            env = dict(zip(names, combo))
            try:
                if not kernel.holds(env):
                    continue
                consumed, produced = kernel.occurrence(env)
            except EvalError:
                continue
            pre, post = ({place_index.get((place, v)): n for place, counts in tokens.items()
                          for v, n in counts.items()} for tokens in (consumed, produced))
            if None in pre or None in post:
                continue  # a token outside its place's carrier
            kept.append(((t.name, Binding._from_sorted(tuple(zip(names, combo)))), pre, post))

    initial = tuple(sys.initial.get(place).count(value) for place, value in places)
    transitions, pre_cols, post_cols = (tuple(k[i] for k in kept) for i in range(3))
    return GroundedNet(tuple(places), transitions, pre_cols, post_cols, initial)


# ---------------------------------------------------------------------------
# Exact integer null-spaces
# ---------------------------------------------------------------------------

def _rref(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced row-echelon form of sparse integer rows, up to row scaling,
    as {pivot column: primitive row}, by fraction-free Gauss-Jordan
    elimination: each new pivot row back-reduces the earlier ones.

    The form is unique for the row space, so the order in which rows are
    taken changes only the fill-in on the way.  They are taken by
    descending last column, a fixed fill-reducing order: on the grounded
    incidence matrices of the corpus and of the synthetic structures
    s_n_k, elimination then reads a third to a half fewer row entries
    than in the given order, and fewer than in reversed order, by
    ascending length or by first column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=lambda row: max(row, default=-1), reverse=True):
        row = _reduce(row, pivots)
        if not row:
            continue
        col = min(row)
        for p in [p for p, other in pivots.items() if col in other]:
            pivots[p] = _eliminate(pivots[p], row, col)
        pivots[col] = row
    return pivots


def _reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]) -> dict[int, int]:
    """``row`` with every pivot column of ``pivots`` eliminated."""
    for col in [c for c in row if c in pivots]:
        row = _eliminate(row, pivots[col], col)
    return row


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """The primitive integer combination of ``row`` and ``pivot`` that is
    zero in column ``col``."""
    g = gcd(row[col], pivot[col])
    a, b = row[col] // g, pivot[col] // g
    out = {c: b * v for c, v in row.items()}
    for c, v in pivot.items():
        w = out.get(c, 0) - a * v
        if w:
            out[c] = w
        else:
            del out[c]
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items()} if g > 1 else out


def nullspace(matrix: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Integer basis of {x : matrix @ x = 0} for a dense matrix of ``width``
    columns; a ValueError names a row of another length."""
    for i, row in enumerate(matrix):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, not the width {width}")
    return [_dense(vec, width) for vec in _basis(_rref(_sparse(row) for row in matrix), width)]


def _basis(pivots: dict[int, dict[int, int]], width: int) -> list[dict[int, int]]:
    """The null-space basis read off a reduced row-echelon form, as sparse
    {column: entry} vectors: one per free column, scaled to coprime
    integers with a positive first nonzero entry.  A pivot row's entries
    off its pivot lie in free columns, so one pass indexes, per free
    column, the rows that use it."""
    uses: dict[int, list[int]] = {}
    for p, row in pivots.items():
        for c in row:
            if c != p:
                uses.setdefault(c, []).append(p)
    basis: list[dict[int, int]] = []
    for free in range(width):
        if free in pivots:
            continue
        rows = uses.get(free, ())
        scale = lcm(*(pivots[p][p] for p in rows))
        vec = {free: scale}
        for p in rows:
            vec[p] = -pivots[p][free] * scale // pivots[p][p]
        g = gcd(*vec.values())
        if vec[min(vec)] < 0:
            g = -g
        basis.append({c: v // g for c, v in vec.items()})
    return basis


def place_invariants(g: GroundedNet) -> list[tuple[int, ...]]:
    """Integer basis of {i : i^T C = 0}; each vector is re-verified."""
    return _invariants("place", g.incidence_columns, g.incidence_rows)


def transition_invariants(g: GroundedNet) -> list[tuple[int, ...]]:
    """Integer basis of {j : C j = 0}; each vector is re-verified."""
    return _invariants("transition", g.incidence_rows, g.incidence_columns)


def _invariants(kind: str, rows: Sequence[dict[int, int]],
                columns: Sequence[dict[int, int]]) -> list[tuple[int, ...]]:
    """Integer basis of {x : M x = 0} for M of sparse ``rows`` and the same
    sparse ``columns``; each vector is re-verified by summing
    ``columns[k] * x`` over its nonzero entries ``x``."""
    width = len(columns)
    basis = _basis(_rref(rows), width)
    for i, vec in enumerate(basis):
        total: dict[int, int] = {}
        for k, x in vec.items():
            for r, a in columns[k].items():
                total[r] = total.get(r, 0) + a * x
        if any(total.values()):
            raise ModelError(
                f"{kind} invariant {i} is not in the null-space of the incidence matrix")
    return [_dense(vec, width) for vec in basis]


def in_span(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Exact test that ``vector`` is a rational combination of ``basis``:
    it reduces to zero against the echelon form of the basis vectors.  A
    ValueError names a basis vector whose length differs from ``vector``'s."""
    for i, b in enumerate(basis):
        if len(b) != len(vector):
            raise ValueError(f"basis vector {i} has {len(b)} entries, "
                             f"the vector {len(vector)}")
    return not _reduce(_sparse(vector), _rref(_sparse(b) for b in basis))


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

class _Capped:
    """A graph of a capped search: ``truncated_by`` names the cap hit
    first, ``"nodes"`` or ``"edges"``, or is ``""``, and ``truncated`` is
    whether one was hit.  The repr shows ``truncated`` after the first
    two fields and hides ``truncated_by``."""

    @property
    def truncated(self) -> bool:
        return bool(self.truncated_by)

    def __repr__(self) -> str:
        shown = [(f.name, getattr(self, f.name)) for f in fields(self) if f.repr]
        shown.insert(2, ("truncated", self.truncated))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in shown)})"


@dataclass(frozen=True, repr=False)
class ReachabilityGraph(_Capped):
    """The graph of a capped :func:`explore`: one marking per node, in
    discovery order, and the edges ``(source, transition, binding,
    target)`` by node index.  Each marking keeps its node's state, a
    tuple of multiset ids, and one table that all of them share, holding
    the multisets their states number; a place's tokens are read off
    the state, and the place dict is built only when something other
    than ``get`` asks for it."""

    markings: tuple[Marking, ...]
    edges: tuple[tuple[int, str, Binding, int], ...]
    truncated_by: str = field(repr=False)
    deadlocks: tuple[int, ...]
    predicate_hits: tuple[int, ...]


def explore(sys: System, max_nodes: int = 10000, max_edges: int = 100000,
            predicate: Callable[[Marking], bool] | None = None) -> ReachabilityGraph:
    """Breadth-first state space of a system, deterministic and capped.

    Hitting a cap truncates the graph instead of raising, and
    ``truncated_by`` names the cap hit first: ``"nodes"`` or ``"edges"``.
    The initial marking is always kept, so ``max_nodes`` must be at
    least 1 (a ValueError otherwise).  Deadlock markings and predicate
    hits are reported by node index.

    The search steps on the states of one :class:`nets.Stepper`, and
    each node's marking is its state read through the table of
    :meth:`nets.Stepper.encoding`, so ``predicate`` reads a place's
    tokens off the state and nothing builds a place dict.  A search cut
    off by ``max_nodes`` numbered multisets for the states it dropped
    too; the graph keeps only those its states hold.
    """
    _check_node_cap(max_nodes)
    stepper = Stepper(sys.net, sys.structure)
    root, decode = stepper.encoding(sys.initial)
    states, edges, truncated_by, deadlocks = _bfs(root, stepper.step, max_nodes, max_edges)
    if len(states) == max_nodes:
        decode = decode.held_by(states)  # let go of what only dropped states held
    markings = tuple(map(decode, states))
    hits = () if predicate is None else tuple(
        i for i, m in enumerate(markings) if predicate(m))
    return ReachabilityGraph(markings, edges, truncated_by, deadlocks, hits)


@dataclass(frozen=True, repr=False)
class GroundedReachabilityGraph(_Capped):
    vectors: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]  # (source, transition index, target)
    truncated_by: str = field(repr=False)
    deadlocks: tuple[int, ...]


def explore_grounded(g: GroundedNet, max_nodes: int = 10000,
                     max_edges: int = 100000) -> GroundedReachabilityGraph:
    """BFS over the grounded net's marking vectors, capped as
    :func:`explore` is."""
    _check_node_cap(max_nodes)

    def successors(vec: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        return [(t, tuple(v + delta.get(p, 0) for p, v in enumerate(vec)))
                for t, (pre, delta) in enumerate(zip(g.pre_columns, g.incidence_columns))
                if all(vec[p] >= n for p, n in pre.items())]

    vectors, edges, truncated_by, deadlocks = _bfs(g.initial, successors,
                                                   max_nodes, max_edges)
    return GroundedReachabilityGraph(vectors, edges, truncated_by, deadlocks)


def _check_node_cap(max_nodes: int) -> None:
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, the initial marking: {max_nodes}")


def _bfs(root: Hashable, successors: Callable[[Any], Sequence[tuple]],
         max_nodes: int, max_edges: int) -> tuple:
    """Capped breadth-first search from ``root``, where
    ``successors(node)`` lists tuples ``(*label, target)``.

    Returns the nodes in discovery order, the edges ``(source, *label,
    target)`` by node index, which cap was hit first (``"nodes"``,
    ``"edges"`` or ``""``), and the indices of deadlocks.  A new node
    over ``max_nodes`` is dropped with its edge; an edge over
    ``max_edges`` is dropped, its new target kept.
    """
    nodes = [root]
    index = {root: 0}
    edges: list[tuple] = []
    deadlocks: list[int] = []
    truncated_by = ""
    # nodes only grow at the end, so visiting them in list order is FIFO
    for source, node in enumerate(nodes):
        succs = successors(node)
        if not succs:
            deadlocks.append(source)
        for *label, succ in succs:
            target = index.get(succ)
            if target is None:
                if len(nodes) >= max_nodes:
                    truncated_by = truncated_by or "nodes"
                    continue
                target = len(nodes)
                nodes.append(succ)
                index[succ] = target
            if len(edges) >= max_edges:
                truncated_by = truncated_by or "edges"
                continue
            edges.append((source, *label, target))
    return tuple(nodes), tuple(edges), truncated_by, tuple(deadlocks)

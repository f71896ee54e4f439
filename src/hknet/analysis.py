"""Per-instantiation verification: grounding, invariants, reachability.

Grounding expands an instantiated high-level net into an elementary net:
one grounded place per (place, carrier value), one grounded transition
per (transition, guard-satisfying binding), with integer incidence
entries read off the evaluated arc inscriptions.  Place and transition
invariants are integer bases of the left and right null-spaces of the
incidence matrix, read off one sparse, fraction-free elimination over
integer rows and verified by multiplication.  Reachability exploration
is plain breadth-first search over canonical markings with node/edge caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from typing import Any, Callable, Hashable, Iterable, Sequence

from .errors import EvalError, ModelError
from .nets import Marking, Stepper, occurrence
from .signature import carrier_of
from .systems import System
from .terms import Binding, enumerate_bindings, eval_guard, render_binding
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


def _rows(columns: Sequence[dict[int, int]], height: int) -> tuple[dict[int, int], ...]:
    """The ``height`` sparse rows of the matrix with sparse ``columns``."""
    rows: tuple[dict[int, int], ...] = tuple({} for _ in range(height))
    for j, column in enumerate(columns):
        for i, n in column.items():
            rows[i][j] = n
    return rows


def _sparse(row: Iterable[int]) -> dict[int, int]:
    return {c: v for c, v in enumerate(row) if v}


def ground(sys: System) -> GroundedNet:
    """Expand a system into its grounded elementary net.

    Place domains are over-approximated by the full carrier of the place
    sort, which is sound for invariants; every place must therefore be
    sorted.  Binding domains run through the same powerset cap as
    enumeration.  A binding under which evaluation fails, or which puts
    a token outside a place's carrier, can never fire and gets no
    column.
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
        for b in enumerate_bindings(t.variables or (), s):
            try:
                if not eval_guard(t.guard, s, b):
                    continue
                consumed, produced = occurrence(net, t.name, b, s)
            except EvalError:
                continue
            pre, post = ({place_index.get((place, v)): n for place, counts in tokens.items()
                          for v, n in counts.items()} for tokens in (consumed, produced))
            if None in pre or None in post:
                continue  # a token outside its place's carrier
            kept.append(((t.name, b), pre, post))

    initial = tuple(sys.initial.get(place).count(value) for place, value in places)
    transitions, pre_cols, post_cols = (tuple(k[i] for k in kept) for i in range(3))
    return GroundedNet(tuple(places), transitions, pre_cols, post_cols, initial)


# ---------------------------------------------------------------------------
# Exact integer null-spaces
# ---------------------------------------------------------------------------

def _rref(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced row-echelon form of sparse integer rows, up to row scaling,
    as {pivot column: primitive row}, by fraction-free Gauss-Jordan
    elimination: each new pivot row back-reduces the earlier ones."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
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
    """Integer basis of {x : matrix @ x = 0} for a dense matrix of ``width`` columns."""
    return _basis(_rref(_sparse(row) for row in matrix), width)


def _basis(pivots: dict[int, dict[int, int]], width: int) -> list[tuple[int, ...]]:
    """The null-space basis read off a reduced row-echelon form: one
    vector per free column, scaled to coprime integers with a positive
    first nonzero entry."""
    basis: list[tuple[int, ...]] = []
    for free in range(width):
        if free in pivots:
            continue
        uses = [(p, row) for p, row in pivots.items() if free in row]
        scale = lcm(*(row[p] for p, row in uses))
        x = [0] * width
        x[free] = scale
        for p, row in uses:
            x[p] = -row[free] * scale // row[p]
        g = gcd(*x)
        sign = -1 if next(v for v in x if v) < 0 else 1
        basis.append(tuple(sign * v // g for v in x))
    return basis


def place_invariants(g: GroundedNet) -> list[tuple[int, ...]]:
    """Integer basis of {i : i^T C = 0}; each vector is re-verified."""
    return _invariants("place", g.incidence_columns, len(g.places))


def transition_invariants(g: GroundedNet) -> list[tuple[int, ...]]:
    """Integer basis of {j : C j = 0}; each vector is re-verified."""
    return _invariants("transition", _rows(g.incidence_columns, len(g.places)),
                       len(g.transitions))


def _invariants(kind: str, rows: Sequence[dict[int, int]],
                width: int) -> list[tuple[int, ...]]:
    """Integer basis of {x : M x = 0} for M of sparse ``rows`` and ``width`` columns;
    each vector is re-verified by summing ``columns[k] * x`` over its ``x != 0``."""
    basis = _basis(_rref(rows), width)
    columns = _rows(rows, width)
    for i, vec in enumerate(basis):
        total: dict[int, int] = {}
        for k, x in enumerate(vec):
            if x:
                for r, a in columns[k].items():
                    total[r] = total.get(r, 0) + a * x
        if any(total.values()):
            raise ModelError(
                f"{kind} invariant {i} is not in the null-space of the incidence matrix")
    return basis


def in_span(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Exact test that ``vector`` is a rational combination of ``basis``:
    it reduces to zero against the echelon form of the basis vectors."""
    return not _reduce(_sparse(vector), _rref(_sparse(b) for b in basis))


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReachabilityGraph:
    markings: tuple[Marking, ...]
    edges: tuple[tuple[int, str, Binding, int], ...]
    truncated: bool
    deadlocks: tuple[int, ...]
    predicate_hits: tuple[int, ...]
    # the cap hit first, "nodes" or "edges", or ""
    truncated_by: str = field(default="", repr=False)


def explore(sys: System, max_nodes: int = 10000, max_edges: int = 100000,
            predicate: Callable[[Marking], bool] | None = None) -> ReachabilityGraph:
    """Breadth-first state space of a system, deterministic and capped.

    Hitting a cap truncates the graph instead of raising, and
    ``truncated_by`` names the cap hit first: ``"nodes"`` or ``"edges"``.
    Deadlock markings and predicate hits are reported by node index.
    """
    stepper = Stepper(sys.net, sys.structure)
    root, decode = stepper.encoding(sys.initial)
    nodes, edges, truncated_by, deadlocks, hits = _bfs(
        root, stepper.step, max_nodes, max_edges, predicate, decode)
    return ReachabilityGraph(nodes, edges, bool(truncated_by), deadlocks, hits,
                             truncated_by)


@dataclass(frozen=True)
class GroundedReachabilityGraph:
    vectors: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]  # (source, transition index, target)
    truncated: bool
    deadlocks: tuple[int, ...]
    # the cap hit first, "nodes" or "edges", or ""
    truncated_by: str = field(default="", repr=False)


def explore_grounded(g: GroundedNet, max_nodes: int = 10000,
                     max_edges: int = 100000) -> GroundedReachabilityGraph:
    """BFS over the grounded net's marking vectors."""
    def successors(vec: tuple[int, ...], _) -> list[tuple[int, tuple[int, ...]]]:
        return [(t, tuple(v + delta.get(p, 0) for p, v in enumerate(vec)))
                for t, (pre, delta) in enumerate(zip(g.pre_columns, g.incidence_columns))
                if all(vec[p] >= n for p, n in pre.items())]

    vectors, edges, truncated_by, deadlocks, _ = _bfs(g.initial, successors,
                                                      max_nodes, max_edges)
    return GroundedReachabilityGraph(vectors, edges, bool(truncated_by), deadlocks,
                                     truncated_by)


def _bfs(root: Hashable, successors: Callable[[Any, Any], Sequence[tuple]],
         max_nodes: int, max_edges: int,
         predicate: Callable[[Any], bool] | None = None,
         decode: Callable[[Any], Any] | None = None) -> tuple:
    """Capped breadth-first search from ``root``.

    A kept node is decoded once, by ``decode`` if given; the decoded
    nodes are what ``predicate`` sees and what is returned.
    ``successors(node, decoded)`` lists tuples ``(*label, target)``.
    Returns the decoded nodes in discovery order, the edges ``(source,
    *label, target)`` by node index, which cap was hit first
    (``"nodes"``, ``"edges"`` or ``""``), and the indices of deadlocks
    and of predicate hits.  A new node over ``max_nodes`` is dropped with
    its edge; an edge over ``max_edges`` is dropped, its new target kept.
    """
    nodes = [root]
    decoded = nodes if decode is None else [decode(root)]
    index = {root: 0}
    edges: list[tuple] = []
    deadlocks: list[int] = []
    hits = [0] if predicate is not None and predicate(decoded[0]) else []
    truncated_by = ""
    # nodes only grow at the end, so visiting them in list order is FIFO
    for source, node in enumerate(nodes):
        succs = successors(node, decoded[source])
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
                if decode is not None:
                    decoded.append(decode(succ))
                index[succ] = target
                if predicate is not None and predicate(decoded[target]):
                    hits.append(target)
            if len(edges) >= max_edges:
                truncated_by = truncated_by or "edges"
                continue
            edges.append((source, *label, target))
    return tuple(decoded), tuple(edges), truncated_by, tuple(deadlocks), tuple(hits)

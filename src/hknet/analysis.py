"""Per-instantiation verification: grounding, invariants, reachability.

Grounding expands an instantiated high-level net into an elementary net:
one grounded place per (place, carrier value), one grounded transition
per (transition, guard-satisfying binding), with integer incidence
entries read off the evaluated arc inscriptions.  Place and transition
invariants are integer bases of the left and right null-spaces of the
incidence matrix, computed with exact rational elimination and verified
by multiplication.  Reachability exploration is plain breadth-first
search over canonical markings with node/edge caps.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Sequence

from .errors import ModelError
from .nets import Marking
from .signature import carrier_of
from .systems import System
from .terms import (Binding, enumerate_bindings, eval_guard,
                    inscription_tokens, render_binding)
from .values import Value, render_value


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundedNet:
    """Elementary place/transition view of one instantiation."""

    places: tuple[tuple[str, Value], ...]
    transitions: tuple[tuple[str, Binding], ...]
    pre: tuple[tuple[int, ...], ...]   # places x transitions
    post: tuple[tuple[int, ...], ...]  # places x transitions
    initial: tuple[int, ...]

    @property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(self.post[p][t] - self.pre[p][t]
                           for t in range(len(self.transitions)))
                     for p in range(len(self.places)))

    def place_index(self, place: str, value: Value) -> int:
        return self.places.index((place, value))

    def place_label(self, index: int) -> str:
        place, value = self.places[index]
        return f"{place}:{render_value(value)}"

    def transition_label(self, index: int) -> str:
        name, binding = self.transitions[index]
        return f"{name}{render_binding(binding)}"

    def marking_vector(self, m: Marking) -> tuple[int, ...]:
        return tuple(m.get(place).count(value) for place, value in self.places)


def ground(sys: System) -> GroundedNet:
    """Expand a system into its grounded elementary net.

    Place domains are over-approximated by the full carrier of the place
    sort, which is sound for invariants; every place must therefore be
    sorted.  Binding domains run through the same powerset cap as
    enumeration.
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

    transitions: list[tuple[str, Binding]] = []
    pre_cols: list[dict[int, int]] = []
    post_cols: list[dict[int, int]] = []
    for t in sorted(net.transitions, key=lambda t: t.name):
        for b in enumerate_bindings(t.variables or (), s):
            try:
                if not eval_guard(t.guard, s, b):
                    continue
                pre: dict[int, int] = {}
                for arc in net.arcs_into(t.name):
                    for v, n in inscription_tokens(arc.inscription, s, b).pairs():
                        idx = place_index[(arc.source, v)]
                        pre[idx] = pre.get(idx, 0) + n
                post: dict[int, int] = {}
                for arc in net.arcs_out_of(t.name):
                    for v, n in inscription_tokens(arc.inscription, s, b).pairs():
                        idx = place_index[(arc.target, v)]
                        post[idx] = post.get(idx, 0) + n
            except KeyError:
                # an inscription evaluates outside the place's carrier:
                # the binding can never fire, so it contributes no column
                continue
            except ModelError:
                continue
            transitions.append((t.name, b))
            pre_cols.append(pre)
            post_cols.append(post)

    n_places, n_trans = len(places), len(transitions)
    pre_rows = [[0] * n_trans for _ in range(n_places)]
    post_rows = [[0] * n_trans for _ in range(n_places)]
    for col, (pre, post) in enumerate(zip(pre_cols, post_cols)):
        for idx, n in pre.items():
            pre_rows[idx][col] = n
        for idx, n in post.items():
            post_rows[idx][col] = n
    initial = tuple(sys.initial.get(place).count(value) for place, value in places)
    return GroundedNet(tuple(places), tuple(transitions),
                       tuple(tuple(r) for r in pre_rows),
                       tuple(tuple(r) for r in post_rows), initial)


# ---------------------------------------------------------------------------
# Exact integer null-spaces
# ---------------------------------------------------------------------------

def nullspace(matrix: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """Integer basis of {x : matrix @ x = 0} for a matrix with ``width``
    columns, via exact rational elimination.

    Each basis vector is scaled to coprime integers with a positive
    first nonzero entry.
    """
    rows = [[Fraction(v) for v in row] for row in matrix if any(row)]
    n = width
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][col] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        factor = rows[r][col]
        rows[r] = [v / factor for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                coef = rows[k][col]
                rows[k] = [a - coef * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free_cols = [c for c in range(n) if c not in pivots]
    basis: list[tuple[int, ...]] = []
    for free in free_cols:
        x = [Fraction(0)] * n
        x[free] = Fraction(1)
        for row_idx, col in enumerate(pivots):
            x[col] = -rows[row_idx][free]
        basis.append(_to_integer(x))
    return basis


def _to_integer(vector: list[Fraction]) -> tuple[int, ...]:
    denom = 1
    for v in vector:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in vector]
    common = 0
    for v in ints:
        common = gcd(common, abs(v))
    if common > 1:
        ints = [v // common for v in ints]
    first = next((v for v in ints if v != 0), 0)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def place_invariants(g: GroundedNet) -> list[tuple[int, ...]]:
    """Integer basis of {i : i^T C = 0}; each vector is re-verified."""
    c = g.incidence
    transposed = [[c[p][t] for p in range(len(g.places))]
                  for t in range(len(g.transitions))]
    basis = nullspace(transposed, len(g.places))
    _verify("place", basis, transposed)
    return basis


def transition_invariants(g: GroundedNet) -> list[tuple[int, ...]]:
    """Integer basis of {j : C j = 0}; each vector is re-verified."""
    c = g.incidence
    basis = nullspace(c, len(g.transitions))
    _verify("transition", basis, c)
    return basis


def _verify(kind: str, basis: Sequence[Sequence[int]],
            matrix: Sequence[Sequence[int]]) -> None:
    """Raise unless ``matrix @ vec = 0`` for every basis vector."""
    for i, vec in enumerate(basis):
        if any(sum(a * x for a, x in zip(row, vec)) for row in matrix):
            raise ModelError(
                f"{kind} invariant {i} is not in the null-space of the incidence matrix")


def in_span(basis: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Exact test that ``vector`` is a rational combination of ``basis``."""
    if not basis:
        return all(v == 0 for v in vector)
    n = len(vector)
    rows = [[Fraction(b[i]) for b in basis] + [Fraction(vector[i])]
            for i in range(n)]
    cols = len(basis)
    r = 0
    for col in range(cols):
        pivot = next((k for k in range(r, n) if rows[k][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        factor = rows[r][col]
        rows[r] = [v / factor for v in rows[r]]
        for k in range(n):
            if k != r and rows[k][col] != 0:
                coef = rows[k][col]
                rows[k] = [a - coef * b for a, b in zip(rows[k], rows[r])]
        r += 1
    for k in range(r, n):
        if rows[k][cols] != 0 and all(rows[k][c] == 0 for c in range(cols)):
            return False
    return True


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

    @property
    def root(self) -> int:
        return 0


def explore(sys: System, max_nodes: int = 10000, max_edges: int = 100000,
            predicate: Callable[[Marking], bool] | None = None) -> ReachabilityGraph:
    """Breadth-first state space of a system, deterministic and capped.

    Hitting a cap sets the truncated flag instead of raising; deadlock
    markings and predicate hits are reported by node index.
    """
    markings: list[Marking] = [sys.initial]
    index: dict[Marking, int] = {sys.initial: 0}
    edges: list[tuple[int, str, Binding, int]] = []
    deadlocks: list[int] = []
    hits: list[int] = []
    truncated = False
    frontier = deque([0])
    if predicate is not None and predicate(sys.initial):
        hits.append(0)
    while frontier:
        node = frontier.popleft()
        succs = sys.successors(markings[node])
        if not succs:
            deadlocks.append(node)
        for name, binding, target_marking in succs:
            target = index.get(target_marking)
            if target is None:
                if len(markings) >= max_nodes:
                    truncated = True
                    continue
                target = len(markings)
                markings.append(target_marking)
                index[target_marking] = target
                frontier.append(target)
                if predicate is not None and predicate(target_marking):
                    hits.append(target)
            if len(edges) >= max_edges:
                truncated = True
                continue
            edges.append((node, name, binding, target))
    return ReachabilityGraph(tuple(markings), tuple(edges), truncated,
                             tuple(deadlocks), tuple(hits))


@dataclass(frozen=True)
class GroundedReachabilityGraph:
    vectors: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int], ...]  # (source, transition index, target)
    truncated: bool
    deadlocks: tuple[int, ...]


def explore_grounded(g: GroundedNet, max_nodes: int = 10000,
                     max_edges: int = 100000) -> GroundedReachabilityGraph:
    """BFS over the grounded net's marking vectors."""
    n_trans = len(g.transitions)
    vectors: list[tuple[int, ...]] = [g.initial]
    index: dict[tuple[int, ...], int] = {g.initial: 0}
    edges: list[tuple[int, int, int]] = []
    deadlocks: list[int] = []
    truncated = False
    frontier = deque([0])
    while frontier:
        node = frontier.popleft()
        vec = vectors[node]
        fired_any = False
        for t in range(n_trans):
            enabled = all(vec[p] >= g.pre[p][t] for p in range(len(g.places))
                          if g.pre[p][t])
            if not enabled:
                continue
            fired_any = True
            succ = tuple(v - g.pre[p][t] + g.post[p][t]
                         for p, v in enumerate(vec))
            target = index.get(succ)
            if target is None:
                if len(vectors) >= max_nodes:
                    truncated = True
                    continue
                target = len(vectors)
                vectors.append(succ)
                index[succ] = target
                frontier.append(target)
            if len(edges) >= max_edges:
                truncated = True
                continue
            edges.append((node, t, target))
        if not fired_any:
            deadlocks.append(node)
    return GroundedReachabilityGraph(tuple(vectors), tuple(edges), truncated,
                                     tuple(deadlocks))

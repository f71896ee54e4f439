"""Layer tracing for the hknet benchmark, from outside the library.

The tracer replaces public hknet functions and methods with wrappers
for the length of one traced pass and puts the originals back when it
is uninstalled; nothing under ``src/`` changes.  A function is patched
wherever an hknet module holds it by name, so calls between layers
(``analysis.explore`` calling ``nets.successors``) go through the
wrappers too.

A target is traced in one of two ways:

* ``timed``: calls, inclusive time and self time (inclusive time minus
  the time of timed callees), and one span per call -- name, start,
  end, parent span and job -- kept in memory and written when the
  tracer ends;
* ``counted``: calls only, for functions so hot that a clock read per
  call would swamp them (``evaluate``, ``Value.key``).  Their time stays
  in the self time of the timed caller.

The kernel is single-threaded and has no queues, so no layer waits for
another; the trace records that instead of reporting waiting times.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter
from typing import Callable

# (metric prefix, module, attribute path, mode, result hook name)
TARGETS = (
    ("nets.enabled_bindings", "hknet.nets", "enabled_bindings", "timed", "bindings"),
    ("nets.fire", "hknet.nets", "fire", "timed", None),
    ("nets.successors", "hknet.nets", "successors", "timed", None),
    ("nets.OccurrenceNet.lookup", "hknet.nets", "OccurrenceNet.pre", "timed", None),
    ("nets.OccurrenceNet.lookup", "hknet.nets", "OccurrenceNet.post", "timed", None),
    ("nets.OccurrenceNet.lookup", "hknet.nets", "OccurrenceNet.condition", "timed", None),
    ("nets.OccurrenceNet.lookup", "hknet.nets", "OccurrenceNet.event", "timed", None),
    ("signature.carrier_of", "hknet.signature", "carrier_of", "timed", None),
    ("terms.evaluate", "hknet.terms", "evaluate", "counted", None),
    ("terms.eval_guard", "hknet.terms", "eval_guard", "counted", None),
    ("values.key", "hknet.values", "Atom.key", "counted", None),
    ("values.key", "hknet.values", "TupleValue.key", "counted", None),
    ("values.key", "hknet.values", "SetValue.key", "counted", None),
    ("values.Multiset", "hknet.values", "Multiset.__init__", "counted", None),
    ("values.Multiset", "hknet.values", "Multiset._from_pairs", "counted", None),
    ("analysis.explore", "hknet.analysis", "explore", "timed", "graph"),
    ("analysis.ground", "hknet.analysis", "ground", "timed", None),
    ("analysis.nullspace", "hknet.analysis", "nullspace", "timed", None),
    ("analysis.place_invariants", "hknet.analysis", "place_invariants", "timed", "basis"),
    ("analysis.transition_invariants", "hknet.analysis", "transition_invariants",
     "timed", None),
    ("analysis.in_span", "hknet.analysis", "in_span", "timed", None),
    ("runs.simulate", "hknet.runs", "simulate", "timed", "run"),
    ("runs.validate_run", "hknet.runs", "validate_run", "timed", None),
    ("runs.linearize", "hknet.runs", "linearize", "timed", None),
    ("runs.compose_runs", "hknet.runs", "compose_runs", "timed", None),
    ("runs.final_cut", "hknet.runs", "final_cut", "timed", None),
    ("modules.canonicalize", "hknet.modules", "canonicalize", "timed", None),
    ("modules.compose_all", "hknet.modules", "compose_all", "timed", None),
    ("parser.parse", "hknet.parser", "parse", "timed", None),
    ("parser.bind_structure", "hknet.parser", "bind_structure", "timed", None),
    ("parser.parse_predicate", "hknet.parser", "parse_predicate", "timed", None),
    ("printer.print_run", "hknet.printer", "print_run", "timed", None),
    ("systems.instantiate", "hknet.systems", "instantiate", "timed", None),
)


class Stat:
    """Aggregates of one traced layer function."""

    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, int] = {}

    def add(self, key: str, n: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + n


def _hook_bindings(stat: Stat, result) -> None:
    stat.add("hits", 1 if result else 0)
    stat.add("bindings", len(result))


def _hook_graph(stat: Stat, result) -> None:
    stat.add("states", len(result.markings))
    stat.add("edges", len(result.edges))


def _hook_run(stat: Stat, result) -> None:
    stat.add("events", len(result.inner.events))


def _hook_basis(stat: Stat, result) -> None:
    stat.add("dim", len(result))


HOOKS: dict[str, Callable[[Stat, object], None]] = {
    "bindings": _hook_bindings, "graph": _hook_graph,
    "run": _hook_run, "basis": _hook_basis,
}


class Tracer:
    """Install with :meth:`install`, always :meth:`uninstall` afterwards.

    ``active`` switches recording off while the benchmark checks
    outputs, so its own calls into the library do not count.
    """

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.active = False
        self.job = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []     # [child time, span id] per open span
        self._next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._patches: list[tuple[object, str, object]] = []

    # -- spans opened by the benchmark itself (set-up, jobs) --------------

    def span(self, name: str, fn: Callable, *args):
        return self._timed(name, fn, None)(*args)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        hk_modules = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "hknet" or n.startswith("hknet."))]
        for prefix, module_name, path, mode, hook in TARGETS:
            owner = sys.modules[module_name]
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            is_classmethod = isinstance(raw, classmethod)
            original = raw.__func__ if is_classmethod else raw
            if mode == "timed":
                wrapper = self._timed(prefix, original, HOOKS.get(hook))
            else:
                wrapper = self._counted(prefix, original)
            if isinstance(owner, type):
                self._patch(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
                continue
            for module in hk_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ---------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        if name not in self.stats:
            self.stats[name] = Stat()
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self.stats[name]

    def _counted(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            if self.active:
                stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name: str, fn: Callable, hook) -> Callable:
        stat = self._stat(name)
        name_id = self._name_ids[name]
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_id]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                self.span_id.append(frame[1])
                self.span_name.append(name_id)
                self.span_parent.append(parent[1] if parent is not None else -1)
                self.span_job.append(self.job)
                self.span_start.append(start)
                self.span_end.append(end)
            if hook is not None:
                hook(stat, result)
            return result
        return wrapper

    # -- output -------------------------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        """Write spans (columnar), per-function aggregates and ``extra``."""
        stats = {name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time,
                        **s.extra}
                 for name, s in sorted(self.stats.items())}
        doc = {
            "waiting": "none: the kernel is single-threaded and has no queues",
            "functions": stats,
            "span_names": self._names,
            "spans": {"id": list(self.span_id), "name": list(self.span_name),
                      "parent": list(self.span_parent), "job": list(self.span_job),
                      "start": list(self.span_start), "end": list(self.span_end)},
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out)

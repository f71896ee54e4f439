"""Workloads of the hknet benchmark: pools, set-up, jobs and output checks.

A job is one CLI-equivalent command on one input, made through the
public library API.  Each workload has a fixed pool of job kinds.  One
pass runs a deck: every kind as many times as its weight, in an order
and with variants (predicate, policy seed, linearisation seed) drawn
from the run's seed.  Every pass holds the same mix of kinds, so runs
with different seeds measure comparable work; the weights put the
median and the 90th percentile of job time inside a block of one kind
rather than on the edge between two.

Set-up reads the corpus, generates the synthetic structures ``s_n,k``
(see ``synth``), and parses, binds, composes and instantiates them;
``runcheck`` also builds its runs with ``simulate`` there.

Checks run outside the timed region and use no ``assert``.  Each job's
output is reduced to a digest that must equal the one recorded in
``reference.json`` (see ``record.py``); ``reach`` counts must also equal
the counts of the independent ``explore_grounded`` path stored there,
and invariant vectors are multiplied out against the incidence matrix
here, not by the library.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import hknet as hk
import synth

VARIANTS = 8  # policy seeds per simulate kind, linearisation seeds per runcheck kind

MODULE_FILES = ("entry.hk", "guest_area.hk", "kitchen.hk")
CORPUS_NAMES = {"s0": ("Alice", "t1", "rice"), "s0_small": ("Alice", "t1", "rice"),
                "s0_tiny": ("Alice", "t1", "rice")}
UNCAPPED = (100_000, 1_000_000)  # (max_nodes, max_edges): far above every pool state space


@dataclass(frozen=True)
class Job:
    """One command on one input.  ``kind`` is the pool entry the job was
    dealt from and ``variant`` the seed drawn for it: the predicate of a
    reach job or the policy of a simulate job, both named in ``id``, or
    the linearisation of a runcheck job, which the output must not
    depend on.  ``id`` keys the reference digest, so it names everything
    that determines the output."""

    id: str
    kind: tuple
    variant: int = 0


@dataclass
class Outcome:
    work: int    # states discovered, firings, events checked, or grounded transitions
    value: object
    note: str = ""   # which cap stopped a reach search, filled in by the check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def synth_size(name: str) -> tuple[int, int]:
    _, n, k = name.split("_")
    return int(n), int(k)


def first_names(name: str) -> tuple[str, str, str]:
    """A client, a table and a menu entry of a structure, for predicates."""
    if name in CORPUS_NAMES:
        return CORPUS_NAMES[name]
    n, k = synth_size(name)
    return synth.names("c", n)[0], synth.names("t", n)[0], synth.names("m", k)[0]


def read(root: Path, name: str) -> str:
    return (root / "corpus" / name).read_text(encoding="utf-8")


def build_systems(root: Path, seed: int, structures) -> dict:
    """Parse the signature and modules, compose them, and instantiate the
    branch once per structure (corpus files or generated text)."""
    sig = hk.parse(read(root, "sigma0.hksig"), "sigma0.hksig").body
    branch = hk.compose_all([hk.parse(read(root, f), f).body for f in MODULE_FILES])
    systems = {}
    for name in structures:
        if name in CORPUS_NAMES:
            text = read(root, f"{name}.hks")
        else:
            text = synth.structure_text(*synth_size(name), seed=f"{seed}/{name}")
        structure = hk.bind_structure(hk.parse(text, f"{name}.hks").body, sig)
        systems[name] = hk.instantiate(branch, structure, name=f"branch_{name}")
    return systems


def corpus_runs(root: Path) -> dict:
    """The corpus run ``a0``, its three segments and its simulation script."""
    return {
        "a0": hk.parse(read(root, "a0.hkrun"), "a0.hkrun").body,
        "segments": [hk.parse(read(root, f"a0_{part}.hkrun"), f"a0_{part}.hkrun").body
                     for part in ("begin", "middle", "end")],
        "a0.steps": hk.parse_script(read(root, "a0.steps"), "a0.steps"),
    }


def make_decks(kinds, rng: random.Random, count: int, make):
    """Endless decks: every kind ``weight`` times, shuffled.  Job ``i`` of a
    kind gets variant ``make(kind, v)`` with ``v`` from the kind's own
    shuffled cycle over ``range(count)``, so a run draws every variant
    about equally often and runs of different seeds do comparable work."""
    def cycle():
        while True:
            order = list(range(count))
            rng.shuffle(order)
            yield from order
    cycles = {kind: cycle() for kind, _ in kinds}
    while True:
        deck = [make(kind, next(cycles[kind])) for kind, weight in kinds
                for _ in range(weight)]
        rng.shuffle(deck)
        yield deck


class Reach:
    """``hknet reach --pred``: explore to a verdict, deadlocks plus one
    predicate, on small state spaces, one edge-capped and one node-capped
    search."""

    name = "reach"
    setup_repeats = 3
    # (structure, max_nodes, max_edges, cap the search must hit) -> weight
    KINDS = (
        (("s0_tiny", *UNCAPPED, "none"), 3),
        (("s_1_1", *UNCAPPED, "none"), 3),
        (("s_1_2", *UNCAPPED, "none"), 4),
        (("s_1_3", *UNCAPPED, "none"), 10),
        (("s_2_1", *UNCAPPED, "none"), 4),
        (("s_2_1", 100_000, 400, "edges"), 1),
        (("s0", 120, 1_000_000, "nodes"), 3),
        (("s0_small", *UNCAPPED, "none"), 1),
    )
    PREDICATES = (
        "contains(eating, ({c}, {t}))",
        "count(free_tables) = 0 and count(orders) >= 1",
        "tokens(cooked, {m}) >= 1 or not contains(offered_tables, {t})",
        "count(waiting) >= 2",
    )

    def setup(self, root: Path, seed: int):
        return build_systems(root, seed, sorted({k[0] for k, _ in self.KINDS}))

    @staticmethod
    def make_job(kind, pred: int) -> Job:
        structure, max_nodes, max_edges, _ = kind
        return Job(f"reach/{structure}/n{max_nodes}/e{max_edges}/p{pred}", kind, pred)

    def pool(self) -> list[Job]:
        return [self.make_job(k, p) for k, _ in self.KINDS for p in range(len(self.PREDICATES))]

    def decks(self, rng: random.Random):
        return make_decks(self.KINDS, rng, len(self.PREDICATES), self.make_job)

    def run(self, env, job: Job) -> Outcome:
        structure, max_nodes, max_edges, _ = job.kind
        c, t, m = first_names(structure)
        predicate = hk.parse_predicate(self.PREDICATES[job.variant].format(c=c, t=t, m=m))
        graph = hk.explore(env[structure], max_nodes=max_nodes, max_edges=max_edges,
                           predicate=predicate)
        return Outcome(len(graph.markings), graph)

    @staticmethod
    def cap_hit(graph, max_nodes: int, max_edges: int) -> str:
        """Which cap stopped a search, read off its counts."""
        if not graph.truncated:
            return "none"
        hit = [name for name, full in (("nodes", len(graph.markings) >= max_nodes),
                                       ("edges", len(graph.edges) >= max_edges)) if full]
        return "+".join(hit) or "unknown"

    def check(self, env, job: Job, out: Outcome, ref) -> tuple[str, list[str]]:
        structure, max_nodes, max_edges, expected_cap = job.kind
        graph = out.value
        counts = (len(graph.markings), len(graph.edges), len(graph.deadlocks))
        cap = out.note = self.cap_hit(graph, max_nodes, max_edges)
        problems = []
        if cap != expected_cap:
            problems.append(f"search stopped by cap {cap!r}, expected {expected_cap!r}")
        grounded = ref["grounded"].get(structure)
        if expected_cap == "none" and (grounded is None or list(counts) != grounded):
            problems.append(f"states/edges/deadlocks {counts} differ from the "
                            f"explore_grounded reference {grounded}")
        text = (f"states={counts[0]} edges={counts[1]} deadlocks={counts[2]} "
                f"hits={len(graph.predicate_hits)} truncated={graph.truncated} cap={cap}")
        return digest(text), problems


class Simulate:
    """``hknet simulate --seed --steps``: one random trajectory on ``s_n,3``
    with n up to 32, plus the corpus ``a0.steps`` script on ``s0``."""

    name = "simulate"
    setup_repeats = 3
    STEPS = 12
    KINDS = (
        (("s_1_3", "random"), 4), (("s_2_3", "random"), 10), (("s_4_3", "random"), 4),
        (("s_8_3", "random"), 3), (("s_16_3", "random"), 3), (("s_32_3", "random"), 1),
        (("s0", "a0.steps"), 3),
    )

    def setup(self, root: Path, seed: int):
        env = build_systems(root, seed, sorted({k[0] for k, _ in self.KINDS}))
        env.update(corpus_runs(root))
        return env

    @classmethod
    def make_job(cls, kind, policy: int) -> Job:
        if kind[1] != "random":
            return Job(f"simulate/{kind[0]}/{kind[1]}", kind)
        return Job(f"simulate/{kind[0]}/steps{cls.STEPS}/policy{policy}", kind, policy)

    def pool(self) -> list[Job]:
        return [self.make_job(k, p) for k, _ in self.KINDS
                for p in (range(VARIANTS) if k[1] == "random" else [0])]

    def decks(self, rng: random.Random):
        return make_decks(self.KINDS, rng, VARIANTS, self.make_job)

    def run(self, env, job: Job) -> Outcome:
        if job.kind[1] == "random":
            policy = hk.random_policy(seed=job.variant, steps=self.STEPS)
        else:
            policy = hk.scripted_policy(env[job.kind[1]])
        run = hk.simulate(env[job.kind[0]], policy)
        return Outcome(len(run.inner.events), run)

    def check(self, env, job: Job, out: Outcome, ref) -> tuple[str, list[str]]:
        expected = self.STEPS if job.kind[1] == "random" else len(env[job.kind[1]])
        problems = []
        if out.work != expected:
            problems.append(f"{out.work} events, expected {expected}")
        return digest(hk.print_run(out.value)), problems


class Runcheck:
    """``hknet validate-run`` plus replay and round trip on runs that set-up
    simulated, and on the corpus run ``a0``; ``compose-runs`` on its three
    segments."""

    name = "runcheck"
    setup_repeats = 1
    # ("run", structure, events) kinds are simulated during set-up, all with
    # policy seed 0: the cost of a run depends on its trajectory, and one
    # run per kind for every seed keeps runs of different seeds comparable
    KINDS = (
        (("a0",), 4), (("segments",), 4),
        (("run", "s_1_2", 100), 8), (("run", "s_2_2", 250), 3), (("run", "s_2_2", 600), 1),
    )

    def setup(self, root: Path, seed: int):
        run_kinds = [k for k, _ in self.KINDS if k[0] == "run"]
        env = build_systems(root, seed, sorted({"s0"} | {k[1] for k in run_kinds}))
        env.update(corpus_runs(root))
        for kind in run_kinds:
            _, structure, events = kind
            env[kind] = hk.simulate(env[structure], hk.random_policy(seed=0, steps=events))
        return env

    @staticmethod
    def make_job(kind, lin: int) -> Job:
        name = f"{kind[1]}/ev{kind[2]}" if kind[0] == "run" else kind[0]
        return Job(f"runcheck/{name}", kind, lin)

    def pool(self) -> list[Job]:
        return [self.make_job(k, 0) for k, _ in self.KINDS]

    def decks(self, rng: random.Random):
        return make_decks(self.KINDS, rng, VARIANTS, self.make_job)

    def run(self, env, job: Job) -> Outcome:
        system = env["s0"] if job.kind[0] != "run" else env[job.kind[1]]
        if job.kind[0] == "segments":
            begin, middle, end = env["segments"]
            run = hk.compose_runs(hk.compose_runs(begin, middle), end)
            reached = target = None
        else:
            run = env["a0"] if job.kind[0] == "a0" else env[job.kind]
            order = hk.linearize(run, seed=job.variant)
            reached = system.initial
            for transition, binding in order:
                reached = system.fire(reached, transition, binding)
            target = hk.final_cut(run)
        violations = hk.validate_run(run, system)
        text = hk.print_run(run)
        same = hk.canonical_equal(run, hk.parse(text, "roundtrip.hkrun").body)
        return Outcome(len(run.inner.events), (violations, reached, target, text, same))

    def check(self, env, job: Job, out: Outcome, ref) -> tuple[str, list[str]]:
        violations, reached, target, text, same = out.value
        problems = [f"violation: {v}" for v in violations]
        if reached != target:
            problems.append("replaying a linearisation does not reach the final cut")
        if not same:
            problems.append("print_run -> parse is not canonical_equal to the run")
        return digest(text), problems


class Invariants:
    """``hknet invariants --transitions``: ground, place and transition
    invariants, and an ``in_span`` test of each table's conservation law."""

    name = "invariants"
    setup_repeats = 3
    # corpus s0 (166 places x 631 transitions, about 12 s a job) is left out:
    # two or three samples of it per run cannot be made steady
    KINDS = (
        (("s0_tiny",), 3), (("s_1_1",), 3), (("s_1_2",), 3), (("s_2_1",), 8),
        (("s_1_3",), 3), (("s_3_1",), 4), (("s0_small",), 1), (("s_4_1",), 1),
    )
    HOLDS_TABLE = {"free_tables": None, "offered_tables": None,
                   "clients_ready_to_order": 1, "waiting": 1, "eating": 1}

    def setup(self, root: Path, seed: int):
        return build_systems(root, seed, sorted({k[0] for k, _ in self.KINDS}))

    def pool(self) -> list[Job]:
        return [Job(f"invariants/{k[0]}", k) for k, _ in self.KINDS]

    def decks(self, rng: random.Random):
        return make_decks(self.KINDS, rng, 1, lambda k, _: Job(f"invariants/{k[0]}", k))

    @classmethod
    def conservation(cls, grounded, table) -> list[int]:
        """Tokens of one table: free, offered, or held by a client."""
        vector = []
        for place, value in grounded.places:
            if place not in cls.HOLDS_TABLE:
                vector.append(0)
                continue
            item = cls.HOLDS_TABLE[place]
            vector.append(int((value if item is None else value.items[item]) == table))
        return vector

    def run(self, env, job: Job) -> Outcome:
        system = env[job.kind[0]]
        grounded = hk.ground(system)
        places = hk.place_invariants(grounded)
        transitions = hk.transition_invariants(grounded)
        laws = [self.conservation(grounded, table)
                for table in system.structure.carrier("Tables")]
        spanned = [hk.in_span(places, law) for law in laws]
        return Outcome(len(grounded.transitions),
                       (grounded, places, transitions, laws, spanned))

    def check(self, env, job: Job, out: Outcome, ref) -> tuple[str, list[str]]:
        grounded, places, transitions, laws, spanned = out.value
        # sparse incidence columns: transition -> {place: post - pre}
        columns = [{} for _ in grounded.transitions]
        for p, (pre_row, post_row) in enumerate(zip(grounded.pre, grounded.post)):
            for t, (a, b) in enumerate(zip(pre_row, post_row)):
                if a != b:
                    columns[t][p] = b - a
        problems = []
        if not places:
            problems.append("no place invariants")
        for i, vec in enumerate(places):
            if any(sum(vec[p] * c for p, c in col.items()) for col in columns):
                problems.append(f"place invariant {i} is not in the left null-space")
        for j, vec in enumerate(transitions):
            total: dict[int, int] = {}
            for t, weight in enumerate(vec):
                if not weight:
                    continue
                for p, c in columns[t].items():
                    total[p] = total.get(p, 0) + weight * c
            if any(total.values()):
                problems.append(f"transition invariant {j} is not in the null-space")
        for law, ok in zip(laws, spanned):
            if sum(a * b for a, b in zip(law, grounded.initial)) != 1:
                problems.append("a table's conservation law does not weigh 1 initially")
            if not ok:
                problems.append("a table's conservation law is outside the invariant span")
        text = repr((places, transitions, spanned))
        return digest(text), problems


WORKLOADS = {w.name: w for w in (Reach(), Simulate(), Runcheck(), Invariants())}


def probe(root: Path) -> tuple[dict, list[tuple[str, Job]]]:
    """The whole pipeline once on the corpus: reach and invariants on
    ``s0_tiny``, the ``a0.steps`` simulation, and ``a0`` checked and
    recomposed from its segments on ``s0``.  Traced runs add it after
    the deck, so that every layer has calls in every workload's trace."""
    env = build_systems(root, 0, ["s0", "s0_tiny"])
    env.update(corpus_runs(root))
    jobs = [("reach", Reach.make_job(("s0_tiny", *UNCAPPED, "none"), 3)),
            ("simulate", Simulate.make_job(("s0", "a0.steps"), 0)),
            ("runcheck", Runcheck.make_job(("a0",), 0)),
            ("runcheck", Runcheck.make_job(("segments",), 0)),
            ("invariants", Job("invariants/s0_tiny", ("s0_tiny",)))]
    return env, jobs

"""Benchmark of the hknet kernel: end-to-end and per-layer metrics.

Run from the root of a checkout (stdlib only; the library is imported
from ``src/`` of that checkout, never from an installed copy):

    python3 perfbench/run.py --workload reach --seed 1 --seconds 12 --trace 0

Workloads (defined in ``workloads.py``):

* ``reach``      explore to a deadlock and predicate verdict: enabling,
                 firing and marking hashing over many small markings;
* ``simulate``   one random trajectory per job on ``s_n,3``, n up to 32:
                 enabling on one large marking, no deduplication;
* ``runcheck``   validate, linearise, replay and print/parse round trip of
                 runs: occurrence-net scans, canonical form, parser, printer;
* ``invariants`` grounding and exact null-spaces, no enabling at all.

The loop is closed, with one client: one process, no threads, each job
starts when the previous one has been checked.  hknet keeps no caches,
so nothing needs warming: whole passes of the workload's deck run until
``--seconds`` have gone by and at least ``MIN_SAMPLES`` jobs have been
timed, so at least ten job times lie beyond the 90th percentile.  Before
every pass the set-up runs ``setup_repeats`` times; ``setup_s`` is the
median of all of them, spread over the run like the jobs.

``--trace 0`` prints the end-to-end metrics.  The host's speed drifts by
tens of percent within seconds, so every job and set-up time is taken
in reference seconds (see ``hostclock``), and the rates are read off
medians: ``jobs_per_s`` and ``work_per_s`` are those of one pass of the
deck with every job taking the median time of its kind.  ``work_per_s``
counts the workload's own unit of work: states discovered on ``reach``
(states_per_s), firings on ``simulate`` (steps_per_s), run events checked
on ``runcheck`` (events_per_s), grounded transitions on ``invariants``.
Failed jobs are reported by the ``attempted`` and ``failed`` fields
(failed_ratio is their quotient, and 0 on a correct program).

``--trace 1`` first repeats one seeded deck untraced for ``--seconds``,
then, under ``tracer.Tracer``, runs one set-up, the same deck once more
and ``workloads.probe`` (the whole pipeline once on the corpus, so that
every layer is called in every workload's trace).  It prints per-layer
metrics of those traced calls in host seconds, with ``trace.job_s``, the
host time of the traced deck, and ``trace.overhead``, the traced deck's
time over the median untraced time of the same deck, both in reference
seconds.  Spans and counts go to
``.perfbench/trace-<workload>-seed<seed>.json`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
MIN_SAMPLES = 100   # ten job times beyond the 90th percentile
MAX_SECONDS = 120   # no pass starts later, whatever the sample count

# per-layer metrics, read off the tracer: <function>.<calls|self_s|total_s|count>
PER_LAYER = (
    "nets.enabled_bindings.calls", "nets.enabled_bindings.self_s",
    "nets.enabled_bindings.total_s", "nets.enabled_bindings.hit_ratio",
    "nets.enabled_bindings.bindings", "terms.evaluate.calls", "terms.eval_guard.calls",
    "signature.carrier_of.calls", "signature.carrier_of.self_s",
    "nets.fire.calls", "nets.fire.self_s", "values.key.calls", "values.Multiset.calls",
    "nets.successors.self_s", "analysis.explore.self_s", "runs.simulate.self_s",
    "runs.validate_run.self_s", "runs.linearize.self_s", "runs.compose_runs.self_s",
    "nets.OccurrenceNet.lookup.calls", "modules.canonicalize.calls",
    "modules.canonicalize.self_s", "parser.parse.self_s", "printer.print_run.self_s",
    "analysis.ground.self_s", "analysis.nullspace.calls", "analysis.nullspace.self_s",
    "analysis.nullspace.total_s", "analysis.place_invariants.self_s",
    "analysis.transition_invariants.self_s", "analysis.in_span.self_s",
    "systems.instantiate.self_s", "modules.compose_all.self_s",
    "analysis.explore.states", "analysis.explore.edges", "runs.simulate.events",
    "analysis.place_invariants.dim",
)


def load_workloads():
    """Import hknet from this checkout's ``src/`` and the workload table."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hknet
    if Path(hknet.__file__).resolve().parent != src / "hknet":
        raise ImportError(f"hknet was imported from {hknet.__file__}, not from {src}")
    if not (ROOT / "corpus").is_dir():
        raise ImportError(f"no corpus directory at {ROOT / 'corpus'}")
    from workloads import WORKLOADS
    return WORKLOADS


class Tally:
    """Jobs attempted and failed; times and work of the timed ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.by_kind: dict[tuple, list[tuple[float, int]]] = {}
        self.problems: list[str] = []
        self.caps: dict[str, int] = {}

    def record(self, job, seconds: float, work: int, problems: list[str],
               timed: bool) -> None:
        self.attempted += 1
        if timed:
            self.times.append(seconds)
            self.by_kind.setdefault(job.kind, []).append((seconds, work))
        if problems:
            self.failed += 1
            self.problems += [f"{job.id}: {p}" for p in problems]


def run_pass(wl, env, deck, reference, tally: Tally, clock: HostClock, timed=True,
             tracer=None, records=None) -> tuple[float, float]:
    """Run and check one deck; return the sum of its job times, in
    reference and in host seconds."""
    busy = busy_host = 0.0
    for job in deck:
        out = None
        start = perf_counter()
        try:
            if tracer is None:
                out = wl.run(env, job)
            else:
                tracer.job, tracer.active = len(records), True
                out = tracer.span("job", wl.run, env, job)
                tracer.active = False
            host_s = perf_counter() - start
            got, problems = wl.check(env, job, out, reference)
            expected = reference["digests"].get(job.id)
            if got != expected:
                problems.append(f"digest {got} differs from the reference {expected}")
        except Exception:  # a failing job is counted and the run goes on
            host_s = perf_counter() - start
            problems = [traceback.format_exc(limit=4)]
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = clock.scale(host_s)
        busy += elapsed
        busy_host += host_s
        tally.record(job, elapsed, out.work if out is not None else 0, problems, timed)
        if timed and getattr(out, "note", ""):
            tally.caps[out.note] = tally.caps.get(out.note, 0) + 1
        if records is not None:
            records.append({"job": tracer.job, "id": job.id, "variant": job.variant,
                            "ms": elapsed * 1e3, "host_ms": host_s * 1e3,
                            "work": out.work if out else 0,
                            "note": getattr(out, "note", ""), "failed": bool(problems)})
    return busy, busy_host


def timed_setups(wl, seed: int, clock: HostClock):
    """``setup_repeats`` set-ups; the last one's environment and all their
    times, in reference seconds."""
    times, env = [], None
    for _ in range(wl.setup_repeats):
        env = None  # the previous set-up is garbage before the next one is timed
        gc.collect()
        start = perf_counter()
        env = wl.setup(ROOT, seed)
        times.append(clock.scale(perf_counter() - start))
    return env, times


def median_pass(wl, tally: Tally) -> tuple[float, float, float]:
    """Seconds, jobs and work of one pass of the deck, every job taking the
    median time of its kind; work per kind is deterministic per variant,
    so it is averaged over the variants drawn."""
    seconds = jobs = work = 0.0
    for kind, weight in wl.KINDS:
        samples = tally.by_kind[kind]
        seconds += weight * statistics.median(t for t, _ in samples)
        work += weight * statistics.fmean(w for _, w in samples)
        jobs += weight
    return seconds, jobs, work


def end_to_end(wl, args, reference) -> tuple[Tally, dict]:
    decks = wl.decks(random.Random(f"{wl.name}/{args.seed}"))
    tally = Tally()
    clock = HostClock()
    setup_times: list[float] = []
    start = perf_counter()
    passes = 0
    while True:
        env, times = timed_setups(wl, args.seed, clock)
        setup_times += times
        gc.collect()
        run_pass(wl, env, next(decks), reference, tally, clock)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= args.seconds and len(tally.times) >= MIN_SAMPLES:
            break
        if elapsed >= MAX_SECONDS:
            break
    deciles = statistics.quantiles(tally.times, n=10)
    beyond = sum(t > deciles[8] for t in tally.times)
    print(f"{wl.name} seed {args.seed}: {passes} timed passes, {len(tally.times)} job "
          f"times, {beyond} beyond p90, {len(setup_times)} set-ups, {elapsed:.2f} s; "
          f"failed_ratio {tally.failed}/{tally.attempted}")
    factors = sorted(clock.factors)
    print(f"  host speed factor: median {statistics.median(factors):.3f}, range "
          f"{factors[0]:.3f}-{factors[-1]:.3f}; times below are in reference seconds")
    for kind, weight in wl.KINDS:
        samples = sorted(t for t, _ in tally.by_kind[kind])
        print(f"  {'/'.join(map(str, kind))} x{weight}: {len(samples)} jobs, median "
              f"{statistics.median(samples) * 1e3:.1f} ms, range {samples[0] * 1e3:.1f}"
              f"-{samples[-1] * 1e3:.1f} ms")
    if tally.caps:
        print("  capped searches: " + ", ".join(f"{k}={v}" for k, v in sorted(tally.caps.items())))
    alias = {"reach": "states_per_s", "simulate": "steps_per_s",
             "runcheck": "events_per_s", "invariants": "grounded_transitions_per_s"}
    pass_s, jobs, work = median_pass(wl, tally)
    print(f"  median pass: {jobs:.0f} jobs, {work:.1f} work in {pass_s:.3f} s; "
          f"work_per_s is {alias[wl.name]}")
    metrics = {
        "jobs_per_s": (jobs / pass_s, "1/s"),
        "job_p50_ms": (deciles[4] * 1e3, "ms"),
        "job_p90_ms": (deciles[8] * 1e3, "ms"),
        "work_per_s": (work / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return tally, metrics


def per_layer(wl, args, reference) -> tuple[Tally, dict]:
    from tracer import Tracer
    from workloads import WORKLOADS, probe
    clock = HostClock()
    env, _ = timed_setups(wl, args.seed, clock)
    deck = next(wl.decks(random.Random(f"{wl.name}/{args.seed}")))
    tally = Tally()
    untraced = []
    start = perf_counter()
    while not untraced or perf_counter() - start < min(args.seconds, MAX_SECONDS):
        gc.collect()
        untraced.append(run_pass(wl, env, deck, reference, tally, clock, timed=False)[0])

    tracer = Tracer()
    records: list[dict] = []
    tracer.install()
    try:
        tracer.job, tracer.active = -1, True
        env = tracer.span("setup", wl.setup, ROOT, args.seed)
        tracer.active = False
        gc.collect()
        traced, traced_host = run_pass(wl, env, deck, reference, tally, clock, False,
                                       tracer, records)
        probe_from = len(records)
        probe_env, probe_jobs = probe(ROOT)
        for name, job in probe_jobs:
            run_pass(WORKLOADS[name], probe_env, [job], reference, tally, clock, False,
                     tracer, records)
    finally:
        tracer.uninstall()
    overhead = traced / statistics.median(untraced)
    path = ROOT / ".perfbench" / f"trace-{wl.name}-seed{args.seed}.json"
    tracer.dump(path, {"workload": wl.name, "seed": args.seed, "overhead": overhead,
                       "untraced_pass_s": untraced, "traced_pass_s": traced,
                       "jobs": records, "probe_from_job": probe_from})
    print(f"{wl.name} seed {args.seed}: {len(untraced)} untraced passes of "
          f"{len(deck)} jobs, traced pass {traced:.3f} s, overhead x{overhead:.2f}; "
          f"spans in {path.relative_to(ROOT)}")
    print("  waiting time: none, the kernel is single-threaded and has no queues")

    # layer times are host seconds, like the traced pass's job time beside them
    metrics = {"trace.overhead": (overhead, "ratio"), "trace.job_s": (traced_host, "s")}
    for name in PER_LAYER:
        function, field = name.rsplit(".", 1)
        stat = tracer.stats[function]
        if field == "calls":
            metrics[name] = (stat.calls, "count")
        elif field == "self_s":
            metrics[name] = (stat.self_time, "s")
        elif field == "total_s":
            metrics[name] = (stat.total, "s")
        elif field == "hit_ratio":
            metrics[name] = (stat.extra.get("hits", 0) / stat.calls if stat.calls else 0.0,
                             "ratio")
        else:
            metrics[name] = (stat.extra.get(field, 0), "count")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads = load_workloads()
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    wl = workloads[args.workload]
    measure = per_layer if args.trace else end_to_end
    tally, metrics = measure(wl, args, reference)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

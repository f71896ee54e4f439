"""Record the reference outputs that every benchmark job is checked against.

Run from the root of a checkout, at the commit whose outputs are the
reference:

    python3 perfbench/record.py

For every job in every workload's pool it runs the job once and stores
the digest of its output (printed run text, state and edge counts with
the cap that stopped the search, or invariant bases) in
``perfbench/reference.json``.  For every uncapped ``reach`` structure it
also stores the state, edge and deadlock counts of ``explore_grounded``
on the grounded net, the path independent of ``explore`` that the reach
jobs are compared with.  A job whose output fails its own checks stops
the recording.  A later change must reproduce every digest exactly.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    workloads = run.load_workloads()
    import hknet as hk
    from workloads import UNCAPPED

    reach = workloads["reach"]
    systems = reach.setup(run.ROOT, 0)
    reference: dict = {"grounded": {}, "digests": {}}
    for kind, _ in reach.KINDS:
        if kind[3] == "none":
            graph = hk.explore_grounded(hk.ground(systems[kind[0]]), *UNCAPPED)
            if graph.truncated:
                print(f"explore_grounded is truncated on {kind[0]}", file=sys.stderr)
                return 1
            reference["grounded"][kind[0]] = [len(graph.vectors), len(graph.edges),
                                              len(graph.deadlocks)]

    for wl in workloads.values():
        env = wl.setup(run.ROOT, 0)
        for job in wl.pool():
            got, problems = wl.check(env, job, wl.run(env, job), reference)
            if problems:
                print(f"{job.id}: " + "; ".join(problems), file=sys.stderr)
                return 1
            reference["digests"][job.id] = got
            print(f"{job.id} {got}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of a workload in a fresh process, as a user's session would run it.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N --trace 0|1 --work DIR [--setup-only]

Imports the program from DIR/src, writes the workload's inputs, then calls
``tandemwalks.cli.run`` once per CLI invocation, timing each call, and leaves
the outputs in the work directory for the parent to check.  Prints one JSON
line: the CLOCK_MONOTONIC time of the first timed call (the parent subtracts
its spawn time to get setup_s), the summed call time, the peak RSS, the
operation counts and, when traced, the per-layer summary.  With --setup-only
it stops where the first call would start and prints only that time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import tandemwalks
    from tandemwalks import cli

    if Path(tandemwalks.__file__).resolve().parent != src / "tandemwalks":
        sys.exit(f"imported tandemwalks from {tandemwalks.__file__}, not from {src}")

    from workloads import WORKLOADS

    lib = SimpleNamespace(
        TandemModel=tandemwalks.TandemModel,
        tandem_step_set=tandemwalks.tandem_step_set,
        count_excursions=tandemwalks.count_excursions,
        count_endpoint=tandemwalks.count_endpoint,
        count_walks_total=tandemwalks.count_walks_total,
    )
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer, cli, lib)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup(lib)
    calls = workload.calls()

    first_call = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_call": first_call}))
        return
    wall = 0.0
    failed = 0
    for call in calls:
        t0 = time.perf_counter()
        rc = cli.run(call.argv)
        wall += time.perf_counter() - t0
        if rc != 0:
            failed += 1
            print(f"{args.workload}: {call.label} exited with {rc}", file=sys.stderr)
    print(json.dumps({
        "first_call": first_call,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(calls),
        "failed": failed,
        "layers": tracer.summary() if tracer else None,
    }))


if __name__ == "__main__":
    main()

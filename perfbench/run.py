"""The tandemwalks benchmark: one workload, run for a fixed time, checked.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree (the program is imported from src/).
Each round starts a fresh worker process (perfbench/worker.py) that sets the
workload up, calls the CLI in-process and checks every output.  Rounds run one
after another until the next one would end after --seconds.  Time left over
goes to extra setup-only processes (at most SETUPS in all), so setup_s is a
median over more samples.  The run reports the median of each metric over its
rounds.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A failed check
or call ends the run with exit status 1, naming the check, workload and input.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from layers import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
SETUPS = 12


def spawn(workload: str, seed: int, trace: int, work: Path, timeout: float, *extra) -> dict:
    """Run worker.py to its end; its JSON result plus setup_s."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--work", str(work), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_call"] - spawned
    return result


def one_round(workload: str, seed: int, trace: int, index: int, timeout: float) -> dict:
    """Run one round in a worker process, then check its outputs here.

    Checking in this process lets reference results computed in the first
    round serve the later ones; the worker is not running meanwhile.
    """
    work = WORK / f"{workload}-{index}"
    result = spawn(workload, seed, trace, work, timeout)
    if result["failed"]:
        result["bad_checks"] = [("exit_status", f"{result['failed']} of {result['attempted']} calls",
                                 "nonzero exit status, see stderr")]
    else:
        w = WORKLOADS[workload](seed, work)
        try:
            result["bad_checks"] = w.check(w.calls())
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            result["bad_checks"] = [("output_format", str(work), f"{type(exc).__name__}: {exc}")]
    if not result["bad_checks"]:
        shutil.rmtree(work)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "tandemwalks" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'tandemwalks'}", file=sys.stderr)
        return 2
    try:
        reference.self_test()
    except AssertionError as exc:
        print(f"error: reference self-test failed: {exc}", file=sys.stderr)
        return 2

    start = time.monotonic()
    rounds = []
    while True:
        elapsed = time.monotonic() - start
        try:
            r = one_round(args.workload, args.seed, args.trace, len(rounds), RUN_LIMIT_S - elapsed)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: workload {args.workload}, round {len(rounds) + 1}: {exc}", file=sys.stderr)
            return 1
        rounds.append(r)
        print(f"round {len(rounds)}: setup_s {r['setup_s']:.4f}  wall_s {r['wall_s']:.4f}  "
              f"peak_rss_mb {r['peak_rss_mb']:.1f}", flush=True)
        if r["bad_checks"]:  # a failed call is reported as a failed check too
            break
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > min(args.seconds, RUN_LIMIT_S):
            break

    setups = [r["setup_s"] for r in rounds]
    while not args.trace and len(setups) < SETUPS and not rounds[-1]["bad_checks"]:
        elapsed = time.monotonic() - start
        if elapsed + 1.5 * statistics.median(setups) > min(args.seconds, RUN_LIMIT_S):
            break
        try:
            r = spawn(args.workload, args.seed, 0, WORK / f"{args.workload}-setup",
                      RUN_LIMIT_S - elapsed, "--setup-only")
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: workload {args.workload}, setup-only process: {exc}", file=sys.stderr)
            return 1
        setups.append(r["setup_s"])
    shutil.rmtree(WORK / f"{args.workload}-setup", ignore_errors=True)

    bad = [b for r in rounds for b in r["bad_checks"]]
    for check, label, detail in bad:
        print(f"CHECK FAILED: check {check}, workload {args.workload}, input {label}: {detail}",
              file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(json.dumps({
        "correct": not bad,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

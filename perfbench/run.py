"""Benchmark entry point.

    python3 perfbench/run.py --workload crawl_frontier --seed 1 --seconds 30 --trace 0

Runs one workload from the root of a checkout and prints, as its last
stdout line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it carries the workload's own figures
(pages_per_s, resume_s, queries_total_s, ...). Exits 1 when an output
differs from its oracle or the run outlasts its deadline, 2 when the
engine sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a run must end within 180 s; an engine call that hangs ends it here,
# with Ray stopped and exit code 1, instead of running on
DEADLINE_S = 170


class Deadline(BaseException):
    """Not an ``Exception``: the handlers that count a raising query as a
    failed operation must not swallow it."""


def _expired(_signum, _frame):
    raise Deadline(f"run did not end within {DEADLINE_S} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in ("realestate_scraper_ray", "bench.py"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from the "
                  "root of a full checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, ROOT)
    from perfbench import harness
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(DEADLINE_S)
    try:
        out = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Deadline as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    for m in out["mismatches"]:
        print(f"perfbench: MISMATCH {m}", file=sys.stderr)
    print(json.dumps({k: out[k] for k in ("workload", "seed", "reps", "detail")}))
    print(json.dumps(out["result"]))
    sys.stdout.flush()
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

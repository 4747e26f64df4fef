"""Paired A/B runs of the repo benchmark between two checkouts.

    python tools/ab.py PARENT_DIR CHANGE_DIR --workload crawl_frontier \
        --pairs 6 --seconds 30

Runs ``perfbench/run.py`` from each checkout (its own working directory,
so each side imports its own package), the two sides of a pair in
alternating order (parent first in even pairs, change first in odd
ones). Every run is wrapped in ``timeout`` and preceded by
``ray stop --force``. For each end-to-end metric of ``BENCHMARK.json``
it prints the per-pair ratios (change / parent), their median and how
many pairs the change won (higher or lower, as the metric's ``better``
says), then one JSON summary line.

Exit status: 0 when every run was correct with no failed operation,
1 when a run failed or was incorrect, 2 when a benchmark process is
still running at the end: the raylet, a Ray worker (``ray::...``),
python running ``perfbench/run.py``, or pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def _run(checkout: str, workload: str, seed: int, seconds: float,
         timeout_s: int) -> dict:
    subprocess.run(["ray", "stop", "--force"], capture_output=True)
    cmd = ["timeout", "-k", "10", str(timeout_s), sys.executable,
           "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [ln for ln in p.stdout.splitlines() if ln.startswith("{")]
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = p.stderr.strip().splitlines()[-3:]
        return {"ok": False, "error": f"exit {p.returncode}: {tail}"}
    # the line before the result carries the workload's own figures
    detail = json.loads(lines[-2]).get("detail", {}) if len(lines) > 1 else {}
    return {"ok": bool(out["correct"]) and out["failed"] == 0,
            "failed": out["failed"], "attempted": out["attempted"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()},
            "detail": {k: v["value"] for k, v in detail.items()
                       if isinstance(v["value"], (int, float))}}


def _ancestors() -> set[int]:
    """This process and its parents (their command lines may name the
    benchmark without being part of it)."""
    pids, pid = set(), os.getpid()
    while pid > 1:
        pids.add(pid)
        with open(f"/proc/{pid}/stat") as f:
            pid = int(f.read().rsplit(")", 1)[1].split()[1])
    return pids


def is_benchmark_process(cmd: str) -> bool:
    """True for a command line (``pgrep -af`` without the pid) of a
    process a benchmark run leaves behind: the raylet binary, a Ray
    worker (``ray::IDLE``, ``ray::UrlSeenShard``, ...), python running
    ``perfbench/run.py``, or pytest. A process that merely names one of
    them in its arguments (a shell running ``pgrep``) is not one."""
    argv = cmd.split()
    if not argv:
        return False
    prog = os.path.basename(argv[0])
    if argv[0].startswith("ray::") or prog in ("raylet", "pytest"):
        return True
    if not prog.startswith("python"):
        return False
    args = argv[1:]
    return (any(a == "perfbench/run.py" or a.endswith("/perfbench/run.py")
                or os.path.basename(a) == "pytest" for a in args)
            or any(a == "-m" and b == "pytest" for a, b in zip(args, args[1:])))


def _leftovers() -> list[str]:
    p = subprocess.run(["pgrep", "-af", "raylet|ray::|perfbench|pytest"],
                       capture_output=True, text=True)
    mine = _ancestors()
    found = []
    for ln in p.stdout.splitlines():
        pid, _, cmd = ln.partition(" ")
        if int(pid) not in mine and is_benchmark_process(cmd):
            found.append(ln)
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=6)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--timeout", type=int, default=300,
                    help="seconds before one run is killed")
    args = ap.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}

    runs: list[dict[str, dict]] = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            pair[side] = _run(getattr(args, side), args.workload, args.seed,
                              args.seconds, args.timeout)
            r = pair[side]
            shown = ({k: round(v, 3) for k, v in r["metrics"].items()}
                     if "metrics" in r else r["error"])
            print(f"pair {i + 1} {side}: ok={r['ok']} {shown}", flush=True)
        runs.append(pair)
    subprocess.run(["ray", "stop", "--force"], capture_output=True)

    summary = {"workload": args.workload, "pairs": len(runs), "metrics": {}}
    good = [p for p in runs if "metrics" in p["parent"] and "metrics" in p["change"]]
    for name, way in better.items():
        ratios = [p["change"]["metrics"][name] / p["parent"]["metrics"][name]
                  for p in good if p["parent"]["metrics"].get(name)]
        if not ratios:
            continue
        wins = sum((r > 1) if way == "higher" else (r < 1) for r in ratios)
        med = statistics.median(ratios)
        print(f"{name} ({way} is better): ratios "
              f"{[round(r, 3) for r in ratios]}, median {med:.3f}, "
              f"change wins {wins}/{len(ratios)}")
        summary["metrics"][name] = {
            "ratios": ratios, "median_ratio": med, "change_wins": wins,
            "parent": [p["parent"]["metrics"][name] for p in good],
            "change": [p["change"]["metrics"][name] for p in good]}
    summary["runs"] = runs
    bad = [f"pair {i + 1} {side}" for i, p in enumerate(runs)
           for side, r in p.items() if not r["ok"]]
    summary["bad_runs"] = bad
    left = _leftovers()
    summary["leftover_processes"] = left
    print(json.dumps(summary))
    if left:
        print("processes still running:\n  " + "\n  ".join(left),
              file=sys.stderr)
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

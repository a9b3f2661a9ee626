"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload invariants --seed 1 --seconds 38 --trace 0

Run from the root of a source tree: the workload imports planebranch from
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a run with every layer wrapped.  The lines before it
give the environment and notes on the run.  Exits with 2 when the source
tree is missing and with 1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "planebranch"
SETUP_PROBES = 2  # set-up only processes; the measuring worker adds one more
DEADLINE_S = 170


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_lines() -> dict:
    return {p.stem: len(p.read_text(encoding="utf-8").splitlines())
            for p in sorted(SRC.glob("*.py"))}


def spawn(args, extra, deadline):
    """Run worker.py and return its JSON result line, or None on failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # workers write no bytecode, so in a fresh checkout every run compiles
    # planebranch from source and set-up does not depend on earlier runs
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        print(f"worker for {args.workload} did not finish in time", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"worker for {args.workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("invariants", "normalform", "reproduce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "__init__.py").is_file():
        print(f"no planebranch sources at {SRC.relative_to(ROOT)}; run from a source tree",
              file=sys.stderr)
        return 2

    setups = []
    for _ in range(0 if args.trace else SETUP_PROBES):
        probe = spawn(args, ["--setup-only"], deadline)
        if probe is None:
            return 1
        setups.append(probe["setup_s"])
    run = spawn(args, [], deadline)
    if run is None:
        return 1
    setups.append(run["setup_s"])

    env = {
        "python": platform.python_version(),
        "RAT_BACKEND": run["rat_backend"],
        "cpus": os.cpu_count(),
        "commit": git_commit(),
        "source_lines": source_lines(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    times, rounds = run["op_times"], run["round_times"]
    done = run["attempted"] - run["failed"]
    notes = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "ops": len(times), "round_s": rounds, **run["notes"]}
    if len(times) >= 2:
        notes["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    print("notes " + json.dumps(notes, sort_keys=True))
    for err in run["op_errors"]:
        print(f"failed: {err}", file=sys.stderr)
    for err in run["check_errors"]:
        print(f"check: {err}", file=sys.stderr)

    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in run["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # a round's operations over the median round's time: a slow
            # spell of the machine during a few rounds does not move it
            "ops_per_s": {"value": done / len(rounds) / statistics.median(rounds),
                          "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not run["check_errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

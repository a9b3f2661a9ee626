"""Time `planebranch normalform` on a ladder of branches; write BENCH_ladder.json.

The family is x = t^v0, y = t^(v0+1) + (1/3) t^(v0+3) + 2 t^(2 v0 + 5), the
one `bench/reference.py` times in-process (a change to one is made in
both): the semigroup is <v0, v0 + 1>, so the conductor (v0 - 1) v0 grows
with v0 and every rung runs a full reduction.  For v0 = 7, 9, ..., 17 the
CLI runs three times in fresh processes (import, branch, reduction and
output are all timed); each rung records the median wall time and the
sha256 of stdout.  Every run of a rung must print the same bytes and exit
0, or the script stops.  ``src_lines`` gives the lines of each module of
the measured ``src/planebranch``, as that tree's ``bench/run.py`` counts
them, so source size sits next to the timings.

    python scripts/ladder.py
    python scripts/ladder.py --root ../other-checkout

``--root`` measures the source tree at that path instead of the one this
script sits in, and writes that tree's BENCH_ladder.json, so two trees can
be timed with the same script.  ``commit`` is the tree's HEAD, or null when
its ``src/`` has uncommitted changes (the timings are then of no commit).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
V0S = (7, 9, 11, 13, 15, 17)
REPEATS = 3
OUT = "BENCH_ladder.json"


def branch(v0: int) -> dict:
    return {"v0": v0, "terms": [[v0 + 1, "1"], [v0 + 3, "1/3"], [2 * v0 + 5, "2"]]}


def run_rung(root: Path, v0: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, "-m", "planebranch", "normalform"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"ladder_{v0}.json"
        path.write_text(json.dumps(branch(v0)), encoding="utf-8")
        times, digests = [], set()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            run = subprocess.run(cmd + [str(path)], env=env, capture_output=True)
            times.append(time.perf_counter() - t0)
            if run.returncode != 0:
                raise SystemExit(f"v0 = {v0}: exit {run.returncode}\n{run.stderr.decode()}")
            digests.add(hashlib.sha256(run.stdout).hexdigest())
    if len(digests) != 1:
        raise SystemExit(f"v0 = {v0}: runs printed different outputs")
    return {
        "v0": v0,
        "conductor": (v0 - 1) * v0,
        "wall_s_median": round(statistics.median(times), 3),
        "wall_s": [round(t, 3) for t in times],
        "stdout_sha256": digests.pop(),
    }


def source_lines(root: Path) -> dict:
    """``source_lines()`` of the tree's own ``bench/run.py``."""
    spec = importlib.util.spec_from_file_location("bench_run", root / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.source_lines()


def git(root: Path, *args) -> str | None:
    try:
        run = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    except OSError:
        return None
    return run.stdout.strip() if run.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="source tree to measure")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    status = git(root, "status", "--porcelain", "--", "src")
    sys.path.insert(0, str(root / "src"))
    from planebranch.series import RAT_BACKEND
    report = {
        "command": "python -m planebranch normalform <branch.json>",
        "family": "t^v0, t^(v0+1) + (1/3) t^(v0+3) + 2 t^(2 v0 + 5)",
        "repeats": REPEATS,
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "rat_backend": RAT_BACKEND,
        "cpu_count": os.cpu_count(),
        "commit": git(root, "rev-parse", "HEAD") if status == "" else None,
        "src_uncommitted_changes": None if status is None else bool(status),
        "src_lines": source_lines(root),
        "rungs": [],
    }
    for v0 in V0S:
        rung = run_rung(root, v0)
        print(json.dumps(rung), flush=True)
        report["rungs"].append(rung)
    (root / OUT).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

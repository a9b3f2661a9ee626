"""Reference figures, measured once and recorded in bench/README.md.

    PYTHONPATH=src python3 bench/reference.py

Times each `reproduce` suite once through run_reproduction, against the
wall-clock gate that tests/test_acceptance.py sets for it, and then one
reduction of a random image at v0 = 7, 9 and 11: the branch
(t^v0, t^(v0+1) + (1/3) t^(v0+3) + 2 t^(2 v0 + 5)) moved by
random_coordinate_change.  The ladder is not a workload because its top
rung alone takes longer than a whole run.
"""

from __future__ import annotations

import random
import sys
import time

import planebranch as pb

GATES_S = {"7.2": 10.0, "7.1": 10.0, "zariski-counterexample": 5.0}


def main() -> int:
    for suite, gate in GATES_S.items():
        t0 = time.perf_counter()
        ok = pb.run_reproduction(suite)["ok"]
        print(f"reproduce {suite}: {time.perf_counter() - t0:.2f} s (gate {gate:.0f} s), ok={ok}")
    for v0 in (7, 9, 11):
        phi = pb.PuiseuxParam(v0, {v0 + 1: 1, v0 + 3: pb.rat(1, 3), 2 * v0 + 5: 2})
        change = pb.random_coordinate_change(random.Random(v0), v0, v0 + 1)
        image = pb.apply_coordinate_change(phi, change)
        t0 = time.perf_counter()
        nf = pb.to_normal_form(image)
        print(f"normal form of a random image, v0 = {v0}, conductor "
              f"{phi.semigroup.conductor}: {time.perf_counter() - t0:.2f} s, "
              f"{len(nf.change_log)} eliminations")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

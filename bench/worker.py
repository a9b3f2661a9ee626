"""One run of one workload, in a fresh process started by run.py.

Set-up (importing planebranch, loading the bundled samples, building the
first round of inputs) ends at the ``ready`` stamp.  Then whole rounds run
one operation at a time, each call timed, until the timed calls add up to
``--seconds``, give or take half a round.  Each round's outputs are checked
after its timed calls, outside the timing and with tracing paused.  The
result is one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import planebranch as pb
    import workloads

    pb.load_samples()
    work = workloads.WORKLOADS[args.workload](args.seed)
    inputs = work.next_round()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    times, rounds, op_errors, check_errors = [], [], [], []
    attempted = 0
    while True:
        outputs = []
        ops = work.ops(inputs)
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                outputs.append(op())
            except Exception as exc:  # counted as a failed operation
                outputs.append(None)
                op_errors.append(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
        rounds.append(sum(times[-len(ops):]))
        if tracer:
            tracer.enabled = False
        if all(out is not None for out in outputs):
            check_errors += work.check(inputs, outputs)
        if tracer:
            tracer.enabled = True
        del outputs
        # stop where the timed total lands nearest to --seconds
        if sum(rounds) + statistics.median(rounds) / 2 >= args.seconds:
            break
        inputs = work.next_round()

    result = {
        "ready": ready,
        "op_times": times,
        "round_times": rounds,
        "attempted": attempted,
        "failed": len(op_errors),
        "check_errors": check_errors,
        "op_errors": op_errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rat_backend": pb.series.RAT_BACKEND,
        "notes": work.notes,
    }
    if tracer:
        result["layers"] = tracer.metrics(attempted - len(op_errors))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

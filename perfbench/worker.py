"""One benchmark process: set-up, then the workload, then one JSON line.

run.py starts this in a fresh interpreter so that set-up time and peak
memory belong to one workload.  Set-up is `import svsearch`,
field_for_order(q) and one warm-up trial, which fills the lazy tables.

    python3 perfbench/worker.py --workload small --seed 2206 --seconds 20 --trace 0
    python3 perfbench/worker.py --workload ext --seed 2206 --setup-only
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from workloads import CROSS_CHECK_TRIALS, OUT_DIR, PARTNER, SRC, WARMUP_TRIAL, WORKLOADS, digest


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import bench
    from svsearch import field_for_order

    ctx = field_for_order(w.q)
    t1 = time.perf_counter()
    ctx.mul(w.q - 1, w.q - 2)  # first op: builds the extension-field tables
    t2 = time.perf_counter()
    bench.run_trial(ctx, w, args.seed, WARMUP_TRIAL)
    t3 = time.perf_counter()
    result = {"setup_s": t3 - t0, "tables_s": t2 - t1}
    if args.setup_only:
        print(json.dumps(result))
        return

    if args.trace:
        from tracing import Tracer

        result["ops_ns"] = bench.field_op_ns(ctx, args.seed)
        tracer = Tracer()
        loop, traced = bench.paired_pass(ctx, w, args.seed, tracer)
        result["traced_rows_differ"] = traced.rows != loop.rows
        result["layers"] = bench.layer_metrics(w, tracer.spans, traced.outcomes)
        result["summarize_ms"] = bench.summarize_ms(w, args.seed, loop.rows)
        result["overhead_ms"] = bench.quantile(traced.trial_ms(), 0.5) - bench.quantile(loop.trial_ms(), 0.5)
        tracer.write(OUT_DIR / f"spans-{w.name}-{args.seed}.csv")
    else:
        loop = bench.closed_loop(ctx, w, args.seed, args.seconds)
        result["trials_per_s"] = loop.executed / loop.wall_s
        result["p50_ms"] = bench.quantile(loop.trial_ms(), 0.5)
        result["p90_ms"] = bench.quantile(loop.trial_ms(), 0.9)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["executed"] = loop.executed
    result["failed"] = loop.failed
    result["digest"] = digest(loop.rows)
    result["repeat_mismatches"] = loop.repeat_mismatches
    result["unverified"] = bench.unverified_points(ctx, w, args.seed, loop.outcomes)
    partner = PARTNER.get(w.name)
    result["disagreements"] = (
        bench.backend_disagreements(ctx, WORKLOADS[partner], args.seed, loop.rows, CROSS_CHECK_TRIALS)
        if partner
        else 0
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()

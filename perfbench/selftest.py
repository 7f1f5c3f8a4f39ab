"""Self-test of the benchmark: its trial loop must reproduce the program's rows.

    python3 perfbench/selftest.py

Checks, for a short trial range of every workload, that
- the closed loop's rows equal those of mc.records_to_csv(run_experiment(...));
- tracing changes no row, and every traced name is restored afterwards;
- grid and elim agree on status and strip index;
- self time is a span's duration minus its children's.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import os
import sys

from workloads import DEFAULT_SEED, PARTNER, SINGLE_THREAD_ENV, SRC, WORKLOADS, csv_row

SHORT_RANGE = {"small": 60, "grid": 6, "elim": 12, "ext": 12}


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def main() -> None:
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import bench
    import tracing
    from svsearch import field_for_order, mc

    check(
        tracing.span_totals(
            [("a", 0, 100, -1, 0), ("b", 10, 30, 0, 0), ("b", 40, 50, 0, 0), ("c", 41, 45, 2, 0)]
        )
        == {"a": (1, 100, 70), "b": (2, 30, 26), "c": (1, 4, 4)},
        "span_totals self time",
    )

    seed = DEFAULT_SEED
    rows = {}
    for name, n in SHORT_RANGE.items():
        w = dataclasses.replace(WORKLOADS[name], trials=n)
        ctx = field_for_order(w.q)
        records, _ = mc.run_experiment(
            w.q, w.r, w.s, w.d, n, seed, backend=w.backend, want_certificates=w.certify
        )
        expected = mc.records_to_csv(records).splitlines()[1:]
        loop = bench.closed_loop(ctx, w, seed, 0.0)
        check([csv_row(w, seed, row) for row in loop.rows] == expected,
              f"{name}: loop rows equal run_experiment rows")

        originals = [(owner, attr, getattr(owner, attr)) for attr, owners in tracing.TARGETS for owner in owners]
        tracer = tracing.Tracer()
        plain, traced = bench.paired_pass(ctx, w, seed, tracer)
        check(plain.rows == loop.rows and traced.rows == loop.rows,
              f"{name}: rows identical with tracing on and off")
        check(all(getattr(owner, attr) is fn for owner, attr, fn in originals),
              f"{name}: traced names restored")
        spanned = {span[0] for span in tracer.spans}
        expected_names = {"sample_system", "run_svs", "sample_strips", "find_zero", "specialize",
                          "evaluate", "verify_solution"}
        if w.certify:
            expected_names |= {"cond_h_certificate", "resultant_y_general", "resultant_y", "rational_roots"}
        check(expected_names <= spanned, f"{name}: spans cover {sorted(expected_names)}")
        check(bench.unverified_points(ctx, w, seed, loop.outcomes) == 0, f"{name}: every point verifies")
        rows[name] = loop.rows

    for a, b in PARTNER.items():
        if a > b:
            continue
        n = min(len(rows[a]), len(rows[b]))
        check([r[1:3] for r in rows[a][:n]] == [r[1:3] for r in rows[b][:n]],
              f"{a} and {b} agree on status and strip index")


if __name__ == "__main__":
    main()

"""Record the correctness digests that run.py checks, into digests.json.

    python3 perfbench/record_digests.py

For each workload and for the default and the held-out seed, runs one
pass of trial ids 0..N-1 and stores the sha256 of its
(trial_id, status, strip_index, certificate) rows.  Refuses to write
when grid and elim disagree on status or strip index.  Run it only when
the workloads change: the digests pin the answers of the program.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import DEFAULT_SEED, DIGESTS, PARTNER, SINGLE_THREAD_ENV, SRC, WORKLOADS, digest

# Not used while the benchmark was written; for re-checking a gain claim.
HELD_OUT_SEED = 731


def main() -> int:
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
    import bench
    from svsearch import field_for_order

    doc = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    rows = {}
    for w in WORKLOADS.values():
        ctx = field_for_order(w.q)
        seeds = {}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            loop = bench.closed_loop(ctx, w, seed, 0.0)
            rows[w.name, seed] = loop.rows
            seeds[str(seed)] = digest(loop.rows)
            print(f"{w.name} seed {seed}: {seeds[str(seed)]}  failed {loop.failed}", flush=True)
        doc["workloads"][w.name] = {"trials": w.trials, "seeds": seeds}
    for a, b in PARTNER.items():
        if a > b:
            continue
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            pairs = zip(rows[a, seed], rows[b, seed])
            bad = [ra[0] for ra, rb in pairs if ra[1:3] != rb[1:3]]
            if bad:
                print(f"error: {a} and {b} disagree on trials {bad[:10]} for seed {seed}", file=sys.stderr)
                return 1
    with open(DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

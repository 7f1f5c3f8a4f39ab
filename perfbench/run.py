"""Trial-latency benchmark for svsearch.

    python3 perfbench/run.py --workload small --seed 2206 --seconds 20 --trace 0
    python3 perfbench/run.py --trace 1          # every workload, per-layer metrics

Each workload runs in fresh worker processes (worker.py): several that
only set up, for the set-up time, and one that sets up and then runs the
closed trial loop.  The parent prints every metric that BENCHMARK.json
lists, by name with its unit, and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  It exits 1 when
a correctness check fails, and 2 without a result when the program
cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, ROOT, SINGLE_THREAD_ENV, SRC, WORKLOADS, expected_digest

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 5  # set-up samples per untraced run, the workload's own included
TRACE_SETUP_RUNS = 3
DEADLINE_S = 170.0  # a run of one workload ends within 180 s

NOTES = {"zdsolve.grid_cells": "computed as q^s per exhaustive call, not measured"}


class WorkerError(RuntimeError):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before the worker started")
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise WorkerError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", name, "--seed", str(seed)]
    setups = [
        run_worker(base + ["--setup-only"], deadline)
        for _ in range((TRACE_SETUP_RUNS if trace else SETUP_RUNS) - 1)
    ]
    res = run_worker(base + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline)
    setups.append(res)

    problems = []
    expected = expected_digest(w, seed)
    if expected is not None and res["digest"] != expected:
        problems.append(f"digest {res['digest']} differs from the recorded {expected}")
    if res["repeat_mismatches"]:
        problems.append(f"{res['repeat_mismatches']} repeated trials gave other rows")
    if res["unverified"]:
        problems.append(f"{res['unverified']} points fail verify_solution")
    if res["disagreements"]:
        problems.append(f"{res['disagreements']} trials where the backends disagree")
    if trace and res["traced_rows_differ"]:
        problems.append("traced rows differ from untraced rows")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        values = dict(res["layers"])
        values["ffield.mul_ns"] = res["ops_ns"]["mul"]
        values["ffield.add_ns"] = res["ops_ns"]["add"]
        values["ffield.tables_s"] = statistics.median(s["tables_s"] for s in setups)
        values["mc.summarize_ms"] = res["summarize_ms"]
        values["trace.overhead_ms"] = res["overhead_ms"]
    else:
        values = {
            "trials_per_s": res["trials_per_s"],
            "trial_ms.p50": res["p50_ms"],
            "trial_ms.p90": res["p90_ms"],
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }

    attempted, failed = res["executed"], res["failed"]
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"q={w.q} r={w.r} s={w.s} d={w.d} {w.backend}{' +certify' if w.certify else ''}  "
          f"{w.trials} trials/pass")
    print(f"  attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.6g}")
    for key, unit in units.items():
        note = f"  ({NOTES[key]})" if key in NOTES else ""
        print(f"  {key:<28} {values[key]:>14.6g} {unit}{note}")
    status = "not recorded for this seed" if expected is None else (
        "matches record" if res["digest"] == expected else "MISMATCH")
    print(f"  digest {res['digest'][:16]}  {status}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "svsearch" / "__init__.py").is_file():
        print(f"error: no svsearch sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (WorkerError, KeyError, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

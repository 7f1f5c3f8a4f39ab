"""The closed trial loop and the checks and probes run around it.

A trial is what mc._run_trial does, rebuilt from public calls:
RngStream(seed, t), then sample_system, then run_svs.  One trial runs
at a time and the next starts only after it finishes.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import svsearch
from svsearch import mc, sampler, svs
from svsearch.errors import CapacityError
from svsearch.sampler import RngStream

from tracing import span_totals
from workloads import SRC, Workload

if Path(svsearch.__file__).resolve().parent != SRC / "svsearch":
    raise ImportError(f"svsearch was imported from {svsearch.__file__}, not from {SRC}")

# Stream id of the element pairs for the field-op microbenchmark.
OPS_STREAM = (1 << 32) + 1


def run_trial(ctx, w: Workload, seed: int, trial_id: int):
    """One trial: its (trial_id, status, strip_index, certificate) row and outcome.

    A capacity abort or any other exception is a failed trial, reported
    in the row, and the loop goes on.
    """
    try:
        rng = RngStream(seed, trial_id)
        system = sampler.sample_system(ctx, w.r, w.s, w.d, rng)
        outcome = svs.run_svs(system, rng=rng, backend=w.backend, certify=w.certify)
    except CapacityError:
        return (trial_id, "aborted", "", ""), None
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return (trial_id, "error", "", ""), None
    idx = str(outcome.strip_index) if outcome.status == "success" else "inf"
    cert = outcome.certificates[0].verdict if outcome.certificates else ""
    return (trial_id, outcome.status, idx, cert), outcome


@dataclass
class LoopResult:
    rows: list = field(default_factory=list)  # first execution of each trial id
    outcomes: list = field(default_factory=list)  # SolveOutcome or None, likewise
    busy_s: list = field(default_factory=list)  # per trial id: summed latency
    runs: list = field(default_factory=list)  # per trial id: executions
    wall_s: float = 0.0
    failed: int = 0  # aborted or raising executions
    repeat_mismatches: int = 0  # repeated executions whose row differs from the first

    @property
    def executed(self) -> int:
        return sum(self.runs)

    def record(self, tid: int, row: tuple, outcome, seconds: float) -> None:
        self.failed += outcome is None
        if tid == len(self.rows):
            self.rows.append(row)
            self.outcomes.append(outcome)
            self.busy_s.append(seconds)
            self.runs.append(1)
            return
        self.busy_s[tid] += seconds
        self.runs[tid] += 1
        self.repeat_mismatches += row != self.rows[tid]

    def trial_ms(self) -> list[float]:
        """Each trial id's mean latency over its executions, in ms.

        Quantiles over these weight every trial id once, however many
        times the loop got round to it."""
        return [busy / runs * 1e3 for busy, runs in zip(self.busy_s, self.runs)]


def closed_loop(ctx, w: Workload, seed: int, seconds: float) -> LoopResult:
    """Trial ids 0..N-1 in order, repeated until `seconds` have passed.

    The first pass always completes; later passes stop when time is up.
    """
    clock = time.perf_counter
    res = LoopResult()
    executed = 0
    start = clock()
    while executed < w.trials or clock() - start < seconds:
        tid = executed % w.trials
        t0 = clock()
        row, outcome = run_trial(ctx, w, seed, tid)
        res.record(tid, row, outcome, clock() - t0)
        executed += 1
    res.wall_s = clock() - start
    return res


def paired_pass(ctx, w: Workload, seed: int, tracer) -> tuple[LoopResult, LoopResult]:
    """One pass over trial ids 0..N-1 that runs each trial untraced and
    traced, alternating which goes first, so drift hits both equally."""
    clock = time.perf_counter
    plain, traced = LoopResult(), LoopResult()
    for tid in range(w.trials):
        tracer.trial = tid
        for res in (plain, traced) if tid % 2 == 0 else (traced, plain):
            with tracer if res is traced else contextlib.nullcontext():
                t0 = clock()
                row, outcome = run_trial(ctx, w, seed, tid)
                dt = clock() - t0
            res.record(tid, row, outcome, dt)
            res.wall_s += dt
    return plain, traced


def unverified_points(ctx, w: Workload, seed: int, outcomes: list) -> int:
    """Successful outcomes whose point fails verify_solution on a re-drawn system."""
    bad = 0
    for tid, outcome in enumerate(outcomes):
        if outcome is None or outcome.status != "success":
            continue
        system = sampler.sample_system(ctx, w.r, w.s, w.d, RngStream(seed, tid))
        if not svs.verify_solution(system, outcome.strip, outcome.point):
            bad += 1
    return bad


def backend_disagreements(ctx, partner: Workload, seed: int, rows: list, count: int) -> int:
    """Trials among the first `count` where the partner workload's backend
    gives another status or strip index."""
    bad = 0
    for row in rows[:count]:
        other, _ = run_trial(ctx, partner, seed, row[0])
        if other[1:3] != row[1:3]:
            bad += 1
    return bad


def quantile(values: list, p: float) -> float:
    """Nearest-rank p-quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def field_op_ns(ctx, seed: int, batch: int = 4096, reps: int = 21) -> dict[str, float]:
    """Median ns per public ctx.mul / ctx.add call over a fixed batch of pairs,
    loop overhead included."""
    rng = RngStream(seed, OPS_STREAM)
    pairs = [(rng.next_below(ctx.q), rng.next_below(ctx.q)) for _ in range(batch)]
    out = {}
    for name in ("mul", "add"):
        op = getattr(ctx, name)
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for a, b in pairs:
                op(a, b)
            samples.append((time.perf_counter_ns() - t0) / batch)
        out[name] = statistics.median(samples)
    return out


def summarize_ms(w: Workload, seed: int, rows: list, reps: int = 5) -> float:
    """Median wall time of mc.summarize over this run's records."""
    records = [
        mc.TrialRecord(
            tid, seed, w.q, w.r, w.s, w.d, w.hstar, w.backend,
            status if status in ("success", "failure") else "aborted",
            int(idx) if status == "success" else None,
            cert, (), 0,
        )
        for tid, status, idx, cert in rows
    ]
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        mc.summarize(records, w.q, w.r, w.s, w.d, seed, w.backend, w.certify, w.hstar)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def layer_metrics(w: Workload, spans: list, outcomes: list) -> dict[str, float]:
    """Per-trial averages of the traced pass, by layer."""
    n = len(outcomes)
    totals = span_totals(spans)

    def calls(name):
        return totals.get(name, (0, 0, 0))[0] / n

    def incl_ms(name):
        return totals.get(name, (0, 0, 0))[1] / n / 1e6

    def self_ms(name):
        return totals.get(name, (0, 0, 0))[2] / n / 1e6

    done = [o for o in outcomes if o is not None]
    strips = sum(o.strips_tried for o in done)
    hits = sum(1 for o in done if o.status == "success")
    exhaustive_calls = calls("find_zero") if w.backend == "exhaustive" else 0
    return {
        "sampler.sample_system_ms": incl_ms("sample_system"),
        "sampler.sample_strips_ms": incl_ms("sample_strips"),
        "svs.self_ms": self_ms("run_svs"),
        "svs.verify_ms": incl_ms("verify_solution"),
        "svs.strips_per_trial": strips / n,
        "svs.hit_ratio": hits / strips if strips else 0.0,
        "mpoly.specialize_ms": incl_ms("specialize"),
        "mpoly.evaluate_calls": calls("evaluate"),
        "mpoly.rational_roots_ms": incl_ms("rational_roots"),
        "mpoly.rational_roots_calls": calls("rational_roots"),
        "mpoly.resultant_y_ms": incl_ms("resultant_y"),
        "mpoly.resultant_y_calls": calls("resultant_y"),
        "zdsolve.find_zero_ms": self_ms("find_zero"),
        "zdsolve.find_zero_calls": calls("find_zero"),
        "zdsolve.cert_ms": incl_ms("cond_h_certificate"),
        "zdsolve.grid_cells": exhaustive_calls * w.q**w.s,
    }

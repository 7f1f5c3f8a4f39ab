"""The benchmark's workloads, row format and correctness digest.

This module imports nothing from svsearch, so the parent process in
run.py can use it without loading the program under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 2206
# Stream id of the warm-up trial: outside every timed range 0..trials-1.
WARMUP_TRIAL = 1 << 32

# numpy must run single-threaded: the closed loop is one trial at a time.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    r: int
    s: int
    d: int
    backend: str
    certify: bool
    trials: int  # one pass covers trial ids 0..trials-1

    @property
    def hstar(self) -> int:
        return self.r - self.s + 1


# Pass sizes make one pass take about 20 s on a 2-core x86 box, so that
# seed-to-seed spread of the timing quantiles stays a few percent.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("small", 31, 5, 2, 3, "exhaustive", False, 2000),
        Workload("grid", 1009, 4, 2, 3, "exhaustive", False, 360),
        Workload("elim", 1009, 4, 2, 3, "resultant", True, 800),
        Workload("ext", 256, 5, 2, 3, "exhaustive", False, 700),
    )
}

# grid and elim share q, r, s, d and seed: their backends must agree on
# status and strip index trial by trial.
PARTNER = {"grid": "elim", "elim": "grid"}
CROSS_CHECK_TRIALS = 20


def csv_row(w: Workload, seed: int, row: tuple) -> str:
    """The trials.csv line that mc.records_to_csv writes for this trial."""
    trial_id, status, idx, cert = row
    return f"{trial_id},{seed},{w.q},{w.r},{w.s},{w.d},{w.hstar},{w.backend},{status},{idx},{cert},0"


def digest(rows: list[tuple]) -> str:
    """sha256 over the (trial_id, status, strip_index, certificate) tuples."""
    text = "\n".join(",".join(str(x) for x in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def expected_digest(w: Workload, seed: int) -> str | None:
    """The recorded digest for (workload, seed), or None when not recorded."""
    entry = load_digests()["workloads"].get(w.name)
    if entry is None:
        return None
    if entry["trials"] != w.trials:
        raise ValueError(f"digests.json records {entry['trials']} trials for {w.name}, not {w.trials}")
    return entry["seeds"].get(str(seed))

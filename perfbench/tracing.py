"""Spans around calls into svsearch's layers, recorded from outside the program.

Inside `with tracer:` each traced name is rebound, in every module that
calls it, to a wrapper that records a span (name, start_ns, end_ns,
parent, trial id) in memory; leaving the block puts the originals back.
Nothing under src/ knows about tracing.
"""

from __future__ import annotations

import functools
import time

from svsearch import mpoly, sampler, svs, zdsolve
from svsearch.mpoly import MPoly

# (span name, owners whose attribute of that name is rebound).  A module
# that imported a function holds its own reference, so each caller's
# module is listed: zdsolve imported rational_roots and resultant_y from
# mpoly, and mpoly.resultant_y_general calls mpoly.resultant_y.
# sample_system and run_svs are called by the benchmark itself.
TARGETS = (
    ("sample_system", (sampler,)),
    ("run_svs", (svs,)),
    ("sample_strips", (svs,)),
    ("find_zero", (svs,)),
    ("cond_h_certificate", (svs,)),
    ("verify_solution", (svs,)),
    ("rational_roots", (zdsolve, mpoly)),
    ("resultant_y", (zdsolve, mpoly)),
    ("resultant_y_general", (zdsolve,)),
    ("specialize", (MPoly,)),
    ("evaluate", (MPoly,)),
)


class Tracer:
    """In-memory span recorder; use as a context manager around traced work."""

    def __init__(self) -> None:
        self.spans: list = []
        self.trial = -1
        self._stack: list[int] = []
        self._bindings = []  # (owner, name, original, wrapper)
        for name, owners in TARGETS:
            original = getattr(owners[0], name)
            wrapper = self._wrap(name, original)
            self._bindings.extend(
                (owner, name, original, wrapper)
                for owner in owners
                if getattr(owner, name, None) is original
            )

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial)

        return traced

    def __enter__(self) -> "Tracer":
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original, _ in self._bindings:
            setattr(owner, name, original)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,trial\n")
            for span in self.spans:
                fh.write(",".join(str(x) for x in span) + "\n")


def span_totals(spans: list) -> dict[str, tuple[int, int, int]]:
    """Per span name: (calls, inclusive ns, self ns).

    Self time is a span's duration minus the time its child spans cover;
    calls run one at a time, so children never overlap.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, tuple[int, int, int]] = {}
    for (name, start, end, _, _), self_ns in zip(spans, own):
        calls, incl, excl = totals.get(name, (0, 0, 0))
        totals[name] = (calls + 1, incl + end - start, excl + self_ns)
    return totals

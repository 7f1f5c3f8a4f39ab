"""The search-on-vertical-strips driver.

A run walks through a budget of pairwise-distinct strips, specializes
the system on each strip and hands the zero-dimensional remainder to a
solver backend, stopping at the first strip that carries a rational
solution.  Runs are deterministic given the stream and replay
byte-for-byte after serialization.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .sampler import RngStream, Strip, SystemSpec, check_strips, sample_strips
from .zdsolve import CertResult, ZeroDimQuery, cond_h_certificate, find_zero


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "success" | "failure"
    point: tuple[int, ...] | None  # success only
    strips: tuple[Strip, ...]  # the strips actually visited, in order; on success the last one holds point
    certificates: tuple[CertResult, ...] | None  # one per visited strip, on request
    backend: str
    hstar: int

    @property
    def strips_tried(self) -> int:
        return len(self.strips)

    @property
    def strip_index(self) -> int | None:
        """1-based index of the successful strip; None on failure."""
        return len(self.strips) if self.status == "success" else None

    @property
    def strip(self) -> Strip | None:
        """The successful strip; None on failure."""
        return self.strips[-1] if self.status == "success" else None

    def to_dict(self, system: SystemSpec) -> dict:
        ctx = system.ctx

        def elt(x: int):
            return x if ctx.k == 1 else list(ctx.coeffs(x))

        doc = {
            "status": self.status,
            "strip_index": self.strip_index,
            "strip": [elt(x) for x in self.strip] if self.strip is not None else None,
            "point": [elt(x) for x in self.point] if self.point is not None else None,
            "strips_tried": self.strips_tried,
            "strips": [[elt(x) for x in a] for a in self.strips],
            "backend": self.backend,
            "hstar": self.hstar,
        }
        if self.certificates is not None:
            doc["certificates"] = [
                {
                    "verdict": c.verdict,
                    "resultant_degree": c.resultant_degree,
                    "squarefree": c.squarefree,
                }
                for c in self.certificates
            ]
        return doc


def verify_solution(system: SystemSpec, strip: Strip, point) -> bool:
    """True iff every polynomial vanishes at strip || point."""
    if len(strip) != system.r - system.s or len(point) != system.s:
        raise UsageError("strip/point dimensions do not match the system")
    full = tuple(strip) + tuple(point)
    ctx = system.ctx
    return all(f.evaluate(full, ctx) == 0 for f in system.polys)


def run_svs(
    system: SystemSpec,
    strips: list[Strip] | None = None,
    rng: RngStream | None = None,
    backend: str = "exhaustive",
    hstar: int | None = None,
    certify: bool = False,
) -> SolveOutcome:
    """One search over at most hstar vertical strips.

    Strips come either from an explicit pairwise-distinct list or from a
    stream (prefix-consistent, so a larger budget visits the same strips
    first).  The default budget is r - s + 1.  When certify is set (s = 2
    only) each visited strip's specialization also gets the
    transversality certificate.
    """
    ctx = system.ctx
    m = system.r - system.s
    if (strips is None) == (rng is None):
        raise UsageError("provide exactly one strip source: explicit strips or a stream")
    if certify and system.s != 2:
        raise UsageError("certificates are only defined for s = 2")

    if strips is not None:
        strips = check_strips(strips, m, ctx)
        budget = hstar if hstar is not None else len(strips)
        if not 1 <= budget <= len(strips):
            raise UsageError(f"strip budget {budget} must lie in [1, {len(strips)}], the explicit strips")
        plan = strips[:budget]
    else:
        budget = hstar if hstar is not None else system.hstar
        plan = sample_strips(ctx, m, budget, rng)  # checks the budget

    visited: list[Strip] = []
    certs: list[CertResult] = []
    point = None
    for a in plan:
        visited.append(a)
        specialized = tuple(f.specialize(a, ctx) for f in system.polys)
        query = ZeroDimQuery(ctx, system.s, specialized, system.d)
        if certify:
            certs.append(cond_h_certificate(query))
        point = find_zero(query, backend)
        if point is not None:
            if not verify_solution(system, a, point):
                raise AssertionError("solver returned a point that does not solve the system")
            break
    return SolveOutcome(
        status="failure" if point is None else "success",
        point=point,
        strips=tuple(visited),
        certificates=tuple(certs) if certify else None,
        backend=backend,
        hstar=budget,
    )

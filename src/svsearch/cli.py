"""Command-line front door.

Commands: gen (random system file), solve (one search), experiment
(Monte Carlo batch with CSV + summary output), theory (bound report),
oracle (exact brute-force baselines).  Exit codes: 0 ok, 1 search ended
in failure, 2 usage error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import CapacityError, DomainError, UsageError
from .ffield import FieldCtx, field_for_order
from .mpoly import MPoly
from .mc import exhaustive_p1, exhaustive_sk, records_to_csv, run_experiment
from .sampler import RngStream, SystemSpec, check_strips, sample_system
from .svs import run_svs
from .theory import theory_report
from .zdsolve import BACKENDS, ZeroDimQuery, distinct_geometric_points

EXIT_OK = 0
EXIT_FAILURE_OUTCOME = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3


# ---------------------------------------------------------------------------
# system files


def system_to_text(system: SystemSpec) -> str:
    doc = {
        "q": system.ctx.q,
        "r": system.r,
        "s": system.s,
        "d": system.d,
        "polynomials": [
            [{"c": c, "e": list(exps)} for exps, c in poly.terms] for poly in system.polys
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def _read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _integer(value, name: str) -> int:
    """A system-file number: a JSON integer, not a float, bool or string."""
    if type(value) is not int:
        raise UsageError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def _system_fields(text: str) -> tuple[FieldCtx, int, int, int, tuple[MPoly, ...]]:
    """Parse a system file into (ctx, r, s, d, polys) under the file's rules: integer
    numbers, terms of degree <= d, nonzero coefficients, no repeated exponent vector."""
    try:
        doc = json.loads(text)
        q, r, s, d = (_integer(doc[k], k) for k in ("q", "r", "s", "d"))
        polys_doc = [
            [(tuple(_integer(x, "exponent") for x in term["e"]), _integer(term["c"], "c")) for term in terms]
            for terms in doc["polynomials"]
        ]
    except KeyError as exc:
        raise UsageError(f"system file missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed system file: {exc}") from exc
    ctx = field_for_order(q)
    polys = []
    for terms in polys_doc:
        seen = set()
        for e, c in terms:
            if sum(e) > d:
                raise UsageError(f"term degree {sum(e)} exceeds bound {d}")
            if not 1 <= c < q:
                raise UsageError(f"coefficient {c} outside [1, {q - 1}]")
            if e in seen:
                raise UsageError(f"duplicate exponent vector {e}")
            seen.add(e)
        polys.append(MPoly.from_terms(r, terms, ctx))
    return ctx, r, s, d, tuple(polys)


def system_from_text(text: str) -> SystemSpec:
    return SystemSpec(*_system_fields(text))


def _strip_tuples(text: str) -> list[tuple[int, ...]]:
    """Parse "c1,c2;c1,c2" into tuples of integers, unchecked."""
    strips = []
    for part in text.split(";"):
        try:
            strips.append(tuple(int(x) for x in part.split(",") if x.strip() != ""))
        except ValueError as exc:
            raise UsageError(f"strip {part!r} is not a list of integers") from exc
    return strips


def parse_strips(text: str, m: int, ctx) -> list[tuple[int, ...]]:
    """Parse "c1,c2;c1,c2" into pairwise-distinct strips of m field elements each."""
    return check_strips(_strip_tuples(text), m, ctx)


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-svsearch-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    ctx = field_for_order(args.q)
    rng = RngStream(args.seed, 0)
    system = sample_system(ctx, args.r, args.s, args.d, rng, allow_zero=args.allow_zero)
    sys.stdout.write(system_to_text(system))
    return EXIT_OK


def cmd_solve(args) -> int:
    system = system_from_text(_read_text(args.system))
    ctx = system.ctx
    strips = None
    rng = None
    if args.strips is not None:
        strips = parse_strips(args.strips, system.r - system.s, ctx)
    else:
        rng = RngStream(args.seed, 0)
    outcome = run_svs(
        system,
        strips=strips,
        rng=rng,
        backend=args.backend,
        hstar=args.hstar,
        certify=args.certify,
    )
    sys.stdout.write(json.dumps(outcome.to_dict(system), indent=1) + "\n")
    return EXIT_OK if outcome.status == "success" else EXIT_FAILURE_OUTCOME


def cmd_experiment(args) -> int:
    records, summary = run_experiment(
        args.q,
        args.r,
        args.s,
        args.d,
        args.trials,
        args.seed,
        backend=args.backend,
        want_certificates=args.certify,
        hstar=args.hstar,
        workers=args.workers,
    )
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "trials.csv"), records_to_csv(records))
    _atomic_write(
        os.path.join(args.out, "summary.json"),
        json.dumps(summary, indent=2) + "\n",
    )
    if summary["aborted"]:
        print(f"capacity: {summary['aborted']} of {args.trials} trials aborted", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


def cmd_theory(args) -> int:
    report = theory_report(args.q, args.r, args.s, args.d, hmax=args.h, omega=args.omega)
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return EXIT_OK


# the arguments each oracle takes; count-points needs --strip only when s < r
_ORACLE_ARGS = {
    "p1-exhaustive": ("q", "r", "s", "d"),
    "sk-exhaustive": ("q", "r", "s", "d", "strips"),
    "count-points": ("system", "strip"),
}


def cmd_oracle(args) -> int:
    takes = _ORACLE_ARGS[args.oracle]
    extra = sorted({f"--{name}" for names in _ORACLE_ARGS.values() for name in names
                    if name not in takes and getattr(args, name) is not None})
    if extra:
        raise UsageError(f"oracle {args.oracle} does not take {', '.join(extra)}")
    missing = [f"--{name}" for name in takes if name != "strip" and getattr(args, name) is None]
    if missing:
        raise UsageError(f"oracle {args.oracle} needs {', '.join(missing)}")
    if args.oracle == "p1-exhaustive":
        value = exhaustive_p1(args.q, args.r, args.s, args.d)
        sys.stdout.write(json.dumps({"p1": str(value), "p1_float": float(value)}) + "\n")
        return EXIT_OK
    if args.oracle == "sk-exhaustive":
        # exhaustive_sk checks the field, the shape and then the strips
        value, invertible = exhaustive_sk(args.q, args.r, args.s, args.d, _strip_tuples(args.strips))
        doc = {"sk": str(value), "sk_float": float(value), "m_invertible": invertible}
        if not invertible:
            doc["note"] = "M singular: comparison hypotheses do not apply"
        sys.stdout.write(json.dumps(doc) + "\n")
        return EXIT_OK
    # count-points
    ctx, r, s, d, polys = _system_fields(_read_text(args.system))
    if s != r:
        system = SystemSpec(ctx, r, s, d, polys)  # checks 1 < s < r, shares one slot block
        if args.strip is None:
            raise UsageError("count-points needs --strip for an underdetermined system")
        strips = parse_strips(args.strip, r - s, ctx)
        if len(strips) != 1:
            raise UsageError(f"count-points takes one strip, got {len(strips)}")
        polys = tuple(f.specialize(strips[0], ctx) for f in system.polys)
    elif args.strip is not None:
        raise UsageError("--strip applies only to an underdetermined system (s < r)")
    query = ZeroDimQuery(ctx, s, polys, d)
    count = distinct_geometric_points(query)
    sys.stdout.write(json.dumps({"distinct_geometric_points": count}) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svsearch",
        description="Search for rational solutions of underdetermined systems "
        "over finite fields by specializing onto vertical strips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shape_arguments(command, required=True):
        command.add_argument("--q", type=int, required=required, help="field order (prime power)")
        command.add_argument("--r", type=int, required=required, help="number of variables")
        command.add_argument("--s", type=int, required=required, help="number of equations (1 < s < r)")
        command.add_argument("--d", type=int, required=required, help="degree bound")

    gen = sub.add_parser("gen", help="emit a random system file on stdout")
    shape_arguments(gen)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--allow-zero", action=argparse.BooleanOptionalAction, default=True,
                     help="sample the full coefficient space (zero polynomial included)")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one strip search on a system file")
    solve.add_argument("--system", required=True, help="path to a system file")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--backend", choices=BACKENDS, default="exhaustive")
    solve.add_argument("--strips", default=None,
                       help='explicit strips "c1,c2;c1,c2" (overrides --seed)')
    solve.add_argument("--hstar", type=int, default=None, help="strip budget (default r-s+1)")
    solve.add_argument("--certify", action="store_true", default=False)
    solve.set_defaults(func=cmd_solve)

    exp = sub.add_parser("experiment", help="Monte Carlo batch; writes CSV + summary")
    shape_arguments(exp)
    exp.add_argument("--trials", type=int, required=True)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--backend", choices=BACKENDS, default="exhaustive")
    exp.add_argument("--certify", action="store_true", default=False)
    exp.add_argument("--hstar", type=int, default=None)
    exp.add_argument("--workers", type=int, default=1)
    exp.add_argument("--out", required=True, help="output directory")
    exp.set_defaults(func=cmd_experiment)

    theory = sub.add_parser("theory", help="print the bound report for a parameter set")
    shape_arguments(theory)
    theory.add_argument("--h", type=int, default=None, help="largest strip index to report")
    theory.add_argument("--omega", type=float, default=3.0)
    theory.set_defaults(func=cmd_theory)

    oracle = sub.add_parser("oracle", help="exact brute-force baselines")
    oracle.add_argument("oracle", choices=tuple(_ORACLE_ARGS))
    shape_arguments(oracle, required=False)
    oracle.add_argument("--strips", default=None, help='strips for sk-exhaustive, "0;1"')
    oracle.add_argument("--system", default=None, help="system file for count-points")
    oracle.add_argument("--strip", default=None, help="strip to specialize for count-points")
    oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())

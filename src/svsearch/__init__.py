"""Rational-point search on vertical strips over finite fields."""

from .errors import CapacityError, DomainError, UsageError
from .ffield import FieldCtx, extension_field, field_for_order, find_irreducible, matrix_rank, prime_field
from .mpoly import MPoly, monomials, rational_roots, resultant_y
from .sampler import RngStream, Strip, SystemSpec, sample_strips, sample_system
from .svs import SolveOutcome, run_svs, verify_solution
from .upoly import upoly_gcd, xq_mod
from .zdsolve import CertResult, ZeroDimQuery, cond_h_certificate, count_zeros, count_zeros_ext, distinct_geometric_points, find_zero

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CertResult",
    "DomainError",
    "FieldCtx",
    "MPoly",
    "RngStream",
    "SolveOutcome",
    "Strip",
    "SystemSpec",
    "UsageError",
    "ZeroDimQuery",
    "cond_h_certificate",
    "count_zeros",
    "count_zeros_ext",
    "distinct_geometric_points",
    "extension_field",
    "field_for_order",
    "find_irreducible",
    "find_zero",
    "matrix_rank",
    "monomials",
    "prime_field",
    "rational_roots",
    "resultant_y",
    "run_svs",
    "sample_strips",
    "sample_system",
    "upoly_gcd",
    "verify_solution",
    "xq_mod",
]

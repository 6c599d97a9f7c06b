"""Structured distance to singularity of a real matrix.

Given a nonsingular A and a linear subspace S of admissible perturbations,
the package computes the smallest ||Delta||_F with Delta in S such that
A + Delta is singular, by Newton iteration on the stacked optimality system
in the kernel vectors (u, v). Structures supported: every entry free,
a fixed sparsity pattern, and an arbitrary orthonormal matrix basis (used
for Sylvester-structured approximate polynomial GCDs). An independent
variable-projection oracle certifies computed solutions.

The package namespace holds what the README uses, the exceptions, and the
result and structure types those return; everything else is imported from
its module (``singdist.solver``, ``singdist.linalg``, ``singdist.mmio``, ...).
"""

from . import gcd, linalg, mmio, oracle, solver, structure
from .errors import (
    AllStartsFailed,
    DimensionMismatchError,
    ExtractionError,
    InputError,
    SingdistError,
    StructureError,
    TripletError,
)
from .structure import BasisStructure, FullStructure, LinearStructure, SparsityPattern
from .solver import ProblemInstance, SolveResult, SolverOptions, solve
from .oracle import CertificationReport, certify_solution
from .gcd import (
    CofactorExtraction,
    GcdResult,
    PolynomialPair,
    SylvesterInstance,
    build_sylvester,
    extract_cofactors,
    gcd_distance,
)

__version__ = "0.1.0"

__all__ = [
    "SingdistError",
    "StructureError",
    "DimensionMismatchError",
    "TripletError",
    "AllStartsFailed",
    "ExtractionError",
    "InputError",
    "LinearStructure",
    "FullStructure",
    "SparsityPattern",
    "BasisStructure",
    "SolverOptions",
    "ProblemInstance",
    "SolveResult",
    "solve",
    "CertificationReport",
    "certify_solution",
    "PolynomialPair",
    "SylvesterInstance",
    "GcdResult",
    "CofactorExtraction",
    "build_sylvester",
    "gcd_distance",
    "extract_cofactors",
]

"""Sparse max-plus equation solving and piecewise-linear convex regression.

The library solves A (max-plus) x = b approximately with a minimum-size
support under an lp error budget (greedy cover with a certified ratio),
constructs minimum-max-absolute-error estimates on the same support, and
applies both to fit convex functions with few affine regions.
"""

from .tropical import (
    ShapeError,
    maxplus_product,
    principal_solution,
    project_on_support,
)
from .solver import (
    FitProblem,
    GreedyPath,
    GreedyState,
    Infeasible,
    ProbeReport,
    SparseSolution,
    brute_force_oracle,
    greedy_sparse_solve,
    pnorm,
    smmae_lift,
    submodularity_probe,
    submodularity_ratio,
)
from .regression import (
    Dataset,
    PwlModel,
    Score,
    SlopeSet,
    build_design_matrix,
    evaluate,
    fit,
    fit_path,
    gradient_slopes,
    grid_slopes,
    score,
)
from .io_formats import ParseError

__version__ = "0.1.0"

__all__ = [
    "ShapeError",
    "maxplus_product",
    "principal_solution",
    "project_on_support",
    "FitProblem",
    "GreedyPath",
    "GreedyState",
    "Infeasible",
    "ProbeReport",
    "SparseSolution",
    "brute_force_oracle",
    "greedy_sparse_solve",
    "pnorm",
    "smmae_lift",
    "submodularity_probe",
    "submodularity_ratio",
    "Dataset",
    "PwlModel",
    "Score",
    "SlopeSet",
    "build_design_matrix",
    "evaluate",
    "fit",
    "fit_path",
    "gradient_slopes",
    "grid_slopes",
    "score",
    "ParseError",
    "__version__",
]

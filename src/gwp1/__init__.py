"""Exact and arbitrary-precision computation of stationary Gromov-Witten
invariants of the complex projective line.

The package computes the 2x2 matrix resolvent of the underlying integrable
lattice by two independent exact routes, assembles k-point generating series
from it, evaluates the analytic counterparts (hypergeometric / Bessel kernels)
at configurable precision, and verifies four asymptotic regimes against exact
or tabulated coefficients.  Every headline quantity is computed by at least
two independent routes that must agree.
"""

from gwp1.ring import (
    Mat2,
    MultiPoly,
    MultiSeries,
    FactoredRatFun,
    bernoulli_number,
    bernoulli_poly,
    rat_from_str,
    rat_to_str,
)
from gwp1.resolvent import (
    ResolventSeries,
    WFormalSeries,
    closed_form_M,
    recursion_resolvent,
    cross_check_routes,
    scalar_difference_residual,
    matrix_difference_residual,
    alpha_from_difference_equation,
    formal_W,
    substitute_shifted,
)
from gwp1.correlators import (
    CorrelatorKey,
    FkSeries,
    f_k_series,
    extract_invariant,
    one_point_series,
    one_point_qseries_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Mat2",
    "MultiPoly",
    "MultiSeries",
    "FactoredRatFun",
    "bernoulli_number",
    "bernoulli_poly",
    "rat_from_str",
    "rat_to_str",
    "ResolventSeries",
    "WFormalSeries",
    "closed_form_M",
    "recursion_resolvent",
    "cross_check_routes",
    "scalar_difference_residual",
    "matrix_difference_residual",
    "alpha_from_difference_equation",
    "formal_W",
    "CorrelatorKey",
    "FkSeries",
    "f_k_series",
    "extract_invariant",
    "one_point_series",
    "one_point_qseries_oracle",
    "substitute_shifted",
    "__version__",
]

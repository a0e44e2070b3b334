"""Exact arithmetic kernel: rationals, multivariate (Laurent) polynomials,
factored rational functions, truncated inverse-power series and 2x2 matrices.
"""

from gwp1.ring.numbers import (
    rat_from_str,
    rat_to_str,
    bernoulli_number,
    bernoulli_poly,
)
from gwp1.ring.poly import MultiPoly
from gwp1.ring.series import MultiSeries
from gwp1.ring.ratfun import FactoredRatFun, lam_eps_factor, diff_factor
from gwp1.ring.mat2 import Mat2

__all__ = [
    "rat_from_str",
    "rat_to_str",
    "bernoulli_number",
    "bernoulli_poly",
    "MultiPoly",
    "MultiSeries",
    "FactoredRatFun",
    "lam_eps_factor",
    "diff_factor",
    "Mat2",
]

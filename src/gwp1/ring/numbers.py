"""Exact rational scalars and the Bernoulli machinery.

The base field is the rationals, realized by :class:`fractions.Fraction`.
Serialization follows the "p/q" contract (q > 0, gcd-reduced); integers are
rendered bare, so ``rat_to_str(Fraction(1)) == "1"``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import permutations
from math import comb, prod

_ZERO = Fraction(0)


def rat_to_str(x: Fraction) -> str:
    """Serialize a rational as "p/q" (reduced, q > 0), or "p" when q == 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact rational."""
    return Fraction(s)


def coset_reps(k: int, first: int = 1):
    """One ordering per cyclic coset of the k labels first, ..., first + k - 1:
    the orderings that keep ``first`` in front."""
    for rest in permutations(range(first + 1, first + k)):
        yield (first,) + rest


def odd_double_factorial(m: int) -> int:
    """(2m-1)!! = 1 * 3 * ... * (2m-1); the empty product is 1."""
    return prod(range(1, 2 * m, 2))


# Memoized Bernoulli numbers (second convention, B_1 = -1/2).  The cache is
# guarded by a lock so concurrent tasks may share it.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2, via the binomial recurrence

        sum_{r=0}^{m} C(m+1, r) B_r = 0   (m >= 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            s = _ZERO
            for r in range(m):
                s += comb(m + 1, r) * _bernoulli_cache[r]
            _bernoulli_cache.append(-s / (m + 1))
        return _bernoulli_cache[n]


def bernoulli_tail(g: int) -> Fraction:
    """(1 - 2^(1-2g)) B_2g / (2g), the z^-2g coefficient (g >= 1) of the
    large-z expansion of psi(1/2 + z) - log z."""
    return (1 - Fraction(2) ** (1 - 2 * g)) * bernoulli_number(2 * g) / (2 * g)


def bernoulli_poly(j: int):
    """Bernoulli polynomial B_j(u), the unique polynomial with

        integral_{v}^{v+1} B_j(u) du = v^j.

    Returned as a :class:`MultiPoly` in the single variable ``u`` with exact
    rational coefficients: B_j(u) = sum_i C(j, i) B_i u^{j-i}.
    """
    from gwp1.ring.poly import MultiPoly

    if j < 0:
        raise ValueError("j must be >= 0")
    terms = {}
    for i in range(j + 1):
        c = comb(j, i) * bernoulli_number(i)
        if c:
            terms[(j - i,)] = c
    return MultiPoly(("u",), terms)

"""Rational functions with factored linear denominators.

Denominators are multisets of monic linear factors of two kinds:

* ``("lin", v, c)``  --  (v + c*eps), c a half-integer rational;
* ``("diff", v, w)`` --  (v - w), v before w in the variable order.

The first kind is the only pole shape surviving in the final small-q
coefficients of the k-point functions; the second occurs in intermediate
cyclic sums and must cancel, which :meth:`FactoredRatFun.reduce` performs by
exact division attempts (no general gcd machinery is used or needed).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable

from gwp1.ring.poly import MultiPoly

EPS = "eps"


def lam_eps_factor(var: str, c) -> tuple:
    """Factor (var + c*eps) with rational c."""
    return ("lin", var, Fraction(c))


def diff_factor(v: str, w: str) -> tuple:
    """Factor (v - w); callers must pass v, w in canonical variable order."""
    return ("diff", v, w)


def factor_poly(factor: tuple, variables, laurent=()) -> MultiPoly:
    kind = factor[0]
    if kind == "lin":
        _, v, c = factor
        terms = {}
        vi = list(variables).index(v)
        e = [0] * len(variables)
        e[vi] = 1
        terms[tuple(e)] = Fraction(1)
        if c:
            ei = list(variables).index(EPS)
            e2 = [0] * len(variables)
            e2[ei] = 1
            terms[tuple(e2)] = Fraction(c)
        return MultiPoly(variables, terms, laurent)
    if kind == "diff":
        _, v, w = factor
        vs = list(variables)
        e1 = [0] * len(vs)
        e1[vs.index(v)] = 1
        e2 = [0] * len(vs)
        e2[vs.index(w)] = 1
        return MultiPoly(variables, {tuple(e1): Fraction(1), tuple(e2): Fraction(-1)}, laurent)
    raise ValueError(f"unknown factor kind {kind!r}")


def _lead_var(factor: tuple) -> str:
    return factor[1]


class FactoredRatFun:
    __slots__ = ("num", "den", "vars", "laurent")

    def __init__(self, num: MultiPoly, den: Counter | Iterable | None = None):
        self.num = num
        self.vars = num.vars
        self.laurent = num.laurent
        if den is None:
            self.den = Counter()
        elif isinstance(den, Counter):
            self.den = Counter({f: m for f, m in den.items() if m})
        else:
            self.den = Counter(den)

    # ----- constructors ------------------------------------------------------
    @classmethod
    def from_const(cls, variables, value, laurent=()):
        return cls(MultiPoly.const(variables, value, laurent))

    @classmethod
    def zero(cls, variables, laurent=()):
        return cls(MultiPoly.zero(variables, laurent))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def one_like(self):
        return FactoredRatFun.from_const(self.vars, 1, self.laurent)

    def one(self):
        return self.one_like()

    # ----- arithmetic -----------------------------------------------------
    def _den_poly(self, den: Counter) -> MultiPoly:
        p = MultiPoly.const(self.vars, 1, self.laurent)
        for f, m in den.items():
            fp = factor_poly(f, self.vars, self.laurent)
            for _ in range(m):
                p = p * fp
        return p

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FactoredRatFun.from_const(self.vars, other, self.laurent)
        common = self.den & other.den
        extra_self = other.den - common
        extra_other = self.den - common
        num = self.num * self._den_poly(extra_self) + other.num * self._den_poly(extra_other)
        return FactoredRatFun(num, self.den | other.den).reduce()

    __radd__ = __add__

    def __neg__(self):
        return FactoredRatFun(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FactoredRatFun.from_const(self.vars, other, self.laurent)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FactoredRatFun(self.num * other, self.den)
        if isinstance(other, MultiPoly):
            other = FactoredRatFun(other)
        return FactoredRatFun(self.num * other.num, self.den + other.den).reduce()

    __rmul__ = __mul__

    def reduce(self) -> "FactoredRatFun":
        """Cancel denominator factors dividing the numerator exactly."""
        if self.num.is_zero():
            return FactoredRatFun(self.num)
        num = self.num
        den = Counter(self.den)
        changed = True
        while changed:
            changed = False
            for f in list(den):
                if den[f] <= 0:
                    del den[f]
                    continue
                fp = factor_poly(f, self.vars, self.laurent)
                q = num.divide_exact(fp, _lead_var(f))
                if q is not None:
                    num = q
                    den[f] -= 1
                    if not den[f]:
                        del den[f]
                    changed = True
        return FactoredRatFun(num, den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FactoredRatFun.from_const(self.vars, other, self.laurent)
        if not isinstance(other, FactoredRatFun):
            return NotImplemented
        # cross-multiplication; no normalization assumptions needed
        common = self.den & other.den
        return self.num * self._den_poly(other.den - common) == other.num * self._den_poly(
            self.den - common
        )

    __hash__ = None

    # ----- queries ----------------------------------------------------------
    def is_polynomial(self) -> bool:
        return not self.den

    def to_poly(self) -> MultiPoly:
        if self.den:
            raise ValueError(f"denominator factors remain: {sorted(self.den)}")
        return self.num

    def eval_numeric(self, ctx, assignment):
        den = self._den_poly(self.den)
        return self.num.eval_numeric(ctx, assignment) / den.eval_numeric(ctx, assignment)

    def to_json(self) -> dict:
        from gwp1.ring.numbers import rat_to_str

        fac = []
        for f, m in sorted(self.den.items()):
            if f[0] == "lin":
                fac.append({"kind": "lin", "var": f[1], "c": rat_to_str(f[2]), "mult": m})
            else:
                fac.append({"kind": "diff", "vars": [f[1], f[2]], "mult": m})
        return {
            "vars": list(self.vars),
            "numerator": self.num.to_json(),
            "denominator_factors": fac,
        }

    def __repr__(self):
        if not self.den:
            return repr(self.num)
        fac = " * ".join(
            f"({factor_poly(f, self.vars, self.laurent)!r})^{m}" if m > 1
            else f"({factor_poly(f, self.vars, self.laurent)!r})"
            for f, m in sorted(self.den.items())
        )
        return f"({self.num!r}) / [{fac}]"

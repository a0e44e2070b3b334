"""Rational functions with factored linear denominators.

Denominators are multisets of monic linear factors of two kinds:

* ``("lin", v, c)``  --  (v + c*eps), c a half-integer rational;
* ``("diff", v, w)`` --  (v - w), v before w in the variable order.

The first kind is the only pole shape surviving in the final small-q
coefficients of the k-point functions; the second occurs in intermediate
cyclic sums and must cancel.  Sums and products keep every factor they are
given; :meth:`FactoredRatFun.reduce` cancels them by exact division attempts
(no general gcd machinery is used or needed), and is called once, where a
finished value is read.  :meth:`FactoredRatFun.expand` is the one expansion
of a function with only ``lin`` factors, in either region (large eps or
large lam).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb
from typing import Iterable

from gwp1.ring.poly import MultiPoly, _int_product

EPS = "eps"


def lam_eps_factor(var: str, c) -> tuple:
    """Factor (var + c*eps) with rational c."""
    return ("lin", var, Fraction(c))


def diff_factor(v: str, w: str) -> tuple:
    """Factor (v - w); callers must pass v, w in canonical variable order."""
    return ("diff", v, w)


def factor_poly(factor: tuple, variables, laurent=()) -> MultiPoly:
    kind, v, w = factor
    lead = MultiPoly.variable(variables, v, laurent)
    if kind == "lin":
        return lead + MultiPoly.variable(variables, EPS, laurent) * w
    if kind == "diff":
        return lead - MultiPoly.variable(variables, w, laurent)
    raise ValueError(f"unknown factor kind {kind!r}")


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
        return FactoredRatFun(num, self.den | other.den)

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
        return FactoredRatFun(self.num * other.num, self.den + other.den)

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
                q = num.divide_exact(fp, f[1])
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

    def expand(self, large, order: int) -> MultiPoly:
        """This function expanded where the variables in ``large`` are big,
        exact through the inverse index ``order`` in each of them.  Every
        factor must be (v + c*eps) with exactly one of v, eps in ``large``:

            (big + small)^-m = big^-m sum_j C(m+j-1, j) (-small/big)^j.

        The result lives over the same variables; its slots in ``large`` hold
        inverse indices (t stands for var^-t) and the others hold exponents.
        A factor raises only the index of its big variable, so each product
        is capped per slot at ``order`` minus the raise still to come there.
        """
        large = frozenset(large)
        inverse = [v in large for v in self.vars]
        ei = self.vars.index(EPS)
        steps = []  # (big slot, small slot, big coefficient, small coefficient, m)
        still = [0] * len(self.vars)  # per slot, the raise of the steps not yet taken
        for f, mult in self.den.items():
            if f[0] != "lin":
                raise AssertionError(f"expansion of an unresolved pole {f}")
            _, v, c = f
            vi = self.vars.index(v)
            if inverse[vi] == inverse[ei]:
                raise ValueError(f"factor {f}: exactly one of {v}, {EPS} must be large")
            steps.append((vi, ei, 1, c, mult) if inverse[vi] else (ei, vi, c, 1, mult))
            still[steps[-1][0]] += mult
        acc = MultiPoly.from_ints(
            self.vars, {tuple(-x if inv else x for x, inv in zip(e, inverse)): n
                        for e, n in self.num.num.items()}, self.num.den, self.laurent | large)
        for big, small, cb, cs, mult in steps:
            if not acc:
                break
            still[big] -= mult
            lim = tuple(order - r if inv else float("inf") for r, inv in zip(still, inverse))
            terms = {}
            for j in range(lim[big] - mult - min(e[big] for e in acc.num) + 1):
                e = [0] * len(self.vars)
                e[big], e[small] = mult + j, j
                terms[tuple(e)] = comb(mult + j - 1, j) * (-cs) ** j / cb ** (mult + j)
            series = MultiPoly(self.vars, terms, acc.laurent)
            acc = acc._wrap(_int_product(acc.num, series.num, lim), acc.den * series.den)
        return acc

    # ----- queries ----------------------------------------------------------
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

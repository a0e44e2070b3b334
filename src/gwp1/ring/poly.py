"""Multivariate polynomials over the rationals.

Exponent vectors are dense tuples of ints, one per declared variable.
Exponents are non-negative except for variables declared Laurent at
construction (needed for coefficients that are Laurent polynomials in the
string-coupling variable).  Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, le
from typing import Iterable, Mapping

_ZERO = Fraction(0)


class MultiPoly:
    __slots__ = ("vars", "terms", "laurent")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[tuple, Fraction] | None = None,
        laurent: Iterable[str] = (),
    ):
        self.vars = tuple(variables)
        self.laurent = frozenset(laurent)
        clean: dict[tuple, Fraction] = {}
        if terms:
            nv = len(self.vars)
            for exps, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                exps = tuple(exps)
                if len(exps) != nv:
                    raise ValueError("exponent vector length mismatch")
                for name, e in zip(self.vars, exps):
                    if e < 0 and name not in self.laurent:
                        raise ValueError(f"negative exponent for non-Laurent variable {name}")
                clean[exps] = clean.get(exps, _ZERO) + c
                if not clean[exps]:
                    del clean[exps]
        self.terms = clean

    # ----- constructors -------------------------------------------------
    @classmethod
    def zero(cls, variables, laurent=()):
        return cls(variables, {}, laurent)

    @classmethod
    def const(cls, variables, value, laurent=()):
        value = Fraction(value)
        v = tuple(variables)
        return cls(v, {(0,) * len(v): value} if value else {}, laurent)

    @classmethod
    def variable(cls, variables, name, laurent=(), power: int = 1):
        v = tuple(variables)
        exps = [0] * len(v)
        exps[v.index(name)] = power
        return cls(v, {tuple(exps): Fraction(1)}, laurent)

    def one(self):
        return MultiPoly.const(self.vars, 1, self.laurent)

    # ----- helpers ------------------------------------------------------
    def _compat(self, other: "MultiPoly"):
        if self.vars != other.vars or self.laurent != other.laurent:
            raise ValueError(
                f"polynomial variable sets differ: {self.vars}/{self.laurent} "
                f"vs {other.vars}/{other.laurent}"
            )

    def _wrap(self, terms):
        p = MultiPoly.__new__(MultiPoly)
        p.vars = self.vars
        p.laurent = self.laurent
        p.terms = terms
        return p

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # ----- ring operations ----------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other, self.laurent)
        self._compat(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, _ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return self._wrap(terms)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other, self.laurent)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            if not other:
                return self._wrap({})
            return self._wrap({e: c * other for e, c in self.terms.items()})
        self._compat(other)
        terms: dict[tuple, Fraction] = {}
        if len(self.terms) < len(other.terms):
            a, b = self.terms, other.terms
        else:
            a, b = other.terms, self.terms
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = terms.get(e, _ZERO) + ca * cb
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return self._wrap(terms)

    __rmul__ = __mul__

    def mul_truncated(self, other: "MultiPoly", caps) -> "MultiPoly":
        """The product with every term above ``caps`` dropped, without forming
        those terms.  ``caps`` holds one maximum exponent per variable, or
        None where that variable is not capped."""
        self._compat(other)
        lim = tuple(c if c is not None else float("inf") for c in caps)
        if len(lim) != len(self.vars):
            raise ValueError("one cap per variable required")
        terms: dict[tuple, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(map(add, ea, eb))
                if not all(map(le, e, lim)):
                    continue
                s = terms.get(e, _ZERO) + ca * cb
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return self._wrap(terms)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other, self.laurent)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None

    # ----- queries -------------------------------------------------------
    def degree(self, name: str) -> int:
        """Largest exponent of ``name``; -1 (or floor) when zero poly."""
        i = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient_of(self, name: str, power: int) -> "MultiPoly":
        """Coefficient of name**power, as a polynomial with the exponent zeroed."""
        i = self.vars.index(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == power:
                e2 = list(e)
                e2[i] = 0
                terms[tuple(e2)] = c
        return self._wrap(terms)

    # ----- substitutions --------------------------------------------------
    def subs_shift(self, name: str, delta) -> "MultiPoly":
        """Substitute name -> name + delta (delta rational), by binomials."""
        delta = Fraction(delta)
        if not delta:
            return self
        i = self.vars.index(name)
        terms: dict[tuple, Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k < 0:
                raise ValueError("shift of a Laurent exponent is not supported")
            for m in range(k + 1):
                e2 = list(e)
                e2[i] = m
                coeff = c * comb(k, m) * delta ** (k - m)
                if coeff:
                    t = tuple(e2)
                    s = terms.get(t, _ZERO) + coeff
                    if s:
                        terms[t] = s
                    else:
                        del terms[t]
        return self._wrap(terms)

    def subs_poly(self, name: str, value: "MultiPoly") -> "MultiPoly":
        """Substitute a polynomial for a variable.

        The remaining variables must all exist in ``value``'s ring; the result
        lives there.
        """
        i = self.vars.index(name)
        powers: dict[int, MultiPoly] = {0: value.one()}

        def pw(k: int) -> MultiPoly:
            if k not in powers:
                powers[k] = pw(k - 1) * value
            return powers[k]

        tgt = {v: value.vars.index(v) for v in self.vars if v != name}
        result = MultiPoly.zero(value.vars, value.laurent)
        for e, c in self.terms.items():
            k = e[i]
            if k < 0:
                raise ValueError("polynomial substitution into a Laurent exponent")
            ev = [0] * len(value.vars)
            for j, (v, x) in enumerate(zip(self.vars, e)):
                if j != i and x:
                    ev[tgt[v]] = x
            mono = MultiPoly(value.vars, {tuple(ev): c}, value.laurent)
            result = result + mono * pw(k)
        return result

    # ----- exact division --------------------------------------------------
    def divide_exact(self, divisor: "MultiPoly", lead_var: str) -> "MultiPoly | None":
        """Exact division by a divisor linear and monic in ``lead_var``.

        Returns the quotient, or None when the division leaves a remainder.
        """
        self._compat(divisor)
        i = self.vars.index(lead_var)
        if divisor.degree(lead_var) != 1:
            raise ValueError("divisor must have degree 1 in the lead variable")
        lead = divisor.coefficient_of(lead_var, 1)
        if lead != lead.one():
            raise ValueError("divisor must be monic in the lead variable")
        rest = divisor.coefficient_of(lead_var, 0)  # divisor = lead_var + rest
        quot = MultiPoly.zero(self.vars, self.laurent)
        rem = self
        while rem.terms:
            d = rem.degree(lead_var)
            if d < 1:
                return None
            top = rem.coefficient_of(lead_var, d)
            shift = MultiPoly.variable(self.vars, lead_var, self.laurent, power=d - 1)
            t = top * shift
            quot = quot + t
            rem = rem - t * divisor
        return quot

    # ----- evaluation ------------------------------------------------------
    def eval_numeric(self, ctx, assignment: Mapping[str, object]):
        """Evaluate at numeric values using an mpmath-like context."""
        total = ctx.mpf(0)
        vals = [assignment[v] for v in self.vars]
        for e, c in self.terms.items():
            term = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
            for x, k in zip(vals, e):
                if k:
                    term = term * x**k
            total = total + term
        return total

    # ----- serialization -----------------------------------------------------
    def to_json(self) -> list:
        from gwp1.ring.numbers import rat_to_str

        return [
            {"exponents": list(e), "coeff": rat_to_str(c)}
            for e, c in sorted(self.terms.items())
        ]

    @classmethod
    def from_json(cls, variables, data, laurent=()):
        from gwp1.ring.numbers import rat_from_str

        return cls(
            variables,
            {tuple(t["exponents"]): rat_from_str(t["coeff"]) for t in data},
            laurent,
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k
            )
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

"""Multivariate polynomials over the rationals.

Exponent vectors are dense tuples of ints, one per declared variable.
Exponents are non-negative except for variables declared Laurent at
construction (needed for coefficients that are Laurent polynomials in the
string-coupling variable).  A polynomial is stored as nonzero integer
numerators ``num`` over one denominator ``den`` > 0 in lowest terms
(gcd(den, *num.values()) == 1), so equal polynomials store equal data.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, le
from typing import Iterable, Mapping


def _int_product(a, b, lim=None):
    """The numerators of the product of two numerator dicts, ``a`` in the
    outer loop, summed per exponent vector.  With ``lim`` (one bound per
    variable), terms above it are never formed."""
    acc: dict[tuple, int] = {}
    b = b.items()
    for ea, na in a.items():
        for eb, nb in b:
            e = tuple(map(add, ea, eb))
            if lim is not None and not all(map(le, e, lim)):
                continue
            s = acc.get(e, 0) + na * nb
            if s:
                acc[e] = s
            else:
                del acc[e]
    return acc


def _int_add_into(acc, terms, scale=1):
    """acc += scale * terms on numerator dicts, in place; zero sums are dropped."""
    for e, n in terms.items():
        s = acc.get(e, 0) + (n * scale if scale != 1 else n)
        if s:
            acc[e] = s
        else:
            del acc[e]


class MultiPoly:
    __slots__ = ("vars", "num", "den", "laurent")

    def __init__(
        self,
        variables: Iterable[str],
        terms: Mapping[tuple, Fraction] | None = None,
        laurent: Iterable[str] = (),
    ):
        self.vars = tuple(variables)
        self.laurent = frozenset(laurent)
        clean: dict[tuple, Fraction] = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if not c:
                continue
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent vector length mismatch")
            for name, e in zip(self.vars, exps):
                if e < 0 and name not in self.laurent:
                    raise ValueError(f"negative exponent for non-Laurent variable {name}")
            clean[exps] = clean.get(exps, 0) + c
        clean = {e: c for e, c in clean.items() if c}
        # over the lcm of reduced denominators the form is already canonical
        self.den = lcm(*{c.denominator for c in clean.values()})
        self.num = {e: c.numerator * (self.den // c.denominator) for e, c in clean.items()}

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
        return cls(v, {tuple(exps): 1}, laurent)

    @classmethod
    def from_ints(cls, variables, num, den=1, laurent=()):
        """The polynomial with coefficients num[e]/den, from nonzero integer
        numerators over ``den`` > 0."""
        return cls.zero(variables, laurent)._wrap(num, den)

    def one(self):
        return MultiPoly.const(self.vars, 1, self.laurent)

    # ----- helpers ------------------------------------------------------
    def _compat(self, other: "MultiPoly"):
        if self.vars != other.vars or self.laurent != other.laurent:
            raise ValueError(
                f"polynomial variable sets differ: {self.vars}/{self.laurent} "
                f"vs {other.vars}/{other.laurent}"
            )

    def _wrap(self, num, den=1):
        """A polynomial of this ring with coefficients num[e]/den, brought to
        lowest terms."""
        g = gcd(den, *num.values()) if den != 1 else 1
        if g != 1:
            num = {e: n // g for e, n in num.items()}
            den //= g
        p = MultiPoly.__new__(MultiPoly)
        p.vars, p.laurent, p.num, p.den = self.vars, self.laurent, num, den
        return p

    @property
    def terms(self) -> dict[tuple, Fraction]:
        """The coefficients as a new dict, exponents -> Fraction."""
        den = self.den
        return {e: Fraction(n, den) for e, n in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    # ----- ring operations ----------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other, self.laurent)
        self._compat(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        num = {e: n * fa for e, n in self.num.items()} if fa != 1 else dict(self.num)
        _int_add_into(num, other.num, fb)
        return self._wrap(num, den)

    __radd__ = __add__

    def __neg__(self):
        p = self._wrap({e: -n for e, n in self.num.items()})
        p.den = self.den  # already in lowest terms
        return p

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
            p = other.numerator
            return self._wrap({e: n * p for e, n in self.num.items()},
                              self.den * other.denominator)
        self._compat(other)
        if len(self.num) < len(other.num):
            num = _int_product(self.num, other.num)
        else:
            num = _int_product(other.num, self.num)
        return self._wrap(num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = self.one(), self
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
        return (self.vars == other.vars and self.laurent == other.laurent
                and self.den == other.den and self.num == other.num)

    __hash__ = None

    # ----- queries -------------------------------------------------------
    def degree(self, name: str) -> int:
        """Largest exponent of ``name``; -1 (or floor) when zero poly."""
        i = self.vars.index(name)
        if not self.num:
            return -1
        return max(e[i] for e in self.num)

    # ----- substitutions --------------------------------------------------
    def subs_shift(self, name: str, delta) -> "MultiPoly":
        """Substitute name -> name + delta (delta rational) by an integer
        Taylor shift: with delta = p/q and ``top`` the largest degree in
        name, n*name^k sends n*C(k, m)*p^(k-m)*q^(top-k+m) to name^m, and
        the sum is divided once by den*q^top."""
        delta = Fraction(delta)
        if not delta:
            return self
        i = self.vars.index(name)
        top = max((e[i] for e in self.num), default=0)
        pw_p = [delta.numerator**j for j in range(top + 1)]
        pw_q = [delta.denominator**j for j in range(top + 1)]
        terms: dict[tuple, int] = {}
        for e, n in self.num.items():
            k = e[i]
            if k < 0:
                raise ValueError("shift of a Laurent exponent is not supported")
            head, tail = e[:i], e[i + 1:]
            for m in range(k + 1):
                t = head + (m,) + tail
                s = terms.get(t, 0) + n * comb(k, m) * pw_p[k - m] * pw_q[top - k + m]
                if s:
                    terms[t] = s
                else:
                    del terms[t]
        return self._wrap(terms, self.den * pw_q[top])

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
        for e, n in self.num.items():
            k = e[i]
            if k < 0:
                raise ValueError("polynomial substitution into a Laurent exponent")
            ev = [0] * len(value.vars)
            for j, (v, x) in enumerate(zip(self.vars, e)):
                if j != i and x:
                    ev[tgt[v]] = x
            result = result + value._wrap({tuple(ev): n}) * pw(k)
        return result * Fraction(1, self.den)

    # ----- exact division --------------------------------------------------
    def divide_exact(self, divisor: "MultiPoly", lead_var: str) -> "MultiPoly | None":
        """Exact division by a divisor linear and monic in ``lead_var``.

        Synthetic division: with self = sum_d P_d v^d and divisor v + R, the
        quotient digits run Q_(d-1) = P_d - R*Q_d from the top degree down,
        kept as integers over L*r^(top-d), L and r the denominators of self
        and the divisor.  Returns the quotient, or None when the division
        leaves a remainder.
        """
        self._compat(divisor)
        i = self.vars.index(lead_var)
        unit = tuple(int(j == i) for j in range(len(self.vars)))
        r = divisor.den
        rest = [(e, n) for e, n in divisor.num.items() if e[i] == 0]
        if unit not in divisor.num or len(rest) + 1 != len(divisor.num):
            raise ValueError("divisor must have degree 1 in the lead variable")
        if divisor.num[unit] != r:
            raise ValueError("divisor must be monic in the lead variable")
        digits: dict[int, dict[tuple, int]] = {}
        for e, n in self.num.items():
            if e[i] < 0:
                return None
            digits.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = n
        top = max(digits, default=0)
        if top < 1:
            return None if digits else self
        quot = []
        q: dict[tuple, int] = {}
        for deg in range(top, -1, -1):
            scale = r ** (top - deg)
            nxt = {e: n * scale for e, n in digits.get(deg, {}).items()}
            for eq, nq in q.items():
                for er, nr in rest:
                    e = tuple(map(add, eq, er))
                    s = nxt.get(e, 0) - nq * nr
                    if s:
                        nxt[e] = s
                    else:
                        del nxt[e]
            q = nxt
            quot.append((deg - 1, q))
        if q:  # the remainder, left at degree 0
            return None
        # digit k sits over den*r^(top-1-k); bring all to den*r^(top-1)
        return self._wrap({e[:i] + (k,) + e[i + 1:]: n * r**k
                           for k, qk in quot[:-1] for e, n in qk.items()},
                          self.den * r ** (top - 1))

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

        return [{"exponents": list(e), "coeff": rat_to_str(c)}
                for e, c in sorted(self.terms.items())]

    def __repr__(self):
        if not self.num:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k)
            if mono:
                parts.append(f"{c}*{mono}" if c != 1 else mono)
            else:
                parts.append(str(c))
        return " + ".join(parts)

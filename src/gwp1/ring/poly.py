"""Multivariate polynomials over the rationals.

Exponent vectors are dense tuples of ints, one per declared variable.
Exponents are non-negative except for variables declared Laurent at
construction (needed for coefficients that are Laurent polynomials in the
string-coupling variable).  Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, le
from typing import Iterable, Mapping

_ZERO = Fraction(0)


def _scaled(terms):
    """``terms`` as integer numerators over the lcm ``d`` of their
    denominators: ([(exponents, numerator), ...], d)."""
    # a set, not a generator: unpacking a generator into the arguments kept
    # about 1.2 MB more memory allocated over a pass of invariant extractions
    d = lcm(*{c.denominator for c in terms.values()})
    return [(e, c.numerator * (d // c.denominator)) for e, c in terms.items()], d


def _int_product(ta, tb, lim=None):
    """The product of two term dicts, ``ta`` in the outer loop.  Integer
    numerators are multiplied and summed per exponent vector, and divided
    once by the two common denominators.  With ``lim`` (one bound per
    variable), terms above it are never formed."""
    a, da = _scaled(ta)
    b, db = _scaled(tb)
    acc: dict[tuple, int] = {}
    for ea, na in a:
        for eb, nb in b:
            e = tuple(map(add, ea, eb))
            if lim is not None and not all(map(le, e, lim)):
                continue
            s = acc.get(e, 0) + na * nb
            if s:
                acc[e] = s
            else:
                del acc[e]
    den = da * db
    return {e: Fraction(n, den) for e, n in acc.items()}


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
        if len(self.terms) < len(other.terms):
            return self._wrap(_int_product(self.terms, other.terms))
        return self._wrap(_int_product(other.terms, self.terms))

    __rmul__ = __mul__

    def mul_truncated(self, other: "MultiPoly", caps) -> "MultiPoly":
        """The product with every term above ``caps`` dropped, without forming
        those terms.  ``caps`` holds one maximum exponent per variable, or
        None where that variable is not capped."""
        self._compat(other)
        lim = tuple(c if c is not None else float("inf") for c in caps)
        if len(lim) != len(self.vars):
            raise ValueError("one cap per variable required")
        return self._wrap(_int_product(self.terms, other.terms, lim))

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

    # ----- substitutions --------------------------------------------------
    def subs_shift(self, name: str, delta) -> "MultiPoly":
        """Substitute name -> name + delta (delta rational) by an integer
        Taylor shift: with delta = p/q and ``top`` the largest degree in
        name, c*name^k sends c*C(k, m)*p^(k-m)*q^(top-k+m) to name^m, and
        the sum is divided once by q^top."""
        delta = Fraction(delta)
        if not delta:
            return self
        i = self.vars.index(name)
        num, d = _scaled(self.terms)
        top = max((e[i] for e, _ in num), default=0)
        pw_p = [delta.numerator**j for j in range(top + 1)]
        pw_q = [delta.denominator**j for j in range(top + 1)]
        terms: dict[tuple, int] = {}
        for e, n in num:
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
        den = d * pw_q[top]
        return self._wrap({e: Fraction(n, den) for e, n in terms.items()})

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

        Synthetic division: with self = sum_d P_d v^d and divisor v + R, the
        quotient digits run Q_(d-1) = P_d - R*Q_d from the top degree down,
        kept as integers over L*r^(top-d), L and r the common denominators
        of self and R.  Returns the quotient, or None when the division
        leaves a remainder.
        """
        self._compat(divisor)
        i = self.vars.index(lead_var)
        unit = tuple(int(j == i) for j in range(len(self.vars)))
        rest = {e: c for e, c in divisor.terms.items() if e[i] == 0}
        if unit not in divisor.terms or len(rest) + 1 != len(divisor.terms):
            raise ValueError("divisor must have degree 1 in the lead variable")
        if divisor.terms[unit] != 1:
            raise ValueError("divisor must be monic in the lead variable")
        rest, r = _scaled(rest)
        num, d = _scaled(self.terms)
        digits: dict[int, dict[tuple, int]] = {}
        for e, n in num:
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
            quot.append((deg - 1, d * scale, q))
        if q:  # the remainder, left at degree 0
            return None
        return self._wrap({e[:i] + (k,) + e[i + 1:]: Fraction(n, den)
                           for k, den, qk in quot[:-1] for e, n in qk.items()})

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

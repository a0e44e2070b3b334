"""Truncated Laurent series in one or several inverse variables.

A ``MultiSeries`` stores coefficients indexed by the powers of the declared
*inverse* variables: index ``m`` at variable ``z`` means the term ``z**-m``.
Indices may dip below zero down to a per-variable floor (finitely many
positive powers of ``z``), which covers both the ``1/(l1-l2)**2`` subtraction
in the two-point function and positive powers of the lattice spacing.

Each variable carries a truncation order: every true term with index <= order
(in that variable) is present and exact; nothing is claimed past it.  Ring
operations propagate the minimum valid order conservatively, so exactness
metadata can be asserted at extraction time rather than hoped for.

Coefficient rings are declared per series ("ring tag"); operations on series
with different tags raise instead of coercing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Mapping

from gwp1.ring.poly import MultiPoly


class RingTagMismatch(TypeError):
    pass


def _is_fraction_like(x):
    return isinstance(x, (int, Fraction))


class MultiSeries:
    __slots__ = ("vars", "orders", "floors", "terms", "ring")

    def __init__(
        self,
        variables: Iterable[str],
        orders: Iterable[int],
        terms: Mapping[tuple, object] | None = None,
        floors: Iterable[int] | None = None,
        ring: str = "QQ",
    ):
        self.vars = tuple(variables)
        self.orders = tuple(int(o) for o in orders)
        if len(self.orders) != len(self.vars):
            raise ValueError("one truncation order per variable required")
        self.floors = (
            tuple(int(f) for f in floors) if floors is not None else (0,) * len(self.vars)
        )
        if len(self.floors) != len(self.vars):
            raise ValueError("one floor per variable required")
        self.ring = ring
        clean: dict[tuple, object] = {}
        if terms:
            for idx, c in terms.items():
                idx = tuple(idx)
                if len(idx) != len(self.vars):
                    raise ValueError("index length mismatch")
                if self._inside(idx) and not _coeff_is_zero(c):
                    clean[idx] = c
        self.terms = clean

    def _inside(self, idx) -> bool:
        return all(f <= m <= o for m, o, f in zip(idx, self.orders, self.floors))

    # ----- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, variables, orders, floors=None, ring="QQ"):
        return cls(variables, orders, {}, floors, ring)

    @classmethod
    def const(cls, variables, orders, value, floors=None, ring="QQ"):
        v = tuple(variables)
        return cls(v, orders, {(0,) * len(v): value}, floors, ring)

    def _wrap(self, orders, floors, terms):
        s = MultiSeries.__new__(MultiSeries)
        s.vars = self.vars
        s.orders = tuple(orders)
        s.floors = tuple(floors)
        s.ring = self.ring
        s.terms = {
            i: c
            for i, c in terms.items()
            if all(f <= m <= o for m, o, f in zip(i, s.orders, s.floors))
            and not _coeff_is_zero(c)
        }
        return s

    def _compat(self, other: "MultiSeries"):
        if self.vars != other.vars:
            raise ValueError(f"series variable sets differ: {self.vars} vs {other.vars}")
        if self.ring != other.ring:
            raise RingTagMismatch(
                f"coefficient rings differ: {self.ring!r} vs {other.ring!r}"
            )

    # ----- ring operations ----------------------------------------------------
    def __add__(self, other):
        self._compat(other)
        orders = tuple(min(a, b) for a, b in zip(self.orders, other.orders))
        floors = tuple(min(a, b) for a, b in zip(self.floors, other.floors))
        terms = dict(self.terms)
        for i, c in other.terms.items():
            if i in terms:
                s = terms[i] + c
                if _coeff_is_zero(s):
                    del terms[i]
                else:
                    terms[i] = s
            else:
                terms[i] = c
        return self._wrap(orders, floors, terms)

    def __neg__(self):
        return self._wrap(self.orders, self.floors, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if _is_fraction_like(other):
            return self.scale(other)
        self._compat(other)
        floors = tuple(a + b for a, b in zip(self.floors, other.floors))
        orders = tuple(
            min(oa + fb, ob + fa)
            for oa, ob, fa, fb in zip(self.orders, other.orders, self.floors, other.floors)
        )
        terms: dict[tuple, object] = {}
        box = list(zip(orders, floors))
        for ia, ca in self.terms.items():
            for ib, cb in other.terms.items():
                idx = tuple(x + y for x, y in zip(ia, ib))
                if not all(f <= m <= o for m, (o, f) in zip(idx, box)):
                    continue
                p = ca * cb
                if idx in terms:
                    s = terms[idx] + p
                    if _coeff_is_zero(s):
                        del terms[idx]
                    else:
                        terms[idx] = s
                elif not _coeff_is_zero(p):
                    terms[idx] = p
        return self._wrap(orders, floors, terms)

    def scale(self, factor):
        """Multiply every coefficient by a scalar of the coefficient ring."""
        if _coeff_is_zero(factor):
            return self._wrap(self.orders, self.floors, {})
        return self._wrap(
            self.orders, self.floors, {i: c * factor for i, c in self.terms.items()}
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative series power; use inverse() first")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            one = _ring_one(self.ring, next(iter(self.terms.values()), None))
            floors = tuple(min(f, 0) for f in self.floors)
            return MultiSeries.const(self.vars, self.orders, one, floors, self.ring)
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.ring == other.ring
            and self.terms == other.terms
        )

    __hash__ = None

    # ----- queries ----------------------------------------------------------
    def coefficient_or(self, idx, default):
        idx = tuple(idx)
        for m, o in zip(idx, self.orders):
            if m > o:
                raise IndexError(f"index {idx} exceeds truncation orders {self.orders}")
        return self.terms.get(idx, default)

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, orders, floors=None) -> "MultiSeries":
        orders = tuple(orders)
        floors = self.floors if floors is None else tuple(floors)
        if any(o > so for o, so in zip(orders, self.orders)):
            raise ValueError("cannot raise a truncation order after the fact")
        return self._wrap(orders, floors, dict(self.terms))

    def map_coefficients(self, fn: Callable, ring: str | None = None) -> "MultiSeries":
        s = self._wrap(self.orders, self.floors, {})
        if ring is not None:
            s.ring = ring
        terms = {}
        for i, c in self.terms.items():
            v = fn(c)
            if not _coeff_is_zero(v):
                terms[i] = v
        s.terms = terms
        return s

    # ----- single-variable conveniences -----------------------------------
    def shift(self, name: str, c) -> "MultiSeries":
        """Re-expand after substituting z -> z + c in the direct variable z:
        each z**-k becomes :func:`inverse_power` (z + c)**-k.  Truncation
        orders are preserved: the unknown tail O(z**-(N+1)) only feeds
        indices beyond N.  Positive powers of z (negative indices) are not
        supported.
        """
        c = Fraction(c)
        if not c:
            return self
        j = self.vars.index(name)
        order = self.orders[j]
        terms: dict[tuple, object] = {}
        for idx, coeff in self.terms.items():
            if idx[j] < 0:
                raise ValueError(f"shift of the positive power {name}**{-idx[j]}")
            for m, v in inverse_power(name, idx[j], -c, order, coeff, self.ring).terms.items():
                i2 = idx[:j] + m + idx[j + 1:]
                terms[i2] = terms[i2] + v if i2 in terms else v
        return self._wrap(self.orders, self.floors, terms)

    def mul_monomial(self, name: str, power: int, coeff=Fraction(1)) -> "MultiSeries":
        """Multiply by coeff * name**power (power in the direct variable).

        Multiplying by z (power=+1) lowers the truncation order by one and
        the floor by one; by 1/z raises both.
        """
        j = self.vars.index(name)
        orders = list(self.orders)
        floors = list(self.floors)
        orders[j] -= power
        floors[j] -= power
        terms = {}
        for idx, c in self.terms.items():
            i2 = list(idx)
            i2[j] -= power
            v = c * coeff
            if not _coeff_is_zero(v):
                terms[tuple(i2)] = v
        return self._wrap(orders, floors, terms)

    def inverse(self) -> "MultiSeries":
        """Inverse of a series with invertible constant term.

        Requires the constant-index coefficient to be a nonzero rational and
        all other terms to have positive index in at least one variable.
        """
        zero_idx = (0,) * len(self.vars)
        c0 = self.terms.get(zero_idx)
        if c0 is None or not _is_fraction_like(c0):
            raise ValueError("inverse requires a nonzero rational constant term")
        c0 = Fraction(c0)
        rest = dict(self.terms)
        del rest[zero_idx]
        for idx in rest:
            if any(m < 0 for m in idx):
                raise ValueError("inverse requires a pure inverse-power remainder")
        v = self._wrap(self.orders, self.floors, rest).scale(Fraction(1) / c0)
        # 1/(c0 (1 + v)) = (1/c0) sum (-v)^j, nilpotent past the total order
        total = sum(o for o in self.orders) + 1
        acc = MultiSeries.const(self.vars, self.orders, Fraction(1), self.floors, self.ring)
        term = acc
        for _ in range(total):
            term = term * (-v)
            if term.is_zero():
                break
            acc = acc + term
        return acc.scale(Fraction(1) / c0)

    # ----- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        from gwp1.ring.numbers import rat_to_str

        def enc(c):
            if _is_fraction_like(c):
                return rat_to_str(Fraction(c))
            return c.to_json()

        return {
            "vars": list(self.vars),
            "orders": list(self.orders),
            "floors": list(self.floors),
            "ring": self.ring,
            "terms": [
                {"powers": list(i), "coeff": enc(c)} for i, c in sorted(self.terms.items())
            ],
        }

    def __repr__(self):
        n = len(self.terms)
        return (
            f"MultiSeries(vars={self.vars}, orders={self.orders}, "
            f"floors={self.floors}, ring={self.ring!r}, {n} terms)"
        )


def inverse_power(var: str, t: int, a, order: int, one, ring: str) -> MultiSeries:
    """one * (var - a)**-t as a series in 1/var, exact through var**-order:

        sum_m one * C(t+m-1, m) * a^m * var^-(t+m),   floor t.

    ``a`` and ``one`` belong to the coefficient ring; ``one`` may be any
    scale.  At t = 0 the series is the constant ``one``.
    """
    terms = {}
    coeff = one
    for m in range(order - t + 1):
        if m:
            coeff = coeff * (a * Fraction(t + m - 1, m))
        terms[(t + m,)] = coeff
    return MultiSeries((var,), (order,), terms, floors=(t,), ring=ring)


def _coeff_is_zero(c) -> bool:
    if isinstance(c, (int, Fraction)):
        return not c
    z = getattr(c, "is_zero", None)
    if z is not None:
        return z()
    return not c


def _ring_one(ring: str, sample=None):
    """The unit of the coefficient ring: that of ``sample`` when one is
    given, else read from the tag, QQ or QQ[v,w~] (``~`` marks a Laurent
    variable)."""
    if sample is not None:
        return Fraction(1) if isinstance(sample, (int, Fraction)) else sample.one()
    if ring == "QQ":
        return Fraction(1)
    if not (ring.startswith("QQ[") and ring.endswith("]")):
        raise ValueError(f"the tag {ring!r} does not name the unit of its ring")
    names = ring[3:-1].split(",")
    laurent = [v[:-1] for v in names if v.endswith("~")]
    return MultiPoly.const([v.rstrip("~") for v in names], 1, laurent)

"""Small expression-tree schema for the regime coefficient tables.

Nodes are dicts: {"op": ..., "args": [...]} plus per-op payload:

    {"op": "num",  "value": "p/q"}
    {"op": "var",  "name": "lam1" | "q" | "eps" | "zeta" | "pi" | "S1" | ...}
    {"op": "add" | "mul", "args": [...]}            (n-ary)
    {"op": "neg" | "sqrt" | "log" | "sin" | "cos", "args": [x]}
    {"op": "div", "args": [num, den]}
    {"op": "pow", "args": [x], "value": "p" or "p/2"}   (rational exponent)

This is the one module that walks trees.  A single fold serves three
evaluators, each given a table of operations: a numeric one over an mpmath
context, an exact one that expands a tree in a windowed Laurent box of a
region (:class:`BoxSeries`, used to expand closed forms for the
cross-regime bridges), and an exact polynomial reader.  The numeric one is
total on the schema above; the windowed one takes every op but sin and cos;
the polynomial one takes num, var, add, mul, neg, pow and division by a num.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count
from math import isqrt, prod
from operator import add, le, mul, sub

from gwp1.ring.numbers import rat_from_str
from gwp1.ring.poly import MultiPoly, _int_product


class TableEntryError(ValueError):
    """A table entry failed schema validation or evaluation."""


VALID_OPS = {"num", "var", "add", "mul", "neg", "sqrt", "log", "sin", "cos", "div", "pow"}


def validate_tree(tree, allowed_vars, path="root"):
    if not isinstance(tree, dict) or "op" not in tree:
        raise TableEntryError(f"{path}: node is not an op dict")
    op = tree["op"]
    if op not in VALID_OPS:
        raise TableEntryError(f"{path}: unknown op {op!r}")
    if op == "num":
        try:
            rat_from_str(tree["value"])
        except Exception as exc:
            raise TableEntryError(f"{path}: bad numeric value") from exc
        return
    if op == "var":
        if tree.get("name") not in allowed_vars:
            raise TableEntryError(f"{path}: unknown variable {tree.get('name')!r}")
        return
    args = tree.get("args", [])
    arity = {"neg": 1, "sqrt": 1, "log": 1, "sin": 1, "cos": 1, "div": 2, "pow": 1}
    if op in arity and len(args) != arity[op]:
        raise TableEntryError(f"{path}: op {op} expects {arity[op]} args")
    if op in ("add", "mul") and len(args) < 2:
        raise TableEntryError(f"{path}: op {op} expects >= 2 args")
    if op == "pow":
        ex = rat_from_str(tree["value"])
        if ex.denominator not in (1, 2):
            raise TableEntryError(f"{path}: pow exponent must be integer or half-integer")
    for i, a in enumerate(args):
        validate_tree(a, allowed_vars, f"{path}.{op}[{i}]")


# ---------------------------------------------------------------------------
# evaluation: one fold over the tree, one table of operations per target
# ---------------------------------------------------------------------------


def _fold(tree, ops, target: str):
    """Evaluate a tree bottom-up: each node becomes ``ops[op](node, values)``,
    where ``values`` are its evaluated arguments in order."""
    fn = ops.get(tree["op"])
    if fn is None:
        raise TableEntryError(f"op {tree['op']} not supported by the {target} evaluator")
    return fn(tree, [_fold(a, ops, target) for a in tree.get("args", ())])


def eval_numeric(tree, ctx, env):
    """Evaluate over an mpmath context; env maps variable names to values
    ("pi" is supplied automatically)."""

    def num(node, _):
        r = rat_from_str(node["value"])
        return ctx.mpf(r.numerator) / ctx.mpf(r.denominator)

    def power(node, xs):
        ex = rat_from_str(node["value"])
        if ex.denominator == 1:
            return xs[0] ** int(ex)
        return ctx.sqrt(xs[0]) ** ex.numerator

    # sums and products start at ctx.mpf(0) and ctx.mpf(1), so that every
    # step rounds in ctx
    return _fold(tree, {
        "num": num,
        "var": lambda node, _: +ctx.pi if node["name"] == "pi" else env[node["name"]],
        "add": lambda node, xs: sum(xs, ctx.mpf(0)),
        "mul": lambda node, xs: prod(xs, start=ctx.mpf(1)),
        "neg": lambda node, xs: -xs[0],
        "div": lambda node, xs: xs[0] / xs[1],
        "sqrt": lambda node, xs: ctx.sqrt(xs[0]),
        "log": lambda node, xs: ctx.log(xs[0]),
        "sin": lambda node, xs: ctx.sin(xs[0]),
        "cos": lambda node, xs: ctx.cos(xs[0]),
        "pow": power,
    }, "numeric")


def eval_poly(tree, variables, laurent=frozenset()) -> MultiPoly:
    """Exact polynomial of a tree made of num, var, add, mul, neg,
    non-negative integer pow and division by a number."""

    def power(node, xs):
        ex = rat_from_str(node["value"])
        if ex.denominator != 1 or ex < 0:
            raise TableEntryError("polynomial tree: pow must be a non-negative integer")
        return xs[0] ** int(ex)

    def div(node, xs):
        den = node["args"][1]
        if den["op"] != "num":
            raise TableEntryError("polynomial tree: division only by constants")
        return xs[0] * (1 / rat_from_str(den["value"]))

    return _fold(tree, {
        "num": lambda node, _: MultiPoly.const(variables, rat_from_str(node["value"]), laurent),
        "var": lambda node, _: MultiPoly.variable(variables, node["name"], laurent),
        "add": lambda node, xs: sum(xs, MultiPoly.zero(variables, laurent)),
        "mul": lambda node, xs: prod(xs, start=MultiPoly.const(variables, 1, laurent)),
        "neg": lambda node, xs: -xs[0],
        "div": div,
        "pow": power,
    }, "polynomial")


# ---------------------------------------------------------------------------
# windowed exact evaluation in a region-ordered Laurent box
# ---------------------------------------------------------------------------


def _isqrt_exact(n: int):
    """The square root of n when n is the square of an integer, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


class BoxSeries:
    """Exact truncated expansion of a closed form in a declared region.

    Index convention: slot order is the region order (largest variable
    first); at a spectral slot index +m means var^-m, at the "q" slot it
    means q^+m.  Terms live in the window [lo, hi] per slot, stored as a
    :class:`MultiPoly` whose exponent vectors are the indices (every slot a
    Laurent variable).  Leads are taken lexicographically in the slot order,
    which is the iterated-Laurent expansion for |v_1| > |v_2| > ... .

    Window soundness: dropped below-window terms could only return to a kept
    index through multiplication by positive variable powers, and those come
    solely from polynomial numerators of bounded degree; callers must make
    the window deeper than the total positive degree occurring in the tree.
    """

    __slots__ = ("vars", "lo", "hi", "poly")

    def __init__(self, vars_, lo, hi, poly: MultiPoly):
        self.vars, self.lo, self.hi, self.poly = vars_, lo, hi, poly

    def _with(self, num, den=1):
        """The series of this window with terms num[idx]/den (nonzero integers,
        den > 0); indices outside the window are dropped."""
        lo, hi = self.lo, self.hi
        kept = {i: n for i, n in num.items() if all(map(le, lo, i)) and all(map(le, i, hi))}
        return BoxSeries(self.vars, lo, hi, self.poly._wrap(kept, den))

    @classmethod
    def _monomial(cls, vars_, lo, hi, idx, value):
        vars_ = tuple(vars_)
        empty = cls(vars_, tuple(lo), tuple(hi), MultiPoly.zero(vars_, vars_))
        value = Fraction(value)
        return empty._with({tuple(idx): value.numerator} if value else {}, value.denominator)

    @classmethod
    def constant(cls, value, vars_, lo, hi):
        return cls._monomial(vars_, lo, hi, (0,) * len(vars_), value)

    @classmethod
    def variable(cls, name, vars_, lo, hi):
        e = [0] * len(vars_)
        e[list(vars_).index(name)] = 1 if name == "q" else -1  # q^+1 vs var^+1 == (1/var)^-1
        return cls._monomial(vars_, lo, hi, e, 1)

    @property
    def terms(self) -> dict:
        """The coefficients as a new dict, index -> Fraction."""
        return self.poly.terms

    def is_zero(self):
        return not self.poly

    def __neg__(self):
        return BoxSeries(self.vars, self.lo, self.hi, -self.poly)

    def __add__(self, other):
        return BoxSeries(self.vars, self.lo, self.hi, self.poly + other.poly)

    def __sub__(self, other):
        return BoxSeries(self.vars, self.lo, self.hi, self.poly - other.poly)

    def __mul__(self, other):
        a, b = self.poly, other.poly
        if len(a.num) > len(b.num):
            a, b = b, a
        return self._with(_int_product(a.num, b.num, self.hi), a.den * b.den)

    def _unit_split(self):
        """Split as c0 * X^m0 * (1 + v) with every v-term lex-positive."""
        if not self.poly:
            raise TableEntryError("lead of the zero expansion")
        num, den = self.poly.num, self.poly.den
        m0 = min(num)
        n0 = num[m0]
        # terms n/den over c0 = n0/den are n/n0; the sign moves to keep den > 0
        sign = 1 if n0 > 0 else -1
        unit = self._with({tuple(map(sub, i, m0)): sign * n for i, n in num.items()}, abs(n0))
        return Fraction(n0, den), m0, unit

    def _series_from_unit(self, coeffs_fn):
        """sum_j coeffs_fn(j) * v^j over the lex-positive part v of this unit.

        Each multiplication by v strictly raises the least lex index of the
        power, so inside the finite window the powers reach zero."""
        v = self._with({i: n for i, n in self.poly.num.items() if any(i)}, self.poly.den)
        acc = BoxSeries.constant(coeffs_fn(0), self.vars, self.lo, self.hi).poly
        term = BoxSeries.constant(1, self.vars, self.lo, self.hi)
        for j in count(1):
            term = term * v
            if term.is_zero():
                return BoxSeries(self.vars, self.lo, self.hi, acc)
            cj = coeffs_fn(j)
            if cj:
                acc = acc + term.poly * cj

    def inverse(self):
        c0, m0, unit = self._unit_split()
        inv_unit = unit._series_from_unit(lambda j: Fraction((-1) ** j))
        return BoxSeries._monomial(self.vars, self.lo, self.hi, [-m for m in m0], 1 / c0) * inv_unit

    def sqrt(self):
        if self.is_zero():
            return self
        c0, m0, unit = self._unit_split()
        if any(m % 2 for m in m0):
            raise TableEntryError("sqrt of an expansion with odd lead exponents")
        num_r = _isqrt_exact(c0.numerator)
        den_r = _isqrt_exact(c0.denominator)
        if num_r is None or den_r is None:
            raise TableEntryError(f"sqrt of non-square lead coefficient {c0}")

        binom = [Fraction(1)]

        def coeffs(j):
            while len(binom) <= j:
                jj = len(binom)
                binom.append(binom[-1] * (Fraction(1, 2) - (jj - 1)) / jj)
            return binom[j]

        root_unit = unit._series_from_unit(coeffs)
        mono = BoxSeries._monomial(self.vars, self.lo, self.hi, [m // 2 for m in m0],
                                   Fraction(num_r, den_r))
        return mono * root_unit

    def log(self):
        c0, m0, unit = self._unit_split()
        if c0 != 1 or any(m0):
            raise TableEntryError("log requires a unit lead monomial")
        return unit._series_from_unit(lambda j: Fraction((-1) ** (j + 1), j) if j else Fraction(0))

    def coefficient(self, idx):
        return Fraction(self.poly.num.get(tuple(idx), 0), self.poly.den)


def eval_box_series(tree, vars_, lo, hi) -> BoxSeries:
    """Exact windowed expansion of a tree in the region given by the slot
    order of ``vars_`` (descending magnitudes, "q" small)."""

    def var(node, _):
        if node["name"] not in vars_:
            raise TableEntryError(f"variable {node['name']!r} not present in exact mode")
        return BoxSeries.variable(node["name"], vars_, lo, hi)

    def power(node, xs):
        ex = rat_from_str(node["value"])
        base = xs[0].sqrt() if ex.denominator == 2 else xs[0]
        result = BoxSeries.constant(1, vars_, lo, hi)
        for _ in range(abs(ex.numerator)):
            result = result * base
        return result.inverse() if ex < 0 else result

    return _fold(tree, {
        "num": lambda node, _: BoxSeries.constant(rat_from_str(node["value"]), vars_, lo, hi),
        "var": var,
        "add": lambda node, xs: reduce(add, xs),
        "mul": lambda node, xs: reduce(mul, xs),
        "neg": lambda node, xs: -xs[0],
        "div": lambda node, xs: xs[0] * xs[1].inverse(),
        "sqrt": lambda node, xs: xs[0].sqrt(),
        "log": lambda node, xs: xs[0].log(),
        "pow": power,
    }, "windowed exact")

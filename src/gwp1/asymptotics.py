"""Four asymptotic regimes of the analytic k-point functions.

The two regimes with exact coefficients (large epsilon, small q) are derived
from first principles through the pairing-kernel product route, entirely in
exact arithmetic; the tabulated values are genuine cross-checks.  The two
regimes whose coefficients live in rings with radicals or trigonometrics
(small epsilon, large q) are verified numerically against the table files,
by measuring the decay order of the remainder after subtracting the
tabulated partial sums.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from math import factorial

import mpmath

from gwp1 import analytic
from gwp1.analytic import PrecisionContext
from gwp1.correlators import one_point_qseries_oracle
from gwp1.exprtree import TableEntryError, eval_box_series, eval_numeric, eval_poly, validate_tree
from gwp1.resolvent import formal_W
from gwp1.ring.numbers import bernoulli_tail, coset_reps
from gwp1.ring.poly import MultiPoly
from gwp1.ring.ratfun import FactoredRatFun, diff_factor, lam_eps_factor

EPS = "eps"

# Sample points of the numeric regime checks: the lam_i of the eps0 and qinf
# checks (k <= 3), the eps of eps0 at q = 1 (inside 0 < 2 sqrt(q)/lam_i < 1),
# the q of qinf at an eps that phase-locks its oscillatory factors, and the
# Debye orders nu at zeta.  The q pair lies far enough out that every
# tabulated (k, d_max) decays at its predicted order: nearer in, the next
# term q^-(d_max/2 + 1) can outweigh the leading remainder q^-(d_max + 1)/2.
SAMPLE_LAMS = (5, 7, 9)
EPS0_Q = 1
EPS0_EPS = (mpmath.mpf(1) / 8, mpmath.mpf(1) / 16, mpmath.mpf(1) / 32)
QINF_EPS = 400 / (6 * mpmath.pi)
QINF_Q = (256 * 10**4, 1024 * 10**4)
DEBYE_NU = (40, 80)
DEBYE_ZETA = 0.6


# ---------------------------------------------------------------------------
# table loading
# ---------------------------------------------------------------------------

_ALLOWED_VARS = {"lam1", "lam2", "lam3", "lam4", "q", "eps", "zeta", "w", "pi",
                 "S1", "S2", "S3", "C1", "C2", "C3"}


def load_table(name: str) -> dict:
    """Load one of the regime table files and validate the trees of its
    ``entries``."""
    path = resources.files("gwp1.tables").joinpath(name)
    with path.open("r") as fh:
        data = json.load(fh)
    for i, entry in enumerate(data["entries"]):
        try:
            for tk in ("tree", "num"):
                if tk in entry:
                    validate_tree(entry[tk], _ALLOWED_VARS)
        except TableEntryError as exc:
            raise TableEntryError(f"{name}:entries[{i}]: {exc}") from exc
    return data


class NoTableEntry(LookupError):
    """A request past the last entry a regime table holds."""


def _table_entry(table: str, k: int, index: str, value: int) -> dict:
    """The entry of ``<table>_table.json`` for k whose ``index`` ("g" or
    "d") is ``value``."""
    for e in load_table(f"{table}_table.json")["entries"]:
        if e["k"] == k and e[index] == value:
            return e
    raise NoTableEntry(f"no {table} table entry for k={k}, {index}={value}")


# ---------------------------------------------------------------------------
# exact kernel data in the two spectral regimes
# ---------------------------------------------------------------------------


def _lam_vars(k: int):
    return tuple(f"lam{i}" for i in range(1, k + 1))


def _kernel_q_terms(k: int, i: int, j: int, D: int):
    """q-expansion terms of the pairing kernel D(z_i, z_j) under
    z = lam/eps, s = sqrt(q)/eps:

        T_0 = eps/(lam_i - lam_j),
        T_n = (-1)^n eps^(1-n) prod_{t=0}^{n-2} (lam_i - lam_j + (t-2n+1) eps)
              / ( n! prod_l (lam_i - (l+1/2) eps) prod_l (lam_j + (l+1/2) eps) ).

    Returns a list of FactoredRatFun over (lam_1..lam_k, eps) indexed by the
    q power; the numerator is Laurent in eps for n >= 2.
    """
    vars_ = _lam_vars(k) + (EPS,)
    laurent = frozenset({EPS})
    li, lj = f"lam{i}", f"lam{j}"
    out = []
    lam_i = MultiPoly.variable(vars_, li, laurent)
    lam_j = MultiPoly.variable(vars_, lj, laurent)
    eps_p = MultiPoly.variable(vars_, EPS, laurent)
    # T_0: eps / (lam_i - lam_j), with the canonical factor orientation
    lo, hi = (i, j) if i < j else (j, i)
    sign = 1 if i < j else -1
    out.append(FactoredRatFun(eps_p * sign, Counter([diff_factor(f"lam{lo}", f"lam{hi}")])))
    delta = lam_i - lam_j
    for n in range(1, D + 1):
        num = MultiPoly.variable(vars_, EPS, laurent, power=1 - n)
        num = num * Fraction((-1) ** n, factorial(n))
        for t in range(0, n - 1):
            num = num * (delta + eps_p * (t - 2 * n + 1))
        den = Counter()
        for ell in range(n):
            den[lam_eps_factor(li, Fraction(-(2 * ell + 1), 2))] += 1
            den[lam_eps_factor(lj, Fraction(2 * ell + 1, 2))] += 1
        out.append(FactoredRatFun(num, den))
    return out


# ---------------------------------------------------------------------------
# regime containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeExpansion:
    regime: str  # "q0" | "epsInf"
    k: int
    order: int
    coefficients: tuple  # ((index, FactoredRatFun or MultiPoly), ...)

    def coefficient(self, index: int):
        for i, p in self.coefficients:
            if i == index:
                return p
        raise KeyError(f"no coefficient at index {index}")

    def to_json(self) -> dict:
        def enc(p):
            if isinstance(p, MultiPoly):
                return {"kind": "poly", "vars": list(p.vars), "terms": p.to_json()}
            return {"kind": "ratfun", **p.to_json()}

        return {
            "regime": self.regime,
            "k": self.k,
            "order": self.order,
            "coefficients": [{"index": i, "payload": enc(p)} for i, p in self.coefficients],
        }


class GradingError(AssertionError):
    pass


def _check_poly_grading(p: MultiPoly, eigenvalue: int, where: str):
    """Every monomial of a (lam.., q) polynomial must satisfy
    sum(lam exponents) + 2 * (q exponent) = eigenvalue."""
    for e in p.num:
        w = 0
        for name, x in zip(p.vars, e):
            w += (2 if name == "q" else 1) * x
        if w != eigenvalue:
            raise GradingError(f"{where}: monomial {e} grades {w}, expected {eigenvalue}")


def _check_ratfun_grading(r: FactoredRatFun, eigenvalue: int, where: str):
    nfac = sum(r.den.values())
    for e in r.num.num:
        w = sum(x for x in e)  # lam and eps all carry weight 1
        if w - nfac != eigenvalue:
            raise GradingError(
                f"{where}: numerator monomial {e} grades {w - nfac}, expected {eigenvalue}"
            )


# ---------------------------------------------------------------------------
# exact regime: q -> 0
# ---------------------------------------------------------------------------


def expand_q0(k: int, D: int) -> RegimeExpansion:
    """Exact small-q coefficients H_{k,d} for d <= D, derived through the
    kernel product route (k >= 2) or the explicit one-point sum (k = 1).

    Asserts the pole-location claim: after cancellation only monic factors
    (lam_i + c eps) with c an odd half-integer, |c| < d, survive.
    """
    if k == 1:
        return _expand_q0_onepoint(D)
    vars_ = _lam_vars(k) + (EPS,)
    laurent = frozenset({EPS})
    kernels = {}
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i != j:
                kernels[(i, j)] = _kernel_q_terms(k, i, j, D)
    acc = [FactoredRatFun.zero(vars_, laurent) for _ in range(D + 1)]
    for sigma in coset_reps(k):
        prod = [FactoredRatFun.from_const(vars_, 1, laurent)]
        for pos in range(k):
            nxt = [FactoredRatFun.zero(vars_, laurent) for _ in range(D + 1)]
            dij = kernels[(sigma[pos], sigma[(pos + 1) % k])]
            for da, fa in enumerate(prod):
                if fa.is_zero():
                    continue
                for db in range(0, D + 1 - da):
                    t = fa * dij[db]
                    if not t.is_zero():
                        nxt[da + db] = nxt[da + db] + t
            prod = nxt
        for d in range(D + 1):
            acc[d] = acc[d] - prod[d]
    if k == 2:
        # subtract the double-pole term eps^2/(lam1 - lam2)^2 at q^0
        eps2 = MultiPoly(vars_, {(0, 0, 2): Fraction(1)}, laurent)
        delta2 = Counter({diff_factor("lam1", "lam2"): 2})
        acc[0] = acc[0] - FactoredRatFun(eps2, delta2)
    coeffs = []
    for d, h in enumerate(acc):
        h = h.reduce()
        for f in h.den:
            if f[0] != "lin":
                raise AssertionError(f"H_{k},{d}: unresolved pairwise pole {f}")
            c = f[2]
            if c.denominator != 2 or abs(c) >= d:
                raise AssertionError(f"H_{k},{d}: pole {f} outside the allowed set")
        for e in h.num.num:
            if e[h.num.vars.index(EPS)] < 0:
                raise AssertionError(f"H_{k},{d}: Laurent eps left in numerator")
        if d > 0:
            _check_ratfun_grading(h, -2 * d, f"H_{k},{d}")
        coeffs.append((d, h))
    return RegimeExpansion(regime="q0", k=k, order=D, coefficients=tuple(coeffs))


def _expand_q0_onepoint(D: int) -> RegimeExpansion:
    """H_{1,d} = (2d-1)! / ( d!^2 prod_{j<=d} (lam^2 - (2j-1)^2 eps^2 / 4) )."""
    vars_ = ("lam1", EPS)
    coeffs = [(0, FactoredRatFun.zero(vars_))]
    for d in range(1, D + 1):
        num = MultiPoly.const(vars_, Fraction(factorial(2 * d - 1), factorial(d) ** 2))
        den = Counter()
        for j in range(1, d + 1):
            den[lam_eps_factor("lam1", Fraction(2 * j - 1, 2))] += 1
            den[lam_eps_factor("lam1", Fraction(-(2 * j - 1), 2))] += 1
        h = FactoredRatFun(num, den)
        _check_ratfun_grading(h, -2 * d, f"H_1,{d}")
        coeffs.append((d, h))
    return RegimeExpansion(regime="q0", k=1, order=D, coefficients=tuple(coeffs))


def q0_table_entry(k: int, d: int) -> FactoredRatFun:
    """Tabulated small-q coefficient as a FactoredRatFun (exact target)."""
    e = _table_entry("q0", k, "d", d)
    num = eval_poly(e["num"], _lam_vars(k) + (EPS,), frozenset({EPS}))
    den = Counter()
    for f in e["den_factors"]:
        den[lam_eps_factor(f["var"], Fraction(f["c"]))] += f.get("mult", 1)
    return FactoredRatFun(num, den)


def einf_table_entry(k: int, g: int) -> MultiPoly:
    """Tabulated large-eps coefficient as a polynomial in (lam.., q)."""
    return eval_poly(_table_entry("einf", k, "g", g)["tree"], _lam_vars(k) + ("q",))


# ---------------------------------------------------------------------------
# exact regime: eps -> infinity
# ---------------------------------------------------------------------------


def _q0_sum(data: RegimeExpansion, large, order: int) -> MultiPoly:
    """sum_d q^d H_{k,d} over the small-q coefficients of ``data`` (from
    :func:`expand_q0`), each expanded by :meth:`FactoredRatFun.expand` where
    ``large`` is big: one polynomial over (lam1..lamk, q, eps) whose q slot
    holds d and whose other slots are those of that expansion."""
    k = data.k
    vars_ = _lam_vars(k) + ("q", EPS)
    out = MultiPoly.zero(vars_, vars_)
    for d, h in data.coefficients:
        p = h.expand(large, order)
        out = out + out._wrap({e[:k] + (d, e[k]): n for e, n in p.num.items()}, p.den)
    return out


def _q0_in_inverse_eps(k: int, G: int, D: int) -> dict:
    """sum_{d <= D} q^d H_{k,d}, each small-q coefficient expanded in 1/eps
    through eps^-2G: {eps index: polynomial in (lam.., q)}."""
    total = _q0_sum(expand_q0(k, D), {EPS}, 2 * G)
    by_index: dict[int, dict] = {}
    for e, n in total.num.items():
        by_index.setdefault(e[-1], {})[e[:-1]] = n
    return {i: MultiPoly.from_ints(_lam_vars(k) + ("q",), num, total.den)
            for i, num in by_index.items()}


def expand_eps_inf(k: int, G: int) -> RegimeExpansion:
    """Exact large-epsilon coefficients H_{k,[g]} for g <= G: polynomials in
    (lam.., q), derived by expanding the small-q kernel data in 1/eps and
    resumming (only q powers up to g contribute at eps^-2g, by grading)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = _q0_in_inverse_eps(k, G, G)  # q^d terms start at eps^-2d
    zero = MultiPoly.zero(_lam_vars(k) + ("q",))
    coeffs = []
    for g in range(0, G + 1):
        p = total.get(2 * g, zero)
        _check_poly_grading(p, 2 * g, f"H_{k},[{g}]")
        coeffs.append((g, p))
    # odd inverse powers and positive powers of eps must cancel identically
    for idx in total:
        if idx < 0 or idx % 2:
            raise AssertionError(f"unexpected eps^{-idx} term in the expansion")
    return RegimeExpansion(regime="epsInf", k=k, order=G, coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# cross-regime consistency (exact)
# ---------------------------------------------------------------------------


def q0_einf_consistency(k: int, G: int) -> bool:
    """The small-q data through q^G re-expanded for large eps must reproduce
    the exact large-eps coefficients: coefficient-wise equality of
    polynomials in (lam.., q) for every g <= G.

    :func:`expand_eps_inf` is derived from the same re-expansion, so both
    sides are one sum and the check cannot fail.  The independent check of
    the large-eps regime is its table (:func:`einf_table_entry`)."""
    einf_data = expand_eps_inf(k, G)
    total = _q0_in_inverse_eps(k, G, G)
    zero = MultiPoly.zero(_lam_vars(k) + ("q",))
    return all(total.get(2 * g, zero) == einf_data.coefficient(g)
               for g in range(0, G + 1))


def eps0_series_coefficients(k: int, g: int, lam_order: int, d_max: int) -> dict:
    """Exact (1/lam.., q) expansion of a tabulated small-eps closed form in
    the canonical region; returns {(t_1..t_k, d): Fraction} restricted to
    non-negative inverse indices."""
    tree = _table_entry("eps0", k, "g", g)["tree"]
    svars = _lam_vars(k) + ("q",)
    # The evaluation window must exceed the read window on BOTH sides by the
    # largest positive variable degree in the tree (after an inversion,
    # multiplying by a positive-degree numerator shifts indices back down),
    # and be deep enough below that dropped low terms cannot re-enter.
    margin = 16
    lo = tuple([-(lam_order + 2 * margin)] * k) + (0,)
    hi = tuple([lam_order + margin] * k) + (d_max,)
    series = eval_box_series(tree, svars, lo, hi)
    return {
        idx: c
        for idx, c in series.terms.items()
        if all(0 <= x <= lam_order for x in idx[:k]) and idx[k] <= d_max
    }


def q0_in_inverse_lam(data: RegimeExpansion, lam_order: int) -> MultiPoly:
    """:func:`_q0_sum` in 1/lam through lam^-lam_order in every variable,
    over the inverse indices t_i >= 0 of its lam slots."""
    total = _q0_sum(data, _lam_vars(data.k), lam_order)
    return total._wrap({e: n for e, n in total.num.items() if min(e[:data.k]) >= 0},
                       total.den)


def _restrict(p: MultiPoly, slot: int, values) -> MultiPoly:
    """The terms of ``p`` whose exponent in ``slot`` lies in ``values``."""
    return p._wrap({e: n for e, n in p.num.items() if e[slot] in values}, p.den)


def onepoint_oracle_match(data: RegimeExpansion) -> dict:
    """Each one-point coefficient H_{1,d}, d >= 1, of ``data`` against the
    small-q oracle :func:`correlators.one_point_qseries_oracle`, which
    shares no code with :func:`expand_q0`.  Both sides are expanded in 1/lam
    through lam^-(2D+2), D the order of ``data``; {str(d): the q^d parts of
    the two sides are equal}."""
    lam_order = 2 * data.order + 2
    ours = q0_in_inverse_lam(data, lam_order)
    oracle = MultiPoly.zero(ours.vars, ours.laurent)
    for (t,), poly in one_point_qseries_oracle(data.order, lam_order).terms.items():
        oracle = oracle + oracle._wrap({(t,) + e: n for e, n in poly.num.items()}, poly.den)
    return {str(d): _restrict(ours, 1, {d}) == _restrict(oracle, 1, {d})
            for d in range(1, data.order + 1)}


def table_match(name: str, k: int, order: int):
    """The exact regime ``name`` ("q0" for d <= order, "einf" for g <= order)
    against the one-point oracle (q0 at k = 1) or the table entries:
    ``(expansion, field, matches, uncompared)``, with ``field`` the payload
    name of that route, ``matches`` {str(index): agrees} and ``uncompared``
    the indices past the table.  Raises ValueError if nothing was compared."""
    expand, table_entry, index, first = {
        "q0": (expand_q0, q0_table_entry, "d", 1),
        "einf": (expand_eps_inf, einf_table_entry, "g", 0),
    }[name]
    if name == "q0" and k == 1:
        data = expand(k, order)
        field, other, uncompared = "oracle_match", "the one-point oracle", []
        matches = onepoint_oracle_match(data)
    else:
        field, other = "table_match", "the table"
        targets = {}
        for i in range(first, order + 1):
            try:
                targets[i] = table_entry(k, i)
            except NoTableEntry:
                continue
        data = expand(k, order) if targets else None
        matches = {str(i): bool(data.coefficient(i) == t) for i, t in targets.items()}
        uncompared = [i for i in range(first, order + 1) if i not in targets]
    if not matches:
        raise ValueError(f"nothing to compare: {other} has no {name} entry for k={k} and "
                         f"{first} <= {index} <= {order}")
    return data, field, matches, uncompared


def eps0_q0_bridge(k: int, g_max: int, d_max: int) -> bool:
    """Exact bridge between the small-eps closed forms and the small-q data:

        sum_d q^d H_{k,d}(lam; eps)  ==  sum_g eps^(2g-2+2k) Hk[g](lam; q)

    compared coefficient-by-coefficient in (1/lam.., q) for every eps power
    reachable with g <= g_max, through q^d_max and lam^-(2 d_max + 2)."""
    lam_order = 2 * d_max + 2
    eps_powers = {2 * g - 2 + 2 * k for g in range(0, g_max + 1)}
    lhs = q0_in_inverse_lam(expand_q0(k, d_max), lam_order)
    rhs: dict[tuple, Fraction] = {}
    for g in range(0, g_max + 1):
        for idx, c in eps0_series_coefficients(k, g, lam_order, d_max).items():
            rhs[idx + (2 * g - 2 + 2 * k,)] = c
    if k == 1:
        # the tabulated one-point coefficients belong to the Gamma-rescaled
        # kernel; the plain kernel adds the Bernoulli tail of the digamma
        # asymptotic:  (1 - 2^(1-2g)) B_2g / (2g) lam^-2g  at q^0
        for g in range(1, g_max + 1):
            if 2 * g <= lam_order:
                rhs[(2 * g, 0, 2 * g)] = rhs.get((2 * g, 0, 2 * g), 0) + bernoulli_tail(g)
    return _restrict(lhs, k + 1, eps_powers) == MultiPoly(lhs.vars, rhs, lhs.laurent)


# ---------------------------------------------------------------------------
# numeric verification: eps -> 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeReport:
    regime: str
    k: int
    orders_checked: tuple
    measured_order: float
    expected_order: float
    tolerance: float
    passed: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "regime": self.regime,
            "k": self.k,
            "orders_checked": list(self.orders_checked),
            "measured_order": self.measured_order,
            "expected_order": self.expected_order,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "detail": {k: str(v) for k, v in self.detail.items()},
        }


def _k_point_value(pc: PrecisionContext, lams, q, eps):
    """The analytic k-point function at z_i = lam_i/eps, s = sqrt(q)/eps:
    :func:`analytic.h_1_star` at k = 1, the trace route of
    :func:`analytic.h_k` otherwise."""
    ctx = pc.ctx
    eps = ctx.mpf(eps)
    zs = [ctx.mpf(lam) / eps for lam in lams]
    s = ctx.sqrt(ctx.mpf(q)) / eps
    if len(zs) == 1:
        return analytic.h_1_star(pc, zs[0], s)
    return analytic.h_k(pc, zs, s, route="trace")


def _decay_report(regime, k, orders_checked, points, residuals, expected, tolerance,
                  detail_key) -> RegimeReport:
    """Grade the decay of ``residuals`` across consecutive ``points``.

    For each pair, the step is the larger point over the smaller and the
    measured order is log(r1/r2) / log(step).  The pair passes when r1/r2 is
    within ``tolerance`` (relative) of step^expected; the report carries the
    mean measured order."""
    measured = []
    ok = True
    pairs = list(zip(points, residuals))
    for (p1, r1), (p2, r2) in zip(pairs, pairs[1:]):
        lo, hi = sorted((mpmath.mpf(p1), mpmath.mpf(p2)))
        step = hi / lo
        ratio = r1 / r2
        order = float(mpmath.log(ratio) / mpmath.log(step))
        measured.append(order)
        if abs(ratio / step ** expected - 1) > tolerance:
            ok = False
    return RegimeReport(
        regime=regime,
        k=k,
        orders_checked=tuple(orders_checked),
        measured_order=float(sum(measured) / len(measured)) if measured else float("nan"),
        expected_order=float(expected),
        tolerance=tolerance,
        passed=ok,
        detail={detail_key: [str(r) for r in residuals]},
    )


def verify_eps0(k: int, g_max: int) -> RegimeReport:
    """Measure the remainder order of the small-eps expansion after
    subtracting the tabulated closed forms through genus g_max, at lam_i =
    SAMPLE_LAMS, q = EPS0_Q and eps in EPS0_EPS: the remainder between
    consecutive eps values must scale with the predicted next order within a
    relative tolerance of 0.25."""
    lams, q = SAMPLE_LAMS[:k], EPS0_Q
    entries = [(g, _table_entry("eps0", k, "g", g)["tree"]) for g in range(0, g_max + 1)]
    pc = PrecisionContext()
    ctx = pc.ctx
    env = {f"lam{i + 1}": ctx.mpf(lam) for i, lam in enumerate(lams)}
    env["q"] = ctx.mpf(q)
    remainders = []
    for eps in EPS0_EPS:
        eps_m = ctx.mpf(eps)
        # sum_g eps^(2g-2+2k) Hk[g], plus log(sqrt(q)/lam) at k = 1
        model = ctx.log(ctx.sqrt(env["q"])) - ctx.log(env["lam1"]) if k == 1 else ctx.mpf(0)
        for g, tree in entries:
            model += eps_m ** (2 * g - 2 + 2 * k) * eval_numeric(tree, ctx, env)
        remainders.append(abs(_k_point_value(pc, lams, q, eps) - model))
    return _decay_report("eps0", k, range(0, g_max + 1), EPS0_EPS, remainders,
                         2 * g_max + 2 * k, 0.25, "remainders")


# ---------------------------------------------------------------------------
# numeric verification: q -> infinity
# ---------------------------------------------------------------------------


def verify_q_inf(k: int, d_max: int) -> RegimeReport:
    """Measure the residual decay order of the large-q expansion after
    subtracting every tabulated term with q power >= -d_max/2, at lam_i =
    SAMPLE_LAMS, eps = QINF_EPS and q in QINF_Q: the residual between the two
    q values must scale with the predicted order within a relative tolerance
    of 0.30.  At k = 1 the drift terms come from the formal large-q solution:
    the q^-(d+1/2) coefficient is 2/(2d+1) [sq^(2d+1)] w1 times S1.  Raises
    NoTableEntry when d_max lies past the last tabulated d for k."""
    lams, eps = SAMPLE_LAMS[:k], QINF_EPS
    entries = [e for e in load_table("qinf_table.json")["entries"] if e["k"] == k]
    if d_max > max((e["d"] for e in entries), default=-1):
        raise NoTableEntry(f"no qinf table entry for k={k}, d={d_max}")
    pc = PrecisionContext()
    ctx = pc.ctx
    eps_m = ctx.mpf(eps)
    env = {f"lam{i + 1}": ctx.mpf(lam) for i, lam in enumerate(lams)}
    env["eps"] = eps_m
    coswt = ctx.mpf(1)
    for i, lam in enumerate(lams):
        env[f"S{i + 1}"] = ctx.sin(ctx.pi * ctx.mpf(lam) / eps_m)
        env[f"C{i + 1}"] = ctx.cos(ctx.pi * ctx.mpf(lam) / eps_m)
        coswt *= env[f"C{i + 1}"]
    # the q^-(p/2) drift terms with p <= d_max, p = 2d + 1 odd
    drift = [(p, 2 * c.eval_numeric(ctx, {"lam": env["lam1"], "eps": eps_m}) / p)
             for (p,), c in formal_W(d_max).w1.terms.items()] if k == 1 else []
    remainders = []
    for q in QINF_Q:
        q_m = ctx.mpf(q)
        model = -ctx.pi / 2 * env["S1"] if k == 1 else ctx.mpf(0)
        for p, c in drift:
            model += env["S1"] * c / q_m ** (ctx.mpf(p) / 2)
        phase = 4 * ctx.sqrt(q_m) / eps_m
        for e in entries:
            if e["d"] > d_max:
                continue
            coeff = eval_numeric(e["tree"], ctx, env)
            m = e["m"]
            osc = ctx.mpf(1) if m == 0 else (
                ctx.cos(m * phase) if e["kind"] == "cos" else ctx.sin(m * phase)
            )
            model += q_m ** (-ctx.mpf(e["d"]) / 2) * coeff * osc
        remainders.append(abs(coswt * _k_point_value(pc, lams, q, eps) - model))
    return _decay_report("qInf", k, range(0, d_max + 1), QINF_Q, remainders,
                         (d_max + 1) / 2, 0.30, "remainders")


# ---------------------------------------------------------------------------
# Debye (large-order Bessel) check
# ---------------------------------------------------------------------------


def debye_check() -> RegimeReport:
    """Large-order Bessel asymptotics: with V = nu V0 + V1 + V2/nu + V3/nu^2,

        J_(nu - 1/2)(nu zeta) ~ (nu - 1/2)^(nu - 1/2) / Gamma(nu + 1/2) e^V,

    the relative residual at zeta = DEBYE_ZETA and nu in DEBYE_NU, evaluated
    at 192 bits, must decay like nu^-3 within a relative tolerance of 0.30.
    V_m for m >= 2 is tabulated as a polynomial in w = (1 - zeta^2)^(-1/2) of
    degree 3m - 3 (else TableEntryError)."""
    pc = PrecisionContext(192)
    ctx = pc.ctx
    zeta_m = ctx.mpf(DEBYE_ZETA)
    env = {"zeta": zeta_m, "w": 1 / ctx.sqrt(1 - zeta_m * zeta_m)}
    V = {}
    for e in load_table("debye_table.json")["entries"]:
        m = e["m"]
        if m >= 2 and eval_poly(e["tree"], ("w",)).degree("w") != 3 * m - 3:
            raise TableEntryError(f"Debye V_{m} is not of degree {3 * m - 3} in w")
        V[m] = eval_numeric(e["tree"], ctx, env)
    residuals = []
    for nu in DEBYE_NU:
        nu_m = ctx.mpf(nu)
        val = analytic.bessel_J(pc, nu_m - ctx.mpf(1) / 2, nu_m * zeta_m)[0]
        exponent = nu_m * V[0] + V[1] + V[2] / nu_m + V[3] / nu_m**2
        model = ctx.exp(
            (nu_m - ctx.mpf(1) / 2) * ctx.log(nu_m - ctx.mpf(1) / 2)
            - ctx.loggamma(nu_m + ctx.mpf(1) / 2)
            + exponent
        )
        residuals.append(abs(val / model - 1))
    return _decay_report("debye", 1, (0, 1, 2, 3), DEBYE_NU, residuals, 3, 0.30, "residuals")


# ---------------------------------------------------------------------------
# the numeric regimes at their sample points
# ---------------------------------------------------------------------------


def numeric_check(name: str, k: int, order: int) -> RegimeReport:
    """The numeric regime ``name`` at the sample points of this module:
    "eps0" through genus ``order`` or "qinf" through d = ``order``, both
    for k <= len(SAMPLE_LAMS), or "debye" (which reads neither k nor
    ``order``).  The numeric twin of :func:`table_match`."""
    if name == "debye":
        return debye_check()
    if k > len(SAMPLE_LAMS):
        raise ValueError(f"{name} is checked at lam = {', '.join(map(str, SAMPLE_LAMS))}: "
                         f"k <= {len(SAMPLE_LAMS)} required")
    return (verify_eps0 if name == "eps0" else verify_q_inf)(k, order)

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
from gwp1.ring.numbers import bernoulli_tail, coset_reps, odd_double_factorial
from gwp1.ring.poly import MultiPoly
from gwp1.ring.ratfun import FactoredRatFun, diff_factor, lam_eps_factor

EPS = "eps"


# ---------------------------------------------------------------------------
# table loading
# ---------------------------------------------------------------------------

_ALLOWED_VARS = {"lam1", "lam2", "lam3", "lam4", "q", "eps", "zeta", "pi",
                 "S1", "S2", "S3", "C1", "C2", "C3"}


def load_table(name: str) -> dict:
    """Load and schema-validate one of the regime table files."""
    path = resources.files("gwp1.tables").joinpath(name)
    with path.open("r") as fh:
        data = json.load(fh)
    for key in ("entries", "V", "U"):
        for i, entry in enumerate(data.get(key, [])):
            label = f"{name}:{key}[{i}]"
            try:
                for tk in ("tree", "num"):
                    if tk in entry:
                        validate_tree(entry[tk], _ALLOWED_VARS)
                if "w_poly" in entry:
                    for p, c in entry["w_poly"].items():
                        int(p)
                        Fraction(c)
            except (TableEntryError, ValueError) as exc:
                raise TableEntryError(f"{label}: {exc}") from exc
    return data


def _table_entry(table: str, k: int, index: str, value: int) -> dict:
    """The entry of ``<table>_table.json`` for k whose ``index`` ("g" or
    "d") is ``value``."""
    for e in load_table(f"{table}_table.json")["entries"]:
        if e["k"] == k and e[index] == value:
            return e
    raise KeyError(f"no {table} table entry for k={k}, {index}={value}")


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
    regime: str  # "eps0" | "epsInf" | "q0" | "qInf"
    k: int
    order: int
    coefficients: tuple  # ((index, payload), ...)

    def coefficient(self, index: int):
        for i, p in self.coefficients:
            if i == index:
                return p
        raise KeyError(f"no coefficient at index {index}")

    def to_json(self) -> dict:
        def enc(p):
            if isinstance(p, MultiPoly):
                return {"kind": "poly", "vars": list(p.vars), "terms": p.to_json()}
            if isinstance(p, FactoredRatFun):
                return {"kind": "ratfun", **p.to_json()}
            return {"kind": "tree", "tree": p}

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


def verify_eps0(k: int, g_max: int, lams, q, eps_list) -> RegimeReport:
    """Measure the remainder order of the small-eps expansion after
    subtracting the tabulated closed forms through genus g_max.

    Requires the region 0 < 2 sqrt(q)/lam_i < 1 with lam_i/eps > 0; the
    remainder between consecutive eps values must scale with the predicted
    next order within a relative tolerance of 0.25."""
    tolerance = 0.25
    lams = list(lams)[:k] if k > 1 else [list(lams)[0] if isinstance(lams, (list, tuple)) else lams]
    for lam in lams:
        if not (0 < 2 * mpmath.sqrt(q) / lam < 1):
            raise ValueError(f"lam = {lam} outside the admissible region")
    entries = [(g, _table_entry("eps0", k, "g", g)["tree"]) for g in range(0, g_max + 1)]
    remainders = []
    pc = PrecisionContext()
    ctx = pc.ctx
    for eps in eps_list:
        env = {f"lam{i + 1}": ctx.mpf(l) for i, l in enumerate(lams)}
        env["q"] = ctx.mpf(q)
        eps_m = ctx.mpf(eps)
        if k == 1:
            value = analytic.h_1_star(pc, ctx.mpf(lams[0]) / eps_m, ctx.sqrt(env["q"]) / eps_m)
            model = ctx.log(ctx.sqrt(env["q"])) - ctx.log(env["lam1"])
            for g, tree in entries:
                model += eps_m ** (2 * g) * eval_numeric(tree, ctx, env)
        else:
            zs = [ctx.mpf(l) / eps_m for l in lams]
            value = analytic.h_k(pc, zs, ctx.sqrt(env["q"]) / eps_m, route="trace")
            model = ctx.mpf(0)
            for g, tree in entries:
                model += eps_m ** (2 * g - 2 + 2 * k) * eval_numeric(tree, ctx, env)
        remainders.append(abs(value - model))
    expected = 2 * (g_max + 1) if k == 1 else 2 * (g_max + 1) - 2 + 2 * k
    measured = []
    ok = True
    for (e1, r1), (e2, r2) in zip(
        zip(eps_list, remainders), list(zip(eps_list, remainders))[1:]
    ):
        ratio = r1 / r2
        predicted = (mpmath.mpf(e1) / mpmath.mpf(e2)) ** expected
        measured.append(float(mpmath.log(ratio) / mpmath.log(mpmath.mpf(e1) / mpmath.mpf(e2))))
        if abs(ratio / predicted - 1) > tolerance:
            ok = False
    return RegimeReport(
        regime="eps0",
        k=k,
        orders_checked=tuple(range(0, g_max + 1)),
        measured_order=float(sum(measured) / len(measured)) if measured else float("nan"),
        expected_order=float(expected),
        tolerance=tolerance,
        passed=ok,
        detail={"remainders": [str(r) for r in remainders]},
    )


# ---------------------------------------------------------------------------
# numeric verification: q -> infinity
# ---------------------------------------------------------------------------


def _qinf_entries(k: int):
    return [e for e in load_table("qinf_table.json")["entries"] if e["k"] == k]


def _onepoint_drift_coeff(d: int, lam, eps, ctx):
    """Coefficient of q^-(d+1/2) in the non-oscillatory (drift) part of the
    cos-weighted one-point function:

        (2d-1)!! prod_{j=-d..d} (lam - eps j) / ( (2d+1) d! 2^(3d+1) )."""
    prod = ctx.mpf(1)
    for j in range(-d, d + 1):
        prod *= lam - eps * j
    return (ctx.mpf(odd_double_factorial(d)) * prod
            / ((2 * d + 1) * factorial(d) * ctx.mpf(2) ** (3 * d + 1)))


def verify_q_inf(k: int, d_max: int, lams, eps, q_list) -> RegimeReport:
    """Measure the residual decay order of the large-q expansion after
    subtracting every tabulated term with q power >= -d_max/2; the measured
    order must match the predicted one within a relative tolerance of 0.30.
    Raises KeyError when d_max lies past the last tabulated d for k."""
    tolerance = 0.30
    lams = list(lams)[:k]
    entries = _qinf_entries(k)
    if d_max > max((e["d"] for e in entries), default=-1):
        raise KeyError(f"no qinf table entry for k={k}, d={d_max}")
    remainders = []
    pc = PrecisionContext()
    ctx = pc.ctx
    for q in q_list:
        eps_m = ctx.mpf(eps)
        q_m = ctx.mpf(q)
        sq_m = ctx.sqrt(q_m)
        env = {f"lam{i + 1}": ctx.mpf(l) for i, l in enumerate(lams)}
        env["eps"] = eps_m
        for i, l in enumerate(lams):
            env[f"S{i + 1}"] = ctx.sin(ctx.pi * ctx.mpf(l) / eps_m)
            env[f"C{i + 1}"] = ctx.cos(ctx.pi * ctx.mpf(l) / eps_m)
        coswt = ctx.mpf(1)
        for i in range(k):
            coswt *= env[f"C{i + 1}"]
        zs = [ctx.mpf(l) / eps_m for l in lams]
        s_val = sq_m / eps_m
        if k == 1:
            value = coswt * analytic.h_1_star(pc, zs[0], s_val)
            model = -ctx.pi / 2 * env["S1"]
            # drift series: q^-(d+1/2) terms
            d = 0
            while d + ctx.mpf(1) / 2 <= ctx.mpf(d_max) / 2:
                model += (
                    env["S1"]
                    * _onepoint_drift_coeff(d, env["lam1"], eps_m, ctx)
                    / q_m ** (d + ctx.mpf(1) / 2)
                )
                d += 1
        else:
            value = coswt * analytic.h_k(pc, zs, s_val, route="trace")
            model = ctx.mpf(0)
        phase = 4 * sq_m / eps_m
        for e in entries:
            if e["d"] > d_max:
                continue
            coeff = eval_numeric(e["tree"], ctx, env)
            m = e["m"]
            osc = ctx.mpf(1) if m == 0 else (
                ctx.cos(m * phase) if e["kind"] == "cos" else ctx.sin(m * phase)
            )
            model += q_m ** (-ctx.mpf(e["d"]) / 2) * coeff * osc
        remainders.append(abs(value - model))
    expected = mpmath.mpf(d_max + 1) / 2
    measured = []
    ok = True
    pairs = list(zip(q_list, remainders))
    for (q1, r1), (q2, r2) in zip(pairs, pairs[1:]):
        ratio = r1 / r2
        order = float(mpmath.log(ratio) / mpmath.log(mpmath.mpf(q2) / mpmath.mpf(q1)))
        measured.append(order)
        # the oscillatory regime is graded on the measured decay ORDER
        if abs(order / float(expected) - 1) > tolerance:
            ok = False
    return RegimeReport(
        regime="qInf",
        k=k,
        orders_checked=tuple(range(0, d_max + 1)),
        measured_order=float(sum(measured) / len(measured)) if measured else float("nan"),
        expected_order=float(expected),
        tolerance=tolerance,
        passed=ok,
        detail={"remainders": [str(r) for r in remainders]},
    )


# ---------------------------------------------------------------------------
# Debye (large-order Bessel) check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DebyeCoefficients:
    v_entries: tuple
    u_entries: tuple

    @classmethod
    def load(cls) -> "DebyeCoefficients":
        data = load_table("debye_table.json")
        return cls(v_entries=tuple(data["V"]), u_entries=tuple(data["U"]))

    def structural_check(self) -> bool:
        """V_m for m >= 2 is a polynomial in w = (1-zeta^2)^(-1/2) of degree
        3m - 3, and the argument-scaled family equals it from m = 2 on."""
        for e in self.v_entries:
            m = e["m"]
            if m >= 2:
                if "w_poly" not in e:
                    return False
                if max(int(p) for p in e["w_poly"]) != 3 * m - 3:
                    return False
        for e in self.u_entries:
            if e["m"] >= 2 and not e.get("same_as_V"):
                return False
        return True

    def v_value(self, m: int, ctx, zeta):
        entry = next(e for e in self.v_entries if e["m"] == m)
        if "tree" in entry:
            return eval_numeric(entry["tree"], ctx, {"zeta": zeta})
        w = 1 / ctx.sqrt(1 - zeta * zeta)
        total = ctx.mpf(0)
        for p, c in entry["w_poly"].items():
            fc = Fraction(c)
            total += ctx.mpf(fc.numerator) / ctx.mpf(fc.denominator) * w ** int(p)
        return total


def debye_check(nu_list, zeta) -> RegimeReport:
    """Large-order Bessel asymptotics: with V = nu V0 + V1 + V2/nu + V3/nu^2,

        J_(nu - 1/2)(nu zeta) ~ (nu - 1/2)^(nu - 1/2) / Gamma(nu + 1/2) e^V,

    the relative residual, evaluated at 192 bits, must decay like nu^-3
    across the given orders within a relative tolerance of 0.30."""
    tolerance = 0.30
    if not (0.05 < zeta < 0.95):
        raise ValueError("zeta must lie in (0.05, 0.95)")
    coeffs = DebyeCoefficients.load()
    if not coeffs.structural_check():
        raise TableEntryError("Debye table failed the structural check")
    pc = PrecisionContext(192)
    ctx = pc.ctx
    zeta_m = ctx.mpf(zeta)
    residuals = []
    for nu in nu_list:
        nu_m = ctx.mpf(nu)
        val = analytic.bessel_J(pc, nu_m - ctx.mpf(1) / 2, nu_m * zeta_m)[0]
        V = (
            nu_m * coeffs.v_value(0, ctx, zeta_m)
            + coeffs.v_value(1, ctx, zeta_m)
            + coeffs.v_value(2, ctx, zeta_m) / nu_m
            + coeffs.v_value(3, ctx, zeta_m) / nu_m**2
        )
        model = ctx.exp(
            (nu_m - ctx.mpf(1) / 2) * ctx.log(nu_m - ctx.mpf(1) / 2)
            - ctx.loggamma(nu_m + ctx.mpf(1) / 2)
            + V
        )
        residuals.append(abs(val / model - 1))
    measured = []
    ok = True
    pairs = list(zip(nu_list, residuals))
    for (n1, r1), (n2, r2) in zip(pairs, pairs[1:]):
        ratio = r1 / r2
        predicted = (mpmath.mpf(n2) / mpmath.mpf(n1)) ** 3
        measured.append(float(mpmath.log(ratio) / mpmath.log(mpmath.mpf(n2) / mpmath.mpf(n1))))
        if abs(ratio / predicted - 1) > tolerance:
            ok = False
    return RegimeReport(
        regime="debye",
        k=1,
        orders_checked=(0, 1, 2, 3),
        measured_order=float(sum(measured) / len(measured)) if measured else float("nan"),
        expected_order=3.0,
        tolerance=tolerance,
        passed=ok,
        detail={"residuals": [str(r) for r in residuals]},
    )

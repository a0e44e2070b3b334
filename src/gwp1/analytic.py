"""Configurable-precision evaluation of the analytic k-point machinery.

Everything is computed from two hypergeometric-type series (``hyper_G``,
``hyper_Gt``) and a modified Bessel series, combined into the rank-one
unit-trace matrix ``B``, the pairing kernels ``D``/``D*`` and the analytic
k-point functions.  Each headline object has at least two evaluation routes
that are required to agree within tolerance.

Precision is a value: every entry point takes a :class:`PrecisionContext`
wrapping an independent mpmath context, so concurrent evaluations never
share ambient state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from gwp1.ring.mat2 import Mat2
from gwp1.ring.numbers import bernoulli_number, coset_reps

DEFAULT_BITS = 128
SINGULARITY_MARGIN = 1e-6
NEAR_DIAGONAL = 1e-3
MAX_TERMS = 10 ** 6


class SeriesDivergenceError(ArithmeticError):
    """The stopping rule was not met within the term budget."""


class RouteDisagreement(ArithmeticError):
    """Two independent evaluation routes differ beyond tolerance."""


@dataclass(frozen=True)
class PrecisionContext:
    """Value-passed precision: an independent mpmath context at `bits`."""

    bits: int = DEFAULT_BITS
    ctx: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError("precision must be at least 53 bits")
        ctx = mpmath.mp.clone()
        ctx.prec = self.bits
        object.__setattr__(self, "ctx", ctx)

    def mpc(self, z) -> mpmath.mpc:
        if isinstance(z, Fraction):
            return self.ctx.mpf(z.numerator) / self.ctx.mpf(z.denominator)
        return self.ctx.mpc(z)

    def tol(self, slack_bits: int = 10):
        return self.ctx.mpf(2) ** (-(self.bits - slack_bits))


def required_bits(z, s, base: int = DEFAULT_BITS) -> int:
    """Precision policy: raise precision in large-order regimes.

    For |z| or |s| above 30 the alternating Bessel-type sums can cancel at
    the exp(2 sqrt(X))-scale, so the driver requests 64 + ceil(2.9 |s|^2)
    bits (a deliberately conservative bound)."""
    za, sa = abs(complex(z)), abs(complex(s))
    if za > 30 or sa > 30:
        return max(base, 64 + int(mpmath.ceil(2.9 * sa * sa)))
    return base


@dataclass(frozen=True)
class EvalPoint:
    """Evaluation point (z_1..z_k; s), optionally tagged with the spectral
    conventions z = lam/eps, s = sqrt(q)/eps."""

    zs: tuple
    s: complex
    lam: tuple | None = None
    eps: complex | None = None
    q: complex | None = None
    delta_min: float = SINGULARITY_MARGIN

    def validate(self):
        for z in self.zs:
            zc = complex(z)
            nearest = round(zc.real - 0.5) + 0.5
            if abs(zc - nearest) < self.delta_min:
                raise ValueError(f"z = {z} within {self.delta_min} of Z + 1/2")
        if self.q is not None and self.eps is not None:
            arg = mpmath.arg(mpmath.sqrt(self.q) / self.eps)
            if not (-mpmath.pi < arg < mpmath.pi):
                raise ValueError("arg(sqrt(q)/eps) must lie in (-pi, pi)")
        return self


def _sum_series(pc: PrecisionContext, first_term, next_term, max_terms: int = MAX_TERMS):
    """Sum a series given t_0 and t_{n+1} = next_term(t_n, n).

    Stops when |term| < 2^-(bits+10) |partial| holds for three consecutive
    terms; returns (value, crude error bound)."""
    total = first_term
    term = first_term
    small = 0
    threshold = pc.tol()
    for n in range(max_terms):
        term = next_term(term, n)
        total += term
        ref = abs(total)
        if ref == 0:
            ref = pc.ctx.mpf(1)
        if abs(term) < threshold * ref:
            small += 1
            if small >= 3:
                return total, abs(term) * 4
        else:
            small = 0
    raise SeriesDivergenceError("series did not meet the stopping rule")


def _check_not_half_integer(z, margin=SINGULARITY_MARGIN):
    zc = complex(z)
    nearest = round(zc.real - 0.5) + 0.5
    if abs(zc - nearest) < margin:
        raise ValueError(f"z = {z} is within {margin} of the half-integer lattice")


# ---------------------------------------------------------------------------
# hypergeometric building blocks
# ---------------------------------------------------------------------------


def hyper_G(pc: PrecisionContext, z, s):
    """G(z; s) = sum_m C(2m, m) s^(2m) / (z - m + 1/2)_(2m); G(z; 0) = 1.

    Term recurrence: t_(m+1) = t_m * 2 (2m+1) s^2 / ((m+1)(z-m-1/2)(z+m+1/2)).
    """
    _check_not_half_integer(z)
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    s2 = s * s
    half = ctx.mpf(1) / 2

    def nxt(t, m):
        return t * 2 * (2 * m + 1) * s2 / ((m + 1) * (z - m - half) * (z + m + half))

    value, err = _sum_series(pc, ctx.mpc(1), nxt)
    return value, err


def hyper_Gt(pc: PrecisionContext, z, s):
    """Companion series with shifted lower parameter; Gt(z; 0) = 1.

    t_(m+1) = t_m * 2 (2m+1) s^2 / ((m+1)(z-m-1/2)(z+m+3/2)).
    """
    _check_not_half_integer(z)
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    s2 = s * s
    half = ctx.mpf(1) / 2

    def nxt(t, m):
        return t * 2 * (2 * m + 1) * s2 / ((m + 1) * (z - m - half) * (z + m + 3 * half))

    return _sum_series(pc, ctx.mpc(1), nxt)


# ---------------------------------------------------------------------------
# Bessel machinery
# ---------------------------------------------------------------------------


def bessel_j_mod(pc: PrecisionContext, a, X):
    """Modified Bessel-type series j_a(X) = sum_n (-X)^n / (n! (a + 1/2)_n).

    Entire in X; the parameter must avoid (a + 1/2) in the non-positive
    integers (series poles)."""
    ctx = pc.ctx
    a = pc.mpc(a)
    X = pc.mpc(X)
    half = ctx.mpf(1) / 2

    def nxt(t, n):
        return t * (-X) / ((n + 1) * (a + n + half))

    return _sum_series(pc, ctx.mpc(1), nxt)


def bessel_J(pc: PrecisionContext, nu, y):
    """Bessel function of the first kind via the modified series:

        J_nu(y) = (y/2)^nu / Gamma(nu + 1) * j_(nu + 1/2)(y^2 / 4)

    with the prefactor computed in log space (principal branch of (y/2)^nu).
    """
    ctx = pc.ctx
    nu = pc.mpc(nu)
    y = pc.mpc(y)
    if y == 0:
        if nu == 0:
            return ctx.mpc(1), ctx.mpf(0)
        if nu.real > 0:
            return ctx.mpc(0), ctx.mpf(0)
        raise ValueError("bessel_J at y = 0 diverges for Re(nu) < 0")
    j, err = bessel_j_mod(pc, nu + ctx.mpf(1) / 2, y * y / 4)
    log_pref = nu * ctx.log(y / 2) - ctx.loggamma(nu + 1)
    pref = ctx.exp(log_pref)
    return pref * j, abs(pref) * err


def u_vector(pc: PrecisionContext, z, s):
    """Column vector u(z; s) = (j_z(s^2), s/(z + 1/2) j_(z+1)(s^2))."""
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    X = s * s
    top, _ = bessel_j_mod(pc, z, X)
    bot, _ = bessel_j_mod(pc, z + 1, X)
    return (top, s / (z + ctx.mpf(1) / 2) * bot)


def v_vector(pc: PrecisionContext, z, s):
    """Column vector V(z; s) = (J_(z-1/2)(2s), J_(z+1/2)(2s))."""
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    half = ctx.mpf(1) / 2
    return (bessel_J(pc, z - half, 2 * s)[0], bessel_J(pc, z + half, 2 * s)[0])


# ---------------------------------------------------------------------------
# the matrix B and its factorizations
# ---------------------------------------------------------------------------


class UnitTraceMat2(Mat2):
    """2x2 matrix whose diagonal is built as (1/2 + x, 1/2 - x): the trace
    is the algebraic identity 1, which :meth:`trace` returns exactly (the
    rounded entry sum is available as a diagnostic)."""

    __slots__ = ("_one",)

    def __init__(self, a, b, c, d, one):
        super().__init__(a, b, c, d)
        self._one = one

    def trace(self):
        return self._one

    def entry_trace_residual(self):
        return abs(self.a + self.d - self._one)


def matrix_B(pc: PrecisionContext, z, s) -> Mat2:
    """Unit-trace rank-one matrix assembled from the two hypergeometric
    series.  The diagonal is ((1+G)/2, (1-G)/2), so unit trace holds by
    construction and :meth:`UnitTraceMat2.trace` returns it exactly; det B
    is a diagnostic that must vanish to working precision."""
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    g, _ = hyper_G(pc, z, s)
    gt_up, _ = hyper_Gt(pc, z, s)
    gt_dn, _ = hyper_Gt(pc, z - 1, s)
    b11 = (1 + g) / 2
    b22 = 1 - b11
    b12 = 2 * s / (1 - 2 * z) * gt_dn
    b21 = 2 * s / (1 + 2 * z) * gt_up
    return UnitTraceMat2(b11, b12, b21, b22, ctx.mpc(1))


def rank_one_residuals(pc: PrecisionContext, z, s) -> dict:
    """Diagnostics for B: |det|, and both rank-one factorization residuals

        B = u(z) u(-z)^T = (pi s / cos(pi z)) V(z) V(-z)^T.
    """
    ctx = pc.ctx
    B = matrix_B(pc, z, s)
    uz = u_vector(pc, z, s)
    umz = u_vector(pc, -pc.mpc(z), s)
    outer_u = Mat2(uz[0] * umz[0], uz[0] * umz[1], uz[1] * umz[0], uz[1] * umz[1])
    vz = v_vector(pc, z, s)
    vmz = v_vector(pc, -pc.mpc(z), s)
    pref = ctx.pi * pc.mpc(s) / ctx.cos(ctx.pi * pc.mpc(z))
    outer_v = Mat2(
        pref * vz[0] * vmz[0], pref * vz[0] * vmz[1],
        pref * vz[1] * vmz[0], pref * vz[1] * vmz[1],
    )
    scale = max(abs(e) for e in B.entries())
    du = max(abs(x - y) for x, y in zip(B.entries(), outer_u.entries()))
    dv = max(abs(x - y) for x, y in zip(B.entries(), outer_v.entries()))
    return {
        "trace_minus_one": abs(B.trace() - 1),
        "entry_trace_residual": B.entry_trace_residual(),
        "det": abs(B.det()),
        "u_factorization_rel": du / scale,
        "v_factorization_rel": dv / scale,
    }


def gbb_residuals(pc: PrecisionContext, z, s) -> tuple:
    """The three series-vs-Bessel-product identities behind the rank-one
    factorization, as absolute residuals."""
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    half = ctx.mpf(1) / 2
    g, _ = hyper_G(pc, z, s)
    gt, _ = hyper_Gt(pc, z, s)
    pref = ctx.pi * s / ctx.cos(ctx.pi * z)
    r1 = (1 + g) / 2 - pref * bessel_J(pc, z - half, 2 * s)[0] * bessel_J(pc, -z - half, 2 * s)[0]
    r2 = (1 - g) / 2 - pref * bessel_J(pc, z + half, 2 * s)[0] * bessel_J(pc, -z + half, 2 * s)[0]
    r3 = s / (z + half) * gt - pref * bessel_J(pc, z + half, 2 * s)[0] * bessel_J(
        pc, -z - half, 2 * s
    )[0]
    return (abs(r1), abs(r2), abs(r3))


# ---------------------------------------------------------------------------
# pairing kernels
# ---------------------------------------------------------------------------


def kernel_D(pc: PrecisionContext, a, b, s, route: str = "both", rel_tol=None):
    """Pairing kernel D(a, b; s), by two independent routes:

    * "product":  u(-a)^T u(b) / (a - b)  (Bessel-product definition);
    * "series":   single hypergeometric sum
          1/(a-b) + sum_{n>=1} (a-b-2n+1)_(n-1) s^(2n)
                               / (n! (1/2-a)_n (1/2+b)_n).

    route="both" evaluates both and raises on disagreement.
    """
    ctx = pc.ctx
    a = pc.mpc(a)
    b = pc.mpc(b)
    s = pc.mpc(s)
    if route in ("product", "both") and a == b:
        raise ValueError("the product route needs a != b (diagonal handled by h_1)")

    def series_route():
        half = ctx.mpf(1) / 2
        s2 = s * s
        total = 1 / (a - b)
        # t_n for n >= 1 by direct recurrence on the three Pochhammer parts
        t = s2 / ((half - a) * (half + b))  # n = 1 term: (a-b-1)_0 = 1
        total += t
        small = 0
        threshold = pc.tol()
        n = 1
        while n < MAX_TERMS:
            # ratio t_(n+1)/t_n:
            #   (a-b-2n-1)_n / (a-b-2n+1)_(n-1) = (a-b-2n-1)(a-b-2n)/(a-b-n-1)
            #   times s^2 / ( (n+1) (1/2-a+n) (1/2+b+n) )
            num = (a - b - 2 * n - 1) * (a - b - 2 * n)
            den = (a - b - n - 1) * (n + 1) * (half - a + n) * (half + b + n)
            t = t * num / den * s2
            total += t
            if abs(t) < threshold * abs(total):
                small += 1
                if small >= 3:
                    return total, abs(t) * 4
            else:
                small = 0
            n += 1
        raise SeriesDivergenceError("kernel series did not converge")

    def product_route():
        uma = u_vector(pc, -a, s)
        ub = u_vector(pc, b, s)
        return (uma[0] * ub[0] + uma[1] * ub[1]) / (a - b)

    if route == "series":
        return series_route()[0]
    if route == "product":
        return product_route()
    if route != "both":
        raise ValueError("route must be 'series', 'product' or 'both'")
    v1, err = series_route()
    v2 = product_route()
    tol = rel_tol if rel_tol is not None else pc.tol(16) * 100
    scale = max(abs(v1), abs(v2))
    if scale == 0:
        scale = ctx.mpf(1)
    if abs(v1 - v2) / scale > tol:
        raise RouteDisagreement(
            f"kernel routes differ by {abs(v1 - v2) / scale} at (a={a}, b={b}, s={s})"
        )
    return v1


def kernel_Dstar(pc: PrecisionContext, a, b, s):
    """Gamma-rescaled kernel: V(-a)^T V(b) / (a - b)."""
    a = pc.mpc(a)
    b = pc.mpc(b)
    s = pc.mpc(s)
    vma = v_vector(pc, -a, s)
    vb = v_vector(pc, b, s)
    return (vma[0] * vb[0] + vma[1] * vb[1]) / (a - b)


# ---------------------------------------------------------------------------
# analytic k-point functions
# ---------------------------------------------------------------------------


def h_k(pc: PrecisionContext, zs, s, route: str = "trace"):
    """Analytic k-point function (k >= 2) by the trace-product or the
    factorized kernel route; includes the double-pole subtraction at k = 2.

    Near-diagonal points (min pairwise gap below 1e-3) are rerouted through
    the commutator rearrangement, which is finite on diagonals.
    """
    k = len(zs)
    if k < 2:
        raise ValueError("h_k requires k >= 2")
    ctx = pc.ctx
    zs = [pc.mpc(z) for z in zs]
    gap = min(abs(zs[i] - zs[j]) for i in range(k) for j in range(i + 1, k))
    if gap < NEAR_DIAGONAL:
        return _h_k_near_diagonal(pc, zs, s)
    s = pc.mpc(s)
    total = ctx.mpc(0)
    if route == "trace":
        Bs = [matrix_B(pc, z, s) for z in zs]
        for sigma in coset_reps(k, first=0):
            prod = Bs[sigma[0]]
            for i in sigma[1:]:
                prod = prod * Bs[i]
            den = ctx.mpc(1)
            for i in range(k):
                den *= zs[sigma[i]] - zs[sigma[(i + 1) % k]]
            total += prod.trace() / den
    elif route == "factorized":
        cache = {}

        def dk(i, j):
            if (i, j) not in cache:
                cache[(i, j)] = kernel_D(pc, zs[i], zs[j], s, route="series")
            return cache[(i, j)]

        for sigma in coset_reps(k, first=0):
            prod = ctx.mpc(1)
            for i in range(k):
                prod *= dk(sigma[i], sigma[(i + 1) % k])
            total += prod
    else:
        raise ValueError("route must be 'trace' or 'factorized'")
    value = -total
    if k == 2:
        value -= 1 / (zs[0] - zs[1]) ** 2
    return value


def _h_k_near_diagonal(pc: PrecisionContext, zs, s):
    """Commutator rearrangement, finite on diagonals.

    For k = 2 the symmetric difference-quotient form is used; for k >= 3 the
    last variable is routed into commutators against the others."""
    ctx = pc.ctx
    k = len(zs)
    s = pc.mpc(s)
    if k == 2:
        B1 = matrix_B(pc, zs[0], s)
        B2 = matrix_B(pc, zs[1], s)
        Q = (B1 - B2) * (1 / (zs[0] - zs[1]))
        return -(Q * Q).trace() / 2
    # place the member of the closest pair last
    gap, pair = min(
        ((abs(zs[i] - zs[j]), (i, j)) for i in range(k) for j in range(i + 1, k)),
        key=lambda t: t[0],
    )
    order = [i for i in range(k) if i != pair[1]] + [pair[1]]
    zz = [zs[i] for i in order]
    Bs = [matrix_B(pc, z, s) for z in zz]
    zk = zz[-1]
    Bk = Bs[-1]
    total = ctx.mpc(0)
    for sigma in coset_reps(k - 1, first=0):
        for jpos in range(k - 1):
            prod = None
            for t in range(k - 1):
                fac = Bs[sigma[t]]
                if t == jpos:
                    fac = (Bk * fac - fac * Bk) * (1 / (zk - zz[sigma[t]]))
                prod = fac if prod is None else prod * fac
            den = ctx.mpc(1)
            for i in range(k - 1):
                den *= zz[sigma[i]] - zz[sigma[(i + 1) % (k - 1)]]
            total += prod.trace() / den
    return -total


def h_2_difference_form(pc: PrecisionContext, z1, z2, s):
    """Second organization of the two-point function:
    -(1/2) tr [ (B(z1) - B(z2)) / (z1 - z2) ]^2."""
    z1 = pc.mpc(z1)
    z2 = pc.mpc(z2)
    B1 = matrix_B(pc, z1, s)
    B2 = matrix_B(pc, z2, s)
    Q = (B1 - B2) * (1 / (z1 - z2))
    return -(Q * Q).trace() / 2


# ---------------------------------------------------------------------------
# one-point functions
# ---------------------------------------------------------------------------


def h_1(pc: PrecisionContext, z, s):
    """One-point kernel by its explicit sum:

        H1(z; s) = sum_{n>=1} (2n-1)! s^(2n) / (n!^2 (z-n+1/2)_(2n));
        H1(z; 0) = 0.
    """
    _check_not_half_integer(z)
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    if s == 0:
        return ctx.mpc(0), ctx.mpf(0)
    half = ctx.mpf(1) / 2
    s2 = s * s
    t1 = s2 / ((z - half) * (z + half))

    def nxt(t, m):
        n = m + 1  # current index produced t_n; build t_(n+1)
        return t * (2 * n) * (2 * n + 1) * s2 / ((n + 1) ** 2 * (z - n - half) * (z + n + half))

    return _sum_series(pc, t1, nxt)


def h_1_star(pc: PrecisionContext, z, s, dnu_step=None):
    """Gamma-rescaled one-point kernel by the Bessel order-derivative form:

        (pi s / cos(pi z)) [ J_(-1/2-z)(2s) d/dz J_(-1/2+z)(2s)
                             + J_(1/2-z)(2s)  d/dz J_(1/2+z)(2s) ].

    The order derivative is a central finite difference at step
    2^(-working_bits/3), evaluated at doubled working precision so the
    O(h^2) truncation error lands below the caller's full tolerance.
    """
    _check_not_half_integer(z)
    inner = PrecisionContext(2 * pc.bits)
    ctx = inner.ctx
    z = inner.mpc(z)
    s = inner.mpc(s)
    h = ctx.mpf(2) ** (-(inner.bits // 3)) if dnu_step is None else ctx.mpf(dnu_step)
    half = ctx.mpf(1) / 2
    y = 2 * s

    def dJ(nu):
        return (bessel_J(inner, nu + h, y)[0] - bessel_J(inner, nu - h, y)[0]) / (2 * h)

    pref = ctx.pi * s / ctx.cos(ctx.pi * z)
    val = pref * (
        bessel_J(inner, -half - z, y)[0] * dJ(-half + z)
        + bessel_J(inner, half - z, y)[0] * dJ(half + z)
    )
    return pc.mpc(val)


def digamma(pc: PrecisionContext, x):
    """Digamma by upward recurrence to |x| > 20 plus the Bernoulli-number
    asymptotic series; used only as the relation diagnostic between the two
    one-point kernels."""
    ctx = pc.ctx
    x = pc.mpc(x)
    shift = ctx.mpc(0)
    while abs(x) <= 20:
        shift -= 1 / x
        x += 1
    # psi(x) ~ log x - 1/(2x) - sum B_2n / (2n x^2n)
    val = ctx.log(x) - 1 / (2 * x)
    x2 = x * x
    pw = x2
    n = 1
    threshold = pc.tol()
    while True:
        b = bernoulli_number(2 * n)
        term = ctx.mpf(b.numerator) / ctx.mpf(b.denominator) / (2 * n) / pw
        val -= term
        if abs(term) < threshold * max(abs(val), ctx.mpf(1e-300)):
            break
        pw *= x2
        n += 1
        if n > 400:  # asymptotic series: stop before divergence
            break
    return val + shift


def h1_relation_residual(pc: PrecisionContext, z, s):
    """|H1*(z;s) - H1(z;s) - log s + psi(1/2 + z)| (diagnostic)."""
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    lhs = h_1_star(pc, z, s)
    rhs = h_1(pc, z, s)[0] + ctx.log(s) - digamma(pc, ctx.mpf(1) / 2 + z)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# asymptotic-matching diagnostics
# ---------------------------------------------------------------------------


def asymptotic_matching_residuals(pc: PrecisionContext, z, s=1, N: int = 10):
    """Entrywise check that B matches the formal resolvent series: returns
    (residuals, bounds) where bounds are twice the first nonzero omitted
    term of each entry (the classic asymptotic-series error estimate)."""
    from gwp1.resolvent import closed_form_M

    ctx = pc.ctx
    z = pc.mpc(z)
    s_val = pc.mpc(s)
    R = closed_form_M(N + 4)
    m = R.matrix()
    B = matrix_B(pc, z, s_val)
    residuals = []
    bounds = []
    for entry_series, b_val in zip(m.entries(), B.entries()):
        partial = ctx.mpc(0)
        for (j,), poly in sorted(entry_series.terms.items()):
            if j > N:
                continue
            c = poly.eval_numeric(ctx, {"s": s_val})
            partial += c * z ** (-j) if j else c
        # first omitted nonzero term
        bound = None
        for (j,), poly in sorted(entry_series.terms.items()):
            if j > N:
                c = poly.eval_numeric(ctx, {"s": s_val})
                bound = 2 * abs(c) * abs(z) ** (-j)
                break
        residuals.append(abs(b_val - partial))
        bounds.append(bound if bound is not None else ctx.mpf(0))
    return residuals, bounds


def kernel_large_order_coefficients(pc: PrecisionContext, s, P: int, n_max: int = 40):
    """Coefficients c[p][q] of the large-argument expansion of the pairing
    kernel minus its leading pole:

        D(a, b; s) - 1/(a-b) ~ sum_{p,q>=0} c_pq a^-(p+1) b^-(q+1),

        c_pq = (-1)^(q+1) sum_{n>=1} s^(2n)/n!
               sum_{1<=i,j<=n, i+j<=n+1} (-1)^(i+j) (i+j-2n)_(n-1)
                     (i-1/2)^p (j-1/2)^q / ((i-1)!(j-1)!(n-i)!(n-j)!)

    (double partial-fraction development of the kernel series; terms with
    i + j in [n+2, 2n] vanish because the Pochhammer factor does).
    """
    from math import factorial

    ctx = pc.ctx
    s = pc.mpc(s)
    out = [[ctx.mpc(0) for _ in range(P + 1)] for _ in range(P + 1)]
    threshold = pc.tol()
    for n in range(1, n_max + 1):
        s2n = s ** (2 * n)
        pref = -s2n / factorial(n)
        if abs(pref) < threshold:
            break
        for i in range(1, n + 1):
            for j in range(1, n + 2 - i):
                poch = ctx.mpf(1)
                x = i + j - 2 * n
                for t in range(n - 1):
                    poch *= x + t
                if poch == 0:
                    continue
                base = (
                    pref
                    * (-1) ** (i + j)
                    * poch
                    / (
                        factorial(i - 1)
                        * factorial(j - 1)
                        * factorial(n - i)
                        * factorial(n - j)
                    )
                )
                ai = ctx.mpf(2 * i - 1) / 2
                bj = ctx.mpf(2 * j - 1) / 2
                pw_a = ctx.mpf(1)
                for p in range(P + 1):
                    pw_b = ctx.mpf(1)
                    for q in range(P + 1):
                        out[p][q] += (-1) ** q * base * pw_a * pw_b
                        pw_b *= bj
                    pw_a *= ai
    return out


def kernel_large_order_check(pc: PrecisionContext, a, b, s=1, P: int = 4):
    """Residual of the large-(a,b) kernel expansion through orders <= P and
    twice the first-omitted-order bound; residual <= bound is the pass."""
    ctx = pc.ctx
    a = pc.mpc(a)
    b = pc.mpc(b)
    s = pc.mpc(s)
    coeffs = kernel_large_order_coefficients(pc, s, P + 1)
    val = kernel_D(pc, a, b, s, route="series") - 1 / (a - b)
    model = ctx.mpc(0)
    for p in range(P + 1):
        for q in range(P + 1):
            model += coeffs[p][q] * a ** (-p - 1) * b ** (-q - 1)
    bound = ctx.mpf(0)
    for p in range(P + 2):
        for q in range(P + 2):
            if p <= P and q <= P:
                continue
            bound += abs(coeffs[p][q]) * abs(a) ** (-p - 1) * abs(b) ** (-q - 1)
    return abs(val - model), 2 * bound

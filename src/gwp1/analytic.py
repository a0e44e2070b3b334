"""Configurable-precision evaluation of the analytic k-point machinery.

Everything is computed from two hypergeometric-type series (``hyper_G``,
``hyper_Gt``) and a modified Bessel series, combined into the rank-one
unit-trace matrix ``B``, the pairing kernels ``D``/``D*`` and the analytic
k-point functions.  Each headline object has at least two evaluation routes
that are required to agree within tolerance.

Precision is a value: every entry point takes a :class:`PrecisionContext`
wrapping an independent mpmath context, so concurrent evaluations never
share ambient state.  The series drivers pick their own working precision
from the cancellation they measure (:func:`_drive`) and round their results
back to the caller's precision.
"""

from __future__ import annotations

import contextvars
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from gwp1.ring.mat2 import Mat2
from gwp1.ring.numbers import coset_reps

DEFAULT_BITS = 128
SINGULARITY_MARGIN = 1e-6
NEAR_DIAGONAL = 1e-3
MAX_TERMS = 10 ** 6
GUARD_BITS = 24
MAX_WORKING_BITS = 1 << 15


class SeriesDivergenceError(ArithmeticError):
    """The stopping rule was not met within the term budget."""


class RouteDisagreement(ArithmeticError):
    """Two independent evaluation routes differ beyond tolerance."""


class PrecisionCapError(ArithmeticError):
    """The requested bits plus the bits lost to cancellation exceed
    MAX_WORKING_BITS."""


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


def required_bits(z, s, base: int = DEFAULT_BITS) -> int:
    """Precision to request at (z, s): always `base`.

    The series drivers raise their own working precision by the bits they
    measure lost to cancellation, so no point needs more than the accuracy
    the caller wants.  Kept for the benchmark workloads, which call it."""
    return base


@dataclass
class PrecisionLog:
    """What the series drivers run inside :func:`precision_log` did: the
    largest working precision, the most bits lost to cancellation in one
    sum, and how many sums were rerun at a higher precision."""

    working_bits: int = 0
    bits_lost: int = 0
    retries: int = 0


_LOG: contextvars.ContextVar = contextvars.ContextVar("gwp1_precision_log", default=None)


@contextmanager
def precision_log():
    """Record the drivers' working precision into a fresh
    :class:`PrecisionLog` for the duration of the block (opt-in; per
    thread and per asyncio task)."""
    log = PrecisionLog()
    token = _LOG.set(log)
    try:
        yield log
    finally:
        _LOG.reset(token)


# ---------------------------------------------------------------------------
# series drivers
#
# A series is given by a builder: build(ctx) returns (first terms, ratios),
# where ratios(n) lists t_(n+1)/t_n for each series summed in the loop.  With
# ctx None the parameters are python complex numbers, which gives the float
# walk that predicts the cancellation; otherwise they live in ctx.
# ---------------------------------------------------------------------------


_WORK = threading.local()


def _work_ctx(bits: int):
    """This thread's working context, set to `bits`.  One context per thread
    serves every driver call: a clone costs about a millisecond and 40 kB,
    and mpmath caches constants per precision.  Values computed in it keep
    their precision when it is reset, so a caller only has to finish its
    arithmetic in the context before the next driver call."""
    ctx = getattr(_WORK, "ctx", None)
    if ctx is None:
        ctx = _WORK.ctx = mpmath.mp.clone()
    ctx.prec = bits
    return ctx


def _num(ctx, x):
    """x as a python complex (ctx None) or in ctx, real when its imaginary
    part is zero (real arithmetic is several times cheaper)."""
    if ctx is None:
        return complex(x)
    x = ctx.convert(x)
    return x.real if isinstance(x, ctx.mpc) and not x.imag else x


def _predict(build, target_bits: int):
    """Float walk of log2 |t_n / t_0|: (predicted bits lost, terms summed).

    The loss predicted for a sum is how far its largest term rises above
    its first one; the walk stops where the sums would stop."""
    firsts, ratios = build(None)
    logs = [0.0] * len(firsts)
    peaks = [0.0] * len(firsts)
    for n in range(MAX_TERMS):
        below = True
        for i, r in enumerate(ratios(n)):
            r = abs(r)
            logs[i] = logs[i] + math.log2(r) if r else -math.inf
            peaks[i] = max(peaks[i], logs[i])
            below = below and logs[i] < peaks[i] - target_bits and r < 1
        if below:
            return math.ceil(max(peaks)), n + 1
    return math.ceil(max(peaks)), MAX_TERMS


def _sum_series(ctx, firsts, ratios, target_bits: int):
    """Sum the series of one builder in one loop at ctx's precision.

    A series stops once three consecutive terms lie below
    2^-target_bits times its partial sum, compared on exponents.  Returns
    (sums, error bounds, bits lost): the loss of a sum is how far its
    largest term lies above it.  A bound covers truncation (four times the
    last term) and rounding: each term carries the relative rounding error
    of all ratios before it, at most 32 n 2^-prec, and each addition
    rounds, so N terms below 2^peak contribute under 2^(peak+5-prec) N^2.
    A series whose terms are all 0 has the exact bound 0."""
    mag = ctx.mag
    terms = list(firsts)
    sums = list(firsts)
    peaks = [mag(t) for t in terms]
    small = [0] * len(terms)
    for n in range(MAX_TERMS):
        done = True
        for i, r in enumerate(ratios(n)):
            t = terms[i] = terms[i] * r
            sums[i] += t
            mt = mag(t)
            if mt > peaks[i]:
                peaks[i] = mt
            if not t or mt + target_bits < mag(sums[i]):
                small[i] += 1
                done = done and small[i] >= 3
            else:
                small[i] = 0
                done = False
        if done:
            break
    else:
        raise SeriesDivergenceError("series did not meet the stopping rule")
    n_terms = n + 2
    errs = [ctx.ldexp(n_terms * n_terms, p + 5 - ctx.prec) + 4 * abs(t)
            if not ctx.isinf(p) else ctx.zero for p, t in zip(peaks, terms)]
    lost = max(_loss(ctx, p, v) for p, v in zip(peaks, sums))
    return sums, errs, lost


def _loss(ctx, peak, value) -> int:
    """Bits by which 2^peak exceeds |value|: all of them when value is 0,
    none when 2^peak is 0 as well (a series of zero terms sums to an exact 0)."""
    if value:
        return max(0, int(peak - ctx.mag(value)))
    return 0 if ctx.isinf(peak) else ctx.prec


def _drive(pc: PrecisionContext, build):
    """Sum a builder's series at the precision its cancellation needs.

    The first run is at pc.bits + predicted loss + rounding bits + guard
    bits.  When a sum's error bound misses 2^-pc.bits relative, the run is
    repeated with the missing bits plus the guard added, up to
    MAX_WORKING_BITS (then :class:`PrecisionCapError`).  A term that divides
    by zero at working precision is a pole of the series (ValueError); one
    that does so only in the float walk leaves the precision to the retries.
    Returns the working context (see :func:`_work_ctx`), the sums and their
    error bounds, all at working precision."""
    bits = pc.bits
    try:
        predicted, n_terms = _predict(build, bits + GUARD_BITS)
    except ZeroDivisionError:
        predicted, n_terms = 0, 0
    wp = bits + predicted + (32 * n_terms * n_terms).bit_length() + GUARD_BITS
    retries = 0
    while True:
        if wp > MAX_WORKING_BITS:
            raise PrecisionCapError(
                f"working precision {wp} bits (the requested {bits} plus cancellation "
                f"and guard bits) exceeds the cap of {MAX_WORKING_BITS} bits")
        ctx = _work_ctx(wp)
        try:
            sums, errs, lost = _sum_series(ctx, *build(ctx), bits + GUARD_BITS)
        except ZeroDivisionError:
            raise ValueError("pole of the series: a term divides by zero at these "
                             "parameters") from None
        missing = max(_loss(ctx, ctx.mag(e) + bits + 1, v) for e, v in zip(errs, sums))
        if not missing:
            break
        wp += missing + GUARD_BITS
        retries += 1
    log = _LOG.get()
    if log is not None:
        log.working_bits = max(log.working_bits, wp)
        log.bits_lost = max(log.bits_lost, lost)
        log.retries += retries
    return ctx, sums, errs


def _rounded(pc: PrecisionContext, value, err):
    """(value, err) from working precision in pc: err grows by the rounding."""
    if value:
        err = err + pc.ctx.ldexp(1, pc.ctx.mag(value) - pc.bits)
    return pc.mpc(value), pc.ctx.mpf(err)


def _check_not_half_integer(z):
    """Reject z within SINGULARITY_MARGIN of the half-integer lattice.  The offset
    frac(Re z) - 1/2 from the nearest lattice point is exact in the context
    of z (mpmath's default one for a Python number); binary64 rounds the
    fractional part away once |Re z| is large."""
    ctx = getattr(z, "context", mpmath.mp)
    w = ctx.convert(z)
    if abs(ctx.mpc(ctx.frac(ctx.re(w)) - 0.5, ctx.im(w))) < SINGULARITY_MARGIN:
        raise ValueError(f"z = {z} is within {SINGULARITY_MARGIN} of the half-integer lattice")


# ---------------------------------------------------------------------------
# hypergeometric building blocks
# ---------------------------------------------------------------------------


def _g_series(z, s, shifts, tail=False):
    """Builder for the G family, one series per (a, b) in shifts:

        t_0 = 1,  t_(m+1) = t_m * 2 (2m+1) s^2 / ((m+1)(z-m-a)(z+m+b)).

    (1/2, 1/2) is G(z), (1/2, 3/2) is Gt(z) and (3/2, 1/2) is Gt(z-1); the
    sums share s^2 and the factor 2 (2m+1)/(m+1).  With ``tail`` a first
    series, G(z) from t_1 on, comes before those of shifts: it sums G - 1
    without cancelling against the 1."""

    def build(ctx):
        z_, s_ = _num(ctx, z), _num(ctx, s)
        s2 = s_ * s_
        lows = [z_ - a for a, _ in shifts]
        highs = [z_ + b for _, b in shifts]

        def ratios(m, c=None):
            c = s2 * (4 * m + 2) / (m + 1) if c is None else c
            return [c / ((lo - m) * (hi + m)) for lo, hi in zip(lows, highs)]

        if not tail:
            return [1] * len(shifts), ratios
        # the ratio of G - 1 at m is that of G at m + 1, whose factor c is
        # kept for the step m + 1 of the other series (m runs 0, 1, 2, ...)
        lo, hi = z_ - 1.5, z_ + 1.5
        cs = [2 * s2]

        def with_tail(m):
            c, cs[0] = cs[0], s2 * (4 * m + 6) / (m + 2)
            return [cs[0] / ((lo - m) * (hi + m))] + ratios(m, c)

        return [2 * s2 / ((z_ - 0.5) * (z_ + 0.5))] + [1] * len(shifts), with_tail

    return build


def hyper_G(pc: PrecisionContext, z, s):
    """G(z; s) = sum_m C(2m, m) s^(2m) / (z - m + 1/2)_(2m); G(z; 0) = 1.

    Term recurrence: t_(m+1) = t_m * 2 (2m+1) s^2 / ((m+1)(z-m-1/2)(z+m+1/2)).
    Returns (value, error bound).
    """
    _check_not_half_integer(z)
    _, (g,), (err,) = _drive(pc, _g_series(pc.mpc(z), pc.mpc(s), [(0.5, 0.5)]))
    return _rounded(pc, g, err)


def hyper_Gt(pc: PrecisionContext, z, s):
    """Companion series with shifted lower parameter; Gt(z; 0) = 1.

    t_(m+1) = t_m * 2 (2m+1) s^2 / ((m+1)(z-m-1/2)(z+m+3/2)).
    """
    _check_not_half_integer(z)
    _, (gt,), (err,) = _drive(pc, _g_series(pc.mpc(z), pc.mpc(s), [(0.5, 1.5)]))
    return _rounded(pc, gt, err)


# ---------------------------------------------------------------------------
# Bessel machinery
# ---------------------------------------------------------------------------


def _j_series(params):
    """Builder for j_a(X) at each a of (as, X) = params(ctx), computed at
    the working precision:

        t_0 = 1,  t_(n+1) = t_n * (-X) / ((n+1)(a+n+1/2))."""

    def build(ctx):
        as_, X = params(ctx)
        ahs, mX = [a + 0.5 for a in as_], -X
        return [1] * len(ahs), lambda n: [mX / ((n + 1) * (ah + n)) for ah in ahs]

    return build


def bessel_j_mod(pc: PrecisionContext, a, X):
    """Modified Bessel-type series j_a(X) = sum_n (-X)^n / (n! (a + 1/2)_n).

    Entire in X; the parameter must avoid (a + 1/2) in the non-positive
    integers (series poles).  Returns (value, error bound)."""
    a, X = pc.mpc(a), pc.mpc(X)
    _, (j,), (err,) = _drive(pc, _j_series(lambda c: ([_num(c, a)], _num(c, X))))
    return _rounded(pc, j, err)


def bessel_J(pc: PrecisionContext, nu, y):
    """Bessel function of the first kind via the modified series:

        J_nu(y) = (y/2)^nu / Gamma(nu + 1) * j_(nu + 1/2)(y^2 / 4)

    with the prefactor computed in log space (principal branch of (y/2)^nu)
    with GUARD_BITS extra bits, which absorb the error of exponentiating the
    logarithm.
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
    wctx, (j,), (err,) = _drive(
        pc, _j_series(lambda c: ([_num(c, nu) + 0.5], _num(c, y) ** 2 / 4)))
    wctx.prec = pc.bits + GUARD_BITS
    nu, y = wctx.convert(nu), wctx.convert(y)
    pref = wctx.exp(nu * wctx.log(y / 2) - wctx.loggamma(nu + 1))
    return _rounded(pc, pref * j, abs(pref) * err)


def u_vector(pc: PrecisionContext, z, s):
    """Column vector u(z; s) = (j_z(s^2), s/(z + 1/2) j_(z+1)(s^2))."""
    z = pc.mpc(z)
    s = pc.mpc(s)

    def params(c):
        z_ = _num(c, z)
        return [z_, z_ + 1], _num(c, s) ** 2

    wctx, (top, bot), _ = _drive(pc, _j_series(params))
    z_, s_ = wctx.convert(z), wctx.convert(s)
    return (pc.mpc(top), pc.mpc(s_ / (z_ + 0.5) * bot))


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
    """Unit-trace rank-one matrix assembled from the series G(z), Gt(z) and
    Gt(z-1), summed in one loop, G as its tail T = G - 1.  The diagonal is
    (1 + T/2, -T/2), so B_22 = (1 - G)/2 keeps the relative accuracy of T
    even where G is close to 1; unit trace holds by construction and
    :meth:`UnitTraceMat2.trace` returns it exactly; det B is a diagnostic
    that must vanish to working precision.  The entries are assembled at
    working precision and then rounded to pc."""
    _check_not_half_integer(z)
    z = pc.mpc(z)
    s = pc.mpc(s)
    ctx, (t, gt_up, gt_dn), _ = _drive(
        pc, _g_series(z, s, [(0.5, 1.5), (1.5, 0.5)], tail=True))
    z, s = _num(ctx, z), _num(ctx, s)
    entries = (1 + t / 2, 2 * s / (1 - 2 * z) * gt_dn, 2 * s / (1 + 2 * z) * gt_up, -t / 2)
    return UnitTraceMat2(*(pc.mpc(e) for e in entries), pc.ctx.mpc(1))


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


def _kernel_series(a, b, s):
    """Builder for the kernel series: t_0 = 1/(a-b), t_1 = s^2/((1/2-a)(1/2+b))
    and, from the Pochhammer parts, with d = a - b,

        t_(n+1)/t_n = (d-2n-1)(d-2n) s^2 / ((d-n-1)(n+1)(1/2-a+n)(1/2+b+n)).

    When d is an integer >= 2, (d-2n+1)_(n-1) vanishes for (d+1)/2 <= n < d
    and the ratio into t_d is 0/0: the terms up to n = d//2 and those from
    n = d on are summed as two series, the second started from its
    Pochhammer value t_d = (-1)^(d-1) s^(2d) / (d (1/2-a)_d (1/2+b)_d),
    which mpmath's rf gives at a cost that does not grow with d (the float
    walk reads only the ratios and leaves it out)."""

    def build(ctx):
        a_, b_, s_ = _num(ctx, a), _num(ctx, b), _num(ctx, s)
        d, s2, ha, hb = a_ - b_, s_ * s_, 0.5 - a_, 0.5 + b_

        def ratio(n):
            if n == 0:
                return s2 * d / (ha * hb)
            return ((d - 2 * n - 1) * (d - 2 * n) * s2
                    / ((d - n - 1) * (n + 1) * (ha + n) * (hb + n)))

        m = int(d.real)
        if m < 2 or d != m:
            return [1 / d], lambda n: [ratio(n)]
        t_m = None if ctx is None else (
            (-1) ** (m - 1) * s2 ** m / (m * ctx.rf(ha, m) * ctx.rf(hb, m)))
        return [1 / d, t_m], lambda n: [ratio(n) if n < m // 2 else 0, ratio(n + m)]

    return build


def kernel_D(pc: PrecisionContext, a, b, s, route: str = "both"):
    """Pairing kernel D(a, b; s), by two independent routes:

    * "product":  u(-a)^T u(b) / (a - b)  (Bessel-product definition);
    * "series":   single hypergeometric sum
          1/(a-b) + sum_{n>=1} (a-b-2n+1)_(n-1) s^(2n)
                               / (n! (1/2-a)_n (1/2+b)_n).

    route="both" evaluates both and raises on a relative disagreement above
    100 * 2^-(bits-16).
    """
    ctx = pc.ctx
    a = pc.mpc(a)
    b = pc.mpc(b)
    s = pc.mpc(s)
    if route in ("product", "both") and a == b:
        raise ValueError("the product route needs a != b (diagonal handled by h_1)")

    def series_route():
        _, sums, errs = _drive(pc, _kernel_series(a, b, s))
        return _rounded(pc, sum(sums), sum(errs))[0]

    def product_route():
        uma = u_vector(pc, -a, s)
        ub = u_vector(pc, b, s)
        return (uma[0] * ub[0] + uma[1] * ub[1]) / (a - b)

    if route == "series":
        return series_route()
    if route == "product":
        return product_route()
    if route != "both":
        raise ValueError("route must be 'series', 'product' or 'both'")
    v1 = series_route()
    v2 = product_route()
    tol = 100 * ctx.mpf(2) ** (16 - pc.bits)
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
    if a == b:
        raise ValueError("the rescaled kernel needs a != b (diagonal handled by h_1_star)")
    vma = v_vector(pc, -a, s)
    vb = v_vector(pc, b, s)
    return (vma[0] * vb[0] + vma[1] * vb[1]) / (a - b)


# ---------------------------------------------------------------------------
# analytic k-point functions
# ---------------------------------------------------------------------------


def h_k(pc: PrecisionContext, zs, s, route: str = "trace"):
    """Analytic k-point function (k >= 2) by the trace-product or the
    factorized kernel route; includes the double-pole subtraction at k = 2.

    Near-diagonal points (min pairwise gap below 1e-3) use the commutator
    rearrangement, which is finite on diagonals, for either route;
    coincident points raise ValueError (the diagonal limit is not
    implemented).
    """
    k = len(zs)
    if k < 2:
        raise ValueError("h_k requires k >= 2")
    if route not in ("trace", "factorized"):
        raise ValueError("route must be 'trace' or 'factorized'")
    ctx = pc.ctx
    zs = [pc.mpc(z) for z in zs]
    s = pc.mpc(s)
    gap = min(abs(zs[i] - zs[j]) for i in range(k) for j in range(i + 1, k))
    if gap == 0:
        raise ValueError("h_k needs pairwise distinct points")
    if gap < NEAR_DIAGONAL:
        # B(z_i) - B(z_j) cancels about log2(1/gap) leading bits
        wpc = PrecisionContext(pc.bits + 1 - ctx.mag(gap))
        return pc.mpc(_h_k_near_diagonal(wpc, [wpc.mpc(z) for z in zs], wpc.mpc(s)))
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
    else:
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
        return h_2_difference_form(pc, zs[0], zs[1], s)
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


def _h1_series(z, s, star=False):
    """Builder for H1(z; s) from its first term s^2 / ((z-1/2)(z+1/2)):

        t_(n+1)/t_n = 2n (2n+1) s^2 / ((n+1)^2 (z-n-1/2)(z+n+1/2)),  n >= 1.

    With ``star`` the series starts one term earlier, at ln s - psi(1/2 + z),
    and sums H1*(z; s); the float walk takes that term from mpmath's fp."""

    def build(c):
        z_, s_ = _num(c, z), _num(c, s)
        s2, lo, hi = s_ * s_, z_ - 0.5, z_ + 0.5

        def ratios(m):  # t_(n+1)/t_n with n = m + 1
            n = m + 1
            return [(2 * n) * (2 * n + 1) * s2 / ((n + 1) ** 2 * (lo - n) * (hi + n))]

        t1 = s2 / (lo * hi)
        if not star:
            return [t1], ratios
        f = c or mpmath.fp
        t0 = f.log(s_) - f.digamma(0.5 + z_)
        return [t0], lambda m: [t1 / t0] if m == 0 else ratios(m - 1)

    return build


def h_1(pc: PrecisionContext, z, s):
    """One-point kernel by its explicit sum:

        H1(z; s) = sum_{n>=1} (2n-1)! s^(2n) / (n!^2 (z-n+1/2)_(2n));
        H1(z; 0) = 0.

    Returns (value, error bound).
    """
    _check_not_half_integer(z)
    ctx = pc.ctx
    z = pc.mpc(z)
    s = pc.mpc(s)
    if s == 0:
        return ctx.mpc(0), ctx.mpf(0)
    _, (total,), (err,) = _drive(pc, _h1_series(z, s))
    return _rounded(pc, total, err)


def h_1_star(pc: PrecisionContext, z, s):
    """Gamma-rescaled one-point kernel by the digamma identity

        H1*(z; s) = ln s - psi(1/2 + z) + H1(z; s)

    (principal branch of ln), summed as one series by :func:`_drive`, so
    the cancellation of its terms near a zero of H1* sets the working
    precision.  mpmath's ln and psi carry no certified bound; the guard
    bits of the working precision absorb their rounding.  H1* has a
    logarithmic singularity at s = 0 (ValueError).
    """
    _check_not_half_integer(z)
    z = pc.mpc(z)
    s = pc.mpc(s)
    if s == 0:
        raise ValueError("H1*(z; s) has a logarithmic singularity at s = 0")
    _, (total,), _ = _drive(pc, _h1_series(z, s, star=True))
    return pc.mpc(total)


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

"""Analytic evaluation: series building blocks against closed-form oracles,
rank-one structure, kernel routes, k-point route agreement, one-point
identities and the asymptotic-matching diagnostics."""

import cmath
import itertools
import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from gwp1 import analytic
from gwp1.analytic import (
    PrecisionCapError,
    PrecisionContext,
    RouteDisagreement,
    asymptotic_matching_residuals,
    bessel_J,
    bessel_j_mod,
    gbb_residuals,
    h_1,
    h_1_star,
    h_2_difference_form,
    h_k,
    hyper_G,
    hyper_Gt,
    kernel_D,
    kernel_Dstar,
    matrix_B,
    precision_log,
    rank_one_residuals,
    required_bits,
)


@pytest.fixture(scope="module")
def pc():
    return PrecisionContext(128)


def tol(pc, slack=8):
    return pc.ctx.mpf(10) ** (-(pc.bits * 301 // 1000) + slack)


class TestHyperSeries:
    def test_value_at_zero_coupling(self, pc):
        assert hyper_G(pc, 0.3, 0)[0] == 1
        assert hyper_Gt(pc, 0.3, 0)[0] == 1

    def test_shift_averaging_identity(self, pc):
        ctx = pc.ctx
        z, s = ctx.mpf("0.3"), ctx.mpf("1.1")
        gt = hyper_Gt(pc, z, s)[0]
        avg = (hyper_G(pc, z, s)[0] + hyper_G(pc, z + 1, s)[0]) / 2
        assert abs(gt - avg) < tol(pc)

    def test_three_term_difference_identity(self, pc):
        ctx = pc.ctx
        z, s = ctx.mpf("0.8"), ctx.mpf("1.1")
        half = ctx.mpf(1) / 2
        lhs = hyper_Gt(pc, z + half, s)[0] / (z + 1) - hyper_Gt(pc, z - 3 * half, s)[0] / (z - 1)
        rhs = z / (2 * s * s) * (hyper_G(pc, z + half, s)[0] - hyper_G(pc, z - half, s)[0])
        assert abs(lhs - rhs) < tol(pc)

    def test_singularity_guard(self, pc):
        with pytest.raises(ValueError):
            hyper_G(pc, 0.5 + 1e-9, 1)
        ctx = pc.ctx
        for z in (ctx.mpf(2) ** 52 + 0.5, ctx.mpf("0.5000000000000000001")):
            with pytest.raises(ValueError):
                hyper_G(pc, z, 1)
        # binary64 has no half-integers near 1e16, but 1e16 itself is an integer
        for z in (1e16, ctx.mpf(10) ** 16):
            g = hyper_G(pc, z, 1)[0]
            assert abs(g - 1 - ctx.mpf(2) / 10**32) < ctx.mpf(10) ** -38


class TestBessel:
    def test_entire_series_at_origin(self, pc):
        assert bessel_j_mod(pc, 0.7, 0)[0] == 1

    @pytest.mark.parametrize("y", ["0.7", "3.1"])
    def test_half_order_closed_form(self, pc, y):
        # classical closed form as an independent oracle
        ctx = pc.ctx
        y = ctx.mpf(y)
        mine = bessel_J(pc, ctx.mpf(1) / 2, y)[0]
        ref = ctx.sqrt(2 / (ctx.pi * y)) * ctx.sin(y)
        assert abs(mine - ref) < tol(pc)

    def test_two_code_paths_consistent(self, pc):
        ctx = pc.ctx
        nu, y = ctx.mpf("0.3"), ctx.mpf("1.2")
        direct = bessel_J(pc, nu, y)[0]
        via_series = (y / 2) ** nu / ctx.gamma(nu + 1) * bessel_j_mod(
            pc, nu + ctx.mpf(1) / 2, y * y / 4
        )[0]
        assert abs(direct - via_series) < tol(pc)

    def test_y_zero_conventions(self, pc):
        assert bessel_J(pc, 0, 0)[0] == 1
        assert bessel_J(pc, 2, 0)[0] == 0
        with pytest.raises(ValueError):
            bessel_J(pc, -1.5, 0)


class TestMatrixB:
    GRID = [("0.3", "1.1"), ("1.25+0.45j", "0.7"), ("-2.6+0.2j", "2.3")]

    @pytest.mark.parametrize("zt,st", GRID)
    def test_rank_one_structure(self, pc, zt, st):
        ctx = pc.ctx
        z, s = ctx.mpc(complex(zt)), ctx.mpc(complex(st))
        res = rank_one_residuals(pc, z, s)
        assert res["entry_trace_residual"] < ctx.mpf("1e-35")
        assert res["det"] < tol(pc)
        assert res["u_factorization_rel"] < tol(pc)
        assert res["v_factorization_rel"] < tol(pc)

    @staticmethod
    def tail_sum(mp, z, s, a, b):
        """A series of the G family less its first term 1, term by term."""
        t, total, m = mp.mpf(1), mp.mpf(0), 0
        while True:
            t *= 2 * (2 * m + 1) * s * s / ((m + 1) * (z - m - a) * (z + m + b))
            total += t
            m += 1
            if abs(t) < abs(total) * mp.mpf(2) ** -(mp.prec + 20):
                return total

    @pytest.mark.parametrize("zt", ["1e16", "1000000.25"])
    def test_entries_are_relatively_accurate_at_large_argument(self, pc, zt):
        # G is within 1e-11 of 1 here, so B_22 = (1 - G)/2 is small: every
        # entry must still lie within 2^-128 relative of a 600-bit tail sum
        mp = mpmath.mp.clone()
        mp.prec = 600
        z, s, h = mp.mpf(zt), mp.mpf(1), mp.mpf(1) / 2
        t, t_up, t_dn = (self.tail_sum(mp, z, s, a, b) for a, b in ((h, h), (h, 3 * h), (3 * h, h)))
        ref = [1 + t / 2, 2 * s / (1 - 2 * z) * (1 + t_dn), 2 * s / (1 + 2 * z) * (1 + t_up),
               -t / 2]
        B = matrix_B(pc, pc.ctx.mpf(zt), 1)
        for e, r in zip(B.entries(), ref):
            assert abs(mp.mpc(e) - r) <= abs(r) * mp.mpf(2) ** -128

    @pytest.mark.parametrize("zt", ["0.3", "1.25+0.45j", "1000000.25"])
    def test_zero_coupling(self, pc, zt):
        # every sum that B takes past a first term 1 is an exact 0 at s = 0
        assert matrix_B(pc, pc.ctx.mpc(complex(zt)), 0).entries() == (1, 0, 0, 0)

    @pytest.mark.parametrize("zt,st", GRID)
    def test_series_vs_bessel_products(self, pc, zt, st):
        ctx = pc.ctx
        res = gbb_residuals(pc, ctx.mpc(complex(zt)), ctx.mpc(complex(st)))
        assert max(res) < tol(pc)


def _kernel_large_order_row(n: int, P: int):
    """Integer numerators N[p][q], p, q <= P, of the s^(2n) row of the
    coefficients below: the row is N[p][q] / (n! (n-1)!^2 2^(p+q)), from
    1/((i-1)!(n-i)!) = C(n-1, i-1)/(n-1)!."""
    row = [[0] * (P + 1) for _ in range(P + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 2 - i):
            # (i+j-2n)_(n-1), nonzero for i + j <= n + 1
            w = ((-1) ** (i + j) * math.prod(range(i + j - 2 * n, i + j - n - 1))
                 * math.comb(n - 1, i - 1) * math.comb(n - 1, j - 1))
            for p in range(P + 1):
                for q in range(P + 1):
                    row[p][q] += (-1) ** (q + 1) * w * (2 * i - 1) ** p * (2 * j - 1) ** q
    return row


def kernel_large_order_coefficients(pc: PrecisionContext, s, P: int):
    """Coefficients c[p][q] of the large-argument expansion of the pairing
    kernel minus its leading pole:

        D(a, b; s) - 1/(a-b) ~ sum_{p,q>=0} c_pq a^-(p+1) b^-(q+1),

        c_pq = (-1)^(q+1) sum_{n>=1} s^(2n)/n!
               sum_{1<=i,j<=n, i+j<=n+1} (-1)^(i+j) (i+j-2n)_(n-1)
                     (i-1/2)^p (j-1/2)^q / ((i-1)!(j-1)!(n-i)!(n-j)!)

    (double partial-fraction development of the kernel series; terms with
    i + j in [n+2, 2n] vanish because the Pochhammer factor does).  The n-th
    term of the kernel series is homogeneous of degree -(n+1) in (a, b), so
    row n reaches c_pq only for n <= p + q + 1: each c_pq is a polynomial in
    s^2 with exact rational coefficients, evaluated at s.
    """
    ctx = pc.ctx
    s2 = pc.mpc(s) ** 2
    out = [[ctx.mpc(0) for _ in range(P + 1)] for _ in range(P + 1)]
    for n in range(1, 2 * P + 2):
        row = _kernel_large_order_row(n, P)
        den = math.factorial(n) * math.factorial(n - 1) ** 2
        s2n = s2**n
        for p in range(P + 1):
            for q in range(P + 1):
                out[p][q] += s2n * ctx.mpf(row[p][q]) / (den << (p + q))
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


class TestKernels:
    def test_zero_coupling_pole(self, pc):
        ctx = pc.ctx
        v = kernel_D(pc, "0.3", "-0.45", 0, route="series")
        assert abs(v - 1 / ctx.mpf("0.75")) < tol(pc)

    def test_route_agreement(self, pc):
        v = kernel_D(pc, 0.3, -0.45, 1.1, route="both")
        assert v is not None

    def test_route_disagreement_raises(self, pc, monkeypatch):
        # both routes return the correctly rounded value, so a disagreement
        # is made by perturbing the product route by 2^-100
        u_vector = analytic.u_vector

        def perturbed(pc, z, s):
            top, bot = u_vector(pc, z, s)
            return top * (1 + pc.ctx.mpf(2) ** -100), bot

        monkeypatch.setattr(analytic, "u_vector", perturbed)
        with pytest.raises(RouteDisagreement):
            kernel_D(pc, 0.3, -0.45, 1.1, route="both")

    def test_gamma_rescaling_relation(self, pc):
        ctx = pc.ctx
        a, b, s = ctx.mpf("0.3"), ctx.mpf("-0.45"), ctx.mpf("1.1")
        d = kernel_D(pc, a, b, s, route="series")
        ds = kernel_Dstar(pc, a, b, s)
        rel = ds * ctx.gamma(ctx.mpf(1) / 2 - a) * ctx.gamma(ctx.mpf(1) / 2 + b) * s ** (
            a - b + 1
        )
        assert abs(rel - d) < tol(pc)

    @pytest.mark.parametrize("im", ["0", "0.3"])
    @pytest.mark.parametrize("d", [2, 3, 4, Fraction(2**61 + 1, 2**60)])
    def test_series_at_an_integer_gap(self, pc, d, im):
        # at an integer d = a - b >= 2 the term ratio is 0/0 and the terms
        # d/2 < n < d vanish; d = 2 + 2^-60 is an integer in the float walk
        ctx = pc.ctx
        b = ctx.mpc("0.25", im)
        a = b + pc.mpc(d)
        series = kernel_D(pc, a, b, 1.1, route="series")
        product = kernel_D(pc, a, b, 1.1, route="product")
        assert abs(series - product) <= abs(product) * ctx.mpf(2) ** -118

    def test_diagonal_needs_one_point(self, pc):
        with pytest.raises(ValueError):
            kernel_D(pc, 0.4, 0.4, 1, route="both")
        with pytest.raises(ValueError, match="a != b"):
            kernel_Dstar(pc, 0.4, 0.4, 1)

    def test_large_order_expansion(self):
        pc = PrecisionContext(192)
        resid, bound = kernel_large_order_check(pc, 60, -35, 1, P=4)
        assert resid <= bound

    def test_large_order_coefficients_at_tiny_coupling(self, pc):
        # c_00 = -s^2 exactly; a loop that stops once s^(2n)/n! is below the
        # tolerance never reached its first row at this s
        s = pc.ctx.mpf("1e-20")
        c00 = kernel_large_order_coefficients(pc, s, 2)[0][0]
        assert abs(c00 + s**2) <= pc.ctx.mpf(2) ** -100 * s**2

    def test_large_order_rows_end_at_the_total_degree(self):
        # the n-th kernel term is homogeneous of degree -(n+1) in (a, b), so
        # its row vanishes at every p + q + 1 < n, and beyond n = 2P + 1
        P = 3
        for n in range(1, 2 * P + 6):
            row = _kernel_large_order_row(n, P)
            assert any(row[p][q] for p in range(P + 1) for q in range(P + 1)
                       if p + q + 1 >= n) == (n <= 2 * P + 1)
            assert all(not row[p][q] for p in range(P + 1) for q in range(P + 1)
                       if p + q + 1 < n)


class TestKPoint:
    def test_two_point_three_forms(self, pc):
        ctx = pc.ctx
        z1, z2, s = ctx.mpf("0.2"), ctx.mpc("1.7", "-0.3"), ctx.mpf("1.1")
        tr = h_k(pc, [z1, z2], s, route="trace")
        fa = h_k(pc, [z1, z2], s, route="factorized")
        df = h_2_difference_form(pc, z1, z2, s)
        # product form: -D(z1,z2)D(z2,z1) - 1/(z1-z2)^2
        d12 = kernel_D(pc, z1, z2, s, route="series")
        d21 = kernel_D(pc, z2, z1, s, route="series")
        prod = -d12 * d21 - 1 / (z1 - z2) ** 2
        for other in (fa, df, prod):
            assert abs(tr - other) < tol(pc, slack=10)

    @pytest.mark.parametrize("k", [3, 4])
    def test_trace_vs_factorized(self, pc, k):
        ctx = pc.ctx
        pts = [ctx.mpf("0.2"), ctx.mpc("1.7", "-0.3"), ctx.mpf("-2.6"),
               ctx.mpc("0.9", "0.4")][:k]
        tr = h_k(pc, pts, ctx.mpf("0.8"), route="trace")
        fa = h_k(pc, pts, ctx.mpf("0.8"), route="factorized")
        assert abs(tr - fa) < tol(pc, slack=10)

    def test_factorized_at_an_integer_gap(self, pc):
        tr = h_k(pc, [2.25, 0.25], 1.1, route="trace")
        fa = h_k(pc, [2.25, 0.25], 1.1, route="factorized")
        assert abs(tr - fa) < tol(pc, slack=10)

    def test_diagonal_regularity(self, pc):
        # |H2(z, z+d) - H2(z, z+2d)| <= C d with C estimated from the
        # coarser pair: the assertable content of diagonal analyticity
        ctx = pc.ctx
        z, s = ctx.mpf("0.27"), ctx.mpf("0.8")
        d1, d2 = ctx.mpf("1e-4"), ctx.mpf("1e-5")
        gap1 = abs(h_k(pc, [z, z + d1], s) - h_k(pc, [z, z + 2 * d1], s))
        gap2 = abs(h_k(pc, [z, z + d2], s) - h_k(pc, [z, z + 2 * d2], s))
        C = gap1 / d1
        assert gap2 <= 2 * C * d2

    def test_near_diagonal_continuous_with_generic_route(self, pc):
        ctx = pc.ctx
        z, s = ctx.mpf("0.27"), ctx.mpf("0.8")
        near = h_k(pc, [z, z + ctx.mpf("9e-4")], s)     # commutator path
        generic = h_k(pc, [z, z + ctx.mpf("2e-3")], s)  # literal path
        assert abs(near - generic) < ctx.mpf("0.1")

    def test_near_diagonal_keeps_precision(self, pc):
        # B(z1) - B(z2) cancels 116 bits at gap 1e-35; the reference is the
        # same difference quotient from mpmath's hyp1f2 at 640 bits
        ctx = pc.ctx
        z1, s = ctx.mpf("0.27"), ctx.mpf("0.8")
        z2 = z1 + ctx.mpf("1e-35")
        value = h_k(pc, [z1, z2], s)
        mp = _ref_ctx(640)
        d = mp.mpf(z1) - mp.mpf(z2)
        q = [(x - y) / d for x, y in zip(_ref_B(mp, z1, s), _ref_B(mp, z2, s))]
        ref = -(q[0] * q[0] + 2 * q[1] * q[2] + q[3] * q[3]) / 2
        assert abs(mp.mpc(value) - ref) <= abs(ref) * mp.mpf(2) ** -118

    @pytest.mark.parametrize("pts,s", [
        (("0.3", "0.3005", "-0.9"), "1.1"),
        (("0.3+0.2j", "0.3004+0.2j", "-0.9", "1.4-0.1j"), "0.7-0.2j"),
    ])
    def test_near_diagonal_commutator_form(self, pc, pts, s):
        # one close pair sends k >= 3 to the commutator form; the reference
        # is the cyclic-trace sum over B at 320 bits
        ref_pc = PrecisionContext(320)
        ctx = ref_pc.ctx
        zs = [ctx.mpc(complex(z)) for z in pts]
        Bs = [matrix_B(ref_pc, z, ctx.mpc(complex(s))) for z in zs]
        ref = ctx.mpc(0)
        for rest in itertools.permutations(range(1, len(zs))):
            cycle = (0, *rest)
            prod, den = Bs[0], ctx.mpc(1)
            for i, j in zip(cycle, cycle[1:] + cycle[:1]):
                den *= zs[i] - zs[j]
                if j:
                    prod = prod * Bs[j]
            ref -= prod.trace() / den
        for route in ("trace", "factorized"):
            value = h_k(pc, [complex(z) for z in pts], complex(s), route=route)
            assert abs(ctx.mpc(value) - ref) <= abs(ref) * ctx.mpf(2) ** -120

    def test_coincident_points_raise(self, pc):
        with pytest.raises(ValueError):
            h_k(pc, [0.3, 0.3], 1.1)

    def test_k_must_be_at_least_two(self, pc):
        with pytest.raises(ValueError):
            h_k(pc, [0.3], 1)


def h1_star_oracle(z, s, prec: int = 300):
    """The Bessel order-derivative form of H1*, from mpmath's own besselj and
    numerical derivative diff:

        (pi s / cos(pi z)) [ J_(-1/2-z)(2s) d/dz J_(-1/2+z)(2s)
                             + J_(1/2-z)(2s)  d/dz J_(1/2+z)(2s) ]."""
    mp = mpmath.mp.clone()
    mp.prec = prec
    z, s = mp.mpmathify(z), mp.mpmathify(s)
    y, h = 2 * s, mp.mpf(1) / 2

    def dJ(nu):
        return mp.diff(lambda v: mp.besselj(v, y), nu)

    return mp.pi * s / mp.cos(mp.pi * z) * (
        mp.besselj(-h - z, y) * dJ(-h + z) + mp.besselj(h - z, y) * dJ(h + z))


def h1_star_oracle_gap(pc: PrecisionContext, z, s):
    """Relative gap between h_1_star and the oracle at the same binary point."""
    z, s = pc.mpc(z), pc.mpc(s)
    ref = h1_star_oracle(z, s)
    return abs(h_1_star(pc, z, s) - ref) / abs(ref)


# a zero of H1*(1.7; s): its three terms H1, ln s and -psi(2.2) cancel there
S_STAR = "0.90360691384150572450320889455600679493"


class TestOnePointKernels:
    def test_vanishes_at_zero_coupling(self, pc):
        assert h_1(pc, 0.3, 0)[0] == 0

    def test_coupling_derivative_identity(self, pc):
        # s dH1/ds = G - 1, via central differences
        ctx = pc.ctx
        z, s = ctx.mpf("0.3"), ctx.mpf("1.1")
        h = ctx.mpf(2) ** -45
        deriv = (h_1(pc, z, s + h)[0] - h_1(pc, z, s - h)[0]) / (2 * h)
        assert abs(s * deriv - (hyper_G(pc, z, s)[0] - 1)) < ctx.mpf("1e-24")

    @pytest.mark.parametrize("z,s", [(0.3, 1.1), (1.7, 5), (-0.8 + 0.3j, 2.2 - 0.4j),
                                     (0.05, 0.01), (40, 8), (0.236, 150.8)])
    def test_rescaled_kernel_matches_the_bessel_oracle(self, pc, z, s):
        assert h1_star_oracle_gap(pc, z, s) <= 2 ** -120

    @pytest.mark.parametrize("offset,lost", [(-12, 38), (-20, 65)])
    def test_rescaled_kernel_near_a_zero_measures_its_cancellation(self, pc, offset, lost):
        # s*(1 + 10^-20) cancels 65 bits, more than a fixed guard covers
        ctx = pc.ctx
        s = ctx.mpf(S_STAR) * (1 + ctx.mpf(10) ** offset)
        with precision_log() as log:
            assert h1_star_oracle_gap(pc, ctx.mpf("1.7"), s) <= 2 ** -120
        assert log.bits_lost == lost and log.retries >= 1


class TestDiagnostics:
    def test_asymptotic_matching(self):
        pc = PrecisionContext(160)
        ctx = pc.ctx
        for z in (ctx.mpf(30), ctx.mpc(0, 50), ctx.mpc(40, 40)):
            res, bnd = asymptotic_matching_residuals(pc, z, 1, N=10)
            for r, b in zip(res, bnd):
                if b > 0:
                    assert r <= b

    def test_precision_policy(self):
        # the drivers measure their own cancellation: callers ask for the
        # accuracy they want, at every point
        for z, s in ((1, 1), (40, 1), (1, 32), (31, 31), (0.3, 60)):
            assert required_bits(z, s) == 128
            assert required_bits(z, s, 200) == 200


def _ref_ctx(bits):
    mp = mpmath.mp.clone()
    mp.prec = bits
    return mp


def _ref_B(mp, z, s):
    """B's entries from mpmath's hyp1f2, which raises its own precision on
    cancellation: G = 1F2(1/2; 1/2-z, 1/2+z; -4s^2), Gt likewise."""
    h = mp.mpf(1) / 2
    z, s = mp.mpc(z), mp.mpc(s)
    x = -4 * s * s
    g = mp.hyp1f2(h, h - z, h + z, x)
    gt_up = mp.hyp1f2(h, h - z, 3 * h + z, x)
    gt_dn = mp.hyp1f2(h, h - (z - 1), 3 * h + (z - 1), x)
    return [(1 + g) / 2, 2 * s / (1 - 2 * z) * gt_dn, 2 * s / (1 + 2 * z) * gt_up, (1 - g) / 2]


class TestWorkingPrecision:
    """Against independent library code, on couplings where 30-350 bits
    cancel: every result at 128 bits must be right to 2^-118 relative."""

    GRID = [(0.3, 5), (-1.7 + 0.4j, 12), (2.2, 25), (0.3, 25), (1.1 - 0.3j, 40),
            (-0.8, 60), (0.3, cmath.rect(8, math.pi / 6)),
            (0.45 + 0.2j, cmath.rect(30, -math.pi / 6)),
            (1.7, cmath.rect(45, 0.3)), (-2.3, cmath.rect(60, math.pi / 6))]

    @staticmethod
    def rel(mp, value, ref):
        return abs(mp.mpc(value) - ref) / abs(ref)

    @pytest.mark.parametrize("z,s", GRID)
    def test_against_mpmath(self, pc, z, s):
        mp = _ref_ctx(256)
        h = mp.mpf(1) / 2
        ref = _ref_B(mp, z, s)
        scale = max(abs(r) for r in ref)
        B = matrix_B(pc, z, s)
        assert max(abs(mp.mpc(e) - r) for e, r in zip(B.entries(), ref)) <= scale * 2.0 ** -118
        zz, ss = mp.mpc(z), mp.mpc(s)
        g_ref = mp.hyp1f2(h, h - zz, h + zz, -4 * ss * ss)
        assert self.rel(mp, hyper_G(pc, z, s)[0], g_ref) <= 2.0 ** -118
        gt_ref = mp.hyp1f2(h, h - zz, 3 * h + zz, -4 * ss * ss)
        assert self.rel(mp, hyper_Gt(pc, z, s)[0], gt_ref) <= 2.0 ** -118
        nu = pc.mpc(z) - pc.ctx.mpf(1) / 2
        value, err = bessel_J(pc, nu, 2 * s)
        j_ref = mp.besselj(mp.mpc(nu), 2 * ss)
        assert self.rel(mp, value, j_ref) <= 2.0 ** -118
        assert abs(mp.mpc(value) - j_ref) <= err

    def test_retry_recovers_an_underestimate(self, pc, monkeypatch):
        monkeypatch.setattr(analytic, "_predict", lambda build, target: (0, 1))
        with precision_log() as log:
            value, err = hyper_G(pc, 0.3, 40)
        assert log.retries >= 1 and log.bits_lost > 200
        assert log.working_bits > 128 + log.bits_lost
        mp = _ref_ctx(256)
        h = mp.mpf(1) / 2
        ref = mp.hyp1f2(h, h - mp.mpf(0.3), h + mp.mpf(0.3), -4 * mp.mpf(40) ** 2)
        assert self.rel(mp, value, ref) <= 2.0 ** -118
        assert abs(mp.mpc(value) - ref) <= err

    def test_cap_raises(self, pc, monkeypatch):
        monkeypatch.setattr(analytic, "MAX_WORKING_BITS", 320)
        with pytest.raises(PrecisionCapError):
            hyper_G(pc, 0.3, 60)  # the prediction alone is over the cap
        monkeypatch.setattr(analytic, "_predict", lambda build, target: (0, 1))
        with pytest.raises(PrecisionCapError):
            hyper_G(pc, 0.3, 60)  # the retry is over the cap
        with pytest.raises(PrecisionCapError):
            hyper_G(PrecisionContext(400), 0.3, 1)

    def test_threads_keep_their_working_precision(self):
        # each thread sums in its own working context: values computed
        # concurrently at different precisions match the sequential ones
        jobs = [(PrecisionContext(bits), 0.3 + 0.35 * i, s)
                for i, (bits, s) in enumerate([(64, 25), (128, 40), (200, 5), (96, 60)])]
        expected = [matrix_B(pc, z, s).entries() for pc, z, s in jobs]
        results = [[] for _ in jobs]

        def work(i):
            pc, z, s = jobs[i]
            for _ in range(3):
                with precision_log():
                    results[i].append(matrix_B(pc, z, s).entries())

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert results == [[e] * 3 for e in expected]

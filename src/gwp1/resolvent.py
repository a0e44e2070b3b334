"""Matrix resolvent of the integrable-lattice solution attached to the sphere.

The 2x2 resolvent series is produced by two independent exact routes:

* a lattice recursion in the site variable ``n`` with exact polynomial
  coefficients in (n, eps), seeded by the initial data a_{n,0} = 0,
  c_{n,0} = 1;
* a closed form with coefficients in Q[s], built from finite triple sums.

A third generator solves the scalar third-order difference equation
order by order and is kept purely for redundancy.  Structural checks
(unit trace, vanishing determinant, the shift-commutation residual) and the
exact cross-route comparison after the bispectral variable change
(:func:`substitute_shifted`, from which the k-point correlators are also
built) are the acceptance surface of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from gwp1.ring.mat2 import Mat2
from gwp1.ring.numbers import odd_double_factorial
from gwp1.ring.poly import MultiPoly
from gwp1.ring.series import MultiSeries, inverse_power

Z = "z"
LAM = "lam"
S_VARS = ("s",)
NE_VARS = ("n", "eps")
RING_S = "QQ[s]"
RING_NE = "QQ[n,eps]"
RING_LE = "QQ[lam,eps]"
XE_VARS = ("x", "eps")
XE_LAURENT = frozenset({"eps"})
RING_XE = "QQ[x,eps~]"


class InsufficientOrderError(ValueError):
    """A requested coefficient lies beyond the computed truncation order."""


def _s_poly(terms):
    return MultiPoly(S_VARS, terms)


def _ne_const(v):
    return MultiPoly.const(NE_VARS, v)


@dataclass(frozen=True)
class ResolventSeries:
    """Unit-trace rank-one resolvent series.

    ``alpha`` and ``gamma`` are series in the inverse of ``var`` with
    coefficients in the declared polynomial ring; ``beta`` is derived
    (``beta(z) = -gamma(z-1)`` in closed form, ``beta_n = -gamma_{n+1}``
    in recursion form).  The assembled matrix is
    ``[[1 + alpha, beta], [gamma, -alpha]]``, so the trace is 1 exactly.
    """

    form: str  # "closed" | "recursion"
    var: str
    alpha: MultiSeries
    gamma: MultiSeries
    beta: MultiSeries
    order: int
    p_series: MultiSeries | None = None
    q_series: MultiSeries | None = None

    def matrix(self) -> Mat2:
        one = _series_const(self.alpha, 1)
        return Mat2(one + self.alpha, self.beta, self.gamma, -self.alpha)

    def det_series(self) -> MultiSeries:
        """det = -(alpha + alpha^2) - beta*gamma; identically 0 through the
        available metadata order."""
        return (-self.alpha) * (_series_const(self.alpha, 1) + self.alpha) - (
            self.beta * self.gamma
        )

    def to_json(self, route: str | None = None) -> dict:
        return {
            "route": route or self.form,
            "order": self.order,
            "var": self.var,
            "alpha": self.alpha.to_json(),
            "gamma": self.gamma.to_json(),
            "beta": self.beta.to_json(),
        }


def _series_const(template: MultiSeries, value) -> MultiSeries:
    coeffs = next(iter(template.terms.values()), None)
    if coeffs is None or isinstance(coeffs, (int, Fraction)):
        c = Fraction(value)
    else:
        c = coeffs.one() * Fraction(value)
    return MultiSeries.const(template.vars, template.orders, c, template.floors, template.ring)


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------


def closed_form_alpha_pq(N: int):
    """The three building series (alpha, P, Q) through z**-N, exact.

    alpha has only even inverse powers and even s-degrees; P odd/odd;
    Q even/odd.  Each z**-j coefficient has s-degree at most j.
    """
    alpha_terms = {}
    p_terms = {}
    q_terms = {}
    for j in range(0, N // 2):
        # alpha: coefficient of z^-(2j+2)
        if 2 * j + 2 <= N:
            poly = {}
            for i in range(j + 1):
                inner = Fraction(0)
                for ell in range(i + 1):
                    inner += (
                        (-1) ** ell
                        * (Fraction(2 * (i - ell) + 1, 2)) ** (2 * j + 1)
                        * comb(2 * i + 1, ell)
                    )
                coeff = 2 * inner / (factorial(i) * factorial(i + 1))
                if coeff:
                    poly[(2 * i + 2,)] = coeff
            if poly:
                alpha_terms[(2 * j + 2,)] = _s_poly(poly)
    for j in range(0, (N + 1) // 2):
        # P: z^-(2j+1);  Q: z^-(2j+2)
        p_poly = {}
        q_poly = {}
        for i in range(j + 1):
            inner = Fraction(0)
            for ell in range(i + 1):
                inner += (
                    (-1) ** ell
                    * (Fraction(2 * (i - ell) + 1, 2)) ** (2 * j)
                    * (comb(2 * i, ell) - (comb(2 * i, ell - 1) if ell >= 1 else 0))
                )
            cp = inner / Fraction(factorial(i)) ** 2
            if cp:
                p_poly[(2 * i + 1,)] = cp
                q_poly[(2 * i + 1,)] = -Fraction(2 * i + 1, 2) * cp
        if 2 * j + 1 <= N and p_poly:
            p_terms[(2 * j + 1,)] = _s_poly(p_poly)
        if 2 * j + 2 <= N and q_poly:
            q_terms[(2 * j + 2,)] = _s_poly(q_poly)
    mk = lambda t: MultiSeries((Z,), (N,), t, ring=RING_S)
    return mk(alpha_terms), mk(p_terms), mk(q_terms)


def closed_form_M(N: int) -> ResolventSeries:
    """Closed-form resolvent through z**-N over Q[s]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    alpha, p, q = closed_form_alpha_pq(N)
    return ResolventSeries(
        form="closed",
        var=Z,
        alpha=alpha,
        gamma=q + p,
        beta=q - p,
        order=N,
        p_series=p,
        q_series=q,
    )


# ---------------------------------------------------------------------------
# lattice recursion
# ---------------------------------------------------------------------------


def recursion_coeffs(N: int):
    """Exact polynomials a_{n,j}, c_{n,j} in (n, eps) for j <= N - 1.

    Generation uses only the two relations

        c_{n,j} = eps (n - 1/2) c_{n,j-1} + a_{n,j-1} + a_{n-1,j-1}
        a_{n,j} = sum_{i=0}^{j-1} ( c_{n,i} c_{n+1,j-1-i} - a_{n,i} a_{n,j-1-i} )

    with a_{n,0} = 0, c_{n,0} = 1.  The remaining lattice relations are
    verified downstream as residuals, never used for generation.
    """
    n_poly = MultiPoly.variable(NE_VARS, "n")
    eps_poly = MultiPoly.variable(NE_VARS, "eps")
    half = Fraction(1, 2)
    a = [MultiPoly.zero(NE_VARS)]
    c = [_ne_const(1)]
    c_up = [_ne_const(1)]  # c_{n+1,j}
    a_dn = [MultiPoly.zero(NE_VARS)]  # a_{n-1,j}
    for j in range(1, N):
        cj = eps_poly * (n_poly - half) * c[j - 1] + a[j - 1] + a_dn[j - 1]
        aj = MultiPoly.zero(NE_VARS)
        for i in range(j):
            aj = aj + c[i] * c_up[j - 1 - i] - a[i] * a[j - 1 - i]
        a.append(aj)
        c.append(cj)
        c_up.append(cj.subs_shift("n", 1))
        a_dn.append(aj.subs_shift("n", -1))
    return a, c


def recursion_resolvent(N: int) -> ResolventSeries:
    """Recursion-route resolvent through lam**-N over Q[n, eps]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    a, c = recursion_coeffs(N)
    alpha_terms = {(j + 1,): a[j] for j in range(len(a)) if not a[j].is_zero()}
    gamma_terms = {(j + 1,): c[j] for j in range(len(c)) if not c[j].is_zero()}
    beta_terms = {
        (j + 1,): -c[j].subs_shift("n", 1) for j in range(len(c)) if not c[j].is_zero()
    }
    mk = lambda t: MultiSeries((LAM,), (N,), t, ring=RING_NE)
    return ResolventSeries(
        form="recursion",
        var=LAM,
        alpha=mk(alpha_terms),
        gamma=mk(gamma_terms),
        beta=mk(beta_terms),
        order=N,
    )


# ---------------------------------------------------------------------------
# structural residuals
# ---------------------------------------------------------------------------


def _times_z_minus(series: MultiSeries, var: str, c: Fraction) -> MultiSeries:
    """Multiply by (z - c); costs one order of validity via the z factor."""
    return series.mul_monomial(var, 1) - series.scale(Fraction(c))


def scalar_difference_residual(R: ResolventSeries | MultiSeries) -> MultiSeries:
    """Left side of the scalar third-order difference equation applied to
    a(z) = alpha:

        s^2 [ (1 + a(z) + a(z+1)) / (z + 1/2)
              - (1 + a(z-2) + a(z-1)) / (z - 3/2) ]
        + (z - 1/2) (a(z-1) - a(z))

    For the true resolvent this vanishes identically; on a truncated input of
    order N the returned residual is exact at least through N - 3.
    """
    a = R.alpha if isinstance(R, ResolventSeries) else R
    if a.vars != (Z,):
        raise ValueError("scalar residual expects a closed-form series in z")
    N = a.orders[0]
    one = _series_const(a, 1)
    s2 = _s_poly({(2,): Fraction(1)})
    up = one + a + a.shift(Z, 1)
    dn = one + a.shift(Z, -2) + a.shift(Z, -1)
    unit = one.terms[(0,)]
    inv_up = inverse_power(Z, 1, Fraction(-1, 2), N + 2, unit, a.ring)  # 1/(z + 1/2)
    inv_dn = inverse_power(Z, 1, Fraction(3, 2), N + 2, unit, a.ring)  # 1/(z - 3/2)
    part1 = up * inv_up - dn * inv_dn
    part2 = _times_z_minus(a.shift(Z, -1) - a, Z, Fraction(1, 2))
    return part1.scale(s2) + part2


def matrix_difference_residual(R: ResolventSeries) -> Mat2:
    """Entrywise residual of the shift-commutation identity

        M(z-1; s) A(z) - A(z) M(z; s),   A(z) = [[z - 1/2, -s], [s, 0]]

    For exact input of order N the residual vanishes through order N - 1.
    """
    if R.var != Z:
        raise ValueError("matrix residual expects the closed form")
    m = R.matrix()
    m_shift = m.map(lambda e: e.shift(Z, -1))
    a = R.alpha
    s = _s_poly({(1,): Fraction(1)})
    zero = _series_const(a, 0)
    z_minus_half = _series_z_poly(a)
    A = Mat2(z_minus_half, _series_const(a, 1).scale(-s), _series_const(a, 1).scale(s), zero)
    return (m_shift * A) - (A * m)


def _series_z_poly(template: MultiSeries) -> MultiSeries:
    """The series z - 1/2 (index -1 and 0), exact at all orders."""
    one = _series_const(template, 1).terms[(0,) * len(template.vars)]
    zi = template.vars.index(Z)
    i_neg = [0] * len(template.vars)
    i_neg[zi] = -1
    terms = {tuple(i_neg): one, (0,) * len(template.vars): one * Fraction(-1, 2)}
    floors = list(template.floors)
    floors[zi] = -1
    return MultiSeries(template.vars, template.orders, terms, floors, template.ring)


# ---------------------------------------------------------------------------
# order-by-order generator from the scalar difference equation (redundant
# third route, used in tests only)
# ---------------------------------------------------------------------------


def alpha_from_difference_equation(N: int) -> MultiSeries:
    """Solve the scalar difference equation order by order for alpha.

    The z**-j coefficient of the residual equals j * A_{j-1} plus terms in
    lower coefficients, so each step determines one new coefficient.  This is
    an independent generator of alpha (given only unit leading behaviour) and
    is compared with the closed form in tests.
    """
    known: dict[tuple, MultiPoly] = {}
    zero = MultiPoly.zero(S_VARS)
    for j in range(1, N + 1):
        # declared order N+3 so the residual metadata covers index j; the
        # value at index j only involves already-determined coefficients
        partial = MultiSeries((Z,), (N + 3,), known, ring=RING_S)
        resid = scalar_difference_residual(partial)
        fj = resid.coefficient_or((j,), zero)
        aj = fj * Fraction(-1, j)
        if not aj.is_zero():
            known = dict(known)
            known[(j,)] = aj
    return MultiSeries((Z,), (N,), known, ring=RING_S)


# ---------------------------------------------------------------------------
# bispectral substitution and cross-route comparison
# ---------------------------------------------------------------------------


def substitute_shifted(series_in_z: MultiSeries, target: str = "lam", N: int | None = None) -> MultiSeries:
    """Substitute z = (lam - x)/eps and s = 1/eps, re-expanding in 1/lam.

    z**-r maps to eps^r sum_m C(r+m-1, m) x^m lam^-(r+m); each s-degree d of
    a coefficient becomes eps^(r-d) (Laurent when d exceeds r).  The output
    is exact through lam**-N, which cannot exceed the input order.
    """
    if series_in_z.vars != (Z,):
        raise ValueError("input must be a single-variable series in z")
    n_in = series_in_z.orders[0]
    if N is None:
        N = n_in
    if N > n_in:
        raise InsufficientOrderError(
            f"requested order {N} exceeds input validity {n_in}"
        )
    x = MultiPoly.variable(XE_VARS, "x", XE_LAURENT)
    out: dict[tuple, MultiPoly] = {}
    for (r,), coeff in series_in_z.terms.items():
        # coeff is a polynomial in s
        base = MultiPoly(XE_VARS, {(0, r - d): c for (d,), c in coeff.terms.items()}, XE_LAURENT)
        for idx, p in inverse_power(target, r, x, N, base, RING_XE).terms.items():
            out[idx] = out[idx] + p if idx in out else p
    return MultiSeries((target,), (N,), out, ring=RING_XE)


@dataclass(frozen=True)
class CrossCheckReport:
    order: int
    ok: bool
    checked: int
    first_mismatch: tuple | None
    detail: str

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "ok": self.ok,
            "coefficients_checked": self.checked,
            "first_mismatch": list(self.first_mismatch) if self.first_mismatch else None,
            "detail": self.detail,
        }


def cross_check_routes(N: int) -> CrossCheckReport:
    """Exact comparison of the two resolvent routes through lam**-N.

    The lattice route gives polynomials in (n, eps); the closed form is
    re-expanded by :func:`substitute_shifted` at x = n eps, so its term
    x^a eps^b is n^a eps^(a+b).  Uniqueness of the resolvent makes exact
    agreement the expected outcome; any difference is reported with the
    first differing (entry, index).
    """
    closed = closed_form_M(N)
    rec = recursion_resolvent(N)
    zero = MultiPoly.zero(NE_VARS)
    checked = 0
    for name, closed_entry, rec_entry in (
        ("alpha", closed.alpha, rec.alpha),
        ("gamma", closed.gamma, rec.gamma),
        ("beta", closed.beta, rec.beta),
    ):
        expected = {
            j: MultiPoly(NE_VARS, {(a, a + b): c for (a, b), c in p.terms.items()})
            for (j,), p in substitute_shifted(closed_entry, LAM, N).terms.items()
        }
        for j in range(0, N):
            want = expected.get(j + 1, zero)
            got = rec_entry.coefficient_or((j + 1,), zero)
            checked += 1
            if want != got:
                return CrossCheckReport(
                    order=N,
                    ok=False,
                    checked=checked,
                    first_mismatch=(name, j + 1),
                    detail=f"{name} at lam^-{j + 1}: recursion {got!r} != closed {want!r}",
                )
    return CrossCheckReport(order=N, ok=True, checked=checked, first_mismatch=None, detail="")


# ---------------------------------------------------------------------------
# formal large-q solution
# ---------------------------------------------------------------------------

SQ = "sq"  # the inverse variable sqrt(q)


@dataclass(frozen=True)
class WFormalSeries:
    """Formal solution of the shift-commutation system in powers of
    1/sqrt(q), with polynomial coefficients in (lam, eps).

    The entries are (1/2 -/+ i w1) on the diagonal and +/- i w2 off it;
    they are stored through the real series ``w1`` (odd half-powers) and
    ``w2`` (integer powers), from which trace and determinant conditions
    become rational identities:

        tr W = 1 exactly,
        det W = 1/4 + w1(lam)^2 - w2(lam - eps) w2(lam).
    """

    w1: MultiSeries
    w2: MultiSeries
    order: int

    def trace(self) -> MultiSeries:
        half = MultiSeries.const((SQ,), (self.order,), _le_const(Fraction(1, 2)), ring=RING_LE)
        return half + half  # imaginary parts cancel exactly: -w1 + w1

    def det_residual(self) -> MultiSeries:
        quarter = MultiSeries.const(
            (SQ,), (self.order,), _le_const(Fraction(1, 4)), ring=RING_LE
        )
        w2_shift = self.w2.map_coefficients(lambda p: p.subs_poly("lam", _lam_minus_eps()))
        return quarter + self.w1 * self.w1 - w2_shift * self.w2

    def shift_residuals(self) -> Mat2:
        """Residual of the shift-commutation system in the spectral variable:

            A(lam + eps) X(lam + eps) - X(lam) A(lam + eps) = 0,
            A(mu) = [[mu - eps/2, -sqrt(q)], [sqrt(q), 0]],

        where W = 1/2 + i X.  This is the z-form identity transported through
        lam = eps z, sqrt(q) = eps s; it vanishes through the available order.
        """
        shift_up = lambda s: s.map_coefficients(lambda p: p.subs_poly("lam", _lam_plus_eps()))
        x11 = -self.w1
        x12 = self.w2.map_coefficients(lambda p: p.subs_poly("lam", _lam_minus_eps()))
        x21 = -self.w2
        x22 = self.w1
        X = Mat2(x11, x12, x21, x22)
        Xup = Mat2(shift_up(x11), self.w2, shift_up(x21), shift_up(x22))
        A = _a_matrix_sqrtq(self.order)  # evaluated at lam + eps: entry lam + eps/2
        return (A * Xup) - (X * A)


def _le_const(v) -> MultiPoly:
    return MultiPoly.const(("lam", "eps"), v)


def _lam_minus_eps() -> MultiPoly:
    return MultiPoly(("lam", "eps"), {(1, 0): Fraction(1), (0, 1): Fraction(-1)})


def _lam_plus_eps() -> MultiPoly:
    return MultiPoly(("lam", "eps"), {(1, 0): Fraction(1), (0, 1): Fraction(1)})


def _a_matrix_sqrtq(order: int) -> Mat2:
    # A(lam + eps): (1,1)-entry (lam + eps) - eps/2 = lam + eps/2
    lam_pe = MultiPoly(("lam", "eps"), {(1, 0): Fraction(1), (0, 1): Fraction(1, 2)})
    a11 = MultiSeries((SQ,), (order,), {(0,): lam_pe}, ring=RING_LE)
    sq_up = MultiSeries(
        (SQ,), (order,), {(-1,): _le_const(1)}, floors=(-1,), ring=RING_LE
    )
    zero = MultiSeries.zero((SQ,), (order,), ring=RING_LE)
    return Mat2(a11, -sq_up, sq_up, zero)


def formal_W(D: int) -> WFormalSeries:
    """Formal solution through (1/sqrt q)**D:

        w1 = sum_m (2m-1)!! prod_{j=-m..m} (lam + eps j) / (2^(3m+2) m! q^(m+1/2))
        w2 = sum_m (2m-1)!! prod_{j=-(m-1)..m} (lam + eps j) / (2^(3m+1) m! q^m)
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    w1_terms = {}
    w2_terms = {}
    lam = MultiPoly.variable(("lam", "eps"), "lam")
    eps = MultiPoly.variable(("lam", "eps"), "eps")
    m = 0
    while True:
        done = True
        if 2 * m + 1 <= D:
            done = False
            prod = _le_const(1)
            for j in range(-m, m + 1):
                prod = prod * (lam + eps * j)
            c = Fraction(odd_double_factorial(m), 2 ** (3 * m + 2) * factorial(m))
            w1_terms[(2 * m + 1,)] = prod * c
        if 2 * m <= D:
            done = False
            prod = _le_const(1)
            for j in range(-(m - 1), m + 1):
                prod = prod * (lam + eps * j)
            c = Fraction(odd_double_factorial(m), 2 ** (3 * m + 1) * factorial(m))
            w2_terms[(2 * m,)] = prod * c
        if done:
            break
        m += 1
    w1 = MultiSeries((SQ,), (D,), w1_terms, floors=(0,), ring=RING_LE)
    w2 = MultiSeries((SQ,), (D,), w2_terms, floors=(0,), ring=RING_LE)
    return WFormalSeries(w1=w1, w2=w2, order=D)

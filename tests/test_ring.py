"""Ring-core: axioms on random instances, Bernoulli/Pochhammer machinery,
truncation bookkeeping, serialization round-trips."""

from collections import Counter
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from gwp1.ring import (
    FactoredRatFun,
    Mat2,
    MultiPoly,
    MultiSeries,
    bernoulli_poly,
    pochhammer,
    rat_from_str,
    rat_to_str,
)
from gwp1.ring.poly import _int_product
from gwp1.ring.ratfun import diff_factor, lam_eps_factor
from gwp1.ring.series import RingTagMismatch, inverse_power

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def poly_strategy(variables=("a", "b")):
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    return st.dictionaries(exps, rationals, max_size=4).map(
        lambda terms: MultiPoly(variables, terms)
    )


def _cut_product(p, q, caps):
    """p * q with every term above ``caps`` (None: uncapped) dropped, by the
    integer kernel with a per-variable bound."""
    lim = tuple(float("inf") if c is None else c for c in caps)
    return MultiPoly.from_ints(p.vars, _int_product(p.num, q.num, lim), p.den * q.den, p.laurent)


series_terms = st.dictionaries(st.tuples(st.integers(0, 5)), rationals, max_size=4)


def series_strategy():
    return series_terms.map(lambda t: MultiSeries(("z",), (5,), t))


@settings(max_examples=120, deadline=None)
@given(poly_strategy(), poly_strategy(), poly_strategy())
def test_poly_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@settings(max_examples=120, deadline=None)
@given(series_strategy(), series_strategy(), series_strategy())
def test_series_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b).terms == (b * a).terms
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.terms == rhs.terms


@settings(max_examples=80, deadline=None)
@given(rationals, rationals, rationals)
def test_ratfun_ring_axioms(x, y, z):
    vars_ = ("lam1", "eps")
    mk = lambda v, fac: FactoredRatFun(
        MultiPoly.const(vars_, v), Counter([fac]) if v else Counter()
    )
    a = mk(x, lam_eps_factor("lam1", Fraction(1, 2)))
    b = mk(y, lam_eps_factor("lam1", Fraction(-1, 2)))
    c = mk(z, lam_eps_factor("lam1", Fraction(3, 2)))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(series_terms, st.integers(1, 4))
def test_truncation_soundness(terms, n_prime):
    full = MultiSeries(("z",), (5,), terms)
    sq_then_cut = (full * full).truncate((n_prime,))
    cut_then_sq = full.truncate((n_prime,)) * full.truncate((n_prime,))
    assert sq_then_cut.terms == cut_then_sq.terms


@settings(max_examples=60, deadline=None)
@given(poly_strategy(), poly_strategy(), st.sampled_from([None, 0, 2, 4]),
       st.sampled_from([None, 1, 3]))
def test_truncated_product_is_the_cut_product(p, q, cap_a, cap_b):
    full = (p * q).terms
    cut = {e: c for e, c in full.items()
           if (cap_a is None or e[0] <= cap_a) and (cap_b is None or e[1] <= cap_b)}
    assert _cut_product(p, q, (cap_a, cap_b)).terms == cut


# Fraction references for the integer kernels of MultiPoly: the schoolbook
# loops, one Fraction per term pair, that the kernels must agree with.
VEE = ("v", "w", "eps")


def _ref_product(p, q, caps=None):
    out = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if caps is None or all(c is None or x <= c for x, c in zip(e, caps)):
                out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_shift(p, i, delta):
    out = {}
    for e, c in p.terms.items():
        for m in range(e[i] + 1):
            t = e[:i] + (m,) + e[i + 1:]
            out[t] = out.get(t, Fraction(0)) + c * comb(e[i], m) * delta ** (e[i] - m)
    return {e: c for e, c in out.items() if c}


def laurent_poly_strategy():
    exps = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(-3, 3))
    return st.dictionaries(exps, rationals, max_size=6).map(
        lambda terms: MultiPoly(VEE, terms, laurent=("eps",)))


@settings(max_examples=150, deadline=None)
@given(laurent_poly_strategy(), laurent_poly_strategy(),
       st.sampled_from([None, 0, 2, 4]), st.sampled_from([None, -2, 0, 3]))
def test_products_match_the_fraction_reference(p, q, cap_v, cap_eps):
    assert (p * q).terms == _ref_product(p, q)
    caps = (cap_v, None, cap_eps)
    assert _cut_product(p, q, caps).terms == _ref_product(p, q, caps)


@settings(max_examples=80, deadline=None)
@given(laurent_poly_strategy(),
       st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2),
                        Fraction(7, 3)]))
def test_shift_matches_the_fraction_reference(p, delta):
    shifted = p.subs_shift("v", delta)
    assert shifted.terms == _ref_shift(p, 0, delta)
    assert shifted.subs_shift("v", -delta) == p


@settings(max_examples=80, deadline=None)
@given(laurent_poly_strategy(), st.sampled_from([Fraction(1, 2), Fraction(-3, 2), 0, 5]))
def test_exact_division_by_a_linear_factor(a, c):
    v, w, eps = (MultiPoly.variable(VEE, x, ("eps",)) for x in VEE)
    for divisor in (v + eps * c, v - w):
        assert (divisor * a).divide_exact(divisor, "v") == a
        assert (divisor * a + 1).divide_exact(divisor, "v") is None
    assert MultiPoly.zero(VEE, ("eps",)).divide_exact(v - w, "v").is_zero()


def _assert_canonical(p):
    assert p.den > 0
    assert gcd(p.den, *p.num.values()) == 1
    assert all(p.num.values())


@settings(max_examples=100, deadline=None)
@given(laurent_poly_strategy(), laurent_poly_strategy(), rationals, st.integers(0, 3),
       st.sampled_from([Fraction(1, 2), Fraction(-3, 2), Fraction(7, 3), Fraction(4)]))
def test_every_operation_returns_the_canonical_form(p, q, c, n, delta):
    v, eps = MultiPoly.variable(VEE, "v", ("eps",)), MultiPoly.variable(VEE, "eps", ("eps",))
    divisor = v + eps * delta
    for r in (p, p + q, p - q, p + p, -p, p * q, p * c, c * p, p * 2, (p + p) * Fraction(1, 2),
              _cut_product(p, q, (2, None, 0)), p**n, p.subs_shift("v", delta),
              (divisor * p).divide_exact(divisor, "v")):
        _assert_canonical(r)
    # equal values store equal data, whatever route built them
    assert (p + p) * Fraction(1, 2) == p and (p * 2 - p).to_json() == p.to_json()
    assert p - p == MultiPoly.zero(VEE, ("eps",)) and (p - p).den == 1


def test_equal_values_built_by_different_routes_are_identical():
    half = MultiPoly(("a",), {(1,): Fraction(2, 4)})
    a = MultiPoly.variable(("a",), "a")
    for other in (a * Fraction(1, 6) + a * Fraction(1, 3), a * Fraction(3, 6),
                  (a * 2 + 1) * Fraction(1, 4) - Fraction(1, 4)):
        assert other == half and other.to_json() == half.to_json()
        assert (other.num, other.den) == ({(1,): 1}, 2)


def test_terms_is_a_fresh_view():
    p = MultiPoly(("a",), {(1,): Fraction(3, 4)})
    view = p.terms
    view[(1,)] = Fraction(5)
    view[(2,)] = Fraction(1)
    assert p.terms == {(1,): Fraction(3, 4)} and (p.num, p.den) == ({(1,): 3}, 4)


def test_equality_compares_the_laurent_set():
    plain = MultiPoly(("x", "eps"), {(1, 0): 1})
    laurent = MultiPoly(("x", "eps"), {(1, 0): 1}, laurent=("eps",))
    assert plain != laurent and not (plain == laurent)
    with pytest.raises(ValueError, match="variable sets differ"):
        plain + laurent


def test_zero_power_of_a_series_is_one():
    assert (inverse_power("z", 1, Fraction(1, 2), 6, Fraction(1), "QQ") ** 0).terms == {
        (0,): Fraction(1)}
    empty = MultiSeries.zero(("lam",), (4,), floors=(2,), ring="QQ[x,eps~]")
    one = MultiPoly.const(("x", "eps"), 1, ("eps",))
    assert (empty**0).terms == {(0,): one}
    assert (MultiSeries.zero(("z",), (3,)) ** 0).terms == {(0,): Fraction(1)}


def test_rational_serialization():
    assert rat_to_str(Fraction(3, 4)) == "3/4"
    assert rat_to_str(Fraction(-6, 4)) == "-3/2"
    assert rat_to_str(Fraction(5)) == "5"
    assert rat_from_str("7/3") == Fraction(7, 3)
    assert rat_from_str("-2") == Fraction(-2)


@pytest.mark.parametrize("j,expected", [
    (0, {(0,): Fraction(1)}),
    (1, {(1,): Fraction(1), (0,): Fraction(-1, 2)}),
    (2, {(2,): Fraction(1), (1,): Fraction(-1), (0,): Fraction(1, 6)}),
])
def test_bernoulli_poly_small(j, expected):
    assert bernoulli_poly(j) == MultiPoly(("u",), expected)


@pytest.mark.parametrize("j", range(0, 31))
def test_bernoulli_defining_integral(j):
    # integral_v^{v+1} B_j(u) du == v^j, checked symbolically: the
    # antiderivative evaluated at u = v+1 minus at u = v
    bj = bernoulli_poly(j)
    anti = MultiPoly(("u",), {(e[0] + 1,): c / (e[0] + 1) for e, c in bj.terms.items()})
    upper = anti.subs_shift("u", 1)
    diff = upper - anti
    want = MultiPoly(("u",), {(j,): Fraction(1)})
    assert diff == want


def test_pochhammer_cases():
    assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)
    assert pochhammer(Fraction(5), 0) == 1
    # symbolic: (z - m + 1/2)_{2m} at m = 2 is (z^2 - 9/4)(z^2 - 1/4)
    z = MultiPoly.variable(("z",), "z")
    got = pochhammer(z - Fraction(3, 2), 4)
    want = (z * z - Fraction(9, 4)) * (z * z - Fraction(1, 4))
    assert got == want


def test_series_mul_examples():
    one_plus = MultiSeries(("z",), (2,), {(0,): Fraction(1), (1,): Fraction(1)})
    one_minus = MultiSeries(("z",), (2,), {(0,): Fraction(1), (1,): Fraction(-1)})
    prod = one_plus * one_minus
    assert prod.terms == {(0,): Fraction(1), (2,): Fraction(-1)}
    o3 = MultiSeries(("z",), (3,), {(0,): Fraction(1)})
    o5 = MultiSeries(("z",), (5,), {(0,): Fraction(1)})
    assert (o3 * o5).orders == (3,)


def test_series_ring_tags_never_coerce():
    a = MultiSeries(("z",), (3,), {(1,): Fraction(1)}, ring="QQ")
    b = MultiSeries(("z",), (3,), {(1,): MultiPoly.const(("s",), 1)}, ring="QQ[s]")
    with pytest.raises(RingTagMismatch):
        a + b


def test_series_shift_preserves_order():
    s = MultiSeries(("z",), (4,), {(1,): Fraction(1)})
    shifted = s.shift("z", 1)  # 1/(z+1)
    assert shifted.orders == (4,)
    assert shifted.terms == {
        (1,): Fraction(1), (2,): Fraction(-1), (3,): Fraction(1), (4,): Fraction(-1)
    }
    # shifting back inverts within the truncation
    back = shifted.shift("z", -1)
    assert back.terms == s.terms
    with pytest.raises(ValueError):  # positive powers of z are not re-expanded
        MultiSeries(("z",), (4,), {(-1,): Fraction(1)}, floors=(-1,)).shift("z", 1)


def test_series_inverse():
    s = MultiSeries(("z",), (4,), {(0,): Fraction(2), (1,): Fraction(1)})
    inv = s.inverse()
    assert (s * inv).terms == {(0,): Fraction(1)}


@pytest.mark.parametrize("t", [0, 1, 2, 5])
@pytest.mark.parametrize("a,one,ring", [
    (Fraction(-3, 2), Fraction(1), "QQ"),
    (MultiPoly(("x", "e"), {(1, 0): 1, (0, 1): Fraction(1, 2)}), MultiPoly.const(("x", "e"), 1),
     "QQ[x,e]"),
])
def test_inverse_power_inverts_the_power(t, a, one, ring):
    N = 9
    linear = MultiSeries(("z",), (N,), {(-1,): one, (0,): -a * one}, floors=(-1,), ring=ring)
    series = inverse_power("z", t, a, N, one, ring)
    assert series.floors == (t,) and series.orders == (N,)
    product = linear**t * series if t else series
    # exact through z**-(N - t): (z - a)^t drops t orders of the inverse power
    assert product.orders == (N - t,)
    assert product.terms == {(0,): one}


def test_ratfun_equality_and_reduction():
    vars_ = ("lam1", "eps")
    num = MultiPoly(vars_, {(1, 0): Fraction(1), (0, 1): Fraction(1, 2)})  # lam + eps/2
    fr = FactoredRatFun(num, Counter([lam_eps_factor("lam1", Fraction(1, 2))]))
    reduced = fr.reduce()
    assert not reduced.den and reduced.num == MultiPoly.const(vars_, 1)
    a = FactoredRatFun(MultiPoly.const(vars_, 2),
                       Counter([lam_eps_factor("lam1", Fraction(1, 2))]))
    b = FactoredRatFun(num * 2, Counter([lam_eps_factor("lam1", Fraction(1, 2))] * 2))
    assert a == b  # cross-multiplication equality
    assert not (a == a + 1)


def test_ratfun_diff_factor_cancellation():
    vars_ = ("lam1", "lam2", "eps")
    l1 = MultiPoly.variable(vars_, "lam1")
    l2 = MultiPoly.variable(vars_, "lam2")
    fr = FactoredRatFun((l1 - l2) * (l1 + l2), Counter([diff_factor("lam1", "lam2")]))
    red = fr.reduce()
    assert not red.den and red.num == l1 + l2


def test_ratfun_sums_and_products_keep_their_factors():
    # (lam - w) / (lam - w) + 1 and (lam + eps/2) * 1/(lam + eps/2) hold
    # every factor they were given until reduce() cancels it
    vars_ = ("lam1", "lam2", "eps")
    l1 = MultiPoly.variable(vars_, "lam1")
    l2 = MultiPoly.variable(vars_, "lam2")
    eps = MultiPoly.variable(vars_, "eps")
    diff = Counter([diff_factor("lam1", "lam2")])
    half = Counter([lam_eps_factor("lam1", Fraction(1, 2))])
    total = FactoredRatFun(l1 - l2, diff) + 1
    product = FactoredRatFun(l1 + eps * Fraction(1, 2)) * FactoredRatFun(MultiPoly.const(vars_, 3), half)
    for kept, den, value in ((total, diff, 2), (product, half, 3)):
        assert kept.den == den
        reduced = kept.reduce()
        assert not reduced.den and reduced.num == MultiPoly.const(vars_, value)
        assert kept == reduced and reduced == kept
    assert not (total == product)


def _expand_reference(num, factors, vars_, large, order):
    """Fraction-dict expansion of num / prod (v + c eps)^m, one factor at a
    time, each geometric series taken deep; a factor only raises indices, so
    terms past ``order`` in a slot of ``large`` (which hold inverse indices)
    are dropped as they appear."""
    inverse = [v in large for v in vars_]
    ei = vars_.index("eps")
    depth = order + 4
    acc = {tuple(-x if inv else x for x, inv in zip(e, inverse)): c for e, c in num.items()}
    for (v, c), mult in factors.items():
        vi = vars_.index(v)
        # (lam + c eps)^-1 = lam^-1 sum_j (-c eps/lam)^j, or
        # (c eps + lam)^-1 = (c eps)^-1 sum_j (-lam/(c eps))^j
        big, small, lead, ratio = (vi, ei, 1, -c) if v in large else (ei, vi, 1 / c, -1 / c)
        for _ in range(mult):
            nxt = {}
            for e, a in acc.items():
                for j in range(depth):
                    f = list(e)
                    f[big] += 1 + j
                    f[small] += j
                    if f[big] <= order:
                        nxt[tuple(f)] = nxt.get(tuple(f), 0) + a * lead * ratio**j
            acc = nxt
    return {e: c for e, c in acc.items()
            if c and all(x <= order for x, inv in zip(e, inverse) if inv)}


@pytest.mark.parametrize("large,orders", [(("lam1", "lam2"), (3, 7)), (("eps",), (8, 11))])
def test_ratfun_expand_matches_the_fraction_reference(large, orders):
    vars_ = ("lam1", "lam2", "eps")
    num = {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(3), (0, 0, 2): Fraction(-1, 2),
           (0, 0, 0): Fraction(5, 3)}
    factors = {("lam1", Fraction(-3, 2)): 2, ("lam2", Fraction(1, 2)): 1,
               ("lam1", Fraction(5, 2)): 1, ("lam2", Fraction(-7, 2)): 3}
    fr = FactoredRatFun(MultiPoly(vars_, num, ("eps",)),
                        Counter({lam_eps_factor(v, c): m for (v, c), m in factors.items()}))
    for order in orders:
        want = _expand_reference(num, factors, vars_, large, order)
        got = fr.expand(large, order)
        assert want and got.vars == vars_ and got.terms == want


def test_ratfun_expand_needs_one_large_term_per_factor():
    vars_ = ("lam1", "lam2", "eps")
    fr = FactoredRatFun(MultiPoly.const(vars_, 1), Counter([lam_eps_factor("lam2", 1)]))
    for large in (("lam1",), ("lam2", "eps")):
        with pytest.raises(ValueError):
            fr.expand(large, 4)


def test_mat2_cayley_hamilton():
    a = MultiPoly.variable(("x", "y"), "x")
    b = MultiPoly.variable(("x", "y"), "y")
    m = Mat2(a, b, b * b, a + b)
    tr = m.trace()
    det = m.det()
    one = MultiPoly.const(("x", "y"), 1)
    zero = MultiPoly.zero(("x", "y"))
    ident = Mat2(one, zero, zero, one)
    lhs = m * m - Mat2(tr * m.a, tr * m.b, tr * m.c, tr * m.d) + Mat2(
        det * ident.a, det * ident.b, det * ident.c, det * ident.d
    )
    assert all(e.is_zero() for e in lhs.entries())


def test_poly_json_roundtrip():
    p = MultiPoly(("a", "b"), {(1, 2): Fraction(3, 7), (0, 0): Fraction(-2)})
    assert p.to_json() == [{"exponents": [0, 0], "coeff": "-2"},
                           {"exponents": [1, 2], "coeff": "3/7"}]


def test_series_json_shape():
    s = MultiSeries(("z",), (3,), {(1,): Fraction(1, 3)})
    data = s.to_json()
    assert data["vars"] == ["z"] and data["orders"] == [3]
    assert data["terms"] == [{"powers": [1], "coeff": "1/3"}]

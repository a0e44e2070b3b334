"""Ring-core: axioms on random instances, Bernoulli/Pochhammer machinery,
truncation bookkeeping, serialization round-trips."""

from collections import Counter
from fractions import Fraction
from math import comb

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
from gwp1.ring.ratfun import diff_factor, lam_eps_factor
from gwp1.ring.series import RingTagMismatch, inverse_power

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def poly_strategy(variables=("a", "b")):
    exps = st.tuples(*[st.integers(0, 3)] * len(variables))
    return st.dictionaries(exps, rationals, max_size=4).map(
        lambda terms: MultiPoly(variables, terms)
    )


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
    assert p.mul_truncated(q, (cap_a, cap_b)).terms == cut


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
    assert p.mul_truncated(q, caps).terms == _ref_product(p, q, caps)


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


def test_mat2_cayley_hamilton():
    a = MultiPoly.variable(("x", "y"), "x")
    b = MultiPoly.variable(("x", "y"), "y")
    m = Mat2(a, b, b * b, a + b)
    tr = m.trace()
    det = m.det()
    one = MultiPoly.const(("x", "y"), 1)
    ident = Mat2.identity(one, MultiPoly.zero(("x", "y")))
    lhs = m * m - Mat2(tr * m.a, tr * m.b, tr * m.c, tr * m.d) + Mat2(
        det * ident.a, det * ident.b, det * ident.c, det * ident.d
    )
    assert all(e.is_zero() for e in lhs.entries())


def test_poly_json_roundtrip():
    p = MultiPoly(("a", "b"), {(1, 2): Fraction(3, 7), (0, 0): Fraction(-2)})
    assert MultiPoly.from_json(("a", "b"), p.to_json()) == p


def test_series_json_shape():
    s = MultiSeries(("z",), (3,), {(1,): Fraction(1, 3)})
    data = s.to_json()
    assert data["vars"] == ["z"] and data["orders"] == [3]
    assert data["terms"] == [{"powers": [1], "coeff": "1/3"}]

"""Resolvent routes: hand-checked leading terms, structural residuals,
parity/degree invariants, cross-route agreement, the difference-equation
generator, and the formal large-q solution."""

from fractions import Fraction

import pytest

from gwp1.resolvent import (
    alpha_from_difference_equation,
    closed_form_M,
    cross_check_routes,
    formal_W,
    matrix_difference_residual,
    recursion_resolvent,
    scalar_difference_residual,
)
from gwp1.ring.poly import MultiPoly

NE = ("n", "eps")
S = ("s",)


def ne(terms):
    return MultiPoly(NE, {k: Fraction(v) for k, v in terms.items()})


def sp(terms):
    return MultiPoly(S, {k: Fraction(v) for k, v in terms.items()})


class TestRecursionRoute:
    def test_initial_data(self):
        R = recursion_resolvent(3)
        assert R.gamma.terms[(1,)] == ne({(0, 0): 1})  # c_{n,0} = 1
        assert (1,) not in R.alpha.terms  # a_{n,0} = 0

    def test_leading_terms_match_hand_expansion(self):
        R = recursion_resolvent(6)
        assert R.alpha.terms[(2,)] == ne({(0, 0): 1})
        assert R.alpha.terms[(3,)] == ne({(1, 1): 2})
        assert R.alpha.terms[(4,)] == ne({(2, 2): 3, (0, 2): Fraction(1, 4), (0, 0): 3})
        assert R.alpha.terms[(5,)] == ne({(3, 3): 4, (1, 3): 1, (1, 1): 12})
        assert R.gamma.terms[(2,)] == ne({(1, 1): 1, (0, 1): Fraction(-1, 2)})
        assert R.gamma.terms[(3,)] == ne(
            {(2, 2): 1, (1, 2): -1, (0, 2): Fraction(1, 4), (0, 0): 2}
        )

    def test_determinant_relation(self):
        # the rank-one relation holds exactly through the metadata order
        R = recursion_resolvent(8)
        assert R.det_series().is_zero()


class TestClosedForm:
    def test_hand_expanded_coefficients(self):
        M = closed_form_M(8)
        assert M.alpha.terms[(2,)] == sp({(2,): 1})
        assert M.alpha.terms[(4,)] == sp({(2,): Fraction(1, 4), (4,): 3})
        assert M.p_series.terms[(1,)] == sp({(1,): 1})
        assert M.q_series.terms[(2,)] == sp({(1,): Fraction(-1, 2)})

    def test_leading_matrix(self):
        # the series starts at the projector diag(1, 0)
        M = closed_form_M(4)
        mat = M.matrix()
        assert mat.a.terms[(0,)] == sp({(0,): 1})
        assert (0,) not in mat.b.terms and (0,) not in mat.c.terms
        assert (0,) not in mat.d.terms

    @pytest.mark.parametrize("N", [6, 12, 18, 24])
    def test_determinant_vanishes(self, N):
        assert closed_form_M(N).det_series().is_zero()

    def test_parity_structure(self):
        M = closed_form_M(14)
        for (j,), poly in M.alpha.terms.items():
            assert j % 2 == 0
            assert all(d % 2 == 0 for (d,) in poly.terms)
        for (j,), _ in M.p_series.terms.items():
            assert j % 2 == 1
        for (j,), _ in M.q_series.terms.items():
            assert j % 2 == 0
        for series in (M.p_series, M.q_series):
            for (_,), poly in series.terms.items():
                assert all(d % 2 == 1 for (d,) in poly.terms)

    def test_degree_bound(self):
        M = closed_form_M(14)
        for series in (M.alpha, M.gamma, M.beta):
            for (j,), poly in series.terms.items():
                assert poly.degree("s") <= j

    def test_off_diagonal_combinations(self):
        M = closed_form_M(10)
        assert M.gamma == M.q_series + M.p_series
        assert M.beta == M.q_series - M.p_series


class TestResiduals:
    def test_scalar_residual_vanishes(self):
        M = closed_form_M(12)
        resid = scalar_difference_residual(M)
        assert resid.orders[0] >= 9
        assert resid.is_zero()

    def test_scalar_residual_sensitivity(self):
        M = closed_form_M(12)
        bumped_terms = dict(M.alpha.terms)
        bumped_terms[(2,)] = bumped_terms[(2,)] + 1
        from gwp1.ring.series import MultiSeries

        bumped = MultiSeries(("z",), M.alpha.orders, bumped_terms, ring="QQ[s]")
        assert not scalar_difference_residual(bumped).is_zero()

    def test_matrix_residual_vanishes(self):
        M = closed_form_M(12)
        resid = matrix_difference_residual(M)
        for entry in resid.entries():
            assert entry.orders[0] >= 11
            assert entry.is_zero()


class TestCrossRoute:
    @pytest.mark.parametrize("N", [1, 4, 8, 14])
    def test_routes_agree(self, N):
        report = cross_check_routes(N)
        assert report.ok, report.detail

    def test_detects_corruption(self):
        # breaking the recursion initial data must surface as a mismatch
        import gwp1.resolvent as res

        good = res.recursion_coeffs

        def bad(N):
            a, c = good(N)
            c = [ci + 1 for ci in c]
            return a, c

        res.recursion_coeffs = bad
        try:
            report = cross_check_routes(4)
        finally:
            res.recursion_coeffs = good
        assert not report.ok and report.first_mismatch is not None


def test_difference_equation_generator_matches_closed_form():
    a3 = alpha_from_difference_equation(12)
    assert a3 == closed_form_M(12).alpha


class TestFormalW:
    def test_leading_terms(self):
        W = formal_W(5)
        assert W.w2.terms[(0,)] == MultiPoly.const(("lam", "eps"), Fraction(1, 2))
        assert W.w1.terms[(1,)] == MultiPoly(
            ("lam", "eps"), {(1, 0): Fraction(1, 4)}
        )

    def test_unit_trace_and_determinant(self):
        # the trace is 1 by the stored form (1/2 -/+ i w1 on the diagonal)
        assert formal_W(7).det_residual().is_zero()

    def test_shift_commutation(self):
        W = formal_W(7)
        assert all(e.is_zero() for e in W.shift_residuals().entries())

"""Asymptotic regimes: exact expansions against their tables, grading laws,
cross-regime consistency, numeric verifiers and the table-file contracts."""

import dataclasses
import hashlib
import json
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from gwp1 import asymptotics
from gwp1.asymptotics import (
    GradingError,
    RegimeExpansion,
    debye_check,
    einf_table_entry,
    eps0_q0_bridge,
    eps0_series_coefficients,
    expand_eps_inf,
    expand_q0,
    load_table,
    onepoint_oracle_match,
    q0_einf_consistency,
    q0_in_inverse_lam,
    q0_table_entry,
    verify_eps0,
    verify_q_inf,
)
from gwp1.exprtree import (
    BoxSeries,
    TableEntryError,
    eval_box_series,
    eval_numeric,
    eval_poly,
    grading_scaling_check,
    validate_tree,
)
from gwp1.ring.poly import MultiPoly
from gwp1.ring.ratfun import FactoredRatFun, diff_factor


class TestSmallQ:
    @pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_table(self, k, d):
        data = expand_q0(k, d)
        assert data.coefficient(d) == q0_table_entry(k, d)

    def test_one_point_formula(self):
        h1 = expand_q0(1, 3).coefficient(1)
        val = h1.eval_numeric(mpmath.mp, {"lam1": mpmath.mpf(3), "eps": mpmath.mpf(1)})
        assert abs(val - 1 / (9 - mpmath.mpf(1) / 4)) < 1e-12

    def test_pole_locations(self):
        data = expand_q0(2, 3)
        for d, h in data.coefficients:
            for f in h.den:
                kind, _, c = f
                assert kind == "lin" and c.denominator == 2 and abs(c) < d

    def test_zeroth_coefficients_vanish(self):
        assert expand_q0(2, 2).coefficient(0).is_zero()
        assert expand_q0(3, 1).coefficient(0).is_zero()


class TestLargeEps:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_table_all_genera(self, k):
        data = expand_eps_inf(k, 3)
        for g in range(4):
            assert data.coefficient(g) == einf_table_entry(k, g), (k, g)

    def test_grading_enforced(self):
        # corrupting a coefficient's grading must raise
        from gwp1.asymptotics import _check_poly_grading
        from gwp1.ring.poly import MultiPoly

        bad = MultiPoly(("lam1", "q"), {(1, 1): Fraction(1)})
        with pytest.raises(GradingError):
            _check_poly_grading(bad, 2, "test")


class TestCrossRegime:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_small_q_large_eps_consistency(self, k):
        assert q0_einf_consistency(k, 3)

    @pytest.mark.parametrize("k,gmax,dmax", [(1, 2, 3), (2, 1, 3), (3, 0, 2)])
    def test_small_eps_small_q_bridge(self, k, gmax, dmax):
        assert eps0_q0_bridge(k, gmax, dmax)

    def test_one_point_oracle_match_reads_both_sides(self):
        # a coefficient missing from the derived side is a mismatch, not a
        # term with nothing to compare
        data = expand_q0(1, 3)
        assert onepoint_oracle_match(data) == {"1": True, "2": True, "3": True}
        coeffs = dict(data.coefficients)
        coeffs[2] = coeffs[0]
        gapped = dataclasses.replace(data, coefficients=tuple(coeffs.items()))
        assert onepoint_oracle_match(gapped) == {"1": True, "2": False, "3": True}

    def test_expansions_reject_an_unresolved_pole(self):
        vars_ = ("lam1", "lam2", "eps")
        pole = FactoredRatFun(MultiPoly.const(vars_, 1), Counter([diff_factor("lam1", "lam2")]))
        data = RegimeExpansion(regime="q0", k=2, order=1, coefficients=((1, pole),))
        with pytest.raises(AssertionError):
            q0_in_inverse_lam(data, 4)
        with pytest.raises(AssertionError):
            pole.expand({"eps"}, 2)

    @pytest.mark.parametrize("k,gmax,dmax", [(1, 2, 3), (2, 1, 3), (3, 0, 2)])
    def test_bridge_fails_on_a_planted_error(self, monkeypatch, k, gmax, dmax):
        exact = asymptotics.eps0_series_coefficients

        def planted(*args):
            coeffs = exact(*args)
            coeffs[min(coeffs)] += 1
            return coeffs

        monkeypatch.setattr(asymptotics, "eps0_series_coefficients", planted)
        assert not eps0_q0_bridge(k, gmax, dmax)

    @pytest.mark.parametrize("k,D,lam_order,sha256", [
        (1, 6, 14, "23d939084140d9e820a804344c73f379cbe55749ab55504cd5e48450917ec7f7"),
        (2, 3, 8, "c175f357564dc3350b09856f4884d57b060d73caa4fe307be197af28a5b636fd"),
        (3, 2, 6, "d4f0dd6a6429e8267616c32e882b2d1357c0522b389d4841d9ce239f1c110044"),
        (4, 2, 6, "42976cb0d64c819e147ebc4ed65c20b39350cc6df04f8ef0c0475e198a546fd1"),
    ])
    def test_q0_in_inverse_lam_is_pinned(self, k, D, lam_order, sha256):
        # terms [t_1..t_k, d, eps power] -> coefficient
        poly = q0_in_inverse_lam(expand_q0(k, D), lam_order)
        text = json.dumps(sorted([list(e), str(c)] for e, c in poly.terms.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_expand_q0_four_point_payload_is_pinned(self):
        text = json.dumps(expand_q0(4, 2).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "acacd91fc194658ad35e40dfe3d5f2fdf9facb139cdd789519d09e1ce029acf5")

    @pytest.mark.parametrize("k,g,sha256", [
        (1, 0, "2662d068dfaa343e29b23e6dee50e1b9cba641084f0adee18796e966f9dae64d"),
        (1, 1, "71f887ffa0d6b99846fb89e07c8b115fe63fc0256a516abd9a859e30e3f6a980"),
        (1, 2, "a759153ad210c0337ae64b3ee5ac8b521a45ce28ceb67f9388ca5998efbc86cb"),
        (2, 0, "27aa777f275746cb4f63872b091c72ab1cda38e9f5f7b4fa0884a886db5f048f"),
        (2, 1, "3becdf3ed838d05b73de6e5cd12455a902a4dac6661b04722916a323c9f1f513"),
        (3, 0, "646c9b5ff2f4d24c2dffea593f2ff9da0c6f10a75af1149706f19eefe7440c8d"),
    ])
    def test_eps0_series_coefficients_are_pinned(self, k, g, sha256):
        coeffs = eps0_series_coefficients(k, g, 12, 4)
        text = json.dumps(sorted([list(i), str(c)] for i, c in coeffs.items()))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_two_point_genus0_series_values(self):
        table = eps0_series_coefficients(2, 0, 8, 3)
        # degree-1 block: the only entry is (2,2) with value 1
        assert table[(2, 2, 1)] == 1
        assert (3, 3, 1) not in table
        # symmetric in the two variables
        for (t1, t2, d), c in table.items():
            assert table.get((t2, t1, d)) == c


class TestNumericRegimes:
    def test_eps0_report(self):
        F = mpmath.mpf
        rep = verify_eps0(2, 1, [5, 7], 1, [F(1) / 4, F(1) / 8])
        assert rep.passed and abs(rep.measured_order - 6) < 0.5
        data = rep.to_json()
        assert data["regime"] == "eps0" and data["pass"]

    def test_eps0_region_guard(self):
        with pytest.raises(ValueError):
            verify_eps0(1, 0, [1], 1, [mpmath.mpf(1) / 4])  # 2 sqrt(q)/lam >= 1

    def test_qinf_report(self):
        eps = 400 / (6 * mpmath.pi)
        rep = verify_q_inf(2, 3, [5, 7], eps, [10**4, 4 * 10**4])
        assert rep.passed

    def test_qinf_three_point_entries(self):
        eps = 400 / (6 * mpmath.pi)
        rep = verify_q_inf(3, 1, [5, 7, 9], eps, [10**4, 4 * 10**4])
        assert rep.passed and abs(rep.measured_order - 1.0) < 0.3

    def test_debye(self):
        rep = debye_check([40, 80], 0.6)
        assert rep.passed and abs(rep.measured_order - 3) < 0.5
        with pytest.raises(ValueError):
            debye_check([40, 80], 0.99)


class TestTables:
    @pytest.mark.parametrize("name", [
        "eps0_table.json", "einf_table.json", "q0_table.json", "qinf_table.json",
        "debye_table.json",
    ])
    def test_loadable_and_valid(self, name):
        data = load_table(name)
        assert data

    def test_corrupt_entry_is_named(self, tmp_path, monkeypatch):
        import gwp1.asymptotics as asy
        from importlib import resources

        src = resources.files("gwp1.tables").joinpath("einf_table.json")
        data = json.loads(src.read_text())
        data["entries"][1]["tree"] = {"op": "nonsense"}
        bad = tmp_path / "einf_table.json"
        bad.write_text(json.dumps(data))

        class FakeFiles:
            def joinpath(self, name):
                if name == "einf_table.json":
                    return bad
                return resources.files("gwp1.tables").joinpath(name)

        monkeypatch.setattr(asy.resources, "files", lambda pkg: FakeFiles())
        with pytest.raises(TableEntryError) as err:
            load_table("einf_table.json")
        assert "entries[1]" in str(err.value)

    def test_grading_euler_scaling(self):
        # every closed-form entry scales with its declared grading weight
        ctx = mpmath.mp.clone()  # the global mpmath.mp keeps its precision
        ctx.prec = 160
        env = {"lam1": ctx.mpf(5), "lam2": ctx.mpf(7), "lam3": ctx.mpf(9),
               "q": ctx.mpf("1.3"), "eps": ctx.mpf("0.37")}
        for e in load_table("eps0_table.json")["entries"]:
            if e["g"] == 0 and e["k"] == 1:
                continue  # logarithm: scale-invariant but not homogeneous
            assert grading_scaling_check(e["tree"], ctx, env, e["grading"], 1e-30), e

    def test_debye_structural_claim(self):
        from gwp1.asymptotics import DebyeCoefficients

        assert DebyeCoefficients.load().structural_check()

    def test_debye_leading_exponent_identity(self):
        # V0 + 1 - sqrt(1-z^2) - log z + log(1 + sqrt(1-z^2)) == 0
        from gwp1.asymptotics import DebyeCoefficients

        ctx = mpmath.mp.clone()  # the global mpmath.mp keeps its precision
        ctx.prec = 120
        coeffs = DebyeCoefficients.load()
        for zeta in (ctx.mpf("0.3"), ctx.mpf("0.6"), ctx.mpf("0.9")):
            root = ctx.sqrt(1 - zeta * zeta)
            combo = coeffs.v_value(0, ctx, zeta) + 1 - root - ctx.log(zeta) + ctx.log(1 + root)
            assert abs(combo) < ctx.mpf("1e-30")

    def test_one_point_genus_value_at_q_zero(self):
        # the genus-1 coefficient evaluated at q = 0 is -1/(24 lam^2)
        coeffs = eps0_series_coefficients(1, 1, 4, 0)
        assert coeffs == {(2, 0): Fraction(-1, 24)}


class TestExprTrees:
    def test_validate_rejects_unknown_ops(self):
        with pytest.raises(TableEntryError):
            validate_tree({"op": "frobnicate"}, {"lam1"})
        with pytest.raises(TableEntryError):
            validate_tree({"op": "var", "name": "nope"}, {"lam1"})

    def test_numeric_and_exact_agree_on_polynomials(self):
        tree = {"op": "add", "args": [
            {"op": "mul", "args": [{"op": "num", "value": "3"},
                                   {"op": "pow", "args": [{"op": "var", "name": "q"}],
                                    "value": "2"}]},
            {"op": "num", "value": "-1/2"},
        ]}
        ctx = mpmath.mp
        val = eval_numeric(tree, ctx, {"q": ctx.mpf("0.25")})
        assert abs(val - (3 * 0.0625 - 0.5)) < 1e-15
        series = eval_box_series(tree, ("q",), (0,), (4,))
        assert series.terms == {(0,): Fraction(-1, 2), (2,): Fraction(3)}
        poly = eval_poly(tree, ("q",))
        assert poly.terms == {(0,): Fraction(-1, 2), (2,): Fraction(3)}

    def test_box_series_sqrt_log(self):
        # sqrt(1 - 4q) and log(1/(1 - q)) expansions
        vars_ = ("q",)
        lo, hi = (0,), (5,)
        q = BoxSeries.variable("q", vars_, lo, hi)
        one = BoxSeries.constant(1, vars_, lo, hi)
        root = (one + (-(q * BoxSeries.constant(4, vars_, lo, hi)))).sqrt()
        assert root.coefficient((0,)) == 1
        assert root.coefficient((1,)) == -2
        assert root.coefficient((2,)) == -2
        logv = (one + (-q)).inverse().log()
        assert logv.coefficient((3,)) == Fraction(1, 3)

    def test_box_series_inverse_of_a_negative_lead(self):
        # 1/(q - 2) = -1/2 - q/4 - q^2/8 - ..., kept over a positive denominator
        vars_, lo, hi = ("q",), (0,), (3,)
        q = BoxSeries.variable("q", vars_, lo, hi)
        inv = (q - BoxSeries.constant(2, vars_, lo, hi)).inverse()
        assert inv.terms == {(m,): Fraction(-1, 2 ** (m + 1)) for m in range(4)}
        assert inv.poly.den > 0

    def test_box_series_sqrt_of_a_large_square(self):
        # a float square root misses squares above about 2^106
        root = Fraction(2**60 + 12345, 3**41)
        square = BoxSeries.constant(root * root, ("q",), (0,), (2,))
        assert square.sqrt().terms == {(0,): root}

    def test_box_series_region_division(self):
        # q / (lam1 - lam2)^2 in the region lam1 > lam2: leading term
        # q lam1^-2, next 2 q lam2 lam1^-3
        vars_ = ("lam1", "lam2", "q")
        lo, hi = (-6, -6, 0), (6, 6, 2)
        l1 = BoxSeries.variable("lam1", vars_, lo, hi)
        l2 = BoxSeries.variable("lam2", vars_, lo, hi)
        q = BoxSeries.variable("q", vars_, lo, hi)
        v = q * ((l1 + (-l2)) * (l1 + (-l2))).inverse()
        assert v.coefficient((2, 0, 1)) == 1
        assert v.coefficient((3, -1, 1)) == 2

    def test_series_expansion_against_numeric(self):
        # the padded production expansion must reproduce the closed form
        # numerically up to the q-truncation
        tree = next(e for e in load_table("eps0_table.json")["entries"]
                    if e["k"] == 2 and e["g"] == 0)["tree"]
        coeffs = eps0_series_coefficients(2, 0, 12, 4)
        ctx = mpmath.mp.clone()  # the global mpmath.mp keeps its precision
        ctx.prec = 200
        l1, l2, q = ctx.mpf(31), ctx.mpf(17), ctx.mpf("0.01")
        approx = ctx.mpf(0)
        for (t1, t2, d), c in coeffs.items():
            approx += ctx.mpf(c.numerator) / c.denominator * l1 ** (-t1) * l2 ** (-t2) * q**d
        exact = eval_numeric(tree, ctx, {"lam1": l1, "lam2": l2, "q": q})
        assert abs(approx - exact) / abs(exact) < 1e-7


def test_regime_expansion_json():
    data = expand_q0(2, 1).to_json()
    assert data["regime"] == "q0" and data["k"] == 2
    kinds = {c["payload"]["kind"] for c in data["coefficients"]}
    assert kinds <= {"poly", "ratfun"}

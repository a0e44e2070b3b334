"""Correlator series and invariant extraction: bispectral substitution,
multi-point coefficients, parity/symmetry/region properties, one-point
routes and the degree bookkeeping."""

import hashlib
import json
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from pathlib import Path

import pytest

from gwp1.correlators import (
    CorrelatorKey,
    InsufficientOrderError,
    _one_point_coefficient,
    extract_invariant,
    f_k_polar_coefficient,
    f_k_series,
    one_point_digamma_form,
    one_point_qseries_oracle,
    one_point_series,
    one_point_series_oracle,
    substitute_shifted,
)
from gwp1.resolvent import closed_form_M
from gwp1.ring.poly import MultiPoly
from gwp1.ring.series import MultiSeries

XE = ("x", "eps")
LX = frozenset({"eps"})

# f_k_polar_coefficient(...).to_json() recorded from the path-enumeration
# extraction that the transfer-matrix contraction replaced: k = 2 targets in
# -1..6 and k = 3 targets in -1..3 (sum <= 8), each in every region, plus the
# k = 4 keys (1,1,1,1), (2,1,1,0) and (0,1,1,2); x_cap None and 0 throughout.
RECORDED = Path(__file__).with_name("fk_polar_coefficients.json")


def xe(terms):
    return MultiPoly(XE, {k: Fraction(v) for k, v in terms.items()}, LX)


class TestSubstituteShifted:
    def test_constant_passes_through(self):
        one = MultiSeries(("z",), (4,), {(0,): MultiPoly.const(("s",), 1)}, ring="QQ[s]")
        out = substitute_shifted(one)
        assert out.terms == {(0,): xe({(0, 0): 1})}

    def test_inverse_z(self):
        zinv = MultiSeries(("z",), (2,), {(1,): MultiPoly.const(("s",), 1)}, ring="QQ[s]")
        out = substitute_shifted(zinv)
        # eps/lam + eps x/lam^2
        assert out.terms[(1,)] == xe({(0, 1): 1})
        assert out.terms[(2,)] == xe({(1, 1): 1})

    def test_requested_order_capped(self):
        zinv = MultiSeries(("z",), (2,), {(1,): MultiPoly.const(("s",), 1)}, ring="QQ[s]")
        with pytest.raises(InsufficientOrderError):
            substitute_shifted(zinv, N=5)

    def test_leading_entries_polynomial_in_x_eps(self):
        M = closed_form_M(6)
        sub = substitute_shifted(M.alpha)
        for poly in sub.terms.values():
            assert all(e[1] >= 0 for e in poly.terms), "entries stay polynomial"


class TestFkSeries:
    def test_k_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            f_k_series(1, (2,))

    def test_orders_must_be_non_negative(self):
        with pytest.raises(ValueError, match="orders must be >= 0"):
            f_k_series(2, (-1, 2))

    def test_two_point_leading_value(self):
        fk = f_k_series(2, (2, 2))
        assert fk.coefficient((2, 2)) == xe({(0, 0): 1})

    def test_two_point_eps_parity(self):
        # x^0 slice carries only eps powers congruent to k mod 2
        fk = f_k_series(2, (4, 4))
        for idx, poly in fk.series.terms.items():
            for (xp, ep), _ in poly.terms.items():
                if xp == 0:
                    assert ep % 2 == 0

    def test_parity_vanishing_small(self):
        for tgt in [(2, 3), (3, 2), (4, 5)]:
            assert f_k_polar_coefficient(2, tgt, x_cap=0).is_zero()

    def test_polar_parts_cancel(self):
        for tgt in [(3, -1), (4, 0), (2, 1)]:
            coeff = f_k_polar_coefficient(2, tgt)
            constant_slice = {e: c for e, c in coeff.terms.items()}
            if tgt[1] < 2:
                assert coeff.is_zero(), constant_slice

    def test_region_independence_k3(self):
        a = f_k_series(3, (2, 2, 2), region=(1, 2, 3))
        b = f_k_series(3, (2, 2, 2), region=(3, 2, 1))
        assert a.series == b.series


class TestContraction:
    def test_recorded_values_byte_identical(self):
        cases = json.loads(RECORDED.read_text())
        assert len(cases) == 1750
        for case in cases:
            got = f_k_polar_coefficient(case["k"], case["targets"], tuple(case["region"]),
                                        x_cap=case["x_cap"])
            assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(
                case["coeff"], sort_keys=True), case

    @pytest.mark.parametrize("k,targets,x_cap,eps_cap", [
        (2, (4, 2), 1, None),
        (2, (6, 4), 2, 3),
        (3, (3, 3, 2), 1, None),
        (3, (4, 3, 3), 1, 2),
        (4, (3, 3, 3, 3), 1, 4),
        (4, (4, 3, 3, 2), None, 3),
    ])
    def test_caps_return_exactly_the_terms_within(self, k, targets, x_cap, eps_cap):
        full = f_k_polar_coefficient(k, targets)
        capped = f_k_polar_coefficient(k, targets, x_cap=x_cap, eps_cap=eps_cap)
        within = {(xp, ep): c for (xp, ep), c in full.terms.items()
                  if (x_cap is None or xp <= x_cap) and (eps_cap is None or ep <= eps_cap)}
        assert len(within) < len(full.terms), "the caps must drop something"
        assert capped.terms == within

    def test_region_independence_k4_all_regions(self):
        regions = list(permutations((1, 2, 3, 4)))
        assert len(regions) == 24
        base = f_k_polar_coefficient(4, (3, 3, 2, 2))
        assert not base.is_zero()
        for region in regions[1:]:
            assert f_k_polar_coefficient(4, (3, 3, 2, 2), region) == base, region
        key = CorrelatorKey(k=4, insertions=(2, 1, 1, 0), g=1)
        values = {extract_invariant(key, region=r).value for r in regions}
        assert values == {Fraction(7, 12)}


class TestOnePoint:
    def test_pure_x_part(self):
        s = one_point_series(7)
        for j in range(2, 8):
            assert s.coefficient_or((j,), xe({})).terms.get((j, -1)) == Fraction(1, j)

    def test_genus_term_pattern(self):
        # x^0, eps^(2g-1) at index 2g carries (1 - 2^(2g-1)) B_2g / (2^2g g)
        from gwp1.ring.numbers import bernoulli_number

        s = one_point_series(8)
        for g in (1, 2, 3):
            want = (1 - 2 ** (2 * g - 1)) * bernoulli_number(2 * g) / Fraction(2 ** (2 * g) * g)
            got = s.coefficient_or((2 * g,), xe({})).terms.get((0, 2 * g - 1))
            assert got == want

    def test_three_routes_agree(self):
        a = one_point_series(9)
        b = one_point_digamma_form(9)
        c = one_point_series_oracle(9)
        assert a == b == c

    def test_single_coefficient_matches_oracle(self):
        oracle = one_point_series_oracle(20)
        for j in range(2, 21):
            assert _one_point_coefficient(j) == oracle.coefficient_or((j,), xe({})), j

    @pytest.mark.parametrize("route", [one_point_digamma_form, one_point_series_oracle])
    def test_oracle_payloads_are_pinned(self, route):
        text = json.dumps(route(18).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "0a4ae029924f6603bb20c7d5789f1d84cde1fee08b3c9619a31da26248ab060b")

    def test_qseries_oracle_terms(self):
        qq = one_point_qseries_oracle(2, 6)
        assert qq.coefficient_or((2,), None).terms == {(1, 0): Fraction(1)}
        lam4 = qq.coefficient_or((4,), None).terms
        assert lam4[(1, 2)] == Fraction(1, 4)  # q eps^2 / 4
        assert lam4[(2, 0)] == Fraction(3, 2)  # 6 q^2 / 2!^2
        empty = one_point_qseries_oracle(0, 6)
        assert empty.is_zero()


class TestCorrelatorKey:
    def test_validation(self):
        with pytest.raises(ValueError):
            CorrelatorKey(k=2, insertions=(1,), g=0)
        with pytest.raises(ValueError):
            CorrelatorKey(k=1, insertions=(-1,), g=0)
        with pytest.raises(ValueError):
            CorrelatorKey(k=1, insertions=(0,), g=0, d=-1)

    @pytest.mark.parametrize("ins,g,m,d", [
        ((0,), 0, 0, 1),
        ((2,), 1, 0, 1),
        ((1,), 0, 1, 1),
        ((2, 2), 0, 0, 3),
        ((0, 0), 0, 2, 0),
    ])
    def test_forced_degree(self, ins, g, m, d):
        key = CorrelatorKey(k=len(ins), insertions=ins, g=g, m=m)
        assert key.forced_degree() == d

    def test_structural_zero_parity(self):
        key = CorrelatorKey(k=2, insertions=(0, 1), g=0)
        assert key.is_structural_zero()
        key2 = CorrelatorKey(k=1, insertions=(0,), g=2)  # degree would be negative
        assert key2.is_structural_zero()

    def test_declared_degree_checked(self):
        good = CorrelatorKey(k=1, insertions=(0,), g=0, d=1)
        bad = CorrelatorKey(k=1, insertions=(0,), g=0, d=2)
        assert not good.is_structural_zero()
        assert bad.is_structural_zero()


class TestExtraction:
    def test_one_point_degree_one(self):
        r = extract_invariant(CorrelatorKey(k=1, insertions=(0,), g=0))
        assert r.value == 1 and r.d == 1

    def test_unit_insertions_chain(self):
        # adding two unit-class insertions keeps the degree-zero triple value
        r = extract_invariant(CorrelatorKey(k=1, insertions=(0,), g=0, m=2))
        assert r.d == 0 and r.value == 1

    def test_two_point_degree_one(self):
        r = extract_invariant(CorrelatorKey(k=2, insertions=(0, 0), g=0))
        assert r.value == 1 and r.d == 1

    def test_structural_zero_flagged(self):
        r = extract_invariant(CorrelatorKey(k=2, insertions=(0, 1), g=0))
        assert r.structural_zero and r.value == 0

    def test_structural_zero_reports_the_declared_degree(self):
        # <tau_0> is 1 at degree 1, so (d=1, value 0) would be a wrong pair
        r = extract_invariant(CorrelatorKey(k=1, insertions=(0,), g=0, d=2))
        assert r.structural_zero and r.value == 0 and r.d == 2

    def test_permutation_symmetry_spot(self):
        a = extract_invariant(CorrelatorKey(k=3, insertions=(0, 2, 4), g=0))
        b = extract_invariant(CorrelatorKey(k=3, insertions=(4, 0, 2), g=0))
        assert a.value == b.value != 0

    def test_region_choice_does_not_change_values(self):
        key = CorrelatorKey(k=2, insertions=(1, 3), g=0)
        a = extract_invariant(key, region=(1, 2))
        b = extract_invariant(key, region=(2, 1))
        assert a.value == b.value

    @pytest.mark.parametrize("m", [1, 2])
    def test_string_equation(self, m):
        # <tau_0(1) prod_i tau_{a_i}(w)>_g = sum_j <... tau_{a_j - 1}(w) ...>_g
        # whenever the right side is stable (d >= 1 or 2g - 3 + k + m > 0);
        # the left side reads x**m (x_cap > 0), the right side x**(m - 1)
        checked = 0
        for k in (1, 2, 3):
            for ins in combinations_with_replacement(range(7, -1, -1), k):
                for g in range(4):
                    key = CorrelatorKey(k=k, insertions=ins, g=g, m=m)
                    if sum(ins) > 7 or key.is_structural_zero():
                        continue
                    if key.forced_degree() == 0 and 2 * g - 3 + k + m <= 0:
                        continue
                    lowered = [ins[:j] + (a - 1,) + ins[j + 1:] for j, a in enumerate(ins) if a]
                    rhs = sum(extract_invariant(CorrelatorKey(k=k, insertions=low, g=g, m=m - 1))
                              .value for low in lowered)
                    assert extract_invariant(key).value == rhs, key
                    checked += 1
        assert checked > 80

    def test_json_contract(self):
        r = extract_invariant(CorrelatorKey(k=1, insertions=(0,), g=0))
        data = r.to_json()
        assert data["value"] == "1" and data["d"] == 1 and data["k"] == 1

    def test_one_point_values_rational_and_reported(self):
        # rationality is asserted; the observed non-negativity at positive
        # degree is only reported, never asserted
        observed = []
        for g in (0, 1, 2):
            for i in range(2 * g, 2 * g + 5):
                key = CorrelatorKey(k=1, insertions=(i,), g=g)
                if key.is_structural_zero() or key.forced_degree() < 1:
                    continue
                r = extract_invariant(key)
                assert isinstance(r.value, Fraction)
                observed.append(((g, r.d, i), r.value))
        print("one-point values (g, d, ladder) -> value:", observed)

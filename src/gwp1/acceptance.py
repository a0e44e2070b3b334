"""Acceptance suite: one callable per criterion, with pass/fail reporting.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
runs them all and prints one line per criterion.  The same
functions back the pytest acceptance module and the CLI selftest command.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from gwp1 import analytic, asymptotics, correlators, resolvent
from gwp1.analytic import PrecisionContext
from gwp1.correlators import CorrelatorKey
from gwp1.ring.poly import MultiPoly

NE = ("n", "eps")


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime: float
    detail: str = ""
    checks: list = field(default_factory=list)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} ({self.runtime:.1f}s){': ' + self.detail if self.detail else ''}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "runtime_s": round(self.runtime, 2),
            "detail": self.detail,
            "checks": self.checks,
        }


def _criterion(name: str, limit: float | None = None):
    """Turn a check body returning (passed, detail, checks) into a criterion
    that times it; with a limit in seconds, a slower run fails."""

    def wrap(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.time()
            passed, detail, checks = body()
            rt = time.time() - t0
            passed = passed and (limit is None or rt < limit)
            return CriterionResult(name, passed, rt, detail, checks)

        return run

    return wrap


def _ne(terms) -> MultiPoly:
    return MultiPoly(NE, {k: Fraction(v) for k, v in terms.items()})


# --- criterion 1: exact cross-route agreement at order 20 ------------------

FIRST_ALPHA = {
    2: _ne({(0, 0): 1}),
    3: _ne({(1, 1): 2}),
    4: _ne({(2, 2): 3, (0, 2): Fraction(1, 4), (0, 0): 3}),
    5: _ne({(3, 3): 4, (1, 3): 1, (1, 1): 12}),
}
FIRST_GAMMA = {
    1: _ne({(0, 0): 1}),
    2: _ne({(1, 1): 1, (0, 1): Fraction(-1, 2)}),
    3: _ne({(2, 2): 1, (1, 2): -1, (0, 2): Fraction(1, 4), (0, 0): 2}),
    4: _ne({
        (3, 3): 1, (2, 3): Fraction(-3, 2), (1, 3): Fraction(3, 4), (1, 1): 6,
        (0, 3): Fraction(-1, 8), (0, 1): -3,
    }),
}


@_criterion("1 resolvent cross-route exact through order 20, <60s", 60)
def criterion_1():
    report = resolvent.cross_check_routes(20)
    rec = resolvent.recursion_resolvent(6)
    checks = [("cross_check_routes(20)", report.ok)]
    for idx, want in FIRST_ALPHA.items():
        got = rec.alpha.coefficient_or((idx,), MultiPoly.zero(NE))
        checks.append((f"alpha lam^-{idx}", got == want))
    for idx, want in FIRST_GAMMA.items():
        got = rec.gamma.coefficient_or((idx,), MultiPoly.zero(NE))
        checks.append((f"gamma lam^-{idx}", got == want))
    ok = all(c[1] for c in checks)
    return ok, f"{report.checked} coefficients", checks


# --- criterion 2: structural residuals at order 20 -------------------------


@_criterion("2 structural residuals vanish exactly at order 20")
def criterion_2():
    M = resolvent.closed_form_M(20)
    det_ok = M.det_series().is_zero()
    mat = resolvent.matrix_difference_residual(M)
    mat_ok = all(e.is_zero() for e in mat.entries())
    scal_ok = resolvent.scalar_difference_residual(M).is_zero()
    W = resolvent.formal_W(20)
    checks = [("det == 0", det_ok), ("shift-commutation == 0", mat_ok),
              ("scalar equation == 0", scal_ok),
              ("formal W det residual == 0", W.det_residual().is_zero()),
              ("formal W shift residuals == 0",
               all(e.is_zero() for e in W.shift_residuals().entries()))]
    return all(c[1] for c in checks), "", checks


# --- criterion 3: large-eps table exactness ---------------------------------


@_criterion("3 large-eps coefficients match all 12 table entries, <120s", 120)
def criterion_3():
    checks, uncompared = [], []
    for k in (1, 2, 3):
        _, _, matches, left = asymptotics.table_match("einf", k, 3)
        checks += [(f"H_{k},[{g}]", m) for g, m in matches.items()]
        uncompared += left
    return all(c[1] for c in checks) and not uncompared, f"{len(checks)} entries", checks


# --- criterion 4: small-q table exactness -----------------------------------


@_criterion("4 small-q coefficients match the table and the one-point formula")
def criterion_4():
    checks, uncompared = [], []
    for k, D in ((2, 3), (3, 2)):
        _, _, matches, left = asymptotics.table_match("q0", k, D)
        checks += [(f"H_{k},{d}", m) for d, m in matches.items()]
        uncompared += left
    # one-point: factored route vs the independent series-composed oracle
    _, _, matches, _ = asymptotics.table_match("q0", 1, 6)
    checks.append(("H_1,d (d<=6) two routes", all(matches.values())))
    return all(c[1] for c in checks) and not uncompared, "", checks


# --- criterion 5: one-point cross-route -------------------------------------


@_criterion("5 one-point routes agree exactly through order 10")
def criterion_5():
    prod = correlators.one_point_series(10)
    oracle = correlators.one_point_series_oracle(10)
    alt = correlators.one_point_digamma_form(10)
    checks = [("production == small-q oracle", prod == oracle),
              ("production == digamma organization", prod == alt)]
    return all(c[1] for c in checks), "exact through order 10", checks


# --- criterion 6: analytic identity suite ------------------------------------

GRID_Z = ("0.3", "1.25+0.45j", "-2.6+0.2j")
GRID_S = ("0.7", "1.1-0.4j", "2.3")


@_criterion("6 analytic identity suite at 128 bits on the grid, <60s", 60)
def criterion_6():
    pc = PrecisionContext(128)
    ctx = pc.ctx
    tol30 = ctx.mpf("1e-30")
    tol28 = ctx.mpf("1e-28")
    checks = []
    for zt in GRID_Z:
        for st in GRID_S:
            for sign in (1, -1):
                z = sign * ctx.mpc(complex(zt.replace(" ", "")))
                s = ctx.mpc(complex(st.replace(" ", "")))
                res = analytic.rank_one_residuals(pc, z, s)
                checks.append((f"tr B == 1 @({zt},{st},{sign})",
                               res["entry_trace_residual"] < ctx.mpf("1e-35")))
                checks.append(("det B", res["det"] < tol30))
                checks.append(("u-factorization", res["u_factorization_rel"] < tol30))
                checks.append(("v-factorization", res["v_factorization_rel"] < tol30))
                gbb = analytic.gbb_residuals(pc, z, s)
                checks.append(("series/Bessel identities", max(gbb) < tol30))
                try:
                    analytic.kernel_D(pc, z, z - 1, s, route="both")
                    agree = True
                except analytic.RouteDisagreement:
                    agree = False
                checks.append(("kernel route agreement", agree))
    # trace vs factorized k-point functions on tuples from the grid
    s0 = ctx.mpc(complex(GRID_S[1].replace(" ", "")))
    pts = [ctx.mpc(complex(zt.replace(" ", ""))) for zt in GRID_Z]
    pts.append(ctx.mpc("0.9", "-0.8"))
    for k in (2, 3, 4):
        zz = pts[:k]
        tr = analytic.h_k(pc, zz, s0, route="trace")
        fa = analytic.h_k(pc, zz, s0, route="factorized")
        checks.append((f"H_{k} trace vs factorized", abs(tr - fa) < tol28))
    bad = [c[0] for c in checks if not c[1]]
    return not bad, f"{len(checks)} checks" + (f"; failing: {bad[:3]}" if bad else ""), checks


# --- criterion 7: asymptotic matching of B against the formal series ---------


@_criterion("7 B matches the formal series within twice the first omitted term")
def criterion_7():
    pc = PrecisionContext(160)
    ctx = pc.ctx
    checks = []
    for z in (ctx.mpf(30), ctx.mpc(0, 50), ctx.mpc(40, 40)):
        res, bnd = analytic.asymptotic_matching_residuals(pc, z, 1, N=10)
        ok = all(r <= b for r, b in zip(res, bnd) if b > 0)
        checks.append((f"B ~ M at z={z}", ok))
    return all(c[1] for c in checks), "", checks


# --- criteria 8-10: regime verifications --------------------------------------


@_criterion("8 small-eps remainder orders within 25%, <5min", 300)
def criterion_8():
    checks = []
    for k, gmax in ((1, 2), (2, 1), (3, 0)):
        rep = asymptotics.numeric_check("eps0", k, gmax)
        checks.append((f"k={k} measured {rep.measured_order:.3f} vs {rep.expected_order}",
                       rep.passed))
    return all(c[1] for c in checks), "", checks


@_criterion("9 large-q residual decay order within 30%")
def criterion_9():
    checks = []
    for k in (1, 2):
        rep = asymptotics.numeric_check("qinf", k, 3)
        checks.append((f"k={k} measured {rep.measured_order:.3f} vs {rep.expected_order}",
                       rep.passed))
    return all(c[1] for c in checks), "", checks


@_criterion("10 Bessel large-order residual scales as nu^-3 within 30%")
def criterion_10():
    rep = asymptotics.numeric_check("debye", 1, 3)
    return rep.passed, f"measured {rep.measured_order:.3f} vs {rep.expected_order}", [
        ("nu^-3 scaling", rep.passed)]


# --- criterion 11: invariant properties ---------------------------------------


def _parity_keys():
    keys = []
    for i1 in range(0, 7):
        for i2 in range(0, 10):
            if (i1 + i2) % 2:
                keys.append((2, (i1, i2)))
    for i1 in range(0, 3):
        for i2 in range(0, 3):
            for i3 in range(0, 4):
                if (i1 + i2 + i3) % 2:
                    keys.append((3, (i1, i2, i3)))
    return keys


def _permutation_keys():
    import random

    rng = random.Random(20260808)
    keys = []
    while len(keys) < 16:
        k = rng.choice((2, 2, 3, 3))
        ins = tuple(sorted(rng.randint(0, 4) for _ in range(k)))
        if sum(ins) % 2 == 0 and len(set(ins)) > 1:
            g = rng.choice([g for g in (0, 1) if sum(ins) + 2 - 2 * g >= 0])
            keys.append((k, ins, g))
    keys.append((4, (0, 1, 1, 2), 0))
    keys += [(4, (1, 1, 1, 1), g) for g in range(4)]
    keys.append((4, (0, 0, 1, 1), 0))
    keys += [(4, (2, 1, 1, 0), g) for g in (1, 2)]
    return keys


@_criterion("11 invariant properties (parity, symmetry, region, oracles)")
def criterion_11():
    checks = []
    # parity vanishing: the x^0 slice of the series coefficient is zero
    pk = _parity_keys()
    parity_ok = True
    for k, ins in pk:
        coeff = correlators.f_k_polar_coefficient(k, [i + 2 for i in ins], x_cap=0)
        if not coeff.is_zero():
            parity_ok = False
    checks.append((f"parity vanishing on {len(pk)} keys", parity_ok and len(pk) >= 50))
    # permutation symmetry; the shuffled key is read in a shuffled region,
    # so a key with equal ladders still compares two different contractions
    perm_ok = True
    import random

    rng = random.Random(77)
    region_rng = random.Random(78)
    n_perm = 0
    for k, ins, g in _permutation_keys():
        base = correlators.extract_invariant(CorrelatorKey(k=k, insertions=ins, g=g))
        shuffled = list(ins)
        rng.shuffle(shuffled)
        other = correlators.extract_invariant(
            CorrelatorKey(k=k, insertions=tuple(shuffled), g=g),
            region=tuple(region_rng.sample(range(1, k + 1), k)),
        )
        n_perm += 1
        if base.value != other.value:
            perm_ok = False
    checks.append((f"permutation symmetry on {n_perm} keys", perm_ok and n_perm >= 20))
    # region independence, k = 3
    fa = correlators.f_k_series(3, (2, 2, 2), region=(1, 2, 3))
    fb = correlators.f_k_series(3, (2, 2, 2), region=(3, 2, 1))
    fc = correlators.f_k_series(3, (2, 2, 2), region=(2, 3, 1))
    checks.append(("region independence k=3", fa.series == fb.series == fc.series))
    # the degree-one one-point invariant equals 1, via both routes
    r = correlators.extract_invariant(CorrelatorKey(k=1, insertions=(0,), g=0))
    oracle = correlators.one_point_qseries_oracle(1, 2)
    lead = oracle.coefficient_or((2,), None)
    oracle_ok = lead is not None and lead.terms.get((1, 0)) == 1
    checks.append(("<tau_0> at genus 0 equals 1", r.value == 1 and r.d == 1 and oracle_ok))
    # genus-0 two-point values against the q-expanded closed form
    table = asymptotics.eps0_series_coefficients(2, 0, 10, 3)
    two_ok = True
    for d in (1, 2, 3):
        for i1 in range(0, 2 * d - 1):
            i2 = 2 * d - 2 - i1
            want = table.get((i1 + 2, i2 + 2, d), Fraction(0))
            got = correlators.extract_invariant(
                CorrelatorKey(k=2, insertions=(i1, i2), g=0)
            )
            if want != got.value * factorial(i1 + 1) * factorial(i2 + 1) or got.d != d:
                two_ok = False
    checks.append(("two-point genus 0 vs closed form through degree 3", two_ok))
    bad = [c[0] for c in checks if not c[1]]
    return not bad, ("failing: " + ", ".join(bad)) if bad else "", checks


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5, criterion_6,
    criterion_7, criterion_8, criterion_9, criterion_10, criterion_11,
]


def run_all(echo=print) -> list[CriterionResult]:
    """Run every criterion, emitting one pass/fail line per criterion
    through ``echo`` as each finishes."""
    results = []
    for fn in ALL_CRITERIA:
        r = fn()
        echo(r.line())
        results.append(r)
    return results

"""Exact k-point generating series and individual stationary invariants.

The k-point series is assembled from cyclic-coset sums of traces of the
bispectrally substituted resolvent, with every pairwise pole expanded
geometrically in a declared region of the spectral variables.  Extraction of
a single invariant never materializes the full multivariate series: for each
coset, a transfer-matrix pass contracts the trace of the k matrix factors
position by position for the one target monomial, merging every path that
reaches the same (geometric power, row) state.  When one invariant is read,
every product is truncated at its x and eps degrees.

The one-point series has its own production formula (Bernoulli-difference
form) plus two independently organized routes used as oracles; an invariant
reads a single coefficient of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, inf, lcm

from gwp1.resolvent import (
    RING_S,
    RING_XE,
    S_VARS,
    XE_LAURENT,
    XE_VARS,
    Z,
    InsufficientOrderError,
    closed_form_M,
    substitute_shifted,
)
from gwp1.ring.numbers import bernoulli_poly, bernoulli_tail, coset_reps
from gwp1.ring.poly import MultiPoly, _int_add_into, _int_product
from gwp1.ring.series import MultiSeries


def _xe_zero() -> MultiPoly:
    return MultiPoly.zero(XE_VARS, XE_LAURENT)


@lru_cache(maxsize=8)
def _m_entries_in_lambda(N: int):
    """Entries of the substituted resolvent as sparse integer maps.

    Returns ({(row, col): {j: {(x, eps): int}}}, D, N): the numerators of the
    lam**-j coefficients over one denominator D common to all four entries.
    Entry (0,0) carries the identity contribution at index 0.
    """
    R = closed_form_M(N)
    one = MultiSeries.const(("z",), (N,), MultiPoly.const(("s",), 1), ring=RING_S)
    entries = {
        (0, 0): one + R.alpha,
        (0, 1): R.beta,
        (1, 0): R.gamma,
        (1, 1): -R.alpha,
    }
    polys = {key: substitute_shifted(series, N).terms for key, series in entries.items()}
    den = lcm(*(p.den for mp in polys.values() for p in mp.values()))
    # drop each polynomial as its integer copy is made: one form held at a time
    out = {}
    for key, mp in polys.items():
        out[key] = ints = {}
        while mp:
            (j,), p = mp.popitem()
            ints[j] = {e: n * (den // p.den) for e, n in p.num.items()}
    return out, den, N


@lru_cache(maxsize=16)
def _m_entries_x_capped(N: int, x_cap: int):
    """Entry maps with terms above a given x-degree dropped (extraction of a
    single x power never needs them), over the same denominator.  Indices
    with no surviving terms are removed so the enumeration prunes on them."""
    full, den, avail = _m_entries_in_lambda(N)
    out = {}
    for key, mp in full.items():
        capped = {}
        for j, num in mp.items():
            cut = {e: n for e, n in num.items() if e[0] <= x_cap}
            if cut:
                capped[j] = cut
        out[key] = capped
    return out, den, avail


@dataclass(frozen=True)
class FkSeries:
    k: int
    region: tuple
    orders: tuple
    series: MultiSeries

    def coefficient(self, target) -> MultiPoly:
        return self.series.coefficient_or(tuple(target), _xe_zero())

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "region": list(self.region),
            "orders": list(self.orders),
            "series": self.series.to_json(),
        }


def _fk_coefficient(
    k: int, targets: dict, region: tuple, resolvent_order: int,
    x_cap: int | None = None, eps_cap: int | None = None,
) -> MultiPoly:
    """Coefficient of prod_v lam_v^-targets[v] in the k-point assembly.

    Each coset contributes the trace of a product of k matrix factors.  The
    factor at a position takes the lam-index left over by the geometric
    powers m of its two incident edges (minus m + 1 at the edge's larger
    variable, plus m at the smaller), so the product is contracted as a
    transfer matrix over states (m of the edge just crossed, row entering the
    next factor).  Each pass fixes the state of the last edge, pushes a sparse
    {state: numerators} map through the k positions and closes on that state.
    The entries share one denominator D, so every path sits over D**k: paths
    merge as integer sums and one division by D**k ends the extraction.

    Matrix indices around any cycle sum to (sum targets) - k exactly, which
    bounds the contraction and guarantees the conservative resolvent order
    policy is sufficient.  With ``x_cap`` or ``eps_cap`` set, every product
    drops terms above that x or eps degree; entry exponents of both are
    non-negative, so this is sound when only terms within the caps are read.
    """
    if x_cap is None:
        entries, den, avail = _m_entries_in_lambda(resolvent_order)
    else:
        entries, den, avail = _m_entries_x_capped(resolvent_order, x_cap)
    T = sum(targets.values())
    j_max = T - k
    if j_max > avail:
        raise InsufficientOrderError(
            f"need resolvent order {j_max}, computed only {avail}"
        )
    caps = (x_cap, eps_cap)
    lim = None if caps == (None, None) else tuple(inf if c is None else c for c in caps)
    rank = {v: i for i, v in enumerate(region)}
    total: dict[tuple, int] = {}
    # geometric powers chain at most once through each rank level, so no
    # feasible edge power exceeds the total budget plus slack
    m_cap = T + k + 2

    for sigma in coset_reps(k):
        # the trace is cyclic: start at the region's largest variable, the
        # larger end of both its edges, which bounds the starting power
        top = sigma.index(region[0])
        sigma = sigma[top:] + sigma[:top]
        # edge i joins position i and i+1 (mod k); sign flips when the edge
        # is expanded on the swapped ordering.  Per position: the target and
        # whether the variable there is the larger end of the edge before it
        # and of the edge after it.
        his = []
        sign = 1
        for i in range(k):
            a, b = sigma[i], sigma[(i + 1) % k]
            hi = a if rank[a] < rank[b] else b
            if hi == b:
                sign = -sign
            his.append(hi)
        steps = [(targets[v], his[pos - 1] == v, his[pos] == v) for pos, v in enumerate(sigma)]
        for m_end, row_end in product(range(0, m_cap + 1), (0, 1)):
            # None stands for the empty product before the first position
            states: dict[tuple, dict | None] = {(m_end, row_end): None}
            for pos, (t, prev_hi, here_hi) in enumerate(steps):
                # the last position closes the cycle on the starting state
                last = pos == k - 1
                m_lo, m_hi, cols = (m_end, m_end, (row_end,)) if last else (0, m_cap, (0, 1))
                nxt: dict[tuple, dict] = {}
                for (m_prev, row), acc in states.items():
                    base = t - m_prev - 1 if prev_hi else t + m_prev
                    # the entry index is j = base - 1 - m (or base + m); only
                    # the m with 0 <= j <= j_max are visited
                    m_min, m_max = ((base - 1 - j_max, base - 1) if here_hi
                                    else (-base, j_max - base))
                    ms = range(max(m_min, m_lo), min(m_max, m_hi) + 1)
                    for col in cols:
                        row_entries = entries[(row, col)]
                        for m in ms:
                            c = row_entries.get(base - 1 - m if here_hi else base + m)
                            if c is None:
                                continue
                            # the first position shares the entry: no sum lands on it
                            p = c if acc is None else _int_product(acc, c, lim)
                            if p and (old := nxt.setdefault((m, col), p)) is not p:
                                _int_add_into(old, p)
                states = nxt
            if states:
                _int_add_into(total, states[(m_end, row_end)], -sign)

    dk = den**k
    if k == 2:
        # delta-term 1/(lam_1 - lam_2)^2 expanded in the declared region:
        # sum_m (m+1) hi^-(m+2) lo^m; touches only polar targets
        hi, lo = region[0], region[1]
        if targets[lo] <= 0 and targets[hi] == -targets[lo] + 2:
            _int_add_into(total, {(0, 0): dk}, targets[lo] - 1)
    return MultiPoly.from_ints(XE_VARS, total, dk, XE_LAURENT)


def resolvent_order_policy(k: int, orders) -> int:
    """Conservative order for the substituted resolvent: T + 2k for total
    extraction budget T (cycle indices actually sum to T - k).  Rounded up
    to a multiple of 4 so repeated extractions share the cached resolvent."""
    n = sum(max(o, 0) for o in orders) + 2 * k
    return (n + 3) // 4 * 4


def f_k_series(k: int, orders, region: tuple | None = None) -> FkSeries:
    """K-point series (k >= 2) exact through the per-variable orders.

    The region is the ordering of the variables by decreasing magnitude;
    coefficients are independent of it (verified in tests), the canonical
    ordering (1, ..., k) is the production default.
    """
    if k < 2:
        raise ValueError("f_k_series requires k >= 2 (one-point has its own route)")
    orders = tuple(int(o) for o in orders)
    if len(orders) != k:
        raise ValueError("one order per variable required")
    if min(orders) < 0:
        raise ValueError(f"orders must be >= 0, got {orders}")
    if region is None:
        region = tuple(range(1, k + 1))
    if sorted(region) != list(range(1, k + 1)):
        raise ValueError("region must order the variables 1..k")
    n_res = resolvent_order_policy(k, orders)
    terms = {}
    for tgt in product(*(range(0, o + 1) for o in orders)):
        targets = {v: tgt[v - 1] for v in range(1, k + 1)}
        c = _fk_coefficient(k, targets, region, n_res)
        if not c.is_zero():
            terms[tgt] = c
    lam_vars = tuple(f"lam{v}" for v in range(1, k + 1))
    series = MultiSeries(lam_vars, orders, terms, ring=RING_XE)
    return FkSeries(k=k, region=region, orders=orders, series=series)


def f_k_polar_coefficient(
    k: int, targets, region: tuple | None = None,
    x_cap: int | None = None, eps_cap: int | None = None,
) -> MultiPoly:
    """Single coefficient at an arbitrary (possibly polar) multi-index.

    With ``x_cap`` or ``eps_cap`` set, only the terms up to that x or eps
    degree are computed and returned."""
    if region is None:
        region = tuple(range(1, k + 1))
    tmap = {v: int(t) for v, t in zip(range(1, k + 1), targets)}
    n_res = resolvent_order_policy(k, [max(t, 0) for t in tmap.values()])
    return _fk_coefficient(k, tmap, region, n_res, x_cap, eps_cap)


# ---------------------------------------------------------------------------
# one-point series: production formula and oracle routes
# ---------------------------------------------------------------------------


def _one_point_coefficient(j: int) -> MultiPoly:
    """Coefficient of lam**-j (j >= 2) in the one-point series:

        eps^j/j sum_{i=0}^{[j/2]} eps^(-1-2i)/i!^2
            sum_{l=0}^{2i} (-1)^l C(2i, l) B_j(x/eps + i - l + 1/2)

    with u**n mapping to x**n eps**-n.  The inner sum is a (2i)-th backward
    difference of a degree-j polynomial, so it vanishes for 2i > j and the
    i-sum is legitimately truncated.  For i >= 1, B_j(u + 1) - B_j(u) =
    j u^(j-1) makes it j sum_{l<2i} (-1)^l C(2i-1, l) (u + i - l - 1/2)^(j-1),
    summed as integers over 2^(j-1); only the i = 0 term shifts B_j.
    """
    half = bernoulli_poly(j).subs_shift("u", Fraction(1, 2))
    total = MultiPoly.from_ints(XE_VARS, {(n, j - 1 - n): c for (n,), c in half.num.items()},
                                half.den * j, XE_LAURENT)
    for i in range(1, j // 2 + 1):
        # (u + c/2)^(j-1) has the u^n numerator C(j-1, n) 2^n c^(j-1-n) over 2^(j-1)
        terms = [((-1) ** ell * comb(2 * i - 1, ell), 2 * (i - ell) - 1) for ell in range(2 * i)]
        num = {(n, j - 1 - 2 * i - n): comb(j - 1, n) * 2**n * s for n in range(j)
               if (s := sum(w * c ** (j - 1 - n) for w, c in terms))}
        total = total + MultiPoly.from_ints(XE_VARS, num, 2 ** (j - 1) * factorial(i) ** 2,
                                            XE_LAURENT)
    return total


def one_point_series(N: int) -> MultiSeries:
    """One-point series through lam**-N by the Bernoulli-difference formula
    (see :func:`_one_point_coefficient`)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    out: dict[tuple, MultiPoly] = {}
    for j in range(2, N + 1):
        coeff = _one_point_coefficient(j)
        if not coeff.is_zero():
            out[(j,)] = coeff
    return MultiSeries(("lam",), (N,), out, ring=RING_XE)


def _one_point_from_z(terms: dict, N: int) -> MultiSeries:
    """The one-point series through lam**-N from the z-series of its oracles:

        (1/eps) [ S(z = (lam - x)/eps, s = 1/eps) + sum_{m>=2} x^m/(m lam^m) ],

    with S = sum_t terms[(t,)] z^-t, each coefficient a polynomial in s."""
    S = MultiSeries((Z,), (N,), terms, ring=RING_S)
    xonly = {(m,): MultiPoly.from_ints(XE_VARS, {(m, 0): 1}, m, XE_LAURENT)
             for m in range(2, N + 1)}
    acc = substitute_shifted(S, N) + MultiSeries(("lam",), (N,), xonly, ring=RING_XE)
    return acc.scale(MultiPoly.from_ints(XE_VARS, {(0, -1): 1}, 1, XE_LAURENT))


def one_point_digamma_form(N: int) -> MultiSeries:
    """Independently organized one-point series (digamma-term form):

        sum_{g>=1} eps^(2g-1) (1 - 2^(2g-1)) B_2g / (2^2g g) (lam - x)^-2g
        + (1/eps) sum_{j>=2} x^j/(j lam^j)
        + sum_{j>=2} eps^j (lam - x)^-j sum_{i=1}^{[j/2]} eps^(-1-2i)/i!^2
              sum_{l=0}^{2i-1} (-1)^l C(2i-1, l) (i - l - 1/2)^(j-1)

    The genus coefficient is -:func:`bernoulli_tail`; in z = (lam - x)/eps
    and s = 1/eps the terms are (1/eps) z^-2g and (1/eps) z^-j s^2i.
    Used as a cross-check of :func:`one_point_series`.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    terms = {}
    for j in range(2, N + 1):
        coeffs = {(0,): -bernoulli_tail(j // 2)} if j % 2 == 0 else {}
        for i in range(1, j // 2 + 1):
            s = sum((-1) ** ell * comb(2 * i - 1, ell) * Fraction(2 * (i - ell) - 1, 2) ** (j - 1)
                    for ell in range(2 * i))
            coeffs[(2 * i,)] = s / factorial(i) ** 2
        terms[(j,)] = MultiPoly(S_VARS, coeffs)
    return _one_point_from_z(terms, N)


QE_VARS = ("q", "eps")
RING_QE = "QQ[q,eps]"


def one_point_qseries_oracle(D: int, N: int) -> MultiSeries:
    """Small-q expansion of the analytic one-point function, exact:

        sum_{d=1..D} q^d (2d-1)! / ( d!^2 prod_{j=1..d} (lam^2 - (2j-1)^2 eps^2/4) )

    expanded through lam**-N with coefficients polynomial in (q, eps).  The
    d-th term is the independent oracle for degree-d one-point invariants.
    """
    acc = MultiSeries.zero(("lam",), (N,), ring=RING_QE)
    for d in range(1, D + 1):
        if 2 * d > N:
            break
        term = MultiSeries.const(
            ("lam",),
            (N,),
            MultiPoly(QE_VARS, {(d, 0): Fraction(factorial(2 * d - 1), factorial(d) ** 2)}),
            ring=RING_QE,
        )
        for jj in range(1, d + 1):
            c2 = Fraction(2 * jj - 1, 2) ** 2
            inv_terms = {}
            for m in range(0, (N - 2) // 2 + 1):
                inv_terms[(2 + 2 * m,)] = MultiPoly(
                    QE_VARS, {(0, 2 * m): c2**m}
                )
            term = term * MultiSeries(("lam",), (N,), inv_terms, ring=RING_QE)
        acc = acc + term
    return acc


def one_point_series_oracle(N: int) -> MultiSeries:
    """One-point series rebuilt from the small-q oracle plus the asymptotic
    digamma series (Bernoulli-number form) and the exact logarithm bookkeeping:

        (1/eps) [ H1q(lam - x; eps)|_{q=1}
                  - sum_{g>=1} (1 - 2^(1-2g)) B_2g/(2g) eps^2g (lam-x)^-2g
                  + sum_{m>=2} x^m/(m lam^m) ]

    H1q is homogeneous of degree 0, so its lam^-t q^d eps^(t-2d) term is
    z^-t s^2d at q = 1, with z = (lam - x)/eps and s = 1/eps.  This route
    shares no code with the Bernoulli-difference production formula; exact
    agreement is an acceptance criterion.
    """
    terms = {(t,): MultiPoly.from_ints(S_VARS, {(2 * d,): n for (d, _), n in p.num.items()},
                                       p.den)
             for (t,), p in one_point_qseries_oracle(N // 2, N).terms.items()}
    for g in range(1, N // 2 + 1):  # H1q has a q^g term at lam^-2g
        terms[(2 * g,)] -= bernoulli_tail(g)
    return _one_point_from_z(terms, N)


# ---------------------------------------------------------------------------
# invariant extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatorKey:
    """Index of one stationary invariant: k descendent insertions of the
    point class with ladders ``insertions``, genus ``g``, ``m`` extra
    dilaton-free insertions of the unit class, and the forced degree ``d``.

    Nonzero values require the degree-dimension relation

        2g - 2 + 2d + m = sum(insertions).
    """

    k: int
    insertions: tuple
    g: int
    m: int = 0
    d: int | None = None

    def __post_init__(self):
        if self.k < 1 or self.k != len(self.insertions):
            raise ValueError("k must equal the number of insertions and be >= 1")
        if (any(i < 0 for i in self.insertions) or self.g < 0 or self.m < 0
                or (self.d is not None and self.d < 0)):
            raise ValueError("insertions, genus, m and degree must be non-negative")

    def forced_degree(self) -> int | None:
        """Degree forced by dimension matching, or None when no degree exists."""
        num = sum(self.insertions) + 2 - 2 * self.g - self.m
        if num < 0 or num % 2:
            return None
        return num // 2

    def is_structural_zero(self) -> bool:
        fd = self.forced_degree()
        if fd is None:
            return True
        return self.d is not None and self.d != fd


@dataclass(frozen=True)
class InvariantResult:
    key: CorrelatorKey
    value: Fraction
    d: int | None
    structural_zero: bool

    def to_json(self) -> dict:
        from gwp1.ring.numbers import rat_to_str

        return {
            "k": self.key.k,
            "insertions": list(self.key.insertions),
            "m": self.key.m,
            "g": self.key.g,
            "d": self.d,
            "value": rat_to_str(self.value),
            "structural_zero": self.structural_zero,
        }


def extract_invariant(key: CorrelatorKey, region: tuple | None = None) -> InvariantResult:
    """Read one stationary invariant off the exact generating series.

    The x**m Taylor coefficient carries the unit-class insertions; the value
    sits at the eps**(2g-2+k) coefficient after removing the ladder
    factorials.  Keys failing the dimension relation report a flagged zero,
    at the declared degree when the key has one.
    """
    fd = key.forced_degree()
    if key.is_structural_zero():
        return InvariantResult(key=key, value=Fraction(0), d=fd if key.d is None else key.d,
                               structural_zero=True)
    norm = Fraction(factorial(key.m))
    for i in key.insertions:
        norm /= factorial(i + 1)
    eps_target = 2 * key.g - 2 + key.k
    if key.k == 1:
        coeff = _one_point_coefficient(key.insertions[0] + 2)
    else:
        targets = [i + 2 for i in key.insertions]
        coeff = f_k_polar_coefficient(key.k, targets, region, x_cap=key.m, eps_cap=eps_target)
    value = Fraction(coeff.num.get((key.m, eps_target), 0), coeff.den) * norm
    return InvariantResult(key=key, value=value, d=fd, structural_zero=False)

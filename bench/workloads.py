"""Seeded inputs, op execution and correctness checks for each workload.

``make_ops`` is pure Python and never imports gwp1: the program receives only
the generated op specs.  ``run_op`` executes one spec against gwp1, and
``check_ops`` verifies outputs after the timed region, against the golden
invariant table, a partner route, or an independent mpmath reference.

Why the draws are shaped as they are: a run must cost about the same on any
seed (the benchmark gates the spread of its metrics across seeds), so every
draw is stratified.  The cost of an invariant depends strongly on which slot
holds the large ladder, so a drawn tuple is rotated once per genus entry of
its row; ladder sums, coupling sub-bands and pool sizes are fixed, and the
seed picks within them.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("invariant_table", "series_routes", "numeric_eval", "cli_session")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden_invariants.json")


# ---------------------------------------------------------------------------
# input generation (pure Python, seeded)
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def compositions(k: int, total: int):
    """Ordered k-tuples of non-negative integers summing to ``total``."""
    if k == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total + 1) for rest in compositions(k - 1, total - a)]


def genus_row(ins) -> range:
    """Every genus whose forced degree exists: 2g - 2 + 2d = sum(ins), d >= 0."""
    total = sum(ins)
    return range(total // 2 + 2) if total % 2 == 0 else range(0)


def _rotated_row(ins):
    """The full genus row of ``ins``, entry g read with the insertions rotated
    g times (each ladder visits each slot; the value is symmetric)."""
    k = len(ins)
    return [("inv", ins[g % k:] + ins[:g % k], g) for g in genus_row(ins)]


def _invariant_ops(rng: random.Random, smoke: bool):
    if smoke:
        return (_rotated_row(rng.choice(compositions(2, 4))) + _rotated_row((1, 1, 0))
                + [("inv", (4,), rng.choice(genus_row((4,))))])
    # Ladder sums are fixed per stratum so that the op-cost quantiles hold
    # still across seeds; the seed picks tuples, slots and genera.  The k=2
    # rows, which set op_p50_ms, also spread the imbalance |i1 - i2| over four
    # sub-bands per sum, since a k=2 key costs 0.5-75 ms by imbalance alone.
    # A pass must stay near 5 s so that four or five fit in a run: each op's
    # best latency over the passes is what the run reports.  So k=4 has the
    # (0,0,0,0) row and one sum-2 key at one genus (about 1.8 s on its own),
    # and (1,1,1,1), at 4-6 s a key, is left out.
    ins = rng.choice(compositions(4, 2))
    ops = [("inv", ins, rng.choice(genus_row(ins)))]
    ops += _rotated_row((0, 0, 0, 0))
    # A k=3 row costs 0.5-2.5 s by the shape of its tuple, so the shapes are
    # fixed (two of sum 6) and the seed picks their slot order.
    for shape in ((3, 2, 1), (4, 1, 1)):
        ops += _rotated_row(tuple(rng.sample(shape, 3)))
    for total in (10, 12, 14, 16):
        n = total // 2 + 1
        for j in range(4):
            low = rng.randrange(j * n // 4, (j + 1) * n // 4)
            ins = (low, total - low)
            ops += _rotated_row(ins if rng.random() < 0.5 else ins[::-1])
    ops += [("inv", (i,), rng.choice(genus_row((i,)))) for i in range(0, 13, 2)]
    # Kept in this fixed class order: correlators holds its entry maps in
    # bounded lru caches, so a seeded order would change how much work is
    # redone, and so wall_s, from seed to seed.
    return ops


def _series_ops(rng: random.Random, smoke: bool):
    # Orders sit at the band centres N = 24 and M = 18: the heavy constructions
    # grow like N^5, so one order step moves op_p90_ms by about 20%.  The seed
    # draws the formal_W order and the order of the independent groups; each
    # group keeps its internal order, since later ops reuse its first output.
    n, m, top = (8, 6, 1) if smoke else (24, 18, 3)
    w = rng.randint(4, 8)
    groups = [
        [("cross_check", n)],
        [("closed_form", n), ("det_residual", n), ("matrix_residual", n),
         ("scalar_residual", n), ("difference_eq", n)],
        [("formal_W", w), ("W_det_residual", w), ("W_shift_residual", w)],
        [("one_point", route, m) for route in ("production", "oracle", "digamma")],
        # the small-q table has k = 2 through d = 3 and k = 3 through d = 2
        [("q0_table", 2, top), ("q0_table", 3, min(top, 2))],
        [("einf_table", k, top) for k in (1, 2, 3)],
        [("consistency", k, min(top, 2)) for k in (1, 2, 3)],
        [("bridge", d) for d in range(1, top + 1)],
    ]
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _half_int_clear(z: complex, margin=1e-3) -> bool:
    nearest = round(z.real - 0.5) + 0.5
    return abs(z - nearest) >= margin


def _draw_z(rng, imag=0.6):
    while True:
        z = complex(rng.uniform(-2.4, 2.4), rng.uniform(-imag, imag) if imag else 0.0)
        if _half_int_clear(z):
            return z


def _draw_zs(rng, k):
    while True:
        zs = [_draw_z(rng) for _ in range(k)]
        if all(abs(zs[i] - zs[j]) >= 1e-3 for i in range(k) for j in range(i + 1, k)):
            return zs


SMALL_KINDS = (("B", 1), ("D_series", 2), ("D_product", 2),
               ("hk_trace", 2), ("hk_trace", 3), ("hk_trace", 4),
               ("hk_factorized", 2), ("hk_factorized", 3), ("hk_factorized", 4),
               ("h1", 1), ("h1_star", 1))
SMALL_S = (0.25, 8.0)
LARGE_S = (10.0, 60.0)


def _stratified(rng, lo, hi, n):
    """One uniform draw from each of n equal sub-bands of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]
    rng.shuffle(vals)
    return vals


def _numeric_ops(rng: random.Random, smoke: bool):
    per_kind, n_large = (1, 2) if smoke else (8, 22)
    ops = []
    for kind, npts in SMALL_KINDS:
        for r in _stratified(rng, *SMALL_S, per_kind):
            s = cmath.rect(r, rng.uniform(-math.pi / 6, math.pi / 6))
            ops.append((kind, [_pack(z) for z in _draw_zs(rng, npts)], _pack(s), 128))
    # Large coupling: matrix_B on real z at the policy's precision (bits None:
    # the worker asks analytic.required_bits).  One coupling at the midpoint of
    # each sub-band: the cost grows like |s|^4 and the 128-bit failures start
    # near s = 12, so seeded jitter would move op_p90_ms and verified_share.
    lo, hi = LARGE_S
    for s in (lo + (hi - lo) * (j + 0.5) / n_large for j in range(n_large)):
        ops.append(("B", [_pack(_draw_z(rng, imag=0))], _pack(complex(s, 0)), None))
    rng.shuffle(ops)
    return ops


def _pack(z: complex):
    return [z.real, z.imag]


def _unpack(p) -> complex:
    return complex(p[0], p[1])


def _arg(z: complex) -> str:
    return repr(z).strip("()")


# cli_session: a pool of distinct small jobs, per_kind of each command kind.
# With 16 per kind the one-point, resolvent and regime parts are their whole
# candidate lists, so the pool's miss costs barely depend on the seed
def _cli_pool(rng: random.Random, per_kind: int):
    pool = []

    def key(ins):
        return (ins, rng.choice(genus_row(ins)))

    keys = [key((i,)) for i in (0, 2, 4, 6, 8)]
    for j, total in enumerate((2, 4, 6, 8, 10, 12)):
        # the smaller ladder from sub-band j of 0..total/2: cost follows imbalance
        n = total // 2 + 1
        low = rng.randrange(j * n // 6, max((j + 1) * n // 6, j * n // 6 + 1))
        keys.append(key((low, total - low) if rng.random() < 0.5 else (total - low, low)))
    keys += rng.sample([(t, g) for t in compositions(3, 2) for g in genus_row(t)], 4)
    keys.append(key((0, 0, 0)))
    for ins, g in keys[:per_kind]:
        pool.append(("invariant", ["invariant", "--k", str(len(ins)),
                                   "--i", ",".join(map(str, ins)), "--g", str(g)]))
    evals = ("G", "B", "H1", "D", "Hk")
    for j, op in enumerate(evals):
        # couplings stratified within each op, whose cost grows with |s|
        for r in _stratified(rng, 0.25, 8.0, (per_kind + len(evals) - 1 - j) // len(evals)):
            s = cmath.rect(r, rng.uniform(-math.pi / 6, math.pi / 6))
            zs = _draw_zs(rng, 2 if op in ("D", "Hk") else 1)
            args = ";".join(_arg(z) for z in zs + [s])
            extra = ["--route", "series"] if op == "D" else []
            pool.append(("eval", ["eval", "--op", op, "--args", args] + extra))
    one_point = [["one-point", "--order", str(n), "--route", route]
                 for n in range(3, 11) for route in ("production", "both")]
    resolvent = [["resolvent", "--route", "both", "--order", str(n)] for n in range(2, 18)]
    regime = [["regime", "--name", name, "--k", str(k), flag, str(top)]
              for name, ks, flag in (("q0", (1, 2, 3), "--dmax"), ("einf", (1, 2, 3), "--gmax"),
                                     ("debye", (1, 2), "--gmax"))
              for k in ks for top in (1, 2)]
    for kind, cands in (("one-point", one_point), ("resolvent", resolvent),
                        ("regime", regime)):
        pool += [(kind, argv) for argv in rng.sample(cands, per_kind)]
    return pool


def _cli_ops(rng: random.Random, smoke: bool):
    # Repeats are split evenly over the five kinds (Zipf-like within a kind,
    # over a seeded ranking), so the mix of kinds among hits does not depend
    # on the seed.  About 70% of requests hit: with half, the median would sit
    # on the boundary between hits and misses.
    per_kind, repeats_per_kind = (1, 2) if smoke else (16, 50)
    pool = _cli_pool(rng, per_kind)
    stream = list(range(len(pool)))
    for kind in dict.fromkeys(k for k, _ in pool):
        jobs = [j for j, (k, _) in enumerate(pool) if k == kind]
        rng.shuffle(jobs)
        weights = [1.0 / (1 + r) ** 1.1 for r in range(len(jobs))]
        stream += rng.choices(jobs, weights, k=repeats_per_kind)
    # The first eval job and the first invariant job (k=1, i=0) of the pool
    # get two more requests: their first repeat runs with --verify-cache and
    # the second with --no-cache.  They are fixed jobs because a forced
    # recompute costs what a miss does, 1-140 ms for an invariant job, and a
    # seeded choice would move wall_s; a resolvent or one-point job would cost
    # up to 300 ms.
    forced = {kind: next(j for j, (k, _) in enumerate(pool) if k == kind)
              for kind in ("eval", "invariant")}
    stream += [j for j in forced.values() for _ in range(2)]
    rng.shuffle(stream)
    seen, flags, done = set(), {}, {}
    for pos, job in enumerate(stream):
        kind = pool[job][0]
        if job in seen and job == forced.get(kind) and done.get(kind, 0) < 2:
            flags[pos] = ["--verify-cache"] if kind not in done else ["--no-cache"]
            done[kind] = done.get(kind, 0) + 1
        seen.add(job)
    return [("cli", pool[job][0], flags.get(pos, []) + pool[job][1])
            for pos, job in enumerate(stream)]


BANDS = {
    "invariant_table": {
        "key_space": "k=1: i<=12; k=2: sum<=16; k=3: sum<=6; k=4: sum<=2",
        "draw": "one k=4 sum-2 tuple at one genus; rows of (0,0,0,0), k=3 rows "
                "of (3,2,1) and (4,1,1) in seeded slot order, k=2 tuples of sum "
                "10,12,14,16 four times each (smaller ladder from four sub-bands "
                "of 0..sum/2); every even k=1 ladder at one genus; in that order",
        "row": "every genus with forced degree >= 0, entry g rotated g slots",
    },
    "series_routes": {
        "orders": "N = 24, M = 18; formal_W order drawn from 4..8; group order shuffled",
        "tables": "expand_q0 for k=2 (d<=3) and k=3 (d<=2), expand_eps_inf for "
                  "k=1..3 (g<=3), each vs every table entry; q0_einf_consistency(k, 2) "
                  "for k=1..3; eps0_q0_bridge(2, 1, d) for d=1..3",
    },
    "numeric_eval": {
        "small": "8 ops per kind of " + ", ".join(f"{k}/{n}" for k, n in SMALL_KINDS)
                 + f"; |s| stratified in {SMALL_S}, |arg s| <= pi/6, 128 bits; "
                 "z in [-2.4,2.4]x[-0.6,0.6]i, >= 1e-3 from Z+1/2 and from each other",
        "large": f"22 matrix_B ops, seeded real z, s at the 22 sub-band midpoints "
                 f"of {LARGE_S}, at analytic.required_bits(z, s)",
        "check": "relative error <= 2^-(bits/2) against mpmath hyp1f2 / hyp0f1 / "
                 "hyper / digamma at bits/2 + 96 bits",
    },
    "cli_session": {
        "pool": "16 jobs each of invariant (k=1: i=0,2,..,8; k=2: sum=2,4,..,12; "
                "k=3: sum<=2), eval (G, B, H1, D, Hk, |s|<=8 stratified per op), "
                "one-point (order 3..10, production and both), resolvent --route both "
                "(order 2..17), regime (q0, einf for k<=3, debye)",
        "stream": "each pool job once plus 50 Zipf-like repeats per kind, and the "
                  "first eval and first invariant job twice more with "
                  "--verify-cache then --no-cache; shuffled (about 70% hits)",
    },
}


_MAKERS = {"invariant_table": _invariant_ops, "series_routes": _series_ops,
           "numeric_eval": _numeric_ops, "cli_session": _cli_ops}


def make_ops(workload: str, seed: int, smoke: bool = False):
    """The workload's op list for this seed (JSON-serialisable tuples)."""
    return _MAKERS[workload](_rng(workload, seed), smoke)


def describe_ops(ops) -> dict:
    """Op mix: count of ops per kind."""
    mix: dict[str, int] = {}
    for op in ops:
        kind = op[0] if op[0] not in ("inv", "cli") else (
            f"inv.k{len(op[1])}" if op[0] == "inv" else f"cli.{op[1]}")
        mix[kind] = mix.get(kind, 0) + 1
    return mix


# ---------------------------------------------------------------------------
# execution (inside the worker; gwp1 is imported lazily)
# ---------------------------------------------------------------------------


def setup_imports(workload: str):
    """The imports a user of this workload pays for before the first op."""
    import gwp1  # noqa: F401

    if workload == "cli_session":
        import gwp1.cli  # noqa: F401
    elif workload == "numeric_eval":
        import gwp1.analytic  # noqa: F401
    elif workload == "series_routes":
        import gwp1.asymptotics  # noqa: F401


class CliSession:
    """Calls ``gwp1.cli.main`` in process against one private cache dir."""

    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir

    def __call__(self, argv):
        import contextlib
        import io

        from gwp1 import cli

        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=["--cache-dir", self.cache_dir] + list(argv),
                              prog_name="gwp1", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


SERIES_KINDS = ("cross_check", "closed_form", "det_residual", "matrix_residual",
                "scalar_residual", "difference_eq", "formal_W", "W_det_residual",
                "W_shift_residual", "one_point", "q0_table", "einf_table",
                "consistency", "bridge")


def run_op(op, state: dict):
    """Execute one op spec and return its output object.  ``state`` lives for
    one pass: it holds the CLI session and the series objects that later ops
    of the same group reuse."""
    kind = op[0]
    if kind == "inv":
        from gwp1 import correlators

        key = correlators.CorrelatorKey(k=len(op[1]), insertions=tuple(op[1]), g=op[2])
        res = correlators.extract_invariant(key)
        return (res.value, res.d)
    if kind == "cli":
        return state["cli"](op[2])
    if kind in SERIES_KINDS:
        return _run_series(op, state)
    return _run_numeric(op)


def _run_series(op, state):
    from gwp1 import asymptotics, correlators, resolvent

    kind = op[0]
    if kind == "cross_check":
        report = resolvent.cross_check_routes(op[1])
        return (report.ok, report.checked, report.first_mismatch)
    if kind in ("closed_form", "difference_eq"):
        fn = (resolvent.closed_form_M if kind == "closed_form"
              else resolvent.alpha_from_difference_equation)
        state[op] = fn(op[1])
        return state[op]
    # residual ops return the residual series themselves; the check compares
    # each with the zero series
    if kind.endswith("_residual") and not kind.startswith("W_"):
        M = state.get(("closed_form", op[1])) or resolvent.closed_form_M(op[1])
        if kind == "det_residual":
            return [M.det_series()]
        if kind == "matrix_residual":
            return list(resolvent.matrix_difference_residual(M).entries())
        return [resolvent.scalar_difference_residual(M)]
    if kind == "formal_W":
        state[op] = resolvent.formal_W(op[1])
        return state[op]
    if kind.startswith("W_"):
        W = state.get(("formal_W", op[1])) or resolvent.formal_W(op[1])
        if kind == "W_det_residual":
            return [W.det_residual()]
        return list(W.shift_residuals().entries())
    if kind == "one_point":
        fn = {"production": correlators.one_point_series,
              "oracle": correlators.one_point_series_oracle,
              "digamma": correlators.one_point_digamma_form}[op[1]]
        return fn(op[2])
    if kind in ("q0_table", "einf_table"):
        k, top = op[1], op[2]
        if kind == "q0_table":
            data = asymptotics.expand_q0(k, top)
        else:
            data = asymptotics.expand_eps_inf(k, top)
        return [data.coefficient(i) for i in _table_range(kind, top)]
    if kind == "consistency":
        return asymptotics.q0_einf_consistency(op[1], op[2])
    return asymptotics.eps0_q0_bridge(2, 1, op[1])


def _table_range(kind, top):
    return range(1 if kind == "q0_table" else 0, top + 1)


def _run_numeric(op):
    from gwp1 import analytic

    kind, pts, s = op[0], [_unpack(p) for p in op[1]], _unpack(op[2])
    bits = op[3] if op[3] is not None else analytic.required_bits(pts[0], s)
    pc = analytic.PrecisionContext(bits)
    if kind == "B":
        vals = list(analytic.matrix_B(pc, pts[0], s).entries())
    elif kind.startswith("D_"):
        vals = [analytic.kernel_D(pc, pts[0], pts[1], s, route=kind[2:])]
    elif kind.startswith("hk_"):
        vals = [analytic.h_k(pc, pts, s, route=kind[3:])]
    elif kind == "h1":
        vals = [analytic.h_1(pc, pts[0], s)[0]]
    else:
        vals = [analytic.h_1_star(pc, pts[0], s)]
    return (bits, vals)


def digest(op, out) -> str:
    """A stable text form of an output, compared across passes."""
    if op[0] == "inv":
        return f"{out[0]}|{out[1]}"
    if op[0] == "cli":
        return json.dumps(out, sort_keys=True)
    if op[0] in ("B", "D_series", "D_product", "hk_trace", "hk_factorized", "h1", "h1_star"):
        import mpmath

        bits, vals = out
        digits = int(bits * 0.30103) + 5
        return ";".join(mpmath.nstr(v, digits) for v in vals)
    return json.dumps(_jsonable(out), sort_keys=True)


def _jsonable(x):
    if hasattr(x, "to_json"):
        return x.to_json()
    if hasattr(x, "w1"):  # WFormalSeries
        return [x.w1.to_json(), x.w2.to_json()]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# checks (after the timed region)
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["values"]


def golden_key(ins, g) -> str:
    return f"{len(ins)}|{','.join(map(str, sorted(ins, reverse=True)))}|{g}"


def known_defect(op, out) -> bool:
    """The seed's known precision defect, kept in the numeric_eval draw:
    matrix_B at the policy's precision, which stays at 128 bits up to
    |s| = 30 and loses accuracy from about s = 12.  A failed check is
    excused (``correct`` stays true) only for an op in this slice."""
    return (op[0] == "B" and op[3] is None and out is not None and out[0] == 128
            and 12 < abs(_unpack(op[2])) <= 30)


def check_ops(ops, outs, plant: bool = False):
    """Verdict per op (True = output verified).  ``outs[i]`` is None when op
    i raised.  With ``plant`` every expected value is replaced by a wrong one
    and the same comparison runs, so every verdict must come out False."""
    want = _plant if plant else (lambda x: x)
    verdicts = [False] * len(ops)
    golden = None
    by_op = {tuple(_freeze(op)): out for op, out in zip(ops, outs)}
    cli_first: dict[tuple, str] = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if out is None:
            continue
        kind = op[0]
        if kind == "inv":
            golden = golden if golden is not None else load_golden()
            entry = golden.get(golden_key(op[1], op[2]))
            if entry is None:
                continue
            verdicts[i] = out == want((Fraction(entry["value"]), entry["d"]))
        elif kind == "cli":
            job = tuple(a for a in op[2] if a not in ("--verify-cache", "--no-cache"))
            first = cli_first.setdefault(job, out["stdout"])
            verdicts[i] = out["code"] == 0 and out["stdout"] == want(first)
        elif kind == "cross_check":
            # (ok, coefficients compared, first mismatch) of all 3 entries to order N
            verdicts[i] = out == want((True, 3 * op[1], None))
        elif kind in ("consistency", "bridge"):
            verdicts[i] = out == want(True)
        elif kind.endswith("_residual"):
            verdicts[i] = out == [want(_zero_like(e)) for e in out]
        elif kind == "closed_form":
            partner = by_op.get(("difference_eq", op[1]))
            verdicts[i] = partner is not None and out.alpha == want(partner)
        elif kind == "difference_eq":
            partner = by_op.get(("closed_form", op[1]))
            verdicts[i] = partner is not None and out == want(partner.alpha)
        elif kind == "formal_W":
            continue  # verified by its two residual ops, below
        elif kind in ("q0_table", "einf_table"):
            from gwp1 import asymptotics

            entry = (asymptotics.q0_table_entry if kind == "q0_table"
                     else asymptotics.einf_table_entry)
            verdicts[i] = out == [want(entry(op[1], j)) for j in _table_range(kind, op[2])]
        elif kind == "one_point":
            # production is checked against the oracle, the other routes against production
            route = "oracle" if op[1] == "production" else "production"
            partner = by_op.get(("one_point", route, op[2]))
            verdicts[i] = partner is not None and out == want(partner)
        else:
            verdicts[i] = _numeric_ok(op, out, plant)
    for i, op in enumerate(ops):
        if op[0] == "formal_W" and outs[i] is not None:
            residuals = [verdicts[j] for j, o in enumerate(ops)
                         if o[0].startswith("W_") and o[1] == op[1]]
            verdicts[i] = len(residuals) == 2 and all(residuals)
    return verdicts


def _freeze(x):
    return tuple(_freeze(v) for v in x) if isinstance(x, (list, tuple)) else x


def _plant(x):
    """A wrong version of an expected value, of the same type."""
    if isinstance(x, bool):
        return not x
    if isinstance(x, (int, Fraction)):
        return x + 1
    if isinstance(x, str):
        return x + " "
    if isinstance(x, tuple):
        return (_plant(x[0]),) + x[1:]
    if hasattr(x, "orders"):  # MultiSeries
        return _perturb(x)
    return x + 1  # MultiPoly, FactoredRatFun


def _zero_like(series):
    return type(series)(series.vars, series.orders, {}, series.floors, series.ring)


def _perturb(series):
    """The same series with one unit added to its first coefficient (to its
    lowest index when it has none)."""
    idx, c = next(iter(series.terms.items()), (series.floors, Fraction(0)))
    one = c.one() if hasattr(c, "one") else Fraction(1)
    return type(series)(series.vars, series.orders, {**series.terms, idx: c + one},
                        series.floors, series.ring)


# independent mpmath references (mpmath's own hypergeometric code, which
# raises its working precision on cancellation), at about half the op's bits
# plus guard bits: enough to decide agreement to 2^-(bits/2)


def _ref_ctx(bits: int):
    import mpmath

    mp = mpmath.mp.clone()
    mp.prec = bits // 2 + 96
    return mp


def _ref_B(mp, z, s):
    h = mp.mpf(1) / 2
    x = -4 * s * s
    g = mp.hyp1f2(h, h - z, h + z, x)
    gt_up = mp.hyp1f2(h, h - z, 3 * h + z, x)
    gt_dn = mp.hyp1f2(h, h - (z - 1), 3 * h + (z - 1), x)
    return [(1 + g) / 2, 2 * s / (1 - 2 * z) * gt_dn, 2 * s / (1 + 2 * z) * gt_up, (1 - g) / 2]


def _ref_u(mp, z, s):
    x = -s * s
    h = mp.mpf(1) / 2
    return (mp.hyp0f1(z + h, x), s / (z + h) * mp.hyp0f1(z + 1 + h, x))


def _ref_hk(mp, zs, s):
    from itertools import permutations

    k = len(zs)
    Bs = [_ref_B(mp, z, s) for z in zs]
    total = mp.mpc(0)
    for rest in permutations(range(1, k)):
        sigma = (0,) + rest
        a, b, c, d = Bs[sigma[0]]
        for j in sigma[1:]:
            e, f, g, h = Bs[j]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        den = mp.mpc(1)
        for i in range(k):
            den *= zs[sigma[i]] - zs[sigma[(i + 1) % k]]
        total += (a + d) / den
    value = -total
    if k == 2:
        value -= 1 / (zs[0] - zs[1]) ** 2
    return value


def _ref_h1(mp, z, s):
    h = mp.mpf(1) / 2
    return s * s / ((z - h) * (z + h)) * mp.hyper(
        [3 * h, 1, 1], [2, 2, 3 * h - z, 3 * h + z], -4 * s * s)


def reference(op, bits):
    """Reference values for a numeric op, in the order ``run_op`` returns them."""
    mp = _ref_ctx(bits)
    kind = op[0]
    pts = [mp.mpc(*p) for p in op[1]]
    s = mp.mpc(*op[2])
    if kind == "B":
        return _ref_B(mp, pts[0], s)
    if kind.startswith("D_"):
        ua, ub = _ref_u(mp, -pts[0], s), _ref_u(mp, pts[1], s)
        return [(ua[0] * ub[0] + ua[1] * ub[1]) / (pts[0] - pts[1])]
    if kind.startswith("hk_"):
        return [_ref_hk(mp, pts, s)]
    h1 = _ref_h1(mp, pts[0], s)
    if kind == "h1":
        return [h1]
    return [h1 + mp.log(s) - mp.digamma(mp.mpf(1) / 2 + pts[0])]


def _numeric_ok(op, out, plant):
    """Agreement with the reference to at least half the working bits."""
    import mpmath

    bits, vals = out
    if plant:
        mp = _ref_ctx(bits)
        vals = [mp.mpc(v) * (1 + mp.mpf(2) ** (-(bits // 4))) for v in vals]
    ref = reference(op, bits)
    scale = max(abs(r) for r in ref) or 1
    err = max(abs(v - r) for v, r in zip(vals, ref)) / scale
    return err <= mpmath.mpf(2) ** (-(bits // 2))

"""Build and validate the golden invariant table used by invariant_table.

    PYTHONPATH=src python3 bench/make_golden.py      # from the repository root

Every key the workload can draw (k, multiset of ladders, genus) gets its
value from ``extract_invariant`` on the tuple sorted in decreasing order.  A
value is written only after an independent route agrees with it:

* every k >= 2 key: the reversed tuple extracted in the reversed region
  (permutation symmetry plus region independence);
* k = 1, degree >= 1: the small-q oracle ``one_point_qseries_oracle``;
* k = 1, degree 0: the Bernoulli tail of the one-point function,
  -(1 - 2^(1-2g)) B_2g / (2g) / (2g-1)!;
* k = 2, genus 0: the q-expanded closed form ``eps0_series_coefficients``.

The script exits non-zero, writing nothing, if any route disagrees.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from math import factorial

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import GOLDEN_PATH, compositions, genus_row, golden_key  # noqa: E402


def multisets(k: int, total: int):
    return sorted({tuple(sorted(t, reverse=True)) for t in compositions(k, total)})


def key_space():
    keys = [(1, 1, 1, 1), (0, 0, 0, 0)] + multisets(4, 2)
    for k, cap in ((3, 8), (2, 16), (1, 12)):
        for total in range(0, cap + 1, 2):
            keys += multisets(k, total)
    return [(ins, g) for ins in keys for g in genus_row(ins)]


def main() -> int:
    from gwp1 import asymptotics, correlators
    from gwp1.correlators import CorrelatorKey
    from gwp1.ring.numbers import bernoulli_number, rat_to_str

    def extract(ins, g, region=None):
        return correlators.extract_invariant(
            CorrelatorKey(k=len(ins), insertions=tuple(ins), g=g), region=region)

    values, routes, bad = {}, {}, []
    eps0 = asymptotics.eps0_series_coefficients(2, 0, 18, 9)
    t0 = time.perf_counter()
    for ins, g in key_space():
        k = len(ins)
        res = extract(ins, g)
        checks = []
        if k >= 2:
            other = extract(ins[::-1], g, region=tuple(range(k, 0, -1)))
            checks.append(("reversed tuple, reversed region", other.value == res.value))
        if k == 1:
            i, d = ins[0], res.d
            if d >= 1:
                poly = correlators.one_point_qseries_oracle(d, i + 2).coefficient_or(
                    (i + 2,), None)
                want = Fraction(0) if poly is None else poly.terms.get((d, 2 * g), Fraction(0))
                checks.append(("one_point_qseries_oracle",
                               want / factorial(i + 1) == res.value))
            else:
                tail = -(1 - Fraction(2) ** (1 - 2 * g)) * bernoulli_number(2 * g) / (2 * g)
                checks.append(("Bernoulli tail", tail / factorial(i + 1) == res.value))
        if k == 2 and g == 0:
            want = eps0.get((ins[0] + 2, ins[1] + 2, res.d), Fraction(0))
            got = res.value * factorial(ins[0] + 1) * factorial(ins[1] + 1)
            checks.append(("eps0_series_coefficients", want == got))
        for name, ok in checks:
            routes[name] = routes.get(name, 0) + 1
            if not ok:
                bad.append((ins, g, name))
        values[golden_key(ins, g)] = {"value": rat_to_str(res.value), "d": res.d}
    if bad:
        print(f"validation failed: {bad}", file=sys.stderr)
        return 1
    doc = {
        "about": "stationary invariants <tau_i1..tau_ik>_{g,d} of P^1, keyed "
                 "'k|ladders sorted decreasing|g'; each value agreed with the "
                 "independent routes counted in 'validated_by' when generated",
        "validated_by": routes,
        "keys": len(values),
        "values": values,
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(values)} keys validated in {time.perf_counter() - t0:.0f} s: {routes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

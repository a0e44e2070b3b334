"""One pass of one workload in a fresh interpreter.

Started by ``bench/run.py`` with ``src`` on PYTHONPATH.  It imports gwp1,
builds the op list from the seed, runs every op once (closed loop, one
client, no think time), and writes a JSON result file.  Checks run after the
timed region.  With ``--setup-only`` it stops before the first op, which is
how run.py samples set-up time.

At about CAL_SLOTS fixed places in the op list, outside every op's timing,
the pass also times a fixed kernel (``calibrate``); run.py reads the host's
speed from those samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import sys
import time
from fractions import Fraction

CAL_SLOTS = 32  # about 1% of a pass
_KERNEL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}


def calibrate() -> float:
    """Time one sparse product of two 25-term polynomials over Fraction: the
    same kind of work as gwp1's exact arithmetic, but none of gwp1's code.
    The collector is off, so the size of gwp1's heap stays out of it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for ea, ca in _KERNEL_TERMS.items():
            for eb, cb in _KERNEL_TERMS.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                out[e] = out.get(e, 0) + ca * cb
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-ns", type=int, required=True,
                    help="CLOCK_MONOTONIC reading taken by the parent just before spawning")
    ap.add_argument("--result", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--plant", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import workloads

    workloads.setup_imports(args.workload)
    ops = workloads.make_ops(args.workload, args.seed, args.smoke)
    cache_dir = None
    state = {}
    if args.workload == "cli_session":
        cache_dir = os.path.join(os.path.dirname(args.result), f"cli-cache-{os.getpid()}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        os.environ["GWP1_CACHE_DIR"] = cache_dir
        state["cli"] = workloads.CliSession(cache_dir)
    setup_s = (time.monotonic_ns() - args.spawned_ns) / 1e9
    result = {"setup_s": setup_s, "ops": len(ops)}
    if args.setup_only:
        _write(args.result, result)
        return 0

    rec = None
    if args.trace_out:
        import tracing

        rec = tracing.Recorder()
        memo0 = tracing.memo_counts()
        rec.install()
    try:
        outs, lat, raised = _timed_loop(ops, state, rec, result)
    finally:
        if rec is not None:
            rec.uninstall()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["lat_s"] = lat
    result["raised"] = raised
    result["digests"] = [None if o is None else workloads.digest(op, o)
                         for op, o in zip(ops, outs)]
    if rec is not None:
        memo1 = tracing.memo_counts()
        result["layers"] = tracing.layer_metrics(
            rec, (memo1[0] - memo0[0], memo1[1] - memo0[1]))
        result["spans"] = len(rec.start)
        rec.write(args.trace_out)
    if args.check:
        result["verdicts"] = workloads.check_ops(ops, outs, plant=args.plant)
        result["defect"] = [workloads.known_defect(op, out) for op, out in zip(ops, outs)]
    _write(args.result, result)
    return 0


def _timed_loop(ops, state, rec, result):
    import workloads

    outs, lat, raised, cal = [], [], {}, []
    every = max(1, len(ops) // CAL_SLOTS)
    for i, op in enumerate(ops):
        if i % every == 0:
            cal.append(calibrate())
        if rec is not None:
            rec.op_id = i
        t0 = time.perf_counter()
        try:
            if rec is not None and op[0] == "cli":
                with rec.span("cli.job"):
                    out = workloads.run_op(op, state)
            else:
                out = workloads.run_op(op, state)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            out = None
            raised[i] = f"{type(exc).__name__}: {exc}"[:300]
        lat.append(time.perf_counter() - t0)
        outs.append(out)
    cal.append(calibrate())
    result["wall_s"] = math.fsum(lat)
    result["cal_s"] = cal
    return outs, lat, raised


def _write(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())

"""Seconds-long self-test of the benchmark harness (``run.py --smoke``).

For every workload at its tiny size it asserts that an untraced run reports
every end-to-end metric and a traced run every per-layer metric, each with
the unit BENCHMARK.json declares; that the span file reads back; and that a
check given a wrong expected value records every op as failed and turns
``correct`` false.  Ops that fail honestly in the known-defect slice of
numeric_eval are listed, not treated as a harness fault.
"""

from __future__ import annotations

import json
import math
import sys

import tracing
import workloads


def main(run_workload, units: dict) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = [f"{name}: unit {units.get(name)} != declared {unit}"
                for trace in (0, 1) for name, unit in declared[trace].items()
                if units.get(name) != unit]
    for workload in workloads.WORKLOADS:
        before = len(problems)
        for trace in (0, 1):
            summary, metrics, info = run_workload(workload, 1, 1, trace=bool(trace), smoke=True)
            if not summary["correct"] or summary["attempted"] < 1:
                problems.append(f"{workload}: an op outside the known-defect slice "
                                f"failed: {info['raised'] or info['failed_ops']}")
            if summary["failed"]:
                print(f"smoke {workload}: {summary['failed']} of {summary['attempted']} "
                      f"ops failed their check: {info['raised'] or info['failed_ops']}")
            for name in declared[trace]:
                value = metrics.get(name)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{workload} trace={trace}: metric {name} missing")
            for name in metrics:
                if name not in declared[trace]:
                    problems.append(f"{workload} trace={trace}: undeclared metric {name}")
            if trace:
                spans = tracing.read_spans(info["span_file"])
                if len(spans["start"]) != info["spans"]:
                    problems.append(f"{workload}: span file holds {len(spans['start'])} "
                                    f"spans, run reported {info['spans']}")
        summary, _metrics, _info = run_workload(workload, 1, 1, smoke=True, plant=True)
        if summary["failed"] != summary["attempted"]:
            problems.append(f"{workload}: planted wrong values failed only "
                            f"{summary['failed']} of {summary['attempted']} ops")
        if summary["correct"]:
            problems.append(f"{workload}: failed ops outside the known-defect slice "
                            "left correct true")
        print(f"smoke {workload}: " + ("ok" if len(problems) == before else "FAILED"))
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0

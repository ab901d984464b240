"""Schema smoke check of the benchmark at toy sizes (a few seconds).

    python3 perfbench/smoke.py

Run from the repository root. Every workload, catalog-20k too (which
BENCHMARK.json leaves out), runs once untraced and once traced at toy sizes;
each result must have exactly the keys the benchmark contract names, every
listed metric with its unit and a finite value, and no failed operation. It
is not collected by pytest.
"""
from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(result: dict, expected: list[dict]) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if result["failed"] != 0 or result["correct"] is not True:
        problems.append(f"failed {result['failed']}, correct {result['correct']}")
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"metrics differ: missing {sorted(set(names) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(names))}")
    for spec in expected:
        got = metrics.get(spec["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"} or got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: {got}")
        elif not (isinstance(got["value"], float) and math.isfinite(got["value"])):
            problems.append(f"{spec['name']}: value {got['value']!r}")
    json.loads(json.dumps(result))
    return problems


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        if workloads.WHY.get(workload["name"]) != workload["why"]:
            failures += 1
            print(f"{workload['name']}: why differs from workloads.WHY")
    for name in workloads.WHY:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = workloads.run(name, seed=1, seconds=0, trace=trace,
                                   out_dir=root / ".bench_out" / "smoke", toy=True)
            result.pop("details")
            problems = check(result, spec[key])
            failures += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{name} trace={int(trace)}: {status}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""qrseq benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` a separate run wraps each
layer's public functions and reports per-layer metrics instead. The lines
before it record the machine and every metric by name and unit; the same
report is written to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
from pathlib import Path

# The interpreter is restarted with these held fixed (and recorded). One
# BLAS thread keeps runs on a shared 2-core box comparable and is within
# nproc everywhere; a fixed string-hash seed removes a run-to-run swing of
# up to a tenth in the speed of the same work.
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WORKLOADS = ("train-chain-d128", "catalog-20k", "gradcheck-c1")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads_in_effect():
    """Ask the loaded OpenBLAS how many threads it uses (None if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads_in_effect(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if re.search(r"THREAD|OMP|BLAS|MKL", k)},
        "platform": platform.platform(),
    }


def main() -> int:
    args = parse_args(sys.argv[1:])
    root = Path.cwd()
    src = root / "src"
    if not (src / "qrseq" / "__init__.py").is_file():
        print(f"error: no qrseq package at {src}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in FIXED_ENV.items()):
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **FIXED_ENV})
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    import workloads

    out_dir = root / ".bench_out"
    facts = machine_facts()
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    details = result.pop("details")
    report = {"machine": facts, **details, **result}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(json.dumps({"machine": facts}, sort_keys=True))
    print(json.dumps({k: v for k, v in details.items() if k != "part_seconds"}, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

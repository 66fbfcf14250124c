"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {index_build,noisy_stream,query_topk} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/`` next to
this directory. The output is a table of the workload's metrics by name and
unit, one JSON line with the run context, and, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from the span recorder. The exit status is 0
only when every output passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def cap_blas_threads(cap: int) -> None:
    """Cap BLAS threads; takes effect only when called before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)


def git_commit() -> str:
    """HEAD of the repository this file sits in, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("index_build", "noisy_stream", "query_topk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    cap_blas_threads(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import fusehash
    except ImportError as exc:
        print(f"error: cannot import fusehash from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    expected = (ROOT / "src" / "fusehash").resolve()
    if Path(fusehash.__file__).resolve().parent != expected:
        print(f"error: fusehash imported from {fusehash.__file__}, not {expected}", file=sys.stderr)
        return 2

    import numpy
    import scipy

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result.context.update(
        nproc=nproc,
        blas_thread_cap=nproc,
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        git_commit=git_commit(),
    )

    for name, (value, unit) in {**result.report, **result.metrics}.items():
        print(f"{name:42s} {value:16.6g} {unit}")
    for problem in result.failures:
        print(f"check failed: {problem}")
    print(json.dumps({"context": result.context}))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result.metrics.items()},
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end benchmark of the APEx service at shipped defaults.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_translate --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload untraced and reports every end-to-end metric
of ``BENCHMARK.json``.  ``--trace 1`` runs the timed phase twice with the
same requests, first untraced and then with every layer's public entry
points wrapped in spans, and reports every per-layer metric, including the
tracing overhead between the two passes.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread, fixed before numpy is imported: the load comes from at
# most two client threads, and a second BLAS pool would oversubscribe.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import report  # noqa: E402  (needs the paths above)

    return report.run(args, ROOT, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())

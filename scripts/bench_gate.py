#!/usr/bin/env python
"""Run the performance benches and gate them against committed baselines.

Usage (from the repo root, with ``PYTHONPATH=src:.``)::

    python scripts/bench_gate.py                   # run + gate all suites
    python scripts/bench_gate.py --suite serving   # one suite only
    python scripts/bench_gate.py --update-baseline # re-pin the baselines
    python scripts/bench_gate.py --tiny --rounds 2 # quick smoke
    python scripts/bench_gate.py --absolute        # also gate absolute times

Suites: ``hotpaths`` (fused kernels and one training step, vs
``benchmarks/BENCH_hotpaths.json``), ``serving`` (micro-batched
goodput at a fixed SLO, vs ``benchmarks/BENCH_serving.json``),
``resilience`` (replicated-pool availability under seeded chaos, vs
``benchmarks/BENCH_resilience.json``), ``screening`` (batched vs
one-at-a-time candidate throughput, vs ``benchmarks/BENCH_screening.json``),
and ``table1`` (the 4-encoder x 4-dataset pretrained-vs-scratch sweep, vs
``benchmarks/BENCH_table1.json``).

Speedup ratios are gated by default (machine-portable); absolute times
only with ``--absolute`` since they don't transfer across machines.
Exit codes: 0 pass/bootstrap, 1 regression, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

# Allow running as `python scripts/bench_gate.py` from the repo root.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks import (  # noqa: E402
    bench_hotpaths,
    bench_resilience,
    bench_screening,
    bench_serving,
    bench_table1_multitask,
)
from benchmarks.common import write_bench_json  # noqa: E402
from benchmarks.gate import DEFAULT_THRESHOLD, EXIT_USAGE, run_gate  # noqa: E402

_BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)

#: suite name -> (module with collect_results/print_results, baseline JSON)
SUITES = {
    "hotpaths": (bench_hotpaths, os.path.join(_BENCH_DIR, "BENCH_hotpaths.json")),
    "serving": (bench_serving, os.path.join(_BENCH_DIR, "BENCH_serving.json")),
    "resilience": (
        bench_resilience,
        os.path.join(_BENCH_DIR, "BENCH_resilience.json"),
    ),
    "screening": (
        bench_screening,
        os.path.join(_BENCH_DIR, "BENCH_screening.json"),
    ),
    "table1": (
        bench_table1_multitask,
        os.path.join(_BENCH_DIR, "BENCH_table1.json"),
    ),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
        help="which bench suite to run and gate (default: all)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON override (single-suite runs only)",
    )
    parser.add_argument(
        "--out", default=None, help="also write the current run's JSON here"
    )
    parser.add_argument("--rounds", type=int, default=5, help="timed rounds per arm")
    parser.add_argument("--warmup", type=int, default=1, help="discarded warmup rounds")
    parser.add_argument(
        "--tiny", action="store_true", help="shrunken workloads (smoke/CI)"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="tolerated fractional regression (default 0.25)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="gate absolute times too (same-machine runs only)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="overwrite the baselines with this run and pass",
    )
    args = parser.parse_args(argv)
    if args.rounds < 1 or not 0 < args.threshold < 1:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    suites = list(SUITES) if args.suite == "all" else [args.suite]
    if args.baseline is not None and len(suites) != 1:
        print("--baseline requires a single --suite", file=sys.stderr)
        return EXIT_USAGE
    if args.out is not None and len(suites) != 1:
        print("--out requires a single --suite", file=sys.stderr)
        return EXIT_USAGE

    worst = 0
    for name in suites:
        module, baseline = SUITES[name]
        if args.baseline is not None:
            baseline = args.baseline
        results = module.collect_results(
            rounds=args.rounds, warmup=args.warmup, tiny=args.tiny
        )
        module.print_results(results)
        meta = {
            "bench": name,
            "rounds": args.rounds,
            "warmup": args.warmup,
            "tiny": args.tiny,
            "python": platform.python_version(),
            "machine": platform.machine(),
            # A co-runner skews timing ratios; record how loaded the host
            # was so a verdict can be read against it.
            "loadavg": list(os.getloadavg()),
            "cpu_count": os.cpu_count(),
        }
        print(
            "host: load average {:.2f} {:.2f} {:.2f} over {} CPUs".format(
                *meta["loadavg"], meta["cpu_count"]
            )
        )
        if args.out:
            write_bench_json(args.out, results, meta=meta)
        code = run_gate(
            results,
            baseline,
            threshold=args.threshold,
            absolute=args.absolute,
            update_baseline=args.update_baseline,
            meta=meta,
        )
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    raise SystemExit(main())

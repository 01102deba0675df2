"""The benchmark's one command.

Driver form (the contract in ``BENCHMARK.json``) — one workload, one JSON
object on the last line of standard output::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Report form — all four workloads, both passes, every metric by name with
its unit and ``measured``/``modeled`` tag; exits non-zero if any unit
failed::

    python3 -m benchmarks.e2e.run --seed S --out DIR [--seconds T] [--smoke]

Plus ``--compare A B`` (two report directories) and ``--write-expected``
(re-pin ``expected.json``).  This process never imports numpy or ``repro``:
every measurement happens in a fresh ``child.py`` process, one at a time.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import metrics as M  # noqa: E402

WORKLOADS = {
    "pretrain_ddp": "paper's DDP shape, 8 ranks x 2 samples per step: model, autograd and kernel time on many tiny batches",
    "finetune_materials": "Fig. 5 shape, 80 crystals revisited for 30 epochs: dataset synthesis plus large-batch fit, the cacheable pattern",
    "serve_trace": "no_grad batch-invariant inference: both event loops on one Poisson trace, then batch-1 closed-loop requests",
    "screen_funnel": "2048 unique candidates per unit: generate, relax, score, rank; the working set never fits a transform cache",
}
EXPECTED = HERE / "expected.json"
TOLERANCE = 1e-9
#: Fresh processes whose set-up time is sampled per untraced pass.
SETUP_REPEATS = 3
#: Units of the traced pass (and of the untraced pass it is compared with).
TRACED_UNITS = 2
#: Units per workload that --write-expected pins: more than a 20 s time box holds.
PINNED_UNITS = {"pretrain_ddp": 12, "finetune_materials": 8, "serve_trace": 16, "screen_funnel": 20}
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, smoke: bool = False, **request) -> dict:
    """Run one child to completion and return the object it printed."""
    request = {
        "workload": workload, "seed": seed, "smoke": smoke, "spawned_at": time.time(),
        "setup_only": False, "traced": False, **request,
    }
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


# --------------------------------------------------------------------------- #
# Output check against the pinned digests
# --------------------------------------------------------------------------- #
def _same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    if isinstance(want, list):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    return got == want


def check_digests(units: Sequence[dict], workload: str, seed: int, smoke: bool) -> int:
    """Mark units whose digest differs from ``expected.json`` as failed;
    returns how many units had no pinned digest to compare with."""
    pinned = {}
    if EXPECTED.exists():
        pinned = json.loads(EXPECTED.read_text())["digests"]
    pinned = pinned.get("smoke" if smoke else "full", {}).get(workload, {}).get(str(seed), [])
    unpinned = 0
    for unit in units:
        if unit["error"] is not None:
            continue
        if unit["unit"] >= len(pinned):
            unpinned += 1
            continue
        want = pinned[unit["unit"]]
        wrong = [k for k in want if not _same(unit["digest"].get(k), want[k])]
        if wrong:
            unit["error"] = "digest differs from expected.json: " + ", ".join(
                f"{k} = {unit['digest'].get(k)!r}, pinned {want[k]!r}" for k in wrong
            )
    return unpinned


def write_expected(seeds: Sequence[int]) -> int:
    digests: Dict[str, dict] = {"full": {}, "smoke": {}}
    for shape, smoke in (("full", False), ("smoke", True)):
        for name in WORKLOADS:
            for seed in seeds:
                count = 1 if smoke else PINNED_UNITS[name]
                units = spawn(name, seed, smoke=smoke, units=count)["units"]
                errors = [u["error"] for u in units if u["error"] is not None]
                if errors:
                    print(errors[0], file=sys.stderr)
                    return 1
                digests[shape].setdefault(name, {})[str(seed)] = [u["digest"] for u in units]
                print(f"pinned {shape} {name} seed {seed}: {count} units")
    EXPECTED.write_text(json.dumps({"tolerance": TOLERANCE, "digests": digests}, indent=1) + "\n")
    return 0


# --------------------------------------------------------------------------- #
# The two passes
# --------------------------------------------------------------------------- #
def untraced_pass(name: str, seed: int, smoke: bool, **budget) -> Tuple[dict, List[float]]:
    """Set-up sampled in SETUP_REPEATS fresh processes; the last one goes on
    to run the units (``budget`` is ``seconds=`` or ``units=``)."""
    repeats = 1 if smoke else SETUP_REPEATS
    setups = [spawn(name, seed, smoke, setup_only=True)["setup_s"] for _ in range(repeats - 1)]
    main = spawn(name, seed, smoke, **budget)
    setups.append(main["setup_s"])
    return main, setups


def traced_pass(name: str, seed: int, smoke: bool, units: int, trace_out: Optional[Path] = None) -> dict:
    return spawn(
        name, seed, smoke, units=units, traced=True,
        micro_rounds=3 if smoke else 20,
        trace_out=str(trace_out) if trace_out else None,
    )


def _unit_errors(units: Sequence[dict]) -> List[str]:
    return [f"unit {u['unit']}: {u['error']}" for u in units if u["error"] is not None]


def drive(args) -> int:
    """The driver form: one workload, one pass, one JSON line."""
    name, seed = args.workload, args.seed
    if args.trace:
        untraced = spawn(name, seed, units=TRACED_UNITS)
        traced = traced_pass(name, seed, False, TRACED_UNITS)
        units = untraced["units"] + traced["units"]
        unpinned = check_digests(untraced["units"], name, seed, False)
        check_digests(traced["units"], name, seed, False)
        values = M.per_layer(traced, untraced["units"])
        listed = M.PER_LAYER
    else:
        main, setups = untraced_pass(name, seed, False, seconds=args.seconds)
        units = main["units"]
        unpinned = check_digests(units, name, seed, False)
        values = M.end_to_end(main, setups)
        listed = M.END_TO_END
    for line in _unit_errors(units):
        print(line, file=sys.stderr)
    if unpinned:
        print(f"{unpinned} units have no pinned digest for seed {seed}: invariants checked only")
    if not values:
        return 1
    attempted, _, broken = M.operations(units)
    print(json.dumps({
        "correct": broken == 0,
        "attempted": attempted,
        "failed": broken,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in listed},
    }))
    return 0


def host_facts() -> Dict[str, object]:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        revision = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "git_revision": revision,
    }


def _print_metric(metric: M.Metric, value: float) -> None:
    bound = "" if metric.bound is None else f"  bound {metric.bound:.0%}"
    print(f"  {metric.name:<34} {value:>16.6g} {metric.unit:<6} {metric.tag}{bound}")


def report(args) -> int:
    """The report form: every workload, both passes, every metric."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {"seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
               "host": host_facts(), "workloads": {}}
    failed = False
    if args.smoke:
        print("SMOKE RUN: reduced counts, one unit per workload; numbers are not comparable")
    for name in WORKLOADS:
        budget = {"units": 1} if args.smoke else {"seconds": args.seconds}
        main, setups = untraced_pass(name, args.seed, args.smoke, **budget)
        traced = traced_pass(
            name, args.seed, args.smoke, min(TRACED_UNITS, len(main["units"])),
            out / f"trace_{name}.json",
        )
        unpinned = check_digests(main["units"], name, args.seed, args.smoke)
        check_digests(traced["units"], name, args.seed, args.smoke)
        e2e = M.end_to_end(main, setups)
        layers = M.per_layer(traced, main["units"])
        attempted, _, broken = M.operations(main["units"])
        e2e["failed_share"] = M.failed_share(main["units"], len(traced["units"]))
        errors = _unit_errors(main["units"]) + _unit_errors(traced["units"])
        failed = failed or bool(errors)

        print(f"\n== {name} (seed {args.seed}): {WORKLOADS[name]}")
        if e2e.get("_units"):
            print(f"  {e2e['_units']} untraced units, unit wall {e2e['_unit_s_min']:.3f}..{e2e['_unit_s_max']:.3f} s, "
                  f"IQR {e2e['_unit_s_iqr_rel']:.1%} of median; {e2e['_request_samples']} closed-loop requests; "
                  f"set-up sampled {len(setups)}x")
            for metric in M.END_TO_END + [M.FAILED_SHARE]:
                _print_metric(metric, e2e[metric.name])
        print(f"  -- per layer, {len(traced['units'])} traced units + set-up")
        for metric in M.PER_LAYER:
            if metric is not M.FAILED_SHARE:
                _print_metric(metric, layers[metric.name])
        if unpinned:
            print(f"  notice: {unpinned} units have no pinned digest for seed {args.seed}; invariants checked only")
        for line in errors:
            print(f"  FAILED {line}")
        results["workloads"][name] = {
            "end_to_end": {k: v for k, v in e2e.items() if not k.startswith("_")},
            "per_layer": layers,
            "unit_wall_s": [u.get("wall_s") for u in main["units"]],
            "setup_s_samples": setups,
            "attempted": attempted, "failed": broken, "errors": errors,
        }
    (out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nwrote {out / 'results.json'} and trace_<workload>.json (Chrome trace format)")
    return 1 if failed else 0


def compare(dir_a: str, dir_b: str) -> int:
    """A = before, B = after.  Exit 1 if any end-to-end metric of B is worse
    than A by more than its bound, or any exact count differs."""
    a, b = (json.loads((Path(d) / "results.json").read_text()) for d in (dir_a, dir_b))
    outside = 0
    print(f"{'workload':<20}{'metric':<34}{'A':>14}{'B':>14}{'worse by':>10}  verdict")
    for name in WORKLOADS:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in M.END_TO_END + [M.FAILED_SHARE]:
            va, vb = wa["end_to_end"][metric.name], wb["end_to_end"][metric.name]
            if metric.exact:
                worse, ok = (0.0 if va == vb else math.inf), va == vb
            else:
                worse = (va - vb) / va if metric.better == "higher" else (vb - va) / va
                ok = worse <= metric.bound
            outside += not ok
            print(f"{name:<20}{metric.name:<34}{va:>14.6g}{vb:>14.6g}{worse:>+10.1%}  "
                  f"{'within' if ok else 'outside'} {metric.bound:.0%}")
        for metric in M.PER_LAYER:
            va, vb = wa["per_layer"][metric.name], wb["per_layer"][metric.name]
            if metric.exact and va != vb:
                outside += 1
                print(f"{name:<20}{metric.name:<34}{va:>14.6g}{vb:>14.6g}{'':>10}  outside (exact count differs)")
    print(f"{outside} outside" if outside else "all within bounds; exact counts identical")
    return 1 if outside else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="driver form: the one workload to run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="time box of the untraced units per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver form: 1 = per-layer pass")
    parser.add_argument("--out", default=str(HERE / ".work" / "report"), help="report form: output directory")
    parser.add_argument("--smoke", action="store_true", help="report form: one unit per workload at reduced counts")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two report directories")
    parser.add_argument("--write-expected", nargs="*", type=int, metavar="SEED", help="re-pin expected.json for these seeds")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.write_expected is not None:
            return write_expected(args.write_expected or [args.seed])
        if args.workload:
            return drive(args)
        return report(args)
    except (ChildFailed, subprocess.TimeoutExpired) as failure:
        print(f"benchmark aborted: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one fresh process: set-up, warm-up, units, one JSON line.

``run.py`` starts this file as ``python child.py '<json request>'`` and
reads the last line of its standard output.  The request is::

    {"workload", "seed", "spawned_at", "smoke", "setup_only",
     "units" | "seconds", "traced", "trace_out", "micro_rounds"}

Thread counts are pinned before numpy is imported; nothing else in the
benchmark imports numpy first.
"""

from __future__ import annotations

import json
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource
import shutil
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
#: A time-boxed pass always measures at least this many units.
MIN_UNITS = 2


def _run_units(workload, request, tracer):
    """Units 0..K-1; K is fixed (``units``) or what fits in ``seconds``."""
    from benchmarks.e2e.workloads import CheckFailed

    units, spent, u = [], 0.0, 0
    while True:
        if tracer is not None:
            tracer.unit = u
        started = time.perf_counter()
        try:
            record = workload.unit(u)
            record["error"] = None
        except CheckFailed as failure:
            record = {"error": f"check failed: {failure}"}
        except Exception:  # the benchmark must report, not die, when the program raises
            record = {"error": traceback.format_exc(limit=8)}
        if record["error"] is not None:
            record["attempted"] = workload.nominal_items(workload.shape)
        record["unit"] = u
        record["outer_s"] = time.perf_counter() - started
        units.append(record)
        spent += record["outer_s"]
        u += 1
        if request.get("units") is not None:
            if u >= request["units"]:
                return units
        elif u >= MIN_UNITS and spent + record["outer_s"] > request["seconds"]:
            return units


def main(argv) -> int:
    request = json.loads(argv[1])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    tracer = None
    if request["traced"]:
        from benchmarks.e2e import trace

        tracer = trace.Tracer()
        trace.install(tracer)

    from benchmarks.e2e import workloads

    name = request["workload"]
    shapes = workloads.SMOKE if request["smoke"] else workloads.FULL
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[name](request["seed"], shapes[name], workdir)
        if tracer is not None:
            tracer.unit = trace.WARMUP
        # One discarded unit at the smoke shape: it touches every lazy
        # import and code path of a unit for a fraction of its cost, so
        # set-up can be repeated several times per run.
        workload.unit(workloads.WARMUP_UNIT, shape=workloads.SMOKE[name])
        out = {"workload": name, "seed": request["seed"], "setup_s": time.time() - request["spawned_at"]}
        if not request["setup_only"]:
            out["units"] = _run_units(workload, request, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        tracer.restore()
        timed = [u["unit"] for u in out["units"]]
        out["spans"] = {
            "units": tracer.totals(timed),
            "setup": tracer.totals([trace.SETUP]),
            "traffic": tracer.traffic(timed),
        }
        if request.get("trace_out"):
            with open(request["trace_out"], "w") as fh:
                json.dump(tracer.chrome_trace(), fh)
    if request.get("micro_rounds"):
        from benchmarks.e2e import micro

        out["micro"] = micro.run(rounds=request["micro_rounds"])
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

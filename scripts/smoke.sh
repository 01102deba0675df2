#!/usr/bin/env bash
# Fast test lane plus an observability smoke check.
#
# Lanes:
#   default            everything except slow scenario suites
#   SMOKE_LANE=profile only the observability suite (-m profile)
#   SMOKE_LANE=bench   bench-marked tests, then the hot-path regression gate
#   SMOKE_LANE=serve   serving suite (-m serve) plus a predict/serve CLI smoke
#                      (serve runs from a temp cwd) and the serve_trace
#                      digest check of the e2e lane
#   SMOKE_LANE=chaos   resilience suite (-m chaos) plus a replicated-serve
#                      CLI smoke under a seeded chaos profile and the same
#                      serve_trace digest check
#   SMOKE_LANE=screen  screening suite (-m screen) plus a repro-screen CLI
#                      smoke and the screening bench gate
#   SMOKE_LANE=megnet  MEGNet suite (-m megnet) plus a --encoder megnet
#                      finetune CLI smoke and the Table-1 bench gate
#   SMOKE_LANE=e2e     the end-to-end benchmark's own tests, then its --smoke
#                      report: exits non-zero on any output-digest mismatch,
#                      so a change that moves numerics is caught before the
#                      benchmark pipeline runs (reads benchmarks/e2e, edits
#                      nothing there)
#   SMOKE_LANE=full    the whole suite, markers included
#
# Scenario suites run on demand: -m stability (anomaly tracing and the
# Fig. 3 remedy) / -m profile.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$PWD"

# The e2e lane's digest check for the one workload that drives the serving
# loop: "correct" is true only if every serve_trace unit matched
# benchmarks/e2e/expected.json (status counts and value sums) and kept its
# per-unit contracts, so serving drift fails here, before the benchmark
# pipeline runs.
serve_trace_digest_check() {
    python benchmarks/e2e/run.py --workload serve_trace --seed 0 --seconds 2 \
        | grep -q '"correct": true'
    echo "serve_trace digest ok"
}

LANE="${SMOKE_LANE:-default}"
case "$LANE" in
default)
    PYTHONPATH=src python -m pytest -x -q \
        -m "not stability and not slow" "$@"
    ;;
profile)
    PYTHONPATH=src python -m pytest -x -q -m profile "$@"
    ;;
bench)
    PYTHONPATH=src python -m pytest -x -q -m bench "$@"
    # Gate both suites against the committed baselines (speedup ratios,
    # machine-portable); exits 1 on a >25% regression.
    PYTHONPATH=src:. python scripts/bench_gate.py
    exit 0
    ;;
serve)
    PYTHONPATH=src python -m pytest -x -q -m serve "$@"
    # End to end: bootstrap-train the demo servable into a scratch registry,
    # answer offline queries, then run a simulated micro-batched serving
    # session over open-loop traffic.
    REGISTRY="$(mktemp -d /tmp/smoke-registry.XXXXXX)"
    trap 'rm -rf "$REGISTRY"' EXIT
    PYTHONPATH=src python -m repro.cli predict \
        --registry "$REGISTRY" --bootstrap --samples 2 >/dev/null
    # From a foreign cwd with only src/ importable: src/ must not lean on
    # the repo-root benchmarks package.  One replica, same loop as below.
    SERVE_OUT="$(cd "$REGISTRY" && PYTHONPATH="$REPO/src" python -m repro.cli serve \
        --registry "$REGISTRY" --requests 32 --rate 400 --replicas 1)"
    grep -q "req/s" <<<"$SERVE_OUT"
    grep -q "serve.replica.count" <<<"$SERVE_OUT"
    # The fast matmul mode is in force, not its einsum fallback.
    grep -q "batch-invariant matmul: tiled" <<<"$SERVE_OUT"
    echo "serving smoke ok"
    # Gate the serving bench against its committed baseline.
    PYTHONPATH=src:. python scripts/bench_gate.py --suite serving
    serve_trace_digest_check
    exit 0
    ;;
chaos)
    PYTHONPATH=src python -m pytest -x -q -m chaos "$@"
    # End to end: a 3-replica pool must survive a seeded chaos profile on
    # the CLI path and report per-replica / breaker / hedge metrics.
    REGISTRY="$(mktemp -d /tmp/smoke-registry.XXXXXX)"
    trap 'rm -rf "$REGISTRY"' EXIT
    PYTHONPATH=src python -m repro.cli predict \
        --registry "$REGISTRY" --bootstrap --samples 2 >/dev/null
    CHAOS_OUT="$(PYTHONPATH=src python -m repro.cli serve \
        --registry "$REGISTRY" --requests 48 --rate 600 --replicas 3 \
        --chaos-profile replica_crash:1,replica_slow:1 --hedge-ms 4)"
    grep -q "replica pool: 3 replicas" <<<"$CHAOS_OUT"
    grep -q "chaos events" <<<"$CHAOS_OUT"
    PYTHONPATH=src python -m repro.cli registry verify \
        --registry "$REGISTRY" | grep -q "servables verified ok"
    echo "chaos smoke ok"
    # Gate the resilience bench against its committed baseline.
    PYTHONPATH=src:. python scripts/bench_gate.py --suite resilience
    serve_trace_digest_check
    exit 0
    ;;
screen)
    PYTHONPATH=src python -m pytest -x -q -m screen "$@"
    # End to end: bootstrap-train the demo servable, then screen a small
    # candidate stream through it — sharded and with a relaxation step —
    # and check the ranked report comes out.
    REGISTRY="$(mktemp -d /tmp/smoke-registry.XXXXXX)"
    trap 'rm -rf "$REGISTRY"' EXIT
    PYTHONPATH=src python -m repro.cli predict \
        --registry "$REGISTRY" --bootstrap --samples 2 >/dev/null
    SCREEN_OUT="$(PYTHONPATH=src python -m repro.cli screen \
        --registry "$REGISTRY" --n-candidates 32 --top-k 4 \
        --batch-size 8 --shards 2 --relax-steps 1 --base-samples 8)"
    grep -q "screened 32 candidates" <<<"$SCREEN_OUT"
    grep -q "top-4:" <<<"$SCREEN_OUT"
    grep -q "batch-invariant matmul: tiled" <<<"$SCREEN_OUT"
    echo "screening smoke ok"
    # Gate the screening bench against its committed baseline.
    PYTHONPATH=src:. python scripts/bench_gate.py --suite screening
    exit 0
    ;;
megnet)
    PYTHONPATH=src python -m pytest -x -q -m megnet "$@"
    # End to end: the fourth encoder family must pretrain and finetune
    # from the CLI (finetune on a non-default dataset, reporting its
    # dataset/target line).
    PRETRAIN_OUT="$(PYTHONPATH=src python -m repro.cli pretrain \
        --encoder megnet --steps 3 --samples 16 --world-size 2 \
        --hidden-dim 12 --layers 2 --epochs 1)"
    grep -q "val" <<<"$PRETRAIN_OUT"
    MEGNET_OUT="$(PYTHONPATH=src python -m repro.cli finetune \
        --encoder megnet --dataset carolina --target formation_energy \
        --samples 24 --hidden-dim 12 --layers 2 --epochs 1)"
    grep -q "dataset: carolina" <<<"$MEGNET_OUT"
    grep -q "val MAE" <<<"$MEGNET_OUT"
    grep -q "final " <<<"$MEGNET_OUT"
    echo "megnet smoke ok"
    # Gate the 4-encoder Table-1 sweep against its committed baseline.
    PYTHONPATH=src:. python scripts/bench_gate.py --suite table1
    exit 0
    ;;
e2e)
    python -m pytest benchmarks/e2e -q "$@"
    E2E_OUT="$(mktemp -d /tmp/smoke-e2e.XXXXXX)"
    trap 'rm -rf "$E2E_OUT"' EXIT
    # Every unit's digest is checked against benchmarks/e2e/expected.json.
    python -m benchmarks.e2e.run --smoke --out "$E2E_OUT"
    echo "e2e smoke ok"
    exit 0
    ;;
full)
    PYTHONPATH=src python -m pytest -x -q "$@"
    ;;
*)
    echo "unknown SMOKE_LANE: $LANE (expected default|profile|bench|serve|chaos|screen|megnet|e2e|full)" >&2
    exit 2
    ;;
esac

# Profiler smoke: the CLI must produce a loadable Chrome trace and a phase
# table end to end, not just pass unit tests.
TRACE="$(mktemp /tmp/smoke-trace.XXXXXX.json)"
trap 'rm -f "$TRACE"' EXIT
PYTHONPATH=src python -m repro.cli pretrain \
    --steps 3 --samples 16 --world-size 2 --hidden-dim 16 --layers 2 \
    --epochs 1 --profile --trace-out "$TRACE" >/dev/null
python -c "
import json, sys
events = json.load(open('$TRACE'))['traceEvents']
assert any(e.get('ph') == 'X' for e in events), 'no span events in trace'
print(f'profiler smoke ok: {sum(e.get(\"ph\") == \"X\" for e in events)} spans')
"

"""Shared machinery for the paper-reproduction benches.

Every bench runs once (``benchmark.pedantic(..., rounds=1)``), prints the
table/series the paper reports with paper-expected values alongside, and
asserts the qualitative *shape* (who wins, rough factors, crossovers).
Expensive artefacts — the pretrained encoder, the Table-1 training runs —
are cached at module level so the Fig. 7 bench reuses the Table-1 runs
within one pytest session.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core import (
    EncoderConfig,
    FinetuneConfig,
    MultiTaskConfig,
    OptimizerConfig,
    cached_pretrained_encoder,
    train_multitask,
    transfer_pretrain_recipe,
)
from repro.utils import time_callable  # noqa: F401 - the benches import it from here

#: Encoder geometry used by every downstream bench (CPU-scale stand-in for
#: the paper's 256-wide model).
BENCH_ENCODER = dict(hidden_dim=32, num_layers=3, position_dim=12)


def encoder_config() -> EncoderConfig:
    return EncoderConfig(**BENCH_ENCODER)


@functools.lru_cache(maxsize=1)
def pretrained_state_cached() -> Tuple:
    """The shared pretrained encoder (disk-cached across sessions)."""
    state = cached_pretrained_encoder(transfer_pretrain_recipe())
    # lru_cache needs a hashable return; wrap the dict.
    return (state,)


def pretrained_state() -> Dict[str, np.ndarray]:
    return pretrained_state_cached()[0]


# --------------------------------------------------------------------------- #
# Fig. 5 configuration (single-task band gap)
# --------------------------------------------------------------------------- #
FIG5_SEEDS = (5, 11, 21)


def fig5_config(seed: int) -> FinetuneConfig:
    # Short warmup: the scratch arm reaches its (DDP-scaled) full rate
    # almost immediately and pays for it with early turbulence, while the
    # pretrained arm's organized features let its head convert the same
    # rate into an immediate error drop — the paper's early-phase contrast.
    return FinetuneConfig(
        encoder=encoder_config(),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=2, gamma=0.9),
        train_samples=192,
        val_samples=48,
        batch_size=16,
        max_epochs=30,
        world_size=16,
        head_hidden_dim=32,
        head_blocks=2,
        seed=seed,
    )


# --------------------------------------------------------------------------- #
# Table 1 / Fig. 7 configuration (multi-task multi-dataset)
# --------------------------------------------------------------------------- #
def table1_config() -> MultiTaskConfig:
    return MultiTaskConfig(
        encoder=encoder_config(),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=8, gamma=0.8),
        mp_samples=160,
        carolina_samples=80,
        batch_size=16,
        max_epochs=20,
        world_size=16,
        head_hidden_dim=32,
        head_blocks=3,
        seed=13,
    )


@functools.lru_cache(maxsize=1)
def table1_runs() -> Tuple:
    """(pretrained_result, scratch_result), shared by Table 1 and Fig. 7."""
    cfg = table1_config()
    scratch = train_multitask(cfg)
    pretrained = train_multitask(cfg, pretrained_state=pretrained_state())
    return (pretrained, scratch)


#: Paper Table 1 values: metric -> (pretrained, from_scratch).
PAPER_TABLE1 = {
    "band_gap_mae": (1.27, 4.80),
    "fermi_mae": (0.76, 3.86),
    "mp_eform_mae": (0.83, 3.54),
    "stability_bce": (0.42, 0.40),
    "cmd_eform_mae": (0.14, 0.10),
}


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


# --------------------------------------------------------------------------- #
# Timing + the shared BENCH_*.json schema
# --------------------------------------------------------------------------- #
#: Schema tag every bench JSON carries; the regression gate refuses files
#: with a different tag rather than mis-reading them.
BENCH_SCHEMA = "repro-bench-v1"


def compare_callables(
    fn_a: Callable[[], object],
    fn_b: Callable[[], object],
    rounds: int = 5,
    warmup: int = 1,
) -> Tuple[float, float]:
    """Median times of two callables measured in *interleaved* rounds.

    Timing each arm in its own block lets machine-load drift between the
    blocks masquerade as a speedup (or mask one); alternating a/b within
    every round exposes both arms to the same drift.
    """
    for _ in range(max(warmup, 0)):
        fn_a()
        fn_b()
    times_a, times_b = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn_a()
        times_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        times_b.append(time.perf_counter() - t0)

    def median(ts):
        ts = sorted(ts)
        mid = len(ts) // 2
        return ts[mid] if len(ts) % 2 else 0.5 * (ts[mid - 1] + ts[mid])

    return median(times_a), median(times_b)


def bench_result(name: str, kind: str, value: float, unit: str, **extra) -> Dict:
    """One schema entry: ``kind`` is ``time`` | ``speedup`` | ``metric``."""
    if kind not in ("time", "speedup", "metric"):
        raise ValueError(f"unknown result kind {kind!r}")
    entry = {"name": name, "kind": kind, "value": float(value), "unit": unit}
    entry.update(extra)
    return entry


def write_bench_json(
    path: str, results: Sequence[Dict], meta: Optional[Dict] = None
) -> Dict:
    """Write results under the shared schema; returns the payload."""
    payload = {"schema": BENCH_SCHEMA, "meta": dict(meta or {}), "results": list(results)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def load_bench_json(path: str) -> Dict:
    """Load and schema-check a bench JSON file."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {payload.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    if not isinstance(payload.get("results"), list):
        raise ValueError(f"{path}: missing results list")
    return payload

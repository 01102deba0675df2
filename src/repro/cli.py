"""Command-line interface: ``python -m repro.cli <command>``.

Thin argparse front-end over :mod:`repro.core`'s workflows, so the paper's
experiments can be driven without writing Python:

    python -m repro.cli pretrain --epochs 10 --world-size 8
    python -m repro.cli finetune --pretrained --epochs 20
    python -m repro.cli multitask --epochs 15
    python -m repro.cli explore --samples 30
    python -m repro.cli scaling --workers 16 512
    python -m repro.cli datasets
    python -m repro.cli predict --registry /tmp/reg --bootstrap --samples 4
    python -m repro.cli serve --registry /tmp/reg --rate 400 --requests 64
    python -m repro.cli serve --registry /tmp/reg --replicas 3 \
        --chaos-profile replica_crash:1,replica_slow:1
    python -m repro.cli screen --registry /tmp/reg --bootstrap \
        --n-candidates 256 --top-k 8 --relax-steps 2
    python -m repro.cli registry verify --registry /tmp/reg
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

import numpy as np

from repro.core import (
    EncoderConfig,
    FinetuneConfig,
    MultiTaskConfig,
    OptimizerConfig,
    PretrainConfig,
    cached_pretrained_encoder,
    explore_datasets,
    pretrain_symmetry,
    train_multitask,
    train_property,
    transfer_pretrain_recipe,
)
from repro.core.pipeline import build_encoder_from_config
from repro.core.workflows import TABLE1_METRICS
from repro.domains import Domain, domain_of, flag_type
from repro.screening import ScreenConfig
from repro.serving import AdmissionPolicy, BatchPolicy, HedgePolicy

#: Domains of the numeric flags that set no config field.
_AT_LEAST_ONE = Domain(ge=1)
_NON_NEGATIVE = Domain(ge=0)
_POSITIVE = Domain(gt=0)
#: ``multitask --samples N`` gives Carolina ``N // 2`` structures.
_MULTITASK_SAMPLES = Domain(ge=2 * domain_of(MultiTaskConfig, "carolina_samples").ge)


def _encoder_config(args) -> EncoderConfig:
    return EncoderConfig(
        name=args.encoder,
        hidden_dim=args.hidden_dim,
        num_layers=args.layers,
        position_dim=max(args.hidden_dim // 4, 4),
    )


def _add_model_args(
    parser: argparse.ArgumentParser, config, world_size: int = 16, warmup: int = 8
) -> None:
    """The flags every training command shares; ``config`` is its config class."""
    parser.add_argument(
        "--encoder", default="egnn", choices=["egnn", "gaanet", "megnet", "schnet"]
    )
    parser.add_argument("--hidden-dim", type=flag_type(EncoderConfig, "hidden_dim"),
                        default=32)
    parser.add_argument("--layers", type=flag_type(EncoderConfig, "num_layers"), default=3)
    parser.add_argument("--seed", type=flag_type(config, "seed"), default=7)
    parser.add_argument("--lr", type=flag_type(OptimizerConfig, "base_lr"), default=1e-3)
    parser.add_argument("--epochs", type=flag_type(config, "max_epochs"), default=10)
    parser.add_argument("--world-size", type=flag_type(config, "world_size"),
                        default=world_size)
    parser.add_argument("--warmup", type=flag_type(OptimizerConfig, "warmup_epochs"),
                        default=warmup)


def _pretrained_state(args, encoder: EncoderConfig):
    """The cached transfer-recipe encoder for ``--pretrained`` (else None)."""
    if not args.pretrained:
        return None
    print("loading cached pretrained encoder (training it if needed) ...")
    recipe = dataclasses.replace(transfer_pretrain_recipe(), encoder=encoder)
    return cached_pretrained_encoder(recipe)


def cmd_pretrain(args) -> int:
    """Run symmetry-group pretraining and print its convergence summary."""
    cfg = PretrainConfig(
        encoder=_encoder_config(args),
        optimizer=OptimizerConfig(base_lr=args.lr, warmup_epochs=args.warmup),
        train_samples=args.samples,
        val_samples=max(args.samples // 4, 16),
        world_size=args.world_size,
        batch_per_worker=args.batch_per_worker,
        max_epochs=args.epochs,
        head_hidden_dim=args.hidden_dim,
        head_blocks=2,
        seed=args.seed,
        stability_guard=args.stability_guard,
        detect_anomaly=args.detect_anomaly,
        max_steps=args.steps,
        profile=args.profile,
        trace_out=args.trace_out,
    )
    print(
        f"pretraining: N={cfg.world_size}, B_eff={cfg.effective_batch}, "
        f"lr={cfg.optimizer.base_lr * cfg.world_size:g}"
    )
    result = pretrain_symmetry(cfg)
    _, ce = result.history.series("val", "ce")
    _, acc = result.history.series("val", "acc")
    print(f"val CE  {ce[0]:.3f} -> {ce[-1]:.3f}")
    print(f"val acc {acc[0]:.3f} -> {acc[-1]:.3f}")
    print(f"throughput {result.throughput.samples_per_second:.0f} samples/s, "
          f"spikes {result.spikes.spike_count}")
    if result.events is not None:
        counts = result.events.summary()
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"guard events: {summary if summary else 'none'}")
    if result.guard is not None:
        g = result.guard.summary()
        print(f"stability: spikes={g['spikes']}, interventions={g['interventions']}, "
              f"lr_deficit={g['lr_deficit']:.3g}")
    if result.observer is not None:
        if cfg.profile:
            print()
            print(result.observer.report())
        if cfg.trace_out is not None:
            print(f"chrome trace written to {cfg.trace_out} "
                  f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def cmd_finetune(args) -> int:
    """Fine-tune a property regressor (optionally from the cached encoder)."""
    cfg = FinetuneConfig(
        encoder=_encoder_config(args),
        optimizer=OptimizerConfig(base_lr=args.lr, warmup_epochs=args.warmup),
        dataset=args.dataset,
        target=args.target,
        train_samples=args.samples,
        val_samples=max(args.samples // 4, 16),
        max_epochs=args.epochs,
        world_size=args.world_size,
        head_hidden_dim=args.hidden_dim,
        head_blocks=2,
        seed=args.seed,
    )
    result = train_property(cfg, pretrained_state=_pretrained_state(args, cfg.encoder))
    print(f"dataset: {cfg.dataset}, target: {cfg.target}")
    for epoch, mae in enumerate(result.curve_mae, start=1):
        print(f"  epoch {epoch:3d}: val MAE {mae:.4f}")
    print(f"final {result.final_mae:.4f}, best {result.best_mae:.4f}")
    return 0


def cmd_multitask(args) -> int:
    """Run the Table-1 multi-task multi-dataset training."""
    cfg = MultiTaskConfig(
        encoder=_encoder_config(args),
        optimizer=OptimizerConfig(base_lr=args.lr, warmup_epochs=args.warmup),
        mp_samples=args.samples,
        carolina_samples=args.samples // 2,
        max_epochs=args.epochs,
        world_size=args.world_size,
        head_hidden_dim=args.hidden_dim,
        head_blocks=3,
        seed=args.seed,
    )
    result = train_multitask(cfg, pretrained_state=_pretrained_state(args, cfg.encoder))
    print("final validation metrics:")
    for key in TABLE1_METRICS:
        if key in result.final_metrics:
            print(f"  {key:18s} {result.final_metrics[key]:.4f}")
    return 0


def cmd_explore(args) -> int:
    """Run the Fig.-4 dataset exploration and print cluster metrics."""
    recipe = transfer_pretrain_recipe()
    state = cached_pretrained_encoder(recipe)
    encoder = build_encoder_from_config(recipe.encoder, rng=np.random.default_rng(0))
    encoder.load_state_dict(state)
    result = explore_datasets(encoder, samples_per_dataset=args.samples)
    sil = result.by_name(result.silhouettes)
    spread = result.by_name(result.spreads)
    print(f"{'dataset':>18} {'silhouette':>11} {'spread':>8}")
    for name in result.names:
        print(f"{name:>18} {sil[name]:>11.3f} {spread[name]:>8.3f}")
    return 0


def cmd_scaling(args) -> int:
    """Project DDP throughput over a worker range (Fig. 2)."""
    from repro.distributed import ENDEAVOUR, ThroughputModel

    model = ThroughputModel(
        per_worker_samples_per_s=args.rate,
        batch_per_worker=32,
        gradient_bytes=args.params * 8,
        cluster=ENDEAVOUR,
    )
    lo, hi = args.workers
    sizes = []
    n = lo
    while n <= hi:
        sizes.append(n)
        n *= 2
    print(f"{'workers':>8} {'samples/s':>12} {'epoch (min)':>12} {'eff':>8}")
    for row in model.sweep(sizes, dataset_size=args.dataset_size):
        print(f"{row['workers']:>8d} {row['samples_per_s']:>12.0f} "
              f"{row['epoch_minutes']:>12.2f} {row['efficiency']:>8.4f}")
    return 0


def cmd_datasets(args) -> int:
    """List registered datasets with a sample summary."""
    from repro.datasets import available_datasets, build_dataset

    for name in available_datasets():
        ds = build_dataset(name, num_samples=2, seed=0)
        sample = ds[0]
        targets = ", ".join(sorted(sample.targets))
        print(f"{name:>18}: {sample.num_atoms:3d} atoms/sample, targets: {targets}")
    return 0


def _load_serving_model(args):
    """Resolve the --registry/--model pair, bootstrapping when asked."""
    from repro.serving import ModelRegistry
    from repro.serving.demo import DEMO_MODEL_NAME, fit_demo_servable

    registry = ModelRegistry(args.registry)
    name = args.model
    if args.bootstrap and name == DEMO_MODEL_NAME and name not in registry.names():
        print(f"bootstrapping demo servable into {args.registry} ...")
        _, mae = fit_demo_servable(args.registry, seed=args.seed)
        print(f"trained demo model (final MAE {mae:.4f})")
    return registry.load(name)


def cmd_predict(args) -> int:
    """One-shot offline predictions through the serving registry."""
    from repro.serving.demo import demo_request_samples

    servable = _load_serving_model(args)
    samples = demo_request_samples(args.samples, seed=args.query_seed)
    values = servable.predict(samples)
    print(f"model: {args.model} (target {servable.spec.target}, "
          f"encoder {servable.spec.encoder_name})")
    for i, value in enumerate(values):
        print(f"  sample {i}: {servable.spec.target} = {value:.6f}")
    return 0


def cmd_serve(args) -> int:
    """Simulated open-loop serving run: micro-batching + admission control.

    Every run goes through the one serving event loop,
    :class:`~repro.serving.ReplicaPool` (DESIGN.md §12).  A single replica
    with no chaos is plain micro-batching; ``--replicas N`` (N > 1) or a
    ``--chaos-profile`` (a seeded serving-fault schedule) switches on the
    resilience machinery — health checks, circuit breakers, hedged
    requests, failover.
    """
    from repro.distributed.events import SimClock
    from repro.observability import Observer
    from repro.serving import (
        ReplicaPool,
        SINGLE_SERVER,
        calibrate_service_model,
        chaos_schedule,
        make_requests,
        matmul_mode_line,
        poisson_arrivals,
    )
    from repro.serving.demo import demo_request_samples

    servable = _load_serving_model(args)
    samples = demo_request_samples(args.samples, seed=args.query_seed)
    service_model = calibrate_service_model(
        servable, samples, max_batch_size=max(args.max_batch, 2)
    )
    print(f"service model: {service_model.base * 1e3:.3f} ms + "
          f"{service_model.per_sample * 1e3:.3f} ms/sample"
          + (" (degenerate fit: flat per-sample cost)"
             if service_model.degenerate_fit else ""))
    clock = SimClock()
    observer = Observer(clock=clock)
    arrivals = poisson_arrivals(args.rate, args.requests, seed=args.seed)
    requests = make_requests(samples, arrivals)
    print(f"open-loop traffic: {args.requests} requests at {args.rate:g} req/s "
          f"(seed {args.seed})")
    resilient = args.replicas > 1 or bool(args.chaos_profile)
    duration = max(float(arrivals[-1]), 1e-6) if len(arrivals) else 1.0
    pool = ReplicaPool(
        servable.predict,
        num_replicas=args.replicas,
        batch=BatchPolicy(max_batch_size=args.max_batch, max_wait=args.max_wait),
        admission=AdmissionPolicy(
            max_queue_depth=args.queue_depth, deadline=args.deadline
        ),
        service_model=service_model,
        chaos=chaos_schedule(
            args.chaos_profile, args.replicas, duration, seed=args.chaos_seed
        ),
        clock=clock,
        observer=observer,
        seed=args.seed,
        **(
            {"hedge": HedgePolicy(delay=args.hedge_ms * 1e-3)}
            if resilient
            else SINGLE_SERVER
        ),
    )
    if resilient:
        print(f"replica pool: {args.replicas} replicas, "
              f"hedge after {args.hedge_ms:g} ms"
              + (f", chaos '{args.chaos_profile}' (seed {args.chaos_seed})"
                 if args.chaos_profile else ""))
    report = pool.serve(requests)
    if args.chaos_profile:
        counts = pool.events.summary()
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"chaos events: {summary if summary else 'none'}")
    print(report.summary())
    print(matmul_mode_line(observer.metrics))
    print()
    print(observer.metrics_table())
    if args.trace_out is not None:
        observer.export_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out}")
    return 0


def cmd_screen(args) -> int:
    """High-throughput screening: generate -> (relax) -> predict -> rank.

    Streams seeded element-swap/strain mutations of known crystals
    through the servable's batch-invariant forward and keeps a
    deterministic top-k (DESIGN.md §15).  ``--shards``/``--batch-size``
    change throughput only — the ranking is bit-identical across layouts.
    """
    from repro.observability import Observer
    from repro.screening import run_screening
    from repro.serving import matmul_mode_line

    servable = _load_serving_model(args)
    config = ScreenConfig(
        n_candidates=args.n_candidates,
        top_k=args.top_k,
        batch_size=args.batch_size,
        relax_steps=args.relax_steps,
        num_shards=args.shards,
        seed=args.screen_seed,
        base_samples=args.base_samples,
    )
    print(f"model: {args.model} (target {servable.spec.target}, "
          f"encoder {servable.spec.encoder_name})")
    print(f"screening {config.n_candidates} candidates "
          f"(batch {config.batch_size}, {config.num_shards} shard"
          f"{'s' if config.num_shards != 1 else ''}, "
          f"{config.relax_steps} relax steps, seed {config.seed})")
    observer = Observer()
    result = run_screening(servable, config, observer=observer)
    print(result.summary())
    print(matmul_mode_line(observer.metrics))
    print()
    print(observer.metrics_table())
    if args.trace_out is not None:
        observer.export_chrome_trace(args.trace_out)
        print(f"chrome trace written to {args.trace_out}")
    return 0


def cmd_registry_verify(args) -> int:
    """CRC-audit every servable in a registry; non-zero exit on corruption."""
    from repro.serving import ModelRegistry

    registry = ModelRegistry(args.registry)
    results = registry.verify()
    if not results:
        print(f"registry {args.registry}: no servables found")
        return 0
    bad = 0
    for name, info in sorted(results.items()):
        if info["ok"]:
            print(f"  {name:24s} ok    {info['encoder']:>8s} -> {info['target']}, "
                  f"{info['arrays']} arrays, {info['bytes'] / 1e3:.1f} kB")
        else:
            bad += 1
            print(f"  {name:24s} FAIL  {info['error']}")
    print(f"{len(results) - bad}/{len(results)} servables verified ok")
    return 1 if bad else 0


def _chaos_spec(text: str) -> str:
    """argparse type for ``--chaos-profile``: the spec must parse."""
    from repro.serving.resilience.chaos import ServingChaosProfile

    try:
        ServingChaosProfile.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


class _OrderedPair(argparse.Action):
    """``nargs=2`` action that rejects ``LO > HI``."""

    def __call__(self, parser, namespace, values, option_string=None):
        lo, hi = values
        if lo > hi:
            raise argparse.ArgumentError(self, f"expected LO <= HI, got {lo} > {hi}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Open MatSci ML Toolkit reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="symmetry-group pretraining (Sec. 5.2)")
    _add_model_args(p, PretrainConfig, world_size=8)
    p.add_argument("--samples", type=flag_type(PretrainConfig, "train_samples"), default=256)
    p.add_argument("--batch-per-worker", type=flag_type(PretrainConfig, "batch_per_worker"),
                   default=2)
    p.add_argument("--stability-guard", action="store_true",
                   help="attach the loss-spike guard (skip the step, halve "
                        "the LR, re-warm)")
    p.add_argument("--detect-anomaly", action="store_true",
                   help="fail on the first non-finite value, naming its "
                        "creating autograd op (slower)")
    p.add_argument("--steps", type=flag_type(PretrainConfig, "max_steps"), default=None,
                   help="hard step budget (overrides --epochs for quick runs)")
    p.add_argument("--profile", action="store_true",
                   help="attach the observability layer: phase spans, per-op "
                        "autograd profiling, metrics; prints the report")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a chrome://tracing JSON of the run's spans")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="single-task fine-tuning (Fig. 5)")
    _add_model_args(p, FinetuneConfig, warmup=2)
    p.add_argument("--samples", type=flag_type(FinetuneConfig, "train_samples"), default=160)
    p.add_argument("--dataset", default="materials_project",
                   choices=["materials_project", "carolina", "lips", "oc20", "oc22"],
                   help="registered dataset to fine-tune on (Table 1 sweep)")
    p.add_argument("--target", default="band_gap",
                   choices=["band_gap", "fermi_energy", "formation_energy", "energy"])
    p.add_argument("--pretrained", action="store_true")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("multitask", help="multi-task multi-dataset training (Table 1)")
    _add_model_args(p, MultiTaskConfig)
    p.add_argument("--samples", type=_MULTITASK_SAMPLES.argtype(int), default=160,
                   help="Materials Project structures; Carolina gets half, "
                        "and each split needs a training sample")
    p.add_argument("--pretrained", action="store_true")
    p.set_defaults(fn=cmd_multitask)

    p = sub.add_parser("explore", help="UMAP dataset exploration (Fig. 4)")
    p.add_argument("--samples", type=_AT_LEAST_ONE.argtype(int), default=30)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("scaling", help="throughput projection (Fig. 2)")
    p.add_argument("--workers", type=_AT_LEAST_ONE.argtype(int), nargs=2, default=[16, 512],
                   metavar=("LO", "HI"), action=_OrderedPair)
    p.add_argument("--rate", type=_POSITIVE.argtype(float), default=300.0,
                   help="single-worker samples/s")
    p.add_argument("--params", type=_AT_LEAST_ONE.argtype(int), default=30_000)
    p.add_argument("--dataset-size", type=_AT_LEAST_ONE.argtype(int), default=2_000_000)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("datasets", help="list available datasets")
    p.set_defaults(fn=cmd_datasets)

    def _add_serving_args(p):
        p.add_argument("--registry", required=True, metavar="DIR",
                       help="servable registry root directory")
        p.add_argument("--model", default="band_gap_demo",
                       help="registry entry to load")
        p.add_argument("--bootstrap", action="store_true",
                       help="train and archive the demo model if absent")
        p.add_argument("--samples", type=_AT_LEAST_ONE.argtype(int), default=4,
                       help="query structures to generate")
        p.add_argument("--query-seed", type=_NON_NEGATIVE.argtype(int), default=99,
                       help="seed for the generated query structures")
        p.add_argument("--seed", type=_NON_NEGATIVE.argtype(int), default=13)

    p = sub.add_parser("predict", help="offline predictions via the registry")
    _add_serving_args(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("serve", help="simulated micro-batched serving run")
    _add_serving_args(p)
    p.add_argument("--rate", type=_POSITIVE.argtype(float), default=400.0,
                   help="open-loop Poisson arrival rate (req/s)")
    p.add_argument("--requests", type=_NON_NEGATIVE.argtype(int), default=64,
                   help="number of requests in the trace")
    p.add_argument("--max-batch", type=flag_type(BatchPolicy, "max_batch_size"), default=8,
                   help="micro-batch size cap")
    p.add_argument("--max-wait", type=flag_type(BatchPolicy, "max_wait"), default=0.01,
                   metavar="S", help="max seconds the oldest request waits for a batch")
    p.add_argument("--queue-depth", type=flag_type(AdmissionPolicy, "max_queue_depth"),
                   default=None, metavar="N",
                   help="shed requests arriving when N are queued")
    p.add_argument("--deadline", type=flag_type(AdmissionPolicy, "deadline"),
                   default=None, metavar="S",
                   help="per-request completion deadline in seconds")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a chrome://tracing JSON of the serving spans")
    p.add_argument("--replicas", type=_AT_LEAST_ONE.argtype(int), default=1, metavar="N",
                   help="replicas behind the router; N > 1 switches on health "
                        "checks, circuit breakers, hedging, failover")
    p.add_argument("--chaos-profile", type=_chaos_spec, default=None, metavar="SPEC",
                   help="seeded serving faults, e.g. "
                        "'replica_crash:1,replica_slow:1,servable_corrupt:1'")
    p.add_argument("--chaos-seed", type=_NON_NEGATIVE.argtype(int), default=0,
                   help="seed for the chaos schedule")
    # Milliseconds of HedgePolicy.delay: the same domain at any positive scale.
    p.add_argument("--hedge-ms", type=flag_type(HedgePolicy, "delay"), default=5.0,
                   metavar="MS",
                   help="hedge a still-unanswered request onto a sibling "
                        "replica after this many milliseconds")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("screen", help="high-throughput candidate screening")
    _add_serving_args(p)
    p.add_argument("--n-candidates", type=flag_type(ScreenConfig, "n_candidates"),
                   default=256, help="candidates to generate and score")
    p.add_argument("--top-k", type=flag_type(ScreenConfig, "top_k"), default=8,
                   help="ranked winners to keep (O(k) memory)")
    p.add_argument("--batch-size", type=flag_type(ScreenConfig, "batch_size"), default=16,
                   help="prediction batch size (throughput knob only: "
                        "the ranking is bit-identical for any value)")
    p.add_argument("--relax-steps", type=flag_type(ScreenConfig, "relax_steps"), default=0,
                   help="force-field descent steps before scoring "
                        "(0 disables relaxation)")
    p.add_argument("--shards", type=flag_type(ScreenConfig, "num_shards"), default=1,
                   help="partition the candidate stream into N shards "
                        "(merged ranking == single-shard, bit for bit)")
    p.add_argument("--screen-seed", type=flag_type(ScreenConfig, "seed"), default=0,
                   help="seed for the candidate stream")
    p.add_argument("--base-samples", type=flag_type(ScreenConfig, "base_samples"),
                   default=32,
                   help="parent crystals in the mutation pool")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a chrome://tracing JSON of the screening spans")
    p.set_defaults(fn=cmd_screen)

    p = sub.add_parser("registry", help="servable registry maintenance")
    reg_sub = p.add_subparsers(dest="registry_command", required=True)
    p = reg_sub.add_parser("verify", help="CRC-check every servable archive")
    p.add_argument("--registry", required=True, metavar="DIR",
                   help="servable registry root directory")
    p.set_defaults(fn=cmd_registry_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

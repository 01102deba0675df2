"""Experiment workflows — one function per paper experiment family.

Every workflow takes a config dataclass, builds the full pipeline
(dataset -> transform -> task -> strategy -> trainer), runs it, and returns
a structured result the benches print and assert on.  The pretrained
encoder is shared between downstream experiments through an on-disk cache
(``cached_pretrained_encoder``), mirroring how the paper reuses one
20-epoch pretraining run everywhere.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import (
    EncoderConfig,
    FinetuneConfig,
    MultiTaskConfig,
    OptimizerConfig,
    PretrainConfig,
)
from repro.core.pipeline import (
    build_encoder_from_config,
    make_train_loader,
    make_val_loader,
    transform_once,
)
from repro.data.dataset import ConcatDataset
from repro.data.splits import train_val_split
from repro.data.transforms import StructureToGraph
from repro.data.transforms.features import TargetNormalizer
from repro.datasets import (
    CarolinaSurrogate,
    LiPSSurrogate,
    MaterialsProjectSurrogate,
    OC20Surrogate,
    OC22Surrogate,
    SymmetryPointCloudDataset,
    build_dataset,
)
from repro.distributed import (
    DDPStrategy,
    EventLog,
    SimClock,
    SingleProcessStrategy,
)
from repro.observability import Observer
from repro.optim import AdamW, MultiGroupOptimizer, WarmupExponential, scale_lr_for_ddp
from repro.stability import StabilityGuard
from repro.tasks import (
    MultiClassClassificationTask,
    MultiTaskModule,
    ScalarRegressionTask,
    TaskSpec,
)
from repro.training import (
    History,
    LRMonitor,
    SpikeDetector,
    ThroughputMeter,
    Trainer,
    TrainerConfig,
    finetune_lr,
    read_archive,
    write_archive,
)

#: Transform used for the symmetry clouds (unit-scale geometry).
SYMMETRY_CUTOFF = 2.5
#: Transform used for material structures (angstrom-scale geometry).
MATERIALS_CUTOFF = 4.5


def _build_finetune_optimizer(task, opt_cfg, base_lr: float, pretrained: bool):
    """One AdamW for scratch; encoder-at-lr/10 grouped AdamW when pretrained.

    The paper divides the fine-tuning base rate by ten to mitigate
    forgetting; the reproduction applies that to the transplanted encoder
    while the freshly initialized heads train at the full rate (they have
    nothing to forget — see EXPERIMENTS.md).
    """
    kwargs = dict(eps=opt_cfg.eps, weight_decay=opt_cfg.weight_decay)
    if not pretrained:
        return AdamW(task.parameters(), lr=base_lr, **kwargs)
    encoder_ids = {id(p) for p in task.encoder.parameters()}
    head_params = [p for p in task.parameters() if id(p) not in encoder_ids]
    encoder_opt = AdamW(
        task.encoder.parameters(), lr=finetune_lr(base_lr), **kwargs
    )
    head_opt = AdamW(head_params, lr=base_lr, **kwargs)
    return MultiGroupOptimizer(
        [(encoder_opt, 1.0 / 10.0), (head_opt, 1.0)]
    )


def _finetune(config, task, train_ds, val_ds, pretrained_state) -> History:
    """The fine-tune tail of ``train_property`` and ``train_multitask``.

    Loaders over the pre-transformed splits, the optional encoder
    transplant, the Goyal-scaled rate with warmup + exponential decay, and
    one ``fit``.
    """
    train_loader = make_train_loader(train_ds, config.batch_size, seed=config.seed)
    val_loader = make_val_loader(val_ds, 32)
    pretrained = pretrained_state is not None
    if pretrained:
        task.load_encoder_state(pretrained_state)
    lr = scale_lr_for_ddp(config.optimizer.base_lr, config.world_size)
    optimizer = _build_finetune_optimizer(task, config.optimizer, lr, pretrained)
    scheduler = WarmupExponential(
        optimizer,
        warmup_epochs=config.optimizer.warmup_epochs,
        gamma=config.optimizer.gamma,
        target_lr=lr,
    )
    trainer = Trainer(TrainerConfig(max_epochs=config.max_epochs, log_every_n_steps=10))
    return trainer.fit(task, train_loader, val_loader, optimizer, scheduler)


# --------------------------------------------------------------------------- #
# Pretraining (Sec. 5.2, Figs. 3 & 6)
# --------------------------------------------------------------------------- #
@dataclass
class PretrainResult:
    """Artifacts of a pretraining run: trained task, curves, diagnostics."""

    task: MultiClassClassificationTask
    history: History
    spikes: SpikeDetector
    throughput: ThroughputMeter
    lr_trace: List[tuple]
    config: PretrainConfig
    #: The loss-spike guard's event log; None unless ``config.stability_guard``.
    events: Optional[EventLog] = None
    #: Loss-spike guard; None unless ``config.stability_guard``.
    guard: Optional[StabilityGuard] = None
    #: Observability handle (tracer / metrics / op profiler); None unless
    #: ``config.profile`` or ``config.trace_out``.
    observer: Optional[Observer] = None


def pretrain_symmetry(config: PretrainConfig) -> PretrainResult:
    """Train the symmetry-group classifier under simulated DDP.

    The learning rate follows the paper exactly: eta = eta_base * N with a
    linear warmup and gamma = 0.8 exponential decay per epoch.
    """
    rng = np.random.default_rng(config.seed)
    common = dict(
        group_names=config.group_names,
        max_points=config.max_points,
        radius_range=config.radius_range,
    )
    clouds = SymmetryPointCloudDataset(config.train_samples, seed=config.seed, **common)
    train_ds = clouds.materialize()
    val_ds = SymmetryPointCloudDataset(
        config.val_samples, seed=config.seed + 10_000, **common
    ).materialize()

    cutoff = SYMMETRY_CUTOFF if config.radius_range[1] <= 2.5 else MATERIALS_CUTOFF
    transform = StructureToGraph(cutoff=cutoff)
    train_loader = make_train_loader(
        transform_once(train_ds, transform), config.effective_batch, seed=config.seed
    )
    val_loader = make_val_loader(transform_once(val_ds, transform), 32)

    encoder = build_encoder_from_config(config.encoder, rng=rng)
    task = MultiClassClassificationTask(
        encoder,
        num_classes=clouds.num_classes,
        hidden_dim=config.head_hidden_dim,
        num_blocks=config.head_blocks,
        rng=rng,
    )

    opt_cfg = config.optimizer
    world = config.world_size
    target_lr = scale_lr_for_ddp(opt_cfg.base_lr, world)

    strategy = SingleProcessStrategy() if world == 1 else DDPStrategy(world)
    optimizer = AdamW(
        task.parameters(),
        lr=target_lr,
        eps=opt_cfg.eps,
        weight_decay=opt_cfg.weight_decay,
        update_clip=opt_cfg.update_clip,
    )
    scheduler = WarmupExponential(
        optimizer,
        warmup_epochs=opt_cfg.warmup_epochs,
        gamma=opt_cfg.gamma,
        target_lr=target_lr,
    )
    events = EventLog(SimClock()) if config.stability_guard else None
    guard = StabilityGuard(events=events) if config.stability_guard else None

    spikes = SpikeDetector(monitor="ce")
    throughput = ThroughputMeter()
    lr_monitor = LRMonitor()
    callbacks = [spikes, throughput, lr_monitor]
    observer: Optional[Observer] = None
    if config.profile or config.trace_out is not None:
        observer = Observer(profile_ops=config.profile)
        callbacks.append(observer.reporter(every_n_steps=25))
    trainer = Trainer(
        TrainerConfig(
            max_epochs=config.max_epochs,
            max_steps=config.max_steps,
            val_every_n_steps=config.val_every_n_steps,
            grad_clip_norm=opt_cfg.grad_clip_norm,
            detect_anomaly=config.detect_anomaly,
            log_every_n_steps=5,
        ),
        strategy=strategy,
        callbacks=callbacks,
        stability=guard,
        observer=observer,
    )
    with observer.profile() if observer is not None else contextlib.nullcontext():
        history = trainer.fit(task, train_loader, val_loader, optimizer, scheduler)
    if observer is not None:
        observer.finalize(strategy=strategy)
        if config.trace_out is not None:
            observer.export_chrome_trace(config.trace_out)
    return PretrainResult(
        task=task,
        history=history,
        spikes=spikes,
        throughput=throughput,
        lr_trace=lr_monitor.trace,
        config=config,
        events=events,
        guard=guard,
        observer=observer,
    )


def transfer_pretrain_recipe() -> PretrainConfig:
    """The pretraining recipe behind every downstream experiment.

    CPU-scale stand-in for the paper's 20-epoch, 2M-sample run: all 32
    point groups, seed shells widened to interatomic scale (1.5-4.0 A) so
    the geometry filters see materials-like distances, single-worker
    optimization for clean convergence (the scale-out *dynamics* are
    studied separately in the Fig. 3/6 benches).
    """
    return PretrainConfig(
        encoder=EncoderConfig(hidden_dim=32, num_layers=3, position_dim=12),
        optimizer=OptimizerConfig(
            base_lr=3e-3, warmup_epochs=3, gamma=0.97, weight_decay=1e-4
        ),
        group_names=None,
        train_samples=768,
        val_samples=128,
        world_size=1,
        batch_per_worker=16,
        max_epochs=15,
        head_hidden_dim=32,
        head_blocks=2,
        seed=7,
        radius_range=(1.5, 4.0),
        max_points=24,
    )


#: Default home of the pretrained-encoder cache: ``.cache/`` at the repo root.
_CACHE_DIR = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", ".cache")
)


def cached_pretrained_encoder(
    config: Optional[PretrainConfig] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, np.ndarray]:
    """Encoder state from the shared pretraining run, cached on disk.

    Downstream benches all fine-tune from the *same* pretrained model, as
    the paper does.  The file is ``<cache_dir>/pretrained_<key>.npz``,
    where the key is the first 16 hex digits of a sha256 over the
    canonical JSON of the whole recipe (``dataclasses.asdict``): any
    changed field names a new file and retrains.  It is written with
    :func:`~repro.training.write_archive`; a corrupt file raises
    :class:`~repro.training.CheckpointIntegrityError` naming its path and
    is never retrained over.
    """
    config = config or transfer_pretrain_recipe()
    recipe = json.dumps(asdict(config), sort_keys=True, separators=(",", ":"))
    key = hashlib.sha256(recipe.encode("utf-8")).hexdigest()[:16]
    directory = _CACHE_DIR if cache_dir is None else cache_dir
    path = os.path.join(directory, f"pretrained_{key}.npz")
    if os.path.exists(path):
        return read_archive(path)
    state = pretrain_symmetry(config).task.encoder_state()
    write_archive(path, state)
    return state


# --------------------------------------------------------------------------- #
# Single-task fine-tuning (Sec. 5.4, Fig. 5)
# --------------------------------------------------------------------------- #
@dataclass
class FinetuneResult:
    """A fine-tuning run: trained task plus its validation-MAE curve."""

    task: ScalarRegressionTask
    history: History
    curve_mae: List[float] = field(default_factory=list)
    config: Optional[FinetuneConfig] = None

    @property
    def final_mae(self) -> float:
        return self.curve_mae[-1]

    @property
    def best_mae(self) -> float:
        return min(self.curve_mae)

    def mae_at_fraction(self, fraction: float) -> float:
        """Validation MAE after ``fraction`` of training (early-stopping view)."""
        idx = min(int(len(self.curve_mae) * fraction), len(self.curve_mae) - 1)
        return self.curve_mae[idx]


def train_property(
    config: FinetuneConfig,
    pretrained_state: Optional[Dict[str, np.ndarray]] = None,
) -> FinetuneResult:
    """Single-property regression on any registered materials dataset.

    ``config.dataset`` selects the dataset (DATASET_REGISTRY name) and
    ``config.target`` the scalar label — the Table-1 bench sweeps both
    across encoders.  Only the encoder initialization (and, per the paper's
    recipe, the 10x smaller fine-tuning learning rate) differs between the
    pretrained and scratch arms; data order, head init and everything else
    share the same seed.
    """
    rng = np.random.default_rng(config.seed)
    full = build_dataset(
        config.dataset,
        num_samples=config.train_samples + config.val_samples,
        seed=config.seed,
    ).materialize()
    full = transform_once(full, StructureToGraph(cutoff=MATERIALS_CUTOFF))
    train_ds, val_ds = train_val_split(
        full,
        val_fraction=config.val_samples / (config.train_samples + config.val_samples),
        rng=np.random.default_rng((config.seed, 55)),
    )
    normalizer = TargetNormalizer([config.target]).fit(
        train_ds[i] for i in range(len(train_ds))
    )

    encoder = build_encoder_from_config(config.encoder, rng=rng)
    task = ScalarRegressionTask(
        encoder,
        target=config.target,
        hidden_dim=config.head_hidden_dim,
        num_blocks=config.head_blocks,
        normalizer=normalizer,
        rng=rng,
    )
    history = _finetune(config, task, train_ds, val_ds, pretrained_state)
    _, curve = history.series("val", f"{config.target}_mae")
    return FinetuneResult(task=task, history=history, curve_mae=curve, config=config)


# --------------------------------------------------------------------------- #
# Multi-task, multi-dataset fine-tuning (Sec. 5.4, Table 1, Fig. 7)
# --------------------------------------------------------------------------- #
#: The five Table-1 objectives.
TABLE1_SPECS = [
    TaskSpec("band_gap", "band_gap", "regression", dataset="materials_project"),
    TaskSpec("fermi", "fermi_energy", "regression", dataset="materials_project"),
    TaskSpec("mp_eform", "formation_energy", "regression", dataset="materials_project"),
    TaskSpec("stability", "is_stable", "binary", dataset="materials_project"),
    TaskSpec("cmd_eform", "formation_energy", "regression", dataset="carolina"),
]

#: Table-1 metric keys in paper column order.
TABLE1_METRICS = [
    "band_gap_mae",
    "fermi_mae",
    "mp_eform_mae",
    "stability_bce",
    "cmd_eform_mae",
]


@dataclass
class MultiTaskResult:
    """A multi-task run: trained module, history, final Table-1 metrics."""

    task: MultiTaskModule
    history: History
    final_metrics: Dict[str, float]
    config: Optional[MultiTaskConfig] = None


def train_multitask(
    config: MultiTaskConfig,
    pretrained_state: Optional[Dict[str, np.ndarray]] = None,
) -> MultiTaskResult:
    """Joint training over MP {gap, zeta, E_form, stability} + CMD {E_form}."""
    rng = np.random.default_rng(config.seed)
    transform = StructureToGraph(cutoff=MATERIALS_CUTOFF)
    mp = transform_once(
        MaterialsProjectSurrogate(config.mp_samples, seed=config.seed).materialize(),
        transform,
    )
    cmd = transform_once(
        CarolinaSurrogate(config.carolina_samples, seed=config.seed + 1).materialize(),
        transform,
    )
    # A quarter of each dataset validates.
    mp_train, mp_val = train_val_split(mp, 0.25, np.random.default_rng((config.seed, 56)))
    cmd_train, cmd_val = train_val_split(cmd, 0.25, np.random.default_rng((config.seed, 57)))
    train_ds = ConcatDataset([mp_train, cmd_train])
    val_ds = ConcatDataset([mp_val, cmd_val])

    encoder = build_encoder_from_config(config.encoder, rng=rng)
    task = MultiTaskModule(
        encoder,
        specs=TABLE1_SPECS,
        hidden_dim=config.head_hidden_dim,
        num_blocks=config.head_blocks,
        rng=rng,
    )
    history = _finetune(config, task, train_ds, val_ds, pretrained_state)
    final = {}
    for key in TABLE1_METRICS + ["stability_acc"]:
        value = history.last("val", key)
        if value is not None:
            final[key] = value
    return MultiTaskResult(task=task, history=history, final_metrics=final, config=config)


# --------------------------------------------------------------------------- #
# Dataset exploration (Sec. 5.3, Fig. 4)
# --------------------------------------------------------------------------- #
@dataclass
class ExplorationResult:
    """Fig.-4 artifacts: embeddings, projection, and cluster metrics."""

    names: List[str]
    embeddings: np.ndarray
    labels: np.ndarray
    projection: np.ndarray
    overlap: np.ndarray
    silhouettes: Dict[int, float]
    spreads: Dict[int, float]

    def by_name(self, table: Dict[int, float]) -> Dict[str, float]:
        return {self.names[k]: v for k, v in table.items()}


def explore_datasets(
    encoder,
    samples_per_dataset: int = 40,
    seed: int = 17,
    umap_epochs: int = 120,
) -> ExplorationResult:
    """Embed all five datasets, project with UMAP-lite, quantify Fig. 4.

    UMAP runs at the paper's ``min_dist`` of 0.05; 15 neighbours suit the
    (much smaller) per-dataset sample counts used on CPU.
    """
    # The only user of UMAP and the cluster metrics, which load scipy.
    from repro.analysis import (
        UMAPLite,
        cluster_spread,
        embed_datasets,
        neighbor_overlap_matrix,
        silhouette_by_label,
    )

    datasets = [
        OC20Surrogate(samples_per_dataset, seed=seed),
        OC22Surrogate(samples_per_dataset, seed=seed + 1),
        MaterialsProjectSurrogate(samples_per_dataset, seed=seed + 2),
        CarolinaSurrogate(samples_per_dataset, seed=seed + 3),
        LiPSSurrogate(samples_per_dataset, seed=seed + 4),
    ]
    transform = StructureToGraph(cutoff=MATERIALS_CUTOFF)
    embeddings, labels, names = embed_datasets(
        encoder, datasets, transform, batch_size=16
    )
    umap = UMAPLite(
        n_neighbors=15,
        min_dist=0.05,
        n_epochs=umap_epochs,
        seed=seed,
    )
    projection = umap.fit_transform(embeddings)
    return ExplorationResult(
        names=names,
        embeddings=embeddings,
        labels=labels,
        projection=projection,
        overlap=neighbor_overlap_matrix(projection, labels),
        silhouettes=silhouette_by_label(projection, labels),
        spreads=cluster_spread(projection, labels),
    )

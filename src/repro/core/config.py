"""Experiment configuration dataclasses.

Paper values are noted next to each field; CPU-scale defaults are chosen so
the full benchmark suite runs on one core in minutes.  Benches that need
the paper's exact settings override explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence


@dataclass
class EncoderConfig:
    """E(n)-GNN size.  Paper: hidden 256, position 64, 3 layers."""

    name: str = "egnn"
    hidden_dim: int = 48
    num_layers: int = 3
    position_dim: int = 16
    num_species: int = 100

    def __post_init__(self):
        # Every size is a layer width, a depth or a table length: 0 would
        # divide by zero at build time or build a model of nothing.
        for name in ("hidden_dim", "num_layers", "position_dim", "num_species"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"EncoderConfig.{name} must be >= 1, got {value}")

    def build_kwargs(self) -> dict:
        kwargs = {
            "hidden_dim": self.hidden_dim,
            "num_layers": self.num_layers,
            "num_species": self.num_species,
        }
        # Only the E(n)-GNN carries an equivariant coordinate channel;
        # SchNet and GAANet reject the kwarg.
        if self.name == "egnn":
            kwargs["position_dim"] = self.position_dim
        return kwargs


@dataclass
class OptimizerConfig:
    """AdamW settings.  Paper: default betas (AdamW's own), eta_base 1e-3
    or 1e-5."""

    base_lr: float = 1e-3
    weight_decay: float = 1e-2
    eps: float = 1e-8
    warmup_epochs: int = 8
    gamma: float = 0.8
    grad_clip_norm: Optional[float] = None
    #: StableAdamW-style RMS update clipping (see repro.optim.Adam).
    #: ``update_clip=0.1`` is the Fig. 3 remedy (DESIGN.md §8).
    update_clip: Optional[float] = None


@dataclass
class PretrainConfig:
    """Symmetry pretraining (Sec. 5.2).

    Paper: 2M samples, N up to 512, B_eff up to 16384, 20 epochs.  The
    defaults here are the CPU-scale equivalents that preserve the dynamics.
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    group_names: Optional[Sequence[str]] = None  # None = all 32 groups
    train_samples: int = 512
    val_samples: int = 128
    max_points: int = 32
    #: Shell radii for seed particles.  The transfer recipe widens this to
    #: interatomic scale (1.5-4.0 A) so the pretrained geometry filters see
    #: the same distance distribution materials data produces.
    radius_range: tuple = (0.8, 2.2)
    world_size: int = 16
    batch_per_worker: int = 2
    max_epochs: int = 20
    max_steps: Optional[int] = None
    val_every_n_steps: Optional[int] = None
    head_hidden_dim: int = 48
    head_blocks: int = 3
    seed: int = 7
    #: Attach the loss-spike guard (skip the step, halve the LR, re-warm;
    #: repro.stability).
    stability_guard: bool = False
    #: Run training under ``repro.autograd.detect_anomaly`` so the first
    #: non-finite tape value raises, naming its creating op (slower).
    detect_anomaly: bool = False
    #: Attach the observability layer (trace spans + metrics registry) and,
    #: additionally, the per-op autograd profiler.  ``profile`` implies
    #: spans; ``trace_out`` writes the Chrome-trace JSON after the run.
    profile: bool = False
    trace_out: Optional[str] = None

    @property
    def effective_batch(self) -> int:
        return self.world_size * self.batch_per_worker


@dataclass
class FinetuneConfig:
    """Single-task fine-tuning (Fig. 5: Materials Project band gap)."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(base_lr=1e-3))
    #: Registered dataset name (repro.datasets.DATASET_REGISTRY) — the
    #: Table-1 bench sweeps this over materials_project / carolina / lips /
    #: oc20 while the Fig. 5 default stays Materials Project.
    dataset: str = "materials_project"
    target: str = "band_gap"
    train_samples: int = 256
    val_samples: int = 64
    batch_size: int = 16
    max_epochs: int = 30
    #: Simulated DDP worker count: the learning rate is scaled by it (Goyal
    #: et al.), matching the paper's distributed fine-tuning.  Execution is
    #: single-process — sharded gradient averaging is bit-identical.
    world_size: int = 16
    head_hidden_dim: int = 48
    head_blocks: int = 3
    seed: int = 11


@dataclass
class MultiTaskConfig:
    """Multi-task multi-dataset fine-tuning (Table 1 / Fig. 7)."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(base_lr=1e-3))
    mp_samples: int = 192
    carolina_samples: int = 96
    batch_size: int = 16
    max_epochs: int = 30
    #: See FinetuneConfig.world_size.
    world_size: int = 16
    head_hidden_dim: int = 48
    head_blocks: int = 6  # Appendix A: six blocks in the multi-task setting
    seed: int = 13

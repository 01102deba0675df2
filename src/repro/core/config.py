"""Experiment configuration dataclasses.

Paper values are noted next to each field; CPU-scale defaults are chosen so
the full benchmark suite runs on one core in minutes.  Benches that need
the paper's exact settings override explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.domains import Knobs, knob


@dataclass
class EncoderConfig(Knobs):
    """E(n)-GNN size.  Paper: hidden 256, position 64, 3 layers."""

    name: str = "egnn"
    # Every size is a layer width, a depth or a table length: 0 would
    # divide by zero at build time or build a model of nothing.
    hidden_dim: int = knob(48, ge=1)
    num_layers: int = knob(3, ge=1)
    position_dim: int = knob(16, ge=1)
    num_species: int = knob(100, ge=1)

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
class OptimizerConfig(Knobs):
    """AdamW settings.  Paper: default betas (AdamW's own), eta_base 1e-3
    or 1e-5."""

    base_lr: float = knob(1e-3, gt=0, lt=math.inf)
    weight_decay: float = knob(1e-2, ge=0, lt=math.inf)
    eps: float = knob(1e-8, gt=0, lt=math.inf)
    warmup_epochs: int = knob(8, ge=1)
    gamma: float = knob(0.8, gt=0, le=1)
    grad_clip_norm: Optional[float] = knob(None, gt=0)
    #: StableAdamW-style RMS update clipping (see repro.optim.Adam).
    #: ``update_clip=0.1`` is the Fig. 3 remedy (DESIGN.md §8).
    update_clip: Optional[float] = knob(None, gt=0)


@dataclass
class PretrainConfig(Knobs):
    """Symmetry pretraining (Sec. 5.2).

    Paper: 2M samples, N up to 512, B_eff up to 16384, 20 epochs.  The
    defaults here are the CPU-scale equivalents that preserve the dynamics.
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    group_names: Optional[Sequence[str]] = None  # None = all 32 groups
    train_samples: int = knob(512, ge=1)
    val_samples: int = knob(128, ge=1)
    max_points: int = knob(32, ge=1)
    #: Shell radii for seed particles.  The transfer recipe widens this to
    #: interatomic scale (1.5-4.0 A) so the pretrained geometry filters see
    #: the same distance distribution materials data produces.
    radius_range: tuple = (0.8, 2.2)
    world_size: int = knob(16, ge=1)
    batch_per_worker: int = knob(2, ge=1)
    max_epochs: int = knob(20, ge=1)
    max_steps: Optional[int] = knob(None, ge=1)
    val_every_n_steps: Optional[int] = knob(None, ge=1)
    head_hidden_dim: int = knob(48, ge=1)
    head_blocks: int = knob(3, ge=1)
    seed: int = knob(7, ge=0)
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
class FinetuneConfig(Knobs):
    """Single-task fine-tuning (Fig. 5: Materials Project band gap)."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(base_lr=1e-3))
    #: Registered dataset name (repro.datasets.DATASET_REGISTRY) — the
    #: Table-1 bench sweeps this over materials_project / carolina / lips /
    #: oc20 while the Fig. 5 default stays Materials Project.
    dataset: str = "materials_project"
    target: str = "band_gap"
    train_samples: int = knob(256, ge=1)
    val_samples: int = knob(64, ge=1)
    batch_size: int = knob(16, ge=1)
    max_epochs: int = knob(30, ge=1)
    #: Simulated DDP worker count: the learning rate is scaled by it (Goyal
    #: et al.), matching the paper's distributed fine-tuning.  Execution is
    #: single-process — sharded gradient averaging is bit-identical.
    world_size: int = knob(16, ge=1)
    head_hidden_dim: int = knob(48, ge=1)
    head_blocks: int = knob(3, ge=1)
    seed: int = knob(11, ge=0)


@dataclass
class MultiTaskConfig(Knobs):
    """Multi-task multi-dataset fine-tuning (Table 1 / Fig. 7)."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=lambda: OptimizerConfig(base_lr=1e-3))
    # A quarter of each dataset validates (at least one sample), and each
    # split needs a training sample too.
    mp_samples: int = knob(192, ge=2)
    carolina_samples: int = knob(96, ge=2)
    batch_size: int = knob(16, ge=1)
    max_epochs: int = knob(30, ge=1)
    #: See FinetuneConfig.world_size.
    world_size: int = knob(16, ge=1)
    head_hidden_dim: int = knob(48, ge=1)
    head_blocks: int = knob(6, ge=1)  # Appendix A: six blocks in the multi-task setting
    seed: int = knob(13, ge=0)

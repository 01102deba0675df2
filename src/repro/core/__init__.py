"""The toolkit composition layer (the paper's Fig. 1).

``repro.core`` wires datasets, transforms, tasks, strategies and the
trainer into the experiment workflows the paper runs: symmetry pretraining
(Sec. 5.2), dataset exploration (Sec. 5.3), and single-/multi-task
fine-tuning (Sec. 5.4).  Benches and examples call these functions instead
of re-plumbing the pipeline.
"""

from repro.core.config import (
    EncoderConfig,
    OptimizerConfig,
    PretrainConfig,
    FinetuneConfig,
    MultiTaskConfig,
)
from repro.core.pipeline import (
    make_train_loader,
    make_val_loader,
    transform_once,
    build_encoder_from_config,
)
from repro.core.workflows import (
    PretrainResult,
    pretrain_symmetry,
    FinetuneResult,
    train_property,
    MultiTaskResult,
    train_multitask,
    explore_datasets,
    ExplorationResult,
    cached_pretrained_encoder,
    transfer_pretrain_recipe,
)

__all__ = [
    "EncoderConfig",
    "OptimizerConfig",
    "PretrainConfig",
    "FinetuneConfig",
    "MultiTaskConfig",
    "make_train_loader",
    "make_val_loader",
    "transform_once",
    "build_encoder_from_config",
    "PretrainResult",
    "pretrain_symmetry",
    "FinetuneResult",
    "train_property",
    "MultiTaskResult",
    "train_multitask",
    "explore_datasets",
    "ExplorationResult",
    "cached_pretrained_encoder",
    "transfer_pretrain_recipe",
]

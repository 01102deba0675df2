"""Training loop: the toolkit's Lightning-replacement.

``Trainer`` owns the epoch/step loop, validation cadence, callback
dispatch, and delegates batch execution to a distributed
:class:`repro.distributed.Strategy` — the same separation of concerns
PyTorch Lightning gives the original toolkit.
"""

from repro.training.history import History
from repro.training.metrics import accuracy
from repro.training.callbacks import (
    Callback,
    ModelCheckpoint,
    LRMonitor,
    ThroughputMeter,
    SpikeDetector,
)
from repro.training.trainer import Trainer, TrainerConfig
from repro.training.finetune import finetune_lr
from repro.training.checkpoint_io import (
    CheckpointIntegrityError,
    read_archive,
    write_archive,
)

__all__ = [
    "History",
    "accuracy",
    "Callback",
    "ModelCheckpoint",
    "LRMonitor",
    "ThroughputMeter",
    "SpikeDetector",
    "Trainer",
    "TrainerConfig",
    "finetune_lr",
    "CheckpointIntegrityError",
    "read_archive",
    "write_archive",
]

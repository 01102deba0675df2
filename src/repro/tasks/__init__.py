"""Tasks: learning objectives pairing an encoder with output heads (Fig. 1).

A task is this reproduction's analogue of a LightningModule: it owns the
encoder and one or more output heads, defines ``training_step`` (returns a
loss tensor) and ``validation_step`` (returns metric accumulators), and can
be composed — :class:`MultiTaskModule` trains one shared encoder against
any number of per-dataset, per-target heads simultaneously, the setting the
paper identifies as where pretraining pays off.
"""

from repro.tasks.base import Task, ValResult
from repro.tasks.regression import ScalarRegressionTask
from repro.tasks.classification import MultiClassClassificationTask
from repro.tasks.forces import EnergyForceTask
from repro.tasks.multitask import TaskSpec, MultiTaskModule

__all__ = [
    "Task",
    "ValResult",
    "ScalarRegressionTask",
    "MultiClassClassificationTask",
    "EnergyForceTask",
    "TaskSpec",
    "MultiTaskModule",
]

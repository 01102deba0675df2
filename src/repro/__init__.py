"""repro — a from-scratch reproduction of the Open MatSci ML Toolkit (SC 2023).

The package is layered bottom-up:

* :mod:`repro.autograd`, :mod:`repro.nn`, :mod:`repro.optim` — the deep
  learning substrate (PyTorch replacement).
* :mod:`repro.distributed` — simulated MPI collectives, DDP strategy, and the
  cluster performance model behind the scale-out study.
* :mod:`repro.geometry`, :mod:`repro.datasets`, :mod:`repro.data` — symmetry
  operations, synthetic/surrogate materials datasets, loaders & transforms.
* :mod:`repro.models`, :mod:`repro.tasks`, :mod:`repro.training` — encoders
  (E(n)-GNN, geometric-algebra attention), task heads, and the Lightning-like
  trainer.
* :mod:`repro.analysis` — UMAP-lite and dataset-exploration tooling.
* :mod:`repro.core` — the toolkit composition layer (Fig. 1 of the paper):
  registry, pipeline, pretrain/fine-tune workflows.
"""

__version__ = "1.0.0"

from repro.utils import seed_everything

__all__ = ["seed_everything", "__version__"]

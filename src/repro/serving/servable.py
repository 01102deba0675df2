"""Servable model archives and the registry that loads them.

A *servable* is a directory pairing a CRC-checked weight archive
(``model.npz``, written by :func:`repro.training.write_archive`) with a
``servable.json`` spec describing how to rebuild the module around those
weights: encoder family and geometry, head shape, the regression target,
the graph-construction cutoff, and the target-normalizer statistics the
training run fitted.  Everything needed to serve a prediction travels in
the archive — the serving process never needs the training config.

:class:`Servable` is the loaded form: an eval-mode
:class:`~repro.tasks.regression.ScalarRegressionTask` plus the spec.  Its
``predict`` runs under ``no_grad`` *and*
:func:`~repro.autograd.batch_invariant_kernels`, which is what makes a
sample's prediction bit-identical whether it is served alone or coalesced
into a micro-batch (see DESIGN.md §12), and returns values in physical
units (the spec's normalizer statistics undo the z-scoring).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import batch_invariant_kernels, batch_invariant_matmul_mode, no_grad
from repro.core.config import EncoderConfig
from repro.data.batching import collate_graphs
from repro.data.structures import GraphBatch, GraphSample
from repro.data.transforms import StructureToGraph
from repro.models.registry import build_encoder
from repro.tasks import ScalarRegressionTask
from repro.training.checkpoint_io import (
    CheckpointIntegrityError,
    read_archive,
    verify_archive,
    write_archive,
)

SPEC_FILENAME = "servable.json"
WEIGHTS_FILENAME = "model.npz"
SPEC_VERSION = 1


@dataclass
class ServableSpec:
    """Everything needed to rebuild a property-prediction model for serving."""

    target: str
    encoder_name: str = "egnn"
    hidden_dim: int = 48
    num_layers: int = 3
    position_dim: int = 16
    num_species: int = 100
    head_hidden_dim: int = 48
    head_blocks: int = 3
    dropout: float = 0.2
    cutoff: float = 4.5
    #: ``(mean, std)`` fitted by training; ``None`` serves raw model output.
    normalizer: Optional[List[float]] = None
    version: int = SPEC_VERSION
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            name=self.encoder_name,
            hidden_dim=self.hidden_dim,
            num_layers=self.num_layers,
            position_dim=self.position_dim,
            num_species=self.num_species,
        )

    def build_task(self) -> ScalarRegressionTask:
        """Instantiate the module skeleton the weight archive restores into.

        The init RNG is fixed: every draw is overwritten by the checkpoint,
        but a deterministic skeleton keeps construction reproducible even
        if a future module samples shapes from its generator.
        """
        cfg = self.encoder_config()
        encoder = build_encoder(
            self.encoder_name,
            rng=np.random.default_rng(0),
            **cfg.build_kwargs(),
        )
        task = ScalarRegressionTask(
            encoder,
            target=self.target,
            hidden_dim=self.head_hidden_dim,
            num_blocks=self.head_blocks,
            dropout=self.dropout,
            rng=np.random.default_rng(1),
        )
        task.eval()
        return task

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServableSpec":
        payload = json.loads(text)
        version = payload.get("version", 0)
        if version != SPEC_VERSION:
            raise CheckpointIntegrityError(
                f"servable spec version {version} != supported {SPEC_VERSION}"
            )
        return cls(**payload)


class Servable:
    """A loaded model ready to serve: eval-mode task + spec."""

    def __init__(self, task: ScalarRegressionTask, spec: ServableSpec):
        self.task = task.eval()
        self.spec = spec
        self._transform = StructureToGraph(cutoff=spec.cutoff)

    # ------------------------------------------------------------------ #
    def prepare(self, sample) -> GraphSample:
        """Raw structure sample -> the graph representation the model eats."""
        return self._transform(sample)

    def predict(self, samples: Sequence[GraphSample]) -> np.ndarray:
        """Physical-unit predictions for a batch of graph samples.

        Runs without gradients and under batch-invariant kernels: the value
        returned for each sample does not depend on which other samples
        share the batch, bit for bit.  This is the contract the serving
        bit-identity suite pins (``tests/test_serving_determinism.py``).
        """
        return self.predict_batch(collate_graphs(list(samples)))

    def predict_batch(self, batch: GraphBatch) -> np.ndarray:
        with no_grad(), batch_invariant_kernels():
            raw = np.atleast_1d(self.task.predict(batch).data)
        if self.spec.normalizer is not None:
            mean, std = self.spec.normalizer
            raw = raw * std + mean
        return raw

    def predict_one(self, sample: GraphSample) -> float:
        return float(self.predict([sample])[0])


def matmul_mode_line(metrics) -> str:
    """The ``batch-invariant matmul: ...`` line of the serve/screen summaries.

    Call it after the run (the self-tests happen on first use).  A fallback
    to einsum is also counted on ``metrics`` as
    ``kernels.batch_invariant.fallback``, so it shows in the metrics table
    and any exported snapshot, not only in the text.
    """
    mode = batch_invariant_matmul_mode()
    counter = metrics.counter("kernels.batch_invariant.fallback")
    if mode.startswith("einsum") and not counter.value:
        counter.inc()
    return f"batch-invariant matmul: {mode}"


# --------------------------------------------------------------------------- #
# Disk format
# --------------------------------------------------------------------------- #
def save_servable(task: ScalarRegressionTask, spec: ServableSpec, directory: str) -> str:
    """Write ``model.npz`` (CRC-checked) + ``servable.json`` under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    write_archive(os.path.join(directory, WEIGHTS_FILENAME), task.state_dict())
    spec_path = os.path.join(directory, SPEC_FILENAME)
    tmp_path = spec_path + ".tmp"
    with open(tmp_path, "w") as fh:
        fh.write(spec.to_json())
        fh.write("\n")
    os.replace(tmp_path, spec_path)
    return directory


def load_servable(directory: str) -> Servable:
    """Rebuild and restore a servable written by :func:`save_servable`.

    Raises :class:`CheckpointIntegrityError` when the spec is unreadable or
    the weight archive fails its CRC — a serving process must refuse to
    come up on corrupted weights rather than quietly mis-predict.
    """
    spec_path = os.path.join(directory, SPEC_FILENAME)
    try:
        with open(spec_path) as fh:
            spec = ServableSpec.from_json(fh.read())
    except (OSError, json.JSONDecodeError, TypeError) as exc:
        raise CheckpointIntegrityError(
            f"servable spec {spec_path!r} is unreadable: {exc}"
        ) from exc
    task = spec.build_task()
    task.load_state_dict(read_archive(os.path.join(directory, WEIGHTS_FILENAME)))
    return Servable(task, spec)


class ModelRegistry:
    """Name -> servable-directory mapping with lazy, cached loading.

    The registry root holds one subdirectory per model name; ``load``
    caches the rebuilt :class:`Servable` so a server process pays the
    checkpoint restore once per model.
    """

    def __init__(self, root: str):
        self.root = root
        self._cache: Dict[str, Servable] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def names(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry
            for entry in os.listdir(self.root)
            if os.path.isfile(os.path.join(self.root, entry, SPEC_FILENAME))
        )

    def save(self, name: str, task: ScalarRegressionTask, spec: ServableSpec) -> str:
        directory = save_servable(task, spec, self.path(name))
        self._cache.pop(name, None)
        return directory

    def load(self, name: str) -> Servable:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        if name not in self.names():
            raise KeyError(
                f"unknown model {name!r} in registry {self.root!r}; "
                f"available: {self.names()}"
            )
        servable = load_servable(self.path(name))
        self._cache[name] = servable
        return servable

    def verify(self) -> Dict[str, Dict[str, object]]:
        """Integrity-check every servable; never raises.

        For each registered name, parses the spec and CRC-verifies the
        weight archive (:func:`~repro.training.checkpoint_io.verify_archive`
        — the same check loading performs, without building the module).
        Returns ``{name: {"ok": bool, ...}}`` with array/byte counts on
        success and the failure reason otherwise; ``repro registry
        verify`` prints exactly this.
        """
        results: Dict[str, Dict[str, object]] = {}
        for name in self.names():
            directory = self.path(name)
            try:
                with open(os.path.join(directory, SPEC_FILENAME)) as fh:
                    spec = ServableSpec.from_json(fh.read())
                info = verify_archive(os.path.join(directory, WEIGHTS_FILENAME))
            except (CheckpointIntegrityError, OSError, json.JSONDecodeError, TypeError) as exc:
                results[name] = {"ok": False, "error": str(exc)}
                continue
            results[name] = {
                "ok": True,
                "target": spec.target,
                "encoder": spec.encoder_name,
                "arrays": info["arrays"],
                "bytes": info["bytes"],
            }
        return results

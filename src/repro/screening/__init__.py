"""High-throughput screening: generate -> predict -> rank (DESIGN.md §15).

The screening workload turns a trained servable into a discovery engine:
a deterministic element-swap table (``swaps.py``) proposes chemically
plausible mutations of known crystals (``generator.py``), an optional
force-field relaxer settles them (``relax.py``), batched predictions
under batch-invariant kernels score them, and a streaming bounded-memory
top-k ranker with a total (score, fingerprint, index) order keeps the
winners (``ranker.py``).  ``run_screening`` (``pipeline.py``) wires it
together; batch size and shard count change throughput only — the ranked
result is bit-identical across any execution layout.
"""

from repro.screening.generator import (
    Candidate,
    CandidateGenerator,
    formula,
    structure_fingerprint,
)
from repro.screening.pipeline import (
    ScreenConfig,
    ScreenResult,
    run_screening,
    score_candidates,
)
from repro.screening.ranker import NonFiniteScoreError, RankedCandidate, TopK
from repro.screening.relax import ForceFieldRelaxer
from repro.screening.swaps import SwapTable

__all__ = [
    "Candidate",
    "CandidateGenerator",
    "ForceFieldRelaxer",
    "NonFiniteScoreError",
    "RankedCandidate",
    "ScreenConfig",
    "ScreenResult",
    "SwapTable",
    "TopK",
    "formula",
    "run_screening",
    "score_candidates",
    "structure_fingerprint",
]

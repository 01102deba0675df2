"""Figure 5 — band-gap fine-tuning: pretrained vs random initialization.

Paper observation: on the single-target Materials Project band-gap task,
the pretrained model converges to lower error *more quickly* in the early
stages ("may see benefits with early stopping algorithms with a fixed
compute budget") but then falls into a local minimum, while the model
trained from scratch converges more slowly and ends at a comparable-or-
better level.

Both arms are identical except for the encoder initialization and the
fine-tuning rule: the transplanted encoder trains at base_lr / 10 (the
paper's anti-forgetting rule, applied to the parameters that can forget —
see EXPERIMENTS.md) while everything else — data order, head init at the
same seed, warmup + exponential decay, the lr = eta_base * N DDP scaling —
is shared.  Seeds are averaged because single runs at this scale are noisy;
the asserted shape is the averaged early-phase advantage of pretraining and
the late-phase plateau/convergence pattern.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from benchmarks.common import FIG5_SEEDS, fig5_config, pretrained_state, print_header
from repro.core import train_property

#: Early-phase window (validation epochs 2..6): late enough that both heads
#: have produced non-degenerate predictions, early enough that the scratch
#: encoder has not yet learned the chemistry.
EARLY_WINDOW = slice(1, 6)


def run_fig5() -> Dict[str, List]:
    state = pretrained_state()
    scratch_runs, pretrained_runs = [], []
    for seed in FIG5_SEEDS:
        cfg = fig5_config(seed)
        scratch_runs.append(train_property(cfg))
        pretrained_runs.append(train_property(cfg, pretrained_state=state))

    def mean_curve(runs):
        length = min(len(r.curve_mae) for r in runs)
        return np.mean([r.curve_mae[:length] for r in runs], axis=0)

    scratch_curve = mean_curve(scratch_runs)
    pretrained_curve = mean_curve(pretrained_runs)

    print_header(
        f"Figure 5 — band-gap validation MAE (eV), mean over seeds {FIG5_SEEDS}"
    )
    print("epoch    scratch  pretrained")
    early_epochs = set(range(EARLY_WINDOW.start + 1, EARLY_WINDOW.stop + 1))
    for i, (s, p) in enumerate(zip(scratch_curve, pretrained_curve), start=1):
        marker = "  <- early window" if i in early_epochs else ""
        print(f"{i:5d} {s:10.3f} {p:11.3f}{marker}")
    print(
        f"\nearly window mean: scratch "
        f"{scratch_curve[EARLY_WINDOW].mean():.3f} vs pretrained "
        f"{pretrained_curve[EARLY_WINDOW].mean():.3f}"
    )
    print(
        f"final: scratch {scratch_curve[-1]:.3f} vs pretrained {pretrained_curve[-1]:.3f}"
    )
    print(
        "paper shape: pretrained converges faster early, then plateaus "
        "(local minimum); scratch slower but competitive-or-better by the end"
    )
    return {
        "scratch": scratch_curve,
        "pretrained": pretrained_curve,
        "scratch_runs": scratch_runs,
        "pretrained_runs": pretrained_runs,
    }


class TestFig5BandGap:
    def test_fig5_pretrained_vs_scratch(self, benchmark):
        out = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
        scratch, pretrained = out["scratch"], out["pretrained"]
        n = len(scratch)

        # Early-phase advantage of pretraining (the paper's headline for
        # this figure): averaged over seeds, the pretrained arm sits below
        # the scratch arm through the early window.
        assert pretrained[EARLY_WINDOW].mean() < scratch[EARLY_WINDOW].mean()

        # The pretrained arm then falls into a local minimum: its second
        # half improves only marginally over its first-half best.
        first_half_best = pretrained[: n // 2].min()
        assert pretrained[-1] > first_half_best - 0.08

        # The from-scratch model converges more slowly but to the better
        # final model — the paper's closing observation for this figure.
        assert scratch[-1] < pretrained[-1]
        assert scratch[-1] < scratch[EARLY_WINDOW].mean()

        # Both arms end convergent (no run-away divergence in the means).
        assert scratch[-1] < 1.5 * scratch.min()
        assert pretrained[-1] < 1.5 * pretrained.min()

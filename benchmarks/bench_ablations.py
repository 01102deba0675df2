"""Ablations of the design choices the paper calls out.

Three decisions from Appendix A / Sec. 4.2 are exercised head-to-head:

* **RMSNorm vs BatchNorm in the output heads** — the paper chose RMSNorm
  because BatchNorm's running statistics misbehave under the irregular
  batches of multi-task, multi-dataset training (including near-singleton
  per-head sub-batches).
* **The lr = eta_base * N scaling rule (Goyal et al.)** — without it, more
  workers mean proportionally fewer, equally-sized steps and visibly slower
  convergence per wall-clock-equivalent step budget.
* **The Fig. 3 remedy** — on the grid cells where plain Adam diverges,
  ``update_clip=0.1`` (and the loss-spike guard) end below chance, where
  raising eps does not reliably and gradient clipping does not at all.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import print_header
from repro.core import EncoderConfig, OptimizerConfig, PretrainConfig, pretrain_symmetry
from repro.data import collate_graphs
from repro.data.structures import GraphSample
from repro.models import EGNN
from repro.nn import OutputHead
from repro.autograd import Tensor

GROUPS = ["C1", "Ci", "C2v", "C4", "D2h", "Td", "Oh", "C6"]


# --------------------------------------------------------------------------- #
# RMSNorm vs BatchNorm under irregular batches
# --------------------------------------------------------------------------- #
def run_norm_ablation():
    """Train two heads on a toy regression with batch sizes from 1 to 16."""
    rng = np.random.default_rng(0)
    dim = 16
    # Toy targets: a fixed random linear map of the inputs.
    w_true = rng.normal(size=(dim,))
    from repro.optim import AdamW
    from repro.autograd import functional as F

    results = {}
    for norm in ("rmsnorm", "batchnorm"):
        head = OutputHead(
            dim, hidden_dim=16, num_blocks=2, norm=norm, dropout=0.0,
            rng=np.random.default_rng(1),
        )
        opt = AdamW(head.parameters(), lr=3e-3, weight_decay=0.0)
        data_rng = np.random.default_rng(2)
        losses = []
        for step in range(300):
            # Irregular batch sizes, exactly the multi-task failure mode:
            # a head only sees the samples that carry its target.
            b = int(data_rng.integers(1, 17))
            x = data_rng.normal(size=(b, dim))
            y = x @ w_true
            pred = head(Tensor(x)).squeeze(-1)
            loss = F.mse_loss(pred, y)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        # Evaluation-mode error on a held-out batch (this is where
        # BatchNorm's corrupted running stats bite).
        head.eval()
        x = np.random.default_rng(3).normal(size=(64, dim))
        pred = head(Tensor(x)).squeeze(-1)
        results[norm] = float(np.abs(pred.data - x @ w_true).mean())
    return results


# --------------------------------------------------------------------------- #
# lr scaling rule on/off
# --------------------------------------------------------------------------- #
def run_lr_scaling_ablation():
    """N=64 pretraining with and without the Goyal scaling rule."""
    outcomes = {}
    for scaled in (True, False):
        cfg = PretrainConfig(
            encoder=EncoderConfig(hidden_dim=24, num_layers=2, position_dim=8),
            optimizer=OptimizerConfig(base_lr=1e-4, warmup_epochs=2, gamma=0.95),
            group_names=GROUPS,
            train_samples=128,
            val_samples=64,
            max_points=16,
            world_size=64 if scaled else 1,
            batch_per_worker=1 if scaled else 64,
            max_epochs=1000,
            max_steps=16,
            val_every_n_steps=4,
            head_hidden_dim=24,
            head_blocks=2,
            seed=6,
        )
        # Same B_eff = 64 in both arms; only the lr differs (1e-4 * 64 vs
        # 1e-4 * 1), isolating the scaling rule.
        result = pretrain_symmetry(cfg)
        outcomes["scaled" if scaled else "unscaled"] = result.history.series(
            "val", "ce"
        )[1]
    return outcomes


# --------------------------------------------------------------------------- #
# Adam epsilon vs the large-batch instability (Molybog et al.)
# --------------------------------------------------------------------------- #
def run_epsilon_ablation():
    """The instability mechanism the paper cites, demonstrated directly.

    Molybog et al. attribute Adam divergence to gradients decaying to the
    order of ``eps``: the preconditioner 1/(sqrt(v)+eps) then amplifies
    noise and layer dynamics decouple.  Raising eps damps the adaptive
    preconditioner and removes the pathology; gradient clipping — the
    classic SGD mitigation — does not, because Adam's update magnitude is
    lr-bounded regardless of the raw gradient norm.
    """
    outcomes = {}
    for name, eps, clip in (
        ("eps=1e-8", 1e-8, None),
        ("eps=1e-2", 1e-2, None),
        ("eps=1e-8 + clip", 1e-8, 0.25),
    ):
        cfg = PretrainConfig(
            encoder=EncoderConfig(hidden_dim=24, num_layers=2, position_dim=8),
            optimizer=OptimizerConfig(
                base_lr=1e-3, warmup_epochs=8, gamma=0.8, eps=eps, grad_clip_norm=clip
            ),
            group_names=GROUPS,
            train_samples=128,
            val_samples=64,
            max_points=16,
            world_size=64,
            batch_per_worker=1,
            max_epochs=1000,
            max_steps=24,
            val_every_n_steps=3,
            head_hidden_dim=24,
            head_blocks=2,
            seed=4,
        )
        result = pretrain_symmetry(cfg)
        outcomes[name] = result.history.series("val", "ce")[1]
    return outcomes


# --------------------------------------------------------------------------- #
# The Fig. 3 remedy vs the large-batch divergence
# --------------------------------------------------------------------------- #
def _divergence_config(**overrides):
    """The Fig. 3-style setting where default-eps Adam reliably diverges."""
    cfg = PretrainConfig(
        encoder=EncoderConfig(hidden_dim=24, num_layers=2, position_dim=8),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=8, gamma=0.8),
        group_names=GROUPS,
        train_samples=128,
        val_samples=64,
        max_points=16,
        world_size=64,
        batch_per_worker=1,
        max_epochs=1000,
        max_steps=24,
        val_every_n_steps=3,
        head_hidden_dim=24,
        head_blocks=2,
        seed=4,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


#: The grid cells (world size N, eta_base) where plain Adam diverges: of
#: N in {16, 64} x eta_base in {5e-4, 1e-3}, only N=64, eta_base=1e-3
#: peaks above 10x chance (EXPERIMENTS.md, "Fig. 3 remedy grid").
DIVERGING_CELLS = ((64, 1e-3),)
REMEDY_SEEDS = (4, 5, 6, 7, 8)


def _remedy_arms(eta: float):
    opt = dict(base_lr=eta, warmup_epochs=8, gamma=0.8)
    return (
        ("unguarded", {"optimizer": OptimizerConfig(**opt)}),
        ("eps=1e-2", {"optimizer": OptimizerConfig(eps=1e-2, **opt)}),
        # Adam's update RMS is ~1-bounded by construction, so the clip must
        # sit well below that to bind in the eps-floor regime.
        ("update_clip=0.1", {"optimizer": OptimizerConfig(update_clip=0.1, **opt)}),
        ("guard", {"optimizer": OptimizerConfig(**opt), "stability_guard": True}),
    )


def run_remedy_ablation():
    """Max and final val CE, as multiples of chance, per diverging cell,
    arm and seed."""
    chance = np.log(len(GROUPS))
    rows = []
    for world, eta in DIVERGING_CELLS:
        for name, overrides in _remedy_arms(eta):
            for seed in REMEDY_SEEDS:
                config = _divergence_config(world_size=world, seed=seed, **overrides)
                curve = pretrain_symmetry(config).history.series("val", "ce")[1]
                rows.append({
                    "cell": (world, eta),
                    "arm": name,
                    "seed": seed,
                    "max": max(curve) / chance,
                    "final": curve[-1] / chance,
                })
    return rows


def remedy_shape(rows):
    """The Fig. 3 remedy's claims as named predicates over the seed medians
    of every diverging cell."""

    def median(arm, key):
        return {
            cell: float(np.median([r[key] for r in rows if r["arm"] == arm and r["cell"] == cell]))
            for cell in DIVERGING_CELLS
        }

    return {
        "unguarded_max_above_10x_chance": all(v > 10 for v in median("unguarded", "max").values()),
        "update_clip_final_below_chance": all(v < 1 for v in median("update_clip=0.1", "final").values()),
        "guard_final_below_chance": all(v < 1 for v in median("guard", "final").values()),
    }


class TestRemedyAblation:
    def test_update_clip_remedies_the_diverging_cells(self, benchmark):
        rows = benchmark.pedantic(run_remedy_ablation, rounds=1, iterations=1)
        print_header("Ablation — Fig. 3 remedy, val CE as multiples of chance (max / final)")
        for cell in DIVERGING_CELLS:
            print(f"  N={cell[0]}, eta_base={cell[1]:g}")
            for name, _ in _remedy_arms(cell[1]):
                shown = "  ".join(
                    f"{r['max']:6.2f} / {r['final']:4.2f}"
                    for r in rows
                    if r["arm"] == name and r["cell"] == cell
                )
                print(f"    {name:16s}: {shown}")
        shape = remedy_shape(rows)
        for claim, holds in shape.items():
            print(f"  {claim}: {holds}")
        assert all(shape.values()), shape


class TestNormAblation:
    def test_rmsnorm_survives_irregular_batches(self, benchmark):
        results = benchmark.pedantic(run_norm_ablation, rounds=1, iterations=1)
        print_header("Ablation — head normalization under irregular batches")
        for norm, err in results.items():
            print(f"  {norm:10s} eval-mode MAE: {err:.3f}")
        # The paper's stated reason for RMSNorm: reliable behaviour where
        # BatchNorm degrades.
        assert results["rmsnorm"] < results["batchnorm"]


class TestLRScalingAblation:
    def test_scaling_rule_speeds_convergence(self, benchmark):
        outcomes = benchmark.pedantic(run_lr_scaling_ablation, rounds=1, iterations=1)
        print_header("Ablation — Goyal et al. lr scaling at N=64 (same B_eff)")
        for name, curve in outcomes.items():
            print(f"  {name:9s}: " + " ".join(f"{v:.2f}" for v in curve))
        # Without scaling, the large-batch run crawls: its final CE stays
        # near chance while the scaled run makes real progress.
        assert outcomes["scaled"][-1] < outcomes["unscaled"][-1]

    def test_unscaled_large_batch_barely_moves(self, benchmark):
        outcomes = benchmark.pedantic(run_lr_scaling_ablation, rounds=1, iterations=1)
        chance = np.log(len(GROUPS))
        assert outcomes["unscaled"][-1] > 0.8 * chance


class TestEpsilonAblation:
    def test_large_eps_removes_adam_instability(self, benchmark):
        outcomes = benchmark.pedantic(run_epsilon_ablation, rounds=1, iterations=1)
        print_header("Ablation — Adam eps at N=64, eta_base=1e-3 (Molybog et al.)")
        for name, curve in outcomes.items():
            shown = " ".join(f"{v:9.2f}" if v < 1e4 else f"{v:9.1e}" for v in curve)
            print(f"  {name:16s}: {shown}")
        chance = np.log(len(GROUPS))
        # Default eps diverges (the Fig. 3 pathology) ...
        assert max(outcomes["eps=1e-8"]) > 10 * chance
        # ... while a damped preconditioner trains right through it ...
        assert max(outcomes["eps=1e-2"]) < 5 * chance
        assert outcomes["eps=1e-2"][-1] < outcomes["eps=1e-2"][0]
        # ... and gradient clipping alone does NOT rescue Adam (its update
        # is lr-bounded with or without clipping; the pathology is in the
        # preconditioner, exactly as Molybog et al. argue).
        assert max(outcomes["eps=1e-8 + clip"]) > 5 * chance

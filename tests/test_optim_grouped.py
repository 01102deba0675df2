"""MultiGroupOptimizer: per-group lr ratios under one schedule.

The groups are plain Adam: its first step moves each parameter by
``lr * sign(g)`` (bias-corrected), so a group's lr is visible in one step.
"""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import Adam, AdamW, MultiGroupOptimizer, WarmupExponential, clip_grad_norm


def make_groups():
    p_enc = Parameter(np.ones(3))
    p_head = Parameter(np.ones(2))
    enc_opt = Adam([p_enc], lr=0.01)
    head_opt = Adam([p_head], lr=0.1)
    grouped = MultiGroupOptimizer([(enc_opt, 0.1), (head_opt, 1.0)])
    return grouped, enc_opt, head_opt, p_enc, p_head


class TestMultiGroup:
    def test_base_lr_inferred_from_first_group(self):
        grouped, enc_opt, head_opt, *_ = make_groups()
        assert grouped.lr == pytest.approx(0.1)
        assert enc_opt.lr == pytest.approx(0.01)
        assert head_opt.lr == pytest.approx(0.1)

    def test_lr_setter_preserves_ratio(self):
        grouped, enc_opt, head_opt, *_ = make_groups()
        grouped.lr = 1.0
        assert enc_opt.lr == pytest.approx(0.1)
        assert head_opt.lr == pytest.approx(1.0)

    def test_scheduler_drives_both_groups(self):
        grouped, enc_opt, head_opt, *_ = make_groups()
        sched = WarmupExponential(grouped, warmup_epochs=2, gamma=0.5, target_lr=1.0)
        assert head_opt.lr == pytest.approx(0.5)  # warmup epoch 0
        assert enc_opt.lr == pytest.approx(0.05)
        sched.step()
        sched.step()
        assert head_opt.lr == pytest.approx(0.5)  # first decay epoch
        assert enc_opt.lr == pytest.approx(0.05)

    def test_step_and_zero_grad_fan_out(self):
        grouped, _, _, p_enc, p_head = make_groups()
        p_enc.grad = np.ones(3)
        p_head.grad = np.ones(2)
        grouped.step()
        assert np.allclose(p_enc.data, 1.0 - 0.01)
        assert np.allclose(p_head.data, 1.0 - 0.1)
        grouped.zero_grad()
        assert p_enc.grad is None and p_head.grad is None

    def test_grad_global_norm_combines(self):
        """Clipping spans the groups: one global norm over every member's
        parameters, one scale applied to all of them."""
        grouped, enc_opt, head_opt, p_enc, p_head = make_groups()
        p_enc.grad = np.array([3.0, 0.0, 0.0])
        p_head.grad = np.array([0.0, 4.0])
        params = [p for opt, _ in grouped.groups for p in opt.params]
        assert clip_grad_norm(params, max_norm=1.0) == pytest.approx(5.0)
        assert np.allclose(p_enc.grad, [0.6, 0.0, 0.0])
        assert np.allclose(p_head.grad, [0.0, 0.8])

    def test_update_statistics_aggregates_adam_members(self):
        """Each member keeps its own moments; the lr scale moves the
        parameters, never the moments."""
        p1, p2 = Parameter(np.ones(4)), Parameter(np.ones(4))
        grouped = MultiGroupOptimizer(
            [(AdamW([p1], lr=1e-4), 0.1), (AdamW([p2], lr=1e-3), 1.0)]
        )
        p1.grad = np.ones(4)
        p2.grad = np.ones(4)
        grouped.step()
        (a, _), (b, _) = grouped.groups
        assert grouped.step_count == a.step_count == b.step_count == 1
        assert set(a.state) == set(b.state) == {0}
        assert np.array_equal(a.state[0]["v"], b.state[0]["v"])
        assert a.state[0]["v"] is not b.state[0]["v"]
        assert p1.data[0] > p2.data[0]  # the 10x smaller step

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiGroupOptimizer([])
        p = Parameter(np.ones(1))
        with pytest.raises(ValueError):
            MultiGroupOptimizer([(Adam([p], lr=0.1), 0.0)])


class TestFinetuneOptimizerFactory:
    def test_scratch_is_plain_adamw(self, rng):
        from repro.core.config import OptimizerConfig
        from repro.core.workflows import _build_finetune_optimizer
        from repro.models import EGNN
        from repro.tasks import ScalarRegressionTask

        enc = EGNN(hidden_dim=8, num_layers=1, position_dim=4, rng=rng)
        task = ScalarRegressionTask(enc, "y", hidden_dim=8, num_blocks=1, rng=rng)
        opt = _build_finetune_optimizer(task, OptimizerConfig(), 1e-2, pretrained=False)
        assert isinstance(opt, AdamW)
        assert opt.lr == pytest.approx(1e-2)

    def test_pretrained_splits_encoder_at_tenth(self, rng):
        from repro.core.config import OptimizerConfig
        from repro.core.workflows import _build_finetune_optimizer
        from repro.models import EGNN
        from repro.tasks import ScalarRegressionTask

        enc = EGNN(hidden_dim=8, num_layers=1, position_dim=4, rng=rng)
        task = ScalarRegressionTask(enc, "y", hidden_dim=8, num_blocks=1, rng=rng)
        opt = _build_finetune_optimizer(task, OptimizerConfig(), 1e-2, pretrained=True)
        assert isinstance(opt, MultiGroupOptimizer)
        enc_opt, head_opt = opt.groups[0][0], opt.groups[1][0]
        assert enc_opt.lr == pytest.approx(1e-3)
        assert head_opt.lr == pytest.approx(1e-2)
        # Every task parameter lands in exactly one group.
        total = len(list(task.parameters()))
        assert len(enc_opt.params) + len(head_opt.params) == total

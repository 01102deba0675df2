"""Learning-rate schedules: exact values of the paper's warmup + decay.

``WarmupExponential`` is the one schedule; the per-phase classes below pin
its phases: a constant plateau (gamma = 1), the linear warmup, the gamma
decay, the decay's shape, and the switch from warmup to decay.
"""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import AdamW, WarmupExponential, scale_lr_for_ddp


def make_opt(lr=1e-3):
    return AdamW([Parameter(np.zeros(2))], lr=lr)


class TestScaleRule:
    def test_linear_scaling(self):
        assert scale_lr_for_ddp(1e-3, 512) == pytest.approx(0.512)

    def test_identity_for_one_worker(self):
        assert scale_lr_for_ddp(1e-3, 1) == pytest.approx(1e-3)

    def test_rejects_zero_world(self):
        with pytest.raises(ValueError):
            scale_lr_for_ddp(1e-3, 0)


class TestConstant:
    def test_never_changes(self):
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=1, gamma=1.0, target_lr=5e-4)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(5e-4)


class TestLinearWarmup:
    def test_ramp_values(self):
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=4, gamma=1.0, target_lr=1.0)
        values = [sched.current_lr]
        for _ in range(5):
            sched.step()
            values.append(sched.current_lr)
        assert values[:4] == pytest.approx([0.25, 0.5, 0.75, 1.0])
        assert values[4] == pytest.approx(1.0)  # clamps after warmup

    def test_rejects_zero_warmup(self):
        with pytest.raises(ValueError):
            WarmupExponential(make_opt(), warmup_epochs=0)


class TestExponentialDecay:
    def test_gamma_powers(self):
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=1, gamma=0.8, target_lr=1.0)
        assert sched.current_lr == pytest.approx(1.0)
        sched.step()
        assert sched.current_lr == pytest.approx(0.8)
        sched.step()
        assert sched.current_lr == pytest.approx(0.64)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            WarmupExponential(make_opt(), gamma=0.0)
        with pytest.raises(ValueError):
            WarmupExponential(make_opt(), gamma=1.5)


class TestCosine:
    """The decay phase's shape (the cosine schedule itself is gone)."""

    def test_endpoints(self):
        """Warmup starts at target / warmup; the decay tends to zero."""
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=10, gamma=0.5, target_lr=1.0)
        assert sched.current_lr == pytest.approx(0.1)
        for _ in range(60):
            sched.step()
        assert 0.0 < sched.current_lr < 1e-15

    def test_midpoint(self):
        """With gamma = 2^(-1/5) the rate halves five epochs after the peak."""
        sched = WarmupExponential(make_opt(), warmup_epochs=2, gamma=0.5 ** 0.2, target_lr=1.0)
        assert sched.lr_at(1) == pytest.approx(1.0)
        assert sched.lr_at(6) == pytest.approx(0.5, abs=1e-12)


class TestWarmupExponential:
    def test_paper_shape(self):
        """Linear ramp over 8 epochs to the target, then gamma = 0.8 decay."""
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=8, gamma=0.8, target_lr=1.0)
        lrs = [sched.current_lr]
        for _ in range(12):
            sched.step()
            lrs.append(sched.current_lr)
        # Warmup: 1/8, 2/8, ..., 8/8
        assert lrs[:8] == pytest.approx([i / 8 for i in range(1, 9)])
        # Peak then decay by 0.8 each epoch
        assert lrs[8] == pytest.approx(0.8)
        assert lrs[9] == pytest.approx(0.64)

    def test_peak_is_target(self):
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=5, gamma=0.8, target_lr=0.512)
        lrs = [sched.lr_at(e) for e in range(20)]
        assert max(lrs) == pytest.approx(0.512)

    def test_monotone_rise_then_fall(self):
        sched = WarmupExponential(make_opt(), warmup_epochs=6, gamma=0.9, target_lr=1.0)
        lrs = [sched.lr_at(e) for e in range(20)]
        peak = int(np.argmax(lrs))
        assert all(lrs[i] < lrs[i + 1] for i in range(peak))
        assert all(lrs[i] > lrs[i + 1] for i in range(peak, 19))


class TestSequential:
    def test_switches_at_milestone(self):
        """Warmup hands over to decay at ``warmup_epochs``."""
        opt = make_opt()
        sched = WarmupExponential(opt, warmup_epochs=3, gamma=0.5, target_lr=1.0)
        values = [sched.current_lr]
        for _ in range(5):
            sched.step()
            values.append(sched.current_lr)
        assert values[0] == pytest.approx(1.0 / 3)
        assert values[2] == pytest.approx(1.0)  # last warmup epoch: the peak
        assert values[3] == pytest.approx(0.5)  # first decay epoch
        assert values[4] == pytest.approx(0.25)

    def test_validates_milestones(self):
        """The switch point must leave at least one warmup epoch."""
        for bad in (0, -3):
            with pytest.raises(ValueError, match="warmup_epochs"):
                WarmupExponential(make_opt(), warmup_epochs=bad)


class TestSchedulerOptimizerBinding:
    def test_scheduler_writes_into_optimizer(self):
        opt = make_opt(lr=123.0)
        WarmupExponential(opt, warmup_epochs=4, gamma=0.8, target_lr=1.0)
        # Construction applies epoch-0 lr immediately.
        assert opt.lr == pytest.approx(0.25)

"""Optimizers: step math against hand-computed references, state, clipping.

``TestSGD`` and ``TestGradGlobalNorm`` keep the names of the SGD optimizer
and the gradient-norm helper these ids used to pin; both are gone
(DESIGN.md §3, §8).  The ids now pin Adam's first moment, coupled decay and
None-gradient skip, and the global norm ``clip_grad_norm`` reports.  The
eps-floor ids read Adam's ``v`` state directly, which is all the removed
``update_statistics`` summary did.
"""

import math

import numpy as np
import pytest

from repro.core import FinetuneConfig, OptimizerConfig, train_property
from repro.distributed.events import SimClock
from repro.nn.module import Parameter
from repro.observability import MetricsRegistry
from repro.optim import Adam, AdamW, MultiGroupOptimizer, NonFiniteGradientError, clip_grad_norm
from repro.serving.resilience import BreakerPolicy, HealthPolicy
from repro.training import TrainerConfig


def make_param(values):
    p = Parameter(np.asarray(values, dtype=np.float64))
    return p


class TestSGD:
    def test_vanilla_step(self):
        """After one step Adam's first moment is ``(1 - beta1) * g``."""
        p = make_param([1.0, 2.0])
        opt = Adam([p], lr=0.1)
        p.grad = np.array([0.5, -0.5])
        opt.step()
        assert np.allclose(opt.state[0]["m"], 0.1 * np.array([0.5, -0.5]), rtol=1e-15)

    def test_momentum_accumulates(self):
        """The first moment is an exponential average of the gradients."""
        p = make_param([0.0])
        opt = Adam([p], lr=1.0, betas=(0.5, 0.999))
        p.grad = np.array([1.0])
        opt.step()  # m = 0.5
        p.grad = np.array([3.0])
        opt.step()  # m = 0.5 * 0.5 + 0.5 * 3
        assert np.allclose(opt.state[0]["m"], [1.75])

    def test_weight_decay_is_l2(self):
        """Coupled decay enters the moments as ``g + wd * p``."""
        p = make_param([2.0])
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert np.allclose(opt.state[0]["m"], [0.1 * 0.5 * 2.0])
        assert np.allclose(opt.state[0]["v"], [0.001 * (0.5 * 2.0) ** 2])

    def test_none_grad_skipped(self):
        """A parameter without a gradient is not moved and gets no moments."""
        p, q = make_param([1.0]), make_param([1.0])
        opt = Adam([p, q], lr=0.1, weight_decay=0.5)
        q.grad = np.array([1.0])
        opt.step()
        assert np.array_equal(p.data, [1.0])
        assert 0 not in opt.state and 1 in opt.state
        assert opt.step_count == 1


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # With bias correction the first Adam update is exactly lr * sign(g).
        p = make_param([0.0])
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.0])
        opt.step()
        assert np.allclose(p.data, [-0.01], atol=1e-8)

    def test_matches_reference_implementation(self, rng):
        p = make_param(rng.normal(size=(4,)))
        ref = p.data.copy()
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
        m = np.zeros(4)
        v = np.zeros(4)
        for t in range(1, 6):
            g = rng.normal(size=(4,))
            p.grad = g.copy()
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1**t)
            vhat = v / (1 - b2**t)
            ref -= lr * mhat / (np.sqrt(vhat) + eps)
        assert np.allclose(p.data, ref, atol=1e-12)

    def test_coupled_weight_decay_folds_into_gradient(self):
        p = make_param([1.0])
        opt = Adam([p], lr=0.1, weight_decay=1.0)
        p.grad = np.array([0.0])
        opt.step()
        # g_eff = 1.0 -> first step is -lr * sign = -0.1
        assert np.allclose(p.data, [0.9], atol=1e-6)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], betas=(1.0, 0.999))

    def test_update_statistics_keys(self, rng):
        """``state[i]["v"]`` is the second moment, shaped like the parameter
        and a view of the one flat buffer the step writes."""
        p = make_param(rng.normal(size=(2, 2)))
        opt = Adam([p], lr=1e-3)
        g = rng.normal(size=(2, 2))
        p.grad = g.copy()
        opt.step()
        v = opt.state[0]["v"]
        assert set(opt.state[0]) == {"m", "v"}
        assert v.shape == (2, 2)
        assert np.allclose(v, (1 - 0.999) * g * g)
        assert v.base is opt._flat.moments["v"]

    def test_eps_floor_fraction_detects_dead_moments(self):
        """Zero gradients leave every ``v`` entry at zero, below the eps
        floor, and the parameters unmoved."""
        p = make_param(np.zeros(10))
        opt = Adam([p], lr=1e-3)
        p.grad = np.zeros(10)
        opt.step()
        assert np.all(opt.state[0]["v"] < opt.eps**2)
        assert np.array_equal(p.data, np.zeros(10))

    def test_eps_floor_fraction_counts_entries_below_eps_squared(self):
        # Drive exactly 3 of 10 second moments below eps^2: after one step
        # v = (1 - beta2) * g^2, so g below eps * sqrt(1/(1-beta2)) * ~1
        # lands under the floor while g = 1 stays far above it.
        eps = 1e-4
        p = make_param(np.zeros(10))
        opt = Adam([p], lr=1e-3, eps=eps)
        g = np.ones(10)
        g[:3] = eps / 100.0  # v = 1e-3 * (eps/100)^2 << eps^2
        p.grad = g
        opt.step()
        assert np.array_equal(opt.state[0]["v"] < eps**2, np.arange(10) < 3)

    def test_eps_floor_fraction_rises_as_gradients_decay(self):
        # The Molybog precondition: gradients decaying toward eps push the
        # floor fraction monotonically toward 1.  (beta2 = 0.5 so v tracks
        # the decay within the test's step budget.)
        p = make_param(np.zeros(16))
        opt = Adam([p], lr=1e-3, betas=(0.9, 0.5), eps=1e-3)
        fractions = []
        for t in range(60):
            p.grad = np.full(16, 10.0 * 0.5**t)
            opt.step()
            fractions.append(float(np.mean(opt.state[0]["v"] < opt.eps**2)))
        assert fractions[0] == 0.0
        assert fractions[-1] == 1.0
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_update_clip_bounds_update_rms(self):
        p = make_param(np.zeros(4))
        # First Adam step has |update| = 1 per entry (bias-corrected), so
        # RMS = 1; a 0.25 clip must shrink the realized step 4x.
        clipped = Adam([p], lr=0.1, update_clip=0.25)
        p.grad = np.ones(4)
        clipped.step()
        assert np.allclose(p.data, -0.1 * 0.25 * np.ones(4), atol=1e-6)

    def test_update_clip_inactive_below_threshold(self):
        p1, p2 = make_param([0.0]), make_param([0.0])
        plain, clipped = Adam([p1], lr=0.1), Adam([p2], lr=0.1, update_clip=10.0)
        for opt, p in ((plain, p1), (clipped, p2)):
            p.grad = np.array([3.0])
            opt.step()
        assert np.allclose(p1.data, p2.data, atol=1e-15)

    def test_update_clip_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Adam([make_param([1.0])], update_clip=0.0)


class TestAdamW:
    def test_decay_is_decoupled(self):
        # With zero gradient, AdamW still decays parameters multiplicatively,
        # and (unlike Adam's coupled decay) takes no moment-driven step.
        p = make_param([1.0])
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.array([0.0])
        opt.step()
        assert np.allclose(p.data, [1.0 - 0.1 * 0.5 * 1.0], atol=1e-9)

    def test_default_momenta_match_paper(self):
        opt = AdamW([make_param([1.0])])
        assert opt.beta1 == 0.9
        assert opt.beta2 == 0.999

    def test_state_dict_roundtrip(self, rng):
        p = make_param(rng.normal(size=(3,)))
        opt = AdamW([p], lr=1e-3)
        for _ in range(3):
            p.grad = rng.normal(size=(3,))
            opt.step()
        saved = opt.state_dict()

        p2 = make_param(p.data.copy())
        opt2 = AdamW([p2], lr=1e-3)
        opt2.load_state_dict(saved)
        g = rng.normal(size=(3,))
        p.grad = g.copy()
        p2.grad = g.copy()
        opt.step()
        opt2.step()
        assert np.allclose(p.data, p2.data, atol=1e-15)

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            AdamW([], lr=1e-3)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            AdamW([make_param([1.0])], lr=0.0)

    def test_coupled_and_decoupled_decay_diverge(self, rng):
        # Same gradients, same decay constant: Adam folds the decay into
        # the gradient (so the preconditioner rescales it), AdamW applies
        # it to the parameters directly.  The trajectories must differ —
        # this is the Loshchilov & Hutter distinction, and it is what the
        # eps-floor diagnostics key on.
        start = rng.normal(size=(6,)) + 2.0
        grads = [rng.normal(size=(6,)) for _ in range(8)]
        p_c, p_d = make_param(start.copy()), make_param(start.copy())
        coupled = Adam([p_c], lr=1e-2, weight_decay=0.1)
        decoupled = AdamW([p_d], lr=1e-2, weight_decay=0.1)
        for g in grads:
            p_c.grad = g.copy()
            p_d.grad = g.copy()
            coupled.step()
            decoupled.step()
        assert not np.allclose(p_c.data, p_d.data, atol=1e-6)
        # With zero decay the two are the same algorithm.
        p_c2, p_d2 = make_param(start.copy()), make_param(start.copy())
        adam0 = Adam([p_c2], lr=1e-2, weight_decay=0.0)
        adamw0 = AdamW([p_d2], lr=1e-2, weight_decay=0.0)
        for g in grads:
            p_c2.grad = g.copy()
            p_d2.grad = g.copy()
            adam0.step()
            adamw0.step()
        assert np.allclose(p_c2.data, p_d2.data, atol=1e-15)


class TestClipGradNorm:
    def test_noop_below_threshold(self):
        p = make_param([1.0])
        p.grad = np.array([0.5])
        norm = clip_grad_norm([p], max_norm=10.0)
        assert np.isclose(norm, 0.5)
        assert np.allclose(p.grad, [0.5])

    def test_scales_above_threshold(self):
        p1, p2 = make_param([0.0]), make_param([0.0])
        p1.grad = np.array([3.0])
        p2.grad = np.array([4.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        assert np.isclose(norm, 5.0)
        total = np.sqrt(p1.grad[0] ** 2 + p2.grad[0] ** 2)
        assert np.isclose(total, 1.0)

    def test_ignores_none_grads(self):
        p1, p2 = make_param([0.0]), make_param([0.0])
        p1.grad = np.array([2.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0)
        assert np.isclose(norm, 2.0)

    def test_nonfinite_norm_raises_by_default(self):
        p = make_param([0.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NonFiniteGradientError):
            clip_grad_norm([p], max_norm=1.0)
        # The historical bug: the NaN gradient must not survive untouched
        # as if the norm were in bounds.
        p.grad = np.array([np.inf])
        with pytest.raises(NonFiniteGradientError):
            clip_grad_norm([p], max_norm=1.0)

    def test_nonfinite_zero_mode_zeroes_all_grads(self):
        p1, p2 = make_param([0.0]), make_param([0.0])
        p1.grad = np.array([np.nan])
        p2.grad = np.array([5.0])
        norm = clip_grad_norm([p1, p2], max_norm=1.0, nonfinite="zero")
        assert not np.isfinite(norm)  # pre-clip norm reported faithfully
        assert np.allclose(p1.grad, [0.0])
        assert np.allclose(p2.grad, [0.0])

    def test_nonfinite_kwarg_validated(self):
        p = make_param([0.0])
        p.grad = np.array([1.0])
        with pytest.raises(ValueError):
            clip_grad_norm([p], max_norm=1.0, nonfinite="ignore")

    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, -0.0, math.nan, -math.inf])
    def test_max_norm_not_positive_is_refused(self, max_norm):
        """A bound that is not > 0 would flip the gradient's sign (-1),
        erase it (0) or never clip (NaN); it is refused, and the gradient
        is left as it was.  ``TrainerConfig`` refuses it when built."""
        p = make_param([0.0, 0.0])
        p.grad = np.array([3.0, 4.0])
        with pytest.raises(ValueError, match="max_norm must be > 0"):
            clip_grad_norm([p], max_norm=max_norm)
        assert np.array_equal(p.grad, [3.0, 4.0])
        with pytest.raises(ValueError, match="TrainerConfig.grad_clip_norm"):
            TrainerConfig(grad_clip_norm=max_norm)


class TestGradGlobalNorm:
    def test_value(self):
        """``clip_grad_norm`` reports the L2 norm over every gradient."""
        p1, p2 = make_param([0.0]), make_param([0.0, 0.0])
        p1.grad = np.array([3.0])
        p2.grad = np.array([0.0, 4.0])
        assert np.isclose(clip_grad_norm([p1, p2], max_norm=100.0), 5.0)
        assert np.array_equal(p2.grad, [0.0, 4.0])


def _adamw(**kwargs):
    return AdamW([make_param([1.0])], **kwargs)


def _grouped(scale):
    return MultiGroupOptimizer([(AdamW([make_param([1.0])], lr=1e-3), scale)])


def _finetune_with_lr(lr):
    config = FinetuneConfig(
        train_samples=4, val_samples=2, batch_size=2, max_epochs=1, world_size=1,
        optimizer=OptimizerConfig(base_lr=lr),
    )
    return train_property(config)


BAD_BOUNDS = {
    "adamw-lr-nan": (lambda: _adamw(lr=math.nan), "learning rate"),
    "adamw-lr-inf": (lambda: _adamw(lr=math.inf), "learning rate"),
    "adamw-eps-nan": (lambda: _adamw(eps=math.nan), "eps"),
    "adamw-eps-negative": (lambda: _adamw(eps=-1.0), "eps"),
    "adamw-weight-decay-nan": (lambda: _adamw(weight_decay=math.nan), "weight_decay"),
    "adamw-weight-decay-negative": (lambda: _adamw(weight_decay=-1.0), "weight_decay"),
    "group-scale-nan": (lambda: _grouped(math.nan), "group scale"),
    "breaker-cooldown-nan": (lambda: BreakerPolicy(cooldown=math.nan), "cooldown"),
    "health-interval-nan": (lambda: HealthPolicy(interval=math.nan), "interval"),
    "health-latency-threshold-nan": (
        lambda: HealthPolicy(latency_threshold=math.nan), "latency_threshold"
    ),
    "clock-advance-nan": (lambda: SimClock().advance(math.nan), "advance"),
    "counter-inc-nan": (lambda: MetricsRegistry().counter("c").inc(math.nan), "decrease"),
    # Refused by the config, naming the field that was set, before any
    # Goyal scaling.
    "train-property-lr-nan": (lambda: _finetune_with_lr(math.nan), r"OptimizerConfig\.base_lr"),
}


@pytest.mark.parametrize("case", sorted(BAD_BOUNDS))
def test_bounds_reject_nan_inf_and_out_of_domain(case):
    """Each bound is written so NaN fails it (``not x > 0``), and lr, eps and
    weight decay must also be finite: none of these values is accepted."""
    build, message = BAD_BOUNDS[case]
    with pytest.raises(ValueError, match=message):
        build()

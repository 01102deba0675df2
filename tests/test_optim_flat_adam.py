"""Flat Adam == the per-tensor Adam loop, bit for bit.

``Adam.step`` runs one elementwise update over contiguous buffers that
cover every parameter that has had a gradient.  ``PerTensorAdam`` below is the
per-tensor loop it replaced, kept verbatim as its oracle: every test here
drives both with the same gradients and compares parameters and moments
with ``np.array_equal`` after every step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.module import Parameter
from repro.optim import Adam, AdamW


class PerTensorAdam:
    """The per-tensor Adam/AdamW loop: one tensor at a time, fresh temporaries."""

    def __init__(
        self,
        params,
        lr,
        betas=(0.9, 0.999),
        eps=1e-8,
        weight_decay=0.0,
        update_clip=None,
        decoupled=False,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.update_clip = update_clip
        self._decoupled = decoupled
        self.state = {}
        self.step_count = 0

    def step(self):
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay and not self._decoupled:
                g = g + self.weight_decay * p.data
            state = self.state.setdefault(i, {})
            if "m" not in state:
                state["m"] = np.zeros_like(p.data)
                state["v"] = np.zeros_like(p.data)
            m, v = state["m"], state["v"]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.update_clip is not None:
                rms = float(np.sqrt(np.mean(update * update)))
                if rms > self.update_clip:
                    update *= self.update_clip / rms
            if self.weight_decay and self._decoupled:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * update


SHAPES = [(4, 3), (7,), (2, 2), (), (1, 5), (3, 1, 2)]

#: (class, keyword arguments): both decay styles and a clip small enough to
#: fire on some tensors and not on others.
CONFIGS = {
    "adam": (Adam, dict()),
    "adam-coupled-decay": (Adam, dict(weight_decay=1e-2)),
    "adamw": (AdamW, dict(weight_decay=1e-2)),
    "adam-clip": (Adam, dict(update_clip=0.9, weight_decay=5e-3)),
}


def oracle_for(cls, params, lr, **kwargs):
    """The oracle configured like ``cls(params, lr, **kwargs)``."""
    kwargs.setdefault("weight_decay", 1e-2 if cls is AdamW else 0.0)
    return PerTensorAdam(params, lr, decoupled=cls is AdamW, **kwargs)


def twin_params(seed, shapes=SHAPES):
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=s) for s in shapes]
    return [Parameter(v.copy()) for v in values], [Parameter(v.copy()) for v in values]


def assert_same(flat_params, flat_opt, ref_params, ref_opt):
    for a, b in zip(flat_params, ref_params):
        assert np.array_equal(a.data, b.data)
    assert set(flat_opt.state) == set(ref_opt.state)
    for i, entry in ref_opt.state.items():
        assert set(flat_opt.state[i]) == set(entry)
        for name, arr in entry.items():
            assert flat_opt.state[i][name].shape == arr.shape
            assert np.array_equal(flat_opt.state[i][name], arr)


def run_twins(cls, kwargs, grad_mask, seed=0, lr=3e-2):
    """Step flat and oracle with the same gradients; ``grad_mask[t][i]``
    False means parameter i has no gradient at step t."""
    flat_params, ref_params = twin_params(seed)
    flat = cls(flat_params, lr=lr, **kwargs)
    ref = oracle_for(cls, ref_params, lr, **kwargs)
    rng = np.random.default_rng(seed + 1)
    for mask in grad_mask:
        moments_before = {i: {k: a.copy() for k, a in e.items()} for i, e in flat.state.items()}
        for i, (fp, rp) in enumerate(zip(flat_params, ref_params)):
            # Scales spread over orders of magnitude so the clip, the eps
            # floor and the decay terms all matter somewhere.
            g = rng.normal(size=fp.data.shape) * 10.0 ** rng.integers(-6, 2)
            fp.grad = g.copy() if mask[i] else None
            rp.grad = g.copy() if mask[i] else None
        flat.step()
        ref.step()
        assert_same(flat_params, flat, ref_params, ref)
        for i, moments in moments_before.items():
            if not mask[i]:  # a parameter without a gradient is untouched
                for k, a in moments.items():
                    assert np.array_equal(flat.state[i][k], a)
    return flat_params, flat


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_flat_adam_equals_per_tensor_oracle(config):
    cls, kwargs = CONFIGS[config]
    n = len(SHAPES)
    mask = [[True] * n for _ in range(12)]
    for t in range(12):
        mask[t][2] = t % 3 != 1  # grad is None every third step
    for t in range(4):
        mask[t][4] = False  # first gradient at step 5: the layout grows
    mask[7] = [False] * n  # a step where nothing has a gradient
    run_twins(cls, kwargs, mask)


def test_a_parameter_dropping_out_keeps_the_layout():
    # A multi-task head with no rows in every other batch: its gradient is
    # None on alternate steps.  The layout must not be rebuilt for that
    # (no reallocation, no re-copy), and every state entry must stay a view
    # of the one live buffer.
    n = len(SHAPES)
    mask = [[True] * n for _ in range(10)]
    for t in range(10):
        mask[t][3] = t % 2 == 0
    for t in range(7):
        mask[t][5] = False  # joins late, while 3 sits out: the one rebuild
    seen = []
    params, opt = run_twins(AdamW, dict(weight_decay=1e-2), mask[:1])
    rng = np.random.default_rng(2)
    for t in range(1, 10):
        for i, p in enumerate(params):
            p.grad = rng.normal(size=p.data.shape) if mask[t][i] else None
        opt.step()
        seen.append(opt._flat.moments["m"])
        for entry in opt.state.values():
            assert entry["m"].base is opt._flat.moments["m"]
    assert all(buf is seen[0] for buf in seen[:6])  # steps 1-6
    assert all(buf is seen[6] for buf in seen[6:])  # after parameter 5 joined
    assert seen[6] is not seen[0]
    assert opt._flat.runs((0, 1, 2, 4, 5)) == [(0, 3), (4, 6)]
    assert opt._flat.runs(tuple(range(n))) == [(0, n)]


@settings(max_examples=25, deadline=None)
@given(
    config=st.sampled_from(sorted(CONFIGS)),
    mask=st.lists(
        st.lists(st.booleans(), min_size=len(SHAPES), max_size=len(SHAPES)),
        min_size=10,
        max_size=14,
    ),
    seed=st.integers(0, 2**16),
)
def test_flat_adam_equals_oracle_under_any_gradient_pattern(config, mask, seed):
    cls, kwargs = CONFIGS[config]
    run_twins(cls, kwargs, mask, seed=seed)


@pytest.mark.parametrize("config", ["adamw", "adam-coupled-decay"])
def test_save_load_continue_equals_uninterrupted_run(config):
    cls, kwargs = CONFIGS[config]
    rng = np.random.default_rng(5)
    grads = [[rng.normal(size=s) for s in SHAPES] for _ in range(10)]

    def feed(params, step):
        for p, g in zip(params, grads[step]):
            p.grad = g.copy()

    straight, _ = twin_params(3)
    opt = cls(straight, lr=1e-2, **kwargs)
    for t in range(10):
        feed(straight, t)
        opt.step()

    resumed, _ = twin_params(3)
    first = cls(resumed, lr=1e-2, **kwargs)
    for t in range(5):
        feed(resumed, t)
        first.step()
    again = [Parameter(p.data.copy()) for p in resumed]
    second = cls(again, lr=1e-2, **kwargs)
    second.load_state_dict(first.state_dict())
    for t in range(5, 10):
        feed(again, t)
        second.step()
    for a, b in zip(straight, again):
        assert np.array_equal(a.data, b.data)
    for i, entry in opt.state.items():
        for name, arr in entry.items():
            assert np.array_equal(second.state[i][name], arr)


def test_load_state_dict_into_a_live_optimizer_rebinds_the_buffers():
    # Rewinding a running optimizer to a snapshot must step the snapshot's
    # moments, not the flat buffers of the abandoned trajectory.
    rng = np.random.default_rng(9)
    grads = [[rng.normal(size=s) for s in SHAPES] for _ in range(6)]
    params, twin = twin_params(4)
    opt = AdamW(params, lr=1e-2)
    for t in range(3):
        for p, g in zip(params, grads[t]):
            p.grad = g.copy()
        opt.step()
    snapshot = opt.state_dict()
    data = [p.data.copy() for p in params]
    for t in range(3, 6):
        for p, g in zip(params, grads[t]):
            p.grad = g.copy()
        opt.step()
    opt.load_state_dict(snapshot)
    for p, d in zip(params, data):
        p.data[...] = d
    ref = oracle_for(AdamW, twin, 1e-2)
    for t in range(6):
        for p, g in zip(twin, grads[t] if t < 3 else grads[t - 3]):
            p.grad = g.copy()
        ref.step()
    for t in range(3):
        for p, g in zip(params, grads[t]):
            p.grad = g.copy()
        opt.step()
    assert_same(params, opt, twin, ref)

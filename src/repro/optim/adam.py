"""Adam and AdamW (decoupled weight decay).

The paper trains everything with AdamW at the default momenta
(beta1 = 0.9, beta2 = 0.999) and attributes its large-batch loss spikes to
the Adam instability analyzed by Molybog et al. (2023): when gradients decay
to the order of ``eps``, the update direction decouples across layers and the
time-correlation assumption behind Adam's convergence breaks.  The moments
live in ``state[i]["m"]``/``["v"]``, so that analysis reads them directly.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer


class _FlatState:
    """One contiguous buffer per moment over every parameter that has
    moments, plus the step's work buffers.

    ``state[i]["m"]`` and ``state[i]["v"]`` of every covered parameter are
    views into the moment buffers, so per-parameter state and its
    checkpoints read exactly what the flat update writes.  Moments a
    parameter already had are copied in; a parameter meeting its first
    gradient starts from zeros.

    The layout only grows: it covers every parameter that has had a
    gradient (or arrived with moments in a loaded state).  A covered
    parameter without a gradient this step — a multi-task head with no
    rows in the batch — keeps its place; the step runs over the runs of
    consecutive covered parameters that have one (:meth:`runs`) and
    leaves the others' moments untouched.
    """

    def __init__(self, opt: "Adam", active: Tuple[int, ...]) -> None:
        moments = {i for i, entry in opt.state.items() if "m" in entry}
        self.covered = tuple(sorted(moments.union(active)))
        self.position = {i: k for k, i in enumerate(self.covered)}
        self.state = opt.state
        self.params = [opt.params[i] for i in self.covered]
        self.bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        spans = [
            (p.data.shape, lo, hi) for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:])
        ]
        total = self.bounds[-1]
        self.moments = {name: np.zeros(total) for name in ("m", "v")}
        for i, (shape, lo, hi) in zip(self.covered, spans):
            entry = opt.state.setdefault(i, {})
            for name, buf in self.moments.items():
                view = buf[lo:hi].reshape(shape)
                if name in entry:
                    view[...] = entry[name]
                entry[name] = view
        self.grad = np.empty(total)
        self.param = np.empty(total)
        self.work = np.empty(total)
        self.update = np.empty(total)
        self.param_views = [self.param[lo:hi].reshape(shape) for shape, lo, hi in spans]
        self.update_views = [self.update[lo:hi].reshape(shape) for shape, lo, hi in spans]
        self._active: Tuple[int, ...] = ()
        self._runs: List[Tuple[int, int]] = []

    def covers(self, active: Tuple[int, ...]) -> bool:
        return active == self._active or all(i in self.position for i in active)

    def runs(self, active: Tuple[int, ...]) -> List[Tuple[int, int]]:
        """``(k0, k1)`` ranges of covered positions whose parameters all
        have a gradient, maximal and ascending; one range when every
        covered parameter has one."""
        if active != self._active:
            runs: List[List[int]] = []
            for i in active:
                k = self.position[i]
                if runs and runs[-1][1] == k:
                    runs[-1][1] = k + 1
                else:
                    runs.append([k, k + 1])
            self._active = active
            self._runs = [(k0, k1) for k0, k1 in runs]
        return self._runs


class Adam(Optimizer):
    """Adam with coupled (L2) weight decay.

    ``update_clip=r`` is StableAdamW-style clipping of the per-tensor RMS
    of the final update to at most ``r``: a spike in ``m/sqrt(v)`` is
    bounded before it reaches the parameters.  ``r = 0.1`` is the
    repository's remedy for the Fig. 3 divergence (DESIGN.md §8).

    The update is elementwise, so it runs once over flat buffers that
    cover every parameter that has had a gradient (:class:`_FlatState`)
    instead of once per tensor; each element sees the same IEEE operations as in a
    per-tensor loop, so the bits are the same.  Only ``update_clip``'s RMS
    is per tensor, computed on each tensor's view.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        update_clip: Optional[float] = None,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if not (eps > 0 and math.isfinite(eps)):
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        if not (weight_decay >= 0 and math.isfinite(weight_decay)):
            raise ValueError(f"weight_decay must be finite and >= 0, got {weight_decay}")
        if update_clip is not None and not update_clip > 0:
            raise ValueError(f"update_clip must be > 0, got {update_clip}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.update_clip = update_clip
        self._decoupled = False
        # Rebuilt when a parameter meets its first gradient or
        # ``self.state`` is replaced (``load_state_dict``).  Kept out of
        # ``self.state`` so checkpoints never serialize work buffers.
        self._flat: Optional[_FlatState] = None

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        grads = [p.grad for p in self.params]
        active = tuple(i for i, g in enumerate(grads) if g is not None)
        if not active:
            return
        flat = self._flat
        if flat is None or flat.state is not self.state or not flat.covers(active):
            flat = self._flat = _FlatState(self, active)
        for k0, k1 in flat.runs(active):
            lo, hi = flat.bounds[k0], flat.bounds[k1]
            params = flat.params[k0:k1]
            g, pdata = flat.grad[lo:hi], flat.param[lo:hi]
            np.concatenate([grads[i] for i in flat.covered[k0:k1]], axis=None, out=g)
            np.concatenate([p.data for p in params], axis=None, out=pdata)
            moments = {name: buf[lo:hi] for name, buf in flat.moments.items()}
            self._update(g, pdata, moments, flat.work[lo:hi], flat.update[lo:hi],
                         bias1, bias2, flat.update_views[k0:k1])
            for p, new in zip(params, flat.param_views[k0:k1]):
                p.data[...] = new

    def _update(self, g, pdata, moments, work, update, bias1, bias2, update_views):
        """The elementwise Adam update over one flat range, in place on
        ``pdata`` and ``moments`` (``m`` and ``v``).

        ``work``/``update`` are same-length scratch; ``update_clip`` rescales
        each per-tensor view of ``update`` in ``update_views``.
        """
        m, v = moments["m"], moments["v"]
        if self.weight_decay and not self._decoupled:
            np.multiply(pdata, self.weight_decay, out=work)
            work += g
            g = work
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=update)
        m += update
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=update)
        update *= g
        v += update
        np.divide(v, bias2, out=work)
        np.sqrt(work, out=work)
        work += self.eps
        np.divide(m, bias1, out=update)
        update /= work
        if self.update_clip is not None:
            for u in update_views:
                rms = float(np.sqrt(np.mean(u * u)))
                if rms > self.update_clip:
                    u *= self.update_clip / rms
        if self.weight_decay and self._decoupled:
            np.multiply(pdata, self.lr * self.weight_decay, out=work)
            pdata -= work
        update *= self.lr
        pdata -= update


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    Weight decay multiplies parameters directly instead of being folded into
    the gradient, so the adaptive preconditioner never rescales the decay.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
        update_clip: Optional[float] = None,
    ) -> None:
        super().__init__(
            params,
            lr,
            betas=betas,
            eps=eps,
            weight_decay=weight_decay,
            update_clip=update_clip,
        )
        self._decoupled = True

"""Differential fuzzing of the fused kernels against their reference
compositions.

A seeded random-program generator builds small autograd graphs that mix
plain autograd ops — broadcasting binaries, size-1 dims, empty batches,
shared subexpressions, unused outputs, dropout, slicing — with every op
in :mod:`repro.kernels.dispatch`.  Every program runs twice, under
``use_fused(True)`` and ``use_fused(False)``, and the loss, the outputs
and every leaf gradient must be *bitwise* equal.  A failure shrinks to a
minimal program (greedy consumer-cone removal) and prints it.

The operands of the norm and message-passing kernels (weights,
biases, edge tails) are often values the program already uses, so one
tensor collects gradient from several kernels and the order of those
float sums is under test too.  ``linear_act`` and ``lstm_cell`` take
fresh weight/state leaves: their reference chains let an operand's
producer fire between two of the chain's own contributions to a shared
ancestor, which no single fused node can reproduce.  MEGNet's Set2Set
is such a case (its query feeds the cell's input and state), so there
the two modes differ in the last ulp (DESIGN.md §17).

``tests/test_kernels_fused.py`` pins each kernel alone over a shape
sweep; this file pins the compositions it cannot enumerate.
"""

from __future__ import annotations

import inspect
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.kernels import dispatch as K
from repro.kernels import fused
from repro.kernels.dispatch import use_fused

N_SEEDS = 400

# --------------------------------------------------------------------------- #
# Program description: pure data, so a failing case can be shrunk + printed.
# One flat entry list in creation order; ids index it.  An entry is
# ("leaf", shape) or ("op", kind, arg-ids, params); removed ops become None
# placeholders so ids stay stable under shrinking.
# --------------------------------------------------------------------------- #

_ACTS = {
    "silu": F.silu,
    "relu": F.relu,
    "tanh": F.tanh,
    "sigmoid": F.sigmoid,
    "softplus": F.softplus,
    "abs": F.abs,
}

#: Op kinds that call a dispatched kernel, named after it.
_DISPATCH_OPS = (
    "linear_act",
    "index_select",
    "segment_sum",
    "lstm_cell",
    "rms_norm",
    "layer_norm",
    "gather_diff",
    "row_sq_norm",
    "mul_segment_sum",
    "gather_pair_concat",
)

#: Public functions of ``repro.kernels.dispatch`` that select a mode
#: rather than compute.
_MODE_CONTROLS = {"activation_key", "fused_enabled", "set_fused", "use_fused"}


class Desc:
    __slots__ = ("entries", "loss_ids", "output_ids")

    def __init__(self, entries, loss_ids, output_ids):
        self.entries = entries
        self.loss_ids = loss_ids
        self.output_ids = output_ids

    def __repr__(self):
        lines = []
        for i, entry in enumerate(self.entries):
            if entry is None:
                continue
            if entry[0] == "leaf":
                lines.append(f"  v{i} = leaf{entry[1]}")
            else:
                _, kind, args, params = entry
                lines.append(f"  v{i} = {kind}{tuple(args)} {params}")
        lines.append(f"loss_ids={self.loss_ids} output_ids={self.output_ids}")
        return "\n".join(lines)


def _leaf_data(seed: int, index: int, shape) -> np.ndarray:
    rng = np.random.default_rng(1_000_000 * (seed + 1) + index)
    return rng.uniform(-2.0, 2.0, size=shape)


def _build_leaves(desc: Desc, seed: int) -> Dict[int, Tensor]:
    return {
        i: Tensor(_leaf_data(seed, i, entry[1]), requires_grad=True)
        for i, entry in enumerate(desc.entries)
        if entry is not None and entry[0] == "leaf"
    }


def _execute(desc: Desc, leaves: Dict[int, Tensor]):
    """Run the described program on live tensors -> (loss, outputs)."""
    vals: List[Optional[Tensor]] = [None] * len(desc.entries)
    for i, t in leaves.items():
        vals[i] = t
    for i, entry in enumerate(desc.entries):
        if entry is None or entry[0] == "leaf":
            continue
        _, kind, args, params = entry
        a = vals[args[0]]
        rest = [vals[j] for j in args[1:]]
        if kind == "add":
            out = a + rest[0]
        elif kind == "sub":
            out = a - rest[0]
        elif kind == "mul":
            out = a * rest[0]
        elif kind == "div_safe":
            out = a / (F.abs(rest[0]) + 0.5)
        elif kind == "addc":
            out = a + params["c"]
        elif kind == "rsubc":
            out = params["c"] - a
        elif kind == "mulc":
            out = a * params["c"]
        elif kind == "powi":
            out = a ** 2
        elif kind == "neg":
            out = -a
        elif kind == "exp_tanh":
            out = F.exp(F.tanh(a))
        elif kind == "log_safe":
            out = F.log(a * a + 0.5)
        elif kind == "sqrt_safe":
            out = F.sqrt(a * a + 0.25)
        elif kind in _ACTS:
            out = _ACTS[kind](a)
        elif kind == "sum_all":
            out = a.sum()
        elif kind == "sum0":
            out = a.sum(axis=0)
        elif kind == "sumk":
            out = a.sum(axis=-1, keepdims=True)
        elif kind == "reshape_flat":
            out = a.reshape(-1)
        elif kind == "transpose":
            out = a.transpose()
        elif kind == "getitem_head":
            out = a[: params["stop"]]
        elif kind == "softmax":
            out = F.softmax(a, axis=-1)
        elif kind == "log_softmax":
            out = F.log_softmax(a, axis=-1)
        elif kind == "concat":
            out = F.concat([a, rest[0]], axis=0)
        elif kind == "dropout":
            out = F.dropout(
                a, params["p"], np.random.default_rng(params["seed"]), training=True
            )
        elif kind == "linear_act":
            bias = rest[1] if len(rest) > 1 else None
            out = K.linear_act(a, rest[0], bias, act=params["act"])
        elif kind == "lstm_cell":
            out = K.lstm_cell(a, *rest)
        elif kind == "index_select":
            out = K.index_select(a, np.asarray(params["index"]))
        elif kind == "segment_sum":
            out = K.segment_sum(a, np.asarray(params["ids"]), params["num_segments"])
        elif kind == "rms_norm":
            out = K.rms_norm(a, rest[0], params["eps"])
        elif kind == "layer_norm":
            out = K.layer_norm(a, rest[0], rest[1], params["eps"])
        elif kind == "cross_entropy":
            out = F.cross_entropy(a, np.asarray(params["targets"]))
        elif kind == "gather_diff":
            out = K.gather_diff(a, np.asarray(params["src"]), np.asarray(params["dst"]))
        elif kind == "row_sq_norm":
            out = K.row_sq_norm(a)
        elif kind == "mul_segment_sum":
            out = K.mul_segment_sum(
                a, rest[0], np.asarray(params["ids"]), params["num_segments"]
            )
        elif kind == "gather_pair_concat":
            out = K.gather_pair_concat(
                a, np.asarray(params["src"]), np.asarray(params["dst"]), rest
            )
        else:  # pragma: no cover - generator/vocabulary mismatch
            raise AssertionError(f"unknown op kind {kind!r}")
        vals[i] = out

    loss = None
    for vid in desc.loss_ids:
        term = vals[vid].sum() if vals[vid].data.shape != () else vals[vid]
        loss = term if loss is None else loss + term
    outputs = {f"o{vid}": vals[vid] for vid in desc.output_ids}
    return loss, outputs


# --------------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------------- #

_LEAF_SHAPES = [(3, 4), (4,), (3, 1), (1, 4), (2, 3), (0, 3), (1,), (5,), (2, 1)]

_UNARY = [
    "addc", "rsubc", "mulc", "powi", "neg", "exp_tanh", "log_safe",
    "sqrt_safe", "silu", "relu", "tanh", "sigmoid", "softplus", "abs",
    "sum_all", "sum0", "sumk", "reshape_flat",
]
_BINARY = ["add", "sub", "mul", "div_safe"]
_NORM_AND_GRAPH_OPS = [
    "rms_norm", "layer_norm", "cross_entropy", "gather_diff",
    "row_sq_norm", "mul_segment_sum", "gather_pair_concat",
]


def generate(seed: int) -> Desc:
    rng = np.random.default_rng(77_000 + seed)
    entries: List[tuple] = []
    shapes: List[Tuple[int, ...]] = []

    def leaf(shape) -> int:
        entries.append(("leaf", tuple(shape)))
        shapes.append(tuple(shape))
        return len(entries) - 1

    def emit(kind, args, params, out_shape) -> int:
        entries.append(("op", kind, list(args), params))
        shapes.append(tuple(out_shape))
        return len(entries) - 1

    for _ in range(int(rng.integers(2, 5))):
        leaf(_LEAF_SHAPES[int(rng.integers(len(_LEAF_SHAPES)))])

    def pick(pred=None) -> Optional[int]:
        candidates = [
            i for i, s in enumerate(shapes) if pred is None or pred(s)
        ]
        if not candidates:
            return None
        return int(candidates[int(rng.integers(len(candidates)))])

    def operand(shape) -> int:
        """A kernel operand of ``shape``: half the time a value the program
        already has (so several ops add into its gradient), else a leaf."""
        shape = tuple(shape)
        if rng.random() < 0.5:
            shared = pick(lambda s: s == shape)
            if shared is not None:
                return shared
        return leaf(shape)

    def edges(n: int) -> Dict[str, list]:
        e = int(rng.integers(1, 2 * n + 1))
        return {
            "src": rng.integers(0, n, size=e).tolist(),
            "dst": rng.integers(0, n, size=e).tolist(),
        }

    def rows(s) -> bool:
        return 1 <= len(s) <= 2 and s[0] > 0

    def features(s) -> bool:
        return len(s) >= 1 and s[-1] > 0

    n_ops = int(rng.integers(4, 14))
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.22:  # binary with a broadcast-compatible partner
            a = pick()
            for _ in range(6):
                b = pick()
                try:
                    out = np.broadcast_shapes(shapes[a], shapes[b])
                    break
                except ValueError:
                    continue
            else:
                continue
            kind = _BINARY[int(rng.integers(len(_BINARY)))]
            emit(kind, (a, b), {}, out)
        elif roll < 0.32:  # linear + activation, with or without bias
            a = pick(lambda s: len(s) == 2)
            if a is None:
                continue
            d = shapes[a][1]
            e = int(rng.integers(1, 5))
            args = [a, leaf((d, e))]
            if rng.random() < 0.75:
                args.append(leaf((e,)))
            acts = sorted(fused.ACTIVATIONS)
            act = acts[int(rng.integers(len(acts)))]
            emit("linear_act", args, {"act": act}, (shapes[a][0], e))
        elif roll < 0.36:  # lstm_cell recurrence (the MEGNet readout core)
            a = pick(lambda s: len(s) == 2)
            if a is None:
                continue
            n, din = shapes[a]
            d = int(rng.integers(1, 4))
            args = [a, leaf((n, d)), leaf((n, d)), leaf((din, 4 * d)),
                    leaf((d, 4 * d)), leaf((4 * d,))]
            emit("lstm_cell", args, {}, (n, 2 * d))
        elif roll < 0.41:  # structure ops on 2-D values
            a = pick(lambda s: len(s) == 2 and s[0] > 0)
            if a is None:
                continue
            n = shapes[a][0]
            sub = rng.random()
            if sub < 0.34:
                index = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
                emit(
                    "index_select", (a,), {"index": index.tolist()},
                    (len(index), shapes[a][1]),
                )
            elif sub < 0.67:
                k = int(rng.integers(1, 4))
                ids = np.sort(rng.integers(0, k, size=n))
                emit(
                    "segment_sum", (a,),
                    {"ids": ids.tolist(), "num_segments": k},
                    (k, shapes[a][1]),
                )
            elif shapes[a][1] > 0:
                emit("softmax" if rng.random() < 0.5 else "log_softmax", (a,), {},
                     shapes[a])
        elif roll < 0.61:  # the normalization / message-passing kernels, the loss
            kind = _NORM_AND_GRAPH_OPS[int(rng.integers(len(_NORM_AND_GRAPH_OPS)))]
            if kind in ("rms_norm", "layer_norm"):
                a = pick(features)
                if a is None:
                    continue
                d = shapes[a][-1]
                if kind == "rms_norm":
                    emit(kind, (a, operand((d,))), {"eps": 1e-6}, shapes[a])
                else:
                    emit(kind, (a, operand((d,)), operand((d,))), {"eps": 1e-5},
                         shapes[a])
            elif kind == "cross_entropy":
                a = pick(lambda s: len(s) == 2 and s[0] > 0 and s[1] > 0)
                if a is None:
                    continue
                n, c = shapes[a]
                emit(kind, (a,), {"targets": rng.integers(0, c, size=n).tolist()}, ())
            elif kind == "gather_diff":
                a = pick(rows)
                if a is None:
                    continue
                params = edges(shapes[a][0])
                emit(kind, (a,), params, (len(params["src"]),) + shapes[a][1:])
            elif kind == "row_sq_norm":
                a = pick(lambda s: len(s) >= 1)
                if a is None:
                    continue
                emit(kind, (a,), {}, shapes[a][:-1] + (1,))
            elif kind == "mul_segment_sum":
                a = pick(rows)
                if a is None:
                    continue
                k = int(rng.integers(1, 4))
                ids = rng.integers(0, k, size=shapes[a][0])
                emit(
                    kind, (a, operand(shapes[a])),
                    {"ids": ids.tolist(), "num_segments": k},
                    (k,) + shapes[a][1:],
                )
            else:  # gather_pair_concat
                a = pick(lambda s: len(s) == 2 and s[0] > 0)
                if a is None:
                    continue
                n, hw = shapes[a]
                params = edges(n)
                e = len(params["src"])
                widths = [int(w) for w in rng.integers(1, 4, size=int(rng.integers(0, 3)))]
                tails = [operand((e, w)) for w in widths]
                emit(kind, [a, *tails], params, (e, 2 * hw + sum(widths)))
        elif roll < 0.67:  # concat of two same-shape values
            a = pick(lambda s: len(s) >= 1)
            if a is None:
                continue
            b = pick(lambda s: s == shapes[a])
            if b is None:
                continue
            out = (shapes[a][0] + shapes[b][0],) + tuple(shapes[a][1:])
            emit("concat", (a, b), {}, out)
        elif roll < 0.72:  # slicing
            a = pick(lambda s: len(s) >= 1 and s[0] > 1)
            if a is None:
                continue
            stop = int(rng.integers(1, shapes[a][0]))
            emit("getitem_head", (a,), {"stop": stop}, (stop,) + tuple(shapes[a][1:]))
        elif roll < 0.76:  # dropout: a seeded mask both modes must draw alike
            a = pick()
            emit("dropout", (a,), {"p": 0.3, "seed": 55_000 + seed}, shapes[a])
        elif roll < 0.80:
            a = pick(lambda s: len(s) == 2)
            if a is None:
                continue
            emit("transpose", (a,), {}, (shapes[a][1], shapes[a][0]))
        else:
            a = pick()
            kind = _UNARY[int(rng.integers(len(_UNARY)))]
            if kind == "sum_all":
                out = ()
            elif kind == "sum0":
                if not shapes[a]:
                    continue
                out = tuple(shapes[a][1:])
            elif kind == "sumk":
                if not shapes[a]:
                    continue
                out = tuple(shapes[a][:-1]) + (1,)
            elif kind == "reshape_flat":
                out = (int(np.prod(shapes[a], dtype=int)),)
            else:
                out = shapes[a]
            params = {}
            if kind in ("addc", "rsubc", "mulc"):
                params["c"] = float(rng.uniform(-1.5, 1.5))
            emit(kind, (a,), params, out)

    op_ids = [i for i, e in enumerate(entries) if e[0] == "op"]
    if not op_ids:  # degenerate roll sequence: fall back to one op
        op_ids = [emit("powi", (0,), {}, shapes[0])]
    # Loss over a random non-empty subset; shared subexpressions arise from
    # multi-consumed values, dead code from values in no subset.
    k = int(rng.integers(1, min(3, len(op_ids)) + 1))
    loss_ids = sorted(
        int(i) for i in rng.choice(op_ids, size=k, replace=False)
    )
    output_ids = sorted(
        int(i)
        for i in rng.choice(op_ids, size=int(rng.integers(0, 2)), replace=False)
        if int(i) not in loss_ids
    )
    return Desc(entries, loss_ids, output_ids)


# --------------------------------------------------------------------------- #
# Differential check + shrinking
# --------------------------------------------------------------------------- #


def _run(desc: Desc, seed: int, fused_on: bool):
    """One mode: forward, backward -> (loss, outputs, leaf grads) arrays."""
    leaves = _build_leaves(desc, seed)
    with use_fused(fused_on):
        loss, outputs = _execute(desc, leaves)
        outputs = {name: t.data.copy() for name, t in outputs.items()}
        loss.backward()
    grads = {f"grad v{i}": t.grad for i, t in leaves.items()}
    return {"loss": loss.data, **outputs, **grads}


def _same_bits(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def mismatch(desc: Desc, seed: int) -> Optional[str]:
    """Name of the first value the two modes disagree on, or None."""
    fused_run = _run(desc, seed, True)
    reference_run = _run(desc, seed, False)
    for name, value in fused_run.items():
        if not _same_bits(value, reference_run[name]):
            return name
    return None


def shrink(desc: Desc, failing) -> Desc:
    """Greedy cone removal: drop any op (plus its consumer cone) while the
    failure still reproduces."""
    current = desc
    progress = True
    while progress:
        progress = False
        for i in range(len(current.entries)):
            entry = current.entries[i]
            if entry is None or entry[0] == "leaf":
                continue
            trial_entries = list(current.entries)
            dead = {i}
            trial_entries[i] = None
            for j in range(i + 1, len(trial_entries)):
                e = trial_entries[j]
                if e is not None and e[0] == "op" and any(a in dead for a in e[2]):
                    dead.add(j)
                    trial_entries[j] = None
            loss_ids = [v for v in current.loss_ids if v not in dead]
            if not loss_ids:
                continue
            output_ids = [v for v in current.output_ids if v not in dead]
            trial = Desc(trial_entries, loss_ids, output_ids)
            try:
                if failing(trial):
                    current = trial
                    progress = True
            except Exception:
                continue
    return current


# --------------------------------------------------------------------------- #
# The sweep
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_fused_matches_reference(seed):
    desc = generate(seed)
    first = mismatch(desc, seed)
    if first is not None:
        minimal = shrink(desc, lambda d: mismatch(d, seed) is not None)
        pytest.fail(
            f"fused and reference disagree on {first} (seed={seed});\n"
            f"minimal program:\n{minimal!r}"
        )


def test_vocabulary_covers_every_dispatch_op():
    """A new dispatched kernel without a generator rule fails here."""
    public = {
        name
        for name, fn in inspect.getmembers(K, inspect.isfunction)
        if fn.__module__ == K.__name__ and not name.startswith("_")
    }
    assert public - _MODE_CONTROLS == set(_DISPATCH_OPS)


def test_sweep_exercises_every_dispatch_op():
    """Each dispatched kernel appears in enough programs to be fuzzed, not
    just listed."""
    emitted = Counter(
        entry[1]
        for seed in range(N_SEEDS)
        for entry in generate(seed).entries
        if entry is not None and entry[0] == "op"
    )
    for kind in _DISPATCH_OPS:
        assert emitted[kind] >= 20, (kind, emitted[kind])

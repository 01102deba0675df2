"""The ``Tensor`` class: a numpy array with a gradient tape.

Design notes
------------
* Values are stored as ``numpy.ndarray`` of ``float64``.  Double precision
  keeps finite-difference gradient checks tight and costs little on CPU for
  the model sizes used in this reproduction.
* The tape is implicit: every differentiable op records its parents and a
  closure that accumulates gradients into them.  ``backward()`` walks the
  graph in reverse topological order.
* Broadcasting follows numpy semantics; ``_unbroadcast`` folds gradients back
  onto the original operand shapes.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

Scalar = Union[int, float, np.floating, np.integer]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]

_GRAD_ENABLED = True

#: Depth of nested ``detect_anomaly()`` contexts (see repro.autograd.anomaly).
#: Non-zero depth makes ``_make`` tag each tape node with its creating op
#: and scan forward values / backward gradients for NaN/Inf.
_ANOMALY_DEPTH = 0

#: Active per-op profiler (see repro.observability.opprofile).  When set,
#: ``_make`` reports each created tensor (op tag + allocation bytes) and
#: ``backward`` times every hop, attributing it to the creating op.
_PROFILER = None


def is_grad_enabled() -> bool:
    """Return whether gradient recording is currently active."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient recording.

    Used by validation loops and embedding extraction, exactly as
    ``torch.no_grad`` would be.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


#: When true, ``stable_matmul`` trades shape-dispatched BLAS GEMM for a
#: batch-invariant product (see below).  Toggled by ``batch_invariant_kernels``.
_BATCH_INVARIANT = False

#: Row count of the one GEMM shape BLAS sees inside ``batch_invariant_kernels``.
#: A constant, not a setting: two processes with different tile heights would
#: disagree in the last ulp, and the bit-identity contracts span processes.
M0 = 8

#: ``(k, n)`` shapes whose tiled product passed ``_tiles_are_row_stable``.
_TILE_VERIFIED: set = set()

#: Why the tiled path was abandoned for the life of the process (``None``
#: while it is in use).  Set once, by the first failing self-test.
_TILE_FALLBACK: Optional[str] = None


@contextlib.contextmanager
def batch_invariant_kernels():
    """Make matmul results independent of the batch (row) dimension.

    BLAS picks its GEMM kernel — and with it the ``k``-reduction order —
    based on the operand shapes: a ``(1, k) @ (k, n)`` product goes through
    a gemv-style path, small ``m`` through another, large blocked ``m``
    through a third.  The *value* of row ``i`` of ``A @ W`` therefore
    depends on how many other rows were in ``A``, at the last-ulp level.
    That is fatal for :mod:`repro.serving`, whose contract is that a sample
    served inside a coalesced micro-batch returns bit-identical results to
    the same sample predicted alone.

    Inside this context every product that has a row axis — ``(m, k) @
    (k, n)`` and ``(m, k) @ (k,)`` — is cut into fixed-shape tiles: the
    rows are zero-padded to a multiple of :data:`M0` and BLAS is handed
    ``(M0, k) @ (k, n)`` once per tile.  Every GEMM it sees then has the
    same shape, so it cannot choose a kernel from how many rows ride
    along, and a row's bits depend on that row alone.  This runs at close
    to BLAS speed (padding the *whole* operand to one fixed ``m`` would
    not: the kernel choice would still follow the padded ``m``).

    That BLAS treats equal shapes equally, and every row of a tile alike,
    is a property of the host library, not a theorem, so the first product
    of each ``(k, n)`` runs a small deterministic self-test
    (:func:`_tiles_are_row_stable`).  If it ever fails, the process drops —
    for the rest of its life, with a ``RuntimeWarning`` naming the shape —
    to the ``np.einsum`` sum-of-products loop, which reduces each output
    element over ``k`` in a fixed order regardless of ``m`` but is several
    times slower; :func:`batch_invariant_matmul_mode` reports which of the
    two is in force.  Stacked (>2-D) operands always take the einsum.
    ``(k,) @ (k, n)`` and 1-D dot products have no row axis to be
    invariant over and stay plain ``np.matmul``.

    The two modes differ from each other (and from plain BLAS) in the
    last ulp: bit-identity contracts hold *within* a mode.  Training never
    enters this context and keeps the shape-dispatched GEMM and its
    goldens; only code that needs batched == single (the serving and
    screening layers and their bit-identity tests) opts in.
    """
    global _BATCH_INVARIANT
    prev = _BATCH_INVARIANT
    _BATCH_INVARIANT = True
    try:
        yield
    finally:
        _BATCH_INVARIANT = prev


def _tiled_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(m, k) @ (k, n)`` as ``ceil(m / M0)`` GEMMs of shape ``(M0, k, n)``.

    Both operands are made C-contiguous first: numpy hands a transposed
    layout to BLAS as a flag, which selects another kernel.
    """
    m, k = a.shape
    pad = -m % M0
    if pad or not a.flags.c_contiguous:
        tiles = np.zeros((m + pad, k), dtype=a.dtype)
        tiles[:m] = a
    else:
        tiles = a
    out = np.matmul(tiles.reshape(-1, M0, k), np.ascontiguousarray(b))
    return out.reshape(m + pad, -1)[:m]


def _tiles_are_row_stable(k: int, n: int) -> bool:
    """Self-test: does a row of the tiled product depend on that row alone?

    On seeded operands of the caller's ``(k, n)``, every row of a
    three-tile product must come out bit-identical when it is computed
    alone, at each position inside a tile, and inside each shifted slice
    (which changes its position and its neighbours together).
    """
    rng = np.random.default_rng((k, n))
    rows = 2 * M0 + 3
    # Row scales spread over orders of magnitude, so a changed reduction
    # order shows up in the low bits instead of cancelling.
    a = rng.standard_normal((rows, k)) * np.exp(rng.standard_normal((rows, 1)) * 3.0)
    b = rng.standard_normal((k, n))
    full = _tiled_matmul(a, b)
    for i in range(rows):
        if not np.array_equal(_tiled_matmul(a[i : i + 1], b)[0], full[i]):
            return False
    for position in range(1, M0):
        tile = np.zeros((M0, k))
        tile[position] = a[position]
        if not np.array_equal(_tiled_matmul(tile, b)[position], full[position]):
            return False
        if not np.array_equal(_tiled_matmul(a[position:], b), full[position:]):
            return False
    return True


def _verify_tiles(shape: Tuple[int, int]) -> bool:
    """First use of a ``(k, n)``: self-test it, or fall back loudly."""
    global _TILE_FALLBACK
    if _tiles_are_row_stable(*shape):
        _TILE_VERIFIED.add(shape)
        return True
    _TILE_FALLBACK = f"self-test failed for (k, n) = {shape}"
    warnings.warn(
        f"batch-invariant matmul: rows of the tiled (M0={M0}) product depend on "
        f"their position or neighbours for (k, n) = {shape} on this BLAS; using "
        "the einsum reduction for the rest of this process",
        RuntimeWarning,
        stacklevel=3,
    )
    return False


def batch_invariant_matmul_mode() -> str:
    """Which product ``batch_invariant_kernels`` is using in this process.

    ``"tiled(M0=8)"``, or ``"einsum (fallback: <reason>)"`` once a
    self-test has failed — the string the ``repro serve`` / ``repro
    screen`` summaries print.
    """
    if _TILE_FALLBACK is None:
        return f"tiled(M0={M0})"
    return f"einsum (fallback: {_TILE_FALLBACK})"


def stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b``, batch-invariant when ``batch_invariant_kernels`` is active.

    Outside the context this is exactly ``np.matmul`` — same kernel, same
    bits as before the serving layer existed.  Inside it, each output
    row's bits do not depend on how many rows ride along in the batch:
    2-D products run as fixed-shape :data:`M0`-row tiles (or, once a
    self-test has failed, as the fixed-order einsum reduction), a 1-D
    right operand is treated as ``(k, 1)``, and stacked operands use the
    einsum.  ``(k,) @ (k, n)`` and 1-D dot products have no batch axis
    and stay ``np.matmul``.
    """
    if not _BATCH_INVARIANT or a.ndim < 2 or b.ndim == 0:
        return np.matmul(a, b)
    if b.ndim == 1:
        return stable_matmul(a, b[:, None])[..., 0]
    if a.ndim == 2 and b.ndim == 2 and a.size and b.size and _TILE_FALLBACK is None:
        shape = (a.shape[1], b.shape[1])
        if shape in _TILE_VERIFIED or _verify_tiles(shape):
            return _tiled_matmul(a, b)
    return np.einsum("...mk,...kn->...mn", a, b)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: TensorLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A differentiable numpy array.

    Parameters
    ----------
    data:
        Anything convertible to a float64 numpy array.
    requires_grad:
        When true, operations involving this tensor are recorded on the tape
        and ``backward()`` will populate ``.grad``.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_op",
        # Weak referencability is what lets the op profiler track live
        # tensor bytes without keeping tensors alive.
        "__weakref__",
    )

    __array_priority__ = 100.0  # make numpy defer to our reflected operators

    def __init__(self, data: TensorLike, requires_grad: bool = False, name: str = ""):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name
        self._op = ""  # creating-op tag, populated under detect_anomaly()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        raise TypeError(
            "the truth value of a Tensor is ambiguous; compare .data explicitly"
        )

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Tape machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor, recording the op if the tape is live.

        Every entry of ``parents`` must be a Tensor: call sites drop
        constant operands themselves.
        """
        if _PROFILER is None and not _ANOMALY_DEPTH:
            # Nothing listens: the node is ``__init__``'s result, filled in
            # directly — the constructor call is most of what a small op
            # costs outside the arithmetic.
            out = Tensor.__new__(Tensor)
            out.data = np.asarray(data, dtype=np.float64)
            out.grad = None
            out.name = ""
            out._op = ""
            if _GRAD_ENABLED:
                for p in parents:
                    if p.requires_grad:
                        out.requires_grad = True
                        out._backward = backward
                        out._parents = tuple(parents)
                        return out
            out.requires_grad = False
            out._backward = None
            out._parents = ()
            return out
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        if _PROFILER is not None:
            _PROFILER.on_tensor_created(out, backward)
        if _ANOMALY_DEPTH:
            from repro.autograd.anomaly import NumericalAnomalyError, op_name_of

            out._op = op_name_of(backward)
            if not np.all(np.isfinite(out.data)):
                raise NumericalAnomalyError(
                    op=out._op, shape=np.shape(out.data), phase="forward"
                )
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (allocating on first use)."""
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """``_accumulate`` for a gradient the caller hands over outright.

        Caller contract: ``grad`` is freshly allocated, writable, aliases
        no other live array, and is not read or written by the caller
        after this call.  The first contribution is then adopted without
        the defensive copy ``_accumulate`` must make (values are identical
        either way — this only skips a full-array copy on the hot path).
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0, which requires ``self`` to be a
            scalar (matching the usual loss-backward idiom).
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Reverse topological order via iterative DFS (avoids recursion limits
        # on deep graphs such as long MD rollouts).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        if _ANOMALY_DEPTH and self.grad is not None and not np.all(np.isfinite(self.grad)):
            from repro.autograd.anomaly import NumericalAnomalyError

            raise NumericalAnomalyError(
                op=self._op or "leaf", shape=self.data.shape, phase="backward", hop="seed"
            )
        profiler = _PROFILER
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                parents = node._parents
                if profiler is not None:
                    hop_start = profiler._now()
                    node._backward(node.grad)
                    profiler.record_backward(
                        node._op, profiler._now() - hop_start
                    )
                else:
                    node._backward(node.grad)
                if _ANOMALY_DEPTH:
                    from repro.autograd.anomaly import NumericalAnomalyError

                    for parent in parents:
                        if parent.grad is not None and not np.all(
                            np.isfinite(parent.grad)
                        ):
                            raise NumericalAnomalyError(
                                op=parent._op or "leaf",
                                shape=parent.data.shape,
                                phase="backward",
                                hop=node._op or "unknown",
                            )
                # Free tape references early; keeps long training loops O(1).
                node._backward = None
                node._parents = ()

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else None
        other_a = _as_array(other)
        out_data = self.data + other_a

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            if other_t is not None:
                other_t._accumulate(g)

        return Tensor._make(out_data, (self, other_t) if other_t is not None else (self,), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else None
        other_a = _as_array(other)
        out_data = self.data - other_a

        def backward(g: np.ndarray) -> None:
            self._accumulate(g)
            if other_t is not None:
                other_t._accumulate(-g)

        return Tensor._make(out_data, (self, other_t) if other_t is not None else (self,), backward)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        other_a = _as_array(other)
        out_data = other_a - self.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return Tensor._make(out_data, (self,), backward)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else None
        other_a = _as_array(other)
        out_data = self.data * other_a
        self_data = self.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * other_a)
            if other_t is not None:
                other_t._accumulate(g * self_data)

        return Tensor._make(out_data, (self, other_t) if other_t is not None else (self,), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else None
        other_a = _as_array(other)
        out_data = self.data / other_a
        self_data = self.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / other_a)
            if other_t is not None:
                other_t._accumulate(-g * self_data / (other_a * other_a))

        return Tensor._make(out_data, (self, other_t) if other_t is not None else (self,), backward)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        other_a = _as_array(other)
        out_data = other_a / self.data
        self_data = self.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(-g * other_a / (self_data * self_data))

        return Tensor._make(out_data, (self,), backward)

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(log(x) * y)")
        exponent = float(exponent)
        out_data = self.data**exponent
        self_data = self.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self_data ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else None
        other_a = _as_array(other)
        out_data = stable_matmul(self.data, other_a)
        self_data = self.data

        def backward(g: np.ndarray) -> None:
            if self_data.ndim == 1 and other_a.ndim == 1:
                # Dot product: g is scalar.
                self._accumulate(g * other_a)
                if other_t is not None:
                    other_t._accumulate(g * self_data)
                return
            # Promote 1-D operands to matrices, matching numpy matmul rules,
            # then apply d(AB) = (g B^T, A^T g).  ``_accumulate`` unbroadcasts
            # batched gradients back onto the original shapes.
            a = self_data[None, :] if self_data.ndim == 1 else self_data
            b = other_a[:, None] if other_a.ndim == 1 else other_a
            g2 = g
            if self_data.ndim == 1:
                g2 = np.expand_dims(g2, -2)
            if other_a.ndim == 1:
                g2 = np.expand_dims(g2, -1)
            grad_a = stable_matmul(g2, np.swapaxes(b, -1, -2))
            grad_b = stable_matmul(np.swapaxes(a, -1, -2), g2)
            if self_data.ndim == 1:
                grad_a = grad_a.reshape(grad_a.shape[:-2] + (grad_a.shape[-1],))
            if other_a.ndim == 1:
                grad_b = grad_b.reshape(grad_b.shape[:-1])
            self._accumulate(grad_a)
            if other_t is not None:
                other_t._accumulate(grad_b)

        return Tensor._make(out_data, (self, other_t) if other_t is not None else (self,), backward)

    # ------------------------------------------------------------------ #
    # Comparisons (non-differentiable, return numpy bool arrays)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: TensorLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: TensorLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: TensorLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: TensorLike) -> np.ndarray:
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------ #
    # Shape ops
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes) if axes else self.data.T

        def backward(g: np.ndarray) -> None:
            if axes is None:
                self._accumulate(g.T)
            else:
                inverse = np.argsort(axes)
                self._accumulate(g.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        original = self.data.shape
        out_data = self.data.squeeze(axis)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        out_data = np.expand_dims(self.data, axis)
        original = self.data.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(g.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            full = np.zeros(shape, dtype=np.float64)
            np.add.at(full, index, g)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            if axis is None:
                self._accumulate(np.broadcast_to(g, shape))
                return
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            g_expanded = g
            if not keepdims:
                for ax in sorted(a % len(shape) for a in axes):
                    g_expanded = np.expand_dims(g_expanded, ax)
            self._accumulate(np.broadcast_to(g_expanded, shape))

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        self_data = self.data

        def backward(g: np.ndarray) -> None:
            if axis is None:
                mask = (self_data == out_data).astype(np.float64)
                mask /= mask.sum()
                self._accumulate(mask * g)
                return
            out_keep = self_data.max(axis=axis, keepdims=True)
            mask = (self_data == out_keep).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g_expanded = g if keepdims else np.expand_dims(g, axis)
            self._accumulate(mask * g_expanded)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # Convenience wrappers so model code reads naturally; the heavy lifting
    # lives in repro.autograd.functional.
    def exp(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.exp(self)

    def log(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.log(self)

    def sqrt(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.sqrt(self)

    def tanh(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.tanh(self)

    def abs(self) -> "Tensor":
        from repro.autograd import functional as F

        return F.abs(self)

    def clip(self, low: float, high: float) -> "Tensor":
        from repro.autograd import functional as F

        return F.clip(self, low, high)


def tensor(data: TensorLike, requires_grad: bool = False) -> Tensor:
    """Factory mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)

"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as row-major 64-bit numpy arrays. Every operation computes
its result eagerly and, when any input requires gradients, hangs a tape
record off the output. ``backward`` walks the records reachable from a
scalar loss in reverse topological order and accumulates gradients into
the leaves only: ``requires_grad`` tensors no op produced. A loss that no
op produced has nothing to walk and is refused. The adjoints of
op outputs live only while ``backward`` runs, so an output's ``.grad``
stays None. Repeated calls accumulate until the leaves' grads are zeroed.
Ops take Tensors as operands and wrap nothing: a constant is made a
``Tensor`` by its caller. Masks and lookup ids are arrays, and a dropout
mask is a :class:`DropoutMask`.

A record holds its input tensors and, in its backward closure, only what
the rule reads beyond them; rules read their operands' shapes and
``requires_grad`` when they run. ``multiply`` keeps each operand's values
only for the other's gradient; an operand that does not require grad gets
None, not a gradient nobody reads. ``softmax`` and ``log_softmax`` keep
their output. Beyond that:

- :func:`dense` is ``x @ w + b`` in one record, the bias and any relu or
  sigmoid ``activation`` applied in place; it keeps ``x`` and ``w``, and
  backward reads the activation's derivative from the output, which only
  an activation's record holds.
- :func:`depthwise_separable_conv1d` takes (batch, length, channels)
  input and an optional 0/1 position ``mask``, and zeroes padded positions
  of its input and output itself. It keeps its inputs and the mask, and
  rebuilds the zero-padded input and the depthwise output in backward.
  With ``pool=True`` it returns the max over positions and keeps each
  max's position in the smallest unsigned integer type that holds it, not
  the output it pooled.
- Both take an epilogue: given a ``residual`` and a :class:`DropoutMask`
  ``dropout``, the result is ``residual + dropout ⊙ op(x)``, formed in
  place in the op's own result buffer, so a residual sublayer ends in one
  record and its output before the add never becomes a tensor. The record
  keeps the mask's one-byte ``keep`` and its ``scale``, as
  :func:`dropout_apply` does; no record keeps a float64 mask.
- :func:`layernorm` keeps the per-row ``mean`` and ``inv`` beside its
  input and rebuilds the normalized input in backward.
- :func:`release` drops an output its record can rebuild, once its
  consumers have run; ``dense``, ``matmul``, ``layernorm`` and the conv
  read their inputs' ``.data`` when backward runs. ``add`` rebuilds as
  ``a.data + b.data``, ``matmul`` as ``a.data @ b.data``, a plain
  ``dense`` as ``x.data @ w`` then ``+= b.data``, ``layernorm`` once per
  backward pass, and ``embedding_lookup`` and ``dropout_apply`` from what
  forward read. Each rule repeats forward's operations in forward's
  order, so the rebuilt array has forward's bits. A released tensor keeps
  its shape.
- :func:`scaled_dot_attention` runs every head at once over (batch, n, d)
  inputs, and refuses any other rank.

:func:`softmax`, :func:`log_softmax` and attention require a mask; the
model always has one, and an all-ones mask leaves every slot usable. A
masked slot comes out exactly 0, and so does a slice with no usable slot.
Attention keeps no (batch, heads, n, m) array: it walks one example at a
time, in equal cache-sized blocks of its heads, and its record keeps two
(batch, heads, n, 1) row statistics, the max shift and the inverse row sum,
beside the inputs, the key mask and the output.
Backward recomputes each block's weights from them, bitwise as forward made
them (FlashAttention, arXiv 2205.14135), and uses
``rowsum(dP * P) == rowsum(dO * O)`` (FlashAttention-2, arXiv 2307.08691),
so its softmax term costs an (n, dh) product, not an (n, m) one.

The engine itself is deterministic: dropout masks are drawn by callers from
an explicit seeded generator with :func:`dropout_mask`, whose rate lies
strictly between 0 and 1 (a caller with rate 0 draws no mask), and applied by
:func:`dropout_apply` or an op's epilogue. A graph must stay on a single
thread; independent graphs on separate threads are fine.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor", "backward", "no_grad",
    "add", "subtract", "multiply", "matmul", "dense",
    "softmax", "log_softmax", "layernorm",
    "concat", "reshape", "swap_last_axes", "reduce_sum",
    "embedding_lookup", "gather_last", "dropout_apply",
    "depthwise_separable_conv1d", "scaled_dot_attention", "dropout_mask",
    "DropoutMask", "release",
    "DimensionMismatch", "AxisOutOfRange", "EvenKernel", "NotScalar",
    "DetachedTensor", "IdOutOfRange",
]


class DimensionMismatch(ValueError):
    """Operand shapes cannot be combined."""


class AxisOutOfRange(ValueError):
    """Axis argument outside the operand's rank."""


class EvenKernel(ValueError):
    """Convolution kernels must have odd width so 'same' padding is symmetric."""


class NotScalar(ValueError):
    """backward() needs a single-element loss."""


class DetachedTensor(ValueError):
    """backward() called on a tensor with no recorded history."""


class IdOutOfRange(IndexError):
    """Lookup index outside the table."""


_local = threading.local()


def _grad_enabled() -> bool:
    return getattr(_local, "grad_enabled", True)


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference mode)."""
    previous = _grad_enabled()
    _local.grad_enabled = False
    try:
        yield
    finally:
        _local.grad_enabled = previous


class Tensor:
    """A float64 array, its shape, an optional gradient buffer and tape linkage."""

    __slots__ = ("_data", "shape", "requires_grad", "grad", "op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.op = None  # TapeOp that produced this tensor, if any

    @property
    def data(self) -> np.ndarray:
        """The array, or once :func:`release` dropped it, its record's rebuild."""
        return self.op.rebuild() if self._data is None else self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self.shape = value.shape  # release() keeps it

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class TapeOp:
    """One recorded operation: its inputs, its backward rule and, for an op
    whose output :func:`release` may drop, the rule that rebuilds it."""

    __slots__ = ("name", "inputs", "backward_fn", "rebuild")

    def __init__(self, name, inputs, backward_fn, rebuild):
        self.name = name
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn
        self.rebuild = rebuild


def release(t: Tensor) -> None:
    """Drop ``t``'s buffer when its record can rebuild it; a no-op otherwise.

    Afterwards each ``t.data`` read rebuilds the array, bitwise as forward
    made it, and ``t.shape`` stays. Call it once every op that reads ``t``
    in forward has run. A second call changes nothing.
    """
    if t.op is not None and t.op.rebuild is not None:
        t._data = None


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into requires_grad leaves, and only them."""
    if loss.data.size != 1:
        raise NotScalar(f"loss must be scalar, got shape {loss.shape}")
    if loss.op is None:
        raise DetachedTensor("loss has no recorded operations")

    # Depth-first post-order: every op lands after the ops making its inputs,
    # so the reverse replay sees each adjoint complete before it is used.
    # An op's output is keyed by id(op); the graph keeps every op alive.
    order: list[TapeOp] = []
    done: set[int] = set()
    stack: list[tuple[TapeOp, bool]] = [(loss.op, False)]
    while stack:
        op, ready = stack.pop()
        if id(op) in done:
            continue
        if ready:
            done.add(id(op))
            order.append(op)
        else:
            stack.append((op, True))
            for t in op.inputs:
                if t.op is not None and id(t.op) not in done:
                    stack.append((t.op, False))

    adjoints: dict[int, np.ndarray] = {id(loss.op): np.ones_like(loss.data)}
    _local.in_backward = True  # rebuilt outputs are shared until their op's turn
    try:
        for op in reversed(order):
            for t, g in zip(op.inputs, op.backward_fn(adjoints.pop(id(op)))):
                if g is None or not t.requires_grad:
                    continue
                if t.op is None:
                    t.grad += g
                else:
                    held = adjoints.get(id(t.op))
                    adjoints[id(t.op)] = g if held is None else held + g
    finally:
        _local.in_backward = False


def _recording(inputs) -> bool:
    """Whether an op over ``inputs`` hangs a record off its output."""
    return _grad_enabled() and any(t.requires_grad for t in inputs)


def _result(name, inputs, out_data, backward_fn, rebuild=None) -> Tensor:
    out = Tensor(out_data)
    if _recording(inputs):
        out.requires_grad = True  # an op output's grad stays None
        out.op = TapeOp(name, inputs, backward_fn, rebuild)
    return out


def _normalize_axis(axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise AxisOutOfRange(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionMismatch(f"add: {a.shape} vs {b.shape}") from None
    return _result("add", (a, b), out, lambda g: (
        _reduce_to(g, a.shape) if a.requires_grad else None,
        _reduce_to(g, b.shape) if b.requires_grad else None),
        lambda: a.data + b.data)


def subtract(a, b) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise DimensionMismatch(f"subtract: {a.shape} vs {b.shape}") from None
    return _result("subtract", (a, b), out, lambda g: (
        _reduce_to(g, a.shape) if a.requires_grad else None,
        _reduce_to(-g, b.shape) if b.requires_grad else None))


def multiply(a, b) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionMismatch(f"multiply: {a.shape} vs {b.shape}") from None
    # Each operand's gradient reads the other's values; a constant gets none.
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None
    return _result("multiply", (a, b), out, lambda g: (
        None if bd is None else _reduce_to(g * bd, a.shape),
        None if ad is None else _reduce_to(g * ad, b.shape)))


def matmul(a, b) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatch(f"matmul needs 2 dims or more: {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise DimensionMismatch(f"matmul: {a.shape} @ {b.shape}") from None

    def bwd(g):
        ga = _reduce_to(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _reduce_to(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _result("matmul", (a, b), out, bwd, lambda: a.data @ b.data)


def dense(x, w, b, residual=None, dropout=None, activation=None) -> Tensor:
    """Affine map ``x @ w + b`` over the last axis of ``x``, as one op.

    ``x`` is (..., k), ``w`` (k, m) and ``b`` (m,). The bias is added in
    place into the matmul's result, and the tape keeps ``x`` and ``w``;
    backward reads ``x.data`` when it runs.
    With a ``residual`` tensor and/or a :class:`DropoutMask` ``dropout`` of
    the output's shape, the result is ``residual + dropout ⊙ (x @ w + b)``,
    formed in place in the same buffer (see :func:`_epilogue`); an
    ``activation``, "relu" or "sigmoid", is applied there instead. A plain
    ``dense``, with neither, can be :func:`release`-d and rebuilt.
    """
    if activation not in (None, "relu", "sigmoid"):
        raise ValueError(f"dense: unknown activation {activation!r}; use 'relu' or 'sigmoid'")
    if activation and (residual is not None or dropout is not None):
        raise ValueError(f"dense: activation={activation!r} takes no residual or dropout epilogue")
    if w.ndim != 2 or x.ndim < 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionMismatch(f"dense: {x.shape} @ {w.shape} + {b.shape}")
    wd = w.data

    def affine():  # forward's operations in forward's order, so forward's bits
        h = x.data @ wd
        h += b.data
        return h

    out = affine()
    inputs = _epilogue("dense", out, (x, w, b), residual, dropout)
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "sigmoid":  # 1 / (1 + e^-z) for z >= 0, else e^z / (1 + e^z)
        ex = np.exp(-np.abs(out))
        np.divide(np.where(out >= 0, 1.0, ex), 1.0 + ex, out=out)
    act = out if activation else None  # only an activation's derivative reads the output

    def bwd(g):
        gh = g if dropout is None else _dropped(g, dropout)
        if activation == "relu":
            gh = gh * (act > 0.0)
        elif activation == "sigmoid":
            gh = gh * act * (1.0 - act)
        gx = gh @ wd.T
        gw = _reduce_to(np.swapaxes(x.data, -1, -2) @ gh, wd.shape)
        gb = gh.reshape(-1, gh.shape[-1]).sum(axis=0)
        return gx, gw, gb, g  # zip drops g when there is no residual

    plain = activation is None and residual is None and dropout is None
    return _result("dense", inputs, out, bwd, affine if plain else None)


_MASK_PENALTY = 1e30  # added to masked logits; their exp underflows to exactly 0


def _masked_shift(name, x, axis, mask):
    """The masked-softmax rule: ``x`` copied, the 0 slots of a required 0/1
    ``mask`` that broadcasts to it pushed ``_MASK_PENALTY`` down, and each
    slice along ``axis`` shifted by its max. The caller multiplies its result
    by the float mask returned: masked slots and empty slices come out 0."""
    ax = _normalize_axis(axis, x.ndim)
    if mask is None:
        raise TypeError(f"{name}: mask is None; an all-ones mask leaves every slot usable")
    mask = np.asarray(mask, dtype=np.float64)
    out = x.data.copy()
    try:
        out += (mask - 1.0) * _MASK_PENALTY
    except ValueError:
        raise DimensionMismatch(f"mask {mask.shape} vs {x.shape}") from None
    out -= out.max(axis=ax, keepdims=True)
    return out, ax, mask


def softmax(x, axis: int, mask) -> Tensor:
    """Softmax along ``axis`` under a required mask (:func:`_masked_shift`)."""
    out, ax, mask = _masked_shift("softmax", x, axis, mask)
    np.exp(out, out=out)
    out /= out.sum(axis=ax, keepdims=True)
    out *= mask

    def bwd(g):  # the input's gradient, formed in a copy of the output's
        g = g.copy()
        g -= (g * out).sum(axis=ax, keepdims=True)
        g *= out
        return (g,)

    return _result("softmax", (x,), out, bwd)


def log_softmax(x, axis: int, mask) -> Tensor:
    """Log of :func:`softmax`, as ``shifted − log(sum(exp(shifted)))``: exact
    far below the max, where softmax underflows. Masked slots come out 0 and
    get zero gradient; the record keeps the output."""
    out, ax, mask = _masked_shift("log_softmax", x, axis, mask)
    out -= np.log(np.exp(out).sum(axis=ax, keepdims=True))
    out *= mask

    def bwd(g):  # g − softmax · rowsum(g), over the usable slots
        g = g * mask
        g -= np.exp(out) * mask * g.sum(axis=ax, keepdims=True)
        return (g,)

    return _result("log_softmax", (x,), out, bwd)


_LAYERNORM_EPS = 1e-6


def layernorm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    The tape keeps the per-row ``mean`` and ``inv`` (..., 1) beside the
    inputs and the forward's ``gain`` and ``bias`` arrays, not ``x``'s: each
    rebuild reads ``x.data``. Backward rebuilds ``xhat = (x - mean) * inv``
    and the record the output ``xhat * gain + bias``, in the forward's order
    of operations, so both hold the forward's bits. Once :func:`release`
    drops the output, the first ``.data`` read in a backward pass rebuilds
    it; later readers and this op's backward share it and its ``xhat``
    until that backward has run. Other reads rebuild afresh, keeping nothing.
    """
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise DimensionMismatch(
            f"layernorm: gain {gain.shape} / bias {bias.shape} vs feature dim {dim}")
    xd, gd, bd = x.data, gain.data, bias.data
    mean = xd.mean(axis=-1, keepdims=True)
    out = xd - mean
    var = np.einsum("...i,...i->...", out, out)[..., None] / dim
    inv = 1.0 / np.sqrt(var + _LAYERNORM_EPS)
    out *= inv
    out *= gd
    out += bd
    shared = []  # [xhat, output] from a backward pass's first read

    def normalized():
        xhat = x.data - mean
        xhat *= inv
        return xhat

    def rebuild():
        if not shared:
            xhat = normalized()
            rebuilt = xhat * gd
            rebuilt += bd
            if not getattr(_local, "in_backward", False):
                return rebuilt
            shared[:] = xhat, rebuilt
        return shared[1]

    def bwd(g):
        xhat = shared[0] if shared else normalized()
        shared.clear()
        g2 = g.reshape(-1, dim)
        dbias = g2.sum(axis=0)
        dgain = np.einsum("ni,ni->i", g2, xhat.reshape(-1, dim))
        dx = g * gd
        proj = np.einsum("...i,...i->...", dx, xhat)[..., None] / dim
        dx -= dx.mean(axis=-1, keepdims=True)
        xhat *= proj
        dx -= xhat
        dx *= inv
        return dx, dgain, dbias

    return _result("layernorm", (x, gain, bias), out, bwd, rebuild)


def concat(tensors, axis: int) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise DimensionMismatch("concat: need at least one tensor, got none")
    ax = _normalize_axis(axis, tensors[0].ndim)
    for t in tensors[1:]:
        if t.ndim != tensors[0].ndim:
            raise DimensionMismatch(f"concat: rank of {tensors[0].shape} vs {t.shape}")
        for i, (da, db) in enumerate(zip(tensors[0].shape, t.shape)):
            if i != ax and da != db:
                raise DimensionMismatch(f"concat: {tensors[0].shape} vs {t.shape} on axis {ax}")
    out = np.concatenate([t.data for t in tensors], axis=ax)
    cuts = np.cumsum([t.shape[ax] for t in tensors[:-1]])
    return _result("concat", tuple(tensors), out,
                   lambda g: tuple(np.split(g, cuts, axis=ax)))


def reshape(x, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionMismatch(f"reshape: {x.shape} -> {shape}") from None
    return _result("reshape", (x,), out, lambda g: (g.reshape(x.shape),))


def swap_last_axes(x) -> Tensor:
    if x.ndim < 2:
        raise DimensionMismatch(f"swap_last_axes needs at least 2 dims, got {x.shape}")
    out = np.swapaxes(x.data, -1, -2)
    return _result("swap_last_axes", (x,), out,
                   lambda g: (np.swapaxes(g, -1, -2),))


def reduce_sum(x) -> Tensor:
    return _result("reduce_sum", (x,), x.data.sum(),
                   lambda g: (np.full(x.shape, float(g)),))


def _check_ids(ids, limit: int) -> np.ndarray:
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError(f"indices must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        raise IdOutOfRange(f"index outside [0, {limit})")
    return ids


def embedding_lookup(table, ids) -> Tensor:
    """Row lookup ``table[ids]``; duplicate ids accumulate gradient. A
    released output is rebuilt from the ids and the table array forward read."""
    ids = _check_ids(ids, table.shape[0])
    td = table.data

    def bwd(g):
        gt = np.zeros(table.shape)
        np.add.at(gt, ids.reshape(-1), g.reshape((ids.size,) + table.shape[1:]))
        return (gt,)

    return _result("embedding_lookup", (table,), td[ids], bwd, lambda: td[ids])


def gather_last(x, ids) -> Tensor:
    """Pick one element along the last axis per leading position."""
    ids = _check_ids(ids, x.shape[-1])
    if ids.shape != x.shape[:-1]:
        raise DimensionMismatch(f"gather_last: ids {ids.shape} vs {x.shape}")
    expanded = np.expand_dims(ids, -1)
    out = np.take_along_axis(x.data, expanded, -1)[..., 0]

    def bwd(g):
        gx = np.zeros(x.shape)
        np.put_along_axis(gx, expanded, np.expand_dims(g, -1), -1)
        return (gx,)

    return _result("gather_last", (x,), out, bwd)


class DropoutMask(NamedTuple):
    """Inverted dropout: ``keep`` (bool) slots pass, scaled by ``scale``.

    As a float mask it is ``keep * scale``, zero where dropped. Ops apply it
    as ``a * scale`` with the dropped slots then zeroed, which gives the
    same bits as multiplying by that float mask wherever ``a * scale`` is
    finite, and their records keep the one-byte ``keep``.
    """

    keep: np.ndarray
    scale: float


def _dropped(a: np.ndarray, mask: DropoutMask, out=None) -> np.ndarray:
    """``a ⊙ mask`` into ``out`` (a new array by default)."""
    out = np.multiply(a, mask.scale, out=out)
    out *= mask.keep
    return out


def _epilogue(name, out, inputs, residual, dropout):
    """Make ``out`` hold ``residual + dropout ⊙ out``, in place.

    Either part may be None. Returns the op's record inputs, with the
    residual tensor appended when there is one.
    """
    if dropout is not None:
        if dropout.keep.shape != out.shape:
            raise DimensionMismatch(
                f"{name}: dropout mask {dropout.keep.shape} vs output {out.shape}")
        _dropped(out, dropout, out=out)
    if residual is None:
        return inputs
    if residual.shape != out.shape:
        raise DimensionMismatch(f"{name}: residual {residual.shape} vs output {out.shape}")
    out += residual.data
    return inputs + (residual,)


def dropout_apply(x, mask: DropoutMask) -> Tensor:
    """Multiply by a :func:`dropout_mask` mask; the record keeps its bool
    ``keep`` and rebuilds a released output from ``x.data``."""
    if mask.keep.shape != x.shape:
        raise DimensionMismatch(f"dropout mask {mask.keep.shape} vs {x.shape}")
    return _result("dropout_apply", (x,), _dropped(x.data, mask),
                   lambda g: (_dropped(g, mask),), lambda: _dropped(x.data, mask))


def dropout_mask(rng, shape, rate: float) -> DropoutMask:
    """Inverted-dropout mask: drop with probability ``rate``, else scale by 1/(1-rate)."""
    if not 0.0 < rate < 1.0:
        raise ValueError(f"dropout rate must lie in (0, 1), got {rate}")
    keep = 1.0 - rate
    return DropoutMask(rng.random(shape) < keep, 1.0 / keep)


def depthwise_separable_conv1d(x, depth_kernel, point_kernel, bias,
                               mask=None, residual=None, dropout=None,
                               pool=False) -> Tensor:
    """Per-channel conv over positions, then a pointwise channel mix.

    ``x`` is (batch, length, channels); one sequence is a batch of one.
    The depth kernel is (width, channels), the point kernel (channels,
    out_channels), bias (out_channels,). Width must be odd; padding is
    'same' with zeros.
    ``mask`` is None or a 0/1 array that broadcasts to ``x`` without its
    channel axis; positions with mask 0 are zeroed in the input, so they
    feed nothing, and in the output. ``residual`` and ``dropout`` work as
    in :func:`dense`: the result is ``residual + dropout ⊙ conv(x)``.
    ``pool=True`` returns the max over positions, (batch, out_channels),
    takes no epilogue, and keeps each max's position, the first on ties.

    The tape keeps the inputs and ``mask``. Backward rebuilds the
    zero-padded input from ``x.data``, read when it runs, and the depthwise
    output from that input's windows with the same einsum, so both carry
    forward's bits and neither lives beyond the backward call.
    """
    if pool and (residual is not None or dropout is not None):
        raise ValueError("conv: pool=True takes no residual or dropout epilogue")
    xd = x.data
    if xd.ndim != 3:
        raise DimensionMismatch(f"conv input must be 3-D, got {x.shape}")
    batch, length, channels = xd.shape
    if depth_kernel.ndim != 2 or depth_kernel.shape[1] != channels:
        raise DimensionMismatch(f"depth kernel {depth_kernel.shape} vs {channels} channels")
    width = depth_kernel.shape[0]
    if width % 2 == 0:
        raise EvenKernel(f"kernel width {width} is even")
    if point_kernel.ndim != 2 or point_kernel.shape[0] != channels:
        raise DimensionMismatch(f"point kernel {point_kernel.shape} vs {channels} channels")
    out_channels = point_kernel.shape[1]
    if bias.shape != (out_channels,):
        raise DimensionMismatch(f"bias {bias.shape} vs {out_channels} out channels")
    if mask is not None:
        try:
            mask = np.broadcast_to(np.asarray(mask, dtype=np.float64), x.shape[:-1])
        except ValueError:
            raise DimensionMismatch(f"conv mask {np.shape(mask)} vs input {x.shape}") from None
        mask = mask.reshape(batch, length, 1)

    pad = (width - 1) // 2

    def padded_input(xd):  # zero margins around the masked input
        padded = np.zeros((batch, length + width - 1, channels))
        if mask is None:
            padded[:, pad:pad + length] = xd
        else:
            np.multiply(xd, mask, out=padded[:, pad:pad + length])
        return padded

    dk, pk = depth_kernel.data, point_kernel.data
    windows = sliding_window_view(padded_input(xd), width, axis=1)  # (B, L, C, width)
    out = np.einsum("blck,kc->blc", windows, dk) @ pk
    out += bias.data
    if mask is not None:
        out *= mask
    inputs = _epilogue("depthwise_separable_conv1d", out,
                       (x, depth_kernel, point_kernel, bias), residual, dropout)
    first_max = None
    if pool:
        pooled = out.max(axis=1)
        if _recording(inputs):  # argmax's indices, first tie first, found faster
            first_max = (out == pooled[:, None]).argmax(axis=1)[:, None].astype(
                np.min_scalar_type(length - 1))  # one byte for up to 256 positions
        out = pooled

    def bwd(g):
        if pool:
            g_full = np.zeros((batch, length, out_channels))
            np.put_along_axis(g_full, first_max, g[:, None], axis=1)
            g = g_full
        g2 = (g if dropout is None else _dropped(g, dropout)).reshape(-1, out_channels)
        if mask is not None:
            g2 = g2 * mask.reshape(-1, 1)
        g_bias = g2.sum(axis=0)
        padded = padded_input(x.data)
        windows = sliding_window_view(padded, width, axis=1)
        # The depthwise output, rebuilt as forward made it, lives for one product.
        g_point = np.einsum("blck,kc->blc", windows, dk).reshape(-1, channels).T @ g2
        g_depth_out = (g2 @ pk.T).reshape(batch, length, channels)
        g_dk = np.einsum("blck,blc->kc", windows, g_depth_out)
        # x's gradient is g_depth_out convolved with the flipped kernel; the
        # padded buffer's zero margins serve again around it, and the
        # windows, a view of that buffer, now show it.
        padded[:, pad:pad + length] = g_depth_out
        gx = np.einsum("blck,kc->blc", windows, dk[::-1])
        if mask is not None:
            gx *= mask
        return gx, g_dk, g_point, g_bias, g  # zip drops g when there is no residual

    return _result("depthwise_separable_conv1d", inputs, out, bwd)


def _with_columns(a: np.ndarray, *columns) -> np.ndarray:
    """``a`` widened by one trailing column per entry of ``columns``."""
    width = a.shape[-1]
    out = np.empty(a.shape[:-1] + (width + len(columns),))
    out[..., :width] = a
    for i, column in enumerate(columns):
        out[..., width + i] = column
    return out


_BLOCK_BYTES = 1 << 20  # (n, m) weights one attention block forms at a time


def _attention_blocks(batch: int, heads: int, rows: int, cols: int):
    """Tile a (batch, heads) grid of (rows, cols) weight matrices one example
    at a time, in equal blocks of that example's heads: as many as divide
    ``heads`` and fit in ``_BLOCK_BYTES``, and at least one. Returns the
    (example, heads) index pairs and the heads per block.
    """
    fit = next((f for f in range(heads, 1, -1)
                if heads % f == 0 and f * rows * cols * 8 <= _BLOCK_BYTES), 1)
    return [(slice(b, b + 1), slice(h, h + fit))
            for b in range(batch) for h in range(0, heads, fit)], fit


def _logit_operands(qh: np.ndarray, kh: np.ndarray, scale: float, mask):
    """The pair whose per-head product is the scaled, masked logits. The key
    mask (batch, 1, m, 1) rides in as one column, [q · scale, 1] · [k, penalty],
    so no pass over an (n, m) array masks the logits."""
    return _with_columns(qh * scale, 1.0), _with_columns(kh, (mask[..., 0] - 1.0) * _MASK_PENALTY)


def scaled_dot_attention(q, k, v, num_heads: int, key_mask) -> Tensor:
    """Multi-head scaled dot-product attention with every head in one op.

    ``q`` is (batch, n, d); ``k`` and ``v`` are (batch, m, d); one sequence
    is a batch of one, and any other rank is refused. The features split
    into ``num_heads`` contiguous heads of width dh = d / num_heads, each head
    computes ``softmax(q kᵀ / sqrt(dh)) v`` over the keys, and the heads
    merge back to (batch, n, d). ``key_mask`` is a required 0/1 array that
    broadcasts to (batch, m); a key with mask 0 gets exactly zero weight, and
    a query with no usable key attends to nothing and outputs zeros.

    No (batch, heads, n, m) array outlives the block that formed it. Forward
    walks one example at a time, in equal blocks of its heads, each within
    ``_BLOCK_BYTES`` of weights unless a single head is larger: it forms the
    logits, shifts them by their row max, exponentiates them to ``E`` and
    takes ``E @ [v, 1]``, whose last column is the row sum, so
    ``P = E * inv`` is never formed either. The tape keeps only the row max
    ``shift`` and ``inv``, both (batch, heads, n, 1), beside the inputs, the
    key mask and the output ``O``. Backward recomputes each block's ``E``
    from the inputs and ``shift``, with the same matmuls, so it is bitwise
    the forward's, and works through ``dS = P * (dP - rowsum(dO * O))``,
    where ``rowsum(dO * O)`` equals the softmax term ``rowsum(dP * P)`` at
    (batch, heads, n, dh) rather than (batch, heads, n, m) cost.
    ``1/sqrt(dh)`` scales the (n, dh) arrays q, dq and dk, never an (n, m) one.
    """
    if (q.ndim != 3 or k.ndim != 3 or k.shape != v.shape
            or k.shape[0] != q.shape[0] or k.shape[-1] != q.shape[-1]):
        raise DimensionMismatch(
            f"attention wants (batch, n, d) inputs: q {q.shape}, k {k.shape}, v {v.shape}")
    d = q.shape[-1]
    if d % num_heads:
        raise DimensionMismatch(f"dim {d} not divisible by {num_heads} heads")
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    batch, n, m = q.shape[0], q.shape[1], k.shape[1]
    if key_mask is None:
        raise TypeError("attention: key_mask is None; an all-ones mask leaves every key usable")
    try:
        key_mask = np.broadcast_to(np.asarray(key_mask, dtype=np.float64), (batch, m))
    except ValueError:
        raise DimensionMismatch(f"key mask {np.shape(key_mask)} vs keys {(batch, m)}") from None
    key_mask = key_mask.reshape(batch, 1, m, 1)
    blocks, fit = _attention_blocks(batch, num_heads, n, m)

    def split(a):  # (batch, rows, d) -> (batch, h, rows, dh), a view when a is contiguous
        return np.swapaxes(a.reshape(batch, a.shape[1], num_heads, head_dim), 1, 2)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    qa, ka = _logit_operands(qh, kh, scale, key_mask)
    ka_t, vw = np.swapaxes(ka, -1, -2), _with_columns(vh, 1.0)
    shift, inv = np.empty((batch, num_heads, n, 1)), np.empty((batch, num_heads, n, 1))
    has_key = np.any(key_mask, axis=-2, keepdims=True)
    out = np.empty(q.shape)
    # Every block is (1, fit, n, m), so the logit buffer, and backward's score
    # buffer, is made once per call: a fresh array per block measured slower
    # from n = 63 up (B=8, d=64, forward plus backward).
    out_h, e = split(out), np.empty((1, fit, n, m))
    for blk in blocks:
        np.matmul(qa[blk], ka_t[blk], out=e)  # the block's scaled, masked logits
        np.max(e, axis=-1, keepdims=True, out=shift[blk])
        e -= shift[blk]
        np.exp(e, out=e)
        mixed = e @ vw[blk]  # (1, fit, n, dh + 1); each row sum is at least 1
        np.divide(1.0, mixed[..., -1:], out=inv[blk])
        inv[blk] *= has_key[blk[0]]  # a row with no usable key gets inv 0
        np.multiply(mixed[..., :-1], inv[blk], out=out_h[blk])

    def bwd(g):
        qh, kh, vh = split(q.data), split(k.data), split(v.data)
        qa, ka = _logit_operands(qh, kh, scale, key_mask)
        ka_t, vw_t = np.swapaxes(ka, -1, -2), np.swapaxes(_with_columns(vh, 1.0), -1, -2)
        gh = split(g) * inv  # P = E * inv, so inv moves onto the (n, dh) side
        # rowsum(dP * P) == rowsum(dO * O), a per-head (n, dh) product; as an
        # extra column it leaves the matmul already subtracted from dP.
        rowsum = np.einsum("...nd,...nd->...n", gh, split(out))
        gw = _with_columns(gh, -rowsum)
        g_q, g_k, g_v = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        g_qh, g_kh, g_vh = split(g_q), split(g_k), split(g_v)
        e, g_s = np.empty((1, fit, n, m)), np.empty((1, fit, n, m))
        for blk in blocks:
            np.matmul(qa[blk], ka_t[blk], out=e)
            e -= shift[blk]
            np.exp(e, out=e)
            np.matmul(np.swapaxes(e, -1, -2), gh[blk], out=g_vh[blk])
            np.matmul(gw[blk], vw_t[blk], out=g_s)
            g_s *= e
            np.matmul(g_s, kh[blk], out=g_qh[blk])
            np.matmul(np.swapaxes(g_s, -1, -2), qh[blk], out=g_kh[blk])
        g_q *= scale
        g_k *= scale
        return g_q, g_k, g_v

    return _result("scaled_dot_attention", (q, k, v), out, bwd)

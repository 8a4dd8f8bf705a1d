"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are stored as row-major 64-bit numpy arrays. Every operation computes
its result eagerly and, when any input requires gradients, hangs a tape
record off the output. ``backward`` walks the records reachable from a
scalar loss in reverse topological order and accumulates gradients into
every ``requires_grad`` ancestor. Repeated calls accumulate until grads are
zeroed.

A record keeps what its backward rule reads, usually the operands. There is
one masked softmax, whose kernels :func:`softmax` and the fused
:func:`scaled_dot_attention` share: a 0/1 mask gives slots exactly zero
weight, and each op keeps only its probabilities (for attention one
(..., heads, n, m) array beside the inputs) to derive the softmax gradient;
logits and per-head slices are never stored.

The engine itself is deterministic: dropout masks are drawn by callers from
an explicit seeded generator and applied with :func:`dropout_apply`. A graph
must stay on a single thread; independent graphs on separate threads are
fine.
"""
from __future__ import annotations

import itertools
import math
import threading
import weakref
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Tensor", "backward", "no_grad",
    "add", "subtract", "multiply", "scalar_scale", "matmul",
    "relu", "sigmoid", "log", "clamp_min", "softmax", "layernorm",
    "concat", "reshape", "swap_last_axes", "reduce_sum",
    "max_over_axis", "embedding_lookup", "gather_last", "dropout_apply",
    "depthwise_separable_conv1d", "scaled_dot_attention", "dropout_mask",
    "as_array",
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


_node_ids = itertools.count()
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
    """A float64 array plus optional gradient buffer and tape linkage."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self.node_id = next(_node_ids)
        self.op = None  # TapeOp that produced this tensor, if any

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        if self.requires_grad:
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            else:
                self.grad[...] = 0.0

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class TapeOp:
    """One recorded operation: inputs, output id and its backward rule."""

    __slots__ = ("name", "inputs", "out_id", "out_ref", "backward_fn")

    def __init__(self, name, inputs, out, backward_fn):
        self.name = name
        self.inputs = tuple(inputs)
        self.out_id = out.node_id
        self.out_ref = weakref.ref(out)
        self.backward_fn = backward_fn


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(ancestor) into every requires_grad ancestor."""
    if loss.data.size != 1:
        raise NotScalar(f"loss must be scalar, got shape {loss.shape}")
    if loss.op is None:
        if loss.requires_grad:
            loss.grad = loss.grad + np.ones_like(loss.data)
            return
        raise DetachedTensor("loss has no recorded operations")

    # Depth-first post-order: every op lands after the ops making its inputs,
    # so the reverse replay sees each adjoint complete before it is used.
    order: list[TapeOp] = []
    done: set[int] = set()
    stack: list[tuple[TapeOp, bool]] = [(loss.op, False)]
    while stack:
        op, ready = stack.pop()
        if op.out_id in done:
            continue
        if ready:
            done.add(op.out_id)
            order.append(op)
        else:
            stack.append((op, True))
            for t in op.inputs:
                if t.op is not None and t.op.out_id not in done:
                    stack.append((t.op, False))

    adjoints: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for op in reversed(order):
        grad_out = adjoints.pop(op.out_id, None)
        if grad_out is None:
            continue
        out_t = op.out_ref()
        if out_t is not None and out_t.requires_grad:
            out_t.grad = grad_out if out_t.grad is None else out_t.grad + grad_out
        for t, g in zip(op.inputs, op.backward_fn(grad_out)):
            if g is None or not t.requires_grad:
                continue
            if t.op is None:
                # Leaf: deposit straight into the grad buffer.
                t.grad = g.copy() if t.grad is None else t.grad + g
            else:
                held = adjoints.get(t.node_id)
                adjoints[t.node_id] = g if held is None else held + g


def as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(name, inputs, out_data, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True  # grad buffer is filled lazily by backward
        out.op = TapeOp(name, inputs, out, backward_fn)
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
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:
        raise DimensionMismatch(f"add: {a.shape} vs {b.shape}") from None
    sa, sb = a.shape, b.shape
    return _result("add", (a, b), out,
                   lambda g: (_reduce_to(g, sa), _reduce_to(g, sb)))


def subtract(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise DimensionMismatch(f"subtract: {a.shape} vs {b.shape}") from None
    sa, sb = a.shape, b.shape
    return _result("subtract", (a, b), out,
                   lambda g: (_reduce_to(g, sa), _reduce_to(-g, sb)))


def multiply(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise DimensionMismatch(f"multiply: {a.shape} vs {b.shape}") from None
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape
    return _result("multiply", (a, b), out,
                   lambda g: (_reduce_to(g * bd, sa), _reduce_to(g * ad, sb)))


def scalar_scale(x, c: float) -> Tensor:
    x = _as_tensor(x)
    c = float(c)
    return _result("scalar_scale", (x,), x.data * c, lambda g: (g * c,))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatch("matmul operands need at least 2 dims")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionMismatch(f"matmul: {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError:
        raise DimensionMismatch(f"matmul: {a.shape} @ {b.shape}") from None
    ad, bd = a.data, b.data
    sa, sb = a.shape, b.shape

    def bwd(g):
        ga = _reduce_to(g @ np.swapaxes(bd, -1, -2), sa)
        gb = _reduce_to(np.swapaxes(ad, -1, -2) @ g, sb)
        return ga, gb

    return _result("matmul", (a, b), out, bwd)


def relu(x) -> Tensor:
    x = _as_tensor(x)
    out = np.maximum(x.data, 0.0)
    positive = x.data > 0.0
    return _result("relu", (x,), out, lambda g: (g * positive,))


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    out = np.empty_like(xd)
    pos = xd >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _result("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def log(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0.0):
        raise ValueError("log: inputs must be strictly positive")
    xd = x.data
    return _result("log", (x,), np.log(xd), lambda g: (g / xd,))


def clamp_min(x, floor: float) -> Tensor:
    x = _as_tensor(x)
    floor = float(floor)
    out = np.maximum(x.data, floor)
    above = x.data > floor
    return _result("clamp_min", (x,), out, lambda g: (g * above,))


_MASK_PENALTY = 1e30  # added to masked logits; their exp underflows to exactly 0


def _softmax_forward(z: np.ndarray, axis: int, mask) -> np.ndarray:
    """Overwrite ``z`` with its softmax along ``axis``.

    ``mask`` is None or a 0/1 array broadcasting to ``z``; slots with mask 0
    get exactly zero weight. A slice with no usable slot, found from the
    small mask rather than from ``z``, is pinned to zeros, not left uniform.
    """
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        mask = mask.reshape((1,) * (z.ndim - mask.ndim) + mask.shape)
        try:
            z += (mask - 1.0) * _MASK_PENALTY
        except ValueError:
            raise DimensionMismatch(f"mask {mask.shape} vs {z.shape}") from None
    z -= z.max(axis=axis, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=axis, keepdims=True)
    if mask is not None:
        empty = ~np.any(mask, axis=axis, keepdims=True)
        if empty.any():
            np.copyto(z, 0.0, where=empty)
    return z


def _softmax_backward(g: np.ndarray, p: np.ndarray, axis: int) -> np.ndarray:
    """Overwrite ``g``, the gradient at softmax output ``p``, with the input's."""
    g -= (g * p).sum(axis=axis, keepdims=True)
    g *= p
    return g


def softmax(x, axis: int = -1, mask=None) -> Tensor:
    """Softmax along ``axis``; a 0/1 ``mask`` broadcasting to ``x`` zeroes slots."""
    x = _as_tensor(x)
    ax = _normalize_axis(axis, x.ndim)
    out = _softmax_forward(x.data.copy(), ax, mask)
    return _result("softmax", (x,), out,
                   lambda g: (_softmax_backward(g.copy(), out, ax),))


_LAYERNORM_EPS = 1e-6


def layernorm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    dim = x.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise DimensionMismatch(
            f"layernorm: gain {gain.shape} / bias {bias.shape} vs feature dim {dim}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYERNORM_EPS)
    xhat = centered * inv
    out = xhat * gain.data + bias.data
    gd = gain.data

    def bwd(g):
        dbias = g.reshape(-1, dim).sum(axis=0)
        dgain = (g * xhat).reshape(-1, dim).sum(axis=0)
        dxhat = g * gd
        dx = inv * (dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias

    return _result("layernorm", (x, gain, bias), out, bwd)


def concat(tensors, axis: int) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionMismatch("concat: need at least one tensor")
    ax = _normalize_axis(axis, tensors[0].ndim)
    for t in tensors[1:]:
        if t.ndim != tensors[0].ndim:
            raise DimensionMismatch("concat: rank mismatch")
        for i, (da, db) in enumerate(zip(tensors[0].shape, t.shape)):
            if i != ax and da != db:
                raise DimensionMismatch(f"concat: {tensors[0].shape} vs {t.shape} on axis {ax}")
    out = np.concatenate([t.data for t in tensors], axis=ax)
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        pieces = []
        for i in range(len(sizes)):
            sl = [slice(None)] * g.ndim
            sl[ax] = slice(offsets[i], offsets[i + 1])
            pieces.append(g[tuple(sl)])
        return tuple(pieces)

    return _result("concat", tuple(tensors), out, bwd)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise DimensionMismatch(f"reshape: {x.shape} -> {shape}") from None
    orig = x.shape
    return _result("reshape", (x,), out, lambda g: (g.reshape(orig),))


def swap_last_axes(x) -> Tensor:
    x = _as_tensor(x)
    if x.ndim < 2:
        raise DimensionMismatch("swap_last_axes needs at least 2 dims")
    out = np.swapaxes(x.data, -1, -2)
    return _result("swap_last_axes", (x,), out,
                   lambda g: (np.swapaxes(g, -1, -2),))


def reduce_sum(x) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum()
    shape = x.shape
    return _result("reduce_sum", (x,), out,
                   lambda g: (np.full(shape, float(g)),))


def max_over_axis(x, axis: int) -> Tensor:
    """Max along an axis; gradient flows to the first maximal element."""
    x = _as_tensor(x)
    ax = _normalize_axis(axis, x.ndim)
    idx = x.data.argmax(axis=ax)  # argmax picks the first tie
    out = np.take_along_axis(x.data, np.expand_dims(idx, ax), ax).squeeze(ax)
    xshape = x.shape

    def bwd(g):
        gx = np.zeros(xshape)
        np.put_along_axis(gx, np.expand_dims(idx, ax), np.expand_dims(g, ax), ax)
        return (gx,)

    return _result("max_over_axis", (x,), out, bwd)


def _check_ids(ids, limit: int) -> np.ndarray:
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("indices must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= limit):
        raise IdOutOfRange(f"index outside [0, {limit})")
    return ids


def embedding_lookup(table, ids) -> Tensor:
    """Row lookup ``table[ids]``; duplicate ids accumulate gradient."""
    table = _as_tensor(table)
    ids = _check_ids(ids, table.shape[0])
    out = table.data[ids]
    tshape = table.shape

    def bwd(g):
        gt = np.zeros(tshape)
        np.add.at(gt, ids.reshape(-1), g.reshape((ids.size,) + tshape[1:]))
        return (gt,)

    return _result("embedding_lookup", (table,), out, bwd)


def gather_last(x, ids) -> Tensor:
    """Pick one element along the last axis per leading position."""
    x = _as_tensor(x)
    ids = _check_ids(ids, x.shape[-1])
    if ids.shape != x.shape[:-1]:
        raise DimensionMismatch(f"gather_last: ids {ids.shape} vs {x.shape}")
    expanded = np.expand_dims(ids, -1)
    out = np.take_along_axis(x.data, expanded, -1)[..., 0]
    xshape = x.shape

    def bwd(g):
        gx = np.zeros(xshape)
        np.put_along_axis(gx, expanded, np.expand_dims(g, -1), -1)
        return (gx,)

    return _result("gather_last", (x,), out, bwd)


def dropout_apply(x, mask) -> Tensor:
    """Multiply by a caller-supplied mask (already scaled by 1/keep)."""
    x = _as_tensor(x)
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != x.shape:
        raise DimensionMismatch(f"dropout mask {mask.shape} vs {x.shape}")
    return _result("dropout_apply", (x,), x.data * mask, lambda g: (g * mask,))


def dropout_mask(rng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: zeros with probability ``rate``, else 1/(1-rate)."""
    if rate <= 0.0:
        return np.ones(shape)
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def depthwise_separable_conv1d(x, depth_kernel, point_kernel, bias) -> Tensor:
    """Per-channel conv over positions, then a pointwise channel mix.

    ``x`` is (length, channels) or (batch, length, channels). The depth
    kernel is (width, channels), the point kernel (channels, out_channels),
    bias (out_channels,). Width must be odd; padding is 'same' with zeros.
    """
    x, depth_kernel = _as_tensor(x), _as_tensor(depth_kernel)
    point_kernel, bias = _as_tensor(point_kernel), _as_tensor(bias)
    xd = x.data
    squeeze = xd.ndim == 2
    if squeeze:
        xd = xd[None]
    if xd.ndim != 3:
        raise DimensionMismatch(f"conv input must be 2-D or 3-D, got {x.shape}")
    _, length, channels = xd.shape
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

    pad = (width - 1) // 2
    padded = np.zeros((xd.shape[0], length + width - 1, channels))
    padded[:, pad:pad + length] = xd
    windows = sliding_window_view(padded, width, axis=1)  # (B, L, C, width)
    depth_out = np.einsum("blck,kc->blc", windows, depth_kernel.data)
    out = depth_out @ point_kernel.data + bias.data
    if squeeze:
        out = out[0]
    dk, pk = depth_kernel.data, point_kernel.data

    def bwd(g):
        gg = g[None] if squeeze else g
        g_bias = gg.sum(axis=(0, 1))
        g_point = np.einsum("blc,ble->ce", depth_out, gg)
        g_depth_out = gg @ pk.T
        g_dk = np.einsum("blck,blc->kc", windows, g_depth_out)
        g_padded = np.zeros_like(padded)
        for j in range(width):
            g_padded[:, j:j + length, :] += dk[j] * g_depth_out
        gx = g_padded[:, pad:pad + length, :]
        if squeeze:
            gx = gx[0]
        return gx, g_dk, g_point, g_bias

    return _result("depthwise_separable_conv1d",
                   (x, depth_kernel, point_kernel, bias), out, bwd)


def scaled_dot_attention(q, k, v, num_heads: int, key_mask=None) -> Tensor:
    """Multi-head scaled dot-product attention with every head in one op.

    ``q`` is (..., n, d); ``k`` and ``v`` are (..., m, d). The features split
    into ``num_heads`` contiguous heads of width dh = d / num_heads, each head
    computes ``softmax(q kᵀ / sqrt(dh)) v`` over the keys, and the heads
    merge back to (..., n, d). ``key_mask`` is an optional 0/1 array that
    broadcasts to (..., m); a key with mask 0 gets exactly zero weight, and
    a query with no usable key attends to nothing and outputs zeros.

    The logits are softmaxed in place by the kernel :func:`softmax` uses, and
    the tape keeps only the (..., h, n, m) probabilities ``P`` beside the
    inputs; the backward works from ``P`` alone through
    ``dS = P * (dP - sum(dP * P)) / sqrt(dh)``.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if (q.ndim < 2 or k.shape != v.shape or k.ndim != q.ndim
            or k.shape[:-2] != q.shape[:-2] or k.shape[-1] != q.shape[-1]):
        raise DimensionMismatch(
            f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    d = q.shape[-1]
    if d % num_heads:
        raise DimensionMismatch(f"dim {d} not divisible by {num_heads} heads")
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)

    def split(a):  # (..., n, d) -> (..., h, n, dh)
        return np.swapaxes(a.reshape(a.shape[:-1] + (num_heads, head_dim)), -2, -3)

    def merge(a):  # (..., h, n, dh) -> (..., n, d)
        return np.swapaxes(a, -2, -3).reshape(a.shape[:-3] + (a.shape[-2], d))

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    logits = qh @ np.swapaxes(kh, -1, -2)
    logits *= scale
    if key_mask is not None:  # (..., m) -> (..., 1, 1, m) against (..., h, n, m)
        key_mask = np.asarray(key_mask, dtype=np.float64)[..., None, None, :]
    probs = _softmax_forward(logits, -1, key_mask)
    out = merge(probs @ vh)

    def bwd(g):
        gh = split(g)
        g_v = np.swapaxes(probs, -1, -2) @ gh
        g_s = _softmax_backward(gh @ np.swapaxes(vh, -1, -2), probs, -1)
        g_s *= scale
        g_q = g_s @ kh
        g_k = np.swapaxes(np.swapaxes(qh, -1, -2) @ g_s, -1, -2)
        return merge(g_q), merge(g_k), merge(g_v)

    return _result("scaled_dot_attention", (q, k, v), out, bwd)

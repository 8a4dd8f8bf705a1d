"""Recurrence-free encoder blocks: convolutions, self-attention, feed-forward.

A stack is a list of blocks, and a block a list of sublayers: its
convolutions, one self-attention and one feed-forward, each one flat record
of its weights and its layernorm's gain and bias. Each block adds
sinusoidal position information, then runs its sublayers in one loop, each
inside a pre-norm residual wrapper: ``x + f(layernorm(x))``, with ``f``'s
output dropped out before the residual add. Each sublayer's last op, a
``dense`` or the conv, forms that sum in its own result buffer, and the
feed-forward's first ``dense`` applies its relu there, so neither ``f``'s
output before the add nor a pre-activation becomes a tensor the tape keeps.
Nor does the block input plus the position signal: once the block has run,
its buffer is released, and backward rebuilds it from the block input.
Attention's q, k and v are released once attention has read them, and
its backward rebuilds them from the normalized input.
Given an rng, which is train mode, a sublayer is skipped entirely with
probability ``1 - p_l`` (stochastic depth), where ``p_l`` decays linearly
with global sublayer index down to the configured final survival rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    DropoutMask, Tensor, add, dense, depthwise_separable_conv1d, dropout_mask,
    layernorm, matmul, release, scaled_dot_attention,
)


@dataclass
class EncoderBlockConfig:
    num_blocks: int
    num_conv_layers: int
    kernel_size: int
    hidden_dim: int
    num_heads: int
    dropout: float
    survival_end: float  # survival probability of the deepest sublayer

    @property
    def total_sublayers(self) -> int:
        return self.num_blocks * (self.num_conv_layers + 2)


@lru_cache(maxsize=64)
def _position_signal(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * i) / dim)
    out = np.empty((length, dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    out.flags.writeable = False  # cached and shared by every forward and rebuild
    return out


def positional_encoding(length: int, dim: int) -> Tensor:
    """Interleaved sin/cos position features; rows are positions."""
    return Tensor(_position_signal(length, dim))


def survival_probability(index: int, total: int, final: float) -> float:
    """Linear decay from 1 at depth 0 to ``final`` at the deepest sublayer."""
    if not 1 <= index <= total:
        raise ValueError(f"sublayer index {index} outside 1..{total}")
    return 1.0 - (index / total) * (1.0 - final)


def residual_sublayer(x: Tensor, f, params, survival_prob: float, rng,
                      dropout: float = 0.0) -> Tensor:
    """Pre-norm residual with stochastic depth and dropout.

    Returns ``f(layernorm(x), params, x, mask)``, the layernorm's gain and
    bias read from ``params.ln_gain`` and ``params.ln_bias``; ``f`` must
    compute ``x + mask ⊙ h`` for its output ``h`` (its last op's
    ``residual`` and ``dropout`` arguments do). ``rng`` None is eval mode:
    the sublayer always applies, with mask None. Given a generator, one
    uniform sample is drawn; on failure the sublayer is skipped and ``x``
    passes through untouched (no rescaling either way). Otherwise, with a
    positive ``dropout`` rate, the mask is drawn next, before ``f`` runs;
    ``f`` draws nothing.

    As soon as ``f`` returns, the layernorm output's buffer is released;
    backward rebuilds the normalized input from ``x``, which the tape keeps
    as the residual (or rebuilds, for a block's position-signal sum).
    """
    mask = None
    if rng is not None:
        if rng.random() >= survival_prob:
            return x
        if dropout > 0.0:
            mask = dropout_mask(rng, x.shape, dropout)
    normed = layernorm(x, params.ln_gain, params.ln_bias)
    out = f(normed, params, x, mask)
    release(normed)
    return out


def multi_head_self_attention(x: Tensor, params: AttentionSublayerParams,
                              num_heads: int, mask: np.ndarray,
                              residual: Tensor | None,
                              dropout: DropoutMask | None) -> Tensor:
    """Multi-head scaled dot-product self-attention over positions.

    ``x`` is (batch, n, d). The q/k/v projections feed one
    :func:`~qanet.tensor.scaled_dot_attention` op, whose tape record keeps
    no (batch, heads, n, n) weights, only two (batch, heads, n, 1) row
    statistics, and an output projection follows. ``mask`` (batch, n), 1.0
    real and 0.0 padding, is the required key mask: padded keys get exactly
    zero attention weight. ``residual`` and ``dropout`` (None when the
    sublayer draws no mask) pass to the output projection's epilogue.

    Once attention has run, q, k and v are released; its backward rebuilds
    each once from ``x``, which the layernorm rebuilds once per pass.

    The key projection has no bias: a key bias ``b`` would add ``q·b`` to
    every logit of a query's softmax row, a shift softmax ignores.
    """
    q = dense(x, params.query_w, params.query_b)
    k = matmul(x, params.key_w)
    v = dense(x, params.value_w, params.value_b)
    merged = scaled_dot_attention(q, k, v, num_heads, mask)
    for t in (q, k, v):
        release(t)
    return dense(merged, params.out_w, params.out_b, residual, dropout)


@dataclass
class ConvSublayerParams:
    ln_gain: Tensor
    ln_bias: Tensor
    depth_kernel: Tensor
    point_kernel: Tensor
    bias: Tensor


@dataclass
class AttentionSublayerParams:
    ln_gain: Tensor
    ln_bias: Tensor
    query_w: Tensor
    query_b: Tensor
    key_w: Tensor
    value_w: Tensor
    value_b: Tensor
    out_w: Tensor
    out_b: Tensor


@dataclass
class FeedForwardSublayerParams:
    ln_gain: Tensor
    ln_bias: Tensor
    inner_w: Tensor
    inner_b: Tensor
    outer_w: Tensor
    outer_b: Tensor


@dataclass
class EncoderBlockParams:
    convs: list[ConvSublayerParams]
    attention: AttentionSublayerParams
    feed_forward: FeedForwardSublayerParams


def glorot(rng, fan_in: int, fan_out: int, shape=None) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out))


def _ln_pair(dim: int) -> tuple[Tensor, Tensor]:
    return (Tensor(np.ones(dim), requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True))


def _dense_pair(rng, dim: int) -> tuple[Tensor, Tensor]:
    """Glorot (dim, dim) weight and zero bias."""
    return (Tensor(glorot(rng, dim, dim), requires_grad=True),
            Tensor(np.zeros(dim), requires_grad=True))


def init_encoder_stack(config: EncoderBlockConfig, rng) -> list[EncoderBlockParams]:
    d, k = config.hidden_dim, config.kernel_size
    blocks = []
    for _ in range(config.num_blocks):
        convs = [ConvSublayerParams(
            *_ln_pair(d),
            depth_kernel=Tensor(glorot(rng, k, 1, (k, d)), requires_grad=True),
            point_kernel=Tensor(glorot(rng, d, d), requires_grad=True),
            bias=Tensor(np.zeros(d), requires_grad=True))
            for _ in range(config.num_conv_layers)]
        # Query, key, value and output weights, drawn in that order; no key bias.
        (qw, qb), (kw, _), (vw, vb), (ow, ob) = (_dense_pair(rng, d) for _ in range(4))
        attention = AttentionSublayerParams(*_ln_pair(d), qw, qb, kw, vw, vb, ow, ob)
        ffn = FeedForwardSublayerParams(*_ln_pair(d), *_dense_pair(rng, d),
                                        *_dense_pair(rng, d))
        blocks.append(EncoderBlockParams(convs, attention, ffn))
    return blocks


def encoder_stack_forward(x: Tensor, config: EncoderBlockConfig,
                          blocks: list[EncoderBlockParams], mask: np.ndarray,
                          rng=None) -> Tensor:
    """Run the full stack over ``x`` (batch, n, d). ``mask`` is the required
    (batch, n) array with 1.0 on real tokens and 0.0 on padding. ``rng``
    None is eval mode; a generator draws stochastic depth and dropout, in
    sublayer order.

    Each block's sublayers, its convolutions, self-attention and
    feed-forward, run in one loop, each as a :func:`residual_sublayer`
    over its own record. Convolution inputs and outputs are zeroed on
    padded positions so no information bleeds through the receptive field;
    attention masks its keys, and the feed-forward acts per position.
    """
    def conv(xn, p, residual, drop):
        return depthwise_separable_conv1d(xn, p.depth_kernel, p.point_kernel, p.bias,
                                          mask, residual, drop)

    def attend(xn, p, residual, drop):
        return multi_head_self_attention(xn, p, config.num_heads, mask, residual, drop)

    def feed_forward(xn, p, residual, drop):
        h = dense(xn, p.inner_w, p.inner_b, activation="relu")
        return dense(h, p.outer_w, p.outer_b, residual, drop)

    signal = positional_encoding(x.shape[-2], x.shape[-1])
    index = 0
    for block in blocks:
        x = summed = add(x, signal)
        for params, f in ([(c, conv) for c in block.convs] +
                          [(block.attention, attend), (block.feed_forward, feed_forward)]):
            index += 1
            keep = survival_probability(index, config.total_sublayers, config.survival_end)
            x = residual_sublayer(x, f, params, keep, rng, config.dropout)
        if x is not summed:  # it is when every sublayer was skipped
            release(summed)
    return x

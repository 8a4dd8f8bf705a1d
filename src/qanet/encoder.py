"""Recurrence-free encoder blocks: convolutions, self-attention, feed-forward.

Each block adds sinusoidal position information, then runs its sublayers
inside pre-norm residual wrappers: ``x + f(layernorm(x))``, with ``f``'s
output dropped out before the residual add. During training a sublayer is
skipped entirely with probability ``1 - p_l`` (stochastic depth), where
``p_l`` decays linearly with global sublayer index down to the configured
final survival rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import (
    DimensionMismatch, Tensor, add, depthwise_separable_conv1d, dropout_apply,
    dropout_mask, layernorm, matmul, multiply, relu, scaled_dot_attention,
)

class OddDimension(ValueError):
    """Sinusoidal position features need an even feature dimension."""


@dataclass
class EncoderBlockConfig:
    num_blocks: int
    num_conv_layers: int
    kernel_size: int
    hidden_dim: int
    num_heads: int
    dropout: float = 0.1
    survival_end: float = 0.9  # survival probability of the deepest sublayer

    def __post_init__(self):
        if self.hidden_dim % self.num_heads:
            raise DimensionMismatch(
                f"hidden dim {self.hidden_dim} not divisible by {self.num_heads} heads")
        if self.kernel_size % 2 == 0:
            raise ValueError("kernel size must be odd")

    @property
    def sublayers_per_block(self) -> int:
        return self.num_conv_layers + 2

    @property
    def total_sublayers(self) -> int:
        return self.num_blocks * self.sublayers_per_block


@lru_cache(maxsize=64)
def _position_signal(length: int, dim: int) -> np.ndarray:
    if dim % 2:
        raise OddDimension(f"feature dim {dim} must be even")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * i) / dim)
    out = np.empty((length, dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def positional_encoding(length: int, dim: int) -> Tensor:
    """Interleaved sin/cos position features; rows are positions."""
    return Tensor(_position_signal(length, dim))


def survival_probability(index: int, total: int, final: float) -> float:
    """Linear decay from 1 at depth 0 to ``final`` at the deepest sublayer."""
    if not 1 <= index <= total:
        raise ValueError(f"sublayer index {index} outside 1..{total}")
    return 1.0 - (index / total) * (1.0 - final)


def residual_sublayer(x: Tensor, f, ln_gain: Tensor, ln_bias: Tensor,
                      survival_prob: float, train_mode: bool, rng) -> Tensor:
    """Pre-norm residual with stochastic depth.

    Eval mode always computes ``x + f(layernorm(x))``. Train mode draws one
    uniform sample; on failure the sublayer is skipped and ``x`` passes
    through untouched (no rescaling either way).
    """
    if train_mode:
        if rng.random() >= survival_prob:
            return x
    return add(x, f(layernorm(x, ln_gain, ln_bias)))


@dataclass
class AttentionParams:
    query_w: Tensor
    query_b: Tensor
    key_w: Tensor
    key_b: Tensor
    value_w: Tensor
    value_b: Tensor
    out_w: Tensor
    out_b: Tensor


def multi_head_self_attention(x: Tensor, params: AttentionParams,
                              num_heads: int, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head scaled dot-product self-attention over the last-but-one axis.

    ``x`` is (..., n, d). The q/k/v projections feed one
    :func:`~qanet.tensor.scaled_dot_attention` op, whose tape record keeps
    only the (..., heads, n, n) attention probabilities, and an output
    projection follows. ``mask`` (1.0 real, 0.0 padding) is the key mask:
    padded keys get exactly zero attention weight.
    """
    q = add(matmul(x, params.query_w), params.query_b)
    k = add(matmul(x, params.key_w), params.key_b)
    v = add(matmul(x, params.value_w), params.value_b)
    merged = scaled_dot_attention(q, k, v, num_heads, mask)
    return add(matmul(merged, params.out_w), params.out_b)


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
    attention: AttentionParams


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


@dataclass
class EncoderStackParams:
    blocks: list[EncoderBlockParams]


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


def init_encoder_stack(config: EncoderBlockConfig, rng) -> EncoderStackParams:
    d, k = config.hidden_dim, config.kernel_size
    blocks = []
    for _ in range(config.num_blocks):
        convs = []
        for _ in range(config.num_conv_layers):
            g, b = _ln_pair(d)
            convs.append(ConvSublayerParams(
                ln_gain=g, ln_bias=b,
                depth_kernel=Tensor(glorot(rng, k, 1, (k, d)), requires_grad=True),
                point_kernel=Tensor(glorot(rng, d, d), requires_grad=True),
                bias=Tensor(np.zeros(d), requires_grad=True)))
        # Query, key, value and output projections, drawn in field order.
        attn = AttentionParams(*(t for _ in range(4) for t in _dense_pair(rng, d)))
        attention = AttentionSublayerParams(*_ln_pair(d), attention=attn)
        ffn = FeedForwardSublayerParams(*_ln_pair(d), *_dense_pair(rng, d),
                                        *_dense_pair(rng, d))
        blocks.append(EncoderBlockParams(convs=convs, attention=attention,
                                         feed_forward=ffn))
    return EncoderStackParams(blocks=blocks)


def _maybe_dropout(h: Tensor, rate: float, train_mode: bool, rng) -> Tensor:
    if train_mode and rate > 0.0:
        return dropout_apply(h, dropout_mask(rng, h.shape, rate))
    return h


def encoder_stack_forward(x: Tensor, config: EncoderBlockConfig,
                          params: EncoderStackParams, mask: np.ndarray | None,
                          train_mode: bool = False, rng=None) -> Tensor:
    """Run the full stack. ``mask`` is (..., n) with 1.0 on real tokens.

    Convolution inputs and outputs are zeroed on padded positions so no
    information bleeds through the receptive field; attention masks its
    keys, and the remaining sublayers act per position.
    """
    if len(params.blocks) != config.num_blocks:
        raise DimensionMismatch(
            f"{len(params.blocks)} blocks of parameters for {config.num_blocks}")
    length, d = x.shape[-2], x.shape[-1]
    signal = positional_encoding(length, d)
    columns = Tensor(np.asarray(mask)[..., None]) if mask is not None else None
    total = config.total_sublayers
    index = 0
    for block in params.blocks:
        x = add(x, signal)
        for conv in block.convs:
            index += 1
            p = survival_probability(index, total, config.survival_end)

            def conv_f(xn, conv=conv):
                h = multiply(xn, columns) if columns is not None else xn
                h = depthwise_separable_conv1d(
                    h, conv.depth_kernel, conv.point_kernel, conv.bias)
                if columns is not None:
                    h = multiply(h, columns)
                return _maybe_dropout(h, config.dropout, train_mode, rng)

            x = residual_sublayer(x, conv_f, conv.ln_gain, conv.ln_bias,
                                  p, train_mode, rng)
        index += 1
        p = survival_probability(index, total, config.survival_end)
        attn = block.attention

        def attn_f(xn, attn=attn):
            h = multi_head_self_attention(xn, attn.attention,
                                          config.num_heads, mask)
            return _maybe_dropout(h, config.dropout, train_mode, rng)

        x = residual_sublayer(x, attn_f, attn.ln_gain, attn.ln_bias,
                              p, train_mode, rng)
        index += 1
        p = survival_probability(index, total, config.survival_end)
        ffn = block.feed_forward

        def ffn_f(xn, ffn=ffn):
            h = relu(add(matmul(xn, ffn.inner_w), ffn.inner_b))
            h = add(matmul(h, ffn.outer_w), ffn.outer_b)
            return _maybe_dropout(h, config.dropout, train_mode, rng)

        x = residual_sublayer(x, ffn_f, ffn.ln_gain, ffn.ln_bias,
                              p, train_mode, rng)
    return x

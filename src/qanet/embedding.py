"""Token embedding: frozen word vectors + learned char features, fused.

Word vectors stay fixed for the whole run; only the unknown-word row
trains, modeled as a separate vector added wherever the unknown id appears
(the frozen table keeps zeros in that slot). Characters embed into a
trainable table, run through a narrow depthwise-separable convolution, and
max-pool per channel over positions, in one op. The concatenation is
projected to the model width and refined by a two-layer gated highway.
On the training tape the char path keeps ids, the one-byte dropout keep
and the conv's max positions, no float per character: backward rebuilds
the released lookup and dropout outputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNK_ID
from .tensor import (
    Tensor, add, concat, dense, depthwise_separable_conv1d, dropout_apply,
    dropout_mask, embedding_lookup, multiply, release, reshape, subtract,
)
from .encoder import glorot


@dataclass
class HighwayLayerParams:
    transform_w: Tensor
    transform_b: Tensor
    gate_w: Tensor
    gate_b: Tensor


@dataclass
class EmbeddingParams:
    word_table: Tensor        # frozen; pad and unknown rows are zero
    unk_vector: Tensor        # the only trainable word representation
    char_table: Tensor
    char_depth_kernel: Tensor
    char_point_kernel: Tensor
    char_bias: Tensor
    proj_w: Tensor
    proj_b: Tensor
    highway: list[HighwayLayerParams]


def init_embedding_params(word_matrix: np.ndarray, char_vocab_size: int,
                          char_dim: int, char_kernel: int, hidden_dim: int,
                          rng) -> EmbeddingParams:
    """Split the loaded word matrix into a frozen table plus trainable unknown row."""
    table = np.array(word_matrix, dtype=np.float64)
    unk = table[UNK_ID].copy()
    table[UNK_ID] = 0.0
    word_dim = table.shape[1]
    fused = word_dim + char_dim
    highway = []
    for _ in range(2):
        highway.append(HighwayLayerParams(
            transform_w=Tensor(glorot(rng, hidden_dim, hidden_dim), requires_grad=True),
            transform_b=Tensor(np.zeros(hidden_dim), requires_grad=True),
            gate_w=Tensor(glorot(rng, hidden_dim, hidden_dim), requires_grad=True),
            # Gates start mostly closed so inputs pass through early in training.
            gate_b=Tensor(np.full(hidden_dim, -2.0), requires_grad=True)))
    return EmbeddingParams(
        word_table=Tensor(table),
        unk_vector=Tensor(unk, requires_grad=True),
        char_table=Tensor(rng.standard_normal((char_vocab_size, char_dim)) * 0.1,
                          requires_grad=True),
        char_depth_kernel=Tensor(glorot(rng, char_kernel, 1, (char_kernel, char_dim)),
                                 requires_grad=True),
        char_point_kernel=Tensor(glorot(rng, char_dim, char_dim), requires_grad=True),
        char_bias=Tensor(np.zeros(char_dim), requires_grad=True),
        proj_w=Tensor(glorot(rng, fused, hidden_dim), requires_grad=True),
        proj_b=Tensor(np.zeros(hidden_dim), requires_grad=True),
        highway=highway)


def highway(x: Tensor, layers: list[HighwayLayerParams]) -> Tensor:
    """y = g * T(x) + (1 - g) * x per layer: T's relu and the gate g's
    sigmoid each run inside its ``dense``, so no pre-activation is kept."""
    for layer in layers:
        transformed = dense(x, layer.transform_w, layer.transform_b, activation="relu")
        gate = dense(x, layer.gate_w, layer.gate_b, activation="sigmoid")
        carried = multiply(subtract(Tensor(1.0), gate), x)
        x = add(multiply(gate, transformed), carried)
    return x


def embed(params: EmbeddingParams, word_ids: np.ndarray, char_ids: np.ndarray,
          word_dropout: float = 0.0, char_dropout: float = 0.0, rng=None) -> Tensor:
    """Map id arrays to fused features.

    ``word_ids`` is (..., n); ``char_ids`` is (..., n, char_limit). Output is
    (..., n, hidden). Dropout rates apply to the two lookup results before
    any mixing, and only given ``rng``, which draws the masks; None is eval mode.
    """
    word_ids = np.asarray(word_ids)
    char_ids = np.asarray(char_ids)

    words = embedding_lookup(params.word_table, word_ids)
    unk_slots = Tensor((word_ids == UNK_ID).astype(np.float64)[..., None])
    words = add(words, multiply(unk_slots, params.unk_vector))
    if rng is not None and word_dropout > 0.0:
        words = dropout_apply(words, dropout_mask(rng, words.shape, word_dropout))

    # One row per token; reshaping the ids leaves no record a float view.
    looked = embedding_lookup(params.char_table, char_ids.reshape(-1, char_ids.shape[-1]))
    chars = looked
    if rng is not None and char_dropout > 0.0:
        chars = dropout_apply(looked, dropout_mask(rng, looked.shape, char_dropout))
    pooled = depthwise_separable_conv1d(
        chars, params.char_depth_kernel, params.char_point_kernel, params.char_bias,
        pool=True)
    release(chars)
    release(looked)
    pooled = reshape(pooled, char_ids.shape[:-1] + pooled.shape[-1:])

    fused = concat([words, pooled], axis=-1)
    projected = dense(fused, params.proj_w, params.proj_b)
    return highway(projected, params.highway)

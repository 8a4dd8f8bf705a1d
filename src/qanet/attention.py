"""Context-query attention: similarity, two attention hops, fusion.

Similarity between every context position i and query position j is the
trilinear form f(q, c) = <w_q, q> + <w_c, c> + <w_qc, q*c>. The three
weight blocks let S be assembled from two rank-one terms and one matrix
product, so the n*m*3d concatenation is never materialized.

Storage is row-major positions-by-features everywhere: context C is n*d,
query Q is m*d, similarity S is n*m. Row softmax attends context->query
(A = S_row @ Q); the second hop reuses the column softmax for
query->context (B = S_row @ S_col^T @ C).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import glorot
from .tensor import (
    DimensionMismatch, Tensor, add, concat, matmul, multiply, reshape,
    softmax, swap_last_axes,
)


@dataclass
class TrilinearWeights:
    """Three d-length blocks of the similarity weight vector."""
    w_q: Tensor
    w_c: Tensor
    w_qc: Tensor


@dataclass
class AttentionMatrices:
    S: Tensor        # raw similarity, n x m
    S_row: Tensor    # row softmax over queries
    S_col: Tensor    # column softmax over context positions
    A: Tensor        # context-to-query summary, n x d
    B: Tensor        # query-to-context summary, n x d


@dataclass
class CqAttentionParams:
    weights: TrilinearWeights
    proj_w: Tensor   # 4d -> d
    proj_b: Tensor


def init_cq_attention(dim: int, rng) -> CqAttentionParams:
    return CqAttentionParams(
        weights=TrilinearWeights(
            w_q=Tensor(glorot(rng, dim, 1, (dim,)), requires_grad=True),
            w_c=Tensor(glorot(rng, dim, 1, (dim,)), requires_grad=True),
            w_qc=Tensor(glorot(rng, dim, 1, (dim,)), requires_grad=True)),
        proj_w=Tensor(glorot(rng, 4 * dim, dim), requires_grad=True),
        proj_b=Tensor(np.zeros(dim), requires_grad=True))


def trilinear_similarity(C: Tensor, Q: Tensor, weights: TrilinearWeights) -> Tensor:
    """S[i, j] = f(Q_j, C_i) for C (..., n, d) and Q (..., m, d)."""
    d = C.shape[-1]
    if Q.shape[-1] != d:
        raise DimensionMismatch(f"feature widths differ: {d} vs {Q.shape[-1]}")
    for block in (weights.w_q, weights.w_c, weights.w_qc):
        if block.shape != (d,):
            raise DimensionMismatch(f"weight block {block.shape} wants ({d},)")
    c_term = matmul(C, reshape(weights.w_c, (d, 1)))                 # (..., n, 1)
    q_term = swap_last_axes(matmul(Q, reshape(weights.w_q, (d, 1))))  # (..., 1, m)
    cross = matmul(multiply(C, weights.w_qc), swap_last_axes(Q))
    return add(add(c_term, q_term), cross)


def c2q_attention(S_row: Tensor, Q: Tensor) -> Tensor:
    if S_row.shape[-1] != Q.shape[-2]:
        raise DimensionMismatch(
            f"query counts differ: {S_row.shape[-1]} vs {Q.shape[-2]}")
    return matmul(S_row, Q)


def q2c_attention(S_row: Tensor, S_col: Tensor, C: Tensor) -> Tensor:
    if S_row.shape != S_col.shape:
        raise DimensionMismatch(
            f"softmax shapes differ: {S_row.shape} vs {S_col.shape}")
    if S_col.shape[-2] != C.shape[-2]:
        raise DimensionMismatch(
            f"context counts differ: {S_col.shape[-2]} vs {C.shape[-2]}")
    return matmul(matmul(S_row, swap_last_axes(S_col)), C)


def fuse(C: Tensor, A: Tensor, B: Tensor) -> Tensor:
    """Per-position concatenation [c; a; c*a; c*b], width 4d."""
    if not (C.shape == A.shape == B.shape):
        raise DimensionMismatch(
            f"fusion inputs differ: {C.shape}, {A.shape}, {B.shape}")
    return concat([C, A, multiply(C, A), multiply(C, B)], axis=-1)


def context_query_attention(context: Tensor, query: Tensor,
                            weights: TrilinearWeights,
                            context_mask: np.ndarray | None = None,
                            question_mask: np.ndarray | None = None) -> AttentionMatrices:
    """Full layer: similarity, both softmaxes, both attention summaries.

    Masks are (..., n) and (..., m) arrays of 1.0/0.0 marking real tokens.
    """
    S = trilinear_similarity(context, query, weights)
    q_mask = None if question_mask is None else np.asarray(question_mask)[..., None, :]
    c_mask = None if context_mask is None else np.asarray(context_mask)[..., :, None]
    S_row = softmax(S, axis=-1, mask=q_mask)
    S_col = softmax(S, axis=-2, mask=c_mask)
    A = c2q_attention(S_row, query)
    B = q2c_attention(S_row, S_col, context)
    return AttentionMatrices(S=S, S_row=S_row, S_col=S_col, A=A, B=B)


def cq_attention_forward(context: Tensor, query: Tensor,
                         params: CqAttentionParams,
                         context_mask: np.ndarray | None = None,
                         question_mask: np.ndarray | None = None) -> Tensor:
    """Fused and projected attention output, (..., n, d)."""
    m = context_query_attention(context, query, params.weights,
                                context_mask, question_mask)
    fused = fuse(context, m.A, m.B)
    return add(matmul(fused, params.proj_w), params.proj_b)

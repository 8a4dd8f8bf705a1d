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
    Tensor, add, concat, dense, matmul, multiply, reshape, softmax,
    swap_last_axes,
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
    c_term = matmul(C, reshape(weights.w_c, (d, 1)))                 # (..., n, 1)
    q_term = swap_last_axes(matmul(Q, reshape(weights.w_q, (d, 1))))  # (..., 1, m)
    cross = matmul(multiply(C, weights.w_qc), swap_last_axes(Q))
    return add(add(c_term, q_term), cross)


def context_query_attention(context: Tensor, query: Tensor, weights: TrilinearWeights,
                            context_mask: np.ndarray,
                            question_mask: np.ndarray) -> AttentionMatrices:
    """Full layer: similarity, both softmaxes, both attention summaries.

    The required masks are (..., n) and (..., m) arrays of 1.0/0.0 marking
    real tokens; the row softmax masks padded questions, the column softmax
    padded context.
    """
    S = trilinear_similarity(context, query, weights)
    S_row = softmax(S, axis=-1, mask=np.asarray(question_mask)[..., None, :])
    S_col = softmax(S, axis=-2, mask=np.asarray(context_mask)[..., :, None])
    A = matmul(S_row, query)
    B = matmul(matmul(S_row, swap_last_axes(S_col)), context)
    return AttentionMatrices(S=S, S_row=S_row, S_col=S_col, A=A, B=B)


def cq_attention_forward(context: Tensor, query: Tensor, params: CqAttentionParams,
                         context_mask: np.ndarray, question_mask: np.ndarray) -> Tensor:
    """Fused and projected attention output, (..., n, d); the masks are
    required, as in :func:`context_query_attention`."""
    m = context_query_attention(context, query, params.weights,
                                context_mask, question_mask)
    fused = concat([context, m.A, multiply(context, m.A),
                    multiply(context, m.B)], axis=-1)  # [c; a; c*a; c*b], 4d
    return dense(fused, params.proj_w, params.proj_b)

"""Answer span head: start/end logits, the loss, distributions and DP inference.

The three stacked model-encoder outputs share their first block: start
logits read [M0; M1] and end logits read [M0; M2], each through a single
2d-length weight vector. The loss takes their masked log-softmax, exactly;
prediction their softmax. Inference maximizes p1[s] * p2[e] over pairs
with s <= e and a width cap, by a linear sweep that tracks the best start
inside the sliding window.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .encoder import glorot
from .tensor import (
    DimensionMismatch, Tensor, add, concat, gather_last, log_softmax, matmul,
    multiply, reduce_sum, reshape, softmax,
)


class EmptyDistribution(ValueError):
    """Inference over zero usable positions."""


@dataclass
class SpanLogits:
    start: Tensor  # (..., n) start logits
    end: Tensor  # (..., n) end logits
    mask: np.ndarray  # (..., n) 1.0 at real positions, 0.0 at padding


@dataclass
class SpanPrediction:
    start: int
    end: int
    score: float


@dataclass
class SpanHeadParams:
    w1: Tensor  # (2d,)
    w2: Tensor  # (2d,)


def init_span_head(dim: int, rng) -> SpanHeadParams:
    return SpanHeadParams(
        w1=Tensor(glorot(rng, 2 * dim, 1, (2 * dim,)), requires_grad=True),
        w2=Tensor(glorot(rng, 2 * dim, 1, (2 * dim,)), requires_grad=True))


def span_logits(M0: Tensor, M1: Tensor, M2: Tensor, W1: Tensor, W2: Tensor,
                mask: np.ndarray) -> SpanLogits:
    """Start reads [M0; M1], end reads [M0; M2]; the required (..., n)
    ``mask`` marks the usable positions with 1.0."""
    def head(second, w):  # [M0; second] @ w, without the product's trailing 1
        return reshape(matmul(concat([M0, second], axis=-1), reshape(w, (-1, 1))), M0.shape[:-1])
    return SpanLogits(start=head(M1, W1), end=head(M2, W2), mask=mask)


def span_distributions(logits: SpanLogits) -> tuple[Tensor, Tensor]:
    """Start and end probabilities over the usable positions, for prediction."""
    return (softmax(logits.start, axis=-1, mask=logits.mask),
            softmax(logits.end, axis=-1, mask=logits.mask))


def span_loss(logits: SpanLogits, starts, ends) -> Tensor:
    """Mean of -(log p1[start] + log p2[end]), each term ``logit − logsumexp``
    with no floor, so a gold position far below the max keeps its gradient.
    Labels index real positions, as ``QaExample.validate`` ensures."""
    gold_terms = add(gather_last(log_softmax(logits.start, -1, logits.mask), starts),
                     gather_last(log_softmax(logits.end, -1, logits.mask), ends))
    return multiply(reduce_sum(gold_terms), Tensor(-1.0 / np.size(starts)))


def dp_span_inference(p1: np.ndarray, p2: np.ndarray,
                      max_len: int) -> SpanPrediction:
    """Best (s, e) with s <= e and e - s + 1 <= max_len.

    One pass over end positions; a monotonically decreasing deque of start
    candidates yields the window maximum of p1. Ties prefer smaller start,
    then smaller end.
    """
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    if p1.ndim != 1 or p1.shape != p2.shape:
        raise DimensionMismatch(f"want matching vectors, got {p1.shape}, {p2.shape}")
    n = p1.shape[0]
    if n == 0 or p1.max() <= 0.0 or p2.max() <= 0.0:
        raise EmptyDistribution("no usable positions")
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")

    best_s = best_e = -1
    best = -1.0
    starts: deque[int] = deque()
    for e in range(n):
        while starts and starts[0] < e - max_len + 1:
            starts.popleft()
        # Strict pops keep the earliest index among equal p1 values at the
        # front, which is exactly the smallest-s tie rule.
        while starts and p1[starts[-1]] < p1[e]:
            starts.pop()
        starts.append(e)
        s = starts[0]
        score = p1[s] * p2[e]
        if score > best or (score == best and (s, e) < (best_s, best_e)):
            best, best_s, best_e = score, s, e
    return SpanPrediction(start=best_s, end=best_e, score=float(best))

"""Answer span head: start/end distributions, loss, and DP inference.

The three stacked model-encoder outputs share their first block: start
logits read [M0; M1] and end logits read [M0; M2], each through a single
2d-length weight vector. Inference maximizes p1[s] * p2[e] over pairs with
s <= e and a width cap, by a linear sweep that tracks the best start inside
the sliding window.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .encoder import glorot
from .tensor import (
    DimensionMismatch, Tensor, add, clamp_min, concat, gather_last, log,
    matmul, reduce_sum, reshape, scalar_scale, softmax,
)

PROB_FLOOR = 1e-30


class GoldIndexMasked(ValueError):
    """A training label points at a padded position."""


class EmptyDistribution(ValueError):
    """Inference over zero usable positions."""


@dataclass
class SpanDistributions:
    p1: Tensor                      # (..., n) start probabilities
    p2: Tensor                      # (..., n) end probabilities
    mask: np.ndarray | None = None  # 1.0 at real positions


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


def _logits(first: Tensor, second: Tensor, w: Tensor) -> Tensor:
    width = first.shape[-1] + second.shape[-1]
    if w.shape != (width,):
        raise DimensionMismatch(f"weight {w.shape} wants ({width},)")
    joined = concat([first, second], axis=-1)
    out = matmul(joined, reshape(w, (width, 1)))
    return reshape(out, out.shape[:-1])


def span_distributions(M0: Tensor, M1: Tensor, M2: Tensor, W1: Tensor,
                       W2: Tensor, mask: np.ndarray | None = None) -> SpanDistributions:
    """Start reads [M0; M1], end reads [M0; M2]; both softmax over positions."""
    if not (M0.shape == M1.shape == M2.shape):
        raise DimensionMismatch(
            f"encoder outputs differ: {M0.shape}, {M1.shape}, {M2.shape}")
    p1 = softmax(_logits(M0, M1, W1), axis=-1, mask=mask)
    p2 = softmax(_logits(M0, M2, W2), axis=-1, mask=mask)
    return SpanDistributions(p1=p1, p2=p2, mask=mask)


def span_loss(dist: SpanDistributions, starts, ends) -> Tensor:
    """Mean of -(log p1[start] + log p2[end]); probabilities floored at 1e-30."""
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    p1, p2 = dist.p1, dist.p2
    if p1.data.ndim == 1:
        p1 = reshape(p1, (1,) + p1.shape)
        p2 = reshape(p2, (1,) + p2.shape)
        starts = starts.reshape((1,))
        ends = ends.reshape((1,))
    if dist.mask is not None:
        mask = np.asarray(dist.mask, dtype=np.float64)
        mask = np.broadcast_to(mask, p1.shape)
        picked_s = np.take_along_axis(mask, starts[..., None], axis=-1)
        picked_e = np.take_along_axis(mask, ends[..., None], axis=-1)
        if np.any(picked_s == 0.0) or np.any(picked_e == 0.0):
            raise GoldIndexMasked("label index at a padded position")
    count = int(np.prod(starts.shape))
    gold_terms = add(log(clamp_min(gather_last(p1, starts), PROB_FLOOR)),
                     log(clamp_min(gather_last(p2, ends), PROB_FLOOR)))
    return scalar_scale(reduce_sum(gold_terms), -1.0 / count)


def dp_span_inference(p1: np.ndarray, p2: np.ndarray,
                      max_len: int = 30) -> SpanPrediction:
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

"""Span head: distribution shapes, loss closed forms, DP vs enumeration."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qanet.span import (
    EmptyDistribution, SpanLogits, SpanPrediction, dp_span_inference,
    init_span_head, span_distributions, span_logits, span_loss,
)
from qanet.tensor import DimensionMismatch, Tensor, backward

from gradcheck import check_gradients


def head_inputs(n=6, d=4, batch=None, seed=0):
    rng = np.random.default_rng(seed)
    shape = (n, d) if batch is None else (batch, n, d)
    return [rng.standard_normal(shape) for _ in range(3)], rng


def brute_force_span(p1, p2, max_len=30):
    """Exhaustive argmax with the smallest-s, smallest-e tie rule."""
    best = None
    n = len(p1)
    for s in range(n):
        for e in range(s, min(n, s + max_len)):
            key = (-p1[s] * p2[e], s, e)
            if best is None or key < best:
                best = key
    return SpanPrediction(start=best[1], end=best[2], score=-best[0])


def distributions(M0, M1, M2, w1, w2, mask):
    return span_distributions(span_logits(Tensor(M0), Tensor(M1), Tensor(M2), w1, w2, mask))


def loss_of(start, end, starts, ends, mask=None):
    """span_loss over plain start and end logits, every position usable by default."""
    mask = np.ones(np.shape(start)) if mask is None else mask
    return span_loss(SpanLogits(Tensor(start), Tensor(end), mask), starts, ends)


class TestDistributions:
    def test_zero_weights_uniform(self):
        (M0, M1, M2), _ = head_inputs()
        p1, p2 = distributions(M0, M1, M2, Tensor(np.zeros(8)), Tensor(np.zeros(8)), np.ones(6))
        np.testing.assert_allclose(p1.data, np.full(6, 1 / 6), atol=1e-12)
        np.testing.assert_allclose(p2.data, np.full(6, 1 / 6), atol=1e-12)

    def test_single_unmasked_position(self):
        (M0, M1, M2), rng = head_inputs(n=4)
        mask = np.array([0.0, 0.0, 1.0, 0.0])
        params = init_span_head(4, rng)
        for p in distributions(M0, M1, M2, params.w1, params.w2, mask):
            np.testing.assert_array_equal(p.data, mask)

    def test_normalization_and_masking(self):
        (M0, M1, M2), rng = head_inputs(n=17, batch=3, seed=5)
        mask = np.ones((3, 17))
        mask[0, 10:] = 0.0
        mask[2, 5:] = 0.0
        params = init_span_head(4, rng)
        for p in distributions(M0, M1, M2, params.w1, params.w2, mask):
            p = p.data
            np.testing.assert_allclose(p.sum(axis=-1), np.ones(3), atol=1e-9)
            np.testing.assert_array_equal(p[0, 10:], np.zeros(7))
            np.testing.assert_array_equal(p[2, 5:], np.zeros(12))

    def test_shape_mismatches_rejected(self):
        (M0, M1, M2), _ = head_inputs()
        with pytest.raises(DimensionMismatch):
            span_logits(Tensor(M0), Tensor(M1[:4]), Tensor(M2),
                        Tensor(np.zeros(8)), Tensor(np.zeros(8)), np.ones(6))
        with pytest.raises(DimensionMismatch):
            span_logits(Tensor(M0), Tensor(M1), Tensor(M2),
                        Tensor(np.zeros(7)), Tensor(np.zeros(8)), np.ones(6))


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        loss = loss_of([-800.0, 0.0, -800.0], [-800.0, -800.0, 0.0], 1, 2)
        assert loss.data == 0.0

    def test_uniform_closed_form(self):
        loss = loss_of(np.zeros(4), np.zeros(4), 0, 3)
        assert loss.data == pytest.approx(2 * np.log(4), abs=1e-12)

    def test_batch_mean(self):
        p = np.array([[0.5, 0.5], [0.25, 0.75]])
        loss = loss_of(np.log(p), np.log(p), np.array([0, 1]), np.array([1, 1]))
        expect = -(np.log(0.5) + np.log(0.5) + np.log(0.75) + np.log(0.75)) / 2
        assert loss.data == pytest.approx(expect, abs=1e-12)

    def test_padding_takes_no_probability(self):
        """Masked positions leave the loss as if they were cut off, whatever
        their logits, and get exactly zero gradient."""
        rng = np.random.default_rng(4)
        start, end = rng.standard_normal((2, 2, 6)) * 3.0
        start[:, 4:] = 50.0
        mask = np.ones((2, 6))
        mask[:, 4:] = 0.0
        logits = SpanLogits(Tensor(start, requires_grad=True), Tensor(end, requires_grad=True),
                            mask)
        loss = span_loss(logits, np.array([0, 3]), np.array([2, 3]))
        cut = loss_of(start[:, :4], end[:, :4], np.array([0, 3]), np.array([2, 3]))
        assert loss.data == pytest.approx(cut.data, rel=1e-12)
        backward(loss)
        for t in (logits.start, logits.end):
            assert not np.any(t.grad[:, 4:])

    def test_gold_far_below_max_keeps_exact_loss_and_gradient(self):
        """A gold start 80 logits below the max has probability e^-80, below
        1e-30: its loss term is -(logit - logsumexp) to 1e-12 relative, and
        its gradient is finite and non-zero. The gold end is certain, so its
        term is exactly 0."""
        start = Tensor([[0.0, -80.0, -3.0, 9.0]], requires_grad=True)
        end = Tensor([[0.0, -800.0, -800.0, 9.0]], requires_grad=True)
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])  # the largest logit is padding
        loss = span_loss(SpanLogits(start, end, mask), np.array([1]), np.array([0]))
        logsumexp = math.log1p(math.exp(-3.0) + math.exp(-80.0))
        assert math.exp(-80.0 - logsumexp) < 1e-30
        assert loss.data == pytest.approx(-(-80.0 - logsumexp), rel=1e-12)
        backward(loss)
        grad = start.grad[0]
        assert np.all(np.isfinite(grad)) and grad[1] != 0.0
        # d/dz of -(z_gold - logsumexp) is p - onehot over the usable slots.
        p = np.exp(np.array([0.0, -80.0, -3.0]) - logsumexp)
        np.testing.assert_allclose(grad[:3], p - [0.0, 1.0, 0.0], rtol=1e-12)
        assert grad[3] == 0.0

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            logits = rng.standard_normal((2, 5))
            loss = loss_of(logits, logits, np.array([0, 4]), np.array([2, 4]))
            assert loss.data >= 0.0

    def test_gradient_through_head(self):
        (M0, M1, M2), rng = head_inputs(n=5, d=3, batch=2, seed=9)
        params = init_span_head(3, rng)
        mask = np.ones((2, 5))
        mask[1, 4:] = 0.0
        starts = np.array([1, 0])
        ends = np.array([3, 2])

        def make_loss(tensors):
            return span_loss(span_logits(*tensors, mask), starts, ends)

        check_gradients(make_loss, [M0, M1, M2, params.w1.data, params.w2.data],
                        tol=1e-5)


class TestInference:
    def test_hand_case(self):
        got = dp_span_inference(np.array([0.1, 0.6, 0.3]),
                                np.array([0.2, 0.3, 0.5]), max_len=30)
        assert (got.start, got.end) == (1, 2)
        assert got.score == pytest.approx(0.30, abs=1e-12)

    @pytest.mark.parametrize("max_len", [0, -2])
    def test_max_len_below_one_refused(self, max_len):
        with pytest.raises(ValueError, match=f"max_len must be positive, got {max_len}"):
            dp_span_inference(np.array([0.5, 0.5]), np.array([0.5, 0.5]), max_len)

    def test_single_position(self):
        got = dp_span_inference(np.array([1.0]), np.array([1.0]), max_len=30)
        assert (got.start, got.end, got.score) == (0, 0, 1.0)

    def test_wrong_order_mass_still_valid_pair(self):
        p1 = np.zeros(6)
        p2 = np.zeros(6)
        p1[5] = 0.9
        p1[:5] = 0.02
        p2[2] = 0.9
        p2[np.arange(6) != 2] = 0.02
        got = dp_span_inference(p1, p2, max_len=30)
        assert got.start <= got.end
        expect = brute_force_span(p1, p2)
        assert (got.start, got.end) == (expect.start, expect.end)

    def test_max_len_window(self):
        p1 = np.zeros(10)
        p2 = np.zeros(10)
        p1[0] = 1.0
        p2[9] = 1.0
        got = dp_span_inference(p1, p2, max_len=5)
        expect = brute_force_span(p1, p2, max_len=5)
        assert (got.start, got.end) == (expect.start, expect.end)
        assert got.end - got.start + 1 <= 5

    def test_tie_prefers_smallest_start_then_end(self):
        # All pairs tie at 0.25; brute-force order and DP must agree on (0,0).
        half = np.array([0.5, 0.5])
        got = dp_span_inference(half, half, max_len=30)
        assert (got.start, got.end) == (0, 0)
        # Tie between (0,2) and (1,1): smaller start wins even at later end.
        p1 = np.array([0.5, 0.5, 0.0])
        p2 = np.array([0.0, 0.4, 0.4])
        got = dp_span_inference(p1, p2, max_len=30)
        expect = brute_force_span(p1, p2)
        assert (got.start, got.end) == (expect.start, expect.end) == (0, 1)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDistribution):
            dp_span_inference(np.array([]), np.array([]), max_len=30)
        with pytest.raises(EmptyDistribution):
            dp_span_inference(np.zeros(4), np.full(4, 0.25), max_len=30)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(DimensionMismatch):
            dp_span_inference(np.zeros(4), np.zeros(5), max_len=30)

    def test_thousand_random_instances_match_enumeration(self):
        rng = np.random.default_rng(123)
        for trial in range(1000):
            n = int(rng.integers(1, 40))
            p1 = rng.random(n)
            p2 = rng.random(n)
            if rng.random() < 0.3:
                # Quantize to force score ties.
                p1 = np.round(p1, 1)
                p2 = np.round(p2, 1)
                p1[p1 == 0.0] = 0.1
                p2[p2 == 0.0] = 0.1
            max_len = int(rng.integers(1, 35))
            got = dp_span_inference(p1, p2, max_len=max_len)
            expect = brute_force_span(p1, p2, max_len=max_len)
            assert (got.start, got.end) == (expect.start, expect.end), \
                f"trial {trial}"
            assert got.score == pytest.approx(expect.score, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 25), st.integers(0, 2 ** 31 - 1),
           st.floats(0.1, 10.0))
    def test_temperature_consistency(self, n, seed, temp):
        rng = np.random.default_rng(seed)
        logits1 = rng.standard_normal(n) * temp
        logits2 = rng.standard_normal(n) * temp
        p1 = np.exp(logits1 - logits1.max())
        p1 /= p1.sum()
        p2 = np.exp(logits2 - logits2.max())
        p2 /= p2.sum()
        got = dp_span_inference(p1, p2, max_len=30)
        expect = brute_force_span(p1, p2)
        assert (got.start, got.end) == (expect.start, expect.end)

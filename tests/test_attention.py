"""Context-query attention against naive oracles and hand values."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qanet.attention import (
    AttentionMatrices, CqAttentionParams, TrilinearWeights,
    context_query_attention, cq_attention_forward, init_cq_attention,
    trilinear_similarity,
)
from qanet.tensor import (
    DimensionMismatch, Tensor, add, backward, multiply, no_grad, softmax,
)

from gradcheck import check_gradients, weighted_sum_loss


def rand_weights(d, rng):
    return TrilinearWeights(w_q=Tensor(rng.standard_normal(d)),
                            w_c=Tensor(rng.standard_normal(d)),
                            w_qc=Tensor(rng.standard_normal(d)))


def all_real(x):
    """The all-ones mask over ``x``'s positions: every token is real."""
    return np.ones(np.shape(x)[:-1])


def cq_unpadded(C, Q, w):
    """The full layer over a context and question with no padding."""
    return context_query_attention(C, Q, w, all_real(C.data), all_real(Q.data))


def naive_similarity(C, Q, w):
    """Direct dot product against the concatenated 3d weight vector."""
    n, m = C.shape[0], Q.shape[0]
    big = np.concatenate([w.w_q.data, w.w_c.data, w.w_qc.data])
    S = np.empty((n, m))
    for i in range(n):
        for j in range(m):
            S[i, j] = big @ np.concatenate([Q[j], C[i], Q[j] * C[i]])
    return S


class TestTrilinear:
    def test_hand_value(self):
        # (3+4) + (1+2) + (3+8) = 21 with all-ones weight blocks.
        w = TrilinearWeights(w_q=Tensor(np.ones(2)), w_c=Tensor(np.ones(2)),
                             w_qc=Tensor(np.ones(2)))
        S = trilinear_similarity(Tensor([[1.0, 2.0]]), Tensor([[3.0, 4.0]]), w)
        assert S.data.shape == (1, 1)
        assert S.data[0, 0] == pytest.approx(21.0, abs=1e-12)

    def test_zero_weights_give_uniform_rows(self):
        rng = np.random.default_rng(0)
        w = TrilinearWeights(w_q=Tensor(np.zeros(4)), w_c=Tensor(np.zeros(4)),
                             w_qc=Tensor(np.zeros(4)))
        out = cq_unpadded(Tensor(rng.standard_normal((3, 4))),
                          Tensor(rng.standard_normal((5, 4))), w)
        np.testing.assert_array_equal(out.S.data, np.zeros((3, 5)))
        np.testing.assert_allclose(out.S_row.data, np.full((3, 5), 0.2),
                                   atol=1e-12)

    def test_matches_naive_materialization(self):
        rng = np.random.default_rng(1)
        C = rng.standard_normal((4, 5))
        Q = rng.standard_normal((3, 5))
        w = rand_weights(5, rng)
        S = trilinear_similarity(Tensor(C), Tensor(Q), w).data
        np.testing.assert_allclose(S, naive_similarity(C, Q, w), atol=1e-10)

    def test_batched_matches_per_example(self):
        rng = np.random.default_rng(2)
        C = rng.standard_normal((2, 4, 5))
        Q = rng.standard_normal((2, 3, 5))
        w = rand_weights(5, rng)
        S = trilinear_similarity(Tensor(C), Tensor(Q), w).data
        for b in range(2):
            np.testing.assert_allclose(S[b], naive_similarity(C[b], Q[b], w),
                                       atol=1e-10)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        w = rand_weights(5, rng)
        with pytest.raises(DimensionMismatch):
            trilinear_similarity(Tensor(rng.standard_normal((4, 5))),
                                 Tensor(rng.standard_normal((3, 6))), w)
        with pytest.raises(DimensionMismatch):
            trilinear_similarity(Tensor(rng.standard_normal((4, 6))),
                                 Tensor(rng.standard_normal((3, 6))), w)


class TestAttentionHops:
    """A = S_row @ Q and B = S_row @ S_col^T @ C inside the full layer."""

    def test_one_hot_row_selects_query(self):
        # The cross block reads only the first four features, where queries
        # are orthonormal; scaled by 50, each S_row row is one-hot to within
        # exp(-50), and A copies the selected query's random tail too.
        rng = np.random.default_rng(4)
        Q = np.hstack([np.eye(4), rng.standard_normal((4, 3))])
        C = np.hstack([np.eye(4)[[2, 0]], np.zeros((2, 3))])
        w = TrilinearWeights(w_q=Tensor(np.zeros(7)), w_c=Tensor(np.zeros(7)),
                             w_qc=Tensor(np.r_[np.full(4, 50.0), np.zeros(3)]))
        out = cq_unpadded(Tensor(C), Tensor(Q), w)
        np.testing.assert_allclose(out.A.data[0], Q[2], atol=1e-12)
        np.testing.assert_allclose(out.A.data[1], Q[0], atol=1e-12)

    def test_uniform_row_averages_queries(self):
        rng = np.random.default_rng(5)
        Q = rng.standard_normal((4, 3))
        zero = TrilinearWeights(w_q=Tensor(np.zeros(3)), w_c=Tensor(np.zeros(3)),
                                w_qc=Tensor(np.zeros(3)))
        out = cq_unpadded(Tensor(rng.standard_normal((2, 3))), Tensor(Q), zero)
        np.testing.assert_array_equal(out.S_row.data, np.full((2, 4), 0.25))
        np.testing.assert_allclose(out.A.data,
                                   np.broadcast_to(Q.mean(axis=0), (2, 3)),
                                   atol=1e-12)

    def test_c2q_matches_brute_force(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((5, 3))
        Q = rng.standard_normal((4, 3))
        out = cq_unpadded(Tensor(C), Tensor(Q), rand_weights(3, rng))
        S_row = out.S_row.data
        expect = np.array([[sum(S_row[i, j] * Q[j, k] for j in range(4))
                            for k in range(3)] for i in range(5)])
        np.testing.assert_allclose(out.A.data, expect, atol=1e-12)

    def test_q2c_singleton_returns_context(self):
        rng = np.random.default_rng(7)
        C = Tensor([[2.0, -1.0, 3.0]])
        out = cq_unpadded(C, Tensor(rng.standard_normal((1, 3))), rand_weights(3, rng))
        np.testing.assert_array_equal(out.B.data, C.data)

    def test_q2c_near_permutation(self):
        # Huge diagonal logits make both softmaxes near-identity, so the
        # two-hop product returns (almost) the context itself.
        C = np.eye(3)
        w = TrilinearWeights(w_q=Tensor(np.zeros(3)), w_c=Tensor(np.zeros(3)),
                             w_qc=Tensor(np.full(3, 50.0)))
        out = cq_unpadded(Tensor(C), Tensor(np.eye(3)), w)
        np.testing.assert_allclose(out.S.data, np.eye(3) * 50.0, atol=0)
        np.testing.assert_allclose(out.B.data, C, atol=1e-9)

    def test_q2c_matches_brute_force(self):
        rng = np.random.default_rng(8)
        C = rng.standard_normal((5, 3))
        out = cq_unpadded(Tensor(C), Tensor(rng.standard_normal((4, 3))),
                          rand_weights(3, rng))
        S_row, S_col = out.S_row.data, out.S_col.data
        expect = np.zeros((5, 3))
        for i in range(5):
            for j in range(4):
                for i2 in range(5):
                    expect[i] += S_row[i, j] * S_col[i2, j] * C[i2]
        np.testing.assert_allclose(out.B.data, expect, atol=1e-12)


def fused_output(C, Q, weights):
    """``cq_attention_forward`` under an identity projection: the 4d fusion."""
    width = 4 * C.shape[-1]
    params = CqAttentionParams(weights=weights, proj_w=Tensor(np.eye(width)),
                               proj_b=Tensor(np.zeros(width)))
    return cq_attention_forward(Tensor(C), Tensor(Q), params,
                                all_real(C), all_real(Q)).data


class TestFuse:
    def test_layout_is_c_a_ca_cb(self):
        rng = np.random.default_rng(10)
        C = rng.standard_normal((3, 2))
        Q = rng.standard_normal((4, 2))
        w = rand_weights(2, rng)
        m = cq_unpadded(Tensor(C), Tensor(Q), w)
        A, B = m.A.data, m.B.data
        np.testing.assert_array_equal(fused_output(C, Q, w),
                                      np.concatenate([C, A, C * A, C * B], axis=-1))

    def test_ones_context_passes_products_through(self):
        rng = np.random.default_rng(11)
        Q = rng.standard_normal((4, 2))
        w = rand_weights(2, rng)
        m = cq_unpadded(Tensor(np.ones((3, 2))), Tensor(Q), w)
        out = fused_output(np.ones((3, 2)), Q, w)
        np.testing.assert_array_equal(out[:, 4:6], m.A.data)
        np.testing.assert_array_equal(out[:, 6:8], m.B.data)

    def test_width_is_4d(self):
        rng = np.random.default_rng(12)
        got = fused_output(rng.random((7, 128)), rng.random((5, 128)),
                           rand_weights(128, rng))
        assert got.shape == (7, 512)


class TestMasking:
    def setup_case(self, seed=13):
        rng = np.random.default_rng(seed)
        C = rng.standard_normal((2, 6, 4))
        Q = rng.standard_normal((2, 5, 4))
        c_mask = np.ones((2, 6))
        q_mask = np.ones((2, 5))
        c_mask[0, 4:] = 0.0
        q_mask[0, 3:] = 0.0
        c_mask[1, 5:] = 0.0
        q_mask[1, 4:] = 0.0
        return C, Q, c_mask, q_mask, rand_weights(4, rng)

    def test_masked_entries_exactly_zero(self):
        C, Q, c_mask, q_mask, w = self.setup_case()
        out = context_query_attention(Tensor(C), Tensor(Q), w, c_mask, q_mask)
        np.testing.assert_array_equal(out.S_row.data[0, :, 3:],
                                      np.zeros((6, 2)))
        np.testing.assert_array_equal(out.S_col.data[0, 4:, :],
                                      np.zeros((2, 5)))

    def test_row_and_column_stochastic(self):
        C, Q, c_mask, q_mask, w = self.setup_case()
        out = context_query_attention(Tensor(C), Tensor(Q), w, c_mask, q_mask)
        np.testing.assert_allclose(out.S_row.data.sum(axis=-1),
                                   np.ones((2, 6)), atol=1e-9)
        np.testing.assert_allclose(out.S_col.data.sum(axis=-2),
                                   np.ones((2, 5)), atol=1e-9)

    def test_padded_positions_cannot_influence_real_output(self):
        C, Q, c_mask, q_mask, w = self.setup_case()
        base = context_query_attention(Tensor(C), Tensor(Q), w, c_mask, q_mask)
        C2, Q2 = C.copy(), Q.copy()
        C2[0, 4:] = 123.0
        Q2[0, 3:] = -55.0
        poked = context_query_attention(Tensor(C2), Tensor(Q2), w, c_mask, q_mask)
        np.testing.assert_array_equal(base.A.data[0, :4], poked.A.data[0, :4])
        np.testing.assert_array_equal(base.B.data[0, :4], poked.B.data[0, :4])

    def test_shift_invariance(self):
        C, Q, c_mask, q_mask, w = self.setup_case()
        S = trilinear_similarity(Tensor(C), Tensor(Q), w)
        shifted = Tensor(S.data + 7.5)
        for axis, mask in ((-1, q_mask[:, None, :]), (-2, c_mask[:, :, None])):
            a = softmax(S, axis=axis, mask=mask).data
            b = softmax(shifted, axis=axis, mask=mask).data
            np.testing.assert_allclose(a, b, atol=1e-9)


def reference_masked_softmax(logits, mask, axis):
    """The three-op chain the fused masked softmax replaced: the oracle.

    Masked logits get a -1e30 bias, a plain softmax runs, and a multiply by
    the mask pins masked slots (and wholly masked slices) to exact zeros.
    The middle softmax's all-ones mask leaves every slot usable.
    """
    mask = np.asarray(mask, dtype=np.float64)
    shifted = add(logits, Tensor((mask - 1.0) * 1e30))
    return multiply(softmax(shifted, axis=axis, mask=np.ones(mask.shape)), Tensor(mask))


class TestMaskedSoftmaxMatchesChain:
    """``softmax(x, axis, mask)`` against the three-op reference chain."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_values_and_gradients_equal(self, axis, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((3, 6, 5)) * 4.0
        mask_shape = (3, 1, 5) if axis == -1 else (3, 6, 1)
        mask = (rng.random(mask_shape) < 0.6).astype(np.float64)
        usable = np.moveaxis(mask, axis, 0)
        usable[0] = 1.0  # every slice keeps a usable slot
        w = rng.standard_normal(x.shape)

        def run(attend):
            t = Tensor(x.copy(), requires_grad=True)
            out = attend(t)
            backward(weighted_sum_loss(out, w))
            return out.data, t.grad

        fused = run(lambda t: softmax(t, axis=axis, mask=mask))
        chain = run(lambda t: reference_masked_softmax(t, mask, axis))
        assert fused[0].tobytes() == chain[0].tobytes()
        assert fused[1].tobytes() == chain[1].tobytes()

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_fully_masked_slice_is_zero(self, axis):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
        mask = np.ones((2, 1, 3) if axis == -1 else (2, 4, 1))
        mask[1] = 0.0  # the second batch entry has no usable slot
        out = softmax(x, axis=axis, mask=mask)
        backward(weighted_sum_loss(out, rng.standard_normal(x.shape)))
        np.testing.assert_array_equal(out.data[1], np.zeros((4, 3)))
        np.testing.assert_array_equal(x.grad[1], np.zeros((4, 3)))
        np.testing.assert_allclose(out.data[0].sum(axis=axis), 1.0, atol=1e-12)
        assert np.all(x.grad[0] != 0.0)

    def test_mask_that_does_not_broadcast_rejected(self):
        with pytest.raises(DimensionMismatch):
            softmax(Tensor(np.zeros((2, 3))), axis=-1, mask=np.ones(4))
        with pytest.raises(DimensionMismatch):
            softmax(Tensor(np.zeros(3)), axis=-1, mask=np.ones((2, 3)))

    def test_empty_question_gives_zero_row_attention(self):
        C, Q = np.ones((2, 4, 3)), np.ones((2, 2, 3))
        q_mask = np.array([[1.0, 1.0], [0.0, 0.0]])
        out = context_query_attention(Tensor(C), Tensor(Q),
                                      rand_weights(3, np.random.default_rng(2)),
                                      np.ones((2, 4)), q_mask)
        np.testing.assert_array_equal(out.S_row.data[1], np.zeros((4, 2)))
        np.testing.assert_array_equal(out.A.data[1], np.zeros((4, 3)))
        assert np.all(np.isfinite(out.B.data))


class TestForward:
    def test_projected_shape(self):
        rng = np.random.default_rng(14)
        params = init_cq_attention(4, rng)
        out = cq_attention_forward(Tensor(rng.standard_normal((2, 6, 4))),
                                   Tensor(rng.standard_normal((2, 5, 4))),
                                   params, np.ones((2, 6)), np.ones((2, 5)))
        assert out.shape == (2, 6, 4)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2 ** 31 - 1))
    def test_stochasticity_properties(self, n, m, d, seed):
        rng = np.random.default_rng(seed)
        w = rand_weights(d, rng)
        with no_grad():
            out = cq_unpadded(Tensor(rng.standard_normal((n, d))),
                              Tensor(rng.standard_normal((m, d))), w)
        np.testing.assert_allclose(out.S_row.data.sum(axis=-1), np.ones(n),
                                   atol=1e-9)
        np.testing.assert_allclose(out.S_col.data.sum(axis=-2), np.ones(m),
                                   atol=1e-9)


class TestGradientGate:
    def test_full_layer_finite_differences(self):
        rng = np.random.default_rng(15)
        n, m, d = 5, 4, 3
        C = rng.standard_normal((n, d))
        Q = rng.standard_normal((m, d))
        c_mask = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        q_mask = np.array([1.0, 1.0, 1.0, 0.0])
        params = init_cq_attention(d, rng)
        weights = rng.standard_normal((n, d))

        arrays = [C, Q, params.weights.w_q.data, params.weights.w_c.data,
                  params.weights.w_qc.data, params.proj_w.data,
                  params.proj_b.data]

        def make_loss(tensors):
            c, q, wq, wc, wqc, pw, pb = tensors
            p = CqAttentionParams(
                weights=TrilinearWeights(w_q=wq, w_c=wc, w_qc=wqc),
                proj_w=pw, proj_b=pb)
            out = cq_attention_forward(c, q, p, c_mask, q_mask)
            return weighted_sum_loss(out, weights)

        check_gradients(make_loss, arrays, tol=1e-4)

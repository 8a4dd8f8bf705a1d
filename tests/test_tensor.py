"""Tensor engine: forward values, backward over shared nodes, and the gradient gate."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qanet.tensor as T
from qanet.tensor import Tensor, backward
from gradcheck import check_gradients, relative_error, weighted_sum_loss

RNG = np.random.default_rng(20240817)


def rand(*shape, scale=1.0, offset=0.0, rng=RNG):
    return rng.standard_normal(shape) * scale + offset


class TestForwardValues:
    def test_matmul_hand_value(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_matmul_inner_mismatch(self):
        with pytest.raises(T.DimensionMismatch):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_softmax_hand_value(self):
        out = T.softmax(Tensor([0.0, np.log(3.0)]), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_softmax_shift_invariance_and_sum(self):
        x = rand(5, 7)
        a = T.softmax(Tensor(x), axis=-1).data
        b = T.softmax(Tensor(x + 123.456), axis=-1).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_extreme_logits_finite(self):
        out = T.softmax(Tensor([1e30, 0.0, -1e30]), axis=-1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)

    def test_softmax_monotone_in_logit(self):
        x = rand(9)
        base = T.softmax(Tensor(x), axis=0).data[3]
        x2 = x.copy()
        x2[3] += 0.5
        assert T.softmax(Tensor(x2), axis=0).data[3] > base

    def test_softmax_axis_out_of_range(self):
        with pytest.raises(T.AxisOutOfRange):
            T.softmax(Tensor(np.ones((2, 2))), axis=2)

    def test_layernorm_hand_value(self):
        out = T.layernorm(Tensor([1.0, 3.0]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_layernorm_moments(self):
        x = rand(4, 6, scale=3.0, offset=2.0)
        out = T.layernorm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-5)

    def test_conv_hand_value(self):
        # length 3, one channel, kernel [1,1,1], identity pointwise: [1,2,3] -> [3,6,5]
        out = T.depthwise_separable_conv1d(
            Tensor([[1.0], [2.0], [3.0]]),
            Tensor([[1.0], [1.0], [1.0]]),
            Tensor([[1.0]]),
            Tensor([0.0]))
        np.testing.assert_allclose(out.data, [[3.0], [6.0], [5.0]])

    def test_conv_even_kernel_rejected(self):
        with pytest.raises(T.EvenKernel):
            T.depthwise_separable_conv1d(
                Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2))),
                Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_conv_batched_matches_loop(self):
        x = rand(3, 6, 4)
        dk, pk, b = rand(5, 4), rand(4, 2), rand(2)
        batched = T.depthwise_separable_conv1d(Tensor(x), Tensor(dk), Tensor(pk), Tensor(b)).data
        for i in range(3):
            single = T.depthwise_separable_conv1d(
                Tensor(x[i]), Tensor(dk), Tensor(pk), Tensor(b)).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_max_over_axis_first_tie_wins(self):
        x = Tensor(np.array([[1.0, 5.0, 5.0, 2.0]]), requires_grad=True)
        out = T.max_over_axis(x, axis=1)
        assert out.data[0] == 5.0
        backward(T.reduce_sum(out))
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 0.0]])

    def test_embedding_lookup_and_duplicate_grads(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = T.embedding_lookup(table, np.array([1, 1, 3]))
        np.testing.assert_array_equal(out.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
        backward(T.reduce_sum(out))
        np.testing.assert_array_equal(table.grad[1], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(table.grad[0], [0.0, 0.0, 0.0])

    def test_embedding_lookup_out_of_range(self):
        with pytest.raises(T.IdOutOfRange):
            T.embedding_lookup(Tensor(np.ones((4, 3))), np.array([4]))

    def test_broadcast_add_leading_axes(self):
        out = T.add(Tensor(np.ones((2, 3, 4))), Tensor(np.arange(4.0)))
        np.testing.assert_allclose(out.data[1, 2], [1, 2, 3, 4])

    def test_scaled_dot_attention_shape_errors(self):
        x = Tensor(np.ones((2, 4, 6)))
        with pytest.raises(T.DimensionMismatch, match="heads"):
            T.scaled_dot_attention(x, x, x, 4)
        with pytest.raises(T.DimensionMismatch):
            T.scaled_dot_attention(x, x, Tensor(np.ones((2, 3, 6))), 2)
        with pytest.raises(T.DimensionMismatch, match="mask"):
            T.scaled_dot_attention(x, x, x, 2, np.zeros((2, 5)))

    def test_scaled_dot_attention_fully_masked_query_is_zero(self):
        rng = np.random.default_rng(21)
        qkv = [Tensor(rng.standard_normal((2, 4, 6)), requires_grad=True)
               for _ in range(3)]
        key_mask = np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
        out = T.scaled_dot_attention(*qkv, 2, key_mask)
        backward(weighted_sum_loss(out, rng.standard_normal((2, 4, 6))))
        np.testing.assert_array_equal(out.data[1], np.zeros((4, 6)))
        for t in qkv:
            np.testing.assert_array_equal(t.grad[1], np.zeros((4, 6)))
            assert np.any(t.grad[0] != 0.0)
        assert np.all(qkv[1].grad[0, 2] == 0.0)  # the masked key

    def test_finite_outputs_on_finite_inputs(self):
        x = rand(6, 8, scale=50.0)
        outs = [
            T.softmax(Tensor(x), axis=-1),
            T.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))),
            T.relu(Tensor(x)),
            T.sigmoid(Tensor(x)),
        ]
        for o in outs:
            assert np.all(np.isfinite(o.data))


class TestTape:
    def test_shared_nodes_get_complete_adjoints(self):
        # y feeds two consumers and x three: backward must finish every
        # consumer's contribution before it passes y's adjoint on.
        def diamond(ts):
            x, = ts
            y = T.relu(T.matmul(x, x))
            return T.reduce_sum(T.multiply(y, T.add(y, x)))
        check_gradients(diamond, [rand(3, 3, rng=np.random.default_rng(3))])

    def test_backward_requires_scalar(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(T.NotScalar):
            backward(T.relu(x))

    def test_backward_detached(self):
        with pytest.raises(T.DetachedTensor):
            backward(Tensor(3.0))

    def test_disconnected_input_gets_zero_grad(self):
        x = Tensor(rand(3), requires_grad=True)
        y = Tensor(rand(3), requires_grad=True)
        backward(T.reduce_sum(T.multiply(x, x)))
        np.testing.assert_array_equal(y.grad, np.zeros(3))

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        loss = T.reduce_sum(T.multiply(x, x))
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(x.grad, [8.0])
        x.zero_grad()
        backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor(rand(2), requires_grad=True)
        with T.no_grad():
            y = T.reduce_sum(T.multiply(x, x))
        assert y.op is None and not y.requires_grad
        with pytest.raises(T.DetachedTensor):
            backward(y)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
            w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            loss = T.reduce_sum(T.softmax(T.matmul(x, w), axis=-1))
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def instance_rngs(n, base):
    root = np.random.SeedSequence(base)
    return [np.random.default_rng(s) for s in root.spawn(n)]


class TestGradientGate:
    """Every differentiable op against central differences, 20 seeded draws."""

    N = 20

    def test_add_subtract_multiply(self):
        for rng in instance_rngs(self.N, 101):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((3, 4))
            c = rng.standard_normal(4)  # broadcast over the leading axis
            w = rng.standard_normal((3, 4))
            check_gradients(
                lambda ts: weighted_sum_loss(
                    T.multiply(T.add(ts[0], ts[2]), T.subtract(ts[0], ts[1])), w),
                [a, b, c], tol=1e-6)

    def test_scalar_scale(self):
        for rng in instance_rngs(self.N, 102):
            a = rng.standard_normal((2, 5))
            w = rng.standard_normal((2, 5))
            check_gradients(
                lambda ts: weighted_sum_loss(T.scalar_scale(ts[0], -2.5), w),
                [a], tol=1e-7)

    def test_matmul(self):
        for rng in instance_rngs(self.N, 103):
            a = rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2))
            w = rng.standard_normal((3, 2))
            check_gradients(
                lambda ts: weighted_sum_loss(T.matmul(ts[0], ts[1]), w),
                [a, b], tol=1e-7)

    def test_matmul_batched(self):
        for rng in instance_rngs(self.N, 104):
            a = rng.standard_normal((2, 3, 4))
            b = rng.standard_normal((4, 2))
            w = rng.standard_normal((2, 3, 2))
            check_gradients(
                lambda ts: weighted_sum_loss(T.matmul(ts[0], ts[1]), w),
                [a, b], tol=1e-7)

    def test_relu(self):
        for rng in instance_rngs(self.N, 105):
            a = rng.standard_normal((4, 4))
            a[np.abs(a) < 0.05] += 0.1  # keep probes away from the kink
            w = rng.standard_normal((4, 4))
            check_gradients(
                lambda ts: weighted_sum_loss(T.relu(ts[0]), w), [a], tol=1e-6)

    def test_sigmoid_log_clamp(self):
        for rng in instance_rngs(self.N, 106):
            a = rng.standard_normal((3, 3))
            p = rng.random((3, 3)) + 0.5
            p[np.abs(p - 1.0) < 0.05] += 0.1  # clamp kink at 1.0
            w = rng.standard_normal((3, 3))
            check_gradients(
                lambda ts: weighted_sum_loss(T.sigmoid(ts[0]), w), [a], tol=1e-6)
            check_gradients(
                lambda ts: weighted_sum_loss(T.log(T.clamp_min(ts[0], 1.0)), w),
                [p], tol=1e-5)

    def test_softmax(self):
        for rng in instance_rngs(self.N, 107):
            a = rng.standard_normal((3, 5)) * 2.0
            w = rng.standard_normal((3, 5))
            check_gradients(
                lambda ts: weighted_sum_loss(T.softmax(ts[0], axis=-1), w),
                [a], tol=1e-6)

    def test_layernorm(self):
        for rng in instance_rngs(self.N, 108):
            x = rng.standard_normal((3, 6))
            gain = rng.standard_normal(6)
            bias = rng.standard_normal(6)
            w = rng.standard_normal((3, 6))
            check_gradients(
                lambda ts: weighted_sum_loss(T.layernorm(ts[0], ts[1], ts[2]), w),
                [x, gain, bias], tol=1e-6)

    def test_concat_reshape_swap(self):
        for rng in instance_rngs(self.N, 109):
            a = rng.standard_normal((3, 2))
            b = rng.standard_normal((3, 4))
            w = rng.standard_normal((2, 6, 3))

            def loss(ts):
                cat = T.concat([ts[0], ts[1]], axis=1)         # (3, 6)
                cube = T.reshape(T.concat([cat, cat], axis=0), (2, 3, 6))
                return weighted_sum_loss(T.swap_last_axes(cube), w)

            check_gradients(loss, [a, b], tol=1e-6)

    def test_reduce_sum_and_max(self):
        for rng in instance_rngs(self.N, 110):
            a = rng.standard_normal((4, 5))
            a += np.arange(20).reshape(4, 5) * 1e-3  # break ties for max
            w = rng.standard_normal(4)
            check_gradients(
                lambda ts: weighted_sum_loss(T.max_over_axis(ts[0], 1), w),
                [a], tol=1e-6)
            check_gradients(lambda ts: T.reduce_sum(ts[0]), [a], tol=1e-7)

    def test_embedding_and_gather(self):
        for rng in instance_rngs(self.N, 111):
            table = rng.standard_normal((6, 3))
            ids = rng.integers(0, 6, size=(2, 4))
            probs = rng.random((3, 5)) + 0.1
            picks = rng.integers(0, 5, size=3)
            w = rng.standard_normal((2, 4, 3))
            wg = rng.standard_normal(3)
            check_gradients(
                lambda ts: weighted_sum_loss(T.embedding_lookup(ts[0], ids), w),
                [table], tol=1e-6)
            check_gradients(
                lambda ts: weighted_sum_loss(T.gather_last(ts[0], picks), wg),
                [probs], tol=1e-6)

    def test_dropout_apply(self):
        for rng in instance_rngs(self.N, 112):
            a = rng.standard_normal((4, 4))
            mask = T.dropout_mask(rng, (4, 4), 0.3)
            w = rng.standard_normal((4, 4))
            check_gradients(
                lambda ts: weighted_sum_loss(T.dropout_apply(ts[0], mask), w),
                [a], tol=1e-6)

    def test_conv(self):
        for rng in instance_rngs(self.N, 113):
            x = rng.standard_normal((2, 5, 3))
            dk = rng.standard_normal((3, 3))
            pk = rng.standard_normal((3, 2))
            b = rng.standard_normal(2)
            w = rng.standard_normal((2, 5, 2))
            check_gradients(
                lambda ts: weighted_sum_loss(
                    T.depthwise_separable_conv1d(ts[0], ts[1], ts[2], ts[3]), w),
                [x, dk, pk, b], tol=1e-6)

    def test_scaled_dot_attention(self):
        for rng in instance_rngs(self.N, 115):
            q = rng.standard_normal((2, 4, 6))
            k = rng.standard_normal((2, 3, 6))
            v = rng.standard_normal((2, 3, 6))
            key_mask = (rng.random((2, 3)) < 0.6).astype(np.float64)
            key_mask[:, 0] = 1.0  # every row keeps at least one key
            w = rng.standard_normal((2, 4, 6))
            check_gradients(
                lambda ts: weighted_sum_loss(
                    T.scaled_dot_attention(ts[0], ts[1], ts[2], 3, key_mask), w),
                [q, k, v], tol=1e-6)

    def test_composite_chain(self):
        # layernorm(conv(x W)) squeezed through softmax: mixed second derivatives.
        for rng in instance_rngs(self.N, 114):
            x = rng.standard_normal((4, 3))
            wmat = rng.standard_normal((3, 4))
            dk = rng.standard_normal((3, 4))
            pk = rng.standard_normal((4, 4))
            b = rng.standard_normal(4)
            gain = rng.standard_normal(4)
            bias = rng.standard_normal(4)
            w = rng.standard_normal((4, 4))

            def loss(ts):
                h = T.matmul(ts[0], ts[1])
                h = T.depthwise_separable_conv1d(h, ts[2], ts[3], ts[4])
                h = T.layernorm(h, ts[5], ts[6])
                return weighted_sum_loss(T.softmax(h, axis=-1), w)

            check_gradients(loss, [x, wmat, dk, pk, b, gain, bias], tol=1e-4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * 10
    out = T.softmax(Tensor(x), axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_layernorm_centering(dim, seed):
    x = np.random.default_rng(seed).standard_normal((3, dim)) * 5 + 1
    out = T.layernorm(Tensor(x), Tensor(np.ones(dim)), Tensor(np.zeros(dim))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)

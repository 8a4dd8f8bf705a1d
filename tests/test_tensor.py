"""Tensor engine: forward values, fused ops, and backward over shared nodes.

The finite-difference gate over every op is acceptance 01's sweep.
"""
from __future__ import annotations

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qanet.tensor as T
from qanet.tensor import Tensor, backward
from gradcheck import check_gradients, weighted_sum_loss
from tapebytes import bytes_by_op, held_arrays, kept_data, tape_bytes

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

    def test_multiply_and_concat_mismatch(self):
        with pytest.raises(T.DimensionMismatch):
            T.multiply(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))))
        with pytest.raises(T.DimensionMismatch):
            T.concat([Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2)))], axis=-1)

    def test_softmax_hand_value(self):
        out = T.softmax(Tensor([0.0, np.log(3.0)]), axis=-1, mask=np.ones(2))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_softmax_shift_invariance_and_sum(self):
        x = rand(5, 7)
        a = T.softmax(Tensor(x), axis=-1, mask=np.ones(x.shape)).data
        b = T.softmax(Tensor(x + 123.456), axis=-1, mask=np.ones(x.shape)).data
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-12)

    def test_softmax_extreme_logits_finite(self):
        out = T.softmax(Tensor([1e30, 0.0, -1e30]), axis=-1, mask=np.ones(3))
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data.sum(), 1.0, atol=1e-12)

    def test_softmax_monotone_in_logit(self):
        x = rand(9)
        base = T.softmax(Tensor(x), axis=0, mask=np.ones(9)).data[3]
        x2 = x.copy()
        x2[3] += 0.5
        assert T.softmax(Tensor(x2), axis=0, mask=np.ones(9)).data[3] > base

    def test_softmax_axis_out_of_range(self):
        with pytest.raises(T.AxisOutOfRange):
            T.softmax(Tensor(np.ones((2, 2))), axis=2, mask=np.ones((2, 2)))

    def test_log_softmax_is_log_of_softmax(self):
        x = rand(4, 5, scale=3.0, rng=np.random.default_rng(11))
        mask = np.ones((4, 5))
        mask[1, 3:] = 0.0
        got = T.log_softmax(Tensor(x), axis=-1, mask=mask).data
        want = T.softmax(Tensor(x), axis=-1, mask=mask).data
        np.testing.assert_allclose(got[mask == 1.0], np.log(want[mask == 1.0]), rtol=1e-12)

    def test_log_softmax_exact_where_softmax_underflows(self):
        out = T.log_softmax(Tensor([0.0, -800.0, np.log(3.0)]), axis=0, mask=np.ones(3))
        np.testing.assert_allclose(out.data, [-np.log(4.0), -800.0 - np.log(4.0),
                                              np.log(0.75)], rtol=1e-15)

    def test_log_softmax_masked_slots_and_empty_slice_are_zero(self):
        """Masked slots come out 0 and, like a slice with no usable slot, get
        exactly zero gradient."""
        rng = np.random.default_rng(12)
        x = Tensor(rand(2, 3, rng=rng), requires_grad=True)
        mask = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        out = T.log_softmax(x, axis=-1, mask=mask)
        assert np.all(out.data[mask == 0.0] == 0.0) and np.all(out.data[0, [0, 2]] < 0.0)
        backward(T.reduce_sum(T.multiply(out, Tensor(rand(2, 3, rng=rng)))))
        assert np.all(x.grad[mask == 0.0] == 0.0) and np.all(x.grad[0, [0, 2]] != 0.0)

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
            Tensor([[[1.0], [2.0], [3.0]]]),
            Tensor([[1.0], [1.0], [1.0]]),
            Tensor([[1.0]]),
            Tensor([0.0]))
        np.testing.assert_allclose(out.data, [[[3.0], [6.0], [5.0]]])

    def test_conv_even_kernel_rejected(self):
        with pytest.raises(T.EvenKernel):
            T.depthwise_separable_conv1d(
                Tensor(np.ones((1, 4, 2))), Tensor(np.ones((2, 2))),
                Tensor(np.eye(2)), Tensor(np.zeros(2)))

    @pytest.mark.parametrize("shape", [(4, 2), (2, 1, 4, 2)])
    def test_conv_input_must_be_3d(self, shape):
        with pytest.raises(T.DimensionMismatch, match="3-D"):
            T.depthwise_separable_conv1d(
                Tensor(np.ones(shape)), Tensor(np.ones((3, 2))),
                Tensor(np.eye(2)), Tensor(np.zeros(2)))

    def test_conv_batched_matches_loop(self):
        x = rand(3, 6, 4)
        dk, pk, b = rand(5, 4), rand(4, 2), rand(2)
        batched = T.depthwise_separable_conv1d(Tensor(x), Tensor(dk), Tensor(pk), Tensor(b)).data
        for i in range(3):
            one_row = T.depthwise_separable_conv1d(
                Tensor(x[i:i + 1]), Tensor(dk), Tensor(pk), Tensor(b)).data
            np.testing.assert_allclose(batched[i:i + 1], one_row, atol=1e-12)

    def test_pooled_conv_first_tie_wins(self):
        """A zero point kernel and bias tie every position at 0; through a
        unit width-1 depth kernel the point kernel's gradient is then the
        input at the position the gradient went to, which must be the first."""
        x = rand(2, 4, 3)
        point = Tensor(np.zeros((3, 2)), requires_grad=True)
        out = T.depthwise_separable_conv1d(Tensor(x), Tensor(np.ones((1, 3))), point,
                                           Tensor(np.zeros(2)), pool=True)
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))
        backward(T.reduce_sum(out))
        np.testing.assert_array_equal(point.grad, np.repeat(x[:, 0].sum(axis=0)[:, None], 2, 1))

    def test_pooled_conv_is_the_max_of_the_conv(self):
        x, dk, pk, b = (Tensor(a) for a in (rand(3, 6, 4), rand(5, 4), rand(4, 2), rand(2)))
        full = T.depthwise_separable_conv1d(x, dk, pk, b).data
        pooled = T.depthwise_separable_conv1d(x, dk, pk, b, pool=True).data
        assert pooled.tobytes() == full.max(axis=1).tobytes()

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
        keys = np.ones((2, 4))
        with pytest.raises(T.DimensionMismatch, match="heads"):
            T.scaled_dot_attention(x, x, x, 4, keys)
        with pytest.raises(T.DimensionMismatch):
            T.scaled_dot_attention(x, x, Tensor(np.ones((2, 3, 6))), 2, keys)
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
            T.softmax(Tensor(x), axis=-1, mask=np.ones(x.shape)),
            T.layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8))),
            T.dense(Tensor(x), Tensor(np.eye(8)), Tensor(np.zeros(8)), activation="relu"),
            T.dense(Tensor(x), Tensor(np.eye(8)), Tensor(np.zeros(8)), activation="sigmoid"),
        ]
        for o in outs:
            assert np.all(np.isfinite(o.data))


def ones(*shape):
    return Tensor(np.ones(shape))


# Each refusal of a malformed operand: the call, the error it raises, and a
# pattern its message must match, naming the shapes or values at fault.
REFUSALS = {
    "getattr:other_name": (lambda: ones(2).grad_fn, AttributeError, "grad_fn"),
    "add:shapes": (lambda: T.add(ones(2, 3), ones(4)), T.DimensionMismatch,
                   r"add: \(2, 3\) vs \(4,\)"),
    "subtract:shapes": (lambda: T.subtract(ones(2, 3), ones(2, 2)), T.DimensionMismatch,
                        r"subtract: \(2, 3\) vs \(2, 2\)"),
    "matmul:rank": (lambda: T.matmul(ones(3), ones(3, 2)), T.DimensionMismatch,
                    r"\(3,\) @ \(3, 2\)"),
    "layernorm:gain": (lambda: T.layernorm(ones(2, 4), ones(3), ones(4)),
                       T.DimensionMismatch, r"gain \(3,\) / bias \(4,\) vs feature dim 4"),
    "layernorm:bias": (lambda: T.layernorm(ones(2, 4), ones(4), ones(4, 1)),
                       T.DimensionMismatch, r"gain \(4,\) / bias \(4, 1\)"),
    "concat:empty": (lambda: T.concat([], axis=0), T.DimensionMismatch, "got none"),
    "concat:rank": (lambda: T.concat([ones(2, 3), ones(3)], axis=0), T.DimensionMismatch,
                    r"rank of \(2, 3\) vs \(3,\)"),
    "swap_last_axes:rank": (lambda: T.swap_last_axes(ones(3)), T.DimensionMismatch,
                            r"got \(3,\)"),
    "embedding_lookup:float_ids": (lambda: T.embedding_lookup(ones(4, 2), np.array([0.5])),
                                   ValueError, "got float64"),
    "gather_last:ids_shape": (lambda: T.gather_last(ones(3, 5), np.array([0, 1])),
                              T.DimensionMismatch, r"ids \(2,\) vs \(3, 5\)"),
    "dropout_apply:mask_shape": (
        lambda: T.dropout_apply(ones(2, 3), T.dropout_mask(np.random.default_rng(0), (3, 2), 0.5)),
        T.DimensionMismatch, r"dropout mask \(3, 2\) vs \(2, 3\)"),
    "conv:depth_kernel": (
        lambda: T.depthwise_separable_conv1d(ones(1, 4, 2), ones(3, 5), ones(2, 2), ones(2)),
        T.DimensionMismatch, r"depth kernel \(3, 5\) vs 2 channels"),
    "conv:point_kernel": (
        lambda: T.depthwise_separable_conv1d(ones(1, 4, 2), ones(3, 2), ones(5, 2), ones(2)),
        T.DimensionMismatch, r"point kernel \(5, 2\) vs 2 channels"),
    "conv:bias": (
        lambda: T.depthwise_separable_conv1d(ones(1, 4, 2), ones(3, 2), ones(2, 3), ones(2)),
        T.DimensionMismatch, r"bias \(2,\) vs 3 out channels"),
    "conv:pool_residual": (
        lambda: T.depthwise_separable_conv1d(ones(1, 4, 2), ones(3, 2), ones(2, 2), ones(2),
                                             residual=ones(1, 4, 2), pool=True),
        ValueError, "pool=True takes no residual or dropout"),
    "conv:pool_dropout": (
        lambda: T.depthwise_separable_conv1d(
            ones(1, 4, 2), ones(3, 2), ones(2, 2), ones(2), pool=True,
            dropout=T.dropout_mask(np.random.default_rng(0), (1, 4, 2), 0.5)),
        ValueError, "pool=True takes no residual or dropout"),
    "dense:unknown_activation": (lambda: T.dense(ones(2, 3), ones(3, 2), ones(2), activation="tanh"),
                                 ValueError, "dense: unknown activation 'tanh'"),
    "dense:activation_residual": (
        lambda: T.dense(ones(2, 3), ones(3, 2), ones(2), residual=ones(2, 2), activation="relu"),
        ValueError, "activation='relu' takes no residual or dropout"),
    "dense:activation_dropout": (
        lambda: T.dense(ones(2, 3), ones(3, 2), ones(2), activation="sigmoid",
                        dropout=T.dropout_mask(np.random.default_rng(0), (2, 2), 0.5)),
        ValueError, "activation='sigmoid' takes no residual or dropout"),
    "softmax:mask_none": (lambda: T.softmax(ones(2, 3), -1, None), TypeError,
                          "softmax: mask is None"),
    "log_softmax:mask_none": (lambda: T.log_softmax(ones(2, 3), -1, None), TypeError,
                              "log_softmax: mask is None"),
    "log_softmax:mask_shape": (lambda: T.log_softmax(ones(2, 3), -1, np.ones((3, 3))),
                               T.DimensionMismatch, r"mask \(3, 3\) vs \(2, 3\)"),
    "attention:mask_none": (lambda: T.scaled_dot_attention(ones(1, 4, 6), ones(1, 4, 6),
                                                           ones(1, 4, 6), 2, None),
                            TypeError, "attention: key_mask is None"),
    "attention:2d": (lambda: T.scaled_dot_attention(ones(4, 6), ones(4, 6), ones(4, 6), 2,
                                                    np.ones(4)),
                     T.DimensionMismatch, r"\(batch, n, d\).*q \(4, 6\)"),
    "attention:4d": (lambda: T.scaled_dot_attention(ones(1, 2, 4, 6), ones(1, 2, 4, 6),
                                                    ones(1, 2, 4, 6), 2, np.ones((1, 2, 4))),
                     T.DimensionMismatch, r"\(batch, n, d\).*q \(1, 2, 4, 6\)"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_malformed_operand_refused_by_shape_or_value(case):
    call, error, pattern = REFUSALS[case]
    with pytest.raises(error, match=pattern):
        call()


class TestFusedOpsMatchComposites:
    """Fused ops against the primitive-op chains they replace."""

    @staticmethod
    def run(make, arrays, weights):
        """Output and every input's gradient of ``make`` on fresh leaves."""
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = make(*leaves)
        backward(weighted_sum_loss(out, weights))
        return [out.data] + [t.grad for t in leaves]

    @pytest.mark.parametrize("lead", [(3, 5), (5,)], ids=["batched", "single"])
    def test_dense_matches_add_matmul(self, lead):
        rng = np.random.default_rng(31)
        arrays = [rng.standard_normal(lead + (4,)), rng.standard_normal((4, 6)),
                  rng.standard_normal(6)]
        w = rng.standard_normal(lead + (6,))
        fused = self.run(T.dense, arrays, w)
        chained = self.run(lambda x, m, b: T.add(T.matmul(x, m), b), arrays, w)
        for name, a, b in zip(["out", "x", "w", "b"], fused, chained):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("lead", [(3, 5), (5,)], ids=["batched", "single"])
    def test_dense_activation_bitwise_equal_to_numpy_reference(self, activation, lead):
        """The epilogue against the rules of separate activation ops: relu
        ``max(z, 0)`` with gradient ``g * (z > 0)``, sigmoid in two branches
        by the sign of ``z`` with gradient ``g * s * (1 - s)``, where ``z``
        is ``x @ w + b``. The draw holds pre-activations of both signs."""
        rng = np.random.default_rng(35)
        x, w, b = rng.standard_normal(lead + (4,)), rng.standard_normal((4, 6)), rng.standard_normal(6)
        g = rng.standard_normal(lead + (6,))
        z = x @ w
        z += b
        assert (z > 0).any() and (z < 0).any()
        if activation == "relu":
            out, gz = np.maximum(z, 0.0), g * (z > 0.0)
        else:
            out, pos = np.empty_like(z), z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ex = np.exp(z[~pos])
            out[~pos] = ex / (1.0 + ex)
            gz = g * out * (1.0 - out)
        gw = (np.swapaxes(x, -1, -2) @ gz).reshape(-1, 4, 6).sum(axis=0)
        want = [out, gz @ w.T, gw, gz.reshape(-1, 6).sum(axis=0)]
        got = self.run(lambda *ts: T.dense(*ts, activation=activation), [x, w, b], g)
        for name, a, b in zip(["out", "x", "w", "b"], got, want):
            assert a.tobytes() == b.tobytes(), name

    def test_dense_shape_errors(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(T.DimensionMismatch):
            T.dense(x, Tensor(np.ones((3, 5))), Tensor(np.ones(5)))
        with pytest.raises(T.DimensionMismatch):
            T.dense(x, Tensor(np.ones((4, 5))), Tensor(np.ones(4)))
        with pytest.raises(T.DimensionMismatch):
            T.dense(Tensor(np.ones(4)), Tensor(np.ones((4, 5))), Tensor(np.ones(5)))

    @pytest.mark.parametrize("rows", [
        np.array([[1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0, 0],
                  [1, 1, 0, 0, 0, 0, 0]], dtype=np.float64),
        np.array([[1, 1, 1, 1, 1, 0, 0]], dtype=np.float64),
    ], ids=["padded-batch", "one-row"])
    def test_masked_conv_matches_multiply_conv_multiply(self, rows):
        rng = np.random.default_rng(32)
        arrays = [rng.standard_normal(rows.shape + (4,)), rng.standard_normal((5, 4)),
                  rng.standard_normal((4, 3)), rng.standard_normal(3)]
        w = rng.standard_normal(rows.shape + (3,))
        columns = Tensor(rows[..., None])

        def chained(x, dk, pk, b):
            h = T.depthwise_separable_conv1d(T.multiply(x, columns), dk, pk, b)
            return T.multiply(h, columns)

        fused = self.run(lambda *ts: T.depthwise_separable_conv1d(*ts, mask=rows),
                         arrays, w)
        for name, a, b in zip(["out", "x", "depth", "point", "bias"],
                              fused, self.run(chained, arrays, w)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
        padded = rows == 0.0
        assert np.all(fused[0][padded] == 0.0) and np.all(fused[1][padded] == 0.0)

    def test_conv_mask_shape_error(self):
        with pytest.raises(T.DimensionMismatch, match="mask"):
            T.depthwise_separable_conv1d(
                Tensor(np.ones((2, 5, 3))), Tensor(np.ones((3, 3))),
                Tensor(np.ones((3, 3))), Tensor(np.zeros(3)), np.ones((2, 4)))

    @pytest.mark.parametrize("parts", ["residual+dropout", "residual", "dropout"])
    @pytest.mark.parametrize("op", ["dense", "conv", "masked_conv"])
    @pytest.mark.parametrize("lead", [(3, 7), (1, 7)], ids=["batched", "one-row"])
    def test_epilogue_bitwise_equal_to_add_dropout_apply(self, parts, op, lead):
        """``op(..., residual=r, dropout=m)`` against ``add(r, dropout_apply(op(...), m))``."""
        rng = np.random.default_rng(33)
        shape = lead + (4,)
        if op == "dense":
            arrays = [rng.standard_normal(shape), rng.standard_normal((4, 4)),
                      rng.standard_normal(4)]
            apply = T.dense
        else:
            rows = np.ones(lead)
            rows[..., 5:] = 0.0
            if lead[0] > 1:
                rows[1, 3:] = 0.0  # rows of a batch differ in padding
            arrays = [rng.standard_normal(shape), rng.standard_normal((3, 4)),
                      rng.standard_normal((4, 4)), rng.standard_normal(4)]

            def apply(*ts, **epilogue):
                return T.depthwise_separable_conv1d(
                    *ts, mask=rows if op == "masked_conv" else None, **epilogue)
        arrays.append(rng.standard_normal(shape))  # the residual
        w = rng.standard_normal(shape)
        ours, theirs = np.random.default_rng(34), np.random.default_rng(34)

        def fused(*ts):
            drop = T.dropout_mask(ours, shape, 0.3) if "dropout" in parts else None
            res = ts[-1] if "residual" in parts else None
            return apply(*ts[:-1], residual=res, dropout=drop)

        def chained(*ts):
            h = apply(*ts[:-1])
            if "dropout" in parts:
                h = T.dropout_apply(h, T.dropout_mask(theirs, shape, 0.3))
            return T.add(ts[-1], h) if "residual" in parts else h

        got, want = self.run(fused, arrays, w), self.run(chained, arrays, w)
        for i, (a, b) in enumerate(zip(got, want)):
            assert a.tobytes() == b.tobytes(), i
        assert ours.random() == theirs.random()

    def test_epilogue_shape_errors(self):
        x, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(4))
        with pytest.raises(T.DimensionMismatch, match="residual"):
            T.dense(x, w, b, residual=Tensor(np.ones((2, 3))))
        drop = T.dropout_mask(np.random.default_rng(0), (3, 4), 0.5)
        with pytest.raises(T.DimensionMismatch, match="dropout"):
            T.dense(x, w, b, dropout=drop)
        with pytest.raises(T.DimensionMismatch, match="residual"):
            T.depthwise_separable_conv1d(
                Tensor(np.ones((1, 5, 3))), Tensor(np.ones((3, 3))),
                Tensor(np.ones((3, 2))), Tensor(np.zeros(2)), residual=Tensor(np.ones((1, 5, 3))))

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.1])
    def test_dropout_mask_rate_outside_open_interval_refused(self, rate):
        with pytest.raises(ValueError, match="dropout rate"):
            T.dropout_mask(np.random.default_rng(0), (2, 3), rate)

    @pytest.mark.parametrize("shape", [(7,), (4, 5), (2, 3, 8), (8, 100, 64)])
    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.3, 0.5, 0.9])
    def test_dropout_mask_bitwise_equal_to_reference_formula(self, shape, rate):
        ours, theirs = np.random.default_rng(41), np.random.default_rng(41)
        keep = 1.0 - rate
        for _ in range(2):  # the generators must also stay in step
            want = (theirs.random(shape) < keep).astype(np.float64) / keep
            got = T.dropout_mask(ours, shape, rate)
            assert got.keep.dtype == np.bool_ and got.keep.shape == shape
            assert (got.keep * got.scale).tobytes() == want.tobytes()


class TestAttentionBlocks:
    """Blocked attention: every tiling of the (example, head) grid gives the
    same bits, because each block runs the same per-head matmuls and
    per-row reductions."""

    @pytest.mark.parametrize("batch,heads,rows,cols,budget", [
        (3, 4, 5, 7, 1), (3, 4, 5, 7, 4 * 5 * 7 * 8), (3, 4, 5, 7, 2 * 5 * 7 * 8),
        (5, 2, 3, 3, 1 << 20), (2, 8, 400, 400, 1 << 20), (1, 3, 2, 2, 3 * 2 * 2 * 8 - 1),
        (2, 6, 4, 4, 4 * 4 * 4 * 8)])
    def test_blocks_tile_the_grid(self, monkeypatch, batch, heads, rows, cols, budget):
        monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
        blocks, fit = T._attention_blocks(batch, heads, rows, cols)
        # fit is the largest divisor of heads that fits the budget, else 1.
        fits = [f for f in range(1, heads + 1)
                if heads % f == 0 and f * rows * cols * 8 <= budget]
        assert fit == max(fits, default=1)
        covered = np.zeros((batch, heads), dtype=int)
        for examples, head_slice in blocks:
            covered[examples, head_slice] += 1
            assert covered[examples, head_slice].shape == (1, fit)  # one example, equal blocks
        assert np.all(covered == 1)

    @pytest.mark.parametrize("case", ["padded", "all_real", "no_real_key"])
    def test_any_tiling_gives_the_same_bits(self, monkeypatch, case):
        batch, n, m, d, heads = 3, 5, 7, 12, 4
        rng = np.random.default_rng(31)
        q, w = rng.standard_normal((batch, n, d)), rng.standard_normal((batch, n, d))
        k, v = rng.standard_normal((batch, m, d)), rng.standard_normal((batch, m, d))
        mask = np.ones((batch, m))
        if case != "all_real":
            mask = (rng.random((batch, m)) < 0.6).astype(np.float64)
            mask[:, 0] = 1.0
            if case == "no_real_key":
                mask[1] = 0.0
        runs = []
        # One head per block, two heads per block, one example per block.
        for budget, count in ((1, batch * heads), (2 * n * m * 8, batch * heads // 2),
                              (1 << 30, batch)):
            monkeypatch.setattr(T, "_BLOCK_BYTES", budget)
            assert len(T._attention_blocks(batch, heads, n, m)[0]) == count
            runs.append(TestFusedOpsMatchComposites.run(
                lambda *ts: T.scaled_dot_attention(*ts, heads, mask), [q, k, v], w))
        for run in runs[:2]:
            for got, want in zip(run, runs[2]):
                assert got.tobytes() == want.tobytes()
        if case == "no_real_key":  # output and every gradient exactly zero
            for got in runs[0]:
                assert not np.any(got[1])


class TestTape:
    def test_shared_nodes_get_complete_adjoints(self):
        # y feeds two consumers and x three: backward must finish every
        # consumer's contribution before it passes y's adjoint on.
        def diamond(ts):
            x, = ts
            y = T.log_softmax(T.matmul(x, x), -1, np.ones((3, 3)))
            return T.reduce_sum(T.multiply(y, T.add(y, x)))
        check_gradients(diamond, [rand(3, 3, rng=np.random.default_rng(3))])

    def test_backward_requires_scalar(self):
        x = Tensor(rand(2, 2), requires_grad=True)
        with pytest.raises(T.NotScalar):
            backward(T.multiply(x, Tensor(2.0)))

    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_backward_detached(self, requires_grad):
        """A loss no op produced is refused, a requires_grad leaf too."""
        with pytest.raises(T.DetachedTensor):
            backward(Tensor(3.0, requires_grad=requires_grad))

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
        x.grad[...] = 0.0
        backward(loss)
        np.testing.assert_allclose(x.grad, [4.0])

    @staticmethod
    def _layernorm_graph(release: bool):
        """A layernorm output read by ``matmul`` and ``dense``, released or not
        before backward: the loss, the output, its forward bits, the leaves."""
        rng = np.random.default_rng(11)
        leaves = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((2, 3, 4), (4,), (4,), (4, 5), (5,))]
        x, gain, bias, w, b = leaves
        normed = T.layernorm(x, gain, bias)
        forward_bits = normed.data.tobytes()
        mixed = T.add(T.matmul(normed, w), T.dense(normed, w, b))
        loss = T.reduce_sum(T.multiply(mixed, mixed))
        if release:
            T.release(normed)
        return loss, normed, forward_bits, leaves

    def test_released_output_second_backward_accumulates(self):
        """Each pass rebuilds a released output: the first gives the bits of
        an unreleased graph, and a second one adds them again."""
        loss, _, _, kept = self._layernorm_graph(release=False)
        backward(loss)
        loss, normed, _, leaves = self._layernorm_graph(release=True)
        assert kept_data(normed) is None
        backward(loss)
        for t, want in zip(leaves, kept):
            assert t.grad.tobytes() == want.grad.tobytes()
        backward(loss)
        for t, want in zip(leaves, kept):
            assert t.grad.tobytes() == (want.grad + want.grad).tobytes()

    def test_released_output_read_after_backward(self):
        """A ``.data`` read after backward gives the forward's bits, and
        neither the tensor nor its record holds the rebuilt buffer."""
        loss, normed, forward_bits, _ = self._layernorm_graph(release=True)
        backward(loss)
        rebuilt = normed.data
        assert rebuilt.tobytes() == forward_bits
        held = weakref.ref(rebuilt)
        del rebuilt
        assert held() is None
        assert kept_data(normed) is None

    @staticmethod
    def _conv_graph():
        """A masked conv with a residual-and-dropout epilogue on leaves: the
        loss, the conv's output, the leaves, the mask and the dropout mask."""
        rng = np.random.default_rng(23)
        leaves = [Tensor(rng.standard_normal(shape), requires_grad=True)
                  for shape in ((2, 5, 4), (3, 4), (4, 3), (3,), (2, 5, 3))]
        rows = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64)
        drop = T.dropout_mask(rng, (2, 5, 3), 0.3)
        out = T.depthwise_separable_conv1d(*leaves[:4], mask=rows, residual=leaves[4],
                                           dropout=drop)
        return T.reduce_sum(T.multiply(out, out)), out, leaves, rows, drop

    def test_conv_second_backward_accumulates(self):
        """The conv rebuilds its padded input and depthwise output in each
        pass and keeps neither: a second pass adds the first pass's bits."""
        loss, _, leaves, _, _ = self._conv_graph()
        backward(loss)
        first = [t.grad.copy() for t in leaves]
        backward(loss)
        for t, want in zip(leaves, first):
            assert t.grad.tobytes() == (want + want).tobytes()

    def test_conv_tape_bytes_pinned(self):
        """The record keeps its output, the float mask, the one-byte dropout
        keep and the two kernels it reads in backward, nothing (2, 5, 4)."""
        _, out, leaves, rows, drop = self._conv_graph()
        want = {"depthwise_separable_conv1d": out.data.nbytes + rows.nbytes
                + drop.keep.nbytes + leaves[1].data.nbytes + leaves[2].data.nbytes}
        assert bytes_by_op(out) == want
        assert tape_bytes(out) == 542

    def test_second_release_changes_nothing(self):
        """A tensor released twice, as a conv input that is also the lookup
        output is, stays released and still reads as forward made it."""
        table = Tensor(rand(5, 3), requires_grad=True)
        looked = T.embedding_lookup(table, np.array([[4, 0], [2, 2]]))
        forward_bits = looked.data.tobytes()
        T.release(looked)
        T.release(looked)
        assert kept_data(looked) is None
        assert looked.data.tobytes() == forward_bits

    def test_released_add_reads_back_forward_bits(self):
        """A released sum is rebuilt by forward's own op on the same
        operands, so it reads back byte-equal, and a second release
        changes nothing."""
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        summed = T.add(x, Tensor(rng.standard_normal((3, 4))))
        forward_bits = summed.data.tobytes()
        for _ in range(2):
            T.release(summed)
            assert kept_data(summed) is None
            assert summed.data.tobytes() == forward_bits

    @pytest.mark.parametrize("shape", [(2, 3, 4), (3, 4)], ids=["batched", "single"])
    def test_released_dense_and_matmul_read_back_forward_bits(self, shape):
        """A plain ``dense`` and a ``matmul`` rebuild a released output with
        forward's own operations, so it reads back byte-equal."""
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal(shape), requires_grad=True)
        w, b = Tensor(rng.standard_normal((4, 5))), Tensor(rng.standard_normal(5))
        for out in (T.dense(x, w, b), T.matmul(x, w)):
            forward_bits = out.data.tobytes()
            T.release(out)
            assert kept_data(out) is None
            assert out.data.tobytes() == forward_bits

    def test_plain_dense_record_holds_no_output_array(self):
        """Without an activation the backward rule reads no output, so the
        record holds no float array of the output's shape: a released
        output's buffer is freed, not pinned by the closure."""
        x = Tensor(rand(2, 3, 4), requires_grad=True)
        out = T.dense(x, Tensor(rand(4, 5)), Tensor(rand(5)))
        held = held_arrays(out.op)
        assert held and not any(a.dtype.kind == "f" and a.shape == out.shape
                                for a in held), [a.shape for a in held]

    def test_layernorm_record_holds_no_input_array(self):
        """The record keeps row statistics and the gain and bias, not its
        input's array: backward reads ``x.data``, so a released input is
        rebuilt rather than pinned by the closure."""
        x = Tensor(rand(2, 3, 4), requires_grad=True)
        normed = T.layernorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        held = held_arrays(normed.op)
        assert held and not any(a.shape == x.shape for a in held), [a.shape for a in held]

    def test_released_tensor_keeps_its_shape(self):
        """A released tensor's ``.shape``, ``.ndim`` and ``repr`` read the
        shape recorded when its data was set and never call its rebuild
        rule; only a ``.data`` read does."""
        x = Tensor(rand(2, 3, 4), requires_grad=True)
        out = T.dense(x, Tensor(rand(4, 5)), Tensor(rand(5)))
        T.release(out)
        calls = []

        def counted(rule=out.op.rebuild):
            calls.append(rule)
            return rule()

        out.op.rebuild = counted
        assert (out.shape, out.ndim) == ((2, 3, 5), 3)
        assert repr(out) == "Tensor(shape=(2, 3, 5), requires_grad=True)"
        assert calls == []
        assert out.data.shape == (2, 3, 5) and len(calls) == 1

    def test_shape_follows_each_data_assignment(self):
        """Setting ``.data`` records the new array's shape, also on a
        released tensor, which then keeps the array it was given."""
        t = Tensor(rand(2, 3))
        t.data = np.zeros((4, 1, 5))
        assert (t.shape, t.ndim) == ((4, 1, 5), 3)
        out = T.add(Tensor(rand(2, 3), requires_grad=True), Tensor(rand(3)))
        T.release(out)
        out.data = given = np.zeros(7)
        assert (out.shape, out.ndim) == ((7,), 1) and kept_data(out) is given

    def test_release_keeps_an_output_nothing_rebuilds(self):
        """A leaf, an op without a rebuild rule, an unrecorded op, and a
        ``dense`` whose activation or epilogue has none keep their buffer."""
        x = Tensor(rand(2, 3), requires_grad=True)
        normed = T.layernorm(Tensor(rand(2, 3)), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        w, b, res = Tensor(rand(3, 4)), Tensor(rand(4)), Tensor(rand(2, 4))
        drop = T.dropout_mask(RNG, (2, 4), 0.3)
        dense = [T.dense(x, w, b, **kwargs) for kwargs in (
            {"activation": "relu"}, {"activation": "sigmoid"}, {"residual": res},
            {"dropout": drop}, {"residual": res, "dropout": drop})]
        for t in [x, T.log_softmax(x, -1, np.ones(3)), normed] + dense:
            data = t.data
            T.release(t)
            assert t.data is data

    def test_gradients_land_on_leaves_only(self):
        x = Tensor(rand(3), requires_grad=True)
        hidden = T.multiply(x, x)
        loss = T.reduce_sum(hidden)
        backward(loss)
        assert hidden.grad is None and loss.grad is None
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    @pytest.mark.parametrize("name", ["add", "subtract", "multiply"])
    def test_constant_operand_gets_none(self, name):
        """A constant operand gets None and costs nothing; the other operand's
        gradient keeps its bits."""
        rng = np.random.default_rng(9)
        op = getattr(T, name)
        x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        c = Tensor(rng.standard_normal(3))
        g = rng.standard_normal((2, 3))
        sign = -1.0 if name == "subtract" else 1.0
        want_a = g * c.data if name == "multiply" else g
        want_b = g * c.data if name == "multiply" else sign * g
        gx, gc = op(x, c).op.backward_fn(g)
        assert gc is None and gx.tobytes() == want_a.tobytes()
        gc, gx = op(c, x).op.backward_fn(g)
        assert gc is None and gx.tobytes() == want_b.tobytes()

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
            loss = T.reduce_sum(T.softmax(T.matmul(x, w), axis=-1, mask=np.ones((4, 3))))
            backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * 10
    out = T.softmax(Tensor(x), axis=-1, mask=np.ones(x.shape)).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(out >= 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_layernorm_centering(dim, seed):
    x = np.random.default_rng(seed).standard_normal((3, dim)) * 5 + 1
    out = T.layernorm(Tensor(x), Tensor(np.ones(dim)), Tensor(np.zeros(dim))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)

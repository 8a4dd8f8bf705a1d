"""Encoder blocks: position signal, attention, stochastic depth, stack."""
from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest

import qanet.encoder as E
import qanet.tensor as T
from qanet.tensor import Tensor, backward
from gradcheck import check_gradients, weighted_sum_loss


class TestPositionalEncoding:
    def test_hand_values(self):
        pe = E.positional_encoding(2, 4).data
        np.testing.assert_allclose(pe[0], [0.0, 1.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            pe[1],
            [math.sin(1.0), math.cos(1.0),
             math.sin(1.0 / 10000.0 ** (2.0 / 4.0)), math.cos(1.0 / 10000.0 ** (2.0 / 4.0))],
            atol=1e-15)

    def test_bounded(self):
        pe = E.positional_encoding(400, 128).data
        assert np.all(np.abs(pe) <= 1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(E.OddDimension):
            E.positional_encoding(4, 5)


class TestSurvivalSchedule:
    def test_endpoints(self):
        assert E.survival_probability(28, 28, 0.9) == pytest.approx(0.9, abs=0)
        assert E.survival_probability(1, 28, 0.9) == pytest.approx(1.0 - (1 / 28) * 0.1)

    def test_monotone(self):
        probs = [E.survival_probability(i, 10, 0.9) for i in range(1, 11)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            E.survival_probability(0, 10, 0.9)


class TestResidualSublayer:
    def test_eval_mode_always_applies(self):
        x = Tensor(np.ones((3, 4)))
        gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = E.residual_sublayer(x, lambda h: T.scalar_scale(h, 2.0),
                                  gain, bias, 0.0, False, None)
        assert out is not x

    def test_monte_carlo_survival(self):
        """Empirical survival over 10k seeded draws within ±2pp of p."""
        gain, bias = Tensor(np.ones(2)), Tensor(np.zeros(2))
        for p in (0.9, 0.95, 1.0):
            rng = np.random.default_rng(1234)
            x = Tensor(np.zeros((1, 2)))
            marker = Tensor(np.ones((1, 2)))
            survived = 0
            for _ in range(10_000):
                out = E.residual_sublayer(x, lambda h: marker, gain, bias,
                                          p, True, rng)
                survived += int(out.data[0, 0] != 0.0)
            assert abs(survived / 10_000 - p) < 0.02, f"p={p}"

    def test_skip_returns_input_unchanged(self):
        class AlwaysSkip:
            def random(self):
                return 0.999999

        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = E.residual_sublayer(x, lambda h: 1 / 0, Tensor(np.ones(3)),
                                  Tensor(np.zeros(3)), 0.5, True, AlwaysSkip())
        assert out is x


def tiny_attention_params(d, rng):
    def proj():
        return (Tensor(E.glorot(rng, d, d), requires_grad=True),
                Tensor(rng.standard_normal(d) * 0.1, requires_grad=True))

    qw, qb = proj()
    kw, kb = proj()
    vw, vb = proj()
    ow, ob = proj()
    return E.AttentionParams(qw, qb, kw, kb, vw, vb, ow, ob)


class TestSelfAttention:
    def test_single_position_passthrough(self):
        """With one position, attention reduces to the value/output projections."""
        rng = np.random.default_rng(0)
        d = 8
        params = tiny_attention_params(d, rng)
        x = rng.standard_normal((1, d))
        out = E.multi_head_self_attention(Tensor(x), params, num_heads=2)
        expected = (x @ params.value_w.data + params.value_b.data) \
            @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_masked_but_self_behaves_as_length_one(self):
        """One real position among padding matches the 1-token oracle."""
        rng = np.random.default_rng(1)
        d = 8
        params = tiny_attention_params(d, rng)
        x = rng.standard_normal((5, d))
        mask = np.zeros(5)
        mask[2] = 1.0
        out = E.multi_head_self_attention(Tensor(x), params, 2, mask)
        solo = E.multi_head_self_attention(Tensor(x[2:3]), params, 2)
        np.testing.assert_allclose(out.data[2], solo.data[0], atol=1e-12)

    def test_masked_positions_cannot_influence_real_ones(self):
        rng = np.random.default_rng(2)
        d = 8
        params = tiny_attention_params(d, rng)
        x = rng.standard_normal((6, d))
        mask = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        base = E.multi_head_self_attention(Tensor(x), params, 2, mask).data
        x2 = x.copy()
        x2[4:] += 1000.0
        bumped = E.multi_head_self_attention(Tensor(x2), params, 2, mask).data
        assert np.array_equal(base[:4], bumped[:4])

    def test_uniform_weights_average_values(self):
        """Equal keys give equal weights: output row = mean of value rows."""
        rng = np.random.default_rng(3)
        d = 4
        params = tiny_attention_params(d, rng)
        params.key_w = Tensor(np.zeros((d, d)))  # all logits identical
        params.key_b = Tensor(np.zeros(d))
        x = rng.standard_normal((5, d))
        out = E.multi_head_self_attention(Tensor(x), params, 2)
        v = x @ params.value_w.data + params.value_b.data
        expected = np.tile(v.mean(axis=0), (5, 1)) @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        d, n = 4, 3
        x = rng.standard_normal((n, d))
        mats = [rng.standard_normal((d, d)) * 0.5 for _ in range(4)]
        vecs = [rng.standard_normal(d) * 0.1 for _ in range(4)]
        w = rng.standard_normal((n, d))

        def loss(ts):
            params = E.AttentionParams(ts[1], ts[5], ts[2], ts[6],
                                       ts[3], ts[7], ts[4], ts[8])
            return weighted_sum_loss(
                E.multi_head_self_attention(ts[0], params, 2), w)

        # Index 6 is the key bias: it shifts every logit in a softmax row
        # equally, so its true gradient is identically zero and a relative
        # comparison is meaningless. Verified separately below.
        check_gradients(loss, [x] + mats + vecs, tol=1e-5,
                        check=[0, 1, 2, 3, 4, 5, 7, 8])

    def test_key_bias_gradient_is_zero(self):
        rng = np.random.default_rng(5)
        d = 4
        params = tiny_attention_params(d, rng)
        x = Tensor(rng.standard_normal((3, d)))
        out = E.multi_head_self_attention(x, params, 2)
        backward(weighted_sum_loss(out, rng.standard_normal((3, d))))
        assert np.linalg.norm(params.key_b.grad) < 1e-12


def reference_self_attention(x, params, num_heads, mask=None):
    """Per-head loop built from primitive tape ops: the fused op's oracle.

    Each head's features are picked by a 0/1 selector matmul, which copies
    them exactly, then go through their own matmul, scale, key-bias add,
    softmax and matmul before the heads are concatenated.
    """
    d = x.shape[-1]
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    q = T.add(T.matmul(x, params.query_w), params.query_b)
    k = T.add(T.matmul(x, params.key_w), params.key_b)
    v = T.add(T.matmul(x, params.value_w), params.value_b)
    bias = None
    if mask is not None:
        bias = Tensor(((np.asarray(mask, dtype=np.float64) - 1.0)
                       * 1e30)[..., None, :])
    heads = []
    for h in range(num_heads):
        pick = Tensor(np.eye(d)[:, h * head_dim:(h + 1) * head_dim])
        qh, kh, vh = (T.matmul(t, pick) for t in (q, k, v))
        logits = T.scalar_scale(T.matmul(qh, T.swap_last_axes(kh)), scale)
        if bias is not None:
            logits = T.add(logits, bias)
        heads.append(T.matmul(T.softmax(logits, axis=-1), vh))
    merged = T.concat(heads, axis=-1)
    return T.add(T.matmul(merged, params.out_w), params.out_b)


MIXED_PADDING = np.array([[1, 1, 1, 1, 1, 1, 1],
                          [1, 1, 1, 1, 0, 0, 0],
                          [1, 0, 0, 0, 0, 0, 0]], dtype=np.float64)


class TestFusedAttentionMatchesLoop:
    """The fused op against the per-head reference, output and gradients."""

    @pytest.mark.parametrize("d", [64, 128])  # head widths 8 (desk), 16 (paper)
    @pytest.mark.parametrize("shape,mask", [
        ((3, 7), MIXED_PADDING),
        ((3, 7), None),
        ((7,), MIXED_PADDING[1]),
        ((7,), None),
    ], ids=["batched-padded", "batched-nomask", "single-padded", "single-nomask"])
    def test_matches_reference(self, d, shape, mask):
        rng = np.random.default_rng(d + len(shape))
        params = tiny_attention_params(d, rng)
        x = Tensor(rng.standard_normal(shape[:-1] + (shape[-1], d)),
                   requires_grad=True)
        w = rng.standard_normal(x.shape)
        leaves = [x, params.query_w, params.query_b, params.key_w,
                  params.key_b, params.value_w, params.value_b,
                  params.out_w, params.out_b]

        def run(attend):
            for t in leaves:
                t.zero_grad()
            out = attend(x, params, 8, mask)
            backward(weighted_sum_loss(out, w))
            return [out.data] + [t.grad.copy() for t in leaves]

        fused = run(E.multi_head_self_attention)
        looped = run(reference_self_attention)
        names = ["output", "x"] + [f.name for f in fields(E.AttentionParams)]
        for name, a, b in zip(names, fused, looped):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)


def stack_setup(num_blocks=1, convs=2, d=8, n=5, heads=2, kernel=3, seed=0,
                survival=0.9, dropout=0.1):
    config = E.EncoderBlockConfig(
        num_blocks=num_blocks, num_conv_layers=convs, kernel_size=kernel,
        hidden_dim=d, num_heads=heads, dropout=dropout, survival_end=survival)
    rng = np.random.default_rng(seed)
    params = E.init_encoder_stack(config, rng)
    x = np.random.default_rng(seed + 1).standard_normal((n, d))
    return config, params, x


class TestEncoderStack:
    def test_shape_preserved(self):
        config, params, x = stack_setup()
        out = E.encoder_stack_forward(Tensor(x), config, params, None)
        assert out.shape == x.shape

    def test_batched_matches_single(self):
        config, params, x = stack_setup(n=4)
        xb = np.stack([x, x * 0.5])
        mask = np.ones((2, 4))
        out_b = E.encoder_stack_forward(Tensor(xb), config, params, mask).data
        out_0 = E.encoder_stack_forward(Tensor(x), config, params, np.ones(4)).data
        np.testing.assert_allclose(out_b[0], out_0, atol=1e-12)

    def test_zeroed_weights_leave_input_plus_position_signal(self):
        config, params, x = stack_setup(num_blocks=2, convs=1)
        for block in params.blocks:
            for conv in block.convs:
                conv.depth_kernel.data[...] = 0.0
                conv.point_kernel.data[...] = 0.0
                conv.bias.data[...] = 0.0
            a = block.attention.attention
            for t in (a.query_w, a.query_b, a.key_w, a.key_b,
                      a.value_w, a.value_b, a.out_w, a.out_b):
                t.data[...] = 0.0
            block.feed_forward.inner_w.data[...] = 0.0
            block.feed_forward.inner_b.data[...] = 0.0
            block.feed_forward.outer_w.data[...] = 0.0
            block.feed_forward.outer_b.data[...] = 0.0
        out = E.encoder_stack_forward(Tensor(x), config, params, None).data
        signal = E.positional_encoding(x.shape[0], x.shape[1]).data
        np.testing.assert_allclose(out, x + 2 * signal, atol=1e-12)

    def test_padded_positions_never_influence_real_ones(self):
        config, params, x = stack_setup(n=6)
        mask = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        base = E.encoder_stack_forward(Tensor(x), config, params, mask).data
        x2 = x.copy()
        x2[4:] = 123.0
        bumped = E.encoder_stack_forward(Tensor(x2), config, params, mask).data
        assert np.array_equal(base[:4], bumped[:4])

    def test_train_mode_deterministic_under_seed(self):
        config, params, x = stack_setup()
        mask = np.ones(5)

        def run():
            rng = np.random.default_rng(99)
            return E.encoder_stack_forward(Tensor(x), config, params, mask,
                                           train_mode=True, rng=rng).data

        assert np.array_equal(run(), run())

    def test_stack_gradients_toy_config(self):
        """End-to-end stack gradient vs finite differences on a 6x16 input."""
        config = E.EncoderBlockConfig(num_blocks=1, num_conv_layers=1,
                                      kernel_size=3, hidden_dim=16,
                                      num_heads=2, dropout=0.0)
        rng = np.random.default_rng(11)
        params = E.init_encoder_stack(config, rng)
        x = rng.standard_normal((6, 16)) * 0.5
        w = rng.standard_normal((6, 16))
        block = params.blocks[0]
        conv = block.convs[0]
        attn = block.attention
        ffn = block.feed_forward
        arrays = [x,
                  conv.depth_kernel.data, conv.point_kernel.data, conv.bias.data,
                  attn.attention.query_w.data, attn.attention.key_w.data,
                  attn.attention.value_w.data, attn.attention.out_w.data,
                  ffn.inner_w.data, ffn.outer_w.data,
                  conv.ln_gain.data, attn.ln_gain.data, ffn.ln_gain.data]

        def loss(ts):
            p = E.EncoderStackParams(blocks=[E.EncoderBlockParams(
                convs=[E.ConvSublayerParams(ts[10], conv.ln_bias, ts[1], ts[2], ts[3])],
                attention=E.AttentionSublayerParams(ts[11], attn.ln_bias,
                    E.AttentionParams(ts[4], attn.attention.query_b,
                                      ts[5], attn.attention.key_b,
                                      ts[6], attn.attention.value_b,
                                      ts[7], attn.attention.out_b)),
                feed_forward=E.FeedForwardSublayerParams(
                    ts[12], ffn.ln_bias, ts[8], ffn.inner_b, ts[9], ffn.outer_b))])
            out = E.encoder_stack_forward(ts[0], config, p, None)
            return weighted_sum_loss(out, w)

        check_gradients(loss, arrays, tol=1e-4)

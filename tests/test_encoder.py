"""Encoder blocks: position signal, attention, stochastic depth, stack."""
from __future__ import annotations

import math
import weakref
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

import qanet.encoder as E
import qanet.tensor as T
from qanet.tensor import Tensor, backward
from gradcheck import check_gradients, weighted_sum_loss
from tapebytes import bytes_by_op, held_arrays, kept_data, owner, records, tape_bytes


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

    def test_cached_signal_is_read_only(self):
        """Every forward shares the cached array, and backward reads it again
        to rebuild each released block sum, so a stray write must fail."""
        pe = E.positional_encoding(5, 8).data
        with pytest.raises(ValueError, match="read-only"):
            pe[0, 0] = 2.0
        assert pe[0, 0] == 0.0


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


class AlwaysSkip:
    """An rng stub whose every draw lies above any survival probability."""

    def random(self):
        return 0.999999


def ln_pair(d):
    """A layernorm's identity gain and zero bias."""
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


def ln_record(d):
    """A sublayer record holding only its layernorm's gain and bias."""
    gain, bias = ln_pair(d)
    return SimpleNamespace(ln_gain=gain, ln_bias=bias)


class TestResidualSublayer:
    def test_eval_mode_always_applies(self):
        """Without an rng the sublayer runs, on its own record, mask None."""
        x = Tensor(np.ones((3, 4)))
        record, seen = ln_record(4), []

        def f(h, params, res, mask):
            seen.append((params, res, mask))
            return T.add(res, h)

        out = E.residual_sublayer(x, f, record, 0.0, None)
        assert out is not x
        ((params, res, mask),) = seen
        assert params is record and res is x and mask is None

    def test_monte_carlo_survival(self):
        """Empirical survival over 10k seeded draws within ±2pp of p."""
        record = ln_record(2)
        for p in (0.9, 0.95, 1.0):
            rng = np.random.default_rng(1234)
            x = Tensor(np.zeros((1, 2)))
            marker = Tensor(np.ones((1, 2)))
            survived = 0
            for _ in range(10_000):
                out = E.residual_sublayer(x, lambda *args: marker, record, p, rng)
                survived += int(out.data[0, 0] != 0.0)
            assert abs(survived / 10_000 - p) < 0.02, f"p={p}"

    def test_skip_returns_input_unchanged(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        out = E.residual_sublayer(x, lambda *args: 1 / 0, ln_record(3), 0.5,
                                  AlwaysSkip())
        assert out is x


def tiny_attention_params(d, rng):
    def proj():
        return (Tensor(E.glorot(rng, d, d), requires_grad=True),
                Tensor(rng.standard_normal(d) * 0.1, requires_grad=True))

    qw, qb = proj()
    kw, _ = proj()  # the key bias draw stays, so the later draws keep their values
    vw, vb = proj()
    ow, ob = proj()
    return E.AttentionSublayerParams(*ln_pair(d), qw, qb, kw, vw, vb, ow, ob)


def attend(x, params, num_heads, mask):
    """Self-attention alone: no residual and no dropout in its epilogue."""
    return E.multi_head_self_attention(x, params, num_heads, mask, None, None)


class TestSelfAttention:
    def test_single_position_passthrough(self):
        """With one position, attention reduces to the value/output projections."""
        rng = np.random.default_rng(0)
        d = 8
        params = tiny_attention_params(d, rng)
        x = rng.standard_normal((1, 1, d))
        out = attend(Tensor(x), params, 2, np.ones((1, 1)))
        expected = (x @ params.value_w.data + params.value_b.data) \
            @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_masked_but_self_behaves_as_length_one(self):
        """One real position among padding matches the 1-token oracle."""
        rng = np.random.default_rng(1)
        d = 8
        params = tiny_attention_params(d, rng)
        x = rng.standard_normal((1, 5, d))
        mask = np.zeros((1, 5))
        mask[0, 2] = 1.0
        out = attend(Tensor(x), params, 2, mask)
        solo = attend(Tensor(x[:, 2:3]), params, 2, np.ones((1, 1)))
        np.testing.assert_allclose(out.data[0, 2], solo.data[0, 0], atol=1e-12)

    def test_masked_positions_cannot_influence_real_ones(self):
        rng = np.random.default_rng(2)
        d = 8
        params = tiny_attention_params(d, rng)
        x = rng.standard_normal((1, 6, d))
        mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
        base = attend(Tensor(x), params, 2, mask).data
        x2 = x.copy()
        x2[:, 4:] += 1000.0
        bumped = attend(Tensor(x2), params, 2, mask).data
        assert np.array_equal(base[:, :4], bumped[:, :4])

    def test_uniform_weights_average_values(self):
        """Equal keys give equal weights: output row = mean of value rows."""
        rng = np.random.default_rng(3)
        d = 4
        params = tiny_attention_params(d, rng)
        params.key_w = Tensor(np.zeros((d, d)))  # all logits identical
        x = rng.standard_normal((5, d))
        out = attend(Tensor(x[None]), params, 2, np.ones((1, 5)))
        v = x @ params.value_w.data + params.value_b.data
        expected = np.tile(v.mean(axis=0), (5, 1)) @ params.out_w.data + params.out_b.data
        np.testing.assert_allclose(out.data[0], expected, atol=1e-10)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        d, n = 4, 3
        x = rng.standard_normal((1, n, d))
        mats = [rng.standard_normal((d, d)) * 0.5 for _ in range(4)]
        vecs = [rng.standard_normal(d) * 0.1 for _ in range(3)]
        w = rng.standard_normal((1, n, d))

        def loss(ts):
            params = E.AttentionSublayerParams(*ln_pair(d), ts[1], ts[5], ts[2],
                                               ts[3], ts[6], ts[4], ts[7])
            return weighted_sum_loss(attend(ts[0], params, 2, np.ones((1, n))), w)

        check_gradients(loss, [x] + mats + vecs, tol=1e-5)


def reference_self_attention(x, params, num_heads, mask):
    """Per-head loop built from primitive tape ops: the fused op's oracle.

    Each head's features are picked by a 0/1 selector matmul, which copies
    them exactly, then go through their own matmul, scale, masked softmax
    (whose backward forms ``sum(dP * P)`` over the keys) and matmul before
    the heads are concatenated.
    """
    d = x.shape[-1]
    head_dim = d // num_heads
    scale = 1.0 / math.sqrt(head_dim)
    q = T.add(T.matmul(x, params.query_w), params.query_b)
    k = T.matmul(x, params.key_w)
    v = T.add(T.matmul(x, params.value_w), params.value_b)
    rows = np.asarray(mask)[..., None, :]
    heads = []
    for h in range(num_heads):
        pick = Tensor(np.eye(d)[:, h * head_dim:(h + 1) * head_dim])
        qh, kh, vh = (T.matmul(t, pick) for t in (q, k, v))
        logits = T.multiply(T.matmul(qh, T.swap_last_axes(kh)), Tensor(scale))
        heads.append(T.matmul(T.softmax(logits, axis=-1, mask=rows), vh))
    merged = T.concat(heads, axis=-1)
    return T.add(T.matmul(merged, params.out_w), params.out_b)


MIXED_PADDING = np.array([[1, 1, 1, 1, 1, 1, 1],
                          [1, 1, 1, 1, 0, 0, 0],
                          [1, 0, 0, 0, 0, 0, 0]], dtype=np.float64)
# The last row has no usable key, so none of its queries attends anywhere.
NO_USABLE_KEY = np.array([[1, 1, 1, 1, 1, 1, 1],
                          [1, 1, 1, 0, 0, 0, 0],
                          [0, 0, 0, 0, 0, 0, 0]], dtype=np.float64)


class TestFusedAttentionMatchesLoop:
    """The fused op against the per-head reference, output and gradients."""

    @pytest.mark.parametrize("d", [64, 128])  # head widths 8 (desk), 16 (paper)
    @pytest.mark.parametrize("shape,mask", [
        ((3, 7), MIXED_PADDING),
        ((3, 7), NO_USABLE_KEY),
        ((3, 7), np.ones((3, 7))),
        ((1, 7), MIXED_PADDING[1:2]),
        ((1, 7), np.ones((1, 7))),
    ], ids=["batched-padded", "batched-no-usable-key", "batched-all-real",
            "single-padded", "single-all-real"])
    def test_matches_reference(self, d, shape, mask):
        rng = np.random.default_rng(d + len(shape))
        params = tiny_attention_params(d, rng)
        x = Tensor(rng.standard_normal(shape[:-1] + (shape[-1], d)),
                   requires_grad=True)
        w = rng.standard_normal(x.shape)
        leaves = [x, params.query_w, params.query_b, params.key_w,
                  params.value_w, params.value_b, params.out_w, params.out_b]

        def run(attend):
            for t in leaves:
                t.grad[...] = 0.0
            out = attend(x, params, 8, mask)
            backward(weighted_sum_loss(out, w))
            return [out.data] + [t.grad.copy() for t in leaves]

        fused = run(attend)
        looped = run(reference_self_attention)
        names = ["output", "x"] + [f.name for f in fields(E.AttentionSublayerParams)][2:]
        for name, a, b in zip(names, fused, looped):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)
        if mask is NO_USABLE_KEY:
            # Nothing reaches x's row from q, k or v: exactly zero, not small.
            np.testing.assert_array_equal(fused[1][2], np.zeros((7, d)))


def stack_setup(num_blocks=1, convs=2, d=8, n=5, heads=2, kernel=3, seed=0,
                survival=0.9, dropout=0.1):
    config = E.EncoderBlockConfig(
        num_blocks=num_blocks, num_conv_layers=convs, kernel_size=kernel,
        hidden_dim=d, num_heads=heads, dropout=dropout, survival_end=survival)
    rng = np.random.default_rng(seed)
    params = E.init_encoder_stack(config, rng)
    x = np.random.default_rng(seed + 1).standard_normal((n, d))
    return config, params, x


def param_leaves(obj):
    if isinstance(obj, Tensor):
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from param_leaves(item)
    else:
        for f in fields(obj):
            yield from param_leaves(getattr(obj, f.name))


def relu(x):
    """An unfused relu: ``x`` times the constant indicator of ``x > 0``."""
    return T.multiply(x, Tensor(x.data > 0.0))


def unfused_stack(x, config, blocks, mask, rng):
    """The stack as separate ops: a sublayer draws its dropout mask after its
    output exists, applies it with ``dropout_apply`` and adds the residual
    with ``add``; the feed-forward relu is a :func:`relu` of its own."""
    index = 0

    def sublayer(x, body, ln_gain, ln_bias):
        nonlocal index
        index += 1
        p = E.survival_probability(index, config.total_sublayers, config.survival_end)
        if rng.random() >= p:
            return x
        h = body(T.layernorm(x, ln_gain, ln_bias))
        h = T.dropout_apply(h, T.dropout_mask(rng, h.shape, config.dropout))
        return T.add(x, h)

    for block in blocks:
        x = T.add(x, E.positional_encoding(x.shape[-2], x.shape[-1]))
        for c in block.convs:
            x = sublayer(x, lambda xn, c=c: T.depthwise_separable_conv1d(
                xn, c.depth_kernel, c.point_kernel, c.bias, mask), c.ln_gain, c.ln_bias)
        a, f = block.attention, block.feed_forward
        x = sublayer(x, lambda xn: attend(xn, a, config.num_heads, mask),
                     a.ln_gain, a.ln_bias)
        x = sublayer(x, lambda xn: T.dense(relu(T.dense(xn, f.inner_w, f.inner_b)),
                                           f.outer_w, f.outer_b), f.ln_gain, f.ln_bias)
    return x


PADDED = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float64)
BLOCK_RECORDS = {"add": 1, "dense": 5, "matmul": 1, "layernorm": 4,
                 "scaled_dot_attention": 1, "depthwise_separable_conv1d": 2}


def op_counts(out) -> dict[str, int]:
    counts = {}
    for _, op in records(out):
        counts[op.name] = counts.get(op.name, 0) + 1
    return counts


def train_block():
    """One train-mode block (2 convs, d=8) over the padded (2, 5) batch,
    every sublayer surviving and dropout 0.1: its output, input leaf, config."""
    config, params, x = stack_setup(n=5, survival=1.0)
    leaf = Tensor(np.stack([x, x]), requires_grad=True)
    out = E.encoder_stack_forward(leaf, config, params, PADDED,
                                  rng=np.random.default_rng(5))
    return out, leaf, config


class TestEncoderStack:
    def test_tape_op_count_pinned(self):
        """One block at a fixed padded shape records exactly these ops.

        The conv sublayers mask inside the conv op, every affine map is one
        ``dense`` op (the bias-free key projection one ``matmul``), the
        feed-forward relu rides in its first ``dense``, and each sublayer's
        last op adds the residual itself; unfused, the same block records 28
        ops (two multiplies more per conv sublayer, a matmul and an add per
        dense, a relu, an add per sublayer).
        """
        config, params, x = stack_setup(n=5)
        out = E.encoder_stack_forward(
            Tensor(np.stack([x, x]), requires_grad=True), config, params, PADDED)
        assert op_counts(out) == BLOCK_RECORDS
        assert sum(BLOCK_RECORDS.values()) == 14

    def test_train_mode_record_set_pinned(self):
        """Train mode records the same ops: dropout and the residual add ride
        in each sublayer's last op, so no ``dropout_apply`` record and no
        residual ``add`` record exist; the one ``add`` is the position signal."""
        out, leaf, _ = train_block()
        assert op_counts(out) == BLOCK_RECORDS
        (add,) = [op for _, op in records(out) if op.name == "add"]
        assert add.inputs[0] is leaf and add.inputs[1].op is None
        assert not add.inputs[1].requires_grad

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_train_mode_bitwise_equal_to_unfused_reference(self, seed):
        """Output, every gradient and the generator's state after the pass
        equal those of the unfused stack, with dropout and skips active."""
        config, params, x = stack_setup(num_blocks=2, n=5, survival=0.6)
        leaves = list(param_leaves(params))

        def run(stack):
            for t in leaves:
                t.grad[...] = 0.0
            rng = np.random.default_rng(seed)
            leaf = Tensor(np.stack([x, -x]), requires_grad=True)
            out = stack(leaf, config, params, PADDED, rng=rng)
            backward(T.reduce_sum(T.multiply(out, out)))
            return [out.data, leaf.grad] + [t.grad.copy() for t in leaves], rng.random()

        (fused, after), (unfused, after_ref) = run(E.encoder_stack_forward), run(unfused_stack)
        assert after == after_ref
        for i, (a, b) in enumerate(zip(fused, unfused)):
            assert a.tobytes() == b.tobytes(), i

    def test_train_mode_tape_keeps_only_what_backward_reads(self, monkeypatch):
        """No record keeps a normalized input or a layernorm output's buffer,
        the block input plus the position signal, attention's q, k and v, a
        padded buffer or a depthwise output, attention weights, a float
        dropout mask or a pre-activation, and the block's tape bytes are
        pinned: 9,680, from 11,600 while q, k and v, 3 × (2·5·8) floats,
        stayed on it."""
        drawn, normed, projections = [], [], []

        def spy(*args):
            drawn.append(T.dropout_mask(*args))
            return drawn[-1]

        def layernorm_spy(*args):
            out = T.layernorm(*args)
            normed.append((out, weakref.ref(out.data)))
            return out

        def attention_spy(q, k, v, *args):
            projections.extend((t, weakref.ref(t.data)) for t in (q, k, v))
            return T.scaled_dot_attention(q, k, v, *args)

        monkeypatch.setattr(E, "dropout_mask", spy)
        monkeypatch.setattr(E, "layernorm", layernorm_spy)
        monkeypatch.setattr(E, "scaled_dot_attention", attention_spy)
        out, _, config = train_block()
        assert len(normed) == 4 and len(projections) == 3
        for t, buffer in normed + projections:  # released once read, held by nothing
            assert kept_data(t) is None and buffer() is None
        (summed,) = [t for t, op in records(out) if op.name == "add"]
        assert kept_data(summed) is None  # released once the block ran
        n, width = out.shape[-2], config.kernel_size
        held = {}
        for t, op in records(out):
            kept = [a for a in map(kept_data, (t,) + op.inputs) if a is not None]
            inputs = {id(owner(a)) for a in kept}
            private = [a for a in held_arrays(op) if id(owner(a)) not in inputs]
            for a in held_arrays(op):
                held.setdefault(id(owner(a)), []).append(op.name)
            if op.name == "layernorm":  # the row mean and scale, nothing (..., d)
                assert all(a.shape[-1] == 1 for a in private), [a.shape for a in private]
            if op.name == "scaled_dot_attention":  # row statistics, no (..., n, m) weights
                assert private and all(a.shape[-1] == 1 for a in private), \
                    [a.shape for a in private]
            if op.name == "depthwise_separable_conv1d":  # no padded input, no depthwise output
                assert all(owner(a).shape[1:2] != (n + width - 1,)
                           for a in held_arrays(op))
                assert not any(a.dtype.kind == "f" and owner(a).shape == op.inputs[0].shape
                               for a in private), [a.shape for a in private]
            for a in private:  # no float copy of a dropout mask
                assert not any(a.shape == m.keep.shape and np.array_equal(a, m.keep * m.scale)
                               for m in drawn), op.name
        assert len(drawn) == 4
        for m in drawn:  # one bool keep per sublayer, held by the sublayer's last op
            assert m.keep.dtype == np.bool_
            assert held[id(m.keep)] in (["dense"], ["depthwise_separable_conv1d"])
        # The feed-forward's relu dense, the one dense fed to another, keeps no
        # float array of its output's shape but that output.
        (hidden,) = [op.inputs[0] for _, op in records(out) if op.name == "dense"
                     and op.inputs[0].op is not None and op.inputs[0].op.name == "dense"]
        kept = [kept_data(t) for t in hidden.op.inputs] + held_arrays(hidden.op)
        assert not any(a is not None and a.dtype.kind == "f" and a.shape == hidden.shape
                       and owner(a) is not owner(hidden.data) for a in kept), hidden.op.name
        assert tape_bytes(out) == 9_680

    def test_attention_backward_rebuilds_each_projection_once(self):
        """One backward through a train-mode attention sublayer calls the
        rebuild rule of q, k and v once each: attention's backward reads
        their shapes, which a released tensor keeps, and each array once."""
        config, params, x = stack_setup(n=5)
        leaf = Tensor(np.stack([x, x]), requires_grad=True)

        def attend(xn, p, residual, drop):
            return E.multi_head_self_attention(xn, p, config.num_heads, PADDED,
                                               residual, drop)

        out = E.residual_sublayer(leaf, attend, params[0].attention, 1.0,
                                  np.random.default_rng(5), config.dropout)
        (attention,) = [op for _, op in records(out) if op.name == "scaled_dot_attention"]
        calls = []
        for i, t in enumerate(attention.inputs):
            assert kept_data(t) is None

            def counted(rule=t.op.rebuild, i=i):
                calls.append(i)
                return rule()

            t.op.rebuild = counted
        backward(T.reduce_sum(T.multiply(out, out)))
        assert sorted(calls) == [0, 1, 2]

    def test_every_sublayer_skipped_keeps_the_sum(self):
        """A block whose sublayers all skip outputs its position-signal sum,
        which is then not released: the stack's output keeps its buffer,
        equals the input plus one signal per block, and backpropagates."""
        config, params, x = stack_setup(num_blocks=2, n=5)
        leaf = Tensor(np.stack([x, -x]), requires_grad=True)
        out = E.encoder_stack_forward(leaf, config, params, PADDED, rng=AlwaysSkip())
        assert op_counts(out) == {"add": 2}
        assert all(kept_data(t) is not None for t, _ in records(out))
        signal = E.positional_encoding(5, 8).data
        assert out.data.tobytes() == (leaf.data + signal + signal).tobytes()
        backward(T.reduce_sum(T.multiply(out, out)))
        assert leaf.grad.tobytes() == (2.0 * out.data).tobytes()

    def test_bytes_by_op_rows_sum_to_tape_bytes(self):
        """Each buffer is charged to one op, so the rows add up to the total."""
        out, _, _ = train_block()
        rows = bytes_by_op(out)
        assert set(rows) <= set(op_counts(out))
        assert list(rows.values()) == sorted(rows.values(), reverse=True)
        assert sum(rows.values()) == tape_bytes(out)

    def test_shape_preserved(self):
        config, params, x = stack_setup()
        out = E.encoder_stack_forward(Tensor(x[None]), config, params, np.ones((1, 5)))
        assert out.shape == (1,) + x.shape

    def test_batched_matches_single(self):
        config, params, x = stack_setup(n=4)
        xb = np.stack([x, x * 0.5])
        mask = np.ones((2, 4))
        out_b = E.encoder_stack_forward(Tensor(xb), config, params, mask).data
        out_0 = E.encoder_stack_forward(Tensor(x[None]), config, params,
                                        np.ones((1, 4))).data
        np.testing.assert_allclose(out_b[0], out_0[0], atol=1e-12)

    def test_zeroed_weights_leave_input_plus_position_signal(self):
        config, params, x = stack_setup(num_blocks=2, convs=1)
        for block in params:
            for conv in block.convs:
                conv.depth_kernel.data[...] = 0.0
                conv.point_kernel.data[...] = 0.0
                conv.bias.data[...] = 0.0
            a = block.attention
            for t in (a.query_w, a.query_b, a.key_w,
                      a.value_w, a.value_b, a.out_w, a.out_b):
                t.data[...] = 0.0
            block.feed_forward.inner_w.data[...] = 0.0
            block.feed_forward.inner_b.data[...] = 0.0
            block.feed_forward.outer_w.data[...] = 0.0
            block.feed_forward.outer_b.data[...] = 0.0
        out = E.encoder_stack_forward(Tensor(x[None]), config, params, np.ones((1, 5))).data
        signal = E.positional_encoding(x.shape[0], x.shape[1]).data
        np.testing.assert_allclose(out[0], x + 2 * signal, atol=1e-12)

    def test_padded_positions_never_influence_real_ones(self):
        config, params, x = stack_setup(n=6)
        mask = np.array([[1.0, 1.0, 1.0, 1.0, 0.0, 0.0]])
        base = E.encoder_stack_forward(Tensor(x[None]), config, params, mask).data
        x2 = x[None].copy()
        x2[:, 4:] = 123.0
        bumped = E.encoder_stack_forward(Tensor(x2), config, params, mask).data
        assert np.array_equal(base[:, :4], bumped[:, :4])

    def test_train_mode_deterministic_under_seed(self):
        config, params, x = stack_setup()
        mask = np.ones((1, 5))

        def run():
            rng = np.random.default_rng(99)
            return E.encoder_stack_forward(Tensor(x[None]), config, params, mask,
                                           rng=rng).data

        assert np.array_equal(run(), run())

    def test_stack_gradients_toy_config(self):
        """End-to-end stack gradient vs finite differences on a 1x6x16 input."""
        config = E.EncoderBlockConfig(num_blocks=1, num_conv_layers=1,
                                      kernel_size=3, hidden_dim=16,
                                      num_heads=2, dropout=0.0,
                                      survival_end=0.9)
        rng = np.random.default_rng(11)
        params = E.init_encoder_stack(config, rng)
        x = rng.standard_normal((1, 6, 16)) * 0.5
        w = rng.standard_normal((1, 6, 16))
        block = params[0]
        conv = block.convs[0]
        attn = block.attention
        ffn = block.feed_forward
        arrays = [x,
                  conv.depth_kernel.data, conv.point_kernel.data, conv.bias.data,
                  attn.query_w.data, attn.key_w.data,
                  attn.value_w.data, attn.out_w.data,
                  ffn.inner_w.data, ffn.outer_w.data,
                  conv.ln_gain.data, attn.ln_gain.data, ffn.ln_gain.data]

        def loss(ts):
            p = [E.EncoderBlockParams(
                convs=[E.ConvSublayerParams(ts[10], conv.ln_bias, ts[1], ts[2], ts[3])],
                attention=E.AttentionSublayerParams(
                    ts[11], attn.ln_bias, ts[4], attn.query_b, ts[5], ts[6],
                    attn.value_b, ts[7], attn.out_b),
                feed_forward=E.FeedForwardSublayerParams(
                    ts[12], ffn.ln_bias, ts[8], ffn.inner_b, ts[9], ffn.outer_b))]
            out = E.encoder_stack_forward(ts[0], config, p, np.ones((1, 6)))
            return weighted_sum_loss(out, w)

        check_gradients(loss, arrays, tol=1e-4)

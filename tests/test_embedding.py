"""Embedding layer: fusion shape, frozen rows, gates, gradient checks."""
import numpy as np
import pytest

from qanet.data import PAD_ID, UNK_ID
from qanet.embedding import (
    EmbeddingParams, HighwayLayerParams, embed, highway, init_embedding_params,
)
import qanet.embedding
from qanet.tensor import Tensor, backward, no_grad, reduce_sum, multiply

from gradcheck import check_gradients, weighted_sum_loss
from tapebytes import held_arrays, kept_data, owner, records, tape_bytes

WORD_DIM = 6
CHAR_DIM = 4
HIDDEN = 8
CHAR_VOCAB = 12
WORD_VOCAB = 9
CHAR_LIMIT = 5


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((WORD_VOCAB, WORD_DIM))
    matrix[PAD_ID] = 0.0
    return init_embedding_params(matrix, CHAR_VOCAB, CHAR_DIM,
                                 char_kernel=3, hidden_dim=HIDDEN, rng=rng)


def make_ids(seed=1, shape=(2, 3)):
    rng = np.random.default_rng(seed)
    words = rng.integers(2, WORD_VOCAB, size=shape)
    chars = rng.integers(2, CHAR_VOCAB, size=shape + (CHAR_LIMIT,))
    return words, chars


class TestInit:
    def test_unknown_row_moves_out_of_table(self):
        params = make_params()
        assert not params.word_table.requires_grad
        np.testing.assert_array_equal(params.word_table.data[UNK_ID],
                                      np.zeros(WORD_DIM))
        assert params.unk_vector.requires_grad
        assert np.linalg.norm(params.unk_vector.data) > 0

    def test_source_matrix_not_aliased(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((WORD_VOCAB, WORD_DIM))
        params = init_embedding_params(matrix, CHAR_VOCAB, CHAR_DIM, 3, HIDDEN, rng)
        matrix[:] = 99.0
        assert not np.any(params.word_table.data == 99.0)

    def test_gate_bias_starts_negative(self):
        params = make_params()
        for layer in params.highway:
            np.testing.assert_array_equal(layer.gate_b.data,
                                          np.full(HIDDEN, -2.0))


class TestForward:
    def test_output_shape(self):
        params = make_params()
        words, chars = make_ids()
        out = embed(params, words, chars)
        assert out.shape == (2, 3, HIDDEN)

    def test_unbatched_matches_batched(self):
        params = make_params()
        words, chars = make_ids(shape=(2, 3))
        full = embed(params, words, chars).data
        for b in range(2):
            row = embed(params, words[b], chars[b]).data
            np.testing.assert_array_equal(row, full[b])

    def test_mismatched_char_shape_rejected(self):
        params = make_params()
        words, chars = make_ids()
        with pytest.raises(ValueError):
            embed(params, words, chars[:, :2])

    def test_deterministic_in_train_mode(self):
        params = make_params()
        words, chars = make_ids()
        a = embed(params, words, chars, word_dropout=0.1, char_dropout=0.05,
                  rng=np.random.default_rng(7)).data
        b = embed(params, words, chars, word_dropout=0.1, char_dropout=0.05,
                  rng=np.random.default_rng(7)).data
        np.testing.assert_array_equal(a, b)


class TestGradientFlow:
    def loss_and_backward(self):
        params = make_params()
        words, chars = make_ids()
        words[0, 1] = UNK_ID
        out = embed(params, words, chars)
        backward(reduce_sum(multiply(out, out)))
        return params

    def test_frozen_table_gets_no_gradient(self):
        params = self.loss_and_backward()
        assert params.word_table.grad is None

    def test_unk_vector_gradient_flows(self):
        params = self.loss_and_backward()
        assert np.linalg.norm(params.unk_vector.grad) > 0

    def test_char_table_gradient_flows(self):
        params = self.loss_and_backward()
        assert np.linalg.norm(params.char_table.grad) > 0

    def test_frozen_table_bitwise_unchanged_by_forward(self):
        params = make_params()
        before = params.word_table.data.copy()
        words, chars = make_ids()
        embed(params, words, chars)
        np.testing.assert_array_equal(params.word_table.data, before)

    def test_unk_absent_means_zero_unk_gradient(self):
        params = make_params()
        words, chars = make_ids()
        assert not np.any(words == UNK_ID)
        out = embed(params, words, chars)
        backward(reduce_sum(multiply(out, out)))
        np.testing.assert_array_equal(params.unk_vector.grad,
                                      np.zeros(WORD_DIM))


class TestCharSensitivity:
    def test_char_order_matters_with_asymmetric_kernel(self):
        params = make_params()
        words = np.array([[3]])
        chars = np.array([[[2, 3, 4, 5, 6]]])
        flipped = np.array([[[6, 5, 4, 3, 2]]])
        with no_grad():
            a = embed(params, words, chars).data
            b = embed(params, words, flipped).data
        assert np.abs(a - b).max() > 1e-8

    def test_symmetric_kernel_ignores_reversal(self):
        # A depth kernel constant over the width axis makes the conv output
        # for a reversed sequence the reversal of the original output, and
        # per-channel max pooling erases the ordering.
        params = make_params()
        k = params.char_depth_kernel.data
        params.char_depth_kernel = Tensor(np.broadcast_to(k[1:2], k.shape).copy(),
                                          requires_grad=True)
        words = np.array([[3]])
        chars = np.array([[[2, 3, 4, 5, 6]]])
        flipped = np.array([[[6, 5, 4, 3, 2]]])
        with no_grad():
            a = embed(params, words, chars).data
            b = embed(params, words, flipped).data
        np.testing.assert_allclose(a, b, atol=1e-12)


def embed_train(char_dropout):
    """A train-mode embed over make_ids(): its output and the char path's
    lookup and dropout outputs (the same tensor without char dropout)."""
    params = make_params()
    words, chars = make_ids()
    out = embed(params, words, chars, word_dropout=0.1, char_dropout=char_dropout,
                rng=np.random.default_rng(7))
    # The frozen word lookup records nothing.
    looked = next(t for t, op in records(out) if op.name == "embedding_lookup")
    dropped = [t for t, op in records(out)
               if op.name == "dropout_apply" and op.inputs[0] is looked]
    return out, looked, (dropped or [None])[0]


class TestCharTape:
    def test_char_path_keeps_no_float_buffer_of_its_shape(self):
        """The conv keeps integer max positions, and the lookup and dropout
        outputs are released: nothing (tokens, chars, channels) or (batch, n,
        chars, channels) stays on the tape as float64. The tape was 14,404
        bytes when the lookup output, a reshaped view of the dropout output
        and the conv's output stayed; it now holds the char table array the
        lookup rebuilds from and the conv's one-byte max positions instead
        (10,468 bytes when they were int64), and the highway's relu and
        sigmoid keep no pre-activation or bool mask."""
        out, looked, dropped = embed_train(char_dropout=0.2)
        assert kept_data(looked) is None and kept_data(dropped) is None
        char_shapes = {(6, CHAR_LIMIT, CHAR_DIM), (2, 3, CHAR_LIMIT, CHAR_DIM)}
        for t, op in records(out):
            kept = [] if kept_data(t) is None else [kept_data(t)]
            for a in map(owner, kept + held_arrays(op)):
                assert not (a.dtype.kind == "f" and a.shape in char_shapes), op.name
        assert tape_bytes(out) == 10_300

    @pytest.mark.parametrize("char_dropout", [0.0, 0.2])
    def test_released_char_outputs_read_as_forward_made_them(self, monkeypatch, char_dropout):
        _, looked, dropped = embed_train(char_dropout)
        monkeypatch.setattr(qanet.embedding, "release", lambda t: None)
        _, kept_looked, kept_dropped = embed_train(char_dropout)
        assert kept_data(looked) is None and kept_data(kept_looked) is not None
        np.testing.assert_array_equal(looked.data, kept_looked.data)
        assert (dropped is None) == (kept_dropped is None) == (char_dropout == 0.0)
        if dropped is not None:
            assert kept_data(dropped) is None
            np.testing.assert_array_equal(dropped.data, kept_dropped.data)


class TestHighway:
    def test_fully_closed_gate_is_identity(self):
        rng = np.random.default_rng(2)
        layer = HighwayLayerParams(
            transform_w=Tensor(rng.standard_normal((HIDDEN, HIDDEN))),
            transform_b=Tensor(np.zeros(HIDDEN)),
            gate_w=Tensor(np.zeros((HIDDEN, HIDDEN))),
            gate_b=Tensor(np.full(HIDDEN, -1e9)))
        x = Tensor(rng.standard_normal((3, HIDDEN)))
        out = highway(x, [layer])
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_fully_open_gate_is_transform(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((HIDDEN, HIDDEN))
        layer = HighwayLayerParams(
            transform_w=Tensor(w),
            transform_b=Tensor(np.zeros(HIDDEN)),
            gate_w=Tensor(np.zeros((HIDDEN, HIDDEN))),
            gate_b=Tensor(np.full(HIDDEN, 1e9)))
        x = Tensor(rng.standard_normal((3, HIDDEN)))
        out = highway(x, [layer])
        np.testing.assert_allclose(out.data, np.maximum(x.data @ w, 0.0),
                                   atol=1e-12)


class TestGradientGate:
    def test_embed_finite_differences(self):
        params = make_params()
        words, chars = make_ids(shape=(2,))
        words[0] = UNK_ID
        rng = np.random.default_rng(11)
        weights = rng.standard_normal((2, HIDDEN))

        arrays = [params.unk_vector.data, params.char_table.data,
                  params.char_depth_kernel.data, params.char_point_kernel.data,
                  params.char_bias.data, params.proj_w.data, params.proj_b.data]
        for layer in params.highway:
            arrays += [layer.transform_w.data, layer.transform_b.data,
                       layer.gate_w.data, layer.gate_b.data]

        def make_loss(tensors):
            unk, ctab, dk, pk, cb, pw, pb = tensors[:7]
            hw = tensors[7:]
            layers = [HighwayLayerParams(*hw[i:i + 4])
                      for i in range(0, len(hw), 4)]
            p = EmbeddingParams(
                word_table=Tensor(params.word_table.data),
                unk_vector=unk, char_table=ctab, char_depth_kernel=dk,
                char_point_kernel=pk, char_bias=cb, proj_w=pw, proj_b=pb,
                highway=layers)
            return weighted_sum_loss(embed(p, words, chars), weights)

        check_gradients(make_loss, arrays, tol=1e-4)

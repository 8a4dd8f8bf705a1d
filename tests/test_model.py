"""Whole-model wiring: shapes, sharing, masking, end-to-end gradients."""
import numpy as np
import pytest

from qanet.data import Vocabulary, build_batch, example_from_raw
from qanet.model import (
    ModelConfig, init_model_params, model_forward, model_loss,
    named_parameters, named_tensors, predict_spans, span_text,
)
from qanet.tensor import backward

from gradcheck import relative_error

TOY = dict(hidden_dim=16, num_heads=2, word_dim=8, char_dim=6, char_limit=4,
           char_kernel=3, emb_enc_blocks=1, emb_enc_convs=2, emb_enc_kernel=5,
           model_enc_blocks=2, model_enc_convs=1, model_enc_kernel=5,
           dropout=0.0, word_dropout=0.0, char_dropout=0.0, survival_end=1.0)


def toy_setup(seed=0, n_examples=3, empty_question=False):
    config = ModelConfig(**TOY)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    words = [f"w{i}" for i in range(30)]
    for w in words:
        vocab.add_word(w)
        vocab.add_chars(w)
    examples = []
    for i in range(n_examples):
        k = int(rng.integers(5, 12))
        ctx_words = [words[int(rng.integers(0, 30))] for _ in range(k)]
        s = int(rng.integers(0, k))
        context = " ".join(ctx_words)
        # One out-of-vocabulary question word so the UNK vector trains.
        question = " ".join(words[j] for j in range(2)) + " zyx"
        if empty_question and i == 0:
            question = ""
        examples.append(example_from_raw(
            f"ex{i}", context, question, ctx_words[s],
            len(" ".join(ctx_words[:s])) + (1 if s else 0)))
    batch = build_batch(examples, vocab, char_limit=config.char_limit)
    matrix = rng.standard_normal((len(vocab.words), config.word_dim))
    matrix[0] = 0.0
    params = init_model_params(config, matrix, len(vocab.chars), rng)
    return config, params, batch


class TestShapes:
    def test_forward_shapes(self):
        config, params, batch = toy_setup()
        dist = model_forward(params, config, batch)
        n = batch.context_ids.shape[1]
        assert dist.p1.shape == (batch.size, n)
        assert dist.p2.shape == (batch.size, n)
        np.testing.assert_allclose(dist.p1.data.sum(axis=-1),
                                   np.ones(batch.size), atol=1e-9)

    def test_loss_scalar_and_finite(self):
        config, params, batch = toy_setup()
        loss, _ = model_loss(params, config, batch)
        assert loss.data.shape == ()
        assert np.isfinite(loss.data)
        assert loss.data > 0

    def test_word_dim_mismatch_rejected(self):
        config, params, batch = toy_setup()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_model_params(config, rng.standard_normal((10, 5)), 8, rng)


class TestParameterTree:
    def test_names_unique_and_frozen_table_absent(self):
        config, params, _ = toy_setup()
        pairs = named_parameters(params)
        names = [n for n, _ in pairs]
        assert len(names) == len(set(names))
        assert all("word_table" not in n for n in names)
        tensors = [t for _, t in pairs]
        assert all(t.requires_grad for t in tensors)

    def test_full_listing_includes_frozen_table(self):
        config, params, _ = toy_setup()
        names = [n for n, _ in named_tensors(params, trainable_only=False)]
        assert "embedding.word_table" in names

    def test_expected_structure_present(self):
        config, params, _ = toy_setup()
        names = [n for n, _ in named_parameters(params)]
        assert "embedding.unk_vector" in names
        assert "cq.weights.w_qc" in names
        assert "span.w1" in names
        assert any(n.startswith("emb_encoder.blocks.0.convs.1") for n in names)
        assert any(n.startswith("model_encoder.blocks.1.attention") for n in names)

    def test_shared_stack_listed_once(self):
        # The model encoder runs three times but its tensors appear once.
        config, params, _ = toy_setup()
        pairs = named_parameters(params)
        ids = [id(t) for _, t in pairs]
        assert len(ids) == len(set(ids))
        model_names = [n for n, _ in pairs if n.startswith("model_encoder.")]
        per_block = len(model_names) // TOY["model_enc_blocks"]
        assert len(model_names) == per_block * TOY["model_enc_blocks"]


class TestMaskingEndToEnd:
    def test_padding_content_cannot_change_loss(self):
        config, params, batch = toy_setup(seed=3)
        loss_a, _ = model_loss(params, config, batch)
        poked = batch
        pad_rows = poked.context_mask == 0.0
        assert pad_rows.any()
        poked.context_ids[pad_rows] = 5
        poked.context_chars[pad_rows] = 3
        loss_b, _ = model_loss(params, config, batch)
        assert loss_a.data == loss_b.data

    def test_empty_question_gives_finite_loss_and_gradients(self):
        # No real question token: every attention over the question has no
        # usable slot and must give zero weights, not NaN.
        config, params, batch = toy_setup(seed=7, empty_question=True)
        assert not batch.question_mask[0].any()
        loss, _ = model_loss(params, config, batch)
        assert np.isfinite(loss.data)
        backward(loss)
        for name, t in named_parameters(params):
            assert np.all(np.isfinite(t.grad)), name

    def test_predictions_respect_mask_and_window(self):
        config, params, batch = toy_setup(seed=4)
        preds = predict_spans(params, config, batch)
        for i, p in enumerate(preds):
            n_real = int(batch.context_mask[i].sum())
            assert 0 <= p.start <= p.end < n_real
            assert p.end - p.start + 1 <= config.max_answer_len
            assert p.score > 0


class TestSpanText:
    def test_recovers_surface_string(self):
        ex = example_from_raw("x", "Alpha beta gamma.", "q?", "beta", 6)
        assert span_text(ex, 1, 1) == "beta"
        assert span_text(ex, 0, 2) == "Alpha beta gamma"


class TestTrainMode:
    def test_same_seed_same_loss(self):
        config = ModelConfig(**{**TOY, "dropout": 0.1, "word_dropout": 0.1,
                                "char_dropout": 0.05, "survival_end": 0.9})
        _, params, batch = toy_setup()
        a, _ = model_loss(params, config, batch, train_mode=True,
                          rng=np.random.default_rng(42))
        b, _ = model_loss(params, config, batch, train_mode=True,
                          rng=np.random.default_rng(42))
        assert a.data == b.data

    def test_different_seed_usually_differs(self):
        config = ModelConfig(**{**TOY, "dropout": 0.2, "survival_end": 0.8})
        _, params, batch = toy_setup()
        a, _ = model_loss(params, config, batch, train_mode=True,
                          rng=np.random.default_rng(1))
        b, _ = model_loss(params, config, batch, train_mode=True,
                          rng=np.random.default_rng(2))
        assert a.data != b.data


class TestGradients:
    def test_backward_reaches_every_parameter(self):
        config, params, batch = toy_setup(seed=5)
        loss, _ = model_loss(params, config, batch)
        backward(loss)
        for name, t in named_parameters(params):
            assert t.grad is not None, name
            assert np.all(np.isfinite(t.grad)), name
        flows = [name for name, t in named_parameters(params)
                 if np.linalg.norm(t.grad) > 0]
        # Key-projection biases cancel inside softmax; everything else moves.
        dead = {name for name, t in named_parameters(params)
                if np.linalg.norm(t.grad) == 0}
        assert all(name.endswith("key_b") for name in dead), dead
        assert len(flows) >= len(named_parameters(params)) - 3

    def test_directional_derivatives(self):
        config, params, batch = toy_setup(seed=6, n_examples=2)
        pairs = named_parameters(params)
        loss, _ = model_loss(params, config, batch)
        backward(loss)
        grads = {name: t.grad.copy() for name, t in pairs}
        base = {name: t.data.copy() for name, t in pairs}

        h = 1e-5
        dir_rng = np.random.default_rng(99)
        for trial in range(4):
            direction = {name: dir_rng.standard_normal(t.data.shape)
                         for name, t in pairs}
            analytic = sum(float(np.sum(grads[n] * direction[n]))
                           for n, _ in pairs)
            values = []
            for sign in (+1.0, -1.0):
                for name, t in pairs:
                    t.data = base[name] + sign * h * direction[name]
                shifted, _ = model_loss(params, config, batch)
                values.append(float(shifted.data))
            numeric = (values[0] - values[1]) / (2 * h)
            for name, t in pairs:
                t.data = base[name]
            assert relative_error(np.array([analytic]),
                                  np.array([numeric])) < 1e-4, trial

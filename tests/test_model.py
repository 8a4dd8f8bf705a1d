"""Whole-model wiring: shapes, sharing, masking, end-to-end gradients."""
import gc
import weakref

import numpy as np
import pytest

from qanet.data import Vocabulary, build_batch, example_from_raw
from qanet.model import (
    ModelConfig, init_model_params, model_forward, model_loss,
    named_parameters, named_tensors, predict_spans, span_text,
)
from qanet.span import span_distributions
from qanet.tensor import backward

from gradcheck import relative_error

TOY = dict(hidden_dim=16, num_heads=2, word_dim=8, char_dim=6, char_limit=4,
           char_kernel=3, emb_enc_blocks=1, emb_enc_convs=2, emb_enc_kernel=5,
           model_enc_blocks=2, model_enc_convs=1, model_enc_kernel=5,
           dropout=0.0, word_dropout=0.0, char_dropout=0.0, survival_end=1.0)


WORDS = [f"w{i}" for i in range(30)]


def toy_setup(seed=0, n_examples=3, first_question=None):
    config = ModelConfig(**TOY)
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_words(WORDS)
    words = WORDS
    examples = []
    for i in range(n_examples):
        k = int(rng.integers(5, 12))
        ctx_words = [words[int(rng.integers(0, 30))] for _ in range(k)]
        s = int(rng.integers(0, k))
        context = " ".join(ctx_words)
        # One out-of-vocabulary question word so the UNK vector trains.
        question = " ".join(words[j] for j in range(2)) + " zyx"
        if first_question is not None and i == 0:
            question = first_question
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
        logits = model_forward(params, config, batch)
        n = batch.context_ids.shape[1]
        assert logits.start.shape == logits.end.shape == (batch.size, n)
        for p in span_distributions(logits):
            np.testing.assert_allclose(p.data.sum(axis=-1), np.ones(batch.size), atol=1e-9)

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

    def test_walk_keeps_no_dropped_model_alive(self):
        """Listing a model's tensors leaves no reference cycle behind, so a
        dropped model is freed at once, not at the next cyclic collection."""
        _, params, _ = toy_setup()
        gc.collect()
        gc.disable()
        try:
            named_tensors(params)
            probe = weakref.ref(params.span.w1.data)
            del params
            assert probe() is None
        finally:
            gc.enable()

    def test_full_listing_includes_frozen_table(self):
        config, params, _ = toy_setup()
        names = [n for n, _ in named_tensors(params)]
        assert "embedding.word_table" in names

    def test_flat_encoder_names(self):
        """A stack is a list of blocks and each sublayer one flat record, so
        an encoder name is stack, block, sublayer and field; the tensors and
        their count are those of the nested layout before it."""
        config, params, _ = toy_setup()
        pairs = named_parameters(params)
        names = [n for n, _ in pairs]
        for name in ("embedding.unk_vector", "cq.weights.w_qc", "span.w1",
                     "emb_encoder.0.convs.1.depth_kernel",
                     "model_encoder.1.feed_forward.outer_b"):
            assert name in names
        assert [n for n in names if n.startswith("model_encoder.1.attention.")] == [
            f"model_encoder.1.attention.{f}" for f in (
                "ln_gain", "ln_bias", "query_w", "query_b", "key_w",
                "value_w", "value_b", "out_w", "out_b")]
        assert not [n for n in names if ".blocks." in n or "attention.attention" in n]
        assert (len(pairs), sum(t.data.size for _, t in pairs)) == (87, 9202)

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

    def test_empty_question_refused_before_the_model(self):
        # An example without a question token never reaches a batch.
        with pytest.raises(ValueError, match=r"^ex0: question has no token$"):
            toy_setup(seed=7, first_question="")

    def test_predictions_respect_mask_and_window(self):
        config, params, batch = toy_setup(seed=4)
        preds = predict_spans(params, config, batch)
        for i, p in enumerate(preds):
            n_real = int(batch.context_mask[i].sum())
            assert 0 <= p.start <= p.end < n_real
            assert p.end - p.start + 1 <= config.max_answer_len
            assert p.score > 0


class TestBatchInvariance:
    def test_each_row_predicts_as_if_alone(self):
        """Mixed context and question lengths: each row's (start, end,
        score) is bitwise the row predicted alone."""
        config, params, batch = toy_setup(seed=3, n_examples=4,
                                          first_question="w5")
        examples = batch.examples
        examples[2].question_tokens = examples[2].question_tokens[:2]
        vocab = Vocabulary.from_words(WORDS)
        batch = build_batch(examples, vocab, char_limit=config.char_limit)
        assert len({len(ex.context_tokens) for ex in examples}) > 1
        assert [len(ex.question_tokens) for ex in examples] == [1, 3, 2, 3]
        preds = predict_spans(params, config, batch)
        assert len(preds) == batch.size
        for ex, pred in zip(examples, preds):
            (alone,) = predict_spans(
                params, config,
                build_batch([ex], vocab, char_limit=config.char_limit))
            assert (pred.start, pred.end) == (alone.start, alone.end)
            assert pred.score == alone.score


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

    def test_train_mode_must_agree_with_rng(self):
        """Train mode without an rng, or an rng outside train mode, is
        refused by name before the model runs."""
        config, params, batch = toy_setup()
        with pytest.raises(ValueError, match=r"train_mode=True needs an rng, got None"):
            model_loss(params, config, batch, train_mode=True)
        with pytest.raises(ValueError, match=r"train_mode=False needs rng=None, got Generator"):
            model_loss(params, config, batch, rng=np.random.default_rng(0))

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
        dead = [name for name, t in named_parameters(params)
                if np.linalg.norm(t.grad) == 0]
        assert dead == []

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

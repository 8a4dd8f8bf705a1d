"""Optimizer closed forms, checkpoint format, loop determinism, resume."""
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import pytest

from qanet.data import Vocabulary, example_from_raw
from qanet.model import ModelConfig, named_parameters
from qanet.tensor import Tensor, add
import qanet.trainer
from qanet.trainer import (
    CheckpointShapeMismatch, ConfigMismatch, MissingGradient, NonFiniteStep,
    OptimizerConfig, adam_step, check_finite, config_fingerprint, ema_update,
    init_train_state, load_checkpoint, lr_schedule, read_checkpoint,
    save_checkpoint, train, use_ema,
)

TOY = dict(hidden_dim=16, num_heads=2, word_dim=8, char_dim=6, char_limit=4,
           char_kernel=3, emb_enc_blocks=1, emb_enc_convs=2, emb_enc_kernel=5,
           model_enc_blocks=2, model_enc_convs=1, model_enc_kernel=5,
           dropout=0.1, word_dropout=0.1, char_dropout=0.05, survival_end=0.9)


@dataclass
class Box:
    w: Tensor


def scalar_box(value=0.5):
    return Box(w=Tensor(np.array(value), requires_grad=True))


def tiny_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    words = [f"tok{i}" for i in range(30)]
    for w in words:
        vocab.add_word(w)
        vocab.add_chars(w)
    examples = []
    for i in range(n):
        k = int(rng.integers(5, 10))
        ctx = [words[int(rng.integers(0, 30))] for _ in range(k)]
        s = int(rng.integers(0, k))
        examples.append(example_from_raw(
            f"t{i}", " ".join(ctx), "tok0 tok1 ?", ctx[s],
            len(" ".join(ctx[:s])) + (1 if s else 0)))
    matrix = rng.standard_normal((len(vocab.words), 8))
    matrix[0] = 0.0
    return examples, vocab, matrix


def short_opt(**kw):
    base = dict(target_lr=0.01, warmup_steps=4, ema_decay=0.9, batch_size=4,
                total_steps=6)
    base.update(kw)
    return OptimizerConfig(**base)


class TestSchedule:
    def test_flat_after_warmup(self):
        for step in (1000, 1001, 5000):
            assert lr_schedule(step) == 0.001

    def test_first_step_value(self):
        expect = 0.001 * math.log(2) / math.log(1001)
        assert lr_schedule(1) == pytest.approx(expect, rel=1e-12)
        assert lr_schedule(1) == pytest.approx(1.003e-4, abs=5e-7)

    def test_non_decreasing(self):
        values = [lr_schedule(s) for s in range(1, 2001)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0)


class TestAdam:
    def one_step_delta(self, eps):
        box = scalar_box(0.5)
        state = init_train_state(box, seed=0)
        config = OptimizerConfig(eps=eps if eps else 1e-300, weight_decay=0.0,
                                 warmup_steps=1, total_steps=1)
        config.eps = eps  # allow exact zero after validation
        box.w.grad[...] = 1.0
        lr = adam_step(box, state, config)
        assert lr == 0.001
        return 0.5 - float(box.w.data)

    def test_unit_gradient_moves_by_lr_when_eps_zero(self):
        delta = self.one_step_delta(eps=0.0)
        assert abs(delta - 0.001) <= 1e-12

    def test_unit_gradient_with_stated_eps(self):
        delta = self.one_step_delta(eps=1e-7)
        assert abs(delta - 0.001 / (1 + 1e-7)) <= 1e-12

    def test_zero_grad_zero_decay_is_identity(self):
        box = scalar_box(0.7)
        state = init_train_state(box, seed=0)
        adam_step(box, state, OptimizerConfig(weight_decay=0.0))
        assert float(box.w.data) == 0.7

    def test_weight_decay_pulls_toward_zero(self):
        box = scalar_box(5.0)
        state = init_train_state(box, seed=0)
        adam_step(box, state, OptimizerConfig(weight_decay=0.1,
                                              warmup_steps=1))
        assert float(box.w.data) < 5.0

    def test_quadratic_descent(self):
        box = Box(w=Tensor(np.array([3.0, -2.0, 1.5]), requires_grad=True))
        state = init_train_state(box, seed=0)
        config = OptimizerConfig(warmup_steps=1, target_lr=0.05,
                                 weight_decay=0.0, total_steps=100)

        def loss():
            return 0.5 * float(np.sum(box.w.data ** 2))

        first = loss()
        for _ in range(100):
            box.w.grad[...] = box.w.data
            adam_step(box, state, config)
        assert loss() < first * 0.5

    def test_missing_gradient_detected(self):
        w = Tensor(np.array(1.0), requires_grad=True)
        derived = add(w, w)  # non-leaf: no preallocated grad buffer
        box = Box(w=derived)
        state = init_train_state(box, seed=0)
        with pytest.raises(MissingGradient):
            adam_step(box, state, OptimizerConfig())

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(batch_size=0)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_decay=-1e-9)


class TestEma:
    def test_geometric_closed_form(self):
        box = scalar_box(2.0)
        state = init_train_state(box, seed=0)
        state.shadow["w"] = np.array(10.0)
        for k in range(1, 11):
            ema_update(state, box, decay=0.9999)
            expect = 2.0 + (10.0 - 2.0) * 0.9999 ** k
            assert abs(float(state.shadow["w"]) - expect) <= 1e-12

    def test_fixed_point_at_init(self):
        box = scalar_box(3.0)
        state = init_train_state(box, seed=0)
        for _ in range(5):
            ema_update(state, box, decay=0.9999)
        assert float(state.shadow["w"]) == 3.0

    def test_use_ema_swaps_and_restores(self):
        box = scalar_box(1.0)
        state = init_train_state(box, seed=0)
        state.shadow["w"] = np.array(42.0)
        with use_ema(box, state):
            assert float(box.w.data) == 42.0
        assert float(box.w.data) == 1.0

    def test_shadow_converges_when_params_freeze(self):
        box = scalar_box(0.0)
        state = init_train_state(box, seed=0)
        state.shadow["w"] = np.array(1.0)
        gaps = []
        for _ in range(3):
            ema_update(state, box, decay=0.9999)
            gaps.append(abs(float(state.shadow["w"])))
        assert gaps[1] == pytest.approx(gaps[0] * 0.9999, rel=1e-12)
        assert gaps[2] == pytest.approx(gaps[1] * 0.9999, rel=1e-12)


class TestCheckpoint:
    def roundtrip(self, tmp_path):
        examples, vocab, matrix = tiny_dataset()
        config = ModelConfig(**TOY)
        from qanet.model import init_model_params
        params = init_model_params(config, matrix, len(vocab.chars),
                                   np.random.default_rng(3))
        state = init_train_state(params, seed=9)
        state.step = 17
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(path, params, state, config, short_opt(), vocab)
        return params, state, config, vocab, path

    def test_roundtrip_bitwise(self, tmp_path):
        params, state, config, vocab, path = self.roundtrip(tmp_path)
        loaded, lstate, lconfig, lopt, lvocab = load_checkpoint(path)
        assert lstate.step == 17 and lstate.seed == 9
        assert lconfig == config
        assert lvocab.words == vocab.words and lvocab.chars == vocab.chars
        from qanet.model import named_tensors
        want = dict(named_tensors(params, trainable_only=False))
        for name, tensor in named_tensors(loaded, trainable_only=False):
            np.testing.assert_array_equal(tensor.data, want[name].data, err_msg=name)
        for name, _ in named_parameters(params):
            np.testing.assert_array_equal(lstate.shadow[name], state.shadow[name])

    def test_shape_mismatch_names_tensor(self, tmp_path):
        *_, path = self.roundtrip(tmp_path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        for meta in header["tensors"]:
            if meta["name"] == "param.span.w1":
                meta["shape"] = [64]
        # Keep byte count consistent with the edited header.
        grown = os.path.join(tmp_path, "bad.ckpt")
        with open(grown, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(body + b"\x00" * (64 - 32) * 8)
        with pytest.raises(CheckpointShapeMismatch) as err:
            load_checkpoint(grown)
        assert "span.w1" in str(err.value)

    def test_truncated_file_rejected(self, tmp_path):
        *_, path = self.roundtrip(tmp_path)
        with open(path, "rb") as fh:
            blob = fh.read()
        clipped = os.path.join(tmp_path, "clipped.ckpt")
        with open(clipped, "wb") as fh:
            fh.write(blob[:-100])
        with pytest.raises(ValueError):
            read_checkpoint(clipped)

    def test_fingerprint_tracks_config(self):
        a = config_fingerprint(ModelConfig(**TOY), short_opt())
        b = config_fingerprint(ModelConfig(**TOY), short_opt())
        c = config_fingerprint(ModelConfig(**{**TOY, "hidden_dim": 32}),
                               short_opt())
        assert a == b != c


class TestTrainLoop:
    def run(self, tmp_path, tag, **kw):
        examples, vocab, matrix = tiny_dataset()
        return train(examples, vocab, matrix, ModelConfig(**TOY),
                     kw.pop("opt", short_opt()), seed=5,
                     out_dir=os.path.join(tmp_path, tag), **kw)

    def test_loss_logged_and_finite(self, tmp_path):
        result = self.run(tmp_path, "a")
        assert result.steps_run == 6
        assert len(result.records) == 6
        assert all(np.isfinite(r["loss"]) for r in result.records)
        assert result.records[3]["lr"] == short_opt().target_lr

    def test_bitwise_determinism(self, tmp_path):
        r1 = self.run(tmp_path, "a")
        r2 = self.run(tmp_path, "b")
        with open(r1.metrics_path, "rb") as f1, open(r2.metrics_path, "rb") as f2:
            assert f1.read() == f2.read()
        with open(r1.checkpoint_path, "rb") as f1, \
             open(r2.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_matches_uninterrupted(self, tmp_path):
        full = self.run(tmp_path, "full")
        part = self.run(tmp_path, "part", opt=short_opt(total_steps=3))
        resumed = self.run(tmp_path, "resumed",
                           resume_from=part.checkpoint_path)
        full_losses = [r["loss"] for r in full.records]
        tail = [r["loss"] for r in resumed.records]
        assert tail == full_losses[3:]
        with open(full.checkpoint_path, "rb") as f1, \
             open(resumed.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_rejects_changed_optimizer(self, tmp_path):
        part = self.run(tmp_path, "part", opt=short_opt(total_steps=3))
        with pytest.raises(ValueError):
            self.run(tmp_path, "bad", opt=short_opt(target_lr=0.5),
                     resume_from=part.checkpoint_path)

    def test_resume_rejects_changed_model_naming_each_key(self, tmp_path):
        part = self.run(tmp_path, "part", opt=short_opt(total_steps=3))
        examples, vocab, matrix = tiny_dataset()
        other = ModelConfig(**{**TOY, "hidden_dim": 32, "dropout": 0.0})
        bad_dir = os.path.join(tmp_path, "bad")
        with pytest.raises(ConfigMismatch) as err:
            train(examples, vocab, matrix, other, short_opt(), seed=5,
                  out_dir=bad_dir, resume_from=part.checkpoint_path)
        assert "model.hidden_dim (checkpoint 16, run 32)" in str(err.value)
        assert "model.dropout (checkpoint 0.1, run 0.0)" in str(err.value)
        assert not os.path.exists(bad_dir)

    def test_non_finite_gradient_stops_before_update(self, tmp_path,
                                                     monkeypatch):
        ckpt = os.path.join(tmp_path, "nan", "model.ckpt")
        real_loss = qanet.trainer.model_loss
        calls, saved = [], []

        def poisoned(params, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                with open(ckpt, "rb") as fh:
                    saved.append(fh.read())  # written after step 2
                # Grads are zeroed before the loss; backward adds onto this.
                params.span.w2.grad[1] = np.nan
            return real_loss(params, *args, **kwargs)

        monkeypatch.setattr(qanet.trainer, "model_loss", poisoned)
        with pytest.raises(NonFiniteStep, match=r"step 3: .* span\.w2$"):
            self.run(tmp_path, "nan", checkpoint_every=1)
        with open(ckpt, "rb") as fh:
            assert fh.read() == saved[0]
        assert read_checkpoint(ckpt)[0]["step"] == 2
        with open(os.path.join(tmp_path, "nan", "metrics.jsonl"),
                  encoding="utf-8") as fh:
            assert [json.loads(line)["step"] for line in fh] == [1, 2]

    def test_non_finite_loss_named(self):
        box = scalar_box()
        with pytest.raises(NonFiniteStep, match="step 4: loss inf"):
            check_finite(4, Tensor(np.inf), box)
        check_finite(4, Tensor(1.0), box)

    def test_frozen_word_rows_bitwise_stable(self, tmp_path):
        examples, vocab, matrix = tiny_dataset()
        result = train(examples, vocab, matrix, ModelConfig(**TOY),
                       short_opt(), seed=5,
                       out_dir=os.path.join(tmp_path, "frozen"))
        params, *_ = load_checkpoint(result.checkpoint_path)
        expect = matrix.copy()
        expect[1] = 0.0  # unknown row lives in its own vector
        np.testing.assert_array_equal(params.embedding.word_table.data, expect)

    def test_eval_hook_writes_metrics(self, tmp_path):
        examples, vocab, matrix = tiny_dataset(n=8)
        result = train(examples, vocab, matrix, ModelConfig(**TOY),
                       short_opt(total_steps=2), seed=5,
                       out_dir=os.path.join(tmp_path, "ev"),
                       dev_examples=examples[:4], eval_every=2)
        kinds = [set(r) for r in result.records]
        assert {"step", "dev_em", "dev_f1"} in kinds

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            train([], Vocabulary(), np.zeros((2, 8)), ModelConfig(**TOY),
                  short_opt(), seed=0, out_dir=os.path.join(tmp_path, "e"))

"""Optimizer closed forms, checkpoint format, loop determinism, resume."""
import json
import math
import os
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from qanet.config import OptimizerConfig, PathsConfig, RunConfig
from qanet.data import Vocabulary, build_batch, example_from_raw
from qanet.model import ModelConfig, named_parameters
from qanet.tensor import Tensor, add
import qanet.trainer
from qanet.trainer import (
    CHECKPOINT_VERSION, CheckpointShapeMismatch, ConfigMismatch,
    MissingGradient, NonFiniteStep, _train_step, adam_step,
    check_finite, ema_update, init_train_state, load_checkpoint, lr_schedule,
    new_run, resume_run, save_checkpoint, train, use_ema,
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


def logged(result):
    """The records of a run's ``metrics.jsonl``, in order."""
    with open(result.metrics_path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def short_opt(**kw):
    base = dict(target_lr=0.01, warmup_steps=4, ema_decay=0.9, batch_size=4,
                total_steps=6)
    base.update(kw)
    return OptimizerConfig(**base)


def run_train(examples, vocab, matrix, config, opt, out_dir, resume=None,
              dev_examples=None, **settings):
    """``train`` from ``new_run`` at seed 5, or from ``resume_run(resume)``,
    logging every step unless ``settings`` (RunConfig's top-level fields)
    say otherwise."""
    run = RunConfig(model=config, optimizer=opt,
                    paths=PathsConfig(out_dir=out_dir), seed=5,
                    **{"log_every": 1, **settings})
    if resume:
        params, state, vocab = resume_run(resume, config, opt)
    else:
        params, state = new_run(config, vocab, matrix, 5)
    return train(examples, vocab, params, state, run, dev_examples)


class TestSchedule:
    def test_flat_after_warmup(self):
        for step in (1000, 1001, 5000):
            assert lr_schedule(step, 0.001, 1000) == 0.001

    def test_first_step_value(self):
        expect = 0.001 * math.log(2) / math.log(1001)
        assert lr_schedule(1, 0.001, 1000) == pytest.approx(expect, rel=1e-12)
        assert lr_schedule(1, 0.001, 1000) == pytest.approx(1.003e-4, abs=5e-7)

    def test_non_decreasing(self):
        values = [lr_schedule(s, 0.001, 1000) for s in range(1, 2001)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_step_zero_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 0.001, 1000)


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


class TestShapeFollowsData:
    """The trainer's writers of ``Tensor.data`` leave each tensor's recorded
    ``.shape`` and ``.ndim`` equal to its array's."""

    @staticmethod
    def assert_shapes_follow(params):
        from qanet.model import named_tensors
        for name, t in named_tensors(params):
            assert (t.shape, t.ndim) == (t.data.shape, t.data.ndim), name

    def test_adam_step_and_load_checkpoint(self, tmp_path):
        examples, vocab, matrix = tiny_dataset()
        config, opt = ModelConfig(**TOY), short_opt()
        params, state = new_run(config, vocab, matrix, seed=5)
        before = {n: t.data for n, t in named_parameters(params)}
        _train_step(params, state, config, opt,
                    build_batch(examples[:4], vocab, char_limit=config.char_limit))
        assert all(t.data is not before[n] for n, t in named_parameters(params))
        self.assert_shapes_follow(params)
        path = os.path.join(tmp_path, "model.ckpt")
        save_checkpoint(path, params, state, config, opt, vocab)
        self.assert_shapes_follow(load_checkpoint(path)[0])

    def test_use_ema_swaps_shapes_in_and_back(self):
        box = scalar_box(1.0)
        state = init_train_state(box, seed=0)
        state.shadow["w"] = np.array([42.0, 43.0])
        with use_ema(box, state):
            assert (box.w.shape, box.w.ndim) == ((2,), 1)
        assert (box.w.shape, box.w.ndim) == ((), 0)


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
        want = dict(named_tensors(params))
        for name, tensor in named_tensors(loaded):
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

    @staticmethod
    def rewrite(path, edit):
        """A copy of checkpoint ``path`` whose header and body went through
        ``edit(header, body)``, which returns the new body."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = edit(header, fh.read())
        out = path + ".edited"
        with open(out, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n" + body)
        return out

    def test_truncated_file_rejected(self, tmp_path):
        *_, path = self.roundtrip(tmp_path)
        clipped = {}

        def clip(header, body):
            # Keep half of the middle tensor's bytes and nothing after.
            sizes = [8 * int(np.prod(m["shape"])) for m in header["tensors"]]
            middle = len(sizes) // 2
            clipped["name"] = header["tensors"][middle]["name"]
            return body[:sum(sizes[:middle]) + sizes[middle] // 2]

        bad = self.rewrite(path, clip)
        with pytest.raises(ValueError) as err:
            load_checkpoint(bad)
        assert f"{bad} at {clipped['name']}" in str(err.value)

    @pytest.mark.parametrize("extra", [1, 8, 800])
    def test_bytes_past_the_last_tensor_rejected(self, tmp_path, extra):
        *_, path = self.roundtrip(tmp_path)
        long = self.rewrite(path, lambda header, body: body + bytes(extra))
        with pytest.raises(ValueError, match="runs on past its last tensor") as err:
            load_checkpoint(long)
        assert long in str(err.value)

    def test_load_then_save_is_byte_identical(self, tmp_path):
        *_, path = self.roundtrip(tmp_path)
        again = os.path.join(tmp_path, "again.ckpt")
        save_checkpoint(again, *load_checkpoint(path))
        with open(path, "rb") as want, open(again, "rb") as got:
            assert got.read() == want.read()

    def test_extra_tensor_rejected(self, tmp_path):
        *_, path = self.roundtrip(tmp_path)

        def add_tensor(header, body):
            header["tensors"].append({"name": "param.extra", "shape": [3]})
            return body + bytes(24)

        with pytest.raises(CheckpointShapeMismatch) as err:
            load_checkpoint(self.rewrite(path, add_tensor))
        assert "param.extra" in str(err.value)

    def test_swapped_tensors_rejected(self, tmp_path):
        *_, path = self.roundtrip(tmp_path)
        swapped = []

        def swap(header, body):
            metas = header["tensors"]
            i, j = next((i, j) for i in range(len(metas))
                        for j in range(i + 1, len(metas))
                        if metas[i]["shape"] == metas[j]["shape"])
            metas[i], metas[j] = metas[j], metas[i]
            swapped.append(metas[i]["name"])
            return body

        with pytest.raises(CheckpointShapeMismatch) as err:
            load_checkpoint(self.rewrite(path, swap))
        assert swapped[0] in str(err.value)

    def test_unknown_header_key_still_loads_bitwise(self, tmp_path):
        """Older checkpoints carry a ``config_hash`` and a per-tensor
        ``dtype`` that nothing reads."""
        *_, path = self.roundtrip(tmp_path)

        def add_key(header, body):
            header["config_hash"] = "0" * 64
            for meta in header["tensors"]:
                meta["dtype"] = "<f8"
            return body

        again = os.path.join(tmp_path, "again.ckpt")
        save_checkpoint(again, *load_checkpoint(self.rewrite(path, add_key)))
        with open(path, "rb") as want, open(again, "rb") as got:
            assert got.read() == want.read()

    def test_header_entries_hold_name_and_shape_then_raw_blobs(self, tmp_path):
        params, state, *_, path = self.roundtrip(tmp_path)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            body = fh.read()
        assert all(sorted(meta) == ["name", "shape"] for meta in header["tensors"])
        from qanet.trainer import _checkpoint_entries
        assert body == b"".join(np.ascontiguousarray(a).astype("<f8").tobytes()
                                for _, a in _checkpoint_entries(params, state))

    def test_unsupported_version_rejected_by_both_readers(self, tmp_path):
        """A later format, format 1 with its attention key biases and format
        2 with its nested encoder names, are refused, not migrated; the
        message names both versions."""
        assert CHECKPOINT_VERSION == 3
        *_, path = self.roundtrip(tmp_path)
        for version in (1, 2, CHECKPOINT_VERSION + 1):
            def bump(header, body):
                header["version"] = version
                return body

            bad = self.rewrite(path, bump)
            names = (f"unsupported checkpoint version {version} in .*; "
                     f"this build reads version {CHECKPOINT_VERSION}")
            with pytest.raises(ValueError, match=names):
                load_checkpoint(bad)
            with pytest.raises(ValueError, match=names):
                resume_run(bad, ModelConfig(**TOY), short_opt())

    def test_missing_header_key_compares_as_default(self, tmp_path):
        """A setting the header lacks is read as its default: a run that
        keeps the default resumes, and one that differs is refused with the
        default named as the checkpoint's value."""
        *_, path = self.roundtrip(tmp_path)

        def drop_keys(header, body):
            del header["model_config"]["max_answer_len"]
            del header["optimizer_config"]["weight_decay"]
            return body

        old = self.rewrite(path, drop_keys)
        params, state, vocab = resume_run(old, ModelConfig(**TOY), short_opt())
        assert state.step == 17
        with pytest.raises(ConfigMismatch) as err:
            resume_run(old, ModelConfig(**TOY, max_answer_len=20),
                       short_opt(weight_decay=0.0))
        assert "model.max_answer_len (checkpoint 30, run 20)" in str(err.value)
        assert ("optimizer.weight_decay (checkpoint 3e-07, run 0.0)"
                in str(err.value))


    def test_unknown_config_key_refused_by_name(self, tmp_path):
        """A config key this build does not know, in either section, is
        refused with the file, the section and every such key named."""
        *_, path = self.roundtrip(tmp_path)
        for section in ("model_config", "optimizer_config"):
            def add_keys(header, body, section=section):
                header[section]["compute_dtype"] = "float64"
                header[section]["later_key"] = 1
                return body

            bad = self.rewrite(path, add_keys)
            with pytest.raises(ValueError) as err:
                load_checkpoint(bad)
            assert str(err.value) == (
                f"{bad}: {section} has keys this build does not know: "
                "compute_dtype, later_key")


class TestTrainLoop:
    def run(self, tmp_path, tag, **kw):
        examples, vocab, matrix = tiny_dataset()
        return run_train(examples, vocab, matrix, ModelConfig(**TOY),
                         kw.pop("opt", short_opt()),
                         os.path.join(tmp_path, tag), **kw)

    def test_loss_logged_and_finite(self, tmp_path):
        result = self.run(tmp_path, "a")
        assert result.steps_run == 6
        records = logged(result)
        assert len(records) == 6
        assert all(np.isfinite(r["loss"]) for r in records)
        assert records[3]["lr"] == short_opt().target_lr

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
        resumed = self.run(tmp_path, "resumed", resume=part.checkpoint_path)
        full_losses = [r["loss"] for r in logged(full)]
        tail = [r["loss"] for r in logged(resumed)]
        assert tail == full_losses[3:]
        with open(full.checkpoint_path, "rb") as f1, \
             open(resumed.checkpoint_path, "rb") as f2:
            assert f1.read() == f2.read()

    def test_resume_in_later_epoch_matches_uninterrupted(self, tmp_path):
        # 18 examples at B=4 make five batches an epoch, the last one short,
        # so step 7 resumes at the third batch of the second epoch.
        examples, vocab, matrix = tiny_dataset(n=18)

        def run(tag, steps, resume=None):
            return run_train(examples, vocab, matrix, ModelConfig(**TOY),
                             short_opt(total_steps=steps),
                             os.path.join(tmp_path, tag), resume=resume)

        full = run("full", 12)
        part = run("part", 7)
        resumed = run("part", 12, resume=part.checkpoint_path)
        for name in ("metrics_path", "checkpoint_path"):
            with open(getattr(full, name), "rb") as f1, \
                 open(getattr(resumed, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_step_graph_freed_before_next_forward(self, tmp_path,
                                                  monkeypatch):
        real_loss = qanet.trainer.model_loss
        first_start, alive = [], []

        def spy(*args, **kwargs):
            if first_start:
                alive.append(first_start[0]() is not None)
            loss, logits = real_loss(*args, **kwargs)
            if not first_start:
                first_start.append(weakref.ref(logits.start.data))
            return loss, logits

        monkeypatch.setattr(qanet.trainer, "model_loss", spy)
        self.run(tmp_path, "spy", opt=short_opt(total_steps=2))
        assert alive == [False]

    def test_steps_accumulate_into_the_same_grad_buffers(self):
        """backward adds into the buffer zero_grads cleared; no step swaps a
        fresh gradient array into a parameter."""
        examples, vocab, matrix = tiny_dataset()
        config, opt = ModelConfig(**TOY), short_opt()
        params, state = new_run(config, vocab, matrix, 5)
        batch = build_batch(examples[:4], vocab, config.char_limit)
        buffers = {name: t.grad for name, t in named_parameters(params)}
        for _ in range(2):
            _train_step(params, state, config, opt, batch)
            assert all(t.grad is buffers[name]
                       for name, t in named_parameters(params))
        assert any(np.any(g != 0.0) for g in buffers.values())

    def test_resume_rejects_changed_optimizer(self, tmp_path):
        part = self.run(tmp_path, "part", opt=short_opt(total_steps=3))
        with pytest.raises(ValueError):
            self.run(tmp_path, "bad", opt=short_opt(target_lr=0.5),
                     resume=part.checkpoint_path)

    def test_resume_rejects_changed_model_naming_each_key(self, tmp_path):
        part = self.run(tmp_path, "part", opt=short_opt(total_steps=3))
        examples, vocab, matrix = tiny_dataset()
        other = ModelConfig(**{**TOY, "hidden_dim": 32, "dropout": 0.0})
        bad_dir = os.path.join(tmp_path, "bad")
        with pytest.raises(ConfigMismatch) as err:
            run_train(examples, vocab, matrix, other, short_opt(), bad_dir,
                      resume=part.checkpoint_path)
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
        assert load_checkpoint(ckpt)[1].step == 2
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
        result = run_train(examples, vocab, matrix, ModelConfig(**TOY),
                           short_opt(), os.path.join(tmp_path, "frozen"))
        params, *_ = load_checkpoint(result.checkpoint_path)
        expect = matrix.copy()
        expect[1] = 0.0  # unknown row lives in its own vector
        np.testing.assert_array_equal(params.embedding.word_table.data, expect)

    def test_eval_hook_writes_metrics(self, tmp_path):
        examples, vocab, matrix = tiny_dataset(n=8)
        result = run_train(examples, vocab, matrix, ModelConfig(**TOY),
                           short_opt(total_steps=2),
                           os.path.join(tmp_path, "ev"),
                           dev_examples=examples[:4], eval_every=2)
        kinds = [set(r) for r in logged(result)]
        assert {"step", "dev_em", "dev_f1"} in kinds

    @pytest.mark.parametrize("dev", [None, []])
    def test_eval_every_without_dev_examples_writes_nothing(self, tmp_path, dev):
        """A dev evaluation period with no dev example is refused, not
        ignored, before out_dir exists."""
        examples, vocab, matrix = tiny_dataset(n=8)
        out = os.path.join(tmp_path, "ev")
        with pytest.raises(ValueError, match="eval_every needs"):
            run_train(examples, vocab, matrix, ModelConfig(**TOY),
                      short_opt(total_steps=2), out, dev_examples=dev,
                      eval_every=2)
        assert not os.path.exists(out)

    def test_seed_other_than_the_state_refused_before_out_dir(self, tmp_path):
        """A config paired with another run's state may not train silently
        on the state's seed."""
        examples, vocab, matrix = tiny_dataset(n=8)
        config = ModelConfig(**TOY)
        params, state = new_run(config, vocab, matrix, 5)
        out = os.path.join(tmp_path, "s")
        run = RunConfig(model=config, optimizer=short_opt(total_steps=2),
                        paths=PathsConfig(out_dir=out), seed=6)
        with pytest.raises(ConfigMismatch,
                           match=r"seed \(state 5, config 6\)"):
            train(examples, vocab, params, state, run)
        assert not os.path.exists(out)
        assert state.step == 0

    def test_empty_dataset_rejected(self, tmp_path):
        _, vocab, matrix = tiny_dataset()
        out = os.path.join(tmp_path, "e")
        with pytest.raises(ValueError, match="empty training set"):
            run_train([], vocab, matrix, ModelConfig(**TOY), short_opt(), out)
        assert not os.path.exists(out)

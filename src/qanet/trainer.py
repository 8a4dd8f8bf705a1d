"""Training loop: Adam with log warmup, L2 decay, EMA, checkpoints.

Every random draw is derived from (seed, purpose, step) through
SeedSequence, so a resumed run replays the exact stream of an
uninterrupted one and two runs with the same seed are bitwise identical,
logs and checkpoint bytes included.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .data import Vocabulary, build_batch, make_batches
from .evaluation import evaluate
from .model import (
    ModelConfig, ModelParams, init_model_params, model_loss, named_parameters,
    named_tensors, predict_all,
)
from .tensor import backward

CHECKPOINT_VERSION = 1

# SeedSequence lanes; distinct constants keep the streams independent.
_LANE_INIT = 11
_LANE_DROPOUT = 7
_LANE_EPOCH = 101


class MissingGradient(ValueError):
    """A trainable tensor reached the optimizer without a gradient buffer."""


class CheckpointShapeMismatch(ValueError):
    """A stored tensor does not fit the model being restored."""


class ConfigMismatch(ValueError):
    """A resumed run's settings differ from those stored in its checkpoint."""


class NonFiniteStep(FloatingPointError):
    """A training step produced an infinite or NaN loss or gradient."""


@dataclass
class OptimizerConfig:
    beta1: float = 0.8
    beta2: float = 0.999
    eps: float = 1e-7
    target_lr: float = 0.001
    warmup_steps: int = 1000
    weight_decay: float = 3e-7
    ema_decay: float = 0.9999
    batch_size: int = 32
    total_steps: int = 1000

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("betas must lie in (0, 1)")
        for name in ("eps", "target_lr", "warmup_steps", "ema_decay",
                     "batch_size", "total_steps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass
class TrainState:
    step: int
    seed: int
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    shadow: dict[str, np.ndarray]


def init_train_state(params: ModelParams, seed: int) -> TrainState:
    pairs = named_parameters(params)
    return TrainState(
        step=0, seed=seed,
        first_moment={n: np.zeros_like(t.data) for n, t in pairs},
        second_moment={n: np.zeros_like(t.data) for n, t in pairs},
        shadow={n: t.data.copy() for n, t in pairs})


def lr_schedule(step: int, target_lr: float = 0.001,
                warmup_steps: int = 1000) -> float:
    """Logarithmic ramp from 0 to target over the warmup, then flat."""
    if step < 1:
        raise ValueError(f"step counts from 1, got {step}")
    if step >= warmup_steps:
        return target_lr
    return target_lr * math.log1p(step) / math.log1p(warmup_steps)


def zero_grads(params) -> None:
    for _, t in named_parameters(params):
        if t.grad is not None:
            t.grad[...] = 0.0


def adam_step(params, state: TrainState, config: OptimizerConfig) -> float:
    """One bias-corrected update over every trainable tensor. Returns lr.

    L2 decay couples into the gradient (g + lambda * theta) before the
    moment updates; epsilon lands outside the square root.
    """
    state.step += 1
    t = state.step
    lr = lr_schedule(t, config.target_lr, config.warmup_steps)
    correct1 = 1.0 - config.beta1 ** t
    correct2 = 1.0 - config.beta2 ** t
    for name, tensor in named_parameters(params):
        if tensor.grad is None:
            raise MissingGradient(name)
        g = tensor.grad + config.weight_decay * tensor.data
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= config.beta1
        m += (1.0 - config.beta1) * g
        v *= config.beta2
        v += (1.0 - config.beta2) * (g * g)
        update = (m / correct1) / (np.sqrt(v / correct2) + config.eps)
        tensor.data = tensor.data - lr * update
    return lr


def ema_update(state: TrainState, params, decay: float = 0.9999) -> None:
    for name, tensor in named_parameters(params):
        shadow = state.shadow[name]
        shadow *= decay
        shadow += (1.0 - decay) * tensor.data


@contextmanager
def use_ema(params, state: TrainState):
    """Swap the EMA shadow into the model for the duration of the block."""
    pairs = named_parameters(params)
    backup = {n: t.data for n, t in pairs}
    for n, t in pairs:
        t.data = state.shadow[n]
    try:
        yield params
    finally:
        for n, t in pairs:
            t.data = backup[n]


def config_fingerprint(model_config: ModelConfig,
                       opt_config: OptimizerConfig) -> str:
    blob = json.dumps({"model": asdict(model_config),
                       "optimizer": asdict(opt_config)}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _checkpoint_entries(params: ModelParams, state: TrainState):
    for name, tensor in named_tensors(params, trainable_only=False):
        yield "param." + name, tensor.data
    for group, table in (("adam_m", state.first_moment),
                         ("adam_v", state.second_moment),
                         ("ema", state.shadow)):
        for name, _ in named_parameters(params):
            yield f"{group}.{name}", table[name]


def save_checkpoint(path: str, params: ModelParams, state: TrainState,
                    model_config: ModelConfig, opt_config: OptimizerConfig,
                    vocab: Vocabulary) -> None:
    """One JSON header line, then raw little-endian float64 blobs in order."""
    entries = list(_checkpoint_entries(params, state))
    header = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "seed": state.seed,
        "model_config": asdict(model_config),
        "optimizer_config": asdict(opt_config),
        "config_hash": config_fingerprint(model_config, opt_config),
        "words": vocab.words,
        "chars": vocab.chars,
        "tensors": [{"name": n, "shape": list(a.shape), "dtype": "<f8"}
                    for n, a in entries],
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for _, a in entries:
            fh.write(np.ascontiguousarray(a).astype("<f8").tobytes())
    os.replace(tmp, path)


def check_resume_config(path: str, model_config: ModelConfig,
                        opt_config: OptimizerConfig) -> dict:
    """Checkpoint ``path``'s header, once the run's settings match it.

    Every model and optimizer setting but ``optimizer.total_steps`` is baked
    into the stored weights and moments; any difference raises
    :class:`ConfigMismatch` naming each key with both values.
    """
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
    differ = []
    for section, ours in (("model", model_config), ("optimizer", opt_config)):
        stored = header[f"{section}_config"]
        differ += [f"{section}.{key} (checkpoint {stored[key]!r}, run {value!r})"
                   for key, value in asdict(ours).items()
                   if key != "total_steps" and value != stored[key]]
    if differ:
        raise ConfigMismatch(f"settings differ from checkpoint {path}: "
                             + ", ".join(differ))
    return header


def check_finite(step: int, loss, params) -> None:
    """Raise :class:`NonFiniteStep` on an inf/NaN loss or gradient."""
    bad = [name for name, t in named_parameters(params)
           if t.grad is not None and not np.isfinite(t.grad).all()]
    if bad or not np.isfinite(loss.data):
        raise NonFiniteStep(f"step {step}: loss {float(loss.data)}, first "
                            f"non-finite gradient in {bad[0] if bad else 'none'}")


def read_checkpoint(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version in {path}")
        arrays = {}
        for meta in header["tensors"]:
            shape = tuple(meta["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"truncated checkpoint at {meta['name']}")
            arrays[meta["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
    return header, arrays


def load_checkpoint(path: str) -> tuple[ModelParams, TrainState, ModelConfig,
                                        OptimizerConfig, Vocabulary]:
    """Rebuild model, optimizer state, and vocab from a checkpoint file."""
    header, arrays = read_checkpoint(path)
    model_config = ModelConfig(**header["model_config"])
    opt_config = OptimizerConfig(**header["optimizer_config"])
    vocab = Vocabulary.from_lists(header["words"], header["chars"])
    placeholder = np.zeros((len(vocab.words), model_config.word_dim))
    params = init_model_params(model_config, placeholder, len(vocab.chars),
                               np.random.default_rng(0))
    for name, tensor in named_tensors(params, trainable_only=False):
        key = "param." + name
        if key not in arrays:
            raise CheckpointShapeMismatch(f"{name}: missing from checkpoint")
        stored = arrays[key]
        if stored.shape != tensor.data.shape:
            raise CheckpointShapeMismatch(
                f"{name}: checkpoint {stored.shape} vs model {tensor.data.shape}")
        tensor.data = stored
    state = TrainState(step=header["step"], seed=header["seed"],
                       first_moment={}, second_moment={}, shadow={})
    for group, table in (("adam_m", state.first_moment),
                         ("adam_v", state.second_moment),
                         ("ema", state.shadow)):
        for name, tensor in named_parameters(params):
            key = f"{group}.{name}"
            if key not in arrays:
                raise CheckpointShapeMismatch(f"{key}: missing from checkpoint")
            if arrays[key].shape != tensor.data.shape:
                raise CheckpointShapeMismatch(
                    f"{key}: checkpoint {arrays[key].shape} vs model {tensor.data.shape}")
            table[name] = arrays[key]
    return params, state, model_config, opt_config, vocab


def _derived_seed(seed: int, lane: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, lane, index]).generate_state(1)[0])


def _epoch_batches(examples, vocab, model_config, opt_config, seed, epoch):
    return make_batches(examples, vocab, batch_size=opt_config.batch_size,
                        seed=_derived_seed(seed, _LANE_EPOCH, epoch),
                        char_limit=model_config.char_limit)


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    steps_run: int
    records: list


def train(examples, vocab: Vocabulary | None, word_matrix: np.ndarray | None,
          model_config: ModelConfig, opt_config: OptimizerConfig, seed: int,
          out_dir: str, dev_examples=None, eval_every: int = 0,
          checkpoint_every: int = 0, log_every: int = 1,
          resume_from: str | None = None, sampler=None) -> TrainResult:
    """Run the optimization loop and leave a checkpoint plus metrics log.

    ``sampler`` (optional) is an infinite example stream that replaces the
    per-epoch shuffling; it is fast-forwarded on resume so the two paths
    stay step-for-step deterministic. On resume the vocabulary, weights and
    seed come from ``resume_from`` (``vocab`` and ``word_matrix`` are not
    read), every other setting must match the checkpoint's, and the metrics
    log is cut back to the checkpoint's step. A non-finite loss or gradient
    stops the run before that step's update, log record or checkpoint.
    """
    if not examples and sampler is None:
        raise ValueError("empty training set")
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    checkpoint_path = os.path.join(out_dir, "model.ckpt")

    if resume_from:
        check_resume_config(resume_from, model_config, opt_config)
        params, state, _, _, vocab = load_checkpoint(resume_from)
        seed = state.seed
    else:
        if word_matrix is None:
            raise ValueError("word vectors required when starting fresh")
        params = init_model_params(
            model_config, word_matrix, len(vocab.chars),
            np.random.default_rng(np.random.SeedSequence([seed, _LANE_INIT])))
        state = init_train_state(params, seed)

    if sampler is not None:
        for _ in range(state.step * opt_config.batch_size):
            next(sampler)

    batches = []
    cursor = 0
    epoch = 0
    if sampler is None:
        # Fast-forward the epoch structure to the resume point.
        probe = _epoch_batches(examples, vocab, model_config, opt_config,
                               seed, 0)
        per_epoch = len(probe)
        epoch = state.step // per_epoch
        cursor = state.step % per_epoch
        batches = probe if epoch == 0 else _epoch_batches(
            examples, vocab, model_config, opt_config, seed, epoch)

    os.makedirs(out_dir, exist_ok=True)
    kept = []
    if resume_from and os.path.exists(metrics_path):
        # Records past the checkpoint (written before a crash, or by a run
        # that went further) are about to be written again.
        with open(metrics_path, encoding="utf-8") as fh:
            kept = [line for line in fh
                    if json.loads(line)["step"] <= state.step]
    records = []
    log_fh = open(metrics_path, "w", encoding="utf-8")
    log_fh.writelines(kept)

    def emit(record):
        records.append(record)
        log_fh.write(json.dumps(record) + "\n")
        log_fh.flush()

    try:
        while state.step < opt_config.total_steps:
            step = state.step + 1
            if sampler is not None:
                chunk = [next(sampler) for _ in range(opt_config.batch_size)]
                batch = build_batch(chunk, vocab,
                                    char_limit=model_config.char_limit)
            else:
                if cursor >= len(batches):
                    epoch += 1
                    batches = _epoch_batches(examples, vocab, model_config,
                                             opt_config, seed, epoch)
                    cursor = 0
                batch = batches[cursor]
                cursor += 1

            step_rng = np.random.default_rng(
                np.random.SeedSequence([seed, _LANE_DROPOUT, step]))
            zero_grads(params)
            loss, _ = model_loss(params, model_config, batch,
                                 train_mode=True, rng=step_rng)
            backward(loss)
            check_finite(step, loss, params)
            lr = adam_step(params, state, opt_config)
            ema_update(state, params, opt_config.ema_decay)

            if log_every and (step % log_every == 0
                              or step == opt_config.total_steps):
                emit({"step": step, "loss": float(loss.data), "lr": lr})
            if eval_every and dev_examples and step % eval_every == 0:
                with use_ema(params, state):
                    predictions = predict_all(params, model_config,
                                              dev_examples, vocab,
                                              opt_config.batch_size)
                result = evaluate(predictions, dev_examples)
                emit({"step": step, "dev_em": result.exact_match,
                      "dev_f1": result.f1})
            if checkpoint_every and step % checkpoint_every == 0:
                save_checkpoint(checkpoint_path, params, state, model_config,
                                opt_config, vocab)
        save_checkpoint(checkpoint_path, params, state, model_config,
                        opt_config, vocab)
    finally:
        log_fh.close()
    return TrainResult(checkpoint_path=checkpoint_path,
                       metrics_path=metrics_path, steps_run=state.step,
                       records=records)

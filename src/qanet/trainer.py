"""Training loop: Adam with log warmup, L2 decay, EMA, checkpoints.

Every random draw is derived from (seed, purpose, step) through
SeedSequence, so a resumed run replays the exact stream of an
uninterrupted one and two runs with the same seed are bitwise identical,
logs and checkpoint bytes included.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest

import numpy as np

from .config import OptimizerConfig, RunConfig, to_flat
from .data import Vocabulary, build_batch, make_batches
from .evaluation import evaluate
from .model import (
    ModelConfig, ModelParams, init_model_params, model_loss, named_parameters,
    named_tensors, predict_all,
)
from .tensor import backward

CHECKPOINT_VERSION = 3

# SeedSequence lanes; distinct constants keep the streams independent.
_LANE_INIT = 11
_LANE_DROPOUT = 7
_LANE_EPOCH = 101


class MissingGradient(ValueError):
    """A trainable tensor reached the optimizer without a gradient buffer."""


class CheckpointShapeMismatch(ValueError):
    """A stored tensor does not fit the model being restored."""


class ConfigMismatch(ValueError):
    """A run's settings differ from those stored in its checkpoint or state."""


class NonFiniteStep(FloatingPointError):
    """A training step produced an infinite or NaN loss or gradient."""


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


def lr_schedule(step: int, target_lr: float, warmup_steps: int) -> float:
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


def ema_update(state: TrainState, params, decay: float) -> None:
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


def _checkpoint_entries(params: ModelParams, state: TrainState):
    """(name, array) for every stored tensor, in file order."""
    for name, tensor in named_tensors(params):
        yield "param." + name, tensor.data
    for group, table in (("adam_m", state.first_moment),
                         ("adam_v", state.second_moment),
                         ("ema", state.shadow)):
        for name, _ in named_parameters(params):
            yield f"{group}.{name}", table[name]


def save_checkpoint(path: str, params: ModelParams, state: TrainState,
                    model_config: ModelConfig, opt_config: OptimizerConfig,
                    vocab: Vocabulary) -> None:
    """Write the one checkpoint format, atomically.

    A JSON header line (version, step, seed, both configs, the vocabulary,
    and each tensor's name and shape), then every array of
    :func:`_checkpoint_entries` as raw little-endian float64, in that order.
    """
    entries = list(_checkpoint_entries(params, state))
    header = {
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "seed": state.seed,
        "model_config": asdict(model_config),
        "optimizer_config": asdict(opt_config),
        "words": vocab.words,
        "chars": vocab.chars,
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in entries],
    }
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for _, a in entries:
            fh.write(np.ascontiguousarray(a, dtype="<f8"))
    os.replace(tmp, path)


def _read_header(fh) -> dict:
    header = json.loads(fh.readline().decode("utf-8"))
    if header.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {header.get('version')!r} "
                         f"in {fh.name}; this build reads version {CHECKPOINT_VERSION}")
    return header


def _header_config(path: str, header: dict, section: str, cls):
    """``cls`` from the header's ``section``, refusing keys it does not know."""
    stored = header[section]
    unknown = sorted(set(stored) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{path}: {section} has keys this build does not "
                         f"know: {', '.join(unknown)}")
    return cls(**stored)


def check_finite(step: int, loss, params) -> None:
    """Raise :class:`NonFiniteStep` on an inf/NaN loss or gradient."""
    bad = [name for name, t in named_parameters(params)
           if t.grad is not None and not np.isfinite(t.grad).all()]
    if bad or not np.isfinite(loss.data):
        raise NonFiniteStep(f"step {step}: loss {float(loss.data)}, first "
                            f"non-finite gradient in {bad[0] if bad else 'none'}")


def load_checkpoint(path: str) -> tuple[ModelParams, TrainState, ModelConfig,
                                        OptimizerConfig, Vocabulary]:
    """Rebuild model, optimizer state, and vocab from a checkpoint file.

    The format is :func:`save_checkpoint`'s. The header's tensor list must
    equal :func:`_checkpoint_entries`' names and shapes, in order; the first
    difference raises :class:`CheckpointShapeMismatch` naming both sides.
    Each array is read once, into place; a short or overlong file is refused.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        model_config = _header_config(path, header, "model_config", ModelConfig)
        opt_config = _header_config(path, header, "optimizer_config",
                                    OptimizerConfig)
        vocab = Vocabulary.from_lists(header["words"], header["chars"])
        placeholder = np.zeros((len(vocab.words), model_config.word_dim))
        params = init_model_params(model_config, placeholder, len(vocab.chars),
                                   np.random.default_rng(0))
        for _, tensor in named_tensors(params):  # filled from the file below
            tensor.data = np.empty(tensor.shape, dtype="<f8")
        trainable = named_parameters(params)
        state = TrainState(header["step"], header["seed"], *(
            {n: np.empty(t.shape, dtype="<f8") for n, t in trainable}
            for _ in range(3)))
        entries = list(_checkpoint_entries(params, state))
        stored = [f"{meta['name']} {tuple(meta['shape'])}"
                  for meta in header["tensors"]]
        wanted = [f"{name} {array.shape}" for name, array in entries]
        for have, want in zip_longest(stored, wanted, fillvalue="nothing"):
            if have != want:
                raise CheckpointShapeMismatch(
                    f"{path}: checkpoint has {have} where the model has {want}")
        for name, array in entries:
            if fh.readinto(array) != array.nbytes:
                raise ValueError(f"truncated checkpoint {path} at {name}")
        if fh.read(1):
            raise ValueError(f"checkpoint {path} runs on past its last tensor")
    return params, state, model_config, opt_config, vocab


def _derived_seed(seed: int, lane: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, lane, index]).generate_state(1)[0])


def _batch_stream(examples, vocab, model_config, opt_config, seed, sampler,
                  skip):
    """Training batches in run order, starting ``skip`` steps in.

    With a ``sampler`` each batch is its next ``batch_size`` draws; without
    one, every epoch reshuffles ``examples`` into fresh ``make_batches``.
    """
    size, limit = opt_config.batch_size, model_config.char_limit
    if sampler is not None:
        for _ in range(skip * size):
            next(sampler)
        while True:
            yield build_batch([next(sampler) for _ in range(size)], vocab,
                              char_limit=limit)
    epoch, cursor = divmod(skip, math.ceil(len(examples) / size))
    while True:
        yield from make_batches(
            examples, vocab, batch_size=size,
            seed=_derived_seed(seed, _LANE_EPOCH, epoch),
            char_limit=limit)[cursor:]
        epoch, cursor = epoch + 1, 0


def _train_step(params, state, model_config, opt_config, batch):
    """One update on ``batch``; returns (loss, lr). Its graph dies on return."""
    step = state.step + 1
    rng = np.random.default_rng(
        np.random.SeedSequence([state.seed, _LANE_DROPOUT, step]))
    zero_grads(params)
    loss, _ = model_loss(params, model_config, batch, train_mode=True, rng=rng)
    backward(loss)
    check_finite(step, loss, params)
    lr = adam_step(params, state, opt_config)
    ema_update(state, params, opt_config.ema_decay)
    return float(loss.data), lr


@dataclass
class TrainResult:
    checkpoint_path: str
    metrics_path: str
    steps_run: int


def new_run(model_config: ModelConfig, vocab: Vocabulary,
            word_matrix: np.ndarray, seed: int) -> tuple[ModelParams, TrainState]:
    """Freshly initialised weights and optimizer state for a run at ``seed``."""
    params = init_model_params(
        model_config, word_matrix, len(vocab.chars),
        np.random.default_rng(np.random.SeedSequence([seed, _LANE_INIT])))
    return params, init_train_state(params, seed)


def resume_run(path: str, model_config: ModelConfig, opt_config: OptimizerConfig
               ) -> tuple[ModelParams, TrainState, Vocabulary]:
    """Weights, optimizer state and vocabulary that continue ``path``'s run.

    Every model and optimizer setting but ``optimizer.total_steps`` must
    equal the checkpoint's, so that a resume replays the uninterrupted run,
    dropout rates and ``max_context_len`` included; a key the header lacks
    compares as its default. Any difference raises :class:`ConfigMismatch`
    naming each key with both values.
    """
    params, state, stored_model, stored_opt, vocab = load_checkpoint(path)
    differ = []
    for section, stored, ours in (("model", stored_model, model_config),
                                  ("optimizer", stored_opt, opt_config)):
        stored = asdict(stored)
        differ += [f"{section}.{key} (checkpoint {stored[key]!r}, run {value!r})"
                   for key, value in asdict(ours).items()
                   if key != "total_steps" and value != stored[key]]
    if differ:
        raise ConfigMismatch(f"settings differ from checkpoint {path}: "
                             + ", ".join(differ))
    return params, state, vocab


def check_eval_every(config: RunConfig, dev_examples) -> None:
    """Refuse an ``eval_every`` with no dev question to score."""
    if config.eval_every and not dev_examples:
        raise ValueError("eval_every needs a paths.dev_data file with questions")


def train(examples, vocab: Vocabulary, params: ModelParams, state: TrainState,
          config: RunConfig, dev_examples=None, sampler=None) -> TrainResult:
    """Continue a run from ``state.step`` to ``config.optimizer.total_steps``.

    ``params`` and ``state`` come from :func:`new_run` or :func:`resume_run`;
    the loop draws every batch and dropout mask from ``state.seed`` and
    takes every other setting from ``config``. ``sampler`` (optional) is an
    infinite example stream that replaces the per-epoch shuffling; it is
    fast-forwarded past the steps already run so a resume stays
    step-for-step deterministic. An empty training set without a sampler,
    an ``eval_every`` without dev examples and a ``config.seed`` other than
    ``state.seed`` (:class:`ConfigMismatch`) are refused before
    ``paths.out_dir`` exists. Then ``config.json`` records the settings;
    when ``state.step`` is past 0 the metrics log is cut back to that step.
    A non-finite loss or gradient stops the run before that step's update,
    log record or checkpoint.
    """
    if not examples and sampler is None:
        raise ValueError("empty training set")
    check_eval_every(config, dev_examples)
    if config.seed != state.seed:
        raise ConfigMismatch(f"settings differ from the run's state: seed "
                             f"(state {state.seed}, config {config.seed})")
    model_config, opt_config = config.model, config.optimizer
    out_dir = config.paths.out_dir
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    checkpoint_path = os.path.join(out_dir, "model.ckpt")
    batches = _batch_stream(examples, vocab, model_config, opt_config,
                            state.seed, sampler, state.step)

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(to_flat(config), fh, indent=2, sort_keys=True)
    kept = []
    if state.step > 0 and os.path.exists(metrics_path):
        # Records past the checkpoint (written before a crash, or by a run
        # that went further) are about to be written again.
        with open(metrics_path, encoding="utf-8") as fh:
            kept = [line for line in fh
                    if json.loads(line)["step"] <= state.step]
    log_fh = open(metrics_path, "w", encoding="utf-8")
    log_fh.writelines(kept)

    def emit(record):
        log_fh.write(json.dumps(record) + "\n")
        log_fh.flush()

    try:
        while state.step < opt_config.total_steps:
            loss, lr = _train_step(params, state, model_config, opt_config,
                                   next(batches))
            step = state.step
            if step % config.log_every == 0 or step == opt_config.total_steps:
                emit({"step": step, "loss": loss, "lr": lr})
            if config.eval_every and step % config.eval_every == 0:
                with use_ema(params, state):
                    predictions = predict_all(params, model_config,
                                              dev_examples, vocab)
                result = evaluate(predictions, dev_examples)
                emit({"step": step, "dev_em": result.exact_match,
                      "dev_f1": result.f1})
            if config.checkpoint_every and step % config.checkpoint_every == 0:
                save_checkpoint(checkpoint_path, params, state, model_config,
                                opt_config, vocab)
        save_checkpoint(checkpoint_path, params, state, model_config,
                        opt_config, vocab)
    finally:
        log_fh.close()
    return TrainResult(checkpoint_path=checkpoint_path,
                       metrics_path=metrics_path, steps_run=state.step)

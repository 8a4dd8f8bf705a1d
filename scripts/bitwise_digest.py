"""Print one JSON line of sha256 digests of training and prediction outputs.

Two trees whose digests match train and predict bit for bit alike, so a
change meant to keep outputs bitwise equal can be checked by running this
script in both and comparing the lines. It digests:

- ``model.ckpt`` and ``metrics.jsonl`` (every step logged) of a fresh
  N-step run at the desk shape (d=64, n=100, batch 8, dropout and
  stochastic depth on);
- the same two files of a run that stops at N // 2 steps and is resumed
  to N;
- the same two files of a fresh N-step desk run over padded batches:
  contexts of 40 to 61 tokens, one length bucket, and questions of 3 to
  12 words;
- the spans and scores ``predict_spans`` gives on a desk batch, with the
  fresh run's weights, and on a two-row batch at the paper shape (d=128,
  n=400), with fresh weights.

The other data are ``qanet bench``'s synthetic examples, whose contexts
all have the model's full length and whose questions are all 8 words, so
their batches do not pad. Only public training and prediction calls run,
so the digest sees what a user's run writes.

Usage: python scripts/bitwise_digest.py [--steps 20]
"""
import argparse
import hashlib
import json
import os
import tempfile

import numpy as np

from qanet.cli import _bench_examples, _random_word_matrix
from qanet.config import OptimizerConfig, PathsConfig, RunConfig
from qanet.data import build_batch, example_from_raw
from qanet.model import ModelConfig, predict_spans
from qanet.trainer import new_run, resume_run, train

SEED = 0
DESK = ModelConfig(hidden_dim=64, word_dim=50, char_dim=32, max_context_len=100)
DESK_BATCH = 8
DESK_EXAMPLES = 24  # three batches an epoch, so later epochs reshuffle


def padded_examples(vocab, count):
    """Examples over ``vocab``'s words of varied context and question
    lengths, each with a two-token answer that ends before the last token."""
    rng = np.random.default_rng(np.random.SeedSequence([SEED, 0x9AD]))
    words = vocab.words[2:]  # past the padding and unknown entries
    examples = []
    for i in range(count):
        length = int(rng.integers(40, 62))
        toks = [words[int(rng.integers(len(words)))] for _ in range(length)]
        a = int(rng.integers(len(toks) - 2))
        start = sum(len(t) + 1 for t in toks[:a])
        question = " ".join(words[int(rng.integers(len(words)))]
                            for _ in range(int(rng.integers(3, 13))))
        examples.append(example_from_raw(f"padded-{i}", " ".join(toks), question,
                                         " ".join(toks[a:a + 2]), start))
    return examples


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_digests(out_dir):
    return {name: file_digest(os.path.join(out_dir, name))
            for name in ("model.ckpt", "metrics.jsonl")}


def predict_digest(params, config, batch):
    spans = predict_spans(params, config, batch)
    digest = hashlib.sha256(np.array([(p.start, p.end) for p in spans], dtype=np.int64).tobytes())
    digest.update(np.array([p.score for p in spans], dtype=np.float64).tobytes())
    return digest.hexdigest()


def new_params(config, vocab):
    return new_run(config, vocab, _random_word_matrix(vocab, config.word_dim, SEED), SEED)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20,
                        help="training steps of each run, at least 2")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2, so the resumed run stops halfway")

    desk = RunConfig(model=DESK, seed=SEED)
    examples, vocab = _bench_examples(desk, DESK_EXAMPLES)

    def run(out_dir, steps, resume=None, examples=examples):
        opt = OptimizerConfig(batch_size=DESK_BATCH, total_steps=steps)
        if resume:
            params, state, _ = resume_run(resume, DESK, opt)
        else:
            params, state = new_params(DESK, vocab)
        config = RunConfig(model=DESK, optimizer=opt, paths=PathsConfig(out_dir=out_dir),
                           seed=SEED, log_every=1)
        result = train(examples, vocab, params, state, config)
        return params, result.checkpoint_path

    digests = {"steps": args.steps}
    with tempfile.TemporaryDirectory(prefix="bitwise-digest-") as tmp:
        fresh, resumed = os.path.join(tmp, "fresh"), os.path.join(tmp, "resumed")
        params, _ = run(fresh, args.steps)
        digests.update({f"fresh.{k}": v for k, v in run_digests(fresh).items()})
        _, halfway = run(resumed, args.steps // 2)
        run(resumed, args.steps, resume=halfway)
        digests.update({f"resumed.{k}": v for k, v in run_digests(resumed).items()})
        padded = os.path.join(tmp, "padded")
        run(padded, args.steps, examples=padded_examples(vocab, DESK_EXAMPLES))
        digests.update({f"padded.{k}": v for k, v in run_digests(padded).items()})

    batch = build_batch(examples[:DESK_BATCH], vocab, char_limit=DESK.char_limit)
    digests["predict.desk"] = predict_digest(params, DESK, batch)

    paper = RunConfig(seed=SEED)
    examples, vocab = _bench_examples(paper, 2)
    params, _ = new_params(paper.model, vocab)
    batch = build_batch(examples, vocab, char_limit=paper.model.char_limit)
    digests["predict.paper"] = predict_digest(params, paper.model, batch)
    print(json.dumps(digests))


if __name__ == "__main__":
    main()

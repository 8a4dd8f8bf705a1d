"""Train a small model until it memorizes a synthetic dataset.

Builds 50 single-paragraph examples where a marker word in the question
also appears in the context right before the answer span, runs a short
training loop, and reports train-set EM/F1. Useful as a smoke test that
the full pipeline (embedding, encoders, attention, span head, optimizer)
actually learns.

Usage: python scripts/overfit_demo.py [--steps 500] [--seed 1]
"""
import argparse
import tempfile
import time

import numpy as np

from qanet.config import OptimizerConfig, PathsConfig, RunConfig
from qanet.data import Vocabulary, example_from_raw
from qanet.evaluation import evaluate
from qanet.model import ModelConfig, predict_all
from qanet.trainer import load_checkpoint, new_run, train


def synthetic_dataset(count=50, vocab_size=200, seed=60):
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    examples = []
    for i in range(count):
        k = int(rng.integers(10, 17))
        ctx = [words[int(rng.integers(100))] for _ in range(k)]
        marker = words[100 + i]
        a = int(rng.integers(k - 2))
        ctx[a] = marker
        width = int(rng.integers(1, 3))
        answer = " ".join(ctx[a + 1:a + 1 + width])
        start = len(" ".join(ctx[:a + 1])) + 1
        question = " ".join([marker, words[50], words[51]])
        examples.append(example_from_raw(f"s{i}", " ".join(ctx), question,
                                         answer, start))
    return examples, Vocabulary.from_words(words)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    examples, vocab = synthetic_dataset()
    config = ModelConfig(hidden_dim=32, num_heads=4, word_dim=16, char_dim=8,
                         char_limit=4, char_kernel=3, emb_enc_blocks=1,
                         emb_enc_convs=2, emb_enc_kernel=5,
                         model_enc_blocks=2, model_enc_convs=1,
                         model_enc_kernel=5, dropout=0.0, word_dropout=0.0,
                         char_dropout=0.0, survival_end=1.0,
                         max_context_len=30)
    opt = OptimizerConfig(target_lr=0.005, warmup_steps=50, batch_size=10,
                          total_steps=args.steps, ema_decay=0.999)
    rng = np.random.default_rng(args.seed)
    matrix = rng.standard_normal((len(vocab.words), config.word_dim)) * 0.5
    matrix[0] = 0.0

    out_dir = args.out_dir or tempfile.mkdtemp(prefix="overfit-demo-")
    run = RunConfig(model=config, optimizer=opt,
                    paths=PathsConfig(out_dir=out_dir), seed=args.seed,
                    log_every=50)
    t0 = time.monotonic()
    params, state = new_run(config, vocab, matrix, args.seed)
    result = train(examples, vocab, params, state, run)
    elapsed = time.monotonic() - t0

    params, _, _, _, _ = load_checkpoint(result.checkpoint_path)
    predictions = predict_all(params, config, examples, vocab)
    scores = evaluate(predictions, examples)
    print(f"steps={result.steps_run} wall={elapsed:.1f}s "
          f"EM={scores.exact_match:.1f} F1={scores.f1:.1f}")
    for ex in examples[:3]:
        print(f"  {ex.id}: want={ex.answer_text!r} got={predictions[ex.id]!r}")
    print(f"checkpoint: {result.checkpoint_path}")


if __name__ == "__main__":
    main()

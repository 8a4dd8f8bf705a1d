"""Command line for training, prediction, scoring, augmentation, benchmarks.

Every subcommand resolves its configuration the same way: --config path if
given, else the QANET_CONFIG environment variable, else built-in defaults;
--set key=value overrides apply on top, and the resolved result is echoed
to stderr so runs are reproducible from their logs alone.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .augmentation import (HttpTranslator, MixRatio, RuleTranslator,
                           augment_examples, mixed_sampler, write_squad_json)
from .config import RunConfig, from_flat, parse_override, resolve_config, to_flat
from .data import (PAD_ID, Vocabulary, build_batch, example_from_raw,
                   load_word_vectors, parse_qa_json)
from .evaluation import evaluate
from .model import init_model_params, model_forward, model_loss, predict_all
from .tensor import backward, no_grad
from .trainer import (check_resume_config, load_checkpoint, train, use_ema,
                      zero_grads)


def _echo_config(config: RunConfig, source: str) -> None:
    flat = json.dumps(to_flat(config), sort_keys=True)
    print(f"[config] source={source} {flat}", file=sys.stderr)


def _resolved_config(args) -> RunConfig:
    config, source = resolve_config(getattr(args, "config", None))
    overrides = {}
    for item in getattr(args, "set", None) or []:
        key, value = parse_override(item)
        overrides[key] = value
    if overrides:
        config = from_flat(overrides, base=config)
    if getattr(args, "seed", None) is not None:
        config = from_flat({"seed": args.seed}, base=config)
    _echo_config(config, source)
    return config


def _random_word_matrix(vocab: Vocabulary, dim: int, seed: int) -> np.ndarray:
    """Seeded stand-in vectors for runs without a pretrained vector file."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7EC5]))
    matrix = rng.standard_normal((len(vocab), dim)) * 0.1
    matrix[PAD_ID] = 0.0
    return matrix


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_train(args) -> int:
    config = _resolved_config(args)
    paths = config.paths
    if not paths.train_data:
        raise ValueError("paths.train_data is required for training")
    # On resume the seed comes from the checkpoint, for train() and the
    # sampler alike, and differing settings fail before out_dir is written.
    seed = config.seed
    if args.resume:
        seed = check_resume_config(args.resume, config.model,
                                   config.optimizer)["seed"]
    examples = parse_qa_json(paths.train_data, split="train",
                             max_context_len=config.model.max_context_len,
                             max_answer_len=config.model.max_answer_len)
    if args.resume:
        vocab = matrix = None  # train() takes both from the checkpoint
    elif paths.vectors:
        vocab, matrix = load_word_vectors(paths.vectors,
                                          config.model.word_dim,
                                          seed=config.seed)
    else:
        words = []
        for ex in examples:
            words.extend(ex.context_tokens)
            words.extend(ex.question_tokens)
        vocab = Vocabulary.from_words(words)
        matrix = _random_word_matrix(vocab, config.model.word_dim, config.seed)

    dev = None
    if paths.dev_data:
        dev = parse_qa_json(paths.dev_data, split="eval",
                            max_context_len=config.model.max_context_len,
                            max_answer_len=config.model.max_answer_len)

    sampler = None
    if paths.augmented_fr or paths.augmented_de:
        def pool(path):
            if not path:
                return []
            return parse_qa_json(path, split="train",
                                 max_context_len=config.model.max_context_len,
                                 max_answer_len=config.model.max_answer_len)
        ratio = MixRatio(config.augment.mix_orig, config.augment.mix_fr,
                         config.augment.mix_de)
        sampler = mixed_sampler(
            [examples, pool(paths.augmented_fr), pool(paths.augmented_de)],
            ratio, seed=seed)

    os.makedirs(paths.out_dir, exist_ok=True)
    with open(os.path.join(paths.out_dir, "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(to_flat(config), fh, indent=2, sort_keys=True)

    result = train(examples, vocab, matrix, config.model, config.optimizer,
                   seed=config.seed, out_dir=paths.out_dir, dev_examples=dev,
                   eval_every=config.eval_every,
                   checkpoint_every=config.checkpoint_every,
                   log_every=config.log_every,
                   resume_from=args.resume, sampler=sampler)
    print(json.dumps({"checkpoint": result.checkpoint_path,
                      "metrics": result.metrics_path,
                      "steps": result.steps_run}))
    return 0


def _cmd_predict(args) -> int:
    params, state, model_config, _, vocab = load_checkpoint(args.checkpoint)
    examples = parse_qa_json(args.data, split="eval",
                             max_context_len=model_config.max_context_len,
                             max_answer_len=model_config.max_answer_len)
    with use_ema(params, state):
        predictions = predict_all(params, model_config, examples, vocab,
                                  batch_size=args.batch_size)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(predictions, fh, ensure_ascii=False, indent=2)
    print(json.dumps({"predictions": len(predictions), "path": args.out}))
    return 0


def _cmd_evaluate(args) -> int:
    with open(args.pred, encoding="utf-8") as fh:
        predictions = json.load(fh)
    if not isinstance(predictions, dict) or \
            not all(isinstance(v, str) for v in predictions.values()):
        raise ValueError(f"{args.pred}: expected a JSON object of id -> answer")
    examples = parse_qa_json(args.gold, split="eval")
    result = evaluate(predictions, examples)
    print(json.dumps(result.to_dict(include_per_example=args.per_example),
                     indent=2))
    return 0


def _parse_endpoint_flags(urls, mock: bool):
    if mock and urls:
        raise ValueError("--mock and --translator-url are mutually exclusive")
    if mock:
        return {"fr": RuleTranslator("fr"), "de": RuleTranslator("de")}
    if not urls:
        raise ValueError("augment needs --translator-url or --mock")
    endpoints = {}
    for entry in urls:
        tag, eq, url = entry.partition("=")
        if not eq:
            tag, url = "fr", entry
        if tag in endpoints:
            raise ValueError(f"duplicate translator tag {tag!r}")
        endpoints[tag] = HttpTranslator(url)
    return endpoints


def _cmd_augment(args) -> int:
    config = _resolved_config(args)
    k = args.k if args.k is not None else config.augment.k
    threshold = (args.threshold if args.threshold is not None
                 else config.augment.threshold)
    endpoints = _parse_endpoint_flags(args.translator_url, args.mock)
    examples = parse_qa_json(args.data, split="train",
                             max_context_len=config.model.max_context_len,
                             max_answer_len=config.model.max_answer_len)
    pools = augment_examples(examples, endpoints, k=k, threshold=threshold,
                             seed=config.seed, copies=config.augment.copies)
    combined = []
    for tag in sorted(pools):
        combined.extend(pools[tag])
    write_squad_json(args.out, combined)
    print(json.dumps({"written": len(combined),
                      "per_language": {t: len(p) for t, p in sorted(pools.items())},
                      "path": args.out}))
    return 0


def _bench_examples(config: RunConfig, count: int):
    """Synthetic fixed-length examples over a throwaway vocabulary."""
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBE2C]))
    words = [f"w{i}" for i in range(200)]
    vocab = Vocabulary.from_words(words)
    n_ctx = config.model.max_context_len
    examples = []
    for i in range(count):
        toks = [words[int(rng.integers(len(words)))] for _ in range(n_ctx)]
        context = " ".join(toks)
        a = int(rng.integers(n_ctx - 2))
        start = sum(len(t) + 1 for t in toks[:a])
        answer = " ".join(toks[a:a + 2])
        question = " ".join(words[int(rng.integers(len(words)))]
                            for _ in range(8))
        examples.append(example_from_raw(f"bench-{i}", context, question,
                                         answer, start))
    return examples, vocab


def _cmd_bench(args) -> int:
    config = _resolved_config(args)
    batch_size = config.optimizer.batch_size
    examples, vocab = _bench_examples(config, batch_size)
    matrix = _random_word_matrix(vocab, config.model.word_dim, config.seed)
    params = init_model_params(
        config.model, matrix, len(vocab.chars),
        np.random.default_rng(np.random.SeedSequence([config.seed, 11])))
    batch = build_batch(examples, vocab, char_limit=config.model.char_limit)

    def time_forward():
        t0 = time.perf_counter()
        with no_grad():
            model_forward(params, config.model, batch)
        return time.perf_counter() - t0

    def time_train():
        zero_grads(params)
        t0 = time.perf_counter()
        loss, _ = model_loss(params, config.model, batch, train_mode=False)
        backward(loss)
        return time.perf_counter() - t0

    report = {"batch_size": batch_size,
              "context_len": config.model.max_context_len,
              "batches": args.batches,
              "note": "single-process wall-clock timing; expect "
                      "run-to-run variance with machine load"}
    for label, fn in (("forward", time_forward),
                      ("forward_backward", time_train)):
        fn()  # warmup, unmeasured
        rates = []
        for _ in range(args.batches):
            rates.append(batch_size / fn())
        report[label] = {"examples_per_sec": sum(rates) / len(rates),
                         "min": min(rates), "max": max(rates)}

    if args.json:
        print(json.dumps(report))
    else:
        for label in ("forward", "forward_backward"):
            r = report[label]
            print(f"{label}: {r['examples_per_sec']:.2f} examples/sec "
                  f"(spread {r['min']:.2f}..{r['max']:.2f} over "
                  f"{args.batches} batches of {batch_size})")
        print(report["note"])
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="path to a flat JSON config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")
    sub.add_argument("--seed", type=int, help="override the run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qanet",
        description="Convolution + self-attention extractive QA toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="fit a model and write a checkpoint")
    _add_config_flags(p)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("predict", help="write id -> answer JSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.set_defaults(func=_cmd_predict)

    p = subs.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--per-example", action="store_true",
                   help="include one record per example")
    p.set_defaults(func=_cmd_evaluate)

    p = subs.add_parser("augment", help="write a paraphrased dataset")
    _add_config_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--translator-url", action="append", metavar="[TAG=]URL",
                   help="translation service base URL (repeatable; "
                        "optional tag names the pool, default fr)")
    p.add_argument("--mock", action="store_true",
                   help="use the built-in deterministic translator")
    p.add_argument("--k", type=int, help="beam width both directions")
    p.add_argument("--threshold", type=float,
                   help="answer survival score floor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = subs.add_parser("bench", help="report forward / train throughput")
    _add_config_flags(p)
    p.add_argument("--batches", type=int, default=3)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # uniform nonzero exit with a message
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

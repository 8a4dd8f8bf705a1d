"""Command line for training, prediction, scoring, augmentation, benchmarks.

train, augment and bench resolve their configuration the same way: the
--config file if given, else built-in defaults, with --set key=value
overrides on top (the seed too: --set seed=N). The resolved result is echoed
to stderr so runs are reproducible from their logs alone. predict takes its
settings from the checkpoint, and evaluate needs none.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time

import numpy as np

from .augmentation import (HttpTranslator, RuleTranslator, augment_examples,
                           check_pools, mixed_sampler, write_squad_json)
from .config import RunConfig, from_flat, load_run_config, parse_override, to_flat
from .data import (PAD_ID, Vocabulary, build_batch, example_from_raw,
                   load_word_vectors, parse_qa_json)
from .evaluation import evaluate
from .model import ModelConfig, predict_all, predict_spans
from .trainer import (_train_step, check_eval_every, load_checkpoint, new_run,
                      resume_run, train, use_ema)


def _resolved_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    overrides = {}
    for item in args.set or []:
        key, value = parse_override(item)
        overrides[key] = value
    config = from_flat(overrides, base=config)
    flat = json.dumps(to_flat(config), sort_keys=True)
    print(f"[config] source={args.config or 'defaults'} {flat}", file=sys.stderr)
    return config


def _parse_qa(path: str, split: str, model: ModelConfig):
    """Parse a QA file under the model's context and answer limits."""
    return parse_qa_json(path, split=split,
                         max_context_len=model.max_context_len,
                         max_answer_len=model.max_answer_len)


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
    examples = _parse_qa(paths.train_data, "train", config.model)
    dev = None
    if paths.dev_data:
        dev = _parse_qa(paths.dev_data, "eval", config.model)
    pools = None
    if paths.augmented_fr or paths.augmented_de:
        pools = [examples] + [_parse_qa(path, "train", config.model) if path else []
                              for path in (paths.augmented_fr, paths.augmented_de)]
        mix = config.augment
        weights = (mix.mix_orig, mix.mix_fr, mix.mix_de)
        check_pools(pools, weights)
    check_eval_every(config, dev)  # like check_pools, before vectors or a checkpoint

    # On resume the weights and vocabulary come from the checkpoint, and
    # differing settings fail here; train makes its own refusals, a seed
    # other than the checkpoint's among them, before out_dir exists.
    if args.resume:
        params, state, vocab = resume_run(args.resume, config.model,
                                          config.optimizer)
    else:
        if paths.vectors:
            vocab, matrix = load_word_vectors(paths.vectors,
                                              config.model.word_dim,
                                              seed=config.seed)
        else:
            words = []
            for ex in examples:
                words.extend(ex.context_tokens)
                words.extend(ex.question_tokens)
            vocab = Vocabulary.from_words(words)
            matrix = _random_word_matrix(vocab, config.model.word_dim,
                                         config.seed)
        params, state = new_run(config.model, vocab, matrix, config.seed)

    sampler = None if pools is None else mixed_sampler(pools, weights, seed=state.seed)

    result = train(examples, vocab, params, state, config, dev_examples=dev,
                   sampler=sampler)
    print(json.dumps({"checkpoint": result.checkpoint_path,
                      "metrics": result.metrics_path,
                      "steps": result.steps_run}))
    return 0


def _cmd_predict(args) -> int:
    params, state, model_config, _, vocab = load_checkpoint(args.checkpoint)
    examples = _parse_qa(args.data, "eval", model_config)
    with use_ema(params, state):
        predictions = predict_all(params, model_config, examples, vocab)
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
        if not eq or "://" in tag:
            tag, url = "fr", entry  # untagged; the URL may hold an "="
        elif not re.fullmatch(r"[A-Za-z0-9_-]+", tag):
            raise ValueError(f"translator tag in {entry!r} must be letters, "
                             "digits, _ or -")
        if tag in endpoints:
            raise ValueError(f"duplicate translator tag {tag!r}")
        endpoints[tag] = HttpTranslator(url)
    return endpoints


def _cmd_augment(args) -> int:
    config = _resolved_config(args)
    endpoints = _parse_endpoint_flags(args.translator_url, args.mock)
    examples = _parse_qa(args.data, "train", config.model)
    pools = augment_examples(examples, endpoints, k=config.augment.k,
                             threshold=config.augment.threshold,
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
    """Synthetic fixed-length examples over a throwaway vocabulary, each with
    a two-token answer that ends before the context's last token."""
    n_ctx = config.model.max_context_len
    if n_ctx < 3:
        raise ValueError(f"bench needs model.max_context_len of at least 3, got {n_ctx}")
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xBE2C]))
    words = [f"w{i}" for i in range(200)]
    vocab = Vocabulary.from_words(words)
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
    params, state = new_run(config.model, vocab, matrix, config.seed)
    batch = build_batch(examples, vocab, char_limit=config.model.char_limit)

    def predict():  # the path qanet predict runs: forward and span decode
        predict_spans(params, config.model, batch)

    def train_step():  # the step train() runs: train mode, Adam and EMA
        _train_step(params, state, config.model, config.optimizer, batch)

    report = {"batch_size": batch_size,
              "context_len": config.model.max_context_len,
              "batches": args.batches,
              "note": "single-process wall-clock timing; expect "
                      "run-to-run variance with machine load"}
    for label, fn in (("predict", predict), ("train_step", train_step)):
        fn()  # warmup, unmeasured
        rates = []
        for _ in range(args.batches):
            t0 = time.perf_counter()
            fn()
            rates.append(batch_size / (time.perf_counter() - t0))
        report[label] = {"examples_per_sec": sum(rates) / len(rates),
                         "min": min(rates), "max": max(rates)}

    if args.json:
        print(json.dumps(report))
    else:
        for label in ("predict", "train_step"):
            r = report[label]
            print(f"{label}: {r['examples_per_sec']:.2f} examples/sec "
                  f"(spread {r['min']:.2f}..{r['max']:.2f} over "
                  f"{args.batches} batches of {batch_size})")
        print(report["note"])
    return 0


# ---------------------------------------------------------------------------
# Parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="path to a flat JSON config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one config key (repeatable)")


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
                        "an optional tag of letters, digits, _ or - names "
                        "the pool, default fr)")
    p.add_argument("--mock", action="store_true",
                   help="use the built-in deterministic translator")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_augment)

    p = subs.add_parser("bench", help="report predict / train throughput")
    _add_config_flags(p)
    p.add_argument("--batches", type=_positive_int, default=3)
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

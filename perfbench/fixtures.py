"""Seeded input generation for the benchmark workloads.

Everything the measured program reads is made here, in the parent process,
before the measured process starts. The seed chooses words, answers and
questions; the shapes (context lengths, questions per paragraph, sentence
lengths) are fixed per size, so every seed asks for the same amount of
work and runs of different seeds stay comparable.
"""
from __future__ import annotations

import json
import os

import numpy as np

# Generator parameters. "full" is what the benchmark measures; "tiny" only
# exists for the self-test smoke runs.
SIZES = {
    "full": {
        "train_desk": {
            "model": {"hidden_dim": 64, "word_dim": 50, "char_dim": 32,
                      "max_context_len": 100},
            "batch_size": 8,
            # Context lengths in tokens, one per paragraph. Eight paragraphs
            # in each of make_batches' 32-token buckets (32-63, 64-95,
            # 96-127), two questions each, so every epoch is six batches
            # of eight whatever the seed.
            "context_lengths": ([40 + 3 * i for i in range(8)]
                                + [64 + 4 * i for i in range(8)]
                                + [96, 96, 97, 97, 98, 99, 100, 100]),
            "questions_per_paragraph": 2,
        },
        "predict_paper": {
            "model": {},  # ModelConfig defaults: d=128, word 300, char 200
            "batch_size": 2,
            # File order, three questions per paragraph. Contexts longer
            # than the 400-token cap are truncated by the eval parser, so
            # 3 of 8 paragraphs (9 of 24 questions) sit at the cap.
            "context_lengths": [460, 180, 320, 420, 240, 380, 410, 120],
            "questions_per_paragraph": 3,
        },
        "augment_http": {
            "articles": 96,
            "paragraphs_per_article": 2,
            "questions_per_paragraph": 4,
            "sentence_words": [12, 18, 9, 15, 21],
            "k": 5,
            "threshold": 0.5,
        },
    },
    "tiny": {
        "train_desk": {
            "model": {"hidden_dim": 16, "num_heads": 2, "word_dim": 8,
                      "char_dim": 8, "emb_enc_convs": 2, "model_enc_blocks": 2,
                      "max_context_len": 40},
            "batch_size": 4,
            "context_lengths": [12, 20, 28, 36],
            "questions_per_paragraph": 2,
        },
        "predict_paper": {
            "model": {"hidden_dim": 16, "num_heads": 2, "word_dim": 8,
                      "char_dim": 8, "emb_enc_convs": 2, "model_enc_blocks": 2,
                      "max_context_len": 40},
            "batch_size": 2,
            "context_lengths": [48, 20, 36],
            "questions_per_paragraph": 3,
        },
        "augment_http": {
            "articles": 4,
            "paragraphs_per_article": 2,
            "questions_per_paragraph": 2,
            "sentence_words": [8, 11, 6],
            "k": 3,
            "threshold": 0.5,
        },
    },
}

# Question lengths in words, by question index within a paragraph.
QUESTION_WORDS = [8, 11, 14, 10]

# The stub translator's service time, read by stub.py.
STUB_SECONDS_PER_REQUEST = 0.001
STUB_SECONDS_PER_TEXT = 0.00025

_SYLLABLES = ["ka", "lo", "mi", "ner", "tu", "sam", "vel", "dor", "pi", "ran",
              "gu", "sef", "tor", "bel", "ni", "qua", "zen", "ho", "ras", "mul"]


def word_list() -> list[str]:
    """A fixed, seed-independent vocabulary of 1200 lowercase words."""
    words = dict.fromkeys(a + b + c for a in _SYLLABLES for b in _SYLLABLES
                          for c in ("", "ta", "ron"))
    return list(words)[:1200]


def _sentence(rng, words, n_words):
    picks = [words[int(i)] for i in rng.integers(len(words), size=n_words)]
    picks[0] = picks[0].capitalize()
    return picks


def _paragraph_words(rng, words, n_tokens):
    """Sentences of about 6-19 words whose tokens (words plus one period
    each) add up to exactly ``n_tokens``."""
    sentences = []
    left = n_tokens
    while left > 0:
        n = int(rng.integers(6, 20))
        if left - (n + 1) < 7:
            n = left - 1  # absorb a remainder too short for a sentence
        sentences.append(_sentence(rng, words, n))
        left -= n + 1
    return sentences


def _render(sentences):
    """Join sentences; return the text and (sentence, char offset, word)
    for every word."""
    parts, offsets, pos = [], [], 0
    for s_index, sentence in enumerate(sentences):
        for word in sentence:
            if parts:
                parts.append(" ")
                pos += 1
            offsets.append((s_index, pos, word))
            parts.append(word)
            pos += len(word)
        parts.append(".")
        pos += 1
    return "".join(parts), offsets


def _qa(rng, words, text, offsets, qid, index, word_limit=None):
    """Question number ``index`` of a paragraph. Its length and its answer's
    width (1-3 words, inside one sentence) follow the index, so that every
    seed allocates the same shapes; the seed picks words and positions."""
    usable = offsets if word_limit is None else offsets[:word_limit]
    width = 1 + index % 3
    while True:
        i = int(rng.integers(len(usable)))
        span = offsets[i:i + width]
        if len(span) == width and len({sentence for sentence, _, _ in span}) == 1:
            break
    lo = span[0][1]
    hi = span[-1][1] + len(span[-1][2])
    answer = text[lo:hi]
    question_len = QUESTION_WORDS[index % len(QUESTION_WORDS)]
    question = " ".join(words[int(j)] for j in rng.integers(len(words),
                                                              size=question_len))
    return {"id": qid, "question": question.capitalize() + "?",
            "answers": [{"text": answer, "answer_start": lo}]}


def _squad(articles):
    return {"version": "1.1", "data": articles}


def _dump(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def qa_file(rng, context_lengths, questions_per_paragraph, answer_window):
    """One article, one paragraph per entry of ``context_lengths``."""
    words = word_list()
    paragraphs = []
    for p, n_tokens in enumerate(context_lengths):
        text, offsets = _render(_paragraph_words(rng, words, n_tokens))
        # Keep answers where the parser's truncation cannot cut them.
        limit = max(1, int(len(offsets) * min(1.0, answer_window / n_tokens)))
        qas = [_qa(rng, words, text, offsets, f"p{p}-q{q}", q, limit)
               for q in range(questions_per_paragraph)]
        paragraphs.append({"context": text, "qas": qas})
    return _squad([{"title": "generated", "paragraphs": paragraphs}])


def augment_file(rng, spec, articles, prefix):
    words = word_list()
    out = []
    for a in range(articles):
        paragraphs = []
        for p in range(spec["paragraphs_per_article"]):
            sentences = [_sentence(rng, words, n) for n in spec["sentence_words"]]
            text, offsets = _render(sentences)
            qas = [_qa(rng, words, text, offsets, f"{prefix}{a}-p{p}-q{q}", q)
                   for q in range(spec["questions_per_paragraph"])]
            paragraphs.append({"context": text, "qas": qas})
        out.append({"title": f"{prefix}{a}", "paragraphs": paragraphs})
    return _squad(out)


def _write_vectors(path, rng, dim):
    with open(path, "w", encoding="utf-8") as fh:
        for word in word_list():
            values = rng.standard_normal(dim) * 0.1
            fh.write(word + " " + " ".join(f"{v:.6f}" for v in values) + "\n")


def _write_checkpoint(path, rng, model_overrides):
    """Freshly initialised parameters saved by the program's own writer."""
    from qanet import data, model, trainer

    config = model.ModelConfig(**model_overrides)
    vocab = data.Vocabulary.from_words(word_list())
    matrix = rng.standard_normal((len(vocab), config.word_dim)) * 0.1
    matrix[data.PAD_ID] = 0.0
    params = model.init_model_params(config, matrix, len(vocab.chars), rng)
    state = trainer.init_train_state(params, seed=0)
    trainer.save_checkpoint(path, params, state, config,
                            trainer.OptimizerConfig(), vocab)


def generate(workload: str, size: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one run into ``out_dir``; return the run spec."""
    spec = dict(SIZES[size][workload])
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF1C5]))
    files = {}
    if workload == "train_desk":
        cap = spec["model"]["max_context_len"]
        files["train"] = os.path.join(out_dir, "train.json")
        _dump(files["train"], qa_file(rng, spec["context_lengths"],
                                      spec["questions_per_paragraph"], cap))
        files["vectors"] = os.path.join(out_dir, "vectors.txt")
        _write_vectors(files["vectors"], rng, spec["model"]["word_dim"])
    elif workload == "predict_paper":
        cap = spec["model"].get("max_context_len", 400)
        files["dev"] = os.path.join(out_dir, "dev.json")
        _dump(files["dev"], qa_file(rng, spec["context_lengths"],
                                    spec["questions_per_paragraph"], cap - 20))
        files["checkpoint"] = os.path.join(out_dir, "model.ckpt")
        _write_checkpoint(files["checkpoint"], rng, spec["model"])
    elif workload == "augment_http":
        files["input"] = os.path.join(out_dir, "input.json")
        _dump(files["input"], augment_file(rng, spec, spec["articles"], "a"))
        # A separate article for warm-up, so that nothing the timed phase
        # sends has been sent before.
        files["warmup"] = os.path.join(out_dir, "warmup.json")
        _dump(files["warmup"], augment_file(rng, spec, 1, "w"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["files"] = files
    return spec

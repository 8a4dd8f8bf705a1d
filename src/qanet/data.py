"""Reading-comprehension data: tokenization, parsing, vocabulary, batching.

The tokenizer is a small deterministic rule system: split on whitespace,
then peel leading/trailing punctuation into their own tokens. Internal
punctuation (hyphens, apostrophes, abbreviation dots) stays attached, so
hyphenated words survive whole. Every token carries exact character offsets
into the source string.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .evaluation import _PUNCT, normalize_answer

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_CHUNK = re.compile(r"\S+")
_BUCKET_WIDTH = 32  # context tokens per make_batches length bucket


class MalformedJson(ValueError):
    """Input file is not valid JSON."""


class MissingField(KeyError):
    """A required key is absent from the input record."""


class UnalignableAnswer(ValueError):
    """No token covers the answer's character span."""


class BadVectorLine(ValueError):
    """A word-vector line could not be parsed."""


class EmptyDataset(ValueError):
    """No usable examples survived parsing."""


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int  # exclusive


def tokenize(text: str) -> list[Token]:
    """Whitespace split, then strip edge punctuation into single-char tokens."""
    tokens: list[Token] = []
    for m in _CHUNK.finditer(text):
        chunk, pos = m.group(), m.start()
        left = 0
        right = len(chunk)
        leading: list[Token] = []
        while left < right and chunk[left] in _PUNCT:
            leading.append(Token(chunk[left], pos + left, pos + left + 1))
            left += 1
        trailing: list[Token] = []
        while right > left and chunk[right - 1] in _PUNCT:
            trailing.append(Token(chunk[right - 1], pos + right - 1, pos + right))
            right -= 1
        tokens.extend(leading)
        if right > left:
            tokens.append(Token(chunk[left:right], pos + left, pos + right))
        tokens.extend(reversed(trailing))
    return tokens


@dataclass
class QaExample:
    """One context/question pair with its labeled answer span.

    ``answer_span`` indexes ``context_tokens`` inclusively on both ends; it
    is None for eval examples whose first answer could not be aligned (for
    instance, truncated away). ``gold_answers`` keeps every listed answer
    string for scoring.
    """

    id: str
    context_text: str
    context_tokens: list[str]
    char_offsets: list[tuple[int, int]]
    question_text: str
    question_tokens: list[str]
    answer_text: str
    answer_span: tuple[int, int] | None
    gold_answers: list[str] = field(default_factory=list)

    def validate(self) -> None:
        n = len(self.context_tokens)
        if n == 0 or len(self.char_offsets) != n:
            raise ValueError(f"{self.id}: bad token/offset lists")
        if not self.question_tokens:
            raise ValueError(f"{self.id}: question has no token")
        if self.answer_span is not None:
            s, e = self.answer_span
            if not 0 <= s <= e < n:
                raise ValueError(f"{self.id}: span ({s}, {e}) outside {n} tokens")
            span_text = self.context_text[self.char_offsets[s][0]:self.char_offsets[e][1]]
            want = normalize_answer(self.answer_text)
            got = normalize_answer(span_text)
            # Snapped spans cover whole tokens, so the label may widen the answer.
            if got != want and want not in got:
                raise ValueError(
                    f"{self.id}: span text {span_text!r} does not cover {self.answer_text!r}")

    def answer_char_range(self) -> tuple[int, int]:
        s, e = self.answer_span
        return self.char_offsets[s][0], self.char_offsets[e][1]


def _covering_token(offsets: list[tuple[int, int]], char_pos: int) -> int:
    for i, (s, e) in enumerate(offsets):
        if s <= char_pos < e:
            return i
    raise UnalignableAnswer(f"no token covers char {char_pos}")


def _answer_span(offsets, answer_text: str, answer_start: int) -> tuple[int, int]:
    """Token span covering the answer's first and last characters."""
    return (_covering_token(offsets, answer_start),
            _covering_token(offsets, answer_start + len(answer_text) - 1))


def _example(example_id, context, texts, offsets, question, answer_text,
             answer_start, gold_answers, split="train",
             max_answer_len=None) -> QaExample | None:
    """Build and validate one example over a context's token texts and offsets.

    Train split: an empty or unalignable answer raises, and one longer than
    ``max_answer_len`` tokens, when given, drops the example (returns None).
    Eval split: either leaves the span None.
    """
    span = None
    if split == "train":
        if not answer_text:
            raise MissingField("answer text")
        span = _answer_span(offsets, answer_text, answer_start)
        if max_answer_len is not None and span[1] - span[0] + 1 > max_answer_len:
            return None
    elif answer_text:
        try:
            span = _answer_span(offsets, answer_text, answer_start)
        except UnalignableAnswer:
            pass
    ex = QaExample(
        id=example_id,
        context_text=context,
        context_tokens=texts,
        char_offsets=offsets,
        question_text=question,
        question_tokens=[t.text for t in tokenize(question)],
        answer_text=answer_text,
        answer_span=span,
        gold_answers=gold_answers,
    )
    ex.validate()
    return ex


def example_from_raw(example_id: str, context: str, question: str,
                     answer_text: str, answer_start: int,
                     gold_answers: list[str] | None = None) -> QaExample:
    """Build and validate an example from raw strings plus a char offset;
    an empty or unalignable answer raises, as on the train split."""
    ctx_tokens = tokenize(context)
    return _example(example_id, context, [t.text for t in ctx_tokens],
                    [(t.start, t.end) for t in ctx_tokens], question,
                    answer_text, answer_start,
                    list(gold_answers) if gold_answers else [answer_text])


def _get(record, key):
    try:
        return record[key]
    except (KeyError, TypeError):
        raise MissingField(key) from None


def parse_qa_json(path, split: str = "train",
                  max_context_len: int = 400,
                  max_answer_len: int = 30) -> list[QaExample]:
    """Parse a v1.1-schema QA file into validated examples.

    Training split: contexts longer than ``max_context_len`` tokens and
    answers longer than ``max_answer_len`` tokens are discarded; the first
    listed answer becomes the label, and an empty or unalignable one raises
    as in :func:`example_from_raw`. Eval split: nothing is discarded;
    contexts are truncated to ``max_context_len`` tokens, the label span is
    kept only if it survives truncation, and every answer string is kept
    for scoring. A question with no token is rejected, naming its id.
    """
    if split not in ("train", "eval"):
        raise ValueError(f"unknown split {split!r}")
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedJson(str(exc)) from None

    examples: list[QaExample] = []
    for article in _get(payload, "data"):
        for paragraph in _get(article, "paragraphs"):
            context = _get(paragraph, "context")
            ctx_tokens = tokenize(context)
            if split == "train" and len(ctx_tokens) > max_context_len:
                continue
            kept = ctx_tokens[:max_context_len]
            offsets = [(t.start, t.end) for t in kept]
            texts = [t.text for t in kept]
            for qa in _get(paragraph, "qas"):
                qid = _get(qa, "id")
                question = _get(qa, "question")
                answers = _get(qa, "answers")
                if not answers:
                    raise MissingField("answers")
                first = answers[0]
                answer_text = _get(first, "text")
                answer_start = _get(first, "answer_start")
                golds = [_get(a, "text") for a in answers]
                ex = _example(qid, context, texts, offsets, question,
                              answer_text, answer_start, golds, split,
                              max_answer_len)
                if ex is not None:
                    examples.append(ex)
    return examples


class Vocabulary:
    """Word and character ids with reserved padding (0) and unknown (1) slots."""

    def __init__(self):
        self.words: list[str] = [PAD_TOKEN, UNK_TOKEN]
        self._word_ids: dict[str, int] = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}
        self.chars: list[str] = [PAD_TOKEN, UNK_TOKEN]
        self._char_ids: dict[str, int] = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID}

    def __len__(self) -> int:
        return len(self.words)

    def add_word(self, word: str) -> int:
        idx = self._word_ids.get(word)
        if idx is None:
            idx = len(self.words)
            self.words.append(word)
            self._word_ids[word] = idx
            self.add_chars(word)
        return idx

    def add_chars(self, text: str) -> None:
        for ch in text:
            if ch not in self._char_ids:
                self._char_ids[ch] = len(self.chars)
                self.chars.append(ch)

    def word_id(self, word: str) -> int:
        return self._word_ids.get(word, UNK_ID)

    def char_id(self, ch: str) -> int:
        return self._char_ids.get(ch, UNK_ID)

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        vocab = cls()
        for w in words:
            vocab.add_word(w)
        return vocab

    @classmethod
    def from_lists(cls, words: list[str], chars: list[str]) -> "Vocabulary":
        """Rebuild from stored lists (checkpoint restore)."""
        vocab = cls()
        if words[:2] != [PAD_TOKEN, UNK_TOKEN] or chars[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise ValueError("vocabulary lists must start with pad/unk")
        vocab.words = list(words)
        vocab._word_ids = {w: i for i, w in enumerate(words)}
        vocab.add_chars("".join(chars[2:]))
        return vocab


def load_word_vectors(path, dim: int, seed: int) -> tuple[Vocabulary, np.ndarray]:
    """Load ``token v1 ... vdim`` lines into (vocabulary, matrix).

    Row 0 (padding) is zeros; row 1 (unknown) is a seeded random draw and is
    the only word row meant to train. File rows follow in file order.
    """
    vocab = Vocabulary()
    rows: list[np.ndarray] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) - 1 != dim:
                raise BadVectorLine(f"line {line_no}: expected {dim} values, got {len(parts) - 1}")
            token = parts[0]
            if not token:
                raise BadVectorLine(f"line {line_no}: empty token")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise BadVectorLine(f"line {line_no}: non-numeric value") from None
            if token in vocab._word_ids:
                continue  # first occurrence wins
            vocab.add_word(token)
            rows.append(vec)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57EC]))
    matrix = np.zeros((len(vocab), dim), dtype=np.float64)
    matrix[UNK_ID] = rng.standard_normal(dim) * 0.1
    for i, vec in enumerate(rows):
        matrix[2 + i] = vec
    return vocab, matrix


@dataclass
class Batch:
    """Padded id arrays for one batch. Masks are 1.0 on real tokens."""

    examples: list[QaExample]
    context_ids: np.ndarray      # (B, n) int64
    context_chars: np.ndarray    # (B, n, char_limit)
    question_ids: np.ndarray     # (B, m)
    question_chars: np.ndarray   # (B, m, char_limit)
    spans: np.ndarray            # (B, 2); (0, 0) when the example has no label
    context_mask: np.ndarray     # (B, n) float64
    question_mask: np.ndarray

    @property
    def size(self) -> int:
        return len(self.examples)

    def row(self, i: int) -> "Batch":
        """Row ``i`` alone, cut to its own lengths (real tokens are a prefix)."""
        n = int(self.context_mask[i].sum())
        m = int(self.question_mask[i].sum())
        r = slice(i, i + 1)
        return Batch([self.examples[i]], self.context_ids[r, :n],
                     self.context_chars[r, :n], self.question_ids[r, :m],
                     self.question_chars[r, :m], self.spans[r],
                     self.context_mask[r, :n], self.question_mask[r, :m])


def _char_row(word: str, vocab: Vocabulary, char_limit: int) -> list[int]:
    ids = [vocab.char_id(c) for c in word[:char_limit]]
    return ids + [PAD_ID] * (char_limit - len(ids))


def build_batch(examples: list[QaExample], vocab: Vocabulary,
                char_limit: int) -> Batch:
    if not examples:
        raise EmptyDataset("empty batch")
    n = max(len(ex.context_tokens) for ex in examples)
    m = max(len(ex.question_tokens) for ex in examples)
    b = len(examples)
    ctx = np.zeros((b, n), dtype=np.int64)
    ctx_ch = np.zeros((b, n, char_limit), dtype=np.int64)
    q = np.zeros((b, m), dtype=np.int64)
    q_ch = np.zeros((b, m, char_limit), dtype=np.int64)
    spans = np.zeros((b, 2), dtype=np.int64)
    cmask = np.zeros((b, n))
    qmask = np.zeros((b, m))
    for i, ex in enumerate(examples):
        for j, tok in enumerate(ex.context_tokens):
            ctx[i, j] = vocab.word_id(tok)
            ctx_ch[i, j] = _char_row(tok, vocab, char_limit)
        cmask[i, :len(ex.context_tokens)] = 1.0
        for j, tok in enumerate(ex.question_tokens):
            q[i, j] = vocab.word_id(tok)
            q_ch[i, j] = _char_row(tok, vocab, char_limit)
        qmask[i, :len(ex.question_tokens)] = 1.0
        if ex.answer_span is not None:
            spans[i] = ex.answer_span
    return Batch(list(examples), ctx, ctx_ch, q, q_ch, spans, cmask, qmask)


def make_batches(examples: list[QaExample], vocab: Vocabulary,
                 batch_size: int, seed: int,
                 char_limit: int) -> list[Batch]:
    """Length-bucketed batches with seeded shuffling.

    Examples are grouped into context-length buckets, shuffled within each
    bucket, chained in ascending length order, chunked, and finally the
    batch order itself is shuffled. The same seed reproduces the same
    batches in the same order.
    """
    if not examples:
        raise EmptyDataset("no examples to batch")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    buckets: dict[int, list[QaExample]] = {}
    for ex in examples:
        buckets.setdefault(len(ex.context_tokens) // _BUCKET_WIDTH, []).append(ex)
    ordered: list[QaExample] = []
    for key in sorted(buckets):
        bucket = buckets[key]
        order = rng.permutation(len(bucket))
        ordered.extend(bucket[i] for i in order)
    batches = [build_batch(ordered[i:i + batch_size], vocab, char_limit)
               for i in range(0, len(ordered), batch_size)]
    batch_order = rng.permutation(len(batches))
    return [batches[i] for i in batch_order]

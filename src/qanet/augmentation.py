"""Round-trip paraphrase augmentation with answer realignment.

A paragraph is split into sentences, and the sentences an example's answer
overlaps are merged into one unit. Each distinct unit of a paragraph's
examples goes out to a translator once per pivot (forward into the pivot
language, back again, beam ``k`` both ways), yielding up to k*k paraphrase
candidates. The answer's unit only accepts candidates in which the answer
can be re-located by character-bigram alignment; every other unit samples
uniformly. Rebuilt documents keep the question verbatim and are written
back out in the same JSON schema they were read from.
"""
from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .data import QaExample, example_from_raw, tokenize


class TranslatorUnavailable(RuntimeError):
    """The endpoint could not be reached after the configured retries."""


class TranslatorProtocolError(RuntimeError):
    """The endpoint answered with something other than the wire format."""


class EmptyWeightedPool(ValueError):
    """A pool with positive mixing weight holds no examples."""


# ---------------------------------------------------------------------------
# Translator endpoints


class HttpTranslator:
    """Client for the JSON round-trip service.

    POST {base}/translate with {"texts": [...], "beam": k, "direction":
    "forward"|"back"}; the reply carries {"translations": [[...], ...]}
    aligned with the request order, each inner list at most ``beam`` long.
    The client checks the envelope; ``_translate`` checks the lists.
    """

    def __init__(self, base_url: str, timeout: float = 10.0,
                 retries: int = 2, backoff: float = 0.1):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def translate(self, texts: list[str], beam: int,
                  direction: str) -> list[list[str]]:
        if direction not in ("forward", "back"):
            raise ValueError(f"unknown direction {direction!r}")
        payload = json.dumps({"texts": list(texts), "beam": beam,
                              "direction": direction}).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + "/translate", data=payload,
            headers={"Content-Type": "application/json"})
        last = None
        for attempt in range(self.retries + 1):
            # urlopen raises HTTPError, a URLError, on any non-2xx status. A
            # server hanging up unanswered raises RemoteDisconnected, a
            # ConnectionError that urllib leaves unwrapped.
            try:
                with urllib.request.urlopen(request,
                                            timeout=self.timeout) as resp:
                    raw = resp.read()
            except urllib.error.HTTPError as err:
                err.close()
                raise TranslatorProtocolError(
                    f"status {err.code} from {self.base_url}") from None
            except (urllib.error.URLError, TimeoutError,
                    ConnectionError) as err:
                last = err
                if attempt < self.retries:
                    time.sleep(self.backoff)
                continue
            try:
                body = json.loads(raw.decode("utf-8"))
            except ValueError as err:  # bad UTF-8 or bad JSON
                raise TranslatorProtocolError(f"unparseable reply: {err}")
            if not isinstance(body, dict) or "translations" not in body:
                raise TranslatorProtocolError("reply missing 'translations'")
            return body["translations"]
        raise TranslatorUnavailable(
            f"{self.base_url} unreachable after {self.retries + 1} attempts: {last}")


_SYNONYMS = {
    "fr": [("big", "large"), ("quick", "rapid"), ("house", "residence"),
           ("famous", "renowned"), ("show", "display"), ("start", "begin"),
           ("city", "municipality"), ("team", "squad")],
    "de": [("big", "sizable"), ("quick", "swift"), ("house", "dwelling"),
           ("famous", "celebrated"), ("show", "exhibit"), ("start", "commence"),
           ("city", "metropolis"), ("team", "crew")],
}


# Canned round trips for demo sentences whose paraphrase is fixed.
_CANNED = {
    "All of the departments in the College of Science offer PhD programs, "
    "except for the Department of Pre-Professional Studies.": [
        "All departments in the College of Science offer PHD programs "
        "with the exception of the Department of Preparatory Studies."],
}


class RuleTranslator:
    """Deterministic mock with language-flavored synonym rotations.

    Forward tags the text with a pivot marker and a beam index; back strips
    the marker and applies a rotation-dependent slice of the synonym table,
    optionally swapping two comma-separated clauses. Pure function of the
    input, so repeated runs agree. A few canned sentences round-trip to
    fixed paraphrases regardless of language.
    """

    def __init__(self, language: str = "fr"):
        if language not in _SYNONYMS:
            raise ValueError(f"no rules for language {language!r}")
        self.language = language

    def translate(self, texts, beam, direction):
        if direction == "forward":
            out = []
            for t in texts:
                if t in _CANNED:
                    out.append([f"«{self.language}:c» {t}"])
                else:
                    out.append([f"«{self.language}:{i}» {t}"
                                for i in range(beam)])
            return out
        if direction != "back":
            raise ValueError(f"unknown direction {direction!r}")
        out = []
        for text in texts:
            canned = re.match(r"«\w+:c» (.*)", text, re.DOTALL)
            if canned and canned.group(1) in _CANNED:
                out.append(list(_CANNED[canned.group(1)])[:beam])
                continue
            m = re.match(r"«(\w+):(\d+)» (.*)", text, re.DOTALL)
            base = m.group(3) if m else text
            offset = int(m.group(2)) if m else 0
            variants = []
            for j in range(beam):
                variants.append(self._rewrite(base, offset * beam + j))
            out.append(variants)
        return out

    def _rewrite(self, text: str, variant: int) -> str:
        table = _SYNONYMS[self.language]
        words = text.split(" ")
        changed = []
        for w in words:
            bare = w.lower().strip(".,!?;:")
            replaced = w
            for idx, (src, dst) in enumerate(table):
                if bare == src and (variant + idx) % 3 != 0:
                    replaced = w.lower().replace(src, dst)
                    if w[:1].isupper():
                        replaced = replaced.capitalize()
                    break
            changed.append(replaced)
        result = " ".join(changed)
        if variant % 4 == 1 and ", " in result:
            head, _, tail = result.partition(", ")
            trailing = ""
            if tail and tail[-1] in ".!?":
                trailing = tail[-1]
                tail = tail[:-1]
            result = f"{tail}, {head.lower()}{trailing}"
        return result


# ---------------------------------------------------------------------------
# Sentence splitting

_TERMINAL = re.compile(r"[.!?]+")
_ABBREVIATIONS = {
    "mr", "mrs", "ms", "dr", "prof", "rev", "sr", "jr", "st", "no", "vs",
    "etc", "inc", "ltd", "co", "fig", "eq", "eg", "ie", "al", "approx",
}
_OPENERS = set("\"'“‘(")


@dataclass(frozen=True)
class Sentence:
    text: str
    start: int
    end: int  # exclusive char offset


def split_sentences(paragraph: str) -> list[Sentence]:
    """Sentence spans with exact offsets; gaps between spans are whitespace.

    A terminal run of . ! ? ends a sentence when whitespace plus an
    uppercase letter, digit, or opening quote follows, unless the word
    before a bare period is a known abbreviation.
    """
    cuts = []
    for m in _TERMINAL.finditer(paragraph):
        rest = paragraph[m.end():]
        ws = re.match(r"\s+", rest)
        if not ws:
            continue
        follower = rest[ws.end():ws.end() + 1]
        if not follower:
            continue
        if not (follower.isupper() or follower.isdigit()
                or follower in _OPENERS):
            continue
        if m.group() == ".":
            before = re.search(r"([A-Za-z]+)$", paragraph[:m.start()])
            if before and before.group(1).lower() in _ABBREVIATIONS:
                continue
        cuts.append(m.end())

    sentences = []
    pos = 0
    for cut in cuts + [len(paragraph)]:
        chunk = paragraph[pos:cut]
        stripped = chunk.strip()
        if stripped:
            start = pos + (len(chunk) - len(chunk.lstrip()))
            end = pos + len(chunk.rstrip())
            sentences.append(Sentence(text=paragraph[start:end],
                                      start=start, end=end))
        pos = cut
    return sentences


# ---------------------------------------------------------------------------
# Character-bigram alignment


def _bigrams(s: str) -> Counter:
    return Counter(s[i:i + 2] for i in range(len(s) - 1))


def _dice(a: str, ga: Counter, b: str, gb: Counter) -> float:
    """Bigram-multiset Dice of ``a`` and ``b`` from their bigram counts.

    A string under 2 chars has no bigram, so it scores 0 against a longer
    one and compares by equality with another short one.
    """
    total = max(len(a) - 1, 0) + max(len(b) - 1, 0)
    if total == 0:
        return 1.0 if a == b else 0.0
    overlap = sum(min(ga[g], gb[g]) for g in ga.keys() & gb.keys())
    return 2.0 * overlap / total


def extract_answer(words: list[str], answer_words: list[str],
                   threshold: float) -> tuple[int, int] | None:
    """Re-locate an answer inside a paraphrase by bigram alignment.

    Start candidates are the words scoring highest against the answer's
    first word, end candidates likewise for the last word; the (start, end)
    word indices, both inclusive, whose joined span best matches the whole
    answer string win. A best score under ``threshold`` eliminates the
    paraphrase. Ties prefer the shortest span, then the leftmost.
    """
    if not answer_words:
        raise ValueError("empty answer")
    if not words:
        return None
    first, last = answer_words[0], answer_words[-1]
    first_grams, last_grams = _bigrams(first), _bigrams(last)
    start_scores, end_scores = [], []
    for w in words:
        grams = _bigrams(w)
        start_scores.append(_dice(w, grams, first, first_grams))
        end_scores.append(_dice(w, grams, last, last_grams))
    top_start, top_end = max(start_scores), max(end_scores)
    starts = [i for i, s in enumerate(start_scores) if s == top_start]
    ends = [i for i, s in enumerate(end_scores) if s == top_end]
    answer_text = " ".join(answer_words)
    answer_grams = _bigrams(answer_text)
    best = None
    for s in starts:
        for e in ends:
            if s > e:
                continue
            span = " ".join(words[s:e + 1])
            key = (-_dice(span, _bigrams(span), answer_text, answer_grams),
                   e - s, s)
            if best is None or key < best[0]:
                best = (key, s, e)
    if best is None or -best[0][0] < threshold:
        return None
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Sentence and document paraphrasing


def _translate(endpoint, texts: list[str], k: int,
               direction: str) -> list[list[str]]:
    """One request, refused unless the reply is one list per text of at most
    ``k`` strings each."""
    out = endpoint.translate(texts, k, direction)
    if not isinstance(out, list) or len(out) != len(texts):
        got = len(out) if isinstance(out, list) else type(out).__name__
        raise TranslatorProtocolError(
            f"expected {len(texts)} translation lists, got {got}")
    for inner in out:
        if not isinstance(inner, list) or len(inner) > k \
                or not all(isinstance(s, str) for s in inner):
            raise TranslatorProtocolError("malformed translation list")
    return out


def paraphrase_sentences(sentences: list[str], endpoint,
                         k: int) -> list[list[str]]:
    """Up to k*k round-trip candidates per sentence, deduplicated, original
    excluded.

    One forward request carries every sentence and one back request every
    distinct forward output, so the endpoint must translate each text of a
    request independently of the others.
    """
    forwards = _translate(endpoint, sentences, k, "forward")
    flat = list(dict.fromkeys(text for inner in forwards for text in inner))
    backs = dict(zip(flat, _translate(endpoint, flat, k, "back")
                     if flat else []))
    out = []
    for sentence, inner in zip(sentences, forwards):
        seen = {}
        for forward in inner:
            for candidate in backs[forward]:
                if candidate != sentence and candidate not in seen:
                    seen[candidate] = None
        out.append(list(seen))
    return out


def _word_spans(text: str) -> list[tuple[int, int]]:
    """Word segmentation for realignment: edge punctuation splits off."""
    return [(t.start, t.end) for t in tokenize(text)]


def _units(example: QaExample) -> list[Sentence]:
    """The context's sentences, those the answer overlaps merged into one."""
    ans_lo, ans_hi = example.answer_char_range()
    sentences = split_sentences(example.context_text)
    overlap = [i for i, s in enumerate(sentences)
               if s.start < ans_hi and ans_lo < s.end]
    first, last = sentences[overlap[0]], sentences[overlap[-1]]
    sentences[overlap[0]:overlap[-1] + 1] = [Sentence(
        text=example.context_text[first.start:last.end],
        start=first.start, end=last.end)]
    return sentences


def paraphrase_document(example: QaExample, units: list[Sentence],
                        candidates: dict[str, list[str]], rng,
                        threshold: float, new_id: str) -> QaExample:
    """Rebuild a labelled document from its units' paraphrases, realigning
    the answer.

    ``units`` are the example's ``_units`` and ``candidates`` maps each
    unit's text to its round-trip candidates. Units with no surviving
    candidate stay as they are; the answer's unit additionally requires a
    realigned answer in any replacement. The rebuilt example takes
    ``new_id``; an unchanged document comes back as ``example`` itself.
    """
    ans_lo, ans_hi = example.answer_char_range()
    answer_words = [t.text for t in tokenize(example.answer_text)]
    pieces = []          # (text, answer_lo, answer_hi) with offsets local to text
    changed = False
    for unit in units:
        options = candidates[unit.text]
        if unit.start < ans_hi and ans_lo < unit.end:
            survivors = []
            for cand in options:
                spans = _word_spans(cand)
                found = extract_answer([cand[a:b] for a, b in spans],
                                       answer_words, threshold)
                if found is not None:
                    s, e = found
                    survivors.append((cand, spans[s][0], spans[e][1]))
            if survivors:
                pieces.append(survivors[int(rng.integers(len(survivors)))])
                changed = True
            else:
                pieces.append((unit.text, ans_lo - unit.start,
                               ans_hi - unit.start))
        elif options:
            pick = options[int(rng.integers(len(options)))]
            pieces.append((pick, None, None))
            changed = True
        else:
            pieces.append((unit.text, None, None))

    if not changed:
        return example

    texts = []
    answer_start = None
    answer_text = None
    offset = 0
    for text, lo, hi in pieces:
        if lo is not None:
            answer_start = offset + lo
            answer_text = text[lo:hi]
        texts.append(text)
        offset += len(text) + 1  # single-space joins
    new_context = " ".join(texts)
    return example_from_raw(new_id, new_context,
                            example.question_text, answer_text, answer_start,
                            gold_answers=[answer_text])


# ---------------------------------------------------------------------------
# Dataset-level plumbing


def _mix_shares(weights) -> np.ndarray:
    """Three finite, non-negative, not all zero weights as probabilities."""
    raw = np.array(weights, dtype=np.float64)
    if raw.shape != (3,):
        raise ValueError(f"want 3 mixing weights, got {raw.size}")
    if not np.isfinite(raw).all():
        raise ValueError("mixing weights must be finite")
    if (raw < 0).any():
        raise ValueError("mixing weights must be non-negative")
    if raw.sum() <= 0:
        raise ValueError("at least one mixing weight must be positive")
    return raw / raw.sum()


def mixed_sampler(pools, weights, seed: int):
    """Infinite stream drawing a pool by its share of ``weights``, then a
    uniform example. It refuses up front, not on the first draw, a pool
    count other than three and, by name, an empty pool with weight.
    """
    pools = [list(p) for p in pools]
    if len(pools) != 3:
        raise ValueError(f"want 3 pools, got {len(pools)}")
    probs = _mix_shares(weights)
    for name, pool, w in zip(("original", "fr", "de"), pools, probs):
        if w > 0 and not pool:
            raise EmptyWeightedPool(f"the {name} pool is empty but has mixing weight {w:.3f}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x3A3]))

    def stream():
        while True:
            pool = pools[int(rng.choice(3, p=probs))]
            yield pool[int(rng.integers(len(pool)))]

    return stream()


def augment_examples(examples, endpoints: dict, k: int, threshold: float,
                     seed: int, copies: int):
    """Paraphrase every labelled example through every endpoint.

    ``endpoints`` maps a language tag (e.g. "fr") to a translator; emitted
    ids take the suffix "-{tag}-{i}" with i counting copies from 1.
    Unlabeled examples and no-op paraphrases (document unchanged) are
    skipped. Consecutive labelled examples on the same context form a
    paragraph run, read in one pass so that memory holds one run: its
    questions and every copy share one forward and one back request per
    endpoint, which carry each distinct unit of the run once.
    """
    out = {tag: [] for tag in endpoints}
    tags = sorted(endpoints)
    labelled = ((ex_index, example)
                for ex_index, example in enumerate(examples)
                if example.answer_span is not None)
    for _, run in groupby(labelled, key=lambda pair: pair[1].context_text):
        planned = [(ex_index, example, _units(example))
                   for ex_index, example in run]
        texts = list(dict.fromkeys(unit.text for _, _, units in planned
                                   for unit in units))
        for tag_index, tag in enumerate(tags):
            candidates = dict(zip(texts, paraphrase_sentences(
                texts, endpoints[tag], k)))
            for ex_index, example, units in planned:
                for copy in range(1, copies + 1):
                    rng = np.random.default_rng(np.random.SeedSequence(
                        [seed, 0xA06, tag_index, ex_index, copy]))
                    got = paraphrase_document(
                        example, units, candidates, rng, threshold=threshold,
                        new_id=f"{example.id}-{tag}-{copy}")
                    if got is not example:
                        out[tag].append(got)
    return out


def write_squad_json(path: str, examples) -> None:
    """Serialize examples in the nested paragraph/qas schema."""
    paragraphs = []
    for ex in examples:
        answers = [{"text": ex.answer_text,
                    "answer_start": ex.answer_char_range()[0]}]
        paragraphs.append({
            "context": ex.context_text,
            "qas": [{"id": ex.id, "question": ex.question_text,
                     "answers": answers}],
        })
    doc = {"version": "1.1",
           "data": [{"title": "augmented", "paragraphs": paragraphs}]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False)

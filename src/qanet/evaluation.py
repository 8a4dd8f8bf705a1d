"""Extractive-QA scoring: normalized exact match and token-overlap F1."""
from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass, field


class MissingPrediction(ValueError):
    """An example id has no entry in the predictions map."""


_PUNCT = set(string.punctuation)
_ARTICLES = re.compile(r"\b(a|an|the)\b")


def normalize_answer(s: str) -> str:
    """Lower text and remove punctuation, articles and extra whitespace."""
    text = "".join(ch for ch in s.lower() if ch not in _PUNCT)
    return " ".join(_ARTICLES.sub(" ", text).split())


def exact_match_score(prediction: str, ground_truth: str) -> float:
    return float(normalize_answer(prediction) == normalize_answer(ground_truth))


def f1_score(prediction: str, ground_truth: str) -> float:
    """Harmonic mean of token precision/recall over normalized multisets.

    Both sides empty scores 1.0 (nothing asked for, nothing produced);
    exactly one side empty scores 0.0.
    """
    prediction_tokens = normalize_answer(prediction).split()
    ground_truth_tokens = normalize_answer(ground_truth).split()
    if not prediction_tokens and not ground_truth_tokens:
        return 1.0
    if not prediction_tokens or not ground_truth_tokens:
        return 0.0
    common = Counter(prediction_tokens) & Counter(ground_truth_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(prediction_tokens)
    recall = num_same / len(ground_truth_tokens)
    return (2 * precision * recall) / (precision + recall)


def metric_max_over_ground_truths(metric_fn, prediction, ground_truths):
    return max(metric_fn(prediction, gt) for gt in ground_truths)


@dataclass
class EvalResult:
    exact_match: float  # percentages, 0..100
    f1: float
    per_example: list[dict] = field(default_factory=list)

    def to_dict(self, include_per_example: bool = False) -> dict:
        out = {"exact_match": self.exact_match, "f1": self.f1}
        if include_per_example:
            out["per_example"] = self.per_example
        return out


def evaluate(predictions: dict[str, str], examples) -> EvalResult:
    """Score a predictions map against examples carrying gold answer lists.

    Each example's score is the max over its gold answers; aggregates are
    plain means scaled to percentages.
    """
    if not examples:
        raise ValueError("no examples to evaluate")
    per_example = []
    em_total = 0.0
    f1_total = 0.0
    for ex in examples:
        if ex.id not in predictions:
            raise MissingPrediction(ex.id)
        pred = predictions[ex.id]
        golds = ex.gold_answers or [ex.answer_text]
        em = metric_max_over_ground_truths(exact_match_score, pred, golds)
        f1 = metric_max_over_ground_truths(f1_score, pred, golds)
        em_total += em
        f1_total += f1
        per_example.append({"id": ex.id, "em": em, "f1": f1,
                            "prediction": pred, "golds": golds})
    n = len(per_example)
    return EvalResult(100.0 * em_total / n, 100.0 * f1_total / n, per_example)

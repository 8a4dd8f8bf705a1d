"""Answer normalization, token-overlap F1, and dataset-level aggregation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qanet.data import example_from_raw
from qanet.evaluation import (
    MissingPrediction, evaluate, exact_match_score, f1_score,
    metric_max_over_ground_truths, normalize_answer,
)


class TestNormalize:
    @pytest.mark.parametrize("raw,expect", [
        ("The Cat!", "cat"),
        ("", ""),
        ("a  an the", ""),
        ("An Apple a Day", "apple day"),
        ("Mother-in-law's home", "motherinlaws home"),
        ("  spaced   out  ", "spaced out"),
        ("1776!", "1776"),
        ("U.S.A.", "usa"),
        ("The THE the", ""),
        ("cafeé", "cafeé"),
    ])
    def test_cases(self, raw, expect):
        assert normalize_answer(raw) == expect

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_idempotent(self, s):
        once = normalize_answer(s)
        assert normalize_answer(once) == once

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="abc THEan.!? ", max_size=30))
    def test_no_articles_survive(self, s):
        tokens = normalize_answer(s).split()
        assert not any(t in ("a", "an", "the") for t in tokens)


class TestF1:
    def test_identical(self):
        assert f1_score("exact phrase", "exact phrase") == 1.0

    def test_article_only_difference(self):
        assert f1_score("the cat", "cat") == 1.0

    def test_half_overlap(self):
        assert f1_score("big cat", "cat sat") == pytest.approx(0.5)

    def test_disjoint(self):
        assert f1_score("alpha", "beta") == 0.0

    def test_both_empty(self):
        assert f1_score("", "") == 1.0
        assert f1_score("the", "an") == 1.0  # both normalize to empty

    def test_one_empty(self):
        assert f1_score("", "cat") == 0.0
        assert f1_score("cat", "the") == 0.0

    def test_multiset_counting(self):
        # "dog dog" vs "dog": overlap 1, precision 1/2, recall 1 → 2/3.
        assert f1_score("dog dog", "dog") == pytest.approx(2 / 3)

    def test_em_implies_f1(self):
        rng = np.random.default_rng(0)
        words = ["alpha", "the", "Bravo!", "42", "x-ray"]
        for _ in range(200):
            a = " ".join(rng.choice(words, size=rng.integers(0, 4)))
            b = " ".join(rng.choice(words, size=rng.integers(0, 4)))
            if exact_match_score(a, b):
                assert f1_score(a, b) == 1.0


class TestExactMatch:
    def test_case_and_articles_ignored(self):
        assert exact_match_score("The Eiffel Tower", "eiffel tower")

    def test_different_content(self):
        assert not exact_match_score("eiffel tower", "louvre")


class TestMaxOverGolds:
    def test_picks_best_gold(self):
        golds = ["wrong answer", "right one"]
        assert metric_max_over_ground_truths(exact_match_score,
                                             "right one", golds) == 1.0
        assert metric_max_over_ground_truths(f1_score, "right", golds) > 0.0


# Twenty hand-scored (prediction, gold list, em, f1) fixtures. The f1
# values were computed by hand from normalized token multisets.
HAND_SCORED = [
    ("Denver Broncos", ["Denver Broncos"], 1.0, 1.0),
    ("the Denver Broncos", ["Denver Broncos"], 1.0, 1.0),
    ("DENVER BRONCOS!", ["Denver Broncos"], 1.0, 1.0),
    ("Carolina Panthers", ["Denver Broncos"], 0.0, 0.0),
    ("Denver", ["Denver Broncos"], 0.0, 2 / 3),
    ("Denver Broncos defense", ["Denver Broncos"], 0.0, 0.8),
    ("in 1923", ["1923"], 0.0, 2 / 3),
    ("1923", ["1923", "the year 1923"], 1.0, 1.0),
    ("year 1923", ["1923", "the year 1923"], 1.0, 1.0),
    ("gold medal", ["a gold medal", "gold"], 1.0, 1.0),
    ("silver medal", ["a gold medal"], 0.0, 0.5),
    ("Saint Bernadette Soubirous", ["Saint Bernadette Soubirous"], 1.0, 1.0),
    ("Bernadette Soubirous", ["Saint Bernadette Soubirous"], 0.0, 0.8),
    ("a copper statue of Christ", ["a copper statue of Christ"], 1.0, 1.0),
    ("copper statue", ["a copper statue of Christ"], 0.0, 2 / 3),
    ("the Main Building", ["the Main Building"], 1.0, 1.0),
    ("Main Building's gold dome", ["the Main Building"], 0.0, 1 / 3),
    ("it is", ["it is"], 1.0, 1.0),
    ("", ["nonempty"], 0.0, 0.0),
    ("the an a", ["the"], 1.0, 1.0),
]


class TestHandScored:
    @pytest.mark.parametrize("pred,golds,em,f1", HAND_SCORED)
    def test_pair(self, pred, golds, em, f1):
        got_em = metric_max_over_ground_truths(exact_match_score, pred, golds)
        got_f1 = metric_max_over_ground_truths(f1_score, pred, golds)
        assert got_em == em
        assert got_f1 == pytest.approx(f1, abs=1e-12)

    def test_dataset_aggregation(self):
        examples = []
        predictions = {}
        for i, (pred, golds, _, _) in enumerate(HAND_SCORED):
            ex = example_from_raw(f"h{i}", "Placeholder context words here.",
                                  "q?", "Placeholder", 0,
                                  gold_answers=golds)
            examples.append(ex)
            predictions[ex.id] = pred
        result = evaluate(predictions, examples)
        want_em = 100.0 * np.mean([em for *_, em, _ in HAND_SCORED])
        want_f1 = 100.0 * np.mean([f1 for *_, f1 in HAND_SCORED])
        assert result.exact_match == pytest.approx(want_em, abs=1e-9)
        assert result.f1 == pytest.approx(want_f1, abs=1e-9)
        assert len(result.per_example) == len(HAND_SCORED)

    def test_perfect_predictions(self):
        examples = [example_from_raw(f"p{i}", "Some context here.", "q?",
                                     "Some", 0, gold_answers=[g[0]])
                    for i, (_, g, _, _) in enumerate(HAND_SCORED[:5])]
        predictions = {ex.id: ex.gold_answers[0] for ex in examples}
        result = evaluate(predictions, examples)
        assert result.exact_match == 100.0
        assert result.f1 == 100.0

    def test_no_examples_refused(self):
        with pytest.raises(ValueError, match="^no examples to evaluate$"):
            evaluate({"q1": "cat"}, [])

    def test_missing_prediction(self):
        ex = example_from_raw("solo", "Words in context.", "q?", "Words", 0)
        with pytest.raises(MissingPrediction):
            evaluate({}, [ex])

    def test_per_example_records(self):
        ex = example_from_raw("r1", "Token alpha beta.", "q?", "alpha", 6,
                              gold_answers=["alpha"])
        result = evaluate({"r1": "beta"}, [ex])
        record = result.per_example[0]
        assert record["id"] == "r1"
        assert record["em"] == 0.0
        assert record["prediction"] == "beta"
        report = result.to_dict(include_per_example=True)
        assert "per_example" in report and "exact_match" in report

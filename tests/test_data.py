"""Tokenizer, QA-file parsing, vocabulary, vectors and batching."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qanet import data as D


class TestTokenize:
    def test_offsets_and_edge_punctuation(self):
        toks = D.tokenize('He said, "hi."')
        assert [t.text for t in toks] == ["He", "said", ",", '"', "hi", ".", '"']
        for t in toks:
            assert 'He said, "hi."'[t.start:t.end] == t.text

    def test_hyphenated_word_stays_whole(self):
        toks = D.tokenize("a well-known Pre-Professional spot")
        assert [t.text for t in toks] == ["a", "well-known", "Pre-Professional", "spot"]

    def test_all_punctuation_chunk(self):
        assert [t.text for t in D.tokenize("-- !?")] == ["-", "-", "!", "?"]

    def test_empty_and_whitespace(self):
        assert D.tokenize("") == []
        assert D.tokenize("  \t\n ") == []

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.characters(codec="ascii", exclude_categories=["Cc"]),
                   max_size=60))
    def test_offsets_round_trip(self, text):
        toks = D.tokenize(text)
        for t in toks:
            assert text[t.start:t.end] == t.text
        # Tokens are ordered, non-overlapping, and cover every non-space char.
        covered = sum(t.end - t.start for t in toks)
        assert covered == sum(1 for c in text if not c.isspace())
        for a, b in zip(toks, toks[1:]):
            assert a.end <= b.start


def write_squad(tmp_path, paragraphs, name="data.json"):
    payload = {"version": "1.1",
               "data": [{"title": "t", "paragraphs": paragraphs}]}
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def simple_paragraph(context, qas):
    return {"context": context, "qas": qas}


def qa(id_, question, text, start, extra_answers=()):
    answers = [{"text": text, "answer_start": start}]
    answers += [{"text": t, "answer_start": s} for t, s in extra_answers]
    return {"id": id_, "question": question, "answers": answers}


class TestParse:
    def test_minimal_example(self, tmp_path):
        path = write_squad(tmp_path, [simple_paragraph(
            "the cat sat", [qa("q1", "what sat?", "cat", 4)])])
        (ex,) = D.parse_qa_json(path, split="train")
        assert ex.context_tokens == ["the", "cat", "sat"]
        assert ex.char_offsets == [(0, 3), (4, 7), (8, 11)]
        assert ex.answer_span == (1, 1)
        assert ex.gold_answers == ["cat"]

    def test_long_context_discarded_in_training(self, tmp_path):
        long_ctx = " ".join(f"tok{i}" for i in range(401))
        path = write_squad(tmp_path, [
            simple_paragraph(long_ctx, [qa("q1", "?", "tok0", 0)]),
            simple_paragraph("short text", [qa("q2", "?", "short", 0)]),
        ])
        examples = D.parse_qa_json(path, split="train")
        assert [ex.id for ex in examples] == ["q2"]

    def test_long_context_truncated_in_eval(self, tmp_path):
        long_ctx = " ".join(f"tok{i}" for i in range(401))
        start_of_last = long_ctx.rindex("tok400")
        path = write_squad(tmp_path, [simple_paragraph(
            long_ctx,
            [qa("q1", "?", "tok0", 0), qa("q2", "?", "tok400", start_of_last)])])
        examples = D.parse_qa_json(path, split="eval")
        assert len(examples) == 2
        assert len(examples[0].context_tokens) == 400
        assert examples[0].answer_span == (0, 0)
        assert examples[1].answer_span is None  # truncated away, kept for scoring
        assert examples[1].gold_answers == ["tok400"]

    def test_long_answer_discarded_in_training(self, tmp_path):
        ctx = " ".join(f"w{i}" for i in range(40))
        answer = " ".join(f"w{i}" for i in range(31))
        path = write_squad(tmp_path, [simple_paragraph(
            ctx, [qa("q1", "?", answer, 0), qa("q2", "?", "w0", 0)])])
        examples = D.parse_qa_json(path, split="train")
        assert [ex.id for ex in examples] == ["q2"]

    def test_answer_snaps_to_covering_token(self, tmp_path):
        # answer_start points inside "cats"; the label widens to the token
        path = write_squad(tmp_path, [simple_paragraph(
            "many cats sleep", [qa("q1", "?", "ats", 6)])])
        (ex,) = D.parse_qa_json(path, split="train")
        assert ex.answer_span == (1, 1)

    def test_unalignable_answer_raises(self, tmp_path):
        path = write_squad(tmp_path, [simple_paragraph(
            "a b", [qa("q1", "?", "zzz", 1)])])  # char 1 is the space
        with pytest.raises(D.UnalignableAnswer):
            D.parse_qa_json(path, split="train")

    def test_empty_answers_raises(self, tmp_path):
        path = write_squad(tmp_path, [simple_paragraph(
            "a b", [{"id": "q1", "question": "?", "answers": []}])])
        with pytest.raises(D.MissingField):
            D.parse_qa_json(path, split="train")

    @pytest.mark.parametrize("split", ["train", "eval"])
    @pytest.mark.parametrize("question", ["", "  \n "])
    def test_question_without_token_names_id(self, tmp_path, split, question):
        path = write_squad(tmp_path, [simple_paragraph("the cat sat", [
            qa("q1", "what sat?", "cat", 4), qa("q2", question, "cat", 4)])])
        with pytest.raises(ValueError, match=r"^q2: question has no token$"):
            D.parse_qa_json(path, split=split)

    @pytest.mark.parametrize("question", ["", "  \n "])
    def test_example_from_raw_refuses_question_without_token(self, question):
        with pytest.raises(ValueError, match=r"^q1: question has no token$"):
            D.example_from_raw("q1", "the cat sat", question, "cat", 4)

    def test_validate_refuses_span_ending_past_the_context(self):
        ex = D.example_from_raw("q1", "the cat sat", "what sat?", "sat", 8)
        ex.answer_span = (2, 3)
        with pytest.raises(ValueError, match=r"^q1: span \(2, 3\) outside 3 tokens$"):
            ex.validate()

    @pytest.mark.parametrize("edit, message", [
        (lambda ex: ex.char_offsets.pop(), r"^q1: bad token/offset lists$"),
        (lambda ex: ex.context_tokens.clear(), r"^q1: bad token/offset lists$"),
        (lambda ex: setattr(ex, "answer_span", (0, 0)),
         r"^q1: span text 'the' does not cover 'sat'$"),
    ], ids=["offset-missing", "no-context-token", "span-text"])
    def test_validate_refuses_a_broken_example(self, edit, message):
        ex = D.example_from_raw("q1", "the cat sat", "what sat?", "sat", 8)
        edit(ex)
        with pytest.raises(ValueError, match=message):
            ex.validate()

    @pytest.mark.parametrize("via", ["parse", "example_from_raw"])
    def test_empty_training_answer_names_the_field(self, tmp_path, via):
        with pytest.raises(D.MissingField, match="answer text"):
            if via == "parse":
                D.parse_qa_json(write_squad(tmp_path, [simple_paragraph(
                    "a b", [qa("q1", "?", "", 0)])]), split="train")
            else:
                D.example_from_raw("q1", "a b", "?", "", 0)

    def test_missing_context_raises(self, tmp_path):
        path = write_squad(tmp_path, [{"qas": []}])
        with pytest.raises(D.MissingField):
            D.parse_qa_json(path, split="train")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(D.MalformedJson):
            D.parse_qa_json(path)

    @pytest.mark.parametrize("context, question, text, start, extra", [
        ("the cat sat", "what sat?", "cat", 4, ()),
        ("many cats sleep.", "who sleeps?", "ats", 6, ()),
        ("Paris, in France, is big.", "where?", "France", 10,
         (("in France", 7),)),
    ], ids=["plain", "snapped", "more-golds"])
    def test_parse_equals_example_from_raw(self, tmp_path, context, question,
                                           text, start, extra):
        """A training record and the same strings given to example_from_raw
        make equal examples, since both go through one builder."""
        path = write_squad(tmp_path, [simple_paragraph(
            context, [qa("q1", question, text, start, extra_answers=extra)])])
        (parsed,) = D.parse_qa_json(path, split="train")
        golds = [text] + [t for t, _ in extra] if extra else None
        assert parsed == D.example_from_raw("q1", context, question, text,
                                            start, gold_answers=golds)

    @pytest.mark.parametrize("record, field", [
        ({"answers": []}, "id"),
        ({"id": "q1"}, "question"),
        ({"id": "q1", "question": "?"}, "answers"),
        ({"id": "q1", "question": "?", "answers": [{}]}, "text"),
        ({"id": "q1", "question": "?", "answers": [{"text": "a"}]},
         "answer_start"),
    ])
    @pytest.mark.parametrize("split", ["train", "eval"])
    def test_first_missing_field_is_named(self, tmp_path, record, field,
                                          split):
        path = write_squad(tmp_path, [simple_paragraph("a b", [record])])
        with pytest.raises(D.MissingField) as err:
            D.parse_qa_json(path, split=split)
        assert err.value.args == (field,)

    def test_eval_keeps_empty_or_unalignable_answer_without_span(self,
                                                                  tmp_path):
        path = write_squad(tmp_path, [simple_paragraph(
            "a b", [qa("q1", "?", "", 0), qa("q2", "?", "zzz", 1)])])
        examples = D.parse_qa_json(path, split="eval")
        assert [(ex.id, ex.answer_span) for ex in examples] == [
            ("q1", None), ("q2", None)]

    def test_multiple_golds_kept(self, tmp_path):
        path = write_squad(tmp_path, [simple_paragraph(
            "the cat sat",
            [qa("q1", "?", "cat", 4, extra_answers=[("the cat", 0)])])])
        (ex,) = D.parse_qa_json(path, split="eval")
        assert ex.gold_answers == ["cat", "the cat"]


@pytest.mark.parametrize("case", ["unknown split", "empty batch"])
def test_malformed_input_refused_by_value(tmp_path, case):
    """Each refusal names the value at fault."""
    if case == "unknown split":
        path = write_squad(tmp_path, [simple_paragraph(
            "the cat sat", [qa("q1", "what sat?", "cat", 4)])])
        with pytest.raises(ValueError, match="unknown split 'dev'"):
            D.parse_qa_json(path, split="dev")
    else:
        with pytest.raises(D.EmptyDataset, match="empty batch"):
            D.build_batch([], D.Vocabulary.from_words(["w"]), char_limit=4)


class TestVectors:
    def test_two_word_fixture(self, tmp_path):
        dim = 300
        path = tmp_path / "vecs.txt"
        lines = [word + " " + " ".join([str(fill)] * dim)
                 for word, fill in (("cat", 0.5), ("dog", -0.25))]
        path.write_text("\n".join(lines), encoding="utf-8")
        vocab, matrix = D.load_word_vectors(path, dim=dim, seed=3)
        assert len(vocab) == 4 and matrix.shape == (4, dim)
        assert np.all(matrix[D.PAD_ID] == 0.0)
        assert np.any(matrix[D.UNK_ID] != 0.0)
        np.testing.assert_allclose(matrix[2], 0.5)
        np.testing.assert_allclose(matrix[3], -0.25)
        assert vocab.word_id("cat") == 2 and vocab.word_id("zebra") == D.UNK_ID

    def test_unk_row_is_seeded(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0", encoding="utf-8")
        _, m1 = D.load_word_vectors(path, dim=2, seed=9)
        _, m2 = D.load_word_vectors(path, dim=2, seed=9)
        _, m3 = D.load_word_vectors(path, dim=2, seed=10)
        assert np.array_equal(m1, m2)
        assert not np.array_equal(m1[D.UNK_ID], m3[D.UNK_ID])

    def test_bad_line_raises(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 oops", encoding="utf-8")
        with pytest.raises(D.BadVectorLine):
            D.load_word_vectors(path, dim=2, seed=0)

    def test_empty_token_names_the_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\n 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(D.BadVectorLine, match=r"^line 2: empty token$"):
            D.load_word_vectors(path, dim=2, seed=0)

    def test_blank_lines_skipped_and_first_occurrence_wins(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0\n\ndog 3.0 4.0\ncat 5.0 6.0\n",
                        encoding="utf-8")
        vocab, matrix = D.load_word_vectors(path, dim=2, seed=0)
        assert vocab.words[2:] == ["cat", "dog"]
        np.testing.assert_array_equal(matrix[2:], [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("words, chars", [
        (["<unk>", "<pad>"], ["<pad>", "<unk>"]),
        (["<pad>", "<unk>", "a"], ["a"]),
    ], ids=["words", "chars"])
    def test_stored_lists_must_start_with_pad_and_unk(self, words, chars):
        with pytest.raises(ValueError, match="must start with pad/unk"):
            D.Vocabulary.from_lists(words, chars)

    def test_wrong_width_raises(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("cat 1.0 2.0 3.0", encoding="utf-8")
        with pytest.raises(D.BadVectorLine):
            D.load_word_vectors(path, dim=2, seed=0)


def toy_examples(count, ctx_len=6, vocab=None):
    examples = []
    for i in range(count):
        tokens = [f"w{(i + j) % 9}" for j in range(ctx_len)]
        context = " ".join(tokens)
        examples.append(D.example_from_raw(
            f"ex{i}", context, f"where is w{i % 9} ?", tokens[1],
            context.index(tokens[1], 1)))
    return examples


class TestBatching:
    def test_batch_shapes_and_masks(self):
        vocab = D.Vocabulary.from_words([f"w{i}" for i in range(9)] + ["where", "is"])
        examples = toy_examples(3, ctx_len=4) + toy_examples(2, ctx_len=6)
        batches = D.make_batches(examples, vocab, batch_size=2, seed=1, char_limit=16)
        assert sum(b.size for b in batches) == 5
        assert [b.size for b in batches].count(1) == 1  # 5 examples, batches of 2
        for b in batches:
            assert b.context_chars.shape == b.context_ids.shape + (16,)
            assert b.context_mask.shape == b.context_ids.shape
            for i, ex in enumerate(b.examples):
                n = len(ex.context_tokens)
                assert b.context_mask[i, :n].all()
                assert not b.context_mask[i, n:].any()
                assert (b.context_ids[i, n:] == D.PAD_ID).all()
                s, e = b.spans[i]
                assert b.context_mask[i, s] == 1.0 and b.context_mask[i, e] == 1.0

    def test_same_seed_same_batches(self):
        vocab = D.Vocabulary.from_words([f"w{i}" for i in range(9)])
        examples = toy_examples(11)
        a = D.make_batches(examples, vocab, batch_size=3, seed=5, char_limit=16)
        b = D.make_batches(examples, vocab, batch_size=3, seed=5, char_limit=16)
        assert [[ex.id for ex in x.examples] for x in a] == \
               [[ex.id for ex in x.examples] for x in b]
        c = D.make_batches(examples, vocab, batch_size=3, seed=6, char_limit=16)
        assert [[ex.id for ex in x.examples] for x in a] != \
               [[ex.id for ex in x.examples] for x in c]

    def test_row_is_the_example_built_alone(self):
        """Batch.row cuts one row to its own lengths; its arrays equal a
        batch built from that example alone."""
        vocab = D.Vocabulary.from_words([f"w{i}" for i in range(9)] + ["where", "is"])
        examples = toy_examples(1, ctx_len=4) + toy_examples(2, ctx_len=7)
        examples[1].question_tokens = ["where"]
        examples[2].question_tokens = ["where", "is"]
        batch = D.build_batch(examples, vocab, char_limit=5)
        assert batch.context_ids.shape == (3, 7)
        assert batch.question_ids.shape == (3, 4)
        for i, (n, m) in enumerate([(4, 4), (7, 1), (7, 2)]):
            row = batch.row(i)
            alone = D.build_batch([examples[i]], vocab, char_limit=5)
            assert row.examples == [examples[i]]
            assert row.context_ids.shape == (1, n)
            assert row.context_chars.shape == (1, n, 5)
            assert row.question_ids.shape == (1, m)
            assert row.question_chars.shape == (1, m, 5)
            for name in ("context_ids", "context_chars", "question_ids",
                         "question_chars", "spans", "context_mask",
                         "question_mask"):
                np.testing.assert_array_equal(getattr(row, name),
                                              getattr(alone, name), name)
            assert row.context_mask.all() and row.question_mask.all()

    def test_char_rows_pad_and_truncate(self):
        vocab = D.Vocabulary.from_words(["abcdefghijklmnopqrstuv"])
        row = D._char_row("abcdefghijklmnopqrstuv", vocab, 16)
        assert len(row) == 16
        row2 = D._char_row("ab", vocab, 16)
        assert row2[2:] == [D.PAD_ID] * 14

    def test_empty_dataset_raises(self):
        with pytest.raises(D.EmptyDataset):
            D.make_batches([], D.Vocabulary(), batch_size=2, seed=0,
                           char_limit=16)

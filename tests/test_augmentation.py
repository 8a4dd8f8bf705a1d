"""Paraphrase pipeline: splitting, alignment, sampling, wire protocol."""
import hashlib
import json
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qanet.augmentation import (
    EmptyWeightedPool,
    HttpTranslator,
    RuleTranslator,
    TranslatorProtocolError,
    TranslatorUnavailable,
    augment_examples,
    _bigrams,
    _dice,
    _units,
    extract_answer,
    mixed_sampler,
    paraphrase_document,
    paraphrase_sentences,
    split_sentences,
    write_squad_json,
)
from qanet.data import example_from_raw, parse_qa_json
from translators import ScriptedTranslator


# ---------------------------------------------------------------------------
# Sentence splitting


class TestSplitSentences:
    def test_two_plain_sentences(self):
        p = "The sky was clear. Birds sang all morning."
        got = split_sentences(p)
        assert [s.text for s in got] == [
            "The sky was clear.", "Birds sang all morning."]
        assert got[0].start == 0 and got[0].end == 18
        assert p[got[1].start:got[1].end] == got[1].text

    def test_offsets_slice_back_to_text(self):
        p = "  One two.  Three four!   Five?  "
        for s in split_sentences(p):
            assert p[s.start:s.end] == s.text

    def test_reconstruction_with_gaps(self):
        p = "A first part. A second part!  A third?\nA fourth."
        got = split_sentences(p)
        rebuilt = p[:got[0].start]
        for a, b in zip(got, got[1:]):
            rebuilt += a.text + p[a.end:b.start]
        rebuilt += got[-1].text + p[got[-1].end:]
        assert rebuilt == p

    def test_abbreviation_does_not_split(self):
        p = "Dr. Smith arrived late. He sat down."
        got = split_sentences(p)
        assert [s.text for s in got] == ["Dr. Smith arrived late.",
                                         "He sat down."]

    def test_lowercase_follower_does_not_split(self):
        p = "He left at 5 p.m. and walked home."
        assert len(split_sentences(p)) == 1

    def test_digit_and_quote_followers_split(self):
        p = 'War ended in 1918. 45 nations signed. "Peace" they said.'
        texts = [s.text for s in split_sentences(p)]
        assert texts == ["War ended in 1918.", "45 nations signed.",
                         '"Peace" they said.']

    def test_exclamation_and_question(self):
        p = "Really? Yes! Fine."
        assert [s.text for s in split_sentences(p)] == [
            "Really?", "Yes!", "Fine."]

    def test_empty_and_blank(self):
        assert split_sentences("") == []
        assert split_sentences("   \n  ") == []

    @given(st.lists(st.sampled_from(
        ["The dog ran.", "It stopped!", "Why?", "Mr. Lee smiled.",
         "Rain fell on the roof.", "No. 7 won the race."]),
        min_size=1, max_size=6),
        st.lists(st.sampled_from([" ", "  ", "\n", " \n ", "\t"]),
                 min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, chunks, gaps):
        p = ""
        for chunk, gap in zip(chunks, gaps):
            p += chunk + gap
        got = split_sentences(p)
        assert got == sorted(got, key=lambda s: s.start)
        prev_end = 0
        for s in got:
            assert s.start >= prev_end
            assert p[s.start:s.end] == s.text
            assert p[prev_end:s.start].strip() == ""
            prev_end = s.end
        assert p[prev_end:].strip() == ""


# ---------------------------------------------------------------------------
# Bigram scoring


def char_2gram_score(a: str, b: str) -> float:
    """The Dice score extract_answer ranks words and spans by."""
    return _dice(a, _bigrams(a), b, _bigrams(b))


class TestBigramScore:
    def test_known_pair(self):
        assert char_2gram_score("night", "nacht") == 0.25

    def test_identical_and_disjoint(self):
        assert char_2gram_score("window", "window") == 1.0
        assert char_2gram_score("abc", "xyz") == 0.0

    def test_short_words_compare_exactly(self):
        assert char_2gram_score("a", "a") == 1.0
        assert char_2gram_score("a", "b") == 0.0
        assert char_2gram_score("a", "ab") == 0.0
        assert char_2gram_score("", "") == 1.0

    def test_multiset_counts(self):
        # "aaa" holds bigram aa twice, "aa" once: dice = 2*1/(2+1)
        assert char_2gram_score("aaa", "aa") == pytest.approx(2.0 / 3.0)

    @given(st.text(alphabet="abcdef", min_size=0, max_size=8),
           st.text(alphabet="abcdef", min_size=0, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        s = char_2gram_score(a, b)
        assert s == char_2gram_score(b, a)
        assert 0.0 <= s <= 1.0
        if a == b:
            assert s == 1.0


# ---------------------------------------------------------------------------
# Answer extraction


class TestExtractAnswer:
    def test_inflected_span_recovered(self):
        sentence = ("All departments in the College of Science offer "
                    "PHD programs with the exception of the Department "
                    "of Preparatory Studies .")
        words = sentence.split()
        answer = "Department of Pre-Professional Studies".split()
        got = extract_answer(words, answer, threshold=0.5)
        assert got == (15, 18)
        assert " ".join(words[15:19]) == "Department of Preparatory Studies"

    def test_verbatim_answer_scores_one(self):
        words = "the winner was Ada Lovelace according to them".split()
        got = extract_answer(words, ["Ada", "Lovelace"], threshold=0.5)
        assert got == (3, 4)

    def test_unrelated_words_eliminated(self):
        assert extract_answer("xxq zzp rrw".split(), ["university"],
                              threshold=0.5) is None

    def test_threshold_boundary(self):
        # single word pair scoring exactly 0.25: refused at 0.5, kept at 0.25
        assert extract_answer(["nacht"], ["night"], threshold=0.5) is None
        assert extract_answer(["nacht"], ["night"], threshold=0.25) is not None

    def test_leftmost_tie(self):
        got = extract_answer(["aa", "zz", "aa"], ["aa"], threshold=0.5)
        assert got == (0, 0)

    def test_single_char_answer(self):
        got = extract_answer(["a", "b", "a"], ["a"], threshold=0.5)
        assert got == (0, 0)

    def test_crossed_candidates_skipped(self):
        # best start occurs after best end; only ordered pairs count
        got = extract_answer(["tail", "head"], ["head", "tail"], threshold=0.5)
        assert got is None or got[0] <= got[1]

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            extract_answer(["a"], [], threshold=0.5)
        assert extract_answer([], ["a"], threshold=0.5) is None

    @given(st.integers(0, 3), st.integers(0, 3),
           st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_embedded_answer_found(self, left, right, width):
        filler = ["qqq", "vvv", "zzz"]
        answer = ["alpha", "bravo", "canyon"][:width]
        words = filler[:left] + answer + filler[:right]
        got = extract_answer(words, answer, threshold=0.5)
        assert got == (left, left + width - 1)
        assert words[left:left + width] == answer


# ---------------------------------------------------------------------------
# Sentence paraphrasing through beams


class TestParaphraseSentence:
    def test_beam_squared_ceiling(self):
        s = "origin"
        script = {("forward", s): [f"p{i}" for i in range(9)]}
        for i in range(9):
            script[("back", f"p{i}")] = [f"cand-{i}-{j}" for j in range(9)]
        endpoint = ScriptedTranslator(script)
        got = paraphrase_sentences([s], endpoint, k=5)[0]
        assert len(got) == 25
        assert len(set(got)) == 25
        assert s not in got

    def test_k_one(self):
        script = {("forward", "s"): ["p"], ("back", "p"): ["only"]}
        got = paraphrase_sentences(["s"], ScriptedTranslator(script), k=1)[0]
        assert got == ["only"]

    def test_identity_yields_nothing(self):
        assert paraphrase_sentences(["same text"], ScriptedTranslator(), k=5)[0] == []

    def test_duplicates_collapsed_original_dropped(self):
        script = {("forward", "s"): ["p0", "p1"],
                  ("back", "p0"): ["x", "s", "y"],
                  ("back", "p1"): ["y", "x", "z"]}
        got = paraphrase_sentences(["s"], ScriptedTranslator(script), k=3)[0]
        assert got == ["x", "y", "z"]

    def test_beam_truncates_surplus(self):
        script = {("forward", "s"): ["p0", "p1", "p2"],
                  ("back", "p0"): ["a", "b", "c"],
                  ("back", "p1"): ["d", "e", "f"],
                  ("back", "p2"): ["g"]}
        got = paraphrase_sentences(["s"], ScriptedTranslator(script), k=2)[0]
        assert got == ["a", "b", "d", "e"]

    def test_empty_forward(self):
        script = {("forward", "s"): []}
        assert paraphrase_sentences(["s"], ScriptedTranslator(script), k=4)[0] == []


# ---------------------------------------------------------------------------
# Deterministic rule mock


class TestRuleTranslator:
    def test_repeat_calls_agree(self):
        t = RuleTranslator("fr")
        texts = ["The big house is quick.", "A famous team, a big show."]
        a = t.translate(texts, 4, "forward")
        b = t.translate(texts, 4, "forward")
        assert a == b
        backs_a = t.translate(a[0], 4, "back")
        backs_b = t.translate(b[0], 4, "back")
        assert backs_a == backs_b

    def test_languages_differ(self):
        s = "The big house is quick."
        fr = paraphrase_sentences([s], RuleTranslator("fr"), k=3)[0]
        de = paraphrase_sentences([s], RuleTranslator("de"), k=3)[0]
        assert fr and de
        assert set(fr) != set(de)

    def test_produces_real_paraphrases(self):
        s = "The big team won a famous show."
        got = paraphrase_sentences([s], RuleTranslator("fr"), k=4)[0]
        assert got
        assert s not in got
        assert all(isinstance(c, str) and c for c in got)

    def test_capitalised_word_gets_a_capitalised_synonym(self):
        # Variant 0 keeps "big" (table row 0) and swaps "house" (row 2).
        assert RuleTranslator("fr").translate(["Big house."], 2, "back") == [
            ["Big residence.", "Large house."]]

    def test_unknown_language_rejected(self):
        with pytest.raises(ValueError):
            RuleTranslator("xx")

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            RuleTranslator("fr").translate(["x"], 2, "sideways")

    def test_canned_sentence_round_trip(self):
        original = ("All of the departments in the College of Science offer "
                    "PhD programs, except for the Department of "
                    "Pre-Professional Studies.")
        got = paraphrase_sentences([original], RuleTranslator("fr"), k=5)[0]
        assert got == [
            "All departments in the College of Science offer PHD programs "
            "with the exception of the Department of Preparatory Studies."]

    def test_canned_document_realigns_inflected_answer(self):
        context = ("All of the departments in the College of Science offer "
                   "PhD programs, except for the Department of "
                   "Pre-Professional Studies.")
        ex = example_from_raw(
            "t1", context, "Which department lacks a PhD program?",
            "Department of Pre-Professional Studies",
            context.index("Department of Pre-Professional"))
        units = _units(ex)
        got = paraphrase_document(ex, units,
                                  _candidates(units, RuleTranslator("fr"), 5),
                                  rng=np.random.default_rng(0), threshold=0.5,
                                  new_id="t1-fr-1")
        assert got is not None and got is not ex
        assert got.answer_text == "Department of Preparatory Studies"
        lo, hi = got.answer_char_range()
        assert got.context_text[lo:hi] == got.answer_text


# ---------------------------------------------------------------------------
# HTTP wire protocol


class _Handler(BaseHTTPRequestHandler):
    rejected = 0  # hits on /reject

    def log_message(self, *args):
        pass

    def do_POST(self):
        n = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(n))
        if self.path.startswith("/rule/"):
            # /rule/{language}/translate serves RuleTranslator over the wire
            language = self.path.split("/")[2]
            outs = RuleTranslator(language).translate(
                body["texts"], body["beam"], body["direction"])
            self._reply(200, json.dumps({"translations": outs}))
        elif self.path == "/badback/translate":
            # forward is well formed; back drops the last translation list
            outs = RuleTranslator("fr").translate(
                body["texts"], body["beam"], body["direction"])
            if body["direction"] == "back":
                outs = outs[:-1]
            self._reply(200, json.dumps({"translations": outs}))
        elif self.path == "/ok/translate":
            beam = body["beam"]
            outs = [[f"{t}|{d}{i}" for i in range(min(beam, 2))]
                    for t, d in zip(body["texts"],
                                    [body["direction"][0]] * len(body["texts"]))]
            self._reply(200, json.dumps({"translations": outs}))
        elif self.path == "/short/translate":
            self._reply(200, json.dumps({"translations": []}))
        elif self.path == "/html/translate":
            self._reply(200, "<html>not json</html>")
        elif self.path == "/missing/translate":
            self._reply(200, json.dumps({"result": "nope"}))
        elif self.path == "/reject/translate":
            _Handler.rejected += 1
            self._reply(400, "bad request")
        elif self.path == "/latin1/translate":
            self._reply(200, json.dumps({"translations": [["é"]]},
                                        ensure_ascii=False),
                        encoding="latin-1")
        else:
            self._reply(500, "boom")

    def _reply(self, status, text, encoding="utf-8"):
        data = text.encode(encoding)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


@pytest.fixture(scope="module")
def http_port():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


@contextmanager
def _raw_server(handle):
    """A bare TCP listener passing each accepted socket to ``handle``.

    Yields the port and the list of accepted sockets, one per client
    attempt.
    """
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    listener.settimeout(0.05)
    accepted, stop = [], threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            accepted.append(conn)
            handle(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], accepted
    finally:
        stop.set()
        thread.join()
        listener.close()
        for conn in accepted:
            conn.close()


def _hang_up(conn):
    conn.recv(65536)
    conn.close()


class TestHttpTranslator:
    def test_round_trip(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/ok", retries=0)
        got = t.translate(["alpha", "beta"], 2, "forward")
        assert got == [["alpha|f0", "alpha|f1"], ["beta|f0", "beta|f1"]]

    def test_through_paraphrase_sentence(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/ok", retries=0)
        got = paraphrase_sentences(["seed text"], t, k=2)[0]
        assert len(got) == 4
        assert all(c.startswith("seed text|f") for c in got)

    def test_wrong_arity_is_protocol_error(self, http_port):
        """The client checks the envelope; the count is refused where every
        endpoint's reply is checked."""
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/short", retries=0)
        with pytest.raises(TranslatorProtocolError):
            paraphrase_sentences(["a", "b"], t, k=2)

    def test_non_json_is_protocol_error(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/html", retries=0)
        with pytest.raises(TranslatorProtocolError):
            t.translate(["a"], 2, "forward")

    def test_missing_key_is_protocol_error(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/missing", retries=0)
        with pytest.raises(TranslatorProtocolError):
            t.translate(["a"], 2, "back")

    def test_server_error_is_protocol_error(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/boom", retries=0)
        with pytest.raises(TranslatorProtocolError):
            t.translate(["a"], 2, "forward")

    def test_unreachable_after_retries(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead_port = s.getsockname()[1]
        t = HttpTranslator(f"http://127.0.0.1:{dead_port}", timeout=0.25,
                           retries=1, backoff=0.0)
        with pytest.raises(TranslatorUnavailable):
            t.translate(["a"], 2, "forward")

    def test_silent_server_is_retried_then_unavailable(self):
        with _raw_server(lambda conn: None) as (port, accepted):
            t = HttpTranslator(f"http://127.0.0.1:{port}", timeout=0.2,
                               retries=2, backoff=0.0)
            with pytest.raises(TranslatorUnavailable):
                t.translate(["a"], 2, "forward")
            assert len(accepted) == 3

    def test_hang_up_is_retried_then_unavailable(self):
        with _raw_server(_hang_up) as (port, accepted):
            t = HttpTranslator(f"http://127.0.0.1:{port}", timeout=2.0,
                               retries=2, backoff=0.0)
            with pytest.raises(TranslatorUnavailable):
                t.translate(["a"], 2, "forward")
            assert len(accepted) == 3

    def test_client_error_is_not_retried(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/reject",
                           retries=2, backoff=0.0)
        before = _Handler.rejected
        with pytest.raises(TranslatorProtocolError, match="400"):
            t.translate(["a"], 2, "forward")
        assert _Handler.rejected - before == 1

    def test_bad_utf8_is_protocol_error(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/latin1", retries=0)
        with pytest.raises(TranslatorProtocolError):
            t.translate(["a"], 2, "forward")

    def test_bad_direction_rejected_client_side(self, http_port):
        t = HttpTranslator(f"http://127.0.0.1:{http_port}/ok", retries=0)
        with pytest.raises(ValueError):
            t.translate(["a"], 2, "sideways")


# ---------------------------------------------------------------------------
# Document paraphrasing


def _candidates(units, endpoint, k):
    """Each unit's text mapped to its round-trip candidates, from one
    ``paraphrase_sentences`` call as ``augment_examples`` makes it."""
    texts = list(dict.fromkeys(unit.text for unit in units))
    return dict(zip(texts, paraphrase_sentences(texts, endpoint, k)))


def _doc_example(example_id="q1"):
    context = ("The big house stood on a hill. Its roof was red. "
               "Many people visited the house every year.")
    return example_from_raw(example_id, context, "What color was the roof?",
                            "red", context.index("red"))


def _doc_script():
    return {
        ("forward", "The big house stood on a hill."): ["F0"],
        ("back", "F0"): ["The large house stood on a hill."],
        ("forward", "Its roof was red."): ["F1"],
        ("back", "F1"): ["The roof was red."],
    }


class TestParaphraseDocument:
    def test_answer_realigned(self):
        ex = _doc_example()
        endpoint = ScriptedTranslator(_doc_script())
        rng = np.random.default_rng(0)
        units = _units(ex)
        got = paraphrase_document(ex, units, _candidates(units, endpoint, 5),
                                  rng=rng, threshold=0.5, new_id="q1-fr-1")
        assert got is not None and got is not ex
        assert got.id == "q1-fr-1"
        assert got.question_text == ex.question_text
        assert got.context_text == (
            "The large house stood on a hill. The roof was red. "
            "Many people visited the house every year.")
        assert got.answer_text in ("red", "red.")
        lo, hi = got.answer_char_range()
        assert got.context_text[lo:hi] == got.answer_text

    def test_answer_killing_candidates_keep_original_sentence(self):
        script = dict(_doc_script())
        script[("back", "F1")] = ["The roof was blue."]
        ex = _doc_example()
        units = _units(ex)
        candidates = _candidates(units, ScriptedTranslator(script), 5)
        got = paraphrase_document(ex, units, candidates,
                                  rng=np.random.default_rng(0), threshold=0.5,
                                  new_id="q1-fr-1")
        assert got is not None
        assert "Its roof was red." in got.context_text
        assert "The large house" in got.context_text
        assert got.answer_text == "red"

    def test_identity_endpoint_is_noop(self):
        ex = _doc_example()
        units = _units(ex)
        got = paraphrase_document(ex, units,
                                  _candidates(units, ScriptedTranslator(), 5),
                                  rng=np.random.default_rng(0), threshold=0.5,
                                  new_id="q1-fr-1")
        assert got is ex

    def test_cross_sentence_answer(self):
        """The sentences an answer spans travel as one unit, whole answer
        included, and later sentences are still paraphrased."""
        context = "The road led to a hill. Its roof was red. The big gate shut."
        ex = example_from_raw("x", context, "q?", "hill. Its roof",
                              context.index("hill"))
        endpoint = CountingTranslator("fr")
        units = _units(ex)
        got = paraphrase_document(ex, units, _candidates(units, endpoint, 2),
                                  rng=np.random.default_rng(0), threshold=0.5,
                                  new_id="x-fr-1")
        assert endpoint.requests[0] == (
            "forward", ["The road led to a hill. Its roof was red.",
                        "The big gate shut."])
        assert got.answer_text == "hill. Its roof"
        lo, hi = got.answer_char_range()
        assert got.context_text[lo:hi] == "hill. Its roof"
        assert got.context_text.endswith("The large gate shut.")

    def test_survivor_choice_is_uniformish(self):
        script = dict(_doc_script())
        script[("back", "F1")] = ["The roof was red.", "Red was the roof."]
        ex = _doc_example()
        units = _units(ex)
        candidates = _candidates(units, ScriptedTranslator(script), 5)
        seen = set()
        for seed in range(40):
            got = paraphrase_document(ex, units, candidates,
                                      rng=np.random.default_rng(seed),
                                      threshold=0.5, new_id="q1-fr-1")
            for option in script[("back", "F1")]:
                if option in got.context_text:
                    seen.add(option)
        assert len(seen) == 2

    def test_validates_on_construction(self):
        ex = _doc_example()
        units = _units(ex)
        candidates = _candidates(units, ScriptedTranslator(_doc_script()), 5)
        got = paraphrase_document(ex, units, candidates,
                                  rng=np.random.default_rng(3), threshold=0.5,
                                  new_id="q1-fr-1")
        got.validate()


# ---------------------------------------------------------------------------
# Weighted mixing


class TestMixedSampler:
    def test_ratio_three_one_one(self):
        pools = [[("orig", i) for i in range(5)],
                 [("fr", i) for i in range(3)],
                 [("de", i) for i in range(2)]]
        stream = mixed_sampler(pools, (3.0, 1.0, 1.0), seed=7)
        counts = {"orig": 0, "fr": 0, "de": 0}
        for _ in range(100_000):
            counts[next(stream)[0]] += 1
        assert abs(counts["orig"] / 1e5 - 0.6) < 0.01
        assert abs(counts["fr"] / 1e5 - 0.2) < 0.01
        assert abs(counts["de"] / 1e5 - 0.2) < 0.01

    def test_degenerate_all_original(self):
        pools = [["a", "b"], [], []]
        stream = mixed_sampler(pools, (1.0, 0.0, 0.0), seed=1)
        draws = [next(stream) for _ in range(500)]
        assert set(draws) == {"a", "b"}

    @pytest.mark.parametrize("empty,name", [(0, "original"), (1, "fr"), (2, "de")])
    def test_empty_weighted_pool_raises(self, empty, name):
        pools = [["a"], ["b"], ["c"]]
        pools[empty] = []
        with pytest.raises(EmptyWeightedPool,
                           match=f"the {name} pool is empty but has mixing weight"):
            mixed_sampler(pools, (1.0, 1.0, 2.0), seed=0)

    def test_deterministic_under_seed(self):
        pools = [list(range(4)), list(range(4, 7)), list(range(7, 9))]
        a = mixed_sampler(pools, (3.0, 1.0, 1.0), seed=11)
        b = mixed_sampler(pools, (3.0, 1.0, 1.0), seed=11)
        c = mixed_sampler(pools, (3.0, 1.0, 1.0), seed=12)
        first_a = [next(a) for _ in range(200)]
        first_b = [next(b) for _ in range(200)]
        first_c = [next(c) for _ in range(200)]
        assert first_a == first_b
        assert first_a != first_c

    def test_weights_normalized(self):
        """Only the weights' ratio counts: 3:1:1 at any scale draws the
        same stream, and so does the normalised (0.6, 0.2, 0.2)."""
        pools = [list(range(4)), list(range(4, 7)), list(range(7, 9))]
        streams = [mixed_sampler(pools, w, seed=5) for w in
                   ((3.0, 1.0, 1.0), [6, 2, 2], np.array([3.0, 1.0, 1.0]) / 5.0)]
        draws = [[next(s) for _ in range(300)] for s in streams]
        assert draws[0] == draws[1] == draws[2]

    def test_bad_ratios_rejected(self):
        """A negative weight, or all zeros, fails before the first draw."""
        with pytest.raises(ValueError, match="non-negative"):
            mixed_sampler([["a"], ["b"], ["c"]], (-1.0, 1.0, 1.0), seed=0)
        with pytest.raises(ValueError, match="positive"):
            mixed_sampler([["a"], ["b"], ["c"]], (0.0, 0.0, 0.0), seed=0)

    def test_weight_count_enforced(self):
        for weights in ((3.0, 1.0), (3.0, 1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="3 mixing weights"):
                mixed_sampler([["a"], ["b"], ["c"]], weights, seed=0)

    def test_pool_count_enforced(self):
        with pytest.raises(ValueError):
            next(mixed_sampler([["a"], ["b"]], (3.0, 1.0, 1.0), seed=0))


# ---------------------------------------------------------------------------
# Dataset-level augmentation and serialization


def _single_sentence_example(example_id):
    context = "The team won the cup in 1999."
    return example_from_raw(example_id, context, "When did the team win?",
                            "1999", context.index("1999"))


def _lang_script(word):
    s = "The team won the cup in 1999."
    return {("forward", s): ["F"],
            ("back", "F"): [f"The {word} won the cup in 1999."]}


class TestAugmentExamples:
    def test_ids_and_pools(self):
        examples = [_single_sentence_example("a"),
                    _single_sentence_example("b")]
        endpoints = {"fr": ScriptedTranslator(_lang_script("squad")),
                     "de": ScriptedTranslator(_lang_script("crew"))}
        got = augment_examples(examples, endpoints, k=5, threshold=0.5,
                               seed=3, copies=2)
        assert sorted(got) == ["de", "fr"]
        assert [e.id for e in got["fr"]] == ["a-fr-1", "a-fr-2",
                                             "b-fr-1", "b-fr-2"]
        assert [e.id for e in got["de"]] == ["a-de-1", "a-de-2",
                                             "b-de-1", "b-de-2"]
        assert all("squad" in e.context_text for e in got["fr"])
        assert all("crew" in e.context_text for e in got["de"])
        assert all(e.question_text == "When did the team win?"
                   for e in got["fr"] + got["de"])

    def test_noops_skipped(self):
        examples = [_single_sentence_example("a")]
        got = augment_examples(examples, {"fr": ScriptedTranslator()}, k=5,
                               threshold=0.5, seed=0, copies=1)
        assert got == {"fr": []}

    def test_unlabeled_example_skipped(self):
        ex = _doc_example()
        ex.answer_span = None
        endpoint = CountingTranslator()
        got = augment_examples([ex], {"fr": endpoint}, k=5, threshold=0.5,
                               seed=0, copies=1)
        assert got == {"fr": []}
        assert endpoint.requests == []

    def test_deterministic(self):
        examples = [_single_sentence_example("a")]
        endpoints = {"fr": RuleTranslator("fr")}
        one = augment_examples(examples, endpoints, k=3, threshold=0.5, seed=9,
                               copies=1)
        two = augment_examples(examples, endpoints, k=3, threshold=0.5, seed=9,
                               copies=1)
        assert [e.context_text for e in one["fr"]] == \
            [e.context_text for e in two["fr"]]

    def test_write_and_reparse(self, tmp_path):
        examples = [_single_sentence_example("a")]
        endpoints = {"fr": ScriptedTranslator(_lang_script("squad"))}
        pools = augment_examples(examples, endpoints, k=5, threshold=0.5,
                                 seed=3, copies=1)
        path = tmp_path / "aug.json"
        write_squad_json(str(path), pools["fr"])
        back = parse_qa_json(str(path), split="train")
        assert len(back) == 1
        assert back[0].id == "a-fr-1"
        assert back[0].context_text == pools["fr"][0].context_text
        assert back[0].answer_text == pools["fr"][0].answer_text
        lo, hi = back[0].answer_char_range()
        assert back[0].context_text[lo:hi] == back[0].answer_text


# ---------------------------------------------------------------------------
# Request traffic and byte identity


# Paragraphs with several questions each; the first context comes back at
# the end, after another one, and the second repeats a sentence verbatim.
_HOUSE = ("The big house on the hill was famous for its red roof. "
          "A quick walk from the city center, it hosted the local team "
          "every summer. Many people came to the show, and the team played "
          "until late.")
_DEPARTMENTS = ("All of the departments in the College of Science offer PhD "
                "programs, except for the Department of Pre-Professional "
                "Studies. The big team will start in March. The big team "
                "will start in March.")
_STADIUM = ("Construction will start in March. The new stadium can show "
            "over forty thousand fans a single match.")
_FIXTURE = [
    (_HOUSE, [("What color was the roof?", "red"),
              ("Who did the house host?", "the local team"),
              ("Where was the house?", "on the hill")]),
    (_DEPARTMENTS, [("Which department lacks a PhD program?",
                     "Department of Pre-Professional Studies"),
                    ("When will the team start?", "March")]),
    (_STADIUM, [("When will construction start?", "March"),
                ("How many fans fit?", "forty thousand"),
                ("What spans two sentences?", "March. The new")]),
    (_HOUSE, [("What was famous?", "The big house")]),
]
# sha256 of _write_fixture_augmented's output. Sending each paragraph run's
# units in one round trip per pivot changes only the traffic, never these
# bytes. The p2q2 records answer "March. The new" whole, because an
# answer's sentences are paraphrased as one unit.
_FIXTURE_SHA256 = (
    "539a64bbf83fe2c5e08c83aee39f335c368c6bba4c03650a392b86e3b7c754d8")


def _fixture_examples(tmp_path):
    doc = {"version": "1.1", "data": [{"title": "fixture", "paragraphs": [
        {"context": context,
         "qas": [{"id": f"p{p}q{q}", "question": question,
                  "answers": [{"text": answer,
                               "answer_start": context.index(answer)}]}
                 for q, (question, answer) in enumerate(qas)]}
        for p, (context, qas) in enumerate(_FIXTURE)]}]}
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return parse_qa_json(str(path), split="train")


def _write_fixture_augmented(tmp_path, endpoints):
    pools = augment_examples(_fixture_examples(tmp_path), endpoints, k=3,
                             threshold=0.5, seed=5, copies=2)
    out = tmp_path / "augmented.json"
    write_squad_json(str(out), [ex for tag in sorted(pools)
                                for ex in pools[tag]])
    return hashlib.sha256(out.read_bytes()).hexdigest()


class CountingTranslator:
    """Endpoint, a RuleTranslator by default, that records every request it
    answers."""

    def __init__(self, language="fr", inner=None):
        self.inner = inner or RuleTranslator(language)
        self.requests = []  # (direction, texts) per call

    def translate(self, texts, beam, direction):
        self.requests.append((direction, list(texts)))
        return self.inner.translate(texts, beam, direction)

    def directions(self):
        return [direction for direction, _ in self.requests]


def _questions(context, n, prefix):
    answer = context.split()[1]
    return [example_from_raw(f"{prefix}{i}", context, f"Question {i}?",
                             answer, context.index(answer))
            for i in range(n)]


class TestRequestTraffic:
    def test_one_forward_and_one_back_per_paragraph(self):
        endpoints = {"fr": CountingTranslator("fr"),
                     "de": CountingTranslator("de")}
        augment_examples(_questions(_HOUSE, 3, "a")
                         + _questions(_STADIUM, 2, "b"),
                         endpoints, k=3, threshold=0.5, seed=0, copies=1)
        for endpoint in endpoints.values():
            assert endpoint.directions() == ["forward", "back"] * 2
            forward_texts = endpoint.requests[0][1]
            assert forward_texts == [s.text for s in split_sentences(_HOUSE)]

    def test_later_questions_on_a_paragraph_send_nothing(self):
        one, many = CountingTranslator(), CountingTranslator()
        augment_examples(_questions(_HOUSE, 1, "a"), {"fr": one}, k=3,
                         threshold=0.5, seed=0, copies=1)
        augment_examples(_questions(_HOUSE, 4, "a"), {"fr": many}, k=3,
                         threshold=0.5, seed=0, copies=1)
        assert many.requests == one.requests
        assert len(one.requests) == 2

    def test_second_copy_sends_nothing(self):
        endpoint = CountingTranslator()
        augment_examples(_questions(_HOUSE, 1, "a"), {"fr": endpoint}, k=3,
                         threshold=0.5, seed=0, copies=2)
        assert endpoint.directions() == ["forward", "back"]

    def test_cross_sentence_answer_shares_the_round_trip(self):
        """An answer spanning two sentences travels in the same forward
        request as the sentences of its paragraph's other questions."""
        sentences = [s.text for s in split_sentences(_STADIUM)]
        examples = [example_from_raw(f"s{i}", _STADIUM, "q?", answer,
                                     _STADIUM.index(answer))
                    for i, answer in enumerate(["March. The new",
                                                "forty thousand"])]
        endpoints = {"fr": CountingTranslator("fr"),
                     "de": CountingTranslator("de")}
        augment_examples(examples, endpoints, k=3, threshold=0.5, seed=0,
                         copies=1)
        for endpoint in endpoints.values():
            assert endpoint.directions() == ["forward", "back"]
            assert endpoint.requests[0][1] == [_STADIUM] + sentences

    def test_fixture_costs_two_requests_per_paragraph_run(self, tmp_path):
        endpoints = {"fr": CountingTranslator("fr"),
                     "de": CountingTranslator("de")}
        assert _write_fixture_augmented(tmp_path, endpoints) == _FIXTURE_SHA256
        for endpoint in endpoints.values():
            assert endpoint.directions() == ["forward", "back"] * 4

    def test_returning_context_is_translated_again(self):
        endpoint = CountingTranslator()
        examples = (_questions(_HOUSE, 1, "a") + _questions(_STADIUM, 1, "b")
                    + _questions(_HOUSE, 1, "c"))
        augment_examples(examples, {"fr": endpoint}, k=3, threshold=0.5,
                         seed=0, copies=1)
        assert endpoint.directions() == ["forward", "back"] * 3
        assert endpoint.requests[0] == endpoint.requests[4]

    def test_repeated_sentence_sent_once(self):
        endpoint = CountingTranslator()
        augment_examples(_questions(_DEPARTMENTS, 1, "a"), {"fr": endpoint},
                         k=3, threshold=0.5, seed=0, copies=1)
        (_, forward), (_, back) = endpoint.requests
        repeated = "The big team will start in March."
        assert forward.count(repeated) == 1
        assert len(forward) == 2
        assert len(back) == len(set(back))
        assert sum(text.endswith(repeated) for text in back) == 3

    def test_shared_forward_output_sent_back_once(self):
        script = {("forward", "s"): ["p", "q"], ("forward", "t"): ["p"],
                  ("back", "p"): ["x"], ("back", "q"): ["y"]}
        endpoint = CountingTranslator(inner=ScriptedTranslator(script))
        assert paraphrase_sentences(["s", "t"], endpoint, k=2) == [
            ["x", "y"], ["x"]]
        assert endpoint.requests[1] == ("back", ["p", "q"])

    def test_fixture_bytes_pinned(self, tmp_path):
        endpoints = {"fr": RuleTranslator("fr"), "de": RuleTranslator("de")}
        assert _write_fixture_augmented(tmp_path, endpoints) == _FIXTURE_SHA256

    def test_http_writes_the_same_bytes(self, tmp_path, http_port):
        base = f"http://127.0.0.1:{http_port}/rule"
        endpoints = {tag: HttpTranslator(f"{base}/{tag}", retries=0)
                     for tag in ("fr", "de")}
        assert _write_fixture_augmented(tmp_path, endpoints) == _FIXTURE_SHA256


class _BrokenBack:
    """RuleTranslator whose back requests fail with ``error``, or answer
    one translation list short when ``error`` is None."""

    def __init__(self, error):
        self.inner = RuleTranslator("fr")
        self.error = error

    def translate(self, texts, beam, direction):
        out = self.inner.translate(texts, beam, direction)
        if direction == "back":
            if self.error is not None:
                raise self.error
            return out[:-1]
        return out


@pytest.mark.parametrize("make, error", [
    (lambda port: HttpTranslator(f"http://127.0.0.1:{port}/badback",
                                 retries=0), TranslatorProtocolError),
    (lambda port: _BrokenBack(None), TranslatorProtocolError),
    (lambda port: _BrokenBack(TranslatorUnavailable("gone")),
     TranslatorUnavailable),
], ids=["http-short-back", "short-back", "unavailable-back"])
def test_batched_back_failure_propagates(make, error, http_port):
    with pytest.raises(error):
        augment_examples(_questions(_HOUSE, 2, "a"), {"fr": make(http_port)},
                         k=3, threshold=0.5, seed=0, copies=1)


class _SameReply:
    """In-process endpoint that answers every text with ``reply``."""

    def __init__(self, reply):
        self.reply = reply

    def translate(self, texts, beam, direction):
        return [list(self.reply) for _ in texts]


@pytest.mark.parametrize("reply", [["a", "b", "c", "d", "e", "f"], ["a", 3]],
                         ids=["beam-plus-3", "non-string"])
def test_in_process_reply_checked_like_http(reply):
    """A reply list longer than the beam, or holding a non-string, is
    refused for every endpoint, not cut or left to fail in tokenize."""
    with pytest.raises(TranslatorProtocolError, match="malformed"):
        paraphrase_sentences(["s"], _SameReply(reply), k=3)


@pytest.mark.parametrize("reply", [["a", "b", "c", "d", "e", "f"], ["a", 3]],
                         ids=["beam-plus-3", "non-string"])
def test_augment_refuses_malformed_lists(reply):
    """Through ``augment_examples`` the same replies are refused by the
    check every reply goes through."""
    with pytest.raises(TranslatorProtocolError, match="malformed"):
        augment_examples(_questions(_HOUSE, 2, "a"), {"fr": _SameReply(reply)},
                         k=3, threshold=0.5, seed=0, copies=1)

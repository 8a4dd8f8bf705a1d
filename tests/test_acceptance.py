"""Acceptance gates: one test per shipping criterion, each prints PASS/FAIL.

These intentionally re-derive their oracles instead of trusting unit-test
internals; runtimes are bounded so the whole file stays desk-scale.
"""
import json
import time

import numpy as np

import conftest
from test_cli import TINY_MODEL, _config_file, _dataset
from test_evaluation import HAND_SCORED
from test_trainer import scalar_box
from gradcheck import check_gradients, relative_error, weighted_sum_loss
from translators import ScriptedTranslator

from qanet.attention import TrilinearWeights, context_query_attention
from qanet.augmentation import (extract_answer, mixed_sampler,
                                paraphrase_sentence, MixRatio)
from qanet.cli import main
from qanet.data import (Vocabulary, build_batch, example_from_raw, tokenize)
from qanet.encoder import residual_sublayer, survival_probability
from qanet.evaluation import (evaluate, exact_match_score, f1_score,
                              metric_max_over_ground_truths)
from qanet.model import ModelConfig, init_model_params, model_loss, predict_all
from qanet.span import SpanHeadParams, dp_span_inference, span_distributions
import qanet.tensor
from qanet.tensor import (Tensor, add, backward, clamp_min, concat,
                          depthwise_separable_conv1d, dropout_apply,
                          dropout_mask, embedding_lookup, gather_last,
                          layernorm, log, matmul, max_over_axis, multiply,
                          reduce_sum, relu, reshape, scalar_scale,
                          scaled_dot_attention, sigmoid, softmax, subtract,
                          swap_last_axes)
from qanet.trainer import (OptimizerConfig, adam_step, ema_update,
                           init_train_state, load_checkpoint, lr_schedule,
                           train, zero_grads)
from qanet.model import named_parameters


def _verdict(num: int, label: str, body) -> None:
    try:
        body()
        ok, detail = True, ""
    except AssertionError as err:
        ok, detail = False, str(err)
    line = f"[acceptance] {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. Gradient gate


# Public names of qanet.tensor that record no tape op of their own.
_NOT_DIFFERENTIABLE = {"backward", "no_grad", "dropout_mask", "as_array"}


def _op_sweep(rng):
    """Finite-difference check for every differentiable operation.

    Case names are ``op`` or ``op:variant``; every public function of
    qanet.tensor outside _NOT_DIFFERENTIABLE must own at least one case.
    """
    cases = []

    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal(4)
    w = rng.standard_normal((2, 3, 4))
    cases.append(("add", [a, b],
                  lambda ts: weighted_sum_loss(add(ts[0], ts[1]), w)))
    c = rng.standard_normal((3, 4))
    d = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((3, 4))
    cases.append(("subtract", [c, d],
                  lambda ts: weighted_sum_loss(subtract(ts[0], ts[1]), w2)))
    cases.append(("multiply", [a.copy(), c.copy()],
                  lambda ts: weighted_sum_loss(multiply(ts[0], ts[1]), w)))
    cases.append(("scalar_scale", [c.copy()],
                  lambda ts: weighted_sum_loss(scalar_scale(ts[0], -1.7), w2)))
    m1 = rng.standard_normal((3, 4))
    m2 = rng.standard_normal((4, 5))
    wm = rng.standard_normal((3, 5))
    cases.append(("matmul", [m1, m2],
                  lambda ts: weighted_sum_loss(matmul(ts[0], ts[1]), wm)))
    b1 = rng.standard_normal((2, 3, 4))
    b2 = rng.standard_normal((2, 4, 5))
    wb = rng.standard_normal((2, 3, 5))
    cases.append(("matmul:batched", [b1, b2],
                  lambda ts: weighted_sum_loss(matmul(ts[0], ts[1]), wb)))

    # Keep kinked ops away from their kinks by more than the FD step.
    kinked = rng.standard_normal((3, 4))
    kinked += np.sign(kinked) * 0.1
    cases.append(("relu", [kinked.copy()],
                  lambda ts: weighted_sum_loss(relu(ts[0]), w2)))
    cases.append(("clamp_min", [kinked.copy()],
                  lambda ts: weighted_sum_loss(clamp_min(ts[0], 0.0), w2)))
    cases.append(("sigmoid", [c.copy()],
                  lambda ts: weighted_sum_loss(sigmoid(ts[0]), w2)))
    positive = np.abs(rng.standard_normal((3, 4))) + 0.5
    cases.append(("log", [positive],
                  lambda ts: weighted_sum_loss(log(ts[0]), w2)))
    cases.append(("softmax:last", [a.copy()],
                  lambda ts: weighted_sum_loss(softmax(ts[0], -1), w)))
    cases.append(("softmax:mid", [a.copy()],
                  lambda ts: weighted_sum_loss(softmax(ts[0], -2), w)))
    # 0/1 masks with one wholly masked slice: zero weight, zero gradient.
    last_mask = np.array([[[1, 0, 1, 1]], [[0, 0, 0, 0]]], dtype=np.float64)
    cases.append(("softmax:masked_last", [a.copy()],
                  lambda ts: weighted_sum_loss(
                      softmax(ts[0], -1, mask=last_mask), w)))
    mid_mask = np.array([[1, 1, 0], [0, 1, 0]], dtype=np.float64)[:, :, None]
    cases.append(("softmax:masked_mid", [a.copy()],
                  lambda ts: weighted_sum_loss(
                      softmax(ts[0], -2, mask=mid_mask), w)))
    gain = rng.standard_normal(4)
    bias = rng.standard_normal(4)
    cases.append(("layernorm", [a.copy(), gain, bias],
                  lambda ts: weighted_sum_loss(layernorm(*ts), w)))
    p1 = rng.standard_normal((2, 3))
    p2 = rng.standard_normal((2, 2))
    wc = rng.standard_normal((2, 5))
    cases.append(("concat", [p1, p2],
                  lambda ts: weighted_sum_loss(concat(list(ts), -1), wc)))
    wr = rng.standard_normal((6, 4))
    cases.append(("reshape", [a.copy()],
                  lambda ts: weighted_sum_loss(reshape(ts[0], (6, 4)), wr)))
    wt = rng.standard_normal((2, 4, 3))
    cases.append(("swap_last_axes", [a.copy()],
                  lambda ts: weighted_sum_loss(swap_last_axes(ts[0]), wt)))
    cases.append(("reduce_sum", [c.copy()], lambda ts: reduce_sum(ts[0])))
    spread = (rng.permutation(24).astype(np.float64) * 0.1).reshape(2, 3, 4)
    wx = rng.standard_normal((2, 4))
    cases.append(("max_over_axis", [spread],
                  lambda ts: weighted_sum_loss(max_over_axis(ts[0], 1), wx)))
    table = rng.standard_normal((7, 4))
    ids = np.array([[0, 2], [5, 6], [2, 2]])
    we = rng.standard_normal((3, 2, 4))
    cases.append(("embedding_lookup", [table],
                  lambda ts: weighted_sum_loss(embedding_lookup(ts[0], ids), we)))
    gx = rng.standard_normal((3, 6))
    gids = np.array([1, 4, 2])
    wg = rng.standard_normal(3)
    cases.append(("gather_last", [gx],
                  lambda ts: weighted_sum_loss(gather_last(ts[0], gids), wg)))
    mask = dropout_mask(np.random.default_rng(3), (3, 4), 0.5)
    cases.append(("dropout_apply", [c.copy()],
                  lambda ts: weighted_sum_loss(dropout_apply(ts[0], mask), w2)))
    cx = rng.standard_normal((2, 6, 4))
    dk = rng.standard_normal((5, 4)) * 0.5
    pk = rng.standard_normal((4, 3)) * 0.5
    cb = rng.standard_normal(3) * 0.1
    wcv = rng.standard_normal((2, 6, 3))
    cases.append(("depthwise_separable_conv1d", [cx, dk, pk, cb],
                  lambda ts: weighted_sum_loss(
                      depthwise_separable_conv1d(*ts), wcv)))
    # Two heads of width 3; key mask 0 on padded keys.
    qkv = [rng.standard_normal((2, 4, 6)) for _ in range(3)]
    wa = rng.standard_normal((2, 4, 6))
    padded = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.float64)
    cases.append(("scaled_dot_attention:batched_padded", qkv,
                  lambda ts: weighted_sum_loss(
                      scaled_dot_attention(*ts, 2, padded), wa)))
    cases.append(("scaled_dot_attention:single", [a[0] for a in qkv],
                  lambda ts: weighted_sum_loss(
                      scaled_dot_attention(*ts, 2), wa[0])))
    lone = np.array([[1, 0, 0, 0], [1, 1, 1, 1]], dtype=np.float64)
    cases.append(("scaled_dot_attention:one_real_key", [a.copy() for a in qkv],
                  lambda ts: weighted_sum_loss(
                      scaled_dot_attention(*ts, 2, lone), wa)))

    swept = {name.split(":")[0] for name, _, _ in cases}
    ops = {name for name in qanet.tensor.__all__
           if not isinstance(getattr(qanet.tensor, name), type)}
    unswept = sorted(ops - _NOT_DIFFERENTIABLE - swept)
    assert not unswept, f"differentiable ops without a sweep case: {unswept}"
    for name, arrays, fn in cases:
        worst = check_gradients(fn, arrays, tol=1e-4)
        assert worst < 1e-4, f"{name}: {worst:.2e}"


def _toy_end_to_end():
    """Whole-model directional derivatives at n=12, m=6, d=16."""
    config = ModelConfig(hidden_dim=16, num_heads=2, word_dim=8, char_dim=6,
                         char_limit=4, char_kernel=3, emb_enc_blocks=1,
                         emb_enc_convs=2, emb_enc_kernel=5,
                         model_enc_blocks=2, model_enc_convs=1,
                         model_enc_kernel=5, dropout=0.0, word_dropout=0.0,
                         char_dropout=0.0, survival_end=1.0)
    rng = np.random.default_rng(12)
    words = [f"w{i}" for i in range(30)]
    vocab = Vocabulary.from_words(words)
    examples = []
    for i in range(2):
        ctx = [words[int(rng.integers(30))] for _ in range(12)]
        s = int(rng.integers(12))
        q = [words[int(rng.integers(30))] for _ in range(6)]
        examples.append(example_from_raw(
            f"t{i}", " ".join(ctx), " ".join(q), ctx[s],
            len(" ".join(ctx[:s])) + (1 if s else 0)))
    batch = build_batch(examples, vocab, char_limit=config.char_limit)
    matrix = rng.standard_normal((len(vocab.words), config.word_dim))
    matrix[0] = 0.0
    params = init_model_params(config, matrix, len(vocab.chars), rng)

    pairs = named_parameters(params)
    loss, _ = model_loss(params, config, batch)
    backward(loss)
    grads = {name: t.grad.copy() for name, t in pairs}
    base = {name: t.data.copy() for name, t in pairs}
    # Small enough that no relu/argmax boundary sits inside the probe.
    h = 1e-6
    dir_rng = np.random.default_rng(99)
    for trial in range(4):
        direction = {name: dir_rng.standard_normal(t.data.shape)
                     for name, t in pairs}
        analytic = sum(float(np.sum(grads[n] * direction[n]))
                       for n, _ in pairs)
        probes = []
        for sign in (+1.0, -1.0):
            for name, t in pairs:
                t.data = base[name] + sign * h * direction[name]
            shifted, _ = model_loss(params, config, batch)
            probes.append(float(shifted.data))
        for name, t in pairs:
            t.data = base[name]
        numeric = (probes[0] - probes[1]) / (2 * h)
        err = relative_error(np.array([analytic]), np.array([numeric]))
        assert err < 1e-4, f"trial {trial}: rel err {err:.2e}"


def test_01_gradient_gate():
    def body():
        t0 = time.monotonic()
        _op_sweep(np.random.default_rng(5))
        _toy_end_to_end()
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"gradient gate took {elapsed:.1f}s"
    _verdict(1, "gradient gate (ops + end-to-end, < 2 min)", body)


# ---------------------------------------------------------------------------
# 2. Normalization invariants


def test_02_normalization_invariants():
    def body():
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(2, 9))
            d = 4
            C = Tensor(rng.standard_normal((n, d)))
            Q = Tensor(rng.standard_normal((m, d)))
            weights = TrilinearWeights(w_c=Tensor(rng.standard_normal(d)),
                                       w_q=Tensor(rng.standard_normal(d)),
                                       w_qc=Tensor(rng.standard_normal(d)))
            c_real = int(rng.integers(1, n + 1))
            q_real = int(rng.integers(1, m + 1))
            c_mask = np.zeros(n)
            c_mask[:c_real] = 1.0
            q_mask = np.zeros(m)
            q_mask[:q_real] = 1.0
            mats = context_query_attention(C, Q, weights, c_mask, q_mask)
            row = mats.S_row.data
            col = mats.S_col.data
            assert np.all(np.abs(row[:c_real].sum(axis=-1) - 1.0) < 1e-9)
            assert np.all(np.abs(col[:c_real, :q_real].sum(axis=0) - 1.0) < 1e-9)
            assert np.all(row[:, q_real:] == 0.0)
            assert np.all(col[c_real:, :] == 0.0)

            dm = 6
            M = [Tensor(rng.standard_normal((1, n, dm))) for _ in range(3)]
            head = SpanHeadParams(w1=Tensor(rng.standard_normal(2 * dm)),
                                  w2=Tensor(rng.standard_normal(2 * dm)))
            dist = span_distributions(M[0], M[1], M[2], head.w1, head.w2,
                                      mask=c_mask[None, :])
            for p in (dist.p1.data, dist.p2.data):
                assert abs(p[0, :c_real].sum() - 1.0) < 1e-9
                assert np.all(p[0, c_real:] == 0.0)
    _verdict(2, "row/column/probability normalization with exact masking",
             body)


# ---------------------------------------------------------------------------
# 3. DP inference against enumeration


def _enumerate_best(p1, p2, max_len):
    n = p1.size
    scores = p1[:, None] * p2[None, :]
    s_idx, e_idx = np.indices((n, n))
    window = (s_idx <= e_idx) & (e_idx - s_idx < max_len)
    masked = np.where(window, scores, -np.inf)
    best = masked.max()
    ties = np.argwhere(masked == best)
    s, e = ties[0]  # argwhere scans in C order: smallest s, then e
    return int(s), int(e), float(scores[s, e])


def test_03_dp_matches_enumeration():
    def body():
        rng = np.random.default_rng(30)
        for i in range(1000):
            n = int(rng.integers(1, 401))
            p1 = rng.random(n)
            p2 = rng.random(n)
            if i % 3 == 0:
                # quantized distributions force genuine ties
                p1 = np.maximum(np.round(p1, 1), 0.1)
                p2 = np.maximum(np.round(p2, 1), 0.1)
            got = dp_span_inference(p1, p2, max_len=30)
            want = _enumerate_best(p1, p2, 30)
            assert (got.start, got.end) == want[:2], (i, n)
            assert got.score == want[2], (i, n)
    _verdict(3, "span DP equals exhaustive enumeration on 1000 instances",
             body)


# ---------------------------------------------------------------------------
# 4. Documented paraphrase answer recovery


def test_04_paraphrased_answer_recovery():
    def body():
        sentence = ("All departments in the College of Science offer PHD "
                    "programs with the exception of the Department of "
                    "Preparatory Studies.")
        words = [t.text for t in tokenize(sentence)]
        answer = [t.text for t in
                  tokenize("Department of Pre-Professional Studies")]
        got = extract_answer(words, answer)
        assert got is not None
        assert got[2] == "Department of Preparatory Studies", got
    _verdict(4, "documented paraphrase answer recovered by alignment", body)


# ---------------------------------------------------------------------------
# 5. Beam arithmetic


def test_05_beam_ceiling():
    def body():
        s = "origin"
        script = {("forward", s): [f"p{i}" for i in range(9)]}
        for i in range(9):
            script[("back", f"p{i}")] = [f"c{i}-{j}" for j in range(9)]
        got = paraphrase_sentence(s, ScriptedTranslator(script), k=5)
        assert len(got) == 25, len(got)
        assert paraphrase_sentence(s, ScriptedTranslator(), k=5) == []
    _verdict(5, "beam width 5 yields the 25-candidate ceiling", body)


# ---------------------------------------------------------------------------
# 6. Overfit smoke test


def test_06_overfit_synthetic(tmp_path):
    def body():
        t0 = time.monotonic()
        rng = np.random.default_rng(60)
        words = [f"w{i}" for i in range(200)]
        vocab = Vocabulary.from_words(words)
        examples = []
        for i in range(50):
            k = int(rng.integers(10, 17))
            ctx = [words[int(rng.integers(100))] for _ in range(k)]
            marker = words[100 + i]
            a = int(rng.integers(k - 2))
            ctx[a] = marker
            width = int(rng.integers(1, 3))
            context = " ".join(ctx)
            answer = " ".join(ctx[a + 1:a + 1 + width])
            start = len(" ".join(ctx[:a + 1])) + 1
            question = " ".join([marker, words[50], words[51]])
            examples.append(example_from_raw(f"s{i}", context, question,
                                             answer, start))
        config = ModelConfig(hidden_dim=32, num_heads=4, word_dim=16,
                             char_dim=8, char_limit=4, char_kernel=3,
                             emb_enc_blocks=1, emb_enc_convs=2,
                             emb_enc_kernel=5, model_enc_blocks=2,
                             model_enc_convs=1, model_enc_kernel=5,
                             dropout=0.0, word_dropout=0.0, char_dropout=0.0,
                             survival_end=1.0, max_context_len=30)
        opt = OptimizerConfig(target_lr=0.005, warmup_steps=50,
                              batch_size=10, total_steps=500,
                              ema_decay=0.999)
        matrix = rng.standard_normal((len(vocab.words), config.word_dim)) * 0.5
        matrix[0] = 0.0
        result = train(examples, vocab, matrix, config, opt, seed=1,
                       out_dir=str(tmp_path / "overfit"), log_every=100)
        params, _, _, _, _ = load_checkpoint(result.checkpoint_path)
        scores = evaluate(predict_all(params, config, examples, vocab),
                          examples)
        elapsed = time.monotonic() - t0
        assert elapsed <= 300.0, f"overfit run took {elapsed:.0f}s"
        assert scores.exact_match >= 95.0, \
            f"train EM {scores.exact_match:.1f} after 500 steps"
    _verdict(6, "500-step overfit reaches 95% train EM inside 5 min", body)


# ---------------------------------------------------------------------------
# 7. Stochastic depth statistics


def test_07_stochastic_depth():
    def body():
        L = 10
        assert survival_probability(L, L, 0.9) == 0.9
        assert survival_probability(1, L, 0.9) == 1.0 - 0.1 / L
        x = Tensor(np.ones((2, 3)))
        gain = Tensor(np.ones(3))
        bias = Tensor(np.zeros(3))
        for p in (0.9, 0.95, 1.0):
            rng = np.random.default_rng(int(p * 1000))
            kept = 0
            for _ in range(10_000):
                calls = []
                def f(y):
                    calls.append(1)
                    return y
                residual_sublayer(x, f, gain, bias, survival_prob=p,
                                  train_mode=True, rng=rng)
                kept += len(calls)
            rate = kept / 10_000
            assert abs(rate - p) <= 0.02, (p, rate)
    _verdict(7, "sublayer survival matches p within 2 points over 10k draws",
             body)


# ---------------------------------------------------------------------------
# 8. Sampler statistics


def test_08_sampler_ratio():
    def body():
        pools = [[("orig", i) for i in range(7)],
                 [("fr", i) for i in range(4)],
                 [("de", i) for i in range(3)]]
        stream = mixed_sampler(pools, MixRatio(3.0, 1.0, 1.0), seed=80)
        counts = {"orig": 0, "fr": 0, "de": 0}
        for _ in range(100_000):
            counts[next(stream)[0]] += 1
        for tag, want in (("orig", 0.6), ("fr", 0.2), ("de", 0.2)):
            got = counts[tag] / 100_000
            assert abs(got - want) < 0.01, (tag, got)
    _verdict(8, "3:1:1 mixing within 0.01 of (0.6, 0.2, 0.2) over 100k draws",
             body)


# ---------------------------------------------------------------------------
# 9. Metric fixtures


def test_09_hand_scored_metrics():
    def body():
        assert len(HAND_SCORED) == 20
        examples = []
        predictions = {}
        for i, (pred, golds, em, f1) in enumerate(HAND_SCORED):
            got_em = metric_max_over_ground_truths(exact_match_score,
                                                   pred, golds)
            got_f1 = metric_max_over_ground_truths(f1_score, pred, golds)
            assert got_em == em, (i, pred, golds)
            assert abs(got_f1 - f1) <= 1e-12, (i, pred, golds)
            ex = example_from_raw(f"h{i}", "Placeholder context words here.",
                                  "q?", "Placeholder", 0, gold_answers=golds)
            examples.append(ex)
            predictions[ex.id] = pred
        result = evaluate(predictions, examples)
        want_em = 100.0 * sum(em for *_, em, _ in HAND_SCORED) / 20
        want_f1 = 100.0 * sum(f1 for *_, f1 in HAND_SCORED) / 20
        assert abs(result.exact_match - want_em) <= 1e-9
        assert abs(result.f1 - want_f1) <= 1e-9
    _verdict(9, "20 hand-scored EM/F1 fixtures reproduced", body)


# ---------------------------------------------------------------------------
# 10. Determinism and resume


def test_10_determinism_and_resume(tmp_path):
    def body():
        data = _dataset(tmp_path / "data.json")

        def run(name, total_steps, resume=None, seed="7"):
            out = str(tmp_path / name)
            cfg = _config_file(tmp_path / f"{name}.json", data, out,
                               extra={"optimizer.total_steps": total_steps})
            argv = ["train", "--config", cfg, "--seed", seed]
            if resume:
                argv += ["--resume", resume]
            assert main(argv) == 0, name
            with open(f"{out}/metrics.jsonl", encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh]
            with open(f"{out}/model.ckpt", "rb") as fh:
                ckpt = fh.read()
            return records, ckpt

        rec_a, ckpt_a = run("full-a", 6)
        rec_b, ckpt_b = run("full-b", 6)
        assert ckpt_a == ckpt_b, "checkpoint bytes differ between runs"
        assert rec_a == rec_b, "logs differ between runs"

        _, _ = run("half", 3)
        rec_r, ckpt_r = run("resumed", 6,
                            resume=str(tmp_path / "half" / "model.ckpt"))
        full_tail = {r["step"]: r["loss"] for r in rec_a if "loss" in r
                     and r["step"] > 3}
        resumed = {r["step"]: r["loss"] for r in rec_r if "loss" in r}
        assert resumed == full_tail, "resumed loss trace diverges"
        assert ckpt_r == ckpt_a, "resumed checkpoint differs from full run"
    _verdict(10, "bitwise-deterministic runs; resume matches full trace",
             body)


# ---------------------------------------------------------------------------
# 11. Schedule / optimizer closed forms


def test_11_closed_forms():
    def body():
        for step in (1000, 1001, 4096, 10 ** 6):
            assert lr_schedule(step) == 0.001, step
        assert lr_schedule(999) < 0.001

        # One step, unit gradient: with eps = 0 the bias-corrected update
        # is exactly -lr; the reference epsilon shifts it to lr/(1+eps).
        for eps, want_shift in ((0.0, 0.001), (1e-7, 0.001 / (1.0 + 1e-7))):
            config = OptimizerConfig(target_lr=0.001, warmup_steps=1,
                                     weight_decay=0.0, eps=1e-300)
            config.eps = eps
            box = scalar_box(0.7)
            state = init_train_state(box, seed=0)
            zero_grads(box)
            box.w.grad[...] = 1.0
            adam_step(box, state, config)
            moved = 0.7 - float(box.w.data)
            assert abs(moved - want_shift) <= 1e-12, (eps, moved)

        decay = 0.9999
        target = 2.5
        box = scalar_box(1.0)
        state = init_train_state(box, seed=0)
        box.w.data[...] = target
        for t in range(1, 11):
            ema_update(state, box, decay=decay)
            want = decay ** t * 1.0 + (1.0 - decay ** t) * target
            assert abs(float(state.shadow["w"]) - want) <= 1e-12, t
    _verdict(11, "lr plateau, Adam unit step, EMA geometric closed forms",
             body)

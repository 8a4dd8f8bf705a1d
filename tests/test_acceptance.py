"""Acceptance gates: one test per shipping criterion, each prints PASS/FAIL.

These intentionally re-derive their oracles instead of trusting unit-test
internals; runtimes are bounded so the whole file stays desk-scale.
"""
import json
import time
from types import SimpleNamespace

import numpy as np

import conftest
from test_cli import TINY_MODEL, _config_file, _dataset
from test_evaluation import HAND_SCORED
from test_trainer import scalar_box
from gradcheck import check_gradients, relative_error, weighted_sum_loss
from translators import ScriptedTranslator

from qanet.attention import TrilinearWeights, context_query_attention
from qanet.augmentation import (extract_answer, mixed_sampler,
                                paraphrase_sentences)
from qanet.cli import main
from qanet.config import OptimizerConfig, PathsConfig, RunConfig
from qanet.data import (Vocabulary, build_batch, example_from_raw, tokenize)
from qanet.encoder import residual_sublayer, survival_probability
from qanet.evaluation import (evaluate, exact_match_score, f1_score,
                              metric_max_over_ground_truths)
from qanet.model import ModelConfig, init_model_params, model_loss, predict_all
from qanet.span import (SpanHeadParams, dp_span_inference, span_distributions,
                        span_logits)
import qanet.tensor
from qanet.tensor import (Tensor, add, backward, concat, dense,
                          depthwise_separable_conv1d, dropout_apply,
                          dropout_mask, embedding_lookup, gather_last,
                          layernorm, log_softmax, matmul, multiply,
                          reduce_sum, release, reshape,
                          scaled_dot_attention, softmax, subtract,
                          swap_last_axes)
from qanet.trainer import (adam_step, ema_update, init_train_state,
                           load_checkpoint, lr_schedule, new_run, train,
                           zero_grads)
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
_NOT_DIFFERENTIABLE = {"backward", "no_grad", "dropout_mask"}

# Graphs whose backward rebuilds what the tape dropped: a released output
# with three readers, a released lookup and dropout under a pooling conv, a
# released sum under a released layernorm, released attention projections
# of a released layernorm, and one set of conv kernels over two inputs.
_REQUIRED_CASES = {"release:layernorm_into_dense_matmul_conv",
                   "release:lookup_dropout_into_pooled_conv",
                   "release:add_into_layernorm_conv",
                   "release:layernorm_into_qkv_attention",
                   "depthwise_separable_conv1d:shared_kernels_two_inputs"}

# Every max pooled in the sweep leads its runner-up by more than this, so no
# finite-difference probe (``gradcheck.H`` on one input) moves an argmax.
_MAX_LEAD = 1e-3


def _clear_max(full: np.ndarray) -> None:
    """Check that each (row, channel) max of a conv output over positions
    leads the runner-up by more than ``_MAX_LEAD``."""
    top = np.sort(full, axis=1)
    lead = float((top[:, -1] - top[:, -2]).min())
    assert lead > _MAX_LEAD, f"a pooled max leads by {lead:.1e} only"


# Seeded draws of every sweep case; each draw makes fresh inputs, weights,
# dropout masks, lookup ids and attention key masks.
_SWEEP_DRAWS = 20


def _sweep_cases(rng):
    """``(name, tolerance, inputs, loss)`` for every differentiable operation.

    Case names are ``op`` or ``op:variant``; every public function of
    qanet.tensor outside _NOT_DIFFERENTIABLE must own at least one case.
    The tolerance bounds the relative error of each input's gradient.
    """
    cases = []

    def case(name, tol, arrays, loss):
        cases.append((name, tol, arrays, loss))

    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal(4)
    w = rng.standard_normal((2, 3, 4))
    case("add", 1e-6, [a, b],
         lambda ts: weighted_sum_loss(add(ts[0], ts[1]), w))
    c = rng.standard_normal((3, 4))
    d = rng.standard_normal((3, 4))
    w2 = rng.standard_normal((3, 4))
    case("subtract", 1e-6, [c, d],
         lambda ts: weighted_sum_loss(subtract(ts[0], ts[1]), w2))
    case("multiply", 1e-6, [a.copy(), c.copy()],
         lambda ts: weighted_sum_loss(multiply(ts[0], ts[1]), w))
    # (c + b) * (c - d): one operand feeds two ops, one broadcasts.
    case("multiply:of_add_and_subtract", 1e-6, [c.copy(), d.copy(), b.copy()],
         lambda ts: weighted_sum_loss(
             multiply(add(ts[0], ts[2]), subtract(ts[0], ts[1])), w2))
    case("multiply:by_constant", 1e-7, [c.copy()],
         lambda ts: weighted_sum_loss(multiply(ts[0], Tensor(-1.7)), w2))
    m1 = rng.standard_normal((3, 4))
    m2 = rng.standard_normal((4, 5))
    wm = rng.standard_normal((3, 5))
    case("matmul", 1e-7, [m1, m2],
         lambda ts: weighted_sum_loss(matmul(ts[0], ts[1]), wm))
    b1 = rng.standard_normal((2, 3, 4))
    b2 = rng.standard_normal((2, 4, 5))
    wb = rng.standard_normal((2, 3, 5))
    case("matmul:batched", 1e-7, [b1, b2],
         lambda ts: weighted_sum_loss(matmul(ts[0], ts[1]), wb))
    case("matmul:broadcast_2d", 1e-7, [b1.copy(), m2.copy()],
         lambda ts: weighted_sum_loss(matmul(ts[0], ts[1]), wb))

    # log_softmax's own input and weights; drawn here, so that no later
    # case's draws move.
    ls_x = np.stack([rng.standard_normal((3, 4)), rng.standard_normal((3, 4))])
    ls_w = rng.random((3, 4)) - 0.5
    # An all-ones mask leaves every slot usable; 0/1 masks with one wholly
    # masked slice give zero weight and zero gradient.
    last_mask = np.array([[[1, 0, 1, 1]], [[0, 0, 0, 0]]], dtype=np.float64)
    mid_mask = np.array([[1, 1, 0], [0, 1, 0]], dtype=np.float64)[:, :, None]
    for op, x, wts in ((softmax, a, w), (log_softmax, ls_x, ls_w)):
        every = np.ones(x.shape)
        for variant, axis, op_mask in (("last", -1, every), ("mid", -2, every),
                                       ("masked_last", -1, last_mask),
                                       ("masked_mid", -2, mid_mask)):
            case(f"{op.__name__}:{variant}", 1e-6, [x.copy()],
                 lambda ts, op=op, axis=axis, op_mask=op_mask, wts=wts:
                 weighted_sum_loss(op(ts[0], axis, op_mask), wts))
    gain = rng.standard_normal(4)
    bias = rng.standard_normal(4)
    case("layernorm", 1e-6, [a.copy(), gain, bias],
         lambda ts: weighted_sum_loss(layernorm(*ts), w))
    p1 = rng.standard_normal((2, 3))
    p2 = rng.standard_normal((2, 2))
    wc = rng.standard_normal((2, 5))
    case("concat", 1e-6, [p1, p2],
         lambda ts: weighted_sum_loss(concat(list(ts), -1), wc))
    wr = rng.standard_normal((6, 4))
    case("reshape", 1e-6, [a.copy()],
         lambda ts: weighted_sum_loss(reshape(ts[0], (6, 4)), wr))
    wt = rng.standard_normal((2, 4, 3))
    case("swap_last_axes", 1e-6, [a.copy()],
         lambda ts: weighted_sum_loss(swap_last_axes(ts[0]), wt))
    wcat = rng.standard_normal((2, 5, 2))

    def stacked(ts):  # a tensor used twice along the leading axis
        cat = concat([ts[0], ts[1]], axis=1)  # (2, 5)
        cube = reshape(concat([cat, cat], axis=0), (2, 2, 5))
        return weighted_sum_loss(swap_last_axes(cube), wcat)

    case("concat:leading_then_reshape_swap", 1e-6, [p1.copy(), p2.copy()], stacked)
    case("reduce_sum", 1e-7, [c.copy()], lambda ts: reduce_sum(ts[0]))
    pool_x = (rng.permutation(24).astype(np.float64) * 0.1).reshape(2, 3, 4)
    pool_w = rng.standard_normal((2, 4))
    # The max-pool case's kernels come after every other case's draws, so
    # adding its cases moved none of them.
    table = rng.standard_normal((7, 4))
    ids = rng.integers(0, 7, size=(3, 4))  # 12 ids in 7 rows: some repeat
    we = rng.standard_normal((3, 4, 4))
    case("embedding_lookup", 1e-6, [table],
         lambda ts: weighted_sum_loss(embedding_lookup(ts[0], ids), we))
    gx = rng.standard_normal((3, 6))
    gids = rng.integers(0, 6, size=3)
    wg = rng.standard_normal(3)
    case("gather_last", 1e-6, [gx],
         lambda ts: weighted_sum_loss(gather_last(ts[0], gids), wg))
    mask = dropout_mask(rng, (3, 4), 0.5)
    case("dropout_apply", 1e-6, [c.copy()],
         lambda ts: weighted_sum_loss(dropout_apply(ts[0], mask), w2))
    cx = rng.standard_normal((2, 6, 4))
    dk = rng.standard_normal((5, 4)) * 0.5
    pk = rng.standard_normal((4, 3)) * 0.5
    cb = rng.standard_normal(3) * 0.1
    wcv = rng.standard_normal((2, 6, 3))
    case("depthwise_separable_conv1d", 1e-6, [cx, dk, pk, cb],
         lambda ts: weighted_sum_loss(depthwise_separable_conv1d(*ts), wcv))
    # Two heads of width 3; key mask 0 on padded keys.
    qkv = [rng.standard_normal((2, 4, 6)) for _ in range(3)]
    wa = rng.standard_normal((2, 4, 6))
    padded = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.float64)
    case("scaled_dot_attention:batched_padded", 1e-6, qkv,
         lambda ts: weighted_sum_loss(scaled_dot_attention(*ts, 2, padded), wa))
    case("scaled_dot_attention:single", 1e-6, [a[:1] for a in qkv],
         lambda ts: weighted_sum_loss(scaled_dot_attention(*ts, 2, np.ones((1, 4))), wa[:1]))

    def blocked(ts):  # a budget below one head's weights: one head per block
        budget, qanet.tensor._BLOCK_BYTES = qanet.tensor._BLOCK_BYTES, 1
        try:  # the record keeps its blocks, so backward walks the same ones
            out = scaled_dot_attention(*ts, 2, padded)
        finally:
            qanet.tensor._BLOCK_BYTES = budget
        return weighted_sum_loss(out, wa)

    case("scaled_dot_attention:blocked_padded", 1e-6, [a.copy() for a in qkv], blocked)
    lone = np.array([[1, 0, 0, 0], [1, 1, 1, 1]], dtype=np.float64)
    case("scaled_dot_attention:one_real_key", 1e-6, [a.copy() for a in qkv],
         lambda ts: weighted_sum_loss(scaled_dot_attention(*ts, 2, lone), wa))
    # Three heads of width 2 over fewer keys than queries, the key mask drawn.
    kv = [rng.standard_normal((2, 3, 6)) for _ in range(2)]
    drawn = (rng.random((2, 3)) < 0.6).astype(np.float64)
    drawn[:, 0] = 1.0
    # Every row keeps two keys or more: with one, its weights are exactly
    # one-hot and its q and k gradients rounding noise (see _one_key_rows).
    drawn[drawn.sum(axis=1) < 2, 1] = 1.0
    case("scaled_dot_attention:drawn_mask", 1e-6, [qkv[0].copy()] + kv,
         lambda ts: weighted_sum_loss(scaled_dot_attention(*ts, 3, drawn), wa))
    dx = rng.standard_normal((2, 3, 4))
    dw = rng.standard_normal((4, 5))
    db = rng.standard_normal(5)
    wd = rng.standard_normal((2, 3, 5))
    case("dense:batched", 1e-6, [dx, dw, db],
         lambda ts: weighted_sum_loss(dense(*ts), wd))
    case("dense:single", 1e-6, [dx[0], dw.copy(), db.copy()],
         lambda ts: weighted_sum_loss(dense(*ts), wd[0]))
    # A padded batch whose first row has no padding, then one padded row alone.
    mx = rng.standard_normal((3, 6, 4))
    rows = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 0, 0],
                     [1, 1, 0, 0, 0, 0]], dtype=np.float64)
    wmc = rng.standard_normal((3, 6, 3))
    case("depthwise_separable_conv1d:masked", 1e-6,
         [mx, dk.copy(), pk.copy(), cb.copy()],
         lambda ts: weighted_sum_loss(depthwise_separable_conv1d(*ts, mask=rows), wmc))
    case("depthwise_separable_conv1d:masked_one_row", 1e-6,
         [mx[1:2], dk.copy(), pk.copy(), cb.copy()],
         lambda ts: weighted_sum_loss(
             depthwise_separable_conv1d(*ts, mask=rows[1:2]), wmc[1:2]))
    # Residual-and-dropout epilogues; the residual is the last input.
    res = rng.standard_normal((2, 3, 5))
    drop = dropout_mask(rng, (2, 3, 5), 0.3)
    case("dense:epilogue_batched", 1e-6, [dx, dw, db, res],
         lambda ts: weighted_sum_loss(dense(*ts[:3], residual=ts[3], dropout=drop), wd))
    case("dense:epilogue_single", 1e-6, [dx[0], dw, db, res[0]],
         lambda ts: weighted_sum_loss(dense(
             *ts[:3], residual=ts[3], dropout=drop._replace(keep=drop.keep[0])), wd[0]))
    cres = rng.standard_normal((3, 6, 3))
    cdrop = dropout_mask(rng, (3, 6, 3), 0.3)
    case("depthwise_separable_conv1d:epilogue_padded", 1e-6, [mx, dk, pk, cb, cres],
         lambda ts: weighted_sum_loss(depthwise_separable_conv1d(
             *ts[:4], mask=rows, residual=ts[4], dropout=cdrop), wmc))
    case("depthwise_separable_conv1d:epilogue_one_row", 1e-6,
         [mx[1:2], dk, pk, cb, cres[1:2]],
         lambda ts: weighted_sum_loss(depthwise_separable_conv1d(
             *ts[:4], residual=ts[4], dropout=cdrop._replace(keep=cdrop.keep[1:2])),
             wmc[1:2]))
    # The embedding encoder's shape: one set of kernels convolves a context and
    # a question of another length in one graph; each record rebuilds its
    # depthwise output from its own input.
    qx = rng.standard_normal((3, 4, 4))
    wqc = rng.standard_normal((3, 4, 3))
    case("depthwise_separable_conv1d:shared_kernels_two_inputs", 1e-6,
         [mx.copy(), qx, dk.copy(), pk.copy(), cb.copy()],
         lambda ts: add(
             weighted_sum_loss(depthwise_separable_conv1d(ts[0], *ts[2:], mask=rows), wmc),
             weighted_sum_loss(depthwise_separable_conv1d(*ts[1:], mask=rows[:, :4]), wqc)))
    # layernorm(conv(x W)) squeezed through softmax: mixed second derivatives.
    chain = [rng.standard_normal(shape) for shape in
             ((1, 4, 3), (3, 4), (3, 4), (4, 4), (4,), (4,), (4,))]
    wch = rng.standard_normal((1, 4, 4))
    case("matmul:conv_layernorm_softmax_chain", 1e-6, chain,
         lambda ts: weighted_sum_loss(softmax(layernorm(depthwise_separable_conv1d(
             matmul(ts[0], ts[1]), *ts[2:5]), *ts[5:]), -1, np.ones(wch.shape)), wch))
    # The attention sublayer's shape: one layernorm output feeds dense, matmul
    # and the conv, and is dropped before backward, which rebuilds it.
    shared = [rng.standard_normal(shape) for shape in
              ((2, 5, 4), (4,), (4,), (4, 4), (4,), (4, 4), (3, 4), (4, 4), (4,))]
    wsh = rng.standard_normal((2, 5, 4))

    def released(ts):
        normed = layernorm(*ts[:3])
        out = add(add(dense(normed, *ts[3:5]), matmul(normed, ts[5])),
                  depthwise_separable_conv1d(normed, *ts[6:]))
        release(normed)
        return weighted_sum_loss(out, wsh)

    case("release:layernorm_into_dense_matmul_conv", 1e-6, shared, released)
    # Max pooling over positions: the char embedding's conv, which takes no
    # mask; then that conv over a char lookup and dropout, both released
    # before backward, which rebuilds them.
    kernels = [rng.standard_normal((3, 4)), rng.standard_normal((4, 4)) * 0.5,
               rng.standard_normal(4) * 0.1]
    _clear_max(depthwise_separable_conv1d(*map(Tensor, [pool_x] + kernels)).data)
    case("depthwise_separable_conv1d:max_pool", 1e-6, [pool_x] + kernels,
         lambda ts: weighted_sum_loss(depthwise_separable_conv1d(*ts, pool=True), pool_w))
    char_ids = rng.integers(0, 7, size=(3, 6))  # rows of the sweep's (7, 4) table
    char_drop = dropout_mask(rng, (3, 6, 4), 0.3)
    wcp = rng.standard_normal((3, 4))
    dropped = table[char_ids] * char_drop.scale * char_drop.keep
    _clear_max(depthwise_separable_conv1d(*map(Tensor, [dropped] + kernels)).data)

    def char_path(ts):
        looked = embedding_lookup(ts[0], char_ids)
        dropped = dropout_apply(looked, char_drop)
        pooled = depthwise_separable_conv1d(dropped, *ts[1:], pool=True)
        release(dropped)
        release(looked)
        return weighted_sum_loss(pooled, wcp)

    case("release:lookup_dropout_into_pooled_conv", 1e-6,
         [table.copy()] + [k.copy() for k in kernels], char_path)
    # Activation epilogues of dense. relu's loss ignores pre-activations
    # within 0.1 of its kink, so no probe crosses it where it counts; the
    # pre-activations take both signs, so both of sigmoid's branches run.
    ax, aw, ab = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)
    wact = rng.standard_normal((2, 3, 5))
    pre = ax @ aw + ab
    assert (pre[0] > 0).any() and (pre[0] < 0).any()
    off_kink = np.where(np.abs(pre) > 0.1, wact, 0.0)
    for act, wts in (("relu", off_kink), ("sigmoid", wact)):
        case(f"dense:{act}_batched", 1e-6, [ax.copy(), aw.copy(), ab.copy()],
             lambda ts, act=act, wts=wts: weighted_sum_loss(dense(*ts, activation=act), wts))
        case(f"dense:{act}_single", 1e-6, [ax[0].copy(), aw.copy(), ab.copy()],
             lambda ts, act=act, wts=wts: weighted_sum_loss(dense(*ts, activation=act), wts[0]))
    # An encoder block's first sublayer: x plus a constant signal feeds a
    # layernorm and is the conv's residual. The sum and the layernorm output
    # are both dropped before backward, which rebuilds the sum from x, then
    # the layernorm output from the sum. Drawn after every case above, so no
    # other draw moves.
    bx = rng.standard_normal((2, 5, 4))
    signal = Tensor(rng.standard_normal((5, 4)))
    block_ln = [rng.standard_normal(4), rng.standard_normal(4)]
    block_kernels = [rng.standard_normal((3, 4)), rng.standard_normal((4, 4)) * 0.5,
                     rng.standard_normal(4) * 0.1]
    block_drop = dropout_mask(rng, (2, 5, 4), 0.3)
    wbl = rng.standard_normal((2, 5, 4))

    def block_start(ts):
        summed = add(ts[0], signal)
        normed = layernorm(summed, *ts[1:3])
        out = depthwise_separable_conv1d(normed, *ts[3:], mask=rows[1:, :5],
                                         residual=summed, dropout=block_drop)
        release(normed)
        release(summed)
        return weighted_sum_loss(out, wbl)

    case("release:add_into_layernorm_conv", 1e-6, [bx] + block_ln + block_kernels,
         block_start)
    # The attention sublayer's projections: one layernorm output feeds dense
    # q, matmul k and dense v, which meet in attention under a key mask with
    # padded keys. All four are dropped before backward, which rebuilds q, k
    # and v from the layernorm output it rebuilds. Drawn after the block
    # case, so no other draw moves.
    proj = [rng.standard_normal(shape) for shape in
            ((2, 5, 4), (4,), (4,), (4, 4), (4,), (4, 4), (4, 4), (4,))]
    wpr = rng.standard_normal((2, 5, 4))

    def projections(ts):
        normed = layernorm(*ts[:3])
        q, k, v = dense(normed, *ts[3:5]), matmul(normed, ts[5]), dense(normed, *ts[6:])
        out = scaled_dot_attention(q, k, v, 2, rows[1:, :5])
        for t in (normed, q, k, v):
            release(t)
        return weighted_sum_loss(out, wpr)

    case("release:layernorm_into_qkv_attention", 1e-6, proj, projections)
    return cases


def _op_sweep(seed):
    """Every sweep case over ``_SWEEP_DRAWS`` seeded draws, each within its
    tolerance."""
    draws = [_sweep_cases(np.random.default_rng(s))
             for s in np.random.SeedSequence(seed).spawn(_SWEEP_DRAWS)]
    names = {name for name, _, _, _ in draws[0]}
    swept = {name.split(":")[0] for name in names}
    ops = {name for name in qanet.tensor.__all__
           if not isinstance(getattr(qanet.tensor, name), type)}
    unswept = sorted(ops - _NOT_DIFFERENTIABLE - swept)
    assert not unswept, f"differentiable ops without a sweep case: {unswept}"
    missing = sorted(_REQUIRED_CASES - names)
    assert not missing, f"sweep cases a tape rebuild relies on are gone: {missing}"
    for draw, cases in enumerate(draws):
        for name, tol, arrays, loss in cases:
            worst = check_gradients(loss, arrays, tol=np.inf)
            assert worst < tol, f"{name}, draw {draw}: rel err {worst:.2e} >= {tol:.0e}"


def _one_key_rows(seed):
    """Attention whose rows keep key 0 alone, over ``_SWEEP_DRAWS`` draws.

    Each query's weights are exactly one-hot, so its output is v's first
    row: v's gradient must match finite differences, and q and k move
    nothing. The masked keys' gradients are exactly zero. The rest are
    rounding noise, as ``dP - rowsum(dO * O)`` subtracts two sums of the
    same products formed by different routines; a relative error would
    read that noise against the finite differences' own.
    """
    lone_key = np.zeros((2, 3))
    lone_key[:, 0] = 1.0
    for s in np.random.SeedSequence(seed).spawn(_SWEEP_DRAWS):
        rng = np.random.default_rng(s)
        q, k, v = (rng.standard_normal(shape) for shape in ((2, 4, 6), (2, 3, 6), (2, 3, 6)))
        weights = rng.standard_normal((2, 4, 6))

        def loss(ts):
            return weighted_sum_loss(scaled_dot_attention(*ts, 3, lone_key), weights)

        leaves = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        backward(loss(leaves))
        assert not np.any(leaves[1].grad[:, 1:]), "a masked key got a gradient"
        noise = max(np.abs(leaves[0].grad).max(), np.abs(leaves[1].grad).max())
        assert noise < 1e-13, f"q or k gradient {noise:.1e} beyond rounding"
        worst = check_gradients(loss, [q, k, v], tol=np.inf, check=[2])
        assert worst < 1e-6, f"one key per row: v's rel err {worst:.2e}"


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
        _op_sweep(5)
        _one_key_rows(5)
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
            for p in span_distributions(span_logits(M[0], M[1], M[2], head.w1, head.w2,
                                                    c_mask[None, :])):
                p = p.data
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
        got = extract_answer(words, answer, threshold=0.5)
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
        got = paraphrase_sentences([s], ScriptedTranslator(script), k=5)[0]
        assert len(got) == 25, len(got)
        assert paraphrase_sentences([s], ScriptedTranslator(), k=5)[0] == []
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
        run = RunConfig(model=config, optimizer=opt, seed=1, log_every=100,
                        paths=PathsConfig(out_dir=str(tmp_path / "overfit")))
        params, state = new_run(config, vocab, matrix, seed=1)
        result = train(examples, vocab, params, state, run)
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
        norm = SimpleNamespace(ln_gain=Tensor(np.ones(3)), ln_bias=Tensor(np.zeros(3)))
        for p in (0.9, 0.95, 1.0):
            rng = np.random.default_rng(int(p * 1000))
            kept = 0
            for _ in range(10_000):
                calls = []
                def f(y, params, residual, mask):
                    calls.append(1)
                    return y
                residual_sublayer(x, f, norm, survival_prob=p, rng=rng)
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
        stream = mixed_sampler(pools, (3.0, 1.0, 1.0), seed=80)
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
            argv = ["train", "--config", cfg, "--set", f"seed={seed}"]
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
            assert lr_schedule(step, 0.001, 1000) == 0.001, step
        assert lr_schedule(999, 0.001, 1000) < 0.001

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

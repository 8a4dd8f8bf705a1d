"""The measured process of one benchmark run.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread, after it has written the inputs and, for augment_http, started the
stub translator. The process sets up the program several times, warms up
until its peak RSS stops growing, runs closed-loop operations for the
stated number of seconds with set-ups between the operations, checks
every output, and prints two JSON lines: run facts, then the result.

Every call into the program goes through a module attribute
(``data.parse_qa_json``, never a name imported from it), so the traced run
sees the harness's own calls as well as the calls the program makes.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import urllib.request
from collections import defaultdict

import numpy as np
from qanet import augmentation, data, embedding, encoder, evaluation, model, tensor, trainer

from spans import TracedEndpoint, Tracer

# Set-ups after every timed operation, outside its timing. Spread over the
# whole timed phase, they meet the same slow and fast stretches of the host
# as the operations do. A fixed count per op keeps the allocation sequence,
# and with it the heap layout and peak RSS, the same from run to run.
SETUPS_PER_OP = {"train_desk": 2, "predict_paper": 2, "augment_http": 1}
WARMUP_MIN_OPS = 2
WARMUP_MAX_OPS = 5
WARMUP_RSS_GROWTH = 0.02
DIGEST_OPS = 4
MIB = 1024.0 * 1024.0
# The traced run records every other op and lets the rest pass through
# untraced. Recorded ops, layer self times and remainder summed, must take
# within this share of the untraced ops' mean latency.
TRACE_TOLERANCE = 0.3

# op_s_tail is the highest percentile with at least ten samples beyond it
# at the full run length: 100 * (1 - 10 / ops), rounded down, for 28, 26
# and 28 ops, fewer than most 30-second runs complete on a shared 2-core
# x86 box (numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
TAIL_PERCENTILE = {"train_desk": 64, "predict_paper": 61, "augment_http": 64}


def _seed_rng(*parts):
    return np.random.default_rng(np.random.SeedSequence(list(parts)))


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def code_digest() -> str:
    """Hash of the program's sources, so that only runs of the same code
    compare their outputs."""
    digest = hashlib.sha256()
    package = os.path.dirname(os.path.abspath(data.__file__))
    for path in sorted(glob.glob(os.path.join(package, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, package).encode("utf-8"))
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_span_by_enumeration(p1, p2, max_len: int) -> tuple[int, int]:
    """argmax of p1[s] * p2[e] over s <= e < s + max_len, first in (s, e)
    order, by scoring every pair."""
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    n = p1.shape[0]
    s, e = np.indices((n, n))
    scores = np.where((s <= e) & (e < s + max_len), np.outer(p1, p2), -np.inf)
    flat = int(np.argmax(scores))
    return flat // n, flat % n


def decodes_match(calls, preds) -> bool:
    """One captured decode per prediction, each equal to enumeration."""
    return len(calls) == len(preds) and all(
        best_span_by_enumeration(p1, p2, max_len) == (pred.start, pred.end)
        for (p1, p2, max_len, _), pred in zip(calls, preds))


def answers_in_place(path: str) -> bool:
    """Every written answer sits at its answer_start; ids are unique."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ids = []
    for article in doc["data"]:
        for paragraph in article["paragraphs"]:
            context = paragraph["context"]
            for qa in paragraph["qas"]:
                ids.append(qa["id"])
                for answer in qa["answers"]:
                    lo = answer["answer_start"]
                    if context[lo:lo + len(answer["text"])] != answer["text"]:
                        return False
    return len(ids) == len(set(ids))


class _DecodeCapture:
    """Records the inputs and result of every span decode of one batch, so
    that the check can redo the decode by enumeration."""

    def __init__(self):
        self.calls = []
        self.original = getattr(model, "dp_span_inference", None)
        if self.original is not None:
            model.dp_span_inference = self

    def __call__(self, *args, **kwargs):
        out = self.original(*args, **kwargs)
        max_len = kwargs.get("max_len", args[2] if len(args) > 2 else 30)
        self.calls.append((np.array(args[0]), np.array(args[1]), max_len, out))
        return out


class TrainDesk:
    """Closed-loop training steps at the desk shape."""

    def __init__(self, spec, seed, out_dir, stub_url):
        self.spec = spec
        self.seed = seed
        self.out_dir = out_dir
        self.config = model.ModelConfig(**spec["model"])
        self.opt = trainer.OptimizerConfig(batch_size=spec["batch_size"])
        self.losses = []

    def setup(self):
        cfg = self.config
        examples = data.parse_qa_json(
            self.spec["files"]["train"], split="train",
            max_context_len=cfg.max_context_len, max_answer_len=cfg.max_answer_len)
        vocab, matrix = data.load_word_vectors(self.spec["files"]["vectors"],
                                               cfg.word_dim, seed=self.seed)
        params = model.init_model_params(cfg, matrix, len(vocab.chars),
                                         _seed_rng(self.seed, 11))
        state = trainer.init_train_state(params, self.seed)
        return {"examples": examples, "vocab": vocab, "params": params,
                "state": state, "epoch": None, "batches": None}

    def _batches(self, ctx, epoch):
        if ctx["epoch"] != epoch:
            ctx["batches"] = data.make_batches(
                ctx["examples"], ctx["vocab"], batch_size=self.opt.batch_size,
                seed=int(_seed_rng(self.seed, 101, epoch).integers(2**31)),
                char_limit=self.config.char_limit)
            ctx["epoch"] = epoch
        return ctx["batches"]

    def _step(self, ctx, batch, rng):
        params = ctx["params"]
        trainer.zero_grads(params)
        loss, _ = model.model_loss(params, self.config, batch,
                                   train_mode=True, rng=rng)
        tensor.backward(loss)
        trainer.adam_step(params, ctx["state"], self.opt)
        trainer.ema_update(ctx["state"], params, self.opt.ema_decay)
        return loss

    def cycle(self, ctx):
        return math.ceil(len(ctx["examples"]) / self.opt.batch_size)

    def warmup(self, ctx, w):
        # Largest contexts first: they set the peak the timed phase reuses.
        batches = sorted(self._batches(ctx, 0),
                         key=lambda b: -b.context_mask.shape[1])
        self._step(ctx, batches[w % len(batches)], _seed_rng(self.seed, 0x3A7, w))

    def op(self, ctx, i, tracer):
        per_epoch = math.ceil(len(ctx["examples"]) / self.opt.batch_size)
        batch = self._batches(ctx, i // per_epoch)[i % per_epoch]
        loss = self._step(ctx, batch, _seed_rng(self.seed, 7, i))
        if tracer is not None:
            tracer.count("positions", batch.context_mask.size)
            tracer.count("real_positions", float(batch.context_mask.sum()))
        value = float(loss.data)
        self.losses.append(value)
        # Steps of one make_batches bucket take about as long as each other.
        return batch.size, math.isfinite(value), loss, batch.context_mask.shape[1] // 32

    def finish(self, ctx):
        trainer.save_checkpoint(os.path.join(self.out_dir, "model.ckpt"),
                                ctx["params"], ctx["state"], self.config,
                                self.opt, ctx["vocab"])

    def digest(self):
        return self.losses[:DIGEST_OPS]


class PredictPaper:
    """Forward-only prediction at the paper shape, batches in file order."""

    def __init__(self, spec, seed, out_dir, stub_url):
        self.spec = spec
        self.batch_size = spec["batch_size"]
        self.capture = _DecodeCapture()
        self.scores = {}
        self.score_list = []

    def setup(self):
        params, state, cfg, _, vocab = trainer.load_checkpoint(
            self.spec["files"]["checkpoint"])
        examples = data.parse_qa_json(
            self.spec["files"]["dev"], split="eval",
            max_context_len=cfg.max_context_len, max_answer_len=cfg.max_answer_len)
        ema = contextlib.ExitStack()
        ema.enter_context(trainer.use_ema(params, state))
        return {"params": params, "config": cfg, "vocab": vocab,
                "examples": examples, "ema": ema}

    def cycle(self, ctx):
        return math.ceil(len(ctx["examples"]) / self.batch_size)

    def warmup(self, ctx, w):
        self._predict(ctx, w)

    def _predict(self, ctx, j):
        cfg = ctx["config"]
        chunks = math.ceil(len(ctx["examples"]) / self.batch_size)
        lo = (j % chunks) * self.batch_size
        chunk = ctx["examples"][lo:lo + self.batch_size]
        batch = data.build_batch(chunk, ctx["vocab"], char_limit=cfg.char_limit)
        self.capture.calls.clear()
        preds = model.predict_spans(ctx["params"], cfg, batch)
        predictions = {ex.id: model.span_text(ex, p.start, p.end)
                       for ex, p in zip(chunk, preds)}
        result = evaluation.evaluate(predictions, chunk)
        return j % chunks, batch, preds, (result.exact_match, result.f1)

    def op(self, ctx, i, tracer):
        j, batch, preds, score = self._predict(ctx, i)
        ok = decodes_match(self.capture.calls, preds)
        # The same batch must score the same every time it comes round.
        ok = ok and self.scores.setdefault(j, score) == score
        self.score_list.append(score)
        if tracer is not None:
            tracer.count("positions", batch.context_mask.size)
            tracer.count("real_positions", float(batch.context_mask.sum()))
        return batch.size, ok, None, j

    def finish(self, ctx):
        ctx["ema"].close()

    def digest(self):
        return self.score_list[:DIGEST_OPS]


class AugmentHttp:
    """augment_examples and write_squad_json over HTTP, one article per op."""

    def __init__(self, spec, seed, out_dir, stub_url):
        self.spec = spec
        self.seed = seed
        self.stub_url = stub_url
        self.path = os.path.join(out_dir, "augmented.json")
        self.hashes = []
        self.endpoints = None

    def _articles(self, path):
        examples = data.parse_qa_json(path, split="train")
        articles = {}
        for ex in examples:
            articles.setdefault(ex.id.split("-p")[0], []).append(ex)
        return list(articles.values())

    def setup(self):
        articles = self._articles(self.spec["files"]["input"])
        endpoints = {tag: augmentation.HttpTranslator(f"{self.stub_url}/{tag}")
                     for tag in ("fr", "de")}
        return {"articles": articles, "endpoints": endpoints}

    def cycle(self, ctx):
        return len(ctx["articles"])

    def _augment(self, endpoints, article):
        """Augment one article; return how many of its questions came back
        paraphrased through every pivot."""
        pools = augmentation.augment_examples(
            article, endpoints, k=self.spec["k"],
            threshold=self.spec["threshold"], seed=self.seed, copies=1)
        combined = [ex for tag in sorted(pools) for ex in pools[tag]]
        augmentation.write_squad_json(self.path, combined)
        made = {ex.id for ex in combined}
        return sum(all(f"{ex.id}-{tag}-1" in made for tag in endpoints)
                   for ex in article)

    def warmup(self, ctx, w):
        if "warm" not in ctx:
            ctx["warm"] = self._articles(self.spec["files"]["warmup"])[0]
        self._augment(ctx["endpoints"], ctx["warm"])

    def op(self, ctx, i, tracer):
        if self.endpoints is None:
            self.endpoints = ctx["endpoints"]
            if tracer is not None:
                self.endpoints = {tag: TracedEndpoint(ep, tracer)
                                  for tag, ep in ctx["endpoints"].items()}
        article = ctx["articles"][i % len(ctx["articles"])]
        done = self._augment(self.endpoints, article)
        ok = answers_in_place(self.path)
        if len(self.hashes) < DIGEST_OPS:
            with open(self.path, "rb") as fh:
                self.hashes.append(hashlib.sha256(fh.read()).hexdigest())
        return done, ok, None, 0  # every article has the same shape

    def finish(self, ctx):
        pass

    def digest(self):
        return self.hashes[:DIGEST_OPS]

    def client_calls(self):
        return sum(getattr(ep, "calls", 0) for ep in (self.endpoints or {}).values())

    def stub_stats(self):
        with urllib.request.urlopen(self.stub_url + "/stats", timeout=10) as resp:
            return json.load(resp)


WORKLOADS = {"train_desk": TrainDesk, "predict_paper": PredictPaper,
             "augment_http": AugmentHttp}


def install_tracer(tracer: Tracer, config: model.ModelConfig) -> None:
    emb_cfg = config.embedding_encoder()
    wrap = tracer.wrap
    wrap(model, "embed", "embedding.embed")
    wrap(model, "encoder_stack_forward",
         lambda args: "encoder.emb_stack" if args[1] == emb_cfg else "encoder.model_stack")
    wrap(model, "cq_attention_forward", "attention.cq")
    wrap(model, "span_distributions", "span.head")
    wrap(model, "span_loss", "span.head")
    wrap(model, "dp_span_inference", "span.decode")
    wrap(model, "model_forward", "model.forward")
    wrap(encoder, "multi_head_self_attention", "encoder.self_attn",
         after=tracer.remember_tape)
    wrap(encoder, "depthwise_separable_conv1d", "tensor.conv")
    wrap(embedding, "depthwise_separable_conv1d", "tensor.conv")
    wrap(tensor, "backward", "tensor.backward")
    wrap(trainer, "adam_step", "trainer.adam")
    wrap(trainer, "ema_update", "trainer.ema")
    wrap(trainer, "zero_grads", "trainer.zero_grads")
    wrap(trainer, "save_checkpoint", "trainer.checkpoint_save")
    wrap(trainer, "load_checkpoint", "trainer.checkpoint_load")
    wrap(data, "parse_qa_json", "data.parse")
    wrap(data, "load_word_vectors", "data.parse")
    wrap(data, "make_batches", "data.batch")
    wrap(data, "build_batch", "data.batch")
    wrap(evaluation, "evaluate", "evaluation.score")
    wrap(augmentation, "split_sentences", "augmentation.split")
    wrap(augmentation, "extract_answer", "augmentation.align",
         after=tracer.realigned)
    wrap(augmentation, "example_from_raw", "data.rebuild")
    wrap(augmentation, "write_squad_json", "augmentation.write")
    tracer.track_documents(augmentation, "paraphrase_document")


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": sys.version.split()[0], "numpy": np.__version__,
             "blas_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        facts["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        facts["openblas"] = None
    # numpy wheels ship OpenBLAS next to the package; ask it for its threads.
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in sorted(libs):
        so = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(so, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def _check_digest(state_dir, key, values) -> bool:
    """Compare this run's output digest with earlier runs of the same seed."""
    if len(values) < DIGEST_OPS:
        return True
    path = os.path.join(state_dir, "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    digest = _digest(values)
    if known.setdefault(key, digest) != digest:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    return True


def recorded(i: int, cycle: int) -> bool:
    """Whether the traced run records op ``i``. Recorded and unrecorded ops
    alternate and swap places each cycle of the input, so that both see
    every input equally often."""
    return (i % cycle + i // cycle) % 2 == 1


def accounted_share(ops, op_sums) -> float:
    """Layer self times plus the remainder of each recorded op, over the
    latency of the ops that ran past the same wrappers unrecorded.

    ``ops`` is [(latency, examples, recorded, shape)], where ops of one
    ``shape`` take about as long as each other; ``op_sums`` maps a recorded
    op's index to the sum of the self times of its spans. The means of the
    two kinds are compared shape by shape, over the shapes seen both ways,
    or over all ops if there are none.
    """
    by_shape = defaultdict(lambda: ([], []))
    for i, (latency, _, record, shape) in enumerate(ops):
        by_shape[shape][record].append(op_sums[i] if record else latency)
    groups = [g for g in by_shape.values() if all(g)]
    if not groups:
        groups = [tuple(sum(kind, []) for kind in zip(*by_shape.values()))]
    pairs = [(statistics.fmean(traced), statistics.fmean(untraced))
             for untraced, traced in groups]
    return sum(a for a, _ in pairs) / sum(b for _, b in pairs)


def run(args) -> tuple[dict, dict]:
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](spec, args.seed, args.out, args.stub_url)
    if tracer is not None:
        install_tracer(tracer, model.ModelConfig(**spec.get("model", {})))

    def phase(label, record=True):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.operation(label, record)

    # Cold set-up: first-touch costs, excluded from setup_s.
    with phase("cold"):
        ctx = workload.setup()
    rss = peak_rss_mib()
    warm = 0
    while warm < WARMUP_MAX_OPS:
        with phase(f"warm:{warm}"):
            workload.warmup(ctx, warm)
        warm += 1
        grown = peak_rss_mib()
        if warm >= WARMUP_MIN_OPS and grown - rss <= WARMUP_RSS_GROWTH * rss:
            break
        rss = grown
    ctx = None

    setup_times = []

    def set_up():
        t0 = time.perf_counter()
        with phase(f"setup:{len(setup_times)}"):
            made = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return made

    # Set up again on warm memory. The timed operations run on this state,
    # so they are the same whatever the warm-up took; the set-ups between
    # them are thrown away.
    ctx = set_up()
    cycle = workload.cycle(ctx)
    stub_before = workload.stub_stats() if tracer is not None and args.stub_url else None
    ops = []  # (latency, examples, recorded, shape)
    failed = 0
    paused = 0.0
    start = time.perf_counter()
    while True:
        i = len(ops)
        record = tracer is not None and recorded(i, cycle)
        t0 = time.perf_counter()
        root = None
        try:
            with phase(i, record):
                done, ok, root, shape = workload.op(ctx, i, tracer)
        except Exception:  # an op that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            done, ok, shape = 0, False, None
        t1 = time.perf_counter()
        if record:
            tracer.walk_tapes(root)
        root = None
        ops.append((t1 - t0, done, record, shape))
        failed += not ok
        if (t1 - start - paused >= args.seconds
                and (tracer is None or len({r for _, _, r, _ in ops}) == 2)):
            break
        for _ in range(SETUPS_PER_OP[args.workload]):
            set_up()
        paused += time.perf_counter() - t1
    # The timed phase without the tape walks and set-ups between its ops.
    wall = t1 - start - paused
    stub_after = workload.stub_stats() if stub_before is not None else None
    with phase("finish"):
        workload.finish(ctx)
    ctx = None

    key = f"{args.workload}/{spec.get('size')}/{args.seed}/{code_digest()}"
    if not _check_digest(args.state, key, workload.digest()):
        print(f"error: outputs of {key} differ from an earlier run", file=sys.stderr)
        failed += 1

    latencies = [t for t, _, _, _ in ops]
    examples = sum(n for _, n, _, _ in ops)
    tail = TAIL_PERCENTILE[args.workload]
    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "ops": len(ops), "ops_failed": failed, "examples": examples,
             "timed_s": wall, "warmup_ops": warm, "setup_reps": len(setup_times),
             "samples": {"ex_per_s": len(ops), "op_s_p50": len(ops),
                         "op_s_tail": len(ops), "peak_rss_mb": 1,
                         "setup_s": len(setup_times)},
             "op_s_tail_percentile": tail, "code": key.rsplit("/", 1)[1],
             "machine": machine_facts()}
    values = {"ex_per_s": examples / wall, "op_s_p50": statistics.median(latencies),
              "op_s_tail": float(np.percentile(latencies, tail)),
              "peak_rss_mb": peak_rss_mib(), "setup_s": statistics.median(setup_times)}
    if tracer is not None:
        tracer.unwrap_all()
        values, op_sums = layer_metrics(tracer, stub_before, stub_after, len(ops),
                                        workload.client_calls() if args.stub_url else 0)
        for prefix, kind in (("trace.", True), ("trace.untraced_", False)):
            part = [(t, n) for t, n, r, _ in ops if r == kind]
            values[prefix + "ex_per_s"] = sum(n for _, n in part) / sum(t for t, _ in part)
        values["trace.untraced_op_s_p50"] = statistics.median(
            t for t, _, r, _ in ops if not r)
        share = accounted_share(ops, op_sums)
        facts["trace_accounted_share"] = share
        if abs(share - 1.0) > TRACE_TOLERANCE:
            print(f"error: the spans of traced ops add up to {share:.3f} times "
                  "the untraced op time", file=sys.stderr)
            failed += 1
        facts["missing"] = tracer.missing
        facts["ops_failed"] = failed
        facts["samples"] = {"trace.op_s_p50": sum(r for _, _, r, _ in ops),
                            "trace.untraced_op_s_p50": sum(not r for _, _, r, _ in ops)}
        os.makedirs(os.path.join(args.state, "traces"), exist_ok=True)
        tracer.dump(os.path.join(args.state, "traces",
                                 f"{args.workload}-s{args.seed}.jsonl"))
    return facts, {"values": values, "attempted": len(ops), "failed": failed}


def layer_metrics(tracer, stub_before, stub_after, all_ops, client_calls) -> dict:
    per_op, phases, op_sums = tracer.layer_seconds()
    n = max(len(op_sums), 1)
    counts = tracer.counts

    def share(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    def setup_median(name):
        reps = [labels.get(name, 0.0) for label, labels in phases.items()
                if label.startswith("setup:")]
        return statistics.median(reps) if reps else 0.0

    out = {f"{name}_s": per_op.get(name, 0.0) for name in (
        "encoder.self_attn", "encoder.model_stack", "encoder.emb_stack",
        "tensor.conv", "tensor.backward", "embedding.embed", "attention.cq",
        "span.head", "span.decode", "trainer.adam", "trainer.ema",
        "trainer.zero_grads", "data.batch", "evaluation.score",
        "augmentation.translate", "augmentation.align", "augmentation.split",
        "augmentation.write", "data.rebuild")}
    out["model.forward_self_s"] = per_op.get("model.forward", 0.0)
    out["trace.remainder_s"] = per_op.get("op", 0.0)
    out["trace.op_s_p50"] = statistics.median(op_sums.values()) if op_sums else 0.0
    out["encoder.self_attn_tape_mb"] = counts["self_attn_bytes"] / n / MIB
    out["tensor.tape_ops"] = counts["tape_ops"] / n
    out["tensor.tape_mb"] = counts["tape_bytes"] / n / MIB
    out["trainer.checkpoint_save_s"] = phases.get("finish", {}).get("trainer.checkpoint_save", 0.0)
    out["trainer.checkpoint_load_s"] = setup_median("trainer.checkpoint_load")
    out["data.parse_s"] = setup_median("data.parse")
    out["data.pad_share"] = 1.0 - share("real_positions", "positions") if counts["positions"] else 0.0
    out["augmentation.requests_per_doc"] = share("requests", "documents")
    out["augmentation.texts_per_request"] = share("texts", "requests")
    out["augmentation.repeat_text_share"] = share("repeat_texts", "texts")
    out["augmentation.kept_share"] = share("align_kept", "align_calls")
    out["augmentation.fallback_share"] = share("documents_fallback", "documents")
    server = retries = 0.0
    if stub_before is not None:
        # The stub serves recorded and unrecorded ops alike.
        server = (stub_after["service_s"] - stub_before["service_s"]) / all_ops
        retries = max(0.0, stub_after["requests"] - stub_before["requests"] - client_calls)
    out["augmentation.server_s"] = server
    out["augmentation.transport_s"] = out["augmentation.translate_s"] - server
    out["augmentation.retries"] = retries
    out["trace.missing_names"] = float(len(tracer.missing))
    return out, op_sums


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="working directory of this run")
    parser.add_argument("--state", required=True, help="directory kept across runs")
    parser.add_argument("--stub-url", default="")
    args = parser.parse_args(argv)
    facts, result = run(args)
    print(json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

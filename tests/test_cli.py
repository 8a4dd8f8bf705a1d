"""Config plumbing and end-to-end command-line flows on tiny fixtures."""
import json
import os
import re
import shutil
import socket
import subprocess
import sys

import numpy as np
import pytest

from qanet.augmentation import (RuleTranslator, augment_examples,
                                 write_squad_json)
import qanet.cli
from qanet.cli import main
from qanet.config import (
    AugmentationConfig,
    RunConfig,
    UnknownConfigKey,
    from_flat,
    load_run_config,
    parse_override,
    to_flat,
)
from qanet.data import Vocabulary, parse_qa_json
import qanet.trainer
from qanet.trainer import CHECKPOINT_VERSION, new_run, train

SRC_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")

TINY_MODEL = {
    "model.hidden_dim": 16, "model.num_heads": 2, "model.word_dim": 8,
    "model.char_dim": 6, "model.char_limit": 4, "model.char_kernel": 3,
    "model.emb_enc_convs": 2, "model.emb_enc_kernel": 5,
    "model.model_enc_blocks": 2, "model.model_enc_convs": 1,
    "model.model_enc_kernel": 5, "model.dropout": 0.0,
    "model.word_dropout": 0.0, "model.char_dropout": 0.0,
    "model.survival_end": 1.0, "model.max_context_len": 24,
    "model.max_answer_len": 5,
    "optimizer.batch_size": 4, "optimizer.total_steps": 4,
    "optimizer.warmup_steps": 2, "optimizer.target_lr": 0.005,
}


def _dataset(path, n=8):
    paragraphs = []
    for i in range(n):
        color = ["red", "blue", "green", "gray"][i % 4]
        year = 1900 + i
        context = (f"The big house number {i} was painted {color}. "
                   f"It was built in {year} by a famous team.")
        paragraphs.append({
            "context": context,
            "qas": [
                {"id": f"q{i}a", "question": f"What color was house {i}?",
                 "answers": [{"text": color,
                              "answer_start": context.index(color)}]},
                {"id": f"q{i}b", "question": f"When was house {i} built?",
                 "answers": [{"text": str(year),
                              "answer_start": context.index(str(year))}]},
            ],
        })
    doc = {"version": "1.1",
           "data": [{"title": "houses", "paragraphs": paragraphs}]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _as_version(checkpoint, path, version):
    """Write a copy of ``checkpoint`` to ``path`` whose header claims format
    ``version``; returns ``path`` as a string."""
    with open(checkpoint, "rb") as fh:
        raw = fh.read()
    split_at = raw.index(b"\n")
    header = json.loads(raw[:split_at])
    header["version"] = version
    path.write_bytes(json.dumps(header).encode("utf-8") + raw[split_at:])
    return str(path)


# Out-of-range model settings, each refused by ModelConfig by key name.
BAD_MODEL_VALUES = [
    ("dropout", 1.0), ("dropout", -0.1), ("word_dropout", 1.0),
    ("char_dropout", 1.5), ("survival_end", 0.0), ("survival_end", -0.5),
    ("survival_end", 1.5), ("num_heads", 0), ("max_answer_len", 0),
    ("hidden_dim", 0), ("hidden_dim", 9), ("word_dim", 0), ("char_dim", 0),
    ("char_limit", 0), ("char_kernel", -1), ("emb_enc_kernel", -3),
    ("model_enc_kernel", 0), ("max_context_len", 0), ("model_enc_blocks", -2),
    ("emb_enc_blocks", -1), ("emb_enc_convs", -1), ("model_enc_convs", -1),
    ("emb_enc_kernel", 4), ("model_enc_kernel", 6), ("char_kernel", 4),
    ("hidden_dim", 30),
]


def _config_file(path, data_path, out_dir, extra=None):
    flat = dict(TINY_MODEL)
    flat["paths.train_data"] = data_path
    flat["paths.out_dir"] = out_dir
    flat["log_every"] = 1
    flat.update(extra or {})
    path.write_text(json.dumps(flat), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Config plumbing


class TestConfig:
    def test_reference_defaults(self):
        cfg = RunConfig()
        assert cfg.model.hidden_dim == 128
        assert cfg.model.num_heads == 8
        assert cfg.model.emb_enc_kernel == 7
        assert cfg.model.model_enc_kernel == 5
        assert cfg.model.emb_enc_convs == 4
        assert cfg.model.model_enc_convs == 2
        assert cfg.model.emb_enc_blocks == 1
        assert cfg.model.model_enc_blocks == 7
        assert cfg.model.survival_end == 0.9
        assert (cfg.model.dropout, cfg.model.char_dropout,
                cfg.model.word_dropout) == (0.1, 0.05, 0.1)
        assert cfg.model.max_context_len == 400
        assert cfg.model.max_answer_len == 30
        opt = cfg.optimizer
        assert (opt.beta1, opt.beta2, opt.eps) == (0.8, 0.999, 1e-7)
        assert opt.weight_decay == 3e-7
        assert opt.warmup_steps == 1000
        assert opt.target_lr == 0.001
        assert opt.ema_decay == 0.9999
        assert opt.batch_size == 32
        assert cfg.augment.k == 5
        assert (cfg.augment.mix_orig, cfg.augment.mix_fr,
                cfg.augment.mix_de) == (3.0, 1.0, 1.0)

    def test_flat_round_trip(self):
        cfg = RunConfig()
        again = from_flat(to_flat(cfg))
        assert to_flat(again) == to_flat(cfg)

    def test_from_flat_overrides(self):
        cfg = from_flat({"model.hidden_dim": 64, "seed": 9,
                         "optimizer.batch_size": 8})
        assert cfg.model.hidden_dim == 64
        assert cfg.seed == 9
        assert cfg.optimizer.batch_size == 8
        assert cfg.model.num_heads == 8  # untouched default

    def test_layering_preserves_base(self):
        base = from_flat({"model.hidden_dim": 64})
        layered = from_flat({"optimizer.batch_size": 2}, base=base)
        assert layered.model.hidden_dim == 64
        assert layered.optimizer.batch_size == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownConfigKey, match="model.widht"):
            from_flat({"model.widht": 3})
        with pytest.raises(UnknownConfigKey, match="turbo"):
            from_flat({"turbo": True})

    def test_endpoint_keys_rejected(self):
        # qanet augment takes its endpoint from --translator-url or --mock
        # only, so config keys naming one would be silently ignored.
        for key, value in (("augment.translator_url", "http://x"),
                           ("augment.mock", True)):
            with pytest.raises(UnknownConfigKey, match=key):
                from_flat({key: value})

    def test_bad_value_names_section(self):
        with pytest.raises(ValueError, match="optimizer"):
            from_flat({"optimizer.beta1": 1.5})
        with pytest.raises(ValueError, match="model"):
            from_flat({"model.hidden_dim": 30})  # not divisible by heads

    @pytest.mark.parametrize("key,value", BAD_MODEL_VALUES)
    def test_bad_model_value_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"'model': {key} must"):
            from_flat({f"model.{key}": value})

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "seed must be an integer"),
        ("log_every", True, "log_every must be an integer"),
        ("seed", -1, "seed must be non-negative"),
        ("eval_every", -1, "eval_every must be non-negative"),
        ("checkpoint_every", -2, "checkpoint_every must be non-negative"),
        ("log_every", 0, "log_every must be at least 1"),
    ])
    def test_run_config_top_level_refusals_name_the_key(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RunConfig(**{key: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_flat({key: value})

    def test_augmentation_config_validation(self):
        with pytest.raises(ValueError, match="copies must be at least 1"):
            AugmentationConfig(copies=0)
        with pytest.raises(ValueError):
            AugmentationConfig(k=0)
        with pytest.raises(ValueError):
            AugmentationConfig(threshold=1.5)
        with pytest.raises(ValueError):
            AugmentationConfig(mix_orig=-1.0)

    def test_all_zero_mix_refused_without_augmented_paths(self):
        """An all-zero mix is refused by the config itself, with the
        sampler's message, whatever paths.augmented_* say."""
        zero = {"augment.mix_orig": 0, "augment.mix_fr": 0, "augment.mix_de": 0}
        with pytest.raises(ValueError, match="'augment': at least one mixing "
                                             "weight must be positive"):
            from_flat(zero)
        with pytest.raises(ValueError, match="mixing weights must be finite"):
            AugmentationConfig(mix_fr=float("inf"))

    def test_parse_override(self):
        assert parse_override("model.hidden_dim=64") == ("model.hidden_dim", 64)
        assert parse_override("paths.out_dir=runs/x") == ("paths.out_dir",
                                                          "runs/x")
        assert parse_override("augment.threshold=0.25") == \
            ("augment.threshold", 0.25)
        with pytest.raises(ValueError):
            parse_override("no-equals-sign")

    def test_load_rejects_non_object(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError):
            load_run_config(str(bad))
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{", encoding="utf-8")
        with pytest.raises(ValueError):
            load_run_config(str(garbled))

    def test_resolution_order(self, tmp_path, capsys):
        file_a = tmp_path / "a.json"
        file_a.write_text(json.dumps({"seed": 5}), encoding="utf-8")

        def resolved(*argv):
            args = qanet.cli.build_parser().parse_args(["bench", *argv])
            config = qanet.cli._resolved_config(args)
            return config, capsys.readouterr().err

        cfg, echo = resolved("--config", str(file_a))
        assert cfg.seed == 5 and echo.startswith(f"[config] source={file_a} ")
        cfg, echo = resolved()
        assert cfg.seed == 0 and echo.startswith("[config] source=defaults ")

    @pytest.mark.parametrize("argv", [
        ["train"], ["augment", "--data", "d.json", "--mock", "--out", "o.json"],
        ["bench", "--set", "model.max_context_len=3", "--set",
         "optimizer.batch_size=1", "--batches", "1"]],
        ids=["train", "augment", "bench"])
    def test_seed_flag_refused(self, argv, capsys):
        """The seed is a config key like any other: --set seed=N."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--seed", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# End-to-end command flows


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny training run shared by the command tests."""
    root = tmp_path_factory.mktemp("cliflow")
    data = _dataset(root / "data.json")
    out_dir = str(root / "run")
    cfg = _config_file(root / "cfg.json", data, out_dir)
    code = main(["train", "--config", cfg])
    assert code == 0
    return {"root": root, "data": data, "out_dir": out_dir, "config": cfg,
            "checkpoint": f"{out_dir}/model.ckpt"}


class TestTrainCommand:
    def test_artifacts_written(self, trained, capsys):
        out_dir = trained["out_dir"]
        with open(f"{out_dir}/metrics.jsonl", encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        steps = [r["step"] for r in records if "loss" in r]
        assert steps == [1, 2, 3, 4]
        assert all(np.isfinite(r["loss"]) for r in records if "loss" in r)
        with open(f"{out_dir}/config.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert stored["model.hidden_dim"] == 16
        import os
        assert os.path.exists(trained["checkpoint"])

    def test_missing_config_file(self, capsys):
        code = main(["train", "--config", "/no/such/config.json"])
        captured = capsys.readouterr()
        assert code != 0
        assert "/no/such/config.json" in captured.err

    def test_missing_train_data_flagged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TINY_MODEL)), encoding="utf-8")
        code = main(["train", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code != 0
        assert "train_data" in captured.err

    @pytest.mark.parametrize("key,value", BAD_MODEL_VALUES)
    def test_bad_model_value_exits_before_out_dir(self, trained, tmp_path,
                                                  capsys, key, value):
        out = tmp_path / "run"
        # The default 8 heads, under which the list's values are refused.
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra={"model.num_heads": 8})
        code = main(["train", "--config", cfg, "--set", f"model.{key}={value}"])
        assert code == 1
        assert f"{key} must" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dev", ["none", "no questions", "missing vectors",
                                     "missing checkpoint"])
    def test_eval_every_without_dev_data_exits_before_out_dir(
            self, trained, tmp_path, capsys, dev):
        """A dev evaluation period with no dev set is refused, not ignored,
        before a vector file or a --resume checkpoint is opened."""
        out, missing = tmp_path / "run", str(tmp_path / "absent.bin")
        extra, resume = {"eval_every": 2}, []
        if dev == "no questions":
            empty = tmp_path / "empty.json"
            empty.write_text('{"version": "1.1", "data": []}', encoding="utf-8")
            extra["paths.dev_data"] = str(empty)
        elif dev == "missing vectors":
            extra["paths.vectors"] = missing
        elif dev == "missing checkpoint":
            resume = ["--resume", missing]
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra=extra)
        assert main(["train", "--config", cfg] + resume) == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == "error: eval_every needs a paths.dev_data file with questions"
        assert not out.exists()

    def test_refused_run_writes_nothing(self, tmp_path, capsys):
        """A file whose every context is over model.max_context_len leaves
        nothing to train on; train refuses it before out_dir exists."""
        out = tmp_path / "run"
        data = _dataset(tmp_path / "data.json", n=1)
        cfg = _config_file(tmp_path / "cfg.json", data, str(out),
                           extra={"model.max_context_len": 3})
        assert main(["train", "--config", cfg]) == 1
        assert "error: empty training set" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("unread", ["vectors", "checkpoint"])
    def test_empty_weighted_pool_named_before_vectors_or_checkpoint(
            self, trained, tmp_path, capsys, unread):
        """Only paths.augmented_fr is set, so the de pool is empty under the
        default mix; the refusal names it before a missing vector file or
        --resume checkpoint is opened."""
        out, missing = tmp_path / "run", str(tmp_path / "absent.bin")
        extra = {"paths.augmented_fr": _dataset(tmp_path / "fr.json", n=2)}
        resume = ["--resume", missing] if unread == "checkpoint" else []
        if unread == "vectors":
            extra["paths.vectors"] = missing
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra=extra)
        assert main(["train", "--config", cfg] + resume) == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == "error: the de pool is empty but has mixing weight 0.200"
        assert not out.exists()

    def test_library_run_writes_the_cli_config_json(self, trained, tmp_path,
                                                    capsys):
        """train writes config.json itself, so a library run with the
        command's settings and seed records the same bytes."""
        out = tmp_path / "run"
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out))
        assert main(["train", "--config", cfg, "--set", "seed=6"]) == 0
        capsys.readouterr()
        written = (out / "config.json").read_bytes()
        shutil.rmtree(out)
        config = from_flat({"seed": 6}, base=load_run_config(cfg))
        examples = parse_qa_json(trained["data"], split="train")
        vocab = Vocabulary.from_words(
            [w for ex in examples for w in ex.context_tokens])
        matrix = np.zeros((len(vocab), config.model.word_dim))
        params, state = new_run(config.model, vocab, matrix, config.seed)
        train(examples, vocab, params, state, config)
        assert (out / "config.json").read_bytes() == written

    def test_eval_every_takes_dev_data_from_override(self, trained, tmp_path,
                                                     capsys):
        """The rule reads the merged config: a file's eval_every pairs with
        a --set paths.dev_data."""
        out = tmp_path / "run"
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra={"eval_every": 2})
        code = main(["train", "--config", cfg,
                     "--set", f"paths.dev_data={trained['data']}"])
        capsys.readouterr()
        assert code == 0
        with open(out / "metrics.jsonl", encoding="utf-8") as fh:
            assert [r["step"] for r in map(json.loads, fh) if "dev_em" in r] == [2, 4]

    def test_config_echo_on_stderr(self, trained, tmp_path, capsys):
        out = str(tmp_path / "echo-run")
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], out)
        code = main(["train", "--config", cfg, "--set", "seed=3"])
        captured = capsys.readouterr()
        assert code == 0
        line = [l for l in captured.err.splitlines() if l.startswith("[config]")]
        assert len(line) == 1
        assert '"seed": 3' in line[0]
        assert '"model.hidden_dim": 16' in line[0]

    def test_repeat_seed_identical_log(self, trained, tmp_path, capsys):
        logs = []
        for name in ("one", "two"):
            out = str(tmp_path / name)
            cfg = _config_file(tmp_path / f"{name}.json", trained["data"], out)
            assert main(["train", "--config", cfg, "--set", "seed=11"]) == 0
            with open(f"{out}/metrics.jsonl", "rb") as fh:
                logs.append(fh.read())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_resume_with_pools_and_new_seed_fails_untouched(self, trained,
                                                            tmp_path, capsys):
        """A resume with pools under another seed is refused and leaves the
        run as it was; under the checkpoint's seed it replays the full run."""
        pools = {"paths.augmented_fr": _dataset(tmp_path / "fr.json", n=4),
                 "paths.augmented_de": _dataset(tmp_path / "de.json", n=3),
                 "checkpoint_every": 1}
        split = tmp_path / "split"
        names = ("model.ckpt", "metrics.jsonl", "config.json")

        def run(name, steps, seed, resume=None):
            out = str(tmp_path / name)
            cfg = _config_file(tmp_path / f"{name}-{steps}.json",
                               trained["data"], out,
                               extra=dict(pools, **{"optimizer.total_steps": steps}))
            argv = ["train", "--config", cfg, "--set", f"seed={seed}"]
            if resume:
                argv += ["--resume", resume]
            return main(argv)

        assert run("full", 4, 7) == 0
        assert run("split", 2, 7) == 0
        before = {name: (split / name).read_bytes() for name in names}
        capsys.readouterr()
        assert run("split", 4, 8, resume=str(split / "model.ckpt")) == 1
        assert "seed (state 7, config 8)" in capsys.readouterr().err
        assert {name: (split / name).read_bytes() for name in names} == before
        assert run("split", 4, 7, resume=str(split / "model.ckpt")) == 0
        capsys.readouterr()
        assert ((split / "metrics.jsonl").read_bytes()
                == (tmp_path / "full" / "metrics.jsonl").read_bytes())

    def test_resume_drops_records_past_checkpoint(self, trained, tmp_path,
                                                  capsys):
        """A resume from an older checkpoint rewrites the later records."""
        extra = {"paths.dev_data": trained["data"], "eval_every": 2}

        def run(name, steps, resume=None):
            out = str(tmp_path / name)
            cfg = _config_file(tmp_path / f"{name}-{steps}.json",
                               trained["data"], out,
                               extra=dict(extra, **{"optimizer.total_steps": steps}))
            argv = ["train", "--config", cfg]
            if resume:
                argv += ["--resume", resume]
            assert main(argv) == 0
            with open(f"{out}/metrics.jsonl", "rb") as fh:
                return fh.read()

        full = run("full", 4)
        run("split", 2)
        ckpt = tmp_path / "split" / "model.ckpt"
        older = tmp_path / "step2.ckpt"
        older.write_bytes(ckpt.read_bytes())
        run("split", 3, resume=str(ckpt))
        resumed = run("split", 4, resume=str(older))
        capsys.readouterr()
        assert resumed == full

    def test_resume_skips_vector_file(self, trained, tmp_path, capsys):
        """Vocabulary and vectors come from the checkpoint on resume."""
        vectors = tmp_path / "vectors.txt"
        words = ["the", "big", "house", "was", "painted", "red", "blue"]
        rows = np.random.default_rng(5).standard_normal((len(words), 8))
        vectors.write_text("".join(
            w + " " + " ".join(f"{v:.6f}" for v in row) + "\n"
            for w, row in zip(words, rows)), encoding="utf-8")

        def run(name, steps, resume=None):
            out = str(tmp_path / name)
            cfg = _config_file(tmp_path / f"{name}-{steps}.json",
                               trained["data"], out,
                               extra={"paths.vectors": str(vectors),
                                      "optimizer.total_steps": steps})
            argv = ["train", "--config", cfg]
            if resume:
                argv += ["--resume", resume]
            assert main(argv) == 0
            with open(f"{out}/metrics.jsonl", "rb") as fh:
                return fh.read()

        full = run("full", 4)
        run("split", 2)
        vectors.unlink()
        resumed = run("split", 4, resume=str(tmp_path / "split" / "model.ckpt"))
        capsys.readouterr()
        assert resumed == full

    def test_resume_reads_checkpoint_header_once(self, trained, tmp_path,
                                                 capsys, monkeypatch):
        out = tmp_path / "run"
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra={"optimizer.total_steps": 2})
        assert main(["train", "--config", cfg]) == 0
        real, reads = qanet.trainer._read_header, []

        def counted(fh):
            reads.append(fh.name)
            return real(fh)

        monkeypatch.setattr(qanet.trainer, "_read_header", counted)
        ckpt = str(out / "model.ckpt")
        assert main(["train", "--config", cfg, "--set",
                     "optimizer.total_steps=3", "--resume", ckpt]) == 0
        capsys.readouterr()
        assert reads == [ckpt]

    def test_resume_with_other_seed_fails_untouched(self, trained, tmp_path,
                                                    capsys):
        """A seed other than the checkpoint's is refused like any other
        changed setting, not ignored."""
        out = tmp_path / "run"
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra={"optimizer.total_steps": 2})
        assert main(["train", "--config", cfg, "--set", "seed=7"]) == 0
        names = ("model.ckpt", "metrics.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        capsys.readouterr()
        code = main(["train", "--config", cfg, "--set", "seed=8", "--set",
                     "optimizer.total_steps=3",
                     "--resume", str(out / "model.ckpt")])
        err = capsys.readouterr().err
        assert code == 1
        assert "seed (state 7, config 8)" in err
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_resume_with_other_model_config_fails_untouched(self, trained,
                                                           tmp_path, capsys):
        """A resume may not swap the checkpoint's model settings in silently."""
        out = tmp_path / "run"
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra={"optimizer.total_steps": 2})
        assert main(["train", "--config", cfg]) == 0
        names = ("model.ckpt", "metrics.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        capsys.readouterr()
        code = main(["train", "--config", cfg, "--set", "model.hidden_dim=32",
                     "--set", "optimizer.total_steps=4",
                     "--resume", str(out / "model.ckpt")])
        err = capsys.readouterr().err
        assert code != 0
        assert "model.hidden_dim (checkpoint 16, run 32)" in err
        assert {name: (out / name).read_bytes() for name in names} == before

    def test_resume_from_other_version_fails_untouched(self, trained,
                                                       tmp_path, capsys):
        out = tmp_path / "run"
        cfg = _config_file(tmp_path / "cfg.json", trained["data"], str(out),
                           extra={"optimizer.total_steps": 2})
        assert main(["train", "--config", cfg]) == 0
        names = ("model.ckpt", "metrics.jsonl", "config.json")
        before = {name: (out / name).read_bytes() for name in names}
        for version in (1, 2, CHECKPOINT_VERSION + 1):
            other = _as_version(out / "model.ckpt", tmp_path / "other.ckpt",
                                version)
            capsys.readouterr()
            code = main(["train", "--config", cfg, "--set", "log_every=2",
                         "--resume", other])
            assert code == 1
            err = capsys.readouterr().err
            assert f"unsupported checkpoint version {version} in" in err
            assert "this build reads version 3" in err
            assert {name: (out / name).read_bytes() for name in names} == before

    def test_env_var_config_is_ignored(self, trained, tmp_path, capsys,
                                       monkeypatch):
        """Settings come from --config and --set alone; QANET_CONFIG is not
        read."""
        out = str(tmp_path / "env-run")
        cfg = _config_file(tmp_path / "env.json", trained["data"], out,
                           extra={"optimizer.total_steps": 1})
        monkeypatch.setenv("QANET_CONFIG", cfg)
        code = main(["train"])
        err = capsys.readouterr().err
        assert code == 1
        assert "[config] source=defaults " in err
        assert err.splitlines()[-1] == (
            "error: paths.train_data is required for training")
        assert not os.path.exists(out)


class TestPredictEvaluateCommands:
    def test_predict_writes_all_ids(self, trained, tmp_path, capsys):
        out = tmp_path / "preds.json"
        code = main(["predict", "--checkpoint", trained["checkpoint"],
                     "--data", trained["data"], "--out", str(out)])
        assert code == 0
        preds = json.loads(out.read_text(encoding="utf-8"))
        examples = parse_qa_json(trained["data"], split="eval")
        assert set(preds) == {ex.id for ex in examples}
        assert all(isinstance(v, str) for v in preds.values())

    def test_predict_deterministic(self, trained, tmp_path, capsys):
        outs = []
        for name in ("p1.json", "p2.json"):
            out = tmp_path / name
            assert main(["predict", "--checkpoint", trained["checkpoint"],
                         "--data", trained["data"], "--out", str(out)]) == 0
            outs.append(out.read_text(encoding="utf-8"))
        assert outs[0] == outs[1]

    def test_predict_rejects_question_without_token(self, trained, tmp_path,
                                                    capsys):
        with open(trained["data"], encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["data"][0]["paragraphs"][1]["qas"][0]["question"] = " "
        data = tmp_path / "blank.json"
        data.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "preds.json"
        code = main(["predict", "--checkpoint", trained["checkpoint"],
                     "--data", str(data), "--out", str(out)])
        assert code == 1
        assert "q1a: question has no token" in capsys.readouterr().err
        assert not out.exists()

    def test_predict_refuses_version_1_checkpoint(self, trained, tmp_path,
                                                 capsys):
        out = tmp_path / "preds.json"
        for version in (1, 2):
            old = _as_version(trained["checkpoint"], tmp_path / "old.ckpt", version)
            code = main(["predict", "--checkpoint", old, "--data", trained["data"],
                         "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert f"unsupported checkpoint version {version} in" in err
            assert "this build reads version 3" in err
            assert not out.exists()

    def test_predict_refuses_unknown_config_key(self, trained, tmp_path,
                                                capsys):
        with open(trained["checkpoint"], "rb") as fh:
            raw = fh.read()
        split_at = raw.index(b"\n")
        header = json.loads(raw[:split_at])
        header["model_config"]["compute_dtype"] = "float64"
        newer = tmp_path / "newer.ckpt"
        newer.write_bytes(json.dumps(header).encode("utf-8") + raw[split_at:])
        out = tmp_path / "preds.json"
        code = main(["predict", "--checkpoint", str(newer),
                     "--data", trained["data"], "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert (f"{newer}: model_config has keys this build does not know: "
                "compute_dtype") in err
        assert not out.exists()

    def test_corrupt_checkpoint_names_tensor(self, trained, tmp_path, capsys):
        with open(trained["checkpoint"], "rb") as fh:
            raw = fh.read()
        split_at = raw.index(b"\n")
        header = json.loads(raw[:split_at].decode("utf-8"))
        grown = 0
        for entry in header["tensors"]:
            if entry["name"] == "param.span.w1":
                grown = 2 * int(np.prod(entry["shape"]))
                entry["shape"] = [grown]
        assert grown
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(json.dumps(header).encode("utf-8") + b"\n" +
                        raw[split_at + 1:] + b"\x00" * (grown * 8))
        code = main(["predict", "--checkpoint", str(bad),
                     "--data", trained["data"],
                     "--out", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert code != 0
        assert "span.w1" in captured.err

    def test_evaluate_stdout_json(self, trained, tmp_path, capsys):
        preds_path = tmp_path / "preds.json"
        assert main(["predict", "--checkpoint", trained["checkpoint"],
                     "--data", trained["data"],
                     "--out", str(preds_path)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--pred", str(preds_path),
                     "--gold", trained["data"]])
        captured = capsys.readouterr()
        assert code == 0
        scores = json.loads(captured.out)
        assert set(scores) == {"exact_match", "f1"}
        assert 0.0 <= scores["exact_match"] <= scores["f1"] <= 100.0

    def test_evaluate_per_example(self, trained, tmp_path, capsys):
        preds_path = tmp_path / "preds.json"
        assert main(["predict", "--checkpoint", trained["checkpoint"],
                     "--data", trained["data"],
                     "--out", str(preds_path)]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--pred", str(preds_path),
                     "--gold", trained["data"], "--per-example"])
        captured = capsys.readouterr()
        assert code == 0
        scores = json.loads(captured.out)
        assert len(scores["per_example"]) == 16
        assert {"id", "em", "f1", "prediction", "golds"} <= \
            set(scores["per_example"][0])

    def test_evaluate_missing_id(self, trained, tmp_path, capsys):
        preds_path = tmp_path / "short.json"
        preds_path.write_text(json.dumps({"q0a": "red"}), encoding="utf-8")
        code = main(["evaluate", "--pred", str(preds_path),
                     "--gold", trained["data"]])
        captured = capsys.readouterr()
        assert code != 0
        assert "q0b" in captured.err or "q1a" in captured.err

    def test_evaluate_refuses_predictions_that_are_not_an_object(
            self, trained, tmp_path, capsys):
        preds_path = tmp_path / "list.json"
        preds_path.write_text(json.dumps(["red"]), encoding="utf-8")
        assert main(["evaluate", "--pred", str(preds_path),
                     "--gold", trained["data"]]) == 1
        assert (f"error: {preds_path}: expected a JSON object of id -> answer"
                in capsys.readouterr().err)

    def test_evaluate_known_scores(self, tmp_path, capsys):
        data = _dataset(tmp_path / "gold.json", n=2)
        examples = parse_qa_json(data, split="eval")
        preds = {}
        for ex in examples:
            preds[ex.id] = ex.gold_answers[0]
        # spoil one of four: em drops by 25, f1 loses its share too
        preds[examples[0].id] = "completely wrong span"
        pred_path = tmp_path / "p.json"
        pred_path.write_text(json.dumps(preds), encoding="utf-8")
        assert main(["evaluate", "--pred", str(pred_path),
                     "--gold", data]) == 0
        scores = json.loads(capsys.readouterr().out)
        assert scores["exact_match"] == 75.0
        assert scores["f1"] == 75.0


class TestAugmentCommand:
    def test_mock_run_produces_valid_dataset(self, tmp_path, capsys):
        data = _dataset(tmp_path / "data.json", n=3)
        out = tmp_path / "aug.json"
        code = main(["augment", "--data", data, "--mock",
                     "--out", str(out), "--set", "seed=4"])
        captured = capsys.readouterr()
        assert code == 0
        summary = json.loads(captured.out)
        assert summary["written"] > 0
        again = parse_qa_json(str(out), split="train")
        assert len(again) == summary["written"]
        assert all(ex.id.count("-") >= 2 for ex in again)
        tags = {ex.id.rsplit("-", 2)[1] for ex in again}
        assert tags <= {"fr", "de"}

    def test_mock_reproduces_documented_paraphrase(self, tmp_path, capsys):
        context = ("All of the departments in the College of Science offer "
                   "PhD programs, except for the Department of "
                   "Pre-Professional Studies.")
        doc = {"version": "1.1", "data": [{"title": "t", "paragraphs": [{
            "context": context,
            "qas": [{"id": "t1",
                     "question": "Which department lacks a PhD program?",
                     "answers": [{"text":
                                  "Department of Pre-Professional Studies",
                                  "answer_start": context.index(
                                      "Department of Pre-")}]}]}]}]}
        data = tmp_path / "table.json"
        data.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "aug.json"
        code = main(["augment", "--data", str(data), "--mock",
                     "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        again = parse_qa_json(str(out), split="train")
        assert again
        assert all(ex.answer_text == "Department of Preparatory Studies"
                   for ex in again)

    def test_set_k_and_threshold_match_direct_call(self, tmp_path, capsys):
        data = _dataset(tmp_path / "data.json", n=3)
        out = tmp_path / "aug.json"
        code = main(["augment", "--data", data, "--mock", "--out", str(out),
                     "--set", "augment.k=1", "--set", "augment.threshold=0.3"])
        capsys.readouterr()
        assert code == 0
        defaults = RunConfig()
        pools = augment_examples(
            parse_qa_json(data, split="train"),
            {"fr": RuleTranslator("fr"), "de": RuleTranslator("de")},
            k=1, threshold=0.3, seed=defaults.seed,
            copies=defaults.augment.copies)
        direct = tmp_path / "direct.json"
        write_squad_json(str(direct), pools["de"] + pools["fr"])
        assert out.read_bytes() == direct.read_bytes()

    def test_unreachable_translator_exits_nonzero(self, tmp_path, capsys):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            dead = s.getsockname()[1]
        data = _dataset(tmp_path / "data.json", n=1)
        code = main(["augment", "--data", data,
                     "--translator-url", f"http://127.0.0.1:{dead}",
                     "--out", str(tmp_path / "aug.json")])
        captured = capsys.readouterr()
        assert code != 0
        assert "unreachable" in captured.err

    def test_mock_and_url_conflict(self, tmp_path, capsys):
        data = _dataset(tmp_path / "data.json", n=1)
        code = main(["augment", "--data", data, "--mock",
                     "--translator-url", "http://x", "--out",
                     str(tmp_path / "a.json")])
        captured = capsys.readouterr()
        assert code != 0
        assert "mutually exclusive" in captured.err

    def test_mock_config_key_exits_nonzero(self, tmp_path, capsys):
        data = _dataset(tmp_path / "data.json", n=1)
        code = main(["augment", "--data", data, "--set", "augment.mock=true",
                     "--out", str(tmp_path / "a.json")])
        captured = capsys.readouterr()
        assert code != 0
        assert "unknown config key 'augment.mock'" in captured.err

    def test_duplicate_translator_tag(self, tmp_path, capsys):
        """An untagged URL takes the tag fr, so it clashes with fr=..."""
        code = main(["augment", "--data", str(tmp_path / "unread.json"),
                     "--translator-url", "fr=http://a", "--translator-url",
                     "http://b", "--out", str(tmp_path / "a.json")])
        assert code == 1
        assert "duplicate translator tag 'fr'" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,tag,url", [
        ("http://127.0.0.1:8000/pivot=fr", "fr", "http://127.0.0.1:8000/pivot=fr"),
        ("de=http://127.0.0.1:8000/pivot=de", "de", "http://127.0.0.1:8000/pivot=de"),
        ("back_2-x=http://a", "back_2-x", "http://a"),
        ("http://a", "fr", "http://a"),
    ])
    def test_translator_url_tag_is_a_plain_word(self, entry, tag, url):
        """Text before the first "=" tags the pool when it is letters,
        digits, "_" and "-"; when it holds "://" the whole entry is an
        untagged URL."""
        (got,) = qanet.cli._parse_endpoint_flags([entry], mock=False).items()
        assert (got[0], got[1].base_url) == (tag, url)

    @pytest.mark.parametrize("entry", ["pt.br=http://h", "=http://h",
                                       "localhost:8000/x=y"])
    def test_translator_url_tag_neither_word_nor_url_refused(self, entry):
        """Text before the first "=" that is neither a plain word nor holds
        "://" is refused, naming the entry, not read as a URL."""
        with pytest.raises(ValueError, match=re.escape(repr(entry))):
            qanet.cli._parse_endpoint_flags([entry], mock=False)

    def test_neither_endpoint_choice(self, tmp_path, capsys):
        data = _dataset(tmp_path / "data.json", n=1)
        code = main(["augment", "--data", data,
                     "--out", str(tmp_path / "a.json")])
        captured = capsys.readouterr()
        assert code != 0


class TestDependencies:
    def test_cli_imports_only_stdlib_and_numpy(self):
        probe = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "import qanet.cli\n"
                 "print('\\n'.join(sorted(set(sys.modules) - before)))\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       SRC_DIR, os.environ.get("PYTHONPATH", "")])))
        loaded = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True,
                                check=True).stdout.split()
        assert "qanet.cli" in loaded
        outside = sorted({name.partition(".")[0] for name in loaded}
                         - set(sys.stdlib_module_names) - {"numpy", "qanet"})
        assert outside == []


class TestBenchCommand:
    def test_json_report(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        flat = dict(TINY_MODEL)
        flat["optimizer.batch_size"] = 2
        flat["model.max_context_len"] = 20
        cfg.write_text(json.dumps(flat), encoding="utf-8")
        code = main(["bench", "--config", str(cfg), "--batches", "2",
                     "--json"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["predict"]["examples_per_sec"] > 0
        assert report["train_step"]["examples_per_sec"] > 0
        assert "forward" not in report and "forward_backward" not in report
        assert report["batches"] == 2
        assert "note" in report

    def test_text_report(self, tmp_path, capsys):
        cfg = tmp_path / "bench.json"
        flat = dict(TINY_MODEL)
        flat["optimizer.batch_size"] = 2
        flat["model.max_context_len"] = 20
        cfg.write_text(json.dumps(flat), encoding="utf-8")
        code = main(["bench", "--config", str(cfg), "--batches", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "predict:" in captured.out
        assert "train_step:" in captured.out
        assert "variance" in captured.out

    @pytest.mark.parametrize("length", [1, 2])
    def test_context_below_three_refused_before_model(self, length, monkeypatch, capsys):
        """The synthetic answer needs two tokens before the context's last;
        a shorter context is refused by key, before a model is built."""
        monkeypatch.setattr(qanet.cli, "new_run", lambda *args: pytest.fail("model built"))
        code = main(["bench", "--set", f"model.max_context_len={length}"])
        assert code == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert error == f"error: bench needs model.max_context_len of at least 3, got {length}"

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_batches_below_one_refused_while_parsing(self, value, monkeypatch, capsys):
        """Refused before a model is built, naming the flag."""
        monkeypatch.setattr(qanet.cli, "new_run", lambda *args: pytest.fail("model built"))
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--batches", value])
        assert exit_info.value.code == 2
        assert f"argument --batches: must be at least 1, got {value}" in capsys.readouterr().err

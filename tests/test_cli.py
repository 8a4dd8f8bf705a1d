"""Config plumbing and end-to-end command-line flows on tiny fixtures."""
import json
import os
import socket
import subprocess
import sys

import numpy as np
import pytest

from qanet.cli import main
from qanet.config import (
    AugmentationConfig,
    RunConfig,
    UnknownConfigKey,
    from_flat,
    load_run_config,
    parse_override,
    resolve_config,
    to_flat,
)
from qanet.data import parse_qa_json

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

    def test_augmentation_config_validation(self):
        with pytest.raises(ValueError):
            AugmentationConfig(k=0)
        with pytest.raises(ValueError):
            AugmentationConfig(threshold=1.5)
        with pytest.raises(ValueError):
            AugmentationConfig(mix_orig=-1.0)

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

    def test_resolution_order(self, tmp_path):
        file_a = tmp_path / "a.json"
        file_a.write_text(json.dumps({"seed": 5}), encoding="utf-8")
        file_b = tmp_path / "b.json"
        file_b.write_text(json.dumps({"seed": 6}), encoding="utf-8")
        cfg, source = resolve_config(str(file_a),
                                     env={"QANET_CONFIG": str(file_b)})
        assert cfg.seed == 5 and source == str(file_a)
        cfg, source = resolve_config(None, env={"QANET_CONFIG": str(file_b)})
        assert cfg.seed == 6 and "QANET_CONFIG" in source
        cfg, source = resolve_config(None, env={})
        assert cfg.seed == 0 and source == "defaults"


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
            assert main(["train", "--config", cfg, "--seed", "11"]) == 0
            with open(f"{out}/metrics.jsonl", "rb") as fh:
                logs.append(fh.read())
        capsys.readouterr()
        assert logs[0] == logs[1]

    def test_resume_with_pools_ignores_new_seed(self, trained, tmp_path,
                                                capsys):
        """The sampler on resume draws from the checkpoint's seed."""
        pools = {"paths.augmented_fr": _dataset(tmp_path / "fr.json", n=4),
                 "paths.augmented_de": _dataset(tmp_path / "de.json", n=3),
                 "checkpoint_every": 1}

        def run(name, steps, seed, resume=None):
            out = str(tmp_path / name)
            cfg = _config_file(tmp_path / f"{name}-{steps}.json",
                               trained["data"], out,
                               extra=dict(pools, **{"optimizer.total_steps": steps}))
            argv = ["train", "--config", cfg, "--seed", seed]
            if resume:
                argv += ["--resume", resume]
            assert main(argv) == 0
            with open(f"{out}/metrics.jsonl", "rb") as fh:
                return fh.read()

        full = run("full", 4, "7")
        run("split", 2, "7")
        resumed = run("split", 4, "8",
                      resume=str(tmp_path / "split" / "model.ckpt"))
        capsys.readouterr()
        assert resumed == full

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

    def test_env_var_config_fallback(self, trained, tmp_path, capsys,
                                     monkeypatch):
        out = str(tmp_path / "env-run")
        cfg = _config_file(tmp_path / "env.json", trained["data"], out,
                           extra={"optimizer.total_steps": 1})
        monkeypatch.setenv("QANET_CONFIG", cfg)
        code = main(["train"])
        captured = capsys.readouterr()
        assert code == 0
        assert "QANET_CONFIG" in captured.err


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
                     "--out", str(out), "--seed", "4"])
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
        assert report["forward"]["examples_per_sec"] > 0
        assert report["forward_backward"]["examples_per_sec"] > 0
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
        assert "forward:" in captured.out
        assert "forward_backward:" in captured.out
        assert "variance" in captured.out

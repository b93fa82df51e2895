"""Command-line behavior: exit codes, run artifacts, preset resolution."""

import dataclasses
import json

import numpy as np
import pytest

from rau import cli
from rau.cli import (
    EXIT_BAD_CONFIG,
    EXIT_DIVERGED,
    PRESETS,
    RunConfig,
    build_parser,
    main,
    resolve_config,
)
from rau.linalg import Rng
from rau.train import DivergenceError
from rau.models import build_classifier, build_language_model, load_checkpoint, save_checkpoint


def _train_args(tmp_path, *extra):
    return ["train", "--task", "synthetic", "--cell", "rau", "--epochs", "1",
            "--seed", "7", "--out", str(tmp_path), *extra]


def _read_metrics(out_dir):
    path = out_dir / "synthetic-rau-seed7" / "metrics.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTrainCommand:
    def test_smoke_produces_three_files(self, tmp_path):
        assert main(_train_args(tmp_path, "--max-steps", "3")) == 0
        run_dir = tmp_path / "synthetic-rau-seed7"
        assert sorted(p.name for p in run_dir.iterdir()) == ["config.json", "metrics.jsonl", "model.bin"]

    def test_rerun_identical_metrics_modulo_wall_ms(self, tmp_path):
        main(_train_args(tmp_path / "a", "--max-steps", "5"))
        main(_train_args(tmp_path / "b", "--max-steps", "5"))
        rec_a = _read_metrics(tmp_path / "a")
        rec_b = _read_metrics(tmp_path / "b")
        for r in rec_a + rec_b:
            del r["wall_ms"]
        assert rec_a == rec_b

    def test_divergence_names_no_checkpoint_of_an_earlier_run(self, tmp_path, capsys):
        # the first run saves model.bin; the second diverges at step 1, before it saves any
        assert main(_train_args(tmp_path, "--max-steps", "5", "--lr", "1e300")) == 0
        capsys.readouterr()
        rc = main(_train_args(tmp_path, "--max-steps", "5", "--optimizer", "sgd", "--lr", "1e308"))
        err = capsys.readouterr().err
        assert rc == EXIT_DIVERGED
        assert "diverged at epoch 1, step 1" in err and "checkpoint" not in err

    @pytest.mark.parametrize("cell", ["rau", "gru", "lstm"])
    def test_non_finite_forward_exits_diverged(self, cell, tmp_path, capsys):
        # the first update overflows the weights; the next forward meets a non-finite loss (rau, gru) or a
        # non-finite pre-activation (lstm), and either ends the run as a divergence, not a traceback
        rc = main(["train", "--task", "synthetic", "--cell", cell, "--epochs", "1", "--max-steps", "5",
                   "--seed", "7", "--optimizer", "sgd", "--lr", "1e308", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == EXIT_DIVERGED
        assert err.startswith("error: classifier ") and "diverged at epoch 1, step 1" in err
        assert "Traceback" not in err and "Warning" not in err

    def test_divergence_names_the_checkpoint_this_run_wrote(self, tmp_path, capsys, monkeypatch):
        epoch_one = cli.train_epoch_classifier

        def diverge_in_epoch_two(*args):
            if args[6] == 2:
                raise DivergenceError("classifier loss diverged at epoch 2, step 4")
            return epoch_one(*args)

        monkeypatch.setattr(cli, "train_epoch_classifier", diverge_in_epoch_two)
        rc = main(["train", "--task", "synthetic", "--cell", "gru", "--epochs", "2", "--hidden", "8",
                   "--seed", "7", "--out", str(tmp_path)])
        assert rc == EXIT_DIVERGED
        ckpt = tmp_path / "synthetic-gru-seed7" / "model.bin"
        assert ckpt.exists() and capsys.readouterr().err.endswith(f"; last good checkpoint: {ckpt}\n")

    def test_classes_flag_is_gone(self, tmp_path, capsys):
        # each task fixes its own class count
        with pytest.raises(SystemExit) as exc:
            main(_train_args(tmp_path, "--classes", "10"))
        assert exc.value.code == EXIT_BAD_CONFIG
        assert "--classes" in capsys.readouterr().err
        assert "classes" not in {f.name for f in dataclasses.fields(RunConfig)}

    def test_bad_task_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--task", "ptb", "--out", str(tmp_path)])
        assert rc == EXIT_BAD_CONFIG
        assert "data-dir" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"no_such_knob": 1}))
        rc = main(_train_args(tmp_path, "--config", str(cfg_file)))
        assert rc == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("field, value", [("hidden", "x"), ("layers", True), ("lr", None)])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, field, value):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: value}))
        rc = main(_train_args(tmp_path, "--config", str(cfg_file)))
        assert rc == EXIT_BAD_CONFIG
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_max_steps_below_one_exits_2(self, tmp_path, capsys, steps):
        assert main(_train_args(tmp_path, "--max-steps", steps)) == EXIT_BAD_CONFIG
        assert "max_steps must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "synthetic-rau-seed7").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["lr", "clip_norm", "init_scale"])
    def test_non_finite_float_exits_2(self, tmp_path, capsys, field, value):
        # as a flag and as a config file value; NaN used to switch clipping off silently
        flag = f"--{field.replace('_', '-')}={value}"  # "=" keeps argparse from reading -inf as an option
        assert main(_train_args(tmp_path, "--max-steps", "1", flag)) == EXIT_BAD_CONFIG
        assert f"{field} must be finite" in capsys.readouterr().err
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: float(value)}))
        assert main(_train_args(tmp_path, "--max-steps", "1", "--config", str(cfg_file))) == EXIT_BAD_CONFIG
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "synthetic-rau-seed7").exists()

    @pytest.mark.parametrize("field, value, least", [
        ("vocab", 1, 2), ("emb_dim", 0, 1), ("emb_dim", -5, 1), ("decay_start_epoch", 0, 1)])
    def test_value_below_the_field_least_exits_2(self, tmp_path, capsys, field, value, least):
        # as a flag and as a config file value; vocab 1 and emb_dim -5 used to end in a traceback on the
        # tasks that read them, emb_dim 0 to train a 100-wide embedding, decay_start_epoch 0 to decay twice
        flag = f"--{field.replace('_', '-')}"
        assert main(_train_args(tmp_path, "--max-steps", "1", flag, str(value))) == EXIT_BAD_CONFIG
        assert f"error: {field} must be >= {least}" in capsys.readouterr().err
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({field: value}))
        assert main(_train_args(tmp_path, "--max-steps", "1", "--config", str(cfg_file))) == EXIT_BAD_CONFIG
        assert f"error: {field} must be >= {least}" in capsys.readouterr().err
        assert not (tmp_path / "synthetic-rau-seed7").exists()

    def test_config_file_merged_under_flags(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"hidden": 32, "lr": 0.5}))
        args = build_parser().parse_args(_train_args(tmp_path, "--config", str(cfg_file), "--lr", "0.25"))
        cfg = resolve_config(args)
        assert cfg.hidden == 32   # from file
        assert cfg.lr == 0.25     # flag wins
        assert cfg.epochs == 1


class TestPresets:
    def test_config_file_preset_applies_under_the_file_values(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"preset": "mnist", "hidden": 32}))
        cfg = resolve_config(build_parser().parse_args(["train", "--config", str(cfg_file), "--data-dir", "x"]))
        assert (cfg.preset, cfg.task, cfg.lr, cfg.init_scale) == ("mnist", "mnist-rows", 1e-3, 0.1)
        assert cfg.hidden == 32  # the file's own value over its preset's
        assert cfg.epochs == 5  # the desk-scale epoch budget, as for a --preset flag

    def test_preset_flag_wins_over_the_config_file_preset(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"preset": "mnist"}))
        args = build_parser().parse_args(
            ["train", "--config", str(cfg_file), "--preset", "ptb-small", "--data-dir", "x"])
        cfg = resolve_config(args)
        assert (cfg.preset, cfg.task, cfg.hidden, cfg.layers) == ("ptb-small", "ptb", 200, 2)

    @pytest.mark.parametrize("preset, message", [("nope", "unknown preset 'nope'; choices: fashion, mnist"),
                                                 (["mnist"], "preset must be str | None, got ['mnist']")],
                             ids=["unknown-name", "list"])
    def test_unknown_preset_in_config_file_exits_2(self, tmp_path, capsys, preset, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"preset": preset}))
        assert main(_train_args(tmp_path, "--config", str(cfg_file))) == EXIT_BAD_CONFIG
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "synthetic-rau-seed7").exists()

    def test_a_run_config_json_as_config_gives_the_same_settings(self, tmp_path):
        # the preset's values must not come back over the flags the run was given
        assert main(["train", "--preset", "synthetic", "--hidden", "8", "--lr", "0.5", "--max-steps", "1",
                     "--out", str(tmp_path)]) == 0
        written = (tmp_path / "synthetic-rau-seed7" / "config.json").read_text()
        cfg = resolve_config(build_parser().parse_args(
            ["train", "--config", str(tmp_path / "synthetic-rau-seed7" / "config.json")]))
        assert json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n" == written

    def test_small_lm_preset_values(self):
        args = build_parser().parse_args(
            ["train", "--preset", "ptb-small", "--data-dir", "unused"])
        cfg = resolve_config(args)
        assert cfg.hidden == 200
        assert cfg.layers == 2
        assert cfg.decay_factor == 0.5
        assert cfg.batch_size == 20
        assert cfg.vocab == 10000
        assert cfg.dropout == 0.0
        assert cfg.init_scale == 0.1
        assert cfg.optimizer == "sgd" and cfg.lr == 1.0
        assert cfg.epochs == 3  # desk-scale epoch budget

    def test_desk_scale_off_keeps_published_epochs(self):
        args = build_parser().parse_args(
            ["train", "--preset", "ptb-small", "--data-dir", "unused", "--no-desk-scale"])
        cfg = resolve_config(args)
        assert cfg.epochs == 13

    def test_medium_large_lm_presets(self):
        assert PRESETS["ptb-medium"]["hidden"] == 650
        assert PRESETS["ptb-medium"]["decay_factor"] == 0.8
        assert PRESETS["ptb-medium"]["dropout"] == 0.5
        assert PRESETS["ptb-medium"]["init_scale"] == 0.05
        assert PRESETS["ptb-large"]["hidden"] == 1500
        assert PRESETS["ptb-large"]["init_scale"] == 0.04
        assert PRESETS["ptb-large"]["dropout"] == 0.65
        assert abs(PRESETS["ptb-large"]["decay_factor"] - 1 / 1.5) < 1e-12

    def test_image_task_presets(self):
        for name in ("mnist", "fashion"):
            p = PRESETS[name]
            assert p["hidden"] == 128
            assert p["batch_size"] == 128
            assert p["optimizer"] == "adam"
            assert p["epochs"] == 213

    def test_sentiment_preset(self):
        p = PRESETS["sentiment"]
        assert p["hidden"] == 128 and p["dropout"] == 0.5 and p["emb_dim"] == 100
        assert p["epochs"] == 100 and p["batch_size"] == 128


class TestImageTaskPath:
    """Drives the IDX image pipeline end to end on crafted, learnable images."""

    @pytest.fixture
    def image_dir(self, tmp_path):
        from conftest import write_idx_pair

        rng = Rng(55)
        def make(n):
            labels = (rng.uniform01(n) * 10).astype(np.uint8)
            images = (rng.uniform01((n, 28, 28)) * 40).astype(np.uint8)
            for i, lbl in enumerate(labels):
                images[i, :, 2 + 2 * int(lbl)] = 250  # one bright column per class
            return images, labels

        d = tmp_path / "idx"
        d.mkdir()
        for split, n in (("train", 256), ("t10k", 64)):
            images, labels = make(n)
            img, lbl = write_idx_pair(d, images, labels)
            img.rename(d / f"{split}-images-idx3-ubyte")
            lbl.rename(d / f"{split}-labels-idx1-ubyte")
        return d

    def test_end_to_end(self, image_dir, tmp_path, capsys):
        rc = main(["train", "--task", "mnist-rows", "--cell", "gru", "--data-dir", str(image_dir),
                   "--hidden", "24", "--batch-size", "32", "--epochs", "3",
                   "--lr", "0.01", "--init-scale", "0.2", "--seed", "5",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        run_dir = tmp_path / "out" / "mnist-rows-gru-seed5"
        records = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        final = [r for r in records if r["split"] == "test"][-1]
        assert final["metric_value"] >= 0.8, final
        capsys.readouterr()
        assert main(["eval", str(run_dir / "model.bin"), "--split", "test"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["loss"] == final["loss"]
        assert out["metric_value"] == final["metric_value"]

    def test_without_a_preset_builds_a_ten_class_head(self, image_dir, tmp_path):
        # with no preset the labels 0-9 once met a 4-output head, and cross_entropy raised
        assert main(["train", "--task", "mnist-rows", "--data-dir", str(image_dir), "--hidden", "8",
                     "--epochs", "1", "--max-steps", "2", "--out", str(tmp_path / "out")]) == 0
        model, _ = load_checkpoint(tmp_path / "out" / "mnist-rows-rau-seed7" / "model.bin")
        assert model.w_out.shape == (10, 8)

    def test_a_label_beyond_the_task_classes_exits_2(self, tmp_path, capsys):
        from conftest import write_idx_pair

        d = tmp_path / "idx"
        d.mkdir()
        for split in ("train", "t10k"):
            img, lbl = write_idx_pair(d, np.zeros((4, 28, 28)), [0, 1, 12, 3])
            img.rename(d / f"{split}-images-idx3-ubyte")
            lbl.rename(d / f"{split}-labels-idx1-ubyte")
        assert main(["train", "--task", "mnist-rows", "--data-dir", str(d), "--out", str(tmp_path / "out")]) == 2
        assert "mnist-rows labels must be below 10, got 12" in capsys.readouterr().err


class TestSentimentTask:
    @pytest.fixture
    def imdb_like(self, tmp_path):
        texts = {
            "pos": ["a wonderful heartfelt film", "brilliant acting and a great story",
                    "loved every minute", "simply excellent"],
            "neg": ["a dull waste of time", "terrible script and worse acting",
                    "i want my money back", "painfully boring"],
        }
        for split in ("train", "test"):
            for label, docs in texts.items():
                d = tmp_path / "imdb" / split / label
                d.mkdir(parents=True)
                for i, doc in enumerate(docs):
                    (d / f"{i}.txt").write_text(doc)
        return tmp_path / "imdb"

    def test_end_to_end(self, imdb_like, tmp_path, capsys):
        rc = main(["train", "--task", "sentiment", "--cell", "gru", "--data-dir", str(imdb_like),
                   "--hidden", "8", "--emb-dim", "8", "--vocab", "40", "--max-len", "6",
                   "--batch-size", "4", "--epochs", "1", "--seed", "3",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        run_dir = tmp_path / "out" / "sentiment-gru-seed3"
        records = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert {r["split"] for r in records} == {"train", "test"}
        ckpt = run_dir / "model.bin"
        assert load_checkpoint(ckpt)[0].w_out.shape[0] == 2  # the task's two classes
        capsys.readouterr()
        assert main(["eval", str(ckpt), "--split", "test", "--data-dir", str(imdb_like)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metric_name"] == "accuracy"
        final_test = [r for r in records if r["split"] == "test"][-1]
        assert out["loss"] == final_test["loss"]
        assert out["metric_value"] == final_test["metric_value"]


class TestPtbStyleTask:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        rng = Rng(44)
        words = [f"w{i}" for i in range(20)]
        def make(n_lines):
            lines = []
            for _ in range(n_lines):
                k = 3 + rng.integers(6)
                lines.append(" ".join(words[rng.integers(20)] for _ in range(k)))
            return "\n".join(lines) + "\n"
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "ptb.train.txt").write_text(make(120))
        (d / "ptb.valid.txt").write_text(make(30))
        (d / "ptb.test.txt").write_text(make(30))
        return d

    def test_end_to_end(self, corpus_dir, tmp_path, capsys):
        rc = main(["train", "--task", "ptb", "--cell", "rau", "--data-dir", str(corpus_dir),
                   "--hidden", "8", "--layers", "2", "--unroll", "5", "--batch-size", "2",
                   "--vocab", "30", "--epochs", "2", "--lr", "0.5", "--optimizer", "sgd",
                   "--seed", "3", "--out", str(tmp_path / "out")])
        assert rc == 0
        run_dir = tmp_path / "out" / "ptb-rau-seed3"
        records = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        splits = [r["split"] for r in records]
        assert splits.count("train") == 2 and splits.count("valid") == 2 and splits.count("test") == 1
        assert all(r["metric_name"] == "perplexity" for r in records)
        capsys.readouterr()
        assert main(["eval", str(run_dir / "model.bin"), "--split", "valid"]) == 0
        out = json.loads(capsys.readouterr().out)
        final_valid = [r for r in records if r["split"] == "valid"][-1]
        assert out["loss"] == final_valid["loss"]
        assert out["metric_value"] == final_valid["metric_value"]

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_max_steps_below_one_exits_2(self, corpus_dir, tmp_path, capsys, steps):
        rc = main(["train", "--task", "ptb", "--cell", "gru", "--data-dir", str(corpus_dir),
                   "--hidden", "8", "--unroll", "5", "--batch-size", "2", "--vocab", "30",
                   "--max-steps", steps, "--seed", "3", "--out", str(tmp_path / "out")])
        assert rc == EXIT_BAD_CONFIG
        assert "max_steps must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split, batch_size", [("valid", "4"), ("train", "4000")])
    def test_split_too_short_for_the_batch_exits_2(self, corpus_dir, tmp_path, capsys, split, batch_size):
        if split == "valid":
            (corpus_dir / "ptb.valid.txt").write_text("w1 w2\n")
        rc = main(["train", "--task", "ptb", "--cell", "gru", "--data-dir", str(corpus_dir),
                   "--hidden", "8", "--unroll", "5", "--batch-size", batch_size, "--vocab", "30",
                   "--seed", "3", "--out", str(tmp_path / "out")])
        assert rc == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"error: {split} split has" in err and f"batch_size {batch_size}" in err
        run_dir = tmp_path / "out" / "ptb-gru-seed3"
        assert (run_dir / "metrics.jsonl").read_text() == ""
        assert not (run_dir / "model.bin").exists()

    def test_eval_on_a_split_too_short_for_the_batch_exits_2(self, corpus_dir, tmp_path, capsys):
        assert main(["train", "--task", "ptb", "--cell", "gru", "--data-dir", str(corpus_dir),
                     "--hidden", "8", "--unroll", "5", "--batch-size", "4", "--vocab", "30",
                     "--max-steps", "1", "--seed", "3", "--out", str(tmp_path / "out")]) == 0
        (corpus_dir / "ptb.test.txt").write_text("w1 w2\n")
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "out" / "ptb-gru-seed3" / "model.bin")]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "test split has" in captured.err

    def test_max_steps_stop_stamps_test_record_with_epoch_reached(self, corpus_dir, tmp_path):
        rc = main(["train", "--task", "ptb", "--cell", "gru", "--data-dir", str(corpus_dir),
                   "--hidden", "8", "--unroll", "5", "--batch-size", "2", "--vocab", "30",
                   "--epochs", "3", "--max-steps", "3", "--lr", "0.5", "--optimizer", "sgd",
                   "--seed", "3", "--out", str(tmp_path / "out")])
        assert rc == 0
        run_dir = tmp_path / "out" / "ptb-gru-seed3"
        records = [json.loads(line) for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        assert [r["split"] for r in records] == ["train", "valid", "test"]
        assert records[-1]["step"] == 3
        assert records[-1]["epoch"] == records[0]["epoch"] == 1


class TestEvalCommand:
    def test_eval_matches_final_train_record(self, tmp_path, capsys):
        main(_train_args(tmp_path, "--max-steps", "3"))
        capsys.readouterr()
        ckpt = tmp_path / "synthetic-rau-seed7" / "model.bin"
        assert main(["eval", str(ckpt), "--split", "test"]) == 0
        out = json.loads(capsys.readouterr().out)
        final_test = [r for r in _read_metrics(tmp_path) if r["split"] == "test"][-1]
        assert out["loss"] == final_test["loss"]
        assert out["metric_value"] == final_test["metric_value"]

    def test_zero_init_checkpoint_scores_chance(self, tmp_path, capsys):
        mdl = build_classifier("gru", 8, 16, 1, 4, 0.0, Rng(0))
        cfg = dataclasses.asdict(RunConfig(task="synthetic", cell="gru", seed=7))
        ckpt = tmp_path / "zero.bin"
        save_checkpoint(ckpt, mdl, cfg)
        assert main(["eval", str(ckpt), "--split", "test"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert abs(out["metric_value"] - 0.25) < 0.05

    def test_classifier_valid_split_exits_2(self, tmp_path, capsys):
        main(_train_args(tmp_path, "--max-steps", "1"))
        capsys.readouterr()
        ckpt = tmp_path / "synthetic-rau-seed7" / "model.bin"
        assert main(["eval", str(ckpt), "--split", "valid"]) == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "split 'valid' unavailable" in captured.err

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "bad.bin"
        header = b'{"config": {}, "model": {"type": "classifier", "cell": "foo"}}'
        ckpt.write_bytes(b"RAUM" + (1).to_bytes(4, "little") + len(header).to_bytes(4, "little") + header)
        assert main(["eval", str(ckpt)]) == EXIT_BAD_CONFIG
        assert "unknown cell kind 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("build, message", [
        # synthetic sequences have 8 inputs per step; this model takes 5
        (lambda: build_classifier("gru", 5, 4, 1, 4, 0.1, Rng(0)), "input size 8 != expected 5"),
        (lambda: build_language_model("gru", 5, 3, 1, 0.1, Rng(0)), "does not fit its task 'synthetic'"),
    ], ids=["input-size", "lm-on-a-classifier-task"])
    def test_config_not_fitting_the_model_exits_2(self, tmp_path, capsys, build, message):
        ckpt = tmp_path / "mismatch.bin"
        save_checkpoint(ckpt, build(), dataclasses.asdict(RunConfig(task="synthetic", cell="gru", seed=7)))
        assert main(["eval", str(ckpt)]) == EXIT_BAD_CONFIG
        assert message in capsys.readouterr().err

    def test_data_task_without_data_dir_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "lm.bin"
        save_checkpoint(ckpt, build_language_model("gru", 5, 3, 1, 0.1, Rng(0)), {"task": "ptb"})
        assert main(["eval", str(ckpt)]) == EXIT_BAD_CONFIG
        assert "task ptb requires --data-dir" in capsys.readouterr().err

    def test_config_echo_value_of_wrong_type_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "echo.bin"
        cfg = dataclasses.asdict(RunConfig(task="synthetic", cell="gru")) | {"seed": "x"}
        save_checkpoint(ckpt, build_classifier("gru", 8, 4, 1, 4, 0.1, Rng(0)), cfg)
        assert main(["eval", str(ckpt)]) == EXIT_BAD_CONFIG
        assert "seed must be int, got 'x'" in capsys.readouterr().err

    def test_config_echo_with_a_classes_key_still_evaluates(self, tmp_path, capsys):
        # checkpoints written before the class count was derived from the task echo a classes key
        ckpt = tmp_path / "old.bin"
        cfg = dataclasses.asdict(RunConfig(task="synthetic", cell="gru", seed=7)) | {"classes": 4}
        save_checkpoint(ckpt, build_classifier("gru", 8, 16, 1, 4, 0.0, Rng(0)), cfg)
        assert main(["eval", str(ckpt), "--split", "test"]) == 0
        assert json.loads(capsys.readouterr().out)["metric_name"] == "accuracy"

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = main(["eval", str(tmp_path / "nope.bin")])
        assert rc == EXIT_BAD_CONFIG
        capsys.readouterr()


class TestGradcheckCommand:
    def test_passes_for_all_cells(self, capsys):
        for cell in ("rau", "gru", "lstm"):
            rc = main(["gradcheck", "--cell", cell, "--m", "2", "--n", "3", "--T", "4",
                       "--trials", "2", "--seed", "9"])
            out = capsys.readouterr().out
            assert rc == 0, out
            assert "gradcheck PASSED" in out

    @pytest.mark.parametrize("flag", ["--m", "--n", "--T", "--trials"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_size_below_one_exits_2(self, capsys, flag, value):
        rc = main(["gradcheck", "--cell", "gru", flag, value])
        assert rc == EXIT_BAD_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {flag} must be >= 1" in captured.err

    def test_perturbed_backward_exits_1(self, capsys):
        rc = main(["gradcheck", "--cell", "gru", "--m", "2", "--n", "2", "--T", "3",
                   "--trials", "1", "--seed", "9", "--perturb", "0.01"])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

"""Experiment command line: train, eval, gradcheck.

Presets mirror the published model configurations (hidden sizes,
layers, batch sizes, dropout, init scales, decay factors, vocabulary);
desk-scale mode (default) shrinks datasets and epoch budgets so runs
finish on a laptop CPU. Explicit flags always win over preset and
config-file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as datamod
from .autograd import GRADCHECK_TOLERANCE, gradcheck_cell
from .cells import CELL_KINDS
from .linalg import ContractError, Rng
from .models import (
    CheckpointError,
    build_classifier,
    build_language_model,
    load_checkpoint,
    save_checkpoint,
)
from .train import (
    DivergenceError,
    LrSchedule,
    MetricsRecord,
    evaluate_classifier,
    evaluate_lm,
    lr_at,
    make_optimizer,
    train_epoch_classifier,
    train_epoch_lm,
)

TASKS = ("mnist-rows", "fashion-rows", "ptb", "sentiment", "synthetic")

EXIT_OK = 0
EXIT_BAD_CONFIG = 2
EXIT_DIVERGED = 3


# Published per-task configurations; desk-scale epoch budgets noted inline.
PRESETS = {
    "mnist": dict(task="mnist-rows", hidden=128, layers=1, optimizer="adam", lr=1e-3,
                  batch_size=128, dropout=0.0, init_scale=0.1, epochs=213),
    "fashion": dict(task="fashion-rows", hidden=128, layers=1, optimizer="adam", lr=1e-3,
                    batch_size=128, dropout=0.0, init_scale=0.1, epochs=213),
    "sentiment": dict(task="sentiment", hidden=128, layers=1, optimizer="adam", lr=1e-5,
                      batch_size=128, dropout=0.5, init_scale=0.1, epochs=100, emb_dim=100, vocab=10000,
                      max_len=200),
    "ptb-small": dict(task="ptb", hidden=200, layers=2, optimizer="sgd", lr=1.0, decay_factor=0.5,
                      decay_start_epoch=5, epochs=13, batch_size=20, dropout=0.0, init_scale=0.1,
                      vocab=10000, unroll=20),
    "ptb-medium": dict(task="ptb", hidden=650, layers=2, optimizer="sgd", lr=1.0, decay_factor=0.8,
                       decay_start_epoch=10, epochs=35, batch_size=20, dropout=0.5, init_scale=0.05,
                       vocab=10000, unroll=30),
    "ptb-large": dict(task="ptb", hidden=1500, layers=2, optimizer="sgd", lr=1.0, decay_factor=1 / 1.5,
                      decay_start_epoch=15, epochs=55, batch_size=20, dropout=0.65, init_scale=0.04,
                      vocab=10000, unroll=30),
    "synthetic": dict(task="synthetic", hidden=64, layers=1, optimizer="adam", lr=1e-2,
                      batch_size=64, dropout=0.0, init_scale=0.5, epochs=4),
}


def _setting(default, *, choices=None, least=None, flag=None):
    """A RunConfig field with the values it allows beside its annotated type, and its `rau train` flag
    where that is not `--name-with-dashes`."""
    return dataclasses.field(default=default, metadata={"choices": choices, "least": least, "flag": flag})


@dataclass
class RunConfig:
    task: str = _setting("synthetic", choices=TASKS)
    cell: str = _setting("rau", choices=CELL_KINDS)
    hidden: int = _setting(64, least=1)
    layers: int = _setting(1, least=1)
    epochs: int = _setting(4, least=1)
    batch_size: int = _setting(64, least=1)
    optimizer: str = _setting("adam", choices=("sgd", "adam"))
    lr: float = 1e-2
    decay_factor: float = 1.0
    decay_start_epoch: int = _setting(1, least=1)  # 1-based: 0 would decay the lr twice in epoch 1
    dropout: float = 0.0
    init_scale: float = _setting(0.5, least=0.0)
    seed: int = 7
    unroll: int = _setting(20, least=1)
    vocab: int = _setting(10000, least=2)  # <unk> and <eos> take two ids
    emb_dim: int | None = _setting(None, least=1)
    max_len: int = _setting(200, least=1)
    clip_norm: float = 5.0
    max_steps: int | None = _setting(None, least=1)
    desk_scale: bool = True
    data_dir: str | None = None
    out_dir: str | None = _setting(None, flag="--out")
    preset: str | None = _setting(None, choices=tuple(sorted(PRESETS)))


# Desk-scale substitutions: dataset subsets and epoch budgets.
DESK_EPOCHS = {"mnist-rows": 5, "fashion-rows": 5, "ptb": 3, "sentiment": 3, "synthetic": 4}
DESK_MNIST_TRAIN = 10000
DESK_MNIST_TEST = 2000
DESK_SENTIMENT_PER_CLASS = 1000

SYNTH_COUNT = 5000
SYNTH_T = 28
SYNTH_M = 8
SYNTH_CLASSES = 4
SYNTH_NOISE = 0.25

# Each classifier task fixes its own class count.
TASK_CLASSES = {"mnist-rows": 10, "fashion-rows": 10, "sentiment": 2, "synthetic": SYNTH_CLASSES}


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer preset (the --preset flag's, else the config file's) -> config file -> explicit flags into a RunConfig."""
    file_cfg: dict = {}
    cfg_path = getattr(args, "config", None)
    if cfg_path is not None:
        try:
            file_cfg = json.loads(Path(cfg_path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config file {cfg_path}: {e}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {cfg_path} must hold a JSON object")
    preset = getattr(args, "preset", None) or file_cfg.get("preset")
    # a preset that names none of PRESETS stays in merged, from its flag or file, for validate_config to reject
    merged = dict(PRESETS.get(preset, {}) if isinstance(preset, str) else {})
    merged.update(file_cfg)
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    for name in field_names:
        val = getattr(args, name, None)
        if val is not None:
            merged[name] = val
    unknown = set(merged) - field_names
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    cfg = RunConfig(**merged)
    epochs_pinned = "epochs" in file_cfg or getattr(args, "epochs", None) is not None
    if cfg.desk_scale and preset is not None and not epochs_pinned:
        cfg.epochs = DESK_EPOCHS.get(cfg.task, cfg.epochs)
    validate_config(cfg)
    return cfg


# JSON value types each RunConfig annotation accepts; a JSON number may fill a float field
_JSON_TYPES = {"str": (str,), "int": (int,), "float": (int, float), "bool": (bool,), "None": (type(None),)}


def validate_config(cfg: RunConfig) -> None:
    for f in dataclasses.fields(RunConfig):
        value = getattr(cfg, f.name)
        allowed = tuple(t for name in f.type.split(" | ") for t in _JSON_TYPES[name])
        # bool is an int subclass, but true/false is no number
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if value is None:
            continue
        choices, least = f.metadata.get("choices"), f.metadata.get("least")
        if choices is not None and value not in choices:
            raise ConfigError(f"unknown {f.name} {value!r}; choices: {', '.join(choices)}")
        if least is not None and value < least:
            raise ConfigError(f"{f.name} must be >= {least}")
    if not 0.0 <= cfg.dropout < 1.0:
        raise ConfigError("dropout must be in [0, 1)")
    if cfg.lr <= 0 or cfg.clip_norm <= 0:
        raise ConfigError("lr and clip_norm must be positive")
    if not 0.0 < cfg.decay_factor <= 1.0:
        raise ConfigError("decay_factor must be in (0, 1]")
    if cfg.task in ("mnist-rows", "fashion-rows", "ptb", "sentiment") and cfg.data_dir is None:
        raise ConfigError(f"task {cfg.task} requires --data-dir")


def default_out_dir(cfg: RunConfig) -> Path:
    root = cfg.out_dir or os.environ.get("RAU_OUT_DIR", "runs")
    return Path(root) / f"{cfg.task}-{cfg.cell}-seed{cfg.seed}"


def _subset_sentiment(s: datamod.SentimentSet, per_class: int) -> datamod.SentimentSet:
    pos = np.flatnonzero(s.labels == 1)[:per_class]
    neg = np.flatnonzero(s.labels == 0)[:per_class]
    idx = np.concatenate([pos, neg])
    return datamod.SentimentSet(s.documents[idx], s.labels[idx], s.vocab, s.max_len)


def load_task(cfg: RunConfig, data_rng: Rng):
    """The task's data by split name, and its vocabulary size (None for row inputs).

    LM splits are token streams, each at least two tokens per batch row;
    classifier splits are (inputs, labels) pairs, and classifier tasks
    hold out only a test split.
    """
    if cfg.task == "synthetic":
        def draw(count):
            return datamod.synthetic_memorization(data_rng, count, SYNTH_T, SYNTH_M, SYNTH_CLASSES, SYNTH_NOISE)
        return {"train": draw(SYNTH_COUNT), "test": draw(SYNTH_COUNT // 5)}, None
    d = Path(cfg.data_dir)
    if cfg.task == "ptb":
        corpus = datamod.load_token_corpus(
            d / "ptb.train.txt", d / "ptb.valid.txt", d / "ptb.test.txt", max_vocab=cfg.vocab)
        splits = {"train": corpus.train, "valid": corpus.valid, "test": corpus.test}
        for name, stream in splits.items():
            if len(stream) < 2 * cfg.batch_size:
                raise ConfigError(f"{name} split has {len(stream)} tokens; batch_size {cfg.batch_size} "
                                  f"needs at least {2 * cfg.batch_size}")
        return splits, len(corpus.vocab)
    if cfg.task == "sentiment":
        train = datamod.load_sentiment(d / "train", max_vocab=cfg.vocab, max_len=cfg.max_len)
        test = datamod.load_sentiment(d / "test", max_vocab=cfg.vocab, max_len=cfg.max_len, vocab=train.vocab)
        if cfg.desk_scale:
            train = _subset_sentiment(train, DESK_SENTIMENT_PER_CLASS)
            test = _subset_sentiment(test, DESK_SENTIMENT_PER_CLASS)
        return {"train": (train.documents, train.labels), "test": (test.documents, test.labels)}, len(train.vocab)
    if cfg.task in ("mnist-rows", "fashion-rows"):
        train = datamod.load_idx(d / "train-images-idx3-ubyte", d / "train-labels-idx1-ubyte")
        test = datamod.load_idx(d / "t10k-images-idx3-ubyte", d / "t10k-labels-idx1-ubyte")
        if cfg.desk_scale:
            train = datamod.ImageSet(train.images[:DESK_MNIST_TRAIN], train.labels[:DESK_MNIST_TRAIN])
            test = datamod.ImageSet(test.images[:DESK_MNIST_TEST], test.labels[:DESK_MNIST_TEST])
        classes = TASK_CLASSES[cfg.task]
        for s in (train, test):
            if s.labels.max(initial=0) >= classes:
                raise datamod.DataError(f"{cfg.task} labels must be below {classes}, got {s.labels.max()}")
        return {
            "train": (datamod.images_to_sequences(train.images), train.labels.astype(np.int64)),
            "test": (datamod.images_to_sequences(test.images), test.labels.astype(np.int64)),
        }, None
    raise ConfigError(f"unhandled task {cfg.task!r}")


def _seed_streams(seed: int) -> tuple[Rng, Rng, Rng]:
    """The init, data and train streams, split from the run seed in that order."""
    root = Rng(seed)
    return root.split(), root.split(), root.split()


def _evaluate(cfg: RunConfig, model, data, epoch: int, step: int, split: str) -> MetricsRecord:
    """Score one split: perplexity of an LM token stream, accuracy of a classifier split."""
    t0 = time.monotonic()
    if model.readout == "every":
        loss, value = evaluate_lm(model, data, cfg.batch_size, cfg.unroll)
        name = "perplexity"
    else:
        loss, value = evaluate_classifier(model, *data)
        name = "accuracy"
    return MetricsRecord(epoch, step, split, loss, name, value, int((time.monotonic() - t0) * 1000), cfg.seed)


def _emit(records: list, record: MetricsRecord, fh) -> None:
    records.append(record)
    fh.write(record.to_json() + "\n")
    fh.flush()


def run_experiment(cfg: RunConfig, out_dir: Path) -> list:
    """Train per config, writing metrics.jsonl, model.bin, config.json into out_dir."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")
    ckpt_path = out_dir / "model.bin"
    init_rng, data_rng, train_rng = _seed_streams(cfg.seed)
    records: list = []
    schedule = LrSchedule(cfg.lr, cfg.decay_factor, cfg.decay_start_epoch)

    with open(out_dir / "metrics.jsonl", "w") as fh:
        splits, vocab = load_task(cfg, data_rng)
        lm = cfg.task == "ptb"
        if lm:
            model = build_language_model(cfg.cell, vocab, cfg.hidden, cfg.layers, cfg.init_scale, init_rng,
                                         dropout=cfg.dropout)
        elif vocab is not None:
            model = build_classifier(cfg.cell, None, cfg.hidden, cfg.layers, TASK_CLASSES[cfg.task], cfg.init_scale,
                                     init_rng, vocab=vocab, emb_dim=cfg.emb_dim or 100, dropout=cfg.dropout)
        else:
            model = build_classifier(cfg.cell, splits["train"][0].shape[2], cfg.hidden, cfg.layers,
                                     TASK_CLASSES[cfg.task], cfg.init_scale, init_rng, dropout=cfg.dropout)
        opt = make_optimizer(cfg.optimizer, model, cfg.lr)
        # an LM is scored on valid after each epoch and on test at the end;
        # a classifier on test after each epoch
        per_epoch_split = "valid" if lm else "test"
        total_steps = 0
        epoch = 0  # the last epoch run: short of cfg.epochs after a max_steps stop
        saved = None  # the checkpoint this run last wrote; a model.bin already in out_dir may be another run's
        try:
            for epoch in range(1, cfg.epochs + 1):
                opt.lr = lr_at(schedule, epoch)
                if lm:
                    rec, steps = train_epoch_lm(model, splits["train"], opt, train_rng, cfg.batch_size, cfg.unroll,
                                                epoch, cfg.seed, cfg.clip_norm, cfg.max_steps, total_steps)
                else:
                    rec, steps = train_epoch_classifier(model, *splits["train"], opt, train_rng, cfg.batch_size,
                                                        epoch, cfg.seed, cfg.clip_norm, cfg.max_steps, total_steps)
                total_steps += steps
                _emit(records, rec, fh)
                _emit(records, _evaluate(cfg, model, splits[per_epoch_split], epoch, total_steps, per_epoch_split),
                      fh)
                save_checkpoint(ckpt_path, model, dataclasses.asdict(cfg))
                saved = str(ckpt_path)
                if cfg.max_steps is not None and total_steps >= cfg.max_steps:
                    break
        except DivergenceError as e:
            e.checkpoint_path = saved
            raise
        if lm:
            _emit(records, _evaluate(cfg, model, splits["test"], epoch, total_steps, "test"), fh)
    return records


def cmd_train(args: argparse.Namespace) -> int:
    try:
        cfg = resolve_config(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out_dir = default_out_dir(cfg)
    if not cfg.desk_scale:
        print("warning: full-scale run requested; expect hours of CPU time "
              "(desk-scale presets finish in minutes)", file=sys.stderr)
    try:
        records = run_experiment(cfg, out_dir)
    except (datamod.DataError, OSError, ConfigError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except DivergenceError as e:
        where = f"; last good checkpoint: {e.checkpoint_path}" if e.checkpoint_path else ""
        print(f"error: {e}{where}", file=sys.stderr)
        return EXIT_DIVERGED
    final = records[-1]
    print(f"done: {len(records)} metric records; final {final.split} "
          f"{final.metric_name}={final.metric_value:.4f} (out: {out_dir})")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        model, cfg_echo = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    cfg = RunConfig(**{k: v for k, v in cfg_echo.items() if k in {f.name for f in dataclasses.fields(RunConfig)}})
    if args.data_dir is not None:
        cfg.data_dir = args.data_dir
    try:
        validate_config(cfg)
        if (model.readout == "every") != (cfg.task == "ptb"):
            raise ConfigError(f"the checkpoint's model does not fit its task {cfg.task!r}")
        _, data_rng, _ = _seed_streams(cfg.seed)
        data = load_task(cfg, data_rng)[0].get(args.split)
        if data is None:
            raise ConfigError(f"split {args.split!r} unavailable")
        rec = _evaluate(cfg, model, data, 0, 0, args.split)
    except (datamod.DataError, OSError, ConfigError, KeyError, ContractError) as e:
        # a ContractError: the checkpoint's config echo does not fit its model
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    print(rec.to_json())
    return EXIT_OK


def cmd_gradcheck(args: argparse.Namespace) -> int:
    small = [f"--{name}" for name in ("m", "n", "T", "trials") if getattr(args, name) < 1]
    if small:
        print(f"error: {', '.join(small)} must be >= 1", file=sys.stderr)
        return EXIT_BAD_CONFIG
    failed = False
    print(f"gradient check: cell={args.cell} m={args.m} n={args.n} T={args.T} "
          f"trials={args.trials} seed={args.seed} tolerance={GRADCHECK_TOLERANCE:g}")
    worst = gradcheck_cell(args.cell, args.m, args.n, args.T, args.trials, args.seed,
                           perturb=args.perturb)
    width = max(len(k) for k in worst)
    for name, err in worst.items():
        ok = err <= GRADCHECK_TOLERANCE
        failed = failed or not ok
        print(f"  {name:<{width}}  {err:12.3e}  {'ok' if ok else 'FAIL'}")
    print("gradcheck PASSED" if not failed else "gradcheck FAILED")
    return EXIT_OK if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rau", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model per config/preset")
    p_train.add_argument("--config", help="JSON config file merged under explicit flags")
    for f in dataclasses.fields(RunConfig):
        flag = f.metadata.get("flag") or "--" + f.name.replace("_", "-")
        kind = f.type.split(" | ")[0]
        if kind == "bool":
            # accepts --flag, --flag=false, --no-flag
            p_train.add_argument(flag, dest=f.name, nargs="?", const=True, type=_parse_bool)
            p_train.add_argument("--no-" + flag[2:], dest=f.name, action="store_false", default=None)
        else:
            p_train.add_argument(flag, dest=f.name, type={"int": int, "float": float}.get(kind),
                                 choices=f.metadata.get("choices"))
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p_eval.add_argument("--data-dir", dest="data_dir")
    p_eval.set_defaults(func=cmd_eval)

    p_gc = sub.add_parser("gradcheck", help="verify BPTT gradients against central differences")
    p_gc.add_argument("--cell", choices=CELL_KINDS, default="rau")
    p_gc.add_argument("--m", type=int, default=3)
    p_gc.add_argument("--n", type=int, default=4)
    p_gc.add_argument("--T", type=int, default=5)
    p_gc.add_argument("--trials", type=int, default=10)
    p_gc.add_argument("--seed", type=int, default=7)
    p_gc.add_argument("--perturb", type=float, default=0.0, help=argparse.SUPPRESS)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

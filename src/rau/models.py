"""One model over a recurrent cell stack, for a sequence classifier and a word LM.

A `SequenceModel` runs any of the three cell kinds, stacked; layer k
feeds on layer k-1's hidden state. The two tasks differ only in the
input (feature rows or token ids through an embedding) and the readout
of the affine head: the last step for a classifier, every step for an
LM. Dropout (inverted scaling) applies only on
cell inputs and on the top hidden state before the output layer, never
on the recurrent path. Forward passes return a Tape when training so
`autograd.backward` can replay them.

Shapes: a single sequence is (T, m) (or (T,) token ids); a batch is
(B, T, m) (or (B, T) ids). Logits come back (classes,) / (B, classes)
for the classifier and steps-first (T, vocab) / (T, B, vocab) for the
language model.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autograd, cells
from .autograd import Tape
from .cells import init_cell, iter_tensors
from .linalg import ContractError, Rng, init_matrix

CHECKPOINT_MAGIC = b"RAUM"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable or inconsistent checkpoint file."""


@dataclass
class DropoutSpec:
    """Dropout rate in [0, 1); 0 disables. Applied at cell inputs and head input."""

    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ContractError(f"dropout rate must be in [0, 1), got {self.rate}")


def dropout_mask(rng: Rng, shape, rate: float) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    keep = rng.uniform01(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


@dataclass
class SequenceModel:
    """Cell stack with an affine head and an optional token embedding.

    The builders set the readout: a classifier ("last") reads out the
    top hidden state of the final step, a language model ("every") the
    top hidden state of every step. The cells name their kind; a
    checkpoint records one, so the stack holds cells of one kind.
    """

    cells: list
    w_out: np.ndarray
    b_out: np.ndarray
    embedding: np.ndarray | None = None
    dropout: DropoutSpec = field(default_factory=DropoutSpec)
    readout: str = "last"
    version: int = 0  # bumped by `train.apply_update`, so a tape of an older one raises; no checkpoint keeps it

    def __post_init__(self):
        kinds = {cells._kind_of(p, "SequenceModel") for p in self.cells}
        if len(kinds) != 1:
            raise ContractError(f"SequenceModel: a stack of one cell kind, got {sorted(kinds) or 'no cells'}")

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size


def _cells_and_head(cell_kind, input_size, hidden, layers, outputs, scale, rng):
    """Draw the cells, then the head weights."""
    if layers < 1:
        raise ContractError("layers must be >= 1")
    cell_list = [init_cell(cell_kind, input_size if k == 0 else hidden, hidden, scale, rng) for k in range(layers)]
    return cell_list, init_matrix(outputs, hidden, scale, rng), np.zeros(outputs)


def build_classifier(cell_kind, input_size, hidden, layers, classes, scale, rng,
                     vocab=None, emb_dim=None, dropout=0.0) -> SequenceModel:
    embedding = None
    if vocab is not None:
        emb_dim = emb_dim or hidden
        embedding = init_matrix(vocab, emb_dim, scale, rng)
        input_size = emb_dim
    cell_list, w_out, b_out = _cells_and_head(cell_kind, input_size, hidden, layers, classes, scale, rng)
    return SequenceModel(cell_list, w_out, b_out, embedding, DropoutSpec(dropout), readout="last")


def build_language_model(cell_kind, vocab, hidden, layers, scale, rng, dropout=0.0) -> SequenceModel:
    cell_list, w_out, b_out = _cells_and_head(cell_kind, hidden, hidden, layers, vocab, scale, rng)
    embedding = init_matrix(vocab, hidden, scale, rng)
    return SequenceModel(cell_list, w_out, b_out, embedding, DropoutSpec(dropout), readout="every")


def _lookup_tokens(embedding: np.ndarray, ids: np.ndarray, op: str):
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"{op}: token ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= embedding.shape[0]):
        raise ContractError(f"{op}: token id out of range for vocab {embedding.shape[0]}")
    return ids


def _forward(mdl: SequenceModel, inputs: np.ndarray, states, train_mode: bool, rng, *, traces: list | None = None):
    """Unroll the stack over batch-first inputs, apply the readout, record the tape.

    inputs are (B, T) token ids for a model with an embedding, else
    (B, T, m) features. states are the per-layer start states, or None
    for zeros. Dropout masks are drawn fresh per step and layer, all of
    them before the first step, step-major, then layer, and applied to
    each layer's input; then one is drawn for the head input. Each layer
    records into one `cells.Trace`: T rows in train mode, for the tape,
    and in eval mode one row that every step overwrites, so an eval
    pass's memory does not grow with the sequence length. Returns
    (logits, final states, tape or None).

    Each layer runs its steps in order on its own state, trace and masks,
    so the outputs keep their bits however the layers interleave. Where
    `autograd._forward_plan` answers "wavefront", the worker thread runs the
    upper layers' step t while the caller runs the first layer's step t+1;
    where it answers "attention", each step's attention branch beside the
    step's GRU branch. Given eval traces (see `train.evaluate_classifier`),
    it records into them and hands nothing over.
    """
    rate = mdl.dropout.rate
    use_drop = train_mode and rate > 0.0
    if use_drop and rng is None:
        raise ContractError("dropout requires an rng in train mode")
    B, T = inputs.shape[:2]
    # a step writes no state array in place, so the start states need no copy
    states = [cells.zero_state(p, B) for p in mdl.cells] if states is None else list(states)
    xs_steps = [inputs[:, t] for t in range(T)]
    token_ids = None
    if mdl.embedding is not None:
        token_ids = inputs
        xs_steps = [mdl.embedding[ids] for ids in xs_steps]
    R = T if train_mode else 1
    plan = None if traces else autograd._forward_plan(mdl.cells, B)
    traces = traces or [cells.new_trace(p, R, (B,)) for p in mdl.cells]
    rows = [[trace.row(r) for r in range(R)] for trace in traces]
    in_masks = None
    if use_drop:
        in_masks = [np.empty((T, B, p.input_size)) for p in mdl.cells]
        for t in range(T):
            for masks in in_masks:
                masks[t] = dropout_mask(rng, masks.shape[1:], rate)
    # the "last" readout reads one step's top state, so its one slot takes every step's (see `_steps`)
    layers, top_steps = range(len(mdl.cells)), [None] * (T if mdl.readout == "every" else 1)
    if plan == "wavefront":
        # the worker runs the upper layers' step t beside the first layer's step t+1
        first_h = [None] * T
        first = functools.partial(_steps, mdl, layers[:1], xs_steps, first_h, states, rows, in_masks)
        upper = functools.partial(_steps, mdl, layers[1:], first_h, top_steps, states, rows, in_masks)
        first(range(1))
        for t in range(1, T):
            autograd._beside(functools.partial(upper, range(t - 1, t)), True, first, range(t, t + 1))
        upper(range(T - 1, T))
    else:
        # with the "attention" plan, each RAU step hands its attention branch to the worker (see `cells.rau_step`)
        beside = autograd._beside if plan == "attention" else None
        _steps(mdl, layers, xs_steps, top_steps, states, rows, in_masks, range(T), beside)

    head_in = top_steps[-1] if mdl.readout == "last" else np.stack(top_steps)  # (B, n) or (T, B, n)
    out_masks = None
    if use_drop:
        out_masks = dropout_mask(rng, head_in.shape, rate)
        head_in = head_in * out_masks
    # one GEMM for every position the head reads, the bias added into its output in place; at a
    # vocabulary-sized head the worker thread takes about half of the rows (see `autograd._split_gemm`)
    logits = autograd._split_gemm(head_in.reshape(-1, mdl.hidden_size), mdl.w_out.T, mdl.b_out)
    logits = logits.reshape(head_in.shape[:-1] + (-1,))

    tape = Tape(mdl, traces, head_in, in_masks, out_masks, token_ids, mdl.version) if train_mode else None
    return logits, states, tape


def _steps(mdl: SequenceModel, layers: range, inputs: list, outputs: list, states: list, rows: list,
           in_masks: list | None, steps: range, beside=None) -> None:
    """Each step t in steps, in order, of the layers in layers, in order: the first layer's input is
    inputs[t], each layer's goes through its dropout mask if in_masks is given, and the last layer's h
    goes to outputs[t % len(outputs)]. beside, if given, goes to each RAU step (see `cells.rau_step`).

    A layer steps only its own state, trace rows and masks, so two threads may run two layers' steps.
    """
    for t in steps:
        inp = inputs[t]
        for l in layers:
            if in_masks is not None:
                inp = inp * in_masks[l][t]
            row = rows[l][t % len(rows[l])]
            if beside is None:
                states[l], _ = cells.step(mdl.cells[l], inp, states[l], row)
            else:
                states[l] = cells.CellState(cells.rau_step(mdl.cells[l], inp, states[l].h, row, beside=beside)[0])
            inp = states[l].h
        outputs[t % len(outputs)] = inp


def classify_forward(mdl: SequenceModel, seq, train_mode: bool = False, rng: Rng | None = None, *,
                     _traces: list | None = None):
    """Run the stack over a sequence and read out logits from the final state; _traces go to `_forward`."""
    if mdl.embedding is not None:
        arr = _lookup_tokens(mdl.embedding, seq, "classify_forward")
        single = arr.ndim == 1
    else:
        arr = np.asarray(seq, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ContractError(f"classify_forward: sequence must be (T, m) or (B, T, m), got {arr.shape}")
        single = arr.ndim == 2
    if single:
        arr = arr[None]
    if arr.shape[1] == 0:
        raise ContractError("classify_forward: empty sequence")
    logits, _, tape = _forward(mdl, arr, None, train_mode, rng, traces=_traces)
    return (logits[0] if single else logits), tape


def lm_forward(mdl: SequenceModel, tokens, h_init=None, train_mode: bool = False, rng: Rng | None = None):
    """Teacher-forced next-token logits at every position.

    tokens are the input ids; the caller supplies shifted targets.
    Returns (logits steps-first, final per-layer states, tape). Final
    states carry across windows; gradients do not cross the window.
    """
    ids = _lookup_tokens(mdl.embedding, tokens, "lm_forward")
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    if ids.shape[1] == 0:
        raise ContractError("lm_forward: empty sequence")
    if h_init is not None and len(h_init) != len(mdl.cells):
        raise ContractError(f"lm_forward: {len(h_init)} start states for {len(mdl.cells)} layers")
    logits, states, tape = _forward(mdl, ids, h_init, train_mode, rng)
    if single:
        logits = logits[:, 0, :]
    return logits, states, tape


# cross_entropy works through the rows in blocks of about this many bytes of
# logits, so each block's shift, exp and sums stay in cache.
CE_BLOCK_BYTES = 1 << 20


def cross_entropy(logits: np.ndarray, target, grad: bool = True):
    """Softmax cross-entropy loss and its logit gradient.

    Single example: logits (k,), integer target -> (loss, dlogits).
    Batch: logits (B, k), targets (B,) -> mean loss and dlogits already
    scaled by 1/B, so backward() yields mean-loss gradients. With
    grad=False dlogits is None and no logit-sized array is built; the
    loss is the same to the bit.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    lg = logits[None, :] if single else logits
    if lg.ndim != 2:
        raise ContractError(f"cross_entropy: logits must be (k,) or (B, k), got {logits.shape}")
    tg = np.atleast_1d(np.asarray(target))
    B, k = lg.shape
    if tg.dtype.kind not in "iu":
        raise ContractError(f"cross_entropy: targets must be integers, got {tg.dtype}")
    if tg.shape != (B,):
        raise ContractError(f"cross_entropy: targets shaped {tg.shape} for {B} rows of logits")
    if B == 0:
        raise ContractError("cross_entropy: empty batch")
    if tg.min() < 0 or tg.max() >= k:
        raise ContractError("cross_entropy: target out of range")
    block = max(1, CE_BLOCK_BYTES // (8 * k))
    # with grad, each block lands in its rows of dlogits; without, each half of the rows (see
    # `autograd._in_halves`) reuses a block buffer of its own
    buf = np.empty_like(lg) if grad else np.empty((2, min(block, B), k))
    nll = np.empty(B)
    autograd._in_halves(B, block, k * autograd.ELEMENT_FLOP, _cross_entropy_rows, lg, tg, buf, nll, block, grad)
    # a non-finite loss is the caller's to judge: numpy's overflow warning on the way there would only be noise
    with np.errstate(over="ignore"):
        loss = float(np.mean(nll))
    if not grad:
        return loss, None
    return loss, (buf[0] if single else buf)


def _cross_entropy_rows(lg: np.ndarray, tg: np.ndarray, buf: np.ndarray, nll: np.ndarray, block: int, grad: bool,
                       part: slice) -> None:
    """cross_entropy's loss, and with grad its dlogits, for the rows in part, a block at a time from part.start."""
    B = len(nll)
    scratch = None if grad else buf[0 if part.start == 0 else 1]
    for lo in range(part.start, part.stop, block):
        hi = min(lo + block, part.stop)
        rows = np.arange(hi - lo)
        t = tg[lo:hi]
        # one exp, in place: the shifted logits become (probs - onehot) / B
        d = buf[lo:hi] if grad else scratch[:hi - lo]
        np.subtract(lg[lo:hi], lg[lo:hi].max(axis=1, keepdims=True), out=d)
        picked = d[rows, t]
        np.exp(d, out=d)
        total = d.sum(axis=1, keepdims=True)
        np.subtract(np.log(total[:, 0]), picked, out=nll[lo:hi])
        if grad:
            d *= 1.0 / (total * B)
            d[rows, t] -= 1.0 / B


def perplexity(total_log_loss: float, token_count: int) -> float:
    """exp of the average per-token negative log likelihood (natural log)."""
    if token_count < 1:
        raise ContractError("perplexity: token_count must be >= 1")
    return float(np.exp(total_log_loss / token_count))


def _model_spec(model: SequenceModel) -> dict:
    if model.readout == "every":
        return {
            "type": "lm",
            "cell": model.cells[0].kind,
            "hidden": model.hidden_size,
            "layers": len(model.cells),
            "vocab": model.embedding.shape[0],
            "dropout": model.dropout.rate,
        }
    return {
        "type": "classifier",
        "cell": model.cells[0].kind,
        "input_size": model.cells[0].input_size if model.embedding is None else None,
        "hidden": model.hidden_size,
        "layers": len(model.cells),
        "classes": model.w_out.shape[0],
        "vocab": None if model.embedding is None else int(model.embedding.shape[0]),
        "emb_dim": None if model.embedding is None else int(model.embedding.shape[1]),
        "dropout": model.dropout.rate,
    }


def _positive_int(spec: dict, key: str) -> int:
    value = spec.get(key)
    if type(value) is not int or value < 1:
        raise CheckpointError(f"checkpoint model spec: {key!r} must be a positive integer, got {value!r}")
    return value


def _build_from_spec(spec, payload_bytes: int) -> SequenceModel:
    """Rebuild the zero model a checkpoint spec describes; scale 0 draws no random numbers.

    Every field is checked, and the tensor bytes the spec implies are
    compared with the payload, before anything is allocated: a header
    cannot make the loader build a model larger than its file.
    """
    if not isinstance(spec, dict) or spec.get("type") not in ("classifier", "lm"):
        raise CheckpointError("checkpoint holds no classifier or lm model spec")
    cell, dropout = spec.get("cell"), spec.get("dropout")
    if cell not in cells.CELL_KINDS:
        raise CheckpointError(f"unknown cell kind {cell!r} in checkpoint")
    if type(dropout) not in (int, float) or not 0.0 <= dropout < 1.0:
        raise CheckpointError(f"checkpoint dropout must be in [0, 1), got {dropout!r}")
    hidden, layers = _positive_int(spec, "hidden"), _positive_int(spec, "layers")
    if spec["type"] == "lm":
        vocab = outputs = _positive_int(spec, "vocab")
        m0, emb_floats = hidden, vocab * hidden
    else:
        outputs = _positive_int(spec, "classes")
        if spec.get("vocab") is None:
            m0, emb_floats = _positive_int(spec, "input_size"), 0
        else:
            m0 = _positive_int(spec, "emb_dim")
            emb_floats = _positive_int(spec, "vocab") * m0
    floats = (emb_floats + cells.param_count(cell, m0, hidden) + (layers - 1) * cells.param_count(cell, hidden, hidden)
              + outputs * (hidden + 1))
    if 8 * floats != payload_bytes:
        what = "truncated checkpoint tensors" if 8 * floats > payload_bytes else "trailing bytes after checkpoint tensors"
        raise CheckpointError(f"{what}: the spec implies {8 * floats} bytes, the file holds {payload_bytes}")
    if spec["type"] == "lm":
        return build_language_model(cell, vocab, hidden, layers, 0.0, Rng(0), dropout=dropout)
    return build_classifier(cell, spec.get("input_size"), hidden, layers, outputs, 0.0, Rng(0),
                            vocab=spec.get("vocab"), emb_dim=spec.get("emb_dim"), dropout=dropout)


def save_checkpoint(path, model, config: dict | None = None) -> None:
    """Write magic, version, a JSON config echo, then raw little-endian f64 tensors.

    The bytes go to `<path>.tmp` in the same directory, are flushed and
    fsynced, and only then replace `path`: a crash or error mid-write
    leaves the previous checkpoint whole and no temp file behind.
    """
    echo = {"model": _model_spec(model), "config": config or {}}
    blob = json.dumps(echo, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for _, arr in iter_tensors(model):
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Rebuild the model recorded at `path`; returns (model, config echo).

    The header is read and checked first; each tensor is then read
    straight into its array, so a load holds the payload once. A
    malformed, truncated or inconsistent file raises CheckpointError.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(12)
        if len(prefix) < 12 or prefix[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, got {prefix[:4]!r}")
        version, blob_len = struct.unpack("<II", prefix[4:])
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        if size < 12 + blob_len:
            raise CheckpointError("truncated checkpoint header")
        try:
            echo = json.loads(f.read(blob_len).decode("utf-8"))
        except (ValueError, RecursionError) as e:  # ValueError covers bad JSON and bad UTF-8
            raise CheckpointError(f"unreadable checkpoint header: {e}") from e
        if not isinstance(echo, dict) or not isinstance(echo.get("config"), dict):
            raise CheckpointError("checkpoint header must be an object with a 'config' object")
        model = _build_from_spec(echo.get("model"), size - 12 - blob_len)
        for _, arr in iter_tensors(model):
            if f.readinto(memoryview(arr).cast("B")) != arr.nbytes:
                raise CheckpointError("truncated checkpoint tensors: the file shrank while it was read")
            if not np.little_endian:  # the file holds little-endian f64
                arr.byteswap(inplace=True)
    return model, echo["config"]

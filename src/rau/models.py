"""Task heads over a recurrent cell stack: sequence classifier and word LM.

Both models run any of the three cell kinds, stacked; layer k feeds on
layer k-1's hidden state. Dropout (inverted scaling) applies only on
cell inputs and on the top hidden state before the output layer, never
on the recurrent path. Forward passes return a Tape when training so
`autograd.backward` can replay them.

Shapes: a single sequence is (T, m) (or (T,) token ids); a batch is
(B, T, m) (or (B, T) ids). Logits come back (classes,) / (B, classes)
for the classifier and steps-first (T, vocab) / (T, B, vocab) for the
language model.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import cells
from .autograd import Tape
from .cells import CellState, init_cell, iter_tensors
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
class Classifier:
    """Cell stack with a final-step affine readout; optional token embedding."""

    cells: list
    w_out: np.ndarray
    b_out: np.ndarray
    embedding: np.ndarray | None = None
    cell_kind: str = "gru"
    dropout: DropoutSpec = field(default_factory=DropoutSpec)

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size

    @property
    def num_classes(self) -> int:
        return self.w_out.shape[0]


@dataclass
class LanguageModel:
    """Embedding, cell stack, and per-step projection onto the vocabulary."""

    cells: list
    w_out: np.ndarray
    b_out: np.ndarray
    embedding: np.ndarray
    cell_kind: str = "gru"
    dropout: DropoutSpec = field(default_factory=DropoutSpec)

    @property
    def hidden_size(self) -> int:
        return self.cells[-1].hidden_size

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0]


def build_classifier(cell_kind, input_size, hidden, layers, classes, scale, rng,
                     vocab=None, emb_dim=None, dropout=0.0) -> Classifier:
    if layers < 1:
        raise ContractError("build_classifier: layers must be >= 1")
    embedding = None
    m0 = input_size
    if vocab is not None:
        emb_dim = emb_dim or hidden
        embedding = init_matrix(vocab, emb_dim, scale, rng)
        m0 = emb_dim
    cell_list = [init_cell(cell_kind, m0 if k == 0 else hidden, hidden, scale, rng) for k in range(layers)]
    return Classifier(
        cells=cell_list,
        w_out=init_matrix(classes, hidden, scale, rng),
        b_out=np.zeros(classes),
        embedding=embedding,
        cell_kind=cell_kind,
        dropout=DropoutSpec(dropout),
    )


def build_language_model(cell_kind, vocab, hidden, layers, scale, rng, dropout=0.0) -> LanguageModel:
    if layers < 1:
        raise ContractError("build_language_model: layers must be >= 1")
    cell_list = [init_cell(cell_kind, hidden, hidden, scale, rng) for _ in range(layers)]
    return LanguageModel(
        cells=cell_list,
        w_out=init_matrix(vocab, hidden, scale, rng),
        b_out=np.zeros(vocab),
        embedding=init_matrix(vocab, hidden, scale, rng),
        cell_kind=cell_kind,
        dropout=DropoutSpec(dropout),
    )


def _lookup_tokens(embedding: np.ndarray, ids: np.ndarray, op: str):
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ContractError(f"{op}: token ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= embedding.shape[0]):
        raise ContractError(f"{op}: token id out of range for vocab {embedding.shape[0]}")
    return ids


def _run_stack(model, xs_steps, states, train_mode, rng):
    """Unroll the cell stack over prepared per-step inputs.

    Returns (top hidden per step, traces[layer][t], in_masks or None,
    final states). Dropout masks are drawn fresh per step and applied
    to each layer's input. Only train mode keeps the traces: an eval
    pass frees each step's gate arrays as it goes, so its memory does
    not grow with the sequence length.
    """
    rate = model.dropout.rate
    use_drop = train_mode and rate > 0.0
    if use_drop and rng is None:
        raise ContractError("dropout requires an rng in train mode")
    L = len(model.cells)
    T = len(xs_steps)
    traces = [[] for _ in range(L)]
    in_masks = [[None] * T for _ in range(L)] if use_drop else None
    top_steps = []
    for t in range(T):
        inp = xs_steps[t]
        for l, p in enumerate(model.cells):
            if use_drop:
                mask = dropout_mask(rng, inp.shape, rate)
                in_masks[l][t] = mask
                inp = inp * mask
            states[l], tr = cells.step(model.cell_kind, p, inp, states[l])
            if train_mode:
                traces[l].append(tr)
            inp = states[l].h
        top_steps.append(inp)
    return top_steps, traces, in_masks, states


def classify_forward(mdl: Classifier, seq, train_mode: bool = False, rng: Rng | None = None):
    """Run the stack over a sequence and read out logits from the final state."""
    if mdl.embedding is not None:
        ids = _lookup_tokens(mdl.embedding, seq, "classify_forward")
        single = ids.ndim == 1
        if single:
            ids = ids[None, :]
        if ids.shape[1] == 0:
            raise ContractError("classify_forward: empty sequence")
        token_ids = ids
        xs_steps = [mdl.embedding[ids[:, t]] for t in range(ids.shape[1])]
    else:
        arr = np.asarray(seq, dtype=np.float64)
        if arr.ndim == 2:
            single = True
            arr = arr[None, :, :]
        elif arr.ndim == 3:
            single = False
        else:
            raise ContractError(f"classify_forward: sequence must be (T, m) or (B, T, m), got {arr.shape}")
        if arr.shape[1] == 0:
            raise ContractError("classify_forward: empty sequence")
        token_ids = None
        xs_steps = [arr[:, t, :] for t in range(arr.shape[1])]

    batch = xs_steps[0].shape[0]
    n = mdl.hidden_size
    states = [cells.zero_state(mdl.cell_kind, n, batch) for _ in mdl.cells]
    top_steps, traces, in_masks, states = _run_stack(mdl, xs_steps, states, train_mode, rng)

    h_final = top_steps[-1]
    out_mask = None
    if train_mode and mdl.dropout.rate > 0.0:
        out_mask = dropout_mask(rng, h_final.shape, mdl.dropout.rate)
        h_final = h_final * out_mask
    logits = h_final @ mdl.w_out.T + mdl.b_out

    tape = None
    if train_mode:
        tape = Tape(
            kind="classifier",
            cell_kind=mdl.cell_kind,
            cell_params=list(mdl.cells),
            traces=traces,
            cell_prefixes=[f"cells.{k}" for k in range(len(mdl.cells))],
            head_w=mdl.w_out,
            head_b=mdl.b_out,
            head_in=h_final,
            in_masks=in_masks,
            out_masks=out_mask,
            token_ids=token_ids,
            emb=mdl.embedding,
            model_params=mdl,
        )
    if single:
        logits = logits[0]
    return logits, tape


def lm_forward(mdl: LanguageModel, tokens, h_init=None, train_mode: bool = False, rng: Rng | None = None):
    """Teacher-forced next-token logits at every position.

    tokens are the input ids; the caller supplies shifted targets.
    Returns (logits steps-first, final per-layer states, tape). Final
    states carry across windows; gradients do not cross the window.
    """
    ids = _lookup_tokens(mdl.embedding, tokens, "lm_forward")
    single = ids.ndim == 1
    if single:
        ids = ids[None, :]
    B, T = ids.shape
    if T == 0:
        raise ContractError("lm_forward: empty sequence")
    xs_steps = [mdl.embedding[ids[:, t]] for t in range(T)]

    n = mdl.hidden_size
    if h_init is None:
        states = [cells.zero_state(mdl.cell_kind, n, B) for _ in mdl.cells]
    else:
        states = [CellState(h=s.h.copy(), c=s.c.copy()) for s in h_init]
    top_steps, traces, in_masks, states = _run_stack(mdl, xs_steps, states, train_mode, rng)

    rate = mdl.dropout.rate
    out_masks = None
    head_in = np.stack(top_steps)  # (T, B, n)
    if train_mode and rate > 0.0:
        out_masks = np.stack([dropout_mask(rng, h.shape, rate) for h in top_steps])
        head_in = head_in * out_masks
    # vocab projection for all positions in one GEMM
    logits = (head_in.reshape(T * B, n) @ mdl.w_out.T + mdl.b_out).reshape(T, B, -1)

    tape = None
    if train_mode:
        tape = Tape(
            kind="lm",
            cell_kind=mdl.cell_kind,
            cell_params=list(mdl.cells),
            traces=traces,
            cell_prefixes=[f"cells.{k}" for k in range(len(mdl.cells))],
            head_w=mdl.w_out,
            head_b=mdl.b_out,
            head_in=head_in,
            in_masks=in_masks,
            out_masks=out_masks,
            token_ids=ids,
            emb=mdl.embedding,
            model_params=mdl,
        )
    if single:
        logits = logits[:, 0, :]
    return logits, states, tape


def cross_entropy(logits: np.ndarray, target):
    """Softmax cross-entropy loss and its logit gradient.

    Single example: logits (k,), integer target -> (loss, dlogits).
    Batch: logits (B, k), targets (B,) -> mean loss and dlogits already
    scaled by 1/B, so backward() yields mean-loss gradients.
    """
    logits = np.asarray(logits, dtype=np.float64)
    single = logits.ndim == 1
    lg = logits[None, :] if single else logits
    tg = np.atleast_1d(np.asarray(target))
    if tg.shape[0] != lg.shape[0]:
        raise ContractError("cross_entropy: target count != batch size")
    if tg.min() < 0 or tg.max() >= lg.shape[1]:
        raise ContractError("cross_entropy: target out of range")
    B = lg.shape[0]
    rows = np.arange(B)
    # one exp, in place: the shifted logits become (probs - onehot) / B
    dlogits = lg - lg.max(axis=1, keepdims=True)
    picked = dlogits[rows, tg]
    np.exp(dlogits, out=dlogits)
    total = np.sum(dlogits, axis=1, keepdims=True)
    loss = float(np.mean(np.log(total[:, 0]) - picked))
    dlogits *= 1.0 / (total * B)
    dlogits[rows, tg] -= 1.0 / B
    if single:
        dlogits = dlogits[0]
    return loss, dlogits


def perplexity(total_log_loss: float, token_count: int) -> float:
    """exp of the average per-token negative log likelihood (natural log)."""
    if token_count < 1:
        raise ContractError("perplexity: token_count must be >= 1")
    return float(np.exp(total_log_loss / token_count))


def _model_spec(model) -> dict:
    if isinstance(model, Classifier):
        spec = {
            "type": "classifier",
            "cell": model.cell_kind,
            "input_size": model.cells[0].input_size if model.embedding is None else None,
            "hidden": model.hidden_size,
            "layers": len(model.cells),
            "classes": model.num_classes,
            "vocab": None if model.embedding is None else int(model.embedding.shape[0]),
            "emb_dim": None if model.embedding is None else int(model.embedding.shape[1]),
            "dropout": model.dropout.rate,
        }
    elif isinstance(model, LanguageModel):
        spec = {
            "type": "lm",
            "cell": model.cell_kind,
            "hidden": model.hidden_size,
            "layers": len(model.cells),
            "vocab": model.vocab_size,
            "dropout": model.dropout.rate,
        }
    else:
        raise CheckpointError(f"cannot serialize model of type {type(model).__name__}")
    return spec


def _build_from_spec(spec: dict):
    rng = Rng(0)
    if spec["type"] == "classifier":
        return build_classifier(
            spec["cell"], spec["input_size"], spec["hidden"], spec["layers"], spec["classes"],
            0.0, rng, vocab=spec["vocab"], emb_dim=spec["emb_dim"], dropout=spec["dropout"],
        )
    if spec["type"] == "lm":
        return build_language_model(
            spec["cell"], spec["vocab"], spec["hidden"], spec["layers"], 0.0, rng, dropout=spec["dropout"],
        )
    raise CheckpointError(f"unknown model type {spec['type']!r} in checkpoint")


def save_checkpoint(path, model, config: dict | None = None) -> None:
    """Write magic, version, a JSON config echo, then raw little-endian f64 tensors."""
    echo = {"model": _model_spec(model), "config": config or {}}
    blob = json.dumps(echo, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for _, arr in iter_tensors(model):
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Rebuild the model recorded at `path`; returns (model, config echo)."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 12 or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, got {raw[:4]!r}")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    blob_len = struct.unpack("<I", raw[8:12])[0]
    if len(raw) < 12 + blob_len:
        raise CheckpointError("truncated checkpoint header")
    echo = json.loads(raw[12:12 + blob_len].decode("utf-8"))
    model = _build_from_spec(echo["model"])
    offset = 12 + blob_len
    for name, arr in iter_tensors(model):
        nbytes = arr.size * 8
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated checkpoint tensor {name}")
        arr[...] = np.frombuffer(chunk, dtype="<f8").reshape(arr.shape)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError("trailing bytes after checkpoint tensors")
    return model, echo["config"]

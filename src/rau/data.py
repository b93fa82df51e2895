"""Dataset ingestion and sequence construction.

Covers: big-endian IDX image/label files read row-wise, word-level
token corpora (one whitespace-tokenized sentence per line, newline
mapped to an end-of-sentence token), folder-of-text sentiment data
(pos/ and neg/ subdirectories), and a synthetic memorization task whose
label is fixed by the first step of the sequence.
"""

from __future__ import annotations

import re
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import ContractError, Rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

UNK_ID = 0
EOS_ID = 1
UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"

_WORD_RE = re.compile(r"[a-z0-9]+")


class DataError(Exception):
    """Base for dataset format problems."""


class IdxMagicError(DataError):
    """IDX file opened with the wrong magic number."""


class IdxTruncatedError(DataError):
    """IDX file shorter (or longer) than its header promises."""


class IdxDimensionError(DataError):
    """IDX image dimensions are not the expected 28x28."""


class IdxCountMismatchError(DataError):
    """Image and label files disagree on the example count."""


@dataclass
class ImageSet:
    images: np.ndarray  # (N, 28, 28) uint8
    labels: np.ndarray  # (N,) uint8


@dataclass
class Vocab:
    word_to_id: dict
    id_to_word: list

    def __len__(self) -> int:
        return len(self.id_to_word)

    def encode_word(self, word: str) -> int:
        return self.word_to_id.get(word, UNK_ID)


@dataclass
class TokenCorpus:
    vocab: Vocab
    train: np.ndarray
    valid: np.ndarray | None = None
    test: np.ndarray | None = None


@dataclass
class SentimentSet:
    documents: np.ndarray  # (N, max_len) int64, front-padded with EOS
    labels: np.ndarray     # (N,) int64, 1 = positive
    vocab: Vocab
    max_len: int


def _read_be_u32s(raw: bytes, count: int, path) -> tuple:
    if len(raw) < 4 * count:
        raise IdxTruncatedError(f"{path}: header truncated ({len(raw)} bytes)")
    return struct.unpack(f">{count}I", raw[: 4 * count])


def load_idx(images_path, labels_path) -> ImageSet:
    """Parse an IDX image/label file pair, validating magic, dims and counts."""
    raw_img = Path(images_path).read_bytes()
    magic, = _read_be_u32s(raw_img, 1, images_path)
    if magic != IDX_IMAGE_MAGIC:
        raise IdxMagicError(f"{images_path}: expected magic {IDX_IMAGE_MAGIC:#010x}, got {magic:#010x}")
    _, count, rows, cols = _read_be_u32s(raw_img, 4, images_path)
    if rows != 28 or cols != 28:
        raise IdxDimensionError(f"{images_path}: expected 28x28 images, got {rows}x{cols}")
    expected = 16 + count * rows * cols
    if len(raw_img) != expected:
        raise IdxTruncatedError(f"{images_path}: expected {expected} bytes, got {len(raw_img)}")
    images = np.frombuffer(raw_img, dtype=np.uint8, offset=16).reshape(count, rows, cols)

    raw_lbl = Path(labels_path).read_bytes()
    magic, = _read_be_u32s(raw_lbl, 1, labels_path)
    if magic != IDX_LABEL_MAGIC:
        raise IdxMagicError(f"{labels_path}: expected magic {IDX_LABEL_MAGIC:#010x}, got {magic:#010x}")
    _, lbl_count = _read_be_u32s(raw_lbl, 2, labels_path)
    if len(raw_lbl) != 8 + lbl_count:
        raise IdxTruncatedError(f"{labels_path}: expected {8 + lbl_count} bytes, got {len(raw_lbl)}")
    if lbl_count != count:
        raise IdxCountMismatchError(f"{count} images but {lbl_count} labels")
    labels = np.frombuffer(raw_lbl, dtype=np.uint8, offset=8)
    return ImageSet(images=images.copy(), labels=labels.copy())


def images_to_sequences(images: np.ndarray) -> np.ndarray:
    """(N, rows, cols) uint8 images -> N sequences of row vectors in scanline order, pixels scaled to [0, 1]."""
    images = np.asarray(images)
    if images.ndim != 3:
        raise ContractError(f"images_to_sequences: expected a (N, rows, cols) batch of images, got {images.shape}")
    return images.astype(np.float64) / 255.0


def tokenize_line(line: str) -> list:
    return line.split()


def build_vocab(train_text: str, max_size: int) -> Vocab:
    """Most frequent words (ties broken lexicographically) under reserved <unk>, <eos>."""
    if max_size < 2:
        raise ContractError("build_vocab: max_size must be >= 2 to hold <unk> and <eos>")
    counts = Counter()
    for line in train_text.splitlines():
        counts.update(tokenize_line(line))
    if not counts:
        raise ContractError("build_vocab: empty corpus")
    # a literal <unk> or <eos> in the text, as in PTB's files, takes no slot of a real word
    words = [kv for kv in counts.items() if kv[0] not in (UNK_TOKEN, EOS_TOKEN)]
    ranked = sorted(words, key=lambda kv: (-kv[1], kv[0]))
    id_to_word = [UNK_TOKEN, EOS_TOKEN] + [w for w, _ in ranked[: max_size - 2]]
    word_to_id = {w: i for i, w in enumerate(id_to_word)}
    return Vocab(word_to_id=word_to_id, id_to_word=id_to_word)


def encode_stream(vocab: Vocab, text: str) -> np.ndarray:
    """Token ids for a whitespace-tokenized text; each newline becomes <eos>."""
    ids = []
    for line in text.splitlines():
        for w in tokenize_line(line):
            ids.append(vocab.encode_word(w))
        ids.append(EOS_ID)
    return np.asarray(ids, dtype=np.int64)


def load_token_corpus(train_path, valid_path=None, test_path=None, max_vocab: int = 10000) -> TokenCorpus:
    train_text = Path(train_path).read_text(encoding="utf-8")
    vocab = build_vocab(train_text, max_vocab)
    corpus = TokenCorpus(vocab=vocab, train=encode_stream(vocab, train_text))
    if valid_path is not None:
        corpus.valid = encode_stream(vocab, Path(valid_path).read_text(encoding="utf-8"))
    if test_path is not None:
        corpus.test = encode_stream(vocab, Path(test_path).read_text(encoding="utf-8"))
    return corpus


def lm_batches(stream: np.ndarray, batch_size: int, unroll: int):
    """Contiguous windows over batch_size parallel rows of the token stream.

    Yields (inputs (B, u), targets (B, u), is_new_epoch). Targets are
    inputs shifted by one within each row. Each window is unroll steps
    long but the last, which ends at its row's end, so every token of a
    row but its first is a target once: B * (len // B - 1) targets. The
    last len mod B tokens of the stream fill no row and are cut.
    """
    stream = np.asarray(stream)
    if batch_size < 1 or unroll < 1:
        raise ContractError("lm_batches: batch_size and unroll must be >= 1")
    rowlen = len(stream) // batch_size
    if rowlen < 2:
        raise ContractError(f"lm_batches: stream too short ({len(stream)} tokens for batch_size {batch_size})")
    rows = stream[: batch_size * rowlen].reshape(batch_size, rowlen)
    for k in range(0, rowlen - 1, unroll):
        end = min(k + unroll, rowlen - 1)
        yield rows[:, k:end], rows[:, k + 1:end + 1], k == 0


def _read_folder(folder: Path) -> list:
    files = sorted(p for p in folder.iterdir() if p.is_file())
    return [p.read_text(encoding="utf-8", errors="replace") for p in files]


def tokenize_document(text: str) -> list:
    return _WORD_RE.findall(text.lower())


def load_sentiment(root, max_vocab: int = 10000, max_len: int = 200, vocab: Vocab | None = None) -> SentimentSet:
    """Read pos/ and neg/ text folders into fixed-length id sequences.

    Documents keep their last max_len tokens (review conclusions carry
    the sentiment) and are front-padded with <eos>. When no vocab is
    given, one is built from these documents.
    """
    root = Path(root)
    pos_docs = _read_folder(root / "pos")
    neg_docs = _read_folder(root / "neg")
    if not pos_docs or not neg_docs:
        raise DataError(f"{root}: need non-empty pos/ and neg/ folders")
    texts = [" ".join(tokenize_document(t)) for t in pos_docs + neg_docs]
    if vocab is None:
        vocab = build_vocab("\n".join(texts), max_vocab)
    docs = np.full((len(texts), max_len), EOS_ID, dtype=np.int64)
    for i, text in enumerate(texts):
        ids = [vocab.encode_word(w) for w in text.split()][-max_len:]
        if ids:
            docs[i, max_len - len(ids):] = ids
    labels = np.concatenate([np.ones(len(pos_docs), dtype=np.int64), np.zeros(len(neg_docs), dtype=np.int64)])
    return SentimentSet(documents=docs, labels=labels, vocab=vocab, max_len=max_len)


def class_patterns(classes: int, m: int) -> np.ndarray:
    """Distinct signed patterns, one per class, spanning all m input dims."""
    nbits = max(1, int(np.ceil(np.log2(max(classes, 2)))))
    out = np.empty((classes, m))
    for c in range(classes):
        for j in range(m):
            out[c, j] = 1.0 if (c >> (j % nbits)) & 1 else -1.0
    return out


def synthetic_memorization(rng: Rng, count: int, T: int, m: int, classes: int, noise: float = 1.0):
    """Sequences whose class is encoded only in step 0; later steps are noise.

    Solving it requires carrying step-0 information across T-1 steps.
    Returns (xs (count, T, m) float64, ys (count,) int64).
    """
    if T < 2:
        raise ContractError("synthetic_memorization: T must be >= 2")
    if classes < 2:
        raise ContractError("synthetic_memorization: classes must be >= 2")
    patterns = class_patterns(classes, m)
    ys = rng.integers(classes, size=count)
    xs = np.empty((count, T, m))
    xs[:, 0, :] = patterns[ys]
    xs[:, 1:, :] = rng.uniform(-noise, noise, size=(count, T - 1, m))
    return xs, ys.astype(np.int64)

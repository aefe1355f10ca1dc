"""Byte-level corpus handling and deterministic batch scheduling.

The vocabulary is the 256 raw byte values plus PAD/BOS/EOS (ids 256..258),
so any file is already tokenized. Batches are non-overlapping windows of
seq_len tokens with a one-token lookahead for the shifted targets; a window
permutation reshuffles per epoch from (seed, epoch), which makes the batch
at a given step a pure function of the plan and the corpus.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError

PAD_ID = 256
BOS_ID = 257
EOS_ID = 258
VOCAB_SIZE = 259


class ByteVocabulary:
    """Fixed byte vocabulary; encode/decode round-trip any byte string."""

    def encode(self, data: bytes, add_bos: bool = False) -> np.ndarray:
        """`data` as uint16 ids: every id fits, at 2 bytes a token against
        int64's 8. Batches are widened to int64 as they are cut
        (`next_batch`, `evaluate`)."""
        ids = np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
        if add_bos:
            ids = np.concatenate([np.array([BOS_ID], dtype=np.uint16), ids])
        return ids

    def decode(self, ids) -> bytes:
        ids = np.asarray(ids, dtype=np.int64)
        check_ids_fit(ids, VOCAB_SIZE, "decoded")
        kept = ids[ids < 256]
        return kept.astype(np.uint8).tobytes()


def check_ids_fit(ids, vocab: int, what: str) -> None:
    """Raise DataError unless every id indexes a row of a `vocab`-row embedding."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab):
        bad = int(ids.min()) if ids.min() < 0 else int(ids.max())
        raise DataError(f"{what} token id {bad} does not fit vocab={vocab}")


def load_corpus(path: str | os.PathLike) -> np.ndarray:
    """Read a file as one flat uint16 id stream."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise DataError(f"corpus file {path!s} is empty")
    return ByteVocabulary().encode(raw)


def split_corpus(ids: np.ndarray, valid_frac: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic prefix/suffix split; the tail fraction becomes validation."""
    if not 0.0 < valid_frac < 1.0:
        raise DataError(f"valid_frac must be in (0, 1), got {valid_frac}")
    cut = int(round(len(ids) * (1.0 - valid_frac)))
    cut = min(max(cut, 1), len(ids) - 1)
    return ids[:cut], ids[cut:]


@dataclass(frozen=True)
class BatchPlan:
    """Window scheduling: seq_len tokens per row, batch rows per step."""

    seq_len: int
    batch: int
    seed: int = 0

    def __post_init__(self):
        if self.seq_len < 1 or self.batch < 1:
            raise DataError(f"seq_len and batch must be positive, got {self.seq_len}, {self.batch}")


def window_count(n_tokens: int, seq_len: int) -> int:
    """Non-overlapping windows that still leave one lookahead token."""
    return (n_tokens - 1) // seq_len


def _epoch_order(plan: BatchPlan, n_windows: int, epoch: int) -> np.ndarray:
    return np.random.default_rng((plan.seed, epoch)).permutation(n_windows)


def next_batch(plan: BatchPlan, ids: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch for `step`: inputs (B, T) and left-shifted targets (B, T).

    Rows walk the per-epoch window permutation; when a batch straddles an
    epoch boundary the remainder comes from the next epoch's permutation, so
    every window start appears exactly once per epoch regardless of B.
    """
    n_win = window_count(len(ids), plan.seq_len)
    if n_win < 1:
        raise DataError(
            f"corpus of {len(ids)} tokens is too short for seq_len {plan.seq_len}"
        )
    t = plan.seq_len
    inputs = np.empty((plan.batch, t), dtype=np.int64)
    targets = np.empty((plan.batch, t), dtype=np.int64)
    order_cache: dict[int, np.ndarray] = {}
    for j in range(plan.batch):
        g = step * plan.batch + j
        epoch, k = divmod(g, n_win)
        if epoch not in order_cache:
            order_cache[epoch] = _epoch_order(plan, n_win, epoch)
        start = int(order_cache[epoch][k]) * t
        inputs[j] = ids[start : start + t]
        targets[j] = ids[start + 1 : start + t + 1]
    return inputs, targets


def make_synthetic_corpus(n_bytes: int, seed: int = 0) -> bytes:
    """Deterministic word-soup corpus with a Zipf-like unigram distribution.

    Low-entropy enough that a small byte model's loss falls quickly, which is
    what the smoke-training checks need; no external assets involved.
    """
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(b"etaoinshrdlucmfwypvbgk", dtype=np.uint8)
    n_words = 400
    lengths = rng.integers(2, 9, size=n_words)
    words = [bytes(rng.choice(letters, size=int(n)).tobytes()) for n in lengths]
    ranks = np.arange(1, n_words + 1, dtype=np.float64)
    probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    # What rng.choice(n_words, p=probs) computes for one sample, with its one
    # uniform draw, minus rebuilding and re-validating the CDF on every word.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    out = bytearray()
    sentence_len = 0
    while len(out) < n_bytes:
        out += words[int(cdf.searchsorted(rng.random(), side="right"))]
        sentence_len += 1
        if sentence_len >= int(rng.integers(6, 14)):
            out += b".\n"
            sentence_len = 0
        else:
            out += b" "
    return bytes(out[:n_bytes])

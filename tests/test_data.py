"""Vocabulary round-trips, window scheduling, epoch coverage, synthetic corpus."""
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycleformer.data import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    VOCAB_SIZE,
    BatchPlan,
    ByteVocabulary,
    make_synthetic_corpus,
    next_batch,
    split_corpus,
    window_count,
)
from cycleformer.errors import DataError


def test_vocabulary_constants():
    assert VOCAB_SIZE == 259
    assert (PAD_ID, BOS_ID, EOS_ID) == (256, 257, 258)


@given(st.binary(max_size=512))
def test_encode_decode_roundtrip(data):
    vocab = ByteVocabulary()
    ids = vocab.encode(data)
    assert ids.dtype == np.uint16
    assert len(ids) == len(data)
    assert vocab.decode(ids) == data


def test_bos_prefix_is_optional_and_dropped_on_decode():
    vocab = ByteVocabulary()
    ids = vocab.encode(b"hi", add_bos=True)
    assert ids.dtype == np.uint16
    assert ids.tolist() == [BOS_ID, 104, 105]
    assert vocab.decode(ids) == b"hi"


def test_decode_rejects_out_of_vocab_ids():
    with pytest.raises(DataError):
        ByteVocabulary().decode(np.array([0, 259]))


def test_targets_are_inputs_shifted_left():
    ids = np.arange(100)
    plan = BatchPlan(seq_len=8, batch=4, seed=3)
    inputs, targets = next_batch(plan, ids, step=2)
    np.testing.assert_array_equal(targets[:, :-1], inputs[:, 1:])


@settings(deadline=None, max_examples=30)
@given(
    st.integers(20, 200),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(0, 2**30),
)
def test_epoch_coverage_every_window_once(n_tokens, seq_len, batch, seed):
    ids = np.arange(n_tokens)
    n_win = window_count(n_tokens, seq_len)
    if n_win < 1:
        return
    plan = BatchPlan(seq_len=seq_len, batch=batch, seed=seed)
    starts = []
    g = 0
    step = 0
    while g < n_win:
        inputs, _ = next_batch(plan, ids, step)
        for row in inputs:
            if g < n_win:
                starts.append(int(row[0]))
            g += 1
        step += 1
    assert sorted(starts) == [i * seq_len for i in range(n_win)]


def test_identical_seed_identical_batches():
    ids = np.arange(500)
    a = BatchPlan(seq_len=16, batch=4, seed=9)
    b = BatchPlan(seq_len=16, batch=4, seed=9)
    for step in range(5):
        ia, ta = next_batch(a, ids, step)
        ib, tb = next_batch(b, ids, step)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(ta, tb)


def test_batches_are_int64_and_equal_from_uint16_or_int64_ids():
    ids = np.random.default_rng(0).integers(0, VOCAB_SIZE, size=500)
    plan = BatchPlan(seq_len=16, batch=4, seed=9)
    for step in range(3):
        wide = next_batch(plan, ids, step)
        narrow = next_batch(plan, ids.astype(np.uint16), step)
        for a, b in zip(wide, narrow, strict=True):
            assert b.dtype == np.int64
            np.testing.assert_array_equal(a, b)


def test_different_seed_differs():
    ids = np.arange(500)
    ia, _ = next_batch(BatchPlan(seq_len=16, batch=4, seed=1), ids, 0)
    ib, _ = next_batch(BatchPlan(seq_len=16, batch=4, seed=2), ids, 0)
    assert not np.array_equal(ia, ib)


def test_too_short_corpus_raises():
    with pytest.raises(DataError):
        next_batch(BatchPlan(seq_len=16, batch=1), np.arange(10), 0)


def test_split_fractions_partition_the_stream():
    ids = np.arange(1000)
    train, valid = split_corpus(ids, valid_frac=0.1)
    assert len(train) == 900 and len(valid) == 100
    np.testing.assert_array_equal(np.concatenate([train, valid]), ids)


def test_synthetic_corpus_deterministic_and_sized():
    a = make_synthetic_corpus(4096, seed=7)
    b = make_synthetic_corpus(4096, seed=7)
    c = make_synthetic_corpus(4096, seed=8)
    assert a == b and a != c
    assert len(a) == 4096
    assert max(a) < 128  # plain ASCII


def reference_synthetic_corpus(n_bytes: int, seed: int = 0) -> bytes:
    """The generator as first written, one rng.choice(p=...) per word: the
    specification make_synthetic_corpus must reproduce byte for byte."""
    rng = np.random.default_rng(seed)
    letters = np.frombuffer(b"etaoinshrdlucmfwypvbgk", dtype=np.uint8)
    n_words = 400
    lengths = rng.integers(2, 9, size=n_words)
    words = [bytes(rng.choice(letters, size=int(n)).tobytes()) for n in lengths]
    ranks = np.arange(1, n_words + 1, dtype=np.float64)
    probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    out = bytearray()
    sentence_len = 0
    while len(out) < n_bytes:
        out += words[int(rng.choice(n_words, p=probs))]
        sentence_len += 1
        if sentence_len >= int(rng.integers(6, 14)):
            out += b".\n"
            sentence_len = 0
        else:
            out += b" "
    return bytes(out[:n_bytes])


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 20_000), st.integers(0, 2**32))
def test_synthetic_corpus_matches_reference(n_bytes, seed):
    assert make_synthetic_corpus(n_bytes, seed) == reference_synthetic_corpus(n_bytes, seed)


def _cuts(seed: int) -> list[int]:
    """Sizes that end the corpus mid-word and right after a sentence's full stop and newline."""
    text = reference_synthetic_corpus(3000, seed)
    mid_word = next(i for i in range(1, len(text)) if text[i - 1 : i + 1].isalpha())
    after_stop = text.index(b".\n") + 2
    return [mid_word, after_stop, after_stop + text[after_stop:].index(b".\n") + 2]


@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**31 - 1])
def test_synthetic_corpus_matches_reference_at_edges(seed):
    for n_bytes in [1, 2, *_cuts(seed), 3000]:
        got = make_synthetic_corpus(n_bytes, seed)
        assert got == reference_synthetic_corpus(n_bytes, seed), n_bytes
        assert len(got) == n_bytes


ARTIFACTS = Path(__file__).parent / "_artifacts"
BENCH_CORPUS_SHA256 = "40ed2badd66d8dcd6bc54cda288a946c7410c20152d23f2f61d5ef592d2e6ab4"


def test_synthetic_corpus_reproduces_committed_files():
    smoke = (ARTIFACTS / "smoke_corpus.bin").read_bytes()
    assert make_synthetic_corpus(1_000_000, seed=0) == smoke
    # the benchmark's train corpus, also the fixed checkpoint's training data
    bench = make_synthetic_corpus(200_000, seed=0)
    assert hashlib.sha256(bench).hexdigest() == BENCH_CORPUS_SHA256
    assert smoke.startswith(bench)

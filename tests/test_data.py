"""Dataset ingestion: IDX files, token corpora, sentiment folders, synthetic task."""

import numpy as np
import pytest

from rau.data import (
    EOS_ID,
    UNK_ID,
    IdxCountMismatchError,
    IdxDimensionError,
    IdxMagicError,
    IdxTruncatedError,
    build_vocab,
    class_patterns,
    encode_stream,
    images_to_sequences,
    lm_batches,
    load_idx,
    load_sentiment,
    synthetic_memorization,
)
from rau.linalg import ContractError, Rng

from conftest import write_idx_pair


class TestLoadIdx:
    def test_fixture_roundtrip(self, idx_fixture):
        img_path, lbl_path, images, labels = idx_fixture
        ds = load_idx(img_path, lbl_path)
        assert ds.images.shape == (2, 28, 28)
        assert np.array_equal(ds.images, images)
        assert np.array_equal(ds.labels, labels)

    def test_wrong_image_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], image_magic=0x804)
        with pytest.raises(IdxMagicError, match="0x00000803"):
            load_idx(img, lbl)

    def test_wrong_label_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], label_magic=0x123)
        with pytest.raises(IdxMagicError, match="0x00000801"):
            load_idx(img, lbl)

    def test_truncated_images(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 28, 28)), [0, 1], truncate_images=10)
        with pytest.raises(IdxTruncatedError):
            load_idx(img, lbl)

    def test_dimension_mismatch(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0], rows=27)
        with pytest.raises(IdxDimensionError):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 28, 28), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2])
        with pytest.raises(IdxCountMismatchError):
            load_idx(img, lbl)

    def test_errors_are_distinct_classes(self):
        kinds = {IdxMagicError, IdxTruncatedError, IdxDimensionError, IdxCountMismatchError}
        assert len(kinds) == 4


class TestRowsSequence:
    def test_zero_image(self):
        seq = images_to_sequences(np.zeros((1, 28, 28), dtype=np.uint8))
        assert seq.shape == (1, 28, 28) and seq.dtype == np.float64
        assert np.array_equal(seq, np.zeros((1, 28, 28)))

    def test_single_pixel(self):
        img = np.zeros((1, 28, 28), dtype=np.uint8)
        img[0, 0, 0] = 255
        seq = images_to_sequences(img)
        assert seq[0][0][0] == 1.0
        assert seq.sum() == 1.0

    def test_rows_in_scanline_order(self, idx_fixture):
        _, _, images, _ = idx_fixture
        seqs = images_to_sequences(images)
        for i in range(len(images)):
            for k in range(28):
                assert np.array_equal(seqs[i][k], images[i][k].astype(np.float64) / 255.0)

    def test_pixel_sum_preserved(self):
        rng = Rng(3)
        img = (rng.uniform01((28, 28)) * 255).astype(np.uint8)
        seq = images_to_sequences(img[None])
        assert abs(seq.sum() - img.sum() / 255.0) <= 1e-9

    def test_wrong_shape_rejected(self):
        with pytest.raises(ContractError):
            images_to_sequences(np.zeros((27, 28)))
        with pytest.raises(ContractError):
            images_to_sequences(np.zeros((1, 1, 28, 28)))


class TestVocab:
    def test_basic_build(self):
        v = build_vocab("a a b", 4)
        assert v.id_to_word == ["<unk>", "<eos>", "a", "b"]
        assert v.word_to_id["a"] == 2

    def test_frequency_then_lexicographic_order(self):
        v = build_vocab("b a b a c", 5)
        assert v.id_to_word == ["<unk>", "<eos>", "a", "b", "c"]

    def test_truncates_to_max_size(self):
        v = build_vocab("a b c d e f", 4)
        assert len(v) == 4

    def test_literal_special_tokens_take_no_word_slot(self):
        # PTB's text holds literal <unk> tokens; they used to rank among the words and crowd out b
        v = build_vocab("a a a <unk> <unk> b b c\nd <eos>", 4)
        assert v.id_to_word == ["<unk>", "<eos>", "a", "b"]

    def test_oov_encodes_to_unk(self):
        v = build_vocab("a a b", 4)
        ids = encode_stream(v, "a zzz b")
        assert ids.tolist() == [2, UNK_ID, 3, EOS_ID]

    def test_newline_maps_to_eos(self):
        v = build_vocab("a b", 4)
        ids = encode_stream(v, "a\nb")
        assert ids.tolist() == [v.word_to_id["a"], EOS_ID, v.word_to_id["b"], EOS_ID]

    def test_round_trip_in_vocab(self):
        v = build_vocab("the cat sat on the mat", 10)
        words = ["the", "cat", "mat"]
        ids = [v.encode_word(w) for w in words]
        assert [v.id_to_word[i] for i in ids] == words

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            build_vocab("   \n  ", 10)


class TestLmBatches:
    def test_hand_enumerated_example(self):
        stream = np.arange(10)
        batches = list(lm_batches(stream, 2, 2))
        inputs, targets, new_epoch = batches[0]
        assert inputs.tolist() == [[0, 1], [5, 6]]
        assert targets.tolist() == [[1, 2], [6, 7]]
        assert new_epoch
        inputs, targets, new_epoch = batches[1]
        assert inputs.tolist() == [[2, 3], [7, 8]]
        assert targets.tolist() == [[3, 4], [8, 9]]
        assert not new_epoch
        assert len(batches) == 2

    def test_unroll_longer_than_row_gives_single_truncated_window(self):
        stream = np.arange(8)
        batches = list(lm_batches(stream, 1, 100))
        assert len(batches) == 1
        inputs, targets, _ = batches[0]
        assert inputs.tolist() == [[0, 1, 2, 3, 4, 5, 6]]
        assert targets.tolist() == [[1, 2, 3, 4, 5, 6, 7]]

    @pytest.mark.parametrize("length", [103, 58, 21])
    @pytest.mark.parametrize("batch_size, unroll", [(4, 5), (3, 7), (5, 1), (2, 30)])
    def test_target_positions_unique_and_counted(self, length, batch_size, unroll):
        # every token of a row but its first is a target once, the short last window included; the last
        # len mod B tokens fill no row
        stream = np.arange(length)
        seen = []
        for _, targets, _ in lm_batches(stream, batch_size, unroll):
            seen.extend(targets.ravel().tolist())
        assert len(seen) == len(set(seen))
        assert len(seen) == batch_size * (length // batch_size - 1)

    def test_the_last_window_takes_the_rows_tail(self):
        batches = list(lm_batches(np.arange(14), 2, 3))  # rows of 7: targets 1-6, windows of 3 and 3
        assert [b[0].shape for b in batches] == [(2, 3), (2, 3)]
        batches = list(lm_batches(np.arange(17), 2, 3))  # rows of 8: windows of 3, 3 and 1
        assert [b[0].shape for b in batches] == [(2, 3), (2, 3), (2, 1)]
        inputs, targets, new_epoch = batches[-1]
        assert inputs.tolist() == [[6], [14]] and targets.tolist() == [[7], [15]] and not new_epoch

    def test_stream_too_short(self):
        with pytest.raises(ContractError):
            list(lm_batches(np.arange(3), 2, 4))


class TestSentiment:
    @pytest.fixture
    def folders(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        (tmp_path / "pos" / "0.txt").write_text("I loved this Movie, loved it!")
        (tmp_path / "pos" / "1.txt").write_text("great film great acting")
        (tmp_path / "neg" / "0.txt").write_text("terrible waste of time")
        (tmp_path / "neg" / "1.txt").write_text("I hated it")
        return tmp_path

    def test_loads_balanced_labels(self, folders):
        ds = load_sentiment(folders, max_vocab=50, max_len=6)
        assert ds.documents.shape == (4, 6)
        assert ds.labels.tolist() == [1, 1, 0, 0]

    def test_lowercases_and_strips_punctuation(self, folders):
        ds = load_sentiment(folders, max_vocab=50, max_len=6)
        assert "loved" in ds.vocab.word_to_id
        assert "movie" in ds.vocab.word_to_id
        assert "Movie," not in ds.vocab.word_to_id

    def test_front_padding_and_tail_truncation(self, folders):
        ds = load_sentiment(folders, max_vocab=50, max_len=3)
        # "I hated it" -> 3 tokens fill the window exactly
        row = ds.documents[3]
        words = [ds.vocab.id_to_word[i] for i in row]
        assert words == ["i", "hated", "it"]
        # shorter doc is front-padded with <eos>
        ds6 = load_sentiment(folders, max_vocab=50, max_len=6)
        assert ds6.documents[3].tolist()[:3] == [EOS_ID, EOS_ID, EOS_ID]


class TestSyntheticMemorization:
    def test_labels_roughly_uniform(self):
        _, ys = synthetic_memorization(Rng(5), 10_000, 4, 8, 4, 1.0)
        freqs = np.bincount(ys, minlength=4) / 10_000
        assert np.all(np.abs(freqs - 0.25) < 0.0125)

    def test_fixed_seed_reproducible(self):
        a = synthetic_memorization(Rng(6), 100, 5, 4, 4, 1.0)
        b = synthetic_memorization(Rng(6), 100, 5, 4, 4, 1.0)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_zero_noise_is_separable_from_step_one(self):
        xs, ys = synthetic_memorization(Rng(7), 50, 2, 8, 4, 0.0)
        patterns = class_patterns(4, 8)
        for i in range(50):
            assert np.array_equal(xs[i, 0], patterns[ys[i]])
            assert np.array_equal(xs[i, 1:], np.zeros((1, 8)))

    def test_patterns_distinct(self):
        pats = class_patterns(4, 8)
        assert len({tuple(p) for p in pats}) == 4

    def test_requires_two_steps(self):
        with pytest.raises(ContractError):
            synthetic_memorization(Rng(0), 10, 1, 4, 4, 1.0)

"""Tokenizer and vocabulary tests."""

import numpy as np
import pytest

from inkstone.errors import DataError, VocabError
from inkstone.vocab import (
    SPECIAL_TOKENS,
    build_vocab,
    decode,
    encode,
    encode_batch,
    from_tokens,
    load_vocab,
    save_vocab,
    tokenize,
)

CJK_POOL = "春眠不觉晓处闻啼鸟夜来风雨声花落知多少床前明月光疑是地上霜"


@pytest.fixture
def vocab():
    return from_tokens(list(SPECIAL_TOKENS) + sorted(set(CJK_POOL)) + ["a", "b", "，"])


class TestTokenize:
    def test_cjk_one_char_one_token(self):
        assert tokenize("春眠不觉晓") == ["春", "眠", "不", "觉", "晓"]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_returns_a_plain_list(self):
        assert type(tokenize("春眠 AB")) is list

    def test_ascii_lowercased_and_whitespace_dropped(self):
        assert tokenize("AB 春") == ["a", "b", "春"]

    def test_punctuation_is_single_token(self):
        assert tokenize("春，眠") == ["春", "，", "眠"]

    def test_digits_kept_per_character(self):
        assert tokenize("42年") == ["4", "2", "年"]

    def test_rejoining_cjk_tokens_restores_text(self):
        rng = np.random.default_rng(7)
        chars = list(CJK_POOL)
        for _ in range(20):
            s = "".join(rng.choice(chars, size=rng.integers(1, 12)))
            assert "".join(tokenize(s)) == s


class TestVocabFile:
    def test_load_assigns_line_index_ids(self, tmp_path):
        p = tmp_path / "vocab.txt"
        tokens = list(SPECIAL_TOKENS) + ["一", "二", "三", "四", "五"]
        p.write_text("\n".join(tokens) + "\n", encoding="utf-8")
        v = load_vocab(p)
        assert len(v) == 10
        assert v.token_to_id["一"] == 5
        assert v.pad_id == 0 and v.mask_id == 4

    def test_round_trip_through_save(self, tmp_path, vocab):
        p = tmp_path / "v.txt"
        save_vocab(vocab, p)
        again = load_vocab(p)
        assert again.id_to_token == vocab.id_to_token

    def test_duplicate_token_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("\n".join(SPECIAL_TOKENS + ("春", "春")), encoding="utf-8")
        with pytest.raises(VocabError, match="春"):
            load_vocab(p)

    def test_missing_special_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n春\n", encoding="utf-8")
        with pytest.raises(VocabError, match=r"\[MASK\]"):
            load_vocab(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(VocabError, match="empty"):
            load_vocab(p)

    def test_build_vocab_sorted_after_specials(self):
        v = build_vocab(["春眠", "不眠 ab"])
        assert v.id_to_token[:5] == list(SPECIAL_TOKENS)
        assert v.id_to_token[5:] == sorted(["春", "眠", "不", "a", "b"])


class TestEncode:
    def test_short_sequence_layout(self, vocab):
        ids, mask = encode(tokenize("春"), vocab, max_len=5)
        assert ids.shape == (5,) and mask.shape == (5,)
        assert ids[0] == vocab.cls_id
        assert ids[1] == vocab.token_to_id["春"]
        assert ids[2] == vocab.sep_id
        assert list(ids[3:]) == [vocab.pad_id, vocab.pad_id]
        assert list(mask) == [1, 1, 1, 0, 0]

    def test_long_sequence_truncated_with_sep_last(self, vocab):
        toks = ["春"] * 600
        ids, mask = encode(toks, vocab, max_len=512)
        assert ids.shape == (512,)
        assert ids[-1] == vocab.sep_id
        assert mask.sum() == 512

    def test_oov_maps_to_unk(self, vocab):
        ids, _ = encode(["龍"], vocab, max_len=4)
        assert ids[1] == vocab.unk_id

    def test_mask_zero_iff_pad(self, vocab):
        rng = np.random.default_rng(3)
        chars = [t for t in vocab.id_to_token if len(t) == 1]
        for _ in range(10):
            toks = list(rng.choice(chars, size=rng.integers(0, 9)))
            ids, mask = encode(toks, vocab, max_len=12)
            assert np.array_equal(mask == 0, ids == vocab.pad_id)

    def test_max_len_below_three_rejected(self, vocab):
        with pytest.raises(ValueError, match="max_len"):
            encode(["春"], vocab, max_len=2)

    def test_batch_stacks_encode_rows(self, vocab):
        seqs = [tokenize("春眠"), [], ["春"] * 9, ["龍", "夜"]]
        ids, mask = encode_batch(seqs, vocab, max_len=6)
        rows = [encode(s, vocab, max_len=6) for s in seqs]
        assert np.array_equal(ids, np.stack([r[0] for r in rows]))
        assert np.array_equal(mask, np.stack([r[1] for r in rows]))
        assert ids.dtype == mask.dtype == np.int64
        assert ids[2, -1] == vocab.sep_id and mask[1].sum() == 2
        none_ids, none_mask = encode_batch([], vocab, max_len=6)
        assert none_ids.shape == none_mask.shape == (0, 6) and none_ids.dtype == np.int64


class TestDecode:
    def test_round_trip(self, vocab):
        s = "春眠不觉晓"
        ids, _ = encode(tokenize(s), vocab, max_len=16)
        assert decode(ids, vocab) == s

    def test_specials_only_decodes_empty(self, vocab):
        assert decode([vocab.cls_id, vocab.pad_id, vocab.sep_id], vocab) == ""

    def test_out_of_range_id_rejected(self, vocab):
        with pytest.raises(ValueError, match="out of range"):
            decode([len(vocab)], vocab)

    def test_user_reachable_checks_are_data_errors(self, vocab):
        # so the CLI reports them as bad input (exit 2), not as internal errors
        with pytest.raises(DataError, match="out of range"):
            decode([len(vocab)], vocab)
        with pytest.raises(DataError, match="max_len"):
            encode(["春"], vocab, max_len=2)

    def test_random_round_trip_property(self, vocab):
        rng = np.random.default_rng(11)
        chars = sorted(set(CJK_POOL))
        for _ in range(25):
            s = "".join(rng.choice(chars, size=rng.integers(1, 13)))
            ids, _ = encode(tokenize(s), vocab, max_len=15)
            assert decode(ids, vocab) == s

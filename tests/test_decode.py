import dataclasses
import math

import numpy as np
import pytest

from _reference import argmax_from_step
from _steps import batched, by_prefix
import inkstone.decode as decode_module
from inkstone import tensor as T
from inkstone.decode import (
    DecodeConfig,
    _model_step_fn,
    _top_k,
    beam_from_step,
    beam_search,
    decode_file,
    generate_text,
    greedy_decode,
    greedy_from_step,
)
from inkstone.errors import ConfigError
from inkstone.finetune import ClsTaskConfig, Seq2SeqTaskConfig
from inkstone.model import ModelConfig, build_model, decoder_forward, encoder_forward
from inkstone.pretrain import MaskingConfig, PretrainConfig
from inkstone.vocab import SPECIAL_TOKENS, build_vocab, encode, tokenize


def table_step(table, vocab_size):
    """Step function from an explicit prefix -> logprob row mapping."""

    def step(prefix):
        return np.array(table[tuple(prefix)], dtype=np.float64)

    return step


def random_step(rng, vocab_size):
    """Random but self-consistent step function (cached per prefix)."""
    cache = {}

    def step(prefix):
        key = tuple(prefix)
        if key not in cache:
            logits = rng.standard_normal(vocab_size)
            cache[key] = logits - math.log(float(np.exp(logits).sum()))
        return cache[key]

    return step


def enumerate_best(step_fn, eos_id, max_len, vocab_size, alpha=0.0):
    """Score every EOS-terminated sequence with body length <= max_len - 1."""
    best = (-math.inf, None)

    def rec(prefix, score):
        nonlocal best
        logprobs = step_fn(prefix)
        done = score + float(logprobs[eos_id])
        norm = done / (max(len(prefix), 1) ** alpha)
        if norm > best[0]:
            best = (norm, list(prefix))
        if len(prefix) < max_len - 1:
            for tok in range(vocab_size):
                if tok != eos_id:
                    rec(prefix + [tok], score + float(logprobs[tok]))

    rec([], 0.0)
    return best[1], best[0]


class TestGreedyStep:
    def test_follows_argmax_until_eos(self):
        table = {
            (): [0.1, 0.7, 0.2],
            (1,): [0.1, 0.2, 0.7],
            (1, 2): [0.9, 0.05, 0.05],
        }
        assert greedy_from_step(batched(table_step(table, 3)), eos_id=0, max_len=10) == [1, 2]

    def test_tie_breaks_to_lowest_id(self):
        table = {(): [0.5, 0.5, 0.5]}
        # argmax tie: ids 0..2 all equal, and 0 is EOS here
        assert greedy_from_step(batched(table_step(table, 3)), eos_id=0, max_len=4) == []
        table = {(): [0.1, 0.5, 0.5], (1,): [0.9, 0.0, 0.0]}
        assert greedy_from_step(batched(table_step(table, 3)), eos_id=0, max_len=4) == [1]

    def test_length_cap(self):
        # EOS never preferred: body fills the cap exactly
        step = lambda prefix: np.array([-9.0, -0.1, -5.0])
        assert greedy_from_step(batched(step), eos_id=0, max_len=3) == [1, 1, 1]

    def test_immediate_eos_gives_empty_body(self):
        step = lambda prefix: np.array([0.0, -1.0, -1.0])
        assert greedy_from_step(batched(step), eos_id=0, max_len=5) == []


class TestBeamStep:
    def test_beam_one_equals_greedy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            step = random_step(rng, 4)
            want = argmax_from_step(by_prefix(batched(step)), eos_id=0, max_len=5)
            assert greedy_from_step(batched(step), eos_id=0, max_len=5) == want
            tokens, _ = beam_from_step(batched(step), eos_id=0, max_len=5, beam_size=1)
            assert tokens == want

    def test_beam_one_keeps_a_one_ulp_lead_under_a_large_running_score(self):
        # token 2 beats token 1 by one float32 ulp at -10; after 100 steps the
        # running score is near -1000, and its rounding must not tie the two
        low = np.float32(-10.0)
        row = np.array([-50.0, low, np.nextafter(low, np.float32(0))], dtype=np.float64)
        step = lambda prefix: row
        assert argmax_from_step(by_prefix(batched(step)), eos_id=0, max_len=100) == [2] * 100
        assert greedy_from_step(batched(step), eos_id=0, max_len=100) == [2] * 100
        tokens, score = beam_from_step(batched(step), eos_id=0, max_len=100, beam_size=1)
        assert tokens == [2] * 100
        assert score == pytest.approx(-1000.0, abs=1e-3)

    def test_exhaustive_beam_matches_enumeration(self):
        vocab_size, max_len = 3, 3
        rng = np.random.default_rng(7)
        width = vocab_size ** max_len
        for _ in range(100):
            step = random_step(rng, vocab_size)
            want_tokens, want_score = enumerate_best(step, 0, max_len, vocab_size)
            got_tokens, got_score = beam_from_step(batched(step), 0, max_len, width)
            assert got_tokens == want_tokens
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_exhaustive_beam_matches_enumeration_with_length_penalty(self):
        vocab_size, max_len, alpha = 3, 4, 0.8
        rng = np.random.default_rng(23)
        width = vocab_size ** max_len
        for _ in range(30):
            step = random_step(rng, vocab_size)
            want_tokens, want_score = enumerate_best(step, 0, max_len, vocab_size,
                                                     alpha=alpha)
            got_tokens, got_score = beam_from_step(batched(step), 0, max_len, width,
                                                   alpha=alpha)
            assert got_tokens == want_tokens
            assert got_score == pytest.approx(want_score, abs=1e-12)

    def test_finished_preferred_over_longer_unfinished(self):
        # beam keeps the finished hypothesis even when an unfinished one
        # has a higher raw running score
        table = {
            (): [math.log(0.4), math.log(0.59), math.log(0.01)],
            (1,): [math.log(0.98), math.log(0.01), math.log(0.01)],
            (2,): [math.log(0.01), math.log(0.01), math.log(0.98)],
        }
        tokens, score = beam_from_step(batched(table_step(table, 3)), 0, max_len=2,
                                       beam_size=3)
        assert tokens == [1]
        assert score == pytest.approx(math.log(0.59) + math.log(0.98), abs=1e-12)

    def test_unfinished_returned_when_nothing_terminates(self):
        step = lambda prefix: np.array([-50.0, -0.5, -1.0])
        tokens, score = beam_from_step(batched(step), 0, max_len=3, beam_size=2)
        assert tokens == [1, 1, 1]
        assert score == pytest.approx(-1.5, abs=1e-12)

    def test_ties_break_by_hypothesis_order_then_token_id(self):
        table = {
            (): [-9, -1, -1, -5],
            (1,): [-9, -1, -3, -3],
            (2,): [-9, -1, -3, -3],
            (1, 1): [-0.5, -4, -4, -4],
            (2, 1): [-0.5, -4, -4, -4],
        }
        # tokens 1 and 2 tie at step one; (1, 1) and (2, 1) tie at every
        # later step and finish together, so only the tie order picks [1, 1]
        tokens, score = beam_from_step(batched(table_step(table, 4)), 0, max_len=5,
                                       beam_size=2)
        assert (tokens, score) == ([1, 1], -2.5)
        # the table above ties hypotheses at two steps, where a reversed
        # hypothesis order would flip twice; here (1,) and (2,) tie once,
        # finishing together, and the earlier hypothesis wins
        table = {
            (): [-9, -1, -2, -5],
            (1,): [-1.5, -9, -9, -9],
            (2,): [-0.5, -9, -9, -9],
        }
        assert beam_from_step(batched(table_step(table, 4)), 0, max_len=5,
                              beam_size=2) == ([1], -2.5)

    def test_each_row_extends_the_previous_call_row_it_names(self):
        step = random_step(np.random.default_rng(13), 5)
        calls = []

        def recording(rows, tokens):
            calls.append((list(rows), tokens.copy()))
            return batched(step)(rows, tokens)

        beam_from_step(recording, 0, max_len=6, beam_size=3)
        assert calls[0][0] == [0] and calls[0][1].shape == (1, 0)
        assert len(calls) > 2
        for (_, previous), (rows, tokens) in zip(calls, calls[1:]):
            assert tokens.shape == (len(rows), previous.shape[1] + 1)
            np.testing.assert_array_equal(tokens[:, :-1], previous[rows])

    def test_deterministic(self):
        step = random_step(np.random.default_rng(3), 5)
        first = beam_from_step(batched(step), 0, max_len=4, beam_size=3)
        again = beam_from_step(batched(step), 0, max_len=4, beam_size=3)
        assert first == again


class TestTopK:
    def test_ties_straddling_the_cut_keep_index_order(self):
        flat = np.array([1.0, 3.0, 2.0, 3.0, 2.0, 2.0])
        assert _top_k(flat, 3).tolist() == [1, 3, 2]
        assert _top_k(flat, 4).tolist() == [1, 3, 2, 4]

    def test_suppressed_entries_and_k_beyond_the_grid(self):
        flat = np.array([-np.inf, 0.5, -np.inf, 0.5])
        assert _top_k(flat, 3).tolist() == [1, 3, 0]
        assert _top_k(flat, 27).tolist() == [1, 3, 0, 2]

    def test_matches_full_stable_sort(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            # few distinct values, so ties at the cut are common
            flat = rng.integers(-3, 3, size=int(rng.integers(1, 40))).astype(np.float64)
            flat[rng.random(flat.size) < 0.2] = -np.inf
            for k in (1, 2, 4, flat.size, flat.size + 5):
                want = np.argsort(-flat, kind="stable")[:k]
                assert _top_k(flat, k).tolist() == want.tolist()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DecodeConfig(strategy="sample")
        with pytest.raises(ConfigError):
            DecodeConfig(beam_size=0)
        with pytest.raises(ConfigError):
            DecodeConfig(max_decode_len=0)
        with pytest.raises(ConfigError):
            DecodeConfig(length_penalty=-0.5)
        DecodeConfig()

    def test_a_built_config_cannot_change(self):
        cfg = DecodeConfig(strategy="beam")
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.beam_size = 0
        with pytest.raises(ConfigError, match="beam_size"):
            dataclasses.replace(cfg, beam_size=0)

    @pytest.mark.parametrize("cfg", [ModelConfig(vocab_size=8), MaskingConfig(), PretrainConfig(),
                                     ClsTaskConfig(), Seq2SeqTaskConfig(), DecodeConfig()],
                             ids=lambda cfg: type(cfg).__name__)
    def test_every_config_is_frozen(self, cfg):
        name = dataclasses.fields(cfg)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, getattr(cfg, name))


@pytest.fixture(scope="module")
def tiny_seq2seq():
    chars = [chr(c) for c in range(0x4E00, 0x4E0C)]
    vocab = build_vocab(chars)
    cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=16,
                      num_heads=2, ff_size=32, max_positions=12,
                      dropout_rate=0.0, decoder_layers=1)
    return build_model(cfg, init_seed=5), vocab


class TestModelDecode:
    def test_no_special_ids_in_output(self, tiny_seq2seq):
        ckpt, vocab = tiny_seq2seq
        out = greedy_decode(ckpt, vocab, "一丁丂", max_decode_len=6)
        assert len(out) <= 6
        assert not set(out) & vocab.special_ids

    def test_beam_one_matches_greedy_on_model(self, tiny_seq2seq):
        ckpt, vocab = tiny_seq2seq
        src = "七丅"
        step, cap = _model_step_fn(ckpt, vocab, src, 5)
        want = argmax_from_step(by_prefix(step), vocab.sep_id, cap)
        assert greedy_decode(ckpt, vocab, src, max_decode_len=5) == want
        cfg = DecodeConfig(strategy="beam", beam_size=1, max_decode_len=5)
        tokens, _ = beam_search(ckpt, vocab, src, cfg)
        assert tokens == want

    def test_beam_output_avoids_specials(self, tiny_seq2seq):
        ckpt, vocab = tiny_seq2seq
        cfg = DecodeConfig(strategy="beam", beam_size=3, max_decode_len=5,
                           length_penalty=0.7)
        tokens, score = beam_search(ckpt, vocab, "丆万", cfg)
        assert not set(tokens) & vocab.special_ids
        assert np.isfinite(score)

    def test_generate_text_returns_plain_string(self, tiny_seq2seq):
        ckpt, vocab = tiny_seq2seq
        text = generate_text(ckpt, vocab, "一丁",
                             DecodeConfig(max_decode_len=4))
        assert isinstance(text, str)
        for special in SPECIAL_TOKENS:
            assert special not in text

    def test_encoder_only_checkpoint_rejected(self, tiny_seq2seq):
        _, vocab = tiny_seq2seq
        cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=16,
                          num_heads=2, ff_size=32, max_positions=12,
                          dropout_rate=0.0)
        encoder_only = build_model(cfg, init_seed=1)
        with pytest.raises(ConfigError, match="seq2seq"):
            greedy_decode(encoder_only, vocab, "一")

    def test_decode_file_preserves_order(self, tiny_seq2seq, tmp_path):
        ckpt, vocab = tiny_seq2seq
        lines = ["一丁", "丂", "七丄丅"]
        src = tmp_path / "in.txt"
        src.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        cfg = DecodeConfig(max_decode_len=4)
        n = decode_file(ckpt, vocab, src, out, cfg)
        assert n == 3
        got = out.read_text(encoding="utf-8").splitlines()
        assert got == [generate_text(ckpt, vocab, ln, cfg) for ln in lines]


def teacher_forced_rows(ckpt, vocab, source, prefixes):
    """Log-prob rows of one uncached decoder pass per prefix, source padded to max_positions."""
    ids, mask = encode(tokenize(source), vocab, ckpt.config.max_positions)
    rows = []
    with T.no_grad():
        hidden = encoder_forward(ckpt, ids[None], mask[None]).hidden
        for prefix in prefixes:
            logits = decoder_forward(ckpt, [[vocab.cls_id] + list(prefix)], hidden, mask[None])
            row = logits.data[0, -1].astype(np.float64)
            row -= row.max()
            row -= np.log(np.exp(row).sum())
            row[[vocab.cls_id, vocab.pad_id]] = -np.inf
            rows.append(row)
    return np.stack(rows)


class TestIncrementalStep:
    """Cached, batched step rows against full teacher-forced decoder passes."""

    @pytest.mark.parametrize("source", ["一丁丂", "", "一丁丂七丄丅丆万丈三上下一丁"])
    def test_greedy_steps_to_the_position_cap(self, tiny_seq2seq, source):
        ckpt, vocab = tiny_seq2seq
        step, cap = _model_step_fn(ckpt, vocab, source, 64)
        step = by_prefix(step)
        assert cap == ckpt.config.max_positions - 1
        body = sorted(set(range(len(vocab))) - vocab.special_ids)
        tokens = np.random.default_rng(2).choice(body, size=cap).tolist()
        for n in range(cap):
            prefix = tokens[:n]
            np.testing.assert_allclose(step([prefix]),
                                       teacher_forced_rows(ckpt, vocab, source, [prefix]),
                                       rtol=0, atol=1e-5)

    def test_beam_steps_reorder_and_drop_rows(self, tiny_seq2seq):
        ckpt, vocab = tiny_seq2seq
        step = by_prefix(_model_step_fn(ckpt, vocab, "七丅", 64)[0])
        a, b, c, d, e = (vocab.id_of(ch) for ch in "一丁丂七丄")
        steps = [
            [[]],
            [[a], [b]],
            [[b, c], [a, d], [a, e]],  # parents out of order: rows [1, 0, 0]
            [[b, c, a], [a, e, d]],    # [a, d] is dropped
        ]
        for prefixes in steps:
            np.testing.assert_allclose(step(prefixes),
                                       teacher_forced_rows(ckpt, vocab, "七丅", prefixes),
                                       rtol=0, atol=1e-5)

    def test_greedy_steps_keep_the_cache_without_a_gather(self, tiny_seq2seq, monkeypatch):
        ckpt, vocab = tiny_seq2seq
        calls = []
        real = decode_module.select_cache_rows

        def spy(cache, rows):
            calls.append(list(rows))
            return real(cache, rows)

        monkeypatch.setattr(decode_module, "select_cache_rows", spy)
        step = by_prefix(_model_step_fn(ckpt, vocab, "七丅", 64)[0])
        a, b, c = (vocab.id_of(ch) for ch in "一丁丂")
        for prefix in ([], [a], [a, b], [a, b, c]):
            np.testing.assert_allclose(step([prefix]),
                                       teacher_forced_rows(ckpt, vocab, "七丅", [prefix]),
                                       rtol=0, atol=1e-5)
        assert calls == []
        step([[a, b, c, a], [a, b, c, b]])  # a beam step that forks its row gathers
        assert calls == [[0, 0]]

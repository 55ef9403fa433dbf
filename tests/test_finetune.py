from dataclasses import replace

import numpy as np
import pytest

from _reference import loop_teacher_forced_batch, old_seq2seq_loss
from inkstone import finetune, optim
from inkstone import tensor as T
from inkstone.corpus import ParallelExample
from inkstone.errors import ConfigError, DatasetError
from inkstone.finetune import (
    ClsTaskConfig,
    Seq2SeqTaskConfig,
    classify,
    dev_bleu,
    finetune_classifier,
    finetune_seq2seq,
    resolve_task_config,
    run_task,
    seq2seq_loss,
)
from inkstone.model import ModelConfig, build_model, parameter_spec
from inkstone.vocab import build_vocab

CHARS = [chr(c) for c in range(0x4E00, 0x4E00 + 10)]

# Captured from the hand-written epoch loops before they were merged into
# one; a change in RNG draw order or update arithmetic moves these.
PINNED_CLS_HISTORY = [
    (1, 0.7186862826347351, 0.5),
    (2, 0.6834599177042643, 0.5),
    (3, 0.6681526104609171, 0.5),
]
PINNED_S2S_HISTORY = [
    (1, 2.653163274129232, 3.3833820809153177),
    (2, 2.196883201599121, 9.622504486493762),
    (3, 1.7276971737543743, 18.307376191519623),
]
PINNED_S2S_FROZEN_HISTORY = [
    (1, 2.6530237992604575, 3.3833820809153177),
    (2, 2.195019483566284, 9.622504486493762),
    (3, 1.6980419953664143, 17.677669529663692),
]


@pytest.fixture(scope="module")
def tiny_encoder():
    vocab = build_vocab(CHARS)
    cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=16,
                      num_heads=2, ff_size=32, max_positions=12,
                      dropout_rate=0.0)
    return build_model(cfg, init_seed=0), vocab


def marker_dataset(rng, n):
    """Class is decided by which of two marker characters appears."""
    data = []
    for cls in rng.integers(0, 2, size=n):
        marker = CHARS[0] if cls == 0 else CHARS[1]
        body = [CHARS[int(i)] for i in rng.integers(2, 10, size=3)]
        body.insert(int(rng.integers(0, 4)), marker)
        data.append(("".join(body), int(cls)))
    return data


@pytest.fixture(scope="module")
def wide_seq2seq():
    """A CPG22-sized batch: 80 pairs with ragged targets over a vocab of 3,007, dropout on."""
    chars = [chr(c) for c in range(0x4E00, 0x4E00 + 3000)]
    vocab = build_vocab(chars)
    cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=64, num_heads=4,
                      max_positions=20, dropout_rate=0.1, decoder_layers=2)
    rng = np.random.default_rng(11)

    def line(n):
        return [chars[int(i)] for i in rng.integers(0, len(chars), size=n)]

    pairs = [ParallelExample(line(int(rng.choice([5, 7]))), line(int(rng.integers(1, 15))),
                             "CPG22") for _ in range(80)]
    return build_model(cfg, init_seed=3), vocab, pairs


def copy_pairs(rng, n, length=3):
    pairs = []
    for _ in range(n):
        toks = [CHARS[int(i)] for i in rng.integers(0, 10, size=length)]
        pairs.append(ParallelExample(list(toks), list(toks), "AMCT"))
    return pairs


def seeded_seq2seq_run(encoder, vocab, freeze_encoder):
    """Three epochs with dropout on; the fixture encoder's own rate is overridden."""
    rng = np.random.default_rng(12)
    train, dev = copy_pairs(rng, 10), copy_pairs(rng, 4)
    cfg = Seq2SeqTaskConfig(batch_size=4, decoder_layers=1,
                            warmup_steps=10, epochs=3, bleu_n=2, max_len=8,
                            max_decode_len=5, dropout=0.1, seed=5,
                            freeze_encoder=freeze_encoder)
    return finetune_seq2seq(encoder, vocab, train, dev, cfg)


def assert_history(got, want):
    assert [row[0] for row in got] == [row[0] for row in want]
    for (_, loss, score), (_, want_loss, want_score) in zip(got, want):
        assert loss == pytest.approx(want_loss, rel=1e-5)
        assert score == pytest.approx(want_score, rel=1e-5, abs=1e-9)


class TestTaskConfig:
    def test_classification_defaults(self):
        cfg = resolve_task_config("PTC", num_classes=3)
        assert isinstance(cfg, ClsTaskConfig)
        assert (cfg.batch_size, cfg.learning_rate, cfg.epochs) == (24, 5e-5, 5)

    def test_generation_defaults(self):
        amct = resolve_task_config("AMCT")
        assert (amct.batch_size, amct.decoder_layers, amct.bleu_n) == (30, 4, 4)
        cpg = resolve_task_config("CPG22")
        assert (cpg.batch_size, cpg.decoder_layers, cpg.bleu_n) == (80, 2, 4)
        assert resolve_task_config("CPG13").decoder_layers == 2
        ccg = resolve_task_config("CCG")
        assert (ccg.decoder_layers, ccg.bleu_n, ccg.warmup_steps) == (4, 2, 4000)

    def test_generation_trains_with_transformer_adam(self, tiny_encoder, monkeypatch):
        seen = []
        real = optim.adam_step

        def spy(*args, **kwargs):
            seen.append({k: kwargs[k] for k in ("beta1", "beta2", "eps")})
            return real(*args, **kwargs)

        monkeypatch.setattr(optim, "adam_step", spy)
        pairs = copy_pairs(np.random.default_rng(4), 4)
        cfg = Seq2SeqTaskConfig(batch_size=2, decoder_layers=1, epochs=1, bleu_n=2,
                                max_len=8, max_decode_len=2)
        finetune_seq2seq(*tiny_encoder, pairs, pairs, cfg)
        assert seen == [{"beta1": 0.9, "beta2": 0.98, "eps": 1e-9}] * 2

    @pytest.mark.parametrize("task, option", [("AMCT", "learning_rate"),
                                              ("CCG", "num_classes"), ("PTC", "bleu_n")])
    def test_option_the_task_does_not_take(self, task, option):
        with pytest.raises(ConfigError, match=f"{task}.*{option}"):
            resolve_task_config(task, **{option: 2})

    def test_overrides_and_unknown_task(self):
        cfg = resolve_task_config("AMCT", batch_size=4, epochs=2)
        assert (cfg.batch_size, cfg.epochs) == (4, 2)
        with pytest.raises(ConfigError):
            resolve_task_config("XYZ")

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ClsTaskConfig(num_classes=1)
        with pytest.raises(ConfigError):
            ClsTaskConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            Seq2SeqTaskConfig(warmup_steps=0)


class TestClassifier:
    def test_learns_separable_markers(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(0)
        train = marker_dataset(rng, 32)
        dev = marker_dataset(rng, 16)
        cfg = ClsTaskConfig(num_classes=2, batch_size=8, learning_rate=1e-2,
                            epochs=20, dropout=0.0, max_len=8, seed=1)
        ckpt, history = finetune_classifier(encoder, vocab, train, dev, cfg)
        accs = [h[2] for h in history]
        assert max(accs) >= 0.8
        assert history[-1][1] < history[0][1] * 0.5
        # returned checkpoint reproduces the best recorded dev accuracy
        preds = classify(ckpt, vocab, [t for t, _ in dev], max_len=8)
        acc = float(np.mean([p == l for p, (_, l) in zip(preds, dev)]))
        assert acc == pytest.approx(max(accs), abs=1e-12)
        assert ckpt.step == max(e for e, _, a in history if a == max(accs))

    def test_source_checkpoint_untouched(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        before = {k: v.data.copy() for k, v in encoder.params.items()}
        rng = np.random.default_rng(3)
        cfg = ClsTaskConfig(num_classes=2, batch_size=8, learning_rate=1e-3,
                            epochs=1, dropout=0.0, max_len=8)
        finetune_classifier(encoder, vocab, marker_dataset(rng, 8),
                            marker_dataset(rng, 4), cfg)
        for name, data in before.items():
            assert np.array_equal(encoder.params[name].data, data)

    def test_seeded_history_is_pinned(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(11)
        train, dev = marker_dataset(rng, 12), marker_dataset(rng, 8)
        cfg = ClsTaskConfig(num_classes=2, batch_size=5, learning_rate=1e-3,
                            epochs=3, dropout=0.1, max_len=8, seed=4)
        _, history = finetune_classifier(encoder, vocab, train, dev, cfg)
        assert_history(history, PINNED_CLS_HISTORY)

    def test_label_and_data_validation(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        cfg = ClsTaskConfig(num_classes=2, epochs=1, max_len=8)
        with pytest.raises(DatasetError):
            finetune_classifier(encoder, vocab, [], [("x", 0)], cfg)
        with pytest.raises(DatasetError, match="label"):
            finetune_classifier(encoder, vocab, [(CHARS[0], 2)],
                                [(CHARS[1], 0)], cfg)


class TestSeq2Seq:
    def test_batch_matches_the_loop_reference(self, tiny_encoder):
        _, vocab = tiny_encoder
        rng = np.random.default_rng(5)

        def tokens(most):
            return [CHARS[i] for i in rng.integers(0, 10, rng.integers(0, most))]

        batches = [[ParallelExample(tokens(6), tokens(7), "AMCT")
                    for _ in range(int(rng.integers(1, 5)))] for _ in range(30)]
        batches.append([ParallelExample(tokens(6), [], "AMCT")] * 2)
        for pairs in batches:
            got = finetune._teacher_forced_batch(pairs, vocab, 8)
            want = loop_teacher_forced_batch(pairs, vocab, 8)
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and g.dtype == w.dtype

    def test_loss_unaffected_by_batch_padding(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(1)
        short = copy_pairs(rng, 1, length=2)[0]
        long = copy_pairs(rng, 1, length=5)[0]
        from inkstone.model import init_seq2seq_from_encoder

        ckpt = init_seq2seq_from_encoder(encoder, 1, init_seed=4)
        with T.no_grad():
            both = float(seq2seq_loss(ckpt, vocab, [short, long], 10).data)
            l_short = float(seq2seq_loss(ckpt, vocab, [short], 10).data)
            l_long = float(seq2seq_loss(ckpt, vocab, [long], 10).data)
        n_short, n_long = len(short.target) + 1, len(long.target) + 1
        want = (n_short * l_short + n_long * l_long) / (n_short + n_long)
        assert both == pytest.approx(want, abs=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths", [(3, 0, 5, 1), (4, 4, 4)], ids=["ragged", "full"])
    def test_gathered_rows_match_the_flat_positions(self, tiny_encoder, dtype, lengths):
        from inkstone.model import init_seq2seq_from_encoder

        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(3)
        pairs = [copy_pairs(rng, 1, length=n)[0] for n in lengths]
        ckpt = init_seq2seq_from_encoder(encoder, 2, init_seed=4)
        ckpt.config = replace(ckpt.config, dropout_rate=0.1)
        for p in ckpt.params.values():
            p.data = p.data.astype(dtype)
        runs = []
        for loss_fn in (seq2seq_loss, old_seq2seq_loss):
            loss = loss_fn(ckpt, vocab, pairs, 10, rng=np.random.default_rng(9))
            T.backward(loss)
            runs.append((loss.data, {k: p.grad for k, p in ckpt.params.items()}))
            for p in ckpt.params.values():
                p.grad = None
        (loss, grads), (want_loss, want_grads) = runs
        assert loss.dtype == dtype and np.array_equal(loss, want_loss)
        for name, want in want_grads.items():
            assert grads[name].dtype == dtype, name
            assert np.array_equal(grads[name], want), name

    def test_projects_only_the_labelled_rows(self, wide_seq2seq, monkeypatch):
        ckpt, vocab, pairs = wide_seq2seq
        linear, shapes = T.linear, []

        def recording(x, w, b):
            out = linear(x, w, b)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(T, "linear", recording)
        seq2seq_loss(ckpt, vocab, pairs, 20, rng=np.random.default_rng(9))
        n_labels = sum(len(p.target) + 1 for p in pairs)
        assert [s for s in shapes if s[-1] == len(vocab)] == [(n_labels, len(vocab))]

    def test_matches_the_padded_projection_at_a_finetune_shape(self, wide_seq2seq):
        # the projection GEMMs change shape, so float32 rounding may differ in the last bits
        ckpt, vocab, pairs = wide_seq2seq
        runs = []
        for loss_fn in (seq2seq_loss, old_seq2seq_loss):
            loss = loss_fn(ckpt, vocab, pairs, 20, rng=np.random.default_rng(9))
            T.backward(loss)
            runs.append((float(loss.data), {k: p.grad for k, p in ckpt.params.items()}))
            for p in ckpt.params.values():
                p.grad = None
        (loss, grads), (want_loss, want_grads) = runs
        assert loss == pytest.approx(want_loss, rel=1e-6)
        for name, want in want_grads.items():
            np.testing.assert_allclose(grads[name], want, rtol=0,
                                       atol=1e-6 * np.abs(want).max(), err_msg=name)

    def test_memorizes_small_copy_set(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(7)
        pairs = copy_pairs(rng, 20)
        cfg = Seq2SeqTaskConfig(batch_size=5, decoder_layers=1,
                                warmup_steps=50, epochs=40, bleu_n=2,
                                max_len=8, max_decode_len=5, dropout=0.0,
                                seed=2)
        ckpt, history = finetune_seq2seq(encoder, vocab, pairs, pairs, cfg)
        bleus = [h[2] for h in history]
        assert history[-1][1] < history[0][1] * 0.2
        assert max(bleus) >= 60.0
        got = dev_bleu(ckpt, vocab, pairs, cfg.bleu_n, cfg.max_decode_len)
        assert got == pytest.approx(max(bleus), abs=1e-9)
        assert ckpt.step == max(e for e, _, b in history if b == max(bleus))

    def test_dev_bleu_scores_the_text_generate_writes(self, tiny_encoder):
        from inkstone.decode import DecodeConfig, generate_text, greedy_decode
        from inkstone.evaluate import bleu
        from inkstone.model import init_seq2seq_from_encoder
        from inkstone.vocab import tokenize

        encoder, vocab = tiny_encoder
        ckpt = init_seq2seq_from_encoder(encoder, 1, init_seed=3)
        # a small lift makes greedy emit [MASK] first, then plain characters
        ckpt.params["dec.out.b"].data[vocab.mask_id] += 0.08
        pairs = [ParallelExample(tokenize(s), tokenize(s), "AMCT")
                 for s in ("一丁丂七", "七丄丅丆", "丅丆万丈")]
        ids = [greedy_decode(ckpt, vocab, p.source_text, 4) for p in pairs]
        assert all(vocab.mask_id in out and set(out) - vocab.special_ids for out in ids)
        cfg = DecodeConfig(max_decode_len=4)
        written = [tokenize(generate_text(ckpt, vocab, p.source_text, cfg)) for p in pairs]
        want = bleu(written, [p.target for p in pairs], max_n=2).score
        with_specials = bleu([[vocab.id_to_token[i] for i in out] for out in ids],
                             [p.target for p in pairs], max_n=2).score
        assert want != with_specials
        assert dev_bleu(ckpt, vocab, pairs, 2, 4) == want

    def test_freeze_encoder_keeps_encoder_weights(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(9)
        pairs = copy_pairs(rng, 8)
        cfg = Seq2SeqTaskConfig(batch_size=4, decoder_layers=1,
                                warmup_steps=10, epochs=2, bleu_n=2,
                                max_len=8, max_decode_len=5, dropout=0.0,
                                seed=3, freeze_encoder=True)
        ckpt, _ = finetune_seq2seq(encoder, vocab, pairs, pairs, cfg)
        enc_names = set(parameter_spec(encoder.config))
        for name in enc_names:
            assert np.array_equal(ckpt.params[name].data,
                                  encoder.params[name].data), name
        dec_changed = [n for n in ckpt.params
                       if n not in enc_names and n.startswith("dec.")]
        fresh = None
        from inkstone.model import init_seq2seq_from_encoder

        fresh = init_seq2seq_from_encoder(encoder, 1, init_seed=3)
        assert any(not np.array_equal(ckpt.params[n].data, fresh.params[n].data)
                   for n in dec_changed)

    def test_seeded_history_is_pinned(self, tiny_encoder):
        _, history = seeded_seq2seq_run(*tiny_encoder, freeze_encoder=False)
        assert_history(history, PINNED_S2S_HISTORY)

    def test_frozen_seeded_history_is_pinned(self, tiny_encoder):
        _, history = seeded_seq2seq_run(*tiny_encoder, freeze_encoder=True)
        assert_history(history, PINNED_S2S_FROZEN_HISTORY)

    def test_frozen_encoder_never_carries_a_gradient(self, tiny_encoder, monkeypatch):
        seen = []
        real = optim.collect_grads

        def spy(params):
            grads = real(params)
            seen.append(set(grads))
            return grads

        monkeypatch.setattr(optim, "collect_grads", spy)
        monkeypatch.setattr(finetune, "collect_grads", spy, raising=False)
        seeded_seq2seq_run(*tiny_encoder, freeze_encoder=True)
        enc_names = set(parameter_spec(tiny_encoder[0].config))
        assert len(seen) == 9  # 3 epochs of 3 batches
        for names in seen:
            assert names and not names & enc_names

    def test_frozen_run_returns_a_fully_trainable_checkpoint(self, tiny_encoder):
        ckpt, _ = seeded_seq2seq_run(*tiny_encoder, freeze_encoder=True)
        assert all(p.requires_grad for p in ckpt.params.values())

    def test_overlong_examples_rejected(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(2)
        pairs = copy_pairs(rng, 2, length=7)
        cfg = Seq2SeqTaskConfig(batch_size=2, decoder_layers=1,
                                epochs=1, max_len=8, dropout=0.0)
        with pytest.raises(DatasetError, match="max_len"):
            finetune_seq2seq(encoder, vocab, pairs, pairs, cfg)

    def test_empty_sets_rejected(self, tiny_encoder):
        encoder, vocab = tiny_encoder
        cfg = Seq2SeqTaskConfig(epochs=1, dropout=0.0)
        with pytest.raises(DatasetError):
            finetune_seq2seq(encoder, vocab, [], [], cfg)


class TestRunTask:
    def test_writes_metrics_report(self, tiny_encoder, tmp_path):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(5)
        pairs = copy_pairs(rng, 6)
        ckpt, history = run_task("AMCT", encoder, vocab, pairs, pairs,
                                 out_dir=tmp_path, batch_size=3,
                                 decoder_layers=1, warmup_steps=10, epochs=2,
                                 bleu_n=2, max_len=8, max_decode_len=5,
                                 dropout=0.0, seed=1)
        lines = (tmp_path / "metrics.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch\ttrain_loss\tdev_bleu"
        assert len(lines) == 1 + len(history) == 3
        assert lines[1].startswith("1\t")

    def test_classification_dispatch(self, tiny_encoder, tmp_path):
        encoder, vocab = tiny_encoder
        rng = np.random.default_rng(6)
        train = marker_dataset(rng, 8)
        ckpt, history = run_task("PTC", encoder, vocab, train, train,
                                 out_dir=tmp_path, num_classes=2, batch_size=4,
                                 epochs=2, dropout=0.0, max_len=8,
                                 learning_rate=1e-3)
        header = (tmp_path / "metrics.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "epoch\ttrain_loss\tdev_accuracy"
        assert "cls.w" in ckpt.params

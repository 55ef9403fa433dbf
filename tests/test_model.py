"""Model construction, forward pass, and checkpoint tests."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from _reference import (
    mul,
    old_embedding_backward,
    old_save_checkpoint_v1,
    old_truncated_normal,
    reduce_sum,
    ref_decoder_logits,
    ref_encoder_hidden,
)
from inkstone import model
from inkstone import tensor as T
from inkstone.corpus import ParallelExample
from inkstone.errors import CheckpointError, ConfigError
from inkstone.finetune import seq2seq_loss
from inkstone.model import (
    Checkpoint,
    ModelConfig,
    build_model,
    cls_head,
    decoder_forward,
    encoder_forward,
    ensure_cls_head,
    ensure_mlm_head,
    expected_parameter_count,
    init_seq2seq_from_encoder,
    load_checkpoint,
    mlm_head,
    parameter_count,
    parameter_spec,
    save_checkpoint,
)
from inkstone.vocab import build_vocab


def toy_config(**overrides) -> ModelConfig:
    base = dict(vocab_size=20, num_layers=1, hidden_size=16, num_heads=2,
                ff_size=32, max_positions=10, num_segments=2, dropout_rate=0.0)
    base.update(overrides)
    return ModelConfig(**base)


def legacy_checkpoint_parts(ckpt):
    """The bytes of a version-1 file as older versions wrote it.

    Returns (weights, optimizer): the magic, version, header with "opt_t"
    and weight records, then one opt/m/* and one opt/v/* record per weight.
    """
    def record(name, arr):
        arr = np.ascontiguousarray(arr, dtype="<f4")
        raw = name.encode("utf-8")
        dims = b"".join(struct.pack("<Q", d) for d in arr.shape)
        return (struct.pack("<Q", len(raw)) + raw + struct.pack("<Q", arr.ndim)
                + dims + arr.tobytes())

    header = json.dumps({"config": ckpt.config.to_dict(), "step": ckpt.step,
                         "opt_t": 7}, sort_keys=True).encode("utf-8")
    weights = b"ANCH" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
    weights += b"".join(record(n, ckpt.params[n].data) for n in sorted(ckpt.params))
    optimizer = b"".join(record(f"opt/{kind}/{n}", ckpt.params[n].data * 0.5)
                         for kind in ("m", "v") for n in sorted(ckpt.params))
    return weights, optimizer


@pytest.fixture
def enc_ckpt():
    return build_model(toy_config(), init_seed=3)


@pytest.fixture
def seq_ckpt():
    return build_model(toy_config(decoder_layers=1), init_seed=3)


class TestBuild:
    def test_count_matches_enumeration(self):
        for cfg in (toy_config(), toy_config(num_layers=3, hidden_size=24, num_heads=3),
                    toy_config(decoder_layers=2)):
            ckpt = build_model(cfg, init_seed=0)
            enumerated = sum(v.data.size for v in ckpt.params.values())
            assert enumerated == expected_parameter_count(cfg)
            assert parameter_count(ckpt) == enumerated

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            build_model(ModelConfig(vocab_size=10, num_layers=1, hidden_size=10,
                                    num_heads=4, max_positions=8))

    def test_build_is_deterministic(self):
        a = build_model(toy_config(), init_seed=7)
        b = build_model(toy_config(), init_seed=7)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_inits_follow_role(self, enc_ckpt):
        p = enc_ckpt.params
        assert np.array_equal(p["enc.0.attn_ln.gamma"].data, np.ones(16, dtype=np.float32))
        assert np.array_equal(p["enc.0.attn.bq"].data, np.zeros(16, dtype=np.float32))
        w = p["enc.0.attn.wq"].data
        assert np.abs(w).max() <= 0.04 + 1e-6  # truncated at two sigma
        assert w.std() > 0.005

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shape, std", [((1,), 0.02), ((7, 3), 0.02), ((64, 33), 1.0),
                                            ((2, 3, 50), 0.5), ((3007, 64), 0.02)])
    def test_truncated_normal_matches_the_rescanning_loop(self, seed, shape, std):
        rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model.truncated_normal(rng, shape, std)
        want = old_truncated_normal(old_rng, shape, std)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # the same number of draws: the generators continue alike
        assert rng.bit_generator.state == old_rng.bit_generator.state

    def test_truncated_normal_holds_no_full_size_temporary(self):
        tracemalloc.start()
        try:
            w = model.truncated_normal(np.random.default_rng(0), (20007, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * w.nbytes, f"peak {peak} B for a {w.nbytes} B result"

    def test_spec_covers_exactly_the_built_params(self, seq_ckpt):
        assert set(seq_ckpt.params) == set(parameter_spec(seq_ckpt.config))


class TestEncoderForward:
    def test_matches_loop_reference(self, enc_ckpt):
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 20, size=(2, 7))
        mask = np.array([[1, 1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1, 1]])
        out = encoder_forward(enc_ckpt, ids, mask)
        ref = ref_encoder_hidden(enc_ckpt, ids, mask)
        # compare positions the mask keeps; padded positions are unconstrained
        for b in range(2):
            keep = mask[b] == 1
            assert np.allclose(out.hidden.data[b][keep], ref[b][keep], atol=1e-5)

    def test_identical_rows_get_identical_states(self, enc_ckpt):
        ids = np.array([[2, 3, 4, 5], [2, 3, 4, 5]])
        out = encoder_forward(enc_ckpt, ids).hidden.data
        assert np.array_equal(out[0], out[1])

    def test_padding_does_not_leak(self, enc_ckpt):
        ids = np.array([[2, 3, 4, 5]])
        mask = np.ones((1, 4), dtype=np.int64)
        short = encoder_forward(enc_ckpt, ids, mask).hidden.data
        padded_ids = np.array([[2, 3, 4, 5, 0, 0]])
        padded_mask = np.array([[1, 1, 1, 1, 0, 0]])
        long = encoder_forward(enc_ckpt, padded_ids, padded_mask).hidden.data
        assert np.max(np.abs(long[0, :4] - short[0])) < 1e-5

    def test_pooled_is_first_position(self, enc_ckpt):
        out = encoder_forward(enc_ckpt, np.array([[2, 3, 4]]))
        assert np.array_equal(out.pooled.data, out.hidden.data[:, 0, :])

    def test_too_long_sequence_rejected(self, enc_ckpt):
        with pytest.raises(ValueError, match="max_positions"):
            encoder_forward(enc_ckpt, np.zeros((1, 11), dtype=np.int64))

    def test_flat_ids_rejected(self, enc_ckpt):
        with pytest.raises(ValueError, match=r"ids must be \(batch, length\)"):
            encoder_forward(enc_ckpt, np.array([2, 3, 4]))

    @pytest.mark.parametrize("shape", [(3, 2), (6,), (1, 3)])
    @pytest.mark.parametrize("which", ["attention_mask"])
    def test_mask_of_another_shape_rejected(self, enc_ckpt, which, shape):
        ids = np.array([[2, 3, 4], [5, 6, 7]])
        with pytest.raises(ValueError, match=which):
            encoder_forward(enc_ckpt, ids, **{which: np.ones(shape, dtype=np.int64)})

    def test_segment_gradient_matches_the_old_scatter(self):
        # every token id is distinct, so emb.token's gradient rows are the
        # gradient that reaches the embedding sum, unscattered
        cfg = toy_config(vocab_size=400, max_positions=20, dropout_rate=0.1)
        ckpt = build_model(cfg, init_seed=4)
        rng = np.random.default_rng(8)
        ids = rng.permutation(cfg.vocab_size)[:300].reshape(15, 20)
        hidden = encoder_forward(ckpt, ids, rng=rng).hidden
        probe = rng.standard_normal(hidden.shape).astype(np.float32)
        T.backward(reduce_sum(mul(hidden, T.Tensor(probe))))
        seg = ckpt.params["emb.seg"]
        g_sum = ckpt.params["emb.token"].grad[ids]
        want = old_embedding_backward(seg.data, np.zeros(ids.shape, dtype=np.int64), g_sum)
        assert seg.grad.dtype == np.float32 and np.array_equal(seg.grad, want)
        assert not seg.grad[1].any()

    def test_dropout_is_seed_reproducible(self):
        ckpt = build_model(toy_config(dropout_rate=0.3), init_seed=0)
        ids = np.array([[2, 3, 4]])
        a = encoder_forward(ckpt, ids, rng=np.random.default_rng(5)).hidden.data
        b = encoder_forward(ckpt, ids, rng=np.random.default_rng(5)).hidden.data
        c = encoder_forward(ckpt, ids, rng=np.random.default_rng(6)).hidden.data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @staticmethod
    def forward_with_rng(dropout_rate):
        cfg = toy_config(num_layers=2, dropout_rate=dropout_rate)
        ckpt = build_model(cfg, init_seed=3)
        ensure_cls_head(ckpt, 3, init_seed=4)
        rng = np.random.default_rng(9)
        ids, mask = np.array([[2, 3, 4, 5], [6, 7, 8, 0]]), np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
        out = encoder_forward(ckpt, ids, mask, rng=rng)
        after_encoder = rng.bit_generator.state["state"]["state"]
        cls_head(ckpt, out.pooled, rng=rng)
        return after_encoder, rng.bit_generator.state["state"]["state"]

    def test_rng_at_dropout_zero_draws_nothing(self):
        untouched = np.random.default_rng(9).bit_generator.state["state"]["state"]
        assert self.forward_with_rng(0.0) == (untouched, untouched)

    def test_rng_draws_as_the_training_flag_did(self):
        # generator states captured with the former train=True, rng=rng calls
        assert self.forward_with_rng(0.2) == (180293636912321669276411232890417648335,
                                              36705407240593844134445640587455905775)


class TestDecoderForward:
    def test_matches_loop_reference(self, seq_ckpt):
        rng = np.random.default_rng(1)
        src_ids = rng.integers(0, 20, size=(2, 6))
        src_mask = np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]])
        tgt_ids = rng.integers(0, 20, size=(2, 5))
        enc = encoder_forward(seq_ckpt, src_ids, src_mask)
        logits = decoder_forward(seq_ckpt, tgt_ids, enc.hidden, src_mask).data
        ref = ref_decoder_logits(seq_ckpt, tgt_ids, enc.hidden.data, src_mask)
        assert np.allclose(logits, ref, atol=1e-4)

    def test_causality(self, seq_ckpt):
        rng = np.random.default_rng(2)
        src_ids = rng.integers(0, 20, size=(1, 4))
        enc = encoder_forward(seq_ckpt, src_ids)
        tgt = np.array([[3, 4, 5, 6]])
        base = decoder_forward(seq_ckpt, tgt, enc.hidden, np.ones((1, 4))).data
        changed = tgt.copy()
        changed[0, 2] = 9  # positions 0 and 1 must not see this
        after = decoder_forward(seq_ckpt, changed, enc.hidden, np.ones((1, 4))).data
        assert np.array_equal(base[0, :2], after[0, :2])
        assert not np.allclose(base[0, 2:], after[0, 2:])

    def test_depends_on_encoder_states(self, seq_ckpt):
        src_ids = np.array([[2, 3, 4]])
        enc = encoder_forward(seq_ckpt, src_ids)
        tgt = np.array([[5, 6]])
        a = decoder_forward(seq_ckpt, tgt, enc.hidden, np.ones((1, 3))).data
        zeros = T.Tensor(np.zeros_like(enc.hidden.data))
        b = decoder_forward(seq_ckpt, tgt, zeros, np.ones((1, 3))).data
        assert not np.allclose(a, b)

    def test_appended_target_padding_leaves_prefix_alone(self, seq_ckpt):
        src_ids = np.array([[2, 3, 4]])
        enc = encoder_forward(seq_ckpt, src_ids)
        mask = np.ones((1, 3))
        short = decoder_forward(seq_ckpt, np.array([[5, 6]]), enc.hidden, mask).data
        long = decoder_forward(seq_ckpt, np.array([[5, 6, 0, 0]]), enc.hidden, mask).data
        assert np.array_equal(long[0, :2], short[0])

    def test_cached_chunks_match_one_pass(self, seq_ckpt):
        rng = np.random.default_rng(3)
        src_ids = rng.integers(0, 20, size=(2, 6))
        src_mask = np.array([[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]])
        tgt = rng.integers(0, 20, size=(2, 10))
        enc = encoder_forward(seq_ckpt, src_ids, src_mask)
        full = decoder_forward(seq_ckpt, tgt, enc.hidden, src_mask).data
        cache = {}
        # chunks of several new positions check the offset causal mask
        chunks = [decoder_forward(seq_ckpt, tgt[:, a:b], enc.hidden, src_mask, cache=cache).data
                  for a, b in ((0, 3), (3, 4), (4, 10))]
        np.testing.assert_allclose(np.concatenate(chunks, axis=1), full, rtol=0, atol=1e-5)
        with pytest.raises(ValueError, match="max_positions"):
            decoder_forward(seq_ckpt, tgt[:, :1], enc.hidden, src_mask, cache=cache)
        with pytest.raises(ValueError, match="inference only"):
            decoder_forward(seq_ckpt, tgt, enc.hidden, src_mask,
                            rng=np.random.default_rng(0), cache={})

    def test_flat_target_ids_and_source_mask_rejected(self, seq_ckpt):
        enc = encoder_forward(seq_ckpt, np.array([[2, 3, 4]]))
        with pytest.raises(ValueError, match=r"ids must be \(batch, length\)"):
            decoder_forward(seq_ckpt, np.array([5, 6]), enc.hidden, np.ones((1, 3)))
        with pytest.raises(ValueError, match=r"source_mask must be \(batch, length\)"):
            decoder_forward(seq_ckpt, np.array([[5, 6]]), enc.hidden, np.ones(3))

    def test_encoder_only_checkpoint_rejected(self, enc_ckpt):
        enc = encoder_forward(enc_ckpt, np.array([[2, 3]]))
        with pytest.raises(ConfigError, match="no decoder"):
            decoder_forward(enc_ckpt, np.array([[1]]), enc.hidden, np.ones((1, 2)))


class TestHeads:
    def test_mlm_logit_shape_and_missing_head(self, enc_ckpt):
        out = encoder_forward(enc_ckpt, np.array([[2, 3, 4]]))
        with pytest.raises(ConfigError, match="MLM head"):
            mlm_head(enc_ckpt, out.hidden)
        ensure_mlm_head(enc_ckpt, init_seed=1)
        logits = mlm_head(enc_ckpt, out.hidden)
        assert logits.shape == (1, 3, 20)

    def test_mlm_projection_is_tied_to_embedding(self, enc_ckpt):
        ensure_mlm_head(enc_ckpt, init_seed=1)
        out = encoder_forward(enc_ckpt, np.array([[2, 3, 4]]))
        loss = T.cross_entropy_masked(
            T.reshape(mlm_head(enc_ckpt, out.hidden), (3, 20)), [1], [5])
        T.backward(loss)
        assert enc_ckpt.params["emb.token"].grad is not None
        assert np.abs(enc_ckpt.params["emb.token"].grad).sum() > 0

    def test_cls_head_shape_and_validation(self, enc_ckpt):
        with pytest.raises(ConfigError, match="num_classes"):
            ensure_cls_head(enc_ckpt, num_classes=1)
        ensure_cls_head(enc_ckpt, num_classes=3, init_seed=2)
        out = encoder_forward(enc_ckpt, np.array([[2, 3, 4], [5, 6, 7]]))
        logits = cls_head(enc_ckpt, out.pooled)
        assert logits.shape == (2, 3)
        with pytest.raises(ConfigError, match="3 classes"):
            ensure_cls_head(enc_ckpt, num_classes=4)


class TestGradients:
    def test_encoder_and_heads_grad_check(self):
        cfg = toy_config(vocab_size=12, hidden_size=16, num_heads=2, ff_size=24,
                         max_positions=6)
        ckpt = build_model(cfg, init_seed=11)
        ensure_mlm_head(ckpt, init_seed=12)
        ids = np.array([[2, 7, 4, 1], [3, 3, 9, 0]])
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]])

        def build():
            out = encoder_forward(ckpt, ids, mask)
            logits = T.reshape(mlm_head(ckpt, out.hidden), (8, 12))
            return T.cross_entropy_masked(logits, [1, 2, 5], [4, 9, 2])

        err = T.grad_check(build, list(ckpt.params.values()), eps=1e-4)
        assert err < 1e-3

    def test_decoder_grad_check(self):
        cfg = toy_config(vocab_size=8, hidden_size=8, num_heads=2, ff_size=12,
                         max_positions=6, decoder_layers=1)
        ckpt = build_model(cfg, init_seed=4)
        src = np.array([[2, 5, 3]])
        tgt = np.array([[1, 4, 6]])

        def build():
            enc = encoder_forward(ckpt, src)
            logits = decoder_forward(ckpt, tgt, enc.hidden, np.ones((1, 3)))
            return T.cross_entropy_masked(T.reshape(logits, (3, 8)), [0, 1, 2], [4, 6, 2])

        err = T.grad_check(build, list(ckpt.params.values()), eps=1e-4)
        assert err < 1e-3


class TestCheckpointIO:
    def test_round_trip_is_bit_identical(self, tmp_path, seq_ckpt):
        path = tmp_path / "model.ckpt"
        ensure_mlm_head(seq_ckpt, init_seed=5)
        seq_ckpt.step = 123
        save_checkpoint(seq_ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 123
        assert set(loaded.params) == set(seq_ckpt.params)
        for name in seq_ckpt.params:
            assert np.array_equal(loaded.params[name].data, seq_ckpt.params[name].data)
        # forward outputs are bit-identical too
        ids = np.array([[2, 3, 4]])
        a = encoder_forward(seq_ckpt, ids).hidden.data
        b = encoder_forward(loaded, ids).hidden.data
        assert np.array_equal(a, b)

    def test_save_is_deterministic(self, tmp_path, enc_ckpt):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(enc_ckpt, p1)
        save_checkpoint(enc_ckpt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path, enc_ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(enc_ckpt, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path, enc_ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(enc_ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path, enc_ckpt):
        path = tmp_path / "model.ckpt"
        good = enc_ckpt.params["emb.token"]
        enc_ckpt.params["emb.token"] = T.parameter(np.zeros((3, 3), dtype=np.float32))
        save_checkpoint(enc_ckpt, path)
        enc_ckpt.params["emb.token"] = good
        with pytest.raises(CheckpointError, match="emb.token"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path, enc_ckpt):
        path = tmp_path / "model.ckpt"
        enc_ckpt.params["bogus.w"] = T.parameter(np.zeros(3, dtype=np.float32))
        save_checkpoint(enc_ckpt, path)
        del enc_ckpt.params["bogus.w"]
        with pytest.raises(CheckpointError, match="bogus.w"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path, enc_ckpt):
        path = tmp_path / "model.ckpt"
        saved = enc_ckpt.params.pop("enc.0.ffn.w1")
        save_checkpoint(enc_ckpt, path)
        enc_ckpt.params["enc.0.ffn.w1"] = saved
        with pytest.raises(CheckpointError, match="enc.0.ffn.w1"):
            load_checkpoint(path)

    def test_failed_save_leaves_previous_file(self, tmp_path, enc_ckpt, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(enc_ckpt, path)
        before = path.read_bytes()
        calls = []
        real = model._write_tensor

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("injected write failure")
            return real(*args)

        monkeypatch.setattr(model, "_write_tensor", failing)
        enc_ckpt.step = 99
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(enc_ckpt, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_older_file_with_optimizer_records_loads_its_weights(self, tmp_path, seq_ckpt):
        ensure_mlm_head(seq_ckpt, init_seed=5)
        seq_ckpt.step = 42
        weights, optimizer = legacy_checkpoint_parts(seq_ckpt)
        path = tmp_path / "old.ckpt"
        path.write_bytes(weights + optimizer)
        loaded = load_checkpoint(path)
        assert loaded.step == 42
        assert set(loaded.params) == set(seq_ckpt.params)
        for name, p in seq_ckpt.params.items():
            assert np.array_equal(loaded.params[name].data, p.data)
        # saving it again writes the weights alone
        save_checkpoint(loaded, tmp_path / "new.ckpt")
        assert b"opt/" not in (tmp_path / "new.ckpt").read_bytes()

    @pytest.mark.parametrize("cut", [10, -3], ids=["in-first-name", "in-last-data"])
    def test_older_file_truncated_inside_optimizer_records_rejected(self, tmp_path,
                                                                     enc_ckpt, cut):
        weights, optimizer = legacy_checkpoint_parts(enc_ckpt)
        path = tmp_path / "old.ckpt"
        path.write_bytes(weights + optimizer[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_older_file_with_duplicate_optimizer_record_rejected(self, tmp_path, enc_ckpt):
        weights, optimizer = legacy_checkpoint_parts(enc_ckpt)
        path = tmp_path / "old.ckpt"
        m_records = optimizer[: len(optimizer) // 2]  # m and v records are equal in size
        path.write_bytes(weights + optimizer + m_records)
        with pytest.raises(CheckpointError, match="duplicate tensor opt/m/"):
            load_checkpoint(path)

    def test_corrupt_dims_rejected_before_allocating(self, tmp_path, enc_ckpt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(enc_ckpt, path)
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<Q", blob, 8)[0]
        name_at = 16 + header_len
        name_len = struct.unpack_from("<Q", blob, name_at)[0]
        dims_at = name_at + 8 + name_len + 8
        struct.pack_into("<Q", blob, dims_at, 1 << 40)  # a 4 TB tensor
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated.*data of"):
            load_checkpoint(path)

    def test_save_writes_each_tensor_without_a_copy(self, tmp_path):
        tracemalloc.start()
        try:
            table = np.ones((20007, 256), dtype=np.float32)
            save_checkpoint(Checkpoint(toy_config(), {"emb.token": T.parameter(table)}),
                            tmp_path / "one.ckpt")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * table.nbytes, f"peak {peak} B for a {table.nbytes} B tensor"

    @pytest.mark.parametrize("name", ["emb.token", "enc.0.ffn.w1"])
    def test_flipped_payload_byte_names_the_tensor(self, tmp_path, enc_ckpt, name):
        path = tmp_path / "model.ckpt"
        save_checkpoint(enc_ckpt, path)
        blob = bytearray(path.read_bytes())
        payload = enc_ckpt.params[name].data.astype("<f4").tobytes()
        at = blob.find(payload)
        assert at > 0 and blob.find(payload, at + 1) < 0
        blob[at + len(payload) // 2] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"checksum mismatch in tensor {name}"):
            load_checkpoint(path)

    def test_version_1_file_loads_bit_identically(self, tmp_path, seq_ckpt):
        ensure_mlm_head(seq_ckpt, init_seed=5)
        seq_ckpt.step = 17
        path = tmp_path / "v1.ckpt"
        old_save_checkpoint_v1(seq_ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 17 and loaded.config == seq_ckpt.config
        assert set(loaded.params) == set(seq_ckpt.params)
        for name, p in seq_ckpt.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_load_peak_memory_stays_near_file_size(self, tmp_path):
        cfg = toy_config(vocab_size=8192, hidden_size=256, num_heads=4, ff_size=512,
                         max_positions=16)
        path = tmp_path / "big.ckpt"
        save_checkpoint(build_model(cfg, init_seed=0), path)
        size = path.stat().st_size
        assert size >= 8 * 2**20
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.params["emb.token"].shape == (8192, 256)
        assert peak <= 1.2 * size, f"peak {peak} B for a {size} B file"


class TestSeq2SeqInit:
    def test_encoder_adopted_decoder_fresh(self, enc_ckpt):
        sq = init_seq2seq_from_encoder(enc_ckpt, decoder_layers=2, init_seed=9)
        assert sq.config.decoder_layers == 2
        for name in parameter_spec(enc_ckpt.config):
            assert np.array_equal(sq.params[name].data, enc_ckpt.params[name].data)
        assert "dec.1.cross_attn.wq" in sq.params
        assert sq.params["dec.0.self_attn.wq"].data.std() > 0

    def test_same_seed_same_decoder(self, enc_ckpt):
        a = init_seq2seq_from_encoder(enc_ckpt, 1, init_seed=9)
        b = init_seq2seq_from_encoder(enc_ckpt, 1, init_seed=9)
        assert np.array_equal(a.params["dec.0.self_attn.wq"].data,
                              b.params["dec.0.self_attn.wq"].data)

    def test_zero_layers_rejected(self, enc_ckpt):
        with pytest.raises(ConfigError, match="decoder_layers"):
            init_seq2seq_from_encoder(enc_ckpt, 0)


def held_op_outputs(loss):
    """The op-output Tensors that an edge or a backward-closure cell of loss's graph holds."""
    held, seen, stack = [], set(), [loss]
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        cells = [c.cell_contents for c in (getattr(v._backward, "__closure__", None) or ())]
        held += [t for t in (*v._parents, *cells)
                 if isinstance(t, T.Tensor) and t._backward is not None]
        stack.extend(v._parents)
    return held


class TestGraphHoldsNoActivations:
    def test_mlm_training_graph(self):
        cfg = toy_config(dropout_rate=0.1, num_layers=2)
        ckpt = build_model(cfg, init_seed=5)
        ensure_mlm_head(ckpt, init_seed=6)
        rng = np.random.default_rng(7)
        ids = rng.integers(5, 20, size=(3, 8))
        out = encoder_forward(ckpt, ids, np.ones((3, 8)), rng=rng)
        labelled = T.gather(out.hidden, (np.array([0, 1, 2, 2]), np.array([1, 3, 0, 7])))
        loss = T.cross_entropy_masked(mlm_head(ckpt, labelled), np.arange(4), [5, 9, 6, 11])
        assert held_op_outputs(loss) == []

    def test_seq2seq_training_graph(self):
        chars = [chr(c) for c in range(0x4E00, 0x4E00 + 10)]
        vocab = build_vocab(chars)
        ckpt = build_model(toy_config(vocab_size=len(vocab), dropout_rate=0.1,
                                      decoder_layers=1), init_seed=5)
        pairs = [ParallelExample(chars[i:i + 3], chars[i:i + 2], "AMCT") for i in range(3)]
        loss = seq2seq_loss(ckpt, vocab, pairs, max_len=6, rng=np.random.default_rng(7))
        assert held_op_outputs(loss) == []

"""BERT-style encoder, optional seq2seq decoder, heads, checkpoints.

Post-LN residual blocks with learned token/position/segment embeddings.
There is deliberately no post-embedding LayerNorm or pooler layer: the
parameter inventory then matches the documented closed-form count
exactly. The pooled vector is simply the first position's hidden state.

Checkpoints are a single binary file: magic "ANCH", a u32 version, a
length-prefixed JSON header (config, step), from version 3 the header's
zlib.crc32 as a u32, then one record per weight tensor (length-prefixed
name, rank, dims as u64 LE, raw little-endian float32, then from version
2 its zlib.crc32 as a u32). Version 1 and 2 files still load; version 1
optimizer records, named "opt/...", are skipped.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ConfigError, InputError

MAGIC = b"ANCH"
FORMAT_VERSION = 3
NEG_INF = -1e9  # additive attention mask for excluded keys


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_layers: int = 12
    hidden_size: int = 768
    num_heads: int = 12
    ff_size: int = 0  # 0 means 4 * hidden_size
    max_positions: int = 512
    num_segments: int = 2
    dropout_rate: float = 0.1
    decoder_layers: int = 0

    def __post_init__(self):
        sizes = (self.vocab_size, self.num_layers, self.hidden_size, self.num_heads,
                 self.ff_size, self.max_positions, self.num_segments, self.decoder_layers)
        if any(type(v) is not int for v in sizes):
            raise ConfigError(f"size fields must be integers: {self}")
        if self.ff_size == 0:
            object.__setattr__(self, "ff_size", 4 * self.hidden_size)
        if min(self.vocab_size, self.num_layers, self.hidden_size, self.num_heads,
               self.ff_size, self.num_segments) < 1:
            raise ConfigError(f"all size fields must be positive: {self}")
        if self.max_positions < 3:
            raise ConfigError(f"max_positions must be at least 3, got {self.max_positions}")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.decoder_layers < 0:
            raise ConfigError(f"decoder_layers must be >= 0, got {self.decoder_layers}")

    def encoder_arch(self) -> tuple:
        return (self.vocab_size, self.num_layers, self.hidden_size, self.num_heads,
                self.ff_size, self.max_positions, self.num_segments)


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, T.Tensor]
    step: int = 0

    def copy(self) -> "Checkpoint":
        params = {k: T.parameter(v.data.copy()) for k, v in self.params.items()}
        return Checkpoint(self.config, params, self.step)


def _attention_block(spec: dict, prefix: str, hidden: int) -> None:
    for w in ("wq", "wk", "wv", "wo"):
        spec[f"{prefix}.{w}"] = (hidden, hidden)
    for b in ("bq", "bk", "bv", "bo"):
        spec[f"{prefix}.{b}"] = (hidden,)


def _ln_block(spec: dict, prefix: str, hidden: int) -> None:
    spec[f"{prefix}.gamma"] = (hidden,)
    spec[f"{prefix}.beta"] = (hidden,)


def _ffn_block(spec: dict, prefix: str, hidden: int, ff: int) -> None:
    spec[f"{prefix}.w1"] = (hidden, ff)
    spec[f"{prefix}.b1"] = (ff,)
    spec[f"{prefix}.w2"] = (ff, hidden)
    spec[f"{prefix}.b2"] = (hidden,)


def parameter_spec(cfg: ModelConfig) -> dict[str, tuple]:
    """Every architecture parameter name and shape, in creation order."""
    h, f = cfg.hidden_size, cfg.ff_size
    spec: dict[str, tuple] = {
        "emb.token": (cfg.vocab_size, h),
        "emb.pos": (cfg.max_positions, h),
        "emb.seg": (cfg.num_segments, h),
    }
    for i in range(cfg.num_layers):
        _attention_block(spec, f"enc.{i}.attn", h)
        _ln_block(spec, f"enc.{i}.attn_ln", h)
        _ffn_block(spec, f"enc.{i}.ffn", h, f)
        _ln_block(spec, f"enc.{i}.ffn_ln", h)
    if cfg.decoder_layers > 0:
        spec["dec.emb.token"] = (cfg.vocab_size, h)
        spec["dec.emb.pos"] = (cfg.max_positions, h)
        for i in range(cfg.decoder_layers):
            _attention_block(spec, f"dec.{i}.self_attn", h)
            _ln_block(spec, f"dec.{i}.self_ln", h)
            _attention_block(spec, f"dec.{i}.cross_attn", h)
            _ln_block(spec, f"dec.{i}.cross_ln", h)
            _ffn_block(spec, f"dec.{i}.ffn", h, f)
            _ln_block(spec, f"dec.{i}.ffn_ln", h)
        spec["dec.out.w"] = (h, cfg.vocab_size)
        spec["dec.out.b"] = (cfg.vocab_size,)
    return spec


def mlm_head_spec(cfg: ModelConfig) -> dict[str, tuple]:
    h = cfg.hidden_size
    return {
        "mlm.dense.w": (h, h),
        "mlm.dense.b": (h,),
        "mlm.ln.gamma": (h,),
        "mlm.ln.beta": (h,),
        "mlm.out_bias": (cfg.vocab_size,),
    }


def cls_head_spec(cfg: ModelConfig, num_classes: int) -> dict[str, tuple]:
    return {"cls.w": (cfg.hidden_size, num_classes), "cls.b": (num_classes,)}


def expected_parameter_count(cfg: ModelConfig) -> int:
    """Closed-form size of the architecture inventory (heads excluded)."""
    h, f, v, p, s = (cfg.hidden_size, cfg.ff_size, cfg.vocab_size,
                     cfg.max_positions, cfg.num_segments)
    per_enc_layer = (4 * h * h + 4 * h) + (2 * h * f + f + h) + 4 * h
    total = v * h + p * h + s * h + cfg.num_layers * per_enc_layer
    if cfg.decoder_layers > 0:
        per_dec_layer = 2 * (4 * h * h + 4 * h) + (2 * h * f + f + h) + 6 * h
        total += v * h + p * h + cfg.decoder_layers * per_dec_layer + h * v + v
    return total


def parameter_count(ckpt: Checkpoint) -> int:
    return sum(int(ckpt.params[name].data.size) for name in parameter_spec(ckpt.config))


_INIT_CHUNK = 1 << 16


def truncated_normal(rng: np.random.Generator, shape: tuple, std: float = 0.02) -> np.ndarray:
    """Normal(0, std); values outside two std are redrawn in index order until none is.

    The float64 draws go in pieces straight into the float32 result: the
    first pass in chunks of _INIT_CHUNK, each redraw pass per chunk's
    rejected indices. Draws in pieces are the values of one draw, so the
    weights and the generator's state are those of whole-array draws.
    """
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    bad = []
    for start in range(0, flat.size, _INIT_CHUNK):
        x = rng.normal(0.0, std, size=min(_INIT_CHUNK, flat.size - start))
        flat[start:start + x.size] = x
        bad.append(start + np.flatnonzero(np.abs(x) > 2 * std))
    while bad:
        redo = []
        for idx in bad:
            x = rng.normal(0.0, std, size=idx.size)
            flat[idx] = x
            idx = idx[np.abs(x) > 2 * std]
            if idx.size:
                redo.append(idx)
        bad = redo
    return out


def _init_param(rng: np.random.Generator, name: str, shape: tuple) -> np.ndarray:
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "gamma":
        return np.ones(shape, dtype=np.float32)
    if leaf == "beta" or leaf.startswith("b") or leaf == "out_bias":
        return np.zeros(shape, dtype=np.float32)
    return truncated_normal(rng, shape)


def _init_params(spec: dict[str, tuple], init_seed: int) -> dict[str, T.Tensor]:
    """Fresh parameters for spec, in spec order, from one generator seeded by init_seed."""
    rng = np.random.default_rng(init_seed)
    return {name: T.parameter(_init_param(rng, name, shape)) for name, shape in spec.items()}


def build_model(cfg: ModelConfig, init_seed: int = 0) -> Checkpoint:
    """Materialize the full parameter inventory, deterministically."""
    return Checkpoint(config=cfg, params=_init_params(parameter_spec(cfg), init_seed), step=0)


def ensure_mlm_head(ckpt: Checkpoint, init_seed: int = 0) -> None:
    if "mlm.dense.w" in ckpt.params:
        return
    ckpt.params.update(_init_params(mlm_head_spec(ckpt.config), init_seed))


def ensure_cls_head(ckpt: Checkpoint, num_classes: int, init_seed: int = 0) -> None:
    if num_classes < 2:
        raise ConfigError(f"num_classes must be at least 2, got {num_classes}")
    if "cls.w" in ckpt.params:
        if ckpt.params["cls.w"].shape[1] != num_classes:
            raise ConfigError(
                f"checkpoint classifier head has {ckpt.params['cls.w'].shape[1]} classes, "
                f"requested {num_classes}"
            )
        return
    ckpt.params.update(_init_params(cls_head_spec(ckpt.config, num_classes), init_seed))


@dataclass
class EncoderOutput:
    hidden: T.Tensor  # (batch, length, hidden)
    pooled: T.Tensor  # (batch, hidden): first-position state


def _dropout(x: T.Tensor, rate: float, rng) -> T.Tensor:
    """Dropout at rate with draws from rng in a training forward (rng given); x otherwise."""
    return T.dropout(x, rate, rng) if rng is not None and rate > 0.0 else x


def _multi_head_attention(p, prefix: str, q_in, kv_in, add_mask, num_heads: int,
                          drop: float, rng, cache: dict | None = None) -> T.Tensor:
    """Standard scaled dot-product attention over num_heads subspaces.

    Keys and values keep kv_in's own batch, so a batch of one broadcasts
    over the queries. With a cache, the keys and values of kv_in are split
    into heads and appended to cache[prefix]; kv_in None attends to
    cache[prefix] as is.
    """
    q = T.linear(q_in, p[f"{prefix}.wq"], p[f"{prefix}.bq"])
    if kv_in is None:
        k, v = (T.Tensor(a) for a in cache[prefix])
    else:
        k = T.linear(kv_in, p[f"{prefix}.wk"], p[f"{prefix}.bk"])
        v = T.linear(kv_in, p[f"{prefix}.wv"], p[f"{prefix}.bv"])
        if cache is not None:
            # split before concatenating: BLAS can round a product with the
            # contiguous (B, heads, T, dh) result apart from one with a view
            kv = [x.data.reshape(x.shape[:2] + (num_heads, -1)).transpose(0, 2, 1, 3)
                  for x in (k, v)]
            if prefix in cache:
                kv = [np.concatenate([old, new], axis=2) for old, new in zip(cache[prefix], kv)]
            cache[prefix] = tuple(kv)
            k, v = (T.Tensor(a) for a in kv)
    ctx = T.attention(q, k, v, num_heads, add_mask, drop, rng)
    return _dropout(T.linear(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"]), drop, rng)


def _ffn(p, prefix: str, x, drop: float, rng) -> T.Tensor:
    h = T.linear(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"])
    return _dropout(T.gelu_linear(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"]), drop, rng)


def _residual_ln(p, prefix: str, x, sub) -> T.Tensor:
    return T.layer_norm(x, p[f"{prefix}.gamma"], p[f"{prefix}.beta"], residual=sub)


def _key_mask(mask: np.ndarray) -> np.ndarray:
    """(batch, length) 0/1 key mask to additive (batch, 1, 1, length) scores."""
    return ((1 - mask) * NEG_INF).astype(np.float32)[:, None, None, :]


def _prep_ids(cfg: ModelConfig, ids) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"ids must be (batch, length), got shape {ids.shape}")
    if ids.shape[1] > cfg.max_positions:
        raise InputError(
            f"sequence length {ids.shape[1]} exceeds max_positions {cfg.max_positions}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise InputError(f"token id out of range for vocab of {cfg.vocab_size}")
    return ids


def encoder_forward(ckpt: Checkpoint, ids, attention_mask=None, rng=None) -> EncoderOutput:
    """Run the encoder stack; masked keys get NEG_INF attention scores.

    Every input is one segment: row 0 of emb.seg is added at every position.

    Given an rng, this is a training forward that applies the config's
    dropout with draws from rng; without one it is an eval forward.
    """
    cfg = ckpt.config
    p = ckpt.params
    ids = _prep_ids(cfg, ids)
    batch, length = ids.shape
    if attention_mask is None:
        attention_mask = np.ones_like(ids)
    attention_mask = np.asarray(attention_mask, dtype=np.int64)
    if attention_mask.shape != ids.shape:
        raise ValueError(f"attention_mask {attention_mask.shape} must have the shape "
                         f"of ids {ids.shape}")

    h = T.add(
        T.add(T.embedding(p["emb.token"], ids), T.embedding(p["emb.pos"], np.arange(length))),
        T.gather(p["emb.seg"], 0),
    )
    h = _dropout(h, cfg.dropout_rate, rng)

    add_mask = _key_mask(attention_mask)
    for i in range(cfg.num_layers):
        attn = _multi_head_attention(p, f"enc.{i}.attn", h, h, add_mask,
                                     cfg.num_heads, cfg.dropout_rate, rng)
        h = _residual_ln(p, f"enc.{i}.attn_ln", h, attn)
        h = _residual_ln(p, f"enc.{i}.ffn_ln", h, _ffn(p, f"enc.{i}.ffn", h, cfg.dropout_rate, rng))
    return EncoderOutput(hidden=h, pooled=T.gather(h, (np.arange(batch), 0)))


def decoder_forward(ckpt: Checkpoint, target_ids, encoder_hidden, source_mask,
                    rng=None, cache: dict | None = None) -> T.Tensor:
    """The decoder stack's (B, T, V) logits: decoder_head over decoder_stack."""
    return decoder_head(ckpt, decoder_stack(ckpt, target_ids, encoder_hidden, source_mask,
                                            rng, cache))


def decoder_stack(ckpt: Checkpoint, target_ids, encoder_hidden, source_mask,
                  rng=None, cache: dict | None = None) -> T.Tensor:
    """Causal self-attention plus cross-attention; returns (B, T, H) hidden states.

    As in encoder_forward, an rng makes this a training forward with dropout.

    cache, for inference only, decodes incrementally: pass an empty dict
    on the first call and the same dict after that. target_ids then holds
    only the new positions, whose position ids and causal mask start at
    the cached length. Their self-attention keys and values are appended
    to the cache; the cross-attention ones are projected from
    encoder_hidden on the first call and reused after that. The cache's
    rows are target_ids' rows (see select_cache_rows); an encoder_hidden
    of batch 1 serves them all.
    """
    cfg = ckpt.config
    if cfg.decoder_layers < 1:
        raise ConfigError("checkpoint has no decoder (decoder_layers is 0)")
    if cache is not None and rng is not None:
        raise ValueError("the decoder cache is for inference only")
    p = ckpt.params
    ids = _prep_ids(cfg, target_ids)
    batch, t_len = ids.shape
    past = cache["dec.0.self_attn"][0].shape[2] if cache else 0
    if past + t_len > cfg.max_positions:
        raise ValueError(f"{past} cached plus {t_len} new positions exceed "
                         f"max_positions {cfg.max_positions}")
    source_mask = np.asarray(source_mask, dtype=np.int64)
    if source_mask.ndim != 2:
        raise ValueError(f"source_mask must be (batch, length), got shape {source_mask.shape}")

    h = T.add(T.embedding(p["dec.emb.token"], ids),
              T.embedding(p["dec.emb.pos"], np.arange(past, past + t_len)))
    h = _dropout(h, cfg.dropout_rate, rng)

    causal = np.triu(np.full((t_len, past + t_len), NEG_INF, dtype=np.float32),
                     k=past + 1)[None, None]
    cross = _key_mask(source_mask)
    cross_in = None if past else encoder_hidden
    for i in range(cfg.decoder_layers):
        self_attn = _multi_head_attention(p, f"dec.{i}.self_attn", h, h, causal,
                                          cfg.num_heads, cfg.dropout_rate, rng, cache)
        h = _residual_ln(p, f"dec.{i}.self_ln", h, self_attn)
        cross_attn = _multi_head_attention(p, f"dec.{i}.cross_attn", h, cross_in,
                                           cross, cfg.num_heads, cfg.dropout_rate, rng, cache)
        h = _residual_ln(p, f"dec.{i}.cross_ln", h, cross_attn)
        h = _residual_ln(p, f"dec.{i}.ffn_ln", h, _ffn(p, f"dec.{i}.ffn", h, cfg.dropout_rate, rng))
    return h


def decoder_head(ckpt: Checkpoint, hidden: T.Tensor) -> T.Tensor:
    """Project decoder states onto the vocabulary; (..., H) to (..., V)."""
    return T.linear(hidden, ckpt.params["dec.out.w"], ckpt.params["dec.out.b"])


def select_cache_rows(cache: dict, rows) -> dict:
    """A decoder cache holding the given rows of cache, in that order.

    Self-attention keys and values are gathered row by row; the
    cross-attention ones are shared, as their encoder row broadcasts.
    """
    return {name: kv if name.endswith("cross_attn") else (kv[0][rows], kv[1][rows])
            for name, kv in cache.items()}


def mlm_head(ckpt: Checkpoint, hidden: T.Tensor) -> T.Tensor:
    """Transform then project onto the tied token embedding; (..., H) to (..., V)."""
    p = ckpt.params
    if "mlm.dense.w" not in p:
        raise ConfigError("checkpoint has no MLM head; call ensure_mlm_head first")
    t = T.layer_norm(T.gelu(T.linear(hidden, p["mlm.dense.w"], p["mlm.dense.b"])),
                     p["mlm.ln.gamma"], p["mlm.ln.beta"])
    return T.linear(t, T.transpose(p["emb.token"], (1, 0)), p["mlm.out_bias"])


def cls_head(ckpt: Checkpoint, pooled: T.Tensor, rng=None) -> T.Tensor:
    """Linear classification logits over the pooled vector; (B, C).

    Given an rng, the pooled vector first takes the config's dropout.
    """
    p = ckpt.params
    if "cls.w" not in p:
        raise ConfigError("checkpoint has no classifier head; call ensure_cls_head first")
    return T.linear(_dropout(pooled, ckpt.config.dropout_rate, rng), p["cls.w"], p["cls.b"])


def init_seq2seq_from_encoder(enc_ckpt: Checkpoint, decoder_layers: int,
                              init_seed: int = 0) -> Checkpoint:
    """Adopt encoder weights, freshly initialize a decoder of given depth."""
    if decoder_layers < 1:
        raise ConfigError(f"decoder_layers must be >= 1, got {decoder_layers}")
    cfg = replace(enc_ckpt.config, decoder_layers=decoder_layers)
    ckpt = build_model(cfg, init_seed=init_seed)
    enc_names = set(parameter_spec(enc_ckpt.config))
    for name in enc_names:
        ckpt.params[name] = T.parameter(enc_ckpt.params[name].data.copy())
    return ckpt


# ---------------------------------------------------------------- checkpoint io

def _write_block(f, payload: bytes) -> None:
    f.write(struct.pack("<Q", len(payload)))
    f.write(payload)


def _write_tensor(f, name: str, arr: np.ndarray) -> None:
    _write_block(f, name.encode("utf-8"))
    f.write(struct.pack("<Q", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<Q", d))
    payload = np.ascontiguousarray(arr, dtype="<f4").data  # the array's own buffer, no copy
    f.write(payload)
    f.write(struct.pack("<I", zlib.crc32(payload)))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write via <name>.tmp and rename it, so a failed save leaves path as it was."""
    path = Path(path)
    header = {"config": asdict(ckpt.config), "step": ckpt.step}
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<I", FORMAT_VERSION))
            payload = json.dumps(header, sort_keys=True).encode("utf-8")
            _write_block(f, payload)
            f.write(struct.pack("<I", zlib.crc32(payload)))
            for name in sorted(ckpt.params):
                _write_tensor(f, name, ckpt.params[name].data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_room(f, n: int, end: int, what: str) -> None:
    # before any read, so a corrupt length cannot allocate before this fires
    if n > end - f.tell():
        raise CheckpointError(f"truncated checkpoint while reading {what}")


def _read_exact(f, n: int, end: int, what: str) -> bytes:
    _check_room(f, n, end, what)
    return f.read(n)


def _read_u64(f, end: int, what: str) -> int:
    return struct.unpack("<Q", _read_exact(f, 8, end, what))[0]


def load_checkpoint(path) -> Checkpoint:
    """Read and check a checkpoint; any inconsistency is a CheckpointError.

    Each tensor is read straight into its own array, so the peak is about
    the file's size. From version 2 each payload's CRC32 is checked, and
    from version 3 the header's, before it is parsed.
    """
    arrays: dict[str, np.ndarray] = {}
    with open(path, "rb") as f:
        end = os.fstat(f.fileno()).st_size
        if _read_exact(f, 4, end, "magic") != MAGIC:
            raise CheckpointError(f"not a checkpoint file: {path}")
        version = struct.unpack("<I", _read_exact(f, 4, end, "version"))[0]
        if version not in (1, 2, FORMAT_VERSION):
            raise CheckpointError(f"unsupported checkpoint version {version}")
        crc_len = 4 if version >= 2 else 0
        header_len = _read_u64(f, end, "header length")
        raw = _read_exact(f, header_len, end, "header")
        if version >= 3:
            crc = struct.unpack("<I", _read_exact(f, 4, end, "header checksum"))[0]
            if crc != zlib.crc32(raw):
                raise CheckpointError("checksum mismatch in header")
        try:
            header = json.loads(raw.decode("utf-8"))
            cfg = ModelConfig(**header["config"])
            step = header["step"]
            if type(step) is not int or step < 0:
                raise ValueError(f"step must be a non-negative integer, got {step!r}")
        except (ValueError, KeyError, TypeError, ConfigError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None

        while f.tell() < end:
            name_len = _read_u64(f, end, "tensor name length")
            name = _read_exact(f, name_len, end, "tensor name").decode("utf-8")
            rank = _read_u64(f, end, f"rank of {name}")
            if rank > 8:
                raise CheckpointError(f"implausible rank {rank} for tensor {name}")
            shape = tuple(_read_u64(f, end, f"dims of {name}") for _ in range(rank))
            _check_room(f, 4 * math.prod(shape) + crc_len, end, f"data of {name}")
            arr = np.empty(shape, dtype="<f4")
            f.readinto(arr.reshape(-1).view(np.uint8))
            if crc_len and struct.unpack("<I", f.read(4))[0] != zlib.crc32(arr):
                raise CheckpointError(f"checksum mismatch in tensor {name}")
            if name in arrays:
                raise CheckpointError(f"duplicate tensor {name}")
            arrays[name] = arr

    # older files' optimizer records were checked above like the rest; drop them
    weights = {k: v for k, v in arrays.items() if not k.startswith("opt/")}

    required = parameter_spec(cfg)
    allowed = dict(required)
    allowed.update(mlm_head_spec(cfg))
    if "cls.w" in weights:
        w = weights["cls.w"]
        if w.ndim != 2 or w.shape[0] != cfg.hidden_size or w.shape[1] < 2:
            raise CheckpointError(f"classifier head has bad shape {w.shape}")
        allowed.update(cls_head_spec(cfg, int(w.shape[1])))
    for name, shape in required.items():
        if name not in weights:
            raise CheckpointError(f"missing required parameter {name}")
    for name, arr in weights.items():
        if name not in allowed:
            raise CheckpointError(f"unknown tensor {name} in checkpoint")
        if arr.shape != allowed[name]:
            raise CheckpointError(
                f"parameter {name} has shape {arr.shape}, config implies {allowed[name]}"
            )

    params = {name: T.parameter(arr) for name, arr in weights.items()}
    return Checkpoint(config=cfg, params=params, step=step)

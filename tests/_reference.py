"""Loop-based reference transformer used as an independent oracle.

Deliberately structured unlike the library: per-example, per-head,
per-position loops, hard masking (excluded keys never enter the
softmax), float64 arithmetic. Only basic numpy dot products are shared.
"""

import json
import math
import struct

import numpy as np

from inkstone import tensor as T
from inkstone.vocab import encode

def ref_gelu(x):
    k = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(k * (x + 0.044715 * x**3)))


def ref_layer_norm(x, gamma, beta, eps=1e-12):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        out[i] = (row - mu) / math.sqrt(var + eps) * gamma + beta
    return out


def ref_attention(p, prefix, q_in, kv_in, allowed, num_heads):
    """allowed[i, j] is True when query i may attend to key j."""
    lq, hidden = q_in.shape
    lk = kv_in.shape[0]
    dh = hidden // num_heads
    q = q_in @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"]
    k = kv_in @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"]
    v = kv_in @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"]
    ctx = np.zeros((lq, hidden))
    for h in range(num_heads):
        cols = slice(h * dh, (h + 1) * dh)
        for i in range(lq):
            js = [j for j in range(lk) if allowed[i, j]]
            scores = [float(q[i, cols] @ k[j, cols]) / math.sqrt(dh) for j in js]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            for j, e in zip(js, exps):
                ctx[i, cols] += (e / z) * v[j, cols]
    return ctx @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def ref_ffn(p, prefix, x):
    return ref_gelu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def _params64(ckpt):
    return {k: v.data.astype(np.float64) for k, v in ckpt.params.items()}


def ref_encoder_hidden(ckpt, ids, mask):
    """Per-example encoder stack; returns (batch, length, hidden) float64."""
    cfg = ckpt.config
    p = _params64(ckpt)
    ids = np.atleast_2d(np.asarray(ids))
    mask = np.atleast_2d(np.asarray(mask))
    out = []
    for b in range(ids.shape[0]):
        length = ids.shape[1]
        h = p["emb.token"][ids[b]] + p["emb.pos"][:length] + p["emb.seg"][0]
        allowed = np.tile(mask[b].astype(bool), (length, 1))
        for i in range(cfg.num_layers):
            attn = ref_attention(p, f"enc.{i}.attn", h, h, allowed, cfg.num_heads)
            h = ref_layer_norm(h + attn, p[f"enc.{i}.attn_ln.gamma"], p[f"enc.{i}.attn_ln.beta"])
            f = ref_ffn(p, f"enc.{i}.ffn", h)
            h = ref_layer_norm(h + f, p[f"enc.{i}.ffn_ln.gamma"], p[f"enc.{i}.ffn_ln.beta"])
        out.append(h)
    return np.stack(out)


def ref_decoder_logits(ckpt, target_ids, encoder_hidden, source_mask):
    """Per-example causal decoder; returns (batch, t_len, vocab) float64."""
    cfg = ckpt.config
    p = _params64(ckpt)
    target_ids = np.atleast_2d(np.asarray(target_ids))
    source_mask = np.atleast_2d(np.asarray(source_mask))
    encoder_hidden = np.asarray(encoder_hidden, dtype=np.float64)
    out = []
    for b in range(target_ids.shape[0]):
        t_len = target_ids.shape[1]
        s_len = source_mask.shape[1]
        h = p["dec.emb.token"][target_ids[b]] + p["dec.emb.pos"][:t_len]
        causal = np.tril(np.ones((t_len, t_len), dtype=bool))
        cross = np.tile(source_mask[b].astype(bool), (t_len, 1))
        assert cross.shape == (t_len, s_len)
        for i in range(cfg.decoder_layers):
            sa = ref_attention(p, f"dec.{i}.self_attn", h, h, causal, cfg.num_heads)
            h = ref_layer_norm(h + sa, p[f"dec.{i}.self_ln.gamma"], p[f"dec.{i}.self_ln.beta"])
            ca = ref_attention(p, f"dec.{i}.cross_attn", h, encoder_hidden[b], cross, cfg.num_heads)
            h = ref_layer_norm(h + ca, p[f"dec.{i}.cross_ln.gamma"], p[f"dec.{i}.cross_ln.beta"])
            f = ref_ffn(p, f"dec.{i}.ffn", h)
            h = ref_layer_norm(h + f, p[f"dec.{i}.ffn_ln.gamma"], p[f"dec.{i}.ffn_ln.beta"])
        out.append(h @ p["dec.out.w"] + p["dec.out.b"])
    return np.stack(out)


# ------------------------------------------------------------------------
# Array formulas of the tensor kernels and Adam before they were rewritten
# to work in place, kept verbatim (each op's forward, then its backward on
# the output gradient g). The in-place kernels must match them bit for bit.

_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715


def formula_softmax(x, g, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    dot = (g * s).sum(axis=axis, keepdims=True)
    return s, s * (g - dot)


def formula_gelu(x, g):
    """gelu with its tanh computed once and used by forward and backward alike."""
    d = x
    inner = _GELU_K * (d + _GELU_C * d * d * d)
    t = np.tanh(inner)
    out = 0.5 * d * (1.0 + t)
    dinner = _GELU_K * (1.0 + 3.0 * _GELU_C * d * d)
    dx = 0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * dinner
    return out, g * dx


def formula_layer_norm(x, gamma, beta, g, eps=1e-12):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(eps))
    xhat = centered * inv
    out = xhat * gamma + beta
    lead = tuple(range(g.ndim - 1))
    ggamma = (g * xhat).sum(axis=lead)
    gbeta = g.sum(axis=lead)
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    gx = inv * (dxhat - m1 - xhat * m2)
    return out, gx, ggamma, gbeta


def formula_adam(p, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """One update of p, m and v in place, at step t (1-based)."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    if weight_decay != 0.0:
        p -= np.float32(lr * weight_decay) * p
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    update = (m / bc1) / (np.sqrt(v / bc2) + eps)
    p -= np.float32(lr) * update.astype(p.dtype, copy=False)


def formula_cross_entropy(logits, positions, label_ids):
    """Mean NLL over distinct labelled rows and its gradient, as before the identity path."""
    n = positions.size
    rows = logits[positions]
    m = rows.max(axis=-1, keepdims=True)
    shifted = rows - m
    logz = np.log(np.exp(shifted).sum(axis=-1)) + m[:, 0]
    loss = np.asarray((logz - rows[np.arange(n), label_ids]).mean(), dtype=logits.dtype)
    p = np.exp(shifted)
    p /= p.sum(axis=-1, keepdims=True)
    p[np.arange(n), label_ids] -= 1.0
    p *= np.asarray(1.0, dtype=p.dtype) / n
    grad = np.zeros_like(logits)
    grad[positions] = p
    return loss, grad


def loop_teacher_forced_batch(pairs, vocab, max_len):
    """The per-token loop that built seq2seq training batches before encode_batch."""
    src = [encode(p.source, vocab, max_len) for p in pairs]
    src_ids = np.stack([s[0] for s in src])
    src_mask = np.stack([s[1] for s in src])
    tgt_tokens = [[vocab.id_of(t) for t in p.target] for p in pairs]
    t_max = max(len(t) for t in tgt_tokens) + 1
    dec_in = np.full((len(pairs), t_max), vocab.pad_id, dtype=np.int64)
    rows, cols, labels = [], [], []
    for i, toks in enumerate(tgt_tokens):
        dec_in[i, 0] = vocab.cls_id
        dec_in[i, 1 : 1 + len(toks)] = toks
        for j, lab in enumerate(toks + [vocab.sep_id]):
            rows.append(i)
            cols.append(j)
            labels.append(lab)
    return src_ids, src_mask, dec_in, np.array(rows), np.array(cols), np.array(labels)


# ------------------------------------------------------------------------
# The row scatters that embedding, the loss's general path and the seq2seq
# loss carried before gather became the one op that scatters rows back,
# kept verbatim. gather's backward must match them bit for bit.

def old_embedding_backward(table, ids, g):
    """embedding's own backward: scatter-add every looked-up row into zeros."""
    gt = np.zeros_like(table)
    np.add.at(gt, ids, g)
    return gt


def old_cross_entropy_general(logits, positions, label_ids, g=1.0):
    """cross_entropy_masked's general path: its loss and its (rows, V) gradient."""
    n = positions.size
    n_rows, n_classes = logits.shape
    rows = logits[positions]
    m = rows.max(axis=-1, keepdims=True)
    e = rows - m
    np.exp(e, out=e)
    z = e.sum(axis=-1, keepdims=True)
    logz = np.log(z[:, 0]) + m[:, 0]
    picked = rows[np.arange(n), label_ids]
    losses = logz - picked
    logits_dtype = logits.dtype
    out = np.asarray(np.add.reduce(losses) / n, dtype=logits_dtype)
    p = e
    p /= z
    p[np.arange(n), label_ids] -= 1.0
    p *= np.asarray(g, dtype=p.dtype) / n
    gl = np.zeros((n_rows, n_classes), logits_dtype)
    if np.unique(positions).size == n:
        gl[positions] = p  # np.add.at costs ~16x more on a wide vocab
    else:
        np.add.at(gl, positions, p)
    return out, gl


def old_seq2seq_loss(ckpt, vocab, pairs, max_len, rng=None):
    """seq2seq_loss over the flattened (B*T, V) logits at flat positions rows * t_len + cols.

    The loss node is old_cross_entropy_general, so no row passes through gather.
    """
    from inkstone import tensor as T
    from inkstone.finetune import _teacher_forced_batch
    from inkstone.model import decoder_forward, encoder_forward

    src_ids, src_mask, dec_in, rows, cols, labels = _teacher_forced_batch(
        pairs, vocab, max_len)
    enc = encoder_forward(ckpt, src_ids, src_mask, rng=rng)
    logits = decoder_forward(ckpt, dec_in, enc.hidden, src_mask, rng=rng)
    t_len = dec_in.shape[1]
    flat = T.reshape(logits, (len(pairs) * t_len, len(vocab)))
    data, positions = flat.data, rows * t_len + cols
    out, _ = old_cross_entropy_general(data, positions, labels)
    return T._result(out, (flat,), lambda g: (
        old_cross_entropy_general(data, positions, labels, g)[1],))


# ------------------------------------------------------------------------
# Weight init before it redrew only the rejected values, kept verbatim: it
# re-scanned the whole array after every redraw. The draws, their order and
# so the weights must stay the same.

def old_truncated_normal(rng, shape, std=0.02):
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2 * std
    return x.astype(np.float32)


# ------------------------------------------------------------------------
# Ops the pipeline does not call, kept verbatim from inkstone.tensor as the
# tests' gradient probes: reduce_sum(mul(out, g)) sends g back into out.

def mul(a, b):
    a, b = T.as_tensor(a), T.as_tensor(b)
    data = a.data * b.data
    ad, bd, ra, rb = a.data, b.data, a.requires_grad, b.requires_grad

    def backward_fn(g):
        ga = T._unbroadcast(g * bd, ad.shape) if ra else None
        gb = T._unbroadcast(g * ad, bd.shape) if rb else None
        return (ga, gb)

    return T._result(data, (a, b), backward_fn)


def reduce_sum(a, axis=None, keepdims=False):
    a = T.as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape, dtype = a.data.shape, a.data.dtype

    def backward_fn(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).astype(dtype, copy=True),)

    return T._result(data, (a,), backward_fn)


# ------------------------------------------------------------------------
# The version-1 checkpoint writer, before each payload carried a CRC32,
# kept verbatim apart from the write to <name>.tmp and the rename. Its
# files must still load bit for bit.

def _write_block(f, payload):
    f.write(struct.pack("<Q", len(payload)))
    f.write(payload)


def _write_tensor(f, name, arr):
    _write_block(f, name.encode("utf-8"))
    f.write(struct.pack("<Q", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<Q", d))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def old_save_checkpoint_v1(ckpt, path):
    header = {"config": ckpt.config.to_dict(), "step": ckpt.step}
    with open(path, "wb") as f:
        f.write(b"ANCH")
        f.write(struct.pack("<I", 1))
        _write_block(f, json.dumps(header, sort_keys=True).encode("utf-8"))
        for name in sorted(ckpt.params):
            _write_tensor(f, name, ckpt.params[name].data)

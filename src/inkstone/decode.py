"""Greedy and beam-search decoding for the seq2seq model.

There is one search, `beam_from_step`: greedy decoding is its width-1
beam. It is written against a step function, so tests can drive it with
synthetic distributions. The search holds its live hypotheses as one
(n, t) int64 token array and makes one call per step,
step_fn(rows, tokens), which returns (n, V) next-token log-probs:
tokens[i] is hypothesis i's prefix and rows[i] is the row of the previous
call that tokens[i, :-1] extends (the first call gets rows [0] and a
(1, 0) array). Model-backed decoding encodes the source once and then
decodes one new position per row, with the keys and values of earlier
positions held in the decoder cache and reordered by rows. BOS and PAD
logits are suppressed, so a hypothesis can never contain them; EOS
terminates and is excluded from the returned body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import tensor as T
from .corpus import read_lines
from .errors import ConfigError
from .model import Checkpoint, decoder_forward, encoder_forward, select_cache_rows
from .vocab import Vocab, decode as decode_ids, encode_batch, tokenize

StepFn = Callable[[Sequence[int], np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DecodeConfig:
    strategy: str = "greedy"
    beam_size: int = 4
    max_decode_len: int = 64
    length_penalty: float = 0.0

    def __post_init__(self):
        if self.strategy not in ("greedy", "beam"):
            raise ConfigError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ConfigError(f"max_decode_len must be >= 1, got {self.max_decode_len}")
        if self.length_penalty < 0:
            raise ConfigError(f"length_penalty must be >= 0, got {self.length_penalty}")


def _top_k(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, best first, ties in index order.

    The same as np.argsort(-flat, kind="stable")[:k], but only the entries
    at or above the k-th largest value are sorted.
    """
    k = min(k, flat.size)
    cut = np.partition(flat, flat.size - k)[flat.size - k]
    candidates = np.flatnonzero(flat >= cut)
    return candidates[np.argsort(-flat[candidates], kind="stable")[:k]]


def _normalized(score: float, length: int, alpha: float) -> float:
    return score / (max(length, 1) ** alpha)


def beam_from_step(step_fn: StepFn, eos_id: int, max_len: int, beam_size: int,
                   alpha: float = 0.0) -> tuple[list[int], float]:
    """Beam search over the step function.

    A hypothesis retires when it selects EOS. The result is the finished
    hypothesis with the best length-normalized score (sum of token
    log-probs including EOS, divided by body length ** alpha), or the
    best unfinished one if nothing finished under the cap.
    """
    tokens = np.zeros((1, 0), dtype=np.int64)
    running = np.zeros(1)
    rows = [0]
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        scores = running[:, None] + np.asarray(step_fn(rows, tokens), dtype=np.float64)
        hyps, toks = np.unravel_index(_top_k(scores.ravel(), beam_size), scores.shape)
        eos = toks == eos_id
        finished += [(tokens[h].tolist(), float(scores[h, eos_id])) for h in hyps[eos]]
        rows, toks = hyps[~eos], toks[~eos]
        if not rows.size:
            break
        tokens = np.concatenate([tokens[rows], toks[:, None]], axis=1)
        running = scores[rows, toks]
    pool = finished if finished else list(zip(tokens.tolist(), running.tolist()))
    best_tokens, best_score = max(
        pool, key=lambda item: _normalized(item[1], len(item[0]), alpha)
    )
    return best_tokens, _normalized(best_score, len(best_tokens), alpha)


def greedy_from_step(step_fn: StepFn, eos_id: int, max_len: int) -> list[int]:
    """The width-1 beam: follow the best token until EOS or the length cap.

    Adding the running float64 score keeps the order of distinct float32
    logits, and ties pick the lowest id, so this follows the argmax.
    """
    return beam_from_step(step_fn, eos_id, max_len, 1)[0]


def _model_step_fn(ckpt: Checkpoint, vocab: Vocab, source: str,
                   max_decode_len: int) -> tuple[StepFn, int]:
    """Encode the source once; return the incremental step function and length cap.

    Each call gathers the cached keys and values of its rows' parents and
    runs only the last token of each prefix through the decoder ([CLS] on
    the first call, whose prefixes are empty).
    """
    if ckpt.config.decoder_layers < 1:
        raise ConfigError("decoding needs a seq2seq checkpoint (decoder_layers >= 1)")
    tokens = tokenize(source)
    positions = ckpt.config.max_positions
    # [CLS] body [SEP] at its own length; encode needs room for one body token
    source_ids, source_mask = encode_batch([tokens], vocab,
                                           min(max(len(tokens), 1) + 2, positions))
    with T.no_grad():
        enc_hidden = encoder_forward(ckpt, source_ids, source_mask).hidden
    suppress = [vocab.cls_id, vocab.pad_id]
    cache: dict = {}
    live = 1  # the previous call's row count; the first call's rows [0] keep the empty cache

    def step(rows: Sequence[int], prefixes: np.ndarray) -> np.ndarray:
        nonlocal cache, live
        # a width-1 step keeps its one row; only a wider beam reorders or drops
        if not np.array_equal(rows, np.arange(live)):
            cache = select_cache_rows(cache, rows)
        ids = prefixes[:, -1:] if prefixes.shape[1] else [[vocab.cls_id]]
        with T.no_grad():
            logits = decoder_forward(ckpt, ids, enc_hidden, source_mask, cache=cache)
        live = len(rows)
        scores = logits.data[:, -1].astype(np.float64)
        scores -= scores.max(axis=1, keepdims=True)
        logprobs = scores - np.log(np.exp(scores).sum(axis=1, keepdims=True))
        logprobs[:, suppress] = -np.inf
        return logprobs

    return step, min(max_decode_len, positions - 1)


def greedy_decode(ckpt: Checkpoint, vocab: Vocab, source: str,
                  max_decode_len: int = 64) -> list[int]:
    """Greedy generation; returns body token ids without specials."""
    step, cap = _model_step_fn(ckpt, vocab, source, max_decode_len)
    return greedy_from_step(step, vocab.sep_id, cap)


def beam_search(ckpt: Checkpoint, vocab: Vocab, source: str,
                cfg: DecodeConfig) -> tuple[list[int], float]:
    """Beam generation; returns (body token ids, normalized score)."""
    step, cap = _model_step_fn(ckpt, vocab, source, cfg.max_decode_len)
    return beam_from_step(step, vocab.sep_id, cap, cfg.beam_size, cfg.length_penalty)


def generate_text(ckpt: Checkpoint, vocab: Vocab, source: str,
                  cfg: DecodeConfig) -> str:
    if cfg.strategy == "greedy":
        out = greedy_decode(ckpt, vocab, source, cfg.max_decode_len)
    else:
        out, _ = beam_search(ckpt, vocab, source, cfg)
    return decode_ids(out, vocab)


def decode_file(ckpt: Checkpoint, vocab: Vocab, input_path, output_path,
                cfg: DecodeConfig) -> int:
    """One generation per input line, order preserved; returns line count."""
    outputs = [generate_text(ckpt, vocab, ln, cfg) for ln in read_lines(input_path)]
    with open(output_path, "w", encoding="utf-8", newline="\n") as f:
        for out in outputs:
            f.write(out + "\n")
    return len(outputs)

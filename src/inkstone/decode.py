"""Greedy and beam-search decoding for the seq2seq model.

There is one search, `beam_from_step`: greedy decoding is its width-1
beam. It is written against a step function, so tests can drive it with
synthetic distributions. A step function maps a list of equal-length
prefixes (the tokens generated so far, one per live hypothesis) to a
(len(prefixes), V) array of next-token log-probs; the search makes one
call per step. Model-backed decoding encodes the source once and then
decodes one new position per prefix, with the keys and values of earlier
positions held in the decoder cache. BOS and PAD logits are suppressed,
so a hypothesis can never contain them; EOS terminates and is excluded
from the returned body.
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

StepFn = Callable[[Sequence[Sequence[int]]], np.ndarray]


@dataclass
class DecodeConfig:
    strategy: str = "greedy"
    beam_size: int = 4
    max_decode_len: int = 64
    length_penalty: float = 0.0

    def validate(self) -> "DecodeConfig":
        if self.strategy not in ("greedy", "beam"):
            raise ConfigError(f"unknown decode strategy {self.strategy!r}")
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_decode_len < 1:
            raise ConfigError(f"max_decode_len must be >= 1, got {self.max_decode_len}")
        if self.length_penalty < 0:
            raise ConfigError(f"length_penalty must be >= 0, got {self.length_penalty}")
        return self


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
    active: list[tuple[list[int], float]] = [([], 0.0)]
    finished: list[tuple[list[int], float]] = []
    for _ in range(max_len):
        logprobs = np.asarray(step_fn([tokens for tokens, _ in active]), dtype=np.float64)
        scores = np.array([score for _, score in active])[:, None] + logprobs
        hyps, toks = np.unravel_index(_top_k(scores.ravel(), beam_size), scores.shape)
        prev, active = active, []
        for h, tok in zip(hyps.tolist(), toks.tolist()):
            tokens, score = prev[h][0], float(scores[h, tok])
            if tok == eos_id:
                finished.append((tokens, score))
            else:
                active.append((tokens + [tok], score))
        if not active:
            break
    pool = finished if finished else active
    best_tokens, best_score = max(
        pool, key=lambda item: _normalized(item[1], len(item[0]), alpha)
    )
    return list(best_tokens), _normalized(best_score, len(best_tokens), alpha)


def greedy_from_step(step_fn: StepFn, eos_id: int, max_len: int) -> list[int]:
    """The width-1 beam: follow the best token until EOS or the length cap.

    Adding the running float64 score keeps the order of distinct float32
    logits, and ties pick the lowest id, so this follows the argmax.
    """
    return beam_from_step(step_fn, eos_id, max_len, 1)[0]


def _model_step_fn(ckpt: Checkpoint, vocab: Vocab, source: str,
                   max_decode_len: int) -> tuple[StepFn, int]:
    """Encode the source once; return the incremental step function and length cap.

    Every prefix passed to the step function extends a prefix of the
    previous call by one token (the first call's prefixes are empty). Its
    cached keys and values are gathered from that parent's row, and only
    its last token runs through the decoder.
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
    bos = vocab.cls_id
    cache: dict = {}
    rows: dict[tuple, int] = {}

    def step(prefixes: Sequence[Sequence[int]]) -> np.ndarray:
        nonlocal cache, rows
        if rows:
            parents = [rows[tuple(p[:-1])] for p in prefixes]
            # searches pass distinct prefixes, so the cache has len(rows) rows;
            # a width-1 step keeps its one row; only a wider beam reorders or drops
            if parents != list(range(len(rows))):
                cache = select_cache_rows(cache, parents)
        ids = [[p[-1] if len(p) else bos] for p in prefixes]
        with T.no_grad():
            logits = decoder_forward(ckpt, ids, enc_hidden, source_mask, cache=cache)
        rows = {tuple(p): i for i, p in enumerate(prefixes)}
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
    cfg.validate()
    step, cap = _model_step_fn(ckpt, vocab, source, cfg.max_decode_len)
    return beam_from_step(step, vocab.sep_id, cap, cfg.beam_size, cfg.length_penalty)


def generate_text(ckpt: Checkpoint, vocab: Vocab, source: str,
                  cfg: DecodeConfig) -> str:
    cfg.validate()
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

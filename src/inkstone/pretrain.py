"""Masked-language-model corruption and continued pre-training.

Corruption selects non-special positions independently, then splits the
selected set 80/10/10 between [MASK], a random non-special token, and
the unchanged original. Labels always store the pre-corruption id.

The training loop draws everything (batch order, masking, dropout) from
one generator seeded by the config, so a seed pins the loss sequence.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DatasetError
from .model import (
    Checkpoint,
    ModelConfig,
    build_model,
    encoder_forward,
    ensure_mlm_head,
    mlm_head,
    save_checkpoint,
)
from .optim import AdamState, train_step
from .vocab import Vocab, encode_batch, tokenize


# BERT's split of the selected positions; the rest keep their original id
MASK_FRAC, RANDOM_FRAC = 0.8, 0.1


@dataclass(frozen=True)
class MaskingConfig:
    select_prob: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.select_prob <= 1.0:
            raise ConfigError(f"select_prob must be in [0, 1], got {self.select_prob}")


@dataclass
class MaskedBatch:
    input_ids: np.ndarray        # (batch, length) after corruption
    attention_mask: np.ndarray   # (batch, length), 0 exactly at padding
    label_rows: np.ndarray       # (n,) batch indices of labeled positions
    label_cols: np.ndarray       # (n,) sequence indices of labeled positions
    label_ids: np.ndarray        # (n,) original ids at those positions

    @property
    def num_labels(self) -> int:
        return int(self.label_ids.size)


def apply_mlm_mask(ids, vocab: Vocab, cfg: MaskingConfig,
                   rng: np.random.Generator) -> MaskedBatch:
    """Corrupt a (batch, length) array of encoded ids for MLM training."""
    ids = np.asarray(ids, dtype=np.int64)
    attention_mask = (ids != vocab.pad_id).astype(np.int64)

    special_ids = np.array(sorted(vocab.special_ids), dtype=np.int64)
    eligible = ~np.isin(ids, special_ids)
    selected = eligible & (rng.random(ids.shape) < cfg.select_prob)

    rows, cols = np.nonzero(selected)
    originals = ids[rows, cols].copy()
    corrupted = ids.copy()

    branch = rng.random(rows.size)
    to_mask = branch < MASK_FRAC
    to_random = (~to_mask) & (branch < MASK_FRAC + RANDOM_FRAC)
    corrupted[rows[to_mask], cols[to_mask]] = vocab.mask_id
    if to_random.any():
        # uniform over non-special ids
        pool = np.setdiff1d(np.arange(len(vocab), dtype=np.int64), special_ids)
        if pool.size == 0:
            raise DatasetError("vocabulary has no non-special tokens to sample from")
        draws = pool[rng.integers(0, pool.size, size=int(to_random.sum()))]
        corrupted[rows[to_random], cols[to_random]] = draws

    return MaskedBatch(
        input_ids=corrupted,
        attention_mask=attention_mask,
        label_rows=rows,
        label_cols=cols,
        label_ids=originals,
    )


@dataclass(frozen=True)
class PretrainConfig:
    learning_rate: float = 1e-4
    weight_decay: float = 0.01
    batch_size: int = 15
    max_steps: int = 1000
    max_len: int = 512
    seed: int = 0
    checkpoint_every: int = 0  # 0 disables periodic checkpoints
    masking: MaskingConfig = field(default_factory=MaskingConfig)

    def __post_init__(self):
        if self.batch_size < 1 or self.max_steps < 1:
            raise ConfigError(
                f"batch_size and max_steps must be >= 1, got {self.batch_size}, {self.max_steps}"
            )
        if self.max_len < 3:
            raise ConfigError(f"max_len must be >= 3, got {self.max_len}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if min(self.weight_decay, self.seed, self.checkpoint_every) < 0:
            raise ConfigError("weight_decay, seed and checkpoint_every must be >= 0, got "
                              f"{self.weight_decay}, {self.seed}, {self.checkpoint_every}")


def chunk_corpus(texts: Iterable[str], vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Tokenize documents and encode non-overlapping max_len-2 chunks."""
    body = max_len - 2
    # generators, so only one document's tokens are alive at a time
    docs = (tokenize(text) for text in texts)
    ids, mask = encode_batch((tokens[start : start + body] for tokens in docs
                              for start in range(0, len(tokens), body)), vocab, max_len)
    if not len(ids):
        raise DatasetError("corpus produced no usable chunks")
    return ids, mask


def _mask_batch_nonempty(ids, vocab, masking, rng) -> MaskedBatch:
    # a zero-label draw would make the loss undefined; redraw instead
    for _ in range(1000):
        batch = apply_mlm_mask(ids, vocab, masking, rng)
        if batch.num_labels > 0:
            return batch
    raise DatasetError("masking selected zero positions in 1000 draws; "
                       "check select_prob and corpus content")


def pretrain(corpus: Iterable[str], vocab: Vocab, model_cfg: ModelConfig,
             cfg: PretrainConfig, init: Checkpoint | None = None,
             out_dir=None) -> Checkpoint:
    """Run MLM training and return the final checkpoint.

    When init is given it is trained in place and returned: its weights
    and step count continue, with a fresh optimizer and model_cfg's
    dropout. Its encoder architecture must equal model_cfg.
    Writes train.log plus periodic/final checkpoints under out_dir if set.
    """
    rng = np.random.default_rng(cfg.seed)

    if init is not None:
        if init.config.encoder_arch() != model_cfg.encoder_arch():
            raise ConfigError(
                f"init checkpoint architecture {init.config.encoder_arch()} does not match "
                f"requested {model_cfg.encoder_arch()}"
            )
        ckpt = init
        ckpt.config = replace(ckpt.config, dropout_rate=model_cfg.dropout_rate)
    else:
        ckpt = build_model(model_cfg, init_seed=cfg.seed)
    ensure_mlm_head(ckpt, init_seed=cfg.seed + 1)

    pool_ids, _ = chunk_corpus(corpus, vocab, min(cfg.max_len, model_cfg.max_positions))
    n_chunks = pool_ids.shape[0]

    state = AdamState()
    if out_dir is not None:
        import pathlib

        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    # shuffled passes; each permutation is drawn only when a batch first needs it,
    # so the masking and dropout draws of the steps before it come first
    stream = (i for _ in itertools.count() for i in rng.permutation(n_chunks))
    start_step = ckpt.step
    t_start = time.monotonic()
    # the log is streamed so an interrupted run keeps the steps it finished
    with (open(out_dir / "train.log", "w", encoding="utf-8") if out_dir is not None
          else contextlib.nullcontext()) as log:
        for step in range(start_step + 1, start_step + cfg.max_steps + 1):
            idx = np.array(list(itertools.islice(stream, cfg.batch_size)))
            batch = _mask_batch_nonempty(pool_ids[idx], vocab, cfg.masking, rng)
            out = encoder_forward(ckpt, batch.input_ids, batch.attention_mask, rng=rng)
            # the head projects only the labelled rows, as BERT's gather_indexes does
            labelled = T.gather(out.hidden, (batch.label_rows, batch.label_cols))
            loss = T.cross_entropy_masked(mlm_head(ckpt, labelled), batch.label_ids)
            loss_value = train_step(ckpt.params, loss, state, cfg.learning_rate,
                                    weight_decay=cfg.weight_decay)

            ckpt.step = step
            if log is not None:
                elapsed_ms = int((time.monotonic() - t_start) * 1000)
                print(f"{step}\t{loss_value:.6f}\t{cfg.learning_rate:.8g}\t{elapsed_ms}",
                      file=log, flush=True)
            if cfg.checkpoint_every and step % cfg.checkpoint_every == 0 and out_dir is not None:
                save_checkpoint(ckpt, out_dir / f"step_{step}.ckpt")

    if out_dir is not None:
        save_checkpoint(ckpt, out_dir / "final.ckpt")
    return ckpt


def eval_mlm(ckpt: Checkpoint, texts: Sequence[str], vocab: Vocab,
             masking: MaskingConfig | None = None, seed: int = 0,
             max_len: int | None = None, batch_size: int = 32) -> tuple[float, float]:
    """Masked-token accuracy and perplexity on held-out text.

    The mask draw is pinned by seed, so repeated calls are comparable
    across checkpoints.
    """
    masking = masking or MaskingConfig()
    if max_len is None:
        max_len = ckpt.config.max_positions
    pool_ids, _ = chunk_corpus(texts, vocab, min(max_len, ckpt.config.max_positions))
    rng = np.random.default_rng(seed)
    batch = _mask_batch_nonempty(pool_ids, vocab, masking, rng)

    correct = 0
    total = 0
    nll_sum = 0.0
    with T.no_grad():
        for lo in range(0, pool_ids.shape[0], batch_size):
            hi = min(lo + batch_size, pool_ids.shape[0])
            in_batch = (batch.label_rows >= lo) & (batch.label_rows < hi)
            if not in_batch.any():
                continue
            rows = batch.label_rows[in_batch] - lo
            cols = batch.label_cols[in_batch]
            golds = batch.label_ids[in_batch]
            out = encoder_forward(ckpt, batch.input_ids[lo:hi], batch.attention_mask[lo:hi])
            logits = mlm_head(ckpt, T.gather(out.hidden, (rows, cols))).data
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logprobs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            preds = logits.argmax(axis=-1)
            correct += int((preds == golds).sum())
            nll_sum += float(-logprobs[np.arange(golds.size), golds].sum())
            total += int(golds.size)
    accuracy = correct / total
    perplexity = float(np.exp(nll_sum / total))
    return accuracy, perplexity

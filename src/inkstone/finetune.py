"""Task fine-tuning: sentence classification and seq2seq generation.

Classification adds a linear head over the pooled state and trains
with a flat learning rate; generation attaches a fresh decoder and
trains teacher-forced with the Noam schedule, optionally with the
encoder frozen. Both share one epoch loop that keeps the epoch with the
best dev metric (ties go to the later epoch).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, DatasetError
from .corpus import ParallelExample
from .decode import DecodeConfig, generate_text
from .evaluate import accuracy, bleu
from .model import (
    Checkpoint,
    cls_head,
    decoder_head,
    decoder_stack,
    encoder_forward,
    ensure_cls_head,
    init_seq2seq_from_encoder,
    parameter_spec,
)
from .optim import AdamState, noam_lr, train_step
from .vocab import Vocab, encode_batch, tokenize


@dataclass(frozen=True)
class ClsTaskConfig:
    num_classes: int = 2
    batch_size: int = 24
    learning_rate: float = 5e-5
    epochs: int = 5
    dropout: float = 0.1
    max_len: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be at least 2, got {self.num_classes}")
        if min(self.batch_size, self.epochs) < 1 or self.learning_rate <= 0 or self.seed < 0:
            raise ConfigError(f"invalid classifier config: {self}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class Seq2SeqTaskConfig:
    batch_size: int = 30
    decoder_layers: int = 4
    warmup_steps: int = 4000
    dropout: float = 0.1
    epochs: int = 10
    bleu_n: int = 4
    max_len: int = 512
    max_decode_len: int = 64
    seed: int = 0
    freeze_encoder: bool = False

    def __post_init__(self):
        if min(self.batch_size, self.decoder_layers, self.warmup_steps, self.epochs,
               self.bleu_n, self.max_decode_len) < 1 or self.seed < 0:
            raise ConfigError(f"invalid seq2seq config: {self}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


# Adam settings of the Transformer's Noam-scheduled training
SEQ2SEQ_ADAM = {"beta1": 0.9, "beta2": 0.98, "eps": 1e-9}

# batch size, decoder depth, BLEU order per generation task
TASK_DEFAULTS: dict[str, dict] = {
    "AMCT": {"batch_size": 30, "decoder_layers": 4, "bleu_n": 4},
    "CPG22": {"batch_size": 80, "decoder_layers": 2, "bleu_n": 4},
    "CPG13": {"batch_size": 80, "decoder_layers": 2, "bleu_n": 4},
    "CCG": {"batch_size": 80, "decoder_layers": 4, "bleu_n": 2},
}
GENERATION_TASKS = tuple(TASK_DEFAULTS)
ALL_TASKS = ("PTC",) + GENERATION_TASKS


def resolve_task_config(task: str, **overrides):
    """Resolve per-task defaults into a config object; an override the task lacks is an error."""
    if task == "PTC":
        cls, merged = ClsTaskConfig, overrides
    elif task in TASK_DEFAULTS:
        cls, merged = Seq2SeqTaskConfig, {**TASK_DEFAULTS[task], **overrides}
    else:
        raise ConfigError(f"unknown task {task!r}, expected one of {ALL_TASKS}")
    unknown = sorted(set(overrides) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"task {task} does not take option(s) {', '.join(unknown)}")
    return cls(**merged)


def _fit(ckpt: Checkpoint, n: int, batch_size: int, epochs: int,
         rng: np.random.Generator, batch_loss, lr_at, evaluate, **adam) -> list[tuple]:
    """Shuffled minibatch epochs with a dev evaluation after each one.

    batch_loss(idx) builds the loss of one batch of example indices,
    lr_at(step) gives the learning rate of a 1-based step, and evaluate()
    scores the current weights. The weights of the best epoch are
    restored into ckpt and ckpt.step records that epoch. History rows are
    (epoch, mean train loss, dev score).
    """
    state = AdamState()
    step = 0
    best = (-1.0, -1, None)
    history: list[tuple] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            step += 1
            loss = batch_loss(order[lo : lo + batch_size])
            losses.append(train_step(ckpt.params, loss, state, lr_at(step), **adam))
        score = evaluate()
        history.append((epoch, float(np.mean(losses)), score))
        if score >= best[0]:
            best = (score, epoch, {k: v.data.copy() for k, v in ckpt.params.items()})
    for name, data in best[2].items():
        ckpt.params[name].data = data
    ckpt.step = best[1]
    return history


def classify(ckpt: Checkpoint, vocab: Vocab, texts: Sequence[str],
             max_len: int = 512, batch_size: int = 32) -> list[int]:
    """Predicted class per text, eval mode."""
    max_len = min(max_len, ckpt.config.max_positions)
    preds: list[int] = []
    with T.no_grad():
        for lo in range(0, len(texts), batch_size):
            ids, mask = encode_batch([tokenize(t) for t in texts[lo : lo + batch_size]],
                                     vocab, max_len)
            out = encoder_forward(ckpt, ids, mask)
            logits = cls_head(ckpt, out.pooled).data
            preds.extend(int(i) for i in logits.argmax(axis=-1))
    return preds


def finetune_classifier(encoder_ckpt: Checkpoint, vocab: Vocab,
                        train_data: Sequence[tuple[str, int]],
                        dev_data: Sequence[tuple[str, int]],
                        cfg: ClsTaskConfig) -> tuple[Checkpoint, list[tuple]]:
    """Train encoder plus classifier head; return best-dev checkpoint.

    History rows are (epoch, mean train loss, dev accuracy).
    """
    if not train_data or not dev_data:
        raise DatasetError("classification needs non-empty train and dev sets")
    for text, label in list(train_data) + list(dev_data):
        if not 0 <= label < cfg.num_classes:
            raise DatasetError(f"label {label} outside [0, {cfg.num_classes}) for {text!r}")

    ckpt = encoder_ckpt.copy()
    ckpt.config = replace(ckpt.config, dropout_rate=cfg.dropout)
    ensure_cls_head(ckpt, cfg.num_classes, init_seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    max_len = min(cfg.max_len, ckpt.config.max_positions)

    ids_all, mask_all = encode_batch([tokenize(t) for t, _ in train_data], vocab, max_len)
    labels_all = np.array([lab for _, lab in train_data], dtype=np.int64)

    def batch_loss(idx):
        out = encoder_forward(ckpt, ids_all[idx], mask_all[idx], rng=rng)
        logits = cls_head(ckpt, out.pooled, rng=rng)
        return T.cross_entropy_masked(logits, labels_all[idx])

    def dev_accuracy():
        preds = classify(ckpt, vocab, [t for t, _ in dev_data], max_len)
        return accuracy(preds, [lab for _, lab in dev_data])

    history = _fit(ckpt, len(train_data), cfg.batch_size, cfg.epochs, rng, batch_loss,
                   lambda step: cfg.learning_rate, dev_accuracy)
    return ckpt, history


def _teacher_forced_batch(pairs: Sequence[ParallelExample], vocab: Vocab,
                          max_len: int):
    """Encode sources and targets; the decoder reads [CLS] body and predicts body [SEP]."""
    src_ids, src_mask = encode_batch([p.source for p in pairs], vocab, max_len)
    # a spare last column keeps encode's minimum length of 3 when every target is empty
    tgt_ids, tgt_mask = encode_batch([p.target for p in pairs], vocab,
                                     max(len(p.target) for p in pairs) + 3)
    keep = tgt_mask[:, 1:-1]
    dec_in = np.where(keep == 1, tgt_ids[:, :-2], vocab.pad_id)
    rows, cols = np.nonzero(keep)
    return src_ids, src_mask, dec_in, rows, cols, tgt_ids[:, 1:-1][rows, cols]


def seq2seq_loss(ckpt: Checkpoint, vocab: Vocab, pairs: Sequence[ParallelExample],
                 max_len: int, rng=None) -> T.Tensor:
    """Mean token NLL under teacher forcing; padding is excluded; an rng turns on dropout."""
    src_ids, src_mask, dec_in, rows, cols, labels = _teacher_forced_batch(
        pairs, vocab, max_len)
    enc = encoder_forward(ckpt, src_ids, src_mask, rng=rng)
    hidden = decoder_stack(ckpt, dec_in, enc.hidden, src_mask, rng=rng)
    # project the labelled rows only, as pretraining does before mlm_head
    logits = decoder_head(ckpt, T.gather(hidden, (rows, cols)))
    return T.cross_entropy_masked(logits, labels)


def dev_bleu(ckpt: Checkpoint, vocab: Vocab, pairs: Sequence[ParallelExample],
             bleu_n: int, max_decode_len: int) -> float:
    """Corpus BLEU of greedy generations against the dev targets.

    Each generation is the text `inkstone generate` writes, tokenized as
    `inkstone score` tokenizes it, so special tokens never count.
    """
    cfg = DecodeConfig(max_decode_len=max_decode_len)
    cands = [tokenize(generate_text(ckpt, vocab, p.source_text, cfg)) for p in pairs]
    return bleu(cands, [p.target for p in pairs], max_n=bleu_n).score


def finetune_seq2seq(encoder_ckpt: Checkpoint, vocab: Vocab,
                     train_pairs: Sequence[ParallelExample],
                     dev_pairs: Sequence[ParallelExample],
                     cfg: Seq2SeqTaskConfig) -> tuple[Checkpoint, list[tuple]]:
    """Attach a decoder, train teacher-forced, return best-dev-BLEU epoch.

    History rows are (epoch, mean train loss, dev BLEU).
    """
    if not train_pairs or not dev_pairs:
        raise DatasetError("seq2seq needs non-empty train and dev sets")
    max_len = min(cfg.max_len, encoder_ckpt.config.max_positions)
    budget = max_len - 2
    for p in list(train_pairs) + list(dev_pairs):
        if len(p.source) > budget or len(p.target) + 1 > max_len:
            raise DatasetError(
                f"example exceeds max_len {max_len}: source {len(p.source)}, "
                f"target {len(p.target)} tokens"
            )

    ckpt = init_seq2seq_from_encoder(encoder_ckpt, cfg.decoder_layers,
                                     init_seed=cfg.seed)
    ckpt.config = replace(ckpt.config, dropout_rate=cfg.dropout)
    rng = np.random.default_rng(cfg.seed)
    d_model = ckpt.config.hidden_size
    pairs = list(train_pairs)
    # frozen leaves record no graph, so the encoder backward is never run
    frozen = ([ckpt.params[k] for k in parameter_spec(encoder_ckpt.config)]
              if cfg.freeze_encoder else [])
    for p in frozen:
        p.requires_grad = False

    def batch_loss(idx):
        return seq2seq_loss(ckpt, vocab, [pairs[i] for i in idx], max_len, rng=rng)

    history = _fit(ckpt, len(pairs), cfg.batch_size, cfg.epochs, rng, batch_loss,
                   lambda step: noam_lr(step, cfg.warmup_steps, d_model),
                   lambda: dev_bleu(ckpt, vocab, dev_pairs, cfg.bleu_n, cfg.max_decode_len),
                   **SEQ2SEQ_ADAM)
    for p in frozen:
        p.requires_grad = True
    return ckpt, history


def run_task(task: str, encoder_ckpt: Checkpoint, vocab: Vocab, train_data,
             dev_data, out_dir=None, **overrides) -> tuple[Checkpoint, list[tuple]]:
    """Dispatch on task name with published defaults; optionally write a report."""
    cfg = resolve_task_config(task, **overrides)
    if task == "PTC":
        ckpt, history = finetune_classifier(encoder_ckpt, vocab, train_data,
                                            dev_data, cfg)
        metric = "dev_accuracy"
    else:
        ckpt, history = finetune_seq2seq(encoder_ckpt, vocab, train_data,
                                         dev_data, cfg)
        metric = "dev_bleu"
    if out_dir is not None:
        import pathlib

        out_dir = pathlib.Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "metrics.tsv", "w", encoding="utf-8", newline="\n") as f:
            f.write(f"epoch\ttrain_loss\t{metric}\n")
            for epoch, loss, score in history:
                f.write(f"{epoch}\t{loss:.6f}\t{score:.4f}\n")
    return ckpt, history

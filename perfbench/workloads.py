"""The three benchmark workloads, driven through inkstone's public API.

Each workload is a closed loop in one process: ``op`` runs one unit of
user-visible work and returns only when it is complete. ``setup`` turns
the seed into input files and reads them back with inkstone's loaders.
``gate`` checks the outputs after timing. Shapes are class attributes so
the smoke test can shrink them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs


@dataclass
class OpResult:
    units: float        # training steps, epochs or generated tokens
    tokens: float       # tokens processed, for throughput
    detail: dict = field(default_factory=dict)


class Workload:
    name = ""
    unit = ""
    ops_per_round = 1   # the loop only stops at a round boundary
    min_ops = 1
    # functions the timed loop must call; a traced run that sees one zero times fails
    expected: tuple[str, ...] = ()

    def setup(self, workdir: Path, seed: int) -> dict:
        """Build inputs and program state; return the input properties."""
        raise NotImplementedError

    def op(self, index: int) -> OpResult:
        raise NotImplementedError

    def gate(self, results: list[OpResult]) -> list[str | None]:
        """One failure message (or None) per op."""
        raise NotImplementedError

    def quality(self, results: list[OpResult]) -> float:
        """Mean negative log-likelihood per token, fixed by the seed."""
        raise NotImplementedError

    def observed(self, results: list[OpResult]) -> dict:
        """Input properties seen in the outputs, recorded with the run."""
        return {}


def _log_softmax(row: np.ndarray) -> np.ndarray:
    row = row.astype(np.float64)
    row = row - row.max(axis=-1, keepdims=True)
    return row - np.log(np.exp(row).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------- mlm-desk

class MlmDesk(Workload):
    """Chained ``pretrain`` calls, each resuming from the previous ``final.ckpt``."""

    name = "mlm-desk"
    unit = "step"
    layers, hidden, heads, max_len, batch, dropout = 4, 256, 4, 128, 15, 0.1
    vocab_chars = 20000
    zipf_docs, chunks_per_doc = 40, (3, 8)
    steps_per_call = 2
    min_ops = 3
    # quality is the mean loss of this timed call, so it does not depend on run length
    quality_call = 2
    expected = (
        "pretrain.pretrain", "pretrain.apply_mlm_mask", "pretrain.chunk_corpus",
        "model.encoder_forward", "model.mlm_head", "model.save_checkpoint",
        "model.load_checkpoint", "tensor.matmul", "tensor.add", "tensor.softmax",
        "tensor.layer_norm", "tensor.gelu", "tensor.dropout", "tensor.embedding",
        "tensor.cross_entropy_masked", "tensor.backward", "optim.adam_step",
        "vocab.encode", "vocab.tokenize", "corpus.load_documents",
    )

    def setup(self, workdir, seed):
        from inkstone import corpus, model, vocab
        from inkstone.pretrain import PretrainConfig, chunk_corpus

        self.corpus_path = workdir / "corpus.txt"
        inputs.write_zipf_corpus(self.corpus_path, np.random.default_rng(seed), self.vocab_chars,
                                 self.zipf_docs, self.max_len - 2, self.chunks_per_doc)
        texts = self._read_corpus()
        vocab.save_vocab(vocab.build_vocab(texts), workdir / "vocab.txt")
        self.vocab = vocab.load_vocab(workdir / "vocab.txt")
        cfg = model.ModelConfig(vocab_size=len(self.vocab), num_layers=self.layers,
                                hidden_size=self.hidden, num_heads=self.heads,
                                max_positions=self.max_len, dropout_rate=self.dropout)
        self.dirs = [workdir / "run_a", workdir / "run_b"]
        for d in self.dirs:
            d.mkdir()
        self.latest = workdir / "init.ckpt"
        model.save_checkpoint(model.build_model(cfg, init_seed=seed), self.latest)
        self.cfg = PretrainConfig(batch_size=self.batch, max_steps=self.steps_per_call,
                                  max_len=self.max_len, seed=seed)
        _, mask = chunk_corpus(texts, self.vocab, self.max_len)
        self.tokens_per_step = float(mask.sum(axis=1).mean()) * self.batch
        return {"vocab_size": len(self.vocab), "chunks": int(mask.shape[0]),
                "tokens_per_step": self.tokens_per_step,
                "label_share_expected": self.cfg.masking.select_prob
                * (self.max_len - 2) / self.max_len}

    def _read_corpus(self) -> list[str]:
        from inkstone import corpus

        return [corpus.strip_title(d) for d in corpus.load_documents(self.corpus_path)]

    def op(self, index):
        from inkstone import model, pretrain

        # as `inkstone pretrain --init` does: read the corpus, load, train, save
        out_dir = self.dirs[index % 2]
        init = model.load_checkpoint(self.latest)
        pretrain.pretrain(self._read_corpus(), self.vocab, init.config, self.cfg,
                          init=init, out_dir=out_dir)
        self.latest = out_dir / "final.ckpt"
        return OpResult(self.steps_per_call, self.steps_per_call * self.tokens_per_step,
                        {"log": (out_dir / "train.log").read_text(encoding="utf-8")})

    def _losses(self, r: OpResult) -> list[float]:
        return [float(line.split("\t")[1]) for line in r.detail["log"].splitlines()]

    def gate(self, results):
        verdicts: list[str | None] = []
        for r in results:
            losses = self._losses(r)
            if len(losses) != self.steps_per_call:
                verdicts.append(f"train.log has {len(losses)} lines, expected {self.steps_per_call}")
            elif not all(math.isfinite(x) for x in losses):
                verdicts.append(f"non-finite loss in {losses}")
            else:
                verdicts.append(None)
        if len(results) >= 2 and verdicts[-1] is None:
            first, last = np.mean(self._losses(results[0])), np.mean(self._losses(results[-1]))
            if not last < first:
                verdicts[-1] = f"loss did not fall over the run: {first:.4f} -> {last:.4f}"
        return verdicts

    def quality(self, results):
        return float(np.mean(self._losses(results[self.quality_call])))


# ---------------------------------------------------------- finetune-small

class FinetuneSmall(Workload):
    """Repeated CPG22 ``run_task`` calls, as `inkstone finetune` runs them."""

    name = "finetune-small"
    unit = "epoch"
    layers, hidden, heads, max_positions = 2, 64, 4, 20
    vocab_chars = 3000
    n_train, n_dev = 240, 16
    epochs = 2
    max_decode_len = 16
    min_ops = 3
    expected = (
        "finetune.run_task", "finetune.finetune_seq2seq", "finetune.seq2seq_loss",
        "finetune.dev_bleu", "decode.greedy_decode", "decode.greedy_from_step",
        "model.encoder_forward", "model.decoder_forward", "model.load_checkpoint",
        "model.save_checkpoint", "tensor.matmul", "tensor.add", "tensor.softmax",
        "tensor.layer_norm", "tensor.gelu", "tensor.dropout", "tensor.embedding",
        "tensor.cross_entropy_masked", "tensor.backward", "optim.adam_step",
        "evaluate.bleu", "vocab.encode", "vocab.tokenize", "corpus.load_parallel_tsv",
    )

    def setup(self, workdir, seed):
        from inkstone import corpus, finetune, model, vocab

        self.train_path, self.dev_path = workdir / "train.tsv", workdir / "dev.tsv"
        glossary = workdir / "glossary.txt"
        inputs.write_poem_pairs(self.train_path, self.dev_path, glossary,
                                np.random.default_rng(seed), self.vocab_chars,
                                self.n_train, self.n_dev)
        texts = [glossary.read_text(encoding="utf-8")]
        for path in (self.train_path, self.dev_path):
            texts += [ex.source_text + ex.target_text
                      for ex in corpus.load_parallel_tsv(path, "CPG22")]
        vocab.save_vocab(vocab.build_vocab(texts), workdir / "vocab.txt")
        self.vocab = vocab.load_vocab(workdir / "vocab.txt")
        cfg = model.ModelConfig(vocab_size=len(self.vocab), num_layers=self.layers,
                                hidden_size=self.hidden, num_heads=self.heads,
                                max_positions=self.max_positions)
        self.encoder_path = workdir / "encoder.ckpt"
        model.save_checkpoint(model.build_model(cfg, init_seed=seed), self.encoder_path)
        self.out_dir = workdir / "finetune"
        self.seed = seed
        train = corpus.load_parallel_tsv(self.train_path, "CPG22")
        # encoder input with [CLS]/[SEP], decoder input with the leading [CLS]
        self.tokens_per_epoch = float(sum(len(p.source) + 2 + len(p.target) + 1 for p in train))
        return {"vocab_size": len(self.vocab), "train_pairs": len(train),
                "dev_pairs": self.n_dev, "tokens_per_epoch": self.tokens_per_epoch,
                "steps_per_epoch": -(-len(train) // finetune.TASK_DEFAULTS["CPG22"]["batch_size"])}

    def op(self, index):
        from inkstone import corpus, finetune, model

        # as `inkstone finetune` does: load, read the TSVs, train, save the best epoch
        encoder = model.load_checkpoint(self.encoder_path)
        train = corpus.load_parallel_tsv(self.train_path, "CPG22")
        dev = corpus.load_parallel_tsv(self.dev_path, "CPG22")
        ckpt, history = finetune.run_task("CPG22", encoder, self.vocab, train, dev,
                                          out_dir=self.out_dir, epochs=self.epochs,
                                          seed=self.seed, max_decode_len=self.max_decode_len)
        model.save_checkpoint(ckpt, self.out_dir / "best.ckpt")
        return OpResult(self.epochs, self.epochs * self.tokens_per_epoch,
                        {"history": history})

    def gate(self, results):
        verdicts: list[str | None] = []
        for r in results:
            h = r.detail["history"]
            if [row[0] for row in h] != list(range(1, self.epochs + 1)):
                verdicts.append(f"history epochs {[row[0] for row in h]}, expected 1..{self.epochs}")
            elif not all(math.isfinite(row[1]) for row in h):
                verdicts.append(f"non-finite training loss in {h}")
            elif not all(0.0 <= row[2] <= 100.0 for row in h):
                verdicts.append(f"BLEU outside [0, 100] in {h}")
            else:
                verdicts.append(None)
        return verdicts

    def quality(self, results):
        return float(results[0].detail["history"][-1][1])


# ------------------------------------------------------------- decode-file

class DecodeFile(Workload):
    """One checkpoint loaded as `inkstone generate` does, then one decode per prompt.

    A round is five prompts: greedy with caps 16/64/128 and beam-4 with
    caps 16/32, alternating short and long sources. The decoder is
    untrained, so outputs run to the cap and the caps fix the mix.
    """

    name = "decode-file"
    unit = "token"
    layers, hidden, heads, decoder_layers, max_positions = 4, 256, 4, 4, 130
    vocab_chars = 20000
    prompts_each = 16
    short_len, long_len = (5, 9), (90, 120)
    mix = (("greedy", 16), ("greedy", 64), ("greedy", 128), ("beam", 16), ("beam", 32))
    beam_size = 4
    ops_per_round = len(mix)
    min_ops = 2 * len(mix)
    expected = (
        "decode.greedy_decode", "decode.beam_search", "decode.greedy_from_step",
        "decode.beam_from_step", "model.encoder_forward", "model.decoder_forward",
        "tensor.matmul", "tensor.add", "tensor.softmax", "tensor.layer_norm",
        "tensor.gelu", "tensor.embedding", "vocab.encode", "vocab.tokenize", "vocab.decode",
    )

    def setup(self, workdir, seed):
        from inkstone import corpus, model, vocab

        prompts_path, glossary = workdir / "prompts.tsv", workdir / "glossary.txt"
        inputs.write_prompts(prompts_path, glossary, np.random.default_rng(seed),
                             self.vocab_chars, self.prompts_each, self.short_len, self.long_len)
        vocab.save_vocab(vocab.build_vocab([glossary.read_text(encoding="utf-8")]),
                         workdir / "vocab.txt")
        self.vocab = vocab.load_vocab(workdir / "vocab.txt")
        prompts = corpus.load_parallel_tsv(prompts_path, "CCG")
        self.sources = (prompts[:self.prompts_each], prompts[self.prompts_each:])
        cfg = model.ModelConfig(vocab_size=len(self.vocab), num_layers=self.layers,
                                hidden_size=self.hidden, num_heads=self.heads,
                                max_positions=self.max_positions,
                                decoder_layers=self.decoder_layers)
        ckpt_path = workdir / "seq2seq.ckpt"
        model.save_checkpoint(model.build_model(cfg, init_seed=seed), ckpt_path)
        self.ckpt = model.load_checkpoint(ckpt_path)
        return {"vocab_size": len(self.vocab),
                "mix": [f"{s}-{cap}" for s, cap in self.mix],
                "source_tokens": {"short": list(self.short_len), "long": list(self.long_len)}}

    def prompt(self, index):
        rnd, slot = divmod(index, len(self.mix))
        strategy, cap = self.mix[slot]
        pool = self.sources[(rnd + slot) % 2]
        return strategy, cap, pool[(rnd // 2) % len(pool)].source_text

    def op(self, index):
        from inkstone import decode, vocab

        strategy, cap, source = self.prompt(index)
        cfg = decode.DecodeConfig(strategy=strategy, beam_size=self.beam_size,
                                  max_decode_len=cap)
        # the two calls generate_text dispatches to; they also return the
        # token ids and beam score that the correctness gate rescores
        if strategy == "greedy":
            ids, score = decode.greedy_decode(self.ckpt, self.vocab, source, cap), None
        else:
            ids, score = decode.beam_search(self.ckpt, self.vocab, source, cfg)
        text = vocab.decode(np.array(ids, dtype=np.int64), self.vocab) if ids else ""
        return OpResult(len(ids), len(ids), {"strategy": strategy, "cap": cap,
                                             "source": source, "ids": ids,
                                             "score": score, "text": text})

    def _rescore(self, r: OpResult) -> np.ndarray:
        """Log-prob rows of one teacher-forced decoder pass over the output."""
        from inkstone import model, tensor, vocab

        v = self.vocab
        src_ids, src_mask = vocab.encode(vocab.tokenize(r.detail["source"]), v,
                                         self.ckpt.config.max_positions)
        with tensor.no_grad():
            enc = model.encoder_forward(self.ckpt, src_ids[None], src_mask[None])
            logits = model.decoder_forward(self.ckpt, [[v.cls_id] + list(r.detail["ids"])],
                                           enc.hidden, src_mask[None])
        lp = _log_softmax(logits.data[0])
        lp[:, [v.cls_id, v.pad_id]] = -np.inf
        return lp

    def gate(self, results):
        verdicts: list[str | None] = []
        self.nll = []
        for r in results:
            ids, cap = list(r.detail["ids"]), r.detail["cap"]
            lp = self._rescore(r)
            steps = np.arange(len(ids))
            chosen = lp[steps, ids]
            finished = len(ids) < cap
            body = float(chosen.sum())
            self.nll.append((-body, len(ids)))
            if r.detail["strategy"] == "greedy":
                rows = lp[: len(ids) + finished]
                picks = ids + [self.vocab.sep_id] * finished
                gap = float((rows.max(axis=1) - rows[np.arange(len(picks)), picks]).max())
                verdicts.append(None if gap <= 1e-4 else
                                f"greedy token {gap:.2e} below the row maximum")
            else:
                total = body + (float(lp[len(ids), self.vocab.sep_id]) if finished else 0.0)
                diff = abs(total - r.detail["score"])
                verdicts.append(None if diff <= 1e-3 else
                                f"beam score {r.detail['score']:.6f} vs rescored {total:.6f}")
        return verdicts

    def quality(self, results):
        return float(sum(n for n, _ in self.nll) / sum(k for _, k in self.nll))

    def observed(self, results):
        tokens: dict[str, list[int]] = {}
        for r in results:
            tokens.setdefault(f"{r.detail['strategy']}-{r.detail['cap']}", []).append(int(r.units))
        early = sum(r.units < r.detail["cap"] for r in results)
        return {"tokens_by_config": tokens, "eos_early_share": early / len(results)}


WORKLOADS = {w.name: w for w in (MlmDesk, FinetuneSmall, DecodeFile)}

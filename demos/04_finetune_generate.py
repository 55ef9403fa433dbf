"""Fine-tuning a classifier head and a seq2seq decoder on toy tasks, then
decoding greedily and with beam search.

    python3 demos/04_finetune_generate.py      (~20 s on one CPU)
"""

import numpy as np

from inkstone import vocab as V
from inkstone.corpus import ParallelExample
from inkstone.decode import DecodeConfig, beam_search, generate_text
from inkstone.finetune import (ClsTaskConfig, Seq2SeqTaskConfig, classify,
                               finetune_classifier, finetune_seq2seq)
from inkstone.model import ModelConfig, build_model

CHARS = [chr(c) for c in range(0x4E00, 0x4E00 + 10)]


def marker_dataset(rng, n):
    """Label 1 iff the marker character appears; position varies.

    All strings share one length so the model cannot key on it.
    """
    data = []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        body = [CHARS[int(rng.integers(2, 10))] for _ in range(4)]
        if label:
            body[int(rng.integers(0, 4))] = CHARS[0]
        data.append(("".join(body), label))
    return data


def copy_pairs(rng, n, length=4):
    pairs = []
    for _ in range(n):
        toks = [CHARS[int(rng.integers(0, 10))] for _ in range(length)]
        pairs.append(ParallelExample(list(toks), list(toks), "AMCT"))
    return pairs


def main():
    rng = np.random.default_rng(0)
    vb = V.build_vocab(["".join(CHARS)])
    enc = build_model(ModelConfig(vocab_size=len(vb), num_layers=1, hidden_size=32,
                                  num_heads=4, ff_size=64, max_positions=12,
                                  dropout_rate=0.0), init_seed=0)

    print("== classification: does the marker character appear? ==")
    train = marker_dataset(rng, 48)
    dev = marker_dataset(rng, 16)
    cfg = ClsTaskConfig(num_classes=2, batch_size=8, learning_rate=1e-2,
                        epochs=12, dropout=0.0, max_len=8, seed=0)
    ck_cls, history = finetune_classifier(enc, vb, train, dev, cfg)
    for epoch, loss, acc in history[:3] + history[-2:]:
        print(f"epoch {epoch:2d}: train loss {loss:.4f}, dev accuracy {acc:.3f}")
    probe = [CHARS[5] + CHARS[0] + CHARS[6] + CHARS[9],
             CHARS[5] + CHARS[8] + CHARS[6] + CHARS[9]]
    preds = classify(ck_cls, vb, probe, max_len=8)
    print(f"classify({probe}) -> {preds}  (1 = marker present)")

    print()
    print("== seq2seq: memorize a small copy task ==")
    pairs = copy_pairs(rng, 20)
    cfg = Seq2SeqTaskConfig(batch_size=10, decoder_layers=1,
                            warmup_steps=50, epochs=30, bleu_n=2, max_len=10,
                            max_decode_len=8, dropout=0.0, seed=2)
    ck_gen, history = finetune_seq2seq(enc, vb, pairs, pairs, cfg)
    for epoch, loss, score in history[::10] + history[-1:]:
        print(f"epoch {epoch:2d}: train loss {loss:.4f}, dev BLEU-2 {score:.1f}")

    print()
    print("== greedy vs beam on the trained model ==")
    src = pairs[0].source_text
    greedy_out = generate_text(ck_gen, vb, src, DecodeConfig("greedy", max_decode_len=8))
    beam_out = generate_text(ck_gen, vb, src,
                             DecodeConfig("beam", beam_size=4, max_decode_len=8,
                                          length_penalty=0.6))
    print(f"source : {src}")
    print(f"greedy : {greedy_out}")
    print(f"beam(4): {beam_out}")

    body, score = beam_search(ck_gen, vb, src,
                              DecodeConfig("beam", beam_size=4, max_decode_len=8))
    print(f"beam hypothesis ids {body} with log-prob score {score:.3f}")


if __name__ == "__main__":
    main()

"""Masked-language-model pretraining on a synthetic corpus, then continued
pretraining on a second domain.

The corpus is built from cyclic rotations of a 10-character alphabet, so
every sentence is fully determined by its first character. A model that
has learned the pattern fills masked slots almost perfectly; a fresh one
is at chance.

    python3 demos/03_mlm_pretraining.py       (~15 s on one CPU)
"""

import tempfile
from pathlib import Path

import numpy as np

from inkstone import vocab as V
from inkstone.model import ModelConfig
from inkstone.pretrain import MaskingConfig, PretrainConfig, apply_mlm_mask, eval_mlm, pretrain

HANZI = [chr(c) for c in range(0x4E00, 0x4E00 + 20)]
DOMAIN_A, DOMAIN_B = HANZI[:10], HANZI[10:]


def rotation_sentences(domain, rng, n, length=8):
    out = []
    for _ in range(n):
        i = int(rng.integers(0, 10))
        out.append("".join(domain[(i + k) % 10] for k in range(length)))
    return out


def main():
    rng = np.random.default_rng(0)
    vb = V.build_vocab(["".join(HANZI)])
    corpus_a = rotation_sentences(DOMAIN_A, rng, 200)
    corpus_b = rotation_sentences(DOMAIN_B, rng, 200)
    held_out_b = rotation_sentences(DOMAIN_B, np.random.default_rng(99), 64)

    print("== the masking scheme: 15% selected, 80/10/10 mask/random/keep ==")
    ids, _ = V.encode(V.tokenize(corpus_a[0]), vb, max_len=10)
    batch = apply_mlm_mask(np.tile(ids, (3, 1)), vb, MaskingConfig(),
                           np.random.default_rng(1))
    print(f"original: {ids.tolist()}")
    for row in range(3):
        at = batch.label_cols[batch.label_rows == row]
        print(f"row {row}: visible={batch.input_ids[row].tolist()}  "
              f"labelled at {at.tolist() or 'nothing'}")

    cfg = ModelConfig(vocab_size=len(vb), num_layers=1, hidden_size=64,
                      num_heads=4, ff_size=128, max_positions=12, dropout_rate=0.0)

    with tempfile.TemporaryDirectory() as d:
        print()
        print("== pretrain on domain A ==")
        ck_a = pretrain(corpus_a, vb, cfg,
                        PretrainConfig(learning_rate=3e-3, weight_decay=0.0,
                                       batch_size=16, max_steps=600, max_len=10,
                                       seed=3),
                        out_dir=Path(d) / "a")
        log = (Path(d) / "a" / "train.log").read_text().splitlines()
        print(f"train.log: {len(log)} steps, first line {log[0]!r}")
        print(f"           last line  {log[-1]!r}")

        acc_a, ppl_a = eval_mlm(ck_a, held_out_b, vb, seed=11)
        print(f"domain-A model on held-out domain B: masked acc {acc_a:.3f}, "
              f"perplexity {ppl_a:.1f}")

        print()
        print("== continue from that checkpoint on domain B ==")
        steps_a = ck_a.step  # pretrain trains its init in place
        ck_ab = pretrain(corpus_b, vb, cfg,
                         PretrainConfig(learning_rate=3e-3, weight_decay=0.0,
                                        batch_size=16, max_steps=300, max_len=10,
                                        seed=4),
                         init=ck_a, out_dir=Path(d) / "ab")
        acc_ab, ppl_ab = eval_mlm(ck_ab, held_out_b, vb, seed=11)
        print(f"after continuation: masked acc {acc_ab:.3f}, perplexity {ppl_ab:.1f}")
        print(f"step counter carried across runs: {steps_a} -> {ck_ab.step}")


if __name__ == "__main__":
    main()

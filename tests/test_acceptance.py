"""Acceptance gates for the whole toolkit.

Each test prints exactly one line, `[criterion NN] PASS|FAIL name: detail`,
written straight to the terminal so the verdicts survive output capture.
Tolerances are pinned in the assertions; a red criterion here means the
package does not meet its contract, not that the test is flaky.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from _reference import argmax_from_step
from _steps import batched, by_prefix
from inkstone import tensor as T
from inkstone.corpus import ParallelExample
from inkstone.decode import beam_from_step, greedy_from_step
from inkstone.errors import CheckpointError
from inkstone.evaluate import EvalItem, aggregate_sheets, bleu, make_eval_sheets
from inkstone.finetune import (
    ClsTaskConfig,
    Seq2SeqTaskConfig,
    finetune_classifier,
    finetune_seq2seq,
)
from inkstone.model import (
    ModelConfig,
    build_model,
    cls_head,
    encoder_forward,
    decoder_forward,
    ensure_cls_head,
    ensure_mlm_head,
    expected_parameter_count,
    load_checkpoint,
    mlm_head,
    parameter_count,
    save_checkpoint,
)
from inkstone.pretrain import (
    MaskingConfig,
    PretrainConfig,
    apply_mlm_mask,
    eval_mlm,
    pretrain,
)
from inkstone.vocab import build_vocab

HANZI = [chr(c) for c in range(0x4E00, 0x4E00 + 600)]

# conftest.py replays these in the terminal summary, past pytest's fd capture
REPORTED: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    REPORTED.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_01_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(0)

    cfg = ModelConfig(vocab_size=100, num_layers=2, hidden_size=64,
                      num_heads=4, ff_size=128, max_positions=12,
                      dropout_rate=0.0)
    ckpt = build_model(cfg, init_seed=9)
    ensure_mlm_head(ckpt, init_seed=10)
    ensure_cls_head(ckpt, num_classes=3, init_seed=11)
    ids = rng.integers(5, 100, size=(2, 12)).astype(np.int64)
    mask = np.ones((2, 12), dtype=np.int64)
    ids[1, 9:] = 0
    mask[1, 9:] = 0
    rows = np.array([0, 0, 0, 1, 1, 1])
    cols = np.array([1, 4, 9, 2, 5, 8])
    labels = rng.integers(5, 100, size=6).astype(np.int64)
    cls_labels = np.array([1, 2], dtype=np.int64)

    def encoder_loss():
        out = encoder_forward(ckpt, ids, mask)
        logits = T.reshape(mlm_head(ckpt, out.hidden), (2 * 12, 100))
        mlm = T.cross_entropy_masked(T.gather(logits, rows * 12 + cols), labels)
        cls = T.cross_entropy_masked(cls_head(ckpt, out.pooled), cls_labels)
        return T.add(mlm, cls)

    err_enc = T.grad_check(encoder_loss, ckpt.params.values(), eps=1e-4)

    scfg = ModelConfig(vocab_size=30, num_layers=1, hidden_size=32,
                       num_heads=2, ff_size=64, max_positions=10,
                       dropout_rate=0.0, decoder_layers=1)
    seq = build_model(scfg, init_seed=12)
    src = rng.integers(5, 30, size=(2, 8)).astype(np.int64)
    smask = np.ones((2, 8), dtype=np.int64)
    src[0, 6:] = 0
    smask[0, 6:] = 0
    tgt = rng.integers(5, 30, size=(2, 6)).astype(np.int64)
    drows = np.repeat(np.arange(2), 4)
    dcols = np.tile(np.array([0, 2, 3, 5]), 2)
    dlabels = rng.integers(5, 30, size=8).astype(np.int64)

    def decoder_loss():
        enc = encoder_forward(seq, src, smask)
        logits = decoder_forward(seq, tgt, enc.hidden, smask)
        flat = T.reshape(logits, (2 * 6, 30))
        return T.cross_entropy_masked(T.gather(flat, drows * 6 + dcols), dlabels)

    dec_params = [p for n, p in seq.params.items() if n.startswith("dec.")]
    err_dec = T.grad_check(decoder_loss, dec_params, eps=1e-4)

    elapsed = time.time() - t0
    ok = err_enc < 1e-3 and err_dec < 1e-3 and elapsed < 300
    _report(1, "analytic gradients match central differences", ok,
            f"max rel err {err_enc:.2e} (encoder+heads), {err_dec:.2e} "
            f"(decoder) over {sum(p.data.size for p in ckpt.params.values())}"
            f"+{sum(p.data.size for p in dec_params)} coords in {elapsed:.0f}s"
            " (bounds 1e-3, 300s)")


def test_02_masking_statistics():
    vocab = build_vocab(HANZI[:500])
    rng = np.random.default_rng(1)
    rows = rng.integers(5, 505, size=(1400, 512)).astype(np.int64)
    batch = apply_mlm_mask(rows, vocab, MaskingConfig(), np.random.default_rng(2))
    eligible = rows.size
    selected = batch.num_labels
    rate = selected / eligible
    orig = rows[batch.label_rows, batch.label_cols]
    visible = batch.input_ids[batch.label_rows, batch.label_cols]
    frac_mask = float((visible == vocab.mask_id).sum() / selected)
    frac_keep = float((visible == orig).sum() / selected)
    frac_rand = 1.0 - frac_mask - frac_keep
    ok = (selected >= 100_000
          and abs(rate - 0.15) <= 0.005
          and abs(frac_mask - 0.80) <= 0.01
          and abs(frac_rand - 0.10) <= 0.01
          and abs(frac_keep - 0.10) <= 0.01)
    _report(2, "masking hits 15% at 80/10/10", ok,
            f"{selected} selections, rate {rate:.4f} (15%±0.5pt), branches "
            f"{frac_mask:.3f}/{frac_rand:.3f}/{frac_keep:.3f} (80/10/10±1pt)")


def test_03_mlm_overfits_small_corpus(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(0)
    pool = HANZI[:30]
    sentences = ["".join(pool[int(i)] for i in rng.integers(0, 30, size=10))
                 for _ in range(32)]
    vocab = build_vocab(pool)
    mcfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=64,
                       num_heads=4, ff_size=128, max_positions=16,
                       dropout_rate=0.0)
    ckpt = None
    best = math.inf
    reached_at = None
    for segment in range(8):  # 8 x 250 = 2000 steps ceiling
        out = tmp_path / f"seg{segment}"
        cfg = PretrainConfig(learning_rate=3e-3, weight_decay=0.0,
                             batch_size=32, max_steps=250, max_len=12, seed=1,
                             masking=MaskingConfig(select_prob=0.3))
        ckpt = pretrain(sentences, vocab, mcfg, cfg, init=ckpt, out_dir=out)
        for line in (out / "train.log").read_text(encoding="utf-8").splitlines():
            step, loss = line.split("\t")[:2]
            best = min(best, float(loss))
            if float(loss) < 0.1 and reached_at is None:
                reached_at = int(step)
        if reached_at is not None:
            break
    elapsed = time.time() - t0
    ok = reached_at is not None and reached_at <= 2000 and elapsed < 60
    _report(3, "MLM drives training loss below 0.1 on 32 sentences", ok,
            f"loss {best:.4f}, first <0.1 at step {reached_at} "
            f"(cap 2000) in {elapsed:.0f}s (cap 60s)")


def test_04_base_configuration_size():
    import gc

    cfg = ModelConfig(vocab_size=21128)
    want = expected_parameter_count(cfg)
    ckpt = build_model(cfg, init_seed=0)
    got = parameter_count(ckpt)
    del ckpt
    gc.collect()
    ok = got == want == 101_675_520 and 100e6 <= got <= 105e6
    _report(4, "base encoder lands at about 102M parameters", ok,
            f"built {got:,} == closed form {want:,}, inside [100M, 105M]")


def _domain_sentences(domain, rng, n, length=8):
    out = []
    for _ in range(n):
        i = int(rng.integers(0, 10))
        out.append("".join(domain[(i + k) % 10] for k in range(length)))
    return out


def test_05_continued_pretraining_transfers():
    t0 = time.time()
    a_chars, b_chars = HANZI[:10], HANZI[10:20]
    vocab = build_vocab(HANZI[:20])
    rng = np.random.default_rng(0)
    corp_a = _domain_sentences(a_chars, rng, 300)
    corp_b = _domain_sentences(b_chars, rng, 300)
    eval_b = _domain_sentences(b_chars, np.random.default_rng(99), 64)
    masking = MaskingConfig(select_prob=0.3)
    mcfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=64,
                       num_heads=4, ff_size=128, max_positions=12,
                       dropout_rate=0.0)

    def stage(corpus, steps, seed, init=None):
        cfg = PretrainConfig(learning_rate=3e-3, weight_decay=0.0,
                             batch_size=16, max_steps=steps, max_len=10,
                             seed=seed, masking=masking)
        return pretrain(corpus, vocab, mcfg, cfg, init=init)

    ck_a = stage(corp_a, 600, 3)
    acc_before, _ = eval_mlm(ck_a, eval_b, vocab, masking=masking, seed=11)
    ck_ab = stage(corp_b, 300, 4, init=ck_a)
    acc_after, ppl_after = eval_mlm(ck_ab, eval_b, vocab, masking=masking, seed=11)

    def cls_data(drng, n):
        data = []
        for cls in drng.integers(0, 2, size=n):
            if cls == 1:
                i = int(drng.integers(0, 10))
                s = "".join(b_chars[(i + k) % 10] for k in range(6))
            else:
                while True:
                    s = "".join(b_chars[int(j)]
                                for j in drng.integers(0, 10, size=6))
                    rotations = ("".join(b_chars[(i + k) % 10] for k in range(6))
                                 for i in range(10))
                    if s not in rotations:
                        break
            data.append((s, int(cls)))
        return data

    def transform_pairs(drng, n):
        pairs = []
        for _ in range(n):
            toks = [b_chars[int(j)] for j in drng.integers(0, 10, size=5)]
            succ = [b_chars[(b_chars.index(t) + 1) % 10] for t in toks]
            pairs.append(ParallelExample(toks, succ, "AMCT"))
        return pairs

    drng = np.random.default_rng(5)
    cls_train, cls_dev = cls_data(drng, 64), cls_data(drng, 32)
    gen_train, gen_dev = transform_pairs(drng, 60), transform_pairs(drng, 12)
    random_encoder = build_model(mcfg, init_seed=77)

    comparisons = []
    for seed in (0, 1, 2):
        ccfg = ClsTaskConfig(num_classes=2, batch_size=8, learning_rate=5e-3,
                             epochs=10, dropout=0.0, max_len=8, seed=seed)
        _, h_pre = finetune_classifier(ck_ab, vocab, cls_train, cls_dev, ccfg)
        _, h_rnd = finetune_classifier(random_encoder, vocab, cls_train,
                                       cls_dev, ccfg)
        scfg = Seq2SeqTaskConfig(batch_size=10, decoder_layers=1,
                                 warmup_steps=40, epochs=20, bleu_n=2,
                                 max_len=8, max_decode_len=6, dropout=0.0,
                                 seed=seed)
        _, s_pre = finetune_seq2seq(ck_ab, vocab, gen_train, gen_dev, scfg)
        _, s_rnd = finetune_seq2seq(random_encoder, vocab, gen_train, gen_dev,
                                    scfg)
        comparisons.append((seed,
                            max(h[2] for h in h_pre), max(h[2] for h in h_rnd),
                            max(h[2] for h in s_pre), max(h[2] for h in s_rnd)))

    elapsed = time.time() - t0
    mlm_gain = acc_after > acc_before
    cls_ok = all(p >= r for _, p, r, _, _ in comparisons)
    gen_ok = all(p >= r for _, _, _, p, r in comparisons)
    ok = mlm_gain and cls_ok and gen_ok and elapsed < 900
    summary = "; ".join(f"seed {s}: cls {p:.2f}>={r:.2f}, gen {gp:.1f}>={gr:.1f}"
                        for s, p, r, gp, gr in comparisons)
    _report(5, "continued pretraining beats random init on a new domain", ok,
            f"masked acc {acc_before:.3f}->{acc_after:.3f} "
            f"(ppl {ppl_after:.2f}); {summary}; {elapsed:.0f}s (cap 900s)")


def test_06_copy_task_reaches_high_bleu():
    t0 = time.time()
    pool = HANZI[:10]
    vocab = build_vocab(pool)
    mcfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=32,
                       num_heads=4, ff_size=64, max_positions=12,
                       dropout_rate=0.0)
    encoder = build_model(mcfg, init_seed=0)
    rng = np.random.default_rng(7)
    pairs = []
    for _ in range(50):
        n = int(rng.integers(4, 7))
        toks = [pool[int(i)] for i in rng.integers(0, 10, size=n)]
        pairs.append(ParallelExample(list(toks), list(toks), "AMCT"))
    cfg = Seq2SeqTaskConfig(batch_size=10, decoder_layers=1,
                            warmup_steps=50, epochs=45, bleu_n=4, max_len=10,
                            max_decode_len=8, dropout=0.0, seed=2)
    _, history = finetune_seq2seq(encoder, vocab, pairs, pairs, cfg)
    best = max(h[2] for h in history)
    elapsed = time.time() - t0
    ok = best > 95.0 and elapsed < 120
    _report(6, "seq2seq memorizes a 50-pair copy task", ok,
            f"greedy BLEU-4 {best:.2f} (needs >95) in {elapsed:.0f}s (cap 120s)")


def _oracle_bleu(cands, refs, max_n):
    matches = [0] * max_n
    totals = [0] * max_n
    clen = rlen = 0
    for cand, ref in zip(cands, refs):
        clen += len(cand)
        rlen += len(ref)
        for n in range(1, max_n + 1):
            cg: dict = {}
            for i in range(len(cand) - n + 1):
                g = tuple(cand[i : i + n])
                cg[g] = cg.get(g, 0) + 1
            rg: dict = {}
            for i in range(len(ref) - n + 1):
                g = tuple(ref[i : i + n])
                rg[g] = rg.get(g, 0) + 1
            totals[n - 1] += sum(cg.values())
            matches[n - 1] += sum(min(v, rg.get(g, 0)) for g, v in cg.items())
    if clen == 0 or matches[0] == 0:
        return 0.0
    bp = 1.0 if clen >= rlen else math.exp(1.0 - rlen / clen)
    logs = []
    for n in range(1, max_n + 1):
        m, t = matches[n - 1], totals[n - 1]
        if t == 0:
            continue
        p = (m + 1) / (t + 1) if (m == 0 and n >= 2) else m / t
        if p == 0.0:
            return 0.0
        logs.append(math.log(p))
    return 100.0 * bp * math.exp(sum(logs) / len(logs))


def test_07_bleu_agrees_with_brute_force():
    hand = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "e"]], max_n=2).score
    hand_ok = abs(hand - 70.71) <= 0.01
    rng = np.random.default_rng(42)
    alphabet = list("abcdef")
    worst = 0.0
    for _ in range(1000):
        max_n = int(rng.integers(1, 5))
        cands, refs = [], []
        for _ in range(int(rng.integers(1, 5))):
            cands.append([alphabet[i] for i in
                          rng.integers(0, 6, size=int(rng.integers(0, 9)))])
            refs.append([alphabet[i] for i in
                         rng.integers(0, 6, size=int(rng.integers(1, 9)))])
        got = bleu(cands, refs, max_n=max_n).score
        worst = max(worst, abs(got - _oracle_bleu(cands, refs, max_n)))
    ok = hand_ok and worst <= 1e-9
    _report(7, "BLEU matches an independent reference implementation", ok,
            f"hand case {hand:.2f} (want 70.71±0.01), max |diff| {worst:.2e} "
            "over 1000 random corpora (tol 1e-9)")


def _cached_random_step(rng, vocab_size):
    cache = {}

    def step(prefix):
        key = tuple(prefix)
        if key not in cache:
            logits = rng.standard_normal(vocab_size)
            cache[key] = logits - math.log(float(np.exp(logits).sum()))
        return cache[key]

    return step


def _enumerate_best(step_fn, eos_id, max_len, vocab_size):
    best = (-math.inf, None)

    def rec(prefix, score):
        nonlocal best
        logprobs = step_fn(prefix)
        done = score + float(logprobs[eos_id])
        if done > best[0]:
            best = (done, list(prefix))
        if len(prefix) < max_len - 1:
            for tok in range(vocab_size):
                if tok != eos_id:
                    rec(prefix + [tok], score + float(logprobs[tok]))

    rec([], 0.0)
    return best[1], best[0]


def test_08_beam_search_is_exact_when_exhaustive():
    vocab_size, max_len = 3, 3
    rng = np.random.default_rng(7)
    enum_fail = greedy_fail = 0
    for _ in range(100):
        step = _cached_random_step(rng, vocab_size)
        want_tokens, want_score = _enumerate_best(step, 0, max_len, vocab_size)
        got_tokens, got_score = beam_from_step(batched(step), 0, max_len,
                                               vocab_size ** max_len)
        if got_tokens != want_tokens or abs(got_score - want_score) > 1e-12:
            enum_fail += 1
    rng2 = np.random.default_rng(11)
    for _ in range(100):
        step = _cached_random_step(rng2, 4)
        want = argmax_from_step(by_prefix(batched(step)), 0, 5)
        if (beam_from_step(batched(step), 0, 5, 1)[0] != want
                or greedy_from_step(batched(step), 0, 5) != want):
            greedy_fail += 1
    ok = enum_fail == 0 and greedy_fail == 0
    _report(8, "exhaustive beam equals enumeration; beam 1 and greedy equal argmax", ok,
            f"{enum_fail}/100 enumeration mismatches, "
            f"{greedy_fail}/100 greedy mismatches")


def test_09_checkpoint_round_trip_and_corruption(tmp_path):
    vocab = build_vocab(HANZI[:12])
    cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=16,
                      num_heads=2, ff_size=32, max_positions=10,
                      dropout_rate=0.0, decoder_layers=1)
    ckpt = build_model(cfg, init_seed=3)
    ensure_mlm_head(ckpt, init_seed=4)
    first = tmp_path / "a.ckpt"
    second = tmp_path / "b.ckpt"
    save_checkpoint(ckpt, first)
    save_checkpoint(load_checkpoint(first), second)
    identical = first.read_bytes() == second.read_bytes()

    blob = first.read_bytes()
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[: len(blob) // 2])
    trunc_rejected = False
    try:
        load_checkpoint(truncated)
    except CheckpointError:
        trunc_rejected = True

    corrupt = tmp_path / "magic.ckpt"
    corrupt.write_bytes(b"XXXX" + blob[4:])
    magic_rejected = False
    try:
        load_checkpoint(corrupt)
    except CheckpointError:
        magic_rejected = True

    ok = identical and trunc_rejected and magic_rejected
    _report(9, "checkpoints round-trip byte for byte and reject corruption", ok,
            f"save-load-save identical={identical}, truncation rejected="
            f"{trunc_rejected}, bad magic rejected={magic_rejected}")


def test_10_pipeline_reruns_byte_identically(tmp_path):
    from inkstone.cli import main as cli_main

    t0 = time.time()
    b_chars = HANZI[10:20]
    rng = np.random.default_rng(0)
    docs = _domain_sentences(b_chars, rng, 40)
    (tmp_path / "raw.txt").write_text("\n\n".join(docs) + "\n", encoding="utf-8")
    pair_lines = []
    prompts = []
    refs = []
    for _ in range(8):
        toks = [b_chars[int(j)] for j in rng.integers(0, 10, size=4)]
        succ = [b_chars[(b_chars.index(t) + 1) % 10] for t in toks]
        pair_lines.append("".join(toks) + "\t" + "".join(succ))
        prompts.append("".join(toks))
        refs.append("".join(succ))
    (tmp_path / "pairs.tsv").write_text("\n".join(pair_lines) + "\n",
                                        encoding="utf-8")
    (tmp_path / "prompts.txt").write_text("\n".join(prompts) + "\n",
                                          encoding="utf-8")
    (tmp_path / "refs.txt").write_text("\n".join(refs) + "\n", encoding="utf-8")

    p = lambda name: str(tmp_path / name)
    stages = {"stages": [
        {"argv": ["preprocess", "--input", p("raw.txt"),
                  "--output", p("clean.txt")]},
        {"argv": ["build-vocab", "--input", p("clean.txt"),
                  "--output", p("vocab.txt")]},
        {"argv": ["pretrain", "--corpus", p("clean.txt"), "--vocab",
                  p("vocab.txt"), "--output", p("pre"), "--layers", "1",
                  "--hidden", "32", "--heads", "4", "--ff", "64",
                  "--max-positions", "12", "--dropout", "0",
                  "--batch-size", "8", "--max-steps", "30", "--max-len", "10",
                  "--lr", "2e-3", "--seed", "5"]},
        {"argv": ["finetune", "--task", "AMCT", "--init", p("pre/final.ckpt"),
                  "--vocab", p("vocab.txt"), "--train", p("pairs.tsv"),
                  "--dev", p("pairs.tsv"), "--output", p("ft"),
                  "--epochs", "2", "--batch-size", "4", "--dropout", "0",
                  "--decoder-layers", "1", "--warmup-steps", "20",
                  "--max-len", "10", "--max-decode-len", "6", "--bleu-n", "2",
                  "--seed", "1"]},
        {"argv": ["generate", "--checkpoint", p("ft/best.ckpt"), "--vocab",
                  p("vocab.txt"), "--input", p("prompts.txt"),
                  "--output", p("gen.txt"), "--max-decode-len", "6"]},
        {"argv": ["score", "--metric", "bleu", "--candidates", p("gen.txt"),
                  "--references", p("refs.txt"), "--max-n", "2",
                  "--output", p("report.json")]},
    ]}
    manifest = tmp_path / "pipeline.json"
    manifest.write_text(json.dumps(stages), encoding="utf-8")

    code_first = cli_main(["reproduce", "--manifest", str(manifest)])
    first = ((tmp_path / "report.json").read_bytes(),
             (tmp_path / "gen.txt").read_bytes(),
             (tmp_path / "ft" / "metrics.tsv").read_bytes())
    code_second = cli_main(["reproduce", "--manifest", str(manifest)])
    second = ((tmp_path / "report.json").read_bytes(),
              (tmp_path / "gen.txt").read_bytes(),
              (tmp_path / "ft" / "metrics.tsv").read_bytes())
    elapsed = time.time() - t0
    ok = code_first == 0 and code_second == 0 and first == second
    score = json.loads(first[0])["score"]
    _report(10, "manifest-driven pipeline reruns byte-identically", ok,
            f"exit codes {code_first}/{code_second}, report+generations+metrics "
            f"identical={first == second}, BLEU {score:.2f}, {elapsed:.0f}s")


def test_11_blinded_sheets_and_published_average(tmp_path):
    items = [EvalItem(system=f"sys{s}", task="AMCT", item_id=f"i{i:03d}",
                      prompt=f"prompt {i}", output=f"output {s}-{i}")
             for s in range(3) for i in range(20)]
    sheets, key = make_eval_sheets(items, 10, tmp_path / "sheets", seed=3)
    sheet_rows_ok = len(sheets) == 10
    key_lines = (key.read_text(encoding="utf-8").splitlines())
    joins = set()
    for line in key_lines[1:]:
        sheet_name, row_id = line.split("\t")[:2]
        joins.add((sheet_name, row_id))
    for path in sheets:
        rows = [ln for ln in path.read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")][1:]
        sheet_rows_ok = sheet_rows_ok and len(rows) == 60
        for row in rows:
            if (path.name, row.split("\t")[0]) not in joins:
                sheet_rows_ok = False

    cells = {
        ("AMCT", "fluency"): 0.71, ("AMCT", "adequacy"): 0.62,
        ("CPG22", "fluency"): 0.73, ("CPG22", "adequacy"): 0.65,
        ("CPG13", "fluency"): 0.69, ("CPG13", "adequacy"): 0.55,
        ("CCG", "fluency"): 0.65, ("CCG", "adequacy"): 0.63,
    }
    sheet = tmp_path / "filled" / "sheet_01.tsv"
    sheet.parent.mkdir()
    filled_key = tmp_path / "filled" / "key.tsv"
    sheet_lines = ["row_id\ttask\tprompt\toutput\tfluency\tadequacy"]
    key_rows = ["sheet\trow_id\tsystem\ttask\titem_id"]
    row_id = 0
    for task in ("AMCT", "CPG22", "CPG13", "CCG"):
        n_flu = round(100 * cells[(task, "fluency")])
        n_ade = round(100 * cells[(task, "adequacy")])
        for i in range(100):
            row_id += 1
            sheet_lines.append(f"{row_id}\t{task}\tp\to\t"
                               f"{1 if i < n_flu else 0}\t{1 if i < n_ade else 0}")
            key_rows.append(f"sheet_01.tsv\t{row_id}\tanchi\t{task}\ti{row_id}")
    sheet.write_text("\n".join(sheet_lines) + "\n", encoding="utf-8")
    filled_key.write_text("\n".join(key_rows) + "\n", encoding="utf-8")
    report = aggregate_sheets([sheet], filled_key)
    overall = report.overall["anchi"]
    avg_ok = abs(overall - 0.65375) <= 1e-12 and f"{overall:.2f}" == "0.65"

    ok = sheet_rows_ok and avg_ok
    _report(11, "blinded sheets join cleanly and reproduce the 0.65 average", ok,
            f"10 sheets x 60 rows joined={sheet_rows_ok}, grand mean "
            f"{overall:.5f} prints {overall:.2f} (want 0.65)")

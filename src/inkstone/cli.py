"""Command-line interface.

Every successful run writes a run_manifest.json next to its outputs
recording the exact subcommand argv (no timestamps), and `reproduce`
replays a manifest, so any result can be regenerated byte for byte.

Exit codes: 0 success, 1 usage, 2 data problems, 3 unexpected failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DataError

# finetune's task options in flag order, each the flag --name-with-dashes. The ones
# given go to finetune.run_task, which rejects those the task does not take. They
# are listed here, not read from finetune's configs, so --help imports no finetune.
FINETUNE_OPTIONS = {
    "epochs": int, "batch_size": int, "seed": int, "dropout": float, "max_len": int,
    "num_classes": int, "learning_rate": float, "decoder_layers": int,
    "warmup_steps": int, "bleu_n": int, "max_decode_len": int,
}


def _write_manifest(location, command: str, argv, args: argparse.Namespace) -> None:
    location = Path(location)
    out_dir = location if location.is_dir() else location.parent
    plain = {k: (str(v) if isinstance(v, Path) else v)
             for k, v in vars(args).items() if k != "func"}
    payload = {"command": command, "argv": list(argv), "args": plain}
    path = out_dir / "run_manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, sort_keys=True, ensure_ascii=False, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_preprocess(args) -> int:
    from .corpus import (clean_text, load_t2s_table, parse_document, read_blocks,
                         strip_title, to_simplified)

    table = load_t2s_table(args.t2s) if args.t2s else None
    blocks = read_blocks(args.input)
    if args.strip_titles:
        blocks = [strip_title(parse_document(b, args.kind)) for b in blocks]
    cleaned = []
    for block in blocks:
        text = clean_text(block, blacklist=args.blacklist)
        if table:
            text = to_simplified(text, table)
        if text:
            cleaned.append(text)
    if not cleaned:
        raise DataError(f"{args.input}: nothing left after cleaning")
    with open(args.output, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n\n".join(cleaned) + "\n")
    print(f"wrote {len(cleaned)} documents to {args.output}")
    return 0


def cmd_build_vocab(args) -> int:
    from .vocab import build_vocab, save_vocab

    def lines():
        # one line at a time: the tokenizer works per character, so the vocab is the same
        for path in args.input:
            with open(path, encoding="utf-8") as f:
                yield from f

    vocab = build_vocab(lines())
    save_vocab(vocab, args.output)
    print(f"wrote {len(vocab)} tokens to {args.output}")
    return 0


def cmd_stats(args) -> int:
    from .corpus import corpus_stats, load_documents

    docs = []
    for spec in args.input:
        kind, _, path = spec.partition("=")
        if not path:
            raise DataError(f"--input needs KIND=PATH, got {spec!r}")
        docs.extend(load_documents(path, kind=kind))
    report = corpus_stats(docs).to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(report)
    print(report, end="")
    return 0


def cmd_pretrain(args) -> int:
    from dataclasses import replace

    from .corpus import read_blocks
    from .model import ModelConfig, load_checkpoint
    from .pretrain import MaskingConfig, PretrainConfig, pretrain
    from .vocab import load_vocab

    vocab = load_vocab(args.vocab)
    init = load_checkpoint(args.init) if args.init else None
    if init is not None:
        # the shape comes from the checkpoint, dropout from the command line
        model_cfg = replace(init.config, dropout_rate=args.dropout)
    else:
        model_cfg = ModelConfig(
            vocab_size=len(vocab), num_layers=args.layers,
            hidden_size=args.hidden, num_heads=args.heads, ff_size=args.ff,
            max_positions=args.max_positions, dropout_rate=args.dropout,
        )
    cfg = PretrainConfig(
        learning_rate=args.lr, weight_decay=args.weight_decay,
        batch_size=args.batch_size, max_steps=args.max_steps,
        max_len=args.max_len, seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        masking=MaskingConfig(select_prob=args.select_prob),
    )
    texts = read_blocks(args.corpus)
    out_dir = Path(args.output)
    ckpt = pretrain(texts, vocab, model_cfg, cfg, init=init, out_dir=out_dir)
    print(f"finished at step {ckpt.step}; checkpoint in {out_dir}")
    return 0


def cmd_finetune(args) -> int:
    from .corpus import load_labeled_tsv, load_parallel_tsv
    from .finetune import run_task
    from .model import load_checkpoint, save_checkpoint
    from .vocab import load_vocab

    vocab = load_vocab(args.vocab)
    encoder = load_checkpoint(args.init)
    overrides = {key: value for key in FINETUNE_OPTIONS
                 if (value := getattr(args, key)) is not None}
    if args.task == "PTC":
        train = load_labeled_tsv(args.train)
        dev = load_labeled_tsv(args.dev)
    else:
        train = load_parallel_tsv(args.train, args.task)
        dev = load_parallel_tsv(args.dev, args.task)
    out_dir = Path(args.output)
    ckpt, history = run_task(args.task, encoder, vocab, train, dev,
                             out_dir=out_dir, **overrides)
    save_checkpoint(ckpt, out_dir / "best.ckpt")
    best = max(h[2] for h in history)
    print(f"best dev score {best:.4f} at epoch {ckpt.step}; outputs in {out_dir}")
    return 0


def cmd_generate(args) -> int:
    from .decode import DecodeConfig, decode_file
    from .model import load_checkpoint
    from .vocab import load_vocab

    vocab = load_vocab(args.vocab)
    ckpt = load_checkpoint(args.checkpoint)
    cfg = DecodeConfig(strategy=args.strategy, beam_size=args.beam_size,
                       max_decode_len=args.max_decode_len,
                       length_penalty=args.length_penalty)
    n = decode_file(ckpt, vocab, args.input, args.output, cfg)
    print(f"generated {n} lines to {args.output}")
    return 0


def cmd_score(args) -> int:
    from .corpus import read_lines
    from .evaluate import accuracy, bleu
    from .vocab import tokenize

    if args.metric == "bleu":
        if not args.candidates or not args.references:
            raise DataError("--metric bleu needs --candidates and --references")
        cands = [tokenize(ln) for ln in read_lines(args.candidates)]
        refs = [tokenize(ln) for ln in read_lines(args.references)]
        report = bleu(cands, refs, max_n=args.max_n)
        if args.output:
            with open(args.output, "w", encoding="utf-8", newline="\n") as f:
                f.write(report.to_json() + "\n")
        print(f"{report.score:.2f}")
    else:
        if not args.predictions or not args.labels:
            raise DataError("--metric accuracy needs --predictions and --labels")
        preds, labels = [], []
        for path, ints in ((args.predictions, preds), (args.labels, labels)):
            for lineno, line in enumerate(read_lines(path), start=1):
                try:
                    ints.append(int(line))
                except ValueError:
                    raise DataError(f"{path}: line {lineno} is not an integer: {line!r}") from None
        value = accuracy(preds, labels)
        if args.output:
            payload = json.dumps({"accuracy": value}, sort_keys=True)
            with open(args.output, "w", encoding="utf-8", newline="\n") as f:
                f.write(payload + "\n")
        print(f"{value:.4f}")
    return 0


def cmd_eval_sheets(args) -> int:
    from .corpus import read_lines
    from .evaluate import EvalItem, make_eval_sheets

    prompts = read_lines(args.prompts)
    items = []
    for spec in args.outputs:
        name, _, path = spec.partition("=")
        if not path:
            raise DataError(f"--outputs needs NAME=PATH, got {spec!r}")
        lines = read_lines(path)
        if len(lines) != len(prompts):
            raise DataError(
                f"{path}: {len(lines)} outputs but {len(prompts)} prompts")
        for i, (prompt, output) in enumerate(zip(prompts, lines)):
            items.append(EvalItem(system=name, task=args.task,
                                  item_id=f"{i:04d}", prompt=prompt,
                                  output=output))
    sheets, key = make_eval_sheets(items, args.evaluators, args.output,
                                   items_per_system=args.items_per_system,
                                   seed=args.seed)
    print(f"wrote {len(sheets)} sheets and {key.name} to {args.output}")
    return 0


def cmd_aggregate(args) -> int:
    from .evaluate import aggregate_sheets

    report = aggregate_sheets(args.sheets, args.key)
    text = report.to_json() + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    print(text, end="")
    return 0


def cmd_reproduce(args) -> int:
    with open(args.manifest, encoding="utf-8") as f:
        try:
            manifest = json.load(f)
        except json.JSONDecodeError as e:
            raise DataError(f"{args.manifest}: not valid JSON ({e})") from e
    stages = manifest.get("stages", [manifest]) if isinstance(manifest, dict) else None
    if not isinstance(stages, list) or not all(isinstance(s, dict) for s in stages):
        raise DataError(f"{args.manifest}: a manifest is an object whose 'stages', "
                        "if present, is a list of objects")
    for i, stage in enumerate(stages, start=1):
        argv = stage.get("argv")
        if not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
            raise DataError(f"stage {i}: manifest needs an 'argv' list of strings")
        print(f"reproduce stage {i}/{len(stages)}: {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            print(f"stage {i} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inkstone",
        description="Classical Chinese language model toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="clean raw corpus files")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--t2s", help="traditional-to-simplified TSV table")
    p.add_argument("--strip-titles", action="store_true")
    p.add_argument("--kind", default="article",
                   choices=("article", "poem", "couplet"))
    p.add_argument("--blacklist", default="")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-vocab", help="build a character vocabulary")
    p.add_argument("--input", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("stats", help="corpus size report")
    p.add_argument("--input", nargs="+", required=True, metavar="KIND=PATH")
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", help="masked language model training")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--init", help="checkpoint to continue from")
    p.add_argument("--layers", type=int, default=12)
    p.add_argument("--hidden", type=int, default=768)
    p.add_argument("--heads", type=int, default=12)
    p.add_argument("--ff", type=int, default=0)
    p.add_argument("--max-positions", type=int, default=512)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--weight-decay", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=15)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--max-len", type=int, default=512)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--select-prob", type=float, default=0.15)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="train a downstream task")
    p.add_argument("--task", required=True,
                   choices=("PTC", "AMCT", "CPG22", "CPG13", "CCG"))
    p.add_argument("--init", required=True, help="encoder checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--output", required=True)
    for name, kind in FINETUNE_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("generate", help="decode a file of prompts")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--strategy", default="greedy", choices=("greedy", "beam"))
    p.add_argument("--beam-size", type=int, default=4)
    p.add_argument("--max-decode-len", type=int, default=64)
    p.add_argument("--length-penalty", type=float, default=0.0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("score", help="automatic metrics")
    p.add_argument("--metric", required=True, choices=("bleu", "accuracy"))
    p.add_argument("--candidates")
    p.add_argument("--references")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--predictions")
    p.add_argument("--labels")
    p.add_argument("--output")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval-sheets", help="blinded human evaluation sheets")
    p.add_argument("--outputs", nargs="+", required=True, metavar="NAME=PATH")
    p.add_argument("--prompts", required=True)
    p.add_argument("--task", required=True)
    p.add_argument("--evaluators", type=int, required=True)
    p.add_argument("--items-per-system", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_eval_sheets)

    p = sub.add_parser("aggregate", help="average filled evaluation sheets")
    p.add_argument("--sheets", nargs="+", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("reproduce", help="replay a run manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        code = args.func(args)
        if code == 0 and getattr(args, "output", None):
            _write_manifest(args.output, args.command, argv, args)
        return code
    except (DataError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, UnicodeDecodeError) as e:
        # what the user can fix: a bad path or a non-UTF-8 file; a bare ValueError is a bug (exit 3)
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # anything unplanned
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())

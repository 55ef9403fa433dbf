import json

import pytest

from inkstone import tensor as T
from inkstone.cli import main
from inkstone.model import load_checkpoint

HANZI = [chr(c) for c in range(0x4E00, 0x4E00 + 12)]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def save_tiny_encoder(d):
    """Write vocab.txt over HANZI and an untrained encoder m.ckpt into d."""
    from inkstone import model, vocab

    v = vocab.build_vocab(HANZI)
    vocab.save_vocab(v, d / "vocab.txt")
    cfg = model.ModelConfig(vocab_size=len(v), num_layers=1, hidden_size=8,
                            num_heads=2, max_positions=16)
    model.save_checkpoint(model.build_model(cfg), d / "m.ckpt")


@pytest.fixture()
def workspace(tmp_path):
    docs = []
    for d in range(6):
        chars = "".join(HANZI[(d + i) % 12] for i in range(8))
        docs.append(f"{chars}\n{chars[::-1]}")
    raw = write(tmp_path / "raw.txt", "\n\n".join(docs) + "\n")
    pairs = []
    for i in range(4):
        src = "".join(HANZI[(i + j) % 12] for j in range(3))
        pairs.append(f"{src}\t{src}")
    train = write(tmp_path / "train.tsv", "\n".join(pairs) + "\n")
    return {"dir": tmp_path, "raw": raw, "train": train}


class TestExitCodes:
    def test_help_is_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_argument_is_usage_error(self):
        assert main(["build-vocab", "--output", "x.txt"]) == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["build-vocab", "--input", str(tmp_path / "nope.txt"),
                     "--output", str(tmp_path / "v.txt")]) == 2

    def test_bad_metric_arguments_are_data_errors(self, tmp_path):
        assert main(["score", "--metric", "bleu"]) == 2

    def test_bare_value_error_inside_the_library_is_internal(self, workspace, monkeypatch):
        import inkstone.vocab

        def broken(tokens):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(inkstone.vocab, "build_vocab", broken)
        assert main(["build-vocab", "--input", workspace["raw"],
                     "--output", str(workspace["dir"] / "v.txt")]) == 3

    def test_non_utf8_input_is_data_error(self, tmp_path):
        (tmp_path / "raw.txt").write_bytes("春眠".encode("gbk"))
        assert main(["build-vocab", "--input", str(tmp_path / "raw.txt"),
                     "--output", str(tmp_path / "v.txt")]) == 2

    def test_prompt_outside_the_checkpoint_vocab_is_data_error(self, tmp_path, capsys):
        from inkstone import model, vocab

        small = vocab.build_vocab(HANZI[:4])
        cfg = model.ModelConfig(vocab_size=len(small), num_layers=1, hidden_size=8,
                                num_heads=2, max_positions=16, decoder_layers=1)
        model.save_checkpoint(model.build_model(cfg), tmp_path / "m.ckpt")
        vocab.save_vocab(vocab.build_vocab(HANZI), tmp_path / "vocab.txt")
        write(tmp_path / "prompts.txt", HANZI[-1] + "\n")
        assert main(["generate", "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--vocab", str(tmp_path / "vocab.txt"), "--input",
                     str(tmp_path / "prompts.txt"), "--output", str(tmp_path / "g.txt")]) == 2
        assert "token id out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("task, flag", [("AMCT", "--learning-rate"), ("AMCT", "--num-classes"),
                                            ("PTC", "--bleu-n")])
    def test_option_the_task_does_not_take_is_data_error(self, tmp_path, capsys, task, flag):
        save_tiny_encoder(tmp_path)
        data = write(tmp_path / "train.tsv", f"{HANZI[0]}{HANZI[1]}\t1\n")
        assert main(["finetune", "--task", task, "--init", str(tmp_path / "m.ckpt"),
                     "--vocab", str(tmp_path / "vocab.txt"), "--train", data, "--dev", data,
                     "--output", str(tmp_path / "ft"), flag, "3"]) == 2
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_directory_for_a_file_is_data_error(self, tmp_path, capsys):
        refs = write(tmp_path / "refs.txt", "春眠\n")
        assert main(["score", "--metric", "bleu", "--candidates", str(tmp_path),
                     "--references", refs]) == 2
        assert "internal" not in capsys.readouterr().err

    def test_malformed_dev_row_names_the_dev_file(self, workspace, capsys):
        d = workspace["dir"]
        save_tiny_encoder(d)
        bad = write(d / "dev.tsv", f"{HANZI[0]}\t{HANZI[1]}\n{HANZI[2]}\n")
        assert main(["finetune", "--task", "AMCT", "--init", str(d / "m.ckpt"),
                     "--vocab", str(d / "vocab.txt"), "--train", workspace["train"],
                     "--dev", bad, "--output", str(d / "ft")]) == 2
        assert f"{bad}: malformed parallel row 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("pretrain", "--seed", "-1"), ("pretrain", "--checkpoint-every", "-1"),
        ("pretrain", "--weight-decay", "-0.5"), ("finetune", "--seed", "-1"),
        ("eval-sheets", "--seed", "-1"), ("eval-sheets", "--items-per-system", "-1"),
    ])
    def test_negative_option_is_data_error(self, workspace, capsys, command, flag, value):
        d = workspace["dir"]
        save_tiny_encoder(d)
        prompts = write(d / "prompts.txt", "\n".join(HANZI[:4]) + "\n")
        argv = {
            "pretrain": tiny_pretrain_argv(workspace["raw"], str(d / "vocab.txt"), d / "pre",
                                           "--max-steps", "2"),
            "finetune": ["finetune", "--task", "AMCT", "--init", str(d / "m.ckpt"),
                         "--vocab", str(d / "vocab.txt"), "--train", workspace["train"],
                         "--dev", workspace["train"], "--output", str(d / "ft"),
                         "--epochs", "1", "--decoder-layers", "1", "--max-len", "8"],
            "eval-sheets": ["eval-sheets", "--outputs", f"a={prompts}", f"b={prompts}",
                            "--prompts", prompts, "--task", "AMCT", "--evaluators", "1",
                            "--output", str(d / "sheets")],
        }[command]
        assert main(argv + [flag, value]) == 2
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and "internal" not in err


    @pytest.mark.parametrize("command", ["pretrain", "finetune"])
    def test_rejected_config_leaves_no_output(self, workspace, command):
        # argparse accepts -1; only the config's own checks reject it
        d = workspace["dir"]
        save_tiny_encoder(d)
        out = d / "out"
        argv = {
            "pretrain": tiny_pretrain_argv(workspace["raw"], str(d / "vocab.txt"), out),
            "finetune": ["finetune", "--task", "AMCT", "--init", str(d / "m.ckpt"),
                         "--vocab", str(d / "vocab.txt"), "--train", workspace["train"],
                         "--dev", workspace["train"], "--output", str(out)],
        }[command]
        assert main(argv + ["--seed", "-1"]) == 2
        assert not out.exists()

    def test_config_is_rejected_before_any_input_is_read(self, workspace, capsys):
        d = workspace["dir"]
        save_tiny_encoder(d)
        argv = tiny_pretrain_argv(str(d / "no-corpus.txt"), str(d / "vocab.txt"), d / "pre")
        assert main(argv + ["--hidden", "64", "--heads", "5"]) == 2
        err = capsys.readouterr().err
        assert "hidden_size 64 not divisible by num_heads 5" in err
        assert "no-corpus" not in err and not (d / "pre").exists()


class TestPipeline:
    def test_full_flow(self, workspace, capsys):
        d = workspace["dir"]
        clean = d / "clean.txt"
        assert main(["preprocess", "--input", workspace["raw"],
                     "--output", str(clean)]) == 0
        assert clean.exists()
        assert (d / "run_manifest.json").exists()

        vocab = d / "vocab.txt"
        assert main(["build-vocab", "--input", str(clean),
                     "--output", str(vocab)]) == 0
        assert vocab.read_text(encoding="utf-8").startswith("[PAD]\n")

        stats = d / "stats.json"
        assert main(["stats", "--input", f"article={clean}",
                     "--output", str(stats)]) == 0
        report = json.loads(stats.read_text(encoding="utf-8"))
        assert report["total"]["documents"] == 6

        pre = d / "pre"
        assert main(["pretrain", "--corpus", str(clean), "--vocab", str(vocab),
                     "--output", str(pre), "--layers", "1", "--hidden", "16",
                     "--heads", "2", "--ff", "32", "--max-positions", "16",
                     "--dropout", "0", "--batch-size", "4", "--max-steps", "5",
                     "--max-len", "12", "--lr", "1e-3"]) == 0
        final = pre / "final.ckpt"
        assert final.exists()
        assert (pre / "train.log").exists()
        manifest = json.loads((pre / "run_manifest.json").read_text(encoding="utf-8"))
        assert manifest["command"] == "pretrain"
        assert isinstance(manifest["argv"], list)
        assert "timestamp" not in manifest

        ft = d / "ft"
        assert main(["finetune", "--task", "AMCT", "--init", str(final),
                     "--vocab", str(vocab), "--train", workspace["train"],
                     "--dev", workspace["train"], "--output", str(ft),
                     "--epochs", "1", "--batch-size", "2", "--dropout", "0",
                     "--decoder-layers", "1", "--warmup-steps", "10",
                     "--max-len", "10", "--max-decode-len", "4",
                     "--bleu-n", "2"]) == 0
        best = ft / "best.ckpt"
        assert best.exists()
        metrics = (ft / "metrics.tsv").read_text(encoding="utf-8").splitlines()
        assert metrics[0] == "epoch\ttrain_loss\tdev_bleu"

        prompts = write(d / "prompts.txt", "\n".join(
            "".join(HANZI[(i + j) % 12] for j in range(3)) for i in range(3)) + "\n")
        gen = d / "gen.txt"
        assert main(["generate", "--checkpoint", str(best), "--vocab", str(vocab),
                     "--input", prompts, "--output", str(gen),
                     "--max-decode-len", "4"]) == 0
        assert len(gen.read_text(encoding="utf-8").splitlines()) == 3

        report_path = d / "bleu.json"
        assert main(["score", "--metric", "bleu", "--candidates", prompts,
                     "--references", prompts, "--max-n", "2",
                     "--output", str(report_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()[-1]
        assert out == "100.00"
        assert json.loads(report_path.read_text(encoding="utf-8"))["score"] == 100.0

    def test_dev_bleu_is_the_score_of_the_generated_text(self, workspace):
        from inkstone import model, vocab

        d = workspace["dir"]
        v = vocab.build_vocab(HANZI)
        vocab.save_vocab(v, d / "vocab.txt")
        cfg = model.ModelConfig(vocab_size=len(v), num_layers=1, hidden_size=16,
                                num_heads=2, ff_size=32, max_positions=16)
        model.save_checkpoint(model.build_model(cfg, init_seed=1), d / "m.ckpt")
        rows = [f"{HANZI[i]}{HANZI[i + 1]}{HANZI[i + 2]}\t{HANZI[i + 3]}{HANZI[i + 2]}"
                for i in range(6)]
        dev = write(d / "dev.tsv", "\n".join(rows) + "\n")
        prompts = write(d / "prompts.txt", "\n".join(r.split("\t")[0] for r in rows) + "\n")
        refs = write(d / "refs.txt", "\n".join(r.split("\t")[1] for r in rows) + "\n")
        ft = d / "ft"
        assert main(["finetune", "--task", "AMCT", "--init", str(d / "m.ckpt"),
                     "--vocab", str(d / "vocab.txt"), "--train", dev, "--dev", dev,
                     "--output", str(ft), "--epochs", "3", "--batch-size", "2",
                     "--dropout", "0", "--decoder-layers", "1", "--warmup-steps", "4",
                     "--max-len", "8", "--max-decode-len", "5", "--bleu-n", "2"]) == 0
        assert main(["generate", "--checkpoint", str(ft / "best.ckpt"),
                     "--vocab", str(d / "vocab.txt"), "--input", prompts,
                     "--output", str(d / "gen.txt"), "--max-decode-len", "5"]) == 0
        assert main(["score", "--metric", "bleu", "--candidates", str(d / "gen.txt"),
                     "--references", refs, "--max-n", "2",
                     "--output", str(d / "bleu.json")]) == 0
        metrics = (ft / "metrics.tsv").read_text(encoding="utf-8").splitlines()[1:]
        best = max((ln.split("\t")[2] for ln in metrics), key=float)
        score = json.loads((d / "bleu.json").read_text(encoding="utf-8"))["score"]
        assert f"{score:.4f}" == best

    def test_accuracy_scoring(self, tmp_path, capsys):
        preds = write(tmp_path / "p.txt", "1\n0\n1\n1\n")
        labels = write(tmp_path / "l.txt", "1\n0\n0\n1\n")
        assert main(["score", "--metric", "accuracy", "--predictions", preds,
                     "--labels", labels]) == 0
        assert capsys.readouterr().out.strip() == "0.7500"

    @pytest.mark.parametrize("bad", ["1\nx\n1\n", "1\n\n1\n"], ids=["word", "blank"])
    def test_non_integer_accuracy_line_is_data_error(self, tmp_path, capsys, bad):
        preds = write(tmp_path / "p.txt", "1\n0\n1\n")
        labels = write(tmp_path / "l.txt", bad)
        assert main(["score", "--metric", "accuracy", "--predictions", preds,
                     "--labels", labels]) == 2
        err = capsys.readouterr().err
        assert "l.txt: line 2 is not an integer" in err and "internal" not in err


class TestSheetsCommands:
    def test_sheets_then_aggregate_requires_scores(self, tmp_path):
        prompts = write(tmp_path / "prompts.txt", "\n".join(HANZI[:5]) + "\n")
        out_a = write(tmp_path / "a.txt", "\n".join(HANZI[5:10]) + "\n")
        out_b = write(tmp_path / "b.txt", "\n".join(HANZI[2:7]) + "\n")
        sheets_dir = tmp_path / "sheets"
        assert main(["eval-sheets", "--outputs", f"modelA={out_a}",
                     f"modelB={out_b}", "--prompts", prompts, "--task", "AMCT",
                     "--evaluators", "3", "--output", str(sheets_dir)]) == 0
        sheets = sorted(sheets_dir.glob("sheet_*.tsv"))
        assert len(sheets) == 3
        assert (sheets_dir / "key.tsv").exists()
        # unfilled sheets must be rejected, not silently scored
        assert main(["aggregate", "--sheets"] + [str(s) for s in sheets]
                    + ["--key", str(sheets_dir / "key.tsv")]) == 2

    def test_mismatched_output_counts_rejected(self, tmp_path):
        prompts = write(tmp_path / "prompts.txt", "\n".join(HANZI[:5]) + "\n")
        short = write(tmp_path / "short.txt", "\n".join(HANZI[:3]) + "\n")
        assert main(["eval-sheets", "--outputs", f"modelA={short}",
                     f"modelB={short}", "--prompts", prompts, "--task", "AMCT",
                     "--evaluators", "1", "--output", str(tmp_path / "s")]) == 2


class TestReproduce:
    def test_replays_stages_byte_identically(self, workspace):
        d = workspace["dir"]
        clean = d / "clean.txt"
        vocab = d / "vocab.txt"
        manifest = d / "pipeline.json"
        stages = {"stages": [
            {"argv": ["preprocess", "--input", workspace["raw"],
                      "--output", str(clean)]},
            {"argv": ["build-vocab", "--input", str(clean),
                      "--output", str(vocab)]},
        ]}
        write(manifest, json.dumps(stages))
        assert main(["reproduce", "--manifest", str(manifest)]) == 0
        first = (clean.read_bytes(), vocab.read_bytes())
        assert main(["reproduce", "--manifest", str(manifest)]) == 0
        assert (clean.read_bytes(), vocab.read_bytes()) == first

    def test_single_stage_manifest_from_run(self, workspace):
        d = workspace["dir"]
        clean = d / "clean.txt"
        assert main(["preprocess", "--input", workspace["raw"],
                     "--output", str(clean)]) == 0
        assert main(["reproduce", "--manifest",
                     str(d / "run_manifest.json")]) == 0

    def test_failing_stage_propagates_exit_code(self, tmp_path):
        manifest = tmp_path / "bad.json"
        write(manifest, json.dumps({"stages": [
            {"argv": ["build-vocab", "--input", str(tmp_path / "missing.txt"),
                      "--output", str(tmp_path / "v.txt")]}]}))
        assert main(["reproduce", "--manifest", str(manifest)]) == 2

    def test_invalid_manifest_rejected(self, tmp_path):
        bad = write(tmp_path / "bad.json", "not json")
        assert main(["reproduce", "--manifest", bad]) == 2
        noargv = write(tmp_path / "noargv.json", json.dumps({"stages": [{}]}))
        assert main(["reproduce", "--manifest", noargv]) == 2

    @pytest.mark.parametrize("manifest", [[{"argv": ["--help"]}], {"stages": "ab"},
                                          {"stages": ["ab"]}, "ab"],
                             ids=["list", "string-stages", "string-stage", "string"])
    def test_manifest_of_the_wrong_shape_is_data_error(self, tmp_path, capsys, manifest):
        path = write(tmp_path / "bad.json", json.dumps(manifest))
        assert main(["reproduce", "--manifest", path]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "internal" not in err


class TestManifest:
    def test_written_once_with_command_argv_and_args(self, workspace):
        d = workspace["dir"]
        vocab = d / "vocab.txt"
        argv = ["build-vocab", "--input", workspace["raw"], "--output", str(vocab)]
        assert main(argv) == 0
        want = {"command": "build-vocab", "argv": argv,
                "args": {"command": "build-vocab", "input": [workspace["raw"]],
                         "output": str(vocab)}}
        text = (d / "run_manifest.json").read_text(encoding="utf-8")
        assert text == json.dumps(want, sort_keys=True, ensure_ascii=False,
                                  indent=2) + "\n"

    def test_failed_subcommand_writes_none(self, tmp_path):
        empty = write(tmp_path / "empty.txt", "\n\n")
        assert main(["preprocess", "--input", empty,
                     "--output", str(tmp_path / "clean.txt")]) == 2
        assert main(["build-vocab", "--input", str(tmp_path / "missing.txt"),
                     "--output", str(tmp_path / "v.txt")]) == 2
        assert not (tmp_path / "run_manifest.json").exists()

    def test_stats_without_output_writes_none(self, workspace, monkeypatch):
        d = workspace["dir"]
        monkeypatch.chdir(d)
        assert main(["stats", "--input", f"article={workspace['raw']}"]) == 0
        assert not (d / "run_manifest.json").exists()


def tiny_pretrain_argv(corpus, vocab, output, *extra):
    return ["pretrain", "--corpus", corpus, "--vocab", vocab, "--output", str(output),
            "--layers", "1", "--hidden", "16", "--heads", "2", "--ff", "32",
            "--max-positions", "16", "--batch-size", "4", "--max-len", "12",
            "--lr", "1e-3", *extra]


class TestPretrainCommand:
    @pytest.fixture()
    def corpus(self, workspace):
        d = workspace["dir"]
        vocab = str(d / "vocab.txt")
        assert main(["build-vocab", "--input", workspace["raw"], "--output", vocab]) == 0
        return workspace["raw"], vocab

    def test_init_honours_dropout(self, workspace, corpus):
        d = workspace["dir"]
        assert main(tiny_pretrain_argv(*corpus, d / "a", "--max-steps", "2")) == 0
        assert load_checkpoint(d / "a" / "final.ckpt").config.dropout_rate == 0.1
        assert main(tiny_pretrain_argv(*corpus, d / "b", "--max-steps", "2", "--dropout", "0",
                                       "--init", str(d / "a" / "final.ckpt"))) == 0
        resumed = load_checkpoint(d / "b" / "final.ckpt")
        assert resumed.config.dropout_rate == 0.0
        assert resumed.step == 4

    def test_non_finite_loss_exits_2_after_the_last_good_step(self, workspace, corpus,
                                                              monkeypatch, capsys):
        d = workspace["dir"]
        calls = []
        real = T.cross_entropy_masked

        def nan_at_step_3(*args):
            calls.append(1)
            loss = real(*args)
            return T.scale(loss, float("nan")) if len(calls) == 3 else loss

        monkeypatch.setattr(T, "cross_entropy_masked", nan_at_step_3)
        out = d / "pre"
        assert main(tiny_pretrain_argv(*corpus, out, "--max-steps", "5",
                                       "--checkpoint-every", "1")) == 2
        assert "loss is nan" in capsys.readouterr().err
        steps = [ln.split("\t")[0] for ln in
                 (out / "train.log").read_text(encoding="utf-8").splitlines()]
        assert steps == ["1", "2"]
        assert sorted(p.name for p in out.glob("*.ckpt")) == ["step_1.ckpt", "step_2.ckpt"]
        assert not (out / "run_manifest.json").exists()


class TestPreprocessCommand:
    @pytest.mark.parametrize("strip_titles", [False, True])
    def test_whitespace_only_line_separates_documents(self, tmp_path, strip_titles):
        raw = write(tmp_path / "raw.txt", "题一\n山水风\n  \n题二\n花雪月\n")
        clean = tmp_path / "clean.txt"
        argv = ["preprocess", "--input", raw, "--output", str(clean)]
        assert main(argv + ["--strip-titles"] * strip_titles) == 0
        docs = clean.read_text(encoding="utf-8").rstrip("\n").split("\n\n")
        assert len(docs) == 2


class TestBuildVocabCommand:
    def test_streamed_files_give_the_vocab_of_their_texts(self, tmp_path):
        from inkstone import vocab

        texts = ["床前明月光\r\n疑是 地上霜\r\n\r\nAbc\r\n", "举头望明月\n低头思故乡 xyZ"]
        paths = []
        for i, text in enumerate(texts):
            (tmp_path / f"in{i}.txt").write_bytes(text.encode("utf-8"))
            paths.append(str(tmp_path / f"in{i}.txt"))
        out = tmp_path / "vocab.txt"
        assert main(["build-vocab", "--input", *paths, "--output", str(out)]) == 0
        vocab.save_vocab(vocab.build_vocab(texts), tmp_path / "want.txt")
        assert out.read_bytes() == (tmp_path / "want.txt").read_bytes()

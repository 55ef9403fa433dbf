"""Every workload once at tiny sizes, untraced and traced.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import math

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    workloads.MlmDesk: dict(layers=1, hidden=16, heads=2, max_len=16, batch=2,
                            vocab_chars=200, zipf_docs=3, chunks_per_doc=(1, 2)),
    workloads.FinetuneSmall: dict(layers=1, hidden=16, heads=2, vocab_chars=60,
                                  n_train=12, n_dev=3, epochs=1, max_decode_len=4),
    workloads.DecodeFile: dict(layers=1, hidden=16, heads=2, decoder_layers=1,
                               max_positions=20, vocab_chars=100, prompts_each=2,
                               short_len=(2, 3), long_len=(10, 12),
                               mix=(("greedy", 2), ("greedy", 4), ("greedy", 8),
                                    ("beam", 2), ("beam", 4))),
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    for cls, attrs in TINY.items():
        for k, v in attrs.items():
            monkeypatch.setattr(cls, k, v)
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_reports_every_metric(name, trace):
    record, summary = run.run(name, seed=3, seconds=0.0, trace=bool(trace))
    assert record["failures"] == {}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(summary["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = summary["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])


def test_trace_covers_the_traced_loop():
    _, summary = run.run("finetune-small", seed=3, seconds=0.0, trace=True)
    assert summary["metrics"]["trace.coverage"]["value"] > 0.9
    assert summary["metrics"]["decode.decoder_calls_per_token"]["value"] == 1.0


def test_gate_rejects_a_decode_that_is_not_greedy(monkeypatch):
    from inkstone import decode

    real = decode.greedy_decode

    def off_by_one(*args, **kwargs):
        return [(t + 1) % 50 + 5 for t in real(*args, **kwargs)]

    monkeypatch.setattr(decode, "greedy_decode", off_by_one)
    record, summary = run.run("decode-file", seed=3, seconds=0.0, trace=False)
    assert not summary["correct"] and summary["failed"] >= 1
    assert any("greedy token" in f for f in record["failures"].values())


def test_gate_rejects_a_wrong_beam_score(monkeypatch):
    from inkstone import decode

    real = decode.beam_search

    def shifted(*args, **kwargs):
        ids, score = real(*args, **kwargs)
        return ids, score + 0.01

    monkeypatch.setattr(decode, "beam_search", shifted)
    record, summary = run.run("decode-file", seed=3, seconds=0.0, trace=False)
    assert not summary["correct"]
    assert any("beam score" in f for f in record["failures"].values())


def test_inputs_repeat_for_a_seed(tmp_path):
    import inputs
    import numpy as np

    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        inputs.write_zipf_corpus(tmp_path / d / "c.txt", np.random.default_rng(5), 300, 2, 14, (1, 3))
    assert (tmp_path / "a" / "c.txt").read_bytes() == (tmp_path / "b" / "c.txt").read_bytes()

import json
import math

import numpy as np
import pytest

from inkstone.errors import DataError, SheetError
from inkstone.evaluate import (
    EvalItem,
    accuracy,
    aggregate_sheets,
    bleu,
    make_eval_sheets,
)


def oracle_bleu(cands, refs, max_n):
    """Slow reference: plain dicts, per-pair loops, clipped counts."""
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


class TestBleu:
    def test_hand_worked_bigram_case(self):
        # p1 = 3/4, p2 = 2/3, BP = 1 -> 100 * sqrt(1/2)
        report = bleu([["a", "b", "c", "d"]], [["a", "b", "c", "e"]], max_n=2)
        assert report.score == pytest.approx(70.710678, abs=1e-2)
        assert report.matches == [3, 2]
        assert report.totals == [4, 3]
        assert report.brevity_penalty == 1.0

    def test_smoothed_bigram_case(self):
        # p1 = 1/2, p2 smoothed to (0+1)/(1+1) -> 100 * sqrt(1/4)
        report = bleu([["a", "b"]], [["a", "c"]], max_n=2)
        assert report.score == pytest.approx(50.0, abs=1e-9)

    def test_perfect_match_scores_100(self):
        pairs = [["x", "y", "z", "w"], ["p", "q", "r", "s", "t"]]
        report = bleu(pairs, [list(p) for p in pairs], max_n=4)
        assert report.score == pytest.approx(100.0, abs=1e-9)

    def test_zero_unigram_overlap_scores_0(self):
        report = bleu([["a", "b"]], [["c", "d"]], max_n=4)
        assert report.score == 0.0

    def test_empty_candidate_scores_0(self):
        report = bleu([[]], [["a", "b"]], max_n=2)
        assert report.score == 0.0
        assert report.candidate_length == 0

    def test_brevity_penalty_applied(self):
        # cand shorter than ref: BP = exp(1 - 4/2), precisions all 1
        report = bleu([["a", "b"]], [["a", "b", "c", "d"]], max_n=2)
        assert report.brevity_penalty == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert report.score == pytest.approx(100.0 * math.exp(-1.0), abs=1e-9)

    def test_matches_oracle_on_random_corpora(self):
        rng = np.random.default_rng(42)
        alphabet = list("abcdef")
        for _ in range(1000):
            max_n = int(rng.integers(1, 5))
            pairs = int(rng.integers(1, 5))
            cands, refs = [], []
            for _ in range(pairs):
                cands.append([alphabet[i] for i in
                              rng.integers(0, 6, size=int(rng.integers(0, 9)))])
                refs.append([alphabet[i] for i in
                             rng.integers(0, 6, size=int(rng.integers(1, 9)))])
            got = bleu(cands, refs, max_n=max_n).score
            want = oracle_bleu(cands, refs, max_n)
            assert got == pytest.approx(want, abs=1e-9)

    def test_corpus_order_invariance(self):
        cands = [["a", "b", "c"], ["d", "e"], ["a", "a", "b"]]
        refs = [["a", "b", "d"], ["d", "e", "f"], ["a", "b", "b"]]
        forward = bleu(cands, refs, max_n=3).score
        backward = bleu(cands[::-1], refs[::-1], max_n=3).score
        assert forward == pytest.approx(backward, abs=1e-12)

    def test_clipping_limits_repeated_grams(self):
        # "the the the" against "the cat": unigram matches clip at 1
        report = bleu([["the", "the", "the"]], [["the", "cat"]], max_n=1)
        assert report.matches == [1]
        assert report.totals == [3]

    def test_report_json_round_trip(self):
        report = bleu([["a", "b"]], [["a", "b"]], max_n=2)
        data = json.loads(report.to_json())
        assert data["score"] == pytest.approx(100.0)
        assert data["pair_count"] == 1

    def test_input_validation(self):
        with pytest.raises(DataError):
            bleu([["a"]], [["a"], ["b"]], max_n=2)
        with pytest.raises(DataError):
            bleu([], [], max_n=2)
        with pytest.raises(DataError):
            bleu([["a"]], [["a"]], max_n=0)


class TestAccuracy:
    def test_basic(self):
        assert accuracy([1, 0, 1, 1], [1, 0, 0, 1]) == pytest.approx(0.75)

    def test_validation(self):
        with pytest.raises(DataError):
            accuracy([1], [1, 0])
        with pytest.raises(DataError):
            accuracy([], [])


def sample_items(num_systems=3, per_system=20):
    items = []
    for s in range(num_systems):
        for i in range(per_system):
            items.append(EvalItem(system=f"sys{s}", task="AMCT",
                                  item_id=f"item{i:03d}",
                                  prompt=f"prompt {i}",
                                  output=f"output {s}-{i}"))
    return items


class TestSheets:
    def test_shapes_and_blindness(self, tmp_path):
        sheets, key = make_eval_sheets(sample_items(), 10, tmp_path, seed=3)
        assert len(sheets) == 10
        for path in sheets:
            lines = path.read_text(encoding="utf-8").splitlines()
            rows = [ln for ln in lines if not ln.startswith("#")]
            assert rows[0].split("\t")[:4] == ["row_id", "task", "prompt", "output"]
            assert len(rows) - 1 == 60
            for row in rows[1:]:
                assert "sys" not in row  # system identity lives only in the key
        key_lines = key.read_text(encoding="utf-8").splitlines()
        assert len(key_lines) - 1 == 600

    def test_each_sheet_has_own_order_same_items(self, tmp_path):
        sheets, key = make_eval_sheets(sample_items(), 3, tmp_path, seed=1)
        contents = [p.read_text(encoding="utf-8") for p in sheets]
        assert len(set(contents)) == 3
        outputs = []
        for text in contents:
            rows = [ln for ln in text.splitlines()
                    if not ln.startswith("#")][1:]
            outputs.append(sorted(r.split("\t")[3] for r in rows))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_deterministic_given_seed(self, tmp_path):
        a, key_a = make_eval_sheets(sample_items(), 4, tmp_path / "a", seed=9)
        b, key_b = make_eval_sheets(sample_items(), 4, tmp_path / "b", seed=9)
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()
        assert key_a.read_bytes() == key_b.read_bytes()

    def test_sampling_and_errors(self, tmp_path):
        items = sample_items(per_system=5)
        sheets, _ = make_eval_sheets(items, 1, tmp_path / "s", items_per_system=3,
                                     seed=0)
        rows = [ln for ln in sheets[0].read_text(encoding="utf-8").splitlines()
                if not ln.startswith("#")]
        assert len(rows) - 1 == 9
        with pytest.raises(SheetError):
            make_eval_sheets(items, 0, tmp_path / "e1")
        with pytest.raises(SheetError):
            make_eval_sheets([], 2, tmp_path / "e2")
        with pytest.raises(SheetError):
            make_eval_sheets(items, 2, tmp_path / "e3", items_per_system=9)
        one_system = [it for it in items if it.system == "sys0"]
        with pytest.raises(SheetError):
            make_eval_sheets(one_system, 2, tmp_path / "e4")

    def test_tabs_and_newlines_sanitized(self, tmp_path):
        items = [
            EvalItem("sysA", "CCG", "i0", "line\nbreak", "tab\there"),
            EvalItem("sysB", "CCG", "i0", "plain", "plain"),
        ]
        sheets, _ = make_eval_sheets(items, 1, tmp_path, seed=0)
        text = sheets[0].read_text(encoding="utf-8")
        data_rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        for row in data_rows:
            assert len(row.split("\t")) == 6


def fill_sheets(sheet_paths, score_fn, key_path):
    """Fill blank sheets using score_fn(system, task, aspect) -> 0/1."""
    key = {}
    with open(key_path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        for line in f:
            row = dict(zip(header, line.rstrip("\n").split("\t")))
            key[(row["sheet"], row["row_id"])] = row
    for path in sheet_paths:
        lines = path.read_text(encoding="utf-8").splitlines()
        out = []
        for ln in lines:
            if ln.startswith("#") or ln.startswith("row_id\t"):
                out.append(ln)
                continue
            parts = ln.split("\t")
            ident = key[(path.name, parts[0])]
            parts[4] = str(score_fn(ident["system"], ident["task"], "fluency"))
            parts[5] = str(score_fn(ident["system"], ident["task"], "adequacy"))
            out.append("\t".join(parts))
        path.write_text("\n".join(out) + "\n", encoding="utf-8")


class TestAggregate:
    def test_round_trip_means(self, tmp_path):
        sheets, key = make_eval_sheets(sample_items(num_systems=2), 4, tmp_path,
                                       seed=5)
        rng = np.random.default_rng(8)
        votes: dict = {}

        def score_fn(system, task, aspect):
            v = int(rng.integers(0, 2))
            votes.setdefault((system, task, aspect), []).append(v)
            return v

        fill_sheets(sheets, score_fn, key)
        report = aggregate_sheets(sheets, key)
        for (system, task), cell in report.cells.items():
            for aspect in ("fluency", "adequacy"):
                want = float(np.mean(votes[(system, task, aspect)]))
                assert cell[aspect] == pytest.approx(want, abs=1e-12)
            assert cell["count"] == 80  # 20 items x 4 evaluators

    def test_overall_is_mean_of_task_aspect_cells(self, tmp_path):
        items = []
        for task in ("AMCT", "CCG"):
            for i in range(4):
                items.append(EvalItem("good", task, f"{task}{i}", "p", "o"))
                items.append(EvalItem("bad", task, f"{task}{i}", "p", "o"))
        sheets, key = make_eval_sheets(items, 2, tmp_path, seed=2)
        fill_sheets(sheets, lambda s, t, a: 1 if s == "good" else 0, key)
        report = aggregate_sheets(sheets, key)
        assert report.overall["good"] == pytest.approx(1.0)
        assert report.overall["bad"] == pytest.approx(0.0)

    def test_published_cells_average_to_two_decimal_0_65(self, tmp_path):
        # per-task fluency/adequacy means whose grand mean prints as 0.65
        cells = {
            ("AMCT", "fluency"): 0.71, ("AMCT", "adequacy"): 0.62,
            ("CPG22", "fluency"): 0.73, ("CPG22", "adequacy"): 0.65,
            ("CPG13", "fluency"): 0.69, ("CPG13", "adequacy"): 0.55,
            ("CCG", "fluency"): 0.65, ("CCG", "adequacy"): 0.63,
        }
        sheet = tmp_path / "sheet_01.tsv"
        key = tmp_path / "key.tsv"
        sheet_rows = ["row_id\ttask\tprompt\toutput\tfluency\tadequacy"]
        key_rows = ["sheet\trow_id\tsystem\ttask\titem_id"]
        row_id = 0
        for task in ("AMCT", "CPG22", "CPG13", "CCG"):
            n_flu = round(100 * cells[(task, "fluency")])
            n_ade = round(100 * cells[(task, "adequacy")])
            for i in range(100):
                row_id += 1
                flu = 1 if i < n_flu else 0
                ade = 1 if i < n_ade else 0
                sheet_rows.append(f"{row_id}\t{task}\tp\to\t{flu}\t{ade}")
                key_rows.append(f"sheet_01.tsv\t{row_id}\tanchi\t{task}\ti{row_id}")
        sheet.write_text("\n".join(sheet_rows) + "\n", encoding="utf-8")
        key.write_text("\n".join(key_rows) + "\n", encoding="utf-8")
        report = aggregate_sheets([sheet], key)
        for (system, task), cell in report.cells.items():
            assert cell["fluency"] == pytest.approx(cells[(task, "fluency")])
            assert cell["adequacy"] == pytest.approx(cells[(task, "adequacy")])
        assert report.overall["anchi"] == pytest.approx(0.65375, abs=1e-12)
        assert f"{report.overall['anchi']:.2f}" == "0.65"

    def test_bad_scores_rejected(self, tmp_path):
        sheets, key = make_eval_sheets(sample_items(num_systems=2, per_system=2),
                                       1, tmp_path, seed=0)
        fill_sheets(sheets, lambda s, t, a: 1, key)
        text = sheets[0].read_text(encoding="utf-8").replace("\t1\t1", "\t2\t1", 1)
        sheets[0].write_text(text, encoding="utf-8")
        with pytest.raises(SheetError, match="0 or 1"):
            aggregate_sheets(sheets, key)

    def test_unfilled_sheets_rejected(self, tmp_path):
        sheets, key = make_eval_sheets(sample_items(num_systems=2, per_system=2),
                                       1, tmp_path, seed=0)
        with pytest.raises(SheetError):
            aggregate_sheets(sheets, key)

    def test_row_missing_from_key_rejected(self, tmp_path):
        sheets, key = make_eval_sheets(sample_items(num_systems=2, per_system=2),
                                       1, tmp_path, seed=0)
        fill_sheets(sheets, lambda s, t, a: 0, key)
        renamed = sheets[0].with_name("sheet_99.tsv")
        sheets[0].rename(renamed)
        with pytest.raises(SheetError, match="missing from key"):
            aggregate_sheets([renamed], key)

    def test_repeated_rows_rejected(self, tmp_path):
        # a repeated row or sheet would be counted twice and skew the means
        sheets, key = make_eval_sheets(sample_items(num_systems=2, per_system=2),
                                       1, tmp_path, seed=0)
        fill_sheets(sheets, lambda s, t, a: 1, key)
        with pytest.raises(SheetError, match=f"{sheets[0].name} row 1 given more than once"):
            aggregate_sheets(sheets + sheets, key)
        lines = sheets[0].read_text(encoding="utf-8").splitlines()
        first = next(ln for ln in lines if ln.startswith("1\t"))
        sheets[0].write_text("\n".join(lines + [first]) + "\n", encoding="utf-8")
        with pytest.raises(SheetError, match="row 1 given more than once"):
            aggregate_sheets(sheets, key)

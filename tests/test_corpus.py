"""Corpus preparation tests."""

import numpy as np
import pytest

from inkstone.corpus import (
    CorpusStats,
    ParallelExample,
    RawDocument,
    SplitSpec,
    clean_text,
    corpus_stats,
    load_documents,
    load_labeled_tsv,
    load_parallel_tsv,
    load_t2s_table,
    make_cpg_pairs,
    parse_document,
    split_dataset,
    strip_title,
    to_simplified,
)
from inkstone.errors import DatasetError


class TestCleanText:
    def test_collapses_whitespace_and_controls(self):
        assert clean_text("春\x00眠  不觉\t晓") == "春眠 不觉 晓"

    def test_newline_wins_inside_a_run(self):
        assert clean_text("春 \n 眠") == "春\n眠"

    def test_blacklist_removed(self):
        assert clean_text("春*眠", blacklist={"*"}) == "春眠"

    def test_empty_and_whitespace_only(self):
        assert clean_text("") == ""
        assert clean_text(" \t\n ") == ""

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        pool = list("春眠不觉晓 \n\tab\x01，。")
        for _ in range(30):
            s = "".join(rng.choice(pool, size=rng.integers(0, 40)))
            once = clean_text(s)
            assert clean_text(once) == once


class TestSimplify:
    def test_mapping_applied(self):
        table = {"說": "说", "詩": "诗"}
        assert to_simplified("說詩的人", table) == "说诗的人"

    def test_unmapped_pass_through(self):
        assert to_simplified("山水", {"說": "说"}) == "山水"

    def test_idempotent_when_targets_not_sources(self):
        table = {"說": "说", "詩": "诗"}
        s = to_simplified("說詩山水", table)
        assert to_simplified(s, table) == s

    def test_table_loader_validates_rows(self, tmp_path):
        p = tmp_path / "t2s.tsv"
        p.write_text("說\t说\n詩詩\t诗\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="row 2") as err:
            load_t2s_table(p)
        assert str(err.value).startswith(f"{p}: ")

    def test_table_loader_rejects_duplicate_source(self, tmp_path):
        p = tmp_path / "t2s.tsv"
        p.write_text("說\t说\n說\t説\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="duplicate") as err:
            load_t2s_table(p)
        assert str(err.value).startswith(f"{p}: ")


class TestDocuments:
    def test_first_line_is_title(self):
        doc = parse_document("静夜思\n床前明月光\n疑是地上霜", kind="poem")
        assert doc.title == "静夜思"
        assert strip_title(doc) == "床前明月光\n疑是地上霜"

    def test_single_line_document_has_empty_body(self):
        doc = parse_document("静夜思")
        with pytest.raises(DatasetError, match="empty body"):
            strip_title(doc)

    def test_loader_splits_on_blank_lines(self, tmp_path):
        p = tmp_path / "corpus.txt"
        p.write_text("甲\n一二三\n\n乙\n四五六\n七八九\n", encoding="utf-8")
        docs = load_documents(p, kind="article")
        assert [d.title for d in docs] == ["甲", "乙"]
        assert docs[1].body == "四五六\n七八九"

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError, match="kind"):
            parse_document("题\n文", kind="novel")


class TestCpgPairs:
    POEM = ["春眠不觉晓", "处处闻啼鸟", "夜来风雨声", "花落知多少"]

    def test_two_two_split(self):
        ex = make_cpg_pairs(self.POEM, "2-2")
        assert ex.task == "CPG22"
        assert ex.source_text == "春眠不觉晓，处处闻啼鸟"
        assert ex.target_text == "夜来风雨声，花落知多少"

    def test_one_three_split(self):
        ex = make_cpg_pairs(self.POEM, "1-3")
        assert ex.task == "CPG13"
        assert ex.source_text == "春眠不觉晓"
        assert ex.target_text == "处处闻啼鸟，夜来风雨声，花落知多少"

    def test_reconstructs_original_poem(self):
        ex = make_cpg_pairs(self.POEM, "2-2")
        lines = ex.source_text.split("，") + ex.target_text.split("，")
        assert lines == self.POEM

    def test_fallback_separator_when_lines_end_with_comma(self):
        poem = [ln + "，" for ln in self.POEM]
        ex = make_cpg_pairs(poem, "2-2")
        assert "|" in ex.source_text
        assert ex.source_text.split("|") == poem[:2]

    def test_wrong_line_count_rejected(self):
        with pytest.raises(DatasetError, match="4 lines"):
            make_cpg_pairs(self.POEM[:3], "2-2")

    def test_unknown_mode_rejected(self):
        with pytest.raises(DatasetError, match="mode"):
            make_cpg_pairs(self.POEM, "3-1")


class TestParallelTsv:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("床前明月光\t疑是地上霜\n举头望明月\t低头思故乡\n", encoding="utf-8")
        pairs = load_parallel_tsv(p, task="AMCT")
        assert len(pairs) == 2
        assert pairs[0].source_text == "床前明月光"
        assert pairs[1].target_text == "低头思故乡"

    def test_malformed_row_rejected(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        p.write_text("只有一列\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="row 1") as err:
            load_parallel_tsv(p, task="AMCT")
        assert str(err.value).startswith(f"{p}: ")

    @pytest.mark.parametrize("row", ["春眠\t \n", " \u3000\t春眠\n", "春眠\t\n"],
                             ids=["space-target", "ideographic-space-source", "empty-target"])
    def test_whitespace_only_column_rejected(self, tmp_path, row):
        p = tmp_path / "pairs.tsv"
        p.write_text("床前明月光\t疑是地上霜\n" + row, encoding="utf-8")
        with pytest.raises(DatasetError, match="row 2") as err:
            load_parallel_tsv(p, task="AMCT")
        assert str(err.value).startswith(f"{p}: ")

    def test_labeled_loader_rejects_whitespace_only_text(self, tmp_path):
        p = tmp_path / "cls.tsv"
        p.write_text("床前明月光\t0\n \t1\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="row 2") as err:
            load_labeled_tsv(p)
        assert str(err.value).startswith(f"{p}: ")

    def test_labeled_loader(self, tmp_path):
        p = tmp_path / "cls.tsv"
        p.write_text("床前明月光\t0\n春眠不觉晓\t1\n", encoding="utf-8")
        rows = load_labeled_tsv(p)
        assert rows == [("床前明月光", 0), ("春眠不觉晓", 1)]

    def test_labeled_loader_rejects_bad_label(self, tmp_path):
        p = tmp_path / "cls.tsv"
        p.write_text("床前明月光\t春\n", encoding="utf-8")
        with pytest.raises(DatasetError, match="label") as err:
            load_labeled_tsv(p)
        assert str(err.value).startswith(f"{p}: ")


class TestSplit:
    def test_counts_partition_exactly(self):
        items = list(range(10))
        train, dev, test = split_dataset(items, SplitSpec(8, 1, 1, seed=0))
        assert len(train) == 8 and len(dev) == 1 and len(test) == 1
        assert sorted(train + dev + test) == items

    def test_counts_must_sum_to_dataset_size(self):
        with pytest.raises(DatasetError, match="sum"):
            split_dataset(list(range(10)), SplitSpec(8, 1, 2, seed=0))
        with pytest.raises(DatasetError, match="sum"):
            split_dataset(list(range(10)), SplitSpec(7, 1, 1, seed=0))

    def test_same_seed_same_split(self):
        items = [f"例{i}" for i in range(30)]
        a = split_dataset(items, SplitSpec(20, 5, 5, seed=42))
        b = split_dataset(items, SplitSpec(20, 5, 5, seed=42))
        assert a == b

    def test_different_seed_usually_differs(self):
        items = list(range(30))
        a = split_dataset(items, SplitSpec(20, 5, 5, seed=1))
        b = split_dataset(items, SplitSpec(20, 5, 5, seed=2))
        assert a != b

    def test_ratio_mode(self):
        train, dev, test = split_dataset(list(range(100)), SplitSpec(0.8, 0.1, 0.1, seed=0))
        assert (len(train), len(dev), len(test)) == (80, 10, 10)

    def test_disjoint_property(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            n = int(rng.integers(3, 40))
            n_dev = int(rng.integers(0, n // 2 + 1))
            n_test = int(rng.integers(0, n - n_dev - 1 + 1))
            spec = SplitSpec(n - n_dev - n_test, n_dev, n_test, seed=int(rng.integers(1000)))
            train, dev, test = split_dataset(list(range(n)), spec)
            combined = train + dev + test
            assert sorted(combined) == list(range(n))
            assert len(set(combined)) == n


class TestStats:
    def test_two_poems_of_twenty_chars(self):
        docs = [
            RawDocument("甲", "春眠不觉晓处处闻啼鸟夜来风雨声花落知多少", "poem"),
            RawDocument("乙", "床前明月光疑是地上霜举头望明月低头思故乡", "poem"),
        ]
        stats = corpus_stats(docs)
        assert stats.documents["poem"] == 2
        assert stats.tokens["poem"] == 40

    def test_totals_match_independent_recount(self):
        # oracle: non-whitespace character count over pure-CJK bodies
        bodies = {
            "poem": ["春眠不觉晓\n处处闻啼鸟", "床前明月光"],
            "article": ["子曰学而时习之不亦说乎"],
            "couplet": ["天对地\n雨对风"],
        }
        docs = []
        expected_tokens = 0
        for kind, texts in bodies.items():
            for i, b in enumerate(texts):
                docs.append(RawDocument(f"{kind}{i}", b, kind))
                expected_tokens += sum(1 for ch in b if not ch.isspace())
        stats = corpus_stats(docs)
        assert stats.total_documents == len(docs)
        assert stats.total_tokens == expected_tokens
        assert stats.total_tokens == sum(stats.tokens.values())

    def test_json_report_shape(self):
        stats = CorpusStats(documents={"poem": 1}, tokens={"poem": 5})
        text = stats.to_json()
        assert '"per_kind"' in text and '"total"' in text and text.endswith("\n")

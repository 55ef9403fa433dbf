"""Corpus preparation: cleaning, simplification, pairing, splits, stats.

Raw corpora are UTF-8 text with blank-line-separated documents whose
first line is a title. Parallel data is two-column TSV (source, target).
"""

from __future__ import annotations

import json
import re
import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DatasetError
from .vocab import tokenize

KINDS = ("article", "poem", "couplet")

_WS_RUN = re.compile(r"\s+")


@dataclass
class RawDocument:
    title: str
    body: str
    kind: str = "article"


@dataclass
class ParallelExample:
    source: list[str]
    target: list[str]
    task: str

    @property
    def source_text(self) -> str:
        return "".join(self.source)

    @property
    def target_text(self) -> str:
        return "".join(self.target)


def clean_text(text: str, blacklist: Iterable[str] = ()) -> str:
    """Drop control and blacklisted chars, collapse whitespace runs.

    A run containing a newline collapses to one newline, anything else
    to one space; the result is stripped at both ends. Idempotent.
    """
    bad = set(blacklist)
    kept = []
    for ch in text:
        if unicodedata.category(ch) == "Cc" and ch not in "\n\t":
            continue
        if ch in bad:
            continue
        kept.append(ch)

    def squash(m: re.Match) -> str:
        return "\n" if "\n" in m.group(0) else " "

    return _WS_RUN.sub(squash, "".join(kept)).strip()


def _tsv_rows(path):
    """(line number, tab-split columns) of each non-empty line of a UTF-8 file."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if line:
                yield lineno, line.split("\t")


def load_t2s_table(path) -> dict[str, str]:
    """Read a traditional-to-simplified TSV of single-codepoint pairs."""
    table: dict[str, str] = {}
    for lineno, cols in _tsv_rows(path):
        if len(cols) != 2 or len(cols[0]) != 1 or len(cols[1]) != 1:
            raise DatasetError(
                f"{path}: malformed mapping row {lineno}: expected 2 single-character columns")
        if cols[0] in table:
            raise DatasetError(f"{path}: duplicate mapping source {cols[0]!r} at row {lineno}")
        table[cols[0]] = cols[1]
    return table


def to_simplified(text: str, table: dict[str, str]) -> str:
    """Apply a codepoint mapping; unmapped characters pass through."""
    return "".join(table.get(ch, ch) for ch in text)


def parse_document(block: str, kind: str = "article") -> RawDocument:
    """Split a first-line-title block into a RawDocument."""
    if kind not in KINDS:
        raise DatasetError(f"unknown corpus kind {kind!r}, expected one of {KINDS}")
    first, _, rest = block.partition("\n")
    return RawDocument(title=first.strip(), body=rest, kind=kind)


def strip_title(doc: RawDocument) -> str:
    """Return the document body; an empty body is a data error."""
    if not doc.body.strip():
        raise DatasetError(f"document {doc.title!r} has an empty body")
    return doc.body


def read_lines(path) -> list[str]:
    """Read a UTF-8 file as lines without newlines, dropping trailing blank lines."""
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f]
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def read_blocks(path) -> list[str]:
    """Non-blank blocks of a UTF-8 file, split at empty or whitespace-only lines."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return [b.strip("\n") for b in re.split(r"\n\s*\n", text) if b.strip()]


def load_documents(path, kind: str = "article") -> list[RawDocument]:
    """Read blank-line-separated documents with first-line titles."""
    return [parse_document(block, kind) for block in read_blocks(path)]


def _join_lines(lines: Sequence[str]) -> str:
    """Join with the ideographic comma, or "|" when a line already ends in one."""
    sep = "，" if not any(ln.endswith("，") for ln in lines) else "|"
    return sep.join(lines)


def make_cpg_pairs(lines: Sequence[str], mode: str) -> ParallelExample:
    """Turn a 4-line poem into a (prefix, continuation) pair.

    mode "2-2": first two lines predict the last two.
    mode "1-3": first line predicts the remaining three.
    """
    lines = [ln for ln in lines]
    if len(lines) != 4:
        raise DatasetError(f"poem must have exactly 4 lines, got {len(lines)}")
    if any(not ln for ln in lines):
        raise DatasetError("poem line is empty")
    if mode == "2-2":
        cut, task = 2, "CPG22"
    elif mode == "1-3":
        cut, task = 1, "CPG13"
    else:
        raise DatasetError(f"unknown pairing mode {mode!r}, expected '2-2' or '1-3'")
    return ParallelExample(source=tokenize(_join_lines(lines[:cut])),
                           target=tokenize(_join_lines(lines[cut:])), task=task)


def load_parallel_tsv(path, task: str) -> list[ParallelExample]:
    """Read two-column TSV parallel data, one example per line."""
    out: list[ParallelExample] = []
    for lineno, cols in _tsv_rows(path):
        if len(cols) != 2 or not cols[0].strip() or not cols[1].strip():
            raise DatasetError(
                f"{path}: malformed parallel row {lineno}: expected 2 non-empty columns")
        out.append(ParallelExample(tokenize(cols[0]), tokenize(cols[1]), task))
    if not out:
        raise DatasetError(f"no parallel examples in {path}")
    return out


def load_labeled_tsv(path) -> list[tuple[str, int]]:
    """Read (text, integer label) classification rows."""
    out: list[tuple[str, int]] = []
    for lineno, cols in _tsv_rows(path):
        if len(cols) != 2 or not cols[0].strip():
            raise DatasetError(f"{path}: malformed labeled row {lineno}: expected text<TAB>label")
        try:
            label = int(cols[1])
        except ValueError:
            raise DatasetError(f"{path}: non-integer label at row {lineno}: {cols[1]!r}") from None
        if label < 0:
            raise DatasetError(f"{path}: negative label at row {lineno}")
        out.append((cols[0], label))
    if not out:
        raise DatasetError(f"no labeled examples in {path}")
    return out


@dataclass
class SplitSpec:
    """Absolute counts or ratios for a train/dev/test partition."""

    train: float
    dev: float
    test: float
    seed: int = 0

    def resolve(self, n: int) -> tuple[int, int, int]:
        parts = (self.train, self.dev, self.test)
        if any(p < 0 for p in parts):
            raise DatasetError(f"negative split sizes: {parts}")
        if all(float(p).is_integer() for p in parts) and sum(parts) > 1:
            counts = tuple(int(p) for p in parts)
            if sum(counts) != n:
                raise DatasetError(
                    f"split counts {counts} sum to {sum(counts)} but the dataset has {n} examples"
                )
            return counts
        if abs(sum(parts) - 1.0) > 1e-9:
            raise DatasetError(f"split ratios {parts} do not sum to 1")
        n_dev = int(n * self.dev)
        n_test = int(n * self.test)
        return n - n_dev - n_test, n_dev, n_test


def split_dataset(examples: Sequence, spec: SplitSpec) -> tuple[list, list, list]:
    """Shuffle with the spec seed and partition exhaustively."""
    items = list(examples)
    n_train, n_dev, n_test = spec.resolve(len(items))
    order = np.random.default_rng(spec.seed).permutation(len(items))
    shuffled = [items[i] for i in order]
    train = shuffled[:n_train]
    dev = shuffled[n_train : n_train + n_dev]
    test = shuffled[n_train + n_dev :]
    return train, dev, test


@dataclass
class CorpusStats:
    documents: dict[str, int] = field(default_factory=dict)
    tokens: dict[str, int] = field(default_factory=dict)

    @property
    def total_documents(self) -> int:
        return sum(self.documents.values())

    @property
    def total_tokens(self) -> int:
        return sum(self.tokens.values())

    def to_json(self) -> str:
        payload = {
            "per_kind": {
                k: {"documents": self.documents[k], "tokens": self.tokens[k]}
                for k in sorted(self.documents)
            },
            "total": {"documents": self.total_documents, "tokens": self.total_tokens},
        }
        return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True) + "\n"


def corpus_stats(docs: Iterable[RawDocument]) -> CorpusStats:
    """Count documents and body tokens per corpus kind."""
    stats = CorpusStats()
    for doc in docs:
        stats.documents[doc.kind] = stats.documents.get(doc.kind, 0) + 1
        stats.tokens[doc.kind] = stats.tokens.get(doc.kind, 0) + len(tokenize(doc.body))
    return stats

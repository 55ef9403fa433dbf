"""Seeded input generators for the benchmark workloads.

Everything a workload feeds the program is drawn from one
``numpy.random.Generator`` built from the workload seed and written to
files, which the workloads then read back through inkstone's own
loaders (``corpus.load_documents``, ``corpus.load_parallel_tsv``,
``vocab.build_vocab`` / ``save_vocab`` / ``load_vocab``). The same seed
gives byte-identical files.

Text is synthetic classical-Chinese-like: characters come from the CJK
Unified Ideographs block, ranked by a seeded permutation and drawn with
Zipf frequencies, in clauses of 4 to 7 characters closed by an
ideographic comma or full stop.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

CJK_BASE = 0x4E00
CJK_COUNT = 0x9FFF - 0x4E00 + 1
CLAUSE_ENDS = ("，", "。")
ZIPF_EXPONENT = 1.1


def char_inventory(rng: np.random.Generator, size: int) -> list[str]:
    """``size`` distinct ideographs in Zipf rank order (rank 0 is most frequent)."""
    if not 1 <= size <= CJK_COUNT:
        raise ValueError(f"inventory size must be in [1, {CJK_COUNT}], got {size}")
    return [chr(CJK_BASE + int(i)) for i in rng.permutation(CJK_COUNT)[:size]]


class ZipfText:
    """Draws Zipf-distributed characters and punctuated clauses."""

    def __init__(self, rng: np.random.Generator, inventory: list[str]):
        self.rng = rng
        self.inventory = inventory
        weights = 1.0 / np.arange(1, len(inventory) + 1) ** ZIPF_EXPONENT
        self.cdf = np.cumsum(weights / weights.sum())

    def chars(self, n: int) -> list[str]:
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        ranks = np.minimum(ranks, len(self.inventory) - 1)
        return [self.inventory[int(r)] for r in ranks]

    def clause(self, length: int) -> str:
        return "".join(self.chars(length))

    def tokens(self, n: int) -> list[str]:
        """Exactly n tokens: clauses of 4-7 characters, each closed by punctuation."""
        out: list[str] = []
        while len(out) < n:
            out.extend(self.chars(int(self.rng.integers(4, 8))))
            out.append(CLAUSE_ENDS[int(self.rng.integers(0, 2))])
        return out[:n]


def write_zipf_corpus(path: Path, rng: np.random.Generator, vocab_chars: int,
                      zipf_docs: int, chunk_body: int, chunks_per_doc: tuple[int, int]) -> None:
    """Blank-line-separated documents with a title line, as ``corpus.load_documents`` reads.

    Every body is a whole number of ``chunk_body``-token chunks, so
    pretraining chunks carry no padding. Characters of the inventory that
    the Zipf draws missed are placed in trailing glossary documents, so
    the corpus vocabulary is exactly the inventory plus the two
    punctuation marks.
    """
    text = ZipfText(rng, char_inventory(rng, vocab_chars))
    bodies: list[list[str]] = []
    for _ in range(zipf_docs):
        n_chunks = int(rng.integers(chunks_per_doc[0], chunks_per_doc[1] + 1))
        bodies.append(text.tokens(n_chunks * chunk_body))
    seen = {t for body in bodies for t in body}
    missing = [c for c in text.inventory if c not in seen]
    missing = [missing[int(i)] for i in rng.permutation(len(missing))]
    per_doc = chunk_body * chunks_per_doc[1]
    for lo in range(0, len(missing), per_doc):
        body = missing[lo:lo + per_doc]
        short = -len(body) % chunk_body
        bodies.append(body + text.tokens(short))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for i, body in enumerate(bodies):
            if i:
                f.write("\n")
            f.write(text.clause(4) + "\n" + "".join(body) + "\n")


def _write_glossary(path: Path, inventory: list[str]) -> None:
    """The whole inventory plus punctuation on one line.

    It stands in for the larger corpus a task vocabulary is built from, so
    the vocabulary size is fixed by the inventory, not by the draws.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("".join(inventory) + "".join(CLAUSE_ENDS) + "\n")


def write_poem_pairs(train_path: Path, dev_path: Path, glossary_path: Path,
                     rng: np.random.Generator, vocab_chars: int,
                     n_train: int, n_dev: int) -> None:
    """Four-line poems of 5- or 7-character lines, as CPG22 pairs in TSV.

    The pairing itself is done by ``corpus.make_cpg_pairs``.
    """
    from inkstone.corpus import make_cpg_pairs

    text = ZipfText(rng, char_inventory(rng, vocab_chars))
    for path, n in ((train_path, n_train), (dev_path, n_dev)):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for _ in range(n):
                width = 5 if rng.random() < 0.5 else 7
                pair = make_cpg_pairs([text.clause(width) for _ in range(4)], "2-2")
                f.write(f"{pair.source_text}\t{pair.target_text}\n")
    _write_glossary(glossary_path, text.inventory)


def write_prompts(path: Path, glossary_path: Path, rng: np.random.Generator, vocab_chars: int,
                  n_each: int, short_len: tuple[int, int], long_len: tuple[int, int]) -> None:
    """Short prompts then long prompts, as two-column TSV (source, reference).

    The reference column only satisfies the parallel-TSV format; decoding
    reads the source column.
    """
    text = ZipfText(rng, char_inventory(rng, vocab_chars))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for lo, hi in (short_len, long_len):
            for _ in range(n_each):
                n = int(rng.integers(lo, hi + 1))
                f.write("".join(text.tokens(n)) + "\t" + text.clause(5) + "\n")
    _write_glossary(glossary_path, text.inventory)

"""Automatic and human evaluation.

Corpus-level BLEU with clipped modified n-gram precision, plus the
plumbing for blinded human scoring: shuffled per-evaluator sheets, a
join key kept separate, and an aggregator that averages 0/1 judgments
per system, task, and aspect.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError, SheetError

Tokens = Sequence[str]


@dataclass
class BleuReport:
    score: float
    precisions: list[float]
    matches: list[int]
    totals: list[int]
    brevity_penalty: float
    candidate_length: int
    reference_length: int
    pair_count: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, ensure_ascii=False)


def _ngrams(tokens: Tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidates: Sequence[Tokens], references: Sequence[Tokens],
         max_n: int = 4) -> BleuReport:
    """Corpus BLEU in [0, 100].

    Orders 2..max_n with zero matches are smoothed to
    (matches + 1) / (totals + 1); zero unigram matches give score 0.
    """
    if max_n < 1:
        raise DataError(f"max_n must be at least 1, got {max_n}")
    if len(candidates) != len(references):
        raise DataError(
            f"candidate/reference count mismatch: {len(candidates)} vs {len(references)}")
    if not candidates:
        raise DataError("bleu needs at least one pair")
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        cand = list(cand)
        ref = list(ref)
        cand_len += len(cand)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            cgrams = _ngrams(cand, n)
            rgrams = _ngrams(ref, n)
            totals[n - 1] += sum(cgrams.values())
            matches[n - 1] += sum(min(c, rgrams[g]) for g, c in cgrams.items())

    bp = 1.0 if cand_len >= ref_len else (
        math.exp(1.0 - ref_len / cand_len) if cand_len > 0 else 0.0)
    if cand_len == 0 or matches[0] == 0:
        return BleuReport(0.0, [0.0] * max_n, matches, totals, bp, cand_len, ref_len,
                          len(candidates))
    # an order with no candidate n-grams reads 0.0 and is left out of the mean
    precisions = [(m / t if m else 1 / (t + 1)) if t else 0.0 for m, t in zip(matches, totals)]
    logs = [math.log(p) for p, t in zip(precisions, totals) if t]
    score = 100.0 * bp * math.exp(sum(logs) / len(logs))
    return BleuReport(score, precisions, matches, totals, bp, cand_len, ref_len,
                      len(candidates))


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    if len(predictions) != len(labels):
        raise DataError(
            f"prediction/label count mismatch: {len(predictions)} vs {len(labels)}")
    if not predictions:
        raise DataError("accuracy needs at least one pair")
    return float(np.mean([p == l for p, l in zip(predictions, labels)]))


# ---------------------------------------------------------------------------
# blinded human evaluation sheets

RUBRIC_LINES = (
    "# Score each row on two aspects, writing 0 or 1 in the last two columns.",
    "# fluency: 1 if the text reads as well-formed classical Chinese, else 0.",
    "# adequacy: 1 if the text fits the prompt for this task, else 0.",
    "# Do not reorder rows. System identities are withheld on purpose.",
)

SHEET_COLUMNS = ("row_id", "task", "prompt", "output", "fluency", "adequacy")
KEY_COLUMNS = ("sheet", "row_id", "system", "task", "item_id")


def _sanitize(text: str) -> str:
    return " ".join(str(text).replace("\t", " ").replace("\n", " ").split())


@dataclass
class EvalItem:
    system: str
    task: str
    item_id: str
    prompt: str
    output: str


def make_eval_sheets(items: Sequence[EvalItem], num_evaluators: int,
                     out_dir, items_per_system: int = 0,
                     seed: int = 0) -> tuple[list[Path], Path]:
    """Write one shuffled blind sheet per evaluator plus a join key.

    Every sheet carries the same sampled items in its own random order.
    Returns (sheet paths, key path).
    """
    if num_evaluators < 1:
        raise SheetError(f"need at least one evaluator, got {num_evaluators}")
    if min(items_per_system, seed) < 0:
        raise SheetError(f"items_per_system and seed must be >= 0, got {items_per_system}, {seed}")
    if not items:
        raise SheetError("no items to put on sheets")
    by_system: dict[str, list[EvalItem]] = {}
    for it in items:
        by_system.setdefault(it.system, []).append(it)
    if len(by_system) < 2:
        raise SheetError("blind comparison needs at least two systems")
    rng = np.random.default_rng(seed)
    chosen: list[EvalItem] = []
    for system in sorted(by_system):
        pool = by_system[system]
        take = items_per_system or len(pool)
        if take > len(pool):
            raise SheetError(
                f"system {system!r} has {len(pool)} items, need {take}")
        idx = rng.permutation(len(pool))[:take]
        chosen.extend(pool[i] for i in sorted(idx))

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sheet_paths: list[Path] = []
    key_rows: list[tuple] = []
    for evaluator in range(1, num_evaluators + 1):
        order = rng.permutation(len(chosen))
        name = f"sheet_{evaluator:02d}.tsv"
        path = out_dir / name
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for line in RUBRIC_LINES:
                f.write(line + "\n")
            f.write("\t".join(SHEET_COLUMNS) + "\n")
            for row_id, i in enumerate(order, start=1):
                it = chosen[i]
                f.write(f"{row_id}\t{_sanitize(it.task)}\t{_sanitize(it.prompt)}"
                        f"\t{_sanitize(it.output)}\t\t\n")
                key_rows.append((name, row_id, it.system, it.task, it.item_id))
        sheet_paths.append(path)
    key_path = out_dir / "key.tsv"
    with open(key_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\t".join(KEY_COLUMNS) + "\n")
        for row in key_rows:
            f.write("\t".join(_sanitize(str(v)) for v in row) + "\n")
    return sheet_paths, key_path


def _read_tsv(path: Path, expected_header: Sequence[str]) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    if not lines:
        raise SheetError(f"{path}: empty file")
    header = lines[0].split("\t")
    if header != list(expected_header):
        raise SheetError(f"{path}: header {header} != expected {list(expected_header)}")
    for ln in lines[1:]:
        if not ln.strip():
            continue
        parts = ln.split("\t")
        if len(parts) != len(header):
            raise SheetError(f"{path}: row has {len(parts)} fields, expected {len(header)}")
        rows.append(dict(zip(header, parts)))
    return rows


@dataclass
class AggregateReport:
    # (system, task) -> {"fluency": mean, "adequacy": mean, "count": n}
    cells: dict = field(default_factory=dict)
    overall: dict = field(default_factory=dict)

    def to_json(self) -> str:
        cells = {f"{s}|{t}": v for (s, t), v in sorted(self.cells.items())}
        return json.dumps({"cells": cells, "overall": self.overall},
                          sort_keys=True, ensure_ascii=False, indent=2)


def aggregate_sheets(sheet_paths: Sequence, key_path) -> AggregateReport:
    """Join filled sheets against the key and average 0/1 judgments.

    Overall per system = unweighted mean over its (task, aspect) cells.
    """
    key_rows = _read_tsv(Path(key_path), KEY_COLUMNS)
    key = {(r["sheet"], r["row_id"]): r for r in key_rows}
    scores: dict[tuple, dict[str, list[float]]] = {}
    seen: set[tuple] = set()
    for path in sheet_paths:
        path = Path(path)
        for row in _read_tsv(path, SHEET_COLUMNS):
            where = (path.name, row["row_id"])
            ident = key.get(where)
            if ident is None:
                raise SheetError(f"{path.name} row {row['row_id']} missing from key")
            if where in seen:
                raise SheetError(f"{path.name} row {row['row_id']} given more than once")
            seen.add(where)
            cell = scores.setdefault((ident["system"], ident["task"]),
                                     {"fluency": [], "adequacy": []})
            for aspect in ("fluency", "adequacy"):
                raw = row[aspect].strip()
                if raw not in ("0", "1"):
                    raise SheetError(
                        f"{path.name} row {row['row_id']}: {aspect} must be 0 or 1, "
                        f"got {raw!r}")
                cell[aspect].append(float(raw))
    if not seen:
        raise SheetError("no filled rows found")
    report = AggregateReport()
    per_system: dict[str, list[float]] = {}
    for (system, task), cell in sorted(scores.items()):
        entry = {
            "fluency": float(np.mean(cell["fluency"])),
            "adequacy": float(np.mean(cell["adequacy"])),
            "count": len(cell["fluency"]),
        }
        report.cells[(system, task)] = entry
        per_system.setdefault(system, []).extend([entry["fluency"], entry["adequacy"]])
    for system, vals in sorted(per_system.items()):
        report.overall[system] = float(np.mean(vals))
    return report

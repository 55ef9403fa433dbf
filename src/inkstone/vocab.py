"""Character vocabulary and tokenizer.

One CJK ideograph is one token. ASCII letters and digits are lowercased
and emitted one per character, whitespace only separates, and anything
else becomes a single-character token. The vocabulary file is one token
per line; the id of a token is its line index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, VocabError

PAD, UNK, CLS, SEP, MASK = "[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP, MASK)


def tokenize(text: str) -> list[str]:
    """Split text into character-level tokens."""
    tokens: list[str] = []
    for ch in text:
        if ch.isspace():
            continue
        if ch.isascii() and ch.isalnum():
            tokens.append(ch.lower())
        else:
            tokens.append(ch)
    return tokens


@dataclass
class Vocab:
    """Token table with fixed special tokens."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.id_to_token)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    @property
    def cls_id(self) -> int:
        return self.token_to_id[CLS]

    @property
    def sep_id(self) -> int:
        return self.token_to_id[SEP]

    @property
    def mask_id(self) -> int:
        return self.token_to_id[MASK]

    @property
    def special_ids(self) -> frozenset:
        return frozenset(self.token_to_id[t] for t in SPECIAL_TOKENS)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)


def from_tokens(tokens: Sequence[str]) -> Vocab:
    """Build a Vocab from an ordered token list, validating the contract."""
    if not tokens:
        raise VocabError("empty vocabulary")
    mapping: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if tok == "":
            raise VocabError(f"empty token at line {i + 1}")
        if tok in mapping:
            raise VocabError(f"duplicate token {tok!r} at lines {mapping[tok] + 1} and {i + 1}")
        mapping[tok] = i
    for special in SPECIAL_TOKENS:
        if special not in mapping:
            raise VocabError(f"missing special token {special}")
    return Vocab(list(tokens), mapping)


def load_vocab(path) -> Vocab:
    """Read a one-token-per-line vocabulary file; line index is the id."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    if text.endswith("\n"):
        text = text[:-1]
    if text == "":
        raise VocabError(f"empty vocabulary file: {path}")
    return from_tokens(text.split("\n"))


def save_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(vocab.id_to_token) + "\n")


def build_vocab(texts: Iterable[str]) -> Vocab:
    """Specials first, then every distinct token of the corpus, sorted."""
    seen: set[str] = set()
    for text in texts:
        seen.update(tokenize(text))
    return from_tokens(list(SPECIAL_TOKENS) + sorted(seen))


def encode(seq: Sequence[str], vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Wrap tokens as [CLS] body [SEP], pad to max_len, return (ids, mask).

    The body is truncated to max_len - 2 so the [SEP] always survives.
    """
    if max_len < 3:
        raise InputError(f"max_len must be at least 3, got {max_len}")
    body = [vocab.id_of(t) for t in seq[: max_len - 2]]
    ids = [vocab.cls_id] + body + [vocab.sep_id]
    n = len(ids)
    ids = ids + [vocab.pad_id] * (max_len - n)
    mask = [1] * n + [0] * (max_len - n)
    return np.array(ids, dtype=np.int64), np.array(mask, dtype=np.int64)


def encode_batch(seqs, vocab: Vocab, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """encode each sequence; every model batch is laid out here as (batch, max_len)."""
    rows = [encode(seq, vocab, max_len) for seq in seqs]
    if not rows:
        return np.zeros((0, max_len), dtype=np.int64), np.zeros((0, max_len), dtype=np.int64)
    return np.stack([r[0] for r in rows]), np.stack([r[1] for r in rows])


def decode(ids, vocab: Vocab) -> str:
    """Concatenate the tokens for ids, omitting all special tokens."""
    specials = vocab.special_ids
    out: list[str] = []
    for raw in np.asarray(ids).reshape(-1):
        i = int(raw)
        if i < 0 or i >= len(vocab):
            raise InputError(f"token id {i} out of range for vocab of {len(vocab)}")
        if i in specials:
            continue
        out.append(vocab.id_to_token[i])
    return "".join(out)

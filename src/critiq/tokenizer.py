"""Word-level vocabulary and token sequence encoding.

Text is lowercased and split on anything that is not [a-z0-9]; punctuation
acts as a separator and is dropped. Two encodings exist:

- generative: BOS + tokens + EOS, truncated to `max_text_length` keeping the
  prefix and a terminal EOS.
- contrastive: tokens + CLS, truncated keeping the prefix; CLS always
  survives as the final id.
"""

from __future__ import annotations

import re

import numpy as np

PAD, BOS, EOS, UNK, CLS = 0, 1, 2, 3, 4
RESERVED = ("<pad>", "<bos>", "<eos>", "<unk>", "<cls>")
UNK_TEXT = "<unk>"

_WORD_RE = re.compile(r"[a-z0-9]+")


def split_words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Bijection between word tokens and ids, with five reserved ids first."""

    def __init__(self, words: list[str]):
        self.id_to_token = list(RESERVED) + list(words)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, word: str) -> bool:
        return word in self.token_to_id

    def id_of(self, word: str) -> int:
        return self.token_to_id.get(word, UNK)

    @classmethod
    def build(cls, corpus: list[str], max_size: int) -> "Vocabulary":
        """Frequency-descending word vocab; ties break lexicographically."""
        if not corpus:
            raise ValueError("build_vocab: corpus is empty")
        if max_size <= len(RESERVED):
            raise ValueError(f"build_vocab: max_size must exceed {len(RESERVED)} reserved ids")
        counts: dict[str, int] = {}
        for text in corpus:
            for w in split_words(text):
                counts[w] = counts.get(w, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        words = [w for w, _ in ranked[: max_size - len(RESERVED)]]
        return cls(words)

    def save(self, path: str) -> None:
        from .util import write_atomic
        write_atomic(path, ("\n".join(self.id_to_token) + "\n").encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "Vocabulary":
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if tuple(lines[: len(RESERVED)]) != RESERVED:
            raise ValueError(f"vocabulary file {path}: reserved token block is malformed")
        return cls(lines[len(RESERVED):])


def encode(text: str, vocab: Vocabulary, mode: str, max_text_length: int = 64) -> list[int]:
    ids = [vocab.id_of(w) for w in split_words(text)]
    if mode == "generative":
        seq = [BOS] + ids + [EOS]
        if len(seq) > max_text_length:
            seq = seq[: max_text_length - 1] + [EOS]
        return seq
    if mode == "contrastive":
        seq = ids + [CLS]
        if len(seq) > max_text_length:
            seq = ids[: max_text_length - 1] + [CLS]
        return seq
    raise ValueError(f"encode: unknown mode {mode!r}")


def pad_ids(seqs: list[list[int]]) -> np.ndarray:
    """Sequences left-aligned in one PAD-filled (N, longest) int64 id matrix."""
    out = np.full((len(seqs), max(map(len, seqs))), PAD, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def decode(ids, vocab: Vocabulary) -> str:
    words = []
    for i in ids:
        i = int(i)
        if i < 0 or i >= len(vocab):
            raise ValueError(f"decode: id {i} outside vocabulary of size {len(vocab)}")
        if i == UNK:
            words.append(UNK_TEXT)
        elif i in (PAD, BOS, EOS, CLS):
            continue
        else:
            words.append(vocab.id_to_token[i])
    return " ".join(words)

"""Tokenization with exact character offsets and embedding providers.

The tokenizer splits on whitespace and punctuation; every non-whitespace
character lands in exactly one token and offsets index the source text
directly. Real LLM features arrive through a binary embedding file that
carries its own offsets, so the system is tokenizer-agnostic; the toy
embedder is a deterministic stand-in for desk-scale experiments.
"""

from __future__ import annotations

import hashlib
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .files import atomic_open
from .geometry import CharSpan

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

_TABLE_SIZE = 4096
_table_cache: dict[tuple[int, int], np.ndarray] = {}

PROVENANCE_CODES = {"toy": 0, "file:pretrained": 1, "file:finetuned": 2}
PROVENANCE_NAMES = {v: k for k, v in PROVENANCE_CODES.items()}

EMBED_MAGIC = b"SDEM"
EMBED_VERSION = 2


@dataclass
class TokenizedText:
    tokens: list[str]
    offsets: list[CharSpan]

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str) -> TokenizedText:
    """Split into word runs and single punctuation marks, with exact offsets."""
    if not text or not text.strip():
        raise ValueError("cannot tokenize empty or whitespace-only text")
    tokens: list[str] = []
    offsets: list[CharSpan] = []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group())
        offsets.append(CharSpan(m.start(), m.end()))
    return TokenizedText(tokens, offsets)


def token_positions(offsets: list[CharSpan], text_len: int) -> np.ndarray:
    """Normalized character midpoint of each token, in [0, 1]."""
    return np.array([(o.x1 + o.x2) / 2.0 / text_len for o in offsets])


def _trigram_crcs(surface: str) -> list[int]:
    """crc32 of the UTF-8 bytes of each character trigram of a surface padded
    with STX/ETX; taken modulo the table size, they are its table rows."""
    padded = "\x02" + surface + "\x03"
    return [zlib.crc32(padded[i:i + 3].encode("utf-8")) for i in range(len(padded) - 2)]


def _vector_table(d: int, seed: int) -> np.ndarray:
    key = (d, seed)
    if key not in _table_cache:
        rng = np.random.default_rng(seed)
        table = rng.normal(0.0, 1.0 / np.sqrt(d), size=(_TABLE_SIZE, d))
        table.setflags(write=False)
        _table_cache[key] = table
    return _table_cache[key]


def check_embed_dim(d: int) -> None:
    """The floor on ``toy_embed``'s width."""
    if d < 8:
        raise ValueError(f"embedding dim must be >= 8, got {d}")


def toy_embed(tk: TokenizedText, d: int, seed: int = 0) -> np.ndarray:
    """Hash-table embedding, (n, d): each token maps to the sum of its
    character trigrams' table vectors over the square root of their count,
    so norms sit near 1.

    Position-independent and deterministic: same surface, same vector. Each
    distinct surface is embedded once per call: sorted longest first, every
    surface with a j-th trigram adds that row to its sum at step j, so the
    rows add in trigram order and the temporary memory is one (surfaces, d)
    block whatever the longest token. Nothing is kept between calls but the
    read-only table of each (d, seed).
    """
    check_embed_dim(d)
    table = _vector_table(d, seed)
    row_of: dict[str, int] = {}
    inverse = [row_of.setdefault(tok, len(row_of)) for tok in tk.tokens]
    grams = [_trigram_crcs(surface) for surface in row_of]
    ids = np.array([g for surface in grams for g in surface], dtype=np.int64) % _TABLE_SIZE
    counts = np.array([len(g) for g in grams])
    order = np.argsort(-counts, kind="stable")       # longest first
    starts, longest = (np.cumsum(counts) - counts)[order], counts[order]
    # at position j, the surfaces with a j-th trigram are the first k_j in that order
    ks = np.searchsorted(-longest, -np.arange(longest[0]), "left")
    firsts = np.cumsum(ks) - ks
    at = np.arange(ks.sum()) - np.repeat(firsts, ks)   # the surface of each entry
    by_position = ids[starts[at] + np.repeat(np.arange(len(ks)), ks)]
    sums = np.zeros((len(grams), d))
    for k, first in zip(ks, firsts):
        sums[:k] += table[by_position[first:first + k]]
    sums /= np.sqrt(longest)[:, None]
    return sums[np.argsort(order)[inverse]]


# -- embedding file format ---------------------------------------------------
#
#   magic      4 bytes  b"SDEM"
#   version    u8       2
#   n          u32 LE   token count
#   d          u32 LE   embedding dimension
#   provenance u8       0 = toy, 1 = file:pretrained, 2 = file:finetuned
#   text hash  32 bytes SHA-256 of the source text's UTF-8 bytes
#   offsets    n * (u32, u32) LE   character start/end per token
#   data       n*d float32 LE, row-major

_HEADER = struct.Struct("<4sBIIB32s")


def write_embedding_file(path, vectors: np.ndarray, offsets: list[CharSpan],
                         provenance: str, text: str) -> None:
    with np.errstate(over="ignore"):   # a value past float32's range becomes inf
        vectors = np.ascontiguousarray(vectors, dtype="<f4")
    n, d = vectors.shape
    if len(offsets) != n:
        raise ValueError(f"offset count {len(offsets)} != row count {n}")
    if not np.isfinite(vectors).all():
        raise ValueError(f"{path}: feature values are not finite as float32")
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    with atomic_open(path) as fh:
        fh.writelines([_HEADER.pack(EMBED_MAGIC, EMBED_VERSION, n, d,
                                    PROVENANCE_CODES[provenance], digest),
                       np.array([(o.x1, o.x2) for o in offsets], dtype="<u4"), vectors])


@dataclass
class EmbeddingFile:
    vectors: np.ndarray  # float32, exactly as stored
    offsets: list[CharSpan]
    provenance: str
    text_sha256: bytes   # digest of the source text


def read_embedding_file(path) -> EmbeddingFile:
    raw = Path(path).read_bytes()
    if raw[:4] != EMBED_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) > 4 and raw[4] != EMBED_VERSION:  # named before its layout is read
        raise ValueError(f"{path}: unsupported embedding file version {raw[4]} (this "
                         f"reader takes version {EMBED_VERSION}; re-run spandet embed)")
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated embedding file (no header)")
    _, _, n, d, prov, digest = _HEADER.unpack_from(raw)
    if prov not in PROVENANCE_NAMES:
        raise ValueError(f"{path}: unknown provenance byte {prov}")
    need = _HEADER.size + n * 8 + n * d * 4
    if len(raw) != need:
        fault = ("truncated embedding file" if len(raw) < need
                 else "trailing bytes after the payload")
        raise ValueError(f"{path}: {fault} (expected {need} bytes, found {len(raw)})")
    pairs = np.frombuffer(raw, dtype="<u4", count=2 * n,
                          offset=_HEADER.size).reshape(n, 2).tolist()
    try:
        offsets = [CharSpan(a, b) for a, b in pairs]
    except ValueError:   # CharSpan rejects a pair that does not have start < end
        i, (a, b) = next((i, p) for i, p in enumerate(pairs) if p[1] <= p[0])
        raise ValueError(f"{path}: token {i} has an empty or reversed offset pair "
                         f"({a}, {b})") from None
    vec = np.frombuffer(raw, dtype="<f4", count=n * d,
                        offset=_HEADER.size + n * 8).reshape(n, d).copy()
    return EmbeddingFile(vec, offsets, PROVENANCE_NAMES[prov], digest)


def check_against_text(path, ef: EmbeddingFile, text: str) -> None:
    """Raise ValueError unless a feature file fits `text`: its header holds
    the text's hash, and its token offsets are sorted and end inside the
    text."""
    if ef.text_sha256 != hashlib.sha256(text.encode("utf-8")).digest():
        raise ValueError(f"{path}: source text hash mismatch")
    offsets = ef.offsets
    for i in range(1, len(offsets)):
        if offsets[i].x1 < offsets[i - 1].x1:
            raise ValueError(f"{path}: token offsets are not sorted (token {i} starts at "
                             f"{offsets[i].x1}, before token {i - 1} at {offsets[i - 1].x1})")
    for i, o in enumerate(offsets):
        if o.x2 > len(text):
            raise ValueError(f"{path}: token {i} ends at {o.x2}, past the end of the "
                             f"{len(text)}-character text")


def load_features(path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """A feature file checked against its source `text`: the vectors as
    stored (float32; the detector's input tensor upcasts them exactly) and
    each token's normalized character midpoint in [0, 1]."""
    ef = read_embedding_file(path)
    check_against_text(path, ef, text)
    return ef.vectors, token_positions(ef.offsets, len(text))


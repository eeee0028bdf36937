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

from .geometry import CharSpan

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)

_TABLE_SIZE = 4096
_table_cache: dict[tuple[int, int], np.ndarray] = {}

PROVENANCE_CODES = {"toy": 0, "file:pretrained": 1, "file:finetuned": 2}
PROVENANCE_NAMES = {v: k for k, v in PROVENANCE_CODES.items()}

EMBED_MAGIC = b"SDEM"
EMBED_VERSION = 1


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


def _trigrams(surface: str) -> list[str]:
    padded = "\x02" + surface + "\x03"
    return [padded[i:i + 3] for i in range(len(padded) - 2)]


def _vector_table(d: int, seed: int) -> np.ndarray:
    key = (d, seed)
    if key not in _table_cache:
        rng = np.random.default_rng(seed)
        _table_cache[key] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(_TABLE_SIZE, d))
    return _table_cache[key]


def toy_embed(tk: TokenizedText, d: int, seed: int = 0) -> np.ndarray:
    """Hash-table embedding, (n, d): each token maps to the mean of its
    character trigrams' table vectors, scaled so norms sit near 1.

    Position-independent and deterministic: same surface, same vector.
    """
    if d < 8:
        raise ValueError(f"embedding dim must be >= 8, got {d}")
    table = _vector_table(d, seed)
    out = np.empty((len(tk.tokens), d))
    for i, tok in enumerate(tk.tokens):
        grams = _trigrams(tok)
        idx = [zlib.crc32(g.encode("utf-8")) % _TABLE_SIZE for g in grams]
        out[i] = table[idx].sum(axis=0) / np.sqrt(len(grams))
    return out


def append_mean_cls(vectors: np.ndarray) -> np.ndarray:
    """Append a summary row (mean pooling) acting as the CLS position.

    File-based embeddings carry a real CLS hidden state as their last row;
    this is the toy provider's equivalent.
    """
    return np.vstack([vectors, vectors.mean(axis=0, keepdims=True)])


# -- embedding file format ---------------------------------------------------
#
#   magic     4 bytes  b"SDEM"
#   version   u8       1
#   n         u32 LE   token count
#   d         u32 LE   embedding dimension
#   provenance u8      0 = toy, 1 = file:pretrained, 2 = file:finetuned
#   offsets   n * (u32, u32) LE   character start/end per token
#   data      n*d float32 LE, row-major
#
# A sidecar `<path>.sha256` holds the hex digest of the source text for
# integrity checking.

_HEADER = struct.Struct("<4sBIIB")


def write_embedding_file(path, vectors: np.ndarray, offsets: list[CharSpan],
                         provenance: str = "toy", text: str | None = None) -> None:
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    n, d = vectors.shape
    if len(offsets) != n:
        raise ValueError(f"offset count {len(offsets)} != row count {n}")
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(EMBED_MAGIC, EMBED_VERSION, n, d,
                              PROVENANCE_CODES[provenance]))
        off = np.array([(o.x1, o.x2) for o in offsets], dtype="<u4")
        fh.write(off.tobytes())
        fh.write(vectors.tobytes())
    if text is not None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        Path(str(path) + ".sha256").write_text(digest + "\n")


@dataclass
class EmbeddingFile:
    vectors: np.ndarray  # float32, exactly as stored
    offsets: list[CharSpan]
    provenance: str


def read_embedding_file(path) -> EmbeddingFile:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated embedding file (no header)")
    magic, version, n, d, prov = _HEADER.unpack_from(raw)
    if magic != EMBED_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != EMBED_VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if prov not in PROVENANCE_NAMES:
        raise ValueError(f"{path}: unknown provenance byte {prov}")
    need = _HEADER.size + n * 8 + n * d * 4
    if len(raw) < need:
        raise ValueError(f"{path}: truncated embedding file "
                         f"(expected {need} bytes, found {len(raw)})")
    off = np.frombuffer(raw, dtype="<u4", count=2 * n, offset=_HEADER.size)
    offsets = [CharSpan(int(a), int(b)) for a, b in off.reshape(n, 2)]
    vec = np.frombuffer(raw, dtype="<f4", count=n * d,
                        offset=_HEADER.size + n * 8).reshape(n, d).copy()
    return EmbeddingFile(vec, offsets, PROVENANCE_NAMES[prov])


def check_against_text(path, offsets: list[CharSpan], text: str) -> None:
    """Raise ValueError unless a feature file fits `text`: the sidecar hash,
    when there is one, is the text's, and the token offsets are sorted and
    end inside the text."""
    sidecar = Path(str(path) + ".sha256")
    if sidecar.exists():
        want = sidecar.read_text().strip()
        got = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if want != got:
            raise ValueError(f"{path}: source text hash mismatch")
    for i in range(1, len(offsets)):
        if offsets[i].x1 < offsets[i - 1].x1:
            raise ValueError(f"{path}: token offsets are not sorted (token {i} starts at "
                             f"{offsets[i].x1}, before token {i - 1} at {offsets[i - 1].x1})")
    for i, o in enumerate(offsets):
        if o.x2 > len(text):
            raise ValueError(f"{path}: token {i} ends at {o.x2}, past the end of the "
                             f"{len(text)}-character text")


def load_features(path, text: str) -> tuple[np.ndarray, np.ndarray]:
    """A feature file checked against its source `text`: the vectors upcast
    to float64 and each token's normalized character midpoint in [0, 1]."""
    ef = read_embedding_file(path)
    check_against_text(path, ef.offsets, text)
    return ef.vectors.astype(np.float64), token_positions(ef.offsets, len(text))


def snap_to_token_bounds(span: CharSpan, offsets: list[CharSpan]) -> tuple[CharSpan, int]:
    """Snap a character span to the nearest token boundaries.

    Returns the snapped span and the total character distance moved.
    """
    starts = [o.x1 for o in offsets]
    ends = [o.x2 for o in offsets]
    x1 = min(starts, key=lambda s: (abs(s - span.x1), s))
    x2 = min(ends, key=lambda e: (abs(e - span.x2), e))
    if x2 <= x1:  # degenerate snap: cover the token nearest the span start
        for o in offsets:
            if o.x2 > x1:
                x1, x2 = o.x1, o.x2
                break
    return CharSpan(x1, x2), abs(x1 - span.x1) + abs(x2 - span.x2)

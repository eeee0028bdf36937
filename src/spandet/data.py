"""Annotated corpora: data model, line-record persistence, format converters
for boundary-style datasets, and a synthetic mixed-authorship generator.

Ground-truth intervals are stored in characters and never snapped at load
time; sentence/token snapping happens inside evaluation post-processing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import CharSpan
from .textproc import token_positions, tokenize, toy_embed

LABEL_HUMAN = 0
LABEL_MACHINE = 1
LABEL_MIXED = 2


@dataclass
class AnnotatedText:
    id: str
    text: str
    intervals: list[CharSpan]
    label: int
    domain: str | None = None
    sentence_offsets: list[CharSpan] | None = None

    def validate(self) -> "AnnotatedText":
        n = len(self.text)
        if n == 0:
            raise ValueError(f"{self.id}: empty text")
        prev_end = -1
        for sp in self.intervals:
            if sp.x1 < prev_end:
                raise ValueError(f"{self.id}: intervals overlap or are unsorted at {sp}")
            if sp.x2 > n:
                raise ValueError(f"{self.id}: interval {sp} exceeds text length {n}")
            prev_end = sp.x2
        if self.label != derive_label(self.intervals, n):
            raise ValueError(f"{self.id}: label {self.label} inconsistent with "
                             f"{len(self.intervals)} interval(s)")
        if self.sentence_offsets is not None:
            for sp in self.sentence_offsets:
                if sp.x2 > n:
                    raise ValueError(f"{self.id}: sentence offset {sp} exceeds text")
        return self


def derive_label(intervals: list[CharSpan], text_len: int) -> int:
    if not intervals:
        return LABEL_HUMAN
    if len(intervals) == 1 and intervals[0].x1 == 0 and intervals[0].x2 == text_len:
        return LABEL_MACHINE
    return LABEL_MIXED


@dataclass
class DatasetSplit:
    train: list[AnnotatedText] = field(default_factory=list)
    val: list[AnnotatedText] = field(default_factory=list)
    test: list[AnnotatedText] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def check_disjoint(self) -> "DatasetSplit":
        seen: dict[str, str] = {}
        for part, items in [("train", self.train), ("val", self.val), ("test", self.test)]:
            for s in items:
                if s.id in seen:
                    raise ValueError(f"id {s.id!r} appears in both {seen[s.id]} and {part}")
                seen[s.id] = part
        return self


# -- line-record persistence --------------------------------------------------


def _to_record(s: AnnotatedText) -> dict:
    rec = {"id": s.id, "text": s.text,
           "intervals": [[sp.x1, sp.x2] for sp in s.intervals],
           "label": s.label}
    if s.domain is not None:
        rec["domain"] = s.domain
    if s.sentence_offsets is not None:
        rec["sentence_offsets"] = [[sp.x1, sp.x2] for sp in s.sentence_offsets]
    return rec


def _from_record(rec: dict) -> AnnotatedText:
    spans = [CharSpan(int(a), int(b)) for a, b in rec["intervals"]]
    sents = None
    if "sentence_offsets" in rec:
        sents = [CharSpan(int(a), int(b)) for a, b in rec["sentence_offsets"]]
    return AnnotatedText(str(rec["id"]), rec["text"], spans, int(rec["label"]),
                         rec.get("domain"), sents).validate()


def save_annotations(path, items: list[AnnotatedText]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in items:
            fh.write(json.dumps(_to_record(s), sort_keys=True) + "\n")


def load_annotations(path) -> list[AnnotatedText]:
    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                items.append(_from_record(json.loads(line)))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: invalid record: {e}") from e
    return items


def save_split(dirpath, split: DatasetSplit) -> None:
    split.check_disjoint()
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for name, items in [("train", split.train), ("val", split.val), ("test", split.test)]:
        save_annotations(dirpath / f"{name}.jsonl", items)
    (dirpath / "meta.json").write_text(json.dumps(split.meta, indent=2, sort_keys=True) + "\n")


def load_split(dirpath) -> DatasetSplit:
    dirpath = Path(dirpath)
    parts = {}
    for name in ("train", "val", "test"):
        p = dirpath / f"{name}.jsonl"
        parts[name] = load_annotations(p) if p.exists() else []
    meta_path = dirpath / "meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return DatasetSplit(parts["train"], parts["val"], parts["test"], meta).check_disjoint()


# -- converters ---------------------------------------------------------------


def _join_sentences(sentences: list[str]) -> tuple[str, list[CharSpan]]:
    """Single-space joining with per-sentence character offsets."""
    offsets = []
    pos = 0
    pieces = []
    for i, s in enumerate(sentences):
        if not s:
            raise ValueError(f"sentence {i} is empty")
        if i:
            pos += 1
        offsets.append(CharSpan(pos, pos + len(s)))
        pieces.append(s)
        pos += len(s)
    return " ".join(pieces), offsets


def roft_to_intervals(sentences: list[str], boundary: int,
                      text_id: str = "roft", domain: str | None = None) -> AnnotatedText:
    """Boundary = index of the first generated sentence; len(sentences) means
    the text is fully human."""
    if not 0 <= boundary <= len(sentences):
        raise ValueError(f"boundary {boundary} outside [0, {len(sentences)}]")
    text, offsets = _join_sentences(sentences)
    if boundary == len(sentences):
        intervals: list[CharSpan] = []
    else:
        intervals = [CharSpan(offsets[boundary].x1, len(text))]
    return AnnotatedText(text_id, text, intervals,
                         derive_label(intervals, len(text)),
                         domain, offsets).validate()


def tribert_to_intervals(sentences: list[str], boundaries: list[int],
                         first_author: str = "human",
                         text_id: str = "tribert", domain: str | None = None) -> AnnotatedText:
    """Boundaries are sentence indices where authorship flips; segments
    alternate starting from `first_author` ("human" or "machine")."""
    if first_author not in ("human", "machine"):
        raise ValueError(f"unknown first_author {first_author!r}")
    bs = sorted(set(boundaries))
    if bs and (bs[0] < 1 or bs[-1] >= len(sentences)):
        raise ValueError(f"boundaries {bs} must lie strictly inside [1, {len(sentences) - 1}]")
    text, offsets = _join_sentences(sentences)
    cuts = [0] + bs + [len(sentences)]
    machine = first_author == "machine"
    intervals = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if machine:
            intervals.append(CharSpan(offsets[a].x1, offsets[b - 1].x2))
        machine = not machine
    return AnnotatedText(text_id, text, intervals,
                         derive_label(intervals, len(text)),
                         domain, offsets).validate()


def coauthor_to_intervals(text: str, machine_spans: list[tuple[int, int]],
                          text_id: str = "coauthor", domain: str | None = None) -> AnnotatedText:
    """Character-level machine spans, as logged by a writing assistant."""
    spans = sorted(CharSpan(int(a), int(b)) for a, b in machine_spans)
    merged: list[CharSpan] = []
    for sp in spans:
        if merged and sp.x1 <= merged[-1].x2:
            merged[-1] = CharSpan(merged[-1].x1, max(merged[-1].x2, sp.x2))
        else:
            merged.append(sp)
    return AnnotatedText(text_id, text, merged,
                         derive_label(merged, len(text)),
                         domain, split_sentences(text)).validate()


# -- sentence splitting -------------------------------------------------------

_TERMINALS = ".!?"
_CLOSERS = "\"')]"


def split_sentences(text: str) -> list[CharSpan]:
    """Naive splitter: a sentence ends at terminal punctuation followed by
    whitespace (or end of text). Abbreviations like "Dr." over-split; that is
    the documented cost of staying segmentation-model-free."""
    if not text or not text.strip():
        raise ValueError("cannot split empty or whitespace-only text")
    spans = []
    n = len(text)
    i = 0
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        j = i
        end = None
        while j < n:
            if text[j] in _TERMINALS:
                k = j
                while k + 1 < n and text[k + 1] in _TERMINALS + _CLOSERS:
                    k += 1
                if k + 1 >= n or text[k + 1].isspace():
                    end = k + 1
                    break
                j = k
            j += 1
        if end is None:
            end = n
            while end > i and text[end - 1].isspace():
                end -= 1
        spans.append(CharSpan(i, end))
        i = end
    return spans


# -- synthetic corpus ---------------------------------------------------------


@dataclass
class SynthSpec:
    n_texts: int = 2000
    style: str = "roft"              # "roft" | "binary" | "multi"
    n_sentences: int = 10
    words_per_sentence: tuple[int, int] = (3, 7)
    max_boundaries: int = 3          # used by "multi"
    signal: float = 5.0              # embedding offset scale inside GT intervals
    embed_dim: int = 32
    embed_seed: int = 0
    vocab_size: int = 200
    split_fracs: tuple[float, float] = (0.7, 0.15)   # train, val (rest = test)

    def __post_init__(self):
        if self.signal < 0:
            raise ValueError(f"signal strength {self.signal} must be >= 0")
        if self.style not in ("roft", "binary", "multi"):
            raise ValueError(f"unknown style {self.style!r}")
        if self.n_texts < 1:
            raise ValueError("need at least one text")


def _make_vocab(rng: np.random.Generator, size: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = set()
    while len(vocab) < size:
        length = int(rng.integers(3, 9))
        vocab.add("".join(letters[i] for i in rng.integers(0, 26, size=length)))
    return sorted(vocab)


def _make_text(rng: np.random.Generator, vocab: list[str], spec: SynthSpec):
    lo, hi = spec.words_per_sentence
    sentences = []
    for _ in range(spec.n_sentences):
        k = int(rng.integers(lo, hi + 1))
        words = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(k)]
        sentences.append(" ".join(words) + ".")
    return _join_sentences(sentences)


def synth_generate(spec: SynthSpec, seed: int = 0) -> DatasetSplit:
    """Deterministic mixed-authorship corpus with exactly known ground truth.

    The authorship signal lives in the embeddings (see
    `synthetic_provider`), not in the surface text.
    """
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(rng, spec.vocab_size)
    items = []
    for i in range(spec.n_texts):
        text, offsets = _make_text(rng, vocab, spec)
        ns = len(offsets)
        if spec.style == "roft":
            boundary = int(rng.integers(0, ns))    # every text has one interval
            intervals = [CharSpan(offsets[boundary].x1, len(text))]
        elif spec.style == "binary":
            if i % 2 == 0:
                intervals = []
            else:
                intervals = [CharSpan(0, len(text))]
        else:  # multi
            n_bounds = int(rng.integers(1, spec.max_boundaries + 1))
            cuts = sorted(rng.choice(np.arange(1, ns), size=min(n_bounds, ns - 1),
                                     replace=False).tolist())
            machine = bool(rng.integers(0, 2))
            intervals = []
            edges = [0] + cuts + [ns]
            for a, b in zip(edges[:-1], edges[1:]):
                if machine:
                    intervals.append(CharSpan(offsets[a].x1, offsets[b - 1].x2))
                machine = not machine
        items.append(AnnotatedText(
            f"{spec.style}-{seed}-{i:05d}", text, intervals,
            derive_label(intervals, len(text)), spec.style, offsets).validate())

    n_train = int(spec.split_fracs[0] * spec.n_texts)
    n_val = int(spec.split_fracs[1] * spec.n_texts)
    meta = {"generator": "synth", "seed": seed,
            "spec": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in vars(spec).items()}}
    return DatasetSplit(items[:n_train], items[n_train:n_train + n_val],
                        items[n_train + n_val:], meta).check_disjoint()


def signal_direction(d: int, seed: int) -> np.ndarray:
    """Fixed unit vector along which generated-token embeddings are offset."""
    v = np.random.default_rng(seed ^ 0x5D5D5D).normal(size=d)
    return v / np.linalg.norm(v)


def embed_with_signal(sample: AnnotatedText, d: int, seed: int,
                      sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Toy embeddings where tokens inside GT intervals are shifted by
    sigma along a fixed direction, standing in for features from a
    fine-tuned LLM. Returns (vectors, normalized token midpoints)."""
    tk = tokenize(sample.text)
    vectors = toy_embed(tk, d, seed)
    if sigma > 0 and sample.intervals:
        u = signal_direction(d, seed)
        for i, off in enumerate(tk.offsets):
            mid = (off.x1 + off.x2) / 2.0
            if any(sp.x1 <= mid < sp.x2 for sp in sample.intervals):
                vectors[i] = vectors[i] + sigma * u
    return vectors, token_positions(tk.offsets, len(sample.text))


def synthetic_provider(meta: dict):
    """Build the embedding provider recorded in a generated dataset's meta."""
    spec = meta.get("spec", {})
    d = int(spec.get("embed_dim", 32))
    seed = int(spec.get("embed_seed", 0))
    sigma = float(spec.get("signal", 0.0))

    def provide(sample: AnnotatedText):
        return embed_with_signal(sample, d, seed, sigma)

    return provide


# -- prediction records -------------------------------------------------------


def save_predictions(path, preds: list[dict]) -> None:
    """One record per text: {"id", "intervals": [[x1, x2], ...], "scores": [...]}."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in preds:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def load_predictions(path) -> dict[str, dict]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json.loads(line)
            if "id" not in rec or "intervals" not in rec or "scores" not in rec:
                raise ValueError(f"{path}:{lineno}: prediction record missing fields")
            if len(rec["intervals"]) != len(rec["scores"]):
                raise ValueError(f"{path}:{lineno}: intervals/scores length mismatch")
            out[str(rec["id"])] = rec
    return out

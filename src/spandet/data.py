"""Annotated corpora: data model, line-record persistence, format converters
for boundary-style datasets, and a synthetic mixed-authorship generator.

Ground-truth intervals are stored in characters and never snapped at load
time; sentence/token snapping happens inside evaluation post-processing.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .files import write_json, write_jsonl
from .geometry import CharSpan, merge_spans
from .textproc import check_embed_dim, token_positions, tokenize, toy_embed

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
        """Check the record: the types its writer stores (a str text and
        domain, an int label); a non-empty text; intervals and sentence offsets
        each sorted, disjoint (touching is fine) and inside the text, as the
        sentence metrics assume; a label that `derive_label` agrees with."""
        _typed(self.text, str, f"{self.id}: text")
        _typed(self.label, int, f"{self.id}: label")
        if self.domain is not None:
            _typed(self.domain, str, f"{self.id}: domain")
        if not self.text:
            raise ValueError(f"{self.id}: empty text")
        self._check_spans(self.intervals, "interval")
        if self.label != derive_label(self.intervals, len(self.text)):
            raise ValueError(f"{self.id}: label {self.label} inconsistent with "
                             f"{len(self.intervals)} interval(s)")
        if self.sentence_offsets is not None:
            self._check_spans(self.sentence_offsets, "sentence offset")
        return self

    def _check_spans(self, spans: list[CharSpan], what: str) -> None:
        n, prev_end = len(self.text), 0
        for sp in spans:
            if sp.x1 < prev_end:
                raise ValueError(f"{self.id}: {what}s overlap or are unsorted at {sp}")
            if sp.x2 > n:
                raise ValueError(f"{self.id}: {what} {sp} exceeds text length {n}")
            prev_end = sp.x2


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
    sents = None
    if "sentence_offsets" in rec:
        sents = _int_pairs(rec["sentence_offsets"], "sentence offset")
    return AnnotatedText(str(rec["id"]), rec["text"], _int_pairs(rec["intervals"], "interval"),
                         rec["label"], rec.get("domain"), sents).validate()


def _typed(value, kind: type, what: str):
    """`value`, whose type must be `kind` exactly (so a bool is no int);
    ``ValueError`` naming `what` otherwise."""
    if type(value) is not kind:
        raise ValueError(f"{what} {reprlib.repr(value)} has type {type(value).__name__}, "
                         f"not {kind.__name__}")
    return value


def _int_pairs(pairs, what: str) -> list[CharSpan]:
    """A record's list of ``[x1, x2]`` int pairs with ``0 <= x1 < x2``, as
    spans; ``ValueError`` naming `what` and the offending value otherwise."""
    if type(pairs) is not list:
        raise ValueError(f"{what}s {reprlib.repr(pairs)} is not a list")
    for iv in pairs:
        if not (type(iv) is list and len(iv) == 2
                and all(type(x) is int for x in iv) and 0 <= iv[0] < iv[1]):
            raise ValueError(f"{what} {reprlib.repr(iv)} is not an int pair 0 <= x1 < x2")
    return [CharSpan(*iv) for iv in pairs]


def json_object(line: str) -> dict:
    """One JSONL line's record; ``ValueError`` unless it is a JSON object."""
    rec = json.loads(line)
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object, got {type(rec).__name__}")
    return rec


def save_annotations(path, items: list[AnnotatedText]) -> None:
    write_jsonl(path, (_to_record(s) for s in items))


def load_annotations(path) -> list[AnnotatedText]:
    items = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                items.append(_from_record(json_object(line)))
            except (KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: invalid record: {e}") from e
    return items


def save_split(dirpath, split: DatasetSplit) -> None:
    split.check_disjoint()
    dirpath = Path(dirpath)
    for name, items in [("train", split.train), ("val", split.val), ("test", split.test)]:
        save_annotations(dirpath / f"{name}.jsonl", items)
    write_json(dirpath / "meta.json", split.meta)


def load_split(dirpath) -> DatasetSplit:
    dirpath = Path(dirpath)
    parts = {}
    for name in ("train", "val", "test"):
        p = dirpath / f"{name}.jsonl"
        parts[name] = load_annotations(p) if p.exists() else []
    meta_path = dirpath / "meta.json"
    meta = read_meta(meta_path) if meta_path.exists() else {}
    return DatasetSplit(parts["train"], parts["val"], parts["test"], meta).check_disjoint()


def read_meta(path) -> dict:
    """A dataset's ``meta.json``, checked: a JSON object whose ``spec``, if
    any, is an object with an int ``embed_dim`` and ``embed_seed`` and a
    number ``signal`` where it gives them (what ``synthetic_provider`` reads),
    each passing its rule (``check_embed_dim``, ``check_embed_seed``,
    ``check_signal``). Raises ``ValueError`` naming `path` and the bad field."""
    try:
        meta = json.loads(Path(path).read_text())
    except ValueError as e:  # bad JSON or bad UTF-8
        raise ValueError(f"{path}: not a JSON document: {e}") from e
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: {meta!r} is not a JSON object")
    spec = meta.get("spec", {})
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: spec {spec!r} is not a JSON object")
    for name, kinds in (("embed_dim", (int,)), ("embed_seed", (int,)), ("signal", (int, float))):
        if name in spec and type(spec[name]) not in kinds:
            raise ValueError(f"{path}: spec field {name} is {spec[name]!r}, not "
                             f"{'an int' if kinds == (int,) else 'a number'}")
    for name, rule in (("embed_dim", check_embed_dim), ("embed_seed", check_embed_seed),
                       ("signal", check_signal)):
        if name in spec:
            try:  # the rules ``SynthSpec`` applies before it writes a dataset
                rule(spec[name])
            except ValueError as e:
                raise ValueError(f"{path}: spec field {name}: {e}") from e
    return meta


# -- converters ---------------------------------------------------------------


def _join_sentences(sentences: list[str]) -> tuple[str, list[CharSpan]]:
    """Single-space joining with per-sentence character offsets; `sentences`
    is a list of non-empty strings."""
    for i, s in enumerate(_typed(sentences, list, "sentences")):
        _typed(s, str, f"sentence {i}")
    if "" in sentences:
        raise ValueError(f"sentence {sentences.index('')} is empty")
    starts = accumulate((len(s) + 1 for s in sentences[:-1]), initial=0)
    return " ".join(sentences), [CharSpan(a, a + len(s)) for a, s in zip(starts, sentences)]


def roft_to_intervals(sentences: list[str], boundary: int,
                      text_id: str = "roft", domain: str | None = None) -> AnnotatedText:
    """Boundary = index of the first generated sentence; len(sentences) means
    the text is fully human. The record is the tribert one with one cut at
    the boundary."""
    if not 0 <= _typed(boundary, int, "boundary") <= len(_typed(sentences, list, "sentences")):
        raise ValueError(f"boundary {boundary} outside [0, {len(sentences)}]")
    cuts = [boundary] if 0 < boundary < len(sentences) else []
    first = "machine" if boundary == 0 < len(sentences) else "human"
    return tribert_to_intervals(sentences, cuts, first, text_id, domain)


def tribert_to_intervals(sentences: list[str], boundaries: list[int],
                         first_author: str = "human",
                         text_id: str = "tribert", domain: str | None = None) -> AnnotatedText:
    """Boundaries are sentence indices where authorship flips; segments
    alternate starting from `first_author` ("human" or "machine")."""
    if first_author not in ("human", "machine"):
        raise ValueError(f"unknown first_author {first_author!r}")
    bs = sorted({_typed(b, int, "boundary") for b in _typed(boundaries, list, "boundaries")})
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


def coauthor_to_intervals(text: str, machine_spans: list[list[int]],
                          text_id: str = "coauthor", domain: str | None = None) -> AnnotatedText:
    """Character-level machine spans, as logged by a writing assistant: a
    list of int pairs ``[x1, x2]``, merged where they overlap or touch."""
    merged = merge_spans(_int_pairs(machine_spans, "machine span"))
    return AnnotatedText(text_id, text, merged, derive_label(merged, len(text)),
                         domain, split_sentences(_typed(text, str, "text"))).validate()


# -- sentence splitting -------------------------------------------------------

_PUNCTUATION_RUN = re.compile(r"""[.!?"')\]]+""")  # terminals and closers


def split_sentences(text: str) -> list[CharSpan]:
    """Naive splitter: a sentence ends where a maximal run of terminals
    (``.!?``) and closers (``"')]``) that holds a terminal is followed by
    whitespace or the end of the text; each piece between ends, stripped of
    its surrounding whitespace, is a sentence. Abbreviations like "Dr."
    over-split; that is the documented cost of staying segmentation-model-free."""
    if not text.strip():
        raise ValueError("cannot split empty or whitespace-only text")
    ends = [m.end() for m in _PUNCTUATION_RUN.finditer(text)
            if (m.end() == len(text) or text[m.end()].isspace())
            and any(c in ".!?" for c in m[0])]
    spans, start = [], 0
    for end in ends + [len(text)]:
        piece = text[start:end]
        x1, x2 = start + len(piece) - len(piece.lstrip()), start + len(piece.rstrip())
        if x1 < x2:
            spans.append(CharSpan(x1, x2))
        start = end
    return spans


# -- synthetic corpus ---------------------------------------------------------


def check_signal(signal: float) -> None:
    """The rule for the synthetic corpus's signal strength: finite and >= 0."""
    if not 0 <= signal < math.inf:
        raise ValueError(f"signal strength {signal} must be a finite number >= 0")


def check_embed_seed(seed: int) -> None:
    """The rule for the toy provider's table seed: >= 0, as numpy demands."""
    if seed < 0:
        raise ValueError(f"embedding table seed {seed} must be >= 0")


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
        check_signal(self.signal)
        if self.style not in ("roft", "binary", "multi"):
            raise ValueError(f"unknown style {self.style!r}")
        if self.n_texts < 1:
            raise ValueError("need at least one text")
        for name in ("n_sentences", "vocab_size", "max_boundaries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: {getattr(self, name)} must be >= 1")
        lo, hi = self.words_per_sentence
        if not 1 <= lo <= hi:
            raise ValueError(f"words_per_sentence: {self.words_per_sentence} must have "
                             f"1 <= lo <= hi")
        if not (all(0 <= f <= 1 for f in self.split_fracs) and sum(self.split_fracs) <= 1):
            raise ValueError(f"split_fracs: {self.split_fracs} must each lie in [0, 1] "
                             f"with a sum of at most 1")
        for name, rule in (("embed_dim", check_embed_dim), ("embed_seed", check_embed_seed)):
            try:  # the toy provider's rules, before any dataset records the value
                rule(getattr(self, name))
            except ValueError as e:
                raise ValueError(f"{name}: {e}") from e


def _make_vocab(rng: np.random.Generator, size: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    vocab = set()
    while len(vocab) < size:
        length = int(rng.integers(3, 9))
        vocab.add("".join(letters[i] for i in rng.integers(0, 26, size=length)))
    return sorted(vocab)


def _make_sentences(rng: np.random.Generator, vocab: list[str], spec: SynthSpec) -> list[str]:
    lo, hi = spec.words_per_sentence
    sentences = []
    for _ in range(spec.n_sentences):
        k = int(rng.integers(lo, hi + 1))
        sentences.append(" ".join(vocab[i] for i in rng.integers(0, len(vocab), size=k)) + ".")
    return sentences


def synth_generate(spec: SynthSpec, seed: int = 0) -> DatasetSplit:
    """Deterministic mixed-authorship corpus with exactly known ground truth.
    Each text goes through the converter of its style: `roft_to_intervals`
    for roft and binary, `tribert_to_intervals` for multi.

    The authorship signal lives in the embeddings (see
    `synthetic_provider`), not in the surface text.
    """
    rng = np.random.default_rng(seed)
    vocab = _make_vocab(rng, spec.vocab_size)
    items = []
    for i in range(spec.n_texts):
        sentences = _make_sentences(rng, vocab, spec)
        ns, text_id = len(sentences), f"{spec.style}-{seed}-{i:05d}"
        if spec.style == "roft":  # every text has one interval
            item = roft_to_intervals(sentences, int(rng.integers(0, ns)), text_id, spec.style)
        elif spec.style == "binary":  # even texts all human, odd ones all machine
            item = roft_to_intervals(sentences, ns if i % 2 == 0 else 0, text_id, spec.style)
        else:  # multi
            n_bounds = int(rng.integers(1, spec.max_boundaries + 1))
            cuts = rng.choice(np.arange(1, ns), size=min(n_bounds, ns - 1), replace=False)
            first = "machine" if rng.integers(0, 2) else "human"
            item = tribert_to_intervals(sentences, cuts.tolist(), first, text_id, spec.style)
        items.append(item)

    n_train = int(spec.split_fracs[0] * spec.n_texts)
    n_val = int(spec.split_fracs[1] * spec.n_texts)
    meta = {"generator": "synth", "seed": seed,
            "spec": {k: list(v) if isinstance(v, tuple) else v
                     for k, v in vars(spec).items()}}
    return DatasetSplit(items[:n_train], items[n_train:n_train + n_val],
                        items[n_train + n_val:], meta).check_disjoint()


_direction_cache: dict[tuple[int, int], np.ndarray] = {}


def signal_direction(d: int, seed: int) -> np.ndarray:
    """Fixed unit vector along which generated-token embeddings are offset;
    made once per (d, seed) and read-only."""
    key = (d, seed)
    if key not in _direction_cache:
        v = np.random.default_rng(seed ^ 0x5D5D5D).normal(size=d)
        u = v / np.linalg.norm(v)
        u.setflags(write=False)
        _direction_cache[key] = u
    return _direction_cache[key]


def embed_with_signal(sample: AnnotatedText, d: int, seed: int,
                      sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Toy embeddings where tokens whose midpoint lies in a GT interval are
    shifted by sigma along a fixed direction, standing in for features from
    a fine-tuned LLM. Returns (vectors, normalized token midpoints)."""
    tk = tokenize(sample.text)
    vectors = toy_embed(tk, d, seed)
    pos = token_positions(tk.offsets, len(sample.text))
    if sigma > 0 and sample.intervals:
        ends = np.array([(sp.x1, sp.x2) for sp in sample.intervals]) / len(sample.text)
        marked = ((ends[:, :1] <= pos) & (pos < ends[:, 1:])).any(axis=0)
        vectors[marked] += sigma * signal_direction(d, seed)
    return vectors, pos


def synthetic_provider(meta: dict):
    """Build the embedding provider recorded in a generated dataset's meta
    (as ``read_meta`` checks it)."""
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
    write_jsonl(path, preds)


def load_predictions(path) -> dict[str, dict]:
    """Prediction records by id, each checked: a JSON object, lists of
    intervals and scores with one score per interval, scores numbers in
    [0, 1] (not NaN), intervals integer pairs ``[x1, x2]`` with
    ``0 <= x1 < x2``, an id no earlier record has. Errors
    name ``path:line`` (and the record)."""
    out, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json_object(line)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from e
            if "id" not in rec or "intervals" not in rec or "scores" not in rec:
                raise ValueError(f"{path}:{lineno}: prediction record missing fields")
            where = f"{path}:{lineno}: record {rec['id']}"
            for field in ("intervals", "scores"):
                if type(rec[field]) is not list:
                    raise ValueError(f"{where}: {field} {rec[field]!r} is not a list")
            if len(rec["intervals"]) != len(rec["scores"]):
                raise ValueError(f"{where}: intervals/scores length mismatch")
            for score in rec["scores"]:
                if not (type(score) in (int, float) and 0.0 <= score <= 1.0):  # not NaN
                    raise ValueError(f"{where}: score {score!r} is not a number in [0, 1]")
            try:
                _int_pairs(rec["intervals"], "interval")
            except ValueError as e:
                raise ValueError(f"{where}: {e}") from e
            key = str(rec["id"])
            if key in lines:
                raise ValueError(f"{where}: id repeats the record at {path}:{lines[key]}")
            out[key], lines[key] = rec, lineno
    return out

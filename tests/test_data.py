import json

import numpy as np
import pytest

from spandet.data import (LABEL_HUMAN, LABEL_MACHINE, LABEL_MIXED,
                          AnnotatedText, DatasetSplit, SynthSpec,
                          coauthor_to_intervals, derive_label,
                          embed_with_signal, load_annotations, load_split,
                          roft_to_intervals, save_annotations, save_split,
                          signal_direction, split_sentences, synth_generate,
                          synthetic_provider, tribert_to_intervals)
from spandet.geometry import CharSpan
from spandet.metrics import interval_to_sentence
from spandet.textproc import tokenize, toy_embed


def test_annotation_validation_accepts_human_record():
    AnnotatedText("a", "hello world", [], LABEL_HUMAN).validate()


def test_annotation_validation_rejects_inconsistent_label():
    with pytest.raises(ValueError, match="inconsistent"):
        AnnotatedText("a", "hello world", [], LABEL_MACHINE).validate()
    with pytest.raises(ValueError, match="inconsistent"):
        AnnotatedText("a", "hello", [CharSpan(0, 5)], LABEL_MIXED).validate()


def test_annotation_validation_rejects_bad_intervals():
    with pytest.raises(ValueError):
        CharSpan(5, 3)
    with pytest.raises(ValueError, match="exceeds"):
        AnnotatedText("a", "hi", [CharSpan(0, 5)], LABEL_MIXED).validate()
    with pytest.raises(ValueError, match="overlap"):
        AnnotatedText("a", "hello world", [CharSpan(0, 4), CharSpan(2, 6)],
                      LABEL_MIXED).validate()


def test_derive_label():
    assert derive_label([], 10) == LABEL_HUMAN
    assert derive_label([CharSpan(0, 10)], 10) == LABEL_MACHINE
    assert derive_label([CharSpan(0, 5)], 10) == LABEL_MIXED


def test_roundtrip_save_load(tmp_path):
    items = [
        AnnotatedText("h1", "plain human words.", [], LABEL_HUMAN),
        AnnotatedText("m1", "machine made text.", [CharSpan(0, 18)], LABEL_MACHINE,
                      domain="news"),
        AnnotatedText("x1", "half and half now.", [CharSpan(5, 13)], LABEL_MIXED,
                      sentence_offsets=[CharSpan(0, 18)]),
    ]
    path = tmp_path / "data.jsonl"
    save_annotations(path, items)
    loaded = load_annotations(path)
    assert loaded == items
    save_annotations(tmp_path / "again.jsonl", loaded)
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "text": "hi there", "intervals": [], "label": 0})
    bad = json.dumps({"id": "b", "text": "hi", "intervals": [[5, 3]], "label": 2})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        load_annotations(path)


def test_split_disjoint_ids(tmp_path):
    a = AnnotatedText("dup", "one two.", [], LABEL_HUMAN)
    split = DatasetSplit(train=[a], val=[a])
    with pytest.raises(ValueError, match="dup"):
        save_split(tmp_path / "d", split)


def test_split_roundtrip(tmp_path):
    spec = SynthSpec(n_texts=12, n_sentences=3, words_per_sentence=(2, 3))
    split = synth_generate(spec, seed=5)
    save_split(tmp_path / "ds", split)
    again = load_split(tmp_path / "ds")
    assert again.train == split.train
    assert again.meta == split.meta


# -- converters -----------------------------------------------------------------


SENTS = [f"sentence number {i} here." for i in range(10)]


def test_roft_fully_human():
    item = roft_to_intervals(SENTS, 10)
    assert item.intervals == [] and item.label == LABEL_HUMAN


def test_roft_fully_machine():
    item = roft_to_intervals(SENTS, 0)
    assert item.intervals == [CharSpan(0, len(item.text))]
    assert item.label == LABEL_MACHINE


def test_roft_known_offsets():
    item = roft_to_intervals(SENTS, 7)
    start = sum(len(s) + 1 for s in SENTS[:7])   # single-space joining
    assert item.intervals == [CharSpan(start, len(item.text))]
    assert item.label == LABEL_MIXED
    assert item.sentence_offsets[7].x1 == start


def test_roft_boundary_out_of_range():
    with pytest.raises(ValueError):
        roft_to_intervals(SENTS, 11)


def test_roft_boundary_recovery_identity():
    for boundary in range(10):
        item = roft_to_intervals(SENTS, boundary)
        got = interval_to_sentence(item.intervals[0].x1, item.sentence_offsets)
        assert got == boundary


def test_tribert_three_boundaries():
    item = tribert_to_intervals(SENTS, [2, 5, 8], first_author="human")
    assert item.label == LABEL_MIXED
    assert len(item.intervals) == 2           # sentences [2,5) and [8,10)
    assert item.intervals[0].x1 == item.sentence_offsets[2].x1
    assert item.intervals[0].x2 == item.sentence_offsets[4].x2
    assert item.intervals[1].x2 == len(item.text)


def test_tribert_machine_first():
    item = tribert_to_intervals(SENTS[:4], [2], first_author="machine")
    assert item.intervals == [CharSpan(0, item.sentence_offsets[1].x2)]


def test_tribert_validation():
    with pytest.raises(ValueError):
        tribert_to_intervals(SENTS, [0])
    with pytest.raises(ValueError):
        tribert_to_intervals(SENTS, [2], first_author="robot")


def test_coauthor_merges_overlaps():
    text = "abcdefghij klmno pqrst."
    item = coauthor_to_intervals(text, [[0, 5], [3, 8], [15, 22]])
    assert item.intervals == [CharSpan(0, 8), CharSpan(15, 22)]
    assert item.label == LABEL_MIXED


# -- sentence splitting -----------------------------------------------------------


def test_split_two_sentences():
    assert split_sentences("A. B.") == [CharSpan(0, 2), CharSpan(3, 5)]


def test_split_no_terminal_punctuation():
    assert split_sentences("no punctuation at all") == [CharSpan(0, 21)]


def test_split_naive_abbreviation_oversplits():
    # the naive terminal-punctuation rule treats "Dr." as a sentence end;
    # known cost of skipping a segmentation model
    spans = split_sentences("Dr. Smith left.")
    assert spans == [CharSpan(0, 3), CharSpan(4, 15)]


def test_split_covers_non_whitespace():
    text = "  One two!   Three?  Four...  "
    spans = split_sentences(text)
    covered = set()
    for sp in spans:
        covered.update(range(sp.x1, sp.x2))
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered


def test_split_question_and_closers():
    spans = split_sentences('He said "stop!" Then left.')
    assert len(spans) == 2
    assert spans[0] == CharSpan(0, 15)


# -- synthetic corpus --------------------------------------------------------------


def test_synth_deterministic():
    spec = SynthSpec(n_texts=30, n_sentences=4, words_per_sentence=(2, 4))
    a = synth_generate(spec, seed=11)
    b = synth_generate(spec, seed=11)
    assert a.train == b.train and a.val == b.val and a.test == b.test
    c = synth_generate(spec, seed=12)
    assert c.train != a.train


def test_synth_roft_style_every_text_has_one_interval():
    split = synth_generate(SynthSpec(n_texts=40, n_sentences=5), seed=2)
    for s in split.train + split.val + split.test:
        assert len(s.intervals) == 1
        assert s.intervals[0].x2 == len(s.text)
        s.validate()


def test_synth_binary_balanced():
    split = synth_generate(SynthSpec(n_texts=40, style="binary"), seed=3)
    labels = [s.label for s in split.train + split.val + split.test]
    assert labels.count(LABEL_HUMAN) == labels.count(LABEL_MACHINE) == 20


def test_synth_multi_interval_counts():
    split = synth_generate(SynthSpec(n_texts=40, style="multi", max_boundaries=3),
                           seed=4)
    for s in split.train:
        assert 1 <= len(s.intervals) <= 2
        s.validate()


def test_synth_rejects_negative_signal():
    with pytest.raises(ValueError):
        SynthSpec(signal=-1.0)


def test_signal_zero_equals_plain_toy_embedding():
    split = synth_generate(SynthSpec(n_texts=4, signal=0.0, embed_dim=16), seed=6)
    s = split.train[0]
    vec, _ = embed_with_signal(s, 16, 0, 0.0)
    plain = toy_embed(tokenize(s.text), 16, 0)
    assert np.array_equal(vec, plain)


def test_signal_makes_tokens_linearly_separable():
    """A one-dimensional threshold on the signal direction must separate
    generated from human tokens at high sigma (projection oracle)."""
    spec = SynthSpec(n_texts=30, signal=5.0, embed_dim=32)
    split = synth_generate(spec, seed=8)
    u = signal_direction(32, 0)
    inside, outside = [], []
    for s in split.train:
        tk = tokenize(s.text)
        vec, _ = embed_with_signal(s, 32, 0, 5.0)
        proj = vec @ u
        for i, off in enumerate(tk.offsets):
            mid = (off.x1 + off.x2) / 2
            (inside if any(sp.x1 <= mid < sp.x2 for sp in s.intervals)
             else outside).append(proj[i])
    inside, outside = np.array(inside), np.array(outside)
    thr = (inside.mean() + outside.mean()) / 2
    acc = (np.concatenate([inside > thr, outside <= thr])).mean()
    assert acc >= 0.99


def test_synthetic_provider_reads_meta():
    split = synth_generate(SynthSpec(n_texts=4, signal=2.0, embed_dim=16), seed=9)
    prov = synthetic_provider(split.meta)
    vec, pos = prov(split.train[0])
    want, want_pos = embed_with_signal(split.train[0], 16, 0, 2.0)
    assert np.array_equal(vec, want) and np.array_equal(pos, want_pos)


def test_gt_intervals_align_with_token_boundaries():
    split = synth_generate(SynthSpec(n_texts=10), seed=10)
    for s in split.train:
        tk = tokenize(s.text)
        starts = {o.x1 for o in tk.offsets}
        ends = {o.x2 for o in tk.offsets}
        for sp in s.intervals:
            assert sp.x1 in starts and sp.x2 in ends

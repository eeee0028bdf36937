import hashlib
import json
import re
import tempfile
import time
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandet.data import (LABEL_HUMAN, LABEL_MACHINE, LABEL_MIXED,
                          AnnotatedText, DatasetSplit, SynthSpec,
                          coauthor_to_intervals, derive_label,
                          embed_with_signal, load_annotations, load_predictions,
                          load_split, roft_to_intervals, save_annotations, save_split,
                          signal_direction, split_sentences, synth_generate,
                          synthetic_provider, tribert_to_intervals)
from spandet.geometry import CharSpan
from spandet.metrics import interval_to_sentence
from spandet.textproc import _vector_table, tokenize, toy_embed

from oracles import reference_split_sentences


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


@pytest.mark.parametrize("offsets, message", [
    ([[6, 11], [0, 5]], "sentence offsets overlap or are unsorted at CharSpan(x1=0, x2=5)"),
    ([[0, 6], [5, 11]], "sentence offsets overlap or are unsorted at CharSpan(x1=5, x2=11)"),
    ([[0, 5], [6, 12]], "sentence offset CharSpan(x1=6, x2=12) exceeds text length 11"),
], ids=["unsorted", "overlapping", "past-the-text"])
def test_sentence_offsets_out_of_order_or_overlapping_are_rejected_at_load(tmp_path,
                                                                          offsets, message):
    rec = {"id": "s1", "text": "hello world", "intervals": [], "label": LABEL_HUMAN,
           "sentence_offsets": offsets}
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: invalid record: s1: {message}")):
        load_annotations(path)


@pytest.mark.parametrize("field, value, message", [
    ("text", ["hello world"], "s1: text ['hello world'] has type list, not str"),
    ("label", 2.9, "s1: label 2.9 has type float, not int"),
    ("label", True, "s1: label True has type bool, not int"),
    ("domain", ["news"], "s1: domain ['news'] has type list, not str"),
    ("intervals", [[3.9, 9.6]], "interval [3.9, 9.6] is not an int pair 0 <= x1 < x2"),
    ("intervals", [["3", 9]], "interval ['3', 9] is not an int pair 0 <= x1 < x2"),
    ("intervals", [[True, 9]], "interval [True, 9] is not an int pair 0 <= x1 < x2"),
    ("intervals", "3-9", "intervals '3-9' is not a list"),
    ("sentence_offsets", [[0, 5.0], [6, 11]],
     "sentence offset [0, 5.0] is not an int pair 0 <= x1 < x2"),
], ids=["text-list", "label-float", "label-bool", "domain-list", "interval-float", "interval-str",
        "interval-bool", "intervals-str", "sentence-offset-float"])
def test_load_annotations_takes_only_the_types_its_writer_stores(tmp_path, field, value,
                                                                 message):
    good = {"id": "s1", "text": "hello world", "intervals": [[3, 9]], "label": LABEL_MIXED,
            "domain": "news", "sentence_offsets": [[0, 5], [6, 11]]}
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: invalid record: {message}")):
        load_annotations(path)
    path.write_text(json.dumps(good) + "\n")
    assert load_annotations(path)[0].intervals == [CharSpan(3, 9)]


def test_touching_sentence_offsets_are_accepted():
    AnnotatedText("a", "hi.yo.", [], LABEL_HUMAN,
                  sentence_offsets=[CharSpan(0, 3), CharSpan(3, 6)]).validate()


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


def test_load_names_the_line_that_is_not_a_json_object(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "text": "hi there", "intervals": [], "label": 0})
    for line in ("5", '["a"]', good[:9]):
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:2: invalid record"):
            load_annotations(path)
    path.write_text(good + "\n5\n")
    with pytest.raises(ValueError, match="expected a JSON object, got int"):
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


def test_converters_reject_an_empty_sentence_naming_it():
    with pytest.raises(ValueError, match="^sentence 2 is empty$"):
        roft_to_intervals(["a b.", "c d.", "", "e."], 1)


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


@pytest.mark.parametrize("convert, message", [
    (lambda: roft_to_intervals(SENTS, 1.9), "boundary 1.9 has type float, not int"),
    (lambda: roft_to_intervals(SENTS, "2"), "boundary '2' has type str, not int"),
    (lambda: tribert_to_intervals(SENTS, [True]), "boundary True has type bool, not int"),
    (lambda: tribert_to_intervals(SENTS, 2), "boundaries 2 has type int, not list"),
    (lambda: roft_to_intervals("a b. c d.", 1), "sentences 'a b. c d.' has type str, not list"),
    (lambda: tribert_to_intervals(["a b.", 7], [1]), "sentence 1 7 has type int, not str"),
    (lambda: coauthor_to_intervals("abcdefghij klmno.", [[3.7, 7.9]]),
     "machine span [3.7, 7.9] is not an int pair 0 <= x1 < x2"),
    (lambda: coauthor_to_intervals(["a b."], []), "text ['a b.'] has type list, not str"),
], ids=["roft-float", "roft-str", "tribert-bool", "tribert-int", "sentences-str",
        "sentence-int", "coauthor-float", "coauthor-text"])
def test_converters_take_int_boundaries_int_pairs_and_lists_of_strings(convert, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        convert()


def _converted_records():
    """Records as the three converters make them, from generated rows."""
    sentence = st.text(min_size=1, max_size=6)
    roft = st.lists(sentence, min_size=1, max_size=6).flatmap(lambda ss: st.builds(
        roft_to_intervals, st.just(ss), st.integers(0, len(ss)), st.text(max_size=4),
        st.none() | st.text(max_size=4)))
    tribert = st.lists(sentence, min_size=1, max_size=6).flatmap(lambda ss: st.builds(
        tribert_to_intervals, st.just(ss), st.lists(st.integers(1, max(1, len(ss) - 1)))
        if len(ss) > 1 else st.just([]), st.sampled_from(["human", "machine"])))
    text = st.text(min_size=1, max_size=30).filter(str.strip)
    coauthor = text.flatmap(lambda t: st.builds(coauthor_to_intervals, st.just(t), st.lists(
        st.lists(st.integers(0, len(t)), min_size=2, max_size=2, unique=True).map(sorted),
        max_size=4)))
    return roft | tribert | coauthor


@settings(max_examples=100)
@given(st.lists(_converted_records(), max_size=4))
def test_converted_records_survive_save_then_load_unchanged(items):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.jsonl"
        save_annotations(path, items)
        assert load_annotations(path) == items


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


WHITESPACE = " \t\n\r\x0b\x0c\x85\xa0\u2003\u2028\u3000"


@settings(max_examples=600)
@given(st.text(alphabet=st.sampled_from("ab.!?\"')]" + WHITESPACE), max_size=40))
def test_split_equals_the_character_loop(text):
    if not text.strip():
        with pytest.raises(ValueError, match="empty or whitespace-only"):
            split_sentences(text)
    else:
        assert split_sentences(text) == reference_split_sentences(text)


@pytest.mark.parametrize("text, want", [
    ("a" + ")" * 30_000 + "b", [CharSpan(0, 30_002)]),
    ("a" + "!" * 30_000 + "b", [CharSpan(0, 30_002)]),
    ("a" + "!" * 30_000 + "b. c", [CharSpan(0, 30_003), CharSpan(30_004, 30_005)]),
], ids=["closers", "terminals", "terminals-then-a-sentence"])
def test_split_of_a_long_punctuation_run_is_linear(text, want):
    start = time.perf_counter()
    assert split_sentences(text) == want
    assert time.perf_counter() - start < 1.0


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


def test_synth_output_is_pinned(tmp_path):
    """The files of each style's split hash as they did before the generator
    built its texts through the converters; the RNG draws kept their order."""
    want = {"roft": "212af2cdb9011386fff9a23cb72c423b5b135993d87cfafe9cbe13c293d9f31a",
            "binary": "f72582dcb055e066b31fed512248797422d35e1724593bc096707da069139311",
            "multi": "0b756eba8bb7772a01e81bad523e94779546ff7f110dd0a7faecd0f3c1dcdae9"}
    for style, digest in want.items():
        save_split(tmp_path / style,
                   synth_generate(SynthSpec(n_texts=30, style=style, n_sentences=5), seed=11))
        files = ("train.jsonl", "val.jsonl", "test.jsonl", "meta.json")
        got = hashlib.sha256(b"".join((tmp_path / style / f).read_bytes() for f in files))
        assert got.hexdigest() == digest, style


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


def toy_embed_per_token(tk, d, seed):
    """Reference toy embedding: one loop over tokens, each the sum of its
    trigrams' table rows over the square root of their count."""
    table = _vector_table(d, seed)
    out = np.empty((len(tk.tokens), d))
    for i, tok in enumerate(tk.tokens):
        padded = "\x02" + tok + "\x03"
        grams = [padded[j:j + 3] for j in range(len(padded) - 2)]
        idx = [zlib.crc32(g.encode("utf-8")) % 4096 for g in grams]
        out[i] = table[idx].sum(axis=0) / np.sqrt(len(grams))
    return out


EMBED_TEXTS = {
    "repeated": "the cat and the dog and the cat. The cat! the the the",
    "short": ", . ! ? a b I ; : ( ) - ' \" x y z 1 2 3",
    "utf8": "Ünïcödé naïve café — 日本語のテキスト, ёжик в тумане; emoji 🙂🙂 ß ß",
    "long_token": "a " + "".join(chr(97 + (i * 7) % 26) for i in range(5000)) + " b , a c.",
}


@pytest.mark.parametrize("d", [8, 32, 1024])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("case", sorted(EMBED_TEXTS))
def test_toy_embed_is_bitwise_the_per_token_reference(case, d, seed):
    tk = tokenize(EMBED_TEXTS[case])
    assert np.array_equal(toy_embed(tk, d, seed), toy_embed_per_token(tk, d, seed))


def test_toy_embed_of_a_5000_character_token_peaks_under_4_mb():
    tk = tokenize(EMBED_TEXTS["long_token"])
    toy_embed(tk, 1024, 0)  # the table is made once per (d, seed), outside the measurement
    tracemalloc.start()
    try:
        toy_embed(tk, 1024, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("d, seed", [(8, 0), (32, 7)])
def test_toy_embed_is_bitwise_the_reference_on_a_synthetic_corpus(d, seed):
    split = synth_generate(SynthSpec(n_texts=40, style="multi", n_sentences=6), seed=13)
    for s in split.train + split.val + split.test:
        tk = tokenize(s.text)
        assert np.array_equal(toy_embed(tk, d, seed), toy_embed_per_token(tk, d, seed)), s.id


def test_cached_table_and_direction_survive_an_in_place_edit_of_the_features():
    s = AnnotatedText("t", "a bc d bc a", [CharSpan(2, 6)], LABEL_MIXED)
    want, _ = embed_with_signal(s, 16, 0, 2.0)
    vec, _ = embed_with_signal(s, 16, 0, 2.0)
    vec += 100.0
    again, _ = embed_with_signal(s, 16, 0, 2.0)
    assert np.array_equal(again, want)
    for cached in (_vector_table(16, 0), signal_direction(16, 0)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0


def embed_with_signal_per_token(sample, d, seed, sigma):
    """Reference toy provider: one loop over tokens, each marked when its
    character midpoint lies in some interval ``[x1, x2)``."""
    tk = tokenize(sample.text)
    vectors = toy_embed_per_token(tk, d, seed)
    if sigma > 0 and sample.intervals:
        u = signal_direction(d, seed)
        for i, off in enumerate(tk.offsets):
            mid = (off.x1 + off.x2) / 2.0
            if any(sp.x1 <= mid < sp.x2 for sp in sample.intervals):
                vectors[i] = vectors[i] + sigma * u
    return vectors, np.array([(o.x1 + o.x2) / 2.0 / len(sample.text) for o in tk.offsets])


@pytest.mark.parametrize("style", ["roft", "binary", "multi"])
def test_embed_with_signal_is_bitwise_the_per_token_reference(style):
    split = synth_generate(SynthSpec(n_texts=60, style=style, n_sentences=6, signal=2.0,
                                     embed_dim=16), seed=12)
    for s in split.train + split.val + split.test:
        vec, pos = embed_with_signal(s, 16, 0, 2.0)
        want, want_pos = embed_with_signal_per_token(s, 16, 0, 2.0)
        assert np.array_equal(vec, want) and np.array_equal(pos, want_pos), s.id


def test_a_token_whose_midpoint_is_an_interval_end_is_marked_as_the_reference_marks_it():
    # "a bc d": token "bc" spans [2, 4), so its midpoint 3 is the start of
    # [3, 6) and the end of [0, 3); token "d" has its midpoint 5.5 inside [3, 6)
    for spans in ([CharSpan(3, 6)], [CharSpan(0, 3)], [CharSpan(0, 3), CharSpan(3, 6)]):
        s = AnnotatedText("t", "a bc d", spans, LABEL_MIXED)
        vec, pos = embed_with_signal(s, 16, 0, 1.0)
        want, want_pos = embed_with_signal_per_token(s, 16, 0, 1.0)
        assert np.array_equal(vec, want) and np.array_equal(pos, want_pos)
        marked = (vec != toy_embed(tokenize(s.text), 16, 0)).any(axis=1)
        assert marked[1] == (spans[-1].x1 == 3)


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


@pytest.mark.parametrize("field, value, message", [
    ("scores", [float("nan")], "score nan is not a number in [0, 1]"),
    ("scores", [1.5], "score 1.5 is not a number in [0, 1]"),
    ("scores", ["0.5"], "score '0.5' is not a number in [0, 1]"),
    ("scores", [True], "score True is not a number in [0, 1]"),
    ("intervals", [[3, 3]], "interval [3, 3] is not an int pair 0 <= x1 < x2"),
    ("intervals", [[-1, 2]], "interval [-1, 2] is not an int pair 0 <= x1 < x2"),
    ("intervals", [[1.5, 4]], "interval [1.5, 4] is not an int pair 0 <= x1 < x2"),
    ("intervals", [[1, 2, 3]], "interval [1, 2, 3] is not an int pair 0 <= x1 < x2"),
    ("id", "a", "id repeats the record at {path}:1"),
    ("intervals", 5, "intervals 5 is not a list"),
    ("scores", 7, "scores 7 is not a list"),
])
def test_load_predictions_checks_each_record_naming_line_and_id(tmp_path, field, value,
                                                                message):
    good = {"id": "a", "intervals": [[0, 4]], "scores": [0.25]}
    path = tmp_path / "preds.jsonl"
    bad = {**good, "id": "b", field: value}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:2: record {bad['id']}: " + message.format(path=path))):
        load_predictions(path)
    path.write_text(json.dumps(good) + "\n")
    assert load_predictions(path) == {"a": good}



@pytest.mark.parametrize("fields, name", [
    (dict(n_sentences=0), "n_sentences"),
    (dict(vocab_size=0), "vocab_size"),
    (dict(style="multi", max_boundaries=0), "max_boundaries"),
    (dict(words_per_sentence=(5, 3)), "words_per_sentence"),
    (dict(words_per_sentence=(0, 3)), "words_per_sentence"),
    (dict(split_fracs=(0.9, 0.5)), "split_fracs"),
    (dict(split_fracs=(-0.1, 0.5)), "split_fracs"),
    (dict(split_fracs=(float("nan"), 0.1)), "split_fracs"),
], ids=lambda x: x if isinstance(x, str) else repr(x))
def test_synth_spec_rejects_a_field_it_cannot_generate_naming_it(fields, name):
    with pytest.raises(ValueError, match=f"^{name}: "):
        SynthSpec(n_texts=10, **fields)


@pytest.mark.parametrize("fields", [dict(words_per_sentence=(1, 1)),
                                    dict(split_fracs=(1.0, 0.0)),
                                    dict(split_fracs=(0.7, 0.3)),
                                    dict(style="multi", n_sentences=1, max_boundaries=1),
                                    dict(vocab_size=1)])
def test_synth_spec_edge_values_generate(fields):
    split = synth_generate(SynthSpec(n_texts=10, **fields), seed=0)
    assert len(split.train) + len(split.val) + len(split.test) == 10

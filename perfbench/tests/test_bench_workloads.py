"""Input generation, failure counting and output checks of the workloads."""

import json
from pathlib import Path

from perfbench import workloads as W
from perfbench.tracer import UNITS
from test_bench_tracer import tiny

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _fingerprint(split):
    return [(s.id, s.text, s.intervals) for part in (split.train, split.val, split.test)
            for s in part]


def test_corpus_is_identical_for_a_seed_and_differs_for_another():
    for w in W.WORKLOADS.values():
        a, _ = W.make_corpus(w, 5)
        b, _ = W.make_corpus(w, 5)
        c, _ = W.make_corpus(w, 6)
        assert _fingerprint(a) == _fingerprint(b)
        assert [t for _, t, _ in _fingerprint(a)] != [t for _, t, _ in _fingerprint(c)]
        assert (len(a.train), len(a.val), len(a.test)) == (w.n_train, w.n_val, w.n_test)


def test_llm_texts_fit_max_tokens_and_spread_in_length():
    from spandet.textproc import tokenize
    w = W.WORKLOADS["predict_llm"]
    split, _ = W.make_corpus(w, 0)
    lengths = [len(tokenize(s.text)) for s in split.test]
    assert max(lengths) <= w.max_tokens
    assert min(lengths) < 130 and max(lengths) > 350


def test_failing_text_is_counted_and_the_pass_continues(tmp_path):
    w = tiny()
    inputs = W.setup(w, seed=2, work=tmp_path)
    split = inputs["split"]
    toy = __import__("spandet").data.synthetic_provider(inputs["meta"])
    bad = split.test[1].id

    def provider(sample):
        if sample.id == bad:
            raise ValueError("corrupt features")
        return toy(sample)

    from spandet.model import DetectionModel
    m = DetectionModel(w.model_config(), seed=0)
    p = W.predict_pass(m, provider, split.test, tmp_path / "preds.jsonl")
    assert len(p["failed"]) == 1 and bad in p["failed"][0]
    assert [r["id"] for r in p["records"]] == [s.id for s in split.test if s.id != bad]
    raw = {"train": [(1.0, [{"train": {"total": 2.0}}, {"train": {"total": 1.0}}])],
           "predict": [p], "eval": []}
    assert W.counts(w, raw) == (w.epochs * w.n_train + len(split.test), 1)
    assert W.check_outputs(w, split, raw) == []


def test_same_seed_gives_identical_loss_log_and_prediction_digest(tmp_path):
    w = tiny()
    runs = []
    for name in ("a", "b"):
        inputs = W.setup(w, seed=3, work=tmp_path / name)
        raw = W.run_phases(w, inputs, 0.0)
        runs.append((raw["train"][0][1], raw["predict"][0]["digest"]))
        report = raw["eval"][0][1]
        assert "boundary" in report and "kappa" in report and "f1_at_k" in report
    assert runs[0] == runs[1]


def test_a_phase_that_overran_its_share_skips_the_next_round(tmp_path):
    w = tiny()
    inputs = W.setup(w, seed=5, work=tmp_path)
    over = {}
    first = W.run_phases(w, inputs, 0.0, over=over)
    assert [len(first[p]) for p in ("train", "predict", "eval")] == [1, 1, 1]
    assert set(over) == {"train", "predict", "eval"} and min(over.values()) > 0
    second = W.run_phases(w, inputs, 0.0, over=over)
    assert [len(second[p]) for p in ("train", "predict", "eval")] == [0, 0, 0]


def test_check_outputs_flags_out_of_range_predictions(tmp_path):
    w = tiny()
    inputs = W.setup(w, seed=4, work=tmp_path)
    raw = W.run_phases(w, inputs, 0.0)
    split = inputs["split"]
    rec = raw["predict"][0]["records"][0]
    rec["intervals"][0] = [0, len(split.test[0].text) + 5]
    problems = W.check_outputs(w, split, raw)
    assert any("bad prediction record" in p for p in problems)


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads(BENCHMARK.read_text())
    w = W.WORKLOADS["train_c08"]
    raw = {"train": [(2.0, [{"train": {"total": 1.0}}])],
           "predict": [{"records": [{}], "latencies": {"a": 0.1, "b": 0.2}, "seconds": 1.0}],
           "eval": [(0.5, {})]}
    e2e = W.end_to_end(w, raw, [0.1], 50.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert [x["name"] for x in spec["workloads"]] == list(W.WORKLOADS)

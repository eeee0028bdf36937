"""Benchmark workloads: inputs from a seed, set-up, the measured
train -> predict -> eval pipeline, and the checks on its outputs.

Every workload drives the public API the CLI uses, in the order a user runs
it: `spandet embed` (features to `.emb` files), `spandet train --embeddings`
(one `training.train` call with a val split and a run_dir), then
`load_detector`, `spandet predict` (one text at a time) and `spandet eval`.
Workloads differ in model width, text length, feature source for predict,
and in how the run's seconds are shared between the three phases.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from spandet import data, geometry, metrics, model, textproc, training


@dataclass(frozen=True)
class Workload:
    name: str
    main: str                       # phase that gets most of the seconds
    d_model: int
    hidden: int | None              # None: ModelConfig's default, d_model // 16
    heads: int
    max_tokens: int
    sentences: tuple[int, ...]      # sentences per text, one corpus bucket each
    words: tuple[int, int]          # words per sentence
    n_train: int
    n_val: int
    n_test: int
    epochs: int
    predict_from_files: bool        # `predict --embeddings` instead of the toy provider
    shares: tuple[float, float, float]   # train, predict, eval share of the seconds

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(d_model=self.d_model, hidden=self.hidden,
                                 heads=self.heads, ffn_mult=4, enc_layers=3,
                                 dec_layers=3, num_queries=1,
                                 max_tokens=self.max_tokens, dn_groups=5)

    def train_config(self) -> training.TrainConfig:
        return training.TrainConfig(epochs=self.epochs, batch_size=8, lr=3e-4, seed=0)


# C08 model config: d_model 32, hidden 32, heads 4, 3+3 layers, 5 DN groups,
# 1 query, max_tokens 128; roft-style texts of 10 sentences, ~60 tokens.
_C08 = dict(d_model=32, hidden=32, heads=4, max_tokens=128, sentences=(10,),
            words=(3, 7))

WORKLOADS = {w.name: w for w in [
    # The paper's training loop, interpreter-bound: DN queries, the composite
    # loss, matching, backward, clipping and AdamW run mostly here.
    Workload("train_c08", "train", **_C08, n_train=12, n_val=3, n_test=24,
             epochs=2, predict_from_files=False, shares=(0.5, 0.46, 0.04)),
    # Same model size, inference-dominated: short texts predicted one at a
    # time through the toy provider, then evaluated.
    Workload("predict_c08", "predict", **_C08, n_train=12, n_val=4, n_test=32,
             epochs=2, predict_from_files=False, shares=(0.15, 0.8, 0.05)),
    # LLM feature width, FLOP-bound: 100-450 tokens per text, features read
    # back from `.emb` files per text as `spandet predict --embeddings` does.
    Workload("predict_llm", "predict", d_model=1024, hidden=None, heads=8,
             max_tokens=512, sentences=(7, 11, 16, 21, 26), words=(10, 18),
             n_train=5, n_val=1, n_test=20, epochs=2, predict_from_files=True,
             shares=(0.2, 0.75, 0.05)),
]}

SIGNAL = 5.0
POOL = 10         # training candidates per training text


# -- inputs ---------------------------------------------------------------------


def make_corpus(w: Workload, seed: int) -> tuple[data.DatasetSplit, dict]:
    """Deterministic roft-style corpus for one seed; returns the split and the
    meta that describes its toy provider.

    Texts alternate over the sentence-count buckets, so every split spans the
    length range. The training split is short, so it is picked rather than
    drawn: text i comes from bucket i mod B, with its boundary nearest to
    (i + 0.5) / n_train of the text, out of a pool of candidates five times
    the split's size. Drawn at random, a short split's loss and samples/s
    depend mostly on which lengths and boundary positions it happens to get.
    """
    n_pool = POOL * w.n_train
    n = n_pool + w.n_val + w.n_test
    per_bucket = math.ceil(n / len(w.sentences))
    buckets = []
    for b, ns in enumerate(w.sentences):
        spec = data.SynthSpec(n_texts=per_bucket, style="roft", n_sentences=ns,
                              words_per_sentence=w.words, signal=SIGNAL,
                              embed_dim=w.d_model, split_fracs=(1.0, 0.0))
        buckets.append(data.synth_generate(spec, seed=seed * len(w.sentences) + b))
    texts = [buckets[i % len(buckets)].train[i // len(buckets)] for i in range(n)]
    pool = texts[:n_pool]
    train = []
    for i in range(w.n_train):
        target = (i + 0.5) / w.n_train
        same_bucket = pool[i % len(buckets)::len(buckets)]
        best = min((s for s in same_bucket if s not in train),
                   key=lambda s: abs(s.intervals[0].x1 / len(s.text) - target))
        train.append(best)
    rest = texts[n_pool:]
    split = data.DatasetSplit(train, rest[:w.n_val], rest[w.n_val:]).check_disjoint()
    return split, buckets[0].meta


def file_provider(emb_dir: Path):
    """Features read back from `.emb` files, as `--embeddings` does."""
    def provide(sample):
        ef = textproc.read_embedding_file(emb_dir / f"{sample.id}.emb")
        pos = np.array([(o.x1 + o.x2) / 2.0 / len(sample.text) for o in ef.offsets])
        return ef.vectors.astype(np.float64), pos
    return provide


def setup(w: Workload, seed: int, work: Path) -> dict:
    """Generate the corpus and write its features as `.emb` files with hash
    sidecars (what `spandet embed` does). Test texts get files only when the
    workload predicts from files."""
    split, meta = make_corpus(w, seed)
    toy = data.synthetic_provider(meta)
    emb_dir = work / "emb"
    emb_dir.mkdir(parents=True, exist_ok=True)
    needs_file = split.train + split.val + (split.test if w.predict_from_files else [])
    for sample in needs_file:
        vectors, _ = toy(sample)
        tk = textproc.tokenize(sample.text)
        textproc.write_embedding_file(emb_dir / f"{sample.id}.emb", vectors,
                                      tk.offsets, provenance="toy", text=sample.text)
    return {"split": split, "meta": meta, "emb_dir": emb_dir, "work": work}


def timed_setup(w: Workload, seed: int, work: Path, repeats: int,
                seconds: float = 0.0) -> tuple[dict, list[float]]:
    """Set up into fresh directories at least `repeats` times and until
    `seconds` have passed; keep the last."""
    times = []
    start = perf_counter()
    r = 0
    while True:
        target = work / f"setup{r}"
        t0 = perf_counter()
        inputs = setup(w, seed, target)
        times.append(perf_counter() - t0)
        r += 1
        if r >= repeats and perf_counter() - start >= seconds:
            return inputs, times
        shutil.rmtree(target)


# -- measured phases ------------------------------------------------------------


def _loop(budget: float, body, at_least_once: bool) -> tuple[list, float]:
    """Run `body` until `budget` seconds have passed (not at all if the
    budget is not positive, unless `at_least_once`); return the results and
    the seconds taken."""
    results = []
    start = perf_counter()
    while (at_least_once and not results) or perf_counter() - start < budget:
        results.append(body())
    return results, perf_counter() - start


def predict_record(m: model.DetectionModel, provider, sample) -> dict:
    """One `spandet predict` record: provider, predict, span conversion."""
    vectors, positions = provider(sample)
    pred = m.predict(vectors, positions)
    spans = [geometry.cw_to_span(iv, len(sample.text)) for iv in pred.intervals]
    return {"id": sample.id, "intervals": [[sp.x1, sp.x2] for sp in spans],
            "scores": [round(s, 6) for s in pred.scores]}


def predict_pass(m, provider, samples, out_path: Path) -> dict:
    """Predict every text once; an exception on one text counts it as failed
    and the pass goes on."""
    records, latencies, failed = [], {}, []
    t0 = perf_counter()
    for sample in samples:
        t = perf_counter()
        try:
            rec = predict_record(m, provider, sample)
        except Exception as e:  # one bad text must not abort the run
            failed.append(f"{sample.id}: {type(e).__name__}: {e}")
            continue
        latencies[sample.id] = perf_counter() - t
        records.append(rec)
    data.save_predictions(out_path, records)
    seconds = perf_counter() - t0
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    return {"records": records, "latencies": latencies, "failed": failed,
            "seconds": seconds, "digest": digest}


def run_phases(w: Workload, inputs: dict, seconds: float, wrap_provider=lambda p: p,
               over: dict | None = None) -> dict:
    """The measured pipeline: train, then predict, then eval, each looped
    for its share of `seconds`. Returns raw measurements per phase.

    `over` (phase -> seconds) carries each phase's overrun from one round of
    a run to the next, so that over the whole run each phase gets its share
    even when its calls are longer than its share of one round: such a phase
    skips rounds. A phase that has not run yet in the run (the first round,
    or a call without `over`) runs at least once."""
    over = {} if over is None else over
    split, work = inputs["split"], inputs["work"]
    files = wrap_provider(file_provider(inputs["emb_dir"]))
    toy = wrap_provider(data.synthetic_provider(inputs["meta"]))
    run_dir = work / "run"

    def phase(name: str, share: float, body) -> list:
        budget = share * seconds - over.get(name, 0.0)
        results, took = _loop(budget, body, at_least_once=name not in over)
        over[name] = took - budget
        return results

    def train_once():
        t0 = perf_counter()
        res = training.train(split, files, w.model_config(), w.train_config(),
                             training.LossWeights(), run_dir)
        return perf_counter() - t0, res.log

    t0 = perf_counter()
    train_calls = phase("train", w.shares[0], train_once)
    t1 = perf_counter()

    m = model.load_detector(run_dir / "best.npz")
    provider = files if w.predict_from_files else toy
    preds_path = work / "preds.jsonl"
    passes = phase("predict", w.shares[1],
                   lambda: predict_pass(m, provider, split.test, preds_path))
    t2 = perf_counter()

    preds = data.load_predictions(preds_path)

    def eval_once():
        t = perf_counter()
        report = metrics.evaluate_detection(split.test, preds)
        return perf_counter() - t, report
    evals = phase("eval", w.shares[2], eval_once)
    t3 = perf_counter()

    return {"train": train_calls, "predict": passes, "eval": evals,
            "windows": {"train": [(t0, t1)], "predict": [(t1, t2)], "eval": [(t2, t3)]}}


def merge(raws: list[dict]) -> dict:
    """Concatenate the measurements of several `run_phases` results."""
    out = {"train": [], "predict": [], "eval": [],
           "windows": {"train": [], "predict": [], "eval": []}}
    for raw in raws:
        for phase in ("train", "predict", "eval"):
            out[phase] += raw[phase]
            out["windows"][phase] += raw["windows"][phase]
    return out


# -- checks and metrics -----------------------------------------------------------


def check_outputs(w: Workload, split: data.DatasetSplit, raw: dict) -> list[str]:
    """Problems with the outputs; an empty list means they are correct."""
    problems = []
    logs = [log for _, log in raw["train"]]
    totals = [r["train"]["total"] for r in logs[0]]
    if not all(math.isfinite(t) for t in totals):
        problems.append(f"non-finite training loss: {totals}")
    elif not totals[-1] < totals[0]:
        problems.append(f"last epoch loss {totals[-1]} not below first {totals[0]}")
    if any(log != logs[0] for log in logs[1:]):
        problems.append("repeated train() calls gave different loss logs")

    texts = {s.id: s.text for s in split.test}
    nq = w.model_config().num_queries
    for p in raw["predict"]:
        ids = [r["id"] for r in p["records"]]
        if len(ids) + len(p["failed"]) != len(texts) or len(set(ids)) != len(ids):
            problems.append("predict pass did not give one record per text")
            break
        for r in p["records"]:
            n = len(texts[r["id"]])
            if (len(r["intervals"]) != nq or len(r["scores"]) != nq
                    or not all(0 <= a < b <= n for a, b in r["intervals"])
                    or not all(0.0 <= s <= 1.0 for s in r["scores"])):
                problems.append(f"bad prediction record {r}")
                break
    if len({p["digest"] for p in raw["predict"]}) != 1:
        problems.append("repeated predict passes gave different records")

    for _, report in raw["eval"]:
        if not ("f1_at_k" in report and "all" in report["f1_at_k"]
                and "kappa" in report and "boundary" in report
                and {"acc", "soft_acc1", "mse"} <= set(report["boundary"])):
            problems.append(f"evaluation report lacks F1@K, kappa or boundary fields: "
                            f"{sorted(report)}")
            break
    return problems


def best_latencies(passes: list[dict]) -> list[float]:
    """Each text's fastest latency over the passes (seconds)."""
    best: dict[str, float] = {}
    for p in passes:
        for text_id, x in p["latencies"].items():
            best[text_id] = min(x, best.get(text_id, x))
    return list(best.values())


def end_to_end(w: Workload, raw: dict, setup_times: list[float], rss_mb: float) -> dict:
    """Metric name -> (value, unit). Short repeated work (a predict call, an
    eval call) is reported as its fastest repeat (min-of-k): on a shared
    machine, interference only adds time, and among many short calls some
    escape it. A `train()` call lasts about a second and always shares it
    with the interference of its time, so its best of a few calls depends
    on whether the run caught a quiet second; it is reported as the median
    call instead."""
    n_samples = w.epochs * w.n_train
    lat = best_latencies(raw["predict"])
    n_texts = len(raw["predict"][0]["records"])
    # a pass costs its texts plus a fixed part (loop, save_predictions)
    per_pass = min(p["seconds"] - sum(p["latencies"].values()) for p in raw["predict"])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "train_samples_per_s": (n_samples / statistics.median(s for s, _ in raw["train"]),
                                "1/s"),
        "train_loss_final": (raw["train"][0][1][-1]["train"]["total"], "loss"),
        "predict_texts_per_s": (n_texts / (sum(lat) + per_pass), "1/s"),
        "predict_latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "predict_latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
        "eval_texts_per_s": (w.n_test / min(s for s, _ in raw["eval"]), "1/s"),
    }


def counts(w: Workload, raw: dict) -> tuple[int, int]:
    """(attempted, failed) operations: one per training sample, one per
    text a predict pass attempted."""
    samples = w.epochs * w.n_train * len(raw["train"])
    texts = sum(len(p["records"]) + len(p["failed"]) for p in raw["predict"])
    failed = sum(len(p["failed"]) for p in raw["predict"])
    return samples + texts, failed

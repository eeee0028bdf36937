import filecmp
import json
import shutil
import struct
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from spandet.cli import build_parser, main
from spandet.data import (LABEL_HUMAN, AnnotatedText, SynthSpec, load_annotations,
                          load_predictions, load_split, save_split)
from spandet.model import DetectionModel, ModelConfig
from spandet.textproc import read_embedding_file, tokenize, write_embedding_file
from spandet.training import TrainConfig


def run(args):
    return main(args)


def dir_files_equal(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def test_generate_deterministic_bytes(tmp_path):
    base = ["generate", "--n", "20", "--sentences", "4", "--seed", "7",
            "--signal", "5.0"]
    assert run(base + ["--out", str(tmp_path / "a")]) == 0
    assert run(base + ["--out", str(tmp_path / "b")]) == 0
    assert dir_files_equal(tmp_path / "a", tmp_path / "b")


def test_generate_rejects_negative_signal(tmp_path):
    code = run(["generate", "--n", "5", "--signal", "-1",
                "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("dim", ["4", "0"])
def test_generate_rejects_an_embed_dim_below_the_floor_and_writes_nothing(tmp_path, capsys,
                                                                          dim):
    out = tmp_path / "x"
    assert run(["generate", "--n", "5", "--dim", dim, "--out", str(out)]) == 2
    assert f"error: embed_dim: embedding dim must be >= 8, got {dim}" in capsys.readouterr().err
    assert not out.exists()


def test_generate_rejects_a_negative_embed_seed_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "x"
    assert run(["generate", "--n", "5", "--dim", "16", "--embed-seed", "-1",
                "--out", str(out)]) == 2
    assert "error: embed_seed: embedding table seed -1 must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("signal", ["nan", "inf"])
def test_generate_rejects_a_signal_that_is_not_finite_and_writes_nothing(tmp_path, capsys,
                                                                         signal):
    out = tmp_path / "x"
    assert run(["generate", "--n", "5", "--signal", signal, "--out", str(out)]) == 2
    assert (f"error: signal strength {float(signal)} must be a finite number >= 0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_generate_refuses_to_clobber(tmp_path):
    out = tmp_path / "d"
    assert run(["generate", "--n", "5", "--out", str(out)]) == 0
    assert run(["generate", "--n", "5", "--out", str(out)]) == 2
    assert run(["generate", "--n", "5", "--out", str(out), "--overwrite"]) == 0


def test_convert_roft(tmp_path):
    rows = [
        {"sentences": [f"s {i} x." for i in range(10)], "boundary": 10},
        {"sentences": [f"s {i} y." for i in range(10)], "boundary": 0},
        {"sentences": [f"s {i} z." for i in range(10)], "boundary": 4},
    ]
    src = tmp_path / "roft.jsonl"
    src.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "converted.jsonl"
    assert run(["convert", "--format", "roft", "--input", str(src),
                "--out", str(out)]) == 0
    items = load_annotations(out)
    assert [it.label for it in items] == [0, 1, 2]
    assert items[0].intervals == []


def test_convert_tribert(tmp_path):
    src = tmp_path / "tb.jsonl"
    src.write_text(json.dumps({"sentences": [f"t {i} q." for i in range(8)],
                               "boundaries": [2, 4, 6],
                               "first_author": "human"}) + "\n")
    out = tmp_path / "tb_out.jsonl"
    assert run(["convert", "--format", "tribert", "--input", str(src),
                "--out", str(out)]) == 0
    items = load_annotations(out)
    assert len(items) == 1 and items[0].label == 2
    assert len(items[0].intervals) == 2


def test_convert_skips_bad_rows_unless_strict(tmp_path):
    src = tmp_path / "mixed.jsonl"
    good = json.dumps({"sentences": ["a b.", "c d."], "boundary": 1})
    bad = json.dumps({"sentences": ["a b.", "c d."], "boundary": 9})
    src.write_text(good + "\n" + bad + "\n")
    out = tmp_path / "o.jsonl"
    assert run(["convert", "--format", "roft", "--input", str(src),
                "--out", str(out)]) == 0
    assert len(load_annotations(out)) == 1
    assert run(["convert", "--format", "roft", "--input", str(src),
                "--out", str(out), "--overwrite", "--strict"]) == 2


def test_convert_unknown_format_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["convert", "--format", "nope", "--input", "x", "--out", "y"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def tiny_pipeline(tmp_path_factory):
    """generate -> train -> predict once; several tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("pipe")
    ds = root / "ds"
    assert main(["generate", "--n", "30", "--sentences", "4", "--seed", "3",
                 "--signal", "5.0", "--dim", "16", "--out", str(ds)]) == 0
    run_dir = root / "run"
    assert main(["train", "--dataset", str(ds), "--out", str(run_dir),
                 "--epochs", "2", "--batch-size", "8", "--lr", "1e-3",
                 "--hidden", "16", "--heads", "4", "--enc-layers", "1",
                 "--dec-layers", "1", "--dn-groups", "2", "--max-tokens", "64",
                 "--queries", "1"]) == 0
    preds = root / "preds.jsonl"
    assert main(["predict", "--checkpoint", str(run_dir / "best.npz"),
                 "--dataset", str(ds), "--split", "test",
                 "--out", str(preds)]) == 0
    return root, ds, run_dir, preds


def test_train_writes_run_artifacts(tiny_pipeline):
    _, _, run_dir, _ = tiny_pipeline
    assert (run_dir / "config.json").exists()
    assert (run_dir / "best.npz").exists()
    log_lines = (run_dir / "metrics.jsonl").read_text().strip().split("\n")
    assert len(log_lines) == 2
    rec = json.loads(log_lines[0])
    assert {"epoch", "lr", "train", "val_loss"} <= set(rec)


def test_predict_deterministic(tiny_pipeline):
    root, ds, run_dir, preds = tiny_pipeline
    again = root / "preds2.jsonl"
    assert main(["predict", "--checkpoint", str(run_dir / "best.npz"),
                 "--dataset", str(ds), "--split", "test",
                 "--out", str(again)]) == 0
    assert preds.read_bytes() == again.read_bytes()


def test_predict_record_shape(tiny_pipeline):
    _, ds, _, preds = tiny_pipeline
    records = load_predictions(preds)
    split = load_split(ds)
    assert set(records) == {s.id for s in split.test}
    rec = next(iter(records.values()))
    assert len(rec["intervals"]) == 1 and len(rec["scores"]) == 1


def test_eval_report(tiny_pipeline, tmp_path):
    _, ds, _, preds = tiny_pipeline
    report_path = tmp_path / "report.json"
    assert main(["eval", "--predictions", str(preds), "--dataset", str(ds),
                 "--split", "test", "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert "boundary" in doc["metrics"] and "kappa" in doc["metrics"]
    assert doc["config"]["k"] == 3


def test_eval_with_oracle_predictions(tiny_pipeline, tmp_path):
    _, ds, _, _ = tiny_pipeline
    split = load_split(ds)
    oracle = tmp_path / "oracle.jsonl"
    with open(oracle, "w") as fh:
        for s in split.test:
            fh.write(json.dumps({"id": s.id,
                                 "intervals": [[sp.x1, sp.x2] for sp in s.intervals],
                                 "scores": [0.99] * len(s.intervals)}) + "\n")
    report_path = tmp_path / "r.json"
    assert main(["eval", "--predictions", str(oracle), "--dataset", str(ds),
                 "--split", "test", "--out", str(report_path)]) == 0
    m = json.loads(report_path.read_text())["metrics"]
    assert m["boundary"]["acc"] == 1.0 and m["boundary"]["mse"] == 0.0
    assert m["kappa"] == 1.0 and m["f1_at_k"]["all"] == 1.0


def test_embed_then_train_from_files(tiny_pipeline, tmp_path):
    _, ds, _, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    assert len(list(emb.glob("*.emb"))) == 30
    run2 = tmp_path / "run2"
    assert main(["train", "--dataset", str(ds), "--embeddings", str(emb),
                 "--out", str(run2), "--epochs", "1", "--batch-size", "8",
                 "--hidden", "16", "--heads", "4", "--enc-layers", "1",
                 "--dec-layers", "1", "--max-tokens", "64"]) == 0


def test_embeddings_that_do_not_fit_their_text_exit_2(tiny_pipeline, tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    split = load_split(ds)
    victim = split.test[0]
    # the record's text is cut short after its features were written
    split.test[0] = AnnotatedText(victim.id, victim.text[:21], [], LABEL_HUMAN)
    cut = tmp_path / "cut"
    save_split(cut, split)
    predict = ["predict", "--checkpoint", str(run_dir / "best.npz"), "--embeddings",
               str(emb), "--out", str(tmp_path / "p.jsonl"), "--overwrite"]
    assert main(predict + ["--dataset", str(ds)]) == 0
    capsys.readouterr()
    assert main(predict + ["--dataset", str(cut)]) == 2
    err = capsys.readouterr().err
    assert f"record {victim.id}" in err and "hash mismatch" in err
    written = list(load_predictions(tmp_path / "p.jsonl"))
    assert written == [s.id for s in split.test[1:]]
    # features hashed with the cut text: its offsets past the end of the text show it
    ef = read_embedding_file(emb / f"{victim.id}.emb")
    write_embedding_file(emb / f"{victim.id}.emb", ef.vectors, ef.offsets, ef.provenance,
                         victim.text[:21])
    assert main(predict + ["--dataset", str(cut)]) == 2
    err = capsys.readouterr().err
    assert f"record {victim.id}" in err and "past the end of the 21-character text" in err


def test_records_over_max_tokens_exit_2_naming_the_record(tiny_pipeline, tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    split = load_split(ds)
    n_first = len(tokenize(split.train[0].text))
    code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "r"),
                 "--epochs", "1", "--hidden", "16", "--heads", "4",
                 "--max-tokens", str(n_first - 1)])
    assert code == 2
    assert (f"record {split.train[0].id}: {n_first} tokens exceed max_tokens {n_first - 1}"
            in capsys.readouterr().err)
    # the checkpoint allows 64 tokens; one test record is given 81
    victim = split.test[1]
    split.test[1] = AnnotatedText(victim.id, " ".join(["word"] * 80) + ".", [], LABEL_HUMAN)
    long = tmp_path / "long"
    save_split(long, split)
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"),
                 "--dataset", str(long), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert f"record {victim.id}: 81 tokens exceed max_tokens 64" in capsys.readouterr().err
    # the run goes on: every other record is written
    written = list(load_predictions(tmp_path / "p.jsonl"))
    assert written == [s.id for s in split.test if s.id != victim.id]


def test_predict_missing_checkpoint(tmp_path, tiny_pipeline):
    _, ds, _, _ = tiny_pipeline
    code = main(["predict", "--checkpoint", str(tmp_path / "no.npz"),
                 "--dataset", str(ds), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2


def test_eval_f1_upper_bounds_with_padded_oracle(tmp_path):
    """A top-3-style prediction file (all true boundaries plus low-confidence
    padding to three candidates) lands exactly on the ideal F1@3 values
    0.5 / 0.8 / 1.0 for texts with 1 / 2 / 3 boundaries."""
    from spandet.metrics import snap_boundaries

    ds = tmp_path / "multi"
    assert main(["generate", "--n", "60", "--style", "multi", "--sentences", "8",
                 "--seed", "5", "--out", str(ds)]) == 0
    split = load_split(ds)
    preds_path = tmp_path / "oracle.jsonl"
    with open(preds_path, "w") as fh:
        for s in split.test:
            sents = s.sentence_offsets
            gt_bounds = set(snap_boundaries(s.intervals, sents, len(s.text)))
            intervals = [[sp.x1, sp.x2] for sp in s.intervals]
            scores = [0.9] * len(intervals)
            for sp in sents[1:]:
                if len(gt_bounds) + (len(scores) - len(s.intervals)) >= 3:
                    break
                if sp.x1 not in gt_bounds:
                    intervals.append([sp.x1, sp.x1 + 1])
                    scores.append(0.1)
            fh.write(json.dumps({"id": s.id, "intervals": intervals,
                                 "scores": scores}) + "\n")
    report_path = tmp_path / "r.json"
    assert main(["eval", "--predictions", str(preds_path), "--dataset", str(ds),
                 "--split", "test", "--out", str(report_path)]) == 0
    by_group = json.loads(report_path.read_text())["metrics"]["f1_at_k"]["by_boundary_count"]
    ideals = {"1": 0.5, "2": 0.8, "3": 1.0}
    assert by_group, "no boundary groups found"
    for group, value in by_group.items():
        assert value == pytest.approx(ideals[group], abs=1e-12), group


def test_numerical_failure_exits_3(tmp_path, tiny_pipeline, monkeypatch):
    _, ds, _, _ = tiny_pipeline
    import spandet.cli as cli_mod
    from spandet.training import NumericalError

    def exploding_train(*args, **kwargs):
        raise NumericalError("non-finite loss at epoch 1")

    monkeypatch.setattr(cli_mod, "train", exploding_train)
    code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "r"),
                 "--epochs", "1", "--hidden", "16", "--heads", "4"])
    assert code == 3


def test_diverging_run_exits_3_naming_the_epoch(tiny_pipeline, tmp_path, capsys):
    _, ds, _, _ = tiny_pipeline
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "r"),
                     "--epochs", "5", "--batch-size", "8", "--lr", "1e12",
                     "--hidden", "16", "--heads", "4", "--enc-layers", "1",
                     "--dec-layers", "1", "--dn-groups", "2", "--max-tokens", "64"])
    assert code == 3
    assert "numerical failure: non-finite" in capsys.readouterr().err


def test_nan_features_exit_2_naming_the_record(tiny_pipeline, tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    split = load_split(ds)
    for victim in (split.train[1], split.test[0]):  # the writer stores no NaN: patch the bytes
        path = emb / f"{victim.id}.emb"
        raw = bytearray(path.read_bytes())
        at = len(raw) - 4 * read_embedding_file(path).vectors.size   # the payload's start
        raw[at:at + 4] = np.array(np.nan, dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
    code = main(["train", "--dataset", str(ds), "--embeddings", str(emb),
                 "--out", str(tmp_path / "r"), "--epochs", "1", "--hidden", "16",
                 "--heads", "4", "--max-tokens", "64"])
    assert code == 2
    assert (f"record {split.train[1].id}: non-finite feature values"
            in capsys.readouterr().err)
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(ds),
                 "--embeddings", str(emb), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert (f"record {split.test[0].id}: non-finite feature values"
            in capsys.readouterr().err)
    written = list(load_predictions(tmp_path / "p.jsonl"))
    assert written == [s.id for s in split.test[1:]]


def test_predict_on_an_embedding_file_with_trailing_bytes_exits_2_naming_it(tiny_pipeline,
                                                                            tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    split = load_split(ds)
    victim = emb / f"{split.test[0].id}.emb"
    size = victim.stat().st_size
    victim.write_bytes(victim.read_bytes() + bytes(12))
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(ds),
                 "--embeddings", str(emb), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert (f"{victim}: trailing bytes after the payload (expected {size} bytes, found "
            f"{size + 12})" in capsys.readouterr().err)
    written = list(load_predictions(tmp_path / "p.jsonl"))
    assert written == [s.id for s in split.test[1:]]


def test_eval_with_a_nan_score_exits_2_naming_the_line_and_record(tiny_pipeline, tmp_path,
                                                                   capsys):
    _, ds, _, preds = tiny_pipeline
    lines = preds.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["scores"][0] = float("nan")
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--predictions", str(bad), "--dataset", str(ds)]) == 2
    assert (f"{bad}:2: record {rec['id']}: score nan is not a number in [0, 1]"
            in capsys.readouterr().err)


def test_bad_checkpoint_config_exits_2_naming_the_fields(tiny_pipeline, tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    with np.load(run_dir / "best.npz") as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"]["dropout"] = 0.1
    del meta["config"]["heads"]
    arrays["__meta__"] = np.array(json.dumps(meta))
    np.savez(tmp_path / "bad.npz", **arrays)
    code = main(["predict", "--checkpoint", str(tmp_path / "bad.npz"), "--dataset", str(ds),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert ("detector config has unknown fields ['dropout'] and missing fields ['heads']"
            in capsys.readouterr().err)


def _with_config(**edit):
    """A writer of checkpoint `best` to `bad`, with `edit` applied to its config."""
    def write(bad, best):
        with np.load(best) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(str(arrays["__meta__"]))
        meta["config"].update(edit)
        np.savez(bad, **{**arrays, "__meta__": np.array(json.dumps(meta))})
    return write


def _weight_span(meta, name):
    """Where weight `name` sits in the ``params`` vector of a checkpoint whose
    ``__meta__`` is `meta`: the model its config builds fixes the order."""
    params = DetectionModel(ModelConfig(**meta["config"])).parameters()
    start = sum(p.size for p in list(params.values())[:list(params).index(name)])
    return slice(start, start + params[name].size)


def _without_weight(name):
    """A writer of checkpoint `best` to `bad`, with weight `name`'s entries
    cut out of its ``params`` vector."""
    def write(bad, best):
        with np.load(best) as z:
            arrays = {k: z[k] for k in z.files}
        at = _weight_span(json.loads(str(arrays["__meta__"])), name)
        np.savez(bad, **{**arrays, "params": np.delete(arrays["params"], at)})
    return write


def _with_meta(**edit):
    """A writer of checkpoint `best` to `bad`, with `edit` applied to its meta."""
    def write(bad, best):
        with np.load(best) as z:
            arrays = {k: z[k] for k in z.files}
        meta = {**json.loads(str(arrays["__meta__"])), **edit}
        np.savez(bad, **{**arrays, "__meta__": np.array(json.dumps(meta))})
    return write


def _with_weight_entry(name, value):
    """A writer of checkpoint `best` to `bad`, with `value` at entry 0 of
    weight `name`."""
    def write(bad, best):
        with np.load(best) as z:
            arrays = {k: z[k] for k in z.files}
        arrays["params"][_weight_span(json.loads(str(arrays["__meta__"])), name).start] = value
        np.savez(bad, **arrays)
    return write


@pytest.mark.parametrize("write, message", [
    (lambda bad, best: bad.write_bytes(best.read_bytes()[:300]),
     "not a readable checkpoint archive with a JSON __meta__"),
    (lambda bad, best: bad.write_text("not an archive\n"),
     "not a readable checkpoint archive with a JSON __meta__"),
    (_with_config(heads="4"), "detector config field heads is '4', not an int"),
    (_with_config(d_model=None), "detector config field d_model is None, not an int"),
    (_with_config(heads=0), "detector heads must be at least 1, got 0"),
    (_with_config(heads=3), "detector hidden 16 not divisible by heads 3"),
    (_with_config(ffn_mult=0), "detector ffn_mult must be at least 1, got 0"),
    (_with_config(max_tokens=0), "detector max_tokens must be at least 1, got 0"),
    (_with_config(d_model=-5), "detector d_model must be at least 1, got -5"),
    (_without_weight("proj.weight"), "detector params are float64 of shape ("),
    (_with_weight_entry("class_head.bias", np.nan),
     "detector weight class_head.bias is not finite"),
    (_with_weight_entry("proj.weight", np.inf), "detector weight proj.weight is not finite"),
    (_with_meta(kind="classifier"), "checkpoint holds a 'classifier', not a detector"),
    (_with_meta(checkpoint_version=1),
     "unsupported checkpoint version 1 (this reader takes version 2)"),
], ids=["truncated", "plain-text", "string-heads", "null-d_model", "zero-heads",
        "indivisible-heads", "zero-ffn_mult", "zero-max_tokens", "negative-d_model",
        "missing-weight", "nan-weight", "inf-weight", "classifier-kind", "version-1"])
def test_unreadable_or_mistyped_checkpoint_exits_2_naming_the_path(tiny_pipeline, tmp_path,
                                                                   capsys, write, message):
    _, ds, run_dir, _ = tiny_pipeline
    bad = tmp_path / "bad.npz"
    write(bad, run_dir / "best.npz")
    code = main(["predict", "--checkpoint", str(bad), "--dataset", str(ds),
                 "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert f"{bad}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("intervals", 5, "intervals 5 is not a list"),
    ("scores", 7, "scores 7 is not a list"),
])
def test_eval_of_a_record_whose_intervals_or_scores_is_not_a_list_exits_2(
        tiny_pipeline, tmp_path, capsys, field, value, message):
    _, ds, _, preds = tiny_pipeline
    lines = preds.read_text().splitlines()
    rec = {**json.loads(lines[1]), field: value}
    lines[1] = json.dumps(rec)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--predictions", str(bad), "--dataset", str(ds)]) == 2
    assert f"{bad}:2: record {rec['id']}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, field", [("--epochs", "epochs"),
                                         ("--batch-size", "batch_size")])
def test_train_with_zero_epochs_or_batch_size_exits_2_naming_the_field(tmp_path, capsys,
                                                                       flag, field):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "12", "--sentences", "3", "--dim", "16",
                 "--out", str(ds)]) == 0
    code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                 "--hidden", "16", "--heads", "4", "--enc-layers", "1", "--dec-layers", "1",
                 flag, "0"])
    assert code == 2
    assert f"{field} must be at least 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--lr", "nan", "lr must be a positive finite number, got nan"),
    ("--lr", "inf", "lr must be a positive finite number, got inf"),
    ("--lr", "-1", "lr must be a positive finite number, got -1.0"),
    ("--lr", "0", "lr must be a positive finite number, got 0.0"),
    ("--seed", "-1", "seed must be at least 0, got -1"),
])
def test_train_with_an_lr_or_seed_it_cannot_use_exits_2_naming_the_field(tmp_path, capsys,
                                                                          flag, value, message):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "12", "--sentences", "3", "--dim", "16",
                 "--out", str(ds)]) == 0
    code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                 "--hidden", "16", "--heads", "4", "--enc-layers", "1", "--dec-layers", "1",
                 "--epochs", "1", flag, value])
    assert code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_a_train_rejected_for_its_flags_leaves_out_free_for_the_corrected_rerun(tmp_path,
                                                                                capsys):
    ds, out = tmp_path / "ds", tmp_path / "run"
    assert main(["generate", "--n", "12", "--sentences", "3", "--dim", "16",
                 "--out", str(ds)]) == 0
    argv = ["train", "--dataset", str(ds), "--out", str(out), "--hidden", "16",
            "--enc-layers", "1", "--dec-layers", "1", "--epochs", "1"]
    for bad, message in ((["--lr", "nan"], "lr must be a positive finite number, got nan"),
                         (["--heads", "0"], "heads must be at least 1, got 0")):
        assert main(argv + bad) == 2
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
    assert main(argv + ["--lr", "1e-3", "--heads", "4"]) == 0
    assert {p.name for p in out.iterdir()} >= {"invocation.json", "best.npz", "last.npz"}


@pytest.mark.parametrize("flag, field", [("--heads", "heads"), ("--hidden", "hidden")])
def test_train_with_zero_heads_or_hidden_exits_2_naming_the_field(tmp_path, capsys, flag,
                                                                  field):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "12", "--sentences", "3", "--dim", "16",
                 "--out", str(ds)]) == 0
    code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "run"),
                 "--hidden", "16", "--heads", "4", "--enc-layers", "1", "--dec-layers", "1",
                 "--epochs", "1", flag, "0"])
    assert code == 2
    assert f"{field} must be at least 1, got 0" in capsys.readouterr().err


def test_bare_train_and_generate_parse_to_the_dataclass_defaults():
    parser = build_parser()
    model = {f.name: f.default for f in fields(ModelConfig)}
    trainer = {f.name: f.default for f in fields(TrainConfig)}
    spec = {f.name: f.default for f in fields(SynthSpec)}
    args = vars(parser.parse_args(["train", "--dataset", "d", "--out", "o"]))
    for flag, default in [("queries", model["num_queries"]), ("hidden", model["hidden"]),
                          ("heads", model["heads"]), ("enc_layers", model["enc_layers"]),
                          ("dec_layers", model["dec_layers"]),
                          ("dn_groups", model["dn_groups"]),
                          ("max_tokens", model["max_tokens"]),
                          ("epochs", trainer["epochs"]),
                          ("batch_size", trainer["batch_size"]),
                          ("lr", trainer["lr"]), ("seed", trainer["seed"])]:
        assert args[flag] == default, flag
    args = vars(parser.parse_args(["generate", "--out", "o"]))
    for flag, default in [("n", spec["n_texts"]), ("style", spec["style"]),
                          ("sentences", spec["n_sentences"]), ("signal", spec["signal"]),
                          ("dim", spec["embed_dim"]), ("embed_seed", spec["embed_seed"])]:
        assert args[flag] == default, flag


def test_features_that_do_not_fit_the_model_exit_2_naming_the_record(tiny_pipeline, tmp_path,
                                                                     capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    split = load_split(ds)
    wide, empty, wide_train = split.test[0], split.test[2], split.train[2]
    for victim in (wide, wide_train):
        ef = read_embedding_file(emb / f"{victim.id}.emb")
        write_embedding_file(emb / f"{victim.id}.emb", np.hstack([ef.vectors, ef.vectors]),
                             ef.offsets, ef.provenance, victim.text)
    write_embedding_file(emb / f"{empty.id}.emb", np.zeros((0, 16)), [], "toy", empty.text)
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(ds),
                 "--embeddings", str(emb), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"record {wide.id}: embedding dim 32 != configured d_model 16" in err
    assert f"record {empty.id}: empty token sequence" in err
    written = list(load_predictions(tmp_path / "p.jsonl"))
    assert written == [s.id for s in split.test if s.id not in (wide.id, empty.id)]
    run = tmp_path / "r"
    code = main(["train", "--dataset", str(ds), "--embeddings", str(emb), "--out", str(run),
                 "--epochs", "1", "--hidden", "16", "--heads", "4", "--max-tokens", "64"])
    assert code == 2
    assert (f"record {wide_train.id}: embedding dim 32 != configured d_model 16"
            in capsys.readouterr().err)
    assert not (run / "last.npz").exists()   # stopped before the first step


def test_a_first_training_record_of_another_width_is_named_as_the_d_model_source(tmp_path,
                                                                                  capsys):
    ds, emb = tmp_path / "ds", tmp_path / "emb"
    assert main(["generate", "--n", "10", "--sentences", "3", "--dim", "16",
                 "--out", str(ds)]) == 0
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    first, second = load_split(ds).train[:2]
    ef = read_embedding_file(emb / f"{first.id}.emb")
    write_embedding_file(emb / f"{first.id}.emb", np.hstack([ef.vectors, ef.vectors]),
                         ef.offsets, ef.provenance, first.text)
    code = main(["train", "--dataset", str(ds), "--embeddings", str(emb),
                 "--out", str(tmp_path / "r"), "--epochs", "1", "--hidden", "16",
                 "--heads", "4"])
    assert code == 2
    assert (f"record {second.id}: embedding dim 16 != configured d_model 32, the width of "
            f"the first training record {first.id}" in capsys.readouterr().err)
    assert not (tmp_path / "r" / "last.npz").exists()


def test_eval_rejects_an_interval_past_the_end_of_its_text(tiny_pipeline, tmp_path, capsys):
    _, ds, _, preds = tiny_pipeline
    lines = preds.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["intervals"][0] = [5, 100000]
    lines[0] = json.dumps(rec)
    bad = tmp_path / "past.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    n_chars = len(next(s for s in load_split(ds).test if s.id == rec["id"]).text)
    assert main(["eval", "--predictions", str(bad), "--dataset", str(ds)]) == 2
    assert (f"record {rec['id']}: interval [5, 100000] ends past the {n_chars}-character text"
            in capsys.readouterr().err)


def test_eval_of_another_splits_predictions_exits_2_naming_the_foreign_ids(tiny_pipeline,
                                                                          capsys):
    _, ds, _, preds = tiny_pipeline
    test_ids = [s.id for s in load_split(ds).test]
    assert main(["eval", "--predictions", str(preds), "--dataset", str(ds),
                 "--split", "val"]) == 2
    more = ", ..." if len(test_ids) > 3 else ""
    assert (f"error: {len(test_ids)} prediction records name no text of the scored split: "
            f"{', '.join(test_ids[:3])}{more}" in capsys.readouterr().err)


def test_more_intervals_than_queries_exit_2_naming_the_record(tmp_path, capsys):
    ds = tmp_path / "multi"
    assert main(["generate", "--n", "20", "--sentences", "4", "--style", "multi",
                 "--dim", "16", "--out", str(ds)]) == 0
    split = load_split(ds)
    over = next(s for s in split.train + split.val if len(s.intervals) > 1)
    code = main(["train", "--dataset", str(ds), "--out", str(tmp_path / "r"),
                 "--epochs", "1", "--hidden", "16", "--heads", "4", "--queries", "1"])
    assert code == 2
    assert (f"record {over.id}: {len(over.intervals)} intervals exceed num_queries 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "r" / "last.npz").exists()


def test_lines_that_are_not_json_objects_name_the_path_and_line(tiny_pipeline, tmp_path,
                                                                capsys):
    _, ds, _, preds = tiny_pipeline
    lines = preds.read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    for line, message in (("5", "expected a JSON object, got int"),
                          ('{"id": ', "Expecting value")):
        bad.write_text("\n".join([lines[0], line] + lines[2:]) + "\n")
        assert main(["eval", "--predictions", str(bad), "--dataset", str(ds)]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}:2: " in err and message in err
    src = tmp_path / "roft.jsonl"
    good = json.dumps({"sentences": ["a b.", "c d."], "boundary": 1})
    src.write_text("\n".join([good, "5", good]) + "\n")
    out = tmp_path / "o.jsonl"
    assert main(["convert", "--format", "roft", "--input", str(src), "--out", str(out)]) == 0
    assert (f"warning: {src}:2: skipped (expected a JSON object, got int)"
            in capsys.readouterr().err)
    assert len(load_annotations(out)) == 2
    assert main(["convert", "--format", "roft", "--input", str(src), "--out", str(out),
                 "--overwrite", "--strict"]) == 2
    assert f"error: {src}:2: expected a JSON object, got int" in capsys.readouterr().err


@pytest.mark.parametrize("meta, message", [
    ("[1, 2]", "[1, 2] is not a JSON object"),
    ('{"spec": [3]}', "spec [3] is not a JSON object"),
    ('{"spec": {"embed_dim": "x"}}', "spec field embed_dim is 'x', not an int"),
    ('{"spec": {"signal": true}}', "spec field signal is True, not a number"),
    ('{"spec": {"embed_dim": 4}}', "spec field embed_dim: embedding dim must be >= 8, got 4"),
    ('{"spec": {"embed_seed": -1}}',
     "spec field embed_seed: embedding table seed -1 must be >= 0"),
    ('{"spec": {"signal": -1}}',
     "spec field signal: signal strength -1 must be a finite number >= 0"),
    ('{"spec": {"signal": NaN}}',
     "spec field signal: signal strength nan must be a finite number >= 0"),
    ('{"spec": {"signal": Infinity}}',
     "spec field signal: signal strength inf must be a finite number >= 0"),
    ('{"seed": 1,}', "not a JSON document: Expecting property name"),
])
def test_a_broken_dataset_meta_exits_2_naming_the_file_and_field(tiny_pipeline, tmp_path,
                                                                 capsys, meta, message):
    _, ds, run_dir, _ = tiny_pipeline
    bad = tmp_path / "ds"
    bad.mkdir()
    for name in ("train", "val", "test"):
        (bad / f"{name}.jsonl").write_bytes((ds / f"{name}.jsonl").read_bytes())
    (bad / "meta.json").write_text(meta)
    for argv in (["embed", "--dataset", str(bad), "--out", str(tmp_path / "emb")],
                 ["train", "--dataset", str(bad), "--out", str(tmp_path / "run"),
                  "--epochs", "1", "--overwrite"],
                 ["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(bad),
                  "--out", str(tmp_path / "p.jsonl")]):
        assert main(argv) == 2, argv[0]
        assert f"error: {bad / 'meta.json'}: {message}" in capsys.readouterr().err, argv[0]


def _dataset_with_first_record(ds, dest, part, edit):
    """A copy of dataset `ds` at `dest` whose first `part` record is changed
    in place by `edit`; returns that record as written."""
    shutil.copytree(ds, dest)
    path = dest / f"{part}.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    edit(rec)
    lines[0] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return rec


@pytest.mark.parametrize("edit", [
    lambda offsets: offsets.reverse(),
    lambda offsets: offsets[1].__setitem__(0, offsets[0][1] - 2),
], ids=["unsorted", "overlapping"])
def test_eval_of_unsorted_or_overlapping_sentence_offsets_exits_2_naming_the_record(
        tiny_pipeline, tmp_path, capsys, edit):
    _, ds, _, preds = tiny_pipeline
    bad = tmp_path / "ds"
    rec = _dataset_with_first_record(ds, bad, "test", lambda r: edit(r["sentence_offsets"]))
    assert main(["eval", "--predictions", str(preds), "--dataset", str(bad)]) == 2
    assert (f"{bad / 'test.jsonl'}:1: invalid record: {rec['id']}: sentence offsets overlap "
            f"or are unsorted at CharSpan(x1={rec['sentence_offsets'][1][0]}"
            in capsys.readouterr().err)


def test_eval_of_a_split_with_no_texts_exits_2_naming_the_dataset_and_split(tmp_path, capsys):
    ds = tmp_path / "ds"
    assert main(["generate", "--n", "5", "--sentences", "4", "--dim", "16",
                 "--out", str(ds)]) == 0
    assert load_split(ds).val == []
    preds = tmp_path / "p.jsonl"
    preds.write_text("")
    assert main(["eval", "--predictions", str(preds), "--dataset", str(ds),
                 "--split", "val"]) == 2
    assert f"error: {ds}: the val split has no texts to score" in capsys.readouterr().err


@pytest.mark.parametrize("bad_id", ["../../escaped", "sub/name", "..", "."])
def test_embed_checks_every_record_id_is_a_plain_file_name_before_writing(
        tiny_pipeline, tmp_path, capsys, bad_id):
    _, ds, _, _ = tiny_pipeline
    bad = tmp_path / "ds"
    _dataset_with_first_record(ds, bad, "test", lambda r: r.update(id=bad_id))
    out = tmp_path / "out" / "emb"
    assert main(["embed", "--dataset", str(bad), "--out", str(out)]) == 2
    assert (f"error: record id {bad_id!r} is not a plain file name"
            in capsys.readouterr().err)
    assert not out.exists() and not list(tmp_path.glob("**/*.emb*"))


def test_predict_reads_no_feature_file_outside_the_embeddings_directory(tiny_pipeline,
                                                                        tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    bad = tmp_path / "ds"
    victim = load_split(ds).test[0]
    _dataset_with_first_record(ds, bad, "test", lambda r: r.update(id=f"../emb/{victim.id}"))
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(bad),
                 "--embeddings", str(emb), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert (f"record ../emb/{victim.id}: record id '../emb/{victim.id}' is not a plain "
            f"file name" in capsys.readouterr().err)
    written = list(load_predictions(tmp_path / "p.jsonl"))
    assert written == [s.id for s in load_split(ds).test[1:]]


def test_a_width_whose_sigmoid_underflows_predicts_one_character_spans(tiny_pipeline,
                                                                       tmp_path):
    _, ds, run_dir, _ = tiny_pipeline
    with np.load(run_dir / "best.npz") as z:
        arrays = {k: z[k] for k in z.files}
    bias = _weight_span(json.loads(str(arrays["__meta__"])), "span_head.layers.1.bias")
    arrays["params"][bias.start + 1] = -2000.0  # the width logit's bias
    narrow = tmp_path / "narrow.npz"
    np.savez(narrow, **arrays)
    out = tmp_path / "p.jsonl"
    assert main(["predict", "--checkpoint", str(narrow), "--dataset", str(ds),
                 "--out", str(out)]) == 0
    records = load_predictions(out)
    assert list(records) == [s.id for s in load_split(ds).test]
    assert all(x2 - x1 == 1 for rec in records.values() for x1, x2 in rec["intervals"])


def _shift_intervals(rec, by):
    rec["intervals"] = [[a + by, b] for a, b in rec["intervals"]]


@pytest.mark.parametrize("edit, message", [
    (lambda r: r.update(text=[r["text"]]), ("{id}: text [{text[0]!r:.12}", "] has type list, "
                                            "not str")),
    (lambda r: _shift_intervals(r, 0.9), ("interval {intervals[0]} is not an int pair",)),
    (lambda r: r.update(intervals=[[str(a), b] for a, b in r["intervals"]]),
     ("interval {intervals[0]!r} is not an int pair",)),
    (lambda r: r.update(label=r["label"] + 0.9), ("{id}: label {label} has type float, not int",)),
], ids=["text-list", "interval-float", "interval-str", "label-float"])
def test_a_record_of_another_json_type_exits_2_naming_the_line_and_field(
        tiny_pipeline, tmp_path, capsys, edit, message):
    _, ds, _, preds = tiny_pipeline
    bad = tmp_path / "ds"
    rec = _dataset_with_first_record(ds, bad, "train", edit)
    head, *rest = (part.format(**rec) for part in message)
    for argv in (["embed", "--dataset", str(bad), "--out", str(tmp_path / "emb")],
                 ["train", "--dataset", str(bad), "--out", str(tmp_path / "run"),
                  "--epochs", "1"],
                 ["eval", "--predictions", str(preds), "--dataset", str(bad)]):
        assert main(argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert f"error: {bad / 'train.jsonl'}:1: invalid record: {head}" in err, argv[0]
        assert all(part in err for part in rest), argv[0]


SENTENCES = ["a b.", "c d.", "e f."]


@pytest.mark.parametrize("fmt, row, message", [
    ("roft", {"sentences": SENTENCES, "boundary": 1.9}, "boundary 1.9 has type float, not int"),
    ("roft", {"sentences": SENTENCES, "boundary": "2"}, "boundary '2' has type str, not int"),
    ("roft", {"sentences": " ".join(SENTENCES), "boundary": 1},
     "sentences 'a b. c d. e f.' has type str, not list"),
    ("tribert", {"sentences": SENTENCES, "boundaries": [True]},
     "boundary True has type bool, not int"),
    ("coauthor", {"text": "abcdefghij klmno pqrst.", "machine_spans": [[13.7, 17.9]]},
     "machine span [13.7, 17.9] is not an int pair 0 <= x1 < x2"),
    ("coauthor", {"text": SENTENCES, "machine_spans": []},
     "text ['a b.', 'c d.', 'e f.'] has type list, not str"),
], ids=["roft-float", "roft-str", "roft-sentences-str", "tribert-bool", "coauthor-float",
        "coauthor-text-list"])
def test_convert_rows_of_another_json_type_are_skipped_or_fail_under_strict(
        tmp_path, capsys, fmt, row, message):
    good = {"roft": {"sentences": SENTENCES, "boundary": 1},
            "tribert": {"sentences": SENTENCES, "boundaries": [1]},
            "coauthor": {"text": "abcdefghij klmno pqrst.", "machine_spans": [[13, 17]]}}[fmt]
    src = tmp_path / "rows.jsonl"
    src.write_text("\n".join(json.dumps(r) for r in (good, row, good)) + "\n")
    out = tmp_path / "o.jsonl"
    argv = ["convert", "--format", fmt, "--input", str(src), "--out", str(out)]
    assert main(argv) == 0
    assert f"warning: {src}:2: skipped ({message})" in capsys.readouterr().err
    assert len(load_annotations(out)) == 2
    assert main(argv + ["--overwrite", "--strict"]) == 2
    assert f"error: {src}:2: {message}" in capsys.readouterr().err


def test_features_kept_as_stored_train_and_predict_as_their_float64_upcast(
        tiny_pipeline, tmp_path, monkeypatch):
    """``--embeddings`` features stay float32 from the file; the detector's
    input upcasts them exactly, so the weights and predictions are bitwise
    those of features upcast at load."""
    import spandet.cli as cli_mod
    _, ds, _, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    stored = cli_mod.load_features

    def upcast(path, text):
        vectors, positions = stored(path, text)
        assert vectors.dtype == np.float32
        return vectors.astype(np.float64), positions

    runs = []
    for loader in (stored, upcast):
        monkeypatch.setattr(cli_mod, "load_features", loader)
        run_dir, preds = tmp_path / f"run-{loader.__name__}", tmp_path / f"{loader.__name__}.jsonl"
        assert main(["train", "--dataset", str(ds), "--embeddings", str(emb),
                     "--out", str(run_dir), "--epochs", "2", "--batch-size", "8",
                     "--hidden", "16", "--heads", "4", "--enc-layers", "1",
                     "--dec-layers", "1", "--max-tokens", "64"]) == 0
        assert main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(ds),
                     "--embeddings", str(emb), "--out", str(preds)]) == 0
        with np.load(run_dir / "best.npz") as ckpt:
            runs.append((ckpt["params"].copy(), preds.read_bytes()))
    assert np.array_equal(runs[0][0], runs[1][0]) and runs[0][1] == runs[1][1]


def test_generate_with_zero_sentences_exits_2_naming_the_field_and_writes_nothing(tmp_path,
                                                                                    capsys):
    out = tmp_path / "x"
    assert run(["generate", "--n", "5", "--sentences", "0", "--dim", "16",
                "--out", str(out)]) == 2
    assert "error: n_sentences: 0 must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, name", [("--threshold", "nan", "score_threshold"),
                                               ("--overlap-threshold", "-1",
                                                "overlap_threshold")])
def test_eval_with_a_threshold_outside_0_1_exits_2_naming_it(tiny_pipeline, tmp_path, capsys,
                                                            flag, value, name):
    _, ds, _, preds = tiny_pipeline
    out = tmp_path / "report.json"
    assert main(["eval", "--predictions", str(preds), "--dataset", str(ds), flag, value,
                 "--out", str(out)]) == 2
    assert (f"error: {name} {float(value)} is not a number in [0, 1]"
            in capsys.readouterr().err)
    assert not out.exists()


def test_embed_of_features_that_overflow_float32_exits_2_naming_the_record(tmp_path, capsys):
    ds, emb = tmp_path / "ds", tmp_path / "emb"
    assert main(["generate", "--n", "5", "--signal", "1e308", "--dim", "16",
                 "--out", str(ds)]) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no overflow warning from the float32 cast
        assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 2
    first = load_split(ds).train[0]
    assert (f"{emb / first.id}.emb: feature values are not finite as float32"
            in capsys.readouterr().err)
    assert not emb.exists()


def test_embed_writes_one_file_per_record_and_a_same_length_edit_exits_2(tiny_pipeline,
                                                                         tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    split = load_split(ds)
    ids = [s.id for part in (split.train, split.val, split.test) for s in part]
    assert sorted(p.name for p in emb.iterdir()) == sorted(f"{i}.emb" for i in ids)
    victim = split.test[0]
    swapped = victim.text.translate(str.maketrans("ae", "ea"))
    assert swapped != victim.text and len(swapped) == len(victim.text)  # offsets still fit
    split.test[0] = replace(victim, text=swapped)
    edited = tmp_path / "edited"
    save_split(edited, split)
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset",
                 str(edited), "--embeddings", str(emb), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert (f"record {victim.id}: {emb / victim.id}.emb: source text hash mismatch"
            in capsys.readouterr().err)


def test_predict_on_a_version_1_embedding_file_exits_2_naming_its_version(tiny_pipeline,
                                                                          tmp_path, capsys):
    _, ds, run_dir, _ = tiny_pipeline
    emb = tmp_path / "emb"
    assert main(["embed", "--dataset", str(ds), "--out", str(emb)]) == 0
    victim = load_split(ds).test[0]
    path = emb / f"{victim.id}.emb"
    ef = read_embedding_file(path)
    n, d = ef.vectors.shape   # the same features in the version-1 layout (no text hash)
    path.write_bytes(struct.pack("<4sBIIB", b"SDEM", 1, n, d, 0)
                     + np.array([(o.x1, o.x2) for o in ef.offsets], dtype="<u4").tobytes()
                     + ef.vectors.tobytes())
    code = main(["predict", "--checkpoint", str(run_dir / "best.npz"), "--dataset", str(ds),
                 "--embeddings", str(emb), "--out", str(tmp_path / "p.jsonl")])
    assert code == 2
    assert (f"record {victim.id}: {path}: unsupported embedding file version 1"
            in capsys.readouterr().err)

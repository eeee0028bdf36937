import filecmp
import json

import pytest

from spandet.cli import main
from spandet.data import (LABEL_HUMAN, AnnotatedText, load_annotations,
                          load_predictions, load_split, save_split)
from spandet.textproc import tokenize


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
    # without the hash sidecar, the offsets past the end of the text show it
    (emb / f"{victim.id}.emb.sha256").unlink()
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

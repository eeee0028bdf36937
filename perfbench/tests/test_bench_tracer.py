"""Span arithmetic and wrapper lifetime of the benchmark's tracer."""

from dataclasses import replace

import pytest

import spandet
from spandet import data, metrics, model, nn, tensor, textproc, training
from perfbench import tracer as tracing
from perfbench import workloads as W
from perfbench.tracer import Span, Tracer, self_times


def test_self_time_subtracts_children_on_hand_built_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.x", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("b.x", 5.0, 7.0, 3),
        Span("b.y", 6.0, 8.0, 3),       # overlaps b.x: covered once
        Span("c", 9.5, 12.0, 0),        # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 1.0, 2.0, 2.0, 2.5])


def test_wrapper_records_name_parent_and_after_hook():
    tr = Tracer()
    seen = []
    inner = tr.wrap(lambda x: x + 1, "inner", after=lambda r, args: seen.append((r, args)))
    outer = tr.wrap(lambda x: inner(x) * 2, lambda x: f"outer{x}")
    assert outer(3) == 8
    assert [(s.name, s.parent) for s in tr.spans] == [("outer3", -1), ("inner", 0)]
    assert seen == [(4, (3,))]
    assert all(s.end >= s.start for s in tr.spans)


def _snapshot():
    owners = [training, model, textproc, metrics, data, nn, tensor,
              training.AdamW, model.DetectionModel, model.EncoderLayer,
              model.DecoderLayer, nn.Linear, tensor.Tensor]
    return {(o, k): v for o in owners for k, v in vars(o).items() if callable(v)}


def tiny(name="train_c08", **kw):
    base = dict(d_model=16, hidden=16, heads=4, max_tokens=64, sentences=(4,),
                words=(2, 4), n_train=3, n_val=1, n_test=4, epochs=2,
                shares=(0.0, 0.0, 0.0))
    base.update(kw)
    return replace(W.WORKLOADS[name], **base)


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    w = tiny(predict_from_files=True)
    inputs = W.setup(w, seed=1, work=tmp_path)
    before = _snapshot()
    tr = Tracer()
    with tr.installed():
        assert training.hungarian is not before[(training, "hungarian")]
        assert tensor.Tensor.backward is not before[(tensor.Tensor, "backward")]
        raw = W.run_phases(w, inputs, 0.0,
                           wrap_provider=lambda p: tr.wrap(p, "data.provider"))
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = {s.name for s in tr.spans}
    assert {"training.loss", "matching.hungarian", "tensor.backward",
            "model.proj", "model.encoder", "model.predict", "data.provider",
            "textproc.read_embedding_file", "metrics.evaluate"} <= names
    phases = {"train": {"windows": raw["windows"]["train"], "ops": 6, "val_ops": 2},
              "predict": {"windows": raw["windows"]["predict"], "ops": 4},
              "eval": {"windows": raw["windows"]["eval"], "ops": 4}}
    per_layer = tracing.layer_metrics(tr, phases, "train", 0.1)
    assert set(per_layer) | {"trace.overhead_pct"} == set(tracing.UNITS)
    assert per_layer["matching.calls"] == 3.0      # one per decoder layer
    assert per_layer["tensor.nodes_train"] > per_layer["tensor.nodes_predict"] > 0


def test_wrappers_are_removed_when_the_traced_block_raises():
    before = training.hungarian
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    assert training.hungarian is before
    assert spandet.training.AdamW.step is vars(training.AdamW)["step"]

"""Span tracing from outside the program.

Wrappers are installed on the names at the place where they are called
(``spandet.training.hungarian``, not ``spandet.matching.hungarian``), record
one span per call (name, start, end, parent) in memory, and are removed again
when the traced run ends, so every patched name is identical to its original
afterwards. Nothing inside ``src/`` knows about tracing.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the top

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals before subtracting, so overlapping
    children are not counted twice.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def count_reachable(roots) -> int:
    """Tape nodes reachable from `roots` through their parents, leaves
    included; each node counted once."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class Tracer:
    """Records spans for wrapped calls; holds every span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.grad_norms: list[float] = []
        self.nodes_train: int | None = None
        self.nodes_predict: int | None = None
        self.bytes_read = 0
        self.model = None           # detector whose forward is running
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, fn, name, after=None):
        """Wrap `fn` so each call records a span. `name` is a string or a
        function of the call's arguments; `after(result, args)` runs once the
        span has closed."""
        def wrapper(*args, **kwargs):
            idx = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result, args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Patch the call sites for the duration of the block."""
        install(self)
        try:
            yield self
        finally:
            self.unpatch_all()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")


def install(tr: Tracer) -> None:
    from spandet import metrics, model, nn, tensor, textproc, training

    def patch(owner, attr, name, after=None):
        tr.patch(owner, attr, tr.wrap(owner.__dict__[attr], name, after))

    patch(training, "make_denoising", "training.denoise")
    patch(training, "detection_loss",
          lambda out, *a, **k: "training.loss" if out.dn_layers else "training.val_loss")
    patch(training, "build_match_cost", "matching.cost")
    patch(training, "hungarian", "matching.hungarian")
    patch(training, "clip_grad_norm", "training.clip",
          after=lambda norm, args: tr.grad_norms.append(norm))
    patch(training.AdamW, "step", "training.adamw")
    patch(model.DetectionModel, "predict", "model.predict")
    patch(model.EncoderLayer, "__call__", "model.encoder")
    patch(model.DecoderLayer, "self_block", "model.decoder_self")
    patch(model.DecoderLayer, "cross_ffn", "model.decoder_cross_ffn")
    patch(textproc, "read_embedding_file", "textproc.read_embedding_file",
          after=lambda ef, args: setattr(tr, "bytes_read",
                                         tr.bytes_read + os.path.getsize(args[0])))

    forward = tr.wrap(model.DetectionModel.__dict__["forward"],
                      lambda self, v, p, dn=None:
                      "model.forward_dn" if dn is not None else "model.forward")

    def traced_forward(self, *args, **kwargs):
        outer, tr.model = tr.model, self
        try:
            out = forward(self, *args, **kwargs)
        finally:
            tr.model = outer
        if tr.nodes_predict is None and tr.current() == "model.predict":
            roots = [t for layer in out.layers for t in (layer.cw, layer.logits)]
            tr.nodes_predict = count_reachable(roots)
        return out
    tr.patch(model.DetectionModel, "forward", traced_forward)

    linear = nn.Linear.__dict__["__call__"]
    proj = tr.wrap(linear, "model.proj")

    def traced_linear(self, x):
        if tr.model is not None and self is tr.model.proj:
            return proj(self, x)
        return linear(self, x)
    tr.patch(nn.Linear, "__call__", traced_linear)

    backward = tr.wrap(tensor.Tensor.__dict__["backward"], "tensor.backward")

    def traced_backward(self):
        if tr.nodes_train is None:
            tr.nodes_train = count_reachable([self])
        return backward(self)
    tr.patch(tensor.Tensor, "backward", traced_backward)

    patch(metrics, "evaluate_detection", "metrics.evaluate")


# -- per-layer metrics -----------------------------------------------------------

UNITS = {
    "tensor.backward_ms": "ms", "tensor.nodes_train": "count",
    "tensor.nodes_predict": "count", "model.forward_dn_ms": "ms",
    "model.forward_ms": "ms", "model.proj_ms": "ms", "model.encoder_ms": "ms",
    "model.decoder_self_ms": "ms", "model.decoder_cross_ffn_ms": "ms",
    "model.predict_ms": "ms", "training.loss_ms": "ms", "training.denoise_ms": "ms",
    "training.clip_ms": "ms", "training.adamw_ms": "ms",
    "training.validation_ms": "ms", "training.grad_norm_preclip_p50": "norm",
    "training.clip_frac": "fraction", "matching.cost_ms": "ms",
    "matching.hungarian_ms": "ms", "matching.calls": "count",
    "data.provider_ms": "ms", "textproc.read_embedding_file_ms": "ms",
    "textproc.bytes_read": "bytes", "metrics.evaluate_ms": "ms",
    "trace.overhead_pct": "%",
}


def _in(span: Span, windows: list[tuple[float, float]]) -> bool:
    return any(lo <= span.start and span.end <= hi for lo, hi in windows)


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p].name
        p = spans[p].parent


def layer_metrics(tr: Tracer, phases: dict, main: str, grad_clip: float) -> dict:
    """Per-layer metrics from a traced run.

    `phases` maps "train"/"predict"/"eval" to {"windows": [(t0, t1), ...],
    "ops": n}, plus "val_ops" for train. Times are inclusive span durations
    in ms, divided by the operation count of the phase they belong to; the
    model's sub-layers are divided by the operations of the `main` phase.
    """
    spans = tr.spans
    tp, pp, ep = phases["train"], phases["predict"], phases["eval"]

    def total(name, phase, under=None):
        return sum(s.duration for i, s in enumerate(spans)
                   if s.name == name and _in(s, phase["windows"])
                   and (under is None or under in _ancestors(spans, i)))

    def per(seconds, ops):
        return 1e3 * seconds / ops if ops else 0.0

    ts, vs, pt = tp["ops"], tp["val_ops"], pp["ops"]
    main_phase, main_ops = (tp, ts) if main == "train" else (pp, pt)
    reads = sum(1 for s in spans if s.name == "textproc.read_embedding_file")
    read_s = sum(s.duration for s in spans if s.name == "textproc.read_embedding_file")
    calls = sum(1 for i, s in enumerate(spans) if s.name == "matching.hungarian"
                and "training.loss" in _ancestors(spans, i))
    norms = tr.grad_norms
    return {
        "tensor.backward_ms": per(total("tensor.backward", tp), ts),
        "tensor.nodes_train": tr.nodes_train or 0,
        "tensor.nodes_predict": tr.nodes_predict or 0,
        "model.forward_dn_ms": per(total("model.forward_dn", tp), ts),
        "model.forward_ms": per(total("model.forward", pp, "model.predict"), pt),
        "model.proj_ms": per(total("model.proj", main_phase), main_ops),
        "model.encoder_ms": per(total("model.encoder", main_phase), main_ops),
        "model.decoder_self_ms": per(total("model.decoder_self", main_phase), main_ops),
        "model.decoder_cross_ffn_ms": per(total("model.decoder_cross_ffn", main_phase),
                                          main_ops),
        "model.predict_ms": per(total("model.predict", pp), pt),
        "training.loss_ms": per(total("training.loss", tp), ts),
        "training.denoise_ms": per(total("training.denoise", tp), ts),
        "training.clip_ms": per(total("training.clip", tp), ts),
        "training.adamw_ms": per(total("training.adamw", tp), ts),
        "training.validation_ms": per(total("model.forward", tp)
                                      + total("training.val_loss", tp), vs),
        "training.grad_norm_preclip_p50": statistics.median(norms) if norms else 0.0,
        "training.clip_frac": (sum(n > grad_clip for n in norms) / len(norms)
                               if norms else 0.0),
        "matching.cost_ms": per(total("matching.cost", tp, "training.loss"), ts),
        "matching.hungarian_ms": per(total("matching.hungarian", tp, "training.loss"), ts),
        "matching.calls": calls / ts if ts else 0.0,
        "data.provider_ms": per(total("data.provider", pp), pt),
        "textproc.read_embedding_file_ms": per(read_s, reads),
        "textproc.bytes_read": tr.bytes_read / reads if reads else 0.0,
        "metrics.evaluate_ms": per(total("metrics.evaluate", ep), ep["ops"]),
    }


def self_time_table(tr: Tracer) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive seconds, self seconds) per span name."""
    selfs = self_times(tr.spans)
    rows: dict[str, list] = {}
    for s, st in zip(tr.spans, selfs):
        r = rows.setdefault(s.name, [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s.duration
        r[2] += st
    return sorted(((k, *v) for k, v in rows.items()), key=lambda r: -r[3])

"""Evaluation and post-processing: interval-to-sentence mapping, sentence
overlap labeling, boundary snapping, F1@K over top-K boundaries, boundary
regression metrics, Cohen's kappa, classification metrics, and the training
CO2 estimator.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .data import (LABEL_HUMAN, LABEL_MACHINE, LABEL_MIXED, AnnotatedText,
                   split_sentences)
from .geometry import CharSpan, merge_spans


def interval_to_sentence(t_i: int, sentences: Sequence[CharSpan]) -> int:
    """Map a character position to a sentence index: the number of sentences
    whose midpoint (of their first and last character) lies at or before it.
    The sentences must be sorted and disjoint, as ``AnnotatedText.validate``
    demands. A position inside sentence i so gets i, bumped to i+1 at or past
    the midpoint; a position between two sentences gets the later one; one
    before the first gets 0 and one past the last ``len(sentences)``."""
    if not sentences:
        raise ValueError("no sentences")
    return bisect_right(sentences, t_i, key=lambda sp: (sp.x1 + sp.x2 - 1) / 2.0)


def overlap_labels(sentences: Sequence[CharSpan],
                   predicted_intervals: Sequence[CharSpan],
                   threshold: float = 0.94) -> list[int]:
    """Per-sentence authorship from the covered character fraction o:
    o > threshold -> machine, o == 0 -> human, otherwise mixed."""
    union = merge_spans(predicted_intervals)
    labels = []
    for s in sentences:
        covered = sum(max(0, min(s.x2, p.x2) - max(s.x1, p.x1)) for p in union)
        o = covered / len(s)
        if o > threshold:
            labels.append(LABEL_MACHINE)
        elif o == 0:
            labels.append(LABEL_HUMAN)
        else:
            labels.append(LABEL_MIXED)
    return labels


def snap_endpoint(p: int, sentences: Sequence[CharSpan], text_len: int) -> int | None:
    """Snap one interval endpoint to a sentence beginning.

    An endpoint in the first half of [b_i, b_{i+1}) maps to b_i, otherwise to
    b_{i+1}; results equal to the text's beginning or end are dropped (None),
    since a boundary can only sit between two sentences."""
    starts = [s.x1 for s in sentences]
    bounds = starts + [text_len]
    i = bisect_right(bounds, p) - 1
    i = min(max(i, 0), len(starts) - 1)
    b = bounds[i] if p < (bounds[i] + bounds[i + 1]) / 2.0 else bounds[i + 1]
    if b <= bounds[0] or b >= text_len:
        return None
    return b


def snap_boundaries(pred_intervals: Sequence[CharSpan],
                    sentences: Sequence[CharSpan], text_len: int) -> list[int]:
    """Snap every interval endpoint; sorted, deduplicated, strictly inside."""
    out = set()
    for sp in pred_intervals:
        for p in (sp.x1, sp.x2):
            b = snap_endpoint(p, sentences, text_len)
            if b is not None:
                out.add(b)
    return sorted(out)


def f1_at_k(scored_boundaries: Sequence[tuple[int, float]],
            gt_boundaries: Sequence[int], k: int) -> float:
    """F1 between the top-K predicted boundaries and the ground truth:
    2|top_K & gt| / (|top_K| + |gt|). Duplicate positions keep their best
    score before ranking."""
    if k <= 0:
        raise ValueError(f"K must be positive, got {k}")
    best: dict[int, float] = {}
    for pos, score in scored_boundaries:
        if pos not in best or score > best[pos]:
            best[pos] = score
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    top = {pos for pos, _ in ranked}
    gt = set(gt_boundaries)
    if not top and not gt:
        return 1.0
    return 2.0 * len(top & gt) / (len(top) + len(gt))


def boundary_suite(preds: Sequence[int], gts: Sequence[int]) -> dict[str, float]:
    """Exact accuracy, off-by-at-most-one accuracy, and MSE over per-text
    boundary sentence indices."""
    if len(preds) != len(gts):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(gts)} targets")
    p = np.asarray(preds, dtype=float)
    g = np.asarray(gts, dtype=float)
    return {"acc": float(np.mean(p == g)),
            "soft_acc1": float(np.mean(np.abs(p - g) <= 1)),
            "mse": float(np.mean((p - g) ** 2))}


def kappa(pred_labels: Sequence[int], gt_labels: Sequence[int]) -> float:
    """Cohen's kappa: (p0 - pe) / (1 - pe), pe from both raters' marginals."""
    if len(pred_labels) != len(gt_labels):
        raise ValueError(f"length mismatch: {len(pred_labels)} vs {len(gt_labels)}")
    if not pred_labels:
        raise ValueError("empty labelings")
    p = np.asarray(pred_labels)
    g = np.asarray(gt_labels)
    n = len(p)
    p0 = float(np.mean(p == g))
    classes = np.union1d(p, g)
    pe = float(sum((np.mean(p == c)) * (np.mean(g == c)) for c in classes))
    if pe == 1.0:
        if p0 == 1.0:
            return 1.0
        raise ValueError("degenerate marginals: chance agreement is 1 but raters disagree")
    return (p0 - pe) / (1.0 - pe)


def _reject_scores(s: np.ndarray, bad: np.ndarray, rule: str) -> None:
    """Raise naming the first score flagged in `bad`."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"score {i} is {s[i]}: scores must {rule}")


def auroc(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Rank-based (Mann-Whitney) AUROC; tied scores count half. Scores must
    be finite."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    _reject_scores(s, ~np.isfinite(s), "be finite")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC undefined: labels contain a single class")
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    # a tie group's average 1-based rank: its last rank minus half its extent
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = float(ranks[y == 1].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def classification_suite(scores: Sequence[float], labels: Sequence[int],
                         threshold: float = 0.5) -> dict[str, float]:
    """Accuracy, per-class recall, AvgRec, machine-class F1, and AUROC for
    machine-probability scores against binary labels."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    _reject_scores(s, ~((s >= 0) & (s <= 1)), "lie in [0, 1]")  # NaN included
    pred = (s >= threshold).astype(int)
    acc = float(np.mean(pred == y))
    machine_rec = float(np.mean(pred[y == 1] == 1)) if (y == 1).any() else 0.0
    human_rec = float(np.mean(pred[y == 0] == 0)) if (y == 0).any() else 0.0
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"acc": acc, "human_rec": human_rec, "machine_rec": machine_rec,
            "avg_rec": (human_rec + machine_rec) / 2.0, "f1_machine": f1,
            "auroc": auroc(s, y)}


def co2_estimate(pue: float, kwh: float, intensity_g_per_kwh: float) -> float:
    """Kilograms of CO2: PUE * kWh * intensity / 1000."""
    if pue <= 0 or kwh < 0 or intensity_g_per_kwh < 0:
        raise ValueError("PUE must be positive; energy and intensity non-negative")
    return pue * kwh * intensity_g_per_kwh / 1000.0


# -- corpus-level evaluation ---------------------------------------------------


def evaluate_detection(samples: list[AnnotatedText], preds: dict[str, dict],
                       k: int = 3, score_threshold: float = 0.5,
                       overlap_threshold: float = 0.94) -> dict:
    """Full detection report for predicted intervals against annotations.

    `preds` maps text id to a record with "intervals" (char pairs) and
    "scores". Produces F1@K (overall and grouped by ground-truth boundary
    count), sentence-label kappa, classification metrics, and, when every
    text carries at most one interval, the boundary regression suite. An
    interval that ends past its text raises ``ValueError`` naming the record,
    as does a record whose id names no text of `samples` (a wrong split). An
    empty `samples` raises before any mean is taken, and so does a
    threshold that is not a number in [0, 1].
    """
    for name, value in (("score_threshold", score_threshold),
                        ("overlap_threshold", overlap_threshold)):
        if not 0 <= value <= 1:  # NaN included
            raise ValueError(f"{name} {value} is not a number in [0, 1]")
    if not samples:
        raise ValueError("no texts to score")
    ids = {s.id for s in samples}
    foreign = [k for k in preds if k not in ids]
    if foreign:
        more = ", ..." if len(foreign) > 3 else ""
        raise ValueError(f"{len(foreign)} prediction records name no text of the scored "
                         f"split: {', '.join(foreign[:3])}{more}")
    single_boundary = all(len(s.intervals) <= 1 for s in samples)
    gt_bounds_per_text: list[int] = []
    pred_bounds_per_text: list[int] = []
    f1_scores: list[float] = []
    f1_by_group: dict[int, list[float]] = {}
    kappa_pred: list[int] = []
    kappa_gt: list[int] = []
    cls_scores: list[float] = []
    cls_labels: list[int] = []
    missing = 0

    for s in samples:
        sentences = s.sentence_offsets or split_sentences(s.text)
        rec = preds.get(s.id)
        if rec is None:
            missing += 1
            spans_scores: list[tuple[CharSpan, float]] = []
        else:
            for a, b in rec["intervals"]:
                if b > len(s.text):
                    raise ValueError(f"record {s.id}: interval [{a}, {b}] ends past the "
                                     f"{len(s.text)}-character text")
            spans_scores = [(CharSpan(int(a), int(b)), float(sc))
                            for (a, b), sc in zip(rec["intervals"], rec["scores"])]
        kept = [sp for sp, sc in spans_scores if sc >= score_threshold]

        if single_boundary:
            gt_b = (interval_to_sentence(s.intervals[0].x1, sentences)
                    if s.intervals else len(sentences))
            if kept:
                top_span = max(spans_scores, key=lambda t: t[1])[0]
                pred_b = interval_to_sentence(top_span.x1, sentences)
            else:
                pred_b = len(sentences)
            gt_bounds_per_text.append(gt_b)
            pred_bounds_per_text.append(pred_b)

        gt_snap = snap_boundaries(s.intervals, sentences, len(s.text))
        candidates = [(b, sc) for sp, sc in spans_scores
                      for b in snap_boundaries([sp], sentences, len(s.text))]
        f1 = f1_at_k(candidates, gt_snap, k)
        f1_scores.append(f1)
        f1_by_group.setdefault(len(gt_snap), []).append(f1)

        kappa_pred.extend(overlap_labels(sentences, kept, overlap_threshold))
        kappa_gt.extend(overlap_labels(sentences, s.intervals, overlap_threshold))

        cls_scores.append(max((sc for _, sc in spans_scores), default=0.0))
        cls_labels.append(1 if s.intervals else 0)

    report: dict = {
        "n_texts": len(samples),
        "missing_predictions": missing,
        "f1_at_k": {"k": k, "all": float(np.mean(f1_scores)),
                    "by_boundary_count": {str(g): float(np.mean(v))
                                          for g, v in sorted(f1_by_group.items())}},
        "kappa": kappa(kappa_pred, kappa_gt),
    }
    if single_boundary:
        report["boundary"] = boundary_suite(pred_bounds_per_text, gt_bounds_per_text)
    if len(set(cls_labels)) == 2:
        report["classification"] = classification_suite(cls_scores, cls_labels)
    return report


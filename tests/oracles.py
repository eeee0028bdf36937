"""Independent scalar references: the five-term detection objective, used to
cross-check the tensor implementation, the interval clamp of the denoising
queries, and the sentence rules (splitting, sentence index, boundary snap).
Pure python floats, character loops, scans and brute-force matching; they
share no code with the library."""

import itertools
import math

import numpy as np

from spandet.geometry import CharSpan, Interval


def l1(a, b):
    """Span L1 between two (c, w) pairs."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def giou(a, b):
    """Generalized IoU between two (c, w) pairs, with the union and hull
    taken from the endpoints."""
    a1, a2 = a[0] - a[1] / 2, a[0] + a[1] / 2
    b1, b2 = b[0] - b[1] / 2, b[0] + b[1] / 2
    inter = max(0.0, min(a2, b2) - max(a1, b1))
    union = (a2 - a1) + (b2 - b1) - inter
    hull = max(a2, b2) - min(a1, b1)
    return inter / union - (hull - union) / hull


def clamp_interval(c, w, min_w=1e-4):
    """Force (c, w) into a valid normalized interval: the width into
    [min_w, 1], then the center so the interval lies in [0, 1]. The scalar
    reference for ``training.make_denoising``'s clamp."""
    w = min(max(w, min_w), 1.0)
    c = min(max(c, w / 2), 1.0 - w / 2)
    return Interval(c, w)


def sig(x):
    return 1.0 / (1.0 + math.exp(-x))


def reference_objective(pred_cw, pred_logits, dn_cw, dn_idx, gts, lw,
                        alpha=0.25, gamma=2.0):
    n, m = len(pred_cw), len(gts)
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(n), m):
        c = sum(lw.span * l1(pred_cw[perm[j]], gts[j])
                - lw.giou * giou(pred_cw[perm[j]], gts[j])
                - lw.focal * sig(pred_logits[perm[j]]) for j in range(m))
        if c < best:
            best, best_perm = c, perm
    matched = set(best_perm or ())
    l_span = sum(l1(pred_cw[best_perm[j]], gts[j]) for j in range(m)) / m if m else 0.0
    l_giou = sum(1 - giou(pred_cw[best_perm[j]], gts[j]) for j in range(m)) / m if m else 0.0
    l_focal = 0.0
    for i in range(n):
        p = sig(pred_logits[i])
        pt = p if i in matched else 1 - p
        at = alpha if i in matched else 1 - alpha
        l_focal += -at * (1 - pt) ** gamma * math.log(max(pt, 1e-12))
    l_focal /= n
    if dn_cw is not None:
        d = len(dn_cw)
        l_dn_span = sum(l1(dn_cw[q], gts[dn_idx[q]]) for q in range(d)) / d
        l_dn_giou = sum(1 - giou(dn_cw[q], gts[dn_idx[q]]) for q in range(d)) / d
    else:
        l_dn_span = l_dn_giou = 0.0
    return (lw.span * l_span + lw.giou * l_giou + lw.focal * l_focal
            + lw.dn_span * l_dn_span + lw.dn_giou * l_dn_giou)


def random_instance(seed, n=3, m=2, with_dn=True, dn_count=4):
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.05, 0.6, size=n)
    centers = np.array([rng.uniform(w / 2, 1 - w / 2) for w in widths])
    cw = np.stack([centers, widths], axis=1)
    logits = rng.normal(size=n) * 2
    gws = rng.uniform(0.05, 0.6, size=m)
    gcs = np.array([rng.uniform(w / 2, 1 - w / 2) for w in gws])
    gts = [Interval(c, w) for c, w in zip(gcs, gws)]
    if with_dn:
        dn = np.stack([np.array([rng.uniform(w / 2, 1 - w / 2), w])
                       for w in rng.uniform(0.05, 0.6, size=dn_count)])
        dn_idx = np.array([q % m for q in range(dn_count)])
    else:
        dn, dn_idx = None, None
    return cw, logits, dn, dn_idx, gts


def reference_split_sentences(text):
    """The naive splitter as a character loop: from each non-whitespace start,
    a sentence ends after the run of terminals and closers that follows a
    terminal, once that run is followed by whitespace or the end of the text;
    a text with no such end ends at its last non-whitespace character."""
    terminals, closers = ".!?", "\"')]"
    spans = []
    n = len(text)
    i = 0
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            break
        j = i
        end = None
        while j < n:
            if text[j] in terminals:
                k = j
                while k + 1 < n and text[k + 1] in terminals + closers:
                    k += 1
                if k + 1 >= n or text[k + 1].isspace():
                    end = k + 1
                    break
                j = k
            j += 1
        if end is None:
            end = n
            while end > i and text[end - 1].isspace():
                end -= 1
        spans.append(CharSpan(i, end))
        i = end
    return spans


def reference_sentence_index(t, sents):
    """The sentence-index rule by scan and nearest search: the sentence that
    contains `t`, else the nearest by character distance (the earlier on a
    tie), bumped by one when `t` sits at or past its midpoint."""
    idx = next((i for i, sp in enumerate(sents) if sp.x1 <= t < sp.x2), None)
    if idx is None:
        idx = min(range(len(sents)),
                  key=lambda i: (sents[i].x1 - t if t < sents[i].x1
                                 else t - (sents[i].x2 - 1)))
    sp = sents[idx]
    return idx + (1 if t >= (sp.x1 + sp.x2 - 1) / 2 else 0)


def reference_snap_endpoint(t, sents, text_len):
    """The boundary-snap rule by walking the sentence starts: the start of
    the gap [b_i, b_{i+1}) holding `t` if `t` is in its first half, else the
    next; the text's beginning and end snap to None."""
    bounds = [sp.x1 for sp in sents] + [text_len]
    i = 0
    while i + 1 < len(bounds) - 1 and bounds[i + 1] <= t:
        i += 1
    b = bounds[i] if t < (bounds[i] + bounds[i + 1]) / 2 else bounds[i + 1]
    return None if b in (bounds[0], text_len) else b

"""Scalar-valued probe functions exercising every differentiable primitive:
the engine's ops, the reference ops in ``reference_ops`` and the custom
nodes of the package. Shared by the unit tests and the acceptance gradient
sweep."""

import numpy as np

from spandet import tensor as T
from spandet.geometry import Interval
from spandet.model import LayerPrediction
from spandet.nn import _concat_per_head
from spandet.training import composite_loss, cross_entropy

import reference_ops as R


def make_aux(seed):
    """Frozen auxiliary constants; grad_check needs a deterministic function."""
    rng = np.random.default_rng(seed)
    return {
        "x": rng.normal(size=(3, 4)),
        "w": T.Tensor(rng.normal(size=(3, 4))),
        "m": T.Tensor(rng.normal(size=(4, 2))),
        "bias": T.Tensor(rng.normal(size=4)),
        "gain": T.Tensor(rng.normal(size=4)),
        "w26": T.Tensor(rng.normal(size=(2, 6))),
        "w32": T.Tensor(rng.normal(size=(3, 2))),
        "row": T.Tensor(rng.normal(size=(1, 4))),
        "w68": T.Tensor(rng.normal(size=(6, 8))),
        "gts": [Interval(rng.uniform(w / 2, 1 - w / 2), w)
                for w in rng.uniform(0.1, 0.6, size=2)],
        "label": int(rng.integers(12)),
        "w38": T.Tensor(rng.normal(size=(3, 8))),
    }


# additive attention-style mask: -inf hides an entry, no row is fully hidden
BLOCK_MASK = np.array([[0.0, -np.inf, 0.0, -np.inf],
                       [0.0, 0.0, -np.inf, -np.inf],
                       [-np.inf, 0.0, 0.0, 0.0]])

# BLOCK_MASK with each row's visible scores raised by its own offset: the
# scores pass tensor.EXP_LIMIT, and row 2's exp would overflow unshifted
SHIFTED_MASK = BLOCK_MASK + np.array([[200.0], [500.0], [800.0]])

# record ids of stacked rows, for attention over a micro-batch's segments
UNEVEN = T.segments([0, 0, 1], [0, 1, 1, 0])      # 2 queries/2 keys, 1/2
IN_RECORD = T.segments([0, 0, 1], [0, 0, 0, 1])   # 2 queries/3 keys, 1/1
NO_QUERIES = T.segments([0, 0, 2], [0, 1, 2, 0])  # record 1: a key, no query
# DN-style: record 0's queries see its first key (the prefix) and their own
# group's key; record 1's query its one key; entries across records are unread
DN_BLOCKS = np.array([[0.0, 0.0, -np.inf, -np.inf],
                      [0.0, -np.inf, 0.0, -np.inf],
                      [-np.inf, -np.inf, -np.inf, 0.0]])


GRAD_CASES = {
    "matmul": lambda t, a: R.sum_(R.matmul(t, a["m"])),
    "add_bias": lambda t, a: R.sum_(R.mul(R.add(t, a["bias"]), a["w"])),
    "mul": lambda t, a: R.sum_(R.mul(t, a["w"])),
    "div": lambda t, a: R.sum_(R.div(t, R.add(R.abs_(a["w"]), 1.0))),
    "softmax": lambda t, a: R.sum_(R.mul(R.softmax(t, axis=-1), a["w"])),
    "layer_norm": lambda t, a: R.sum_(R.mul(T.layer_norm(t, a["gain"], a["bias"]), a["w"])),
    "sigmoid": lambda t, a: R.sum_(R.mul(T.sigmoid(t), a["w"])),
    "exp": lambda t, a: R.sum_(R.mul(R.exp(R.mul(t, 0.3)), a["w"])),
    "log": lambda t, a: R.sum_(R.mul(R.log(R.exp(t)), a["w"])),
    "sum": lambda t, a: R.slice_(R.sum_(R.mul(t, a["w"]), axis=0), 1),
    "mean": lambda t, a: R.mean(R.mul(t, a["w"])),
    "relu_offset": lambda t, a: R.sum_(R.mul(T.relu(R.add(t, 0.123)), a["w"])),
    "maxmin": lambda t, a: R.sum_(R.maximum(t, a["w"]) + R.minimum(t, a["w"])),
    "abs_offset": lambda t, a: R.sum_(R.mul(R.abs_(R.add(t, 0.1)), a["w"])),
    "powc": lambda t, a: R.sum_(R.powc(T.sigmoid(t), 2.5)),
    "sincos": lambda t, a: R.sum_(R.mul(R.sin(t) + R.cos(t), a["w"])),
    "concat_slice": lambda t, a: R.sum_(
        R.mul(R.slice_(T.concat([t, R.mul(t, 2.0)], axis=0), np.s_[1:4, :]), 1.5)),
    "transpose_reshape": lambda t, a: R.sum_(
        R.mul(R.reshape(R.transpose(t, (1, 0)), (2, 6)), a["w26"])),
    "inverse_sigmoid": lambda t, a: R.sum_(R.mul(R.inverse_sigmoid(T.sigmoid(t)), a["w"])),
    "scale": lambda t, a: R.sum_(R.mul(R.scale(t, -2.5), a["w"])),
    "gather_rows": lambda t, a: R.sum_(R.mul(R.slice_(t, np.s_[[0, 2, 0], :]), a["w"])),
    "masked_softmax": lambda t, a: R.sum_(R.mul(R.softmax(t + BLOCK_MASK, axis=-1), a["w"])),
    # fused primitives; every operand depends on t, so every backward path runs
    "linear": lambda t, a: R.sum_(R.mul(
        T.linear(t, R.reshape(R.slice_(t, np.s_[0:2, :]), (4, 2)) + a["m"],
                 R.slice_(t, np.s_[2, 1:3])), a["w32"])),
    "attention": lambda t, a: R.sum_(R.mul(
        T.attention(t, R.mul(t, 0.7) + a["w"], R.sin(t), 2), a["w"])),
    "attention_masked": lambda t, a: R.sum_(R.mul(
        T.attention(t, T.concat([R.mul(t, 0.5), a["row"]], axis=0),
                    T.concat([a["row"], t], axis=0), 2, BLOCK_MASK), a["w"])),
    "attention_shifted": lambda t, a: R.sum_(R.mul(
        T.attention(R.mul(t, 3.0), T.concat([R.mul(t, 0.5), a["row"]], axis=0),
                    T.concat([a["row"], t], axis=0), 2, SHIFTED_MASK), a["w"])),
    "attention_segments_uneven": lambda t, a: R.sum_(R.mul(
        T.attention(t, T.concat([R.mul(t, 0.7) + a["w"], a["row"]], axis=0),
                    T.concat([a["row"], R.sin(t)], axis=0), 2, None, UNEVEN), a["w"])),
    "attention_segments_dn_mask": lambda t, a: R.sum_(R.mul(
        T.attention(t, T.concat([R.mul(t, 0.5), a["row"]], axis=0),
                    T.concat([R.cos(t), a["row"]], axis=0), 2, DN_BLOCKS, IN_RECORD), a["w"])),
    "attention_segments_no_queries": lambda t, a: R.sum_(R.mul(
        T.attention(t, T.concat([R.mul(t, 0.5), a["row"]], axis=0),
                    T.concat([a["row"], R.sin(t)], axis=0), 2, None, NO_QUERIES), a["w"])),
    "anchor_encode": lambda t, a: R.sum_(R.mul(
        T.anchor_encode(R.reshape(t, (6, 2)), 8, 100.0), a["w68"])),
    "layer_norm_residual": lambda t, a: R.sum_(R.mul(
        T.layer_norm(t, a["gain"], a["bias"], R.sin(t)), a["w"])),
    # one decoder layer's objective: 4 queries matched to 2 targets, 4 dn rows
    "objective": lambda t, a: composite_loss(
        LayerPrediction(T.sigmoid(R.reshape(R.slice_(t, np.s_[0:2, :]), (4, 2))),
                        R.reshape(R.slice_(t, np.s_[2, :]), (4, 1))),
        T.sigmoid(R.reshape(R.mul(R.slice_(t, np.s_[1:3, :]), 0.5), (4, 2))),
        np.array([0, 1, 0, 1]), [a["gts"]], dn_rows=[4])[0],
    # the classifier's loss on a (1, 12) row of logits
    "cross_entropy": lambda t, a: cross_entropy(R.reshape(t, (1, 12)), [a["label"]]),
    # the cross-attention's per-head interleave, 2 heads of width 2
    "concat_per_head": lambda t, a: R.sum_(R.mul(
        _concat_per_head(t, R.mul(t, 0.7) + a["w"], 2), a["w38"])),
}

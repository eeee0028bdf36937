"""Scalar-valued probe functions exercising every differentiable primitive,
shared by the unit tests and the acceptance gradient sweep."""

import numpy as np

from spandet import tensor as T
from spandet.geometry import Interval
from spandet.model import LayerPrediction
from spandet.training import composite_loss


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
    }


# additive attention-style mask: -inf hides an entry, no row is fully hidden
BLOCK_MASK = np.array([[0.0, -np.inf, 0.0, -np.inf],
                       [0.0, 0.0, -np.inf, -np.inf],
                       [-np.inf, 0.0, 0.0, 0.0]])


GRAD_CASES = {
    "matmul": lambda t, a: T.sum_(T.matmul(t, a["m"])),
    "add_bias": lambda t, a: T.sum_((t + a["bias"]) * a["w"]),
    "mul": lambda t, a: T.sum_(t * a["w"]),
    "div": lambda t, a: T.sum_(t / (T.abs_(a["w"]) + 1.0)),
    "softmax": lambda t, a: T.sum_(T.softmax(t, axis=-1) * a["w"]),
    "layer_norm": lambda t, a: T.sum_(T.layer_norm(t, a["gain"], a["bias"]) * a["w"]),
    "sigmoid": lambda t, a: T.sum_(T.sigmoid(t) * a["w"]),
    "exp": lambda t, a: T.sum_(T.exp(t * 0.3) * a["w"]),
    "log": lambda t, a: T.sum_(T.log(T.exp(t)) * a["w"]),
    "sum": lambda t, a: T.sum_(t * a["w"], axis=0)[1],
    "mean": lambda t, a: T.mean(t * a["w"]),
    "relu_offset": lambda t, a: T.sum_(T.relu(t + 0.123) * a["w"]),
    "maxmin": lambda t, a: T.sum_(T.maximum(t, a["w"]) + T.minimum(t, a["w"])),
    "abs_offset": lambda t, a: T.sum_(T.abs_(t + 0.1) * a["w"]),
    "powc": lambda t, a: T.sum_(T.powc(T.sigmoid(t), 2.5)),
    "sincos": lambda t, a: T.sum_((T.sin(t) + T.cos(t)) * a["w"]),
    "concat_slice": lambda t, a: T.sum_(T.concat([t, t * 2.0], axis=0)[1:4, :] * 1.5),
    "transpose_reshape": lambda t, a: T.sum_(
        T.reshape(T.transpose(t, (1, 0)), (2, 6)) * a["w26"]),
    "inverse_sigmoid": lambda t, a: T.sum_(T.inverse_sigmoid(T.sigmoid(t)) * a["w"]),
    "scale": lambda t, a: T.sum_(T.scale(t, -2.5) * a["w"]),
    "gather_rows": lambda t, a: T.sum_(t[[0, 2, 0], :] * a["w"]),
    "masked_softmax": lambda t, a: T.sum_(T.softmax(t + BLOCK_MASK, axis=-1) * a["w"]),
    # fused primitives; every operand depends on t, so every backward path runs
    "linear": lambda t, a: T.sum_(
        T.linear(t, T.reshape(t[0:2, :], (4, 2)) + a["m"], t[2, 1:3]) * a["w32"]),
    "attention": lambda t, a: T.sum_(
        T.attention(t, t * 0.7 + a["w"], T.sin(t), 2) * a["w"]),
    "attention_masked": lambda t, a: T.sum_(
        T.attention(t, T.concat([t * 0.5, a["row"]], axis=0),
                    T.concat([a["row"], t], axis=0), 2, BLOCK_MASK) * a["w"]),
    "anchor_encode": lambda t, a: T.sum_(
        T.anchor_encode(T.reshape(t, (6, 2)), 8, 100.0) * a["w68"]),
    "layer_norm_residual": lambda t, a: T.sum_(
        T.layer_norm(t, a["gain"], a["bias"], T.sin(t)) * a["w"]),
    # one decoder layer's objective: 4 queries matched to 2 targets, 4 dn rows
    "objective": lambda t, a: composite_loss(
        LayerPrediction(T.sigmoid(T.reshape(t[0:2, :], (4, 2))), t[2, :]),
        T.sigmoid(T.reshape(t[1:3, :] * 0.5, (4, 2))), np.array([0, 1, 0, 1]), a["gts"])[0],
}

"""spandet: detection of machine-generated intervals in mixed-authorship text.

A numpy-backed library: a small reverse-mode autodiff engine, 1D interval
geometry, Hungarian matching, an anchor-query detection transformer with
denoising training, dataset tooling, and the evaluation metric suite.
"""

from .geometry import CharSpan, Interval, cw_to_span, giou_1d, iou_1d, span_l1, span_to_cw
from .matching import build_match_cost, hungarian
from .model import ClassifierHead, DetectionModel, ModelConfig, Prediction
from .tensor import Tensor, grad_check
from .textproc import TokenizedText, load_features, tokenize, toy_embed
from .training import LossWeights, TrainConfig, composite_loss, focal_loss, train

__version__ = "0.1.0"

__all__ = [
    "CharSpan", "Interval", "cw_to_span", "span_to_cw", "iou_1d", "giou_1d", "span_l1",
    "hungarian", "build_match_cost",
    "DetectionModel", "ModelConfig", "ClassifierHead", "Prediction",
    "Tensor", "grad_check",
    "TokenizedText", "tokenize", "toy_embed", "load_features",
    "LossWeights", "TrainConfig", "focal_loss", "composite_loss", "train",
    "__version__",
]

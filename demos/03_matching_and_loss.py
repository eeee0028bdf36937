"""How predictions meet targets: Hungarian assignment over a cost built from
span L1, gIoU, and confidence, then the five-term training objective."""

import numpy as np

from spandet import tensor as T
from spandet.geometry import Interval, giou_1d, span_l1
from spandet.matching import build_match_cost, hungarian
from spandet.model import LayerPrediction
from spandet.training import LossWeights, composite_loss

# Three predictions compete for two targets.
preds = [(Interval(0.30, 0.25), 0.9),   # close to gt A, confident
         (Interval(0.80, 0.15), 0.7),   # close to gt B
         (Interval(0.55, 0.50), 0.2)]   # vague, low confidence
gts = [Interval(0.28, 0.22), Interval(0.78, 0.18)]

# The cost reads the pairwise span L1 and gIoU (training takes both from the
# loss's own tensors) and each prediction's confidence.
l1 = np.array([[span_l1(p, g) for g in gts] for p, _ in preds])
giou = np.array([[giou_1d(p, g) for g in gts] for p, _ in preds])
cost = build_match_cost(l1, giou, np.array([s for _, s in preds]), weights=(10.0, 1.0, 4.0))
print("cost matrix (rows = predictions, cols = targets):")
print(np.array_str(cost, precision=3))

assignment = hungarian(cost)
print(f"assignment: {assignment}")
for i, j in assignment:
    print(f"  prediction {i} -> target {j}")

# The objective weights are span 10, gIoU 1, focal 4, plus 9 and 3 for the
# denoising reconstruction terms.
weights = LossWeights()
print(f"\nweights: {weights}")

cw = T.Tensor(np.array([[p.c, p.w] for p, _ in preds]))
logits = T.Tensor(np.array([np.log(s / (1 - s)) for _, s in preds]))
dn_cw = T.Tensor(np.array([[0.26, 0.20], [0.80, 0.20]]))   # noised target copies
total, terms = composite_loss(LayerPrediction(cw, logits), dn_cw,
                              np.array([0, 1]), gts, weights)
print("per-term breakdown:")
for k, v in terms.items():
    print(f"  {k:8s} {v:.4f}")

# Everything is differentiable: one backward pass yields gradients for the
# predicted geometry and confidences.
cw2 = T.Tensor(cw.data, requires_grad=True)
lg2 = T.Tensor(logits.data, requires_grad=True)
total2, _ = composite_loss(LayerPrediction(cw2, lg2), None, None, gts, weights)
total2.backward()
print(f"\ngradient wrt predicted (c, w):\n{np.array_str(cw2.grad, precision=3)}")

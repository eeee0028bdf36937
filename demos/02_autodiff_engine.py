"""The reverse-mode engine underneath the detector: tensors, the tape, a loss
written as a custom node, and finite-difference verification of gradients."""

import numpy as np

from spandet import tensor as T

# Tensors wrap numpy arrays; operations record themselves so backward can
# replay the graph once in reverse. Gradients accumulate over all paths:
# f(y) = y + y has derivative 2.
y = T.Tensor(5.0, requires_grad=True)
(y + y).backward()
print(f"diamond graph d/dy (y + y) = {y.grad}")


# The engine holds only the ops the detector calls. Each of them is a value
# computed in numpy plus a vjp that maps the node's gradient to one gradient
# (or None) per parent, in parent order; a custom node is the same protocol
# with a vjp written by the caller. backward stores the gradients, and gives a
# parent a copy when the vjp handed the same array to an earlier parent.
def mse(pred, target):
    diff = pred.data - target
    return T.custom(np.mean(diff * diff), (pred,),
                    lambda g: (g * 2.0 * diff / diff.size,), "mse")


x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
mse(x, np.zeros(3)).backward()
print(f"d/dx mean(x^2) at {x.data} -> {x.grad}")

# grad_check compares backward against central finite differences, over
# every coordinate of the tensors it is given; the whole detector is built
# from primitives that pass this at 1e-4. Here: the custom loss on a small
# MLP made of the engine's linear, relu and sigmoid.
rng = np.random.default_rng(0)
w1 = T.Tensor(rng.normal(size=(4, 8)), requires_grad=True)
b1 = T.Tensor(rng.normal(size=8), requires_grad=True)
w2 = T.Tensor(rng.normal(size=(8, 2)), requires_grad=True)
b2 = T.Tensor(rng.normal(size=2), requires_grad=True)
x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
target = rng.uniform(size=(3, 2))


def mlp_loss():
    h = T.relu(T.linear(x, w1, b1))
    return mse(T.sigmoid(T.linear(h, w2, b2)), target)


err = T.grad_check(mlp_loss, [x, w1, b1, w2, b2], eps=1e-5)
print(f"\ngrad_check on a small MLP (input and weights): max relative error {err:.2e}")

# Layer norm: zero mean and unit variance per row before the affine part.
out = T.layer_norm(T.Tensor(rng.normal(size=(2, 8)) * 5),
                   T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)))
print(f"layer_norm row means ~ 0: {np.abs(out.data.mean(axis=-1)).max():.1e}, "
      f"row vars ~ 1: {np.abs(out.data.var(axis=-1) - 1).max():.1e}")

"""The reverse-mode engine underneath the detector: tensors, the tape, and
finite-difference verification of gradients."""

import numpy as np

from spandet import tensor as T

# Tensors wrap numpy arrays; operations record themselves so backward can
# replay the graph once in reverse.
x = T.Tensor([1.0, 2.0, 3.0], requires_grad=True)
loss = T.sum_(x * x)
loss.backward()
print(f"d/dx sum(x^2) at {x.data} -> {x.grad}")

# Gradients accumulate over all paths: f(x) = x + x has derivative 2.
y = T.Tensor(5.0, requires_grad=True)
(y + y).backward()
print(f"diamond graph d/dy (y + y) = {y.grad}")

# A stable softmax and a pairing of sigmoid with its clamped inverse.
print(f"\nsoftmax([0,0,0]) = {T.softmax(T.Tensor([0.0, 0.0, 0.0])).data}")
print(f"sigmoid(0) = {T.sigmoid(T.Tensor(0.0)).item()}, "
      f"inverse_sigmoid(0.5) = {T.inverse_sigmoid(T.Tensor(0.5)).item()}")

# grad_check compares backward against central finite differences, over
# every coordinate of the tensors it is given; the whole detector is built
# from primitives that pass this at 1e-4.
rng = np.random.default_rng(0)
w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
b = T.Tensor(rng.normal(size=4), requires_grad=True)
x = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)


def mlp_loss():
    h = T.relu(T.matmul(x, w) + b)
    return T.mean(T.sigmoid(h))


err = T.grad_check(mlp_loss, [x, w, b], eps=1e-5)
print(f"\ngrad_check on a small MLP (input and weights): max relative error {err:.2e}")

# Layer norm: zero mean and unit variance per row before the affine part.
out = T.layer_norm(T.Tensor(rng.normal(size=(2, 8)) * 5),
                   T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)))
print(f"layer_norm row means ~ 0: {np.abs(out.data.mean(axis=-1)).max():.1e}, "
      f"row vars ~ 1: {np.abs(out.data.var(axis=-1) - 1).max():.1e}")

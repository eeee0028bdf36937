import numpy as np
import pytest

from spandet import tensor as T


def test_softmax_symmetry():
    out = T.softmax(T.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_sigmoid_inverse_pair():
    assert T.sigmoid(T.Tensor(0.0)).item() == 0.5
    assert T.inverse_sigmoid(T.Tensor(0.5)).item() == 0.0


def test_matmul_against_scalar_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    want = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(got, want, atol=1e-12)
    ones = T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))
    assert np.array_equal(ones.data, np.full((2, 2), 3.0))


def test_shape_error_names_op_and_shapes():
    with pytest.raises(T.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    with pytest.raises(T.ShapeError, match="add"):
        T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2,))))


def test_broadcast_policy():
    x = T.Tensor(np.ones((2, 3)))
    assert (x + T.Tensor(np.ones(3))).shape == (2, 3)       # row-vector bias
    assert (x * 2.0).shape == (2, 3)                         # scalar
    with pytest.raises(T.ShapeError):
        x + T.Tensor(np.ones((2, 1)))


def test_backward_simple_quadratic():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    T.sum_(x * x).backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x * x).backward()


def test_constant_leaf_gets_no_gradient():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    c = T.Tensor([3.0, 4.0])
    T.sum_(x * c).backward()
    assert c.grad is None
    assert np.array_equal(x.grad, [3.0, 4.0])


def test_diamond_graph_accumulates():
    x = T.Tensor(3.0, requires_grad=True)
    (x + x).backward()
    assert x.grad == 2.0


def test_tape_consumed_once():
    x = T.Tensor(3.0, requires_grad=True)
    y = x * x
    y.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        y.backward()


def test_backward_walks_a_50000_node_chain_without_recursion():
    x = T.Tensor([1.5, -2.0], requires_grad=True)
    y = x
    for i in range(50_000):  # far past the interpreter's recursion limit
        y = T.scale(y, -1.0) if i % 2 else y + 1.0
    T.sum_(y).backward()
    assert np.array_equal(x.grad, [1.0, 1.0])  # 25,000 sign flips


def test_shared_node_gets_one_contribution_per_consumer(monkeypatch):
    x = T.Tensor([2.0, 3.0], requires_grad=True)
    h = x * 1.0
    loss = T.sum_(h * 2.0 + h * 3.0 + h * 5.0)
    calls = {id(x): 0, id(h): 0}
    accumulate = T.Tensor._accumulate

    def spy(self, g):
        if id(self) in calls:
            calls[id(self)] += 1
        accumulate(self, g)

    monkeypatch.setattr(T.Tensor, "_accumulate", spy)
    loss.backward()
    assert calls == {id(h): 3, id(x): 1}  # h passes its gradient on once, complete
    assert np.array_equal(x.grad, [10.0, 10.0])


def test_backward_runs_in_reverse_creation_order():
    x = T.Tensor([1.0], requires_grad=True)
    a = x * 2.0
    b = x * 3.0
    c = a * b          # created last, consumes a then b
    d = T.sum_(c + a)  # a has a second, later consumer
    ran = []

    def record(node):
        bwd = node._backward

        def run(g):
            ran.append(node)
            bwd(g)
        node._backward = run

    for node in (a, b, c, d):
        record(node)
    d.backward()
    assert [n._id for n in ran] == sorted((n._id for n in (a, b, c, d)), reverse=True)
    assert np.array_equal(x.grad, [14.0])  # d/dx (6x^2 + 2x) at x = 1


def test_gradient_accumulates_across_backwards():
    x = T.Tensor(2.0, requires_grad=True)
    (x * x).backward()
    (x * x).backward()
    assert x.grad == 8.0  # 4 + 4, fresh tape per forward


def test_leaf_gradients_never_share_a_buffer():
    rng = np.random.default_rng(3)
    p, q, s = (T.Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3))
    r = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = rng.normal(size=(6, 3))
    # add hands one gradient to two parents; reshape and concat pass views on
    y = T.concat([p + q, T.reshape(r, (2, 3)), s], axis=0)
    T.sum_(y * T.Tensor(w)).backward()
    leaves = (p, q, r, s)
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    assert y.grad is None  # interior nodes pass their gradient on and drop it
    p.grad[0, 0] = np.nan
    assert np.array_equal(q.grad, w[:2])
    assert np.array_equal(r.grad, w[2:4].reshape(3, 2))
    assert np.array_equal(s.grad, w[4:])


def test_layer_norm_residual_bitwise_equals_the_sum():
    rng = np.random.default_rng(4)
    xv, rv = rng.normal(size=(2, 5, 8)) * 3
    gv, bv = rng.normal(size=(2, 8))
    w = T.Tensor(rng.normal(size=(5, 8)))
    results = []
    for fused in (True, False):
        x, r, g, b = (T.Tensor(v, requires_grad=True) for v in (xv, rv, gv, bv))
        out = T.layer_norm(x, g, b, r) if fused else T.layer_norm(x + r, g, b)
        T.sum_(out * w).backward()
        results.append([out.data] + [t.grad for t in (x, g, b, r)])
        assert not np.shares_memory(x.grad, r.grad)
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    with pytest.raises(T.ShapeError, match="residual"):
        T.layer_norm(x, g, b, T.Tensor(np.ones((5, 4))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = T.softmax(T.Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)


def test_layer_norm_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 16)) * 3 + 1
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
    assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.data.var(axis=-1) - 1.0) < 1e-8)


def test_inverse_sigmoid_clamps_without_error():
    out = T.inverse_sigmoid(T.Tensor([-0.5, 0.0, 1.0, 1.5]))
    lim = float(T.inverse_sigmoid(T.Tensor(1e-6)).data)
    assert out.data[0] == lim and out.data[1] == lim
    assert np.isfinite(out.data).all()


def test_log_clamped_at_floor():
    out = T.log(T.Tensor([0.0, 1e-15]))
    assert np.all(out.data == np.log(1e-12))


def test_concat_and_slice_roundtrip_grads():
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    b = T.Tensor([3.0], requires_grad=True)
    c = T.concat([a, b], axis=0)
    T.sum_(c[1:] * 2.0).backward()
    assert np.array_equal(a.grad, [0.0, 2.0])
    assert np.array_equal(b.grad, [2.0])


from grad_cases import GRAD_CASES, make_aux


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_primitive_gradients_match_finite_differences(name):
    fn = GRAD_CASES[name]
    for seed in range(10):
        aux = make_aux(seed)
        x = T.Tensor(aux["x"], requires_grad=True)
        err = T.grad_check(lambda: fn(x, aux), [x], 1e-5)
        assert err < 1e-4, f"{name} seed {seed}: {err}"


def test_grad_check_linear_function_is_exact():
    x = T.Tensor(np.random.default_rng(0).normal(size=6), requires_grad=True)
    assert T.grad_check(lambda: T.sum_(x), [x]) < 1e-10


def test_grad_check_rejects_bad_eps():
    x = T.Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.grad_check(lambda: T.sum_(x), [x], eps=1e-2)


def test_grad_check_zeroes_stale_grads_and_restores_every_value():
    rng = np.random.default_rng(1)
    a = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True)
    before = [a.data.copy(), b.data.copy()]
    a.grad = np.full((2, 3), 99.0)  # left over from an earlier backward
    assert T.grad_check(lambda: T.sum_(T.sin(a) * b), [a, b]) < 1e-8
    assert np.array_equal(a.data, before[0]) and np.array_equal(b.data, before[1])
    with pytest.raises(ValueError, match="scalar"):
        T.grad_check(lambda: T.sin(a), [a])


def test_float32_optional():
    x = T.Tensor(np.ones(3, dtype=np.float32))
    assert x.data.dtype == np.float32
    assert T.Tensor([1.0, 2.0]).data.dtype == np.float64


def test_no_grad_builds_no_tape_and_restores_the_mode_after_an_exception():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with T.no_grad():
            y = T.linear(T.reshape(x, (1, 2)), T.Tensor(np.ones((2, 3))), T.Tensor(np.zeros(3)))
            assert y._parents == () and y._backward is None and not y.requires_grad
            raise RuntimeError("inside")
    taped = x * 2.0
    assert taped._parents[0] is x and taped.requires_grad
    with T.no_grad():
        with T.no_grad():
            pass
        assert not (x * 2.0).requires_grad  # leaving the inner block keeps the outer mode
    T.sum_(taped).backward()
    assert np.array_equal(x.grad, [2.0, 2.0])


def test_fused_primitives_reject_bad_shapes():
    x = T.Tensor(np.ones((3, 4)))
    with pytest.raises(T.ShapeError, match="linear"):
        T.linear(x, T.Tensor(np.ones((3, 2))), T.Tensor(np.zeros(2)))
    with pytest.raises(T.ShapeError, match="linear"):
        T.linear(x, T.Tensor(np.ones((4, 2))), T.Tensor(np.zeros(3)))
    with pytest.raises(T.ShapeError, match="heads"):
        T.attention(x, x, x, 3)
    with pytest.raises(T.ShapeError, match="mask"):
        T.attention(x, x, x, 2, np.zeros((3, 2)))
    with pytest.raises(T.ShapeError, match="anchor_encode"):
        T.anchor_encode(x, 8)
    with pytest.raises(ValueError, match="divisible by 4"):
        T.anchor_encode(T.Tensor(np.ones((3, 2))), 6)

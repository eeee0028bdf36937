import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spandet import tensor as T

import reference_ops as R


def test_softmax_symmetry():
    out = R.softmax(T.Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_sigmoid_inverse_pair():
    assert T.sigmoid(T.Tensor(0.0)).data == 0.5
    assert R.inverse_sigmoid(T.Tensor(0.5)).data == 0.0


def test_matmul_against_scalar_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))
    got = R.matmul(T.Tensor(a), T.Tensor(b)).data
    want = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                want[i, j] += a[i, k] * b[k, j]
    assert np.allclose(got, want, atol=1e-12)
    ones = R.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 2))))
    assert np.array_equal(ones.data, np.full((2, 2), 3.0))


def test_shape_error_names_op_and_shapes():
    with pytest.raises(T.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        R.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))
    with pytest.raises(T.ShapeError, match=r"add.*\(2, 3\).*\(3,\)"):
        T.add(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3,))))


def test_broadcast_policy():
    """The reference ops broadcast a scalar or a row-vector bias; the engine's
    ``add`` takes one shape only."""
    x = T.Tensor(np.ones((2, 3)))
    assert R.add(x, T.Tensor(np.ones(3))).shape == (2, 3)   # row-vector bias
    assert R.add(x, 2.0).shape == (2, 3)                     # scalar
    with pytest.raises(T.ShapeError):
        R.add(x, T.Tensor(np.ones((2, 1))))
    for other in (T.Tensor(np.ones(3)), 2.0, T.Tensor(np.ones((2, 1)))):
        with pytest.raises(T.ShapeError, match=r"add: shapes \(2, 3\) and"):
            x + other


def test_backward_simple_quadratic():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    R.sum_(R.mul(x, x)).backward()
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        (x + x).backward()


def test_constant_leaf_gets_no_gradient():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    c = T.Tensor([3.0, 4.0])
    R.sum_(R.mul(x, c)).backward()
    assert c.grad is None
    assert np.array_equal(x.grad, [3.0, 4.0])


def test_diamond_graph_accumulates():
    x = T.Tensor(3.0, requires_grad=True)
    (x + x).backward()
    assert x.grad == 2.0


def test_tape_consumed_once():
    x = T.Tensor(3.0, requires_grad=True)
    y = R.mul(x, x)
    y.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        y.backward()


def test_backward_walks_a_50000_node_chain_without_recursion():
    x = T.Tensor([1.5, -2.0], requires_grad=True)
    y = x
    for i in range(50_000):  # far past the interpreter's recursion limit
        y = R.scale(y, -1.0) if i % 2 else R.add(y, 1.0)
    R.sum_(y).backward()
    assert np.array_equal(x.grad, [1.0, 1.0])  # 25,000 sign flips


def test_shared_node_gets_one_contribution_per_consumer(monkeypatch):
    x = T.Tensor([2.0, 3.0], requires_grad=True)
    h = R.mul(x, 1.0)
    loss = R.sum_(R.mul(h, 2.0) + R.mul(h, 3.0) + R.mul(h, 5.0))
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
    a = R.mul(x, 2.0)
    b = R.mul(x, 3.0)
    c = R.mul(a, b)    # created last, consumes a then b
    d = R.sum_(c + a)  # a has a second, later consumer
    ran = []

    def record(node):
        bwd = node._backward

        def run(g):
            ran.append(node)
            return bwd(g)
        node._backward = run

    for node in (a, b, c, d):
        record(node)
    d.backward()
    assert [n._id for n in ran] == sorted((n._id for n in (a, b, c, d)), reverse=True)
    assert np.array_equal(x.grad, [14.0])  # d/dx (6x^2 + 2x) at x = 1


def test_gradient_accumulates_across_backwards():
    x = T.Tensor(2.0, requires_grad=True)
    R.mul(x, x).backward()
    R.mul(x, x).backward()
    assert x.grad == 8.0  # 4 + 4, fresh tape per forward


def test_leaf_gradients_never_share_a_buffer():
    rng = np.random.default_rng(3)
    p, q, s = (T.Tensor(rng.normal(size=(2, 3)), requires_grad=True) for _ in range(3))
    r = T.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = rng.normal(size=(6, 3))
    # add hands one gradient to two parents; reshape and concat pass views on
    y = T.concat([p + q, R.reshape(r, (2, 3)), s], axis=0)
    R.sum_(R.mul(y, T.Tensor(w))).backward()
    leaves = (p, q, r, s)
    for i, a in enumerate(leaves):
        for b in leaves[i + 1:]:
            assert not np.shares_memory(a.grad, b.grad)
    assert y.grad is None  # interior nodes pass their gradient on and drop it
    p.grad[0, 0] = np.nan
    assert np.array_equal(q.grad, w[:2])
    assert np.array_equal(r.grad, w[2:4].reshape(3, 2))
    assert np.array_equal(s.grad, w[4:])


def test_custom_node_giving_one_array_to_two_parents_leaves_unshared_buffers():
    a, b = (T.Tensor([1.0, 2.0], requires_grad=True) for _ in range(2))
    total = T.custom((a.data + b.data).sum(), (a, b), lambda g: (np.full(2, g),) * 2, "sum")
    total.backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad[0] = np.nan
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_layer_norm_residual_bitwise_equals_the_sum():
    rng = np.random.default_rng(4)
    xv, rv = rng.normal(size=(2, 5, 8)) * 3
    gv, bv = rng.normal(size=(2, 8))
    w = T.Tensor(rng.normal(size=(5, 8)))
    results = []
    for fused in (True, False):
        x, r, g, b = (T.Tensor(v, requires_grad=True) for v in (xv, rv, gv, bv))
        out = T.layer_norm(x, g, b, r) if fused else T.layer_norm(x + r, g, b)
        R.sum_(R.mul(out, w)).backward()
        results.append([out.data] + [t.grad for t in (x, g, b, r)])
        assert not np.shares_memory(x.grad, r.grad)
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    with pytest.raises(T.ShapeError, match="residual"):
        T.layer_norm(x, g, b, T.Tensor(np.ones((5, 4))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = R.softmax(T.Tensor(rng.normal(size=(5, 7)) * 10), axis=-1)
    assert np.all(np.abs(out.data.sum(axis=-1) - 1.0) < 1e-12)


def test_layer_norm_statistics():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 16)) * 3 + 1
    out = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
    assert np.all(np.abs(out.data.mean(axis=-1)) < 1e-10)
    assert np.all(np.abs(out.data.var(axis=-1) - 1.0) < 1e-8)


def test_inverse_sigmoid_clamps_without_error():
    out = R.inverse_sigmoid(T.Tensor([-0.5, 0.0, 1.0, 1.5]))
    lim = float(R.inverse_sigmoid(T.Tensor(1e-6)).data)
    assert out.data[0] == lim and out.data[1] == lim
    assert np.isfinite(out.data).all()


def test_log_clamped_at_floor():
    out = R.log(T.Tensor([0.0, 1e-15]))
    assert np.all(out.data == np.log(1e-12))


def test_concat_and_slice_roundtrip_grads():
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    b = T.Tensor([3.0], requires_grad=True)
    c = T.concat([a, b], axis=0)
    R.sum_(R.mul(R.slice_(c, np.s_[1:]), 2.0)).backward()
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


def test_grad_cases_build_every_engine_op(monkeypatch):
    """Every op name that tensor.py passes to ``_result`` as a literal is built
    by some entry of GRAD_CASES, so a new engine op needs a gradient case."""
    tree = ast.parse(Path(T.__file__).read_text())
    ops = {call.args[3].value for call in ast.walk(tree)
           if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_result"
           and len(call.args) == 4 and isinstance(call.args[3], ast.Constant)}
    assert {"add", "linear", "attention", "layer_norm"} <= ops  # the scan finds them
    built = set()
    result = T._result

    def spy(data, parents, vjp, op):
        built.add(op)
        return result(data, parents, vjp, op)

    monkeypatch.setattr(T, "_result", spy)
    for fn in GRAD_CASES.values():
        aux = make_aux(0)
        fn(T.Tensor(aux["x"], requires_grad=True), aux)
    assert not ops - built, f"engine ops without a gradient case: {sorted(ops - built)}"


def test_grad_check_linear_function_is_exact():
    x = T.Tensor(np.random.default_rng(0).normal(size=6), requires_grad=True)
    assert T.grad_check(lambda: R.sum_(x), [x]) < 1e-10


def test_grad_check_rejects_bad_eps():
    x = T.Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        T.grad_check(lambda: R.sum_(x), [x], eps=1e-2)


def test_grad_check_zeroes_stale_grads_and_restores_every_value():
    rng = np.random.default_rng(1)
    a = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = T.Tensor(rng.normal(size=3), requires_grad=True)
    before = [a.data.copy(), b.data.copy()]
    a.grad = np.full((2, 3), 99.0)  # left over from an earlier backward
    assert T.grad_check(lambda: R.sum_(R.mul(R.sin(a), b)), [a, b]) < 1e-8
    assert np.array_equal(a.data, before[0]) and np.array_equal(b.data, before[1])
    with pytest.raises(ValueError, match="scalar"):
        T.grad_check(lambda: R.sin(a), [a])


def test_float32_input_is_stored_as_float64():
    x = T.Tensor(np.full(3, 0.1, dtype=np.float32))
    assert x.data.dtype == np.float64
    assert np.array_equal(x.data, np.full(3, 0.1, dtype=np.float32).astype(np.float64))
    assert T.Tensor([1.0, 2.0]).data.dtype == np.float64


def test_tensor_of_a_tensor_points_to_its_data():
    with pytest.raises(TypeError, match=r"pass its \.data"):
        T.Tensor(T.Tensor([1.0]))


def test_no_grad_builds_no_tape_and_restores_the_mode_after_an_exception():
    x = T.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with T.no_grad():
            y = T.linear(R.reshape(x, (1, 2)), T.Tensor(np.ones((2, 3))), T.Tensor(np.zeros(3)))
            assert y._parents == () and y._backward is None and not y.requires_grad
            raise RuntimeError("inside")
    taped = R.mul(x, 2.0)
    assert taped._parents[0] is x and taped.requires_grad
    with T.no_grad():
        with T.no_grad():
            pass
        assert not R.mul(x, 2.0).requires_grad  # leaving the inner block keeps the outer mode
    R.sum_(taped).backward()
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
    with pytest.raises(T.ShapeError, match="segment ids"):
        T.attention(x, x, x, 2, None, T.segments(np.zeros(3, int), np.zeros(2, int)))
    with pytest.raises(TypeError, match="tensor.segments"):
        T.attention(x, x, x, 2, None, (np.zeros(3, int), np.zeros(3, int)))
    with pytest.raises(T.ShapeError, match="record 1 has query rows but no keys"):
        T.segments(np.array([0, 1, 1]), np.array([0, 0, 2]))
    with pytest.raises(T.ShapeError, match="not 1-D"):
        T.segments(np.zeros((3, 1), int), np.zeros(3, int))
    with pytest.raises(T.ShapeError, match="mask hides every key of query row 1"):
        T.attention(x, x, x, 2, np.array([[0.0] * 3, [-np.inf] * 3, [0.0] * 3]))
    with pytest.raises(T.ShapeError, match="anchor_encode"):
        T.anchor_encode(x, 8)
    with pytest.raises(ValueError, match="divisible by 4"):
        T.anchor_encode(T.Tensor(np.ones((3, 2))), 6)


# -- attention over a micro-batch's segments --------------------------------------


def _segment_case(seed, layout):
    """Records stacked row by row, their keys interleaved. "several": record
    0 has 2 queries over 3 keys, record 1 4 queries over 1 key, record 2 1
    query over 5 keys, and record 3 2 keys but no query. "one": record 0's 7
    queries over its 6 scattered keys, among 5 keys of a record without
    queries. The random mask keeps one key of the query's own record visible
    in every row."""
    rng = np.random.default_rng(seed)
    if layout == "several":
        q_ids = np.array([0, 0, 1, 1, 1, 1, 2])
        k_ids = np.array([2, 0, 3, 2, 0, 1, 2, 3, 2, 0, 2])
    else:
        q_ids = np.zeros(7, int)
        k_ids = np.array([1, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0])
    q, k, v = (T.Tensor(rng.normal(size=(len(ids), 8)), requires_grad=True)
               for ids in (q_ids, k_ids, k_ids))
    mask = np.where(rng.uniform(size=(7, 11)) < 0.3, -np.inf, 0.0)
    for i, r in enumerate(q_ids):
        mask[i, np.flatnonzero(k_ids == r)[0]] = 0.0
    return q, k, v, mask, q_ids, k_ids, rng.normal(size=(7, 8))


@pytest.mark.parametrize("layout", ["several", "one"])
@pytest.mark.parametrize("masked", [False, True])
def test_segmented_attention_is_attention_record_by_record(masked, layout):
    for seed in range(5):
        q, k, v, mask, q_ids, k_ids, w = _segment_case(seed, layout)
        mask = mask if masked else None
        out = T.attention(q, k, v, 2, mask, T.segments(q_ids, k_ids))
        R.sum_(R.mul(out, T.Tensor(w))).backward()
        got = [t.grad for t in (q, k, v)]
        want_out = np.zeros_like(out.data)
        want = [np.zeros_like(t.data) for t in (q, k, v)]
        for r in np.unique(q_ids):
            qi, ki = np.flatnonzero(q_ids == r), np.flatnonzero(k_ids == r)
            parts = [T.Tensor(q.data[qi], requires_grad=True),
                     T.Tensor(k.data[ki], requires_grad=True),
                     T.Tensor(v.data[ki], requires_grad=True)]
            one = T.attention(*parts, 2, None if mask is None else mask[np.ix_(qi, ki)])
            R.sum_(R.mul(one, T.Tensor(w[qi]))).backward()
            want_out[qi] = one.data
            for full, part, rows in zip(want, parts, (qi, ki, ki)):
                full[rows] += part.grad
        assert np.abs(out.data - want_out).max() <= 1e-12
        for a, b in zip(got, want):
            assert np.abs(a - b).max() <= 1e-12
        unseen = ~np.isin(k_ids, q_ids)  # keys of a record without queries
        assert unseen.any() and not got[1][unseen].any() and not got[2][unseen].any()
        # the same records under one mask that hides every other record's keys
        across = np.where(q_ids[:, None] == k_ids[None, :], 0.0, -np.inf)
        if mask is not None:
            across = across + mask
        assert np.abs(T.attention(q, k, v, 2, across).data - out.data).max() <= 1e-12


# -- attention against the normalize-the-scores formulation -----------------------


def attention_normalized(q, k, v, heads, mask=None, segments=None):
    """Reference attention that scales and normalizes the (heads, n, m) score
    array itself and keeps the probabilities for backward, where the score
    gradient is ``(gp - rowsum(gp * p)) * p * s`` with ``gp = g v^T``."""
    n, m = q.shape[0], k.shape[0]
    parts = [T._WHOLE] if segments is None else segments.parts
    dk, dv = q.shape[1] // heads, v.shape[1] // heads
    s = float(1.0 / np.sqrt(dk))

    def split(x, rows, d):
        sel = x[rows]
        return sel.reshape(len(sel), heads, d).transpose(1, 0, 2)

    blocks, ctx = [], []
    for qi, ki in parts:
        qh, kt, vh = split(q.data, qi, dk), split(k.data, ki, dk).swapaxes(-1, -2), \
            split(v.data, ki, dv)
        p = qh @ kt
        p *= s
        if mask is not None:
            p += mask[qi][:, ki]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        blocks.append((qh, kt, vh, p))
        ctx.append((p @ vh).transpose(1, 0, 2))

    def vjp(g):
        g3 = g.reshape(n, heads, dv)
        gqs, gks, gvs = [], [], []
        for (qi, _), (qh, kt, vh, p) in zip(parts, blocks):
            gctx = np.ascontiguousarray(g3[qi].transpose(1, 0, 2))
            gvs.append((p.swapaxes(-1, -2) @ gctx).transpose(1, 0, 2))
            gs = gctx @ vh.swapaxes(-1, -2)
            gs -= (gs * p).sum(axis=-1, keepdims=True)
            gs *= p
            gs *= s
            gqs.append((gs @ kt.swapaxes(-1, -2)).transpose(1, 0, 2))
            gks.append((qh.swapaxes(-1, -2) @ gs).transpose(2, 0, 1))
        return (T._merge(parts, 0, gqs, n), T._merge(parts, 1, gks, m),
                T._merge(parts, 1, gvs, m))

    return T.custom(T._merge(parts, 0, ctx, n), (q, k, v), vjp, "attention_normalized")


def _attention_outputs_and_grads(fn, arrays, heads, mask, segments, w):
    q, k, v = (T.Tensor(a, requires_grad=True) for a in arrays)
    out = fn(q, k, v, heads, mask, segments)
    R.sum_(R.mul(out, T.Tensor(w))).backward()
    return out.data, [t.grad for t in (q, k, v)]


def _assert_attention_matches_normalized(arrays, heads, mask=None, segments=None, seed=0):
    """Outputs within 1e-12 and gradients within 1e-10 of the reference,
    relative to the reference's largest entry, with no overflow, invalid
    value or division by zero along the way."""
    n, dv = arrays[0].shape[0], arrays[2].shape[1] // heads
    w = np.random.default_rng(seed).normal(size=(n, heads * dv))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out, grads = _attention_outputs_and_grads(T.attention, arrays, heads, mask,
                                                  segments, w)
    ref_out, ref_grads = _attention_outputs_and_grads(attention_normalized, arrays,
                                                      heads, mask, segments, w)
    assert np.isfinite(out).all() and all(np.isfinite(g).all() for g in grads)
    assert np.abs(out - ref_out).max() <= 1e-12 * np.abs(ref_out).max()
    for got, want in zip(grads, ref_grads):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def _qkv(rng, n, m, heads, dk):
    return tuple(rng.normal(size=(rows, heads * dk)) for rows in (n, m, m))


@pytest.mark.parametrize("seed", range(2))
def test_attention_at_llm_shapes_matches_the_normalized_formulation(seed):
    rng = np.random.default_rng(seed)
    _assert_attention_matches_normalized(_qkv(rng, 300, 300, 8, 8), 8, seed=seed)


@pytest.mark.parametrize("seed", range(3))
def test_attention_under_a_dn_mask_matches_the_normalized_formulation(seed):
    from spandet.model import dn_attention_mask
    from spandet.training import DenoisingBatch
    rng = np.random.default_rng(seed)
    mask = dn_attention_mask(3, [DenoisingBatch(np.zeros((20, 2)), np.zeros(20, int), 5)])
    _assert_attention_matches_normalized(_qkv(rng, 20, 23, 4, 8), 4, mask, seed=seed)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("layout", ["several", "one"])
def test_segmented_attention_matches_the_normalized_formulation(masked, layout):
    for seed in range(3):
        q, k, v, mask, q_ids, k_ids, _ = _segment_case(seed, layout)
        _assert_attention_matches_normalized((q.data, k.data, v.data), 2,
                                             mask if masked else None,
                                             T.segments(q_ids, k_ids), seed)


def _scores_near_500():
    rng = np.random.default_rng(5)
    q, k, v = _qkv(rng, 40, 50, 4, 8)
    q *= 500 / np.abs(q @ k.T / np.sqrt(8)).max()  # scaled scores reach 500 in magnitude
    return q, k, v


def test_attention_with_scores_near_500_stays_finite_and_matches():
    _assert_attention_matches_normalized(_scores_near_500(), 4)


# -- which softmax path attention takes -------------------------------------------


@pytest.fixture
def shifts(monkeypatch):
    """Whether each attention call made while the test runs shifted its
    scores by the row max, in call order."""
    taken, real = [], T._must_shift

    def spy(*args):
        taken.append(real(*args))
        return taken[-1]

    monkeypatch.setattr(T, "_must_shift", spy)
    return taken


def _fixed_attention_cases():
    """The fixed cases above, by name: (q, k, v, heads, mask, segments)
    and whether their scores are shifted."""
    from spandet.model import dn_attention_mask
    from spandet.training import DenoisingBatch
    dn = dn_attention_mask(3, [DenoisingBatch(np.zeros((20, 2)), np.zeros(20, int), 5)])
    cases = {}
    for seed in range(2):
        cases[f"llm shapes, seed {seed}"] = (*_qkv(np.random.default_rng(seed), 300, 300, 8, 8),
                                             8, None, None, False)
    for seed in range(3):
        cases[f"dn mask, seed {seed}"] = (*_qkv(np.random.default_rng(seed), 20, 23, 4, 8), 4,
                                          dn, None, False)
        for layout in ("several", "one"):
            q, k, v, mask, q_ids, k_ids, _ = _segment_case(seed, layout)
            cases[f"segments {layout}, seed {seed}"] = (q.data, k.data, v.data, 2, mask,
                                                       T.segments(q_ids, k_ids), False)
    cases["scores near 500"] = (*_scores_near_500(), 4, None, None, True)
    return cases


def test_each_fixed_attention_case_takes_the_path_its_scores_call_for(shifts):
    for name, (q, k, v, heads, mask, segments, shifted) in _fixed_attention_cases().items():
        T.attention(q, k, v, heads, mask, segments)
        assert shifts[-1] == shifted, name
    assert T._must_shift(np.array([[np.nan]]), np.ones((1, 1)), 1, None)
    assert T._must_shift(np.ones((1, 1)), np.ones((1, 1)), 1, np.array([[np.inf]]))


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_attention_with_scores_up_to_the_limit_skips_the_shift_and_matches(shifts, sign):
    """Scores of one sign reaching EXP_LIMIT in magnitude, the bound's own
    extreme: exp stays finite and normal without the shift."""
    rng = np.random.default_rng(3)
    q = sign * 8.0 * rng.uniform(0.5, 1.0, size=(6, 1))
    k = T.EXP_LIMIT / 8.0 * rng.uniform(0.5, 1.0, size=(50, 1))
    q[0, 0], k[0, 0] = sign * 8.0, T.EXP_LIMIT / 8.0  # a score of exactly the limit
    _assert_attention_matches_normalized((q, k, rng.normal(size=(50, 2))), 1)
    assert shifts == [False]


def test_only_the_shifted_gradient_case_passes_the_limit(shifts):
    """C01 grad-checks both softmax paths: every attention case of
    ``grad_cases`` stays under the limit, except ``attention_shifted``."""
    from grad_cases import GRAD_CASES, make_aux
    for name, fn in GRAD_CASES.items():
        if name.startswith("attention"):
            for seed in range(10):
                aux = make_aux(seed)
                shifts.clear()
                fn(T.Tensor(aux["x"]), aux)
                assert shifts == [name == "attention_shifted"], (name, seed)


@st.composite
def _attention_cases(draw):
    """heads, dk, dv; per record its query and key row counts (at least one
    record with queries, every one with keys); a seed; the mask kind; and a
    target score bound on either side of ``T.EXP_LIMIT``."""
    sizes = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)), min_size=1,
                          max_size=4).filter(lambda s: any(n for n, _ in s)))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3)), sizes,
            draw(st.integers(0, 2 ** 16)), draw(st.sampled_from(["none", "hidden", "finite"])),
            draw(st.floats(0.1, 2000.0)))


@given(_attention_cases())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_attention_matches_the_normalized_formulation(case):
    """Records stacked in shuffled row order (segmented when there are several),
    a mask that hides keys (leaving one of the row's own record visible) and
    may add finite scores, and q scaled so the score bound lands at the drawn
    target: outputs within 1e-12 and gradients within 1e-10 of the reference,
    with no overflow, invalid value or division by zero. The tolerances are
    relative to the reference's largest entry, or, where that vanishes (a row
    with one visible key, or a softmax saturated to one key), to the size the
    computation rounds at: max|v| for outputs, and the product of the
    cotangent, v, the other side's rows and 1/sqrt(dk) for q and k."""
    heads, dk, dv, sizes, seed, masking, target = case
    rng = np.random.default_rng(seed)
    q_ids, k_ids = (rng.permutation(np.repeat(np.arange(len(sizes)), [s[j] for s in sizes]))
                    for j in (0, 1))
    n, m = len(q_ids), len(k_ids)
    q, k, v = (rng.normal(size=(r, heads * d)) for r, d in ((n, dk), (m, dk), (m, dv)))
    q *= target / (np.sqrt(dk) * np.abs(q).max() * np.abs(k).max())  # the bound w/o mask
    mask = None
    if masking != "none":
        mask = np.where(rng.uniform(size=(n, m)) < 0.4, -np.inf,
                        rng.uniform(-20, 20, size=(n, m)) if masking == "finite" else 0.0)
        for i, r in enumerate(q_ids):
            mask[i, rng.choice(np.flatnonzero(k_ids == r))] = 0.0
    segments = T.segments(q_ids, k_ids) if len(sizes) > 1 else None
    w = rng.normal(size=(n, heads * dv))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out, grads = _attention_outputs_and_grads(T.attention, (q, k, v), heads, mask,
                                                  segments, w)
    ref_out, ref_grads = _attention_outputs_and_grads(attention_normalized, (q, k, v), heads,
                                                      mask, segments, w)

    def top(x):
        return np.abs(x).max()

    s = 1.0 / np.sqrt(dk)
    assert np.abs(out - ref_out).max() <= 1e-12 * max(top(ref_out), top(v))
    for got, want, floor in zip(grads, ref_grads, (s * top(w) * top(v) * top(k),
                                                   s * top(w) * top(v) * top(q), top(w))):
        assert np.isfinite(got).all()
        assert np.abs(got - want).max() <= 1e-10 * max(top(want), floor)


# -- a mask that hides a whole query row ------------------------------------------


def test_segmented_attention_rejects_a_row_whose_own_record_keys_are_all_hidden(shifts):
    """Row 2 (record 1) still sees record 0's keys, but attention reads only
    its own record's block, where every key is hidden; on either softmax
    path, the shifted one taken when q is scaled 1000-fold."""
    for scale, shifted in ((1.0, False), (1e3, True)):
        rng = np.random.default_rng(1)
        q, k = T.Tensor(scale * rng.normal(size=(4, 4))), T.Tensor(rng.normal(size=(5, 4)))
        q_ids, k_ids = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1, 1])
        mask = np.zeros((4, 5))
        mask[2, [1, 3, 4]] = -np.inf
        with pytest.raises(T.ShapeError, match="hides every key of query row 2"):
            T.attention(q, k, k, 2, mask, T.segments(q_ids, k_ids))
        mask[2, 3] = 0.0  # one key of its own record visible again
        out = T.attention(q, k, k, 2, mask, T.segments(q_ids, k_ids))
        assert np.isfinite(out.data).all() and shifts[-1] == shifted

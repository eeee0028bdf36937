import numpy as np
import pytest

from spandet import tensor as T
from spandet.geometry import Interval
from spandet.model import (ClassifierHead, DetectionModel, LayerPrediction,
                           ModelConfig, ModelOutput, dn_attention_mask,
                           load_classifier, load_detector, save_classifier,
                           save_detector)
from spandet.nn import (ConcatPosAttention, Linear, MultiHeadAttention,
                        sinusoidal_encode)
from spandet.training import detection_loss, make_denoising

TINY = dict(d_model=16, hidden=16, heads=4, ffn_mult=2, enc_layers=1,
            dec_layers=2, num_queries=2, max_tokens=64)


def tiny_model(seed=0, **over):
    return DetectionModel(ModelConfig(**{**TINY, **over}), seed=seed)


def rand_input(n=10, d=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), np.linspace(0.04, 0.96, n)


def test_config_defaults_and_validation():
    cfg = ModelConfig(d_model=4096)
    assert cfg.hidden == 256
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(d_model=64, hidden=30, heads=4)
    with pytest.raises(ValueError, match="query"):
        ModelConfig(d_model=64, hidden=32, num_queries=0)


def test_projection_at_llm_scale_dimensions():
    # 7B-class hidden size divided by 16
    from spandet.nn import Linear
    proj = Linear(4096, 256, np.random.default_rng(0))
    out = proj(T.Tensor(np.random.default_rng(1).normal(size=(3, 4096))))
    assert out.shape == (3, 256)


def test_projection_shape_and_zero_weights():
    m = tiny_model()
    vec, pos = rand_input()
    out = m.proj(T.Tensor(vec))
    assert out.shape == (10, 16)
    m.proj.weight.data[:] = 0.0
    m.proj.bias.data[:] = 0.0
    assert np.array_equal(m.proj(T.Tensor(vec)).data, np.zeros((10, 16)))


def test_forward_rejects_bad_input():
    m = tiny_model()
    with pytest.raises(ValueError, match="empty"):
        m.forward(np.zeros((0, 16)), np.zeros(0))
    with pytest.raises(T.ShapeError, match="d_model"):
        m.forward(np.zeros((3, 8)), np.zeros(3))
    with pytest.raises(ValueError, match="max_tokens"):
        m.forward(np.zeros((65, 16)), np.zeros(65))


def test_sinusoidal_zero_position():
    enc = sinusoidal_encode(0.0, 8)
    assert np.array_equal(enc, [0.0, 1.0] * 4)


def test_sinusoidal_odd_dim_rejected():
    with pytest.raises(ValueError):
        sinusoidal_encode(0.5, 7)


def test_anchor_encoding_is_concat_of_halves():
    cw = T.Tensor([[0.5, 0.5]])
    enc = T.anchor_encode(cw, 16).data[0]
    half = sinusoidal_encode(0.5, 8)
    assert np.allclose(enc, np.concatenate([half, half]), atol=1e-12)


def test_sinusoidal_distinct_positions_not_parallel():
    a = sinusoidal_encode(0.3, 32)
    b = sinusoidal_encode(0.7, 32)
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 1.0 - 1e-6


def test_anchor_encode_matches_numpy():
    cw = np.array([[0.1, 0.3], [0.42, 0.05], [0.9, 0.77]])
    got = T.anchor_encode(T.Tensor(cw), 24).data
    want = np.concatenate([sinusoidal_encode(cw[:, 0], 12),
                           sinusoidal_encode(cw[:, 1], 12)], axis=1)
    assert np.allclose(got, want, atol=1e-12)


def test_encoder_permutation_equivariance():
    m = tiny_model(seed=4)
    vec, pos = rand_input(n=8)
    enc_in = m.proj(T.Tensor(vec))
    pe = T.Tensor(sinusoidal_encode(pos, 16))
    out = m.encoder[0](enc_in, pe).data
    perm = np.random.default_rng(1).permutation(8)
    out_p = m.encoder[0](m.proj(T.Tensor(vec[perm])),
                         T.Tensor(sinusoidal_encode(pos[perm], 16))).data
    assert np.allclose(out_p, out[perm], atol=1e-10)


def test_single_token_input_finite():
    m = tiny_model()
    out = m.forward(np.ones((1, 16)), np.array([0.5]))
    assert np.isfinite(out.layers[-1].cw.data).all()
    assert np.isfinite(out.layers[-1].logits.data).all()


def test_untrained_predictions_are_valid_intervals():
    m = tiny_model(seed=9)
    vec, pos = rand_input(seed=2)
    pred = m.predict(vec, pos)
    assert len(pred.intervals) == 2 and len(pred.scores) == 2
    for iv in pred.intervals:
        assert 0.0 < iv.c < 1.0 and 0.0 < iv.w < 1.0
    for layer in m.forward(vec, pos).layers[:-1]:  # the auxiliary layers
        for c, w in layer.cw.data:
            assert 0.0 < c < 1.0 and 0.0 < w < 1.0
    assert all(0.0 < s < 1.0 for s in pred.scores)


def test_inference_deterministic():
    m = tiny_model(seed=7)
    vec, pos = rand_input(seed=3)
    a = m.predict(vec, pos)
    b = m.predict(vec, pos)
    assert a.intervals == b.intervals and a.scores == b.scores


def test_denoising_presence_leaves_learnable_outputs_bitwise_identical():
    cfg = ModelConfig(**TINY)
    m = DetectionModel(cfg, seed=5)
    vec, pos = rand_input(seed=6)
    gts = [Interval(0.3, 0.2), Interval(0.7, 0.25)]
    base = m.forward(vec, pos, None)
    for groups in (1, 3, 5):
        cfg_g = ModelConfig(**{**TINY, "dn_groups": groups})
        dnb = make_denoising(gts, cfg_g, np.random.default_rng(groups))
        out = m.forward(vec, pos, dnb)
        assert len(out.dn_layers) == cfg.dec_layers
        assert out.dn_layers[-1].shape == (groups * 2, 2)
        for la, lb in zip(base.layers, out.layers):
            assert np.array_equal(la.cw.data, lb.cw.data)
            assert np.array_equal(la.logits.data, lb.logits.data)


def test_anchor_identity_update():
    m = tiny_model()
    # zero the refinement head and pin anchors to logit 0 -> intervals stay (0.5, 0.5)
    for lin in m.span_head.layers:
        lin.weight.data[:] = 0.0
        lin.bias.data[:] = 0.0
    m.query_anchors.data[:] = 0.0
    vec, pos = rand_input(seed=8)
    out = m.forward(vec, pos)
    for layer in out.layers:
        assert np.array_equal(layer.cw.data, np.full((2, 2), 0.5))


def test_encoder_layer_grad_check():
    rng = np.random.default_rng(0)
    layer_model = tiny_model(seed=1)
    layer = layer_model.encoder[0]
    x = rng.normal(size=(3, 16))
    pe = T.Tensor(sinusoidal_encode(np.array([0.2, 0.5, 0.8]), 16))
    w = rng.normal(size=(3, 16))

    def build_loss():
        return T.sum_(layer(T.Tensor(x), pe) * T.Tensor(w))

    assert T.grad_check(build_loss, list(layer.parameters().values()), 1e-5) < 1e-4


def test_classifier_zero_weights_uniform():
    head = ClassifierHead(16, 8, 3, seed=0)
    for lin in (head.lin1, head.lin2):
        lin.weight.data[:] = 0.0
        lin.bias.data[:] = 0.0
    probs = head.classify(np.random.default_rng(0).normal(size=(5, 16)))
    assert np.allclose(probs, [1 / 3] * 3, atol=1e-15)


def test_classifier_probs_sum_to_one():
    head = ClassifierHead(16, 8, 2, seed=1)
    probs = head.classify(np.random.default_rng(2).normal(size=(4, 16)))
    assert abs(probs.sum() - 1.0) < 1e-12


def test_detector_checkpoint_roundtrip(tmp_path):
    m = tiny_model(seed=11)
    vec, pos = rand_input(seed=12)
    before = m.predict(vec, pos)
    path = tmp_path / "model.npz"
    save_detector(path, m)
    again = load_detector(path)
    assert again.cfg == m.cfg
    after = again.predict(vec, pos)
    assert before.intervals == after.intervals and before.scores == after.scores


def test_classifier_checkpoint_roundtrip(tmp_path):
    head = ClassifierHead(16, 8, 2, seed=3)
    x = np.random.default_rng(4).normal(size=(6, 16))
    before = head.classify(x)
    path = tmp_path / "head.npz"
    save_classifier(path, head)
    after = load_classifier(path).classify(x)
    assert np.array_equal(before, after)


def test_checkpoint_kind_mismatch(tmp_path):
    head = ClassifierHead(16, 8, 2)
    path = tmp_path / "head.npz"
    save_classifier(path, head)
    with pytest.raises(ValueError, match="classifier"):
        load_detector(path)


def test_attention_rejects_bad_head_split():
    with pytest.raises(ValueError, match="divisible"):
        MultiHeadAttention(10, 3, np.random.default_rng(0))


# -- masked DN self-attention against the per-group reference ------------------


def forward_per_group(m, vectors, positions, dn):
    """Reference forward with one self-attention block per DN group: each
    group attends to the learnable prefix and to itself, with no mask."""
    cfg, h = m.cfg, m.cfg.hidden
    memory = m.proj(T.Tensor(vectors))
    pe_mem = T.Tensor(sinusoidal_encode(positions, h, cfg.temperature))
    for enc in m.encoder:
        memory = enc(memory, pe_mem)
    content_l, anchor_l = m.query_content, m.query_anchors
    size = len(dn.anchors) // dn.n_groups
    content_d = T.concat([m.dn_content] * len(dn.anchors), axis=0)
    anchor_d = T.inverse_sigmoid(T.Tensor(dn.anchors))
    layers, dn_layers = [], []
    for dec in m.decoder:
        pe_l = encode_anchor_t(T.sigmoid(anchor_l), h, cfg.temperature)
        prefix = (content_l + pe_l, content_l)
        pe_d = encode_anchor_t(T.sigmoid(anchor_d), h, cfg.temperature)
        groups = [slice(g * size, (g + 1) * size) for g in range(dn.n_groups)]
        content_d = T.concat([dec.self_block(content_d[rows, :],
                                             content_d[rows, :] + pe_d[rows, :], prefix)
                              for rows in groups], axis=0)
        content_l = dec.cross_ffn(dec.self_block(content_l, content_l + pe_l),
                                  pe_l, dec.cross_attn.keys_values(memory, pe_mem))
        anchor_l = anchor_l + m.span_head(content_l)
        layers.append(LayerPrediction(T.sigmoid(anchor_l), m.class_head(content_l)[:, 0]))
        content_d = dec.cross_ffn(content_d, pe_d, dec.cross_attn.keys_values(memory, pe_mem))
        anchor_d = anchor_d + m.span_head(content_d)
        dn_layers.append(T.sigmoid(anchor_d))
    return ModelOutput(layers, dn_layers, dn.gt_index)


def test_dn_attention_mask_layout():
    mask = dn_attention_mask(n_prefix=2, d_total=6, n_groups=3)
    assert mask.shape == (6, 8)
    visible = np.isfinite(mask)
    assert visible[:, :2].all()                       # every row sees the prefix
    group = np.repeat(np.arange(3), 2)
    assert np.array_equal(visible[:, 2:], group[:, None] == group[None, :])
    assert np.all(mask[visible] == 0.0)


@pytest.mark.parametrize("groups", [1, 2, 5])
@pytest.mark.parametrize("n_targets", [1, 2, 3])
def test_masked_dn_matches_per_group_reference(groups, n_targets):
    cfg = ModelConfig(**{**TINY, "num_queries": 3, "dn_groups": groups})
    m = DetectionModel(cfg, seed=20 + groups)
    vec, pos = rand_input(seed=30 + n_targets)
    gts = [Interval(0.15 + 0.3 * j, 0.2) for j in range(n_targets)]
    dnb = make_denoising(gts, cfg, np.random.default_rng(groups * 10 + n_targets))

    results = []
    for run in (m.forward, lambda v, p, d: forward_per_group(m, v, p, d)):
        out = run(vec, pos, dnb)
        m.zero_grad()
        detection_loss(out, gts)[0].backward()
        grads = {k: p.grad.copy() for k, p in m.parameters().items()}
        results.append((out, grads))
    (fast, g_fast), (ref, g_ref) = results

    for a, b in zip(fast.dn_layers, ref.dn_layers):
        assert np.abs(a.data - b.data).max() < 1e-12
    for a, b in zip(fast.layers, ref.layers):
        assert np.abs(a.cw.data - b.cw.data).max() < 1e-12
        assert np.abs(a.logits.data - b.logits.data).max() < 1e-12
    assert g_fast.keys() == g_ref.keys()
    for k in g_fast:
        assert np.abs(g_fast[k] - g_ref[k]).max() < 1e-10, k


# -- fused primitives against their composed references -------------------------
#
# Each reference is the chain of elementary primitives the fused form replaced.


def split_heads(x, heads):
    n, d = x.shape
    return T.transpose(T.reshape(x, (n, heads, d // heads)), (1, 0, 2))


def merge_heads(x):
    h, n, dh = x.shape
    return T.reshape(T.transpose(x, (1, 0, 2)), (n, h * dh))


def linear_ref(lin, x):
    return T.matmul(x, lin.weight) + lin.bias


def attend_ref(q, k, v):
    """Scaled-dot attention over already split (h, n, d) heads."""
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
    return T.matmul(T.softmax(scores, axis=-1), v)


def mha_ref(attn, q_in, k_in, v_in, mask=None):
    h = attn.heads
    q = split_heads(linear_ref(attn.wq, q_in), h)
    k = split_heads(linear_ref(attn.wk, k_in), h)
    v = split_heads(linear_ref(attn.wv, v_in), h)
    if mask is None:
        ctx = attend_ref(q, k, v)
    else:
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
        scores = scores + T.Tensor(np.broadcast_to(mask, scores.shape))
        ctx = T.matmul(T.softmax(scores, axis=-1), v)
    return linear_ref(attn.wo, merge_heads(ctx))


def concat_pos_ref(attn, content_q, pos_q, memory, pos_k):
    h = attn.heads
    q = T.concat([split_heads(linear_ref(attn.wq_content, content_q), h),
                  split_heads(linear_ref(attn.wq_pos, pos_q), h)], axis=-1)
    k = T.concat([split_heads(linear_ref(attn.wk_content, memory), h),
                  split_heads(linear_ref(attn.wk_pos, pos_k), h)], axis=-1)
    v = split_heads(linear_ref(attn.wv, memory), h)
    return linear_ref(attn.wo, merge_heads(attend_ref(q, k, v)))


def sinusoidal_encode_t(pos, dim, temperature=10000.0):
    freqs = temperature ** (2.0 * np.arange(dim // 2) / dim)
    inv = T.Tensor((2.0 * np.pi / freqs)[None, :])
    args = T.matmul(T.reshape(pos, (-1, 1)), inv)
    n, half = args.shape
    parts = T.concat([T.reshape(T.sin(args), (n, half, 1)),
                      T.reshape(T.cos(args), (n, half, 1))], axis=-1)
    return T.reshape(parts, (n, dim))


def encode_anchor_t(cw, dim, temperature=10000.0):
    return T.concat([sinusoidal_encode_t(cw[:, 0], dim // 2, temperature),
                     sinusoidal_encode_t(cw[:, 1], dim // 2, temperature)], axis=-1)


def outputs_and_grads(build, leaves, seed):
    """Output of `build()` and the gradients of a random projection of it
    with respect to `leaves`."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    w = np.random.default_rng(seed).normal(size=out.shape)
    T.sum_(out * T.Tensor(w)).backward()
    return out.data, [leaf.grad.copy() for leaf in leaves]


def assert_fused_matches_reference(fused, reference, leaves, seed):
    out_f, grads_f = outputs_and_grads(fused, leaves, seed)
    out_r, grads_r = outputs_and_grads(reference, leaves, seed)
    assert out_f.shape == out_r.shape
    assert np.abs(out_f - out_r).max() < 1e-12
    for gf, gr in zip(grads_f, grads_r):
        assert np.abs(gf - gr).max() < 1e-10


def leaf(rng, *shape):
    return T.Tensor(rng.normal(size=shape), requires_grad=True)


@pytest.mark.parametrize("seed", range(3))
def test_linear_matches_matmul_plus_bias(seed):
    rng = np.random.default_rng(seed)
    lin = Linear(12, 5, rng)
    lin.bias.data[:] = rng.normal(size=5)
    x = leaf(rng, 7, 12)
    assert_fused_matches_reference(lambda: lin(x), lambda: linear_ref(lin, x),
                                   [x, lin.weight, lin.bias], seed)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("masked", [False, True])
def test_multi_head_attention_matches_composed_reference(seed, masked):
    rng = np.random.default_rng(seed)
    attn = MultiHeadAttention(16, 4, rng)
    q, k, v = leaf(rng, 5, 16), leaf(rng, 8, 16), leaf(rng, 8, 16)
    mask = None
    if masked:  # DN-style: every query keeps the two prefix keys visible
        mask = np.where(rng.uniform(size=(5, 8)) < 0.4, -np.inf, 0.0)
        mask[:, :2] = 0.0
    leaves = [q, k, v] + list(attn.parameters().values())
    assert_fused_matches_reference(lambda: attn(q, k, v, mask),
                                   lambda: mha_ref(attn, q, k, v, mask), leaves, seed)


@pytest.mark.parametrize("seed", range(3))
def test_concat_pos_attention_matches_composed_reference(seed):
    rng = np.random.default_rng(seed)
    attn = ConcatPosAttention(16, 4, rng)
    cq, pq, mem, pk = leaf(rng, 3, 16), leaf(rng, 3, 16), leaf(rng, 9, 16), leaf(rng, 9, 16)
    leaves = [cq, pq, mem, pk] + list(attn.parameters().values())
    assert_fused_matches_reference(lambda: attn(cq, pq, attn.keys_values(mem, pk)),
                                   lambda: concat_pos_ref(attn, cq, pq, mem, pk),
                                   leaves, seed)


@pytest.mark.parametrize("seed", range(3))
def test_anchor_encode_matches_composed_reference(seed):
    rng = np.random.default_rng(seed)
    cw = T.Tensor(rng.uniform(size=(6, 2)), requires_grad=True)
    assert_fused_matches_reference(lambda: T.anchor_encode(cw, 32),
                                   lambda: encode_anchor_t(cw, 32), [cw], seed)


# -- tape size and the tape-free predict ------------------------------------------


def tape_nodes(roots):
    """Nodes reachable from `roots` through their parents, leaves included."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_tape_node_counts_at_the_c08_config():
    cfg = ModelConfig(d_model=32, hidden=32, heads=4, ffn_mult=4, enc_layers=3,
                      dec_layers=3, num_queries=1, max_tokens=128, dn_groups=5)
    m = DetectionModel(cfg, seed=0)
    vec, pos = rand_input(n=60, d=32, seed=1)
    out = m.forward(vec, pos)
    assert tape_nodes([t for layer in out.layers for t in (layer.cw, layer.logits)]) <= 300
    gts = [Interval(0.6, 0.5)]
    out = m.forward(vec, pos, make_denoising(gts, cfg, np.random.default_rng(2)))
    assert tape_nodes([detection_loss(out, gts)[0]]) <= 400


def test_predict_builds_no_tape_and_matches_the_taped_forward():
    m = tiny_model(seed=13)
    vec, pos = rand_input(seed=14)
    taped = m.forward(vec, pos)
    seen = []
    forward = m.forward

    def spy(*args, **kwargs):
        seen.append(forward(*args, **kwargs))
        return seen[-1]

    m.forward = spy
    pred = m.predict(vec, pos)
    assert len(seen) == 1
    for a, b in zip(taped.layers, seen[0].layers):
        assert a.cw._parents and a.logits._parents
        assert b.cw._parents == () and b.logits._parents == ()
        assert np.array_equal(a.cw.data, b.cw.data)
        assert np.array_equal(a.logits.data, b.logits.data)
    final = taped.layers[-1]
    assert pred.intervals == [Interval(float(c), float(w)) for c, w in final.cw.data]
    assert pred.scores == [float(p) for p in T.sigmoid(final.logits).data]
    assert m.forward(vec, pos).layers[-1].cw._parents  # the tape is back on

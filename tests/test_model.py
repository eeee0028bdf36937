import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from spandet import tensor as T
from spandet.geometry import Interval
from spandet.model import (ClassifierHead, DetectionModel, LayerPrediction,
                           ModelConfig, ModelOutput, _logit, check_features,
                           dn_attention_mask, load_detector, save_detector)
from spandet.nn import ConcatPosAttention, Linear, MultiHeadAttention, _concat_per_head
from spandet.tensor import sinusoidal_encode
from spandet.training import detection_loss, make_denoising

import reference_ops as R

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


@pytest.mark.parametrize("field, value, message", [
    ("heads", 0, "heads must be at least 1, got 0"),
    ("heads", -4, "heads must be at least 1, got -4"),
    ("hidden", 0, "hidden must be at least 1, got 0"),
    ("d_model", 0, "d_model must be at least 1, got 0"),
    ("d_model", -5, "d_model must be at least 1, got -5"),
    ("ffn_mult", 0, "ffn_mult must be at least 1, got 0"),
    ("max_tokens", 0, "max_tokens must be at least 1, got 0"),
    ("temperature", 0.0, "temperature must be a positive finite number, got 0.0"),
    ("temperature", -1.0, "temperature must be a positive finite number, got -1.0"),
    ("temperature", float("nan"), "temperature must be a positive finite number, got nan"),
    ("temperature", float("inf"), "temperature must be a positive finite number, got inf"),
])
def test_config_rejects_sizes_below_one_and_a_non_positive_temperature(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ModelConfig(**{**TINY, field: value})


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
        m.forward([np.zeros((0, 16))], [np.zeros(0)])
    with pytest.raises(T.ShapeError, match="d_model"):
        m.forward([np.zeros((3, 8))], [np.zeros(3)])
    with pytest.raises(ValueError, match="max_tokens"):
        m.forward([np.zeros((65, 16))], [np.zeros(65)])


def test_forward_and_logits_take_only_lists_of_records_and_say_what_was_passed():
    vec, pos = rand_input()
    m, head = tiny_model(), ClassifierHead(16, 8, 3)
    for call, where in ((lambda x: m.forward(x, pos), "forward"),
                        (lambda x: head.logits(x), "logits")):
        with pytest.raises(T.ShapeError, match=re.escape(
                f"{where} takes a non-empty list of records' (n, d) features, got a ndarray "
                f"of shape (10, 16)")):
            call(vec)
        with pytest.raises(T.ShapeError, match=re.escape("got a list of shape (0,)")):
            call([])
    with pytest.raises(T.ShapeError, match=r"^forward: 1 denoising entries for 2 records$"):
        m.forward([vec, vec], [pos, pos], [None])


def test_check_features_is_the_rule_forward_applies():
    cfg = ModelConfig(**TINY)
    cases = [(np.zeros((0, 16)), ValueError, "empty token sequence"),
             (np.zeros((3, 8)), T.ShapeError, "embedding dim 8 != configured d_model 16"),
             (np.zeros((65, 16)), ValueError, "65 tokens exceed max_tokens 64")]
    for vectors, kind, message in cases:
        for check in (lambda: check_features(vectors, cfg),
                      lambda: tiny_model().forward([vectors], [np.zeros(len(vectors))])):
            with pytest.raises(kind, match=f"^{re.escape(message)}$"):
                check()
    check_features(np.zeros((64, 16)), cfg)
    check_features(np.zeros((65, 8)))  # no config: rows are all it asks for
    with pytest.raises(ValueError, match="^empty token sequence$"):
        check_features(np.zeros((0, 8)))


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


def division_sinusoidal_encode(pos, dim, temperature=10000.0):
    """Reference token encoding by the division formula, ``2 pi pos / freq``;
    ``sinusoidal_encode`` multiplies by ``2 pi / freq`` instead."""
    scalar = np.isscalar(pos)
    p = np.atleast_1d(np.asarray(pos, dtype=np.float64))
    freqs = temperature ** (2.0 * np.arange(dim // 2) / dim)
    args = 2.0 * np.pi * p[:, None] / freqs[None, :]
    out = np.empty((len(p), dim))
    out[:, 0::2] = np.sin(args)
    out[:, 1::2] = np.cos(args)
    return out[0] if scalar else out


def test_sinusoidal_encode_matches_the_division_formula():
    pos = np.random.default_rng(3).uniform(0.0, 1.0, size=50)
    for dim, temperature in ((16, 10000.0), (32, 10000.0), (12, 100.0)):
        got = sinusoidal_encode(pos, dim, temperature)
        assert got.shape == (50, dim)
        assert np.abs(got - division_sinusoidal_encode(pos, dim, temperature)).max() <= 1e-15
        for p in (0.0, 0.37, 1.0):
            one = sinusoidal_encode(p, dim, temperature)
            assert one.shape == (dim,)
            assert np.abs(one - division_sinusoidal_encode(p, dim, temperature)).max() <= 1e-15
    grid = pos[:12].reshape(3, 4)
    assert np.array_equal(sinusoidal_encode(grid, 8),
                          sinusoidal_encode(pos[:12], 8).reshape(3, 4, 8))


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
    assert np.array_equal(got, want)


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
    out = m.forward([np.ones((1, 16))], [np.array([0.5])])
    assert np.isfinite(out.layers[-1].cw.data).all()
    assert np.isfinite(out.layers[-1].logits.data).all()


def test_untrained_predictions_are_valid_intervals():
    m = tiny_model(seed=9)
    vec, pos = rand_input(seed=2)
    pred = m.predict(vec, pos)
    assert len(pred.intervals) == 2 and len(pred.scores) == 2
    for iv in pred.intervals:
        assert 0.0 < iv.c < 1.0 and 0.0 < iv.w < 1.0
    for layer in m.forward([vec], [pos]).layers[:-1]:  # the auxiliary layers
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
    base = m.forward([vec], [pos], None)
    for groups in (1, 3, 5):
        cfg_g = ModelConfig(**{**TINY, "dn_groups": groups})
        dnb = make_denoising(gts, cfg_g, np.random.default_rng(groups))
        out = m.forward([vec], [pos], [dnb])
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
    out = m.forward([vec], [pos])
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
        return R.sum_(R.mul(layer(T.Tensor(x), pe), T.Tensor(w)))

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


def test_classify_is_the_reference_softmax_of_the_logits():
    head = ClassifierHead(16, 8, 3, seed=5)
    x = np.random.default_rng(6).normal(size=(4, 16))
    assert np.array_equal(head.classify(x), R.softmax(head.logits([x])).data[0])


def test_classify_rejects_an_empty_record_by_the_feature_contract():
    with pytest.raises(ValueError, match="^empty token sequence$"):
        ClassifierHead(16, 8, 2).classify(np.zeros((0, 16)))


@pytest.mark.parametrize("field, value", [("d_model", 0), ("hidden", 0), ("hidden", -3),
                                          ("n_classes", 0)])
def test_classifier_rejects_sizes_below_one_naming_the_field(field, value):
    sizes = {"d_model": 16, "hidden": 8, "n_classes": 2, field: value}
    message = f"{field} must be at least 1, got {value}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ClassifierHead(**sizes)


def write_archive(path, model, config=None, **meta):
    """`model`'s weights in a checkpoint archive laid out member for member as
    ``save_detector`` writes it: a JSON ``__meta__`` (version 1, kind
    "detector" and `config`, by default the model's; `meta` overrides any
    key), then one ``param/<name>`` array per weight."""
    meta = {"checkpoint_version": 1, "kind": "detector",
            "config": asdict(model.cfg) if config is None else config, **meta}
    np.savez(path, __meta__=np.array(json.dumps(meta, sort_keys=True)),
             **{f"param/{k}": v for k, v in model.state().items()})


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


def test_save_detector_writes_the_version_1_archive_layout(tmp_path):
    m = tiny_model(seed=13, dn_groups=0)
    save_detector(tmp_path / "saved.npz", m)
    write_archive(tmp_path / "built.npz", m)
    with np.load(tmp_path / "saved.npz") as a, np.load(tmp_path / "built.npz") as b:
        assert a.files == b.files == ["__meta__", *(f"param/{k}" for k in m.state())]
        for k in a.files:
            assert a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]), k
        meta = json.loads(str(a["__meta__"]))
    assert meta == {"checkpoint_version": 1, "kind": "detector", "config": asdict(m.cfg)}


def test_an_archive_laid_out_as_version_1_loads_and_predicts_bitwise(tmp_path):
    m = tiny_model(seed=14)
    vec, pos = rand_input(seed=15)
    path = tmp_path / "v1.npz"
    write_archive(path, m)
    again = load_detector(path)
    assert again.cfg == m.cfg
    before, after = m.predict(vec, pos), again.predict(vec, pos)
    assert before.intervals == after.intervals and before.scores == after.scores


def test_checkpoint_kind_mismatch(tmp_path):
    path = tmp_path / "head.npz"
    write_archive(path, tiny_model(), kind="classifier")
    message = f"{path}: checkpoint holds a 'classifier', not a detector"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_detector(path)


@pytest.mark.parametrize("meta, message", [
    ({"kind": None}, "checkpoint holds a None, not a detector"),
    ({"checkpoint_version": 2}, "unsupported checkpoint version"),
    ({"config": [16]}, "detector config [16] is not a JSON object"),
])
def test_checkpoint_meta_faults_name_the_path(tmp_path, meta, message):
    path = tmp_path / "model.npz"
    write_archive(path, tiny_model(), **meta)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_detector(path)


def test_checkpoint_config_with_unknown_or_missing_fields_names_them(tmp_path):
    path = tmp_path / "model.npz"
    m = tiny_model(seed=1)
    config = {**asdict(m.cfg), "depth": 2, "width": 3}
    write_archive(path, m, config)
    with pytest.raises(ValueError, match=re.escape(
            "detector config has unknown fields ['depth', 'width'] and missing fields []")):
        load_detector(path)
    del config["depth"], config["width"], config["heads"]
    write_archive(path, m, config)
    with pytest.raises(ValueError, match=re.escape(
            "detector config has unknown fields [] and missing fields ['heads']")):
        load_detector(path)


def test_unreadable_checkpoint_archives_raise_naming_the_path(tmp_path):
    good = tmp_path / "good.npz"
    save_detector(good, tiny_model())
    path = tmp_path / "bad.npz"
    meta = json.dumps({"checkpoint_version": 1, "kind": "detector"})
    for write in (lambda: path.write_bytes(good.read_bytes()[:300]),  # truncated
                  lambda: path.write_text("not an archive\n"),
                  lambda: np.savez(path, weights=np.zeros(3)),  # no __meta__
                  lambda: np.savez(path, __meta__=np.array(meta[:-1]))):  # not JSON
        write()
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: not a readable checkpoint archive with a JSON __meta__")):
            load_detector(path)


def test_checkpoint_faults_found_building_the_model_name_the_path(tmp_path):
    m = tiny_model(seed=3)
    path = tmp_path / "model.npz"
    for heads, message in [(0, "heads must be at least 1, got 0"),
                           (3, "hidden 16 not divisible by heads 3")]:
        write_archive(path, m, {**asdict(m.cfg), "heads": heads})
        with pytest.raises(ValueError, match=re.escape(f"{path}: detector {message}")):
            load_detector(path)
    save_detector(path, m)
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files if k != "param/proj.weight"}
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: detector state mismatch: missing ['proj.weight'], extra []")):
        load_detector(path)
    write_archive(path, m, {**asdict(m.cfg), "d_model": 8})
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: detector proj.weight: shape (16, 16) != expected (8, 16)")):
        load_detector(path)


@pytest.mark.parametrize("field, value, message", [
    ("heads", "4", "field heads is '4', not an int"),
    ("d_model", None, "field d_model is None, not an int"),
    ("dn_groups", True, "field dn_groups is True, not an int"),
    ("heads", 4.0, "field heads is 4.0, not an int"),
    ("temperature", "1e4", "field temperature is '1e4', not a number"),
    ("dn_width_noise", False, "field dn_width_noise is False, not a number"),
])
def test_checkpoint_config_values_must_be_numbers_of_their_field_type(tmp_path, field, value,
                                                                       message):
    m = tiny_model(seed=2)
    path = tmp_path / "model.npz"
    write_archive(path, m, {**asdict(m.cfg), field: value})
    with pytest.raises(ValueError, match=re.escape(f"{path}: detector config {message}")):
        load_detector(path)
    write_archive(path, m, {**asdict(m.cfg), "temperature": 10000})
    assert load_detector(path).cfg == m.cfg  # an int is a number


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
    anchor_d = R.inverse_sigmoid(T.Tensor(dn.anchors))
    layers, dn_layers = [], []
    for dec in m.decoder:
        pe_l = encode_anchor_t(T.sigmoid(anchor_l), h, cfg.temperature)
        q_l = content_l + pe_l
        pe_d = encode_anchor_t(T.sigmoid(anchor_d), h, cfg.temperature)
        groups = [slice(g * size, (g + 1) * size) for g in range(dn.n_groups)]
        blocks = []
        for rows in groups:
            c = R.slice_(content_d, np.s_[rows, :])
            q = R.slice_(content_d, np.s_[rows, :]) + R.slice_(pe_d, np.s_[rows, :])
            blocks.append(dec.self_block(c, q, T.concat([q_l, q], axis=0),
                                         T.concat([content_l, c], axis=0)))
        content_d = T.concat(blocks, axis=0)
        content_l = dec.cross_ffn(dec.self_block(content_l, q_l, q_l, content_l),
                                  pe_l, dec.cross_attn.keys_values(memory, pe_mem))
        anchor_l = anchor_l + m.span_head(content_l)
        layers.append(LayerPrediction(T.sigmoid(anchor_l), m.class_head(content_l)))
        content_d = dec.cross_ffn(content_d, pe_d, dec.cross_attn.keys_values(memory, pe_mem))
        anchor_d = anchor_d + m.span_head(content_d)
        dn_layers.append(T.sigmoid(anchor_d))
    return ModelOutput(layers, dn_layers, dn.gt_index, [len(dn.anchors)])


def test_dn_attention_mask_layout():
    dnb = make_denoising([Interval(0.3, 0.2), Interval(0.7, 0.2)],
                         ModelConfig(**{**TINY, "dn_groups": 3}), np.random.default_rng(0))
    mask = dn_attention_mask(2, [dnb])
    assert mask.shape == (6, 8)
    visible = np.isfinite(mask)
    assert visible[:, :2].all()                       # every row sees the prefix
    group = np.repeat(np.arange(3), 2)
    assert np.array_equal(visible[:, 2:], group[:, None] == group[None, :])
    assert np.all(mask[visible] == 0.0)


def test_dn_attention_mask_numbers_each_records_groups_after_the_previous_records():
    cfg = ModelConfig(**{**TINY, "dn_groups": 2})
    one, three = ([Interval(0.2 + 0.3 * j, 0.2) for j in range(n)] for n in (1, 3))
    dns = [make_denoising(g, cfg, np.random.default_rng(0)) for g in (three, one)]
    group = np.array([0, 0, 0, 1, 1, 1, 2, 3])
    assert np.array_equal(np.isfinite(dn_attention_mask(0, dns)), group[:, None] == group)


@pytest.mark.parametrize("groups", [1, 2, 5])
@pytest.mark.parametrize("n_targets", [1, 2, 3])
def test_masked_dn_matches_per_group_reference(groups, n_targets):
    cfg = ModelConfig(**{**TINY, "num_queries": 3, "dn_groups": groups})
    m = DetectionModel(cfg, seed=20 + groups)
    vec, pos = rand_input(seed=30 + n_targets)
    gts = [Interval(0.15 + 0.3 * j, 0.2) for j in range(n_targets)]
    dnb = make_denoising(gts, cfg, np.random.default_rng(groups * 10 + n_targets))

    results = []
    for run in (lambda v, p, d: m.forward([v], [p], [d]),
                lambda v, p, d: forward_per_group(m, v, p, d)):
        out = run(vec, pos, dnb)
        m.zero_grad()
        detection_loss(out, [gts])[0].backward()
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


# -- one sigmoid per box against the two-sigmoid reference ---------------------


def forward_two_sigmoid(m, vectors, positions, dn):
    """Reference forward that takes each layer's box twice: one sigmoid node for
    the layer's output and another for the next layer's anchor encoding."""
    cfg, h = m.cfg, m.cfg.hidden
    memory = m.proj(T.Tensor(vectors))
    pe_mem = T.Tensor(sinusoidal_encode(positions, h, cfg.temperature))
    for enc in m.encoder:
        memory = enc(memory, pe_mem)
    content_l, anchor_l = m.query_content, m.query_anchors
    use_dn = dn is not None
    if use_dn:
        content_d = T.concat([m.dn_content] * len(dn.anchors), axis=0)
        anchor_d = T.Tensor(_logit(np.asarray(dn.anchors, dtype=np.float64)))
        dn_mask = dn_attention_mask(cfg.num_queries, [dn])
    layers, dn_layers = [], []
    for dec in m.decoder:
        pe_l = T.anchor_encode(T.sigmoid(anchor_l), h, cfg.temperature)
        q_l = content_l + pe_l
        if use_dn:
            pe_d = T.anchor_encode(T.sigmoid(anchor_d), h, cfg.temperature)
            q_d = content_d + pe_d
            content_d = dec.self_block(content_d, q_d, T.concat([q_l, q_d], axis=0),
                                       T.concat([content_l, content_d], axis=0), dn_mask)
        content_l = dec.self_block(content_l, q_l, q_l, content_l)
        kv = dec.cross_attn.keys_values(memory, pe_mem)
        content_l = dec.cross_ffn(content_l, pe_l, kv)
        anchor_l = anchor_l + m.span_head(content_l)
        layers.append(LayerPrediction(T.sigmoid(anchor_l), m.class_head(content_l)))
        if use_dn:
            content_d = dec.cross_ffn(content_d, pe_d, kv)
            anchor_d = anchor_d + m.span_head(content_d)
            dn_layers.append(T.sigmoid(anchor_d))
    return ModelOutput(layers, dn_layers, dn.gt_index if use_dn else None,
                       [len(dn.anchors) if use_dn else 0])


@pytest.mark.parametrize("groups", [0, 1, 5])
@pytest.mark.parametrize("n_targets", [1, 2])
def test_one_sigmoid_per_box_matches_the_two_sigmoid_reference(groups, n_targets):
    cfg = ModelConfig(**{**TINY, "num_queries": 3, "dn_groups": groups})
    m = DetectionModel(cfg, seed=40 + groups)
    vec, pos = rand_input(seed=50 + n_targets)
    gts = [Interval(0.2 + 0.4 * j, 0.3) for j in range(n_targets)]
    dnb = make_denoising(gts, cfg, np.random.default_rng(groups * 10 + n_targets))

    results = []
    for run in (lambda v, p, d: m.forward([v], [p], [d]),
                lambda v, p, d: forward_two_sigmoid(m, v, p, d)):
        out = run(vec, pos, dnb)
        m.zero_grad()
        detection_loss(out, [gts])[0].backward()
        results.append((out, {k: p.grad for k, p in m.parameters().items()}))
    (fast, g_fast), (ref, g_ref) = results

    assert len(fast.dn_layers) == len(ref.dn_layers) == (cfg.dec_layers if groups else 0)
    for a, b in zip(fast.dn_layers, ref.dn_layers):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(fast.layers, ref.layers):
        assert np.array_equal(a.cw.data, b.cw.data)
        assert np.array_equal(a.logits.data, b.logits.data)
    for k, g in g_fast.items():  # the shared box node sums its consumers' gradients first
        assert (g is None) == (g_ref[k] is None), k
        assert g is None or np.abs(g - g_ref[k]).max() < 1e-12, k


# -- fused primitives against their composed references -------------------------
#
# Each reference is the chain of elementary primitives the fused form replaced.


def split_heads(x, heads):
    n, d = x.shape
    return R.transpose(R.reshape(x, (n, heads, d // heads)), (1, 0, 2))


def merge_heads(x):
    h, n, dh = x.shape
    return R.reshape(R.transpose(x, (1, 0, 2)), (n, h * dh))


def linear_ref(lin, x):
    return R.matmul(x, lin.weight) + lin.bias


def attend_ref(q, k, v):
    """Scaled-dot attention over already split (h, n, d) heads."""
    scores = R.scale(R.matmul(q, R.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
    return R.matmul(R.softmax(scores, axis=-1), v)


def mha_ref(attn, q_in, k_in, v_in, mask=None):
    h = attn.heads
    q = split_heads(linear_ref(attn.wq, q_in), h)
    k = split_heads(linear_ref(attn.wk, k_in), h)
    v = split_heads(linear_ref(attn.wv, v_in), h)
    if mask is None:
        ctx = attend_ref(q, k, v)
    else:
        scores = R.scale(R.matmul(q, R.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(q.shape[-1]))
        scores = scores + T.Tensor(np.broadcast_to(mask, scores.shape))
        ctx = R.matmul(R.softmax(scores, axis=-1), v)
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
    args = R.matmul(R.reshape(pos, (-1, 1)), inv)
    n, half = args.shape
    parts = T.concat([R.reshape(R.sin(args), (n, half, 1)),
                      R.reshape(R.cos(args), (n, half, 1))], axis=-1)
    return R.reshape(parts, (n, dim))


def encode_anchor_t(cw, dim, temperature=10000.0):
    return T.concat([sinusoidal_encode_t(R.slice_(cw, np.s_[:, 0]), dim // 2, temperature),
                     sinusoidal_encode_t(R.slice_(cw, np.s_[:, 1]), dim // 2, temperature)],
                    axis=-1)


def outputs_and_grads(build, leaves, seed):
    """Output of `build()` and the gradients of a random projection of it
    with respect to `leaves`."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    w = np.random.default_rng(seed).normal(size=out.shape)
    R.sum_(R.mul(out, T.Tensor(w))).backward()
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


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_concat_per_head_is_bitwise_the_reshape_concat_chain(heads):
    rng = np.random.default_rng(heads)
    content, pos = leaf(rng, 5, 8), leaf(rng, 5, 8)
    w = T.Tensor(rng.normal(size=(5, 16)))
    results = []
    for build in (lambda: _concat_per_head(content, pos, heads),
                  lambda: R.reshape(T.concat([R.reshape(t, (5, heads, 8 // heads))
                                              for t in (content, pos)], axis=-1), (5, 16))):
        content.zero_grad()
        pos.zero_grad()
        out = build()
        R.sum_(R.mul(out, w)).backward()
        results.append((out.data, content.grad, pos.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)
    assert not np.shares_memory(content.grad, pos.grad)


@pytest.mark.parametrize("seed", range(3))
def test_anchor_encode_matches_composed_reference(seed):
    rng = np.random.default_rng(seed)
    cw = T.Tensor(rng.uniform(size=(6, 2)), requires_grad=True)
    assert_fused_matches_reference(lambda: T.anchor_encode(cw, 32),
                                   lambda: encode_anchor_t(cw, 32), [cw], seed)


# -- tape size and the tape-free predict ------------------------------------------


def tape_nodes(roots):
    """Nodes reachable from `roots` through their parents, leaves included."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_tape_node_counts_at_the_c08_config():
    cfg = ModelConfig(d_model=32, hidden=32, heads=4, ffn_mult=4, enc_layers=3,
                      dec_layers=3, num_queries=1, max_tokens=128, dn_groups=5)
    m = DetectionModel(cfg, seed=0)
    vec, pos = rand_input(n=60, d=32, seed=1)
    out = m.forward([vec], [pos])
    assert len(tape_nodes([t for layer in out.layers for t in (layer.cw, layer.logits)])) == 269
    gts = [Interval(0.6, 0.5)]
    out = m.forward([vec], [pos], [make_denoising(gts, cfg, np.random.default_rng(2))])
    nodes = tape_nodes([detection_loss(out, [gts])[0]])
    assert len(nodes) == 352
    # one sigmoid per box: the initial learnable box, then each layer's box in both blocks
    assert sum(node._op == "sigmoid" for node in nodes) == 1 + 2 * cfg.dec_layers


def test_predict_builds_no_tape_and_matches_the_taped_forward():
    m = tiny_model(seed=13)
    vec, pos = rand_input(seed=14)
    taped = m.forward([vec], [pos])
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
    assert pred.scores == [float(p) for p in T.sigmoid(final.logits).data[:, 0]]
    assert m.forward([vec], [pos]).layers[-1].cw._parents  # the tape is back on

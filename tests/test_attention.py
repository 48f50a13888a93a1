"""Attention identities, gate behavior, gradient checks, refinement sweep."""

from __future__ import annotations

import numpy as np
import pytest

from sphattn import attention, autodiff as ad, backbone as bb, field, geometry
from conftest import central_diff, random_rotation, relative_close

GRID = geometry.build_equiangular_grid(4, 8)
G = GRID.n_points
PARAM_NAMES = ("wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field", "pos", "gate_w", "gate_b")
CONFIG = bb.DEFAULT_CONFIG  # scalar field, one head, positional encoding, logistic gate


def make_params(rng, d=8, d_h=5, d_f=1, **kw):
    return attention.init_params(rng, d, d_h, d_f, G, **kw)


def random_qkv(rng, d=8):
    return rng.normal(size=(G, d)), rng.normal(size=(G, d)), rng.normal(size=(G, d))


def test_constant_values_give_constant_output():
    rng = np.random.default_rng(0)
    const = rng.normal(size=8)
    q, k = rng.normal(size=(G, 8)), rng.normal(size=(G, 8))
    out = attention.spherical_attention(q, k, np.tile(const, (G, 1)), GRID)
    assert np.max(np.abs(out - const)) < 1e-12


def test_output_within_value_extrema():
    rng = np.random.default_rng(1)
    for _ in range(10):
        q, k, v = random_qkv(rng)
        out = attention.spherical_attention(q, k, v, GRID)
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)


def test_zero_queries_give_quadrature_mean():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(G, 8))
    out = attention.spherical_attention(np.zeros((G, 8)), rng.normal(size=(G, 8)), v, GRID)
    mean = (GRID.weights[:, None] * v).sum(axis=0) / (4 * np.pi)
    assert np.max(np.abs(out - mean)) < 1e-12


def test_multihead_concatenates_per_head_results():
    rng = np.random.default_rng(3)
    q, k, v = random_qkv(rng, d=8)
    out = attention.spherical_attention(q, k, v, GRID, heads=2)
    for h, sl in enumerate((slice(0, 4), slice(4, 8))):
        expect = attention.spherical_attention(q[:, sl], k[:, sl], v[:, sl], GRID, heads=1)
        assert np.max(np.abs(out[:, sl] - expect)) < 1e-14


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_logits_raise():
    with pytest.raises(attention.NumericalOverflowError):
        attention.spherical_attention(np.full((G, 4), 1e200), np.full((G, 4), 1e200), np.ones((G, 4)), GRID)


def test_build_qkv_zero_parameters_give_zero_field():
    rng = np.random.default_rng(4)
    zero = {n: np.zeros_like(v) for n, v in make_params(rng).items()}
    feats = rng.uniform(0, 1, size=(G, 1))
    q, k, v = attention.build_qkv(rng.normal(size=5), rng.normal(size=5), feats, zero, True)
    assert np.all(q == 0) and np.all(k == 0) and np.all(v == 0)


def test_positional_encoding_flag_drops_p():
    rng = np.random.default_rng(5)
    p_on = make_params(rng)
    feats = rng.uniform(0, 1, size=(G, 1))
    h_i, h_j = rng.normal(size=5), rng.normal(size=5)
    q_on = attention.build_qkv(h_i, h_j, feats, p_on, True)[0]

    p_perturbed = {**p_on, "pos": p_on["pos"] + 123.0}
    q_off = attention.build_qkv(h_i, h_j, feats, p_on, False)[0]
    q_off2 = attention.build_qkv(h_i, h_j, feats, p_perturbed, False)[0]
    assert np.array_equal(q_off, q_off2)  # bit-independent of p
    assert not np.array_equal(q_on, q_off)
    assert np.array_equal(q_on, q_off + p_on["pos"])


def _gate(out, grid, p):
    pooled = attention.pool_attention(out, grid)
    return attention.gate_activation(attention.gate_preactivation(pooled, p), CONFIG["gate_activation"])


def test_zero_gate_starts_at_half():
    rng = np.random.default_rng(6)
    p = make_params(rng)
    out = rng.normal(size=(G, 8))
    assert _gate(out, GRID, p) == 0.5


def test_gate_activations():
    z = np.array([-0.3, 0.0, 1.2])
    assert np.allclose(attention.gate_activation(z, "logistic"), 1 / (1 + np.exp(-z)))
    assert np.allclose(attention.gate_activation(z, "sinusoidal"), 0.5 * (1 + np.sin(z)))
    with pytest.raises(ValueError):
        attention.gate_activation(z, "step")


def test_param_validation():
    # the model config owns the attention settings; new_model checks them
    with pytest.raises(ValueError, match="heads must divide"):
        bb.new_model([6], d=8, heads=3)
    with pytest.raises(ValueError, match="gate_activation"):
        bb.new_model([6], gate_activation="relu")


def _edge_gates(pos, feats, grid, p, nl, config=CONFIG):
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    return attention.edge_gate(pos[recv], pos[send], feats[recv], feats[send], grid, p, config)[0]


def test_edge_gates_match_single_edge_composition():
    rng = np.random.default_rng(8)
    p = make_params(rng, d_h=6, random_gate=True)
    pos = rng.uniform(-1.5, 1.5, size=(4, 3))
    feats = rng.normal(size=(4, 6))
    nl = geometry.neighbor_list(pos, 5.0)
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    alphas, pooled = attention.edge_gate(pos[recv], pos[send], feats[recv], feats[send], GRID, p, CONFIG)
    assert alphas.shape == (nl.n_edges,) and pooled.shape == (nl.n_edges, 8)
    for e, (i, j) in enumerate(nl.edges):
        r, values = field.grid_field(pos[i], pos[j], GRID)
        ff = field.field_features(r, values, "scalar")
        q, k, v = attention.build_qkv(feats[i], feats[j], ff, p, True)
        out = attention.spherical_attention(q, k, v, GRID, heads=1)
        assert abs(alphas[e] - _gate(out, GRID, p)) < 1e-12


def test_edge_gate_of_an_empty_neighborhood_is_empty():
    rng = np.random.default_rng(9)
    p = make_params(rng)
    pos = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    nl = geometry.neighbor_list(pos, 1.0)
    assert nl.n_edges == 0
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    h = rng.normal(size=(2, 5))
    alphas, pooled = attention.edge_gate(pos[recv], pos[send], h[recv], h[send], GRID, p, CONFIG)
    assert alphas.shape == (0,) and pooled.shape == (0, 8)


def test_symmetric_dimer_gates_are_equal():
    # identical node features, no positional embedding: both directions agree
    rng = np.random.default_rng(10)
    p = make_params(rng, random_gate=True)
    pos = np.array([[0.0, 0, 0], [1.3, 0.4, -0.2]])
    h = np.tile(rng.normal(size=5), (2, 1))
    no_pe = {**CONFIG, "positional_encoding": False}
    alphas = _edge_gates(pos, h, GRID, p, geometry.neighbor_list(pos, 5.0), no_pe)
    assert abs(alphas[0] - alphas[1]) < 1e-12


def test_gradients_through_edge_gates_match_fd():
    rng = np.random.default_rng(11)
    pos = rng.uniform(-1.2, 1.2, size=(3, 3))
    feats0 = rng.normal(size=(3, 4))
    nl = geometry.neighbor_list(pos, 8.0)
    names = PARAM_NAMES
    base = attention.init_params(rng, 6, 4, 1, G, random_gate=True)

    def build(values):
        return ad.sum_(_edge_gates(pos, feats0, GRID, dict(zip(names, values)), nl))

    leaves = [ad.leaf(base[n]) for n in names]
    loss = build(leaves)
    grads = ad.grad(loss, leaves, allow_unused=False)
    for name, lf, g in zip(names, leaves, grads):
        def f(v, name=name, lf=lf):
            vals = [v if n == name else base[n] for n in names]
            return float(build(vals))

        fd = central_diff(f, base[name], step=1e-5)
        assert relative_close(g.value, fd, 1e-5, floor=1e-10) >= 0.95, name


def test_gate_deviation_shrinks_with_grid_refinement():
    # positions rotate, the grid does not; median max-edge deviation must
    # be non-increasing as the grid refines (discretization-only error,
    # so positional embeddings are off)
    rng = np.random.default_rng(12)
    pos = rng.uniform(-1.5, 1.5, size=(5, 3))
    feats = rng.normal(size=(5, 4))
    nl = geometry.neighbor_list(pos, 10.0)
    medians = []
    for nt, npnts in ((4, 8), (8, 16), (16, 32)):
        grid = geometry.build_equiangular_grid(nt, npnts)
        p = attention.init_params(np.random.default_rng(99), 6, 4, 1, grid.n_points, random_gate=True)
        no_pe = {**CONFIG, "positional_encoding": False}
        base = _edge_gates(pos, feats, grid, p, nl, no_pe)
        devs = []
        for _ in range(50):
            r = random_rotation(rng)
            moved = _edge_gates(pos @ r.T, feats, grid, p, nl, no_pe)
            devs.append(np.max(np.abs(moved - base)))
        medians.append(np.median(devs))
    assert medians[0] >= medians[1] >= medians[2]
    assert medians[2] < medians[0] or medians[0] == 0.0


@pytest.mark.parametrize("name", PARAM_NAMES + (None,))
def test_gate_pipeline_tapes_whenever_one_parameter_is_a_leaf(name):
    # every input but one parameter is a plain array: the gate must still
    # come back as a node that depends on that parameter; with no leaf at
    # all it is a plain array
    rng = np.random.default_rng(13)
    base = make_params(rng, random_gate=True)
    leaf = None if name is None else ad.leaf(base[name])
    p = {**base, **({} if name is None else {name: leaf})}
    ff = rng.uniform(0, 1, size=(3, G, 1))
    q, k, v = attention.build_qkv(rng.normal(size=(3, 5)), rng.normal(size=(3, 5)), ff, p, True)
    out = attention.spherical_attention(q, k, v, GRID, heads=1)
    alpha = _gate(out, GRID, p)
    if name is None:
        assert type(alpha) is np.ndarray and alpha.shape == (3,)
        return
    assert isinstance(alpha, ad.Node)
    (g,) = ad.grad(ad.sum_(alpha), [leaf])
    assert np.any(g.value != 0.0)

"""Attention identities, gate behavior, gradient checks, refinement sweep."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from sphattn import attention, autodiff as ad, field, geometry
from conftest import central_diff, random_rotation, relative_close

GRID = geometry.build_equiangular_grid(4, 8)
G = GRID.n_points
PARAM_NAMES = ("wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field", "pos", "gate_w", "gate_b")


def make_params(rng, d=8, d_h=5, d_f=1, **kw):
    return attention.init_mara_params(rng, d, d_h, d_f, G, **kw)


def random_af(rng, d=8):
    return attention.AttentionField(
        rng.normal(size=(G, d)), rng.normal(size=(G, d)), rng.normal(size=(G, d))
    )


def test_constant_values_give_constant_output():
    rng = np.random.default_rng(0)
    const = rng.normal(size=8)
    af = attention.AttentionField(
        rng.normal(size=(G, 8)), rng.normal(size=(G, 8)), np.tile(const, (G, 1))
    )
    out = attention.spherical_attention(af, GRID)
    assert np.max(np.abs(out - const)) < 1e-12


def test_output_within_value_extrema():
    rng = np.random.default_rng(1)
    for _ in range(10):
        af = random_af(rng)
        out = attention.spherical_attention(af, GRID)
        v = np.asarray(af.v)
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)


def test_zero_queries_give_quadrature_mean():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(G, 8))
    af = attention.AttentionField(np.zeros((G, 8)), rng.normal(size=(G, 8)), v)
    out = attention.spherical_attention(af, GRID)
    mean = (GRID.weights[:, None] * v).sum(axis=0) / (4 * np.pi)
    assert np.max(np.abs(out - mean)) < 1e-12


def test_multihead_concatenates_per_head_results():
    rng = np.random.default_rng(3)
    af = random_af(rng, d=8)
    out = attention.spherical_attention(af, GRID, heads=2)
    for h, sl in enumerate((slice(0, 4), slice(4, 8))):
        sub = attention.AttentionField(af.q[:, sl], af.k[:, sl], af.v[:, sl])
        expect = attention.spherical_attention(sub, GRID, heads=1)
        assert np.max(np.abs(out[:, sl] - expect)) < 1e-14


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_logits_raise():
    af = attention.AttentionField(
        np.full((G, 4), 1e200), np.full((G, 4), 1e200), np.ones((G, 4))
    )
    with pytest.raises(attention.NumericalOverflowError):
        attention.spherical_attention(af, GRID)


def test_build_qkv_zero_parameters_give_zero_field():
    rng = np.random.default_rng(4)
    p = make_params(rng)
    zero = attention.MaraParams(
        *(np.zeros_like(getattr(p, n)) for n in (
            "wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field", "pos")),
        gate_w=np.zeros(p.d), gate_b=np.zeros(()),
    )
    feats = rng.uniform(0, 1, size=(G, 1))
    af = attention.build_qkv(rng.normal(size=5), rng.normal(size=5), feats, zero)
    assert np.all(af.q == 0) and np.all(af.k == 0) and np.all(af.v == 0)


def test_positional_encoding_flag_drops_p():
    rng = np.random.default_rng(5)
    p_on = make_params(rng)
    feats = rng.uniform(0, 1, size=(G, 1))
    h_i, h_j = rng.normal(size=5), rng.normal(size=5)
    af_on = attention.build_qkv(h_i, h_j, feats, p_on)

    p_off = replace(p_on, positional_encoding=False)
    p_off_perturbed = replace(p_off, pos=p_on.pos + 123.0)
    af_off = attention.build_qkv(h_i, h_j, feats, p_off)
    af_off2 = attention.build_qkv(h_i, h_j, feats, p_off_perturbed)
    assert np.array_equal(af_off.q, af_off2.q)  # bit-independent of p
    assert not np.array_equal(af_on.q, af_off.q)
    assert np.array_equal(af_on.q, af_off.q + p_on.pos)


def _gate(out, grid, p):
    pooled = attention.pool_attention(out, grid)
    return attention.gate_activation(attention.gate_preactivation(pooled, p), p.gate_activation)


def test_zero_gate_starts_at_half():
    rng = np.random.default_rng(6)
    p = make_params(rng)
    out = rng.normal(size=(G, p.d))
    assert _gate(out, GRID, p) == 0.5


def test_gate_activations():
    z = np.array([-0.3, 0.0, 1.2])
    assert np.allclose(attention.gate_activation(z, "logistic"), 1 / (1 + np.exp(-z)))
    assert np.allclose(attention.gate_activation(z, "sinusoidal"), 0.5 * (1 + np.sin(z)))
    with pytest.raises(ValueError):
        attention.gate_activation(z, "step")


def test_param_validation():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        make_params(rng, d=8, heads=3)
    p = make_params(rng)
    bad = np.array(p.pos)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        attention.MaraParams(
            p.wq_node, p.wk_node, p.wv_node, p.wq_field, p.wk_field, p.wv_field,
            bad, p.gate_w, p.gate_b,
        )
    with pytest.raises(ValueError):
        make_params(rng, gate_activation="relu")


def _edge_gates(pos, feats, grid, p, nl):
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    return attention.edge_gate(pos[recv], pos[send], feats[recv], feats[send], grid, p, "scalar")[0]


def test_edge_gates_match_single_edge_composition():
    rng = np.random.default_rng(8)
    p = make_params(rng, d_h=6, random_gate=True)
    pos = rng.uniform(-1.5, 1.5, size=(4, 3))
    feats = rng.normal(size=(4, 6))
    nl = geometry.neighbor_list(pos, 5.0)
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    alphas, pooled = attention.edge_gate(pos[recv], pos[send], feats[recv], feats[send], GRID, p, "scalar")
    assert alphas.shape == (nl.n_edges,) and pooled.shape == (nl.n_edges, p.d)
    for e, (i, j) in enumerate(nl.edges):
        f = field.grid_field(pos[i], pos[j], GRID)
        ff = field.field_features(f, "scalar")
        af = attention.build_qkv(feats[i], feats[j], ff, p)
        out = attention.spherical_attention(af, GRID, heads=p.heads)
        assert abs(alphas[e] - _gate(out, GRID, p)) < 1e-12


def test_edge_gate_of_an_empty_neighborhood_is_empty():
    rng = np.random.default_rng(9)
    p = make_params(rng)
    pos = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    nl = geometry.neighbor_list(pos, 1.0)
    assert nl.n_edges == 0
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    h = rng.normal(size=(2, 5))
    alphas, pooled = attention.edge_gate(pos[recv], pos[send], h[recv], h[send], GRID, p, "scalar")
    assert alphas.shape == (0,) and pooled.shape == (0, p.d)


def test_symmetric_dimer_gates_are_equal():
    # identical node features, no positional embedding: both directions agree
    rng = np.random.default_rng(10)
    p = make_params(rng, positional_encoding=False, random_gate=True)
    pos = np.array([[0.0, 0, 0], [1.3, 0.4, -0.2]])
    h = np.tile(rng.normal(size=5), (2, 1))
    alphas = _edge_gates(pos, h, GRID, p, geometry.neighbor_list(pos, 5.0))
    assert abs(alphas[0] - alphas[1]) < 1e-12


def test_gradients_through_edge_gates_match_fd():
    rng = np.random.default_rng(11)
    pos = rng.uniform(-1.2, 1.2, size=(3, 3))
    feats0 = rng.normal(size=(3, 4))
    nl = geometry.neighbor_list(pos, 8.0)
    names = PARAM_NAMES
    base = attention.init_mara_params(rng, 6, 4, 1, G, random_gate=True)

    def build(values):
        arrays = dict(zip(names, values))
        p = attention.MaraParams(**arrays, heads=base.heads)
        return ad.sum_(_edge_gates(pos, feats0, GRID, p, nl))

    leaves = [ad.leaf(getattr(base, n)) for n in names]
    loss = build(leaves)
    grads = ad.grad(loss, leaves, allow_unused=False)
    for name, lf, g in zip(names, leaves, grads):
        def f(v, name=name, lf=lf):
            vals = [v if n == name else getattr(base, n) for n in names]
            return float(build(vals))

        fd = central_diff(f, getattr(base, name), step=1e-5)
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
        p = attention.init_mara_params(
            np.random.default_rng(99), 6, 4, 1, grid.n_points,
            positional_encoding=False, random_gate=True,
        )
        base = _edge_gates(pos, feats, grid, p, nl)
        devs = []
        for _ in range(50):
            r = random_rotation(rng)
            moved = _edge_gates(pos @ r.T, feats, grid, p, nl)
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
    leaf = None if name is None else ad.leaf(getattr(base, name))
    p = replace(base, **({} if name is None else {name: leaf}))
    ff = rng.uniform(0, 1, size=(3, G, 1))
    af = attention.build_qkv(rng.normal(size=(3, 5)), rng.normal(size=(3, 5)), ff, p)
    out = attention.spherical_attention(af, GRID, heads=p.heads)
    alpha = _gate(out, GRID, p)
    if name is None:
        assert type(alpha) is np.ndarray and alpha.shape == (3,)
        return
    assert isinstance(alpha, ad.Node)
    (g,) = ad.grad(ad.sum_(alpha), [leaf])
    assert np.any(g.value != 0.0)

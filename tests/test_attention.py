"""Attention identities, gate behavior, gradient checks, refinement sweep."""

from __future__ import annotations

import numpy as np
import pytest

from sphattn import attention, autodiff as ad, backbone as bb, field, geometry
from conftest import central_diff, per_point_attention, random_rotation, relative_close

GRID = geometry.build_equiangular_grid(4, 8)
G = GRID.n_points
PARAM_NAMES = ("wq_node", "wv_node", "wq_field", "wk_field", "wv_field", "pos", "gate_w", "gate_b")
CONFIG = bb.DEFAULT_CONFIG  # scalar field, one head, positional encoding, logistic gate


def make_params(rng, d=8, d_h=5, d_f=1, **kw):
    return attention.init_params(rng, d, d_h, d_f, G, **kw)


def random_qkv(rng, d=8):
    return rng.normal(size=(G, d)), rng.normal(size=(G, d)), rng.normal(size=(G, d))


def edge_inputs(rng, n=3, d_h=5, d_f=1):
    """Field features and receiver/sender features of ``n`` random edges."""
    return rng.uniform(0, 1, size=(n, G, d_f)), rng.normal(size=(n, d_h)), rng.normal(size=(n, d_h))


def test_constant_values_give_constant_output():
    rng = np.random.default_rng(0)
    const = rng.normal(size=8)
    q, k = rng.normal(size=(G, 8)), rng.normal(size=(G, 8))
    out = per_point_attention(q, k, np.tile(const, (G, 1)), GRID)
    assert np.max(np.abs(out - const)) < 1e-12


def test_output_within_value_extrema():
    rng = np.random.default_rng(1)
    for _ in range(10):
        q, k, v = random_qkv(rng)
        out = per_point_attention(q, k, v, GRID)
        assert np.all(out <= v.max(axis=0) + 1e-12)
        assert np.all(out >= v.min(axis=0) - 1e-12)


def test_zero_queries_give_quadrature_mean():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(G, 8))
    out = per_point_attention(np.zeros((G, 8)), rng.normal(size=(G, 8)), v, GRID)
    mean = (GRID.weights[:, None] * v).sum(axis=0) / (4 * np.pi)
    assert np.max(np.abs(out - mean)) < 1e-12


def test_multihead_concatenates_per_head_results():
    # head h is the one-head layer over the h-th slice of every projection
    rng = np.random.default_rng(3)
    p = make_params(rng, random_gate=True)
    ff, h_i, h_j = edge_inputs(rng)
    _, pooled = attention.edge_gate(ff, h_i, h_j, GRID, p, {**CONFIG, "heads": 2})
    for sl in (slice(0, 4), slice(4, 8)):
        head = {n: p[n][sl] for n in attention.PROJECTION_NAMES}
        head.update(pos=p["pos"][:, sl], gate_w=p["gate_w"][sl], gate_b=p["gate_b"])
        expect = attention.edge_gate(ff, h_i, h_j, GRID, head, CONFIG)[1]
        assert np.max(np.abs(pooled[:, sl] - expect)) < 1e-14


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_logits_raise():
    with pytest.raises(attention.NumericalOverflowError):
        attention.spherical_attention(np.full((G, 4), 1e200), np.full((G, 4), 1e200), GRID)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("scale,bias", [
    (1.0, np.full((G, G), np.inf)),  # the bias alone is not finite
    (1e153, np.full((G, G), 1.79e308)),  # finite q.k and bias whose sum overflows
])
def test_logits_made_non_finite_by_the_bias_raise(scale, bias):
    with pytest.raises(attention.NumericalOverflowError):
        attention.spherical_attention(np.full((G, 4), scale), np.full((G, 4), scale), GRID, bias)


SMALL = geometry.build_equiangular_grid(2, 4)
ATTENTION_CASES = [(heads, bias, lead) for heads in (1, 2) for bias in (True, False) for lead in ("edges", "per_point")]


def _attention_case(rng, heads, with_bias, lead, m=3):
    """Random q, k[, bias] and a linear functional c of pi for spherical_attention.

    ``lead`` "edges" gives both factors the leading axes (E, H) of the
    model; "per_point" gives conftest.per_point_attention's shapes, q
    (G, H, G, m) against keys (H, G, m) shared by every row.
    """
    g = SMALL.n_points
    q_shape, k_shape = ((2, heads, g, m),) * 2 if lead == "edges" else ((g, heads, g, m), (heads, g, m))
    args = [rng.normal(size=q_shape), rng.normal(size=k_shape)]
    if with_bias:
        args.append(rng.normal(size=(heads, g, g)))
    c = rng.normal(size=np.broadcast_shapes(q_shape[:-2], k_shape[:-2]) + (g,))
    return args, c


def _functional(c):
    return lambda q, k, bias=None: ad.sum_(ad.mul(attention.spherical_attention(q, k, SMALL, bias), c))


@pytest.mark.parametrize("heads,with_bias,lead", ATTENTION_CASES)
def test_spherical_attention_gradients_match_central_differences(heads, with_bias, lead):
    # c.pi against q, k and the bias, through logit_exp and pool_softmax,
    # in both create_graph modes
    rng = np.random.default_rng(30 + heads)
    args, c = _attention_case(rng, heads, with_bias, lead)
    f = _functional(c)
    leaves = [ad.leaf(a) for a in args]
    grads = ad.grad(f(*leaves), leaves)
    plain = ad.grad(f(*leaves), leaves, create_graph=False)
    for i, (a, g, p) in enumerate(zip(args, grads, plain)):
        assert g.parents and not p.parents
        assert np.array_equal(g.value, p.value)  # both modes, bit for bit
        fd = central_diff(lambda v, i=i: float(f(*args[:i], v, *args[i + 1:])), a)
        assert np.max(np.abs(g.value - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd))), i


@pytest.mark.parametrize("heads,with_bias,lead", ATTENTION_CASES)
def test_spherical_attention_reverse_over_reverse_matches_central_differences(heads, with_bias, lead):
    # s = r . d(c.pi)/dq, differentiated again against k and the bias: the
    # taped VJPs of both primitives are themselves differentiated
    rng = np.random.default_rng(40 + heads)
    args, c = _attention_case(rng, heads, with_bias, lead)
    f = _functional(c)
    r = rng.normal(size=args[0].shape)

    def s(*xs, create_graph=True):
        (dq,) = ad.grad(f(*xs), [xs[0]], create_graph=create_graph)
        return ad.sum_(ad.mul(dq, r))

    leaves = [ad.leaf(a) for a in args]
    grads = ad.grad(s(*leaves), leaves[1:])
    plain = ad.grad(s(*leaves), leaves[1:], create_graph=False)
    for i, (a, g, p) in enumerate(zip(args[1:], grads, plain), start=1):
        assert np.array_equal(g.value, p.value)  # both modes, bit for bit

        def of(v, i=i):
            xs = [ad.leaf(x) for x in args[:i] + [v] + args[i + 1:]]
            return float(s(*xs, create_graph=False).value)

        fd = central_diff(of, a)
        assert np.max(np.abs(g.value - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd))), i


def test_build_qkv_zero_parameters_give_zero_field():
    rng = np.random.default_rng(4)
    zero = {n: np.zeros_like(v) for n, v in make_params(rng).items()}
    ff, h_i, h_j = edge_inputs(rng)
    q, k, bias, v = attention.build_qkv(h_i, h_j, ff, zero, True, 1)
    assert np.all(q @ k.swapaxes(-1, -2) + bias == 0)
    b, _, w_vf, pos = v
    assert np.all(b == 0) and np.all(w_vf == 0) and np.all(pos == 0)
    pooled = attention.pool_attention(attention.spherical_attention(q, k, GRID, bias), v)
    assert np.all(pooled == 0)


def test_positional_encoding_flag_drops_p():
    rng = np.random.default_rng(5)
    p_on = make_params(rng)
    ff, h_i, h_j = edge_inputs(rng)
    q_on, k_on, bias_on, v_on = attention.build_qkv(h_i, h_j, ff, p_on, True, 1)

    p_perturbed = {**p_on, "pos": p_on["pos"] + 123.0}
    off = attention.build_qkv(h_i, h_j, ff, p_on, False, 1)
    off2 = attention.build_qkv(h_i, h_j, ff, p_perturbed, False, 1)
    for a, b in ((off[0], off2[0]), (off[1], off2[1]), (off[3][0], off2[3][0])):
        assert np.array_equal(a, b)  # bit-independent of p
    assert off[2] is None and off[3][3] is None
    assert q_on.shape[-1] == 3 and off[0].shape[-1] == 2  # 2 d_f + 1 and d_f + 1 wide
    assert np.allclose(bias_on[0], p_on["pos"] @ p_on["pos"].T / np.sqrt(8), rtol=1e-14, atol=0)
    assert v_on[3] is p_on["pos"]


def _gate(ff, h_i, h_j, p):
    """The gate composed from the public steps, as edge_gate chains them."""
    q, k, bias, v = attention.build_qkv(h_i, h_j, ff, p, CONFIG["positional_encoding"], CONFIG["heads"])
    pooled = attention.pool_attention(attention.spherical_attention(q, k, GRID, bias), v)
    return attention.gate_activation(attention.gate_preactivation(pooled, p), CONFIG["gate_activation"])


def test_zero_gate_starts_at_half():
    rng = np.random.default_rng(6)
    p = make_params(rng)
    assert np.all(_gate(*edge_inputs(rng), p) == 0.5)


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
    ff = field.field_features(*field.grid_field(pos[recv], pos[send], grid), config["field_mode"])
    return attention.edge_gate(ff, feats[recv], feats[send], grid, p, config)[0]


def test_edge_gates_match_single_edge_composition():
    rng = np.random.default_rng(8)
    p = make_params(rng, d_h=6, random_gate=True)
    pos = rng.uniform(-1.5, 1.5, size=(4, 3))
    feats = rng.normal(size=(4, 6))
    nl = geometry.neighbor_list(pos, 5.0)
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    ff = field.field_features(*field.grid_field(pos[recv], pos[send], GRID), "scalar")
    alphas, pooled = attention.edge_gate(ff, feats[recv], feats[send], GRID, p, CONFIG)
    assert alphas.shape == (nl.n_edges,) and pooled.shape == (nl.n_edges, 8)
    for e, (i, j) in enumerate(nl.edges):
        ff_e = field.field_features(*field.grid_field(pos[[i]], pos[[j]], GRID), "scalar")
        assert abs(alphas[e] - _gate(ff_e, feats[[i]], feats[[j]], p)[0]) < 1e-12


def test_edge_gate_of_an_empty_neighborhood_is_empty():
    rng = np.random.default_rng(9)
    p = make_params(rng)
    pos = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    nl = geometry.neighbor_list(pos, 1.0)
    assert nl.n_edges == 0
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    h = rng.normal(size=(2, 5))
    ff = field.field_features(*field.grid_field(pos[recv], pos[send], GRID), "scalar")
    alphas, pooled = attention.edge_gate(ff, h[recv], h[send], GRID, p, CONFIG)
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
    grads = ad.grad(loss, leaves, allow_unused=True)
    for name, lf, g in zip(names, leaves, grads):
        def f(v, name=name, lf=lf):
            vals = [v if n == name else base[n] for n in names]
            return float(build(vals))

        fd = central_diff(f, base[name], step=1e-5)
        assert relative_close(g.value, fd, 1e-5, floor=1e-10) >= 0.95, name


def dense_edge_gate(ff, h_i, h_j, grid, p, config, wk_node):
    """Reference gate and pooled vector with q, k and v built at every grid point.

    The key carries a node term W_k h_j for a (d, d_h) projection ``wk_node``
    that the layer has no parameter for: the term is constant along the
    softmax axis, so any choice of it must give the layer's result.
    """
    d = p["wq_node"].shape[0]
    heads = config["heads"]
    dh = d // heads
    pos = p["pos"] if config["positional_encoding"] else 0.0
    q = (h_i @ p["wq_node"].T)[:, None, :] + ff @ p["wq_field"].T + pos  # (E, G, d)
    k = (h_j @ wk_node.T)[:, None, :] + ff @ p["wk_field"].T + pos
    v = (h_j @ p["wv_node"].T)[:, None, :] + ff @ p["wv_field"].T + pos
    split = lambda x: x.reshape(len(x), grid.n_points, heads, dh).transpose(0, 2, 1, 3)  # (E, H, G, dh)
    logits = split(q) @ split(k).transpose(0, 1, 3, 2) / np.sqrt(dh)
    a = np.exp(logits - logits.max(axis=-1, keepdims=True)) * grid.weights
    a /= a.sum(axis=-1, keepdims=True)
    out = (a @ split(v)).transpose(0, 2, 1, 3).reshape(len(q), grid.n_points, d)
    pooled = np.einsum("g,egd->ed", grid.weights / (4 * np.pi), out)
    z = pooled @ p["gate_w"] + p["gate_b"]
    alpha = 1 / (1 + np.exp(-z)) if config["gate_activation"] == "logistic" else 0.5 * (1 + np.sin(z))
    return alpha, pooled


ORACLE_CASES = [
    (heads, mode, pe, True) for heads in (1, 2, 4) for mode in ("scalar", "rbf(3)") for pe in (True, False)
] + [(1, "scalar", True, False)]


@pytest.mark.parametrize("heads,mode,pe,random_gate", ORACLE_CASES)
def test_edge_gate_matches_dense_reference(heads, mode, pe, random_gate):
    rng = np.random.default_rng(14)
    model = bb.new_model([6], seed=3, random_gate=random_gate, field_mode=mode, heads=heads,
                         positional_encoding=pe, channels=6, gate_activation="sinusoidal" if heads == 4 else "logistic")
    p = {n: model.params[f"layer0.attn.{n}"] for n in PARAM_NAMES}
    pos = rng.normal(0.0, 1.2, size=(6, 3))
    h = rng.normal(size=(6, 6))
    nl = geometry.neighbor_list(pos, 5.0)
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    ff = field.field_features(*field.grid_field(pos[recv], pos[send], GRID), mode)
    alpha, pooled = attention.edge_gate(ff, h[recv], h[send], GRID, p, model.config)
    wk_node = rng.uniform(-1.0, 1.0, size=p["wq_node"].shape)
    ref_alpha, ref_pooled = dense_edge_gate(ff, h[recv], h[send], GRID, p, model.config, wk_node)
    assert np.max(np.abs(alpha - ref_alpha)) <= 1e-12 * np.max(np.abs(ref_alpha))
    assert np.max(np.abs(pooled - ref_pooled)) <= 1e-12 * np.max(np.abs(ref_pooled))
    if not random_gate:
        assert np.all(alpha == 0.5)


@pytest.mark.parametrize("heads", (1, 2))
def test_forward_tape_builds_no_per_grid_point_qkv(heads):
    # the attention is evaluated from d_f-wide factors and a pooled
    # distribution: no (E, G, d) or (E, H, G, d/H) array is ever taped,
    # and of the (E, H, G, G) arrays only the exponentials are
    rng = np.random.default_rng(15)
    while True:
        pos = rng.normal(0.0, 1.2, size=(20, 3))
        if geometry.neighbor_list(pos, 5.0).n_edges == 372:
            break
    config = bb.AtomicConfiguration(species=np.full(20, 6), positions=pos)
    model = bb.new_model([6], seed=1, random_gate=True, heads=heads)
    d, g = model.config["d"], bb.model_grid(model).n_points
    graph = bb.batch_graph([config], model)
    seen, stack = {}, [graph.energies]
    while stack:
        n = stack.pop()
        if n.tid not in seen:
            seen[n.tid] = n
            stack.extend(n.parents)
    shapes = {n.value.shape for n in seen.values()}
    assert (372, g, d) not in shapes and (372, heads, g, d // heads) not in shapes
    # the exponentials are the one (E, H, G, G) array each layer tapes
    blocks = [n.op for n in seen.values() if n.value.shape == (372, heads, g, g)]
    assert blocks == ["logit_exp"] * model.config["layers"]


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
    alpha = _gate(*edge_inputs(rng), p)
    if name is None:
        assert type(alpha) is np.ndarray and alpha.shape == (3,)
        return
    assert isinstance(alpha, ad.Node)
    (g,) = ad.grad(ad.sum_(alpha), [leaf])
    assert np.any(g.value != 0.0)


@pytest.mark.parametrize("shape", [(4, 8), (8, 16)], ids=["4x8", "8x16"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("mode", ["scalar", "rbf(3)"])
def test_without_positional_encoding_the_receiver_enters_the_gate_only_through_c(mode, heads, shape):
    # with the positional rows off, the logits read h_i only through
    # c = W_kf^T W_q h_i (d_f numbers per head) and the values not at all,
    # so a move of h_i that keeps c fixed keeps every gate (ROADMAP item 4)
    rng = np.random.default_rng(31)
    grid = geometry.build_equiangular_grid(*shape)
    d, d_h, d_f = 8, 8, field.parse_feature_mode(mode)
    p = attention.init_params(rng, d, d_h, d_f, grid.n_points, random_gate=True)
    p["gate_w"] = 8.0 * p["gate_w"]  # so that moved gates show
    pos = rng.uniform(-2.0, 2.0, size=(8, 3))
    edges = geometry.neighbor_list(pos, 5.0).edges
    feats = field.field_features(*field.grid_field(pos[edges[:, 0]], pos[edges[:, 1]], grid), mode)
    h_i, h_j = rng.normal(size=(2, len(edges), d_h))
    dh = d // heads
    c_map = np.concatenate([  # h_i -> c of every head, (heads * d_f, d_h)
        p["wk_field"][s:s + dh].T @ p["wq_node"][s:s + dh] for s in range(0, d, dh)
    ])
    null = np.linalg.svd(c_map)[2][np.linalg.matrix_rank(c_map):]  # rows span the null space
    fixed_c = rng.normal(size=(len(edges), len(null))) @ null
    free = rng.normal(size=fixed_c.shape)
    free *= np.linalg.norm(fixed_c, axis=1, keepdims=True) / np.linalg.norm(free, axis=1, keepdims=True)
    assert np.max(np.abs(fixed_c @ c_map.T)) < 1e-12

    def gate_shift(delta, positional_encoding):
        cfg = {**CONFIG, "heads": heads, "positional_encoding": positional_encoding}
        base = attention.edge_gate(feats, h_i, h_j, grid, p, cfg)[0]
        return np.max(np.abs(attention.edge_gate(feats, h_i + delta, h_j, grid, p, cfg)[0] - base))

    assert gate_shift(fixed_c, False) <= 1e-14
    assert gate_shift(free, False) > 1e-4
    # the global-frame embedding lets the rest of h_i in through A.P_g'
    assert gate_shift(fixed_c, True) > 1e-6

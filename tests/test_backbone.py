"""Backbone tests: radial basis, messages, symmetry, forces, reductions."""

import math

import numpy as np
import pytest

from sphattn import autodiff as ad
from sphattn import backbone as bb
from sphattn import field
from sphattn import training
from sphattn.geometry import (
    RigidMotion,
    apply_rigid,
    neighbor_list,
    real_spherical_harmonics,
    rotation_from_euler,
)

from conftest import central_diff, random_rigid, random_rotation


def small_model(seed=0, **over):
    over.setdefault("channels", 8)
    over.setdefault("d", 8)
    return bb.new_model([1, 6], seed=seed, **over)


def cloud(rng, n=4, scale=1.2, species=6):
    return bb.AtomicConfiguration(
        species=np.full(n, species), positions=rng.normal(0.0, scale, (n, 3))
    )


# ---------------------------------------------------------------- radial basis

def bare_bessel_oracle(r, r_c, n):
    # independent direct evaluation, scalar loop on purpose
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.zeros(r.shape + (n,))
    for i, ri in enumerate(r):
        for m in range(1, n + 1):
            out[i, m - 1] = np.sqrt(2.0 / r_c) * np.sin(m * np.pi * ri / r_c) / ri
    return out


def envelope_oracle(x, p):
    return (
        1.0
        - (p + 1) * (p + 2) / 2.0 * x**p
        + p * (p + 2) * x ** (p + 1)
        - p * (p + 1) / 2.0 * x ** (p + 2)
    )


def test_radial_basis_matches_direct_formula():
    r_c = 5.0
    vals = bb.radial_basis(r_c / 2.0, r_c, 2, envelope_p=None)
    oracle = bare_bessel_oracle(r_c / 2.0, r_c, 2)[0]
    assert np.allclose(vals, oracle, rtol=0, atol=1e-15)
    # first basis function peaks mid-cutoff: sqrt(2/5)/2.5 exactly
    assert vals[0] == pytest.approx(0.25298221281347033, abs=1e-16)
    assert abs(vals[1]) < 1e-15  # sin(pi) up to rounding

    rng = np.random.default_rng(11)
    r = rng.uniform(0.2, 4.8, 64)
    assert np.allclose(bb.radial_basis(r, r_c, 6, None), bare_bessel_oracle(r, r_c, 6), atol=1e-14)


def test_envelope_vanishes_smoothly_at_cutoff():
    # u(1) = 0 and u'(1) = 0 for the default exponent
    p = 6
    assert envelope_oracle(1.0, p) == 0.0
    h = 1e-5
    du = (envelope_oracle(1.0 + h, p) - envelope_oracle(1.0 - h, p)) / (2 * h)
    assert abs(du) < 1e-7  # truncation floor: u''' is a few hundred here

    r_c = 5.0
    rng = np.random.default_rng(3)
    r = rng.uniform(0.2, 4.9, 32)
    with_env = bb.radial_basis(r, r_c, 4, envelope_p=p)
    bare = bb.radial_basis(r, r_c, 4, envelope_p=None)
    assert np.allclose(with_env, bare * envelope_oracle(r / r_c, p)[:, None], atol=1e-14)
    # u(0.5) is dyadic: 1 - 28/64 + 48/128 - 21/256
    assert envelope_oracle(0.5, p) == 0.85546875

    beyond = bb.radial_basis(np.array([r_c, r_c + 0.5, 2 * r_c]), r_c, 4)
    assert np.all(beyond == 0.0)
    near = bb.radial_basis(r_c - 1e-9, r_c, 4)
    assert np.all(np.abs(near) < 1e-8)  # continuous through the cutoff


def test_radial_basis_validation():
    with pytest.raises(ValueError):
        bb.radial_basis(-0.1, 5.0, 4)
    with pytest.raises(ValueError):
        bb.radial_basis(np.array([1.0, 0.0]), 5.0, 4)
    with pytest.raises(ValueError):
        bb.radial_basis(1.0, 5.0, 0)
    with pytest.raises(ValueError):
        bb.radial_basis(1.0, -5.0, 4)


def test_radial_basis_gradient_matches_fd():
    rng = np.random.default_rng(5)
    r0 = rng.uniform(0.5, 4.5, 8)

    def f(r):
        return np.asarray(bb.radial_basis(r, 5.0, 3).sum())

    leaf = ad.leaf(r0)
    out = ad.sum_(bb.radial_basis(leaf, 5.0, 3))
    (g,) = ad.grad(out, [leaf])
    fd = central_diff(f, r0)
    assert np.allclose(g.value, fd, rtol=1e-6, atol=1e-8)


# ------------------------------------------------------------------ harmonics

def test_harmonics_satisfy_addition_theorem():
    # sum_m Y_lm(u) Y_lm(v) = (2l+1)/(4 pi) P_l(u.v), an oracle that
    # shares no code with the harmonics themselves
    rng = np.random.default_rng(9)
    u, v = rng.normal(size=(2, 40, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    yu, yv = real_spherical_harmonics(3, u), real_spherical_harmonics(3, v)
    t = np.sum(u * v, axis=1)
    legendre = [np.ones_like(t), t, (3 * t**2 - 1) / 2, (5 * t**3 - 3 * t) / 2]
    for l in range(4):
        lhs = np.sum(yu[:, l * l:(l + 1) ** 2] * yv[:, l * l:(l + 1) ** 2], axis=1)
        assert np.allclose(lhs, (2 * l + 1) / (4 * np.pi) * legendre[l], rtol=0, atol=1e-14), l
    with pytest.raises(ValueError):
        real_spherical_harmonics(4, u)


def test_harmonics_nodes_and_arrays_agree_bitwise():
    rng = np.random.default_rng(10)
    v = rng.normal(size=(2, 5, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    plain = real_spherical_harmonics(3, v)
    taped = real_spherical_harmonics(3, ad.leaf(v))
    assert type(plain) is np.ndarray and isinstance(taped, ad.Node)
    assert plain.shape == (2, 5, 16)
    assert np.array_equal(taped.value, plain)
    assert bb.taped_harmonics is real_spherical_harmonics


def test_harmonics_of_no_directions_are_empty():
    for l_max in range(4):
        empty = np.zeros((0, 3))
        assert real_spherical_harmonics(l_max, empty).shape == (0, (l_max + 1) ** 2)
        taped = real_spherical_harmonics(l_max, ad.leaf(empty))
        assert ad.value_of(taped).shape == (0, (l_max + 1) ** 2)


def test_taped_harmonics_gradient_through_normalization():
    rng = np.random.default_rng(13)
    x0 = rng.normal(size=(3, 3)) * 2.0

    def f(x):
        xs = x.reshape(3, 3)
        u = xs / np.linalg.norm(xs, axis=1, keepdims=True)
        return real_spherical_harmonics(2, u).sum()

    leaf = ad.leaf(x0)
    r = ad.norm(leaf, axis=-1, keepdims=True)
    out = ad.sum_(bb.taped_harmonics(2, ad.div(leaf, r)))
    (g,) = ad.grad(out, [leaf])
    fd = central_diff(lambda x: np.asarray(f(x)), x0.ravel()).reshape(3, 3)
    assert np.allclose(g.value, fd, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------- model state

def test_new_model_shapes_and_determinism():
    a = small_model(seed=4)
    b = small_model(seed=4)
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k]), k
    assert a.params["embed"].shape == (2, 8)
    assert a.params["layer0.radial"].shape == (3 * 8, 8)
    assert a.params["layer1.mix2"].shape == (8, 8)
    assert a.params["layer0.attn.pos"].shape == (32, 8)
    assert np.all(a.params["layer0.attn.gate_w"] == 0.0)
    assert a.config["species"] == [1, 6]

    c = small_model(seed=5)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)

    with pytest.raises(ValueError):
        bb.new_model([6], seed=0, cuttoff=4.0)  # misspelled key


@pytest.mark.parametrize("key, value", [
    ("d", 0), ("channels", 0), ("n_bessel", 0), ("layers", -1), ("l_max", -1), ("l_max", 4),
])
def test_new_model_rejects_out_of_range_sizes_naming_the_key(key, value):
    with pytest.raises(ValueError, match=f"'{key}'"):
        bb.new_model([6], **{key: value})


def test_unknown_species_rejected():
    state = small_model()
    cfg = bb.AtomicConfiguration(species=np.array([8, 6]), positions=np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError, match="vocabulary"):
        bb.energy(cfg, state)


def test_configuration_validation():
    with pytest.raises(ValueError):
        bb.AtomicConfiguration(species=np.array([6]), positions=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        bb.AtomicConfiguration(species=np.array([], dtype=int), positions=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        bb.AtomicConfiguration(
            species=np.array([6]), positions=np.array([[np.nan, 0, 0]])
        )
    with pytest.raises(ValueError):
        bb.AtomicConfiguration(
            species=np.array([6, 6]),
            positions=np.zeros((2, 3)),
            forces=np.zeros((3, 3)),
        )


def test_node_features_are_one_block_per_order():
    config = cloud(np.random.default_rng(4), n=5)
    for l_max in (0, 1, 3):
        blocks = bb.node_features(config, small_model(seed=3, l_max=l_max, random_gate=True))
        assert sorted(blocks) == list(range(l_max + 1))
        for l, b in blocks.items():
            assert type(b) is np.ndarray and b.shape == (5, 2 * l + 1, 8)


EDGELESS = {
    "isolated_pair": ([1, 6], [[0.0, 0, 0], [20.0, 0, 0]]),
    "single_atom": ([6], [[0.3, -1.0, 2.0]]),
}


@pytest.mark.parametrize("over", [{}, {"gating": False}, {"l_max": 3, "field_mode": "rbf(3)", "heads": 2}],
                         ids=["gated", "ungated", "rbf3_heads2"])
@pytest.mark.parametrize("name", sorted(EDGELESS))
def test_edgeless_structure_runs_every_layer_and_reads_out_the_embedding(name, over):
    species, positions = EDGELESS[name]
    config = bb.AtomicConfiguration(species=np.array(species), positions=np.array(positions))
    state = small_model(seed=5, layers=3, random_gate=True, **over)
    state.params["ref_energy"] = np.array([-0.4, 1.3])
    idx = np.searchsorted(state.config["species"], config.species)
    # no message reaches an atom, so each layer adds an empty sum to h:
    # the energy is the readout of the embedding, in the model's own ops
    e_atom = np.sum(state.params["embed"][idx] * state.params["readout"], axis=-1) + state.params["ref_energy"][idx]
    expected = math.fsum(e_atom.tolist())
    e, ea = bb.energy(config, state)
    assert e == expected and np.array_equal(ea, e_atom)
    e, ea, f = bb.energy_and_forces(config, state)
    assert e == expected and np.array_equal(ea, e_atom)
    assert np.array_equal(f, np.zeros((len(species), 3)))
    edges, trace = bb.model_edge_gates(config, state)
    assert edges.shape == (0, 2) and len(trace) == 3
    for rec in trace:
        assert rec["alpha"].shape == (0,) and rec["pooled_norm"].shape == (0,)
    blocks = bb.node_features(config, state)
    assert sorted(blocks) == list(range(state.config["l_max"] + 1))
    assert np.array_equal(blocks[0], state.params["embed"][idx][:, None, :])
    for l in range(1, state.config["l_max"] + 1):
        assert blocks[l].shape == (len(species), 2 * l + 1, 8) and np.all(blocks[l] == 0.0)


# -------------------------------------------------------------------- symmetry

def test_single_atom_zero_forces():
    state = small_model()
    cfg = bb.AtomicConfiguration(species=np.array([6]), positions=np.array([[0.3, -1.0, 2.0]]))
    e, e_atom, f = bb.energy_and_forces(cfg, state)
    assert f.shape == (1, 3)
    assert np.all(f == 0.0)
    assert e == pytest.approx(e_atom.sum())


def test_homonuclear_dimer_newton_third_law():
    state = small_model(seed=2)
    cfg = bb.AtomicConfiguration(
        species=np.array([6, 6]), positions=np.array([[0.0, 0, 0], [1.4, 0.3, -0.2]])
    )
    f = bb.energy_and_forces(cfg, state)[2]
    assert np.max(np.abs(f[0] + f[1])) < 1e-10


def test_net_force_is_zero():
    rng = np.random.default_rng(21)
    state = small_model(seed=1)
    for _ in range(5):
        f = bb.energy_and_forces(cloud(rng, n=5), state)[2]
        assert np.max(np.abs(f.sum(axis=0))) < 1e-8


def test_mirrored_neighbors_cancel_odd_blocks():
    # receiver with an inversion-symmetric neighborhood: every odd-order
    # aggregate is a sum of exactly opposite message pairs
    state = small_model(seed=6, gating=False)
    u = np.array([0.8, -0.5, 0.9])
    pos = np.stack([np.zeros(3), u, -u])
    cfg = bb.AtomicConfiguration(species=np.full(3, 6), positions=pos)
    blocks = bb.node_features(cfg, state)
    assert np.all(blocks[1][0] == 0.0)
    assert np.any(blocks[1][1] != 0.0)  # the ends are not symmetric sites
    assert np.any(blocks[2][0] != 0.0)  # even orders survive inversion


def test_ungated_energy_rigid_invariance():
    rng = np.random.default_rng(31)
    state = small_model(seed=3, gating=False)
    cfg = cloud(rng, n=5)
    e0 = bb.energy(cfg, state)[0]
    for _ in range(20):
        m = random_rigid(rng)
        moved = bb.AtomicConfiguration(species=cfg.species, positions=apply_rigid(m, cfg.positions))
        assert abs(bb.energy(moved, state)[0] - e0) < 1e-10


def test_ungated_forces_rotate_with_the_frame():
    rng = np.random.default_rng(37)
    state = small_model(seed=3, gating=False)
    cfg = cloud(rng, n=5)
    f0 = bb.energy_and_forces(cfg, state)[2]
    for _ in range(10):
        m = random_rigid(rng)
        moved = bb.AtomicConfiguration(species=cfg.species, positions=apply_rigid(m, cfg.positions))
        assert np.max(np.abs(bb.energy_and_forces(moved, state)[2] - f0 @ m.rotation.T)) < 1e-9


def test_block_rotation_follows_vector_representation():
    rng = np.random.default_rng(41)
    state = small_model(seed=8, gating=False)
    cfg = cloud(rng, n=4)
    r = random_rotation(rng)
    rot = bb.AtomicConfiguration(species=cfg.species, positions=cfg.positions @ r.T)
    b0 = bb.node_features(cfg, state)
    b1 = bb.node_features(rot, state)

    assert np.allclose(b1[0], b0[0], atol=1e-12)  # scalars invariant

    def to_vec(block):  # rows ordered m = -1, 0, 1 over (y, z, x)
        return np.stack([block[:, 2], block[:, 0], block[:, 1]], axis=1)

    expect = np.einsum("ab,nbc->nac", r, to_vec(b0[1]))
    assert np.allclose(to_vec(b1[1]), expect, atol=1e-12)


def test_gated_model_breaks_invariance_only_slightly():
    # global-frame grid and embeddings make gates rotation sensitive;
    # the deviation must exist (the gate is not vacuous) yet stay small
    rng = np.random.default_rng(43)
    state = small_model(seed=9)
    for t in range(state.config["layers"]):
        state.params[f"layer{t}.attn.gate_w"] = rng.uniform(-0.5, 0.5, 8)
    cfg = cloud(rng, n=5)
    e0 = bb.energy(cfg, state)[0]
    devs = []
    for _ in range(10):
        r = random_rotation(rng)
        rot = bb.AtomicConfiguration(species=cfg.species, positions=cfg.positions @ r.T)
        devs.append(abs(bb.energy(rot, state)[0] - e0))
    assert max(devs) > 1e-12
    assert max(devs) < 0.1 * abs(e0)


# ------------------------------------------------------------------ reductions

def test_gate_override_one_matches_ungated_bitexact():
    rng = np.random.default_rng(47)
    gated = small_model(seed=10)
    ungated = gated.copy()
    ungated.config["gating"] = False
    for _ in range(5):
        cfg = cloud(rng, n=4)
        e_u, ea_u, f_u = bb.energy_and_forces(cfg, ungated)
        e_g, ea_g, f_g = bb.energy_and_forces(cfg, gated, gate_override=1.0)
        assert e_g == e_u
        assert np.array_equal(ea_g, ea_u)
        assert np.array_equal(f_g, f_u)


def test_gate_override_half_matches_fresh_gate():
    # zero-initialized gate weights sit exactly at alpha = 1/2
    rng = np.random.default_rng(53)
    state = small_model(seed=11)
    cfg = cloud(rng, n=4)
    e_default, _, f_default = bb.energy_and_forces(cfg, state)
    e_half, _, f_half = bb.energy_and_forces(cfg, state, gate_override=0.5)
    assert e_half == e_default
    assert np.array_equal(f_half, f_default)


def test_relabeling_identical_atoms_keeps_energy_bits():
    rng = np.random.default_rng(59)
    state = small_model(seed=12)
    # sparse chain: every accumulation has at most two summands
    chain = bb.AtomicConfiguration(
        species=np.full(5, 6),
        positions=np.array([[0.0, 0, 0], [1.3, 0.2, 0], [2.9, -0.1, 0.3], [4.4, 0.5, -0.2], [6.1, 0, 0]]),
    )
    sparse = state.copy()
    sparse.config["cutoff"] = 2.0
    e0 = bb.energy(chain, sparse)[0]
    for _ in range(10):
        p = rng.permutation(5)
        shuffled = bb.AtomicConfiguration(species=chain.species[p], positions=chain.positions[p])
        assert bb.energy(shuffled, sparse)[0] == e0

    dense = cloud(rng, n=6)
    e0 = bb.energy(dense, state)[0]
    for _ in range(10):
        p = rng.permutation(6)
        shuffled = bb.AtomicConfiguration(species=dense.species[p], positions=dense.positions[p])
        assert bb.energy(shuffled, state)[0] == e0


def test_positional_embedding_ignored_when_disabled():
    rng = np.random.default_rng(61)
    state = small_model(seed=13, positional_encoding=False)
    cfg = cloud(rng, n=4)
    e0, _, f0 = bb.energy_and_forces(cfg, state)
    perturbed = state.copy()
    for t in range(state.config["layers"]):
        perturbed.params[f"layer{t}.attn.pos"] = rng.normal(size=(32, 8))
    e1, _, f1 = bb.energy_and_forces(cfg, perturbed)
    assert e1 == e0
    assert np.array_equal(f1, f0)


# --------------------------------------------------------------------- forces

def test_forces_match_finite_differences():
    rng = np.random.default_rng(67)
    state = small_model(seed=14)
    for _ in range(3):
        cfg = cloud(rng, n=4)

        def etot(flat):
            c = bb.AtomicConfiguration(species=cfg.species, positions=flat.reshape(4, 3))
            return np.asarray(bb.energy(c, state)[0])

        f = bb.energy_and_forces(cfg, state)[2].ravel()
        fd = -central_diff(etot, cfg.positions.ravel(), step=1e-4)
        big = np.abs(f) > 1e-6
        assert big.any()
        assert np.max(np.abs(f[big] - fd[big]) / np.abs(f[big])) < 1e-5


def test_forces_flow_through_species_boundaries():
    # mixed species exercise embedding gathers in the backward pass
    state = small_model(seed=15)
    cfg = bb.AtomicConfiguration(
        species=np.array([1, 6, 1]),
        positions=np.array([[0.0, 0, 0], [1.1, 0, 0], [1.7, 1.0, 0.2]]),
    )

    def etot(flat):
        c = bb.AtomicConfiguration(species=cfg.species, positions=flat.reshape(3, 3))
        return np.asarray(bb.energy(c, state)[0])

    f = bb.energy_and_forces(cfg, state)[2].ravel()
    fd = -central_diff(etot, cfg.positions.ravel(), step=1e-4)
    assert np.allclose(f, fd, rtol=1e-5, atol=1e-8)


# -------------------------------------------------------------------- batching

def test_batch_graph_matches_single_configurations():
    rng = np.random.default_rng(71)
    state = small_model(seed=16)
    configs = [cloud(rng, n=n) for n in (3, 5, 4)]
    batch = bb.batch_graph(configs, state)
    singles = [bb.energy(c, state)[0] for c in configs]
    assert np.allclose(batch.energies.value, singles, rtol=1e-12, atol=1e-13)
    assert np.array_equal(batch.n_atoms, [3, 5, 4])

    (g,) = ad.grad(ad.sum_(batch.energies), [batch.positions], allow_unused=True)
    forces_batched = -g.value
    start = 0
    for c in configs:
        single = bb.energy_and_forces(c, state)[2]
        assert np.allclose(forces_batched[start : start + c.n_atoms], single, rtol=1e-10, atol=1e-12)
        start += c.n_atoms


def test_batch_graph_with_parameter_leaves_reaches_all_trainables():
    rng = np.random.default_rng(73)
    state = small_model(seed=17, layers=1)
    # zero gate weights block the only path into the attention stack, so
    # nothing behind them would train on the first step; randomize them
    state.params["layer0.attn.gate_w"] = rng.uniform(-0.5, 0.5, 8)
    pnodes = {k: ad.leaf(v) for k, v in state.params.items()}
    batch = bb.batch_graph([cloud(rng, n=3)], state, params=pnodes)
    loss = ad.sum_(ad.mul(batch.energies, batch.energies))
    names = sorted(pnodes)
    grads = ad.grad(loss, [pnodes[k] for k in names], allow_unused=True)
    got = {k: g.value for k, g in zip(names, grads)}
    # higher-order mixing matrices only touch non-scalar blocks, which the
    # scalar readout never consumes; everything else must receive signal
    for k, g in got.items():
        if ".mix1" in k or ".mix2" in k:
            assert np.all(g == 0.0), k
        else:
            assert np.any(g != 0.0), k


def test_field_is_built_once_per_call_and_only_for_the_attention(monkeypatch):
    calls = []
    grid_field = field.grid_field
    monkeypatch.setattr(field, "grid_field", lambda *args: calls.append(1) or grid_field(*args))
    state = small_model(seed=2, layers=3)
    config = cloud(np.random.default_rng(3))
    bb.energy_and_forces(config, state)
    assert len(calls) == 1  # shared by the three layers
    bb.energy_and_forces(config, state, gate_override=1.0)
    bb.energy(config, bb.ModelState(dict(state.config, gating=False), state.params))
    assert len(calls) == 1  # clamped and ungated models never read it


@pytest.mark.parametrize("key", ["embed", "readout", "layer0.radial", "layer0.attn.pos"])
def test_non_finite_parameter_is_named(key):
    state = small_model(seed=3, random_gate=True)
    for gating in (True, False):
        state.config["gating"] = gating
        state.params[key] = state.params[key].copy()
        state.params[key].flat[0] = np.nan
        with pytest.raises(ValueError, match=f"non-finite values in parameter '{key}'"):
            bb.energy(cloud(np.random.default_rng(1)), state)


@pytest.mark.filterwarnings("error")
def test_coincident_atoms_raise_degenerate_geometry_naming_both():
    state = small_model(seed=4)
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    config = bb.AtomicConfiguration(species=np.full(3, 6), positions=pos)
    with pytest.raises(field.DegenerateGeometryError, match="atoms 1 and 2 coincide"):
        bb.energy(config, state)


def test_batch_graph_rejects_empty():
    state = small_model()
    with pytest.raises(ValueError):
        bb.batch_graph([], state)


# --------------------------------------------------------- gate trace, regrid

def test_model_edge_gates_reports_per_layer_alpha():
    rng = np.random.default_rng(91)
    state = small_model(seed=21, layers=2, random_gate=True)
    config = cloud(rng, n=4)
    edges, trace = bb.model_edge_gates(config, state)
    assert len(trace) == 2
    ne = edges.shape[0]
    for rec in trace:
        assert rec["alpha"].shape == (ne,)
        assert rec["pooled_norm"].shape == (ne,)
        assert np.all((rec["alpha"] > 0.0) & (rec["alpha"] < 1.0))
    # with randomized gate weights the gate actually discriminates edges
    assert np.ptp(trace[0]["alpha"]) > 0.0


def test_model_edge_gates_ungated_reports_unity():
    rng = np.random.default_rng(92)
    state = small_model(seed=22, layers=1, gating=False)
    config = cloud(rng, n=3)
    edges, trace = bb.model_edge_gates(config, state)
    assert np.array_equal(trace[0]["alpha"], np.ones(edges.shape[0]))
    assert np.array_equal(trace[0]["pooled_norm"], np.zeros(edges.shape[0]))


def test_with_grid_preserves_energy_in_ungated_limit():
    # the gate is the only grid-dependent path; with gating off the energy
    # must be exactly the same on any quadrature resolution
    rng = np.random.default_rng(93)
    state = small_model(seed=23, layers=1, gating=False, positional_encoding=False)
    config = cloud(rng, n=4)
    e0, _, f0 = bb.energy_and_forces(config, state)
    moved = bb.with_grid(state, (16, 32))
    assert moved.config["grid"] == (16, 32)
    e1, _, f1 = bb.energy_and_forces(config, moved)
    assert e1 == e0
    assert np.array_equal(f0, f1)
    # the original model is untouched
    assert state.config["grid"] != (16, 32)
    # both models read the one memoized grid of their own size
    assert bb.build_equiangular_grid(*moved.config["grid"]) is bb.build_equiangular_grid(16, 32)
    assert bb.build_equiangular_grid(*state.config["grid"]) is not bb.build_equiangular_grid(*moved.config["grid"])


def test_with_grid_refuses_learned_positional_embedding():
    state = small_model(seed=24, layers=1)
    state.params["layer0.attn.pos"] += 0.1  # pretend training moved it
    with pytest.raises(ValueError, match="positional"):
        bb.with_grid(state, (8, 16))


def test_random_gate_breaks_the_constant_alpha_degeneracy():
    rng = np.random.default_rng(94)
    config = cloud(rng, n=4)
    plain = small_model(seed=25, layers=1)
    probe = small_model(seed=25, layers=1, random_gate=True)
    _, t0 = bb.model_edge_gates(config, plain)
    _, t1 = bb.model_edge_gates(config, probe)
    assert np.all(t0[0]["alpha"] == 0.5)  # zero-init gate is exactly sigmoid(0)
    assert np.ptp(t1[0]["alpha"]) > 1e-6


# ------------------------------------------------ first-order backward pass

def _both_modes(configs, state, gate_override=None):
    batch = bb.batch_graph(configs, state, gate_override=gate_override)
    total = ad.sum_(batch.energies)
    (taped,) = ad.grad(total, [batch.positions], allow_unused=True)
    (plain,) = ad.grad(total, [batch.positions], allow_unused=True, create_graph=False)
    return batch.energies.value, taped.value, plain.value


@pytest.mark.parametrize("case", ["gated", "ungated", "gate_override"])
def test_first_order_forces_are_bitwise_the_taped_forces(case):
    rng = np.random.default_rng(95)
    state = small_model(seed=26, random_gate=True, gating=case != "ungated")
    config = cloud(rng, n=5)
    override = 1.0 if case == "gate_override" else None
    energies, taped, plain = _both_modes([config], state, override)
    assert np.array_equal(taped, plain)
    # energy_and_forces takes the first-order path
    e, _, f = bb.energy_and_forces(config, state, gate_override=override)
    assert e == energies[0]
    assert np.array_equal(f, -taped)


def test_first_order_forces_are_bitwise_the_taped_forces_in_a_batch():
    rng = np.random.default_rng(96)
    state = small_model(seed=27, random_gate=True)
    isolated = bb.AtomicConfiguration(species=np.array([1, 6]), positions=np.array([[0.0, 0, 0], [20.0, 0, 0]]))
    configs = [cloud(rng, n=3), isolated, cloud(rng, n=4)]
    assert neighbor_list(isolated.positions, state.config["cutoff"]).n_edges == 0
    _, taped, plain = _both_modes(configs, state)
    assert np.array_equal(taped, plain)
    e, _, f = bb.energy_and_forces(isolated, state)
    assert e == bb.energy(isolated, state)[0]
    assert np.array_equal(f, np.zeros((2, 3)))
    pred = training.predict([isolated], state)
    assert np.array_equal(pred.energies, [e]) and np.array_equal(pred.forces, f)
    assert np.all(taped[3:5] == 0.0)

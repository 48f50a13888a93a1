"""Equivariant message-passing potential with attention-gated messages.

Node features carry one block per rotation order l up to l_max. Each
layer sends, along every edge, the sender's scalar channels modulated by
learned radial functions and by the real spherical harmonics of the edge
direction; messages are scaled by the spherical-attention gate, summed
over neighbors in ascending edge order, mixed per order, and added as a
residual. Energy reads out the final scalar block plus per-species
reference energies, so it is exactly invariant under rigid motions when
gating is off; gates introduce a controlled, grid-refinable deviation.

Forces are the negative position gradient through the whole pipeline,
including the field, the attention, and the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autodiff as ad
from . import attention as attn_mod
from . import field as field_mod
from .geometry import L_MAX_SUPPORTED, NeighborList, build_equiangular_grid, neighbor_list
# bound under a second name because perfbench/workloads.py wraps
# backbone.taped_harmonics to time it under --trace 1; the rename waits
# for the next change to the benchmark (ROADMAP item 4)
from .geometry import real_spherical_harmonics as taped_harmonics

DEFAULT_CONFIG: dict = {
    "cutoff": 5.0,
    "l_max": 2,
    "layers": 2,
    "channels": 32,
    "n_bessel": 8,
    "envelope_p": 6,
    "grid": (4, 8),
    "d": 16,
    "heads": 1,
    "field_mode": "scalar",
    "gating": True,
    "positional_encoding": True,
    "learnable": True,
    "gate_activation": "logistic",
}


@dataclass
class AtomicConfiguration:
    """One structure: atomic numbers, positions, optional labels."""

    species: np.ndarray  # (n,) atomic numbers
    positions: np.ndarray  # (n, 3) Angstrom
    energy: float | None = None
    forces: np.ndarray | None = None
    extra: dict = dc_field(default_factory=dict)  # passthrough comment fields

    def __post_init__(self):
        self.species = np.asarray(self.species, dtype=int)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.species.ndim != 1 or self.positions.shape != (len(self.species), 3):
            raise ValueError("species must be (n,) and positions (n, 3)")
        if len(self.species) == 0:
            raise ValueError("configuration must contain at least one atom")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite positions")
        if self.energy is not None:
            self.energy = float(self.energy)
        if self.forces is not None:
            self.forces = np.asarray(self.forces, dtype=float)
            if self.forces.shape != self.positions.shape:
                raise ValueError("forces must match positions in shape")

    @property
    def n_atoms(self) -> int:
        return len(self.species)


@dataclass
class ModelState:
    """Model configuration plus a flat name -> array parameter table."""

    config: dict
    params: dict[str, np.ndarray]

    def copy(self) -> "ModelState":
        return ModelState(dict(self.config), {k: v.copy() for k, v in self.params.items()})


def species_vocab(species_numbers) -> list[int]:
    return sorted({int(z) for z in species_numbers})


def new_model(species, seed: int = 0, random_gate: bool = False, **overrides) -> ModelState:
    """Freshly initialized model over a species vocabulary.

    Projections start uniform at 1/sqrt(fan-in), positional embeddings
    N(0, 0.02), gate weights zero (gates open at 0.5), reference
    energies zero until calibrated against a training set. random_gate
    draws nonzero gate weights instead, for probing runs where a
    constant gate would make the measurement vacuous.
    """
    config = dict(DEFAULT_CONFIG)
    unknown = set(overrides) - set(config)
    if unknown:
        raise ValueError(f"unknown model config keys: {sorted(unknown)}")
    config.update(overrides)
    config["species"] = species_vocab(species)
    config["grid"] = tuple(config["grid"])
    config["seed"] = int(seed)
    for key in ("d", "channels", "n_bessel"):
        if config[key] < 1:
            raise ValueError(f"model config key {key!r} must be at least 1, got {config[key]}")
    if not 0 < config["cutoff"] < np.inf:
        raise ValueError(f"model config key 'cutoff' must be positive and finite, got {config['cutoff']}")
    if config["layers"] < 0:
        raise ValueError(f"model config key 'layers' must be non-negative, got {config['layers']}")
    if not 0 <= config["l_max"] <= L_MAX_SUPPORTED:
        raise ValueError(f"model config key 'l_max' must be in [0, {L_MAX_SUPPORTED}], got {config['l_max']}")
    if config["heads"] < 1 or config["d"] % config["heads"]:
        raise ValueError("heads must divide the attention width d")
    if config["gate_activation"] not in attn_mod.GATE_ACTIVATIONS:
        raise ValueError(f"gate_activation must be one of {attn_mod.GATE_ACTIVATIONS}")

    rng = np.random.default_rng(seed)
    ns = len(config["species"])
    c = config["channels"]
    lmax = config["l_max"]
    n_orders = lmax + 1
    nb = config["n_bessel"]
    d_f = field_mod.parse_feature_mode(config["field_mode"])
    grid = build_equiangular_grid(*config["grid"])

    params: dict[str, np.ndarray] = {
        "embed": rng.normal(0.0, 1.0 / np.sqrt(c), size=(ns, c)),
        "ref_energy": np.zeros(ns),
        "readout": rng.normal(0.0, 1.0 / np.sqrt(c), size=c),
    }
    br = 1.0 / np.sqrt(nb)
    bc = 1.0 / np.sqrt(c)
    for t in range(config["layers"]):
        params[f"layer{t}.radial"] = rng.uniform(-br, br, size=(n_orders * c, nb))
        for j in range(n_orders):
            params[f"layer{t}.mix{j}"] = rng.uniform(-bc, bc, size=(c, c))
        attn = attn_mod.init_params(rng, config["d"], c, d_f, grid.n_points, random_gate=random_gate)
        params.update((f"layer{t}.attn.{n}", attn[n]) for n in attn_mod.PARAM_NAMES)
    return ModelState(config, params)


def model_grid(state: ModelState):
    return build_equiangular_grid(*state.config["grid"])


def param_nodes(state: ModelState) -> dict[str, ad.Node]:
    return {k: ad.leaf(v) for k, v in state.params.items()}


def radial_basis(r, r_c: float, n: int, envelope_p: int | None = 6):
    """Sine Bessel basis sqrt(2/r_c) sin(m pi r / r_c)/r times a cutoff envelope.

    The polynomial envelope u(x) = 1 - (p+1)(p+2)/2 x^p + p(p+2) x^(p+1)
    - p(p+1)/2 x^(p+2) equals 1 at 0 and vanishes to second order at the
    cutoff; ``envelope_p=None`` disables it. Values are exactly zero for
    r >= r_c. Accepts any batch shape; returns (..., n).
    """
    if n < 1:
        raise ValueError("need at least one basis function")
    if r_c <= 0:
        raise ValueError("cutoff must be positive")
    r_val = ad.value_of(r)
    if np.any(r_val <= 0):
        raise ValueError("radial basis requires r > 0")
    rr = ad.reshape(r, np.shape(r_val) + (1,))
    m = np.arange(1, n + 1, dtype=float)
    b = ad.div(ad.mul(ad.sin(ad.mul(rr, m * (np.pi / r_c))), np.sqrt(2.0 / r_c)), rr)
    if envelope_p is not None:
        p = int(envelope_p)
        x = ad.mul(rr, 1.0 / r_c)
        xp = ad.pow_const(x, p)
        u = ad.add(
            ad.add(1.0, ad.mul(xp, -(p + 1) * (p + 2) / 2.0)),
            ad.add(
                ad.mul(ad.mul(xp, x), float(p * (p + 2))),
                ad.mul(ad.mul(xp, ad.mul(x, x)), -p * (p + 1) / 2.0),
            ),
        )
        b = ad.mul(b, u)
    inside = np.broadcast_to(ad.value_of(rr) < r_c, np.shape(ad.value_of(b)))
    return ad.where_mask(inside, b, np.zeros(()))


def _species_index(species: np.ndarray, vocab: list[int]) -> np.ndarray:
    varr = np.asarray(vocab)
    idx = np.searchsorted(varr, species)
    bad = (idx >= len(varr)) | (varr[np.clip(idx, 0, len(varr) - 1)] != species)
    if np.any(bad):
        raise ValueError(f"species {sorted(set(species[bad].tolist()))} not in model vocabulary {vocab}")
    return idx


def _forward_blocks(
    positions,
    species_idx: np.ndarray,
    edges: np.ndarray,
    cfg: dict,
    params: dict,
    gate_override: float | None = None,
    gate_trace: list | None = None,
    l_out: int = 0,
) -> dict:
    """Feature blocks l = 0..l_out after all layers.

    Each layer reads only the previous layer's scalars, so the blocks
    above l_out are never built. Nodes when the positions or any
    parameter used are nodes, plain arrays otherwise. Raises a ValueError
    naming the first non-finite parameter, and DegenerateGeometryError
    naming the atoms of an edge shorter than field.DEGENERATE_SEPARATION.
    """
    # one isfinite over the whole table: per-array numpy calls cost about
    # four times as much, a visible share of a small molecule's call
    values = [ad.value_of(v) for v in params.values()]
    if not np.isfinite(np.concatenate([np.ravel(v) for v in values])).all():
        key = next(k for k, v in zip(params, values) if not np.isfinite(v).all())
        raise ValueError(f"non-finite values in parameter {key!r}")
    n = len(species_idx)
    lmax = cfg["l_max"]
    c = cfg["channels"]
    grid = build_equiangular_grid(*cfg["grid"])

    h = {0: ad.reshape(ad.take(params["embed"], (species_idx,)), (n, 1, c))}
    for l in range(1, l_out + 1):
        h[l] = np.zeros((n, 2 * l + 1, c))

    recv, send = edges[:, 0], edges[:, 1]
    ne = len(edges)
    xi = ad.take(positions, (recv,))
    xj = ad.take(positions, (send,))
    rvec = ad.sub(xj, xi)
    r = ad.norm(rvec, axis=-1)  # (E,)
    r_val = ad.value_of(r)
    if np.any(r_val <= field_mod.DEGENERATE_SEPARATION):
        e = int(np.argmin(r_val))
        raise field_mod.DegenerateGeometryError(
            f"atoms {edges[e, 0]} and {edges[e, 1]} coincide: separation {r_val[e]:.3e} "
            f"at or below {field_mod.DEGENERATE_SEPARATION}"
        )
    rhat = ad.div(rvec, ad.reshape(r, (ne, 1)))
    ylm = taped_harmonics(l_out, rhat)  # (E, (l_out+1)^2)
    basis = radial_basis(r, cfg["cutoff"], cfg["n_bessel"], cfg["envelope_p"])
    # the edge field depends on positions alone: once per call, and
    # not at all when no layer runs the attention
    gated = cfg["gating"] and gate_override is None
    if gated:
        feats = field_mod.field_features(*field_mod.grid_field(xi, xj, grid), cfg["field_mode"])

    for t in range(cfg["layers"]):
        radial = ad.matmul(basis, ad.transpose(params[f"layer{t}.radial"]))
        radial = ad.reshape(radial, (ne, lmax + 1, c))
        scalars = ad.reshape(h[0], (n, c))
        s_j = ad.reshape(ad.take(scalars, (send,)), (ne, 1, c))

        alpha = pooled = None
        if gated:
            alpha, pooled = attn_mod.edge_gate(
                feats, ad.take(scalars, (recv,)), ad.take(scalars, (send,)), grid,
                {name: params[f"layer{t}.attn.{name}"] for name in attn_mod.PARAM_NAMES}, cfg,
            )
        elif cfg["gating"]:
            alpha = np.full(ne, float(gate_override))
        if gate_trace is not None:
            gate_trace.append({
                "alpha": np.ones(ne) if alpha is None else np.array(ad.value_of(alpha), dtype=float),
                "pooled_norm": np.zeros(ne) if pooled is None else np.linalg.norm(ad.value_of(pooled), axis=-1),
            })

        new_h = {}
        for j in range(l_out + 1):
            yj = ad.reshape(ad.take(ylm, (slice(None), slice(j * j, (j + 1) * (j + 1)))), (ne, 2 * j + 1, 1))
            msg = ad.mul(ad.mul(ad.take(radial, (slice(None), slice(j, j + 1))), s_j), yj)
            if alpha is not None:
                msg = ad.mul(msg, ad.reshape(alpha, (ne, 1, 1)))
            agg = ad.segment_sum(msg, recv, n)  # ascending edge order
            new_h[j] = ad.add(h[j], ad.matmul(agg, ad.transpose(params[f"layer{t}.mix{j}"])))
        h = new_h
    return h


def _forward_atom_energies(
    positions,
    species_idx: np.ndarray,
    edges: np.ndarray,
    cfg: dict,
    params: dict,
    gate_override: float | None = None,
):
    """Per-atom energies (n,): linear readout of scalars plus references."""
    n, c = len(species_idx), cfg["channels"]
    h = _forward_blocks(positions, species_idx, edges, cfg, params, gate_override)
    scalars = ad.reshape(h[0], (n, c))
    # broadcast-multiply + per-row sum instead of a matvec: each atom's
    # readout then never depends on where its row sits in the batch
    e_atom = ad.sum_(ad.mul(scalars, params["readout"]), axis=-1)
    return ad.add(e_atom, ad.take(params["ref_energy"], (species_idx,)))


def _prep(config: AtomicConfiguration, state: ModelState):
    idx = _species_index(config.species, state.config["species"])
    return idx, neighbor_list(config.positions, state.config["cutoff"])


def energy(config: AtomicConfiguration, state: ModelState):
    """Total energy and per-atom contributions (floats, no gradients).

    The total is an exactly rounded sum of per-atom terms, so relabeling
    identical atoms cannot change it through accumulation order.
    """
    idx, nl = _prep(config, state)
    e_atom = _forward_atom_energies(config.positions, idx, nl.edges, state.config, state.params)
    return float(ad.sum_exact(e_atom)), e_atom


def energy_and_forces(config: AtomicConfiguration, state: ModelState, gate_override: float | None = None):
    """Total energy, per-atom energies, and forces from one reverse pass."""
    idx, nl = _prep(config, state)
    pos = ad.leaf(config.positions)
    e_atom = _forward_atom_energies(pos, idx, nl.edges, state.config, state.params, gate_override)
    total = ad.sum_exact(e_atom)
    (g,) = ad.grad(total, [pos], allow_unused=True, create_graph=False)
    return float(ad.value_of(total)), ad.value_of(e_atom), -g.value


def forces(config: AtomicConfiguration, state: ModelState) -> np.ndarray:
    return energy_and_forces(config, state)[2]


def model_edge_gates(config: AtomicConfiguration, state: ModelState):
    """Gate values for every directed edge, one record per layer.

    Returns (edges, trace); trace[t] is a dict with "alpha" and
    "pooled_norm" arrays aligned to the edge rows. Ungated models report
    all-ones gates (messages pass unscaled) and zero pooled norms.
    """
    idx, nl = _prep(config, state)
    trace: list[dict] = []
    _forward_blocks(config.positions, idx, nl.edges, state.config, state.params, gate_trace=trace)
    return nl.edges, trace


def with_grid(state: ModelState, grid) -> ModelState:
    """The same parameters evaluated on a different attention grid.

    Only models without a learned positional signal transfer cleanly: a
    per-point embedding has no defined values at new grid points, so this
    refuses to move one and otherwise installs zero rows of the right
    size. Everything else is resolution-independent.
    """
    n_theta, n_phi = int(grid[0]), int(grid[1])
    g = build_equiangular_grid(n_theta, n_phi)
    new = state.copy()
    for t in range(new.config["layers"]):
        key = f"layer{t}.attn.pos"
        if new.config["positional_encoding"] and np.any(new.params[key]):
            raise ValueError(
                "cannot transfer a learned positional embedding to a new grid; "
                "disable positional encoding first"
            )
        new.params[key] = np.zeros((g.n_points, new.config["d"]))
    new.config["grid"] = (n_theta, n_phi)
    return new


def node_features(config: AtomicConfiguration, state: ModelState) -> dict[int, np.ndarray]:
    """Final per-atom feature blocks after all layers, {l: (n, 2l+1, channels)}."""
    idx, nl = _prep(config, state)
    blocks = _forward_blocks(config.positions, idx, nl.edges, state.config, state.params,
                             l_out=state.config["l_max"])
    return {l: np.asarray(b) for l, b in blocks.items()}


@dataclass
class BatchGraph:
    """Taped multi-structure graph for training.

    energies holds one total per structure in input order; positions is
    the leaf over the concatenated coordinates, so one gradient call
    yields forces for every structure at once.
    """

    energies: object  # (n_structures,); plain when the model has no layers and no parameter is a node
    positions: ad.Node  # leaf, (total_atoms, 3)
    n_atoms: np.ndarray  # (n_structures,)
    atom_graph: np.ndarray  # (total_atoms,) structure id per atom


def batch_graph(
    configs: list[AtomicConfiguration],
    state: ModelState,
    params: dict | None = None,
    neighbor_lists: list[NeighborList] | None = None,
    gate_override: float | None = None,
) -> BatchGraph:
    """Concatenate structures into one taped forward over shared parameters.

    params may be a table of autodiff leaves so that parameter gradients
    flow; neighbor lists may be precomputed once per structure and reused
    across steps since geometries are fixed during training.
    """
    if not configs:
        raise ValueError("empty batch")
    if neighbor_lists is None:
        neighbor_lists = [neighbor_list(c.positions, state.config["cutoff"]) for c in configs]
    if params is None:
        params = state.params

    counts = np.array([c.n_atoms for c in configs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    species = np.concatenate([c.species for c in configs])
    idx = _species_index(species, state.config["species"])
    edges = np.concatenate([nl.edges + off for nl, off in zip(neighbor_lists, offsets)], axis=0)
    atom_graph = np.repeat(np.arange(len(configs)), counts)

    pos = ad.leaf(np.concatenate([c.positions for c in configs], axis=0))
    e_atom = _forward_atom_energies(pos, idx, edges, state.config, params, gate_override)
    totals = ad.segment_sum(e_atom, atom_graph, len(configs), exact=True)
    return BatchGraph(totals, pos, counts, atom_graph)

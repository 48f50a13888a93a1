"""Continuous attention over the sphere, discretized by grid quadrature.

Per edge, queries/keys/values live on the quadrature grid: each combines
a projection of a node feature vector, a projection of the edge field
features, and (optionally) a per-grid-point positional embedding that is
anchored in the global frame and deliberately does not rotate with the
inputs. The attention output is a softmax-weighted quadrature average;
pooling it over the grid and squashing yields one gate scalar per edge.

With zero-initialized gate weights every gate starts at 0.5. Everything
runs on autodiff nodes; plain-array inputs give plain-array outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import field as field_mod
from .geometry import SphericalGrid, neighbor_list

if TYPE_CHECKING:
    from .backbone import AtomicConfiguration

FOUR_PI = 4.0 * np.pi

GATE_ACTIVATIONS = ("logistic", "sinusoidal")


class NumericalOverflowError(FloatingPointError):
    """Raised when attention logits stop being finite."""


def _val(x):
    return x.value if isinstance(x, ad.Node) else np.asarray(x, dtype=float)


@dataclass
class MaraParams:
    """Projections, positional embeddings, and gate weights for one layer.

    Node projections map d_h features and field projections d_f features
    into the attention width d; ``pos`` holds one d-vector per grid
    point, shared by queries, keys, and values.
    """

    wq_node: object  # (d, d_h)
    wk_node: object
    wv_node: object
    wq_field: object  # (d, d_f)
    wk_field: object
    wv_field: object
    pos: object  # (n_grid, d)
    gate_w: object  # (d,)
    gate_b: object  # ()
    heads: int = 1
    positional_encoding: bool = True
    learnable: bool = True
    gate_activation: str = "logistic"

    def __post_init__(self):
        d = self.d
        for name in ("wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field", "pos", "gate_w", "gate_b"):
            v = _val(getattr(self, name))
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite values in {name}")
        if any(_val(getattr(self, n)).shape[0] != d for n in ("wk_node", "wv_node", "wq_field", "wk_field", "wv_field")):
            raise ValueError("projection output widths disagree")
        if _val(self.pos).shape[1] != d or _val(self.gate_w).shape != (d,):
            raise ValueError("positional embedding and gate width must match d")
        if self.heads < 1 or d % self.heads != 0:
            raise ValueError("heads must divide the attention width")
        if self.gate_activation not in GATE_ACTIVATIONS:
            raise ValueError(f"gate_activation must be one of {GATE_ACTIVATIONS}")

    @property
    def d(self) -> int:
        return _val(self.wq_node).shape[0]

    @property
    def d_h(self) -> int:
        return _val(self.wq_node).shape[1]

    @property
    def d_f(self) -> int:
        return _val(self.wq_field).shape[1]

    @property
    def n_grid(self) -> int:
        return _val(self.pos).shape[0]


def init_mara_params(
    rng: np.random.Generator,
    d: int,
    d_h: int,
    d_f: int,
    n_grid: int,
    heads: int = 1,
    positional_encoding: bool = True,
    learnable: bool = True,
    gate_activation: str = "logistic",
    random_gate: bool = False,
) -> MaraParams:
    """Fresh parameters: uniform projections, N(0, 0.02) embeddings, zero gate.

    The zero gate makes every edge start at alpha = 0.5. ``random_gate``
    draws gate weights like a projection instead; useful when a constant
    gate would make a rotation sweep vacuous.
    """
    bh, bf = 1.0 / np.sqrt(d_h), 1.0 / np.sqrt(d_f)
    u = lambda b, shape: rng.uniform(-b, b, size=shape)
    return MaraParams(
        wq_node=u(bh, (d, d_h)),
        wk_node=u(bh, (d, d_h)),
        wv_node=u(bh, (d, d_h)),
        wq_field=u(bf, (d, d_f)),
        wk_field=u(bf, (d, d_f)),
        wv_field=u(bf, (d, d_f)),
        pos=rng.normal(0.0, 0.02, size=(n_grid, d)),
        gate_w=u(1.0 / np.sqrt(d), d) if random_gate else np.zeros(d),
        gate_b=np.asarray(rng.normal(0.0, 0.5)) if random_gate else np.zeros(()),
        heads=heads,
        positional_encoding=positional_encoding,
        learnable=learnable,
        gate_activation=gate_activation,
    )


@dataclass
class AttentionField:
    """Queries, keys, values per grid point, each (..., n_grid, d)."""

    q: object
    k: object
    v: object

    @property
    def n_grid(self) -> int:
        return _val(self.q).shape[-2]


def _project(h, w, feats, wf, pos) -> ad.Node:
    # h: (..., d_h), feats: (..., G, d_f) -> (..., G, d)
    hq = ad.matmul(ad.reshape(h, h.value.shape[:-1] + (1, h.value.shape[-1])), ad.transpose(w))
    fq = ad.matmul(feats, ad.transpose(wf))
    out = ad.add(hq, fq)
    if pos is not None:
        out = ad.add(out, pos)
    return out


def build_qkv(h_i, h_j, field_feats, params: MaraParams) -> AttentionField:
    """Assemble the per-grid-point attention field for one edge (or batch).

    Queries see the receiving atom's features, keys and values the
    sending atom's; all three share the same field features and the same
    positional embeddings.
    """
    taped = any(isinstance(x, ad.Node) for x in (h_i, h_j, field_feats)) or any(
        isinstance(getattr(params, n), ad.Node)
        for n in ("wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field", "pos")
    )
    hi, hj = ad.as_node(h_i), ad.as_node(h_j)
    feats = ad.as_node(field_feats)
    if feats.value.shape[-1] != params.d_f:
        raise ValueError("field feature width does not match the field projections")
    if feats.value.shape[-2] != params.n_grid:
        raise ValueError("field features and positional embeddings disagree on grid size")
    pos = ad.as_node(params.pos) if params.positional_encoding else None
    q = _project(hi, ad.as_node(params.wq_node), feats, ad.as_node(params.wq_field), pos)
    k = _project(hj, ad.as_node(params.wk_node), feats, ad.as_node(params.wk_field), pos)
    v = _project(hj, ad.as_node(params.wv_node), feats, ad.as_node(params.wv_field), pos)
    if taped:
        return AttentionField(q, k, v)
    return AttentionField(q.value, k.value, v.value)


def spherical_attention(af: AttentionField, grid: SphericalGrid, heads: int = 1):
    """Quadrature-discretized attention output at every grid point.

    out(g_m) = sum_k exp(q_m . k_k / sqrt(d)) w_k v_k /
               sum_k exp(q_m . k_k / sqrt(d)) w_k
    evaluated per head with d the head width; logits are shifted by their
    (detached) row maximum before exponentiation.
    """
    taped = any(isinstance(x, ad.Node) for x in (af.q, af.k, af.v))
    q, k, v = ad.as_node(af.q), ad.as_node(af.k), ad.as_node(af.v)
    g = q.value.shape[-2]
    if g != grid.n_points:
        raise ValueError("attention field does not match the grid size")
    d = q.value.shape[-1]
    if heads < 1 or d % heads:
        raise ValueError("heads must divide the attention width")
    dh = d // heads

    def split(x):  # (..., G, d) -> (..., H, G, dh)
        n = x.value.ndim + 1
        x = ad.reshape(x, x.value.shape[:-1] + (heads, dh))
        return ad.transpose(x, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))

    qh, kh, vh = split(q), split(k), split(v)
    logits = ad.mul(ad.matmul(qh, ad.transpose(kh, tuple(range(kh.value.ndim - 2)) + (kh.value.ndim - 1, kh.value.ndim - 2))), 1.0 / np.sqrt(dh))
    if not np.all(np.isfinite(logits.value)):
        raise NumericalOverflowError("non-finite attention logits")
    shift = ad.constant(np.max(logits.value, axis=-1, keepdims=True))
    e = ad.mul(ad.exp(ad.sub(logits, shift)), ad.constant(grid.weights))
    num = ad.matmul(e, vh)  # (..., H, G, dh)
    den = ad.sum_(e, axis=-1, keepdims=True)
    out = ad.div(num, den)
    n = out.value.ndim
    out = ad.transpose(out, tuple(range(n - 3)) + (n - 2, n - 3, n - 1))
    out = ad.reshape(out, out.value.shape[:-2] + (d,))
    return out if taped else out.value


def pool_attention(attn_out, grid: SphericalGrid):
    """Quadrature mean of the attention output over the grid: (..., d)."""
    taped = isinstance(attn_out, ad.Node)
    a = ad.as_node(attn_out)
    if a.value.shape[-2] != grid.n_points:
        raise ValueError("attention output does not match the grid size")
    w = ad.constant(grid.weights[:, None] / FOUR_PI)
    pooled = ad.sum_(ad.mul(a, w), axis=-2)
    return pooled if taped else pooled.value


def gate_preactivation(pooled, params: MaraParams):
    taped = isinstance(pooled, ad.Node) or isinstance(params.gate_w, ad.Node)
    p = ad.as_node(pooled)
    z = ad.add(ad.sum_(ad.mul(p, ad.as_node(params.gate_w)), axis=-1), ad.as_node(params.gate_b))
    return z if taped else z.value


def gate_activation(z, kind: str):
    if kind == "logistic":
        out = ad.sigmoid(ad.as_node(z))
    elif kind == "sinusoidal":
        out = ad.mul(ad.add(ad.sin(ad.as_node(z)), 1.0), 0.5)
    else:
        raise ValueError(f"gate_activation must be one of {GATE_ACTIVATIONS}")
    return out if isinstance(z, ad.Node) else out.value


def pool_and_gate(attn_out, grid: SphericalGrid, params: MaraParams):
    """Pool the attention output over the grid and squash to a gate in (0, 1)."""
    pooled = pool_attention(attn_out, grid)
    z = gate_preactivation(pooled, params)
    return gate_activation(z, params.gate_activation)


def edge_gates(
    config: "AtomicConfiguration",
    features,
    grid: SphericalGrid,
    params: MaraParams,
    mode: str = "scalar",
    neighbors=None,
    cutoff: float = 5.0,
):
    """Gate value for every ordered edge of the configuration.

    ``features`` holds one d_h row per atom. Edges come from ``neighbors``
    or a fresh neighbor list under ``cutoff``; gates are returned in edge
    order. Raises ValueError when no edges exist.
    """
    nl = neighbors if neighbors is not None else neighbor_list(config.positions, cutoff)
    if nl.n_edges == 0:
        raise ValueError("empty neighbor list: no edges to gate")
    taped = isinstance(features, ad.Node)
    feats_node = ad.as_node(features)
    pos = ad.constant(config.positions)
    recv, send = nl.edges[:, 0], nl.edges[:, 1]
    xi, xj = ad.take(pos, (recv,)), ad.take(pos, (send,))
    f = field_mod.grid_field(xi, xj, grid)
    ff = field_mod.field_features(f, mode)
    af = build_qkv(ad.take(feats_node, (recv,)), ad.take(feats_node, (send,)), ff, params)
    out = spherical_attention(af, grid, heads=params.heads)
    alpha = pool_and_gate(out, grid, params)
    if taped or any(isinstance(getattr(params, n), ad.Node) for n in ("wq_node", "gate_w")):
        return alpha
    return _val(alpha)

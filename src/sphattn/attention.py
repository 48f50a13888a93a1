"""Continuous attention over the sphere, discretized by grid quadrature.

Per edge, queries/keys/values live on the quadrature grid: each combines
a projection of a node feature vector, a projection of the edge field
features, and (optionally) a per-grid-point positional embedding that is
anchored in the global frame and deliberately does not rotate with the
inputs. The attention output is a softmax-weighted quadrature average;
pooling it over the grid and squashing yields one gate scalar per edge.
``edge_gate`` chains these steps and is the one gate path; the backbone
calls it once per layer.

With zero-initialized gate weights every gate starts at 0.5. Every
function is written in autodiff primitives: if any input or parameter
is a node the output is a node, and plain arrays give plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import field as field_mod
from .geometry import SphericalGrid

FOUR_PI = 4.0 * np.pi

GATE_ACTIVATIONS = ("logistic", "sinusoidal")

# the learned arrays of one layer, in MaraParams field order; the backbone
# stores each as "layer{t}.attn.<name>"
PROJECTION_NAMES = ("wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field")
PARAM_NAMES = PROJECTION_NAMES + ("pos", "gate_w", "gate_b")


class NumericalOverflowError(FloatingPointError):
    """Raised when attention logits stop being finite."""


def _val(x):
    return np.asarray(ad.value_of(x), dtype=float)


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
    gate_activation: str = "logistic"

    def __post_init__(self):
        d = self.d
        for name in PARAM_NAMES:
            v = _val(getattr(self, name))
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite values in {name}")
        if any(_val(getattr(self, n)).shape[0] != d for n in PROJECTION_NAMES):
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


def _project(h, w, feats, wf, pos):
    # h: (..., d_h), feats: (..., G, d_f) -> (..., G, d)
    shape = np.shape(ad.value_of(h))
    hq = ad.matmul(ad.reshape(h, shape[:-1] + (1, shape[-1])), ad.transpose(w))
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
    shape = np.shape(ad.value_of(field_feats))
    if shape[-1] != params.d_f:
        raise ValueError("field feature width does not match the field projections")
    if shape[-2] != params.n_grid:
        raise ValueError("field features and positional embeddings disagree on grid size")
    pos = params.pos if params.positional_encoding else None
    q = _project(h_i, params.wq_node, field_feats, params.wq_field, pos)
    k = _project(h_j, params.wk_node, field_feats, params.wk_field, pos)
    v = _project(h_j, params.wv_node, field_feats, params.wv_field, pos)
    return AttentionField(q, k, v)


def spherical_attention(af: AttentionField, grid: SphericalGrid, heads: int = 1):
    """Quadrature-discretized attention output at every grid point.

    out(g_m) = sum_k exp(q_m . k_k / sqrt(d)) w_k v_k /
               sum_k exp(q_m . k_k / sqrt(d)) w_k
    evaluated per head with d the head width; logits are shifted by their
    (detached) row maximum before exponentiation.
    """
    shape = np.shape(ad.value_of(af.q))
    if shape[-2] != grid.n_points:
        raise ValueError("attention field does not match the grid size")
    d = shape[-1]
    if heads < 1 or d % heads:
        raise ValueError("heads must divide the attention width")
    dh = d // heads

    def swap(x, a, b):  # transpose two axes counted from the end
        order = list(range(np.ndim(ad.value_of(x))))
        order[a], order[b] = order[b], order[a]
        return ad.transpose(x, tuple(order))

    def split(x):  # (..., G, d) -> (..., H, G, dh)
        x = ad.reshape(x, np.shape(ad.value_of(x))[:-1] + (heads, dh))
        return swap(x, -3, -2)

    qh, kh, vh = split(af.q), split(af.k), split(af.v)
    logits = ad.mul(ad.matmul(qh, swap(kh, -2, -1)), 1.0 / np.sqrt(dh))
    logits_val = ad.value_of(logits)
    if not np.all(np.isfinite(logits_val)):
        raise NumericalOverflowError("non-finite attention logits")
    shift = np.max(logits_val, axis=-1, keepdims=True)
    e = ad.mul(ad.exp(ad.sub(logits, shift)), grid.weights)
    num = ad.matmul(e, vh)  # (..., H, G, dh)
    den = ad.sum_(e, axis=-1, keepdims=True)
    out = swap(ad.div(num, den), -3, -2)  # (..., G, H, dh)
    return ad.reshape(out, np.shape(ad.value_of(out))[:-2] + (d,))


def pool_attention(attn_out, grid: SphericalGrid):
    """Quadrature mean of the attention output over the grid: (..., d)."""
    if np.shape(ad.value_of(attn_out))[-2] != grid.n_points:
        raise ValueError("attention output does not match the grid size")
    return ad.sum_(ad.mul(attn_out, grid.weights[:, None] / FOUR_PI), axis=-2)


def gate_preactivation(pooled, params: MaraParams):
    return ad.add(ad.sum_(ad.mul(pooled, params.gate_w), axis=-1), params.gate_b)


def gate_activation(z, kind: str):
    if kind == "logistic":
        return ad.sigmoid(z)
    if kind == "sinusoidal":
        return ad.mul(ad.add(ad.sin(z), 1.0), 0.5)
    raise ValueError(f"gate_activation must be one of {GATE_ACTIVATIONS}")


def edge_gate(x_i, x_j, h_i, h_j, grid: SphericalGrid, params: MaraParams, field_mode: str):
    """Gate in (0, 1) and pooled attention output for each edge (i, j).

    x_* are the (..., 3) positions and h_* the (..., d_h) scalar features
    of the receiving and sending atoms, one row per edge. Runs the field,
    its features, Q/K/V, the spherical attention, the grid pooling and
    the gate head; returns (alpha (...,), pooled (..., d)).
    """
    f = field_mod.grid_field(x_i, x_j, grid)
    ff = field_mod.field_features(f, field_mode)
    out = spherical_attention(build_qkv(h_i, h_j, ff, params), grid, heads=params.heads)
    pooled = pool_attention(out, grid)
    alpha = gate_activation(gate_preactivation(pooled, params), params.gate_activation)
    return alpha, pooled

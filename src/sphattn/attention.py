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

import numpy as np

from . import autodiff as ad
from . import field as field_mod
from .geometry import SphericalGrid

FOUR_PI = 4.0 * np.pi

GATE_ACTIVATIONS = ("logistic", "sinusoidal")

# the learned arrays of one layer; the backbone stores each as
# "layer{t}.attn.<name>", and every function here that takes ``p`` reads
# one layer's arrays (or nodes) from a mapping keyed by these names
PROJECTION_NAMES = ("wq_node", "wk_node", "wv_node", "wq_field", "wk_field", "wv_field")
PARAM_NAMES = PROJECTION_NAMES + ("pos", "gate_w", "gate_b")


class NumericalOverflowError(FloatingPointError):
    """Raised when attention logits stop being finite."""


def init_params(
    rng: np.random.Generator, d: int, d_h: int, d_f: int, n_grid: int, random_gate: bool = False
) -> dict:
    """Fresh parameters of one layer, keyed by PARAM_NAMES.

    Node projections are (d, d_h) and field projections (d, d_f), uniform
    at 1/sqrt(fan-in); ``pos`` holds one N(0, 0.02) d-vector per grid
    point, shared by queries, keys, and values. The gate (``gate_w`` (d,),
    ``gate_b`` ()) starts at zero, so every edge starts at alpha = 0.5;
    ``random_gate`` draws it like a projection instead, useful when a
    constant gate would make a rotation sweep vacuous.
    """
    bh, bf = 1.0 / np.sqrt(d_h), 1.0 / np.sqrt(d_f)
    u = lambda b, shape: rng.uniform(-b, b, size=shape)
    p = {n: u(bh, (d, d_h)) for n in PROJECTION_NAMES[:3]}
    p.update((n, u(bf, (d, d_f))) for n in PROJECTION_NAMES[3:])
    p["pos"] = rng.normal(0.0, 0.02, size=(n_grid, d))
    p["gate_w"] = u(1.0 / np.sqrt(d), d) if random_gate else np.zeros(d)
    p["gate_b"] = np.asarray(rng.normal(0.0, 0.5)) if random_gate else np.zeros(())
    return p


def _project(h, w, feats, wf, pos):
    # h: (..., d_h), feats: (..., G, d_f) -> (..., G, d)
    shape = np.shape(ad.value_of(h))
    hq = ad.matmul(ad.reshape(h, shape[:-1] + (1, shape[-1])), ad.transpose(w))
    fq = ad.matmul(feats, ad.transpose(wf))
    out = ad.add(hq, fq)
    if pos is not None:
        out = ad.add(out, pos)
    return out


def build_qkv(h_i, h_j, field_feats, p, positional_encoding: bool):
    """Queries, keys and values per grid point, each (..., G, d).

    Queries see the receiving atom's features, keys and values the
    sending atom's; all three share the same field features and, when
    ``positional_encoding`` is on, the same positional embeddings.
    """
    pos = p["pos"] if positional_encoding else None
    q = _project(h_i, p["wq_node"], field_feats, p["wq_field"], pos)
    k = _project(h_j, p["wk_node"], field_feats, p["wk_field"], pos)
    v = _project(h_j, p["wv_node"], field_feats, p["wv_field"], pos)
    return q, k, v


def spherical_attention(q, k, v, grid: SphericalGrid, heads: int = 1):
    """Quadrature-discretized attention output at every grid point.

    out(g_m) = sum_k exp(q_m . k_k / sqrt(d)) w_k v_k /
               sum_k exp(q_m . k_k / sqrt(d)) w_k
    evaluated per head with d the head width; logits are shifted by their
    (detached) row maximum before exponentiation.
    """
    shape = np.shape(ad.value_of(q))
    if shape[-2] != grid.n_points:
        raise ValueError("queries do not match the grid size")
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

    qh, kh, vh = split(q), split(k), split(v)
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


def gate_preactivation(pooled, p):
    return ad.add(ad.sum_(ad.mul(pooled, p["gate_w"]), axis=-1), p["gate_b"])


def gate_activation(z, kind: str):
    if kind == "logistic":
        return ad.sigmoid(z)
    if kind == "sinusoidal":
        return ad.mul(ad.add(ad.sin(z), 1.0), 0.5)
    raise ValueError(f"gate_activation must be one of {GATE_ACTIVATIONS}")


def edge_gate(x_i, x_j, h_i, h_j, grid: SphericalGrid, p, config: dict):
    """Gate in (0, 1) and pooled attention output for each edge (i, j).

    x_* are the (..., 3) positions and h_* the (..., d_h) scalar features
    of the receiving and sending atoms, one row per edge. Runs the field,
    its features, Q/K/V, the spherical attention, the grid pooling and
    the gate head; ``field_mode``, ``heads``, ``positional_encoding`` and
    ``gate_activation`` come from the model config. Returns
    (alpha (...,), pooled (..., d)).
    """
    r, values = field_mod.grid_field(x_i, x_j, grid)
    ff = field_mod.field_features(r, values, config["field_mode"])
    q, k, v = build_qkv(h_i, h_j, ff, p, config["positional_encoding"])
    pooled = pool_attention(spherical_attention(q, k, v, grid, heads=config["heads"]), grid)
    alpha = gate_activation(gate_preactivation(pooled, p), config["gate_activation"])
    return alpha, pooled

"""Continuous attention over the sphere, discretized by grid quadrature.

Per edge (i, j) and head (width dh, scale s = 1/sqrt(dh)), the query,
key and value at a grid point g combine a projection of a node feature
vector, a projection of the edge field features F_g (d_f wide) and,
optionally, a per-grid-point positional row P_g that is anchored in the
global frame and deliberately does not rotate with the inputs:

    q_g = A + W_qf F_g + P_g,   k_g = C + W_kf F_g + P_g,   v_g = B + W_vf F_g + P_g

with A = W_q h_i, C = W_k h_j and B = W_v h_j. The attention output at g
is sum_g' softmax_g(g') v_g', the softmax taken over g' with quadrature
weights w_g', and the edge's pooled vector is the quadrature mean of the
output over g. None of these per-grid-point vectors is ever built; the
code evaluates the same quantities in exact low-rank form.

*Logits.* Terms of s q_g.k_g' that are constant along g' cancel in the
softmax over g', so only

    q_g.k_g' ~ L_g.R_g' + r_g' + P_g.P_g'
    L_g = [F_g W_qf^T W_kf + P_g W_kf, F_g],   R_g' = [F_g', P_g' W_qf]
    r_g' = (W_kf^T A).F_g' + A.P_g'

is kept: two factors 2 d_f wide (d_f without the positional rows, where
only F_g W_qf^T W_kf F_g' + (W_kf^T A).F_g' is left), one per-edge row r
and one (G, G) bias shared by every edge. C enters only through q_g.C,
which does not depend on g', so ``wk_node`` drops out of the model: it
is kept in the parameter table, but nothing reads it and its gradient
is exactly zero.

*Values.* Pooling commutes with the value sum, so the softmax is reduced
to one distribution per edge and head, pi_g' = sum_g (w_g/4 pi)
softmax_g(g'), which sums to 1, before any value is touched:

    pooled = B + W_vf (sum_g' pi_g' F_g') + sum_g' pi_g' P_g'

``build_qkv`` builds the factors and the value terms, ``spherical_attention``
the distribution pi, ``pool_attention`` the pooled vector, and the gate
head squashes it to one scalar per edge. ``edge_gate`` chains these steps
and is the one gate path; the backbone calls it once per layer.

*The softmax as two primitives.* The only (E, H, G, G) arrays are in
``spherical_attention``, which packs q and k on their last axis and runs
two autodiff primitives with hand-written VJPs (ct is the incoming
cotangent):

    logit_exp(qk, bias):  e = exp(q k^T + bias - rowmax), in one buffer
        VJP:  dl = ct * e,  d[q, k] = [dl k, dl^T q],  d bias = sum of dl
    pool_softmax(e, w):   pi_g' = w_g' sum_g c_g e(g, g'),
                          den = e w,  c = (w / 4 pi) / den
        VJP:  de(g, g') = c_g (u_g' - (s_g / den_g) w_g'),  u = ct * w,  s = e u

so e is the one (E, H, G, G) array a layer leaves on the tape. The
pool_softmax VJP forms den again from e (one matrix-vector product) and
writes de as a single rank-2 product, and dl is formed once for both
halves of the pack. Both VJPs are written in autodiff primitives, so
under ``create_graph=True`` they are taped and the trainer's force loss
differentiates through them again. Recomputing e in the backward pass
instead, whole with a low-rank backward or in edge blocks so that no
(E, G, G) array exists at once, would hold less memory, but on a 2-core
machine it made a training step 29% slower (low-rank) and 35-80% slower
(blocked), so e stays on the tape whole.

With zero-initialized gate weights every gate starts at 0.5. Every
function is written in autodiff primitives: if any input or parameter
is a node the output is a node, and plain arrays give plain arrays.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
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

    ``wk_node`` is drawn but mathematically inert: the key's node term is
    constant along the softmax axis and cancels (see the module
    docstring). It stays so that checkpoints and the draws of every later
    array keep their layout.
    """
    bh, bf = 1.0 / np.sqrt(d_h), 1.0 / np.sqrt(d_f)
    u = lambda b, shape: rng.uniform(-b, b, size=shape)
    p = {n: u(bh, (d, d_h)) for n in PROJECTION_NAMES[:3]}
    p.update((n, u(bf, (d, d_f))) for n in PROJECTION_NAMES[3:])
    p["pos"] = rng.normal(0.0, 0.02, size=(n_grid, d))
    p["gate_w"] = u(1.0 / np.sqrt(d), d) if random_gate else np.zeros(d)
    p["gate_b"] = np.asarray(rng.normal(0.0, 0.5)) if random_gate else np.zeros(())
    return p


def _heads_first(x, heads: int):
    # (n, H*dh) -> (H, n, dh): one matrix per head, with rows over edges or
    # grid points, so products and their cotangents reduce over them in BLAS
    n, d = np.shape(ad.value_of(x))
    return ad.transpose(ad.reshape(x, (n, heads, d // heads)), (1, 0, 2))


def _swap_last(x):
    n = np.ndim(ad.value_of(x))
    return ad.transpose(x, tuple(range(n - 2)) + (n - 1, n - 2))


def build_qkv(h_i, h_j, field_feats, p, positional_encoding: bool, heads: int):
    """Low-rank logit factors and value terms of every head.

    h_i (E, d_h) are the receiving atoms' features, h_j the sending
    atoms', and ``field_feats`` (E, G, d_f) the edge field features.
    Returns (q, k, bias, v):

    * q, k (E, H, G, m): per-head factors whose products q_g.k_g' plus
      ``bias`` equal the scaled logits s q_g.k_g' up to a constant along
      g'. q is [s L_g, s] and k is [R_g', r_g'] in the module docstring's
      notation, so m = 2 d_f + 1 with positional encoding and d_f + 1
      without.
    * bias: the (H, G, G) term s P_g.P_g' shared by every edge, or None
      when ``positional_encoding`` is off.
    * v: (B, F, W_vf, P), the terms of the value B + W_vf F_g + P_g: the
      sender's projection (E, d), the field features, the (d, d_f)
      field projection and the (G, d) positional rows, None when off.
    """
    ne, g, d_f = np.shape(ad.value_of(field_feats))
    d = np.shape(ad.value_of(p["wq_field"]))[0]
    if heads < 1 or d % heads:
        raise ValueError("heads must divide the attention width")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    feats = ad.reshape(field_feats, (ne, 1, g, d_f))
    feats_h = ad.broadcast_to(feats, (ne, heads, g, d_f))
    w_qf = ad.reshape(p["wq_field"], (heads, dh, d_f))
    w_kf = ad.reshape(p["wk_field"], (heads, dh, d_f))
    a = _heads_first(ad.matmul(h_i, ad.transpose(p["wq_node"])), heads)  # (H, E, dh)

    # r_g' = (W_kf^T A).F_g' [+ A.P_g'], one row per edge and head
    row = ad.matmul(ad.transpose(ad.matmul(a, w_kf), (1, 0, 2)), _swap_last(field_feats))  # (E, H, G)
    left = ad.matmul(feats, ad.matmul(_swap_last(w_qf), w_kf))  # F_g W_qf^T W_kf
    right = feats_h
    pos = bias = None
    if positional_encoding:
        pos = p["pos"]
        pos_h = _heads_first(pos, heads)  # (H, G, dh)
        row = ad.add(row, ad.transpose(ad.matmul(a, _swap_last(pos_h)), (1, 0, 2)))
        left = ad.concat([ad.add(left, ad.matmul(pos_h, w_kf)), feats_h], axis=-1)
        right = ad.concat([feats_h, ad.broadcast_to(ad.matmul(pos_h, w_qf), (ne, heads, g, d_f))], axis=-1)
        bias = ad.mul(ad.matmul(pos_h, _swap_last(pos_h)), scale)
    q = ad.mul(ad.concat([left, np.ones((ne, heads, g, 1))], axis=-1), scale)
    k = ad.concat([right, ad.reshape(row, (ne, heads, g, 1))], axis=-1)
    v = (ad.matmul(h_j, ad.transpose(p["wv_node"])), field_feats, p["wv_field"], pos)
    return q, k, bias, v


def _logit_exp(qk, bias=None):
    m = qk.shape[-1] // 2
    e = qk[..., :m] @ np.swapaxes(qk[..., m:], -1, -2)
    if bias is not None:
        e += bias
    if not np.all(np.isfinite(e)):
        raise NumericalOverflowError("non-finite attention logits")
    e -= np.max(e, axis=-1, keepdims=True)
    return np.exp(e, out=e)


def _logit_exp_vjp_qk(ct, e, qk, *bias):
    # one dl serves both halves of the pack: [dl k, dl^T q]
    m = np.shape(ad.value_of(qk))[-1] // 2
    dl = ad.mul(ct, e)
    q, k = ad.take(qk, (..., slice(0, m))), ad.take(qk, (..., slice(m, None)))
    return ad.concat([ad.matmul(dl, k), ad.matmul(_swap_last(dl), q)], axis=-1)


def _logit_exp_vjp_bias(ct, e, qk, bias):
    return ad.sum_to(ad.mul(ct, e), np.shape(ad.value_of(bias)))


def logit_exp(qk, bias=None):
    """Row-shifted exponentials exp(q k^T + bias - rowmax) of packed factors.

    ``qk`` (..., G, 2m) holds the query factors q in its first m columns
    and the key factors k in its last m; ``bias`` broadcasts to the
    logits' shape (..., G, G). The logits, the bias add, the shift by
    their (detached) row maximum and the exponential share one buffer.
    Raises NumericalOverflowError when a logit is not finite.
    """
    args = (qk,) if bias is None else (qk, bias)
    return ad.apply("logit_exp", _logit_exp, (_logit_exp_vjp_qk, _logit_exp_vjp_bias)[:len(args)], *args)


def _pool_softmax(e, w):
    den = e @ w[:, None]  # (..., G, 1)
    c = (w / FOUR_PI)[:, None] / den
    return ((np.swapaxes(c, -1, -2) @ e) * w)[..., 0, :]


def _pool_softmax_vjp(ct, e, w):
    # de(g, g') = c_g u_g' - c_g (s_g / den_g) w_g', written as one rank-2
    # product: a batched (G, 2) @ (2, G) matmul writes the (G, G) block
    # once, where broadcasting would take three passes over it
    lead, g = np.shape(ad.value_of(e))[:-2], len(w)
    den = ad.matmul(e, w[:, None])
    c = ad.div((w / FOUR_PI)[:, None], den)
    u = ad.reshape(ad.mul(ct, w), lead + (1, g))
    s = ad.matmul(e, _swap_last(u))
    left = ad.concat([c, ad.neg(ad.div(ad.mul(c, s), den))], axis=-1)
    right = ad.concat([u, np.broadcast_to(w, lead + (1, g))], axis=-2)
    return ad.matmul(left, right)


def pool_softmax(e, w):
    """Quadrature-pooled softmax of the exponentials ``e`` (..., G, G): (..., G).

    pi(g') = w_g' sum_g c_g e(g, g') with den_g = sum_g' e(g, g') w_g' and
    c_g = (w_g / 4 pi) / den_g, for quadrature weights ``w`` (G,).
    """
    return ad.apply("pool_softmax", lambda e: _pool_softmax(e, w),
                    (lambda ct, out, e: _pool_softmax_vjp(ct, e, w),), e)


def _broadcast_lead(x, lead):
    shape = np.shape(ad.value_of(x))
    return x if shape[:-2] == lead else ad.broadcast_to(x, lead + shape[-2:])


def spherical_attention(q, k, grid: SphericalGrid, bias=None):
    """Quadrature-pooled attention distribution over the grid: (..., G).

    With logits l(g, g') = q_g.k_g' (+ bias) for factors q, k (..., G, m)
    whose leading axes broadcast, and a bias broadcastable to (..., G, G),
    returns

        pi(g') = sum_g (w_g / 4 pi) exp(l(g, g')) w_g' / sum_g'' exp(l(g, g'')) w_g''

    the per-query softmaxes with quadrature weights, averaged over the
    queries with the quadrature mean. It sums to 1, so a value field
    v_g' pools to sum_g' pi(g') v_g'. Logits are shifted by their
    (detached) row maximum before exponentiation.
    """
    if np.shape(ad.value_of(k))[-2] != grid.n_points:
        raise ValueError("keys do not match the grid size")
    lead = np.broadcast_shapes(np.shape(ad.value_of(q))[:-2], np.shape(ad.value_of(k))[:-2])
    qk = ad.concat([_broadcast_lead(q, lead), _broadcast_lead(k, lead)], axis=-1)
    return pool_softmax(logit_exp(qk, bias), grid.weights)


def pool_attention(pi, v):
    """Pooled attention output B + W_vf (pi F) + pi P of every edge: (E, d).

    ``pi`` (E, H, G) is spherical_attention's distribution per head and
    ``v`` the value terms (B, F, W_vf, P) that build_qkv returns; head h
    pools the h-th dh-wide slice of W_vf's rows and of P's columns.
    """
    b, feats, w_vf, pos = v
    ne, heads, _ = np.shape(ad.value_of(pi))
    d, d_f = np.shape(ad.value_of(w_vf))
    pf = ad.transpose(ad.matmul(pi, feats), (1, 0, 2))  # (H, E, d_f)
    out = ad.matmul(pf, _swap_last(ad.reshape(w_vf, (heads, d // heads, d_f))))  # (H, E, dh)
    if pos is not None:
        out = ad.add(out, ad.matmul(ad.transpose(pi, (1, 0, 2)), _heads_first(pos, heads)))
    return ad.add(ad.reshape(ad.transpose(out, (1, 0, 2)), (ne, d)), b)


def gate_preactivation(pooled, p):
    return ad.add(ad.sum_(ad.mul(pooled, p["gate_w"]), axis=-1), p["gate_b"])


def gate_activation(z, kind: str):
    if kind == "logistic":
        return ad.sigmoid(z)
    if kind == "sinusoidal":
        return ad.mul(ad.add(ad.sin(z), 1.0), 0.5)
    raise ValueError(f"gate_activation must be one of {GATE_ACTIVATIONS}")


def edge_gate(field_feats, h_i, h_j, grid: SphericalGrid, p, config: dict):
    """Gate in (0, 1) and pooled attention output for each edge (i, j).

    ``field_feats`` (E, G, d_f) are the edge field features
    (field.field_features of field.grid_field), and h_* the (E, d_h)
    scalar features of the receiving and sending atoms, one row per edge.
    Runs the low-rank Q/K/V factors, the pooled spherical attention, the
    value pooling and the gate head; ``heads``, ``positional_encoding``
    and ``gate_activation`` come from the model config. Returns
    (alpha (E,), pooled (E, d)).
    """
    q, k, bias, v = build_qkv(h_i, h_j, field_feats, p, config["positional_encoding"], config["heads"])
    pooled = pool_attention(spherical_attention(q, k, grid, bias), v)
    alpha = gate_activation(gate_preactivation(pooled, p), config["gate_activation"])
    return alpha, pooled

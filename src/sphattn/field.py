"""Per-edge scalar field on the sphere and its feature encodings.

For an edge (i, j) with separation r = |x_j - x_i|, the field value at a
grid direction g is the distance from x_j to the probe point x_i + r g.
Equivalently d(g) = r sqrt(2 (1 + cos angle(g, u))) with u = (x_i - x_j)/r,
so the field is linear in r, vanishes at the direction pointing from i
to j, and peaks at 2r opposite it. It is invariant under rigid motions
applied to both atoms and the grid. It depends on positions alone, so
the backbone evaluates it and its features once per call and hands the
features to every layer's attention.

Every function is written in autodiff primitives: a node in gives a
node out, so forces flow through the field, and plain arrays give plain
arrays.
"""

from __future__ import annotations

import re

import numpy as np

from . import autodiff as ad
from .geometry import SphericalGrid

DEGENERATE_SEPARATION = 1e-8


class DegenerateGeometryError(ValueError):
    """Raised when two atoms of an edge (nearly) coincide."""


def grid_field(x_i, x_j, grid: SphericalGrid):
    """Distances from x_j to probe points x_i + r_ij g_k, one per grid point.

    Accepts leading batch axes on the atom positions. Returns (r, values):
    the separations r_ij (...,) and the field (..., n_grid). Raises
    DegenerateGeometryError if any separation is at or below 1e-8.
    """
    xi_shape, xj_shape = np.shape(ad.value_of(x_i)), np.shape(ad.value_of(x_j))
    if xi_shape[-1] != 3 or xj_shape[-1] != 3:
        raise ValueError("atom positions must have 3 components")
    r = ad.norm(ad.sub(x_j, x_i), axis=-1)
    r_val = ad.value_of(r)
    if np.any(r_val <= DEGENERATE_SEPARATION):
        raise DegenerateGeometryError(
            f"edge separation {float(np.min(r_val)):.3e} below {DEGENERATE_SEPARATION}"
        )
    probe = ad.add(
        ad.reshape(x_i, xi_shape[:-1] + (1, 3)),
        ad.mul(ad.reshape(r, r_val.shape + (1, 1)), grid.points),  # points: (G, 3)
    )
    values = ad.norm(ad.sub(ad.reshape(x_j, xj_shape[:-1] + (1, 3)), probe), axis=-1)
    return r, values


_RBF_RE = re.compile(r"^rbf\((\d+)\)$")


def parse_feature_mode(mode: str) -> int:
    """Feature width d_f for a mode string ('scalar' or 'rbf(n)')."""
    if mode == "scalar":
        return 1
    m = _RBF_RE.match(mode)
    if m and int(m.group(1)) >= 1:
        return int(m.group(1))
    raise ValueError(f"unknown field feature mode: {mode!r}")


def field_features(r, values, mode: str):
    """Encode field values into per-grid-point feature vectors (..., G, d_f).

    ``r`` (...,) and ``values`` (..., G) are what grid_field returns.
    'scalar' is the normalized distance t = d/(2r) in [0, 1]. 'rbf(n)'
    evaluates n Gaussians centered uniformly on [0, 2r] with width equal
    to the center spacing 2r/(n-1) (center r, width r for n = 1);
    implemented on t, where centers and widths become constants.
    """
    d_f = parse_feature_mode(mode)
    t = ad.div(values, ad.mul(ad.reshape(r, np.shape(ad.value_of(r)) + (1,)), 2.0))
    tt = ad.reshape(t, np.shape(ad.value_of(t)) + (1,))
    if mode == "scalar":
        return tt
    if d_f == 1:
        centers, inv_two_sigma2 = np.array([0.5]), np.array([2.0])
    else:
        centers = np.linspace(0.0, 1.0, d_f)
        inv_two_sigma2 = np.full(d_f, (d_f - 1) ** 2 / 2.0)
    z = ad.sub(tt, centers)
    return ad.exp(ad.neg(ad.mul(ad.mul(z, z), inv_two_sigma2)))

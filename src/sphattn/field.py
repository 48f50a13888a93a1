"""Per-edge scalar field on the sphere and its feature encodings.

For an edge (i, j) with separation r = |x_j - x_i|, the field value at a
grid direction g is the distance from x_j to the probe point x_i + r g.
Equivalently d(g) = r sqrt(2 (1 + cos angle(g, u))) with u = (x_i - x_j)/r,
so the field is linear in r, vanishes at the direction pointing from i
to j, and peaks at 2r opposite it. It is invariant under rigid motions
applied to both atoms and the grid.

All computations run on autodiff nodes so forces can flow through the
field; passing plain arrays returns plain arrays.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import SphericalGrid

DEGENERATE_SEPARATION = 1e-8


class DegenerateGeometryError(ValueError):
    """Raised when two atoms of an edge (nearly) coincide."""


@dataclass
class EdgeSphericalField:
    """Field values over the grid for one edge (or a batch of edges).

    ``distance`` is r_ij with shape (...,); ``values`` has shape
    (..., n_grid). Either numpy arrays or autodiff nodes.
    """

    distance: object
    values: object
    edge: object = None


def _wants_nodes(*xs) -> bool:
    return any(isinstance(x, ad.Node) for x in xs)


def grid_field(x_i, x_j, grid: SphericalGrid, edge=None) -> EdgeSphericalField:
    """Distances from x_j to probe points x_i + r_ij g_k, one per grid point.

    Accepts leading batch axes on the atom positions. Raises
    DegenerateGeometryError if any separation is at or below 1e-8.
    """
    taped = _wants_nodes(x_i, x_j)
    xi, xj = ad.as_node(x_i), ad.as_node(x_j)
    if xi.value.shape[-1] != 3 or xj.value.shape[-1] != 3:
        raise ValueError("atom positions must have 3 components")
    r = ad.norm(ad.sub(xj, xi), axis=-1)
    if np.any(r.value <= DEGENERATE_SEPARATION):
        raise DegenerateGeometryError(
            f"edge separation {float(np.min(r.value)):.3e} below {DEGENERATE_SEPARATION}"
        )
    g = ad.constant(grid.points)  # (G, 3)
    probe = ad.add(
        ad.reshape(xi, xi.value.shape[:-1] + (1, 3)),
        ad.mul(ad.reshape(r, r.value.shape + (1, 1)), g),
    )
    values = ad.norm(ad.sub(ad.reshape(xj, xj.value.shape[:-1] + (1, 3)), probe), axis=-1)
    if taped:
        return EdgeSphericalField(r, values, edge)
    return EdgeSphericalField(r.value, values.value, edge)


_RBF_RE = re.compile(r"^rbf\((\d+)\)$")


def parse_feature_mode(mode: str) -> int:
    """Feature width d_f for a mode string ('scalar' or 'rbf(n)')."""
    if mode == "scalar":
        return 1
    m = _RBF_RE.match(mode)
    if m and int(m.group(1)) >= 1:
        return int(m.group(1))
    raise ValueError(f"unknown field feature mode: {mode!r}")


def field_features(field: EdgeSphericalField, mode: str = "scalar"):
    """Encode field values into per-grid-point feature vectors (..., G, d_f).

    'scalar' is the normalized distance t = d/(2r) in [0, 1]. 'rbf(n)'
    evaluates n Gaussians centered uniformly on [0, 2r] with width equal
    to the center spacing 2r/(n-1) (center r, width r for n = 1);
    implemented on t, where centers and widths become constants.
    """
    d_f = parse_feature_mode(mode)
    taped = _wants_nodes(field.values)
    vals = ad.as_node(field.values)
    dist = ad.as_node(field.distance)
    t = ad.div(vals, ad.mul(ad.reshape(dist, dist.value.shape + (1,)), 2.0))
    if mode == "scalar":
        out = ad.reshape(t, t.value.shape + (1,))
    else:
        if d_f == 1:
            centers, inv_two_sigma2 = np.array([0.5]), np.array([2.0])
        else:
            centers = np.linspace(0.0, 1.0, d_f)
            inv_two_sigma2 = np.full(d_f, (d_f - 1) ** 2 / 2.0)
        tt = ad.reshape(t, t.value.shape + (1,))
        z = ad.sub(tt, ad.constant(centers))
        out = ad.exp(ad.neg(ad.mul(ad.mul(z, z), ad.constant(inv_two_sigma2))))
    return out if taped else out.value

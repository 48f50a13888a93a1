"""Spherical grids, quadrature, rotations, harmonics, and neighbor lists.

The unit-sphere grid is equiangular with cell-centered colatitudes
theta_i = pi(i+1/2)/n_theta and longitudes phi_j = 2 pi j/n_phi. Weights
use the Fejer quadrature rule in cos(theta) at those nodes (the rule
behind equiangular grids in spherical-transform packages), scaled by the
longitude spacing and rescaled so they sum to 4 pi exactly. Plain
sin(theta) cell areas would integrate polynomials only to O(n^-2); the
Fejer weights integrate every spherical harmonic with l < n_theta and
|m| < n_phi to zero exactly, which the rest of the library relies on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad


@dataclass(frozen=True, eq=False)
class SphericalGrid:
    """Quadrature grid on the unit sphere: N = n_theta * n_phi points.

    ``points`` and ``weights`` are read-only copies, so one grid can be
    shared by every caller (see ``build_equiangular_grid``). Grids
    compare and hash by identity: the generated field-wise ``==`` would
    ask numpy for the truth value of an array.
    """

    n_theta: int
    n_phi: int
    points: np.ndarray  # (N, 3) unit vectors
    weights: np.ndarray  # (N,) positive, sum 4 pi

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        w = np.array(self.weights, dtype=float)
        if pts.shape != (self.n_theta * self.n_phi, 3):
            raise ValueError("grid points must have shape (n_theta*n_phi, 3)")
        if w.shape != (pts.shape[0],):
            raise ValueError("one weight per grid point required")
        if np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) > 1e-12:
            raise ValueError("grid points must be unit vectors")
        if np.any(w <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(w.sum() - 4 * np.pi) > 1e-10 * 4 * np.pi:
            raise ValueError("quadrature weights must sum to 4 pi")
        pts.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def n_points(self) -> int:
        return self.n_theta * self.n_phi

    def rotated(self, rotation: np.ndarray) -> "SphericalGrid":
        """Same grid carried through a rotation (weights are unchanged)."""
        return SphericalGrid(
            self.n_theta, self.n_phi, self.points @ np.asarray(rotation).T, self.weights
        )


def _fejer_colatitude_weights(n: int) -> np.ndarray:
    # Fejer's first rule at theta_i = pi(i+1/2)/n, exact for
    # integral_0^pi P_l(cos t) sin t dt with l <= n-1; weights are positive.
    theta = np.pi * (np.arange(n) + 0.5) / n
    m = np.arange(1, n // 2 + 1)
    corr = 2.0 * np.sum(
        np.cos(2.0 * np.outer(theta, m)) / (4.0 * m**2 - 1.0), axis=1
    )
    return (2.0 / n) * (1.0 - corr)


@functools.lru_cache(maxsize=32)
def build_equiangular_grid(n_theta: int, n_phi: int) -> SphericalGrid:
    """Cell-centered equiangular grid with exact-sum quadrature weights.

    Memoized: repeated calls with the same sizes return the same
    read-only grid object, so a model's grid is built once per process.
    """
    if n_theta < 1 or n_phi < 1:
        raise ValueError("grid sizes must be positive")
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    points = np.stack(
        [np.cos(pp) * np.sin(tt), np.sin(pp) * np.sin(tt), np.cos(tt)], axis=-1
    ).reshape(-1, 3)
    w = np.repeat(_fejer_colatitude_weights(n_theta), n_phi) * (2.0 * np.pi / n_phi)
    w *= 4.0 * np.pi / w.sum()
    return SphericalGrid(n_theta, n_phi, points, w)


def quadrature(values, grid: SphericalGrid):
    """Approximate the sphere integral of per-grid-point values.

    Accepts leading batch axes; the grid axis must come last.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1] != grid.n_points:
        raise ValueError("values must match the number of grid points")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite values in quadrature input")
    out = v @ grid.weights
    return float(out) if out.ndim == 0 else out


def rotation_from_euler(phi: float, theta: float, psi: float) -> np.ndarray:
    """Rotation matrix R_z(phi) R_y(theta) R_z(psi)."""
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    rz_phi = np.array([[cf, -sf, 0.0], [sf, cf, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    rz_psi = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return rz_phi @ ry @ rz_psi


@dataclass(frozen=True)
class RigidMotion:
    """Proper rigid motion x -> R x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation length 3")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-12:
            raise ValueError("rotation must be orthogonal")
        if abs(np.linalg.det(r) - 1.0) > 1e-12:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


def apply_rigid(motion: RigidMotion, points: np.ndarray) -> np.ndarray:
    """Apply x -> R x + t along the last axis."""
    return np.asarray(points, dtype=float) @ motion.rotation.T + motion.translation


def random_rigid_motion(
    rng: np.random.Generator,
    translation_scale: float = 1.0,
    rotate: bool = True,
) -> RigidMotion:
    """Uniformly random proper rotation plus a normal translation.

    QR of a Gaussian matrix with the sign convention fixed, reflected
    back into SO(3) if needed; ``rotate=False`` gives translation-only
    motions for isolating the two invariances.
    """
    r = np.eye(3)
    if rotate:
        q, rr = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(rr))
        if np.linalg.det(q) < 0:
            q[:, [0, 1]] = q[:, [1, 0]]
        r = q
    return RigidMotion(r, rng.normal(0.0, translation_scale, size=3))


_L_MAX_SUPPORTED = 3


def sh_index(l: int, m: int) -> int:
    """Flat index of the (l, m) harmonic: l^2 + l + m."""
    if abs(m) > l:
        raise ValueError("|m| must not exceed l")
    return l * l + l + m


def real_spherical_harmonics(l_max: int, direction):
    """Real orthonormal spherical harmonics up to l_max at unit directions.

    Cartesian polynomial form, safe at the poles. Supports leading batch
    axes; returns (..., (l_max+1)^2) ordered by (l, then m = -l..l). The
    l=1 triple is proportional to (y, z, x) with coefficient sqrt(3/4pi).
    Written in autodiff primitives: a node in gives a node out that is
    differentiable through the direction, a plain array a plain array.

    Args:
        l_max: highest order, 0 <= l_max <= 3.
        direction: (..., 3) unit vectors (checked to 1e-9).
    """
    if not 0 <= l_max <= _L_MAX_SUPPORTED:
        raise ValueError(f"l_max must be in [0, {_L_MAX_SUPPORTED}]")
    if not isinstance(direction, ad.Node):
        direction = np.asarray(direction, dtype=float)
    d = ad.value_of(direction)
    if d.shape[-1] != 3:
        raise ValueError("direction must have 3 components on the last axis")
    if np.max(np.abs(np.linalg.norm(d, axis=-1) - 1.0)) > 1e-9:
        raise ValueError("directions must be unit vectors")
    batch = d.shape[:-1]
    x, y, z = (ad.take(direction, (..., k)) for k in range(3))

    cols = [np.full(batch, 0.28209479177387814)]
    if l_max >= 1:
        c1 = 0.4886025119029199
        cols += [ad.mul(y, c1), ad.mul(z, c1), ad.mul(x, c1)]
    if l_max >= 2:
        c2a, c2b, c2c = 1.0925484305920792, 0.31539156525252005, 0.5462742152960396
        x2, y2, z2 = ad.mul(x, x), ad.mul(y, y), ad.mul(z, z)
        cols += [
            ad.mul(ad.mul(x, y), c2a),
            ad.mul(ad.mul(y, z), c2a),
            ad.mul(ad.sub(ad.mul(z2, 2.0), ad.add(x2, y2)), c2b),
            ad.mul(ad.mul(x, z), c2a),
            ad.mul(ad.sub(x2, y2), c2c),
        ]
    if l_max >= 3:
        c3 = (0.5900435899266435, 2.890611442640554, 0.4570457994644658,
              0.3731763325901154, 1.445305721320277)
        cols += [
            ad.mul(ad.mul(y, ad.sub(ad.mul(x2, 3.0), y2)), c3[0]),
            ad.mul(ad.mul(ad.mul(x, y), z), c3[1]),
            ad.mul(ad.mul(y, ad.sub(ad.mul(z2, 4.0), ad.add(x2, y2))), c3[2]),
            ad.mul(ad.mul(z, ad.sub(ad.mul(z2, 2.0), ad.mul(ad.add(x2, y2), 3.0))), c3[3]),
            ad.mul(ad.mul(x, ad.sub(ad.mul(z2, 4.0), ad.add(x2, y2))), c3[2]),
            ad.mul(ad.mul(z, ad.sub(x2, y2)), c3[4]),
            ad.mul(ad.mul(x, ad.sub(x2, ad.mul(y2, 3.0))), c3[0]),
        ]
    return ad.concat([ad.reshape(c, batch + (1,)) for c in cols], axis=-1)


@dataclass(frozen=True)
class NeighborList:
    """Ordered edges (i, j), i != j, with interatomic distance < cutoff."""

    edges: np.ndarray  # (E, 2) int, sorted by (i, j); both directions present
    cutoff: float
    n_atoms: int

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def neighbor_list(positions, cutoff: float) -> NeighborList:
    """All ordered pairs strictly closer than the cutoff (no periodicity)."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("positions must have shape (n, 3)")
    if not np.all(np.isfinite(pos)):
        raise ValueError("non-finite positions")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=-1)
    np.fill_diagonal(dist, np.inf)
    edges = np.argwhere(dist < cutoff)  # row-major: ascending (i, j)
    return NeighborList(edges, float(cutoff), len(pos))

"""Edge field: closed-form identity, symmetry, scaling, feature encodings."""

from __future__ import annotations

import numpy as np
import pytest

from sphattn import autodiff as ad
from sphattn import field, geometry
from conftest import central_diff, random_rigid

GRID = geometry.build_equiangular_grid(4, 8)


def closed_form(x_i, x_j, grid):
    # independent oracle: d sqrt(2 (1 + cos angle)) with u = (x_i - x_j)/d
    d = np.linalg.norm(x_j - x_i)
    u = (x_i - x_j) / d
    return d * np.sqrt(2.0 * (1.0 + grid.points @ u))


def test_direct_matches_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x_i = rng.uniform(-5, 5, size=3)
        x_j = rng.uniform(-5, 5, size=3)
        _, values = field.grid_field(x_i, x_j, GRID)
        assert np.max(np.abs(values - closed_form(x_i, x_j, GRID))) < 1e-12


def test_extremes_attained_exactly():
    # hand-built grid containing exact unit vectors
    pts = np.array([[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0], [-1.0, 0, 0]])
    g = geometry.SphericalGrid(2, 2, pts, np.full(4, np.pi))
    x_i = np.array([0.25, -1.5, 3.0])
    d = 2.0
    _, f_anti = field.grid_field(x_i, x_i + d * pts[0], g)  # g_0 points from i to j
    assert f_anti[0] == 0.0
    _, f_par = field.grid_field(x_i, x_i - d * pts[0], g)  # g_0 anti to the bond
    assert f_par[0] == 2.0 * d


def test_minimum_at_bond_direction():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x_i, x_j = rng.normal(size=3), rng.normal(size=3)
        if np.linalg.norm(x_j - x_i) < 0.1:
            continue
        _, values = field.grid_field(x_i, x_j, GRID)
        toward_j = GRID.points @ (x_j - x_i)
        assert np.argmin(values) == np.argmax(toward_j)


def test_rigid_motion_invariance_with_rotated_grid():
    rng = np.random.default_rng(2)
    x_i, x_j = rng.normal(size=3), rng.normal(size=3) + 2.0
    base = field.grid_field(x_i, x_j, GRID)[1]
    for _ in range(100):
        m = random_rigid(rng)
        moved = field.grid_field(
            geometry.apply_rigid(m, x_i),
            geometry.apply_rigid(m, x_j),
            GRID.rotated(m.rotation),
        )[1]
        assert np.max(np.abs(moved - base)) < 1e-10


def test_scale_linearity():
    rng = np.random.default_rng(3)
    x_i, x_j = rng.normal(size=3), rng.normal(size=3) + 1.5
    base = field.grid_field(x_i, x_j, GRID)[1]
    for lam in (0.5, 2.0, 10.0):
        scaled = field.grid_field(lam * x_i, lam * x_j, GRID)[1]
        assert np.max(np.abs(scaled - lam * base) / (lam * base + 1e-300)) < 1e-12


def test_degenerate_edge_raises():
    x = np.array([1.0, 2.0, 3.0])
    with pytest.raises(field.DegenerateGeometryError):
        field.grid_field(x, x + 1e-9, GRID)


def test_batched_matches_single():
    rng = np.random.default_rng(4)
    xi = rng.normal(size=(6, 3))
    xj = rng.normal(size=(6, 3)) + 1.0
    r_batched, batched = field.grid_field(xi, xj, GRID)
    for k in range(6):
        r_single, single = field.grid_field(xi[k], xj[k], GRID)
        assert np.max(np.abs(batched[k] - single)) < 1e-15
        assert abs(r_batched[k] - r_single) < 1e-15


def test_scalar_feature_normalization():
    rng = np.random.default_rng(5)
    x_i, x_j = rng.normal(size=3), rng.normal(size=3) + 2.0
    r, values = field.grid_field(x_i, x_j, GRID)
    feats = field.field_features(r, values, "scalar")
    assert feats.shape == (GRID.n_points, 1)
    assert np.all(feats >= 0.0) and np.all(feats <= 1.0)
    # a field value of exactly 2r encodes to exactly 1
    assert np.all(field.field_features(r, np.full(GRID.n_points, 2.0 * r), "scalar") == 1.0)


def test_rbf_features_match_gaussian_oracle():
    # delta = r, n = 4: centers at 2r*(0,1/3,2/3,1), width 2r/3
    r = 1.7
    feats = field.field_features(r, np.full(3, r), "rbf(4)")
    centers = 2 * r * np.array([0, 1 / 3, 2 / 3, 1.0])
    sigma = 2 * r / 3
    oracle = np.exp(-((r - centers) ** 2) / (2 * sigma**2))
    assert feats.shape == (3, 4)
    assert np.max(np.abs(feats - oracle)) < 1e-12
    frozen = [0.32465246735834974, 0.8824969025845955, 0.8824969025845955, 0.32465246735834974]
    assert np.allclose(feats[0], frozen, rtol=0, atol=1e-15)


def test_rbf_single_center():
    # one basis function: center r, width r
    feats = field.field_features(2.0, np.array([2.0, 0.0]), "rbf(1)")
    assert feats.shape == (2, 1)
    assert feats[0, 0] == 1.0
    assert abs(feats[1, 0] - np.exp(-0.5)) < 1e-15


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        field.field_features(1.0, np.ones(4), "fourier")
    with pytest.raises(ValueError):
        field.field_features(1.0, np.ones(4), "rbf(0)")


def test_gradients_flow_through_field():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(2, 3))
    x0[1] += 2.0

    def loss_from(pos):
        xi, xj = ad.take(pos, (0,)), ad.take(pos, (1,))
        feats = field.field_features(*field.grid_field(xi, xj, GRID), "scalar")
        return ad.sum_(ad.mul(feats, feats))

    lx = ad.leaf(x0)
    (g,) = ad.grad(loss_from(lx), [lx])
    fd = central_diff(lambda v: float(loss_from(ad.constant(v)).value), x0, step=1e-6)
    assert np.max(np.abs(g.value - fd)) < 1e-5

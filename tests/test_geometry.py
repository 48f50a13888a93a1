"""Grid construction, quadrature identities, rotations, harmonics, neighbor lists."""

from __future__ import annotations

import numpy as np
import pytest

from sphattn import geometry
from conftest import random_rigid, random_rotation

FOUR_PI = 4.0 * np.pi


def cell_area_weights(n_theta: int, n_phi: int) -> np.ndarray:
    # independent closed-form oracle: sin(theta) * dtheta * dphi, rescaled
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    w = np.repeat(np.sin(theta), n_phi) * (np.pi / n_theta) * (2 * np.pi / n_phi)
    return w * FOUR_PI / w.sum()


def test_2x2_grid_matches_cell_area_oracle():
    g = geometry.build_equiangular_grid(2, 2)
    theta = np.arccos(np.clip(g.points[:, 2], -1, 1))
    phi = np.mod(np.arctan2(g.points[:, 1], g.points[:, 0]), 2 * np.pi)
    assert np.allclose(sorted(set(np.round(theta, 12))), [np.pi / 4, 3 * np.pi / 4])
    assert np.allclose(sorted(set(np.round(phi, 12))), [0.0, np.pi])
    # for 2x2 the Fejer rule coincides with the cell-area rule
    assert np.allclose(g.weights, cell_area_weights(2, 2), rtol=0, atol=1e-13)
    assert np.allclose(g.weights, np.pi)


@pytest.mark.parametrize("nt,np_", [(2, 2), (4, 8), (8, 16), (16, 32), (3, 5), (64, 128)])
def test_weights_positive_and_sum_4pi(nt, np_):
    g = geometry.build_equiangular_grid(nt, np_)
    assert g.n_points == nt * np_
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - FOUR_PI) < 1e-12
    assert np.max(np.abs(np.linalg.norm(g.points, axis=1) - 1)) < 1e-12


def test_quadrature_constant_is_4pi():
    g = geometry.build_equiangular_grid(4, 8)
    assert abs(geometry.quadrature(np.ones(g.n_points), g) - FOUR_PI) < 1e-12


def test_quadrature_of_gz_vanishes():
    g = geometry.build_equiangular_grid(4, 8)
    assert abs(geometry.quadrature(g.points[:, 2], g)) < 1e-10


def test_quadrature_against_dense_reference():
    # u = (Y_1^0)^2; the 128x256 grid serves as the reference oracle
    coarse = geometry.build_equiangular_grid(16, 32)
    dense = geometry.build_equiangular_grid(128, 256)

    def u(grid):
        return geometry.real_spherical_harmonics(1, grid.points)[:, geometry.sh_index(1, 0)] ** 2

    ref = geometry.quadrature(u(dense), dense)
    got = geometry.quadrature(u(coarse), coarse)
    assert abs(got - ref) / abs(ref) < 1e-3


def test_quadrature_integrates_low_harmonics_to_zero():
    for nt, np_ in [(8, 16), (16, 32)]:
        g = geometry.build_equiangular_grid(nt, np_)
        ylm = geometry.real_spherical_harmonics(2, g.points)
        for l in (1, 2):
            for m in range(-l, l + 1):
                val = geometry.quadrature(ylm[:, geometry.sh_index(l, m)], g)
                assert abs(val) < 1e-6, (l, m, val)


def test_quadrature_converges_on_smooth_function():
    # closed form: integral of exp(a.g) over the sphere = 4 pi sinh(|a|)/|a|
    a = np.array([0.3, -1.1, 0.7])
    exact = FOUR_PI * np.sinh(np.linalg.norm(a)) / np.linalg.norm(a)
    errs = []
    for nt in (4, 8, 16):
        g = geometry.build_equiangular_grid(nt, 2 * nt)
        errs.append(abs(geometry.quadrature(np.exp(g.points @ a), g) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-8


def test_quadrature_input_validation():
    g = geometry.build_equiangular_grid(2, 2)
    with pytest.raises(ValueError):
        geometry.quadrature(np.ones(5), g)
    with pytest.raises(ValueError):
        geometry.quadrature(np.array([1.0, np.nan, 0.0, 0.0]), g)


def test_rotation_from_euler_properties():
    rng = np.random.default_rng(3)
    assert np.array_equal(geometry.rotation_from_euler(0, 0, 0), np.eye(3))
    for _ in range(50):
        phi, theta, psi = rng.uniform(0, 2 * np.pi, size=3)
        r = geometry.rotation_from_euler(phi, theta, psi)
        assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(r) - 1) < 1e-12
        # closed-form image of the north pole (psi rotates about n first)
        got = r @ np.array([0.0, 0.0, 1.0])
        want = np.array(
            [np.cos(phi) * np.sin(theta), np.sin(phi) * np.sin(theta), np.cos(theta)]
        )
        assert np.max(np.abs(got - want)) < 1e-15


def test_rigid_motion_validation():
    with pytest.raises(ValueError):
        geometry.RigidMotion(np.eye(3) * 2.0, np.zeros(3))
    refl = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        geometry.RigidMotion(refl, np.zeros(3))


def test_apply_rigid_composes_and_preserves_distances():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(10, 3))
    m1, m2 = random_rigid(rng), random_rigid(rng)
    seq = geometry.apply_rigid(m2, geometry.apply_rigid(m1, pts))
    comp = geometry.RigidMotion(
        m2.rotation @ m1.rotation, m2.rotation @ m1.translation + m2.translation
    )
    assert np.max(np.abs(geometry.apply_rigid(comp, pts) - seq)) < 1e-12
    d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
    d1 = np.linalg.norm(seq[:, None] - seq[None, :], axis=-1)
    assert np.max(np.abs(d0 - d1)) < 1e-12


def test_sh_l0_value():
    val = geometry.real_spherical_harmonics(0, np.array([0.0, 0.0, 1.0]))
    assert val.shape == (1,)
    assert val[0] == 0.28209479177387814  # 1/(2 sqrt(pi))


def test_sh_l1_proportional_to_yzx():
    d = np.array([0.6, 0.8, 0.0])
    ylm = geometry.real_spherical_harmonics(1, d)
    c = 0.4886025119029199  # sqrt(3/(4 pi))
    assert np.allclose(ylm[1:], c * np.array([d[1], d[2], d[0]]), atol=1e-15)


def test_sh_gram_is_identity():
    g = geometry.build_equiangular_grid(64, 128)
    ylm = geometry.real_spherical_harmonics(3, g.points)  # (N, 16)
    gram = (ylm * g.weights[:, None]).T @ ylm
    assert np.max(np.abs(gram - np.eye(16))) < 1e-6


def test_sh_poles_are_finite_and_exact():
    for sign in (1.0, -1.0):
        d = np.array([0.0, 0.0, sign])
        ylm = geometry.real_spherical_harmonics(3, d)
        assert np.all(np.isfinite(ylm))
        # only m = 0 columns survive at the poles
        for l in range(4):
            for m in range(-l, l + 1):
                if m != 0:
                    assert ylm[geometry.sh_index(l, m)] == 0.0


def test_sh_l1_rotates_as_a_vector():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = random_rotation(rng)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        y_rot = geometry.real_spherical_harmonics(1, r @ d)[1:]
        y = geometry.real_spherical_harmonics(1, d)[1:]
        # columns are ordered (y, z, x); map to vectors to apply R
        to_vec = lambda a: np.array([a[2], a[0], a[1]])
        assert np.max(np.abs(to_vec(y_rot) - r @ to_vec(y))) < 1e-12


def test_sh_input_validation():
    with pytest.raises(ValueError):
        geometry.real_spherical_harmonics(4, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        geometry.real_spherical_harmonics(1, np.array([0.0, 0.0, 2.0]))


def test_neighbor_list_collinear_chain():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    nl = geometry.neighbor_list(pos, 1.5)
    assert nl.n_edges == 4
    assert nl.edges.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_neighbor_list_strict_cutoff():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    assert geometry.neighbor_list(pos, 1.0).n_edges == 0
    assert geometry.neighbor_list(pos, 1.0 + 1e-12).n_edges == 2


def test_neighbor_list_matches_brute_force_oracle():
    rng = np.random.default_rng(19)
    for _ in range(10):
        pos = rng.uniform(-3, 3, size=(12, 3))
        cutoff = rng.uniform(1.0, 4.0)
        nl = geometry.neighbor_list(pos, cutoff)
        expected = sorted(
            (i, j)
            for i in range(12)
            for j in range(12)
            if i != j and np.linalg.norm(pos[i] - pos[j]) < cutoff
        )
        assert [tuple(e) for e in nl.edges] == expected
        pairs = {tuple(e) for e in nl.edges}
        assert all((j, i) in pairs for i, j in pairs)


def test_neighbor_list_validation():
    with pytest.raises(ValueError):
        geometry.neighbor_list(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), 1.0)
    with pytest.raises(ValueError):
        geometry.neighbor_list(np.zeros((2, 3)), -1.0)


def test_rotated_grid_is_valid_and_keeps_weights():
    rng = np.random.default_rng(2)
    g = geometry.build_equiangular_grid(4, 8)
    gr = g.rotated(random_rotation(rng))
    assert np.array_equal(gr.weights, g.weights)
    assert abs(gr.weights.sum() - FOUR_PI) < 1e-12


def test_equiangular_grid_is_built_once_and_read_only():
    g = geometry.build_equiangular_grid(4, 8)
    assert geometry.build_equiangular_grid(4, 8) is g
    for arr in (g.points, g.weights):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # a rotated grid is a new, equally read-only grid with the same weights
    gr = g.rotated(random_rotation(np.random.default_rng(3)))
    assert gr is not g and not gr.points.flags.writeable
    assert np.array_equal(gr.weights, g.weights)
    assert np.array_equal(g.points, geometry.build_equiangular_grid(4, 8).points)
    # grids compare and hash by identity, never by their array fields
    assert g == g and g != gr and not g == gr
    assert len({g, gr, geometry.build_equiangular_grid(4, 8)}) == 2

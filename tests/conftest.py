"""Shared test helpers: finite-difference oracles, random rigid motions and
per-grid-point attention."""

from __future__ import annotations

import numpy as np

import _verdicts
from sphattn import attention, geometry


def central_diff(f, x, step=1e-5):
    """Central finite differences of a scalar function, one entry at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = g.ravel()
    for i in range(x.size):
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[i] += step
        xm[i] -= step
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * step)
    return g


def relative_close(a, b, rtol, floor=1e-12):
    """Fraction of entries where a and b agree to rtol (denominator floored)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.mean(np.abs(a - b) / denom < rtol)


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation via random Euler angles."""
    phi, psi = rng.uniform(0, 2 * np.pi, size=2)
    theta = np.arccos(rng.uniform(-1, 1))
    return geometry.rotation_from_euler(phi, theta, psi)


def random_rigid(rng, tmax=5.0) -> geometry.RigidMotion:
    return geometry.RigidMotion(random_rotation(rng), rng.uniform(-tmax, tmax, size=3))


def per_point_attention(q, k, v, grid, heads=1):
    """Attention output at every grid point, (G, d), from dense q, k, v (G, d).

    The library only evaluates attention pooled over the queries. An edge
    whose every query equals q_g has identical softmax rows, so its pooled
    distribution is the softmax of q_g; one such edge per grid point gives
    the per-point outputs. Values enter as positional rows, the one value
    term that lives on the grid alone. Logits are unscaled.
    """
    g, d = q.shape
    split = lambda x: x.reshape(g, heads, d // heads).swapaxes(0, 1)  # (H, G, dh)
    rows = np.broadcast_to(split(q)[:, :, None, :], (heads, g, g, d // heads)).swapaxes(0, 1)
    pi = attention.spherical_attention(rows, split(k), grid)  # (G, H, G)
    return attention.pool_attention(pi, (np.zeros((g, d)), np.zeros((g, g, 1)), np.zeros((d, 1)), v))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdicts collected in _verdicts survive any capture mode here
    if not _verdicts.LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in _verdicts.LINES:
        terminalreporter.line(line)

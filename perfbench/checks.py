"""Output checks of the benchmark.

Every check compares the program's output with a computation made apart
from it (central differences, a rerun) or with a property the method
must have (translation invariance, a vanishing net force, bit-exact gate
clamping, a thermostat target). None compares with stored output. Each
check raises CheckFailed with a message naming what was wrong;
``selftest.py`` feeds each one a wrong result to show that it can fail.
"""

from __future__ import annotations

import math

import numpy as np

# central-difference steps and the tolerances they support; the measured
# errors are 1e-9 relative (forces, h = 1e-4 A) and below 1e-7 relative
# (force-loss parameter gradients, h = 1e-4)
FORCE_FD_STEP = 1e-4
FORCE_RTOL = 1e-6
FORCE_ATOL = 1e-9
PARAM_FD_STEP = 1e-4
PARAM_RTOL = 1e-5
ROUNDOFF = 64 * np.finfo(float).eps
# kinetic-temperature mean may sit this many standard errors off target
TEMPERATURE_SIGMAS = 5.0


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def central_difference_forces(energy_fn, positions, coords, h=FORCE_FD_STEP):
    """-dE/dx at each (atom, axis) in ``coords`` by central differences."""
    out = []
    for a, k in coords:
        plus, minus = positions.copy(), positions.copy()
        plus[a, k] += h
        minus[a, k] -= h
        out.append(-(energy_fn(plus) - energy_fn(minus)) / (2.0 * h))
    return np.array(out)


def check_forces(forces, fd, coords, label):
    """Analytic forces agree with central differences on the sampled coordinates."""
    scale = float(np.max(np.abs(forces)))
    for (a, k), ref in zip(coords, fd):
        got = float(forces[a, k])
        if not abs(got - ref) <= FORCE_ATOL + FORCE_RTOL * scale:
            raise CheckFailed(
                f"{label}: force[{a},{k}] = {got!r} but central differences give {ref!r}"
            )


def check_net_force(forces, label):
    """Forces of an isolated cluster sum to zero up to roundoff."""
    net = np.abs(np.sum(forces, axis=0)).max()
    if not net <= ROUNDOFF * (np.abs(forces).sum() + 1.0):
        raise CheckFailed(f"{label}: net force {net:.3e} does not vanish")


def check_translation(e0, e_shifted, label):
    """A rigid translation leaves the energy unchanged up to roundoff."""
    if not abs(e_shifted - e0) <= ROUNDOFF * (abs(e0) + 1.0):
        raise CheckFailed(f"{label}: translation moved the energy from {e0!r} to {e_shifted!r}")


def check_bitwise(a, b, label):
    """Two results that the method makes equal are equal bit for bit."""
    for x, y in zip(a, b):
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            raise CheckFailed(f"{label}: results differ in their bits")


def check_inside_cutoff(frames, cutoff, label):
    """Every pair of every frame stays closer than the cutoff."""
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    dist = np.linalg.norm(frames[:, iu] - frames[:, ju], axis=-1)
    if not np.all(dist < cutoff):
        f, p = np.unravel_index(np.argmax(dist), dist.shape)
        raise CheckFailed(
            f"{label}: pair ({iu[p]}, {ju[p]}) is {dist[f, p]:.3f} A apart at frame {f}, "
            f"beyond the {cutoff} A cutoff"
        )


def temperature_sigma(target, n_atoms, n_samples, friction, dt):
    """Standard error of the mean kinetic temperature of a BAOAB run.

    One sample of 3n velocity components has variance 2 T^2 / (3n) about
    T; the O-step decorrelates squared velocities by c^2 = exp(-2 friction
    dt) per step, which inflates the variance of the mean by
    (1 + c^2) / (1 - c^2).
    """
    c2 = math.exp(-2.0 * friction * dt)
    return target * math.sqrt(2.0 / (3 * n_atoms) * (1 + c2) / ((1 - c2) * n_samples))


def check_temperature(temperatures, target, n_atoms, friction, dt, label):
    """The mean kinetic temperature lies within TEMPERATURE_SIGMAS of the target."""
    temps = np.asarray(temperatures, dtype=float)
    sigma = temperature_sigma(target, n_atoms, len(temps), friction, dt)
    mean = float(np.mean(temps))
    if not abs(mean - target) <= TEMPERATURE_SIGMAS * sigma:
        raise CheckFailed(
            f"{label}: mean kinetic temperature {mean:.1f} K is more than "
            f"{TEMPERATURE_SIGMAS} x {sigma:.1f} K from the {target} K target"
        )


def check_param_grad(name, index, analytic, fd, loss_value):
    """A reverse-over-reverse parameter gradient matches central differences."""
    if not abs(analytic - fd) <= PARAM_RTOL * abs(fd) + 1e-9 * max(1.0, abs(loss_value)):
        raise CheckFailed(
            f"gradient of the force loss wrt {name}{list(index)} is {analytic!r} "
            f"but central differences give {fd!r}"
        )


def check_training(history):
    """A training run finished without diverging and lowered the validation loss.

    ``history`` holds (step, split, metric, value) rows as in history.csv.
    """
    if any(metric == "diverged" for _, _, metric, _ in history):
        raise CheckFailed("training diverged")
    if not all(math.isfinite(value) for *_, value in history):
        raise CheckFailed("training logged a non-finite value")
    valid = [(step, value) for step, split, metric, value in history
             if split == "valid" and metric == "loss"]
    if len(valid) < 2 or valid[0][0] != 0:
        raise CheckFailed("training logged no step-0 and final validation loss")
    if not valid[-1][1] < valid[0][1]:
        raise CheckFailed(
            f"final validation loss {valid[-1][1]!r} is not below the step-0 loss {valid[0][1]!r}"
        )

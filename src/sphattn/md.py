"""NVT Langevin dynamics over any force provider, plus trajectory analysis.

Forces come from a callable ``forces_fn(positions) -> (energy, forces)``
so the driver runs identically on a trained model or a closed-form
potential. Integration uses the BAOAB splitting of the Langevin
equation: half kick, half drift, friction+noise, half drift, half kick;
with zero friction or zero temperature the O-step is the identity and
the scheme is exactly velocity Verlet.

Units: kcal/mol, Angstrom, femtoseconds, amu, Kelvin. Accelerations are
F / (m * KCAL_PER_AMU_A2_FS2) since forces are per mole while m * a is
per particle; the constant converts one amu*A^2/fs^2 into kcal/mol.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

K_B = 0.0019872041  # kcal/(mol K)
# (kg per amu) * Avogadro * (A/fs)^2 in (m/s)^2, over J per kcal
KCAL_PER_AMU_A2_FS2 = 1.66053906660e-27 * 6.02214076e23 * 1e10 / 4184.0

MASS_OF_Z = {
    1: 1.008, 2: 4.002602, 3: 6.94, 4: 9.0121831, 5: 10.81, 6: 12.011,
    7: 14.007, 8: 15.999, 9: 18.998403163, 10: 20.1797, 11: 22.98976928,
    12: 24.305, 13: 26.9815385, 14: 28.085, 15: 30.973761998, 16: 32.06,
    17: 35.45, 18: 39.948, 19: 39.0983, 20: 40.078, 26: 55.845,
    29: 63.546, 30: 65.38, 35: 79.904, 53: 126.90447, 78: 195.084,
    79: 196.966569,
}


def masses_for(species) -> np.ndarray:
    out = np.empty(len(species))
    for i, z in enumerate(np.asarray(species, dtype=int)):
        if int(z) not in MASS_OF_Z:
            raise ValueError(f"no tabulated mass for atomic number {int(z)}")
        out[i] = MASS_OF_Z[int(z)]
    return out


class SimulationAbortError(RuntimeError):
    """Non-finite dynamics; carries a diagnostic frame for post-mortems."""

    def __init__(self, message: str, frame: dict):
        super().__init__(message)
        self.frame = frame


@dataclass
class MDState:
    """Instantaneous phase-space point plus cached forces and rng."""

    positions: np.ndarray  # (n, 3) A
    velocities: np.ndarray  # (n, 3) A/fs
    masses: np.ndarray  # (n,) amu
    time: float = 0.0  # fs
    rng: np.random.Generator = dc_field(default_factory=np.random.default_rng)
    forces: np.ndarray | None = None  # (n, 3) kcal/mol/A, for the next kick
    energy: float | None = None

    def __post_init__(self):
        n = len(self.masses)
        if self.positions.shape != (n, 3) or self.velocities.shape != (n, 3):
            raise ValueError("positions and velocities must both be (n, 3)")
        if np.any(self.masses <= 0):
            raise ValueError("masses must be positive")


def maxwell_boltzmann_init(temperature: float, masses, seed: int = 0) -> np.ndarray:
    """Thermal velocities with the center-of-mass drift removed.

    Each component is normal with variance k_B T / m in internal units,
    so the expected kinetic temperature is the requested one (up to the
    slight cooling from momentum removal).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    m = np.asarray(masses, dtype=float)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(len(m), 3)) * np.sqrt(K_B * temperature / (m[:, None] * KCAL_PER_AMU_A2_FS2))
    v -= (m[:, None] * v).sum(axis=0) / m.sum()
    return v


def kinetic_temperature(velocities: np.ndarray, masses) -> float:
    m = np.asarray(masses, dtype=float)
    ke = 0.5 * float((m[:, None] * velocities**2).sum()) * KCAL_PER_AMU_A2_FS2
    return 2.0 * ke / (3.0 * len(m) * K_B)


def _eval_forces(forces_fn, positions, state: MDState, step: int):
    try:
        energy, forces = forces_fn(positions)
    except FloatingPointError as exc:
        # model providers raise on internal overflow before any value comes back
        raise SimulationAbortError(
            f"force provider failed at t = {state.time:.3f} fs: {exc}",
            frame={
                "step": step,
                "time": state.time,
                "positions": positions.copy(),
                "velocities": state.velocities.copy(),
                "bad_atoms": [],
                "energy": None,
            },
        )
    forces = np.asarray(forces, dtype=float)
    if forces.shape != positions.shape:
        raise ValueError("force provider returned a wrong shape")
    if not (np.isfinite(energy) and np.all(np.isfinite(forces))):
        bad = np.nonzero(~np.isfinite(forces).all(axis=1))[0]
        raise SimulationAbortError(
            f"non-finite forces at t = {state.time:.3f} fs",
            frame={
                "step": step,
                "time": state.time,
                "positions": positions.copy(),
                "velocities": state.velocities.copy(),
                "bad_atoms": bad.tolist(),
                "energy": float(energy) if np.isfinite(energy) else None,
            },
        )
    return float(energy), forces


def _check_integrator(dt: float, friction: float, temperature: float) -> None:
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (0 <= friction < np.inf and 0 <= temperature < np.inf):
        raise ValueError(f"friction and temperature must be finite and nonnegative, got {friction} and {temperature}")


def langevin_step(
    state: MDState,
    forces_fn,
    dt: float,
    friction: float = 0.1,
    temperature: float = 500.0,
    step: int = 0,
) -> MDState:
    """One BAOAB step; friction in 1/fs, zero friction or temperature
    turns the stochastic O-step into the identity (velocity Verlet)."""
    _check_integrator(dt, friction, temperature)
    if state.forces is None:
        state.energy, state.forces = _eval_forces(forces_fn, state.positions, state, step)

    minv = 1.0 / (state.masses[:, None] * KCAL_PER_AMU_A2_FS2)
    v = state.velocities + 0.5 * dt * state.forces * minv
    x = state.positions + 0.5 * dt * v
    if friction > 0 and temperature > 0:
        c1 = np.exp(-friction * dt)
        sigma = np.sqrt((1.0 - c1 * c1) * K_B * temperature * minv)
        v = c1 * v + sigma * state.rng.normal(size=v.shape)
    x = x + 0.5 * dt * v
    energy, forces = _eval_forces(forces_fn, x, state, step)
    v = v + 0.5 * dt * forces * minv

    return MDState(
        positions=x, velocities=v, masses=state.masses,
        time=state.time + dt, rng=state.rng, forces=forces, energy=energy,
    )


@dataclass
class Trajectory:
    """Sampled frames plus per-step force-norm statistics."""

    species: np.ndarray
    times: np.ndarray  # (frames,)
    positions: np.ndarray  # (frames, n, 3)
    energies: np.ndarray  # (frames,)
    force_stats: list[dict]

    @property
    def n_frames(self) -> int:
        return len(self.times)


def run(
    config,
    forces_fn,
    steps: int,
    dt: float = 1.0,
    friction: float = 0.1,
    temperature: float = 500.0,
    seed: int = 0,
    sample_every: int = 1,
) -> Trajectory:
    """Propagate a configuration and record frames plus force statistics.

    Frames are stored at step 0 and every ``sample_every`` steps; the
    per-step log keeps {step, mean, q95, max} of the per-atom force
    norms. Deterministic for a fixed seed.
    """
    if steps < 0 or sample_every < 1:
        raise ValueError("steps must be nonnegative and sample_every positive")
    # before the first forces, so that a run of no steps checks them too
    _check_integrator(dt, friction, temperature)
    masses = masses_for(config.species)
    if temperature > 0:
        velocities = maxwell_boltzmann_init(temperature, masses, seed)
    else:
        velocities = np.zeros((len(masses), 3))
    state = MDState(
        positions=np.array(config.positions, dtype=float),
        velocities=velocities,
        masses=masses,
        rng=np.random.default_rng(seed + 1),
    )
    state.energy, state.forces = _eval_forces(forces_fn, state.positions, state, 0)

    times, frames, energies, stats = [0.0], [state.positions.copy()], [state.energy], []
    for step in range(1, steps + 1):
        state = langevin_step(state, forces_fn, dt, friction, temperature, step)
        norms = np.linalg.norm(state.forces, axis=1)
        stats.append({
            "step": step,
            "temperature": kinetic_temperature(state.velocities, state.masses),
            "mean": float(norms.mean()),
            "q95": float(np.percentile(norms, 95, method="linear")),
            "max": float(norms.max()),
        })
        if step % sample_every == 0:
            times.append(state.time)
            frames.append(state.positions.copy())
            energies.append(state.energy)
    return Trajectory(
        species=np.asarray(config.species, dtype=int),
        times=np.asarray(times),
        positions=np.stack(frames),
        energies=np.asarray(energies),
        force_stats=stats,
    )


@dataclass
class RdfResult:
    centers: np.ndarray
    g: np.ndarray
    counts: np.ndarray  # ordered pair counts per bin, before normalization
    bin_width: float


def rdf(trajectory, r_max: float, bins: int) -> RdfResult:
    """Cluster radial distribution over ordered pairs of all frames.

    There is no periodic volume, so the ideal-gas reference density uses
    the sphere of radius r_max: g_k = counts_k * V_ref / (frames *
    n(n-1) * V_shell_k). Distances at or beyond r_max are dropped;
    otherwise the raw counts sum to frames * n * (n-1) exactly.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    if not 0 < r_max < np.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    pos = trajectory.positions if hasattr(trajectory, "positions") else np.asarray(trajectory)
    if pos.ndim == 2:
        pos = pos[None]
    frames, n = pos.shape[0], pos.shape[1]
    if n < 2:
        raise ValueError("rdf needs at least two atoms")

    iu, ju = np.triu_indices(n, k=1)
    d = np.linalg.norm(pos[:, iu] - pos[:, ju], axis=-1).ravel()
    unordered, edges = np.histogram(d, bins=bins, range=(0.0, r_max))
    counts = unordered * 2  # each unordered pair stands for two ordered ones

    shell = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
    v_ref = 4.0 / 3.0 * np.pi * r_max**3
    expected = frames * n * (n - 1) * shell / v_ref
    g = counts / expected
    centers = 0.5 * (edges[:-1] + edges[1:])
    return RdfResult(centers=centers, g=g, counts=counts, bin_width=float(edges[1] - edges[0]))


def model_force_provider(model_state, species):
    """forces_fn closure over a trained model for the given atoms.

    The neighbor list is rebuilt every call; for the cluster systems this
    driver targets that costs far less than the model evaluation itself.
    """
    from . import backbone as bb

    species = np.asarray(species, dtype=int)

    def forces_fn(positions):
        cfg = bb.AtomicConfiguration(species=species, positions=positions)
        e, _, f = bb.energy_and_forces(cfg, model_state)
        return e, f

    return forces_fn

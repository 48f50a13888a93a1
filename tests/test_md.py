"""Dynamics tests: units, thermostat, integrator reductions, RDF, smoothing."""

import numpy as np
import pytest

from sphattn import md
from sphattn import training as tr
from sphattn.backbone import AtomicConfiguration


def dimer_config(r=2.0):
    return AtomicConfiguration(
        species=np.array([6, 6]), positions=np.array([[0.0, 0, 0], [r, 0, 0]])
    )


def zero_forces(positions):
    return 0.0, np.zeros_like(positions)


# ----------------------------------------------------------------------- units

def test_force_to_acceleration_constant():
    # independent route: one kcal/mol per particle in joules, divided by
    # the kilogram mass of one amu, expressed in A^2/fs^2
    joule_per_particle = 4184.0 / 6.02214076e23
    m2_s2 = joule_per_particle / 1.66053906660e-27
    a2_fs2 = m2_s2 * 1e-10
    assert md.KCAL_PER_AMU_A2_FS2 == pytest.approx(1.0 / a2_fs2, rel=1e-12)
    assert 2390.0 < md.KCAL_PER_AMU_A2_FS2 < 2390.1
    assert md.K_B == 0.0019872041


def test_masses_table():
    assert np.array_equal(md.masses_for([6, 1]), [12.011, 1.008])
    with pytest.raises(ValueError, match="atomic number 99"):
        md.masses_for([99])


# ------------------------------------------------------------- initialization

def test_maxwell_boltzmann_zero_momentum():
    masses = md.masses_for(np.full(50, 6))
    v = md.maxwell_boltzmann_init(300.0, masses, seed=3)
    p = (masses[:, None] * v).sum(axis=0)
    assert np.max(np.abs(p)) < 1e-10


def test_maxwell_boltzmann_equipartition():
    masses = md.masses_for(np.full(10_000, 6))
    v = md.maxwell_boltzmann_init(500.0, masses, seed=7)
    t_kin = md.kinetic_temperature(v, masses)
    assert abs(t_kin - 500.0) / 500.0 < 0.03


def test_maxwell_boltzmann_deterministic():
    masses = md.masses_for(np.full(20, 6))
    a = md.maxwell_boltzmann_init(500.0, masses, seed=11)
    b = md.maxwell_boltzmann_init(500.0, masses, seed=11)
    assert np.array_equal(a, b)
    c = md.maxwell_boltzmann_init(500.0, masses, seed=12)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        md.maxwell_boltzmann_init(0.0, masses)


def test_kinetic_temperature_formula():
    masses = np.array([2.0, 3.0])
    v = np.array([[0.01, 0.0, -0.02], [0.005, 0.015, 0.0]])
    ke = 0.5 * np.sum(masses[:, None] * v**2) * md.KCAL_PER_AMU_A2_FS2
    assert md.kinetic_temperature(v, masses) == pytest.approx(2 * ke / (6 * md.K_B))


def test_mdstate_validation():
    with pytest.raises(ValueError):
        md.MDState(np.zeros((2, 3)), np.zeros((3, 3)), np.ones(2))
    with pytest.raises(ValueError):
        md.MDState(np.zeros((2, 3)), np.zeros((2, 3)), np.array([1.0, -1.0]))


# ------------------------------------------------------------------ integrator

def test_zero_force_linear_drift():
    # dyadic velocity and time step keep every intermediate sum exact
    x0 = np.array([[0.25, 0.5, -1.0], [2.0, 0.0, 0.75]])
    v0 = np.array([[0.5, -0.25, 0.125], [0.0, 0.5, -0.5]])
    state = md.MDState(x0.copy(), v0.copy(), np.ones(2))
    for k in range(1, 11):
        state = md.langevin_step(state, zero_forces, dt=1.0, friction=0.0, temperature=0.0)
        assert np.array_equal(state.positions, x0 + v0 * k)
        assert np.array_equal(state.velocities, v0)


def test_baoab_reduces_to_velocity_verlet():
    rng = np.random.default_rng(5)
    pos = rng.normal(0, 1.5, (3, 3)) + np.array([0, 0, 3.0])
    masses = md.masses_for(np.full(3, 6))

    def springs(x):  # toy anharmonic potential, only smoothness matters
        center = x.mean(axis=0)
        d = x - center
        return float(np.sum(d**2)), -2.0 * d

    v0 = md.maxwell_boltzmann_init(300.0, masses, seed=1)
    state = md.MDState(pos.copy(), v0.copy(), masses)
    stepped = md.langevin_step(state, springs, dt=0.5, friction=0.0, temperature=0.0)

    # hand-rolled velocity Verlet
    minv = 1.0 / (masses[:, None] * md.KCAL_PER_AMU_A2_FS2)
    _, f0 = springs(pos)
    vh = v0 + 0.25 * f0 * minv
    x1 = pos + 0.5 * vh
    _, f1 = springs(x1)
    v1 = vh + 0.25 * f1 * minv

    assert np.allclose(stepped.positions, x1, rtol=0, atol=1e-15)
    assert np.allclose(stepped.velocities, v1, rtol=0, atol=1e-15)


def test_harmonic_oscillator_energy_conservation():
    # one carbon on a spring, omega = 0.02/fs, integrated for 1e5 steps
    m = 12.011
    omega = 0.02
    k = m * md.KCAL_PER_AMU_A2_FS2 * omega**2

    def spring(x):
        return float(0.5 * k * np.sum(x**2)), -k * x

    def total_energy(s):
        ke = 0.5 * float(np.sum(s.masses[:, None] * s.velocities**2)) * md.KCAL_PER_AMU_A2_FS2
        return ke + spring(s.positions)[0]

    state = md.MDState(np.array([[1.0, 0.0, 0.0]]), np.zeros((1, 3)), np.array([m]))
    e0 = total_energy(state)
    for _ in range(100_000):
        state = md.langevin_step(state, spring, dt=1.0, friction=0.0, temperature=0.0)
    assert abs(total_energy(state) - e0) / e0 < 1e-4


def test_thermostat_holds_target_temperature():
    state = md.MDState(
        positions=np.array([[0.0, 0, 0], [tr.MORSE_R0, 0, 0]]),
        velocities=md.maxwell_boltzmann_init(500.0, md.masses_for([6, 6]), seed=2),
        masses=md.masses_for([6, 6]),
        rng=np.random.default_rng(3),
    )
    temps = []
    for step in range(20_000):
        state = md.langevin_step(state, tr.morse_dimer, dt=1.0, friction=0.1, temperature=500.0)
        if step >= 2_000:
            temps.append(md.kinetic_temperature(state.velocities, state.masses))
    mean_t = float(np.mean(temps))
    assert abs(mean_t - 500.0) / 500.0 < 0.10


def test_langevin_step_validation():
    state = md.MDState(np.zeros((1, 3)), np.zeros((1, 3)), np.ones(1))
    with pytest.raises(ValueError):
        md.langevin_step(state, zero_forces, dt=0.0)
    with pytest.raises(ValueError):
        md.langevin_step(state, zero_forces, dt=1.0, friction=-0.1)


# ------------------------------------------------------------------ run driver

def test_run_zero_steps_keeps_initial_frame():
    traj = md.run(dimer_config(), tr.morse_dimer, steps=0, temperature=300.0, seed=0)
    assert traj.n_frames == 1
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.positions[0], dimer_config().positions)
    assert traj.force_stats == []


def test_run_sampling_and_stats():
    traj = md.run(dimer_config(1.6), tr.morse_dimer, steps=10, sample_every=3, seed=4)
    assert traj.n_frames == 4  # initial plus steps 3, 6, 9
    assert np.array_equal(traj.times, [0.0, 3.0, 6.0, 9.0])
    assert len(traj.force_stats) == 10
    rec = traj.force_stats[0]
    assert set(rec) == {"step", "temperature", "mean", "q95", "max"}
    assert rec["mean"] <= rec["q95"] <= rec["max"]
    assert rec["temperature"] >= 0.0


def test_trained_model_keeps_trimer_bonded_for_ten_thousand_steps():
    # end-to-end stability: a briefly trained small model must hold the
    # three-atom cluster together over a long run, max pair distance < 4 r0
    import sphattn.backbone as bb

    ds = tr.synth_dataset("trimer", 300, seed=6, noise_t=2.0)
    model = bb.new_model(ds.species_vocabulary(), seed=5, channels=8, d=8,
                         l_max=1, layers=2, n_bessel=6, grid=(4, 8))
    tr.init_reference_energies(model, ds.split("train"))
    cfg = tr.TrainConfig(steps=400, batch_size=16, lr=0.02, seed=0, val_every=200)
    res = tr.train(ds, model, cfg)
    assert not res.diverged

    th = tr.ANGULAR_THETA0
    config = AtomicConfiguration(
        species=np.full(3, tr.SYNTH_Z),
        positions=np.array([
            [0.0, 0.0, 0.0],
            [tr.MORSE_R0, 0.0, 0.0],
            [tr.MORSE_R0 * np.cos(th), tr.MORSE_R0 * np.sin(th), 0.0],
        ]),
    )
    provider = md.model_force_provider(res.state, config.species)
    traj = md.run(config, provider, steps=10_000, dt=1.0, friction=0.1,
                  temperature=250.0, seed=3)
    assert np.all(np.isfinite(traj.positions))
    assert np.all(np.isfinite(traj.energies))
    max_dist = max(
        np.linalg.norm(p[i] - p[j])
        for p in traj.positions for i in range(3) for j in range(i + 1, 3)
    )
    assert max_dist < 4 * tr.MORSE_R0


def test_run_deterministic_for_fixed_seed():
    a = md.run(dimer_config(1.6), tr.morse_dimer, steps=50, seed=9)
    b = md.run(dimer_config(1.6), tr.morse_dimer, steps=50, seed=9)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.energies, b.energies)
    c = md.run(dimer_config(1.6), tr.morse_dimer, steps=50, seed=10)
    assert not np.array_equal(a.positions, c.positions)


def test_abort_carries_diagnostic_frame():
    calls = {"n": 0}

    def flaky(positions):
        calls["n"] += 1
        if calls["n"] > 5:
            f = np.zeros_like(positions)
            f[0, 0] = np.nan
            return 0.0, f
        return 0.0, np.zeros_like(positions)

    with pytest.raises(md.SimulationAbortError) as err:
        md.run(dimer_config(), flaky, steps=100, temperature=300.0, seed=1)
    frame = err.value.frame
    assert frame["bad_atoms"] == [0]
    assert frame["step"] >= 1
    assert frame["positions"].shape == (2, 3)

    def broken(positions):
        return np.inf, np.zeros_like(positions)

    with pytest.raises(md.SimulationAbortError):
        md.run(dimer_config(), broken, steps=1, temperature=300.0, seed=1)

    def overflowing(positions):  # model providers raise instead of returning nan
        raise FloatingPointError("logits overflow")

    with pytest.raises(md.SimulationAbortError) as err:
        md.run(dimer_config(), overflowing, steps=1, temperature=300.0, seed=1)
    assert err.value.frame["step"] == 0


# ------------------------------------------------------------------------- rdf

def test_rdf_static_dimer_single_bin():
    frames = np.array([[[0.0, 0, 0], [2.0, 0, 0]]])
    res = md.rdf(frames, r_max=4.0, bins=8)
    nonzero = np.nonzero(res.counts)[0]
    assert len(nonzero) == 1
    lo = res.centers[nonzero[0]] - res.bin_width / 2
    hi = res.centers[nonzero[0]] + res.bin_width / 2
    assert lo <= 2.0 < hi
    assert res.counts.sum() == 2  # one unordered pair, two ordered


def test_rdf_total_counts_and_duplication():
    rng = np.random.default_rng(13)
    frames = rng.normal(0, 2.0, (7, 5, 3))
    res = md.rdf(frames, r_max=50.0, bins=64)
    assert res.counts.sum() == 7 * 5 * 4

    doubled = md.rdf(np.concatenate([frames, frames]), r_max=50.0, bins=64)
    assert np.array_equal(doubled.g, res.g)
    assert np.array_equal(doubled.counts, 2 * res.counts)


def test_rdf_matches_bruteforce_oracle():
    rng = np.random.default_rng(17)
    frames = rng.normal(0, 1.5, (4, 6, 3))
    r_max, bins = 6.0, 12
    res = md.rdf(frames, r_max=r_max, bins=bins)

    counts = np.zeros(bins, dtype=int)
    width = r_max / bins
    for frame in frames:
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                d = np.linalg.norm(frame[i] - frame[j])
                if d < r_max:
                    counts[min(int(d / width), bins - 1)] += 1
    assert np.array_equal(res.counts, counts)

    shell = 4 / 3 * np.pi * ((np.arange(1, bins + 1) * width) ** 3 - (np.arange(bins) * width) ** 3)
    expected = 4 * 6 * 5 * shell / (4 / 3 * np.pi * r_max**3)
    assert np.allclose(res.g, counts / expected)


def test_rdf_validation():
    frames = np.zeros((1, 2, 3))
    frames[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        md.rdf(frames, r_max=4.0, bins=0)
    with pytest.raises(ValueError):
        md.rdf(frames, r_max=0.0, bins=4)
    for r_max in (np.nan, np.inf):
        with pytest.raises(ValueError, match="r_max must be positive and finite"):
            md.rdf(frames, r_max=r_max, bins=4)
    with pytest.raises(ValueError):
        md.rdf(np.zeros((1, 1, 3)), r_max=4.0, bins=4)


def test_model_force_provider_drives_run():
    from sphattn import backbone as bb

    state = bb.new_model([6], seed=0, channels=8, d=8, l_max=0, layers=1, cutoff=4.0)
    species = np.array([6, 6, 6])
    provider = md.model_force_provider(state, species)
    pos = np.array([[0.0, 0, 0], [1.6, 0, 0], [0.0, 1.6, 0]])
    e, f = provider(pos)
    assert np.isfinite(e) and np.all(np.isfinite(f))

    cfg = AtomicConfiguration(species=species, positions=pos)
    traj = md.run(cfg, provider, steps=5, temperature=300.0, seed=6)
    assert traj.n_frames == 6
    assert np.all(np.isfinite(traj.positions))


# -------------------------------------------------------------- moving average

def test_moving_average_identity_and_constant():
    s = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    assert np.array_equal(md.moving_average(s, 1), s)
    const = np.full(10, 2.5)
    assert np.array_equal(md.moving_average(const, 5), const)
    with pytest.raises(ValueError):
        md.moving_average(s, 0)


def test_moving_average_matches_windowed_oracle():
    rng = np.random.default_rng(19)
    s = rng.normal(size=40)
    got = md.moving_average(s, 5)
    for i in range(40):
        lo, hi = max(0, i - 2), min(40, i + 3)
        assert got[i] == pytest.approx(s[lo:hi].mean(), rel=1e-14)


def test_moving_average_wide_window_collapses_to_global_mean():
    s = np.array([1.0, 2.0, 6.0])
    out = md.moving_average(s, 7)
    assert np.allclose(out, s.mean())

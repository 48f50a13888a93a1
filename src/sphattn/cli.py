"""Command-line surface: grids, equivariance reports, training, dynamics, maps.

Every subcommand that takes --out writes its artifacts there together
with a manifest.json recording the command, the resolved configuration,
the seed, the artifact names, and the environment: the numpy version,
the five BLAS thread variables (null when unset) and whether freed
memory is kept in the process (``autodiff.HEAP_RETAINED``). Rerunning
with the same inputs reproduces every artifact byte for byte; the
manifest's timestamps are the single exception. Option values resolve
as flag > config file > built-in default; the config file is flat
``key = value`` text, and ``REGISTRY`` below lists every key it may set
with the parser of its value.

--threads pins all BLAS thread-pool sizes before numpy is first
imported, which is what makes --threads 1 bit-reproducible. That only
works when this module is the process entry point (the installed script
or python -m sphattn.cli); importing the package first and calling
main() afterwards leaves the pools at whatever numpy picked up.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

UNGATED_ENERGY_TOL = 1e-10
UNGATED_FORCE_TOL = 1e-9
QUADRATURE_TOL = 1e-10


class CommandError(Exception):
    """User-facing CLI failure; printed without a traceback."""


def _bool_word(s: str) -> bool:
    t = s.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise CommandError(f"not a boolean: {s!r}")


# config-file key registry: every key a flat file may set, with its parser
REGISTRY = {
    "ntheta": int, "nphi": int,
    "seed": int, "out": str,
    "checkpoint": str, "system": str, "data": str, "split": str,
    "rotations": int, "grids": str, "translation_only": _bool_word,
    "steps": int, "batch_size": int, "lr": float, "lr_schedule": str,
    "lam_e": float, "lam_f": float, "val_every": int,
    "data_size": int, "data_noise": float, "data_seed": int,
    "cutoff": float, "l_max": int, "layers": int, "channels": int,
    "n_bessel": int, "grid": str, "d": int, "heads": int,
    "gate_activation": str, "field_mode": str,
    "gating": _bool_word, "positional_encoding": _bool_word, "learnable": _bool_word,
    "random_gate": _bool_word,
    "dt": float, "friction": float, "temp": float,
    "sample_every": int, "rdf_bins": int, "rdf_rmax": float,
    "mode": str, "atom": int, "center": int, "probe": int,
    "path_from": str, "path_to": str, "radius": float,
    "sweep_grid": str, "model_grid": str,
}

MODEL_KEYS = (
    "cutoff", "l_max", "layers", "channels", "n_bessel", "d", "heads",
    "gate_activation", "field_mode", "gating", "positional_encoding", "learnable",
)


def _set_threads(n: int) -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read config file: {exc}")
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CommandError(f"{path}:{i}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in REGISTRY:
            raise CommandError(f"{path}:{i}: unknown config key {key!r}")
        values[key] = val.strip()
    return values


def _opt(args, key: str, default=None, required: bool = False):
    """One option value under flag > config file > default precedence."""
    val = getattr(args, key, None)
    if val is None:
        stored = getattr(args, "_file_values", {})
        if key in stored:
            try:
                val = REGISTRY[key](stored[key])
            except ValueError as exc:
                raise CommandError(f"config key {key}: {exc}")
    if val is None:
        val = default
    if val is None and required:
        raise CommandError(f"missing required option --{key.replace('_', '-')}")
    return val


def _as_grid(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    parts = str(value).lower().split("x")
    if len(parts) != 2:
        raise CommandError(f"grid must look like 8x16, got {value!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise CommandError(f"grid must look like 8x16, got {value!r}")


def _parse_grids(spec: str) -> list[tuple[int, int]]:
    return [_as_grid(part) for part in str(spec).split(",") if part.strip()]


def _vec3(spec: str) -> tuple[float, float, float]:
    parts = str(spec).split(",")
    if len(parts) != 3:
        raise CommandError(f"expected x,y,z coordinates, got {spec!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise CommandError(f"expected x,y,z coordinates, got {spec!r}")


# ----------------------------------------------------------------- artifacts

def _out_dir(args) -> Path | None:
    out = _opt(args, "out")
    if out is None:
        return None
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(header, rows))


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _write_jsonl(path: Path, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _write_manifest(out: Path, command: str, config: dict, seed, artifacts: list[str]) -> None:
    import numpy as np

    from . import autodiff as ad

    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifacts": sorted(artifacts),
        "numpy_version": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "heap_retained": ad.HEAP_RETAINED,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _emit(out: Path | None, command: str, config: dict, seed, tables: dict[str, tuple],
          records: list[dict], extra_artifacts: tuple = ()) -> None:
    """Write tables, the log, and the manifest, or dump tables to stdout."""
    if out is None:
        for name, (header, rows) in tables.items():
            sys.stdout.write(_csv_text(header, rows))
        return
    artifacts = list(extra_artifacts)
    for name, (header, rows) in tables.items():
        _write_csv(out / name, header, rows)
        artifacts.append(name)
    _write_jsonl(out / "log.jsonl", records)
    artifacts.append("log.jsonl")
    _write_manifest(out, command, config, seed, artifacts + ["manifest.json"])


# ------------------------------------------------------------ shared loaders

def _load_system(spec: str, seed: int):
    """AtomicConfiguration from a file path or a built-in geometry spec.

    synth:morse and synth:trimer give the synthetic potentials' rest
    geometries; cloud:N gives a seeded random N-atom carbon cloud; any
    other spec is read as an extended-XYZ file (first frame).
    """
    import numpy as np

    from . import training as tr
    from .backbone import AtomicConfiguration

    if spec == "synth:morse":
        pos = np.array([[0.0, 0.0, 0.0], [tr.MORSE_R0, 0.0, 0.0]])
        return AtomicConfiguration(species=np.full(2, tr.SYNTH_Z), positions=pos)
    if spec == "synth:trimer":
        r0, th = tr.MORSE_R0, tr.ANGULAR_THETA0
        pos = np.array([
            [0.0, 0.0, 0.0],
            [r0, 0.0, 0.0],
            [r0 * math.cos(th), r0 * math.sin(th), 0.0],
        ])
        return AtomicConfiguration(species=np.full(3, tr.SYNTH_Z), positions=pos)
    if spec.startswith("cloud:"):
        try:
            n = int(spec[len("cloud:"):])
        except ValueError:
            raise CommandError(f"bad system spec {spec!r}")
        if n < 1:
            raise CommandError("cloud size must be positive")
        rng = np.random.default_rng(seed)
        return AtomicConfiguration(
            species=np.full(n, tr.SYNTH_Z), positions=rng.normal(0.0, 1.2, (n, 3))
        )
    if spec.startswith("synth:"):
        raise CommandError(f"unknown synthetic system {spec!r}")
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read system file: {exc}")
    ds = tr.parse_extxyz(text)
    return ds.samples[0]


def _load_dataset(args, spec: str):
    from . import training as tr

    size = _opt(args, "data_size", 2000)
    noise = _opt(args, "data_noise", 1.0)
    dseed = _opt(args, "data_seed", 0)
    if spec.startswith("synth:"):
        return tr.synth_dataset(spec[len("synth:"):], n=size, seed=dseed, noise_t=noise)
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read data file: {exc}")
    ds = tr.parse_extxyz(text)
    if not ds.splits:
        ds = tr.split_dataset(ds, seed=dseed)
    return ds


def _model_overrides(args, grid_key: str = "grid") -> dict:
    overrides = {}
    for key in MODEL_KEYS:
        val = _opt(args, key)
        if val is not None:
            overrides[key] = val
    grid = _opt(args, grid_key)
    if grid is not None:
        overrides["grid"] = _as_grid(grid)
    return overrides


def _load_model(args, species, grid_key: str = "grid"):
    """Model from --checkpoint or --random-model, plus a source label."""
    from . import backbone as bb
    from . import training as tr

    ckpt = _opt(args, "checkpoint")
    if getattr(args, "random_model", False):
        if ckpt:
            raise CommandError("--checkpoint and --random-model are mutually exclusive")
        overrides = _model_overrides(args, grid_key)
        state = bb.new_model(
            species,
            seed=_opt(args, "seed", 0),
            random_gate=bool(_opt(args, "random_gate", False)),
            **overrides,
        )
        return state, "random-model"
    if ckpt is None:
        raise CommandError("provide --checkpoint or --random-model")
    try:
        state, _meta = tr.load_checkpoint(ckpt)
    except OSError as exc:
        raise CommandError(f"cannot read checkpoint: {exc}")
    return state, ckpt


# ------------------------------------------------------------------ commands

def cmd_grid(args) -> int:
    import numpy as np

    from . import geometry as geo

    ntheta = _opt(args, "ntheta", required=True)
    nphi = _opt(args, "nphi", required=True)
    grid = geo.build_equiangular_grid(ntheta, nphi)

    z = np.clip(grid.points[:, 2], -1.0, 1.0)
    theta = np.arccos(z)
    phi = np.mod(np.arctan2(grid.points[:, 1], grid.points[:, 0]), 2.0 * np.pi)
    rows = [
        (i, theta[i], phi[i], *grid.points[i], grid.weights[i])
        for i in range(grid.n_points)
    ]

    residual = abs(float(grid.weights.sum()) - 4.0 * np.pi)
    ok = residual <= QUADRATURE_TOL
    harmonics = geo.real_spherical_harmonics(2, grid.points)
    integrals = grid.weights @ harmonics
    report = {
        "event": "quadrature-selftest",
        "n_points": grid.n_points,
        "weight_sum": float(grid.weights.sum()),
        "residual": residual,
        "tolerance": QUADRATURE_TOL,
        "harmonic_l1_max": float(np.max(np.abs(integrals[1:4]))),
        "harmonic_l2_max": float(np.max(np.abs(integrals[4:9]))),
        "ok": ok,
    }

    config = {"ntheta": ntheta, "nphi": nphi}
    _emit(_out_dir(args), "grid", config, None,
          {"grid.csv": (["index", "theta", "phi", "x", "y", "z", "weight"], rows)},
          [report])
    print(f"grid {ntheta}x{nphi}: {grid.n_points} points, "
          f"quadrature residual {residual:.3e} "
          f"{'ok' if ok else 'VIOLATION (tolerance 1e-10)'}", file=sys.stderr)
    return 0 if ok else 1


def cmd_check_equivariance(args) -> int:
    import numpy as np

    from . import backbone as bb
    from . import geometry as geo

    seed = _opt(args, "seed", 0)
    rotations = _opt(args, "rotations", 50)
    if rotations < 1:
        raise CommandError("need at least one rigid motion")
    translation_only = bool(_opt(args, "translation_only", False))
    system = _load_system(_opt(args, "system", "cloud:5"), seed)
    state, source = _load_model(args, system.species.tolist())
    native = tuple(state.config["grid"])
    grids_opt = _opt(args, "grids")
    grids = _parse_grids(grids_opt) if grids_opt else [native]

    rng = np.random.default_rng(seed + 1)
    motions = [
        geo.random_rigid_motion(rng, rotate=not translation_only)
        for _ in range(rotations)
    ]

    header = [
        "grid", "rotations",
        "median_energy_dev", "max_energy_dev",
        "median_force_dev", "max_force_dev",
        "median_alpha_dev", "max_alpha_dev",
        "ungated_max_energy_dev", "ungated_max_force_dev", "ungated_ok",
    ]
    rows, records = [], []
    violation = False
    for g in grids:
        st = state if g == native else bb.with_grid(state, g)
        gated = st.config["gating"]
        e0, _, f0 = bb.energy_and_forces(system, st)
        edges0, trace0 = bb.model_edge_gates(system, st)
        if gated:
            ue0, _, uf0 = bb.energy_and_forces(system, st, gate_override=1.0)
        else:
            ue0, uf0 = e0, f0

        de, df, da, ude, udf = [], [], [], [], []
        for motion in motions:
            moved = bb.AtomicConfiguration(
                species=system.species,
                positions=geo.apply_rigid(motion, system.positions),
            )
            rot = motion.rotation
            e2, _, f2 = bb.energy_and_forces(moved, st)
            de.append(abs(e2 - e0))
            df.append(float(np.max(np.abs(f2 - f0 @ rot.T))))
            edges2, trace2 = bb.model_edge_gates(moved, st)
            if np.array_equal(edges0, edges2):
                da.append(max(
                    (float(np.max(np.abs(t2["alpha"] - t0["alpha"])))
                     for t0, t2 in zip(trace0, trace2)),
                    default=0.0,
                ))
            else:  # an edge crossed the cutoff under float wobble
                da.append(float("nan"))
            if gated:
                ue2, _, uf2 = bb.energy_and_forces(moved, st, gate_override=1.0)
                ude.append(abs(ue2 - ue0))
                udf.append(float(np.max(np.abs(uf2 - uf0 @ rot.T))))
            else:
                ude.append(de[-1])
                udf.append(df[-1])

        grid_ok = max(ude) <= UNGATED_ENERGY_TOL and max(udf) <= UNGATED_FORCE_TOL
        violation = violation or not grid_ok
        row = (
            f"{g[0]}x{g[1]}", rotations,
            float(np.median(de)), float(np.max(de)),
            float(np.median(df)), float(np.max(df)),
            float(np.median(da)), float(np.max(da)),
            float(np.max(ude)), float(np.max(udf)), grid_ok,
        )
        rows.append(row)
        records.append({"event": "equivariance", **dict(zip(header, row))})
        print(f"grid {g[0]}x{g[1]}: energy dev median {np.median(de):.3e} "
              f"max {np.max(de):.3e}, alpha dev median {np.median(da):.3e}, "
              f"ungated max dev {max(max(ude), max(udf)):.3e} "
              f"{'ok' if grid_ok else 'VIOLATION'}", file=sys.stderr)

    config = {
        "system": _opt(args, "system", "cloud:5"), "model": source,
        "rotations": rotations, "translation_only": translation_only,
        "grids": [f"{a}x{b}" for a, b in grids],
    }
    _emit(_out_dir(args), "check-equivariance", config, seed,
          {"equivariance.csv": (header, rows)}, records)
    return 1 if violation else 0


def cmd_train(args) -> int:
    from . import backbone as bb
    from . import training as tr

    out = _out_dir(args)
    if out is None:
        raise CommandError("train needs --out for the checkpoint")
    data_spec = _opt(args, "data", required=True)
    seed = _opt(args, "seed", 0)
    ds = _load_dataset(args, data_spec)
    if "train" not in ds.splits or "valid" not in ds.splits:
        raise CommandError("dataset needs train and valid splits")

    overrides = _model_overrides(args)
    state = bb.new_model(ds.species_vocabulary(), seed=seed, **overrides)
    tr.init_reference_energies(state, ds.split("train"))

    tcfg = tr.TrainConfig(
        steps=_opt(args, "steps", 2000),
        batch_size=_opt(args, "batch_size", 16),
        lr=_opt(args, "lr", 0.01),
        lr_schedule=_opt(args, "lr_schedule", "constant"),
        lam_e=_opt(args, "lam_e", 1.0),
        lam_f=_opt(args, "lam_f", 100.0),
        seed=seed,
        val_every=_opt(args, "val_every", 100),
    )
    result = tr.train(ds, state, tcfg)
    final = tr.evaluate(ds.split("valid"), result.state)

    metadata = {
        "data": data_spec,
        "seed": seed,
        "train_steps": tcfg.steps,
        "diverged": result.diverged,
        "final_valid": {k: float(v) for k, v in final.items()},
    }
    tr.save_checkpoint(result.state, str(out / "checkpoint.json"), metadata)

    history_rows = [
        (r["step"], r["split"], r["metric"], r["value"]) for r in result.history
    ]
    config = {
        "data": data_spec, "model_overrides": {
            k: (list(v) if isinstance(v, tuple) else v) for k, v in overrides.items()
        },
        "steps": tcfg.steps, "batch_size": tcfg.batch_size, "lr": tcfg.lr,
        "lr_schedule": tcfg.lr_schedule, "lam_e": tcfg.lam_e, "lam_f": tcfg.lam_f,
        "val_every": tcfg.val_every,
    }
    _emit(out, "train", config, seed,
          {"history.csv": (["step", "split", "metric", "value"], history_rows)},
          result.history, extra_artifacts=("checkpoint.json",))
    status = "DIVERGED" if result.diverged else "done"
    print(f"train {status}: {tcfg.steps} steps, "
          f"valid energy MAE {final['energy_mae']:.6g}, "
          f"force MAE {final['force_mae']:.6g} -> {out / 'checkpoint.json'}",
          file=sys.stderr)
    return 1 if result.diverged else 0


def cmd_md(args) -> int:
    import numpy as np

    from . import backbone as bb
    from . import md as md_mod
    from . import training as tr

    seed = _opt(args, "seed", 0)
    steps = _opt(args, "steps", 10_000)
    dt = _opt(args, "dt", 1.0)
    friction = _opt(args, "friction", 0.1)
    temp = _opt(args, "temp", 500.0)
    sample_every = _opt(args, "sample_every", 1)
    rdf_bins = _opt(args, "rdf_bins", 50)
    rdf_rmax = _opt(args, "rdf_rmax", 5.0)

    system = _load_system(_opt(args, "system", required=True), seed)
    state, source = _load_model(args, system.species.tolist())
    provider = md_mod.model_force_provider(state, system.species)

    config = {
        "system": _opt(args, "system"), "model": source, "steps": steps,
        "dt": dt, "friction": friction, "temp": temp,
        "sample_every": sample_every, "rdf_bins": rdf_bins, "rdf_rmax": rdf_rmax,
    }
    out = _out_dir(args)
    try:
        traj = md_mod.run(
            system, provider, steps=steps, dt=dt, friction=friction,
            temperature=temp, seed=seed, sample_every=sample_every,
        )
    except md_mod.SimulationAbortError as exc:
        frame = exc.frame or {}
        print(f"md ABORTED: {exc}", file=sys.stderr)
        if out is not None:
            record = {
                "event": "abort", "message": str(exc),
                "step": frame.get("step"), "time": frame.get("time"),
                "bad_atoms": frame.get("bad_atoms"),
            }
            _write_jsonl(out / "log.jsonl", [record])
            _write_manifest(out, "md", config, seed, ["log.jsonl", "manifest.json"])
        return 1

    stats_header = ["step", "temperature", "mean_force", "q95_force", "max_force"]
    stats_rows = [
        (r["step"], r["temperature"], r["mean"], r["q95"], r["max"])
        for r in traj.force_stats
    ]
    avg_t = float(np.mean([r["temperature"] for r in traj.force_stats])) if traj.force_stats else None

    tables = {"stats.csv": (stats_header, stats_rows)}
    records: list[dict] = [{"event": "md", "steps": steps, "avg_temperature": avg_t}]
    peak = None
    if system.n_atoms >= 2:
        rdf = md_mod.rdf(traj, r_max=rdf_rmax, bins=rdf_bins)
        peak = float(rdf.centers[int(np.argmax(rdf.g))])
        tables["rdf.csv"] = (
            ["r", "g", "count"],
            list(zip(rdf.centers, rdf.g, rdf.counts)),
        )
        records.append({"event": "rdf", "first_peak": peak, "bin_width": rdf.bin_width})

    if out is not None:
        frames = [
            bb.AtomicConfiguration(
                species=traj.species, positions=traj.positions[i],
                energy=float(traj.energies[i]),
            )
            for i in range(traj.n_frames)
        ]
        (out / "trajectory.extxyz").write_text(tr.write_extxyz(tr.Dataset(samples=frames)))
        _emit(out, "md", config, seed, tables, records,
              extra_artifacts=("trajectory.extxyz",))
    t_txt = "n/a" if avg_t is None else f"{avg_t:.1f} K"
    peak_txt = "n/a" if peak is None else f"{peak:.3f} A"
    print(f"md done: {steps} steps of {dt} fs, <T> = {t_txt}, rdf peak at {peak_txt}",
          file=sys.stderr)
    return 0


def cmd_attention_map(args) -> int:
    import numpy as np

    from . import backbone as bb

    seed = _opt(args, "seed", 0)
    mode = _opt(args, "mode", required=True)
    system = _load_system(_opt(args, "system", required=True), seed)
    state, source = _load_model(args, system.species.tolist(), grid_key="model_grid")
    layers = state.config["layers"]
    n = system.n_atoms

    alpha_cols = [f"alpha_layer{t}" for t in range(layers)]
    pooled_cols = [f"pooled_layer{t}" for t in range(layers)]

    def gate_row(edges, trace, recv, send):
        sel = np.nonzero((edges[:, 0] == recv) & (edges[:, 1] == send))[0]
        if len(sel):
            i = sel[0]
            return ([float(t["alpha"][i]) for t in trace],
                    [float(t["pooled_norm"][i]) for t in trace])
        nan = float("nan")  # pair out of cutoff range at this placement
        return [nan] * layers, [nan] * layers

    rows = []
    if mode == "radial":
        probe = _opt(args, "atom", required=True)
        if not 0 <= probe < n:
            raise CommandError(f"--atom must index an atom (0..{n - 1})")
        p0 = np.array(_vec3(_opt(args, "path_from", required=True)))
        p1 = np.array(_vec3(_opt(args, "path_to", required=True)))
        steps = _opt(args, "steps", 100)
        if steps < 1:
            raise CommandError("need at least one sweep step")
        neighbors = [j for j in range(n) if j != probe]
        header = ["step", "t", "neighbor", "distance"] + alpha_cols + pooled_cols
        for s in range(steps):
            t = s / (steps - 1) if steps > 1 else 0.0
            pos = system.positions.copy()
            pos[probe] = p0 + t * (p1 - p0)
            cfg = bb.AtomicConfiguration(species=system.species, positions=pos)
            edges, trace = bb.model_edge_gates(cfg, state)
            for j in neighbors:
                alphas, pooled = gate_row(edges, trace, probe, j)
                dist = float(np.linalg.norm(pos[j] - pos[probe]))
                rows.append((s, t, j, dist, *alphas, *pooled))
        config = {
            "mode": mode, "system": _opt(args, "system"), "model": source,
            "atom": probe, "from": list(p0), "to": list(p1), "steps": steps,
        }
    elif mode == "angular":
        center = _opt(args, "center", required=True)
        probe = _opt(args, "probe", required=True)
        if not (0 <= center < n and 0 <= probe < n) or center == probe:
            raise CommandError("--center and --probe must index distinct atoms")
        radius = _opt(args, "radius", 1.0)
        if radius <= 0:
            raise CommandError("--radius must be positive")
        m_theta, n_phi = _as_grid(_opt(args, "sweep_grid", required=True))
        header = ["theta", "phi", "x", "y", "z"] + alpha_cols + pooled_cols
        for i in range(m_theta):
            theta = (i + 0.5) * (np.pi / 2.0) / m_theta  # upper hemisphere
            for j in range(n_phi):
                phi = 2.0 * np.pi * j / n_phi
                direction = np.array([
                    np.sin(theta) * np.cos(phi),
                    np.sin(theta) * np.sin(phi),
                    np.cos(theta),
                ])
                pos = system.positions.copy()
                pos[probe] = pos[center] + radius * direction
                cfg = bb.AtomicConfiguration(species=system.species, positions=pos)
                alphas, pooled = gate_row(*bb.model_edge_gates(cfg, state), center, probe)
                rows.append((theta, phi, *pos[probe], *alphas, *pooled))
        config = {
            "mode": mode, "system": _opt(args, "system"), "model": source,
            "center": center, "probe": probe, "radius": radius,
            "sweep_grid": f"{m_theta}x{n_phi}",
        }
    else:
        raise CommandError(f"--mode must be radial or angular, got {mode!r}")

    _emit(_out_dir(args), "attention-map", config, seed,
          {"map.csv": (header, rows)},
          [{"event": "attention-map", "rows": len(rows), **config}])
    print(f"attention-map {mode}: {len(rows)} rows", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from . import training as tr

    seed = _opt(args, "seed", 0)
    data_spec = _opt(args, "data", required=True)
    split = _opt(args, "split", "test")
    state, source = _load_model(args, [])
    ds = _load_dataset(args, data_spec)
    if split == "all":
        samples = list(ds.samples)
    else:
        if split not in ds.splits:
            raise CommandError(f"dataset has no split {split!r}; "
                               f"available: {sorted(ds.splits)} or all")
        samples = ds.split(split)
    if not samples:
        raise CommandError(f"split {split!r} is empty")
    if any(s.energy is None for s in samples):
        raise CommandError("every frame needs an energy label for evaluation")

    pred = tr.predict(samples, state)
    e_err = list(np.abs(pred.energies - np.array([s.energy for s in samples])))
    f_err, offset = [], 0
    for s, count in zip(samples, pred.n_atoms):
        if s.forces is not None:
            f_err.extend(np.abs(pred.forces[offset:offset + count] - s.forces).ravel())
        offset += count

    header = ["target", "mae", "q95", "q99", "max"]
    rows, records = [], []
    for target, errors in (("energy", e_err), ("force", f_err)):
        if not errors:
            continue
        metrics = tr.tail_metrics(np.asarray(errors))
        rows.append((target, metrics["MAE"], metrics["Q95"], metrics["Q99"], metrics["MAX"]))
        records.append({"event": "eval", "target": target,
                        **{k.lower(): float(v) for k, v in metrics.items()}})
        print(f"eval {target}: MAE {metrics['MAE']:.6g}, Q95 {metrics['Q95']:.6g}, "
              f"Q99 {metrics['Q99']:.6g}, MAX {metrics['MAX']:.6g}", file=sys.stderr)

    config = {"data": data_spec, "split": split, "model": source,
              "n_samples": len(samples)}
    _emit(_out_dir(args), "eval", config, seed, {"metrics.csv": (header, rows)}, records)
    return 0


# -------------------------------------------------------------------- parser

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output directory (artifacts + manifest)")


def _add_model_args(p: argparse.ArgumentParser, grid_flag: str = "--grid") -> None:
    p.add_argument("--cutoff", type=float)
    p.add_argument("--l-max", dest="l_max", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--n-bessel", dest="n_bessel", type=int)
    p.add_argument(grid_flag, dest=grid_flag.lstrip("-").replace("-", "_"),
                   help="attention grid, e.g. 4x8")
    p.add_argument("--d", type=int, help="attention width")
    p.add_argument("--heads", type=int)
    p.add_argument("--gate-activation", dest="gate_activation",
                   choices=("logistic", "sinusoidal"))
    p.add_argument("--field-mode", dest="field_mode")
    p.add_argument("--no-gating", dest="gating", action="store_const", const=False)
    p.add_argument("--no-positional-encoding", dest="positional_encoding",
                   action="store_const", const=False)
    p.add_argument("--freeze-projections", dest="learnable",
                   action="store_const", const=False)


def _add_model_source(p: argparse.ArgumentParser, grid_flag: str = "--grid") -> None:
    p.add_argument("--checkpoint")
    p.add_argument("--random-model", dest="random_model", action="store_true")
    p.add_argument("--random-gate", dest="random_gate", action="store_const", const=True,
                   help="draw nonzero gate weights for --random-model")
    _add_model_args(p, grid_flag)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphattn",
        description="spherical-attention potential: grids, training, dynamics, reports",
    )
    parser.add_argument("--threads", type=int,
                        help="pin BLAS pools to N threads (1 = bit-reproducible)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("grid", help="dump a quadrature grid and self-test it")
    p.add_argument("--ntheta", type=int)
    p.add_argument("--nphi", type=int)
    _add_common(p)
    p.set_defaults(handler=cmd_grid)

    p = sub.add_parser("check-equivariance",
                       help="deviation of energy/forces/gates under rigid motions")
    p.add_argument("--system", help="file | synth:morse | synth:trimer | cloud:N")
    p.add_argument("--rotations", type=int)
    p.add_argument("--grids", help="comma-separated grid list, e.g. 4x8,8x16,16x32")
    p.add_argument("--translation-only", dest="translation_only",
                   action="store_const", const=True)
    _add_model_source(p)
    _add_common(p)
    p.set_defaults(handler=cmd_check_equivariance)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--data", help="file | synth:morse | synth:trimer")
    p.add_argument("--data-size", dest="data_size", type=int)
    p.add_argument("--data-noise", dest="data_noise", type=float)
    p.add_argument("--data-seed", dest="data_seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-schedule", dest="lr_schedule", choices=("constant", "linear"))
    p.add_argument("--lam-e", dest="lam_e", type=float)
    p.add_argument("--lam-f", dest="lam_f", type=float)
    p.add_argument("--val-every", dest="val_every", type=int)
    _add_model_args(p)
    _add_common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("md", help="Langevin dynamics with a model force provider")
    p.add_argument("--system", help="file | synth:morse | synth:trimer | cloud:N")
    p.add_argument("--steps", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--friction", type=float)
    p.add_argument("--temp", type=float)
    p.add_argument("--sample-every", dest="sample_every", type=int)
    p.add_argument("--rdf-bins", dest="rdf_bins", type=int)
    p.add_argument("--rdf-rmax", dest="rdf_rmax", type=float)
    _add_model_source(p)
    _add_common(p)
    p.set_defaults(handler=cmd_md)

    p = sub.add_parser("attention-map",
                       help="gate values along a line sweep or a hemisphere sweep")
    p.add_argument("--mode", choices=("radial", "angular"))
    p.add_argument("--system", help="file | synth:morse | synth:trimer | cloud:N")
    p.add_argument("--atom", type=int, help="radial mode: probe atom index")
    p.add_argument("--from", dest="path_from", help="radial mode: start x,y,z")
    p.add_argument("--to", dest="path_to", help="radial mode: end x,y,z")
    p.add_argument("--steps", type=int, help="radial mode: sweep steps")
    p.add_argument("--center", type=int, help="angular mode: anchor atom index")
    p.add_argument("--probe", type=int, help="angular mode: swept atom index")
    p.add_argument("--radius", type=float, help="angular mode: sweep radius")
    p.add_argument("--grid", dest="sweep_grid",
                   help="angular mode: sweep resolution MxN")
    _add_model_source(p, grid_flag="--model-grid")
    _add_common(p)
    p.set_defaults(handler=cmd_attention_map)

    p = sub.add_parser("eval", help="tail-sensitive error metrics on a dataset split")
    p.add_argument("--data", help="file | synth:morse | synth:trimer")
    p.add_argument("--data-size", dest="data_size", type=int)
    p.add_argument("--data-noise", dest="data_noise", type=float)
    p.add_argument("--data-seed", dest="data_seed", type=int)
    p.add_argument("--split", choices=("train", "valid", "test", "all"))
    p.add_argument("--checkpoint")
    _add_common(p)
    p.set_defaults(handler=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        _set_threads(args.threads)
    try:
        args._file_values = (
            _read_config_file(args.config) if getattr(args, "config", None) else {}
        )
        return args.handler(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

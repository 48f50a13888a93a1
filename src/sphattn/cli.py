"""Command-line surface: grids, equivariance reports, training, dynamics, maps.

Every subcommand that takes --out writes its artifacts there together
with a manifest.json recording the command, every option of the
subcommand as parsed (--seed included, --out and --config aside), the
artifact names, the wall time from the start of main() (``wall_s``) and
the environment: the numpy version, the five BLAS thread variables (null
when unset) and whether freed memory is kept in the process
(``autodiff.HEAP_RETAINED``). Commands that run or train a model also
record its full config as ``model_config``. Rerunning with the same
inputs reproduces every artifact byte for byte; the manifest's
timestamps and wall time are the single exception.

Each option is declared once, on its argparse flag, with its type,
choices and default. Values resolve as flag > config file > default:
the config file is flat ``key = value`` text whose keys are the
subcommand's own option dests (``l_max``, ``path_from``); any other key
is an error. ``parse_args`` turns the file into the subcommand parser's
defaults and lets a second parse apply the precedence.

--threads pins all BLAS thread-pool sizes before numpy is first
imported, which is what makes --threads 1 bit-reproducible. It takes
effect because neither the package nor this module imports numpy at
load time: each command imports what it needs when it runs. It only
works when this module is the process entry point (the installed script
or python -m sphattn.cli); importing numpy first and calling main()
afterwards leaves the pools at whatever numpy picked up.
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
    raise argparse.ArgumentTypeError(f"not a boolean: {s!r}")


def _set_threads(n: int) -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(n)


def _required(args, key: str):
    val = getattr(args, key)
    if val is None:
        raise CommandError(f"missing required option {args.option_flags[key]}")
    return val


def _as_grid(value: str) -> tuple[int, int]:
    try:
        ntheta, nphi = (int(part) for part in value.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must look like 8x16, got {value!r}")
    return ntheta, nphi


def _parse_grids(spec: str) -> list[tuple[int, int]]:
    return [_as_grid(part) for part in spec.split(",") if part.strip()]


def _vec3(spec: str) -> tuple[float, float, float]:
    try:
        x, y, z = (float(p) for p in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected x,y,z coordinates, got {spec!r}")
    return x, y, z


# ----------------------------------------------------------------- artifacts

def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(out: Path | None, args, tables: dict[str, tuple], records: list[dict],
          extra_artifacts: tuple = (), model_config: dict | None = None) -> None:
    """Write tables, the log, and the manifest, or dump tables to stdout.

    The manifest's config is every option the subcommand parsed, --out
    aside (json writes tuples as lists).
    """
    import numpy as np

    from . import autodiff as ad

    if out is None:
        for header, rows in tables.values():
            sys.stdout.write(_csv_text(header, rows))
        return
    for name, (header, rows) in tables.items():
        (out / name).write_text(_csv_text(header, rows), newline="")
    (out / "log.jsonl").write_text("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records))
    manifest = {
        "command": args.subcommand,
        "config": {key: getattr(args, key) for key in args.option_flags if key != "out"},
        "artifacts": sorted([*extra_artifacts, *tables, "log.jsonl", "manifest.json"]),
        "numpy_version": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "heap_retained": ad.HEAP_RETAINED,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z",
        "wall_s": time.perf_counter() - args.started,
    }
    if model_config is not None:
        manifest["model_config"] = model_config
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


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

    if spec.startswith("synth:"):
        return tr.synth_dataset(spec[len("synth:"):], n=args.data_size, seed=args.data_seed,
                                noise_t=args.data_noise)
    try:
        text = Path(spec).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read data file: {exc}")
    ds = tr.parse_extxyz(text)
    if not ds.splits:
        ds = tr.split_dataset(ds, seed=args.data_seed)
    return ds


def _model_overrides(args, grid_key: str = "grid") -> dict:
    """The model options set by flag or file, by option dest; unset ones keep the model's default."""
    from . import backbone as bb

    return {key: getattr(args, key) for key in args.option_flags
            if key in (*bb.DEFAULT_CONFIG, grid_key) and getattr(args, key) is not None}


def _load_model(args, species, grid_key: str = "grid"):
    """Model from --checkpoint or --random-model."""
    from . import backbone as bb
    from . import training as tr

    ckpt = args.checkpoint
    overrides = _model_overrides(args, grid_key)
    if getattr(args, "random_model", False):
        if ckpt:
            raise CommandError("--checkpoint and --random-model are mutually exclusive")
        return bb.new_model(species, seed=args.seed, random_gate=args.random_gate,
                            **{("grid" if k == grid_key else k): v for k, v in overrides.items()})
    if ckpt is None:
        raise CommandError("provide --checkpoint or --random-model")
    stray = [*overrides, *(["random_gate"] if getattr(args, "random_gate", False) else [])]
    if stray:
        raise CommandError(f"{', '.join(args.option_flags[k] for k in stray)} only apply "
                           f"with --random-model; --checkpoint fixes the model")
    try:
        state, _meta = tr.load_checkpoint(ckpt)
    except OSError as exc:
        raise CommandError(f"cannot read checkpoint: {exc}")
    return state


# ------------------------------------------------------------------ commands

def cmd_grid(args) -> int:
    import numpy as np

    from . import geometry as geo

    ntheta = _required(args, "ntheta")
    nphi = _required(args, "nphi")
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

    _emit(_out_dir(args), args,
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

    seed = args.seed
    rotations = args.rotations
    if rotations < 1:
        raise CommandError("need at least one rigid motion")
    translation_only = args.translation_only
    system = _load_system(args.system, seed)
    state = _load_model(args, system.species.tolist())
    native = tuple(state.config["grid"])
    grids = args.grids or [native]

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

    _emit(_out_dir(args), args, {"equivariance.csv": (header, rows)}, records,
          model_config=state.config)
    return 1 if violation else 0


def cmd_train(args) -> int:
    from . import backbone as bb
    from . import training as tr

    out = _out_dir(args)
    if out is None:
        raise CommandError("train needs --out for the checkpoint")
    data_spec = _required(args, "data")
    seed = args.seed
    ds = _load_dataset(args, data_spec)
    if "train" not in ds.splits or "valid" not in ds.splits:
        raise CommandError("dataset needs train and valid splits")

    state = bb.new_model(ds.species_vocabulary(), seed=seed, **_model_overrides(args))
    tr.init_reference_energies(state, ds.split("train"))

    tcfg = tr.TrainConfig(
        steps=args.steps, batch_size=args.batch_size, lr=args.lr,
        lr_schedule=args.lr_schedule, lam_e=args.lam_e, lam_f=args.lam_f,
        seed=seed, val_every=args.val_every,
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
    _emit(out, args, {"history.csv": (["step", "split", "metric", "value"], history_rows)},
          result.history, extra_artifacts=("checkpoint.json",), model_config=result.state.config)
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

    if not 0 < args.rdf_rmax < math.inf:  # the RDF is taken after the run: check its options first
        raise CommandError("--rdf-rmax must be positive and finite")
    if args.rdf_bins < 1:
        raise CommandError("--rdf-bins must be at least 1")
    system = _load_system(_required(args, "system"), args.seed)
    state = _load_model(args, system.species.tolist())
    provider = md_mod.model_force_provider(state, system.species)
    out = _out_dir(args)
    try:
        traj = md_mod.run(
            system, provider, steps=args.steps, dt=args.dt, friction=args.friction,
            temperature=args.temp, seed=args.seed, sample_every=args.sample_every,
        )
    except md_mod.SimulationAbortError as exc:
        frame = exc.frame or {}
        print(f"md ABORTED: {exc}", file=sys.stderr)
        _emit(out, args, {}, [{
            "event": "abort", "message": str(exc),
            "step": frame.get("step"), "time": frame.get("time"),
            "bad_atoms": frame.get("bad_atoms"),
        }], model_config=state.config)
        return 1

    stats_header = ["step", "temperature", "mean_force", "q95_force", "max_force"]
    stats_rows = [
        (r["step"], r["temperature"], r["mean"], r["q95"], r["max"])
        for r in traj.force_stats
    ]
    avg_t = float(np.mean([r["temperature"] for r in traj.force_stats])) if traj.force_stats else None

    tables = {"stats.csv": (stats_header, stats_rows)}
    records: list[dict] = [{"event": "md", "steps": args.steps, "avg_temperature": avg_t}]
    peak = None
    if system.n_atoms >= 2:
        rdf = md_mod.rdf(traj, r_max=args.rdf_rmax, bins=args.rdf_bins)
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
    _emit(out, args, tables, records, extra_artifacts=("trajectory.extxyz",), model_config=state.config)
    t_txt = "n/a" if avg_t is None else f"{avg_t:.1f} K"
    peak_txt = "n/a" if peak is None else f"{peak:.3f} A"
    print(f"md done: {args.steps} steps of {args.dt} fs, <T> = {t_txt}, rdf peak at {peak_txt}",
          file=sys.stderr)
    return 0


def cmd_attention_map(args) -> int:
    import numpy as np

    from . import backbone as bb
    from .field import DegenerateGeometryError

    mode = _required(args, "mode")
    system = _load_system(_required(args, "system"), args.seed)
    state = _load_model(args, system.species.tolist(), grid_key="model_grid")
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
        probe = _required(args, "atom")
        if not 0 <= probe < n:
            raise CommandError(f"--atom must index an atom (0..{n - 1})")
        p0 = np.array(_required(args, "path_from"))
        p1 = np.array(_required(args, "path_to"))
        steps = args.steps
        if steps < 1:
            raise CommandError("need at least one sweep step")
        neighbors = [j for j in range(n) if j != probe]
        header = ["step", "t", "neighbor", "distance"] + alpha_cols + pooled_cols
        for s in range(steps):
            t = s / (steps - 1) if steps > 1 else 0.0
            pos = system.positions.copy()
            pos[probe] = p0 + t * (p1 - p0)
            cfg = bb.AtomicConfiguration(species=system.species, positions=pos)
            try:
                edges, trace = bb.model_edge_gates(cfg, state)
            except DegenerateGeometryError as exc:
                raise CommandError(f"sweep step {s}: {exc}")
            for j in neighbors:
                alphas, pooled = gate_row(edges, trace, probe, j)
                dist = float(np.linalg.norm(pos[j] - pos[probe]))
                rows.append((s, t, j, dist, *alphas, *pooled))
    else:  # angular
        center = _required(args, "center")
        probe = _required(args, "probe")
        if not (0 <= center < n and 0 <= probe < n) or center == probe:
            raise CommandError("--center and --probe must index distinct atoms")
        radius = args.radius
        if not 0 < radius < math.inf:
            raise CommandError("--radius must be positive and finite")
        m_theta, n_phi = _required(args, "sweep_grid")
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

    _emit(_out_dir(args), args, {"map.csv": (header, rows)},
          [{"event": "attention-map", "mode": mode, "rows": len(rows)}],
          model_config=state.config)
    print(f"attention-map {mode}: {len(rows)} rows", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    import numpy as np

    from . import training as tr

    data_spec = _required(args, "data")
    split = args.split
    state = _load_model(args, [])
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

    _emit(_out_dir(args), args, {"metrics.csv": (header, rows)}, records,
          model_config=state.config)
    return 0


# -------------------------------------------------------------------- parser

class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """--help shows each option's default, except an unset (None) one."""

    def _get_help_string(self, action):
        if action.default is None:
            return action.help
        return super()._get_help_string(action)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", help="output directory (artifacts + manifest)")


def _add_data_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="file | synth:morse | synth:trimer (required)")
    p.add_argument("--data-size", dest="data_size", type=int, default=2000,
                   help="synth: structures to draw")
    p.add_argument("--data-noise", dest="data_noise", type=float, default=1.0,
                   help="synth: geometry spread scale")
    p.add_argument("--data-seed", dest="data_seed", type=int, default=0,
                   help="synth: sampling seed; file: split seed")


def _add_model_args(p: argparse.ArgumentParser, grid_flag: str = "--grid") -> argparse._ArgumentGroup:
    g = p.add_argument_group("model", "options of a new model; unset ones keep the model's default")
    g.add_argument("--cutoff", type=float)
    g.add_argument("--l-max", dest="l_max", type=int)
    g.add_argument("--layers", type=int)
    g.add_argument("--channels", type=int)
    g.add_argument("--n-bessel", dest="n_bessel", type=int)
    g.add_argument(grid_flag, dest=grid_flag.lstrip("-").replace("-", "_"), type=_as_grid,
                   help="attention grid, e.g. 4x8")
    g.add_argument("--d", type=int, help="attention width")
    g.add_argument("--heads", type=int)
    g.add_argument("--gate-activation", dest="gate_activation",
                   choices=("logistic", "sinusoidal"))
    g.add_argument("--field-mode", dest="field_mode")
    g.add_argument("--no-gating", dest="gating", action="store_const", const=False)
    g.add_argument("--no-positional-encoding", dest="positional_encoding",
                   action="store_const", const=False)
    return g


def _add_model_source(p: argparse.ArgumentParser, grid_flag: str = "--grid") -> None:
    p.add_argument("--checkpoint")
    p.add_argument("--random-model", dest="random_model", action="store_true",
                   help="a fresh seeded model instead of --checkpoint")
    p.add_argument("--random-gate", dest="random_gate", action="store_true",
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

    def command(name: str, help: str, handler) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.set_defaults(handler=handler)
        return p

    p = command("grid", "dump a quadrature grid and self-test it", cmd_grid)
    p.add_argument("--ntheta", type=int, help="polar rings (required)")
    p.add_argument("--nphi", type=int, help="points per ring (required)")
    _add_common(p)

    p = command("check-equivariance", "deviation of energy/forces/gates under rigid motions",
                cmd_check_equivariance)
    p.add_argument("--system", default="cloud:5",
                   help="file | synth:morse | synth:trimer | cloud:N")
    p.add_argument("--rotations", type=int, default=50, help="random rigid motions")
    p.add_argument("--grids", type=_parse_grids, help="comma-separated grid list, "
                   "e.g. 4x8,8x16,16x32 (default: the model's grid)")
    p.add_argument("--translation-only", dest="translation_only", action="store_true",
                   help="translate the system without rotating it")
    _add_model_source(p)
    _add_common(p)

    p = command("train", "fit a model and write a checkpoint", cmd_train)
    _add_data_args(p)
    p.add_argument("--steps", type=int, default=2000, help="optimizer steps")
    p.add_argument("--batch-size", dest="batch_size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.01, help="learning rate")
    p.add_argument("--lr-schedule", dest="lr_schedule", choices=("constant", "linear"),
                   default="constant", help="linear decays to a tenth")
    p.add_argument("--lam-e", dest="lam_e", type=float, default=1.0, help="energy loss weight")
    p.add_argument("--lam-f", dest="lam_f", type=float, default=100.0, help="force loss weight")
    p.add_argument("--val-every", dest="val_every", type=int, default=100,
                   help="steps between validations")
    _add_model_args(p).add_argument("--freeze-projections", dest="learnable", action="store_const",
                                    const=False, help="keep the attention projections as drawn")
    _add_common(p)

    p = command("md", "Langevin dynamics with a model force provider", cmd_md)
    p.add_argument("--system", help="file | synth:morse | synth:trimer | cloud:N (required)")
    p.add_argument("--steps", type=int, default=10_000, help="integrator steps")
    p.add_argument("--dt", type=float, default=1.0, help="time step, fs")
    p.add_argument("--friction", type=float, default=0.1, help="Langevin friction, 1/fs")
    p.add_argument("--temp", type=float, default=500.0, help="bath temperature, K")
    p.add_argument("--sample-every", dest="sample_every", type=int, default=1,
                   help="steps between stored frames")
    p.add_argument("--rdf-bins", dest="rdf_bins", type=int, default=50, help="RDF histogram bins")
    p.add_argument("--rdf-rmax", dest="rdf_rmax", type=float, default=5.0, help="RDF range, A")
    _add_model_source(p)
    _add_common(p)

    p = command("attention-map", "gate values along a line sweep or a hemisphere sweep",
                cmd_attention_map)
    p.add_argument("--mode", choices=("radial", "angular"), help="(required)")
    p.add_argument("--system", help="file | synth:morse | synth:trimer | cloud:N (required)")
    p.add_argument("--atom", type=int, help="radial mode: probe atom index")
    p.add_argument("--from", dest="path_from", type=_vec3, help="radial mode: start x,y,z")
    p.add_argument("--to", dest="path_to", type=_vec3, help="radial mode: end x,y,z")
    p.add_argument("--steps", type=int, default=100, help="radial mode: sweep steps")
    p.add_argument("--center", type=int, help="angular mode: anchor atom index")
    p.add_argument("--probe", type=int, help="angular mode: swept atom index")
    p.add_argument("--radius", type=float, default=1.0, help="angular mode: sweep radius")
    p.add_argument("--grid", dest="sweep_grid", type=_as_grid,
                   help="angular mode: sweep resolution MxN")
    _add_model_source(p, grid_flag="--model-grid")
    _add_common(p)

    p = command("eval", "tail-sensitive error metrics on a dataset split", cmd_eval)
    _add_data_args(p)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="test",
                   help="dataset split to score")
    p.add_argument("--checkpoint")
    _add_common(p)

    return parser


def _subcommand_parsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _own_options(sub: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The subcommand's own options by dest, --help and --config aside.

    These are the keys a config file may set and the manifest records.
    """
    return {a.dest: a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")}


def _read_config_file(path: str, sub: argparse.ArgumentParser) -> dict:
    """The file's values, each converted and checked as its own flag's would be."""
    actions = _own_options(sub)
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CommandError(f"cannot read config file: {exc}")
    values = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CommandError(f"{path}:{i}: expected key = value")
        key, _, val = (part.strip() for part in line.partition("="))
        action = actions.get(key)
        if action is None:
            raise CommandError(f"{path}:{i}: unknown config key {key!r} for {sub.prog}")
        convert = _bool_word if action.nargs == 0 else action.type or str
        try:
            value = convert(val)
        except (ValueError, TypeError, argparse.ArgumentTypeError) as exc:
            raise CommandError(f"{path}:{i}: config key {key}: {exc}")
        if action.choices is not None and value not in action.choices:
            raise CommandError(f"{path}:{i}: config key {key}: {value!r} is not one of "
                               f"{', '.join(action.choices)}")
        values[key] = value
    return values


def parse_args(argv=None) -> argparse.Namespace:
    """Options resolved as flag > config file > default.

    The config file's values become the subcommand parser's defaults, so
    a second parse lets any flag on the command line override them.
    option_flags maps each of the subcommand's own option dests to its
    flag.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    sub = _subcommand_parsers(parser)[args.subcommand]
    if args.config is not None:
        sub.set_defaults(**_read_config_file(args.config, sub))
        args = parser.parse_args(argv)
    args.option_flags = {key: a.option_strings[0] for key, a in _own_options(sub).items()}
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = parse_args(argv)
        args.started = started
        if args.threads is not None:
            if args.threads < 1:
                raise CommandError("--threads must be at least 1")
            _set_threads(args.threads)
        return args.handler(args)
    except (CommandError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command tests; each runs main() in process unless noted."""

import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sphattn import autodiff as ad
from sphattn import backbone as bb
from sphattn import cli
from sphattn import md
from sphattn import training as tr
from sphattn.cli import THREAD_VARS, main, parse_args


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


AHA_SYSTEM = """3
energy=0.0 Properties=species:S:1:pos:R:3
N 0.0 0.0 0.0
H 1.25 0.0 0.0
N 2.5 0.0 0.0
"""

TINY_MODEL = [
    "--channels", "8", "--d", "8", "--l-max", "0", "--layers", "1",
]


@pytest.fixture(scope="session")
def morse_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = main([
        "train", "--data", "synth:morse", "--data-size", "60",
        "--steps", "30", "--batch-size", "8", "--val-every", "10",
        "--seed", "1", "--out", str(out), *TINY_MODEL,
    ])
    assert code == 0
    return out / "checkpoint.json"


# ------------------------------------------------------------------- grid cmd

def test_grid_stdout_row_count(capsys):
    code, out, err = run_cli(capsys, ["grid", "--ntheta", "4", "--nphi", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("index,theta,phi,x,y,z,weight")
    assert len(lines) == 1 + 32
    assert "ok" in err


def test_grid_single_point_weight_is_full_sphere(capsys):
    code, out, _ = run_cli(capsys, ["grid", "--ntheta", "1", "--nphi", "1"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[-1]) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_grid_2x2_weights_match_analytic_oracle(capsys):
    # two colatitude rings at pi/4 and 3pi/4 with equal area: each of the
    # four cells covers exactly a quarter of the sphere
    code, out, _ = run_cli(capsys, ["grid", "--ntheta", "2", "--nphi", "2"])
    assert code == 0
    weights = [float(r.split(",")[-1]) for r in out.strip().splitlines()[1:]]
    assert weights == pytest.approx([math.pi] * 4, rel=1e-12)


def test_grid_artifacts_and_rerun_identical(tmp_path, capsys):
    out = tmp_path / "g"
    code, _, _ = run_cli(capsys, ["grid", "--ntheta", "3", "--nphi", "4", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"grid.csv", "log.jsonl", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "grid"
    assert sorted(manifest["artifacts"]) == sorted(names)
    assert manifest["numpy_version"] == np.__version__
    assert manifest["threads"] == {var: os.environ.get(var) for var in THREAD_VARS}
    assert manifest["heap_retained"] is ad.HEAP_RETAINED
    first = (out / "grid.csv").read_bytes()
    log_first = (out / "log.jsonl").read_bytes()
    code, _, _ = run_cli(capsys, ["grid", "--ntheta", "3", "--nphi", "4", "--out", str(out)])
    assert code == 0
    assert (out / "grid.csv").read_bytes() == first
    assert (out / "log.jsonl").read_bytes() == log_first


def test_grid_invalid_size_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, ["grid", "--ntheta", "0", "--nphi", "4"])
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- config file

def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ntheta = 4\nnphi = 8\n# comment line\n")
    code, out, _ = run_cli(capsys, ["grid", "--config", str(cfg)])
    assert code == 0
    assert len(out.strip().splitlines()) == 33

    code, out, _ = run_cli(capsys, ["grid", "--config", str(cfg), "--ntheta", "2"])
    assert code == 0
    assert len(out.strip().splitlines()) == 17  # flag wins over the file


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code, _, err = run_cli(capsys, ["grid", "--config", str(cfg)])
    assert code == 2
    assert "unknown config key" in err


def test_config_keys_are_each_subcommands_own_flag_dests(tmp_path):
    parser = cli.build_parser()
    commands = cli._subcommand_parsers(parser)
    dests = {name: {a.dest for a in sub._actions if a.option_strings} for name, sub in commands.items()}
    candidates = set().union(*dests.values()) | {a.dest for a in parser._actions} | {"handler"}
    cfg = tmp_path / "probe.cfg"
    for name, own in dests.items():
        accepted = set()
        for key in sorted(candidates):
            cfg.write_text(f"{key} = x\n")
            try:
                parse_args([name, "--config", str(cfg)])
            except cli.CommandError as exc:
                if "unknown config key" in str(exc):
                    continue
            accepted.add(key)
        assert accepted == own - {"help", "config"}, name


def test_config_key_of_another_subcommand_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("ntheta = 4\nnphi = 8\nsteps = 5\n")
    code, out, err = run_cli(capsys, ["grid", "--config", str(cfg)])
    assert code == 2
    assert "'steps'" in err
    assert out == ""


def test_flag_beats_file_beats_default_for_each_kind_of_option(tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("steps = 7\nlr = 0.5\ndata = synth:trimer\ngrid = 2x4\n"
                   "gating = true\nlr_schedule = linear\n")
    keys = ("steps", "lr", "data", "grid", "gating", "lr_schedule")
    default = parse_args(["train"])
    from_file = parse_args(["train", "--config", str(cfg)])
    from_flag = parse_args([
        "train", "--config", str(cfg), "--steps", "9", "--lr", "0.25", "--data", "synth:morse",
        "--grid", "3x6", "--no-gating", "--lr-schedule", "constant",
    ])
    assert [getattr(default, k) for k in keys] == [2000, 0.01, None, None, None, "constant"]
    assert [getattr(from_file, k) for k in keys] == [7, 0.5, "synth:trimer", (2, 4), True, "linear"]
    assert [getattr(from_flag, k) for k in keys] == [9, 0.25, "synth:morse", (3, 6), False, "constant"]
    assert type(from_file.steps) is int and type(from_file.lr) is float


@pytest.mark.parametrize("command, line", [
    (["grid"], "ntheta = four"),
    (["train", "--data", "synth:morse"], "lr_schedule = cosine"),
    (["md", "--system", "synth:morse"], "random_gate = maybe"),
    (["attention-map"], "path_from = 1,2"),
    (["check-equivariance"], "grids = 4x8,4by8"),
])
def test_config_file_bad_value_exits_two_naming_the_key(tmp_path, capsys, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, _, err = run_cli(capsys, [*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config key {line.split()[0]}:" in err
    assert not (tmp_path / "o").exists()


MANIFEST_RUNS = {
    "grid": ["--ntheta", "2", "--nphi", "2"],
    "check-equivariance": ["--random-model", *TINY_MODEL, "--system", "cloud:3", "--rotations", "1"],
    "train": ["--data", "synth:morse", "--data-size", "24", "--steps", "1", "--batch-size", "4",
              *TINY_MODEL],
    "md": ["--random-model", *TINY_MODEL, "--system", "synth:trimer", "--steps", "1"],
    "attention-map": ["--mode", "angular", "--random-model", *TINY_MODEL, "--system", "synth:trimer",
                      "--center", "0", "--probe", "1", "--grid", "2x2"],
    "eval": ["--data", "synth:morse", "--data-size", "60"],
}


@pytest.mark.parametrize("command", sorted(MANIFEST_RUNS))
def test_manifest_config_is_every_option_as_parsed_but_out(morse_checkpoint, tmp_path, capsys, command):
    argv = [command, *MANIFEST_RUNS[command], "--out", str(tmp_path / "o")]
    if command == "eval":
        argv += ["--checkpoint", str(morse_checkpoint)]
    assert run_cli(capsys, argv)[0] == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    sub = cli._subcommand_parsers(cli.build_parser())[command]
    keys = {a.dest for a in sub._actions if a.option_strings} - {"help", "config", "out"}
    assert manifest["command"] == command
    assert set(manifest["config"]) == keys
    args = parse_args(argv)
    assert manifest["config"] == json.loads(json.dumps({k: getattr(args, k) for k in keys}))
    assert manifest["wall_s"] > 0
    assert ("model_config" in manifest) is (command != "grid")


def test_threads_flag_pins_environment(tmp_path, capsys, monkeypatch):
    # monkeypatch restores all five variables after main() has set them
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    out = tmp_path / "g"
    code, _, _ = run_cli(capsys, ["--threads", "2", "grid", "--ntheta", "1", "--nphi", "1",
                                  "--out", str(out)])
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == {var: "2" for var in THREAD_VARS}


def test_module_entry_point_subprocess():
    # the child imports the same tree as this suite, with or without PYTHONPATH
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sphattn.cli", "--threads", "1",
         "grid", "--ntheta", "1", "--nphi", "2"],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,theta,phi")


# ------------------------------------------------------------------ train cmd

def test_train_writes_checkpoint_history_manifest(morse_checkpoint):
    out = morse_checkpoint.parent
    names = {p.name for p in out.iterdir()}
    assert names == {"checkpoint.json", "history.csv", "log.jsonl", "manifest.json"}
    header, rows = read_csv(out / "history.csv")
    assert header == ["step", "split", "metric", "value"]
    logged = {r[2] for r in rows if r[1] == "valid"}
    assert {"force_mae", "force_q95", "force_q99", "force_max"} <= logged
    state, meta = tr.load_checkpoint(str(morse_checkpoint))
    assert meta["data"] == "synth:morse"
    assert meta["grad_strategy"]
    assert state.config["channels"] == 8


def test_train_zero_steps_returns_initial_model(tmp_path, capsys):
    out = tmp_path / "t0"
    code, _, _ = run_cli(capsys, [
        "train", "--data", "synth:morse", "--data-size", "30", "--steps", "0",
        "--seed", "7", "--out", str(out), *TINY_MODEL,
    ])
    assert code == 0
    state, _ = tr.load_checkpoint(str(out / "checkpoint.json"))

    ds = tr.synth_dataset("morse", n=30, seed=0)
    expect = bb.new_model(ds.species_vocabulary(), seed=7, channels=8, d=8, l_max=0, layers=1)
    tr.init_reference_energies(expect, ds.split("train"))
    assert sorted(state.params) == sorted(expect.params)
    for name, arr in expect.params.items():
        assert np.array_equal(state.params[name], arr), name


def test_train_and_eval_manifests_record_the_data_options(tmp_path, capsys):
    data = ["--data", "synth:morse", "--data-size", "24", "--data-seed", "5", "--data-noise", "0.5"]
    train_out, eval_out = tmp_path / "t", tmp_path / "e"
    assert run_cli(capsys, ["train", *data, "--steps", "1", "--batch-size", "4", *TINY_MODEL,
                            "--out", str(train_out)])[0] == 0
    checkpoint = train_out / "checkpoint.json"
    assert run_cli(capsys, ["eval", *data, "--split", "valid", "--checkpoint", str(checkpoint),
                            "--out", str(eval_out)])[0] == 0
    for out in (train_out, eval_out):
        manifest = json.loads((out / "manifest.json").read_text())
        config = manifest["config"]
        assert (config["data_size"], config["data_seed"], config["data_noise"]) == (24, 5, 0.5)
        assert manifest["model_config"] == json.loads(checkpoint.read_text())["config"]


def test_train_rerun_bit_identical(tmp_path, capsys):
    argv = [
        "train", "--data", "synth:morse", "--data-size", "24", "--steps", "5",
        "--batch-size", "4", "--val-every", "5", "--seed", "3", *TINY_MODEL,
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, argv + ["--out", str(out_a)])[0] == 0
    assert run_cli(capsys, argv + ["--out", str(out_b)])[0] == 0
    assert (out_a / "checkpoint.json").read_bytes() == (out_b / "checkpoint.json").read_bytes()
    assert (out_a / "history.csv").read_bytes() == (out_b / "history.csv").read_bytes()


def test_train_ablation_flags_reach_model_config(tmp_path, capsys):
    out = tmp_path / "abl"
    code, _, _ = run_cli(capsys, [
        "train", "--data", "synth:morse", "--data-size", "24", "--steps", "2",
        "--batch-size", "4", "--seed", "0", "--out", str(out),
        "--no-positional-encoding", "--freeze-projections", "--no-gating",
        *TINY_MODEL,
    ])
    assert code == 0
    state, _ = tr.load_checkpoint(str(out / "checkpoint.json"))
    assert state.config["positional_encoding"] is False
    assert state.config["learnable"] is False
    assert state.config["gating"] is False


def test_train_malformed_data_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.extxyz"
    bad.write_text("2\nenergy=1.0 Properties=species:S:1:pos:R:3\nC 0 0 0\n")
    code, _, err = run_cli(capsys, [
        "train", "--data", str(bad), "--steps", "1", "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "line" in err


def test_train_on_frames_without_forces_names_the_frame(tmp_path, capsys):
    frames = "".join(
        f"2\nenergy={-1.0 - 0.01 * k} Properties=species:S:1:pos:R:3\n"
        f"C 0.0 0.0 0.0\nC {1.4 + 0.02 * k} 0.0 0.0\n"
        for k in range(10)
    )
    data = tmp_path / "no-forces.extxyz"
    data.write_text(frames)
    code, _, err = run_cli(capsys, [
        "train", "--data", str(data), "--steps", "1", "--out", str(tmp_path / "o"), *TINY_MODEL,
    ])
    assert code == 2
    assert "train split: frame" in err and "no force label" in err


def test_train_requires_out(capsys):
    code, _, err = run_cli(capsys, ["train", "--data", "synth:morse", "--steps", "1"])
    assert code == 2
    assert "--out" in err


# --------------------------------------------------------------------- md cmd

def test_md_runs_and_rerun_is_bit_identical(morse_checkpoint, tmp_path, capsys):
    argv = [
        "md", "--checkpoint", str(morse_checkpoint), "--system", "synth:morse",
        "--steps", "30", "--temp", "300", "--sample-every", "5",
        "--rdf-bins", "16", "--rdf-rmax", "4.0", "--seed", "11",
    ]
    out_a, out_b = tmp_path / "m1", tmp_path / "m2"
    code, _, err = run_cli(capsys, argv + ["--out", str(out_a)])
    assert code == 0
    assert "md done" in err
    names = {p.name for p in out_a.iterdir()}
    assert names == {"trajectory.extxyz", "stats.csv", "rdf.csv", "log.jsonl", "manifest.json"}

    header, rows = read_csv(out_a / "stats.csv")
    assert header == ["step", "temperature", "mean_force", "q95_force", "max_force"]
    assert len(rows) == 30

    frames = tr.parse_extxyz((out_a / "trajectory.extxyz").read_text())
    assert len(frames.samples) == 7  # initial frame plus every 5th of 30 steps

    assert run_cli(capsys, argv + ["--out", str(out_b)])[0] == 0
    for name in ("trajectory.extxyz", "stats.csv", "rdf.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_md_zero_steps_emits_initial_frame(morse_checkpoint, tmp_path, capsys):
    out = tmp_path / "m0"
    code, _, _ = run_cli(capsys, [
        "md", "--checkpoint", str(morse_checkpoint), "--system", "synth:morse",
        "--steps", "0", "--out", str(out),
    ])
    assert code == 0
    frames = tr.parse_extxyz((out / "trajectory.extxyz").read_text())
    assert len(frames.samples) == 1
    expect = np.array([[0.0, 0.0, 0.0], [tr.MORSE_R0, 0.0, 0.0]])
    assert np.allclose(frames.samples[0].positions, expect)


def test_md_without_out_prints_its_tables(capsys):
    code, out, _ = run_cli(capsys, ["md", "--random-model", "--system", "synth:trimer", "--steps", "3",
                                    "--rdf-bins", "5", "--channels", "4", "--d", "4"])
    assert code == 0
    lines = out.splitlines()
    stats = lines.index("step,temperature,mean_force,q95_force,max_force")
    rdf = lines.index("r,g,count")
    assert [row.split(",")[0] for row in lines[stats + 1:stats + 4]] == ["1", "2", "3"]
    assert rdf == stats + 4 and len(lines) == rdf + 6


NON_FINITE_MD = ["md", "--random-model", "--system", "synth:trimer", "--steps", "2", *TINY_MODEL]
NON_FINITE_TRAIN = ["train", "--data", "synth:morse", "--data-size", "12", "--steps", "2",
                    "--batch-size", "4", *TINY_MODEL]
NON_FINITE_MAP = ["attention-map", "--mode", "angular", "--random-model", "--system", "synth:trimer",
                  "--center", "0", "--probe", "1", "--grid", "2x2", *TINY_MODEL]
NON_FINITE_CASES = [
    (NON_FINITE_MD, "--temp", "nan", "temperature must"),
    (NON_FINITE_MD, "--friction", "nan", "friction and"),
    (NON_FINITE_MD, "--dt", "nan", "dt must"),
    (NON_FINITE_MD, "--cutoff", "nan", "'cutoff' must"),
    (NON_FINITE_MD, "--cutoff", "inf", "'cutoff' must"),
    (NON_FINITE_MD, "--rdf-rmax", "nan", "--rdf-rmax must"),
    (NON_FINITE_TRAIN, "--lr", "nan", "lr must"),
    (NON_FINITE_TRAIN, "--lam-e", "inf", "lam_e and"),
    (NON_FINITE_TRAIN, "--lam-f", "nan", "lam_f must"),
    (NON_FINITE_MAP, "--radius", "nan", "--radius must"),
]


@pytest.mark.parametrize("argv, flag, value, named", NON_FINITE_CASES,
                         ids=[f"{argv[0]}{flag}={value}" for argv, flag, value, _ in NON_FINITE_CASES])
def test_non_finite_option_exits_two_naming_it(tmp_path, capsys, monkeypatch, argv, flag, value, named):
    if flag == "--rdf-rmax":  # rejected before the run, not after it
        monkeypatch.setattr(md, "run", lambda *a, **k: pytest.fail("md ran"))
    code, _, err = run_cli(capsys, [*argv, flag, value, "--out", str(tmp_path / "o")])
    assert code == 2
    assert err.startswith("error: ") and named in err and "finite" in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_md_manifest_records_the_model_it_ran(tmp_path, capsys):
    argv = ["md", "--random-model", "--random-gate", "--system", "synth:trimer",
            "--steps", "5", "--seed", "4", *TINY_MODEL]
    cfg = tmp_path / "fine.cfg"
    cfg.write_text("grid = 8x16\n")
    runs = {"a": [], "rerun": [], "fine": ["--config", str(cfg)]}
    for name, extra in runs.items():
        assert run_cli(capsys, argv + extra + ["--out", str(tmp_path / name)])[0] == 0
    manifests = {name: json.loads((tmp_path / name / "manifest.json").read_text()) for name in runs}

    a, fine = manifests["a"], manifests["fine"]
    assert {k: v for k, v in a["config"].items() if k != "grid"} == {
        k: v for k, v in fine["config"].items() if k != "grid"
    }
    assert a["config"]["grid"] is None and fine["config"]["grid"] == [8, 16]
    assert a["model_config"]["grid"] == [4, 8] and fine["model_config"]["grid"] == [8, 16]
    assert a["config"]["random_gate"] is True
    assert a["model_config"]["channels"] == 8 and a["model_config"]["seed"] == 4
    assert (tmp_path / "a" / "trajectory.extxyz").read_bytes() != (tmp_path / "fine" / "trajectory.extxyz").read_bytes()
    for name in a["artifacts"]:
        if name != "manifest.json":
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "rerun" / name).read_bytes(), name
    def timeless(manifest):
        return {k: v for k, v in manifest.items() if not k.startswith("created") and k != "wall_s"}

    assert timeless(manifests["rerun"]) == timeless(a)


@pytest.mark.parametrize("command, given", [
    ("md", ["--system", "synth:morse", "--steps", "1"]),
    ("check-equivariance", ["--system", "synth:morse", "--rotations", "1"]),
    ("attention-map", ["--mode", "angular", "--system", "synth:morse", "--center", "0", "--probe", "1",
                       "--grid", "2x2"]),
])
@pytest.mark.parametrize("stray", [["--channels", "99", "GRID", "8x16"], ["--random-gate"]],
                         ids=["model-options", "random-gate"])
def test_model_options_beside_checkpoint_exit_two_naming_them(morse_checkpoint, tmp_path, capsys,
                                                               command, given, stray):
    grid_flag = "--model-grid" if command == "attention-map" else "--grid"
    stray = [grid_flag if a == "GRID" else a for a in stray]
    code, _, err = run_cli(capsys, [command, "--checkpoint", str(morse_checkpoint), *given, *stray,
                                    "--out", str(tmp_path / "o")])
    assert code == 2
    assert err.startswith("error: ")
    assert all(flag in err for flag in stray if flag.startswith("--"))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, key", [
    ("--d", "0", "d"), ("--channels", "0", "channels"), ("--n-bessel", "0", "n_bessel"),
    ("--layers", "-1", "layers"), ("--l-max", "4", "l_max"),
])
def test_out_of_range_model_size_exits_two_naming_the_key(capsys, flag, value, key):
    code, _, err = run_cli(capsys, ["md", "--system", "synth:trimer", "--random-model", "--steps", "2",
                                    flag, value])
    assert code == 2
    assert err.startswith("error: ") and f"'{key}'" in err


def test_md_abort_writes_log_and_manifest(tmp_path, capsys, monkeypatch):
    def abort(*args, **kwargs):
        raise md.SimulationAbortError("non-finite forces", {"step": 3, "time": 3.0, "bad_atoms": [1]})

    monkeypatch.setattr(md, "run", abort)
    out = tmp_path / "ab"
    code, _, err = run_cli(capsys, ["md", "--system", "synth:trimer", "--random-model",
                                    "--steps", "5", "--out", str(out)])
    assert code == 1
    assert "md ABORTED" in err
    assert {p.name for p in out.iterdir()} == {"log.jsonl", "manifest.json"}
    assert json.loads((out / "log.jsonl").read_text()) == {
        "event": "abort", "message": "non-finite forces", "step": 3, "time": 3.0, "bad_atoms": [1],
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["log.jsonl", "manifest.json"]
    assert manifest["config"]["random_gate"] is False


# ----------------------------------------------------------- attention-map cmd

def test_attention_map_radial_rows_and_mirror_symmetry(tmp_path, capsys):
    system = tmp_path / "aha.extxyz"
    system.write_text(AHA_SYSTEM)
    out = tmp_path / "map"
    steps = 40
    code, _, _ = run_cli(capsys, [
        "attention-map", "--mode", "radial", "--random-model", "--random-gate",
        "--no-positional-encoding", *TINY_MODEL, "--layers", "2",
        "--system", str(system), "--atom", "1",
        "--from", "0.5,0,0", "--to", "2.0,0,0", "--steps", str(steps),
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out / "map.csv")
    assert header[:4] == ["step", "t", "neighbor", "distance"]
    assert len(rows) == steps * 2  # one row per neighbor per step

    by_neighbor = {}
    for r in rows:
        by_neighbor.setdefault(int(r[2]), []).append(r)
    assert sorted(by_neighbor) == [0, 2]
    assert all(len(v) == steps for v in by_neighbor.values())

    # path endpoints mirror about the midpoint of the two anchors, so the
    # gate seen from one anchor must retrace the other anchor's curve
    a0 = np.array([[float(r[4]), float(r[5])] for r in by_neighbor[0]])
    a2 = np.array([[float(r[4]), float(r[5])] for r in by_neighbor[2]])
    assert np.max(np.abs(a0 - a2[::-1])) < 1e-6
    assert np.all(np.isfinite(a0))


def test_attention_map_radial_zero_gate_is_half(tmp_path, capsys):
    system = tmp_path / "aha.extxyz"
    system.write_text(AHA_SYSTEM)
    out = tmp_path / "map0"
    code, _, _ = run_cli(capsys, [
        "attention-map", "--mode", "radial", "--random-model", *TINY_MODEL,
        "--system", str(system), "--atom", "1",
        "--from", "0.5,0,0", "--to", "2.0,0,0", "--steps", "5",
        "--out", str(out),
    ])
    assert code == 0
    _, rows = read_csv(out / "map.csv")
    assert all(float(r[4]) == 0.5 for r in rows)


def test_attention_map_angular_grid_and_zero_gate(tmp_path, capsys):
    out = tmp_path / "ang"
    code, _, _ = run_cli(capsys, [
        "attention-map", "--mode", "angular", "--random-model", *TINY_MODEL,
        "--system", "synth:trimer", "--center", "0", "--probe", "1",
        "--radius", "1.0", "--grid", "4x6", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out / "map.csv")
    assert header[:5] == ["theta", "phi", "x", "y", "z"]
    assert len(rows) == 24
    alpha_col = header.index("alpha_layer0")
    assert all(float(r[alpha_col]) == 0.5 for r in rows)
    thetas = sorted({float(r[0]) for r in rows})
    assert len(thetas) == 4
    assert 0.0 < thetas[0] and thetas[-1] < math.pi / 2 + 1e-12  # hemisphere only


def test_attention_map_rejects_bad_probe(tmp_path, capsys):
    code, _, err = run_cli(capsys, [
        "attention-map", "--mode", "angular", "--random-model",
        "--system", "synth:trimer", "--center", "1", "--probe", "1",
        "--radius", "1.0", "--grid", "2x2",
    ])
    assert code == 2
    assert "distinct" in err


@pytest.mark.parametrize("missing,given", [
    ("--from", ["--to", "1,0,0"]),
    ("--to", ["--from", "1,0,0"]),
    ("--grid", None),
])
def test_attention_map_missing_option_names_its_flag(capsys, missing, given):
    mode = ["--mode", "angular", "--center", "0", "--probe", "1"] if given is None else \
        ["--mode", "radial", "--atom", "1", *given]
    code, _, err = run_cli(capsys, ["attention-map", *mode, "--random-model", "--system", "synth:trimer"])
    assert code == 2
    assert err.strip() == f"error: missing required option {missing}"


def test_attention_map_radial_path_through_an_atom_names_step_and_atoms(tmp_path, capsys):
    # synth:trimer's atom 0 sits at the origin, where the sweep starts
    code, _, err = run_cli(capsys, [
        "attention-map", "--mode", "radial", "--random-model", "--system", "synth:trimer",
        "--atom", "1", "--from", "0,0,0", "--to", "1,0,0", "--out", str(tmp_path / "map"),
    ])
    assert code == 2
    assert "sweep step 0: atoms 0 and 1 coincide" in err
    assert "RuntimeWarning" not in err


# ------------------------------------------------------- check-equivariance cmd

def test_check_equivariance_ungated_passes_hard_tolerances(tmp_path, capsys):
    out = tmp_path / "eq"
    code, _, err = run_cli(capsys, [
        "check-equivariance", "--random-model", "--no-gating", *TINY_MODEL,
        "--system", "cloud:4", "--rotations", "5", "--seed", "2",
        "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out / "equivariance.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["ungated_max_energy_dev"]) < 1e-10
    assert float(row["ungated_max_force_dev"]) < 1e-9
    assert row["ungated_ok"] == "True"
    assert "ok" in err


def test_check_equivariance_translation_only_is_noise_level(capsys):
    code, out, _ = run_cli(capsys, [
        "check-equivariance", "--random-model", "--random-gate", *TINY_MODEL,
        "--system", "cloud:4", "--rotations", "4", "--translation-only",
        "--seed", "2",
    ])
    assert code == 0
    header, *rows = out.strip().splitlines()
    row = dict(zip(header.split(","), rows[0].split(",")))
    assert float(row["max_energy_dev"]) < 1e-12
    assert float(row["max_force_dev"]) < 1e-12
    assert float(row["max_alpha_dev"]) < 1e-12


def test_check_equivariance_gated_deviation_shrinks_with_grid(tmp_path, capsys):
    out = tmp_path / "ref"
    code, _, _ = run_cli(capsys, [
        "check-equivariance", "--random-model", "--random-gate",
        "--no-positional-encoding", *TINY_MODEL,
        "--system", "cloud:4", "--rotations", "8",
        "--grids", "4x8,16x32", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out / "equivariance.csv")
    med = [float(dict(zip(header, r))["median_energy_dev"]) for r in rows]
    assert med[1] <= med[0]


def test_check_equivariance_refuses_learned_pe_on_new_grid(capsys):
    code, _, err = run_cli(capsys, [
        "check-equivariance", "--random-model", "--random-gate", *TINY_MODEL,
        "--system", "cloud:3", "--rotations", "2", "--grids", "4x8,8x16",
    ])
    assert code == 2
    assert "positional" in err


# ------------------------------------------------------------------- eval cmd

def test_eval_metrics_match_direct_computation(morse_checkpoint, tmp_path, capsys):
    out = tmp_path / "ev"
    code, _, _ = run_cli(capsys, [
        "eval", "--checkpoint", str(morse_checkpoint), "--data", "synth:morse",
        "--data-size", "60", "--split", "test", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["model_config"] == json.loads(morse_checkpoint.read_text())["config"]
    assert "random_gate" not in manifest
    header, rows = read_csv(out / "metrics.csv")
    assert header == ["target", "mae", "q95", "q99", "max"]
    got = {r[0]: [float(x) for x in r[1:]] for r in rows}
    assert set(got) == {"energy", "force"}

    state, _ = tr.load_checkpoint(str(morse_checkpoint))
    ds = tr.synth_dataset("morse", n=60, seed=0)
    e_err, f_err = [], []
    for s in ds.split("test"):
        e, _, f = bb.energy_and_forces(s, state)
        e_err.append(abs(e - s.energy))
        f_err.extend(np.abs(f - s.forces).ravel())
    for target, errs in (("energy", e_err), ("force", f_err)):
        m = tr.tail_metrics(np.asarray(errs))
        expect = [m["MAE"], m["Q95"], m["Q99"], m["MAX"]]
        assert got[target] == pytest.approx(expect, rel=1e-9), target


def _drop_readout(doc):
    del doc["params"]["readout"]


def _add_param(doc):
    doc["params"]["bogus"] = {"shape": [1], "data": [0.0]}


def _reshape_radial(doc):
    spec = doc["params"]["layer0.radial"]
    spec["shape"], spec["data"] = [1, len(spec["data"]) - 1], spec["data"][1:]


def _nan_embed(doc):
    doc["params"]["embed"]["data"][0] = math.nan


def _unknown_config(doc):
    doc["config"]["colour"] = "red"


def _drop_config_key(doc):
    del doc["config"]["gating"]


def _int_grid(doc):
    doc["config"]["grid"] = 4


@pytest.mark.parametrize("command", ["md", "eval"])
@pytest.mark.parametrize("fault, key", [
    (_drop_readout, "readout"),
    (_add_param, "bogus"),
    (_reshape_radial, "layer0.radial"),
    (_nan_embed, "embed"),
    (_unknown_config, "colour"),
    (_drop_config_key, "gating"),
    (_int_grid, "grid"),
], ids=["missing-param", "extra-param", "wrong-shape", "non-finite", "unknown-config-key", "missing-config-key",
        "ill-typed-config-key"])
def test_bad_checkpoint_exits_two_naming_the_key(morse_checkpoint, tmp_path, capsys, command, fault, key):
    doc = json.loads(morse_checkpoint.read_text())
    fault(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    args = {"md": ["--system", "synth:morse", "--steps", "1"],
            "eval": ["--data", "synth:morse", "--data-size", "60", "--split", "test"]}[command]
    code, _, err = run_cli(capsys, [command, "--checkpoint", str(bad), *args])
    assert code == 2
    assert repr(key) in err


def test_eval_requires_model(capsys):
    code, _, err = run_cli(capsys, ["eval", "--data", "synth:morse"])
    assert code == 2
    assert "checkpoint" in err


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2

"""Training-stack tests: synthetic labels, parser, loss, metrics, optimizer."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sphattn import attention
from sphattn import autodiff as ad
from sphattn import backbone as bb
from sphattn import training as tr

from conftest import central_diff


def tiny_model(ds, seed=0, **over):
    over.setdefault("channels", 8)
    over.setdefault("d", 8)
    over.setdefault("l_max", 0)
    over.setdefault("layers", 1)
    model = bb.new_model(ds.species_vocabulary(), seed=seed, **over)
    tr.init_reference_energies(model, ds.split("train"))
    return model


# -------------------------------------------------------- synthetic potentials

def test_morse_dimer_minimum():
    pos = np.array([[0.2, -0.3, 0.5], [0.2, -0.3, 0.5 + tr.MORSE_R0]])
    e, f = tr.morse_dimer(pos)
    assert e == 0.0
    assert np.all(f == 0.0)


def test_trimer_zero_at_reference_geometry():
    th = tr.ANGULAR_THETA0
    pos = np.array([
        [0.0, 0.0, 0.0],
        [tr.MORSE_R0, 0.0, 0.0],
        [tr.MORSE_R0 * np.cos(th), tr.MORSE_R0 * np.sin(th), 0.0],
    ])
    e, f = tr.angular_trimer(pos)
    assert abs(e) < 1e-30
    assert np.max(np.abs(f)) < 1e-14


def test_synthetic_forces_match_finite_differences():
    rng = np.random.default_rng(2)
    for fn, n in ((tr.morse_dimer, 2), (tr.angular_trimer, 3)):
        for _ in range(5):
            pos = rng.normal(0.0, 1.0, (n, 3)) * 1.3

            def etot(flat):
                return np.asarray(fn(flat.reshape(n, 3))[0])

            _, f = fn(pos)
            fd = -central_diff(etot, pos.ravel())
            assert np.max(np.abs(fd - f.ravel())) < 1e-8


def test_synthetic_potentials_validate_atom_count():
    with pytest.raises(ValueError):
        tr.morse_dimer(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        tr.angular_trimer(np.zeros((2, 3)))


def test_synth_dataset_structure():
    ds = tr.synth_dataset("trimer", 50, seed=3)
    assert len(ds.samples) == 50
    assert ds.species_vocabulary() == [tr.SYNTH_Z]
    covered = np.concatenate([ds.splits[k] for k in ("train", "valid", "test")])
    assert sorted(covered.tolist()) == list(range(50))
    for s in ds.samples:
        assert s.energy is not None and s.forces is not None
        assert s.energy >= 0.0  # both synthetic potentials are nonnegative

    again = tr.synth_dataset("trimer", 50, seed=3)
    for a, b in zip(ds.samples, again.samples):
        assert np.array_equal(a.positions, b.positions)
        assert a.energy == b.energy

    with pytest.raises(ValueError):
        tr.synth_dataset("lennard-jones", 10)
    with pytest.raises(ValueError):
        tr.synth_dataset("morse", 0)


def test_dataset_split_validation():
    ds = tr.synth_dataset("morse", 10, seed=0)
    with pytest.raises(ValueError, match="overlap"):
        tr.Dataset(ds.samples, {"train": np.array([0, 1]), "valid": np.array([1, 2])})
    with pytest.raises(ValueError, match="outside"):
        tr.Dataset(ds.samples, {"train": np.array([0, 99])})
    with pytest.raises(ValueError):
        tr.split_dataset(ds, train=0.9, valid=0.3)


# ------------------------------------------------------------------------ loss

def _ef(e, f, n):
    return tr.EnergyForces(np.asarray(e, float), np.asarray(f, float), np.asarray(n))


def test_loss_zero_when_prediction_matches():
    rng = np.random.default_rng(5)
    e = rng.normal(size=4)
    f = rng.normal(size=(10, 3))
    n = np.array([2, 3, 2, 3])
    assert tr.loss(_ef(e, f, n), _ef(e, f, n)) == 0.0


def test_loss_energy_only_example():
    pred = _ef([2.0], np.zeros((1, 3)), [1])
    target = _ef([0.0], np.zeros((1, 3)), [1])
    assert tr.loss(pred, target, lam_e=1.0, lam_f=0.0) == pytest.approx(4.0)
    assert tr.loss(pred, target, lam_e=2.5, lam_f=0.0) == pytest.approx(10.0)


def test_loss_matches_direct_formula():
    rng = np.random.default_rng(7)
    n = np.array([2, 4, 3])
    pe, te = rng.normal(size=3), rng.normal(size=3)
    pf, tf = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
    got = tr.loss(_ef(pe, pf, n), _ef(te, tf, n), lam_e=1.3, lam_f=17.0)
    want = 1.3 * np.mean(((pe - te) / n) ** 2) + 17.0 * np.mean((pf - tf) ** 2)
    assert got == pytest.approx(want, rel=1e-14)


def test_loss_validation():
    a = _ef([1.0], np.zeros((2, 3)), [2])
    with pytest.raises(ValueError):
        tr.loss(a, a, lam_e=0.0, lam_f=0.0)
    with pytest.raises(ValueError):
        tr.loss(a, a, lam_e=-1.0)
    b = _ef([1.0, 2.0], np.zeros((4, 3)), [2, 2])
    with pytest.raises(ValueError):
        tr.loss(a, b)


@pytest.mark.parametrize("taped_field", ["energies", "forces"])
def test_loss_is_a_float_on_arrays_and_a_node_on_nodes(taped_field):
    rng = np.random.default_rng(11)
    n = np.array([2, 4, 3])
    pred = _ef(rng.normal(size=3), rng.normal(size=(9, 3)), n)
    target = _ef(rng.normal(size=3), rng.normal(size=(9, 3)), n)
    plain = tr.loss(pred, target, lam_e=1.3, lam_f=17.0)
    assert type(plain) is float

    x = ad.leaf(getattr(pred, taped_field))
    taped = tr.loss(dataclasses.replace(pred, **{taped_field: x}), target, lam_e=1.3, lam_f=17.0)
    assert isinstance(taped, ad.Node)
    assert float(taped.value) == plain
    (g,) = ad.grad(taped, [x])
    assert np.any(g.value != 0.0)


# --------------------------------------------------------------------- metrics

def sort_interp_percentile(values, q):
    s = np.sort(np.asarray(values, dtype=float))
    pos = (len(s) - 1) * q / 100.0
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (pos - lo) * (s[hi] - s[lo])


def test_tail_metrics_constant_input():
    m = tr.tail_metrics(np.full(17, 0.75))
    assert m == {"MAE": 0.75, "Q95": 0.75, "Q99": 0.75, "MAX": 0.75}


def test_tail_metrics_interpolation_convention():
    m = tr.tail_metrics(np.arange(1.0, 101.0))
    assert 95.0 < m["Q95"] < 96.0
    assert m["Q95"] == pytest.approx(95.05)
    assert m["MAX"] == 100.0
    assert m["MAE"] == pytest.approx(50.5)


def test_tail_metrics_matches_oracle_and_ignores_order():
    rng = np.random.default_rng(11)
    e = np.abs(rng.normal(size=1000))
    m = tr.tail_metrics(e)
    assert m["Q95"] == sort_interp_percentile(e, 95)
    assert m["Q99"] == sort_interp_percentile(e, 99)
    assert m["MAX"] == e.max()
    assert m["MAE"] == math.fsum(np.sort(e)) / e.size

    shuffled = e[rng.permutation(e.size)]
    assert tr.tail_metrics(shuffled) == m

    with pytest.raises(ValueError):
        tr.tail_metrics(np.array([]))
    with pytest.raises(ValueError):
        tr.tail_metrics(np.array([-0.1]))


def test_validation_ratio_convention():
    assert np.all(tr.validation_ratio([3.0, 4.0], [3.0, 4.0]) == 0.0)
    assert tr.validation_ratio([2.0], [1.0])[0] == pytest.approx(50.0)
    # worse gated model comes out negative
    assert tr.validation_ratio([1.0], [2.0])[0] == pytest.approx(-100.0)

    rng = np.random.default_rng(13)
    b = rng.uniform(0.5, 2.0, 64)
    m = rng.uniform(0.5, 2.0, 64)
    assert np.allclose(tr.validation_ratio(b, m), (b - m) / b * 100.0, rtol=0, atol=0)

    with pytest.raises(tr.UndefinedRatioError, match="index 1"):
        tr.validation_ratio([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        tr.validation_ratio([1.0], [1.0, 2.0])


# ---------------------------------------------------------------- extended XYZ

HAND_WRITTEN = """2
energy=-1.5 Properties=species:S:1:pos:R:3:forces:R:3
C 0.0 0.0 0.0 0.1 -0.2 0.3
H 1.1 0.0 0.0 -0.1 0.2 -0.3
"""


def test_parse_hand_written_frame():
    ds = tr.parse_extxyz(HAND_WRITTEN)
    assert len(ds.samples) == 1
    s = ds.samples[0]
    assert s.energy == -1.5
    assert np.array_equal(s.species, [6, 1])
    assert np.array_equal(s.positions, [[0, 0, 0], [1.1, 0, 0]])
    assert np.array_equal(s.forces, [[0.1, -0.2, 0.3], [-0.1, 0.2, -0.3]])


def test_write_parse_round_trip():
    ds = tr.parse_extxyz(HAND_WRITTEN)
    again = tr.parse_extxyz(tr.write_extxyz(ds))
    a, b = ds.samples[0], again.samples[0]
    assert a.energy == b.energy
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.forces, b.forces)
    assert np.array_equal(a.species, b.species)


def test_forces_are_optional():
    text = "1\nenergy=0.25 Properties=species:S:1:pos:R:3\nC 1.0 2.0 3.0\n"
    ds = tr.parse_extxyz(text)
    assert ds.samples[0].forces is None
    assert tr.parse_extxyz(tr.write_extxyz(ds)).samples[0].forces is None


def test_unknown_comment_keys_survive_verbatim():
    text = (
        '1\nenergy=1.0 Properties=species:S:1:pos:R:3 '
        'Lattice="9.0 0.0 0.0 0.0 9.0 0.0 0.0 0.0 9.0" pbc=F tag=run7\nC 0.0 0.0 0.0\n'
    )
    ds = tr.parse_extxyz(text)
    out = tr.write_extxyz(ds)
    assert 'Lattice="9.0 0.0 0.0 0.0 9.0 0.0 0.0 0.0 9.0"' in out
    assert "pbc=F" in out and "tag=run7" in out
    again = tr.parse_extxyz(out)
    assert again.samples[0].extra == ds.samples[0].extra


def test_parse_errors_carry_line_numbers():
    with pytest.raises(tr.ParseError, match="line 1") as err:
        tr.parse_extxyz("two\ncomment\n")
    assert err.value.line == 1

    with pytest.raises(tr.ParseError, match="line 3"):
        tr.parse_extxyz("1\nenergy=0.0 Properties=species:S:1:pos:R:3\nC 0.0 0.0\n")

    with pytest.raises(tr.ParseError, match="line 3"):
        tr.parse_extxyz("1\nenergy=0.0 Properties=species:S:1:pos:R:3\nC 0.0 0.0 oops\n")

    with pytest.raises(tr.ParseError):
        tr.parse_extxyz("3\nenergy=0.0 Properties=species:S:1:pos:R:3\nC 0.0 0.0 0.0\n")

    with pytest.raises(tr.ParseError, match="quote"):
        tr.parse_extxyz('1\nenergy=0.0 Properties=species:S:1:pos:R:3 bad="x\nC 0.0 0.0 0.0\n')

    with pytest.raises(tr.ParseError, match="positive"):
        tr.parse_extxyz("0\nenergy=0.0 Properties=species:S:1:pos:R:3\n")


def test_schema_errors():
    with pytest.raises(tr.SchemaError, match="energy"):
        tr.parse_extxyz("1\nProperties=species:S:1:pos:R:3\nC 0.0 0.0 0.0\n")
    with pytest.raises(tr.SchemaError, match="Properties"):
        tr.parse_extxyz("1\nenergy=0.0\nC 0.0 0.0 0.0\n")
    with pytest.raises(tr.SchemaError, match="species:S:1:pos:R:3"):
        tr.parse_extxyz("1\nenergy=0.0 Properties=pos:R:3:species:S:1\nC 0.0 0.0 0.0\n")
    with pytest.raises(tr.SchemaError, match="unsupported"):
        tr.parse_extxyz("1\nenergy=0.0 Properties=species:S:1:pos:R:3:vel:R:3\nC 0.0 0.0 0.0 0.0 0.0 0.0\n")
    with pytest.raises(tr.SchemaError, match="symbol"):
        tr.parse_extxyz("1\nenergy=0.0 Properties=species:S:1:pos:R:3\nXx 0.0 0.0 0.0\n")


def test_fuzzed_round_trip_fixpoint():
    rng = np.random.default_rng(17)
    samples = []
    for _ in range(30):
        n = int(rng.integers(1, 6))
        zs = rng.choice(list(tr.SYMBOL_OF_Z), size=n)
        samples.append(
            bb.AtomicConfiguration(
                species=zs,
                positions=rng.normal(0, 5, (n, 3)),
                energy=float(rng.normal() * 100),
                forces=rng.normal(0, 3, (n, 3)) if rng.random() < 0.7 else None,
            )
        )
    text = tr.write_extxyz(tr.Dataset(samples))
    once = tr.parse_extxyz(text)
    text2 = tr.write_extxyz(once)
    assert text2 == text  # writer output is already a fixpoint
    twice = tr.parse_extxyz(text2)
    for a, b in zip(once.samples, twice.samples):
        assert a.energy == b.energy
        assert np.array_equal(a.positions, b.positions)
        assert (a.forces is None) == (b.forces is None)
        if a.forces is not None:
            assert np.array_equal(a.forces, b.forces)


# ------------------------------------------------------------------ checkpoint

def test_checkpoint_round_trip_is_value_exact(tmp_path):
    ds = tr.synth_dataset("morse", 20, seed=5)
    model = tiny_model(ds, seed=9)
    path = tmp_path / "model.json"
    tr.save_checkpoint(model, path, metadata={"note": "fresh"})
    assert json.loads(path.read_text())["format_version"] == tr.CHECKPOINT_VERSION == 2
    loaded, meta = tr.load_checkpoint(path)
    assert loaded.config == model.config
    assert isinstance(loaded.config["grid"], tuple)
    assert sorted(loaded.params) == sorted(model.params)
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k]), k
        assert loaded.params[k].shape == model.params[k].shape
    assert meta["grad_strategy"] == tr.GRAD_STRATEGY
    assert meta["note"] == "fresh"


def test_checkpoint_version_guard(tmp_path):
    ds = tr.synth_dataset("morse", 10, seed=5)
    path = tmp_path / "model.json"
    text = tr.checkpoint_text(tiny_model(ds))
    path.write_text(text.replace('"format_version": 2', '"format_version": 99'))
    with pytest.raises(ValueError, match="version"):
        tr.load_checkpoint(path)


# written by save_checkpoint at format 1, which also stored each layer's
# key node projection, from the model that format1_model builds
FORMAT1 = Path(__file__).parent / "data" / "checkpoint_format1.json"


def format1_model():
    return bb.new_model([6], seed=4, random_gate=True, channels=4, d=4, grid=(2, 4), layers=1)


def _write(tmp_path, doc):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return path


def test_format1_checkpoint_loads_to_a_fresh_model_without_wk_node():
    # the dropped projection is still drawn, so every table keeps its bits
    loaded, meta = tr.load_checkpoint(FORMAT1)
    fresh = format1_model()
    assert loaded.config == fresh.config
    assert list(loaded.params) == list(fresh.params)
    for k, v in fresh.params.items():
        assert np.array_equal(loaded.params[k], v), k
    assert meta["note"] == "format-1 fixture"


def _wk_node_shape(spec):
    spec["shape"], spec["data"] = [2, 8], spec["data"][:16]


def _wk_node_nan(spec):
    spec["data"][3] = math.nan


@pytest.mark.parametrize("fault", [_wk_node_shape, _wk_node_nan, None], ids=["shape", "nan", "missing"])
def test_format1_wk_node_is_checked_before_it_is_dropped(tmp_path, fault):
    doc = json.loads(FORMAT1.read_text())
    if fault is None:
        del doc["params"]["layer0.attn.wk_node"]
    else:
        fault(doc["params"]["layer0.attn.wk_node"])
    with pytest.raises(ValueError, match="'layer0.attn.wk_node'"):
        tr.load_checkpoint(_write(tmp_path, doc))


def test_current_format_rejects_wk_node(tmp_path):
    doc = json.loads(FORMAT1.read_text())
    doc["format_version"] = tr.CHECKPOINT_VERSION
    with pytest.raises(ValueError, match="'layer0.attn.wk_node' is unknown"):
        tr.load_checkpoint(_write(tmp_path, doc))


def _no_data(doc):
    del doc["params"]["embed"]["data"]


def _int_grid(doc):
    doc["config"]["grid"] = 4


def _text_channels(doc):
    doc["config"]["channels"] = "x"


@pytest.mark.parametrize("doc, key", [
    ({"format_version": 1}, "'config'"),
    ([1, 2], "not a JSON object"),
    (_no_data, "'embed'"),
    (_int_grid, "'grid'"),
    (_text_channels, "'channels'"),
], ids=["no-config", "list", "spec-without-data", "int-grid", "text-channels"])
def test_malformed_checkpoint_is_a_value_error_naming_the_key(tmp_path, doc, key):
    if callable(doc):
        fault, doc = doc, json.loads(tr.checkpoint_text(format1_model()))
        fault(doc)
    with pytest.raises(ValueError, match=key):
        tr.load_checkpoint(_write(tmp_path, doc))


# -------------------------------------------------------------------- training

def test_train_config_validation():
    with pytest.raises(ValueError):
        tr.TrainConfig(lam_e=0.0, lam_f=0.0)
    with pytest.raises(ValueError):
        tr.TrainConfig(lr=-0.1)
    with pytest.raises(ValueError):
        tr.TrainConfig(lr_schedule="cosine")
    with pytest.raises(ValueError):
        tr.TrainConfig(batch_size=0)


def test_zero_steps_returns_initial_parameters():
    ds = tr.synth_dataset("morse", 30, seed=1)
    model = tiny_model(ds)
    res = tr.train(ds, model, tr.TrainConfig(steps=0, seed=0))
    for k in model.params:
        assert np.array_equal(res.state.params[k], model.params[k]), k
    assert not res.diverged
    assert any(r["step"] == 0 and r["split"] == "valid" for r in res.history)


def test_train_is_deterministic():
    ds = tr.synth_dataset("morse", 40, seed=2)
    model = tiny_model(ds, seed=1)
    cfg = tr.TrainConfig(steps=15, batch_size=8, lr=0.02, seed=4, val_every=5)
    a = tr.train(ds, model, cfg)
    b = tr.train(ds, model, cfg)
    for k in a.state.params:
        assert np.array_equal(a.state.params[k], b.state.params[k]), k
    assert a.history == b.history

    c = tr.train(ds, model, tr.TrainConfig(steps=15, batch_size=8, lr=0.02, seed=5, val_every=5))
    assert any(not np.array_equal(a.state.params[k], c.state.params[k]) for k in a.state.params)


def test_frozen_projections_stay_bit_identical():
    ds = tr.synth_dataset("morse", 40, seed=3)
    model = tiny_model(ds, seed=2, learnable=False)
    cfg = tr.TrainConfig(steps=30, batch_size=8, lr=0.02, seed=0, val_every=10)
    res = tr.train(ds, model, cfg)
    moved = []
    for k in model.params:
        same = np.array_equal(res.state.params[k], model.params[k])
        if any(k.endswith("." + p) for p in attention.PROJECTION_NAMES):
            assert same, f"projection {k} should be frozen"
        else:
            moved.append((k, not same))
    changed = {k for k, did in moved if did}
    for expected in ("embed", "readout", "ref_energy", "layer0.radial", "layer0.attn.gate_w"):
        assert expected in changed, expected


def test_training_improves_dimer_forces_tenfold():
    ds = tr.synth_dataset("morse", 200, seed=4)
    model = tiny_model(ds, seed=3, channels=16, d=16)
    cfg = tr.TrainConfig(steps=300, batch_size=16, lr=0.02, seed=0, val_every=100)
    res = tr.train(ds, model, cfg)
    steps, mae = res.series("force_mae")
    assert steps[0] == 0
    assert mae[-1] <= mae[0] / 10.0
    assert not res.diverged


def test_divergence_restores_last_good_parameters():
    ds = tr.synth_dataset("morse", 30, seed=6)
    model = tiny_model(ds, seed=4)
    # adaptive moments cap each step near lr, so only an absurd rate can
    # push the forward pass all the way to non-finite values
    cfg = tr.TrainConfig(steps=50, batch_size=8, lr=1e160, seed=0, val_every=10)
    with np.errstate(over="ignore", invalid="ignore"):
        res = tr.train(ds, model, cfg)
    assert res.diverged
    assert any(r["metric"] == "diverged" for r in res.history)
    # the blow-up happened before the first validation checkpoint, so the
    # restored parameters are the initial ones
    last_logged = max(r["step"] for r in res.history if r["metric"] == "loss") if any(
        r["metric"] == "loss" for r in res.history
    ) else 0
    if last_logged == 0:
        for k in model.params:
            assert np.array_equal(res.state.params[k], model.params[k]), k


def test_train_requires_both_splits():
    ds = tr.synth_dataset("morse", 20, seed=7)
    bare = tr.Dataset(ds.samples, {"train": np.arange(20)})
    with pytest.raises(ValueError, match="split"):
        tr.train(bare, tiny_model(ds), tr.TrainConfig(steps=1))


@pytest.mark.parametrize("split, label", [("train", "energy"), ("valid", "forces")])
def test_train_names_an_unlabeled_frame_before_any_step(split, label):
    ds = tr.synth_dataset("morse", 20, seed=7)
    frame = int(ds.splits[split][1])
    ds.samples[frame] = dataclasses.replace(ds.samples[frame], **{label: None})
    missing = "energy" if label == "energy" else "force"
    with pytest.raises(ValueError, match=f"^{split} split: frame {frame} has no {missing} label$"):
        tr.train(ds, tiny_model(ds), tr.TrainConfig(steps=1))


def test_linear_schedule_decays_to_a_tenth():
    cfg = tr.TrainConfig(steps=100, lr=0.5, lr_schedule="linear")
    assert tr._lr_at(cfg, 0) == pytest.approx(0.5)
    assert tr._lr_at(cfg, 50) == pytest.approx(0.275)
    assert tr._lr_at(cfg, 100) == pytest.approx(0.05)


def test_reference_energy_calibration():
    ds = tr.synth_dataset("trimer", 20, seed=8)
    model = bb.new_model(ds.species_vocabulary(), seed=0, channels=8, d=8)
    tr.init_reference_energies(model, ds.split("train"))
    want = np.mean([c.energy / c.n_atoms for c in ds.split("train")])
    assert np.all(model.params["ref_energy"] == want)
    with pytest.raises(ValueError):
        tr.init_reference_energies(model, [])


def test_evaluate_reports_the_force_error_tail():
    # the high-error events at each validation point: the same per-component
    # force errors that ``sphattn eval`` summarizes, through tail_metrics
    ds = tr.synth_dataset("trimer", 60, seed=12)
    model = tiny_model(ds, seed=3, random_gate=True)
    valid = ds.split("valid")
    metrics = tr.evaluate(valid, model)
    pred = tr.predict(valid, model)
    errors = np.abs(pred.forces - np.concatenate([c.forces for c in valid])).ravel()
    tail = tr.tail_metrics(errors)
    assert (metrics["force_q95"], metrics["force_q99"], metrics["force_max"]) == (tail["Q95"], tail["Q99"], tail["MAX"])
    assert metrics["force_mae"] == tail["MAE"]
    assert metrics["force_mae"] < metrics["force_q95"] <= metrics["force_q99"] <= metrics["force_max"]


def test_evaluate_rejects_empty():
    ds = tr.synth_dataset("morse", 10, seed=9)
    with pytest.raises(ValueError):
        tr.evaluate([], tiny_model(ds))


# ------------------------------------------- force-loss parameter gradients

ORACLE_TABLES = (
    "embed", "layer0.radial", "layer0.mix0",
    "layer0.attn.wq_node", "layer0.attn.wk_field", "layer0.attn.wv_node",
    "layer0.attn.pos", "layer0.attn.gate_w", "layer0.attn.gate_b",
)


def _toy_force_loss():
    ds = tr.synth_dataset("trimer", 10, seed=10)
    model = bb.new_model(ds.species_vocabulary(), seed=5, random_gate=True,
                         channels=4, d=4, grid=(2, 4), layers=1)
    tr.init_reference_energies(model, ds.split("train"))
    configs = ds.split("train")[:2]
    target = tr._target_batch(configs)
    nodes = {k: ad.leaf(v) for k, v in model.params.items()}
    loss = tr.loss(tr._predict(configs, model, params=nodes, want_grad=True), target)
    return model, configs, target, nodes, loss


def test_force_loss_parameter_gradients_match_central_differences():
    # reverse over reverse: the forces are one reverse pass, and the force
    # loss built on them is differentiated against every table by a second
    model, configs, target, nodes, loss = _toy_force_loss()
    grads = ad.grad(loss, [nodes[k] for k in ORACLE_TABLES])

    h = 1e-4
    for name, g in zip(ORACLE_TABLES, grads):
        index = np.unravel_index(np.argmax(np.abs(g.value)), g.value.shape)
        analytic = float(g.value[index])
        assert analytic != 0.0, name
        sides = []
        for step in (h, -h):
            params = {k: v.copy() for k, v in model.params.items()}
            params[name][index] += step
            sides.append(tr.loss(tr._predict(configs, model, params=params), target))
        fd = (sides[0] - sides[1]) / (2 * h)
        assert abs(analytic - fd) <= 1e-5 * abs(fd) + 1e-9 * max(1.0, float(loss.value)), (name, analytic, fd)


def test_first_order_parameter_gradients_are_bitwise_the_taped_ones():
    # the trainer takes its parameter gradient without taping it
    _, _, _, nodes, loss = _toy_force_loss()
    taped = ad.grad(loss, list(nodes.values()), allow_unused=True)
    plain = ad.grad(loss, list(nodes.values()), allow_unused=True, create_graph=False)
    for name, t, p in zip(nodes, taped, plain):
        assert p.parents == ()
        assert np.array_equal(t.value, p.value), name


@pytest.mark.parametrize("gating", [True, False])
def test_evaluate_metrics_do_not_depend_on_the_chunk_size(monkeypatch, gating):
    ds = tr.synth_dataset("trimer", 700, seed=11)
    model = tiny_model(ds, seed=6, channels=4, d=4, grid=(2, 4), gating=gating, random_gate=True)
    valid = ds.split("valid")
    results = []
    for chunk in (1, 7, 64, len(valid) + 1):
        monkeypatch.setattr(tr, "EVAL_CHUNK", chunk)
        results.append(tr.evaluate(valid, model))
    assert len(valid) > 64
    for other in results[1:]:
        assert other == results[0]

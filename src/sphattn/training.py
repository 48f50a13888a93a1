"""Datasets, losses, the optimizer loop, and error metrics.

Includes an extended-XYZ reader/writer, two closed-form synthetic
potentials (a Morse dimer and a bent trimer with an angular term) used
as desk-scale training targets, an adaptive-moment optimizer driving
the taped backbone, tail-sensitive error statistics, and the relative
validation-ratio series between a baseline and a gated run.

Units are kcal/mol and Angstrom throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import attention as attn
from . import autodiff as ad
from . import backbone as bb
from .geometry import neighbor_list

CHECKPOINT_VERSION = 2
GRAD_STRATEGY = "taped reverse-over-reverse"

SYMBOL_OF_Z = {
    1: "H", 2: "He", 3: "Li", 4: "Be", 5: "B", 6: "C", 7: "N", 8: "O",
    9: "F", 10: "Ne", 11: "Na", 12: "Mg", 13: "Al", 14: "Si", 15: "P",
    16: "S", 17: "Cl", 18: "Ar", 19: "K", 20: "Ca", 26: "Fe", 29: "Cu",
    30: "Zn", 35: "Br", 53: "I", 78: "Pt", 79: "Au",
}
Z_OF_SYMBOL = {s: z for z, s in SYMBOL_OF_Z.items()}


class ParseError(ValueError):
    """Malformed file structure; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SchemaError(ValueError):
    """Structurally sound file whose declared content is unusable."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UndefinedRatioError(ValueError):
    pass


# ------------------------------------------------------------------- datasets

@dataclass
class Dataset:
    """Labeled configurations plus named, disjoint index splits."""

    samples: list
    splits: dict[str, np.ndarray] = dc_field(default_factory=dict)

    def __post_init__(self):
        n = len(self.samples)
        seen: set[int] = set()
        for name, idx in list(self.splits.items()):
            idx = np.asarray(idx, dtype=int)
            self.splits[name] = idx
            if len(idx) and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"split {name!r} indexes outside the dataset")
            overlap = seen.intersection(idx.tolist())
            if overlap:
                raise ValueError(f"split {name!r} overlaps another split at {sorted(overlap)[:4]}")
            seen.update(idx.tolist())

    def split(self, name: str) -> list:
        return [self.samples[i] for i in self.splits[name]]

    def species_vocabulary(self) -> list[int]:
        zs: set[int] = set()
        for s in self.samples:
            zs.update(int(z) for z in s.species)
        return sorted(zs)


def split_dataset(ds: Dataset, train: float = 0.8, valid: float = 0.1, seed: int = 0) -> Dataset:
    """Random disjoint train/valid/test assignment; test takes the rest."""
    if train < 0 or valid < 0 or train + valid > 1.0 + 1e-12:
        raise ValueError("fractions must be nonnegative and sum to at most 1")
    n = len(ds.samples)
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(train * n))
    n_valid = int(round(valid * n))
    splits = {
        "train": order[:n_train],
        "valid": order[n_train : n_train + n_valid],
        "test": order[n_train + n_valid :],
    }
    return Dataset(ds.samples, splits)


# -------------------------------------------------------- synthetic potentials

MORSE_D = 12.0  # kcal/mol; deep enough that a 500 K cluster stays bonded
MORSE_A = 1.0  # 1/Angstrom
MORSE_R0 = 1.5  # Angstrom
ANGULAR_K = 0.5  # kcal/mol
ANGULAR_THETA0 = np.deg2rad(104.5)
SYNTH_Z = 6  # carbon stands in for every synthetic atom


def _morse_bond(r):
    # energy and dE/dr of one bond
    g = 1.0 - np.exp(-MORSE_A * (r - MORSE_R0))
    e = MORSE_D * g * g
    de = 2.0 * MORSE_D * g * MORSE_A * np.exp(-MORSE_A * (r - MORSE_R0))
    return e, de


def morse_dimer(positions: np.ndarray):
    """Energy and forces of the two-atom Morse potential."""
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (2, 3):
        raise ValueError("morse dimer takes exactly two atoms")
    u = positions[1] - positions[0]
    r = float(np.linalg.norm(u))
    e, de = _morse_bond(r)
    f1 = -de * u / r
    return float(e), np.stack([-f1, f1])


def angular_trimer(positions: np.ndarray):
    """Energy and forces of two Morse bonds to atom 0 plus a bending term.

    E = morse(r01) + morse(r02) + k (cos theta - cos theta0)^2 with theta
    the angle at the central atom 0. The 1-2 pair has no direct bond, so
    the reference geometry sits exactly at zero energy.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (3, 3):
        raise ValueError("angular trimer takes exactly three atoms")
    u = positions[1] - positions[0]
    v = positions[2] - positions[0]
    ru, rv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    eu, deu = _morse_bond(ru)
    ev, dev = _morse_bond(rv)
    cos_t = float(u @ v) / (ru * rv)
    gap = cos_t - np.cos(ANGULAR_THETA0)
    e = eu + ev + ANGULAR_K * gap * gap

    grad = np.zeros((3, 3))
    grad[1] += deu * u / ru
    grad[2] += dev * v / rv
    # d cos / du = (v/|v| - cos * u/|u|) / |u|, and symmetrically for v
    dcos_du = (v / rv - cos_t * u / ru) / ru
    dcos_dv = (u / ru - cos_t * v / rv) / rv
    grad[1] += 2.0 * ANGULAR_K * gap * dcos_du
    grad[2] += 2.0 * ANGULAR_K * gap * dcos_dv
    grad[0] -= grad[1] + grad[2]
    return float(e), -grad


def synth_dataset(potential: str, n: int, seed: int = 0, noise_t: float = 1.0) -> Dataset:
    """Sampled labeled geometries of one synthetic potential.

    Bond lengths scatter around the rest length with spread 0.1 * noise_t
    Angstrom, angles with 0.15 * noise_t rad; every sample gets a random
    orientation and offset so models cannot lean on a lab frame.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        if potential == "morse":
            r = max(0.4, MORSE_R0 + 0.1 * noise_t * rng.normal())
            direction = _random_unit(rng)
            pos = np.stack([np.zeros(3), r * direction])
            e, f = morse_dimer(pos)
        elif potential == "trimer":
            r1 = max(0.4, MORSE_R0 + 0.1 * noise_t * rng.normal())
            r2 = max(0.4, MORSE_R0 + 0.1 * noise_t * rng.normal())
            theta = np.clip(ANGULAR_THETA0 + 0.15 * noise_t * rng.normal(), 0.2, np.pi - 0.05)
            e1, e2 = _random_orthonormal_pair(rng)
            pos = np.stack([
                np.zeros(3),
                r1 * e1,
                r2 * (np.cos(theta) * e1 + np.sin(theta) * e2),
            ])
            e, f = angular_trimer(pos)
        else:
            raise ValueError(f"unknown synthetic potential {potential!r}")
        pos = pos + rng.uniform(-2.0, 2.0, 3)
        samples.append(
            bb.AtomicConfiguration(
                species=np.full(len(pos), SYNTH_Z), positions=pos, energy=e, forces=f
            )
        )
    return split_dataset(Dataset(samples), seed=seed + 1)


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_orthonormal_pair(rng):
    e1 = _random_unit(rng)
    v = rng.normal(size=3)
    v -= (v @ e1) * e1
    return e1, v / np.linalg.norm(v)


# ----------------------------------------------------------- extended XYZ I/O

def _tokenize_comment(line: str, lineno: int) -> list[str]:
    """Split on whitespace, keeping double-quoted values inside one token."""
    tokens, buf, quoted = [], [], False
    for ch in line:
        if ch == '"':
            quoted = not quoted
            buf.append(ch)
        elif ch.isspace() and not quoted:
            if buf:
                tokens.append("".join(buf))
                buf = []
        else:
            buf.append(ch)
    if quoted:
        raise ParseError(lineno, "unterminated quote in comment line")
    if buf:
        tokens.append("".join(buf))
    return tokens


def parse_extxyz(text: str) -> Dataset:
    """Extended-XYZ frames: count line, comment line, then one row per atom.

    The comment line must carry energy=<float> and a Properties descriptor
    starting with species:S:1:pos:R:3, optionally followed by forces:R:3.
    Comment keys beyond those two are preserved verbatim for writing.
    """
    lines = text.splitlines()
    samples = []
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        try:
            natoms = int(lines[i].strip())
        except ValueError:
            raise ParseError(i + 1, f"expected an atom count, got {lines[i].strip()!r}") from None
        if natoms < 1:
            raise ParseError(i + 1, "atom count must be positive")
        if i + 1 >= len(lines):
            raise ParseError(i + 2, "missing comment line")
        comment_no = i + 2
        tokens = _tokenize_comment(lines[i + 1], comment_no)

        energy = None
        properties = None
        extra: dict[str, str] = {}
        for tok in tokens:
            key = tok.split("=", 1)[0]
            if key == "energy":
                try:
                    energy = float(tok.split("=", 1)[1])
                except (IndexError, ValueError):
                    raise ParseError(comment_no, f"bad energy token {tok!r}") from None
            elif key == "Properties":
                properties = tok.split("=", 1)[1] if "=" in tok else ""
            else:
                extra[key] = tok
        if energy is None:
            raise SchemaError(comment_no, "comment line lacks energy=")
        if properties is None:
            raise SchemaError(comment_no, "comment line lacks Properties=")

        fields = properties.split(":")
        if len(fields) % 3:
            raise SchemaError(comment_no, f"Properties not triplets: {properties!r}")
        triplets = [tuple(fields[k : k + 3]) for k in range(0, len(fields), 3)]
        if triplets[:2] != [("species", "S", "1"), ("pos", "R", "3")]:
            raise SchemaError(comment_no, "Properties must start with species:S:1:pos:R:3")
        has_forces = False
        if len(triplets) == 3 and triplets[2] == ("forces", "R", "3"):
            has_forces = True
        elif len(triplets) > 2:
            raise SchemaError(comment_no, f"unsupported per-atom columns in {properties!r}")
        ncols = 4 + (3 if has_forces else 0)

        if i + 2 + natoms > len(lines):
            raise ParseError(len(lines) + 1, f"frame truncated: expected {natoms} atom rows")
        species = np.zeros(natoms, dtype=int)
        pos = np.zeros((natoms, 3))
        forces = np.zeros((natoms, 3)) if has_forces else None
        for a in range(natoms):
            lineno = i + 3 + a
            row = lines[i + 2 + a].split()
            if len(row) != ncols:
                raise ParseError(lineno, f"expected {ncols} columns, got {len(row)}")
            if row[0] not in Z_OF_SYMBOL:
                raise SchemaError(lineno, f"unknown element symbol {row[0]!r}")
            species[a] = Z_OF_SYMBOL[row[0]]
            try:
                nums = [float(x) for x in row[1:]]
            except ValueError:
                raise ParseError(lineno, "non-numeric coordinate field") from None
            pos[a] = nums[:3]
            if has_forces:
                forces[a] = nums[3:]
        samples.append(
            bb.AtomicConfiguration(
                species=species, positions=pos, energy=energy, forces=forces, extra=extra
            )
        )
        i += 2 + natoms
    return Dataset(samples)


def write_extxyz(ds: Dataset) -> str:
    """Inverse of parse_extxyz; floats use shortest round-trip formatting."""
    out = []
    for s in ds.samples:
        if s.energy is None:
            raise ValueError("cannot write a frame without an energy label")
        has_forces = s.forces is not None
        props = "species:S:1:pos:R:3" + (":forces:R:3" if has_forces else "")
        comment = [f"energy={s.energy!r}", f"Properties={props}"]
        comment += [tok for tok in s.extra.values()]
        out.append(str(s.n_atoms))
        out.append(" ".join(comment))
        for a in range(s.n_atoms):
            cols = [SYMBOL_OF_Z[int(s.species[a])]]
            cols += [repr(float(x)) for x in s.positions[a]]
            if has_forces:
                cols += [repr(float(x)) for x in s.forces[a]]
            out.append(" ".join(cols))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------- loss

@dataclass
class EnergyForces:
    """A batch of per-structure energies with concatenated per-atom forces."""

    energies: object  # (b,)
    forces: object  # (total_atoms, 3)
    n_atoms: np.ndarray  # (b,)


def loss(pred: EnergyForces, target: EnergyForces, lam_e: float = 1.0, lam_f: float = 100.0):
    """Weighted sum of size-normalized energy error and raw force error.

    lam_e * mean_b((dE_b / N_b)^2) + lam_f * mean over all force
    components (dF^2); either term may be switched off but not both.
    """
    if lam_e < 0 or lam_f < 0 or (lam_e == 0 and lam_f == 0):
        raise ValueError("loss weights must be nonnegative and not both zero")
    if not np.array_equal(np.asarray(target.n_atoms), np.asarray(pred.n_atoms)):
        raise ValueError("prediction and target disagree on structure sizes")
    pe, pf, te, tf = pred.energies, pred.forces, target.energies, target.forces
    if any(np.shape(ad.value_of(p)) != np.shape(ad.value_of(t)) for p, t in ((pe, te), (pf, tf))):
        raise ValueError("prediction and target shapes disagree")
    total = np.zeros(())
    if lam_e:
        de = ad.div(ad.sub(pe, te), np.asarray(pred.n_atoms, dtype=float))
        total = ad.add(total, ad.mul(ad.mean(ad.mul(de, de)), lam_e))
    if lam_f:
        df = ad.sub(pf, tf)
        total = ad.add(total, ad.mul(ad.mean(ad.mul(df, df)), lam_f))
    return total if isinstance(total, ad.Node) else float(total)


# -------------------------------------------------------------------- metrics

def tail_metrics(abs_errors) -> dict[str, float]:
    """MAE plus tail statistics of a nonempty sample of absolute errors.

    Percentiles interpolate linearly between order statistics; the input
    is sorted first, so the result cannot depend on sample order.
    """
    e = np.sort(np.asarray(abs_errors, dtype=float).ravel())
    if e.size == 0:
        raise ValueError("tail_metrics needs at least one error value")
    if np.any(e < 0):
        raise ValueError("absolute errors cannot be negative")
    return {
        "MAE": math.fsum(e) / e.size,
        "Q95": float(np.percentile(e, 95, method="linear")),
        "Q99": float(np.percentile(e, 99, method="linear")),
        "MAX": float(e[-1]),
    }


def validation_ratio(baseline_series, gated_series) -> np.ndarray:
    """Percentage improvement of the gated run over the baseline, per point.

    (baseline - gated) / baseline * 100; positive values mean the gated
    model is doing better.
    """
    b = np.asarray(baseline_series, dtype=float)
    m = np.asarray(gated_series, dtype=float)
    if b.shape != m.shape:
        raise ValueError("series lengths differ")
    zeros = np.nonzero(b == 0.0)[0]
    if len(zeros):
        raise UndefinedRatioError(f"baseline is zero at index {int(zeros[0])}")
    return (b - m) / b * 100.0


# ------------------------------------------------------------------ checkpoint

def checkpoint_text(state: bb.ModelState, metadata: dict | None = None) -> str:
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "gated-potential-model",
        "metadata": {"grad_strategy": GRAD_STRATEGY, **(metadata or {})},
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in state.config.items()},
        "params": {
            k: {"shape": list(v.shape), "data": v.ravel().tolist()}
            for k, v in state.params.items()
        },
    }
    return json.dumps(doc, indent=1)


def save_checkpoint(state: bb.ModelState, path: str, metadata: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(checkpoint_text(state, metadata))


def _check_keys(kind: str, found, expected) -> None:
    """Raise a ValueError naming the first key that only one side has."""
    odd = sorted(set(found) ^ set(expected))
    if odd:
        raise ValueError(f"checkpoint {kind} {odd[0]!r} is {'unknown' if odd[0] in found else 'missing'}")


def _check_config(config: dict) -> None:
    """Raise a ValueError naming the first unknown, missing or ill-typed config key.

    A value must have the JSON type of its default, where a float takes
    an int too; the grid is a list of two ints, the species a list of
    ints, the seed an int, and a null envelope_p means no envelope.
    """
    _check_keys("config key", config, [*bb.DEFAULT_CONFIG, "species", "seed"])
    for key, value in config.items():
        if key in ("grid", "species"):
            ok = (isinstance(value, list) and all(type(v) is int for v in value)
                  and (key == "species" or len(value) == 2))
        else:
            default = bb.DEFAULT_CONFIG.get(key, 0)
            kinds = (int, float) if type(default) is float else (type(default),)
            ok = type(value) in kinds or (key == "envelope_p" and value is None)
        if not ok:
            raise ValueError(f"checkpoint config key {key!r} has the bad value {value!r}")


def load_checkpoint(path: str):
    """ModelState plus stored metadata; parameter values are bit-exact.

    The checkpoint is checked against a freshly built model of its own
    config: a document that is not an object with config and params
    objects, an unknown, missing or ill-typed config key, a missing or
    extra parameter, a parameter without shape or numeric data, a wrong
    shape or a non-finite value raises a ValueError that names the key.

    Format 1 also stored each layer's key node projection
    ``layer{t}.attn.wk_node``, which cancels in the attention softmax
    (see ``attention``). It is checked like a parameter of the shape of
    ``wq_node`` and then dropped, so a format-1 file loads to the model
    that saved it.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    version = doc.get("format_version")
    if version not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"unsupported checkpoint version {version!r}")
    for part in ("config", "params"):
        if not isinstance(doc.get(part), dict):
            raise ValueError(f"checkpoint {part!r} is missing or not an object")
    config = doc["config"]
    _check_config(config)
    model = bb.new_model(config["species"], seed=config["seed"], **{k: config[k] for k in bb.DEFAULT_CONFIG})
    # format 1's key node projections have the shape of the query's
    wk_node = {f"layer{t}.attn.wk_node": model.params[f"layer{t}.attn.wq_node"] for t in range(config["layers"])}
    expected = {**model.params, **(wk_node if version == 1 else {})}
    _check_keys("parameter", doc["params"], expected)
    params = {}
    for key, spec in doc["params"].items():
        shape = expected[key].shape
        try:
            value = np.asarray(spec["data"], dtype=float)
            fits = spec["shape"] == list(shape) and value.size == expected[key].size
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"checkpoint parameter {key!r} needs a shape and numeric data") from None
        if not fits:
            raise ValueError(f"checkpoint parameter {key!r} has shape {spec['shape']}, expected {list(shape)}")
        if not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite values in checkpoint parameter {key!r}")
        params[key] = value.reshape(shape)
    return bb.ModelState(model.config, {k: params[k] for k in model.params}), doc.get("metadata", {})


# -------------------------------------------------------------------- training

# Adam's moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 16
    lr: float = 0.01
    lr_schedule: str = "constant"  # or "linear", decaying to a tenth
    lam_e: float = 1.0
    lam_f: float = 100.0
    seed: int = 0
    val_every: int = 100

    def __post_init__(self):
        if not (0 <= self.lam_e < math.inf and 0 <= self.lam_f < math.inf) or self.lam_e == self.lam_f == 0:
            raise ValueError("loss weights lam_e and lam_f must be finite, nonnegative and not both zero, "
                             f"got {self.lam_e} and {self.lam_f}")
        if self.steps < 0 or self.batch_size < 1 or self.val_every < 1:
            raise ValueError("steps, batch_size, val_every out of range")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"learning rate lr must be positive and finite, got {self.lr}")
        if self.lr_schedule not in ("constant", "linear"):
            raise ValueError("lr_schedule must be constant or linear")


@dataclass
class TrainResult:
    state: bb.ModelState
    history: list[dict]
    diverged: bool = False

    def series(self, metric: str, split: str = "valid") -> tuple[np.ndarray, np.ndarray]:
        """(steps, values) of one logged metric, in log order."""
        pts = [(r["step"], r["value"]) for r in self.history if r["metric"] == metric and r["split"] == split]
        steps = np.array([p[0] for p in pts])
        return steps, np.array([p[1] for p in pts])


def _lr_at(cfg: TrainConfig, step: int) -> float:
    if cfg.lr_schedule == "constant" or cfg.steps == 0:
        return cfg.lr
    return cfg.lr * (1.0 - 0.9 * step / cfg.steps)


def _target_batch(configs) -> EnergyForces:
    return EnergyForces(
        energies=np.array([c.energy for c in configs], dtype=float),
        forces=np.concatenate([c.forces for c in configs], axis=0),
        n_atoms=np.array([c.n_atoms for c in configs]),
    )


def _predict(configs, state, neighbor_lists=None, params=None, want_grad=False):
    """Batched energies and forces; taped against params when asked to."""
    batch = bb.batch_graph(configs, state, params=params, neighbor_lists=neighbor_lists)
    total = ad.sum_(batch.energies)
    (g,) = ad.grad(total, [batch.positions], allow_unused=True, create_graph=want_grad)
    forces = ad.neg(g)
    if want_grad:
        return EnergyForces(batch.energies, forces, batch.n_atoms)
    return EnergyForces(ad.value_of(batch.energies), forces.value, batch.n_atoms)


# structures per forward graph when predicting a whole split
EVAL_CHUNK = 64


def predict(configs, state: bb.ModelState, neighbor_lists=None) -> EnergyForces:
    """Energies and forces of any number of structures, as plain arrays.

    The structures go through the model EVAL_CHUNK at a time, so memory
    stays bounded by one chunk's graph whatever the number of structures.
    A structure's prediction does not depend on the chunk it shares.
    """
    parts = [
        _predict(configs[lo:lo + EVAL_CHUNK], state,
                 None if neighbor_lists is None else neighbor_lists[lo:lo + EVAL_CHUNK])
        for lo in range(0, len(configs), EVAL_CHUNK)
    ]
    return EnergyForces(
        np.concatenate([p.energies for p in parts]),
        np.concatenate([p.forces for p in parts]),
        np.concatenate([p.n_atoms for p in parts]),
    )


def evaluate(configs, state: bb.ModelState, neighbor_lists=None) -> dict[str, float]:
    """Loss-free validation metrics over a list of labeled configurations.

    Every metric is computed once over the predictions of the whole list.
    ``force_q95``, ``force_q99`` and ``force_max`` are the tail of the
    per-component absolute force errors, by tail_metrics as ``sphattn
    eval`` reports them.
    """
    if not configs:
        raise ValueError("nothing to evaluate")
    pred = predict(configs, state, neighbor_lists)
    target = _target_batch(configs)
    de = np.abs(pred.energies - target.energies)
    df = np.abs(pred.forces - target.forces).ravel()
    tail = tail_metrics(df)
    return {
        "energy_mae": math.fsum(np.sort(de)) / de.size,
        "energy_rmse": math.sqrt(math.fsum(np.sort(de) ** 2) / de.size),
        "force_mae": tail["MAE"],
        "force_rmse": math.sqrt(math.fsum(np.sort(df) ** 2) / df.size),
        "force_q95": tail["Q95"],
        "force_q99": tail["Q99"],
        "force_max": tail["MAX"],
        "loss": loss(pred, target),
    }


def init_reference_energies(state: bb.ModelState, configs) -> None:
    """Set every species' reference to the training-set mean energy per atom."""
    if not configs:
        raise ValueError("cannot calibrate references on an empty split")
    per_atom = [c.energy / c.n_atoms for c in configs if c.energy is not None]
    if not per_atom:
        raise ValueError("no energy labels to calibrate against")
    state.params["ref_energy"] = np.full_like(state.params["ref_energy"], float(np.mean(per_atom)))


def train(dataset: Dataset, model: bb.ModelState, cfg: TrainConfig) -> TrainResult:
    """Adaptive-moment minimization of the energy+force loss.

    Deterministic for a fixed seed and single-threaded numerics. Records
    one {step, split, metric, value} entry per logged quantity; validates
    every cfg.val_every steps and keeps the last finite-loss parameters,
    which are restored if the loss ever goes non-finite. A train or valid
    frame without an energy or force label is a ValueError naming its
    split and dataset index, raised before the first step.
    """
    train_set = dataset.split("train") if "train" in dataset.splits else []
    valid_set = dataset.split("valid") if "valid" in dataset.splits else []
    if not train_set or not valid_set:
        raise ValueError("train and valid splits must both be nonempty")
    for name in ("train", "valid"):
        for i in dataset.splits[name]:
            c = dataset.samples[i]
            if c.energy is None or c.forces is None:
                missing = "energy" if c.energy is None else "force"
                raise ValueError(f"{name} split: frame {i} has no {missing} label")

    state = model.copy()
    # learnable=False freezes every layer's five attention projections
    learnable = state.config.get("learnable", True)
    trainable = [
        k for k in sorted(state.params)
        if learnable or k.rsplit(".", 1)[-1] not in attn.PROJECTION_NAMES
    ]

    rng = np.random.default_rng(cfg.seed)
    train_nl = [neighbor_list(c.positions, state.config["cutoff"]) for c in train_set]
    valid_nl = [neighbor_list(c.positions, state.config["cutoff"]) for c in valid_set]

    m = {k: np.zeros_like(state.params[k]) for k in trainable}
    v = {k: np.zeros_like(state.params[k]) for k in trainable}
    history: list[dict] = []
    last_good = {k: p.copy() for k, p in state.params.items()}
    diverged = False

    def log_validation(step: int):
        metrics = evaluate(valid_set, state, valid_nl)
        for name, value in metrics.items():
            history.append({"step": step, "split": "valid", "metric": name, "value": float(value)})
        return metrics

    log_validation(0)

    for step in range(1, cfg.steps + 1):
        pick = rng.choice(len(train_set), size=min(cfg.batch_size, len(train_set)), replace=False)
        configs = [train_set[i] for i in pick]
        nls = [train_nl[i] for i in pick]
        pnodes = {k: (ad.leaf(p) if k in trainable else ad.constant(p)) for k, p in state.params.items()}
        try:
            pred = _predict(configs, state, nls, params=pnodes, want_grad=True)
            batch_loss = loss(pred, _target_batch(configs), cfg.lam_e, cfg.lam_f)
        except FloatingPointError:
            # runaway parameters can trip the attention overflow guard
            # before the loss itself ever evaluates to a non-finite number
            batch_loss = ad.constant(np.asarray(np.inf))

        if not np.isfinite(batch_loss.value):
            state.params = last_good
            history.append({"step": step, "split": "train", "metric": "diverged", "value": 1.0})
            diverged = True
            break

        # the parameter gradient is only read, never differentiated again
        grads = ad.grad(batch_loss, [pnodes[k] for k in trainable], allow_unused=True, create_graph=False)
        train_loss = float(batch_loss.value)
        del pred, batch_loss  # free this step's graph before the next one is built
        lr = _lr_at(cfg, step)
        for k, g in zip(trainable, grads):
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g.value
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g.value * g.value
            mhat = m[k] / (1 - ADAM_BETA1**step)
            vhat = v[k] / (1 - ADAM_BETA2**step)
            state.params[k] = state.params[k] - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

        if step % cfg.val_every == 0 or step == cfg.steps:
            history.append({"step": step, "split": "train", "metric": "loss", "value": train_loss})
            metrics = log_validation(step)
            if np.isfinite(metrics["loss"]):
                last_good = {k: p.copy() for k, p in state.params.items()}

    return TrainResult(state, history, diverged)

"""The three workloads: inputs made from a seed, rounds of ops, output checks.

Each workload drives sphattn only through its public functions and its
CLI (called in-process through ``sphattn.cli.main``). An op clock times
every op by rebinding the one public function that marks an op's
boundary; the Tracer in spans.py adds the per-layer wrappers underneath
it in traced rounds.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import math
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from sphattn import attention, autodiff as ad, backbone as bb, cli, field, md, training as tr
from sphattn.geometry import neighbor_list

import checks
import spans

CARBON = tr.SYNTH_Z


class Phase:
    """What one timed phase measured."""

    def __init__(self):
        self.times: list[tuple[int, float]] = []  # (input index, seconds) per op
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, out: Path, gating: bool = True):
        self.seed = seed
        self.out = out
        self.gating = gating
        self.tracer = None
        self.phase: Phase | None = None
        self.clock = spans.Patcher()

    # -- timing -----------------------------------------------------------

    def measure(self, seconds: float, tracer=None) -> list[Phase]:
        """Run whole rounds until ``seconds`` have passed; time every op.

        With a tracer, rounds alternate between untraced and traced, so
        that both phases see the same machine and the difference of their
        op times is the tracing overhead; returns [untraced, traced].
        """
        phases = [Phase()] if tracer is None else [Phase(), Phase()]
        gc.collect()
        t0 = perf_counter()
        while True:
            phase = phases[sum(p.rounds for p in phases) % len(phases)]
            self._timed_round(phase, tracer if phase is not phases[0] else None)
            if perf_counter() - t0 >= seconds and phases[-1].rounds:
                return phases

    def _timed_round(self, phase: Phase, tracer) -> None:
        self.phase, self.tracer = phase, tracer
        if tracer is not None:
            instrument(tracer)
            tracer.start()
        self.install_clock()
        t0, c0 = perf_counter(), process_time()
        try:
            ok = self.round()
        except Exception:  # a failing round is counted; the run goes on
            traceback.print_exc()
            ok = False
        finally:
            phase.wall += perf_counter() - t0
            phase.cpu += process_time() - c0
            self.clock.restore()
            if tracer is not None:
                tracer.stop()
            self.tracer = None
        phase.rounds += 1
        phase.attempted += self.ops_per_round
        if not ok:
            phase.failed += self.ops_per_round

    def op_ms(self, phase: Phase) -> float:
        return statistics.median(t for _, t in phase.times) * 1e3

    def _cli(self, argv: list[str]) -> int:
        """sphattn's CLI in-process, its messages held back unless it fails."""
        err = io.StringIO()
        tracer = self.tracer
        span = tracer.open("cli.main") if tracer is not None else None
        try:
            with contextlib.redirect_stderr(err):
                rc = cli.main(["--threads", "1"] + argv)
        finally:
            if span is not None:
                tracer.close(span)
        if rc != 0:
            print(f"sphattn {' '.join(argv)} exited {rc}:\n{err.getvalue()}", file=sys.stderr)
        return rc

    # -- interface --------------------------------------------------------

    def setup(self) -> None:
        """Make the inputs, build the model, run one warm-up op."""
        raise NotImplementedError

    def install_clock(self) -> None:
        raise NotImplementedError

    def round(self) -> bool:
        """One round of ops; False if any of them failed."""
        raise NotImplementedError

    def check(self) -> None:
        """Raise checks.CheckFailed if an output of the program is wrong."""
        raise NotImplementedError

    def tape_inputs(self):
        """[(configs, params)] whose batch graphs stand for one op each."""
        raise NotImplementedError

    def notes(self, phase: Phase) -> str:
        return ""


def instrument(tracer) -> None:
    """Wrap the public functions of every layer the per-layer metrics name."""
    for name in ("grid_field", "field_features"):
        tracer.wrap(field, name, f"field.{name}")
    for name in ("build_qkv", "spherical_attention", "pool_attention"):
        tracer.wrap(attention, name, f"attention.{name}")
    tracer.wrap(attention, "gate_preactivation", "attention.gate")
    tracer.wrap(attention, "gate_activation", "attention.gate")
    # the backbone looks these up in its own namespace
    tracer.wrap(bb, "neighbor_list", "geometry.neighbor_list")
    tracer.wrap(bb, "build_equiangular_grid", "geometry.build_equiangular_grid")
    for name in ("radial_basis", "taped_harmonics", "energy_and_forces", "batch_graph"):
        tracer.wrap(bb, name, f"backbone.{name}")

    # the parameter-gradient pass is the grad call whose output is the
    # last value training.loss returned
    last_loss = [None]
    orig_loss = tr.loss

    def loss(*args, **kwargs):
        span = tracer.open("training.loss")
        try:
            last_loss[0] = orig_loss(*args, **kwargs)
        finally:
            tracer.close(span)
        return last_loss[0]

    tracer.patch(tr, "loss", loss)
    tracer.wrap(ad, "grad", lambda output, *a, **k: (
        "autodiff.grad2" if output is last_loss[0] else "autodiff.grad"))
    tracer.wrap(ad, "release", "autodiff.release")
    tracer.wrap(tr, "evaluate", "training.evaluate")
    tracer.wrap(tr, "train", "training.train")
    tracer.wrap(md, "run", "md.run")


def tape_size(configs, state, params=None):
    """Nodes and computed MB reachable from the energies and from the forces."""
    graph = bb.batch_graph(configs, state, params=params)
    (g,) = ad.grad(ad.sum_(graph.energies), [graph.positions], allow_unused=True)
    fwd = _reachable(graph.energies)
    bwd = {tid: n for tid, n in _reachable(g).items() if tid not in fwd}
    out = (
        len(fwd), len(bwd),
        sum(n.value.nbytes for n in fwd.values()) / 2**20,
        sum(n.value.nbytes for n in bwd.values()) / 2**20,
    )
    ad.release(graph.energies, g)
    return out


def _reachable(root) -> dict:
    seen, stack = {}, [root]
    while stack:
        n = stack.pop()
        if n.tid not in seen:
            seen[n.tid] = n
            stack.extend(n.parents)
    return seen


def _trimer() -> bb.AtomicConfiguration:
    """The synth:trimer rest geometry, as the CLI builds it."""
    r0, th = tr.MORSE_R0, tr.ANGULAR_THETA0
    pos = np.array([[0.0, 0.0, 0.0], [r0, 0.0, 0.0], [r0 * math.cos(th), r0 * math.sin(th), 0.0]])
    return bb.AtomicConfiguration(species=np.full(3, CARBON), positions=pos)


def _energy_fn(state, species):
    return lambda pos: bb.energy(bb.AtomicConfiguration(species=species, positions=pos), state)[0]


# ----------------------------------------------------------------- md-trimer

class MdTrimer(Workload):
    """``sphattn md`` on synth:trimer; one op is one BAOAB step."""

    name = "md-trimer"
    STEPS = 300  # per round; every round restarts from the rest geometry
    DT = 1.0  # fs
    # strong friction and a mild temperature keep the nearly force-free
    # atoms diffusing slowly: over 300 steps the widest pair stayed below
    # 2.8 A in 200 seeds, against the 5 A cutoff
    FRICTION = 1.0  # 1/fs
    TEMP = 300.0  # K
    RERUN_STEPS = 50
    FD_FRAMES = (STEPS // 2, STEPS)
    ops_per_round = STEPS

    def _argv(self, steps: int, out: Path) -> list[str]:
        argv = ["md", "--system", "synth:trimer", "--random-model", "--random-gate",
                "--steps", str(steps), "--dt", repr(self.DT), "--friction", repr(self.FRICTION),
                "--temp", repr(self.TEMP), "--seed", str(self.seed), "--out", str(out)]
        return argv if self.gating else argv + ["--no-gating"]

    def setup(self):
        self.model = bb.new_model([CARBON], seed=self.seed, random_gate=True, gating=self.gating)
        self.states = []
        self.first_round = None
        self.rounds_agree = True
        if self._cli(self._argv(1, self.out / "warmup")) != 0:
            raise RuntimeError("warm-up md run failed")

    def install_clock(self):
        orig = md.langevin_step

        def langevin_step(*args, **kwargs):
            tracer = self.tracer
            t = perf_counter()
            span = tracer.open("md.langevin_step") if tracer is not None else None
            try:
                state = orig(*args, **kwargs)
            finally:
                if span is not None:
                    tracer.close(span)
            self.phase.times.append((0, perf_counter() - t))
            self.states.append(state)
            return state

        self.clock.patch(md, "langevin_step", langevin_step)

    def round(self):
        self.states = []
        run_dir = self.out / "md"
        if self._cli(self._argv(self.STEPS, run_dir)) != 0:
            return False
        artifacts = ((run_dir / "trajectory.extxyz").read_bytes(), (run_dir / "stats.csv").read_bytes())
        if self.first_round is None:
            self.first_round = artifacts
        elif artifacts != self.first_round:
            self.rounds_agree = False
        return True

    def check(self):
        frames = _frames(self.first_round[0])
        if not self.rounds_agree:
            raise checks.CheckFailed("md rounds with the same seed wrote different artifacts")
        checks.check_inside_cutoff(frames, self.model.config["cutoff"], "md-trimer")
        temps = [float(row["temperature"]) for row in csv.DictReader(io.StringIO(self.first_round[1].decode()))]
        checks.check_temperature(temps, self.TEMP, 3, self.FRICTION, self.DT, "md-trimer")

        species = np.full(3, CARBON)
        energy = _energy_fn(self.model, species)
        coords = [(a, k) for a in range(3) for k in range(3)]
        for step in self.FD_FRAMES:
            state = self.states[step - 1]
            checks.check_bitwise([state.positions], [frames[step]], f"md-trimer step {step} frame")
            fd = checks.central_difference_forces(energy, state.positions, coords)
            checks.check_forces(state.forces, fd, coords, f"md-trimer step {step}")

        rerun = self.out / "rerun"
        if self._cli(self._argv(self.RERUN_STEPS, rerun)) != 0:
            raise checks.CheckFailed("md rerun failed")
        again = _frames((rerun / "trajectory.extxyz").read_bytes())
        checks.check_bitwise([again], [frames[: self.RERUN_STEPS + 1]], "md-trimer rerun of the first steps")

    def tape_inputs(self):
        return [([_trimer()], None)]


def _frames(extxyz: bytes) -> np.ndarray:
    return np.stack([s.positions for s in tr.parse_extxyz(extxyz.decode()).samples])


# ------------------------------------------------------------------ ef-cloud

class EfCloud(Workload):
    """backbone.energy_and_forces on seeded random carbon clouds; one op is one call."""

    name = "ef-cloud"
    # (atoms, directed edges): each cloud is redrawn until it has exactly
    # this many edges, the most common count at its size, so every seed
    # does the same work
    SIZES = ((20, 372), (30, 858), (45, 1944))
    FD_COORDS = 2  # sampled coordinates per cloud
    ops_per_round = len(SIZES)

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.model = bb.new_model([CARBON], seed=self.seed, random_gate=True, gating=self.gating)
        cutoff = self.model.config["cutoff"]
        self.clouds = [_cloud(n, edges, cutoff, rng) for n, edges in self.SIZES]
        self.shift = rng.normal(0.0, 2.0, 3)
        self.coords = [
            [(int(rng.integers(n)), int(rng.integers(3))) for _ in range(self.FD_COORDS)]
            for n, _ in self.SIZES
        ]
        self.results = [None] * len(self.SIZES)
        bb.energy_and_forces(self.clouds[-1], self.model)

    def install_clock(self):
        pass  # the benchmark makes the calls itself

    def round(self):
        tracer = self.tracer
        for i, cloud in enumerate(self.clouds):
            t = perf_counter()
            span = tracer.open("ef.call") if tracer is not None else None
            try:
                self.results[i] = bb.energy_and_forces(cloud, self.model)
            finally:
                if span is not None:
                    tracer.close(span)
            self.phase.times.append((i, perf_counter() - t))
        return True

    def size_medians(self, phase):
        return [statistics.median(t for j, t in phase.times if j == i) * 1e3 for i in range(len(self.SIZES))]

    def op_ms(self, phase):
        """Mean over the cloud sizes of each size's median call time."""
        return statistics.fmean(self.size_medians(phase))

    def check(self):
        ungated = bb.ModelState(dict(self.model.config, gating=False), self.model.params)
        for (n, edges), cloud, coords, result in zip(self.SIZES, self.clouds, self.coords, self.results):
            label = f"ef-cloud {n} atoms"
            e, _, f = result
            fd = checks.central_difference_forces(_energy_fn(self.model, cloud.species), cloud.positions, coords)
            checks.check_forces(f, fd, coords, label)
            checks.check_net_force(f, label)
            shifted = bb.AtomicConfiguration(species=cloud.species, positions=cloud.positions + self.shift)
            checks.check_translation(e, bb.energy(shifted, self.model)[0], label)
            checks.check_bitwise(
                bb.energy_and_forces(cloud, self.model, gate_override=1.0),
                bb.energy_and_forces(cloud, ungated),
                f"{label}: gates clamped to 1 against gating off",
            )

    def tape_inputs(self):
        return [([cloud], None) for cloud in self.clouds]

    def notes(self, phase):
        sizes = ", ".join(f"{n} atoms/{e} edges {m:.1f} ms" for (n, e), m in zip(self.SIZES, self.size_medians(phase)))
        return f"median call time per cloud: {sizes}"


def _cloud(n: int, edges: int, cutoff: float, rng) -> bb.AtomicConfiguration:
    """A cloud:N-style cloud (normal, sigma 1.2 A) with exactly ``edges`` edges."""
    for _ in range(100_000):
        pos = np.random.default_rng(int(rng.integers(2**32))).normal(0.0, 1.2, (n, 3))
        if neighbor_list(pos, cutoff).n_edges == edges:
            return bb.AtomicConfiguration(species=np.full(n, CARBON), positions=pos)
    raise RuntimeError(f"no {n}-atom cloud with {edges} edges found")


# -------------------------------------------------------------- train-trimer

class TrainTrimer(Workload):
    """``sphattn train --data synth:trimer``; one op is one Adam step on 16 trimers."""

    name = "train-trimer"
    STEPS = 100  # per round: validation at step 0 and 100, then the CLI's final pass
    BATCH = 16
    DATA = 2000
    EDGES_PER_OP = BATCH * 6
    CHECKED = ("embed", "layer0.radial", "layer0.attn.wq_node", "layer0.attn.pos", "layer0.attn.gate_w")
    ops_per_round = STEPS

    def _argv(self, out: Path) -> list[str]:
        argv = ["train", "--data", "synth:trimer", "--data-size", str(self.DATA),
                "--data-seed", str(self.seed), "--seed", str(self.seed), "--steps", str(self.STEPS),
                "--batch-size", str(self.BATCH), "--val-every", "100", "--out", str(out)]
        return argv if self.gating else argv + ["--no-gating"]

    def setup(self):
        ds = tr.synth_dataset("trimer", self.DATA, seed=self.seed)
        self.model = bb.new_model(ds.species_vocabulary(), seed=self.seed, gating=self.gating)
        tr.init_reference_energies(self.model, ds.split("train"))
        self.batch = ds.split("train")[: self.BATCH]
        self.wrong_edges = 0
        self._step_start = None
        self._step_span = None
        force_loss(self.batch, self.model, want_grad=True)  # a training step without the update

    def _end_step(self):
        if self._step_start is not None:
            self.phase.times.append((0, perf_counter() - self._step_start))
            self._step_start = None
        if self._step_span is not None:
            self.tracer.close(self._step_span)
            self._step_span = None

    def install_clock(self):
        # a step starts where the trainer builds its batch graph over
        # parameter leaves, and ends where the next one starts or where a
        # validation pass starts
        orig_batch_graph, orig_evaluate = bb.batch_graph, tr.evaluate

        def batch_graph(configs, state, params=None, neighbor_lists=None, gate_override=None):
            if params is not None:
                self._end_step()
                if sum(nl.n_edges for nl in neighbor_lists) != self.EDGES_PER_OP:
                    self.wrong_edges += 1
                self._step_start = perf_counter()
                if self.tracer is not None:
                    self._step_span = self.tracer.open("training.step")
            return orig_batch_graph(configs, state, params=params, neighbor_lists=neighbor_lists,
                                    gate_override=gate_override)

        def evaluate(*args, **kwargs):
            self._end_step()
            return orig_evaluate(*args, **kwargs)

        self.clock.patch(bb, "batch_graph", batch_graph)
        self.clock.patch(tr, "evaluate", evaluate)

    def round(self):
        try:
            return self._cli(self._argv(self.out / "train")) == 0
        finally:
            self._end_step()

    def check(self):
        if self.wrong_edges:
            raise checks.CheckFailed(f"{self.wrong_edges} training batches lacked {self.EDGES_PER_OP} edges")
        with open(self.out / "train" / "history.csv", newline="") as fh:
            history = [(int(r["step"]), r["split"], r["metric"], float(r["value"])) for r in csv.DictReader(fh)]
        checks.check_training(history)

        trained, _ = tr.load_checkpoint(str(self.out / "train" / "checkpoint.json"))
        for name, index, analytic, fd, loss in param_gradients(self.batch, trained, self.CHECKED):
            checks.check_param_grad(name, index, analytic, fd, loss)

    def tape_inputs(self):
        return [(self.batch, {k: ad.leaf(v) for k, v in self.model.params.items()})]


def force_loss(batch, state, params=None, want_grad=False):
    """The trainer's force-weighted loss on ``batch``, and its
    reverse-over-reverse parameter gradients when asked for."""
    params = state.params if params is None else params
    nodes = {k: ad.leaf(v) for k, v in params.items()}
    graph = bb.batch_graph(batch, state, params=nodes)
    (g,) = ad.grad(ad.sum_(graph.energies), [graph.positions], allow_unused=True)
    pred = tr.EnergyForces(graph.energies, ad.neg(g), graph.n_atoms)
    target = tr.EnergyForces(
        np.array([c.energy for c in batch]),
        np.concatenate([c.forces for c in batch]),
        np.array([c.n_atoms for c in batch]),
    )
    loss = tr.loss(pred, target)
    value = float(loss.value)
    if not want_grad:
        ad.release(loss)
        return value
    names = sorted(params)
    grads = ad.grad(loss, [nodes[k] for k in names], allow_unused=True)
    out = {k: gr.value.copy() for k, gr in zip(names, grads)}
    ad.release(loss, *grads)
    return value, out


def param_gradients(batch, state, names):
    """(name, index, analytic, central difference, loss) at the largest
    gradient entry of each named parameter table."""
    loss, grads = force_loss(batch, state, want_grad=True)
    h = checks.PARAM_FD_STEP
    out = []
    for name in names:
        index = np.unravel_index(np.argmax(np.abs(grads[name])), grads[name].shape)
        plus = {k: v.copy() for k, v in state.params.items()}
        minus = {k: v.copy() for k, v in state.params.items()}
        plus[name][index] += h
        minus[name][index] -= h
        fd = (force_loss(batch, state, plus) - force_loss(batch, state, minus)) / (2 * h)
        out.append((name, tuple(int(i) for i in index), float(grads[name][index]), fd, loss))
    return out


WORKLOADS = {w.name: w for w in (MdTrimer, EfCloud, TrainTrimer)}

"""Self-test of the benchmark's output checks, at toy sizes.

    python3 perfbench/selftest.py

Each check first gets a right result, which it must accept, then a wrong
one, which it must refuse: forces with one component perturbed, a
parameter gradient scaled by 1.01, a gate clamp that differs in the last
bit, a trajectory whose atoms leave the cutoff, and more. It also checks
that the metric names run.py prints are the ones BENCHMARK.json lists.
Exits 1 if any check accepts a wrong result or refuses a right one.
"""

import json
import sys
from pathlib import Path

from run import END_TO_END, _import_program

_import_program()

import numpy as np  # noqa: E402

from sphattn import backbone as bb, md, training as tr  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TOY = dict(channels=4, d=4, grid=(2, 4), n_bessel=4, layers=1)
FAILURES = []


def expect(accepts: bool, label: str, check, *args) -> None:
    try:
        check(*args)
        accepted = True
    except checks.CheckFailed:
        accepted = False
    verdict = "accepted" if accepted else "refused"
    ok = accepted == accepts
    print(f"{'ok  ' if ok else 'FAIL'} {check.__name__} {verdict} {label}")
    if not ok:
        FAILURES.append(label)


def main() -> int:
    model = bb.new_model([6], seed=0, random_gate=True, **TOY)
    cloud = bb.AtomicConfiguration(
        species=np.full(6, 6), positions=np.random.default_rng(0).normal(0.0, 1.2, (6, 3))
    )
    e, _, f = bb.energy_and_forces(cloud, model)
    coords = [(a, k) for a in range(6) for k in range(3)]
    fd = checks.central_difference_forces(workloads._energy_fn(model, cloud.species), cloud.positions, coords)
    bad = f.copy()
    bad[2, 1] += 1e-5 * np.abs(f).max()
    expect(True, "analytic forces", checks.check_forces, f, fd, coords, "toy")
    expect(False, "forces with one component perturbed", checks.check_forces, bad, fd, coords, "toy")
    expect(True, "analytic forces", checks.check_net_force, f, "toy")
    expect(False, "forces with one component perturbed", checks.check_net_force, bad, "toy")

    shifted = bb.AtomicConfiguration(species=cloud.species, positions=cloud.positions + [0.3, -1.1, 2.0])
    e_shifted = bb.energy(shifted, model)[0]
    expect(True, "energy of the translated cloud", checks.check_translation, e, e_shifted, "toy")
    expect(False, "energy moved by 1e-10", checks.check_translation, e, e_shifted + 1e-10 * (abs(e) + 1), "toy")

    ungated = bb.ModelState(dict(model.config, gating=False), model.params)
    clamped = bb.energy_and_forces(cloud, model, gate_override=1.0)
    plain = bb.energy_and_forces(cloud, ungated)
    off = clamped[2].copy()
    off[0, 0] = np.nextafter(off[0, 0], np.inf)
    expect(True, "gate clamp against gating off", checks.check_bitwise, clamped, plain, "toy")
    expect(False, "gate clamp that differs in the last bit", checks.check_bitwise,
           (clamped[0], clamped[1], off), plain, "toy")

    trimer = workloads._trimer()
    zero = lambda x: (0.0, np.zeros_like(x))  # noqa: E731
    traj = md.run(trimer, zero, steps=300, dt=1.0, friction=1.0, temperature=300.0, seed=0)
    expect(True, "diffusing trimer", checks.check_inside_cutoff, traj.positions, 5.0, "toy")
    escaped = traj.positions.copy()
    escaped[-1, 2] = escaped[-1, 0] + [6.0, 0.0, 0.0]
    expect(False, "trajectory whose atoms leave the cutoff", checks.check_inside_cutoff, escaped, 5.0, "toy")
    temps = [r["temperature"] for r in traj.force_stats]
    expect(True, "thermostatted run", checks.check_temperature, temps, 300.0, 3, 1.0, 1.0, "toy")
    expect(False, "run 30% too hot", checks.check_temperature, np.multiply(temps, 1.3), 300.0, 3, 1.0, 1.0, "toy")

    ds = tr.synth_dataset("trimer", 10, seed=0)
    state = bb.new_model([6], seed=0, random_gate=True, **TOY)
    tr.init_reference_energies(state, ds.split("train"))
    for name, index, analytic, fd_grad, loss in workloads.param_gradients(
        ds.split("train")[:2], state, workloads.TrainTrimer.CHECKED
    ):
        expect(True, f"gradient wrt {name}", checks.check_param_grad, name, index, analytic, fd_grad, loss)
        expect(False, f"gradient wrt {name} scaled by 1.01", checks.check_param_grad,
               name, index, 1.01 * analytic, fd_grad, loss)

    history = [(0, "valid", "loss", 10.0), (0, "valid", "force_mae", 1.0),
               (100, "train", "loss", 4.0), (100, "valid", "loss", 5.0)]
    expect(True, "training that lowered the loss", checks.check_training, history)
    expect(False, "final loss above the step-0 loss", checks.check_training,
           history[:-1] + [(100, "valid", "loss", 11.0)])
    expect(False, "diverged run", checks.check_training, history + [(101, "train", "diverged", 1.0)])
    expect(False, "non-finite loss", checks.check_training, history[:-1] + [(100, "valid", "loss", float("nan"))])

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for kind, printed in (("end_to_end", END_TO_END), ("per_layer", spans.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[kind]}
        if listed != printed:
            print(f"FAIL {kind} metrics of run.py differ from BENCHMARK.json")
            FAILURES.append(kind)
        else:
            print(f"ok   run.py prints the {len(listed)} {kind} metrics BENCHMARK.json lists")

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

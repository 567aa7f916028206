"""Micro-timings of the trapezoidal stepping stack, optionally against a
second copy of the package.

    PYTHONPATH=src python tools/step_timings.py --rounds 30
    PYTHONPATH=src python tools/step_timings.py --rounds 30 --against OTHER/src/moi

Times, in CPU microseconds per call:

- ``step_trapezoidal_batch`` at K = 1, 16 and 64 on the pendulum (h 0.02)
  and the bundled 9-bus network (h 1/60);
- ``Lockstep.step`` with 17 pendulum members and with 16 9-bus members
  near the boundary (one step per call, every member live); unlike the
  batch-step cases, which call the stepper afresh, these steps take the
  field that the Lockstep carries from the step before;
- ``Lockstep.step`` with 17 pendulum members straddling the boundary, over
  steps 600 to 800, where 8 of them linger past their saddles and the
  escape test evaluates their energies, and the first two end in their
  escape sets;
- the scalar ``step_trapezoidal`` on both models;
- ``simulate`` of one recovering pendulum run (p 1.5, h 0.02), which ends
  in its certified set, per step it stores, which adds to the scalar step
  the cost of recording; and the same with ``record_flags=True``, which
  adds a Jacobian and the instability flag of every stored state;
- the certified and escape sets (``integrator._recovery_sets``) that
  ``Lockstep.add`` computes for K = 1 and 16 members on both models, per
  call; the sets themselves may differ between packages, so only which
  members are certified is compared;
- the batched swing step at K = 16 on seeded synthetic n-machine networks,
  n = 3, 10 and 30, built here (no data file);
- ``load_network`` of the bundled 9-bus file, per call; its parameters are
  compared field by field, dtype included.

Each case runs the same inputs for ``--rounds`` rounds (at least 2); a
round times a block of calls.  With ``--against`` the other package is imported under
another name and every round times both packages back to back, alternating
which goes first, so a drift in host speed hits both alike.  Before timing,
the two packages' outputs are compared bitwise on the timed inputs, over
one round's block of calls (for the Lockstep cases, that many steps: the
past-saddle case's block covers its window, ends included).  The
last line of output is one JSON object with the medians and quartiles.
"""

from __future__ import annotations

import argparse
import copy
import importlib.util
import json
import statistics
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

#: torque just inside the pendulum's recovery boundary at h = 0.02
PEND_P = 1.5686593295631313
#: inertia scale near the 9-bus recovery boundary at h = 1/60: members
#: within 1e-6 of it live for 360 to 420 steps
NINEBUS_P = 0.47971420288085936


def load_package(path: Path, name: str):
    """Import the package in directory ``path`` under the module name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def synthetic_network(moi, n: int, seed: int):
    """Seeded n-machine swing network near the scale of the 9-bus data
    (inertias 0.02-0.13, a weak anchor tie, a dense reduced admittance
    matrix), with the mechanical powers set so that the angles returned
    alongside it, at zero speed, are an equilibrium."""
    rng = np.random.default_rng(seed)
    b = rng.uniform(0.2, 1.2, (n + 1, n + 1)) / np.sqrt(n)
    g = rng.uniform(0.05, 0.25, (n + 1, n + 1)) / np.sqrt(n)
    b, g = (b + b.T) / 2.0, (g + g.T) / 2.0
    np.fill_diagonal(b, -b.sum(axis=1))
    inertia = rng.uniform(0.02, 0.13, n)
    params = moi.MultiMachineParams(
        inertia=inertia,
        damping=inertia,
        mech_power=np.zeros(n),
        emf=rng.uniform(1.0, 1.06, n),
        slack_emf=1.02,
        conductance=g,
        susceptance=b,
    )
    eq = np.concatenate([rng.uniform(0.0, 0.4, n), np.zeros(n)])
    pe = -inertia * moi.multimachine_system(params).field(eq, np.ones(1))[n:]
    return moi.multimachine_system(replace(params, mech_power=pe)), eq


def pendulum_states(moi, k: int) -> tuple:
    """K states spread over a trajectory that dwells near the saddle."""
    sys_ = moi.pendulum_system(moi.PendulumParams(ic_method="integrated"))
    cfg = moi.IntegratorConfig(step=0.02, divergence_norm=50.0)
    sep = moi.find_sep(sys_, [PEND_P])
    states = moi.simulate(sys_, [PEND_P], cfg, sep).states
    pick = np.linspace(0, len(states) - 1, k).astype(int)
    p = PEND_P + np.linspace(0.0, 1e-6, k)[:, None]
    return sys_, cfg, states[pick], p


def ninebus_states(moi, k: int) -> tuple:
    sys_ = moi.multimachine_system(moi.load_network(moi.bundled_network_path()))
    cfg = moi.IntegratorConfig(step=1.0 / 60.0, divergence_norm=200.0)
    p = np.array([0.48])
    states = moi.simulate(sys_, p, cfg, moi.find_sep(sys_, p)).states
    pick = np.linspace(0, len(states) - 1, k).astype(int)
    return sys_, cfg, states[pick], 0.48 + np.linspace(0.0, 0.02, k)[:, None]


def synthetic_states(moi, n: int, k: int) -> tuple:
    sys_, eq = synthetic_network(moi, n, seed=n)
    cfg = moi.IntegratorConfig(step=1.0 / 60.0)
    rng = np.random.default_rng(1000 + n)
    x = eq + rng.uniform(-0.3, 0.3, (k, sys_.state_dim))
    return sys_, cfg, x, np.ones((k, 1))


def cases(moi) -> dict:
    """name -> (calls per round, fn() -> output compared across packages,
    steps per call)."""
    integ = moi.integrator

    def batch(case, calls):
        sys_, cfg, x, p = case
        return calls, lambda: integ.step_trapezoidal_batch(sys_, x, p, cfg), 1

    def scalar(case, calls):
        sys_, cfg, x, p = case
        return calls, lambda: integ.step_trapezoidal(sys_, x[-1], p[-1], cfg), 1

    out = {}
    for k in (1, 16, 64):
        out[f"batch_step.pendulum.K{k}"] = batch(pendulum_states(moi, k), 200)
    for k in (1, 16, 64):
        out[f"batch_step.ninebus.K{k}"] = batch(ninebus_states(moi, k), 100)
    for n in (3, 10, 30):
        out[f"batch_step.synthetic_n{n}.K16"] = batch(synthetic_states(moi, n, 16), 50)
    out["scalar_step.pendulum"] = scalar(pendulum_states(moi, 2), 300)
    out["scalar_step.ninebus"] = scalar(ninebus_states(moi, 2), 200)
    pendulum = moi.pendulum_system(moi.PendulumParams(ic_method="integrated"))
    pend_cfg = moi.IntegratorConfig(step=0.02, divergence_norm=50.0)
    out["lockstep_step.pendulum.K17"] = (100, lockstep_case(
        moi, pendulum, pend_cfg, PEND_P - np.linspace(0.0, 1e-9, 17)[:, None], 200, 2200,
    ), 1)
    out["lockstep_step.pendulum.K17.past_saddle"] = (200, lockstep_case(
        moi, pendulum, pend_cfg, PEND_P + np.linspace(-1e-9, 1e-9, 17)[:, None], 600, 800,
    ), 1)
    nine_bus = moi.multimachine_system(moi.load_network(moi.bundled_network_path()))
    out["lockstep_step.ninebus.K16"] = (50, lockstep_case(
        moi, nine_bus, moi.IntegratorConfig(step=1.0 / 60.0, divergence_norm=200.0),
        NINEBUS_P + np.linspace(-1e-6, 1e-6, 16)[:, None], 50, 350,
    ), 1)
    out["simulate_step.pendulum"] = simulate_case(moi)
    out["simulate_step.pendulum.flags"] = simulate_case(moi, record_flags=True)
    for k in (1, 16):
        out[f"recovery_sets.pendulum.K{k}"] = sets_case(moi, pendulum_states(moi, k), 200)
        out[f"recovery_sets.ninebus.K{k}"] = sets_case(moi, ninebus_states(moi, k), 100)
    out["load_network.bundled"] = (200, network_case(moi), 1)
    return out


def network_case(moi):
    """fn() reading the bundled network; it returns every field."""
    path = moi.bundled_network_path()
    names = [field.name for field in fields(moi.MultiMachineParams)]

    def run():
        params = moi.load_network(path)
        return tuple(getattr(params, name) for name in names)

    return run


def sets_case(moi, case, calls: int):
    """(calls, fn, 1) for the certified and escape sets of the members at
    the parameters of ``case``, around their SEPs; fn returns which members
    are certified."""
    sys_, cfg, _, p = case
    seps = np.array([moi.find_sep(sys_, q) for q in p])

    def run():
        return moi.integrator._recovery_sets(sys_, p, seps, cfg)[1] > 0.0

    return calls, run, 1


def simulate_case(moi, record_flags: bool = False):
    """(calls, fn, steps per call) for ``simulate`` of one recovering
    pendulum run; fn returns its states, and its flags when they are
    recorded."""
    sys_ = moi.pendulum_system(moi.PendulumParams(ic_method="integrated"))
    cfg = moi.IntegratorConfig(step=0.02, divergence_norm=50.0)
    p = np.array([1.5])
    sep = moi.find_sep(sys_, p)

    def run():
        traj = moi.simulate(sys_, p, cfg, sep, record_flags=record_flags)
        return (traj.states, traj.instability_flags) if record_flags else traj.states

    return 1, run, len(moi.simulate(sys_, p, cfg, sep).states) - 1


def lockstep_case(moi, sys_, cfg, p, warm: int, last: int):
    """fn() stepping a Lockstep of members at the rows of ``p``, started
    from a copy of the Lockstep stepped ``warm`` times whenever it has taken
    ``last`` steps; the copy is made once, untimed.  fn returns the live
    members' states and the ends of the step: id, termination, final
    state, elapsed time and tau."""
    seps = np.array([moi.find_sep(sys_, q) for q in p])
    warmed = moi.integrator.Lockstep(sys_, cfg)
    warmed.add(p, seps)
    for _ in range(warm):
        warmed.step()
    state = {}

    def step():
        lock = state.get("lock")
        if lock is None or lock.steps >= last:
            lock = state["lock"] = copy.deepcopy(warmed)
        ends = lock.step()
        return lock._x.copy(), tuple(
            (k, end.termination.value, end.final_state, end.elapsed, end.tau)
            for k, end in sorted(ends.items())
        )

    return step


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(u, v) for u, v in zip(a, b))
    if isinstance(a, np.ndarray):
        return (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(
            a, b, equal_nan=True
        )
    return a == b


def time_block(fn, calls: int) -> float:
    t0 = time.thread_time()
    for _ in range(calls):
        fn()
    return (time.thread_time() - t0) / calls * 1e6


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def rounds(text: str) -> int:
    """``--rounds``: the quartiles need at least two runs per case."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"at least 2 rounds are needed, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=rounds, default=30)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args(argv)
    import moi

    sides = {"this": cases(moi)}
    if args.against is not None:
        sides["against"] = cases(load_package(args.against.resolve(), "moi_against"))
        for name, (calls, fn, _) in sides["this"].items():
            other = sides["against"][name][1]
            if not all(same(fn(), other()) for _ in range(calls)):
                print(f"outputs differ: {name}", file=sys.stderr)
                return 1
    names = list(sides["this"])
    runs = {side: {name: [] for name in names} for side in sides}
    order = list(sides)
    for r in range(args.rounds):
        for name in names:
            for side in order if r % 2 == 0 else order[::-1]:
                calls, fn, steps = sides[side][name]
                fn()
                runs[side][name].append(time_block(fn, calls) / steps)
    result = {
        "unit": "us CPU per call (per step for simulate)",
        "rounds": args.rounds,
        "numpy": np.__version__,
        "cases": {
            name: {side: quartiles(runs[side][name]) for side in sides}
            for name in names
        },
    }
    for name in names:
        line = "  ".join(
            f"{side} {result['cases'][name][side]['median']:8.1f}" for side in sides
        )
        print(f"{name:34s} {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

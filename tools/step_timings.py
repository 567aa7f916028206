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
- ``Lockstep.step`` with 17 pendulum members 3e-5 to 1e-3 above the
  boundary, over steps 150 to 280, where they pass their saddles and the
  escape test evaluates their energies, and 15 of them end in their
  energy sets, far enough from their saddles that no exit cone ends one;
- ``Lockstep.step`` with 17 recovering pendulum members within 1e-13
  below the boundary, over steps 500 to 700, where each lies by its
  saddle, within its exit cone's band, so the escape test evaluates the
  cone for all of them, and none enters it;
- ``Lockstep.step`` with 17 recovering pendulum members 1e-7 to 1e-4
  below the boundary, over steps 520 to 900, where they go down into
  their energy wells one after another, about 24 steps apart, and 16 of
  them end there;
- the scalar ``step_trapezoidal`` on both models;
- ``simulate`` of one failing pendulum run (p 1.7, h 0.02), which ends
  in its escape set after 90 steps, per step it stores, which adds to the
  scalar step the cost of recording; and the same with
  ``record_flags=True``, which adds a Jacobian and the instability flag of
  every stored state (a recovering run stores other steps in a package
  that ends it sooner in a recovered set, so its cost per step would
  compare different steps);
- the certified and escape sets and the wells
  (``integrator._recovery_sets``) that ``Lockstep.add`` computes for K = 1
  and 16 members on both models, per call; the sets themselves may differ
  between packages, so only which members have a recovery set (a
  certificate, or a well where the package has wells) is compared;
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
past-saddle case's block covers its window, ends included).  A package may
end a recovering run sooner than the other, in a recovered set of its
model: there the Lockstep cases compare the members live in both packages
and the ends both report, and accept an end that only one package
reports where it is a ``certified`` end of a member the other still
steps, or comes after that member's end in the other.  The
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
    """K states spread over the first 2,000 steps of a trajectory that
    dwells near the saddle, steps that a package which ends the run sooner
    still takes."""
    sys_ = moi.pendulum_system(moi.PendulumParams(ic_method="integrated"))
    cfg = moi.IntegratorConfig(step=0.02, divergence_norm=50.0)
    sep = moi.find_sep(sys_, [PEND_P])
    states = moi.simulate(sys_, [PEND_P], cfg, sep).states[:2001]
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
    steps per call[, comparison of two outputs, ``same`` if absent])."""
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
    ), 1, ends_agree)
    out["lockstep_step.pendulum.K17.past_saddle"] = (100, lockstep_case(
        moi, pendulum, pend_cfg, PEND_P + np.geomspace(3e-5, 1e-3, 17)[:, None], 150, 280,
    ), 1)
    out["lockstep_step.pendulum.K17.cone_radius"] = (200, lockstep_case(
        moi, pendulum, pend_cfg, PEND_P - np.linspace(0.0, 1e-13, 17)[:, None], 500, 700,
    ), 1)
    out["lockstep_step.pendulum.K17.well"] = (380, lockstep_case(
        moi, pendulum, pend_cfg, PEND_P - np.geomspace(1e-7, 1e-4, 17)[:, None], 520, 900,
    ), 1, ends_agree)
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
    """(calls, fn, 1) for the certified and escape sets and the wells of
    the members at the parameters of ``case``, around their SEPs; fn
    returns which members have a certificate."""
    sys_, cfg, _, p = case
    seps = np.array([moi.find_sep(sys_, q) for q in p])

    def run():
        return moi.integrator._recovery_sets(sys_, p, seps, cfg)[1] > 0.0

    return calls, run, 1


def simulate_case(moi, record_flags: bool = False):
    """(calls, fn, steps per call) for ``simulate`` of one failing
    pendulum run; fn returns its states, and its flags when they are
    recorded."""
    sys_ = moi.pendulum_system(moi.PendulumParams(ic_method="integrated"))
    cfg = moi.IntegratorConfig(step=0.02, divergence_norm=50.0)
    p = np.array([1.7])
    sep = moi.find_sep(sys_, p)

    def run():
        traj = moi.simulate(sys_, p, cfg, sep, record_flags=record_flags)
        return (traj.states, traj.instability_flags) if record_flags else traj.states

    return 1, run, len(moi.simulate(sys_, p, cfg, sep).states) - 1


def lockstep_case(moi, sys_, cfg, p, warm: int, last: int):
    """fn() stepping a Lockstep of members at the rows of ``p``, started
    from a copy of the Lockstep stepped ``warm`` times whenever it has taken
    ``last`` steps or has no member left (an empty Lockstep takes no
    step); the copy is made once, untimed.  fn returns the live
    members' states by id and the ends of the step by id: termination,
    final state, elapsed time, tau and rule."""
    seps = np.array([moi.find_sep(sys_, q) for q in p])
    warmed = moi.integrator.Lockstep(sys_, cfg)
    warmed.add(p, seps)
    for _ in range(warm):
        warmed.step()
    state = {}

    def step():
        lock = state.get("lock")
        if lock is None or lock.steps >= last or not len(lock):
            lock = state["lock"] = copy.deepcopy(warmed)
        ends = lock.step()
        return dict(zip(lock._ids.tolist(), lock._x.copy())), {
            k: (end.termination.value, end.final_state, end.elapsed, end.tau, end.rule)
            for k, end in ends.items()
        }

    return step


def ends_agree(this, other) -> bool:
    """Whether two packages' outputs of one Lockstep step agree (see the
    module docstring): ``same`` for the members live in both and the ends
    both report; an end reported by one package alone is ``certified`` of
    a member live in the other, or follows that member's end there."""
    (live, ends), (other_live, other_ends) = this, other
    for k in live.keys() & other_live.keys():
        if not same(live[k], other_live[k]):
            return False
    for k in ends.keys() & other_ends.keys():
        if not same(ends[k], other_ends[k]):
            return False
    for mine, theirs, theirs_live in ((ends, other_ends, other_live),
                                      (other_ends, ends, live)):
        for k in mine.keys() - theirs.keys():
            if not (mine[k][4] == "certified" and k in theirs_live or k not in theirs_live):
                return False
    return True


def same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
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
        for name, (calls, fn, *rest) in sides["this"].items():
            other, agree = sides["against"][name][1], (rest[1:] or [same])[0]
            if not all(agree(fn(), other()) for _ in range(calls)):
                print(f"outputs differ: {name}", file=sys.stderr)
                return 1
    names = list(sides["this"])
    runs = {side: {name: [] for name in names} for side in sides}
    order = list(sides)
    for r in range(args.rounds):
        for name in names:
            for side in order if r % 2 == 0 else order[::-1]:
                calls, fn, steps = sides[side][name][:3]
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

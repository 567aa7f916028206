"""Benchmark systems: a damped driven pendulum and a classical swing network.

Both models come with a finite-time disturbance whose end state is the
system's initial condition x0(p): the pendulum loses its restoring torque
for a fixed interval, the network suffers a bolted short circuit at a
generator terminal.  The shared parameterizations make the recovery
boundary interesting — driving torque for the pendulum, machine inertia for
the network.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataFormatError, NewtonDivergence, ParamOutOfRange
# step_trapezoidal is no longer called here, but perfbench/bench_tracer.py
# patches moi.model_zoo.step_trapezoidal, so the name stays importable.
from .integrator import (  # noqa: F401
    _NEWTON_MARGIN,
    _RESIDUAL_ROUNDING,
    IntegratorConfig,
    _step_budget,
    step_trapezoidal,
    step_trapezoidal_batch,
)
from .recovery_boundary import find_equilibrium
from .system_core import ParameterizedSystem, _count_nonzero

#: divergence-norm settings that reliably separate escape from recovery for
#: the bundled models (the library-wide default of 1e6 is far too lax: the
#: pendulum's velocity saturates near 6 on recovering runs and the network
#: angles stay below ~20, so these catch escape orders of magnitude sooner).
PENDULUM_DIVERGENCE_NORM = 50.0
MULTIMACHINE_DIVERGENCE_NORM = 200.0


# ---------------------------------------------------------------------------
# pendulum


@dataclass(frozen=True)
class PendulumParams:
    """Damped driven pendulum constants and disturbance settings.

    The driving torque is the run-time parameter p.  ``ic_method`` selects
    how the post-disturbance state is produced: ``"closed"`` evaluates the
    exact solution of the linear disturbance dynamics, ``"integrated"``
    replays them with the fixed-step trapezoidal integrator at ``ic_step``
    (the two agree to ~1e-4; the integrated path is what a simulation-only
    workflow would see).
    """

    c1: float = 2.0
    c2: float = 0.5
    disturbance_duration: float = 0.8
    ic_method: str = "closed"
    ic_step: float = 0.02

    def __post_init__(self) -> None:
        _require_finite(self, ("c1", "c2", "disturbance_duration", "ic_step"))
        if min(self.c1, self.c2) <= 0.0:
            raise ValueError(f"c1, c2 must be positive, got ({self.c1}, {self.c2})")
        if self.disturbance_duration < 0.0:
            raise ValueError("disturbance_duration must be non-negative")
        if self.ic_method not in ("closed", "integrated"):
            raise ValueError(
                f"ic_method must be 'closed' or 'integrated', "
                f"got {self.ic_method!r}"
            )
        if self.ic_step <= 0.0:
            raise ValueError("ic_step must be positive")


def _require_finite(params, names) -> None:
    """Raise ValueError naming the first of the fields ``names`` of
    ``params`` that holds a non-finite number (a field set to None is
    absent, not checked)."""
    for name in names:
        value = getattr(params, name)
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")


def _sep_angle(c1: float, torque):
    ratio = torque / c1
    if not np.all((-1.0 < ratio) & (ratio < 1.0)):
        raise ParamOutOfRange(
            f"driving torque {torque} is at or beyond the maximum restoring "
            f"torque {c1}; no equilibrium exists"
        )
    return np.arcsin(ratio)


def pendulum_sep(params: PendulumParams, torque: float) -> np.ndarray:
    """Stable equilibrium (asin(torque/c1), 0) at the given torque."""
    return np.array([_sep_angle(params.c1, torque), 0.0])


def pendulum_uep(params: PendulumParams, torque: float) -> np.ndarray:
    """Saddle (pi - asin(torque/c1), 0) on the basin boundary."""
    return np.array([np.pi - _sep_angle(params.c1, torque), 0.0])


def pendulum_disturbance_ic(params: PendulumParams, p) -> np.ndarray:
    """State at the end of the disturbance started from the equilibrium.

    During the disturbance the restoring torque is absent and the angle
    accelerates under the drive alone: z1' = z2, z2' = -c2 z2 + torque,
    for ``disturbance_duration`` seconds from the pre-disturbance SEP.
    ``p`` may be one parameter vector or a (K, 1) stack, giving (2,) or
    (K, 2).
    """
    p = np.asarray(p, dtype=float)
    torque = p[..., 0]
    c2 = params.c2
    t = params.disturbance_duration
    start = np.stack([_sep_angle(params.c1, torque), np.zeros_like(torque)], axis=-1)
    if params.ic_method == "closed":
        e = np.exp(-c2 * t)
        return np.stack(
            [
                start[..., 0] + (torque / c2) * t - (torque / c2**2) * (1 - e),
                (torque / c2) * (1 - e),
            ],
            axis=-1,
        )
    x = _replay(
        _disturbance_system(c2), np.atleast_2d(start), np.atleast_2d(p), t,
        IntegratorConfig(step=params.ic_step),
    )
    return x.reshape(start.shape)


def _replay(
    sys: ParameterizedSystem, x, q, duration: float, cfg: IntegratorConfig
) -> np.ndarray:
    """The states (K, n) that ``sys`` reaches from ``x`` (K, n) at
    parameters ``q`` (K, m) after ``duration``, rounded to whole steps of
    ``cfg.step``."""
    f = None
    for _ in range(int(round(duration / cfg.step))):
        x, failed, f = step_trapezoidal_batch(sys, x, q, cfg, f)
        if failed.any():
            raise NewtonDivergence(f"{sys.name} replay failed for p = {q[failed]}")
    return x


def _disturbance_system(c2: float) -> ParameterizedSystem:
    """The pendulum without its restoring torque."""

    def field(x, q):
        xt, out = x.T, np.empty(x.shape)
        out.T[0] = xt[1]
        out.T[1] = -c2 * xt[1] + q.T[0]
        return out

    jac = np.array([[0.0, 1.0], [0.0, -c2]])
    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=lambda x, q: np.broadcast_to(jac, x.shape + (2,)),
        name="pendulum-disturbance",
    )


def pendulum_system(params: Optional[PendulumParams] = None) -> ParameterizedSystem:
    """Pendulum as a parameterized system over the scalar driving torque.

    Dynamics: x1' = x2, x2' = -c1 sin(x1) - c2 x2 + p.  The angle is left
    unwrapped — recovery means returning to the same equilibrium
    representative the disturbance started from, not to a shifted copy.
    Its Jacobian bound (``jacobian_lipschitz``) is w = 1, L = c1: only the
    entry -c1 cos(x1), the velocity row at the angle column, varies, and
    by at most c1 |x1 - y1|, as the structured bound requires.
    """
    if params is None:
        params = PendulumParams()
    c1, c2 = params.c1, params.c2
    constant_part = np.array([[0.0, 1.0], [0.0, -c2]])

    # Both callables index the transposed state, whose rows are numpy
    # scalars for a single state (cheap scalar arithmetic) and component
    # views for a batch; the field fills a C-ordered array, which the
    # integrator's array arithmetic runs through fastest.
    def field(x, p):
        xt, out = x.T, np.empty(x.shape)
        out.T[0] = xt[1]
        out.T[1] = -c1 * np.sin(xt[0]) - c2 * xt[1] + p.T[0]
        return out

    def jacobian(x, p):
        jac = np.empty(x.shape + (2,))
        jac[...] = constant_part
        jac[..., 1, 0] = -c1 * np.cos(x.T[0])
        return jac

    unit_weights = np.ones(2)

    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=field,
        jacobian=jacobian,
        initial_condition=lambda p: pendulum_disturbance_ic(params, p),
        name="pendulum",
        state_names=("angle", "velocity"),
        jacobian_lipschitz=lambda p: (unit_weights, c1),
        escape=(
            lambda p, sep, cfg: _pendulum_escape(c1, c2, p, sep, cfg),
            functools.partial(_pendulum_crossing, c1),
        ),
    )


_EPS = np.finfo(float).eps


def _pendulum_escape(c1: float, c2: float, p, sep, cfg: IntegratorConfig) -> np.ndarray:
    """Escape rows (saddle, speed, level, gate) (K, 4) of pendulum runs at
    the torques in ``p`` (K, 1) around the SEPs in ``sep`` (K, 2).

    With E = w^2/2 + U(t), U(t) = -c1 cos t - p t, the saddle of the SEP
    representative t_s is t_u = t_s + pi - 2 asin(p/c1), a local maximum of
    U, and E_u = U(t_u).  Take h the step, R the divergence norm, N the
    step budget and rho = 2 newton_tol + 1e-12 + 8 eps R, which bounds the
    residual g = y - x - (h/2)(f(x) + f(y)) of every computed step x -> y
    of norm at most R (a state beyond R ends the run ``DIVERGED`` anyway).
    Then, with w_bar = (w + w')/2, t' - t = h w_bar + g1 and
    (1 + a) w' = (1 - a) w + h (p - c1 s_bar) + g2, a = h c2 / 2:

    - speed: |w| <= B = (c1 + |p| + rho/h) / c2 implies |w'| <= B while
      h c2 < 2, so every later state keeps |w| <= B;
    - energy: E' - E = -c2 h w_bar^2 - c1 (T - I) + g1 (c1 s_bar - p)
      + w_bar g2, with T - I the trapezoid error of the integral of sin
      over [t, t'], |T - I| <= |t' - t|^3 / 12.  So, with u = h |w_bar|,
      c = c2 / h and k = c1 (h B + rho) / 12, E' - E <= -c u^2 + k (u + rho)^2
      + rho (c1 + |p| + B), and while k < c (i.e. c1 h (h B + rho) < 12 c2)
      that is at most e = rho (c1 + |p| + B + rho c k / (c - k));
    - no jump: two states on either side of t_u, both with E below
      E_u - d, satisfy |w| < sqrt(c1) (distance to t_u), since U'' >= -c1,
      and lie at least sqrt(2 d / c1) from it.  A step between them would
      cover their distance D with D <= h sqrt(c1) D / 2 + rho, which fails
      while h sqrt(c1) < 2 and d >= c1 rho^2 / (2 - h sqrt(c1))^2.

    The level is E_u - delta with delta = m + c1 s^2 / 2 + 16 eps M, where
    m = N e + c1 rho^2 / (2 - h sqrt(c1))^2.  The s term covers the
    distance s of the computed t_u from the exact saddle t* (the SEP's own
    error included, and the rounding of t_u, 8 eps (max(|t_s|, |t_u|) + 4)),
    the M term the rounding of E and E_u at magnitude M = R^2 + 2 c1 +
    |p| (R + |t_u|).  So a state with t > t_u, |w| <= B and E < level has
    an exact energy below that of the exact saddle by more than N e plus
    the jump margin; its energy rises by at most e per step over the at
    most N steps left, and no step jumps back over the saddle: the run
    never returns to t <= t_u, nor to its SEP.

    The gate bounds how close to t_u such a state can lie.  Since
    U'(t*) = 0 and -c1 <= U'' <= c1, U(t) >= U(t*) - c1 (t - t*)^2 / 2
    and U(t*) >= U(t_u) - c1 s^2 / 2.  A state of the set has exact
    energy below U(t_u) - m - c1 s^2 / 2, and E >= U(t), so
    c1 (t - t*)^2 / 2 > m and |t - t_u| > sqrt(2 m / c1) - s.  The gate is
    t_u plus that width, rounded down: the square root is shrunk by
    16 eps of itself and the width by 4 eps (|t_u| + sqrt(2 m / c1)) more,
    which covers the rounding of m, of the root and of the sum t_u + width;
    where the width is not positive, the gate is t_u.  No state with
    t <= gate lies in the set.

    A run at a torque p <= 0 or with no SEP (p >= c1), a step outside the
    three conditions above, or a non-finite input gets saddle and gate inf:
    no state passes them.
    """
    torque, theta_s = p[:, 0], sep[:, 0]
    h, reach, budget = cfg.step, cfg.divergence_norm, _step_budget(cfg)
    with np.errstate(invalid="ignore", divide="ignore"):
        half_gap = np.arcsin(torque / c1)
        saddle = theta_s + np.pi - 2.0 * half_gap
        energy_u = -c1 * np.cos(saddle) - torque * saddle
        rho = _NEWTON_MARGIN * cfg.newton_tol + _RESIDUAL_ROUNDING + 8.0 * _EPS * reach
        speed = (c1 + torque + rho / h) / c2
        c, k = c2 / h, c1 * (h * speed + rho) / 12.0
        rise = rho * (c1 + torque + speed + rho * c * k / (c - k))
        jump = 2.0 - h * np.sqrt(c1)
        off = np.abs(np.remainder(theta_s - half_gap + np.pi, 2.0 * np.pi) - np.pi)
        # the rounding of t_u itself, at the larger of |t_s| and |t_u|
        off += 8.0 * _EPS * (np.maximum(np.abs(theta_s), np.abs(saddle)) + 4.0)
        magnitude = reach**2 + 2.0 * c1 + torque * (reach + np.abs(saddle))
        margin = budget * rise + c1 * rho**2 / jump**2
        delta = margin + c1 * off**2 / 2.0 + 16.0 * _EPS * magnitude
        root = np.sqrt(2.0 * margin / c1)
        width = root * (1.0 - 16.0 * _EPS) - off - 4.0 * _EPS * (np.abs(saddle) + root)
        gate = saddle + np.maximum(width, 0.0)
        ok = (torque > 0.0) & (torque < c1) & (h * c2 < 2.0) & (k < c) & (jump > 0.0)
        ok &= np.isfinite(delta) & np.isfinite(energy_u)
    return np.where(
        ok[:, None], np.stack([saddle, speed, energy_u - delta, gate], axis=-1), np.inf
    )


def _pendulum_energy(c1: float, x, p):
    """E = w^2/2 - c1 cos t - p t at states ``x`` (K, 2), torques ``p`` (K, 1)."""
    return 0.5 * x.T[1] * x.T[1] - c1 * np.cos(x.T[0]) - p.T[0] * x.T[0]


def _pendulum_crossing(c1: float, x_prev, x, p, rows):
    """The ``crossing`` of ``ParameterizedSystem.escape`` for K pendulum
    runs with the escape ``rows`` of :func:`_pendulum_escape`, in the step
    from ``x_prev`` to ``x`` (both (K, 2)).

    A state is in its set when t > saddle, |w| <= speed and E < level.  No
    state at or before its gate is (the gate's proof), so E is evaluated
    only at the states past their gate, and at the previous state of a run
    that entered its set from a state past its saddle: if that energy E_-
    lay above the level, f = (E_- - level) / (E_- - E_n) places the
    crossing by linear interpolation; otherwise f = 1.
    """
    past = x[:, 0] > rows[:, 3]
    if not _count_nonzero(past):
        return None
    y, r = x[past], rows[past]
    energy = _pendulum_energy(c1, y, p[past])
    inside = (np.abs(y[:, 1]) <= r[:, 1]) & (energy < r[:, 2])
    if not _count_nonzero(inside):
        return None
    at = np.flatnonzero(past)[inside]
    energy, (saddle, _, level, _) = energy[inside], r[inside].T
    timed = x_prev[at, 0] > saddle
    previous = np.full(len(at), np.nan)
    previous[timed] = _pendulum_energy(c1, x_prev[at[timed]], p[at[timed]])
    f = np.ones(len(at))
    np.divide(previous - level, previous - energy, out=f, where=previous > level)
    fraction = np.full(len(x), np.nan)
    fraction[at] = f
    return fraction


# ---------------------------------------------------------------------------
# multi-machine swing network


@dataclass(frozen=True)
class MultiMachineParams:
    """Classical swing network reduced to machine internal nodes.

    Node 0 is a phase-anchoring source at angle 0 with EMF ``slack_emf``
    (set 0 to disable); nodes 1..n are the machines.  ``conductance`` and
    ``susceptance`` are the (n+1)x(n+1) reduced admittance matrices;
    ``fault_*`` are their fault-on counterparts (None when the dataset has
    no fault block).  ``inertia`` holds the per-machine coefficients on
    domega/dt with omega in rad/s; the run-time parameter p is a scalar
    multiplier on all of them.
    """

    inertia: np.ndarray
    damping: np.ndarray
    mech_power: np.ndarray
    emf: np.ndarray
    slack_emf: float
    conductance: np.ndarray
    susceptance: np.ndarray
    fault_conductance: Optional[np.ndarray] = None
    fault_susceptance: Optional[np.ndarray] = None
    fault_duration: float = 0.2
    fault_step: float = 1.0 / 60.0

    def __post_init__(self) -> None:
        n = np.size(self.inertia)
        vector, matrix = (n,), (n + 1, n + 1)
        for name, shape in zip(
            ("inertia", "damping", "mech_power", "emf",
             "conductance", "susceptance", "fault_conductance", "fault_susceptance"),
            (vector,) * 4 + (matrix,) * 4,
        ):
            value = getattr(self, name)
            if value is None and name.startswith("fault_"):
                continue
            value = np.asarray(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape} for {n} machines, "
                                 f"got {value.shape}")
            object.__setattr__(self, name, value)
        if (self.fault_conductance is None) != (self.fault_susceptance is None):
            raise ValueError(
                "fault_conductance and fault_susceptance must be supplied "
                "together"
            )
        _require_finite(self, ("inertia", "damping", "mech_power", "emf", "slack_emf",
                               "conductance", "susceptance", "fault_conductance",
                               "fault_susceptance", "fault_duration", "fault_step"))
        if not np.all(self.inertia > 0.0):
            raise ValueError(f"inertia must be positive, got {self.inertia}")
        if self.fault_duration < 0.0:
            raise ValueError("fault_duration must be non-negative")
        if self.fault_step <= 0.0:
            raise ValueError("fault_step must be positive")

    @property
    def n_machines(self) -> int:
        return self.inertia.shape[0]


def bundled_network_path() -> Path:
    """Path of the packaged 9-bus classical swing dataset."""
    return Path(str(resources.files(__package__) / "data" / "ieee9_classical.dat"))


#: directive -> (fields, their kinds, lowest node index).  Kinds: "n" a count
#: (>= 1), "i" a node index, "x" a finite number, "+" a positive one.
_DIRECTIVES = {
    "GEN": ("<count>", "n", None),
    "G": ("<i> <inertia> <damping> <mech_power> <emf>", "i+xxx", 1),
    "SLACK": ("<emf>", "x", None),
    "Y": ("<i> <j> <conductance> <susceptance>", "iixx", 0),
    "YFAULT": ("<i> <j> <conductance> <susceptance>", "iixx", 0),
}


def load_network(path) -> MultiMachineParams:
    """Parse a plain-text network description (UTF-8).

    Directives (whitespace-delimited, any letter case, ``#`` comments,
    blank lines ignored):

    - ``GEN <count>`` — number of machines, before any node is named;
    - ``G <i> <inertia> <damping> <mech_power> <emf>`` — one per machine,
      i in 1..count, with a positive inertia;
    - ``SLACK <emf>`` — optional anchor-node EMF (node 0; absent = no
      anchor, its row/column stay zero);
    - ``Y <i> <j> <conductance> <susceptance>`` — entries of the symmetric
      reduced admittance matrix over nodes 0..count, either triangle;
    - ``YFAULT <i> <j> <conductance> <susceptance>`` — same for the
      fault-on matrix (optional block).

    Every number must be finite; GEN and SLACK may appear once, the other
    directives once per node set.  A bad file raises ``DataFormatError``
    naming the file and line.
    """
    path = Path(path)

    def fail(lineno: int, msg: str) -> DataFormatError:
        return DataFormatError(f"{path}:{lineno}: {msg}")

    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"{path}: cannot read network file: {exc}") from exc
    except UnicodeDecodeError as exc:
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise fail(lineno, f"not UTF-8 ({exc.reason})") from exc

    count: Optional[int] = None
    # directive -> node set -> the line's other fields
    entries: dict = {key: {} for key in _DIRECTIVES}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].split()
        if not tok:
            continue
        key = tok[0].upper()
        if key not in _DIRECTIVES:
            raise fail(lineno, f"unknown directive {tok[0]!r}")
        fields, kinds, lowest = _DIRECTIVES[key]
        if len(tok) != len(kinds) + 1:
            raise fail(lineno, f"expected `{key} {fields}`")
        if lowest is not None and count is None:
            raise fail(lineno, f"{key} line before GEN header")
        try:
            values = [float(t) if k in "x+" else int(t) for k, t in zip(kinds, tok[1:])]
        except ValueError:
            raise fail(lineno, f"non-numeric field in {' '.join(tok)!r}") from None
        for name, kind, value in zip(fields.split(), kinds, values):
            if kind in "x+" and not math.isfinite(value):
                raise fail(lineno, f"{name} must be finite, got {value}")
            if kind == "i" and not lowest <= value <= count:
                raise fail(lineno, f"node index {value} outside {lowest}..{count}")
            if kind == "n" and value < 1 or kind == "+" and value <= 0.0:
                bound = ">= 1" if kind == "n" else "positive"
                raise fail(lineno, f"{name} must be {bound}, got {value}")
        nodes = kinds.count("i")
        node_set = tuple(sorted(values[:nodes]))
        if node_set in entries[key]:
            raise fail(lineno, f"duplicate {' '.join([key, *tok[1:nodes + 1]])} line")
        entries[key][node_set] = values[nodes:]
        if key == "GEN":
            count = values[0]

    if count is None:
        raise DataFormatError(f"{path}: missing GEN header")
    gens = entries["G"]
    if len(gens) < count:
        # indices lie in 1..count, so the first 3 gaps lie in 1..len(gens) + 3
        gaps = [i for i in range(1, min(count, len(gens) + 3) + 1) if (i,) not in gens]
        raise DataFormatError(f"{path}: missing G lines for {count - len(gens)} "
                              f"of {count} machines, first {gaps[:3]}")

    def build(block: dict) -> np.ndarray:  # symmetric conductance, susceptance
        matrices = np.zeros((2, count + 1, count + 1))
        for (i, j), (g, b) in block.items():
            matrices[0, i, j] = matrices[0, j, i] = g
            matrices[1, i, j] = matrices[1, j, i] = b
        return matrices

    fault = build(entries["YFAULT"]) if entries["YFAULT"] else (None, None)
    # the dataclass's fields in order: a row per G field, SLACK, the matrices
    rows = np.array(list(zip(*(gens[(i,)] for i in range(1, count + 1)))))
    slack = entries["SLACK"].get((), [0.0])[0]
    return MultiMachineParams(*rows, slack, *build(entries["Y"]), *fault)


def _swing_system(
    params: MultiMachineParams,
    conductance: np.ndarray,
    susceptance: np.ndarray,
    name: str,
) -> ParameterizedSystem:
    """Swing dynamics over given admittance matrices, without an IC hook.

    Field and Jacobian are batched, and vectorised over machines.  Every
    sum reduces one row of a freshly built array, or runs over the nodes in
    index order, so a batch member and a single state round alike.
    """
    n = params.n_machines
    emf_nodes = np.concatenate([[params.slack_emf], params.emf])
    emf_machines = emf_nodes[1:]
    damping = params.damping
    mech = params.mech_power
    base_inertia = params.inertia
    # rows: machines 1..n; columns: nodes 0..n (node 0 is the anchor)
    g_rows, b_rows = conductance[1:], susceptance[1:]
    minus_g_rows = -g_rows
    emf_pairs = emf_machines[:, None] * emf_nodes
    lipschitz = _swing_lipschitz(params, conductance, susceptance)

    def inertias(p: np.ndarray) -> np.ndarray:
        m = p[..., :1] * base_inertia
        if not np.logical_and.reduce(m > 0.0, axis=None):
            raise ParamOutOfRange(
                f"inertia scale {p[..., 0]} makes some inertia non-positive"
            )
        return m

    def angle_gaps(x):
        """theta_i - theta_j for machines i (rows) and nodes j (columns)."""
        th = x[..., :n]
        nodes = np.zeros(th.shape[:-1] + (n + 1,))
        nodes[..., 1:] = th
        return th[..., :, None] - nodes[..., None, :]

    # the last state's terms: every Jacobian of a Newton iterate follows a
    # field at the same state
    memo = [None]

    def terms(x, p):
        """cos and sin of the angle gaps at ``x`` and the inertias at ``p``,
        read-only; the key holds the shapes, dtypes and bytes of both, so a
        state updated in place, or one state against a stack of one, is a
        miss."""
        key = (x.shape, p.shape, x.dtype, p.dtype, x.tobytes(), p.tobytes())
        last = memo[0]
        if last is not None and last[0] == key:
            return last[1]
        d = angle_gaps(x)
        out = (np.cos(d), np.sin(d), inertias(p))
        for a in out:
            a.flags.writeable = False
        memo[0] = (key, out)
        return out

    def field(x, p):
        cos_d, sin_d, m = terms(x, p)
        flows = emf_nodes * (g_rows * cos_d + b_rows * sin_d)
        pe = emf_machines * np.add.reduce(flows, axis=-1)
        w = x[..., n:]
        return np.concatenate([w, (mech - pe - damping * w) / m], axis=-1)

    def jacobian(x, p):
        cos_d, sin_d, m = terms(x, p)
        # t[i, j] = d(pe_i)/d(theta_i) contribution of node j
        t = emf_pairs * (minus_g_rows * sin_d + b_rows * cos_d)
        # each machine's own column is left out of its coupling sum: entry
        # (i, i + 1) of the flattened n by n + 1 rows, a stride of n + 2
        t.reshape(t.shape[:-2] + (n * (n + 1),), copy=False)[..., 1::n + 2] = 0.0
        # the coupling sum, node by node in index order
        diag = np.add.accumulate(t, axis=-1)[..., -1]
        # -d(pe)/d(theta) divided by the inertias: off-diagonal t, diagonal
        # minus the coupling sum
        jac = np.zeros(x.shape[:-1] + (2 * n, 2 * n))
        np.divide(t[..., 1:], m[..., :, None], out=jac[..., n:, :n])
        # the diagonals of the blocks (0, 1), (1, 0) and (1, 1): n entries
        # each, a stride of 2n + 1 apart in the flattened matrix, from
        # entries (0, n), (n, 0) and (n, n)
        flat = jac.reshape(x.shape[:-1] + (4 * n * n,), copy=False)
        stride = 2 * n + 1
        flat[..., n:2 * n * n:stride] = 1.0
        flat[..., 2 * n * n::stride] = -diag / m
        flat[..., 2 * n * n + n::stride] = -(damping / m)
        return jac

    return ParameterizedSystem(
        state_dim=2 * n,
        param_dim=1,
        field=field,
        jacobian=jacobian,
        name=name,
        state_names=tuple(f"theta_{i}" for i in range(1, n + 1))
        + tuple(f"omega_{i}" for i in range(1, n + 1)),
        wrap_indices=tuple(range(n)),
        jacobian_lipschitz=lambda p: (
            np.concatenate([np.ones(n), inertias(p)]),
            lipschitz,
        ),
    )


def _swing_lipschitz(
    params: MultiMachineParams, conductance: np.ndarray, susceptance: np.ndarray
) -> float:
    """Bound L on the swing Jacobian's variation in the weights (1, M).

    With z = (theta, M omega) the weighted Jacobian is
    [[0, M^-1], [-K(theta), -D M^-1]], K = d(pe)/d(theta), so only K, the
    speed rows at the angle columns, varies, and with the angles alone:
    the structured bound of ``jacobian_lipschitz``, with |d theta| the
    norm of the weighted angle offset.  Its entry for machines i != j
    changes by at most
    E_i E_j |Y_ij| |d(theta_i - theta_j)| <= sqrt(2) E_i E_j |Y_ij| |d theta|,
    and its diagonal by the sum of those over the machines plus
    E_i E_0 |Y_i0| |d theta| for the anchor node; L bounds the Frobenius
    norm of K(theta) - K(theta') by these entry bounds.
    """
    n = params.n_machines
    emf_nodes = np.concatenate([[params.slack_emf], params.emf])
    # rows: machines 1..n; columns: nodes 0..n
    coupling = (params.emf[:, None] * emf_nodes) * np.hypot(
        conductance[1:], susceptance[1:]
    )
    coupling[np.arange(n), np.arange(n) + 1] = 0.0
    pairs = np.sqrt(2.0) * coupling[:, 1:]
    diagonal = pairs.sum(axis=1) + coupling[:, 0]
    return float(np.sqrt((pairs**2).sum() + (diagonal**2).sum()))


def multimachine_system(params: MultiMachineParams) -> ParameterizedSystem:
    """Swing network as a parameterized system over a scale on its inertias.

    Dynamics per machine i (angles rad, speeds rad/s, node 0 anchored at
    angle 0):

        theta_i' = omega_i
        M_i omega_i' = Pm_i - sum_j E_i E_j (G_ij cos(theta_i - theta_j)
                       + B_ij sin(theta_i - theta_j)) - D_i omega_i

    with M_i = p ``inertia[i]``.  The initial condition x0(p) is the state
    at fault clearing: the pre-fault equilibrium, solved from a flat start,
    is replayed on the fault-on admittance matrices for
    ``params.fault_duration`` (rounded to whole steps of
    ``params.fault_step``).  The inertia scale applies during the fault as
    well — it is a machine property, not a network one.  ``p`` may be one parameter vector or a (K, 1) stack; the K fault
    replays then run as one batch.  Without a fault-on block, asking for
    x0 raises ``DataFormatError``.  Angle states are flagged for wrap-aware
    distance: a machine one revolution ahead is electrically back at the
    equilibrium.
    """
    base = _swing_system(
        params, params.conductance, params.susceptance, "multimachine"
    )
    if params.fault_conductance is None:

        def initial_condition(p):
            raise DataFormatError(
                "network data has no fault-on admittance block (YFAULT)"
            )

    else:
        fault = _swing_system(
            params,
            params.fault_conductance,
            params.fault_susceptance,
            "multimachine-fault",
        )
        cfg = IntegratorConfig(step=params.fault_step)

        def initial_condition(p) -> np.ndarray:
            p = np.asarray(p, dtype=float)
            q = np.atleast_2d(p)
            # One solve per member on the pre-fault network: the field
            # divides by the inertia, so the equilibria of different
            # members differ in the last bits.
            x = np.array([find_equilibrium(base, member) for member in q])
            x = _replay(fault, x, q, params.fault_duration, cfg)
            return x.reshape(p.shape[:-1] + (fault.state_dim,))

    return replace(base, initial_condition=initial_condition)

"""Equilibrium location, recovery classification, and the ray search."""

from __future__ import annotations

import contextlib
import gc
import re

import numpy as np
import pytest

import moi.recovery_boundary
from moi import (
    MULTIMACHINE_DIVERGENCE_NORM,
    DimensionMismatch,
    IntegratorConfig,
    NewtonDivergence,
    NoBracket,
    NotRecovered,
    NotStable,
    ParamOutOfRange,
    ParameterizedSystem,
    Termination,
    UndeterminedAtBisection,
    Verdict,
    classify_recovery,
    find_equilibrium,
    find_sep,
    multimachine_system,
    pendulum_sep,
    pendulum_uep,
    ray_boundary_search,
    sep_distance,
    simulate,
)
from moi.integrator import Lockstep
from moi.recovery_boundary import INITIAL_STEP, MAX_DOUBLINGS

from conftest import affine_system, assert_recovery_end


class TestFindEquilibrium:
    def test_affine_exact(self):
        A = np.array([[-2.0, 0.0], [0.0, -3.0]])
        b = np.array([4.0, 6.0])
        x = find_equilibrium(affine_system(A, b), [0.0])
        assert np.allclose(x, [2.0, 2.0], atol=1e-12)

    def test_pendulum_stable_branch(self, pendulum, pendulum_params):
        x = find_equilibrium(pendulum, [1.5], x_guess=np.array([0.8, 0.0]))
        assert np.allclose(x, pendulum_sep(pendulum_params, 1.5), atol=1e-10)
        assert x[0] == pytest.approx(np.arcsin(0.75), abs=1e-12)

    def test_pendulum_unstable_branch(self, pendulum, pendulum_params):
        x = find_equilibrium(pendulum, [1.5], x_guess=np.array([2.3, 0.0]))
        assert np.allclose(x, pendulum_uep(pendulum_params, 1.5), atol=1e-10)

    @pytest.mark.parametrize(
        "A, b, message",
        [(-np.eye(2), [np.nan, 0.0], "left the finite domain"),
         (np.zeros((2, 2)), [1.0, 0.0], "singular Jacobian")],
        ids=["non-finite-field", "singular-jacobian"],
    )
    def test_failed_iteration_is_newton_divergence(self, A, b, message):
        with pytest.raises(NewtonDivergence, match=message):
            find_equilibrium(affine_system(A, b), [0.0])


class TestFindSep:
    def test_pendulum_default_guess(self, pendulum):
        sep = find_sep(pendulum, [1.5])
        assert sep[0] == pytest.approx(np.arcsin(0.75), abs=1e-12)
        assert sep[1] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_unstable_equilibrium(self, pendulum):
        # seeding at the saddle converges to the saddle, which must be refused
        with pytest.raises(NotStable):
            find_sep(pendulum, [1.5], x_guess=np.array([2.3, 0.0]))

    def test_rejects_marginal_equilibrium(self):
        rot = affine_system([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotStable):
            find_sep(rot, [0.0], x_guess=np.array([0.1, 0.1]))

    def test_linear_contraction(self):
        sys_ = affine_system(-np.eye(2), np.zeros(2))
        sep = find_sep(sys_, [0.0])
        assert np.allclose(sep, 0.0, atol=1e-12)


class TestClassifyRecovery:
    def test_recovers(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.5])
        rv = classify_recovery(pendulum, [1.5], pend_cfg, sep)
        assert rv.verdict is Verdict.RECOVERS
        assert rv.termination is Termination.CONVERGED_TO_SEP
        # the summary is that of a run ending on the recovery rule
        traj = simulate(pendulum, [1.5], pend_cfg, sep)
        assert_recovery_end(pendulum, [1.5], pend_cfg, sep, traj.states)
        assert rv.final_distance == sep_distance(pendulum, traj.states[-1], sep)
        assert rv.elapsed_time == traj.elapsed

    def test_fails_to_recover(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.7])
        rv = classify_recovery(pendulum, [1.7], pend_cfg, sep)
        assert rv.verdict is Verdict.FAILS_TO_RECOVER
        assert rv.termination is Termination.DIVERGED

    @pytest.mark.parametrize("shape", [(3,), (1,), (1, 2)])
    def test_misshaped_sep_raises_dimension_mismatch(self, pendulum, pend_cfg, shape):
        with pytest.raises(DimensionMismatch):
            classify_recovery(pendulum, [1.5], pend_cfg, np.zeros(shape))

    def test_undetermined_on_timeout(self, pendulum):
        cfg = IntegratorConfig(step=0.02, divergence_norm=50.0, max_time=1.0)
        sep = find_sep(pendulum, [1.5])
        rv = classify_recovery(pendulum, [1.5], cfg, sep)
        assert rv.verdict is Verdict.UNDETERMINED
        assert rv.termination is Termination.MAX_TIME_REACHED
        assert rv.elapsed_time == pytest.approx(1.0)


def gated_decay_system(threshold: float):
    """Contracts to the origin for p[0] <= threshold; past the gate it
    contracts to a target far beyond the divergence norm instead, so every
    parameter value still has a stable equilibrium but trajectories on the
    failing side blow through the divergence check on their way there."""

    def field(x, p):
        return np.where(p[..., :1] <= threshold, -x, -(x - 100.0))

    return ParameterizedSystem(
        state_dim=1,
        param_dim=1,
        field=field,
        jacobian=lambda x, p: np.full(x.shape + (1,), -1.0),
        initial_condition=lambda p: np.ones(p.shape[:-1] + (1,)),
    )


class TestRayBoundarySearch:
    CFG = IntegratorConfig(step=0.05, max_time=60.0, divergence_norm=10.0)

    def test_brackets_known_threshold(self):
        sys_ = gated_decay_system(0.3)
        res = ray_boundary_search(sys_, [0.0], [1.0], self.CFG, param_tol=1e-6)
        assert res.p_star[0] <= 0.3 < res.p_fail[0]
        assert res.bracket_width <= 1e-6
        assert res.iterations > 0

    def test_adjacent_doubles_at_zero_tolerance(self):
        sys_ = gated_decay_system(0.3)
        res = ray_boundary_search(sys_, [0.0], [1.0], self.CFG, param_tol=0.0)
        assert res.p_star[0] <= 0.3 < res.p_fail[0]
        assert np.nextafter(res.p_star[0], np.inf) == res.p_fail[0]

    def test_history_verdicts_consistent(self):
        sys_ = gated_decay_system(0.3)
        res = ray_boundary_search(sys_, [0.0], [1.0], self.CFG, param_tol=1e-4)
        # history holds the origin check and the expansion probes on top of
        # the counted refinement iterations
        assert len(res.history) > res.iterations
        assert res.history[0][1] is Verdict.RECOVERS
        assert np.array_equal(res.history[0][0], [0.0])
        for p, verdict in res.history:
            assert verdict is (
                Verdict.RECOVERS if p[0] <= 0.3 else Verdict.FAILS_TO_RECOVER
            )

    def test_endpoints_reverify(self):
        sys_ = gated_decay_system(0.3)
        res = ray_boundary_search(sys_, [0.0], [1.0], self.CFG, param_tol=1e-4)
        sep_in = find_sep(sys_, res.p_star)
        sep_out = find_sep(sys_, res.p_fail)
        assert (
            classify_recovery(sys_, res.p_star, self.CFG, sep_in).verdict
            is Verdict.RECOVERS
        )
        assert (
            classify_recovery(sys_, res.p_fail, self.CFG, sep_out).verdict
            is Verdict.FAILS_TO_RECOVER
        )

    def test_multi_component_parameter_ray(self):
        def field(x, p):
            inside = np.linalg.norm(p, axis=-1, keepdims=True) <= 1.0
            return np.where(inside, -x, -(x - 100.0))

        sys_ = ParameterizedSystem(
            state_dim=1,
            param_dim=2,
            field=field,
            jacobian=lambda x, p: np.full(x.shape + (1,), -1.0),
            initial_condition=lambda p: np.ones(p.shape[:-1] + (1,)),
        )
        res = ray_boundary_search(sys_, [0.0, 0.0], [0.6, 0.8], self.CFG, param_tol=1e-6)
        assert np.linalg.norm(res.p_star) <= 1.0 < np.linalg.norm(res.p_fail)
        assert np.linalg.norm(res.p_fail - res.p_star) <= 1e-6
        # the iterates stay on the ray
        d = res.p_star / np.linalg.norm(res.p_star)
        assert np.allclose(d, [0.6, 0.8], atol=1e-12)

    def test_requires_recovering_origin(self):
        sys_ = gated_decay_system(0.3)
        with pytest.raises(NotRecovered):
            ray_boundary_search(sys_, [0.5], [1.0], self.CFG)

    def test_no_bracket_after_every_doubling_recovers(self, monkeypatch):
        started = []

        class Spy(Lockstep):
            def add(self, p, sep):
                started.extend(float(q[0]) for q in p)
                return super().add(p, sep)

        monkeypatch.setattr(moi.recovery_boundary, "Lockstep", Spy)
        with pytest.raises(NoBracket, match=f"within {MAX_DOUBLINGS} doublings"):
            ray_boundary_search(gated_decay_system(np.inf), [0.0], [1.0], self.CFG)
        # the origin, then each doubling once
        assert started == [0.0] + [INITIAL_STEP * 2.0**i for i in range(MAX_DOUBLINGS)]

    def test_no_bracket_at_the_edge_of_the_parameter_domain(self, nine_bus):
        """From 0.9 the doublings 0.8, 0.7, 0.5 and 0.1 recover and the next
        one steps over the failing band (about 0.15-0.48) to inertia scale
        -0.7, where the network has no equilibrium."""
        grid = multimachine_system(nine_bus)
        cfg = IntegratorConfig(
            step=1.0 / 60.0, divergence_norm=MULTIMACHINE_DIVERGENCE_NORM
        )
        with pytest.raises(NoBracket, match=r"up to p=\[0\.1\], the edge") as raised:
            ray_boundary_search(grid, [0.9], [-1.0], cfg, param_tol=1e-6)
        assert isinstance(raised.value.__cause__, ParamOutOfRange)
        # a start outside the domain is no bracket question
        with pytest.raises(ParamOutOfRange):
            ray_boundary_search(grid, [-0.1], [1.0], cfg)

    @pytest.mark.parametrize("start, last, torque", [(0.5, 1.3, 2.1), (0.6, 1.4, 2.2)])
    def test_no_bracket_where_the_solve_stalls_past_the_edge(
        self, pendulum, pend_cfg, start, last, torque
    ):
        """The doublings recover up to ``last`` and the next one lands at a
        torque past c1 = 2, where no equilibrium exists.  The SEP solve
        there stalls in Newton without naming the edge; the point's own
        initial condition names it."""
        with pytest.raises(NoBracket, match=rf"up to p=\[{last}\], the edge") as raised:
            ray_boundary_search(pendulum, [start], [1.0], pend_cfg, param_tol=1e-3)
        assert isinstance(raised.value.__cause__, ParamOutOfRange)
        assert f"driving torque {torque} is at or beyond" in str(raised.value)
        with pytest.raises(NewtonDivergence, match="stalled"):
            find_sep(pendulum, [torque], find_sep(pendulum, [last]))

    @pytest.mark.parametrize("start", [0.5, 1.2, 1.5])
    def test_held_errors_tie_no_reference_cycle(self, pendulum, start):
        """An expansion group holds an error (the solve stalls past the edge
        from 0.5, an initial condition raises from 1.2), or none (1.5).
        A held error keeps no traceback or context, so every object of the
        search is freed without the cycle collector."""
        cfg = IntegratorConfig(step=0.2, divergence_norm=50.0)
        gc.collect()
        gc.disable()
        try:
            with contextlib.suppress(NoBracket):
                ray_boundary_search(pendulum, [start], [1.0], cfg, param_tol=1e-3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_undetermined_probe_aborts(self):
        # past the gate the decay is so slow the probe times out instead of
        # settling or diverging
        def rate(p):
            return np.where(p[..., :1] <= 0.3, -10.0, -1e-3)

        sys_ = ParameterizedSystem(
            state_dim=1,
            param_dim=1,
            field=lambda x, p: rate(p) * x,
            jacobian=lambda x, p: rate(p)[..., None] * np.ones(x.shape + (1,)),
            initial_condition=lambda p: np.ones(p.shape[:-1] + (1,)),
        )
        cfg = IntegratorConfig(step=0.05, max_time=5.0, divergence_norm=10.0)
        with pytest.raises(UndeterminedAtBisection):
            ray_boundary_search(sys_, [0.0], [1.0], cfg, param_tol=1e-4)

    @pytest.mark.parametrize(
        "system, start, cfg",
        [
            ("pendulum", 1.5, IntegratorConfig(0.2, divergence_norm=50.0, max_time=1.0)),
            ("tent_toy", 0.5, IntegratorConfig(0.02, divergence_norm=100.0, max_time=0.5)),
        ],
    )
    def test_undetermined_origin_is_not_reported_as_failing(
        self, request, system, start, cfg
    ):
        """An origin that runs out of time neither recovers nor fails: the
        search reports it as undetermined, as any other probe."""
        sys_ = request.getfixturevalue(system)
        origin = classify_recovery(sys_, [start], cfg, find_sep(sys_, [start]))
        assert origin.termination is Termination.MAX_TIME_REACHED
        message = f"expansion probe at p=[{start}] was undetermined"
        with pytest.raises(UndeterminedAtBisection, match=re.escape(message)):
            ray_boundary_search(sys_, [start], [1.0], cfg)

    def test_rejects_bad_arguments(self, pendulum, pend_cfg):
        with pytest.raises(ValueError):
            ray_boundary_search(pendulum, [1.5], [0.0], pend_cfg)
        with pytest.raises(ValueError):
            ray_boundary_search(pendulum, [1.5], [1.0], pend_cfg, param_tol=-1.0)
        with pytest.raises(ValueError):
            ray_boundary_search(pendulum, [1.5], [1.0], pend_cfg, param_tol=np.nan)

    def test_deterministic_repeat(self):
        sys_ = gated_decay_system(0.3)
        a = ray_boundary_search(sys_, [0.0], [1.0], self.CFG, param_tol=1e-5)
        b = ray_boundary_search(sys_, [0.0], [1.0], self.CFG, param_tol=1e-5)
        assert np.array_equal(a.p_star, b.p_star)
        assert np.array_equal(a.p_fail, b.p_fail)
        assert a.iterations == b.iterations


def test_pendulum_boundary_location(pendulum, pend_cfg):
    """The forcing level where the pendulum stops recovering."""
    res = ray_boundary_search(pendulum, [1.5], [1.0], pend_cfg, param_tol=1e-4)
    assert 1.5676 <= res.p_star[0] <= 1.5696
    assert res.bracket_width <= 1e-4

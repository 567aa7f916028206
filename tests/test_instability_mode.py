"""Jacobian averaging along trajectories and the escape-direction estimate."""

from __future__ import annotations

import numpy as np
import pytest

from moi import (
    DimensionMismatch,
    IntegratorConfig,
    NeverUnstable,
    NotRecovered,
    Normalization,
    ParameterizedSystem,
    average_jacobian,
    eval_jacobian,
    find_sep,
    h_sweep,
    last_unstable_index,
    mode_at_boundary,
    mode_of_instability,
    simulate,
    unstable_eigenpair,
)
from moi.integrator import Lockstep

from conftest import affine_system


class TestLastUnstableIndex:
    def test_picks_final_unstable_sample(self):
        flags = [True, False, True, False, False, False]
        assert last_unstable_index(flags) == 2

    def test_requires_index_past_zero(self):
        # instability at the initial sample alone does not count
        assert last_unstable_index([True, True, False]) == 1
        with pytest.raises(NeverUnstable):
            last_unstable_index([True, False, False])

    def test_all_stable_raises(self):
        with pytest.raises(NeverUnstable):
            last_unstable_index([False, False, False])

    def test_rejects_empty_and_bad_shapes(self):
        with pytest.raises(ValueError):
            last_unstable_index([])
        with pytest.raises(ValueError):
            last_unstable_index([[True, False]])

    def test_final_sample_may_be_the_index(self):
        assert last_unstable_index([False, False, True]) == 2


def constant_jacobian_probe(n_target: float = 2.0):
    """State decays to the origin while the reported Jacobian is pinned to a
    constant unstable matrix, so the averaging window covers every sample."""
    J = np.array([[0.0, 1.0], [2.0, -0.5]])
    return ParameterizedSystem(
        state_dim=2,
        param_dim=1,
        field=lambda x, p: -n_target * x,
        jacobian=lambda x, p: np.broadcast_to(J, x.shape + (2,)),
        initial_condition=lambda p: np.ones(p.shape[:-1] + (2,)),
    ), J


class TestAverageJacobian:
    def test_constant_jacobian_normalization_arithmetic(self):
        sys_, J = constant_jacobian_probe()
        cfg = IntegratorConfig(step=0.1, divergence_norm=1e6)
        sep = np.zeros(2)
        by_index = average_jacobian(sys_, [0.0], cfg, sep)
        by_count = average_jacobian(
            sys_, [0.0], cfg, sep, normalization=Normalization.SAMPLE_COUNT
        )
        n = by_index.last_unstable_index
        assert n == by_index.samples_total - 1  # every sample flagged
        assert np.array_equal(by_index.matrix, (n + 1) / n * J)
        assert np.array_equal(by_count.matrix, J)
        assert np.array_equal(by_index.jacobian_sum, by_count.jacobian_sum)

    def test_matches_straight_resummation(self, pendulum, pend_cfg):
        p = np.array([1.5])
        sep = find_sep(pendulum, p)
        avg = average_jacobian(pendulum, p, pend_cfg, sep)
        traj = simulate(pendulum, p, pend_cfg, sep, record_flags=True)
        j = last_unstable_index(traj.instability_flags)
        total = np.zeros((2, 2))
        for k in range(j + 1):
            total += eval_jacobian(pendulum, traj.states[k], p)
        assert j == avg.last_unstable_index
        assert np.array_equal(total, avg.jacobian_sum)
        assert np.array_equal(avg.matrix, total / j)

    def test_normalizations_share_numerator(self, pendulum, pend_cfg):
        p = np.array([1.5])
        sep = find_sep(pendulum, p)
        a = average_jacobian(pendulum, p, pend_cfg, sep)
        b = average_jacobian(
            pendulum, p, pend_cfg, sep, normalization=Normalization.SAMPLE_COUNT
        )
        j = a.last_unstable_index
        assert np.array_equal(a.jacobian_sum, b.jacobian_sum)
        assert np.array_equal(a.matrix, a.jacobian_sum / j)
        assert np.array_equal(b.matrix, b.jacobian_sum / (j + 1))

    def test_bitwise_deterministic(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.5])
        a = average_jacobian(pendulum, [1.5], pend_cfg, sep)
        b = average_jacobian(pendulum, [1.5], pend_cfg, sep)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.last_unstable_index == b.last_unstable_index

    def test_requires_recovery(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.7])
        with pytest.raises(NotRecovered):
            average_jacobian(pendulum, [1.7], pend_cfg, sep)

    @pytest.mark.parametrize("shape", [(3,), (1,), (1, 2)])
    def test_misshaped_sep_raises_dimension_mismatch(self, pendulum, pend_cfg, shape):
        with pytest.raises(DimensionMismatch):
            average_jacobian(pendulum, [1.5], pend_cfg, np.zeros(shape))

    def test_never_unstable_propagates(self):
        sys_ = affine_system([[-1.0]], x0=[1.0])
        cfg = IntegratorConfig(step=0.1)
        with pytest.raises(NeverUnstable):
            average_jacobian(sys_, [0.0], cfg, np.zeros(1))

    def test_metadata_fields(self, pendulum, pend_cfg):
        sep = find_sep(pendulum, [1.5])
        avg = average_jacobian(pendulum, [1.5], pend_cfg, sep)
        assert avg.step == pend_cfg.step
        assert np.array_equal(avg.parameter, [1.5])
        assert avg.normalization is Normalization.FINAL_INDEX
        assert avg.samples_total > avg.last_unstable_index


class TestModeOfInstability:
    def test_unique_unstable_direction(self, pendulum, pend_cfg):
        p = np.array([1.5686])
        sep = find_sep(pendulum, p)
        mode = mode_of_instability(pendulum, p, pend_cfg, sep)
        assert mode.eigenvalue > 0.0
        assert mode.unstable_count == 1
        F = mode.averaged.matrix
        assert mode.residual <= 1e-9 * max(1.0, np.linalg.norm(F, 2))
        assert np.linalg.norm(mode.eigenvector) == pytest.approx(1.0)
        k = int(np.argmax(np.abs(mode.eigenvector)))
        assert mode.eigenvector[k] > 0

    def test_sample_count_eigenpair_is_the_mode_scaled(self, pendulum, pend_cfg):
        """The mean over the j+1 sampled states has the mode's unstable
        eigenvector and its eigenvalue times j/(j+1)."""
        p = np.array([1.5686])
        sep = find_sep(pendulum, p)
        mode = mode_of_instability(pendulum, p, pend_cfg, sep)
        by_count = average_jacobian(
            pendulum, p, pend_cfg, sep, normalization=Normalization.SAMPLE_COUNT
        )
        pair = unstable_eigenpair(by_count.matrix, pend_cfg.stability_tol)
        j = mode.averaged.last_unstable_index
        assert pair.value.real == pytest.approx(mode.eigenvalue * j / (j + 1), abs=1e-12)
        assert np.allclose(pair.vector, mode.eigenvector, rtol=0.0, atol=1e-12)

    def test_toy_matches_saddle_direction(self, tent_toy, toy_cfg, toy_saddle_eigenpair):
        lam, v = toy_saddle_eigenpair
        bm = mode_at_boundary(tent_toy, [0.5], [1.0], toy_cfg, param_tol=1e-6)
        assert np.linalg.norm(bm.mode.eigenvector - v) < 1e-2
        assert bm.mode.eigenvalue == pytest.approx(lam, abs=0.05)


class TestModeAtBoundary:
    def test_pendulum_boundary_pin(self, pendulum, pend_cfg):
        """Refining to adjacent doubles lands on one specific parameter and
        one specific averaging window, run after run."""
        bm = mode_at_boundary(pendulum, [1.5686], [1.0], pend_cfg, param_tol=0.0)
        assert bm.search.p_star[0] == 1.5686593295631313
        assert bm.mode.averaged.last_unstable_index == 2176
        assert np.nextafter(bm.search.p_star[0], np.inf) == bm.search.p_fail[0]

    def test_mode_reuses_the_search_sep(self, pendulum):
        """The mode is computed against the SEP the search solved at p_star;
        it equals the mode against a cold solve from the default guess."""
        cfg = IntegratorConfig(step=0.1, divergence_norm=50.0)
        bm = mode_at_boundary(pendulum, [1.5], [1.0], cfg, param_tol=1e-6)
        sep = bm.search.sep_star
        assert np.array_equal(sep, find_sep(pendulum, bm.search.p_star, sep))
        cold = mode_of_instability(
            pendulum, bm.search.p_star, cfg, find_sep(pendulum, bm.search.p_star)
        )
        assert cold.eigenvalue == bm.mode.eigenvalue
        assert np.array_equal(cold.eigenvector, bm.mode.eigenvector)
        assert np.array_equal(cold.averaged.matrix, bm.mode.averaged.matrix)

    def test_search_and_mode_agree(self, tent_toy, toy_cfg):
        bm = mode_at_boundary(tent_toy, [0.5], [1.0], toy_cfg, param_tol=1e-4)
        sep = find_sep(tent_toy, bm.search.p_star)
        direct = mode_of_instability(tent_toy, bm.search.p_star, toy_cfg, sep)
        assert direct.eigenvalue == pytest.approx(bm.mode.eigenvalue, rel=1e-12)
        assert np.allclose(direct.eigenvector, bm.mode.eigenvector, atol=1e-12)


class TestHSweep:
    def test_rows_follow_input_order(self, tent_toy, toy_cfg):
        rows = h_sweep(tent_toy, [0.5], [1.0], [0.1, 0.05], toy_cfg, param_tol=1e-4)
        assert [r.h for r in rows] == [0.1, 0.05]
        assert all(r.status == "ok" for r in rows)

    def test_reference_is_smallest_step(self, tent_toy, toy_cfg):
        rows = h_sweep(tent_toy, [0.5], [1.0], [0.1, 0.05], toy_cfg, param_tol=1e-4)
        ref = rows[1]
        assert ref.frob_err == 0.0
        assert ref.eig_err == 0.0
        assert ref.vec_err == 0.0
        assert rows[0].frob_err > 0.0

    def test_failed_rows_keep_error_name(self, toy_cfg):
        # no recovery boundary anywhere along this ray
        sys_ = affine_system([[-1.0]], x0=[0.5])
        cfg = IntegratorConfig(step=0.1, max_time=30.0)
        rows = h_sweep(sys_, [0.0], [1.0], [0.2, 0.1], cfg, param_tol=1e-3)
        assert [r.status for r in rows] == ["NoBracket", "NoBracket"]
        assert all(r.result is None for r in rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -0.1])
    def test_every_step_is_checked_before_any_row_runs(
        self, pendulum, pend_cfg, monkeypatch, bad
    ):
        steps = []
        step = Lockstep.step
        monkeypatch.setattr(Lockstep, "step", lambda lock: steps.append(1) or step(lock))
        with pytest.raises(ValueError, match="step must be positive and finite"):
            h_sweep(pendulum, [1.5], [1.0], [0.1, bad], pend_cfg)
        assert not steps

    def test_every_step_budget_is_checked_before_any_row_runs(
        self, pendulum, pend_cfg, monkeypatch
    ):
        """h = 1e-320 is positive and finite, but max_time / h overflows the
        step budget: the sweep stops before its first row, not after it."""
        import moi.instability_mode as im

        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(im, "mode_at_boundary", no_row)
        with pytest.raises(ValueError, match="max_time / step finite"):
            h_sweep(pendulum, [1.5], [1.0], [0.02, 1e-320], pend_cfg)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_newton_row_fails_alone(self):
        """A row whose Newton matrix turns singular reports the error, and
        the other rows still run."""

        # x' = x (x - 1), saddle at 1; past 1.5 the analytic Jacobian is
        # replaced by 20, which Newton tolerates at h = 0.02 but which makes
        # the Newton matrix 1 - (h/2) 20 exactly singular at h = 0.1
        def jac(x, p):
            return np.where(x <= 1.5, 2.0 * x - 1.0, 20.0)[..., None]

        sys_ = ParameterizedSystem(
            state_dim=1,
            param_dim=1,
            field=lambda x, p: x * (x - 1.0),
            jacobian=jac,
            initial_condition=lambda p: np.array(p[..., :1]),
        )
        cfg = IntegratorConfig(step=0.1, max_time=60.0, divergence_norm=10.0)
        rows = h_sweep(sys_, [0.4321], [1.0], [0.1, 0.02], cfg, param_tol=1e-3)
        assert [r.status for r in rows] == ["UndeterminedAtBisection", "ok"]
        assert rows[1].vec_err == 0.0


def test_mode_error_decays_with_step(pendulum_sweep, pendulum, pendulum_params):
    """Across the seven-step ladder the distance between the averaged-matrix
    direction and the saddle's own escape direction must not grow (10% slack
    per consecutive pair)."""
    from moi import pendulum_uep, unstable_eigenpair

    errs = []
    for row in pendulum_sweep:
        assert row.status == "ok"
        xu = pendulum_uep(pendulum_params, row.p_star[0])
        J = eval_jacobian(pendulum, xu, row.p_star)
        v_exact = unstable_eigenpair(J).vector
        errs.append(float(np.linalg.norm(row.result.mode.eigenvector - v_exact)))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= 1.10 * coarse
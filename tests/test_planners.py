"""Tests for the model-based planning oracles."""

import numpy as np
import pytest

from rarl import planners
from rarl.environments import example_a, garnet, inventory, one_loop
from rarl.mdp import (
    ConvergenceError,
    MultichainError,
    TabularMDP,
    OffsetFn,
    Policy,
    gain_and_bias,
    robust_bellman_residual,
    span,
    support_table,
)
from rarl.planners import (
    FiniteKernelSet,
    _rvi_control,
    _rvi_eval,
    finite_set_enumeration,
    robust_rvi_control,
    robust_rvi_eval,
    worst_case_kernel,
)
from rarl.uncertainty import ChiSquare, Contamination, KLDivergence, TotalVariation, Wasserstein


class TestRobustRviEval:
    def test_delta_zero_matches_gain_and_bias(self):
        m = garnet(6, 3, seed=0)
        policy = Policy.uniform(6, 3)
        exact = gain_and_bias(m, policy)
        plan = robust_rvi_eval(m, policy, Contamination(0.0), tol=1e-10)
        assert plan.gain == pytest.approx(exact.gain, abs=1e-6)

    def test_three_state_swap_instance_finite_set(self):
        ex = example_a(1.0, 2.0, 4.0)
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=1e-10)
        assert plan.gain == pytest.approx(3.0, abs=1e-8)

    def test_full_contamination_worst_chain_cross_check(self):
        # delta -> 1: every row collapses onto the argmin-V state; rebuilding the
        # worst kernel row-wise and evaluating it exactly must reproduce the gain
        m = garnet(5, 2, seed=1)
        policy = Policy.uniform(5, 2)
        spec = Contamination(0.999999)
        plan = robust_rvi_eval(m, policy, spec, tol=1e-10)
        worst = worst_case_kernel(m, spec, plan.value)
        exact = gain_and_bias(m.with_kernel(worst), policy)
        assert plan.gain == pytest.approx(exact.gain, abs=1e-5)

    def test_residual_certificate_all_families(self):
        m = garnet(4, 2, seed=2)
        policy = Policy.uniform(4, 2)
        tol = 1e-9
        for spec in (Contamination(0.3), TotalVariation(0.3), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3)):
            plan = robust_rvi_eval(m, policy, spec, tol=tol)
            res = robust_bellman_residual(m, policy, spec, plan.gain, plan.value)
            assert np.abs(res).max() <= 10 * tol

    def test_monotone_in_radius_and_below_nominal(self):
        m = garnet(5, 2, seed=3)
        policy = Policy.uniform(5, 2)
        nominal = gain_and_bias(m, policy).gain
        gains = [robust_rvi_eval(m, policy, TotalVariation(d), tol=1e-9).gain for d in (0.05, 0.2, 0.5)]
        assert gains[0] <= nominal + 1e-9
        assert gains[2] <= gains[1] <= gains[0] + 1e-9


    def test_batched_residual_matches_per_pair_loop(self):
        def per_pair(m, policy, uset, gain, v):
            rhs = np.zeros(m.n_states)
            for s in range(m.n_states):
                for a in range(m.n_actions):
                    if isinstance(uset, FiniteKernelSet):
                        sigma = uset.support_for(s, a, m.kernel[s, a], v)
                    else:
                        sigma = uset.support(m.kernel[s, a], v)
                    rhs[s] += policy.probs[s, a] * (m.reward[s, a] - gain + sigma)
            return rhs - v

        rng = np.random.default_rng(12)
        m = garnet(5, 3, seed=8)
        policy = Policy(rng.dirichlet(np.ones(3), size=5))
        v = rng.normal(size=5)
        for spec in (Contamination(0.3), TotalVariation(0.3), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3)):
            np.testing.assert_allclose(
                robust_bellman_residual(m, policy, spec, 0.7, v), per_pair(m, policy, spec, 0.7, v), rtol=0, atol=1e-12
            )
        ex = example_a(1.0, 2.0, 4.0)
        v = np.array([-2.5, -0.5, 0.5])
        np.testing.assert_allclose(
            robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, v),
            per_pair(ex.mdp, ex.policy, ex.uset, 3.0, v),
            rtol=0,
            atol=1e-12,
        )


class TestRobustRviControl:
    def test_single_action_matches_eval(self):
        m = garnet(4, 1, seed=4)
        spec = TotalVariation(0.25)
        ev = robust_rvi_eval(m, Policy.deterministic([0] * 4, 1), spec, tol=1e-10)
        ctrl = robust_rvi_control(m, spec, tol=1e-10)
        assert ctrl.gain == pytest.approx(ev.gain, abs=1e-8)

    def test_delta_zero_matches_policy_enumeration(self):
        m = garnet(2, 2, seed=5)
        best = max(
            gain_and_bias(m, Policy.deterministic([a0, a1], 2)).gain
            for a0 in range(2)
            for a1 in range(2)
        )
        plan = robust_rvi_control(m, Contamination(0.0), tol=1e-10)
        assert plan.gain == pytest.approx(best, abs=1e-8)

    def test_one_loop_robust_policy_above_threshold(self):
        # exact switch at delta = 1/3: left becomes optimal strictly above it
        nominal, _ = one_loop()
        below = robust_rvi_control(nominal, Contamination(0.30), tol=1e-10)
        above = robust_rvi_control(nominal, Contamination(0.40), tol=1e-10)
        assert below.policy.actions()[0] == 1  # right is still optimal at 0.30
        assert below.gain == pytest.approx(1.0 - 3 * 0.30, abs=1e-8)
        assert above.policy.actions()[0] == 0  # left takes over at 0.40
        assert above.gain == pytest.approx(0.0, abs=1e-8)

    def test_q_residual_certificate(self):
        m = garnet(4, 3, seed=6)
        tol = 1e-9
        plan = robust_rvi_control(m, ChiSquare(0.4), tol=tol)
        v_q = plan.q.max(axis=1)
        for s in range(4):
            for a in range(3):
                res = m.reward[s, a] - plan.gain + ChiSquare(0.4).support(m.kernel[s, a], v_q) - plan.q[s, a]
                assert abs(res) <= 10 * tol


class TestFiniteSetEnumeration:
    def test_identical_kernels_both_minimize(self):
        m = garnet(3, 1, seed=7)
        res = finite_set_enumeration(m, [m.kernel, m.kernel.copy()], Policy.deterministic([0] * 3, 1))
        assert res.minimizers == [0, 1]

    def test_three_state_swap_instance_values(self):
        ex = example_a(1.0, 2.0, 4.0)
        res = finite_set_enumeration(ex.mdp, ex.kernels, ex.policy)
        assert res.gain == pytest.approx(3.0, abs=1e-12)
        assert res.minimizers == [0, 1]
        np.testing.assert_allclose(res.per_kernel[0].bias, [-2.5, -0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(res.per_kernel[1].bias, [-1.5, -0.5, 0.5], atol=1e-9)

    def test_symmetric_rewards_equalize_tail_biases(self):
        ex = example_a(1.0, 3.0, 3.0)
        res = finite_set_enumeration(ex.mdp, ex.kernels, ex.policy)
        np.testing.assert_allclose(res.per_kernel[0].bias[1:], res.per_kernel[1].bias[1:], atol=1e-10)


class TestSolutionStructure:
    """Checks of the solution-structure claims on the finite-set instance."""

    def test_worst_kernel_from_converged_value_is_a_minimizer(self):
        ex = example_a(1.0, 2.0, 4.0)
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=1e-10)
        picked = worst_case_kernel(ex.mdp, ex.uset, plan.value)
        enum = finite_set_enumeration(ex.mdp, ex.kernels, ex.policy)
        picked_gain = gain_and_bias(ex.mdp.with_kernel(picked), ex.policy).gain
        assert picked_gain == pytest.approx(enum.gain, abs=1e-9)

    def test_converged_value_is_a_shifted_bias(self):
        ex = example_a(1.0, 2.0, 4.0)
        tol = 1e-10
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=tol)
        picked = worst_case_kernel(ex.mdp, ex.uset, plan.value)
        bias = gain_and_bias(ex.mdp.with_kernel(picked), ex.policy, normalization=None).bias
        assert span(plan.value - bias) <= 10 * tol

    def test_finite_kernel_set_interface(self):
        ex = example_a(1.0, 2.0, 4.0)
        v = np.array([-2.5, -0.5, 0.5])
        # state 0 chooses between jumping to state 1 or state 2
        assert ex.uset.support_for(0, 0, None, v) == pytest.approx(-0.5)
        row = ex.uset.worst_row_for(0, 0, None, v)
        np.testing.assert_allclose(row, [0.0, 1.0, 0.0])
        assert FiniteKernelSet.from_kernels(ex.kernels).rows_by_sa[(0, 0)].shape == (2, 3)


class TestWorstCaseKernel:
    @pytest.mark.parametrize("delta", [0.05, 0.3, 2.0])
    def test_batched_matches_per_row(self, delta):
        m = inventory()
        rng = np.random.default_rng(int(100 * delta))
        specs = (
            Contamination(min(delta, 0.9)),
            TotalVariation(delta),
            ChiSquare(delta),
            KLDivergence(delta),
            Wasserstein(delta),
            Wasserstein(delta, order=2.0),
        )
        planned = robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), KLDivergence(delta), tol=1e-6).value
        for v in (planned, rng.normal(size=m.n_states)):
            for spec in specs:
                kernel = worst_case_kernel(m, spec, v)
                for s in range(m.n_states):
                    for a in range(m.n_actions):
                        np.testing.assert_allclose(kernel[s, a], spec.worst_row(m.kernel[s, a], v), rtol=0, atol=1e-12)
                assert np.abs(kernel.sum(axis=2) - 1.0).max() <= 1e-12

    def test_finite_kernel_set_per_pair(self):
        ex = example_a(1.0, 2.0, 4.0)
        v = np.array([-2.5, -0.5, 0.5])
        kernel = worst_case_kernel(ex.mdp, ex.uset, v)
        for s in range(ex.mdp.n_states):
            for a in range(ex.mdp.n_actions):
                np.testing.assert_allclose(kernel[s, a], ex.uset.worst_row_for(s, a, None, v), rtol=0, atol=1e-12)


FAMILIES = (Contamination(0.4), TotalVariation(0.2), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3))
RVI_ITERS, RVI_DAMPING = 10**6, 0.5


class TestPolicyIterationAgainstRvi:
    """Policy iteration against the damped RVI loops it falls back to."""

    @pytest.mark.parametrize("offset", [OffsetFn.mean(), OffsetFn.reference_state(3)], ids=["mean", "state3"])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("env", ["garnet", "inventory"])
    def test_gains_policies_and_residuals(self, env, spec, offset):
        m = garnet(5, 3, seed=254) if env == "garnet" else inventory()
        policy = Policy.uniform(m.n_states, m.n_actions)
        tol = 1e-9
        pi = robust_rvi_eval(m, policy, spec, offset, tol=tol)
        rvi = _rvi_eval(m, policy, spec, offset, tol, RVI_ITERS, RVI_DAMPING)
        assert (pi.method, rvi.method) == ("policy-iteration", "rvi")
        assert abs(pi.gain - rvi.gain) <= 1e-8
        assert pi.residual <= tol
        assert np.abs(robust_bellman_residual(m, policy, spec, pi.gain, pi.value)).max() <= tol
        assert offset(pi.value) == pytest.approx(0.0, abs=1e-12)

        pi_c = robust_rvi_control(m, spec, offset, tol=tol)
        rvi_c = _rvi_control(m, spec, offset, tol, RVI_ITERS, RVI_DAMPING)
        assert (pi_c.method, rvi_c.method) == ("policy-iteration", "rvi")
        assert abs(pi_c.gain - rvi_c.gain) <= 1e-8
        np.testing.assert_array_equal(pi_c.policy.actions(), rvi_c.policy.actions())
        assert offset(pi_c.q) == pytest.approx(0.0, abs=1e-12)
        hq = m.reward + support_table(m, spec, pi_c.q.max(axis=1))
        assert pi_c.residual == np.abs(hq - pi_c.gain - pi_c.q).max() <= tol

    @pytest.mark.parametrize("spec", [ChiSquare(5.0), KLDivergence(3.0)], ids=lambda spec: spec.kind)
    def test_multichain_worst_kernel_falls_back_to_rvi(self, spec):
        m = garnet(4, 2, seed=39)
        policy = Policy.uniform(4, 2)
        offset = OffsetFn.mean()
        tol = 1e-9
        # the second step's worst kernel has more than one recurrent class
        v = gain_and_bias(m.with_kernel(worst_case_kernel(m, spec, np.zeros(4))), policy, offset).bias
        with pytest.raises(MultichainError):
            gain_and_bias(m.with_kernel(worst_case_kernel(m, spec, v)), policy, offset)
        plan = robust_rvi_eval(m, policy, spec, tol=tol)
        assert plan.method == "rvi"
        assert plan.iterations == _rvi_eval(m, policy, spec, offset, tol, RVI_ITERS, RVI_DAMPING).iterations
        assert np.abs(robust_bellman_residual(m, policy, spec, plan.gain, plan.value)).max() <= 10 * tol

    @pytest.mark.parametrize("spec", [ChiSquare(5.0), KLDivergence(3.0)], ids=lambda spec: spec.kind)
    def test_stalled_control_fallback_fails_fast(self, spec, monkeypatch):
        # the robust control problem is multichain: the Q residual sits at 2.806 from sweep 64 on,
        # so the fallback stops at sweep 128 instead of running its 10^6 sweeps
        m = garnet(4, 2, seed=39)
        calls = []
        support = planners.support_table
        monkeypatch.setattr(planners, "support_table", lambda *args: calls.append(None) or support(*args))
        with pytest.raises(ConvergenceError, match="stalled at sweep 128"):
            _rvi_control(m, spec, OffsetFn.mean(), 1e-9, RVI_ITERS, RVI_DAMPING)
        assert len(calls) <= 129  # the residual after sweep k reads the (k + 1)-th support table
        with pytest.raises(ConvergenceError, match="stalled at sweep 128"):
            robust_rvi_control(m, spec, tol=1e-9)

    def test_stalled_eval_fallback_fails_fast(self):
        # two absorbing states with rewards 0 and 1: no single gain fits, the residual stays at 1/2
        m = TabularMDP(2, 1, np.eye(2)[:, None, :], np.array([[0.0], [1.0]]))
        with pytest.raises(ConvergenceError, match="stalled at sweep 64") as failure:
            robust_rvi_eval(m, Policy.uniform(2, 1), Contamination(0.0), tol=1e-9)
        assert failure.value.residual == 0.5

    def test_step_cap_falls_back_to_rvi(self, monkeypatch):
        # chi2 on inventory needs 4 steps for evaluation and 8 for control
        m = inventory()
        policy = Policy.uniform(m.n_states, m.n_actions)
        spec = ChiSquare(0.3)
        monkeypatch.setattr(planners, "_PI_MAX_STEPS", 3)
        plan = robust_rvi_eval(m, policy, spec, tol=1e-9)
        ctrl = robust_rvi_control(m, spec, tol=1e-9)
        assert (plan.method, ctrl.method) == ("rvi", "rvi")
        assert plan.residual <= 1e-9 and ctrl.residual <= 1e-9

    def test_finite_kernel_set_without_fallback(self):
        ex = example_a(1.0, 2.0, 4.0)
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=1e-10)
        ctrl = robust_rvi_control(ex.mdp, ex.uset, tol=1e-10)
        assert (plan.method, ctrl.method) == ("policy-iteration", "policy-iteration")
        assert plan.gain == pytest.approx(3.0, abs=1e-12)
        assert ctrl.gain == pytest.approx(3.0, abs=1e-12)

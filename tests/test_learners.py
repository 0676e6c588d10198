"""Tests for the stochastic-approximation learners and step schedules."""

import numpy as np
import pytest

from rarl.environments import garnet, one_loop
from rarl.estimators import KernelSampler, MlmcConfig
from rarl.learners import Constant, RobbinsMonro, greedy_policy, robust_rvi_q, robust_rvi_td
from rarl.mdp import OffsetFn, Policy, gain_and_bias
from rarl.planners import robust_rvi_control, robust_rvi_eval
from rarl.uncertainty import Contamination, TotalVariation


def stream(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


class TestStepSchedules:
    def test_constant(self):
        sched = Constant(0.01)
        assert sched(0) == sched(10**6) == 0.01

    def test_robbins_monro_conditions(self):
        sched = RobbinsMonro(c=2.0, offset=5.0)
        n = np.arange(100_000)
        alphas = sched.c / (n + sched.offset)
        # divergent partial sums, convergent square sums (harmonic structure)
        assert alphas.sum() > 10.0
        tail = sched.c**2 / (np.arange(100_000, 10**7, 997) ** 2)
        assert (alphas**2).sum() + tail.sum() < sched.c**2 * (np.pi**2 / 6 + 1)
        assert sched(0) == pytest.approx(0.4)

    def test_robbins_monro_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RobbinsMonro(c=0.0)


class TestGreedyPolicy:
    def test_examples(self):
        assert greedy_policy(np.array([[1.0, 0.0]])).actions().tolist() == [0]
        assert greedy_policy(np.array([[0.0, 0.0]])).actions().tolist() == [0]
        assert greedy_policy(np.array([[0.0, 1.0], [2.0, 1.0]])).actions().tolist() == [1, 0]

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.normal(0, 1, (4, 3))
            c = float(rng.normal(0, 10))
            assert greedy_policy(q).actions().tolist() == greedy_policy(q + c).actions().tolist()

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            greedy_policy(np.array([[np.nan, 0.0]]))


class TestRobustRviTd:
    def test_fixed_point_is_stationary(self):
        # deterministic kernel + contamination: zero-variance estimator; start at
        # the update's fixed point (the Bellman solution shifted so that its
        # offset value equals the gain) and the iterates must not move
        nominal, _ = one_loop()
        policy = Policy.deterministic([1, 1], 2)
        spec = Contamination(0.4)
        plan = robust_rvi_eval(nominal, policy, spec, OffsetFn.mean(), tol=1e-12)
        v_star = plan.value + plan.gain
        src = KernelSampler.from_mdp(nominal)
        trace = robust_rvi_td(
            src, nominal, policy, spec, OffsetFn.mean(), Constant(0.1), 200, None, stream(0), v0=v_star
        )
        assert np.abs(trace.final - v_star).max() < 1e-9
        assert np.abs(trace.f_values - plan.gain).max() < 1e-9

    def test_delta_zero_converges_to_nominal_gain(self):
        m = garnet(5, 3, seed=254)
        policy = Policy.uniform(5, 3)
        g = gain_and_bias(m, policy).gain
        src = KernelSampler.from_mdp(m)
        trace = robust_rvi_td(
            src, m, policy, Contamination(0.0), OffsetFn.mean(), Constant(0.01), 50_000, None,
            stream(1), record_every=10,
        )
        assert abs(trace.tail_mean(0.1) - g) < 0.05

    def test_determinism_bit_identical(self):
        m = garnet(4, 2, seed=3)
        policy = Policy.uniform(4, 2)
        spec = TotalVariation(0.2)
        src = KernelSampler.from_mdp(m)
        runs = [
            robust_rvi_td(src, m, policy, spec, OffsetFn.mean(), Constant(0.01), 300, MlmcConfig(0.25), stream(2))
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].f_values, runs[1].f_values)
        np.testing.assert_array_equal(runs[0].final, runs[1].final)
        np.testing.assert_array_equal(runs[0].costs, runs[1].costs)

    def test_offset_identity_on_snapshots(self):
        m = garnet(4, 2, seed=4)
        offset = OffsetFn.mean()
        trace = robust_rvi_td(
            KernelSampler.from_mdp(m), m, Policy.uniform(4, 2), Contamination(0.3), offset,
            Constant(0.02), 500, None, stream(3),
        )
        np.testing.assert_array_equal(trace.iters, np.arange(1, 501))
        assert offset(trace.final) == trace.f_values[-1]

    def test_costs_monotone_and_iters_increasing(self):
        m = garnet(3, 2, seed=5)
        trace = robust_rvi_td(
            KernelSampler.from_mdp(m), m, Policy.uniform(3, 2), TotalVariation(0.1), OffsetFn.mean(),
            Constant(0.01), 200, MlmcConfig(0.25), stream(4),
        )
        assert np.all(np.diff(trace.iters) > 0)
        assert np.all(np.diff(trace.costs) >= 0)

    def test_divergence_guard(self):
        m = garnet(3, 2, seed=6)
        with pytest.raises(FloatingPointError):
            robust_rvi_td(
                KernelSampler.from_mdp(m), m, Policy.uniform(3, 2), Contamination(0.2), OffsetFn.mean(),
                Constant(2.5), 5_000, None, stream(5),  # absurd step size: must be caught
            )

    def test_stability_proxy_long_run(self):
        # testable shadow of the boundedness lemma: 1e5 iterations stay small
        m = garnet(5, 3, seed=254)
        trace = robust_rvi_td(
            KernelSampler.from_mdp(m), m, Policy.uniform(5, 3), Contamination(0.4), OffsetFn.mean(),
            Constant(0.01), 100_000, None, stream(6), record_every=100,
        )
        assert np.abs(trace.final).max() < 1e6


class TestRobustRviQ:
    def test_single_action_q_equals_td(self):
        m = garnet(4, 1, seed=8)
        spec = TotalVariation(0.2)
        cfg = MlmcConfig(0.25)
        td = robust_rvi_td(
            KernelSampler.from_mdp(m), m, Policy.deterministic([0] * 4, 1), spec, OffsetFn.mean(),
            Constant(0.01), 400, cfg, stream(9),
        )
        q = robust_rvi_q(
            KernelSampler.from_mdp(m), m, spec, OffsetFn.mean(), Constant(0.01), 400, cfg, stream(9),
        )
        np.testing.assert_array_equal(td.f_values, q.f_values)
        np.testing.assert_array_equal(td.final, q.final[:, 0])

    def test_delta_zero_converges_to_optimal_gain(self):
        m = garnet(4, 2, seed=100)
        plan = robust_rvi_control(m, Contamination(0.0), tol=1e-10)
        # cross-check the planner against full policy enumeration
        best = max(
            gain_and_bias(m, Policy.deterministic([a0, a1, a2, a3], 2)).gain
            for a0 in range(2) for a1 in range(2) for a2 in range(2) for a3 in range(2)
        )
        assert plan.gain == pytest.approx(best, abs=1e-8)
        trace = robust_rvi_q(
            KernelSampler.from_mdp(m), m, Contamination(0.0), OffsetFn.mean(), Constant(0.01), 50_000,
            None, stream(10), record_every=10,
        )
        assert abs(trace.tail_mean(0.1) - plan.gain) < 0.05

    def test_one_loop_policy_split(self):
        # above the exact 1/3 switch the learners split at state 0; small scale
        nominal, _ = one_loop()
        src = KernelSampler.from_mdp(nominal)
        robust_acts, vanilla_acts = [], []
        for i in range(5):
            tr_r = robust_rvi_q(
                src, nominal, Contamination(0.4), OffsetFn.mean(), Constant(0.01), 15_000, None, stream(11, i),
                record_every=100,
            )
            tr_v = robust_rvi_q(
                src, nominal, Contamination(0.0), OffsetFn.mean(), Constant(0.01), 15_000, None, stream(12, i),
                record_every=100,
            )
            robust_acts.append(greedy_policy(tr_r.final).actions()[0])
            vanilla_acts.append(greedy_policy(tr_v.final).actions()[0])
        assert robust_acts == [0] * 5  # left
        assert vanilla_acts == [1] * 5  # right

    def test_determinism_bit_identical(self):
        m = garnet(3, 2, seed=13)
        runs = [
            robust_rvi_q(
                KernelSampler.from_mdp(m), m, TotalVariation(0.2), OffsetFn.mean(), Constant(0.01), 300,
                MlmcConfig(0.25), stream(14),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].f_values, runs[1].f_values)
        np.testing.assert_array_equal(runs[0].final, runs[1].final)

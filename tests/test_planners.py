"""Tests for the model-based planning oracles."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from rarl import planners
from rarl.environments import example_a, garnet, inventory, one_loop
from rarl.estimators import KernelSampler
from rarl.mdp import (
    ConvergenceError,
    MultichainError,
    TabularMDP,
    OffsetFn,
    Policy,
    gain_and_bias,
    greedy_policy,
    robust_bellman_residual,
    span,
    support_table,
)
from rarl.planners import finite_set_enumeration, robust_rvi_control, robust_rvi_eval, worst_case_kernel
from rarl.uncertainty import ChiSquare, Contamination, FiniteKernelSet, KLDivergence, TotalVariation, Wasserstein


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
        def per_pair(m, policy, support, gain, v):
            rhs = np.zeros(m.n_states)
            for s in range(m.n_states):
                for a in range(m.n_actions):
                    rhs[s] += policy.probs[s, a] * (m.reward[s, a] - gain + support(s, a))
            return rhs - v

        rng = np.random.default_rng(12)
        m = garnet(5, 3, seed=8)
        policy = Policy(rng.dirichlet(np.ones(3), size=5))
        v = rng.normal(size=5)
        for spec in (Contamination(0.3), TotalVariation(0.3), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3)):
            np.testing.assert_allclose(
                robust_bellman_residual(m, policy, spec, 0.7, v),
                per_pair(m, policy, lambda s, a: spec.support(m.kernel[s, a], v), 0.7, v),
                rtol=0,
                atol=1e-12,
            )
        ex = example_a(1.0, 2.0, 4.0)
        v = np.array([-2.5, -0.5, 0.5])
        np.testing.assert_allclose(
            robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, v),
            per_pair(ex.mdp, ex.policy, lambda s, a: min(k[s, a] @ v for k in ex.kernels), 3.0, v),
            rtol=0,
            atol=1e-12,
        )


    def test_an_offset_state_past_the_iterate_is_named(self):
        m = garnet(4, 2, seed=3)
        # eval pins its 4-state value; control pins only its 8-entry Q table, as robust_rvi_q does
        with pytest.raises(IndexError, match="offset state 9 is out of range for 4 entries"):
            robust_rvi_eval(m, Policy.uniform(4, 2), TotalVariation(0.2), OffsetFn(9))
        with pytest.raises(IndexError, match="offset state 9 is out of range for 8 entries"):
            robust_rvi_control(m, TotalVariation(0.2), OffsetFn(9))


class TestRobustRviControl:
    def test_offset_pins_the_q_table_only(self):
        m, spec, tol = garnet(4, 2, seed=3), TotalVariation(0.2), 1e-9
        mean = robust_rvi_control(m, spec, tol=tol)
        for k in range(m.n_states * m.n_actions):  # entry k of the flattened Q table, (k // A, k % A)
            plan = robust_rvi_control(m, spec, OffsetFn(k), tol=tol)
            assert plan.q.ravel()[k] == 0.0
            assert plan.gain == pytest.approx(mean.gain, abs=tol)
            assert plan.residual <= tol

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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_planners_reject_a_bad_tol(tol):
    # a tol of 0 or below ran hundreds of steps and then raised a stall
    m, spec = garnet(4, 2, seed=3), TotalVariation(0.2)
    message = re.escape(f"tol must be a finite number > 0, got {tol!r}")
    with pytest.raises(ValueError, match=message):
        robust_rvi_eval(m, Policy.uniform(4, 2), spec, tol=tol)
    with pytest.raises(ValueError, match=message):
        robust_rvi_control(m, spec, tol=tol)


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
        # the set answers an MDP's pairs by its own stack of (s, a) pairs, kernels, next states
        ex = example_a(1.0, 2.0, 4.0)
        v = np.array([-2.5, -0.5, 0.5])
        rows, index = ex.uset._pairs(ex.mdp)
        assert rows is ex.uset.rows and rows.shape == (3, 2, 3)
        assert np.array_equal(index, np.arange(3))
        # state 0 chooses between jumping to state 1 or state 2
        assert ex.uset.support_batch(rows, v).tolist() == [-0.5, 0.5, -0.5]
        sigma, best = ex.uset._solve(rows, v)
        assert sigma.tolist() == [-0.5, 0.5, -0.5]
        assert ex.uset._worst(rows, v, best).tolist() == [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert not {"worst_row", "support_and_worst", "_values"} & set(dir(ex.uset))

    @pytest.mark.parametrize(
        "kernels, shape",
        [
            (example_a(1.0, 2.0, 4.0).mdp.kernel, (3, 1, 3)),  # one kernel, no K axis: not S fake kernels
            ([], (0,)),
            (np.zeros((0, 3, 1, 3)), (0, 3, 1, 3)),
            (np.full((2, 3, 1, 2), 0.5), (2, 3, 1, 2)),  # its state axes disagree
        ],
        ids=["one-kernel", "empty-list", "no-kernels", "state-axes"],
    )
    def test_finite_kernel_set_rejects_a_stack_of_another_shape(self, kernels, shape):
        with pytest.raises(ValueError, match=re.escape(f"non-empty (K, S, A, S) stack of kernels, got shape {shape}")):
            FiniteKernelSet(kernels)

    def test_finite_kernel_set_rejects_a_kernel_off_the_simplex(self):
        m = garnet(4, 2, seed=3)
        with pytest.raises(ValueError, match=r"kernel rows must be distributions: row sum 2 at \(kernel=1,s=0,a=0\)"):
            FiniteKernelSet([m.kernel, np.full((4, 2, 4), 0.5)])
        negative = m.kernel.copy()
        negative[2, 1] = [0.5, 0.5 + 1e-12, -1e-12, 0.0]
        with pytest.raises(ValueError, match=r"negative entry -1e-12 at \(kernel=0,s=2,a=1,s'=2\)"):
            FiniteKernelSet([negative, m.kernel])

    def test_finite_kernel_set_rejects_an_mdp_of_another_shape(self):
        ex = example_a(1.0, 2.0, 4.0)
        for m in (garnet(3, 2, seed=0), garnet(4, 1, seed=0)):
            message = re.escape(f"finite set kernel shape (3, 1, 3) != MDP kernel shape {m.kernel.shape}")
            v = np.zeros(m.n_states)
            for call in (
                lambda: support_table(m, ex.uset, v),
                lambda: worst_case_kernel(m, ex.uset, v),
                lambda: robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), ex.uset),
                lambda: robust_rvi_control(m, ex.uset),
            ):
                with pytest.raises(ValueError, match=message):
                    call()


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

    def test_every_worst_row_is_a_distribution(self):
        # a worst row passes the rule its nominal row does; TV's greedy transfer once took an ulp more
        # than a state held and left entries of -1e-17
        rng = np.random.default_rng(24)
        for _ in range(60):
            n = int(rng.integers(2, 20))
            m = garnet(n, int(rng.integers(1, 4)), seed=int(rng.integers(1000)))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            delta = float(rng.uniform(0, 3))
            for spec in (Contamination(min(delta, 0.99)), TotalVariation(delta), ChiSquare(delta),
                         KLDivergence(delta), Wasserstein(delta)):
                m.with_kernel(worst_case_kernel(m, spec, v))  # raises unless every row passes

    def test_inventory_tv_worst_kernel_can_be_sampled(self):
        m, spec = inventory(), TotalVariation(0.3)
        for v in (robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), spec).value,
                  robust_rvi_control(m, spec).q.max(axis=1)):
            KernelSampler(m.with_kernel(worst_case_kernel(m, spec, v)))

    def test_finite_kernel_set_per_pair(self):
        ex = example_a(1.0, 2.0, 4.0)
        v = np.array([-2.5, -0.5, 0.5])
        kernel = worst_case_kernel(ex.mdp, ex.uset, v)
        for s in range(ex.mdp.n_states):
            for a in range(ex.mdp.n_actions):
                candidates = np.stack([k[s, a] for k in ex.kernels])
                np.testing.assert_allclose(kernel[s, a], candidates[np.argmin(candidates @ v)], rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "v, message",
        [
            ([0.0, np.nan, 1.0], "v must be finite, got nan at s=1"),
            ([0.0, 1.0, -np.inf], "v must be finite, got -inf at s=2"),
            ([0.0, 1.0, 2.0, 3.0], "v must be a 1-D array of the rows' length 3, got shape (4,)"),
            ([[0.0], [1.0], [2.0]], "v must be a 1-D array of the rows' length 3, got shape (3, 1)"),
        ],
        ids=["nan", "inf", "length", "column"],
    )
    @pytest.mark.parametrize(
        "spec",
        [*(Contamination(0.4), TotalVariation(0.2), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3)), "finite"],
        ids=lambda spec: getattr(spec, "kind", spec),
    )
    def test_certificates_check_their_value(self, spec, v, message):
        # a NaN gave chi2 and KL worst kernels with non-finite rows, and an (S, 1) column gave
        # contamination and Wasserstein an (S, S) residual
        if spec == "finite":
            ex = example_a(1.0, 2.0, 4.0)
            m, spec, policy = ex.mdp, ex.uset, ex.policy
        else:
            m, policy = garnet(3, 2, seed=3), Policy.uniform(3, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            worst_case_kernel(m, spec, np.array(v))
        with pytest.raises(ValueError, match=re.escape(message)):
            robust_bellman_residual(m, policy, spec, 0.0, np.array(v))


FAMILIES = (Contamination(0.4), TotalVariation(0.2), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3))


def _rvi(bellman, shape, offset, tol):
    """Damped relative value iteration from x = 0, x <- y - offset(y) with y = (x + Tx) / 2, on a
    value vector or a Q table alike: the reference the planners are checked against.

    Returns (gain, x, sweeps, residual) once the residual is <= tol. Raises ``ConvergenceError``
    after 10^6 sweeps, or as soon as the residual after sweep 2^j (j >= 6) is no lower than after
    sweep 2^(j-1), e.g. on a multichain robust problem.
    """
    x = np.zeros(shape)
    residual = np.inf
    mark = None  # the residual after the last sweep 2^j, j >= 5
    for k in range(10**6):
        tx = bellman(x)
        g = offset(tx) - offset(x)
        residual = float(np.abs(tx - g - x).max())
        if residual <= tol:
            return float(g), x, k, residual
        if k >= 32 and not k & (k - 1):
            if mark is not None and residual >= mark:
                raise ConvergenceError(f"robust value iteration stalled at sweep {k}", residual)
            mark = residual
        nxt = 0.5 * x + 0.5 * tx
        x = nxt - offset(nxt)
    raise ConvergenceError("robust value iteration did not converge", residual)


def rvi_eval(m, policy, spec, offset, tol):
    """The damped RVI reference for a fixed policy, T v = sum_a pi(a|s) (r(s, a) + sigma(s, a, v)):
    (gain, value, sweeps, residual)."""

    def bellman(v):
        return np.einsum("sa,sa->s", policy.probs, m.reward + support_table(m, spec, v))

    return _rvi(bellman, m.n_states, offset, tol)


def rvi_control(m, spec, offset, tol):
    """The damped RVI reference on Q tables, H q = r + sigma(max_a q): (gain, q, sweeps, residual)."""
    return _rvi(lambda q: m.reward + support_table(m, spec, q.max(axis=1)), (m.n_states, m.n_actions), offset, tol)


def count_support_calls(monkeypatch, spec):
    """The list that gets one entry per ``_solve`` call of ``spec``: policy iteration makes one at v = 0
    and one per step."""
    calls = []
    solve = spec._solve
    monkeypatch.setattr(spec, "_solve", lambda *args: calls.append(None) or solve(*args))
    return calls


# Every case that certified only through the damped-RVI fallback the planners used to have, with its
# policy-iteration steps now (the fallback took 176, 231, 131, 187 and 80 sweeps): a worst kernel on
# the way is multichain, the worst kernel at the certified value is unichain.
FORMER_FALLBACKS = [
    ("inventory", "control", ChiSquare(3.0), 8),
    ("inventory", "control", ChiSquare(5.0), 10),
    ("inventory", "control", KLDivergence(1.0), 19),
    ("inventory", "eval", KLDivergence(3.0), 78),
    ("garnet", "eval", ChiSquare(3.0), 7),
    ("garnet", "eval", ChiSquare(5.0), 7),
    ("garnet", "eval", KLDivergence(3.0), 7),
]


class TestPolicyIterationAgainstRvi:
    """Policy iteration against the damped RVI reference loops."""

    @pytest.mark.parametrize("offset", [OffsetFn.mean(), OffsetFn.reference_state(3)], ids=["mean", "state3"])
    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("env", ["garnet", "inventory"])
    def test_gains_policies_and_residuals(self, env, spec, offset):
        m = garnet(5, 3, seed=254) if env == "garnet" else inventory()
        policy = Policy.uniform(m.n_states, m.n_actions)
        tol = 1e-9
        pi = robust_rvi_eval(m, policy, spec, offset, tol=tol)
        rvi_gain = rvi_eval(m, policy, spec, offset, tol)[0]
        assert pi.damped == 0
        assert abs(pi.gain - rvi_gain) <= 1e-8
        assert pi.residual <= tol
        assert np.abs(robust_bellman_residual(m, policy, spec, pi.gain, pi.value)).max() <= tol
        assert offset(pi.value) == pytest.approx(0.0, abs=1e-12)

        pi_c = robust_rvi_control(m, spec, offset, tol=tol)
        rvi_gain, rvi_q = rvi_control(m, spec, offset, tol)[:2]
        assert pi_c.damped == 0
        assert abs(pi_c.gain - rvi_gain) <= 1e-8
        np.testing.assert_array_equal(pi_c.policy.actions(), greedy_policy(rvi_q).actions())
        assert offset(pi_c.q) == pytest.approx(0.0, abs=1e-12)
        hq = m.reward + support_table(m, spec, pi_c.q.max(axis=1))
        assert pi_c.residual == np.abs(hq - pi_c.gain - pi_c.q).max() <= tol

    @pytest.mark.parametrize(
        "env, kind, spec, steps",
        FORMER_FALLBACKS,
        ids=[f"{env}-{kind}-{spec.kind}({spec.delta:g})" for env, kind, spec, _ in FORMER_FALLBACKS],
    )
    def test_multichain_worst_kernels_on_the_way_certify(self, env, kind, spec, steps):
        m = inventory() if env == "inventory" else garnet(4, 2, seed=39)
        policy = Policy.uniform(m.n_states, m.n_actions)
        offset = OffsetFn.mean()
        tol = 1e-9
        if kind == "eval":
            plan = robust_rvi_eval(m, policy, spec, tol=tol)
            reference = rvi_eval(m, policy, spec, offset, tol)[0]
            assert np.abs(robust_bellman_residual(m, policy, spec, plan.gain, plan.value)).max() <= tol
        else:
            plan = robust_rvi_control(m, spec, tol=tol)
            reference = rvi_control(m, spec, offset, tol)[0]
        assert (plan.iterations, plan.residual <= tol) == (steps, True) and plan.damped > 0
        assert abs(plan.gain - reference) <= 1e-9

    @pytest.mark.parametrize("spec", [ChiSquare(5.0), KLDivergence(3.0)], ids=lambda spec: spec.kind)
    def test_multichain_kernel_takes_damped_steps(self, spec):
        m = garnet(4, 2, seed=39)
        policy = Policy.uniform(4, 2)
        offset = OffsetFn.mean()
        tol = 1e-9
        # the second step's worst kernel has more than one recurrent class
        v = gain_and_bias(m.with_kernel(worst_case_kernel(m, spec, np.zeros(4))), policy, offset).bias
        with pytest.raises(MultichainError):
            gain_and_bias(m.with_kernel(worst_case_kernel(m, spec, v)), policy, offset)
        plan = robust_rvi_eval(m, policy, spec, tol=tol)
        assert (plan.iterations, plan.damped) == (7, 4)  # the damped RVI reference takes 80 sweeps
        assert np.abs(robust_bellman_residual(m, policy, spec, plan.gain, plan.value)).max() <= tol

    @pytest.mark.parametrize("spec", [ChiSquare(5.0), KLDivergence(3.0)], ids=lambda spec: spec.kind)
    def test_stalled_control_fallback_fails_fast(self, spec, monkeypatch):
        # the robust control problem is multichain: the reference's Q residual sits at 2.806 from sweep
        # 64 on, so it stops at sweep 128; policy iteration stalls at step 66 and then takes those same
        # 128 sweeps from zero
        m = garnet(4, 2, seed=39)
        with pytest.raises(ConvergenceError, match="stalled at sweep 128"):
            rvi_control(m, spec, OffsetFn.mean(), 1e-9)
        calls = count_support_calls(monkeypatch, spec)
        with pytest.raises(ConvergenceError, match="stalled at step 194") as failure:
            robust_rvi_control(m, spec, tol=1e-9)
        assert len(calls) == 195  # k steps make k + 1 calls
        assert failure.value.residual == pytest.approx(2.806, abs=1e-3)
        assert isinstance(failure.value.__cause__, MultichainError)

    @pytest.mark.parametrize("spec", [ChiSquare(1.0), KLDivergence(1.0)], ids=lambda spec: spec.kind)
    def test_residual_approaching_a_positive_limit_fails_fast(self, spec, monkeypatch):
        # damped steps approach a positive residual from above, so each checkpoint's residual is lower
        # than the one before; the ratio of successive ones stops shrinking and extrapolates above tol
        m = garnet(4, 2, seed=4)
        calls = count_support_calls(monkeypatch, spec)
        with pytest.raises(ConvergenceError, match="stalled at step 192") as failure:
            robust_rvi_control(m, spec, tol=1e-9)
        assert len(calls) == 193
        assert isinstance(failure.value.__cause__, MultichainError)

    def test_exact_chi2_worst_rows_end_the_cycling(self):
        # with worst rows off sigma by up to 1e-10 span, the first policy's evaluation cycled between
        # near-tied worst kernels with its residual near 1e-7, stalled at step 64 and certified after 89
        # steps; with worst rows that attain sigma, plain policy iteration certifies
        m, spec, tol = garnet(5, 2, seed=30), ChiSquare(1.0), 1e-9
        ct = robust_rvi_control(m, spec, tol=tol)
        assert (ct.iterations, ct.damped) == (16, 0)
        assert abs(ct.gain - 0.47238197581281727) <= 1e-9
        hq = m.reward + support_table(m, spec, ct.q.max(axis=1))
        assert ct.residual == np.abs(hq - ct.gain - ct.q).max() <= tol

    def test_forced_control_stall_starts_over_as_rvi(self, monkeypatch):
        # the stall rule forced at its first reading: control starts over at once as damped RVI on Q from
        # zero, every sweep but the first exact step counted as damped, and certifies the same policy
        m, spec, tol = garnet(5, 3, seed=251), KLDivergence(0.3), 1e-9
        plain = robust_rvi_control(m, spec, tol=tol)
        readings = []
        monkeypatch.setattr(planners, "_stalled", lambda *args: readings.append(args[1]) or len(readings) == 1)
        ct = robust_rvi_control(m, spec, tol=tol)
        assert readings[0] == 1 and (plain.iterations, plain.damped, ct.iterations, ct.damped) == (9, 0, 48, 47)
        np.testing.assert_array_equal(ct.policy.actions(), plain.policy.actions())
        assert abs(ct.gain - plain.gain) <= 1e-9
        hq = m.reward + support_table(m, spec, ct.q.max(axis=1))
        assert ct.residual == np.abs(hq - ct.gain - ct.q).max() <= tol

    def test_stalled_evaluation_starts_over_as_rvi(self):
        # exact evaluation of this policy stalls at step 64; the damped RVI reference certifies from zero
        # in 38 sweeps, and so does policy iteration once it starts over
        m, spec, tol = garnet(6, 2, seed=26), ChiSquare(10.0), 1e-9
        policy = Policy.deterministic(np.argmin(m.reward, axis=1), m.n_actions)
        plan = robust_rvi_eval(m, policy, spec, tol=tol)
        reference, sweeps = rvi_eval(m, policy, spec, OffsetFn.mean(), tol)[::2]
        assert (plan.iterations, plan.damped, sweeps) == (102, 101, 38)
        assert plan.gain == pytest.approx(reference, abs=1e-12) and plan.residual <= tol

    def test_stalled_control_starts_over_as_rvi(self):
        # the last policy's damped evaluation keeps a constant residual (its robust evaluation is
        # multichain) and is its own greedy policy, so policy iteration stalls at step 131; the damped
        # RVI reference on Q certifies from zero in 123 sweeps, and so does policy iteration after it
        m, spec, tol = garnet(8, 4, seed=24), KLDivergence(3.0), 1e-9
        ct = robust_rvi_control(m, spec, tol=tol)
        reference, sweeps = rvi_control(m, spec, OffsetFn.mean(), tol)[::2]
        assert (ct.iterations, ct.damped, sweeps) == (131 + 123, 254, 123)
        assert ct.gain == pytest.approx(reference, abs=1e-12)
        hq = m.reward + support_table(m, spec, ct.q.max(axis=1))
        assert ct.residual == np.abs(hq - ct.gain - ct.q).max() <= tol

    def test_slow_damped_sweeps_certify(self):
        # state 0 leaks into two absorbing states of reward 1 at rate 0.02: the chain is multichain, so
        # every step is a damped sweep, and the residual falls by about 1 % per sweep down to tol
        kernel = np.array([[[0.98, 0.01, 0.01]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]])
        m = TabularMDP(3, 1, kernel, np.array([[0.0], [1.0], [1.0]]))
        plan = robust_rvi_eval(m, Policy.uniform(3, 1), Contamination(0.0), tol=1e-9)
        assert plan.iterations == plan.damped > 1000 and plan.residual <= 1e-9
        assert plan.gain == pytest.approx(1.0, abs=1e-8)

    def test_stalled_eval_fallback_fails_fast(self):
        # two absorbing states with rewards 0 and 1: no single gain fits, the residual stays at 1/2;
        # every step already is a damped sweep from zero, so there is nothing to start over
        m = TabularMDP(2, 1, np.eye(2)[:, None, :], np.array([[0.0], [1.0]]))
        with pytest.raises(ConvergenceError, match="stalled at step 64") as failure:
            robust_rvi_eval(m, Policy.uniform(2, 1), Contamination(0.0), tol=1e-9)
        assert failure.value.residual == 0.5
        assert isinstance(failure.value.__cause__, MultichainError)
        assert "the last exact evaluation failed: induced chain has 2 closed recurrent classes" in str(failure.value)

    def test_control_fallback_error_names_why_policy_iteration_stopped(self):
        # under KL(3) on inventory a worst kernel splits into 7 closed classes, the damped steps stall at
        # step 64, and the damped RVI on Q that follows stalls after 64 sweeps
        m = inventory()
        with pytest.raises(ConvergenceError, match="stalled at step 128") as failure:
            robust_rvi_control(m, KLDivergence(3.0), tol=1e-9)
        cause = failure.value.__cause__
        assert isinstance(cause, MultichainError) and str(cause) == "induced chain has 7 closed recurrent classes"
        assert f"stalled at step 128; the last exact evaluation failed: {cause} (residual=" in str(failure.value)
        assert failure.value.residual == pytest.approx(6.266, abs=1e-3)
        # chi2(3) control meets a multichain kernel too, and switches to the greedy policy there
        ct = robust_rvi_control(m, ChiSquare(3.0), tol=1e-9)
        assert (ct.iterations, ct.damped) == (8, 1) and ct.residual <= 1e-9
        digest = hashlib.sha256(
            np.float64(ct.gain).tobytes() + ct.q.tobytes() + ct.policy.actions().astype(np.int64).tobytes()
        ).hexdigest()[:24]
        assert digest == "6adf0d09a4c2aa3d7c083992"

    def test_step_cap_reason(self, monkeypatch):
        # chi2 on inventory needs 4 steps for evaluation and 8 for control
        m = inventory()
        monkeypatch.setattr(planners, "_MAX_STEPS", 3)
        for solve in (
            lambda: robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), ChiSquare(0.3), tol=1e-9),
            lambda: robust_rvi_control(m, ChiSquare(0.3), tol=1e-9),
        ):
            with pytest.raises(ConvergenceError, match="policy iteration found no certificate within 3 steps"):
                solve()

    def test_finite_kernel_set_without_fallback(self):
        ex = example_a(1.0, 2.0, 4.0)
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=1e-10)
        ctrl = robust_rvi_control(ex.mdp, ex.uset, tol=1e-10)
        assert (plan.damped, ctrl.damped) == (0, 0)
        assert plan.gain == pytest.approx(3.0, abs=1e-12)
        assert ctrl.gain == pytest.approx(3.0, abs=1e-12)


class TestStallRule:
    """``planners._stalled`` on residuals r(k) read at every step k of one phase, with tol 1e-9."""

    @staticmethod
    def outcome(residual):
        """The step at which the rule stops the phase, or "certified" once r(k) <= tol."""
        marks = []
        for k in range(1, 2**20 + 1):
            r = residual(k)
            if r <= 1e-9:
                return "certified"
            if planners._stalled(marks, k, r, 1e-9):
                return k
        return "running"

    @pytest.mark.parametrize(
        "residual",
        [lambda k: 1 / k, lambda k: 1 / k**2, lambda k: 1 / (k * np.log(k + 1)), lambda k: 0.9995**k],
        ids=["1/k", "1/k^2", "1/(k log k)", "linear-rate"],
    )
    def test_slowly_converging_residual_never_stalls(self, residual):
        # c / k keeps the ratio of successive checkpoint residuals at 1/2, but extrapolates to 0;
        # c / (k log k) extrapolates to a positive limit, but one far below half the residual
        assert self.outcome(residual) in ("certified", "running")

    @pytest.mark.parametrize(
        "residual, step",
        [
            (lambda k: 0.5, 64),
            (lambda k: 1e-3 + 1 / k, 1024),
            (lambda k: 1e-3 + 0.99**k, 2048),
            (lambda k: 1e-3 * (1 - 1e-15 * np.log2(k)), 128),
        ],
        ids=["constant", "positive-limit-1/k", "positive-limit-linear", "barely-moving"],
    )
    def test_residual_with_a_positive_limit_stalls(self, residual, step):
        assert self.outcome(residual) == step

class TestPinnedOutputs:
    """SHA-256 prefixes of eval (gain, value) under the uniform policy and of control (gain, q,
    actions as int64), at tol 1e-9 with the mean offset. A change to how policy iteration reaches
    its answer that moves any bit of a result changes them; such a change must say so."""

    PINNED = {
        ("inventory", "contamination"): ("c867f1f3dde4e34c8990a41b", "9f08a0d5671e7a444f70ff75"),
        ("inventory", "tv"): ("04f51014dc89b22ab5abd8b9", "ceb760ad775a1b4fa737acc1"),
        ("inventory", "chi2"): ("13391f9046f2fbcfcc431b09", "eae0e2d6dfa81dfa92da8297"),
        ("inventory", "kl"): ("edc2f682036d9abfcc37060e", "04c801eb596d8a48d8da4a4b"),
        ("inventory", "wasserstein"): ("da839ef54ea99b8a01ef3e86", "5af023ce3fc17f118a8e81e0"),
        ("garnet", "contamination"): ("8c37136108fd84cac7fc3a6b", "97bbaae8f1048d82c79e2244"),
        ("garnet", "tv"): ("e7c2886c15ea876427ffd103", "11ebf298abd2312ba2d67d22"),
        ("garnet", "chi2"): ("12ac9473f0d915fd0b4c6aed", "61a5e35c928439d59ec002db"),
        ("garnet", "kl"): ("d105656a079d468f343a40f2", "875422f1551746f12d287166"),
        ("garnet", "wasserstein"): ("b0149ef763bb12eecb5d9ea4", "94f4f48be72f139bcacad1b7"),
    }

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("env", ["inventory", "garnet"])
    def test_hashes(self, env, spec):
        m = inventory() if env == "inventory" else garnet(5, 3, seed=254)
        ev = robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), spec, tol=1e-9)
        ct = robust_rvi_control(m, spec, tol=1e-9)
        digests = (
            hashlib.sha256(np.float64(ev.gain).tobytes() + ev.value.tobytes()).hexdigest()[:24],
            hashlib.sha256(
                np.float64(ct.gain).tobytes() + ct.q.tobytes() + ct.policy.actions().astype(np.int64).tobytes()
            ).hexdigest()[:24],
        )
        assert digests == self.PINNED[env, spec.kind]


class TestPinnedRestartPaths:
    """The paths other than plain policy iteration, pinned as ``TestPinnedOutputs`` pins its calls,
    with (iterations, damped): the damped-RVI restart of eval and of control, a stall forced at the
    first reading, control's switch at a multichain kernel, damped eval steps and an evaluation that
    is damped sweeps only. Tests that check these paths' gains to 1e-12 would not see a moved bit."""

    CASES = {
        "eval-restart": ("226f49c1b6c8ec46dc957b7c", 102, 101),
        "control-restart": ("50199dfc39b574b05567d492", 254, 254),
        "forced-stall": ("b3aea4b2891df998ef8bd1ab", 48, 47),
        "multichain-switch": ("6adf0d09a4c2aa3d7c083992", 8, 1),
        "damped-eval": ("2eee127833101b86c874691a", 7, 4),
        "damped-only": ("2594c05689bae1fe61903b13", 2022, 2022),
    }

    @staticmethod
    def solve(case, monkeypatch):
        tol = 1e-9
        if case == "eval-restart":
            m = garnet(6, 2, seed=26)
            policy = Policy.deterministic(np.argmin(m.reward, axis=1), m.n_actions)
            return robust_rvi_eval(m, policy, ChiSquare(10.0), tol=tol)
        if case == "control-restart":
            return robust_rvi_control(garnet(8, 4, seed=24), KLDivergence(3.0), tol=tol)
        if case == "forced-stall":
            readings = []
            monkeypatch.setattr(planners, "_stalled", lambda *args: readings.append(args[1]) or len(readings) == 1)
            return robust_rvi_control(garnet(5, 3, seed=251), KLDivergence(0.3), tol=tol)
        if case == "multichain-switch":
            return robust_rvi_control(inventory(), ChiSquare(3.0), tol=tol)
        if case == "damped-eval":
            return robust_rvi_eval(garnet(4, 2, seed=39), Policy.uniform(4, 2), ChiSquare(5.0), tol=tol)
        # the leak of test_slow_damped_sweeps_certify: every step of its evaluation is damped
        kernel = np.array([[[0.98, 0.01, 0.01]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]])
        m = TabularMDP(3, 1, kernel, np.array([[0.0], [1.0], [1.0]]))
        return robust_rvi_eval(m, Policy.uniform(3, 1), Contamination(0.0), tol=tol)

    @pytest.mark.parametrize("case", CASES)
    def test_hashes(self, case, monkeypatch):
        r = self.solve(case, monkeypatch)
        if isinstance(r, planners.ControlResult):
            data = np.float64(r.gain).tobytes() + r.q.tobytes() + r.policy.actions().astype(np.int64).tobytes()
        else:
            data = np.float64(r.gain).tobytes() + r.value.tobytes()
        assert (hashlib.sha256(data).hexdigest()[:24], r.iterations, r.damped) == self.CASES[case]


class TestSolveCount:
    """Each policy-iteration step makes one ``_solve`` and one ``_worst`` call, and nothing else of
    the set, over the MDP's distinct nominal rows: 25 on inventory(), all 15 on garnet(5, 3, 254).
    It calls no public method, so the rows the MDP checked are not checked again; nor does
    ``worst_case_kernel``, which makes that step's solve."""

    NAMES = ("_solve", "_worst", "support_and_worst", "support_batch", "worst_row")

    @classmethod
    def count(cls, monkeypatch, spec):
        """Per method of the set, the row count of each call made from outside the set (its
        ``worst_row`` calls its own ``support_and_worst``, ``_solve`` and ``_worst``, which are not
        counted again)."""
        calls = {name: [] for name in cls.NAMES}
        depth = [0]
        for name in calls:

            def counted(rows, *args, _name=name, _method=getattr(spec, name)):
                if not depth[0]:
                    calls[_name].append(len(rows))
                depth[0] += 1
                try:
                    return _method(rows, *args)
                finally:
                    depth[0] -= 1

            monkeypatch.setattr(spec, name, counted)
        return calls

    def check(self, m, n_rows, spec, monkeypatch):
        calls = self.count(monkeypatch, spec)
        ev = robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), spec, tol=1e-9)
        assert ev.damped == 0
        steps = [n_rows] * (ev.iterations + 1)
        assert calls == self.only(_solve=steps, _worst=steps)
        for rows in calls.values():
            rows.clear()
        ct = robust_rvi_control(m, spec, tol=1e-9)
        # each policy's evaluation starts from the kernel its predecessor's last step found;
        # the one support_batch is the closing Q-residual certificate
        assert ct.damped == 0
        steps = [n_rows] * (ct.iterations + 1)
        assert calls == self.only(_solve=steps, _worst=steps, support_batch=[n_rows])
        for rows in calls.values():
            rows.clear()
        robust_bellman_residual(m, ct.policy, spec, ct.gain, ct.q.max(axis=1))
        assert calls == self.only(support_batch=[n_rows])
        calls["support_batch"].clear()
        worst_case_kernel(m, spec, ct.q.max(axis=1))
        assert calls == self.only(_solve=[n_rows], _worst=[n_rows])

    @classmethod
    def only(cls, **counts):
        return {name: counts.get(name, []) for name in cls.NAMES}

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    def test_k_steps_make_k_plus_one_calls(self, spec, monkeypatch):
        self.check(inventory(), 25, spec, monkeypatch)

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    def test_distinct_rows_pass_whole(self, spec, monkeypatch):
        self.check(garnet(5, 3, seed=254), 15, spec, monkeypatch)


class TestRestartSolveCount:
    """Each sweep of the damped-RVI restart reads its support table alone: one ``support_batch``
    solve and no ``_worst`` call, after the p + 1 ``_solve`` and ``_worst`` calls of the p
    policy-iteration steps before the stall."""

    @pytest.mark.parametrize(
        "case, steps, sweeps", [("eval-restart", 64, 38), ("control-restart", 131, 123)], ids=lambda x: str(x)
    )
    def test_k_sweeps_make_k_support_batch_solves(self, case, steps, sweeps, monkeypatch):
        if case == "eval-restart":
            m, spec = garnet(6, 2, seed=26), ChiSquare(10.0)
            policy = Policy.deterministic(np.argmin(m.reward, axis=1), m.n_actions)
            solve = lambda: robust_rvi_eval(m, policy, spec, tol=1e-9)
        else:
            m, spec = garnet(8, 4, seed=24), KLDivergence(3.0)
            solve = lambda: robust_rvi_control(m, spec, tol=1e-9)
        n_rows = m.n_states * m.n_actions  # a garnet's nominal rows are distinct
        calls = TestSolveCount.count(monkeypatch, spec)
        r = solve()
        assert r.iterations == steps + sweeps
        step_calls = [n_rows] * (steps + 1)
        assert calls == TestSolveCount.only(_solve=step_calls, _worst=step_calls, support_batch=[n_rows] * sweeps)


class TestOffsetFreeCertificate:
    """Every certificate reads the gain as the mean of Tx - x, which no offset moves, so a call takes
    the steps and has the outcome of its mean-offset twin; the offset only pins what it returns."""

    def test_control_restart_certifies_for_every_offset(self):
        # with the gain read through the offset, OffsetFn(0), (1) and (5) stalled at step 195 here
        m, spec, tol = garnet(8, 4, seed=24), KLDivergence(3.0), 1e-9
        mean = robust_rvi_control(m, spec, tol=tol)
        assert (mean.iterations, mean.damped) == (254, 254)
        for k in (0, 1, 5):
            ct = robust_rvi_control(m, spec, OffsetFn(k), tol=tol)
            assert (ct.iterations, ct.damped) == (254, 254) and ct.residual <= tol
            assert abs(ct.gain - mean.gain) <= 1e-12
            assert ct.q.ravel()[k] == 0.0
            np.testing.assert_array_equal(ct.policy.actions(), mean.policy.actions())

    def test_eval_restart_takes_the_mean_offsets_steps(self):
        # with the gain read through the offset, OffsetFn(1) took 167 steps here
        m, spec, tol = garnet(6, 2, seed=26), KLDivergence(3.0), 1e-9
        policy = Policy.deterministic(np.argmin(m.reward, axis=1), m.n_actions)
        mean = robust_rvi_eval(m, policy, spec, tol=tol)
        ev = robust_rvi_eval(m, policy, spec, OffsetFn(1), tol=tol)
        assert (mean.iterations, mean.damped) == (ev.iterations, ev.damped) == (102, 101)
        assert ev.residual <= tol and abs(ev.gain - mean.gain) <= 1e-12
        assert ev.value[1] == 0.0

    def test_gain_and_residual_ignore_a_constant_shift(self):
        rng = np.random.default_rng(7)
        x, tx = rng.normal(size=6), rng.normal(size=6)
        g, residual = planners._gain_and_residual(tx, x)
        assert g == pytest.approx(np.mean(tx - x), abs=1e-15)
        shifted = planners._gain_and_residual(tx + 3.0, x + 3.0)
        assert shifted == pytest.approx((g, residual), abs=1e-14)


class FullRows:
    """A family seen through a wrapper whose ``_pairs`` gives all S*A nominal rows, repeated ones
    included, and the identity index: the reference the distinct-row solves are checked against.
    ``solved`` holds the row count of each solve it makes."""

    def __init__(self, spec):
        self.spec = spec
        self.solved = []

    def _pairs(self, mdp):
        return mdp.kernel.reshape(-1, mdp.n_states), np.arange(mdp.n_states * mdp.n_actions)

    def _solve(self, rows, v):
        self.solved.append(len(rows))
        return self.spec._solve(rows, v)

    def support_batch(self, rows, v):
        self.solved.append(len(rows))
        return self.spec.support_batch(rows, v)

    def __getattr__(self, name):
        return getattr(self.spec, name)


def repeated_rows_mdp():
    """4 states and 3 actions whose 12 pairs share 3 nominal rows, one of them sparse."""
    rng = np.random.default_rng(5)
    pool = np.vstack([rng.dirichlet(np.ones(4), size=2), [0.5, 0.0, 0.5, 0.0]])
    return TabularMDP(4, 3, pool[[0, 1, 2, 1, 2, 0, 2, 2, 1, 0, 0, 2]].reshape(4, 3, 4), rng.normal(size=(4, 3)))


class TestDistinctNominalRows:
    """The planners and certificates solve each distinct nominal row once and copy its answers to
    every pair that has it. Chi-square and KL solve a row to the same bits in any batch, so they
    match a solve over all S*A rows exactly; contamination, TV and Wasserstein reduce rows with
    BLAS products, whose last bits may depend on the batch, and match within 1e-15 span(v)."""

    def test_row_map(self):
        m = inventory()
        rows, index = m._distinct_rows
        assert rows.shape == (25, 17) and index.shape == (153,)
        assert not rows.flags.writeable and not index.flags.writeable
        assert np.array_equal(rows[index], m.kernel.reshape(-1, 17))
        _, first = np.unique(index, return_index=True)
        assert np.all(np.diff(first) > 0)  # rows numbered in order of first appearance
        assert m._distinct_rows is m._distinct_rows
        _, index = repeated_rows_mdp()._distinct_rows
        assert np.array_equal(index, [0, 1, 2, 1, 2, 0, 2, 2, 1, 0, 0, 2])

    def test_distinct_rows_pass_through(self):
        m = garnet(5, 3, seed=254)
        rows, index = m._distinct_rows
        assert np.array_equal(index, np.arange(15)) and rows.shape == (15, 5) and np.shares_memory(rows, m.kernel)

    def test_container_unchanged_by_the_map(self):
        m = inventory()
        before = (repr(m), m.to_json())
        support_table(m, KLDivergence(0.3), m.reward.max(axis=1))
        assert "_distinct_rows" in vars(m)
        assert (repr(m), m.to_json()) == before
        assert [f.name for f in dataclasses.fields(m)] == ["n_states", "n_actions", "kernel", "reward"]
        twin = TabularMDP.from_json(m.to_json())
        assert np.array_equal(twin.kernel, m.kernel) and "_distinct_rows" not in vars(twin)

    def test_planners_build_no_mdp(self, monkeypatch):
        # the planners evaluate each worst kernel as it is; a with_kernel copy starts without the map
        m = inventory()
        assert "_distinct_rows" not in vars(m.with_kernel(m.kernel))

        def forbidden(self):
            raise AssertionError("a planner built an MDP")

        monkeypatch.setattr(TabularMDP, "__post_init__", forbidden)  # with_kernel builds through it too
        robust_rvi_eval(m, Policy.uniform(m.n_states, m.n_actions), KLDivergence(0.3), tol=1e-9)
        robust_rvi_control(m, TotalVariation(0.2), tol=1e-9)

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("env", ["inventory", "repeated"])
    def test_matches_a_solve_over_all_rows(self, env, spec):
        m = inventory() if env == "inventory" else repeated_rows_mdp()
        assert m._distinct_rows[1] is not None
        exact = spec.kind in ("chi2", "kl")

        def same(a, b, v):
            if exact:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-15 * span(v))

        full = FullRows(spec)
        policy = Policy.uniform(m.n_states, m.n_actions)
        ev, ev_full = robust_rvi_eval(m, policy, spec, tol=1e-9), robust_rvi_eval(m, policy, full, tol=1e-9)
        same(ev.gain, ev_full.gain, ev.value)
        same(ev.value, ev_full.value, ev.value)
        ct, ct_full = robust_rvi_control(m, spec, tol=1e-9), robust_rvi_control(m, full, tol=1e-9)
        same(ct.gain, ct_full.gain, ct.q)
        same(ct.q, ct_full.q, ct.q)
        assert np.array_equal(ct.policy.probs, ct_full.policy.probs)
        rng = np.random.default_rng(3)
        for v in (ev.value, ct.q.max(axis=1), 100 * rng.normal(size=m.n_states)):
            same(support_table(m, spec, v), support_table(m, full, v), v)
            same(worst_case_kernel(m, spec, v), worst_case_kernel(m, full, v), v)
        # the reference solved all S*A rows at every call, more than the distinct ones
        assert len(m._distinct_rows[0]) < m.n_states * m.n_actions
        assert full.solved and set(full.solved) == {m.n_states * m.n_actions}

    @pytest.mark.parametrize("spec", FAMILIES, ids=lambda spec: spec.kind)
    @pytest.mark.parametrize("env", ["inventory", "repeated"])
    def test_worst_kernel_is_the_checked_worst_row(self, env, spec):
        # worst_case_kernel reaches _solve and _worst with no row check; it gives the bits of the
        # public, checked worst_row on the MDP's distinct nominal rows
        m = inventory() if env == "inventory" else repeated_rows_mdp()
        rows, index = m._distinct_rows
        rng = np.random.default_rng(11)
        for v in (m.reward.max(axis=1), rng.normal(size=m.n_states), 100 * rng.normal(size=m.n_states)):
            expected = spec.worst_row(rows, v)[index].reshape(m.kernel.shape)
            assert np.array_equal(worst_case_kernel(m, spec, v), expected)

    def test_finite_kernel_set_answers_from_its_full_batch(self):
        # nominal rows 0 and 2 repeat, but the pairs' kernel collections differ, so the set answers
        # by its stack of all S*A pairs; the support tables, worst kernels and planner outputs keep
        # the bits the set's former row-level support_batch and worst_row gave
        ex = example_a(1.0, 2.0, 4.0)
        assert len(ex.mdp._distinct_rows[0]) == 2
        for v, sigma, worst in (
            ([-2.5, -0.5, 0.5], [-0.5, 0.5, -0.5], [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
            ([0.0, 1.0, -1.0], [-1.0, -1.0, 1.0], [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        ):
            assert support_table(ex.mdp, ex.uset, np.array(v)).ravel().tolist() == sigma
            assert worst_case_kernel(ex.mdp, ex.uset, np.array(v)).reshape(3, 3).tolist() == worst
        ev = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=1e-10)
        ct = robust_rvi_control(ex.mdp, ex.uset, tol=1e-10)
        assert (ev.gain, ev.iterations, ct.gain, ct.iterations) == (3.0, 2, 3.0, 2)
        assert ev.value.tolist() == [-1.6666666666666665, 0.3333333333333335, 1.3333333333333335]
        assert ct.q.ravel().tolist() == [-1.6666666666666667, 0.3333333333333332, 1.3333333333333337]

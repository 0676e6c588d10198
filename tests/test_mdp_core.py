"""Tests for the exact tabular MDP machinery."""

import json
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from rarl.environments import example_a, garnet, one_loop
from rarl.mdp import (
    SUPPORT_EPS,
    ConvergenceError,
    MultichainError,
    OffsetFn,
    Policy,
    TabularMDP,
    gain_and_bias,
    gain_vector,
    induced_chain,
    is_unichain,
    robust_bellman_residual,
    span,
    stationary_distribution,
)


def make_mdp(kernel, reward):
    kernel = np.asarray(kernel, dtype=float)
    return TabularMDP(kernel.shape[0], kernel.shape[1], kernel, np.asarray(reward, dtype=float))


def random_unichain_mdp(rng, n_states, n_actions):
    # strictly positive rows, so the chain is irreducible under any policy
    kernel = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)) + 0.01
    kernel /= kernel.sum(axis=2, keepdims=True)
    reward = rng.normal(0.0, 2.0, size=(n_states, n_actions))
    return TabularMDP(n_states, n_actions, kernel, reward)


def random_chain(rng, trial, max_states):
    """A random transition matrix with 1..max_states states; trial % 4 picks the shape."""
    n = int(rng.integers(1, max_states + 1))
    kind = trial % 4
    if kind == 0:  # sparse random support
        p = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.5))
    elif kind == 1:  # periodic: a random permutation, cycles of any length
        p = np.eye(n)[rng.permutation(n)]
    elif kind == 2:  # closed blocks, each a cycle, and transient states feeding some of them
        closed = int(rng.integers(1, n + 1))
        cuts = rng.choice(np.arange(1, closed), size=int(rng.integers(0, min(3, closed))), replace=False)
        p = np.zeros((n, n))
        for block in np.split(np.arange(closed), np.sort(cuts)):
            p[block, np.roll(block, 1)] = 1.0
        for s in range(closed, n):
            p[s, rng.choice(n, size=int(rng.integers(1, 3)))] = rng.random()
    else:  # a dense chain thinned to a few edges per row
        p = rng.dirichlet(np.full(n, 0.3), size=n)
        p[p < np.quantile(p, rng.uniform(0.3, 0.9), axis=1, keepdims=True)] = 0.0
    p[np.arange(n), rng.integers(n, size=n)] += (p.sum(axis=1) == 0)  # no empty row
    return p / p.sum(axis=1, keepdims=True)


class TestValidate:
    """An MDP checks itself when built and names the first violation."""

    def test_valid_two_state(self):
        make_mdp([[[0.5, 0.5]], [[0.5, 0.5]]], [[0.0], [1.0]])

    def test_row_sum_violation(self):
        with pytest.raises(ValueError, match=re.escape("invalid MDP: row sum 1.2 at (s=0,a=0)")):
            make_mdp([[[0.6, 0.6]], [[0.5, 0.5]]], [[0.0], [1.0]])

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="invalid MDP: negative entry"):
            make_mdp([[[-0.1, 1.1]], [[0.5, 0.5]]], [[0.0], [1.0]])

    def test_nonfinite_kernel_entry(self):
        with pytest.raises(ValueError, match=re.escape("invalid MDP: non-finite entry nan at (s=1,a=0,s'=0)")):
            make_mdp([[[0.5, 0.5]], [[np.nan, 1.0]]], [[0.0], [1.0]])

    def test_nonfinite_reward(self):
        with pytest.raises(ValueError, match=re.escape("invalid MDP: non-finite reward at (s=0,a=0)")):
            make_mdp([[[0.5, 0.5]], [[0.5, 0.5]]], [[np.inf], [1.0]])

    @pytest.mark.parametrize(
        "n_states, n_actions, kernel_shape, reward_shape, problem",
        [
            (0, 1, (0, 1, 0), (0, 1), "non-positive dimensions (n_states=0, n_actions=1)"),
            (2, 1, (2, 2, 2), (2, 1), "kernel shape (2, 2, 2) != (2, 1, 2)"),
            (2, 1, (2, 1, 2), (1, 2), "reward shape (1, 2) != (2, 1)"),
        ],
    )
    def test_dimensions_and_shapes(self, n_states, n_actions, kernel_shape, reward_shape, problem):
        with pytest.raises(ValueError, match=re.escape(f"invalid MDP: {problem}")):
            TabularMDP(n_states, n_actions, np.full(kernel_shape, 0.5), np.zeros(reward_shape))

    def test_names_the_first_bad_row_in_s_a_order(self):
        # a short row at (0, 1) comes before a negative entry at (2, 0) in (s, a) order
        kernel = np.tile([0.2, 0.3, 0.5], (3, 2, 1))
        kernel[0, 1], kernel[2, 0] = [0.25, 0.25, 0.0], [0.6, 0.5, -0.1]
        with pytest.raises(ValueError, match=re.escape("invalid MDP: row sum 0.5 at (s=0,a=1)")):
            TabularMDP(3, 2, kernel, np.zeros((3, 2)))

    def test_from_json_rejects_a_negative_entry(self):
        doc = json.loads(garnet(4, 2, seed=3).to_json())
        doc["kernel"][1] = [0.5, 0.5, 0.5, -0.5]  # pair (s=0, a=1): sums to 1, one entry negative
        with pytest.raises(ValueError, match=re.escape("invalid MDP: negative entry -0.5 at (s=0,a=1,s'=3)")):
            TabularMDP.from_json(json.dumps(doc))

    def test_with_kernel_checks_its_kernel(self):
        m = garnet(4, 2, seed=3)
        kernel = np.array(m.kernel)
        kernel[3, 1, 0] += 1e-8
        with pytest.raises(ValueError, match=re.escape("invalid MDP: row sum 1.00000001 at (s=3,a=1)")):
            m.with_kernel(kernel)
        kernel[3, 1, 0] -= 1e-8 - 5e-10  # off by less than ROW_SUM_TOL
        assert np.array_equal(m.with_kernel(kernel).kernel, kernel)

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_unichain_mdp(rng, 4, 3)
        back = TabularMDP.from_json(m.to_json())
        np.testing.assert_allclose(back.kernel, m.kernel)
        np.testing.assert_allclose(back.reward, m.reward)


class TestPolicy:
    """A policy checks its rows by the kernel's rule, so an invalid one never reaches a planner or a
    learner."""

    @pytest.mark.parametrize(
        "probs, problem",
        [
            ([[1.5, -0.5]] * 4, "negative entry -0.5 at (s=0,a=1)"),
            ([[0.5, 0.5], [np.nan, 1.0]], "non-finite entry nan at (s=1,a=0)"),
            ([[0.5, 0.5], [np.inf, 0.0]], "non-finite entry inf at (s=1,a=0)"),
            ([[0.5, 0.5], [0.6, 0.6]], "row sum 1.2 at (s=1)"),
            ([[1.0, 1e-8]], "row sum 1.00000001 at (s=0)"),
            ([0.5, 0.5], "expected shape (S, A), got (2,)"),
            ([[[1.0]]], "expected shape (S, A), got (1, 1, 1)"),
        ],
    )
    def test_rejects_rows_that_are_not_distributions(self, probs, problem):
        with pytest.raises(ValueError, match=re.escape(f"policy rows must be distributions: {problem}")):
            Policy(np.array(probs))

    def test_accepts_distributions(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(3), size=5)
        probs[0] = [0.5, 0.5 + 5e-10, 0.0]  # off by less than ROW_SUM_TOL
        np.testing.assert_array_equal(Policy(probs).probs, probs)
        assert Policy.uniform(4, 3).probs.shape == (4, 3)
        assert Policy.deterministic([2, 0], 3).actions().tolist() == [2, 0]

    @pytest.mark.parametrize("actions", [[0, 2], [0, -1], [0, 0.5]])
    def test_deterministic_rejects_an_action_outside_the_range(self, actions):
        # the action's row is all zero, so the row rule names its state
        with pytest.raises(ValueError, match=re.escape("row sum 0 at (s=1)")):
            Policy.deterministic(actions, 2)


class TestInducedChain:
    def test_deterministic_policy_selects_rows(self):
        rng = np.random.default_rng(1)
        m = random_unichain_mdp(rng, 3, 2)
        p_pi, r_pi = induced_chain(m, Policy.deterministic([1, 0, 1], 2))
        np.testing.assert_allclose(p_pi[0], m.kernel[0, 1])
        np.testing.assert_allclose(p_pi[1], m.kernel[1, 0])
        assert r_pi[2] == m.reward[2, 1]

    def test_uniform_over_identical_actions(self):
        row = np.array([0.3, 0.7])
        kernel = np.stack([np.stack([row, row]), np.stack([row, row])])
        m = make_mdp(kernel, np.zeros((2, 2)))
        p_pi, _ = induced_chain(m, Policy.uniform(2, 2))
        np.testing.assert_allclose(p_pi[0], row)

    def test_one_loop_always_right(self):
        nominal, _ = one_loop()
        p_pi, r_pi = induced_chain(nominal, Policy.deterministic([1, 1], 2))
        np.testing.assert_allclose(p_pi, [[0.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(r_pi, [-2.0, 1.0])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        m = random_unichain_mdp(rng, 3, 2)
        with pytest.raises(ValueError):
            induced_chain(m, Policy.uniform(4, 2))


class TestStationaryDistribution:
    def test_single_state(self):
        np.testing.assert_allclose(stationary_distribution(np.eye(1)), [1.0])

    def test_two_cycle(self):
        mu = stationary_distribution(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(mu, [0.5, 0.5], atol=1e-9)

    def test_absorbing(self):
        mu = stationary_distribution(np.array([[0.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose(mu, [0.0, 1.0], atol=1e-9)

    def test_periodic_three_state(self):
        # 1 -> 2, 2 <-> 3: period-2 recurrent class; plain power iteration cycles
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        mu = stationary_distribution(p)
        np.testing.assert_allclose(mu, [0.0, 0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(mu @ p, mu, atol=1e-9)

    def test_fixed_point_property_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.dirichlet(np.ones(5), size=5)
            mu = stationary_distribution(p)
            np.testing.assert_allclose(mu @ p, mu, atol=1e-9)
            assert mu.min() >= 0 and abs(mu.sum() - 1) < 1e-12

    @pytest.mark.parametrize("a,b,atol", [(1e-11, 5e-11, 1e-7), (1e-6, 5e-6, 1e-10)])
    def test_slowly_switching_two_state(self, a, b, atol):
        # slowly mixing: mu = (b, a) / (a + b) although each step moves almost no mass
        p = np.array([[1.0 - a, a], [b, 1.0 - b]])
        mu = stationary_distribution(p)
        np.testing.assert_allclose(mu, [5 / 6, 1 / 6], atol=atol)
        assert np.abs(mu @ p - mu).max() <= 1e-15

    def test_rates_below_support_eps_are_not_edges(self):
        # both switching rates lie below SUPPORT_EPS, so each state is its own closed class
        with pytest.raises(MultichainError, match="has 2 closed recurrent classes"):
            stationary_distribution(np.array([[1.0 - 1e-13, 1e-13], [5e-13, 1.0 - 5e-13]]))


class TestIsUnichain:
    def test_cycle(self):
        assert is_unichain(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_two_absorbing(self):
        assert not is_unichain(np.eye(2))

    def test_transient_state(self):
        assert is_unichain(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @staticmethod
    def closed_classes(p, eps):
        """Independent reference: condense the support graph into strongly connected components
        and count those with no edge leaving them."""
        support = p > eps
        n_comp, labels = connected_components(sp.csr_matrix(support), directed=True, connection="strong")
        src, dst = support.nonzero()
        leaving = labels[src] != labels[dst]
        return n_comp - np.unique(labels[src][leaving]).size

    def test_matches_scc_condensation(self):
        rng = np.random.default_rng(31)
        answers = []
        for trial in range(2000):
            p = random_chain(rng, trial, max_states=12)
            n = len(p)
            # entries at exactly SUPPORT_EPS are not edges; entries just above it are
            p[rng.random((n, n)) < 0.05] = SUPPORT_EPS
            p[rng.random((n, n)) < 0.02] = np.nextafter(SUPPORT_EPS, 1.0)
            answers.append(is_unichain(p))
            assert answers[-1] == (self.closed_classes(p, SUPPORT_EPS) == 1), p
        assert 400 <= sum(answers) <= 1600  # both answers well represented


class TestGainAndBias:
    def test_single_state(self):
        m = make_mdp([[[1.0]]], [[3.25]])
        gb = gain_and_bias(m, Policy.deterministic([0], 1))
        assert gb.gain == pytest.approx(3.25, abs=1e-12)
        np.testing.assert_allclose(gb.bias, [0.0], atol=1e-12)

    def test_two_state_cycle_mean_normalization(self):
        # by hand: g = 0.5, bias solves v = r - g + Pv with mean(v) = 0
        kernel = np.zeros((2, 1, 2))
        kernel[0, 0] = [0.0, 1.0]
        kernel[1, 0] = [1.0, 0.0]
        m = make_mdp(kernel, [[0.0], [1.0]])
        gb = gain_and_bias(m, Policy.deterministic([0, 0], 1), OffsetFn.mean())
        assert gb.gain == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(gb.bias, [-0.25, 0.25], atol=1e-12)

    def test_three_state_swap_instance_default_convention(self):
        ex = example_a(1.0, 2.0, 4.0)
        gb = gain_and_bias(ex.mdp, ex.policy, normalization=None)
        assert gb.gain == pytest.approx(3.0, abs=1e-12)
        np.testing.assert_allclose(gb.bias, [-2.5, -0.5, 0.5], atol=1e-9)

    def test_bellman_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = random_unichain_mdp(rng, n, int(rng.integers(1, 4)))
            pol = Policy(rng.dirichlet(np.ones(m.n_actions), size=n))
            gb = gain_and_bias(m, pol)
            p_pi, r_pi = induced_chain(m, pol)
            np.testing.assert_allclose(gb.bias, r_pi - gb.gain + p_pi @ gb.bias, atol=1e-9)
            # gain equals the stationary average of the rewards
            mu = stationary_distribution(p_pi)
            assert gb.gain == pytest.approx(float(mu @ r_pi), abs=1e-8)

    def test_normalizations_shift_only(self):
        rng = np.random.default_rng(5)
        m = random_unichain_mdp(rng, 5, 2)
        pol = Policy.uniform(5, 2)
        ref = gain_and_bias(m, pol, OffsetFn.reference_state(2))
        mean = gain_and_bias(m, pol, OffsetFn.mean())
        assert ref.gain == pytest.approx(mean.gain, abs=1e-10)
        assert ref.bias[2] == pytest.approx(0.0, abs=1e-10)
        assert float(mean.bias.mean()) == pytest.approx(0.0, abs=1e-10)
        assert span(ref.bias - mean.bias) == pytest.approx(0.0, abs=1e-9)

    def test_multichain_rejected(self):
        m = make_mdp(np.eye(2)[:, None, :], [[0.0], [1.0]])
        with pytest.raises(MultichainError, match="has 2 closed recurrent classes"):
            gain_and_bias(m, Policy.deterministic([0, 0], 1))

    def test_singular_solve_is_named(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("rarl.mdp.np.linalg.solve", singular)
        m = random_unichain_mdp(np.random.default_rng(7), 4, 2)
        with pytest.raises(np.linalg.LinAlgError, match="^singular gain/bias system: Singular matrix$"):
            gain_and_bias(m, Policy.uniform(4, 2), OffsetFn.mean())

    def test_large_residual_rejected(self, monkeypatch):
        # shifting the bias and the gain by c leaves a residual of exactly c in every state; the
        # bound is _GAIN_BIAS_RTOL (1 + max |r_pi|) >= 1e-7, so a shift of 1e-9 passes and 1e-3 fails
        solve, m, policy = np.linalg.solve, random_unichain_mdp(np.random.default_rng(7), 4, 2), Policy.uniform(4, 2)
        monkeypatch.setattr("rarl.mdp.np.linalg.solve", lambda a, b: solve(a, b) + 1e-9)
        gain_and_bias(m, policy, OffsetFn.mean())
        monkeypatch.setattr("rarl.mdp.np.linalg.solve", lambda a, b: solve(a, b) + 1e-3)
        with pytest.raises(ConvergenceError, match="^gain/bias solve left a large residual") as failure:
            gain_and_bias(m, policy, OffsetFn.mean())
        assert failure.value.residual == pytest.approx(1e-3, rel=1e-6)

    def test_stationary_normalization_on_slowly_switching_chain(self):
        a, b = 1e-6, 5e-6
        m = make_mdp([[[1.0 - a, a]], [[b, 1.0 - b]]], [[1.0], [-2.0]])
        gb = gain_and_bias(m, Policy.deterministic([0, 0], 1), normalization=None)
        assert gb.gain == pytest.approx(5 / 6 - 2 / 6, abs=1e-9)
        # v0 - v1 = (r0 - r1) / (a + b), and mu . v = 0 up to rounding at that scale
        assert gb.bias[0] - gb.bias[1] == pytest.approx(3.0 / (a + b), rel=1e-9)
        assert abs(float(stationary_distribution(m.kernel[:, 0]) @ gb.bias)) <= 1e-10 * np.abs(gb.bias).max()


class TestGainVector:
    @staticmethod
    def exact_gain(p, r):
        """Independent reference: the multichain evaluation equations (I - P) g = 0 and
        g + (I - P) h = r, where g is unique, solved by the SVD pseudo-inverse of the 2S x 2S
        system in 50-digit arithmetic. Rows are renormalised at that precision first, so the
        reference chain is stochastic to 50 digits."""
        import mpmath

        n = len(p)
        with mpmath.workdps(50):
            rows = [[mpmath.mpf(float(x)) for x in row] for row in p]
            rows = [[x / mpmath.fsum(row) for x in row] for row in rows]
            a = mpmath.zeros(2 * n, 2 * n)
            b = mpmath.zeros(2 * n, 1)
            for i in range(n):
                for j in range(n):
                    a[i, j] = a[n + i, n + j] = int(i == j) - rows[i][j]
                a[n + i, i] = 1
                b[n + i] = mpmath.mpf(float(r[i]))
            u, s, v = mpmath.svd_r(a)
            coef = u.T * b
            keep = [k for k in range(2 * n) if s[k] > max(s) * mpmath.mpf(10) ** -30]
            return np.array([float(mpmath.fsum(v[k, i] * coef[k] / s[k] for k in keep)) for i in range(n)])

    def test_matches_50_digit_reference(self):
        # single states, periodic classes, transient states feeding several classes, thinned chains;
        # the seed's 40 chains include four on which repeated squaring of (I + P) / 2 ends in NaN or 0
        rng = np.random.default_rng(26)
        shapes = set()
        for trial in range(40):
            p = random_chain(rng, trial, max_states=6)
            r = rng.normal(0.0, 2.0, size=len(p))
            g = gain_vector(p, r)
            assert np.abs(g - self.exact_gain(p, r)).max() <= 1e-9 * (1.0 + np.abs(r).max()), (p, r)
            shapes.add((len(p) == 1, is_unichain(p)))
        assert shapes == {(True, True), (False, True), (False, False)}

    def test_slowly_mixing_unichain(self):
        p = np.array([[0.9963, 0, 0.0037, 0], [0, 0, 0.0018, 0.9982], [0, 0.3810, 0.6179, 0.0011], [0, 1, 0, 0]])
        p /= p.sum(axis=1, keepdims=True)
        r = np.array([1.0, -0.5, 2.0, 0.3])
        g = gain_vector(p, r)
        np.testing.assert_allclose(g, self.exact_gain(p, r), rtol=0, atol=1e-12)
        np.testing.assert_allclose(g, float(stationary_distribution(p) @ r), rtol=0, atol=1e-12)
        assert g[0] == pytest.approx(-0.0954, abs=1e-4)


class TestSpan:
    @pytest.mark.parametrize(
        "v,expected", [([1, 1, 1], 0.0), ([0, 2], 2.0), ([-1, 3, 0], 4.0)]
    )
    def test_examples(self, v, expected):
        assert span(np.array(v, dtype=float)) == expected


class TestOffsetFn:
    def test_axioms_on_random_vectors(self):
        rng = np.random.default_rng(6)
        for offset in (OffsetFn.mean(), OffsetFn.reference_state(3)):
            for _ in range(50):
                x = rng.normal(0, 5, size=7)
                c = float(rng.normal())
                e = np.ones(7)
                assert offset(e) == 1.0
                assert offset(x + c * e) == pytest.approx(offset(x) + c, abs=1e-12)
                assert offset(c * x) == pytest.approx(c * offset(x), abs=1e-12)

    def test_applies_to_flattened_tables(self):
        q = np.arange(6.0).reshape(2, 3)
        assert OffsetFn.mean()(q) == pytest.approx(2.5)
        assert OffsetFn.reference_state(4)(q) == 4.0

    @pytest.mark.parametrize("state", [-1, 1.5, "0", True, False])
    def test_rejects_a_state_that_is_not_an_index(self, state):
        # a negative state would index the gain column of the gain/bias system, and a bool would
        # index a whole row of each iterate
        with pytest.raises(ValueError, match="offset state must be None or an integer >= 0"):
            OffsetFn(state)
        assert OffsetFn(np.int64(2)).state == 2

    def test_a_state_past_the_last_never_pins_the_gain(self):
        m = random_unichain_mdp(np.random.default_rng(7), 4, 2)
        with pytest.raises(IndexError, match="offset state 4 is out of range for 4 entries"):
            gain_and_bias(m, Policy.uniform(4, 2), OffsetFn(4))


class TestRobustBellmanResidual:
    def test_three_state_swap_instance_certificate(self):
        ex = example_a(1.0, 2.0, 4.0)  # r3 > r2: only the first kernel's bias solves
        bias_1 = np.array([-2.5, -0.5, 0.5])
        bias_2 = np.array([-1.5, -0.5, 0.5])
        res_1 = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, bias_1)
        res_2 = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, bias_2)
        assert np.abs(res_1).max() < 1e-10
        assert abs(res_2[0]) > 0.1
        assert np.abs(res_2[1:]).max() < 1e-10

    def test_translation_invariance(self):
        ex = example_a(1.0, 2.0, 4.0)
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.normal(0, 2, 3)
            c = float(rng.normal(0, 10))
            r0 = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, v)
            rc = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, v + c)
            assert np.abs(r0 - rc).max() <= 1e-12

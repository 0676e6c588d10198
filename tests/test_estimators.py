"""Tests for the sampled support estimator and the nominal-kernel sampler."""

import numpy as np
import pytest

from rarl import estimators
from rarl.estimators import EstimateStream, KernelSampler, MlmcConfig, default_psi, sigma_hat_for_pairs
from rarl.environments import garnet, inventory
from rarl.learners import Constant, robust_rvi_q, robust_rvi_td
from rarl.mdp import OffsetFn, Policy, TabularMDP
from rarl.uncertainty import ChiSquare, Contamination, KLDivergence, TotalVariation, Wasserstein

P3 = np.array([0.2, 0.3, 0.5])
V3 = np.array([0.0, 1.0, 2.0])


def make_source(kernel):
    """The sampler of an MDP with this (S, A, S) kernel and zero rewards."""
    n_states, n_actions = kernel.shape[:2]
    return KernelSampler(TabularMDP(n_states, n_actions, kernel, np.zeros((n_states, n_actions))))


def row_sampler(p):
    p = np.asarray(p, dtype=float)
    n = len(p)
    kernel = np.zeros((n, 1, n))
    kernel[:, 0, :] = p
    return make_source(kernel)


def one_pair(n):
    """Index arrays for n draws from pair (0, 0)."""
    return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)


class TestContaminationEstimator:
    def test_full_radius_returns_min(self):
        spec = Contamination(0.999)
        v = np.array([3.0, -1.0, 2.0])
        got, _ = sigma_hat_for_pairs(row_sampler([1.0, 0.0, 0.0]), spec, [(0, 0)], v, None, np.random.default_rng(0))
        assert got[0] == pytest.approx(0.001 * 3.0 + 0.999 * (-1.0), abs=1e-12)

    def test_zero_radius_returns_sampled_value(self):
        got, _ = sigma_hat_for_pairs(
            row_sampler([0.0, 0.0, 1.0]), Contamination(0.0), [(0, 0)], V3, None, np.random.default_rng(0)
        )
        assert got[0] == 2.0

    def test_monte_carlo_mean_matches_closed_form(self):
        spec = Contamination(0.5)
        p = np.array([0.5, 0.5])
        v = np.array([0.0, 2.0])
        src = row_sampler(p)
        rng = np.random.default_rng(0)
        vals, _ = sigma_hat_for_pairs(src, spec, [(0, 0)] * 100_000, v, None, rng)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - spec.support(p, v)) <= 3 * se


class TestMlmcConfig:
    def test_psi_domain(self):
        with pytest.raises(ValueError):
            MlmcConfig(psi=0.0)
        with pytest.raises(ValueError):
            MlmcConfig(psi=1.0)

    def test_defaults_inside_proved_ranges(self):
        assert default_psi(ChiSquare(0.2)) == pytest.approx(0.2)
        assert default_psi(ChiSquare(0.2)) < 1 - np.sqrt(2) / 2
        for spec in (TotalVariation(0.2), KLDivergence(0.2), Wasserstein(0.2)):
            assert default_psi(spec) == pytest.approx(0.25)
            assert default_psi(spec) < 0.5

    def test_level_probability_arithmetic(self):
        # p_2 = 0.49 * 0.51^2
        psi = 0.49
        assert psi * (1 - psi) ** 2 == pytest.approx(0.127449, abs=1e-9)

    @pytest.mark.parametrize("max_level", [61, 62, 63])
    def test_max_level_keeps_costs_in_int64(self, max_level):
        # a level-61 estimate costs 2^62 samples; at 62 the cost 2^63 wrapped to -2^63, and from 63
        # on the multinomial count 2^N - 1 wrapped negative
        if max_level > 61:
            with pytest.raises(ValueError, match=r"max_level must lie in \[0, 61\]"):
                MlmcConfig(psi=0.01, max_level=max_level)
            return
        cfg = MlmcConfig(psi=0.01, max_level=max_level)
        rng = np.random.default_rng(5)
        _, costs = sigma_hat_for_pairs(row_sampler(P3), TotalVariation(0.2), [(0, 0)] * 20, V3, cfg, rng)
        assert costs.min() >= 2 and costs.max() == 2**62

    def test_run_total_past_int64_raises_instead_of_wrapping(self):
        # 20 estimates, about half of them at level 61 (2^62 samples each), cost more than int64 holds
        cfg = MlmcConfig(psi=0.01, max_level=61)
        stream = EstimateStream(row_sampler(P3), TotalVariation(0.2), [(0, 0)] * 20, cfg, np.random.default_rng(5), 2)
        stream.next(V3)
        with pytest.raises(OverflowError, match="past int64"):
            stream.samples()
        one = EstimateStream(row_sampler(P3), TotalVariation(0.2), [(0, 0)], cfg, np.random.default_rng(5), 1)
        one.next(V3)
        assert one.samples().dtype == np.int64 and one.samples()[0] == one.costs[0, 0] > 0

    @pytest.mark.parametrize("psi, max_level", [(0.25, 6), (0.2, 8)])
    def test_expected_cost_formula(self, psi, max_level):
        # E[cost] = sum_{N < L} psi (1 - psi)^N 2^(N + 1) + (1 - psi)^L 2^(L + 1), as documented
        levels = np.arange(max_level + 1)
        probs = np.append(psi * (1 - psi) ** levels[:-1], (1 - psi) ** max_level)
        costs = 2.0 ** (levels + 1)
        mean = probs @ costs
        se = np.sqrt((probs @ costs**2 - mean**2) / 200_000)
        cfg, rng = MlmcConfig(psi, max_level), np.random.default_rng(6)
        stream = EstimateStream(row_sampler(P3), TotalVariation(0.2), [(0, 0)] * 200_000, cfg, rng, n_iters=1)
        stream.next(V3)
        assert abs(stream.costs.mean() - mean) <= 3 * se


class TestMlmcEstimate:
    def test_point_mass_row_zero_correction(self):
        # all draws land on one state: the four empirical rows coincide
        src = row_sampler([0.0, 1.0, 0.0])
        spec = TotalVariation(0.2)
        vals, costs = sigma_hat_for_pairs(src, spec, [(0, 0)] * 10, V3, MlmcConfig(0.25), np.random.default_rng(1))
        point = np.array([0.0, 1.0, 0.0])
        np.testing.assert_allclose(vals, spec.support(point, V3), rtol=0, atol=1e-12)
        levels = np.log2(costs).astype(np.int64) - 1
        np.testing.assert_array_equal(costs, 2 ** (levels + 1))
        assert levels.min() >= 0

    def test_contamination_uses_single_sample(self):
        # contamination is linear in the row: one draw per estimate, MLMC settings ignored
        src = row_sampler(P3)
        spec = Contamination(0.1)
        vals, costs = sigma_hat_for_pairs(src, spec, [(0, 0)] * 50, V3, MlmcConfig(0.25), np.random.default_rng(0))
        again, _ = sigma_hat_for_pairs(src, spec, [(0, 0)] * 50, V3, None, np.random.default_rng(0))
        np.testing.assert_array_equal(costs, 1)
        np.testing.assert_array_equal(vals, again)

    def test_level_cap_frequency(self):
        src = row_sampler(P3)
        cfg = MlmcConfig(psi=0.25, max_level=3)
        rng = np.random.default_rng(2)
        _, costs = sigma_hat_for_pairs(src, TotalVariation(0.2), [(0, 0)] * 40_000, V3, cfg, rng)
        levels = np.log2(costs).astype(np.int64) - 1
        assert levels.max() <= 3
        expected = (1 - 0.25) ** 3  # P(level at the cap) = P(geometric N >= 4)
        se = np.sqrt(expected * (1 - expected) / 40_000)
        assert abs((levels == 3).mean() - expected) <= 4 * se

    @pytest.mark.parametrize(
        "spec",
        [TotalVariation(0.2), ChiSquare(0.2), KLDivergence(0.2), Wasserstein(0.2)],
        ids=["tv", "chi2", "kl", "wasserstein"],
    )
    def test_unbiased_smoke(self, spec):
        # statistical smoke test at M = 30k; the acceptance suite runs 2e5
        src = row_sampler(P3)
        rng = np.random.default_rng(3)
        cfg = MlmcConfig(psi=default_psi(spec))
        vals, _ = sigma_hat_for_pairs(src, spec, [(0, 0)] * 30_000, V3, cfg, rng)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - spec.support(P3, V3)) <= 4 * se

    def test_batch_law_matches_scalar_path(self):
        # one estimate per seed, rebuilt draw for draw from the three child streams (levels,
        # first draws, counts) with the telescope formula and scalar support calls
        spec = TotalVariation(0.3)
        src = row_sampler(P3)
        cfg = MlmcConfig(0.25, max_level=4)
        s_idx, a_idx = one_pair(1)
        seen = set()
        for seed in range(40):
            levels_rng, firsts_rng, counts_rng = np.random.default_rng(seed).spawn(3)
            level = min(int(levels_rng.geometric(cfg.psi)) - 1, cfg.max_level)
            half = 2**level
            first = np.zeros(3)
            first[src.draw_one_each(s_idx, a_idx, firsts_rng)[0]] = 1.0
            odd_counts, even = src.draw_counts_each(s_idx, a_idx, np.array([half - 1, half]), counts_rng)
            odd = first + odd_counts
            sig_all = spec.support((odd + even) / (2 * half), V3)
            sig_halves = 0.5 * (spec.support(even / half, V3) + spec.support(odd / half, V3))
            expected = spec.support(first, V3) + (sig_all - sig_halves) / (cfg.psi * (1 - cfg.psi) ** level)
            vals, costs = sigma_hat_for_pairs(src, spec, [(0, 0)], V3, cfg, np.random.default_rng(seed))
            assert costs[0] == 2 ** (level + 1)
            assert vals[0] == pytest.approx(expected, abs=1e-12)
            seen.add(level)
        assert len(seen) >= 3

    def test_coupling_even_odd_exchangeable(self):
        # means of sigma(even) and sigma(odd) agree over repetitions
        spec = TotalVariation(0.2)
        src = row_sampler(P3)
        rng = np.random.default_rng(4)
        reps, half = 20_000, 4
        s_idx, a_idx = one_pair(reps)
        odd = np.zeros((reps, 3))
        odd[np.arange(reps), src.draw_one_each(s_idx, a_idx, rng)] = 1.0
        odd += src.draw_counts_each(s_idx, a_idx, half - 1, rng)
        even = src.draw_counts_each(s_idx, a_idx, half, rng).astype(float)
        even_vals = spec.support_batch(even / half, V3)
        odd_vals = spec.support_batch(odd / half, V3)
        gap = abs(even_vals.mean() - odd_vals.mean())
        se = np.sqrt(even_vals.var(ddof=1) / reps + odd_vals.var(ddof=1) / reps)
        assert gap <= 3 * se

    def test_variance_proxy_bounded_in_value_scale(self):
        # Var(sigma_hat) / (1 + ||V||^2) stays within a 10x band over ||V|| sweeps
        spec = TotalVariation(0.2)
        src = row_sampler(P3)
        rng = np.random.default_rng(5)
        buckets = []
        for scale in (1.0, 10.0, 100.0):
            vals, _ = sigma_hat_for_pairs(src, spec, [(0, 0)] * 30_000, scale * V3 / 2.0, MlmcConfig(0.25), rng)
            buckets.append(vals.var(ddof=1) / (1.0 + (scale / 2.0 * V3.max()) ** 2))
        assert max(buckets) <= 10 * min(buckets)


class TestOperatorEstimators:
    """The sampled TD and Q operators, as the learners assemble them from sigma_hat_for_pairs."""

    def test_zero_probability_actions_draw_nothing(self):
        m = garnet(3, 2, seed=11)
        policy = Policy.deterministic([0, 0, 0], 2)
        trace = robust_rvi_td(
            KernelSampler.from_mdp(m), m, policy, Contamination(0.2), OffsetFn.mean(), Constant(0.01), 2, None,
            np.random.default_rng(6),
        )
        # one sample per state and iteration, none for the unused action
        np.testing.assert_array_equal(trace.costs, [3, 6])

    def test_delta_zero_reduces_to_td_target(self):
        m = garnet(4, 2, seed=12)
        src = KernelSampler.from_mdp(m)
        policy = Policy.deterministic([1, 0, 1, 0], 2)
        v = np.random.default_rng(13).normal(0, 1, 4)
        pairs = [(s, int(policy.actions()[s])) for s in range(4)]
        sigma, _ = sigma_hat_for_pairs(src, Contamination(0.0), pairs, v, None, np.random.default_rng(14))
        firsts_rng = np.random.default_rng(14).spawn(3)[1]  # the first-draw stream
        nxt = src.draw_one_each(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]), firsts_rng)
        np.testing.assert_array_equal(sigma, v[nxt])

    def test_estimate_T_unbiased(self):
        # T_hat v(s) = sum_a pi(a|s) (r(s,a) + sigma_hat(s,a)) over every pair of a garnet
        m = garnet(3, 2, seed=15)
        src = KernelSampler.from_mdp(m)
        policy = Policy(np.array([[0.5, 0.5], [0.2, 0.8], [1.0, 0.0]]))
        v = np.array([0.5, -1.5, 1.0])
        pairs = [(s, a) for s in range(3) for a in range(2)]
        reps = 20_000
        rng = np.random.default_rng(16)
        for spec in (Contamination(0.3), TotalVariation(0.3), ChiSquare(0.3)):
            sigma, _ = sigma_hat_for_pairs(src, spec, pairs * reps, v, None, rng)
            t_hat = np.einsum("sa,ksa->ks", policy.probs, m.reward + sigma.reshape(reps, 3, 2))
            exact = np.einsum(
                "sa,sa->s", policy.probs, m.reward + spec.support_batch(m.kernel.reshape(6, 3), v).reshape(3, 2)
            )
            se = t_hat.std(axis=0, ddof=1) / np.sqrt(reps)
            assert np.all(np.abs(t_hat.mean(axis=0) - exact) <= 4 * se + 1e-9), type(spec).__name__

    def test_constant_q_zero_variance(self):
        m = garnet(3, 2, seed=17)
        src = KernelSampler.from_mdp(m)
        q = np.full((3, 2), 4.0)
        rng = np.random.default_rng(18)
        spec = TotalVariation(0.3)
        sigma, _ = sigma_hat_for_pairs(src, spec, [(1, 0)] * 20, q.max(axis=1), MlmcConfig(0.25), rng)
        vals = m.reward[1, 0] + sigma
        assert np.ptp(vals) == pytest.approx(0.0, abs=1e-12)
        assert vals[0] == pytest.approx(m.reward[1, 0] + 4.0, abs=1e-12)

    def test_single_action_H_equals_T(self):
        # with one action the Q update draws the same pairs as the TD update
        m = garnet(3, 1, seed=19)
        src = KernelSampler.from_mdp(m)
        v = np.array([1.0, 0.0, -1.0])
        spec = TotalVariation(0.2)
        cfg = MlmcConfig(0.25)
        args = (spec, OffsetFn.mean(), Constant(0.5), 1, cfg)
        td = robust_rvi_td(src, m, Policy.deterministic([0, 0, 0], 1), *args, np.random.default_rng(20), v0=v)
        q = robust_rvi_q(src, m, *args, np.random.default_rng(20), q0=v[:, None])
        np.testing.assert_allclose(q.final[:, 0], td.final, rtol=0, atol=1e-12)

    def test_estimate_H_unbiased_three_state(self):
        m = garnet(3, 2, seed=21)
        src = KernelSampler.from_mdp(m)
        q = np.random.default_rng(22).normal(0, 1, (3, 2))
        spec = TotalVariation(0.2)
        exact = m.reward[0, 1] + spec.support(m.kernel[0, 1], q.max(axis=1))
        rng = np.random.default_rng(23)
        sigma, _ = sigma_hat_for_pairs(src, spec, [(0, 1)] * 30_000, q.max(axis=1), MlmcConfig(0.25), rng)
        vals = sigma + m.reward[0, 1]
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 4 * se


class TestEstimateStream:
    def test_row_buffer_at_most_one_mebibyte(self):
        # inventory: 153 pairs of 17 states, so a block holds 12 iterations of 4 * 153 rows
        m = inventory()
        pairs = np.argwhere(np.ones((m.n_states, m.n_actions), dtype=bool))
        spec, rng = TotalVariation(0.2), np.random.default_rng(0)
        stream = EstimateStream(KernelSampler.from_mdp(m), spec, pairs, None, rng, 100)
        values, costs = sigma_hat_for_pairs(stream, spec, pairs, m.reward.max(axis=1), None, rng)
        assert values.shape == costs.shape == (153,)
        assert stream.rows.shape == (12, 4 * 153, 17)
        assert stream.rows.nbytes <= 2**20


class TestSampleSource:
    def test_kernel_sampler_empirical_law(self):
        src = row_sampler(P3)
        rng = np.random.default_rng(24)
        draws = src.draw_one_each(*one_pair(200_000), rng)
        freq = np.bincount(draws, minlength=3) / len(draws)
        np.testing.assert_allclose(freq, P3, atol=0.005)
        counts = src.draw_counts_each(*one_pair(1), 200_000, rng)[0]
        np.testing.assert_allclose(counts / counts.sum(), P3, atol=0.005)

    def test_batched_draws_follow_each_pair(self):
        kernel = np.array([[[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]], [[0.0, 1.0, 0.0]]])
        src = make_source(kernel)
        rng = np.random.default_rng(25)
        s_idx, a_idx = np.array([2, 0, 1]), np.zeros(3, dtype=np.int64)
        np.testing.assert_array_equal(src.draw_one_each(s_idx, a_idx, rng), [1, 0, 2])
        counts = src.draw_counts_each(s_idx, a_idx, 8, rng)
        np.testing.assert_array_equal(counts, [[0, 8, 0], [8, 0, 0], [0, 0, 8]])
        assert src.draw_counts_each(s_idx, a_idx, 0, rng).shape == (3, 3)

    def test_deterministic_given_seed(self):
        src = row_sampler(P3)
        s_idx, a_idx = one_pair(100)
        a = src.draw_one_each(s_idx, a_idx, np.random.default_rng(42))
        b = src.draw_one_each(s_idx, a_idx, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)
        a = src.draw_counts_each(s_idx, a_idx, 5, np.random.default_rng(42))
        b = src.draw_counts_each(s_idx, a_idx, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "row", [[0.25, 0.25, 0.0], [0.6, 0.5, -0.1], [0.5, np.nan, 0.5], [0.5, 0.5, 1e-8]],
        ids=["short", "negative", "nan", "long"],
    )
    def test_kernel_rows_must_be_distributions(self, row):
        kernel = np.tile(P3, (3, 2, 1))
        kernel[2, 1] = row
        # a sampler is built from an MDP, and the MDP rejects the row
        with pytest.raises(ValueError, match=r"invalid MDP: .* at \(s=2,a=1"):
            make_source(kernel)
        kernel[2, 1] = [0.5, 0.5, 1e-10]  # off by less than ROW_SUM_TOL
        make_source(kernel)


def kernel_of(*rows):
    """An (S, 1, S) kernel whose rows cycle through ``rows``."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    return np.resize(rows, (n, n))[:, None, :]


def edge_rows(n, count):
    """Rows of n states whose CDF entries all lie on cell edges k / 256."""
    rng = np.random.default_rng(n)
    cuts = [np.sort(rng.choice(np.arange(1, 256), n - 1, replace=False)) / 256 for _ in range(count)]
    return [np.diff(np.concatenate([[0.0], c, [1.0]])) for c in cuts]


ADVERSARIAL = {
    "cell_edges": kernel_of(*edge_rows(9, 9)),
    "edge_and_zero": kernel_of([1 / 256, 0.0, 127 / 256, 0.0, 0.5], [0.5, 0.25, 0.0, 0.125, 0.125]),
    "zero_runs": kernel_of([0, 0.5, 0, 0, 0.5, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]),
    "sum_above_1": kernel_of([0.7, 0.3 + 1e-10, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3 + 1e-12, 0.0]),
    "sum_below_1": kernel_of(*[[0.1] * 10] * 2, [0.5, 0.5 - 1e-10] + [0.0] * 8),
    "one_state": np.ones((1, 3, 1)),
    "two_states": np.array([[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.0, 1.0]]]),
}


class Uniforms:
    """A stand-in generator whose ``random(n)`` returns the next n of the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        out, self.u = self.u[:n], self.u[n:]
        return out


class TestTableDraws:
    """A draw reads a guide table, or counts CDF entries where one lies in u's cell; either way it
    must equal plain inversion, min(#(cdf < u), S - 1), for the same u, bit for bit."""

    @staticmethod
    def inversion(kernel, s_idx, a_idx, u):
        idx = (np.cumsum(kernel, axis=2)[s_idx, a_idx] < u[:, None]).sum(axis=1)
        return np.minimum(idx, kernel.shape[0] - 1)

    @pytest.mark.parametrize("name", ADVERSARIAL)
    def test_table_draws_equal_inversion(self, name):
        kernel = ADVERSARIAL[name]
        src = make_source(kernel)
        edges = np.arange(257) / 256
        near_edges = [edges[:-1], np.nextafter(edges[1:], 0.0), np.nextafter(edges[:-1], 1.0)]
        random = np.random.default_rng(1).random(2_000)
        for s, a in np.ndindex(kernel.shape[:2]):
            cdf = np.cumsum(kernel[s, a])
            cdf = cdf[cdf < 1.0]  # u on each CDF entry and on its neighbours
            u = np.concatenate(near_edges + [cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), random])
            u = u[u < 1.0]  # the range of Generator.random
            s_idx, a_idx = np.full(len(u), s), np.full(len(u), a)
            got = src.draw_one_each(s_idx, a_idx, Uniforms(u))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, self.inversion(kernel, s_idx, a_idx, u))

    def test_mixed_pairs_in_one_call(self):
        m = inventory()
        src = KernelSampler.from_mdp(m)
        rng = np.random.default_rng(2)
        s_idx, a_idx = rng.integers(0, 17, 50_000), rng.integers(0, 9, 50_000)
        u = np.random.default_rng(3).random(50_000)
        got = src.draw_one_each(s_idx, a_idx, np.random.default_rng(3))
        np.testing.assert_array_equal(got, self.inversion(m.kernel, s_idx, a_idx, u))


class TestSampleCounts:
    @pytest.mark.parametrize("spec", [Contamination(0.2), TotalVariation(0.2)], ids=["linear", "mlmc"])
    def test_samples_track_costs_across_blocks_and_drops(self, spec, monkeypatch):
        # three iterations per block with three seeds, four once a seed is dropped at iteration 4
        n_pairs, n_states = 2, 3
        monkeypatch.setattr(estimators, "_BLOCK_FLOATS", 3 * 3 * 4 * n_pairs * n_states)
        rngs = [np.random.default_rng(i) for i in range(3)]
        stream = EstimateStream(row_sampler(P3), spec, [(0, 0), (1, 0)], MlmcConfig(0.25), rngs, 9)
        totals = np.zeros(3, dtype=np.int64)
        blocks = 0
        for k in range(9):
            if k == 4:
                keep = np.array([True, False, True])
                stream.drop(keep)
                totals = totals[keep]
            blocks += stream._at == len(stream.costs)
            _, costs = stream.next(np.tile(V3, (len(totals), 1)))
            totals += costs.reshape(len(totals), n_pairs).sum(axis=1)
            got = stream.samples()
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, totals)
        assert blocks == 3  # iterations 0-2, 3-5 (seed dropped at 4) and 6-8

"""Tests for the ambiguity-set support functions, duals, and the grid oracle."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import brentq, linprog, minimize_scalar
from scipy.special import logsumexp

from rarl import uncertainty
from rarl.environments import example_a, garnet, inventory
from rarl.estimators import EstimateStream, KernelSampler
from rarl.planners import robust_rvi_control
from rarl.uncertainty import (
    ChiSquare,
    Contamination,
    KLDivergence,
    TotalVariation,
    Wasserstein,
    line_metric,
    support_oracle_grid,
    uncertainty_from_json,
)

DELTAS = (0.1, 0.3, 0.6)


def families(delta):
    return [
        Contamination(min(delta, 0.99)),
        TotalVariation(delta),
        ChiSquare(delta),
        KLDivergence(delta),
        Wasserstein(delta),
    ]


def random_instance(rng, n=4):
    return rng.dirichlet(np.ones(n)), rng.normal(0.0, 1.5, size=n)


def tv_threshold_scan(p, v, delta):
    """Independent TV support: the span-penalized dual max_t E_p min(v, t) - delta (t - min v), scanned
    over t in v."""
    t = np.unique(v)
    return float((np.minimum(v[None, :], t[:, None]) @ p - delta * (t - v.min())).max())


class TestClosedFormExamples:
    def test_contamination_half(self):
        assert Contamination(0.5).support([0.5, 0.5], [0.0, 2.0]) == pytest.approx(0.5, abs=1e-12)

    def test_constant_value_vector(self):
        for spec in families(0.3):
            assert spec.support([0.3, 0.7], [2.0, 2.0]) == pytest.approx(2.0, abs=1e-9)

    def test_tv_two_state(self):
        assert TotalVariation(0.2).support([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.3, abs=1e-12)

    def test_chi_square_two_state(self):
        # q = (0.5 + t, 0.5 - t) with 4 t^2 <= delta; optimum t = sqrt(delta)/2
        expected = 0.5 - np.sqrt(0.5) / 2.0
        assert ChiSquare(0.5).support([0.5, 0.5], [0.0, 1.0]) == pytest.approx(expected, abs=1e-9)

    def test_kl_large_radius_saturates_to_support_min(self):
        assert KLDivergence(50.0).support([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-6)

    def test_kl_zero_mass_states_excluded(self):
        # mass cannot move onto states outside the nominal support
        assert KLDivergence(100.0).support([0.0, 1.0], [-5.0, 1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_wasserstein_two_state(self):
        assert Wasserstein(0.2).support([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.3, abs=1e-9)

    def test_zero_radius_every_family(self):
        rng = np.random.default_rng(0)
        p, v = random_instance(rng)
        for spec in (Contamination(0.0), TotalVariation(0.0), ChiSquare(0.0), KLDivergence(0.0), Wasserstein(0.0)):
            assert spec.support(p, v) == pytest.approx(float(p @ v), abs=1e-12)

    def test_invalid_simplex_rejected(self):
        with pytest.raises(ValueError):
            TotalVariation(0.1).support([0.6, 0.6], [0.0, 1.0])

    def test_invalid_radii_rejected(self):
        with pytest.raises(ValueError):
            Contamination(1.0)
        with pytest.raises(ValueError):
            TotalVariation(-0.1)
        with pytest.raises(ValueError):
            Wasserstein(0.1, order=0.5)
        for cls in (Contamination, TotalVariation, ChiSquare, KLDivergence, Wasserstein):
            for delta in (np.nan, np.inf):
                with pytest.raises(ValueError, match="radius"):
                    cls(delta)
        for order in (np.nan, np.inf):
            with pytest.raises(ValueError, match="order"):
                Wasserstein(0.1, order=order)

    def test_wasserstein_takes_no_cache_argument(self):
        # a cache passed to the constructor would stand in for the metric and skip its checks
        assert [f.name for f in dataclasses.fields(Wasserstein) if f.init] == ["delta", "order", "metric"]
        with pytest.raises(TypeError):
            Wasserstein(0.3, 1.0, None, {3: np.zeros((3, 3))})
        assert Wasserstein(0.3, 1.0, None).support([0.2, 0.3, 0.5], [0.0, 1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)


class TestAxioms:
    """Shared properties on >= 100 random instances per family."""

    def test_bounds_translation_homogeneity_lipschitz(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            p, v = random_instance(rng)
            c = float(rng.normal(0, 3))
            pos = float(abs(rng.normal(0, 2)))
            v2 = rng.normal(0.0, 1.5, size=4)
            for spec in families(DELTAS[trial % 3]):
                base = spec.support(p, v)
                assert v.min() - 1e-9 <= base <= p @ v + 1e-9
                assert spec.support(p, v + c) == pytest.approx(base + c, abs=1e-9)
                assert spec.support(p, pos * v) == pytest.approx(pos * base, abs=1e-9 * max(1, pos))
                assert abs(spec.support(p, v2) - base) <= np.abs(v2 - v).max() + 1e-9

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            p, v = random_instance(rng)
            for small, large in zip(families(0.1), families(0.4)):
                assert large.support(p, v) <= small.support(p, v) + 1e-9

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = rng.dirichlet(np.ones(5), size=40)
        v = rng.normal(0, 2, size=5)
        for spec in families(0.3):
            batch = spec.support_batch(rows, v)
            for i in range(0, 40, 7):
                assert batch[i] == pytest.approx(spec.support(rows[i], v), abs=1e-12)
                if spec.kind in ("chi2", "kl"):  # these two give a row the same bits alone as in a batch
                    assert batch[i] == spec.support(rows[i], v)


class TestDualCertificates:
    def test_tv_primal_equals_dual(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, v = random_instance(rng, n=5)
            spec = TotalVariation(float(rng.uniform(0.05, 0.8)))
            assert spec.support(p, v) == pytest.approx(tv_threshold_scan(p, v, spec.delta), abs=1e-9)

    def test_dual_variables_within_brackets(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            p, v = random_instance(rng)
            vmax = np.abs(v).max()
            mu = np.maximum(v - ChiSquare(0.3).solve(p, v)[1][0], 0.0)
            assert np.all(mu >= -1e-12) and np.all(mu <= v + vmax + 1e-9)
            assert KLDivergence(0.3).solve(p, v)[1][0] >= 0.0
            assert 0.0 <= Wasserstein(0.3).solve(p, v)[1][0] <= 2.0 * vmax / 0.3 + 1e-6

    def test_optimal_value_bounds_from_duals(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p, v = random_instance(rng, n=5)
            vmax = np.abs(v).max()
            delta = float(rng.uniform(0.05, 0.9))
            assert abs(TotalVariation(delta).support(p, v)) <= 3 * (1 + 2 * delta) * vmax + 1e-9
            assert abs(ChiSquare(delta).support(p, v)) <= 3 * (1 + np.sqrt(2 * delta)) * vmax + 1e-9
            assert abs(Wasserstein(delta).support(p, v)) <= vmax + 1e-9


class TestWorstRows:
    def test_contamination_definitional(self):
        p = np.array([0.25, 0.75])
        v = np.array([3.0, -1.0])
        q = Contamination(0.4).worst_row(p, v)
        np.testing.assert_allclose(q, 0.6 * p + 0.4 * np.array([0.0, 1.0]), atol=1e-12)

    def test_tv_greedy_transfer(self):
        q = TotalVariation(0.2).worst_row(np.array([0.5, 0.5]), np.array([0.0, 1.0]))
        np.testing.assert_allclose(q, [0.7, 0.3], atol=1e-12)

    def test_zero_radius_returns_nominal(self):
        rng = np.random.default_rng(7)
        p, v = random_instance(rng)
        for spec in (Contamination(0.0), TotalVariation(0.0), ChiSquare(0.0), KLDivergence(0.0), Wasserstein(0.0)):
            np.testing.assert_allclose(spec.worst_row(p, v), p, atol=1e-12)

    def test_feasible_and_attains_value(self):
        rng = np.random.default_rng(8)
        for trial in range(40):
            p, v = random_instance(rng, n=5)
            scale = max(1.0, np.abs(v).max())
            exact_tol = {
                "Contamination": 1e-8,
                "TotalVariation": 1e-8,
                "ChiSquare": 1e-12 * scale,
                "KLDivergence": 1e-9 * scale,
                "Wasserstein": 1e-9 * scale,
            }
            delta = DELTAS[trial % 3]
            ball_tol = {  # how far past the radius a worst row may lie
                "Contamination": 1e-9,
                "TotalVariation": 1e-9,
                "ChiSquare": 1e-8,
                "KLDivergence": 1e-8,
                "Wasserstein": 1e-9 * delta,
            }
            for spec in families(delta):
                name = type(spec).__name__
                q = spec.worst_row(p, v)
                assert q.min() >= -1e-12 and q.sum() == pytest.approx(1.0, abs=1e-8)
                value = float(q @ v)
                target = spec.support(p, v)
                tol = exact_tol[name]  # attains the support value
                assert value >= target - 1e-8
                assert value - target <= tol
                assert spec.distance(p, q[None, :])[0] <= spec.delta + ball_tol[name]


class TestSupportAndWorst:
    """``support_and_worst`` is ``support_batch`` and ``worst_row`` from one solve, bit for bit."""

    @staticmethod
    def assert_bitwise(spec, rows, v):
        values, q = spec.support_and_worst(rows, v)
        for got, want in ((values, spec.support_batch(rows, v)), (q, spec.worst_row(rows, v))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "spec",
        [
            Contamination(0.0),
            Contamination(0.4),
            TotalVariation(0.0),
            TotalVariation(0.2),
            TotalVariation(0.9),
            ChiSquare(0.0),
            ChiSquare(0.3),
            ChiSquare(3.0),
            KLDivergence(0.0),
            KLDivergence(0.3),
            KLDivergence(3.0),
            Wasserstein(0.0),
            Wasserstein(0.3),
            Wasserstein(3.0),
            Wasserstein(0.7, order=2.0),
        ],
        ids=lambda spec: f"{spec.kind}-{spec.delta}-l{getattr(spec, 'order', 1)}",
    )
    def test_families(self, spec):
        rng = np.random.default_rng(21)
        for trial in range(24):
            n = int(rng.integers(2, 8))
            rows = rng.dirichlet(np.full(n, 0.5), size=int(rng.integers(1, 12)))
            rows[rng.random(rows.shape) < 0.3] = 0.0  # sparse rows, as in garnet kernels and MLMC samples
            rows[:, rng.integers(n)] += 1e-3
            rows /= rows.sum(axis=1, keepdims=True)
            v = rng.normal(0.0, 10.0 ** (-3 + trial % 7), size=n)  # scales 1e-3 .. 1e3
            if trial % 5 == 0:
                v[-1] = v[0]  # a tied minimum or maximum
            self.assert_bitwise(spec, rows, v)
            self.assert_bitwise(spec, rows[0], v)  # one 1-D row
            self.assert_bitwise(spec, rows, np.full(n, v[0]))  # constant v

    def test_garnet_rows(self):
        m = garnet(5, 3, seed=254)
        rows = m.kernel.reshape(-1, 5)
        v = np.linspace(-2.0, 3.0, 5)
        for delta in (0.0, 0.3, 3.0):
            for spec in families(delta) + [Wasserstein(delta, order=2.0)]:
                self.assert_bitwise(spec, rows, v)

    def test_finite_kernel_set(self):
        # the finite set has no row-level support_and_worst: its one solve over its stack of each
        # pair's rows gives support_batch's bits, and worst rows from the stack that attain them
        ex = example_a(1.0, 2.0, 4.0)
        rows, _ = ex.uset._pairs(ex.mdp)
        rng = np.random.default_rng(22)
        for v in [np.zeros(3), np.array([-2.5, -0.5, 0.5])] + [rng.normal(0.0, 1e3, 3) for _ in range(10)]:
            values, best = ex.uset._solve(rows, v)
            worst = ex.uset._worst(rows, v, best)
            assert values.tobytes() == ex.uset.support_batch(rows, v).tobytes()
            assert all(any(np.array_equal(q, r) for r in pair) for q, pair in zip(worst, rows))
            np.testing.assert_allclose(worst @ v, values, rtol=1e-15, atol=0)


def _mlmc_rows(rng, n, count):
    """Dirichlet rows and count rows k / 2^N as ``EstimateStream`` builds them: even and odd halves
    of 2^N draws, each over 2^N, and their pool over 2^(N + 1)."""
    half = 2 ** rng.integers(0, 7, size=count)
    probs = rng.dirichlet(np.full(n, 0.5), size=count)
    even, odd = (np.array([rng.multinomial(h, q) for h, q in zip(half, probs)]) for _ in range(2))
    half = half[:, None]
    kinds = [rng.dirichlet(np.ones(n), size=count), even / half, odd / half, (odd + even) / (2 * half)]
    return np.choose(rng.integers(0, 4, size=count)[:, None], kinds)


class TestRunningSums:
    """TV and chi-square take the running sums of a tall batch state-major (``_scan``) and of a short
    one by ``np.cumsum`` (``uncertainty._state_major``); both give the same bits."""

    SIZES = [(b, n) for n in (2, 5, 17, 60) for b in (1, 2, 8 * n - 1, 8 * n, 8 * n + 1, 612)]

    @staticmethod
    def values(rng, n):
        """v at scales 1e-3 .. 1e3, with a tied minimum and maximum, rounded, and in tied pairs."""
        scale = 10.0 ** rng.uniform(-3, 3)
        v = scale * rng.normal(size=n)
        v[-1], v[0] = v.min(), v.max()
        return [v, np.round(v, 1), scale * np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n]]

    @staticmethod
    def solve(spec, rows, v, monkeypatch, state_major):
        with monkeypatch.context() as patch:
            patch.setattr(uncertainty, "_state_major", lambda shape: state_major)
            return spec._solve(rows, v)

    @staticmethod
    def assert_same(got, want):
        if isinstance(want, tuple):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                TestRunningSums.assert_same(g, w)
        else:
            assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_rule(self, monkeypatch):
        assert uncertainty._state_major((612, 17)) and uncertainty._state_major((60, 5))
        assert not uncertainty._state_major((25, 17)) and not uncertainty._state_major((39, 5))
        scans = []
        scan = uncertainty._scan
        monkeypatch.setattr(uncertainty, "_scan", lambda t: scans.append(t.shape) or scan(t))
        rng = np.random.default_rng(3)
        v = rng.normal(size=17)
        for spec, count in ((TotalVariation(0.2), 1), (ChiSquare(0.3), 3)):
            spec._solve(_mlmc_rows(rng, 17, 25), v)
            assert scans == []
            spec._solve(_mlmc_rows(rng, 17, 612), v)
            assert len(scans) == count and all(shape[-1] == 612 for shape in scans)
            scans.clear()

    @pytest.mark.parametrize("b, n", SIZES)
    def test_tv_matches_cumsum_reference(self, b, n, monkeypatch):
        rng = np.random.default_rng(b * 100 + n)
        rows = _mlmc_rows(rng, n, b)
        for delta in (0.05, 0.2, 0.9):
            spec = TotalVariation(delta)
            for v in self.values(rng, n):
                order = np.argsort(-v, kind="stable")[: np.count_nonzero(v > v.min())]
                given = np.minimum(np.cumsum(rows[:, order], axis=1), delta)
                gap = v[order] - v.min()
                gap[:-1] -= gap[1:]
                reference = (rows @ v - given @ gap, (order, given))
                self.assert_same(spec._solve(rows, v), reference)
                for state_major in (False, True):
                    self.assert_same(self.solve(spec, rows, v, monkeypatch, state_major), reference)

    @pytest.mark.parametrize("b, n", SIZES)
    def test_chi2_matches_cumsum_reference(self, b, n, monkeypatch):
        rng = np.random.default_rng(b * 100 + n)
        rows = _mlmc_rows(rng, n, b)
        for delta in (0.01, 0.3, 3.0):
            spec = ChiSquare(delta)
            for v in self.values(rng, n):
                reference = self.solve(spec, rows, v, monkeypatch, False)
                self.assert_same(spec._solve(rows, v), reference)
                self.assert_same(self.solve(spec, rows, v, monkeypatch, True), reference)

    @pytest.mark.parametrize("n", [5, 17])
    def test_chi2_row_keeps_its_bits_alone(self, n):
        rng = np.random.default_rng(n)
        spec = ChiSquare(0.3)
        tall = _mlmc_rows(rng, n, 612)
        short = tall[:4]
        assert uncertainty._state_major(tall.shape) and not uncertainty._state_major(short.shape)
        for v in self.values(rng, n):
            in_tall, in_short = spec.solve(tall, v), spec.solve(short, v)
            for i in range(len(short)):
                alone = spec.solve(tall[i], v)
                for batch in (in_tall, in_short):
                    assert (alone[0][0], alone[1][0]) == (batch[0][i], batch[1][i])


class TestRowCheck:
    """Every entry point that checks its rows holds them to the rule kernels and policies follow: it
    rejects a non-finite row (NaN compares False both ways, so only a test that NaN fails catches
    it), a sum off by more than 1e-9 and a negative entry, however small."""

    CALLS = {
        "support": lambda spec, p, v: spec.support(p, v),
        "worst_row": lambda spec, p, v: spec.worst_row(p, v),
        "support_and_worst": lambda spec, p, v: spec.support_and_worst(np.stack([np.full(3, 1 / 3), p]), v),
        "oracle": lambda spec, p, v: support_oracle_grid(spec, p, v, 20),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("spec", families(0.3), ids=lambda spec: spec.kind)
    def test_rejects_non_finite_rows(self, spec, call):
        v = np.array([0.0, 1.0, 2.0])
        rows = [[0.5, np.nan, 0.5], [np.nan] * 3, [np.inf, 0.0, 0.0], [np.inf, -np.inf, 1.0]]
        for p in (*rows, [0.5, 0.5 + 5e-9, 0.0], [0.5 + 1e-10, 0.5, -1e-10]):
            with pytest.raises(ValueError, match="not a probability row"):
                self.CALLS[call](spec, np.array(p), v)

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("spec", families(0.3), ids=lambda spec: spec.kind)
    def test_rejects_a_value_vector_that_does_not_fit(self, spec, call):
        p = np.array([0.2, 0.3, 0.5])
        for v, message in (
            ([0.0, 1.0], "v must be a 1-D array of the rows' length 3, got shape (2,)"),
            ([0.0, 1.0, 2.0, 3.0], "v must be a 1-D array of the rows' length 3, got shape (4,)"),
            ([[0.0, 1.0, 2.0]], "v must be a 1-D array of the rows' length 3, got shape (1, 3)"),
            ([0.0, np.nan, 1.0], "v must be finite, got nan at s=1"),
            ([0.0, 1.0, -np.inf], "v must be finite, got -inf at s=2"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                self.CALLS[call](spec, p, np.array(v))

    @pytest.mark.parametrize("spec", families(0.3), ids=lambda spec: spec.kind)
    def test_zero_size_input_meets_the_rule(self, spec):
        # the rule's reductions start from 0: an empty batch passes, and a row with no entries sums to 0
        assert uncertainty._row_violation(np.zeros((0, 3)), ("row", "s")) is None
        assert uncertainty._row_violation(np.zeros(0), ("d",)) == "row sum 0"
        v = np.array([0.0, 1.0, 2.0])
        assert spec.worst_row(np.zeros((0, 3)), v).shape == (0, 3)
        values, worst = spec.support_and_worst(np.zeros((0, 3)), v)
        assert values.shape == (0,) and worst.shape == (0, 3)
        with pytest.raises(ValueError, match=re.escape("not a probability row: row sum 0")):
            spec.support(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError, match=re.escape("not a probability row: row sum 0 at (row=0)")):
            spec.worst_row(np.zeros((2, 0)), np.zeros(0))

    @pytest.mark.parametrize("off, total", [(5e-9, "1.000000005"), (-5e-9, "0.999999995")])
    def test_a_rejected_sum_never_reads_as_1(self, off, total):
        with pytest.raises(ValueError, match=re.escape(f"not a probability row: row sum {total}")):
            TotalVariation(0.2).support(np.array([0.5, 0.5 + off]), np.array([0.0, 1.0]))


class TestGridOracle:
    def test_zero_radius_only_feasible_point(self):
        # any grid containing p itself: minimum is p.v
        p = np.array([0.25, 0.5, 0.25])
        v = np.array([1.0, -2.0, 0.5])
        for spec in (TotalVariation(0.0), ChiSquare(0.0), KLDivergence(0.0), Wasserstein(0.0)):
            assert support_oracle_grid(spec, p, v, 4) == pytest.approx(float(p @ v), abs=1e-12)

    def test_contamination_matches_closed_form_within_spacing(self):
        rng = np.random.default_rng(9)
        for resolution in (50, 100, 200):
            p = rng.dirichlet(np.ones(2))
            v = rng.normal(0, 1, size=2)
            spec = Contamination(0.4)
            gap = support_oracle_grid(spec, p, v, resolution) - spec.support(p, v)
            assert 0.0 <= gap <= 2 * np.abs(v).max() / resolution + 1e-12

    def test_converges_from_above(self):
        rng = np.random.default_rng(10)
        p, v = random_instance(rng)
        for spec in families(0.3):
            coarse = support_oracle_grid(spec, p, v, 25)
            fine = support_oracle_grid(spec, p, v, 100)
            exact = spec.support(p, v)
            assert coarse >= fine - 1e-9 >= exact - 1e-7

    def test_rejects_large_state_spaces(self):
        # 5 states at resolution 200 is a 70,058,751-point grid: refused from its count, before allocating
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="70058751 points"):
                support_oracle_grid(TotalVariation(0.1), np.ones(5) / 5, np.zeros(5), 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_grid_is_every_lattice_point_once(self):
        for n, resolution in ((1, 7), (2, 5), (3, 10), (5, 10)):
            grid = uncertainty._simplex_grid(n, resolution)
            assert grid.shape == (math.comb(resolution + n - 1, n - 1), n)
            counts = np.rint(grid * resolution)
            np.testing.assert_array_equal(counts.sum(axis=1), resolution)
            assert counts.min() >= 0
            # lexicographic order, hence no repeats
            assert all(tuple(a) < tuple(b) for a, b in zip(counts[:-1], counts[1:]))

    def test_general_metric_row_cap_checked_before_any_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: calls.append(args))
        spec = Wasserstein(0.5, metric=1.0 - np.eye(4))  # not the line metric: one LP per grid point
        # resolution 41 has 13,244 points, over the 12,341 of resolution 40
        with pytest.raises(ValueError, match="12341 rows"):
            support_oracle_grid(spec, np.ones(4) / 4, np.zeros(4), 41)
        assert calls == []

    def test_kl_keeps_points_with_zeros_inside_supp_p(self):
        # the worst row [0.5, 0.5, 0] has KL = log(1.25) = 0.223 <= 0.3: q_3 = 0 < p_3 adds nothing
        spec = KLDivergence(0.3)
        p, v = np.array([0.4, 0.4, 0.2]), np.array([0.0, 0.0, 1.0])
        assert spec.distance(p, np.array([[0.5, 0.5, 0.0]]))[0] == pytest.approx(np.log(1.25), abs=1e-15)
        assert spec.support(p, v) == pytest.approx(0.0, abs=1e-12)
        assert support_oracle_grid(spec, p, v, 10) == 0.0

    def test_five_state_garnet_rows(self):
        kernel = garnet(5, 3, seed=254).kernel.reshape(-1, 5)
        rng = np.random.default_rng(254)
        for i, p in enumerate(kernel[:6]):
            v = rng.normal(0.0, 1.0, size=5)
            for spec in families(DELTAS[i % 3])[1:]:
                exact = spec.support(p, v)
                oracle = support_oracle_grid(spec, p, v, 40)
                assert oracle >= exact - 1e-9
                assert oracle - exact <= 0.1 * np.abs(v).max()

    def test_general_metric_wasserstein(self):
        metric = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 5.0], [1.0, 5.0, 0.0]])
        spec = Wasserstein(0.5, order=1.0, metric=metric)
        p = np.array([0.2, 0.5, 0.3])
        v = np.array([0.0, 1.0, -1.0])
        exact = spec.support(p, v)
        oracle = support_oracle_grid(spec, p, v, 30)
        assert oracle >= exact - 1e-7
        assert oracle - exact <= 0.2 * np.abs(v).max()


class TestJsonRoundTrip:
    def test_all_families(self):
        metric = line_metric(3)
        specs = [
            Contamination(0.25),
            TotalVariation(0.5),
            ChiSquare(0.7),
            KLDivergence(0.9),
            Wasserstein(0.4, order=2.0, metric=metric),
        ]
        for spec in specs:
            doc = spec.to_json_dict()
            back = uncertainty_from_json(doc)
            assert type(back) is type(spec)
            assert back.delta == spec.delta
        assert uncertainty_from_json({"kind": "wasserstein", "delta": 0.4, "l": 2.0}).order == 2.0
        with pytest.raises(ValueError):
            uncertainty_from_json({"kind": "nope", "delta": 0.1})

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"kind": "tv", "delta": "0.2", "l": 3, "typo": 1}, "['l', 'typo']"),
            ({"kind": "tv", "delta": "0.2"}, "uncertainty.delta"),
            ({"kind": "kl", "delta": True}, "uncertainty.delta"),
            ({"kind": "wasserstein", "delta": 0.2, "l": "2"}, "uncertainty.l"),
            ({"kind": "chi2"}, "uncertainty.delta"),
            ({"delta": 0.2}, "uncertainty.kind"),
        ],
    )
    def test_rejects_malformed_documents(self, doc, field):
        with pytest.raises(ValueError, match=re.escape(field)):
            uncertainty_from_json(doc)


def _chi2_reference(p, v, delta):
    """Independent chi-square support: scipy's bounded Brent on each segment of phi(t)."""

    def phi(t):
        w = np.minimum(v, t)
        mean = p @ w
        return mean - np.sqrt(delta * (p @ (w - mean) ** 2))

    knots = np.unique(v)
    best = max(phi(t) for t in knots)
    xatol = 1e-12 * (knots[-1] - knots[0])
    for lo, hi in zip(knots[:-1], knots[1:]):
        res = minimize_scalar(lambda t: -phi(t), bounds=(lo, hi), method="bounded", options={"xatol": xatol})
        best = max(best, -res.fun)
    return best


def _chi2_segments(rows, v, delta):
    """Per row and segment k of sorted v (delta > 0, v not constant): the cumulative moments m1, m2 and the
    tail mass of u = (v - min v) / span(v), and the segment's clipped stationary point."""
    order = np.argsort(v, kind="stable")
    knots = v[order]
    lo, width = knots[0], knots[-1] - knots[0]
    u = (knots - lo) / width
    p = rows[:, order]
    low = np.cumsum(p, axis=1)[:, :-1]
    m1 = np.cumsum(p * u, axis=1)[:, :-1]
    m2 = np.cumsum(p * u * u, axis=1)[:, :-1]
    tail = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]
    gap = delta * low - tail
    inside = (low > 0.0) & (gap > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = np.sqrt(np.maximum(low * m2 - m1 * m1, 0.0) / gap)
        stationary = lo + width * (m1 + spread) / low
    cand = np.clip(np.where(inside, stationary, knots[1:]), knots[:-1], knots[1:])
    return lo, width, u, p, m1, m2, tail, cand


def _chi2_segments_reference(rows, v, delta):
    """Reference chi-square solve by Iyengar's reduced dual: the two-pass score of every segment's clipped
    stationary point, one segment at a time over the whole batch, keeping each row's first best."""
    lo, width, u, p, _, _, _, cand = _chi2_segments(rows, v, delta)
    values = np.full(rows.shape[0], -np.inf)
    thresholds = np.empty(rows.shape[0])
    for k in range(cand.shape[1]):
        w = np.minimum(u, (cand[:, k : k + 1] - lo) / width)
        mean = np.einsum("bs,bs->b", p, w)
        dev = w - mean[:, None]
        phi = mean - np.sqrt(delta * np.einsum("bs,bs->b", p, dev * dev))
        better = phi > values
        values = np.where(better, phi, values)
        thresholds = np.where(better, cand[:, k], thresholds)
    return lo + width * values, thresholds


def _chi2_one_pass_thresholds(rows, v, delta):
    """The thresholds a ranking of the segments by one-pass moments alone, E[w^2] - E[w]^2, would pick."""
    lo, width, _, _, m1, m2, tail, cand = _chi2_segments(rows, v, delta)
    t = (cand - lo) / width
    mean = m1 + t * tail
    score = mean - np.sqrt(delta * np.maximum(m2 + t * t * tail - mean * mean, 0.0))
    return cand[np.arange(rows.shape[0]), score.argmax(axis=1)]


def _chi2_mp_reference(p, v, delta):
    """40-digit chi-square support: on each segment between distinct sorted values of v, the stationary
    point t = m1/low + sqrt(Var_low / (delta low - tail)) clipped to the segment, or its right end when
    delta low <= tail; the best phi(t) = E_p min(v, t) - sqrt(delta Var_p min(v, t)) over them and the knots."""
    import mpmath

    with mpmath.workdps(40):
        p = [mpmath.mpf(float(x)) for x in p]
        # sigma(p, v) = lo + sigma(p, v - lo) where p sums to 1; on v - lo a float row's 1 - sum(p) moves phi by
        # up to span(v) |1 - sum(p)|, not |v| |1 - sum(p)|
        lo = mpmath.mpf(float(min(v)))
        v = [mpmath.mpf(float(x)) - lo for x in v]
        delta = mpmath.mpf(delta)

        def phi(t):
            w = [min(x, t) for x in v]
            mean = mpmath.fsum(a * b for a, b in zip(p, w))
            return mean - mpmath.sqrt(delta * mpmath.fsum(a * (b - mean) ** 2 for a, b in zip(p, w)))

        knots = sorted(set(v))
        best = max(phi(t) for t in knots)
        for a, b in zip(knots[:-1], knots[1:]):
            low = mpmath.fsum(x for x, y in zip(p, v) if y <= a)
            m1 = mpmath.fsum(x * y for x, y in zip(p, v) if y <= a)
            m2 = mpmath.fsum(x * y * y for x, y in zip(p, v) if y <= a)
            tail = mpmath.fsum(x for x, y in zip(p, v) if y >= b)
            t = b
            if low > 0 and delta * low > tail:
                t = m1 / low + mpmath.sqrt(max(m2 / low - (m1 / low) ** 2, 0) / (delta * low - tail))
            best = max(best, phi(min(max(t, a), b)))
        return float(lo + best)


class TestChiSquareSolve:
    @pytest.mark.parametrize("delta", [1e-3, 0.1, 0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 10.0])
    def test_matches_scipy_per_segment(self, delta, scale, offset):
        rng = np.random.default_rng(int(1000 * delta + scale + offset))
        rows = rng.dirichlet(np.ones(6), size=8)
        rows[::2, 1] = 0.0  # rows with zero entries
        rows[::3, 4] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        v = scale * (rng.normal(size=6) + offset)
        v[3] = v[0]  # tied values
        values, thresholds = ChiSquare(delta).solve(rows, v)
        span = v.max() - v.min()
        for p, value, t in zip(rows, values, thresholds):
            assert abs(value - _chi2_reference(p, v, delta)) <= 1e-9 * span
            w = np.minimum(v, t)  # the threshold attains the value
            assert w @ p - np.sqrt(delta * (p @ (w - p @ w) ** 2)) == pytest.approx(value, abs=1e-12 * span)

    def test_worst_row_on_argmin_vertex(self):
        # 1/p_min - 1 = 0.11 <= delta: the vertex e_0 lies in the ball and attains min v
        spec = ChiSquare(0.3)
        p, v = np.array([0.9, 0.1]), np.array([0.0, 1.0])
        q = spec.worst_row(p, v)
        np.testing.assert_allclose(q, [1.0, 0.0], atol=1e-15)
        assert spec.support(p, v) == pytest.approx(0.0, abs=1e-15)
        assert spec.divergence(q, p) <= spec.delta

    def test_worst_row_attains_support_in_ball(self):
        rng = np.random.default_rng(11)
        for trial in range(300):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.full(n, 0.5))
            if trial % 3 == 0:
                p[rng.integers(n)] = 0.0
                p /= p.sum()
            v = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=n)
            if trial % 4 == 0:
                v[-1] = v[0]
            spec = ChiSquare(float(10.0 ** rng.uniform(-3, 1)))
            q = spec.worst_row(p, v)
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(q @ v - spec.support(p, v)) <= 1e-9 * max(1.0, np.abs(v).max())
            assert spec.divergence(q, p) <= spec.delta * (1.0 + 1e-9)

    @pytest.mark.parametrize(
        "make",
        [lambda: garnet(12, 4, seed=3), lambda: garnet(5, 3, seed=254), inventory],
        ids=["garnet(12, 4, 3)", "garnet(5, 3, 254)", "inventory"],
    )
    def test_worst_rows_attain_value_on_nominal_rows(self, make):
        m = make()
        n, rows = m.n_states, m.kernel.reshape(-1, m.n_states)
        rng = np.random.default_rng(31)
        for delta in (0.1, 0.3, 1.0, 3.0):
            spec = ChiSquare(delta)
            for _ in range(3):
                cluster = 0.5 + 1e-6 * rng.uniform(-0.5, 0.5, size=n)
                cluster[rng.integers(n)] = 0.0
                for v in (
                    rng.normal(size=n),
                    np.round(rng.normal(size=n), 1),
                    np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n],  # tied pairs
                    cluster,
                ):
                    values, q = spec.support_and_worst(rows, v)
                    assert np.abs(q @ v - values).max() <= 1e-12 * (v.max() - v.min()), v
                    assert max(spec.divergence(qi, p) for p, qi in zip(rows, q)) <= delta * (1.0 + 1e-9), v

    @staticmethod
    def reference_rows(rng, n, count):
        """Dirichlet rows, rows with zero entries, and sparse multinomial count rows like MLMC rows."""
        dense = rng.dirichlet(np.full(n, 0.5), size=count)
        holes = rng.dirichlet(np.ones(n), size=count) * (rng.random((count, n)) < 0.6)
        holes[:, 0] += holes.sum(axis=1) == 0.0
        counts = rng.multinomial(int(rng.integers(1, 9)), rng.dirichlet(np.ones(n)), size=count)
        return np.vstack([dense, holes / holes.sum(axis=1, keepdims=True), counts / counts.sum(axis=1, keepdims=True)])

    @pytest.mark.parametrize("delta", [1e-4, 1e-2, 0.3, 3.0, 30.0])
    def test_matches_references_alone_and_in_batch(self, delta):
        rng = np.random.default_rng(int(1e4 * delta))
        spec = ChiSquare(delta)
        for n in (2, 3, 4, 6, 9, 17, 30, 60):
            rows = self.reference_rows(rng, n, 3 if n >= 30 else 6)
            scale = 10.0 ** rng.uniform(-3, 3)
            for v in (
                scale * rng.normal(size=n),
                scale * rng.normal(size=n) + 1e3,
                scale * np.round(rng.normal(size=n), 1),  # rounded to 0.1: ties and repeated thresholds
                scale * np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n],  # tied pairs
            ):
                if v.max() == v.min():
                    continue
                span = v.max() - v.min()
                values, thresholds = spec.solve(rows, v)
                for i, p in enumerate(rows):
                    alone = spec.solve(p, v)
                    assert (alone[0][0], alone[1][0]) == (values[i], thresholds[i]), (n, p, v)
                    if n <= 17:
                        assert abs(values[i] - _chi2_mp_reference(p, v, delta)) <= 1e-12 * span, (n, p, v)
                    else:  # the 40-digit reference takes O(S^2) high-precision sums per row
                        reference = _chi2_segments_reference(p[None, :], v, delta)[0][0]
                        assert abs(values[i] - reference) <= 1e-15 * span, (n, p, v)

    def test_rescoring_beats_one_pass_ranking(self):
        # ranked by one-pass moments, this row would pick t = -0.59999998 (on the segment [-0.6, -0.1]),
        # whose two-pass value lies 9e-9 below the optimum at t = -0.6, above a 1e-9 span tolerance; the
        # optimum is the argmin vertex of supp(p) ((1 + delta) p_min = 2.32 >= 1), so -0.6 is exact
        p, v, delta = np.array([0.0, 0.07, 0.17, 0.18, 0.58]), np.array([-2.2, 1.5, 0.1, -0.1, -0.6]), 3.0
        value, t = ChiSquare(delta).solve(p, v)
        assert (value[0], t[0]) == (-0.6, -0.6)
        picked = _chi2_one_pass_thresholds(p[None, :], v, delta)[0]
        w = np.minimum(v, picked)
        assert value[0] - (p @ w - np.sqrt(delta * (p @ (w - p @ w) ** 2))) > 1e-9 * (v.max() - v.min())

    @staticmethod
    def cluster_rows(rng, count):
        """Rows whose supported values lie within 1e-6 of each other, min v on a zero-mass state: one-pass
        moments about min v cancel there."""
        for _ in range(count):
            n = int(rng.integers(3, 12))
            p = rng.dirichlet(np.ones(n))
            z = rng.integers(n)
            p[z] = 0.0
            v = 0.5 + 1e-6 * rng.uniform(-0.5, 0.5, size=n)
            v[z] = 0.0
            yield p / p.sum(), v

    @pytest.mark.parametrize("delta", [1e-4, 0.3, 3.0, 30.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_matches_40_digit_reference(self, delta, scale):
        rng = np.random.default_rng(int(1e4 * delta + scale))
        for n in (2, 4, 7, 11):
            rows = self.reference_rows(rng, n, 2)
            v = scale * rng.normal(size=n)
            if n > 2:
                v[-1] = v[0]  # tied values
            values = ChiSquare(delta).solve(rows, v)[0]
            for p, value in zip(rows, values):
                assert abs(value - _chi2_mp_reference(p, v, delta)) <= 1e-12 * (v.max() - v.min()), (n, p, v)
        cluster = [(np.array([0, 21, 46, 2]) / 69, np.array([0, 0.499999763, 0.500001567, 0.499999737]))]
        for p, v in cluster + list(self.cluster_rows(rng, 8)):
            v = scale * v
            value = ChiSquare(delta).support(p, v)
            assert abs(value - _chi2_mp_reference(p, v, delta)) <= 1e-12 * (v.max() - v.min()), (p, v)


def test_kl_large_radius_bracket():
    # the optimal dual alpha ~ 14.4 lies above the old bracket top ||v||/delta = 12
    p, v, delta = np.array([5.5e-5, 1.0 - 5.5e-5]), np.array([-105.0, 72.0]), 8.75
    # primal reference: q = (x, 1 - x) with the largest x inside the ball
    def kl(x):
        return x * np.log(x / p[0]) + (1.0 - x) * np.log((1.0 - x) / p[1])

    x = brentq(lambda x: kl(x) - delta, p[0], 1.0 - 1e-15, xtol=1e-15)
    expected = x * v[0] + (1.0 - x) * v[1]
    assert expected > -90.92  # above the dual bound at alpha = 14.44
    assert KLDivergence(delta).support(p, v) == pytest.approx(expected, abs=1e-7)


def test_kl_solve_alpha_attains_value():
    rng = np.random.default_rng(12)
    rows = rng.dirichlet(np.full(5, 0.5), size=30)
    rows[::4, 2] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    v = rng.normal(0.0, 3.0, size=5)
    spec = KLDivergence(0.4)
    values, alphas = spec.solve(rows, v)
    np.testing.assert_array_equal(values, spec.support_batch(rows, v))
    for p, value, alpha in zip(rows, values, alphas):
        supp = p > 0.0
        if alpha == 0.0:  # the alpha -> 0 boundary: min v over the support
            assert value == v[supp].min()
        else:
            dual = -spec.delta * alpha - alpha * np.log(p[supp] @ np.exp(-v[supp] / alpha))
            assert dual == pytest.approx(value, abs=1e-12 * np.abs(v).max())


def _kl_reference(p, v, delta):
    """Independent KL support: min v over supp(p) when its argmin states lie in the ball, else q.v
    for the tilt q ~ p exp(-beta v) that brentq puts on the sphere KL(q || p) = delta."""
    supp = p > 0.0
    p, v = p[supp], v[supp]
    if -np.log(p[v == v.min()].sum()) <= delta:
        return v.min()
    u = (v - v.min()) / (v.max() - v.min())

    def tilt(log_beta):
        logits = np.log(p) - np.exp(log_beta) * u
        log_q = logits - logsumexp(logits)
        return np.exp(log_q), log_q

    def excess(log_beta):
        q, log_q = tilt(log_beta)
        return q @ (log_q - np.log(p)) - delta

    lo, hi = -1.0, 1.0
    while excess(lo) > 0.0:
        lo -= 1.0
    while excess(hi) < 0.0:
        hi += 1.0
    root = brentq(excess, lo, hi, xtol=1e-15, rtol=1e-15)
    return v.min() + (v.max() - v.min()) * (tilt(root)[0] @ u)


def count_tilt_rounds(monkeypatch):
    """Patch ``_tilt_root`` to record the rounds of each call; returns the list it appends to.

    A round is counted by its ``np.exp`` call: every round of the root search makes exactly one."""

    class CountingNumpy:
        exp_calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            self.exp_calls += 1
            return np.exp(x)

    rounds = []
    root = uncertainty._tilt_root

    def counted(p, u, delta):
        counting = CountingNumpy()
        monkeypatch.setattr(uncertainty, "np", counting)
        try:
            return root(p, u, delta)
        finally:
            monkeypatch.setattr(uncertainty, "np", np)
            rounds.append(counting.exp_calls)

    monkeypatch.setattr(uncertainty, "_tilt_root", counted)
    return rounds


def _kl_mixed_rows(rng, n, count):
    """Rows like the solver meets them: MLMC count rows, point masses, dense rows and rows with zeros."""
    rows = []
    for _ in range(count):
        kind = rng.integers(4)
        if kind == 0:
            draws = rng.multinomial(2 ** int(rng.integers(1, 12)), rng.dirichlet(np.ones(n)))
            rows.append(draws / draws.sum())
        elif kind == 1:
            rows.append(np.eye(n)[rng.integers(n)])
        elif kind == 2:
            rows.append(rng.dirichlet(np.ones(n)))
        else:
            row = rng.dirichlet(np.full(n, 0.5))
            row[rng.integers(n)] = 0.0
            rows.append(row / row.sum())
    return np.array(rows)


class TestKLSolve:
    @pytest.mark.parametrize("delta", [1e-3, 0.1, 0.3, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 10.0])
    def test_matches_scipy_primal(self, delta, scale, offset):
        rng = np.random.default_rng(int(1000 * delta + scale + offset) + 1)
        n = 6
        rows = rng.dirichlet(np.full(n, 0.5), size=12)
        rows[::2, 1] = 0.0  # rows with zero entries
        rows[::3, 4] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        # sparse count rows, like the empirical rows of the MLMC estimator
        counts = rng.multinomial(int(rng.integers(2, 40)), rng.dirichlet(np.ones(n)), size=6)
        rows = np.concatenate([rows, counts / counts.sum(axis=1, keepdims=True)])
        v = scale * (rng.normal(size=n) + offset)
        v[3] = v[0]  # tied values
        values, alphas = KLDivergence(delta).solve(rows, v)
        span = v.max() - v.min()
        for p, value in zip(rows, values):
            assert abs(value - _kl_reference(p, v, delta)) <= 1e-9 * span
        assert np.all(alphas >= 0.0)

    def test_worst_row_on_tied_argmin(self):
        # -log P(argmin) = -log 0.8 <= delta: the worst row is p on the tied argmin states
        spec = KLDivergence(0.3)
        p, v = np.array([0.4, 0.4, 0.2]), np.array([0.0, 0.0, 1.0])
        q = spec.worst_row(p, v)
        np.testing.assert_allclose(q, [0.5, 0.5, 0.0], atol=1e-15)
        assert spec.divergence(q, p) <= spec.delta
        assert spec.support(p, v) == 0.0

    @staticmethod
    def assert_worst_rows_in_ball(rng, draw_delta):
        for trial in range(300):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.full(n, 0.5))
            if trial % 3 == 0:
                p[rng.integers(n)] = 0.0
                p /= p.sum()
            v = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=n)
            if trial % 4 == 0:
                v[-1] = v[0]
            if trial % 5 == 0:
                v += 10.0 * np.abs(v).max()
            spec = KLDivergence(draw_delta())
            q = spec.worst_row(p, v)
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(q @ v - spec.support(p, v)) <= 1e-9 * max(1.0, np.abs(v).max())
            assert spec.divergence(q, p) <= spec.delta * (1.0 + 1e-9)

    def test_worst_row_attains_support_in_ball(self):
        rng = np.random.default_rng(15)
        self.assert_worst_rows_in_ball(rng, lambda: float(10.0 ** rng.uniform(-3, 1)))

    @pytest.mark.parametrize("delta", [1e-6, 1e-5])
    def test_worst_row_attains_support_in_ball_at_tiny_radius(self, delta):
        self.assert_worst_rows_in_ball(np.random.default_rng(16), lambda: delta)

    def test_near_boundary_radius(self):
        # -log P(argmin) just above delta: the root beta is large and f is flat there
        for delta in (1e-3, 1.0, 10.0):
            for excess in (1e-3, 1e-9):
                p_min = np.exp(-delta * (1.0 + excess))
                p, v = np.array([p_min, 1e-9, 1.0 - p_min - 1e-9]), np.array([0.0, 1e-6, 1.0])
                spec = KLDivergence(delta)
                assert abs(spec.support(p, v) - _kl_reference(p, v, delta)) <= 1e-12
                q = spec.worst_row(p, v)
                assert spec.divergence(q, p) <= delta * (1.0 + 1e-9)

    def test_little_mass_at_min(self):
        # z = E_p exp(-beta u) lies near p_min at the root; 1 + expm1(-beta u) would lose the small
        # terms z is made of, moving the value by up to 8e-4 * span at p_min = 1e-15
        for p_min in (1e-6, 1e-9, 1e-12, 1e-15):
            for share in (0.3, 0.9, 0.999):
                delta = -np.log(p_min) * share
                p, v = np.array([p_min, 0.5, 0.5 - p_min]), np.array([0.0, 0.3, 1.0])
                assert abs(KLDivergence(delta).support(p, v) - _kl_reference(p, v, delta)) <= 1e-12, (p_min, share)

    def test_near_boundary_iteration_count(self, monkeypatch):
        # f stays flat up to beta ~ 1 / 1e-6 here; doubling beta from its first bracket took 26-27
        # Newton iterations, a squaring growth factor takes at most 13.
        rounds = count_tilt_rounds(monkeypatch)
        for delta in (1e-3, 0.3, 1.0, 10.0):
            p_min = np.exp(-delta * (1.0 + 1e-12))
            p, v = np.array([p_min, 1e-9, 1.0 - p_min - 1e-9]), np.array([0.0, 1e-6, 1.0])
            rounds.clear()
            value = KLDivergence(delta).support(p, v)
            assert len(rounds) == 1 and 1 <= rounds[0] <= 14, delta
            assert abs(value - _kl_reference(p, v, delta)) <= 1e-12

    @pytest.mark.parametrize("delta", [1e-6, 1e-5])
    def test_tiny_radius_rounds(self, delta, monkeypatch):
        # near z = 1, log z read off log(E_p exp(-beta u)) carries round-off of order 1e-16, above
        # the stop target 1e-12 delta: rows took 32-48 rounds. log1p(E_p expm1(-beta u)) does not.
        rng = np.random.default_rng(17)
        rounds = count_tilt_rounds(monkeypatch)
        for _ in range(40):
            n = int(rng.integers(2, 18))
            rows = _kl_mixed_rows(rng, n, 6)
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            values = KLDivergence(delta).support_batch(rows, v)
            span = v.max() - v.min()
            for p, value in zip(rows, values):
                assert abs(value - _kl_reference(p, v, delta)) <= 1e-12 * span
        assert rounds and max(rounds) <= 6

    def test_batch_invariant_on_mixed_rows(self):
        # a row solved inside any batch gets the same bits as alone, whichever rows stop before it
        rng = np.random.default_rng(18)
        for _ in range(40):
            n = int(rng.integers(2, 18))
            rows = _kl_mixed_rows(rng, n, int(rng.integers(2, 40)))
            v = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
            v[rng.integers(n)] = v[rng.integers(n)]  # tied values
            spec = KLDivergence(float(10.0 ** rng.uniform(-6, 1)))
            values, alphas = spec.solve(rows, v)
            order = rng.permutation(len(rows))[: len(rows) // 2 + 1]
            np.testing.assert_array_equal(np.stack(spec.solve(rows[order], v)), np.stack([values, alphas])[:, order])
            for i, row in enumerate(rows):
                np.testing.assert_array_equal(np.stack(spec.solve(row, v))[:, 0], [values[i], alphas[i]])

    # per-call round caps read off this solver on these inputs, so that a change that adds
    # rounds fails here and not only in the benchmark
    ROUND_CAPS = {"garnet": (5, 4), "inventory": (8, 4)}

    @pytest.mark.parametrize("env", ["garnet", "inventory"])
    def test_rounds_per_call_on_learner_and_planner_rows(self, env, monkeypatch):
        m = garnet(5, 3, seed=254) if env == "garnet" else inventory()
        spec = KLDivergence(0.3)
        v = robust_rvi_control(m, spec, tol=1e-9).q.max(axis=1)
        pairs = [(s, a) for s in range(m.n_states) for a in range(m.n_actions)]
        stream = EstimateStream(KernelSampler.from_mdp(m), spec, pairs, None, np.random.default_rng(254), 20)
        block_cap, nominal_cap = self.ROUND_CAPS[env]
        rounds = count_tilt_rounds(monkeypatch)
        for _ in range(20):
            stream.next(v)
        assert len(rounds) == 20 and max(rounds) <= block_cap, rounds
        rounds.clear()
        spec.support_batch(m.kernel.reshape(-1, m.n_states), v)
        assert len(rounds) == 1 and rounds[0] <= nominal_cap, rounds


def _transport_reference(p, v, dl, budget):
    """Independent Wasserstein support: min q.v over couplings of p with cost <= budget (HiGHS LP)."""
    n = len(p)
    res = linprog(
        np.tile(v, n),
        A_ub=dl.reshape(1, -1),
        b_ub=[budget],
        A_eq=np.kron(np.eye(n), np.ones(n)),
        b_eq=p,
        bounds=(0, None),
        method="highs",
        # the default 1e-7 feasibility tolerance may drop a state holding 1e-8 of p's mass
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return res.fun


def _plane_metric(rng, n):
    points = rng.normal(size=(n, 2))
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def _envelope_kinks(u, dl):
    """Reference kinks: every pairwise crossing of x's lines that lies on x's lower envelope, within
    1e-9 relative, tested pair by pair in (S, S(S-1)/2, S) arrays."""
    i, j = np.triu_indices(u.shape[0], 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (u[i] - u[j]) / (dl[:, j] - dl[:, i])
    lam = np.where(np.isfinite(lam) & (lam > 0.0), lam, 0.0)
    at = u[i] + lam * dl[:, i]
    env = (u + lam[:, :, None] * dl[:, None, :]).min(axis=2)
    return np.unique(np.concatenate([np.zeros(1), lam[(lam > 0.0) & (at - env <= 1e-9 * (at + u.max()))]]))


class TestWassersteinSolve:
    @pytest.mark.parametrize("delta", [1e-2, 0.1, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("offset", [0.0, 10.0])
    @pytest.mark.parametrize("metric", ["line", "plane"])
    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_matches_transport_lp(self, delta, scale, offset, metric, order):
        rng = np.random.default_rng(int(100 * delta + scale + offset + 7 * order + (metric == "plane")))
        n = 6
        spec = Wasserstein(delta, order=order, metric=None if metric == "line" else _plane_metric(rng, n))
        dl = (line_metric(n) if metric == "line" else spec.metric) ** order
        rows = rng.dirichlet(np.ones(n), size=6)
        rows[::2, 1] = 0.0  # rows with zero entries
        rows[::3, 4] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        v = scale * (rng.normal(size=n) + offset)
        v[3] = v[0]  # tied values
        values, lambdas = spec.solve(rows, v)
        span = v.max() - v.min()
        for p, value, lam in zip(rows, values, lambdas):
            assert abs(value - _transport_reference(p, v, dl, delta**order)) <= 1e-9 * span
            # lambda attains the value in the dual g
            g = -lam * delta**order + p @ (v[None, :] + lam * dl).min(axis=1)
            assert g == pytest.approx(value, abs=1e-12 * np.abs(v).max())

    def test_kink_outside_pairwise_ratio_set(self):
        # lambda* = 1 is where lines y = 0 and y = 3 of phi_1 cross; it is not of the
        # form (v_x - v_y) / d(x, y), and that set gives -0.833 instead of -0.5
        p, v = np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 5.0, 5.0, -1.0])
        values, lambdas = Wasserstein(1.5).solve(p, v)
        assert values[0] == pytest.approx(-0.5, abs=1e-15)
        assert lambdas[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("metric", ["line", "plane", "pseudo"])
    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_hull_march_matches_envelope_reference(self, metric, order, monkeypatch):
        rng = np.random.default_rng(int(10 * order) + ("line", "plane", "pseudo").index(metric))
        for n in range(1, 25):
            if metric == "line":
                d = None
            elif metric == "plane":
                d = _plane_metric(rng, n)
            else:  # states in clusters at distance 0 from each other
                d = line_metric(n)[np.ix_(np.arange(n) // 3, np.arange(n) // 3)]
            spec = Wasserstein(float(10.0 ** rng.uniform(-2, 1)), order=order, metric=d)
            dl = spec._dl(n)
            rows = rng.dirichlet(np.ones(n), size=8)
            for v in (rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3), np.round(rng.normal(size=n), 1), np.full(n, 1.5)):
                u = v - v.min()
                kinks = Wasserstein._kinks(u, dl)
                assert np.isin(kinks, _envelope_kinks(u, dl)).all(), (n, v)
                values = spec.solve(rows, v)[0]
                with monkeypatch.context() as patch:
                    patch.setattr(Wasserstein, "_kinks", staticmethod(_envelope_kinks))
                    reference = spec.solve(rows, v)[0]
                assert np.abs(values - reference).max() <= 1e-15 * (1.0 + np.abs(v).max()), (n, v)

    def test_kink_search_memory(self):
        rng = np.random.default_rng(15)
        u = rng.normal(size=60)
        u -= u.min()
        dl = line_metric(60)
        tracemalloc.start()
        try:
            Wasserstein._kinks(u, dl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the all-pairs envelope test peaked at 6.9 MB here

    def test_worst_row_attains_support_in_ball(self):
        rng = np.random.default_rng(13)
        for trial in range(200):
            n = int(rng.integers(2, 7))
            metric = _plane_metric(rng, n) if trial % 2 else None
            spec = Wasserstein(float(10.0 ** rng.uniform(-2, 1)), order=1.0 + trial % 3 // 2, metric=metric)
            p = rng.dirichlet(np.full(n, 0.5))
            if trial % 3 == 0:
                p[rng.integers(n)] = 0.0
                p /= p.sum()
            v = rng.normal(0.0, 10.0 ** rng.uniform(-3, 3), size=n)
            if trial % 4 == 0:
                v[-1] = v[0]
            q = spec.worst_row(p, v)
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(q @ v - spec.support(p, v)) <= 1e-9 * max(1.0, np.abs(v).max())
            assert spec.distance_pow(p, q) <= spec.delta**spec.order * (1.0 + 1e-9)

    def test_worst_row_constant_values_and_zero_radius(self):
        rng = np.random.default_rng(14)
        p = rng.dirichlet(np.ones(5))
        metric = _plane_metric(rng, 5)
        for spec in (Wasserstein(0.7), Wasserstein(0.7, order=2.0, metric=metric)):
            q = spec.worst_row(p, np.full(5, 3.0))
            assert q @ np.full(5, 3.0) == pytest.approx(3.0, abs=1e-15)
            assert spec.distance_pow(p, q) <= spec.delta**spec.order * (1.0 + 1e-9)
        for spec in (Wasserstein(0.0), Wasserstein(0.0, order=2.0, metric=metric)):
            v = rng.normal(size=5)
            np.testing.assert_array_equal(spec.worst_row(p, v), p)
            assert spec.support(p, v) == pytest.approx(p @ v, abs=1e-15)

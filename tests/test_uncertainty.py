"""Tests for the ambiguity-set support functions, duals, and the grid oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import brentq, linprog, minimize_scalar
from scipy.special import logsumexp

from rarl import uncertainty
from rarl.environments import example_a, garnet
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
                "ChiSquare": 1e-8,
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
        ex = example_a(1.0, 2.0, 4.0)
        rows = ex.mdp.kernel.reshape(3, 3)
        rng = np.random.default_rng(22)
        for v in [np.zeros(3), np.array([-2.5, -0.5, 0.5])] + [rng.normal(0.0, 1e3, 3) for _ in range(10)]:
            self.assert_bitwise(ex.uset, rows, v)


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

    def test_worst_row_attains_support_in_ball(self):
        rng = np.random.default_rng(15)
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
            spec = KLDivergence(float(10.0 ** rng.uniform(-3, 1)))
            q = spec.worst_row(p, v)
            assert q.min() >= 0.0 and q.sum() == pytest.approx(1.0, abs=1e-12)
            assert abs(q @ v - spec.support(p, v)) <= 1e-9 * max(1.0, np.abs(v).max())
            assert spec.divergence(q, p) <= spec.delta * (1.0 + 1e-9)

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

    def test_near_boundary_iteration_count(self, monkeypatch):
        # f stays flat up to beta ~ 1 / 1e-6 here; doubling beta from its first bracket took 26-27
        # Newton iterations, a squaring growth factor takes at most 13. Each iteration calls exp once.
        class CountingNumpy:
            exp_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, x):
                self.exp_calls += 1
                return np.exp(x)

        for delta in (1e-3, 0.3, 1.0, 10.0):
            p_min = np.exp(-delta * (1.0 + 1e-12))
            p, v = np.array([p_min, 1e-9, 1.0 - p_min - 1e-9]), np.array([0.0, 1e-6, 1.0])
            counting = CountingNumpy()
            monkeypatch.setattr(uncertainty, "np", counting)
            value = KLDivergence(delta).support(p, v)
            monkeypatch.setattr(uncertainty, "np", np)
            assert 1 <= counting.exp_calls <= 14, delta
            assert abs(value - _kl_reference(p, v, delta)) <= 1e-12


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

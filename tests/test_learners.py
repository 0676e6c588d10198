"""Tests for the stochastic-approximation learners and step schedules."""

import hashlib

import numpy as np
import pytest

from rarl import estimators
from rarl.environments import garnet, one_loop
from rarl.estimators import KernelSampler, MlmcConfig
from rarl.learners import Constant, RobbinsMonro, robust_rvi_q, robust_rvi_td
from rarl.mdp import OffsetFn, Policy, TabularMDP, gain_and_bias, greedy_policy
from rarl.planners import robust_rvi_control, robust_rvi_eval
from rarl.uncertainty import ChiSquare, Contamination, KLDivergence, TotalVariation, Wasserstein


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
        for params in ({"c": float("nan")}, {"c": float("inf")}, {"offset": -1.0}, {"offset": float("nan")}):
            with pytest.raises(ValueError, match=f"{next(iter(params))} must be a finite number > 0"):
                RobbinsMonro(**params)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
    def test_constant_rejects_bad_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            Constant(alpha)


@pytest.mark.parametrize("learner, entries", [(robust_rvi_td, 4), (robust_rvi_q, 8)])
def test_an_offset_state_past_the_iterate_is_named(learner, entries):
    m = garnet(4, 2, seed=3)
    args = (Policy.uniform(4, 2),) if learner is robust_rvi_td else ()
    with pytest.raises(IndexError, match=f"offset state 9 is out of range for {entries} entries"):
        learner(KernelSampler.from_mdp(m), m, *args, TotalVariation(0.2), OffsetFn(9), Constant(0.1), 5, None, stream(0))


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

    def test_multichain_policy_warns(self):
        m = TabularMDP(2, 1, np.eye(2)[:, None, :], np.zeros((2, 1)))  # each state keeps itself: two closed classes
        with pytest.warns(UserWarning, match="^policy induces a multichain on the nominal kernel$"):
            robust_rvi_td(
                KernelSampler.from_mdp(m), m, Policy.uniform(2, 1), Contamination(0.2), OffsetFn.mean(),
                Constant(0.01), 10, None, stream(6),
            )

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


class TestStartShapes:
    """A start iterate of the wrong shape is rejected before any sample is drawn."""

    @pytest.mark.parametrize("v0", [np.zeros(6), np.zeros(4), np.zeros((5, 1)), np.zeros((1, 5))])
    def test_td_rejects_v0_of_another_shape(self, v0):
        m = garnet(5, 3, seed=2)
        with pytest.raises(ValueError, match=r"v0 must have shape \(5,\)"):
            robust_rvi_td(
                KernelSampler.from_mdp(m), m, Policy.uniform(5, 3), Contamination(0.2), OffsetFn.mean(),
                Constant(0.1), 5, None, stream(0), v0=v0,
            )

    @pytest.mark.parametrize("q0", [np.zeros(3), np.zeros((1, 3)), np.zeros((5, 2)), np.zeros((5, 3, 1))])
    def test_q_rejects_q0_of_another_shape(self, q0):
        m = garnet(5, 3, seed=2)
        with pytest.raises(ValueError, match=r"q0 must have shape \(5, 3\)"):
            robust_rvi_q(
                KernelSampler.from_mdp(m), m, Contamination(0.2), OffsetFn.mean(), Constant(0.1), 5, None, stream(0),
                q0=q0,
            )

    def test_matching_shapes_run(self):
        m = garnet(5, 3, seed=2)
        src, spec = KernelSampler.from_mdp(m), Contamination(0.2)
        td = robust_rvi_td(
            src, m, Policy.uniform(5, 3), spec, OffsetFn.mean(), Constant(0.1), 5, None, stream(0), v0=[1.0] * 5
        )
        q = robust_rvi_q(src, m, spec, OffsetFn.mean(), Constant(0.1), 5, None, stream(0), q0=np.ones((5, 3)))
        assert td.final.shape == (5,) and q.final.shape == (5, 3)


SPECS = [Contamination(0.3), TotalVariation(0.2), ChiSquare(0.3), KLDivergence(0.3), Wasserstein(0.3)]


def trace_bytes(trace):
    return [x.tobytes() for x in (trace.f_values, trace.costs, trace.final)]


class TestBlockDraws:
    """A run draws its samples in blocks of iterations, and a sequence of RNGs runs one seed per
    RNG in one loop: seed i's trace must depend on neither the block size nor the batch."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.kind)
    def test_trace_independent_of_block_size(self, spec, monkeypatch):
        m = garnet(4, 2, seed=7)
        src = KernelSampler.from_mdp(m)
        floats_per_iter = 4 * 8 * 4  # 4n rows of S states per seed, n = 8 pairs for both learners
        for offset in (OffsetFn.mean(), OffsetFn.reference_state(2)):

            def runs(rng):
                td = robust_rvi_td(
                    src, m, Policy.uniform(4, 2), spec, offset, Constant(0.05), 30, None, rng(), record_every=7
                )
                return td, robust_rvi_q(src, m, spec, offset, Constant(0.05), 30, None, rng(), record_every=7)

            solo = [[trace_bytes(t) for t in runs(lambda: stream(30, i))] for i in range(3)]
            for block in (1, 7, None):  # iterations per block; None: the default, all 30
                for n_seeds in (None, 1, 3):  # None: one Generator rather than a sequence
                    with monkeypatch.context() as patch:
                        if block:
                            patch.setattr(estimators, "_BLOCK_FLOATS", block * (n_seeds or 1) * floats_per_iter)
                        if n_seeds is None:
                            got = [[trace_bytes(t) for t in runs(lambda: stream(30, 0))]]
                        else:
                            batch = runs(lambda: [stream(30, i) for i in range(n_seeds)])
                            assert all(t.f_values.shape == (n_seeds, 5) and not t.errors for t in batch)
                            assert [r.tail_mean(0.4) for r in batch[1].runs()] == list(batch[1].tail_mean(0.4))
                            got = [[trace_bytes(t.runs()[i]) for t in batch] for i in range(n_seeds)]
                    assert got == solo[: len(got)]


class TestSeedBatch:
    """A seed that diverges is dropped from its batch; the others run on as if alone."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the poisoned seed
    @pytest.mark.parametrize("poison", [np.nan, np.inf, 1e12], ids=["nan", "inf", "huge"])
    @pytest.mark.parametrize("algorithm", ["td", "q"])
    def test_failed_seed_is_dropped_and_the_others_run_on(self, algorithm, poison, monkeypatch):
        m = garnet(4, 2, seed=7)
        src = KernelSampler.from_mdp(m)
        spec = TotalVariation(0.2)

        def learner(rng):
            if algorithm == "td":
                return robust_rvi_td(src, m, Policy.uniform(4, 2), spec, OffsetFn.mean(), Constant(0.05), 30, None, rng)
            return robust_rvi_q(src, m, spec, OffsetFn.mean(), Constant(0.05), 30, None, rng)

        def poison_call(at):
            """Make the at-th support solve (1-based) return ``poison`` on every row."""
            calls, solve = [], TotalVariation.support_batch

            def support_batch(self, rows, v):
                calls.append(None)
                out = solve(self, rows, v)
                return np.full_like(out, poison) if len(calls) == at else out

            monkeypatch.setattr(TotalVariation, "support_batch", support_batch)

        solo = [trace_bytes(learner(stream(32, i))) for i in range(3)]
        poison_call(at=3 * 10 + 2)  # iteration 10, seed 1 of 3: one solve per live seed and iteration
        batch = learner([stream(32, i) for i in range(3)])
        poison_call(at=10 + 1)
        with pytest.raises(FloatingPointError) as alone:
            learner(stream(32, 1))
        assert "at step 10" in str(alone.value)
        assert batch.errors == {1: str(alone.value)}
        assert [trace_bytes(t) for t in batch.runs()] == [solo[0], solo[2]]

    def test_every_seed_failing_leaves_an_empty_batch(self):
        m = garnet(3, 2, seed=6)
        batch = robust_rvi_td(
            KernelSampler.from_mdp(m), m, Policy.uniform(3, 2), Contamination(0.2), OffsetFn.mean(),
            Constant(2.5), 5_000, None, [stream(5), stream(33)],  # absurd step size: every seed diverges
        )
        assert batch.f_values.shape[0] == batch.final.shape[0] == 0
        assert sorted(batch.errors) == [0, 1]
        with pytest.raises(FloatingPointError) as alone:
            robust_rvi_td(
                KernelSampler.from_mdp(m), m, Policy.uniform(3, 2), Contamination(0.2), OffsetFn.mean(),
                Constant(2.5), 5_000, None, stream(5),
            )
        assert batch.errors[0] == str(alone.value)

    def test_empty_rng_sequence_rejected(self):
        m = garnet(3, 2, seed=6)
        with pytest.raises(ValueError):
            robust_rvi_q(KernelSampler.from_mdp(m), m, Contamination(0.2), OffsetFn.mean(), Constant(0.1), 5, None, [])


class TestStreamConsumption:
    """SHA-256 prefixes of 200-iteration TD and Q traces per family on garnet(5, 3, seed=254):
    uniform policy for TD, Constant(0.01), mean offset, default MLMC config, RNG
    SeedSequence((0, i)) with i the family's index below, hashing f_values, costs and final.
    A change to how a run consumes its RNG stream changes them; such a change must say so."""

    PINNED = [
        (Contamination(0.4), "0311413664c52ac32901fba5", "eab6d9589cfcae6db404edb8"),
        (TotalVariation(0.2), "a5b97d9b1760934e4cf9c435", "62f9d02c77eef1989b4d4a52"),
        (ChiSquare(0.3), "e18e9eff2d3af5e29c7071af", "11c4d1c0b12bc2c2852a33b6"),
        (KLDivergence(0.3), "997e987e5ca84755331ab417", "c2c895117ff20af9ff8ea5d5"),
        (Wasserstein(0.3), "972ad269267d6fd0f14fa763", "3236fa6fd6a598eedda95979"),
    ]

    @pytest.mark.parametrize("index", range(5), ids=[spec.kind for spec, _, _ in PINNED])
    def test_trace_hashes(self, index):
        spec, td_hash, q_hash = self.PINNED[index]
        m = garnet(5, 3, seed=254)
        src = KernelSampler.from_mdp(m)
        td = robust_rvi_td(
            src, m, Policy.uniform(5, 3), spec, OffsetFn.mean(), Constant(0.01), 200, None, stream(0, index)
        )
        q = robust_rvi_q(src, m, spec, OffsetFn.mean(), Constant(0.01), 200, None, stream(0, index))
        digests = [hashlib.sha256(b"".join(trace_bytes(t))).hexdigest()[:24] for t in (td, q)]
        assert digests == [td_hash, q_hash]

"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one `PASS/FAIL criterion-k ...` line (run with
``pytest tests/test_acceptance.py -s`` to see them) and asserts its
tolerances. Criterion 6 carries a strict expected-failure marker at radius
0.3: the exact robust-policy switch on the one-loop task happens at
delta > 1/3, so learning at 0.3 provably selects the other action; the
companion test demonstrates the qualitative claim at 0.4, where it holds.
"""

import time

import numpy as np
import pytest

from rarl.environments import example_a, garnet, one_loop
from rarl.estimators import KernelSampler, MlmcConfig, default_psi, sigma_hat_for_pairs
from rarl.harness import ExperimentConfig, run_control_experiment, run_eval_experiment, run_robustness_sweep
from rarl.learners import Constant, robust_rvi_q
from rarl.mdp import OffsetFn, Policy, TabularMDP, gain_and_bias, greedy_policy, robust_bellman_residual, span
from rarl.planners import finite_set_enumeration, robust_rvi_control, robust_rvi_eval, worst_case_kernel
from rarl.uncertainty import (
    ChiSquare,
    Contamination,
    KLDivergence,
    TotalVariation,
    Wasserstein,
    support_oracle_grid,
)
from test_uncertainty import tv_threshold_scan

GARNET_SEED = 254  # fixed desk-scale instance for criteria 4 and 5
MLMC_ROW = np.array([0.2, 0.3, 0.5])
MLMC_V = np.array([0.0, 1.0, 2.0])


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")


def _families(delta):
    return {
        "contamination": Contamination(min(delta, 0.99)),
        "tv": TotalVariation(delta),
        "chi2": ChiSquare(delta),
        "kl": KLDivergence(delta),
        "wasserstein": Wasserstein(delta),
    }


def test_criterion_1_support_oracle_equivalence():
    # grid-oracle agreement at 0.02 ||V|| for the four non-linear families;
    # contamination and TV are checked to 1e-9 against their closed/greedy
    # forms (the grid-spacing bound does not apply to them)
    start = time.time()
    rng = np.random.default_rng(1001)
    deltas = (0.1, 0.3, 0.6)
    worst = {}
    for i in range(100):
        p = rng.dirichlet(np.ones(4))
        v = rng.normal(0.0, 1.0, size=4)
        vmax = np.abs(v).max()
        fams = _families(deltas[i % 3])
        for name in ("tv", "chi2", "kl", "wasserstein"):
            spec = fams[name]
            gap = abs(spec.support(p, v) - support_oracle_grid(spec, p, v, 200))
            worst[name] = max(worst.get(name, 0.0), gap / (0.02 * vmax))
        contam = fams["contamination"]
        closed = (1 - contam.delta) * p @ v + contam.delta * v.min()
        assert abs(contam.support(p, v) - closed) <= 1e-9
        assert abs(fams["tv"].support(p, v) - tv_threshold_scan(p, v, fams["tv"].delta)) <= 1e-9
    elapsed = time.time() - start
    ok = max(worst.values()) <= 1.0 and elapsed < 120.0
    _report(
        "criterion-1 support-oracle-equivalence",
        ok,
        f"max gap ratios {{{', '.join(f'{k}:{x:.2f}' for k, x in worst.items())}}}; "
        f"contamination/tv closed-form exact to 1e-9; {elapsed:.0f}s",
    )
    assert max(worst.values()) <= 1.0
    assert elapsed < 120.0


def test_criterion_2_three_state_instance_exactness():
    ex = example_a(1.0, 2.0, 4.0)
    enum = finite_set_enumeration(ex.mdp, ex.kernels, ex.policy)
    bias_1, bias_2 = enum.per_kernel[0].bias, enum.per_kernel[1].bias
    res_1 = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, bias_1)
    res_2 = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, 3.0, bias_2)
    ok = (
        abs(enum.gain - 3.0) <= 1e-12
        and enum.minimizers == [0, 1]
        and np.abs(bias_1 - [-2.5, -0.5, 0.5]).max() <= 1e-9
        and np.abs(bias_2 - [-1.5, -0.5, 0.5]).max() <= 1e-9
        and np.abs(res_1).max() <= 1e-9
        and abs(res_2[0]) > 0.1
    )
    _report(
        "criterion-2 three-state-instance-exactness",
        ok,
        f"gain={enum.gain}, |res(bias_1)|={np.abs(res_1).max():.1e}, res(bias_2)[0]={res_2[0]:+.3f}",
    )
    assert abs(enum.gain - 3.0) <= 1e-12
    np.testing.assert_allclose(bias_1, [-2.5, -0.5, 0.5], atol=1e-9)
    np.testing.assert_allclose(bias_2, [-1.5, -0.5, 0.5], atol=1e-9)
    assert np.abs(res_1).max() <= 1e-9
    assert abs(res_2[0]) > 0.1


@pytest.mark.parametrize("name", ["tv", "chi2", "kl", "wasserstein"])
def test_criterion_3_mlmc_unbiasedness(name):
    spec = _families(0.2)[name]
    exact = spec.support(MLMC_ROW, MLMC_V)
    kernel = np.zeros((3, 1, 3))
    kernel[:, 0, :] = MLMC_ROW
    source = KernelSampler(TabularMDP(3, 1, kernel, np.zeros((3, 1))))
    cfg = MlmcConfig(psi=default_psi(spec))
    rng = np.random.default_rng(2000 + ["tv", "chi2", "kl", "wasserstein"].index(name))
    start = time.time()
    vals, _ = sigma_hat_for_pairs(source, spec, [(0, 0)] * 200_000, MLMC_V, cfg, rng)
    elapsed = time.time() - start
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    gap = abs(vals.mean() - exact)
    ok = gap <= 3 * se and elapsed < 300.0
    _report(
        f"criterion-3 mlmc-unbiasedness/{name}",
        ok,
        f"|mean-exact|={gap:.5f} vs 3SE={3 * se:.5f}, psi={cfg.psi}, {elapsed:.0f}s",
    )
    assert gap <= 3 * se
    assert elapsed < 300.0


@pytest.fixture(scope="module")
def garnet_instance():
    return garnet(5, 3, seed=GARNET_SEED)


def _eval_config(**overrides):
    doc = {
        "environment": {"id": "garnet", "params": {"n_states": 5, "n_actions": 3, "seed": GARNET_SEED}},
        "uncertainty": {"kind": "contamination", "delta": 0.4},
        "algorithm": "td",
        "schedule": {"kind": "constant", "alpha": 0.01},
        "n_iters": 50_000,
        "n_seeds": 30,
        "base_seed": 0,
        "record_every": 10,
        "tail_fraction": 0.1,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


def test_criterion_4_td_convergence(tmp_path):
    start = time.time()
    summary = run_eval_experiment(_eval_config(), tmp_path / "contamination")
    devs = np.abs(np.array(summary["per_seed_tail"]) - summary["baseline_gain"])
    n_close = int((devs <= 0.1).sum())
    tv_summary = run_eval_experiment(
        _eval_config(
            uncertainty={"kind": "tv", "delta": 0.2},
            n_iters=10_000,
            tail_fraction=0.2,
        ),
        tmp_path / "tv",
    )
    elapsed = time.time() - start
    ok = summary["abs_error"] <= 0.05 and n_close >= 28 and tv_summary["abs_error"] <= 0.1 and elapsed < 900
    _report(
        "criterion-4 robust-rvi-td-convergence",
        ok,
        f"contamination |mean-g|={summary['abs_error']:.4f}, {n_close}/30 seeds within 0.1; "
        f"tv |mean-g|={tv_summary['abs_error']:.4f}; {elapsed:.0f}s",
    )
    assert summary["abs_error"] <= 0.05
    assert n_close >= 28
    assert tv_summary["abs_error"] <= 0.1
    assert elapsed < 900.0


def test_criterion_5_q_learning_convergence(tmp_path):
    summary = run_control_experiment(_eval_config(algorithm="q"), tmp_path)
    ok = summary["abs_error"] <= 0.05 and summary["modal_matches_planner"]
    _report(
        "criterion-5 robust-rvi-q-convergence",
        ok,
        f"|mean-g*|={summary['abs_error']:.4f}, modal policy {summary['modal_policy']} "
        f"{'==' if summary['modal_matches_planner'] else '!='} planner {summary['planner_policy']}",
    )
    assert summary["abs_error"] <= 0.05
    assert summary["modal_matches_planner"]


def _one_loop_policy_counts(delta, n_seeds=30, n_iters=20_000):
    nominal, _ = one_loop()
    source = KernelSampler.from_mdp(nominal)
    rngs = [np.random.default_rng(np.random.SeedSequence((int(round(delta * 100)), i))) for i in range(n_seeds)]
    batch = robust_rvi_q(
        source, nominal, Contamination(delta), OffsetFn.mean(), Constant(0.01), n_iters, None, rngs, record_every=500
    )
    assert not batch.errors
    acts = np.array([greedy_policy(q).actions()[0] for q in batch.final])
    return int((acts == 0).sum()), int((acts == 1).sum())


def test_criterion_6_one_loop_above_threshold():
    # delta = 0.4 sits above the exact 1/3 policy switch
    n_left, _ = _one_loop_policy_counts(0.4)
    _, n_right = _one_loop_policy_counts(0.0)
    _, perturbed = one_loop()
    robust_gain = gain_and_bias(perturbed, Policy.deterministic([0, 0], 2)).gain
    vanilla_gain = gain_and_bias(perturbed, Policy.deterministic([1, 1], 2)).gain
    ok = n_left >= 28 and n_right >= 28 and robust_gain == 0.0 and vanilla_gain == -0.5
    _report(
        "criterion-6 one-loop-robustness (delta=0.4)",
        ok,
        f"robust left {n_left}/30, vanilla right {n_right}/30, perturbed gains {robust_gain} vs {vanilla_gain}",
    )
    assert n_left >= 28
    assert n_right >= 28
    assert robust_gain > vanilla_gain
    assert robust_gain == pytest.approx(0.0, abs=1e-12)
    assert vanilla_gain == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the exact robust optimum switches to the left action only for delta > 1/3; "
    "at delta = 0.3 the optimal robust policy is provably the right action "
    "(planner gain 0.1 > 0) and the learner converges to it",
)
def test_criterion_6_one_loop_below_threshold():
    plan = robust_rvi_control(one_loop()[0], Contamination(0.3), tol=1e-10)
    n_left, n_right = _one_loop_policy_counts(0.3)
    _report(
        "criterion-6 one-loop-robustness (delta=0.3)",
        n_left >= 28,
        f"robust left {n_left}/30 (exact optimum is right: planner policy "
        f"{plan.policy.actions().tolist()}, g*={plan.gain:+.3f}); expected failure",
    )
    assert n_left >= 28


class TestCriterion7PropertySuites:
    def test_sigma_axioms(self):
        rng = np.random.default_rng(7001)
        for trial in range(100):
            p = rng.dirichlet(np.ones(4))
            v = rng.normal(0, 1.5, size=4)
            c = float(rng.normal(0, 3))
            pos = float(abs(rng.normal(0, 2)))
            v2 = rng.normal(0, 1.5, size=4)
            for name, spec in _families((0.1, 0.3, 0.6)[trial % 3]).items():
                base = spec.support(p, v)
                assert spec.support(p, v + c) == pytest.approx(base + c, abs=1e-9), name
                assert spec.support(p, pos * v) == pytest.approx(pos * base, abs=1e-9 * max(1, pos)), name
                assert abs(spec.support(p, v2) - base) <= np.abs(v2 - v).max() + 1e-9, name
            for small, large in zip(_families(0.1).values(), _families(0.4).values()):
                assert large.support(p, v) <= small.support(p, v) + 1e-9
        _report("criterion-7a sigma-axioms", True, "translation/homogeneity/Lipschitz/monotone on 100 instances")

    def test_offset_axioms_exact(self):
        rng = np.random.default_rng(7002)
        for offset in (OffsetFn.mean(), OffsetFn.reference_state(2)):
            for _ in range(100):
                x = rng.normal(0, 5, size=6)
                c = float(rng.normal())
                assert offset(np.ones(6)) == 1.0
                assert offset(x + c) == pytest.approx(offset(x) + c, abs=1e-12)
                assert offset(c * x) == pytest.approx(c * offset(x), abs=1e-12)
        _report("criterion-7b offset-axioms", True, "f(e)=1, translation, homogeneity exact")

    def test_greedy_shift_invariance(self):
        rng = np.random.default_rng(7003)
        for _ in range(100):
            q = rng.normal(0, 1, (5, 4))
            c = float(rng.normal(0, 10))
            assert greedy_policy(q).actions().tolist() == greedy_policy(q + c).actions().tolist()
        _report("criterion-7c greedy-shift-invariance", True, "argmax invariant under constants")

    def test_planner_residual_certificates(self, garnet_instance):
        tol = 1e-9
        policy = Policy.uniform(5, 3)
        worst_res = 0.0
        for spec in (Contamination(0.4), TotalVariation(0.2)):
            plan = robust_rvi_eval(garnet_instance, policy, spec, tol=tol)
            res = robust_bellman_residual(garnet_instance, policy, spec, plan.gain, plan.value)
            worst_res = max(worst_res, float(np.abs(res).max()))
        ex = example_a(1.0, 2.0, 4.0)
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=tol)
        res = robust_bellman_residual(ex.mdp, ex.policy, ex.uset, plan.gain, plan.value)
        worst_res = max(worst_res, float(np.abs(res).max()))
        ok = worst_res <= 10 * tol
        _report("criterion-7d planner-residuals", ok, f"max residual {worst_res:.2e} <= 10*tol")
        assert worst_res <= 10 * tol

    def test_solution_structure_on_finite_sets(self):
        ex = example_a(1.0, 2.0, 4.0)
        tol = 1e-10
        plan = robust_rvi_eval(ex.mdp, ex.policy, ex.uset, tol=tol)
        picked = worst_case_kernel(ex.mdp, ex.uset, plan.value)
        enum = finite_set_enumeration(ex.mdp, ex.kernels, ex.policy)
        picked_gain = gain_and_bias(ex.mdp.with_kernel(picked), ex.policy).gain
        bias = gain_and_bias(ex.mdp.with_kernel(picked), ex.policy, normalization=None).bias
        ok = abs(picked_gain - enum.gain) <= 1e-9 and span(plan.value - bias) <= 10 * tol
        _report(
            "criterion-7e solution-structure",
            ok,
            f"picked kernel attains worst gain, span(V - bias)={span(plan.value - bias):.2e}",
        )
        assert abs(picked_gain - enum.gain) <= 1e-9
        assert span(plan.value - bias) <= 10 * tol

    def test_reproducibility_byte_equality(self, tmp_path):
        cfg = _eval_config(n_iters=500, n_seeds=3, record_every=5)
        run_eval_experiment(cfg, tmp_path / "a")
        run_eval_experiment(cfg, tmp_path / "b")
        same = (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
        _report("criterion-7f reproducibility", same, "identical config+seed => identical trace.csv bytes")
        assert same


@pytest.mark.parametrize("name", ["tv", "chi2", "kl", "wasserstein"])
def test_criterion_8_variance_proxy(name):
    spec = _families(0.2)[name]
    kernel = np.zeros((3, 1, 3))
    kernel[:, 0, :] = MLMC_ROW
    source = KernelSampler(TabularMDP(3, 1, kernel, np.zeros((3, 1))))
    cfg = MlmcConfig(psi=default_psi(spec))
    rng = np.random.default_rng(8000)
    buckets = []
    for scale in (1.0, 10.0, 100.0):
        v = scale * MLMC_V / MLMC_V.max()  # sup norm exactly `scale`
        vals, _ = sigma_hat_for_pairs(source, spec, [(0, 0)] * 30_000, v, cfg, rng)
        buckets.append(vals.var(ddof=1) / (1.0 + scale**2))
    ok = max(buckets) <= 10 * min(buckets)
    _report(
        f"criterion-8 variance-proxy/{name}",
        ok,
        f"Var/(1+||V||^2) buckets {[f'{b:.4f}' for b in buckets]}",
    )
    assert max(buckets) <= 10 * min(buckets)


class TestSweepShapes:
    """Shape-level reproduction of the perturbation figures (crossover exists)."""

    def test_recycling_robot_crossover(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "environment": {
                    "id": "recycling_robot",
                    "params": {"r_search": 4.0, "r_wait": 1.0, "rescue_penalty": -3.0},
                },
                "uncertainty": {"kind": "contamination", "delta": 0.4},
                "algorithm": "robustness-sweep",
                "n_iters": 20_000,
                "base_seed": 0,
                "sweep": {"family": "recycling_robot", "x_grid": [0.0, 0.1, 0.2, 0.3, 0.4]},
            }
        )
        doc = run_robustness_sweep(cfg, tmp_path)
        rows = np.array(doc["rows"])
        small_favors_vanilla = rows[0, 2] > rows[0, 1]
        large_favors_robust = rows[-1, 1] > rows[-1, 2]
        ok = small_favors_vanilla and large_favors_robust
        _report(
            "sweep-shape recycling-robot",
            ok,
            f"x=0: robust {rows[0, 1]:+.3f} vs vanilla {rows[0, 2]:+.3f}; "
            f"x=0.4: {rows[-1, 1]:+.3f} vs {rows[-1, 2]:+.3f}",
        )
        assert small_favors_vanilla
        assert large_favors_robust

    def test_inventory_crossover(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {
                "environment": {"id": "inventory", "params": {"hold_rate": 2.0}},
                "uncertainty": {"kind": "kl", "delta": 0.4},
                "algorithm": "robustness-sweep",
                "n_iters": 5_000,
                "base_seed": 0,
                "estimator": {"psi": 0.25},
                "sweep": {"family": "inventory_b", "m": 0, "b_grid": [0.0, 0.25, 0.5, 0.75, 0.9]},
            }
        )
        doc = run_robustness_sweep(cfg, tmp_path)
        rows = np.array(doc["rows"])
        small_favors_vanilla = rows[0, 2] > rows[0, 1]
        large_favors_robust = rows[-1, 1] > rows[-1, 2]
        ok = small_favors_vanilla and large_favors_robust
        _report(
            "sweep-shape inventory",
            ok,
            f"b=0: robust {rows[0, 1]:+.2f} vs vanilla {rows[0, 2]:+.2f}; "
            f"b=0.9: {rows[-1, 1]:+.2f} vs {rows[-1, 2]:+.2f}",
        )
        assert small_favors_vanilla
        assert large_favors_robust

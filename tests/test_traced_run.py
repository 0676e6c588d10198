"""The benchmark's traced run wraps rarl entry points by name; these must stay hookable.

``perfbench/tracer.py`` counts estimates and samples from the costs that
``learners.sigma_hat_for_pairs`` returns and times ``KernelSampler`` draws. It counts
planner iterations from the results of ``planners.robust_rvi_eval`` and
``robust_rvi_control``. The harness runners reach the learners and planners through the names
``harness`` imports, which the tracer patches too. The tracer and the benchmark clock replace
``support_batch`` and ``worst_row`` on each family class through the class's own ``__dict__``.
A refactor that bypasses one of those names would only break ``perfbench/run.py --trace 1``;
these tests catch it in the main suite.
"""

import pathlib
import sys

import numpy as np
import pytest

from rarl import harness, learners, planners
from rarl.environments import garnet
from rarl.estimators import KernelSampler
from rarl.learners import Constant
from rarl.mdp import OffsetFn, Policy
from rarl.uncertainty import FAMILIES, ChiSquare, TotalVariation

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, installed  # noqa: E402


def test_traced_learners_count_every_estimate_and_sample():
    m = garnet(5, 3, seed=254)
    src = KernelSampler.from_mdp(m)
    spec = TotalVariation(0.2)
    tracer = Tracer()
    with installed(tracer):
        td = learners.robust_rvi_td(
            src, m, Policy.uniform(5, 3), spec, OffsetFn.mean(), Constant(0.01), 20, None, np.random.default_rng(1)
        )
        q = learners.robust_rvi_q(src, m, spec, OffsetFn.mean(), Constant(0.01), 20, None, np.random.default_rng(2))
    assert tracer.counts[("iters",)] == 40
    assert tracer.counts[("estimates",)] == 20 * 15 + 20 * 15
    assert tracer.counts[("samples",)] == td.costs[-1] + q.costs[-1]
    assert sum(n for key, n in tracer.counts.items() if key[0] == "level") == 600
    # each run draws its 20 iterations in one block: one first-draw and one count call
    assert tracer.total(2, "estimators.sample") == 4
    assert tracer.total(2, "estimators", "sigma_hat_for_pairs") == 40
    assert tracer.total(2, "uncertainty", "support_batch", "tv") == 40


def test_traced_planners_count_every_iteration_and_worst_kernel():
    m = garnet(5, 3, seed=254)
    spec = ChiSquare(0.3)
    tracer = Tracer()
    with installed(tracer):
        ev = planners.robust_rvi_eval(m, Policy.uniform(5, 3), spec)
        ct = planners.robust_rvi_control(m, spec)
    assert ev.damped == ct.damped == 0
    assert (ev.iterations, ct.iterations) == (4, 4)
    assert tracer.counts[("sweeps", "chi2", "eval")] == 4
    assert tracer.counts[("sweeps", "chi2", "control")] == 4
    assert tracer.total(2, "planners", "robust_rvi_eval", "chi2") == 1
    assert tracer.total(2, "planners", "robust_rvi_control", "chi2") == 1
    # policy-iteration steps solve through the family's ``_solve`` and ``_worst``, which the tracer
    # does not wrap; it sees only control's closing Q-residual support table
    assert tracer.total(2, "planners", "worst_case_kernel") == 0
    assert tracer.total(2, "uncertainty", "worst_row") == 0
    assert tracer.total(2, "uncertainty", "support_batch", "chi2") == 1


@pytest.mark.parametrize("cls", FAMILIES.values(), ids=list(FAMILIES))
def test_family_classes_define_their_own_wrapped_methods(cls):
    # the tracer and the benchmark clock read cls.__dict__[name]; an inherited method is a KeyError
    for name in ("support_batch", "worst_row"):
        assert name in cls.__dict__, f"{cls.__name__}.{name} must be defined on the class itself"


def test_traced_harness_runs_one_learner_and_one_planner_span_each(tmp_path):
    def config(algorithm):
        return harness.ExperimentConfig.from_dict(
            {
                "environment": {"id": "garnet", "params": {"n_states": 4, "n_actions": 2, "seed": 5}},
                "uncertainty": {"kind": "tv", "delta": 0.2},
                "algorithm": algorithm,
                "n_iters": 20,
                "n_seeds": 2,
            }
        )

    tracer = Tracer()
    with installed(tracer):
        harness.run_eval_experiment(config("td"), tmp_path / "eval")
        harness.run_control_experiment(config("q"), tmp_path / "control")
    for runner, learner, planner in (
        ("run_eval_experiment", "robust_rvi_td", "robust_rvi_eval"),
        ("run_control_experiment", "robust_rvi_q", "robust_rvi_control"),
    ):
        assert tracer.total(2, "harness", runner, "tv") == 1
        assert tracer.total(2, "learners", learner, "tv") == 1
        assert tracer.total(2, "planners", planner, "tv") == 1
    assert tracer.counts[("iters",)] == 40

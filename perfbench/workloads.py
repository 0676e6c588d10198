"""The benchmark's three workloads and the checks on their outputs.

Every workload runs one fixed job per ambiguity family, closed loop (``jobs=1``:
each call starts when the previous one returns), through rarl's public API.
The seed feeds the learners' RNG streams; the problem instances are fixed.
DESIGN.md says why each workload exists and which layer should move which
end-to-end metric on which workload.

A job makes its rarl calls through a ``clock.Clock``, which times each call
and normalises it to the machine's speed; only those calls are timed. A job
returns its outputs; ``check`` verifies them after the timed
phase and returns the number of failed operations with the reasons. An
operation is one (family, seed) learner run or one certified planner solve.
"""

from __future__ import annotations

import os

import numpy as np

from rarl import environments as envs
from rarl import harness, learners, mdp, planners
from rarl.estimators import KernelSampler
from rarl.learners import Constant
from rarl.mdp import OffsetFn, Policy, gain_and_bias
from rarl.uncertainty import ChiSquare, Contamination, KLDivergence, TotalVariation, Wasserstein

from clock import Clock

FAMILIES = ("contamination", "tv", "chi2", "kl", "wasserstein")
# Radii of the sizing probes. All stay far below delta ~ 2, where the KL bracket
# defect (ROADMAP "Known defect") starts, so this benchmark does not cover it.
RADII = {"contamination": 0.4, "tv": 0.2, "chi2": 0.3, "kl": 0.3, "wasserstein": 0.3}
CLASSES = {
    "contamination": Contamination,
    "tv": TotalVariation,
    "chi2": ChiSquare,
    "kl": KLDivergence,
    "wasserstein": Wasserstein,
}
GARNET = {"n_states": 5, "n_actions": 3, "seed": 254}  # the criteria-4/5 instance
STEP = 0.01
PLANNER_TOL = 1e-9
GAIN_TOL = 1e-6  # exact gain under the worst-case kernel vs the planner gain
BALL_RTOL = 1e-9  # a worst row may exceed the radius by this share
ROW_TOL = 1e-7  # |q.v - sigma| <= ROW_TOL * max(1, |v|_inf) for a worst row q


def in_ball(uset, p: np.ndarray, q: np.ndarray) -> bool:
    """q is a probability row inside the family's ball around p."""
    if np.any(q < -1e-12) or abs(q.sum() - 1.0) > 1e-9:
        return False
    if isinstance(uset, Contamination):
        return bool(np.all(q >= (1.0 - uset.delta) * p - 1e-12))
    if isinstance(uset, TotalVariation):
        return 0.5 * np.abs(q - p).sum() <= uset.delta * (1.0 + BALL_RTOL)
    if isinstance(uset, (ChiSquare, KLDivergence)):
        return uset.divergence(q, p) <= uset.delta * (1.0 + BALL_RTOL)
    return uset.distance_pow(p, q) <= uset.delta**uset.order * (1.0 + BALL_RTOL)


def check_worst_rows(uset, model, kernel: np.ndarray, v: np.ndarray) -> list[str]:
    """Support values at the nominal rows equal q.v of the worst rows q, which lie in the ball."""
    rows = model.kernel.reshape(-1, model.n_states)
    worst = kernel.reshape(-1, model.n_states)
    gap = float(np.abs(worst @ v - uset.support_batch(rows, v)).max())
    failures = []
    if not gap <= ROW_TOL * max(1.0, float(np.abs(v).max())):
        failures.append(f"support differs from its worst row's value by {gap:.2e}")
    outside = sum(not in_ball(uset, p, q) for p, q in zip(rows, worst))
    if outside:
        failures.append(f"{outside} worst rows lie outside the ball")
    return failures


def check_solve(uset, model, policy, gain, v, residual, kernel) -> list[str]:
    """Certificate of a planner solve: residual, exact gain under the worst kernel, worst rows."""
    failures = []
    res = float(np.abs(residual).max())
    if not res <= 10 * PLANNER_TOL:
        failures.append(f"max |robust Bellman residual| {res:.2e} > 10 tol")
    try:
        exact = gain_and_bias(model.with_kernel(kernel), policy).gain
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        failures.append(f"no exact gain under the worst-case kernel: {exc}")
    else:
        if not abs(exact - gain) <= GAIN_TOL:
            failures.append(f"worst-case kernel gain {exact:.9f} != planner gain {gain:.9f}")
    return failures + check_worst_rows(uset, model, kernel, v)


def plan_and_certify(model, uset, policy, clock) -> dict:
    """Eval and control solves with the inputs of their certificates, timed per solve."""
    call = clock.call
    t0 = clock.norm
    ev = call(planners.robust_rvi_eval, model, policy, uset, tol=PLANNER_TOL)
    out = {
        "eval": (
            policy, ev.gain, ev.value,
            call(mdp.robust_bellman_residual, model, policy, uset, ev.gain, ev.value),
            call(planners.worst_case_kernel, model, uset, ev.value),
        )
    }
    t1 = clock.norm
    ct = call(planners.robust_rvi_control, model, uset, tol=PLANNER_TOL)
    vq = ct.q.max(axis=1)
    out["control"] = (
        ct.policy, ct.gain, vq,
        call(mdp.robust_bellman_residual, model, ct.policy, uset, ct.gain, vq),
        call(planners.worst_case_kernel, model, uset, vq),
    )
    out["op_s"] = [t1 - t0, clock.norm - t1]
    return out


class Workload:
    """One fixed job per family; ``sizes`` and ``classes`` are overridable for tests."""

    name = ""
    SIZES: dict = {}

    def __init__(self, seed: int, workdir: str | None = None, families=FAMILIES, classes=None, sizes=None):
        self.seed = seed
        self.workdir = workdir
        self.families = tuple(families)
        self.classes = {**CLASSES, **(classes or {})}
        self.sizes = {**self.SIZES, **(sizes or {})}

    def round_order(self) -> list[str]:
        """The jobs of one round, by family, in the order they run."""
        return list(self.families)

    def make_set(self, family: str):
        return self.classes[family](RADII[family])

    def _warm_up(self, models) -> None:
        """One support solve per family and state count; fills lazy caches."""
        for model in models:
            v = model.reward.max(axis=1)
            for uset in self.usets.values():
                uset.support_batch(model.kernel.reshape(-1, model.n_states), v)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, family: str, clock):
        raise NotImplementedError

    def ops(self, family: str) -> int:
        raise NotImplementedError

    def check(self, family: str, out) -> tuple[int, list[str]]:
        raise NotImplementedError

    def fingerprint(self, out):
        """Exact identity of a job's result, compared across rounds of one run."""
        raise NotImplementedError

    def op_seconds(self, out) -> list[float]:
        """Per-operation times the job measured itself (learner runs are traced instead)."""
        return []


class GarnetExperiment(Workload):
    """``harness.run_eval_experiment`` (TD, uniform policy) and
    ``harness.run_control_experiment`` (Q-learning) on garnet(5, 3, seed=254).

    Contamination and TV run horizons that converge and are checked against
    the planner gain at the tolerances of criteria 4 and 5. chi2, KL and
    Wasserstein run short smoke horizons: their support solve dominates and
    divergence-learn covers it, but every family must report a wall time here.
    """

    name = "garnet-experiment"
    # family -> (seeds, iterations, tail fraction)
    SIZES = {
        "contamination": (2, 3000, 0.1),
        "tv": (1, 1000, 0.2),
        "chi2": (1, 10, 0.2),
        "kl": (1, 20, 0.2),
        "wasserstein": (1, 15, 0.2),
    }
    TAIL_TOL = {"contamination": 0.05, "tv": 0.1}

    def setup(self):
        self.model = envs.garnet(**GARNET)
        self.usets = {f: self.make_set(f) for f in self.families}
        self._warm_up([self.model])
        self._certified: dict = {}

    def config(self, family, algorithm):
        n_seeds, n_iters, tail = self.sizes[family]
        return harness.ExperimentConfig.from_dict(
            {
                "environment": {"id": "garnet", "params": dict(GARNET)},
                "uncertainty": {"kind": family, "delta": RADII[family]},
                "algorithm": algorithm,
                "schedule": {"kind": "constant", "alpha": STEP},
                "n_iters": n_iters,
                "n_seeds": n_seeds,
                "base_seed": self.seed,
                "record_every": 10,
                "tail_fraction": tail,
            }
        )

    def run(self, family, clock):
        out = os.path.join(self.workdir, family)
        ev = clock.call(harness.run_eval_experiment, self.config(family, "td"), os.path.join(out, "eval"))
        ct = clock.call(harness.run_control_experiment, self.config(family, "q"), os.path.join(out, "control"))
        return ev, ct

    def ops(self, family):
        return 2 * self.sizes[family][0]

    def certified(self, family):
        """The planner baselines of both experiments, solved and certified here."""
        if family not in self._certified:
            uset, model = self.usets[family], self.model
            solves = plan_and_certify(model, uset, Policy.uniform(model.n_states, model.n_actions), Clock())
            self._certified[family] = {
                kind: (solves[kind][1], check_solve(uset, model, *solves[kind])) for kind in ("eval", "control")
            }
        return self._certified[family]

    def check(self, family, out):
        n_seeds = self.sizes[family][0]
        failed, reasons = 0, []
        for kind, summary in zip(("eval", "control"), out):
            gain, failures = self.certified(family)[kind]
            failures = [f"planner certificate: {msg}" for msg in failures]
            tails = np.asarray(summary["per_seed_tail"], dtype=float)
            if summary["n_seeds_done"] != n_seeds or not np.all(np.isfinite(tails)):
                failures.append(f"{summary['n_seeds_done']}/{n_seeds} seeds finished with finite iterates")
            if not abs(summary["baseline_gain"] - gain) <= 1e-12 * (1.0 + abs(gain)):
                failures.append(f"harness baseline {summary['baseline_gain']!r} != planner gain {gain!r}")
            tol = self.TAIL_TOL.get(family)
            if tol is not None and not abs(float(tails.mean()) - gain) <= tol:
                failures.append(f"seed-mean tail {tails.mean():.4f} not within {tol} of gain {gain:.4f}")
            if failures:
                failed += n_seeds
                reasons += [f"{kind}: {msg}" for msg in failures]
        return failed, reasons

    def fingerprint(self, out):
        return tuple((s["baseline_gain"], tuple(s["per_seed_tail"])) for s in out)


class DivergenceLearn(Workload):
    """``learners.robust_rvi_q`` called directly on garnet(5, 3) (S=5) and
    inventory() (S=17); each size takes about half of a family's job.

    The first iteration starts from Q = 0, where every support value is the
    constant row value and no solve runs, so each size runs at least two.
    """

    name = "divergence-learn"
    # family -> (iterations on garnet, iterations on inventory)
    SIZES = {
        "contamination": (1200, 800),
        "tv": (140, 80),
        "chi2": (20, 3),
        "kl": (25, 6),
        "wasserstein": (30, 2),
    }

    def setup(self):
        self.models = [envs.garnet(**GARNET), envs.inventory()]
        self.samplers = [KernelSampler.from_mdp(m) for m in self.models]
        self.usets = {f: self.make_set(f) for f in self.families}
        self._warm_up(self.models)

    def run(self, family, clock):
        finals = []
        for index, (model, sampler, n_iters) in enumerate(zip(self.models, self.samplers, self.sizes[family])):
            rng = np.random.default_rng(np.random.SeedSequence((self.seed, FAMILIES.index(family), index)))
            trace = clock.call(
                learners.robust_rvi_q,
                sampler, model, self.usets[family], OffsetFn.mean(), Constant(STEP), n_iters, None, rng,
            )
            finals.append(trace.final)
        return finals

    def ops(self, family):
        return len(self.models)

    def check(self, family, out):
        failed, reasons = 0, []
        uset = self.usets[family]
        for model, q in zip(self.models, out):
            if not np.all(np.isfinite(q)):
                failures = ["non-finite Q table"]
            else:
                v = q.max(axis=1)
                failures = check_worst_rows(uset, model, planners.worst_case_kernel(model, uset, v), v)
            if failures:
                failed += 1
                reasons += [f"S={model.n_states}: {msg}" for msg in failures]
        return failed, reasons

    def fingerprint(self, out):
        return tuple(q.tobytes() for q in out)


class InventoryPlan(Workload):
    """``planners.robust_rvi_eval`` (uniform policy) and
    ``planners.robust_rvi_control`` on inventory() to tol 1e-9, each certified
    with ``mdp.robust_bellman_residual`` and ``planners.worst_case_kernel``.
    The seed does not enter: planning draws no samples."""

    name = "inventory-plan"
    # chi2 and Wasserstein jobs take 10-12 s each, contamination and TV jobs
    # 10-20 ms and KL 2 s. The short jobs run several times, in a group before
    # each long one, so their samples span the round.
    GROUP = {"contamination": 6, "tv": 6, "kl": 1}

    def setup(self):
        self.model = envs.inventory()
        self.policy = Policy.uniform(self.model.n_states, self.model.n_actions)
        self.usets = {f: self.make_set(f) for f in self.families}
        self._warm_up([self.model])

    def round_order(self):
        group = [f for f in self.families if f in self.GROUP for _ in range(self.GROUP[f])]
        long_jobs = [f for f in self.families if f not in self.GROUP]
        return [job for family in long_jobs for job in group + [family]] if long_jobs else group

    def run(self, family, clock):
        return plan_and_certify(self.model, self.usets[family], self.policy, clock)

    def ops(self, family):
        return 2

    def check(self, family, out):
        failed, reasons = 0, []
        for kind in ("eval", "control"):
            failures = check_solve(self.usets[family], self.model, *out[kind])
            if failures:
                failed += 1
                reasons += [f"{kind}: {msg}" for msg in failures]
        return failed, reasons

    def fingerprint(self, out):
        return tuple((out[k][1], out[k][2].tobytes()) for k in ("eval", "control"))

    def op_seconds(self, out):
        return out["op_s"]


WORKLOADS = {w.name: w for w in (GarnetExperiment, DivergenceLearn, InventoryPlan)}

"""Experiment harness: multi-seed training, planner baselines, sweeps, checks.

Runs are driven by a JSON config (environment id + params, uncertainty set,
algorithm, offset, step schedule, horizons, seed counts). Per-seed RNG streams
are derived as ``SeedSequence((base_seed, seed_index))``, so traces are
reproducible byte-for-byte and adding seeds never changes earlier ones. All
seeds run in one batched learner call; each seed's trace is the same as when
it runs alone.

Outputs per experiment directory:
- ``trace.csv`` with header ``iter,mean,p95,p05,baseline`` (nearest-rank
  percentiles across seeds) and a matching ``plot.svg``;
- ``summary.json`` with per-seed tail estimates and the planner baseline,
  with the planner's iterations, ``damped`` count and residual under ``planner``;
- control runs add ``policy.json`` (per-seed and modal greedy policies);
- sweeps write ``sweep.csv`` with header
  ``perturbation,robust_gain,nonrobust_gain`` and ``sweep.svg``;
- ``support-check`` writes a pass/fail table over the support-function and
  estimator suites.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from . import environments as envs
from .estimators import KernelSampler, MlmcConfig, default_psi, sigma_hat_for_pairs
from .learners import Constant, RobbinsMonro, RunTrace, robust_rvi_q, robust_rvi_td
from .mdp import OffsetFn, Policy, TabularMDP, greedy_policy
from .planners import robust_rvi_control, robust_rvi_eval
from .uncertainty import (
    FAMILIES,
    Contamination,
    TotalVariation,
    UncertaintySet,
    is_json_number,
    support_oracle_grid,
    uncertainty_from_json,
)
from .svgplot import line_plot_svg


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


class RunFailure(RuntimeError):
    """Too many per-seed runs failed, or the planner failed."""


# each CLI command's one algorithm, and the fields it does not read with the one value each may take;
# a config written for another command, or setting a field its command ignores, fails at once
COMMANDS = {
    "eval": ("td", {}),
    "control": ("q", {"policy": "uniform"}),
    "plan": ("planner", {}),
    "sweep": ("robustness-sweep", {"policy": "uniform", "n_seeds": 1}),
    "support-check": ("support-check", {}),
}


def _integer(name: str, value, low: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None and value < low):
        raise ConfigError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return value


def _number(name: str, value) -> float:
    if not is_json_number(value):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _positive_number(name: str, value) -> float:
    if not is_json_number(value) or not math.isfinite(value) or value <= 0:
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


def _known_fields(section: str, doc: dict, fields) -> None:
    """Reject a section's fields that nothing reads, so a typo cannot fall back to a default."""
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"{section} has unknown field(s) {unknown}; expected some of {sorted(fields)}")


@dataclass
class ExperimentConfig:
    environment: dict
    uncertainty: dict
    algorithm: str
    offset: dict = field(default_factory=lambda: {"kind": "mean"})
    schedule: dict = field(default_factory=lambda: {"kind": "constant", "alpha": 0.01})
    n_iters: int = 10_000
    n_seeds: int = 1
    base_seed: int = 0
    estimator: dict = field(default_factory=dict)
    policy: Any = "uniform"
    record_every: int = 1
    tail_fraction: float = 0.1
    planner_tol: float = 1e-9
    sweep: dict | None = None
    support_check: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        try:
            cfg = ExperimentConfig(**doc)
        except TypeError as exc:
            raise ConfigError(f"bad config fields: {exc}") from exc
        if cfg.algorithm not in {algorithm for algorithm, _ in COMMANDS.values()}:
            raise ConfigError(f"unknown algorithm {cfg.algorithm!r}")
        for name in ("environment", "uncertainty", "offset", "schedule", "estimator", "support_check", "sweep"):
            value = getattr(cfg, name)
            if not isinstance(value, dict) and not (name == "sweep" and value is None):
                raise ConfigError(f"{name} must be a JSON object, got {value!r}")
        _support_check_options(cfg.support_check)
        for name, low in (("n_iters", 1), ("n_seeds", 1), ("base_seed", 0), ("record_every", 1)):
            _integer(name, getattr(cfg, name), low)
        for name in ("tail_fraction", "planner_tol"):
            _positive_number(name, getattr(cfg, name))
        if cfg.tail_fraction > 1.0:
            raise ConfigError("tail_fraction must lie in (0, 1]")
        return cfg

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        return asdict(self)


# environment id -> constructor of its nominal MDP from the config's params
ENVIRONMENTS = {
    "garnet": envs.garnet, "example_a": lambda **params: envs.example_a(**params).mdp,
    "recycling_robot": envs.recycling_robot, "inventory": envs.inventory,
    "one_loop": lambda **params: envs.one_loop(**params)[0], "frozen_lake": envs.frozen_lake_4x4,
}


def build_environment(doc: dict) -> TabularMDP:
    _known_fields("environment", doc, ("id", "params"))
    env_id = doc.get("id")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"environment.params must be a JSON object, got {params!r}")
    if not isinstance(env_id, str) or env_id not in ENVIRONMENTS:
        raise ConfigError(f"unknown environment id {env_id!r}")
    try:
        return ENVIRONMENTS[env_id](**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad environment config: {exc}") from exc


def build_uncertainty(doc: dict) -> UncertaintySet:
    try:
        return uncertainty_from_json(doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_offset(doc: dict, mdp: TabularMDP, q_table: bool) -> OffsetFn:
    """The offset; with ``q_table`` it reads the flattened S*A-entry Q table, as control does, so a
    reference state may be any of its entries, and otherwise the S-entry value."""
    kind = doc.get("kind", "mean")
    if kind == "mean":
        _known_fields("offset", doc, ("kind",))
        return OffsetFn.mean()
    if kind == "state":
        _known_fields("offset", doc, ("kind", "state"))
        state = _integer("offset.state", doc.get("state", 0), 0)
        bound, name = (mdp.n_states * mdp.n_actions, "n_states * n_actions") if q_table else (mdp.n_states, "n_states")
        if state >= bound:
            raise ConfigError(f"offset.state must be below {name} = {bound}, got {state}")
        return OffsetFn.reference_state(state)
    raise ConfigError(f"unknown offset kind {kind!r}")


def build_schedule(doc: dict):
    """The step schedule; its JSON types are checked here, its ranges by the schedule itself."""
    kinds = {"constant": (Constant, {"alpha": 0.01}), "robbins_monro": (RobbinsMonro, {"c": 1.0, "offset": 1.0})}
    kind = doc.get("kind", "constant")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    schedule, defaults = kinds[kind]
    _known_fields("schedule", doc, ("kind", *defaults))
    params = {name: _number(f"schedule.{name}", doc.get(name, default)) for name, default in defaults.items()}
    try:
        return schedule(**params)
    except ValueError as exc:
        raise ConfigError(f"schedule.{exc}") from exc


def build_policy(doc, mdp: TabularMDP) -> Policy:
    if doc == "uniform":
        return Policy.uniform(mdp.n_states, mdp.n_actions)
    deterministic = isinstance(doc, dict) and list(doc) == ["deterministic"]
    if not (deterministic or isinstance(doc, list)):
        raise ConfigError(f"unsupported policy spec {doc!r}")
    try:
        policy = Policy.deterministic(doc["deterministic"], mdp.n_actions) if deterministic else Policy(doc)
    except (IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad policy: {exc}") from exc
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ConfigError(f"bad policy: shape {policy.probs.shape} != {(mdp.n_states, mdp.n_actions)}")
    return policy


def build_mlmc_config(doc: dict, spec: UncertaintySet) -> MlmcConfig:
    """The MLMC settings, checked for every family; the contamination estimator reads none of them.
    Their JSON types are checked here, their ranges by ``MlmcConfig``."""
    _known_fields("estimator", doc, ("psi", "max_level"))
    psi = default_psi(spec) if doc.get("psi") is None else _number("estimator.psi", doc["psi"])
    max_level = _integer("estimator.max_level", doc.get("max_level", 20))
    try:
        return MlmcConfig(psi, max_level)
    except ValueError as exc:
        raise ConfigError(f"estimator.{exc}") from exc


def seed_stream(base_seed: int, seed_index: int) -> np.random.Generator:
    """Documented split: stream i is PCG64 seeded by SeedSequence((base, i))."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, seed_index)))


def _run_seeds(cfg: ExperimentConfig, learner) -> tuple[RunTrace, list[str]]:
    """Every seed in one batched learner call; returns its trace, which holds the finished seeds in
    seed order, and the errors of the seeds that diverged."""
    batch = learner([seed_stream(cfg.base_seed, i) for i in range(cfg.n_seeds)])
    errors = [f"seed {i}: {message}" for i, message in batch.errors.items()]
    if len(errors) > 0.1 * cfg.n_seeds:
        raise RunFailure(f"{len(errors)}/{cfg.n_seeds} seeds failed: {errors[:3]}")
    return batch, errors


def nearest_rank_percentile(values: np.ndarray, pct: float) -> np.ndarray:
    """Nearest-rank percentile along axis 0."""
    values = np.sort(np.asarray(values, dtype=float), axis=0)
    n = values.shape[0]
    rank = min(max(int(math.ceil(pct / 100.0 * n)), 1), n)
    return values[rank - 1]


def _write_trace_csv(path, iters, mean, p95, p05, baseline) -> None:
    with open(path, "w") as fh:
        fh.write("iter,mean,p95,p05,baseline\n")
        for i, m, hi, lo in zip(iters, mean, p95, p05):
            fh.write(f"{int(i)},{float(m)!r},{float(hi)!r},{float(lo)!r},{float(baseline)!r}\n")


def _aggregate_and_emit(cfg: ExperimentConfig, batch: RunTrace, baseline: float, out_dir, title: str):
    """Write ``trace.csv`` and ``plot.svg`` across the seeds of a batched trace; returns each seed's
    tail mean."""
    mean = batch.f_values.mean(axis=0)
    p95 = nearest_rank_percentile(batch.f_values, 95.0)
    p05 = nearest_rank_percentile(batch.f_values, 5.0)
    _write_trace_csv(os.path.join(out_dir, "trace.csv"), batch.iters, mean, p95, p05, baseline)
    line_plot_svg(
        os.path.join(out_dir, "plot.svg"),
        batch.iters,
        {"mean over seeds": mean},
        band=(p05, p95),
        baseline=baseline,
        title=title,
        xlabel="iteration",
        ylabel="offset value",
    )
    return batch.tail_mean(cfg.tail_fraction).tolist()


def _planner_stats(plan) -> dict:
    """How the planner certified its baseline: steps, ``damped`` count and final residual."""
    return {"iterations": plan.iterations, "damped": plan.damped, "residual": plan.residual}


def _prologue(cfg: ExperimentConfig, command: str, out_dir) -> tuple[TabularMDP, UncertaintySet]:
    """Check ``cfg`` against ``COMMANDS[command]``, build its environment and uncertainty set, then
    make ``out_dir``."""
    algorithm, unread = COMMANDS[command]
    if cfg.algorithm != algorithm:
        raise ConfigError(f"algorithm must be {algorithm!r} for {command}, got {cfg.algorithm!r}")
    for name, value in unread.items():
        if getattr(cfg, name) != value:
            raise ConfigError(f"{name} is not read by {command}; got {getattr(cfg, name)!r}")
    mdp, spec = build_environment(cfg.environment), build_uncertainty(cfg.uncertainty)
    os.makedirs(out_dir, exist_ok=True)
    return mdp, spec


def _run_experiment(cfg: ExperimentConfig, out_dir, control: bool) -> dict:
    """Multi-seed TD (``rarl eval``) or Q-learning (``rarl control``) run against its planner baseline.

    Every input is built and checked before the planner or any seed runs, so a bad config field
    fails at once. Learners and planners are looked up as module names at call time.
    """
    mdp, spec = _prologue(cfg, "control" if control else "eval", out_dir)
    offset = build_offset(cfg.offset, mdp, control)
    policy = None if control else build_policy(cfg.policy, mdp)
    schedule = build_schedule(cfg.schedule)
    mlmc = build_mlmc_config(cfg.estimator, spec)
    source = KernelSampler(mdp)
    if control:
        learner = functools.partial(robust_rvi_q, source, mdp, spec)
        plan = robust_rvi_control(mdp, spec, offset, tol=cfg.planner_tol)
    else:
        learner = functools.partial(robust_rvi_td, source, mdp, policy, spec)
        plan = robust_rvi_eval(mdp, policy, spec, offset, tol=cfg.planner_tol)
    learner = functools.partial(learner, offset, schedule, cfg.n_iters, mlmc, record_every=cfg.record_every)
    batch, errors = _run_seeds(cfg, learner)
    title = "worst-case optimal control" if control else "worst-case policy evaluation"
    tails = _aggregate_and_emit(cfg, batch, plan.gain, out_dir, title)
    summary = {
        "baseline_gain": plan.gain,
        "final_mean": float(np.mean(tails)),
        "abs_error": abs(float(np.mean(tails)) - plan.gain),
        "per_seed_tail": tails,
    }
    if control:
        per_seed_actions = [greedy_policy(q).actions().tolist() for q in batch.final]
        modal, modal_count = Counter(map(tuple, per_seed_actions)).most_common(1)[0]  # first seen wins a tie
        planner_policy = plan.policy.actions().tolist()
        policy_doc = {
            "planner_policy": planner_policy,
            "modal_policy": list(modal),
            "modal_count": modal_count,
            "per_seed_policies": per_seed_actions,
        }
        with open(os.path.join(out_dir, "policy.json"), "w") as fh:
            json.dump(policy_doc, fh, indent=2)
        summary.update(
            modal_policy=list(modal), planner_policy=planner_policy, modal_matches_planner=list(modal) == planner_policy
        )
    summary.update(seed_errors=errors, n_seeds_done=len(batch.final), planner=_planner_stats(plan))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def run_eval_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Multi-seed policy-evaluation experiment (algorithm "td") with a planner baseline."""
    return _run_experiment(cfg, out_dir, control=False)


def run_control_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Multi-seed control experiment (algorithm "q"); also records final greedy policies."""
    return _run_experiment(cfg, out_dir, control=True)


def run_planner(cfg: ExperimentConfig, out_dir) -> dict:
    """Model-based baseline only; writes baseline.json with the planner's iterations, ``damped`` count and residual."""
    mdp, spec = _prologue(cfg, "plan", out_dir)
    offset = build_offset(cfg.offset, mdp, cfg.policy == "optimal")
    if cfg.policy != "optimal":
        policy = build_policy(cfg.policy, mdp)
        res = robust_rvi_eval(mdp, policy, spec, offset, tol=cfg.planner_tol)
        doc = {"gain": res.gain, "value": res.value.tolist()}
    else:
        res = robust_rvi_control(mdp, spec, offset, tol=cfg.planner_tol)
        doc = {
            "gain": res.gain,
            "q": res.q.tolist(),
            "policy": res.policy.actions().tolist(),
        }
    doc.update(_planner_stats(res))
    with open(os.path.join(out_dir, "baseline.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    return doc


# each sweep family's environment id, and its own fields next to "family" and "start_state"
_SWEEP_FAMILIES = {
    "recycling_robot": ("recycling_robot", ("points_per_axis", "x_grid")),
    "inventory_b": ("inventory", ("m", "b_grid")),
    "inventory_m": ("inventory", ("b", "m_grid")),
    "one_loop_mix": ("one_loop", ("x_grid",)),
}


def _perturbation_grid(cfg: ExperimentConfig):
    """Yield (label, [perturbed MDPs]) per grid point of the sweep family."""
    sweep = cfg.sweep or {}
    family = sweep.get("family")
    if family not in _SWEEP_FAMILIES:
        raise ConfigError(f"unknown sweep family {family!r}")
    env_id, fields = _SWEEP_FAMILIES[family]
    if cfg.environment.get("id") != env_id:
        raise ConfigError(f"sweep family {family!r} perturbs environment {env_id!r}, got {cfg.environment.get('id')!r}")
    _known_fields("sweep", sweep, ("family", "start_state", *fields))
    params = dict(cfg.environment.get("params", {}))
    if family == "recycling_robot":
        nominal_alpha = params.pop("alpha", 0.5)
        nominal_beta = params.pop("beta", 0.5)
        k = _integer("sweep.points_per_axis", sweep.get("points_per_axis", 3), 1)
        for x in sweep.get("x_grid", [0.0, 0.1, 0.2, 0.3, 0.4]):
            x = _number("sweep.x_grid", x)
            alphas = np.clip(np.linspace(nominal_alpha - x, nominal_alpha + x, k), 0.0, 1.0)
            betas = np.clip(np.linspace(nominal_beta - x, nominal_beta + x, k), 0.0, 1.0)
            mdps = [envs.recycling_robot(a, b, **params) for a in alphas for b in betas]
            yield x, mdps
    elif family == "inventory_b":
        capacity = int(params.get("capacity", 16))
        m = _integer("sweep.m", sweep.get("m", 0), 0)
        for b in sweep.get("b_grid", [0.0, 0.25, 0.5, 0.75, 1.0]):
            demand = envs.inventory_perturbed_demand(m, _number("sweep.b_grid", b), capacity + 1)
            yield float(b), [envs.inventory(**{**params, "demand": demand})]
    elif family == "inventory_m":
        capacity = int(params.get("capacity", 16))
        b = _number("sweep.b", sweep.get("b", 0.25))
        for m in sweep.get("m_grid", list(range(capacity))):
            demand = envs.inventory_perturbed_demand(_integer("sweep.m_grid", m, 0), b, capacity + 1)
            yield float(m), [envs.inventory(**{**params, "demand": demand})]
    else:
        nominal, perturbed = envs.one_loop()
        for x in sweep.get("x_grid", [0.0, 0.25, 0.5, 0.75, 1.0]):
            x = _number("sweep.x_grid", x)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"x_grid entries must lie in [0, 1], got {x!r}")
            kernel = (1.0 - x) * nominal.kernel + x * perturbed.kernel
            yield x, [nominal.with_kernel(kernel)]


def run_robustness_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Train robust and non-robust policies, evaluate both on perturbed MDPs.

    The non-robust learner is the same control loop with a zero-radius
    (singleton) uncertainty set, i.e. vanilla synchronous Q-learning.
    """
    mdp, spec = _prologue(cfg, "sweep", out_dir)  # the sweep trains its own two policies, one seed each
    offset = build_offset(cfg.offset, mdp, True)
    schedule = build_schedule(cfg.schedule)
    # the whole grid is built before any training, so a bad sweep section fails at once
    try:
        grid = list(_perturbation_grid(cfg))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep config: {exc}") from exc
    if not grid:
        raise ConfigError("bad sweep config: empty grid")
    start_state = (cfg.sweep or {}).get("start_state")
    if start_state is not None and _integer("sweep.start_state", start_state, 0) >= mdp.n_states:
        raise ConfigError(f"sweep.start_state must be below n_states = {mdp.n_states}, got {start_state}")
    source = KernelSampler(mdp)
    mlmc = build_mlmc_config(cfg.estimator, spec)
    robust_trace = robust_rvi_q(
        source, mdp, spec, offset, schedule, cfg.n_iters, mlmc, seed_stream(cfg.base_seed, 0)
    )
    vanilla_trace = robust_rvi_q(
        source, mdp, Contamination(0.0), offset, schedule, cfg.n_iters, None, seed_stream(cfg.base_seed, 1)
    )
    robust_pi = greedy_policy(robust_trace.final)
    vanilla_pi = greedy_policy(vanilla_trace.final)
    rows = [
        (label, envs.worst_gain_over(robust_pi, mdps, start_state), envs.worst_gain_over(vanilla_pi, mdps, start_state))
        for label, mdps in grid
    ]
    with open(os.path.join(out_dir, "sweep.csv"), "w") as fh:
        fh.write("perturbation,robust_gain,nonrobust_gain\n")
        for label, rg, ng in rows:
            fh.write(f"{float(label)!r},{float(rg)!r},{float(ng)!r}\n")
    xs = np.array([r[0] for r in rows])
    line_plot_svg(
        os.path.join(out_dir, "sweep.svg"),
        xs,
        {"robust": np.array([r[1] for r in rows]), "non-robust": np.array([r[2] for r in rows])},
        title="learned policies under perturbation",
        xlabel="perturbation",
        ylabel="exact average reward",
    )
    doc = {
        "robust_policy": robust_pi.actions().tolist(),
        "nonrobust_policy": vanilla_pi.actions().tolist(),
        "rows": [[float(a), float(b), float(c)] for a, b, c in rows],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(doc, fh, indent=2)
    return doc


def _support_check_options(opts: dict) -> tuple[int, int, list[float], int]:
    """The support check's instances, grid resolution, radii and MLMC draws (the SE needs 2)."""
    _known_fields("support_check", opts, ("instances", "resolution", "deltas", "mlmc_draws"))
    deltas = opts.get("deltas", [0.1, 0.3, 0.6])
    if not isinstance(deltas, list) or not deltas:
        raise ConfigError(f"support_check.deltas must be a non-empty list, got {deltas!r}")
    return (
        _integer("support_check.instances", opts.get("instances", 20), 1),
        _integer("support_check.resolution", opts.get("resolution", 200), 1),
        [_positive_number("support_check.deltas", delta) for delta in deltas],
        _integer("support_check.mlmc_draws", opts.get("mlmc_draws", 20_000), 2),
    )


def _support_check_rows(cfg: ExperimentConfig) -> list[dict]:
    """One {check, metric, value, passed} row per check."""
    n_instances, resolution, deltas, mlmc_draws = _support_check_options(cfg.support_check)
    rng = seed_stream(cfg.base_seed, 9000)
    rows = []
    # contamination is checked against its closed form; the others against the
    # grid oracle, whose spacing error scales like 1/resolution (0.02 ||V|| at 200)
    worst_closed = 0.0
    for i in range(n_instances):
        spec = Contamination(min(deltas[i % len(deltas)], 0.99))
        p = rng.dirichlet(np.ones(4))
        v = rng.normal(0.0, 1.0, size=4)
        closed = (1 - spec.delta) * p @ v + spec.delta * v.min()
        worst_closed = max(worst_closed, abs(spec.support(p, v) - closed))
    metric = f"max |exact - closed form| = {worst_closed:.2e} vs 1e-9"
    rows.append(("closed-form-agreement/contamination", metric, worst_closed, worst_closed <= 1e-9))
    tol_factor = 0.02 * (200.0 / resolution)
    for name in ("tv", "chi2", "kl", "wasserstein"):
        worst = 0.0
        for i in range(n_instances):
            spec = FAMILIES[name](deltas[i % len(deltas)])
            p = rng.dirichlet(np.ones(4))
            v = rng.normal(0.0, 1.0, size=4)
            exact = spec.support(p, v)
            oracle = support_oracle_grid(spec, p, v, resolution)
            tol = tol_factor * max(np.abs(v).max(), 1e-12)
            worst = max(worst, abs(exact - oracle) / tol)
        metric = f"max |exact - grid| / ({tol_factor:.3g} ||V||) = {worst:.3f}"
        rows.append((f"oracle-agreement/{name}", metric, worst, worst <= 1.0))
    # unbiasedness of the multi-level estimator on a fixed three-state row
    p = np.array([0.2, 0.3, 0.5])
    v = np.array([0.0, 1.0, 2.0])
    source = KernelSampler(TabularMDP(3, 1, np.tile(p, (3, 1, 1)), np.zeros((3, 1))))
    for name in ("tv", "chi2", "kl", "wasserstein"):
        spec = FAMILIES[name](0.2)
        exact = spec.support(p, v)
        mlmc = MlmcConfig(psi=default_psi(spec))
        vals, _ = sigma_hat_for_pairs(source, spec, np.zeros((mlmc_draws, 2), dtype=np.int64), v, mlmc, rng)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        gap = abs(vals.mean() - exact)
        metric = f"|mean - exact| = {gap:.4g} vs 3*SE = {3 * se:.4g}"
        rows.append((f"mlmc-unbiased/{name}", metric, gap / max(3 * se, 1e-300), gap <= 3 * se))
    # negative control: a deliberately corrupted radius must be caught
    spec_good = TotalVariation(0.3)
    spec_bad = TotalVariation(0.6)
    p = np.array([0.4, 0.3, 0.2, 0.1])
    v = np.array([0.0, 1.0, 2.0, 3.0])
    gap = abs(spec_good.support(p, v) - support_oracle_grid(spec_bad, p, v, resolution))
    metric = f"measured gap {gap:.4g} must exceed 0.02 ||V||"
    rows.append(("negative-control/corrupted-delta", metric, gap, gap > 0.02 * np.abs(v).max()))
    return [{"check": check, "metric": m, "value": value, "passed": bool(ok)} for check, m, value, ok in rows]


def run_support_check(cfg: ExperimentConfig, out_dir) -> tuple[dict, bool]:
    """Oracle-agreement and estimator-unbiasedness table; returns (report, ok)."""
    _prologue(cfg, "support-check", out_dir)  # the check draws its own instances, but checks a config's sections
    rows = _support_check_rows(cfg)
    ok = all(r["passed"] for r in rows)
    report = {"ok": ok, "rows": rows}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    lines = [f"{'PASS' if r['passed'] else 'FAIL'}  {r['check']:40s} {r['metric']}" for r in rows]
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return report, ok

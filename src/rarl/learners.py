"""Model-free relative-value-iteration learners.

Synchronous stochastic-approximation loops driven by a generative sample
source: the evaluation learner updates a state-value vector toward the sampled
worst-case evaluation operator, the control learner updates a Q table toward
the sampled optimal-control operator, each time subtracting the offset f of
the current iterate to keep the trajectory bounded. The recorded f values
estimate the worst-case average reward. Setting the uncertainty radius to zero
recovers the classical non-robust TD / Q-learning baselines.

A single run is sequential; independent runs own independent seeded RNG
streams and trace buffers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import KernelSampler, MlmcConfig, sigma_hat_for_pairs
from .mdp import OffsetFn, Policy, TabularMDP, induced_chain, is_unichain
from .uncertainty import UncertaintySet

DIVERGENCE_BOUND = 1e8


class StepSchedule:
    def __call__(self, n: int) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(StepSchedule):
    alpha: float

    def __call__(self, n: int) -> float:
        return self.alpha


@dataclass(frozen=True)
class RobbinsMonro(StepSchedule):
    """alpha_n = c / (n + offset): divergent sum, square-summable."""

    c: float = 1.0
    offset: float = 1.0

    def __post_init__(self):
        if self.c <= 0 or self.offset <= 0:
            raise ValueError("RobbinsMonro requires c > 0 and offset > 0")

    def __call__(self, n: int) -> float:
        return self.c / (n + self.offset)


@dataclass
class RunTrace:
    """Per-iteration record of a learner run.

    ``f_values[k]`` is the offset value of the iterate after update
    ``iters[k]``; ``costs`` is the cumulative sample count; ``final`` is the
    last iterate.
    """

    iters: np.ndarray
    f_values: np.ndarray
    costs: np.ndarray
    final: np.ndarray

    def tail_mean(self, fraction: float = 0.1) -> float:
        """Mean of the recorded f values over the trailing fraction of the run."""
        k = max(1, int(round(fraction * len(self.f_values))))
        return float(self.f_values[-k:].mean())


def _check_iterate(x: np.ndarray, n: int) -> None:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError(f"non-finite iterate at step {n}")
    norm = float(np.abs(x).max())
    if norm > DIVERGENCE_BOUND:
        raise FloatingPointError(f"iterate diverged at step {n} (sup norm {norm:.3e})")


def robust_rvi_td(
    source: KernelSampler,
    mdp: TabularMDP,
    policy: Policy,
    spec: UncertaintySet,
    offset: OffsetFn,
    schedule: StepSchedule,
    n_iters: int,
    cfg: MlmcConfig | None,
    rng: np.random.Generator,
    v0: np.ndarray | None = None,
    record_every: int = 1,
) -> RunTrace:
    """Policy-evaluation learner: v <- v + alpha (T_hat v - f(v) - v), all states
    updated each iteration with fresh estimates.

    Convergence theory assumes the policy induces a unichain under every
    kernel in the set; only the nominal kernel can be checked here, so a
    violation warns rather than raises.
    """
    p_pi, _ = induced_chain(mdp, policy)
    if not is_unichain(p_pi):
        warnings.warn("policy induces a multichain on the nominal kernel", stacklevel=2)
    v = np.zeros(mdp.n_states) if v0 is None else np.array(v0, dtype=float)
    pairs = np.argwhere(policy.probs > 0.0)  # (n, 2) int64, row-major like the (s, a) loop
    state_of, action_of = pairs.T
    weights = policy.probs[state_of, action_of]
    rewards = mdp.reward[state_of, action_of]
    iters, fvals, costs = [], [], []
    total_cost = 0
    for n in range(n_iters):
        sigma, cost = sigma_hat_for_pairs(source, spec, pairs, v, cfg, rng)
        t_hat = np.zeros(mdp.n_states)
        np.add.at(t_hat, state_of, weights * (rewards + sigma))
        v = v + schedule(n) * (t_hat - offset(v) - v)
        _check_iterate(v, n)
        total_cost += int(cost.sum())
        step = n + 1
        if step % record_every == 0 or step == n_iters:
            iters.append(step)
            fvals.append(offset(v))
            costs.append(total_cost)
    return RunTrace(np.array(iters), np.array(fvals), np.array(costs), v)


def robust_rvi_q(
    source: KernelSampler,
    mdp: TabularMDP,
    spec: UncertaintySet,
    offset: OffsetFn,
    schedule: StepSchedule,
    n_iters: int,
    cfg: MlmcConfig | None,
    rng: np.random.Generator,
    q0: np.ndarray | None = None,
    record_every: int = 1,
) -> RunTrace:
    """Control learner: q <- q + alpha (H_hat q - f(q) - q) over all (s, a).

    The offset acts on the Q table flattened to a vector (e.g. the mean over
    all |S||A| entries).
    """
    q = np.zeros((mdp.n_states, mdp.n_actions)) if q0 is None else np.array(q0, dtype=float)
    pairs = np.argwhere(np.ones((mdp.n_states, mdp.n_actions), dtype=bool))
    iters, fvals, costs = [], [], []
    total_cost = 0
    for n in range(n_iters):
        v_q = q.max(axis=1)
        sigma, cost = sigma_hat_for_pairs(source, spec, pairs, v_q, cfg, rng)
        h_hat = mdp.reward + sigma.reshape(mdp.n_states, mdp.n_actions)
        q = q + schedule(n) * (h_hat - offset(q) - q)
        _check_iterate(q, n)
        total_cost += int(cost.sum())
        step = n + 1
        if step % record_every == 0 or step == n_iters:
            iters.append(step)
            fvals.append(offset(q))
            costs.append(total_cost)
    return RunTrace(np.array(iters), np.array(fvals), np.array(costs), q)


def greedy_policy(q: np.ndarray) -> Policy:
    """Deterministic argmax policy; ties break toward the lowest action index."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("greedy policy of a non-finite Q table")
    return Policy.deterministic(np.argmax(q, axis=1), q.shape[1])

"""Model-free relative-value-iteration learners.

Synchronous stochastic-approximation loops driven by a generative sample
source: the evaluation learner updates a state-value vector toward the sampled
worst-case evaluation operator, the control learner updates a Q table toward
the sampled optimal-control operator, each time subtracting the offset f of
the current iterate to keep the trajectory bounded. The recorded f values
estimate the worst-case average reward. Setting the uncertainty radius to zero
recovers the classical non-robust TD / Q-learning baselines.

Each seed owns an independent seeded RNG stream. Given a sequence of RNGs,
one loop advances every seed's iterate as one stacked array, so a batch of
seeds pays the per-iteration interpreter cost once; each seed's trace is the
same as when it runs alone. A run draws its samples through one
``EstimateStream``, which spawns each seed's child streams from its RNG.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .estimators import EstimateStream, KernelSampler, MlmcConfig, sigma_hat_for_pairs
from .mdp import OffsetFn, Policy, TabularMDP, induced_chain, is_unichain
from .uncertainty import UncertaintySet

DIVERGENCE_BOUND = 1e8


class StepSchedule:
    def __post_init__(self):
        for name, value in vars(self).items():  # every parameter of a schedule is finite and > 0
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

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

    def __call__(self, n: int) -> float:
        return self.c / (n + self.offset)


@dataclass
class RunTrace:
    """Per-iteration record of a learner run, or of a batch of seeded runs.

    ``f_values[k]`` is the offset value of the iterate after update
    ``iters[k]``; ``costs`` is the cumulative sample count; ``final`` is the
    last iterate. A batched run puts a leading seed axis on ``f_values``,
    ``costs`` and ``final``, holding the seeds that finished in batch order;
    ``errors`` maps the batch index of each seed dropped on divergence to its
    error text.
    """

    iters: np.ndarray
    f_values: np.ndarray
    costs: np.ndarray
    final: np.ndarray
    errors: dict[int, str] = field(default_factory=dict)

    def tail_mean(self, fraction: float = 0.1) -> float | np.ndarray:
        """Mean of the recorded f values over the trailing fraction of the run; one per seed
        for a batched run."""
        k = max(1, int(round(fraction * len(self.iters))))
        tail = self.f_values[..., -k:].mean(axis=-1)
        return float(tail) if tail.ndim == 0 else tail

    def runs(self) -> list[RunTrace]:
        """The per-seed traces of a batched run, finished seeds in batch order."""
        return [RunTrace(self.iters, f, c, x) for f, c, x in zip(self.f_values, self.costs, self.final)]


def _divergence(x: np.ndarray, n: int) -> str | None:
    """Why one seed's iterate after step n failed the divergence guard, or None if it passed."""
    if not np.all(np.isfinite(x)):
        return f"non-finite iterate at step {n}"
    norm = float(np.abs(x).max())
    if norm > DIVERGENCE_BOUND:
        return f"iterate diverged at step {n} (sup norm {norm:.3e})"
    return None


def _learn(draws, x, target, offset, schedule, n_iters, record_every, solo) -> RunTrace:
    """The synchronous loop x <- x + alpha_n (target(x) - f(x) - x) over a (B, ...) batch of
    iterates, one row per seed.

    ``target`` returns the sampled operator at x, drawn from ``draws``. One fused sup-norm test
    per iteration catches NaN, inf and divergence; only when it trips are the rows checked one
    by one. A failing seed raises when ``solo``, else it is dropped and its error recorded,
    and the other seeds run on unchanged.
    """
    steps = np.arange(record_every, n_iters + 1, record_every)
    if n_iters % record_every:
        steps = np.append(steps, n_iters)
    live = np.arange(len(x))  # batch index of each row of x
    fvals = np.empty((len(x), len(steps)))
    costs = np.empty((len(x), len(steps)), dtype=np.int64)
    errors: dict[int, str] = {}
    f_shape = (-1,) + (1,) * (x.ndim - 1)
    f = offset.batch(x)  # of the current iterates: the next update's offsets and their record
    recorded = 0
    for n in range(n_iters):
        x = x + schedule(n) * (target(x) - f.reshape(f_shape) - x)
        if not np.abs(x).max() <= DIVERGENCE_BOUND:
            failures = [_divergence(row, n) for row in x]
            if solo:
                raise FloatingPointError(failures[0])
            errors.update((int(seed), failure) for seed, failure in zip(live, failures) if failure)
            keep = np.array([failure is None for failure in failures])
            x, live, fvals, costs = x[keep], live[keep], fvals[keep], costs[keep]
            draws.drop(keep)
            if not len(x):
                break
        f = offset.batch(x)
        if n + 1 == steps[recorded]:
            fvals[:, recorded] = f
            costs[:, recorded] = draws.samples()
            recorded += 1
    if solo:
        return RunTrace(steps, fvals[0], costs[0], x[0])
    return RunTrace(steps, fvals, costs, x, dict(sorted(errors.items())))


def _seed_batch(rng) -> tuple[bool, int]:
    """Whether ``rng`` is one generator (a solo run), and the number of seeds it drives."""
    if isinstance(rng, np.random.Generator):
        return True, 1
    if not len(rng):
        raise ValueError("rng must be a Generator or a non-empty sequence of Generators")
    return False, len(rng)


def robust_rvi_td(
    source: KernelSampler,
    mdp: TabularMDP,
    policy: Policy,
    spec: UncertaintySet,
    offset: OffsetFn,
    schedule: StepSchedule,
    n_iters: int,
    cfg: MlmcConfig | None,
    rng: np.random.Generator | Sequence[np.random.Generator],
    v0: np.ndarray | None = None,
    record_every: int = 1,
) -> RunTrace:
    """Policy-evaluation learner: v <- v + alpha (T_hat v - f(v) - v), all states
    updated each iteration with fresh estimates.

    ``rng`` is one generator, or a sequence of B generators that run B seeds
    in one loop over a (B, S) iterate; see ``RunTrace`` for the batched
    result. A seed's trace is the same alone and in a batch.

    Convergence theory assumes the policy induces a unichain under every
    kernel in the set; only the nominal kernel can be checked here, so a
    violation warns rather than raises.
    """
    p_pi, _ = induced_chain(mdp, policy)
    if not is_unichain(p_pi):
        warnings.warn("policy induces a multichain on the nominal kernel", stacklevel=2)
    solo, n_seeds = _seed_batch(rng)
    n_states = mdp.n_states
    v = np.zeros(n_states) if v0 is None else np.array(v0, dtype=float)
    if v.shape != (n_states,):
        raise ValueError(f"v0 must have shape {(n_states,)}, got {v.shape}")
    pairs = np.argwhere(policy.probs > 0.0)  # (n, 2) int64, row-major like the (s, a) loop
    state_of, action_of = pairs.T
    weights = policy.probs[state_of, action_of]
    rewards = mdp.reward[state_of, action_of]
    bins = (state_of + n_states * np.arange(n_seeds)[:, None]).ravel()  # each seed's states, seed-major
    draws = EstimateStream(source, spec, pairs, cfg, rng, n_iters)

    def target(v):
        sigma, _ = sigma_hat_for_pairs(draws, spec, pairs, v, cfg, rng)
        terms = weights * (rewards + sigma.reshape(len(v), -1))
        return np.bincount(bins[: terms.size], terms.ravel(), minlength=v.size).reshape(v.shape)

    return _learn(draws, np.tile(v, (n_seeds, 1)), target, offset, schedule, n_iters, record_every, solo)


def robust_rvi_q(
    source: KernelSampler,
    mdp: TabularMDP,
    spec: UncertaintySet,
    offset: OffsetFn,
    schedule: StepSchedule,
    n_iters: int,
    cfg: MlmcConfig | None,
    rng: np.random.Generator | Sequence[np.random.Generator],
    q0: np.ndarray | None = None,
    record_every: int = 1,
) -> RunTrace:
    """Control learner: q <- q + alpha (H_hat q - f(q) - q) over all (s, a).

    The offset acts on the Q table flattened to a vector (e.g. the mean over
    all |S||A| entries). ``rng`` is one generator or a sequence of them, as in
    ``robust_rvi_td``; a batch runs over a (B, S, A) iterate.
    """
    solo, n_seeds = _seed_batch(rng)
    shape = (mdp.n_states, mdp.n_actions)
    q = np.zeros(shape) if q0 is None else np.array(q0, dtype=float)
    if q.shape != shape:
        raise ValueError(f"q0 must have shape {shape}, got {q.shape}")
    pairs = np.argwhere(np.ones(shape, dtype=bool))
    draws = EstimateStream(source, spec, pairs, cfg, rng, n_iters)

    def target(q):
        sigma, _ = sigma_hat_for_pairs(draws, spec, pairs, q.max(axis=2), cfg, rng)
        return mdp.reward + sigma.reshape(q.shape)

    return _learn(draws, np.tile(q, (n_seeds, 1, 1)), target, offset, schedule, n_iters, record_every, solo)

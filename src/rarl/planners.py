"""Model-based planning oracles for worst-case average reward.

Relative value iteration with exact support evaluations provides ground truth
for both policy evaluation and optimal control: iterates are damped with a
half-step (the aperiodicity transformation, which leaves fixed points and
gains unchanged) and re-centered by the offset each sweep, and runs terminate
on the sup-norm Bellman residual, so every returned solution carries its own
certificate. ``FiniteKernelSet`` supports uncertainty sets given as an
explicit finite collection of kernels, which only exists to reproduce the
two-kernel counterexample instance; ``finite_set_enumeration`` evaluates each
kernel exactly and returns the worst gain with all minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import greedy_policy
from .mdp import ConvergenceError, GainBias, OffsetFn, Policy, TabularMDP, gain_and_bias, support_table
from .uncertainty import UncertaintySet


class FiniteKernelSet:
    """Per-(s,a) finite row collections; support is a minimum over the rows."""

    kind = "finite"

    def __init__(self, rows_by_sa: dict[tuple[int, int], np.ndarray]):
        self.rows_by_sa = {k: np.atleast_2d(np.asarray(v, dtype=float)) for k, v in rows_by_sa.items()}

    @staticmethod
    def from_kernels(kernels) -> "FiniteKernelSet":
        kernels = [np.asarray(k, dtype=float) for k in kernels]
        n_s, n_a, _ = kernels[0].shape
        rows = {}
        for s in range(n_s):
            for a in range(n_a):
                rows[(s, a)] = np.unique(np.stack([k[s, a] for k in kernels]), axis=0)
        return FiniteKernelSet(rows)

    def support_for(self, s, a, nominal_row, v):
        return float((self.rows_by_sa[(s, a)] @ np.asarray(v, dtype=float)).min())

    def worst_row_for(self, s, a, nominal_row, v):
        rows = self.rows_by_sa[(s, a)]
        return rows[int(np.argmin(rows @ np.asarray(v, dtype=float)))].copy()


def worst_case_kernel(mdp: TabularMDP, uset, v: np.ndarray) -> np.ndarray:
    """Kernel assembled row-wise from worst-case rows for the given value vector.

    A parametric family solves all rows in one batched ``worst_row`` call;
    a ``FiniteKernelSet`` is asked pair by pair.
    """
    v = np.asarray(v, dtype=float)
    if isinstance(uset, UncertaintySet):
        return uset.worst_row(mdp.kernel.reshape(-1, mdp.n_states), v).reshape(mdp.kernel.shape)
    kernel = np.empty_like(mdp.kernel)
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            kernel[s, a] = uset.worst_row_for(s, a, mdp.kernel[s, a], v)
    return kernel


@dataclass
class PlannerResult:
    gain: float
    value: np.ndarray
    iterations: int
    residual: float


def robust_rvi_eval(
    mdp: TabularMDP,
    policy: Policy,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
    max_iters: int = 10**6,
    damping: float = 0.5,
) -> PlannerResult:
    """Worst-case gain and value of a fixed policy by exact relative value iteration."""
    offset = offset or OffsetFn.mean()
    v = np.zeros(mdp.n_states)
    probs = policy.probs
    residual_norm = np.inf
    for k in range(max_iters):
        sigma = support_table(mdp, uset, v)
        tv = np.einsum("sa,sa->s", probs, mdp.reward + sigma)
        g = offset(tv) - offset(v)
        residual = tv - g - v
        residual_norm = float(np.abs(residual).max())
        if residual_norm <= tol:
            return PlannerResult(float(g), v, k, residual_norm)
        nxt = (1.0 - damping) * v + damping * tv
        v = nxt - offset(nxt)
    raise ConvergenceError("robust value iteration did not converge", residual_norm)


@dataclass
class ControlResult:
    gain: float
    q: np.ndarray
    policy: Policy
    iterations: int
    residual: float


def robust_rvi_control(
    mdp: TabularMDP,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
    max_iters: int = 10**6,
    damping: float = 0.5,
) -> ControlResult:
    """Optimal worst-case gain, Q table and greedy policy via value iteration on Q."""
    offset = offset or OffsetFn.mean()
    q = np.zeros((mdp.n_states, mdp.n_actions))
    residual_norm = np.inf
    for k in range(max_iters):
        sigma = support_table(mdp, uset, q.max(axis=1))
        hq = mdp.reward + sigma
        g = offset(hq) - offset(q)
        residual = hq - g - q
        residual_norm = float(np.abs(residual).max())
        if residual_norm <= tol:
            return ControlResult(float(g), q, greedy_policy(q), k, residual_norm)
        nxt = (1.0 - damping) * q + damping * hq
        q = nxt - offset(nxt)
    raise ConvergenceError("robust Q value iteration did not converge", residual_norm)


@dataclass
class EnumerationResult:
    gain: float
    minimizers: list[int]
    per_kernel: list[GainBias]


def finite_set_enumeration(
    mdp: TabularMDP, kernels, policy: Policy, tie_tol: float = 1e-9
) -> EnumerationResult:
    """Exact worst gain over an explicit finite kernel collection.

    Evaluates the policy's gain and relative value function under every
    kernel; the minimizer set contains every kernel whose gain ties with the
    minimum within tie_tol.
    """
    per_kernel = [gain_and_bias(mdp.with_kernel(k), policy, normalization=None) for k in kernels]
    gains = np.array([gb.gain for gb in per_kernel])
    g = float(gains.min())
    minimizers = [i for i, gv in enumerate(gains) if gv <= g + tie_tol]
    return EnumerationResult(g, minimizers, per_kernel)

"""Model-based planning oracles for worst-case average reward.

Robust policy iteration provides ground truth for both policy evaluation and
optimal control. For a fixed value v, ``worst_case_kernel`` gives the exact
worst kernel in one batched call; evaluating the policy exactly under that
kernel (one linear solve) gives the next v (Iyengar 2005; Ho, Petrik &
Wiesemann 2021). Control improves the policy greedily around that inner loop.
Runs terminate on the sup-norm robust Bellman residual, so every returned
solution carries its own certificate. When a worst kernel is multichain or
policy iteration does not certify within a fixed number of steps, the call
runs damped relative value iteration instead: iterates are damped with a
half-step (the aperiodicity transformation, which leaves fixed points and
gains unchanged), re-centered by the offset each sweep, and stopped on the
same residual. ``FiniteKernelSet`` supports uncertainty sets given as an
explicit finite collection of kernels, which only exists to reproduce the
two-kernel counterexample instance; ``finite_set_enumeration`` evaluates each
kernel exactly and returns the worst gain with all minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import greedy_policy
from .mdp import (
    ConvergenceError,
    GainBias,
    MultichainError,
    OffsetFn,
    Policy,
    TabularMDP,
    gain_and_bias,
    support_table,
)
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


# Exact solves a planner call may spend in policy iteration before it falls back to RVI.
_PI_MAX_STEPS = 50


@dataclass
class PlannerResult:
    """Certified worst-case gain and value of a fixed policy.

    ``method`` is ``"policy-iteration"``, or ``"rvi"`` after a fallback;
    ``iterations`` counts policy-iteration steps (one worst kernel and one
    exact linear solve each), or RVI sweeps after a fallback.
    """

    gain: float
    value: np.ndarray
    iterations: int
    residual: float
    method: str


def _pi_eval(mdp, policy, uset, offset, tol, v, max_steps):
    """Robust policy iteration for a fixed policy, warm-started at ``v``.

    Each step evaluates the policy exactly under the worst kernel for the
    current value. Returns the certified result with the support table at its
    value, or None when a worst kernel's chain is multichain or singular or no
    step certifies within ``max_steps``.
    """
    for step in range(1, max_steps + 1):
        try:
            v = gain_and_bias(mdp.with_kernel(worst_case_kernel(mdp, uset, v)), policy, offset).bias
        except (MultichainError, np.linalg.LinAlgError, ConvergenceError):
            return None
        sigma = support_table(mdp, uset, v)
        tv = np.einsum("sa,sa->s", policy.probs, mdp.reward + sigma)
        g = offset(tv) - offset(v)
        residual = float(np.abs(tv - g - v).max())
        if residual <= tol:
            return PlannerResult(float(g), v, step, residual, "policy-iteration"), sigma
    return None


def _stalled(k: int, residual: float, marks: dict) -> bool:
    """Whether sweep k = 2^j, j >= 6, leaves a residual no lower than sweep 2^(j-1) did.

    A damped RVI loop that stops making progress for that long will not converge, e.g. on a
    multichain robust problem, so the caller stops instead of running out its sweeps.
    """
    if k < 32 or k & (k - 1):
        return False
    half = marks.get(k // 2)
    marks[k] = residual
    return half is not None and residual >= half


def _rvi_eval(mdp, policy, uset, offset, tol, max_iters, damping) -> PlannerResult:
    """Damped relative value iteration for a fixed policy: the fallback and test reference."""
    v = np.zeros(mdp.n_states)
    probs = policy.probs
    residual_norm = np.inf
    marks: dict[int, float] = {}
    for k in range(max_iters):
        sigma = support_table(mdp, uset, v)
        tv = np.einsum("sa,sa->s", probs, mdp.reward + sigma)
        g = offset(tv) - offset(v)
        residual = tv - g - v
        residual_norm = float(np.abs(residual).max())
        if residual_norm <= tol:
            return PlannerResult(float(g), v, k, residual_norm, "rvi")
        if _stalled(k, residual_norm, marks):
            raise ConvergenceError(f"robust value iteration stalled at sweep {k}", residual_norm)
        nxt = (1.0 - damping) * v + damping * tv
        v = nxt - offset(nxt)
    raise ConvergenceError("robust value iteration did not converge", residual_norm)


def robust_rvi_eval(
    mdp: TabularMDP,
    policy: Policy,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
    max_iters: int = 10**6,
    damping: float = 0.5,
) -> PlannerResult:
    """Worst-case gain and value of a fixed policy by robust policy iteration.

    Stops on the sup-norm robust Bellman residual <= tol, with the value
    pinned by offset(v) = 0. If a worst kernel is multichain or singular, or
    policy iteration does not certify within a fixed number of steps, the call
    runs damped relative value iteration instead (at most ``max_iters``
    sweeps of step ``damping``), which raises ``ConvergenceError`` if it too
    fails, or as soon as its residual after sweep 2^j (j >= 6) is no lower
    than after sweep 2^(j-1).
    """
    offset = offset or OffsetFn.mean()
    solved = _pi_eval(mdp, policy, uset, offset, tol, np.zeros(mdp.n_states), _PI_MAX_STEPS)
    return solved[0] if solved else _rvi_eval(mdp, policy, uset, offset, tol, max_iters, damping)


@dataclass
class ControlResult:
    """Certified optimal worst-case gain, Q table pinned by offset(q) = 0, and
    its greedy policy; ``iterations`` and ``method`` as in ``PlannerResult``,
    with the steps of every evaluated policy counted."""

    gain: float
    q: np.ndarray
    policy: Policy
    iterations: int
    residual: float
    method: str


def _pi_control(mdp, uset, offset, tol) -> ControlResult | None:
    """Greedy policy improvement, each deterministic policy evaluated by ``_pi_eval``.

    A policy's actions are kept wherever they are within tol/4 of the row max
    of r + sigma(v) - g, so tied actions cannot cycle; with its evaluation
    certified to tol/4, a repeated policy's Q residual is at most tol.
    """
    rows = np.arange(mdp.n_states)
    actions = np.argmax(mdp.reward, axis=1)  # greedy at v = 0, where every support value is 0
    v = np.zeros(mdp.n_states)
    steps = 0
    while steps < _PI_MAX_STEPS:
        policy = Policy.deterministic(actions, mdp.n_actions)
        solved = _pi_eval(mdp, policy, uset, offset, tol / 4, v, _PI_MAX_STEPS - steps)
        if solved is None:
            return None
        ev, sigma = solved
        steps += ev.iterations
        v = ev.value
        q = mdp.reward + sigma - ev.gain
        best = q.max(axis=1)
        greedy = np.where(q[rows, actions] >= best - tol / 4, actions, q.argmax(axis=1))
        if np.array_equal(greedy, actions):
            q = q - offset(q)
            hq = mdp.reward + support_table(mdp, uset, q.max(axis=1))
            g = offset(hq) - offset(q)
            residual = float(np.abs(hq - g - q).max())
            if residual > tol:
                return None
            return ControlResult(float(g), q, greedy_policy(q), steps, residual, "policy-iteration")
        actions = greedy
    return None


def _rvi_control(mdp, uset, offset, tol, max_iters, damping) -> ControlResult:
    """Damped relative value iteration on Q: the fallback and test reference."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    residual_norm = np.inf
    marks: dict[int, float] = {}
    for k in range(max_iters):
        sigma = support_table(mdp, uset, q.max(axis=1))
        hq = mdp.reward + sigma
        g = offset(hq) - offset(q)
        residual = hq - g - q
        residual_norm = float(np.abs(residual).max())
        if residual_norm <= tol:
            return ControlResult(float(g), q, greedy_policy(q), k, residual_norm, "rvi")
        if _stalled(k, residual_norm, marks):
            raise ConvergenceError(f"robust Q value iteration stalled at sweep {k}", residual_norm)
        nxt = (1.0 - damping) * q + damping * hq
        q = nxt - offset(nxt)
    raise ConvergenceError("robust Q value iteration did not converge", residual_norm)


def robust_rvi_control(
    mdp: TabularMDP,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
    max_iters: int = 10**6,
    damping: float = 0.5,
) -> ControlResult:
    """Optimal worst-case gain, Q table and greedy policy by robust policy iteration.

    The outer loop improves a deterministic policy greedily on
    r + sigma(v) - g, where (g, v) is its robust evaluation, until the policy
    repeats and the sup-norm Q residual is <= tol. Falls back to damped
    relative value iteration on Q under the same conditions as
    ``robust_rvi_eval``.
    """
    offset = offset or OffsetFn.mean()
    solved = _pi_control(mdp, uset, offset, tol)
    return solved or _rvi_control(mdp, uset, offset, tol, max_iters, damping)


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

"""Model-based planning oracles for worst-case average reward.

Robust policy iteration provides ground truth for both policy evaluation and
optimal control. For a fixed value v, ``worst_case_kernel`` gives the exact
worst kernel in one batched call; evaluating the policy exactly under that
kernel (one linear solve) gives the next v (Iyengar 2005; Ho, Petrik &
Wiesemann 2021). Control improves the policy greedily around that inner loop.
Runs terminate on the sup-norm robust Bellman residual, so every returned
solution carries its own certificate. When a worst kernel is multichain or
policy iteration does not certify within a fixed number of steps, the call
runs one damped relative value iteration loop instead, on the value vector for
evaluation and on the Q table for control: iterates are damped with a
half-step (the aperiodicity transformation, which leaves fixed points and
gains unchanged), re-centered by the offset each sweep, and stopped on the
same residual. ``FiniteKernelSet`` is an uncertainty set given as an explicit
finite collection of kernels, answering the same batched ``support_batch`` /
``worst_row`` calls as the parametric families; it exists to reproduce the
two-kernel counterexample instance. ``finite_set_enumeration`` evaluates each
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


class FiniteKernelSet:
    """An explicit finite collection of kernels, (s,a)-rectangular: the support of a pair is the
    minimum of q.v over the pair's rows in the collection.

    Like the parametric families it answers ``support_batch`` and ``worst_row``, but only for the
    batch it is built around, the MDP's S*A nominal rows in s-major order. Each pair keeps its rows
    in lexicographic order, so a tie goes to the smallest row.
    """

    kind = "finite"

    def __init__(self, kernels):
        pairs = np.stack([np.asarray(k, dtype=float).reshape(-1, np.shape(k)[-1]) for k in kernels], axis=1)
        self.rows = np.stack([rows[np.lexsort(rows.T[::-1])] for rows in pairs])

    def _values(self, rows, v):
        """q.v for every row q of every pair, shape (S*A, kernels)."""
        n_pairs, _, n_states = self.rows.shape
        if np.shape(rows) != (n_pairs, n_states):
            raise ValueError(f"a finite kernel set answers its ({n_pairs}, {n_states}) rows, got {np.shape(rows)}")
        return self.rows @ np.asarray(v, dtype=float)

    def support_batch(self, rows, v):
        return self._values(rows, v).min(axis=1)

    def worst_row(self, rows, v):
        return self.rows[np.arange(len(self.rows)), self._values(rows, v).argmin(axis=1)]


def worst_case_kernel(mdp: TabularMDP, uset, v: np.ndarray) -> np.ndarray:
    """Kernel assembled from worst-case rows for the given value vector, in one ``worst_row`` call."""
    return uset.worst_row(mdp.kernel.reshape(-1, mdp.n_states), np.asarray(v, dtype=float)).reshape(mdp.kernel.shape)


# Exact solves a planner call may spend in policy iteration before it falls back to RVI, and the
# sweeps the fallback may spend.
_PI_MAX_STEPS = 50
_RVI_MAX_SWEEPS = 10**6


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


def _gain_and_residual(tx, x, offset) -> tuple[float, float]:
    """The gain g = offset(Tx) - offset(x) and the sup-norm residual of Tx - g - x."""
    g = offset(tx) - offset(x)
    return g, float(np.abs(tx - g - x).max())


def _eval_operator(mdp, policy, uset):
    """The policy's robust Bellman operator, T v = sum_a pi(a|s) (r(s, a) + sigma(s, a, v))."""
    return lambda v: np.einsum("sa,sa->s", policy.probs, mdp.reward + support_table(mdp, uset, v))


def _control_operator(mdp, uset):
    """The optimal robust Bellman operator on Q tables, H q = r + sigma(max_a q)."""
    return lambda q: mdp.reward + support_table(mdp, uset, q.max(axis=1))


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
        g, residual = _gain_and_residual(np.einsum("sa,sa->s", policy.probs, mdp.reward + sigma), v, offset)
        if residual <= tol:
            return PlannerResult(float(g), v, step, residual, "policy-iteration"), sigma
    return None


def _rvi(bellman, shape, offset, tol) -> tuple[float, np.ndarray, int, float]:
    """Damped relative value iteration from x = 0, x <- y - offset(y) with y = (x + Tx) / 2, on a
    value vector or a Q table alike: the fallback and test reference.

    Returns (gain, x, sweeps, residual) once the residual is <= tol. Raises ``ConvergenceError``
    after ``_RVI_MAX_SWEEPS`` sweeps, or as soon as the residual after sweep 2^j (j >= 6) is no
    lower than after sweep 2^(j-1): a loop that makes no progress for that long will not
    converge, e.g. on a multichain robust problem.
    """
    x = np.zeros(shape)
    residual = np.inf
    mark = None  # the residual after the last sweep 2^j, j >= 5
    for k in range(_RVI_MAX_SWEEPS):
        tx = bellman(x)
        g, residual = _gain_and_residual(tx, x, offset)
        if residual <= tol:
            return float(g), x, k, residual
        if k >= 32 and not k & (k - 1):
            if mark is not None and residual >= mark:
                raise ConvergenceError(f"robust value iteration stalled at sweep {k}", residual)
            mark = residual
        nxt = 0.5 * x + 0.5 * tx
        x = nxt - offset(nxt)
    raise ConvergenceError("robust value iteration did not converge", residual)


def robust_rvi_eval(
    mdp: TabularMDP,
    policy: Policy,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
) -> PlannerResult:
    """Worst-case gain and value of a fixed policy by robust policy iteration.

    Stops on the sup-norm robust Bellman residual <= tol, with the value
    pinned by offset(v) = 0. If a worst kernel is multichain or singular, or
    policy iteration does not certify within a fixed number of steps, the call
    runs damped relative value iteration instead, which raises
    ``ConvergenceError`` if it too fails, or as soon as its residual after
    sweep 2^j (j >= 6) is no lower than after sweep 2^(j-1).
    """
    offset = offset or OffsetFn.mean()
    solved = _pi_eval(mdp, policy, uset, offset, tol, np.zeros(mdp.n_states), _PI_MAX_STEPS)
    if solved:
        return solved[0]
    return PlannerResult(*_rvi(_eval_operator(mdp, policy, uset), mdp.n_states, offset, tol), "rvi")


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
            g, residual = _gain_and_residual(_control_operator(mdp, uset)(q), q, offset)
            if residual > tol:
                return None
            return ControlResult(float(g), q, greedy_policy(q), steps, residual, "policy-iteration")
        actions = greedy
    return None


def robust_rvi_control(
    mdp: TabularMDP,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
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
    if solved:
        return solved
    g, q, sweeps, residual = _rvi(_control_operator(mdp, uset), (mdp.n_states, mdp.n_actions), offset, tol)
    return ControlResult(g, q, greedy_policy(q), sweeps, residual, "rvi")


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

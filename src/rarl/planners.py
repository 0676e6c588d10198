"""Model-based planning oracles for worst-case average reward.

Robust policy iteration provides ground truth for both policy evaluation and
optimal control. Each step makes one batched ``support_and_worst`` call at the
current value v, which gives the support table that certifies v and the exact
worst kernel. That call, like ``worst_case_kernel`` and ``support_table``,
solves each distinct nominal row of the MDP once and copies its answers to the
(s, a) pairs that share it. Evaluating the policy exactly under that kernel
(one linear solve) gives the next v (Iyengar 2005; Ho, Petrik & Wiesemann
2021). Control improves the policy greedily around that inner loop. Runs
terminate on the sup-norm robust Bellman residual, so every returned solution
carries its own certificate. Where a worst kernel's chain is multichain or
singular, the step is a damped sweep instead; where policy iteration stalls,
the call starts over as damped relative value iteration from zero (see
``_policy_iteration``).
``FiniteKernelSet`` is an uncertainty set given as an explicit finite
collection of kernels, answering the same batched ``support_batch`` /
``worst_row`` / ``support_and_worst`` calls as the parametric families; it
exists to reproduce the two-kernel counterexample instance.
``finite_set_enumeration`` evaluates each kernel exactly and returns the
worst gain with all minimizers.
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
    _gain_and_bias,
    _nominal_rows,
    gain_and_bias,
    support_table,
)
from .uncertainty import _row_violation


class FiniteKernelSet:
    """An explicit finite collection of kernels, (s,a)-rectangular: the support of a pair is the
    minimum of q.v over the pair's rows in the collection.

    Like the parametric families it answers ``support_batch``, ``worst_row`` and ``support_and_worst``,
    but only for the batch it is built around, the MDP's S*A nominal rows in s-major order, which the
    planners give it whole, repeated rows included. Each pair keeps its rows in lexicographic order,
    so a tie goes to the smallest row. Every kernel's rows must be distributions.
    """

    kind = "finite"

    def __init__(self, kernels):
        kernels = np.asarray(kernels, dtype=float)  # (K, S, A, S)
        problem = _row_violation(kernels, ("kernel", "s", "a", "s'"))
        if problem is not None:
            raise ValueError(f"kernel rows must be distributions: {problem}")
        pairs = np.stack([k.reshape(-1, k.shape[-1]) for k in kernels], axis=1)
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
        return self.support_and_worst(rows, v)[1]

    def support_and_worst(self, rows, v):
        values = self._values(rows, v)
        pairs, best = np.arange(len(self.rows)), values.argmin(axis=1)
        return values[pairs, best], self.rows[pairs, best]


def worst_case_kernel(mdp: TabularMDP, uset, v: np.ndarray) -> np.ndarray:
    """Kernel assembled from worst-case rows for the given value vector, in one ``worst_row`` call
    over the MDP's distinct nominal rows, each solved once."""
    rows, index = _nominal_rows(mdp, uset)
    return uset.worst_row(rows, np.asarray(v, dtype=float)).take(index, axis=0).reshape(mdp.kernel.shape)


def _support_and_worst(mdp: TabularMDP, uset, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``support_table`` and ``worst_case_kernel`` at v, from one ``support_and_worst`` call."""
    rows, index = _nominal_rows(mdp, uset)
    sigma, worst = uset.support_and_worst(rows, np.asarray(v, dtype=float))
    # take copies whole rows, about 3x faster than indexing a 2-D array with index
    return sigma[index].reshape(mdp.n_states, mdp.n_actions), worst.take(index, axis=0).reshape(mdp.kernel.shape)


# Steps a planner call may spend; the stall rule of ``_stalled`` stops a failing call long before.
_MAX_STEPS = 10_000


@dataclass
class PlannerResult:
    """Certified worst-case gain and value of a fixed policy.

    ``iterations`` counts steps, one support-and-worst-row solve each. ``damped`` counts the steps
    that were not an exact evaluation: each worst kernel whose chain is multichain or singular,
    answered by a damped sweep or in control by a switch to the greedy policy, and each sweep of
    the relative value iteration that follows a stall. It is 0 on every call that policy iteration
    certifies with unichain worst kernels only.
    """

    gain: float
    value: np.ndarray
    iterations: int
    residual: float
    damped: int


@dataclass
class ControlResult:
    """Certified optimal worst-case gain, Q table pinned by offset(q) = 0, and
    its greedy policy; ``iterations`` and ``damped`` as in ``PlannerResult``,
    with the steps of every evaluated policy counted."""

    gain: float
    q: np.ndarray
    policy: Policy
    iterations: int
    residual: float
    damped: int


def _gain_and_residual(tx, x, offset) -> tuple[float, float]:
    """The gain g = offset(Tx) - offset(x) and the sup-norm residual of Tx - g - x."""
    g = offset(tx) - offset(x)
    return g, float(np.abs(tx - g - x).max())


def _stalled(marks: list, step: int, residual: float, tol: float) -> bool:
    """Whether a phase that has not reached ``tol`` by its ``step`` never will, read at steps 2^j, j >= 5.

    It has stalled when its residual is no lower than at the last checkpoint, or when it flattens
    toward a limit that holds most of it: the ratio of the last two checkpoint residuals is no lower
    than the ratio before, and the Aitken extrapolation of the last three is above both tol and half
    the last residual. A residual that goes to 0 at a linear rate squares that ratio at each
    doubling; one that falls like c / k keeps the ratio but extrapolates to 0, and the half keeps
    the extrapolation's upward bias, where the ratio still grows, from stopping it. Without this
    second rule, damped sweeps that approach a positive residual from above run for thousands of
    steps.
    """
    if step < 32 or step & (step - 1):
        return False
    marks.append(residual)
    if len(marks) < 2:
        return False
    if marks[-1] >= marks[-2]:
        return True
    if len(marks) < 3:
        return False
    older, old, new = marks[-3:]
    if new * older < old**2:
        return False
    # new < old and new * older >= old^2 give new + older > 2 old; it rounds to equality only when
    # the residual barely moves, and then the limit is the residual itself
    curvature = new - 2 * old + older
    limit = new - (new - old) ** 2 / curvature if curvature > 0 else new
    return limit > max(tol, new / 2)


def _greedy(q, actions, tol):
    """Greedy actions on q that keep ``actions`` wherever they are within tol/4 of the row max."""
    return np.where(q[np.arange(len(q)), actions] >= q.max(axis=1) - tol / 4, actions, q.argmax(axis=1))


def _policy_iteration(mdp, uset, offset, tol, policy):
    """Robust policy iteration from v = 0, of ``policy``, or with greedy improvement if it is None.

    Each step evaluates the policy exactly under the worst kernel at v or, where that kernel's chain
    is multichain or singular, takes the damped sweep v <- y - offset(y) with y = (v + T_pi v) / 2
    (the aperiodicity transformation, which leaves fixed points and gains unchanged), reading
    T_pi v off the support table at v. One ``support_and_worst`` call at the new v then gives the
    table that certifies it and the next kernel.

    Control pins its v-iterates by the mean and its Q table by ``offset``. It improves a
    deterministic policy greedily on r + sigma(v) - g once its evaluation certifies to tol/4,
    keeping its actions wherever they are within tol/4 of the row max, so tied actions cannot
    cycle; a repeated policy's Q residual is then at most tol. Where the current policy's kernel
    is multichain and the greedy policy differs, it switches to that policy at once.

    A phase (one policy's evaluation) that stalls (``_stalled``) is where policy iteration ends: the
    call starts over as damped relative value iteration from zero, the damped sweep above for
    evaluation (unless every step of the phase already was one, so that it would only repeat it),
    and for control q <- y - offset(y), y = (q + H q) / 2, with the optimal operator
    H q = r + sigma(max_a q), until the Q residual certifies. If those sweeps stall too, the call
    raises ``ConvergenceError``, chained from the last failed exact evaluation.
    """
    control = policy is None
    v_offset = OffsetFn.mean() if control else offset  # control's offset reads the S*A-entry Q table
    v = np.zeros(mdp.n_states)
    sigma, kernel = _support_and_worst(mdp, uset, v)
    sigma0 = sigma
    if control:
        actions = np.argmax(mdp.reward, axis=1)  # greedy at v = 0, where every support value is 0
        policy = Policy.deterministic(actions, mdp.n_actions)
    target = tol / 4 if control else tol
    steps = damped = start = 0
    sweeps_only = False  # whether the phase takes damped sweeps only
    solved = False  # whether an exact evaluation succeeded in the phase
    q = None  # control's Q table, once it takes damped sweeps of the optimal operator
    marks, reason = [], None
    while steps < _MAX_STEPS:
        exact = not sweeps_only
        if exact:
            try:
                v = _gain_and_bias(kernel, mdp.reward, policy.probs, v_offset).bias
                solved = True
            except (MultichainError, np.linalg.LinAlgError, ConvergenceError) as exc:
                reason, exact = exc, False
        if not exact:
            damped += 1
            if control and not sweeps_only:
                greedy = _greedy(mdp.reward + sigma, actions, tol)
                if not np.array_equal(greedy, actions):
                    actions, policy = greedy, Policy.deterministic(greedy, mdp.n_actions)
                    start, marks, solved = steps, [], False
                    continue
            if q is None:
                y = 0.5 * v + 0.5 * np.einsum("sa,sa->s", policy.probs, mdp.reward + sigma)
                v = y - v_offset(y)
            else:
                y = 0.5 * q + 0.5 * (mdp.reward + sigma)
                q = y - offset(y)
                v = q.max(axis=1)
        steps += 1
        sigma, kernel = _support_and_worst(mdp, uset, v)
        if q is not None:
            g, residual = _gain_and_residual(mdp.reward + sigma, q, offset)
            if residual <= tol:
                return ControlResult(float(g), q, greedy_policy(q), steps, residual, damped)
        else:
            g, residual = _gain_and_residual(np.einsum("sa,sa->s", policy.probs, mdp.reward + sigma), v, v_offset)
            if not control and residual <= tol:
                return PlannerResult(float(g), v, steps, residual, damped)
            if control and residual <= tol / 4:
                q_pi = mdp.reward + sigma - g
                greedy = _greedy(q_pi, actions, tol)
                if not np.array_equal(greedy, actions):
                    actions, policy = greedy, Policy.deterministic(greedy, mdp.n_actions)
                    start, marks, solved = steps, [], False
                    continue
                q_pi = q_pi - offset(q_pi)
                g, residual = _gain_and_residual(mdp.reward + support_table(mdp, uset, q_pi.max(axis=1)), q_pi, offset)
                if residual <= tol:
                    return ControlResult(float(g), q_pi, greedy_policy(q_pi), steps, residual, damped)
                raise ConvergenceError("policy iteration's repeated policy left a Q residual above tol", residual) from reason
        if not _stalled(marks, steps - start, residual, target if q is None else tol):
            continue
        if not sweeps_only and (control or solved):
            # damped relative value iteration from zero, on Q for control
            sweeps_only, start, marks, sigma = True, steps, [], sigma0
            if control:
                q = np.zeros((mdp.n_states, mdp.n_actions))
            else:
                v = np.zeros(mdp.n_states)
            continue
        why = f"; the last exact evaluation failed: {reason}" if reason else ""
        raise ConvergenceError(f"policy iteration stalled at step {steps}{why}", residual) from reason
    raise ConvergenceError(f"policy iteration found no certificate within {_MAX_STEPS} steps", residual) from reason


def robust_rvi_eval(
    mdp: TabularMDP,
    policy: Policy,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
) -> PlannerResult:
    """Worst-case gain and value of a fixed policy by robust policy iteration.

    Stops on the sup-norm robust Bellman residual <= tol, with the value
    pinned by offset(v) = 0. Where a worst kernel is multichain or singular
    the step is a damped sweep instead of an exact solve; where policy
    iteration stalls, the call starts over as damped relative value
    iteration from zero (see ``_policy_iteration``). Raises
    ``ConvergenceError`` when that stalls too, or after a fixed number of
    steps.
    """
    return _policy_iteration(mdp, uset, offset or OffsetFn.mean(), tol, policy)


def robust_rvi_control(
    mdp: TabularMDP,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
) -> ControlResult:
    """Optimal worst-case gain, Q table and greedy policy by robust policy iteration.

    The outer loop improves a deterministic policy greedily on
    r + sigma(v) - g, where (g, v) is its robust evaluation, until the policy
    repeats and the sup-norm Q residual is <= tol. Once an evaluation stalls,
    the call starts over as damped relative value iteration on Q from zero,
    and fails as ``robust_rvi_eval`` does when that stalls too. The Q table
    is pinned by offset(q) = 0, with q read flattened, as ``robust_rvi_q``
    reads it; the inner evaluations pin v by the mean.
    """
    return _policy_iteration(mdp, uset, offset or OffsetFn.mean(), tol, None)


@dataclass
class EnumerationResult:
    gain: float
    minimizers: list[int]
    per_kernel: list[GainBias]


_TIE_TOL = 1e-9  # gains within this of the minimum tie


def finite_set_enumeration(mdp: TabularMDP, kernels, policy: Policy) -> EnumerationResult:
    """Exact worst gain over an explicit finite kernel collection.

    Evaluates the policy's gain and relative value function under every
    kernel; the minimizer set contains every kernel whose gain ties with the
    minimum within ``_TIE_TOL``.
    """
    per_kernel = [gain_and_bias(mdp.with_kernel(k), policy, normalization=None) for k in kernels]
    gains = np.array([gb.gain for gb in per_kernel])
    g = float(gains.min())
    minimizers = [i for i, gv in enumerate(gains) if gv <= g + _TIE_TOL]
    return EnumerationResult(g, minimizers, per_kernel)

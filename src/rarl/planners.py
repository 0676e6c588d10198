"""Model-based planning oracles for worst-case average reward.

Robust policy iteration provides ground truth for both policy evaluation and optimal control
(Iyengar 2005; Ho, Petrik & Wiesemann 2021). Each step makes one batched solve at the current
value v (``_support_and_worst``), which gives the support table that certifies v and the exact
worst kernel; evaluating the policy exactly under that kernel gives the next v. That solve, which
``worst_case_kernel`` shares, and ``support_table`` take the rows a set's ``_pairs`` gives, each
distinct nominal row once for a family. Runs terminate on the sup-norm robust Bellman residual,
so every returned solution carries its own certificate. Where policy iteration stalls, one damped
relative value iteration from zero follows it (``_policy_iteration``). A ``FiniteKernelSet`` goes
through the same hooks as a family; ``finite_set_enumeration`` evaluates each kernel of such a
set exactly and returns the worst gain with all minimizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import (
    ConvergenceError,
    GainBias,
    MultichainError,
    OffsetFn,
    Policy,
    TabularMDP,
    _gain_and_bias,
    gain_and_bias,
    greedy_policy,
    support_table,
)


def worst_case_kernel(mdp: TabularMDP, uset, v: np.ndarray) -> np.ndarray:
    """Kernel assembled from worst-case rows at v, by the planners' solve (``_support_and_worst``)."""
    return _support_and_worst(mdp, uset, v)[1]


def _support_and_worst(mdp: TabularMDP, uset, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``support_table`` and ``worst_case_kernel`` at v, from one solve: the set's ``_solve`` and
    ``_worst`` on the rows it answers the MDP's pairs by (``_pairs``), which are not checked again."""
    rows, index = uset._pairs(mdp)
    v = np.asarray(v, dtype=float)
    sigma, duals = uset._solve(rows, v)
    worst = uset._worst(rows, v, duals)
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


def _sweep(x, tx, offset):
    """The damped sweep x <- y - offset(y), y = (x + Tx) / 2: the aperiodicity transformation, which
    leaves fixed points and gains unchanged."""
    y = 0.5 * x + 0.5 * tx
    return y - offset(y)


def _policy_iteration(mdp, uset, offset, tol, policy):
    """Robust policy iteration from v = 0, of ``policy``, or with greedy improvement if it is None,
    then, where it stalls, one damped relative value iteration from zero.

    The first loop is policy iteration. Each step evaluates the policy exactly under the worst
    kernel at v, or where that kernel's chain is multichain or singular takes a damped sweep
    (``_sweep``) of T_pi, and then makes one ``_support_and_worst`` solve at the new v: the table
    that certifies v and the next kernel. Control pins v by the mean and its Q table by ``offset``.
    Once an evaluation certifies to tol/4 it improves its deterministic policy greedily on
    r + sigma(v) - g, keeping each action within tol/4 of its row max, so tied actions cannot cycle
    and a repeated policy's Q residual is at most tol; at a multichain kernel it switches to the
    greedy policy at once if that differs.

    A phase (one policy's evaluation) that stalls (``_stalled``) ends the first loop. The second
    starts over from zero with damped sweeps, of v under T_pi for evaluation and of the Q table
    under H q = r + sigma(max_a q) for control; an evaluation none of whose steps solved exactly
    skips it, as it would only repeat them. Where it stalls too, the call raises
    ``ConvergenceError``, chained from the last failed exact evaluation.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    control = policy is None
    v_offset = OffsetFn.mean() if control else offset  # control's offset reads the S*A-entry Q table
    v = np.zeros(mdp.n_states)
    sigma, kernel = _support_and_worst(mdp, uset, v)
    sigma0 = sigma
    if control:
        actions = np.argmax(mdp.reward, axis=1)  # greedy at v = 0, where every support value is 0
        policy = Policy.deterministic(actions, mdp.n_actions)
    t_pi = lambda sigma: np.einsum("sa,sa->s", policy.probs, mdp.reward + sigma)  # the current policy's T_pi v
    steps = damped = start = 0
    marks, reason = [], None
    while steps < _MAX_STEPS:
        try:
            v = _gain_and_bias(kernel, mdp.reward, policy.probs, v_offset).bias
        except (MultichainError, np.linalg.LinAlgError, ConvergenceError) as exc:
            reason, damped = exc, damped + 1
            if control:
                greedy = _greedy(mdp.reward + sigma, actions, tol)
                if not np.array_equal(greedy, actions):
                    actions, policy, start, marks = greedy, Policy.deterministic(greedy, mdp.n_actions), steps, []
                    continue
            v = _sweep(v, t_pi(sigma), v_offset)
        steps += 1
        sigma, kernel = _support_and_worst(mdp, uset, v)
        g, residual = _gain_and_residual(t_pi(sigma), v, v_offset)
        if not control and residual <= tol:
            return PlannerResult(float(g), v, steps, residual, damped)
        if control and residual <= tol / 4:
            q = mdp.reward + sigma - g
            greedy = _greedy(q, actions, tol)
            if not np.array_equal(greedy, actions):
                actions, policy, start, marks = greedy, Policy.deterministic(greedy, mdp.n_actions), steps, []
                continue
            q = q - offset(q)
            g, residual = _gain_and_residual(mdp.reward + support_table(mdp, uset, q.max(axis=1)), q, offset)
            if residual <= tol:
                return ControlResult(float(g), q, greedy_policy(q), steps, residual, damped)
            raise ConvergenceError("policy iteration's repeated policy left a Q residual above tol", residual) from reason
        if _stalled(marks, steps - start, residual, tol / 4 if control else tol):
            break
    else:
        raise ConvergenceError(f"policy iteration found no certificate within {_MAX_STEPS} steps", residual) from reason
    if control or damped < steps:  # an evaluation restarts only if some step of it solved exactly
        x = np.zeros(mdp.reward.shape if control else mdp.n_states)
        bellman = (lambda sigma: mdp.reward + sigma) if control else t_pi
        sigma, start, marks = sigma0, steps, []
        while steps < _MAX_STEPS:
            steps, damped = steps + 1, damped + 1
            x = _sweep(x, bellman(sigma), offset)
            sigma = _support_and_worst(mdp, uset, x.max(axis=1) if control else x)[0]
            g, residual = _gain_and_residual(bellman(sigma), x, offset)
            if residual <= tol:
                if control:
                    return ControlResult(float(g), x, greedy_policy(x), steps, residual, damped)
                return PlannerResult(float(g), x, steps, residual, damped)
            if _stalled(marks, steps - start, residual, tol):
                break
        else:
            raise ConvergenceError(f"policy iteration found no certificate within {_MAX_STEPS} steps", residual) from reason
    why = f"; the last exact evaluation failed: {reason}" if reason else ""
    raise ConvergenceError(f"policy iteration stalled at step {steps}{why}", residual) from reason


def robust_rvi_eval(
    mdp: TabularMDP,
    policy: Policy,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
) -> PlannerResult:
    """Worst-case gain and value of a fixed policy by robust policy iteration (``_policy_iteration``).

    Stops on the sup-norm robust Bellman residual <= tol, with the value pinned by offset(v) = 0.
    Raises ``ConvergenceError`` where the damped relative value iteration that follows a stall
    stalls too, or after a fixed number of steps.
    """
    return _policy_iteration(mdp, uset, offset or OffsetFn.mean(), tol, policy)


def robust_rvi_control(
    mdp: TabularMDP,
    uset,
    offset: OffsetFn | None = None,
    tol: float = 1e-9,
) -> ControlResult:
    """Optimal worst-case gain, Q table and greedy policy by robust policy iteration.

    Improves a deterministic policy greedily on r + sigma(v) - g, where (g, v) is its robust
    evaluation, until the policy repeats and the sup-norm Q residual is <= tol. A stalled
    evaluation is followed by damped relative value iteration on Q from zero, and the call fails
    as ``robust_rvi_eval`` does. The Q table is pinned by offset(q) = 0, with q read flattened as
    ``robust_rvi_q`` reads it.
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

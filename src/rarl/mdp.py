"""Exact tabular MDP machinery.

This module provides:
- ``TabularMDP`` and ``Policy`` containers that check themselves when built, JSON
  round-trips, and ``greedy_policy``. Kernel rows, policy rows and demand laws share one rule.
- Induced-chain construction (state transition matrix and state reward vector).
- Chain structure from one reachability closure of the support graph, and
  dense linear solves on it: unichain detection, exact stationary
  distributions, per-start-state gain vectors of multichain chains, and the
  exact gain / relative value ("bias") of a fixed policy.
- Relative-value-iteration offset functionals (reference state, mean).
- The span seminorm, the support table sigma(s, a, v) shared with the
  planners, and the worst-case Bellman residual check used to certify
  solutions of the worst-case average-reward fixed-point equation. They solve the
  rows a set's ``_pairs`` gives (a family's distinct nominal rows) and copy the answers to the pairs.

All containers are immutable after construction; the operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .uncertainty import _check_value, _distinct, _row_violation

SUPPORT_EPS = 1e-12
_GAIN_BIAS_RTOL = 1e-7  # gain_and_bias rejects a residual above this times (1 + max |r_pi|)


class MultichainError(ValueError):
    """The induced chain has more than one recurrent class."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class TabularMDP:
    """Finite MDP with kernel shape (S, A, S) and reward table shape (S, A).

    Row ``kernel[s, a]`` is the next-state distribution after taking action
    ``a`` in state ``s``. Rewards are finite reals; no range is imposed.
    Raises ValueError, naming the first violation, unless both dimensions
    are positive, both shapes match them, every reward is finite and every
    kernel row is a distribution by the rule policy rows follow.
    """

    n_states: int
    n_actions: int
    kernel: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kernel", np.ascontiguousarray(self.kernel, dtype=float))
        object.__setattr__(self, "reward", np.ascontiguousarray(self.reward, dtype=float))
        problem = self._violation()
        if problem is not None:
            raise ValueError(f"invalid MDP: {problem}")
        self.kernel.setflags(write=False)
        self.reward.setflags(write=False)

    def _violation(self) -> str | None:
        """The first condition of the class docstring that fails, or None."""
        n_s, n_a = self.n_states, self.n_actions
        if n_s < 1 or n_a < 1:
            return f"non-positive dimensions (n_states={n_s}, n_actions={n_a})"
        if self.kernel.shape != (n_s, n_a, n_s):
            return f"kernel shape {self.kernel.shape} != {(n_s, n_a, n_s)}"
        if self.reward.shape != (n_s, n_a):
            return f"reward shape {self.reward.shape} != {(n_s, n_a)}"
        if not np.isfinite(self.reward).all():
            s, a = np.argwhere(~np.isfinite(self.reward))[0]
            return f"non-finite reward at (s={s},a={a})"
        return _row_violation(self.kernel, ("s", "a", "s'"))

    @cached_property
    def _distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct nominal rows in order of first appearance, and each (s, a) pair's index into
        them, s-major; rows are the same when their bits are. Where every row is distinct, the S*A
        rows as they are (a view of the kernel) and the identity index. Computed on first use, once
        per instance."""
        rows = self.kernel.reshape(-1, self.n_states)
        first: dict[bytes, int] = {}
        pairs = [first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]
        keep = np.fromiter(first.values(), dtype=np.intp, count=len(first))
        distinct, index = (rows[keep] if len(keep) < len(rows) else rows), np.searchsorted(keep, pairs)
        distinct.setflags(write=False)  # shared by every later solve, like the kernel it is read from
        index.setflags(write=False)
        return distinct, index

    def with_kernel(self, kernel: np.ndarray) -> "TabularMDP":
        """Copy of this MDP with a replacement transition kernel, checked as any MDP is."""
        return TabularMDP(self.n_states, self.n_actions, np.array(kernel, dtype=float), self.reward)

    def to_json(self) -> str:
        doc = {
            "n_states": self.n_states,
            "n_actions": self.n_actions,
            # one row per (s, a), s-major
            "kernel": self.kernel.reshape(self.n_states * self.n_actions, self.n_states).tolist(),
            "reward": self.reward.tolist(),
        }
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str) -> "TabularMDP":
        """The MDP a ``to_json`` document describes. Text that is no JSON, a missing field, a field that is
        no number or array, or any violation the constructor names raises ValueError("invalid MDP: ...")."""
        try:
            doc = json.loads(text)
            n_s, n_a = int(doc["n_states"]), int(doc["n_actions"])
            kernel, reward = np.asarray(doc["kernel"], dtype=float), np.asarray(doc["reward"], dtype=float)
        except KeyError as exc:
            raise ValueError(f"invalid MDP: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid MDP: {exc}") from exc
        if n_s > 0 and n_a > 0:  # reshape what fits, so that the constructor's shape check names the rest
            kernel = kernel.reshape(n_s, n_a, n_s) if kernel.size == n_s * n_a * n_s else kernel
            reward = reward.reshape(n_s, n_a) if reward.size == n_s * n_a else reward
        return TabularMDP(n_s, n_a, kernel, reward)


@dataclass(frozen=True)
class Policy:
    """Stationary policy; ``probs[s, a]`` is the probability of action a in s. Raises ValueError
    unless ``probs`` is (S, A) and every row is a distribution, by the rule kernel rows follow."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=float)
        problem = _row_violation(probs, ("s", "a")) if probs.ndim == 2 else f"expected shape (S, A), got {probs.shape}"
        if problem is not None:
            raise ValueError(f"policy rows must be distributions: {problem}")
        object.__setattr__(self, "probs", probs)
        self.probs.setflags(write=False)

    @staticmethod
    def uniform(n_states: int, n_actions: int) -> "Policy":
        return Policy(np.full((n_states, n_actions), 1.0 / n_actions))

    @staticmethod
    def deterministic(actions: Sequence[int], n_actions: int) -> "Policy":
        """One-hot rows; an action outside 0..n_actions - 1 leaves its row all zero, which fails the row check."""
        return Policy((np.asarray(actions)[:, None] == np.arange(n_actions)).astype(float))

    def actions(self) -> np.ndarray:
        """Greedy action per state (only meaningful for deterministic policies)."""
        return np.argmax(self.probs, axis=1)


def greedy_policy(q: np.ndarray) -> Policy:
    """Deterministic argmax policy; ties break toward the lowest action index."""
    q = np.asarray(q, dtype=float)
    if not np.all(np.isfinite(q)):
        raise ValueError("greedy policy of a non-finite Q table")
    return Policy.deterministic(np.argmax(q, axis=1), q.shape[1])


@dataclass(frozen=True)
class GainBias:
    """Long-run average reward and the relative value function solving
    v = r_pi - gain*e + P_pi v under the requested normalization."""

    gain: float
    bias: np.ndarray


@dataclass(frozen=True)
class OffsetFn:
    """Normalizing functional used by relative value iteration: the value at the reference
    ``state``, or the mean where ``state`` is None.

    Satisfies f(e) = 1, f(x + c e) = f(x) + c and f(c x) = c f(x); both
    variants are 1-Lipschitz in the sup norm. Arrays are read flattened, so
    the same functional applies to value vectors and Q tables.
    """

    state: int | None = None

    def __post_init__(self):
        if not (self.state is None or (type(self.state) is int or isinstance(self.state, np.integer)) and self.state >= 0):
            raise ValueError(f"offset state must be None or an integer >= 0, got {self.state!r}")

    @staticmethod
    def mean() -> "OffsetFn":
        return OffsetFn()

    @staticmethod
    def reference_state(state: int) -> "OffsetFn":
        return OffsetFn(int(state))

    def __call__(self, x: np.ndarray) -> float:
        return float(self.batch(np.asarray(x)[None])[0])

    def batch(self, x: np.ndarray) -> np.ndarray:
        """The offset of each x[i] of a stacked batch, shape (B,); each equals ``self(x[i])``."""
        flat = np.asarray(x, dtype=float).reshape(len(x), -1)
        if self.state is None:
            return np.add.reduce(flat, axis=1) / flat.shape[1]  # the sum and divide of ndarray.mean
        if self.state >= flat.shape[1]:
            raise IndexError(f"offset state {self.state} is out of range for {flat.shape[1]} entries")
        return flat[:, self.state]


def induced_chain(mdp: TabularMDP, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """State transition matrix and state reward vector of the chain under policy.

    P_pi[s] = sum_a pi(a|s) kernel[s, a]; r_pi[s] = sum_a pi(a|s) reward[s, a].
    """
    return _induced_chain(mdp.kernel, mdp.reward, policy.probs)


def _induced_chain(kernel: np.ndarray, reward: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``induced_chain`` of the policy rows ``probs`` on an (S, A, S) kernel and (S, A) reward table."""
    if probs.shape != reward.shape:
        raise ValueError(f"policy shape {probs.shape} does not match MDP {reward.shape}")
    return np.einsum("sa,sat->st", probs, kernel), np.einsum("sa,sa->s", probs, reward)


def _reach(p: np.ndarray) -> np.ndarray:
    """Reachability closure of the support graph (edges: entries above SUPPORT_EPS), (P > eps) | I
    squared until it stops changing; reach[i, j] iff j is reachable from i. State i lies in a closed
    class iff every state it reaches reaches it back, and its class is then its reach row."""
    reach = (np.asarray(p, dtype=float) > SUPPORT_EPS) | np.eye(len(p), dtype=bool)
    while True:
        longer = reach @ reach  # boolean product: paths of up to twice the length
        if np.array_equal(longer, reach):
            return reach
        reach = longer


def _closed_classes(reach: np.ndarray) -> np.ndarray:
    """The closed classes of a reachability closure, as state masks, one row per class in the
    order of their first states."""
    closed = (reach <= reach.T).all(axis=1)
    return reach[_distinct(reach[closed].argmax(axis=1))]


def _class_distribution(p: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """Stationary distribution of the closed class ``cls`` (a state mask), 0 off the class:
    one dense solve of mu (I - P) = 0 on the class."""
    k = int(cls.sum())
    a = (np.eye(k) - p[np.ix_(cls, cls)]).T
    a[-1] = 1.0  # sum(mu) = 1 replaces the last balance equation
    mu = np.zeros(len(p))
    mu[cls] = np.linalg.solve(a, np.eye(k)[-1])
    return mu


def is_unichain(p: np.ndarray) -> bool:
    """True iff the chain has exactly one closed recurrent class, i.e. some state is reachable
    from every state: every state reaches a closed class, and a state that every closed class
    reaches lies in each of them."""
    return bool(_reach(p).all(axis=0).any())


def _recurrent(p: np.ndarray) -> np.ndarray:
    """The recurrent states of a unichain transition matrix, those every state reaches, as a state
    mask. Raises MultichainError if more than one class is closed."""
    reach = _reach(p)
    recurrent = reach.all(axis=0)
    if not recurrent.any():
        raise MultichainError(f"induced chain has {len(_closed_classes(reach))} closed recurrent classes")
    return recurrent


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of a unichain transition matrix, exact on periodic and slowly
    mixing chains alike: one solve on the closed class (the states every state reaches), 0 on
    transient states. Raises MultichainError if more than one class is closed."""
    p = np.asarray(p, dtype=float)
    return _class_distribution(p, _recurrent(p))


def gain_and_bias(
    mdp: TabularMDP,
    policy: Policy,
    normalization: OffsetFn | None = None,
) -> GainBias:
    """Exact gain and relative value function of a policy on a unichain MDP.

    Solves the (S+1)-unknown linear system [v = r_pi - g e + P_pi v; f(v) = 0].
    With ``normalization=None`` the bias is pinned by mu . v = 0 (mu the
    stationary distribution), which is the unique relative value function in
    the cumulative-deviation sense; an OffsetFn pins f(v) = 0 instead.
    """
    return _gain_and_bias(mdp.kernel, mdp.reward, policy.probs, normalization)


def _gain_and_bias(kernel: np.ndarray, reward: np.ndarray, probs: np.ndarray, normalization: OffsetFn | None) -> GainBias:
    """``gain_and_bias`` on any kernel with the MDP's reward table; the planners evaluate their worst
    kernels by it without building an MDP around each."""
    p_pi, r_pi = _induced_chain(kernel, reward, probs)
    recurrent = _recurrent(p_pi)
    n = len(p_pi)
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    a[:n, :n] = np.eye(n) - p_pi
    a[:n, n] = 1.0
    b[:n] = r_pi
    # an offset is linear, so its row of coefficients is its value on each unit vector: 1/n or e_s
    a[n, :n] = _class_distribution(p_pi, recurrent) if normalization is None else normalization.batch(np.eye(n))
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular gain/bias system: {exc}") from exc
    gain, bias = float(sol[n]), sol[:n]
    residual = float(np.max(np.abs(bias - (r_pi - gain + p_pi @ bias))))
    if residual > _GAIN_BIAS_RTOL * (1.0 + np.abs(r_pi).max()):
        raise ConvergenceError("gain/bias solve left a large residual", residual)
    return GainBias(gain, bias)


def gain_vector(p: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per-start-state long-run average reward, valid for multichain matrices.

    Each closed class gets the stationary average of r over the class; the
    transient states T then take one solve of (I - P_TT) g_T = P_TR g_R, with
    R the closed states. On a unichain every entry equals the gain.
    """
    p = np.asarray(p, dtype=float)
    classes = _closed_classes(_reach(p))
    g = np.zeros(len(p))
    for cls in classes:
        g[cls] = _class_distribution(p, cls) @ r
    closed = classes.any(axis=0)
    t = ~closed
    g[t] = np.linalg.solve(np.eye(int(t.sum())) - p[np.ix_(t, t)], p[np.ix_(t, closed)] @ g[closed])
    return g


def span(v: np.ndarray) -> float:
    """Span seminorm max(v) - min(v)."""
    v = np.asarray(v, dtype=float)
    return float(v.max() - v.min())


def support_table(mdp: TabularMDP, uset, v: np.ndarray) -> np.ndarray:
    """sigma(s, a, v) for every pair: one ``support_batch`` call over the rows the set answers the
    pairs by (``uset._pairs``), a family's distinct nominal rows each solved once."""
    rows, index = uset._pairs(mdp)
    return uset.support_batch(rows, np.asarray(v, dtype=float))[index].reshape(mdp.n_states, mdp.n_actions)


def robust_bellman_residual(
    mdp: TabularMDP,
    policy: Policy,
    uset,
    gain: float,
    v: np.ndarray,
) -> np.ndarray:
    """Residual of the worst-case average-reward fixed-point equation.

    residual[s] = sum_a pi(a|s) (r(s,a) - gain + sigma(s,a,v)) - v(s), where
    sigma is the uncertainty set's support value at the nominal row, taken
    from ``support_table``. Raises ValueError unless v is a finite vector of
    length S.
    """
    v = _check_value(v, mdp.n_states)
    sigma = support_table(mdp, uset, v)
    return np.einsum("sa,sa->s", policy.probs, mdp.reward - gain + sigma) - v

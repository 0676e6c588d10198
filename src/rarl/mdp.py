"""Exact tabular MDP machinery.

This module provides:
- ``TabularMDP`` and ``Policy`` containers with validation and JSON round-trips.
- Induced-chain construction (state transition matrix and state reward vector).
- Chain structure from one reachability closure of the support graph, and
  dense linear solves on it: unichain detection, exact stationary
  distributions, per-start-state gain vectors of multichain chains, and the
  exact gain / relative value ("bias") of a fixed policy.
- Relative-value-iteration offset functionals (reference state, mean).
- The span seminorm, the support table sigma(s, a, v) shared with the
  planners, and the worst-case Bellman residual check used to certify
  solutions of the worst-case average-reward fixed-point equation.

All containers are immutable after construction; the operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9
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
    """

    n_states: int
    n_actions: int
    kernel: np.ndarray
    reward: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kernel", np.ascontiguousarray(self.kernel, dtype=float))
        object.__setattr__(self, "reward", np.ascontiguousarray(self.reward, dtype=float))
        self.kernel.setflags(write=False)
        self.reward.setflags(write=False)

    def with_kernel(self, kernel: np.ndarray) -> "TabularMDP":
        """Copy of this MDP with a replacement transition kernel."""
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
        doc = json.loads(text)
        n_s, n_a = int(doc["n_states"]), int(doc["n_actions"])
        kernel = np.asarray(doc["kernel"], dtype=float).reshape(n_s, n_a, n_s)
        reward = np.asarray(doc["reward"], dtype=float).reshape(n_s, n_a)
        return TabularMDP(n_s, n_a, kernel, reward)


@dataclass(frozen=True)
class Policy:
    """Stationary policy; ``probs[s, a]`` is the probability of action a in s."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.ascontiguousarray(self.probs, dtype=float))
        self.probs.setflags(write=False)

    @staticmethod
    def uniform(n_states: int, n_actions: int) -> "Policy":
        return Policy(np.full((n_states, n_actions), 1.0 / n_actions))

    @staticmethod
    def deterministic(actions: Sequence[int], n_actions: int) -> "Policy":
        if any(not 0 <= a < n_actions for a in actions):
            raise ValueError(f"actions {list(actions)} outside 0..{n_actions - 1}")
        probs = np.zeros((len(actions), n_actions))
        probs[np.arange(len(actions)), list(actions)] = 1.0
        return Policy(probs)

    def actions(self) -> np.ndarray:
        """Greedy action per state (only meaningful for deterministic policies)."""
        return np.argmax(self.probs, axis=1)


@dataclass(frozen=True)
class GainBias:
    """Long-run average reward and the relative value function solving
    v = r_pi - gain*e + P_pi v under the requested normalization."""

    gain: float
    bias: np.ndarray


class OffsetFn:
    """Normalizing functional used by relative value iteration.

    Satisfies f(e) = 1, f(x + c e) = f(x) + c and f(c x) = c f(x); both
    variants are 1-Lipschitz in the sup norm. Arrays are read through
    ``ravel()`` so the same functional applies to value vectors and Q tables.
    """

    def __init__(self, kind: str, state: int = 0):
        if kind not in ("mean", "state"):
            raise ValueError(f"unknown offset kind {kind!r}")
        self.kind = kind
        self.state = int(state)

    @staticmethod
    def mean() -> "OffsetFn":
        return OffsetFn("mean")

    @staticmethod
    def reference_state(state: int) -> "OffsetFn":
        return OffsetFn("state", state)

    def __call__(self, x: np.ndarray) -> float:
        flat = np.asarray(x, dtype=float).ravel()
        if self.kind == "mean":
            return float(flat.mean())
        return float(flat[self.state])

    def batch(self, x: np.ndarray) -> np.ndarray:
        """The offset of each x[i] of a stacked batch, shape (B,); each equals ``self(x[i])``."""
        flat = np.asarray(x, dtype=float).reshape(len(x), -1)
        if self.kind == "mean":
            return np.add.reduce(flat, axis=1) / flat.shape[1]  # the sum and divide of ndarray.mean
        return flat[:, self.state]

    def __repr__(self):
        return f"OffsetFn({self.kind!r}, state={self.state})" if self.kind == "state" else "OffsetFn('mean')"


def validate(mdp: TabularMDP) -> str | None:
    """Return None if the MDP is well formed, else the first violation found."""
    if mdp.n_states < 1 or mdp.n_actions < 1:
        return f"non-positive dimensions (n_states={mdp.n_states}, n_actions={mdp.n_actions})"
    if mdp.kernel.shape != (mdp.n_states, mdp.n_actions, mdp.n_states):
        return f"kernel shape {mdp.kernel.shape} != {(mdp.n_states, mdp.n_actions, mdp.n_states)}"
    if mdp.reward.shape != (mdp.n_states, mdp.n_actions):
        return f"reward shape {mdp.reward.shape} != {(mdp.n_states, mdp.n_actions)}"
    if not np.all(np.isfinite(mdp.reward)):
        s, a = np.argwhere(~np.isfinite(mdp.reward))[0]
        return f"non-finite reward at (s={s},a={a})"
    if not np.all(np.isfinite(mdp.kernel)):
        s, a, _ = np.argwhere(~np.isfinite(mdp.kernel))[0]
        return f"non-finite kernel entry at (s={s},a={a})"
    neg = np.argwhere(mdp.kernel < 0)
    if neg.size:
        s, a, j = neg[0]
        return f"negative entry {mdp.kernel[s, a, j]:.6g} at (s={s},a={a},s'={j})"
    sums = mdp.kernel.sum(axis=2)
    bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        s, a = bad[0]
        return f"row sum {sums[s, a]:.6g} at (s={s},a={a})"
    return None


def validate_policy(policy: Policy, mdp: TabularMDP | None = None) -> str | None:
    """Return None if the policy rows are simplex rows (of matching shape)."""
    probs = policy.probs
    if mdp is not None and probs.shape != (mdp.n_states, mdp.n_actions):
        return f"policy shape {probs.shape} != {(mdp.n_states, mdp.n_actions)}"
    if not np.all(np.isfinite(probs)):
        s, a = np.argwhere(~np.isfinite(probs))[0]
        return f"non-finite probability at (s={s},a={a})"
    if np.any(probs < 0):
        s, a = np.argwhere(probs < 0)[0]
        return f"negative probability at (s={s},a={a})"
    sums = probs.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        return f"row sum {sums[bad[0, 0]]:.6g} at s={bad[0, 0]}"
    return None


def induced_chain(mdp: TabularMDP, policy: Policy) -> tuple[np.ndarray, np.ndarray]:
    """State transition matrix and state reward vector of the chain under policy.

    P_pi[s] = sum_a pi(a|s) kernel[s, a]; r_pi[s] = sum_a pi(a|s) reward[s, a].
    """
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"{(mdp.n_states, mdp.n_actions)}"
        )
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.kernel)
    r_pi = np.einsum("sa,sa->s", policy.probs, mdp.reward)
    return p_pi, r_pi


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
    return reach[np.unique(reach[closed].argmax(axis=1))]


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


def stationary_distribution(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of a unichain transition matrix, exact on periodic and slowly
    mixing chains alike: one solve on the closed class (the states every state reaches), 0 on
    transient states. Raises MultichainError if more than one class is closed."""
    p = np.asarray(p, dtype=float)
    reach = _reach(p)
    recurrent = reach.all(axis=0)
    if not recurrent.any():
        raise MultichainError(f"chain has {len(_closed_classes(reach))} closed recurrent classes")
    return _class_distribution(p, recurrent)


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
    p_pi, r_pi = induced_chain(mdp, policy)
    reach = _reach(p_pi)
    recurrent = reach.all(axis=0)
    if not recurrent.any():
        raise MultichainError(f"induced chain has {len(_closed_classes(reach))} closed recurrent classes")
    n = mdp.n_states
    a = np.zeros((n + 1, n + 1))
    b = np.zeros(n + 1)
    a[:n, :n] = np.eye(n) - p_pi
    a[:n, n] = 1.0
    b[:n] = r_pi
    if normalization is None:
        a[n, :n] = _class_distribution(p_pi, recurrent)
    elif normalization.kind == "mean":
        a[n, :n] = 1.0 / n
    else:
        a[n, normalization.state] = 1.0
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
    """sigma(s, a, v) for every pair: one ``support_batch`` call over the S*A nominal rows, s-major."""
    n_s = mdp.n_states
    return uset.support_batch(mdp.kernel.reshape(-1, n_s), np.asarray(v, dtype=float)).reshape(n_s, mdp.n_actions)


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
    from ``support_table``.
    """
    v = np.asarray(v, dtype=float)
    sigma = support_table(mdp, uset, v)
    return np.einsum("sa,sa->s", policy.probs, mdp.reward - gain + sigma) - v

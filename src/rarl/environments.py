"""Benchmark MDP constructors and perturbation families.

Garnet-style random instances, the three-state two-kernel counterexample, the
recycling robot, average-profit inventory control with perturbable demand, the
two-state one-loop task with its perturbed twin, and a native 4x4 frozen-lake
grid. Constructors are pure and deterministic given their arguments (and seed
where applicable); every output is a ``TabularMDP``, which checks itself when built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Policy, TabularMDP, gain_and_bias, gain_vector, induced_chain
from .uncertainty import FiniteKernelSet, _row_violation


def garnet(n_states: int, n_actions: int, seed: int) -> TabularMDP:
    """Random dense MDP: kernel rows are normal draws around 1 (clipped at zero,
    then normalized), rewards are normal around 1; the per-pair spread
    parameters are drawn uniformly from [0, 100] and read as variances."""
    if n_states < 1 or n_actions < 1:
        raise ValueError("sizes must be >= 1")
    rng = np.random.default_rng(seed)
    kernel = np.zeros((n_states, n_actions, n_states))
    reward = np.zeros((n_states, n_actions))
    for s in range(n_states):
        for a in range(n_actions):
            sig2 = rng.uniform(0.0, 100.0)
            mu2 = rng.uniform(0.0, 100.0)
            row = np.maximum(rng.normal(1.0, np.sqrt(sig2), size=n_states), 0.0)
            while row.sum() <= 0.0:
                row = np.maximum(rng.normal(1.0, np.sqrt(sig2), size=n_states), 0.0)
            kernel[s, a] = row / row.sum()
            reward[s, a] = rng.normal(1.0, np.sqrt(mu2))
    return TabularMDP(n_states, n_actions, kernel, reward)


@dataclass
class ExampleA:
    """Three states, one action; the first state's row is ambiguous between
    jumping to state 1 or state 2 (0-indexed), states 1 and 2 swap forever."""

    mdp: TabularMDP
    kernels: list
    uset: FiniteKernelSet
    policy: Policy


def example_a(r1: float, r2: float, r3: float) -> ExampleA:
    rewards = np.array([[r1], [r2], [r3]])
    k1 = np.zeros((3, 1, 3))
    k1[0, 0] = [0.0, 1.0, 0.0]
    k1[1, 0] = [0.0, 0.0, 1.0]
    k1[2, 0] = [0.0, 1.0, 0.0]
    k2 = k1.copy()
    k2[0, 0] = [0.0, 0.0, 1.0]
    mdp = TabularMDP(3, 1, k1, rewards)
    uset = FiniteKernelSet([k1, k2])
    return ExampleA(mdp, [k1, k2], uset, Policy.deterministic([0, 0, 0], 1))


# recycling robot states / actions
LOW, HIGH = 0, 1
SEARCH, WAIT, RECHARGE = 0, 1, 2


def recycling_robot(
    alpha: float = 0.5,
    beta: float = 0.5,
    r_search: float = 2.0,
    r_wait: float = 1.0,
    rescue_penalty: float = -3.0,
) -> TabularMDP:
    """Two battery levels (low, high) and actions (search, wait, recharge).

    Searching finds a can with probability alpha at low / beta at high and
    stays at the same level; an unsuccessful search at low drains the battery
    and the robot is carried home (next state high, penalty reward), while at
    high it merely drops the level to low. Rewards of stochastic outcomes are
    stored as their expectations. Waiting keeps the level; recharging always
    restores high at zero reward.
    """
    for name, p in (("alpha", alpha), ("beta", beta)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    kernel = np.zeros((2, 3, 2))
    reward = np.zeros((2, 3))
    kernel[LOW, SEARCH] = [alpha, 1.0 - alpha]
    reward[LOW, SEARCH] = alpha * r_search + (1.0 - alpha) * rescue_penalty
    kernel[HIGH, SEARCH] = [1.0 - beta, beta]
    reward[HIGH, SEARCH] = beta * r_search
    kernel[LOW, WAIT] = [1.0, 0.0]
    kernel[HIGH, WAIT] = [0.0, 1.0]
    reward[:, WAIT] = r_wait
    kernel[LOW, RECHARGE] = [0.0, 1.0]
    kernel[HIGH, RECHARGE] = [0.0, 1.0]
    return TabularMDP(2, 3, kernel, reward)


def inventory(
    capacity: int = 16,
    max_order: int = 8,
    demand: np.ndarray | None = None,
    penalty: float = -15.0,
    hold_rate: float = 3.0,
    price: float = 5.0,
    order_rate: float = 1.0,
) -> TabularMDP:
    """Average-profit inventory control on stock levels {0..capacity}.

    Ordering a units costs a * order_rate, holding costs hold_rate * (s + a);
    demand D is met (revenue price * D) when D <= s + a, otherwise the penalty
    is incurred. Stock transitions to clip(s + a - D, 0, capacity); orders
    beyond capacity are allowed but the excess is truncated. Rewards are
    expectations over the demand distribution (default: uniform on
    {0..capacity}).
    """
    n_states = capacity + 1
    n_actions = max_order + 1
    if demand is None:
        demand = np.full(n_states, 1.0 / n_states)
    demand = np.asarray(demand, dtype=float)
    problem = _row_violation(demand, ("d",)) if demand.ndim == 1 else f"shape {demand.shape}"
    if problem is not None:
        raise ValueError(f"demand must be a probability vector: {problem}")
    d_vals = np.arange(len(demand))
    kernel = np.zeros((n_states, n_actions, n_states))
    reward = np.zeros((n_states, n_actions))
    for s in range(n_states):
        for a in range(n_actions):
            stock = s + a
            met = d_vals <= stock
            sales = np.where(met, price * d_vals, penalty)
            reward[s, a] = -a * order_rate - hold_rate * stock + demand @ sales
            nxt = np.clip(stock - d_vals, 0, capacity)
            np.add.at(kernel[s, a], nxt, demand)
    return TabularMDP(n_states, n_actions, kernel, reward)


def inventory_perturbed_demand(m: int, b: float, n: int = 17) -> np.ndarray:
    """Demand law concentrating extra mass b on the neighbor pair {m, m+1}:
    1/n + b (n-2) / (2n) on the pair, (1-b)/n elsewhere."""
    if not 0.0 <= b <= 1.0:
        raise ValueError(f"b must lie in [0, 1], got {b}")
    if not 0 <= m <= n - 2:
        raise ValueError(f"m must lie in [0, {n - 2}], got {m}")
    u = np.full(n, (1.0 - b) / n)
    u[m : m + 2] = 1.0 / n + b * (n - 2) / (2 * n)
    return u


def one_loop() -> tuple[TabularMDP, TabularMDP]:
    """Two states, two actions (left, right); returns (nominal, perturbed).

    Nominal: left always moves to state 0 (reward 0); right moves 0 -> 1 at
    reward -2 and self-loops on 1 at reward +1. The perturbed twin redirects
    the right action at state 1 back to state 0, keeping its +1 reward.
    """
    kernel = np.zeros((2, 2, 2))
    reward = np.zeros((2, 2))
    kernel[0, 0] = [1.0, 0.0]
    kernel[0, 1] = [0.0, 1.0]
    reward[0, 1] = -2.0
    kernel[1, 0] = [1.0, 0.0]
    kernel[1, 1] = [0.0, 1.0]
    reward[1, 1] = 1.0
    nominal = TabularMDP(2, 2, kernel, reward)
    perturbed_kernel = kernel.copy()
    perturbed_kernel[1, 1] = [1.0, 0.0]
    return nominal, nominal.with_kernel(perturbed_kernel)


FROZEN_LAKE_MAP = ["SFFF", "FHFH", "FFFH", "HFFG"]
_MOVES = {0: (0, -1), 1: (1, 0), 2: (0, 1), 3: (-1, 0)}  # left, down, right, up


def frozen_lake_4x4(slip_probability: float = 2.0 / 3.0) -> TabularMDP:
    """Native 4x4 frozen lake on the standard map with 4 actions.

    The agent moves in the intended direction with probability
    1 - slip_probability and slips to each perpendicular direction with
    probability slip_probability / 2 (2/3 reproduces the conventional
    one-third split). Moving off-grid leaves the position unchanged. Holes and
    the goal are self-looping so the chain stays recurrent; the reward is 1
    for every step spent at the goal and 0 elsewhere.
    """
    if not 0.0 <= slip_probability <= 1.0:
        raise ValueError(f"slip probability must lie in [0, 1], got {slip_probability}")
    rows, cols = 4, 4
    tiles = "".join(FROZEN_LAKE_MAP)
    n_states, n_actions = rows * cols, 4
    kernel = np.zeros((n_states, n_actions, n_states))
    reward = np.zeros((n_states, n_actions))

    def step(s, move):
        r, c = divmod(s, cols)
        dr, dc = _MOVES[move]
        nr, nc = r + dr, c + dc
        if not (0 <= nr < rows and 0 <= nc < cols):
            return s
        return nr * cols + nc

    for s in range(n_states):
        if tiles[s] in "HG":
            kernel[s, :, s] = 1.0
            if tiles[s] == "G":
                reward[s, :] = 1.0
            continue
        for a in range(n_actions):
            kernel[s, a, step(s, a)] += 1.0 - slip_probability
            for perp in ((a + 1) % 4, (a + 3) % 4):
                kernel[s, a, step(s, perp)] += slip_probability / 2.0
    return TabularMDP(n_states, n_actions, kernel, reward)


def evaluate_under_perturbation(
    policy: Policy, perturbed: TabularMDP, start_state: int | None = None
) -> float:
    """Exact average reward of a fixed policy on a perturbed environment.

    If the induced chain is multichain the gain depends on the start state;
    passing ``start_state`` reads the gain from that state off ``gain_vector``
    (one stationary solve per closed class, one solve for the transient
    states), otherwise multichain policies raise ``MultichainError``.
    """
    if start_state is None:
        return gain_and_bias(perturbed, policy).gain
    return float(gain_vector(*induced_chain(perturbed, policy))[start_state])


def worst_gain_over(policy: Policy, perturbed_mdps, start_state: int | None = None) -> float:
    """Minimum exact gain of the policy over a collection of perturbed MDPs."""
    gains = [evaluate_under_perturbation(policy, m, start_state) for m in perturbed_mdps]
    if not gains:
        raise ValueError("empty perturbation collection")
    return float(min(gains))

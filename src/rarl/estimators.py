"""Unbiased sampled estimates of the support function sigma(p, v) = min q.v.

Only next-state samples from the nominal kernel are available. The
contamination family is linear in the nominal row, so a single sample gives an
unbiased support estimate. The other families are non-linear; plugging in an
empirical row is biased, so they use a randomized-level multi-level
Monte-Carlo telescope (Blanchet & Glynn 2015): draw a geometric level N, draw
2^(N+1) next states, form the even-index / odd-index / pooled / first-sample
empirical rows, and combine their exact support values as

    sigma_hat = sigma(first) + [sigma(all) - (sigma(even) + sigma(odd)) / 2] / p_N,

with p_N = psi (1 - psi)^N. Empirical rows are represented by multinomial
counts, which follow the same law as tallying individual draws, so the cost of
a level-N estimate is O(S) rather than O(2^N).

The draws never depend on v, so an ``EstimateStream`` draws many iterations'
worth at once and runs one support solve per iteration over its 4n rows.
Estimators are pure given an RNG; callers own their seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mdp import TabularMDP
from .uncertainty import ChiSquare, Contamination, UncertaintySet

_BLOCK_FLOATS = 1 << 17  # floats in a block's row buffer: 1 MiB


class KernelSampler:
    """Generative access to an explicit nominal kernel: i.i.d. next states per (s, a)."""

    def __init__(self, kernel: np.ndarray):
        kernel = np.asarray(kernel, dtype=float)
        if kernel.ndim != 3 or kernel.shape[2] != kernel.shape[0]:
            raise ValueError(f"expected kernel of shape (S, A, S), got {kernel.shape}")
        self.kernel = kernel
        self.n_states = kernel.shape[0]
        self._cdf = np.cumsum(kernel, axis=2)

    @staticmethod
    def from_mdp(mdp: TabularMDP) -> "KernelSampler":
        return KernelSampler(mdp.kernel)

    def draw_one_each(self, s_idx: np.ndarray, a_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One independent next state per (s_idx[i], a_idx[i])."""
        u = rng.random(len(s_idx))
        idx = (self._cdf[s_idx, a_idx] < u[:, None]).sum(axis=1)
        return np.minimum(idx, self.n_states - 1)

    def draw_counts_each(self, s_idx: np.ndarray, a_idx: np.ndarray, count, rng: np.random.Generator) -> np.ndarray:
        """Occurrence counts of ``count`` i.i.d. draws per (s_idx[i], a_idx[i]), shape (..., S).

        ``count`` is an int or an int array that broadcasts against the index arrays; one
        multinomial draws all rows, in C order of the broadcast shape.
        """
        return rng.multinomial(count, self.kernel[s_idx, a_idx]).astype(np.int64, copy=False)


@dataclass(frozen=True)
class MlmcConfig:
    """Geometric-level parameter and a practical cap on the level.

    The proven ranges are psi in (0, 0.5) for TV / KL / Wasserstein and
    psi in (0, 1 - sqrt(2)/2) for chi-square. The cap bounds the worst-case
    sample cost at 2^(max_level + 1); truncation happens with probability
    (1 - psi)^(max_level + 1) per estimate.
    """

    psi: float
    max_level: int = 20

    def __post_init__(self):
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi must be in (0, 1), got {self.psi}")
        if self.max_level < 0:
            raise ValueError(f"max_level must be nonnegative, got {self.max_level}")


def default_psi(spec: UncertaintySet) -> float:
    """Module defaults inside the proven ranges: 0.2 for chi-square, else 0.25."""
    return 0.2 if isinstance(spec, ChiSquare) else 0.25


def default_mlmc_config(spec: UncertaintySet) -> MlmcConfig:
    return MlmcConfig(psi=default_psi(spec))




class EstimateStream:
    """The support estimates of one run: one estimate per pair of a fixed list, per iteration.

    The sampling inputs of an estimate (its level, its first draw and its multinomial counts)
    depend on the pair and the RNG only; only the support solve reads v. So they are drawn a
    block of iterations at a time, each kind from its own child stream of ``rng`` (levels,
    first draws, counts), spawned once. Each stream is read in iteration order, so the values
    do not depend on the block size. A block holds the 4n empirical rows of each of its
    iterations in one buffer of at most ``_BLOCK_FLOATS`` floats, or of one iteration's rows
    where those alone exceed it.
    """

    def __init__(self, sampler, spec, pairs, cfg, rng, n_iters):
        self.sampler = sampler
        self.spec = spec
        self.s_idx, self.a_idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        self.linear = isinstance(spec, Contamination)
        self.cfg = None if self.linear else cfg or default_mlmc_config(spec)
        self._levels, self._firsts, self._counts = rng.spawn(3)
        self._left = n_iters  # iterations not yet drawn
        self._at = 0  # the block's next iteration
        # per iteration of the current block: sample costs (block, n), next states (linear
        # family) or empirical rows (block, 4n, S) and level probabilities p_N (block, n)
        self.costs = np.zeros((0, len(self.s_idx)), dtype=np.int64)
        self.next_states = self.rows = self.p_level = None

    def _draw_block(self):
        n, n_states = len(self.s_idx), self.sampler.n_states
        block = max(1, min(self._left, _BLOCK_FLOATS // max(4 * n * n_states, 1)))
        self._left -= block
        self._at = 0
        firsts = self.sampler.draw_one_each(np.tile(self.s_idx, block), np.tile(self.a_idx, block), self._firsts)
        firsts = firsts.reshape(block, n)
        if self.linear:
            self.next_states = firsts
            self.costs = np.ones((block, n), dtype=np.int64)
            return
        psi = self.cfg.psi
        levels = np.minimum(self._levels.geometric(psi, size=(block, n)) - 1, self.cfg.max_level)
        half = 2**levels
        counts = self.sampler.draw_counts_each(
            self.s_idx[:, None], self.a_idx[:, None], np.stack([half - 1, half], axis=2), self._counts
        )
        rows = np.zeros((block, 4, n, n_states))  # first, pooled, even, odd
        one_hot = rows[:, 0]
        one_hot[np.arange(block)[:, None], np.arange(n), firsts] = 1.0
        odd = one_hot + counts[:, :, 0]
        even = counts[:, :, 1]
        half_rows = half[:, :, None]
        rows[:, 1] = (odd + even) / (2 * half_rows)
        rows[:, 2] = even / half_rows
        rows[:, 3] = odd / half_rows
        self.rows = rows.reshape(block, 4 * n, n_states)
        self.p_level = psi * (1.0 - psi) ** levels
        self.costs = 2 * half

    def next(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next iteration's estimates at ``v`` and their sample costs."""
        if self._at == len(self.costs):
            self._draw_block()
        k = self._at
        self._at += 1
        if self.linear:
            return (1.0 - self.spec.delta) * v[self.next_states[k]] + self.spec.delta * v.min(), self.costs[k]
        n = self.costs.shape[1]
        sig = self.spec.support_batch(self.rows[k], v)
        sigma = sig[:n] + (sig[n : 2 * n] - 0.5 * (sig[2 * n : 3 * n] + sig[3 * n :])) / self.p_level[k]
        return sigma, self.costs[k]


def sigma_hat_for_pairs(
    source: KernelSampler | EstimateStream,
    spec: UncertaintySet,
    pairs: Sequence[tuple[int, int]] | np.ndarray,
    v: np.ndarray,
    cfg: MlmcConfig | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent support estimates for each pair; returns (values, sample costs).

    ``pairs`` is a sequence of (s, a) or an int64 array of shape (n, 2). With a
    ``KernelSampler`` the call draws from three child streams of ``rng``; a learner instead
    passes its run's ``EstimateStream``, built from the same arguments, and gets the next
    iteration's estimates from the block drawn in advance.
    """
    if not isinstance(source, EstimateStream):
        source = EstimateStream(source, spec, pairs, cfg, rng, n_iters=1)
    return source.next(np.asarray(v, dtype=float))

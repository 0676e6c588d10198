"""Unbiased sampled estimates of the support function sigma(p, v) = min q.v.

Only next-state samples from the nominal kernel are available. The
contamination family is linear in the nominal row, so a single sample gives an
unbiased support estimate. The other families are non-linear; plugging in an
empirical row is biased, so they use a randomized-level multi-level
Monte-Carlo telescope: draw a geometric level N, draw 2^(N+1) next states,
form the even-index / odd-index / pooled / first-sample empirical rows, and
combine their exact support values as

    sigma_hat = sigma(first) + [sigma(all) - (sigma(even) + sigma(odd)) / 2] / p_N,

with p_N = psi (1 - psi)^N. Empirical rows are represented by multinomial
counts, which follow the same law as tallying individual draws, so the cost of
a level-N estimate is O(S) rather than O(2^N); ``sigma_hat_for_pairs`` batches
many independent estimates by grouping them per level.

Estimators are pure given an RNG; callers own their seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mdp import TabularMDP
from .uncertainty import ChiSquare, Contamination, UncertaintySet


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

    def draw_counts_each(
        self, s_idx: np.ndarray, a_idx: np.ndarray, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-pair occurrence counts of ``count`` i.i.d. draws, shape (len(s_idx), S)."""
        if count == 0:
            return np.zeros((len(s_idx), self.n_states), dtype=np.int64)
        return rng.multinomial(count, self.kernel[s_idx, a_idx]).astype(np.int64)


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


def default_mlmc_config(spec: UncertaintySet, max_level: int = 20) -> MlmcConfig:
    return MlmcConfig(psi=default_psi(spec), max_level=max_level)


def _mlmc_sigma_many(source, spec, s_idx, a_idx, v, cfg, rng):
    """Vectorized MLMC estimates, one per index pair; returns (values, levels).

    Next-state counts are drawn per level group (one broadcast multinomial
    each), but all 4n empirical rows go through a single support_batch call;
    the 1-D dual searches are row-wise independent, so fusing levels does not
    change any value.
    """
    n = len(s_idx)
    n_states = source.n_states
    levels = np.minimum(rng.geometric(cfg.psi, size=n).astype(np.int64) - 1, cfg.max_level)
    firsts = source.draw_one_each(s_idx, a_idx, rng)
    one_hot = np.zeros((n, n_states))
    one_hot[np.arange(n), firsts] = 1.0
    pooled = np.empty((n, n_states))
    even_row = np.empty((n, n_states))
    odd_row = np.empty((n, n_states))
    for level in np.unique(levels):
        idx = np.flatnonzero(levels == level)
        half = int(2**level)
        odd = one_hot[idx].copy()
        if half > 1:
            odd += source.draw_counts_each(s_idx[idx], a_idx[idx], half - 1, rng)
        even = source.draw_counts_each(s_idx[idx], a_idx[idx], half, rng).astype(float)
        pooled[idx] = (odd + even) / (2 * half)
        even_row[idx] = even / half
        odd_row[idx] = odd / half
    sig = spec.support_batch(np.concatenate([one_hot, pooled, even_row, odd_row]), v)
    p_n = cfg.psi * (1.0 - cfg.psi) ** levels
    sigma = sig[:n] + (sig[n : 2 * n] - 0.5 * (sig[2 * n : 3 * n] + sig[3 * n :])) / p_n
    return sigma, levels


def sigma_hat_for_pairs(
    source: KernelSampler,
    spec: UncertaintySet,
    pairs: Sequence[tuple[int, int]] | np.ndarray,
    v: np.ndarray,
    cfg: MlmcConfig | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Independent support estimates for each pair; returns (values, sample costs).

    ``pairs`` is a sequence of (s, a) or an int64 array of shape (n, 2); a
    learner builds the array once and passes it every iteration.
    """
    v = np.asarray(v, dtype=float)
    s_idx, a_idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    if isinstance(spec, Contamination):
        nxt = source.draw_one_each(s_idx, a_idx, rng)
        values = (1.0 - spec.delta) * v[nxt] + spec.delta * v.min()
        return values, np.ones(len(s_idx), dtype=np.int64)
    if cfg is None:
        cfg = default_mlmc_config(spec)
    sigma, levels = _mlmc_sigma_many(source, spec, s_idx, a_idx, v, cfg, rng)
    return sigma, (2 ** (levels + 1)).astype(np.int64)


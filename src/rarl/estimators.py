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
worth at once and runs one support solve per live seed and iteration, over
that seed's 4n rows.
Estimators are pure given an RNG; callers own their seeded streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mdp import TabularMDP
from .uncertainty import ChiSquare, Contamination, UncertaintySet

_BLOCK_FLOATS = 1 << 17  # floats in a block's row buffer: 1 MiB
_CELLS = 256  # guide-table cells per pair over [0, 1); a power of two, so the cell of u is exact


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table of ``KernelSampler``, flat and pair-major, from each pair's first S - 1 CDF
    entries (pairs, S - 1): entry (p, b) is the count of p's entries below b / _CELLS, or -1 where
    an entry lies in the cell [b, b + 1) / _CELLS."""
    n_pairs, width = len(cdf), _CELLS + 1
    n_states = cdf.shape[1] + 1
    # edges[p, j + 1] is the first cell edge that p's entry j lies below: that entry's cell + 1
    edges = np.empty((n_pairs, n_states + 1), dtype=np.int64)
    edges[:, 0], edges[:, n_states] = 0, width
    np.minimum(cdf * _CELLS, _CELLS, out=edges[:, 1:n_states], casting="unsafe")
    edges[:, 1:n_states] += 1
    # the count below edge b is j for b in [edges[p, j], edges[p, j + 1]): repeat each j that often,
    # in the smallest type that holds -1 .. S - 1 (a wide temporary raised the peak RSS of a run)
    counts = (np.arange(n_pairs * n_states) % n_states).astype(np.min_scalar_type(-n_states))
    table = counts.repeat((edges[:, 1:] - edges[:, :-1]).ravel())
    table[(edges[:, 1:n_states] - 1 + np.arange(0, n_pairs * width, width)[:, None]).ravel()] = -1
    return table.reshape(n_pairs, width)[:, :_CELLS].ravel()


class KernelSampler:
    """Generative access to an MDP's nominal kernel: i.i.d. next states per (s, a).

    Built from a ``TabularMDP``, whose kernel rows are distributions by construction. A
    draw inverts the pair's CDF at one uniform u, returning the count of its first S - 1
    entries below u, which is min(#(cdf < u), S - 1). A guide table (Chen & Asau 1974) splits
    [0, 1) into ``_CELLS`` equal cells and holds that count for each cell that no CDF entry
    falls in, so a draw is one table lookup; only a u in a cell holding an entry (about
    (S - 1) / _CELLS of draws) counts the entries outright. The cell count is a power of two,
    so the cell of u is exact and every draw is bit-identical to plain inversion. The table is
    built once, with the sampler.
    """

    def __init__(self, mdp: TabularMDP):
        self.kernel, self.n_states, self._n_actions = mdp.kernel, mdp.n_states, mdp.n_actions
        self._cdf = np.cumsum(self.kernel.reshape(-1, self.n_states)[:, :-1], axis=1)  # per pair, the first S - 1 entries
        self._table = _guide_table(self._cdf)

    @staticmethod
    def from_mdp(mdp: TabularMDP) -> "KernelSampler":
        """The same as ``KernelSampler(mdp)``."""
        return KernelSampler(mdp)

    def draw_one_each(self, s_idx: np.ndarray, a_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One independent next state per (s_idx[i], a_idx[i])."""
        u = rng.random(len(s_idx))
        pair = np.asarray(s_idx) * self._n_actions + a_idx
        draws = self._table[pair * _CELLS + (u * _CELLS).astype(np.int64)].astype(np.int64)
        split = np.flatnonzero(draws < 0)
        if split.size:
            draws[split] = (self._cdf[pair[split]] < u[split, None]).sum(axis=1)
        return draws

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
    psi in (0, 1 - sqrt(2)/2) for chi-square. A level-N estimate costs
    2^(N + 1) samples, and levels at or above L = max_level are drawn as L, so
    the expected sample cost per estimate is

        sum_{N < L} psi (1 - psi)^N 2^(N + 1) + (1 - psi)^L 2^(L + 1).

    For psi < 1/2, 2 (1 - psi) > 1 and the uncapped sum diverges: the cap, not
    psi, keeps the cost finite, and most samples go to estimates at the cap.
    The cap also biases the estimate: a level drawn at the cap keeps the weight
    1 / (psi (1 - psi)^L) of an uncapped level-L draw but occurs with probability
    (1 - psi)^L, and no level above L is drawn, so the mean estimate is off by
    ((1 - psi) / psi) Delta_L - sum_{N > L} Delta_N, where Delta_N is the mean
    level-N correction.
    L is at most 61, so that the 2^(L + 1) samples of one estimate fit in int64;
    ``EstimateStream.samples`` raises ``OverflowError`` once a run's total does not.
    """

    psi: float
    max_level: int = 20

    def __post_init__(self):
        if not 0.0 < self.psi < 1.0:
            raise ValueError(f"psi must lie in (0, 1), got {self.psi}")
        if not 0 <= self.max_level <= 61:
            raise ValueError(f"max_level must lie in [0, 61], got {self.max_level}")


def default_psi(spec: UncertaintySet) -> float:
    """Module defaults inside the proven ranges: 0.2 for chi-square, else 0.25."""
    return 0.2 if isinstance(spec, ChiSquare) else 0.25


def default_mlmc_config(spec: UncertaintySet) -> MlmcConfig:
    return MlmcConfig(psi=default_psi(spec))


class EstimateStream:
    """The support estimates of one run, or of a batch of seeded runs: one estimate per pair of
    a fixed list, per seed and iteration.

    ``rng`` is one ``Generator`` or a sequence of them, one per seed. The sampling inputs of an
    estimate (its level, its first draw and its multinomial counts) depend on the pair and the
    seed's RNG only; only the support solve reads v. So they are drawn a block of iterations at
    a time, each kind from its own child stream of the seed's RNG (levels, first draws,
    counts), spawned once. Each stream is read in iteration order, so a seed's values depend
    neither on the block size nor on the other seeds in the batch. A block holds the 4n
    empirical rows of each seed and iteration in one buffer of at most ``_BLOCK_FLOATS``
    floats, or of one iteration's rows where those alone exceed it. Its first draws are the
    sampler's guide-table lookups, the same states as CDF inversion, and its running sample
    counts are converted to int64 once per block, so ``samples`` is an index.
    """

    def __init__(self, sampler, spec, pairs, cfg, rng, n_iters):
        self.sampler = sampler
        self.spec = spec
        self.s_idx, self.a_idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        self.linear = isinstance(spec, Contamination)
        self.cfg = None if self.linear else cfg or default_mlmc_config(spec)
        rngs = [rng] if isinstance(rng, np.random.Generator) else rng
        self._streams = [seed_rng.spawn(3) for seed_rng in rngs]  # per seed: levels, firsts, counts
        self._left = n_iters  # iterations not yet drawn
        self._at = 0  # the block's next iteration
        # per iteration of the current block, seed-major over the live seeds: sample costs
        # (block, seeds * n), and either next states as indices into the raveled (seeds, S)
        # iterate (block, seeds, n; linear family) or empirical rows (block, seeds * 4n, S)
        # with level probabilities p_N (block, seeds, n)
        self.costs = np.zeros((0, len(rngs) * len(self.s_idx)), dtype=np.int64)
        self.next_states = self.rows = self.p_level = None
        # each seed's samples after the first j iterations of the block, (block + 1, seeds), in
        # float64: exact below 2^53, and a total past int64 cannot wrap negative; converted to int64
        # once per block (``_count_samples``), since the learners read them at every recorded iteration
        self._spent = np.zeros((1, len(rngs)))
        self._count_samples()

    def _draw_block(self):
        n, n_seeds = len(self.s_idx), len(self._streams)
        block = max(1, min(self._left, _BLOCK_FLOATS // max(n_seeds * 4 * n * self.sampler.n_states, 1)))
        self._left -= block
        self._at = 0
        s_rep, a_rep = np.tile(self.s_idx, block), np.tile(self.a_idx, block)
        firsts = np.empty((block, n_seeds, n), dtype=np.int64)
        for i, (_, first_rng, _) in enumerate(self._streams):
            firsts[:, i] = self.sampler.draw_one_each(s_rep, a_rep, first_rng).reshape(block, n)
        if self.linear:
            self.next_states = firsts + self.sampler.n_states * np.arange(n_seeds)[:, None]
            costs = np.ones((block, n_seeds, n), dtype=np.int64)
        else:
            costs = self._draw_rows(firsts)
        self.costs = costs.reshape(block, -1)
        spent = np.cumsum(costs.sum(axis=2, dtype=float), axis=0)
        self._spent = self._spent[-1] + np.concatenate([np.zeros((1, n_seeds)), spent])
        self._count_samples()

    def _count_samples(self):
        """The block's sample counts as int64, up to ``_past``, the first row past int64 (each seed's
        count only grows down the block)."""
        self._past = int(np.count_nonzero(self._spent.max(axis=1, initial=0.0) < 2.0**63))
        self._samples = self._spent[: self._past].astype(np.int64)
        self._samples.flags.writeable = False

    def _draw_rows(self, firsts):
        """The MLMC rows and level probabilities of a block with these first draws; returns the
        sample costs 2^(N+1)."""
        block, n_seeds, n = firsts.shape
        n_states, psi = self.sampler.n_states, self.cfg.psi
        levels = np.empty((block, n_seeds, n), dtype=np.int64)
        counts = np.empty((block, n_seeds, n, 2, n_states), dtype=np.int64)
        for i, (level_rng, _, count_rng) in enumerate(self._streams):
            levels[:, i] = np.minimum(level_rng.geometric(psi, size=(block, n)) - 1, self.cfg.max_level)
            half = 2 ** levels[:, i]
            counts[:, i] = self.sampler.draw_counts_each(
                self.s_idx[:, None], self.a_idx[:, None], np.stack([half - 1, half], axis=2), count_rng
            )
        half = 2**levels
        rows = np.zeros((block, n_seeds, 4, n, n_states))  # first, pooled, even, odd
        one_hot = rows[:, :, 0]
        one_hot[np.arange(block)[:, None, None], np.arange(n_seeds)[:, None], np.arange(n), firsts] = 1.0
        odd = one_hot + counts[:, :, :, 0]
        even = counts[:, :, :, 1]
        half_rows = half[..., None]
        rows[:, :, 1] = (odd + even) / (2 * half_rows)
        rows[:, :, 2] = even / half_rows
        rows[:, :, 3] = odd / half_rows
        self.rows = rows.reshape(block, n_seeds * 4 * n, n_states)
        self.p_level = psi * (1.0 - psi) ** levels
        return 2 * half

    def samples(self) -> np.ndarray:
        """Samples behind the estimates returned so far, per live seed, as a read-only int64 row;
        raises ``OverflowError`` once a seed's count no longer fits."""
        if self._at >= self._past:
            spent = self._spent[self._at].max()
            raise OverflowError(f"a run's sample count reached {spent:.3g}, past int64; lower max_level")
        return self._samples[self._at]

    def drop(self, keep: np.ndarray) -> None:
        """Stop estimating for the live seeds where the boolean mask ``keep`` is False."""
        self._streams = [streams for streams, kept in zip(self._streams, keep) if kept]
        n_seeds, n, n_states = len(keep), len(self.s_idx), self.sampler.n_states
        block = len(self.costs)
        self.costs = self.costs.reshape(block, n_seeds, n)[:, keep].reshape(block, -1)
        self._spent = self._spent[:, keep]
        self._count_samples()
        if self.linear:
            self.next_states = self.next_states[:, keep] % n_states + n_states * np.arange(len(self._streams))[:, None]
        else:
            self.rows = self.rows.reshape(block, n_seeds, 4 * n, n_states)[:, keep].reshape(block, -1, n_states)
            self.p_level = self.p_level[:, keep]

    def next(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The next iteration's estimates at ``v`` and their sample costs.

        ``v`` is one value vector (S,), or (seeds, S) with a row per live seed; both results
        are flat and seed-major, (seeds * n,).
        """
        if self._at == len(self.costs):
            self._draw_block()
        k = self._at
        self._at += 1
        v = v.reshape(len(self._streams), -1)
        if self.linear:
            sigma = (1.0 - self.spec.delta) * v.ravel()[self.next_states[k]] + self.spec.delta * v.min(axis=1)[:, None]
            return sigma.ravel(), self.costs[k]
        n = len(self.s_idx)
        rows = self.rows[k].reshape(len(v), 4 * n, -1)
        sig = np.empty((len(v), 4 * n))
        for i in range(len(v)):  # one solve per seed, at that seed's v
            sig[i] = self.spec.support_batch(rows[i], v[i])
        sigma = sig[:, :n] + (sig[:, n : 2 * n] - 0.5 * (sig[:, 2 * n : 3 * n] + sig[:, 3 * n :])) / self.p_level[k]
        return sigma.ravel(), self.costs[k]


def sigma_hat_for_pairs(
    source: KernelSampler | EstimateStream,
    spec: UncertaintySet,
    pairs: Sequence[tuple[int, int]] | np.ndarray,
    v: np.ndarray,
    cfg: MlmcConfig | None,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """Independent support estimates for each pair; returns (values, sample costs).

    ``pairs`` is a sequence of (s, a) or an int64 array of shape (n, 2). With a
    ``KernelSampler`` the call draws from three child streams of ``rng``; a learner instead
    passes its run's ``EstimateStream``, built from the same arguments, and gets the next
    iteration's estimates from the block drawn in advance. With a sequence of B generators,
    ``v`` is (B, S) and both results are flat and seed-major, (B * n,).
    """
    if not isinstance(source, EstimateStream):
        source = EstimateStream(source, spec, pairs, cfg, rng, n_iters=1)
    return source.next(np.asarray(v, dtype=float))

"""Support functions sigma(p, v) = min q.v over five ambiguity-set families.

Each family is an (s,a)-rectangular ball of probability rows around a nominal
row p: contamination mixtures, total-variation, chi-square and KL divergence
balls, and Wasserstein balls over a state metric. The module provides:

- Exact (closed-form or 1-D dual) evaluation, scalar and batched over rows;
  ``solve`` also returns the chi-square, KL and Wasserstein duals.
- Worst-case rows recovered from optimality conditions, exact for every
  family. ``worst_row`` takes one row or a batch of rows.
- ``support_oracle_grid``: an independent brute-force oracle that minimizes
  q.v over all simplex grid points satisfying the set constraint.

All solvers are pure functions of immutable inputs. Batched paths and scalar
paths share one implementation, so repeated evaluation is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

SIMPLEX_TOL = 1e-9
NEWTON_TOL = 1e-12  # KL root search: |KL - delta| / delta, or relative bracket width, at which it stops
NEWTON_ITERS = 100
# KL root search also stops at |f| <= 4 ulps of the terms of f, which sum to about 2 |log z| near the root
ROUNDOFF = 8 * np.finfo(float).eps
_BLOCK = 1 << 20  # elements per temporary in Wasserstein's per-state blocks


def _check_simplex(p: np.ndarray, batch: bool = False) -> np.ndarray:
    """A probability row; with ``batch``, also a (B, S) stack of them."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 and not (batch and p.ndim == 2):
        raise ValueError(f"expected a probability row, got shape {p.shape}")
    sums = p.sum(axis=-1)
    off = np.abs(sums - 1.0)
    if np.any(p < -SIMPLEX_TOL) or np.any(off > 1e-8):
        raise ValueError(f"not a probability row (sum={sums.flat[np.argmax(off)]:.6g}, min={p.min():.6g})")
    return np.maximum(p, 0.0)


def _as_batch(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    return rows


def _worst_row_inputs(p, v) -> tuple[np.ndarray, np.ndarray]:
    """``worst_row``'s checked rows as a (B, S) batch, and v as floats."""
    return _as_batch(_check_simplex(p, batch=True)), np.asarray(v, dtype=float)


@dataclass
class UncertaintySet:
    """Shared interface: ``support``, ``support_batch``, ``worst_row``; a ball of radius delta."""

    delta: float
    kind = "abstract"

    def __post_init__(self):
        if not 0.0 <= self.delta < np.inf:
            raise ValueError(f"radius must be a finite number >= 0, got {self.delta}")

    def support(self, p: np.ndarray, v: np.ndarray) -> float:
        p = _check_simplex(p)
        return float(self.support_batch(p[None, :], v)[0])

    def support_batch(self, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def worst_row(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A minimizing row in the ball around p; a (B, S) batch gives one per row."""
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "delta": self.delta}


class Contamination(UncertaintySet):
    """Mixture ball {(1-delta) p + delta q : q in simplex}."""

    kind = "contamination"

    def __post_init__(self):
        # delta = 0 is the singleton {p}; used by the non-robust baselines.
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"contamination radius must be in [0, 1), got {self.delta}")

    def support_batch(self, rows, v):
        rows = _as_batch(rows)
        v = np.asarray(v, dtype=float)
        return (1.0 - self.delta) * rows @ v + self.delta * v.min()

    def worst_row(self, p, v):
        rows, v = _worst_row_inputs(p, v)
        q = (1.0 - self.delta) * rows
        q[:, int(np.argmin(v))] += self.delta
        return q.reshape(np.shape(p))


class TotalVariation(UncertaintySet):
    """Ball {q : 0.5 * ||q - p||_1 <= delta}.

    The primal is solved exactly by greedy mass transfer: up to delta total
    mass moves from the highest-value states onto an argmin-value state.
    """

    kind = "tv"

    def _transfer(self, rows, v):
        """Greedy transfer onto argmin v: the states above min v, highest v first, and the mass
        the first i of them give, capped at delta in total; shapes (k,) and (B, k)."""
        order = np.argsort(-v, kind="stable")
        order = order[: np.count_nonzero(v > v.min())]
        return order, np.minimum(np.cumsum(rows[:, order], axis=1), self.delta)

    def support_batch(self, rows, v):
        rows = _as_batch(rows)
        v = np.asarray(v, dtype=float)
        order, given = self._transfer(rows, v)
        # sum_i (given_i - given_{i-1}) gap_i, summed by parts as sum_i given_i (gap_i - gap_{i+1})
        gap = v[order] - v.min()
        gap[:-1] -= gap[1:]
        return rows @ v - given @ gap

    def worst_row(self, p, v):
        """Greedy transfer: states above min v, highest first, give up to delta onto argmin v."""
        rows, v = _worst_row_inputs(p, v)
        order, given = self._transfer(rows, v)
        moved = np.diff(given, axis=1, prepend=0.0)
        q = rows.copy()
        q[:, order] -= moved
        q[:, int(np.argmin(v))] += moved.sum(axis=1)
        return q.reshape(np.shape(p))


class ChiSquare(UncertaintySet):
    """Ball {q : sum_i (q_i - p_i)^2 / p_i <= delta} (q_i = 0 wherever p_i = 0).

    The vector dual max_{mu >= 0} p.(v-mu) - sqrt(delta Var_p(v-mu)) reduces to
    a scalar threshold: at the optimum v - mu = min(v, t), and the reduced
    objective phi(t) is concave between consecutive sorted entries of v. On
    such a segment min(v, t) is affine in t, so mean and variance are
    quadratics in t and the segment's maximizer is a closed-form stationary
    point clipped to the segment (Iyengar 2005). ``solve`` takes the best
    segment per row; it sorts v once and is vectorized over rows.
    """

    kind = "chi2"

    def solve(self, rows, v):
        """Support values and maximizing thresholds t, one per row."""
        rows = _as_batch(rows)
        v = np.asarray(v, dtype=float)
        if self.delta == 0.0 or v.max() == v.min():
            return rows @ v, np.full(rows.shape[0], v.max())
        order = np.argsort(v, kind="stable")
        knots = v[order]
        lo, width = knots[0], knots[-1] - knots[0]
        u = (knots - lo) / width  # the problem is shift and scale equivariant
        p = rows[:, order]
        # segment k is [u_k, u_{k+1}]: states 0..k keep their value, the rest sit at t
        low = np.cumsum(p, axis=1)[:, :-1]
        m1 = np.cumsum(p * u, axis=1)[:, :-1]
        m2 = np.cumsum(p * u * u, axis=1)[:, :-1]
        tail = np.cumsum(p[:, ::-1], axis=1)[:, ::-1][:, 1:]
        # phi'(t) = 0 at t = m1/low + sqrt(Var_low / (delta low - tail)), which
        # exists iff delta low > tail; otherwise phi increases on the segment
        gap = self.delta * low - tail
        inside = (low > 0.0) & (gap > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            spread = np.sqrt(np.maximum(low * m2 - m1 * m1, 0.0) / gap)
            stationary = lo + width * (m1 + spread) / low
        cand = np.clip(np.where(inside, stationary, knots[1:]), knots[:-1], knots[1:])
        values = np.full(rows.shape[0], -np.inf)
        thresholds = np.empty(rows.shape[0])
        for k in range(cand.shape[1]):
            # two-pass variance: one pass E[w^2] - mean^2 cancels as var -> 0
            w = np.minimum(u, (cand[:, k : k + 1] - lo) / width)
            mean = np.einsum("bs,bs->b", p, w)
            dev = w - mean[:, None]
            phi = mean - np.sqrt(self.delta * np.einsum("bs,bs->b", p, dev * dev))
            better = phi > values
            values = np.where(better, phi, values)
            thresholds = np.where(better, cand[:, k], thresholds)
        return lo + width * values, thresholds

    def support_batch(self, rows, v):
        return self.solve(rows, v)[0]

    def worst_row(self, p, v):
        rows, v = _worst_row_inputs(p, v)
        if self.delta == 0.0:
            return rows.reshape(np.shape(p)).copy()
        support = rows > 0.0
        argmin = support & (v == np.where(support, v, np.inf).min(axis=1, keepdims=True))
        p_min = np.where(argmin, rows, 0.0).sum(axis=1, keepdims=True)
        w = np.minimum(v, self.solve(rows, v)[1][:, None])
        mean = (rows * w).sum(axis=1, keepdims=True)
        var = (rows * (w - mean) ** 2).sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):  # var = 0 only on argmin-vertex rows
            q = np.maximum(rows * (1.0 + np.sqrt(self.delta / var) * (mean - w)), 0.0)
            q /= q.sum(axis=1, keepdims=True)
            # project back toward p if clipping pushed the divergence past delta
            dist = np.where(support, (q - rows) ** 2 / np.where(support, rows, 1.0), 0.0).sum(axis=1, keepdims=True)
            shrink = np.sqrt(self.delta / dist) * (1.0 - 1e-12)
            q = np.where(dist > self.delta, rows + shrink * (q - rows), q)
        # the argmin vertex of supp(p) has divergence 1/p_min - 1; it wins when that is <= delta
        q = np.where(1.0 - p_min <= self.delta * p_min, np.where(argmin, rows, 0.0) / p_min, q)
        return q.reshape(np.shape(p))

    @staticmethod
    def divergence(q, p):
        mask = p > 0
        if np.any(q[~mask] > 1e-15):
            return np.inf
        return float(np.sum((q[mask] - p[mask]) ** 2 / p[mask]))


def _tilt_root(p, u, delta):
    """Per row, the beta > 0 where KL(q_beta || p) = delta, with q_beta ~ p exp(-beta u) and u in [0, 1].

    f(beta) = KL(q_beta || p) - delta rises from -delta with f'(beta) = beta Var_{q_beta}(u); the
    caller ensures f(inf) = -log P_p(u = 0) - delta > 0. Safeguarded Newton (rtsafe): a step that
    leaves the bracket [lo, hi], or is not half the step before last, becomes a bisection in log beta,
    or while hi = inf a growth of lo by a factor that squares at each such step (2, 4, 16, ...): near
    the boundary f stays flat up to beta ~ 1 / (smallest positive u). The first lo is
    delta / E_p u, since KL(q_beta || p) <= beta E_p u.
    Returns beta, E_{q_beta} u and f(beta) at each row's last evaluated point.
    """
    n = p.shape[0]
    mean_p = (p * u).sum(axis=1)
    lo = delta / mean_p
    hi = np.full(n, np.inf)
    # KL(q_beta || p) ~ beta^2 Var_p(u) / 2 for small beta
    beta = np.maximum(lo, np.sqrt(2.0 * delta / (p * (u - mean_p[:, None]) ** 2).sum(axis=1)))
    step = step_old = np.full(n, np.inf)
    grow = np.full(n, 2.0)
    live = np.arange(n)
    out = np.empty((3, n))
    for _ in range(NEWTON_ITERS):
        e = p * np.exp(-beta[:, None] * u)
        z = e.sum(axis=1)
        mean = (e * u).sum(axis=1) / z
        var = (e * (u - mean[:, None]) ** 2).sum(axis=1) / z
        log_z = np.log(z)
        f = -beta * mean - log_z - delta
        out[:, live] = beta, mean, f
        lo = np.where(f <= 0.0, beta, lo)
        hi = np.where(f > 0.0, beta, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f / (beta * var)
            nxt = beta - newton
            take = np.isfinite(nxt) & (lo <= nxt) & (nxt <= hi) & (np.abs(newton) <= 0.5 * np.abs(step_old))
            bisect = np.where(np.isinf(hi), grow * lo, np.sqrt(lo * hi))
            grow = np.where(take, grow, grow * grow)  # read only while hi = inf
        step_old, step = step, np.where(take, newton, beta - bisect)
        # stop at |f| <= tol delta: the dual at beta then lies within about
        # alpha |f| <= tol * span(v) of sigma, because every beta >= delta. Where |log z|
        # is far above delta (small delta, little mass at min v), |f| cannot get below
        # the round-off of its own terms, so stop there too.
        live_next = (np.abs(f) > np.maximum(NEWTON_TOL * delta, -ROUNDOFF * log_z)) & (hi - lo > NEWTON_TOL * lo)
        beta = beta - step
        if not live_next.all():
            if not live_next.any():
                break
            live, p, u, lo, hi, grow, beta, step, step_old = (
                x[live_next] for x in (live, p, u, lo, hi, grow, beta, step, step_old)
            )
    return out


class KLDivergence(UncertaintySet):
    """Ball {q : KL(q || p) <= delta}.

    Evaluated through the exponential-tilt dual sigma = max_{alpha >= 0} -(delta alpha + alpha log
    E_p exp(-v/alpha)) (Iyengar 2005; Nilim & El Ghaoui 2005). States with p_i = 0 never receive mass.
    With m = min v over supp(p), the alpha -> 0 limit is m, and it is the value when the argmin
    states of supp(p) lie in the ball: -log P_p(v = m) <= delta. Otherwise the maximizer is the
    alpha where the tilt q_alpha ~ p exp(-(v - m)/alpha) sits on the sphere KL(q_alpha || p) =
    delta. ``solve`` finds it per row by safeguarded Newton in beta = 1/alpha on v - m rescaled
    to [0, 1] (``_tilt_root``), and q_alpha is the worst row.
    """

    kind = "kl"

    def solve(self, rows, v):
        """Support values and minimizing alphas, one per row.

        alpha is 0 where the boundary value m wins and inf where sigma = p.v (delta = 0 or v
        constant).
        """
        rows = _as_batch(rows)
        v = np.asarray(v, dtype=float)
        if self.delta == 0.0 or v.max() == v.min():
            return rows @ v, np.full(rows.shape[0], np.inf)
        support = rows > 0.0
        values = np.where(support, v, np.inf).min(axis=1)
        alphas = np.zeros(rows.shape[0])
        p_min = np.where(support & (v == values[:, None]), rows, 0.0).sum(axis=1)
        inner = np.flatnonzero(-np.log(p_min) > self.delta)
        if inner.size:
            m = values[inner]
            width = np.where(support[inner], v, -np.inf).max(axis=1) - m
            u = np.where(support[inner], (v - m[:, None]) / width[:, None], 0.0)
            beta, mean, f = _tilt_root(rows[inner], u, self.delta)
            # the dual at alpha = width / beta is E_q v + alpha (KL(q || p) - delta)
            values[inner] = m + width * (mean + f / beta)
            alphas[inner] = width / beta
        return values, alphas

    def support_batch(self, rows, v):
        return self.solve(rows, v)[0]

    def worst_row(self, p, v):
        """The tilt q_alpha at the optimal alpha; p on the argmin states of supp(p) at alpha = 0."""
        rows, v = _worst_row_inputs(p, v)
        alphas = self.solve(rows, v)[1][:, None]
        support = rows > 0.0
        m = np.where(support, v, np.inf).min(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(support & (v > m), (v - m) / alphas, 0.0)
        q = rows * np.exp(-gap)
        q /= q.sum(axis=1, keepdims=True)
        return q.reshape(np.shape(p))

    @staticmethod
    def divergence(q, p):
        mask = q > 0
        if np.any(p[mask] <= 0):
            return np.inf
        return float(np.sum(q[mask] * np.log(q[mask] / p[mask])))


def line_metric(n: int) -> np.ndarray:
    """Default state metric d(i, j) = |i - j| on integer-indexed states."""
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


@dataclass(eq=False)
class Wasserstein(UncertaintySet):
    """Ball {q : W_l(p, q) <= delta} for the metric d (default d(i,j) = |i-j|).

    With D = d^l and phi_x(lambda) = min_y (v_y + lambda D[x, y]), the dual is
    sigma = max_{lambda >= 0} g(lambda), g = -lambda delta^l + sum_x p_x
    phi_x(lambda) (Gao & Kleywegt 2016). Each phi_x is concave and piecewise
    linear, so g is too, and for delta > 0 its final slope is -delta^l: the
    maximum lies at lambda = 0 or at a kink of some phi_x, where two of x's
    lines cross on its lower envelope. The kinks depend on v and D only, so
    ``solve`` finds them once and evaluates g at all of them with one matrix
    product over the rows. The worst row moves each p_x onto the argmin lines
    of phi_x at the optimal lambda.
    """

    order: float = 1.0
    metric: np.ndarray | None = None
    _pow_cache: dict = field(default_factory=dict, repr=False)

    kind = "wasserstein"
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity: metric is an array

    def __post_init__(self):
        super().__post_init__()
        if not 1.0 <= self.order < np.inf:
            raise ValueError(f"order must be a finite number >= 1, got {self.order}")
        if self.metric is not None:
            d = np.asarray(self.metric, dtype=float)
            if d.ndim != 2 or d.shape[0] != d.shape[1]:
                raise ValueError("metric must be a square matrix")
            if np.any(np.abs(np.diag(d)) > 0) or np.any(d < 0) or not np.allclose(d, d.T):
                raise ValueError("metric must be symmetric, nonnegative, zero on the diagonal")
            self.metric = d

    def _dl(self, n: int) -> np.ndarray:
        cached = self._pow_cache.get(n)
        if cached is not None:
            return cached
        d = self.metric if self.metric is not None else line_metric(n)
        if d.shape[0] != n:
            raise ValueError(f"metric size {d.shape[0]} does not match row length {n}")
        dl = d**self.order
        self._pow_cache[n] = dl
        return dl

    def uses_line_metric(self, n: int) -> bool:
        return self.metric is None or np.array_equal(self.metric, line_metric(n))

    @staticmethod
    def _kinks(u, dl):
        """0 and every lambda > 0 where two lines cross on the lower envelope of some phi_x (u >= 0)."""
        n = u.shape[0]
        i, j = np.triu_indices(n, 1)
        span = u.max()
        found = [np.zeros(1)]
        step = max(1, _BLOCK // n**3)
        for start in range(0, n, step):
            d = dl[start : start + step]
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = (u[i] - u[j]) / (d[:, j] - d[:, i])
            lam = np.where(np.isfinite(lam) & (lam > 0.0), lam, 0.0)
            at = u[i] + lam * d[:, i]
            env = (u + lam[:, :, None] * d[:, None, :]).min(axis=2)
            # loose on purpose: a spurious kink costs time, a missed one the value
            found.append(lam[(lam > 0.0) & (at - env <= 1e-9 * (at + span))])
        return np.unique(np.concatenate(found))

    def solve(self, rows, v):
        """Support values and maximizing duals lambda, one per row."""
        rows = _as_batch(rows)
        v = np.asarray(v, dtype=float)
        if self.delta == 0.0:
            return rows @ v, np.zeros(rows.shape[0])
        lo = v.min()
        u = v - lo  # the problem is shift equivariant
        n = u.shape[0]
        dl = self._dl(n)
        lam = self._kinks(u, dl)
        phi = np.empty((lam.shape[0], n))  # phi[k, x] = phi_x(lam_k)
        step = max(1, _BLOCK // (lam.shape[0] * n))
        for start in range(0, n, step):
            phi[:, start : start + step] = (u + lam[:, None, None] * dl[None, start : start + step]).min(axis=2)
        g = rows @ phi.T - lam * self.delta**self.order
        best = g.argmax(axis=1)
        return lo + g[np.arange(rows.shape[0]), best], lam[best]

    def support_batch(self, rows, v):
        return self.solve(rows, v)[0]

    def worst_row(self, p, v):
        """Each p_x split between the argmin lines of phi_x at the optimal lambda."""
        rows, v = _worst_row_inputs(p, v)
        if self.delta == 0.0:
            return rows.reshape(np.shape(p)).copy()
        b, n = rows.shape
        dl = self._dl(n)
        u = v - v.min()
        lams, which = np.unique(self.solve(rows, v)[1], return_inverse=True)
        # the tied argmin lines of every phi_x, once per distinct optimal lambda
        y_lo = np.empty((lams.shape[0], n), dtype=np.intp)
        y_hi = np.empty_like(y_lo)
        step = max(1, _BLOCK // (n * n))
        for start in range(0, lams.shape[0], step):
            lines = u + lams[start : start + step, None, None] * dl
            tied = lines <= lines.min(axis=2, keepdims=True) + 1e-12 * u.max()
            y_lo[start : start + step] = np.where(tied, dl, np.inf).argmin(axis=2)
            y_hi[start : start + step] = np.where(tied, dl, -np.inf).argmax(axis=2)
        y_lo, y_hi = y_lo[which], y_hi[which]
        x = np.arange(n)
        c_lo = (rows * dl[x, y_lo]).sum(axis=1)
        c_hi = (rows * dl[x, y_hi]).sum(axis=1)
        # at an optimal lambda the one-sided slopes of g bracket 0: c_lo <= delta^l <= c_hi
        with np.errstate(divide="ignore", invalid="ignore"):
            theta = np.where(c_hi > c_lo, np.clip((self.delta**self.order - c_lo) / (c_hi - c_lo), 0.0, 1.0), 0.0)
        flat = np.arange(b)[:, None] * n
        q = np.bincount((flat + y_lo).ravel(), ((1.0 - theta)[:, None] * rows).ravel(), b * n)
        q += np.bincount((flat + y_hi).ravel(), (theta[:, None] * rows).ravel(), b * n)
        return q.reshape(np.shape(p))

    def distance_pow(self, p, q):
        """W_l(p, q)^l via the transport LP (used by the oracle for general metrics)."""
        n = len(p)
        dl = self._dl(n)
        c = dl.reshape(-1)
        a_eq = np.zeros((2 * n, n * n))
        for x in range(n):
            a_eq[x, x * n : (x + 1) * n] = 1.0
        for y in range(n):
            a_eq[n + y, y::n] = 1.0
        res = linprog(c, A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
        if not res.success:
            raise RuntimeError(f"transport LP failed: {res.message}")
        return float(res.fun)

    def to_json_dict(self):
        doc = {**super().to_json_dict(), "l": self.order}
        if self.metric is not None:
            doc["metric"] = np.asarray(self.metric).tolist()
        return doc


FAMILIES = {cls.kind: cls for cls in (Contamination, TotalVariation, ChiSquare, KLDivergence, Wasserstein)}


def uncertainty_from_json(doc: dict) -> UncertaintySet:
    kind = doc["kind"]
    if kind not in FAMILIES:
        raise ValueError(f"unknown uncertainty set kind {kind!r}")
    extra = {"order": float(doc.get("l", 1.0)), "metric": doc.get("metric")} if kind == "wasserstein" else {}
    return FAMILIES[kind](float(doc["delta"]), **extra)


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All probability rows with entries that are multiples of 1/resolution."""
    cached = _GRID_CACHE.get((n, resolution))
    if cached is not None:
        return cached
    r = resolution
    if n == 1:
        grid = np.ones((1, 1))
    elif n == 2:
        i = np.arange(r + 1)
        grid = np.stack([i, r - i], axis=1) / r
    elif n == 3:
        i, j = np.meshgrid(np.arange(r + 1), np.arange(r + 1), indexing="ij")
        mask = i + j <= r
        i, j = i[mask], j[mask]
        grid = np.stack([i, j, r - i - j], axis=1) / r
    elif n == 4:
        rng = np.arange(r + 1, dtype=np.int32)
        i, j, k = np.meshgrid(rng, rng, rng, indexing="ij")
        mask = (i.astype(np.int64) + j + k) <= r
        i, j, k = i[mask], j[mask], k[mask]
        grid = np.stack([i, j, k, r - i - j - k], axis=1).astype(float) / r
    else:
        raise ValueError(f"grid oracle limited to 4 states, got {n}")
    grid.setflags(write=False)
    _GRID_CACHE[(n, resolution)] = grid
    return grid


def _wasserstein_pow_line(p: np.ndarray, qs: np.ndarray, order: float) -> np.ndarray:
    """W_l(p, q)^l on the line metric via the monotone (quantile) coupling."""
    n = p.shape[0]
    fp = np.cumsum(p)
    fq = np.cumsum(qs, axis=1)
    if order == 1.0:
        # unit spacing: W_1 is the L1 distance between the CDFs
        return np.abs(fq[:, : n - 1] - fp[: n - 1]).sum(axis=1)
    levels = np.concatenate([np.broadcast_to(fp, fq.shape), fq], axis=1)
    levels = np.sort(levels, axis=1)
    du = np.diff(np.concatenate([np.zeros((qs.shape[0], 1)), levels], axis=1), axis=1)
    mid = levels - 0.5 * du  # interior point of each segment
    xp = np.minimum((mid[:, :, None] > fp[None, None, :] - 1e-15).sum(axis=2), n - 1)
    xq = np.minimum((mid[:, :, None] > fq[:, None, :] - 1e-15).sum(axis=2), n - 1)
    return np.einsum("bk,bk->b", du, np.abs(xp - xq).astype(float) ** order)


def support_oracle_grid(
    spec: UncertaintySet, p: np.ndarray, v: np.ndarray, resolution: int, feas_tol: float = 1e-9
) -> float:
    """Brute-force oracle: min q.v over feasible grid points of the simplex.

    Independent of the exact solvers; converges to the support value from
    above as the resolution grows. Limited to 4 states.
    """
    p = _check_simplex(p)
    v = np.asarray(v, dtype=float)
    n = p.shape[0]
    qs = _simplex_grid(n, resolution)
    if isinstance(spec, Contamination):
        feasible = np.all(qs >= (1.0 - spec.delta) * p[None, :] - feas_tol, axis=1)
    elif isinstance(spec, TotalVariation):
        feasible = 0.5 * np.abs(qs - p[None, :]).sum(axis=1) <= spec.delta + feas_tol
    elif isinstance(spec, ChiSquare):
        mask = p > 0
        div = np.sum((qs[:, mask] - p[mask]) ** 2 / p[mask], axis=1)
        feasible = (div <= spec.delta + feas_tol) & np.all(qs[:, ~mask] <= 1e-15, axis=1)
    elif isinstance(spec, KLDivergence):
        mask = p > 0
        safe = np.where(qs[:, mask] > 0, qs[:, mask], 1.0)
        div = np.sum(safe * np.log(safe / p[mask]), axis=1)
        feasible = (div <= spec.delta + feas_tol) & np.all(qs[:, ~mask] <= 1e-15, axis=1)
    elif isinstance(spec, Wasserstein):
        cap = spec.delta**spec.order + feas_tol
        if spec.uses_line_metric(n):
            chunks = []
            for start in range(0, qs.shape[0], 100_000):
                block = qs[start : start + 100_000]
                chunks.append(_wasserstein_pow_line(p, block, spec.order) <= cap)
            feasible = np.concatenate(chunks)
        else:
            if resolution > 40:
                raise ValueError("general-metric oracle limited to resolution <= 40")
            feasible = np.array([spec.distance_pow(p, q) <= cap for q in qs])
    else:
        raise ValueError(f"no oracle for {type(spec).__name__}")
    if not feasible.any():
        raise RuntimeError("no feasible grid point; increase the resolution")
    return float((qs[feasible] @ v).min())

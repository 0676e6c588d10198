"""Support functions sigma(p, v) = min q.v over five ambiguity-set families.

Each family is an (s,a)-rectangular ball of probability rows around a nominal
row p: contamination mixtures, total-variation, chi-square and KL divergence
balls, and Wasserstein balls over a state metric. A family writes two hooks
on a (B, S) batch of rows, and ``UncertaintySet`` the interface over them:

- ``_solve(rows, v)``: exact (closed-form or 1-D dual) support values and the
  duals the worst rows are read from; ``solve`` returns them for chi-square
  (the maximizer of a concave 1-D dual), KL and Wasserstein (multipliers).
- ``_worst(rows, v, duals)``: exact worst rows from optimality conditions.
- ``support`` (one row), ``support_batch``, ``worst_row`` (one row or a
  batch) and ``support_and_worst`` (both from one solve). All but the
  learners' hot path ``support_batch`` check rows by ``_row_violation``.
- ``_pairs(mdp)``: the rows that answer an MDP's pairs, which the MDP checked
  when it was built, and each pair's index into them; for the planners.
- Membership: ``distance(p, qs)`` is, per row q, the least radius whose ball
  around p holds q, so every ball is exactly {q : distance(p, q) <= delta}.
- ``support_oracle_grid``: an independent brute-force oracle that minimizes
  q.v over the simplex grid points within ``distance`` delta of p. The grid
  has any number of states, up to a cap on its point count.

All solvers are pure functions of immutable inputs, and batched and scalar
paths share one implementation. Chi-square and KL give a row the same bits
alone as in a batch; contamination, TV and Wasserstein reduce rows with BLAS
products (``rows @ v``), whose last bits can depend on the batch. They need
numpy only; scipy is imported on the first general-metric Wasserstein
``distance``, whose transport LPs it solves. ``FiniteKernelSet``, an explicit
finite collection of kernels, writes the two hooks and ``_pairs`` on its own
stack of each pair's rows.

TV and chi-square sum each row's entries in sorted-state order. On a tall
batch (``_state_major``: at least 8 rows per state, as the learners' MLMC
batches are) they gather the batch transposed, state-major, and ``_scan``
adds each state's row of B sums into the next in place; on a short one
(the planners' distinct nominal rows) ``np.cumsum`` runs along the rows.
Both make the same additions in the same order, so a value's bits do not
depend on the path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ROW_SUM_TOL = 1e-9  # a probability row sums to 1 within this
NEWTON_TOL = 1e-12  # KL root search: |KL - delta| / delta, or relative bracket width, at which it stops
NEWTON_ITERS = 100
# KL root search also stops at |f| <= 4 ulps of the terms of f, which sum to about 2 |log z| near the root
ROUNDOFF = 8 * np.finfo(float).eps
_BLOCK = 1 << 20  # elements per temporary in Wasserstein's per-state blocks
GRID_POINTS = 1_500_000  # largest oracle grid; n = 4 states at resolution 200 has 1,373,701 points
LP_ROWS = 12_341  # most transport LPs in one general-metric distance call: n = 4 at resolution 40
_FEAS_TOL = 1e-9  # an oracle grid point within this of the radius counts as inside the ball


def _row_violation(x: np.ndarray, axes: tuple[str, ...]) -> str | None:
    """Return None if every row of ``x`` along its last axis is a distribution (finite, nonnegative,
    summing to 1 within ``ROW_SUM_TOL``), else what is wrong with the first bad row, placed by
    ``axes``, one label per axis of ``x``. Reductions start at 0: an empty batch passes, an empty row sums to 0."""
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite entry makes its row's sum fail the test
        off = np.abs(x.sum(axis=-1) - 1.0)
    if x.min(initial=0.0) >= 0.0 and off.max(initial=0.0) <= ROW_SUM_TOL:  # NaN fails both
        return None
    at = tuple(np.argwhere(~((off <= ROW_SUM_TOL) & (x.min(axis=-1, initial=0.0) >= 0.0)))[0])
    row, place = x[at], [f"{name}={i}" for name, i in zip(axes, at)]
    for kind, bad in (("non-finite", ~np.isfinite(row)), ("negative", row < 0)):
        if bad.any():
            j = int(np.argmax(bad))
            return f"{kind} entry {row[j]:.6g} at ({','.join([*place, f'{axes[-1]}={j}'])})"
    # ten digits: a sum more than ROW_SUM_TOL from 1 never prints as 1
    return f"row sum {row.sum():.10g}" + (f" at ({','.join(place)})" if place else "")


def _check_simplex(p: np.ndarray, batch: bool = False) -> np.ndarray:
    """A probability row by ``_row_violation``'s rule; with ``batch``, also a (B, S) stack of them."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 and not (batch and p.ndim == 2):
        raise ValueError(f"expected a probability row, got shape {p.shape}")
    problem = _row_violation(p, ("row", "s")[2 - p.ndim :])
    if problem is not None:
        raise ValueError(f"not a probability row: {problem}")
    return p


def _state_major(shape: tuple[int, int]) -> bool:
    """Whether TV and chi-square take the running sums of a (B, S) batch state-major, by ``_scan``,
    rather than by ``np.cumsum`` along its rows. numpy accumulates at about 3.6 ns per element along
    either axis, while a scan adds whole rows of B; the scan wins past about 40 rows at S = 5 and
    100-200 at S = 17, and B >= 8 S keeps the planners' short batches (25 x 17) on ``np.cumsum``
    and the learners' MLMC batches (60 x 5, 612 x 17) on the scan."""
    return shape[0] >= 8 * shape[1]


def _scan(t: np.ndarray) -> np.ndarray:
    """Running sums down axis 0 of a (k, B) array, in place: row j - 1 is added into row j, the
    additions ``np.cumsum(t, axis=0)`` makes, with the same bits."""
    for j in range(1, t.shape[0]):
        t[j] += t[j - 1]
    return t


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted: ``np.unique(x)`` for arrays without NaN, which in numpy 2.4
    imports ``numpy.ma`` (about 8 ms) on its first call."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _as_batch(rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    return rows[None, :] if rows.ndim == 1 else rows


def _support_split(p, qs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p on its support, the rows of qs there, and which rows put at most 1e-15 off it."""
    p, qs = np.asarray(p, dtype=float), _as_batch(qs)
    mask = p > 0
    return p[mask], qs[:, mask], np.all(qs[:, ~mask] <= 1e-15, axis=1)


@dataclass
class UncertaintySet:
    """A ball of radius delta. A family defines ``_solve``, ``_worst`` and ``distance``; ``support``,
    ``support_batch``, ``worst_row``, ``support_and_worst`` and ``_pairs`` are written here once. The benchmark
    wraps ``support_batch`` and ``worst_row`` in each family class's own ``__dict__``, so a subclass
    that neither defines them nor inherits them from a family gets the shared ones bound on itself."""

    delta: float
    kind = "abstract"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__mro__[: cls.__mro__.index(UncertaintySet)]
        for name in ("support_batch", "worst_row"):
            if not any(name in vars(base) for base in own):
                setattr(cls, name, vars(UncertaintySet)[name])

    def __post_init__(self):
        if not 0.0 <= self.delta < np.inf:
            raise ValueError(f"radius must be a finite number >= 0, got {self.delta}")

    def support(self, p: np.ndarray, v: np.ndarray) -> float:
        return float(self.support_batch(_check_simplex(p)[None, :], v)[0])

    def support_batch(self, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Support values of a (B, S) batch or of one row, which are not checked."""
        return self._solve(_as_batch(rows), np.asarray(v, dtype=float))[0]

    def worst_row(self, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """A minimizing row in the ball around p; a (B, S) batch gives one per row."""
        return self.support_and_worst(p, v)[1]

    def support_and_worst(self, rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``support_batch(rows, v)`` and ``worst_row(rows, v)`` from one solve, equal to those calls
        bit for bit."""
        checked, v = _as_batch(_check_simplex(rows, batch=True)), np.asarray(v, dtype=float)
        values, duals = self._solve(checked, v)
        return values, self._worst(checked, v, duals).reshape(np.shape(rows))

    def _pairs(self, mdp) -> tuple[np.ndarray, np.ndarray]:
        """The rows that answer the MDP's S*A pairs, and each pair's index into them, s-major: a ball
        depends on its pair's nominal row only, so each distinct nominal row once."""
        return mdp._distinct_rows

    def _solve(self, rows: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, object]:
        """Support values of a (B, S) batch, and the duals ``_worst`` reads its worst rows from."""
        raise NotImplementedError

    def _worst(self, rows: np.ndarray, v: np.ndarray, duals) -> np.ndarray:
        """The worst rows of a checked (B, S) batch, given ``_solve``'s duals."""
        raise NotImplementedError

    def distance(self, p: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """Per row q of qs, the least radius whose ball around p holds q; shape (len(qs),)."""
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

    def _solve(self, rows, v):
        """Support values, and (1 - delta) p, the worst rows before delta moves onto argmin v."""
        q = (1.0 - self.delta) * rows
        return q @ v + self.delta * v.min(), q

    def _worst(self, rows, v, q):
        q[:, int(np.argmin(v))] += self.delta
        return q

    def distance(self, p, qs):
        """max over supp(p) of (p_i - q_i) / p_i: the least delta with q >= (1 - delta) p."""
        p, q, _ = _support_split(p, qs)
        return ((p - q) / p).max(axis=1)


class TotalVariation(UncertaintySet):
    """Ball {q : 0.5 * ||q - p||_1 <= delta}.

    The primal is solved exactly by greedy mass transfer: up to delta total
    mass moves from the highest-value states onto an argmin-value state.
    """

    kind = "tv"

    def _solve(self, rows, v):
        """Greedy transfer onto argmin v: the support values, then as duals the states above min v,
        highest v first, and the mass the first i of them give, capped at delta in total; shapes
        (B,), (k,) and (B, k)."""
        order = np.argsort(-v, kind="stable")
        order = order[: np.count_nonzero(v > v.min())]
        given = rows[:, order]  # column-major, so given.T is the state-major (k, B) gather
        given = _scan(given.T).T if _state_major(rows.shape) else np.cumsum(given, axis=1)
        np.minimum(given, self.delta, out=given)
        # sum_i (given_i - given_{i-1}) gap_i, summed by parts as sum_i given_i (gap_i - gap_{i+1})
        gap = v[order] - v.min()
        gap[:-1] -= gap[1:]
        return rows @ v - given @ gap, (order, given)

    def _worst(self, rows, v, duals):
        """States above min v, highest first, give up to delta onto argmin v."""
        order, given = duals
        # capped at what each state holds: a difference of cumulative sums can exceed it by an ulp
        moved = np.minimum(np.diff(given, axis=1, prepend=0.0), rows[:, order])
        q = rows.copy()
        q[:, order] -= moved
        q[:, int(np.argmin(v))] += moved.sum(axis=1)
        return q

    def distance(self, p, qs):
        return 0.5 * np.abs(_as_batch(qs) - np.asarray(p, dtype=float)).sum(axis=1)


class ChiSquare(UncertaintySet):
    """Ball {q : sum_i (q_i - p_i)^2 / p_i <= delta} (q_i = 0 wherever p_i = 0).

    Evaluated through the concave one-dimensional dual sigma = max_T h(T), h(T) = T - sqrt(1 + delta)
    ||(T - v)+||_{2,p}, the chi-square case of the Cressie-Read dual (Duchi & Namkoong 2021). With
    a = E_p (T - v)+ and b = E_p (T - v)+^2, h' = 1 - sqrt((1 + delta) / b) a falls through 0 once:
    ``solve`` sorts v, sums a and b at every sorted value from nonnegative increments, finds the first
    where h falls ((1 + delta) a^2 >= b > 0), and solves h' = 0 in closed form below it, O(S) per row.
    The maximizer T is the threshold; it exceeds max v where the worst row keeps every supported
    state. At T, sigma = E_p min(v, T) - sqrt(delta Var_p min(v, T)), Iyengar's (2005) reduced dual,
    and the worst row is q ~ p (T - v)+, or the argmin vertex of supp(p) where that is 0 (T = min v
    on supp(p), exactly when (1 + delta) p_min >= 1).
    """

    kind = "chi2"

    def _dual(self, rows, v):
        """For delta > 0, per row: the support value, then the sorted value c of v that starts the segment
        holding the maximizer T of h, and T - c (0 for constant v)."""
        order = v.argsort(kind="stable")
        knots = v[order]
        width = knots[-1] - knots[0]
        if width == 0.0:
            return np.einsum("bs,s->b", rows, v), (np.full(rows.shape[0], knots[0]), np.zeros(rows.shape[0]))
        p = rows.take(order, axis=1)  # C-contiguous, so einsum sums each row as it sums it alone
        # a = E (t - v)+ and b = E (t - v)+^2 at each knot t, per unit of span, summed from nonnegative increments
        gaps = np.diff(knots) / width
        if _state_major(rows.shape):  # the same sums, run down the states of an (S, B) copy and read transposed
            mass = _scan(rows.T[order])
            a, b = np.zeros_like(mass), np.zeros_like(mass)
            _scan(np.multiply(mass[:-1], gaps[:, None], out=a[1:]))
            _scan(np.multiply(a[:-1] + a[1:], gaps[:, None], out=b[1:]))
            mass, a, b = mass.T, a.T, b.T
        else:
            mass, a, b = p.cumsum(axis=1), np.zeros_like(p), np.zeros_like(p)
            np.cumsum(mass[:, :-1] * gaps, axis=1, out=a[:, 1:])
            np.cumsum((a[:, :-1] + a[:, 1:]) * gaps, axis=1, out=b[:, 1:])
        # h' = 1 - sqrt((1 + delta) / b) a is <= 0 from the first such knot k on, or past max v (k = S)
        falls = ((1.0 + self.delta) * a * a >= b) & (b > 0.0)
        k = np.where(falls.any(axis=1), falls.argmax(axis=1), p.shape[1])
        # on x = (v - c) / span(v), c = knots[k - 1], the states below k have x <= 0, so their mean does not
        # cancel; h' = 0 at t = mean + sqrt(var / (delta L - tail)), L their mass and tail the mass from k on,
        # and h rises up to the segment's end where the divisor is not positive
        c = knots[k - 1]
        x = (knots - c[:, None]) / width
        end = (np.append(knots, np.inf)[k] - c) / width
        below = np.where(np.arange(p.shape[1]) < k[:, None], p, 0.0)
        low = mass[np.arange(p.shape[0]), k - 1]
        mean = np.einsum("bs,bs->b", below, x) / low
        var = np.einsum("bs,bs->b", below, (x - mean[:, None]) ** 2) / low
        gap = self.delta * low - (mass[:, -1] - low)
        t = np.clip(mean + np.sqrt(np.divide(var, gap, out=np.full_like(gap, np.inf), where=gap > 0.0)), 0.0, end)
        # sigma = h(T) = E w - sqrt(delta Var w) with w = min(x, t), the variance in two passes
        w = np.minimum(x, t[:, None])
        mean = np.einsum("bs,bs->b", p, w)
        w -= mean[:, None]
        return c + width * (mean - np.sqrt(self.delta * np.einsum("bs,bs->b", p, w * w))), (c, width * t)

    def _solve(self, rows, v):
        """``_dual``, and at delta = 0 the nominal values with T = max v (T - c is -0.0: c + -0.0 is c)."""
        if self.delta == 0.0:
            return np.einsum("bs,s->b", rows, v), (np.full(rows.shape[0], v.max()), np.full(rows.shape[0], -0.0))
        return self._dual(rows, v)

    def solve(self, rows, v):
        """Support values and maximizing thresholds T, one per row; T > max v where no state is cut."""
        values, (c, above) = self._solve(_as_batch(rows), np.asarray(v, dtype=float))
        return values, c + above

    def _worst(self, rows, v, duals):
        if self.delta == 0.0:
            return rows.copy()
        c, above = duals
        q = rows * np.maximum(above[:, None] + (c[:, None] - v), 0.0)  # p (T - v)+, c - v exact near c
        # q is 0 where T = c = min v on supp(p), whose argmin vertex then lies in the ball
        vertex = q.sum(axis=1) == 0.0
        q[vertex] = rows[vertex] * (v <= c[vertex, None])
        return q / q.sum(axis=1, keepdims=True)

    def distance(self, p, qs):
        """sum_i (q_i - p_i)^2 / p_i over supp(p); inf where q puts mass off it."""
        p, q, inside = _support_split(p, qs)
        return np.where(inside, np.sum((q - p) ** 2 / p, axis=1), np.inf)

    def divergence(self, q, p):
        """``distance`` of one row q, in the (q, p) order the benchmark's ball check calls."""
        return float(self.distance(p, q)[0])


def _tilt_root(p, u, delta):
    """Per row, the beta > 0 where KL(q_beta || p) = delta, with q_beta ~ p exp(-beta u) and u in [0, 1].

    f(beta) = KL(q_beta || p) - delta = -beta E_q u - log z - delta, with z = E_p exp(-beta u), rises
    from -delta with f' = beta Var_q(u) and f'' = Var_q(u) - beta mu3_q(u), mu3 the third central
    moment; the caller ensures f(inf) = -log P_p(u = 0) - delta > 0. Each round takes z and the
    first three raw moments of q in one pass and a safeguarded Halley step under the rtsafe rules:
    a step that leaves the bracket [lo, hi], or is not half the step before last, becomes a
    bisection in log beta, or while hi = inf a growth of lo by a factor that squares at each such
    step (2, 4, 16, ...): near the boundary f stays flat up to beta ~ 1 / (smallest positive u).
    The first lo is delta / E_p u, since KL(q_beta || p) <= beta E_p u. The first beta is a Newton
    step, capped at doubling, from the root of Var_p(u) beta^2 / 2 = delta toward that of the
    cubic Taylor model Var_p(u) beta^2 / 2 - mu3_p(u) beta^3 / 3 = delta.

    Where z > 1/2, log z = log1p(z - 1) with z - 1 = E_p expm1(-beta u) (p sums to 1): log(z)
    there carries round-off of order 1e-16, which at tiny delta is far above the stop target
    1e-12 delta. Elsewhere log z is read off z = E_p exp(-beta u), which keeps its relative
    precision when little mass sits at u = 0 and 1 + expm1 would not. f comes from z and the
    mean alone. A row that stops keeps its beta while the others go on, and leaves the arrays
    once at least half of the live rows have stopped; rows never mix, so a row gets the same
    bits alone as in a batch.
    Returns beta, E_{q_beta} u and f(beta) at each row's last evaluated point.
    """
    n = p.shape[0]
    mean_p = (p * u).sum(axis=1)
    lo = delta / mean_p
    hi = np.full(n, np.inf)
    step = step_old = np.full(n, np.inf)
    grow = np.full(n, 2.0)
    live = np.arange(n)
    out = np.empty((3, n))
    stopped = None  # rows that stopped but stay in the arrays, their beta held
    pu = p * u
    rows = np.stack([-u, p, p, pu, pu * u, pu * u * u])  # the exponent's -u, then p u^k for k = 0..3
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = u - mean_p[:, None]
        pd2 = p * d * d
        var_p = pd2.sum(axis=1)
        beta0 = np.sqrt(2.0 * delta / var_p)
        r = (pd2 * d).sum(axis=1) * beta0 / var_p
        beta = np.maximum(lo, beta0 * np.where(r < 0.75, 1.0 + r / (3.0 - 3.0 * r), 2.0))
        for i in range(NEWTON_ITERS):
            x = beta[:, None] * rows[0]
            z_m1 = np.einsum("bs,bs->b", rows[1], np.expm1(x))
            sums = np.einsum("bs,kbs->kb", np.exp(x), rows[2:])
            z = sums[0]
            log_z = np.log(z)
            np.log1p(z_m1, out=log_z, where=z > 0.5)
            moments = sums[1:] / z
            mean, m2, m3 = moments[0], moments[1], moments[2]
            f = -delta - (beta * mean + log_z)
            sq = mean * mean
            var = m2 - sq
            slope = beta * var
            curve = var - beta * (m3 - mean * (3.0 * var + sq))  # f''
            halley = f * slope / (slope * slope - 0.5 * f * curve)
            above = f > 0.0
            np.copyto(lo, beta, where=~above)
            np.copyto(hi, beta, where=above)
            nxt = beta - halley
            take = (lo <= nxt) & (nxt < hi) & (np.abs(halley) <= 0.5 * np.abs(step_old))
            if stopped is not None:
                take |= stopped
            step_old = step
            if np.count_nonzero(take) == take.size:
                step = halley
            else:
                step = np.where(take, halley, beta - np.where(np.isinf(hi), grow * lo, np.sqrt(lo * hi)))
                np.multiply(grow, grow, out=grow, where=~take)  # read only while hi = inf
            # stop at |f| <= tol delta: the dual at beta then lies within about
            # alpha |f| <= tol * span(v) of sigma, because every beta >= delta. Where |log z|
            # is far above delta (small delta, little mass at min v), |f| cannot get below
            # the round-off of its own terms, so stop there too.
            live_next = (np.abs(f) > np.maximum(log_z * -ROUNDOFF, NEWTON_TOL * delta)) & (hi - lo > NEWTON_TOL * lo)
            count = np.count_nonzero(live_next)
            if count == 0 or i == NEWTON_ITERS - 1:
                break
            if 2 * count <= live.size:
                done = ~live_next
                out[:, live[done]] = beta[done], mean[done], f[done]
                rows = rows[:, live_next]
                live, lo, hi, grow, beta, step, step_old = (
                    a[live_next] for a in (live, lo, hi, grow, beta, step, step_old)
                )
                stopped = None
            elif count < live.size:
                stopped = ~live_next
                step = np.where(stopped, 0.0, step)
            beta = beta - step
    out[:, live] = beta, mean, f
    return out


class KLDivergence(UncertaintySet):
    """Ball {q : KL(q || p) <= delta}.

    Evaluated through the exponential-tilt dual sigma = max_{alpha >= 0} -(delta alpha + alpha log
    E_p exp(-v/alpha)) (Iyengar 2005; Nilim & El Ghaoui 2005). States with p_i = 0 never receive mass.
    With m = min v over supp(p), the alpha -> 0 limit is m, and it is the value when the argmin
    states of supp(p) lie in the ball: -log P_p(v = m) <= delta. Otherwise the maximizer is the
    alpha where the tilt q_alpha ~ p exp(-(v - m)/alpha) sits on the sphere KL(q_alpha || p) =
    delta. ``solve`` finds it per row by safeguarded Halley steps in beta = 1/alpha on v - m
    rescaled to [0, 1] (``_tilt_root``), and q_alpha is the worst row.
    """

    kind = "kl"

    def solve(self, rows, v):
        """Support values and minimizing alphas, one per row.

        alpha is 0 where the boundary value m wins and inf where sigma = p.v (delta = 0 or v
        constant).
        """
        return self._solve(_as_batch(rows), np.asarray(v, dtype=float))

    def _solve(self, rows, v):
        if self.delta == 0.0 or v.max() == v.min():
            return np.einsum("bs,s->b", rows, v), np.full(rows.shape[0], np.inf)
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

    def _worst(self, rows, v, alphas):
        """The tilt q_alpha at the optimal alpha; p on the argmin states of supp(p) at alpha = 0."""
        support = rows > 0.0
        m = np.where(support, v, np.inf).min(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(support & (v > m), (v - m) / alphas[:, None], 0.0)
        q = rows * np.exp(-gap)
        return q / q.sum(axis=1, keepdims=True)

    def distance(self, p, qs):
        """KL(q || p), with 0 log 0 = 0; inf where q puts mass off supp(p)."""
        p, q, inside = _support_split(p, qs)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(q > 0, q * np.log(q / p), 0.0)
        return np.where(inside, terms.sum(axis=1), np.inf)

    divergence = ChiSquare.divergence  # reads this family's own ``distance``


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
    ``solve`` finds them once, by a march along each phi_x's lower hull (at
    most S - 1 steps on (S, S) arrays), and evaluates g at all of them with
    one matrix product over the rows. The worst row moves each p_x onto the
    argmin lines of phi_x at the optimal lambda.
    """

    order: float = 1.0
    metric: np.ndarray | None = None
    _pow_cache: dict = field(default_factory=dict, init=False, repr=False)

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

    @staticmethod
    def _kinks(u, dl):
        """0 and every lambda > 0 where phi_x turns a corner for some x (u >= 0).

        A march along each x's lower hull of the lines u_y + lambda dl[x, y]: x starts on its
        least-u line (least slope on ties), and each step moves it to the line of smaller slope
        that crosses its current line c first, at (u_y - u_c) / (dl[x, c] - dl[x, y]). Slopes
        fall at every step, so there are at most S - 1 steps, each on (S, S) arrays.
        """
        n = u.shape[0]
        rows = np.arange(n)
        cur = np.where(u == u.min(), dl, np.inf).argmin(axis=1)
        found = [np.zeros(1)]
        with np.errstate(divide="ignore", invalid="ignore"):  # read only where the slope falls
            for _ in range(n - 1):
                slope = dl[rows, cur][:, None]
                lam = np.where(dl < slope, (u - u[cur][:, None]) / (slope - dl), np.inf)
                nxt = lam.min(axis=1)
                if nxt.min() == np.inf:  # every x is on a line of slope 0
                    break
                found.append(nxt[(nxt > 0.0) & (nxt < np.inf)])
                cur = np.where(lam == nxt[:, None], dl, np.inf).argmin(axis=1)
        return _distinct(np.concatenate(found))

    def solve(self, rows, v):
        """Support values and maximizing duals lambda, one per row."""
        return self._solve(_as_batch(rows), np.asarray(v, dtype=float))

    def _solve(self, rows, v):
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

    def _worst(self, rows, v, lambdas):
        """Each p_x split between the argmin lines of phi_x at the optimal lambda."""
        if self.delta == 0.0:
            return rows.copy()
        b, n = rows.shape
        dl = self._dl(n)
        u = v - v.min()
        lams, which = np.unique(lambdas, return_inverse=True)
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
        return q.reshape(b, n)

    def distance(self, p, qs):
        """W_l(p, q) per row: the CDF formula on the line metric, else one transport LP per row."""
        p, qs = np.asarray(p, dtype=float), _as_batch(qs)
        n = p.shape[0]
        pow_l = np.empty(qs.shape[0])
        if self.metric is None or np.array_equal(self.metric, line_metric(n)):
            step = max(1, _BLOCK // (2 * n * n))
            for start in range(0, qs.shape[0], step):
                pow_l[start : start + step] = _wasserstein_pow_line(p, qs[start : start + step], self.order)
            return pow_l ** (1.0 / self.order)
        if qs.shape[0] > LP_ROWS:
            raise ValueError(f"general-metric distance limited to {LP_ROWS} rows per call, got {qs.shape[0]}")
        from scipy.optimize import linprog  # the only scipy use: loaded on the first general-metric call

        cost = self._dl(n).reshape(-1)  # plan entry x * n + y moves mass from x to y
        a_eq = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
        for k, q in enumerate(qs):
            res = linprog(cost, A_eq=a_eq, b_eq=np.concatenate([p, q]), method="highs")
            if not res.success:
                raise RuntimeError(f"transport LP failed: {res.message}")
            pow_l[k] = res.fun
        return pow_l ** (1.0 / self.order)

    def distance_pow(self, p, q):
        """W_l(p, q)^l for one row q, as the benchmark's ball check reads it."""
        return float(self.distance(p, q)[0]) ** self.order

    def to_json_dict(self):
        doc = {**super().to_json_dict(), "l": self.order}
        if self.metric is not None:
            doc["metric"] = np.asarray(self.metric).tolist()
        return doc


class FiniteKernelSet:
    """An explicit finite collection of K kernels, (s,a)-rectangular: the support of a pair is the
    least q.v over its rows in the collection, which the set keeps as an (S*A, K, S) stack, each
    pair's rows in lexicographic order, so a tie goes to the smallest row. Raises ValueError unless
    ``kernels`` is a non-empty (K, S, A, S) stack of rows that are distributions."""

    kind = "finite"

    def __init__(self, kernels):
        kernels = np.asarray(kernels, dtype=float)
        if kernels.ndim != 4 or kernels.size == 0 or kernels.shape[1] != kernels.shape[3]:
            raise ValueError(f"expected a non-empty (K, S, A, S) stack of kernels, got shape {kernels.shape}")
        problem = _row_violation(kernels, ("kernel", "s", "a", "s'"))
        if problem is not None:
            raise ValueError(f"kernel rows must be distributions: {problem}")
        self.kernel_shape = kernels.shape[1:]
        pairs = kernels.reshape(len(kernels), -1, kernels.shape[-1]).swapaxes(0, 1)  # (S*A, K, S)
        self.rows = np.stack([rows[np.lexsort(rows.T[::-1])] for rows in pairs])

    def _pairs(self, mdp):
        """Its own stack and the identity index: its pairs' rows need not repeat where nominal rows do."""
        if mdp.kernel.shape != self.kernel_shape:
            raise ValueError(f"finite set kernel shape {self.kernel_shape} != MDP kernel shape {mdp.kernel.shape}")
        return self.rows, np.arange(len(self.rows))

    def support_batch(self, rows, v):
        """The support value of each pair of an (S*A, K, S) stack."""
        return (rows @ np.asarray(v, dtype=float)).min(axis=1)

    def _solve(self, rows, v):
        """Support values, and as duals the index of each pair's least row."""
        values = rows @ v
        best = values.argmin(axis=1)
        return values[np.arange(len(rows)), best], best

    def _worst(self, rows, v, best):
        return rows[np.arange(len(rows)), best]


FAMILIES = {cls.kind: cls for cls in (Contamination, TotalVariation, ChiSquare, KLDivergence, Wasserstein)}


def is_json_number(value) -> bool:
    """A JSON number: an int or float, not a bool or a numeric string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def uncertainty_from_json(doc: dict) -> UncertaintySet:
    """The set a ``to_json_dict`` document describes; a ValueError names the field it rejects."""
    if not isinstance(doc, dict):
        raise ValueError(f"uncertainty must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise ValueError(f"uncertainty.kind must be one of {sorted(FAMILIES)}, got {kind!r}")
    fields = ("kind", "delta", "l", "metric") if kind == "wasserstein" else ("kind", "delta")
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ValueError(f"uncertainty has unknown field(s) {unknown}; expected some of {sorted(fields)}")
    for name, value in (("delta", doc.get("delta")), ("l", doc.get("l", 1.0))):
        if not is_json_number(value):
            raise ValueError(f"uncertainty.{name} must be a JSON number, got {value!r}")
    extra = {"order": float(doc.get("l", 1.0)), "metric": doc.get("metric")} if kind == "wasserstein" else {}
    try:
        return FAMILIES[kind](float(doc["delta"]), **extra)
    except (TypeError, ValueError) as exc:  # the set's own checks of its radius, order and metric
        raise ValueError(f"bad uncertainty config: {exc}") from exc


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All probability rows with entries that are multiples of 1/resolution, in lexicographic order."""
    cached = _GRID_CACHE.get((n, resolution))
    if cached is not None:
        return cached
    r = resolution
    points = math.comb(r + n - 1, n - 1)  # stars and bars: r units over n states
    if points > GRID_POINTS:
        raise ValueError(f"grid of {points} points for {n} states at resolution {r}; the cap is {GRID_POINTS}")
    head = np.zeros((1, 0), dtype=np.int64)  # every feasible choice of the leading entries
    for _ in range(n - 1):
        room = r - head.sum(axis=1) + 1  # choices for the next entry: 0 .. what is left
        first = np.cumsum(room) - room
        head = np.column_stack([np.repeat(head, room, axis=0), np.arange(room.sum()) - np.repeat(first, room)])
    grid = np.column_stack([head, r - head.sum(axis=1)]) / r
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


def support_oracle_grid(spec: UncertaintySet, p: np.ndarray, v: np.ndarray, resolution: int) -> float:
    """Brute-force oracle: min q.v over the simplex grid points within ``distance`` delta of p.

    Independent of the exact solvers; converges to the support value from
    above as the resolution grows. The grid holds at most ``GRID_POINTS`` points.
    """
    p = _check_simplex(p)
    v = np.asarray(v, dtype=float)
    qs = _simplex_grid(p.shape[0], resolution)
    feasible = spec.distance(p, qs) <= spec.delta + _FEAS_TOL
    if not feasible.any():
        raise RuntimeError("no feasible grid point; increase the resolution")
    return float((qs[feasible] @ v).min())

"""Layer tracing for the benchmark's traced run.

``installed(tracer)`` wraps rarl's public entry points in timing spans for the
duration of a ``with`` block and restores the originals on exit. The wrappers
live here, in the benchmark, not in the program: the untraced run executes
rarl exactly as shipped.

Each span has a layer (the rarl module it enters), an entry-point name, the
ambiguity family it serves and an optional detail (the state count for
support solves). A span's self time is its duration minus the time covered by
its child spans. Spans are aggregated as they close rather than kept one by
one, because the learner workloads open millions of them.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from rarl import estimators, harness, learners, mdp, planners, uncertainty

FAMILY_CLASSES = (
    uncertainty.Contamination,
    uncertainty.TotalVariation,
    uncertainty.ChiSquare,
    uncertainty.KLDivergence,
    uncertainty.Wasserstein,
)
# MLMC levels at or above this share one histogram bucket.
LEVEL_BUCKETS = 10


class Tracer:
    """Aggregated spans and exact counts of one traced round."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [child seconds, family]
        # (layer, name, family, detail) -> [busy seconds, self seconds, calls]
        self.spans: dict[tuple, list] = {}
        self.counts: Counter = Counter()
        self.op_s: dict[str, list[float]] = defaultdict(list)
        self.hook_s = 0.0

    def wrap(self, fn, layer, name, family_of=None, after=None):
        """Return ``fn`` wrapped in a span; ``after`` records counts from the result."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            family = family_of(args, kwargs) if family_of else (stack[-1][1] if stack else "")
            frame = [0.0, family]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            detail = after(self, family, args, kwargs, out, t1 - t0) if after is not None else None
            stats = spans.get((layer, name, family, detail))
            if stats is None:
                stats = spans[(layer, name, family, detail)] = [0.0, 0.0, 0]
            stats[0] += t1 - t0
            stats[1] += t1 - t0 - frame[0]
            stats[2] += 1
            t2 = time.perf_counter()
            self.hook_s += t2 - t1
            if stack:
                # bookkeeping after t1 is tracer cost, not the parent's own work
                stack[-1][0] += t2 - t0
            return out

        return traced

    def total(self, field: int, layer: str, name=None, family=None, detail=None):
        """Sum of busy seconds (field 0), self seconds (1) or calls (2) over matching spans."""
        return sum(
            stats[field]
            for (lay, nam, fam, det), stats in self.spans.items()
            if lay == layer
            and (name is None or nam == name)
            and (family is None or fam == family)
            and (detail is None or det == detail)
        )


def _arg(index, keyword):
    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[keyword]

    return get


def _family_from(index, keyword):
    get = _arg(index, keyword)
    return lambda args, kwargs: getattr(get(args, kwargs), "kind", "other")


def _experiment_family(args, kwargs):
    return _arg(0, "cfg")(args, kwargs).uncertainty["kind"]


def _self_family(args, kwargs):
    return args[0].kind


def _after_support(tracer, family, args, kwargs, out, dt):
    n_states = len(args[2] if len(args) > 2 else kwargs["v"])
    tracer.counts[("rows", family, n_states)] += len(out)
    return n_states


def _after_learner(tracer, family, args, kwargs, trace, dt):
    tracer.counts[("iters",)] += int(trace.iters[-1])
    tracer.op_s[family].append(dt)


def _after_sigma_hat(tracer, family, args, kwargs, out, dt):
    spec = _arg(1, "spec")(args, kwargs)
    cfg = _arg(4, "cfg")(args, kwargs)
    costs = out[1]
    tracer.counts[("estimates",)] += len(costs)
    tracer.counts[("samples",)] += int(costs.sum())
    if isinstance(spec, uncertainty.Contamination):
        return None
    # sigma_hat_for_pairs reports the cost 2^(level+1) of each MLMC estimate
    levels = np.log2(costs).astype(np.int64) - 1
    max_level = cfg.max_level if cfg is not None else estimators.default_mlmc_config(spec).max_level
    tracer.counts[("at_cap",)] += int((levels == max_level).sum())
    hist = np.bincount(np.minimum(levels, LEVEL_BUCKETS), minlength=LEVEL_BUCKETS + 1)
    for level, n in enumerate(hist):
        if n:
            tracer.counts[("level", level)] += int(n)
    return None


def _after_planner(kind):
    def after(tracer, family, args, kwargs, out, dt):
        tracer.counts[("sweeps", family, kind)] += int(out.iterations)

    return after


@contextmanager
def installed(tracer: Tracer):
    """Install timing wrappers around rarl's public entry points; restore on exit."""
    saved = []

    def patch(owner, attr, layer, family_of=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, layer, attr, family_of, after))

    try:
        for fn in ("run_eval_experiment", "run_control_experiment"):
            patch(harness, fn, "harness", _experiment_family)
        # names the harness imports, so harness-driven calls are split by layer too
        for module in (harness, learners):
            patch(module, "robust_rvi_td", "learners", _family_from(3, "spec"), _after_learner)
            patch(module, "robust_rvi_q", "learners", _family_from(2, "spec"), _after_learner)
        for module in (harness, planners):
            patch(module, "robust_rvi_eval", "planners", _family_from(2, "uset"), _after_planner("eval"))
            patch(module, "robust_rvi_control", "planners", _family_from(1, "uset"), _after_planner("control"))
        patch(planners, "worst_case_kernel", "planners", _family_from(1, "uset"))
        patch(mdp, "robust_bellman_residual", "mdp", _family_from(2, "uset"))
        patch(learners, "sigma_hat_for_pairs", "estimators", _family_from(1, "spec"), _after_sigma_hat)
        for method in ("draw_one_each", "draw_counts_each"):
            patch(estimators.KernelSampler, method, "estimators.sample")
        for cls in FAMILY_CLASSES:
            patch(cls, "support_batch", "uncertainty", _self_family, _after_support)
            patch(cls, "worst_row", "uncertainty", _self_family)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""Per-layer metrics from the traced rounds of a run.

Times are means per traced round, normalised to reference speed by the
round's own factor (normalised over raw time inside rarl calls, see
``clock.py``); counts are per round and must repeat exactly from one traced
round to the next, since every round reruns the same seeded job. Ratios whose base is zero (a layer the workload never enters)
read 0. The layers and the end-to-end metric each should move are listed in
DESIGN.md.
"""

from __future__ import annotations

import statistics

from tracer import LEVEL_BUCKETS
from workloads import FAMILIES

RARL_LAYERS = ("harness", "learners", "estimators", "estimators.sample", "uncertainty", "planners", "mdp")
STATE_COUNTS = (5, 17)  # garnet(5, 3) and inventory()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def _calls(tracer) -> dict:
    return {key: stats[2] for key, stats in tracer.spans.items()}


def layer_metrics(workload, rounds) -> tuple[dict, list[str]]:
    """Return ({name: (value, unit)}, notes); a note means a count did not repeat."""
    traced = [r for r in rounds if r["tracer"] is not None]
    tracers = [r["tracer"] for r in traced]
    scales = [r["wall"] / r["raw_wall"] for r in traced]
    traced_wall = statistics.fmean(r["wall"] for r in traced)
    untraced_wall = statistics.fmean(r["wall"] for r in rounds if r["tracer"] is None)
    notes = []
    for index, tr in enumerate(tracers[1:], start=1):
        if tr.counts != tracers[0].counts or _calls(tr) != _calls(tracers[0]):
            notes.append(f"traced round {index}: counts differ from the first traced round with the same seed")
    counts = tracers[0].counts

    def busy(layer, **kw):
        return statistics.fmean(k * t.total(0, layer, **kw) for t, k in zip(tracers, scales))

    def own(layer, **kw):
        return statistics.fmean(k * t.total(1, layer, **kw) for t, k in zip(tracers, scales))

    def n_calls(layer, **kw):
        return tracers[0].total(2, layer, **kw)

    m: dict[str, tuple[float, str]] = {}
    for fam in FAMILIES:
        rows = {n: counts[("rows", fam, n)] for n in STATE_COUNTS}
        m[f"uncertainty.rows.{fam}"] = (sum(v for k, v in counts.items() if k[:2] == ("rows", fam)), "count")
        m[f"uncertainty.busy_s.{fam}"] = (busy("uncertainty", family=fam), "s")
        for n in STATE_COUNTS:
            solve = busy("uncertainty", name="support_batch", family=fam, detail=n)
            m[f"uncertainty.us_per_row.{fam}.S{n}"] = (_ratio(solve, rows[n], 1e6), "us")
        worst = n_calls("uncertainty", name="worst_row", family=fam)
        m[f"uncertainty.worst_rows.{fam}"] = (worst, "count")
        m[f"uncertainty.worst_row_us.{fam}"] = (
            _ratio(busy("uncertainty", name="worst_row", family=fam), worst, 1e6),
            "us",
        )

    estimates = counts[("estimates",)]
    m["estimators.samples"] = (counts[("samples",)], "count")
    m["estimators.estimates"] = (estimates, "count")
    for level in range(LEVEL_BUCKETS + 1):
        label = f"L{level}" if level < LEVEL_BUCKETS else f"L{level}plus"
        m[f"estimators.level_hist.{label}"] = (counts[("level", level)], "count")
    m["estimators.at_cap"] = (counts[("at_cap",)], "count")
    m["estimators.sample_calls"] = (n_calls("estimators.sample"), "count")
    m["estimators.sample_busy_s"] = (busy("estimators.sample"), "s")
    m["estimators.self_s"] = (own("estimators"), "s")
    m["estimators.us_per_estimate"] = (_ratio(busy("estimators"), estimates, 1e6), "us")

    iters = counts[("iters",)]
    m["learners.iters"] = (iters, "count")
    m["learners.self_s"] = (own("learners"), "s")
    m["learners.us_per_iter_self"] = (_ratio(own("learners"), iters, 1e6), "us")

    for fam in FAMILIES:
        for kind in ("eval", "control"):
            m[f"planners.sweeps.{fam}.{kind}"] = (counts[("sweeps", fam, kind)], "count")
    m["planners.self_s"] = (own("planners"), "s")
    for fam in FAMILIES:
        sweeps = counts[("sweeps", fam, "eval")] + counts[("sweeps", fam, "control")]
        solve = busy("planners", name="robust_rvi_eval", family=fam) + busy(
            "planners", name="robust_rvi_control", family=fam
        )
        m[f"planners.us_per_sweep.{fam}"] = (_ratio(solve, sweeps, 1e6), "us")

    for fam in FAMILIES:
        m[f"mdp.residual_s.{fam}"] = (busy("mdp", family=fam), "s")
    m["mdp.self_s"] = (own("mdp"), "s")
    m["harness.self_s"] = (own("harness"), "s")

    layer_sum = sum(own(layer) for layer in RARL_LAYERS)
    hook = statistics.fmean(k * t.hook_s for t, k in zip(tracers, scales))
    m["bench.self_s"] = (traced_wall - layer_sum - hook, "s")
    m["trace.hook_s"] = (hook, "s")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.layer_share"] = (layer_sum / traced_wall, "ratio")
    return m, notes


def family_share_lines(rounds) -> list[str]:
    """Per family, the share of traced time each layer spent as self time."""
    tracers = [r["tracer"] for r in rounds if r["tracer"] is not None]
    lines = []
    for fam in FAMILIES:
        own = {layer: sum(t.total(1, layer, family=fam) for t in tracers) for layer in RARL_LAYERS}
        total = sum(own.values())
        if total:
            shares = " ".join(f"{layer}={val / total:.3f}" for layer, val in own.items())
            lines.append(f"layer_share.{fam}: {shares}")
    return lines


"""Minimal self-contained SVG line plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 720, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 36, 50


def _ticks(lo: float, hi: float, n: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def _fmt(x: float) -> str:
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.1e}"
    return f"{x:.4g}"


def line_plot_svg(
    path,
    x,
    series: dict[str, np.ndarray],
    band: tuple[np.ndarray, np.ndarray] | None = None,
    baseline: float | None = None,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Write a line plot: named series, optional shaded band and dashed baseline."""
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(y, dtype=float) for y in series.values()]
    lo_candidates = ys + ([band[0]] if band else []) + ([np.array([baseline])] if baseline is not None else [])
    y_lo = min(float(np.min(y)) for y in lo_candidates)
    hi_candidates = ys + ([band[1]] if band else []) + ([np.array([baseline])] if baseline is not None else [])
    y_hi = max(float(np.max(y)) for y in hi_candidates)
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = float(x.min()), float(x.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(xv):
        return MARGIN_L + (xv - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(yv):
        return HEIGHT - MARGIN_B - (yv - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    def poly(xs, ys_):
        # one array pass per axis; tolist() gives Python floats, which format like the numpy scalars
        pts = zip(px(xs).tolist(), py(np.asarray(ys_, dtype=float)).tolist())
        return " ".join(f"{a:.2f},{b:.2f}" for a, b in pts)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    for tx in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(tx):.1f}" y1="{HEIGHT - MARGIN_B}" x2="{px(tx):.1f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
            f'<text x="{px(tx):.1f}" y="{HEIGHT - MARGIN_B + 18}" text-anchor="middle">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py(ty):.1f}" x2="{MARGIN_L}" y2="{py(ty):.1f}" stroke="black"/>'
            f'<text x="{MARGIN_L - 8}" y="{py(ty) + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>'
            f'<line x1="{MARGIN_L}" y1="{py(ty):.1f}" x2="{WIDTH - MARGIN_R}" y2="{py(ty):.1f}" '
            f'stroke="#eeeeee"/>'
        )
    parts.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>'
    )
    if band is not None:
        lo_pts = poly(x, band[0])
        hi_pts = poly(x[::-1], band[1][::-1])
        parts.append(f'<polygon points="{lo_pts} {hi_pts}" fill="#1f77b4" fill-opacity="0.18" stroke="none"/>')
    if baseline is not None:
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{py(baseline):.1f}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{py(baseline):.1f}" stroke="#444444" stroke-dasharray="7 5"/>'
        )
    for i, (label, y) in enumerate(series.items()):
        parts.append(
            f'<polyline points="{poly(x, y)}" fill="none" stroke="{colors[i % len(colors)]}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{WIDTH - MARGIN_R - 8}" y="{MARGIN_T + 16 + 16 * i}" text-anchor="end" '
            f'fill="{colors[i % len(colors)]}">{label}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) / 2:.0f})">{ylabel}</text>'
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))

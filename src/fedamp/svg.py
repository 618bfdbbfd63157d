"""Minimal deterministic SVG line charts.

Byte-identical output for identical input: all coordinates are formatted
with fixed precision and no timestamps or random ids are embedded.
Intended for convergence curves: a linear x axis, a log y axis, and a
fixed 720x460 canvas.
"""

from __future__ import annotations

import math

import numpy as np

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd",
           "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 44


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def _log_ticks(lo: float, hi: float):
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def _linear_ticks(lo: float, hi: float, target: int = 6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-9 * step:
        ticks.append(v)
        v += step
    return ticks


class ChartError(ValueError):
    pass


def line_chart(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render labeled (x, y) series to a standalone SVG string.

    series: list of (label, x_values, y_values).  Non-positive y values are
    dropped (log axis); a series with no plottable point is an error.
    """
    if not series:
        raise ChartError("no series to plot")
    cleaned = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ChartError(f"series {label!r}: x and y must be equal-length vectors")
        keep = np.isfinite(xs) & np.isfinite(ys) & (ys > 0)
        xs, ys = xs[keep], ys[keep]
        if xs.size == 0:
            raise ChartError(f"series {label!r} has no plottable points")
        cleaned.append((str(label), xs, ys))

    all_x = np.concatenate([xs for _, xs, _ in cleaned])
    all_y = np.concatenate([ys for _, _, ys in cleaned])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 2, y_hi * 2

    width, height = 720, 460
    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        frac = (math.log10(v) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        return _MARGIN_T + (1.0 - frac) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
               f'height="{height}" viewBox="0 0 {width} {height}">')
    out.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
               f'height="{plot_h}" fill="none" stroke="#333333"/>')
    if title:
        out.append(f'<text x="{width // 2}" y="20" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')

    for v in _linear_ticks(x_lo, x_hi):
        if not x_lo <= v <= x_hi:
            continue
        px = sx(v)
        out.append(f'<line x1="{_fmt(px)}" y1="{_MARGIN_T}" x2="{_fmt(px)}" '
                   f'y2="{_MARGIN_T + plot_h}" stroke="#dddddd"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 16}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_tick_label(v)}</text>')
    for v in _log_ticks(y_lo, y_hi):
        if not y_lo <= v <= y_hi:
            continue
        py = sy(v)
        out.append(f'<line x1="{_MARGIN_L}" y1="{_fmt(py)}" x2="{_MARGIN_L + plot_w}" '
                   f'y2="{_fmt(py)}" stroke="#dddddd"/>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{_fmt(py + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_tick_label(v)}</text>')
    if x_label:
        out.append(f'<text x="{width // 2}" y="{height - 8}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>')
    if y_label:
        out.append(f'<text x="14" y="{height // 2}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 14 {height // 2})">{_escape(y_label)}</text>')

    for i, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')

    # legend, top right inside the plot frame
    for i, (label, _, _) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        ly = _MARGIN_T + 14 + 16 * i
        lx = _MARGIN_L + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly + 4}" font-family="sans-serif" '
                   f'font-size="11">{_escape(label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))

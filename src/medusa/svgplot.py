"""Minimal SVG plot emission (no plotting dependency, diffable output)."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PALETTE = (
    "#c0392b", "#27ae60", "#e67e22", "#2980b9", "#8e44ad",
    "#16a085", "#d35400", "#2c3e50", "#7f8c8d", "#f39c12",
    "#990066", "#336600",
)
_MARGIN = dict(left=64.0, right=16.0, top=28.0, bottom=44.0)
WIDTH, HEIGHT = 640, 420   # every plot's size in pixels
RIBBON_COLOR = "#2980b9"


def _axis_range(values, log: bool) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    arr = arr[np.isfinite(arr)]
    if log:
        arr = arr[arr > 0]
    if arr.size == 0:
        return (0.1, 1.0) if log else (0.0, 1.0)
    lo, hi = float(arr.min()), float(arr.max())
    if lo == hi:
        pad = abs(lo) * 0.1 + (1e-6 if not log else 0)
        lo, hi = lo - pad, hi + pad
        if log and lo <= 0:
            lo = hi / 10
    return lo, hi


class _Frame:
    """Maps data coordinates onto the pixel plot box."""

    def __init__(self, xlim, ylim, log_x=False, log_y=False):
        self.log_x, self.log_y = log_x, log_y
        self.x0 = _MARGIN["left"]
        self.y0 = _MARGIN["top"]
        self.x1 = WIDTH - _MARGIN["right"]
        self.y1 = HEIGHT - _MARGIN["bottom"]
        self.xlim = tuple(math.log10(v) for v in xlim) if log_x else xlim
        self.ylim = tuple(math.log10(v) for v in ylim) if log_y else ylim

    def px(self, x: float) -> float:
        if self.log_x:
            x = math.log10(x) if x > 0 else self.xlim[0]
        lo, hi = self.xlim
        return self.x0 + (x - lo) / (hi - lo or 1.0) * (self.x1 - self.x0)

    def py(self, y: float) -> float:
        if self.log_y:
            y = math.log10(y) if y > 0 else self.ylim[0]
        lo, hi = self.ylim
        return self.y1 - (y - lo) / (hi - lo or 1.0) * (self.y1 - self.y0)


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e = math.floor(math.log10(lo))
        hi_e = math.ceil(math.log10(hi))
        return [10.0**e for e in range(lo_e, hi_e + 1)]
    span = hi - lo or 1.0
    step = 10 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    return [first + i * step for i in range(int((hi - first) / step) + 1)]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _chrome(parts, frame, title, xlabel, ylabel):
    parts.append(
        f'<rect x="{frame.x0}" y="{frame.y0}" width="{frame.x1 - frame.x0}" '
        f'height="{frame.y1 - frame.y0}" fill="none" stroke="#333"/>'
    )
    xlo = 10 ** frame.xlim[0] if frame.log_x else frame.xlim[0]
    xhi = 10 ** frame.xlim[1] if frame.log_x else frame.xlim[1]
    ylo = 10 ** frame.ylim[0] if frame.log_y else frame.ylim[0]
    yhi = 10 ** frame.ylim[1] if frame.log_y else frame.ylim[1]
    for tick in _ticks(xlo, xhi, frame.log_x):
        if tick < xlo or tick > xhi:
            continue
        x = frame.px(tick)
        parts.append(f'<line x1="{x:.1f}" y1="{frame.y1}" x2="{x:.1f}" y2="{frame.y1 + 4}" stroke="#333"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{frame.y1 + 16}" font-size="10" text-anchor="middle">{_fmt(tick)}</text>'
        )
    for tick in _ticks(ylo, yhi, frame.log_y):
        if tick < ylo or tick > yhi:
            continue
        y = frame.py(tick)
        parts.append(f'<line x1="{frame.x0 - 4}" y1="{y:.1f}" x2="{frame.x0}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(
            f'<text x="{frame.x0 - 6}" y="{y + 3:.1f}" font-size="10" text-anchor="end">{_fmt(tick)}</text>'
        )
    parts.append(f'<text x="{WIDTH / 2}" y="16" font-size="12" text-anchor="middle">{title}</text>')
    parts.append(
        f'<text x="{(frame.x0 + frame.x1) / 2}" y="{HEIGHT - 8}" font-size="11" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{(frame.y0 + frame.y1) / 2}" font-size="11" text-anchor="middle" '
        f'transform="rotate(-90 14 {(frame.y0 + frame.y1) / 2})">{ylabel}</text>'
    )


def _polyline(frame, x, y, color, width=1.2) -> str:
    pts = []
    for xi, yi in zip(x, y):
        if not (np.isfinite(xi) and np.isfinite(yi)):
            continue
        if (frame.log_x and xi <= 0) or (frame.log_y and yi <= 0):
            continue
        pts.append(f"{frame.px(xi):.1f},{frame.py(yi):.1f}")
    if not pts:
        return ""
    return (
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
        f'stroke-width="{width}" stroke-opacity="1.0"/>'
    )


def _write(path, parts):
    body = "\n".join(p for p in parts if p)
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
    Path(path).write_text(doc)


def line_plot(
    path,
    x,
    series: dict,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    log_x: bool = False,
    log_y: bool = False,
) -> None:
    """Overlaid line plot; ``series`` maps label -> y array."""
    all_y = np.concatenate([np.asarray(v, dtype=float).ravel() for v in series.values()])
    frame = _Frame(_axis_range(x, log_x), _axis_range(all_y, log_y), log_x, log_y)
    parts: list[str] = []
    _chrome(parts, frame, title, xlabel, ylabel)
    for i, (label, y) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        parts.append(_polyline(frame, x, y, color))
        parts.append(
            f'<text x="{frame.x1 - 4}" y="{frame.y0 + 12 + 12 * i}" font-size="10" '
            f'text-anchor="end" fill="{color}">{label}</text>'
        )
    _write(path, parts)


def ribbon_plot(
    path,
    x,
    mean,
    sd,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    """Mean line with a +/- SD band."""
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    lo, hi = mean - sd, mean + sd
    frame = _Frame(_axis_range(x, False), _axis_range(np.concatenate([lo, hi]), False))
    parts: list[str] = []
    _chrome(parts, frame, title, xlabel, ylabel)
    band = [f"{frame.px(xi):.1f},{frame.py(yi):.1f}" for xi, yi in zip(x, hi)]
    band += [f"{frame.px(xi):.1f},{frame.py(yi):.1f}" for xi, yi in zip(x[::-1], lo[::-1])]
    parts.append(f'<polygon points="{" ".join(band)}" fill="{RIBBON_COLOR}" fill-opacity="0.25" stroke="none"/>')
    parts.append(_polyline(frame, x, mean, RIBBON_COLOR, width=1.8))
    _write(path, parts)


def heatmap(
    path,
    matrix,
    row_labels,
    col_labels,
    title: str = "",
) -> None:
    """Annotated heatmap; values are clipped to [vmin, vmax] for coloring."""
    m = np.asarray(matrix, dtype=float)
    finite = m[np.isfinite(m)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    if vmin == vmax:
        vmax = vmin + 1.0
    x0, y0 = _MARGIN["left"] + 20, _MARGIN["top"] + 8
    x1, y1 = WIDTH - _MARGIN["right"], HEIGHT - _MARGIN["bottom"]
    rows, cols = m.shape
    cw, ch = (x1 - x0) / cols, (y1 - y0) / rows
    parts = [f'<text x="{WIDTH / 2}" y="16" font-size="12" text-anchor="middle">{title}</text>']
    for r in range(rows):
        for c in range(cols):
            v = m[r, c]
            frac = 0.0 if not np.isfinite(v) else (v - vmin) / (vmax - vmin)
            frac = min(max(frac, 0.0), 1.0)
            red = int(40 + 215 * (1 - frac))
            green = int(40 + 180 * frac)
            blue = int(90 + 60 * frac)
            parts.append(
                f'<rect x="{x0 + c * cw:.1f}" y="{y0 + r * ch:.1f}" width="{cw:.1f}" '
                f'height="{ch:.1f}" fill="rgb({red},{green},{blue})" stroke="white"/>'
            )
            if np.isfinite(v):
                parts.append(
                    f'<text x="{x0 + (c + 0.5) * cw:.1f}" y="{y0 + (r + 0.5) * ch + 3:.1f}" '
                    f'font-size="10" text-anchor="middle" fill="white">{v:.2f}</text>'
                )
    for r, label in enumerate(row_labels):
        parts.append(
            f'<text x="{x0 - 6}" y="{y0 + (r + 0.5) * ch + 3:.1f}" font-size="10" text-anchor="end">{label}</text>'
        )
    for c, label in enumerate(col_labels):
        parts.append(
            f'<text x="{x0 + (c + 0.5) * cw:.1f}" y="{y1 + 14}" font-size="10" text-anchor="middle">{label}</text>'
        )
    _write(path, parts)


def bar_chart(
    path,
    labels,
    values,
    errors=None,
    title: str = "",
    ylabel: str = "",
) -> None:
    """Simple bar chart with optional error whiskers."""
    vals = np.asarray(values, dtype=float)
    errs = np.zeros_like(vals) if errors is None else np.asarray(errors, dtype=float)
    top = float(np.nanmax(vals + errs)) if vals.size else 1.0
    frame = _Frame((0.0, float(len(vals))), (0.0, top * 1.08 or 1.0))
    parts: list[str] = []
    _chrome(parts, frame, title, "", ylabel)
    for i, (label, v, e) in enumerate(zip(labels, vals, errs)):
        color = PALETTE[i % len(PALETTE)]
        x_left = frame.px(i + 0.15)
        x_right = frame.px(i + 0.85)
        y_top = frame.py(v)
        parts.append(
            f'<rect x="{x_left:.1f}" y="{y_top:.1f}" width="{x_right - x_left:.1f}" '
            f'height="{frame.py(0) - y_top:.1f}" fill="{color}" fill-opacity="0.8"/>'
        )
        if e > 0:
            xc = frame.px(i + 0.5)
            parts.append(
                f'<line x1="{xc:.1f}" y1="{frame.py(v - e):.1f}" x2="{xc:.1f}" '
                f'y2="{frame.py(v + e):.1f}" stroke="#333"/>'
            )
        parts.append(
            f'<text x="{frame.px(i + 0.5):.1f}" y="{frame.y1 + 16}" font-size="10" '
            f'text-anchor="middle">{label}</text>'
        )
    _write(path, parts)

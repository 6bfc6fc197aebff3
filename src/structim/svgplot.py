"""Tiny SVG chart emitters: line, bar, violin. No plotting dependency."""

from __future__ import annotations

import math

import numpy as np

_WIDTH, _HEIGHT = 640, 400
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 48


def _fmt(v: float) -> str:
    return f"{v:.4g}"


def _esc(text: str) -> str:
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _canvas(title) -> list:
    """The opening elements of a chart; ``_svg`` closes them."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>')
    return parts


def _svg(parts: list) -> str:
    return "\n".join([*parts, "</svg>"])


def _scales(xmin, xmax, ymin, ymax):
    if xmax <= xmin:
        xmax = xmin + 1.0
    if ymax <= ymin:
        ymax = ymin + 1.0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - xmin) / (xmax - xmin) * plot_w

    def sy(y):
        return _HEIGHT - _MARGIN_B - (y - ymin) / (ymax - ymin) * plot_h

    return sx, sy, (xmin, xmax, ymin, ymax)


def _axes(parts, sx, sy, bounds, xlabel, ylabel, x_ticks=True):
    xmin, xmax, ymin, ymax = bounds
    x0, y0 = sx(xmin), sy(ymin)
    x1, y1 = sx(xmax), sy(ymax)
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = ymin + frac * (ymax - ymin)
        py = sy(yv)
        parts.append(f'<line x1="{x0 - 4}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{py + 4}" text-anchor="end">{_fmt(yv)}</text>')
        if x_ticks:
            xv = xmin + frac * (xmax - xmin)
            px = sx(xv)
            parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 4}" stroke="black"/>')
            parts.append(f'<text x="{px}" y="{y0 + 18}" text-anchor="middle">{_fmt(xv)}</text>')
    if xlabel:
        parts.append(f'<text x="{(x0 + x1) / 2}" y="{_HEIGHT - 10}" text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        parts.append(
            f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2})">{_esc(ylabel)}</text>'
        )


def line_chart(xs, ys, title="", xlabel="", ylabel="") -> str:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    parts = _canvas(title)
    sx, sy, bounds = _scales(xs.min(), xs.max(), min(ys.min(), 0.0), ys.max())
    _axes(parts, sx, sy, bounds, xlabel, ylabel)
    points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="#1f6fb2"/>')
    return _svg(parts)


def bar_chart(labels, values, title="", ylabel="") -> str:
    values = np.asarray(values, dtype=float)
    parts = _canvas(title)
    ymin = min(0.0, values.min())
    ymax = max(0.0, values.max())
    sx, sy, bounds = _scales(0.0, float(len(values)), ymin, ymax)
    _axes(parts, sx, sy, bounds, "", ylabel, x_ticks=False)
    zero_y = sy(0.0)
    for k, (label, v) in enumerate(zip(labels, values)):
        left = sx(k + 0.15)
        right = sx(k + 0.85)
        top = sy(v)
        y = min(top, zero_y)
        h = abs(top - zero_y)
        parts.append(f'<rect x="{left:.2f}" y="{y:.2f}" width="{right - left:.2f}" height="{h:.2f}" fill="#1f6fb2"/>')
        cx = (left + right) / 2
        parts.append(
            f'<text x="{cx:.2f}" y="{_HEIGHT - _MARGIN_B + 16}" text-anchor="end" '
            f'transform="rotate(-35 {cx:.2f} {_HEIGHT - _MARGIN_B + 16})">{_esc(label)}</text>'
        )
    return _svg(parts)


def _kde(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # an infinite bandwidth or z**2 gives the density's limit, 0
        n = values.size
        std = values.std()
        bw = std * n ** (-1 / 5) if std > 0 else 1.0
        bw = max(bw, 1e-12)
        z = (grid[:, None] - values[None, :]) / bw
        return np.exp(-0.5 * z**2).sum(axis=1) / (n * bw * math.sqrt(2 * math.pi))


def violin_chart(groups, title="", ylabel="") -> str:
    """Mirrored-density plot per group; groups is [(label, values), ...]."""
    parts = _canvas(title)
    arrays = [np.asarray(v, dtype=float) for _, v in groups]
    arrays = [a for a in arrays if a.size]
    if not arrays:
        return _svg(parts)
    ymin = min(a.min() for a in arrays)
    ymax = max(a.max() for a in arrays)
    if ymax <= ymin:
        ymin, ymax = ymin - 1.0, ymax + 1.0
    pad = 0.05 * (ymax - ymin)
    sx, sy, bounds = _scales(0.0, float(len(groups)), ymin - pad, ymax + pad)
    _axes(parts, sx, sy, bounds, "", ylabel, x_ticks=False)
    for k, (label, vals) in enumerate(groups):
        vals = np.asarray(vals, dtype=float)
        center = sx(k + 0.5)
        half_width = (sx(k + 0.95) - sx(k + 0.55))
        if vals.size:
            grid = np.linspace(bounds[2], bounds[3], 120)
            dens = _kde(vals, grid)
            peak = dens.max() if dens.max() > 0 else 1.0
            rights = [(center + half_width * d / peak, sy(g)) for g, d in zip(grid, dens)]
            lefts = [(center - half_width * d / peak, sy(g)) for g, d in zip(grid, dens)]
            pts = rights + lefts[::-1]
            path = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
            parts.append(f'<polygon points="{path}" fill="#7fb2d9" stroke="#1f6fb2"/>')
            med = float(np.median(vals))
            parts.append(
                f'<line x1="{center - half_width:.2f}" y1="{sy(med):.2f}" '
                f'x2="{center + half_width:.2f}" y2="{sy(med):.2f}" stroke="black"/>'
            )
        parts.append(f'<text x="{center:.2f}" y="{_HEIGHT - _MARGIN_B + 16}" text-anchor="middle">{_esc(label)}</text>')
    return _svg(parts)

"""Small deterministic SVG 1.1 writer for the toolkit's figures.

Hand-rolled on purpose: output depends only on the data (fixed-precision
coordinates, no ids, no timestamps), so repeated runs are byte-identical.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return format(v, ".3f")


class _Canvas:
    def __init__(self, width: int, height: int, title: str):
        self.parts = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>',
            f'<title>{title}</title>',
        ]

    def line(self, x1, y1, x2, y2, stroke="#404040", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{width}"{d}/>')

    def polyline(self, xs, ys, stroke, width=1.5, dash=None):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
            f'stroke-width="{width}"{d}/>')

    def text(self, x, y, content, size=12, anchor="start", fill="#202020"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}" '
            f'fill="{fill}">{content}</text>')

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text("\n".join(self.parts) + "\n</svg>\n", encoding="utf-8")
        return path


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1, 2, 5, 10) if raw <= mult * mag)
    out, t = [], math.ceil(lo / step) * step
    while t <= hi + 1e-9 * span:
        out.append(round(t, 12))
        t += step
    return out


def line_chart(path, series, title, xlabel, ylabel):
    """Plot (label, xs, ys) series with axes and a legend, 640 x 440."""
    width, height = 640, 440
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 50
    canvas = _Canvas(width, height, title)
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    series = [(label, np.asarray(xs, float), np.asarray(ys, float))
              for label, xs, ys in series]
    all_x = np.concatenate([xs for _, xs, _ in series])
    all_y = np.concatenate([ys[np.isfinite(ys)] for _, _, ys in series])
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi += 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return margin_t + (y_hi - y) / (y_hi - y_lo) * plot_h

    # axes box and ticks
    canvas.line(margin_l, margin_t, margin_l, margin_t + plot_h)
    canvas.line(margin_l, margin_t + plot_h, margin_l + plot_w,
                margin_t + plot_h)
    for t in _ticks(x_lo, x_hi):
        canvas.line(sx(t), margin_t + plot_h, sx(t), margin_t + plot_h + 4)
        canvas.text(sx(t), margin_t + plot_h + 18, f"{t:g}", size=10,
                    anchor="middle")
    for t in _ticks(y_lo, y_hi):
        canvas.line(margin_l - 4, sy(t), margin_l, sy(t))
        canvas.text(margin_l - 8, sy(t) + 3, f"{t:g}", size=10, anchor="end")
    canvas.text(width / 2, 22, title, size=14, anchor="middle")
    canvas.text(margin_l + plot_w / 2, height - 12, xlabel, size=11,
                anchor="middle")
    canvas.text(16, margin_t - 10, ylabel, size=11)

    for i, (label, xs, ys) in enumerate(series):
        keep = np.isfinite(ys)
        color = _COLORS[i % len(_COLORS)]
        canvas.polyline([sx(x) for x in xs[keep]], [sy(y) for y in ys[keep]],
                        stroke=color)
        canvas.text(margin_l + plot_w - 8,
                    margin_t + 16 + 14 * i, label, size=11, anchor="end",
                    fill=color)
    return canvas.save(path)


def wedge_figure(path, contours):
    """Complex-plane figure: sector boundary rays plus contour traces.

    ``contours`` is a list of (label, re_z, im_z, dashed) tuples, drawn on
    560 x 560 pixels within |Re z|, |Im z| <= 4.
    """
    radius, width, height = 4.0, 560, 560
    title = "contours and wedge boundaries"
    canvas = _Canvas(width, height, title)
    cx, cy = width / 2, height / 2 + 10
    scale = (min(width, height) / 2 - 50) / radius

    def sx(re):
        return cx + re * scale

    def sy(im):
        return cy - im * scale

    # sector boundaries at k*pi/3
    for k in range(6):
        ang = k * math.pi / 3
        canvas.line(sx(-radius * math.cos(ang)), sy(-radius * math.sin(ang)),
                    sx(radius * math.cos(ang)), sy(radius * math.sin(ang)),
                    stroke="#909090", width=1.0)
    canvas.line(sx(-radius), sy(0), sx(radius), sy(0), stroke="#404040")
    canvas.line(sx(0), sy(-radius), sx(0), sy(radius), stroke="#404040")
    canvas.text(sx(radius) - 14, sy(0) - 6, "Re z", size=11)
    canvas.text(sx(0) + 6, sy(radius) + 14, "Im z", size=11)
    canvas.text(width / 2, 22, title, size=14, anchor="middle")

    for i, (label, re_z, im_z, dashed) in enumerate(contours):
        re_z = np.asarray(re_z, float)
        im_z = np.asarray(im_z, float)
        keep = (np.abs(re_z) <= radius) & (np.abs(im_z) <= radius)
        color = _COLORS[i % len(_COLORS)]
        canvas.polyline([sx(v) for v in re_z[keep]],
                        [sy(v) for v in im_z[keep]],
                        stroke=color, dash="6,4" if dashed else None)
        canvas.text(width - 20, 40 + 14 * i, label, size=11, anchor="end",
                    fill=color)
    return canvas.save(path)

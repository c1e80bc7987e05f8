"""Self-contained SVG line plots, rendered without a plotting library.

Output is a pure function of the inputs: no timestamps, no random ids, so
golden-file tests can compare bytes.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .tableio import Table

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 36, 48

PALETTE = ("#1f6fb2", "#d1495b", "#3a8f5d", "#8e5db2",
           "#c98a2b", "#4ab5c4", "#74655a", "#a0a424")


@dataclass(frozen=True)
class PlotSpec:
    """Which table columns to plot and how to scale the axes."""

    x: str
    y: str
    group_by: str | None = None
    scale: str = "linear"  # linear | log-x | log-y | log-log
    title: str = ""

    def __post_init__(self):
        if self.scale not in ("linear", "log-x", "log-y", "log-log"):
            raise ValueError(f"unknown scale {self.scale!r}")


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    e = math.floor(math.log10(lo))
    while 10.0 ** e <= hi * (1 + 1e-9):
        if 10.0 ** e >= lo * (1 - 1e-9):
            ticks.append(10.0 ** e)
        e += 1
    if len(ticks) < 2:  # narrow range: fall back to linear ticks
        return _nice_ticks(lo, hi)
    return ticks


class _Axis:
    def __init__(self, values, log: bool, lo_px: float, hi_px: float):
        vals = [v for v in values if not log or v > 0]
        if not vals:
            vals = [1.0, 10.0] if log else [0.0, 1.0]
        lo, hi = min(vals), max(vals)
        if log:
            if hi <= lo:
                hi = lo * 10
            self.ticks = _log_ticks(lo, hi)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            if hi <= lo:
                hi = lo + 1.0
            self.ticks = _nice_ticks(lo, hi)
            self.lo, self.hi = lo, hi
        self.log = log
        self.lo_px, self.hi_px = lo_px, hi_px

    def to_px(self, v: float) -> float | None:
        if self.log:
            if v <= 0:
                return None
            v = math.log10(v)
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.lo_px + frac * (self.hi_px - self.lo_px)


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def render_series(series: list[Series], *, title: str = "", xlabel: str = "",
                  ylabel: str = "", logx: bool = False, logy: bool = False) -> str:
    xs = [x for s in series for x in s.xs]
    ys = [y for s in series for y in s.ys]
    ax = _Axis(xs, logx, MARGIN_L, WIDTH - MARGIN_R)
    ay = _Axis(ys, logy, HEIGHT - MARGIN_B, MARGIN_T)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
           f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>']
    # grid and tick labels
    for tv in ax.ticks:
        px = ax.to_px(tv)
        if px is None:
            continue
        out.append(f'<line x1="{px:.2f}" y1="{MARGIN_T}" x2="{px:.2f}" '
                   f'y2="{HEIGHT - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 16}" '
                   f'font-family="sans-serif" font-size="11" fill="#333333" '
                   f'text-anchor="middle">{tv:.6g}</text>')
    for tv in ay.ticks:
        py = ay.to_px(tv)
        if py is None:
            continue
        out.append(f'<line x1="{MARGIN_L}" y1="{py:.2f}" x2="{WIDTH - MARGIN_R}" '
                   f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 6}" y="{py:.2f}" '
                   f'font-family="sans-serif" font-size="11" fill="#333333" '
                   f'text-anchor="end" dominant-baseline="middle">{tv:.6g}</text>')
    # frame
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
               f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
               f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" '
               f'stroke="#333333" stroke-width="1"/>')
    # series
    for k, s in enumerate(series):
        color = PALETTE[k % len(PALETTE)]
        pts = []
        for x, y in zip(s.xs, s.ys):
            px, py = ax.to_px(x), ay.to_px(y)
            if px is not None and py is not None:
                pts.append(f"{px:.2f},{py:.2f}")
        if pts:
            out.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                       f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 16 * k
        lx = WIDTH - MARGIN_R - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11" fill="#333333">{_esc(s.label)}</text>')
    if title:
        out.append(f'<text x="{WIDTH / 2:.0f}" y="22" font-family="sans-serif" '
                   f'font-size="14" fill="#111111" text-anchor="middle">'
                   f'{_esc(title)}</text>')
    if xlabel:
        out.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.0f}" '
                   f'y="{HEIGHT - 10}" font-family="sans-serif" font-size="12" '
                   f'fill="#111111" text-anchor="middle">{_esc(xlabel)}</text>')
    if ylabel:
        cy = (MARGIN_T + HEIGHT - MARGIN_B) / 2
        out.append(f'<text x="16" y="{cy:.0f}" font-family="sans-serif" '
                   f'font-size="12" fill="#111111" text-anchor="middle" '
                   f'transform="rotate(-90 16 {cy:.0f})">{_esc(ylabel)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


_FLOAT_MAX = sys.float_info.max


def _numeric(v, column: str) -> float:
    # an exact comparison: False for inf and NaN, and no overflow for a huge int
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX:
        return float(v)
    raise ValueError(f"non-numeric or non-finite cell {v!r} in plotted column {column!r}")


def table_series(table: Table, spec: PlotSpec) -> list[Series]:
    """Group table rows into plottable series, sorted by x within groups
    and by group label across them."""
    xs = table.column(spec.x)
    ys = table.column(spec.y)
    if spec.group_by is None:
        groups = {"": list(zip(xs, ys))}
    else:
        keys = table.column(spec.group_by)
        groups = {}
        for k, x, y in zip(keys, xs, ys):
            groups.setdefault(str(k), []).append((x, y))
    series = []
    for label in sorted(groups):
        pts = sorted((_numeric(x, spec.x), _numeric(y, spec.y))
                     for x, y in groups[label])
        series.append(Series(label=label or spec.y,
                             xs=tuple(p[0] for p in pts),
                             ys=tuple(p[1] for p in pts)))
    return series


def render_svg(table: Table, spec: PlotSpec, path) -> None:
    """Render the table per spec to a standalone SVG file."""
    svg = render_series(table_series(table, spec),
                        title=spec.title, xlabel=spec.x, ylabel=spec.y,
                        logx=spec.scale in ("log-x", "log-log"),
                        logy=spec.scale in ("log-y", "log-log"))
    with open(path, "w", newline="") as fh:
        fh.write(svg)

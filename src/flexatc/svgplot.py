"""Hand-rolled SVG line charts: two panels of relative error on a log axis,
against iterations and against cumulative communication rounds. No plotting
dependency; output is a deterministic function of the input curves.
"""

from __future__ import annotations

import math

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)

_PANEL_W = 420
_PANEL_H = 320
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 36
_MARGIN_B = 44
_FLOOR = 1e-300


def _nice_linear_ticks(lo: float, hi: float, want: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / want
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(t)
        t += step
    return ticks


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e7:
        return str(int(v))
    return f"{v:g}"


def _panel(lines: list[tuple[list, list]], title: str, x_label: str, x_off: int) -> list[str]:
    """A panel of one polyline per (xs, ys) line, line i in _PALETTE's colour i."""
    plot_w = _PANEL_W - _MARGIN_L - _MARGIN_R
    plot_h = _PANEL_H - _MARGIN_T - _MARGIN_B
    xs_all = [x for xs, _ in lines for x in xs]
    # only finite points are plotted; a panel without one spans 1e0..1e1
    ys_all = [max(y, _FLOOR) for _, ys in lines for y in ys if math.isfinite(y)] or [1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    ly_lo = math.floor(math.log10(min(ys_all)))
    ly_hi = math.ceil(math.log10(max(ys_all)))
    if ly_hi == ly_lo:
        ly_hi += 1

    def sx(x: float) -> float:
        return x_off + _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        ly = math.log10(max(y, _FLOOR))
        return _MARGIN_T + (ly_hi - ly) / (ly_hi - ly_lo) * plot_h

    out = []
    left = x_off + _MARGIN_L
    top, bottom = _MARGIN_T, _MARGIN_T + plot_h
    out.append(
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#444" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{x_off + _PANEL_W / 2:.1f}" y="{_MARGIN_T - 12}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">{title}</text>'
    )
    # y ticks: one per decade, thinned to at most ~8 labels
    n_dec = ly_hi - ly_lo
    dec_step = max(1, math.ceil(n_dec / 8))
    for e in range(ly_lo, ly_hi + 1, dec_step):
        y = sy(10.0 ** e)
        out.append(f'<line x1="{left - 4}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" stroke="#444"/>')
        out.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">1e{e}</text>'
        )
    for t in _nice_linear_ticks(x_lo, x_hi):
        x = sx(t)
        out.append(f'<line x1="{x:.1f}" y1="{bottom}" x2="{x:.1f}" y2="{bottom + 4}" stroke="#444"/>')
        out.append(
            f'<text x="{x:.1f}" y="{bottom + 16}" text-anchor="middle" font-size="10" '
            f'font-family="sans-serif">{_fmt(t)}</text>'
        )
    out.append(
        f'<text x="{x_off + _PANEL_W / 2:.1f}" y="{_PANEL_H - 8}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{x_label}</text>'
    )
    for i, (xs, ys) in enumerate(lines):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys) if math.isfinite(y))
        out.append(f'<polyline fill="none" stroke="{_PALETTE[i % len(_PALETTE)]}" '
                   f'stroke-width="1.5" points="{pts}"/>')
    return out


def render_convergence_svg(curves: list[tuple[str, list, list]]) -> str:
    """Two-panel chart of (label, cumulative comms, relative errors) curves:
    each curve's errors against iterations 1..len(errors) on the left and
    against its comms on the right, one polyline per curve per panel, curve
    i in _PALETTE's colour i in both panels and the legend."""
    if not curves:
        raise ValueError("need at least one curve")
    legend_h = 18 * len(curves) + 8
    width = 2 * _PANEL_W
    height = _PANEL_H + legend_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    parts.extend(_panel([(range(1, len(errs) + 1), errs) for _, _, errs in curves],
                        "relative error vs iteration", "iteration", 0))
    parts.extend(_panel([(comms, errs) for _, comms, errs in curves],
                        "relative error vs communication rounds",
                        "cumulative communication rounds", _PANEL_W))
    for i, (lab, _, _) in enumerate(curves):
        y = _PANEL_H + 14 + 18 * i
        parts.append(f'<line x1="{_MARGIN_L}" y1="{y - 4}" x2="{_MARGIN_L + 26}" y2="{y - 4}" '
                     f'stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="2"/>')
        parts.append(f'<text x="{_MARGIN_L + 34}" y="{y}" font-size="11" '
                     f'font-family="sans-serif">{lab}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

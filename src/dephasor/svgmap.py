"""Deterministic SVG rendering of advantage-ratio heatmaps.

Hand-rolled on purpose: byte-identical output for identical input is a
contract, so no plotting library with embedded ids or timestamps is
used.  The canvas is a fixed 800x600 viewport; color encodes
log10(ratio) and the ratio = 1 boundary is drawn explicitly along cell
edges between cells on opposite sides of ratio 1 (the CSV region rule,
ratio >= 1 is 'enhanced').

The whole table is rendered as arrays: one numpy pass maps every cell
to its color, each distinct color and each column and row coordinate is
formatted once, and the boundary edges come from ``np.nonzero`` on the
shifted region masks.  The cell grid is interleaved from its x, y and
fill strings and joined once with the rest (``join_rows``, which also
writes the CSVs).  A ratio of +inf (the onset divergence of the time
QFI) takes the ceiling color; a ratio of 0 the floor color.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN_LEFT = 80
MARGIN_RIGHT = 30
MARGIN_TOP = 50
MARGIN_BOTTOM = 60

LOG_FLOOR = -3.0
LOG_CEIL = 4.0

# hindered side: dark gray to near-white; enhanced side: warm ramp
_NEG_LO = (77, 77, 77)
_NEG_HI = (236, 236, 236)
_POS_LO = (253, 219, 199)
_POS_HI = (103, 0, 31)


def _color_codes(logs: np.ndarray) -> np.ndarray:
    """0xRRGGBB per log10(ratio), clipped to [LOG_FLOOR, LOG_CEIL].

    Each channel is round(lo + (hi - lo) u), rounding half to even, on
    the gray ramp below 0 and the warm ramp from 0 up."""
    v = np.clip(logs, LOG_FLOOR, LOG_CEIL)
    neg = v < 0.0
    u = np.where(neg, 1.0 - v / LOG_FLOOR, v / LOG_CEIL)
    codes = np.zeros(v.shape, dtype=np.int64)
    for neg_lo, neg_hi, pos_lo, pos_hi in zip(_NEG_LO, _NEG_HI, _POS_LO,
                                              _POS_HI):
        lo = np.where(neg, neg_lo, pos_lo)
        channel = np.round(lo + (np.where(neg, neg_hi, pos_hi) - lo) * u)
        codes = (codes << 8) | channel.astype(np.int64)
    return codes


def _color(log_ratio: float) -> str:
    return f"#{int(_color_codes(np.asarray(float(log_ratio)))):06x}"


def _log_ratios(grid: np.ndarray) -> np.ndarray:
    """log10 of each ratio; LOG_FLOOR where the ratio is not positive."""
    logs = np.full(grid.shape, LOG_FLOOR)
    positive = grid > 0.0
    logs[positive] = np.log10(grid[positive])
    return logs


def join_rows(columns, head: str = "", tail: str = "") -> str:
    """``head``, then per row each column's string and a newline, then
    ``tail``, as one ``str.join``; no Python code runs per cell."""
    k, n = len(columns) + 1, len(columns[0])
    out = ["\n"] * (k * n + 2)
    out[0], out[-1] = head, tail
    for i, col in enumerate(columns):
        out[1 + i:-1:k] = col
    return "".join(out)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    if v == 0.0:
        return "0"
    exp = math.log10(abs(v))
    if abs(exp - round(exp)) < 1e-9:
        return f"1e{round(exp)}"
    return f"{v:.3g}"


def render_heatmap_svg(table, title: str = "") -> str:
    """SVG text for a HeatmapTable produced by the scan."""
    xs = np.asarray(table.x_values, dtype=float)
    ys = np.asarray(table.y_values, dtype=float)
    grid = table.ratios
    ny, nx = grid.shape

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    cell_w = plot_w / nx
    cell_h = plot_h / ny

    def cx(i: int) -> float:
        return MARGIN_LEFT + i * cell_w

    def cy(j: int) -> float:
        # y grows upward on the plot
        return MARGIN_TOP + plot_h - (j + 1) * cell_h

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    if title:
        head.append(
            f'<text x="{WIDTH / 2:.0f}" y="28" font-family="monospace" '
            f'font-size="16" text-anchor="middle">{title}</text>')

    codes = _color_codes(_log_ratios(grid))
    distinct, which = np.unique(codes, return_inverse=True)
    fills = np.array([f'#{code:06x}"/>' for code in distinct.tolist()],
                     dtype=object)

    x_left = [_fmt(cx(i)) for i in range(nx)]
    x_right = [_fmt(cx(i) + cell_w) for i in range(nx)]
    y_top = [_fmt(cy(j)) for j in range(ny)]
    y_bottom = [_fmt(cy(j) + cell_h) for j in range(ny)]

    size = (f'" width="{_fmt(cell_w + 0.5)}" '
            f'height="{_fmt(cell_h + 0.5)}" fill="')
    cell_y = np.array([y + size for y in y_top], dtype=object)
    cells = [[f'<rect x="{x}" y="' for x in x_left] * ny,
             np.repeat(cell_y, nx).tolist(), fills[which.ravel()].tolist()]

    # ratio = 1 boundary: draw shared edges of adjacent cells on opposite
    # sides of ratio 1, vertical edges row-major, then horizontal ones
    enhanced = grid >= 1.0
    js, is_ = np.nonzero(enhanced[:, 1:] != enhanced[:, :-1])
    segs = [(x_left[i + 1], y_top[j], x_left[i + 1], y_bottom[j])
            for j, i in zip(js.tolist(), is_.tolist())]
    js, is_ = np.nonzero(enhanced[1:] != enhanced[:-1])
    segs += [(x_left[i], y_top[j], x_right[i], y_top[j])
             for j, i in zip(js.tolist(), is_.tolist())]
    tail = [
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
        f'y2="{y2}" stroke="#000000" stroke-width="1.2"/>'
        for x1, y1, x2, y2 in segs]
    tail.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#000000"/>')

    for i in _tick_indices(nx):
        x = cx(i) + cell_w / 2
        tail.append(
            f'<line x1="{_fmt(x)}" y1="{MARGIN_TOP + plot_h}" '
            f'x2="{_fmt(x)}" y2="{MARGIN_TOP + plot_h + 5}" '
            f'stroke="#000000"/>')
        tail.append(
            f'<text x="{_fmt(x)}" y="{MARGIN_TOP + plot_h + 20}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">'
            f'{_tick_label(float(xs[i]))}</text>')
    for j in _tick_indices(ny):
        y = cy(j) + cell_h / 2
        tail.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(y)}" '
            f'x2="{MARGIN_LEFT}" y2="{_fmt(y)}" stroke="#000000"/>')
        tail.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{_fmt(y + 4)}" '
            f'font-family="monospace" font-size="11" text-anchor="end">'
            f'{_tick_label(float(ys[j]))}</text>')

    tail.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.0f}" y="{HEIGHT - 15}" '
        f'font-family="monospace" font-size="13" text-anchor="middle">'
        f'{table.x_name}</text>')
    tail.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.0f}" '
        f'font-family="monospace" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.0f})">'
        f'{table.y_name}</text>')
    tail.append("</svg>")
    return join_rows(cells, head="\n".join(head) + "\n",
                     tail="\n".join(tail) + "\n")


def _tick_indices(n: int, want: int = 6) -> list[int]:
    if n <= want:
        return list(range(n))
    step = max(1, (n - 1) // (want - 1))
    idx = list(range(0, n, step))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return idx

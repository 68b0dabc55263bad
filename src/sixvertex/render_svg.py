"""SVG rendering of path ensembles.

Lines of each color are drawn as unit segments between vertex centers, with
a small per-color perpendicular offset so co-traveling lines of different
colors stay visible side by side.  Boundary entries and top/right exits are
drawn as half-length stubs.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import numpy as np

from .lattice import PathEnsemble

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _group(attrs: str, children: list[str]) -> str:
    """A <g> element as ElementTree writes it: self-closed when empty."""
    return f"<g {attrs}>{''.join(children)}</g>" if children else f"<g {attrs} />"


def ensemble_svg(e: PathEnsemble, cell: int = 24, margin: int = 16,
                 offset: float = 2.5, comment: str | None = None) -> str:
    """Render an ensemble to an SVG string, assembled in ElementTree's
    serialization form; every attribute value is a number or a fixed string,
    so nothing needs escaping."""
    w_px = 2 * margin + (e.width + 1) * cell
    h_px = 2 * margin + (e.height + 1) * cell

    def X(x: float) -> float:
        return margin + x * cell

    def Y(y: float) -> float:
        return h_px - margin - y * cell

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
           f'viewBox="0 0 {w_px} {h_px}">']
    if comment is not None:
        out.append(f"<!--{comment.replace('--', '- -')}-->")
    out.append(f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="white" />')
    # vertex dots
    cys = [_fmt(Y(y)) for y in range(1, e.height + 1)]
    cxs = [_fmt(X(x)) for x in range(1, e.width + 1)]
    out.append(_group('fill="#cccccc"', [f'<circle cx="{cx}" cy="{cy}" r="1.5" />'
                                         for cx in cxs for cy in cys]))
    for c in range(1, e.n_colors + 1):
        color = PALETTE[(c - 1) % len(PALETTE)]
        d = (c - (e.n_colors + 1) / 2.0) * offset
        lines = []

        def seg(x0, y0, x1, y1):
            lines.append(f'<line x1="{_fmt(X(x0))}" y1="{_fmt(Y(y0))}" '
                         f'x2="{_fmt(X(x1))}" y2="{_fmt(Y(y1))}" />')

        bit = c - 1
        dx = d / cell  # offsets in lattice units
        vbits = (e.v_edges >> bit) & 1
        hbits = (e.h_edges >> bit) & 1
        xs, ys = np.nonzero(vbits | hbits)  # x-major, then y
        for x, y, vb, hb in zip((xs + 1).tolist(), (ys + 1).tolist(),
                                vbits[xs, ys].tolist(), hbits[xs, ys].tolist()):
            if vb:
                top = y + 1 if y < e.height else y + 0.5
                seg(x + dx, y, x + dx, top)
            if hb:
                right = x + 1 if x < e.width else x + 0.5
                seg(x, y + dx, right, y + dx)
        for y in (np.flatnonzero((e.boundary_left >> bit) & 1) + 1).tolist():
            seg(0.5, y + dx, 1, y + dx)
        for x in (np.flatnonzero((e.boundary_bottom >> bit) & 1) + 1).tolist():
            seg(x + dx, 0.5, x + dx, 1)
        out.append(_group(f'stroke="{color}" stroke-width="2" stroke-linecap="round"', lines))
    out.append("</svg>")
    return "".join(out)


def write_svg(e: PathEnsemble, path, **kwargs) -> None:
    with open(path, "w") as f:
        f.write(ensemble_svg(e, **kwargs))

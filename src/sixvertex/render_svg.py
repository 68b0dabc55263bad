"""SVG rendering of path ensembles.

Lines of each color are drawn as unit segments between vertex centers, with
a small per-color perpendicular offset so co-traveling lines of different
colors stay visible side by side.  Boundary entries and top/right exits are
drawn as half-length stubs.  Each coordinate is formatted once per color
into a lookup table, and the vertex dots are joined one column at a time.
Output is deterministic byte for byte.
"""

from __future__ import annotations

import numpy as np

from .lattice import PathEnsemble

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)


#: Pixels per lattice unit, around the lattice, and between consecutive colors' lines.
CELL, MARGIN, OFFSET = 24, 16, 2.5


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _group(attrs: str, children: list[str]) -> str:
    """A <g> element as ElementTree writes it: self-closed when empty."""
    return f"<g {attrs}>{''.join(children)}</g>" if children else f"<g {attrs} />"


def ensemble_svg(e: PathEnsemble, comment: str | None = None) -> str:
    """Render an ensemble to an SVG string, assembled in ElementTree's
    serialization form; every attribute value is a number or a fixed string,
    so nothing needs escaping.  Lines are built from table lookups."""
    w_px = 2 * MARGIN + (e.width + 1) * CELL
    h_px = 2 * MARGIN + (e.height + 1) * CELL

    def X(x: float) -> float:
        return MARGIN + x * CELL

    def Y(y: float) -> float:
        return h_px - MARGIN - y * CELL

    # xs[i] is column i + 1 and ys[j] row j + 1; the entry past the last is
    # the top or right exit stub
    xs = [_fmt(X(x)) for x in range(1, e.width + 1)] + [_fmt(X(e.width + 0.5))]
    ys = [_fmt(Y(y)) for y in range(1, e.height + 1)] + [_fmt(Y(e.height + 0.5))]
    x_stub, y_stub, x_one, y_one = _fmt(X(0.5)), _fmt(Y(0.5)), _fmt(X(1)), _fmt(Y(1))  # entries
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
           f'viewBox="0 0 {w_px} {h_px}">']
    if comment is not None:  # no "--" inside and no "-" at the end
        while "--" in comment:
            comment = comment.replace("--", "- -")
        out.append(f"<!--{comment}{' ' * comment.endswith('-')}-->")
    out.append(f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="white" />')
    # vertex dots
    out.append(_group('fill="#cccccc"', [
        f'<circle cx="{cx}" cy="' + f'" r="1.5" /><circle cx="{cx}" cy="'.join(ys[:-1])
        + '" r="1.5" />' for cx in xs[:-1]] if e.height else []))
    for c in range(1, e.n_colors + 1):
        color = PALETTE[(c - 1) % len(PALETTE)]
        d = (c - (e.n_colors + 1) / 2.0) * OFFSET
        bit = c - 1
        dx = d / CELL  # offsets in lattice units
        xd = [_fmt(X(x + dx)) for x in range(1, e.width + 1)]
        yd = [_fmt(Y(y + dx)) for y in range(1, e.height + 1)]
        vbits = (e.v_edges >> bit) & 1
        hbits = (e.h_edges >> bit) & 1
        ci, cj = np.nonzero(vbits | hbits)  # x-major, then y
        lines = []
        for i, j, vb, hb in zip(ci.tolist(), cj.tolist(),
                                vbits[ci, cj].tolist(), hbits[ci, cj].tolist()):
            if vb:
                lines.append(f'<line x1="{xd[i]}" y1="{ys[j]}" x2="{xd[i]}" y2="{ys[j + 1]}" />')
            if hb:
                lines.append(f'<line x1="{xs[i]}" y1="{yd[j]}" x2="{xs[i + 1]}" y2="{yd[j]}" />')
        lines += [f'<line x1="{x_stub}" y1="{yd[j]}" x2="{x_one}" y2="{yd[j]}" />'
                  for j in np.flatnonzero((e.boundary_left >> bit) & 1).tolist()]
        lines += [f'<line x1="{xd[i]}" y1="{y_stub}" x2="{xd[i]}" y2="{y_one}" />'
                  for i in np.flatnonzero((e.boundary_bottom >> bit) & 1).tolist()]
        out.append(_group(f'stroke="{color}" stroke-width="2" stroke-linecap="round"', lines))
    out.append("</svg>")
    return "".join(out)


def write_svg(e: PathEnsemble, path, comment: str | None = None) -> None:
    with open(path, "w") as f:
        f.write(ensemble_svg(e, comment))

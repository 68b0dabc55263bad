"""Reference SVG renderer: every coordinate formatted where its line is
drawn, kept as the oracle for the table-driven render_svg.ensemble_svg.
Comments are not part of it; the oracle takes none."""

import numpy as np

from sixvertex.render_svg import PALETTE, _fmt, _group


def ensemble_svg(e, cell=24, margin=16, offset=2.5):
    w_px = 2 * margin + (e.width + 1) * cell
    h_px = 2 * margin + (e.height + 1) * cell

    def X(x):
        return margin + x * cell

    def Y(y):
        return h_px - margin - y * cell

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" '
           f'viewBox="0 0 {w_px} {h_px}">']
    out.append(f'<rect x="0" y="0" width="{w_px}" height="{h_px}" fill="white" />')
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
        dx = d / cell
        vbits = (e.v_edges >> bit) & 1
        hbits = (e.h_edges >> bit) & 1
        xs, ys = np.nonzero(vbits | hbits)
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

"""Reference admissibility check: the per-vertex loop, kept as the oracle for
the array check lattice.admissibility_violations.  Each key's weight is the
product of the one-color weights of its fold projections, written out."""

from sixvertex.lmatrix import fold_projection, l1_weight
from sixvertex.weights import star_product


def key_is_zero(i, j, k, l, n):
    return star_product(
        l1_weight(fold_projection(i, r), fold_projection(j, r),
                  fold_projection(k, r), fold_projection(l, r))
        for r in range(1, n + 1)).zero


def admissibility_violations(e, scheme=None):
    bad = []
    flip = (1 << e.n_colors) - 1 if e.variant == "s6v" else 0
    for y in range(1, e.height + 1):
        for x in range(1, e.width + 1):
            i, j = e.inputs_at(x, y)
            k, l = e.outputs_at(x, y)
            if scheme is None:
                n, shift = e.n_colors, 0
            else:
                n = min(scheme.block(x, y), e.n_colors)
                shift = e.n_colors - n
                if (i | j | k | l) & ((1 << shift) - 1):
                    bad.append(f"vertex ({x},{y}): later-shell color present")
                    continue
            if key_is_zero(i >> shift, (j >> shift) ^ flip, k >> shift, (l >> shift) ^ flip, n):
                bad.append(f"vertex ({x},{y}): key ({i},{j};{k},{l}) unsupported")
    return bad

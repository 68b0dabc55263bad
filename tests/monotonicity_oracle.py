"""Reference boundary-monotonicity trials: one two-colored sample, its mod-2
fold and both height functions per trial, kept as the oracle for the
lane-packed sweep of lattice._monotonicity_trials."""

import numpy as np

from sixvertex.lattice import (
    height_H,
    mod2_project,
    sample_two_colored_with_boundary,
    select_color,
)


def monotonicity_trials(trials, max_size, field, seed):
    """Yield (w, h, H1, H2, first row whose line parity breaks, or 0) per
    trial, drawing the geometry from the same generator in the same order."""
    geom = np.random.default_rng(seed)
    for t in range(trials):
        w = int(geom.integers(1, max_size + 1))
        h = int(geom.integers(1, max_size + 1))
        left = (geom.random(h) < 0.5).astype(np.uint8) * 2
        bottom = (geom.random(w) < 0.5).astype(np.uint8) * 2
        e = sample_two_colored_with_boundary(w, h, field, left, bottom, seed, replica=t)
        folded = mod2_project(e)
        h1 = int(height_H(select_color(e, 1))[w, h])
        h2 = int(height_H(folded)[w, h])
        north = folded.v_edges.sum(axis=0)
        south = np.concatenate(([folded.boundary_bottom.sum()], north[:-1]))
        odd = (south + north + folded.boundary_left + folded.h_edges[-1]) & 1
        yield w, h, h1, h2, int(np.flatnonzero(odd)[0] + 1) if odd.any() else 0

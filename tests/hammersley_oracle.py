"""Reference exact Hammersley law: the longest-chain height of every point
subset, one hammersley_height call per subset and p, kept as the oracle for
the array sweep of degenerations._subset_heights."""

import itertools

import numpy as np

from sixvertex.degenerations import PointSet, hammersley_height


def hammersley_distribution(width, height, p):
    """Exact law of the corner height for Bernoulli(p) points, summed over
    the subsets in itertools.product order."""
    cells = width * height
    dist = {}
    for bits in itertools.product((0, 1), repeat=cells):
        grid = np.array(bits, dtype=bool).reshape(width, height)
        ones = sum(bits)
        prob = (p ** ones) * ((1.0 - p) ** (cells - ones))
        h = int(hammersley_height(PointSet(width, height, grid))[width, height])
        dist[h] = dist.get(h, 0.0) + prob
    return dist

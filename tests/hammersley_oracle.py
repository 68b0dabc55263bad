"""Reference exact Hammersley laws from the longest-chain height of every point
subset, one hammersley_height call per subset: in floats, summed in subset
order, and in exact rational arithmetic.  Both are oracles for the chain-step
transfer of degenerations.enumerate_hammersley_distribution."""

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

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


@lru_cache(maxsize=None)
def _subset_counts(width, height):
    """Number of point subsets with each (corner height, point count)."""
    counts = Counter()
    for bits in itertools.product((0, 1), repeat=width * height):
        grid = np.array(bits, dtype=bool).reshape(width, height)
        counts[int(hammersley_height(PointSet(width, height, grid))[width, height]), sum(bits)] += 1
    return counts


def hammersley_fraction_distribution(width, height, p):
    """The same law as Fractions, exact at the rational p (a float p is read
    as the exact binary value it holds); keys in increasing order."""
    p, cells = Fraction(p), width * height
    dist = {}
    for (h, ones), n in sorted(_subset_counts(width, height).items()):
        dist[h] = dist.get(h, 0) + n * p ** ones * (1 - p) ** (cells - ones)
    return dist

"""Exact one-cube forms that the tests check the library against.

The library reads cube geometry from the integer plans of dyadlab.scan
and scores whole levels at once.  These are the direct forms, one box,
point or cube at a time, in exact rationals where the geometry is
concerned: box predicates, the owner of a point, the shifted grids over
a window, the owner of each cell, cell centres, and a region's integral
and average and a cube's joint two-weight constant through
SampledFunction.integrate_box.
"""
import math
from fractions import Fraction

import numpy as np

from dyadlab.grid import Box, DyadicCube, GridFamily, _as_fraction, all_shifts, pow2, realize


def upper(box: Box) -> tuple:
    return tuple(a + box.side for a in box.lower)


def contains_point(box: Box, pt) -> bool:
    pt = tuple(_as_fraction(x) for x in pt)
    return all(a <= x < a + box.side for a, x in zip(box.lower, pt))


def intersects(a: Box, b: Box) -> bool:
    return all(max(x, y) < min(x + a.side, y + b.side) for x, y in zip(a.lower, b.lower))


def intersection_volume(a: Box, b: Box) -> Fraction:
    v = Fraction(1)
    for x, y in zip(a.lower, b.lower):
        lo, hi = max(x, y), min(x + a.side, y + b.side)
        if hi <= lo:
            return Fraction(0)
        v *= hi - lo
    return v


def owner_index(grid: GridFamily, level: int, pt) -> tuple:
    """Index of the unique cube of the grid at level containing the point."""
    e = -1 if level % 2 else 1
    scale = pow2(level)
    return tuple(math.floor(scale * _as_fraction(x) - Fraction(e * t, 3)) for x, t in zip(pt, grid.shift))


def shifted_grids(dim: int, window: Box, min_level: int, max_level: int) -> list:
    """One GridFamily per shift in {0,1/3}^dim over a common window."""
    return [GridFamily(dim, s, min_level, max_level, window) for s in all_shifts(dim)]


def owners(scan) -> tuple:
    """Per axis, the 0-based position of the cube of a LevelScan that owns
    each cell, read off its clipped cell edges."""
    return tuple(np.repeat(np.arange(len(e) - 1), np.diff(e)) for e in scan.edges)


def cell_centers(f, axis: int = 0) -> np.ndarray:
    return float(f.lower[axis]) + float(f.h) * (np.arange(f.ncells) + 0.5)


def integral(f, region) -> float:
    """Integral of f over a box or cube (zero extension outside the
    window); MeshError unless region∩window lies on the cell grid."""
    return f.integrate_box(realize(region) if isinstance(region, DyadicCube) else region)


def average(f, region) -> float:
    """Mean of f over the full volume of a box or cube, so a region that
    the window covers only in part is diluted."""
    box = realize(region) if isinstance(region, DyadicCube) else region
    return integral(f, box) / float(box.volume())


def apq_alpha(pair, e, cube: DyadicCube) -> float:
    """The joint constant of one cube,

        |Q|^{alpha/n + 1/q - 1/p} (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'},

    with the exponents in the float order of constants._apq_exponents, so
    that the dual call multiplies the same two floats."""
    au, asig = float(1 / e.q), float(1 / e.pprime)
    ex = float(e.alpha / e.n + 1 / e.q - 1 / e.p)
    box = realize(cube)
    return float(box.volume()) ** ex * ((average(pair.u, box) ** au) * (average(pair.sigma, box) ** asig))

"""Internal vectorized per-level cube scans over a sampled mesh.

For a sampled function with N = 3*2^L cells per axis on a window of side 2^s,
every cube of level k <= L - s in any of the shifted grids has its boundary
on cell edges.  Along one axis those edges form an arithmetic progression:
cube m_lo + j spans raw cells [raw0 + j*step, raw0 + (j+1)*step) with
step = 3*2^(L-s-k), and the window clips the first and last cube.  A
LevelScan holds these clipped edges for one (grid, level).  The integers
that fix them are memoised per mesh geometry, so repeated scans skip the
rational index arithmetic; the edge arrays are rebuilt on every call and
handed out read-only.

Cube sums reduce to prefix-sum differences at the edges (block_sums), and so
do the sums over the intersections of the cubes of two scans, whose edges
merge_edges() unites per axis.  walk() is the one pass over a grid's cube
tree: coarse to fine, it yields each level's scan with the per-axis maps
from its cubes to their parents (None at the coarsest level).  Top-down
recursions such as sweep() and the stopping-time construction read the
parent values through at_parents(); bottom-up sums walk the same pairs in
reverse.  inside_scans() fixes the order in which per-cube constants and
test families visit the cubes inside the window across several grids.  A
per-cube array reaches the cells by repeating each cube's value over its
width, and sweep() spreads only the finest level.  All index arithmetic is
exact int64.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import DyadicCube, GridError, GridFamily, pow2
from .sampled import MeshError, SampledFunction, _log2_exact, block_sums


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LevelScan:
    """Cell-index geometry of one grid level over a sampled mesh."""

    grid: GridFamily
    level: int
    m_lo: Tuple[int, ...]
    shape: Tuple[int, ...]
    edges: Tuple[np.ndarray, ...]    # per axis, len count+1, clipped to [0, N]
    raw_edges: Tuple[np.ndarray, ...]  # unclipped, for inside-window tests

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def owners(self) -> Tuple[np.ndarray, ...]:
        """Per axis, the 0-based position of the cube owning each cell."""
        return tuple(_frozen(np.repeat(np.arange(len(E) - 1), np.diff(E))) for E in self.edges)

    def cube_at(self, pos: Tuple[int, ...]) -> DyadicCube:
        idx = tuple(self.m_lo[ax] + int(pos[ax]) for ax in range(self.dim))
        return DyadicCube(self.dim, self.level, idx, self.grid.shift)

    def cube_volume(self) -> float:
        return float(pow2(-self.level) ** self.dim)


def check_alignment(f: SampledFunction, grid: GridFamily):
    if grid.dim != f.dim:
        raise MeshError("grid dimension does not match the sampled function")
    if (grid.window.lower, grid.window.side) != (f.lower, f.side):  # f.window builds a Box
        raise MeshError("grid window does not match the sampled function window")
    limit = f.max_aligned_level
    if grid.max_level > limit:
        raise MeshError(f"grid max_level {grid.max_level} exceeds the mesh alignment limit {limit}")


@lru_cache(maxsize=1 << 14)
def _axis_plans(grid: GridFamily, level: int, lower, side: Fraction, n_cells: int):
    """Per axis (m_lo, count, raw0, step): cube m_lo + j has unclipped cell
    edges raw0 + j*step and raw0 + (j+1)*step.  Holds integers only."""
    L = _log2_exact(Fraction(n_cells, 3))
    s = _log2_exact(side)
    shift_in_levels = L - s - level
    if not (0 <= shift_in_levels <= 40):
        raise MeshError("level too far from mesh resolution for int64 scans")
    D = 1 << shift_in_levels
    e = 1 if level % 2 == 0 else -1
    plans = []
    for ax in range(len(lower)):
        a = int(lower[ax])
        if abs(a) > 1 << 20:
            raise MeshError("window corner too large for int64 scans")
        lo, hi = grid.axis_index_range(level, ax)
        count = hi - lo + 1
        raw0 = (3 * lo + e * grid.shift[ax]) * D - 3 * a * (1 << (L - s))
        step = 3 * D
        last = raw0 + step * count
        # clipped edges start at 0 and end at N ...
        if count < 1 or raw0 > 0 or last < n_cells:
            raise MeshError("enumerated cubes do not cover the window")
        # ... and rise strictly: no cube lies wholly outside the window
        if raw0 + step <= 0 or last - step >= n_cells:
            raise MeshError("degenerate cube range in scan")
        plans.append((lo, count, raw0, step))
    return tuple(plans)


def level_scan(f: SampledFunction, grid: GridFamily, level: int) -> LevelScan:
    check_alignment(f, grid)
    if level not in grid.levels:
        raise GridError(f"level {level} outside grid range")
    plans = _axis_plans(grid, level, f.lower, f.side, f.ncells)
    edges, raw_edges = [], []
    for _, count, raw0, step in plans:
        raw = raw0 + step * np.arange(count + 1, dtype=np.int64)
        # the plan puts every inner edge in (0, N): clipping to [0, N]
        # moves only the two outer ones
        clipped = raw.copy()
        clipped[0], clipped[-1] = 0, f.ncells
        edges.append(_frozen(clipped))
        raw_edges.append(_frozen(raw))
    return LevelScan(grid, level, m_lo=tuple(p[0] for p in plans), shape=tuple(p[1] for p in plans),
                     edges=tuple(edges), raw_edges=tuple(raw_edges))


def cube_cell_sums(scan: LevelScan, prefix: np.ndarray) -> np.ndarray:
    """Raw sums of cell values over each cube's window part.

    `prefix` is a table from prefix_sum (or SampledFunction.prefix).  The
    result has scan.shape; multiply by the cell volume for integrals.
    """
    return block_sums(prefix, scan.edges)


def cube_integrals(scan: LevelScan, f: SampledFunction) -> np.ndarray:
    """Integral of f over each enumerated cube (zero extension outside)."""
    return cube_cell_sums(scan, f.prefix) * float(f.cell_volume)


def positive_cubes(scan: LevelScan, inside: np.ndarray, dens: SampledFunction):
    """(masses, live) over a scan: masses = cube_integrals(scan, dens), and
    live marks the inside cubes where dens has a positive cell and a
    positive integral.  This is the one density-mass gate of the per-cube
    scans; the exact zero-cell count keeps out cubes of zero cells whose
    prefix-sum difference is roundoff."""
    masses = cube_integrals(scan, dens)
    live = inside & (masses > 0.0)
    if dens.zero_prefix is not None:
        cells = round(scan.cube_volume() / float(dens.cell_volume))
        live &= cube_cell_sums(scan, dens.zero_prefix) < cells
    return masses, live


def inside_window_mask(scan: LevelScan) -> np.ndarray:
    """Boolean array over cubes: True when the cube lies fully inside the
    window (no zero-extension region intersects it)."""
    n_cells = scan.edges[0][-1]
    per_axis = [(raw[:-1] >= 0) & (raw[1:] <= n_cells) for raw in scan.raw_edges]
    return per_axis[0] if scan.dim == 1 else np.logical_and.outer(*per_axis)


def spread(per_block: np.ndarray, edges: Tuple[np.ndarray, ...]) -> np.ndarray:
    """Spread a per-block array onto the cell mesh: along each axis, every
    block's value is repeated over the cells between its two edges."""
    out = per_block
    for ax, E in enumerate(edges):
        out = np.repeat(out, E[1:] - E[:-1], axis=ax)
    return out


def map_to_cells(scan: LevelScan, per_cube: np.ndarray) -> np.ndarray:
    """Spread a per-cube array over the cells of each cube's window part."""
    return spread(per_cube, scan.edges)


def merge_edges(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted union of two cell-edge arrays, by sort and dedupe.  The
    blocks between merged edges are the intersections of a block of a
    with a block of b."""
    m = np.concatenate((a, b))
    m.sort()
    keep = np.empty(len(m), dtype=bool)
    keep[0] = True
    np.not_equal(m[1:], m[:-1], out=keep[1:])
    return m[keep]


def parent_positions(scan: LevelScan, parent_scan: LevelScan) -> Tuple[np.ndarray, ...]:
    """Per-axis map from cube position at scan.level to the position of its
    parent cube at scan.level - 1."""
    if parent_scan.grid.shift != scan.grid.shift or parent_scan.level != scan.level - 1:
        raise GridError("parent scan must be one level coarser, same grid")
    e = 1 if scan.level % 2 == 0 else -1
    out = []
    for ax in range(scan.dim):
        tau = scan.grid.shift[ax]
        m = scan.m_lo[ax] + np.arange(scan.shape[ax], dtype=np.int64)
        parent_idx = np.floor_divide(m + e * tau, 2)
        pos = parent_idx - parent_scan.m_lo[ax]
        # pos never decreases, so its ends bound it
        if pos[0] < 0 or pos[-1] >= parent_scan.shape[ax]:
            raise GridError("parent cube not enumerated at coarser level")
        out.append(pos)
    return tuple(out)


def at_parents(arr, pmaps: Optional[Tuple[np.ndarray, ...]], shape: Tuple[int, ...]) -> np.ndarray:
    """Values of a coarser-level per-cube array at each cube's parent, with
    pmaps from walk(); above the coarsest level (pmaps None) arr is a scalar
    that fills the given shape."""
    if pmaps is None:
        return np.full(shape, arr)
    return arr[pmaps[0]] if len(pmaps) == 1 else arr[np.ix_(*pmaps)]


def walk(f: SampledFunction, grid: GridFamily):
    """Yield (scan, parent maps) per level, coarse to fine; the maps are
    None at the coarsest level."""
    prev = None
    for scan in iter_scans(f, grid):
        yield scan, None if prev is None else parent_positions(scan, prev)
        prev = scan


def sweep(f: SampledFunction, grid: GridFamily, level_values: Callable[[LevelScan], np.ndarray],
          combine: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """One top-down pass over the cube tree of a grid.

    Coarse to fine, acc = combine(acc at the parent, level_values(scan)),
    starting from zeros above the coarsest level; the finest acc is then
    spread onto the cells.  With combine np.maximum or np.add each cell
    gets, bit for bit, what combining every level's spread values into a
    zero array in level order gives.
    """
    acc = 0.0
    for scan, pmaps in walk(f, grid):
        acc = combine(at_parents(acc, pmaps, scan.shape), level_values(scan))
    return map_to_cells(scan, acc)


def cell_block(scan: LevelScan, values: np.ndarray, pos: Tuple[int, ...]) -> np.ndarray:
    """View of the cell values covered by one cube's window part."""
    return values[tuple(slice(int(E[i]), int(E[i + 1])) for E, i in zip(scan.edges, pos))]


def iter_scans(f: SampledFunction, grid: GridFamily):
    for level in grid.levels:
        yield level_scan(f, grid, level)


def inside_scans(f: SampledFunction, grids):
    """Yield (scan, inside mask) for every scan with a cube fully inside
    the window, over grids sharing one level range.

    This is the one cube order of every per-cube scan: levels ascend,
    within a level the grids come as listed (the zero shift first for
    all_shifts), and within a scan cubes run in row-major position order.
    """
    for scans in zip(*(iter_scans(f, g) for g in grids)):
        for scan in scans:
            inside = inside_window_mask(scan)
            if inside.any():
                yield scan, inside

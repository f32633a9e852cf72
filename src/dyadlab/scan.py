"""Internal vectorized per-level cube scans over a sampled mesh.

For a sampled function with N = 3*2^L cells per axis on a window of side 2^s,
every cube of level k <= L - s in any of the shifted grids has its boundary
on cell edges.  Along one axis those edges form an arithmetic progression:
cube m_lo + j spans raw cells [raw0 + j*step, raw0 + (j+1)*step) with
step = 3*2^(L-s-k), and the window clips the first and last cube to 0 and
N.  A LevelScan is one (grid, level) as integers only: per axis this plan
(m_lo, count, raw0, step) and the start of its cubes among the parent
positions repeated twice.  A grid's scans are memoised coarse to fine, with
the alignment checked once, in an lru_cache keyed on plain integers: the
mesh's key from its shared sampled.MeshGeometry record, the shift and the
level range.  A lookup hashes and compares no Fraction, and cache_info()
counts the scans built against those reused.  The memo holds no array:
edge arrays are built on demand and handed out read-only.
Caching them would not pay.  A trial that kept LevelScan.edges in the memo
raised perfbench's mesh_sweep peak_rss_mb from 192.0 to 267.4 MB, since
the benchmark keeps every round's import, and with it every memo, alive.

Cube sums are prefix-sum differences read through strided slices, and a
per-cube array reaches the cells by repeating each value over its cube's
clipped width.  iter_scans() returns a grid's memoised tuple of scans,
coarse to fine, each with its parent start offsets (parent_start, None at
the coarsest level); sweep() and the stopping-time construction read
parent values through at_parents() (repeat twice per axis, slice at the
offset), and bottom-up sums scatter onto parent_positions(), which reads
the same offsets, in reverse.  Sums over the intersections of the cubes
of two scans come from their edge arrays sorted together per axis, with
no dedupe: a repeated edge bounds a block of zero width, which spreads
over no cell, and every other block keeps the edges it has in the sorted
union.  operators.cut_frac_maximal sorts one outer scan's edges against
the edge table of every inner grid of a level at once.  inside_scans()
fixes the order in which per-cube constants and test families visit the
cubes inside the window across several grids.  All index arithmetic is
exact.

The array primitives (sampled.prefix_sum and block_differences,
cube_cell_sums, at_parents, spread and map_to_cells, sweep) take leading
batch axes, with the spatial axes last: a (B, *mesh) array is B functions
on one mesh, and each row of a batched call has the bits of the unbatched
call on that row, since every row goes through the same element-wise
operations.  cube_cells marks the cells of given cubes of several scans
at once from the integer plans.  normest.potential_testing_chain scores
all its cubes in one such batched pass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Optional, Tuple

import numpy as np

from .grid import DyadicCube, GridError, GridFamily
from .sampled import MeshError, SampledFunction, block_differences, mesh_geometry


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _widths(plan, n_cells: int) -> np.ndarray:
    """Cells per cube along one axis, the two end cubes clipped to [0, N]."""
    _, count, raw0, step = plan
    w = np.full(count, step, dtype=np.int64)
    w[0] += raw0
    w[-1] -= raw0 + count * step - n_cells
    return w


@dataclass(frozen=True)
class LevelScan:
    """Cell-index geometry of one grid level over a sampled mesh, as the
    per-axis plans and parent start offsets of the module docstring."""

    grid: GridFamily
    level: int
    ncells: int
    plans: Tuple[Tuple[int, int, int, int], ...]
    parent_start: Optional[Tuple[int, ...]]

    @property
    def dim(self) -> int:
        return self.grid.dim

    @property
    def m_lo(self) -> Tuple[int, ...]:
        return tuple(p[0] for p in self.plans)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(p[1] for p in self.plans)

    @property
    def edges(self) -> Tuple[np.ndarray, ...]:
        """Per axis, the count+1 cell edges raw0 + j*step clipped to [0, N];
        the plan checks put every inner edge in (0, N), so only the two
        outer ones move."""
        return tuple(_frozen(np.clip(raw0 + step * np.arange(count + 1, dtype=np.int64), 0, self.ncells))
                     for _, count, raw0, step in self.plans)

    def cube_at(self, pos: Tuple[int, ...]) -> DyadicCube:
        idx = tuple(plan[0] + int(j) for plan, j in zip(self.plans, pos))
        return DyadicCube(self.dim, self.level, idx, self.grid.shift)

    def cube_volume(self) -> float:
        """|Q| = 2^(-level*dim), exact in a float."""
        return math.ldexp(1.0, -self.level * self.dim)


def _axis_plans(grid: GridFamily, level: int, lower, L: int, s: int, n_cells: int) -> tuple:
    """Per axis (m_lo, count, raw0, step): cube m_lo + j has unclipped cell
    edges raw0 + j*step and raw0 + (j+1)*step."""
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


def _parent_start(level: int, shift, plans, parent_plans) -> Tuple[int, ...]:
    """Per axis, the start such that child j has its parent at position
    (start + j) // 2, as the parent of cube m is floor((m + e*tau)/2)."""
    e = 1 if level % 2 == 0 else -1
    out = []
    for tau, (m_lo, count, _, _), (p_lo, p_count, _, _) in zip(shift, plans, parent_plans):
        start = m_lo + e * tau - 2 * p_lo
        if start < 0 or start + count > 2 * p_count:
            raise GridError("parent cube not enumerated at coarser level")
        out.append(start)
    return tuple(out)


@lru_cache(maxsize=1 << 10)
def _scans(key: Tuple[int, ...], shift: Tuple[int, ...], min_level: int, max_level: int) -> Tuple[LevelScan, ...]:
    """The scans of every level of one grid on the mesh of the given key,
    coarse to fine."""
    geom = mesh_geometry(key)
    if max_level > geom.max_aligned_level:
        raise MeshError(f"grid max_level {max_level} exceeds the mesh alignment limit {geom.max_aligned_level}")
    grid = GridFamily(geom.dim, shift, min_level, max_level, geom.window)
    L, s = geom.level_L, geom.level_L - geom.max_aligned_level
    scans = []
    for level in grid.levels:
        plans = _axis_plans(grid, level, geom.corner, L, s, geom.ncells)
        start = _parent_start(level, grid.shift, plans, scans[-1].plans) if scans else None
        scans.append(LevelScan(grid, level, geom.ncells, plans, start))
    return tuple(scans)


def iter_scans(f: SampledFunction, grid: GridFamily) -> Tuple[LevelScan, ...]:
    """The memoised scans of a grid on the mesh of f, coarse to fine, once
    the grid is checked to lie on that mesh (by identity of the window box
    when the grid was built from the record's window, as operators' grids
    are)."""
    geom = f.geometry
    if grid.dim != geom.dim:
        raise MeshError("grid dimension does not match the sampled function")
    if grid.window is not geom.window and grid.window != geom.window:
        raise MeshError("grid window does not match the sampled function window")
    return _scans(geom.key, grid.shift, grid.min_level, grid.max_level)


def level_scan(f: SampledFunction, grid: GridFamily, level: int) -> LevelScan:
    scans = iter_scans(f, grid)
    if level not in grid.levels:
        raise GridError(f"level {level} outside grid range")
    return scans[level - grid.min_level]


def cube_cell_sums(scan: LevelScan, prefix: np.ndarray) -> np.ndarray:
    """Raw sums of cell values over each cube's window part, from a table
    of prefix_sum (or SampledFunction.prefix) read at the inner edges by a
    strided slice and at the clipped end edges 0 and N apart.  The result
    has the table's leading (batch) axes, then scan.shape; multiply by the
    cell volume for integrals."""
    n, table, lead = scan.ncells, prefix, prefix.ndim - scan.dim
    for ax, (_, count, raw0, step) in enumerate(scan.plans, lead):
        pieces = (slice(0, 1), slice(raw0 + step, raw0 + count * step, step), slice(n, n + 1))
        table = np.concatenate([table[(slice(None),) * ax + (sl,)] for sl in pieces], axis=ax)
    return block_differences(table, scan.dim)


def cube_integrals(scan: LevelScan, f: SampledFunction) -> np.ndarray:
    """Integral of f over each enumerated cube (zero extension outside)."""
    return cube_cell_sums(scan, f.prefix) * f.geometry.cellvol


def zero_cells(scan: LevelScan, f: SampledFunction):
    """The exact count of zero cells of f in each cube's window part (the
    zero-cell table and its differences are integers); the scalar 0 when f
    has no zero cell.  The one reader of f.zero_prefix."""
    return 0 if f.zero_prefix is None else cube_cell_sums(scan, f.zero_prefix)


def positive_cubes(scan: LevelScan, inside: np.ndarray, dens: SampledFunction):
    """(masses, live) over a scan: masses = cube_integrals(scan, dens), and
    live marks the inside cubes where dens has a positive cell and a
    positive integral.  This is the one density-mass gate of the per-cube
    scans; the exact zero-cell count keeps out cubes of zero cells whose
    prefix-sum difference is roundoff."""
    masses = cube_integrals(scan, dens)
    live = inside & (masses > 0.0)
    live &= zero_cells(scan, dens) < round(scan.cube_volume() / dens.geometry.cellvol)
    return masses, live


def inside_window_mask(scan: LevelScan) -> np.ndarray:
    """Boolean array over cubes: True when the cube lies fully inside the
    window (no zero-extension region intersects it), that is, when the
    window does not clip its width."""
    return reduce(np.logical_and.outer, [_widths(plan, scan.ncells) == plan[3] for plan in scan.plans])


def spread(per_block: np.ndarray, widths) -> np.ndarray:
    """Spread a per-block array onto the cell mesh: along each axis, every
    block's value is repeated over its width in cells.  The block axes come
    last; leading axes are a batch."""
    out = per_block
    for ax, w in enumerate(widths, per_block.ndim - len(widths)):
        out = np.repeat(out, w, axis=ax)
    return out


def map_to_cells(scan: LevelScan, per_cube: np.ndarray) -> np.ndarray:
    """Spread a per-cube array over the cells of each cube's window part."""
    return spread(per_cube, [_widths(plan, scan.ncells) for plan in scan.plans])


def parent_positions(scan: LevelScan) -> Tuple[np.ndarray, ...]:
    """Per-axis map from cube position at scan.level to the position of its
    parent cube at scan.level - 1, read off scan.parent_start."""
    if scan.parent_start is None:
        raise GridError("the coarsest scan of a grid has no parent scan")
    return tuple((start + np.arange(count, dtype=np.int64)) // 2 for start, count in zip(scan.parent_start, scan.shape))


def at_parents(arr, starts: Optional[Tuple[int, ...]], shape: Tuple[int, ...]) -> np.ndarray:
    """Values of a coarser-level per-cube array at each cube's parent, with
    the parent start offsets of a scan (its parent_start); above the
    coarsest level (starts None) arr is a scalar that fills the given shape.  The cube axes come
    last; leading axes of arr are a batch."""
    if starts is None:
        return np.full(shape, arr)
    for ax, (start, count) in enumerate(zip(starts, shape), np.ndim(arr) - len(shape)):
        arr = np.repeat(arr, 2, axis=ax)[(slice(None),) * ax + (slice(start, start + count),)]
    return arr


def sweep(f: SampledFunction, grid: GridFamily, level_values: Callable[[LevelScan], np.ndarray],
          combine: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """One top-down pass over the cube tree of a grid.

    Coarse to fine, acc = combine(acc at the parent, level_values(scan)),
    starting from zeros above the coarsest level; the finest acc is then
    spread onto the cells.  With combine np.maximum or np.add each cell
    gets, bit for bit, what combining every level's spread values into a
    zero array in level order gives.  level_values may return leading
    batch axes before scan.shape: the result then has them before the
    mesh axes, and each row is what the sweep of that row alone gives.
    """
    acc = 0.0
    for scan in iter_scans(f, grid):
        acc = combine(at_parents(acc, scan.parent_start, scan.shape), level_values(scan))
    return map_to_cells(scan, acc)


def cube_cells(scans, lev: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """(B, *mesh) booleans: row b marks the cells of the window part of the
    cube at position pos[b] (a (B, dim) array) of scans[lev[b]].  The cell
    ranges come from the scans' integer plans, as in cell_block."""
    ncells, dim = scans[0].ncells, scans[0].dim
    cells = np.arange(ncells)
    out = np.ones((len(lev),) + (ncells,) * dim, dtype=bool)
    for ax in range(dim):
        raw0, step = np.array([scan.plans[ax][2:] for scan in scans])[lev].T
        start = (raw0 + step * pos[:, ax])[:, None]
        hit = (cells >= start) & (cells < start + step[:, None])
        out &= hit.reshape((len(lev),) + tuple(ncells if k == ax else 1 for k in range(dim)))
    return out


def cell_block(scan: LevelScan, values: np.ndarray, pos: Tuple[int, ...]) -> np.ndarray:
    """View of the cell values covered by one cube's window part."""
    # a slice stops at the end of its axis by itself: only the start is clipped
    return values[tuple(slice(max(raw0 + int(j) * step, 0), raw0 + (int(j) + 1) * step)
                        for (_, _, raw0, step), j in zip(scan.plans, pos))]


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

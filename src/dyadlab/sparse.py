"""Stopping-time sparse families and Carleson sequences on dyadic grids.

The construction runs top-down on one grid.  Every coarsest-level cube with
positive mass is a root; below a stopping cube Q, the next stopping cubes
are the maximal descendants Q' with u(Q') > a * u(Q), where

    u(Q) = |Q|^{alpha/n} * (average of f over Q)

is the fractional-average functional.  Two facts make the family useful and
are certified numerically:

  * thickness: the direct children of Q occupy at most |Q| / a^{n/(n-alpha)},
    so the part of Q not covered by deeper stopping cubes has volume at
    least (1 - a^{-n/(n-alpha)}) |Q|;
  * domination: for any cube P in the scanned range, the deepest stopping
    cube Q containing P satisfies u(P) <= a * u(Q), hence the fractional
    maximal function is bounded by a times the sparse sum at every cell.

A family is one array record with one row per stopping cube: its level,
its position in that level's scan, u and its parent's id (-1 at roots),
beside owner, the id of each cell's deepest stopping cube.  Ids number
parents first, level by level, so each level's rows are one contiguous
block.  The E-measures, thickness and the StoppingCube view (cubes, built
on first read) all come from these arrays.

The sparse operator reads |Q|^{alpha/n} times the average of g over each
stopping cube Q off the scan of Q's level, as the construction reads u,
with no rational box per cube.  Its chi form sums these values down the
chain of stopping parents, its disjoint form keeps the deepest cube's
value alone, and every cell takes the value of the cube that owns it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .grid import DyadicCube, GridFamily, cube_to_obj
from .sampled import SampledFunction
from .scan import at_parents, cube_integrals, iter_scans, map_to_cells, parent_positions
from .operators import _frac_averages, _grid, _order


class SparseError(ValueError):
    pass


@dataclass(frozen=True)
class StoppingCube:
    cube: DyadicCube
    u_value: float
    parent: int          # index of the deepest stopping strict ancestor, -1 at roots
    generation: int
    e_volume_full: float  # |Q| minus direct children volumes (full measure)
    e_cells: int          # cells owned by Q and no deeper stopping cube


class SparseFamily:
    """Stopping cubes of one grid together with ownership geometry, as the
    record of the module docstring: row i of level, pos, u and parent is
    stopping cube i, and owner holds each cell's deepest stopping cube."""

    def __init__(self, source: SampledFunction, grid: GridFamily, alpha: float, ratio: float,
                 level: np.ndarray, pos: np.ndarray, u: np.ndarray, parent: np.ndarray, owner: np.ndarray):
        self.source = source
        self.grid = grid
        self.alpha = float(alpha)
        self.ratio = float(ratio)
        self.level, self.pos, self.u, self.parent, self.owner = level, pos, u, parent, owner

    def __len__(self) -> int:
        return len(self.level)

    @property
    def guaranteed_thickness(self) -> float:
        """1 - a^{-n/(n-alpha)}, the thickness that the module docstring proves."""
        n = self.source.dim
        return 1.0 - self.ratio ** (-n / (n - self.alpha))

    def _volumes(self) -> Tuple[np.ndarray, np.ndarray]:
        """|Q| = 2^(-level*n) of each stopping cube, and |E_Q| = |Q| minus
        its direct children's volumes (full measure), subtracted in id order."""
        vol = np.ldexp(1.0, -self.level * self.source.dim)
        e_full = vol.copy()
        kids = self.parent >= 0
        np.subtract.at(e_full, self.parent[kids], vol[kids])
        return vol, e_full

    def thickness(self) -> float:
        """Worst realized |E_Q| / |Q| over the family (full measure)."""
        vol, e_full = self._volumes()
        return float(np.min(e_full / vol, initial=1.0))

    @cached_property
    def cubes(self) -> List[StoppingCube]:
        """The stopping cubes as records in id order, built on first read."""
        scans = iter_scans(self.source, self.grid)
        e_full = self._volumes()[1].tolist()
        e_cells = np.bincount(self.owner.ravel() + 1, minlength=len(self) + 1)[1:].tolist()
        out: List[StoppingCube] = []
        rows = zip(self.level.tolist(), self.pos.tolist(), self.u.tolist(), self.parent.tolist())
        for i, (level, pos, u, pid) in enumerate(rows):
            out.append(StoppingCube(scans[level - self.grid.min_level].cube_at(pos), u, pid,
                                    0 if pid < 0 else out[pid].generation + 1, e_full[i], e_cells[i]))
        return out

    def to_obj(self) -> dict:
        flat = self.owner.ravel()
        starts = np.flatnonzero(np.diff(flat, prepend=flat[:1] - 1))
        lengths = np.diff(starts, append=flat.size)
        return {
            "alpha": self.alpha,
            "ratio": self.ratio,
            "cubes": [{"cube": cube_to_obj(sc.cube), "u": sc.u_value, "parent": sc.parent,
                       "generation": sc.generation, "e_volume_full": sc.e_volume_full, "e_cells": sc.e_cells}
                      for sc in self.cubes],
            "owner_rle": [[int(v), int(k)] for v, k in zip(flat[starts], lengths)],
        }


def build_sparse(f: SampledFunction, alpha=0, ratio: float = None, shift: Optional[Tuple[int, ...]] = None,
                 min_level: Optional[int] = None, max_level: Optional[int] = None) -> SparseFamily:
    """Stopping-time sparse family for the fractional-average functional."""
    n = f.dim
    a = _order(alpha, n, SparseError)
    r = float(2 ** (n + 1)) if ratio is None else float(ratio)
    if not 1.0 < r < math.inf:
        raise SparseError("threshold ratio must be finite and exceed 1")
    grid = _grid(f, shift, min_level, max_level)
    frac_averages = _frac_averages(f, a)

    # one block of rows per level: (level, pos, u, parent)
    blocks = []
    # above the coarsest level nothing has stopped, so roots are u > 0
    deep_u, deep_id = 0.0, np.int64(-1)
    next_id = 0
    for scan in iter_scans(f, grid):
        u = frac_averages(scan)
        inherited_u = at_parents(deep_u, scan.parent_start, u.shape)
        inherited_id = at_parents(deep_id, scan.parent_start, u.shape)
        is_stop = u > r * inherited_u
        count = int(np.count_nonzero(is_stop))
        ids_here = np.full(u.shape, -1, dtype=np.int64)
        ids_here[is_stop] = np.arange(next_id, next_id + count, dtype=np.int64)
        blocks.append((np.full(count, scan.level, dtype=np.int64), np.argwhere(is_stop), u[is_stop],
                       inherited_id[is_stop]))
        next_id += count
        deep_u = np.where(is_stop, u, inherited_u)
        deep_id = np.where(is_stop, ids_here, inherited_id)

    owner = map_to_cells(scan, deep_id)
    return SparseFamily(f, grid, a, r, *map(np.concatenate, zip(*blocks)), owner)


def sparse_operator(
    family: SparseFamily,
    g: Optional[SampledFunction] = None,
    form: str = "chi",
) -> SampledFunction:
    """Sparse fractional sum over the family, applied to g (default: the
    function the family was built from).

    form="chi": sum over stopping cubes containing x of |Q|^{alpha/n} avg_Q g;
    form="disjoint": only the deepest stopping cube containing x contributes.

    One pass over the levels of the family, coarse to fine: ids number
    parents first, so each chi value is its stopping parent's plus its
    own.  The chain meets the non-zero terms of a top-down sweep over
    every level in the sweep's order, so it has the sweep's bits.
    """
    f = family.source
    if g is None:
        g = f
    f.require_same_mesh(g)
    if form not in ("chi", "disjoint"):
        raise SparseError(f"unknown form {form!r}")
    frac_averages = _frac_averages(g, family.alpha)
    scans = iter_scans(f, family.grid)
    # the slot past the last id stays 0: the value of owner -1 and of a root's parent
    value = np.zeros(len(family) + 1)
    # each level's ids are one slice, from its first row to the next level's
    levels, starts = np.unique(family.level, return_index=True)
    for level, lo, hi in zip(levels.tolist(), starts.tolist(), [*starts[1:].tolist(), len(family)]):
        u = frac_averages(scans[level - family.grid.min_level])[tuple(family.pos[lo:hi].T)]
        value[lo:hi] = value[family.parent[lo:hi]] + u if form == "chi" else u
    return f._adopt(value[family.owner])


# === Carleson sequences =======================================================

class CarlesonSequence:
    """Nonnegative coefficients c_Q over the cubes of one grid range."""

    def __init__(self, mesh: SampledFunction, grid: GridFamily, values: Dict[int, np.ndarray]):
        self.mesh = mesh
        self.grid = grid
        if set(values) != set(grid.levels):
            raise SparseError(f"coefficient levels {sorted(values)} != grid levels "
                              f"{grid.min_level}..{grid.max_level}")
        vals = {}
        for scan in iter_scans(mesh, grid):
            arr = np.asarray(values[scan.level], dtype=np.float64)
            if arr.shape != scan.shape:
                raise SparseError(f"level {scan.level} coefficient shape {arr.shape} != {scan.shape}")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise SparseError("coefficients must be finite and nonnegative")
            vals[scan.level] = arr
        self.values = vals

    @classmethod
    def from_function(cls, mesh: SampledFunction, grid: GridFamily, fn) -> "CarlesonSequence":
        """fn(scan, level) -> per-cube array."""
        vals = {scan.level: np.asarray(fn(scan, scan.level), dtype=np.float64) for scan in iter_scans(mesh, grid)}
        return cls(mesh, grid, vals)


def subtree_sums(seq: CarlesonSequence) -> Dict[int, np.ndarray]:
    """For every cube, the sum of coefficients over its descendants within
    the level range (itself included), via a bottom-up sweep."""
    totals = {level: arr.copy() for level, arr in seq.values.items()}
    scans = iter_scans(seq.mesh, seq.grid)
    for scan, child in reversed(list(zip(scans, scans[1:]))):
        pos = parent_positions(child)
        np.add.at(totals[scan.level], np.ix_(*pos), totals[child.level])
    return totals


def certify_carleson(seq: CarlesonSequence, mu: SampledFunction) -> dict:
    """Least A with sum_{Q subset Q0} c_Q <= A mu(Q0) over enumerated Q0."""
    seq.mesh.require_same_mesh(mu)
    totals = subtree_sums(seq)
    best = 0.0
    best_cube = None
    infinite = False
    for scan in iter_scans(seq.mesh, seq.grid):
        mu_q = cube_integrals(scan, mu)
        tot = totals[scan.level]
        pos = mu_q > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pos, tot / np.where(pos, mu_q, 1.0), 0.0)
        if np.any(~pos & (tot > 0)):
            infinite = True
        flat = int(np.argmax(ratio))
        if ratio.ravel()[flat] > best:
            best = float(ratio.ravel()[flat])
            best_cube = scan.cube_at(np.unravel_index(flat, scan.shape))
    return {
        "constant": math.inf if infinite else best,
        "argmax_cube": cube_to_obj(best_cube) if best_cube is not None else None,
    }


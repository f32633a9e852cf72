"""Cell-constant functions on aligned meshes, and exponent bookkeeping.

A SampledFunction is a nonnegative step function on a window [a, a+2^s)^n
with N = 3*2^L uniform cells per axis and zero extension outside the window.
The 3*2^L cell count puts every shifted-dyadic cube boundary of level <= L-s
on a cell boundary, so cube integrals and averages reduce to prefix-sum
differences over whole cells.  Those differences round like any sum, and
cancel when a cube's mass is small next to the prefix totals.

The geometry of a mesh (its corner, side, cell count, cell width and
volume, window box, level_L and max_aligned_level) is one immutable
MeshGeometry record, derived once in exact rationals by mesh_geometry and
shared by every function on the mesh: with_values, power, restrict_to
and * hand their source's record on, and the record of a new function
comes from a memo on the mesh's plain-integer key.  The record also holds
the cell volume as a float, so the array paths (operators, scans, norms)
read integers and floats and never touch a Fraction.  The public
attributes keep their types: lower and side are Fractions, window a Box,
dim and ncells ints.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from operator import attrgetter
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from .grid import Box, DyadicCube, _as_fraction, _check_dim, _json_int, obj_field as _obj_field, parse_field, realize


class MeshError(ValueError):
    pass


class MeshMismatchError(MeshError):
    pass


# grid's rational parser, raising MeshError
parse_rational = partial(_as_fraction, error=MeshError)


def is_power_of_two(x) -> bool:
    """The one window-side rule: x, an int or a Fraction, is a positive
    integer power of two."""
    return x.denominator == 1 and x > 0 and not x.numerator & (x.numerator - 1)


def is_cell_count(n: int) -> bool:
    """The one cell-count rule: n = 3*2^L cells per axis, L >= 0."""
    return n % 3 == 0 and is_power_of_two(n // 3)


_UNSET = object()  # marks a lazily computed cache not yet filled


# fewest cells in a slab (the cells of one index of a table axis) for
# which prefix_sum runs that axis slab by slab: below it, the per-slab
# call costs more than the strided walk of one cumsum saves
_SLAB_CELLS = 256


def prefix_sum(arr: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """Cumulative-sum table with a zero border over the last dim axes (all
    of them by default); leading axes are a batch.  Works on signed data.

    The table axes are summed in order, each in place as the running sum
    np.cumsum takes along it, so no full-size temporary is made.  The last
    axis, contiguous, is one cumsum.  An earlier table axis is one cumsum
    too while its slabs are small; once a slab holds _SLAB_CELLS cells or
    more, it is one np.add per index, table slab i being table slab i-1
    plus cell slab i, which reads memory in order where one cumsum would
    stride down every column.  Both add in the same order, so the bits
    are the same."""
    arr = np.asarray(arr, dtype=np.float64)
    lead = 0 if dim is None else arr.ndim - dim
    p = np.zeros(arr.shape[:lead] + tuple(n + 1 for n in arr.shape[lead:]))
    inner = p[(...,) + (slice(1, None),) * (arr.ndim - lead)]
    src = arr
    for ax in range(lead, arr.ndim):
        if ax < arr.ndim - 1 and arr.size >= _SLAB_CELLS * arr.shape[ax]:
            cells, acc = np.moveaxis(src, ax, 0), np.moveaxis(inner, ax, 0)
            acc[:1] = cells[:1]
            for prev, cur, cell in zip(acc, acc[1:], cells[1:]):
                np.add(prev, cell, out=cur)
        else:
            np.cumsum(src, axis=ax, out=inner)
        src = inner
    return p


def block_differences(S: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """Raw block sums from a prefix table read at the block edges: S[i]
    (S[i, j] in 2-D) is the prefix sum at the i-th edge (of each axis).
    The edges run along the last dim axes (all of them by default);
    leading axes are a batch."""
    if (S.ndim if dim is None else dim) == 1:
        return S[..., 1:] - S[..., :-1]
    return S[..., 1:, 1:] - S[..., :-1, 1:] - S[..., 1:, :-1] + S[..., :-1, :-1]


def log_prefix(w: SampledFunction) -> np.ndarray:
    """Prefix table of log w, 0 on zero cells: one log, masked to the
    positive cells, into zeros."""
    v = w.values
    return prefix_sum(np.log(v, out=np.zeros_like(v), where=v > 0))


class MeshGeometry(NamedTuple):
    """The geometry of one mesh, as the module docstring describes.  key is
    (ncells, side) + corner, plain integers: the scan memo is keyed on it
    and same_mesh compares it."""

    dim: int
    corner: Tuple[int, ...]
    side: int
    ncells: int
    h: Fraction
    cell_volume: Fraction
    cellvol: float  # float(cell_volume), for the array paths
    window: Box
    level_L: int
    max_aligned_level: int  # finest dyadic level whose cube boundaries all land on cell edges
    key: Tuple[int, ...]


@lru_cache(maxsize=1 << 10)
def mesh_geometry(key: Tuple[int, ...]) -> MeshGeometry:
    """The record of the mesh with key (ncells, side) + corner: ncells =
    3*2^L cells per axis on the window of integer corner and side 2^s >= 1
    (the caller checks these)."""
    ncells, side, *corner = key
    h = Fraction(side, ncells)
    cell_volume = h ** len(corner)
    L = (ncells // 3).bit_length() - 1
    window = Box(tuple(Fraction(a) for a in corner), Fraction(side))
    return MeshGeometry(len(corner), tuple(corner), side, ncells, h, cell_volume, float(cell_volume),
                        window, L, L - (side.bit_length() - 1), key)


def _cell_values(values, dim: int, copy: bool = True) -> np.ndarray:
    """values as a read-only C-ordered float64 array, checked to be finite,
    nonnegative and square with 3*2^L cells along each of dim axes: a
    copy, or with copy False values itself when it is one already."""
    arr = np.array(values, dtype=np.float64, order="C", copy=True if copy else None)
    if arr.ndim != dim:
        raise MeshError(f"values must be {dim}-dimensional")
    n = arr.shape[0]
    if any(s != n for s in arr.shape):
        raise MeshError("values must be square across axes")
    if not is_cell_count(n):
        raise MeshError(f"cells per axis must be 3*2^L, got {n}")
    # min and max carry a NaN through, and NaN fails both comparisons
    if not (arr.min() >= 0 and arr.max() < math.inf):
        raise MeshError("values must be finite and nonnegative")
    arr.setflags(write=False)
    return arr


class SampledFunction:
    """Nonnegative cell-constant function, zero outside its window."""

    __slots__ = ("geometry", "values", "_prefix", "_zeros")

    def __init__(self, dim: int, lower, side, values):
        _check_dim(dim, "dim", MeshError)
        lower = tuple(parse_rational(x) for x in (lower if isinstance(lower, (tuple, list)) else (lower,)))
        if len(lower) != dim:
            raise MeshError("window corner arity must match dim")
        if any(x.denominator != 1 for x in lower):
            raise MeshError("window corners must be integers")
        side = parse_rational(side)
        if not is_power_of_two(side):
            raise MeshError("window side must be a positive integer power of two")
        arr = _cell_values(values, dim)
        self._fill(mesh_geometry((arr.shape[0], int(side)) + tuple(int(x) for x in lower)), arr)

    def _fill(self, geometry: MeshGeometry, values: np.ndarray) -> "SampledFunction":
        self.geometry = geometry
        self.values = values
        self._prefix = None
        self._zeros = _UNSET
        return self

    # --- construction -------------------------------------------------------

    @classmethod
    def constant(cls, c: float, dim: int, lower, side, ncells: int) -> "SampledFunction":
        shape = (ncells,) * dim
        return cls(dim, lower, side, np.full(shape, float(c)))

    @classmethod
    def indicator(cls, box: Box, dim: int, lower, side, ncells: int) -> "SampledFunction":
        """Exact indicator of a box on the cell grid; MeshError off it."""
        return cls.constant(1.0, dim, lower, side, ncells).restrict_to(box)

    def with_values(self, values) -> "SampledFunction":
        """A checked read-only copy of values on this mesh, sharing its
        geometry record; values of another cell count raise
        MeshMismatchError."""
        return self._adopt(values, copy=True)

    def _adopt(self, values, copy: bool = False) -> "SampledFunction":
        """with_values without the copy: values, checked as with_values
        checks them, is made read-only and kept.  For an array the library
        has just made and holds no other reference to, such as an
        operator's output."""
        arr = _cell_values(values, self.dim, copy)
        if arr.shape != self.values.shape:
            raise MeshMismatchError(f"values of shape {arr.shape} on a mesh of shape {self.values.shape}")
        return object.__new__(SampledFunction)._fill(self.geometry, arr)

    # --- geometry: read straight off the shared record -----------------------

    dim = property(attrgetter("geometry.dim"))
    lower = property(attrgetter("geometry.window.lower"))  # Fractions
    side = property(attrgetter("geometry.window.side"))  # a Fraction
    ncells = property(attrgetter("geometry.ncells"))
    h = property(attrgetter("geometry.h"))
    cell_volume = property(attrgetter("geometry.cell_volume"))
    window = property(attrgetter("geometry.window"))
    level_L = property(attrgetter("geometry.level_L"))
    max_aligned_level = property(attrgetter("geometry.max_aligned_level"),
                                 doc="Finest dyadic level whose cube boundaries all land on cell edges.")

    def same_mesh(self, other: "SampledFunction") -> bool:
        a, b = self.geometry, other.geometry
        return a is b or a.key == b.key

    def require_same_mesh(self, other: "SampledFunction"):
        if not self.same_mesh(other):
            raise MeshMismatchError("operands live on different meshes")

    def cell_slices(self, box: Box, require_aligned: bool = True):
        """Per-axis slice of the cells of box∩window, empty where that
        intersection is.  box∩window must sit exactly on cell boundaries,
        or MeshError: a box is never rounded to whole cells, whatever
        require_aligned says (the keyword is kept for its callers)."""
        if box.dim != self.dim:
            raise MeshMismatchError("box dimension mismatch")
        sl = []
        for a, b in zip(self.lower, box.lower):
            lo, hi = max(b, a), min(b + box.side, a + self.side)
            if hi <= lo:
                sl.append(slice(0, 0))
                continue
            c0, c1 = (lo - a) / self.h, (hi - a) / self.h
            if c0.denominator != 1 or c1.denominator != 1:
                raise MeshError(f"box edge not on cell boundary: {box}")
            sl.append(slice(int(c0), int(c1)))
        return tuple(sl)

    # --- prefix sums and integration ----------------------------------------

    @property
    def prefix(self) -> np.ndarray:
        """(N+1)^dim cumulative sums of raw values; entry [i,(j)] sums cells
        below i (and j)."""
        if self._prefix is None:
            p = prefix_sum(self.values)
            p.setflags(write=False)
            self._prefix = p
        return self._prefix

    @property
    def zero_prefix(self) -> Optional[np.ndarray]:
        """Prefix sums of the zero-cell indicator, None when no cell is zero.
        Its differences are exact cell counts, while differences of
        ``prefix`` over a block of zero cells can leave roundoff in 2-D."""
        if self._zeros is _UNSET:
            self._zeros = None if self.values.all() else prefix_sum(self.values == 0)
            if self._zeros is not None:
                self._zeros.setflags(write=False)
        return self._zeros

    def integrate_box(self, box: Box) -> float:
        """Integral over box (zero extension), a prefix-sum difference over
        the cells of box∩window; MeshError unless those sit on the cell
        grid, as in restrict_to."""
        E = [np.array([s.start, s.stop]) for s in self.cell_slices(box, require_aligned=True)]
        table = self.prefix[E[0]] if len(E) == 1 else self.prefix[E[0][:, None], E[1]]
        return block_differences(table).item() * self.geometry.cellvol

    # --- pointwise algebra ----------------------------------------------------

    def __mul__(self, other: "SampledFunction") -> "SampledFunction":
        """The pointwise product of two functions on one mesh."""
        self.require_same_mesh(other)
        return self._adopt(self.values * other.values)

    def power(self, expo: float) -> "SampledFunction":
        """Pointwise power, one power masked to the positive cells: zero
        cells map to zero for every exponent, the convention used by
        factored weight constructions for negative ones (and 0^0 is 0)."""
        v = self.values
        return self._adopt(np.power(v, float(expo), out=np.zeros_like(v), where=v > 0))

    def restrict_to(self, region: Union[Box, DyadicCube]) -> "SampledFunction":
        """f * indicator(region), exact for cell-aligned regions."""
        box = realize(region) if isinstance(region, DyadicCube) else region
        sl = self.cell_slices(box, require_aligned=True)
        out = np.zeros_like(self.values)
        out[sl] = self.values[sl]
        return self._adopt(out)

    def refine(self) -> "SampledFunction":
        """Same function on a mesh twice as fine per axis."""
        v = self.values
        for ax in range(self.dim):
            v = np.repeat(v, 2, axis=ax)
        return SampledFunction(self.dim, self.lower, self.side, v)

    # --- serialization --------------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "dim": self.dim,
            "window": {"lower": [str(x) for x in self.lower], "side": str(self.side)},
            "cells_per_axis": self.ncells,
            "values": [float(x) for x in self.values.ravel()],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "SampledFunction":
        """Inverse of to_obj; a missing or malformed field raises MeshError
        naming it."""
        dim = obj_field(obj, "dim", _json_int)
        n = obj_field(obj, "cells_per_axis", lambda v: _json_int(v, least=1))
        vals = obj_field(obj, "values", lambda v: np.asarray(v, dtype=np.float64).reshape((n,) * dim))
        w = obj_field(obj, "window", lambda v: v)
        lower = obj_field(w, "lower", lambda v: tuple(map(parse_rational, v)), "window.")
        return cls(dim, lower, obj_field(w, "side", parse_rational, "window."), vals)


# grid.obj_field, raising MeshError
obj_field = partial(_obj_field, error=MeshError)


# === integration / averages / norms ==========================================

def integrate(f: SampledFunction) -> float:
    """Integral of f over its window; f.integrate_box integrates over a box."""
    return float(f.values.sum()) * f.geometry.cellvol


def lp_norm(f: SampledFunction, p, weight: Optional[SampledFunction] = None) -> float:
    """||f||_{L^p(w dx)} over the window, 0 < p < inf; Lebesgue measure
    when weight None."""
    return lp_norms(f, f.values, p, weight)[0]


def lp_norms(f: SampledFunction, values: np.ndarray, p, weight: Optional[SampledFunction] = None) -> list:
    """lp_norm of every row of values on the mesh of f, in row-major order
    of the leading (batch) axes; the spatial axes come last.  Each row is
    summed on its own and its root taken by Python's float power, as a
    single norm is."""
    pf = float(p)
    if not 0 < pf < math.inf:
        raise MeshError(f"p must be positive and finite, got {p}")
    if weight is not None:
        f.require_same_mesh(weight)
        mass = (weight.values * f.geometry.cellvol).ravel()
    else:
        mass = f.geometry.cellvol
    rows = values.reshape(-1, f.values.size)
    return [total ** (1.0 / pf) for total in np.sum(rows ** pf * mass, axis=-1).tolist()]


def weak_lq_norms(f: SampledFunction, values: np.ndarray, q, weight: SampledFunction) -> list:
    """sup_t t * w({g > t})^{1/q}, w the weight, of every row g of values
    on the mesh of f, ordered as lp_norms orders them.  The sup
    is attained approaching each value of g from below, so it is evaluated
    there; each row is sorted on its own, as a batch of that row alone is."""
    qf = float(q)
    if qf <= 0:
        raise MeshError("q must be positive")
    f.require_same_mesh(weight)
    mass = (weight.values * f.geometry.cellvol).ravel()
    flat = values.reshape(-1, f.values.size)
    order = np.argsort(flat, axis=-1)[:, ::-1]
    vs = np.take_along_axis(flat, order, axis=-1)
    # one buffer, the order freed first: a batched chunk peaks at three arrays of its size
    out = mass[order]
    del order
    np.cumsum(out, axis=-1, out=out)
    out **= 1.0 / qf
    out *= vs
    out[~(vs > 0)] = 0.0
    return out.max(axis=-1, initial=0.0).tolist()


# === exponent tuples =========================================================

@dataclass(frozen=True)
class ExponentTuple:
    """Exponent data (n, alpha, p, q) with exact rational derived quantities.
    Each refusal starts with the name of the field it refuses."""

    n: int
    alpha: Fraction
    p: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "n", parse_field(self.n, _json_int, "n", MeshError))
        _check_dim(self.n, "n", MeshError)
        for name in ("alpha", "p", "q"):
            object.__setattr__(self, name, parse_field(getattr(self, name), parse_rational, name, MeshError))
        if not (0 <= self.alpha < self.n):
            raise MeshError(f"alpha must satisfy 0 <= alpha < n, got {self.alpha}")
        for name in ("p", "q"):
            if getattr(self, name) <= 1:
                raise MeshError(f"{name} must lie in (1, infinity), got {getattr(self, name)}")

    @property
    def pprime(self) -> Fraction:
        return self.p / (self.p - 1)

    @property
    def qprime(self) -> Fraction:
        return self.q / (self.q - 1)

    @property
    def s_p(self) -> Fraction:
        """s(p) = 1 + q/p'; equals q(1 - alpha/n) exactly when Sobolev."""
        return 1 + self.q / self.pprime

    @property
    def s_dual(self) -> Fraction:
        """s(q') = 1 + p'/q, the s-index of the dual pair (q', p')."""
        return 1 + self.pprime / self.q

    @property
    def gamma(self) -> Fraction:
        """Factored-weight exponent (alpha/n + 1/q - 1/p) / ((1/n)(1 + 1/q - 1/p))."""
        num = self.alpha / self.n + 1 / self.q - 1 / self.p
        den = Fraction(1, self.n) * (1 + 1 / self.q - 1 / self.p)
        return num / den

    @property
    def is_sobolev(self) -> bool:
        return 1 / self.p - 1 / self.q == self.alpha / self.n

    @property
    def in_fractional_regime(self) -> bool:
        """1/p - 1/q <= alpha/n, the regime where factored pairs exist."""
        return 1 / self.p - 1 / self.q <= self.alpha / self.n

    def dual(self) -> "ExponentTuple":
        return ExponentTuple(self.n, self.alpha, self.qprime, self.pprime)

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "alpha": str(self.alpha),
            "p": str(self.p),
            "q": str(self.q),
        }

"""Shifted dyadic grids with exact rational cube geometry.

A grid with shift flags t in {0, 1/3}^n consists of the half-open cubes

    2^-k ([0,1)^n + m + (-1)^k t),   k integer, m in Z^n.

The (-1)^k factor alternates the shift direction between consecutive levels,
which is what makes cubes of one grid nest properly across levels.  All
coordinates are Fractions with denominator dividing 3*2^k, so geometry
predicates (containment, intersection) are exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator


class GridError(ValueError):
    pass


def pow2(k: int) -> Fraction:
    """2**k as an exact Fraction, k any integer."""
    if k >= 0:
        return Fraction(1 << k)
    return Fraction(1, 1 << (-k))


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise GridError(f"non-finite coordinate {x!r}")
        return Fraction(x)
    raise GridError(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box prod_i [lower_i, lower_i + side) with one
    common side length.  Rational corners, exact predicates."""

    lower: tuple[Fraction, ...]
    side: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(_as_fraction(x) for x in self.lower))
        object.__setattr__(self, "side", _as_fraction(self.side))
        if self.side < 0:
            raise GridError("box side must be nonnegative")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def upper(self) -> tuple[Fraction, ...]:
        return tuple(a + self.side for a in self.lower)

    def volume(self) -> Fraction:
        return self.side ** self.dim

    def is_empty(self) -> bool:
        return self.side == 0

    def contains_point(self, pt) -> bool:
        pt = tuple(_as_fraction(x) for x in pt)
        return all(a <= x < a + self.side for a, x in zip(self.lower, pt))

    def contains_box(self, other: "Box") -> bool:
        if other.is_empty():
            return True
        return all(
            a <= b and b + other.side <= a + self.side
            for a, b in zip(self.lower, other.lower)
        )

    def intersects(self, other: "Box") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        return all(
            max(a, b) < min(a + self.side, b + other.side)
            for a, b in zip(self.lower, other.lower)
        )

    def intersection_volume(self, other: "Box") -> Fraction:
        v = Fraction(1)
        for a, b in zip(self.lower, other.lower):
            lo = max(a, b)
            hi = min(a + self.side, b + other.side)
            if hi <= lo:
                return Fraction(0)
            v *= hi - lo
        return v


@dataclass(frozen=True)
class DyadicCube:
    """One cube of a shifted grid: level k (side 2^-k), integer index m per
    axis, shift flag per axis (0 means t=0, 1 means t=1/3)."""

    dim: int
    level: int
    index: tuple[int, ...]
    shift: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise GridError(f"dim must be 1 or 2, got {self.dim}")
        if len(self.index) != self.dim or len(self.shift) != self.dim:
            raise GridError("index/shift arity must match dim")
        if any(s not in (0, 1) for s in self.shift):
            raise GridError("shift flags must be 0 or 1")

    @property
    def side(self) -> Fraction:
        return pow2(-self.level)

    @property
    def sign(self) -> int:
        """(-1)**level, the alternating shift direction at this level."""
        return -1 if self.level % 2 else 1

    def lower(self) -> tuple[Fraction, ...]:
        e = self.sign
        return tuple(
            Fraction(3 * m + e * t, 3) * self.side
            for m, t in zip(self.index, self.shift)
        )


def realize(cube: DyadicCube) -> Box:
    """Exact rational realization of the cube as a half-open box."""
    return Box(cube.lower(), cube.side)


def parent(cube: DyadicCube) -> DyadicCube:
    """The cube one level coarser, same grid, containing `cube`.

    Per axis the parent index is floor((m + d)/2) with d = (-1)^k * t, which
    is the unique integer solving the containment inequalities.
    """
    e = cube.sign
    idx = tuple((m + e * t) // 2 for m, t in zip(cube.index, cube.shift))
    p = DyadicCube(cube.dim, cube.level - 1, idx, cube.shift)
    return p


@dataclass(frozen=True)
class GridFamily:
    """All cubes of one shifted grid with levels in [min_level, max_level]
    that intersect a window box."""

    dim: int
    shift: tuple[int, ...]
    min_level: int
    max_level: int
    window: Box

    def __post_init__(self):
        if len(self.shift) != self.dim or any(s not in (0, 1) for s in self.shift):
            raise GridError("bad shift flags")
        if self.min_level > self.max_level:
            raise GridError("min_level must be <= max_level")
        if self.window.dim != self.dim:
            raise GridError("window dimension mismatch")

    @property
    def levels(self) -> range:
        return range(self.min_level, self.max_level + 1)

    def axis_index_range(self, level: int, axis: int) -> tuple[int, int]:
        """Inclusive index range [m_lo, m_hi] of cubes at `level` whose axis
        interval meets the window; m_hi < m_lo when the window is empty."""
        if self.window.is_empty():
            return (0, -1)
        t = self.shift[axis]
        e = -1 if level % 2 else 1
        lo = self.window.lower[axis]
        hi = lo + self.window.side
        scale = pow2(level)  # 2**level = 1/side
        a = scale * lo - Fraction(e * t, 3)
        b = scale * hi - Fraction(e * t, 3)
        m_lo = math.floor(a - 1) + 1   # smallest m with m > a - 1
        m_hi = math.ceil(b) - 1        # largest m with m < b
        return (m_lo, m_hi)

    def cubes_at_level(self, level: int) -> Iterator[DyadicCube]:
        ranges = [self.axis_index_range(level, ax) for ax in range(self.dim)]
        if any(hi < lo for lo, hi in ranges):
            return
        for idx in product(*(range(lo, hi + 1) for lo, hi in ranges)):
            yield DyadicCube(self.dim, level, idx, self.shift)

    def __iter__(self) -> Iterator[DyadicCube]:
        """Level-major (coarse to fine), index-lexicographic enumeration."""
        for level in self.levels:
            yield from self.cubes_at_level(level)

    def owner_index(self, level: int, pt) -> tuple[int, ...]:
        """Index of the unique cube at `level` containing the point."""
        pt = tuple(_as_fraction(x) for x in pt)
        e = -1 if level % 2 else 1
        scale = pow2(level)
        return tuple(
            math.floor(scale * x - Fraction(e * t, 3))
            for x, t in zip(pt, self.shift)
        )


def all_shifts(dim: int) -> list[tuple[int, ...]]:
    """The 2^dim shift-flag tuples, classic grid (all zeros) first."""
    return [tuple(bits) for bits in product((0, 1), repeat=dim)]


def shifted_grids(dim: int, window: Box, min_level: int, max_level: int) -> list[GridFamily]:
    """One GridFamily per shift in {0,1/3}^dim over a common window."""
    return [
        GridFamily(dim, s, min_level, max_level, window)
        for s in all_shifts(dim)
    ]


# === serialization ===========================================================

def cube_to_obj(cube: DyadicCube) -> dict:
    return {
        "dim": cube.dim,
        "level": cube.level,
        "index": list(cube.index),
        "shift": list(cube.shift),
    }


def _json_int(v, least=-math.inf) -> int:
    """A JSON integer >= least; floats and booleans are refused, not truncated."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    if v < least:
        raise ValueError(f"expected an integer of at least {least}, got {v}")
    return v


def obj_field(obj, key: str, parse: Callable, where: str = "", error=GridError):
    """parse(obj[key]) for a JSON object read from outside the program; a
    missing field, or one that parse rejects, raises error naming
    where + key."""
    if not isinstance(obj, dict):
        raise error(f"expected an object holding '{where}{key}', got {type(obj).__name__}")
    if key not in obj:
        raise error(f"missing field '{where}{key}'")
    try:
        return parse(obj[key])
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error(f"malformed field '{where}{key}': {exc}") from None


def cube_from_obj(obj: dict) -> DyadicCube:
    """Inverse of cube_to_obj; a missing field, or one that is not a JSON
    integer (a list of them for index and shift), raises GridError naming it."""
    return DyadicCube(
        dim=obj_field(obj, "dim", _json_int),
        level=obj_field(obj, "level", _json_int),
        index=obj_field(obj, "index", lambda v: tuple(map(_json_int, v))),
        shift=obj_field(obj, "shift", lambda v: tuple(map(_json_int, v))),
    )


def box_to_obj(box: Box) -> dict:
    return {"lower": [str(x) for x in box.lower], "side": str(box.side)}


def box_from_obj(obj: dict) -> Box:
    return Box(tuple(Fraction(s) for s in obj["lower"]), Fraction(obj["side"]))

"""Shifted dyadic grids with exact rational cube geometry.

A grid with shift flags t in {0, 1/3}^n consists of the half-open cubes

    2^-k ([0,1)^n + m + (-1)^k t),   k integer, m in Z^n.

The (-1)^k factor alternates the shift direction between consecutive levels,
which is what makes cubes of one grid nest properly across levels.  All
coordinates are Fractions with denominator dividing 3*2^k, so geometry
predicates (containment) are exact.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable, Iterator


class GridError(ValueError):
    pass


def _as_fraction(x, error=GridError) -> Fraction:
    """The one rational parser: an exact Fraction from a Fraction, an
    integer (a numpy one too), an 'a/b' string or a finite binary float;
    anything else raises error."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise error(f"non-finite rational {x!r}")
        return Fraction(x)
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    raise error(f"cannot interpret {x!r} as a rational")


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box prod_i [lower_i, lower_i + side) with one
    common positive side length.  Rational corners, exact predicates."""

    lower: tuple[Fraction, ...]
    side: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(_as_fraction(x) for x in self.lower))
        object.__setattr__(self, "side", _as_fraction(self.side))
        if self.side <= 0:
            raise GridError(f"box side must be positive, got {self.side}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def volume(self) -> Fraction:
        return self.side ** self.dim

    def contains_box(self, other: "Box") -> bool:
        return all(
            a <= b and b + other.side <= a + self.side
            for a, b in zip(self.lower, other.lower)
        )


def _check_dim(value, name: str, error=GridError) -> None:
    """The one supported-dimension rule, for the field of the given name:
    1 or 2; any other value raises error naming the field."""
    if value not in (1, 2):
        raise error(f"{name} must be 1 or 2, got {value}")


@dataclass(frozen=True)
class DyadicCube:
    """One cube of a shifted grid: level k (side 2^-k), integer index m per
    axis, shift flag per axis (0 means t=0, 1 means t=1/3)."""

    dim: int
    level: int
    index: tuple[int, ...]
    shift: tuple[int, ...]

    def __post_init__(self):
        _check_dim(self.dim, "dim")
        if len(self.index) != self.dim or len(self.shift) != self.dim:
            raise GridError("index/shift arity must match dim")
        if any(s not in (0, 1) for s in self.shift):
            raise GridError("shift flags must be 0 or 1")

    @property
    def side(self) -> Fraction:
        return Fraction(2) ** -self.level

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
        interval meets the window; a box's side is positive, so m_lo <= m_hi."""
        t = self.shift[axis]
        e = -1 if level % 2 else 1
        lo = self.window.lower[axis]
        hi = lo + self.window.side
        scale = Fraction(2) ** level  # 1/side
        a = scale * lo - Fraction(e * t, 3)
        b = scale * hi - Fraction(e * t, 3)
        m_lo = math.floor(a - 1) + 1   # smallest m with m > a - 1
        m_hi = math.ceil(b) - 1        # largest m with m < b
        return (m_lo, m_hi)

    def cubes_at_level(self, level: int) -> Iterator[DyadicCube]:
        ranges = [self.axis_index_range(level, ax) for ax in range(self.dim)]
        for idx in product(*(range(lo, hi + 1) for lo, hi in ranges)):
            yield DyadicCube(self.dim, level, idx, self.shift)

    def __iter__(self) -> Iterator[DyadicCube]:
        """Level-major (coarse to fine), index-lexicographic enumeration."""
        for level in self.levels:
            yield from self.cubes_at_level(level)


def all_shifts(dim: int) -> list[tuple[int, ...]]:
    """The 2^dim shift-flag tuples, classic grid (all zeros) first."""
    return [tuple(bits) for bits in product((0, 1), repeat=dim)]


# === serialization ===========================================================

def cube_to_obj(cube: DyadicCube) -> dict:
    return {
        "dim": cube.dim,
        "level": cube.level,
        "index": list(cube.index),
        "shift": list(cube.shift),
    }


def _json_int(v, least=-math.inf) -> int:
    """The one integer rule: an integer (a numpy one too) of at least
    least, as an int; floats and booleans are refused, not truncated."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise TypeError(f"expected an integer, got {v!r}")
    if v < least:
        raise ValueError(f"expected an integer of at least {least}, got {v}")
    return int(v)


def parse_field(value, parse: Callable, name: str, error=GridError):
    """parse(value) for a value given from outside the library; one that
    parse rejects raises error naming the field."""
    try:
        return parse(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error(f"malformed field '{name}': {exc}") from None


def obj_field(obj, key: str, parse: Callable, where: str = "", error=GridError):
    """parse_field of obj[key] for a JSON object read from outside the
    program; a missing field, or one that parse rejects, raises error
    naming where + key."""
    if not isinstance(obj, dict):
        raise error(f"expected an object holding '{where}{key}', got {type(obj).__name__}")
    if key not in obj:
        raise error(f"missing field '{where}{key}'")
    return parse_field(obj[key], parse, where + key, error)


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
    return Box(obj["lower"], obj["side"])

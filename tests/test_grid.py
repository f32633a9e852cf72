from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.grid import (
    Box,
    DyadicCube,
    GridError,
    GridFamily,
    all_shifts,
    box_from_obj,
    box_to_obj,
    cube_from_obj,
    cube_to_obj,
    parent,
    realize,
)

from cube_oracle import contains_point, intersection_volume, intersects, owner_index, shifted_grids, upper


def brute_force_parent(cube: DyadicCube) -> DyadicCube:
    """Independent oracle: search level-(k-1) indices for the container."""
    child = realize(cube)
    hits = []
    for idx in _candidate_indices(cube):
        cand = DyadicCube(cube.dim, cube.level - 1, idx, cube.shift)
        if realize(cand).contains_box(child):
            hits.append(cand)
    assert len(hits) == 1, f"expected unique parent, got {hits}"
    return hits[0]


def _candidate_indices(cube):
    from itertools import product

    spans = []
    for m in cube.index:
        base = m // 2
        spans.append(range(base - 3, base + 4))
    return product(*spans)


class TestRealize:
    def test_unit_cube(self):
        c = DyadicCube(1, 0, (0,), (0,))
        assert realize(c) == Box((Fraction(0),), Fraction(1))

    def test_shifted_level1(self):
        # 2^-1 ([0,1) + 0 + (-1)^1 * 1/3) = [-1/6, 1/3)
        c = DyadicCube(1, 1, (0,), (1,))
        b = realize(c)
        assert b.lower == (Fraction(-1, 6),)
        assert b.side == Fraction(1, 2)
        assert upper(b) == (Fraction(1, 3),)

    def test_negative_level(self):
        # 2 * ([0,1) + 1) = [2, 4)
        c = DyadicCube(1, -1, (1,), (0,))
        b = realize(c)
        assert b.lower == (Fraction(2),)
        assert b.side == Fraction(2)
        assert upper(b) == (Fraction(4),)

    def test_shift_alternates_with_level(self):
        # t=1/3 grid: at even levels the shift is +t, at odd levels -t.
        even = DyadicCube(1, 0, (0,), (1,))
        odd = DyadicCube(1, 1, (0,), (1,))
        assert realize(even).lower == (Fraction(1, 3),)
        assert realize(odd).lower == (Fraction(-1, 6),)

    def test_2d_mixed_shift(self):
        c = DyadicCube(2, 1, (0, 0), (0, 1))
        b = realize(c)
        assert b.lower == (Fraction(0), Fraction(-1, 6))
        assert b.side == Fraction(1, 2)


class TestParent:
    def test_classic_grid(self):
        c = DyadicCube(1, 1, (3,), (0,))
        p = parent(c)
        assert p.level == 0 and p.index == (1,)

    def test_shifted_example_by_containment(self):
        # The level-0 cube of the t=1/3 grid containing [-1/6, 1/3).
        c = DyadicCube(1, 1, (0,), (1,))
        p = parent(c)
        assert p == brute_force_parent(c)
        assert realize(p).lower == (Fraction(-2, 3),)
        assert upper(realize(p)) == (Fraction(1, 3),)
        assert realize(p).contains_box(realize(c))

    @given(
        level=st.integers(min_value=-6, max_value=9),
        m=st.integers(min_value=-50, max_value=50),
        t=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=120, deadline=None)
    def test_parent_matches_containment_oracle_1d(self, level, m, t):
        c = DyadicCube(1, level, (m,), (t,))
        p = parent(c)
        assert p.level == c.level - 1
        assert realize(p).contains_box(realize(c))
        assert p == brute_force_parent(c)

    @given(
        level=st.integers(min_value=-3, max_value=6),
        m1=st.integers(min_value=-10, max_value=10),
        m2=st.integers(min_value=-10, max_value=10),
        t1=st.integers(min_value=0, max_value=1),
        t2=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_parent_matches_containment_oracle_2d(self, level, m1, m2, t1, t2):
        c = DyadicCube(2, level, (m1, m2), (t1, t2))
        p = parent(c)
        assert realize(p).contains_box(realize(c))
        assert p == brute_force_parent(c)


class TestEnumerate:
    def test_seven_cubes_levels_0_to_2(self):
        g = GridFamily(1, (0,), 0, 2, Box((Fraction(0),), Fraction(1)))
        cubes = list(g)
        assert len(cubes) == 7
        assert [c.level for c in cubes] == [0, 1, 1, 2, 2, 2, 2]

    def test_shifted_level0_straddles_window(self):
        g = GridFamily(1, (1,), 0, 0, Box((Fraction(0),), Fraction(1)))
        cubes = list(g)
        assert len(cubes) == 2
        boxes = [realize(c) for c in cubes]
        assert boxes[0].lower == (Fraction(-2, 3),)
        assert boxes[1].lower == (Fraction(1, 3),)

    def test_2d_count_is_product(self):
        w = Box((Fraction(0), Fraction(0)), Fraction(1))
        g0 = GridFamily(2, (0, 0), 0, 2, w)
        assert len(list(g0)) == 1 + 4 + 16
        gs = GridFamily(2, (1, 1), 0, 0, w)
        assert len(list(gs)) == 4

    def test_window_edges_half_open(self):
        # A cube touching the window only at the right endpoint is excluded.
        g = GridFamily(1, (0,), 0, 0, Box((Fraction(0),), Fraction(1)))
        assert [c.index for c in g] == [(0,)]

    def test_empty_window(self):
        g = GridFamily(1, (0,), 0, 3, Box((Fraction(0),), Fraction(0)))
        assert list(g) == []

    def test_enumeration_matches_intersection_predicate(self):
        w = Box((Fraction(-1, 2),), Fraction(2))
        g = GridFamily(1, (1,), -1, 3, w)
        for c in g:
            assert intersects(realize(c), w)
        # no missing cubes: check by scanning a wide index range
        for level in g.levels:
            lo, hi = g.axis_index_range(level, 0)
            for m in range(lo - 3, hi + 4):
                c = DyadicCube(1, level, (m,), (1,))
                assert intersects(realize(c), w) == (lo <= m <= hi)


class TestNestedness:
    @pytest.mark.parametrize("shift", [(0,), (1,)])
    def test_trichotomy_1d(self, shift):
        g = GridFamily(1, shift, -1, 4, Box((Fraction(0),), Fraction(1)))
        cubes = list(g)
        for a in cubes:
            for b in cubes:
                ba, bb = realize(a), realize(b)
                relations = [
                    ba.contains_box(bb),
                    bb.contains_box(ba),
                    not intersects(ba, bb),
                ]
                assert any(relations), (a, b)

    def test_trichotomy_2d_shifted(self):
        w = Box((Fraction(0), Fraction(0)), Fraction(1))
        g = GridFamily(2, (1, 0), 0, 2, w)
        cubes = list(g)
        for a in cubes:
            for b in cubes:
                ba, bb = realize(a), realize(b)
                assert (
                    ba.contains_box(bb)
                    or bb.contains_box(ba)
                    or not intersects(ba, bb)
                )

    def test_same_level_cubes_partition(self):
        g = GridFamily(1, (1,), 2, 2, Box((Fraction(0),), Fraction(1)))
        cubes = list(g)
        # consecutive, disjoint, and they cover the window
        lo = min(realize(c).lower[0] for c in cubes)
        hi = max(upper(realize(c))[0] for c in cubes)
        assert lo <= 0 and hi >= 1
        total = sum(intersection_volume(realize(c), g.window) for c in cubes)
        assert total == Fraction(1)


class TestOwner:
    @given(
        num=st.integers(min_value=-30, max_value=30),
        den=st.sampled_from([1, 2, 3, 4, 6, 12, 24]),
        level=st.integers(min_value=-3, max_value=5),
        t=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_owner_contains_point(self, num, den, level, t):
        g = GridFamily(1, (t,), -3, 5, Box((Fraction(-40),), Fraction(80)))
        x = Fraction(num, den) + Fraction(1, 48)  # keep off cube boundaries
        idx = owner_index(g, level, (x,))
        cube = DyadicCube(1, level, idx, (t,))
        assert contains_point(realize(cube), (x,))


class TestShiftedGrids:
    def test_counts(self):
        w1 = Box((Fraction(0),), Fraction(1))
        w2 = Box((Fraction(0), Fraction(0)), Fraction(1))
        assert len(shifted_grids(1, w1, 0, 2)) == 2
        assert len(shifted_grids(2, w2, 0, 2)) == 4
        assert all_shifts(2)[0] == (0, 0)

    def test_classic_grid_first(self):
        w = Box((Fraction(0),), Fraction(1))
        g = shifted_grids(1, w, 0, 1)[0]
        assert g.shift == (0,)
        assert realize(next(iter(g))) == Box((Fraction(0),), Fraction(1))


class TestSerialization:
    def test_cube_roundtrip(self):
        c = DyadicCube(2, -2, (5, -7), (1, 0))
        assert cube_from_obj(cube_to_obj(c)) == c

    @pytest.mark.parametrize("field,obj", [
        ("'dim'", {}),
        ("'dim'", {"dim": True, "level": 1, "index": [0], "shift": [0]}),
        ("'level'", {"dim": 1, "level": 1.5, "index": [0], "shift": [0]}),
        ("'index'", {"dim": 1, "level": 1, "index": 0, "shift": [0]}),
        ("'index'", {"dim": 1, "level": 1, "index": [0.9], "shift": [0]}),
        ("'shift'", {"dim": 1, "level": 1, "index": [0], "shift": [True]}),
        ("'shift'", {"dim": 1, "level": 1, "index": [0]}),
    ])
    def test_cube_fields_must_be_integers(self, field, obj):
        # a missing or non-integer field is refused by name, never truncated
        with pytest.raises(GridError, match=field):
            cube_from_obj(obj)

    @pytest.mark.parametrize("bad", [None, [1], float("inf"), float("nan")])
    def test_box_refuses_what_is_no_rational(self, bad):
        with pytest.raises(GridError):
            Box((bad,), 1)

    def test_box_roundtrip(self):
        b = Box((Fraction(-1, 6), Fraction(2, 3)), Fraction(1, 2))
        assert box_from_obj(box_to_obj(b)) == b

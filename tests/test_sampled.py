"""Oracle tests for cell-constant sampled functions and exponent tuples."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import operators as op, sampled
from dyadlab.grid import Box, DyadicCube, realize
from dyadlab.sampled import (
    ExponentTuple,
    MeshError,
    MeshMismatchError,
    SampledFunction,
    integrate,
    is_cell_count,
    is_power_of_two,
    lp_norm,
    lp_norms,
    parse_rational,
    weak_lq_norms,
)
from dyadlab.sparse import build_sparse, sparse_operator

from cube_oracle import average, cell_centers, integral, intersection_volume
from mesh_oracle import cumsum_prefix, log_two_step, power_two_step


def unit(f: SampledFunction) -> SampledFunction:
    """The weight 1 on the mesh of f: the weak norms take Lebesgue measure
    as this weight."""
    return f.with_values(np.ones_like(f.values))


def brute_integral(f: SampledFunction, box: Box) -> float:
    """Independent integral oracle: per-cell overlap volumes in exact
    rational arithmetic, then a dot product."""
    total = 0.0
    h = f.h
    it = np.ndindex(*f.values.shape)
    for idx in it:
        lo = tuple(f.lower[ax] + idx[ax] * h for ax in range(f.dim))
        cell = Box(lo, h)
        ov = intersection_volume(cell, box)
        if ov > 0:
            total += float(f.values[idx]) * float(ov)
    return total


class TestValidation:
    def test_bad_cell_count(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (0,), 1, np.ones(5))

    def test_cell_count_must_be_three_times_pow2(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (0,), 1, np.ones(9))
        SampledFunction(1, (0,), 1, np.ones(12))  # 3*2^2 is fine

    @pytest.mark.parametrize("n", [3, 6, 12, 48, 96, 3 * 2**20])
    def test_cell_count_rule_accepts_three_times_pow2(self, n):
        assert is_cell_count(n)

    @pytest.mark.parametrize("n", [0, -3, -6, 1, 2, 5, 9, 18, 36, 75])
    def test_cell_count_rule_refuses_the_rest(self, n):
        # 18 and 36 are multiples of 3 but not 3 * 2^L
        assert not is_cell_count(n)
        if n >= 0:
            with pytest.raises(MeshError, match=rf"cells per axis must be 3\*2\^L, got {n}"):
                SampledFunction(1, (0,), 1, np.ones(n))

    @pytest.mark.parametrize("x,ok", [(1, True), (2, True), (64, True), (Fraction(8), True),
                                      (0, False), (-2, False), (3, False), (12, False),
                                      (Fraction(1, 2), False), (Fraction(3, 2), False)])
    def test_power_of_two_rule(self, x, ok):
        assert is_power_of_two(x) is ok

    @pytest.mark.parametrize("shape", [(0,), (0, 0)])
    def test_zero_cells_rejected(self, shape):
        with pytest.raises(MeshError, match=r"cells per axis must be 3\*2\^L, got 0"):
            SampledFunction(len(shape), (0,) * len(shape), 1, np.zeros(shape))

    def test_noninteger_corner(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (Fraction(1, 2),), 1, np.ones(3))

    def test_side_not_pow2(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (0,), 3, np.ones(3))

    def test_fractional_side_rejected(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (0,), Fraction(1, 2), np.ones(3))

    def test_negative_values(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (0,), 1, np.array([1.0, -0.5, 0.0]))

    def test_nan_values(self):
        with pytest.raises(MeshError):
            SampledFunction(1, (0,), 1, np.array([1.0, np.nan, 0.0]))

    def test_nonsquare_2d(self):
        with pytest.raises(MeshError):
            SampledFunction(2, (0, 0), 1, np.ones((3, 6)))

    def test_mesh_mismatch(self):
        f = SampledFunction.constant(1.0, 1, (0,), 1, 3)
        g = SampledFunction.constant(1.0, 1, (0,), 1, 6)
        with pytest.raises(MeshMismatchError):
            _ = f * g

    def test_values_are_frozen(self):
        f = SampledFunction.constant(1.0, 1, (0,), 1, 3)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestResultArrays:
    """An array the library makes is checked and frozen in place; a
    caller's array is copied."""

    def test_overflowing_result_refused(self):
        # (1e-2)^-400 = 1e800 overflows to inf, which the finite check refuses
        w = SampledFunction(1, (0,), 1, np.array([1e-2, 1.0, 0.0]))
        with np.errstate(over="ignore"), pytest.raises(MeshError, match="finite and nonnegative"):
            w.power(-400)

    def test_results_are_read_only(self):
        rng = np.random.default_rng(9)
        f = SampledFunction(1, (0,), 1, rng.uniform(0.5, 2.0, 48))
        g = f.with_values(rng.uniform(0.5, 2.0, 48))
        results = [f * g, f.power(2.0), f.power(-0.5), f.restrict_to(DyadicCube(1, 1, (0,), (0,))),
                   op.frac_maximal(f, 0.5), op.dyadic_riesz(f, 0.5), op.geometric_maximal(f),
                   op.outer_riesz(f, DyadicCube(1, 1, (1,), (0,)), 0.5),
                   sparse_operator(build_sparse(f, 0.5, ratio=4.0, min_level=0))]
        for h in results:
            assert not h.values.flags.writeable
            with pytest.raises(ValueError):
                h.values[0] = 1.0

    def test_caller_array_copied(self):
        a = np.ones(24)
        f = SampledFunction(1, (0,), 1, a)
        g = f.with_values(a)
        a[0] = 5.0
        assert f.values[0] == g.values[0] == 1.0
        assert a.flags.writeable and not np.shares_memory(g.values, a)

    def test_library_array_kept_and_checked(self):
        f = SampledFunction(1, (0,), 1, np.ones(24))
        out = np.full(24, 2.0)
        assert f._adopt(out).values is out and not out.flags.writeable
        # a strided array is laid out in C order, as a copy would be
        assert f._adopt(np.ones(48)[::2]).values.flags.c_contiguous
        with pytest.raises(MeshMismatchError):
            f._adopt(np.ones(48))
        with pytest.raises(MeshError, match="finite and nonnegative"):
            f._adopt(np.full(24, -1.0))


class TestGeometry:
    def test_h_and_volume(self):
        f = SampledFunction.constant(1.0, 1, (0,), 2, 6)
        assert f.h == Fraction(1, 3)
        assert f.cell_volume == Fraction(1, 3)
        assert f.level_L == 1
        assert f.max_aligned_level == 0

    def test_max_aligned_level_matches_boundaries(self):
        # every cube of level <= max_aligned_level has boundaries on cell
        # edges: its realized box slices without proration
        f = SampledFunction.constant(1.0, 1, (0,), 2, 24)
        assert f.max_aligned_level == 2
        for level in range(0, 3):
            for m in range(0, 2 ** (level + 1)):
                cube = DyadicCube(1, level, (m,), (0,))
                f.cell_slices(realize(cube), require_aligned=True)

    def test_cell_centers(self):
        f = SampledFunction.constant(1.0, 1, (-1,), 2, 6)
        np.testing.assert_allclose(
            cell_centers(f), [-5 / 6, -3 / 6, -1 / 6, 1 / 6, 3 / 6, 5 / 6]
        )


class TestMeshGeometry:
    """One immutable geometry record per mesh, shared by the functions on it."""

    def test_public_attributes_keep_their_types(self):
        f = SampledFunction(2, (-1, 0), 2, np.ones((24, 24)))
        assert f.lower == (Fraction(-1), Fraction(0)) and all(type(x) is Fraction for x in f.lower)
        assert type(f.side) is Fraction and f.side == 2
        assert type(f.window) is Box and f.window == Box(f.lower, f.side)
        assert (type(f.dim), type(f.ncells), type(f.level_L), type(f.max_aligned_level)) == (int,) * 4
        assert (f.dim, f.ncells, f.level_L, f.max_aligned_level) == (2, 24, 3, 2)
        assert f.h == Fraction(1, 12) and type(f.h) is Fraction
        assert f.cell_volume == Fraction(1, 144) and type(f.cell_volume) is Fraction
        g = f.geometry
        assert g.cellvol == float(f.cell_volume)
        assert g.key == (24, 2, -1, 0) and all(type(k) is int for k in g.key)
        assert g.corner == (-1, 0) and g.side == 2

    def test_derived_functions_share_the_record(self):
        rng = np.random.default_rng(4)
        f = SampledFunction(1, (0,), 2, rng.uniform(0.5, 2.0, 48))
        g = f.with_values(rng.uniform(0.5, 2.0, 48))
        derived = [g, f.power(2.0), f.power(-0.5), f.restrict_to(DyadicCube(1, 0, (0,), (0,))),
                   f * g,
                   op.frac_maximal(f, 0.5), op.dyadic_frac_maximal(f), op.dyadic_riesz(f, 0.5),
                   op.geometric_maximal(f), op.weighted_dyadic_maximal(f, g),
                   op.outer_riesz(f, DyadicCube(1, 1, (1,), (0,)), 0.5)]
        assert all(h.geometry is f.geometry for h in derived)

    def test_functions_built_apart_share_the_record(self):
        f = SampledFunction(1, (0,), 1, np.ones(24))
        g = SampledFunction(1, (Fraction(0),), Fraction(1), np.zeros(24))
        assert g.geometry is f.geometry

    def test_other_cell_count_refused(self):
        # with_values keeps the mesh: values of another cell count have none
        f = SampledFunction(1, (0,), 1, np.ones(24))
        with pytest.raises(MeshMismatchError, match=r"shape \(48,\) on a mesh of shape \(24,\)"):
            f.with_values(np.ones(48))

    def test_same_mesh_compares_every_part_of_the_key(self):
        f = SampledFunction(1, (0,), 2, np.ones(24))
        clone = SampledFunction(1, (0,), 2, np.ones(24))
        sampled.mesh_geometry.cache_clear()  # a record built anew: equal key, another object
        fresh = SampledFunction(1, (0,), 2, np.ones(24))
        assert fresh.geometry is not f.geometry
        assert f.same_mesh(clone) and f.same_mesh(fresh) and fresh.same_mesh(f)
        others = [SampledFunction(1, (0,), 4, np.ones(24)),  # the side alone differs
                  SampledFunction(1, (-2,), 2, np.ones(24)),  # the corner alone differs
                  SampledFunction(1, (0,), 2, np.ones(48)),
                  SampledFunction(2, (0, 0), 2, np.ones((24, 24)))]
        for g in others:
            assert not f.same_mesh(g) and not g.same_mesh(f)
            with pytest.raises(MeshMismatchError):
                f * g


class TestIntegration:
    def test_third_indicator(self):
        # f = indicator of [0, 1/3) on a 3-cell mesh over [0,1)
        f = SampledFunction(1, (0,), 1, np.array([1.0, 0.0, 0.0]))
        assert integrate(f) == pytest.approx(1 / 3, rel=0, abs=1e-15)

    def test_half_outside_average(self):
        # f == 1 on [0,1); averaging over [-1/2, 1/2) sees half zeros
        f = SampledFunction.constant(1.0, 1, (0,), 1, 6)
        box = Box((Fraction(-1, 2),), Fraction(1))
        assert average(f, box) == pytest.approx(0.5, rel=0, abs=1e-15)

    def test_aligned_cube_integral(self):
        rng = np.random.default_rng(7)
        f = SampledFunction(1, (0,), 1, rng.uniform(0, 2, 12))
        cube = DyadicCube(1, 1, (1,), (0,))  # [1/2, 1)
        expect = float(f.values[6:].sum()) / 12
        assert integral(f, cube) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("box", [Box((Fraction(1, 5),), Fraction(2, 5)),
                                     Box((Fraction(1, 7), Fraction(2, 5)), Fraction(1, 3))], ids=["1d", "2d"])
    def test_off_grid_box_refused(self, box):
        # box integrals live on the cell grid: a box edge inside a cell is
        # refused, never prorated
        f = SampledFunction.constant(1.0, box.dim, (0,) * box.dim, 1, 6)
        calls = [lambda: f.integrate_box(box), lambda: f.restrict_to(box),
                 lambda: SampledFunction.indicator(box, box.dim, (0,) * box.dim, 1, 6),
                 lambda: f.cell_slices(box), lambda: f.cell_slices(box, require_aligned=False)]
        for call in calls:
            with pytest.raises(MeshError, match="not on cell boundary"):
                call()

    def test_straddling_box_zero_extension(self):
        f = SampledFunction.constant(2.0, 1, (0,), 1, 3)
        box = Box((Fraction(-1),), Fraction(3))  # covers window plus outside
        assert integral(f, box) == pytest.approx(2.0, rel=1e-15)

    def test_disjoint_box(self):
        f = SampledFunction.constant(2.0, 1, (0,), 1, 3)
        assert integral(f, Box((Fraction(5),), Fraction(1))) == 0.0

    def test_2d_prefix_against_brute(self):
        rng = np.random.default_rng(5)
        f = SampledFunction(2, (0, 0), 1, rng.uniform(0, 1, (12, 12)))
        cube = DyadicCube(2, 2, (1, 2), (0, 0))
        box = realize(cube)
        assert integral(f, cube) == pytest.approx(brute_integral(f, box), rel=1e-13)

    @given(
        lo_num=st.integers(-12, 12),
        width_num=st.integers(1, 30),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_integral_additivity(self, lo_num, width_num, seed):
        # splitting a box on the cell grid in half preserves the integral
        rng = np.random.default_rng(seed)
        f = SampledFunction(1, (-1,), 2, rng.uniform(0, 2, 12))
        lo = Fraction(lo_num, 6)
        w = Fraction(2 * width_num, 6)
        whole = Box((lo,), w)
        left = Box((lo,), w / 2)
        right = Box((lo + w / 2,), w / 2)
        assert integral(f, whole) == pytest.approx(
            integral(f, left) + integral(f, right), rel=1e-12, abs=1e-15
        )


class TestAlgebra:
    def test_mul(self):
        f = SampledFunction(1, (0,), 1, np.array([1.0, 2.0, 3.0]))
        g = SampledFunction(1, (0,), 1, np.array([2.0, 0.5, 1.0]))
        np.testing.assert_allclose((f * g).values, [2.0, 1.0, 3.0])

    def test_power_negative_zero_convention(self):
        f = SampledFunction(1, (0,), 1, np.array([4.0, 0.0, 1.0]))
        g = f.power(-0.5)
        np.testing.assert_allclose(g.values, [0.5, 0.0, 1.0])

    @pytest.mark.parametrize("dim, n", [(1, 3 * 2 ** 10), (1, 96), (2, 48)])
    def test_masked_log_and_power_bits_of_two_step_forms(self, dim, n):
        # zero cells in short runs, so the masks switch on and off often;
        # in 1-D a zero cell's log is read back exactly from the table
        rng = np.random.default_rng(n + dim)
        for trial in range(5):
            v = np.exp(rng.uniform(-6, 6, (n,) * dim)).ravel()
            for start in rng.integers(0, v.size, v.size // 6):
                v[start:start + rng.integers(1, 4)] = 0.0
            w = SampledFunction(dim, (0,) * dim, 1, v.reshape((n,) * dim))
            table = sampled.log_prefix(w)
            assert np.array_equal(table.view(np.int64), cumsum_prefix(log_two_step(w.values)).view(np.int64))
            if dim == 1:
                assert np.all(np.diff(table)[w.values == 0] == 0)
            for e in (4.0, 2.0, 0.5, 1.0, 4 / 3, -1.0, -0.5, -3.0, -1 / 3, -4.0):
                got = w.power(e).values
                assert np.array_equal(got.view(np.int64), power_two_step(w.values, e).view(np.int64)), e
                assert np.all(got[w.values == 0] == 0)

    def test_power_zero_is_the_support(self):
        # 0^0 is taken as 0, as every power keeps zero cells at zero
        f = SampledFunction(1, (0,), 1, np.array([4.0, 0.0, 1e-300]))
        assert f.power(0.0).values.tolist() == [1.0, 0.0, 1.0]

    def test_restrict_to_cube(self):
        f = SampledFunction.constant(1.0, 1, (0,), 1, 6)
        g = f.restrict_to(DyadicCube(1, 1, (0,), (0,)))  # [0, 1/2)
        np.testing.assert_allclose(g.values, [1, 1, 1, 0, 0, 0])

    def test_refine_preserves_integrals(self):
        rng = np.random.default_rng(3)
        f = SampledFunction(2, (0, 0), 1, rng.uniform(0, 1, (6, 6)))
        g = f.refine().refine()
        assert g.ncells == 24
        box = Box((Fraction(1, 3), Fraction(1, 6)), Fraction(1, 2))
        assert integrate(g) == pytest.approx(integrate(f), rel=1e-14)
        assert integral(g, box) == pytest.approx(integral(f, box), rel=1e-13)

    def test_indicator_matches_box(self):
        box = Box((Fraction(1, 3),), Fraction(1, 3))
        f = SampledFunction.indicator(box, 1, (0,), 1, 6)
        np.testing.assert_allclose(f.values, [0, 0, 1, 1, 0, 0])


class TestNorms:
    def test_lp_norm_explicit(self):
        # ||f||_2 with f = (1,2,3) on thirds: sqrt((1+4+9)/3)
        f = SampledFunction(1, (0,), 1, np.array([1.0, 2.0, 3.0]))
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(14 / 3), rel=1e-14)

    def test_weighted_lp_norm(self):
        f = SampledFunction(1, (0,), 1, np.array([1.0, 2.0, 3.0]))
        w = SampledFunction(1, (0,), 1, np.array([3.0, 0.0, 1.0]))
        expect = ((1 * 3 + 0 + 27 * 1) / 3) ** (1 / 3)
        assert lp_norm(f, 3, weight=w) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("p", [0, -1, math.inf])
    def test_exponent_outside_zero_to_inf_refused(self, p):
        f = SampledFunction(1, (0,), 1, np.array([5.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        with pytest.raises(MeshError, match="p must be positive and finite"):
            lp_norm(f, p)
        with pytest.raises(MeshError, match="p must be positive and finite"):
            lp_norms(f, np.stack([f.values, f.values[::-1]]), p)

    def test_weak_norm_two_values(self):
        # g takes values 4 (on one cell) and 1 (on two cells), cells of
        # length 1/3: sup is max(4*(1/3)^{1/q}, 1*1^{1/q})
        g = SampledFunction(1, (0,), 1, np.array([4.0, 1.0, 1.0]))
        q = 2.0
        expect = max(4 * (1 / 3) ** (1 / q), 1.0)
        assert weak_lq_norms(g, g.values, q, unit(g))[0] == pytest.approx(expect, rel=1e-14)

    def test_weak_norm_with_ties(self):
        g = SampledFunction(1, (0,), 1, np.array([2.0, 2.0, 0.0]))
        # {g > t} has measure 2/3 for t < 2
        assert weak_lq_norms(g, g.values, 1, unit(g))[0] == pytest.approx(4 / 3, rel=1e-14)

    def test_weak_norm_weighted(self):
        g = SampledFunction(1, (0,), 1, np.array([5.0, 1.0, 0.0]))
        w = SampledFunction(1, (0,), 1, np.array([0.3, 0.9, 7.0]))
        # masses: cell0 0.1, cell1 0.3
        expect = max(5 * 0.1 ** 0.5, 1 * 0.4 ** 0.5)
        assert weak_lq_norms(g, g.values, 2, weight=w)[0] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("dim,lead", [(1, (5,)), (1, (2, 3)), (2, (4,))])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_weak_norms_rows_are_the_one_row_norm(self, dim, lead, weighted):
        # tied values sum their weights in the one-row order, and cells of
        # zero weight count for nothing; the last row is all zero
        rng = np.random.default_rng([dim, len(lead)])
        n = 12 if dim == 1 else 6
        values = rng.integers(0, 4, lead + (n,) * dim).astype(float) * 0.7
        values[(-1,) * len(lead)] = 0.0
        w = rng.uniform(0.1, 2.0, (n,) * dim)
        w[rng.random((n,) * dim) < 0.3] = 0.0
        g = SampledFunction.constant(0.0, dim, (0,) * dim, 1, n)
        weight = g.with_values(w) if weighted else unit(g)
        got = weak_lq_norms(g, values, 1.5, weight=weight)
        want = [weak_lq_norms(g, values[row], 1.5, weight=weight)[0] for row in np.ndindex(lead)]
        assert len(set(want)) > 2 and want[-1] == 0.0
        assert got == want

    def test_weak_norm_zero_function(self):
        g = SampledFunction.constant(0.0, 1, (0,), 1, 3)
        assert weak_lq_norms(g, g.values, 2, unit(g))[0] == 0.0

    @given(seed=st.integers(0, 500), pnum=st.integers(5, 40))
    @settings(max_examples=40, deadline=None)
    def test_chebyshev(self, seed, pnum):
        # weak L^q norm never exceeds the strong one
        rng = np.random.default_rng(seed)
        g = SampledFunction(1, (0,), 1, rng.uniform(0, 5, 12))
        q = pnum / 4
        assert weak_lq_norms(g, g.values, q, unit(g))[0] <= lp_norm(g, q) * (1 + 1e-12)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_holder(self, seed):
        rng = np.random.default_rng(seed)
        f = SampledFunction(1, (0,), 1, rng.uniform(0, 3, 12))
        g = SampledFunction(1, (0,), 1, rng.uniform(0, 3, 12))
        p = 1.7
        pp = p / (p - 1)
        assert integrate(f * g) <= lp_norm(f, p) * lp_norm(g, pp) * (1 + 1e-12)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        f = SampledFunction(2, (-2, 0), 4, rng.uniform(0, 1, (6, 6)))
        g = SampledFunction.from_obj(f.to_obj())
        assert f.same_mesh(g)
        np.testing.assert_array_equal(f.values, g.values)

    @pytest.mark.parametrize("count,values", [(-2, [1, 1, 1]), (-1, []), (0, [])])
    def test_cell_count_below_one_refused(self, count, values):
        # reshape would read a negative count as "infer"
        obj = {"dim": 1, "cells_per_axis": count, "values": values, "window": {"lower": [0], "side": 1}}
        with pytest.raises(MeshError, match=f"malformed field 'cells_per_axis': .*got {count}$"):
            SampledFunction.from_obj(obj)


    @pytest.mark.parametrize("side", [float("inf"), float("nan"), None])
    def test_window_side_must_be_rational(self, side):
        # json.load reads Infinity, which Fraction() raised as an uncaught OverflowError
        obj = {"dim": 1, "cells_per_axis": 3, "values": [1, 1, 1], "window": {"lower": [0], "side": side}}
        with pytest.raises(MeshError, match="malformed field 'window.side'"):
            SampledFunction.from_obj(obj)


class TestExponents:
    def test_sobolev_example(self):
        # p = 4/3, q = 4, alpha = 1/2 in dimension 1 is a Sobolev tuple
        e = ExponentTuple(1, "1/2", "4/3", 4)
        assert e.is_sobolev
        assert e.pprime == Fraction(4)
        assert e.qprime == Fraction(4, 3)
        assert e.n * (1 / e.p - 1 / e.q) == Fraction(1, 2)
        assert e.s_p == Fraction(2)
        # under Sobolev, s(p) coincides with q(1 - alpha/n)
        assert e.s_p == e.q * (1 - e.alpha / e.n)

    def test_s_dual_is_s_of_dual(self):
        e = ExponentTuple(1, "1/2", "4/3", 4)
        assert e.dual().s_p == e.s_dual
        assert e.s_dual == 1 + e.pprime / e.q

    def test_dual_involution(self):
        e = ExponentTuple(2, "3/4", "3/2", 5)
        assert e.dual().dual() == e

    def test_gamma_half(self):
        # p = q = 2, alpha = 1/2, n = 1: gamma = (1/2)/(1) = 1/2
        e = ExponentTuple(1, "1/2", 2, 2)
        assert e.gamma == Fraction(1, 2)

    def test_gamma_sobolev_is_one(self):
        # Sobolev tuples have gamma = alpha/(n * (1/n)(1 + alpha/n))... check
        # directly on an example instead of trusting a closed form
        e = ExponentTuple(1, "1/2", "4/3", 4)
        expect = (Fraction(1, 2) + Fraction(1, 4) - Fraction(3, 4)) / (
            1 + Fraction(1, 4) - Fraction(3, 4)
        )
        assert e.gamma == expect

    def test_sobolev_predicate_sharp(self):
        good = ExponentTuple(1, "1/4", "4/3", 2)
        assert good.is_sobolev
        off = ExponentTuple(1, "1/4", "4/3", Fraction(1999, 1000))
        assert not off.is_sobolev
        assert off.in_fractional_regime

    def test_classical_link_exponent_identity(self):
        # (s(p) - 1)/q == 1/p' holds identically in the exponents
        for args in [(1, "1/2", "4/3", 4), (2, "1/2", 3, 5), (1, 0, 2, 2)]:
            e = ExponentTuple(*args)
            assert (e.s_p - 1) / e.q == 1 / e.pprime

    def test_validation(self):
        with pytest.raises(MeshError):
            ExponentTuple(1, "3/2", 2, 2)  # alpha >= n
        with pytest.raises(MeshError):
            ExponentTuple(1, "1/2", 1, 2)  # p = 1 excluded
        with pytest.raises(MeshError):
            ExponentTuple(3, "1/2", 2, 2)  # unsupported dimension

    @pytest.mark.parametrize("n", [1.0, 1.7, True, "1", None])
    def test_n_must_be_an_integer(self, n):
        # a float n once built a tuple whose gamma raised TypeError, and True passed as 1
        with pytest.raises(MeshError, match="malformed field 'n'"):
            ExponentTuple(n, "1/2", "4/3", 4)

    def test_n_accepts_a_numpy_integer(self):
        assert ExponentTuple(np.int64(1), "1/2", "4/3", 4).n == 1

    def test_parse_rational(self):
        assert parse_rational("7/3") == Fraction(7, 3)
        assert parse_rational(0.25) == Fraction(1, 4)
        assert parse_rational(5) == Fraction(5)
        with pytest.raises(MeshError):
            parse_rational(float("inf"))

    def test_parse_rational_agrees_with_box(self):
        # one parser: a numpy integer is a rational for Box as for parse_rational
        assert parse_rational(np.int64(3)) == Fraction(3)
        assert Box((np.int64(3),), np.int64(1)) == Box((Fraction(3),), Fraction(1))
        for bad in (None, [1], float("nan")):
            with pytest.raises(MeshError):
                parse_rational(bad)

    def test_to_obj(self):
        e = ExponentTuple(1, "1/2", "4/3", 4)
        assert e.to_obj() == {"n": 1, "alpha": "1/2", "p": "4/3", "q": "4"}

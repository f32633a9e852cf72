"""Weight-constant scans: closed forms, dualities, and brute-force cross-checks."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from dyadlab.constants import (
    ConstantError,
    ConstantReport,
    WeightPair,
    _sup_scan,
    ainfty_exp,
    ainfty_m,
    ap_constant,
    apq_alpha,
    apq_alpha_constant,
    apq_bump,
    md_sp_testing,
    mixed_one_sup,
    outer_testing_constant,
    sawyer_maximal_testing,
)
from dyadlab.grid import DyadicCube, realize, shifted_grids
from dyadlab.operators import _grids, _shell_scans, dyadic_frac_maximal, frac_maximal
from dyadlab.orlicz import log_bump, power, power_log
from dyadlab.pairs import classical_pair
from dyadlab.sampled import ExponentTuple, SampledFunction, integrate, lp_norm
from dyadlab.scan import positive_cubes

import orlicz_average_oracle
from fraction_oracle import ancestor_chain, refuse_fraction_geometry


def rand_weight(dim, lower, side, ncells, seed, lo=0.2, hi=3.0):
    rng = np.random.default_rng(seed)
    shape = (ncells,) * dim
    return SampledFunction(dim, lower, side, rng.uniform(lo, hi, shape))


def ones(dim=1, lower=(0,), side=1, ncells=48):
    return SampledFunction.constant(1.0, dim, lower, side, ncells)


E_SOB = ExponentTuple(1, F(1, 2), F(4, 3), F(4))        # Sobolev scaling
E_FRAC = ExponentTuple(1, F(1, 4), F(4, 3), F(4))       # strict fractional regime
E_SOB2 = ExponentTuple(2, F(1), F(4, 3), F(4))          # 2-d Sobolev


def block_average(f, box):
    """Averages via direct block sums, independent of the scan machinery."""
    sl = f.cell_slices(box, require_aligned=True)
    return float(f.values[sl].sum()) * float(f.cell_volume) / float(box.volume())


def brute_apq(pair, e, min_level, max_level):
    au = float(1 / e.q)
    asig = float(1 / e.pprime)
    ex = float(e.alpha / e.n + 1 / e.q - 1 / e.p)
    window = pair.u.window
    best, best_cube = -math.inf, None
    for level in range(min_level, max_level + 1):
        for grid in shifted_grids(pair.u.dim, window, min_level, max_level):
            for cube in grid.cubes_at_level(level):
                box = realize(cube)
                if not window.contains_box(box):
                    continue
                val = (float(box.volume()) ** ex
                       * block_average(pair.u, box) ** au
                       * block_average(pair.sigma, box) ** asig)
                if val > best:
                    best, best_cube = val, cube
    return best, best_cube


class TestWeightPair:
    def test_mesh_mismatch_rejected(self):
        with pytest.raises(Exception):
            WeightPair(ones(ncells=48), ones(ncells=96))

    def test_classical_needs_positive_weight(self):
        v = np.ones(48)
        v[3] = 0.0
        with pytest.raises(ConstantError):
            classical_pair(SampledFunction(1, (0,), 1, v), E_SOB)

    def test_classical_powers(self):
        w = rand_weight(1, (0,), 1, 48, seed=2, lo=0.5, hi=2.0)
        pair = classical_pair(w, E_SOB)
        assert pair.u.values == approx(w.values ** float(E_SOB.q))
        assert pair.sigma.values == approx(w.values ** -float(E_SOB.pprime))
        assert pair.provenance == "classical"

    def test_roundtrip(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 3),
                          rand_weight(1, (0,), 1, 48, 4), provenance="test")
        back = WeightPair.from_obj(pair.to_obj())
        assert np.array_equal(back.u.values, pair.u.values)
        assert back.provenance == "test"


class TestApq:
    def test_ones_unit_cube(self):
        pair = WeightPair(ones(), ones())
        cube = DyadicCube(1, 0, (0,), (F(0),))
        assert apq_alpha(pair, E_SOB, cube) == 1.0

    def test_constant_pair_closed_form(self):
        cu, cs = 2.0, 5.0
        pair = WeightPair(ones() * cu, ones() * cs)
        cube = DyadicCube(1, 2, (1,), (F(0),))
        ex = float(E_FRAC.alpha / 1 + 1 / E_FRAC.q - 1 / E_FRAC.p)
        expect = 0.25 ** ex * cu ** 0.25 * cs ** 0.25
        assert apq_alpha(pair, E_FRAC, cube) == approx(expect, rel=1e-14)

    def test_percube_duality_bitwise(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 5),
                          rand_weight(1, (0,), 1, 48, 6))
        for cube in [DyadicCube(1, 0, (0,), (0,)),
                     DyadicCube(1, 2, (2,), (0,)),
                     DyadicCube(1, 3, (4,), (1,))]:
            a = apq_alpha(pair, E_SOB, cube)
            b = apq_alpha(pair.swapped(), E_SOB.dual(), cube)
            assert a == b

    def test_family_duality_bitwise(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 7),
                          rand_weight(1, (0,), 1, 48, 8))
        r1 = apq_alpha_constant(pair, E_FRAC)
        r2 = apq_alpha_constant(pair.swapped(), E_FRAC.dual())
        assert r1.value == r2.value
        assert r1.argmax == r2.argmax

    @pytest.mark.parametrize("dim,ncells,e", [(1, 48, E_SOB), (2, 12, E_SOB2)])
    def test_matches_brute(self, dim, ncells, e):
        pair = WeightPair(rand_weight(dim, (0,) * dim, 1, ncells, 9),
                          rand_weight(dim, (0,) * dim, 1, ncells, 10))
        rep = apq_alpha_constant(pair, e, min_level=0)
        val, cube = brute_apq(pair, e, 0, pair.u.max_aligned_level)
        assert rep.value == approx(val, rel=1e-13)
        assert rep.argmax == cube

    def test_family_growth_monotone(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 11),
                          rand_weight(1, (0,), 1, 48, 12))
        small = apq_alpha_constant(pair, E_SOB, min_level=0, max_level=2)
        mid = apq_alpha_constant(pair, E_SOB, min_level=0, max_level=3)
        big = apq_alpha_constant(pair, E_SOB, min_level=-2, max_level=4)
        assert small.value <= mid.value <= big.value

    def test_argmax_tie_break(self):
        # constant weights under Sobolev scaling score 1 on every cube;
        # the reported argmax is the first cube of the lowest level
        rep = apq_alpha_constant(WeightPair(ones(), ones()), E_SOB)
        assert rep.value == 1.0
        assert rep.argmax.level == 0
        assert rep.argmax.index == (0,)
        assert rep.argmax.shift == (F(0),)


class TestAinftyExp:
    def test_constant_weight(self):
        rep = ainfty_exp(ones() * 2.5)
        assert rep.value == approx(1.0, rel=1e-12)

    def test_jensen_floor(self):
        for seed in range(4):
            w = rand_weight(1, (0,), 1, 48, seed)
            assert ainfty_exp(w).value >= 1.0 - 1e-12

    def test_two_valued_closed_form(self):
        t = 7.0
        v = np.where(np.arange(48) < 24, t, 1.0)
        w = SampledFunction(1, (0,), 1, v)
        rep = ainfty_exp(w, shifts=[(0,)], min_level=0, max_level=0)
        assert rep.value == approx((1 + t) / 2 * t ** -0.5, rel=1e-13)
        assert rep.n_scored == 1

    def test_zero_cell_gives_infinity(self):
        v = np.ones(48)
        v[5] = 0.0
        rep = ainfty_exp(SampledFunction(1, (0,), 1, v))
        assert math.isinf(rep.value)
        obj = rep.to_obj()
        assert obj["value"] is None and obj["infinite"] is True

    def test_zero_weight_skipped(self):
        rep = ainfty_exp(SampledFunction.constant(0.0, 1, (0,), 1, 48))
        assert rep.value == 0.0
        assert rep.argmax is None
        assert rep.n_scored == 0 and rep.n_skipped > 0


class TestAinftyM:
    def test_constant_weight_is_one(self):
        rep = ainfty_m(ones(ncells=24) * 3.0, min_level=0)
        assert rep.value == approx(1.0, rel=1e-12)

    def test_floor_and_exp_comparison(self):
        for seed in (0, 1):
            w = rand_weight(1, (0,), 1, 48, seed)
            m = ainfty_m(w, min_level=0).value
            x = ainfty_exp(w, min_level=0).value
            assert m >= 1.0 - 1e-12
            assert m <= 4.0 * x

    def test_steep_weight_m_much_smaller(self):
        # two-valued far-apart weight: the exponential constant explodes
        # while the maximal-function flavor stays moderate
        v = np.where(np.arange(48) < 24, 1.0e4, 1.0)
        w = SampledFunction(1, (0,), 1, v)
        m = ainfty_m(w, min_level=0).value
        x = ainfty_exp(w, min_level=0).value
        assert x > 100.0
        assert m < x / 10.0


class TestApConstant:
    def test_constant_weight(self):
        rep = ap_constant(ones() * 4.0, F(3, 2))
        assert rep.value == approx(1.0, rel=1e-12)

    def test_jensen_floor(self):
        for seed in range(4):
            w = rand_weight(1, (0,), 1, 48, seed)
            assert ap_constant(w, 2).value >= 1.0 - 1e-12

    def test_classical_link_exact(self):
        # u = w^q, sigma = w^{-p'}: the pair constant equals the one-weight
        # Muckenhoupt constant of w^q at the linked exponent, to the bit
        w = rand_weight(1, (0,), 1, 48, 20, lo=0.5, hi=2.0)
        pair = classical_pair(w, E_SOB)
        a_pair = apq_alpha_constant(pair, E_SOB)
        a_one = ap_constant(w.power(float(E_SOB.q)), E_SOB.s_p)
        assert a_pair.value == approx(a_one.value ** float(1 / E_SOB.q), rel=1e-13)
        assert a_pair.argmax == a_one.argmax

    def test_validation(self):
        with pytest.raises(ConstantError):
            ap_constant(ones(), 1)
        v = np.ones(48)
        v[0] = 0.0
        with pytest.raises(ConstantError):
            ap_constant(SampledFunction(1, (0,), 1, v), 2)


class TestMixed:
    def test_unit_sigma_reduces_to_apq(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 13), ones())
        assert mixed_one_sup(pair, E_SOB).value == apq_alpha_constant(pair, E_SOB).value

    def test_one_sup_below_two_sups(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 14),
                          rand_weight(1, (0,), 1, 48, 15))
        mixed = mixed_one_sup(pair, E_SOB).value
        two = (apq_alpha_constant(pair, E_SOB).value
               * ainfty_exp(pair.sigma).value ** float(1 / E_SOB.q))
        assert mixed <= two * (1 + 1e-12)

    def test_ap_m_flavor_ones(self):
        pair = WeightPair(ones(ncells=24), ones(ncells=24))
        rep = mixed_one_sup(pair, E_SOB, flavor="ap_m", min_level=0)
        assert rep.value == approx(1.0, rel=1e-12)

    def test_ap_m_below_two_sups(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 16),
                          rand_weight(1, (0,), 1, 48, 17))
        mixed = mixed_one_sup(pair, E_SOB, flavor="ap_m", min_level=0).value
        two = (ap_constant(pair.sigma, E_SOB.s_dual, min_level=0).value
               ** float(1 / E_SOB.pprime)
               * ainfty_m(pair.sigma, min_level=0).value ** float(1 / E_SOB.q))
        assert mixed <= two * (1 + 1e-12)

    def test_unknown_flavor(self):
        with pytest.raises(ConstantError):
            mixed_one_sup(WeightPair(ones(), ones()), E_SOB, flavor="nope")


class TestBump:
    def test_power_bump_reduces_exactly(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 18),
                          rand_weight(1, (0,), 1, 48, 19))
        rep = apq_bump(pair, E_SOB, power(float(E_SOB.pprime)))
        assert rep.value == apq_alpha_constant(pair, E_SOB).value

    def test_log_bump_dominates_plain(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 21),
                          rand_weight(1, (0,), 1, 48, 22))
        plain = apq_alpha_constant(pair, E_SOB).value
        bumped = apq_bump(pair, E_SOB, power_log(float(E_SOB.pprime), 0.5)).value
        assert bumped >= plain - 1e-12

    def test_generic_path_matches_power(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 23),
                          rand_weight(1, (0,), 1, 48, 24))
        exact = apq_bump(pair, E_SOB, power(float(E_SOB.pprime)),
                         min_level=0, max_level=3).value
        near = apq_bump(pair, E_SOB, power_log(float(E_SOB.pprime), 1e-12),
                        min_level=0, max_level=3).value
        assert near == approx(exact, rel=1e-6)

    def test_double_bump_dominates_single(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 25),
                          rand_weight(1, (0,), 1, 48, 26))
        phi = power_log(float(E_SOB.pprime), 0.4)
        psi = power_log(float(E_SOB.q), 0.3)
        single = apq_bump(pair, E_SOB, phi, min_level=0, max_level=3).value
        double = apq_bump(pair, E_SOB, phi, psi=psi, side="both",
                          min_level=0, max_level=3).value
        assert double >= single - 1e-12

    @pytest.mark.parametrize("side", ["second", "both"])
    @pytest.mark.parametrize("bump", ["power_root", "power_3", "log_bump"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_parent_paths(self, dim, bump, side):
        # the power path at r equal to the root and away from it, and the
        # Luxemburg solve, against the code each side had of its own
        e = E_SOB if dim == 1 else E_SOB2
        ncells = 48 if dim == 1 else 12
        pair = WeightPair(rand_weight(dim, (0,) * dim, 1, ncells, 27), rand_weight(dim, (0,) * dim, 1, ncells, 28))
        young = {"power_root": power, "power_3": lambda root: power(3.0),
                 "log_bump": lambda root: log_bump(root, 0.5)}[bump]
        phi = young(float(e.pprime))
        psi = None if side == "second" else young(float(e.q))
        levels = {} if bump != "log_bump" else {"min_level": 0, "max_level": 2}
        got = apq_bump(pair, e, phi, side=side, psi=psi, **levels)
        assert got.n_scored > 0
        assert got == orlicz_average_oracle.apq_bump(pair, e, phi, side=side, psi=psi, **levels)

    def test_power_path_over_zero_block_2d(self):
        # a 2-D prefix-sum difference over a block of zero cells can be
        # -roundoff (on a few of these draws): clamped at 0, as in
        # orlicz_maximal, its cube is scored rather than skipped on a NaN root
        for seed in range(40):
            v = np.random.default_rng(seed).exponential(1.0, (12, 12))
            v[:6, 4:] = 0.0
            pair = WeightPair(rand_weight(2, (-1, 0), 2, 12, seed + 100), SampledFunction(2, (-1, 0), 2, v))
            assert apq_bump(pair, E_SOB2, power(3.0)).n_skipped == 0

    def test_validation(self):
        pair = WeightPair(ones(), ones())
        with pytest.raises(ConstantError):
            apq_bump(pair, E_SOB, power(2.0), side="both")
        with pytest.raises(ConstantError):
            apq_bump(pair, E_SOB, power(2.0), side="sideways")


def brute_outer_testing(pair, e, min_level, max_level):
    from dyadlab.operators import outer_riesz, _grids
    from dyadlab.scan import inside_window_mask, level_scan

    best, best_cube = -math.inf, None
    for level in range(min_level, max_level + 1):
        for grid in _grids(pair.u, None, min_level, max_level):
            scan = level_scan(pair.u, grid, level)
            inside = inside_window_mask(scan)
            for pos in np.ndindex(scan.shape):
                if not inside[pos]:
                    continue
                cube = scan.cube_at(pos)
                mass = integrate(pair.sigma, realize(cube))
                if mass <= 0:
                    continue
                g = outer_riesz(pair.sigma, cube, float(e.alpha))
                val = lp_norm(g, float(e.q), weight=pair.u) * mass ** (-float(1 / e.p))
                if val > best:
                    best, best_cube = val, cube
    return best, best_cube


class TestOuterTesting:
    @pytest.mark.parametrize("dim,ncells,e", [(1, 48, E_SOB), (2, 12, E_SOB2)])
    def test_matches_outer_riesz_route(self, dim, ncells, e):
        pair = WeightPair(rand_weight(dim, (0,) * dim, 1, ncells, 27),
                          rand_weight(dim, (0,) * dim, 1, ncells, 28))
        rep = outer_testing_constant(pair, e, min_level=-1)
        lo, hi = -1, pair.u.max_aligned_level
        val, cube = brute_outer_testing(pair, e, lo, hi)
        assert rep.value == approx(val, rel=1e-12)
        assert rep.argmax == cube

    def test_seed_cube_closed_form(self):
        # u supported inside one cube Q0, sigma = 1: the potential is the
        # constant coeff |Q0|^{alpha/n-1} sigma(Q0) on Q0 itself
        e = E_SOB
        box = realize(DyadicCube(1, 2, (1,), (F(0),)))   # [1/4, 1/2)
        u = SampledFunction.indicator(box, 1, (0,), 1, 48)
        pair = WeightPair(u, ones())
        rep = outer_testing_constant(pair, e, shifts=[(0,)],
                                     min_level=2, max_level=2)
        coeff = 1.0 / (1.0 - 2.0 ** (float(e.alpha) - 1))
        vol = 0.25
        seed_val = (coeff * vol ** (float(e.alpha) - 1) * vol
                    * vol ** float(1 / e.q) * vol ** (-float(1 / e.p)))
        assert rep.value >= seed_val - 1e-12

    def test_bounded_by_global_maximal_testing(self):
        # the shell potential is dominated pointwise by coeff * M_alpha of
        # the same cut-off density, so the testing constants inherit the
        # bound when the maximal side is integrated over the whole window
        from dyadlab.operators import _grids
        from dyadlab.scan import inside_window_mask, level_scan

        pair = WeightPair(rand_weight(1, (0,), 1, 48, 29),
                          rand_weight(1, (0,), 1, 48, 30))
        e = E_SOB
        outer = outer_testing_constant(pair, e, min_level=0).value
        coeff = 1.0 / (1.0 - 2.0 ** (float(e.alpha) - 1))
        best = 0.0
        for grid in _grids(pair.u, None, 0, None):
            for level in grid.levels:
                scan = level_scan(pair.u, grid, level)
                inside = inside_window_mask(scan)
                for pos in np.ndindex(scan.shape):
                    if not inside[pos]:
                        continue
                    box = realize(scan.cube_at(pos))
                    mass = integrate(pair.sigma, box)
                    if mass <= 0:
                        continue
                    m = frac_maximal(pair.sigma.restrict_to(box), float(e.alpha),
                                     min_level=0)
                    val = lp_norm(m, float(e.q), weight=pair.u) * mass ** (-float(1 / e.p))
                    best = max(best, val)
        assert outer <= coeff * best * (1 + 1e-10)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ConstantError):
            outer_testing_constant(WeightPair(ones(), ones()),
                                   ExponentTuple(1, F(0), F(4, 3), F(4)))


class TestSawyer:
    def test_ones_closed_form(self):
        # alpha = 0, u = sigma = 1: per-cube value is |Q|^{1/p'-1/q'}; the
        # exponent is negative here so the finest cube wins
        e = ExponentTuple(1, F(0), F(4, 3), F(4))
        rep = sawyer_maximal_testing(WeightPair(ones(), ones()), e)
        expo = float(1 / e.pprime - 1 / e.qprime)
        assert rep.value == approx((2.0 ** -4) ** expo, rel=1e-12)
        assert rep.argmax.level == 4
        assert rep.value >= 1.0

    def test_forward_dual_relation_bitwise(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 31),
                          rand_weight(1, (0,), 1, 48, 32))
        a = sawyer_maximal_testing(pair, E_SOB, min_level=0, which="dual")
        b = sawyer_maximal_testing(pair.swapped(), E_SOB.dual(),
                                   min_level=0, which="forward")
        assert a.value == b.value
        assert a.argmax == b.argmax

    def test_single_level_direct(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 33),
                          rand_weight(1, (0,), 1, 48, 34))
        e = E_SOB
        rep = sawyer_maximal_testing(pair, e, shifts=[(0,)],
                                     min_level=1, max_level=1, which="forward")
        best = -math.inf
        for m in range(2):
            box = realize(DyadicCube(1, 1, (m,), (F(0),)))
            cut = pair.u.restrict_to(box)
            mfun = frac_maximal(cut, float(e.alpha), min_level=1, max_level=1)
            num = integrate(mfun.power(float(e.pprime)) * pair.sigma, box)
            val = num ** float(1 / e.pprime) * integrate(pair.u, box) ** -float(1 / e.qprime)
            best = max(best, val)
        assert rep.value == approx(best, rel=1e-12)

    def test_zero_inner_weight(self):
        rep = sawyer_maximal_testing(
            WeightPair(SampledFunction.constant(0.0, 1, (0,), 1, 48), ones()),
            E_SOB, which="forward")
        assert rep.value == 0.0
        assert rep.argmax is None

    def test_unknown_side(self):
        with pytest.raises(ConstantError):
            sawyer_maximal_testing(WeightPair(ones(), ones()), E_SOB, which="up")


class TestMdSp:
    def test_ones_equals_one(self):
        rep = md_sp_testing(WeightPair(ones(), ones()), E_SOB)
        assert rep.value == approx(1.0, rel=1e-12)

    def test_needs_sobolev(self):
        with pytest.raises(ConstantError):
            md_sp_testing(WeightPair(ones(), ones()), E_FRAC)

    def test_zero_sigma_skipped(self):
        rep = md_sp_testing(
            WeightPair(ones(), SampledFunction.constant(0.0, 1, (0,), 1, 48)), E_SOB)
        assert rep.value == 0.0 and rep.argmax is None

    def test_family_growth_monotone(self):
        pair = WeightPair(rand_weight(1, (0,), 1, 48, 35),
                          rand_weight(1, (0,), 1, 48, 36))
        small = md_sp_testing(pair, E_SOB, min_level=0, max_level=2).value
        big = md_sp_testing(pair, E_SOB, min_level=0, max_level=4).value
        assert small <= big + 1e-15


class TestReportSerialization:
    def test_to_obj_fields(self):
        rep = apq_alpha_constant(
            WeightPair(rand_weight(1, (0,), 1, 48, 37),
                       rand_weight(1, (0,), 1, 48, 38)), E_SOB)
        obj = rep.to_obj()
        assert obj["name"] == "apq_alpha"
        assert obj["value"] == rep.value
        assert obj["infinite"] is False
        assert obj["vacuous"] is False
        assert obj["argmax"]["level"] == rep.argmax.level
        assert obj["min_level"] == rep.min_level
        assert ["0"] in obj["shifts"] or ["0", "0"] in obj["shifts"]

    def test_no_scored_cube_is_vacuous(self):
        # levels -4..-1 hold no cube inside the unit window
        pair = classical_pair(rand_weight(1, (0,), 1, 48, 5), E_SOB)
        obj = apq_alpha_constant(pair, E_SOB, min_level=-4, max_level=-1).to_obj()
        assert obj["value"] == 0.0 and obj["n_scored"] == 0 and obj["n_skipped"] == 0
        assert obj["vacuous"] is True


def brute_inside_counts(dens, min_level, max_level):
    """(inside cubes, inside cubes where dens vanishes) over every shift."""
    window = dens.window
    inside = zero = 0
    for grid in shifted_grids(dens.dim, window, min_level, max_level):
        for level in range(min_level, max_level + 1):
            for cube in grid.cubes_at_level(level):
                box = realize(cube)
                if window.contains_box(box):
                    inside += 1
                    zero += not dens.values[dens.cell_slices(box, require_aligned=True)].any()
    return inside, zero


class TestMassGate:
    @pytest.mark.parametrize("dim,lower,ncells,e", [(1, (-1,), 48, E_SOB), (2, (-1, 0), 12, E_SOB2)])
    def test_skipped_cubes_are_the_zero_mass_ones(self, dim, lower, ncells, e):
        block = (slice(ncells // 4, ncells // 2),) * dim
        u = rand_weight(dim, lower, 2, ncells, 31).values.copy()
        sigma = rand_weight(dim, lower, 2, ncells, 32).values.copy()
        u[block] = 0.0
        sigma[block] = 0.0
        pair = WeightPair(SampledFunction(dim, lower, 2, u), SampledFunction(dim, lower, 2, sigma))
        lv = dict(min_level=-1, max_level=pair.u.max_aligned_level)
        cases = [
            (pair.u, sawyer_maximal_testing(pair, e, **lv)),
            (pair.sigma, sawyer_maximal_testing(pair, e, which="dual", **lv)),
            (pair.sigma, ainfty_m(pair.sigma, **lv)),
            (pair.sigma, md_sp_testing(pair, e, **lv)),
            (pair.sigma, outer_testing_constant(pair, e, **lv)),
        ]
        for dens, rep in cases:
            inside, zero = brute_inside_counts(dens, **lv)
            assert zero > 0, rep.name
            assert rep.n_skipped == zero, rep.name
            assert rep.n_scored == inside - zero, rep.name

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_zero_block_roundoff_2d(self, seed):
        # On [-1,1)x[0,2) with 12^2 cells the prefix-sum integral over a
        # block of zero cells is roundoff of either sign: the testing
        # integrals must not take a root of a negative number, and the
        # vectorized A-infinity-exp scorers must skip the zero cube.
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.2, 3.0, (12, 12))
        sigma = rng.uniform(0.2, 3.0, (12, 12))
        u[3:6, 3:6] = 0.0
        pair = WeightPair(SampledFunction(2, (-1, 0), 2, u), SampledFunction(2, (-1, 0), 2, sigma))
        lv = dict(min_level=-1, max_level=1)
        for rep in (
            sawyer_maximal_testing(pair, E_SOB2, **lv),
            sawyer_maximal_testing(pair, E_SOB2, which="dual", **lv),
            md_sp_testing(pair, E_SOB2, **lv),
        ):
            assert math.isfinite(rep.value) and rep.n_scored > 0, rep.name
        inside, zero = brute_inside_counts(pair.u, **lv)
        assert zero > 0
        for rep in (ainfty_exp(pair.u, **lv), mixed_one_sup(pair.swapped(), E_SOB2, **lv)):
            assert rep.n_skipped == zero, rep.name
            assert rep.n_scored == inside - zero, rep.name


@pytest.mark.parametrize("seed", range(30))
def test_apq_zero_block_skipped_2d(seed):
    # u and sigma vanish on one block: the joint constant skips exactly the
    # inside cubes of zero cells, whatever the sign of the prefix-sum
    # roundoff over them, and takes no power of a negative average
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 3.0, (12, 12))
    sigma = rng.uniform(0.2, 3.0, (12, 12))
    u[3:6, 3:6] = 0.0
    sigma[3:6, 3:6] = 0.0
    pair = WeightPair(SampledFunction(2, (-1, 0), 2, u), SampledFunction(2, (-1, 0), 2, sigma))
    lv = dict(min_level=-1, max_level=1)
    inside, zero = brute_inside_counts(pair.u, **lv)
    assert zero > 0
    apq = apq_alpha_constant(pair, E_SOB2, **lv)
    assert math.isfinite(apq.value)
    for rep in (apq, mixed_one_sup(pair, E_SOB2, **lv)):
        assert rep.n_skipped == zero, rep.name
        assert rep.n_scored == inside - zero, rep.name


def test_apq_skips_zero_mass_cubes_1d():
    # a cube where one weight vanishes scored exactly 0: skipping it moves
    # the counts, never the value or the argmax
    v = rand_weight(1, (-1,), 2, 48, 41).values.copy()
    v[12:24] = 0.0
    pair = WeightPair(SampledFunction(1, (-1,), 2, v), rand_weight(1, (-1,), 2, 48, 42))
    rep = apq_alpha_constant(pair, E_SOB)
    inside, zero = brute_inside_counts(pair.u, rep.min_level, rep.max_level)
    assert zero > 0
    assert rep.n_skipped == zero and rep.n_scored == inside - zero
    best, best_cube = brute_apq(pair, E_SOB, rep.min_level, rep.max_level)
    assert rep.value == approx(best, rel=1e-12)
    assert rep.argmax == best_cube


# === the per-cube Fujii path, kept as an oracle =============================


def _cube_loop(dens, score):
    """Adapt a scalar per-cube functional to _sup_scan form: score(cube,
    box, mass) runs on the inside cubes that pass scan.positive_cubes, with
    mass = dens(Q), in row-major order; the other cubes are skipped."""

    def fn(scan, inside):
        masses, live = positive_cubes(scan, inside, dens)
        vals = [score(cube, realize(cube), float(masses[pos]))
                for pos in map(tuple, np.argwhere(live)) for cube in [scan.cube_at(pos)]]
        return np.array(vals, dtype=float), live

    return fn


def fujii_oracle(w, box, mass, min_level, max_level):
    """w(Q)^{-1} int_Q M(w chi_Q): one full-mesh frac_maximal per cube."""
    m = frac_maximal(w.restrict_to(box), 0.0, min_level=min_level, max_level=max_level)
    return integrate(m, box) / mass


def ainfty_m_oracle(w, shifts=None, min_level=None, max_level=None):
    def score(cube, box, mass):
        return fujii_oracle(w, box, mass, min_level, max_level)

    return _sup_scan("ainfty_m", w, shifts, min_level, max_level, _cube_loop(w, score))


def mixed_ap_m_oracle(pair, e, shifts=None, min_level=None, max_level=None):
    w = pair.sigma
    r = e.s_dual
    dual_pow = w.power(float(1 - r / (r - 1)))
    rm1, beta, gamma = float(r - 1), float(1 / e.pprime), float(1 / e.q)

    def score(cube, box, mass):
        vol = float(box.volume())
        ms = integrate(dual_pow, box) / vol
        fujii = fujii_oracle(w, box, mass, min_level, max_level)
        return (mass / vol * ms ** rm1) ** beta * fujii ** gamma

    return _sup_scan("mixed_ap_m", w, shifts, min_level, max_level, _cube_loop(w, score))


def assert_matches_oracle(rep, want):
    assert rep.name == want.name
    assert rep.value == approx(want.value, rel=1e-12)
    assert (rep.argmax, rep.n_scored, rep.n_skipped) == (want.argmax, want.n_scored, want.n_skipped)
    assert (rep.min_level, rep.max_level, rep.shifts) == (want.min_level, want.max_level, want.shifts)


FUJII_MESHES = [(1, (-1,), 24), (1, (-1,), 48), (2, (-1, 0), 12)]
FUJII_LEVELS = [{}, dict(min_level=0), dict(min_level=-1, max_level=1)]


class TestFujiiBatched:
    """ainfty_m and mixed_one_sup(flavor="ap_m") score the Fujii-Wilson
    constant from one cut maximal per scan; the per-cube path above is the
    oracle."""

    @given(
        mesh=st.sampled_from(FUJII_MESHES),
        levels=st.sampled_from(FUJII_LEVELS),
        zero_shift_only=st.booleans(),
        zero_block=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_per_cube_oracle(self, mesh, levels, zero_shift_only, zero_block, seed):
        dim, lower, ncells = mesh
        shifts = [(0,) * dim] if zero_shift_only else None
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.2, 3.0, (ncells,) * dim)
        sigma = rng.uniform(0.2, 3.0, (ncells,) * dim)
        pair = WeightPair(SampledFunction(dim, lower, 2, u), SampledFunction(dim, lower, 2, sigma))
        e = E_SOB if dim == 1 else E_SOB2
        if zero_block:
            u[(slice(ncells // 4, ncells // 2),) * dim] = 0.0
            w = SampledFunction(dim, lower, 2, u)
            assert_matches_oracle(ainfty_m(w, shifts, **levels), ainfty_m_oracle(w, shifts, **levels))
        else:
            assert_matches_oracle(ainfty_m(pair.u, shifts, **levels),
                                  ainfty_m_oracle(pair.u, shifts, **levels))
            assert_matches_oracle(mixed_one_sup(pair, e, shifts, flavor="ap_m", **levels),
                                  mixed_ap_m_oracle(pair, e, shifts, **levels))

    def test_matches_per_cube_oracle_2d_24(self):
        w = rand_weight(2, (-1, 0), 2, 24, 51)
        assert_matches_oracle(ainfty_m(w), ainfty_m_oracle(w))


# === the per-cube Sawyer path, kept as an oracle ============================


def sawyer_oracle(pair, e, shifts=None, min_level=None, max_level=None, which="forward", inner_shifts=None):
    """sawyer_maximal_testing with one full-mesh frac_maximal per cube."""
    alpha = float(e.alpha)
    if which == "forward":
        inner, outer, p_in, p_norm = pair.u, pair.sigma, float(e.pprime), float(1 / e.qprime)
    else:
        inner, outer, p_in, p_norm = pair.sigma, pair.u, float(e.q), float(1 / e.p)

    def score(cube, box, mass):
        m = frac_maximal(inner.restrict_to(box), alpha, shifts=inner_shifts,
                         min_level=min_level, max_level=max_level)
        # the integrand is nonnegative: clamp prefix-sum roundoff at 0
        num = max(integrate(m.power(p_in) * outer, box), 0.0)
        return num ** (1.0 / p_in) * mass ** (-p_norm)

    return _sup_scan(f"sawyer_{which}", pair.u, shifts, min_level, max_level, _cube_loop(inner, score))


class TestSawyerBatched:
    """sawyer_maximal_testing scores both sides from one cut maximal per
    scan; the per-cube path above is the oracle."""

    @pytest.mark.parametrize("which", ["forward", "dual"])
    @pytest.mark.parametrize("mesh", FUJII_MESHES)
    @given(
        levels=st.sampled_from(FUJII_LEVELS),
        grids=st.sampled_from(["all", "zero", "zero_inner"]),
        zero_block=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_per_cube_oracle(self, mesh, which, levels, grids, zero_block, seed):
        dim, lower, ncells = mesh
        zero = [(0,) * dim]
        kw = dict(levels, which=which, shifts=None if grids == "all" else zero,
                  inner_shifts=zero if grids == "zero_inner" else None)
        rng = np.random.default_rng(seed)
        u = rng.uniform(0.2, 3.0, (ncells,) * dim)
        sigma = rng.uniform(0.2, 3.0, (ncells,) * dim)
        if zero_block:
            u[(slice(ncells // 4, ncells // 2),) * dim] = 0.0
            sigma[(slice(ncells // 2, 3 * ncells // 4),) * dim] = 0.0
        pair = WeightPair(SampledFunction(dim, lower, 2, u), SampledFunction(dim, lower, 2, sigma))
        e = E_SOB if dim == 1 else E_SOB2
        assert_matches_oracle(sawyer_maximal_testing(pair, e, **kw), sawyer_oracle(pair, e, **kw))

    @pytest.mark.parametrize("which", ["forward", "dual"])
    def test_matches_per_cube_oracle_2d_24(self, which):
        # each weight vanishes on a block where the other has mass, so the
        # outer integral over some live cubes is 2-D prefix-sum roundoff
        u = rand_weight(2, (-1, 0), 2, 24, 52).values.copy()
        sigma = rand_weight(2, (-1, 0), 2, 24, 53).values.copy()
        u[6:12, 6:12] = 0.0
        sigma[12:18, 12:18] = 0.0
        pair = WeightPair(SampledFunction(2, (-1, 0), 2, u), SampledFunction(2, (-1, 0), 2, sigma))
        assert_matches_oracle(sawyer_maximal_testing(pair, E_SOB2, which=which),
                              sawyer_oracle(pair, E_SOB2, which=which))


# === the per-cube testing paths, kept as oracles ============================


def md_sp_oracle(pair, e, shifts=None, min_level=None, max_level=None):
    """md_sp_testing with one full-mesh dyadic maximal per cube."""
    s, inv_q = float(e.s_p), float(1 / e.q)

    def score(cube, box, mass):
        m = dyadic_frac_maximal(pair.sigma.restrict_to(box), 0.0, shift=cube.shift,
                                min_level=min_level, max_level=max_level)
        # the integrand is nonnegative: clamp prefix-sum roundoff at 0
        num = max(integrate(m.power(s) * pair.u, box), 0.0)
        return num ** inv_q * mass ** (-inv_q)

    return _sup_scan("md_sp_testing", pair.u, shifts, min_level, max_level, _cube_loop(pair.sigma, score))


def outer_testing_oracle(pair, e, shifts=None, min_level=None, max_level=None):
    """outer_testing_constant with one ancestor chain of boxes per cube."""
    n, alpha = e.n, float(e.alpha)
    coeff = 1.0 / (1.0 - 2.0 ** (alpha - n))
    shell_pow = float((e.alpha / n - 1) * e.q)
    inv_q, inv_pprime = float(1 / e.q), float(1 / e.pprime)

    def score(cube, box, mass):
        total = prev = 0.0
        for anc in ancestor_chain(cube, pair.u.window):
            b = realize(anc)
            here = integrate(pair.u, b)
            total += float(b.volume()) ** shell_pow * (here - prev)
            prev = here
        # the chain sum is nonnegative: clamp roundoff at 0
        return coeff * mass ** inv_pprime * max(total, 0.0) ** inv_q

    return _sup_scan("outer_testing", pair.u, shifts, min_level, max_level, _cube_loop(pair.sigma, score))


SWEEP_MESHES = FUJII_MESHES + [(2, (-1, -1), 12)]
SWEEP_LEVELS = FUJII_LEVELS + [dict(min_level=1)]


def sweep_pair(dim, lower, ncells, zeros, seed):
    """A random pair on [lower, lower + 2)^dim.  zeros="blocks" clears u and
    sigma on different blocks; zeros="corner" clears u on the top half of
    every axis, so on [-1,1)^2 the zero-shift chains of that quadrant never
    leave it and their sums are 2-D prefix-sum roundoff of either sign."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.2, 3.0, (ncells,) * dim)
    sigma = rng.uniform(0.2, 3.0, (ncells,) * dim)
    if zeros == "blocks":
        u[(slice(ncells // 4, ncells // 2),) * dim] = 0.0
        sigma[(slice(ncells // 2, 3 * ncells // 4),) * dim] = 0.0
    elif zeros == "corner":
        u[(slice(ncells // 2, ncells),) * dim] = 0.0
    return WeightPair(SampledFunction(dim, lower, 2, u), SampledFunction(dim, lower, 2, sigma))


class TestTestingSweeps:
    """md_sp_testing scores from one cut maximal per scan and
    outer_testing_constant from one top-down sweep per grid; the per-cube
    paths above are the oracles."""

    @pytest.mark.parametrize("mesh", SWEEP_MESHES)
    @given(
        levels=st.sampled_from(SWEEP_LEVELS),
        zero_shift_only=st.booleans(),
        zeros=st.sampled_from(["none", "blocks", "corner"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_matches_per_cube_oracle(self, mesh, levels, zero_shift_only, zeros, seed):
        dim, lower, ncells = mesh
        shifts = [(0,) * dim] if zero_shift_only else None
        pair = sweep_pair(dim, lower, ncells, zeros, seed)
        e = E_SOB if dim == 1 else E_SOB2
        assert_matches_oracle(md_sp_testing(pair, e, shifts, **levels), md_sp_oracle(pair, e, shifts, **levels))
        assert_matches_oracle(outer_testing_constant(pair, e, shifts, **levels),
                              outer_testing_oracle(pair, e, shifts, **levels))

    @pytest.mark.parametrize("levels", SWEEP_LEVELS)
    def test_outer_sums_clamped_at_zero(self, levels):
        # without the clamp a negative roundoff sum takes a NaN root and the
        # cube moves from scored to skipped
        pair = sweep_pair(2, (-1, -1), 12, "corner", 3)
        zero = [(0, 0)]
        rep = outer_testing_constant(pair, E_SOB2, zero, **levels)
        assert_matches_oracle(rep, outer_testing_oracle(pair, E_SOB2, zero, **levels))
        assert rep.n_skipped == 0

    @pytest.mark.parametrize("levels", SWEEP_LEVELS)
    @pytest.mark.parametrize("mesh", SWEEP_MESHES)
    def test_ancestor_chain_only_on_coarsest_cubes(self, mesh, levels):
        # the sweep needs the ancestor chains of the coarsest cubes only, and
        # of those only where they end: it is seeded at the top of the shell
        # scans, which is the coarsest level any of those chains reaches
        dim, lower, ncells = mesh
        pair = sweep_pair(dim, lower, ncells, "none", 5)
        for grid in _grids(pair.u, None, levels.get("min_level"), levels.get("max_level")):
            top = _shell_scans(pair.u, grid.shift, grid.min_level, grid.max_level)[0]
            ends = [ancestor_chain(cube, pair.u.window)[-1].level for cube in grid.cubes_at_level(grid.min_level)]
            assert min(ends) == top.level

    @pytest.mark.parametrize("mesh", SWEEP_MESHES)
    def test_no_fraction_geometry(self, monkeypatch, mesh):
        # the sums come from the integer scan plans, not from boxes per cube
        dim, lower, ncells = mesh
        pair = sweep_pair(dim, lower, ncells, "blocks", 6)
        e = E_SOB if dim == 1 else E_SOB2
        levels = dict(min_level=1)
        want = outer_testing_oracle(pair, e, **levels)
        refuse_fraction_geometry(monkeypatch)
        assert_matches_oracle(outer_testing_constant(pair, e, **levels), want)


class TestExponentDimension:
    """Every constant that takes exponents refuses ones of another
    dimension than the weights."""

    PAIR = WeightPair(rand_weight(2, (0, 0), 1, 12, 61), rand_weight(2, (0, 0), 1, 12, 62))

    @pytest.mark.parametrize("call", [
        lambda pair, e: apq_alpha(pair, e, DyadicCube(2, 0, (0, 0), (F(0), F(0)))),
        apq_alpha_constant,
        lambda pair, e: apq_bump(pair, e, power(4)),
        lambda pair, e: mixed_one_sup(pair, e, flavor="apq_exp"),
        lambda pair, e: mixed_one_sup(pair, e, flavor="ap_m"),
        lambda pair, e: sawyer_maximal_testing(pair, e, which="forward"),
        lambda pair, e: sawyer_maximal_testing(pair, e, which="dual"),
        md_sp_testing,
        outer_testing_constant,
    ], ids=["apq_alpha", "apq_alpha_constant", "apq_bump", "mixed_apq_exp", "mixed_ap_m",
            "sawyer_forward", "sawyer_dual", "md_sp_testing", "outer_testing_constant"])
    def test_wrong_dimension_refused(self, call):
        with pytest.raises(ConstantError, match="exponent dimension does not match the weights"):
            call(self.PAIR, E_SOB)

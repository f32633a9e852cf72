"""Operator tests against brute-force cube enumeration oracles."""
import math
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.grid import Box, DyadicCube, GridFamily, all_shifts, parent, realize
from dyadlab import operators
from dyadlab.constants import _inner_scans
from dyadlab.operators import (
    OPERATORS,
    OperatorError,
    _grids,
    cut_frac_maximal,
    dyadic_frac_maximal,
    dyadic_riesz,
    frac_maximal,
    geometric_maximal,
    orlicz_maximal,
    outer_riesz,
    weighted_dyadic_maximal,
)
from dyadlab.orlicz import PowerScaled, log_bump, power
from dyadlab.sampled import SampledFunction, integrate, prefix_sum
from dyadlab.scan import cell_block, iter_scans

from cube_oracle import cell_centers, contains_point, cut_frac_maximal_pairwise, integral
from fraction_oracle import ancestor_chain, fraction_calls
from operator_oracle import PUBLIC_OPERATORS, riesz_1d_row
from orlicz_average_oracle import orlicz_maximal_values


def rand_f(dim, lower, side, ncells, seed=0, zeros_at=()):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 3.0, (ncells,) * dim)
    for idx in zeros_at:
        v[idx] = 0.0
    return SampledFunction(dim, lower, side, v)


def brute_max(f, alpha, shifts, min_level, max_level, kind="frac", g=None, mu=None, beta=0.0):
    """Loop every enumerated cube, apply the per-cube functional, spread the
    running max onto covered cells."""
    out = np.zeros_like(f.values)
    for sh in shifts:
        grid = GridFamily(f.dim, sh, min_level, max_level, f.window)
        for cube in grid:
            b = realize(cube)
            vol = float(b.volume())
            sl = f.cell_slices(b)
            if kind == "frac":
                val = vol ** (alpha / f.dim - 1.0) * integral(f, cube)
            elif kind == "weighted":
                mu_q = integral(mu, cube)
                if mu_q == 0:
                    continue
                val = mu_q ** (beta / f.dim - 1.0) * integral(f * mu, cube)
            elif kind == "geometric":
                if not f.window.contains_box(b):
                    continue
                block = f.values[sl]
                if np.any(block == 0):
                    continue
                val = math.exp(float(np.mean(np.log(block))))
            out[sl] = np.maximum(out[sl], val)
    return out


class TestFracMaximal:
    def test_matches_brute_force_1d(self):
        f = rand_f(1, (0,), 1, 12, seed=1)
        kw = dict(min_level=-2, max_level=f.max_aligned_level)
        got = frac_maximal(f, 0.5, **kw)
        want = brute_max(f, 0.5, all_shifts(1), -2, f.max_aligned_level)
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

    def test_matches_brute_force_2d(self):
        f = rand_f(2, (-1, 0), 2, 6, seed=2)
        got = frac_maximal(f, 0.75, min_level=-2, max_level=f.max_aligned_level)
        want = brute_max(f, 0.75, all_shifts(2), -2, f.max_aligned_level)
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

    def test_single_shift_matches_brute(self):
        f = rand_f(1, (0,), 1, 12, seed=3)
        got = dyadic_frac_maximal(f, 0.25, shift=(1,), min_level=-1)
        want = brute_max(f, 0.25, [(1,)], -1, f.max_aligned_level)
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

    def test_constant_function_alpha_zero(self):
        f = SampledFunction.constant(2.5, 1, (0,), 1, 12)
        got = frac_maximal(f, 0)
        assert np.max(np.abs(got.values - 2.5)) < 1e-12

    def test_shifted_sup_dominates_each_grid(self):
        f = rand_f(1, (0,), 1, 24, seed=4)
        full = frac_maximal(f, 0.5, min_level=-2)
        for sh in all_shifts(1):
            single = dyadic_frac_maximal(f, 0.5, shift=sh, min_level=-2)
            assert np.all(full.values >= single.values - 1e-14)

    def test_monotone_in_alpha_on_small_cubes(self):
        # on a window of volume 1 with f supported inside, the sup at
        # larger alpha uses weights |Q|^{alpha/n} <= 1, so M_a f <= M_0 f
        f = rand_f(1, (0,), 1, 12, seed=5)
        m0 = frac_maximal(f, 0, min_level=0)
        mh = frac_maximal(f, 0.5, min_level=0)
        assert np.all(mh.values <= m0.values + 1e-13)

    def test_alpha_range_validated(self):
        f = rand_f(1, (0,), 1, 3)
        with pytest.raises(OperatorError):
            frac_maximal(f, 1.0)

    def test_level_guard(self):
        f = rand_f(1, (0,), 1, 12)
        with pytest.raises(OperatorError):
            frac_maximal(f, 0.5, max_level=f.max_aligned_level + 1)


class TestCutFracMaximal:
    @pytest.mark.parametrize("dim,lower,side,ncells,alpha,zeros_at", [
        (1, (-1,), 2, 24, 0.0, ()),
        (1, (0,), 1, 24, 0.5, (slice(6, 12),)),
        (2, (-1, 0), 2, 12, 0.0, ((slice(3, 6), slice(3, 6)),)),
        (2, (-1, 0), 2, 12, 1.25, ()),
    ])
    def test_equals_frac_maximal_of_each_cut(self, dim, lower, side, ncells, alpha, zeros_at):
        # on every cube Q of every scan, the cut maximal is the full-mesh
        # maximal of f chi_Q over the same grids, read on Q's cells
        f = rand_f(dim, lower, side, ncells, seed=6, zeros_at=zeros_at)
        kw = dict(min_level=-1, max_level=f.max_aligned_level)
        grids = _grids(f, None, **kw)
        inner = _inner_scans(f, None, **kw)
        for outer_grid in (grids[0], grids[-1]):
            for scan in iter_scans(f, outer_grid):
                got = cut_frac_maximal(f, scan, inner, alpha)
                for idx in np.ndindex(scan.shape):
                    cube = scan.cube_at(idx)
                    want = frac_maximal(f.restrict_to(cube), alpha, **kw)
                    # a block of zero cells may sum to roundoff instead of 0
                    np.testing.assert_allclose(cell_block(scan, got, idx), cell_block(scan, want.values, idx),
                                               rtol=1e-13, atol=1e-15 * float(f.values.max()))

    @pytest.mark.parametrize("dim,lower,side,ncells,alpha,zeros_at", [
        (1, (-1,), 2, 48, 0.0, ()),
        (1, (0,), 1, 24, 0.5, (slice(6, 12),)),
        (2, (-1, 0), 2, 12, 0.0, ((slice(3, 6), slice(3, 6)),)),
        (2, (-1, 0), 2, 24, 0.5, ((slice(6, 12), slice(0, 24)),)),
        (2, (0, 0), 1, 12, 1.25, ()),
    ])
    @pytest.mark.parametrize("levels", [{}, dict(min_level=0), dict(min_level=-1, max_level=1)])
    def test_bits_of_pairwise_merge(self, dim, lower, side, ncells, alpha, zeros_at, levels):
        # the level tables give, bit for bit, one sorted union of edges per
        # (outer, inner) scan pair, for the outer scans of every grid
        f = rand_f(dim, lower, side, ncells, seed=7, zeros_at=zeros_at)
        lo, hi = levels.get("min_level"), levels.get("max_level")
        scans = [scan for grid in _grids(f, None, lo, hi) for scan in iter_scans(f, grid)]
        inner = _inner_scans(f, None, lo, hi)
        for outer in scans:
            got = cut_frac_maximal(f, outer, inner, alpha)
            assert got.tobytes() == cut_frac_maximal_pairwise(f, outer, scans, alpha).tobytes()

    def test_alpha_range_validated(self):
        f = rand_f(1, (0,), 1, 12)
        scan = iter_scans(f, _grids(f, None, 0, 1)[0])[0]
        with pytest.raises(OperatorError):
            cut_frac_maximal(f, scan, _inner_scans(f, None, 0, 1), 1.0)


class TestWeightedMaximal:
    def test_matches_brute(self):
        f = rand_f(1, (0,), 1, 12, seed=10)
        mu = rand_f(1, (0,), 1, 12, seed=11, zeros_at=[(3,), (4,)])
        got = weighted_dyadic_maximal(f, mu, beta=0.5, min_level=-1)
        want = brute_max(
            f, 0.0, [(0,)], -1, f.max_aligned_level, kind="weighted", mu=mu, beta=0.5
        )
        np.testing.assert_allclose(got.values, want, rtol=1e-13)

    def test_constant_weight_reduces_to_plain(self):
        f = rand_f(1, (0,), 1, 12, seed=12)
        one = SampledFunction.constant(1.0, 1, (0,), 1, 12)
        got = weighted_dyadic_maximal(f, one, beta=0, min_level=0)
        plain = dyadic_frac_maximal(f, 0, min_level=0)
        np.testing.assert_allclose(got.values, plain.values, rtol=1e-13)

    def test_mu_average_bounded_by_sup(self):
        f = rand_f(1, (0,), 1, 12, seed=13)
        mu = rand_f(1, (0,), 1, 12, seed=14)
        got = weighted_dyadic_maximal(f, mu, beta=0, min_level=-1)
        assert np.all(got.values <= f.values.max() * (1 + 1e-12))


class TestGeometricMaximal:
    def test_matches_brute(self):
        f = rand_f(1, (0,), 1, 12, seed=15, zeros_at=[(5,)])
        got = geometric_maximal(f, min_level=-1)
        want = brute_max(f, 0.0, [(0,)], -1, f.max_aligned_level, kind="geometric")
        np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_constant(self):
        f = SampledFunction.constant(3.0, 1, (0,), 1, 6)
        got = geometric_maximal(f)
        np.testing.assert_allclose(got.values, 3.0, rtol=1e-12)

    def test_jensen_domination(self):
        # exp(avg log f) <= (avg f^r)^{1/r}: the geometric sup runs over a
        # subset of the cubes the power maximal sees
        f = rand_f(1, (0,), 1, 24, seed=16, zeros_at=[(2,)])
        geo = geometric_maximal(f, min_level=-1)
        for r in (0.5, 1.0, 2.0):
            fr = f.with_values(f.values ** r)
            mr = dyadic_frac_maximal(fr, 0, min_level=-1)
            assert np.all(geo.values <= mr.values ** (1.0 / r) * (1 + 1e-11))

    def test_2d_matches_brute(self):
        f = rand_f(2, (0, 0), 1, 6, seed=17, zeros_at=[(1, 2)])
        got = geometric_maximal(f, min_level=0)
        want = brute_max(f, 0.0, [(0, 0)], 0, f.max_aligned_level, kind="geometric")
        np.testing.assert_allclose(got.values, want, rtol=1e-12)


class TestOrliczMaximal:
    def test_power_family_equals_power_mean_maximal(self):
        f = rand_f(1, (0,), 1, 12, seed=18)
        r = 2.0
        got = orlicz_maximal(f, power(r), min_level=-1)
        fr = f.with_values(f.values ** r)
        want = dyadic_frac_maximal(fr, 0, min_level=-1).values ** (1.0 / r)
        np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_generic_path_matches_power_path(self):
        f = rand_f(1, (0,), 1, 12, seed=19)
        got_closed = orlicz_maximal(f, power(2.0), min_level=0)
        got_generic = orlicz_maximal(f, PowerScaled(power(1.0), 2.0), min_level=0)
        np.testing.assert_allclose(got_generic.values, got_closed.values, rtol=1e-8)

    def test_log_bump_dominates_power(self):
        # Phi(t) = t^r log(e+t)^{r-1+d} >= t^r pointwise, so its Luxemburg
        # average dominates the power average cube by cube
        f = rand_f(1, (0,), 1, 12, seed=20)
        bump = orlicz_maximal(f, log_bump(2.0, 0.5), min_level=0)
        plain = orlicz_maximal(f, power(2.0), min_level=0)
        assert np.all(bump.values >= plain.values * (1 - 1e-9))

    def test_beta_weighting(self):
        # with beta > 0 each cube value is scaled by |Q|^{beta/n}
        f = SampledFunction.constant(1.0, 1, (0,), 1, 6)
        got = orlicz_maximal(f, power(2.0), beta=0.5, min_level=0, max_level=1)
        # constant 1 on [0,1): level-0 cube inside has |Q| = 1, norm 1;
        # straddling coarse cubes are cut by the default range
        assert np.max(got.values) == pytest.approx(1.0, rel=1e-12)

    def test_power_path_over_zero_block_2d(self):
        # a 2-D prefix-sum difference over a block of zero cells can be
        # -roundoff (on a few of these draws), whose root is NaN unless the
        # power mean is clamped at 0
        for seed in range(40):
            v = np.random.default_rng(seed).exponential(1.0, (12, 12))
            v[:6, 4:] = 0.0
            f = SampledFunction(2, (-1, 0), 2, v)
            got = orlicz_maximal(f, power(3), beta=0.5)
            want = dyadic_frac_maximal(f.with_values(v ** 3), 1.5).values ** (1.0 / 3.0)
            np.testing.assert_allclose(got.values, want, rtol=1e-12)

    @pytest.mark.parametrize("phi", [power(3), power(1), log_bump(2.0, 0.5)], ids=["power3", "power1", "log_bump"])
    @pytest.mark.parametrize("dim,lower,side,ncells", [(1, (-1,), 2, 24), (2, (-1, 0), 2, 12)])
    def test_matches_parent_paths(self, dim, lower, side, ncells, phi):
        # two rows, one with a block of zero cells, through a measure: the
        # registry against the code the operator had of its own
        f = rand_f(dim, lower, side, ncells, seed=23)
        rows = np.stack([f.values, rand_f(dim, lower, side, ncells, seed=24).values])
        rows[1][(slice(0, ncells // 2),) * dim] = 0.0
        mu = rand_f(dim, lower, side, ncells, seed=25)
        args = (rows, mu, 0.5, phi, None, None, None)
        got = OPERATORS["orlicz_maximal"](f, *args)
        assert np.array_equal(got, orlicz_maximal_values(f, *args))


class TestDyadicRiesz:
    def test_matches_brute_sum(self):
        f = rand_f(1, (0,), 1, 12, seed=21)
        alpha = 0.5
        got = dyadic_riesz(f, alpha, min_level=-2)
        out = np.zeros_like(f.values)
        grid = GridFamily(1, (0,), -2, f.max_aligned_level, f.window)
        for cube in grid:
            b = realize(cube)
            val = float(b.volume()) ** (alpha - 1.0) * integral(f, cube)
            sl = f.cell_slices(b)
            out[sl] += val
        np.testing.assert_allclose(got.values, out, rtol=1e-12)

    def test_dominates_truncation_of_itself(self):
        f = rand_f(1, (0,), 1, 12, seed=22)
        wide = dyadic_riesz(f, 0.5, min_level=-3)
        narrow = dyadic_riesz(f, 0.5, min_level=0)
        assert np.all(wide.values >= narrow.values - 1e-13)

    def test_maximal_dominated_by_riesz(self):
        # each term of the sum is one of the candidates of the sup
        f = rand_f(1, (0,), 1, 24, seed=23)
        kw = dict(min_level=-2, max_level=f.max_aligned_level)
        sup = dyadic_frac_maximal(f, 0.5, **kw)
        total = dyadic_riesz(f, 0.5, **kw)
        assert np.all(sup.values <= total.values * (1 + 1e-12))


class TestRieszPotential1D:
    def test_indicator_closed_form(self):
        # f = chi_[0,1): I f(x) = (x^a + (1-x)^a)/a at interior points
        alpha = 0.6
        f = SampledFunction.constant(1.0, 1, (0,), 1, 48)
        got = riesz_1d_row(f, alpha)
        x = cell_centers(f)
        want = (x ** alpha + (1 - x) ** alpha) / alpha
        np.testing.assert_allclose(got.values, want, rtol=1e-12)

    def test_self_adjoint(self):
        rng = np.random.default_rng(24)
        f = SampledFunction(1, (0,), 1, rng.uniform(0, 2, 96))
        g = SampledFunction(1, (0,), 1, rng.uniform(0, 2, 96))
        lhs = integrate(riesz_1d_row(f, 0.4) * g)
        rhs = integrate(f * riesz_1d_row(g, 0.4))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dominates_frac_maximal(self):
        # |Q|^{alpha-1} int_Q f <= int_Q |x-y|^{alpha-1} f(y) dy for x in Q
        f = rand_f(1, (-1,), 2, 96, seed=25, zeros_at=[(7,), (40,)])
        alpha = 0.3
        pot = riesz_1d_row(f, alpha)
        sup = frac_maximal(f, alpha, min_level=-4)
        assert np.all(sup.values <= pot.values * (1 + 1e-11) + 1e-13)

    def test_translation_symmetry(self):
        # kernel depends only on distances: mirroring f mirrors the output
        f = rand_f(1, (0,), 1, 24, seed=26)
        mirrored = SampledFunction(1, (0,), 1, f.values[::-1].copy())
        a = riesz_1d_row(f, 0.5)
        b = riesz_1d_row(mirrored, 0.5)
        np.testing.assert_allclose(a.values, b.values[::-1], rtol=1e-12)

    def test_alpha_validated(self):
        f = rand_f(1, (0,), 1, 3)
        with pytest.raises(OperatorError):
            riesz_1d_row(f, 1.0)


class TestAncestorChain:
    def test_chain_inside_unit_window(self):
        cube = DyadicCube(1, 2, (1,), (0,))  # [1/4, 1/2)
        win = Box((Fraction(0),), Fraction(1))
        chain = ancestor_chain(cube, win)
        assert [c.level for c in chain] == [2, 1, 0]
        assert realize(chain[-1]).contains_box(win)

    def test_chain_locks_at_origin_edge(self):
        cube = DyadicCube(1, 1, (0,), (0,))  # [0, 1/2)
        win = Box((Fraction(-1),), Fraction(2))
        chain = ancestor_chain(cube, win)
        # [0,1/2) -> [0,1): upper covers the window, left edge pinned at 0
        assert [c.level for c in chain] == [1, 0]

    def test_shifted_chain_covers_straddling_window(self):
        cube = DyadicCube(1, 1, (0,), (1,))  # [-1/6, 1/3)
        win = Box((Fraction(-1),), Fraction(2))
        chain = ancestor_chain(cube, win)
        assert realize(chain[-1]).contains_box(win)

    def test_2d_mixed_lock(self):
        cube = DyadicCube(2, 1, (0, 0), (0, 1))
        win = Box((Fraction(-2), Fraction(-2)), Fraction(4))
        chain = ancestor_chain(cube, win)
        last = realize(chain[-1])
        # shifted axis must be fully covered; unshifted axis pinned at 0
        assert last.lower[1] <= Fraction(-2)
        assert last.lower[1] + last.side >= Fraction(2)
        assert last.lower[0] == 0


class TestOuterRiesz:
    def test_matches_truncated_lattice_sum(self):
        sigma = rand_f(1, (0,), 1, 24, seed=27)
        cube0 = DyadicCube(1, 2, (1,), (0,))  # [1/4, 1/2)
        alpha = 0.5
        got = outer_riesz(sigma, cube0, alpha)
        mass = integral(sigma, cube0)
        # deep explicit chain plus the analytic geometric tail
        deep = [cube0]
        for _ in range(60):
            deep.append(parent(deep[-1]))
        centers = cell_centers(sigma)
        want = np.zeros(sigma.ncells)
        ratio = 2.0 ** (alpha - 1.0)
        for i, x in enumerate(centers):
            acc = 0.0
            for j, A in enumerate(deep):
                b = realize(A)
                if contains_point(b, (Fraction(x).limit_denominator(10 ** 12),)):
                    vol = float(b.volume())
                    acc += vol ** (alpha - 1.0) * mass
            # tail beyond the deep chain
            vol_last = float(realize(deep[-1]).volume())
            acc += vol_last ** (alpha - 1.0) * mass * ratio / (1.0 - ratio)
            want[i] = acc
        np.testing.assert_allclose(got.values, want, rtol=1e-10)

    def test_zero_region_left_of_origin(self):
        sigma = rand_f(1, (-1,), 2, 24, seed=28)
        cube0 = DyadicCube(1, 1, (0,), (0,))  # [0, 1/2)
        got = outer_riesz(sigma, cube0, 0.5)
        # cells strictly left of 0 are below no ancestor of the unshifted cube
        n_left = 12
        assert np.all(got.values[:n_left] == 0.0)
        assert np.all(got.values[n_left:] > 0.0)

    def test_constant_on_seed_cube(self):
        sigma = rand_f(1, (0,), 1, 24, seed=29)
        cube0 = DyadicCube(1, 1, (1,), (0,))  # [1/2, 1)
        alpha = 0.5
        got = outer_riesz(sigma, cube0, alpha)
        sl = sigma.cell_slices(realize(cube0))
        inside = got.values[sl]
        C = 1.0 / (1.0 - 2.0 ** (alpha - 1.0))
        expect = C * 0.5 ** (alpha - 1.0) * integral(sigma, cube0)
        np.testing.assert_allclose(inside, expect, rtol=1e-13)

    def test_dominated_by_frac_maximal(self):
        sigma = rand_f(1, (0,), 1, 24, seed=30)
        cube0 = DyadicCube(1, 2, (2,), (0,))
        alpha = 0.5
        pot = outer_riesz(sigma, cube0, alpha)
        chain = ancestor_chain(cube0, sigma.window)
        sup = dyadic_frac_maximal(
            sigma, alpha, min_level=min(c.level for c in chain)
        )
        C = 1.0 / (1.0 - 2.0 ** (alpha - 1.0))
        assert np.all(pot.values <= C * sup.values * (1 + 1e-11) + 1e-13)

    def test_2d_shell_structure(self):
        sigma = rand_f(2, (0, 0), 1, 12, seed=31)
        cube0 = DyadicCube(2, 2, (1, 1), (0, 0))
        alpha = 1.0
        got = outer_riesz(sigma, cube0, alpha)
        # value on the seed cube: C |Q0|^{alpha/2-1} sigma(Q0)
        C = 1.0 / (1.0 - 2.0 ** (alpha - 2.0))
        sl = sigma.cell_slices(realize(cube0))
        expect = C * (0.25 ** 2) ** (alpha / 2.0 - 1.0) * integral(sigma, cube0)
        np.testing.assert_allclose(got.values[sl], expect, rtol=1e-12)
        # shells are constant: the sibling region at level 2 inside the
        # common level-1 parent takes the parent's value
        parent_box = realize(parent(cube0))
        slp = sigma.cell_slices(parent_box)
        vals = np.unique(np.round(got.values[slp], 10))
        assert len(vals) == 2  # seed value and first-shell value


# --- the registry, on arrays -------------------------------------------------


CORE_MESHES = [(1, (0,), 1, 24), (1, (-1,), 2, 48), (2, (0, 0), 1, 12), (2, (-1, 0), 2, 12)]
# every registry operator, the Orlicz maximal on its power and its Luxemburg path
CORE_OPS = [(op, None) for op in OPERATORS if op != "orlicz_maximal"] + [
    ("orlicz_maximal", power(3)), ("orlicz_maximal", log_bump(2.0, 0.5))]
# with a measure and without one, which the weighted maximal always needs
CORE_CASES = [(op, phi, mesh, with_mu) for op, phi in CORE_OPS for mesh in CORE_MESHES
              for with_mu in ((True,) if op == "weighted_dyadic_maximal" else (False, True))
              if not (op == "riesz_1d" and mesh[0] == 2)]


class TestNoFractionsWhenWarm:
    """Once a mesh's scans are memoised, the maximal functions read the
    integers and floats of its geometry record and make no call into the
    fractions module, for a new function on the mesh too."""

    @pytest.mark.parametrize("mesh", [(1, (-1,), 2, 48), (2, (0, -1), 2, 12)], ids=["1d", "2d"])
    @pytest.mark.parametrize("maximal", [dyadic_frac_maximal, frac_maximal], ids=lambda m: m.__name__)
    def test_warm_maximal(self, maximal, mesh):
        dim, lower, side, n = mesh
        f = rand_f(dim, lower, side, n)
        maximal(f, 0.5)
        g = f.with_values(rand_f(dim, lower, side, n, seed=1).values)
        assert fraction_calls(lambda: maximal(g, 0.5)) == 0
        # the count is live: building a function parses its rational window
        assert fraction_calls(lambda: rand_f(dim, lower, side, n)) > 0


class TestArrayCores:
    def test_public_table_covers_the_registry(self):
        assert tuple(PUBLIC_OPERATORS) == tuple(OPERATORS)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 2)], ids=lambda s: f"lead{len(s)}")
    @pytest.mark.parametrize(
        "op,phi,mesh,with_mu", CORE_CASES,
        ids=[f"{op}-{getattr(phi, 'label', phi)}-{m[0]}d_{m[3]}_{m[2]}-{'mu' if w else 'nomu'}"
             for op, phi, m, w in CORE_CASES])
    def test_rows_have_the_bits_of_the_public_operator(self, op, phi, mesh, with_mu, lead):
        # rows of values and a measure that vanish on blocks of cells, on
        # an all-zero f whose own values no row is
        dim, lower, side, n = mesh
        rng = np.random.default_rng([dim, n, len(lead)])
        values = rng.exponential(1.0, lead + (n,) * dim)
        values[..., : n // 4] = 0.0
        mu = rand_f(dim, lower, side, n, seed=n, zeros_at=[(slice(n // 3, n // 2),) * dim]) if with_mu else None
        f = SampledFunction.constant(0.0, dim, lower, side, n)
        got = OPERATORS[op](f, values, mu, 0.5, phi, None, None, None)
        assert got.shape == values.shape
        for row in np.ndindex(lead):
            want = PUBLIC_OPERATORS[op](f.with_values(values[row]), mu, 0.5, phi, None, None, None)
            assert np.array_equal(got[row], want.values), row

    def test_own_values_share_the_cached_prefix(self, monkeypatch):
        # the operators run on one function's own values read its cached
        # prefix table; a copy of those values gets a table of its own
        f = rand_f(1, (0,), 1, 24)
        tables = []
        monkeypatch.setattr(operators, "prefix_sum", lambda *args: tables.append(args) or prefix_sum(*args))
        for op in ("frac_maximal", "dyadic_frac_maximal", "dyadic_riesz"):
            OPERATORS[op](f, f.values, None, 0.5, None, None, None, None)
        assert tables == []
        OPERATORS["dyadic_riesz"](f, f.values.copy(), None, 0.5, None, None, None, None)
        assert len(tables) == 1

    def test_registry_refuses_as_the_operator_does(self):
        f = rand_f(2, (0, 0), 1, 12)
        with pytest.raises(OperatorError):
            OPERATORS["riesz_1d"](f, f.values[None], None, 0.5, None, None, None, None)
        with pytest.raises(OperatorError):
            OPERATORS["orlicz_maximal"](f, f.values[None], None, 0.5, None, None, None, None)
        with pytest.raises(OperatorError):
            OPERATORS["weighted_dyadic_maximal"](f, f.values[None], None, 0.5, None, None, None, None)

"""Sparse-family tests against a recursive brute-force construction."""
import math
from collections import deque

import numpy as np
import pytest

from dyadlab.grid import GridFamily, parent, realize
from dyadlab.operators import dyadic_frac_maximal
from dyadlab.sampled import SampledFunction
from dyadlab.scan import cube_cell_sums, level_scan
from dyadlab.sparse import (
    CarlesonSequence,
    SparseError,
    build_sparse,
    certify_carleson,
    sparse_operator,
    subtree_sums,
)

from cube_oracle import integral


def rand_f(dim, lower, side, ncells, seed=0, spikes=()):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.05, 1.0, (ncells,) * dim)
    for idx, val in spikes:
        v[idx] = val
    return SampledFunction(dim, lower, side, v)


def brute_stopping_cubes(f, alpha, ratio, grid):
    """Reference construction straight от the definition: roots at the
    coarsest level, then recursively the maximal descendants whose
    fractional average jumps by the ratio."""
    levels = {}
    u = {}
    for cube in grid:
        levels.setdefault(cube.level, []).append(cube)
        vol = float(realize(cube).volume())
        u[cube] = vol ** (alpha / f.dim - 1.0) * integral(f, cube)

    def kids(cube):
        return [c for c in levels.get(cube.level + 1, []) if parent(c) == cube]

    def children_stops(q):
        thr = ratio * u[q]
        out = []
        current = kids(q)
        while current:
            nxt = []
            for c in current:
                if u[c] > thr:
                    out.append(c)
                else:
                    nxt.extend(kids(c))
            current = nxt
        return out

    stops = {}
    dq = deque()
    for root in levels[grid.min_level]:
        if u[root] > 0:
            stops[root] = (-1, 0)
            dq.append(root)
    order = {c: i for i, c in enumerate(stops)}
    items = list(stops)
    while dq:
        q = dq.popleft()
        for c in children_stops(q):
            stops[c] = (q, stops[q][1] + 1)
            dq.append(c)
    return stops, u


class TestBuildSparse:
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("f", [
        *(pytest.param(rand_f(1, (0,), 1, 12, seed=seed, spikes=[((0,), 40.0), ((7,), 25.0)]), id=str(seed))
          for seed in (1, 2, 3)),
        # a 48^2 spike stops at levels 0, 2 and 4: generations 0 to 2
        pytest.param(rand_f(2, (0, 0), 1, 48, seed=4, spikes=[((7, 40), 1e4)]), id="2d"),
        pytest.param(SampledFunction.constant(0.0, 2, (0, 0), 1, 12), id="empty"),
    ])
    def test_matches_brute_force(self, alpha, f):
        fam = build_sparse(f, alpha, ratio=4.0, min_level=0)
        brute, u = brute_stopping_cubes(f, alpha, 4.0, fam.grid)
        got = {sc.cube for sc in fam.cubes}
        assert got == set(brute)
        for sc in fam.cubes:
            ref_parent, ref_gen = brute[sc.cube]
            assert sc.generation == ref_gen
            if ref_parent == -1:
                assert sc.parent == -1
            else:
                assert fam.cubes[sc.parent].cube == ref_parent
            assert sc.u_value == pytest.approx(u[sc.cube], rel=1e-12)

    def test_matches_brute_force_2d(self):
        f = rand_f(2, (0, 0), 1, 6, seed=4, spikes=[((0, 0), 60.0)])
        fam = build_sparse(f, 0.5, ratio=3.0, min_level=0)
        brute, _ = brute_stopping_cubes(f, 0.5, 3.0, fam.grid)
        assert {sc.cube for sc in fam.cubes} == set(brute)

    def test_roots_are_coarsest_level(self):
        f = rand_f(1, (0,), 1, 24, seed=5)
        fam = build_sparse(f, 0.25, min_level=-1)
        roots = [sc for sc in fam.cubes if sc.parent == -1]
        assert roots
        assert all(sc.cube.level == -1 for sc in roots)
        assert all(sc.generation == 0 for sc in roots)

    def test_zero_function_gives_empty_family(self):
        f = SampledFunction.constant(0.0, 1, (0,), 1, 12)
        fam = build_sparse(f, 0.5, min_level=0)
        assert len(fam) == 0
        assert np.all(fam.owner == -1)

    def test_ratio_validated(self):
        f = rand_f(1, (0,), 1, 12)
        with pytest.raises(SparseError):
            build_sparse(f, 0.5, ratio=1.0)


class TestSparsity:
    @staticmethod
    def shell_profile(ncells, base):
        """Dyadic-shell profile on [0,1): constant (2-b)*b^k on the shell
        [2^{-k-1}, 2^{-k}), with the innermost block set so the averages
        over [0, 2^{-k}) equal b^k exactly at every level k."""
        v = np.empty(ncells)
        lo, hi, k = ncells // 2, ncells, 0
        while lo >= 3:
            v[lo:hi] = (2.0 - base) * base**k
            lo, hi, k = lo // 2, lo, k + 1
        v[:hi] = base**k
        return v

    # averages over [0, 2^{-k}) equal 1.9^k, so the fractional functional
    # at the left edge is (1.9 * 2^{-alpha})^k and the nested stopping
    # chain length is computable by hand for each (alpha, ratio) pair
    @pytest.mark.parametrize(
        "alpha,ratio,n_stops",
        [(0.0, 4.0, 3), (0.0, None, 3), (0.5, 2.0, 3), (0.75, 1.5, 2)],
    )
    def test_thickness_certificate(self, alpha, ratio, n_stops):
        f = SampledFunction(1, (0,), 1, self.shell_profile(96, 1.9))
        fam = build_sparse(f, alpha, ratio=ratio, min_level=-1)
        assert len(fam) == n_stops
        assert fam.thickness() >= fam.guaranteed_thickness - 1e-12
        assert fam.guaranteed_thickness >= 0.5

    def test_thickness_2d(self):
        f = rand_f(2, (0, 0), 1, 12, seed=7, spikes=[((0, 5), 200.0)])
        fam = build_sparse(f, 1.0, min_level=0)
        assert fam.thickness() >= fam.guaranteed_thickness - 1e-12

    @pytest.mark.parametrize("dim,lower,side,ncells,alpha,spike", [
        (1, (-1,), 2, 48, 0.25, ((17,), 1e4)),
        (2, (-1, 0), 2, 24, 0.5, ((5, 9), 1e6)),
    ])
    def test_level_volumes_equal_realized_volumes(self, dim, lower, side, ncells, alpha, spike):
        # |Q| = 2^(-level*n) has the bits of the exact rational volume, in
        # the E measures and the thickness; the disjoint form reads
        # |Q|^{alpha/n} avg_Q g off the scan of Q's level
        f = rand_f(dim, lower, side, ncells, seed=9, spikes=[spike])
        g = rand_f(dim, lower, side, ncells, seed=10)
        fam = build_sparse(f, alpha, min_level=-1)
        assert len({sc.cube.level for sc in fam.cubes}) > 1
        vols = [float(realize(sc.cube).volume()) for sc in fam.cubes]
        assert [2.0 ** (-sc.cube.level * dim) for sc in fam.cubes] == vols
        e_full = list(vols)
        for i, sc in enumerate(fam.cubes):
            if sc.parent >= 0:
                e_full[sc.parent] -= vols[i]
        assert [sc.e_volume_full for sc in fam.cubes] == e_full
        assert fam.thickness() == min([1.0] + [e / v for e, v in zip(e_full, vols)])
        u_by_id = np.zeros(len(fam.cubes) + 1)
        for i, sc in enumerate(fam.cubes):
            scan = level_scan(f, fam.grid, sc.cube.level)
            pos = tuple(k - lo for k, lo in zip(sc.cube.index, scan.m_lo))
            sums = cube_cell_sums(scan, g.prefix)
            u_by_id[i] = sums[pos] * (2.0 ** (sc.cube.level * (dim - alpha)) * float(f.cell_volume))
        expect = np.where(fam.owner >= 0, u_by_id[fam.owner], 0.0)
        assert np.array_equal(sparse_operator(fam, g, form="disjoint").values, expect)

    def test_e_cells_partition_owned_region(self):
        f = rand_f(1, (0,), 1, 24, seed=8, spikes=[((11,), 90.0)])
        fam = build_sparse(f, 0.5, min_level=0)
        total_owned = int(np.sum(fam.owner >= 0))
        assert sum(sc.e_cells for sc in fam.cubes) == total_owned
        # every owned cell sits inside its owner cube
        for cid, sc in enumerate(fam.cubes):
            cells = np.where(fam.owner == cid)[0]
            if cells.size:
                sl = f.cell_slices(realize(sc.cube))
                assert cells.min() >= sl[0].start
                assert cells.max() < sl[0].stop


class TestDomination:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("seed", [9, 10])
    def test_maximal_bounded_by_ratio_times_sparse(self, alpha, seed):
        f = rand_f(1, (0,), 1, 48, seed=seed, spikes=[((17,), 70.0)])
        fam = build_sparse(f, alpha, min_level=-2)
        sup = dyadic_frac_maximal(f, alpha, min_level=-2)
        spr = sparse_operator(fam)
        assert np.all(sup.values <= fam.ratio * spr.values * (1 + 1e-12) + 1e-15)

    def test_domination_2d(self):
        f = rand_f(2, (-1, -1), 2, 12, seed=11, spikes=[((2, 9), 80.0)])
        fam = build_sparse(f, 0.5, min_level=-2)
        sup = dyadic_frac_maximal(f, 0.5, min_level=-2)
        spr = sparse_operator(fam)
        assert np.all(sup.values <= fam.ratio * spr.values * (1 + 1e-12) + 1e-15)

    def test_disjoint_form_bounded_by_chi_form(self):
        f = rand_f(1, (0,), 1, 24, seed=12, spikes=[((5,), 45.0)])
        fam = build_sparse(f, 0.25, min_level=0)
        chi = sparse_operator(fam, form="chi")
        dis = sparse_operator(fam, form="disjoint")
        assert np.all(dis.values <= chi.values * (1 + 1e-12))

    def test_operator_on_other_function(self):
        f = rand_f(1, (0,), 1, 24, seed=13, spikes=[((5,), 45.0)])
        g = rand_f(1, (0,), 1, 24, seed=14)
        fam = build_sparse(f, 0.5, min_level=0)
        out = sparse_operator(fam, g)
        # each summand is |Q|^{alpha/n} avg_Q g <= M_alpha g at cells of Q
        sup = dyadic_frac_maximal(g, 0.5, min_level=0)
        assert np.all(out.values <= len(fam) * sup.values.max() + 1e-12)
        assert out.values.max() > 0

    def test_unknown_form_rejected(self):
        f = rand_f(1, (0,), 1, 12)
        fam = build_sparse(f, 0.5, min_level=0)
        with pytest.raises(SparseError):
            sparse_operator(fam, form="nope")


class TestSerialization:
    def test_to_obj_rle(self):
        f = rand_f(1, (0,), 1, 24, seed=15, spikes=[((3,), 60.0)])
        fam = build_sparse(f, 0.5, min_level=0)
        obj = fam.to_obj()
        assert obj["ratio"] == fam.ratio
        assert len(obj["cubes"]) == len(fam)
        total = sum(run[1] for run in obj["owner_rle"])
        assert total == f.ncells
        # RLE reconstructs the owner array
        rebuilt = np.concatenate([np.full(n, v) for v, n in obj["owner_rle"]])
        np.testing.assert_array_equal(rebuilt, fam.owner)


class TestCarleson:
    def make_mu(self, seed=16):
        rng = np.random.default_rng(seed)
        return SampledFunction(1, (0,), 1, rng.uniform(0.2, 2.0, 12))

    def test_measure_coefficients_constant(self):
        # c_Q = mu(Q) over levels 0..2 packs exactly (levels+1) copies of
        # mu(Q0) into every subtree
        mu = self.make_mu()
        grid = GridFamily(1, (0,), 0, 2, mu.window)
        seq = CarlesonSequence.from_function(
            mu, grid, lambda scan, lvl: cube_cell_sums(scan, mu.prefix) * float(mu.cell_volume)
        )
        out = certify_carleson(seq, mu)
        assert out["constant"] == pytest.approx(3.0, rel=1e-12)
        assert out["argmax_cube"]["level"] == 0

    def test_subtree_sums_against_brute(self):
        mu = self.make_mu(17)
        grid = GridFamily(1, (0,), 0, 2, mu.window)
        rng = np.random.default_rng(18)
        vals = {}
        for level in grid.levels:
            scan = level_scan(mu, grid, level)
            vals[level] = rng.uniform(0, 1, scan.shape)
        seq = CarlesonSequence(mu, grid, vals)
        totals = subtree_sums(seq)
        # brute: for each cube sum coefficients of enumerated cubes inside it
        cubes = list(grid)
        coeff = {}
        for level in grid.levels:
            scan = level_scan(mu, grid, level)
            for j in range(scan.shape[0]):
                coeff[scan.cube_at((j,))] = vals[level][j]
        for level in grid.levels:
            scan = level_scan(mu, grid, level)
            for j in range(scan.shape[0]):
                q0 = scan.cube_at((j,))
                b0 = realize(q0)
                want = sum(v for c, v in coeff.items() if b0.contains_box(realize(c)))
                assert totals[level][j] == pytest.approx(want, rel=1e-12)

    def test_subtree_sums_2d_against_brute(self):
        rng = np.random.default_rng(23)
        mu = SampledFunction(2, (-1, 0), 2, rng.uniform(0.2, 2.0, (24, 24)))
        for shift in ((0, 0), (1, 0), (1, 1)):
            grid = GridFamily(2, shift, -1, 2, mu.window)
            vals = {level: rng.uniform(0, 1, level_scan(mu, grid, level).shape) for level in grid.levels}
            totals = subtree_sums(CarlesonSequence(mu, grid, vals))
            coeff = {}
            for level in grid.levels:
                scan = level_scan(mu, grid, level)
                for pos in np.ndindex(scan.shape):
                    coeff[realize(scan.cube_at(pos))] = vals[level][pos]
            for level in grid.levels:
                scan = level_scan(mu, grid, level)
                for pos in np.ndindex(scan.shape):
                    b0 = realize(scan.cube_at(pos))
                    want = sum(v for b, v in coeff.items() if b0.contains_box(b))
                    assert totals[level][pos] == pytest.approx(want, rel=1e-12)

    def test_infinite_constant_on_null_cube(self):
        v = np.ones(12)
        v[:6] = 0.0  # mu vanishes on [0, 1/2)
        mu = SampledFunction(1, (0,), 1, v)
        grid = GridFamily(1, (0,), 0, 1, mu.window)
        vals = {0: np.array([0.0]), 1: np.array([1.0, 0.0])}  # mass on the null half
        seq = CarlesonSequence(mu, grid, vals)
        assert certify_carleson(seq, mu)["constant"] == math.inf

    def test_negative_coefficients_rejected(self):
        mu = self.make_mu(22)
        grid = GridFamily(1, (0,), 0, 1, mu.window)
        with pytest.raises(SparseError):
            CarlesonSequence(mu, grid, {0: np.array([-1.0]), 1: np.zeros(2)})

    def test_missing_level_rejected(self):
        mu = self.make_mu(23)
        grid = GridFamily(1, (0,), 0, 1, mu.window)
        with pytest.raises(SparseError, match="levels"):
            CarlesonSequence(mu, grid, {0: np.ones(1)})

    def test_extra_level_rejected(self):
        mu = self.make_mu(24)
        grid = GridFamily(1, (0,), 0, 1, mu.window)
        with pytest.raises(SparseError, match="levels"):
            CarlesonSequence(mu, grid, {0: np.ones(1), 1: np.ones(2), 2: np.ones(4)})

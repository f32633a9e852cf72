"""Scan-core tests against the exact rational grid oracles."""
import gc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import operators as op
from dyadlab.grid import DyadicCube, GridError, GridFamily, all_shifts, parent, realize
from dyadlab.orlicz import power
from dyadlab.sampled import MeshError, SampledFunction, block_differences, lp_norm, lp_norms, prefix_sum
from dyadlab import scan as scan_module
from dyadlab.scan import (
    at_parents,
    cell_block,
    cube_cell_sums,
    cube_cells,
    cube_integrals,
    inside_window_mask,
    iter_scans,
    level_scan,
    map_to_cells,
    parent_positions,
    sweep,
    zero_cells,
)
from dyadlab.sparse import build_sparse, sparse_operator

from cube_oracle import integral, owner_index, owners


def make_f(dim, lower, side, ncells, seed=0):
    rng = np.random.default_rng(seed)
    return SampledFunction(dim, lower, side, rng.uniform(0, 2, (ncells,) * dim))


def enumerate_positions(scan):
    if scan.dim == 1:
        return [(j,) for j in range(scan.shape[0])]
    return [(i, j) for i in range(scan.shape[0]) for j in range(scan.shape[1])]


@pytest.mark.parametrize("shift", [(0,), (1,)])
@pytest.mark.parametrize("lower,side,ncells", [((0,), 1, 12), ((-2,), 4, 24)])
def test_edges_match_cell_slices_1d(shift, lower, side, ncells):
    f = make_f(1, lower, side, ncells)
    grid = GridFamily(1, shift, -4, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        for pos in enumerate_positions(scan):
            cube = scan.cube_at(pos)
            sl = f.cell_slices(realize(cube))
            assert scan.edges[0][pos[0]] == sl[0].start
            assert scan.edges[0][pos[0] + 1] == sl[0].stop


@pytest.mark.parametrize("shift", [(0, 0), (1, 0), (1, 1)])
def test_edges_match_cell_slices_2d(shift):
    f = make_f(2, (-1, 0), 2, 12)
    grid = GridFamily(2, shift, -3, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        for pos in enumerate_positions(scan):
            cube = scan.cube_at(pos)
            sl = f.cell_slices(realize(cube))
            for ax in range(2):
                assert scan.edges[ax][pos[ax]] == sl[ax].start
                assert scan.edges[ax][pos[ax] + 1] == sl[ax].stop


@pytest.mark.parametrize("shift", [(0,), (1,)])
def test_owners_match_grid_oracle_1d(shift):
    f = make_f(1, (-2,), 4, 24)
    grid = GridFamily(1, shift, -3, f.max_aligned_level, f.window)
    centers = [Fraction(-2) + (2 * i + 1) * f.h / 2 for i in range(f.ncells)]
    for scan in iter_scans(f, grid):
        own = owners(scan)[0]
        for i, c in enumerate(centers):
            m = owner_index(grid, scan.level, (c,))
            assert scan.m_lo[0] + own[i] == m[0]


def test_owners_match_grid_oracle_2d():
    f = make_f(2, (0, -1), 2, 6)
    grid = GridFamily(2, (1, 0), -2, f.max_aligned_level, f.window)
    cx = [Fraction(0) + (2 * i + 1) * f.h / 2 for i in range(f.ncells)]
    cy = [Fraction(-1) + (2 * i + 1) * f.h / 2 for i in range(f.ncells)]
    for scan in iter_scans(f, grid):
        for i in range(f.ncells):
            for j in range(f.ncells):
                m = owner_index(grid, scan.level, (cx[i], cy[j]))
                assert scan.m_lo[0] + owners(scan)[0][i] == m[0]
                assert scan.m_lo[1] + owners(scan)[1][j] == m[1]


def test_cube_sums_against_blocks_1d():
    f = make_f(1, (0,), 2, 24, seed=3)
    grid = GridFamily(1, (1,), -2, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        sums = cube_cell_sums(scan, f.prefix)
        E = scan.edges[0]
        for j in range(scan.shape[0]):
            direct = float(f.values[E[j]:E[j + 1]].sum())
            assert sums[j] == pytest.approx(direct, rel=1e-13, abs=1e-15)


def test_cube_sums_against_blocks_2d():
    f = make_f(2, (0, 0), 1, 12, seed=4)
    grid = GridFamily(2, (0, 1), -1, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        sums = cube_cell_sums(scan, f.prefix)
        E0, E1 = scan.edges
        for i in range(scan.shape[0]):
            for j in range(scan.shape[1]):
                direct = float(f.values[E0[i]:E0[i + 1], E1[j]:E1[j + 1]].sum())
                assert sums[i, j] == pytest.approx(direct, rel=1e-13, abs=1e-15)


def test_zero_cells_counts_exactly_2d():
    # the counts equal the zero cells of each cube's window part, with no
    # rounding; a function with no zero cell counts 0 on every cube
    f = make_f(2, (-1, 0), 2, 24, seed=6)
    z = f.with_values(np.where(f.values < 0.7, 0.0, f.values))
    grid = GridFamily(2, (1, 0), -2, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        counts = zero_cells(scan, z)
        E0, E1 = scan.edges
        direct = [[np.count_nonzero(z.values[E0[i]:E0[i + 1], E1[j]:E1[j + 1]] == 0) for j in range(scan.shape[1])]
                  for i in range(scan.shape[0])]
        assert np.array_equal(counts, direct)
        assert zero_cells(scan, f) == 0


def test_cube_integrals_match_integrate():
    f = make_f(1, (-2,), 4, 48, seed=5)
    grid = GridFamily(1, (1,), -3, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        ints = cube_integrals(scan, f)
        for pos in enumerate_positions(scan):
            cube = scan.cube_at(pos)
            assert ints[pos] == pytest.approx(integral(f, cube), rel=1e-12, abs=1e-15)


def test_inside_window_mask():
    f = make_f(1, (0,), 1, 12)
    grid = GridFamily(1, (1,), -1, f.max_aligned_level, f.window)
    win = f.window
    for scan in iter_scans(f, grid):
        mask = inside_window_mask(scan)
        for pos in enumerate_positions(scan):
            cube = scan.cube_at(pos)
            assert mask[pos] == win.contains_box(realize(cube))


def test_inside_window_mask_2d():
    f = make_f(2, (0, 0), 1, 6)
    grid = GridFamily(2, (1, 1), 0, f.max_aligned_level, f.window)
    win = f.window
    for scan in iter_scans(f, grid):
        mask = inside_window_mask(scan)
        for pos in enumerate_positions(scan):
            assert mask[pos] == win.contains_box(realize(scan.cube_at(pos)))


def test_map_to_cells_constant_per_cube():
    f = make_f(2, (0, 0), 1, 12)
    grid = GridFamily(2, (0, 0), 1, 1, f.window)
    scan = level_scan(f, grid, 1)
    per_cube = np.arange(np.prod(scan.shape), dtype=float).reshape(scan.shape)
    cells = map_to_cells(scan, per_cube)
    assert cells.shape == f.values.shape
    # each cube's cell block must be constant and equal to its cube value
    for pos in enumerate_positions(scan):
        E0, E1 = scan.edges
        block = cells[E0[pos[0]]:E0[pos[0] + 1], E1[pos[1]]:E1[pos[1] + 1]]
        assert np.all(block == per_cube[pos])


def test_parent_positions_match_parent():
    f = make_f(1, (-2,), 4, 24)
    grid = GridFamily(1, (1,), -3, f.max_aligned_level, f.window)
    scans = {s.level: s for s in iter_scans(f, grid)}
    for level in range(grid.min_level + 1, grid.max_level + 1):
        child, par = scans[level], scans[level - 1]
        (pmap,) = parent_positions(child)
        for j in range(child.shape[0]):
            cube = child.cube_at((j,))
            expect = parent(cube)
            got = par.cube_at((int(pmap[j]),))
            assert got == expect


def test_scans_are_the_memoised_tuple():
    f = make_f(1, (0,), 1, 24)
    grid = GridFamily(1, (1,), 0, f.max_aligned_level, f.window)
    scans = iter_scans(f, grid)
    assert scans is iter_scans(f, grid)  # the memoised tuple itself
    with pytest.raises(GridError):  # the coarsest scan has no parent offsets
        parent_positions(scans[0])


def test_parent_positions_2d():
    f = make_f(2, (0, 0), 2, 12)
    grid = GridFamily(2, (1, 0), -2, f.max_aligned_level, f.window)
    scans = {s.level: s for s in iter_scans(f, grid)}
    for level in range(grid.min_level + 1, grid.max_level + 1):
        child, par = scans[level], scans[level - 1]
        pmaps = parent_positions(child)
        for pos in enumerate_positions(child):
            expect = parent(child.cube_at(pos))
            got = par.cube_at(tuple(int(pmaps[ax][pos[ax]]) for ax in range(2)))
            assert got == expect


def test_prefix_sum_signed():
    arr = np.array([1.0, -2.0, 3.0])
    p = prefix_sum(arr)
    np.testing.assert_allclose(p, [0, 1, -1, 2])
    arr2 = np.array([[1.0, -1.0], [2.0, 0.5]])
    p2 = prefix_sum(arr2)
    assert p2[2, 2] == pytest.approx(2.5)
    assert p2[1, 2] == pytest.approx(0.0)


@pytest.mark.parametrize("shape", [(48,), (12, 12), (7, 5)])
def test_prefix_sum_bytes_match_two_temporary_form(shape):
    # the in-place table is byte for byte the one that cumsum into
    # temporaries gives, in the same axis order
    arr = np.random.default_rng(7).normal(size=shape)
    want = np.zeros(tuple(n + 1 for n in shape))
    if len(shape) == 1:
        want[1:] = np.cumsum(arr)
    else:
        want[1:, 1:] = arr.cumsum(axis=0).cumsum(axis=1)
    assert prefix_sum(arr).tobytes() == want.tobytes()


def test_alignment_guard():
    f = make_f(1, (0,), 1, 12)  # max aligned level 2
    grid = GridFamily(1, (0,), 0, 3, f.window)
    with pytest.raises(MeshError):
        level_scan(f, grid, 3)


def test_window_guard():
    f = make_f(1, (0,), 1, 12)
    from dyadlab.grid import Box

    grid = GridFamily(1, (0,), 0, 1, Box((Fraction(0),), Fraction(2)))
    with pytest.raises(MeshError):
        level_scan(f, grid, 1)


# === arithmetic scan geometry against exact oracles ===========================

def oracle_edges(f, grid, level, ax):
    """Clipped cell edges of every enumerated cube from exact rationals."""
    lo, hi = grid.axis_index_range(level, ax)
    out = []
    for m in range(lo, hi + 2):
        idx = tuple(m if a == ax else 0 for a in range(f.dim))
        x = DyadicCube(f.dim, level, idx, grid.shift).lower()[ax]
        c = (x - f.lower[ax]) / f.h
        assert c.denominator == 1
        out.append(min(max(int(c), 0), f.ncells))
    return lo, np.array(out)


def by_owners(scan, per_cube):
    """Spreading by fancy indexing through the owner tables."""
    o = owners(scan)
    return per_cube[o[0]] if scan.dim == 1 else per_cube[o[0][:, None], o[1][None, :]]


GEOMETRIES = [
    (1, (-3,), 1, 24),
    (1, (-2,), 2, 48),
    (1, (-5,), 4, 48),
    (2, (-1, -2), 1, 12),
    (2, (-3, 0), 2, 24),
    (2, (0, -4), 4, 24),
]


@pytest.mark.parametrize("dim,lower,side,ncells", GEOMETRIES)
def test_arithmetic_geometry_matches_oracles(dim, lower, side, ncells):
    f = make_f(dim, lower, side, ncells)
    for shift in all_shifts(dim):
        grid = GridFamily(dim, shift, -4 - side.bit_length(), f.max_aligned_level, f.window)
        for scan in iter_scans(f, grid):
            for ax in range(dim):
                m_lo, edges = oracle_edges(f, grid, scan.level, ax)
                assert scan.m_lo[ax] == m_lo
                assert np.array_equal(scan.edges[ax], edges)
                cells = np.arange(f.ncells)
                assert np.array_equal(owners(scan)[ax], np.searchsorted(edges, cells, side="right") - 1)
                for i in range(f.ncells):
                    center = [f.lower[a] + (2 * i + 1) * f.h / 2 for a in range(dim)]
                    m = owner_index(grid, scan.level, center)[ax]
                    assert owners(scan)[ax][i] == m - m_lo


@pytest.mark.parametrize("dim,lower,side,ncells", GEOMETRIES)
def test_map_to_cells_equals_owner_indexing(dim, lower, side, ncells):
    f = make_f(dim, lower, side, ncells)
    rng = np.random.default_rng(1)
    grid = GridFamily(dim, (1,) * dim, -3, f.max_aligned_level, f.window)
    for scan in iter_scans(f, grid):
        for per_cube in (rng.normal(size=scan.shape), rng.integers(-5, 5, scan.shape)):
            expect = by_owners(scan, per_cube)
            got = map_to_cells(scan, per_cube)
            assert got.dtype == expect.dtype
            assert np.array_equal(got, expect)


def test_scan_arrays_read_only_and_not_shared():
    f = make_f(2, (-1, 0), 2, 24)
    grid = GridFamily(2, (1, 0), -3, f.max_aligned_level, f.window)
    scan = level_scan(f, grid, 1)
    snapshot = [a.copy() for a in scan.edges]
    for arr in scan.edges:
        with pytest.raises(ValueError):
            arr[0] = 7
        # forcing a write must not leak into later scans
        arr.setflags(write=True)
        arr[...] = -1
    again = level_scan(f, grid, 1)
    assert again.m_lo == scan.m_lo and again.shape == scan.shape
    for a, b in zip(again.edges, snapshot):
        assert np.array_equal(a, b)


# === the top-down sweep against per-level spreading ===========================

def spread_oracle(f, grid, level_values, combine):
    """The pre-sweep evaluation: spread every level onto the cells and
    combine into a zero array in level order."""
    out = np.zeros_like(f.values)
    for scan in iter_scans(f, grid):
        out = combine(out, by_owners(scan, level_values(scan)))
    return out


def single_grid(f, shift=None, min_level=None):
    lo, hi = op.default_levels(f, min_level, None)
    return GridFamily(f.dim, shift or (0,) * f.dim, lo, hi, f.window)


SWEEP_MESHES = [((-2,), 4, 96), ((0,), 1, 3 * 2 ** 9), ((-1, 0), 2, 48), ((0, 0), 1, 96)]


@pytest.mark.parametrize("lower,side,ncells", SWEEP_MESHES)
@pytest.mark.parametrize("combine", [np.maximum, np.add])
def test_sweep_matches_spreading_oracle(lower, side, ncells, combine):
    f = make_f(len(lower), lower, side, ncells)

    def level_values(scan):
        rng = np.random.default_rng(scan.level + 100)
        vals = rng.normal(size=scan.shape)
        vals[vals > 1] = -0.0
        return vals

    for shift in all_shifts(f.dim):
        grid = single_grid(f, shift)
        assert np.array_equal(sweep(f, grid, level_values, combine),
                              spread_oracle(f, grid, level_values, combine))


def _sum_values(f, pre, weight_expo):
    cellvol = float(f.cell_volume)
    return lambda scan: cube_cell_sums(scan, pre) * (2.0 ** (scan.level * weight_expo) * cellvol)


@pytest.mark.parametrize("lower,side,ncells", SWEEP_MESHES)
def test_operators_bit_identical_to_spreading_oracle(lower, side, ncells):
    f = make_f(len(lower), lower, side, ncells, seed=2)
    f = f.with_values(np.where(f.values < 0.5, 0.0, f.values))
    mu = make_f(f.dim, lower, side, ncells, seed=3)
    n, a = f.dim, 0.5
    cellvol = float(f.cell_volume)

    expect = np.zeros_like(f.values)
    for shift in all_shifts(n):
        expect = np.maximum(expect, spread_oracle(f, single_grid(f, shift), _sum_values(f, f.prefix, n - a), np.maximum))
    assert np.array_equal(op.frac_maximal(f, a).values, expect)

    grid = single_grid(f, (1,) * n, min_level=-2)
    expect = spread_oracle(f, grid, _sum_values(f, f.prefix, n - a), np.add)
    assert np.array_equal(op.dyadic_riesz(f, a, shift=(1,) * n, min_level=-2).values, expect)

    def weighted(scan):
        mu_q = cube_cell_sums(scan, mu.prefix) * cellvol
        fmu_q = cube_cell_sums(scan, prefix_sum(f.values * mu.values)) * cellvol
        out = np.zeros_like(mu_q)
        out[mu_q > 0] = mu_q[mu_q > 0] ** (a / n - 1.0) * fmu_q[mu_q > 0]
        return out

    expect = spread_oracle(f, single_grid(f), weighted, np.maximum)
    assert np.array_equal(op.weighted_dyadic_maximal(f, mu, a).values, expect)

    def geometric(scan):
        zeros_q = cube_cell_sums(scan, prefix_sum((mu.values == 0).astype(float)))
        log_q = cube_cell_sums(scan, prefix_sum(np.log(mu.values)))
        clean = (np.rint(zeros_q) == 0) & inside_window_mask(scan)
        out = np.zeros_like(log_q)
        out[clean] = np.exp(log_q[clean] * (2.0 ** (scan.level * n) * cellvol))
        return out

    expect = spread_oracle(mu, single_grid(mu, min_level=-1), geometric, np.maximum)
    assert np.array_equal(op.geometric_maximal(mu, min_level=-1).values, expect)

    def power_avg(scan):
        vol_q = scan.cube_volume()
        mean_pow = cube_cell_sums(scan, prefix_sum(mu.values ** 3.0)) * (cellvol / vol_q)
        return mean_pow ** (1.0 / 3.0) * vol_q ** (a / n)

    expect = spread_oracle(mu, single_grid(mu), power_avg, np.maximum)
    assert np.array_equal(op.orlicz_maximal(mu, power(3.0), beta=a).values, expect)


@pytest.mark.parametrize("lower,side,ncells", SWEEP_MESHES)
def test_sparse_operator_bit_identical_with_level_gaps(lower, side, ncells):
    n = len(lower)
    v = np.ones((ncells,) * n)
    v[(ncells // 3,) * n] = 4.0 ** (6 * n)  # one spike: stops every other level or so
    f = SampledFunction(n, lower, side, v)
    g = make_f(n, lower, side, ncells, seed=4)
    fam = build_sparse(f, 0.5 if n == 2 else 0.25)
    members = fam._level_members
    assert any(k not in members for k in range(min(members), max(members) + 1))
    cellvol = float(f.cell_volume)
    for src in (f, g):
        expect = np.zeros_like(f.values)
        for level, (positions, _) in sorted(members.items()):
            scan = level_scan(f, fam.grid, level)
            u = cube_cell_sums(scan, src.prefix) * (2.0 ** (level * (n - fam.alpha)) * cellvol)
            vals = np.zeros_like(u)
            sel = tuple(positions[:, ax] for ax in range(n))
            vals[sel] = u[sel]
            expect = expect + by_owners(scan, vals)
        assert np.array_equal(sparse_operator(fam, src).values, expect)


# === every scan primitive against an exact rational oracle ====================

@st.composite
def scan_meshes(draw):
    """(mesh of small integer values, level range): 1-D and 2-D, negative
    corners, sides 1/2/4 and any level range the mesh aligns with."""
    dim = draw(st.sampled_from([1, 2]))
    lower = tuple(draw(st.integers(-5, 2)) for _ in range(dim))
    side = draw(st.sampled_from([1, 2, 4]))
    ncells = 3 * 2 ** draw(st.integers(side.bit_length() - 1, 4 if dim == 1 else 3))
    vals = np.random.default_rng(draw(st.integers(0, 2 ** 16))).integers(0, 10, (ncells,) * dim)
    f = SampledFunction(dim, lower, side, vals.astype(float))
    lo = draw(st.integers(-side.bit_length() - 3, f.max_aligned_level))
    return f, lo, draw(st.integers(lo, f.max_aligned_level))


@given(mesh=scan_meshes())
@settings(max_examples=40, deadline=None)
def test_scan_primitives_match_exact_oracle(mesh):
    # integer cell values keep every prefix-sum difference exact, so each
    # primitive must equal its oracle bit for bit on every cube
    f, lo, hi = mesh
    rng = np.random.default_rng(0)
    ids = np.arange(f.values.size).reshape(f.values.shape)
    for shift in all_shifts(f.dim):
        grid = GridFamily(f.dim, shift, lo, hi, f.window)
        prev = None
        for scan in iter_scans(f, grid):
            starts = scan.parent_start
            cubes = {pos: scan.cube_at(pos) for pos in np.ndindex(scan.shape)}
            slices = {pos: f.cell_slices(realize(cube)) for pos, cube in cubes.items()}
            sums = np.zeros(scan.shape)
            inside = np.zeros(scan.shape, dtype=bool)
            per_cube = rng.integers(-9, 9, scan.shape)
            cells = np.full(f.values.shape, 99)
            for pos, sl in slices.items():
                sums[pos] = sum(f.values[sl].ravel().tolist())
                inside[pos] = f.window.contains_box(realize(cubes[pos]))
                assert np.array_equal(cell_block(scan, ids, pos), ids[sl])
                cells[sl] = per_cube[pos]
            assert np.array_equal(cube_cell_sums(scan, f.prefix), sums)
            assert np.array_equal(inside_window_mask(scan), inside)
            assert np.array_equal(map_to_cells(scan, per_cube), cells)
            if prev is None:
                assert starts is None
            else:
                # parent positions as ids of the coarser level
                pid = np.arange(np.prod(prev.shape)).reshape(prev.shape)
                want = np.zeros(scan.shape, dtype=pid.dtype)
                for pos, cube in cubes.items():
                    ppos = tuple(m - m0 for m, m0 in zip(parent(cube).index, prev.m_lo))
                    want[pos] = pid[ppos]
                assert np.array_equal(at_parents(pid, starts, scan.shape), want)
            prev = scan


# === batched primitives against a loop over their rows ========================

@st.composite
def batched_meshes(draw):
    """(mesh, level range, shift, B rows of float values on the mesh)."""
    f, lo, hi = draw(scan_meshes())
    shift = draw(st.sampled_from(all_shifts(f.dim)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    return f, lo, hi, shift, rng.exponential(1.0, (draw(st.integers(1, 5)),) + f.values.shape)


@given(mesh=batched_meshes())
@settings(max_examples=40, deadline=None)
def test_batched_primitives_match_row_loop(mesh):
    # float values, so each row must also round as its unbatched call does
    f, lo, hi, shift, rows = mesh
    B, dim = len(rows), f.dim

    def each(call, *batched):
        return np.stack([call(*row) for row in zip(*batched)])

    pre = prefix_sum(rows, dim)
    assert np.array_equal(pre, each(prefix_sum, rows))
    assert np.array_equal(block_differences(pre, dim), each(block_differences, pre))
    grid = GridFamily(dim, shift, lo, hi, f.window)
    scans = tuple(iter_scans(f, grid))
    ids = np.arange(f.values.size).reshape(f.values.shape)
    rng = np.random.default_rng(B)
    acc = None
    for scan in scans:
        starts = scan.parent_start
        sums = cube_cell_sums(scan, pre)
        assert np.array_equal(sums, each(lambda p: cube_cell_sums(scan, p), pre))
        assert np.array_equal(map_to_cells(scan, sums), each(lambda s: map_to_cells(scan, s), sums))
        if starts is not None:
            assert np.array_equal(at_parents(acc, starts, scan.shape),
                                  each(lambda a: at_parents(a, starts, scan.shape), acc))
        acc = sums
        pos = np.stack([rng.integers(0, count, B) for count in scan.shape], axis=1)
        cells = cube_cells(scans, np.full(B, scan.level - lo), pos)
        for row, p in zip(cells, pos):
            assert np.array_equal(np.flatnonzero(row), np.sort(cell_block(scan, ids, tuple(p)).ravel()))
    for combine in (np.maximum, np.add):
        got = sweep(f, grid, lambda scan: cube_cell_sums(scan, pre) * 2.0 ** scan.level, combine)
        want = each(lambda p: sweep(f, grid, lambda scan: cube_cell_sums(scan, p) * 2.0 ** scan.level, combine), pre)
        assert np.array_equal(got, want)
    for q in (1.5, 4.0):
        norms = lp_norms(f, rows, q, weight=f)
        assert norms == [lp_norm(f.with_values(row), q, weight=f) for row in rows]


def _reachable(*roots):
    """Every object reachable from the roots through references, types,
    modules and functions aside."""
    seen, stack = {}, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_walk_memo_reused_and_holds_integers_only():
    f = make_f(2, (-1, 0), 2, 24)
    op.frac_maximal(f, 0.5)
    before = scan_module._scans.cache_info()
    op.frac_maximal(f, 0.5)
    after = scan_module._scans.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    for grid in op._grids(f, None, None, None):
        # plain integers: the mesh key of the geometry record, the shift, the level range
        key = (f.geometry.key, grid.shift, grid.min_level, grid.max_level)
        assert all(type(k) is int for k in f.geometry.key + grid.shift + key[2:])
        entry = scan_module._scans(*key)
        assert len(entry) == len(grid.levels)
        assert not any(isinstance(obj, np.ndarray) for obj in _reachable(entry, *key))


@pytest.mark.parametrize("corners", [((0,), (-1,)), ((-1, 0), (-1, -2))], ids=["1d", "2d"])
def test_memo_keeps_window_corners_apart(corners):
    # meshes that differ in the window corner alone get scans of their own,
    # each the one a cold memo builds
    meshes = [make_f(len(c), c, 2, 24) for c in corners]
    grids = [single_grid(f, (1,) * f.dim) for f in meshes]
    warm = [tuple(iter_scans(f, grid)) for f, grid in zip(meshes, grids)]
    assert [s.plans for s in warm[0]] != [s.plans for s in warm[1]]
    scan_module._scans.cache_clear()
    for f, grid, scans in zip(meshes[::-1], grids[::-1], warm[::-1]):
        assert tuple(iter_scans(f, grid)) == scans

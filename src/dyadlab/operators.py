"""Maximal and potential operators on sampled functions.

All cube-based operators run over shifted dyadic grids whose levels are
aligned with the sample mesh, so every cube is a block of whole cells and
its sum is read as a difference of prefix sums.  That difference is not
exact: when the cube's mass is small next to the prefix totals it cancels,
and on high-contrast weights the relative error of a cube sum has reached
1.5e5 ulps.  Suprema and sums over levels are truncated at the requested
level range; callers comparing two operators should use the same range on
both sides.  Averages are always taken over the full cube volume, with the
zero extension outside the window contributing nothing.

The registry OPERATORS holds the one definition of each operator, on
arrays: OPERATORS[id](f, values, mu, ...) maps values on the mesh of f,
the spatial axes last and any leading axes a batch, to an array of the
same shape, (B, *mesh) to (B, *mesh).  Each row has the bits of the
operator on that row alone, since every row goes through the same
element-wise operations.  The public SampledFunction operators are its
one-row cases, bar riesz_1d's; the CLI and normest call the registry.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .grid import DyadicCube, GridFamily, all_shifts
from .orlicz import YoungFunction, luxemburg
from .sampled import SampledFunction, block_differences, log_prefix, prefix_sum
from .scan import (
    LevelScan,
    cell_block,
    cube_cell_sums,
    cube_integrals,
    inside_window_mask,
    iter_scans,
    spread,
    sweep,
    zero_cells,
)

COARSE_MARGIN = 4


class OperatorError(ValueError):
    pass


def default_levels(f: SampledFunction, min_level: Optional[int], max_level: Optional[int]) -> Tuple[int, int]:
    """Level range used when the caller does not pin one down: from a few
    doublings above the window size down to the mesh alignment limit."""
    geom = f.geometry
    s = geom.side.bit_length() - 1  # the window side is 2^s
    lo = -(s + COARSE_MARGIN) if min_level is None else int(min_level)
    hi = geom.max_aligned_level if max_level is None else int(max_level)
    if hi > geom.max_aligned_level:
        raise OperatorError(
            f"max_level {hi} finer than the mesh alignment limit {geom.max_aligned_level}"
        )
    if lo > hi:
        raise OperatorError("empty level range")
    return lo, hi


def _grids(f: SampledFunction, shifts, min_level, max_level) -> list:
    lo, hi = default_levels(f, min_level, max_level)
    if shifts is None:
        shifts = all_shifts(f.dim)
    elif isinstance(shifts, tuple) and all(isinstance(x, int) for x in shifts):
        shifts = [shifts]
    geom = f.geometry
    return [GridFamily(geom.dim, tuple(sh), lo, hi, geom.window) for sh in shifts]


def _grid(f: SampledFunction, shift, min_level, max_level) -> GridFamily:
    """The single grid of a one-shift operator; the classic grid by default."""
    return _grids(f, [(0,) * f.dim if shift is None else shift], min_level, max_level)[0]


def _order(order, n: int, error=OperatorError, name: str = "alpha", open_below: bool = False) -> float:
    """float(order), checked to lie in [0, n), or in (0, n) when open_below;
    error is the caller's exception class."""
    a = float(order)
    if not (0 < a < n if open_below else 0 <= a < n):
        raise error(f"{name} must lie in {'(' if open_below else '['}0, {n}), got {order}")
    return a


def _shell_constant(alpha, n: int, error=OperatorError) -> float:
    """(1 - 2^{alpha - n})^{-1}, the geometric-series constant of the shell
    potential, for 0 < alpha < n."""
    return 1.0 / (1.0 - 2.0 ** (_order(alpha, n, error, open_below=True) - n))


def _frac_averages(f: SampledFunction, a: float, pre: Optional[np.ndarray] = None):
    """Level function of |Q|^{a/n} times the average of f over Q, on every
    cube of a scan; with a prefix table pre of functions on the mesh of f
    (leading axes a batch), of each of those instead."""
    n, cellvol = f.dim, f.geometry.cellvol
    pre = f.prefix if pre is None else pre
    return lambda scan: cube_cell_sums(scan, pre) * (2.0 ** (scan.level * (n - a)) * cellvol)


def _maximal_values(f: SampledFunction, pre: np.ndarray, a: float, grids) -> np.ndarray:
    """The values of frac_maximal over the grids for the functions whose
    prefix table is pre, on the mesh of f; leading axes of pre are a batch,
    and each row gets the bits of its own unbatched maximal."""
    level_values = _frac_averages(f, a, pre)
    out = np.zeros(pre.shape[:pre.ndim - f.dim] + f.values.shape)
    for grid in grids:
        np.maximum(out, sweep(f, grid, level_values, np.maximum), out=out)
    return out


def _orlicz_averages(values: np.ndarray, n: int, cellvol: float, phi: YoungFunction, root: float):
    """Level function of the Luxemburg average ||values^{1/root}||_{phi,Q}
    on each row of values (leading axes a batch), where live is set when
    it is given (0 elsewhere).  A plain power t^r reads every cube from
    one prefix table of values^{r/root}; any other phi solves the
    Luxemburg equation cube by cube."""
    is_power = phi.is_power
    if is_power:
        r = phi.r
        pre = prefix_sum(values if r == root else values ** (r / root), n)
    else:
        base = values ** (1.0 / root)

    def level(scan: LevelScan, live: Optional[np.ndarray] = None) -> np.ndarray:
        vol = scan.cube_volume()
        if is_power:
            # clamped at 0: a 2-D prefix-sum difference over zero cells can be -roundoff
            return (np.maximum(cube_cell_sums(scan, pre), 0.0) * (cellvol / vol)) ** (1.0 / r)
        lead = base.shape[:base.ndim - n]
        out = np.zeros(lead + scan.shape)
        for row in np.ndindex(lead):
            for pos in np.ndindex(scan.shape) if live is None else map(tuple, np.argwhere(live)):
                out[row + pos] = luxemburg(cell_block(scan, base[row], pos), cellvol, vol, phi)
        return out

    return level


# === fractional maximal operators =============================================

def frac_maximal(
    f: SampledFunction,
    alpha=0,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """sup over cubes of |Q|^{alpha/n} times the average of f on Q.

    By default the supremum runs over every shifted grid; pass a single
    shift tuple (or list of them) to restrict it.
    """
    return f._adopt(OPERATORS["frac_maximal"](f, f.values, None, alpha, None, shifts, min_level, max_level))


def cut_frac_maximal(f: SampledFunction, outer: LevelScan, inner, alpha=0) -> np.ndarray:
    """M_alpha(f chi_Q)(x) at every cell x, where Q is the cube of the
    outer scan whose window part holds x, maximised over the inner scans.

    On Q's cells this is frac_maximal(f.restrict_to(Q), alpha) over the
    inner grids, for every cube Q of the outer scan at once.  inner holds
    one (level, tables) entry per inner level, from constants._inner_scans:
    per axis, one row of clipped cell edges per inner grid, padded with N.
    An inner cube R meets Q in one block between consecutive edges of Q
    and R sorted together, and its sum is a prefix-sum difference of f at
    those edges.  So each inner level takes one row-wise sort per axis,
    one gather from the prefix table and one block difference for all its
    grids, and each row is spread and folded in with np.maximum.  A
    repeated edge (one both scans hold, or the padding) bounds a block of
    zero width, which spreads over no cell; every other block has the
    edges, and so the bits, it has in the sorted union of the two scans.
    """
    n = f.dim
    a = _order(alpha, n)
    out = np.zeros_like(f.values)
    pre = f.prefix
    cellvol = f.geometry.cellvol
    outer_edges = outer.edges
    for level, tables in inner:
        edges = []
        for Q, R in zip(outer_edges, tables):
            E = np.empty((len(R), len(Q) + R.shape[1]), dtype=np.int64)
            E[:, :len(Q)] = Q
            E[:, len(Q):] = R
            E.sort(axis=1)
            edges.append(E)
        # row g of the gather is the prefix table read at grid g's edges
        at = edges[0] if n == 1 else (edges[0][:, :, None], edges[1][:, None, :])
        vals = block_differences(pre[at], n) * (2.0 ** (level * (n - a)) * cellvol)
        for row, *widths in zip(vals, *(E[:, 1:] - E[:, :-1] for E in edges)):
            np.maximum(out, spread(row, widths), out=out)
    return out


def dyadic_frac_maximal(
    f: SampledFunction,
    alpha=0,
    shift: Optional[Tuple[int, ...]] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """Single-grid fractional maximal; the classic unshifted grid by default."""
    return f._adopt(OPERATORS["dyadic_frac_maximal"](f, f.values, None, alpha, None, shift, min_level, max_level))


def weighted_dyadic_maximal(
    f: SampledFunction,
    mu: SampledFunction,
    beta=0,
    shift: Optional[Tuple[int, ...]] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """sup over cubes of mu(Q)^{beta/n - 1} times the mu-integral of f on Q.

    Cubes with mu(Q) = 0 contribute nothing.  beta = 0 recovers the
    mu-average maximal operator.
    """
    return f._adopt(OPERATORS["weighted_dyadic_maximal"](f, f.values, mu, beta, None, shift, min_level, max_level))


def _weighted_dyadic_maximal(f, values, mu, beta, phi, shift, min_level, max_level) -> np.ndarray:
    """The registry's weighted_dyadic_maximal: mu is the measure of the
    maximal operator, not a density applied to values."""
    mu = _needs(mu, "weighted_dyadic_maximal needs a measure mu")
    n = f.dim
    expo = _order(beta, n, name="beta") / n - 1.0
    grid = _grid(f, shift, min_level, max_level)
    pre_fmu = _prefix(f, values, mu)
    cellvol = f.geometry.cellvol

    def level_values(scan):
        mu_q = cube_integrals(scan, mu)
        fmu_q = cube_cell_sums(scan, pre_fmu) * cellvol
        vals = np.zeros_like(fmu_q)
        # the mask spans every axis of the batch, which keeps numpy's plain boolean path
        pos = np.broadcast_to(mu_q > 0, fmu_q.shape)
        vals[pos] = np.broadcast_to(mu_q, fmu_q.shape)[pos] ** expo * fmu_q[pos]
        return vals

    return sweep(f, grid, level_values, np.maximum)


def geometric_maximal(
    f: SampledFunction,
    shift: Optional[Tuple[int, ...]] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """sup over cubes of exp(average of log f on Q).

    A cube contributes only when f is strictly positive on all of it and it
    sits fully inside the window; any zero value (including the extension
    outside the window) sends the geometric average to zero.
    """
    n = f.dim
    pre_log = log_prefix(f)
    cellvol = f.geometry.cellvol

    def level_values(scan):
        log_q = cube_cell_sums(scan, pre_log)
        clean = inside_window_mask(scan) & (zero_cells(scan, f) == 0)
        inv_vol = 2.0 ** (scan.level * n) * cellvol
        vals = np.zeros_like(log_q)
        vals[clean] = np.exp(log_q[clean] * inv_vol)
        return vals

    out = sweep(f, _grid(f, shift, min_level, max_level), level_values, np.maximum)
    return f._adopt(out)


def orlicz_maximal(
    f: SampledFunction,
    phi: YoungFunction,
    beta=0,
    shift: Optional[Tuple[int, ...]] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """sup over cubes of |Q|^{beta/n} times the Luxemburg average of f on Q.

    Plain-power Young functions reduce to power averages and vectorize;
    anything else solves the Luxemburg equation cube by cube.
    """
    return f._adopt(OPERATORS["orlicz_maximal"](f, f.values, None, beta, phi, shift, min_level, max_level))


def _orlicz_maximal(f, values, mu, beta, phi, shift, min_level, max_level) -> np.ndarray:
    """The registry's orlicz_maximal, of values dmu."""
    phi = _needs(phi, "orlicz_maximal needs a Young function phi")
    n = f.dim
    b = _order(beta, n, name="beta")
    grid = _grid(f, shift, min_level, max_level)
    averages = _orlicz_averages(_dmu(f, values, mu), n, f.geometry.cellvol, phi, 1.0)
    return sweep(f, grid, lambda scan: scan.cube_volume() ** (b / n) * averages(scan), np.maximum)


# === potential operators ======================================================

def dyadic_riesz(
    f: SampledFunction,
    alpha,
    shift: Optional[Tuple[int, ...]] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """Sum over cubes containing x of |Q|^{alpha/n} times the average of f,
    truncated to the level range."""
    return f._adopt(OPERATORS["dyadic_riesz"](f, f.values, None, alpha, None, shift, min_level, max_level))


def _riesz_1d(f, values, mu, alpha, phi, shift, min_level, max_level) -> np.ndarray:
    """The continuum fractional integral on the line at cell centers, each
    row convolved with k[m], the exact integral of |x - y|^{alpha - 1} over
    the cell at offset m from x: a difference of sign(u)|u|^alpha / alpha.
    It has no grid, so shift and the level range are not read."""
    if f.dim != 1:
        raise OperatorError("the continuum potential is implemented on the line")
    a = _order(alpha, 1, open_below=True)
    values = _dmu(f, values, mu)

    def F(u: np.ndarray) -> np.ndarray:
        return np.sign(u) * np.abs(u) ** a / a

    N = f.ncells
    m = np.arange(N, dtype=np.float64)
    h = f.geometry.side / f.geometry.ncells  # float(f.h): both round the same rational correctly
    k = F((m + 0.5) * h) - F((m - 0.5) * h)
    kk = np.concatenate([k[:0:-1], k])
    rows = [np.convolve(row, kk)[N - 1 : 2 * N - 1] for row in values.reshape(-1, N)]
    out = np.reshape(rows, values.shape)
    # rounding can leave tiny negatives on zero cells
    np.maximum(out, 0.0, out=out)
    return out


# === outer shell potential ====================================================

def _chains_end(scan: LevelScan) -> bool:
    """Whether the ancestor chain of every cube of the scan has ended: on
    every axis each cube covers the window or, on the unshifted grid, is
    pinned at the origin (an edge of every level), so no coarser ancestor
    covers another cell of the window.  The one place the end of a chain
    is decided, on the cubes' integer cell edges."""
    for (m_lo, count, raw0, step), tau in zip(scan.plans, scan.grid.shift):
        j = np.arange(count)
        lo_cov, hi_cov = raw0 + step * j <= 0, raw0 + step * (j + 1) >= scan.ncells
        locked = lo_cov & hi_cov
        if tau == 0:
            locked |= ((m_lo + j == 0) & hi_cov) | ((m_lo + j == -1) & lo_cov)
        if not locked.all():
            return False
    return True


def _shell_scans(f: SampledFunction, shift, min_level: int, max_level: int) -> tuple:
    """The scans of one grid on the mesh of f, coarse to fine down to
    max_level, from the finest level at or above min_level at which every
    ancestor chain stops; so the chain of every cube in the level range
    runs inside them."""
    for top in range(min_level, min_level - 500, -1):
        scans = iter_scans(f, GridFamily(f.dim, shift, top, max_level, f.window))
        if _chains_end(scans[0]):
            return scans
    raise OperatorError("ancestor chain did not stabilize")


def _shells(f: SampledFunction, scans, lev: np.ndarray, pos: np.ndarray, masses: np.ndarray,
            coeff: float, a: float) -> np.ndarray:
    """Shell potentials of B cubes of one grid at once, as (B, *mesh).

    Cube b sits at position pos[b] (a (B, dim) array) of scans[lev[b]] and
    carries the mass masses[b]; the scans come from _shell_scans.  Its
    ancestor A at each level, the cube whose raw cell range holds its raw
    start, holds coeff * |A|^{a/n - 1} * mass, which grows as A shrinks:
    a sweep with np.maximum keeps on every cell the shell of its smallest
    ancestor.  Ancestors past the end of the cube's ancestor chain
    (_chains_end) cover the same cells of the window as its last one.
    """
    n, B = f.dim, len(lev)
    plans = np.array([scan.plans for scan in scans])  # (levels, dim, (m_lo, count, raw0, step))
    start = plans[lev, :, 2] + plans[lev, :, 3] * pos
    top = scans[0].level

    def level_values(scan: LevelScan) -> np.ndarray:
        i = scan.level - top
        rows = np.flatnonzero(lev >= i)
        anc = (start[rows] - plans[i, :, 2]) // plans[i, :, 3]
        out = np.zeros((B,) + scan.shape)
        out[(rows, *anc.T)] = (coeff * scan.cube_volume() ** (a / n - 1.0) * masses)[rows]
        return out

    return sweep(f, scans[0].grid, level_values, np.maximum)


def outer_riesz(
    sigma: SampledFunction,
    cube0: DyadicCube,
    alpha,
) -> SampledFunction:
    """Shell potential seeded by the mass of sigma on one cube.

    Summing |A|^{alpha/n - 1} sigma(Q0) over all ancestors A of Q0 that
    contain x collapses, by the geometric series, to

        coeff * |A_min(x)|^{alpha/n - 1} * sigma(Q0),

    where A_min(x) is the minimal ancestor containing x and
    coeff = 1 / (1 - 2^{alpha - n}).  Points below no ancestor (possible
    for the unshifted grid, whose cubes never cross the origin) get zero.
    This is the one-cube case of the batched shells of the testing chain.
    """
    n = sigma.dim
    C = _shell_constant(alpha, n)
    if cube0.dim != n:
        raise OperatorError("cube dimension mismatch")
    if cube0.level > sigma.max_aligned_level:
        raise OperatorError("cube finer than the mesh alignment limit")
    scans = _shell_scans(sigma, cube0.shift, cube0.level, cube0.level)
    pos = np.array([m - m_lo for m, m_lo in zip(cube0.index, scans[-1].m_lo)])
    if not all(0 <= j < count for j, count in zip(pos, scans[-1].shape)):
        # a cube off the window has no mass, and so neither do its shells
        return sigma._adopt(np.zeros_like(sigma.values))
    mass = cube_integrals(scans[-1], sigma)[tuple(pos)]
    out = _shells(sigma, scans, np.array([len(scans) - 1]), pos[None], np.array([mass]), C, float(alpha))
    return sigma._adopt(out[0])


# === operator registry ========================================================

class MissingInputError(OperatorError):
    """An operator was called without the measure or Young function it needs."""


def _needs(value, message: str):
    if value is None:
        raise MissingInputError(message)
    return value


def _dmu(f: SampledFunction, values: np.ndarray, mu: Optional[SampledFunction]) -> np.ndarray:
    """values times the density of mu, on the mesh of f (values itself when mu is None)."""
    if mu is None:
        return values
    f.require_same_mesh(mu)
    return values * mu.values


def _prefix(f: SampledFunction, values: np.ndarray, mu: Optional[SampledFunction]) -> np.ndarray:
    """The prefix table of values dmu on the mesh of f.  For f's own values
    and no measure it is f's cached table, so the operators run on one
    function share it."""
    if mu is None and values is f.values:
        return f.prefix
    return prefix_sum(_dmu(f, values, mu), f.dim)


# OPERATORS[id](f, values, mu, alpha, phi, shift, min_level, max_level)
# applies one operator to values dmu (to values itself when mu is None)
# and returns an array of the shape of values.  values holds functions on
# the mesh of f, the spatial axes last; f gives only the mesh.
# alpha is the order; the Orlicz and weighted maximal operators take it as
# beta, and the weighted one reads mu as its measure.  shift None means
# every shift for frac_maximal and the classic grid for the single-grid
# operators.
OPERATORS = {
    "identity": lambda f, v, mu, a, phi, sh, lo, hi: _dmu(f, v, mu),
    "frac_maximal": lambda f, v, mu, a, phi, sh, lo, hi: _maximal_values(
        f, _prefix(f, v, mu), _order(a, f.dim), _grids(f, sh, lo, hi)),
    "dyadic_frac_maximal": lambda f, v, mu, a, phi, sh, lo, hi: _maximal_values(
        f, _prefix(f, v, mu), _order(a, f.dim), [_grid(f, sh, lo, hi)]),
    "dyadic_riesz": lambda f, v, mu, a, phi, sh, lo, hi: sweep(
        f, _grid(f, sh, lo, hi), _frac_averages(f, _order(a, f.dim, open_below=True), _prefix(f, v, mu)), np.add),
    "riesz_1d": _riesz_1d,
    "orlicz_maximal": _orlicz_maximal,
    "weighted_dyadic_maximal": _weighted_dyadic_maximal,
}

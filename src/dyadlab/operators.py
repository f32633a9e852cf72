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
one-row cases, and the CLI and normest call the registry directly.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .grid import DyadicCube, GridFamily, all_shifts
from .orlicz import YoungFunction, luxemburg
from .sampled import SampledFunction, block_sums, log_prefix, prefix_sum
from .scan import (
    LevelScan,
    cell_block,
    cube_cell_sums,
    cube_cells,
    cube_integrals,
    inside_window_mask,
    iter_scans,
    merge_edges,
    spread,
    sweep,
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
    lo, hi = default_levels(f, min_level, max_level)
    geom = f.geometry
    sh = (0,) * geom.dim if shift is None else tuple(shift)
    return GridFamily(geom.dim, sh, lo, hi, geom.window)


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


def _luxemburg_averages(scan: LevelScan, values: np.ndarray, cellvol: float, phi: YoungFunction,
                        live: Optional[np.ndarray] = None) -> np.ndarray:
    """The Luxemburg average ||values||_{phi,Q} cube by cube over a scan
    (where live is set when it is given; 0 elsewhere), for each row of
    values; leading axes of values are a batch."""
    vol = scan.cube_volume()
    lead = values.shape[:values.ndim - scan.dim]
    out = np.zeros(lead + scan.shape)
    for row in np.ndindex(lead):
        for pos in np.ndindex(scan.shape) if live is None else map(tuple, np.argwhere(live)):
            out[row + pos] = luxemburg(cell_block(scan, values[row], pos), cellvol, vol, phi)
    return out


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
    return f.with_values(OPERATORS["frac_maximal"](f, f.values, None, alpha, None, shifts, min_level, max_level))


def cut_frac_maximal(f: SampledFunction, outer: LevelScan, inner, alpha=0) -> np.ndarray:
    """M_alpha(f chi_Q)(x) at every cell x, where Q is the cube of the
    outer scan whose window part holds x, maximised over the inner scans
    (every level of the inner grids; only their level and edges are read).

    On Q's cells this is frac_maximal(f.restrict_to(Q), alpha) over the
    inner grids, for every cube Q of the outer scan at once.  An inner
    cube R meets Q in one block between consecutive merged edges of the
    two scans, and its sum is a prefix-sum difference of f at those edges.
    """
    n = f.dim
    a = _order(alpha, n)
    out = np.zeros_like(f.values)
    pre = f.prefix
    cellvol = f.geometry.cellvol
    outer_edges = outer.edges
    for scan in inner:
        edges = tuple(merge_edges(Q, R) for Q, R in zip(outer_edges, scan.edges))
        vals = block_sums(pre, edges) * (2.0 ** (scan.level * (n - a)) * cellvol)
        np.maximum(out, spread(vals, [E[1:] - E[:-1] for E in edges]), out=out)
    return out


def dyadic_frac_maximal(
    f: SampledFunction,
    alpha=0,
    shift: Optional[Tuple[int, ...]] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> SampledFunction:
    """Single-grid fractional maximal; the classic unshifted grid by default."""
    return f.with_values(OPERATORS["dyadic_frac_maximal"](f, f.values, None, alpha, None, shift, min_level, max_level))


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
    return f.with_values(OPERATORS["weighted_dyadic_maximal"](f, f.values, mu, beta, None, shift, min_level, max_level))


def _weighted_dyadic_maximal(f, values, mu, beta, phi, shift, min_level, max_level) -> np.ndarray:
    """The registry's weighted_dyadic_maximal: mu is the measure of the
    maximal operator, not a density applied to values."""
    mu = _needs(mu, "weighted_dyadic_maximal needs a measure mu")
    n = f.dim
    expo = _order(beta, n, name="beta") / n - 1.0
    grid = _grid(f, shift, min_level, max_level)
    pre_fmu = _prefix(f, values, mu)
    pre_mu = mu.prefix
    cellvol = f.geometry.cellvol

    def level_values(scan):
        mu_q = cube_cell_sums(scan, pre_mu) * cellvol
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
    pre_zero = f.zero_prefix  # None when f has no zero cell
    pre_log = log_prefix(f)
    cellvol = f.geometry.cellvol

    def level_values(scan):
        log_q = cube_cell_sums(scan, pre_log)
        clean = inside_window_mask(scan)
        if pre_zero is not None:
            clean &= np.rint(cube_cell_sums(scan, pre_zero)) == 0
        inv_vol = 2.0 ** (scan.level * n) * cellvol
        vals = np.zeros_like(log_q)
        vals[clean] = np.exp(log_q[clean] * inv_vol)
        return vals

    out = sweep(f, _grid(f, shift, min_level, max_level), level_values, np.maximum)
    return f.with_values(out)


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
    return f.with_values(OPERATORS["orlicz_maximal"](f, f.values, None, beta, phi, shift, min_level, max_level))


def _orlicz_maximal(f, values, mu, beta, phi, shift, min_level, max_level) -> np.ndarray:
    """The registry's orlicz_maximal, of values dmu."""
    phi = _needs(phi, "orlicz_maximal needs a Young function phi")
    n = f.dim
    b = _order(beta, n, name="beta")
    grid = _grid(f, shift, min_level, max_level)
    values = _dmu(f, values, mu)
    cellvol = f.geometry.cellvol
    is_power = getattr(phi, "is_power", False)
    if is_power:
        pre_pow = prefix_sum(values ** phi.r, n)

    def level_values(scan):
        vol_q = scan.cube_volume()
        side_weight = vol_q ** (b / n)
        if is_power:
            # clamped at 0: a 2-D prefix-sum difference over zero cells can be -roundoff
            mean_pow = np.maximum(cube_cell_sums(scan, pre_pow), 0.0) * (cellvol / vol_q)
            return mean_pow ** (1.0 / phi.r) * side_weight
        return side_weight * _luxemburg_averages(scan, values, cellvol, phi)

    return sweep(f, grid, level_values, np.maximum)


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
    return f.with_values(OPERATORS["dyadic_riesz"](f, f.values, None, alpha, None, shift, min_level, max_level))


def riesz_potential_1d(f: SampledFunction, alpha) -> SampledFunction:
    """Continuum fractional integral on the line, evaluated at cell centers
    with the kernel integrated exactly over each source cell: k[m], the
    integral of |x - y|^{alpha - 1} over the cell at offset m from x, is a
    difference of the antiderivative sign(u)|u|^alpha / alpha."""
    return f.with_values(OPERATORS["riesz_1d"](f, f.values, None, alpha, None, None, None, None))


def _riesz_1d(f, values, mu, alpha, phi, shift, min_level, max_level) -> np.ndarray:
    """The registry's riesz_1d, convolved row by row; it has no grid, so
    shift and the level range are not read."""
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
    carries the mass masses[b]; the scans come from _shell_scans.  Each of
    its ancestors A, found through the parent offsets, writes
    coeff * |A|^{a/n - 1} * mass onto its cells, coarse to fine.  The
    ancestors past the end of the cube's ancestor chain (_chains_end) cover
    the same cells of the window as its last one, so their values are
    overwritten.
    """
    n, B = f.dim, len(lev)
    anc = [None] * len(scans)
    cur = np.zeros_like(pos)
    for i in range(len(scans) - 1, -1, -1):
        anc[i] = cur = np.where((lev == i)[:, None], pos, cur)
        if scans[i].parent_start is not None:
            cur = (cur + np.array(scans[i].parent_start)) // 2
    out = np.zeros((B,) + f.values.shape)
    rows = (B,) + (1,) * n
    # coarse to fine, so each cell keeps the shell of its smallest ancestor
    for i in range(len(scans)):
        value = coeff * scans[i].cube_volume() ** (a / n - 1.0) * masses
        hit = cube_cells(scans, np.full(B, i), anc[i]) & (lev >= i).reshape(rows)
        np.copyto(out, value.reshape(rows), where=hit)
    return out


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
        return sigma.with_values(np.zeros_like(sigma.values))
    mass = cube_integrals(scans[-1], sigma)[tuple(pos)]
    out = _shells(sigma, scans, np.array([len(scans) - 1]), pos[None], np.array([mass]), C, float(alpha))
    return sigma.with_values(out[0])


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

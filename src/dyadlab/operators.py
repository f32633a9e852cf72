"""Maximal and potential operators on sampled functions.

All cube-based operators run over shifted dyadic grids whose levels are
aligned with the sample mesh, so every cube average is an exact prefix-sum
difference.  Suprema and sums over levels are therefore truncated at the
requested level range; callers comparing two operators should use the same
range on both sides.  Averages are always taken over the full cube volume,
with the zero extension outside the window contributing nothing.
"""
from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .grid import Box, DyadicCube, GridFamily, all_shifts, parent, realize
from .orlicz import YoungFunction, luxemburg
from .sampled import SampledFunction, _log2_exact, block_sums, log_prefix, prefix_sum
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
    s = _log2_exact(f.side)
    lo = -(s + COARSE_MARGIN) if min_level is None else int(min_level)
    hi = f.max_aligned_level if max_level is None else int(max_level)
    if hi > f.max_aligned_level:
        raise OperatorError(
            f"max_level {hi} finer than the mesh alignment limit {f.max_aligned_level}"
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
    return [GridFamily(f.dim, tuple(sh), lo, hi, f.window) for sh in shifts]


def _grid(f: SampledFunction, shift, min_level, max_level) -> GridFamily:
    """The single grid of a one-shift operator; the classic grid by default."""
    lo, hi = default_levels(f, min_level, max_level)
    sh = (0,) * f.dim if shift is None else tuple(shift)
    return GridFamily(f.dim, sh, lo, hi, f.window)


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
    n, cellvol = f.dim, float(f.cell_volume)
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
    (where live is set when it is given; 0 elsewhere)."""
    vol = scan.cube_volume()
    out = np.zeros(scan.shape)
    for pos in np.ndindex(scan.shape) if live is None else map(tuple, np.argwhere(live)):
        out[pos] = luxemburg(cell_block(scan, values, pos), cellvol, vol, phi)
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
    a = _order(alpha, f.dim)
    return f.with_values(_maximal_values(f, f.prefix, a, _grids(f, shifts, min_level, max_level)))


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
    cellvol = float(f.cell_volume)
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
    sh = (0,) * f.dim if shift is None else tuple(shift)
    return frac_maximal(f, alpha, shifts=[sh], min_level=min_level, max_level=max_level)


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
    f.require_same_mesh(mu)
    n = f.dim
    b = _order(beta, n, name="beta")
    pre_mu = mu.prefix
    pre_fmu = prefix_sum(f.values * mu.values)
    cellvol = float(f.cell_volume)
    expo = b / n - 1.0

    def level_values(scan):
        mu_q = cube_cell_sums(scan, pre_mu) * cellvol
        fmu_q = cube_cell_sums(scan, pre_fmu) * cellvol
        vals = np.zeros_like(mu_q)
        pos = mu_q > 0
        vals[pos] = mu_q[pos] ** expo * fmu_q[pos]
        return vals

    out = sweep(f, _grid(f, shift, min_level, max_level), level_values, np.maximum)
    return f.with_values(out)


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
    cellvol = float(f.cell_volume)

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
    n = f.dim
    b = _order(beta, n, name="beta")
    cellvol = float(f.cell_volume)
    is_power = getattr(phi, "is_power", False)
    if is_power:
        pre_pow = prefix_sum(f.values ** phi.r)

    def level_values(scan):
        vol_q = scan.cube_volume()
        side_weight = vol_q ** (b / n)
        if is_power:
            mean_pow = cube_cell_sums(scan, pre_pow) * (cellvol / vol_q)
            return mean_pow ** (1.0 / phi.r) * side_weight
        return side_weight * _luxemburg_averages(scan, f.values, cellvol, phi)

    out = sweep(f, _grid(f, shift, min_level, max_level), level_values, np.maximum)
    return f.with_values(out)


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
    level_values = _frac_averages(f, _order(alpha, f.dim, open_below=True))
    return f.with_values(sweep(f, _grid(f, shift, min_level, max_level), level_values, np.add))


def riesz_kernel_1d(ncells: int, h: float, alpha: float) -> np.ndarray:
    """k[m] = integral over a cell at offset m of |x - y|^{alpha - 1} dy,
    for x at a cell center; exact via the antiderivative of the kernel."""
    _order(alpha, 1, open_below=True)

    def F(u: np.ndarray) -> np.ndarray:
        return np.sign(u) * np.abs(u) ** alpha / alpha

    m = np.arange(ncells, dtype=np.float64)
    return F((m + 0.5) * h) - F((m - 0.5) * h)


def riesz_potential_1d(f: SampledFunction, alpha) -> SampledFunction:
    """Continuum fractional integral on the line, evaluated at cell centers
    with the kernel integrated exactly over each source cell."""
    if f.dim != 1:
        raise OperatorError("the continuum potential is implemented on the line")
    a = float(alpha)
    k = riesz_kernel_1d(f.ncells, float(f.h), a)
    kk = np.concatenate([k[:0:-1], k])
    out = np.convolve(f.values, kk)[f.ncells - 1 : 2 * f.ncells - 1]
    # rounding can leave tiny negatives on zero cells
    np.maximum(out, 0.0, out=out)
    return f.with_values(out)


# === outer shell potential ====================================================

def _axis_locked(cube: DyadicCube, b: Box, window: Box, ax: int) -> bool:
    lo_cov = b.lower[ax] <= window.lower[ax]
    hi_cov = b.lower[ax] + b.side >= window.lower[ax] + window.side
    if lo_cov and hi_cov:
        return True
    if cube.shift[ax] == 0:
        # the unshifted grid keeps an edge at the origin at every level
        if cube.index[ax] == 0 and hi_cov:
            return True
        if cube.index[ax] == -1 and lo_cov:
            return True
    return False


def ancestor_chain(cube0: DyadicCube, window: Box) -> list:
    """Ancestors of cube0, finest first, walked until they cover the window
    or are pinned at a grid-persistent edge so coverage can no longer grow;
    more than 500 steps raise OperatorError."""
    chain = [cube0]
    for _ in range(500):
        b = realize(chain[-1])
        if b.contains_box(window):
            break
        if all(_axis_locked(chain[-1], b, window, ax) for ax in range(cube0.dim)):
            break
        chain.append(parent(chain[-1]))
    else:
        raise OperatorError("ancestor chain did not stabilize")
    return chain


def _chains_end(scan: LevelScan) -> bool:
    """Whether ancestor_chain stops at every cube of the scan: each cube,
    on every axis, covers the window or is pinned at a persistent edge of
    the unshifted grid (_axis_locked on the cubes' integer cell edges)."""
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
        scans = tuple(iter_scans(f, GridFamily(f.dim, shift, top, max_level, f.window)))
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
    ancestors past the end of the cube's ancestor_chain cover the same
    cells of the window as its last one, so their values are overwritten.
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


def _times(f: SampledFunction, mu: Optional[SampledFunction]) -> SampledFunction:
    return f if mu is None else f * mu


# Each entry applies one operator to the measure f dmu (to f itself when mu
# is None): OPERATORS[id](f, mu, alpha, phi, shift, min_level, max_level).
# alpha is the order; the Orlicz and weighted maximal operators take it as
# beta, and shift None means every shift for frac_maximal and the classic
# grid for the single-grid operators.
OPERATORS = {
    "identity": lambda f, mu, a, phi, sh, lo, hi: _times(f, mu),
    "frac_maximal": lambda f, mu, a, phi, sh, lo, hi: frac_maximal(
        _times(f, mu), a, shifts=sh, min_level=lo, max_level=hi),
    "dyadic_frac_maximal": lambda f, mu, a, phi, sh, lo, hi: dyadic_frac_maximal(
        _times(f, mu), a, shift=sh, min_level=lo, max_level=hi),
    "dyadic_riesz": lambda f, mu, a, phi, sh, lo, hi: dyadic_riesz(
        _times(f, mu), a, shift=sh, min_level=lo, max_level=hi),
    "riesz_1d": lambda f, mu, a, phi, sh, lo, hi: riesz_potential_1d(_times(f, mu), a),
    "orlicz_maximal": lambda f, mu, a, phi, sh, lo, hi: orlicz_maximal(
        _times(f, mu), _needs(phi, "orlicz_maximal needs a Young function phi"), beta=a,
        shift=sh, min_level=lo, max_level=hi),
    "weighted_dyadic_maximal": lambda f, mu, a, phi, sh, lo, hi: weighted_dyadic_maximal(
        f, _needs(mu, "weighted_dyadic_maximal needs a measure mu"), beta=a,
        shift=sh, min_level=lo, max_level=hi),
}

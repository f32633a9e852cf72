"""The three Orlicz cube-average paths as they stood before
operators._orlicz_averages took them over, kept as an oracle for it.

orlicz_maximal_values(f, values, mu, beta, phi, shift, min_level,
max_level) is the registry's orlicz_maximal: the power path reads a
prefix table of values^r, and every other phi solves the Luxemburg
equation cube by cube (luxemburg_averages).  apq_bump(pair, e, phi, ...)
is constants.apq_bump with its own power path, the r-mean from
cube_integrals of sigma^{r/p'} (or u^{r/q}), and the cube-by-cube solve
on sigma^{1/p'} (or u^{1/q}) otherwise.  Both must agree with the
library bit for bit.
"""
from typing import Optional, Tuple

import numpy as np

from dyadlab.constants import ConstantError, _apq_exponents, _require_dim, _sup_scan
from dyadlab.operators import _dmu, _grid, _needs, _order
from dyadlab.orlicz import luxemburg
from dyadlab.sampled import prefix_sum
from dyadlab.scan import cell_block, cube_cell_sums, cube_integrals, sweep


def luxemburg_averages(scan, values, cellvol, phi, live: Optional[np.ndarray] = None):
    """||values||_{phi,Q} cube by cube over a scan, where live is set when
    it is given (0 elsewhere), for each row of values."""
    vol = scan.cube_volume()
    lead = values.shape[:values.ndim - scan.dim]
    out = np.zeros(lead + scan.shape)
    for row in np.ndindex(lead):
        for pos in np.ndindex(scan.shape) if live is None else map(tuple, np.argwhere(live)):
            out[row + pos] = luxemburg(cell_block(scan, values[row], pos), cellvol, vol, phi)
    return out


def orlicz_maximal_values(f, values, mu, beta, phi, shift, min_level, max_level):
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
            mean_pow = np.maximum(cube_cell_sums(scan, pre_pow), 0.0) * (cellvol / vol_q)
            return mean_pow ** (1.0 / phi.r) * side_weight
        return side_weight * luxemburg_averages(scan, values, cellvol, phi)

    return sweep(f, grid, level_values, np.maximum)


def apq_bump(pair, e, phi, shifts=None, min_level=None, max_level=None, side="second", psi=None):
    _require_dim(pair, e)
    au, asig, ex = _apq_exponents(e)
    if side not in ("second", "both"):
        raise ConstantError(f"unknown bump side {side!r}")
    if side == "both" and psi is None:
        raise ConstantError("side='both' needs a Young function for the u side")
    cellvol = pair.u.geometry.cellvol

    def lux_column(f, root, fn_phi):
        if getattr(fn_phi, "is_power", False):
            r = float(fn_phi.r)
            g = f if r == root else f.power(r / root)
            return lambda scan, inside: (cube_integrals(scan, g) / scan.cube_volume()) ** (1.0 / r)
        fpow = f.power(1.0 / root).values
        return lambda scan, inside: luxemburg_averages(scan, fpow, cellvol, fn_phi, inside)

    lux_s = lux_column(pair.sigma, float(e.pprime), phi)
    lux_u = None if side == "second" else lux_column(pair.u, float(e.q), psi)

    def fn(scan, inside) -> Tuple[np.ndarray, np.ndarray]:
        vol = scan.cube_volume()
        s_avg = lux_s(scan, inside)
        if lux_u is None:
            mu = (cube_integrals(scan, pair.u) / vol) ** au
        else:
            mu = lux_u(scan, inside)
        return (vol ** ex * (mu * s_avg))[inside], inside

    name = "apq_bump_second" if side == "second" else "apq_bump_both"
    return _sup_scan(name, pair.u, shifts, min_level, max_level, fn)

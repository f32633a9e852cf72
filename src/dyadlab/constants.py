"""Weight constants and testing constants over enumerated cube families.

Every value reported here is the exact maximum of a per-cube functional
over the shifted-dyadic cubes that fit fully inside the sampling window,
between two levels.  That makes it an honest lower bound for the true
supremum, and the realizing cube is recorded alongside the value.  Cubes
on which a denominator measure vanishes are skipped and counted.

Cubes are visited in the one order of scan.inside_scans, and ties keep the
earliest cube, so the argmax is reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .grid import DyadicCube, cube_to_obj
from .operators import cut_frac_maximal, _grids, _orlicz_averages, _shell_constant, _shell_scans
from .orlicz import YoungFunction
from .sampled import (
    ExponentTuple,
    SampledFunction,
    log_prefix,
    obj_field,
    parse_rational,
    prefix_sum,
)
from .scan import (LevelScan, at_parents, cube_cell_sums, cube_integrals, inside_scans, iter_scans, positive_cubes,
                   zero_cells)


class ConstantError(ValueError):
    pass


# === weight pairs ============================================================


class WeightPair:
    """Two nonnegative weights on a shared mesh.

    The first weight scores the target side of an inequality, the second
    is the density the operator acts on.  ``provenance`` is a free-form
    tag ("classical", "factored", ...) carried into reports.
    """

    __slots__ = ("u", "sigma", "provenance")

    def __init__(self, u: SampledFunction, sigma: SampledFunction, provenance: str = ""):
        u.require_same_mesh(sigma)
        self.u = u
        self.sigma = sigma
        self.provenance = str(provenance)

    def swapped(self) -> "WeightPair":
        return WeightPair(self.sigma, self.u, provenance=self.provenance)

    def to_obj(self) -> dict:
        return {
            "u": self.u.to_obj(),
            "sigma": self.sigma.to_obj(),
            "provenance": self.provenance,
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "WeightPair":
        """Inverse of to_obj; a missing or malformed field raises MeshError
        naming it."""
        return cls(
            obj_field(obj, "u", SampledFunction.from_obj),
            obj_field(obj, "sigma", SampledFunction.from_obj),
            provenance=obj.get("provenance", ""),
        )


# === reports =================================================================


@dataclass(frozen=True)
class ConstantReport:
    """Maximum of a per-cube functional over an enumerated cube family.

    ``value`` is a lower bound for the supremum over all cubes; ``argmax``
    is the first cube attaining it in the order of scan.inside_scans.
    ``n_skipped`` counts cubes dropped because a denominator measure
    vanished.  A report that scored no cube measured nothing: to_obj marks
    it vacuous.
    """

    name: str
    value: float
    argmax: Optional[DyadicCube]
    n_scored: int
    n_skipped: int
    min_level: int
    max_level: int
    shifts: Tuple[Tuple[Fraction, ...], ...]

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "value": self.value if math.isfinite(self.value) else None,
            "infinite": bool(math.isinf(self.value)),
            "argmax": cube_to_obj(self.argmax) if self.argmax is not None else None,
            "n_scored": self.n_scored,
            "n_skipped": self.n_skipped,
            "vacuous": self.n_scored == 0,
            "min_level": self.min_level,
            "max_level": self.max_level,
            "shifts": [[str(c) for c in s] for s in self.shifts],
        }


def _sup_scan(
    name: str,
    mesh: SampledFunction,
    shifts,
    min_level: Optional[int],
    max_level: Optional[int],
    level_values: Callable[[LevelScan, np.ndarray], Tuple[np.ndarray, np.ndarray]],
) -> ConstantReport:
    """Run a per-cube functional over every enumerated cube and take the max.

    ``level_values(scan, inside)`` returns (values, live): live, a mask
    over scan.shape within inside, marks the cubes the functional scores,
    and values holds their values in row-major order.  The other inside
    cubes, and those of a NaN value, are skipped and counted.
    """
    grids = _grids(mesh, shifts, min_level, max_level)
    lo, hi = grids[0].min_level, grids[0].max_level
    best = -math.inf
    best_cube: Optional[DyadicCube] = None
    scored = 0
    skipped = 0
    for scan, inside in inside_scans(mesh, grids):
        values, live = level_values(scan, inside)
        masked = np.full(scan.shape, math.nan)
        masked[live] = values
        ok = ~np.isnan(masked)
        n_ok = int(np.count_nonzero(ok))
        scored += n_ok
        skipped += int(np.count_nonzero(inside)) - n_ok
        if n_ok == 0:
            continue
        masked[~ok] = -math.inf
        flat = int(np.argmax(masked))
        v = float(masked.reshape(-1)[flat])
        if v > best:
            best = v
            pos = np.unravel_index(flat, scan.shape)
            best_cube = scan.cube_at(tuple(int(t) for t in pos))
    return ConstantReport(
        name=name,
        value=best if best_cube is not None else 0.0,
        argmax=best_cube,
        n_scored=scored,
        n_skipped=skipped,
        min_level=lo,
        max_level=hi,
        shifts=tuple(g.shift for g in grids),
    )


def _require_dim(pair: WeightPair, e: ExponentTuple, error=ConstantError) -> None:
    if pair.u.dim != e.n:
        raise error("exponent dimension does not match the weights")


# === the two-weight fractional constant =====================================


def _apq_exponents(e: ExponentTuple) -> Tuple[float, float, float]:
    au = float(1 / e.q)
    asig = float(1 / e.pprime)
    ex = float(e.alpha / e.n + 1 / e.q - 1 / e.p)
    return au, asig, ex


def _apq_values(scan: LevelScan, exps: Tuple[float, float, float], u_gate, sigma_gate) -> Tuple[np.ndarray, np.ndarray]:
    """(values, live) of the per-cube joint constant

        |Q|^{alpha/n + 1/q - 1/p} (avg_Q u)^{1/q} (avg_Q sigma)^{1/p'}

    on the cubes of a scan that both gates pass; exps from _apq_exponents
    and each gate the (masses, live) of scan.positive_cubes for u and
    sigma."""
    au, asig, ex = exps
    (mass_u, live_u), (mass_s, live_s) = u_gate, sigma_gate
    live = live_u & live_s
    vol = scan.cube_volume()
    return vol ** ex * (((mass_u[live] / vol) ** au) * ((mass_s[live] / vol) ** asig)), live


def apq_alpha_constant(
    pair: WeightPair,
    e: ExponentTuple,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> ConstantReport:
    """sup_Q of the per-cube joint constant of _apq_values; cubes where u
    or sigma fails scan.positive_cubes are skipped."""
    _require_dim(pair, e)
    exps = _apq_exponents(e)

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return _apq_values(scan, exps, positive_cubes(scan, inside, pair.u),
                           positive_cubes(scan, inside, pair.sigma))

    return _sup_scan("apq_alpha", pair.u, shifts, min_level, max_level, fn)


# === A_infty flavors =========================================================


def _aexp_values(scan: LevelScan, w: SampledFunction, masses: np.ndarray, lpre: np.ndarray) -> np.ndarray:
    """(avg_Q w) exp(-avg_Q log w) over every cube of a scan, +inf where w
    has a zero cell; masses from scan.positive_cubes for w, lpre from
    log_prefix(w)."""
    vol = scan.cube_volume()
    cells = max(1, round(vol / w.geometry.cellvol))
    lsum = cube_cell_sums(scan, lpre)
    with np.errstate(over="ignore"):
        vals = masses / vol * np.exp(-lsum / cells)
    return np.where(zero_cells(scan, w) > 0, math.inf, vals)


def ainfty_exp(
    w: SampledFunction,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> ConstantReport:
    """Exponential-mean flavor: sup_Q (avg_Q w) exp(-avg_Q log w).

    Cubes where w has a zero cell but positive mass score +inf (the log
    average diverges); cubes that scan.positive_cubes does not pass are
    skipped.
    """
    lpre = log_prefix(w)

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        masses, live = positive_cubes(scan, inside, w)
        return _aexp_values(scan, w, masses, lpre)[live], live

    return _sup_scan("ainfty_exp", w, shifts, min_level, max_level, fn)


class _InnerScan(NamedTuple):
    level: int
    edges: Tuple[np.ndarray, ...]


def _inner_scans(w: SampledFunction, shifts, min_level: Optional[int], max_level: Optional[int]) -> list:
    """Every scan of the inner maximal of a cut-maximal constant: the given
    shifts (all of them for None) over the same levels as the outer cubes,
    each as its level and edges, built once for every outer scan to read."""
    return [_InnerScan(scan.level, scan.edges)
            for grid in _grids(w, shifts, min_level, max_level) for scan in iter_scans(w, grid)]


def _cut_maximal_integrals(scan: LevelScan, w: SampledFunction, live: np.ndarray, inner, alpha: float = 0.0,
                           p: float = 1.0, weight: Optional[SampledFunction] = None) -> np.ndarray:
    """int_Q M_alpha(w chi_Q)^p weight (weight 1 when None) on the cubes Q
    of a scan where live is set, in row-major order, with M over the inner
    scans from _inner_scans: one cut_frac_maximal for the whole scan, none
    when no cube is live."""
    if not live.any():
        return np.zeros(0)
    m = cut_frac_maximal(w, scan, inner, alpha) ** p
    if weight is not None:
        m *= weight.values
    num = cube_cell_sums(scan, prefix_sum(m))[live] * w.geometry.cellvol
    # the integrand is nonnegative: clamp prefix-sum roundoff at 0
    return np.maximum(num, 0.0)


def _fujii_values(scan: LevelScan, inside: np.ndarray, w: SampledFunction, inner) -> Tuple[np.ndarray, np.ndarray]:
    """(values, live) of w(Q)^{-1} int_Q M(w chi_Q) on the cubes of a scan
    that pass scan.positive_cubes for w; M over the inner scans from
    _inner_scans."""
    masses, live = positive_cubes(scan, inside, w)
    return _cut_maximal_integrals(scan, w, live, inner) / masses[live], live


def ainfty_m(
    w: SampledFunction,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> ConstantReport:
    """Maximal-function flavor: sup_Q w(Q)^{-1} int_Q M(w chi_Q).

    The inner M is the shifted-grid surrogate of the uncentered maximal
    over every shift and the same levels, evaluated on w cut off outside
    Q.  The constant is scored level by level: one cut maximal per scan
    (operators.cut_frac_maximal) gives M(w chi_Q) on every cube Q of the
    scan at once.  Cubes that scan.positive_cubes does not pass are
    skipped.
    """
    inner = _inner_scans(w, None, min_level, max_level)

    return _sup_scan("ainfty_m", w, shifts, min_level, max_level, partial(_fujii_values, w=w, inner=inner))


def _ap_values(w: SampledFunction, p):
    """Level function of (avg_Q w)(avg_Q w^{1-p'})^{p-1} on every cube of a
    scan, for a rational p > 1 and a strictly positive weight w."""
    if float(np.min(w.values)) <= 0.0:
        raise ConstantError("the Muckenhoupt functional needs a strictly positive weight")
    dual_pow = w.power(float(1 - p / (p - 1)))
    pm1 = float(p - 1)

    def values(scan: LevelScan) -> np.ndarray:
        vol = scan.cube_volume()
        return cube_integrals(scan, w) / vol * (cube_integrals(scan, dual_pow) / vol) ** pm1

    return values


def ap_constant(
    w: SampledFunction,
    p,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> ConstantReport:
    """Muckenhoupt constant sup_Q (avg_Q w)(avg_Q w^{1-p'})^{p-1}."""
    pf = parse_rational(p)
    if pf <= 1:
        raise ConstantError(f"the exponent must exceed 1, got {p}")
    ap = _ap_values(w, pf)

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return ap(scan)[inside], inside

    return _sup_scan("ap_constant", w, shifts, min_level, max_level, fn)


# === one-supremum mixed constants ===========================================


def mixed_one_sup(
    pair: WeightPair,
    e: ExponentTuple,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
    flavor: str = "apq_exp",
) -> ConstantReport:
    """Single supremum of a product of per-cube functionals.

    flavor="apq_exp":  sup_Q  Apq(u, sigma, Q) * AexpInf(sigma, Q)^{1/q}
    flavor="ap_m":     sup_Q  A_{s(q')}(sigma, Q)^{1/p'} * Fujii(sigma, Q)^{1/q}

    Both put the whole product under one sup, which is never larger than
    the product of the separate suprema.  Both are scored level by level;
    the Fujii factor of "ap_m" comes from one cut maximal per scan, as in
    ainfty_m.  Cubes where a weight fails scan.positive_cubes are skipped
    (sigma for "ap_m", u or sigma for "apq_exp").
    """
    _require_dim(pair, e)
    if flavor == "apq_exp":
        exps = _apq_exponents(e)
        lpre = log_prefix(pair.sigma)
        gq = float(1 / e.q)

        def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            sigma_gate = positive_cubes(scan, inside, pair.sigma)
            apq, live = _apq_values(scan, exps, positive_cubes(scan, inside, pair.u), sigma_gate)
            aexp = _aexp_values(scan, pair.sigma, sigma_gate[0], lpre)[live]
            with np.errstate(invalid="ignore"):
                return apq * aexp ** gq, live

        return _sup_scan("mixed_apq_exp", pair.u, shifts, min_level, max_level, fn)

    if flavor == "ap_m":
        w = pair.sigma
        ap = _ap_values(w, e.s_dual)
        beta = float(1 / e.pprime)
        gamma = float(1 / e.q)
        inner = _inner_scans(w, None, min_level, max_level)

        def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            fujii, live = _fujii_values(scan, inside, w, inner)
            return ap(scan)[live] ** beta * fujii ** gamma, live

        return _sup_scan("mixed_ap_m", w, shifts, min_level, max_level, fn)

    raise ConstantError(f"unknown mixed flavor {flavor!r}")


# === Orlicz-bumped constants =================================================


def apq_bump(
    pair: WeightPair,
    e: ExponentTuple,
    phi: YoungFunction,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
    side: str = "second",
    psi: Optional[YoungFunction] = None,
) -> ConstantReport:
    """Bumped two-weight constant with the sigma average replaced by a
    Luxemburg average:

        side="second":  |Q|^{alpha/n+1/q-1/p} (avg_Q u)^{1/q} ||sigma^{1/p'}||_{phi,Q}
        side="both":    |Q|^{alpha/n+1/q-1/p} ||u^{1/q}||_{psi,Q} ||sigma^{1/p'}||_{phi,Q}

    With phi(t) = t^{p'} the second-side form reduces to the plain
    constant exactly (the Luxemburg average of sigma^{1/p'} is then the
    p'-mean, i.e. (avg_Q sigma)^{1/p'}).
    """
    _require_dim(pair, e)
    au, asig, ex = _apq_exponents(e)
    if side not in ("second", "both"):
        raise ConstantError(f"unknown bump side {side!r}")
    if side == "both" and psi is None:
        raise ConstantError("side='both' needs a Young function for the u side")
    n, cellvol = e.n, pair.u.geometry.cellvol
    lux_s = _orlicz_averages(pair.sigma.values, n, cellvol, phi, float(e.pprime))
    lux_u = None if side == "second" else _orlicz_averages(pair.u.values, n, cellvol, psi, float(e.q))

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        vol = scan.cube_volume()
        s_avg = lux_s(scan, inside)
        if lux_u is None:
            mu = (cube_integrals(scan, pair.u) / vol) ** au
        else:
            mu = lux_u(scan, inside)
        return (vol ** ex * (mu * s_avg))[inside], inside

    name = "apq_bump_second" if side == "second" else "apq_bump_both"
    return _sup_scan(name, pair.u, shifts, min_level, max_level, fn)


# === testing constants =======================================================


def outer_testing_constant(
    pair: WeightPair,
    e: ExponentTuple,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> ConstantReport:
    """Testing constant for the outer shell potential:

        sup_{Q0} ( int I^{Q0}(sigma chi_{Q0})^q u dx )^{1/q} sigma(Q0)^{-1/p}.

    The potential is constant on the shells between consecutive ancestors
    A_0 = Q0, A_1, ... of Q0, so the integral is (coeff sigma(Q0))^q times
    sum_k |A_k|^sp (u(A_k) - u(A_{k-1})), sp = (alpha/n - 1) q, u(A_{-1}) = 0.
    This telescopes to T(Q0), T(Q) = T(parent Q) + c |Q|^sp u(Q), c = 1 - 2^{n sp}:
    one top-down sweep per grid over the scans of operators._shell_scans,
    seeded with T(A) = |A|^sp u(A) at their top, where every ancestor chain
    has ended (ancestors past the end of a chain have the same window part,
    so their terms telescope away).  T is clamped at 0 against roundoff;
    cubes that sigma fails scan.positive_cubes on are skipped.
    """
    n = e.n
    coeff = _shell_constant(e.alpha, n, ConstantError)
    _require_dim(pair, e)
    shell_pow = float((e.alpha / n - 1) * e.q)
    c = 1.0 - 2.0 ** (n * shell_pow)
    inv_q, inv_pprime = float(1 / e.q), float(1 / e.pprime)
    u = pair.u

    def tree_sums(grid) -> dict:
        """{level: T} over the levels of a grid, swept from the top of its
        shell scans."""
        top, *below = _shell_scans(u, grid.shift, grid.min_level, grid.max_level)
        t = top.cube_volume() ** shell_pow * cube_integrals(top, u)
        out = {top.level: t}
        for scan in below:
            out[scan.level] = t = (at_parents(t, scan.parent_start, scan.shape)
                                   + c * scan.cube_volume() ** shell_pow * cube_integrals(scan, u))
        return {level: out[level] for level in grid.levels}

    sums = {grid.shift: tree_sums(grid) for grid in _grids(u, shifts, min_level, max_level)}

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        masses, live = positive_cubes(scan, inside, pair.sigma)
        t = np.maximum(sums[scan.grid.shift][scan.level][live], 0.0) ** inv_q
        return coeff * masses[live] ** inv_pprime * t, live

    return _sup_scan("outer_testing", u, shifts, min_level, max_level, fn)


def sawyer_maximal_testing(
    pair: WeightPair,
    e: ExponentTuple,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
    which: str = "forward",
    inner_shifts=None,
) -> ConstantReport:
    """Maximal-operator testing constants on cut-off weights.

    which="forward":  sup_Q ( int_Q M_alpha(u chi_Q)^{p'} sigma )^{1/p'} u(Q)^{-1/q'}
    which="dual":     sup_Q ( int_Q M_alpha(sigma chi_Q)^q u )^{1/q} sigma(Q)^{-1/p}

    The inner M_alpha runs over the inner_shifts grids (every shift for
    None) and the same levels as the outer cubes.  Both sides are scored
    level by level: one cut maximal per scan (operators.cut_frac_maximal)
    gives M_alpha(w chi_Q) on every cube Q of the scan at once, as in
    ainfty_m and md_sp_testing.  Cubes where the inner weight fails
    scan.positive_cubes are skipped.
    """
    _require_dim(pair, e)
    alpha = float(e.alpha)
    if which == "forward":
        inner, outer = pair.u, pair.sigma
        p_in = float(e.pprime)
        p_norm = float(1 / e.qprime)
    elif which == "dual":
        inner, outer = pair.sigma, pair.u
        p_in = float(e.q)
        p_norm = float(1 / e.p)
    else:
        raise ConstantError(f"unknown testing side {which!r}")

    inner_scans = _inner_scans(inner, inner_shifts, min_level, max_level)

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        masses, live = positive_cubes(scan, inside, inner)
        num = _cut_maximal_integrals(scan, inner, live, inner_scans, alpha, p_in, outer)
        return num ** (1.0 / p_in) * masses[live] ** (-p_norm), live

    return _sup_scan(f"sawyer_{which}", pair.u, shifts, min_level, max_level, fn)


def md_sp_testing(
    pair: WeightPair,
    e: ExponentTuple,
    shifts=None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> ConstantReport:
    """Plain-maximal testing constant at the Sobolev-linked exponent:

        sup_R ( int_R M^D(sigma chi_R)^{s} u )^{1/q} sigma(R)^{-1/q},

    s = 1 + q/p'.  Requires Sobolev-scaling exponents; the inner maximal runs
    on R's own grid, one cut maximal per scan; scan.positive_cubes gates sigma.
    """
    _require_dim(pair, e)
    if not e.is_sobolev:
        raise ConstantError("this testing constant needs Sobolev-scaling exponents")
    s = float(e.s_p)
    inv_q = float(1 / e.q)
    inner = {grid.shift: _inner_scans(pair.sigma, [grid.shift], min_level, max_level)
             for grid in _grids(pair.u, shifts, min_level, max_level)}

    def fn(scan: LevelScan, inside: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        masses, live = positive_cubes(scan, inside, pair.sigma)
        num = _cut_maximal_integrals(scan, pair.sigma, live, inner[scan.grid.shift], 0.0, s, pair.u)
        return num ** inv_q * masses[live] ** (-inv_q), live

    return _sup_scan("md_sp_testing", pair.u, shifts, min_level, max_level, fn)

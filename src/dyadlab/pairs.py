"""Constructive weight pairs with known joint constants.

Three constructions live here, each chosen so that the claim it illustrates
survives discretization exactly.

* A disjoint-support pair on the line: sigma is the indicator of [-2, -1)
  and u grows like x^t to the right of the origin, with t chosen so the
  joint fractional Muckenhoupt constant stays bounded over arbitrarily
  large windows while the q-th power of the fractional maximal function of
  sigma integrated against u grows like log X.  The growth rate is exact:
  the minorant exponents sum to -1 in rational arithmetic, so the continuum
  comparison integral from 1 to X is log X on the nose.

* A factored pair u = w1 * (M_g w2)^{-q/p'}, sigma = w2 * (M_g w1)^{-p'/q}
  built from two locally integrable inputs, where M_g is the fractional
  maximal operator of order g determined by the exponent tuple.  For every
  enumerated cube Q the scanner's own value M_g w(x) dominates
  |Q|^{g/n} avg_Q w at each cell of Q, so the per-cube constant is at most
  one exactly, mesh effects included.

* The interval train E = union_j [j, j + (j+1)^{-g}), whose order-g
  fractional maximal function is pinched between window-independent
  positive constants.  Feeding chi_E through the factored construction
  produces a pair whose joint constant is at most one and yet the maximal
  operator is unbounded; the divergence integral is again exactly
  logarithmic, with a termwise harmonic minorant.

Every window truncation and endpoint rounding is one-sided (sets only
shrink), so lower bounds asserted here are honest on the mesh.  Long sums
are folded with a fixed-order pairwise tree so results do not depend on
chunking.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple

import numpy as np

from .constants import ConstantError, WeightPair, apq_alpha_constant
from .grid import Box, _json_int, parse_field
from .operators import frac_maximal
from .sampled import ExponentTuple, SampledFunction, is_cell_count, is_power_of_two, parse_rational


class ExampleError(ValueError):
    pass


def _tree_sum(terms) -> float:
    """Fixed-order pairwise tree sum of a 1-D float array.

    Deterministic for a given term order regardless of how callers might
    otherwise chunk the work, and more accurate than a running sum.
    """
    arr = np.asarray(terms, dtype=np.float64).ravel()
    while arr.size > 1:
        odd = arr.size % 2
        head = arr[: arr.size - odd]
        folded = head[0::2] + head[1::2]
        if odd:
            folded = np.concatenate([folded, arr[-1:]])
        arr = folded
    return float(arr[0]) if arr.size else 0.0


# === disjoint supports: bounded constant, unbounded operator ================


def case1_pair(
    e: ExponentTuple,
    window_exp: int = 5,
    cells_per_unit: int = 12,
) -> Tuple[WeightPair, SampledFunction, dict]:
    """Disjoint-support pair (u, sigma) with f = sigma = chi_[-2,-1).

    Requires n = 1 and the strict regime 1/p - 1/q > alpha/n, where members
    of the joint Muckenhoupt class must have essentially disjoint supports.
    The right-hand weight is u = x^t on [0, infinity) with t = q(1-alpha)-1,
    sampled by exact cell averages of the antiderivative x^{t+1}/(t+1).

    The mesh window is the symmetric [-X, X) with X = 2^{window_exp - 1},
    so that the shifted cubes straddling both supports sit fully inside it
    and are scored by the joint-constant scan.
    Returns (pair, f, report).  The report carries the joint-constant scan
    and the divergence diagnostic: rows of the partial integrals
    int_1^{X_k} M_alpha(f sigma)^q u dx against log X_k on doubling X_k.
    The continuum minorant has integrand x^{q(alpha-1)} * x^t = 1/x exactly
    (the exponent sum is -1 in rational arithmetic), so log X_k is the
    exact comparison value, not an approximation.
    """
    if e.n != 1:
        raise ExampleError("the disjoint-support example is one-dimensional")
    if e.in_fractional_regime:
        raise ExampleError(
            "the disjoint-support example needs the strict regime 1/p - 1/q > alpha/n"
        )
    window_exp = parse_field(window_exp, _json_int, "window_exp", ExampleError)
    if window_exp < 3:
        raise ExampleError("window_exp must be at least 3 so the window clears x = 2")
    cpu = parse_field(cells_per_unit, _json_int, "cells_per_unit", ExampleError)
    if not is_cell_count(cpu):
        raise ExampleError(f"cells per unit length must be 3 * 2^j to align with the mesh, got {cpu}")
    side = Fraction(2) ** window_exp
    X = side // 2
    ncells = int(side) * cpu
    lower = (-X,)
    h = Fraction(1, cpu)

    t = e.q * (1 - e.alpha) - 1
    s = t + 1  # = q(1 - alpha) > 0, the antiderivative exponent
    sf = float(s)
    edges = -float(X) + np.arange(ncells + 1, dtype=np.float64) * float(h)
    lo = np.clip(edges[:-1], 0.0, None)
    hi = np.clip(edges[1:], 0.0, None)
    uvals = (hi**sf - lo**sf) / (sf * float(h))
    u = SampledFunction(1, lower, side, uvals)

    f = SampledFunction.indicator(Box((Fraction(-2),), Fraction(1)), 1, lower, side, ncells)
    pair = WeightPair(u, f, provenance="disjoint-support")

    apq = apq_alpha_constant(pair, e)
    mfa = frac_maximal(f * pair.sigma, float(e.alpha))
    gq = mfa.power(float(e.q)) * u

    cuts = [Fraction(2) ** j for j in range(1, window_exp)]
    rows = []
    i_lo = int((1 + X) * cpu)  # cell index of x = 1
    for xk in cuts:
        i_hi = int((xk + X) * cpu)
        val = _tree_sum(gq.values[i_lo:i_hi]) * float(h)
        lx = math.log(float(xk))
        rows.append({"X": float(xk), "integral": val, "log_X": lx, "ratio": val / lx})

    report = {
        "exponents": e.to_obj(),
        "t": str(t),
        "minorant_exponent_sum": str(e.q * (e.alpha - 1) + t),
        "window": {"lower": str(-X), "side": str(side), "X": str(X)},
        "cells_per_unit": cpu,
        "apq": apq.to_obj(),
        "rows": rows,
    }
    return pair, f, report


# === the interval train E ====================================================


def _auto_cpu(g: float, side: Fraction) -> int:
    """Coarsest admissible mesh: the shortest interval in the window must
    span at least eight cells after its right endpoint is rounded down."""
    shortest = float(side) ** (-g)
    c = 3
    while math.floor(shortest * c) < 8:
        c *= 2
        if c > 3 * 2**40:
            raise ExampleError("cannot satisfy the eight-cell rule at this window size")
    return c


def build_E(gamma, side) -> SampledFunction:
    """Indicator of E = union_j [j, j + (j+1)^{-gamma}) on the window [0, X).

    Interval right endpoints are rounded DOWN to cell boundaries, so the
    sampled set is contained in the continuum set and lower bounds proved
    for the sample transfer to it.  Each interval meeting the window must
    span at least eight cells after rounding (relative rounding error at
    most 1/8 per interval), at the coarsest mesh that allows it.  The
    j = 0 interval is [0, 1) exactly.
    """
    g = parse_rational(gamma)
    if not 0 < g < 1:
        raise ExampleError(f"the interval train needs 0 < gamma < 1, got {g}")
    gf = float(g)
    side = parse_rational(side)
    if not is_power_of_two(side) or side < 2:
        raise ExampleError(f"window side must be a power of two, at least 2, got {side}")
    X = int(side)
    cpu = _auto_cpu(gf, side)

    arr = np.zeros(X * cpu, dtype=np.float64)
    lengths = (np.arange(1, X + 1, dtype=np.float64)) ** (-gf)
    span = np.floor(lengths * cpu).astype(np.int64)
    if int(span.min()) < 8:
        raise ExampleError(
            f"mesh too coarse: an interval spans {int(span.min())} < 8 cells at "
            f"{cpu} cells per unit; refine the mesh"
        )
    starts = np.arange(X, dtype=np.int64) * cpu
    for st, sp in zip(starts, span):
        arr[st : st + int(sp)] = 1.0
    return SampledFunction(1, (0,), side, arr)


def verify_E_maximal(gamma, side) -> dict:
    """Check that the order-gamma maximal function of chi_E is pinched
    between window-independent constants.

    Lower bounds are asserted through cubes the scanner itself enumerates:
    on [0, 1) the cube [0, 2) gives the floor 3 * 2^{gamma-2}, and on
    [k, k+1) the cube [0, 2^r) with r = ceil(log2(k+1)) gives
    2^{r(gamma-1)} * |E_mesh restricted to [0, 2^r)|, which the reported
    maximal function must dominate cell by cell.  The geometric loss of
    that dyadic enclosure relative to the tight interval [0, x] is at most
    2^{1-gamma}, and the tight chain value is recorded alongside for
    comparison.  The upper bound splits at unit scale: cubes of side at
    most one contribute at most |Q|^gamma <= 1 exactly, and the large-cube
    supremum is recorded as the observed finite ceiling.  The set is
    sampled at build_E's automatic resolution and the maximal function
    runs over every shifted grid.
    """
    chi = build_E(gamma, side)
    g = float(parse_rational(gamma))
    X = int(parse_rational(side))
    cpu = chi.ncells // X

    m_small = frac_maximal(chi, g, min_level=0)
    m_large = frac_maximal(chi, g, max_level=0)
    m = np.maximum(m_small.values, m_large.values)

    h = 1.0 / cpu
    per_min = m.reshape(X, cpu).min(axis=1)

    unit_bound = 3.0 * 2.0 ** (g - 2.0)
    unit = {
        "bound": unit_bound,
        "observed": float(per_min[0]),
        "holds": bool(per_min[0] >= unit_bound * (1 - 1e-10)),
    }

    partial = np.concatenate([[0.0], np.cumsum(np.arange(1, X + 1, dtype=np.float64) ** (-g))])
    intervals = []
    floors_hold = True
    for k in range(1, X):
        r = (k + 1 - 1).bit_length()  # ceil(log2(k+1)) for k+1 >= 2
        sidelen = float(2**r)
        floor_k = sidelen ** (g - 1.0) * (chi.prefix[(2**r) * cpu] * h)
        chain_k = (k + 1.0) ** (g - 1.0) * partial[k + 1]
        ok = bool(per_min[k] >= floor_k * (1 - 1e-10))
        floors_hold = floors_hold and ok
        intervals.append(
            {"k": k, "min": float(per_min[k]), "floor": floor_k, "chain": chain_k, "holds": ok}
        )

    small_max = float(m_small.values.max())
    small = {"bound": 1.0, "observed": small_max, "holds": bool(small_max <= 1.0 + 1e-12)}
    overall = {"min": float(m.min()), "max": float(m.max())}
    return {
        "gamma": str(parse_rational(gamma)),
        "X": X,
        "cells_per_unit": cpu,
        "unit_floor": unit,
        "small_cube_max": small,
        "large_cube_max": float(m_large.values.max()),
        "overall": overall,
        "intervals": intervals,
        "holds": bool(unit["holds"] and small["holds"] and floors_hold),
    }


# === factored pairs ==========================================================


def factored_pair(
    w1: SampledFunction,
    w2: SampledFunction,
    e: ExponentTuple,
) -> WeightPair:
    """u = w1 * (M_g w2)^{-q/p'}, sigma = w2 * (M_g w1)^{-p'/q}.

    The order g = (alpha/n + 1/q - 1/p) / ((1/n)(1 + 1/q - 1/p)) lies in
    [0, alpha] whenever 1/p - 1/q <= alpha/n, which is required.  Cells
    where the maximal function vanishes get weight zero.  On every cube Q
    the scan enumerates, M_g w(x) >= |Q|^{g/n} avg_Q w at each cell of Q,
    and the exponent bookkeeping then forces the per-cube joint constant
    to be at most |Q|^0 = 1; the bound is exact on the mesh, not a limit
    statement, provided the joint-constant scan uses a cube family no
    larger than the one used here: every shifted grid at the default
    levels.
    """
    w1.require_same_mesh(w2)
    if not e.in_fractional_regime:
        raise ExampleError("factored pairs need the regime 1/p - 1/q <= alpha/n")
    g = e.gamma
    m1 = frac_maximal(w1, float(g))
    m2 = frac_maximal(w2, float(g))
    u = w1 * m2.power(-float(e.q / e.pprime))
    sigma = w2 * m1.power(-float(e.pprime / e.q))
    return WeightPair(u, sigma, provenance="factored")


# === the divergence diagnostic in the factored regime ========================

MINORANT_TERMS = 10**4  # terms of case2_divergence's termwise minorant check
MAX_EXPS = range(3, 27)  # the cutoff exponents case2_divergence takes: X = 2^3 .. 2^26
CHUNK_TERMS = 2**16  # case2_divergence holds this many terms at a time


def _interval_integrals(gf: float, lo: int, hi: int):
    """For the indices lo <= j < hi: j, the interval length (j+1)^{-gamma}
    at j, and the closed form int_j of x^{gamma-1} over that interval."""
    js = np.arange(lo, hi, dtype=np.float64)
    lens = (js + 1.0) ** (-gf)
    return js, lens, ((js + lens) ** gf - js**gf) / gf


def _prefix_tree_sums(chunks, stops) -> list:
    """[_tree_sum(terms[:m]) for m in stops], stops ascending and positive,
    for the terms that chunks yields in arrays of one power-of-two size,
    the last possibly shorter: one chunk and one sum per chunk held at a
    time.  For its first log2(size) levels the tree of a prefix pairs
    within each aligned chunk (the odd last term it carries is the
    prefix's last), so it is the tree of the sums of the whole chunks
    followed by the tree sum of the terms past them."""
    sums, out, start = [], [], 0
    for chunk in chunks:
        end = start + chunk.size
        while len(out) < len(stops) and stops[len(out)] <= end:
            out.append(_tree_sum(np.append(sums, _tree_sum(chunk[: stops[len(out)] - start]))))
        sums.append(_tree_sum(chunk))
        start = end
    return out


def case2_divergence(
    e: ExponentTuple,
    gamma=None,
    max_exp: int = 20,
) -> dict:
    """Window-free divergence diagnostic for the factored counterexample.

    With u comparable to x^{(1-gamma) q/p'} chi_E for large x and the
    maximal function of a fixed bump bounded below by x^{alpha-1}, the
    composite integrand compares to x^{gamma-1} chi_E: the exponent
    identity (alpha-1) q + (1-gamma) q/p' = gamma - 1 is verified in exact
    rational arithmetic.  The partial integrals
    S(X) = int_2^X x^{gamma-1} chi_E dx are evaluated in closed form from
    the interval antiderivatives (no mesh), compared against the harmonic
    minorant H(X) = sum_{2 <= j < X} 1/(j+1) termwise:

        int_j >= (j + (j+1)^{-gamma})^{gamma-1} (j+1)^{-gamma} >= 1/(j+1),

    checked term by term up to MINORANT_TERMS.  S therefore dominates H at
    every cutoff and grows by about log 2 per doubling.  A small sampled
    window, [0, 128), cross-checks the closed form: the rounded-down set
    makes the mesh value a strict lower bound.
    """
    if e.n != 1:
        raise ExampleError("the divergence diagnostic is one-dimensional")
    if not e.in_fractional_regime:
        raise ExampleError("the factored counterexample needs 1/p - 1/q <= alpha/n")
    g = e.gamma if gamma is None else parse_rational(gamma)
    if not 0 < g < 1:
        raise ExampleError(
            f"the interval-train construction needs 0 < gamma < 1, got {g}; "
            "on the boundary the set degenerates"
        )
    max_exp = parse_field(max_exp, _json_int, "max_exp", ExampleError)
    if max_exp not in MAX_EXPS:
        raise ExampleError(f"max_exp must lie in {MAX_EXPS.start}..{MAX_EXPS[-1]}, got {max_exp}")
    gf = float(g)

    lhs = (e.alpha - 1) * e.q + (1 - g) * e.q / e.pprime
    rhs = g - 1
    identity = {"lhs": str(lhs), "rhs": str(rhs), "holds": bool(lhs == rhs)}

    # the terms of the indices 2 <= j < 2^max_exp, chunk by chunk; the row
    # of X = 2^j sums the first 2^j - 2 of them
    xmax = 2**max_exp
    blocks = [(a, min(a + CHUNK_TERMS, xmax)) for a in range(2, xmax, CHUNK_TERMS)]
    stops = [2**j - 2 for j in range(2, max_exp + 1)]
    s_vals = _prefix_tree_sums((_interval_integrals(gf, a, b)[2] for a, b in blocks), stops)
    h_vals = _prefix_tree_sums((1.0 / (np.arange(a, b, dtype=np.float64) + 1.0) for a, b in blocks), stops)
    rows = [{"X": float(2**j), "S": s_val, "H": h_val, "ratio": s_val / h_val}
            for j, s_val, h_val in zip(range(2, max_exp + 1), s_vals, h_vals)]

    nt = min(MINORANT_TERMS, xmax - 2)
    js, lens, terms_s = _interval_integrals(gf, 2, nt + 2)
    pointwise = (js + lens) ** (gf - 1.0) * lens
    minorant = {
        "terms": nt,
        "integral_ge_pointwise": bool(np.all(terms_s >= pointwise * (1 - 1e-12))),
        "pointwise_ge_harmonic": bool(np.all(pointwise >= 1.0 / (js + 1.0) * (1 - 1e-12))),
    }
    dominates = all(r["S"] >= r["H"] * (1 - 1e-12) for r in rows)

    xc = 128
    chi = build_E(g, xc)
    cpu = chi.ncells // xc
    edges = np.arange(chi.ncells + 1, dtype=np.float64) / cpu
    cell_int = (edges[1:] ** gf - edges[:-1] ** gf) / gf
    mesh_val = _tree_sum((chi.values * cell_int)[2 * cpu :])
    # its own terms over [2, xc): the cutoff 2^max_exp may lie below xc
    exact_val = _tree_sum(_interval_integrals(gf, 2, xc)[2])
    mesh_check = {
        "X": float(xc),
        "mesh": mesh_val,
        "exact": exact_val,
        "one_sided": bool(mesh_val <= exact_val * (1 + 1e-12)),
        "rel_gap": (exact_val - mesh_val) / exact_val,
    }

    return {
        "exponents": e.to_obj(),
        "gamma": str(g),
        "identity": identity,
        "rows": rows,
        "minorant": minorant,
        "dominates": dominates,
        "mesh_check": mesh_check,
    }


# === classical pairs =========================================================


def classical_pair(w: SampledFunction, e: ExponentTuple) -> WeightPair:
    """u = w^q, sigma = w^{-p'} from one strictly positive weight.

    Only exponent tuples on the Sobolev line 1/p - 1/q = alpha/n admit this
    reduction to a single weight; elsewhere the two weights are genuinely
    independent objects.
    """
    if not e.is_sobolev:
        raise ExampleError(
            "classical pairs need the Sobolev relation 1/p - 1/q = alpha/n"
        )
    if float(np.min(w.values)) <= 0.0:
        raise ConstantError("classical pairs need a strictly positive weight")
    return WeightPair(w.power(float(e.q)), w.power(-float(e.pprime)), provenance="classical")

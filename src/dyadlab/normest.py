"""Lower bounds for weighted operator norms, and the equivalence report
that sets them against the testing chains.

Every norm produced here is a best Rayleigh quotient over a finite,
reproducible family of nonnegative test functions, so it is a certified
lower bound for the corresponding operator norm at the chosen
truncation.  The tail quadrature of the Orlicz maximal norm
(orlicz_norm_quadrature) is comparable to that norm only up to a
dimensional constant, and is not a certified bound of either kind.  The
equivalence report asserts nothing beyond the inequalities that hold
exactly at the discrete level.

Each estimate folds the test functions of two chunk sources, in this
order.  A chunk is (names, values), values a (B, *mesh) array whose row
b is the function names[b].

  * The plain chunks, which no operator shapes: the indicator of every
    grid cube inside the window that carries positive source mass, then
    seeded random step functions on a fixed coarse partition, so the
    family is reproducible and mesh-independent.
  * The duality chunks of an operator T: the duality-optimal functions
    T(w chi_Q)^{e-1} chi_Q, the choice that saturates the weak-type
    pairing, in the batches their seeds are built in.

Both sources cut their rows into batches of at most CHAIN_BATCH_FLOATS
floats, and each chunk reaches each operator in one registry call.

The stop rule: a source norm, image or target norm that is not finite
stops that estimate at that test function (in family order, also
within a chunk, and in that order within a row), since an overflow is
no lower bound; a call raises the NormError of its first stopped
estimate in report order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .grid import _json_int
from .sampled import (
    SampledFunction,
    ExponentTuple,
    lp_norms,
    weak_lq_norms,
    parse_rational,
)
from .scan import cube_cells, inside_scans, iter_scans, positive_cubes, spread
from .operators import OPERATORS, MissingInputError, default_levels, _grids, _shell_constant, _shell_scans, _shells
from .orlicz import PowerLog, YoungFunction, BpReport, bp_classify, CONVERGENT
from .constants import (
    WeightPair,
    sawyer_maximal_testing,
    _require_dim,
)


class NormError(ValueError):
    pass


_QUAD_OCTAVES = 14  # doubling windows in the tail quadrature of orlicz_norm_quadrature
# cubes times cells of one batch of the testing chain and of the duality
# seeds: each (B, *mesh) array of a batch holds at most this many floats (32 MB)
CHAIN_BATCH_FLOATS = 1 << 22


# --- test families ----------------------------------------------------------


@dataclass(frozen=True)
class TestFamily:
    """Recipe for a reproducible family of nonnegative test functions."""

    __test__ = False  # not a pytest collection target

    indicators: bool = True
    random_steps: int = 6
    seed: int = 715
    duality: bool = True

    def __post_init__(self):
        # checked here, so a bad recipe fails as a NormError and not at numpy's first draw
        for name in ("random_steps", "seed"):
            try:
                _json_int(getattr(self, name), least=0)
            except (TypeError, ValueError):
                raise NormError(f"{name} must be a nonnegative integer, got {getattr(self, name)!r}") from None

    def describe(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NormEstimate:
    """Best Rayleigh quotient over a test family: a lower bound for the
    operator norm between the named weighted spaces."""

    operator: str
    source: str
    target: str
    value: float
    argmax: Optional[str]
    family_size: int

    def to_obj(self) -> dict:
        return asdict(self)


def unit_pair(like: SampledFunction) -> WeightPair:
    """Lebesgue measure on both slots, on the mesh of the given function."""
    one = like.with_values(np.ones(like.values.shape))
    return WeightPair(one, one, provenance="lebesgue")


def _blocks_for(ncells: int) -> int:
    """Blocks per axis of a random step function: 12 divides N = 3*2^L
    from L = 2 on, and below that every cell is a block."""
    return min(ncells, 12)


def _inside_cubes(mesh: SampledFunction, dens: SampledFunction, shifts, min_level, max_level):
    """Yield (label, scan, pos, mass) over the grid cubes that pass
    scan.positive_cubes for dens, labelled "s=shift,l=level,pos=position",
    in the order of scan.inside_scans."""
    for scan, inside in inside_scans(mesh, _grids(mesh, shifts, min_level, max_level)):
        masses, live = positive_cubes(scan, inside, dens)
        for idx in np.argwhere(live):
            pos = tuple(int(i) for i in idx)
            yield f"s={scan.grid.shift},l={scan.level},pos={pos}", scan, pos, float(masses[pos])


def _batches(count: int, cells: int) -> list:
    """Consecutive slices of range(count) for (count, *mesh) arrays of
    mesh size cells: at most CHAIN_BATCH_FLOATS floats, one row at least."""
    batch = max(1, CHAIN_BATCH_FLOATS // cells)
    return [slice(start, start + batch) for start in range(0, count, batch)]


def _cube_batches(mesh: SampledFunction, dens: SampledFunction, shifts, scans, min_level, max_level):
    """Yield (cubes, lev, pos, chi) per _batches cut of the _inside_cubes
    of dens: their records, their (lev, pos) as scan.cube_cells reads
    them (the index in scans of each cube's grid shift and level, and its
    position), and their cells from one cube_cells call over scans."""
    cubes = list(_inside_cubes(mesh, dens, shifts, min_level, max_level))
    at = {(scan.grid.shift, scan.level): k for k, scan in enumerate(scans)}
    lev = np.array([at[scan.grid.shift, scan.level] for _, scan, _, _ in cubes], dtype=np.int64)
    pos = np.reshape([cube_pos for _, _, cube_pos, _ in cubes], (len(cubes), mesh.dim)).astype(np.int64)
    for part in _batches(len(cubes), mesh.values.size):
        yield cubes[part], lev[part], pos[part], cube_cells(scans, lev[part], pos[part])


@dataclass(frozen=True)
class _Side:
    """What the side of a norm estimate decides: the source density dens
    (the measure the operator integrates against, and the weight of the
    source norm and of the indicators' mass gate) with its exponent, the
    target weight (also the weight of the duality cuts) with its exponent,
    the power of the duality seeds, and the two space labels."""

    dens: SampledFunction
    src_p: float
    tgt_w: SampledFunction
    tgt_q: float
    cut_e: float
    source: str
    target: str

    def labels(self, weak: bool) -> Tuple[str, str]:
        return self.source, "weak-" + self.target if weak else self.target


def _side(pair: WeightPair, e: ExponentTuple, side: str) -> _Side:
    """The record of side "forward", f -> T(f sigma) from L^p(sigma) to
    L^q(u), or "dual", f -> T(f u) from L^{q'}(u) to L^{p'}(sigma)."""
    if side == "forward":
        return _Side(pair.sigma, float(e.p), pair.u, float(e.q), float(e.pprime - 1),
                     f"L^{e.p}(sigma)", f"L^{e.q}(u)")
    if side == "dual":
        return _Side(pair.u, float(e.qprime), pair.sigma, float(e.pprime), float(e.q - 1),
                     f"L^{e.qprime}(u)", f"L^{e.pprime}(sigma)")
    raise NormError(f"unknown side {side!r}")


def _plain_chunks(mesh: SampledFunction, s: _Side, family: TestFamily, min_level,
                  max_level) -> Iterator[Tuple[list, np.ndarray]]:
    """The indicators, then the random steps, of the family, each in
    chunks of at most CHAIN_BATCH_FLOATS floats (the six default steps
    are one chunk).  The indicators' cells come from one scan.cube_cells
    call per chunk, over the scans of every grid."""
    if family.indicators:
        scans = [scan for g in _grids(mesh, None, min_level, max_level) for scan in iter_scans(mesh, g)]
        for cubes, _, _, chi in _cube_batches(mesh, s.dens, None, scans, min_level, max_level):
            yield [f"chi[{label}]" for label, _, _, _ in cubes], chi.astype(np.float64)
    # one draw of every step's blocks: the stream of the draws one step at a time
    blocks = _blocks_for(mesh.ncells)
    steps = np.random.default_rng(family.seed).exponential(1.0, size=(family.random_steps,) + (blocks,) * mesh.dim)
    for part in _batches(family.random_steps, mesh.values.size):
        names = [f"step[{k}]" for k in range(family.random_steps)[part]]
        yield names, spread(steps[part], [mesh.ncells // blocks] * mesh.dim)


def _duality_chunks(op: str, mesh: SampledFunction, s: _Side, alpha, phi, min_level,
                    max_level) -> Iterator[Tuple[list, np.ndarray]]:
    """The duality functions of op, in the chunks their seeds are built in.

    Saturating functions for the weak-type pairing: cut the target weight
    to a zero-shift cube, push it through the operator, and raise it to
    the side's cut exponent on the cube itself.  The cubes' indicators go
    through the registry operator in batches of at most
    CHAIN_BATCH_FLOATS floats, each row with the bits of its one-cube
    call.  A cube whose function vanishes or overflows leaves its chunk."""
    zero_shift = [(0,) * mesh.dim]
    grid, = _grids(mesh, zero_shift, min_level, max_level)
    scans = iter_scans(mesh, grid)
    spatial = tuple(range(1, mesh.dim + 1))
    for cubes, _, _, chi in _cube_batches(mesh, s.tgt_w, zero_shift, scans, min_level, max_level):
        seeds = OPERATORS[op](mesh, chi.astype(np.float64), s.tgt_w, alpha, phi, None, min_level, max_level)
        live = chi & (seeds > 0)
        arr = np.zeros_like(seeds)
        with np.errstate(over="ignore"):
            arr[live] = seeds[live] ** s.cut_e
        keep = np.any(live, axis=spatial) & np.all(np.isfinite(arr), axis=spatial)
        if np.any(keep):
            yield [f"dual[chi[{label}]]" for (label, _, _, _), k in zip(cubes, keep) if k], arr[keep]


# --- norm estimation --------------------------------------------------------


def _ratio(num: float, den: float) -> Optional[float]:
    """num / den, or None when den is not positive."""
    return num / den if den > 0 else None


@dataclass
class _Tally:
    """The running best ratio of one target norm over its family, and the
    first quantity of it that was not finite."""

    op: str
    weak: bool
    best: float = -math.inf
    arg: Optional[str] = None
    count: int = 0
    tried: int = 0
    error: Optional[str] = None


def _evaluate(
    targets,
    mesh: SampledFunction,
    s: _Side,
    family: TestFamily,
    alpha: float,
    phi: Optional[YoungFunction],
    min_level: Optional[int],
    max_level: Optional[int],
) -> list:
    """One _Tally per (op, weak) target of side s, each over the family
    of its operator, folded over the two chunk sources of the module
    docstring: the plain chunks feed every target, and op's duality
    chunks feed op's targets.  Each chunk goes to the targets of its
    source that have not stopped.  Per chunk, each operator runs once on
    the rows of positive source norm, and each target takes its norms
    row-wise from that image, so a weak and a strong target of one
    operator share their images; the image is dropped once the last of
    them has read it.  Every row has the bits of its one-row call, a
    stop falls at its row whatever chunk holds it, and the first maximum
    in family order wins a tie, within a chunk and across chunks."""
    tallies = [_Tally(op, weak) for op, weak in targets]

    def feed(live: list, names: list, batch: np.ndarray):
        den = np.array(lp_norms(mesh, batch, s.src_p, weight=s.dens))
        # rows from the first non-finite source norm on are not imaged
        bad = ~np.isfinite(den)
        stop = int(np.argmax(bad)) if np.any(bad) else len(names)
        rows = np.flatnonzero(den[:stop] > 0)
        images = {}
        last = {t.op: t for t in live}
        for t in live:
            if len(rows):
                if t.op not in images:
                    images[t.op] = OPERATORS[t.op](mesh, batch[rows], s.dens, alpha, phi, None, min_level, max_level)
                g = images.pop(t.op) if last[t.op] is t else images[t.op]
                image_ok = np.all(np.isfinite(g.reshape(len(rows), -1)), axis=1)
                num = np.array((weak_lq_norms if t.weak else lp_norms)(mesh, g, s.tgt_q, weight=s.tgt_w))
                del g
                ok = image_ok & np.isfinite(num)
                if not np.all(ok):
                    k = int(np.argmin(ok))
                    what = "the target norm" if image_ok[k] else "the image"
                    t.error = f"{what} of the test function {names[rows[k]]} is not finite"
                    continue
                ratios = num / den[rows]
                k = int(np.argmax(ratios))
                if ratios[k] > t.best:
                    t.best, t.arg = float(ratios[k]), names[rows[k]]
            t.count += len(rows)
            t.tried += len(names)
            if stop < len(names):
                t.error = f"the source norm of the test function {names[stop]} is not finite"

    sources = [(tallies, _plain_chunks(mesh, s, family, min_level, max_level))]
    if family.duality:
        sources += [([t for t in tallies if t.op == op],
                     _duality_chunks(op, mesh, s, alpha, phi, min_level, max_level))
                    for op in dict.fromkeys(op for op, _ in targets)]
    try:
        # overflow and its NaNs stop a target in feed, they are not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            for mine, chunks in sources:
                while (live := [t for t in mine if not t.error]) and (chunk := next(chunks, None)):
                    feed(live, *chunk)
    except MissingInputError as exc:
        raise NormError(str(exc)) from None
    return tallies


def _estimate(t: _Tally, s: _Side) -> NormEstimate:
    """The estimate of a tally, or the NormError of its first failure."""
    if t.error:
        raise NormError(t.error)
    if t.tried == 0:
        raise NormError("the test family is empty")
    if t.count == 0:
        raise NormError("every test function had zero source norm")
    return NormEstimate(t.op, *s.labels(t.weak), t.best, t.arg, t.count)


def estimate_norm(
    op: str,
    pair: WeightPair,
    e: ExponentTuple,
    family: Optional[TestFamily] = None,
    side: str = "forward",
    weak: bool = False,
    alpha=None,
    phi: Optional[YoungFunction] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> NormEstimate:
    """Best ratio of target norm to source norm over the test family.

    side="forward" estimates the norm of f -> T(f sigma) from L^p(sigma)
    to L^q(u); side="dual" estimates f -> T(f u) from L^{q'}(u) to
    L^{p'}(sigma).  With weak=True the target norm is the weak
    (Lorentz) quasinorm instead.  The value is a lower bound for the
    operator norm and never decreases as the family grows.  A quantity
    that is not finite raises NormError by the stop rule of the module
    docstring: an overflow is no lower bound.
    """
    if op not in OPERATORS:
        raise NormError(f"unknown operator id {op!r}")
    _require_dim(pair, e, NormError)
    fam = family if family is not None else TestFamily()
    s = _side(pair, e, side)  # an unknown side is refused before any work
    a = float(e.alpha) if alpha is None else float(parse_rational(alpha))
    tally, = _evaluate([(op, weak)], pair.u, s, fam, a, phi, min_level, max_level)
    return _estimate(tally, s)


# --- tail quadrature of the Orlicz maximal norm -----------------------------


def orlicz_norm_quadrature(
    phibar: YoungFunction,
    p,
    q=None,
) -> Tuple[float, BpReport]:
    """Tail integral of the Orlicz maximal operator norm.

    Returns ( int_1^inf phibar(t)^{q/p} t^{-q} dt/t )^{1/q} together with
    the underlying quadrature report; q defaults to p (the classical
    same-exponent case), where any Young function is taken.  At q > p
    phibar must be a PowerLog, whose power phibar^{q/p} the quadrature
    reads as another PowerLog; anything else raises NormError.  A
    divergent or undecided tail yields +inf.
    The quadrature runs over _QUAD_OCTAVES doubling windows.

    The value is comparable to the norm of the Orlicz maximal operator
    only up to a dimensional constant (Perez, Proc. London Math. Soc. 71
    (1995)), so it is not a certified bound.  For the comparable
    associate of log_bump(4, 1/2) at p = 4/3, q = 4 it is 0.8031, below
    the lower bound 0.8195 that estimate_norm finds for the order-1/2
    Orlicz maximal operator on 48 cells of [0, 1).
    """
    pf = float(p)
    qf = pf if q is None else float(q)
    if not 1.0 < pf <= qf:
        raise NormError("the quadrature bound needs 1 < p <= q")
    s = qf / pf
    if s == 1.0:
        powered = phibar
    elif isinstance(phibar, PowerLog):
        # r >= 1 and s > 1, so phibar^s is again a PowerLog
        powered = PowerLog(phibar.r * s, phibar.a * s, label=f"{phibar.label}^{s:g}")
    else:
        raise NormError("at q > p the quadrature bound needs a PowerLog")
    rep = bp_classify(powered, qf, octaves=_QUAD_OCTAVES)
    if rep.verdict == CONVERGENT and rep.constant_estimate is not None and rep.constant_estimate > 0:
        value = rep.constant_estimate ** (1.0 / qf)
    else:
        value = math.inf
    return value, rep


# --- equivalence of weak Riesz and dual maximal bounds ----------------------


# (operator, side, weak) of each estimate the equivalence report compares
_EQUIVALENCE_ESTIMATES = {
    "weak_riesz": ("dyadic_riesz", "forward", True),
    "strong_riesz": ("dyadic_riesz", "forward", False),
    "maximal_forward": ("frac_maximal", "forward", False),
    "maximal_dual": ("frac_maximal", "dual", False),
    "dyadic_maximal_forward": ("dyadic_frac_maximal", "forward", False),
}


def equivalence_report(
    pair: WeightPair,
    e: ExponentTuple,
    family: Optional[TestFamily] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> dict:
    """Norm estimates on both sides of the weak-strong equivalence, the
    per-cube testing chain for the shell potential, and the duality
    chain tying maximal testing to the weak Riesz estimate.

    Requires p < q: at p = q the equivalence between the weak Riesz
    bound and the dual maximal bound genuinely fails, so the report
    refuses to run there.  A pair with a vanishing weight is reported as
    degenerate: its estimates are zero, its ratios null, and neither
    chain holds, since nothing was measured.  Each chain records how many
    cubes it compared under "cubes".

    The estimates are those of estimate_norm, bit for bit, from one
    evaluation per side, under the stop rule of the module docstring.
    """
    if not e.p < e.q:
        raise NormError("the weak-strong equivalence needs p < q; it fails at p = q")
    n = e.n
    coeff = _shell_constant(e.alpha, n, NormError)
    fam = family if family is not None else TestFamily()

    config = {
        "exponents": e.to_obj(),
        "coefficient": coeff,
        "family": fam.describe(),
    }

    degenerate = float(np.max(pair.sigma.values)) == 0.0 or float(np.max(pair.u.values)) == 0.0
    sides = {side: _side(pair, e, side) for _, side, _ in _EQUIVALENCE_ESTIMATES.values()}

    def report(ests: dict, testing: dict, duality: dict) -> dict:
        # zero estimates give zero denominators, so a degenerate pair's ratios are null
        ratios = {
            "weak_vs_dual_maximal": _ratio(ests["weak_riesz"].value, coeff * ests["maximal_dual"].value),
            "maximal_forward_vs_strong": _ratio(ests["maximal_forward"].value, ests["strong_riesz"].value),
            "maximal_dual_vs_strong": _ratio(ests["maximal_dual"].value, ests["strong_riesz"].value),
            "dyadic_maximal_vs_strong": _ratio(ests["dyadic_maximal_forward"].value, ests["strong_riesz"].value),
        }
        return {
            "degenerate": degenerate,
            "estimates": {k: v.to_obj() for k, v in ests.items()},
            "ratios": ratios,
            "testing_chain": testing,
            "duality_chain": duality,
            "config": config,
        }

    if degenerate:
        zero = {key: NormEstimate(op, *sides[side].labels(weak), 0.0, None, 0)
                for key, (op, side, weak) in _EQUIVALENCE_ESTIMATES.items()}
        return report(zero, _testing_record([], [], [], 0.0, coeff),
                      {"testing": 0.0, "bound": 0.0, "ratio": None, "holds": False, "cubes": 0})

    # one evaluation per side: the forward targets share the plain chunks,
    # and both Riesz norms come from one image per chunk
    tallies = {}
    for side, s in sides.items():
        mine = {key: (op, weak) for key, (op, sd, weak) in _EQUIVALENCE_ESTIMATES.items() if sd == side}
        tallies.update(zip(mine, _evaluate(list(mine.values()), pair.u, s, fam, float(e.alpha), None,
                                           min_level, max_level)))
    # the first failed estimate in _EQUIVALENCE_ESTIMATES order raises
    ests = {key: _estimate(tallies[key], sides[side]) for key, (_, side, _) in _EQUIVALENCE_ESTIMATES.items()}

    testing = potential_testing_chain(pair, e, min_level=min_level, max_level=max_level)
    # Duality chain: forward maximal testing on the zero-shift grid is
    # controlled by q' times the weak Riesz estimate, provided the
    # family contains the saturating functions (it does by default).
    zero_shift = [(0,) * n]
    sawyer = sawyer_maximal_testing(
        pair, e, shifts=zero_shift, min_level=min_level, max_level=max_level,
        which="forward", inner_shifts=zero_shift,
    )
    bound = float(e.qprime) * ests["weak_riesz"].value
    return report(ests, testing, {
        "testing": sawyer.value,
        "bound": bound,
        "ratio": _ratio(sawyer.value, bound),
        "holds": sawyer.n_scored > 0 and sawyer.value <= bound * (1.0 + 1e-9),
        "cubes": sawyer.n_scored,
    })


def potential_testing_chain(
    pair: WeightPair,
    e: ExponentTuple,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> dict:
    """Per-cube comparison of the shell-potential testing quotient with
    the maximal-function testing quotient.

    For every zero-shift cube Q0 inside the window with positive sigma
    mass, the L^q(u) norm of the shell potential of sigma chi_Q0 is at
    most (1 - 2^{alpha-n})^{-1} times the L^q(u) norm of the fractional
    maximal function of sigma chi_Q0; both integrals run over the whole
    window.  The report records the worst observed quotient ratio over the
    cubes where the maximal side is positive.  When there is no such cube
    nothing was compared: max_ratio is null and the chain does not hold.

    Every cube is scored in one batched pass, in batches of at most
    CHAIN_BATCH_FLOATS floats per (cubes, *mesh) array: the maximal
    functions over every shift of the cuts sigma chi_Q0, one registry
    call of frac_maximal on the cubes' indicators with mu = sigma, and
    the shells (operators.outer_riesz for one cube), each with the bits
    of its per-cube computation."""
    _require_dim(pair, e, NormError)
    n = e.n
    coeff = _shell_constant(e.alpha, n, NormError)
    a = float(e.alpha)
    qf = float(e.q)
    inv_p = float(1 / e.p)
    sigma = pair.sigma
    zero = (0,) * n
    scans = _shell_scans(sigma, zero, *default_levels(sigma, min_level, max_level))
    cubes, lhs, rhs = [], [], []
    # _inside_cubes and _shell_scans share the plans of every level they both scan
    for batch, lev, pos, chi in _cube_batches(pair.u, sigma, [zero], scans, min_level, max_level):
        cubes += batch
        masses = np.array([mass for _, _, _, mass in batch])
        shells = _shells(sigma, scans, lev, pos, masses, coeff, a)
        lhs += lp_norms(sigma, shells, qf, weight=pair.u)
        # the cuts sigma chi_Q0 are chi_Q0 dsigma: 1.0 * sigma = sigma and 0.0 * sigma = 0.0
        maximal = OPERATORS["frac_maximal"](sigma, chi.astype(np.float64), sigma, a, None, None, min_level, max_level)
        rhs += [coeff * norm for norm in lp_norms(sigma, maximal, qf, weight=pair.u)]
    return _testing_record(cubes, lhs, rhs, inv_p, coeff)


def _testing_record(cubes: list, lhs: list, rhs: list, inv_p: float, coeff: float) -> dict:
    """The testing chain's record from each cube's (label, _, _, mass) and
    its two sides; with no cube, that of a chain that compared nothing."""
    worst = -math.inf
    worst_cube = None
    testing_value = 0.0
    testing_arg = None
    for (label, _, _, mass), lhs_q, rhs_q in zip(cubes, lhs, rhs):
        quotient = lhs_q * mass ** (-inv_p)
        if quotient > testing_value:
            testing_value = quotient
            testing_arg = label
        if rhs_q > 0:
            r = lhs_q / rhs_q
            if r > worst:
                worst = r
                worst_cube = label
    return {
        "cubes": len(cubes),
        "max_ratio": None if worst_cube is None else worst,
        "worst_cube": worst_cube,
        "holds": worst_cube is not None and worst <= 1.0 + 1e-9,
        "testing_constant": testing_value,
        "testing_argmax": testing_arg,
        "coefficient": coeff,
    }

"""Lower bounds for weighted operator norms, and the reports that set
them against constant-based upper bounds.

Every norm produced here is a best Rayleigh quotient over a finite,
reproducible family of nonnegative test functions, so it is a certified
lower bound for the corresponding operator norm at the chosen
truncation.  Upper-bound partners (Muckenhoupt-type products, testing
constants, tail-integral quadrature bounds) come from the constants and
orlicz modules.  The report builders place the two sides next to each
other and record the observed gap; they assert nothing beyond the
inequalities that hold exactly at the discrete level.

Test families combine three sources:

  * indicators of every grid cube inside the window that carries
    positive source mass;
  * seeded random step functions on a fixed coarse partition, so the
    family is reproducible and mesh-independent;
  * duality-optimal functions T(w chi_Q)^{e-1} chi_Q built from the
    operator itself, the choice that saturates the weak-type pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .sampled import (
    SampledFunction,
    ExponentTuple,
    lp_norm,
    lp_norms,
    weak_lq_norm,
    parse_rational,
    prefix_sum,
)
from .scan import cube_cells, inside_scans, positive_cubes
from .operators import (OPERATORS, MissingInputError, default_levels, _grids, _maximal_values, _shell_constant,
                        _shell_scans, _shells)
from .orlicz import PowerLog, YoungFunction, BpReport, bp_classify, CONVERGENT
from .constants import (
    WeightPair,
    apq_bump,
    ap_constant,
    ainfty_m,
    mixed_one_sup,
    sawyer_maximal_testing,
    md_sp_testing,
    _require_dim,
)


class NormError(ValueError):
    pass


OPERATOR_IDS = tuple(OPERATORS)
_QUAD_OCTAVES = 14  # doubling windows in the tail quadrature of orlicz_norm_quadrature
# cubes times cells of one batch of the testing chain: each (B, *mesh)
# array of a batch holds at most this many floats (32 MB)
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
        if self.random_steps < 0:
            raise NormError("random_steps must be nonnegative")

    def describe(self) -> dict:
        return {
            "indicators": self.indicators,
            "random_steps": self.random_steps,
            "seed": self.seed,
            "duality": self.duality,
        }


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
        return {
            "operator": self.operator,
            "source": self.source,
            "target": self.target,
            "value": self.value,
            "argmax": self.argmax,
            "family_size": self.family_size,
        }


def unit_pair(like: SampledFunction) -> WeightPair:
    """Lebesgue measure on both slots, on the mesh of the given function."""
    one = SampledFunction.constant(1.0, like.dim, like.lower, like.side, like.ncells)
    return WeightPair(one, one, provenance="lebesgue")


def _blocks_for(ncells: int) -> int:
    for b in (12, 6, 3):
        if ncells % b == 0:
            return b
    return 1


def _inside_cubes(mesh: SampledFunction, dens: SampledFunction, shifts, min_level, max_level):
    """Yield (label, cube, mass) over the grid cubes that pass
    scan.positive_cubes for dens, labelled "s=shift,l=level,pos=position",
    in the order of scan.inside_scans."""
    for scan, inside in inside_scans(mesh, _grids(mesh, shifts, min_level, max_level)):
        masses, live = positive_cubes(scan, inside, dens)
        for idx in np.argwhere(live):
            pos = tuple(int(i) for i in idx)
            yield f"s={scan.grid.shift},l={scan.level},pos={pos}", scan.cube_at(pos), float(masses[pos])


def _iter_family(
    op: str,
    pair: WeightPair,
    e: ExponentTuple,
    family: TestFamily,
    side: str,
    alpha,
    min_level,
    max_level,
    phi,
) -> Iterator[Tuple[str, SampledFunction]]:
    mesh = pair.u
    source = pair.sigma if side == "forward" else pair.u

    if family.indicators:
        for label, cube, _mass in _inside_cubes(mesh, source, None, min_level, max_level):
            yield f"chi[{label}]", SampledFunction.indicator(cube.box(), mesh.dim, mesh.lower, mesh.side, mesh.ncells)

    if family.random_steps > 0:
        rng = np.random.default_rng(family.seed)
        blocks = _blocks_for(mesh.ncells)
        reps = mesh.ncells // blocks
        for k in range(family.random_steps):
            coarse = rng.exponential(1.0, size=(blocks,) * mesh.dim)
            vals = coarse
            for ax in range(mesh.dim):
                vals = np.repeat(vals, reps, axis=ax)
            yield f"step[{k}]", mesh.with_values(vals)

    if family.duality:
        # Saturating functions for the weak-type pairing: cut the other
        # weight to a cube, push it through the operator, and raise to
        # the conjugate-exponent power on the cube itself.
        other = pair.u if side == "forward" else pair.sigma
        expo = float(e.pprime - 1) if side == "forward" else float(e.q - 1)
        zero_shift = [(0,) * mesh.dim]
        for label, cube, _mass in _inside_cubes(mesh, other, zero_shift, min_level, max_level):
            box = cube.box()
            chi = SampledFunction.indicator(box, mesh.dim, mesh.lower, mesh.side, mesh.ncells)
            seed = OPERATORS[op](chi, other, alpha, phi, None, min_level, max_level)
            sl = other.cell_slices(box, require_aligned=True)
            on_cube = np.zeros_like(seed.values, dtype=bool)
            on_cube[sl] = True
            pos = on_cube & (seed.values > 0)
            if not np.any(pos):
                continue
            arr = np.zeros_like(seed.values)
            with np.errstate(over="ignore"):
                arr[pos] = seed.values[pos] ** expo
            if not np.all(np.isfinite(arr)):
                continue
            yield f"dual[chi[{label}]]", mesh.with_values(arr)


# --- norm estimation --------------------------------------------------------


def _space_labels(e: ExponentTuple, side: str, weak: bool) -> Tuple[str, str]:
    """Source and target space labels of a norm estimate."""
    if side == "forward":
        source, target = f"L^{e.p}(sigma)", f"L^{e.q}(u)"
    elif side == "dual":
        source, target = f"L^{e.qprime}(u)", f"L^{e.pprime}(sigma)"
    else:
        raise NormError(f"unknown side {side!r}")
    return source, "weak-" + target if weak else target


def _ratio(num: float, den: float) -> Optional[float]:
    """num / den, or None when den is not positive."""
    return num / den if den > 0 else None


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
    operator norm and never decreases as the family grows.
    """
    if op not in OPERATOR_IDS:
        raise NormError(f"unknown operator id {op!r}")
    _require_dim(pair, e, NormError)
    fam = family if family is not None else TestFamily()

    source, target = _space_labels(e, side, weak)
    if side == "forward":
        dens, src_w, src_p = pair.sigma, pair.sigma, float(e.p)
        tgt_w, tgt_q = pair.u, float(e.q)
    else:
        dens, src_w, src_p = pair.u, pair.u, float(e.qprime)
        tgt_w, tgt_q = pair.sigma, float(e.pprime)

    a = float(e.alpha) if alpha is None else float(parse_rational(alpha))

    best = -math.inf
    arg = None
    count = 0
    try:
        for name, f in _iter_family(op, pair, e, fam, side, a, min_level, max_level, phi):
            den = lp_norm(f, src_p, weight=src_w)
            if not den > 0:
                continue
            g = OPERATORS[op](f, dens, a, phi, None, min_level, max_level)
            if weak:
                num = weak_lq_norm(g, tgt_q, weight=tgt_w)
            else:
                num = lp_norm(g, tgt_q, weight=tgt_w)
            count += 1
            ratio = num / den
            if ratio > best:
                best, arg = ratio, name
    except MissingInputError as exc:
        raise NormError(str(exc)) from None
    if count == 0:
        raise NormError("every test function had zero source norm")
    return NormEstimate(op, source, target, best, arg, count)


# --- quadrature bound for the Orlicz maximal norm ---------------------------


@dataclass(frozen=True)
class _PoweredIntegrand(YoungFunction):
    """phi^s as a quadrature integrand; not itself a Young function."""

    base: YoungFunction
    s: float

    @property
    def label(self) -> str:
        return f"{self.base.label}^{self.s:g}"

    def eval(self, t):
        with np.errstate(over="ignore"):
            return np.asarray(self.base.eval(t), dtype=float) ** self.s

    def log_eval(self, x):
        return self.s * np.asarray(self.base.log_eval(x), dtype=float)


def orlicz_norm_quadrature(
    phibar: YoungFunction,
    p,
    q=None,
) -> Tuple[float, BpReport]:
    """Tail-integral upper bound for the Orlicz maximal operator norm.

    Returns ( int_1^inf phibar(t)^{q/p} t^{-q} dt/t )^{1/q} together with
    the underlying quadrature report; q defaults to p (the classical
    same-exponent bound).  A divergent or undecided tail yields +inf.
    The quadrature runs over _QUAD_OCTAVES doubling windows.
    """
    pf = float(p)
    qf = pf if q is None else float(q)
    if not 1.0 < pf <= qf:
        raise NormError("the quadrature bound needs 1 < p <= q")
    s = qf / pf
    if s == 1.0:
        powered: YoungFunction = phibar
    elif isinstance(phibar, PowerLog) and phibar.r * s >= 1.0:
        powered = PowerLog(phibar.r * s, phibar.a * s, label=f"{phibar.label}^{s:g}")
    else:
        powered = _PoweredIntegrand(phibar, s)
    rep = bp_classify(powered, qf, octaves=_QUAD_OCTAVES)
    if rep.verdict == CONVERGENT and rep.constant_estimate is not None and rep.constant_estimate > 0:
        value = rep.constant_estimate ** (1.0 / qf)
    else:
        value = math.inf
    return value, rep


def _associate(phi: YoungFunction) -> YoungFunction:
    """Conjugate partner; for genuine power-log functions prefer the
    same-family comparable associate, which quadrature handles exactly."""
    if isinstance(phi, PowerLog) and not phi.is_power:
        return phi.comparable_associate()
    return phi.associate()


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
    chain holds, since nothing was measured.
    """
    if not e.p < e.q:
        raise NormError("the weak-strong equivalence needs p < q; it fails at p = q")
    n = e.n
    coeff = _shell_constant(e.alpha, n, NormError)

    config = {
        "exponents": e.to_obj(),
        "coefficient": coeff,
        "family": (family if family is not None else TestFamily()).describe(),
    }

    degenerate = float(np.max(pair.sigma.values)) == 0.0 or float(np.max(pair.u.values)) == 0.0

    def _estimate(op: str, side: str, weak: bool) -> NormEstimate:
        if degenerate:
            return NormEstimate(op, *_space_labels(e, side, weak), 0.0, None, 0)
        return estimate_norm(op, pair, e, family, side=side, weak=weak, min_level=min_level, max_level=max_level)

    ests = {key: _estimate(*spec) for key, spec in _EQUIVALENCE_ESTIMATES.items()}

    # zero estimates give zero denominators, so a degenerate pair's ratios are null
    ratios = {
        "weak_vs_dual_maximal": _ratio(ests["weak_riesz"].value, coeff * ests["maximal_dual"].value),
        "maximal_forward_vs_strong": _ratio(ests["maximal_forward"].value, ests["strong_riesz"].value),
        "maximal_dual_vs_strong": _ratio(ests["maximal_dual"].value, ests["strong_riesz"].value),
        "dyadic_maximal_vs_strong": _ratio(ests["dyadic_maximal_forward"].value, ests["strong_riesz"].value),
    }

    if degenerate:
        testing = {"cubes": 0, "max_ratio": None, "holds": False, "testing_constant": 0.0}
        duality = {"testing": 0.0, "bound": 0.0, "ratio": None, "holds": False}
    else:
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
        duality = {
            "testing": sawyer.value,
            "bound": bound,
            "ratio": _ratio(sawyer.value, bound),
            "holds": sawyer.n_scored > 0 and sawyer.value <= bound * (1.0 + 1e-9),
        }

    return {
        "degenerate": degenerate,
        "estimates": {k: v.to_obj() for k, v in ests.items()},
        "ratios": ratios,
        "testing_chain": testing,
        "duality_chain": duality,
        "config": config,
    }


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
    CHAIN_BATCH_FLOATS floats per (cubes, *mesh) array: the cuts sigma
    chi_Q0 and their maximal functions over every shift, and the shells
    (operators.outer_riesz for one cube), each with the bits of its
    per-cube computation."""
    _require_dim(pair, e, NormError)
    n = e.n
    coeff = _shell_constant(e.alpha, n, NormError)
    a = float(e.alpha)
    qf = float(e.q)
    inv_p = float(1 / e.p)
    sigma = pair.sigma
    zero = (0,) * n
    scans = _shell_scans(sigma, zero, *default_levels(sigma, min_level, max_level))
    cubes = list(_inside_cubes(pair.u, sigma, [zero], min_level, max_level))
    lev = np.array([cube.level - scans[0].level for _, cube, _ in cubes], dtype=np.int64)
    pos = np.reshape([cube.index for _, cube, _ in cubes], (len(cubes), n)).astype(np.int64)
    pos -= np.reshape([scan.m_lo for scan in scans], (len(scans), n))[lev]
    masses = np.array([mass for _, _, mass in cubes])
    grids = _grids(sigma, None, min_level, max_level)
    lhs, rhs = [], []
    batch = max(1, CHAIN_BATCH_FLOATS // sigma.values.size)
    for start in range(0, len(cubes), batch):
        part = slice(start, start + batch)
        cuts = np.where(cube_cells(scans, lev[part], pos[part]), sigma.values, 0.0)
        shells = _shells(sigma, scans, lev[part], pos[part], masses[part], coeff, a)
        lhs += lp_norms(sigma, shells, qf, weight=pair.u)
        maximal = _maximal_values(sigma, prefix_sum(cuts, n), a, grids)
        rhs += [coeff * norm for norm in lp_norms(sigma, maximal, qf, weight=pair.u)]

    worst = -math.inf
    worst_cube = None
    testing_value = 0.0
    testing_arg = None
    for (label, _, mass), lhs_q, rhs_q in zip(cubes, lhs, rhs):
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


# --- bump upper bounds vs norm lower bounds ---------------------------------


def bump_bound_check(
    pair: WeightPair,
    e: ExponentTuple,
    phi: YoungFunction,
    psi: YoungFunction,
    family: Optional[TestFamily] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
) -> dict:
    """Each bumped upper bound next to the matching norm lower bound.

    The right-hand sides combine the bumped joint constants with the
    Lebesgue Orlicz-maximal norm estimated two ways: the tail-integral
    quadrature bound, and a direct norm lower bound on the same mesh.
    Entries record the observed constant lhs/rhs for each route; the
    quadrature route is a genuine upper-bound partner, the direct route
    a lower-bound one, so their constants bracket the truth.
    """
    if e.p > e.q:
        raise NormError("bump bounds need p <= q (nonnegative exponent gap)")
    beta = e.beta
    fam = family if family is not None else TestFamily()
    phibar = _associate(phi)
    psibar = _associate(psi)
    lebesgue = unit_pair(pair.u)

    def _maximal_norm(bar: YoungFunction, direct_e: ExponentTuple, alpha):
        """The Lebesgue Orlicz-maximal norm from L^p to L^q of direct_e both
        ways: (quadrature bound, its report, direct estimate)."""
        quad_val, quad_rep = orlicz_norm_quadrature(bar, direct_e.p, direct_e.q)
        direct = estimate_norm("orlicz_maximal", lebesgue, direct_e, fam, alpha=alpha, phi=bar,
                               min_level=min_level, max_level=max_level)
        return quad_val, quad_rep, direct

    def _routes(lhs: NormEstimate, rhs_quad: float, rhs_direct: float) -> dict:
        """Both routes' right-hand sides and observed constants lhs/rhs."""
        return {
            "lhs": lhs.to_obj(),
            "rhs_quadrature": rhs_quad,
            "rhs_direct": rhs_direct,
            "constant_quadrature": _ratio(lhs.value, rhs_quad) if math.isfinite(rhs_quad) else None,
            "constant_direct": _ratio(lhs.value, rhs_direct),
        }

    def _entry(lhs: NormEstimate, bump_value: float, bar: YoungFunction, direct_e: ExponentTuple) -> dict:
        quad_val, quad_rep, direct = _maximal_norm(bar, direct_e, beta)
        return {
            **_routes(lhs, bump_value * quad_val, bump_value * direct.value),
            "bump_constant": bump_value,
            "maximal_norm_quadrature": quad_val,
            "maximal_norm_direct": direct.to_obj(),
            "quadrature_report": quad_rep.to_obj(),
        }

    report: dict = {
        "config": {
            "exponents": e.to_obj(),
            "beta": str(beta),
            "phi": phi.label,
            "psi": psi.label,
            "phibar": phibar.label,
            "psibar": psibar.label,
            "family": fam.describe(),
        },
        "entries": {},
    }

    # Maximal operator against the second-weight bump.
    lhs_max = estimate_norm("frac_maximal", pair, e, fam, min_level=min_level, max_level=max_level)
    bump_f = apq_bump(pair, e, phi, min_level=min_level, max_level=max_level)
    report["entries"]["maximal"] = _entry(lhs_max, bump_f.value, phibar, e)

    riesz_ok = 0 < float(e.alpha) < e.n and e.p < e.q
    if riesz_ok:
        # Weak Riesz against the dual-pair bump with psi on the u slot.
        lhs_weak = estimate_norm("dyadic_riesz", pair, e, fam, weak=True, min_level=min_level, max_level=max_level)
        bump_d = apq_bump(pair.swapped(), e.dual(), psi, min_level=min_level, max_level=max_level)
        report["entries"]["weak_riesz"] = _entry(lhs_weak, bump_d.value, psibar, e.dual())

        # Strong Riesz against the sum of the two separated bumps.
        lhs_strong = estimate_norm("dyadic_riesz", pair, e, fam, min_level=min_level, max_level=max_level)
        m = report["entries"]["maximal"]
        wk = report["entries"]["weak_riesz"]
        report["entries"]["strong_riesz"] = _routes(lhs_strong, m["rhs_quadrature"] + wk["rhs_quadrature"],
                                                    m["rhs_direct"] + wk["rhs_direct"])

        # Classical double bump: both slots bumped, same-exponent
        # Lebesgue maximal norms.
        bump2 = apq_bump(pair, e, phi, min_level=min_level, max_level=max_level, side="both", psi=psi)
        quad_psi, rep_psi, direct_psi = _maximal_norm(psibar, ExponentTuple(e.n, 0, e.qprime, e.qprime), 0)
        quad_phi, rep_phi, direct_phi = _maximal_norm(phibar, ExponentTuple(e.n, 0, e.p, e.p), 0)
        report["entries"]["double_bump"] = {
            **_routes(lhs_strong, bump2.value * quad_psi * quad_phi,
                      bump2.value * direct_psi.value * direct_phi.value),
            "bump_constant": bump2.value,
            "maximal_norms_quadrature": [quad_psi, quad_phi],
            "maximal_norms_direct": [direct_psi.to_obj(), direct_phi.to_obj()],
            "quadrature_reports": [rep_psi.to_obj(), rep_phi.to_obj()],
        }

        # Strong norm split into the two weak-type norms.
        weak_dual = estimate_norm("dyadic_riesz", pair, e, fam, side="dual", weak=True,
                                  min_level=min_level, max_level=max_level)
        split = lhs_weak.value + weak_dual.value
        report["entries"]["strong_weak_split"] = {
            "strong": lhs_strong.to_obj(),
            "weak_forward": lhs_weak.to_obj(),
            "weak_dual": weak_dual.to_obj(),
            "sum_of_weak": split,
            "ratio": _ratio(lhs_strong.value, split),
        }
    else:
        report["entries"]["riesz_skipped"] = "needs 0 < alpha < n and p < q"

    return report


# --- logarithmic A-infinity refinements --------------------------------------


def log_ainfty_check(
    w: SampledFunction,
    e: ExponentTuple,
    family: Optional[TestFamily] = None,
    min_level: Optional[int] = None,
    max_level: Optional[int] = None,
    ar_index=None,
) -> dict:
    """One-weight logarithmic refinements for the classical pair of w.

    Builds u = w^q, sigma = w^{-p'}, estimates the maximal and Riesz
    norms from below, and compares each against the product of the
    plain Muckenhoupt constant's logarithm and the mixed one-supremum
    constant.  Also records the interpolation-route upper bound through
    an A_r constant at an index strictly inside the admissible range,
    and the dyadic testing constant that drives the maximal bound.
    """
    if not e.is_sobolev:
        raise NormError("the logarithmic refinements need Sobolev-scaling exponents")
    pair = WeightPair.classical(w, e)
    fam = family if family is not None else TestFamily()
    inv_q = float(1 / e.q)
    inv_pp = float(1 / e.pprime)

    # Sigma-side constants drive the maximal bound.
    ap_sigma = ap_constant(pair.sigma, e.s_dual, min_level=min_level, max_level=max_level)
    mixed_sigma = mixed_one_sup(pair, e, min_level=min_level, max_level=max_level, flavor="ap_m")
    rhs_maximal = (1.0 + math.log(ap_sigma.value)) ** inv_q * mixed_sigma.value
    lhs_maximal = estimate_norm("frac_maximal", pair, e, fam, min_level=min_level, max_level=max_level)

    # U-side constants drive the weak Riesz bound.
    ap_u = ap_constant(pair.u, e.s_p, min_level=min_level, max_level=max_level)
    mixed_u = mixed_one_sup(pair.swapped(), e.dual(), min_level=min_level, max_level=max_level, flavor="ap_m")
    rhs_weak = (1.0 + math.log(ap_u.value)) ** inv_pp * mixed_u.value
    lhs_weak = estimate_norm("dyadic_riesz", pair, e, fam, weak=True, min_level=min_level, max_level=max_level)

    lhs_strong = estimate_norm("dyadic_riesz", pair, e, fam, min_level=min_level, max_level=max_level)
    rhs_strong = rhs_weak + rhs_maximal

    # Interpolation route: any A_r entry with r strictly below s(p).
    r = (1 + e.s_p) / 2 if ar_index is None else parse_rational(ar_index)
    if not 1 < r < e.s_p:
        raise NormError(f"the interpolation index must lie in (1, {e.s_p}), got {r}")
    ap_r = ap_constant(pair.u, r, min_level=min_level, max_level=max_level)
    fujii_u = ainfty_m(pair.u, min_level=min_level, max_level=max_level)
    rhs_red = ap_r.value ** inv_q * fujii_u.value ** inv_pp

    # Dyadic testing constant that feeds the maximal bound.
    md = md_sp_testing(pair, e, min_level=min_level, max_level=max_level)

    def _block(lhs: float, rhs: float) -> dict:
        return {"lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)}

    return {
        "config": {
            "exponents": e.to_obj(),
            "s_p": str(e.s_p),
            "s_dual": str(e.s_dual),
            "family": fam.describe(),
        },
        "constants": {
            "ap_sigma": ap_sigma.value,
            "mixed_sigma": mixed_sigma.value,
            "ap_u": ap_u.value,
            "mixed_u": mixed_u.value,
        },
        "maximal": {**_block(lhs_maximal.value, rhs_maximal), "estimate": lhs_maximal.to_obj()},
        "riesz_weak": {**_block(lhs_weak.value, rhs_weak), "estimate": lhs_weak.to_obj()},
        "riesz_strong": {**_block(lhs_strong.value, rhs_strong), "estimate": lhs_strong.to_obj()},
        "reduction": {"r": str(r), **_block(lhs_strong.value, rhs_red)},
        "md_testing": _block(md.value, rhs_maximal),
    }

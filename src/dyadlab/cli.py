"""Experiment runner and one-shot command-line tools.

Subcommands
-----------
run        execute named verification suites from a JSON config into an
           artifact directory (report.json, per-suite JSON, tables/*.csv,
           schema.txt); exit status is nonzero iff a hard check fails
ops        apply one cube operator to a sampled function (JSON in/out)
sparse     build | verify | apply stopping-time sparse families
constants  compute one weight constant, or a batch of them to CSV
norms      estimate | equiv norm lower bounds and the weak-strong equivalence
examples   case1 | case2 | factored | classical constructive pairs

Determinism contract: reports carry no timestamps or absolute paths, JSON
is emitted with sorted keys, and every random draw is seeded from the
configuration, so identical config and seed give byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from fractions import Fraction
from functools import partial, reduce
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .constants import (
    WeightPair,
    ainfty_exp,
    ainfty_m,
    ap_constant,
    apq_alpha_constant,
    mixed_one_sup,
)
from .grid import (
    Box,
    DyadicCube,
    GridFamily,
    _json_int,
    all_shifts,
    box_from_obj,
    box_to_obj,
    cube_from_obj,
    cube_to_obj,
    obj_field,
    parent,
    realize,
)
from .normest import (
    TestFamily,
    equivalence_report,
    estimate_norm,
)
from .operators import (
    OPERATORS,
    dyadic_frac_maximal,
    dyadic_riesz,
    frac_maximal,
    geometric_maximal,
    outer_riesz,
    _shell_constant,
)
from .orlicz import (
    OrliczError,
    YoungFunction,
    borderline,
    bp_classify,
    log_bump,
    orlicz_holder_check,
    power,
    power_log,
    rescale_identity_check,
)
from .pairs import (
    MAX_EXPS,
    build_E,
    case1_pair,
    case2_divergence,
    classical_pair,
    factored_pair,
    verify_E_maximal,
)
from .sampled import (ExponentTuple, MeshError, SampledFunction, integrate, is_cell_count, is_power_of_two, lp_norm,
                      make_exponents, parse_rational)
from .sparse import build_sparse, sparse_operator

class CLIError(ValueError):
    pass


# === serialization helpers ===================================================


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, obj):
    path.write_text(_dumps(obj))


def _write_csv(path: Optional[Path], header, rows):
    """CSV with floats written as repr; to stdout when path is None."""
    with (path.open("w", newline="") if path else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise CLIError(f"missing input file: {path}")
    with p.open() as fh:
        return json.load(fh)


def _load_obj(path: str, from_obj):
    """from_obj of the JSON in path; an input that from_obj rejects becomes
    a CLIError naming the file (and the field, for a missing or malformed
    one)."""
    obj = _load_json(path)
    try:
        return from_obj(obj)
    except MeshError as exc:
        raise CLIError(f"{path}: {exc}") from None


def _parse_exponents(text: str) -> ExponentTuple:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 4:
        raise CLIError(f"exponents must be 'n,alpha,p,q', got {text!r}")
    return make_exponents(*parts)


def _parse_levels(text: Optional[str]):
    if text is None:
        return None, None
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CLIError(f"levels must be 'lo..hi', got {text!r}")
    return int(lo), int(hi)


def _parse_shifts(text: Optional[str], dim: int):
    if text is None:
        return None
    flags = tuple(int(t) for t in text.split(","))
    if len(flags) != dim or any(f not in (0, 1) for f in flags):
        raise CLIError(f"shift must be {dim} comma-separated 0/1 flags, got {text!r}")
    return flags


_YOUNG_FAMILIES = {
    "power": (power, ("r",)),
    "power-log": (power_log, ("r", "a")),
    "log-bump": (log_bump, ("p", "delta")),
    "borderline": (borderline, ("p", "q", "eps")),
}


def young_from_spec(spec) -> YoungFunction:
    """Build a Young function from 'family:key=val,...' or a config dict."""
    if isinstance(spec, dict):
        family, params = spec.get("family"), spec.get("params", {})
        if not isinstance(params, dict):
            raise CLIError(f"young params must be an object, got {params!r}")
    else:
        family, _, rest = str(spec).partition(":")
        params = {}
        for item in filter(None, rest.split(",")):
            k, sep, v = item.partition("=")
            if not sep:
                raise CLIError(f"malformed young parameter {item!r}")
            params[k.strip()] = float(v)
    if family not in _YOUNG_FAMILIES:
        raise CLIError(
            f"unknown young family {family!r}; choose from {sorted(_YOUNG_FAMILIES)}"
        )
    ctor, keys = _YOUNG_FAMILIES[family]
    if set(params) != set(keys):
        raise CLIError(f"family {family!r} takes parameters {keys}, got {sorted(params)}")
    try:
        values = [float(params[k]) for k in keys]
    except TypeError:
        raise CLIError(f"family {family!r} parameters must be numbers, got {params!r}") from None
    return ctor(*values)


# === config ==================================================================


def _merge_config(base: dict, override: dict, where: str = "config") -> dict:
    """override laid over base key by key, the same way again where both it
    and DEFAULT_CONFIG hold an object (base must then hold one or none); a
    non-object where an object is merged is refused, named by where."""
    if not isinstance(base, dict) or not isinstance(override, dict):
        raise CLIError(f"{where} must be an object")
    out = dict(base)
    for k, v in override.items():
        nested = isinstance(v, dict) and isinstance(DEFAULT_CONFIG.get(k), dict)
        out[k] = _merge_config(out.get(k, {}), v, k) if nested else v
    return out


# grid.obj_field, raising CLIError; config integers go through grid's integer rule
_field = partial(obj_field, error=CLIError)
_seed = partial(_json_int, least=0)


def _known_fields(obj, fields, where: str = ""):
    """Refuse obj unless it is an object whose keys all lie in fields;
    where is obj's dotted place in the config ("" at the top)."""
    if not isinstance(obj, dict):
        raise CLIError(f"{where} must be an object")
    unknown = sorted(f"{where}.{k}" if where else k for k in set(obj) - set(fields))
    if unknown:
        raise CLIError(f"unknown config fields: {unknown}")


class RunConfig(NamedTuple):
    """A checked config and the inputs it names, built once for every suite."""

    cfg: dict  # as report.json records it
    e: ExponentTuple
    mesh: tuple  # (dim, lower corner, window side, cells per axis) of the suites' weights
    young: list  # the Young function of each cfg["young"] entry
    pairs: list  # the WeightPair of each cfg["pairs"] entry


def validate_config(cfg: dict) -> RunConfig:
    """Reject a malformed config, or one that gives a suite nothing to
    run, before any suite runs or any output is written; build its inputs."""
    _known_fields(cfg, DEFAULT_CONFIG)
    for key in ("suites", "young", "pairs"):
        if not isinstance(cfg[key], list):
            raise CLIError(f"{key} must be a list")
    for key in ("exponents", "mesh", "counterexample"):
        _known_fields(cfg[key], DEFAULT_CONFIG[key], key)
    if not cfg["suites"]:
        raise CLIError("suites must name at least one suite")
    if "equivalence" in cfg["suites"] and not cfg["pairs"]:
        raise CLIError("the equivalence suite needs at least one pair")
    for s in cfg["suites"]:
        if s not in SUITES:
            raise CLIError(f"unknown suite {s!r}; choose from {list(SUITES)}")
    ex = cfg["exponents"]
    e = make_exponents(_field(ex, "n", _json_int, "exponents."), ex["alpha"], ex["p"], ex["q"])
    side = _field(cfg["mesh"], "window", parse_rational, "mesh.")
    if not is_power_of_two(side):
        raise CLIError("mesh.window must be a positive power of two")
    ncells = _field(cfg["mesh"], "cells_per_axis", _json_int, "mesh.")
    if not is_cell_count(ncells):
        raise CLIError("mesh.cells_per_axis must be 3 * 2^L")
    mesh = (e.n, (0,) * e.n, side, ncells)
    if "equivalence" in cfg["suites"] and not (e.p < e.q and 0 < e.alpha):
        raise CLIError("the equivalence suite needs exponents with p < q and alpha > 0")
    cx = cfg["counterexample"]
    if not 0 < _field(cx, "gamma", parse_rational, "counterexample.") < 1:
        raise CLIError("counterexample.gamma must lie in (0, 1)")
    w = _field(cx, "window", _json_int, "counterexample.")
    if not is_power_of_two(w) or w.bit_length() - 1 not in MAX_EXPS:
        # the suite hands case2_divergence the cutoff exponent log2(window)
        raise CLIError(f"counterexample.window must be a power of two from 2^{MAX_EXPS.start} "
                       f"to 2^{MAX_EXPS[-1]}, got {w}")
    _field(cfg, "seed", _seed)
    young = []
    for i, y in enumerate(cfg["young"]):
        _known_fields(y, ("family", "params"), f"young[{i}]")
        try:
            young.append(young_from_spec(y))
            young[-1].associate()  # the orlicz suite conjugates every entry
        except OrliczError as exc:
            raise CLIError(f"young[{i}]: {exc}") from None
    pairs = [_pair_from_spec(spec, e, mesh, f"pairs[{i}]") for i, spec in enumerate(cfg["pairs"])]
    return RunConfig(cfg, e, mesh, young, pairs)


def _rand_weight(mesh: tuple, seed: int, lo=0.2, hi=3.0) -> SampledFunction:
    dim, lower, side, ncells = mesh
    return SampledFunction(dim, lower, side, np.random.default_rng(seed).uniform(lo, hi, (ncells,) * dim))


def _smooth_weight(mesh: tuple) -> SampledFunction:
    """Slowly varying strictly positive profile (no randomness)."""
    dim, lower, side, ncells = mesh
    x = (np.arange(ncells) + 0.5) / ncells
    prof = 1.0 + 0.75 * x * (1.0 - x) + 0.25 * x
    return SampledFunction(dim, lower, side, reduce(np.multiply.outer, [prof] * dim))


_PAIR_PARAMS = {"classical-smooth": (), "random": ("seed",), "file": ("path",)}


def _pair_from_spec(spec: dict, e: ExponentTuple, mesh: tuple, where: str) -> WeightPair:
    _known_fields(spec, ("kind", "params"), where)
    kind, params = spec.get("kind"), spec.get("params", {})
    if kind not in _PAIR_PARAMS:
        raise CLIError(f"unknown pair kind {kind!r}")
    _known_fields(params, _PAIR_PARAMS[kind], f"{where}.params")
    if kind == "classical-smooth":
        return classical_pair(_smooth_weight(mesh), e) if e.is_sobolev else WeightPair(
            _smooth_weight(mesh), _smooth_weight(mesh), provenance="smooth"
        )
    if kind == "random":
        seed = _field({"seed": 0, **params}, "seed", _seed, f"{where}.params.")
        return WeightPair(
            _rand_weight(mesh, seed), _rand_weight(mesh, seed + 1000), provenance="random"
        )
    if not isinstance(params.get("path"), str):
        raise CLIError("a file pair needs params.path")
    return _load_obj(params["path"], WeightPair.from_obj)


# === suites ==================================================================


def _check(name: str, value, bound, cases: int, sense: str = "<=") -> dict:
    """The one verdict rule of `dyadlab run`: value held to bound (value <=
    bound, or value >= bound when sense is ">="), over cases trials, cubes
    or test functions.  A check that compared nothing (no case, or no
    value) is vacuous and does not pass; a NaN value fails."""
    vacuous = cases == 0 or value is None
    lo, hi = (value, bound) if sense == "<=" else (bound, value)
    return {"name": name, "value": value, "bound": bound, "sense": sense, "cases": cases,
            "margin": None if vacuous else hi - lo, "vacuous": vacuous, "passed": not vacuous and lo <= hi}


def _worst(values, sense: str = "<=") -> Optional[float]:
    """The worst of values against a bound of the given sense: NaN when
    any value is NaN (Python's max would drop it), None when there is none."""
    if not len(values):
        return None
    return float((np.max if sense == "<=" else np.min)(values))


def _result(checks: list, **tables) -> dict:
    """A suite's checks and its tables, each given as (header, rows)."""
    return {"checks": checks, "tables": {k: {"header": h, "rows": r} for k, (h, r) in tables.items()}}


def _rand_cube(rng, dim: int, levels, index) -> DyadicCube:
    return DyadicCube(
        dim,
        int(rng.integers(*levels)),
        tuple(int(rng.integers(*index)) for _ in range(dim)),
        tuple(int(rng.integers(0, 2)) for _ in range(dim)),
    )


def _suite_geometry(run: RunConfig) -> dict:
    rng = np.random.default_rng(run.cfg["seed"] + 1)
    checks, rows = [], []

    failed = 0
    for _ in range(50):
        cube = _rand_cube(rng, int(rng.integers(1, 3)), (-6, 7), (-512, 512))
        box = realize(cube)
        failed += cube_from_obj(cube_to_obj(cube)) != cube or box_from_obj(box_to_obj(box)) != box
    checks.append(_check("serialization_roundtrip", failed, 0, 50))

    failed = 0
    for _ in range(50):
        cube = _rand_cube(rng, int(rng.integers(1, 3)), (-4, 7), (-64, 64))
        failed += not realize(parent(cube)).contains_box(realize(cube))
    checks.append(_check("parent_contains_child", failed, 0, 50))

    # one-third trick: some shifted cube of comparable side contains any box
    trials = 40
    for _ in range(trials):
        dim = int(rng.integers(1, 3))
        lo = tuple(Fraction(int(rng.integers(-256, 256)), 64) for _ in range(dim))
        side = Fraction(int(rng.integers(1, 129)), 64)
        box = Box(lo, side)
        level = -math.ceil(math.log2(float(4 * side)))  # cube side in [4s, 8s)
        hit = any(
            realize(cand).contains_box(box)
            for sh in all_shifts(dim)
            for cand in GridFamily(dim, sh, level, level, box).cubes_at_level(level)
        )
        rows.append([dim, str(side), level, int(hit)])
    checks.append(_check("shift_family_dominates_boxes", sum(1 - r[3] for r in rows), 0, trials))

    return _result(checks, geometry_domination=(["dim", "side", "level", "dominated"], rows))


def _suite_operators(run: RunConfig) -> dict:
    e, seed = run.e, run.cfg["seed"]
    checks, rows = [], []
    ratios = {"3/2": [], "2": [], "3": []}
    for i in range(30):
        f = _rand_weight(run.mesh, seed + 100 + i, lo=0.0, hi=4.0)
        mf = geometric_maximal(f, shift=(0,) * e.n)
        for plabel, p in (("3/2", Fraction(3, 2)), ("2", 2), ("3", 3)):
            lhs = lp_norm(mf, p)
            rhs = lp_norm(f, p)
            ratios[plabel].append(lhs / rhs if rhs > 0 else 0.0)
    for plabel, rs in ratios.items():
        rows.append([plabel, _worst(rs), math.e])
    every = sum(ratios.values(), [])
    checks.append(_check("geometric_maximal_e_bound", _worst(every), math.e + 1e-9, len(every)))

    # shell potential sits below the scaled maximal function, cell by cell
    coeff = _shell_constant(e.alpha, e.n)
    shell = []
    for i in range(5):
        sig = _rand_weight(run.mesh, seed + 300 + i)
        fam = GridFamily(e.n, (0,) * e.n, 1, 1, sig.window)
        for cube in fam.cubes_at_level(1):
            cut = sig.restrict_to(cube)
            lhs = outer_riesz(sig, cube, float(e.alpha))
            rhs = frac_maximal(cut, float(e.alpha))
            mask = rhs.values > 0
            shell.append(float(np.max(lhs.values[mask] / (coeff * rhs.values[mask]))))
    checks.append(_check("shell_potential_below_scaled_maximal", _worst(shell), 1.0 + 1e-9, len(shell)))

    # discrete potential is self-adjoint
    rels = []
    for i in range(5):
        f = _rand_weight(run.mesh, seed + 400 + i)
        g = _rand_weight(run.mesh, seed + 500 + i)
        lhs = integrate(dyadic_riesz(f, float(e.alpha), shift=(0,) * e.n) * g)
        rhs = integrate(dyadic_riesz(g, float(e.alpha), shift=(0,) * e.n) * f)
        rels.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    checks.append(_check("dyadic_potential_self_adjoint", _worst(rels), 1e-12, len(rels)))

    return _result(checks, operators_maximal_bound=(["p", "worst_ratio", "bound"], rows))


def _sparse_domination(fam) -> float:
    """The worst ratio of the dyadic fractional maximal function of a sparse
    family's source to its sparse sum over the cells the sum covers (0 on
    none), or inf when the maximal function is positive on a cell the sum
    does not cover."""
    g = fam.grid
    lhs = dyadic_frac_maximal(fam.source, fam.alpha, shift=g.shift, min_level=g.min_level, max_level=g.max_level)
    rhs = sparse_operator(fam, form="chi")
    mask = rhs.values > 0
    if np.any(~mask & (lhs.values > 0)):
        return math.inf
    return float(np.max(lhs.values[mask] / rhs.values[mask])) if mask.any() else 0.0


def _suite_sparse(run: RunConfig) -> dict:
    rows = []
    for i in range(20):
        f = _rand_weight(run.mesh, run.cfg["seed"] + 600 + i, lo=0.0, hi=3.0)
        for a in (0, run.e.alpha):
            fam = build_sparse(f, a, shift=(0,) * run.e.n)
            rows.append([i, str(a), len(fam), fam.thickness(), _sparse_domination(fam), fam.ratio])
    thick = [r[3] for r in rows]
    dom = [r[4] for r in rows]
    checks = [
        _check("sparse_thickness_half", _worst(thick, ">="), 0.5, len(thick), ">="),
        # every family stops at the same default ratio 2^(n+1)
        _check("sparse_domination_with_fixed_constant", _worst(dom), fam.ratio + 1e-9, len(dom)),
    ]
    return _result(checks, sparse_families=(["trial", "alpha", "cubes", "thickness", "domination_ratio", "C_a"], rows))


def _suite_orlicz(run: RunConfig) -> dict:
    rng = np.random.default_rng(run.cfg["seed"] + 2)
    checks = []
    probe = np.geomspace(0.05, 40.0, 120)

    rels = []
    for phi in run.young:
        twice = phi.associate().associate()
        rels.append(float(np.max(np.abs(twice.eval(probe) - phi.eval(probe)) / phi.eval(probe))))
    checks.append(_check("conjugate_involution", _worst(rels), 1e-6, len(rels)))

    rels = []
    for i in range(20):
        v = rng.uniform(0.05, 3.0, 48)
        out = rescale_identity_check(power_log(1.5, 0.6), 2.0, v, 1.0 / 48, 1.0)
        rels.append(abs(out["scaled_norm"] - out["power_norm"]) / out["power_norm"])
    checks.append(_check("rescaling_identity", _worst(rels), 1e-8, len(rels)))

    shares = []
    for i in range(100):
        fv = rng.uniform(0.0, 2.0, 48)
        gv = rng.uniform(0.0, 2.0, 48)
        out = orlicz_holder_check(log_bump(2.0, 0.5), fv, gv, 1.0 / 48, 1.0)
        shares.append(out["mean_fg"] / out["bound"])
    checks.append(_check("orlicz_holder_factor_two", _worst(shares), 1 + 1e-12, len(shares)))

    with np.errstate(over="ignore"):
        reps = [bp_classify(power(m), 2.0) for m in (1.5, 2.5)]
        for spec, phi in zip(run.cfg["young"], run.young):
            reps.append(bp_classify(phi, float(spec.get("params", {}).get("p", getattr(phi, "r", 2.0)))))
    failed = (reps[0].verdict != "convergent") + (reps[1].verdict != "divergent")
    checks.append(_check("power_tail_verdicts", failed, 0, 2))
    rows = [[rep.phi_label, rep.p, rep.verdict, rep.rho if math.isfinite(rep.rho) else ""] for rep in reps]

    return _result(checks, orlicz_tail_classification=(["phi", "p", "verdict", "rho"], rows))


def _constant_table(reps) -> tuple:
    """(header, rows) of named constant reports: name, value, argmax cube as JSON."""
    return ["name", "value", "argmax"], [
        [name, rep.value, "" if rep.argmax is None else json.dumps(cube_to_obj(rep.argmax), sort_keys=True)]
        for name, rep in reps]


def _suite_constants(run: RunConfig) -> dict:
    e = run.e
    checks = []

    w = _smooth_weight(run.mesh)
    if e.is_sobolev:
        pair = classical_pair(w, e)
    else:
        pair = WeightPair(w.power(float(e.q)), w.power(-float(e.pprime)), provenance="powers")

    apq = apq_alpha_constant(pair, e)
    apq_dual = apq_alpha_constant(pair.swapped(), e.dual())
    checks.append(_check("joint_constant_swap_symmetry", abs(apq.value - apq_dual.value) / apq.value,
                         1e-12, min(apq.n_scored, apq_dual.n_scored)))

    ap_u = ap_constant(pair.u, e.s_p)
    if e.is_sobolev:
        link = ap_u.value ** (1.0 / float(e.q))
        checks.append(_check("classical_link_identity", abs(apq.value - link) / link,
                             1e-12, min(apq.n_scored, ap_u.n_scored)))

    fine = WeightPair(pair.u.refine(), pair.sigma.refine(), provenance=pair.provenance)
    apq_fine = apq_alpha_constant(fine, e)
    checks.append(_check("lower_bound_nondecreasing_under_refinement", apq_fine.value,
                         apq.value * (1 - 1e-12), min(apq.n_scored, apq_fine.n_scored), ">="))

    entries = [
        ("apq_alpha", apq),
        ("apq_alpha_dual", apq_dual),
        ("ap_u_sp", ap_u),
        ("ap_sigma_sdual", ap_constant(pair.sigma, e.s_dual)),
        ("ainfty_exp_u", ainfty_exp(pair.u)),
        ("ainfty_m_u", ainfty_m(pair.u)),
        ("mixed_ap_m_sigma", mixed_one_sup(pair, e, flavor="ap_m")),
    ]
    return _result(checks, constants_values=_constant_table(entries))


def _suite_equivalence(run: RunConfig) -> dict:
    e = run.e
    checks, rows = [], []
    family = TestFamily(random_steps=2, seed=run.cfg["seed"])

    for spec, pair in zip(run.cfg["pairs"], run.pairs):
        rep = equivalence_report(pair, e, family=family)
        label = spec.get("kind", "pair")
        chain, duality, ests = rep["testing_chain"], rep["duality_chain"], rep["estimates"]
        tested = min(ests[k]["family_size"] for k in ("dyadic_maximal_forward", "strong_riesz"))
        checks += [
            _check(f"testing_chain[{label}]", chain["max_ratio"], 1 + 1e-9, chain["cubes"]),
            _check(f"duality_chain[{label}]", duality["ratio"], 1 + 1e-9, duality["cubes"]),
            # the ratio is null for a degenerate pair
            _check(f"dyadic_maximal_below_strong[{label}]", rep["ratios"]["dyadic_maximal_vs_strong"],
                   1 + 1e-9, tested),
        ]
        for key, est in ests.items():
            rows.append([label, key, est["value"], est["source"], est["target"]])

    # indicator-family norm estimates only grow when the mesh refines
    pair = run.pairs[0]
    ind = TestFamily(indicators=True, random_steps=0, duality=False)
    coarse = estimate_norm("frac_maximal", pair, e, family=ind, alpha=e.alpha)
    fine_pair = WeightPair(pair.u.refine(), pair.sigma.refine(), provenance=pair.provenance)
    fine = estimate_norm("frac_maximal", fine_pair, e, family=ind, alpha=e.alpha)
    checks.append(_check("estimate_nondecreasing_under_refinement", fine.value, coarse.value * (1 - 1e-12),
                         min(coarse.family_size, fine.family_size), ">="))

    return _result(checks, equivalence_estimates=(["pair", "estimate", "value", "source", "target"], rows))


_CASE_COLUMNS = {"case1": ["X", "integral", "log_X", "ratio"], "case2": ["X", "S", "H", "ratio"]}


def _case_table(case: str, rep: dict) -> tuple:
    """(header, rows) of the table of a case1_pair or case2_divergence report."""
    columns = _CASE_COLUMNS[case]
    return columns, [[r[c] for c in columns] for r in rep["rows"]]


def _suite_counterexample(run: RunConfig) -> dict:
    checks = []
    g = parse_rational(run.cfg["counterexample"]["gamma"])
    window = run.cfg["counterexample"]["window"]
    max_exp = window.bit_length() - 1

    e1 = ExponentTuple(1, Fraction(1, 4), Fraction(5, 4), 2)
    apqs = []
    for wexp in (5, 6):
        _, _, rep1 = case1_pair(e1, window_exp=wexp)
        apqs.append(rep1["apq"]["value"])
    drift = abs(apqs[1] - apqs[0]) / apqs[0] if apqs[0] > 0 else None
    checks += [
        _check("case1_constant_window_independent", drift, 1e-9, len(apqs)),
        _check("case1_minorant_exponents", int(rep1["minorant_exponent_sum"] != "-1"), 0, 1),
    ]

    e2 = ExponentTuple(1, g, 2, 2)  # with p = q the factored order equals alpha
    rep2 = case2_divergence(e2, max_exp=max_exp)
    minorant = rep2["minorant"]
    checks += [
        _check("case2_exponent_identity", int(not rep2["identity"]["holds"]), 0, 1),
        _check("case2_termwise_minorant",
               2 - minorant["integral_ge_pointwise"] - minorant["pointwise_ge_harmonic"], 0, minorant["terms"]),
        _check("case2_dominates_harmonic", int(not rep2["dominates"]), 0, len(rep2["rows"])),
        _check("case2_mesh_check_one_sided", int(not rep2["mesh_check"]["one_sided"]), 0, 1),
    ]
    if g == Fraction(1, 2) and window >= 2**16:
        # S must exceed 5 strictly
        checks.append(_check("case2_partial_integral_clears_five", rep2["rows"][-1]["S"],
                             math.nextafter(5.0, math.inf), 1, ">="))

    ver = verify_E_maximal(g, 64)
    pinched = [ver["unit_floor"], ver["small_cube_max"], *ver["intervals"]]
    checks.append(_check("interval_train_maximal_pinched", sum(not c["holds"] for c in pinched), 0, len(pinched)))

    X = 64
    chi = build_E(g, X)
    w2 = SampledFunction.indicator(Box((0,), 1), 1, (0,), X, chi.ncells)
    fpair = factored_pair(chi, w2, e2)
    fap = apq_alpha_constant(fpair, e2)
    checks.append(_check("factored_constant_at_most_one", fap.value, 1.0 + 1e-12, fap.n_scored))

    return _result(checks, counterexample_case1=_case_table("case1", rep1),
                   counterexample_case2=_case_table("case2", rep2))


_SUITE_FN = {
    "geometry": _suite_geometry,
    "operators": _suite_operators,
    "sparse": _suite_sparse,
    "orlicz": _suite_orlicz,
    "constants": _suite_constants,
    "equivalence": _suite_equivalence,
    "counterexample": _suite_counterexample,
}
SUITES = tuple(_SUITE_FN)

DEFAULT_CONFIG = {
    "suites": list(SUITES),
    "exponents": {"n": 1, "alpha": "1/2", "p": "4/3", "q": "4"},
    "mesh": {"window": 1, "cells_per_axis": 48},
    "seed": 715,
    "young": [
        {"family": "power", "params": {"r": 2.0}},
        {"family": "log-bump", "params": {"p": 2.0, "delta": 0.5}},
        {"family": "borderline", "params": {"p": 2.0, "q": 4.0, "eps": 0.5}},
    ],
    "pairs": [{"kind": "classical-smooth"}, {"kind": "random", "params": {"seed": 11}}],
    "counterexample": {"gamma": "1/2", "window": 65536},
}

_TABLE_DOCS = {
    "geometry_domination": "dim, box side (rational), cube level used, 1 if some shifted cube of side in (2s,4s] contains the box",
    "operators_maximal_bound": "exponent p, worst ratio ||M f||_p / ||f||_p over trials, the bound e",
    "sparse_families": "trial index, order alpha, number of stopping cubes, worst |E_Q|/|Q|, worst pointwise M/L ratio, the constant C_a",
    "orlicz_tail_classification": "young function label, exponent p, tail verdict, fitted per-doubling decay rho",
    "constants_values": "constant name, scanned supremum, argmax cube as JSON",
    "equivalence_estimates": "pair kind, estimate name, norm lower bound, source space, target space",
    "counterexample_case1": "cutoff X, int_1^X M(f sigma)^q u dx, log X, their ratio",
    "counterexample_case2": "cutoff X, S(X) = int_2^X x^(gamma-1) chi_E dx, harmonic minorant H(X), S/H",
    "summary": "suite name, check name, 1 if passed",
}
_REPORT_DOC = (
    "report.json: config, then per suite its checks, each {name, value, bound, sense, cases, margin, vacuous, "
    "passed}: value held to bound (sense <= or >=) over cases trials, cubes or test functions, margin inside "
    "the bound; a check over no case or no value is vacuous and fails"
)


def run_suite(cfg: dict, out_dir: Path) -> int:
    """Execute the configured suites in order, then write the artifact directory."""
    run = validate_config(_merge_config(DEFAULT_CONFIG, cfg))
    names = list(run.cfg["suites"])
    results = [_SUITE_FN[s](run) for s in names]
    # suites write no files, so a suite that raises leaves no partial directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "tables").mkdir(exist_ok=True)

    summary_rows = []
    used_tables = ["summary"]
    report = {"config": run.cfg, "suites": {}}
    all_passed = True
    for name, res in zip(names, results):
        passed = all(c["passed"] for c in res["checks"])
        all_passed &= passed
        report["suites"][name] = {"passed": passed, "checks": res["checks"]}
        _write_json(out_dir / f"{name}.json", report["suites"][name])
        for tname, table in res.get("tables", {}).items():
            _write_csv(out_dir / "tables" / f"{tname}.csv", table["header"], table["rows"])
            used_tables.append(tname)
        for c in res["checks"]:
            summary_rows.append([name, c["name"], int(c["passed"])])

    report["passed"] = all_passed
    _write_json(out_dir / "report.json", report)
    _write_csv(out_dir / "summary.csv", ["suite", "check", "passed"], summary_rows)
    schema = ["CSV column documentation, one table per line.", ""]
    for t in sorted(set(used_tables)):
        schema.append(f"{t}.csv: {_TABLE_DOCS[t]}")
    schema.append(_REPORT_DOC)
    (out_dir / "schema.txt").write_text("\n".join(schema) + "\n")
    return 0 if all_passed else 1


# === one-shot subcommands ====================================================


def _given(**flags) -> dict:
    """The flags that were given (not None); a group of none is left out."""
    return {k: v for k, v in flags.items() if v is not None and v != {}}


def _cmd_run(args) -> int:
    # the defaults, then the file, then each given flag over its own key
    flags = _given(suites=args.suite, seed=args.seed, counterexample=_given(gamma=args.gamma, window=args.window))
    return run_suite(_merge_config(_load_json(args.config) if args.config else {}, flags), Path(args.out))


def _emit(obj, out: Optional[str]):
    text = _dumps(obj)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_ops(args) -> int:
    f = _load_obj(args.input, SampledFunction.from_obj)
    lo, hi = _parse_levels(args.levels)
    shift = _parse_shifts(args.shift, f.dim)
    alpha = float(parse_rational(args.alpha)) if args.alpha is not None else 0.0
    name = args.name
    if name == "outer_riesz":
        if not args.cube:
            raise CLIError("outer_riesz needs --cube")
        out = outer_riesz(f, cube_from_obj(json.loads(args.cube)), alpha)
    else:
        mu = _load_obj(args.mu, SampledFunction.from_obj) if args.mu else None
        phi = young_from_spec(args.young) if args.young else None
        out = f.with_values(OPERATORS[name](f, f.values, mu, alpha, phi, shift, lo, hi))
    obj = {
        "function": out.to_obj(),
        "metadata": {
            "operator": name,
            "alpha": str(parse_rational(args.alpha)) if args.alpha is not None else "0",
            "shift": list(shift) if shift is not None else None,
            "min_level": lo,
            "max_level": hi,
        },
    }
    _emit(obj, args.out)
    if args.csv:
        _write_csv(Path(args.csv), ["index", "value"],
                   [[i, float(v)] for i, v in enumerate(out.values.ravel())])
    return 0


def _cmd_sparse(args) -> int:
    f = _load_obj(args.input, SampledFunction.from_obj)
    lo, hi = _parse_levels(args.levels)
    shift = _parse_shifts(args.shift, f.dim) or (0,) * f.dim
    alpha = parse_rational(args.alpha) if args.alpha is not None else 0
    fam = build_sparse(f, alpha, ratio=args.ratio, shift=shift, min_level=lo, max_level=hi)
    if args.action == "build":
        _emit(fam.to_obj(), args.out)
        return 0
    if args.action == "verify":
        # a family of no cubes certifies nothing, so both checks are vacuous
        thick = _check("thickness", fam.thickness(), 0.5, len(fam), ">=")
        dom = _check("domination", _sparse_domination(fam), fam.ratio + 1e-9, len(fam))
        ok = thick["passed"] and dom["passed"]
        _emit(
            {
                "cubes": len(fam),
                "vacuous": thick["vacuous"],
                "thickness": thick["value"],
                "guaranteed_thickness": fam.guaranteed_thickness,
                "domination_ratio": dom["value"],
                "C_a": fam.ratio,
                "passed": ok,
            },
            args.out,
        )
        return 0 if ok else 1
    g = _load_obj(args.apply_to, SampledFunction.from_obj) if args.apply_to else None
    out = sparse_operator(fam, g=g, form=args.form)
    _emit({"function": out.to_obj(), "metadata": {"cubes": len(fam), "form": args.form}}, args.out)
    return 0


def _cmd_constants(args) -> int:
    pair = _load_obj(args.pair, WeightPair.from_obj)
    e = _parse_exponents(args.exponents)
    lo, hi = _parse_levels(args.levels)
    reg = {
        "apq_alpha": lambda: apq_alpha_constant(pair, e, min_level=lo, max_level=hi),
        "ap_u": lambda: ap_constant(pair.u, e.s_p, min_level=lo, max_level=hi),
        "ap_sigma": lambda: ap_constant(pair.sigma, e.s_dual, min_level=lo, max_level=hi),
        "ainfty_exp_u": lambda: ainfty_exp(pair.u, min_level=lo, max_level=hi),
        "ainfty_exp_sigma": lambda: ainfty_exp(pair.sigma, min_level=lo, max_level=hi),
        "ainfty_m_u": lambda: ainfty_m(pair.u, min_level=lo, max_level=hi),
        "ainfty_m_sigma": lambda: ainfty_m(pair.sigma, min_level=lo, max_level=hi),
    }
    # a report that scored no cube measured nothing, so it exits 1
    if args.which == "all":
        reps = [(name, reg[name]()) for name in sorted(reg)]
        _write_csv(Path(args.out) if args.out else None, *_constant_table(reps))
        return 1 if any(rep.n_scored == 0 for _, rep in reps) else 0
    if args.which not in reg:
        raise CLIError(f"unknown constant {args.which!r}; choose from {sorted(reg)} or 'all'")
    obj = reg[args.which]().to_obj()
    _emit(obj, args.out)
    return 1 if obj["vacuous"] else 0


def _cmd_norms(args) -> int:
    e = _parse_exponents(args.exponents)
    lo, hi = _parse_levels(args.levels)
    family = TestFamily(random_steps=args.family_steps, seed=args.seed)
    pair = _load_obj(args.pair, WeightPair.from_obj)
    if args.action == "estimate":
        alpha = parse_rational(args.alpha) if args.alpha is not None else None
        phi = young_from_spec(args.young) if args.young else None
        est = estimate_norm(args.op, pair, e, family=family, side=args.side, weak=args.weak,
                            alpha=alpha, phi=phi, min_level=lo, max_level=hi)
        _emit({"estimate": est.to_obj(), "family": family.describe()}, args.out)
        return 0
    _emit(equivalence_report(pair, e, family=family, min_level=lo, max_level=hi), args.out)
    return 0


def _cmd_examples(args) -> int:
    if args.action == "case1":
        e = _parse_exponents(args.exponents or "1,1/4,5/4,2")
        pair, f, rep = case1_pair(e, window_exp=args.window_exp, cells_per_unit=args.cells_per_unit)
        _emit({"pair": pair.to_obj(), "f": f.to_obj(), "report": rep}, args.out)
        if args.csv:
            _write_csv(Path(args.csv), *_case_table("case1", rep))
        return 0
    if args.action == "case2":
        e = _parse_exponents(args.exponents or "1,1/2,2,2")
        rep = case2_divergence(e, gamma=args.gamma, max_exp=args.max_exp)
        _emit(rep, args.out)
        if args.csv:
            _write_csv(Path(args.csv), *_case_table("case2", rep))
        return 0
    if args.action == "factored":
        e = _parse_exponents(args.exponents or "1,3/4,4/3,4")
        if args.train:
            X = 64 if args.window is None else args.window
            w1 = build_E(e.gamma, X)
            w2 = SampledFunction.indicator(Box((0,), 1), 1, (0,), X, w1.ncells)
        elif args.w1 and args.w2:
            w1, w2 = _load_obj(args.w1, SampledFunction.from_obj), _load_obj(args.w2, SampledFunction.from_obj)
        else:
            raise CLIError("factored needs --train or both --w1 and --w2")
        pair = factored_pair(w1, w2, e)
        rep = apq_alpha_constant(pair, e)
        _emit({"pair": pair.to_obj(), "constant": rep.to_obj(), "gamma": str(e.gamma)}, args.out)
        if args.csv:
            _write_csv(Path(args.csv), ["name", "value"],
                       [["apq_alpha", rep.value], ["gamma", float(e.gamma)]])
        return 0
    e = _parse_exponents(args.exponents or "1,1/2,4/3,4")
    if not args.weight:
        raise CLIError("classical needs --weight")
    pair = classical_pair(_load_obj(args.weight, SampledFunction.from_obj), e)
    rep = apq_alpha_constant(pair, e)
    _emit({"pair": pair.to_obj(), "constant": rep.to_obj()}, args.out)
    return 0


# === argument parsing ========================================================


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dyadlab",
        description="Dyadic-grid verification laboratory: suites, operators, constants, pairs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute verification suites into an artifact directory")
    p.add_argument("--config", help="JSON config; defaults merged underneath")
    p.add_argument("--suite", action="append", choices=SUITES, help="override the suite list")
    p.add_argument("--out", default="dyadlab-run", help="artifact directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--gamma", help="counterexample suite: interval-train exponent")
    p.add_argument("--window", type=int, help="counterexample suite: divergence cutoff (power of two)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("ops", help="apply one operator to a sampled function")
    p.add_argument("name", choices=[o for o in OPERATORS if o != "identity"] + ["outer_riesz"])
    p.add_argument("-i", "--input", required=True, help="SampledFunction JSON")
    p.add_argument("-o", "--out", help="output JSON path (default stdout)")
    p.add_argument("--csv", help="also write (index, value) rows")
    p.add_argument("--alpha", help="order, rational string")
    p.add_argument("--shift", help="grid shift flags, e.g. 0,1")
    p.add_argument("--levels", help="level range lo..hi")
    p.add_argument("--young", help="young function family:key=val,...")
    p.add_argument("--mu", help="measure JSON: apply the operator to f dmu (weighted_dyadic_maximal needs it)")
    p.add_argument("--cube", help="cube JSON for outer_riesz")
    p.set_defaults(fn=_cmd_ops)

    p = sub.add_parser("sparse", help="stopping-time sparse families")
    p.add_argument("action", choices=["build", "verify", "apply"])
    p.add_argument("-i", "--input", required=True, help="source SampledFunction JSON")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.add_argument("--alpha", help="order, rational string")
    p.add_argument("--ratio", type=float, help="stopping ratio a (default 2^(n+1))")
    p.add_argument("--shift", help="grid shift flags")
    p.add_argument("--levels", help="level range lo..hi")
    p.add_argument("--apply-to", help="function JSON for apply (default: the source)")
    p.add_argument("--form", choices=["chi", "disjoint"], default="chi")
    p.set_defaults(fn=_cmd_sparse)

    p = sub.add_parser("constants", help="weight-constant scans")
    p.add_argument("action", choices=["compute"])
    p.add_argument("--which", required=True, help="constant name, or 'all' for CSV batch")
    p.add_argument("--pair", required=True, help="WeightPair JSON")
    p.add_argument("--exponents", required=True, help="n,alpha,p,q")
    p.add_argument("--levels", help="level range lo..hi")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("norms", help="norm estimates and composite diagnostics")
    p.add_argument("action", choices=["estimate", "equiv"])
    p.add_argument("--pair", required=True, help="WeightPair JSON")
    p.add_argument("--exponents", required=True, help="n,alpha,p,q")
    p.add_argument("--op", default="frac_maximal", choices=list(OPERATORS))
    p.add_argument("--side", default="forward", choices=["forward", "dual"])
    p.add_argument("--weak", action="store_true")
    p.add_argument("--alpha", help="operator order override")
    p.add_argument("--young", help="young function of orlicz_maximal (estimate)")
    p.add_argument("--levels", help="level range lo..hi")
    p.add_argument("--family-steps", type=int, default=4)
    p.add_argument("--seed", type=int, default=715)
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_norms)

    p = sub.add_parser("examples", help="constructive weight pairs")
    p.add_argument("action", choices=["case1", "case2", "factored", "classical"])
    p.add_argument("--exponents", help="n,alpha,p,q (defaults fit the chosen construction)")
    p.add_argument("--gamma", help="interval-train exponent override (case2)")
    p.add_argument("--window-exp", type=int, default=5, help="case1 window is [-2^(k-1), 2^(k-1))")
    p.add_argument("--cells-per-unit", type=int, default=12)
    p.add_argument("--max-exp", type=int, default=16, help="case2 cutoff 2^k")
    p.add_argument("--window", type=int, help="factored: interval-train window X")
    p.add_argument("--train", action="store_true", help="factored: use the interval train inputs")
    p.add_argument("--w1", help="factored: first weight JSON")
    p.add_argument("--w2", help="factored: second weight JSON")
    p.add_argument("--weight", help="classical: weight JSON")
    p.add_argument("--csv", help="also write the diagnostic table")
    p.add_argument("-o", "--out", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_examples)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore"):
            return args.fn(args)
    except (CLIError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""The three workloads: seeded inputs, fixed job lists and output checks.

A workload's inputs are plain numpy arrays generated once at set-up from
the seed.  Every pass rebuilds its SampledFunction and WeightPair objects
from those arrays (the timed ``build_inputs`` step), so lazy per-object
state such as prefix tables never carries over from one pass to the next.
Mesh sizes, level ranges and parameters are fixed; only the cell values
depend on the seed, so the work per pass is the same for every seed.

Each job is one or a few calls into dyadlab.  Its check runs outside the
timed region and returns the job's numeric result as a flat dict plus a
list of problems.  Checks hold for any seed (library invariants); at the
default seed the results are also compared with ``references.json``.
"""
from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

DEFAULT_SEED = 1
REL_TOL = 1e-9  # reference tolerance; the library tests use 1e-9 for operator and constant values
CLI_BASE_SEED = 715  # dyadlab run's default seed, used at DEFAULT_SEED

E1 = (1, Fraction(1, 2), Fraction(4, 3), Fraction(4))  # 1-D exponents on the Sobolev line
E2 = (2, Fraction(1), Fraction(4, 3), Fraction(4))  # 2-D exponents on the Sobolev line


@dataclass
class Job:
    name: str
    run: Callable[["Ctx"], Any]  # timed
    check: Callable[["Ctx", Any], Tuple[dict, List[str]]]  # untimed: (values, problems)
    size: Optional[str] = None  # "N" or "2N" for the growth metrics
    cell_updates: int = 0  # operator jobs: cells x levels x grids


@dataclass
class Ctx:
    """Everything a pass needs: the package, seeded arrays, per-pass objects."""

    dl: Any  # the dyadlab package
    cli: Any  # dyadlab.cli
    seed: int
    arrays: Dict[str, Any]
    scratch: Path
    young: Dict[str, Any] = field(default_factory=dict)  # Young functions passed to jobs
    obj: Dict[str, Any] = field(default_factory=dict)  # per-pass objects
    memo: Dict[str, Any] = field(default_factory=dict)  # check-side values, kept for the run
    cli_artifacts: Dict[str, Dict[str, str]] = field(default_factory=dict)  # first hashes per job
    artifact_counts: List[int] = field(default_factory=lambda: [0, 0])  # identical, total
    references: Optional[dict] = None
    pass_index: int = 0

    def exps(self, dim):
        return self.dl.ExponentTuple(*(E1 if dim == 1 else E2))


# === helpers ==================================================================


def cascade(rng, dim: int, n: int, sigma: float) -> np.ndarray:
    """Strictly positive multiplicative cascade: one lognormal factor per
    block at every scale from 3 blocks per axis down to single cells."""
    v = np.ones((n,) * dim)
    blocks = 3
    while blocks <= n:
        fac = rng.lognormal(0.0, sigma, (blocks,) * dim)
        for ax in range(dim):
            fac = np.repeat(fac, n // blocks, axis=ax)
        v *= fac
        blocks *= 2
    return v


def sf(ctx: Ctx, arr: np.ndarray):
    dim = arr.ndim
    return ctx.dl.SampledFunction(dim, (0,) * dim, 1, arr)


def summarize(f) -> dict:
    v = f.values
    flat = v.ravel()
    picks = [flat[k * (flat.size - 1) // 4] for k in range(5)]
    out = {"sum": float(v.sum()), "max": float(v.max()), "min": float(v.min())}
    out.update({f"at{k}": float(x) for k, x in enumerate(picks)})
    out["sha1"] = hashlib.sha1(np.ascontiguousarray(v).tobytes()).hexdigest()
    return out


def cube_key(cube) -> str:
    if cube is None:
        return "none"
    return f"l={cube.level},i={tuple(cube.index)},s={tuple(cube.shift)}"


def report_values(rep) -> dict:
    return {
        "value": float(rep.value),
        "n_scored": int(rep.n_scored),
        "n_skipped": int(rep.n_skipped),
        "argmax": cube_key(rep.argmax),
    }


def report_problems(rep, floor: Optional[float] = None) -> List[str]:
    probs = []
    if rep.n_scored <= 0:
        probs.append(f"{rep.name}: vacuous (n_scored == 0)")
    if not math.isfinite(rep.value) or rep.value < 0:
        probs.append(f"{rep.name}: value {rep.value!r}")
    if floor is not None and not rep.value >= floor * (1 - 1e-12):
        probs.append(f"{rep.name}: value {rep.value!r} below {floor}")
    return probs


def flatten(obj, prefix: str = "") -> dict:
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten(v, f"{prefix}{i}."))
    elif isinstance(obj, (bool, np.bool_)):
        out[prefix[:-1]] = bool(obj)
    elif isinstance(obj, (int, np.integer)):
        out[prefix[:-1]] = int(obj)
    elif isinstance(obj, (float, np.floating)):
        out[prefix[:-1]] = float(obj)
    elif obj is None or isinstance(obj, str):
        out[prefix[:-1]] = obj
    else:
        out[prefix[:-1]] = str(obj)
    return out


def compare(values: dict, ref: dict) -> List[str]:
    """Reference comparison: numbers at REL_TOL, everything else exactly.
    Bit-level digests (``sha1`` keys) are skipped; they vary by platform."""
    probs = []
    for key, want in ref.items():
        if key.endswith("sha1"):
            continue
        if key not in values:
            probs.append(f"{key}: missing")
            continue
        got = values[key]
        if got == want:
            continue
        if isinstance(want, float) or (isinstance(want, int) and isinstance(got, float)
                                       and not isinstance(want, bool)):
            if not isinstance(got, (int, float)) or isinstance(got, bool):
                probs.append(f"{key}: {got!r} != {want!r}")
            elif not abs(got - want) <= REL_TOL * max(abs(got), abs(want)):
                probs.append(f"{key}: {got!r} != {want!r} (rel tol {REL_TOL})")
        elif got != want:
            probs.append(f"{key}: {got!r} != {want!r}")
    return probs


def cli_job(suites: List[str], name: Optional[str] = None):
    """One cli.run_suite call into a fresh artifact directory."""
    name = name or "cli_" + "_".join(suites)

    def run(ctx: Ctx):
        out_dir = ctx.scratch / f"{name}-{ctx.pass_index}"
        if out_dir.exists():
            shutil.rmtree(out_dir)
        cfg = {"suites": list(suites), "seed": CLI_BASE_SEED + ctx.seed - DEFAULT_SEED}
        rc = ctx.cli.run_suite(cfg, out_dir)
        return rc, out_dir

    def check(ctx: Ctx, out):
        rc, out_dir = out
        report = json.loads((out_dir / "report.json").read_text())
        checks = {
            f"{suite}/{c['name']}": bool(c["passed"])
            for suite in suites
            for c in report["suites"][suite]["checks"]
        }
        hashes = {
            str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()
        }
        shutil.rmtree(out_dir)
        probs = [] if rc == 0 else [f"exit code {rc}"]
        probs += [f"check failed: {check}" for check, ok in checks.items() if not ok]
        ref = (ctx.references or {}).get("cli", {}).get(name)
        if ref is not None:
            if checks != ref["checks"]:
                probs.append("check names or verdicts differ from the reference")
        # byte identity is recorded, not failed: against the reference
        # artifacts at the default seed, else against this run's first pass
        want = ref["artifacts"] if (ref is not None and ctx.seed == DEFAULT_SEED) else None
        if want is None:
            want = ctx.cli_artifacts.setdefault(name, hashes)
        ctx.artifact_counts[0] += sum(1 for k, h in hashes.items() if want.get(k) == h)
        ctx.artifact_counts[1] += max(len(hashes), len(want))
        values = {"rc": int(rc), "checks": checks, "artifacts": hashes}
        return values, probs

    return run, check


# === workload: mesh_sweep =====================================================


MESH_1D = 3 * 2 ** 17  # 393,216 cells, 22 levels per grid
MESH_2D = 768  # 768^2 = 589,824 cells, 13 levels per grid
CASE2_GAMMA = Fraction(1, 2)
SPARSE_ALPHA = 0.0  # order 0 stops often on the cascades; alpha > 0 leaves a handful of cubes


def mesh_inputs(seed: int) -> dict:
    arrays = {}
    for dim, n in ((1, MESH_1D), (2, MESH_2D)):
        rng = np.random.default_rng([seed, 1, dim])
        arrays[f"f{dim}"] = cascade(rng, dim, n, 0.35)
        arrays[f"mu{dim}"] = rng.uniform(0.2, 3.0, (n,) * dim)
        arrays[f"g{dim}"] = rng.uniform(0.2, 3.0, (n,) * dim)
    return arrays


def mesh_build(ctx: Ctx):
    dl, a = ctx.dl, ctx.arrays
    for dim in (1, 2):
        f, mu, g = sf(ctx, a[f"f{dim}"]), sf(ctx, a[f"mu{dim}"]), sf(ctx, a[f"g{dim}"])
        ctx.obj[f"f{dim}"] = f
        ctx.obj[f"mu{dim}"] = mu
        ctx.obj[f"pair{dim}"] = dl.WeightPair(mu, g, provenance="random")
        ctx.obj[f"one{dim}"] = dl.SampledFunction.constant(1.0, dim, (0,) * dim, 1, f.ncells)


def _alpha(dim: int) -> float:
    return float((E1 if dim == 1 else E2)[1])


def _dyadic(ctx: Ctx, dim: int, alpha: float):
    """The dyadic maximal function the checks compare against; every pass
    sees the same inputs, so it is computed once per run."""
    key = f"dyadic{dim}_{alpha}"
    if key not in ctx.memo:
        ctx.memo[key] = ctx.dl.dyadic_frac_maximal(ctx.obj[f"f{dim}"], alpha)
    return ctx.memo[key]


def mesh_jobs(ctx: Ctx) -> List[Job]:
    dl = ctx.dl
    jobs = []
    for dim in (1, 2):
        a = _alpha(dim)
        f = ctx.obj[f"f{dim}"]
        lo, hi = dl.operators.default_levels(f, None, None)
        ncells, levels, all_grids = f.ncells ** dim, hi - lo + 1, 2 ** dim

        def c_frac(ctx, out, dim=dim):
            dy = _dyadic(ctx, dim, _alpha(dim))
            ok = bool(np.all(out.values >= dy.values))
            return summarize(out), [] if ok else ["frac_maximal below dyadic_frac_maximal"]

        def c_riesz(ctx, out, dim=dim):
            dy = _dyadic(ctx, dim, _alpha(dim))
            ok = bool(np.all(out.values >= dy.values * (1 - 1e-12)))
            return summarize(out), [] if ok else ["dyadic_riesz below dyadic_frac_maximal"]

        def c_plain(ctx, out):
            v = out.values
            ok = bool(np.all(np.isfinite(v)) and np.all(v >= 0) and v.max() > 0)
            return summarize(out), [] if ok else ["non-finite, negative or zero output"]

        def c_geo(ctx, out, dim=dim):
            f = ctx.obj[f"f{dim}"]
            probs = []
            for p in (1.5, 2.0, 3.0):
                lhs, rhs = dl.lp_norm(out, p), dl.lp_norm(f, p)
                if not lhs <= math.e * rhs * (1 + 1e-12):
                    probs.append(f"geometric maximal bound e fails at p={p}: {lhs / rhs}")
            return summarize(out), probs

        jobs += [
            Job(f"frac_maximal_{dim}d", lambda ctx, dim=dim, a=a: dl.frac_maximal(ctx.obj[f"f{dim}"], a),
                c_frac, cell_updates=ncells * levels * all_grids),
            Job(f"dyadic_riesz_{dim}d", lambda ctx, dim=dim, a=a: dl.dyadic_riesz(ctx.obj[f"f{dim}"], a),
                c_riesz, cell_updates=ncells * levels),
            Job(f"weighted_dyadic_maximal_{dim}d",
                lambda ctx, dim=dim, a=a: dl.weighted_dyadic_maximal(ctx.obj[f"f{dim}"], ctx.obj[f"mu{dim}"], beta=a),
                c_plain, cell_updates=ncells * levels),
            Job(f"geometric_maximal_{dim}d", lambda ctx, dim=dim: dl.geometric_maximal(ctx.obj[f"f{dim}"]),
                c_geo, cell_updates=ncells * levels),
            Job(f"orlicz_maximal_power_{dim}d",
                lambda ctx, dim=dim: dl.orlicz_maximal(ctx.obj[f"f{dim}"], ctx.young["power2"]),
                c_plain, cell_updates=ncells * levels),
            Job(f"sparse_{dim}d", lambda ctx, dim=dim: run_sparse(ctx, dim, SPARSE_ALPHA), check_sparse),
        ]
    jobs += [
        Job("constants_2d", lambda ctx: run_vector_constants(ctx, 2, ctx.exps(2)), check_vector_constants),
        Job("factored_pair_2d", lambda ctx: dl.factored_pair(ctx.obj["mu2"], ctx.obj["pair2"].sigma, ctx.exps(2)),
            check_factored),
        Job("case2_divergence",
            lambda ctx: dl.case2_divergence(dl.ExponentTuple(1, CASE2_GAMMA, 2, 2), max_exp=16),
            check_case2),
        Job("verify_E_maximal", lambda ctx: dl.verify_E_maximal(CASE2_GAMMA, 256), check_verify_e),
    ]
    run, check = cli_job(["geometry", "operators", "sparse", "constants", "counterexample"])
    jobs.append(Job("cli_geometry_operators_sparse_constants_counterexample", run, check))
    return jobs


def run_sparse(ctx: Ctx, dim: int, a: float):
    dl = ctx.dl
    f = ctx.obj[f"f{dim}"]
    fam = dl.build_sparse(f, a)
    sparse_sum = dl.sparse_operator(fam)
    # Carleson sequence c_Q = |E_Q ∩ window| over the stopping cubes: the
    # sets are disjoint and inside Q, so its constant against Lebesgue
    # measure is at most 1.
    cellvol = float(f.cell_volume)
    by_level: Dict[int, list] = {}
    for sc in fam.cubes:
        by_level.setdefault(sc.cube.level, []).append((sc.cube.index, sc.e_cells * cellvol))

    def coeffs(scan, level):
        arr = np.zeros(scan.shape)
        for index, c in by_level.get(level, ()):
            arr[tuple(index[ax] - scan.m_lo[ax] for ax in range(dim))] = c
        return arr

    seq = dl.CarlesonSequence.from_function(f, fam.grid, coeffs)
    cert = dl.certify_carleson(seq, ctx.obj[f"one{dim}"])
    return fam, sparse_sum, cert


def check_sparse(ctx: Ctx, out):
    fam, sparse_sum, cert = out
    dim = fam.source.dim
    dy = _dyadic(ctx, dim, fam.alpha)
    thick = fam.thickness()
    probs = []
    if len(fam) == 0:
        probs.append("empty sparse family")
    if not thick >= 0.5:
        probs.append(f"thickness {thick} < 1/2")
    lhs, rhs = dy.values, sparse_sum.values
    if not np.all(lhs <= fam.ratio * rhs * (1 + 1e-9)):
        probs.append("dyadic maximal not dominated by C_a times the sparse operator")
    if not cert["constant"] <= 1.0 + 1e-12:
        probs.append(f"Carleson constant {cert['constant']} > 1")
    values = {"cubes": len(fam), "thickness": thick, "carleson": float(cert["constant"]),
              "sparse": summarize(sparse_sum)}
    return flatten(values), probs


def run_vector_constants(ctx: Ctx, dim: int, e):
    dl = ctx.dl
    pair, mu = ctx.obj[f"pair{dim}"], ctx.obj[f"mu{dim}"]
    return {
        "apq_alpha": dl.apq_alpha_constant(pair, e),
        "ap": dl.ap_constant(mu, 2),
        "ainfty_exp": dl.ainfty_exp(mu),
        "mixed_apq_exp": dl.mixed_one_sup(pair, e, flavor="apq_exp"),
    }


def check_vector_constants(ctx: Ctx, out):
    floors = {"ap": 1.0, "ainfty_exp": 1.0}
    probs = []
    for name, rep in out.items():
        probs += report_problems(rep, floors.get(name))
    return flatten({k: report_values(r) for k, r in out.items()}), probs


def check_factored(ctx: Ctx, pair):
    rep = ctx.dl.apq_alpha_constant(pair, ctx.exps(2))
    probs = report_problems(rep)
    # exact on the mesh up to roundoff; 1e-9 is the operator/constant tolerance
    if not rep.value <= 1.0 + 1e-9:
        probs.append(f"factored joint constant {rep.value} > 1")
    values = {"u": summarize(pair.u), "sigma": summarize(pair.sigma), "joint": rep.value}
    return flatten(values), probs


def check_case2(ctx: Ctx, rep):
    probs = []
    if not rep["identity"]["holds"]:
        probs.append("exponent identity fails")
    if not (rep["minorant"]["integral_ge_pointwise"] and rep["minorant"]["pointwise_ge_harmonic"]):
        probs.append("termwise minorant fails")
    if not rep["dominates"]:
        probs.append("S does not dominate H")
    if not rep["mesh_check"]["one_sided"]:
        probs.append("mesh check not one-sided")
    return flatten({"rows": rep["rows"], "mesh_check": rep["mesh_check"]}), probs


def check_verify_e(ctx: Ctx, rep):
    probs = [] if rep["holds"] else ["interval-train maximal function not pinched"]
    keep = {k: rep[k] for k in ("unit_floor", "small_cube_max", "large_cube_max", "overall")}
    return flatten(keep), probs


# === workload: cube_testing ===================================================


CUBE_MESHES = ((1, 24, "N"), (1, 48, "2N"), (2, 6, "N"), (2, 12, "2N"))
CUBE_LEVELS = {"min_level": 0}  # cubes inside the unit window


def cube_inputs(seed: int) -> dict:
    arrays = {}
    for dim, n, _ in CUBE_MESHES:
        rng = np.random.default_rng([seed, 2, dim, n])
        arrays[f"w{dim}_{n}"] = cascade(rng, dim, n, 0.25)
        arrays[f"u{dim}_{n}"] = rng.uniform(0.2, 3.0, (n,) * dim)
        arrays[f"s{dim}_{n}"] = rng.uniform(0.2, 3.0, (n,) * dim)
    return arrays


def cube_build(ctx: Ctx):
    dl, a = ctx.dl, ctx.arrays
    for dim, n, _ in CUBE_MESHES:
        ctx.obj[f"classical{dim}_{n}"] = dl.classical_pair(sf(ctx, a[f"w{dim}_{n}"]), ctx.exps(dim))
        ctx.obj[f"random{dim}_{n}"] = dl.WeightPair(
            sf(ctx, a[f"u{dim}_{n}"]), sf(ctx, a[f"s{dim}_{n}"]), provenance="random")


def cube_jobs(ctx: Ctx) -> List[Job]:
    dl = ctx.dl
    lv = CUBE_LEVELS
    jobs = []

    def const_job(name, call, floor=None, size=None):
        def check(ctx, rep):
            return report_values(rep), report_problems(rep, floor)
        return Job(name, call, check, size=size)

    for dim, n, n_tag in CUBE_MESHES:
        e = ctx.exps(dim)
        size = f"{dim}d:{n_tag}"
        for kind in ("classical", "random"):
            key = f"{kind}{dim}_{n}"
            tag = f"{kind}_{dim}d_{n}"
            jobs += [
                const_job(f"ainfty_m_{tag}", lambda ctx, key=key: dl.ainfty_m(ctx.obj[key].u, **lv), 1.0, size),
                const_job(f"sawyer_forward_{tag}",
                          lambda ctx, key=key, e=e: dl.sawyer_maximal_testing(ctx.obj[key], e, **lv), None, size),
                const_job(f"sawyer_dual_{tag}",
                          lambda ctx, key=key, e=e: dl.sawyer_maximal_testing(ctx.obj[key], e, which="dual", **lv),
                          None, size),
                const_job(f"md_sp_testing_{tag}",
                          lambda ctx, key=key, e=e: dl.md_sp_testing(ctx.obj[key], e, **lv), None, size),
                const_job(f"mixed_ap_m_{tag}",
                          lambda ctx, key=key, e=e: dl.mixed_one_sup(ctx.obj[key], e, flavor="ap_m", **lv), 1.0, size),
                const_job(f"outer_testing_{tag}",
                          lambda ctx, key=key, e=e: dl.outer_testing_constant(ctx.obj[key], e, **lv), None, size),
                Job(f"potential_testing_chain_{tag}",
                    lambda ctx, key=key, e=e: dl.potential_testing_chain(ctx.obj[key], e, **lv),
                    check_testing_chain, size=size),
            ]
        if dim == 1:
            jobs.append(Job(
                f"equivalence_report_classical_{dim}d_{n}",
                lambda ctx, key=f"classical{dim}_{n}", e=e: dl.equivalence_report(
                    ctx.obj[key], e, family=dl.TestFamily(random_steps=2, seed=ctx.seed), **lv),
                check_equivalence, size=size))
    return jobs


def check_testing_chain(ctx: Ctx, rep):
    probs = []
    if rep["cubes"] <= 0:
        probs.append("testing chain is vacuous (0 cubes)")
    if not rep["holds"]:
        probs.append(f"testing chain fails: max ratio {rep['max_ratio']}")
    return flatten(rep), probs


def check_equivalence(ctx: Ctx, rep):
    probs = []
    if rep["degenerate"]:
        probs.append("degenerate equivalence report")
    for name, est in rep["estimates"].items():
        if est["family_size"] <= 0 or not est["value"] > 0:
            probs.append(f"vacuous estimate {name}")
    if rep["testing_chain"]["cubes"] <= 0 or not rep["testing_chain"]["holds"]:
        probs.append("testing chain vacuous or failing")
    if not rep["duality_chain"]["holds"]:
        probs.append("duality chain fails")
    r = rep["ratios"]["dyadic_maximal_vs_strong"]
    if r is None or not r <= 1 + 1e-9:
        probs.append(f"dyadic maximal above strong Riesz estimate: {r}")
    keep = {k: rep[k] for k in ("estimates", "ratios", "testing_chain", "duality_chain")}
    return flatten(keep), probs


# === workload: orlicz_solve ===================================================


ORLICZ_MESHES = ((1, 96), (2, 12))
BUMP_DELTA = 0.5
HOLDER_TRIALS = 8
RESCALE_TRIALS = 10
CONJ_PROBE = np.geomspace(0.05, 40.0, 120)  # the probe of dyadlab run's orlicz suite


def orlicz_inputs(seed: int) -> dict:
    arrays = {}
    for dim, n in ORLICZ_MESHES:
        rng = np.random.default_rng([seed, 3, dim])
        arrays[f"f{dim}"] = cascade(rng, dim, n, 0.3)
        arrays[f"u{dim}"] = rng.uniform(0.2, 3.0, (n,) * dim)
        arrays[f"s{dim}"] = rng.uniform(0.2, 3.0, (n,) * dim)
    rng = np.random.default_rng([seed, 3, 0])
    arrays["rescale"] = rng.uniform(0.05, 3.0, (RESCALE_TRIALS, 48))
    arrays["holder"] = rng.uniform(0.0, 2.0, (HOLDER_TRIALS, 2, 48))
    return arrays


def orlicz_build(ctx: Ctx):
    dl, a = ctx.dl, ctx.arrays
    for dim, _ in ORLICZ_MESHES:
        ctx.obj[f"f{dim}"] = sf(ctx, a[f"f{dim}"])
        ctx.obj[f"pair{dim}"] = dl.WeightPair(sf(ctx, a[f"u{dim}"]), sf(ctx, a[f"s{dim}"]), provenance="random")


def orlicz_young(dl) -> dict:
    """Young functions handed to the orlicz_solve jobs (proxied when traced)."""
    out = {
        "log_bump": dl.log_bump(2.0, BUMP_DELTA),
        "power_log": dl.power_log(1.5, 0.6),
        "assoc": dl.log_bump(2.0, BUMP_DELTA).comparable_associate(),
        "borderline": dl.borderline(2.0, 4.0, BUMP_DELTA),
    }
    for dim in (1, 2):
        e = dl.ExponentTuple(*(E1 if dim == 1 else E2))
        out[f"phi{dim}"] = dl.log_bump(float(e.pprime), BUMP_DELTA)
        out[f"psi{dim}"] = dl.log_bump(float(e.q), BUMP_DELTA)
    return out


# bp_classify cases against p = 2, with the verdict the exact decay rate gives
BP_CASES = (
    ("power(1.5)", lambda dl: dl.power(1.5), "convergent"),
    ("power(2.5)", lambda dl: dl.power(2.5), "divergent"),
    ("log_bump(2,0.5)", lambda dl: dl.log_bump(2.0, BUMP_DELTA), "divergent"),
    ("borderline(2,4,1.5)", lambda dl: dl.borderline(2.0, 4.0, 1.5), "convergent"),
)


def orlicz_jobs(ctx: Ctx) -> List[Job]:
    dl = ctx.dl
    jobs = [
        Job("double_conjugate", lambda ctx: ctx.young["log_bump"].associate().associate().eval(CONJ_PROBE),
            check_involution),
        Job("rescale_identity", lambda ctx: [
            dl.rescale_identity_check(ctx.young["power_log"], 2.0, v, 1.0 / 48, 1.0)
            for v in ctx.arrays["rescale"]], check_rescale),
    ]
    # one job per Holder trial, so that the speed probes around every job
    # (run.py) sample the host's speed often during the longest part of a pass
    jobs += [
        Job(f"holder_{i}", lambda ctx, i=i: dl.orlicz_holder_check(
            ctx.young["log_bump"], *ctx.arrays["holder"][i], 1.0 / 48, 1.0),
            lambda ctx, out, i=i: check_holder(ctx, out, i))
        for i in range(HOLDER_TRIALS)
    ]
    jobs.append(Job("bp_classify", run_bp, check_bp))
    for dim, _ in ORLICZ_MESHES:
        e = ctx.exps(dim)

        def c_max(ctx, out, dim=dim):
            plain = dl.orlicz_maximal(ctx.obj[f"f{dim}"], dl.power(2.0))
            ok = bool(np.all(out.values >= plain.values * (1 - 1e-9)))
            return summarize(out), [] if ok else ["log-bump maximal below the L^2 maximal"]

        jobs += [
            Job(f"orlicz_maximal_log_bump_{dim}d",
                lambda ctx, dim=dim: dl.orlicz_maximal(ctx.obj[f"f{dim}"], ctx.young["log_bump"]), c_max),
            Job(f"apq_bump_second_{dim}d",
                lambda ctx, dim=dim, e=e: dl.apq_bump(ctx.obj[f"pair{dim}"], e, ctx.young[f"phi{dim}"]),
                check_bump),
            Job(f"apq_bump_both_{dim}d",
                lambda ctx, dim=dim, e=e: dl.apq_bump(ctx.obj[f"pair{dim}"], e, ctx.young[f"phi{dim}"],
                                                      side="both", psi=ctx.young[f"psi{dim}"]),
                check_bump),
        ]
    jobs.append(Job("orlicz_norm_quadrature", run_quadrature, check_quadrature))
    return jobs


def check_involution(ctx: Ctx, twice):
    phi = ctx.dl.log_bump(2.0, BUMP_DELTA).eval(CONJ_PROBE)
    rel = float(np.max(np.abs(twice - phi) / phi))
    values = {"worst_rel": rel, "sum": float(np.sum(twice)), "at0": float(twice[0]), "at119": float(twice[-1])}
    return values, [] if rel <= 1e-6 else [f"double conjugation off by {rel} > 1e-6"]


def check_rescale(ctx: Ctx, outs):
    probs = []
    for i, out in enumerate(outs):
        rel = abs(out["scaled_norm"] - out["power_norm"]) / out["power_norm"]
        if not rel <= 1e-8:
            probs.append(f"rescaling identity trial {i}: rel {rel} > 1e-8")
    return flatten(outs), probs


def check_holder(ctx: Ctx, out, i: int):
    """The factor-two Holder bound, and Luxemburg feasibility at the
    returned norm of f."""
    phi = ctx.dl.log_bump(2.0, BUMP_DELTA)
    f = ctx.arrays["holder"][i][0]
    probs = []
    if not out["mean_fg"] <= out["bound"] * (1 + 1e-12):
        probs.append(f"Holder trial {i}: {out['mean_fg']} > {out['bound']}")
    lam = out["norm_f"]
    if lam > 0 and not float(np.sum(phi.eval(f / lam))) / len(f) <= 1.0 + 1e-9:
        probs.append(f"Holder trial {i}: Luxemburg norm {lam} infeasible")
    return out, probs


def run_bp(ctx: Ctx):
    with np.errstate(over="ignore"):  # divergent tails overflow, as in the orlicz suite
        return [ctx.dl.bp_classify(make(ctx.dl), 2.0) for _, make, _ in BP_CASES]


def check_bp(ctx: Ctx, reps):
    probs = [
        f"{label}: verdict {rep.verdict}, expected {want}"
        for (label, _, want), rep in zip(BP_CASES, reps) if rep.verdict != want
    ]
    values = {label: {"verdict": rep.verdict, "rho": rep.rho, "base": rep.base_integral}
              for (label, _, _), rep in zip(BP_CASES, reps)}
    return flatten(values), probs


def check_bump(ctx: Ctx, rep):
    """Luxemburg feasibility and minimality at the returned lambda on the
    argmax cube, for the sigma-side average."""
    dl = ctx.dl
    probs = report_problems(rep)
    if rep.argmax is None:
        return report_values(rep), probs + ["no argmax cube"]
    dim = rep.argmax.dim
    e = ctx.exps(dim)
    sigma = ctx.obj[f"pair{dim}"].sigma
    phi = dl.log_bump(float(e.pprime), BUMP_DELTA)
    box = dl.realize(rep.argmax)
    vol = float(box.volume())
    block = sigma.values[sigma.cell_slices(box, require_aligned=True)] ** (1.0 / float(e.pprime))
    cellvol = float(sigma.cell_volume)
    lam = dl.luxemburg(block.ravel(), cellvol, vol, phi)

    def mean_at(x):
        return float(np.sum(phi.eval(block / x)) * cellvol / vol)

    if not mean_at(lam) <= 1.0 + 1e-9:
        probs.append(f"Luxemburg lambda {lam} infeasible: mean {mean_at(lam)}")
    if not mean_at(lam * (1 - 1e-9)) > 1.0:
        probs.append(f"Luxemburg lambda {lam} not minimal")
    values = report_values(rep)
    values["lambda_at_argmax"] = lam
    return values, probs


def run_quadrature(ctx: Ctx):
    dl = ctx.dl
    return {
        "assoc": dl.orlicz_norm_quadrature(ctx.young["assoc"], 2, 4),
        "borderline": dl.orlicz_norm_quadrature(ctx.young["borderline"], 2, 4),
    }


def check_quadrature(ctx: Ctx, out):
    probs = []
    values = {}
    for name, (value, rep) in out.items():
        if not (math.isfinite(value) and value > 0):
            probs.append(f"{name}: quadrature bound {value}")
        if rep.verdict != ctx.dl.CONVERGENT:
            probs.append(f"{name}: verdict {rep.verdict}")
        values[name] = {"value": value, "verdict": rep.verdict, "rho": rep.rho,
                        "constant": rep.constant_estimate}
    return flatten(values), probs


# === registry =================================================================


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json says why each one is there."""

    name: str
    inputs: Callable[[int], dict]
    build: Callable[[Ctx], None]
    jobs: Callable[[Ctx], List[Job]]
    probe_meshes: Tuple[str, ...]  # array keys of the largest 1-D and 2-D meshes
    young: Callable[[Any], dict] = lambda dl: {"power2": dl.power(2.0)}


WORKLOADS = {
    "mesh_sweep": Workload("mesh_sweep", mesh_inputs, mesh_build, mesh_jobs, ("f1", "f2")),
    "cube_testing": Workload("cube_testing", cube_inputs, cube_build, cube_jobs, ("w1_48", "w2_12")),
    "orlicz_solve": Workload("orlicz_solve", orlicz_inputs, orlicz_build, orlicz_jobs, ("f1", "f2"),
                             orlicz_young),
}

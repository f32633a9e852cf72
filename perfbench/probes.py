"""Layer probes of the traced run.

After the traced pass, the same tracer records a fixed set of small calls,
one group per layer, on the workload's probe meshes (its largest 1-D and
2-D meshes).  They give the micro-metrics a pass cannot isolate (scan
geometry, exact box arithmetic, one Luxemburg norm of a numeric
conjugate), and they make every layer do measured work on every
workload, so no per-layer metric is a constant zero.  A probe's own
timings include the tracing wrappers around its calls.

``dyadlab_run_job`` is the one untraced probe: a default ``dyadlab run`` of all
seven suites with a timer around each suite, for ``cli.suite_s.<suite>``.
"""
from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

from perfbench import jobs as J
from perfbench.tracer import counting

REPEATS = 3
GEOMETRY_CALLS = 2000
SUITES = ("geometry", "operators", "sparse", "orlicz", "constants", "equivalence", "counterexample")


def _median_time(fn):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _timings(ctx, out):
    return dict(out), []


def probe_jobs(workload, ctx: J.Ctx) -> List[J.Job]:
    """Probe jobs for the workload; build them before instrumenting."""
    dl = ctx.dl
    meshes = [J.sf(ctx, ctx.arrays[key]) for key in workload.probe_meshes]
    by_dim = {f.dim: f for f in meshes}
    updates = 0
    for f in meshes:
        lo, hi = dl.operators.default_levels(f, None, None)
        updates += f.ncells ** f.dim * (hi - lo + 1) * 2 ** f.dim
    return [
        J.Job("probe_scan", lambda ctx: scan_probe(ctx, meshes), _timings),
        J.Job("probe_geometry", lambda ctx: geometry_probe(ctx, by_dim[2]), _timings),
        J.Job("probe_luxemburg", luxemburg_probe, check_luxemburg),
        J.Job("probe_operators", lambda ctx: [dl.frac_maximal(f, 0) for f in meshes],
              lambda ctx, out: ({"sum": sum(float(m.values.sum()) for m in out)}, []),
              cell_updates=updates),
        J.Job("probe_sparse", lambda ctx: sparse_probe(ctx, by_dim[1]),
              lambda ctx, out: ({"cubes": len(out)}, [] if len(out) else ["empty sparse family"])),
        J.Job("probe_normest", lambda ctx: dl.estimate_norm(
            "frac_maximal", dl.unit_pair(by_dim[2]), ctx.exps(2),
            family=dl.TestFamily(indicators=False, random_steps=1, duality=False, seed=ctx.seed)),
            lambda ctx, est: ({"value": est.value, "family_size": est.family_size},
                              [] if est.family_size > 0 else ["empty test family"])),
        J.Job("probe_pairs", lambda ctx: [dl.classical_pair(f, ctx.exps(f.dim)) for f in meshes],
              lambda ctx, out: ({"pairs": len(out)}, [])),
    ]


def scan_probe(ctx: J.Ctx, meshes) -> dict:
    """level_scan, cube_cell_sums and map_to_cells over all levels of the
    zero-shift grid, summed over the probe meshes (medians of REPEATS)."""
    dl = ctx.dl
    out = {"level_scan_s": 0.0, "cube_cell_sums_s": 0.0, "map_to_cells_s": 0.0}
    for f in meshes:
        lo, hi = dl.operators.default_levels(f, None, None)
        grid = dl.GridFamily(f.dim, (0,) * f.dim, lo, hi, f.window)
        t, scans = _median_time(lambda: [dl.scan.level_scan(f, grid, k) for k in grid.levels])
        out["level_scan_s"] += t
        pre = f.prefix
        t, sums = _median_time(lambda: [dl.scan.cube_cell_sums(s, pre) for s in scans])
        out["cube_cell_sums_s"] += t
        t, _ = _median_time(lambda: [dl.scan.map_to_cells(s, c) for s, c in zip(scans, sums)])
        out["map_to_cells_s"] += t
    return out


def geometry_probe(ctx: J.Ctx, f) -> dict:
    """Exact box arithmetic: realize and integrate_box per call, over the
    zero-shift cubes inside the window of the 2-D probe mesh."""
    grid = ctx.dl.GridFamily(f.dim, (0,) * f.dim, 0, f.max_aligned_level, f.window)
    cubes = list(grid)
    cubes = (cubes * (GEOMETRY_CALLS // len(cubes) + 1))[:GEOMETRY_CALLS]
    t_realize, boxes = _median_time(lambda: [ctx.dl.realize(c) for c in cubes])
    f.prefix
    t_integrate, _ = _median_time(lambda: [f.integrate_box(b) for b in boxes])
    return {"realize_us": t_realize / len(cubes) * 1e6,
            "integrate_box_us": t_integrate / len(cubes) * 1e6}


def luxemburg_probe(ctx: J.Ctx) -> dict:
    """One Luxemburg norm of a numeric conjugate on 48 values, with counting
    proxies on the conjugate and on its base Young function."""
    dl = ctx.dl
    base = counting(dl.log_bump(2.0, J.BUMP_DELTA))
    conj = counting(dl.NumericConjugate(base))
    v = np.random.default_rng([ctx.seed, 9]).uniform(0.05, 2.0, 48)
    lam = dl.luxemburg(v, 1.0 / 48, 1.0, conj)
    lux_evals, base_evals = type(conj).evals, type(base).evals
    t, lam_again = _median_time(lambda: dl.luxemburg(v, 1.0 / 48, 1.0, conj))
    return {"luxemburg_ms": t * 1e3, "lux_evals_per_norm": float(lux_evals),
            "base_evals_per_conjugate_eval": base_evals / lux_evals,
            "lambda": lam, "lambda_again": lam_again, "values": v}


def check_luxemburg(ctx: J.Ctx, out):
    probs = []
    lam = out.pop("lambda")
    v = out.pop("values")
    if out.pop("lambda_again") != lam:
        probs.append("Luxemburg norm of the conjugate is not reproducible")
    plain = ctx.dl.log_bump(2.0, J.BUMP_DELTA).associate()
    mean = float(np.sum(plain.eval(v / lam))) / len(v)
    if not mean <= 1.0 + 1e-9:
        probs.append(f"Luxemburg lambda {lam} infeasible: mean {mean}")
    return out, probs


def sparse_probe(ctx: J.Ctx, f):
    fam = ctx.dl.build_sparse(f, 0)
    ctx.dl.sparse_operator(fam)
    return fam


def dyadlab_run_job() -> J.Job:
    """Untraced default ``dyadlab run`` (all seven suites) with one timer
    per suite; checked like the workloads' cli jobs."""
    run_cli, check_cli = J.cli_job(list(SUITES), name="dyadlab_run")

    def run(ctx: J.Ctx):
        cli = ctx.cli
        times = {}
        originals = dict(cli._SUITE_FN)

        def timed(suite, fn):
            def suite_run(cfg):
                t0 = time.perf_counter()
                try:
                    return fn(cfg)
                finally:
                    times[suite] = time.perf_counter() - t0
            return suite_run

        cli._SUITE_FN.update({suite: timed(suite, fn) for suite, fn in originals.items()})
        try:
            return run_cli(ctx), times
        finally:
            cli._SUITE_FN.update(originals)

    def check(ctx: J.Ctx, out):
        result, times = out
        values, probs = check_cli(ctx, result)
        values["suite_s"] = times
        return values, probs

    return J.Job("dyadlab_run", run, check)

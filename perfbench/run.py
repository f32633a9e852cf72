"""dyadlab benchmark: time to verdict on three workloads, plus a traced run.

    python3 perfbench/run.py --workload mesh_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; dyadlab is imported from ./src.  One client,
closed loop: a fresh process per workload, one thread (BLAS and OpenMP
pools pinned to 1), passes back to back.

  * rounds until about --seconds have elapsed (at least one): each round
    sets up (imports dyadlab afresh, generates the seeded inputs, loads
    the reference values), runs a cold pass, then a warm pass.  A pass
    runs the workload's fixed job list; every job's output is checked
    outside the timed region.  setup_s, cold_pass_s and pass_s are
    medians over the rounds of scaled times (see PROBE_REF_S), which
    move far less than raw times with the load other work puts on a
    shared host; the raw medians go to the summary line and the record;
  * with --trace 1, one more pass runs with spans around every dyadlab
    call and counting proxies for the Young functions, followed by the
    layer probes (perfbench/probes.py) and one default ``dyadlab run``
    with a timer per suite.  None of it enters the untraced metrics.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The line before it is a readable
summary; the full record (machine, code state, every pass, spans) goes to
perfbench/results/.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCES = HERE / "references.json"

sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from perfbench import jobs as J  # noqa: E402
from perfbench import probes as P  # noqa: E402
from perfbench.tracer import LAYERS, Tracer, counting, instrument, restore  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("cold_pass_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)


PER_LAYER = (
    ("scan.busy_s", "s"),
    ("scan.level_scan_s", "s"),
    ("scan.map_to_cells_s", "s"),
    ("scan.cube_cell_sums_s", "s"),
    ("operators.busy_s", "s"),
    ("operators.calls", "count"),
    ("operators.cell_updates", "count"),
    ("operators.ns_per_cell_update", "ns"),
    ("sparse.busy_s", "s"),
    ("sparse.stopping_cubes", "count"),
    ("constants.busy_s", "s"),
    ("constants.cubes_scored", "count"),
    ("constants.cubes_skipped", "count"),
    ("constants.us_per_cube", "us"),
    ("constants.growth", "exponent"),
    ("normest.busy_s", "s"),
    ("normest.test_functions", "count"),
    ("normest.ms_per_test_function", "ms"),
    ("normest.growth", "exponent"),
    ("grid.busy_s", "s"),
    ("grid.realize_us", "us"),
    ("sampled.busy_s", "s"),
    ("sampled.integrate_box_us", "us"),
    ("sampled.construct_s", "s"),
    ("orlicz.busy_s", "s"),
    ("orlicz.luxemburg_ms", "ms"),
    ("orlicz.lux_evals_per_norm", "count"),
    ("orlicz.base_evals_per_conjugate_eval", "count"),
    ("pairs.busy_s", "s"),
) + tuple((f"cli.suite_s.{s}", "s") for s in P.SUITES) + (
    ("cli.artifacts_identical", "fraction"),
    ("trace.overhead_frac", "fraction"),
)


# === set-up ===================================================================


def import_dyadlab():
    """Import dyadlab afresh from ./src (any earlier import is dropped)."""
    for name in [m for m in sys.modules if m == "dyadlab" or m.startswith("dyadlab.")]:
        del sys.modules[name]
    dl = importlib.import_module("dyadlab")
    cli = importlib.import_module("dyadlab.cli")
    where = Path(dl.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"dyadlab imported from {where}, not from {SRC}")
    return dl, cli


def load_references():
    if not REFERENCES.exists():
        return None
    return json.loads(REFERENCES.read_text())


def setup(workload, seed: int):
    dl, cli = import_dyadlab()
    arrays = workload.inputs(seed)
    refs = load_references()
    return dl, cli, arrays, refs


def make_ctx(workload, seed, scratch: Path, references="file") -> J.Ctx:
    """A context whose per-round state is filled in by ``load_round``."""
    scratch.mkdir(parents=True, exist_ok=True)
    return J.Ctx(dl=None, cli=None, seed=seed, arrays={}, scratch=scratch,
                 references=None if references == "file" else references)


def load_round(ctx: J.Ctx, workload, state, references="file"):
    ctx.dl, ctx.cli, ctx.arrays, refs = state
    if references == "file":
        ctx.references = refs
    ctx.young = workload.young(ctx.dl)


# === passes ===================================================================


# On a host shared with other work a core can run everything about 1.5x
# slower, in spells from under a second to minutes (seen on a 2-vCPU VM),
# so raw times depend on when a run happens.  Every timed step
# therefore runs between two speed probes, and a pass's scaled time is its
# raw time times PROBE_REF_S over the median probe time of the pass:
# seconds on a core where the probe takes PROBE_REF_S.  The probe calls
# nothing in dyadlab, so a change to dyadlab moves scaled and raw times
# alike.
PROBE_REF_S = 1e-3
_PROBE_SMALL = np.linspace(0.5, 1.5, 512)
_PROBE_LARGE = np.linspace(0.5, 1.5, 1 << 17)


def speed_probe() -> float:
    """Seconds for a fixed slice of interpreter, small-array and
    large-array work (about 1 ms)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += (i * 0.37) % 1.3
    for _ in range(40):
        acc += float(np.sum(np.exp(_PROBE_SMALL)))
    acc += float(np.cumsum(_PROBE_LARGE)[-1])
    return time.perf_counter() - t0


def scaled(seconds: float, probes) -> float:
    """Seconds on a core where speed_probe() takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / statistics.median(probes)


class PassResult:
    def __init__(self):
        self.seconds = 0.0
        self.probes = []  # speed_probe() times around every step
        self.job_seconds = {}
        self.values = {}  # job -> flat values
        self.problems = {}  # job -> problems
        self.jobs = []

    @property
    def scaled_seconds(self) -> float:
        return scaled(self.seconds, self.probes) if self.probes else self.seconds

    @property
    def attempted(self) -> int:
        return len(self.job_seconds)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def _timed(tracer, name, fn, *args):
    """(output, seconds, speed probes before and after) of one step."""
    before = speed_probe()
    if tracer is None:
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
    else:
        with tracer.job(name):
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
    return out, dt, (before, speed_probe())


def run_pass(workload, ctx: J.Ctx, tracer=None) -> PassResult:
    res = PassResult()
    ctx.obj.clear()
    def build(ctx):
        workload.build(ctx)
        return workload.jobs(ctx)

    try:
        job_list, dt, probes = _timed(tracer, "build_inputs", build, ctx)
    except Exception:  # the pass cannot run; report it as one failed job
        res.job_seconds["build_inputs"] = 0.0
        res.problems["build_inputs"] = [traceback.format_exc(limit=3)]
        return res
    res.job_seconds["build_inputs"] = dt
    res.probes += probes
    res.problems["build_inputs"] = []
    refs = ((ctx.references or {}).get(workload.name) or {}) if ctx.seed == J.DEFAULT_SEED else {}
    run_jobs(ctx, job_list, res, tracer, refs)
    ctx.obj.clear()
    return res


def run_jobs(ctx: J.Ctx, job_list, res: PassResult, tracer=None, refs=None):
    """Run jobs back to back; each is timed, then checked untimed."""
    res.jobs += job_list
    for job in job_list:
        try:
            out, dt, probes = _timed(tracer, job.name, job.run, ctx)
        except Exception:
            res.job_seconds[job.name] = 0.0
            res.problems[job.name] = [traceback.format_exc(limit=3)]
            continue
        res.job_seconds[job.name] = dt
        res.probes += probes
        try:
            values, probs = job.check(ctx, out)
            values = J.flatten(values)
        except Exception:
            values, probs = {}, [traceback.format_exc(limit=3)]
        del out
        if refs and job.name in refs:
            probs = probs + J.compare(values, refs[job.name])
        res.values[job.name] = values
        res.problems[job.name] = probs
    res.seconds = sum(res.job_seconds.values())


def _deterministic_keys(values: dict) -> dict:
    return {k: v for k, v in values.items() if not k.startswith("artifacts.")}


def compare_passes(base: PassResult, other: PassResult, label: str):
    """Mark jobs whose outputs are not bit-identical to the base pass."""
    for job, values in other.values.items():
        if job in base.values and _deterministic_keys(values) != _deterministic_keys(base.values[job]):
            other.problems[job] = other.problems[job] + [f"output differs from the first cold pass ({label})"]


# === one benchmark run ========================================================


def measure(name: str, seed: int, seconds: float, trace: bool, references="file") -> dict:
    workload = J.WORKLOADS[name]
    ctx = make_ctx(workload, seed, RESULTS / f"tmp-{name}-{os.getpid()}", references)
    setups, setups_scaled, colds, warms = [], [], [], []
    extra = []  # traced pass, probes and the dyadlab run probe
    try:
        for _ in range(20):  # the first probes touch their arrays for the first time
            speed_probe()
        t0 = time.perf_counter()
        round_s = 0.0
        # stop at the round boundary nearest to --seconds
        while not colds or time.perf_counter() - t0 + round_s / 2 < seconds:
            t_round = time.perf_counter()
            state, dt, probes = _timed(None, "setup", setup, workload, seed)
            setups.append(dt)
            setups_scaled.append(scaled(dt, probes))
            load_round(ctx, workload, state, references)
            for passes in (colds, warms):
                ctx.pass_index += 1
                gc.collect()
                passes.append(run_pass(workload, ctx))
            round_s = time.perf_counter() - t_round
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for p in colds[1:] + warms:
            compare_passes(colds[0], p, "repeat")
        out = {
            "workload": name,
            "seed": seed,
            "rounds": len(colds),
            "setup_times": setups_scaled,
            "cold_pass_times": [p.scaled_seconds for p in colds],
            "warm_pass_times": [p.scaled_seconds for p in warms],
            "setup_raw_times": setups,
            "cold_pass_raw_times": [p.seconds for p in colds],
            "warm_pass_raw_times": [p.seconds for p in warms],
            "setup_s": statistics.median(setups_scaled),
            "cold_pass_s": statistics.median(p.scaled_seconds for p in colds),
            "pass_s": statistics.median(p.scaled_seconds for p in warms),
            "setup_raw_s": statistics.median(setups),
            "cold_pass_raw_s": statistics.median(p.seconds for p in colds),
            "pass_raw_s": statistics.median(p.seconds for p in warms),
            "peak_rss_mb": peak_rss_mb,
        }
        if trace:
            extra = traced_run(workload, ctx, colds[0], out)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    passes = colds + warms + extra
    out["attempted"] = sum(p.attempted for p in passes)
    out["failed"] = sum(p.failed for p in passes)
    out["fail_frac"] = out["failed"] / out["attempted"]
    out["problems"] = {
        f"pass{i}/{job}": probs
        for i, p in enumerate(passes) for job, probs in p.problems.items() if probs
    }
    out["job_seconds"] = [p.job_seconds for p in passes]
    out["probe_seconds"] = [statistics.median(p.probes) if p.probes else None for p in passes]
    return out


def traced_run(workload, ctx: J.Ctx, cold: PassResult, out: dict) -> list:
    """The traced pass and the layer probes under one tracer, then the
    untraced dyadlab run probe; fills in out["per_layer"]."""
    tracer = Tracer(run_id=f"{workload.name}-{ctx.seed}-{os.getpid()}")
    probe_jobs = P.probe_jobs(workload, ctx)
    plain_young = ctx.young
    ctx.young = {k: counting(v) for k, v in plain_young.items()}
    undo = instrument(tracer, ctx.dl)
    try:
        ctx.pass_index += 1
        traced = run_pass(workload, ctx, tracer)
        probes = PassResult()
        run_jobs(ctx, probe_jobs, probes, tracer)
    finally:
        restore(undo)
        ctx.young = plain_young
    compare_passes(cold, traced, "traced")
    suites = PassResult()
    run_jobs(ctx, [P.dyadlab_run_job()], suites)
    out["traced_pass_s"] = traced.seconds
    out["per_layer"] = per_layer_metrics(ctx, traced, probes, suites, tracer, out["pass_raw_s"])
    out["tracer"] = tracer
    return [traced, probes, suites]


def _growth(tracer: Tracer, jobs, layer: str) -> float:
    """Exponent of the cell count: log(T(2N)/T(N)) / log(cells(2N)/cells(N)),
    averaged over the 1-D and 2-D mesh pairs of the workload."""
    exps = []
    for dim in (1, 2):
        small = [f"job.{j.name}" for j in jobs if j.size == f"{dim}d:N"]
        large = [f"job.{j.name}" for j in jobs if j.size == f"{dim}d:2N"]
        t_small = tracer.layer_entry_time(layer, small)
        t_large = tracer.layer_entry_time(layer, large)
        if t_small > 0 and t_large > 0:
            exps.append(math.log2(t_large / t_small) / dim)
    return sum(exps) / len(exps) if exps else 0.0


def per_layer_metrics(ctx, traced: PassResult, probes: PassResult, suites: PassResult,
                      tracer: Tracer, pass_s: float) -> dict:
    """Per-layer metrics over the traced pass and the layer probes."""
    m = {f"{layer}.busy_s": tracer.self_time.get(layer, 0.0) for layer in LAYERS}
    jobs = traced.jobs + probes.jobs
    values = {**traced.values, **probes.values}
    counts = {"n_scored": 0, "n_skipped": 0, "family_size": 0, "cubes": 0}
    for job in jobs:
        for key, v in values.get(job.name, {}).items():
            leaf = key.rsplit(".", 1)[-1]
            if leaf in ("n_scored", "n_skipped", "family_size"):
                counts[leaf] += v
            elif leaf == "cubes" and "sparse" in job.name:
                counts["cubes"] += v
    op_jobs = [f"job.{j.name}" for j in jobs if j.cell_updates]
    updates = sum(j.cell_updates for j in jobs)
    const_time = tracer.layer_entry_time("constants")
    norm_time = tracer.layer_entry_time("normest")
    scan = values.get("probe_scan", {})
    geometry = values.get("probe_geometry", {})
    lux = values.get("probe_luxemburg", {})
    m.update({
        "scan.level_scan_s": scan.get("level_scan_s", 0.0),
        "scan.map_to_cells_s": scan.get("map_to_cells_s", 0.0),
        "scan.cube_cell_sums_s": scan.get("cube_cell_sums_s", 0.0),
        "operators.calls": float(tracer.calls.get("operators", 0)),
        "operators.cell_updates": float(updates),
        "operators.ns_per_cell_update": tracer.layer_entry_time("operators", op_jobs) / updates * 1e9,
        "sparse.stopping_cubes": float(counts["cubes"]),
        "constants.cubes_scored": float(counts["n_scored"]),
        "constants.cubes_skipped": float(counts["n_skipped"]),
        "constants.us_per_cube": const_time / counts["n_scored"] * 1e6 if counts["n_scored"] else 0.0,
        "constants.growth": _growth(tracer, jobs, "constants"),
        "normest.test_functions": float(counts["family_size"]),
        "normest.ms_per_test_function": norm_time / counts["family_size"] * 1e3 if counts["family_size"] else 0.0,
        "normest.growth": _growth(tracer, jobs, "normest"),
        "grid.realize_us": geometry.get("realize_us", 0.0),
        "sampled.integrate_box_us": geometry.get("integrate_box_us", 0.0),
        "sampled.construct_s": traced.job_seconds.get("build_inputs", 0.0),
        "orlicz.luxemburg_ms": lux.get("luxemburg_ms", 0.0),
        "orlicz.lux_evals_per_norm": lux.get("lux_evals_per_norm", 0.0),
        "orlicz.base_evals_per_conjugate_eval": lux.get("base_evals_per_conjugate_eval", 0.0),
        "cli.artifacts_identical": (ctx.artifact_counts[0] / ctx.artifact_counts[1]
                                    if ctx.artifact_counts[1] else 1.0),
        "trace.overhead_frac": traced.seconds / pass_s - 1.0,
    })
    run_values = suites.values.get("dyadlab_run", {})
    for suite in P.SUITES:
        m[f"cli.suite_s.{suite}"] = run_values.get(f"suite_s.{suite}", 0.0)
    return m


# === reporting ================================================================


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": None,
        "cache": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, val = line.partition(":")
            if key.strip() == "model name" and info["cpu_model"] is None:
                info["cpu_model"] = val.strip()
            elif key.strip() == "cache size" and "proc_cache_size" not in info["cache"]:
                info["cache"]["proc_cache_size"] = val.strip()
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.exists() else ():
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            info["cache"][f"L{level}"] = size
    return info


def code_state() -> dict:
    state = {"commit": None, "src_lines": 0}
    for path in sorted((SRC / "dyadlab").glob("*.py")):
        state["src_lines"] += len(path.read_text().splitlines())
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.exists():
                state["commit"] = ref_file.read_text().strip()
            else:
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        state["commit"] = line.split()[0]
        else:
            state["commit"] = ref
    except OSError:
        pass
    return state


def _percentile_line(warm: list) -> str:
    n = len(warm)
    if n < 11:
        return f"{n} warm passes (too few for a tail percentile)"
    k = n - 10  # order statistic with ten passes beyond it
    pct = 100.0 * k / n
    return f"{n} warm passes, p{pct:.0f} = {sorted(warm)[k - 1]:.4f} s"


def result_object(m: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": float(m["per_layer"][name]), "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": float(m[name]), "unit": unit} for name, unit in END_TO_END}
    return {"correct": m["failed"] == 0, "attempted": m["attempted"], "failed": m["failed"],
            "metrics": metrics}


def write_record(m: dict, trace: bool) -> dict:
    """The run's full record, with machine and code state, and its spans."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{m['workload']}-seed{m['seed']}-trace{int(trace)}-{os.getpid()}"
    record = {k: v for k, v in m.items() if k != "tracer"}
    record["machine"] = machine_info()
    record["code"] = code_state()
    if trace:
        spans = RESULTS / f"{stem}-spans.json"
        m["tracer"].write(spans)
        record["spans_file"] = spans.name
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    record["path"] = path
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(J.WORKLOADS))
    ap.add_argument("--seed", type=int, default=J.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dyadlab" / "__init__.py").is_file():
        print(f"no dyadlab sources under {SRC}", file=sys.stderr)
        return 2
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    record = write_record(m, bool(args.trace))
    for key, probs in sorted(m["problems"].items()):
        print(f"FAILED {key}: {probs[0].strip().splitlines()[-1]}", file=sys.stderr)
    mach, code = record["machine"], record["code"]
    print(
        f"{m['workload']} seed={m['seed']}: setup_s={m['setup_s']:.4f} cold_pass_s={m['cold_pass_s']:.4f} "
        f"pass_s={m['pass_s']:.4f} ({_percentile_line(m['warm_pass_times'])}) peak_rss_mb={m['peak_rss_mb']:.1f} "
        f"| raw: setup {m['setup_raw_s']:.4f} cold {m['cold_pass_raw_s']:.4f} warm {m['pass_raw_s']:.4f} s "
        f"fail_frac={m['fail_frac']:.4f} | nproc={mach['nproc']} cpu={mach['cpu_model']!r} "
        f"cache={mach['cache']} python={mach['python']} numpy={mach['numpy']} "
        f"commit={code['commit']} src_lines={code['src_lines']} | record: {record['path'].relative_to(ROOT)}"
    )
    print(json.dumps(result_object(m, bool(args.trace)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

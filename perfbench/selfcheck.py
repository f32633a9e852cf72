"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [workload ...]

For each workload (all by default) it runs the job list once untraced and
once traced at the default seed, and asserts that the result line carries
every end-to-end and per-layer metric with its unit and that nothing
failed.  It then feeds one deliberately wrong reference value and asserts
that the failure counter catches it, and checks that the benchmark exits
non-zero without a result where the dyadlab sources are missing.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, PER_LAYER, RESULTS, ROOT, load_references, measure, result_object  # noqa: E402

from perfbench import jobs as J  # noqa: E402


def check_result_line(obj: dict, table) -> None:
    assert set(obj) == {"correct", "attempted", "failed", "metrics"}, sorted(obj)
    assert obj["correct"] is True and obj["failed"] == 0 and obj["attempted"] >= 1, obj
    assert sorted(obj["metrics"]) == sorted(name for name, _ in table), sorted(obj["metrics"])
    for name, unit in table:
        metric = obj["metrics"][name]
        assert metric["unit"] == unit, (name, metric)
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), (name, metric)


def check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(J.WORKLOADS)


def check_workload(name: str) -> None:
    m = measure(name, J.DEFAULT_SEED, seconds=0, trace=True)
    assert m["fail_frac"] == 0, m["problems"]
    for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
        obj = json.loads(json.dumps(result_object(m, trace), sort_keys=True))
        check_result_line(obj, table)
    print(f"{name}: {m['attempted']} jobs, all metrics present, cold pass {m['cold_pass_s']:.2f} s")


def check_wrong_reference() -> None:
    wrong = copy.deepcopy(load_references())
    row = wrong["mesh_sweep"]["case2_divergence"]
    row["rows.0.S"] *= 1 + 1e-6
    m = measure("mesh_sweep", J.DEFAULT_SEED, seconds=0, trace=False, references=wrong)
    assert m["fail_frac"] > 0, "a wrong reference value went unnoticed"
    assert m["problems"] and all(k.endswith("/case2_divergence") for k in m["problems"]), m["problems"]
    print(f"wrong reference: fail_frac = {m['fail_frac']:.4f} ({m['failed']} of {m['attempted']} jobs)")


def check_without_sources() -> None:
    bare = RESULTS / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "mesh_sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, (proc.returncode, proc.stdout)
    print(f"without sources: exit code {proc.returncode}, no result printed")


def main(names) -> int:
    check_benchmark_json()
    for name in names:
        check_workload(name)
    check_wrong_reference()
    check_without_sources()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(J.WORKLOADS)))

"""Record the reference values in perfbench/references.json.

    python3 perfbench/record.py [workload ...]

Runs one pass of each named workload (all by default) at the default seed
and stores every job's numeric result.  cli jobs, and the default
``dyadlab run`` of the traced run's probe (recorded with mesh_sweep),
store their check names, verdicts and artifact hashes instead.  A pass with any failed check is
not recorded.  Re-record only when a change is meant to alter results,
and say so with the change.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCES, RESULTS, load_round, make_ctx, run_jobs, run_pass, setup  # noqa: E402

from perfbench import jobs as J  # noqa: E402
from perfbench import probes as P  # noqa: E402


def record(names) -> int:
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    for name in names:
        workload = J.WORKLOADS[name]
        state = setup(workload, J.DEFAULT_SEED)
        ctx = make_ctx(workload, J.DEFAULT_SEED, RESULTS / f"tmp-record-{name}", references=None)
        load_round(ctx, workload, state, references=None)
        try:
            res = run_pass(workload, ctx)
            if name == "mesh_sweep":  # the full dyadlab run is recorded once
                run_jobs(ctx, [P.dyadlab_run_job()], res)
        finally:
            shutil.rmtree(ctx.scratch, ignore_errors=True)
        bad = {job: probs for job, probs in res.problems.items() if probs}
        if bad:
            for job, probs in bad.items():
                print(f"{name}/{job}: {probs}", file=sys.stderr)
            return 1
        refs[name] = {}
        for job, values in res.values.items():
            if job.startswith("cli_") or job == "dyadlab_run":
                refs.setdefault("cli", {})[job] = {
                    "checks": {k[len("checks."):]: v for k, v in values.items() if k.startswith("checks.")},
                    "artifacts": {k[len("artifacts."):]: v for k, v in values.items() if k.startswith("artifacts.")},
                }
            else:
                refs[name][job] = {k: v for k, v in values.items() if not k.endswith("sha1")}
        print(f"{name}: {len(res.values)} jobs recorded in {res.seconds:.1f} s")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(record(sys.argv[1:] or sorted(J.WORKLOADS)))

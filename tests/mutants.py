"""Hand-made mutants of the library that the tests must kill.

Each entry of MUTANTS names a module under src/dyadlab, an exact piece of
its text (which must occur there once), the text that replaces it, the test
node ids that must each fail with the change in place, and what the change
breaks.  From the repository root,

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries

applies each entry to a fresh temporary copy of src/ (next to a copy of
tests/, so a test that reads the sources reads the mutated ones) and runs
only its named tests against that copy, one pytest process per node id,
on the ci profile's examples without shrinking (HYPOTHESIS_PROFILE=mutants)
and with RuntimeWarnings turned into errors, as in the tier-1 run.  The
mutant is killed when every named test fails.  The run exits 1 when a
mutant survives, when an entry's old text is not found exactly once, or
when a node id does not name a test.

Plain Python on purpose: no mutation-testing package.  When a later change
claims that a test catches a fault, the fault belongs here.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parents[1]

CONST = "tests/test_constants.py"
OPS = "tests/test_operators.py"
SCAN = "tests/test_scan.py"
NORM = "tests/test_normest.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # module file under src/dyadlab
    old: str
    new: str
    tests: Tuple[str, ...]    # pytest node ids, relative to the repository root
    reason: str


MUTANTS = [
    # --- the testing-constant sweeps -----------------------------------------
    Mutant(
        "outer_shell_factor_one", "constants.py",
        "c = 1.0 - 2.0 ** (n * shell_pow)",
        "c = 1.0",
        (f"{CONST}::TestTestingSweeps::test_matches_per_cube_oracle",
         f"{CONST}::TestOuterTesting::test_matches_outer_riesz_route"),
        "the telescoped chain sum weighs each ancestor by 1 - 2^{n sp}, not 1",
    ),
    Mutant(
        "outer_seed_without_chain", "constants.py",
        "t = np.reshape([chain_sum(scan.cube_at(pos)) for pos in np.ndindex(scan.shape)], scan.shape)",
        "t = scan.cube_volume() ** shell_pow * cube_integrals(scan, u)",
        (f"{CONST}::TestTestingSweeps::test_matches_per_cube_oracle",
         f"{CONST}::TestTestingSweeps::test_ancestor_chain_only_on_coarsest_cubes"),
        "a coarsest cube that does not cover the window needs its ancestors' shells in the seed",
    ),
    Mutant(
        "outer_sum_unclamped", "constants.py",
        "np.maximum(sums[scan.grid][scan.level][live], 0.0) ** inv_q",
        "sums[scan.grid][scan.level][live] ** inv_q",
        (f"{CONST}::TestTestingSweeps::test_outer_sums_clamped_at_zero",),
        "a negative roundoff chain sum takes a NaN root and moves the cube from scored to skipped",
    ),
    Mutant(
        "md_sp_inner_every_shift", "constants.py",
        "_inner_scans(pair.sigma, [grid.shift], min_level, max_level)",
        "_inner_scans(pair.sigma, None, min_level, max_level)",
        (f"{CONST}::TestTestingSweeps::test_matches_per_cube_oracle",),
        "the inner maximal of md_sp_testing runs on the outer cube's own grid only",
    ),
    # --- the shared per-cube formulas of the operators ------------------------
    Mutant(
        "frac_average_order_sign", "operators.py",
        "cube_cell_sums(scan, pre) * (2.0 ** (scan.level * (n - a))",
        "cube_cell_sums(scan, pre) * (2.0 ** (scan.level * (n + a))",
        (f"{OPS}::TestFracMaximal::test_matches_brute_force_1d",
         f"{OPS}::TestDyadicRiesz::test_matches_brute_sum"),
        "the fractional average weighs the average over Q by |Q|^{alpha/n}, not |Q|^{-alpha/n}",
    ),
    Mutant(
        "shell_constant_exponent_flipped", "operators.py",
        "1.0 / (1.0 - 2.0 ** (_order(alpha, n, error, open_below=True) - n))",
        "1.0 / (1.0 - 2.0 ** (n - _order(alpha, n, error, open_below=True)))",
        (f"{OPS}::TestOuterRiesz::test_matches_truncated_lattice_sum",
         f"{OPS}::TestOuterRiesz::test_constant_on_seed_cube"),
        "the shells' geometric series has ratio 2^{alpha - n} < 1",
    ),
    Mutant(
        "order_check_open_below", "operators.py",
        "0 <= a < n",
        "0 < a < n",
        (f"{OPS}::TestFracMaximal::test_constant_function_alpha_zero",),
        "order 0 is the plain maximal function and must be accepted",
    ),
    Mutant(
        "outer_shells_fine_to_coarse", "operators.py",
        "    for i in range(len(scans)):\n",
        "    for i in reversed(range(len(scans))):\n",
        (f"{OPS}::TestOuterRiesz::test_matches_truncated_lattice_sum",
         f"{OPS}::TestOuterRiesz::test_constant_on_seed_cube",
         f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle"),
        "each cell takes the shell of its smallest ancestor, so the finest shell is written last",
    ),
    # --- the batched testing chain --------------------------------------------
    Mutant(
        "chain_cut_one_cell_short", "scan.py",
        "(cells < start + step[:, None])",
        "(cells < start + step[:, None] - 1)",
        (f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle",
         f"{OPS}::TestOuterRiesz::test_constant_on_seed_cube"),
        "the cut sigma chi_Q and each shell cover every cell of their cube, the last one included",
    ),
    Mutant(
        "at_parents_repeats_batch_axis", "scan.py",
        "enumerate(zip(starts, shape), np.ndim(arr) - len(shape))",
        "enumerate(zip(starts, shape))",
        (f"{SCAN}::test_batched_primitives_match_row_loop",
         f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle"),
        "the parent values of a batch are repeated along the cube axes, which come last",
    ),
    Mutant(
        "cube_sums_slice_batch_axis", "scan.py",
        "enumerate(scan.plans, lead)",
        "enumerate(scan.plans)",
        (f"{SCAN}::test_batched_primitives_match_row_loop",
         f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle"),
        "the cube edges of a batched prefix table are read along its last axes",
    ),
    Mutant(
        "batch_norm_rows_transposed", "sampled.py",
        "rows = values.reshape(-1, f.values.size)",
        "rows = values.reshape(f.values.size, -1).T",
        (f"{SCAN}::test_batched_primitives_match_row_loop",
         f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle"),
        "each row of a batch holds one function's cells, contiguous after the batch axes",
    ),
    # --- the cut maximal and its integrals -------------------------------------
    Mutant(
        "cut_maximal_inner_edges_only", "operators.py",
        "edges = tuple(merge_edges(Q, R) for Q, R in zip(outer_edges, scan.edges))",
        "edges = tuple(R for Q, R in zip(outer_edges, scan.edges))",
        (f"{CONST}::TestFujiiBatched::test_matches_per_cube_oracle",
         f"{CONST}::TestSawyerBatched::test_matches_per_cube_oracle"),
        "an inner cube meets Q in a block between the merged edges of both scans",
    ),
    Mutant(
        "inner_finest_level_dropped", "constants.py",
        "for scan in iter_scans(w, grid)]",
        "for scan in tuple(iter_scans(w, grid))[:-1]]",
        (f"{CONST}::TestFujiiBatched::test_matches_per_cube_oracle",
         f"{CONST}::TestSawyerBatched::test_matches_per_cube_oracle"),
        "the inner maximal runs over every level of the outer range, the finest included",
    ),
    Mutant(
        "cut_integrals_unclamped", "constants.py",
        "return np.maximum(num, 0.0)",
        "return num",
        (f"{CONST}::TestSawyerBatched::test_matches_per_cube_oracle_2d_24",),
        "a negative roundoff numerator takes a NaN root and moves the cube from scored to skipped",
    ),
    # --- scan geometry -----------------------------------------------------------
    Mutant(
        "cube_sums_start_edge_at_raw0", "scan.py",
        "pieces = (slice(0, 1),",
        "pieces = (slice(raw0, raw0 + 1),",
        (f"{SCAN}::test_scan_primitives_match_exact_oracle",),
        "the clipped first edge of every axis is cell 0, not the unclipped raw0",
    ),
    Mutant(
        "cube_sums_end_edge_unclipped", "scan.py",
        "slice(n, n + 1))",
        "slice(raw0 + count * step, raw0 + count * step + 1))",
        (f"{SCAN}::test_scan_primitives_match_exact_oracle",),
        "the clipped last edge of every axis is cell N",
    ),
    Mutant(
        "first_width_unclipped", "scan.py",
        "    w[0] += raw0\n",
        "",
        (f"{SCAN}::test_scan_primitives_match_exact_oracle",),
        "the window clips the first cube of an axis",
    ),
    Mutant(
        "last_width_unclipped", "scan.py",
        "    w[-1] -= raw0 + count * step - n_cells\n",
        "",
        (f"{SCAN}::test_scan_primitives_match_exact_oracle",),
        "the window clips the last cube of an axis",
    ),
    Mutant(
        "cell_block_start_unclipped", "scan.py",
        "slice(max(raw0 + int(j) * step, 0),",
        "slice(raw0 + int(j) * step,",
        (f"{SCAN}::test_scan_primitives_match_exact_oracle",),
        "a negative start would slice from the end of the axis",
    ),
    Mutant(
        "parent_offset_without_level_sign", "scan.py",
        "start = m_lo + e * tau - 2 * p_lo",
        "start = m_lo + tau - 2 * p_lo",
        (f"{SCAN}::test_scan_primitives_match_exact_oracle",),
        "the shift enters the parent index with the sign of the level's parity",
    ),
    # --- gates: no roundoff mass, no vacuous pass, a feasible Luxemburg norm ---
    Mutant(
        "zero_cells_ungated", "scan.py",
        "        live &= cube_cell_sums(scan, dens.zero_prefix) < cells\n",
        "",
        (f"{CONST}::test_apq_zero_block_skipped_2d",
         f"{CONST}::TestMassGate::test_zero_block_roundoff_2d"),
        "a cube of zero cells can carry a positive prefix-sum roundoff mass",
    ),
    Mutant(
        "duality_chain_vacuous_pass", "normest.py",
        '"holds": sawyer.n_scored > 0 and sawyer.value',
        '"holds": sawyer.value',
        ("tests/test_normest.py::TestEquivalenceReport::test_duality_chain_over_no_cube_does_not_hold",),
        "a duality chain over no scored cube tested nothing",
    ),
    Mutant(
        "testing_chain_vacuous_pass", "normest.py",
        '"holds": worst_cube is not None and worst',
        '"holds": worst',
        ("tests/test_normest.py::TestEquivalenceReport::test_testing_chain_over_no_cube_does_not_hold",),
        "a testing chain over no cube tested nothing",
    ),
    Mutant(
        "testing_chain_counts_uncompared_cubes", "normest.py",
        '"holds": worst_cube is not None and worst',
        '"holds": len(cubes) > 0 and worst',
        ("tests/test_normest.py::TestEquivalenceReport::test_testing_chain_with_no_compared_cube_does_not_hold",),
        "a chain whose cubes all have a zero maximal side compared nothing",
    ),
    Mutant(
        "luxemburg_infeasible_end", "orlicz.py",
        "return hi  # smallest bracketed lam with mean <= 1",
        "return lo  # smallest bracketed lam with mean <= 1",
        ("tests/test_orlicz.py::TestLuxemburg::test_matches_bisection_oracle",),
        "the low end of the bracket has mean > 1, so it is not a feasible Luxemburg norm",
    ),
    # --- input checks -----------------------------------------------------------
    Mutant(
        "exponent_dimension_unchecked", "constants.py",
        "    if pair.u.dim != e.n:\n",
        "    if False:\n",
        (f"{CONST}::TestExponentDimension::test_wrong_dimension_refused",
         "tests/test_normest.py::TestExponentDimension::test_wrong_dimension_refused"),
        "exponents of another dimension than the weights give a meaningless value",
    ),
    Mutant(
        "cell_count_unbounded", "sampled.py",
        'obj_field(obj, "cells_per_axis", lambda v: _json_int(v, least=1))',
        'obj_field(obj, "cells_per_axis", _json_int)',
        ("tests/test_sampled.py::TestSerialization::test_cell_count_below_one_refused",
         "tests/test_cli.py::TestMalformedInputFiles::test_negative_cell_count_refused"),
        "reshape reads a negative cell count as 'infer'",
    ),
    # --- sparse families and imports ------------------------------------------
    Mutant(
        "subtree_scatter_transposed", "sparse.py",
        "np.add.at(totals[scan.level - 1], np.ix_(*pos), totals[scan.level])",
        "np.add.at(totals[scan.level - 1], np.ix_(*list(pos)[::-1]), totals[scan.level].T)",
        ("tests/test_sparse.py::TestCarleson::test_subtree_sums_2d_against_brute",),
        "each axis of the child positions indexes the same axis of the parents",
    ),
    Mutant(
        "unused_import_planted", "scan.py",
        "import numpy as np\n",
        "import numpy as np\nimport os\n",
        ("tests/test_imports.py::test_no_unused_imports[scan.py]",),
        "every import in a library module is used",
    ),
]


def apply(mutant: Mutant, src: Path) -> None:
    """Write the mutant into the copy of src/ at src."""
    target = src / "dyadlab" / mutant.path
    text = target.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise LookupError(f"{mutant.name}: old text found {found} times in {mutant.path}, expected once")
    target.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> list:
    """The node ids that passed with the mutant in place (empty: killed).

    A node id that pytest neither passes nor fails (a collection or usage
    error, or no test collected) raises RuntimeError."""
    with tempfile.TemporaryDirectory(prefix="dyadlab-mutant-") as tmp:
        copy = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", copy)
        src = copy / "src"
        apply(mutant, src)
        env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="mutants", PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import dyadlab; print(dyadlab.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True).stdout
        if src.resolve() not in Path(where.strip()).resolve().parents:
            raise RuntimeError(f"{mutant.name}: dyadlab imported from {where.strip()!r}, not the mutated copy")
        survivors = []
        for node in mutant.tests:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-W", "error::RuntimeWarning", node],
                cwd=copy, env=env, capture_output=True, text=True)
            if proc.returncode == 0:
                survivors.append(node)
            elif proc.returncode != 1:
                tail = "\n".join(proc.stdout.splitlines()[-5:] + proc.stderr.splitlines()[-5:])
                raise RuntimeError(f"{mutant.name}: pytest exit {proc.returncode} on {node}\n{tail}")
        return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        print(f"error: unknown mutants {unknown}", file=sys.stderr)
        return 1
    chosen = [by_name[n] for n in args.names] or MUTANTS
    bad = 0
    start = time.perf_counter()
    for m in chosen:
        t0 = time.perf_counter()
        try:
            survivors = run(m)
        except (LookupError, RuntimeError) as exc:
            print(f"ERROR     {exc}")
            bad += 1
            continue
        status = "SURVIVED" if survivors else "killed"
        print(f"{status:<9} {m.name} ({time.perf_counter() - t0:.1f} s)")
        for node in survivors:
            print(f"          passes: {node}")
        bad += bool(survivors)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

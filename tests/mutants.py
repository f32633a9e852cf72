"""Hand-made mutants of the library that the tests must kill.

Each entry of MUTANTS names a module under src/dyadlab, an exact piece of
its text (which must occur there once), the text that replaces it, the test
node ids that must each fail with the change in place, and what the change
breaks.  From the repository root,

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the named entries

applies each entry to a fresh temporary copy of src/ (next to a copy of
tests/, so a test that reads the sources reads the mutated ones) and runs
its named tests against that copy with pytest.main, in a child forked from
the runner: on the ci profile's examples without shrinking
(HYPOTHESIS_PROFILE=mutants), with RuntimeWarnings turned into errors as in
the tier-1 run, and with plain asserts, which pass and fail as the
rewritten ones do.  The runner imports numpy (pinned to one BLAS thread),
hypothesis and pytest once, before the first fork, so that no child pays
for them again; it never imports dyadlab, and checks that before each
fork, so that each child imports the mutated copy.  A named node runs
until it has a failing case: a case that only failed nodes select is
skipped, since one failure already decides a node.  The outcomes are read
from the child's JUnit XML report: a node fails when one of the cases it
selects fails or errors.  The mutant is killed when every named node
fails.  os.cpu_count() children run at a time, and their results are
printed in catalogue order, each with its time from copy to verdict.  The
run exits 1 when a mutant survives, when an entry's old text is not found
exactly once, or when a node id does not name a test.

Plain Python on purpose: no mutation-testing package.  When a later change
claims that a test catches a fault, the fault belongs here.
"""
from __future__ import annotations

import argparse
import importlib
import os
import shutil
import sys
import tempfile
import threading
import time
import traceback
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]

CONST = "tests/test_constants.py"
OPS = "tests/test_operators.py"
SCAN = "tests/test_scan.py"
NORM = "tests/test_normest.py"
CLI = "tests/test_cli.py"
ORLICZ = "tests/test_orlicz.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str                 # module file under src/dyadlab
    old: str
    new: str
    tests: Tuple[str, ...]    # pytest node ids, relative to the repository root
    reason: str


MUTANTS = [
    # --- the line gate: the slowest entries (each traces every command) come
    # first, so that the rest run beside them ---------------------------------
    Mutant(
        "unreached_def_planted", "sparse.py",
        "def subtree_sums(seq: CarlesonSequence)",
        "def _planted():\n    return None\n\n\ndef subtree_sums(seq: CarlesonSequence)",
        ("tests/test_reachability.py::test_every_statement_reached_or_allowed",),
        "a function that no command reaches and ALLOWED does not keep is dead code",
    ),
    Mutant(
        "test_only_branch_planted", "sampled.py",
        "            raise MeshMismatchError(f\"values of shape {arr.shape} on a mesh of shape {self.values.shape}\")",
        "            return SampledFunction(self.dim, self.lower, self.side, arr)",
        ("tests/test_reachability.py::test_every_statement_reached_or_allowed",),
        "a branch that only tests reach, in a function the commands run, is dead code to the line gate",
    ),
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
        "top, *below = _shell_scans(u, grid.shift, grid.min_level, grid.max_level)",
        "top, *below = iter_scans(u, grid)",
        (f"{CONST}::TestTestingSweeps::test_matches_per_cube_oracle",
         f"{CONST}::TestTestingSweeps::test_no_fraction_geometry"),
        "a coarsest cube whose ancestor chain has not ended needs its ancestors' shells in the seed",
    ),
    Mutant(
        "outer_top_seed_times_c", "constants.py",
        "t = top.cube_volume() ** shell_pow * cube_integrals(top, u)",
        "t = c * top.cube_volume() ** shell_pow * cube_integrals(top, u)",
        (f"{CONST}::TestTestingSweeps::test_matches_per_cube_oracle",
         f"{CONST}::TestOuterTesting::test_matches_outer_riesz_route"),
        "the top of the sweep, where every chain has ended, carries its whole shell |A|^sp u(A)",
    ),
    Mutant(
        "outer_sum_unclamped", "constants.py",
        "np.maximum(sums[scan.grid.shift][scan.level][live], 0.0) ** inv_q",
        "sums[scan.grid.shift][scan.level][live] ** inv_q",
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
        "return sweep(f, scans[0].grid, level_values, np.maximum)",
        "return sweep(f, scans[0].grid, level_values, lambda up, v: np.where(up > 0, up, v))",
        (f"{OPS}::TestOuterRiesz::test_matches_truncated_lattice_sum",
         f"{OPS}::TestOuterRiesz::test_constant_on_seed_cube",
         f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle"),
        "each cell takes the shell of its smallest ancestor, not of its largest one",
    ),
    Mutant(
        "shells_skip_own_level", "operators.py",
        "rows = np.flatnonzero(lev >= i)",
        "rows = np.flatnonzero(lev > i)",
        (f"{OPS}::TestOuterRiesz::test_constant_on_seed_cube",
         f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle"),
        "a cube is its own smallest ancestor: its cells take its own shell, not its parent's",
    ),
    # --- the batched testing chain --------------------------------------------
    Mutant(
        "chain_cut_one_cell_short", "scan.py",
        "(cells < start + step[:, None])",
        "(cells < start + step[:, None] - 1)",
        (f"{NORM}::TestBatchedTestingChain::test_matches_per_cube_oracle",
         f"{NORM}::TestBatchedDualitySeeds::test_family_matches_per_cube_oracle"),
        "the cut sigma chi_Q and each duality seed cover every cell of their cube, the last one included",
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
    # --- the batched duality seeds of the test families -------------------------
    Mutant(
        "duality_seed_cut_from_u", "normest.py",
        "chi.astype(np.float64), s.tgt_w, alpha",
        "chi.astype(np.float64), mesh, alpha",
        (f"{NORM}::TestBatchedDualitySeeds::test_family_matches_per_cube_oracle",),
        "each side cuts its seeds from its other weight: u on the forward side, sigma on the dual one",
    ),
    Mutant(
        "duality_seed_rows_shifted", "normest.py",
        "cube_cells(scans, lev[part], pos[part])",
        "cube_cells(scans, np.roll(lev, 1)[part], np.roll(pos, 1, axis=0)[part])",
        (f"{NORM}::TestBatchedDualitySeeds::test_family_matches_per_cube_oracle",),
        "row b of a batch is the cube of label b, so each seed goes out under its own cube's label",
    ),
    Mutant(
        "duality_seed_chunk_drops_last_row", "normest.py",
        "return [slice(start, start + batch) for start",
        "return [slice(start, start + batch - 1) for start",
        (f"{NORM}::TestBatchedDualitySeeds::test_family_matches_per_cube_oracle",
         f"{NORM}::TestBatchedDualitySeeds::test_one_core_call_per_chunk",
         f"{NORM}::TestBatchedTestingChain::test_batches_give_the_same_dict"),
        "consecutive chunks cover every cube, the last row of each included",
    ),
    Mutant(
        "duality_seed_mask_dropped", "normest.py",
        "chi & (seeds > 0)",
        "seeds > 0",
        (f"{NORM}::TestBatchedDualitySeeds::test_family_matches_per_cube_oracle",),
        "a saturating function lives on its own cube, not wherever its seed is positive",
    ),
    # --- the batched plain chunks: the indicators and the random steps -----------
    Mutant(
        "plain_indicator_labels_rotated", "normest.py",
        'yield [f"chi[{label}]" for label, _, _, _ in cubes]',
        'yield [f"chi[{label}]" for label, _, _, _ in cubes[1:] + cubes[:1]]',
        (f"{NORM}::TestPlainChunks::test_family_matches_oracle",
         f"{NORM}::TestChunkedEvaluation::test_estimate_norm_matches_oracle"),
        "row b of an indicator chunk is the indicator of the chunk's cube b, so it goes out under that cube's label",
    ),
    Mutant(
        "plain_indicator_scan_of_level_only", "normest.py",
        "at = {(scan.grid.shift, scan.level): k for k, scan in enumerate(scans)}\n"
        "    lev = np.array([at[scan.grid.shift, scan.level]",
        "at = {scan.level: k for k, scan in enumerate(scans)}\n    lev = np.array([at[scan.level]",
        (f"{NORM}::TestPlainChunks::test_family_matches_oracle",
         f"{NORM}::TestFamilyOnScans::test_matches_fraction_family"),
        "each indicator row reads the scan of its own cube's grid and level, of every grid's scans",
    ),
    Mutant(
        "plain_step_rows_reversed", "normest.py",
        "yield names, spread(steps[part],",
        "yield names, spread(steps[part][::-1],",
        (f"{NORM}::TestPlainChunks::test_family_matches_oracle",),
        "step k is the k-th draw of the seeded stream, whatever chunk holds it",
    ),
    Mutant(
        "tie_goes_to_a_later_chunk", "normest.py",
        "if ratios[k] > t.best:",
        "if ratios[k] >= t.best:",
        (f"{NORM}::TestChunkedEvaluation::test_a_chunk_boundary_cuts_a_tied_maximum",
         f"{NORM}::TestChunkedEvaluation::test_estimate_norm_matches_oracle"),
        "the first maximum in family order keeps the argmax, also when a tie for it lies in a later chunk",
    ),
    Mutant(
        "stop_names_the_first_imaged_row", "normest.py",
        "{what} of the test function {names[rows[k]]} is not finite",
        "{what} of the test function {names[rows[0]]} is not finite",
        (f"{NORM}::TestChunkedEvaluation::test_overflow_raises_the_oracle_error[sigma_1e200_right_half]",),
        "a stop inside a chunk names the test function of its own row",
    ),
    # --- the chunked evaluation of the test families ------------------------------
    Mutant(
        "duality_chunk_names_shifted", "normest.py",
        "for (label, _, _, _), k in zip(cubes, keep)",
        "for (label, _, _, _), k in zip(cubes[1:] + cubes[:1], keep)",
        (f"{NORM}::TestChunkedEvaluation::test_equivalence_estimates_match_oracle[classical_smooth]",
         f"{NORM}::TestBatchedDualitySeeds::test_family_matches_per_cube_oracle"),
        "row b of a duality chunk is the function of the chunk's cube b, so it is reported under that cube's label",
    ),
    Mutant(
        "strong_riesz_read_weak", "normest.py",
        "(weak_lq_norms if t.weak else lp_norms)",
        '(weak_lq_norms if t.weak or t.op == "dyadic_riesz" else lp_norms)',
        (f"{NORM}::TestChunkedEvaluation::test_equivalence_estimates_match_oracle[random]",),
        "the weak and strong Riesz targets share one image, not one target norm",
    ),
    Mutant(
        "zero_source_rows_counted", "normest.py",
        "t.count += len(rows)",
        "t.count += len(names)",
        (f"{NORM}::TestChunkedEvaluation::test_equivalence_estimates_match_oracle[vanishing_blocks]",),
        "a test function of zero source norm gives no ratio, so it is not in the family size",
    ),
    Mutant(
        "stopped_estimate_error_overwritten", "normest.py",
        "live := [t for t in mine if not t.error]",
        "live := list(mine)",
        (f"{NORM}::TestChunkedEvaluation::test_overflow_raises_the_oracle_error[u_1e100_sigma_1e60]",),
        "a stopped estimate takes no further chunk, so the error it reports is that of its first stop",
    ),
    Mutant(
        "one_stop_drops_every_estimate", "normest.py",
        "live := [t for t in mine if not t.error]",
        "live := [t for t in mine if not any(x.error for x in tallies)]",
        (f"{NORM}::TestChunkedEvaluation::test_overflow_raises_the_oracle_error[u_1e100_sigma_1e60]",),
        "an estimate runs on until it stops itself: one later in report order that stops first does not end it",
    ),
    # --- the operator registry on arrays, and the norms of estimate_norm -------
    Mutant(
        "registry_prefix_reused_for_same_shape", "operators.py",
        "if mu is None and values is f.values:",
        "if mu is None and values.shape == f.values.shape:",
        (f"{OPS}::TestArrayCores::test_rows_have_the_bits_of_the_public_operator",
         f"{OPS}::TestArrayCores::test_own_values_share_the_cached_prefix"),
        "only f's own values have f's cached prefix table; other values of its shape need their own",
    ),
    Mutant(
        "weak_norms_read_row_zero", "sampled.py",
        "vs = np.take_along_axis(flat, order, axis=-1)",
        "vs = np.take_along_axis(flat[[0] * len(flat)], order, axis=-1)",
        ("tests/test_sampled.py::TestNorms::test_weak_norms_rows_are_the_one_row_norm",),
        "each row of a batch gets the weak norm of its own values",
    ),
    Mutant(
        "norm_estimate_nonfinite_unguarded", "normest.py",
        "bad = ~np.isfinite(den)",
        "bad = np.zeros(len(den), dtype=bool)",
        (f"{NORM}::TestEstimateNorm::test_overflow_refused_not_reported",),
        "an overflowing source norm stops the estimate at its test function, before the image of any later row",
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
        "    live &= zero_cells(scan, dens) < round(scan.cube_volume() / dens.geometry.cellvol)\n",
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
        (f"{ORLICZ}::TestLuxemburg::test_matches_bisection_oracle",),
        "the low end of the bracket has mean > 1, so it is not a feasible Luxemburg norm",
    ),
    Mutant(
        "luxemburg_halving_returns_zero", "orlicz.py",
        '        raise OrliczError("Luxemburg bracketing did not close")\n',
        '        if feasible:\n            return 0.0\n        raise OrliczError("Luxemburg bracketing did not close")\n',
        (f"{ORLICZ}::TestLuxemburg::test_halving_that_never_closes_raises",),
        "positive data whose norm lies below 400 halvings of max(values) have a positive norm, not 0",
    ),
    Mutant(
        "luxemburg_halving_to_zero_unguarded", "orlicz.py",
        '        if lam == 0.0:\n            raise OrliczError("Luxemburg norm below the least positive float")\n',
        "",
        (f"{ORLICZ}::TestLuxemburg::test_halving_to_zero_raises",),
        "a norm below the least positive float halves lambda to 0.0, where the mean divides by zero",
    ),
    Mutant(
        "luxemburg_secant_at_an_infinite_end", "orlicz.py",
        "if math.isinf(g_lo) or math.isinf(g_hi) or not x_lo <= x <= x_hi:",
        "if not x_lo <= x <= x_hi:",
        (f"{ORLICZ}::TestLuxemburg::test_overflow_at_the_low_end_converges",),
        "an overflowing low end puts the secant on the high end, which moves 5e-12 in log lambda a step and stalls",
    ),
    Mutant(
        "luxemburg_bracket_ends_swapped", "orlicz.py",
        "(lo, g_lo), (hi, g_hi) = sorted(",
        "(hi, g_hi), (lo, g_lo) = sorted(",
        (f"{ORLICZ}::TestLuxemburg::test_matches_bisection_oracle",
         f"{ORLICZ}::TestLuxemburg::test_single_and_zero_cells"),
        "with the ends swapped the bracket is empty and the solve returns the infeasible end",
    ),
    # --- the golden-section conjugate: skip only what changes no bit ------------
    Mutant(
        "golden_stop_on_width", "orlicz.py",
        "np.array_equal(new_hi, hi) and np.array_equal(new_lo, lo)",
        "np.all(hi - lo <= 1e-12 * hi)",
        (f"{ORLICZ}::TestConjugate::test_bit_identical_to_golden_oracle",),
        "a stop on a relative width of 1e-12 is not the fixed point: it moves conjugate values off the 90-step bits",
    ),
    Mutant(
        "bracket_stale_g_hi", "orlicz.py",
        "                g_hi = np.where(grow, g_up, g_hi)\n",
        "",
        (f"{ORLICZ}::TestConjugate::test_bit_identical_to_golden_oracle",),
        "the bracket compares g(2 hi) with g at the current hi, not at the first one",
    ),
    Mutant(
        "conjugate_zero_at_nan", "orlicz.py",
        "        out[np.isnan(t)] = np.nan\n",
        "",
        (f"{ORLICZ}::TestConjugate::test_nan_argument_gives_nan",),
        "a nan argument has no conjugate value; 0 would read as a finite one",
    ),
    Mutant(
        "conjugate_unclamped", "orlicz.py",
        "return np.maximum(g((lo + hi) / 2.0), 0.0)",
        "return g((lo + hi) / 2.0)",
        (f"{ORLICZ}::TestConjugate::test_small_t_stays_a_lower_bound",),
        "where the bracket misses a tiny maximiser, s t - Phi(s) at its midpoint is negative; a conjugate is never below 0",
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
    Mutant(
        "orlicz_power_mean_unclamped", "operators.py",
        "(np.maximum(cube_cell_sums(scan, pre), 0.0) * (cellvol / vol))",
        "(cube_cell_sums(scan, pre) * (cellvol / vol))",
        (f"{OPS}::TestOrliczMaximal::test_power_path_over_zero_block_2d",
         f"{CONST}::TestBump::test_power_path_over_zero_block_2d"),
        "a negative roundoff power mean takes a NaN root, which the result refuses",
    ),
    Mutant(
        "cube_level_truncated", "grid.py",
        'level=obj_field(obj, "level", _json_int)',
        'level=obj_field(obj, "level", int)',
        ("tests/test_grid.py::TestSerialization::test_cube_fields_must_be_integers",
         "tests/test_cli.py::TestOpsCommand::test_outer_riesz_malformed_cube_refused"),
        "a cube level of 1.5 is refused, not truncated to 1",
    ),
    Mutant(
        "integer_rule_takes_floats_and_bools", "grid.py",
        "if isinstance(v, bool) or not isinstance(v, numbers.Integral):",
        "if not isinstance(v, numbers.Real):",
        ("tests/test_sampled.py::TestExponents::test_n_must_be_an_integer",
         "tests/test_sampled.py::TestExponents::test_make_exponents_refuses_float_n",
         "tests/test_grid.py::TestSerialization::test_cube_fields_must_be_integers",
         "tests/test_pairs.py::TestCase1::test_sizes_must_be_integers_of_the_rule"),
        "the one integer rule refuses 48.9 cells, seed 3.7 and n = True, where int() truncated them",
    ),
    Mutant(
        "integer_rule_ignores_least", "grid.py",
        "    if v < least:\n",
        "    if False:\n",
        ("tests/test_sampled.py::TestSerialization::test_cell_count_below_one_refused",
         f"{CLI}::TestRunCommand::test_negative_seed_flag_refused_before_output",
         f"{NORM}::TestEstimateNorm::test_bad_recipe_refused"),
        "a negative seed or cell count passes the rule and fails later, after output exists",
    ),
    Mutant(
        "cell_count_rule_without_power_of_two", "sampled.py",
        "return n % 3 == 0 and is_power_of_two(n // 3)",
        "return n % 3 == 0 and n > 0",
        ("tests/test_sampled.py::TestValidation::test_cell_count_rule_refuses_the_rest",
         "tests/test_sampled.py::TestValidation::test_cell_count_must_be_three_times_pow2"),
        "9 or 36 cells put some dyadic cube boundary inside a cell",
    ),
    Mutant(
        "artifact_dir_before_suites", "cli.py",
        'names = list(run.cfg["suites"])',
        'names = list(run.cfg["suites"]); out_dir.mkdir(parents=True, exist_ok=True)',
        (f"{CLI}::TestRunCommand::test_suite_that_raises_leaves_no_directory",),
        "a suite that raises leaves a partial artifact directory without report.json",
    ),
    Mutant(
        "luxemburg_negative_mass_dropped", "orlicz.py",
        "    if np.any(m < 0):\n",
        "    if False:\n",
        (f"{ORLICZ}::TestLuxemburg::test_non_finite_input_rejected[negative_mass]",),
        "a negative mass would be dropped with its cell, giving the norm of the other cells",
    ),
    Mutant(
        "bp_classify_single_octave", "orlicz.py",
        "    if octaves < 2:\n",
        "    if False:\n",
        (f"{ORLICZ}::TestBpClassification::test_fewer_than_two_octaves_refused",),
        "one window has no decay ratio, so rho = -inf reads a divergent tail as convergent",
    ),
    # --- the verdict rule of dyadlab run --------------------------------------
    Mutant(
        "check_without_cases_guard", "cli.py",
        "vacuous = cases == 0 or value is None",
        "vacuous = value is None",
        (f"{CLI}::TestCheck::test_vacuous_at_zero_cases",),
        "a check that compared no case is vacuous and does not pass",
    ),
    Mutant(
        "worst_by_python_max", "cli.py",
        "return float((np.max if sense == \"<=\" else np.min)(values))",
        "return float((max if sense == \"<=\" else min)(values))",
        (f"{CLI}::TestCheck::test_worst_keeps_nan",),
        "Python's max drops a NaN that follows a number, so a NaN trial would pass",
    ),
    Mutant(
        "check_at_least_inverted", "cli.py",
        "lo, hi = (value, bound) if sense == \"<=\" else (bound, value)",
        "lo, hi = (value, bound)",
        (f"{CLI}::TestCheck::test_at_least_sense",),
        "a >= check holds the value from below: 0.75 against 0.5 passes with margin 0.25",
    ),
    Mutant(
        "nested_config_fields_unchecked", "cli.py",
        "_known_fields(cfg[key], DEFAULT_CONFIG[key], key)",
        "pass",
        (f"{CLI}::TestRunCommand::test_unknown_nested_field_refused[override1-mesh.cels_per_axis]",),
        "a misspelt nested field would run the defaults and be echoed into report.json",
    ),
    Mutant(
        "counterexample_window_unbounded", "cli.py",
        "if not is_power_of_two(w) or w.bit_length() - 1 not in MAX_EXPS:",
        "if not is_power_of_two(w) or w < 8:",
        (f"{CLI}::TestRunCommand::test_counterexample_window_past_the_divergence_cutoffs_refused",),
        "a window past 2^26 would pass the config check and fail mid-run in case2_divergence",
    ),
    Mutant(
        "case2_cross_check_truncated", "pairs.py",
        "exact_val = _tree_sum(_interval_integrals(gf, 2, xc)[2])",
        "exact_val = _tree_sum(_interval_integrals(gf, 2, min(xc, 2**max_exp))[2])",
        ("tests/test_pairs.py::TestCase2Divergence::test_mesh_cross_check_whole_below_its_window",
         f"{CLI}::TestRunCommand::test_counterexample_suite_passes_at_the_smallest_window"),
        "below 2^7 the cutoff's terms stop short of [2, 128), so the closed form fell under the mesh value",
    ),
    Mutant(
        "case2_chunk_tail_outside_tree", "pairs.py",
        "out.append(_tree_sum(np.append(sums, _tree_sum(chunk[: stops[len(out)] - start]))))",
        "out.append(_tree_sum(sums) + _tree_sum(chunk[: stops[len(out)] - start]))",
        ("tests/test_pairs.py::TestTreeSum::test_prefix_sums_from_chunks_match_whole_prefixes",
         "tests/test_pairs.py::TestCase2Divergence::test_rows_match_whole_array_oracle"),
        "the tree sum of the terms past the whole chunks, added outside the tree of the chunk sums, moves the "
        "bits of a row that spans more than one chunk",
    ),
    Mutant(
        "case2_chunk_size_not_a_power_of_two", "pairs.py",
        "CHUNK_TERMS = 2**16",
        "CHUNK_TERMS = 3 * 2**14",
        ("tests/test_pairs.py::TestTreeSum::test_prefix_sums_from_chunks_match_whole_prefixes",),
        "the tree of a prefix pairs within aligned power-of-two blocks only, so other chunks split its pairs",
    ),
    Mutant(
        "box_empty_side_allowed", "grid.py",
        "if self.side <= 0:",
        "if self.side < 0:",
        ("tests/test_grid.py::TestSerialization::test_box_refuses_nonpositive_side",),
        "an empty box would pass, and the window enumeration, containment and index ranges no longer handle one",
    ),
    Mutant(
        "degenerate_testing_chain_hand_written", "normest.py",
        "_testing_record([], [], [], 0.0, coeff)",
        '{"cubes": 0, "max_ratio": None, "holds": False, "testing_constant": 0.0}',
        ("tests/test_normest.py::TestEquivalenceReport::test_degenerate_testing_chain_has_the_measured_keys",),
        "a degenerate pair's testing chain has the keys of a measured one, with no worst cube and no argmax",
    ),
    Mutant(
        "degenerate_u_not_flagged", "normest.py",
        "degenerate = float(np.max(pair.sigma.values)) == 0.0 or float(np.max(pair.u.values)) == 0.0",
        "degenerate = float(np.max(pair.sigma.values)) == 0.0",
        ("tests/test_normest.py::TestEquivalenceReport::test_degenerate_pair_flagged[u]",),
        "a u that is zero everywhere would be estimated as if it measured something",
    ),
    Mutant(
        "run_zero_flag_replaced", "cli.py",
        "if v is not None and v != {}}",
        "if v}",
        (f"{CLI}::TestRunCommand::test_empty_counterexample_flag_refused_not_replaced",),
        "--window 0 or --gamma '' would run and record the default window or gamma",
    ),
    Mutant(
        "run_file_over_flags", "cli.py",
        "_merge_config(_load_json(args.config) if args.config else {}, flags)",
        "_merge_config(flags, _load_json(args.config) if args.config else {})",
        (f"{CLI}::TestRunCommand::test_flags_override_the_file_key_by_key",),
        "a flag would replace its key only where the file leaves it unset",
    ),
    Mutant(
        "run_file_nulls_dropped", "cli.py",
        "_merge_config(_load_json(args.config) if args.config else {}, flags)",
        "_merge_config(_given(**_load_json(args.config)) if args.config else {}, flags)",
        (f"{CLI}::TestRunCommand::test_bad_config_exits_two[{{'seed': None}}]",),
        "a null written in the file would run the default instead of being refused",
    ),
    Mutant(
        "examples_zero_window_replaced", "cli.py",
        "X = 64 if args.window is None else args.window",
        "X = args.window or 64",
        (f"{CLI}::TestExamplesCommand::test_factored_zero_window_refused",),
        "--window 0 would build the side-64 train instead of being refused",
    ),
    Mutant(
        "young_conjugate_unchecked", "cli.py",
        "young[-1].associate()",
        "young[-1]",
        (f"{CLI}::TestRunCommand::test_malformed_config_value_named",),
        "t^1 has no finite conjugate: the run would fail in the orlicz suite, or pass when it is not selected",
    ),
    Mutant(
        "norms_pair_optional", "cli.py",
        'choices=["estimate", "equiv"])\n    p.add_argument("--pair", required=True,',
        'choices=["estimate", "equiv"])\n    p.add_argument("--pair",',
        (f"{CLI}::TestNormsCommand::test_pair_required",),
        "without --pair, norms reads Path(None) and dies with a TypeError traceback, not a usage line",
    ),
    # --- the shared mesh geometry ----------------------------------------------
    Mutant(
        "with_values_rebuilds_geometry", "sampled.py",
        "return object.__new__(SampledFunction)._fill(self.geometry, arr)",
        "return object.__new__(SampledFunction)._fill(mesh_geometry.__wrapped__(self.geometry.key), arr)",
        ("tests/test_sampled.py::TestMeshGeometry::test_derived_functions_share_the_record",
         f"{OPS}::TestNoFractionsWhenWarm::test_warm_maximal"),
        "a function derived on the same mesh hands its record on; rebuilding it redoes the Fraction arithmetic",
    ),
    Mutant(
        "scan_memo_key_drops_corner", "scan.py",
        "return _scans(geom.key, grid.shift, grid.min_level, grid.max_level)",
        "return _scans(geom.key[:2] + (0,) * geom.dim, grid.shift, grid.min_level, grid.max_level)",
        (f"{SCAN}::test_memo_keeps_window_corners_apart",),
        "meshes that differ in the window corner alone have different scan plans",
    ),
    Mutant(
        "same_mesh_ignores_side", "sampled.py",
        "return a is b or a.key == b.key",
        "return a is b or (a.key[0],) + a.key[2:] == (b.key[0],) + b.key[2:]",
        ("tests/test_sampled.py::TestMeshGeometry::test_same_mesh_compares_every_part_of_the_key",),
        "windows of sides 2 and 4 with one corner and one cell count are different meshes",
    ),
    # --- sparse families and imports ------------------------------------------
    Mutant(
        "sparse_chain_sum_dropped", "sparse.py",
        'value[ids] = value[parents[ids]] + u if form == "chi" else u',
        "value[ids] = u",
        (f"{SCAN}::test_sparse_operator_bit_identical_with_level_gaps",),
        "the chi form sums over every stopping cube containing a cell, not the deepest one alone",
    ),
    Mutant(
        "off_grid_box_rounded_out", "sampled.py",
        "            if c0.denominator != 1 or c1.denominator != 1:\n"
        "                raise MeshError(f\"box edge not on cell boundary: {box}\")\n"
        "            sl.append(slice(int(c0), int(c1)))",
        "            sl.append(slice(math.floor(c0), math.ceil(c1)))",
        ("tests/test_sampled.py::TestIntegration::test_off_grid_box_refused",),
        "a box edge inside a cell would be rounded out to whole cells, not refused",
    ),
    Mutant(
        "subtree_scatter_transposed", "sparse.py",
        "np.add.at(totals[scan.level], np.ix_(*pos), totals[child.level])",
        "np.add.at(totals[scan.level], np.ix_(*pos[::-1]), totals[child.level].T)",
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
        raise LookupError(f"old text found {found} times in {mutant.path}, expected once")
    target.write_text(text.replace(mutant.old, mutant.new))


def node_failed(node: str, cases) -> bool:
    """Whether a case that the node id selects failed or errored, from
    (classname, name, failed) of the JUnit report's test cases.  A node
    id that selects no case raises RuntimeError."""
    path, *names = node.split("::")
    classname = ".".join([path[:-len(".py")].replace("/", "."), *names[:-1]])
    last = names[-1]
    mine = [failed for cls, name, failed in cases
            if cls == classname and (name == last or "[" not in last and name.startswith(last + "["))]
    if not mine:
        raise RuntimeError(f"no test case ran for {node}")
    return any(mine)


# imported once, before the first fork, so that no child imports them again
PRELOAD = ("numpy", "hypothesis", "hypothesis.strategies", "pytest", "_hypothesis_pytestplugin", "_pytest.junitxml")


def preload() -> None:
    """Import PRELOAD into this process, numpy with one BLAS thread: the
    children are forked from it, and a fork keeps no other thread."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    for name in PRELOAD:
        importlib.import_module(name)


def selects(node: str, nodeid: str) -> bool:
    """Whether a named node id selects the test case of a pytest nodeid."""
    return nodeid == node or "[" not in node and nodeid.startswith(node + "[")


class FirstFailure:
    """pytest plugin: a case is skipped, before its fixtures are set up,
    once every named node that selects it has a failing case, since one
    failure already decides each of them."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.failed = set()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        mine = {node for node in self.nodes if selects(node, item.nodeid)}
        if mine and mine <= self.failed:
            pytest.skip("its named nodes have failed")

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.update(node for node in self.nodes if selects(node, report.nodeid))


def prepare(mutant: Mutant, copy: Path) -> None:
    """Copy src/, tests/ and pyproject.toml to copy and apply the mutant there."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for tree in ("src", "tests"):
        shutil.copytree(ROOT / tree, copy / tree, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", copy)
    apply(mutant, copy / "src")


def child(mutant: Mutant, copy: Path) -> None:
    """In a forked child: import dyadlab from the copy, record where from,
    run the named tests there with pytest.main, and exit with its status.
    Its output goes to copy/pytest.log."""
    status = 3
    try:
        log = os.open(copy / "pytest.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.chdir(copy)
        src = copy / "src"
        os.environ.update(PYTHONPATH=str(src), HYPOTHESIS_PROFILE="mutants", PYTHONDONTWRITEBYTECODE="1")
        sys.dont_write_bytecode = True
        sys.path[:0] = [str(src), str(copy / "tests")]
        (copy / "where.txt").write_text(importlib.import_module("dyadlab").__file__)
        # plain asserts: with bytecode writing off, rewriting the asserts of
        # hypothesis and the test modules would cost each child about 1 s
        status = pytest.main(["-q", "-p", "no:cacheprovider", "--assert=plain", "-W", "error::RuntimeWarning",
                              f"--junitxml={copy / 'junit.xml'}", *mutant.tests], plugins=[FirstFailure(mutant.tests)])
    except BaseException:  # anything, exit included: the finally below ends the child, never the runner's loop
        traceback.print_exc()
    finally:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(int(status))


def verdict(mutant: Mutant, copy: Path, status: int) -> list:
    """The node ids that passed in a child's run (empty: killed).

    A run that neither passed nor failed (a collection or usage error), one
    that imported dyadlab from elsewhere than the copy, or a node id that
    selects no test, raises RuntimeError."""
    where = copy / "where.txt"
    if where.is_file() and (copy / "src").resolve() not in Path(where.read_text()).resolve().parents:
        raise RuntimeError(f"dyadlab imported from {where.read_text()!r}, not the mutated copy")
    report = copy / "junit.xml"
    if status not in (0, 1) or not report.is_file():
        log = copy / "pytest.log"
        tail = "\n".join(log.read_text().splitlines()[-10:]) if log.is_file() else ""
        raise RuntimeError(f"pytest exit {status}\n{tail}")
    cases = [(case.get("classname"), case.get("name"),
              case.find("failure") is not None or case.find("error") is not None)
             for case in ET.parse(report).iter("testcase")]
    return [node for node in mutant.tests if not node_failed(node, cases)]


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
    preload()
    start = time.perf_counter()
    todo = list(enumerate(chosen))
    running = {}  # pid -> (catalogue index, copy, start time)
    done = {}  # catalogue index -> (survivors or the error, seconds)
    shown = bad = 0
    while todo or running:
        while todo and len(running) < (os.cpu_count() or 1):
            i, m = todo.pop(0)
            t0 = time.perf_counter()
            copy = Path(tempfile.mkdtemp(prefix="dyadlab-mutant-"))
            try:
                prepare(m, copy)
            except LookupError as exc:
                shutil.rmtree(copy)
                done[i] = exc, time.perf_counter() - t0
                continue
            loaded = sorted(n for n in sys.modules if n == "dyadlab" or n.startswith("dyadlab."))
            if loaded or threading.active_count() > 1:
                raise RuntimeError(f"the runner imported {loaded} or started a thread; a fork would hand it on")
            pid = os.fork()
            if pid == 0:
                child(m, copy)
            running[pid] = i, copy, t0
        if running:
            pid, status = os.wait()
            i, copy, t0 = running.pop(pid)
            try:
                out = verdict(chosen[i], copy, os.waitstatus_to_exitcode(status))
            except RuntimeError as exc:
                out = exc
            shutil.rmtree(copy, ignore_errors=True)
            done[i] = out, time.perf_counter() - t0
        while shown in done:
            m, (out, seconds) = chosen[shown], done.pop(shown)
            shown += 1
            if isinstance(out, Exception):
                print(f"ERROR     {m.name}: {out}", flush=True)
                bad += 1
                continue
            status = "SURVIVED" if out else "killed"
            print(f"{status:<9} {m.name} ({seconds:.1f} s)", flush=True)
            for node in out:
                print(f"          passes: {node}")
            bad += bool(out)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""The one-function-at-a-time norm estimate, kept as an oracle for
normest.estimate_norm and the estimates of normest.equivalence_report.

iter_family yields the test functions one by one, each with its label:
every indicator written through its scan's cell block, every random
step drawn on its own, and the duality functions split out of their
chunks.  estimate_norm applies the registry operator to one function at
a time and takes its norms as one-row cases of lp_norms and
weak_lq_norms.  normest evaluates the same family in multi-row chunks,
the indicators, the steps and the duality functions alike, and shares
the plain rows of the equivalence report's forward estimates, so its
estimates must equal these in value bits, argmax label and family size,
also when a chunk boundary falls at a tied maximum or a stop lands
inside a chunk, and it must raise the NormError this raises.
"""
import math

import numpy as np

from dyadlab import normest
from dyadlab.constants import _require_dim
from dyadlab.normest import NormError, NormEstimate, TestFamily, _blocks_for, _inside_cubes, _side
from dyadlab.operators import OPERATORS, MissingInputError, _grids
from dyadlab.sampled import lp_norms, parse_rational, weak_lq_norms
from dyadlab.scan import cell_block, cube_cells, iter_scans


def iter_family(op, pair, e, family, side, alpha, min_level, max_level, phi):
    """(label, values) of each test function of the family, on the mesh
    of the pair; the indicators' cells are read from the scans' integer
    plans."""
    mesh = pair.u
    source = pair.sigma if side == "forward" else pair.u

    if family.indicators:
        for label, scan, pos, _mass in _inside_cubes(mesh, source, None, min_level, max_level):
            arr = np.zeros_like(mesh.values)
            cell_block(scan, arr, pos)[...] = 1.0
            yield f"chi[{label}]", arr

    if family.random_steps > 0:
        rng = np.random.default_rng(family.seed)
        blocks = _blocks_for(mesh.ncells)
        reps = mesh.ncells // blocks
        for k in range(family.random_steps):
            coarse = rng.exponential(1.0, size=(blocks,) * mesh.dim)
            vals = coarse
            for ax in range(mesh.dim):
                vals = np.repeat(vals, reps, axis=ax)
            yield f"step[{k}]", vals

    if family.duality:
        other = pair.u if side == "forward" else pair.sigma
        expo = float(e.pprime - 1) if side == "forward" else float(e.q - 1)
        zero_shift = [(0,) * mesh.dim]
        grid, = _grids(mesh, zero_shift, min_level, max_level)
        scans = iter_scans(mesh, grid)
        cubes = list(_inside_cubes(mesh, other, zero_shift, min_level, max_level))
        lev = np.array([list(scans).index(scan) for _, scan, _, _ in cubes], dtype=np.int64)
        pos = np.array([cube_pos for _, _, cube_pos, _ in cubes], dtype=np.int64).reshape(len(cubes), mesh.dim)
        batch = max(1, normest.CHAIN_BATCH_FLOATS // mesh.values.size)
        for start in range(0, len(cubes), batch):
            part = slice(start, start + batch)
            chi = cube_cells(scans, lev[part], pos[part])
            seeds = OPERATORS[op](mesh, chi.astype(np.float64), other, alpha, phi, None, min_level, max_level)
            for (label, _, _, _), live, seed in zip(cubes[part], chi & (seeds > 0), seeds):
                if not np.any(live):
                    continue
                arr = np.zeros_like(seed)
                with np.errstate(over="ignore"):
                    arr[live] = seed[live] ** expo
                if not np.all(np.isfinite(arr)):
                    continue
                yield f"dual[chi[{label}]]", arr


def _finite(value, what: str, name: str):
    """value, when it is finite everywhere; NormError naming the test function otherwise."""
    if not np.all(np.isfinite(value)):
        raise NormError(f"{what} of the test function {name} is not finite")
    return value


def estimate_norm(op, pair, e, family=None, side="forward", weak=False, alpha=None, phi=None,
                  min_level=None, max_level=None):
    """normest.estimate_norm, one test function at a time."""
    if op not in OPERATORS:
        raise NormError(f"unknown operator id {op!r}")
    _require_dim(pair, e, NormError)
    fam = family if family is not None else TestFamily()

    source, target = _side(pair, e, side).labels(weak)
    if side == "forward":
        dens, src_w, src_p = pair.sigma, pair.sigma, float(e.p)
        tgt_w, tgt_q = pair.u, float(e.q)
    else:
        dens, src_w, src_p = pair.u, pair.u, float(e.qprime)
        tgt_w, tgt_q = pair.sigma, float(e.pprime)

    a = float(e.alpha) if alpha is None else float(parse_rational(alpha))
    mesh = pair.u
    target_norms = weak_lq_norms if weak else lp_norms

    best = -math.inf
    arg = None
    count = tried = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for name, f in iter_family(op, pair, e, fam, side, a, min_level, max_level, phi):
                tried += 1
                den = _finite(lp_norms(mesh, f, src_p, weight=src_w)[0], "the source norm", name)
                if not den > 0:
                    continue
                g = _finite(OPERATORS[op](mesh, f, dens, a, phi, None, min_level, max_level), "the image", name)
                num = _finite(target_norms(mesh, g, tgt_q, weight=tgt_w)[0], "the target norm", name)
                count += 1
                ratio = num / den
                if ratio > best:
                    best, arg = ratio, name
    except MissingInputError as exc:
        raise NormError(str(exc)) from None
    if tried == 0:
        raise NormError("the test family is empty")
    if count == 0:
        raise NormError("every test function had zero source norm")
    return NormEstimate(op, source, target, best, arg, count)


def equivalence_estimates(pair, e, family=None, min_level=None, max_level=None) -> dict:
    """The estimates of normest.equivalence_report on a pair with no
    vanishing weight, one estimate_norm call each, in the report's order:
    the first that fails raises."""
    return {key: estimate_norm(op, pair, e, family, side=side, weak=weak, min_level=min_level, max_level=max_level)
            for key, (op, side, weak) in normest._EQUIVALENCE_ESTIMATES.items()}

"""Every function defined in the library is reached by the default
`dyadlab run` or by one call of each documented subcommand choice, or it
stands on ALLOWED with the reason it is kept.

The functions are found with ast in the modules of the imported package,
wherever it was imported from, and named by module and qualified name
("grid.Box.volume", "constants.apq_bump.<locals>.fn").  The trace records
the code object of every Python frame that runs while the commands do
(sys.settrace); a function is reached when its code object is among
them.  The default run uses one worker, so the trace of one thread sees
all of it.
"""
import ast
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import dyadlab
from dyadlab.cli import main
from dyadlab.constants import WeightPair
from dyadlab.sampled import SampledFunction

SRC = Path(dyadlab.__file__).resolve().parent

BENCH = "perfbench calls it, or it is a helper of a function perfbench calls; no verdict reads it yet"
ORACLE = "test oracle: tests check the library against it"
ONE_ROW = "public one-row form of a registry operator that the commands call"
PROTOCOL = "YoungFunction protocol: the abstract methods, and the methods of a Young function outside PowerLog"

ALLOWED = {
    **dict.fromkeys([
        "constants.apq_bump",
        "constants.apq_bump.<locals>.fn",
        "constants.outer_testing_constant",
        "constants.outer_testing_constant.<locals>.tree_sums",
        "constants.outer_testing_constant.<locals>.fn",
        "constants.md_sp_testing",
        "constants.md_sp_testing.<locals>.fn",
        "normest.orlicz_norm_quadrature",
        "normest.unit_pair",
        "orlicz.PowerLog.comparable_associate",
        "scan.level_scan",
        "scan.parent_positions",
        "grid.GridFamily.__iter__",
        "grid.Box.volume",
        "sparse.CarlesonSequence.__init__",
        "sparse.CarlesonSequence.from_function",
        "sparse.subtree_sums",
        "sparse.certify_carleson",
    ], BENCH),
    **dict.fromkeys([
        "constants.apq_alpha",
        "sampled.average",
        "sampled.SampledFunction.integrate_box",
        "grid.Box.upper",
        "grid.Box.contains_point",
        "grid.Box.intersects",
        "grid.Box.intersection_volume",
        "grid.GridFamily.owner_index",
        "grid.shifted_grids",
        "scan.LevelScan.owners",
        "sampled.SampledFunction.cell_centers",
        "sampled.SampledFunction.__add__",
    ], ORACLE),
    **dict.fromkeys([
        "operators.weighted_dyadic_maximal",
        "operators.orlicz_maximal",
    ], ONE_ROW),
    **dict.fromkeys([
        "orlicz.YoungFunction.eval",
        "orlicz.YoungFunction.log_eval",
        "orlicz.NumericConjugate.log_eval",
        "orlicz.PowerScaled.log_eval",
    ], PROTOCOL),
}


def defined_functions() -> dict:
    """{"module.qualname": "file:line"} of every def in the package."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.setdefault(f"{path.stem}.{name}", f"{path.name}:{child.lineno}")
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return found


def commands(tmp: Path) -> list:
    """The default run, and one call per documented subcommand choice, on
    24-cell inputs."""
    rng = np.random.default_rng(5)
    f = SampledFunction(1, (0,), 1, rng.uniform(0.3, 2.0, 24))
    w = SampledFunction(1, (0,), 1, rng.uniform(0.5, 1.5, 24))
    p = {}
    for key, obj in {"f": f, "w": w, "pair": WeightPair(w.power(4.0), w.power(-4.0))}.items():
        p[key] = str(tmp / f"{key}.json")
        Path(p[key]).write_text(json.dumps(obj.to_obj()))
    e = ["--exponents", "1,1/2,4/3,4"]
    cube = json.dumps({"dim": 1, "level": 1, "index": [0], "shift": [0]})
    ops = [["ops", name, "-i", p["f"], "--alpha", "1/2"]
           for name in ("frac_maximal", "dyadic_frac_maximal", "dyadic_riesz", "riesz_1d")]
    ops += [["ops", "orlicz_maximal", "-i", p["f"], "--young", "log-bump:p=2,delta=0.5"],
            ["ops", "weighted_dyadic_maximal", "-i", p["f"], "--mu", p["w"]],
            ["ops", "outer_riesz", "-i", p["f"], "--alpha", "1/2", "--cube", cube]]
    sparse = [["sparse", "build", "-i", p["f"]], ["sparse", "verify", "-i", p["f"]],
              ["sparse", "apply", "-i", p["f"], "--form", "chi"],
              ["sparse", "apply", "-i", p["f"], "--apply-to", p["w"], "--form", "disjoint"]]
    constants = [["constants", "compute", "--which", which, "--pair", p["pair"], *e] for which in ("all", "apq_alpha")]
    norms = [["norms", action, "--pair", p["pair"], *e, "--family-steps", "1"] for action in ("estimate", "equiv")]
    examples = [["examples", "case1"], ["examples", "case2", "--max-exp", "10"],
                ["examples", "factored", "--train", "--window", "64", "--exponents", "1,1/2,2,2"],
                ["examples", "classical", "--weight", p["w"]]]
    return [["run", "--out", str(tmp / "run")], *ops, *sparse, *constants, *norms, *examples]


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    """The names of the package functions that the commands run.  The
    package's functools caches are emptied first, so that what earlier
    tests left in them does not hide a call."""
    for name, module in list(sys.modules.items()):
        if name.startswith("dyadlab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    codes = set()
    outer = sys.gettrace()
    for argv in commands(tmp_path_factory.mktemp("reach")):
        # called at each Python frame's start; returning None asks for no line events
        sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
        finally:
            sys.settrace(outer)
        assert rc == 0, argv
    return {f"{Path(c.co_filename).stem}.{c.co_qualname}" for c in codes
            if Path(c.co_filename).resolve().parent == SRC}


def test_every_function_reached_or_allowed(reached):
    missing = [f"{where} {name}" for name, where in defined_functions().items()
               if name not in reached and name not in ALLOWED]
    assert missing == [], "reached by no command and not on ALLOWED:\n" + "\n".join(missing)


def test_allowed_functions_are_unreached(reached):
    assert sorted(set(ALLOWED) & reached) == []


def test_allowed_functions_exist():
    assert sorted(set(ALLOWED) - set(defined_functions())) == []

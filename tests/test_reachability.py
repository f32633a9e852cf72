"""Every statement of the library runs in one of the commands below, or it
is a raise, or it stands in a function that ALLOWED keeps for the reason
it gives.

The commands are the default `dyadlab run`, the 2-D config of the CI
artifact step, two suites in run_suite's thread pool under a config that
reads its pair from a file, the counterexample suite with its two flags,
one config error (exit 2), and one call of each documented subcommand
choice, which between them pass every documented flag, on 24-cell
inputs.  The 2-D run leaves out the orlicz suite, which reads neither the
mesh nor the exponents, so it would only repeat the default run's.

The statements are found with ast in the modules of the imported package,
wherever it was imported from: the statements in the body of each def,
nested blocks included, under the module and qualified name of the def
("grid.Box.volume", "constants.apq_bump.<locals>.fn").  A nested def is
one statement of the function around it, and a function of its own.  A
statement is reached when a line of its header (all of a simple
statement) gets a line event.  sys.settrace, and threading.settrace for
the thread pool, hand a line tracer to the frames of package code only,
and stop tracing a code object once every line it holds has had its
event.
"""
import ast
import contextlib
import io
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dyadlab
from dyadlab.cli import main
from dyadlab.constants import WeightPair
from dyadlab.sampled import SampledFunction

SRC = Path(dyadlab.__file__).resolve().parent

BENCH = "perfbench calls it, or it is a helper of a function perfbench calls; no verdict reads it yet"
BENCH_BRANCH = "the branch that perfbench runs and no command does: "
ONE_ROW = "public one-row form of a registry operator that the commands call"
PROTOCOL = "YoungFunction protocol: a method of a Young function outside PowerLog, or eval's scalar form"

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
    "sampled.SampledFunction.integrate_box": (
        "perfbench/probes.py times it in every traced run, and perfbench/selfcheck.py, a CI step, runs traced"),
    "constants.mixed_one_sup": BENCH_BRANCH + 'flavor="apq_exp"',
    "constants.mixed_one_sup.<locals>.fn": BENCH_BRANCH + 'the per-scan values of flavor="apq_exp"',
    "constants.sawyer_maximal_testing": BENCH_BRANCH + 'which="dual"',
    **dict.fromkeys([
        "operators.weighted_dyadic_maximal",
        "operators.orlicz_maximal",
    ], ONE_ROW),
    **dict.fromkeys([
        "orlicz.NumericConjugate.eval",
        "orlicz.NumericConjugate.log_eval",
        "orlicz.PowerScaled.log_eval",
    ], PROTOCOL),
    # defensive branches: data that no command or perfbench input produces
    "normest.equivalence_report": "the degenerate pair: a weight that is zero everywhere gets zero estimates "
                                  "and failing testing and duality records",
    "operators.outer_riesz": "the off-window cube: its shells carry no mass, so the potential is zero",
    **dict.fromkeys([
        "grid.GridFamily.axis_index_range",
        "grid.GridFamily.cubes_at_level",
        "grid.Box.contains_box",
        "sampled.SampledFunction.cell_slices",
    ], "the empty window: it meets no cube, a box off the window meets no cell, and every box contains "
       "an empty box"),
    "normest._evaluate.<locals>.feed": "the non-finite stop: a test function whose image or norm overflows ends "
                                       "its estimate with an error",
    **dict.fromkeys([
        "orlicz.luxemburg",
        "orlicz.luxemburg.<locals>.log_mean",
    ], "the norm-0 and fallback steps of the Luxemburg solve: norm 0 when the mean stays at most 1 as "
       "lambda falls, a second upward doubling, the midpoint where a secant step leaves the bracket or the "
       "mean overflows; and the closed form for a plain power, which the operators take before calling it"),
    "cli._worst": "a check over no values, such as conjugate_involution under \"young\": [], is vacuous",
    "cli._sparse_domination": "a cell where the maximal function is positive and the sparse sum is not "
                              "fails the check; the stopping construction leaves none",
    "constants._cut_maximal_integrals": "a scan with no live cube needs no cut maximal",
    "orlicz.bp_classify": "the inconclusive tail verdict, between the two decay thresholds",
    "grid._as_fraction": "the one rational parser's numpy-integer input, which no JSON input yields",
}


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement that run when it starts: all of a simple
    statement, the lines before the body of a compound one (decorators
    included)."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, stmt.lineno + 1))
    return range(first, stmt.end_lineno + 1)


def _blocks(stmt: ast.stmt):
    """The statement lists nested in a compound statement."""
    for name in ("body", "orelse", "finalbody"):
        yield getattr(stmt, name, None) or []
    for part in getattr(stmt, "handlers", []) + getattr(stmt, "cases", []):
        yield part.body


def _body(fn) -> list:
    """The statements of a def, its docstring left out."""
    doc = fn.body and isinstance(fn.body[0], ast.Expr) and isinstance(fn.body[0].value, ast.Constant)
    return fn.body[1:] if doc else fn.body


def module_statements(source: str, path: Path) -> dict:
    """{"module.qualname": [(file name, header lines, line), ...]}: the
    statements of each def in one module that carry bytecode, raises left
    out."""
    codes, live = [compile(source, str(path), "exec")], set()
    while codes:
        code = codes.pop()
        live.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    found = {}

    def statements(body, name):
        for stmt in body:
            if isinstance(stmt, ast.Raise):
                continue
            header = _header(stmt)
            if live.intersection(header):
                found[name].append((path.name, header, stmt.lineno))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(stmt, f"{name}.<locals>.")
            elif not isinstance(stmt, ast.ClassDef):
                for block in _blocks(stmt):
                    statements(block, name)

    def function(fn, prefix):
        name = prefix + fn.name
        found.setdefault(name, [])
        statements(_body(fn), name)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function(child, prefix)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")

    walk(ast.parse(source), f"{path.stem}.")
    return found


def function_statements() -> dict:
    """module_statements of every module of the package."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        found.update(module_statements(path.read_text(), path))
    return found


def commands(tmp: Path) -> list:
    """(argv, exit status) of each command, as the module docstring lists them."""
    rng = np.random.default_rng(5)
    f = SampledFunction(1, (0,), 1, rng.uniform(0.3, 2.0, 24))
    w = SampledFunction(1, (0,), 1, rng.uniform(0.5, 1.5, 24))
    p = {}
    # the 2-D config is the CI artifact step's; the pool config's exponents are JSON floats, off the Sobolev line
    for key, obj in {"f": f.to_obj(), "w": w.to_obj(), "pair": WeightPair(w.power(4.0), w.power(-4.0)).to_obj(),
                     "2d": {"exponents": {"n": 2, "alpha": "1", "p": "4/3", "q": "4"}, "mesh": {"cells_per_axis": 12}},
                     "typo": {"mesh": {"cels_per_axis": 96}}}.items():
        p[key] = str(tmp / f"{key}.json")
        Path(p[key]).write_text(json.dumps(obj))
    p["pool"] = str(tmp / "pool.json")
    Path(p["pool"]).write_text(json.dumps({
        "exponents": {"n": 1, "alpha": 0.5, "p": 1.5, "q": 4}, "mesh": {"cells_per_axis": 24},
        "pairs": [{"kind": "file", "params": {"path": p["pair"]}}]}))
    out = lambda name: ["-o", str(tmp / name)]
    e = ["--exponents", "1,1/2,4/3,4"]
    cube = json.dumps({"dim": 1, "level": 1, "index": [0], "shift": [0]})
    two_d = [arg for s in ("geometry", "operators", "sparse", "constants", "equivalence", "counterexample")
             for arg in ("--suite", s)]
    runs = [(["run", "--out", str(tmp / "run")], 0),
            (["run", "--config", p["2d"], *two_d, "--out", str(tmp / "run2d")], 0),
            (["run", "--config", p["pool"], "--suite", "constants", "--suite", "equivalence", "--workers", "2",
              "--seed", "1", "--out", str(tmp / "pool")], 0),
            (["run", "--suite", "counterexample", "--gamma", "1/2", "--window", "65536", "--out", str(tmp / "cx")], 0),
            (["run", "--config", p["typo"], "--out", str(tmp / "typo")], 2)]
    ops = [["ops", "frac_maximal", "-i", p["f"], "--alpha", "1/2", "--shift", "1", "--levels", "0..2", *out("mf.json")],
           ["ops", "dyadic_frac_maximal", "-i", p["f"], "--alpha", "1/2"],
           ["ops", "dyadic_riesz", "-i", p["f"], "--alpha", "1/2", "--csv", str(tmp / "riesz.csv")],
           ["ops", "riesz_1d", "-i", p["f"], "--alpha", "1/2"],
           ["ops", "orlicz_maximal", "-i", p["f"], "--young", "log-bump:p=2,delta=0.5"],
           ["ops", "weighted_dyadic_maximal", "-i", p["f"], "--mu", p["w"], "--alpha", "1/4"],
           ["ops", "outer_riesz", "-i", p["f"], "--alpha", "1/2", "--cube", cube]]
    sparse = [["sparse", "build", "-i", p["f"], "--alpha", "1/2", "--ratio", "8", "--shift", "1", "--levels", "0..3",
               *out("fam.json")],
              ["sparse", "verify", "-i", p["f"], "--alpha", "1/2"],
              ["sparse", "apply", "-i", p["f"], "--form", "chi"],
              ["sparse", "apply", "-i", p["f"], "--apply-to", p["w"], "--form", "disjoint"]]
    constants = [["constants", "compute", "--which", "all", "--pair", p["pair"], *e, "--levels", "0..2",
                  *out("all.csv")],
                 ["constants", "compute", "--which", "apq_alpha", "--pair", p["pair"], *e]]
    norms = [["norms", "estimate", "--pair", p["pair"], *e, "--family-steps", "1", "--op", "dyadic_riesz",
              "--side", "dual", "--weak", "--alpha", "1/4", "--levels", "0..3", "--seed", "3", *out("est.json")],
             ["norms", "estimate", "--pair", p["pair"], *e, "--family-steps", "1", "--op", "orlicz_maximal",
              "--young", "power:r=2"],
             ["norms", "equiv", "--pair", p["pair"], *e, "--family-steps", "1"]]
    examples = [["examples", "case1", "--window-exp", "4", "--cells-per-unit", "6", "--csv", str(tmp / "case1.csv")],
                ["examples", "case2", "--gamma", "1/2", "--max-exp", "10", "--csv", str(tmp / "case2.csv")],
                ["examples", "factored", "--train", "--window", "64", "--exponents", "1,1/2,2,2",
                 "--csv", str(tmp / "factored.csv")],
                ["examples", "factored", "--w1", p["w"], "--w2", p["w"]],
                ["examples", "classical", "--weight", p["w"], *e, *out("classical.json")]]
    return runs + [(argv, 0) for argv in ops + sparse + constants + norms + examples]


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set:
    """The (file name, line) pairs of the package that the commands run.
    The package's functools caches are emptied first, so that what earlier
    tests left in them does not hide a line."""
    for name, module in list(sys.modules.items()):
        if name.startswith("dyadlab."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    files = {str(path) for path in SRC.glob("*.py")}
    left = {}  # code object of the package -> its lines that have had no line event yet
    other = set()  # the code objects of everything else

    def lines(frame, event, arg):
        if event == "line":
            todo = left[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo:
                return None
        return lines

    def calls(frame, event, arg):
        code = frame.f_code
        todo = left.get(code)
        if todo is None:
            if code in other or str(Path(code.co_filename).resolve()) not in files:
                other.add(code)
                return None
            # the first line holds the def, which the frame around it ran
            todo = left[code] = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
        return lines if todo else None

    outer = sys.gettrace(), threading.gettrace()
    for argv, status in commands(tmp_path_factory.mktemp("reach")):
        sys.settrace(calls)
        threading.settrace(calls)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        finally:
            sys.settrace(outer[0])
            threading.settrace(outer[1])
        assert rc == status, argv
    return {(Path(code.co_filename).name, line) for code, todo in left.items()
            for _, _, line in code.co_lines() if line is not None and line not in todo}


def unreached(reached: set) -> dict:
    """{"module.qualname": ["file:line", ...]} of the statements no command reaches."""
    return {name: [f"{where}:{line}" for where, header, line in stmts
                   if not any((where, h) in reached for h in header)]
            for name, stmts in function_statements().items()}


def test_every_statement_reached_or_allowed(reached):
    missing = [f"{where} {name}" for name, lines in unreached(reached).items() if name not in ALLOWED
               for where in lines]
    assert missing == [], "reached by no command, not a raise, and not on ALLOWED:\n" + "\n".join(missing)


def test_allowed_functions_keep_an_unreached_statement(reached):
    gaps = unreached(reached)
    assert sorted(name for name in ALLOWED if not gaps.get(name)) == []


def test_allowed_functions_exist():
    assert sorted(set(ALLOWED) - set(function_statements())) == []


def test_statements_of_a_function():
    # headers, nested blocks and nested defs count, each def under its own
    # name; raises, docstrings and statements without bytecode do not
    src = ('def f(x):\n    """doc"""\n    if (x and\n            x > 1):\n        raise ValueError(x)\n'
           '    for i in range(x):\n        x += i\n    def g():\n        return 1\n    return g\n'
           'class C:\n    def h(self):\n        global G\n        return 2\n')
    assert module_statements(src, Path("m.py")) == {
        "m.f": [("m.py", range(3, 5), 3), ("m.py", range(6, 7), 6), ("m.py", range(7, 8), 7),
                ("m.py", range(8, 9), 8), ("m.py", range(10, 11), 10)],
        "m.f.<locals>.g": [("m.py", range(9, 10), 9)],
        "m.C.h": [("m.py", range(14, 15), 14)],
    }

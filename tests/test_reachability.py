"""Every statement of the library runs in one of the commands below, or it
is a raise, or it stands in a function that ALLOWED keeps for the reason
it gives.

The commands are the default `dyadlab run`, the 2-D config of the CI
artifact step, two suites at seed 1 under a config that reads its pair
from a file and gives its exponents as JSON floats, the counterexample
suite with its two flags, one config error (exit 2), and one call of
each documented subcommand choice, which between them pass every
documented flag, on 24-cell inputs.  The 2-D run leaves out the orlicz
suite, which reads neither the mesh nor the exponents, so it would only
repeat the default run's.

Ten more commands give the edge branches the input that produces them,
each with its exit status: the orlicz suite on a borderline Young
function of p = 2, q = 4, eps = 1.1 (an inconclusive tail, rho = -0.05;
exit 0) and on an empty Young list (a vacuous conjugate_involution;
exit 1); `norms equiv` (exit 0) and `constants compute --which
ainfty_m_u` (no live cube, a vacuous report; exit 1) on a pair whose u
is zero everywhere; `ops outer_riesz` on a cube off the window (exit 0);
`ops orlicz_maximal` of a constant function under t^1100 log(e + t),
whose mean overflows at half the first lambda of each Luxemburg bracket
(exit 0); `norms estimate` on a constant pair of u = 1 whose sigma
overflows the image of the first cube indicator (sigma = 1.7e308) or
the source norm of the first random step (sigma = 1e250, p = 100,
q = 11/10); and `dyadlab run` on a config that is not an object (`[]`)
and with `--window 64` over a counterexample that is not one
(`{"counterexample": 5}`): each of these four with exit 2 and the start
of its error message.

The statements are found with ast in the modules of the imported package,
wherever it was imported from: the statements in the body of each def,
nested blocks included, under the module and qualified name of the def
("grid.Box.volume", "constants.apq_bump.<locals>.fn").  A nested def is
one statement of the function around it, and a function of its own.  A
statement is reached when a line of its header (all of a simple
statement) gets a line event.  sys.settrace hands a line tracer to the
frames of package code only, and stops tracing a code object once every
line it holds has had its event.
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
BENCH_BRANCH = "the branch that perfbench runs and no command does: "
ONE_ROW = "public one-row form of a registry operator that the commands call"
PROTOCOL = "YoungFunction protocol: a method of a Young function outside PowerLog"

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
    "orlicz.PowerScaled.log_eval": PROTOCOL,
    # defensive branches: data that no command or perfbench input produces
    "sampled.SampledFunction.cell_slices": "a box off the window meets no cell: its slice on that axis is empty",
    "orlicz.luxemburg": "the closed form for a plain power, which the operators take before calling it and "
                        "which stays as the reference that test_generic_path_matches_power holds the Illinois "
                        "path to",
    "cli._sparse_domination": "a cell where the maximal function is positive and the sparse sum is not "
                              "fails the check; the stopping construction leaves none",
    "grid._as_fraction": "the numpy-integer input, which no JSON input yields; it stays because _as_fraction "
                         "and _json_int share one integer rule",
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
    """(argv, exit status, start of stderr) of each command, as the module
    docstring lists them."""
    rng = np.random.default_rng(5)
    f = SampledFunction(1, (0,), 1, rng.uniform(0.3, 2.0, 24))
    w = SampledFunction(1, (0,), 1, rng.uniform(0.5, 1.5, 24))
    p = {}
    # the 2-D config is the CI artifact step's; the file-pair config's exponents are JSON floats, off the Sobolev line;
    # the zero pair's u is zero everywhere; the overflow pairs' u is 1 and their sigma near the float limit
    one = f.with_values(np.ones(24))
    for key, obj in {"f": f.to_obj(), "w": w.to_obj(), "pair": WeightPair(w.power(4.0), w.power(-4.0)).to_obj(),
                     "zero": WeightPair(w.with_values(np.zeros(24)), w.power(-4.0)).to_obj(),
                     "one": one.to_obj(),
                     "image-overflow": WeightPair(one, one.with_values(np.full(24, 1.7e308))).to_obj(),
                     "source-overflow": WeightPair(one, one.with_values(np.full(24, 1e250))).to_obj(),
                     "2d": {"exponents": {"n": 2, "alpha": "1", "p": "4/3", "q": "4"}, "mesh": {"cells_per_axis": 12}},
                     "typo": {"mesh": {"cels_per_axis": 96}},
                     "not-an-object": [], "cx-not-an-object": {"counterexample": 5},
                     "borderline": {"suites": ["orlicz"],
                                    "young": [{"family": "borderline", "params": {"p": 2, "q": 4, "eps": 1.1}}]},
                     "no-young": {"suites": ["orlicz"], "young": []}}.items():
        p[key] = str(tmp / f"{key}.json")
        Path(p[key]).write_text(json.dumps(obj))
    p["file-pair"] = str(tmp / "file-pair.json")
    Path(p["file-pair"]).write_text(json.dumps({
        "exponents": {"n": 1, "alpha": 0.5, "p": 1.5, "q": 4}, "mesh": {"cells_per_axis": 24},
        "pairs": [{"kind": "file", "params": {"path": p["pair"]}}]}))
    out = lambda name: ["-o", str(tmp / name)]
    e = ["--exponents", "1,1/2,4/3,4"]
    cube, off_window = (json.dumps({"dim": 1, "level": 1, "index": [m], "shift": [0]}) for m in (0, 5))
    two_d = [arg for s in ("geometry", "operators", "sparse", "constants", "equivalence", "counterexample")
             for arg in ("--suite", s)]
    runs = [(["run", "--out", str(tmp / "run")], 0),
            (["run", "--config", p["2d"], *two_d, "--out", str(tmp / "run2d")], 0),
            (["run", "--config", p["file-pair"], "--suite", "constants", "--suite", "equivalence", "--seed", "1",
              "--out", str(tmp / "file-pair")], 0),
            (["run", "--suite", "counterexample", "--gamma", "1/2", "--window", "65536", "--out", str(tmp / "cx")], 0),
            (["run", "--config", p["typo"], "--out", str(tmp / "typo")], 2),
            (["run", "--config", p["borderline"], "--out", str(tmp / "borderline")], 0),
            (["run", "--config", p["no-young"], "--out", str(tmp / "no-young")], 1)]
    edges = [(["norms", "equiv", "--pair", p["zero"], *e, "--family-steps", "1"], 0),
             (["constants", "compute", "--which", "ainfty_m_u", "--pair", p["zero"], *e], 1),
             (["ops", "outer_riesz", "-i", p["f"], "--alpha", "1/2", "--cube", off_window], 0),
             (["ops", "orlicz_maximal", "-i", p["one"], "--young", "power-log:r=1100,a=1"], 0)]
    errors = [(["norms", "estimate", "--pair", p["image-overflow"], *e], 2,
               "error: the image of the test function chi["),
              (["norms", "estimate", "--pair", p["source-overflow"], "--exponents", "1,1/2,100,11/10"], 2,
               "error: the source norm of the test function step[0] is not finite"),
              (["run", "--config", p["not-an-object"], "--out", str(tmp / "not-an-object")], 2,
               "error: config must be an object"),
              (["run", "--config", p["cx-not-an-object"], "--window", "64", "--out", str(tmp / "cx-not-an-object")], 2,
               "error: counterexample must be an object")]
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
    return ([(argv, status, "") for argv, status in runs + edges] + errors
            + [(argv, 0, "") for argv in ops + sparse + constants + norms + examples])


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

    outer = sys.gettrace()
    for argv, status, message in commands(tmp_path_factory.mktemp("reach")):
        sys.settrace(calls)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main(argv)
        finally:
            sys.settrace(outer)
        assert rc == status, argv
        assert err.getvalue().startswith(message), (argv, err.getvalue())
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

"""End-to-end checks for the command-line runner and one-shot tools."""
import csv
import json
import math
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dyadlab import cli
from dyadlab.cli import (
    CLIError,
    DEFAULT_CONFIG,
    _check,
    _dumps,
    _merge_config,
    _worst,
    main,
    run_suite,
    validate_config,
    young_from_spec,
)
from dyadlab.constants import WeightPair, apq_alpha_constant
from dyadlab.normest import NormError, estimate_norm
from dyadlab.operators import (
    OPERATORS,
    dyadic_frac_maximal,
    dyadic_riesz,
    frac_maximal,
    orlicz_maximal,
    weighted_dyadic_maximal,
)
from dyadlab.orlicz import log_bump
from dyadlab.pairs import classical_pair
from dyadlab.sampled import ExponentTuple, SampledFunction

from operator_oracle import riesz_1d_row

FAST_SUITES = ["geometry", "sparse", "constants", "counterexample"]
CHECK_FIELDS = {"name", "value", "bound", "sense", "cases", "margin", "vacuous", "passed"}


def write_function(path: Path, seed: int = 7, ncells: int = 24, lo: float = 0.3) -> SampledFunction:
    rng = np.random.default_rng(seed)
    f = SampledFunction(1, (0,), 1, rng.uniform(lo, 2.0, ncells))
    path.write_text(json.dumps(f.to_obj()))
    return f


def write_pair(path: Path, seed: int = 9) -> WeightPair:
    rng = np.random.default_rng(seed)
    w = SampledFunction(1, (0,), 1, rng.uniform(0.5, 1.5, 24))
    pair = WeightPair(w.power(4.0), w.power(-4.0), provenance="powers")
    path.write_text(json.dumps(pair.to_obj()))
    return pair


def _write_config(tmp_path: Path, cfg: dict) -> Path:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path: Path):
    with path.open() as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestConfig:
    def test_merge_is_recursive(self):
        merged = _merge_config(DEFAULT_CONFIG, {"counterexample": {"window": 128}})
        assert merged["counterexample"]["window"] == 128
        assert merged["counterexample"]["gamma"] == DEFAULT_CONFIG["counterexample"]["gamma"]
        assert merged["seed"] == DEFAULT_CONFIG["seed"]

    def test_default_config_validates(self):
        validate_config(_merge_config(DEFAULT_CONFIG, {}))

    def test_unknown_field_rejected(self):
        with pytest.raises(CLIError):
            validate_config(_merge_config(DEFAULT_CONFIG, {"bogus": 1}))

    def test_unknown_suite_rejected(self):
        with pytest.raises(CLIError):
            validate_config(_merge_config(DEFAULT_CONFIG, {"suites": ["nope"]}))

    def test_bad_mesh_rejected(self):
        cfg = _merge_config(DEFAULT_CONFIG, {"mesh": {"window": 1, "cells_per_axis": 100}})
        with pytest.raises(CLIError):
            validate_config(cfg)

    def test_bad_counterexample_gamma_rejected(self):
        cfg = _merge_config(DEFAULT_CONFIG, {"counterexample": {"gamma": "3/2", "window": 64}})
        with pytest.raises(CLIError):
            validate_config(cfg)

    def test_window_must_be_power_of_two(self):
        cfg = _merge_config(DEFAULT_CONFIG, {"counterexample": {"gamma": "1/2", "window": 100}})
        with pytest.raises(CLIError):
            validate_config(cfg)


class TestCheck:
    def test_record_and_margin(self):
        c = _check("c", 0.25, 1.0, 3)
        assert set(c) == CHECK_FIELDS
        assert c["passed"] and not c["vacuous"] and c["margin"] == 0.75 and c["sense"] == "<="
        over = _check("c", 1.5, 1.0, 3)
        assert not over["passed"] and over["margin"] == -0.5

    def test_at_least_sense(self):
        c = _check("c", 0.75, 0.5, 2, ">=")
        assert c["passed"] and c["margin"] == 0.25
        under = _check("c", 0.25, 0.5, 2, ">=")
        assert not under["passed"] and under["margin"] == -0.25

    def test_bound_itself_passes(self):
        assert _check("c", 1.0, 1.0, 1)["passed"] and _check("c", 1.0, 1.0, 1, ">=")["passed"]

    def test_vacuous_at_zero_cases(self):
        # a check that compared nothing is not a pass, whatever its value
        c = _check("c", 0.0, 1.0, 0)
        assert c["vacuous"] and not c["passed"] and c["margin"] is None

    def test_vacuous_without_a_value(self):
        c = _check("c", None, 1.0, 5, ">=")
        assert c["vacuous"] and not c["passed"] and c["margin"] is None

    def test_nan_fails(self):
        for sense in ("<=", ">="):
            c = _check("c", math.nan, 1.0, 4, sense)
            assert not c["vacuous"] and not c["passed"]

    def test_worst_keeps_nan(self):
        # Python's max would return 0.5 here and pass the check
        assert math.isnan(_worst([0.5, math.nan, 0.25]))
        assert not _check("c", _worst([0.5, math.nan, 0.25]), 1.0, 3)["passed"]
        assert _worst([0.5, 0.75, 0.25]) == 0.75 and _worst([0.5, 0.75, 0.25], ">=") == 0.25
        assert _worst([]) is None


class TestYoungSpec:
    def test_string_and_dict_forms_agree(self):
        a = young_from_spec("log-bump:p=2,delta=0.5")
        b = young_from_spec({"family": "log-bump", "params": {"p": 2, "delta": 0.5}})
        c = log_bump(2.0, 0.5)
        t = np.geomspace(0.1, 20.0, 50)
        assert np.allclose(a.eval(t), c.eval(t))
        assert np.allclose(b.eval(t), c.eval(t))

    def test_unknown_family_rejected(self):
        with pytest.raises(CLIError):
            young_from_spec("mystery:r=2")

    def test_wrong_parameters_rejected(self):
        with pytest.raises(CLIError):
            young_from_spec("power:bad=2")
        with pytest.raises(CLIError):
            young_from_spec("power:r=2,extra=1")

    def test_malformed_item_rejected(self):
        with pytest.raises(CLIError):
            young_from_spec("power:r")


class TestRunSuite:
    def test_all_default_suites_pass(self, tmp_path):
        rc = run_suite({}, tmp_path / "run")
        assert rc == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["passed"] is True
        assert sorted(report["suites"]) == sorted(DEFAULT_CONFIG["suites"])
        for suite, body in report["suites"].items():
            assert body["passed"], suite
            assert body["checks"], suite
            for c in body["checks"]:
                assert set(c) == CHECK_FIELDS, c["name"]
                assert c["vacuous"] is False and c["cases"] > 0, c["name"]

    def test_reports_are_deterministic(self, tmp_path):
        cfg = {"suites": FAST_SUITES}
        run_suite(dict(cfg), tmp_path / "a")
        run_suite(dict(cfg), tmp_path / "b")
        for name in ["report.json", "summary.csv", "schema.txt"]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        tables = sorted(p.name for p in (tmp_path / "a" / "tables").iterdir())
        assert tables == sorted(p.name for p in (tmp_path / "b" / "tables").iterdir())
        for name in tables:
            a = (tmp_path / "a" / "tables" / name).read_bytes()
            assert a == (tmp_path / "b" / "tables" / name).read_bytes()

    def test_degenerate_pair_fails_its_checks(self, tmp_path):
        # a pair with sigma = 0 measures nothing: its three equivalence
        # checks fail, and the run still writes its artifacts
        src = tmp_path / "zero.json"
        ones = SampledFunction.constant(1.0, 1, (0,), 1, 48)
        src.write_text(json.dumps(WeightPair(ones, SampledFunction.constant(0.0, 1, (0,), 1, 48)).to_obj()))
        cfg = {"suites": ["equivalence"],
               "pairs": [{"kind": "classical-smooth"}, {"kind": "file", "params": {"path": str(src)}}]}
        assert run_suite(cfg, tmp_path / "run") == 1
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        failed = [c["name"] for c in report["suites"]["equivalence"]["checks"] if not c["passed"]]
        assert failed == ["testing_chain[file]", "duality_chain[file]", "dyadic_maximal_below_strong[file]"]

    def test_empty_suite_list_refused(self, tmp_path):
        # a run of no suite checks nothing, so it is refused rather than passed
        with pytest.raises(CLIError, match="at least one suite"):
            run_suite({"suites": []}, tmp_path / "empty")
        assert not (tmp_path / "empty").exists()

    def test_no_young_function_is_vacuous(self, tmp_path):
        rc = main(["run", "--config", str(_write_config(tmp_path, {"young": []})),
                   "--suite", "orlicz", "--out", str(tmp_path / "run")])
        assert rc == 1
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        checks = {c["name"]: c for c in report["suites"]["orlicz"]["checks"]}
        assert checks["conjugate_involution"]["vacuous"] is True
        assert checks["conjugate_involution"]["cases"] == 0
        assert not checks["conjugate_involution"]["passed"]
        assert all(c["passed"] for name, c in checks.items() if name != "conjugate_involution")

    def test_schema_documents_every_table(self, tmp_path):
        run_suite({"suites": FAST_SUITES}, tmp_path / "run")
        schema = (tmp_path / "run" / "schema.txt").read_text()
        for p in (tmp_path / "run" / "tables").iterdir():
            assert f"{p.name}:" in schema
        assert "summary.csv:" in schema

    def test_report_embeds_configuration(self, tmp_path):
        run_suite({"suites": ["geometry"], "seed": 99}, tmp_path / "run")
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["seed"] == 99
        assert report["config"]["exponents"]["p"] == "4/3"
        suite = json.loads((tmp_path / "run" / "geometry.json").read_text())
        assert all("passed" in c and "name" in c for c in suite["checks"])

    def test_each_input_built_once(self, tmp_path, monkeypatch):
        # validate_config builds each pair and Young function, and the suites take them from it
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_load_obj", "_pair_from_spec", "young_from_spec"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        write_pair(tmp_path / "pair.json")
        cfg = {"suites": ["orlicz", "equivalence"], "mesh": {"cells_per_axis": 24},
               "young": [{"family": "power", "params": {"r": 2.0}}],
               "pairs": [{"kind": "file", "params": {"path": str(tmp_path / "pair.json")}},
                         {"kind": "random", "params": {"seed": 11}}, {"kind": "classical-smooth"}]}
        assert run_suite(cfg, tmp_path / "run") == 0
        assert calls == {"_load_obj": 1, "_pair_from_spec": 3, "young_from_spec": 1}

    def test_summary_lists_every_check(self, tmp_path):
        run_suite({"suites": FAST_SUITES}, tmp_path / "run")
        header, rows = read_csv(tmp_path / "run" / "summary.csv")
        assert header == ["suite", "check", "passed"]
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        n_checks = sum(len(b["checks"]) for b in report["suites"].values())
        assert len(rows) == n_checks
        assert all(r[2] == "1" for r in rows)


class TestRunCommand:
    def test_counterexample_flags_emit_table(self, tmp_path):
        out = tmp_path / "cx"
        rc = main(["run", "--suite", "counterexample", "--gamma", "1/2",
                   "--window", "256", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out / "tables" / "counterexample_case2.csv")
        assert header == ["X", "S", "H", "ratio"]
        xs = [float(r[0]) for r in rows]
        assert xs[0] == 4.0 and xs[-1] == 256.0
        s_vals = [float(r[1]) for r in rows]
        h_vals = [float(r[2]) for r in rows]
        assert all(s >= h for s, h in zip(s_vals, h_vals))
        assert s_vals == sorted(s_vals)

    def test_counterexample_suite_passes_at_the_smallest_window(self, tmp_path):
        # 2^3 lies below the mesh cross-check's window [0, 128)
        rc = main(["run", "--suite", "counterexample", "--window", "8", "--out", str(tmp_path / "cx")])
        assert rc == 0

    def test_config_file_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suites": ["geometry"], "seed": 3}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert rc == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert list(report["suites"]) == ["geometry"]
        assert report["config"]["seed"] == 3

    def test_flags_override_the_file_key_by_key(self, tmp_path):
        # the defaults, then the file, then the flags, each flag over its own key only
        cfg = {"suites": ["counterexample"], "seed": 3, "counterexample": {"gamma": "1/4", "window": 128}}
        rc = main(["run", "--config", str(_write_config(tmp_path, cfg)), "--seed", "5", "--window", "256",
                   "--suite", "geometry", "--out", str(tmp_path / "run")])
        assert rc == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert report["config"]["seed"] == 5
        assert report["config"]["counterexample"] == {"gamma": "1/4", "window": 256}
        assert report["config"]["suites"] == ["geometry"] and list(report["suites"]) == ["geometry"]
        assert report["config"]["mesh"] == DEFAULT_CONFIG["mesh"]

    @pytest.mark.parametrize("override,flags", [pytest.param(cfg, flags, id=" ".join([repr(cfg), *flags]))
                                                for cfg, flags in [
        ({"suites": ["nope"]}, []),
        ({"seed": None}, []),
        ({"exponents": None}, []),
        ({"exponents": {"n": None}}, []),
        ({"counterexample": {"window": None}}, []),
        ({"pairs": [{"kind": "file"}]}, []),
        ({"pairs": [{"kind": "file", "params": {"path": "none.json"}}]}, []),
        ({"pairs": [{"kind": "bogus"}]}, []),
        ({"pairs": None}, []),
        ({"young": [{"family": "power", "params": None}]}, []),
        ({"young": [{"family": "power", "params": {"r": None}}]}, []),
        ({"mesh": {"cells_per_axis": 0}}, []),
        ({"suites": []}, []),
        ({"suites": ["equivalence"], "pairs": []}, []),
        ({"young": ["power:r=2"]}, []),
        # once truncated to 48 cells and seed 3 while report.json recorded the floats
        ({"mesh": {"cells_per_axis": 48.9}}, []),
        ({"seed": 3.7}, []),
        ({"seed": True}, []),
        ({"seed": -5000}, []),
        ({"exponents": {"n": 1.0}}, []),
        ({"suites": ["orlicz"], "young": [{"family": "power", "params": {"r": 1}}]}, []),
        # a config that is not an object, and a flag laid over a counterexample that is not one
        (5, []),
        ([], []),
        ("x", []),
        ({"counterexample": 5}, ["--gamma", "1/2"]),
        ({"counterexample": [1]}, ["--window", "64"]),
    ]])
    def test_bad_config_exits_two(self, tmp_path, capsys, monkeypatch, override, flags):
        # each exits 2 with an error line and leaves no output directory,
        # rejected before any suite runs; none.json is missing from tmp_path
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--config", str(_write_config(tmp_path, override)), *flags, "--out", "run"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override,field", [
        ({"mesh": {"cells_per_axis": 48.9}}, "'mesh.cells_per_axis': expected an integer, got 48.9"),
        ({"mesh": {"window": "x"}}, "'mesh.window'"),
        ({"seed": 3.7}, "'seed': expected an integer, got 3.7"),
        ({"seed": True}, "'seed': expected an integer, got True"),
        ({"seed": -5000}, "'seed': expected an integer of at least 0, got -5000"),
        ({"exponents": {"n": 1.0}}, "'exponents.n': expected an integer, got 1.0"),
        ({"counterexample": {"window": 64.0}}, "'counterexample.window'"),
        ({"pairs": [{"kind": "random", "params": {"seed": -1}}]}, "'pairs[0].params.seed'"),
        # the orlicz suite conjugates every young entry; t^1 has no finite
        # conjugate, and is refused whichever suites the config selects
        ({"young": [{"family": "power", "params": {"r": 1}}]}, "young[0]: the conjugate of t^1 is not finite-valued"),
        ({"suites": ["geometry"], "young": [{"family": "power", "params": {"r": 1}}]}, "young[0]: the conjugate"),
        ("x", "error: config must be an object"),
        # a Young parameter and an exponent field are named by their dotted path, a borderline q of 0 by its entry
        ({"young": [{"family": "power", "params": {"r": "abc"}}]}, "'young[0].params.r'"),
        ({"exponents": {"alpha": "x"}}, "'exponents.alpha'"),
        ({"young": [{"family": "borderline", "params": {"p": 2, "q": 0, "eps": 1}}]},
         "young[0]: borderline needs q > 0"),
        # a Young parameter is a finite number: not infinite, not a boolean
        ({"young": [{"family": "power", "params": {"r": "inf"}}]},
         "'young[0].params.r': expected a finite number, got 'inf'"),
        ({"young": [{"family": "power", "params": {"r": True}}]}, "'young[0].params.r': expected a number, got True"),
        # an exponent out of range is named by its dotted path
        ({"exponents": {"n": 3}}, "error: exponents.n must be 1 or 2"),
        ({"exponents": {"p": 1}}, "error: exponents.p must lie in (1, infinity), got 1"),
    ])
    def test_malformed_config_value_named(self, tmp_path, capsys, override, field):
        rc = main(["run", "--config", str(_write_config(tmp_path, override)), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_counterexample_window_past_the_divergence_cutoffs_refused(self, tmp_path, capsys):
        # the suite's divergence diagnostic takes cutoffs up to 2^26 only
        rc = main(["run", "--config", str(_write_config(tmp_path, {"counterexample": {"window": 2 ** 27}})),
                   "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "counterexample.window must be a power of two from 2^3 to 2^26" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", [["--window", "0"], ["--gamma", ""]], ids=["window", "gamma"])
    def test_empty_counterexample_flag_refused_not_replaced(self, tmp_path, capsys, flag):
        # a window of 0 or an empty gamma is the value given, and is refused
        # like --window 3, not replaced by the default
        rc = main(["run", "--suite", "counterexample", *flag, "--out", str(tmp_path / "run")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag_refused_before_output(self, tmp_path, capsys):
        rc = main(["run", "--suite", "geometry", "--seed", "-5000", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "malformed field 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override,field", [
        ({"counterexample": {"gama": "1/3"}}, "counterexample.gama"),
        ({"mesh": {"cels_per_axis": 96}}, "mesh.cels_per_axis"),
        ({"exponents": {"qq": "5"}}, "exponents.qq"),
        ({"young": [{"family": "power", "params": {"r": 2}, "parms": {}}]}, "young[0].parms"),
        ({"pairs": [{"kind": "random", "seed": 3}]}, "pairs[0].seed"),
        ({"pairs": [{"kind": "classical-smooth"}, {"kind": "random", "params": {"sed": 3}}]},
         "pairs[1].params.sed"),
    ])
    def test_unknown_nested_field_refused(self, tmp_path, capsys, override, field):
        rc = main(["run", "--config", str(_write_config(tmp_path, override)), "--out", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("grids", [None, {"min_level": None, "max_level": None}, {"min_level": 0}])
    def test_grids_is_an_unknown_field(self, tmp_path, capsys, grids):
        # every suite picks its own level range; no config field sets one
        rc = main(["run", "--config", str(_write_config(tmp_path, {"grids": grids})), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "unknown config fields: ['grids']" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_suite_that_raises_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        # suites write no files, and the directory is made only once every suite has returned
        def broken(cfg):
            raise ValueError("planted suite failure")

        monkeypatch.setitem(cli._SUITE_FN, "sparse", broken)
        rc = main(["run", "--suite", "geometry", "--suite", "sparse", "--out", str(tmp_path / "run")])
        assert rc == 2
        assert "planted suite failure" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_overflowing_weight_power_exits_two_without_warning(self, tmp_path, capsys, action):
        # at q = 5000 a weight power overflows: the run refuses it as bad
        # input, with the errstate of main, whether a warning is an error or
        # is shown each time it is raised
        cfg = {"suites": ["geometry", "constants"], "exponents": {"n": 1, "alpha": "1/2", "p": "4/3", "q": "5000"}}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            rc = main(["run", "--config", str(_write_config(tmp_path, cfg)), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: values must be finite and nonnegative")
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_workers_flag_refused(self, tmp_path, capsys, workers):
        # the suites run in order in the calling thread; no flag picks a worker count
        with pytest.raises(SystemExit) as exc:
            main(["run", "--suite", "geometry", "--workers", workers, "--out", str(tmp_path / "run")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --workers" in err
        assert not (tmp_path / "run").exists()

    def test_missing_config_exits_two(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path / "r")])
        assert rc == 2


class TestOpsCommand:
    def test_frac_maximal_roundtrip(self, tmp_path):
        src = tmp_path / "f.json"
        f = write_function(src)
        out = tmp_path / "out.json"
        rc = main(["ops", "frac_maximal", "-i", str(src), "--alpha", "1/2", "-o", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        got = SampledFunction.from_obj(obj["function"])
        want = frac_maximal(f, 0.5)
        assert np.allclose(got.values, want.values, rtol=1e-12)
        assert obj["metadata"]["operator"] == "frac_maximal"
        assert obj["metadata"]["alpha"] == "1/2"

    def test_csv_side_output(self, tmp_path):
        src = tmp_path / "f.json"
        write_function(src)
        out_csv = tmp_path / "vals.csv"
        rc = main(["ops", "dyadic_riesz", "-i", str(src), "--alpha", "1/2",
                   "--shift", "0", "-o", str(tmp_path / "o.json"), "--csv", str(out_csv)])
        assert rc == 0
        header, rows = read_csv(out_csv)
        assert header == ["index", "value"]
        assert len(rows) == 24

    def test_missing_input_exits_two(self, tmp_path):
        rc = main(["ops", "frac_maximal", "-i", str(tmp_path / "none.json")])
        assert rc == 2

    def test_orlicz_maximal_needs_young(self, tmp_path):
        src = tmp_path / "f.json"
        write_function(src)
        rc = main(["ops", "orlicz_maximal", "-i", str(src)])
        assert rc == 2
        rc = main(["ops", "orlicz_maximal", "-i", str(src), "--young", "power:r=2"])
        assert rc == 0

    def test_outer_riesz_takes_cube_json(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        write_function(src)
        cube = json.dumps({"dim": 1, "level": 1, "index": [0], "shift": [0]})
        rc = main(["ops", "outer_riesz", "-i", str(src), "--alpha", "1/2", "--cube", cube])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["metadata"]["operator"] == "outer_riesz"

    @pytest.mark.parametrize("field,cube", [
        ("'dim'", {}),
        ("'index'", {"dim": 1, "level": 1, "index": 0, "shift": [0]}),
        ("'level'", {"dim": 1, "level": 1.5, "index": [0.9], "shift": [0]}),
        ("'shift'", {"dim": 1, "level": 1, "index": [0], "shift": [True]}),
    ])
    def test_outer_riesz_malformed_cube_refused(self, tmp_path, capsys, field, cube):
        # each field of --cube is read as a JSON integer: no traceback, no truncation
        src = tmp_path / "f.json"
        write_function(src)
        out = tmp_path / "out.json"
        rc = main(["ops", "outer_riesz", "-i", str(src), "--alpha", "1/2", "--cube", json.dumps(cube),
                   "-o", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["frac_maximal", "dyadic_riesz"])
    def test_shift_metadata_echoes_the_flags(self, tmp_path, name):
        # the operators differ in their default grid, so an omitted
        # --shift is recorded as null rather than as "all"
        src = tmp_path / "f.json"
        write_function(src)
        out = tmp_path / "o.json"
        assert main(["ops", name, "-i", str(src), "--alpha", "1/2", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["shift"] is None
        assert main(["ops", name, "-i", str(src), "--alpha", "1/2", "--shift", "1", "-o", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["shift"] == [1]


# id -> (extra ops arguments, the direct library call on f and mu)
REGISTRY_CASES = {
    "frac_maximal": (["--alpha", "1/2"], lambda f, mu: frac_maximal(f, 0.5)),
    "dyadic_frac_maximal": (["--alpha", "1/3", "--shift", "1"],
                            lambda f, mu: dyadic_frac_maximal(f, 1 / 3, shift=(1,))),
    "dyadic_riesz": (["--alpha", "1/2", "--levels=-2..2"],
                     lambda f, mu: dyadic_riesz(f, 0.5, min_level=-2, max_level=2)),
    "riesz_1d": (["--alpha", "1/4"], lambda f, mu: riesz_1d_row(f, 0.25)),
    "orlicz_maximal": (["--young", "log-bump:p=2,delta=0.5", "--alpha", "1/4", "--shift", "1"],
                       lambda f, mu: orlicz_maximal(f, log_bump(2.0, 0.5), beta=0.25, shift=(1,))),
    "weighted_dyadic_maximal": (["--alpha", "1/4", "--shift", "1", "--levels=1..3", "--mu", "MU"],
                                lambda f, mu: weighted_dyadic_maximal(f, mu, beta=0.25, shift=(1,),
                                                                      min_level=1, max_level=3)),
}


class TestOperatorRegistry:
    def test_cases_cover_the_registry(self):
        assert set(REGISTRY_CASES) == set(OPERATORS) - {"identity"}

    @pytest.mark.parametrize("op", sorted(REGISTRY_CASES))
    def test_ops_output_matches_library_call(self, op, tmp_path):
        f = write_function(tmp_path / "f.json")
        mu = write_function(tmp_path / "mu.json", seed=8, lo=0.0)
        extra, direct = REGISTRY_CASES[op]
        extra = [str(tmp_path / "mu.json") if a == "MU" else a for a in extra]
        out = tmp_path / "out.json"
        assert main(["ops", op, "-i", str(tmp_path / "f.json"), "-o", str(out)] + extra) == 0
        obj = json.loads(out.read_text())
        assert out.read_text() == _dumps({"function": direct(f, mu).to_obj(), "metadata": obj["metadata"]})

    def test_ops_applies_operator_to_f_dmu(self, tmp_path):
        f = write_function(tmp_path / "f.json")
        mu = write_function(tmp_path / "mu.json", seed=8, lo=0.0)
        out = tmp_path / "out.json"
        rc = main(["ops", "frac_maximal", "-i", str(tmp_path / "f.json"), "--mu", str(tmp_path / "mu.json"),
                   "-o", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["function"] == frac_maximal(f * mu).to_obj()

    def test_weighted_maximal_needs_mu(self, tmp_path):
        write_function(tmp_path / "f.json")
        assert main(["ops", "weighted_dyadic_maximal", "-i", str(tmp_path / "f.json")]) == 2

    @pytest.mark.parametrize("op", ["hilbert", "geometric_maximal", "bilinear_maximal", "Frac_Maximal", ""])
    def test_unknown_ids_rejected_by_both_callers(self, op, tmp_path):
        write_function(tmp_path / "f.json")
        with pytest.raises(SystemExit) as exc:
            main(["ops", op, "-i", str(tmp_path / "f.json")])
        assert exc.value.code == 2
        pair = write_pair(tmp_path / "pair.json")
        with pytest.raises(NormError):
            estimate_norm(op, pair, ExponentTuple(1, Fraction(1, 2), Fraction(4, 3), 4))


class TestSparseCommand:
    def test_build_verify_apply(self, tmp_path):
        src = tmp_path / "f.json"
        write_function(src, lo=0.0)
        fam_out = tmp_path / "fam.json"
        assert main(["sparse", "build", "-i", str(src), "--alpha", "1/2",
                     "-o", str(fam_out)]) == 0
        fam = json.loads(fam_out.read_text())
        assert fam["cubes"]

        ver_out = tmp_path / "ver.json"
        assert main(["sparse", "verify", "-i", str(src), "--alpha", "1/2",
                     "-o", str(ver_out)]) == 0
        ver = json.loads(ver_out.read_text())
        assert ver["passed"] is True
        assert ver["vacuous"] is False
        assert ver["thickness"] >= 0.5
        assert ver["domination_ratio"] <= ver["C_a"] + 1e-9

        ap_out = tmp_path / "ap.json"
        assert main(["sparse", "apply", "-i", str(src), "--form", "disjoint",
                     "-o", str(ap_out)]) == 0
        assert json.loads(ap_out.read_text())["metadata"]["form"] == "disjoint"

    def test_verify_of_zero_function_is_vacuous(self, tmp_path):
        src = tmp_path / "zero.json"
        src.write_text(json.dumps(SampledFunction.constant(0.0, 1, (0,), 1, 24).to_obj()))
        out = tmp_path / "ver.json"
        assert main(["sparse", "verify", "-i", str(src), "-o", str(out)]) == 1
        ver = json.loads(out.read_text())
        assert ver["cubes"] == 0
        assert ver["vacuous"] is True
        assert ver["passed"] is False


class TestConstantsCommand:
    def test_single_constant_matches_library(self, tmp_path, capsys):
        pair_path = tmp_path / "pair.json"
        pair = write_pair(pair_path)
        rc = main(["constants", "compute", "--which", "apq_alpha",
                   "--pair", str(pair_path), "--exponents", "1,1/2,4/3,4"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        e = ExponentTuple(1, Fraction(1, 2), Fraction(4, 3), 4)
        want = apq_alpha_constant(pair, e)
        assert obj["value"] == pytest.approx(want.value, rel=1e-12)

    def test_batch_csv(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        out = tmp_path / "c.csv"
        rc = main(["constants", "compute", "--which", "all", "--pair", str(pair_path),
                   "--exponents", "1,1/2,4/3,4", "-o", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["name", "value", "argmax"]
        names = [r[0] for r in rows]
        assert names == sorted(names) and "apq_alpha" in names
        assert all(float(r[1]) > 0 for r in rows)

    def test_vacuous_constant_written_and_exits_one(self, tmp_path):
        # levels -4..-1 hold no cube inside the unit window
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        out = tmp_path / "c.json"
        rc = main(["constants", "compute", "--which", "apq_alpha", "--pair", str(pair_path),
                   "--exponents", "1,1/2,4/3,4", "--levels=-4..-1", "-o", str(out)])
        assert rc == 1
        obj = json.loads(out.read_text())
        assert obj["n_scored"] == 0 and obj["vacuous"] is True

    def test_batch_with_a_vacuous_row_exits_one(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        out = tmp_path / "c.csv"
        rc = main(["constants", "compute", "--which", "all", "--pair", str(pair_path),
                   "--exponents", "1,1/2,4/3,4", "--levels=-4..-1", "-o", str(out)])
        assert rc == 1
        header, rows = read_csv(out)
        assert header == ["name", "value", "argmax"]
        assert [r[0] for r in rows] == sorted(r[0] for r in rows) and len(rows) == 7

    def test_unknown_name_exits_two(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        rc = main(["constants", "compute", "--which", "bogus", "--pair", str(pair_path),
                   "--exponents", "1,1/2,4/3,4"])
        assert rc == 2

    def test_malformed_exponents_exit_two(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        rc = main(["constants", "compute", "--which", "apq_alpha", "--pair", str(pair_path),
                   "--exponents", "1,1/2"])
        assert rc == 2

    def test_exponents_flag_reads_a_decimal_n(self):
        # the config's n is a JSON integer; the flag's is the decimal string of one
        assert cli._parse_exponents("2, 1/2, 3, 5") == ExponentTuple(2, Fraction(1, 2), 3, 5)


class TestNormsCommand:
    def test_estimate_reports_family(self, tmp_path, capsys):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        rc = main(["norms", "estimate", "--pair", str(pair_path),
                   "--exponents", "1,1/2,4/3,4", "--op", "frac_maximal",
                   "--alpha", "1/2", "--family-steps", "2"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["estimate"]["value"] > 0
        assert obj["family"]["random_steps"] == 2

    def test_equiv_chains_hold(self, tmp_path, capsys):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        rc = main(["norms", "equiv", "--pair", str(pair_path),
                   "--exponents", "1,1/2,4/3,4", "--family-steps", "1"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["testing_chain"]["holds"] and obj["duality_chain"]["holds"]

    @pytest.mark.parametrize("action", ["estimate", "equiv"])
    def test_pair_required(self, action, capsys):
        # argparse refuses the call with a usage line, before any file is read
        with pytest.raises(SystemExit) as exc:
            main(["norms", action, "--exponents", "1,1/2,4/3,4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--pair" in err and "Traceback" not in err

    @pytest.mark.parametrize("action", ["bumps", "logcheck"])
    def test_removed_actions_refused(self, action, tmp_path, capsys):
        pair_path = tmp_path / "pair.json"
        write_pair(pair_path)
        with pytest.raises(SystemExit) as exc:
            main(["norms", action, "--pair", str(pair_path), "--exponents", "1,1/2,4/3,4"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestExamplesCommand:
    def test_case1_csv_table(self, tmp_path):
        out_csv = tmp_path / "case1.csv"
        rc = main(["examples", "case1", "-o", str(tmp_path / "c1.json"),
                   "--csv", str(out_csv)])
        assert rc == 0
        header, rows = read_csv(out_csv)
        assert header == ["X", "integral", "log_X", "ratio"]
        vals = [float(r[1]) for r in rows]
        assert vals == sorted(vals) and vals[0] > 0
        obj = json.loads((tmp_path / "c1.json").read_text())
        assert obj["report"]["minorant_exponent_sum"] == "-1"

    def test_case2_table_dominates(self, tmp_path, capsys):
        out_csv = tmp_path / "case2.csv"
        rc = main(["examples", "case2", "--max-exp", "10", "--csv", str(out_csv)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["dominates"] is True
        header, rows = read_csv(out_csv)
        assert header == ["X", "S", "H", "ratio"]
        assert float(rows[-1][0]) == 1024.0

    def test_factored_train_constant_at_most_one(self, tmp_path, capsys):
        rc = main(["examples", "factored", "--train", "--window", "64",
                   "--exponents", "1,1/2,2,2"])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["constant"]["value"] <= 1.0 + 1e-12
        assert obj["gamma"] == "1/2"

    def test_factored_zero_window_refused(self, capsys):
        # --window 0 is refused like --window 3, not replaced by the side-64 default
        assert main(["examples", "factored", "--train", "--window", "0"]) == 2
        assert "power of two" in capsys.readouterr().err

    def test_output_members_feed_back_in(self, tmp_path):
        # the pair member of examples output loads with --pair, and the
        # function member of ops output loads with -i
        w_path = tmp_path / "w.json"
        w = write_function(w_path, lo=0.5)
        assert main(["examples", "classical", "--weight", str(w_path), "-o", str(tmp_path / "c.json")]) == 0
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(json.dumps(json.loads((tmp_path / "c.json").read_text())["pair"]))
        e = "1,1/2,4/3,4"
        assert main(["constants", "compute", "--which", "apq_alpha", "--pair", str(pair_path),
                     "--exponents", e, "-o", str(tmp_path / "apq.json")]) == 0
        want = apq_alpha_constant(classical_pair(w, cli._parse_exponents(e)), cli._parse_exponents(e))
        assert json.loads((tmp_path / "apq.json").read_text())["value"] == want.value
        assert main(["norms", "equiv", "--pair", str(pair_path), "--exponents", e,
                     "--family-steps", "1", "-o", str(tmp_path / "equiv.json")]) == 0

        f_path = tmp_path / "f.json"
        f = write_function(f_path)
        assert main(["ops", "frac_maximal", "-i", str(f_path), "--alpha", "1/2", "-o", str(tmp_path / "m.json")]) == 0
        m_path = tmp_path / "m_function.json"
        m_path.write_text(json.dumps(json.loads((tmp_path / "m.json").read_text())["function"]))
        assert main(["ops", "dyadic_frac_maximal", "-i", str(m_path), "-o", str(tmp_path / "mm.json")]) == 0
        got = SampledFunction.from_obj(json.loads((tmp_path / "mm.json").read_text())["function"])
        assert np.array_equal(got.values, dyadic_frac_maximal(frac_maximal(f, 0.5)).values)

    def test_factored_needs_inputs(self, tmp_path):
        rc = main(["examples", "factored", "--exponents", "1,1/2,2,2"])
        assert rc == 2

    def test_classical_roundtrip(self, tmp_path, capsys):
        w_path = tmp_path / "w.json"
        write_function(w_path, lo=0.5)
        rc = main(["examples", "classical", "--weight", str(w_path)])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["pair"]["provenance"] == "classical"

    def test_classical_needs_weight(self, capsys):
        # argparse refuses the call with a usage line, before any file is read
        with pytest.raises(SystemExit) as exc:
            main(["examples", "classical"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "--weight" in err and "Traceback" not in err


# the flags that each one-shot action or ops operator does not read: the parser refuses each one
UNREAD = {
    "ops frac_maximal": "--young --cube",
    "ops dyadic_frac_maximal": "--young --cube",
    "ops dyadic_riesz": "--young --cube",
    "ops riesz_1d": "--shift --levels --young --cube",
    "ops orlicz_maximal": "--cube",
    "ops weighted_dyadic_maximal": "--young --cube",
    "ops outer_riesz": "--shift --levels --young --mu",
    "sparse build": "--apply-to --form",
    "sparse verify": "--apply-to --form",
    "norms equiv": "--op --side --weak --alpha --young",
    "examples case1": "--gamma --max-exp --window --train --w1 --w2 --weight",
    "examples case2": "--window-exp --cells-per-unit --window --train --w1 --w2 --weight",
    "examples factored": "--gamma --window-exp --cells-per-unit --max-exp --weight",
    "examples classical": "--gamma --window-exp --cells-per-unit --max-exp --window --train --w1 --w2 --csv",
}
# what each command needs besides the flag under test; F, P, W and CUBE name a function, a pair, a weight and a cube
NEEDS = {"ops": ["-i", "F"], "sparse": ["-i", "F"], "norms": ["--pair", "P", "--exponents", "1,1/2,4/3,4"]}
LEAF_NEEDS = {"ops outer_riesz": ["--cube", "CUBE"], "examples factored": ["--train"],
              "examples classical": ["--weight", "W"]}
# a well-formed value of each flag; the two switches take none
VALUES = {"--young": ["power:r=2"], "--cube": ["CUBE"], "--shift": ["1"], "--levels": ["0..2"], "--mu": ["W"],
          "--apply-to": ["W"], "--form": ["chi"], "--op": ["dyadic_riesz"], "--side": ["dual"], "--weak": [],
          "--alpha": ["1/4"], "--gamma": ["1/2"], "--max-exp": ["10"], "--window": ["64"], "--train": [],
          "--w1": ["W"], "--w2": ["W"], "--weight": ["W"], "--window-exp": ["4"], "--cells-per-unit": ["6"],
          "--csv": ["CSV"]}


class TestUnreadFlags:
    """A flag that the chosen action or operator does not read is refused by
    argparse with a usage line naming it and exit 2, before any input is
    read or any output written."""

    def test_ops_takes_every_registry_operator_and_outer_riesz(self):
        ops = next(actions for command, _, _, actions in cli._ONE_SHOT if command == "ops")
        assert set(ops) == set(OPERATORS) - {"identity"} | {"outer_riesz"}

    @pytest.mark.parametrize("leaf,flag", [pytest.param(leaf, flag, id=leaf.replace(" ", "-") + flag)
                                           for leaf, flags in UNREAD.items() for flag in flags.split()])
    def test_unread_flag_refused(self, tmp_path, capsys, leaf, flag):
        write_function(tmp_path / "f.json")
        write_function(tmp_path / "w.json", lo=0.5)
        write_pair(tmp_path / "pair.json")
        cube = json.dumps({"dim": 1, "level": 1, "index": [0], "shift": [0]})
        names = {"F": str(tmp_path / "f.json"), "W": str(tmp_path / "w.json"), "P": str(tmp_path / "pair.json"),
                 "CSV": str(tmp_path / "out.csv"), "CUBE": cube}
        out = tmp_path / "out.json"
        argv = [*leaf.split(), *NEEDS.get(leaf.split()[0], []), *LEAF_NEEDS.get(leaf, []), flag, *VALUES[flag],
                "-o", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([names.get(a, a) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"error: unrecognized arguments: {flag}" in err, err
        assert not out.exists() and not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("op,flag,value", [
        ("frac_maximal", "--young", "power:r=2"),
        ("frac_maximal", "--young", "power:r=abc"),
        ("identity", "--alpha", "1/2"),
    ], ids=["well-formed", "malformed", "identity-alpha"])
    def test_norms_estimate_young_needs_orlicz_maximal(self, tmp_path, capsys, op, flag, value):
        # --op reads the flags of its ops entry: --young only orlicz_maximal, --alpha every operator but identity;
        # beside any other operator the flag is refused, named with that operator
        write_pair(tmp_path / "pair.json")
        out = tmp_path / "out.json"
        assert main(["norms", "estimate", "--pair", str(tmp_path / "pair.json"), "--exponents", "1,1/2,4/3,4",
                     "--op", op, flag, value, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and op in err, err
        assert not out.exists()


class TestMalformedFlags:
    """A one-shot flag whose value does not parse is refused with exit 2 and
    an error line naming the flag, before any output is written."""

    @pytest.mark.parametrize("argv,flag", [
        (["ops", "orlicz_maximal", "-i", "F", "--young", "power:r=abc"], "'--young.params.r'"),
        # the library refuses q = 0 (borderline divides by q), and the flag names the refusal
        (["ops", "orlicz_maximal", "-i", "F", "--young", "borderline:p=2,q=0,eps=1"],
         "--young: borderline needs q > 0"),
        (["ops", "frac_maximal", "-i", "F", "--levels", "a..2"], "'--levels'"),
        (["ops", "frac_maximal", "-i", "F", "--shift", "x"], "'--shift'"),
        (["ops", "frac_maximal", "-i", "F", "--alpha", "zz"], "'--alpha'"),
        (["constants", "compute", "--which", "apq_alpha", "--pair", "P", "--exponents", "x,1/2,4/3,4"],
         "'--exponents.n'"),
        (["constants", "compute", "--which", "apq_alpha", "--pair", "P", "--exponents", "1,y,4/3,4"],
         "'--exponents.alpha'"),
        (["examples", "case2", "--gamma", "zz"], "'--gamma'"),
        (["ops", "orlicz_maximal", "-i", "F", "--young", "power:r=inf"],
         "'--young.params.r': expected a finite number, got 'inf'"),
        (["constants", "compute", "--which", "apq_alpha", "--pair", "P", "--exponents", "1,3/2,2,2"],
         "error: --exponents.alpha must satisfy 0 <= alpha < n, got 3/2"),
        (["ops", "outer_riesz", "-i", "F", "--alpha", "1/2", "--cube", "xx"], "'--cube'"),
        (["ops", "outer_riesz", "-i", "F", "--alpha", "1/2", "--cube", "{}"], "'--cube': missing field 'dim'"),
    ], ids=["young", "young-borderline-q", "levels", "shift", "alpha", "exponents-n", "exponents-alpha", "gamma",
            "young-inf", "exponents-alpha-range", "cube", "cube-no-dim"])
    def test_malformed_flag_named(self, tmp_path, capsys, argv, flag):
        write_function(tmp_path / "f.json")
        write_pair(tmp_path / "pair.json")
        files = {"F": str(tmp_path / "f.json"), "P": str(tmp_path / "pair.json")}
        out = tmp_path / "out.json"
        assert main([files.get(a, a) for a in argv] + ["-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and "Traceback" not in err, err
        assert not out.exists()


class TestMalformedInputFiles:
    """An input file that lacks a field, or holds a malformed one, is
    rejected with exit 2, an error line naming the field, and no output."""

    @staticmethod
    def inputs(tmp_path):
        """(function file, pair file, (function field, pair field)) for an
        empty object and for objects whose values are missing."""
        f = write_function(tmp_path / "f.json").to_obj()
        pair = write_pair(tmp_path / "pair.json").to_obj()
        del f["values"]
        pair["u"] = dict(pair["u"])
        del pair["u"]["values"]
        out = []
        for name, fobj, pobj, fields in [("empty", {}, {}, ("'dim'", "'u'")),
                                         ("novalues", f, pair, ("'values'", "'values'"))]:
            fpath, ppath = tmp_path / f"{name}_f.json", tmp_path / f"{name}_pair.json"
            fpath.write_text(json.dumps(fobj))
            ppath.write_text(json.dumps(pobj))
            out.append((fpath, ppath, fields))
        return out

    def assert_rejected(self, argv, out: Path, field: str, capsys):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err, err
        assert not out.exists(), argv

    def test_ops_constants_and_equiv(self, tmp_path, capsys):
        for fpath, ppath, (ffield, pfield) in self.inputs(tmp_path):
            out = tmp_path / "out.json"
            self.assert_rejected(["ops", "frac_maximal", "-i", str(fpath), "-o", str(out)],
                                 out, ffield, capsys)
            self.assert_rejected(["constants", "compute", "--which", "all", "--pair", str(ppath),
                                  "--exponents", "1,1/2,4/3,4", "-o", str(out)], out, pfield, capsys)
            self.assert_rejected(["norms", "equiv", "--pair", str(ppath),
                                  "--exponents", "1,1/2,4/3,4", "-o", str(out)], out, pfield, capsys)

    def test_run_with_file_pair(self, tmp_path, capsys):
        for i, (_, ppath, (_, pfield)) in enumerate(self.inputs(tmp_path)):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"pairs": [{"kind": "file", "params": {"path": str(ppath)}}]}))
            out = tmp_path / f"run{i}"
            self.assert_rejected(["run", "--config", str(cfg), "--out", str(out)], out, pfield, capsys)

    def test_zero_cell_mesh_refused(self, tmp_path, capsys):
        # a mesh of no cells is refused when read, before any operator runs
        f = write_function(tmp_path / "f.json").to_obj()
        f.update(cells_per_axis=0, values=[])
        pair = write_pair(tmp_path / "pair.json").to_obj()
        pair["u"] = dict(f)
        fpath, ppath = tmp_path / "empty.json", tmp_path / "empty_pair.json"
        fpath.write_text(json.dumps(f))
        ppath.write_text(json.dumps(pair))
        out = tmp_path / "out.json"
        self.assert_rejected(["ops", "frac_maximal", "-i", str(fpath), "-o", str(out)], out, "got 0", capsys)
        self.assert_rejected(["constants", "compute", "--which", "all", "--pair", str(ppath),
                              "--exponents", "1,1/2,4/3,4", "-o", str(out)], out, "got 0", capsys)

    @pytest.mark.parametrize("count,values", [(-2, [1.0, 1.0, 1.0]), (-1, [])])
    def test_negative_cell_count_refused(self, tmp_path, capsys, count, values):
        # a negative count is refused, not read by reshape as "infer"
        obj = write_function(tmp_path / "f.json").to_obj()
        obj.update(cells_per_axis=count, values=values)
        src = tmp_path / "negative.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        self.assert_rejected(["ops", "frac_maximal", "-i", str(src), "-o", str(out)], out,
                             "'cells_per_axis'", capsys)

    def test_fractional_dim_refused(self, tmp_path, capsys):
        # a non-integer dim or cell count is refused, not truncated
        obj = write_function(tmp_path / "f.json").to_obj()
        obj["dim"] = 1.5
        src = tmp_path / "frac.json"
        src.write_text(json.dumps(obj))
        out = tmp_path / "out.json"
        self.assert_rejected(["ops", "frac_maximal", "-i", str(src), "-o", str(out)], out, "'dim'", capsys)

"""Constructive pairs: disjoint supports, the interval train, factored weights."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from dyadlab import pairs
from dyadlab.constants import apq_alpha_constant
from dyadlab.grid import Box
from dyadlab.pairs import (
    ExampleError,
    _prefix_tree_sums,
    _tree_sum,
    build_E,
    case1_pair,
    case2_divergence,
    classical_pair,
    factored_pair,
    verify_E_maximal,
)
from dyadlab.sampled import ExponentTuple, SampledFunction, integrate

from case2_oracle import rows_and_minorant

E_CASE1 = ExponentTuple(1, F(1, 4), F(5, 4), 2)     # 1/p - 1/q = 3/10 > 1/4
E_SOB = ExponentTuple(1, F(1, 2), F(4, 3), 4)       # Sobolev line, gamma = 0
E_FACT = ExponentTuple(1, F(3, 4), F(4, 3), 4)      # 1/2 <= 3/4, gamma = 1/2
E_IDENT = ExponentTuple(1, F(1, 2), 2, 2)           # p = q = 2, gamma = 1/2


def rand_weight(ncells, seed, lower=(0,), side=8, lo=0.1, hi=2.0):
    rng = np.random.default_rng(seed)
    return SampledFunction(1, lower, side, rng.uniform(lo, hi, ncells))


class TestTreeSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(3)
        for size in (0, 1, 2, 3, 7, 100, 1001):
            arr = rng.uniform(-1.0, 1.0, size)
            assert _tree_sum(arr) == approx(math.fsum(arr), rel=1e-13, abs=1e-13)

    def test_deterministic(self):
        arr = np.random.default_rng(5).uniform(0, 1, 777)
        assert _tree_sum(arr) == _tree_sum(arr.copy())

    @pytest.mark.parametrize("size", [2**3, 2**6, 2**10, pairs.CHUNK_TERMS])
    def test_prefix_sums_from_chunks_match_whole_prefixes(self, size):
        # every 2^j - 2 up to the length, 400 random lengths, and the chunk ends and their neighbours; random
        # terms, since case2's smooth ones round alike under many a wrong pairing
        rng = np.random.default_rng(size)
        arr = rng.uniform(0.0, 1.0, max(2**15, 3 * size) + 5)
        stops = {2**j - 2 for j in range(2, arr.size.bit_length())} | set(rng.integers(1, arr.size + 1, 400).tolist())
        stops |= {m + d for m in range(size, arr.size, size) for d in (-1, 0, 1)}
        stops = sorted(stops)
        got = _prefix_tree_sums((arr[a:a + size] for a in range(0, arr.size, size)), stops)
        assert [v.hex() for v in got] == [_tree_sum(arr[:m]).hex() for m in stops]


class TestCase1:
    def test_t_value(self):
        # alpha = 1/4, q = 2 gives t = 2 * (3/4) - 1 = 1/2
        _, _, rep = case1_pair(E_CASE1, window_exp=4)
        assert rep["t"] == "1/2"

    def test_minorant_exponents_cancel_exactly(self):
        # q(alpha - 1) + t = -1 in rational arithmetic, so the continuum
        # comparison integral from 1 to X is log X on the nose
        for e in (E_CASE1, ExponentTuple(1, F(1, 8), F(4, 3), 2)):
            _, _, rep = case1_pair(e, window_exp=4)
            assert rep["minorant_exponent_sum"] == "-1"

    def test_regime_rejection(self):
        with pytest.raises(ExampleError):
            case1_pair(E_SOB)
        with pytest.raises(ExampleError):
            case1_pair(E_FACT)
        with pytest.raises(ExampleError):
            case1_pair(ExponentTuple(2, F(1, 4), F(5, 4), 2))

    @pytest.mark.parametrize("kwargs", [
        {"window_exp": 4.5}, {"window_exp": True}, {"window_exp": 2},
        {"cells_per_unit": 12.0}, {"cells_per_unit": 36}, {"cells_per_unit": 0},
    ], ids=repr)
    def test_sizes_must_be_integers_of_the_rule(self, kwargs):
        # a float window_exp or cells_per_unit was truncated, not refused
        with pytest.raises(ExampleError):
            case1_pair(E_CASE1, **kwargs)

    def test_f_is_sigma(self):
        pair, f, _ = case1_pair(E_CASE1, window_exp=4)
        assert np.array_equal(pair.sigma.values, f.values)
        assert integrate(f) == approx(1.0, rel=1e-12)

    def test_u_cell_averages_exact(self):
        # total mass of x^t over [0, X) must equal X^{t+1}/(t+1)
        pair, _, rep = case1_pair(E_CASE1, window_exp=5)
        X = float(F(rep["window"]["X"]))
        s = float(F(rep["t"]) + 1)
        assert integrate(pair.u) == approx(X**s / s, rel=1e-12)

    def test_constant_uniform_over_windows(self):
        vals = []
        for wexp in (5, 6, 7):
            _, _, rep = case1_pair(E_CASE1, window_exp=wexp)
            vals.append(rep["apq"]["value"])
        assert all(v > 0 for v in vals)
        assert max(vals) == approx(min(vals), rel=1e-10)

    def test_divergence_grows_like_log(self):
        _, _, rep = case1_pair(E_CASE1, window_exp=7)
        ints = [r["integral"] for r in rep["rows"]]
        assert all(b > a for a, b in zip(ints, ints[1:]))
        ratios = [r["ratio"] for r in rep["rows"]]
        assert all(0.05 < r < 0.5 for r in ratios)
        # log-like growth: increments per doubling stay within a band
        incs = [b - a for a, b in zip(ints[2:], ints[3:])]
        assert max(incs) / min(incs) < 1.6


class TestBuildE:
    def test_point_membership(self):
        # gamma = 1/2: 1.5 < 1 + 2^{-1/2} ~ 1.707 is in E, 1.8 is not
        chi = build_E(F(1, 2), 16)
        cpu = chi.ncells // 16
        assert chi.values[int(1.5 * cpu)] == 1.0
        assert chi.values[int(1.8 * cpu)] == 0.0

    def test_first_interval_is_unit(self):
        for g in (F(1, 4), F(1, 2), F(3, 4)):
            chi = build_E(g, 8)
            cpu = chi.ncells // 8
            assert np.all(chi.values[:cpu] == 1.0)

    def test_measure_matches_partial_sums(self):
        g = F(1, 2)
        chi = build_E(g, 16)
        cpu = chi.ncells // 16
        for J in (1, 4, 16):
            mesh = float(chi.values[: J * cpu].sum()) / cpu
            exact = sum((j + 1.0) ** (-0.5) for j in range(J))
            assert mesh <= exact + 1e-12          # rounding only shrinks
            assert exact - mesh <= J / cpu + 1e-12  # at most one cell per interval
        # the interval starting at j is the only one in [j, j + 1)
        assert chi.values.reshape(16, cpu).sum(axis=1).min() >= 8  # every interval spans eight cells

    def test_mesh_too_coarse(self, monkeypatch):
        # the automatic mesh meets the eight-cell rule; build_E refuses one that does not
        monkeypatch.setattr(pairs, "_auto_cpu", lambda g, side: 3)
        with pytest.raises(ExampleError, match="coarse"):
            build_E(F(1, 2), 16)

    def test_bad_gamma(self):
        for g in (0, 1, F(3, 2), -1):
            with pytest.raises(ExampleError):
                build_E(g, 8)

    @pytest.mark.parametrize("side", [1, 6, F(5, 2), F(1, 2)])
    def test_side_must_be_a_power_of_two_of_at_least_two(self, side):
        with pytest.raises(ExampleError, match="power of two, at least 2"):
            build_E(F(1, 2), side)

    @given(gnum=st.integers(10, 90), xexp=st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_contained_in_continuum_set(self, gnum, xexp):
        g = F(gnum, 100)
        X = 2**xexp
        chi = build_E(g, X)
        cpu = chi.ncells // X
        mids = (np.arange(chi.ncells) + 0.5) / cpu
        on = chi.values > 0
        frac = mids[on] - np.floor(mids[on])
        lens = (np.floor(mids[on]) + 1.0) ** (-float(g))
        assert np.all(frac <= lens)


class TestVerifyEMaximal:
    @pytest.mark.parametrize("g", [F(1, 4), F(1, 2), F(3, 4)])
    def test_pinched_between_constants(self, g):
        rep = verify_E_maximal(g, 64)
        assert rep["holds"]
        assert rep["unit_floor"]["observed"] >= rep["unit_floor"]["bound"] * (1 - 1e-10)
        assert rep["unit_floor"]["bound"] == approx(3 * 2.0 ** (float(g) - 2), rel=1e-12)
        assert rep["small_cube_max"]["observed"] <= 1.0 + 1e-12
        assert rep["overall"]["min"] > 0.5
        assert math.isfinite(rep["overall"]["max"])

    def test_dyadic_floor_tracks_tight_chain(self):
        # the enclosing dyadic cube loses at most 2^{1-gamma} against the
        # tight interval [0, x], plus a one-cell-per-interval rounding dent
        g = 0.5
        rep = verify_E_maximal(F(1, 2), 64)
        for row in rep["intervals"]:
            assert row["floor"] >= row["chain"] * 2.0 ** (g - 1) * (1 - 0.13)
            assert row["min"] >= row["floor"] * (1 - 1e-10)

    def test_larger_window(self):
        rep = verify_E_maximal(F(1, 2), 256)
        assert rep["holds"]
        assert rep["overall"]["min"] > 0.5
        assert rep["overall"]["max"] < 4.0

    def test_bad_gamma_propagates(self):
        with pytest.raises(ExampleError):
            verify_E_maximal(F(5, 4), 16)


class TestFactoredPair:
    def test_regime_rejection(self):
        w = rand_weight(96, 1)
        with pytest.raises(ExampleError):
            factored_pair(w, w, E_CASE1)

    def test_ones_attain_the_bound(self):
        ones = SampledFunction.constant(1.0, 1, (0,), 8, 96)
        pair = factored_pair(ones, ones, E_FACT)
        rep = apq_alpha_constant(pair, E_FACT)
        assert rep.value <= 1.0 + 1e-12
        assert rep.value == approx(1.0, rel=1e-12)

    def test_sobolev_line_uses_plain_maximal(self):
        assert E_SOB.gamma == 0
        w = rand_weight(96, 7)
        pair = factored_pair(w, w, E_SOB)
        rep = apq_alpha_constant(pair, E_SOB)
        assert rep.value <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", [5, 23])
    def test_unit_bound_random_weights(self, seed):
        w1 = rand_weight(96, seed)
        w2 = rand_weight(96, seed + 100)
        pair = factored_pair(w1, w2, E_FACT)
        rep = apq_alpha_constant(pair, E_FACT)
        assert rep.value <= 1.0 + 1e-12
        assert pair.provenance == "factored"

    def test_interval_train_inputs(self):
        X = 64
        chi = build_E(E_FACT.gamma, X)
        w2 = SampledFunction.indicator(Box((0,), 1), 1, (0,), X, chi.ncells)
        pair = factored_pair(chi, w2, E_FACT)
        rep = apq_alpha_constant(pair, E_FACT)
        assert rep.value <= 1.0 + 1e-12

        # u tracks x^{(1-gamma) q / p'} on E-cells past x = 2, with recorded
        # two-sided constants; sigma is supported in [0, 1) and positive there
        cpu = chi.ncells // X
        mids = (np.arange(chi.ncells) + 0.5) / cpu
        on = (chi.values > 0) & (mids >= 2.0)
        expo = float((1 - E_FACT.gamma) * E_FACT.q / E_FACT.pprime)
        ratio = pair.u.values[on] / mids[on] ** expo
        assert 0.5 < ratio.min() and ratio.max() < 2.5
        assert np.all(pair.sigma.values[cpu:] == 0.0)
        assert pair.sigma.values[:cpu].min() > 0.0

    def test_excess_shrinks_under_refinement(self, monkeypatch):
        X = 32
        cpu = build_E(E_FACT.gamma, X).ncells // X
        excesses = []
        for scale in (1, 2):
            monkeypatch.setattr(pairs, "_auto_cpu", lambda g, side: cpu * scale)
            chi = build_E(E_FACT.gamma, X)
            w2 = SampledFunction.indicator(Box((0,), 1), 1, (0,), X, chi.ncells)
            pair = factored_pair(chi, w2, E_FACT)
            excesses.append(max(0.0, apq_alpha_constant(pair, E_FACT).value - 1.0))
        assert excesses[1] <= excesses[0] + 1e-15
        assert all(x <= 1e-12 for x in excesses)

    def test_vanishing_input_gives_zero_weight(self):
        w1 = rand_weight(96, 3)
        zero = SampledFunction.constant(0.0, 1, (0,), 8, 96)
        pair = factored_pair(w1, zero, E_FACT)
        assert np.all(pair.u.values == 0.0)
        assert np.all(pair.sigma.values == 0.0)
        assert apq_alpha_constant(pair, E_FACT).value <= 1.0

    def test_mesh_mismatch(self):
        w1 = rand_weight(96, 1)
        w2 = rand_weight(48, 2, side=4)
        with pytest.raises(ValueError):
            factored_pair(w1, w2, E_FACT)


class TestCase2Divergence:
    def test_identity_at_the_spec_point(self):
        # alpha = 1/2, p = q = 2: gamma = 1/2 and both sides equal -1/2
        rep = case2_divergence(E_IDENT, max_exp=10)
        assert rep["gamma"] == "1/2"
        assert rep["identity"] == {"lhs": "-1/2", "rhs": "-1/2", "holds": True}

    @pytest.mark.parametrize(
        "e",
        [E_FACT, ExponentTuple(1, F(2, 3), F(3, 2), 2), ExponentTuple(1, F(9, 10), 3, 5)],
    )
    def test_identity_holds_in_regime(self, e):
        rep = case2_divergence(e, max_exp=8)
        assert rep["identity"]["holds"]

    def test_override_gamma_breaks_identity(self):
        rep = case2_divergence(E_IDENT, gamma=F(2, 3), max_exp=8)
        assert not rep["identity"]["holds"]

    def test_doubling_growth_matches_log(self):
        rep = case2_divergence(E_IDENT, max_exp=20)
        rows = {int(r["X"]): r for r in rep["rows"]}
        diff = rows[2**20]["S"] - rows[2**10]["S"]
        assert diff == approx(10 * math.log(2), rel=0.02)

    def test_partial_integrals_dominate_harmonic(self):
        rep = case2_divergence(E_IDENT, max_exp=16)
        assert rep["dominates"]
        for row in rep["rows"]:
            assert row["S"] >= row["H"] * (1 - 1e-12)
        hs = [r["H"] for r in rep["rows"]]
        assert all(b > a for a, b in zip(hs, hs[1:]))
        assert hs[-1] > 9.0  # the harmonic minorant clears any fixed bar

    def test_termwise_minorant(self):
        rep = case2_divergence(E_FACT, max_exp=16)
        assert rep["minorant"]["terms"] == 10**4
        assert rep["minorant"]["integral_ge_pointwise"]
        assert rep["minorant"]["pointwise_ge_harmonic"]

    def test_mesh_cross_check_is_one_sided(self):
        rep = case2_divergence(E_IDENT, max_exp=10)
        mc = rep["mesh_check"]
        assert mc["one_sided"]
        assert 0 <= mc["rel_gap"] < 0.13

    @pytest.mark.parametrize("max_exp", range(3, 8))
    def test_mesh_cross_check_whole_below_its_window(self, max_exp):
        # the cross-check sums its own closed-form terms over [2, 128), so a
        # cutoff 2^max_exp at or below 128 neither cuts nor moves them
        mc = case2_divergence(E_IDENT, max_exp=max_exp)["mesh_check"]
        assert mc["one_sided"]
        assert mc["exact"].hex() == case2_divergence(E_IDENT, max_exp=16)["mesh_check"]["exact"].hex()

    @pytest.mark.parametrize("max_exp", range(3, 21))
    def test_rows_match_whole_array_oracle(self, max_exp):
        # the chunked sums carry the bits of the tree sums over whole arrays
        for gamma in (F(1, 2), F(2, 3)):
            rep = case2_divergence(E_IDENT, gamma=gamma, max_exp=max_exp)
            rows, minorant = rows_and_minorant(float(gamma), max_exp)
            assert [{k: float(v).hex() for k, v in r.items()} for r in rep["rows"]] == \
                [{k: float(v).hex() for k, v in r.items()} for r in rows]
            assert rep["minorant"] == minorant

    def test_memory_bounded_in_the_cutoff(self):
        # a fresh process (ru_maxrss in kilobytes, as Linux gives it): its peak RSS grows by a few MB
        # over the import at 2^22 terms, where holding them all at once took about 180 MB
        code = ("import resource; from fractions import Fraction as F; from dyadlab.pairs import case2_divergence; "
                "from dyadlab.sampled import ExponentTuple; peak = lambda: resource.getrusage(resource.RUSAGE_SELF)"
                ".ru_maxrss; before = peak(); case2_divergence(ExponentTuple(1, F(1, 2), 2, 2), max_exp=22); "
                "print((peak() - before) * 1024)")
        paths = [str(Path(pairs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        grown = int(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                   check=True).stdout)
        assert grown < 16 * 2**20

    @pytest.mark.parametrize("kwargs", [{"max_exp": 10.5}, {"max_exp": 2}], ids=repr)
    def test_sizes_must_be_integers(self, kwargs):
        with pytest.raises(ExampleError):
            case2_divergence(E_IDENT, **kwargs)

    def test_regime_and_gamma_rejection(self):
        with pytest.raises(ExampleError):
            case2_divergence(E_CASE1)
        with pytest.raises(ExampleError):
            case2_divergence(E_IDENT, gamma=1)
        with pytest.raises(ExampleError):
            case2_divergence(E_SOB)  # gamma = 0 degenerates


class TestClassicalPair:
    def test_unit_weight(self):
        w = SampledFunction.constant(1.0, 1, (0,), 1, 48)
        pair = classical_pair(w, E_SOB)
        assert np.all(pair.u.values == 1.0)
        assert np.all(pair.sigma.values == 1.0)
        assert pair.provenance == "classical"

    def test_powers_applied_cellwise(self):
        w = rand_weight(48, 11, side=1, lo=0.5, hi=2.0)
        pair = classical_pair(w, E_SOB)
        assert pair.u.values == approx(w.values ** float(E_SOB.q))
        assert pair.sigma.values == approx(w.values ** (-float(E_SOB.pprime)))

    def test_needs_sobolev_line(self):
        w = SampledFunction.constant(1.0, 1, (0,), 1, 48)
        with pytest.raises(ExampleError):
            classical_pair(w, E_FACT)

    def test_zero_cells_rejected(self):
        vals = np.ones(48)
        vals[7] = 0.0
        w = SampledFunction(1, (0,), 1, vals)
        with pytest.raises(ValueError):
            classical_pair(w, E_SOB)

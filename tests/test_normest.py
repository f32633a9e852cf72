"""Norm lower bounds, the tail quadrature of the Orlicz maximal norm, and the equivalence report."""

import json
import math
import re
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from pytest import approx

from dyadlab import normest, operators
from dyadlab.constants import WeightPair, _require_dim, sawyer_maximal_testing
from dyadlab.grid import GridFamily, all_shifts, realize
from dyadlab.operators import frac_maximal, outer_riesz, _shell_constant
from dyadlab.normest import (
    NormError,
    NormEstimate,
    TestFamily,
    equivalence_report,
    estimate_norm,
    orlicz_norm_quadrature,
    potential_testing_chain,
    unit_pair,
    _inside_cubes,
)
from dyadlab.orlicz import CONVERGENT, DIVERGENT, PowerLog, PowerScaled, borderline, log_bump, power, power_log
from dyadlab.pairs import classical_pair
from dyadlab.sampled import ExponentTuple, SampledFunction, lp_norm, lp_norms

import norm_oracle
from cube_oracle import integral
from fraction_oracle import ancestor_chain, fraction_calls, refuse_fraction_geometry
from operator_oracle import PUBLIC_OPERATORS
from shell_loop_oracle import shells_by_level


def rand_weight(dim, lower, side, ncells, seed, lo=0.2, hi=3.0):
    rng = np.random.default_rng(seed)
    shape = (ncells,) * dim
    return SampledFunction(dim, lower, side, rng.uniform(lo, hi, shape))


def ones(dim=1, lower=(0,), side=1, ncells=48):
    return SampledFunction.constant(1.0, dim, lower, side, ncells)


def rand_pair(seed, dim=1, lower=(0,), side=1, ncells=48):
    return WeightPair(
        rand_weight(dim, lower, side, ncells, seed),
        rand_weight(dim, lower, side, ncells, seed + 1000),
    )


E_SOB = ExponentTuple(1, F(1, 2), F(4, 3), F(4))        # Sobolev scaling
E_FRAC = ExponentTuple(1, F(1, 4), F(4, 3), F(4))       # strict fractional regime
E_SOB2 = ExponentTuple(2, F(1), F(4, 3), F(4))          # 2-d Sobolev
E_SOB_B = ExponentTuple(1, F(1, 2), F(3, 2), F(6))      # Sobolev, p' != q

LIGHT = TestFamily(random_steps=2)


class TestEstimateNorm:
    def test_identity_on_lebesgue_is_one(self):
        pair = WeightPair(ones(), ones())
        e = ExponentTuple(1, 0, 2, 2)
        est = estimate_norm("identity", pair, e)
        assert est.value == 1.0
        assert est.argmax.startswith("chi[")
        assert est.family_size == 94  # 57 indicators + 6 steps + 31 duality

    @pytest.mark.parametrize("op", normest.OPERATOR_IDS)
    def test_overflow_refused_not_reported(self, op):
        # sigma = 1e200: the true forward ratio is about 1e50, but the
        # target norm overflows (the Orlicz power mean, the image first)
        one = ones(ncells=24)
        pair = WeightPair(one, one.with_values(np.full(24, 1e200)))
        with pytest.raises(NormError, match=re.escape("test function chi[s=(0,),l=0,pos=(0,)] is not finite")):
            estimate_norm(op, pair, E_SOB, phi=power(2))
        # u = 1e100: the duality seeds (1e100)^3 are finite, their source norms are not
        pair = WeightPair(one.with_values(np.full(24, 1e100)), one)
        what = "target" if op == "weighted_dyadic_maximal" else "source"
        with pytest.raises(NormError, match=re.escape(f"the {what} norm of the test function dual[chi[s=(0,),l=0,")):
            estimate_norm(op, pair, E_SOB, phi=power(2))

    def test_dyadic_maximal_within_lebesgue_bound(self):
        # The mu-maximal norm bound (1 + p'/q)^{1 - beta/n} with mu = Lebesgue.
        pair = WeightPair(ones(), ones())
        est = estimate_norm("dyadic_frac_maximal", pair, E_SOB)
        bound = (1 + float(E_SOB.pprime / E_SOB.q)) ** (1 - float(1 / E_SOB.p - 1 / E_SOB.q))
        assert 0 < est.value <= bound + 1e-9

    @pytest.mark.parametrize("seed", [3, 17])
    def test_weighted_maximal_within_general_measure_bound(self, seed):
        mu = rand_weight(1, (0,), 1, 48, seed)
        pair = WeightPair(mu, mu)
        est = estimate_norm("weighted_dyadic_maximal", pair, E_SOB)
        bound = (1 + float(E_SOB.pprime / E_SOB.q)) ** (1 - float(1 / E_SOB.p - 1 / E_SOB.q))
        assert 0 < est.value <= bound + 1e-9

    def test_weighted_maximal_2d_within_bound(self):
        mu = rand_weight(2, (0, 0), 1, 24, 5)
        pair = WeightPair(mu, mu)
        est = estimate_norm("weighted_dyadic_maximal", pair, E_SOB2, family=LIGHT)
        bound = (1 + float(E_SOB2.pprime / E_SOB2.q)) ** (1 - float(1 / E_SOB2.p - 1 / E_SOB2.q))
        assert 0 < est.value <= bound + 1e-9

    def test_family_growth_is_monotone(self):
        pair = rand_pair(7)
        fams = [
            TestFamily(indicators=True, random_steps=0, duality=False),
            TestFamily(indicators=True, random_steps=3, duality=False),
            TestFamily(indicators=True, random_steps=3, duality=True),
            TestFamily(indicators=True, random_steps=6, duality=True),
        ]
        vals = [estimate_norm("dyadic_riesz", pair, E_SOB, f).value for f in fams]
        sizes = [estimate_norm("dyadic_riesz", pair, E_SOB, f).family_size for f in fams]
        assert vals == sorted(vals)
        assert sizes == sorted(sizes)

    def test_same_seed_reproducible(self):
        pair = rand_pair(9)
        a = estimate_norm("frac_maximal", pair, E_SOB)
        b = estimate_norm("frac_maximal", pair, E_SOB)
        assert a.value == b.value and a.argmax == b.argmax

    def test_weak_below_strong(self):
        pair = rand_pair(21)
        weak = estimate_norm("dyadic_riesz", pair, E_SOB, weak=True)
        strong = estimate_norm("dyadic_riesz", pair, E_SOB)
        assert weak.value <= strong.value + 1e-12

    def test_dyadic_maximal_below_dyadic_riesz(self):
        # Pointwise domination with identical families forces ordered estimates.
        pair = rand_pair(23)
        m = estimate_norm("dyadic_frac_maximal", pair, E_SOB)
        i = estimate_norm("dyadic_riesz", pair, E_SOB)
        assert m.value <= i.value + 1e-12

    def test_riesz_1d_runs(self):
        pair = rand_pair(29)
        est = estimate_norm("riesz_1d", pair, E_SOB, family=LIGHT)
        assert est.value > 0

    def test_descriptors(self):
        pair = rand_pair(31)
        est = estimate_norm("frac_maximal", pair, E_SOB)
        assert est.source == "L^4/3(sigma)" and est.target == "L^4(u)"
        dual = estimate_norm("frac_maximal", pair, E_SOB, side="dual", weak=True)
        assert dual.source == "L^4/3(u)" and dual.target == "weak-L^4(sigma)"
        obj = dual.to_obj()
        assert set(obj) == {"operator", "source", "target", "value", "argmax", "family_size"}

    def test_unknown_operator_and_side(self):
        pair = rand_pair(1)
        with pytest.raises(NormError):
            estimate_norm("hilbert", pair, E_SOB)
        with pytest.raises(NormError):
            estimate_norm("frac_maximal", pair, E_SOB, side="sideways")

    def test_zero_source_mass_errors(self):
        zero = SampledFunction.constant(0.0, 1, (0,), 1, 48)
        pair = WeightPair(ones(), zero)
        with pytest.raises(NormError):
            estimate_norm("dyadic_riesz", pair, E_SOB)

    def test_empty_family_errors(self):
        pair = rand_pair(2)
        fam = TestFamily(indicators=False, random_steps=0, duality=False)
        with pytest.raises(NormError):
            estimate_norm("dyadic_riesz", pair, E_SOB, fam)

    def test_family_with_every_source_off_is_empty(self):
        fam = TestFamily(indicators=False, random_steps=0, duality=False)
        with pytest.raises(NormError, match="the test family is empty"):
            estimate_norm("dyadic_riesz", rand_pair(2), E_SOB, fam)

    @pytest.mark.parametrize("recipe", [
        {"random_steps": 2.5}, {"random_steps": True}, {"random_steps": "3"},
        {"seed": -1}, {"seed": 1.5}, {"seed": True}, {"seed": None},
    ], ids=repr)
    def test_bad_recipe_refused(self, recipe):
        with pytest.raises(NormError, match="must be a nonnegative integer"):
            TestFamily(**recipe)

    def test_numpy_integer_recipe_accepted(self):
        assert TestFamily(random_steps=np.int64(2), seed=np.uint8(3)).describe()["seed"] == 3

    def test_orlicz_operator_needs_young_function(self):
        pair = rand_pair(4)
        with pytest.raises(NormError):
            estimate_norm("orlicz_maximal", pair, E_SOB, family=LIGHT)

    @pytest.mark.parametrize("op", ["identity", "frac_maximal", "dyadic_frac_maximal", "dyadic_riesz",
                                    "riesz_1d", "weighted_dyadic_maximal"])
    @pytest.mark.parametrize("weak", [False, True], ids=["strong", "weak"])
    def test_test_functions_call_no_fractions(self, op, weak):
        # a test function's norms and image read the mesh's geometry record:
        # three more test functions make no more calls into fractions
        pair = rand_pair(6, lower=(-1,), side=2, ncells=24)

        def calls(steps):
            fam = TestFamily(indicators=False, random_steps=steps, duality=False)
            out = []
            n = fraction_calls(lambda: out.append(estimate_norm(op, pair, E_SOB, fam, weak=weak)))
            assert out[0].family_size == steps
            return n

        calls(1)  # the scans are built
        assert calls(4) == calls(1)


class TestQuadratureBound:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("phi,p,q", [(power_log(2, 1), 1.5, 2), (log_bump(3, 1), F(4, 3), 4),
                                         (power(3), F(4, 3), 4)], ids=["power_log", "log_bump", "power"])
    def test_overflowing_tail_is_divergent_without_warning(self, phi, p, q):
        # the tail integrand overflows to inf: a divergent verdict, no warning
        bar = phi.associate() if phi.is_power else phi.comparable_associate()
        val, rep = orlicz_norm_quadrature(bar, p, q)
        assert (val, rep.verdict) == (math.inf, DIVERGENT)

    def test_plain_power_closed_form(self):
        # int_1^inf t^{4/3 - 2} dt/t = 1/(2 - 4/3), bound is its square root.
        val, rep = orlicz_norm_quadrature(power(F(4, 3)), 2.0)
        assert rep.verdict == CONVERGENT
        assert val == approx((1 / (2 - 4 / 3)) ** 0.5, rel=1e-5)

    @pytest.mark.parametrize("r", [1.2, 2.0, 8.0])
    def test_power_conjugate_families(self, r):
        # phibar = t^{(r p')'}: closed forms for both the same-exponent
        # tail integral and the fractional one.
        p, q = 4 / 3, 4.0
        pp = p / (p - 1)
        m = (r * pp) / (r * pp - 1)
        bar = power(m)
        v_classic, rep_c = orlicz_norm_quadrature(bar, p)
        assert rep_c.verdict == CONVERGENT
        assert v_classic == approx((1 / (p - m)) ** (1 / p), rel=1e-4)
        v_frac, rep_f = orlicz_norm_quadrature(bar, p, q)
        assert rep_f.verdict == CONVERGENT
        assert v_frac == approx((p / (q * (p - m))) ** (1 / q), rel=1e-4)
        # The fractional bound is controlled by the classical one.
        assert v_frac <= v_classic * 1.01

    def test_function_outside_power_log_refused_at_q_above_p(self):
        # t^m as PowerScaled(t^m, 1) is no PowerLog: at q > p its tail
        # integrand phibar^{q/p} is refused, while at q = p the function is
        # its own integrand and gives the closed form
        p, q, m = 4 / 3, 4.0, 1.1
        bar = PowerScaled(power(m), 1.0)
        with pytest.raises(NormError, match="needs a PowerLog"):
            orlicz_norm_quadrature(bar, p, q)
        val, rep = orlicz_norm_quadrature(bar, p)
        assert rep.verdict == CONVERGENT
        assert val == approx((1 / (p - m)) ** (1 / p), rel=1e-4)

    @pytest.mark.parametrize("r", [1.05, 1.2, 2.0, 8.0])
    def test_power_conjugate_scales_like_dual_exponent(self, r):
        # Across r the two bounds track (r')^{1/p} and (r')^{1/q}.
        p, q = 4 / 3, 4.0
        pp = p / (p - 1)
        m = (r * pp) / (r * pp - 1)
        rprime = r / (r - 1)
        v_classic, _ = orlicz_norm_quadrature(power(m), p)
        v_frac, _ = orlicz_norm_quadrature(power(m), p, q)
        assert 0.4 <= v_classic / rprime ** (1 / p) <= 2.5
        assert 0.4 <= v_frac / rprime ** (1 / q) <= 2.5

    def test_log_bump_membership_split(self):
        # t^p / log^{(1+eps) p/q}: always in the fractional class, in the
        # classical one only for eps > q/p - 1.
        p, q = 4 / 3, 4.0
        phi = borderline(p, q, 0.5)
        v_frac, rep_f = orlicz_norm_quadrature(phi, p, q)
        assert rep_f.verdict == CONVERGENT and math.isfinite(v_frac)
        v_classic, rep_c = orlicz_norm_quadrature(phi, p)
        assert rep_c.verdict == DIVERGENT and v_classic == math.inf
        phi_big = borderline(p, q, 3.0)
        v_big, rep_big = orlicz_norm_quadrature(phi_big, p)
        assert rep_big.verdict == CONVERGENT and math.isfinite(v_big)

    def test_log_bump_epsilon_rates(self):
        # Halving eps scales the classical bound by about 2^{1/p} and the
        # fractional bound of the p/q-normalized family by about 2^{1/q}.
        p, q = 4 / 3, 4.0
        v1, _ = orlicz_norm_quadrature(PowerLog(p, -(1 + 0.3)), p)
        v2, _ = orlicz_norm_quadrature(PowerLog(p, -(1 + 0.15)), p)
        assert v2 / v1 == approx(2 ** (1 / p), rel=0.15)
        w1, _ = orlicz_norm_quadrature(borderline(p, q, 0.3), p, q)
        w2, _ = orlicz_norm_quadrature(borderline(p, q, 0.15), p, q)
        assert w2 / w1 == approx(2 ** (1 / q), rel=0.15)

    def test_rejects_bad_exponents(self):
        with pytest.raises(NormError):
            orlicz_norm_quadrature(power(2), 3.0, 2.0)
        with pytest.raises(NormError):
            orlicz_norm_quadrature(power(2), 1.0)


class TestEquivalenceReport:
    def test_lebesgue_pipeline(self):
        pair = WeightPair(ones(), ones())
        rep = equivalence_report(pair, E_SOB)
        assert not rep["degenerate"]
        for est in rep["estimates"].values():
            assert est["value"] > 0 and math.isfinite(est["value"])
        assert rep["testing_chain"]["holds"]
        assert rep["duality_chain"]["holds"]
        assert rep["ratios"]["dyadic_maximal_vs_strong"] <= 1 + 1e-12
        assert 0.1 <= rep["ratios"]["weak_vs_dual_maximal"] <= 10

    @pytest.mark.parametrize("seed", [11, 42])
    def test_random_pair_chains_hold(self, seed):
        pair = rand_pair(seed)
        rep = equivalence_report(pair, E_SOB)
        assert rep["testing_chain"]["max_ratio"] <= 1 + 1e-9
        assert rep["testing_chain"]["cubes"] > 0
        assert rep["duality_chain"]["holds"]
        assert rep["ratios"]["dyadic_maximal_vs_strong"] <= 1 + 1e-12

    def test_2d_pipeline(self):
        pair = rand_pair(13, dim=2, lower=(0, 0), ncells=24)
        rep = equivalence_report(pair, E_SOB2, family=LIGHT)
        assert not rep["degenerate"]
        assert rep["testing_chain"]["holds"]
        assert rep["duality_chain"]["holds"]

    def test_testing_constant_matches_constants_module(self):
        from dyadlab.constants import outer_testing_constant

        pair = rand_pair(19)
        chain = potential_testing_chain(pair, E_SOB)
        direct = outer_testing_constant(pair, E_SOB, shifts=[(0,)])
        assert chain["testing_constant"] == approx(direct.value, rel=1e-9)

    def test_refuses_p_not_below_q(self):
        pair = rand_pair(3)
        with pytest.raises(NormError):
            equivalence_report(pair, ExponentTuple(1, F(1, 2), 2, 2))
        with pytest.raises(NormError):
            equivalence_report(pair, ExponentTuple(1, F(1, 2), 3, 2))

    def test_refuses_alpha_zero(self):
        pair = rand_pair(3)
        with pytest.raises(NormError):
            equivalence_report(pair, ExponentTuple(1, 0, F(4, 3), 4))

    def test_testing_chain_over_no_cube_does_not_hold(self):
        # levels -4..-1 hold no cube inside the unit window, so the chain
        # tested nothing and must not count as a pass
        from dyadlab.pairs import classical_pair

        pair = classical_pair(rand_weight(1, (0,), 1, 24, 5), E_SOB)
        chain = potential_testing_chain(pair, E_SOB, min_level=-4, max_level=-1)
        assert chain["cubes"] == 0
        assert chain["holds"] is False
        rep = equivalence_report(pair, E_SOB, family=LIGHT, min_level=-4, max_level=-1)
        assert rep["testing_chain"]["cubes"] == 0
        assert rep["testing_chain"]["holds"] is False

    def test_testing_chain_with_no_compared_cube_does_not_hold(self):
        # u = 0 makes every maximal side zero: the chain has cubes but
        # compared none of them, so it tested nothing
        pair = WeightPair(SampledFunction.constant(0.0, 1, (0,), 1, 48), ones())
        chain = potential_testing_chain(pair, E_SOB)
        assert chain["cubes"] > 0
        assert chain["max_ratio"] is None and chain["worst_cube"] is None
        assert chain["holds"] is False
        json.dumps(chain, allow_nan=False)

    def test_duality_chain_over_no_cube_does_not_hold(self):
        # the zero-shift forward testing constant scores no cube at levels
        # -4..-1 on the unit window, so the duality chain tested nothing
        from dyadlab.pairs import classical_pair

        pair = classical_pair(rand_weight(1, (0,), 1, 48, 5), E_SOB)
        sawyer = sawyer_maximal_testing(pair, E_SOB, shifts=[(0,)], min_level=-4, max_level=-1,
                                        which="forward", inner_shifts=[(0,)])
        assert sawyer.n_scored == 0
        rep = equivalence_report(pair, E_SOB, family=LIGHT, min_level=-4, max_level=-1)
        assert rep["duality_chain"]["testing"] == 0.0
        assert rep["duality_chain"]["holds"] is False
        assert rep["duality_chain"]["cubes"] == 0

    def test_duality_chain_counts_the_scored_cubes(self):
        pair = rand_pair(11)
        sawyer = sawyer_maximal_testing(pair, E_SOB, shifts=[(0,)], which="forward", inner_shifts=[(0,)])
        rep = equivalence_report(pair, E_SOB, family=LIGHT)
        assert rep["duality_chain"]["cubes"] == sawyer.n_scored > 0
        degenerate = WeightPair(ones(), SampledFunction.constant(0.0, 1, (0,), 1, 48))
        assert equivalence_report(degenerate, E_SOB)["duality_chain"]["cubes"] == 0

    @pytest.mark.parametrize("zero", ["sigma", "u"])
    def test_degenerate_pair_flagged(self, zero):
        nothing = SampledFunction.constant(0.0, 1, (0,), 1, 48)
        pair = WeightPair(ones(), nothing) if zero == "sigma" else WeightPair(nothing, ones())
        rep = equivalence_report(pair, E_SOB)
        assert rep["degenerate"]
        assert all(est["value"] == 0.0 for est in rep["estimates"].values())
        # nothing was measured, so neither chain holds and no ratio exists
        assert not rep["testing_chain"]["holds"] and not rep["duality_chain"]["holds"]
        assert rep["ratios"] == {"weak_vs_dual_maximal": None, "maximal_forward_vs_strong": None,
                                 "maximal_dual_vs_strong": None, "dyadic_maximal_vs_strong": None}


class TestDualityChain:
    @pytest.mark.parametrize("seed,e", [(11, E_SOB), (11, E_FRAC), (42, E_SOB), (7, E_SOB_B)])
    def test_forward_testing_below_weak_riesz(self, seed, e):
        # The saturating functions force the zero-shift forward testing
        # constant under q' times the weak Riesz estimate.
        pair = rand_pair(seed)
        sawyer = sawyer_maximal_testing(pair, e, shifts=[(0,)], which="forward", inner_shifts=[(0,)])
        weak = estimate_norm("dyadic_riesz", pair, e, weak=True)
        assert sawyer.value <= float(e.qprime) * weak.value * (1 + 1e-9)


class TestHelpers:
    def test_unit_pair_mesh(self):
        w = rand_weight(2, (0, 0), 1, 24, 1)
        pair = unit_pair(w)
        assert pair.u.same_mesh(w) and float(np.min(pair.u.values)) == 1.0

    def test_family_describe_roundtrip(self):
        fam = TestFamily(indicators=False, random_steps=4, seed=9, duality=True)
        assert fam.describe() == {
            "indicators": False,
            "random_steps": 4,
            "seed": 9,
            "duality": True,
        }
        with pytest.raises(NormError):
            TestFamily(random_steps=-1)

    @pytest.mark.parametrize("dim,lower,ncells", [(1, (-1,), 48), (2, (0, -1), 12)])
    def test_inside_cubes_level_major(self, dim, lower, ncells):
        # with every shift, levels never decrease, and within a level the
        # grids come in all_shifts order, the zero shift first
        w = rand_weight(dim, lower, 2, ncells, 5)
        order = all_shifts(dim)
        keys = [(scan.level, order.index(scan.grid.shift))
                for _, scan, _, _ in _inside_cubes(w, w, None, None, None)]
        assert keys == sorted(keys)
        assert {k[1] for k in keys} == set(range(len(order)))
        for level in {k[0] for k in keys}:
            assert min(k[1] for k in keys if k[0] == level) == 0


class TestExponentDimension:
    @pytest.mark.parametrize("call", [
        lambda pair, e: estimate_norm("frac_maximal", pair, e),
        potential_testing_chain,
    ], ids=["estimate_norm", "potential_testing_chain"])
    def test_wrong_dimension_refused(self, call):
        pair = rand_pair(71, dim=2, lower=(0, 0), ncells=12)
        with pytest.raises(NormError, match="exponent dimension does not match the weights"):
            call(pair, E_SOB)


# --- the testing chain, per cube --------------------------------------------


def shell_oracle(sigma, cube0, alpha):
    """The shell potential of one cube from the rational geometry of its
    ancestor chain: each ancestor, coarse to fine, writes its shell onto
    the cells it covers."""
    n = sigma.dim
    C = _shell_constant(alpha, n)
    a = float(alpha)
    mass = integral(sigma, cube0)
    out = np.zeros_like(sigma.values)
    for A in reversed(ancestor_chain(cube0, sigma.window)):
        b = realize(A)
        out[sigma.cell_slices(b, require_aligned=True)] = C * float(b.volume()) ** (a / n - 1.0) * mass
    return sigma.with_values(out)


def potential_testing_chain_oracle(pair, e, min_level=None, max_level=None):
    """normest.potential_testing_chain one cube at a time: per cube one
    shell from shell_oracle, one cut sigma chi_Q0 and one frac_maximal."""
    _require_dim(pair, e, NormError)
    coeff = _shell_constant(e.alpha, e.n, NormError)
    qf = float(e.q)
    inv_p = float(1 / e.p)
    worst, worst_cube = -math.inf, None
    testing_value, testing_arg = 0.0, None
    count = 0
    for label, scan, pos, mass in _inside_cubes(pair.u, pair.sigma, [(0,) * e.n], min_level, max_level):
        cube = scan.cube_at(pos)
        lhs = lp_norm(shell_oracle(pair.sigma, cube, e.alpha), qf, weight=pair.u)
        cut = pair.sigma.restrict_to(cube)
        rhs = coeff * lp_norm(frac_maximal(cut, e.alpha, min_level=min_level, max_level=max_level),
                              qf, weight=pair.u)
        count += 1
        quotient = lhs * mass ** (-inv_p)
        if quotient > testing_value:
            testing_value, testing_arg = quotient, label
        if rhs > 0 and lhs / rhs > worst:
            worst, worst_cube = lhs / rhs, label
    return {
        "cubes": count,
        "max_ratio": None if worst_cube is None else worst,
        "worst_cube": worst_cube,
        "holds": worst_cube is not None and worst <= 1.0 + 1e-9,
        "testing_constant": testing_value,
        "testing_argmax": testing_arg,
        "coefficient": coeff,
    }


CHAIN_MESHES = [(1, (0,), 1, 24), (1, (-1,), 2, 48), (1, (0,), 1, 384),
                (2, (0, 0), 1, 6), (2, (-1, 0), 2, 12), (2, (0, 0), 1, 24)]


def chain_pair(kind, dim, lower, side, ncells):
    """A classical pair, a random pair, or a random pair whose sigma is
    zero on a block of cells."""
    e = E_SOB if dim == 1 else E_SOB2
    u = rand_weight(dim, lower, side, ncells, 41)
    if kind == "classical":
        return classical_pair(u, e), e
    sigma = rand_weight(dim, lower, side, ncells, 42)
    if kind == "zero_block":
        vals = sigma.values.copy()
        vals[(slice(0, ncells // 2),) + (slice(ncells // 3, None),) * (dim - 1)] = 0.0
        sigma = sigma.with_values(vals)
    return WeightPair(u, sigma), e


class TestBatchedTestingChain:
    @pytest.mark.parametrize("levels", [{}, {"min_level": 0}], ids=["default", "min0"])
    @pytest.mark.parametrize("kind", ["classical", "random", "zero_block"])
    @pytest.mark.parametrize("mesh", CHAIN_MESHES, ids=lambda m: f"{m[0]}d_{m[3]}")
    def test_matches_per_cube_oracle(self, mesh, kind, levels):
        pair, e = chain_pair(kind, *mesh)
        got = potential_testing_chain(pair, e, **levels)
        assert got["cubes"] > 0
        assert got == potential_testing_chain_oracle(pair, e, **levels)

    @pytest.mark.parametrize("batch_floats", [1, 48, 48 * 5])
    def test_batches_give_the_same_dict(self, monkeypatch, batch_floats):
        # one cube, one cube, and five cubes per batch on 48 cells: the
        # 31 cubes span several batches, the last one short
        pair, e = chain_pair("random", 1, (0,), 1, 48)
        want = potential_testing_chain_oracle(pair, e)
        monkeypatch.setattr(normest, "CHAIN_BATCH_FLOATS", batch_floats)
        assert potential_testing_chain(pair, e) == want

    def test_vacuous_cases_match_oracle(self):
        # no cube in the level range, and cubes with no positive maximal side
        pair = classical_pair(rand_weight(1, (0,), 1, 24, 5), E_SOB)
        levels = {"min_level": -4, "max_level": -1}
        assert potential_testing_chain(pair, E_SOB, **levels) == potential_testing_chain_oracle(pair, E_SOB, **levels)
        pair = WeightPair(SampledFunction.constant(0.0, 1, (0,), 1, 48), ones())
        got = potential_testing_chain(pair, E_SOB)
        assert got["cubes"] > 0 and got["worst_cube"] is None
        assert got == potential_testing_chain_oracle(pair, E_SOB)

    def test_no_per_cube_fraction_geometry(self, monkeypatch):
        # cells and ancestors come from the scans' integer plans
        pair, e = chain_pair("random", 2, (-1, 0), 2, 12)
        want = potential_testing_chain_oracle(pair, e)
        refuse_fraction_geometry(monkeypatch)
        assert potential_testing_chain(pair, e) == want

    @pytest.mark.parametrize("split", [False, True], ids=["one_batch", "split"])
    @pytest.mark.parametrize("mesh", [(1, (-1,), 2, 48), (2, (-1, 0), 2, 12)], ids=["1d", "2d"])
    def test_shells_match_parent_loop(self, monkeypatch, mesh, split):
        # every batch of shells the chain builds, against the per-level loop
        pair, e = chain_pair("zero_block", *mesh)
        calls = []

        def recording(*args):
            calls.append((args, operators._shells(*args)))
            return calls[-1][1]

        monkeypatch.setattr(normest, "_shells", recording)
        if split:
            monkeypatch.setattr(normest, "CHAIN_BATCH_FLOATS", 4 * pair.u.values.size)
        cubes = potential_testing_chain(pair, e)["cubes"]
        assert cubes > 4 and len(calls) == (-(-cubes // 4) if split else 1)
        for args, got in calls:
            assert np.array_equal(got, shells_by_level(*args))

    @pytest.mark.parametrize("dim,lower,side,ncells", [(1, (-1,), 2, 24), (2, (-1, 0), 2, 12), (2, (0, 0), 1, 12)])
    def test_outer_riesz_matches_shell_oracle(self, dim, lower, side, ncells):
        # every cube of every shifted grid at levels -2..2, including cubes
        # the window clips and chains pinned at the origin
        sigma = rand_weight(dim, lower, side, ncells, 43)
        alpha = F(1, 2) if dim == 1 else F(1)
        for shift in all_shifts(dim):
            for cube in GridFamily(dim, shift, -2, sigma.max_aligned_level, sigma.window):
                got = outer_riesz(sigma, cube, alpha).values
                assert np.array_equal(got, shell_oracle(sigma, cube, alpha).values), cube


# --- the test families, from the scans' integer plans ------------------------


def _iter_family_oracle(op, pair, e, family, side, alpha, min_level, max_level, phi):
    """normest_family with each indicator and each duality cut built
    from the rational box of its cube, one call of the public operator per
    cube for the duality seeds, and every function in a one-row chunk."""
    mesh = pair.u
    source = pair.sigma if side == "forward" else pair.u
    if family.indicators:
        for label, scan, pos, _mass in _inside_cubes(mesh, source, None, min_level, max_level):
            box = realize(scan.cube_at(pos))
            yield [f"chi[{label}]"], SampledFunction.indicator(box, mesh.dim, mesh.lower, mesh.side, mesh.ncells).values[None]
    if family.random_steps > 0:
        rng = np.random.default_rng(family.seed)
        blocks = normest._blocks_for(mesh.ncells)
        reps = mesh.ncells // blocks
        for k in range(family.random_steps):
            vals = rng.exponential(1.0, size=(blocks,) * mesh.dim)
            for ax in range(mesh.dim):
                vals = np.repeat(vals, reps, axis=ax)
            yield [f"step[{k}]"], vals[None]
    if family.duality:
        other = pair.u if side == "forward" else pair.sigma
        expo = float(e.pprime - 1) if side == "forward" else float(e.q - 1)
        for label, scan, pos, _mass in _inside_cubes(mesh, other, [(0,) * mesh.dim], min_level, max_level):
            box = realize(scan.cube_at(pos))
            chi = SampledFunction.indicator(box, mesh.dim, mesh.lower, mesh.side, mesh.ncells)
            seed = PUBLIC_OPERATORS[op](chi, other, alpha, phi, None, min_level, max_level)
            on_cube = np.zeros_like(seed.values, dtype=bool)
            on_cube[other.cell_slices(box, require_aligned=True)] = True
            live = on_cube & (seed.values > 0)
            if not np.any(live):
                continue
            arr = np.zeros_like(seed.values)
            with np.errstate(over="ignore"):
                arr[live] = seed.values[live] ** expo
            if not np.all(np.isfinite(arr)):
                continue
            yield [f"dual[chi[{label}]]"], arr[None]


def normest_family(op, pair, e, family, side, alpha, min_level, max_level, phi):
    """The chunks of normest's two sources for one side and op, in the
    order an estimate folds them."""
    s = normest._side(pair, e, side)
    yield from normest._plain_chunks(pair.u, s, family, min_level, max_level)
    if family.duality:
        yield from normest._duality_chunks(op, pair.u, s, alpha, phi, min_level, max_level)


def oracle_sources(monkeypatch, pair, e):
    """Patch normest's two chunk sources with the parts of _iter_family_oracle."""
    def side_of(s):
        return "forward" if s.dens is pair.sigma else "dual"

    monkeypatch.setattr(normest, "_plain_chunks", lambda mesh, s, family, lo, hi: _iter_family_oracle(
        None, pair, e, replace(family, duality=False), side_of(s), None, lo, hi, None))
    monkeypatch.setattr(normest, "_duality_chunks", lambda op, mesh, s, alpha, phi, lo, hi: _iter_family_oracle(
        op, pair, e, DUAL_ONLY, side_of(s), alpha, lo, hi, phi))


def seed_pair(dim, lower, side, ncells):
    """A random pair whose u and sigma each vanish on a block of cells.
    Each block holds some of the finest zero-shift cubes whole, which the
    mass gate drops, and cuts others, where the cut weight vanishes on part
    of the cube."""
    e = E_SOB if dim == 1 else E_SOB2
    u = rand_weight(dim, lower, side, ncells, 51).values.copy()
    sigma = rand_weight(dim, lower, side, ncells, 52).values.copy()
    u[(slice(ncells // 4, ncells // 2 + 1),) * dim] = 0.0
    sigma[(slice(ncells // 2, 3 * ncells // 4 + 1),) * dim] = 0.0
    mesh = rand_weight(dim, lower, side, ncells, 0)
    return WeightPair(mesh.with_values(u), mesh.with_values(sigma)), e


FAMILY_MESHES = [(1, (0,), 1, 24), (1, (-1,), 2, 24), (2, (0, 0), 1, 6), (2, (-1, 0), 2, 12)]


class TestFamilyOnScans:
    @pytest.mark.parametrize("mesh,op", [
        (mesh, op) for mesh in FAMILY_MESHES for op in normest.OPERATOR_IDS
        if not (op == "riesz_1d" and mesh[0] == 2)
    ], ids=lambda v: f"{v[0]}d_{v[1][0]}_{v[3]}" if isinstance(v, tuple) else v)
    def test_matches_fraction_family(self, monkeypatch, mesh, op):
        # every estimate equals the one over the rational-box family with
        # per-cube duality seeds, bit for bit, also when the indicators and
        # the seeds come in several chunks, and is built with no per-cube
        # rational geometry
        pair, e = seed_pair(*mesh)
        calls = [dict(side=side, weak=weak) for side in ("forward", "dual") for weak in (False, True)]

        def estimates():
            return [estimate_norm(op, pair, e, LIGHT, phi=power(3), **kw) for kw in calls]

        with monkeypatch.context() as m:
            oracle_sources(m, pair, e)
            want = estimates()
        refuse_fraction_geometry(monkeypatch)
        assert estimates() == want
        assert split_chunks(monkeypatch, pair) >= 3
        assert estimates() == want


# --- the duality seeds, batched ----------------------------------------------


DUAL_ONLY = TestFamily(indicators=False, random_steps=0)
SEED_MESHES = [(1, (0,), 1, 24), (1, (-1,), 2, 48), (2, (0, 0), 1, 12), (2, (-1, 0), 2, 12)]
SEED_CASES = [(mesh, op) for mesh in SEED_MESHES for op in normest.OPERATOR_IDS
              if not (op == "riesz_1d" and mesh[0] == 2)]
SEED_IDS = [f"{mesh[0]}d_{mesh[3]}_{mesh[2]}-{op}" for mesh, op in SEED_CASES]


def family(iterate, op, pair, e, side, fam=DUAL_ONLY):
    """(name, values) of each function of the family, out of its chunks."""
    chunks = iterate(op, pair, e, fam, side, float(e.alpha), None, None, power(3))
    return [(name, f) for names, batch in chunks for name, f in zip(names, batch, strict=True)]


def assert_same_family(got, want):
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, f), (_, g) in zip(got, want):
        assert np.array_equal(f, g), name


class TestBatchedDualitySeeds:
    @pytest.mark.parametrize("rows", [None, 1, 5], ids=["one_chunk", "chunks_of_1", "chunks_of_5"])
    @pytest.mark.parametrize("mesh,op", SEED_CASES, ids=SEED_IDS)
    def test_family_matches_per_cube_oracle(self, monkeypatch, mesh, op, rows):
        # the same functions under the same labels, in the same order, and
        # the same cubes dropped by the mass gate and by the seed mask, in
        # one chunk and in chunks of one and of five cubes, the last short
        pair, e = seed_pair(*mesh)
        want = {side: family(_iter_family_oracle, op, pair, e, side) for side in ("forward", "dual")}
        if rows is not None:
            monkeypatch.setattr(normest, "CHAIN_BATCH_FLOATS", rows * pair.u.values.size)
        for side, functions in want.items():
            assert functions
            assert_same_family(family(normest_family, op, pair, e, side), functions)

    @pytest.mark.parametrize("rows", [1, 5, 1000])
    def test_one_core_call_per_chunk(self, monkeypatch, rows):
        # no operator call per cube: the seeds come from the registry
        # operator, once per chunk of rows cubes, and the functions leave in
        # those chunks, not row by row
        pair, e = seed_pair(*SEED_MESHES[0])
        cubes = len(family(normest_family, "frac_maximal", pair, e, "forward"))
        calls = []
        core = normest.OPERATORS["frac_maximal"]

        def counted(f, values, *args):
            calls.append(len(values))
            return core(f, values, *args)

        monkeypatch.setattr(normest, "CHAIN_BATCH_FLOATS", rows * pair.u.values.size)
        monkeypatch.setattr(normest, "OPERATORS", {"frac_maximal": counted})
        chunks = list(normest._duality_chunks("frac_maximal", pair.u, normest._side(pair, e, "forward"),
                                              float(e.alpha), None, None, None))
        assert calls == [min(rows, cubes - k) for k in range(0, cubes, rows)]
        assert [len(names) for names, _ in chunks] == calls
        assert [len(batch) for _, batch in chunks] == calls

    @pytest.mark.parametrize("op", ["identity", "frac_maximal", "dyadic_riesz"])
    def test_overflowing_seeds_skipped_as_one_cube_ones(self, op):
        # u of 1e120 on a block: there the forward seeds raised to p' - 1 = 3
        # overflow, and those functions leave the family
        pair, e = seed_pair(*SEED_MESHES[0])
        u = pair.u.values.copy()
        u[-6:] = 1e120
        pair = WeightPair(pair.u.with_values(u), pair.sigma)
        want = family(_iter_family_oracle, op, pair, e, "forward")
        assert 0 < len(want) < len(list(_inside_cubes(pair.u, pair.u, [(0,)], None, None)))
        assert_same_family(family(normest_family, op, pair, e, "forward"), want)


class TestPlainChunks:
    @pytest.mark.parametrize("split", [False, True], ids=["default", "split"])
    @pytest.mark.parametrize("side", ["forward", "dual"])
    @pytest.mark.parametrize("mesh", FAMILY_MESHES, ids=lambda m: f"{m[0]}d_{m[3]}_{m[2]}")
    def test_family_matches_oracle(self, monkeypatch, mesh, side, split):
        # the indicators and the steps under their own labels, in family
        # order, each row equal to the rational-box indicator or to the
        # step drawn on its own, in one chunk and with the indicators in
        # at least three
        pair, e = seed_pair(*mesh)
        want = family(_iter_family_oracle, None, pair, e, side, TestFamily(duality=False))
        if split:
            assert split_chunks(monkeypatch, pair) >= 3
        chunks = list(normest._plain_chunks(pair.u, normest._side(pair, e, side), TestFamily(), None, None))
        assert len(chunks) >= (4 if split else 2)
        assert_same_family([(name, f) for names, batch in chunks for name, f in zip(names, batch, strict=True)],
                           want)

    @pytest.mark.parametrize("rows", [1, 5, 1000])
    def test_one_core_call_per_chunk(self, monkeypatch, rows):
        # the twin of TestBatchedDualitySeeds.test_one_core_call_per_chunk:
        # the indicators, then the six steps, reach the registry operator
        # once per chunk of rows functions, not one by one
        pair, e = rand_pair(61), E_SOB
        cubes = len(list(_inside_cubes(pair.u, pair.sigma, None, None, None)))
        calls = []
        core = normest.OPERATORS["frac_maximal"]

        def counted(f, values, *args):
            calls.append(len(values))
            return core(f, values, *args)

        monkeypatch.setattr(normest, "CHAIN_BATCH_FLOATS", rows * pair.u.values.size)
        monkeypatch.setattr(normest, "OPERATORS", {"frac_maximal": counted})
        est = estimate_norm("frac_maximal", pair, e, TestFamily(duality=False))
        assert est.family_size == cubes + 6
        assert calls == [min(rows, n - k) for n in (cubes, 6) for k in range(0, n, rows)]


# --- the chunked evaluation, against the one-function-at-a-time oracle -------


def smooth_pair():
    """The default run's classical-smooth pair: u = w^q and sigma = w^{-p'}
    for a slowly varying w on 48 cells of [0, 1)."""
    x = (np.arange(48) + 0.5) / 48
    return classical_pair(SampledFunction(1, (0,), 1, 1.0 + 0.75 * x * (1.0 - x) + 0.25 * x), E_SOB)


# (pair, exponents, family): the default run's two pairs, the pair of
# test_2d_pipeline, a pair whose weights vanish on blocks, so some
# duality functions have zero source norm, and Lebesgue measure, where
# many test functions tie for the best ratio
ORACLE_CASES = {
    "classical_smooth": lambda: (smooth_pair(), E_SOB, TestFamily()),
    "lebesgue": lambda: (unit_pair(ones(ncells=24)), E_SOB, TestFamily()),
    "random": lambda: (rand_pair(11), E_SOB, TestFamily()),
    "2d": lambda: (rand_pair(13, dim=2, lower=(0, 0), ncells=24), E_SOB2, LIGHT),
    "vanishing_blocks": lambda: (*seed_pair(*SEED_MESHES[1]), LIGHT),
}


def split_chunks(monkeypatch, pair, min_level=None):
    """Patch CHAIN_BATCH_FLOATS so that the indicators and the duality
    functions of either side each come in at least three chunks, and
    return the least chunk count."""
    counts = [len(list(_inside_cubes(pair.u, w, shifts, min_level, None)))
              for w in (pair.u, pair.sigma) for shifts in (None, [(0,) * pair.u.dim])]
    rows = max(1, min(counts) // 3)
    monkeypatch.setattr(normest, "CHAIN_BATCH_FLOATS", rows * pair.u.values.size)
    return min(-(-n // rows) for n in counts)


def assert_same_estimate(got: NormEstimate, want: NormEstimate):
    assert got == want
    assert got.value.hex() == want.value.hex()


class TestChunkedEvaluation:
    # each case runs in the default chunks, and again with the indicators
    # and the duality functions each split into at least three chunks

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_equivalence_estimates_match_oracle(self, monkeypatch, case):
        # the five estimates of one forward and one dual evaluation equal
        # five one-function-at-a-time estimates, in value bits, argmax
        # label and family size
        pair, e, fam = ORACLE_CASES[case]()
        want = norm_oracle.equivalence_estimates(pair, e, fam)
        for split in (False, True):
            if split:
                assert split_chunks(monkeypatch, pair) >= 3
            got = equivalence_report(pair, e, family=fam)["estimates"]
            assert list(got) == list(want)
            for key, est in want.items():
                assert_same_estimate(NormEstimate(**got[key]), est)

    @pytest.mark.parametrize("case,op", [(case, op) for case in ORACLE_CASES for op in normest.OPERATOR_IDS
                                         if not (op == "riesz_1d" and case == "2d")])
    def test_estimate_norm_matches_oracle(self, monkeypatch, case, op):
        # each side, strong and weak, in value bits, argmax label and family size
        pair, e, fam = ORACLE_CASES[case]()
        calls = [dict(side=side, weak=weak) for side in ("forward", "dual") for weak in (False, True)]
        want = [norm_oracle.estimate_norm(op, pair, e, fam, phi=power(3), **kw) for kw in calls]
        for split in (False, True):
            if split:
                assert split_chunks(monkeypatch, pair) >= 3
            for kw, est in zip(calls, want):
                assert_same_estimate(estimate_norm(op, pair, e, fam, phi=power(3), **kw), est)

    def test_a_chunk_boundary_cuts_a_tied_maximum(self, monkeypatch):
        # on Lebesgue measure every finest indicator has the identity's best
        # ratio |Q|^{1/q - 1/p}, and the split puts some of them in a later
        # chunk than the first; the first in family order keeps the argmax
        pair, e, fam = ORACLE_CASES["lebesgue"]()
        names, functions = zip(*norm_oracle.iter_family("identity", pair, e, fam, "forward", 0.0, None, None, None))
        # with sigma = 1 the identity's image of f is f
        batch = np.array(functions)
        ratios = np.divide(lp_norms(pair.u, batch, float(e.q), weight=pair.u),
                           lp_norms(pair.u, batch, float(e.p), weight=pair.sigma))
        want = norm_oracle.estimate_norm("identity", pair, e, fam)
        first = names.index(want.argmax)
        assert split_chunks(monkeypatch, pair) >= 3
        rows = normest.CHAIN_BATCH_FLOATS // pair.u.values.size
        assert any(r == ratios[first] and k // rows > first // rows for k, r in enumerate(ratios))
        assert_same_estimate(estimate_norm("identity", pair, e, fam), want)

    # (u, sigma) values on 24 cells, and the min_level of the report
    OVERFLOWS = {
        "sigma_1e200": (1.0, 1e200, None),
        "u_1e100": (1e100, 1.0, None),
        "u_1e100_sigma_1e60": (1e100, 1e60, None),
        "sigma_1e200_right_half": (1.0, np.repeat([1.0, 1e200], 12), 1),
    }

    @pytest.mark.parametrize("weights", OVERFLOWS)
    def test_overflow_raises_the_oracle_error(self, monkeypatch, weights):
        # as in TestEstimateNorm.test_overflow_refused_not_reported: the
        # report raises the error of its first estimate that fails
        one = ones(ncells=24)
        *values, min_level = self.OVERFLOWS[weights]
        pair = WeightPair(*(one.with_values(np.broadcast_to(v, (24,)).copy()) for v in values))
        with pytest.raises(NormError) as want:
            norm_oracle.equivalence_estimates(pair, E_SOB, min_level=min_level)
        for split in (False, True):
            if split:
                assert split_chunks(monkeypatch, pair, min_level) >= 3
            with pytest.raises(NormError) as got:
                equivalence_report(pair, E_SOB, min_level=min_level)
            assert str(got.value) == str(want.value)
        if weights == "sigma_1e200":
            assert str(got.value) == "the target norm of the test function chi[s=(0,),l=0,pos=(0,)] is not finite"
        if weights == "sigma_1e200_right_half":
            # strong_riesz stops at the second indicator, inside the first
            # chunk of the split, and no earlier estimate stops
            assert str(got.value) == "the target norm of the test function chi[s=(0,),l=1,pos=(1,)] is not finite"
            assert normest.CHAIN_BATCH_FLOATS // 24 > 2
        if weights == "u_1e100_sigma_1e60":
            # two forward estimates stop: weak_riesz, first in report order,
            # at a duality function, and strong_riesz after it at the first
            # indicator, an earlier test function
            assert str(want.value).startswith("the source norm of the test function dual[chi[")
            with pytest.raises(NormError, match=r"^the target norm of the test function chi\["):
                norm_oracle.estimate_norm("dyadic_riesz", pair, E_SOB)

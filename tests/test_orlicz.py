"""Young-function and Luxemburg-norm tests with closed-form oracles."""
import math
import warnings

import numpy as np
import pytest
from conjugate_oracle import GoldenConjugate
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.orlicz import (
    CONVERGENT,
    DIVERGENT,
    NumericConjugate,
    OrliczError,
    PowerScaled,
    YoungFunction,
    bp_classify,
    borderline,
    log_bump,
    luxemburg,
    orlicz_holder_check,
    power,
    power_log,
    rescale_identity_check,
)


class TestFamily:
    def test_power_values(self):
        ph = power(2.0)
        np.testing.assert_allclose(ph.eval(np.array([0.0, 1.0, 3.0])), [0, 1, 9])
        assert ph.is_power

    def test_power_log_values(self):
        ph = power_log(1.0, 1.0)
        t = 2.0
        assert ph.eval(t) == pytest.approx(2.0 * math.log(math.e + 2.0), rel=1e-15)
        assert not ph.is_power

    def test_log_eval_matches_eval(self):
        ph = power_log(1.7, -0.6)
        x = np.array([-5.0, 0.0, 2.0, 10.0])
        np.testing.assert_allclose(ph.log_eval(x), np.log(ph.eval(np.exp(x))), rtol=1e-12)

    def test_log_eval_stable_far_out(self):
        ph = power_log(2.0, 3.0)
        out = ph.log_eval(np.array([2000.0]))
        # t^2 log(e+t)^3 at t = e^2000: log = 4000 + 3 log 2000
        assert out[0] == pytest.approx(4000.0 + 3.0 * math.log(2000.0), rel=1e-9)

    def test_borderline_exponent(self):
        ph = borderline(2.0, 4.0, 0.9)
        assert ph.r == 2.0
        assert ph.a == pytest.approx(-(1.9) * 2.0 / 4.0)

    def test_log_bump_requires_positive_delta(self):
        with pytest.raises(OrliczError):
            log_bump(2.0, 0.0)

    def test_power_exponent_validated(self):
        with pytest.raises(OrliczError):
            power(0.5)


class TestConjugate:
    def test_square_conjugate_closed_form(self):
        # sup_s (st - s^2) = t^2/4
        conj = NumericConjugate(power(2.0))
        t = np.array([0.25, 1.0, 2.0, 7.0, 40.0])
        np.testing.assert_allclose(conj.eval(t), t ** 2 / 4.0, rtol=1e-10)

    def test_cube_conjugate_closed_form(self):
        # sup_s (st - s^3): s* = sqrt(t/3), value = (2/3) t^{3/2} / sqrt(3)
        conj = NumericConjugate(power(3.0))
        t = np.array([0.5, 1.0, 5.0])
        expect = 2.0 * t ** 1.5 / (3.0 * math.sqrt(3.0))
        np.testing.assert_allclose(conj.eval(t), expect, rtol=1e-10)

    def test_conjugate_at_zero(self):
        conj = NumericConjugate(power(2.0))
        assert conj.eval(0.0) == 0.0

    def test_small_t_stays_a_lower_bound(self):
        # below t of about 2e-15 the golden steps no longer resolve the
        # maximiser t/2 of s t - s^2, and the value falls short of t^2/4 (it
        # is 0 from t = 1e-19 down), but it never exceeds t^2/4 beyond the
        # roundoff of one evaluation (the worst ratio is 1 + 2.2e-16)
        t = np.geomspace(1e-25, 1e4, 2000)
        got = NumericConjugate(power(2.0)).eval(t)
        exact = t ** 2 / 4.0
        assert np.all(got >= 0.0)
        assert np.all(got <= exact * (1.0 + 1e-15))
        resolved = t >= 2e-15
        assert np.all(exact[resolved] - got[resolved] <= 1e-8 * exact[resolved])
        assert np.any(got[~resolved] < exact[~resolved] * (1.0 - 1e-8))

    def test_power_associate_short_circuit(self):
        ph = power(3.0)
        assoc = ph.associate()
        assert assoc.is_power
        assert assoc.r == pytest.approx(1.5)

    def test_associate_of_exponent_one_rejected(self):
        with pytest.raises(OrliczError):
            power(1.0).associate()

    @given(
        s=st.floats(0.01, 50.0),
        t=st.floats(0.01, 50.0),
        a=st.floats(-0.8, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_young_inequality(self, s, t, a):
        # s t <= Phi(s) + conj(Phi)(t), allowing the tiny search defect
        ph = power_log(2.0, a)
        conj = NumericConjugate(ph)
        lhs = s * t
        rhs = float(ph.eval(s)) + float(conj.eval(t))
        assert lhs <= rhs * (1.0 + 1e-8) + 1e-12

    def test_young_inequality_power_shortcut(self):
        # the plain-power associate is larger than the exact conjugate, so
        # Young's inequality survives the short circuit
        ph = power(2.5)
        assoc = ph.associate()
        s = np.geomspace(1e-3, 1e3, 50)
        for sv in s:
            tv = 3.7
            assert sv * tv <= float(ph.eval(sv)) + float(assoc.eval(tv)) + 1e-12

    def test_comparable_associate_two_sided(self):
        # closed-form partner stays within fixed multiplicative bands of the
        # numeric conjugate over a wide probe range
        ph = log_bump(2.0, 0.7)
        cmp_assoc = ph.comparable_associate()
        num = NumericConjugate(ph)
        t = np.geomspace(1e-2, 1e5, 60)
        ratio = num.eval(t) / cmp_assoc.eval(t)
        assert ratio.max() < 8.0
        assert ratio.min() > 1.0 / 8.0

    def test_comparable_associate_exponents(self):
        ph = power_log(2.0, 1.5)
        cmp_assoc = ph.comparable_associate()
        assert cmp_assoc.r == pytest.approx(2.0)
        assert cmp_assoc.a == pytest.approx(-1.5)

    @pytest.mark.parametrize("depth,phi", [
        (1, power_log(1.5, 0.6)),
        (1, log_bump(2.0, 0.5)),
        (1, borderline(2.0, 4.0, 0.5)),
        (1, log_bump(4.0, 0.5)),
        (2, log_bump(2.0, 0.5)),
        (2, log_bump(4.0, 0.5)),
    ], ids=lambda x: x.label if isinstance(x, YoungFunction) else f"depth{x}")
    def test_bit_identical_to_golden_oracle(self, depth, phi):
        # the early stop, the shared errstate and the reused g(hi) skip only
        # work that cannot change a bit: equal bytes to the 90-step search,
        # in fewer evaluations of Phi.  The stop waits for every point of one
        # call, and small t reaches no fixed point in 90 steps, so the grid
        # goes in by chunks; each outer probe of a double conjugate runs a
        # whole inner solve, so that grid is thinned
        t = np.geomspace(1e-8, 1e4, 2000)
        parts = np.split(t, 8) if depth == 1 else [t[::40]]
        parts.append(np.array([0.0, -1.0, 1e-300]))
        ours, ref = Counting(phi), Counting(phi)
        conj, oracle = ours, ref
        for _ in range(depth):
            conj, oracle = NumericConjugate(conj), GoldenConjugate(oracle)
        for part in parts:
            assert conj.eval(part).tobytes() == oracle.eval(part).tobytes()
        assert ours.evals < ref.evals

    def test_error_state_restored_and_overflow_silent(self):
        conj = NumericConjugate(log_bump(2.0, 0.5))
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = conj.eval(np.geomspace(1e290, 1e308, 40))  # s t overflows
        assert np.geterr() == before
        assert np.all(out > 0)

    def test_nan_argument_gives_nan(self):
        conj = log_bump(2.0, 0.5).associate()
        out = conj.eval(np.array([1.0, math.nan, 0.0, -1.0]))
        assert out[0] == pytest.approx(0.2064, abs=1e-4)
        assert math.isnan(out[1])
        assert out[2] == 0.0 and out[3] == 0.0
        assert math.isnan(conj.eval(math.nan))

    @pytest.mark.parametrize("t", [1.0, [1.0, 2.0], [[0.5], [3.0]]], ids=["scalar", "row", "column"])
    def test_eval_keeps_the_shape_of_t(self, t):
        # a scalar gives a 0-d array, as PowerLog.eval does
        conj = NumericConjugate(log_bump(2.0, 0.5))
        out = conj.eval(t)
        assert out.shape == np.shape(t) == log_bump(2.0, 0.5).eval(t).shape
        assert np.array_equal(out.ravel(), conj.eval(np.ravel(t)))


def bisection_luxemburg(v, m, normalizer, phi):
    """Reference: geometric bisection of lam from the same doubling/halving
    bracket around max(v), stopped at the same hi - lo <= 1e-11 hi."""
    v = np.asarray(v, dtype=float)
    m = np.broadcast_to(np.asarray(m, dtype=float), v.shape)
    keep = (v > 0) & (m > 0)
    if not np.any(keep):
        return 0.0
    v, m = v[keep], m[keep]

    def feasible(lam):
        with np.errstate(over="ignore"):
            tot = float(np.sum(phi.eval(v / lam) * m))
        return math.isfinite(tot) and tot / normalizer <= 1.0

    lo = hi = float(v.max())
    if feasible(hi):
        for _ in range(400):
            lo /= 2.0
            if not feasible(lo):
                break
        else:
            return 0.0
    else:
        for _ in range(400):
            hi *= 2.0
            if feasible(hi):
                break
        else:
            raise OrliczError("bracket did not close")
    while hi - lo > 1e-11 * hi:
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class Counting(YoungFunction):
    """Counts the evaluations a solver asks of a Young function."""

    def __init__(self, base):
        self.base = base
        self.evals = 0

    def eval(self, t):
        self.evals += 1
        return self.base.eval(t)


class Step(YoungFunction):
    """2 on t > 0: the mean never falls to 1, whatever lam."""

    def eval(self, t):
        return np.where(np.asarray(t, dtype=float) > 0, 2.0, 0.0)


# the non-power paths of luxemburg: a > 0, a < 0 (borderline), a rescaled
# Young function and a numeric conjugate
NON_POWER = [
    log_bump(2.0, 0.5),
    borderline(2.0, 4.0, 0.9),
    PowerScaled(log_bump(1.5, 0.3), 0.7),
    NumericConjugate(log_bump(2.0, 0.5)),
]


@st.composite
def lux_cases(draw):
    """(values, masses, normalizer): 1 to 12 cells, some of them zero, at a
    scale from 1e-6 to 1e6, over a region of 1/2 to 4 times their mass."""
    n = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    v = np.array(draw(st.lists(cell, min_size=n, max_size=n)))
    m = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    share = draw(st.floats(0.5, 4.0))
    return v * scale, m, float(m.sum()) * share


class TestLuxemburg:
    def test_power_family_closed_form(self):
        v = np.array([1.0, 2.0, 3.0])
        m = np.array([1 / 3, 1 / 3, 1 / 3])
        lam = luxemburg(v, m, 1.0, power(2.0))
        assert lam == pytest.approx(math.sqrt(14 / 3), rel=1e-14)

    def test_generic_path_matches_power(self):
        rng = np.random.default_rng(1)
        v = rng.uniform(0, 5, 30)
        m = np.full(30, 1 / 30)
        lam_closed = luxemburg(v, m, 1.0, power(2.5))
        lam_generic = luxemburg(v, m, 1.0, PowerScaled(power(1.0), 2.5))
        assert lam_generic == pytest.approx(lam_closed, rel=1e-9)

    def test_zero_function(self):
        assert luxemburg(np.zeros(4), 0.25, 1.0, log_bump(2.0, 0.5)) == 0.0

    def test_indicator_oracle(self):
        # ||chi_E||_Phi over a probability space: mean Phi(1/lam) * |E| = 1,
        # so lam = 1 / Phi^{-1}(1/|E|); check against direct root-finding
        ph = log_bump(2.0, 0.5)
        share = 0.25
        v = np.array([1.0, 0.0, 0.0, 0.0])
        m = np.full(4, share)
        lam = luxemburg(v, m, 1.0, ph)
        assert float(ph.eval(1.0 / lam)) * share == pytest.approx(1.0, rel=1e-9)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(2)
        v = rng.uniform(0, 2, 12)
        m = np.full(12, 1 / 12)
        ph = log_bump(1.5, 0.3)
        lam1 = luxemburg(v, m, 1.0, ph)
        lam3 = luxemburg(3.0 * v, m, 1.0, ph)
        assert lam3 == pytest.approx(3.0 * lam1, rel=1e-9)

    def test_monotone_in_measure_share(self):
        ph = log_bump(2.0, 1.0)
        v = np.array([1.0])
        big = luxemburg(v, np.array([0.5]), 1.0, ph)
        small = luxemburg(v, np.array([0.1]), 1.0, ph)
        assert small < big

    def test_signed_data_rejected(self):
        with pytest.raises(OrliczError):
            luxemburg(np.array([-1.0, 2.0]), 0.5, 1.0, power(2.0))

    @given(phi=st.sampled_from(NON_POWER), case=lux_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_bisection_oracle(self, phi, case):
        v, m, normalizer = case
        lam = luxemburg(v, m, normalizer, phi)
        ref = bisection_luxemburg(v, m, normalizer, phi)
        if ref == 0.0:
            assert lam == 0.0
            return
        assert lam == pytest.approx(ref, rel=1e-10)
        keep = v > 0

        def mean(x):
            return float(np.sum(phi.eval(v[keep] / x) * m[keep])) / normalizer

        assert mean(lam) <= 1.0
        assert mean(lam * (1.0 - 1e-9)) > 1.0

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_single_and_zero_cells(self, n):
        v = np.zeros(n)
        v[n // 2] = 3.0
        m = np.full(n, 1.0 / n)
        for phi in NON_POWER:
            lam = luxemburg(v, m, 1.0, phi)
            assert lam == pytest.approx(bisection_luxemburg(v, m, 1.0, phi), rel=1e-10)
            # one cell of share 1/n: Phi(3/lam) / n = 1
            assert float(phi.eval(3.0 / lam)) / n == pytest.approx(1.0, rel=1e-9)

    def test_evaluations_per_norm(self):
        rng = np.random.default_rng(7)
        counts = []
        for phi in NON_POWER:
            for _ in range(6):
                n = int(rng.integers(1, 30))
                v = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 6)
                m = rng.uniform(0.1, 1.0, n)
                counting = Counting(phi)
                luxemburg(v, m, float(m.sum()) * rng.uniform(1.0, 3.0), counting)
                counts.append(counting.evals)
        assert float(np.median(counts)) <= 12

    def test_bracket_that_never_closes_raises(self):
        with pytest.raises(OrliczError):
            luxemburg(np.array([1.0, 2.0]), 0.5, 1.0, Step())

    def test_halving_that_never_closes_raises(self):
        # the norm is about 1e-129, below 400 halvings of max(values) = 3:
        # the solve raises, it does not return 0 for positive data
        with pytest.raises(OrliczError, match="bracketing did not close"):
            luxemburg(np.array([1.0, 2.0, 3.0]), 1e-130, 1.0, power_log(1.0, 0.5))

    @pytest.mark.parametrize("r", [1025.0, 1100.0, 2000.0])
    def test_overflow_at_the_low_end_converges(self, r):
        # the mean overflows at lam = 1/2, where the bracket's low end stands,
        # so the secant lands on the high end and only the midpoint moves
        phi = power_log(r, 1.0)
        v = np.ones(3)
        lam = luxemburg(v, 1.0, 8.0, phi)

        def mean(x):
            return float(np.sum(phi.eval(v / x))) / 8.0

        assert mean(lam) <= 1.0
        assert mean(lam * (1.0 - 1e-9)) > 1.0

    @pytest.mark.parametrize("values,masses,normalizer", [
        ([1.0, math.nan, 2.0], 0.5, 1.0),
        ([1.0, math.inf, 2.0], 0.5, 1.0),
        ([1.0, 2.0], [0.5, math.nan], 1.0),
        ([1.0, 2.0], [0.5, math.inf], 1.0),
        ([1.0, 2.0], 0.5, math.nan),
        ([1.0, 2.0], 0.5, math.inf),
        ([1.0, 2.0], [-0.5, 0.5], 1.0),
    ], ids=["nan_cell", "inf_cell", "nan_mass", "inf_mass", "nan_normalizer", "inf_normalizer",
            "negative_mass"])
    def test_non_finite_input_rejected(self, values, masses, normalizer):
        for phi in (log_bump(2.0, 0.5), power(2.0)):
            with pytest.raises(OrliczError):
                luxemburg(np.array(values), masses, normalizer, phi)

    def test_rescale_identity(self):
        rng = np.random.default_rng(3)
        v = rng.uniform(0, 4, 25)
        m = np.full(25, 0.04)
        out = rescale_identity_check(power_log(1.5, 0.8), 2.0, v, m, 1.0)
        assert out["scaled_norm"] == pytest.approx(out["power_norm"], rel=1e-8)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=30, deadline=None)
    def test_holder_two_constant(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.uniform(0, 3, 16)
        g = rng.uniform(0, 3, 16)
        m = np.full(16, 1 / 16)
        out = orlicz_holder_check(log_bump(2.0, 0.5), f, g, m, 1.0)
        assert out["mean_fg"] <= out["bound"] * (1.0 + 1e-7)


class TestBpClassification:
    def test_borderline_divergent(self):
        rep = bp_classify(power_log(2.0, -0.95), 2.0)
        assert rep.verdict == DIVERGENT
        assert rep.rho == pytest.approx(0.05, abs=0.005)

    def test_borderline_convergent(self):
        rep = bp_classify(power_log(2.0, -1.25), 2.0)
        assert rep.verdict == CONVERGENT
        assert rep.rho == pytest.approx(-0.25, abs=0.005)
        assert rep.constant_estimate is not None

    def test_critical_exactly_divergent(self):
        rep = bp_classify(power_log(2.0, -1.0), 2.0)
        assert rep.verdict == DIVERGENT

    def test_subcritical_power_constant(self):
        # integral_1^inf t^{r-p-1} dt = 1/(p-r) = 2 for r = 3/2, p = 2
        rep = bp_classify(power(1.5), 2.0)
        assert rep.verdict == CONVERGENT
        assert rep.constant_estimate == pytest.approx(2.0, rel=1e-5)

    def test_supercritical_power_divergent(self):
        rep = bp_classify(power(3.0), 2.0)
        assert rep.verdict == DIVERGENT

    def test_exact_power_at_p_divergent(self):
        # Phi(t) = t^p gives integrand 1/t, so the doubling-window masses in
        # log coordinates grow linearly: rho = 1
        rep = bp_classify(power(2.0), 2.0)
        assert rep.verdict == DIVERGENT
        assert rep.rho == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("octaves", [0, 1])
    def test_fewer_than_two_octaves_refused(self, octaves):
        # one window has no decay ratio; t^{2.5} against t^{-2} diverges
        with pytest.raises(OrliczError, match=f"got {octaves}"):
            bp_classify(power(2.5), 2.0, octaves=octaves)

    def test_log_bump_associate_converges(self):
        # the comparable associate of a log bump satisfies the dual-tail
        # condition: a' = -(r-1+delta)/(r-1) < -1
        ph = log_bump(2.0, 0.5)
        rep = bp_classify(ph.comparable_associate(), 2.0)
        assert rep.verdict == CONVERGENT

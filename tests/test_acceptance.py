"""Acceptance gate: ten end-to-end criteria at their stated tolerances.

One test per criterion, so a verbose run emits one pass/fail line for
each.  Every test prints the measured quantities it certifies so the
empirical values are on record next to the verdict (visible with -s).
"""
import math
import time
from fractions import Fraction as F

import numpy as np

from dyadlab.constants import WeightPair, ap_constant, apq_alpha_constant
from dyadlab.grid import Box, GridFamily, parent, realize
from dyadlab.normest import TestFamily, equivalence_report, estimate_norm, orlicz_norm_quadrature
from dyadlab.operators import (
    dyadic_frac_maximal,
    frac_maximal,
    geometric_maximal,
    outer_riesz,
)
from dyadlab.orlicz import (
    CONVERGENT,
    DIVERGENT,
    PowerLog,
    borderline,
    bp_classify,
    log_bump,
    orlicz_holder_check,
    power,
    power_log,
    rescale_identity_check,
)
from dyadlab.pairs import (
    build_E,
    case1_pair,
    case2_divergence,
    classical_pair,
    factored_pair,
    verify_E_maximal,
)
from dyadlab.sampled import ExponentTuple, SampledFunction, lp_norm
from dyadlab.sparse import build_sparse, sparse_operator

from cube_oracle import integral, shifted_grids


def rand_f(dim, ncells, seed, lo=0.0, hi=3.0, zero_block=False):
    """Random cell values on the unit window, optionally with a dead region."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(lo, hi, (ncells,) * dim)
    if zero_block:
        vals[tuple(slice(0, ncells // 4) for _ in range(dim))] = 0.0
    return SampledFunction(dim, (0,) * dim, 1, vals)


def inside_cubes(f, shifts=False):
    """Cell-aligned cubes fully inside f's window, zero shift (or all)."""
    grids = (
        shifted_grids(f.dim, f.window, 0, f.max_aligned_level)
        if shifts
        else [GridFamily(f.dim, (0,) * f.dim, 0, f.max_aligned_level, f.window)]
    )
    out = []
    for grid in grids:
        for level in range(0, f.max_aligned_level + 1):
            for cube in grid.cubes_at_level(level):
                if f.window.contains_box(realize(cube)):
                    out.append(cube)
    return out


def test_criterion_01_shell_potential_exact_constant():
    # Pointwise: the seeded shell potential never exceeds
    # (1 - 2^(alpha-n))^(-1) times the fractional maximal function of the
    # cube-restricted density, on every cell (rel 1e-9).  Independently,
    # the closed form C |Q0|^{alpha/n - 1} sigma(Q0) is checked against a
    # 200-term ancestor-lattice sum plus the analytic geometric tail, and
    # against the realized values on the seed cube itself.
    t0 = time.time()
    checked = 0
    worst_rel = 0.0
    for dim, ncells, n_sigma in ((1, 48, 25), (2, 12, 25)):
        probe = SampledFunction.constant(1.0, dim, (0,) * dim, 1, ncells)
        cubes = inside_cubes(probe)
        for a in (0.25, 0.5, 0.75):
            coeff = 1.0 / (1.0 - 2.0 ** (a - dim))
            for q0 in cubes:
                vol0 = float(realize(q0).volume())
                closed = coeff * vol0 ** (a / dim - 1.0)
                chain = [q0]
                for _ in range(200):
                    chain.append(parent(chain[-1]))
                lattice = sum(
                    float(realize(anc).volume()) ** (a / dim - 1.0) for anc in chain
                )
                ratio = 2.0 ** (a - dim)
                tail = (
                    float(realize(chain[-1]).volume()) ** (a / dim - 1.0)
                    * ratio
                    / (1.0 - ratio)
                )
                rel = abs(lattice + tail - closed) / closed
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-9, (dim, a, q0, rel)
        for s in range(n_sigma):
            sigma = rand_f(dim, ncells, 4000 + s + 100 * dim, zero_block=(s % 5 == 0))
            for a in (0.25, 0.5, 0.75):
                coeff = 1.0 / (1.0 - 2.0 ** (a - dim))
                for q0 in cubes:
                    pot = outer_riesz(sigma, q0, a)
                    m = frac_maximal(sigma.restrict_to(q0), a)
                    assert np.all(pot.values <= coeff * m.values * (1 + 1e-9)), (
                        dim,
                        s,
                        a,
                        q0,
                    )
                    mass = integral(sigma, q0)
                    vol0 = float(realize(q0).volume())
                    want = coeff * vol0 ** (a / dim - 1.0) * mass
                    got = pot.values[sigma.cell_slices(realize(q0))]
                    assert np.all(np.abs(got - want) <= 1e-9 * max(want, 1e-300))
                    checked += 1
    dt = time.time() - t0
    assert dt < 60.0, f"runtime {dt:.1f}s exceeds the 60 s target"
    print(
        f"criterion 01: {checked} (sigma, Q0, alpha) cases, "
        f"closed-vs-lattice worst rel {worst_rel:.2e}, {dt:.1f}s"
    )


def test_criterion_02_sparse_thickness_and_domination():
    # |E_Q| >= |Q|/2 in exact rational arithmetic for 200 generated
    # families (E_Q reconstructed as |Q| minus the direct stopping
    # children, cross-checked against integer cell counts where the cube
    # sits inside the window); the dyadic fractional maximal stays below
    # C_a times the indicator-form sparse operator on every cell.
    families = 0
    cubes_total = 0
    worst_thick = F(1)
    for gen in range(200):
        dim = 2 if gen % 4 == 3 else 1
        ncells = 12 if dim == 2 else (24 if gen % 2 else 48)
        alpha = (0, F(1, 2), F(3, 4))[gen % 3]
        f = rand_f(dim, ncells, 6000 + gen, zero_block=(gen % 5 == 0))
        fam = build_sparse(f, alpha)
        families += 1
        vols = [realize(sc.cube).volume() for sc in fam.cubes]
        children_vol = [F(0)] * len(fam.cubes)
        for sc, vol in zip(fam.cubes, vols):
            if sc.parent >= 0:
                children_vol[sc.parent] += vol
        for sc, vol, kids in zip(fam.cubes, vols, children_vol):
            e_exact = vol - kids
            assert 2 * e_exact >= vol, (gen, sc.cube, e_exact, vol)
            assert abs(float(e_exact) - sc.e_volume_full) <= 1e-12 * float(vol)
            if f.window.contains_box(realize(sc.cube)):
                count = e_exact / f.cell_volume
                assert count.denominator == 1 and sc.e_cells == int(count)
            worst_thick = min(worst_thick, e_exact / vol)
            cubes_total += 1
        lhs = dyadic_frac_maximal(
            f,
            float(alpha),
            shift=fam.grid.shift,
            min_level=fam.grid.min_level,
            max_level=fam.grid.max_level,
        )
        rhs = sparse_operator(fam, form="chi")
        assert np.all(lhs.values <= fam.ratio * rhs.values * (1 + 1e-9)), gen
    print(
        f"criterion 02: {families} families, {cubes_total} stopping cubes, "
        f"worst exact |E_Q|/|Q| = {float(worst_thick):.4f}"
    )


def test_criterion_03_weighted_maximal_dimension_free_bound():
    # Norm lower-bound estimates of the mu-weighted dyadic fractional
    # maximal operator never exceed (1 + p'/q)^(1 - beta/n).
    triples = [
        (F(1, 2), F(4, 3), F(4)),
        (F(1, 4), F(4, 3), F(2)),
        (F(1, 2), F(3, 2), F(6)),
        (F(1, 4), F(2), F(4)),
        (F(3, 4), F(5, 4), F(20)),
    ]
    worst = 0.0
    n_mu = 0
    for k, (beta, p, q) in enumerate(triples):
        e = ExponentTuple(1, beta, p, q)
        assert e.is_sobolev and 1 < p <= e.n / beta
        bound = (1 + float(e.pprime / e.q)) ** (1 - float(beta) / e.n)
        for i in range(20):
            mu = rand_f(1, 48, 7000 + 100 * k + i, lo=0.2)
            est = estimate_norm(
                "weighted_dyadic_maximal",
                WeightPair(mu, mu),
                e,
                family=TestFamily(random_steps=5, seed=50 + i),
            )
            assert est.value <= bound + 1e-9, (k, i, est.value, bound)
            worst = max(worst, est.value / bound)
            n_mu += 1
    print(
        f"criterion 03: {n_mu} random measures over 5 exponent triples "
        f"(>= 5 random test functions each), worst estimate/bound = {worst:.4f}"
    )


def test_criterion_04_geometric_maximal_e_bound():
    # ||M_0 f||_p <= e ||f||_p for the geometric-mean dyadic maximal.
    worst = 0.0
    cases = 0
    for i in range(100):
        dim = 2 if i % 5 == 4 else 1
        ncells = 12 if dim == 2 else 48
        f = rand_f(dim, ncells, 8000 + i, lo=0.05, hi=4.0)
        mf = geometric_maximal(f, shift=(0,) * dim)
        for p in (F(3, 2), F(2), F(3)):
            ratio = lp_norm(mf, p) / lp_norm(f, p)
            assert ratio <= math.e * (1 + 1e-12), (i, p, ratio)
            worst = max(worst, ratio)
            cases += 1
    print(f"criterion 04: {cases} (f, p) cases, worst ||Mf||_p / ||f||_p = {worst:.4f} <= e")


def test_criterion_05_orlicz_identities():
    # Double conjugation returns the original Young function (1e-6 rel);
    # the power-rescaling identity for Luxemburg norms (1e-8 rel); the
    # two-function Orlicz Holder inequality with factor 2 (500 trials).
    families = [
        power(1.5),
        power(2.0),
        power(3.0),
        power_log(2.0, 1.0),
        power_log(1.5, 0.5),
        power_log(3.0, -0.5),
        log_bump(2.0, 0.5),
        log_bump(1.5, 1.0),
        borderline(2.0, 4.0, 0.5),
        borderline(F(4, 3), F(4), 0.9),
    ]
    probe = np.geomspace(0.05, 40.0, 120)
    worst_inv = 0.0
    for phi in families:
        twice = phi.associate().associate()
        rel = float(np.max(np.abs(twice.eval(probe) - phi.eval(probe)) / phi.eval(probe)))
        worst_inv = max(worst_inv, rel)
        assert rel <= 1e-6, (phi.label, rel)

    rng = np.random.default_rng(42)
    worst_res = 0.0
    for phi in (power_log(1.5, 0.6), log_bump(2.0, 0.5), power(2.0)):
        for r in (2.0, 3.0):
            for _ in range(5):
                vals = rng.uniform(0.05, 3.0, 48)
                out = rescale_identity_check(phi, r, vals, 1.0 / 48, 1.0)
                rel = abs(out["scaled_norm"] - out["power_norm"]) / out["power_norm"]
                worst_res = max(worst_res, rel)
                assert rel <= 1e-8, (phi.label, r, rel)

    holder_phis = (
        log_bump(2.0, 0.5),
        power(2.0),
        power_log(1.5, 1.0),
        borderline(2.0, 4.0, 0.5),
    )
    worst_holder = 0.0
    for trial in range(500):
        phi = holder_phis[trial % 4]
        fv = rng.uniform(0.0, 2.0, 48)
        gv = rng.uniform(0.0, 2.0, 48)
        if trial % 7 == 0:
            fv[:12] = 0.0
        out = orlicz_holder_check(phi, fv, gv, 1.0 / 48, 1.0)
        assert out["mean_fg"] <= out["bound"] * (1 + 1e-12), trial
        if out["bound"] > 0:
            worst_holder = max(worst_holder, out["mean_fg"] / out["bound"])
    print(
        f"criterion 05: involution worst rel {worst_inv:.2e}, rescaling worst rel "
        f"{worst_res:.2e}, Holder worst mean/bound {worst_holder:.4f} over 500 trials"
    )


def test_criterion_06_borderline_tail_verdicts():
    # The borderline family t^p log(e+t)^{-(1+eps)p/q} with q/p = 2 passes
    # the fractional tail test for every eps > 0 but the classical one
    # only past eps = 1.  The quadrature verdicts are anchored by the
    # exact per-doubling decay rates, rho = a + 1 for t^r log(e+t)^a.
    p, q = 2.0, 4.0
    measured = []
    for eps in (0.1, 0.5, 0.9):
        phi = borderline(p, q, eps)
        v_frac, rep_frac = orlicz_norm_quadrature(phi, p, q)
        assert rep_frac.verdict == CONVERGENT and math.isfinite(v_frac), eps
        v_cls, rep_cls = orlicz_norm_quadrature(phi, p)
        assert rep_cls.verdict == DIVERGENT and v_cls == math.inf, eps
        frac_named = bp_classify(PowerLog(q, -(1.0 + eps)), q)
        assert frac_named.verdict == CONVERGENT
        assert abs(frac_named.rho - (-eps)) <= 0.01, (eps, frac_named.rho)
        assert abs(rep_cls.rho - (1.0 - eps) / 2.0) <= 0.01, (eps, rep_cls.rho)
        measured.append((eps, rep_frac.rho, rep_cls.rho))
    for eps in (1.5, 2.0):
        v_cls, rep_cls = orlicz_norm_quadrature(borderline(p, q, eps), p)
        assert rep_cls.verdict == CONVERGENT and math.isfinite(v_cls), eps
        assert abs(rep_cls.rho - (1.0 - eps) / 2.0) <= 0.01, (eps, rep_cls.rho)
        measured.append((eps, None, rep_cls.rho))
    rates = ", ".join(
        f"eps={e:g}: cls rho {c:+.3f}" + (f", frac rho {f:+.3f}" if f is not None else "")
        for e, f, c in measured
    )
    print(f"criterion 06: verdicts as predicted; {rates}")


def test_criterion_07_factored_pairs_below_one():
    # Factored pairs keep the joint constant at or below 1 up to a mesh
    # allowance of 0.05, and the excess does not grow under refinement.
    # The construction is exact on the mesh, so both excesses sit at
    # roundoff scale; the refinement comparison allows 1e-13 of float
    # noise, far below any genuine mesh effect.
    tuples = [
        ExponentTuple(1, F(1, 2), F(4, 3), F(4)),
        ExponentTuple(1, F(3, 4), F(4, 3), F(4)),
        ExponentTuple(1, F(1, 2), F(2), F(2)),
    ]
    worst = 0.0
    for e in tuples:
        assert e.in_fractional_regime
        for i in range(20):
            w1 = rand_f(1, 48, 9000 + i, lo=0.1, hi=2.0)
            w2 = rand_f(1, 48, 9500 + i, lo=0.1, hi=2.0)
            coarse = apq_alpha_constant(factored_pair(w1, w2, e), e).value
            excess = max(coarse - 1.0, 0.0)
            assert excess <= 0.05, (str(e.gamma), i, coarse)
            fine = apq_alpha_constant(
                factored_pair(w1.refine(), w2.refine(), e), e
            ).value
            excess_fine = max(fine - 1.0, 0.0)
            assert excess_fine <= excess + 1e-13, (str(e.gamma), i, coarse, fine)
            worst = max(worst, coarse)
    print(f"criterion 07: 20 pairs x 3 exponent tuples, worst joint constant {worst:.6f}")


def test_criterion_08_counterexample_reproduction():
    # (a) the continuum minorant integrand has exponent sum exactly -1 in
    # rational arithmetic, so its finite-X integral is log X; a float
    # quadrature of the unreduced power product confirms the cancellation.
    for e in (
        ExponentTuple(1, F(1, 4), F(5, 4), F(2)),
        ExponentTuple(1, F(1, 3), F(6, 5), F(3)),
    ):
        t_exp = e.q * (1 - e.alpha) - 1
        assert e.q * (e.alpha - 1) + t_exp == -1  # exact rationals
        _, _, rep = case1_pair(e, window_exp=5)
        assert rep["minorant_exponent_sum"] == "-1"
        for xexp in (6, 10, 16):
            x_cut = 2.0**xexp
            xs = np.geomspace(1.0, x_cut, 20001)
            integrand = xs ** float(e.q * (e.alpha - 1)) * xs ** float(t_exp)
            quad = float(np.trapezoid(integrand, xs))
            want = math.log(x_cut)
            assert abs(quad - want) <= 1e-6 * want, (str(e.alpha), xexp, quad, want)

    # (b) termwise minorant to 10^4 terms; partial integrals pass 5.0 by
    # X = 2^16 at gamma = 1/2 while the factored interval-train pair keeps
    # its joint constant within the mesh allowance.
    e2 = ExponentTuple(1, F(1, 2), F(2), F(2))
    assert e2.gamma == F(1, 2)
    rep2 = case2_divergence(e2, max_exp=16)
    assert rep2["identity"]["holds"]
    assert rep2["minorant"]["terms"] == 10**4
    assert rep2["minorant"]["integral_ge_pointwise"]
    assert rep2["minorant"]["pointwise_ge_harmonic"]
    assert rep2["dominates"]
    assert rep2["mesh_check"]["one_sided"]
    s_best = max(row["S"] for row in rep2["rows"])
    assert s_best > 5.0, s_best
    chi = build_E(F(1, 2), 64)
    w2 = SampledFunction.indicator(Box((F(0),), F(1)), 1, (0,), 64, chi.ncells)
    apq = apq_alpha_constant(factored_pair(chi, w2, e2), e2).value
    assert apq <= 1.0 + 0.05, apq

    # (c) the fractional maximal of the interval train is pinched between
    # the provable floor (halved for discretization) and 10.
    bands = {}
    for g in (F(1, 4), F(1, 2), F(3, 4)):
        ver = verify_E_maximal(g, 64)
        floor = 0.5 * 3.0 * 2.0 ** (float(g) - 2.0)
        lo, hi = ver["overall"]["min"], ver["overall"]["max"]
        assert ver["holds"]
        assert lo >= floor, (str(g), lo, floor)
        assert hi <= 10.0, (str(g), hi)
        bands[str(g)] = (lo, hi)
    band_text = ", ".join(f"gamma={g}: [{lo:.4f}, {hi:.4f}]" for g, (lo, hi) in bands.items())
    print(
        f"criterion 08: S_max {s_best:.3f} > 5, train joint constant {apq:.4f} <= 1.05, "
        f"empirical maximal bands {band_text}"
    )


def test_criterion_09_symmetry_and_classical_link():
    # Per-cube equality of the joint constant under (u, sigma, p, q) ->
    # (sigma, u, q', p'), and the classical one-weight link, both at 1e-12.
    def per_cube(pair, e):
        ex = float(e.alpha / e.n + 1 / e.q - 1 / e.p)
        au, asig = 1.0 / float(e.q), 1.0 / float(e.pprime)
        out = {}
        for cube in inside_cubes(pair.u, shifts=True):
            box = realize(cube)
            vol = float(box.volume())
            avg_u = integral(pair.u, box) / vol
            avg_s = integral(pair.sigma, box) / vol
            out[(cube.shift, cube.level, cube.index)] = vol**ex * avg_u**au * avg_s**asig
        return out

    checked = 0
    for dim, ncells in ((1, 48), (2, 12)):
        e = ExponentTuple(dim, F(1, 2) * dim, F(4, 3), F(4))
        pair = WeightPair(
            rand_f(dim, ncells, 11000 + dim, lo=0.1),
            rand_f(dim, ncells, 12000 + dim, lo=0.1),
        )
        fwd = per_cube(pair, e)
        dual = per_cube(pair.swapped(), e.dual())
        assert fwd and set(fwd) == set(dual)
        for key, val in fwd.items():
            assert abs(val - dual[key]) <= 1e-12 * max(val, dual[key]), key
            checked += 1
        rep = apq_alpha_constant(pair, e)
        assert abs(rep.value - max(fwd.values())) <= 1e-12 * rep.value

    links = []
    for seed, e in (
        (21, ExponentTuple(1, F(1, 2), F(4, 3), F(4))),
        (22, ExponentTuple(1, F(1, 2), F(3, 2), F(6))),
        (23, ExponentTuple(1, F(1, 2), F(4, 3), F(4))),
    ):
        w = rand_f(1, 48, seed, lo=0.3, hi=2.0)
        pair = classical_pair(w, e)
        joint = apq_alpha_constant(pair, e).value
        link = ap_constant(pair.u, e.s_p).value ** (1.0 / float(e.q))
        assert abs(joint - link) <= 1e-12 * link, (seed, joint, link)
        links.append(joint)
    link_text = ", ".join(f"{v:.4f}" for v in links)
    print(
        f"criterion 09: {checked} per-cube symmetry identities at 1e-12; "
        f"classical-link constants {link_text}"
    )


def test_criterion_10_equivalence_band():
    # Strong-potential norm estimate vs the sum of the two maximal-operator
    # estimates: one band [1/C, C] with C = 100 across ten classical pairs
    # from smooth weights, stable to 20 percent under one mesh refinement.
    # Property-based: no specific comparability constant is asserted.
    e = ExponentTuple(1, F(1, 2), F(4, 3), F(4))
    fam = TestFamily(random_steps=2)
    x = (np.arange(24) + 0.5) / 24
    ratios, drifts = [], []
    for j in range(10):
        center = (j + 1) / 11.0
        w = SampledFunction(
            1,
            (0,),
            1,
            1.0
            + 0.6 * np.exp(-((x - center) ** 2) / (2 * 0.15**2))
            + 0.3 * x * (1 - x) * j / 10.0,
        )
        pair = classical_pair(w, e)
        rep = equivalence_report(pair, e, family=fam)
        est = rep["estimates"]
        ratio = est["strong_riesz"]["value"] / (
            est["maximal_forward"]["value"] + est["maximal_dual"]["value"]
        )
        refined = WeightPair(pair.u.refine(), pair.sigma.refine())
        rep2 = equivalence_report(refined, e, family=fam)
        est2 = rep2["estimates"]
        ratio2 = est2["strong_riesz"]["value"] / (
            est2["maximal_forward"]["value"] + est2["maximal_dual"]["value"]
        )
        assert 0.01 <= ratio <= 100.0 and 0.01 <= ratio2 <= 100.0, (j, ratio, ratio2)
        assert abs(ratio2 - ratio) <= 0.20 * ratio, (j, ratio, ratio2)
        ratios.append(ratio)
        drifts.append(abs(ratio2 - ratio) / ratio)
    print(
        f"criterion 10: ratios in [{min(ratios):.4f}, {max(ratios):.4f}] "
        f"(band cap C = 100), worst refinement drift {max(drifts) * 100:.1f}%"
    )

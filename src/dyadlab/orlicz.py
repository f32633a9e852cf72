"""Young functions, Luxemburg averages, and integral-growth classification.

The working family is Phi(t) = t^r * log(e + t)^a, which covers plain powers
(a = 0), logarithmic bumps (a = r - 1 + delta), and the borderline functions
t^p / log(e + t)^kappa whose tail integral sits near the convergence edge.
Conjugates of plain powers are taken as plain powers of the dual exponent
(the two differ only by harmless multiplicative constants in Young's
inequality); other conjugates are computed numerically, and a closed-form
comparable partner of the same family is available for stable wide-range
quadrature.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

_E = math.e
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_ITERS = 90        # golden-section steps per conjugate evaluation
_LUX_REL_TOL = 1e-11      # relative bracket width at which the Luxemburg solve stops
_LUX_MAX_ITER = 400       # cap on bracketing and on Illinois steps
_POINTS_PER_OCTAVE = 512  # trapezoid panels per doubling window in bp_classify


class OrliczError(ValueError):
    pass


class YoungFunction:
    """Base: nonnegative convex increasing function with Phi(0) = 0."""

    label: str = "young"

    def eval(self, t):
        raise NotImplementedError

    def log_eval(self, x):
        """log Phi(e^x), stable for large |x|."""
        raise NotImplementedError

    @property
    def is_power(self) -> bool:
        return False

    def associate(self) -> "YoungFunction":
        """Conjugate sup_{s>=0}(st - Phi(s)); numeric unless a plain power."""
        return NumericConjugate(self)


@dataclass(frozen=True)
class PowerLog(YoungFunction):
    """Phi(t) = t^r * log(e + t)^a with r >= 1."""

    r: float
    a: float
    label: str = "power_log"

    def __post_init__(self):
        if not (self.r >= 1):
            raise OrliczError(f"power exponent must be >= 1, got {self.r}")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = t ** self.r
            if self.a != 0.0:
                out = out * np.log(_E + t) ** self.a
        return out

    def log_eval(self, x):
        x = np.asarray(x, dtype=float)
        out = self.r * x
        if self.a != 0.0:
            out = out + self.a * np.log(np.logaddexp(1.0, x))
        return out

    @property
    def is_power(self) -> bool:
        return self.a == 0.0

    def associate(self) -> YoungFunction:
        if self.is_power:
            if self.r == 1.0:
                raise OrliczError("the conjugate of t^1 is not finite-valued")
            return power(self.r / (self.r - 1.0))
        return NumericConjugate(self)

    def comparable_associate(self) -> "PowerLog":
        """Same-family partner t^{r'} log(e+t)^{-a/(r-1)}, equivalent to the
        true conjugate up to dilation constants; safe for wide quadrature."""
        if self.r <= 1.0:
            raise OrliczError("comparable associate needs r > 1")
        rp = self.r / (self.r - 1.0)
        return PowerLog(rp, -self.a / (self.r - 1.0), label=f"{self.label}_assoc")


def power(r: float) -> PowerLog:
    return PowerLog(float(r), 0.0, label=f"power({r})")


def power_log(r: float, a: float) -> PowerLog:
    return PowerLog(float(r), float(a), label=f"power_log({r},{a})")


def log_bump(r: float, delta: float) -> PowerLog:
    """Phi(t) = t^r log(e+t)^{r-1+delta}, the classical integrability bump."""
    if delta <= 0:
        raise OrliczError("bump exponent delta must be positive")
    return PowerLog(float(r), float(r) - 1.0 + float(delta), label=f"log_bump({r},{delta})")


def borderline(p: float, q: float, eps: float) -> PowerLog:
    """Phi(t) = t^p / log(e+t)^{(1+eps) p / q}; tail integral against t^{-p}
    converges or diverges according to (1+eps) p / q versus 1."""
    a = -(1.0 + float(eps)) * float(p) / float(q)
    return PowerLog(float(p), a, label=f"borderline({p},{q},{eps})")


@dataclass(frozen=True)
class PowerScaled(YoungFunction):
    """Psi(t) = Phi(t^r); Luxemburg norms satisfy a clean power identity."""

    base: YoungFunction
    r: float
    label: str = "power_scaled"

    def __post_init__(self):
        if self.r <= 0:
            raise OrliczError("power scaling exponent must be positive")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return self.base.eval(t ** self.r)

    def log_eval(self, x):
        return self.base.log_eval(np.asarray(x, dtype=float) * self.r)


class NumericConjugate(YoungFunction):
    """sup_{s >= 0} (s t - Phi(s)) via vectorized bracketed golden search.

    The value is s t - Phi(s) at the bracket's midpoint s, clamped at 0,
    so it never exceeds the supremum beyond the roundoff of that one
    evaluation: it is a lower bound.  It is an accurate one only while
    the bracket resolves the maximiser.  The bracket starts at [0, 2] or
    wider and 90 steps narrow it to about 3e-19, so a maximiser below
    that is lost: for power(2.0), against t^2/4, the relative defect
    stays below 1e-8 from t = 2e-15 up, first exceeds it near t = 1.6e-15,
    the ratio is 0.99971 at t = 1e-17, and the value is 0 from t = 1e-19
    down.  It runs at most 90 golden-section steps and stops early once a step
    leaves every bracket unchanged: a step depends on the bracket alone,
    so every later step would leave it unchanged too.  `eval` is 0 at
    t <= 0, nan at nan, and inf where s t overflows.
    """

    def __init__(self, base: YoungFunction):
        self.base = base
        self.label = f"conj({base.label})"

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        out[np.isnan(t)] = np.nan
        pos = t > 0
        if np.any(pos):
            out[pos] = self._conj(t[pos])
        return out

    def _conj(self, t: np.ndarray) -> np.ndarray:
        base = self.base

        def g(s):
            val = s * t - base.eval(s)
            val[np.isnan(val)] = -np.inf
            return val

        with np.errstate(over="ignore", invalid="ignore"):
            hi = np.ones_like(t)
            g_hi = g(hi)
            for _ in range(200):
                g_up = g(2.0 * hi)
                grow = g_up > g_hi
                if not np.any(grow):
                    break
                hi[grow] *= 2.0
                g_hi = np.where(grow, g_up, g_hi)
            else:
                raise OrliczError("conjugate bracket did not close")
            hi = 2.0 * hi
            lo = np.zeros_like(t)
            c = hi - _INVPHI * (hi - lo)
            d = lo + _INVPHI * (hi - lo)
            gc, gd = g(c), g(d)
            for _ in range(_GOLDEN_ITERS):
                take_low = gc > gd
                new_hi = np.where(take_low, d, hi)
                new_lo = np.where(take_low, lo, c)
                if np.array_equal(new_hi, hi) and np.array_equal(new_lo, lo):
                    break  # a fixed point: every later step is this one
                hi, lo = new_hi, new_lo
                c = hi - _INVPHI * (hi - lo)
                d = lo + _INVPHI * (hi - lo)
                gc, gd = g(c), g(d)
            return np.maximum(g((lo + hi) / 2.0), 0.0)


# === Luxemburg norms ==========================================================

def luxemburg(
    values: np.ndarray,
    masses,
    normalizer: float,
    phi: YoungFunction,
) -> float:
    """inf { lam > 0 : sum Phi(values/lam) * masses / normalizer <= 1 }.

    `values` are the function's cell values on the part of the region it
    meets; the zero extension contributes nothing since Phi(0) = 0.  The
    normalizer is the measure of the full region.

    Outside the power family, lam starts at max(values) and is halved while
    it is feasible, or doubled while it is not, until feasibility flips;
    out of steps in either direction, it raises OrliczError.  A bracketed
    secant (Illinois) iteration on log(mean) against log(lam) follows,
    taking the geometric midpoint where the secant step leaves the bracket
    or the mean at either end is infinite, and never stepping closer than
    5e-12 in log(lam) to either end.  It stops once hi - lo <= 1e-11 hi and
    returns the feasible end hi.  Non-finite values, masses or normalizer,
    and negative masses, raise OrliczError.
    """
    v = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(v)):
        raise OrliczError("Luxemburg norm of non-finite data")
    if np.any(v < 0):
        raise OrliczError("Luxemburg norm of signed data")
    if not math.isfinite(normalizer):
        raise OrliczError("normalizer must be finite")
    if normalizer <= 0:
        raise OrliczError("normalizer must be positive")
    m = np.broadcast_to(np.asarray(masses, dtype=float).ravel(), v.shape) if np.ndim(masses) else np.full_like(v, float(masses))
    if not np.all(np.isfinite(m)):
        raise OrliczError("Luxemburg masses must be finite")
    if np.any(m < 0):
        raise OrliczError("Luxemburg masses must be nonnegative")
    keep = (v > 0) & (m > 0)
    if not np.any(keep):
        return 0.0
    v, m = v[keep], m[keep]
    if phi.is_power:
        r = phi.r
        return float((np.sum(v ** r * m) / normalizer) ** (1.0 / r))

    def log_mean(lam: float) -> float:
        """log of the mean of Phi(v/lam); -inf where it underflows to 0 and
        +inf where it overflows, so lam is feasible exactly when this <= 0."""
        with np.errstate(over="ignore"):
            tot = float(np.sum(phi.eval(v / lam) * m))
        if math.isinf(tot) or math.isnan(tot):
            return math.inf
        mean = tot / normalizer
        return math.log(mean) if mean > 0.0 else -math.inf

    lam = float(v.max())
    g = log_mean(lam)
    feasible = g <= 0.0
    factor = 0.5 if feasible else 2.0
    for _ in range(_LUX_MAX_ITER):
        prev, g_prev = lam, g
        lam *= factor
        g = log_mean(lam)
        if (g <= 0.0) != feasible:
            break
    else:
        raise OrliczError("Luxemburg bracketing did not close")
    (lo, g_lo), (hi, g_hi) = sorted([(prev, g_prev), (lam, g)])
    # Illinois: a secant step in x = log lam through (x_lo, g_lo > 0) and
    # (x_hi, g_hi <= 0); when one end is kept twice in a row its g is halved
    # so that both ends converge.  An infinite g makes the secant nan or an
    # end point, so the geometric midpoint is taken instead.
    # Every step keeps half the tolerance from either end, so a secant that
    # lands on the root still closes the bracket from the far side.
    step = 0.5 * _LUX_REL_TOL
    x_lo, x_hi = math.log(lo), math.log(hi)
    kept = 0  # +1 after hi moved, -1 after lo moved
    for _ in range(_LUX_MAX_ITER):
        if hi - lo <= _LUX_REL_TOL * hi:
            return hi  # smallest bracketed lam with mean <= 1
        x = x_hi - g_hi * (x_hi - x_lo) / (g_hi - g_lo)
        if math.isinf(g_lo) or math.isinf(g_hi) or not x_lo <= x <= x_hi:
            x = 0.5 * (x_lo + x_hi)
        x = min(max(x, x_lo + step), x_hi - step)
        lam = math.exp(x)
        g = log_mean(lam)
        if g <= 0.0:
            hi, x_hi, g_hi = lam, x, g
            if kept > 0:
                g_lo *= 0.5
            kept = 1
        else:
            lo, x_lo, g_lo = lam, x, g
            if kept < 0:
                g_hi *= 0.5
            kept = -1
    raise OrliczError("Luxemburg iteration did not converge")


def rescale_identity_check(phi: YoungFunction, r: float, values, masses, normalizer) -> dict:
    """||f||_{Phi(t^r)} against ||f^r||_Phi^{1/r} on the same data."""
    v = np.asarray(values, dtype=float)
    lhs = luxemburg(v, masses, normalizer, PowerScaled(phi, float(r)))
    rhs = luxemburg(v ** float(r), masses, normalizer, phi) ** (1.0 / float(r))
    return {"scaled_norm": lhs, "power_norm": rhs}


def orlicz_holder_check(phi: YoungFunction, f_values, g_values, masses, normalizer) -> dict:
    """Mean of fg against 2 ||f||_Phi ||g||_{conj Phi} on shared data."""
    f = np.asarray(f_values, dtype=float).ravel()
    g = np.asarray(g_values, dtype=float).ravel()
    m = np.broadcast_to(np.asarray(masses, dtype=float).ravel(), f.shape) if np.ndim(masses) else np.full_like(f, float(masses))
    mean_fg = float(np.sum(f * g * m)) / float(normalizer)
    nf = luxemburg(f, m, normalizer, phi)
    ng = luxemburg(g, m, normalizer, phi.associate())
    return {"mean_fg": mean_fg, "norm_f": nf, "norm_g_assoc": ng, "bound": 2.0 * nf * ng}


# === tail-integral classification ============================================

@dataclass(frozen=True)
class BpReport:
    """Quadrature evidence for the tail integral of Phi(t) t^{-p} dt/t."""

    phi_label: str
    p: float
    base_integral: float
    octave_integrals: tuple
    ratios: tuple
    rho: float
    verdict: str
    constant_estimate: Optional[float]


CONVERGENT = "convergent"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_RHO_CONVERGENT = -0.08
_RHO_DIVERGENT = -0.02


def bp_classify(phi: YoungFunction, p: float, octaves: int = 12) -> BpReport:
    """Classify whether the tail integral of Phi(t)/t^p dt/t converges.

    In log coordinates t = e^x the integrand is exp(log Phi(e^x) - p x).
    The mass over doubling windows [2^j, 2^{j+1}] in x decays (or grows)
    geometrically with a per-doubling exponent rho that the last windows
    estimate; rho clearly below 0 certifies convergence, rho at or above 0
    certifies divergence, and a narrow band in between is left undecided.
    For Phi = t^p log(e+t)^a the exact value is rho = a + 1.  A decay
    ratio needs two windows, so octaves < 2 raises OrliczError.
    """
    if octaves < 2:
        raise OrliczError(f"bp_classify needs octaves >= 2 for a decay ratio, got {octaves}")
    p = float(p)

    def window_integral(x0: float, x1: float) -> float:
        x = np.linspace(x0, x1, _POINTS_PER_OCTAVE + 1)
        # a divergent tail overflows to inf in exp and in the sum alike
        with np.errstate(over="ignore"):
            y = np.exp(phi.log_eval(x) - p * x)
            return float(np.trapezoid(y, x))

    base = window_integral(0.0, 1.0)
    deltas = [window_integral(2.0 ** j, 2.0 ** (j + 1)) for j in range(octaves)]
    if any(math.isinf(d) or math.isnan(d) for d in deltas):
        return BpReport(phi.label, p, base, tuple(deltas), (), math.inf, DIVERGENT, None)
    ratios = []
    for j in range(len(deltas) - 1):
        if deltas[j] > 0 and deltas[j + 1] > 0:
            ratios.append(math.log2(deltas[j + 1] / deltas[j]))
        else:
            ratios.append(-math.inf)
    tail_ratios = [r for r in ratios[-3:]]
    rho = sum(tail_ratios) / len(tail_ratios) if tail_ratios and all(math.isfinite(r) for r in tail_ratios) else -math.inf
    if rho <= _RHO_CONVERGENT:
        verdict = CONVERGENT
    elif rho >= _RHO_DIVERGENT:
        verdict = DIVERGENT
    else:
        verdict = INCONCLUSIVE
    constant = None
    if verdict == CONVERGENT:
        growth = 2.0 ** rho if math.isfinite(rho) else 0.0
        tail = deltas[-1] * growth / (1.0 - growth) if growth < 1.0 else 0.0
        constant = base + sum(deltas) + tail
    return BpReport(phi.label, p, base, tuple(deltas), tuple(ratios), rho, verdict, constant)

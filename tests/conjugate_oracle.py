"""The 90-step golden-section conjugate, kept as an oracle for
orlicz.NumericConjugate.

GoldenConjugate(base).eval(t) runs every one of the 90 steps, enters an
errstate in every evaluation of s t - Phi(s), and evaluates Phi at the
bracket's upper end twice per doubling.  NumericConjugate skips only work
that cannot change a bit of the result, so its values must be equal to
these byte for byte.  Nest it for a double conjugate:
GoldenConjugate(GoldenConjugate(phi)).
"""
import numpy as np

from dyadlab.orlicz import _GOLDEN_ITERS, _INVPHI, OrliczError, YoungFunction


class GoldenConjugate(YoungFunction):
    def __init__(self, base: YoungFunction):
        self.base = base
        self.label = f"golden_conj({base.label})"

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t).astype(float)
        out = np.zeros_like(t)
        pos = t > 0
        if np.any(pos):
            out[pos] = self._conj(t[pos])
        if scalar:
            return float(out[0])
        return out

    def _conj(self, t: np.ndarray) -> np.ndarray:
        base = self.base

        def g(s):
            with np.errstate(over="ignore", invalid="ignore"):
                val = s * t - base.eval(s)
            return np.where(np.isnan(val), -np.inf, val)

        hi = np.ones_like(t)
        for _ in range(200):
            grow = g(2.0 * hi) > g(hi)
            if not np.any(grow):
                break
            hi[grow] *= 2.0
        else:
            raise OrliczError("conjugate bracket did not close")
        hi = 2.0 * hi
        lo = np.zeros_like(t)
        c = hi - _INVPHI * (hi - lo)
        d = lo + _INVPHI * (hi - lo)
        gc, gd = g(c), g(d)
        for _ in range(_GOLDEN_ITERS):
            take_low = gc > gd
            hi = np.where(take_low, d, hi)
            lo = np.where(take_low, lo, c)
            c = hi - _INVPHI * (hi - lo)
            d = lo + _INVPHI * (hi - lo)
            gc, gd = g(c), g(d)
        return np.maximum(g((lo + hi) / 2.0), 0.0)

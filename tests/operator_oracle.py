"""The registry's operators through their public SampledFunction forms,
kept as an oracle for operators.OPERATORS, which works on arrays.

PUBLIC_OPERATORS[id](f, mu, alpha, phi, shift, min_level, max_level)
applies the public operator of that id to the function f dmu (to f itself
when mu is None), one function at a time, with the arguments that
OPERATORS[id] takes after its values; the weighted maximal reads mu as
its measure.  riesz_1d has no public form, so its entry is the registry
called on the one row of f dmu.
"""
from dyadlab.operators import (
    OPERATORS,
    dyadic_frac_maximal,
    dyadic_riesz,
    frac_maximal,
    orlicz_maximal,
    weighted_dyadic_maximal,
)


def _dmu(f, mu):
    return f if mu is None else f * mu


def riesz_1d_row(g, a):
    """The registry's riesz_1d on the one row of g."""
    return g.with_values(OPERATORS["riesz_1d"](g, g.values, None, a, None, None, None, None))


PUBLIC_OPERATORS = {
    "identity": lambda f, mu, a, phi, sh, lo, hi: _dmu(f, mu),
    "frac_maximal": lambda f, mu, a, phi, sh, lo, hi: frac_maximal(
        _dmu(f, mu), a, shifts=sh, min_level=lo, max_level=hi),
    "dyadic_frac_maximal": lambda f, mu, a, phi, sh, lo, hi: dyadic_frac_maximal(
        _dmu(f, mu), a, shift=sh, min_level=lo, max_level=hi),
    "dyadic_riesz": lambda f, mu, a, phi, sh, lo, hi: dyadic_riesz(
        _dmu(f, mu), a, shift=sh, min_level=lo, max_level=hi),
    "riesz_1d": lambda f, mu, a, phi, sh, lo, hi: riesz_1d_row(_dmu(f, mu), a),
    "orlicz_maximal": lambda f, mu, a, phi, sh, lo, hi: orlicz_maximal(
        _dmu(f, mu), phi, beta=a, shift=sh, min_level=lo, max_level=hi),
    "weighted_dyadic_maximal": lambda f, mu, a, phi, sh, lo, hi: weighted_dyadic_maximal(
        f, mu, beta=a, shift=sh, min_level=lo, max_level=hi),
}

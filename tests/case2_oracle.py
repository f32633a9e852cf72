"""The whole-array form of case2_divergence's rows and minorant check,
kept as an oracle for the chunked sums that the library takes.

It builds every term of the indices 2 <= j < 2^max_exp at once, about 41
bytes per term, and reads each row's partial sums as the tree sums of
prefixes of those arrays; the library holds one chunk of terms at a time
and must give the same bits.
"""
import numpy as np

from dyadlab.pairs import MINORANT_TERMS, _interval_integrals, _tree_sum


def rows_and_minorant(gf: float, max_exp: int) -> tuple:
    """(rows, minorant) as case2_divergence reports them at gamma = gf."""
    js, lens, terms_s = _interval_integrals(gf, 2, 2**max_exp)
    terms_h = 1.0 / (js + 1.0)
    rows = []
    for j in range(2, max_exp + 1):
        stop = 2**j - 2  # number of terms with index < 2^j
        s_val = _tree_sum(terms_s[:stop])
        h_val = _tree_sum(terms_h[:stop])
        rows.append({"X": float(2**j), "S": s_val, "H": h_val, "ratio": s_val / h_val})
    nt = min(MINORANT_TERMS, terms_s.size)
    pointwise = (js[:nt] + lens[:nt]) ** (gf - 1.0) * lens[:nt]
    minorant = {
        "terms": nt,
        "integral_ge_pointwise": bool(np.all(terms_s[:nt] >= pointwise * (1 - 1e-12))),
        "pointwise_ge_harmonic": bool(np.all(pointwise >= terms_h[:nt] * (1 - 1e-12))),
    }
    return rows, minorant

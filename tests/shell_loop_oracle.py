"""The per-level shell loop, kept as an oracle for operators._shells.

shells_by_level(f, scans, lev, pos, masses, coeff, a) takes the arguments
of operators._shells and finds each cube's ancestors through the parent
offsets of the scans, fine to coarse.  It then writes, coarse to fine,
each ancestor's shell coeff * |A|^{a/n - 1} * mass onto the (B, *mesh)
cells that scan.cube_cells marks, so each cell keeps the shell of its
smallest ancestor.  operators._shells takes the maximum of the same
per-cube values in one sweep down the cube tree, so its values must be
equal to these bit for bit.
"""
import numpy as np

from dyadlab.scan import cube_cells


def shells_by_level(f, scans, lev, pos, masses, coeff, a):
    n, B = f.dim, len(lev)
    anc = [None] * len(scans)
    cur = np.zeros_like(pos)
    for i in range(len(scans) - 1, -1, -1):
        anc[i] = cur = np.where((lev == i)[:, None], pos, cur)
        if scans[i].parent_start is not None:
            cur = (cur + np.array(scans[i].parent_start)) // 2
    out = np.zeros((B,) + f.values.shape)
    rows = (B,) + (1,) * n
    for i in range(len(scans)):
        value = coeff * scans[i].cube_volume() ** (a / n - 1.0) * masses
        hit = cube_cells(scans, np.full(B, i), anc[i]) & (lev >= i).reshape(rows)
        np.copyto(out, value.reshape(rows), where=hit)
    return out

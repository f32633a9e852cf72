"""Exact rational cube geometry, kept as an oracle for the integer scan
plans that the library reads.

ancestor_chain walks a cube's parents as Fraction boxes until one covers
the window, or is pinned on every axis at an edge that the unshifted grid
keeps at every level (the origin), so that no coarser ancestor covers
another cell of the window; operators._chains_end decides the same on
integer cell edges.  refuse_fraction_geometry makes every per-cube use of
rational geometry raise, and fraction_calls counts the calls into the
fractions module, for tests that a code path does without it.
"""
import fractions
import sys

from dyadlab import grid
from dyadlab.grid import Box, DyadicCube, parent, realize
from dyadlab.operators import OperatorError
from dyadlab.sampled import SampledFunction


def _axis_locked(cube: DyadicCube, b: Box, window: Box, ax: int) -> bool:
    lo_cov = b.lower[ax] <= window.lower[ax]
    hi_cov = b.lower[ax] + b.side >= window.lower[ax] + window.side
    if lo_cov and hi_cov:
        return True
    if cube.shift[ax] == 0:
        # the unshifted grid keeps an edge at the origin at every level
        if cube.index[ax] == 0 and hi_cov:
            return True
        if cube.index[ax] == -1 and lo_cov:
            return True
    return False


def ancestor_chain(cube0: DyadicCube, window: Box) -> list:
    """Ancestors of cube0, finest first, walked until they cover the window
    or are pinned at a grid-persistent edge so coverage can no longer grow;
    more than 500 steps raise OperatorError."""
    chain = [cube0]
    for _ in range(500):
        b = realize(chain[-1])
        if b.contains_box(window):
            break
        if all(_axis_locked(chain[-1], b, window, ax) for ax in range(cube0.dim)):
            break
        chain.append(parent(chain[-1]))
    else:
        raise OperatorError("ancestor chain did not stabilize")
    return chain


def refuse_fraction_geometry(monkeypatch) -> None:
    """Make per-cube rational geometry raise AssertionError: the cell
    slices, integrals, restrictions and indicators of boxes, and every box
    grid.py builds (so realize of any cube).  The window's own box, built
    once per mesh by sampled.mesh_geometry, stays allowed."""
    def refuse(*args, **kwargs):
        raise AssertionError("per-cube Fraction geometry")

    for name in ("cell_slices", "restrict_to", "integrate_box", "indicator"):
        monkeypatch.setattr(SampledFunction, name, refuse)
    monkeypatch.setattr(grid, "Box", refuse)


def fraction_calls(fn) -> int:
    """The number of Python calls into the fractions module (Fraction
    construction, arithmetic, comparison, hashing, float conversion)
    while fn() runs, counted with sys.setprofile."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            count += 1

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return count

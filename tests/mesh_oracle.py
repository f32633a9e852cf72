"""The plain forms of sampled's full-mesh passes, kept as bit oracles.

cumsum_prefix is prefix_sum as one np.cumsum per table axis, in axis
order, each into a new array; log_two_step and power_two_step are
log_prefix's logs and SampledFunction.power as two-step masked forms:
np.where around a log of every cell, and a power of every cell (for a
nonnegative exponent) or a gather and scatter of the positive cells.
"""
import numpy as np


def cumsum_prefix(arr: np.ndarray, dim=None) -> np.ndarray:
    """The prefix table with a zero border over the last dim axes (all of
    them by default)."""
    lead = 0 if dim is None else arr.ndim - dim
    sums = np.asarray(arr, dtype=np.float64)
    for ax in range(lead, arr.ndim):
        sums = np.cumsum(sums, axis=ax)
    out = np.zeros(arr.shape[:lead] + tuple(n + 1 for n in arr.shape[lead:]))
    out[(...,) + (slice(1, None),) * (arr.ndim - lead)] = sums
    return out


def log_two_step(v: np.ndarray) -> np.ndarray:
    """log v on the positive cells, 0 elsewhere."""
    pos = v > 0
    return np.where(pos, np.log(np.where(pos, v, 1.0)), 0.0)


def power_two_step(v: np.ndarray, e: float) -> np.ndarray:
    """v ** e, with zero cells kept at 0 for a negative exponent."""
    if e >= 0:
        return v ** e
    out = np.zeros_like(v)
    pos = v > 0
    out[pos] = v[pos] ** e
    return out

"""Clipping operators for model updates.

The dual-threshold operator divides an update by max(1, ||d||/S, ||d||/M),
where S bounds sensitivity for the privacy noise and M bounds suspiciously
large (biased) updates. Algebraically this equals a single norm clip at
min(S, M); the report records which threshold actually bound the update.
The server applies it to a block of updates at a time: each row by its own
factor, one report per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ParamVector, l2_norm


@dataclass(frozen=True)
class ClipReport:
    pre_norm: float
    factor: float
    clipped_by: str  # none | dp_bound | bias_bound


def clip_by_norm(v: ParamVector, c: float):
    """Scale v onto the L2 ball of radius c; no-op if already inside."""
    if c <= 0:
        raise ValueError("norm threshold must be positive")
    v = np.asarray(v, dtype=np.float64)
    n = l2_norm(v)
    if n <= c:
        return v, ClipReport(pre_norm=n, factor=1.0, clipped_by="none")
    factor = c / n
    return v * factor, ClipReport(pre_norm=n, factor=factor, clipped_by="dp_bound")


def dual_clip(delta: ParamVector, S: float, M: float, norm=None, out=None):
    """Divide delta by max(1, ||delta||/S, ||delta||/M).

    The report names the binding branch: dp_bound when S <= M, bias_bound
    when M < S (exact ties go to dp_bound). A given ``norm`` must be that of a
    finite float64 delta and skips the check. A clipped delta is written to
    ``out`` when given, else to a new array; an unclipped one is returned as is.

    delta may also be a (k, P) block of rows, with norm then their norms (k,):
    each row is divided by its own denominator, the same floats as the
    vector's, and a list of k reports is returned. Without ``out`` every row
    is written to a new array (an unclipped row times 1.0, which is the
    row). With ``out`` only the clipped rows are written to it, each to its
    own row: an unclipped row is its delta row, as an unclipped vector is
    returned as is, and its row of ``out`` is left alone.
    """
    if S <= 0 or M <= 0:
        raise ValueError("thresholds S and M must be positive")
    if norm is None:
        delta = np.asarray(delta, dtype=np.float64)
        norm = l2_norm(delta)
    branch = "dp_bound" if S <= M else "bias_bound"
    if delta.ndim == 2:
        norm = np.asarray(norm, dtype=np.float64)
        # division rounds monotonically, so norm / min(S, M) is the larger
        # of norm / S and norm / M, bit for bit
        denom = np.maximum(norm / min(S, M), 1.0)
        factor = 1.0 / denom
        reports = list(map(ClipReport, norm.tolist(), factor.tolist(),
                           np.where(denom == 1.0, "none", branch).tolist()))
        if out is None:
            return np.multiply(delta, factor[:, None]), reports
        for i in np.flatnonzero(denom > 1.0).tolist():
            np.multiply(delta[i], factor[i], out=out[i])
        return out, reports
    denom = max(1.0, norm / S, norm / M)
    if denom == 1.0:
        return delta, ClipReport(pre_norm=norm, factor=1.0, clipped_by="none")
    factor = 1.0 / denom
    return (np.multiply(delta, factor, out=out),
            ClipReport(pre_norm=norm, factor=factor, clipped_by=branch))

"""Clipping operators for model updates.

The dual-threshold operator divides an update by max(1, ||d||/S, ||d||/M),
where S bounds sensitivity for the privacy noise and M bounds suspiciously
large (biased) updates. Algebraically this equals a single norm clip at
min(S, M), and clip_factors decides it as one, for a round's norms at once;
dual_clip is that decision and one multiply, for one vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ParamVector, l2_norm


def _finite_norm(v: ParamVector):
    """l2_norm of the vector v; raises unless it is finite."""
    norm = l2_norm(v)
    if not np.isfinite(norm):
        raise ValueError("vector norm is not finite")
    return norm


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
    n = _finite_norm(v)
    if n <= c:
        return v, ClipReport(pre_norm=n, factor=1.0, clipped_by="none")
    factor = c / n
    return v * factor, ClipReport(pre_norm=n, factor=factor, clipped_by="dp_bound")


def clip_factors(norms, S: float, M: float):
    """Each update's factor 1 / max(norm / min(S, M), 1) and ClipReport, for
    the finite norms (an array-like) of a round's updates.

    Division rounds monotonically, so norm / min(S, M) is the larger of
    norm / S and norm / M, bit for bit; where a subnormal threshold makes it
    overflow, the factor is 0.0. The report names the binding branch:
    dp_bound when S <= M, bias_bound when M < S (exact ties go to dp_bound).
    """
    if S <= 0 or M <= 0:
        raise ValueError("thresholds S and M must be positive")
    norms = np.asarray(norms, dtype=np.float64).reshape(-1)
    with np.errstate(over="ignore"):
        denom = np.maximum(norms / min(S, M), 1.0)
    factors = 1.0 / denom
    branch = "dp_bound" if S <= M else "bias_bound"
    reports = list(map(ClipReport, norms.tolist(), factors.tolist(),
                       np.where(denom == 1.0, "none", branch).tolist()))
    return factors, reports


def dual_clip(delta: ParamVector, S: float, M: float):
    """Divide the vector delta by max(1, ||delta||/S, ||delta||/M), as
    clip_factors decides; returns it (as is if unclipped) and its report."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1:
        raise ValueError(f"dual_clip clips one vector, got an array of shape {delta.shape}")
    factors, reports = clip_factors(_finite_norm(delta), S, M)
    return (delta if factors[0] == 1.0 else delta * factors[0]), reports[0]

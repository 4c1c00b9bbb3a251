"""Clipping operators for model updates.

The dual-threshold operator divides an update by max(1, ||d||/S, ||d||/M),
where S bounds sensitivity for the privacy noise and M bounds suspiciously
large (biased) updates. Algebraically this equals a single norm clip at
min(S, M); the report records which threshold actually bound the update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import ParamVector, as_vector, l2_norm


@dataclass(frozen=True)
class ClipReport:
    pre_norm: float
    factor: float
    clipped_by: str  # none | dp_bound | bias_bound


def clip_by_value(v: ParamVector, lo: float, hi: float) -> ParamVector:
    if lo > hi:
        raise ValueError(f"lo ({lo}) must not exceed hi ({hi})")
    return np.clip(as_vector(v), lo, hi)


def clip_by_norm(v: ParamVector, c: float):
    """Scale v onto the L2 ball of radius c; no-op if already inside."""
    if c <= 0:
        raise ValueError("norm threshold must be positive")
    v = as_vector(v)
    n = l2_norm(v)
    if n <= c:
        return v, ClipReport(pre_norm=n, factor=1.0, clipped_by="none")
    factor = c / n
    return v * factor, ClipReport(pre_norm=n, factor=factor, clipped_by="dp_bound")


def model_clip(w: ParamVector, c: float) -> ParamVector:
    """Norm-clip applied to full model parameters rather than a difference."""
    clipped, _ = clip_by_norm(w, c)
    return clipped


def compute_update(w_final: ParamVector, w_init: ParamVector) -> ParamVector:
    w_final, w_init = as_vector(w_final), as_vector(w_init)
    if w_final.shape != w_init.shape:
        raise ValueError(
            f"dimension mismatch: {w_final.shape} vs {w_init.shape}"
        )
    return w_final - w_init


def dual_clip(delta: ParamVector, S: float, M: float, norm=None, in_place=False):
    """Divide delta by max(1, ||delta||/S, ||delta||/M).

    The report names the binding branch: dp_bound when S <= M, bias_bound
    when M < S (exact ties go to dp_bound). A given ``norm`` must be that of a
    finite float64 delta and skips the check; ``in_place`` scales delta itself.
    """
    if S <= 0 or M <= 0:
        raise ValueError("thresholds S and M must be positive")
    if norm is None:
        delta = as_vector(delta)
        norm = l2_norm(delta)
    denom = max(1.0, norm / S, norm / M)
    if denom == 1.0:
        return delta, ClipReport(pre_norm=norm, factor=1.0, clipped_by="none")
    branch = "dp_bound" if S <= M else "bias_bound"
    factor = 1.0 / denom
    return (np.multiply(delta, factor, out=delta if in_place else None),
            ClipReport(pre_norm=norm, factor=factor, clipped_by=branch))

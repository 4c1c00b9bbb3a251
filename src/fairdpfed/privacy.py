"""Server-side Gaussian mechanism and (epsilon, delta) accounting.

Noise std is sigma * S, added once per round to the clipped average. The
per-round epsilon uses the classical Gaussian-mechanism calibration with
remove-one client adjacency (L2 sensitivity S / m_t, so S cancels). Rounds
compose with basic composition: (sum of epsilons, T * delta).

The reported epsilon is nominal: when S is the data-dependent median of the
round's update norms, the fixed-sensitivity argument does not strictly apply.

S, sigma, delta and m_t arrive here already checked: FedConfig owns their
ranges, and the round floors S at S_FLOOR and samples at least one client.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .numeric import ParamVector, RngStream

EPS_CAVEAT = (
    "nominal epsilon: computed under a fixed-S assumption; adaptive S is "
    "data-dependent and outside the standard Gaussian-mechanism analysis"
)


def add_noise(avg_update: ParamVector, S: float, sigma: float, rng: RngStream) -> ParamVector:
    """Add N(0, (sigma*S)^2) noise per coordinate; sigma=0 is the identity."""
    if sigma == 0:
        return avg_update
    return avg_update + rng.generator().normal(0.0, sigma * S, size=avg_update.shape[0])


def epsilon_per_round(
    sigma: float, delta_dp: float, m_t: int, adjacency: str = "remove_one"
) -> float:
    """Per-round epsilon of the Gaussian mechanism on the clipped average.

    sqrt(2 ln(1.25/delta)) / (sigma * m_t) for remove-one adjacency; doubled
    for replace-one. sigma=0 reports the +inf sentinel (no noise, no bound).
    """
    if sigma == 0:
        return math.inf
    eps = math.sqrt(2.0 * math.log(1.25 / delta_dp)) / (sigma * m_t)
    if adjacency == "replace_one":
        eps *= 2.0
    return eps


@dataclass
class PrivacyLedger:
    """Append-only per-round accounting; totals use basic composition."""

    delta_dp: float
    rounds: list = field(default_factory=list)

    def record(self, round_index: int, S_used: float, sigma: float, eps_round: float):
        self.rounds.append(
            {
                "round_index": round_index,
                "S_used": S_used,
                "sigma": sigma,
                "eps_round": eps_round,
            }
        )

    @property
    def eps_total_basic(self) -> float:
        # fsum: correctly rounded, so T equal rounds total exactly T * eps
        return math.fsum(r["eps_round"] for r in self.rounds)

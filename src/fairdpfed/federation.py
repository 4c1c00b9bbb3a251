"""Round orchestration: sampling, local training, dual clipping, aggregation.

Each round the server broadcasts the global model, sampled clients train
locally and transmit the parameter difference, the server picks the clipping
bound S (fixed or the median of the round's unclipped update norms), applies
the dual-threshold clip per client, averages, and adds Gaussian noise. All
client work inside a round is a pure function of (global weights, shard,
substream), so rounds are reproducible.

The server holds m_t * P * 8 bytes of updates once per run: one (m_t, P)
float64 matrix, reused every round. models.train_clients trains the sampled
clients together, client i in row i, on their row spans of the scenario's
shard pool: clients whose minibatches have the same row count run as one
stacked matmul, in the groups of models.schedule, and their rows are updated
in place. The round's models.Plan binds those groups to the matrix (views,
minibatch buffers, work arrays) and is kept in the server state while the
sampled spans repeat; it lives and dies with the run, as the matrix does.
Each epoch the sampled clients' shuffles are drawn in one call from the
round stream and their ids. The result is bit-identical to training each
client on its own. Each row is finished right after its client's last step,
while it is still in cache: it becomes the client's transmitted difference
(minus the global model, times any update bias), and its norm, the update's
one finiteness check, is taken. The server then adds each row to a running
total, clipping only the rows dual_clip would scale into one reused vector
first: one read of the matrix. Evaluation reads the test set's group index,
worked out once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models
from .clipping import ClipReport, dual_clip
from .datagen import BiasTag
from .models import EvalMetrics, LabeledBatch, ModelSpec
from .numeric import ParamVector, RngStream, check_types, l2_norm
from .privacy import PrivacyLedger, add_noise, epsilon_per_round

S_FLOOR = 1e-12


class SimulationError(RuntimeError):
    """A round produced non-finite state; carries round/client context."""


@dataclass(frozen=True)
class FedConfig:
    K: int
    q: float = 1.0
    T: int = 1
    epochs: int = 1
    lr: float = 0.1
    batch_size: int = 32
    S_policy: str = "median_adaptive"  # median_adaptive | fixed
    S_fixed: float = 1.0
    M: float = math.inf
    sigma: float = 0.0
    delta_dp: float = 1e-5
    adjacency: str = "remove_one"  # remove_one | replace_one
    seed: int = 0

    def __post_init__(self):
        check_types(self)
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.T < 1:
            raise ValueError("T must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # each float check is written so that NaN fails it
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must be in (0,1]")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be a finite number > 0")
        if self.S_policy not in ("median_adaptive", "fixed"):
            raise ValueError(f"unknown S_policy {self.S_policy!r}")
        if not 0.0 < self.S_fixed < math.inf:
            raise ValueError("S_fixed must be a finite number > 0")
        if not self.M > 0:
            raise ValueError("M must be > 0 (use inf to disable)")
        object.__setattr__(self, "M", float(self.M))  # so "M": 1 is echoed as 1.0
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be a finite number >= 0")
        if not 0.0 < self.delta_dp < 1.0:
            raise ValueError("delta_dp must be strictly between 0 and 1")
        if self.adjacency not in ("remove_one", "replace_one"):
            raise ValueError(f"unknown adjacency {self.adjacency!r}")

    @property
    def m_t(self) -> int:
        return math.ceil(self.q * self.K)


@dataclass
class RoundRecord:
    round: int
    sampled_clients: list
    per_client: list  # {id, update_norm_pre, clip_factor, clipped_by, biased}
    S_used: float
    M_used: float
    noise_std: float
    eps_round: float
    eval: EvalMetrics

    def to_dict(self) -> dict:
        """Stable external schema for rounds.jsonl."""
        return {
            "round": self.round,
            "sampled_clients": list(self.sampled_clients),
            "per_client": [
                {
                    "id": c["id"],
                    "norm_pre": c["update_norm_pre"],
                    "clip_factor": c["clip_factor"],
                    "clipped_by": c["clipped_by"],
                    "biased": c["biased"],
                }
                for c in self.per_client
            ],
            "S_used": self.S_used,
            "M_used": self.M_used,
            "noise_std": self.noise_std,
            "eps_round": self.eps_round,
            "eval": {
                "accuracy": self.eval.accuracy,
                "loss": self.eval.loss,
                "per_group": {str(k): v for k, v in self.eval.per_group_accuracy.items()},
            },
        }


@dataclass
class ServerState:
    round: int
    w_global: ParamVector
    ledger: PrivacyLedger
    updates: np.ndarray = None  # the (m_t, P) update matrix, reused per round
    plan: models.Plan = None  # bound to updates, reused while the sampled spans repeat


def sample_clients(K: int, q: float, rng: RngStream) -> list:
    """Uniform sample without replacement of size ceil(q*K), sorted ascending."""
    ids = rng.generator().choice(K, size=math.ceil(q * K), replace=False)
    return sorted(int(i) for i in ids)


def adaptive_S(update_norms) -> float:
    """Median of the round's unclipped update norms (finite, as l2_norm
    checked each, and at least one), floored away from zero."""
    return max(float(np.median(update_norms)), S_FLOOR)


def apply_update_bias(delta: ParamVector, tag: BiasTag) -> None:
    """Realize update-level bias in place at transmission time (direction preserved)."""
    if tag.mode == "update_scale":
        delta *= tag.factor


def aggregate_round(D: np.ndarray, config: FedConfig, norms: list):
    """Pick S, dual-clip each update, and average with 1/m_t.

    ``D`` is the round's (m_t, P) float64 update matrix; it is left
    unchanged. ``norms`` are its rows' norms, which l2_norm took (and so
    checked the rows finite). A row that dual_clip's factor leaves alone is
    added to a running total as it is; any other is clipped into one reused
    vector first. Rows are added in order, which is how D.sum(axis=0) adds
    the rows of a C-contiguous matrix, so the average is bit-identical to
    summing the clipped matrix.
    Returns (averaged update, S_used, list of ClipReport).
    """
    S = adaptive_S(norms) if config.S_policy == "median_adaptive" else config.S_fixed
    total = np.zeros(D.shape[1])
    clipped = np.empty_like(total)
    reports = []
    for row, norm in zip(D, norms):
        if max(1.0, norm / S, norm / config.M) == 1.0:  # dual_clip's test for no clip
            reports.append(ClipReport(norm, 1.0, "none"))
        else:
            row, report = dual_clip(row, S, config.M, norm=norm, out=clipped)
            reports.append(report)
        total += row
    return total / len(D), S, reports


def run_round(
    state: ServerState,
    shards,
    config: FedConfig,
    spec: ModelSpec,
    test: LabeledBatch,
    root: RngStream,
):
    """Execute one communication round, mutating and returning the state."""
    t = state.round
    sampled = sample_clients(config.K, config.q, root.child("sample", t))
    round_stream = root.child("round", t)
    if state.updates is None:
        state.updates = np.empty((len(sampled), spec.param_dim))
    D = state.updates
    norms = [None] * len(sampled)  # None: the update is not finite

    def finish(i):
        """Turn row i into client i's transmitted difference and take its norm."""
        row = D[i]
        np.subtract(row, state.w_global, out=row)
        apply_update_bias(row, shards[sampled[i]].bias_tag)
        try:
            norms[i] = l2_norm(row)
        except ValueError:
            pass

    spans = [(shards[cid].start, shards[cid].stop) for cid in sampled]
    if state.plan is None or state.plan.spans != spans:
        state.plan = models.Plan(spec, spans, config.batch_size, D)
    models.train_clients(spec, state.w_global, shards[0].pool, state.plan, config.epochs,
                         config.lr, round_stream, sampled, finish)
    for cid, norm in zip(sampled, norms):
        if norm is None:
            raise SimulationError(f"non-finite update from client {cid} in round {t}")

    avg, S_used, reports = aggregate_round(D, config, norms)
    noise_std = config.sigma * S_used
    noisy = add_noise(avg, S_used, config.sigma, root.child("noise", t))
    w_next = state.w_global + noisy
    if not np.all(np.isfinite(w_next)):
        raise SimulationError(f"non-finite global model after round {t}")

    eps = epsilon_per_round(config.sigma, config.delta_dp, len(sampled), config.adjacency)
    state.ledger.record(t, S_used, config.sigma, eps)

    record = RoundRecord(
        round=t,
        sampled_clients=sampled,
        per_client=[
            {
                "id": cid,
                "update_norm_pre": rep.pre_norm,
                "clip_factor": rep.factor,
                "clipped_by": rep.clipped_by,
                "biased": shards[cid].bias_tag.mode != "clean",
            }
            for cid, rep in zip(sampled, reports)
        ],
        S_used=S_used,
        M_used=config.M,
        noise_std=noise_std,
        eps_round=eps,
        eval=models.evaluate(spec, w_next, test),
    )
    state.w_global = w_next
    state.round = t + 1
    return state, record


def run_training(config: FedConfig, spec: ModelSpec, shards, test: LabeledBatch):
    """Run T rounds from a shared initial model; deterministic in config.seed."""
    root = RngStream(config.seed)
    w0 = models.init_params(spec, root.child("init"))
    state = ServerState(
        round=0,
        w_global=w0,
        ledger=PrivacyLedger(delta_dp=config.delta_dp),
    )
    records = []
    for _ in range(config.T):
        state, record = run_round(state, shards, config, spec, test, root)
        records.append(record)
    return state.w_global, records, state.ledger

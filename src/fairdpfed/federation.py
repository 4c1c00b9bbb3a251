"""Round orchestration: sampling, local training, dual clipping, aggregation.

Each round the server broadcasts the global model, sampled clients train
locally and transmit the parameter difference, the server picks the clipping
bound S (fixed or the median of the round's unclipped update norms), applies
the dual-threshold clip per client, averages, and adds Gaussian noise. All
client work inside a round is a pure function of (global weights, shard,
substream), so rounds are reproducible.

A round samples m_t = sample_size(K, q) clients. The server holds m_t * P * 8
bytes of updates once per run: one (m_t, P) float64 matrix, reused every
round. models.train_clients trains the sampled clients together, client i in
row i, on their row spans of the scenario's shard pool, in the blocks of
models.schedule: each full step is a block, and the short last minibatches
run after them as ragged blocks of at most models.block_rows(P) clients;
clients whose minibatches have the same row count run as one stacked matmul
per product, and the rows are updated in place. The run's models.Plan binds
those blocks to the matrix (minibatch buffers, work arrays, each block's call
list) and is kept in the server state; it lives and dies with the run, as the
matrix does. When the sampled spans change (q < 1), it rebuilds only the
schedule, the spans and the order, and emits call lists only for block keys
the run has not met. train_clients is the program's one SGD loop:
harness.centralized_baseline trains through it too, as one client on the
whole training set, with a one-row plan bound once per call. Each epoch the
sampled clients' shuffles are drawn in one call: the round stream's key words
are hashed once, then each client's id (one 32-bit word, as K < 2**32) and
the epoch are mixed in. The result is bit-identical to training each client
on its own. A block's finished rows are finished at once, right after its
step, while they are still in cache: they become the clients' transmitted
differences (minus the global model, times any update bias), and l2_norm
takes their norms in one call, which are checked finite once, after
training. The server then clips the rows a block of the same row budget at
a time, dual_clip clipping each block, and adds them to a running total in
sampled order, by one reduction when one block holds the round: one read of
the matrix. Over several blocks, only the rows that clip are scaled; the
others are added as they are. When every client is sampled nothing is
drawn. Evaluation reads the test set's group index, worked out once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import models
from .clipping import dual_clip
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
        if self.K >= 2**32:  # a client id is one 32-bit word of its substream's key
            raise ValueError(f"K must be < 2**32, got {self.K}")
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
        return sample_size(self.K, self.q)


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
    plan: models.Plan = None  # bound to updates for the run, given each round's spans


def sample_size(K: int, q: float) -> int:
    """ceil(q * K) of q as the decimal it is written in: 7 for 0.07 of 100,
    where the float product 7.000000000000001 rounds up to 8."""
    return math.ceil(Fraction(str(q)) * K)


def sample_clients(K: int, q: float, rng: RngStream) -> list:
    """Uniform sample without replacement of sample_size(K, q) clients,
    sorted ascending. A sample of all K clients is every client: nothing is
    drawn, and rng's stream feeds nothing else."""
    m = sample_size(K, q)
    if m == K:
        return list(range(K))
    ids = rng.generator().choice(K, size=m, replace=False)
    return sorted(int(i) for i in ids)


def adaptive_S(update_norms) -> float:
    """Median of the round's unclipped update norms (finite, as run_round
    checked, and at least one), floored away from zero."""
    return max(float(np.median(update_norms)), S_FLOOR)


def update_factors(tags) -> np.ndarray:
    """The factor each tag's transmitted difference is multiplied by: the
    tag's factor under update-level bias, realized at transmission time
    (direction preserved), else 1.0, which leaves it as it is."""
    return np.array([tag.factor if tag.mode == "update_scale" else 1.0 for tag in tags])


def aggregate_round(D: np.ndarray, config: FedConfig, norms):
    """Pick S, dual-clip each update, and average with 1/m_t.

    ``D`` is the round's (m_t, P) float64 update matrix, left unchanged, and
    ``norms`` are its rows' finite norms. dual_clip clips the rows a block of
    models.block_rows(P) at a time, each times its factor, and the clipped
    rows are added to a total from 0.0 in sampled order. When one block
    holds every row, one reduction over the block's first axis adds them: it
    starts from 0.0 and adds the rows of a C-contiguous matrix in order.
    Otherwise dual_clip writes each block's clipped rows into one buffer, and
    the rows are added to the running total in place: a clipped row from the
    buffer, an unclipped one (factor 1.0) straight from D. Either way the
    average is bit-identical to summing the clipped matrix.
    Returns (averaged update, S_used, list of ClipReport).
    """
    S = adaptive_S(norms) if config.S_policy == "median_adaptive" else config.S_fixed
    m, P = D.shape
    rows = models.block_rows(P)
    if m <= rows:
        clipped, reports = dual_clip(D, S, config.M, norm=norms)
        return np.add.reduce(clipped, axis=0, initial=0.0) / m, S, reports
    total, clipped, reports = np.zeros(P), np.empty((rows, P)), []
    for a in range(0, m, rows):
        block = D[a : a + rows]
        scaled, block_reports = dual_clip(block, S, config.M, norm=norms[a : a + rows],
                                          out=clipped[: len(block)])
        reports += block_reports
        for row, scaled_row, report in zip(block, scaled, block_reports):
            total += row if report.factor == 1.0 else scaled_row
    return total / m, S, reports


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
    norms = np.empty(len(sampled))
    factors = update_factors([shards[cid].bias_tag for cid in sampled])

    def finish(rows, B):
        """Turn B, the final models of clients rows, into their transmitted
        differences and take their norms."""
        np.subtract(B, state.w_global, out=B)
        scale = factors[rows]
        if (scale != 1.0).any():
            B *= scale[:, None]
        norms[rows] = l2_norm(B)

    spans = [(shards[cid].start, shards[cid].stop) for cid in sampled]
    if state.plan is None:  # the run's first round
        state.updates = np.empty((len(sampled), spec.param_dim))
        state.plan = models.Plan(spec, spans, config.batch_size, config.lr, state.updates)
    else:  # keeps the run's buffers and call lists
        state.plan.set_spans(spans)
    models.train_clients(state.w_global, shards[0].pool, state.plan, config.epochs,
                         round_stream, sampled, finish)
    bad = np.flatnonzero(~np.isfinite(norms))  # in sampled order
    if len(bad):
        raise SimulationError(f"non-finite update from client {sampled[bad[0]]} in round {t}")

    avg, S_used, reports = aggregate_round(state.updates, config, norms)
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

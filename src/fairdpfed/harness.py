"""Experiment front door: config files, presets, baseline, and run artifacts.

A run directory contains exactly:
  config.echo  — the parsed config, serialized back out
  rounds.jsonl — one RoundRecord per line (stable schema, no timestamps)
  summary.json — RunSummary fields, an infinite one as "inf" (strict JSON)
  timings.json — seconds per phase (not deterministic, unlike the rest);
                 null for a phase that reused the previous run's result
  rounds.csv   — optional flat mirror of the round telemetry

run_experiments runs a list of configs in turn. It builds a run's scenario
again only when data, partition, bias, federation.K or federation.seed differ
from the previous run's, and retrains its baseline only when data, model or
federation.T, epochs, lr, batch_size or seed do.

Config files are JSON with five sections (all keys optional except
federation.K; unknown keys are rejected):

  data:       n_examples, n_features, n_classes, n_groups,
              class_separation, group_correlation
  model:      kind (logistic_regression | mlp_1hidden), hidden_units
  partition:  kind (iid | dirichlet_label_skew), alpha
  federation: K, q, T, epochs, lr, batch_size, S_policy
              (median_adaptive | fixed), S_fixed, M (number or "inf"),
              sigma, delta_dp, adjacency (remove_one | replace_one), seed
  bias:       biased_client_ids, mode (clean | label_flip | update_scale),
              flip_prob, target_group, factor
  output:     emit_csv
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, asdict, field, fields
from pathlib import Path

from . import models
from .datagen import BiasTag, DataSpec, PartitionScheme, generate, inject_bias, partition
from .federation import FedConfig, run_training
from .models import LabeledBatch, ModelSpec
from .numeric import RngStream, check_types
from .privacy import EPS_CAVEAT


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration, or run summary."""


@dataclass(frozen=True)
class BiasScenario(BiasTag):
    """The bias section: the tag the clients in biased_client_ids carry."""

    flip_prob: float = 0.5
    target_group: int = 0
    factor: float = 25.0
    biased_client_ids: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        ids = self.biased_client_ids
        if not isinstance(ids, (list, tuple)) or any(
                isinstance(c, bool) or not isinstance(c, int) for c in ids):
            raise ValueError(f"biased_client_ids must be a list of integers, got {ids!r}")
        object.__setattr__(self, "biased_client_ids", tuple(ids))


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSpec
    model_kind: str = field(metadata={"key": "model.kind"})
    hidden_units: int = field(metadata={"key": "model.hidden_units"})
    partition: PartitionScheme
    fed: FedConfig
    bias: BiasScenario
    emit_csv: bool = field(default=False, metadata={"key": "output.emit_csv"})

    def __post_init__(self):
        """The model and output sections' checks, and those that read two sections."""
        check_types(self)
        self.model_spec  # checks the model section against the data dimensions
        for cid in self.bias.biased_client_ids:
            if not 0 <= cid < self.fed.K:
                raise ValueError(f"bias.biased_client_ids: client {cid} outside [0, {self.fed.K})")
        if not 0 <= self.bias.target_group < self.data.n_groups:
            raise ValueError(f"bias.target_group must be in [0, {self.data.n_groups}), "
                             f"got {self.bias.target_group}")

    @property
    def model_spec(self) -> ModelSpec:
        return _section("model", ModelSpec, dict(
            kind=self.model_kind, hidden_units=self.hidden_units,
            n_features=self.data.n_features, n_classes=self.data.n_classes))


@dataclass(frozen=True)
class RunSummary:
    A_Fed: float
    A_Cen: float
    delta_acc: float
    per_group_gap: float
    eps_total_nominal: float


def _field_names(cls) -> set:
    return {f.name for f in fields(cls)}


_SECTION_KEYS = {
    "data": _field_names(DataSpec),
    "model": {"kind", "hidden_units"},
    "partition": _field_names(PartitionScheme),
    "federation": _field_names(FedConfig),
    "bias": _field_names(BiasScenario),
    "output": {"emit_csv"},
}


def _check_keys(raw: dict) -> None:
    for section, body in raw.items():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key in body:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")


def _section(name: str, cls, body: dict):
    """cls(**body), the section's dataclass; a value it rejects names the section."""
    try:
        return cls(**body)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    _check_keys(raw)
    fed_raw = dict(raw.get("federation", {}))
    if "K" not in fed_raw:
        raise ConfigError("missing required key federation.K")
    if fed_raw.get("M") == "inf":
        fed_raw["M"] = math.inf
    data = _section("data", DataSpec, raw.get("data", {}))
    partition = _section("partition", PartitionScheme, raw.get("partition", {}))
    fed = _section("federation", FedConfig, fed_raw)
    bias = _section("bias", BiasScenario, raw.get("bias", {}))
    model = raw.get("model", {})
    try:  # these messages name their own section or key path
        return ExperimentConfig(
            data=data, partition=partition, fed=fed, bias=bias,
            model_kind=model.get("kind", "logistic_regression"),
            hidden_units=model.get("hidden_units", 0),
            emit_csv=raw.get("output", {}).get("emit_csv", False),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: ExperimentConfig) -> dict:
    fed = asdict(cfg.fed)
    if math.isinf(fed["M"]):
        fed["M"] = "inf"
    return {
        "data": asdict(cfg.data),
        "model": {"kind": cfg.model_kind, "hidden_units": cfg.hidden_units},
        "partition": asdict(cfg.partition),
        "federation": fed,
        "bias": asdict(cfg.bias),
        "output": {"emit_csv": cfg.emit_csv},
    }


def _read_object(path) -> dict:
    """The JSON object the file at path holds; ConfigError if it holds anything else."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def parse_config(path) -> ExperimentConfig:
    return config_from_dict(_read_object(path))


# --- scenario presets -------------------------------------------------------

def _preset_base(**fed_overrides) -> dict:
    fed = {
        "K": 10, "q": 1.0, "T": 10, "epochs": 1, "lr": 0.1, "batch_size": 32,
        "S_policy": "median_adaptive", "M": "inf", "sigma": 0.0,
        "delta_dp": 1e-5, "seed": 0,
    }
    fed.update(fed_overrides)
    return {
        "data": {"n_examples": 1000, "n_features": 10, "class_separation": 5.0},
        "model": {"kind": "logistic_regression"},
        "partition": {"kind": "iid"},
        "federation": fed,
        "bias": {},
        "output": {},
    }


PRESETS = {
    "fedavg_clean": _preset_base(S_policy="fixed", S_fixed=1e9, M=1e9, sigma=0.0),
    "dp_only": _preset_base(sigma=0.5, M="inf"),
    "fair_dp": _preset_base(sigma=0.5, M=0.2),
    "biased_attack": {
        **_preset_base(S_policy="fixed", S_fixed=1e9, M="inf", sigma=0.0, T=15),
        # harder, heterogeneous data: on easy IID data a same-direction
        # scaling attack is nearly harmless and M sweeps are vacuous
        "data": {"n_examples": 1000, "n_features": 10, "class_separation": 2.0},
        "partition": {"kind": "dirichlet_label_skew", "alpha": 0.1},
        "bias": {"biased_client_ids": [0, 1], "mode": "update_scale", "factor": 25.0},
    },
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return config_from_dict(PRESETS[name])


# --- scenario construction and runs -----------------------------------------

def _scenario_inputs(cfg: ExperimentConfig) -> tuple:
    """The parts of cfg that build_scenario reads."""
    return cfg.data, cfg.partition, cfg.bias, cfg.fed.K, cfg.fed.seed


def build_scenario(cfg: ExperimentConfig):
    """Generate data, partition into shards, and inject the bias scenario.

    Every step works in place or takes one copy: the feature matrix is drawn
    once and dropped after its one split into train and test, which are
    standardized in their own memory; the pool is the one copy of train in
    client order, and label-flip bias rewrites the pool's labels. The peak is
    near two copies of the feature matrix.
    """
    root = RngStream(cfg.fed.seed)
    train, test = generate(cfg.data, root.child("data"))
    try:  # a split the data cannot fill is a config error
        shards = partition(train, cfg.fed.K, cfg.partition, root.child("partition"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for cid in sorted(set(cfg.bias.biased_client_ids)):
        shards[cid] = inject_bias(shards[cid], cfg.bias, root.child("bias", cid),
                                  cfg.data.n_classes)
    return train, test, shards


def _baseline_inputs(cfg: ExperimentConfig) -> tuple:
    """The parts of cfg that centralized_baseline reads; data and seed fix its train and test."""
    fed = cfg.fed
    return cfg.data, cfg.model_spec, fed.T, fed.epochs, fed.lr, fed.batch_size, fed.seed


def centralized_baseline(cfg: ExperimentConfig, train: LabeledBatch, test: LabeledBatch):
    """Train the same model on build_scenario's pooled clean training data.

    The baseline is client 0 of a one-client federation on all of train,
    trained by :func:`models.train_clients` in the one row of a matrix whose
    :class:`models.Plan` is bound once per call: its steps share one call
    list per minibatch size. Each round trains from the last round's model
    with the federated round/epoch schedule and substreams, so a
    single-client federation with no clipping or noise reproduces it bit
    for bit.
    """
    spec = cfg.model_spec
    root = RngStream(cfg.fed.seed)
    W = models.init_params(spec, root.child("init"))[None, :]
    plan = models.Plan(spec, [(0, len(train))], cfg.fed.batch_size, cfg.fed.lr, W)
    for t in range(cfg.fed.T):
        models.train_clients(W[0].copy(), train, plan, cfg.fed.epochs, root.child("round", t),
                             [0])
    return W[0], models.evaluate(spec, W[0], test)


_PHASES = ("scenario_s", "federation_s", "baseline_s", "write_s")


@contextmanager
def _timed(timings: dict, phase: str):
    """Record the seconds the with-block takes as timings[phase]."""
    t0 = time.monotonic()
    yield
    timings[phase] = time.monotonic() - t0


def run_experiment(cfg: ExperimentConfig, out_dir) -> RunSummary:
    """Run the federation plus the centralized reference and write artifacts
    into out_dir: :func:`run_experiments` on one pair, so nothing is reused."""
    return run_experiments([(out_dir, cfg)])[0]


def run_experiments(runs) -> list:
    """Run each (out_dir, config) pair in turn; returns their RunSummary list.

    Each run's phases are scenario, federation, baseline, write. A run reuses
    the previous run's scenario when :func:`_scenario_inputs` gives the same
    for both, and its baseline test metrics when :func:`_baseline_inputs`
    does; timings.json gives a reused phase as null. Nothing older is kept.
    """
    scenario_key = baseline_key = scenario = cen_eval = None
    summaries = []
    for out_dir, cfg in runs:
        timings = dict.fromkeys(_PHASES)
        if _scenario_inputs(cfg) != scenario_key:
            scenario = None  # the previous run's arrays go before the next are built
            with _timed(timings, "scenario_s"):
                scenario = build_scenario(cfg)
            scenario_key = _scenario_inputs(cfg)
        with _timed(timings, "federation_s"):
            _, records, ledger = run_training(cfg.fed, cfg.model_spec, scenario[2], scenario[1])
        if _baseline_inputs(cfg) != baseline_key:
            with _timed(timings, "baseline_s"):
                _, cen_eval = centralized_baseline(cfg, *scenario[:2])
            baseline_key = _baseline_inputs(cfg)

        last = records[-1]
        groups = list(last.eval.per_group_accuracy.values())
        summary = RunSummary(
            A_Fed=last.eval.accuracy,
            A_Cen=cen_eval.accuracy,
            delta_acc=abs(last.eval.accuracy - cen_eval.accuracy),
            per_group_gap=(max(groups) - min(groups)) if groups else 0.0,
            eps_total_nominal=ledger.eps_total_basic,
        )
        out = Path(out_dir)
        with _timed(timings, "write_s"):
            out.mkdir(parents=True, exist_ok=True)
            (out / "config.echo").write_text(
                json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n"
            )
            with open(out / "rounds.jsonl", "w") as fh:
                for rec in records:
                    fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
            # an infinite ε (no noise) is written "inf", as config.echo writes M
            summary_doc = {k: "inf" if v == math.inf else v for k, v in asdict(summary).items()}
            summary_doc["eps_caveat"] = EPS_CAVEAT
            (out / "summary.json").write_text(
                json.dumps(summary_doc, indent=2, sort_keys=True) + "\n"
            )
            if cfg.emit_csv:
                _write_rounds_csv(records, out / "rounds.csv")
        timings["total_s"] = sum(v for v in timings.values() if v is not None)
        (out / "timings.json").write_text(json.dumps(timings, indent=2) + "\n")
        summaries.append(summary)
    return summaries


_CSV_COLUMNS = ["round", "S_used", "M_used", "noise_std", "eps_round",
                "accuracy", "loss", "n_clipped"]


def _write_rounds_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(_CSV_COLUMNS)
        for rec in records:
            n_clipped = sum(1 for c in rec.per_client if c["clipped_by"] != "none")
            wr.writerow([
                rec.round, repr(rec.S_used), repr(rec.M_used),
                repr(rec.noise_std), repr(rec.eps_round),
                repr(rec.eval.accuracy), repr(rec.eval.loss), n_clipped,
            ])


def load_summary(run_dir) -> RunSummary:
    path = Path(run_dir) / "summary.json"
    doc = _read_object(path)
    try:
        summary = RunSummary(**{k: math.inf if doc[k] == "inf" else doc[k]
                                for k in RunSummary.__dataclass_fields__})
        check_types(summary)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc.args[0]}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return summary


_COMPARE_COLUMNS = ["run", "A_Fed", "A_Cen", "delta_acc", "per_group_gap",
                    "eps_total_nominal"]


def compare_runs(named_summaries) -> tuple[str, str]:
    """Tabulate run summaries; returns (text table, CSV text)."""
    rows = [
        [name, s.A_Fed, s.A_Cen, s.delta_acc, s.per_group_gap, s.eps_total_nominal]
        for name, s in named_summaries
    ]
    widths = [
        max(len(col), max(len(_cell(r[i])) for r in rows))
        for i, col in enumerate(_COMPARE_COLUMNS)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(_COMPARE_COLUMNS, widths))]
    for r in rows:
        lines.append("  ".join(_cell(v).ljust(w) for v, w in zip(r, widths)))
    text = "\n".join(lines) + "\n"

    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(_COMPARE_COLUMNS)
    for r in rows:
        wr.writerow([r[0]] + [repr(float(v)) for v in r[1:]])
    return text, buf.getvalue()


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)

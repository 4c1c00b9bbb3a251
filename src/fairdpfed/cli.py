"""Command line entry point.

  fairdpfed [--out DIR] [--seed N] [--quiet] run <config.json | preset-name>
  fairdpfed [--out DIR] [--quiet] compare <run-dir> [<run-dir> ...]
  fairdpfed [--out DIR] [--seed N] [--quiet] sweep <config.json | preset-name>
            --param KEY --values a,b,c

Exit codes: 0 success, 2 config error, 3 simulation abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .federation import SimulationError
from .harness import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    compare_runs,
    config_from_dict,
    config_to_dict,
    load_summary,
    parse_config,
    preset_config,
    run_experiment,
    run_experiments,
)


def _load_config(source: str) -> ExperimentConfig:
    if source in PRESETS:
        return preset_config(source)
    return parse_config(source)


def _with_fed(cfg: ExperimentConfig, key: str, value) -> ExperimentConfig:
    """cfg with federation.key set to value, checked as a config file's values are."""
    doc = config_to_dict(cfg)
    doc["federation"][key] = value
    return config_from_dict(doc)


def _with_seed(cfg: ExperimentConfig, seed) -> ExperimentConfig:
    return cfg if seed is None else _with_fed(cfg, "seed", seed)


def _size_keys(cfg: ExperimentConfig, shape: tuple) -> str:
    """The config keys that set an array of this shape, with the sizes they
    set; a size that several keys set names each of them."""
    spec, data = cfg.model_spec, cfg.data
    model_keys = "data.n_features, data.n_classes" + (
        ", model.hidden_units" if spec.kind == "mlp_1hidden" else "")
    sizes = [
        (spec.param_dim, f"P = {spec.param_dim:,} parameters ({model_keys})"),
        (cfg.fed.m_t, f"m_t = {cfg.fed.m_t:,} sampled clients (federation.K, federation.q)"),
        (data.n_examples, f"{data.n_examples:,} examples (data.n_examples)"),
        (data.n_features, f"{data.n_features:,} features (data.n_features)"),
        (data.n_classes, f"{data.n_classes:,} classes (data.n_classes)"),
        (data.n_groups, f"{data.n_groups:,} groups (data.n_groups)"),
    ]
    named = []
    for n in dict.fromkeys(shape):
        keys = [text for size, text in sizes if size == n]
        if keys:
            named.append((", ".join(keys[:-1]) + " or " if keys[:-1] else "") + keys[-1])
    return " and ".join(named) or "the data, model and federation sizes"


@contextmanager
def _allocations_of(cfg: ExperimentConfig):
    """Turn an array that a run of cfg cannot allocate into a config error
    that gives the array's size and the keys that set it."""
    try:
        yield
    except MemoryError as exc:
        shape = getattr(exc, "shape", None)
        if shape is None:
            raise ConfigError("the run ran out of memory; lower the data, model or "
                              "federation sizes") from exc
        gib = math.prod(shape) * np.dtype(exc.dtype).itemsize / 2**30
        raise ConfigError(
            f"a {exc.dtype} array of shape {shape} needs {gib:,.2f} GiB, which could not be "
            f"allocated; its size is set by {_size_keys(cfg, shape)}") from exc


def _cmd_run(args) -> int:
    cfg = _with_seed(_load_config(args.config), args.seed)
    out = Path(args.out or "runs/run")
    with _allocations_of(cfg):
        summary = run_experiment(cfg, out)
    if not args.quiet:
        print(f"run complete: {out}")
        print(
            f"A_Fed={summary.A_Fed:.4f} A_Cen={summary.A_Cen:.4f} "
            f"delta_acc={summary.delta_acc:.4f} "
            f"per_group_gap={summary.per_group_gap:.4f} "
            f"eps_total={summary.eps_total_nominal:.4g}"
        )
    return 0


def _cmd_compare(args) -> int:
    named = [(Path(d).name or str(d), load_summary(d)) for d in args.run_dirs]
    text, csv_text = compare_runs(named)
    if not args.quiet:
        print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "comparison.csv").write_text(csv_text)
    return 0


def _sweep_value(raw: str):
    """A swept value as a config file would hold it: int, float or string."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def _cmd_sweep(args) -> int:
    base = _with_seed(_load_config(args.config), args.seed)
    out_root = Path(args.out or "runs/sweep")
    raws = [raw.strip() for raw in args.values.split(",")]
    values = [_sweep_value(raw) for raw in raws]
    if len(set(values)) < len(values):
        raise ConfigError(f"--values {args.values!r} gives some value of {args.param} twice")
    # every value passes the config file's checks before any run starts
    runs = [(out_root / f"{args.param}={raw}", _with_fed(base, args.param, value))
            for raw, value in zip(raws, values)]
    with _allocations_of(base):
        summaries = run_experiments(runs)
    text, csv_text = compare_runs((out.name, s) for (out, _), s in zip(runs, summaries))
    if not args.quiet:
        print(text, end="")
    (out_root / "comparison.csv").write_text(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairdpfed", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout report")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="tabulate finished runs")
    p_cmp.add_argument("run_dirs", nargs="+", help="run directories with summary.json")
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser("sweep", help="sweep one federation parameter")
    p_swp.add_argument("config", help="base config file path or preset name")
    p_swp.add_argument("--param", required=True, help="federation key to sweep")
    p_swp.add_argument("--values", required=True, help="comma-separated values")
    p_swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation abort: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

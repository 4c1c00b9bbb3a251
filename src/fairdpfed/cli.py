"""Command line entry point.

  fairdpfed [--out DIR] [--seed N] [--quiet] run <config.json | preset-name>
  fairdpfed [--out DIR] [--quiet] compare <run-dir> [<run-dir> ...]
  fairdpfed [--out DIR] [--seed N] [--quiet] sweep <config.json | preset-name>
            --param KEY --values a,b,c

Exit codes: 0 success, 2 config error, 3 simulation abort, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

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
    run_sweep,
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


def _cmd_run(args) -> int:
    cfg = _with_seed(_load_config(args.config), args.seed)
    out = Path(args.out or "runs/run")
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
    # every value passes the config file's checks before any run starts
    configs = [(f"{args.param}={raw}", _with_fed(base, args.param, _sweep_value(raw)))
               for raw in args.values.split(",")]
    named = run_sweep(configs, args.param, out_root)
    text, csv_text = compare_runs(named)
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

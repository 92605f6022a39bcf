"""Command-line entry point.

Subcommands:
  grid         run the main scenario grid
  sensitivity  run one of the preset sensitivity suites
  histogram    emit the infected-population composition histogram
  table1       emit the analytic bias / screening-burden table
  mdri         one-shot effective-MDRI query

A YAML config file can set any grid parameter; CLI flags override it.
Unknown config keys, keys the command does not read and out-of-range
values are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .estimator import analytic_bias, effective_mdri_closed, effective_mdri_numeric
from .harness import (
    _check_count,
    build_grid,
    build_sensitivity,
    default_out_dir,
    emit_histogram,
    emit_table1,
    exact_g,
    run_grid,
    write_histogram,
    write_results,
    write_table1,
)
from .population import DEFAULT_PARAMS
from .recency_model import ASSAYS, DAYS_PER_YEAR, mdri
from .testing_history import ExponentialInterTest, ObservationRule


def _add_common(p, *counts):
    """--out-dir and --config, and the integer flags in `counts` (of seed,
    reps, workers): only those the command reads, so any other is a usage
    error."""
    for flag in counts:
        p.add_argument(f"--{flag}", type=int, default=None)
    p.add_argument("--out-dir", type=Path, default=None)
    p.add_argument("--config", type=Path, default=None, help="YAML config file")


CONFIG_KEYS = {"seed", "replications", "n_target", "out_dir", "workers", "grid"}
#: the config keys each command reads; setting another is a usage error
COMMAND_KEYS = {
    "grid": CONFIG_KEYS,
    "sensitivity": CONFIG_KEYS - {"grid"},
    "table1": {"out_dir", "n_target"},
    "histogram": {"seed", "out_dir"},
}
#: `grid:` keys and the `build_grid` arguments they set; a key the config
#: leaves out keeps build_grid's default
GRID_ARGS = {
    "rules": "rules", "theta": "thetas", "r": "rs", "c": "cs", "frr": "frrs",
    "uniform_b": "uniform_bs", "assay": "assay_name",
}


class ConfigError(ValueError):
    """A config file or argument the program cannot use; a usage error."""


def _check_keys(block, allowed, where):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(block).__name__}")
    unknown = sorted(set(block) - allowed, key=str)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"expected some of: {', '.join(sorted(allowed))}"
        )


def _load_config(path, command):
    """The config file at `path` as a mapping ({} for None) of the keys
    `command` reads (`COMMAND_KEYS`); another key is a ConfigError, after
    the mapping and key checks, unless it is null or empty (unset)."""
    if path is None:
        return {}
    import yaml  # here, not at module top: only --config needs it

    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    # only an empty file or a missing or null grid: block reads as {}
    cfg = {} if cfg is None else cfg
    _check_keys(cfg, CONFIG_KEYS, f"config {path}")
    grid = {} if cfg.get("grid") is None else cfg["grid"]
    _check_keys(grid, set(GRID_ARGS), f"the grid: block of {path}")
    read = COMMAND_KEYS[command]
    for key, value in cfg.items():
        if key not in read and value not in (None, {}, [], ""):
            raise ConfigError(
                f"the {key}: {'block' if key == 'grid' else 'key'} of {path} does "
                f"not apply to {command}, which reads only: {', '.join(sorted(read))}")
    return {key: value for key, value in cfg.items() if key in read}


def _out_dir(path):
    """`path` as a Path if it is a directory or can be made one; a usage
    error, before any work, if it is not a path (a config value that is not
    a string) or it or a parent exists as something else."""
    if not isinstance(path, (str, Path)):
        raise ConfigError(f"out_dir must be a path, got {path!r}")
    path = Path(path)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(
            f"out_dir {path} cannot be a directory: {existing} is not one")
    return path


def _resolved(args, cfg):
    """Merge config-file values and CLI overrides (CLI wins)."""

    def pick(flag, key, default, low=1):
        value = getattr(args, flag, None)
        if value is not None:
            return _check_count(value, f"--{flag}", low, ConfigError)
        return _check_count(cfg.get(key, default), key, low, ConfigError)

    return {
        "seed": pick("seed", "seed", 12345, low=0),
        "reps": pick("reps", "replications", 1000),
        "out_dir": _out_dir(
            args.out_dir
            if args.out_dir is not None
            else cfg.get("out_dir", default_out_dir())
        ),
        "workers": pick("workers", "workers", 1),
        "n_target": _check_count(cfg.get("n_target", 5000), "n_target", 1, ConfigError),
    }


def _run_and_write(scenarios, opts, cfg, label):
    t0 = time.perf_counter()  # monotonic: a wall-clock step cannot skew it
    result = run_grid(scenarios, workers=opts["workers"])
    ok = write_results(
        result,
        opts["out_dir"],
        config_echo={"command": label, **cfg, **{k: str(v) for k, v in opts.items()}},
        seed=opts["seed"],
        wall_time=time.perf_counter() - t0,
        workers=opts["workers"],
    )
    print(f"{label}: {len(result.scenarios)} scenarios -> {opts['out_dir']}")
    return 0 if ok else 1


def cmd_grid(args) -> int:
    cfg = _load_config(args.config, args.command)
    opts = _resolved(args, cfg)
    grid_cfg = cfg.get("grid") or {}
    try:
        kwargs = {
            arg: grid_cfg[key] for key, arg in GRID_ARGS.items() if key in grid_cfg
        }
        if "rules" in kwargs:
            kwargs["rules"] = [ObservationRule(r) for r in kwargs["rules"]]
        scenarios = build_grid(
            seed=opts["seed"],
            replications=opts["reps"],
            n_target=opts["n_target"],
            **kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in the grid: block of {args.config}: {exc}")
    return _run_and_write(scenarios, opts, cfg, "grid")


def cmd_sensitivity(args) -> int:
    cfg = _load_config(args.config, args.command)
    opts = _resolved(args, cfg)
    scenarios = build_sensitivity(
        args.suite, opts["seed"], opts["reps"], opts["n_target"]
    )
    return _run_and_write(scenarios, opts, cfg, f"sensitivity:{args.suite}")


def cmd_histogram(args) -> int:
    cfg = _load_config(args.config, args.command)
    opts = _resolved(args, cfg)
    rule = ObservationRule(args.rule)
    _check_count(args.n_infected, "--n-infected", 1, ConfigError)
    try:
        rows = emit_histogram(rule, ExponentialInterTest(args.theta), args.c,
                              n_infected=args.n_infected, seed=opts["seed"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    out_dir = opts["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / (
        f"histogram_{rule.value}_theta{exact_g(args.theta)}_c{exact_g(args.c)}.csv")
    write_histogram(rows, out)
    print(f"histogram -> {out}")
    return 0


def cmd_table1(args) -> int:
    cfg = _load_config(args.config, args.command)
    opts = _resolved(args, cfg)
    out_dir = opts["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = emit_table1(n_target=opts["n_target"])
    out = out_dir / "table1.csv"
    write_table1(rows, out)
    for row in rows:
        mark = "ok" if not row["unbiased"] else "unbiased"
        print(
            f"c={row['c']:<5g} theta={row['theta']:g} r={row['r']:g} "
            f"bias={row['bias_x1e3']:+.2f}e-3 screened={row['required_screened']:>7d} "
            f"[{mark}]"
        )
    print(f"table1 -> {out}")
    return 0


def cmd_mdri(args) -> int:
    assay = ASSAYS[args.assay]
    rule = ObservationRule(args.rule)
    omega = mdri(assay)
    try:
        omega_eff = effective_mdri_closed(assay, args.theta, args.r, args.c, rule)
    except ValueError as exc:
        raise ConfigError(str(exc))
    bias = analytic_bias(assay, args.theta, args.r, args.c, rule, DEFAULT_PARAMS)
    print(f"mdri            = {omega:.6f} years ({omega * DAYS_PER_YEAR:.1f} days)")
    print(f"effective mdri  = {_fixed(omega_eff, '.6f')} years")
    print(f"analytic bias   = {_fixed(bias * 1e3, '+.3f')} x 1e-3 per person-year")
    if args.check_numeric:
        numeric = effective_mdri_numeric(assay, args.theta, args.r, args.c, rule)
        print(f"numeric mdri    = {_fixed(numeric, '.6f')} years")
    return 0


def _fixed(x: float, spec: str) -> str:
    """`x` in the fixed-point format `spec` below 1e6 in magnitude; beyond,
    in e notation with 16 significant digits (and spec's sign), so that a
    cell that admits almost no one still prints a short line."""
    if abs(x) < 1e6:
        return format(x, spec)
    return format(x, ("+" if spec.startswith("+") else "") + ".15e")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="recencysim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("grid", help="run the main scenario grid")
    _add_common(p, "seed", "reps", "workers")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sensitivity", help="run a sensitivity suite")
    p.add_argument("suite", choices=["frr", "uniform_intertest", "long_mdri"])
    _add_common(p, "seed", "reps", "workers")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("histogram", help="emit infected-population histogram data")
    p.add_argument("--rule", choices=["regular", "swp"], default="swp")
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--n-infected", type=int, default=50_000)
    _add_common(p, "seed")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("table1", help="emit the analytic bias/screening table")
    _add_common(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("mdri", help="one-shot effective-MDRI query")
    p.add_argument("--rule", choices=["regular", "swp"], default="swp")
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--assay", choices=list(ASSAYS), default="default")
    p.add_argument("--check-numeric", action="store_true")
    p.set_defaults(func=cmd_mdri)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands:
  grid         run the main scenario grid, or the config's `grid:` block
  sensitivity  run `grid` on one sensitivity suite's `grid:` block
               (`harness.SUITES`)
  histogram    emit the infected-population composition histogram
  table1       emit the analytic bias / screening-burden table
  mdri         one-shot effective-MDRI query

A YAML config file can set any grid parameter, its `grid:` block holding
`build_grid`'s axes by their names (`harness.GRID_KEYS`); CLI flags
override it.
Unknown config keys, keys the command does not read and out-of-range
values are usage errors (exit 2).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .estimator import analytic_bias, effective_mdri_closed
from .harness import (
    GRID_KEYS,
    SUITES,
    _check_count,
    build_grid,
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


class ConfigError(ValueError):
    """A config file or argument the program cannot use; a usage error."""


def _set_keys(block, allowed, where):
    """The keys of `block` set to a value: a key set to null is unset.  A
    ConfigError if `block` is not a mapping or has a key not in `allowed`."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(block).__name__}")
    unknown = sorted(set(block) - allowed, key=str)
    if unknown:
        raise ConfigError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {where}; "
            f"expected some of: {', '.join(sorted(allowed))}"
        )
    return {key: value for key, value in block.items() if value is not None}


def _load_config(path, command):
    """The config file at `path` as a mapping ({} for None) of the keys
    `command` reads (`COMMAND_KEYS`); another key is a ConfigError, after
    the mapping and key checks, unless it is empty.  A key set to null, at
    the top level or in the `grid:` block, is unset: it is dropped here."""
    if path is None:
        return {}
    import yaml  # here, not at module top: only --config needs it

    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    # only an empty file reads as {}
    cfg = _set_keys({} if cfg is None else cfg, CONFIG_KEYS, f"config {path}")
    if "grid" in cfg:
        cfg["grid"] = _set_keys(cfg["grid"], set(GRID_KEYS),
                                f"the grid: block of {path}")
    read = COMMAND_KEYS[command]
    for key, value in cfg.items():
        if key not in read and value not in ({}, [], ""):
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


def cmd_grid(args) -> int:
    """`grid` on the config's `grid:` block, or `sensitivity <suite>`: `grid`
    on the suite's block (`SUITES`); a block key left out keeps
    `build_grid`'s default."""
    cfg = _load_config(args.config, args.command)
    opts = _resolved(args, cfg)
    suite = getattr(args, "suite", None)
    label, axes = (("grid", cfg.get("grid", {})) if suite is None
                   else (f"sensitivity:{suite}", SUITES[suite]))
    try:
        scenarios = build_grid(opts["seed"], opts["reps"], opts["n_target"], **axes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in the grid: block of {args.config}: {exc}")
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
    try:
        rows = emit_table1(n_target=opts["n_target"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    out_dir = opts["out_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
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
    p.add_argument("suite", choices=list(SUITES))
    _add_common(p, "seed", "reps", "workers")
    p.set_defaults(func=cmd_grid)

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
    p.set_defaults(func=cmd_mdri)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

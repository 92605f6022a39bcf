"""Command-line entry point.

Subcommands:
  grid         run the main scenario grid, or the config's `grid:` block
  sensitivity  run `grid` on one sensitivity suite's `grid:` block
               (`harness.SUITES`)
  histogram    emit the infected-population composition histogram
  table1       emit the analytic bias / screening-burden table
  mdri         one-shot effective-MDRI query

A YAML config file sets a command's settings by their config keys: the
integer ones (`SETTINGS`), `out_dir`, and for `grid` a `grid:` block
holding `build_grid`'s axes by their names (`harness.GRID_KEYS`).
`SETTINGS` is the one place that gives an integer setting's flag, default
and lowest value, and `COMMAND_KEYS` the keys each command reads, so a
command has the flags of its own settings only; a flag overrides the
config.  Unknown config keys, keys the command does not read and
out-of-range values are usage errors (exit 2).  A grid's manifest is the
one record of its settings: it echoes each once, under its config key,
with the value that ran (an integer as an integer).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .estimator import analytic_bias, effective_mdri_closed
from .harness import (
    GRID_KEYS,
    N_TARGET,
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


#: each integer setting, by config key: its flag (None: config only),
#: default and lowest value
SETTINGS = {
    "seed": ("--seed", 12345, 0),
    "replications": ("--reps", 1000, 1),
    "workers": ("--workers", 1, 1),
    "n_target": (None, N_TARGET, 1),
}
#: the config keys each command reads; setting another is a usage error
COMMAND_KEYS = {
    "grid": {*SETTINGS, "out_dir", "grid"},
    "sensitivity": {*SETTINGS, "out_dir"},
    "table1": {"n_target", "out_dir"},
    "histogram": {"seed", "out_dir"},
}
CONFIG_KEYS = set().union(*COMMAND_KEYS.values())


def _add_common(p, command):
    """The flags of the settings `command` reads (`COMMAND_KEYS`), each
    stored under its config key, then --out-dir and --config: a flag the
    command does not read is a usage error."""
    for key, (flag, _, _) in SETTINGS.items():
        if flag and key in COMMAND_KEYS[command]:
            p.add_argument(flag, dest=key, metavar=flag[2:].upper(), type=int)
    p.add_argument("--out-dir")
    p.add_argument("--config", type=Path, help="YAML config file")


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
    # ValueError: also an integer past Python's digit limit for int()
    except (OSError, ValueError, yaml.YAMLError) as exc:
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
    a string, or an empty flag, config value or `RECENCYSIM_OUT_DIR`, which
    would be the working directory) or it or a parent exists as something
    else."""
    if not isinstance(path, str) or not path:
        raise ConfigError(f"out_dir must be a path, got {path!r}")
    path = Path(path)
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(
            f"out_dir {path} cannot be a directory: {existing} is not one")
    return path


def _resolved(args, cfg):
    """The settings `args.command` reads (`COMMAND_KEYS`), by config key:
    each integer one its flag's value, else the config's, else its default
    (`SETTINGS`), checked against its lowest value under the name it was
    given by; and out_dir the flag's, the config's or `default_out_dir()`."""
    opts = {}
    for key, (flag, default, low) in SETTINGS.items():
        if key not in COMMAND_KEYS[args.command]:
            continue
        value = getattr(args, key, None)  # None: no flag given, or none exists
        if value is None:
            value, flag = cfg.get(key, default), key
        opts[key] = _check_count(value, flag, low, ConfigError)
    out_dir = args.out_dir if args.out_dir is not None else cfg.get(
        "out_dir", default_out_dir())
    return {**opts, "out_dir": _out_dir(out_dir)}


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
        scenarios = build_grid(opts["seed"], opts["replications"], opts["n_target"],
                               **axes)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in the grid: block of {args.config}: {exc}")
    t0 = time.perf_counter()  # monotonic: a wall-clock step cannot skew it
    result = run_grid(scenarios, workers=opts["workers"])
    echo = {"command": label, **cfg, **opts, "out_dir": str(opts["out_dir"])}
    ok = write_results(result, opts["out_dir"], echo, time.perf_counter() - t0)
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
    out = opts["out_dir"] / (
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
    out = opts["out_dir"] / "table1.csv"
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
    _add_common(p, "grid")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("sensitivity", help="run a sensitivity suite")
    p.add_argument("suite", choices=list(SUITES))
    _add_common(p, "sensitivity")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("histogram", help="emit infected-population histogram data")
    p.add_argument("--rule", choices=["regular", "swp"], default="swp")
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--n-infected", type=int, default=50_000)
    _add_common(p, "histogram")
    p.set_defaults(func=cmd_histogram)

    p = sub.add_parser("table1", help="emit the analytic bias/screening table")
    _add_common(p, "table1")
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

"""Command-line front end.

Subcommands: scan-n, scan-t, solve-r, gatecount, bounds, oracle, gen, evolve.
Parameters come from an optional ``key = value`` config file plus flag
overrides; every CSV embeds the resolved config as a comment block.  Scans
evaluate their grid points on a thread pool of SYKLAB_WORKERS workers (an
environment variable; a positive integer, default 1; anything else is
rejected).
Invalid input (a flag value, config key or file, instance or environment
setting that syklab rejects) ends the run with a one-line ``syklab: error:``
message on stderr and exit code 2.  Otherwise the exit code is 0 only if
every row succeeded and every requested check passed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import get_type_hints

from .experiments import (
    ExperimentConfig,
    cmd_bounds,
    cmd_evolve,
    cmd_gatecount,
    cmd_gen,
    cmd_oracle,
    cmd_scan_n,
    cmd_scan_t,
    cmd_solve_r,
)

_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _keys_annotated(kind: type) -> frozenset[str]:
    """Config keys whose ExperimentConfig field is annotated ``kind``
    (``command`` is set by the subcommand, never by a config key)."""
    return frozenset(
        name for name, annotation in get_type_hints(ExperimentConfig).items()
        if annotation is kind and name != "command"
    )


_BOOL_KEYS = _keys_annotated(bool)
_INT_KEYS = _keys_annotated(int)
_FLOAT_KEYS = _keys_annotated(float)
_STR_KEYS = _keys_annotated(str)


# what a number-valued config key needs, for its error message
_NEEDS = {"n_list": "comma-separated integers",
          **dict.fromkeys(_INT_KEYS, "an integer"),
          **dict.fromkeys(_FLOAT_KEYS, "a number")}


def _flag(key: str) -> str:
    """The command-line flag that sets config key ``key``, e.g. ``--n``."""
    parser = argparse.ArgumentParser(add_help=False)
    _add_common_flags(parser)
    return next(action.option_strings[0] for action in parser._actions
                if action.dest == key)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key in _BOOL_KEYS:
        word = raw.lower()
        if word not in _TRUE_WORDS + _FALSE_WORDS:
            raise ValueError(
                f"config key {key!r} needs one of "
                f"{'/'.join(_TRUE_WORDS + _FALSE_WORDS)}, got {raw!r}"
            )
        return word in _TRUE_WORDS
    if key in _STR_KEYS:
        return raw
    if key not in _NEEDS:
        raise KeyError(f"unknown config key {key!r}")
    try:
        if key == "n_list":
            return tuple(int(x) for x in raw.split(",") if x.strip())
        return int(raw) if key in _INT_KEYS else float(raw)
    except ValueError:
        raise ValueError(f"{key} ({_flag(key)}) needs {_NEEDS[key]}, got {raw!r}") from None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip()
            values[key] = _parse_value(key, raw)
    return values


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--model", choices=["dense", "sparse"])
    parser.add_argument("--n", dest="n_list",
                        help="comma-separated even n values, e.g. 6,8,10")
    parser.add_argument("--k", type=int)
    parser.add_argument("--l", type=int, help="product-formula order (1 or even)")
    parser.add_argument("--p", type=float,
                        help="Schatten order, 2 <= p < inf (evolve also takes inf, "
                             "the operator norm of one instance)")
    parser.add_argument("--t", type=float)
    parser.add_argument("--t-min", dest="t_min", type=float)
    parser.add_argument("--t-max", dest="t_max", type=float)
    parser.add_argument("--t-points", dest="t_points", type=int)
    parser.add_argument("--r", type=int, help="Trotter number")
    parser.add_argument("--kappa", type=float)
    parser.add_argument("--energy-constant", dest="energy_constant", type=float)
    parser.add_argument("--n-disorder", dest="N_disorder", type=int)
    parser.add_argument("--n-bernoulli", dest="N_bernoulli", type=int)
    parser.add_argument("--seed", dest="master_seed", type=int)
    parser.add_argument("--prefactor-mode", dest="prefactor_mode",
                        choices=["full", "unit"])
    parser.add_argument("--overhead", choices=["none", "log_n", "linear_n"])
    parser.add_argument("--epsilon", type=float)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--mode", choices=["operator_norm", "fixed_state"])
    parser.add_argument("--bound-only", dest="bound_only", action="store_true",
                        default=None)
    parser.add_argument("--timing", action="store_true", default=None)
    parser.add_argument("--output", "-o", help="output path (CSV/JSON/report)")
    parser.add_argument("--instance", dest="instance_path",
                        help="replay a serialized instance (evolve)")


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    valid = {f.name for f in fields(ExperimentConfig)}
    for key in valid:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _parse_value(key, str(flag)) if key == "n_list" else flag
    values["command"] = args.subcommand
    unknown = set(values) - valid
    if unknown:
        raise KeyError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**values)


def _emit(text: str, output: str) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="syklab",
        description="SYK / sparse-SYK Trotterization laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, helptext in [
        ("scan-n", "observed error vs bound over a list of n"),
        ("scan-t", "observed error vs bound over a log-spaced t grid"),
        ("solve-r", "minimal Trotter number from the concentration bound"),
        ("gatecount", "gate-complexity calculator"),
        ("bounds", "evaluate an analytical error bound"),
        ("oracle", "run the combinatorics verification suites"),
        ("gen", "sample an instance and serialize it to JSON"),
        ("evolve", "one-off Trotter-error evaluation"),
    ]:
        _add_common_flags(sub.add_parser(name, help=helptext))

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ValueError, KeyError, OSError) as exc:
        # a KeyError's str() is the repr of its message
        parser.error(exc.args[0] if isinstance(exc, KeyError) else str(exc))


def _run(args: argparse.Namespace) -> int:
    """Build the config and run the subcommand; returns the exit code."""
    config = build_config(args)
    status = 0
    if args.subcommand == "scan-n":
        rows, csv_text = cmd_scan_n(config)
        _emit(csv_text, config.output)
        status = 1 if any(row.error for row in rows) else 0
    elif args.subcommand == "scan-t":
        rows, csv_text = cmd_scan_t(config)
        _emit(csv_text, config.output)
        status = 1 if any(row.error for row in rows) else 0
    elif args.subcommand == "solve-r":
        _emit(cmd_solve_r(config), config.output)
    elif args.subcommand == "gatecount":
        _emit(cmd_gatecount(config), config.output)
    elif args.subcommand == "bounds":
        _emit(cmd_bounds(config), config.output)
    elif args.subcommand == "oracle":
        report, all_ok = cmd_oracle(config)
        _emit(report, config.output)
        status = 0 if all_ok else 1
    elif args.subcommand == "gen":
        _emit(cmd_gen(config), config.output)
    elif args.subcommand == "evolve":
        _emit(cmd_evolve(config), config.output)
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

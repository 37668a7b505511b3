"""Command-line front end.

The subcommands are the ``_SUBCOMMANDS`` table.  Parameters come from an
optional ``key = value`` config file plus flag overrides; every CSV embeds
the resolved config as a comment block.  Each config key is the dest of one
flag in ``_add_common_flags``, whose type and choices check the key's
config-file value too, so a file rejects exactly what the flag rejects.
Scans evaluate their grid points on a thread pool of SYKLAB_WORKERS workers
(an environment variable; a positive integer, default 1; anything else is
rejected).  Invalid input (a flag value, config key or file, instance or
environment setting that syklab rejects) ends the run with a one-line
``syklab: error:`` message on stderr and exit code 2.  Otherwise the exit
code is 0 only if every row succeeded and every requested check passed.
"""

from __future__ import annotations

import argparse
import math
import sys

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


def _comma_ints(raw: str) -> tuple[int, ...]:
    """The value of ``--n``: comma-separated integers, e.g. ``6,8,10``."""
    return tuple(int(x) for x in raw.split(","))


def _number(raw: str) -> float:
    """The value of ``--p``: any float but nan (inf is the operator norm)."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(f"needs a number, got {raw!r}")
    return value


def _finite(raw: str) -> float:
    """The value of every other float flag: a number but +-inf."""
    if math.isinf(value := _number(raw)):
        raise argparse.ArgumentTypeError(f"needs a finite number, got {raw!r}")
    return value


def _seed(raw: str) -> int:
    """The value of ``--seed``: a non-negative integer, as numpy's SeedSequence takes."""
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"needs a non-negative integer, got {raw!r}")
    return int(raw)


# what a converter needs, for the message that rejects a value
_NEEDS = {int: "an integer", _comma_ints: "comma-separated integers"}


def _parse_value(key: str, raw: str):
    """``raw`` converted and checked as the value of config key ``key``'s flag
    (argparse leaves ``--n`` a string, so its flag value comes here too)."""
    action = _ACTIONS.get(key)
    if action is None:
        raise KeyError(f"unknown config key {key!r}")
    raw = raw.strip()
    if action.nargs == 0:  # a store_true flag
        word = raw.lower()
        if word not in _TRUE_WORDS + _FALSE_WORDS:
            raise ValueError(
                f"config key {key!r} needs one of "
                f"{'/'.join(_TRUE_WORDS + _FALSE_WORDS)}, got {raw!r}"
            )
        return word in _TRUE_WORDS
    convert = _comma_ints if key == "n_list" else action.type or str
    name = f"{key} ({action.option_strings[0]})"
    try:
        value = convert(raw)
    except ValueError:
        raise ValueError(f"{name} needs {_NEEDS[convert]}, got {raw!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{name} {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{name} needs one of {'/'.join(action.choices)}, got {raw!r}")
    return value


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
    parser.add_argument("--p", type=_number,
                        help="Schatten order, 2 <= p < inf (evolve also takes inf, "
                             "the operator norm of one instance)")
    parser.add_argument("--t", type=_finite)
    parser.add_argument("--t-min", dest="t_min", type=_finite)
    parser.add_argument("--t-max", dest="t_max", type=_finite)
    parser.add_argument("--t-points", dest="t_points", type=int)
    parser.add_argument("--r", type=int, help="Trotter number")
    parser.add_argument("--kappa", type=_finite)
    parser.add_argument("--energy-constant", dest="energy_constant", type=_finite)
    parser.add_argument("--n-disorder", dest="N_disorder", type=int)
    parser.add_argument("--n-bernoulli", dest="N_bernoulli", type=int)
    parser.add_argument("--seed", dest="master_seed", type=_seed)
    parser.add_argument("--prefactor-mode", dest="prefactor_mode",
                        choices=["full", "unit"])
    parser.add_argument("--epsilon", type=_finite)
    parser.add_argument("--delta", type=_finite)
    parser.add_argument("--bound-only", dest="bound_only", action="store_true",
                        default=None)
    parser.add_argument("--timing", action="store_true", default=None)
    parser.add_argument("--output", "-o", help="output path (CSV/JSON/report)")
    parser.add_argument("--instance", dest="instance_path",
                        help="replay a serialized instance (evolve)")


# the parent parser of every subcommand
_COMMON = argparse.ArgumentParser(add_help=False)
_add_common_flags(_COMMON)
# config key -> the flag that sets it (``--config`` names the file, not a key)
_ACTIONS = {action.dest: action for action in _COMMON._actions
            if action.dest != "config"}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    values = _read_config_file(args.config) if args.config else {}
    for key in _ACTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _parse_value(key, flag) if key == "n_list" else flag
    return ExperimentConfig(command=args.subcommand, **values)


def _emit(text: str, output: str) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _scan(result) -> tuple[str, int]:
    rows, csv_text = result
    return csv_text, int(any(row.error for row in rows))


def _checks(result) -> tuple[str, int]:
    report, all_ok = result
    return report, int(not all_ok)


def _text(result) -> tuple[str, int]:
    return result, 0


# name -> (help, command, outcome); outcome(command(config)) gives the output
# text and the exit code
_SUBCOMMANDS = {
    "scan-n": ("observed error vs bound over a list of n", cmd_scan_n, _scan),
    "scan-t": ("observed error vs bound over a log-spaced t grid", cmd_scan_t, _scan),
    "solve-r": ("minimal Trotter number from the concentration bound",
                cmd_solve_r, _text),
    "gatecount": ("gate-complexity calculator", cmd_gatecount, _text),
    "bounds": ("evaluate an analytical error bound", cmd_bounds, _text),
    "oracle": ("run the combinatorics verification suites", cmd_oracle, _checks),
    "gen": ("sample an instance and serialize it to JSON", cmd_gen, _text),
    "evolve": ("one-off Trotter-error evaluation", cmd_evolve, _text),
}


def _parser() -> argparse.ArgumentParser:
    """One subparser per ``_SUBCOMMANDS`` entry, each with the common flags."""
    parser = argparse.ArgumentParser(
        prog="syklab", description="SYK / sparse-SYK Trotterization laboratory")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (helptext, _, _) in _SUBCOMMANDS.items():
        # no abbreviations: a flag is spelled in full, as its config key is
        sub.add_parser(name, help=helptext, parents=[_COMMON], allow_abbrev=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    _, command, outcome = _SUBCOMMANDS[args.subcommand]
    try:
        config = build_config(args)
        text, status = outcome(command(config))
        _emit(text, config.output)
    except (ValueError, KeyError, OSError) as exc:
        # a KeyError's str() is the repr of its message
        parser.error(exc.args[0] if isinstance(exc, KeyError) else str(exc))
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

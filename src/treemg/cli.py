"""Command-line benchmark harness.

Configuration is a flat key=value file plus command-line overrides; every
experiment field has a flag of the same name, so figure grids over
setup x variant x flavor x k x lmax are plain shell loops.  One experiment
per invocation; the cycle reports stream to a CSV file or stdout.

Exit codes: 0 converged, 1 configuration error, 2 cycle budget exhausted,
3 diverged.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import fields

from .bench import EXIT_CONFIG_ERROR, ConfigError, ExperimentConfig, run, write_csv

__all__ = ["main", "parse_args", "config_from_sources"]

_BOOL = {"on": True, "true": True, "1": True, "yes": True,
         "off": False, "false": False, "0": False, "no": False}

# the ExperimentConfig fields in declaration order, each with the parser of
# its annotation (a string, as bench postpones annotations)
_PARSERS = {"str": str, "int": int, "float": float, "bool": "bool"}
_FIELDS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    kind = _FIELDS[key]
    if kind == "bool":
        v = _BOOL.get(raw.strip().lower())
        if v is None:
            raise ConfigError(f"{key} expects on/off, got {raw!r}")
        return v
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} expects {kind.__name__}, got {raw!r}") from exc


def read_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a configuration error."""

    def error(self, message):
        raise ConfigError(message)


def parse_args(argv=None) -> argparse.Namespace:
    """Raw flag values; config_from_sources parses and validates them."""
    ap = _Parser(
        prog="treemg-bench",
        description="Additive spacetree multigrid benchmark runner.",
    )
    ap.add_argument("--config", help="key=value configuration file")
    for key in _FIELDS:
        ap.add_argument("--" + key.replace("_", "-"), dest=key,
                        help="CSV output path (default stdout)" if key == "out" else None)
    return ap.parse_args(argv)


def config_from_sources(args: argparse.Namespace) -> ExperimentConfig:
    try:
        values = read_config_file(args.config) if args.config else {}
    except OSError as exc:
        raise ConfigError(f"cannot read config file {args.config!r}: {exc.strerror}") from exc
    for key in _FIELDS:
        got = getattr(args, key)
        if got is not None:
            values[key] = _parse_value(key, got)
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    try:
        cfg = config_from_sources(parse_args(argv))
        # opened before the solve, so that a bad path costs no run
        out = open(cfg.out, "w") if cfg.out else nullcontext(sys.stdout)
    except (ConfigError, TypeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    result = run(cfg)
    with out as fh:
        write_csv(result, fh)
    return result.status


if __name__ == "__main__":
    sys.exit(main())

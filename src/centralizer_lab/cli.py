"""Command-line driver.

Subcommands:
  check   run every named verification suite for one rank (exit 0 pass / 1 fail)
  flow    evaluate one Toda flow at a list of (possibly complex) times, CSV out
  embed   embed a phase-space point into the centralizer, JSON out
  cjl     chart pullback deviations over random chart points

SETTINGS is the one table of settings.  Each command offers --config <json>
and the flags of the settings it reads; a config file may hold any setting
under its key.  Every tolerance is pinned in the library: no flag or config
key sets one.  Exit code 2 signals a usage or input error, an unknown flag
or config key included.
Every command runs on one thread: checks and samples are evaluated one
after another, each check on its own named random stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from dataclasses import make_dataclass

import numpy as np

from .centralizer import cjl_pullback_deviation, cjl_pullback_tolerance
from .errors import CentralizerLabError, NotInGStar, NotInV
from .formats import (
    dump_json,
    fmt_complex,
    json_float,
    parse_time_list,
    to_json,
    toda_point_from_json,
)
from .invariants import invariant_vector
from .lie_core import build_chevalley
from .linalg import relative_distance
from .sampling import random_cjl_point, stream
from .stacks import stack
from .suites import run_all
from .toda import embed, embed_inverse, in_flow_domain, toda_flow, toda_matrix


class ConfigError(Exception):
    """Malformed configuration or input; maps to exit code 2."""


def _as_given(value):
    return value


def _read_format(value):
    if value not in (None, "json", "csv"):
        raise ValueError(f"{value!r} is neither json nor csv")
    return value


def _read_point(value):
    """A phase-space point's JSON object, from JSON text or @file."""
    if not isinstance(value, str):
        return value
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(value)


# read takes the flag's text, a config file's value or the default
Setting = namedtuple("Setting", "flag help read default commands")


_ALL = ("check", "flow", "embed", "cjl")
SETTINGS = {
    "n": Setting("--n", "matrix size, 2..8", int, 2, _ALL),
    "seed": Setting("--seed", "64-bit unsigned stream seed", int, 42, ("check", "cjl")),
    "samples": Setting("--samples", "samples per check", int, 25, ("check", "cjl")),
    "out": Setting("--out", "write the structured output to this path", _as_given, None, _ALL),
    "format": Setting("--format", "json or csv", _read_format, None, ("check", "flow")),
    "i": Setting("--i", "flow label, 1..n-1", int, 1, ("flow",)),
    "t_list": Setting("--t", 'comma-separated times, e.g. "0,0.5,0.3+0.2j"', parse_time_list,
                      [0.0, 0.5, 1.0], ("flow",)),
    "point": Setting("--point", "phase-space point as JSON, or @file", _read_point, None,
                     ("flow", "embed")),
}


RunConfig = make_dataclass("RunConfig", ["command", *SETTINGS], frozen=True)


def _validate(cfg: RunConfig):
    if not 2 <= cfg.n <= 8:
        raise ConfigError(f"n = {cfg.n} outside supported range 2..8")
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("seed must fit in 64 unsigned bits")
    if cfg.command == "flow" and not 1 <= cfg.i <= cfg.n - 1:
        raise ConfigError(f"flow label {cfg.i} outside 1..{cfg.n - 1}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centralizer-lab",
        description="Kostant-Toda flows by factorization, the universal "
                    "centralizer integrable system, and the embedding "
                    "between them, with executable verification suites.")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for key, setting in SETTINGS.items():
            if command in setting.commands:
                sub.add_argument(setting.flag, dest=key, help=setting.help,
                                 type=int if setting.read is int else None)
        sub.add_argument("--config", help="JSON file holding settings under their keys")
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return data


def load_config(args: argparse.Namespace) -> RunConfig:
    """Each setting's flag, else its config file value, else its default,
    passed through its reader."""
    file_data = _read_config_file(args.config) if args.config else {}
    values = {}
    for key, setting in SETTINGS.items():
        flag_text = getattr(args, key, None)
        if flag_text is not None:
            source, value = setting.flag, flag_text
        else:
            source, value = f"config {key}", file_data.get(key, setting.default)
        try:
            values[key] = setting.read(value)
        except (OSError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {source} value: {exc}") from exc
    cfg = RunConfig(command=args.command, **values)
    _validate(cfg)
    return cfg


def _emit(cfg: RunConfig, text: str):
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _require_point(cfg: RunConfig, chev):
    """The run's phase-space point, which must lie in the flow domain."""
    if cfg.point is None:
        raise ConfigError("this command needs --point (or point in --config)")
    try:
        p = toda_point_from_json(cfg.point)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad phase-space point: {exc}") from exc
    if len(p.diag) != cfg.n:
        raise ConfigError(f"point has size {len(p.diag)}, config says n={cfg.n}")
    if not in_flow_domain(chev, p):
        raise ConfigError("point is outside the flow domain")
    return p


def cmd_check(cfg: RunConfig) -> int:
    report = run_all(cfg.n, cfg.seed, cfg.samples)
    for line in report.lines():
        print(line)
    if cfg.out:
        _emit(cfg, report.to_csv() if cfg.format == "csv" else dump_json(report.to_json_obj()))
    return 0 if report.passed else 1


def cmd_flow(cfg: RunConfig) -> int:
    chev = build_chevalley(cfg.n)
    p0 = _require_point(cfg, chev)

    header = (["t"]
              + [f"diag_{k + 1}" for k in range(cfg.n)]
              + [f"root_coord_{k + 1}" for k in range(cfg.n - 1)]
              + [f"invariant_{k + 1}" for k in range(cfg.n - 1)]
              + ["status"])
    points, errors = toda_flow(chev, cfg.i, cfg.t_list, stack([p0] * len(cfg.t_list)))
    values = invariant_vector(chev, toda_matrix(chev, points))
    rows = []
    for t, diag, root_coords, invariants, exc in zip(
            cfg.t_list, points.diag, points.root_coords, values, errors):
        if exc is None:
            rows.append([fmt_complex(z) for z in (t, *diag, *root_coords, *invariants)]
                        + ["ok"])
        else:
            status = (f"NotInGStar({exc.minor_index})" if isinstance(exc, NotInGStar)
                      else type(exc).__name__)
            rows.append([fmt_complex(t)] + [""] * (3 * cfg.n - 2) + [status])

    if (cfg.format or "csv") == "json":
        _emit(cfg, dump_json({"columns": header, "rows": rows}))
    else:
        lines = [",".join(header)] + [",".join(row) for row in rows]
        _emit(cfg, "\n".join(lines) + "\n")
    return 0 if all(exc is None for exc in errors) else 1


def cmd_embed(cfg: RunConfig) -> int:
    chev = build_chevalley(cfg.n)
    p0 = _require_point(cfg, chev)
    zp = embed(chev, p0)
    back = embed_inverse(chev, zp)
    m0 = toda_matrix(chev, p0)
    error = float(relative_distance(toda_matrix(chev, back), m0))
    payload = {
        "n": cfg.n,
        "point": {"diag": to_json(p0.diag), "root_coords": to_json(p0.root_coords)},
        "g": {"matrix": to_json(zp.g), "mod_scalar": True},
        "x": to_json(zp.x),
        "invariants": to_json(invariant_vector(chev, zp.x)),
        "roundtrip_error": error,
    }
    _emit(cfg, dump_json(payload))
    return 0 if error <= 1e-8 else 1


def cmd_cjl(cfg: RunConfig) -> int:
    chev = build_chevalley(cfg.n)
    rng = stream(cfg.seed, "cli_cjl")
    result = cjl_pullback_deviation(chev, random_cjl_point(chev, rng, cfg.samples))

    # np.max keeps a NaN deviation, which then fails the run
    blocks = {name: np.max(getattr(result, name))
              for name in ("flow_flow", "flow_section", "section_section")}
    max_dev = np.max(list(blocks.values()))
    tolerance = cjl_pullback_tolerance(cfg.n)
    passed = bool(max_dev <= tolerance)
    payload = {
        "config": {"n": cfg.n, "seed": cfg.seed, "samples": cfg.samples},
        "blocks": {name: json_float(value) for name, value in blocks.items()},
        "max_deviation": json_float(max_dev),
        "tolerance": tolerance,
        "passed": passed,
    }
    status = "PASS" if passed else "FAIL"
    print(f"{status}  cjl_pullback  max_dev={max_dev:.3e} tol={tolerance:.1e} "
          f"blocks=({blocks['flow_flow']:.2e}, {blocks['flow_section']:.2e}, "
          f"{blocks['section_section']:.2e}) samples={cfg.samples}")
    if cfg.out:
        _emit(cfg, dump_json(payload))
    return 0 if passed else 1


COMMANDS = {
    "check": (cmd_check, "run all verification suites"),
    "flow": (cmd_flow, "evaluate a Toda flow trajectory"),
    "embed": (cmd_embed, "embed a point into the centralizer"),
    "cjl": (cmd_cjl, "chart pullback deviations"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args)
        return COMMANDS[cfg.command][0](cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotInV as exc:
        print(f"error: input outside the flow domain: {exc}", file=sys.stderr)
        return 2
    except CentralizerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

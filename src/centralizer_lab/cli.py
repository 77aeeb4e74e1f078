"""Command-line driver.

Subcommands:
  check   run every named verification suite for one rank (exit 0 pass / 1 fail)
  flow    evaluate one Toda flow at a list of (possibly complex) times, CSV out
  embed   embed a phase-space point into the centralizer, JSON out
  cjl     chart pullback deviations over random chart points

Common flags: --n --seed --samples --config <json> --out <path>
--format json|csv.  A config file holds the same fields as the flags, under
the keys in CONFIG_KEYS.  Every tolerance is pinned in the library: no flag
or config key sets one.  Exit code 2 signals a usage or input error, an
unknown flag or config key included.
Every command runs on one thread: checks and samples are evaluated one
after another, each check on its own named random stream.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .centralizer import cjl_pullback_deviation, cjl_pullback_tolerance
from .errors import CentralizerLabError, NotInGStar, NotInV
from .formats import (
    dump_json,
    fmt_complex,
    group_to_json,
    matrix_to_json,
    parse_time_list,
    toda_point_from_json,
    toda_point_to_json,
    vector_to_json,
)
from .invariants import invariant_vector
from .lie_core import build_chevalley
from .sampling import random_cjl_point, stream
from .suites import run_all
from .toda import embed, embed_inverse, in_flow_domain, toda_flow, toda_matrix

CONFIG_KEYS = frozenset({"n", "seed", "samples", "out", "format", "i", "t_list", "point"})


class ConfigError(Exception):
    """Malformed configuration or input; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    n: int = 2
    seed: int = 42
    samples: int = 25
    out: str | None = None
    format: str | None = None
    flow_label: int = 1
    t_list: list = field(default_factory=lambda: [0.0, 0.5, 1.0])
    point: object = None

    def validate(self):
        if not 2 <= self.n <= 8:
            raise ConfigError(f"n = {self.n} outside supported range 2..8")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.command in ("flow",) and not 1 <= self.flow_label <= self.n - 1:
            raise ConfigError(f"flow label {self.flow_label} outside 1..{self.n - 1}")


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--n", type=int, help="matrix size, 2..8")
    sub.add_argument("--seed", type=int, help="64-bit unsigned stream seed")
    sub.add_argument("--samples", type=int, help="samples per check")
    sub.add_argument("--config", help="JSON file with the same fields as the flags")
    sub.add_argument("--out", help="write the structured output to this path")
    sub.add_argument("--format", choices=("json", "csv"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centralizer-lab",
        description="Kostant-Toda flows by factorization, the universal "
                    "centralizer integrable system, and the embedding "
                    "between them, with executable verification suites.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run all verification suites")
    _add_common(p_check)

    p_flow = subs.add_parser("flow", help="evaluate a Toda flow trajectory")
    _add_common(p_flow)
    p_flow.add_argument("--i", dest="flow_label", type=int,
                        help="flow label, 1..n-1")
    p_flow.add_argument("--t", dest="t_text",
                        help='comma-separated times, e.g. "0,0.5,0.3+0.2j"')
    p_flow.add_argument("--point", dest="point_text",
                        help="phase-space point as JSON, or @file")

    p_embed = subs.add_parser("embed", help="embed a point into the centralizer")
    _add_common(p_embed)
    p_embed.add_argument("--point", dest="point_text",
                         help="phase-space point as JSON, or @file")

    p_cjl = subs.add_parser("cjl", help="chart pullback deviations")
    _add_common(p_cjl)
    return parser


def _read_point_text(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def load_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    file_data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_data) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    for key in ("n", "seed", "samples", "out", "format"):
        if key in file_data:
            setattr(cfg, key, file_data[key])
    if "i" in file_data:
        cfg.flow_label = file_data["i"]
    if "t_list" in file_data:
        try:
            cfg.t_list = [complex(t) for t in file_data["t_list"]]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad t_list in config: {exc}") from exc
    if "point" in file_data:
        cfg.point = file_data["point"]

    for key in ("n", "seed", "samples", "out", "format"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if getattr(args, "flow_label", None) is not None:
        cfg.flow_label = args.flow_label
    if getattr(args, "t_text", None):
        try:
            cfg.t_list = parse_time_list(args.t_text)
        except ValueError as exc:
            raise ConfigError(f"bad --t value: {exc}") from exc
    if getattr(args, "point_text", None):
        try:
            cfg.point = _read_point_text(args.point_text)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad --point value: {exc}") from exc

    try:
        cfg.n = int(cfg.n)
        cfg.seed = int(cfg.seed)
        cfg.samples = int(cfg.samples)
        cfg.flow_label = int(cfg.flow_label)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"non-numeric configuration field: {exc}") from exc
    cfg.validate()
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


def _require_point(cfg: RunConfig):
    if cfg.point is None:
        raise ConfigError("this command needs --point (or point in --config)")
    try:
        p = toda_point_from_json(cfg.point)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad phase-space point: {exc}") from exc
    if len(p.diag) != cfg.n:
        raise ConfigError(f"point has size {len(p.diag)}, config says n={cfg.n}")
    return p


def cmd_check(cfg: RunConfig) -> int:
    report = run_all(cfg.n, cfg.seed, cfg.samples)
    for line in report.lines():
        print(line)
    if cfg.out:
        if (cfg.format or "json") == "csv":
            _emit(cfg, report.to_csv())
        else:
            _emit(cfg, dump_json(report.to_json_obj()))
    return 0 if report.passed else 1


def cmd_flow(cfg: RunConfig) -> int:
    chev = build_chevalley(cfg.n)
    p0 = _require_point(cfg)
    if not in_flow_domain(chev, p0):
        raise ConfigError("initial point is outside the flow domain")

    header = (["t"]
              + [f"diag_{k + 1}" for k in range(cfg.n)]
              + [f"root_coord_{k + 1}" for k in range(cfg.n - 1)]
              + [f"invariant_{k + 1}" for k in range(cfg.n - 1)]
              + ["status"])
    rows = []
    blew_up = False
    for t in cfg.t_list:
        try:
            pt = toda_flow(chev, cfg.flow_label, t, p0)
        except CentralizerLabError as exc:
            status = (f"NotInGStar({exc.minor_index})" if isinstance(exc, NotInGStar)
                      else type(exc).__name__)
            rows.append([fmt_complex(t)] + [""] * (3 * cfg.n - 2) + [status])
            blew_up = True
            continue
        values = invariant_vector(chev, toda_matrix(chev, pt))
        rows.append([fmt_complex(t)]
                    + [fmt_complex(z) for z in pt.diag]
                    + [fmt_complex(z) for z in pt.root_coords]
                    + [fmt_complex(z) for z in values]
                    + ["ok"])

    if (cfg.format or "csv") == "json":
        _emit(cfg, dump_json({"columns": header, "rows": rows}))
    else:
        lines = [",".join(header)] + [",".join(row) for row in rows]
        _emit(cfg, "\n".join(lines) + "\n")
    return 1 if blew_up else 0


def cmd_embed(cfg: RunConfig) -> int:
    chev = build_chevalley(cfg.n)
    p0 = _require_point(cfg)
    if not in_flow_domain(chev, p0):
        raise ConfigError("point is outside the flow domain")
    zp = embed(chev, p0)
    back = embed_inverse(chev, zp)
    m0 = toda_matrix(chev, p0)
    error = float(np.linalg.norm(toda_matrix(chev, back) - m0)
                  / (1.0 + np.linalg.norm(m0)))
    payload = {
        "n": cfg.n,
        "point": toda_point_to_json(p0),
        "g": group_to_json(zp.g),
        "x": matrix_to_json(zp.x),
        "invariants": vector_to_json(invariant_vector(chev, zp.x)),
        "roundtrip_error": error,
    }
    _emit(cfg, dump_json(payload))
    return 0 if error <= 1e-8 else 1


def cmd_cjl(cfg: RunConfig) -> int:
    chev = build_chevalley(cfg.n)
    rng = stream(cfg.seed, "cli_cjl")
    points = [random_cjl_point(chev, rng) for _ in range(cfg.samples)]
    results = [cjl_pullback_deviation(chev, c) for c in points]

    blocks = {
        "flow_flow": max(res.flow_flow for res in results),
        "flow_section": max(res.flow_section for res in results),
        "section_section": max(res.section_section for res in results),
    }
    max_dev = max(blocks.values())
    tolerance = cjl_pullback_tolerance(cfg.n)
    passed = max_dev <= tolerance
    payload = {
        "config": {"n": cfg.n, "seed": cfg.seed, "samples": cfg.samples},
        "blocks": blocks,
        "max_deviation": max_dev,
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args)
        handler = {"check": cmd_check, "flow": cmd_flow,
                   "embed": cmd_embed, "cjl": cmd_cjl}[cfg.command]
        return handler(cfg)
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

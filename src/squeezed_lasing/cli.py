"""Command-line front end: ``simulate <scenario> --out DIR [options]``.

Configuration layering, lowest to highest: package defaults, the chosen
--preset, the JSON --config file, then repeated --set key=value
overrides (dotted paths reach nested sections, values parse as JSON
with a bare-string fallback).  All diagnostics go to stderr; the output
directory receives only deterministic artifacts.

Exit codes: 0 success, 2 bad configuration, 3 numerical failure (partial
results and a manifest are still written when possible), 4 output I/O
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .scenarios import (
    PRESETS,
    SCENARIO_NAMES,
    ConfigError,
    ScenarioOutput,
    _merge,
    build_config,
    parse_set_override,
    run_scenario,
    write_outputs,
)

log = logging.getLogger("squeezed_lasing.cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Run a driven qubit-cavity simulation scenario and "
                    "write its tables, Wigner grids, and manifest.")
    parser.add_argument("scenario", choices=SCENARIO_NAMES,
                        help="which study to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with params/sweep/numerics sections")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override one config entry, e.g. "
                             "params.c_tilde=4 or numerics.field_dim=80")
    parser.add_argument("--out", required=True, type=Path,
                        help="output directory (created if missing)")
    parser.add_argument("--threads", type=int, default=1,
                        help="kept for scripts that pass it; sweep points "
                             "run serially, so only 1 is accepted")
    parser.add_argument("--preset", choices=sorted(PRESETS), default="desk",
                        help="base parameter set")
    return parser


def _load_config_file(path: Path) -> dict:
    try:
        raw = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except ValueError as exc:  # not JSON, or an integer past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") \
            from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    if args.threads != 1:
        log.error("--threads %d: sweep points run serially; only "
                  "--threads 1 is accepted", args.threads)
        return 2

    try:
        file_data = (_load_config_file(args.config)
                     if args.config is not None else None)
        overrides: dict = {}
        for item in args.overrides:
            overrides = _merge(overrides, parse_set_override(item))
        config = build_config(args.scenario, preset=args.preset,
                              file_data=file_data, overrides=overrides)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2

    log.info("scenario %s, config hash %s", config.scenario,
             config.config_hash)
    hard_failure = None
    try:
        result = run_scenario(config)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - report, write manifest, exit 3
        hard_failure = f"{type(exc).__name__}: {exc}"
        log.error("scenario failed: %s", hard_failure)
        result = ScenarioOutput(failed_points=[{"error": hard_failure}])
        result.report["error"] = hard_failure

    try:
        manifest = write_outputs(args.out, config, result)
    except OSError as exc:
        log.error("cannot write outputs to %s: %s", args.out, exc)
        return 4

    log.info("wrote %d artifact(s) to %s", len(manifest["products"]) + 1,
             args.out)
    if hard_failure or result.failed_points or "error" in result.report:
        log.error("%d point(s) failed; results are partial",
                  max(1, len(result.failed_points)))
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

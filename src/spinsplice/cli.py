"""Command-line front end.

Exit codes: 0 success, 2 config error (any config field or flag outside its
type or bounds), 3 numerical failure (unresolvable degeneracy or a failed
eigensolver), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .chain import DegeneracyError
from .reproduce import PIPELINES, reproduce
from .runner import MODES, ConfigError, execute, parse_config, read_config

CONFIG_MODES = {mode.replace("_", "-"): mode for mode in MODES}  # sub-command: mode


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsplice",
        description="Simulate and optimize non-adiabatic cutting and stitching of Heisenberg spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool) -> None:
        p.add_argument("--config", type=Path, required=config_required,
                       help="path to a JSON run config")
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--steps", type=int, help="time steps for smooth schedules")
        p.add_argument("--seed", type=int, help="master RNG seed (noise and reproduce fig7 only)")

    for command, mode in CONFIG_MODES.items():
        if mode == "two_spin":  # the one mode that runs without a config
            common(sub.add_parser(command, help="two-spin block cut (defaults from the reference setting)"), False)
        else:
            common(sub.add_parser(command, help=f"run a {command} experiment"), True)

    rep = sub.add_parser("reproduce", help="rebuild a published table or figure dataset")
    rep.add_argument("target", choices=sorted(PIPELINES))
    common(rep, False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # flags are merged into the raw config and checked with it
    flags = {key: value for key, value in (("out_dir", args.out), ("n_steps", args.steps))
             if value is not None}
    try:
        if args.command == "reproduce":
            if args.config is not None:
                raise ConfigError("config: reproduce builds its own run configs and reads no file")
            reproduce(args.target, seed=args.seed, **flags)
            return 0
        mode = CONFIG_MODES[args.command]
        if args.seed is not None and mode != "noise":
            raise ConfigError(f"seed: mode '{mode}' draws no random numbers")
        # only two-spin runs without a config
        raw = read_config(args.config) if args.config is not None else {"mode": mode}
        if isinstance(raw, dict):
            raw = {**raw, **flags}
            if args.seed is not None and isinstance(raw.get("noise"), dict):
                raw["noise"] = {**raw["noise"], "seed": args.seed}
        config = parse_config(raw, mode)
        if config.mode != mode:
            raise ConfigError(
                f"mode: config declares {config.mode!r} but the "
                f"'{args.command}' command was invoked"
            )
        execute(config)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegeneracyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

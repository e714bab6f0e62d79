"""Command-line interface: one subcommand per scenario mode.

Every subcommand takes an optional JSON config (--config) plus a fixed set
of override flags that win over the file.  Exit codes: 0 success, 1 config
error, 2 runtime/physics error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .report import MODES, run_scenario


def _add_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON scenario file")
    parser.add_argument("--omega", type=float, help="Rabi drive strength (rad/ns)")
    parser.add_argument("--eta", type=float, help="anharmonicity (rad/ns)")
    parser.add_argument("--gamma", type=float, help="top-level tunneling rate (1/ns)")
    parser.add_argument("--dt", type=float, help="measurement interval (ns)")
    parser.add_argument("--n", type=int, help="number of measurement intervals")
    parser.add_argument("--g", type=float, help="transverse qubit coupling (rad/ns)")
    parser.add_argument("--g-tilde", dest="g_tilde", type=float,
                        help="longitudinal qubit coupling (rad/ns)")
    parser.add_argument("--t-total", dest="t_total", type=float,
                        help="total evolution time (ns)")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Driven-qubit leakage suppression: Zeno, tunneling and GHZ simulations.",
    )
    subparsers = parser.add_subparsers(dest="mode", required=True, metavar="MODE")
    descriptions = {
        "two_level_zeno": "two-level toy model under repeated projective checks",
        "three_level_zeno": "driven three-level qubit under repeated leak measurements",
        "no_zeno": "exact unmeasured evolution of the driven three-level qubit",
        "tunneling": "continuous measurement via a decaying top level",
        "ghz": "single-step three-qubit GHZ preparation",
        "sweep": "survival probabilities along a parameter grid",
        "ncrit": "smallest measurement count beating the unmeasured survival",
    }
    for mode in MODES:
        dashed = mode.replace("_", "-")
        aliases = [mode] if dashed != mode else []
        sub = subparsers.add_parser(
            dashed, aliases=aliases,
            help=descriptions[mode], description=descriptions[mode],
        )
        sub.set_defaults(mode=mode)
        _add_options(sub)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot is reserved for
        # runtime/physics failures, so fold usage errors into config errors
        return 0 if exc.code == 0 else 1
    overrides = vars(args)  # every option but --config and the mode is a config key
    return run_scenario(overrides.pop("config"), overrides.pop("mode"), overrides)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: `zenosim MODE [options]`, one parser for every mode.

MODE is a name in `report.MODES`, dashed or not, which the config validation
checks.  The flags override keys of an optional JSON config (--config) and may
come before or after MODE.  Exit codes: 0 success, 1 config error, 2
runtime/physics error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import os
import sys

if __name__ == "__main__":
    # A one-shot process never frees what its imports build, so the cyclic
    # collector only walks that heap: keep it off while numpy imports, and
    # freeze the heap before main so the run's own collections skip it.
    gc.disable()

from .report import MODES, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenosim",
        description="Driven-qubit leakage suppression: Zeno, tunneling and GHZ simulations.",
        epilog="modes:" + "".join(f"\n  {m.replace('_', '-'):<18}{h}" for m, h in MODES.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("mode", metavar="MODE", help="scenario mode (listed below)",
                        type=lambda name: name.replace("-", "_"))
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
    gc.freeze()
    gc.enable()  # cycles the run itself makes are still collected
    status = main()
    # Tearing the interpreter down would only free memory the process is about
    # to return: run the exit handlers, flush the streams and end here.  A
    # failed summary write has been reported, so a flush that fails again on
    # its buffer is quiet and leaves the status as it is.
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):  # either may be None, closed or failing
        with contextlib.suppress(AttributeError, OSError, ValueError):
            stream.flush()
    os._exit(status)

"""One zenosim CLI call with a span around each layer's public functions.

Usage: python traced_child.py SPANS_JSON MODE [CLI OPTIONS...]

Each function is wrapped under the name its caller looks it up by: `cli`
imports `run_scenario` from `report`, `report` imports the `engine` runners
and `models` builders by name, `engine` and `ghz` import `apply` and
`mat_exp` by name, and `models` and `ghz` import `kron` by name.  A span is
[name, start, end, parent index, count, link]: `count` is the work the call
did (trace rows, sweep points, CSV rows) and `link`, on an emission span,
the index of the engine span whose trace it wrote.  Spans stay in memory
and are written to SPANS_JSON as the child exits.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter
spans: list[list] = []
stack: list[int] = []


def wrap(module, attr: str, name: str, count=None, link=None):
    fn = getattr(module, attr)

    def traced(*args, **kwargs):
        idx = len(spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, -1]
        spans.append(rec)
        stack.append(idx)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[1], rec[2] = start, clock()
            stack.pop()
        if count is not None:
            rec[4] = count(args, result, idx)
        if link is not None:
            rec[5] = link(args)
        return result

    setattr(module, attr, traced)


def trace_rows(args, result, idx):
    # Runners return a trace or (trace, record); the trace remembers the span
    # that built it so an emission span can link back to it.
    trace = result[0] if isinstance(result, tuple) else result
    trace.bench_span = idx
    return len(trace.times)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    from zenosim import cli, engine, ghz, models, report
    spans.append(["cli.import", start, clock(), -1, 0, -1])

    wrap(cli, "run_scenario", "report.run_scenario")
    wrap(report, "validate_config", "report.validate")
    for attr, name in (("run_zeno", "engine.zeno"), ("run_tunneling", "engine.tunneling"),
                       ("run_unitary", "engine.unitary")):
        wrap(report, attr, name, count=trace_rows)
    for attr in ("build_three_level", "build_tunneling", "build_two_level"):
        wrap(report, attr, "models.build")
    wrap(report, "emit_trace_csv", "report.emit",
         count=lambda a, r, i: len(a[0].times),
         link=lambda a: getattr(a[0], "bench_span", -1))
    wrap(report, "emit_sweep_csv", "report.emit", count=lambda a, r, i: len(a[0].records))
    wrap(report, "_emit_ghz_csv", "report.emit", count=lambda a, r, i: len(a[0]))
    wrap(report, "sweep", "report.sweep", count=lambda a, r, i: len(r.grid))
    wrap(report, "run_ghz_protocol", "ghz.protocol")
    wrap(ghz, "build_ghz_hamiltonian", "models.ghz_build")
    for module in (engine, ghz):
        wrap(module, "mat_exp", "linalg.mat_exp")
        wrap(module, "apply", "linalg.apply")
    for module in (models, ghz):
        wrap(module, "kron", "linalg.kron")
    wrap(cli, "main", "cli.main")

    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main())

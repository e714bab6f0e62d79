#!/usr/bin/env python3
"""Benchmark of the zenosim CLI on one workload.

    python3 bench/run.py --workload traces --seed 1 --seconds 40 --trace 0

One driver process starts one `python -m zenosim.cli ...` child at a time
against ./src (closed loop, one client), with OPENBLAS_NUM_THREADS=1.  A run
is made of whole rounds; a round runs every job of the workload once, in an
order drawn from the seed, and after each job starts one more child:
alternately a fresh `python -c "import zenosim"` (for setup_s) and a fixed
calibration program.  Rounds start until the next one would end past
--seconds.  Every time is a median over samples interleaved this way, so
the machine's drift spreads evenly over the jobs, and is then scaled by the
calibration, which takes out the drift between runs.  The scenario
parameters are fixed; the seed changes only the order.

Every child's output is checked: exit status, summary line, the leak
deficit 1 - W against an independent 40-digit mpmath reference
(reference.py), the properties of each CSV, and byte-identical output each
time a job repeats.  A child that fails any check counts as failed.

--trace 0 reports the end-to-end metrics.  --trace 1 follows each round
with a traced pass of the same jobs, run through traced_child.py, and
reports the per-layer metrics of the traced passes plus the tracing
overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import mpmath as mp

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

OMEGA, ETA, T = 0.05, -0.2, 5.0
G, G_TILDE = 0.02, 0.005

# Largest relative error of a deficit that still counts as correct.
DEFICIT_RTOL = 1e-5
# Digits of a deficit that float64 can carry at best (-log10 of 2^-53).
DIGITS_CAP = 53 * math.log10(2)
# p1 + p2 of a tunneling trace may rise by rounding: 1-ulp rises are seen
# at gamma = 40 and 400.  The Zeno running product is checked exactly.
TUNNELING_W_SLACK = 1e-15


@dataclass(frozen=True)
class Job:
    """One CLI call.  `params` go in as options when `flags` is set, else in
    a config file; `rows` is the expected CSV row count when `out` is set."""

    name: str
    mode: str
    params: dict = field(hash=False)
    flags: bool = False
    out: bool = False
    rows: int = 0


def zeno(n, out=True):
    return Job(f"zeno-n{n}", "three_level_zeno",
               dict(omega=OMEGA, eta=ETA, t_total=T, n=n), True, out, n + 1)


def tunneling(gamma, rows=0):
    return Job(f"tunneling-g{gamma:g}", "tunneling",
               dict(omega=OMEGA, eta=ETA, gamma=gamma, t_total=T), True, rows > 0, rows)


def sweep(name, axis, values, out=True, **params):
    return Job(name, "sweep", dict(axis=axis, axis_values=values, omega=OMEGA, eta=ETA,
                                   t_total=T, **params), False, out, len(values))


GHZ_PARAMS = dict(g=G, g_tilde=G_TILDE)

WORKLOADS = {
    # The paper's survival-vs-time curves, written in full: the per-step
    # engine loops and per-row CSV emission do nearly all the work, and the
    # full-trace arrays set peak memory.  The GHZ state and a W-vs-n curve
    # are the CLI's other CSVs; they keep every layer in the traced run.
    "traces": [
        zeno(400), zeno(4000), zeno(40000),
        tunneling(40.0, rows=20001), tunneling(400.0, rows=200001),
        Job("no-zeno-10001", "no_zeno", dict(omega=OMEGA, eta=ETA, t_total=T, samples=10001),
            False, True, 10001),
        Job("two-level-zeno", "two_level_zeno", dict(v=OMEGA, t_total=T, n=400), False, True, 401),
        Job("ghz-state", "ghz", GHZ_PARAMS, True, True, 8),
        sweep("sweep-n-curve", "n", [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]),
    ],
    # The same engine loops, of which only end values are read: emission
    # is a few sweep rows, so an end-value kernel shows here and an
    # emission change must not.  The n axis with gamma set repeats one
    # tunneling end value at every point.
    "sweeps": [
        sweep("sweep-gamma", "gamma", [20.0 * k for k in range(11)]),
        sweep("sweep-n", "n", [10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000], gamma=40.0),
        sweep("sweep-omega", "omega", [0.01 * k for k in range(1, 11)], n=400, gamma=40.0),
        Job("ghz-end", "ghz", GHZ_PARAMS, True),
    ],
    # Short calls: interpreter start, imports, argument parsing, config
    # validation and the 8x8 GHZ build dominate.
    "small-jobs": [
        Job("ghz", "ghz", GHZ_PARAMS, True, True, 8),
        zeno(50, out=False),
        Job("no-zeno", "no_zeno", dict(omega=OMEGA, eta=ETA, t_total=T), False, True, 101),
        tunneling(0.0),
        Job("two-level-zeno", "two_level_zeno", dict(v=OMEGA, t_total=T, n=50), False, True, 51),
        sweep("sweep-omega", "omega", [0.02, 0.05], out=False, n=50),
    ],
}

# A fixed program that shares no code with zenosim: interpreter start, the
# numpy import and a loop of 3x3 complex products like the engine's steps.
# It runs isolated (-I), so nothing under src/ can change it.
CALIBRATION = """
import numpy as np
u = np.array([[0.6, 0.8j, 0], [0.8j, 0.6, 0], [0, 0, 1]])
p = np.diag([1.0, 1.0, 0.0]).astype(complex)
v = np.ones(3, dtype=complex) / 3 ** 0.5
for _ in range(4000):
    kept = p @ (u @ v)
    v = kept / np.linalg.norm(kept)
"""
# Times are reported in reference seconds: measured seconds scaled by
# CALIBRATION_REFERENCE_S over the run's median calibration time, which
# takes out the machine's drift in speed (see README, "Spread").
CALIBRATION_REFERENCE_S = 0.25

# Units of every metric, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    output: str


class Runner:
    """Starts children one at a time, through spawn.py, and checks what
    they write."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.spawner = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], cwd=ROOT,
                                        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)
        self.first: dict[str, tuple] = {}
        self.digits: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def start(self, argv) -> Child:
        self.spawner.stdin.write(json.dumps(argv) + "\n")
        self.spawner.stdin.flush()
        seconds, rss_kib, code, output = json.loads(self.spawner.stdout.readline())
        return Child(seconds, rss_kib / 1024, code, output)

    def count(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")

    def quiet(self, label: str, argv) -> Child:
        """Run a child that must exit 0 and print nothing."""
        child = self.start(argv)
        bad = child.code != 0 or child.output
        self.count(label, [f"exit {child.code}: {child.output[-200:]}"] if bad else [])
        return child

    def job(self, job: Job, spans: Path | None = None) -> Child:
        args = cli_args(job, self.out_dir)
        # A CSV left from the job's last run must not pass for this run's.
        (self.out_dir / f"{job.name}.csv").unlink(missing_ok=True)
        if spans is None:
            argv = [sys.executable, "-m", "zenosim.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_child.py"), str(spans), *args]
        child = self.start(argv)
        self.count(job.name, self.check(job, child))
        return child

    def check(self, job: Job, child: Child) -> list[str]:
        lines = child.output.splitlines()
        if child.code != 0 or len(lines) != 1:
            return [f"exit {child.code}, output {child.output[-300:]!r}"]
        csv = b""
        if job.out:
            try:
                csv = (self.out_dir / f"{job.name}.csv").read_bytes()
            except OSError as exc:
                return [f"no CSV: {exc}"]
        digest = (lines[0], hashlib.sha256(csv).hexdigest())
        if job.name in self.first:
            seen, problems = self.first[job.name]
            return problems if seen == digest else ["output differs from the job's first run"]
        problems, errors = check_output(job, lines[0], csv.decode())
        if errors:
            worst = max(errors)
            self.digits[job.name] = DIGITS_CAP if worst == 0 else min(DIGITS_CAP, -math.log10(worst))
        self.first[job.name] = (digest, problems)
        return problems


def cli_args(job: Job, out_dir: Path) -> list[str]:
    args = [job.mode.replace("_", "-")]
    csv = str((out_dir / f"{job.name}.csv").relative_to(ROOT))
    if job.flags:
        for key, value in job.params.items():
            args += [f"--{key.replace('_', '-')}", repr(value)]
        if job.out:
            args += ["--out", csv]
        return args
    config = dict(mode=job.mode, **job.params)
    if job.out:
        config["out"] = csv
    path = out_dir / f"{job.name}.json"
    if not path.exists():
        path.write_text(json.dumps(config))
    return args + ["--config", str(path.relative_to(ROOT))]


def parse_summary(line: str) -> dict:
    return dict(token.split("=", 1) for token in line.split() if "=" in token)


def deficit_error(w_text: str, ref) -> float:
    """Relative error of the deficit 1 - W printed by the CLI."""
    with mp.workdps(reference.DPS):
        return float(abs((1 - mp.mpf(w_text)) - ref) / ref)


def reference_deficit(mode: str, p: dict):
    if mode == "three_level_zeno":
        return reference.zeno_deficit(p["omega"], p["eta"], p["t_total"], p["n"])
    if mode == "two_level_zeno":
        return reference.two_level_zeno_deficit(p["v"], p["t_total"], p["n"])
    if mode == "no_zeno":
        return reference.unitary_deficit(p["omega"], p["eta"], p["t_total"])
    return reference.tunneling_deficit(p["omega"], p["eta"], p["gamma"], p["t_total"])


def sweep_references(p: dict, value: float) -> dict:
    """Reference deficits of one sweep point, per CSV column."""
    point = dict(p, **{p["axis"]: int(value) if p["axis"] == "n" else value})
    refs = {"w_no_zeno": reference_deficit("no_zeno", point)}
    if "n" in point:
        refs["w_zeno"] = reference_deficit("three_level_zeno", point)
    if "gamma" in point:
        refs["w_tunnel"] = reference_deficit("tunneling", point)
    return refs


def check_output(job: Job, line: str, csv: str) -> tuple[list[str], list[float]]:
    """Problems with one job's summary line and CSV, and the relative
    errors of every deficit it reported."""
    summary = parse_summary(line)
    if summary.get("mode") != job.mode or "W" not in summary:
        return [f"summary line {line!r}"], []
    p, problems, errors = job.params, [], []

    def deficit(label, w_text, ref):
        err = deficit_error(w_text, ref)
        errors.append(err)
        if not err <= DEFICIT_RTOL:
            problems.append(f"{label}: deficit relative error {err:.3g}")

    if job.mode == "ghz":
        t_expected = math.pi / (2 * abs(p["g"] - p["g_tilde"]))
        if not abs(float(summary["T"]) - t_expected) <= 1e-14 * t_expected:
            problems.append(f"T={summary['T']}, expected {t_expected!r}")
        if not float(summary["W"]) >= 1 - 1e-12:
            problems.append(f"GHZ fidelity {summary['W']}")
        if job.out:
            problems += check_ghz_csv(csv)
        return problems, errors

    rows = csv_rows(csv, problems, job)
    if job.mode == "sweep":
        if summary.get("axis") != p["axis"] or summary.get("points") != str(len(p["axis_values"])):
            problems.append(f"summary line {line!r}")
        refs = [sweep_references(p, x) for x in p["axis_values"]]
        # The summary's W is the last point's Zeno, else tunneling, else
        # unmeasured survival.
        last = next(k for k in ("w_zeno", "w_tunnel", "w_no_zeno") if k in refs[-1])
        deficit("summary", summary["W"], refs[-1][last])
        if job.out and rows is not None:
            problems += check_sweep_rows(rows, refs, summary["W"], last, deficit)
        return problems, errors

    deficit("summary", summary["W"], reference_deficit(job.mode, p))
    if job.out and rows is not None:
        problems += check_trace_rows(job, rows, summary["W"])
    return problems, errors


def csv_rows(csv: str, problems: list[str], job: Job):
    if not job.out:
        return None
    header = {"ghz": "basis,re,im,p", "sweep": "axis_value,w_zeno,w_no_zeno,w_tunnel"}
    lines = csv.split("\n")
    if lines[-1] != "" or lines[0] != header.get(job.mode, "t,p1,p2,p3,W"):
        problems.append("CSV header or final newline")
        return None
    rows = [row.split(",") for row in lines[1:-1]]
    if len(rows) != job.rows:
        problems.append(f"{len(rows)} CSV rows, expected {job.rows}")
        return None
    return rows


def check_ghz_csv(csv: str) -> list[str]:
    problems = []
    rows = [row.split(",") for row in csv.split("\n")[1:-1]]
    if [r[0] for r in rows] != [f"{k:03b}" for k in range(8)]:
        return ["GHZ CSV basis labels"]
    probs = [float(r[3]) for r in rows]
    if not abs(sum(probs) - 1) <= 1e-12:
        problems.append(f"GHZ CSV populations sum to {sum(probs)!r}")
    if not probs[0] + probs[7] >= 1 - 1e-12:
        problems.append(f"GHZ CSV weight on |000>,|111> is {probs[0] + probs[7]!r}")
    return problems


def check_sweep_rows(rows, refs, w_summary, last, deficit) -> list[str]:
    problems = []
    columns = ("w_zeno", "w_no_zeno", "w_tunnel")
    for row, point in zip(rows, refs):
        for name, cell in zip(columns, row[1:]):
            if (cell != "") != (name in point):
                problems.append(f"sweep cell {name}={cell!r} at {row[0]}")
            elif cell:
                deficit(f"{name} at {row[0]}", cell, point[name])
    if rows[-1][1 + columns.index(last)] != w_summary:
        problems.append("last sweep row's W differs from the summary")
    return problems


def check_trace_rows(job: Job, rows, w_summary: str) -> list[str]:
    problems = []
    t, p1, p2, p3, w = (list(map(float, col)) for col in zip(*rows))
    t_total = job.params["t_total"]
    if t[0] != 0.0 or any(a >= b for a, b in zip(t, t[1:])) or \
            not abs(t[-1] - t_total) <= 1e-12 * t_total:
        problems.append("t is not strictly increasing from 0 to T")
    if not all(0.0 <= x <= 1.0 for col in (p1, p2, p3) for x in col):
        problems.append("a population lies outside [0, 1]")
    if job.mode in ("three_level_zeno", "two_level_zeno"):
        if any(b > a for a, b in zip(w, w[1:])):
            problems.append("Zeno W increases")
        if any(row[3] != "0" for row in rows):
            problems.append("p3 is not exactly 0 on a Zeno row")
    if job.mode == "tunneling":
        if any(b > a + TUNNELING_W_SLACK for a, b in zip(w, w[1:])):
            problems.append("tunneling W increases")
        if any(x + y != z for x, y, z in zip(p1, p2, w)):
            problems.append("tunneling W differs from p1 + p2")
    if rows[-1][4] != w_summary:
        problems.append("last row's W differs from the summary")
    return problems


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Per-layer figures of one traced pass: calls, work counts and span
    times summed over its children, then divided per call, row or step."""
    total, own, calls, work = (defaultdict(float) for _ in range(4))
    built = used = 0
    for path in span_files:
        if not path.exists():  # the child failed before writing spans
            continue
        spans = json.loads(path.read_text())
        path.unlink()
        covered = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        emitted = {s[5] for s in spans if s[5] >= 0}
        for idx, (name, start, end, _, n, _) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - covered[idx]
            calls[name] += 1
            work[name] += n
            if name.startswith("engine."):
                built += n
                used += n if idx in emitted else 1

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    jobs = len(span_files)
    zeno_steps = work["engine.zeno"] - calls["engine.zeno"]
    tunneling_steps = work["engine.tunneling"] - calls["engine.tunneling"]
    return {
        "cli.import_ms": per(total["cli.import"], jobs, 1e3),
        "cli.main_self_ms": per(own["cli.main"], jobs, 1e3),
        "report.validate_us": per(total["report.validate"], calls["report.validate"], 1e6),
        "report.run_scenario_self_ms": per(own["report.run_scenario"], jobs, 1e3),
        "report.emit_us_per_row": per(total["report.emit"], work["report.emit"], 1e6),
        "report.emit_rows": work["report.emit"],
        "report.sweep_ms_per_point": per(total["report.sweep"], work["report.sweep"], 1e3),
        "report.rows_used_per_row_built": per(used, built, 1),
        "engine.zeno_steps": zeno_steps,
        "engine.zeno_us_per_step": per(total["engine.zeno"], zeno_steps, 1e6),
        "engine.tunneling_steps": tunneling_steps,
        "engine.tunneling_us_per_step": per(total["engine.tunneling"], tunneling_steps, 1e6),
        "engine.unitary_us_per_call": per(total["engine.unitary"], calls["engine.unitary"], 1e6),
        "models.build_us": per(total["models.build"], calls["models.build"], 1e6),
        "models.ghz_build_ms": per(total["models.ghz_build"], calls["models.ghz_build"], 1e3),
        "linalg.kron_calls": calls["linalg.kron"],
        "linalg.mat_exp_calls": calls["linalg.mat_exp"],
        "linalg.mat_exp_us_per_call": per(total["linalg.mat_exp"], calls["linalg.mat_exp"], 1e6),
        "linalg.apply_calls": calls["linalg.apply"],
        "linalg.apply_us_per_call": per(total["linalg.apply"], calls["linalg.apply"], 1e6),
        "ghz.protocol_ms": per(total["ghz.protocol"], calls["ghz.protocol"], 1e3),
    }


def remove_outputs(out_dir: Path) -> None:
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.suppress(OSError):
        out_dir.parent.rmdir()  # only once no other run uses it


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = WORKLOADS[workload]
    out_dir = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    out_dir.mkdir(parents=True)
    with contextlib.ExitStack() as stack:
        stack.callback(remove_outputs, out_dir)
        runner = stack.enter_context(contextlib.closing(Runner(out_dir)))
        problems = reference.self_check()
        for job in jobs:  # every reference, outside the timed rounds
            if job.mode == "sweep":
                for x in job.params["axis_values"]:
                    sweep_references(job.params, x)
            elif job.mode != "ghz":
                reference_deficit(job.mode, job.params)
        runner.start([sys.executable, "-c", "import zenosim"])  # warm bytecode caches

        rng = random.Random(seed)
        untraced, traced = defaultdict(list), defaultdict(list)  # job name -> seconds
        probe_times, cal_times, rss, layers = [], [], [], []
        begin = time.perf_counter()
        last_round = 0.0
        while not untraced or time.perf_counter() - begin + last_round <= seconds:
            round_start = time.perf_counter()
            order = rng.sample(jobs, len(jobs))
            for k, job in enumerate(order):
                child = runner.job(job)
                untraced[job.name].append(child.seconds)
                rss.append(child.rss_mb)
                if k % 2 == 1:
                    probe = runner.quiet("import probe", [sys.executable, "-c", "import zenosim"])
                    probe_times.append(probe.seconds)
                else:
                    cal = runner.quiet("calibration", [sys.executable, "-I", "-c", CALIBRATION])
                    cal_times.append(cal.seconds)
            if trace:  # a traced pass of the same order follows each round
                files = [out_dir / f"spans-{k}.json" for k in range(len(order))]
                for job, spans in zip(order, files):
                    traced[job.name].append(runner.job(job, spans).seconds)
                layers.append(layer_metrics(files))
            last_round = time.perf_counter() - round_start

    # The job list's wall time is the sum of each job's median time.
    job_medians = [statistics.median(times) for times in untraced.values()]
    wall = sum(job_medians)
    if trace:
        metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        metrics["bench.trace_overhead_s"] = sum(map(statistics.median, traced.values())) - wall
    else:
        measured = {
            "wall_s": wall,
            "job_ms_p50": statistics.median(job_medians) * 1e3,
            "setup_s": statistics.median(probe_times),
        }
        calibration = statistics.median(cal_times)
        print(f"calibration {calibration:.4f} s; measured, unscaled: "
              + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()))
        metrics = {name: value * CALIBRATION_REFERENCE_S / calibration
                   for name, value in measured.items()}
        metrics["peak_rss_mb"] = max(rss)
        metrics["deficit_digits"] = min(runner.digits.values(), default=0.0)
    for problem in problems + runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, digits in runner.digits.items():
        print(f"deficit digits of {name}: {digits:.2f}")
    return {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "zenosim" / "cli.py").is_file():
        print(f"no zenosim sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

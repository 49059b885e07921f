"""filex benchmark: one workload, timed end to end (--trace 0) or per layer (--trace 1).

    python3 perfbench/run.py --workload n-sweep --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src`` and the
exact oracles from ``tests/oracles.py``. Progress and check failures go to
stderr. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The end-to-end
timings are scaled to a reference host speed (``hostspeed.py``); the raw
ones go to stderr. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_ROUNDS = 9
# Largest n at which the exact E[H] oracle runs at benchmark time (0.1 s at
# beta = 5); larger n are bounded by the value here.
N_REACH = 1000


def _cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children covers every reaped pool worker.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def read_all(paths) -> list[str]:
    """File contents, or "" for a file a failed command did not write."""
    return [p.read_text(encoding="utf-8") if p.exists() else "" for p in paths]


def setup_round(wl, workload, seed: int, out_dir: Path) -> float:
    """Cold import in a fresh interpreter, input generation, one small pass."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import filex"], env=env, check=True, cwd=ROOT)
    workload.jobs(seed, 0)
    warm = workload.warm_jobs(seed)
    if workload.via_cli:
        warm_out = wl.cli_pass(workload, warm, out_dir / "warm")
        if any(warm_out.codes):
            raise RuntimeError(f"warm-up CLI exit codes {warm_out.codes}")
    else:
        wl.api_pass(workload, warm)
    return time.perf_counter() - t0


def end_to_end(wl, checks, workload, seed: int, seconds: float, out_dir: Path) -> dict:
    """Set-up rounds, then whole passes for ``seconds``; every time host-scaled (hostspeed.py)."""
    from hostspeed import REFERENCE_S, Scaler

    scaler = Scaler()
    setup_raw, setup = [], []
    for _ in range(SETUP_ROUNDS):
        setup_raw.append(setup_round(wl, workload, seed, out_dir))
        setup.append(setup_raw[-1] * scaler.factor())
    walls_raw, walls, cpus = [], [], []
    tally = checks.EntropyTally()
    cli_outputs = []  # (jobs, csv texts, table stdout, svg texts, exit codes) per pass
    attempted = 0
    start = time.perf_counter()
    pass_index = 0
    while pass_index == 0 or time.perf_counter() - start < seconds:
        jobs = workload.jobs(seed, pass_index)
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        if workload.via_cli:
            out = wl.cli_pass(workload, jobs, out_dir / "e2e")
        else:
            records = wl.api_pass(workload, jobs)
        wall_raw, cpu_raw = time.perf_counter() - t0, _cpu_seconds() - cpu0
        factor = scaler.factor()
        walls_raw.append(wall_raw)
        walls.append(wall_raw * factor)
        cpus.append(cpu_raw * factor)
        if workload.via_cli:
            cli_outputs.append((
                jobs, read_all(out.csv_paths), out.table_stdout, read_all(out.svg_paths), out.codes,
            ))
            attempted += wl.cli_command_count(jobs)
        else:
            wl.tally_records(tally, jobs, wl.as_tuples(records))
        attempted += sum(j.task_count() for j in jobs)
        pass_index += 1
    peak_rss = _peak_rss_mb()

    failures, failed = [], 0
    for jobs, csv_texts, table, svg_texts, codes in cli_outputs:
        failed += sum(1 for c in codes if c != 0)
        failures += [f"CLI exit codes {codes}"] if any(codes) else []
        for job, csv_text, svg_text in zip(jobs, csv_texts, svg_texts):
            failures += checks.svg_failures(svg_text, job.task_count())
            csv_problems = checks.csv_failures(csv_text, job.task_count())
            failures += csv_problems
            if csv_problems:
                continue
            rows = checks.parse_csv(csv_text)
            for r in rows:
                tally.add(wl.record_key(job, r[2]), r[5])
            xs = [1.0 / r[2] if job.spec.correlate_inverse else r[2] for r in rows]
            failures += checks.tau_failures(table, job.spec.name, xs, [r[5] for r in rows])
    failures += checks.range_failures(tally)
    if workload.oracle:
        failures += checks.mean_failures(tally, checks.exact_expectations(tally.groups, N_REACH))
    if tally.count() == 0:
        failures.append("no records were checked")

    runs_per_pass = sum(j.task_count() for j in workload.jobs(seed, 0))
    wall = median(walls)
    print(
        f"{workload.name}: {len(walls)} passes; scaled wall {[round(x, 3) for x in walls]}; "
        f"raw wall median {median(walls_raw):.4f} s; raw setup {[round(x, 3) for x in setup_raw]} s; "
        f"calibration unit median {median(scaler.units):.4f} s (reference {REFERENCE_S} s)",
        file=sys.stderr,
    )
    return result(not failures, attempted, failed, failures, {
        "setup_s": (median(setup), "s"),
        "wall_s": (wall, "s"),
        "runs_per_s": (runs_per_pass / wall, "1/s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    })


def traced(wl, checks, workload, seed: int, out_dir: Path) -> dict:
    """One CLI pass, one serial run_experiment pass and one traced serial pass of pass 0."""
    from spans import Tracer

    setup_round(wl, workload, seed, out_dir)
    jobs = workload.jobs(seed, 0)
    tracer = Tracer()
    failures = []

    # (a) the CLI at the workload's worker count, untraced inside.
    cli = wl.cli_pass(workload, jobs, out_dir / "trace-cli", tracer)
    csv_cli = read_all(cli.csv_paths)
    failures += [f"CLI exit codes {cli.codes}"] if any(cli.codes) else []
    records_cli = []
    for job, text, svg in zip(jobs, csv_cli, read_all(cli.svg_paths)):
        failures += checks.svg_failures(svg, job.task_count())
        csv_problems = checks.csv_failures(text, job.task_count())
        failures += csv_problems
        rows = [] if csv_problems else checks.parse_csv(text)
        records_cli.append([(n, v, r, s, h) for n, _, v, r, s, h in rows])

    # (b) serial run_experiment, untraced: the busy time of the same tasks.
    t0 = time.perf_counter()
    records_serial = wl.api_pass(workload, jobs, workers=1)
    wall_serial = time.perf_counter() - t0
    records_serial = wl.as_tuples(records_serial)

    # (c) the traced serial pass, then the report layer on its records.
    t0 = time.perf_counter()
    records_traced = wl.traced_pass(jobs, tracer)
    wall_traced = time.perf_counter() - t0
    csv_paths = wl.traced_report(jobs, records_traced, out_dir / "trace-report", tracer)
    wl.kernel_probes(workload, tracer)

    if not records_traced == records_serial == records_cli:
        failures.append("traced, serial and CLI records differ")
    if [p.read_text(encoding="utf-8") for p in csv_paths] != csv_cli:
        failures.append("CSV written from traced records differs from the CLI's CSV")
    tally = checks.EntropyTally()
    wl.tally_records(tally, jobs, records_traced)
    failures += checks.range_failures(tally)

    tracer.write(OUT / f"trace-{workload.name}.json", workload=workload.name, seed=seed)
    iterations = sum(
        wl.record_key(j, v)[4] * j.spec.replicates for j in jobs for v in j.values()
    )
    ms = 1e3
    metrics = {
        "core.fast_iter_us": (tracer.median_s("core.probe.fast") / wl.PROBE_ITERATIONS * 1e6, "us"),
        "core.reference_iter_us": (tracer.median_s("core.probe.reference") / wl.PROBE_ITERATIONS * 1e6, "us"),
        "core.iterations": (iterations, "count"),
        "core.run_us": (tracer.mean_us("core.run"), "us"),
        "core.make_stream_us": (tracer.mean_us("core.make_stream"), "us"),
        "core.params_us": (tracer.mean_us("core.params"), "us"),
        "stats.entropy_us": (tracer.mean_us("stats.entropy"), "us"),
        "sweep.seed_us": (tracer.mean_us("sweep.seed"), "us"),
        "sweep.tasks": (len(tracer.durations("sweep.task")), "count"),
        "sweep.pool_overhead_s": (workload.workers * cli.seconds["sweep"] - wall_serial, "s"),
        "stats.kendall_ms": (tracer.total_s("stats.kendall") * ms, "ms"),
        "report.csv_write_ms": (tracer.total_s("report.csv_write") * ms, "ms"),
        "report.csv_read_ms": (tracer.total_s("report.csv_read") * ms, "ms"),
        "report.table_ms": (tracer.total_s("report.table") * ms, "ms"),
        "report.svg_ms": (tracer.total_s("report.svg") * ms, "ms"),
        "report.csv_bytes": (sum(p.stat().st_size for p in csv_paths), "bytes"),
        "report.svg_bytes": (sum(p.with_suffix(".svg").stat().st_size for p in csv_paths), "bytes"),
        "cli.sweep_s": (cli.seconds["sweep"], "s"),
        "cli.table_s": (cli.seconds["table"], "s"),
        "cli.plot_s": (cli.seconds["plot"], "s"),
        "trace.overhead_pct": (100.0 * (wall_traced - wall_serial) / wall_serial, "%"),
    }
    tasks = sum(j.task_count() for j in jobs)
    attempted = 3 * tasks + wl.cli_command_count(jobs)
    failed = sum(1 for c in cli.codes if c != 0)
    print(
        f"{workload.name} traced: cli sweep {cli.seconds['sweep']:.3f} s, serial {wall_serial:.3f} s, "
        f"traced {wall_traced:.3f} s, {len(tracer.rows)} spans",
        file=sys.stderr,
    )
    return result(not failures, attempted, failed, failures, metrics)


def result(correct: bool, attempted: int, failed: int, failures: list[str], metrics: dict) -> dict:
    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        import checks
        import workloads as wl
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    if args.trace:
        doc = traced(wl, checks, workload, args.seed, out_dir)
    else:
        doc = end_to_end(wl, checks, workload, args.seed, args.seconds, out_dir)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

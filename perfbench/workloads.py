"""The benchmark's four workloads: their inputs, and the passes that run them.

A workload is a list of jobs per pass; a job is one experiment run with one
sampler mode. Inputs depend only on the benchmark seed and the pass index,
through master seeds hashed here, so the program under test receives nothing
but the generated experiment specs and config files.

Three ways to drive the same jobs:

- ``api_pass``: ``run_experiment`` per job at the workload's worker count;
- ``cli_pass``: ``filex sweep`` per job, then ``filex table`` over every CSV
  and ``filex plot`` per CSV, all in-process through ``filex.cli.main``;
- ``traced_pass``: the tasks one call at a time through the public functions,
  serially, with a span around each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from filex import cli, report
from filex.core import ProcessParams, make_stream, run
from filex.stats import PairedSeries, kendall_tau, shannon_entropy_bits
from filex.errors import UndefinedCorrelationError
from filex.sweep import (
    REDUCED_STRIDE,
    ExperimentSpec,
    RunRecord,
    SweepSpec,
    canonical_experiments,
    derive_run_seed,
    log_sweep,
    run_experiment,
)

from spans import Tracer


@dataclass(frozen=True)
class Job:
    """One experiment with its sampler mode, as the API and the CLI take it."""

    spec: ExperimentSpec
    mode: str
    config: str  # key = value text that ``filex sweep --config`` reads
    preset: str = "full"

    @property
    def stride(self) -> int:
        return REDUCED_STRIDE if self.preset == "reduced" else 1

    def values(self) -> list:
        """Swept values of the points this job runs, in task order."""
        return log_sweep(self.spec.sweep)[:: self.stride]

    def task_count(self) -> int:
        return len(self.values()) * self.spec.replicates


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    via_cli: bool  # end-to-end passes go through the CLI instead of run_experiment
    oracle: bool  # per-n mean entropy is checked against the exact E[H]
    jobs: Callable[[int, int], list[Job]]  # (seed, pass index) -> jobs
    warm_jobs: Callable[[int], list[Job]]  # small jobs on the same path, for set-up
    probe: tuple[float, int, int]  # (alpha, beta, s) of the kernel probes


def master_seed(seed: int, *labels) -> int:
    """64-bit master seed for one job, from the benchmark seed and labels."""
    digest = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def custom_config(spec: ExperimentSpec) -> str:
    """The CLI config text that describes ``spec``."""
    lines = [
        f"name = {spec.name}",
        f"varied = {spec.varied}",
        f"low = {spec.sweep.low!r}",
        f"high = {spec.sweep.high!r}",
        f"steps = {spec.sweep.steps}",
        f"integral = {'true' if spec.sweep.integral else 'false'}",
    ]
    lines += [f"{k} = {getattr(spec, k)!r}" for k in ("alpha", "beta", "s", "n") if getattr(spec, k) is not None]
    lines += [f"replicates = {spec.replicates}", f"master_seed = {spec.master_seed}"]
    return "\n".join(lines) + "\n"


def custom_job(mode: str, **spec_fields) -> Job:
    spec = ExperimentSpec(**spec_fields)
    return Job(spec, mode, custom_config(spec))


# -- n-sweep: log-spaced n, two replicates so both workers get a largest task.
# It stops at n = 1e5, a decade below the canonical top: one 1e6-iteration
# run takes 8 to 14 s on this host, so a run would hold only two or three
# passes to take the median of (README).
N_SWEEP = SweepSpec(1e2, 1e5, 4, integral=True)


def n_sweep_jobs(seed: int, pass_index: int) -> list[Job]:
    return [custom_job(
        "fast", name="n-sweep", varied="n", sweep=N_SWEEP, alpha=1.0, beta=5, s=64,
        replicates=2, master_seed=master_seed(seed, "n-sweep", pass_index),
    )]


def n_sweep_warm(seed: int) -> list[Job]:
    return [custom_job(
        "fast", name="n-sweep-warm", varied="n", sweep=SweepSpec(10, 100, 2, integral=True),
        alpha=1.0, beta=5, s=64, replicates=2, master_seed=master_seed(seed, "warm"),
    )]


# -- tiny runs: s, beta, n <= 3 at alpha = 2 (acceptance criteria 3 and 4),
# where the fixed per-run cost dominates. The n sweep [1, 3] over 4 points
# floors to n = 1, 1, 2, 3.
TINY_SWEEP = SweepSpec(1, 3, 4, integral=True)
TINY_REPLICATES = 50


def _tiny(seed: int, label, modes, replicates: int) -> list[Job]:
    return [
        custom_job(
            mode, name=f"tiny-{mode}-s{s}-b{beta}", varied="n", sweep=TINY_SWEEP,
            alpha=2.0, beta=beta, s=s, replicates=replicates,
            master_seed=master_seed(seed, "tiny", label, mode, s, beta),
        )
        for mode in modes
        for s in (1, 2, 3)
        for beta in (1, 2, 3)
    ]


def tiny_runs_jobs(seed: int, pass_index: int) -> list[Job]:
    return _tiny(seed, pass_index, ("fast", "reference"), TINY_REPLICATES)


def tiny_pool_jobs(seed: int, pass_index: int) -> list[Job]:
    # The fast half of tiny-runs, task for task.
    return _tiny(seed, pass_index, ("fast",), TINY_REPLICATES)


# -- reference-cli: the canonical alpha experiment, reduced preset, reference
# sampler, through the CLI.
def reference_cli_jobs(seed: int, pass_index: int) -> list[Job]:
    mseed = master_seed(seed, "reference-cli", pass_index)
    spec = next(s for s in canonical_experiments(mseed) if s.name == "alpha")
    return [Job(spec, "reference", f"experiment = alpha\nmaster_seed = {mseed}\n", preset="reduced")]


def reference_cli_warm(seed: int) -> list[Job]:
    job = custom_job(
        "reference", name="alpha-warm", varied="alpha", sweep=SweepSpec(1e-4, 1e-1, 8),
        beta=10, s=64, n=20, master_seed=master_seed(seed, "warm"),
    )
    return [Job(job.spec, job.mode, job.config, preset="reduced")]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("n-sweep", 2, False, True, n_sweep_jobs, n_sweep_warm, (1.0, 5, 64)),
        Workload("tiny-runs", 1, False, True, tiny_runs_jobs, lambda seed: _tiny(seed, "warm", ("fast", "reference"), 5), (2.0, 3, 3)),
        Workload("tiny-pool", 2, False, True, tiny_pool_jobs, lambda seed: _tiny(seed, "warm", ("fast",), 5), (2.0, 3, 3)),
        Workload("reference-cli", 2, True, False, reference_cli_jobs, reference_cli_warm, (1e-2, 10, 64)),
    )
}


# -- records ------------------------------------------------------------------

def record_tuple(r) -> tuple:
    """A RunRecord as (experiment, param_value, replicate, seed, entropy_bits)."""
    return (r.experiment, r.param_value, r.replicate, r.seed, r.entropy_bits)


def record_key(job: Job, param_value: float) -> tuple:
    """(mode, alpha, beta, s, n) of the run behind one record."""
    spec = job.spec
    fields = {"alpha": spec.alpha, "beta": spec.beta, "s": spec.s, "n": spec.n}
    fields[spec.varied] = param_value
    return (job.mode, float(fields["alpha"]), int(fields["beta"]), int(fields["s"]), int(fields["n"]))


# -- passes ---------------------------------------------------------------------

def tally_records(tally, jobs: list[Job], records: list[list[tuple]]) -> None:
    """Add every record's entropy to ``tally`` under its run key."""
    for job, recs in zip(jobs, records):
        for r in recs:
            tally.add(record_key(job, r[1]), r[4])


def as_tuples(records: list[list[RunRecord]]) -> list[list[tuple]]:
    return [[record_tuple(r) for r in recs] for recs in records]


def api_pass(workload: Workload, jobs: list[Job], workers: int | None = None) -> list[list[RunRecord]]:
    """Records of every job, by ``run_experiment``."""
    workers = workload.workers if workers is None else workers
    return [run_experiment(j.spec, mode=j.mode, workers=workers, stride=j.stride) for j in jobs]


@dataclass
class CliPass:
    csv_paths: list[Path]
    svg_paths: list[Path]
    codes: list[int]  # exit code of every command, in call order
    table_stdout: str
    seconds: dict  # command -> summed wall seconds


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_pass(workload: Workload, jobs: list[Job], out_dir: Path, tracer: Tracer | None = None) -> CliPass:
    """``filex sweep`` per job, one ``filex table`` over every CSV, ``filex plot`` per CSV.

    With a tracer, each command is a ``cli.<command>`` span.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    result = CliPass([], [], [], "", {"sweep": 0.0, "table": 0.0, "plot": 0.0})

    def call(command: str, *args: str) -> str:
        t0 = time.perf_counter_ns()
        code, stdout = _cli([command, *args])
        t1 = time.perf_counter_ns()
        result.seconds[command] += (t1 - t0) * 1e-9
        result.codes.append(code)
        if tracer is not None:
            tracer.add(f"cli.{command}", t0, t1)
        return stdout

    for i, job in enumerate(jobs):
        cfg = out_dir / f"job{i}.cfg"
        cfg.write_text(job.config, encoding="utf-8")
        csv_path = out_dir / f"job{i}.csv"
        call("sweep", "--config", str(cfg), "--out", str(csv_path), "--mode", job.mode,
             "--preset", job.preset, "--workers", str(workload.workers))
        result.csv_paths.append(csv_path)
    result.table_stdout = call("table", *map(str, result.csv_paths))
    for csv_path in result.csv_paths:
        svg_path = csv_path.with_suffix(".svg")
        call("plot", str(csv_path), "--out", str(svg_path))
        result.svg_paths.append(svg_path)
    return result


def cli_command_count(jobs: list[Job]) -> int:
    return 2 * len(jobs) + 1


def traced_pass(jobs: list[Job], tracer: Tracer) -> list[list[tuple]]:
    """Run every task serially, one public call at a time, with spans.

    Mirrors the task decomposition ``run_experiment`` documents: parameters
    once per kept sweep point, then per replicate a derived seed, a stream, a
    run and its entropy. Each job is one trace; every task is a span with one
    child span per call.
    """
    now = time.perf_counter_ns
    out = []
    for trace_id, job in enumerate(jobs):
        spec = job.spec
        records = []
        values = log_sweep(spec.sweep)
        for index in range(0, len(values), job.stride):
            value = values[index]
            t0 = now()
            params = spec.params_at(value)
            tracer.add("core.params", t0, now(), trace=trace_id)
            for replicate in range(spec.replicates):
                t0 = now()
                seed = derive_run_seed(spec.master_seed, index, replicate)
                t1 = now()
                stream = make_stream(seed)
                t2 = now()
                dist = run(params, stream, job.mode)
                t3 = now()
                entropy = shannon_entropy_bits(dist)
                t4 = now()
                task = tracer.add("sweep.task", t0, t4, trace=trace_id)
                tracer.add("sweep.seed", t0, t1, parent=task, trace=trace_id)
                tracer.add("core.make_stream", t1, t2, parent=task, trace=trace_id)
                tracer.add("core.run", t2, t3, parent=task, trace=trace_id)
                tracer.add("stats.entropy", t3, t4, parent=task, trace=trace_id)
                records.append((spec.name, float(value), replicate, seed, entropy))
        out.append(records)
    return out


def traced_report(jobs: list[Job], records: list[list[tuple]], out_dir: Path, tracer: Tracer) -> list[Path]:
    """CSV, table, Kendall and SVG for the traced records, a span per call.

    Writes the CSVs that ``filex sweep`` would write for the same records and
    returns their paths.
    """
    now = time.perf_counter_ns
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, all_rows = [], []
    for i, (job, recs) in enumerate(zip(jobs, records)):
        run_records = [RunRecord(*r) for r in recs]
        path = out_dir / f"job{i}.csv"
        t0 = now()
        report.write_records_csv(path, job.spec, run_records)
        tracer.add("report.csv_write", t0, now(), trace=i)
        t0 = now()
        rows = report.read_records_csv(path)
        tracer.add("report.csv_read", t0, now(), trace=i)
        xs = [1.0 / r.param_value if job.spec.correlate_inverse else r.param_value for r in rows]
        ys = [r.entropy_bits for r in rows]
        t0 = now()
        with contextlib.suppress(UndefinedCorrelationError):
            kendall_tau(PairedSeries(xs, ys))
        tracer.add("stats.kendall", t0, now(), trace=i)
        t0 = now()
        report.write_svg_scatter(path.with_suffix(".svg"), report.plot_spec_from_rows(rows))
        tracer.add("report.svg", t0, now(), trace=i)
        paths.append(path)
        all_rows.extend(rows)
    t0 = now()
    report.render_correlation_table(report.correlation_table_from_rows(all_rows))
    tracer.add("report.table", t0, now())
    return paths


PROBE_ITERATIONS = 2000
PROBE_REPEATS = 5


def kernel_probes(workload: Workload, tracer: Tracer) -> None:
    """Time ``run`` at the workload's (alpha, beta, s) in both samplers.

    One span per probe run of PROBE_ITERATIONS iterations; at that length the
    fixed per-run cost is well under 1% of the span.
    """
    alpha, beta, s = workload.probe
    params = ProcessParams(alpha, beta, s, PROBE_ITERATIONS)
    for mode in ("fast", "reference"):
        for repeat in range(PROBE_REPEATS):
            stream = make_stream(repeat)
            t0 = time.perf_counter_ns()
            run(params, stream, mode)
            tracer.add(f"core.probe.{mode}", t0, time.perf_counter_ns())

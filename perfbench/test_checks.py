"""Tests of the benchmark's own checks: each passes on real output and fails
on a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pytest  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from filex.core import ProcessParams, make_stream, run  # noqa: E402
from filex.stats import shannon_entropy_bits  # noqa: E402


def tiny_tally(shift: float = 0.0, replicates: int = 400) -> checks.EntropyTally:
    """Entropies of real runs at (alpha, beta, s) = (2, 2, 3), n = 1, 2, 3."""
    tally = checks.EntropyTally()
    rng = make_stream(7)
    for n in (1, 2, 3):
        params = ProcessParams(2.0, 2, 3, n)
        for _ in range(replicates):
            tally.add(("fast", 2.0, 2, 3, n), shannon_entropy_bits(run(params, rng)) + shift)
    return tally


def test_mean_check_passes_on_real_runs():
    tally = tiny_tally()
    assert checks.mean_failures(tally, checks.exact_expectations(tally.groups, 1000)) == []


@pytest.mark.parametrize("shift", [0.2, -0.2])
def test_mean_check_fails_on_entropy_off_by_a_fifth_of_a_bit(shift):
    tally = tiny_tally(shift)
    failures = checks.mean_failures(tally, checks.exact_expectations(tally.groups, 1000))
    assert len(failures) == 3


def test_pooled_sd_and_upper_bound_beyond_the_oracle():
    # Few runs per n, as in the n sweep: the SD is pooled over the family,
    # and n above the reach is only bounded from above.
    tally = checks.EntropyTally()
    rng = make_stream(11)
    for n in (10, 20, 40):
        for _ in range(6):
            tally.add(("fast", 1.0, 5, 8, n), shannon_entropy_bits(run(ProcessParams(1.0, 5, 8, n), rng)))
    expectations = checks.exact_expectations(tally.groups, 20)
    assert expectations[("fast", 1.0, 5, 8, 40)] == ("le", expectations[("fast", 1.0, 5, 8, 20)][1])
    assert checks.mean_failures(tally, expectations) == []
    tally.groups[("fast", 1.0, 5, 8, 40)][1] += 6 * 3.0  # mean 3 bits too high
    assert len(checks.mean_failures(tally, expectations)) == 1


def test_range_check():
    tally = tiny_tally()
    assert checks.range_failures(tally) == []
    tally.add(("fast", 2.0, 2, 3, 1), math.log2(3) + 1e-6)
    tally.add(("fast", 2.0, 2, 3, 2), -1e-6)
    assert len(checks.range_failures(tally)) == 2


@pytest.fixture(scope="module")
def cli_output():
    """One real reference-cli pass at a fixed seed."""
    workload = wl.WORKLOADS["reference-cli"]
    jobs = workload.jobs(3, 0)
    out = wl.cli_pass(workload, jobs, ROOT / "perfbench" / "out" / "test")
    assert out.codes == [0, 0, 0]
    return jobs[0], out.csv_paths[0].read_text(), out.table_stdout, out.svg_paths[0].read_text()


def test_csv_check(cli_output):
    job, csv_text, _, _ = cli_output
    assert checks.csv_failures(csv_text, job.task_count()) == []
    lines = csv_text.splitlines(keepends=True)
    assert checks.csv_failures("".join(lines[:-1]), job.task_count())  # a row short
    assert checks.csv_failures(csv_text[:-5], job.task_count())  # cut mid-number
    assert checks.csv_failures(csv_text.replace(",", ";", 1), job.task_count())  # header


def test_tau_check(cli_output):
    job, csv_text, table, _ = cli_output
    rows = checks.parse_csv(csv_text)
    xs = [1.0 / r[2] for r in rows]
    ys = [r[5] for r in rows]
    assert checks.tau_failures(table, "alpha", xs, ys) == []
    printed = table.splitlines()[1].split()[2]
    wrong = f"{float(printed) + 0.02:+.2f}"
    assert checks.tau_failures(table.replace(printed, wrong), "alpha", xs, ys)
    assert checks.tau_failures(table, "alpha", [r[2] for r in rows], ys)  # alpha not inverted
    assert checks.tau_failures(table, "beta", xs, ys)  # no such row


def test_svg_check(cli_output):
    job, _, _, svg = cli_output
    assert checks.svg_failures(svg, job.task_count()) == []
    first = svg.index("<circle")
    assert checks.svg_failures(svg[:first] + svg[svg.index("\n", first) + 1:], job.task_count())
    assert checks.svg_failures(svg[: len(svg) // 2], job.task_count())


def test_inputs_depend_only_on_seed_and_pass():
    for workload in wl.WORKLOADS.values():
        assert workload.jobs(5, 1) == workload.jobs(5, 1)
        assert workload.jobs(5, 1) != workload.jobs(6, 1)
        assert workload.jobs(5, 1) != workload.jobs(5, 2)

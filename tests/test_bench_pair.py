"""tools/bench_pair.py with a stubbed benchmark run: which runs it counts, and how it counts wins."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
METRICS = {"wall_s": "lower", "runs_per_s": "higher"}


@pytest.fixture(scope="module")
def bench_pair():
    spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_doc(wall, rate, correct=True, failed=0):
    """What one ``perfbench/run.py`` run reports, with the two metrics of :data:`METRICS`."""
    return {
        "correct": correct, "attempted": 10, "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "runs_per_s": {"value": rate, "unit": "1/s"}},
    }


@pytest.fixture
def checkouts(tmp_path, monkeypatch, bench_pair):
    """Parent and change roots with a BENCHMARK.json of :data:`METRICS`; git and numpy are not asked."""
    roots = {side: tmp_path / side for side in bench_pair.SIDES}
    for root in roots.values():
        root.mkdir()
    benchmark = {"run_seconds": 1, "end_to_end": [{"name": m, "better": b} for m, b in METRICS.items()]}
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps(benchmark))
    monkeypatch.setattr(bench_pair, "describe", lambda root: {"commit": "0" * 40, "changed": [], "diff_sha256": ""})
    monkeypatch.setattr(bench_pair, "numpy_version", lambda: "0")
    return roots


def arguments(roots, out, pairs):
    return ["--parent", str(roots["parent"]), "--change", str(roots["change"]), "--workloads", "w",
            "--pairs", str(pairs), "--seed", "100", "--out", str(out)]


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}], ids=["incorrect", "failed"])
def test_run_it_cannot_count_is_refused(bench_pair, checkouts, monkeypatch, tmp_path, capsys, bad):
    def bench(root, workload, seed, seconds):
        return run_doc(1.0, 1.0, **(bad if (seed, root.name) == (101, "change") else {}))

    monkeypatch.setattr(bench_pair, "bench", bench)
    out = tmp_path / "bench.json"
    assert bench_pair.main(arguments(checkouts, out, 3)) == 1
    assert not out.exists()
    assert "refused: w pair 1 change" in capsys.readouterr().err


def test_counted_runs_are_written(bench_pair, checkouts, monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pair, "bench", lambda root, workload, seed, seconds: run_doc(1.0, 1.0))
    out = tmp_path / "bench.json"
    assert bench_pair.main(arguments(checkouts, out, 3)) == 0
    doc = json.loads(out.read_text())
    assert [(r["pair"], r["side"], r["seed"]) for r in doc["runs"]] == [
        (0, "parent", 100), (0, "change", 100), (1, "change", 101), (1, "parent", 101),
        (2, "parent", 102), (2, "change", 102),
    ]
    assert doc["summary"]["w"]["wall_s"]["pairs"] == 3


def test_wins_follow_each_metrics_direction(bench_pair):
    # (parent wall_s, change wall_s, parent runs_per_s, change runs_per_s) per pair
    pairs = [
        (2.0, 1.0, 5.0, 6.0),  # the change wins both
        (1.0, 2.0, 6.0, 5.0),  # the parent wins both
        (1.5, 1.5, 5.0, 5.0),  # ties count for neither
        (2.0, 1.0, 6.0, 5.0),  # the change is faster but completes fewer runs
    ]
    runs = []
    for pair, (parent_wall, change_wall, parent_rate, change_rate) in enumerate(pairs):
        runs.append({"workload": "w", "pair": pair, "side": "parent", **run_doc(parent_wall, parent_rate)})
        runs.append({"workload": "w", "pair": pair, "side": "change", **run_doc(change_wall, change_rate)})
    summary = bench_pair.summarize(runs, METRICS)["w"]
    assert summary["wall_s"]["wins"] == 2
    assert summary["runs_per_s"]["wins"] == 1
    assert summary["wall_s"]["pairs"] == summary["runs_per_s"]["pairs"] == 4
    assert summary["wall_s"]["parent"]["median"] == 1.75

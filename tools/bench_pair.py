"""Paired benchmark runs of two checkouts, alternating sides, written to one JSON file.

    python3 tools/bench_pair.py --parent ../filex-parent --change . \
        --workloads tiny-runs n-sweep --pairs 10 --seed 1001 --out bench.json

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` under this interpreter in the parent checkout and in the change
checkout, each from its own root, the parent first in even pairs and the
change first in odd ones. S is the ``run_seconds`` of the change checkout's
``BENCHMARK.json``. Each checkout's own ``perfbench`` runs, so both sides
must hold the same benchmark. The file records every run's seed, side,
order and metrics; each side's commit, the paths its files change from that
commit and the SHA-256 of ``git diff --binary HEAD`` there (which the same
diff between the commit and a later one reproduces); the CPU count and the
Python and numpy versions; and a summary per workload and end-to-end
metric: each side's median and quartiles, the ratio of the medians (change /
parent) and the pairs the change won, by the direction ``BENCHMARK.json``
gives the metric. A run that reports ``correct: false`` or failed operations
cannot be counted: the tool then names its workload, pair and side, writes
no file and exits 1. Standard library only; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SIDES = ("parent", "change")


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True).stdout


def describe(root: Path) -> dict:
    """The checkout's commit and how its tracked and staged files differ from it."""
    diff = _git(root, "diff", "--binary", "HEAD")
    return {
        "commit": _git(root, "rev-parse", "HEAD").decode().strip(),
        "changed": _git(root, "diff", "--name-only", "HEAD").decode().split(),
        "diff_sha256": hashlib.sha256(diff).hexdigest(),
    }


def numpy_version() -> str:
    """The numpy version of the interpreter that runs the benchmark, without importing numpy here."""
    done = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``root``: the JSON object of its last stdout line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, q2, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, the median ratio and the change's wins."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        rows = {}
        for metric, direction in better.items():
            values = {side: [p[side][metric]["value"] for p in pairs.values()] for side in SIDES}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            rows[metric] = {
                **{side: spread(values[side]) for side in SIDES},
                "ratio": median(values["change"]) / median(values["parent"]),
                "wins": wins,
                "pairs": len(pairs),
            }
        summary[workload] = rows
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="root of the changed checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1001, help="seed of pair 0; pair i takes seed + i")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    runs = []
    for workload in args.workloads:
        for pair in range(args.pairs):
            seed = args.seed + pair
            for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                doc = bench(roots[side], workload, seed, seconds)
                wall = doc["metrics"]["wall_s"]["value"]
                print(f"{workload} pair {pair} {side}: wall_s {wall:.4f} correct {doc['correct']}", file=sys.stderr)
                if not doc["correct"] or doc["failed"] > 0:
                    print(f"refused: {workload} pair {pair} {side} reported correct {doc['correct']} with "
                          f"{doc['failed']} of {doc['attempted']} operations failed; no file written", file=sys.stderr)
                    return 1
                runs.append({"workload": workload, "pair": pair, "side": side, "order": order, "seed": seed, **doc})
    doc = {
        "seconds": seconds,
        "pairs": args.pairs,
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version(),
        "sides": {side: describe(root) for side, root in roots.items()},
        "summary": summarize(runs, better),
        "runs": runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

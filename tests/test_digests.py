"""Byte-identity gate: sha256 digests of outputs that a refactor must not change.

Each digest covers outputs the determinism contract fixes for a given seed:
the reduced canonical alpha CSV in both modes, with ``filex table``'s output
and ``filex plot``'s SVG for it, two multi-replicate sweep CSVs whose runs
share a kernel shape, ``run`` in both modes and ``run_traced`` over a small
(alpha, beta, s, n) grid, and Kendall tau-b with its p-value over random tied
series. A change that is meant to alter one of them must say so
and record the new digest.

The digests were recorded with numpy 2.4. numpy does not promise the same
variate streams across versions, so on another version the tests skip.
"""

import functools
import hashlib
import struct

import numpy as np
import pytest

from filex.cli import main
from filex.core import ProcessParams, make_stream, run, run_traced
from filex.report import records_to_csv
from filex.stats import PairedSeries, kendall_tau
from filex.sweep import REDUCED_STRIDE, ExperimentSpec, SweepSpec, canonical_experiments, run_experiment

from conftest import MASTER_SEED

RECORDED_NUMPY = "2.4"

pytestmark = pytest.mark.skipif(
    ".".join(np.__version__.split(".")[:2]) != RECORDED_NUMPY,
    reason=f"digests recorded with numpy {RECORDED_NUMPY}, running numpy {np.__version__}",
)

# Covers every kernel: the multinomial loop (small n, large beta), the block
# copy kernel (long runs, small beta) and the reference loop.
GRID = [
    ProcessParams(alpha, beta, s, n)
    for alpha in (0.01, 1.0, 30.0)
    for beta in (1, 3, 200)
    for s in (1, 5, 64)
    for n in (0, 1, 7, 300)
]


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@functools.cache
def _reduced_alpha_csv(mode: str) -> str:
    spec = next(s for s in canonical_experiments(MASTER_SEED) if s.name == "alpha")
    return records_to_csv(spec, run_experiment(spec, mode=mode, workers=1, stride=REDUCED_STRIDE))


@pytest.mark.parametrize(
    "mode,digest",
    [
        ("fast", "ec639ffeda418238d6aac0fdb681a960e681d0cfa4559dd4c665fd710a6900a1"),
        ("reference", "294d96a40794ad3c9772086a3be48551ae89b2029a24a0d3b9b3977a55fa201a"),
    ],
)
def test_reduced_canonical_alpha_csv(mode, digest):
    assert _sha256(_reduced_alpha_csv(mode).encode()) == digest


@pytest.mark.parametrize(
    "mode,table_digest,svg_digest",
    [
        (
            "fast",
            "0bd3042e33f7e38ceb85c38d87423d206224df6dddc07d9f2b6297fcb9c60a90",
            "3688d03c003d38387e039d4c4e9686f976daf1080df8a47b23fd7bbbef95091c",
        ),
        (
            "reference",
            "fdc9f58c50f019db44967fca794efc3e82fa3c6919d9afcb72e36339ee454904",
            "f22f14865de48f3a756a699030e394e20b377f217e3d6d36c19445243e18cb54",
        ),
    ],
)
def test_reduced_canonical_alpha_table_and_plot(tmp_path, capsys, mode, table_digest, svg_digest):
    csv, svg = tmp_path / "alpha.csv", tmp_path / "alpha.svg"
    csv.write_text(_reduced_alpha_csv(mode), encoding="utf-8")
    capsys.readouterr()
    assert main(["table", str(csv)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == table_digest
    assert main(["plot", str(csv), "--out", str(svg)]) == 0
    assert _sha256(svg.read_bytes()) == svg_digest


# Sweeps of many runs per (mode, beta, s, n): 50 replicates of the tiny runs
# (n = 1, 1, 2, 3), and a reference alpha sweep with 3 replicates per point.
TINY_REPLICATED = ExperimentSpec(
    name="tiny", varied="n", sweep=SweepSpec(1, 3, 4, integral=True),
    alpha=2.0, beta=3, s=3, replicates=50, master_seed=MASTER_SEED,
)
ALPHA_REPLICATED = ExperimentSpec(
    name="alpha-reps", varied="alpha", sweep=SweepSpec(1e-4, 1e-1, 20),
    beta=10, s=64, n=50, replicates=3, master_seed=MASTER_SEED,
)


@pytest.mark.parametrize(
    "spec,mode,digest",
    [
        (TINY_REPLICATED, "fast", "735751bd93a4dc49e8cd5051d1f95394759f83796485f8063eec85e86fd47ab7"),
        (TINY_REPLICATED, "reference", "75ddeed71c3cc4ce010316e2ae592b657886079504dda5e24982f31231cef76d"),
        (ALPHA_REPLICATED, "reference", "fcf826edc565d54f3fa71837c3f889d0c0ee383e06611d4eb08c31c9afbfd461"),
    ],
    ids=["tiny-fast", "tiny-reference", "alpha-reference"],
)
def test_replicated_sweep_csv(spec, mode, digest):
    for workers in (1, 2):
        csv = records_to_csv(spec, run_experiment(spec, mode=mode, workers=workers))
        assert _sha256(csv.encode()) == digest, f"workers={workers}"


@pytest.mark.parametrize(
    "mode,digest",
    [
        ("fast", "dca8817d9d3b3dbea80fe69f1f9d1fff3182fd7b58c9015266a944bee27e3715"),
        ("reference", "bec004aa92f5900446b5843ab075e771064f8c526619644620fc40249b3f4871"),
    ],
)
def test_run_grid(mode, digest):
    chunks = (run(p, make_stream(seed), mode).probs.tobytes() for seed, p in enumerate(GRID))
    assert _sha256(*chunks) == digest


def test_run_traced_grid():
    chunks = []
    for seed, p in enumerate(GRID):
        result = run_traced(p, make_stream(seed), increment_scale=7.0)
        chunks += [result.distribution.probs.tobytes(), result.state.weights.tobytes(), result.indices.tobytes()]
    assert _sha256(*chunks) == "0709b77edf66a4bc58bf2bd45f648b9592b14b88261654f0b6bf71e2531123df"


def test_kendall_tau_over_tied_series():
    rng = np.random.default_rng(MASTER_SEED)
    chunks = []
    for _ in range(300):
        n = int(rng.integers(2, 2000))
        # few distinct values on each side, so ties are frequent
        x = rng.integers(0, int(rng.integers(2, 40)), n).astype(float)
        y = np.round(x * rng.normal(0.0, 1.0) + rng.normal(0.0, 3.0, n))
        r = kendall_tau(PairedSeries(x, y))
        chunks.append(struct.pack("<ddq", r.tau, r.p_value, r.n))
    assert _sha256(*chunks) == "43cc5b28dd6b874f855aaf63e38cdbd6a946130e9ce0541c64c9d05564cca27c"

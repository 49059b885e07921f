import os
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")

# Master seed for the canonical acceptance experiments; any value is supposed
# to satisfy the stated tolerances.
MASTER_SEED = 20260810

WORKERS = min(2, os.cpu_count() or 1)


def criterion_line(label: str, ok: bool, detail: str) -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def canonical_records():
    """Full-density fast-mode records for all four canonical experiments."""
    from filex.sweep import canonical_experiments, run_experiment

    out = {}
    for spec in canonical_experiments(MASTER_SEED):
        out[spec.name] = (spec, run_experiment(spec, mode="fast", workers=WORKERS))
    return out


@pytest.fixture
def real_pool_starts(monkeypatch):
    """Keep the real process pool; list the worker count of each pool a sweep starts."""
    from filex import sweep

    starts = []

    class SpyPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", SpyPool)
    return starts


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` lets sweeps count on k usable CPUs, for plans and pools of up to k workers."""
    from filex import sweep

    return lambda count: monkeypatch.setattr(sweep, "_usable_cpus", lambda: count)

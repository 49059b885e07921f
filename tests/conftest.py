import os

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
    """Keep the real process pool, with none running at first; list the worker count of each pool a sweep starts.

    The pool left running is shut down after the test.
    """
    from filex import sweep

    starts = []
    real = sweep._pool

    def spy(size):
        running = sweep._warm_pool
        pool = real(size)
        if pool is not running:
            starts.append(size)
        return pool

    sweep._close_pool()
    monkeypatch.setattr(sweep, "_pool", spy)
    yield starts
    sweep._close_pool()


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)`` lets sweeps count on k usable CPUs, for plans and pools of up to k workers."""
    from filex import sweep

    return lambda count: monkeypatch.setattr(sweep, "_usable_cpus", lambda: count)

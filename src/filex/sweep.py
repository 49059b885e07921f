"""Logarithmic hyperparameter sweeps and the four canonical entropy experiments.

A sweep point i of an n-step sweep from ``low`` to ``high`` takes the value
``low * (high/low) ** (i / (n - 1))``, floored exactly when the hyperparameter
is integer-valued. Each (point, replicate) pair derives its own 64-bit seed from
the experiment's master seed, so runs are independent tasks whose results do
not depend on worker count or scheduling.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields, replace
from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .core import (
    _MAX_SEED,
    Kernel,
    ProcessParams,
    _check_count,
    _check_flag,
    _check_mode,
    _check_positive,
    _kernel,
    _run_rows,
    _seed_words,
    _streams,
)
from .errors import InvalidParameterError
from .stats import CorrelationResult, PairedSeries, _entropy_bits_rows, kendall_tau

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

VARIED_NAMES = tuple(f.name for f in fields(ProcessParams))

# Coupled alpha for lexicon-size sweeps: every symbol starts at the same
# per-symbol weight regardless of s.
ALPHA_PER_SYMBOL_COUPLING = 5e-3

REDUCED_STRIDE = 4


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive logarithmic sweep definition."""

    low: float
    high: float
    steps: int
    integral: bool = False

    def __post_init__(self):
        object.__setattr__(self, "steps", _check_count("steps", self.steps, 2))
        object.__setattr__(self, "low", _check_positive("low", self.low))
        object.__setattr__(self, "high", _check_positive("high", self.high))
        object.__setattr__(self, "integral", _check_flag("integral", self.integral))
        _check_positive("high/low", self.high / self.low)  # else the inner points overflow or vanish
        if self.integral and math.floor(min(self.low, self.high)) < 1:
            raise InvalidParameterError(f"integral sweep ends must floor to >= 1, got low={self.low}, high={self.high}")


def log_sweep(spec: SweepSpec) -> list:
    """Evaluate the sweep; endpoints are exactly ``low`` and ``high``.

    Integral sweeps take the exact floor of every value (:func:`_exact_floor`)
    and keep duplicates.
    """
    n = spec.steps
    ratio = spec.high / spec.low
    values = [spec.low * ratio ** (i / (n - 1)) for i in range(n)]
    values[0] = spec.low
    values[-1] = spec.high
    if spec.integral:
        return [_exact_floor(spec.low, spec.high, i, n - 1, v) for i, v in enumerate(values)]
    return values


def _exact_floor(low: float, high: float, i: int, last: int, value: float) -> int:
    """The floor of ``low**((last - i)/last) * high**(i/last)``, whose float estimate is ``value``.

    The float estimate can round across an integer: ``64 ** (2/6)`` gives
    3.9999999999999996. Its relative error is far below 1e-9, so the floor
    lies in [lo, hi], the floors of ``value`` -/+ a relative 1e-9; when they
    differ, a bisection there finds the largest m with
    ``m**last <= low**(last - i) * high**i``, compared exactly in integers
    through each float's ratio num/den.
    """
    slack = 1e-9 * value
    lo, hi = math.floor(value - slack), math.floor(value + slack)
    if lo < hi:
        (a, b), (c, d) = low.as_integer_ratio(), high.as_integer_ratio()
        num, den = a ** (last - i) * c**i, b ** (last - i) * d**i
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid**last * den <= num else (lo, mid - 1)
    return lo


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a swept hyperparameter, the fixed others, and seeding.

    The varied parameter's field must be None. ``alpha_coupled_to_s`` replaces
    a fixed alpha with ``5e-3 * s`` at every point of an s sweep. The name
    becomes a CSV field, so it may not hold a comma or any line boundary that
    :meth:`str.splitlines` breaks at, and must encode as UTF-8. Every sweep
    point must make valid :class:`ProcessParams` and a positive finite x on
    its axis (:func:`sweep_axis`), so a spec that exists can run and its
    records can be tabled and plotted.
    """

    name: str
    varied: str
    sweep: SweepSpec
    alpha: float | None = None
    beta: int | None = None
    s: int | None = None
    n: int | None = None
    alpha_coupled_to_s: bool = False
    replicates: int = 1
    master_seed: int = 0

    def __post_init__(self):
        # the CSV reader splits lines with str.splitlines; the "." makes a boundary at the name's end split too
        if "," in self.name or len((self.name + ".").splitlines()) > 1:
            raise InvalidParameterError(f"name must not contain a comma or a line break, got {self.name!r}")
        try:  # the CSV is written as UTF-8, which a lone surrogate cannot be
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise InvalidParameterError(f"name must encode as UTF-8, got {self.name!r}") from None
        if self.varied not in VARIED_NAMES:
            raise InvalidParameterError(f"varied must be one of {VARIED_NAMES}, got {self.varied!r}")
        if getattr(self, self.varied) is not None:
            raise InvalidParameterError(f"varied parameter {self.varied!r} must not also be given a fixed value")
        object.__setattr__(self, "alpha_coupled_to_s", _check_flag("alpha_coupled_to_s", self.alpha_coupled_to_s))
        if self.alpha_coupled_to_s:
            if self.varied != "s":
                raise InvalidParameterError("alpha_coupled_to_s is only valid when varying s")
            if self.alpha is not None:
                raise InvalidParameterError("alpha must be omitted when coupled to s")
        object.__setattr__(self, "replicates", _check_count("replicates", self.replicates, 1))
        object.__setattr__(self, "master_seed", _check_count("master_seed", self.master_seed, 0, _MAX_SEED))
        # the ends suffice: floored counts lie between them; (alpha/s)/(alpha+n) and each axis map are monotone in a sweep
        label, to_x = sweep_axis(self.varied)
        for index, value in zip((0, self.sweep.steps - 1), log_sweep(replace(self.sweep, steps=2))):
            try:
                self.params_at(value)
                _check_positive(label, to_x(value))
            except InvalidParameterError as exc:
                raise InvalidParameterError(f"sweep point {index} ({self.varied}={value!r}): {exc}") from exc

    @property
    def correlate_inverse(self) -> bool:
        """Whether the sweep is correlated against 1/alpha, as every alpha sweep is."""
        return self.varied == "alpha"

    def params_at(self, value) -> ProcessParams:
        """Process parameters for one sweep value of the varied hyperparameter."""
        values = {name: getattr(self, name) for name in VARIED_NAMES}
        values[self.varied] = value
        if self.alpha_coupled_to_s:
            values["alpha"] = ALPHA_PER_SYMBOL_COUPLING * values["s"]
        return ProcessParams(**values)


@dataclass(frozen=True, slots=True, init=False)
class RunRecord:
    """One completed run of an experiment."""

    experiment: str
    param_value: float
    replicate: int
    seed: int
    entropy_bits: float

    def __init__(self, experiment: str, param_value: float, replicate: int, seed: int, entropy_bits: float):
        # The generated __init__ of a frozen class sets each field through
        # object.__setattr__, which looks the slot up by name; the slots' own
        # setters skip that lookup.
        _set_experiment(self, experiment)
        _set_param_value(self, param_value)
        _set_replicate(self, replicate)
        _set_seed(self, seed)
        _set_entropy_bits(self, entropy_bits)


_set_experiment, _set_param_value, _set_replicate, _set_seed, _set_entropy_bits = (
    RunRecord.__dict__[f.name].__set__ for f in fields(RunRecord)
)


def canonical_experiments(master_seed: int) -> list[ExperimentSpec]:
    """The four canonical experiments, one per hyperparameter.

    (a) alpha from 1e-4 to 1e-1 over 200 points (beta=10, s=64, n=1000);
    (b) beta from 2**3 to 2**15 over 600 integer points (alpha=1e-3, s=64,
        n=10000);
    (c) s from 2**3 to 2**8 over 400 integer points (beta=10, n=1000) with
        alpha coupled to 5e-3 * s;
    (d) n from 1e2 to 1e6 over 400 integer points (alpha=1, beta=5, s=64).
    """
    return [
        ExperimentSpec(
            name="alpha", varied="alpha", sweep=SweepSpec(1e-4, 1e-1, 200),
            beta=10, s=64, n=1000, master_seed=master_seed,
        ),
        ExperimentSpec(
            name="beta", varied="beta", sweep=SweepSpec(2**3, 2**15, 600, integral=True),
            alpha=1e-3, s=64, n=10000, master_seed=master_seed,
        ),
        ExperimentSpec(
            name="s", varied="s", sweep=SweepSpec(2**3, 2**8, 400, integral=True),
            beta=10, n=1000, alpha_coupled_to_s=True, master_seed=master_seed,
        ),
        ExperimentSpec(
            name="n", varied="n", sweep=SweepSpec(1e2, 1e6, 400, integral=True),
            alpha=1.0, beta=5, s=64, master_seed=master_seed,
        ),
    ]


_MASK64 = (1 << 64) - 1


def _splitmix64(z):
    """One round of the SplitMix64 integer mixer on a Python int in [0, 2**64), or on every element of a uint64 array.

    The mask after the add and after each multiply takes a Python int mod
    2**64; array arithmetic wraps there already, silently. Keep array
    operands arrays, as numpy scalars warn on overflow.
    """
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _run_seeds(master_seed: int, points: Sequence[int], replicates: Sequence[int]) -> np.ndarray:
    """:func:`derive_run_seed` of every (point, replicate) pair, as a (points, replicates) uint64 array.

    The inputs are integers in [0, 2**64).
    """
    h = _splitmix64(np.array(points, dtype=np.uint64)[:, None] ^ _splitmix64(master_seed))
    return _splitmix64(h ^ np.array(replicates, dtype=np.uint64))


def derive_run_seed(master_seed: int, point_index: int, replicate: int) -> int:
    """Deterministic 64-bit seed for one (sweep point, replicate) task.

    Chains SplitMix64 over the three inputs, each taken mod 2**64, so the
    seed depends on nothing but them; execution order and worker count
    cannot change it.
    """
    master_seed, point_index, replicate = (int(v) & _MASK64 for v in (master_seed, point_index, replicate))
    return _splitmix64(_splitmix64(_splitmix64(master_seed) ^ point_index) ^ replicate)


def _calls(points: Sequence[ProcessParams], replicates: int, mode: str, workers: int = 1) -> list[tuple[Kernel, np.ndarray]]:
    """Task indices cut into kernel calls, each with the :class:`core.Kernel` its rows share.

    Point p owns tasks p*replicates to p*replicates + replicates - 1, and
    points whose kernel and group key in ``mode`` agree (:func:`core._kernel`)
    form a group of their tasks. Each group is cut into the fewest calls that
    keep to its kernel's row cap and, where a call holds more than one row, to
    an even share of the modelled work of all groups over ``workers``: a group
    that holds most of the work is split about ``workers`` ways. Rows are
    dealt to a group's calls in turn, so calls differ by at most one row and
    share out costs the model leaves out, such as the multinomial loop's with beta.
    """
    shapes: dict[tuple, list[int]] = {}
    for p, params in enumerate(points):
        shapes.setdefault((params.beta, params.s, params.n), []).append(p)
    groups: dict[tuple, tuple] = {}
    for members in shapes.values():  # one pick per shape, not per point
        kernel = _kernel(points[members[0]], mode)
        groups.setdefault((kernel.run, kernel.key), (kernel, []))[1].extend(members)
    # every group's tasks, group after group, in one pass
    tasks = np.add.outer(np.array([p for _, members in groups.values() for p in members]) * replicates, np.arange(replicates))
    share = sum(kernel.price(len(members) * replicates) for kernel, members in groups.values()) / workers
    calls, start = [], 0
    for kernel, members in groups.values():
        group, start = tasks[start:start + len(members)].reshape(-1), start + len(members)
        shares = math.ceil(kernel.price(len(group)) / share)
        parts = max(-(-len(group) // kernel.max_rows), min(len(group), shares))
        calls.extend((kernel, group[part::parts]) for part in range(parts))
    return calls


def _run_calls(calls: list[tuple[Callable, list[ProcessParams], bytes]]) -> list[list[float]]:
    """Entropies of the rows of planned kernel calls ``(kernel.run, rows, words)``, one list per call.

    ``words`` is the bytes of the rows' (R, 4) uint64 seed words
    (:func:`core._seed_words`): bytes and float lists pickle to and from a
    pool worker far cheaper than arrays. Each row draws only from the stream
    of its words (:func:`core._streams`), so every entropy equals that of its
    run alone, ``shannon_entropy_bits(run(params, make_stream(seed), mode))``.
    Normalization, checks and entropy are made once per call, for all rows.
    """
    return [
        _entropy_bits_rows(_run_rows(run, rows, _streams(np.frombuffer(words, np.uint64).reshape(-1, 4)))).tolist()
        for run, rows, words in calls
    ]


# Modelled work per pool call. One call costs about 0.6 ms of IPC and
# pickling, so 10 ms chunks spread it thin, while chunks stay small enough
# for the workers to finish close together.
_CHUNK_US = 10_000.0


def _chunk_plan(costs: Sequence[float]) -> list[list[int]]:
    """Indices of kernel calls cut into chunks of about ``_CHUNK_US`` modelled work, costliest first.

    Calls are taken in non-increasing order of cost (ties in call order) and
    a chunk closes before the call that would take it past the target, so a
    call costing more than the target sits alone, and every call of a chunk
    costs at least as much as every call of the chunks after it.
    """
    chunks: list[list[int]] = []
    total = 0.0
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        if not chunks or total + costs[i] > _CHUNK_US:
            chunks.append([])
            total = 0.0
        chunks[-1].append(i)
        total += costs[i]
    return chunks


# Modelled start-up plus shutdown of a process pool, per worker, by the
# start method its workers take, and the dispatch of one sweep to a pool
# that is already running. Interleaved medians on 2 CPUs (Python 3.11,
# numpy 2.4), scaled to 11.6 us per multinomial iteration at s = 64: a pool
# that starts its workers, runs one empty chunk on each and shuts down took,
# under fork, 10.7 ms with 1 worker, 14.5 ms with 2 and 26.0 ms with 4, so
# 7.3 ms and 6.5 ms per worker at 2 and 4. Under forkserver and spawn each
# worker imports numpy and filex first. The same steps through
# multiprocessing.get_context(method), scaled by perfbench/hostspeed.py's
# unit, medians of 7 interleaved rounds, took 112 ms with 1 worker and 171
# ms with 2 under forkserver and 169 ms and 269 ms under spawn, while fork
# read 7.3 ms and 8.4 ms; the price per worker is the 2-worker time over 2.
# One empty chunk per worker on a running pool took 0.40 ms with 1 worker
# and 0.64 ms with 2.
_POOL_WORKER_US = {"fork": 7_500.0, "forkserver": 85_000.0, "spawn": 135_000.0}
_POOL_SWEEP_US = 700.0


def _start_method() -> str:
    """The start method a pool started now would give its workers, read without fixing this process's."""
    import multiprocessing

    return multiprocessing.get_start_method(allow_none=True) or multiprocessing.get_all_start_methods()[0]


def _pool_size(costs: Sequence[float], plan: list[list[int]], workers: int, bar: float, warm: int) -> int:
    """Workers to run ``plan`` on, or 0 to run the sweep in this process.

    ``costs`` price the calls split for ``workers``; ``bar`` prices the
    unsplit calls, which run when no pool starts; ``warm`` counts the workers
    of this process's running pool (:func:`_pool`). A pool of k =
    min(workers, chunks) processes pays for itself when its modelled cost
    plus its makespan bound, the larger of an even share of the split total
    and the costliest chunk, is below ``bar``. Its cost is one sweep's
    dispatch, plus the start-up of all k workers under the start method in
    use (:func:`_start_method`) unless ``warm`` is at least k, since a
    smaller pool is replaced. A split adds calls, never removes them, so one
    chunk (k = 1) never pools.
    """
    k = min(workers, len(plan))
    largest = max(sum(costs[i] for i in chunk) for chunk in plan)
    start_up = _POOL_WORKER_US[_start_method()] * k if warm < k else 0.0
    return k if _POOL_SWEEP_US + start_up + max(sum(costs) / k, largest) < bar else 0


# This process's pool, kept running for later sweeps, its worker count, and
# the lock a sweep holds from taking the pool until its chunks are back, so a
# sweep in another thread cannot replace the pool under it. The pool modules
# are imported only where a pool is priced, started or watched, so a process
# that never pools does not load them.
_warm_pool: ProcessPoolExecutor | None = None
_warm_workers = 0
_pool_lock = threading.Lock()


def _pool(size: int) -> ProcessPoolExecutor:
    """This process's pool, first replaced by one of ``size`` workers if it has fewer.

    The old pool is shut down before the new one starts, so no worker is
    forked while the old pool's threads run.
    """
    global _warm_pool, _warm_workers
    if _warm_workers < size:
        from concurrent.futures import ProcessPoolExecutor

        _close_pool()
        _warm_pool = ProcessPoolExecutor(size, initializer=_exit_with_parent)
        _warm_workers = size
    return _warm_pool


def _close_pool() -> None:
    """Shut down this process's pool, if it has one."""
    global _warm_pool, _warm_workers
    if _warm_pool is not None:
        _warm_pool.shutdown()
    _warm_pool, _warm_workers = None, 0


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool without a shutdown, and take a lock of its own."""
    global _warm_pool, _warm_workers, _pool_lock
    _warm_pool, _warm_workers, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _exit_with_parent() -> None:
    """Pool-worker initializer: end this worker once the process that started the pool is gone.

    A thread watches for either sign. A worker forked or spawned by that
    process is re-parented; a forked worker's sentinel may stay open, as
    workers forked after it hold copies. A worker started by a forkserver
    keeps its parent, since the forkserver lives as long as its workers,
    but sees its parent sentinel, a pipe that process holds open, close.
    SIGKILL skips the exit hook that shuts the pool down, so without this
    the workers would outlive the pool's process.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    parent, sentinel = os.getppid(), multiprocessing.parent_process().sentinel

    def watch():
        while os.getppid() == parent and not wait([sentinel], timeout=0.5):
            pass
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool_map(size: int, work: list) -> list:
    """:func:`_run_calls` of every chunk of ``work`` on this process's pool of at least ``size`` workers.

    Pooled sweeps in several threads take turns. A pool that breaks, because
    a worker died, is replaced and the chunks run once more on the new one;
    a second break is raised.
    """
    from concurrent.futures.process import BrokenProcessPool

    with _pool_lock:
        for attempt in range(2):
            try:
                return list(_pool(size).map(_run_calls, work))
            except BrokenProcessPool:
                _close_pool()
                if attempt:
                    raise


def _usable_cpus() -> int:
    """CPUs this process may run on: the pool rule models one CPU per worker."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_tasks(points: Sequence[ProcessParams], replicates: int, words: np.ndarray, mode: str, workers: int) -> np.ndarray:
    """Entropy of every task, in task order: the one place a sweep is planned.

    Task t runs ``points[t // replicates]`` on the stream of ``words[t]``, its
    seed words (:func:`core._seed_words`). In this process the tasks run as
    the kernel calls of :func:`_calls`. With more than one worker they are
    also planned as calls split for ``workers``, cut into the chunks of
    :func:`_chunk_plan`, which go to a pool if :func:`_pool_size` finds one
    that beats the unsplit calls. Workers run their chunks' calls as planned.
    Each task's entropy depends only on the task, so neither plan can change
    the result. ``workers`` is capped at the usable CPUs, so the plan and the
    pool never count on more processes than can run at once.
    """
    workers = min(workers, _usable_cpus())
    calls = _calls(points, replicates, mode)
    chunks, size = [calls], 0
    if workers > 1:
        split = _calls(points, replicates, mode, workers)
        costs = [kernel.price(len(call)) for kernel, call in split]
        plan = _chunk_plan(costs)
        bar = sum(kernel.price(len(call)) for kernel, call in calls)
        size = _pool_size(costs, plan, workers, bar, _warm_workers)
        chunks = [[split[c] for c in chunk] for chunk in plan] if size else chunks
    # the rows and seed words of every call, in plan order, in one pass; each call takes its slice
    order = np.concatenate([call for chunk in chunks for _, call in chunk])
    params = np.empty(len(points), dtype=object)
    params[:] = points
    rows, words = params[order // replicates].tolist(), words[order]
    work, start = [], 0
    for chunk in chunks:
        work.append([])
        for kernel, call in chunk:
            work[-1].append((kernel.run, rows[start:start + len(call)], words[start:start + len(call)].tobytes()))
            start += len(call)
    results = _pool_map(size, work) if size else map(_run_calls, work)
    entropies = np.empty(len(order))
    entropies[order] = np.fromiter(chain.from_iterable(chain.from_iterable(results)), np.float64, len(order))
    return entropies


def run_experiment(
    spec: ExperimentSpec,
    mode: str = "fast",
    workers: int = 1,
    stride: int = 1,
) -> list[RunRecord]:
    """Execute every (sweep point, replicate) run and collect entropy records.

    ``stride`` keeps every stride-th sweep point (the reduced preset uses 4);
    point indices from the full sweep feed the seed derivation, so a strided
    record list is exactly a subset of the full one. All the seeds are hashed
    once, here (:func:`core._seed_words`). With ``workers`` > 1 the runs are
    scheduled by their modelled cost (:func:`_run_tasks`), and a pool started
    for them stays running for later sweeps in this process; pooled sweeps
    from several threads take turns on it. Output order is (point, replicate)
    regardless of ``workers``.
    """
    mode = _check_mode(mode)
    stride = _check_count("stride", stride, 1)
    workers = _check_count("workers", workers, 1)
    values = log_sweep(spec.sweep)[::stride]
    replicates = spec.replicates
    seeds = _run_seeds(spec.master_seed, range(0, spec.sweep.steps, stride), range(replicates)).reshape(-1)
    points = [spec.params_at(value) for value in values]
    entropies = _run_tasks(points, replicates, _seed_words(seeds), mode, workers)
    return list(map(
        RunRecord,
        repeat(spec.name),
        chain.from_iterable(repeat(float(value), replicates) for value in values),
        chain.from_iterable(repeat(range(replicates), len(values))),
        seeds.tolist(),
        entropies.tolist(),
    ))


# x axis per swept hyperparameter: (label, map from swept value to x). Alpha
# sweeps use 1/alpha, the sign convention of the canonical correlation table.
_AXES = {
    "alpha": ("1/alpha", lambda v: 1.0 / v),
    "beta": ("beta", float),
    "s": ("S", float),
    "n": ("N", float),
}


def sweep_axis(param_name: str) -> tuple[str, Callable[[float], float]]:
    """Axis label and swept-value-to-x map for correlating and plotting a sweep."""
    return _AXES[param_name]


def correlate(param_name: str, records) -> CorrelationResult:
    """Kendall tau-b between x and entropy over one sweep's RunRecords or CSV rows.

    The one path from run records to a correlation: x is each record's
    ``param_value`` as :func:`sweep_axis` maps it for ``param_name``, y its
    ``entropy_bits``.
    """
    to_x = sweep_axis(param_name)[1]
    return kendall_tau(PairedSeries([to_x(r.param_value) for r in records], [r.entropy_bits for r in records]))

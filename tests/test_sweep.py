import copy
import dataclasses
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from filex import sweep
from filex import core
from filex.core import (
    ProcessParams,
    _block_rows,
    _kernel,
    _multinomial_rows,
    _seed_words,
    init_weights,
    make_stream,
    run,
    step,
    step_fast,
)
from filex.errors import InvalidParameterError, UndefinedCorrelationError
from filex.stats import PairedSeries, kendall_tau, shannon_entropy_bits
from filex.sweep import (
    ALPHA_PER_SYMBOL_COUPLING,
    ExperimentSpec,
    RunRecord,
    SweepSpec,
    canonical_experiments,
    correlate,
    derive_run_seed,
    log_sweep,
    run_experiment,
)


class TestSweepSpec:
    def test_steps_must_be_at_least_two(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(1.0, 10.0, 1)

    def test_bounds_positive(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(0.0, 10.0, 5)
        with pytest.raises(InvalidParameterError):
            SweepSpec(1.0, -10.0, 5)

    def test_integral_low_floor(self):
        with pytest.raises(InvalidParameterError):
            SweepSpec(0.5, 10.0, 5, integral=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(low=True, high=10.0, steps=5),
            dict(low="x", high=10.0, steps=5),
            dict(low=1.0, high=float("inf"), steps=5),
            dict(low=1.0, high=10.0, steps=True),
            dict(low=1.0, high=10.0, steps=5.0),
            dict(low=2.2e-309, high=1.0, steps=3),  # high/low overflows: the middle point would be inf
            dict(low=1e300, high=1e-300, steps=3),  # high/low underflows: the middle point would be 0
            dict(low=5, high=0.5, steps=3, integral=True),  # descending: the last point would floor to 0
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SweepSpec(**kwargs)

    def test_numpy_int_steps_accepted(self):
        spec = SweepSpec(1, 8, np.int64(3))
        assert spec.steps == 3 and type(spec.steps) is int


class TestLogSweep:
    def test_decades(self):
        values = log_sweep(SweepSpec(1e2, 1e6, 5))
        for got, want in zip(values, [1e2, 1e3, 1e4, 1e5, 1e6]):
            assert got == pytest.approx(want, rel=1e-12)

    def test_endpoints_exact(self):
        spec = SweepSpec(3.7e-3, 91.4, 17)
        values = log_sweep(spec)
        assert values[0] == 3.7e-3
        assert values[-1] == 91.4

    def test_integral_buffer_row(self):
        values = log_sweep(SweepSpec(2**3, 2**15, 600, integral=True))
        assert len(values) == 600
        assert values[0] == 8
        assert values[-1] == 32768
        assert all(isinstance(v, int) for v in values)

    def test_integral_exact_powers(self):
        # the float estimates of 4, 16, 10 and 100 lie one ulp below them
        assert log_sweep(SweepSpec(1, 64, 7, integral=True)) == [1, 2, 4, 8, 16, 32, 64]
        assert log_sweep(SweepSpec(1, 1000, 4, integral=True)) == [1, 10, 100, 1000]

    def test_integral_canonical_values_are_the_float_floors(self):
        # no canonical point lies near an integer, so its 1400 values stay the float floors
        sweeps = [spec.sweep for spec in canonical_experiments(0) if spec.sweep.integral]
        assert sum(s.steps for s in sweeps) == 1400
        for spec in sweeps:
            continuous = log_sweep(SweepSpec(spec.low, spec.high, spec.steps))
            assert log_sweep(spec) == [math.floor(v) for v in continuous]

    @given(
        low=st.integers(min_value=1, max_value=50),
        factor=st.integers(min_value=1, max_value=2000),
        steps=st.integers(min_value=2, max_value=40),
    )
    def test_property_integral_floor_exact(self, low, factor, steps):
        # m is the floor of low**((last - i)/last) * high**(i/last): m**last <= that**last < (m + 1)**last
        high, last = low * factor, steps - 1
        for i, m in enumerate(log_sweep(SweepSpec(low, high, steps, integral=True))):
            bound = Fraction(low) ** (last - i) * Fraction(high) ** i
            assert m**last <= bound < (m + 1) ** last

    def test_integral_keeps_duplicates(self):
        values = log_sweep(SweepSpec(1, 4, 10, integral=True))
        assert len(values) == 10
        assert values.count(1) > 1

    @given(
        low=st.floats(min_value=1e-6, max_value=1e3),
        ratio=st.floats(min_value=1.001, max_value=1e6),
        steps=st.integers(min_value=2, max_value=200),
    )
    def test_property_endpoints_and_monotone(self, low, ratio, steps):
        spec = SweepSpec(low, low * ratio, steps)
        values = log_sweep(spec)
        assert values[0] == spec.low
        assert values[-1] == spec.high
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


class TestExperimentSpec:
    def test_varied_field_must_be_none(self):
        with pytest.raises(InvalidParameterError):
            ExperimentSpec(name="x", varied="beta", sweep=SweepSpec(1, 8, 4, integral=True),
                           alpha=1.0, beta=3, s=4, n=10)

    def test_fixed_fields_required(self):
        with pytest.raises(InvalidParameterError, match=r"^sweep point 0 \(beta=1\): n must be an integer, got None$"):
            ExperimentSpec(name="x", varied="beta", sweep=SweepSpec(1, 8, 4, integral=True),
                           alpha=1.0, s=4)

    def test_sweep_checked_at_its_last_end(self):
        # a descending alpha sweep: (alpha/s)/(alpha+n) underflows only at alpha = 1e-300, the last point
        with pytest.raises(InvalidParameterError, match=r"^sweep point 2 \(alpha=1e-300\): \(alpha/s\)"):
            ExperimentSpec(name="x", varied="alpha", sweep=SweepSpec(1.0, 1e-300, 3),
                           beta=2, s=10**10, n=10**20)
        # (alpha/s)/(alpha+n) is subnormal at n = 1 and underflows only at n = 1e20
        with pytest.raises(InvalidParameterError, match=r"^sweep point 2 \(n=100000000000000000000\): \(alpha/s\)"):
            ExperimentSpec(name="x", varied="n", sweep=SweepSpec(1, 1e20, 3, integral=True),
                           alpha=1e-300, beta=2, s=10**10)

    @given(
        varied=st.sampled_from(["alpha", "beta", "s", "n"]),
        low=st.floats(1e-310, 1e25),
        high=st.floats(1e-310, 1e25),
        steps=st.integers(2, 40),
        alpha=st.floats(1e-310, 1e3),
        count=st.integers(1, 10**12),
        coupled=st.booleans(),
    )
    def test_valid_ends_make_every_point_valid(self, varied, low, high, steps, alpha, count, coupled):
        # the check at the two ends stands for every point of the sweep
        coupled = coupled and varied == "s"
        fixed = {"alpha": None if coupled else alpha, "beta": 2, "s": count, "n": count, varied: None}
        try:
            sweep_spec = SweepSpec(low, high, steps, integral=varied != "alpha")
            spec = ExperimentSpec(name="x", varied=varied, sweep=sweep_spec, alpha_coupled_to_s=coupled, **fixed)
        except InvalidParameterError:
            return
        for value in log_sweep(sweep_spec):
            spec.params_at(value)

    def test_coupling_only_when_varying_s(self):
        with pytest.raises(InvalidParameterError):
            ExperimentSpec(name="x", varied="beta", sweep=SweepSpec(1, 8, 4, integral=True),
                           alpha=1.0, s=4, n=10, alpha_coupled_to_s=True)

    @pytest.mark.parametrize(  # a comma: test_cli
        "name", ["a\nb", "a\rb", *(f"a{c}b" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"), "a\u2028", "\x85",
                 "a\ud800", "\udfff"]  # lone surrogates, which UTF-8 cannot encode
    )
    def test_name_must_fit_a_csv_field(self, name):
        with pytest.raises(InvalidParameterError, match="name"):
            ExperimentSpec(name=name, varied="n", sweep=SweepSpec(1, 8, 4, integral=True),
                           alpha=1.0, beta=2, s=4)

    @pytest.mark.parametrize("master_seed", [2.7, True, -1, 2**64])
    def test_master_seed_must_be_a_64_bit_integer(self, master_seed):
        with pytest.raises(InvalidParameterError, match="master_seed"):
            ExperimentSpec(name="x", varied="n", sweep=SweepSpec(1, 8, 4, integral=True),
                           alpha=1.0, beta=2, s=4, master_seed=master_seed)

    @pytest.mark.parametrize("replicates", [0, True, 1.0])
    def test_replicates_must_be_a_positive_integer(self, replicates):
        with pytest.raises(InvalidParameterError, match="replicates"):
            ExperimentSpec(name="x", varied="n", sweep=SweepSpec(1, 8, 4, integral=True),
                           alpha=1.0, beta=2, s=4, replicates=replicates)

    def test_params_at_applies_coupling(self):
        spec = ExperimentSpec(name="s", varied="s", sweep=SweepSpec(8, 256, 10, integral=True),
                              beta=10, n=100, alpha_coupled_to_s=True)
        params = spec.params_at(64)
        assert params.alpha == pytest.approx(0.32)
        assert params.alpha / params.s == pytest.approx(ALPHA_PER_SYMBOL_COUPLING)


class TestCanonicalExperiments:
    def test_four_rows(self):
        specs = canonical_experiments(1)
        assert [s.name for s in specs] == ["alpha", "beta", "s", "n"]

    def test_alpha_row(self):
        spec = canonical_experiments(1)[0]
        assert (spec.beta, spec.s, spec.n) == (10, 64, 1000)
        assert spec.correlate_inverse
        assert (spec.sweep.low, spec.sweep.high, spec.sweep.steps) == (1e-4, 1e-1, 200)
        assert not spec.sweep.integral

    def test_beta_row(self):
        spec = canonical_experiments(1)[1]
        assert (spec.alpha, spec.s, spec.n) == (1e-3, 64, 10000)
        assert (spec.sweep.low, spec.sweep.high, spec.sweep.steps) == (8, 32768, 600)
        assert spec.sweep.integral

    def test_s_row_coupled(self):
        spec = canonical_experiments(1)[2]
        assert (spec.beta, spec.n) == (10, 1000)
        assert spec.alpha_coupled_to_s
        assert spec.params_at(64).alpha == pytest.approx(0.32)
        assert (spec.sweep.low, spec.sweep.high, spec.sweep.steps) == (8, 256, 400)

    def test_n_row_endpoints(self):
        spec = canonical_experiments(1)[3]
        assert (spec.alpha, spec.beta, spec.s) == (1.0, 5, 64)
        values = log_sweep(spec.sweep)
        assert values[0] == 100
        assert values[-1] == 1_000_000
        assert len(values) == 400

    def test_replicates_default_one(self):
        assert all(s.replicates == 1 for s in canonical_experiments(1))


MASK64 = 2**64 - 1


def splitmix64_reference(value: int) -> int:
    """One SplitMix64 round in Python integers: the reference for the array form."""
    z = (value + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def run_seed_reference(master_seed: int, point_index: int, replicate: int) -> int:
    h = splitmix64_reference(master_seed & MASK64)
    h = splitmix64_reference(h ^ (point_index & MASK64))
    return splitmix64_reference(h ^ (replicate & MASK64))


class TestSeedDerivation:
    def test_arrays_match_scalar_chain(self):
        masters = [0, 1, 99, 2**32, 2**63, MASK64]
        points = [0, 1, 7, 399, 2**32 + 5, 2**63, MASK64]
        replicates = [0, 1, 2, 10**6, 2**40, MASK64]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning from a numpy scalar fails the test
            for master in masters:
                expected = [[run_seed_reference(master, p, r) for r in replicates] for p in points]
                assert sweep._run_seeds(master, points, replicates).tolist() == expected
                assert [[derive_run_seed(master, p, r) for r in replicates] for p in points] == expected
            assert derive_run_seed(-1, -2, 2**64 + 3) == run_seed_reference(-1, -2, 2**64 + 3)

    def test_records_carry_derived_seeds(self):
        spec = tiny_spec(replicates=3, master_seed=MASK64)
        records = run_experiment(spec, stride=3)
        assert [r.seed for r in records] == [
            run_seed_reference(MASK64, p, r) for p in range(0, 8, 3) for r in range(3)
        ]
        assert all(type(r.seed) is int for r in records)

    def test_deterministic(self):
        assert derive_run_seed(1, 2, 3) == derive_run_seed(1, 2, 3)

    def test_inputs_matter(self):
        base = derive_run_seed(10, 20, 30)
        assert derive_run_seed(11, 20, 30) != base
        assert derive_run_seed(10, 21, 30) != base
        assert derive_run_seed(10, 20, 31) != base

    def test_range(self):
        seeds = {derive_run_seed(0, i, r) for i in range(50) for r in range(3)}
        assert len(seeds) == 150
        assert all(0 <= s < 2**64 for s in seeds)


def tiny_spec(replicates=1, master_seed=99):
    return ExperimentSpec(
        name="tiny", varied="n", sweep=SweepSpec(5, 50, 8, integral=True),
        alpha=0.5, beta=3, s=8, replicates=replicates, master_seed=master_seed,
    )


# (beta, s, n) shapes of the chunk tests: s = 1, n = 0, runs long enough for
# the block copy kernel, and betas that leave room for one or a few reference
# iterations per block of about _BLOCK_DRAWS draws over all rows. In fast mode
# the last four are multinomial-loop shapes with beta >= 187, two per (s, n),
# so their groups mix betas.
CHUNK_SHAPES = [(1, 1, 0), (3, 3, 2), (2, 1, 5), (1, 5, 12), (2100, 2, 3), (700, 5, 12), (187, 5, 12), (1000, 2, 3)]
CHUNK_ALPHAS = [0.01, 1.0, 2.0, 37.5]


def entropy_alone(params, seed, mode):
    """Entropy of one run, by folding ``step`` (reference) or ``step_fast`` (the
    multinomial loop) over the initial weights, or by ``run`` (the block kernel)."""
    rng = make_stream(seed)
    if _kernel(params, mode).run is _block_rows:
        return shannon_entropy_bits(run(params, rng, mode))
    state = init_weights(params)
    for _ in range(params.n):
        state = (step if mode == "reference" else step_fast)(state, params.beta, rng)
    return shannon_entropy_bits(state.weights / state.weights.sum())


class TestEntropyChunk:
    """A sweep run in this process: one chunk, the unsplit calls of :func:`sweep._calls`, run by :func:`sweep._run_calls`."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(CHUNK_SHAPES),
                st.sampled_from(CHUNK_ALPHAS),
                st.integers(min_value=0, max_value=2**64 - 1),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([1, 3]),
        st.sampled_from(["reference", "fast"]),
    )
    def test_property_rows_equal_runs_alone(self, drawn, replicates, mode):
        # replicate r of a point drawn with seed x runs on seed x + r (mod 2**64)
        points = [ProcessParams(alpha, beta, s, n) for (beta, s, n), alpha, _ in drawn]
        seeds = [(seed + r) & MASK64 for _, _, seed in drawn for r in range(replicates)]
        entropies = sweep._run_tasks(points, replicates, _seed_words(seeds), mode, 1)
        assert entropies.tolist() == [entropy_alone(points[t // replicates], seed, mode) for t, seed in enumerate(seeds)]

    def test_every_kernel_covered(self):
        kernels = [_kernel(ProcessParams(1.0, beta, s, n), "fast") for beta, s, n in CHUNK_SHAPES]
        assert {kernel.run.__name__ for kernel in kernels} == {"_multinomial_rows", "_block_rows"}
        betas = {}
        for (beta, _, _), kernel in zip(CHUNK_SHAPES, kernels):
            if kernel.run is _multinomial_rows and beta >= 187:
                betas.setdefault(kernel.key, set()).add(beta)
        assert sorted(map(len, betas.values())) == [2, 2]

    def test_groups_cut_into_calls_keep_entropies(self, monkeypatch):
        # 32 points, each shape with 4 alphas; task t runs on seed t
        points = [ProcessParams(alpha, beta, s, n) for (beta, s, n), alpha in zip(CHUNK_SHAPES * 4, CHUNK_ALPHAS * 8)]

        def entropies(replicates):
            words = _seed_words(range(len(points) * replicates))
            return {mode: sweep._run_tasks(points, replicates, words, mode, 1).tolist() for mode in ("reference", "fast")}

        whole = {replicates: entropies(replicates) for replicates in (1, 3)}
        for replicates, by_mode in whole.items():
            for mode, found in by_mode.items():
                assert found == [entropy_alone(points[t // replicates], t, mode) for t in range(len(found))]
        calls = []
        real = sweep._run_rows
        monkeypatch.setattr(sweep, "_run_rows", lambda kernel, rows, rngs: calls.append(len(rows)) or real(kernel, rows, rngs))
        assert entropies(1) == whole[1]
        # groups of 4 tasks, but the fast groups at (s, n) = (2, 3) and (5, 12) mix two betas
        # each, and a reference row at beta 2100 fills a call
        assert sorted(calls) == [1] * 4 + [4] * 11 + [8] * 2
        calls.clear()
        # with 3 replicates a group holds 3 tasks per point; the reference row caps cut the
        # groups at beta 1000 (cap 4) and 700 (cap 5) into 3 calls of 4
        assert entropies(3) == whole[3]
        assert sorted(calls) == [1] * 12 + [4] * 6 + [12] * 9 + [24] * 2
        calls.clear()
        # a row holds s + beta numbers in the reference loop, s in the others: reference calls of
        # one row at beta 2100, two at beta 1000 and 700, while every fast group stays whole
        monkeypatch.setattr(core, "_ROW_NUMBERS", 2200)
        assert entropies(1) == whole[1]
        assert sorted(calls) == [1] * 4 + [2] * 4 + [4] * 9 + [8] * 2
        calls.clear()
        # and with 3 replicates, caps of 1, 2, 3 and 11 rows at beta 2100, 1000, 700 and 187
        assert entropies(3) == whole[3]
        assert sorted(calls) == [1] * 12 + [2] * 6 + [3] * 4 + [6] * 2 + [12] * 8 + [24] * 2


class TestRunExperiment:
    def test_record_count_and_order(self):
        records = run_experiment(tiny_spec(replicates=2))
        assert len(records) == 16
        values = log_sweep(SweepSpec(5, 50, 8, integral=True))
        assert [r.param_value for r in records] == [float(v) for v in values for _ in range(2)]
        assert [r.replicate for r in records] == [0, 1] * 8

    def test_repeat_invocations_identical(self):
        assert run_experiment(tiny_spec()) == run_experiment(tiny_spec())

    def test_worker_count_does_not_change_records(self):
        assert run_experiment(tiny_spec(), workers=1) == run_experiment(tiny_spec(), workers=3)

    def test_stride_records_are_subset_of_full(self):
        full = run_experiment(tiny_spec(replicates=2))
        reduced = run_experiment(tiny_spec(replicates=2), stride=4)
        by_point = [full[i * 2 : i * 2 + 2] for i in range(8)]
        expected = by_point[0] + by_point[4]
        assert reduced == expected

    def test_each_record_reproducible_standalone(self):
        # every record is fully determined by its own seed: no cross-run state
        spec = tiny_spec()
        for record in run_experiment(spec):
            params = spec.params_at(int(record.param_value))
            h = shannon_entropy_bits(run(params, make_stream(record.seed)))
            assert h == record.entropy_bits

    def test_entropy_within_bounds(self):
        for record in run_experiment(tiny_spec()):
            assert 0.0 <= record.entropy_bits <= math.log2(8)

    def test_invalid_point_tagged(self):
        with pytest.raises(InvalidParameterError, match=r"sweep point 0"):
            ExperimentSpec(
                name="bad", varied="n", sweep=SweepSpec(1, 10, 4, integral=True),
                alpha=1.0, beta=3, s=0, master_seed=1,
            )

    @pytest.mark.parametrize("kwargs", [dict(stride=1.5), dict(stride=0), dict(workers=1.5), dict(workers=0)])
    def test_stride_and_workers_must_be_positive_integers(self, kwargs):
        with pytest.raises(InvalidParameterError, match=next(iter(kwargs))):
            run_experiment(tiny_spec(), **kwargs)

    def test_reference_mode_supported(self):
        records = run_experiment(tiny_spec(), mode="reference")
        assert len(records) == 8


FIELD_NAMES = ("experiment", "param_value", "replicate", "seed", "entropy_bits")


class TestRunRecord:
    """The slotted record keeps the frozen-dataclass behaviour callers rely on."""

    def test_equality_and_hash(self):
        record = run_experiment(tiny_spec())[3]
        same = RunRecord(*(getattr(record, field.name) for field in dataclasses.fields(RunRecord)))
        assert same == record and hash(same) == hash(record)
        assert replace(record, seed=record.seed + 1) != record
        assert len({record, same}) == 1

    def test_pickle_round_trip(self):
        record = run_experiment(tiny_spec())[3]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record

    def test_replace(self):
        record = run_experiment(tiny_spec())[3]
        changed = replace(record, replicate=7, entropy_bits=0.5)
        assert (changed.replicate, changed.entropy_bits) == (7, 0.5)
        assert (changed.experiment, changed.param_value, changed.seed) == (record.experiment, record.param_value, record.seed)

    def test_assignment_raises(self):
        record = run_experiment(tiny_spec())[3]
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.entropy_bits = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del record.seed
        assert not hasattr(record, "__dict__")  # slotted: vars(record) no longer works

    def test_positional_and_keyword_construction(self):
        values = ("tiny", 5.0, 2, 12_345, 1.5)
        by_position = RunRecord(*values)
        by_keyword = RunRecord(**dict(zip(FIELD_NAMES, values)))
        assert by_position == by_keyword
        assert tuple(getattr(by_keyword, name) for name in FIELD_NAMES) == values
        assert RunRecord("tiny", 5.0, 2, seed=12_345, entropy_bits=1.5) == by_position
        with pytest.raises(TypeError):
            RunRecord(*values[:4])
        with pytest.raises(TypeError):
            RunRecord(*values, experiment="tiny")

    def test_fields_match_args_repr_and_copy(self):
        assert tuple(field.name for field in dataclasses.fields(RunRecord)) == FIELD_NAMES
        assert RunRecord.__match_args__ == FIELD_NAMES
        record = RunRecord("tiny", 5.0, 2, 12_345, 1.5)
        match record:
            case RunRecord(experiment, value, replicate, seed, entropy):
                assert (experiment, value, replicate, seed, entropy) == ("tiny", 5.0, 2, 12_345, 1.5)
        assert repr(record) == "RunRecord(experiment='tiny', param_value=5.0, replicate=2, seed=12345, entropy_bits=1.5)"
        copied = copy.copy(record)
        assert copied == record and type(copied) is RunRecord

    @pytest.mark.parametrize("mode", ["fast", "reference"])
    def test_sweep_records_equal_records_rebuilt_field_by_field(self, mode):
        spec = tiny_spec(replicates=3)
        records = run_experiment(spec, mode=mode)
        rebuilt = []
        for point, value in enumerate(log_sweep(spec.sweep)):
            for replicate in range(spec.replicates):
                seed = derive_run_seed(spec.master_seed, point, replicate)
                entropy = shannon_entropy_bits(run(spec.params_at(value), make_stream(seed), mode))
                rebuilt.append(RunRecord(experiment=spec.name, param_value=float(value), replicate=replicate,
                                         seed=seed, entropy_bits=entropy))
        assert records == rebuilt
        for record in records:
            assert RunRecord(*(getattr(record, name) for name in FIELD_NAMES)) == record
            assert [type(getattr(record, name)) for name in FIELD_NAMES] == [str, float, int, int, float]


def skewed_spec():
    # n from 1e2 to 1e5: calls modelled from about 0.3 ms to 98 ms per group of
    # 3 runs, 131 ms in all, enough for a pool of up to 7 workers to pay its start-up
    return ExperimentSpec(
        name="skewed", varied="n", sweep=SweepSpec(1e2, 1e5, 6, integral=True),
        alpha=1.0, beta=5, s=64, replicates=3, master_seed=17,
    )


def tiny_sweep_spec():
    # 1400 runs of n <= 3 in 2 chunks, 13 ms modelled: it pools only on a pool already running
    return ExperimentSpec(
        name="tiny", varied="n", sweep=SweepSpec(1, 3, 4, integral=True),
        alpha=2.0, beta=3, s=3, replicates=350, master_seed=5,
    )


def n_sweep_spec():
    # the benchmark's n sweep: n in {100, 1000, 10000, 100000}, 2 replicates, 73 ms modelled
    return ExperimentSpec(
        name="n-sweep", varied="n", sweep=SweepSpec(1e2, 1e5, 4, integral=True),
        alpha=1.0, beta=5, s=64, replicates=2, master_seed=3,
    )


def spec_points(spec, stride=1):
    """The kept points of ``spec`` and its replicate count, as :func:`sweep._calls` plans them."""
    return [spec.params_at(v) for v in log_sweep(spec.sweep)[::stride]], spec.replicates


def call_costs(spec, workers, mode="fast", stride=1):
    """Modelled prices of the kernel calls :func:`sweep._calls` plans for ``spec``, ``mode`` and ``workers``."""
    return [kernel.price(len(call)) for kernel, call in sweep._calls(*spec_points(spec, stride), mode, workers)]


def pool_size(spec, workers, mode="fast", stride=1, warm=0):
    """The pool size :func:`sweep._pool_size` picks for ``spec``'s split calls with ``warm`` workers running, 0 for none."""
    costs = call_costs(spec, workers, mode, stride)
    return sweep._pool_size(costs, sweep._chunk_plan(costs), workers, sum(call_costs(spec, 1, mode, stride)), warm)


@pytest.fixture
def pool_starts(monkeypatch):
    """Swap the process pool for an in-process one on 2 usable CPUs; list the worker count of each pool started.

    No pool runs at first. As with the real pool, a sweep starts one when the
    running pool has fewer workers than it asks for, and later sweeps find
    it warm. A test that plans for more workers sets more CPUs with ``cpus``.
    """
    starts = []

    class InlinePool:
        def map(self, fn, items):
            return map(fn, items)

    def pool(size):
        if sweep._warm_workers < size:
            starts.append(size)
            sweep._warm_workers = size
        return InlinePool()

    monkeypatch.setattr(sweep, "_warm_workers", 0)
    monkeypatch.setattr(sweep, "_pool", pool)
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    return starts


class TestSchedule:
    @given(st.lists(st.floats(min_value=0.0, max_value=3e4), max_size=60))
    def test_plan_covers_each_task_once_costliest_first(self, costs):
        plan = sweep._chunk_plan(costs)
        assert sorted(i for chunk in plan for i in chunk) == list(range(len(costs)))
        ordered = [costs[i] for chunk in plan for i in chunk]
        assert ordered == sorted(costs, reverse=True)
        for chunk in plan:
            assert len(chunk) == 1 or sum(costs[i] for i in chunk) <= sweep._CHUNK_US

    def test_task_above_target_sits_alone(self):
        costs = [50.0, 2 * sweep._CHUNK_US, 50.0, 1.5 * sweep._CHUNK_US]
        assert sweep._chunk_plan(costs) == [[1], [3], [0, 2]]

    def test_tiny_tasks_share_chunks(self):
        plan = sweep._chunk_plan([50.0] * 1000)
        assert [len(chunk) for chunk in plan] == [200] * 5
        assert plan[0] == list(range(200))

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(CHUNK_SHAPES + [(5, 64, 1000), (10, 64, 1000), (300, 64, 1000)]),
                st.sampled_from(CHUNK_ALPHAS),
            ),
            min_size=1,
            max_size=10,
        ),
        st.integers(min_value=1, max_value=60),
        st.sampled_from(["reference", "fast"]),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([1 << 12, 64, 8]),
    )
    def test_property_calls_cover_each_task_once_within_key_and_cap(self, drawn, replicates, mode, workers, row_numbers):
        points = [ProcessParams(alpha, beta, s, n) for (beta, s, n), alpha in drawn]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_ROW_NUMBERS", row_numbers)
            calls = sweep._calls(points, replicates, mode, workers)
            kernels = [_kernel(params, mode) for params in points for _ in range(replicates)]
        assert sorted(i for _, call in calls for i in call) == list(range(len(kernels)))
        groups = {}
        for kernel, call in calls:
            # one kernel, key, price and cap per call, the one each of its tasks takes
            assert {kernels[i] for i in call} == {kernel}
            assert len(call) <= kernel.max_rows
            groups.setdefault((kernel.run, kernel.key), (kernel.max_rows, []))[1].append(len(call))
        for max_rows, sizes in groups.values():
            assert max(sizes) - min(sizes) <= 1
            if workers == 1:  # cut only as far as the row cap asks
                assert len(sizes) == -(-sum(sizes) // max_rows)

    def test_reduced_reference_alpha_sweep_runs_in_two_kernel_calls(self, pool_starts, monkeypatch):
        spec = canonical_experiments(1)[0]
        serial = run_experiment(spec, mode="reference", stride=sweep.REDUCED_STRIDE)
        calls = []
        real = sweep._run_rows
        monkeypatch.setattr(sweep, "_run_rows", lambda kernel, rows, rngs: calls.append(len(rows)) or real(kernel, rows, rngs))
        assert run_experiment(spec, mode="reference", workers=2, stride=sweep.REDUCED_STRIDE) == serial
        # its 50 runs share one kernel and key; split in two, one call per worker
        assert pool_starts == [2]
        assert calls == [25, 25]

    def test_skewed_records_equal_for_any_worker_count(self, real_pool_starts, cpus):
        cpus(3)
        spec = skewed_spec()
        assert pool_size(spec, 2) == 2 and pool_size(spec, 3) == 3
        serial = run_experiment(spec, workers=1)
        assert run_experiment(spec, workers=2) == serial
        assert run_experiment(spec, workers=3) == serial
        # the pool of 2 is too small for 3 workers and is replaced; the pool of 3 serves both counts warm
        assert real_pool_starts == [2, 3]
        assert run_experiment(spec, workers=2) == serial
        assert run_experiment(spec, workers=3) == serial
        assert run_experiment(spec, workers=1) == serial
        assert real_pool_starts == [2, 3]

    @pytest.mark.parametrize("workers", [16, 64])
    def test_split_calls_do_not_buy_a_pool(self, pool_starts, monkeypatch, cpus, workers):
        # split 16 or 50 ways, its 50 runs are priced at 212 or 434 ms, against 114 ms for the one
        # call that runs when no pool starts: the split's extra calls must not pay for a pool
        cpus(workers)
        spec = canonical_experiments(1)[0]
        serial = run_experiment(spec, mode="reference", stride=sweep.REDUCED_STRIDE)
        calls = []
        real = sweep._run_rows
        monkeypatch.setattr(sweep, "_run_rows", lambda kernel, rows, rngs: calls.append(len(rows)) or real(kernel, rows, rngs))
        assert run_experiment(spec, mode="reference", workers=workers, stride=sweep.REDUCED_STRIDE) == serial
        assert pool_starts == []
        assert calls == [50]

    @pytest.mark.parametrize("workers,plans,pools", [(1, 1, []), (2, 2, [2])])
    def test_calls_planned_only_in_the_parent(self, pool_starts, monkeypatch, workers, plans, pools):
        # the inline pool runs each chunk in this process, so a chunk planned again would count here
        planned = []
        real = sweep._calls
        monkeypatch.setattr(sweep, "_calls", lambda *args: planned.append(args) or real(*args))
        run_experiment(n_sweep_spec(), workers=workers)
        assert len(planned) == plans
        assert pool_starts == pools

    @pytest.mark.parametrize("workers,pools", [(1, []), (2, [2])])
    def test_seeds_hashed_once_in_the_parent(self, pool_starts, monkeypatch, workers, pools):
        # one hash of all the sweep's seeds; the inline pool runs each chunk in this process, so
        # a hash in a worker would count here too
        hashed = []

        def count(seeds):
            hashed.append(len(seeds))
            return real(seeds)

        real = core._seed_words
        monkeypatch.setattr(sweep, "_seed_words", count)
        monkeypatch.setattr(core, "_seed_words", count)
        records = run_experiment(n_sweep_spec(), workers=workers)
        assert hashed == [len(records)]
        assert pool_starts == pools

    def test_one_worker_per_chunk_at_most(self, pool_starts, monkeypatch, cpus):
        cpus(64)
        spec = skewed_spec()
        split = sweep._calls(*spec_points(spec), "fast", 64)
        plan = sweep._chunk_plan([kernel.price(len(call)) for kernel, call in split])
        serial = run_experiment(spec, workers=1)
        calls = []
        real = sweep._run_rows
        monkeypatch.setattr(sweep, "_run_rows", lambda kernel, rows, rngs: calls.append(len(rows)) or real(kernel, rows, rngs))
        assert run_experiment(spec, workers=64) == serial
        assert pool_starts == [min(64, len(plan))]
        # the workers run the split calls the pool was priced on, chunk after chunk
        assert calls == [len(split[c][1]) for chunk in plan for c in chunk]

    def test_pool_never_outnumbers_the_cpus(self, pool_starts, monkeypatch):
        # 64 workers on the fixture's 2 CPUs plan, price and pool as 2 workers do
        spec = skewed_spec()
        split = sweep._calls(*spec_points(spec), "fast", 2)
        plan = sweep._chunk_plan([kernel.price(len(call)) for kernel, call in split])
        serial = run_experiment(spec, workers=1)
        calls = []
        real = sweep._run_rows
        monkeypatch.setattr(sweep, "_run_rows", lambda kernel, rows, rngs: calls.append(len(rows)) or real(kernel, rows, rngs))
        assert run_experiment(spec, workers=64) == serial
        assert pool_starts == [2]
        assert calls == [len(split[c][1]) for chunk in plan for c in chunk]

    def test_usable_cpus_is_a_positive_count(self):
        assert 1 <= sweep._usable_cpus() <= (os.cpu_count() or 1)

    def test_single_chunk_runs_without_a_pool(self, pool_starts):
        assert len(sweep._chunk_plan(call_costs(tiny_spec(), 2))) == 1
        assert run_experiment(tiny_spec(), workers=2) == run_experiment(tiny_spec(), workers=1)
        assert pool_starts == []

    def test_tiny_sweep_of_two_chunks_runs_without_a_pool(self, pool_starts):
        # 1400 runs of n <= 3, 13 ms modelled in 2 chunks: less than two workers' start-up
        spec = tiny_sweep_spec()
        assert len(sweep._chunk_plan(call_costs(spec, 2))) == 2
        assert run_experiment(spec, workers=2) == run_experiment(spec, workers=1)
        assert pool_starts == []

    def test_warm_pool_takes_the_tiny_sweep(self, pool_starts):
        # once 2 workers run, the same sweep pays only a dispatch for a 2-way makespan
        spec = tiny_sweep_spec()
        serial = run_experiment(spec, workers=1)
        assert pool_size(spec, 2, warm=2) == pool_size(spec, 2, warm=3) == 2
        run_experiment(n_sweep_spec(), workers=2)
        assert run_experiment(spec, workers=2) == serial
        assert pool_starts == [2]

    def test_smaller_warm_pool_is_priced_as_a_new_one(self, pool_starts):
        # a running pool of 1 is replaced, so a sweep on 2 workers pays for starting both
        spec = tiny_sweep_spec()
        assert pool_size(spec, 2, warm=1) == pool_size(spec, 2, warm=0) == 0
        assert pool_size(n_sweep_spec(), 2, warm=1) == 2
        serial = run_experiment(spec, workers=1)
        sweep._warm_workers = 1
        assert run_experiment(spec, workers=2) == serial
        assert pool_starts == []

    @pytest.mark.parametrize("workers", [16, 64])
    def test_warm_pool_spreads_split_calls(self, workers):
        # the split calls of the reduced reference alpha sweep cost more than the unsplit one,
        # but not once a pool of that many workers runs and the makespan is shared out
        spec = canonical_experiments(1)[0]
        k = min(workers, 50)  # one chunk per run at most
        for warm in (0, 2, k - 1):
            assert pool_size(spec, workers, "reference", sweep.REDUCED_STRIDE, warm) == 0
        assert pool_size(spec, workers, "reference", sweep.REDUCED_STRIDE, k) == k

    def test_tiny_pool_workload_never_pools(self):
        # the benchmark's tiny-pool jobs: 50 replicates over 4 points, one chunk each, cold or warm
        for beta, s, mode in [(3, 3, "fast"), (1, 1, "fast"), (3, 3, "reference")]:
            spec = replace(tiny_sweep_spec(), beta=beta, s=s, replicates=50)
            assert len(sweep._chunk_plan(call_costs(spec, 2, mode))) == 1
            assert pool_size(spec, 2, mode, warm=0) == pool_size(spec, 2, mode, warm=2) == 0

    def test_n_sweep_takes_the_pool(self, pool_starts):
        spec = n_sweep_spec()
        assert pool_size(spec, 2) == pool_size(spec, 2, warm=2) == 2
        serial = run_experiment(spec, workers=1)
        assert run_experiment(spec, workers=2) == serial
        assert run_experiment(spec, workers=2) == serial
        assert pool_starts == [2]

    @pytest.mark.parametrize("fixed,methods", [("spawn", ["fork", "spawn"]), (None, ["spawn", "fork"])],
                             ids=["set", "default"])
    def test_spawned_workers_are_priced_as_such(self, monkeypatch, fixed, methods):
        # under spawn each worker imports numpy and filex: the n sweep no longer pays for a cold
        # pool, but still takes one that runs; the method is read as set, or else as the default,
        # the first of all start methods
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: fixed)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        assert sweep._start_method() == "spawn"
        spec = n_sweep_spec()
        assert pool_size(spec, 2) == 0
        assert pool_size(spec, 2, warm=2) == 2

    def test_pricing_leaves_the_start_method_unset(self):
        code = ("import multiprocessing\nfrom filex import sweep\n"
                "assert sweep._start_method() in multiprocessing.get_all_start_methods()\n"
                "assert multiprocessing.get_start_method(allow_none=True) is None\n")
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)

    @pytest.mark.parametrize(
        "name,mode,stride",
        [(name, "fast", 1) for name in ("alpha", "beta", "s", "n")] + [("alpha", "reference", sweep.REDUCED_STRIDE)],
    )
    def test_canonical_sweeps_take_the_pool(self, name, mode, stride):
        spec = next(spec for spec in canonical_experiments(1) if spec.name == name)
        assert pool_size(spec, 2, mode, stride) == 2

    @given(
        st.lists(st.floats(min_value=0.0, max_value=6e4), min_size=1, max_size=60),
        st.integers(min_value=2, max_value=64),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=64),
    )
    def test_pool_only_when_it_pays_for_its_start_up(self, costs, workers, unsplit_share, warm):
        # the bar is the price of the unsplit calls, at most the split total; a running pool of
        # at least k workers costs only a dispatch, a smaller one is replaced by k new workers
        plan = sweep._chunk_plan(costs)
        total = sum(costs)
        bar = unsplit_share * total
        size = sweep._pool_size(costs, plan, workers, bar, warm)
        largest = max(sum(costs[i] for i in chunk) for chunk in plan)
        k = min(workers, len(plan))
        cost = sweep._POOL_SWEEP_US + (sweep._POOL_WORKER_US[sweep._start_method()] * k if warm < k else 0.0)
        if len(plan) == 1:
            assert size == 0
        if size:
            assert size == k
            assert cost + max(total / size, largest) < bar
        else:
            assert cost + max(total / k, largest) >= bar
        # a warm pool never turns a pooled sweep away
        assert size <= sweep._pool_size(costs, plan, workers, bar, max(warm, k))
        assert sweep._pool_size(costs, plan, workers, bar, 0) <= size

    def test_unknown_mode_rejected_before_any_run(self, pool_starts):
        spec = n_sweep_spec()
        with pytest.raises(InvalidParameterError, match="mode"):
            run_experiment(spec, mode="Fast", workers=2)
        assert pool_starts == []


def alive(pid):
    """Whether process ``pid`` still runs: it exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in "ZX"
    except (FileNotFoundError, ProcessLookupError):
        return False


def children(pid):
    """PIDs of the running processes whose parent is ``pid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except OSError:  # it ended while the directory was read
            continue
        if int(ppid) == pid and state not in "ZX":
            found.append(int(stat.parent.name))
    return found


# With the start method argv[2]: a pooled n sweep on 2 workers, checked against one
# in-process, then the worker PIDs on one line; with "kill" it waits to be killed.
# The pool starts first: a cold n sweep pays for a pool under fork only.
PARENT_SCRIPT = """
import multiprocessing, sys, time
from filex import sweep
from filex.sweep import ExperimentSpec, SweepSpec, run_experiment
multiprocessing.set_start_method(sys.argv[2])
sweep._usable_cpus = lambda: 2
sweep._pool(2)
spec = ExperimentSpec(name="n-sweep", varied="n", sweep=SweepSpec(1e2, 1e5, 4, integral=True),
                      alpha=1.0, beta=5, s=64, replicates=2, master_seed=3)
assert run_experiment(spec, workers=2) == run_experiment(spec, workers=1)
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
if sys.argv[1] == "kill":
    time.sleep(60)
"""


class TestWarmPool:
    def test_broken_pool_is_replaced(self, real_pool_starts):
        spec = n_sweep_spec()
        serial = run_experiment(spec, workers=1)
        assert run_experiment(spec, workers=2) == serial
        workers = multiprocessing.active_children()
        assert len(workers) == 2
        os.kill(workers[0].pid, signal.SIGKILL)
        assert run_experiment(spec, workers=2) == serial
        assert real_pool_starts == [2, 2]
        assert run_experiment(spec, workers=2) == serial
        assert real_pool_starts == [2, 2]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="forks")
    def test_forked_child_does_not_reuse_the_pool(self, real_pool_starts):
        assert run_experiment(n_sweep_spec(), workers=2)
        assert real_pool_starts == [2]
        child = os.fork()
        if child == 0:  # the parent's pool is not the child's to use
            os._exit(0 if sweep._warm_pool is None and sweep._warm_workers == 0 else 1)
        assert os.waitpid(child, 0)[1] == 0
        assert sweep._warm_workers == 2

    def test_threads_take_turns_on_the_pool(self, real_pool_starts, monkeypatch, cpus):
        # a sweep on 3 workers replaces a pool of 2, so it must wait while a sweep in another
        # thread has taken that pool and runs chunks on it; the sweep on 2 gives it half a
        # second, after taking the pool, to replace it
        cpus(3)
        spec = n_sweep_spec()
        serial = run_experiment(spec, workers=1)
        taken, replaced = threading.Event(), threading.Event()
        spy = sweep._pool

        def pool(size):
            running = spy(size)
            if size == 2:
                taken.set()
                replaced.wait(0.5)
            else:
                replaced.set()
            return running

        monkeypatch.setattr(sweep, "_pool", pool)

        def sweep_on(workers):
            if workers == 3:
                taken.wait(10)
            return run_experiment(spec, workers=workers)

        with ThreadPoolExecutor(2) as threads:
            assert list(threads.map(sweep_on, [2, 3])) == [serial, serial]
        assert real_pool_starts == [2, 3]

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states from /proc")
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    @pytest.mark.parametrize("ending", ["exit", "kill"])
    def test_workers_do_not_outlive_their_parent(self, ending, method):
        # the workers, and the helpers the pool's process started (a forkserver, whose children
        # the workers then are, and the resource tracker), all end after it
        src = str(Path(sweep.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        parent = subprocess.Popen([sys.executable, "-c", PARENT_SCRIPT, ending, method],
                                  stdout=subprocess.PIPE, text=True, env=env)
        workers = [int(pid) for pid in parent.stdout.readline().split()]
        pids = sorted(set(workers) | set(children(parent.pid)))
        try:
            assert len(workers) == 2
            if ending == "kill":
                parent.kill()  # SIGKILL: no exit hook shuts the pool down
            assert parent.wait(timeout=60) == (-signal.SIGKILL if ending == "kill" else 0)
            deadline = time.monotonic() + 10
            while any(map(alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in pids if alive(pid)]
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
            for pid in filter(alive, pids):
                os.kill(pid, signal.SIGKILL)


class TestCorrelationTable:
    def test_monotone_series_give_unit_tau(self):
        up = [RunRecord("tiny", float(v), 0, 0, float(v) / 100) for v in range(5, 50, 5)]
        down = [RunRecord("tiny", float(v), 0, 0, 1.0 - v / 100) for v in range(5, 50, 5)]
        assert correlate(tiny_spec().varied, up).tau == 1.0
        assert correlate(tiny_spec().varied, down).tau == -1.0

    def test_inverse_axis_negates_tau_exactly(self):
        rng = np.random.default_rng(4)
        alphas = np.exp(rng.normal(size=40))
        entropies = rng.random(40) * 6
        records = [RunRecord("a", float(a), 0, 0, float(h)) for a, h in zip(alphas, entropies)]
        tau_inverse = correlate("alpha", records).tau
        assert tau_inverse == -kendall_tau(PairedSeries(alphas, entropies)).tau

    def test_constant_entropy_undefined(self):
        records = [RunRecord("tiny", float(v), 0, 0, 1.0) for v in range(5, 50, 5)]
        with pytest.raises(UndefinedCorrelationError):
            correlate(tiny_spec().varied, records)

    def test_correlate_inverts_alpha_axis(self):
        # entropy falls as alpha rises from 2 to 4, so it rises with 1/alpha
        records = [RunRecord("a", 4.0, 0, 0, 1.0), RunRecord("a", 2.0, 0, 0, 2.0)]
        assert correlate("alpha", records).tau == 1.0
        assert correlate("beta", records).tau == -1.0

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from filex import core
from filex.core import (
    Distribution,
    ProcessParams,
    WeightState,
    _BLOCK_DRAW_US,
    _BLOCK_DRAWS,
    _BLOCK_US,
    _CALL_ITERATION_US,
    _CALL_US,
    _MULTINOMIAL_ITERATION_US,
    _MULTINOMIAL_ROW_ITERATION_US,
    _MULTINOMIAL_ROW_SYMBOL_US,
    _MULTINOMIAL_SYMBOL_US,
    _REFERENCE_ROW_DRAW_US,
    _REFERENCE_ROW_SYMBOL_US,
    _ROW_NUMBERS,
    _ROW_US,
    _block_rows,
    _inverse_cdf,
    _inverse_cdf_counts,
    _kernel,
    _multinomial_rows,
    _reference_rows,
    _run_rows,
    _seed_words,
    _streams,
    init_weights,
    make_stream,
    run,
    run_traced,
    step,
    step_fast,
)
from filex.errors import InvalidInputError, InvalidParameterError
from filex.stats import shannon_entropy_bits
from filex.sweep import REDUCED_STRIDE, canonical_experiments, log_sweep

from oracles import (
    binned_chi2_pvalue,
    block_copy_rows,
    chi2_gof_pvalue,
    distinct_symbol_law,
    distinct_symbols,
    enumerate_outcome_distribution,
    expected_entropy_bits,
    hit_count_law,
    hit_count_outcomes,
    hit_counts,
)


def linear_scan_sample(weights, u):
    """First index whose running prefix sum exceeds u * total."""
    target = u * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if acc > target:
            return i
    return len(weights) - 1


class TestProcessParams:
    def test_valid(self):
        p = ProcessParams(1e-3, 10, 64, 1000)
        assert (p.alpha, p.beta, p.s, p.n) == (1e-3, 10, 64, 1000)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, beta=1, s=1, n=0),
            dict(alpha=-1.0, beta=1, s=1, n=0),
            dict(alpha=float("nan"), beta=1, s=1, n=0),
            dict(alpha=float("inf"), beta=1, s=1, n=0),
            dict(alpha=1.0, beta=0, s=1, n=0),
            dict(alpha=1.0, beta=1, s=0, n=0),
            dict(alpha=1.0, beta=1, s=1, n=-1),
            dict(alpha=1.0, beta=1.5, s=1, n=0),
            dict(alpha="x", beta=1, s=1, n=0),
            dict(alpha=True, beta=1, s=1, n=0),
            dict(alpha=5e-324, beta=1, s=2, n=1),  # alpha/s underflows to zero
            dict(alpha=4e-322, beta=1, s=2, n=1000),  # (alpha/s)/(alpha+n) underflows to zero
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidParameterError):
            ProcessParams(**kwargs)

    def test_numpy_scalars_accepted(self):
        p = ProcessParams(np.float32(0.5), np.int64(2), np.int32(3), np.uint8(4))
        assert (p.alpha, p.beta, p.s, p.n) == (0.5, 2, 3, 4)
        assert all(type(v) is t for v, t in zip((p.alpha, p.beta, p.s, p.n), (float, int, int, int)))


@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.0, "1"])
def test_make_stream_rejects_seed(seed):
    with pytest.raises(InvalidParameterError, match="seed"):
        make_stream(seed)


def assert_default_rng_streams(built, seeds):
    """Each stream has the state of ``np.random.default_rng(seed)``, the reference, and its first 8 doubles."""
    assert len(built) == len(seeds)
    for stream, seed in zip(built, seeds):
        reference = np.random.default_rng(seed)
        assert stream.bit_generator.state == reference.bit_generator.state, seed
        assert stream.random(8).tolist() == reference.random(8).tolist(), seed


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def streams(seeds):
    """The streams a sweep builds for ``seeds``: one hash of all of them, then each row's stream from its words."""
    return _streams(_seed_words(seeds))


class TestMakeStreams:
    def test_edge_seeds(self):
        assert_default_rng_streams(streams(EDGE_SEEDS), EDGE_SEEDS)
        assert_default_rng_streams([make_stream(seed) for seed in EDGE_SEEDS], EDGE_SEEDS)

    @pytest.mark.parametrize("batch", [1, 2, 10_000])
    def test_random_seeds_in_batches(self, batch):
        # every bit length from 64 down to 1, so seeds below and above 2**32 both occur
        rng = np.random.default_rng(17)
        seeds = (rng.integers(0, 2**64, 10_000, dtype=np.uint64, endpoint=False)
                 >> rng.integers(0, 64, 10_000).astype(np.uint64)).tolist()
        assert_default_rng_streams([stream for i in range(0, len(seeds), batch) for stream in streams(seeds[i : i + batch])], seeds)

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_bulk_hash_of_small_batches(self, batch):
        # a batch of one to three seeds hashes as a batch of many does
        seeds = EDGE_SEEDS + [12_345, 2**31]
        assert_default_rng_streams([stream for i in range(0, len(seeds), batch) for stream in streams(seeds[i : i + batch])], seeds)

    def test_batch_mixing_seeds_below_and_above_2_32(self):
        seeds = [3, 2**40 + 7, 2**32 - 1, 2**32, 0, 2**64 - 1, 12_345, 2**32 + 1, 2**31]
        assert_default_rng_streams(streams(seeds), seeds)
        # a sweep hands the hash its seeds as a uint64 array
        assert np.array_equal(_seed_words(np.array(seeds, dtype=np.uint64)), _seed_words(seeds))


@pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), True, "2"])
def test_run_traced_rejects_scale(scale):
    with pytest.raises(InvalidParameterError, match="increment_scale"):
        run_traced(ProcessParams(1.0, 1, 2, 1), make_stream(0), increment_scale=scale)


class TestInitWeights:
    def test_quarter_weights(self):
        state = init_weights(ProcessParams(1.0, 1, 4, 0))
        assert state.weights.tolist() == [0.25, 0.25, 0.25, 0.25]
        assert state.iteration == 0

    def test_small_alpha(self):
        state = init_weights(ProcessParams(1e-3, 1, 64, 0))
        assert np.all(state.weights == 1.5625e-5)
        assert state.weights.size == 64

    def test_zero_s_rejected(self):
        with pytest.raises(InvalidParameterError):
            ProcessParams(1.0, 1, 0, 0)


class TestDistributionAndState:
    def test_distribution_validates_sum(self):
        with pytest.raises(InvalidInputError):
            Distribution(np.array([0.5, 0.5001]))

    def test_distribution_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            Distribution(np.array([1.0, 0.0]))

    def test_state_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidInputError):
            WeightState(np.array([1.0, 0.0]), 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
    def test_caller_built_state_is_checked(self, bad):
        # steps skip the re-check of the states they return; a state a caller builds is still checked
        with pytest.raises(InvalidInputError, match="weights must all be positive and finite"):
            WeightState(np.array([1.0, bad, 2.0]), 3)

    def test_sum_check_names_the_bad_row(self):
        # one pass tests every row; the error names the first bad row's total, as the row-by-row check did
        probs = np.full((500, 4), 0.25)
        probs[250, 0] += 2e-12
        total = float(probs[250].sum())
        assert abs(total - 1.0) > 1e-12
        with pytest.raises(InvalidInputError) as excinfo:
            core._check_sums(probs)
        assert str(excinfo.value) == f"probs must sum to 1 within 1e-12, got {total!r}"
        core._check_sums(np.delete(probs, 250, axis=0))


class TestSampleCategorical:
    """The reference sampler's inverse-CDF primitive."""

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(6)
        for size in (1, 2, 3, 7, 64, 100):
            w = rng.random(size) + 1e-6
            for u in (np.linspace(0.0, 0.999999, 301), rng.random(300)):
                assert _inverse_cdf(w, u).tolist() == [linear_scan_sample(w.tolist(), x) for x in u]

    def test_u_close_to_one_clamped(self):
        # For u < 1, u * total rounds below the total; u = 1, the closed end,
        # lands on it and must still give the last index.
        w = np.array([1.0, 1.0, 1.0])
        u = np.array([np.nextafter(1.0, 0.0), 1.0])
        total = np.cumsum(w)[-1]
        assert u[0] * total < total == u[1] * total
        assert _inverse_cdf(w, u).tolist() == [2, 2]

    def test_u_one_clamped_in_every_row(self):
        # the reference kernel clamps each row's u = 1 draws to that row's last symbol
        class ClosedEnd:
            def random(self, out):
                out.fill(1.0)
                return out

        rows = [ProcessParams(alpha, 2, 3, 4) for alpha in (1.0, 3.0)]
        w = _reference_rows(rows, [ClosedEnd(), ClosedEnd()])
        assert np.array_equal(w[:, :2], [[1 / 3] * 2, [1.0] * 2])
        assert np.array_equal(w[:, 2], [1 / 3 + 4, 1.0 + 4])

    def test_single_category(self):
        assert _inverse_cdf(np.array([5.0]), make_stream(0).random(50)).tolist() == [0] * 50

    def test_uniform_pair_frequency(self):
        hits = np.count_nonzero(_inverse_cdf(np.array([1.0, 1.0]), make_stream(1).random(100_000)) == 0)
        assert hits / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_three_to_one_frequency(self):
        hits = np.count_nonzero(_inverse_cdf(np.array([3.0, 1.0]), make_stream(2).random(100_000)) == 0)
        assert hits / 100_000 == pytest.approx(0.75, abs=0.01)

    def test_counts_equal_histogram_of_indices(self):
        # the block kernel's sorted form must pick exactly the indices the
        # per-variate search picks, ties on prefix sums and u = 1 included,
        # in every row of a call
        rng = np.random.default_rng(25)
        for weights in (np.array([5.0]), np.array([0.5, 0.5, 1.0, 2.0]), rng.random(64) + 1e-9):
            cdf = np.cumsum(weights)
            edges = np.r_[cdf / cdf[-1], np.nextafter(cdf / cdf[-1], 0.0)]
            rows = [rng.random(1000), np.r_[edges, 0.0, 1.0, rng.random(998 - edges.size)], rng.random(1000)]
            rows_weights = np.array([weights, weights, weights * 3.0])
            expected = [np.bincount(_inverse_cdf(w, u), minlength=weights.size) for w, u in zip(rows_weights, rows)]
            assert _inverse_cdf_counts(rows_weights, np.array(rows)).tolist() == np.array(expected).tolist()


class TestStep:
    def test_single_symbol_gains_one_unit(self):
        state = init_weights(ProcessParams(0.7, 1, 1, 0))
        for beta in (1, 3, 8):
            new = step(state, beta, make_stream(4))
            assert new.weights[0] == pytest.approx(0.7 + 1.0, rel=1e-15)
            assert new.iteration == 1

    def test_sum_gains_one_unit(self):
        state = WeightState(np.array([1.0, 1.0]), 0)
        new = step(state, 1, make_stream(5))
        assert new.total == pytest.approx(3.0, rel=1e-12)

    def test_two_draw_increment_distribution(self):
        # S=2, alpha=2, beta=2: increments [1,0] w.p. 1/4, [.5,.5] w.p. 1/2, [0,1] w.p. 1/4
        state = WeightState(np.array([1.0, 1.0]), 0)
        rng = make_stream(6)
        counts = {0.0: 0, 0.5: 0, 1.0: 0}
        trials = 40_000
        for _ in range(trials):
            new = step(state, 2, rng)
            counts[float(new.weights[0] - 1.0)] += 1
        assert counts[1.0] / trials == pytest.approx(0.25, abs=0.01)
        assert counts[0.5] / trials == pytest.approx(0.50, abs=0.01)
        assert counts[0.0] / trials == pytest.approx(0.25, abs=0.01)

    def test_frozen_copy_second_draw_unbiased(self):
        # With live updates P(second=0 | first=0) would be 2/3; frozen gives 1/2.
        rng = make_stream(7)
        joint00 = first0 = 0
        for _ in range(60_000):
            tr = run_traced(ProcessParams(2.0, 2, 2, 1), rng)
            if tr.indices[0] == 0:
                first0 += 1
                joint00 += tr.indices[1] == 0
        assert joint00 / first0 == pytest.approx(0.5, abs=0.015)

    def test_weights_monotone_over_run(self):
        state = init_weights(ProcessParams(0.3, 3, 8, 0))
        rng = make_stream(8)
        for _ in range(200):
            new = step(state, 3, rng)
            assert np.all(new.weights >= state.weights)
            state = new

    def test_invalid_beta(self):
        state = init_weights(ProcessParams(1.0, 1, 2, 0))
        with pytest.raises(InvalidParameterError):
            step(state, 0, make_stream(9))


class TestStepFast:
    def test_beta_one_single_increment(self):
        state = init_weights(ProcessParams(2.0, 1, 4, 0))
        new = step_fast(state, 1, make_stream(10))
        delta = new.weights - state.weights
        assert np.count_nonzero(delta) == 1
        assert delta.sum() == pytest.approx(1.0, abs=1e-12)

    def test_increments_sum_to_one(self):
        state = init_weights(ProcessParams(0.11, 7, 13, 0))
        rng = make_stream(11)
        for _ in range(300):
            new = step_fast(state, 7, rng)
            assert float((new.weights - state.weights).sum()) == pytest.approx(1.0, abs=1e-12)
            state = new

    def test_matches_exact_increment_distribution(self):
        # chi-square of fast-path increments against the enumerated step law
        expected = enumerate_outcome_distribution(Fraction(2), 2, 2, 1)
        state = WeightState(np.array([1.0, 1.0]), 0)
        rng = make_stream(12)
        observed = {}
        trials = 100_000
        for _ in range(trials):
            new = step_fast(state, 2, rng)
            key = tuple(int(round(v)) for v in (new.weights - state.weights) * 2)
            observed[key] = observed.get(key, 0) + 1
        assert chi2_gof_pvalue(observed, expected, trials) > 0.01


def checked_step(state, beta, rng):
    """One reference step written out, its state built through the checked constructor."""
    weights = state.weights.copy()
    np.add.at(weights, _inverse_cdf(state.weights, rng.random(beta)), 1.0 / beta)
    return WeightState(weights, state.iteration + 1)


def checked_step_fast(state, beta, rng):
    """One multinomial step written out, its state built through the checked constructor."""
    weights = state.weights
    return WeightState(weights + rng.multinomial(beta, weights / weights.sum()) / beta, state.iteration + 1)


# Cases of criterion 2's ranges (alpha in [1e-4, 1e2], beta in [1, 64], s in
# [1, 256]) with s = 1 and beta = 1 among them: (alpha, beta, s, n, seed).
STEP_CASES = [
    (2.0, 1, 1, 40, 1),
    (1e-4, 1, 64, 200, 2),
    (37.5, 64, 1, 30, 3),
    (0.3, 7, 256, 120, 4),
    (1.0, 1, 2, 300, 5),
    (99.0, 33, 17, 80, 6),
]


@pytest.mark.parametrize("stepper, oracle", [(step, checked_step), (step_fast, checked_step_fast)], ids=["step", "step_fast"])
@pytest.mark.parametrize("alpha, beta, s, n, seed", STEP_CASES)
def test_steps_equal_a_checked_fold(stepper, oracle, alpha, beta, s, n, seed):
    # a step returns its state without the constructor's re-check: every state of
    # the fold equals, bit for bit, the one the checked constructor builds
    state = checked = init_weights(ProcessParams(alpha, beta, s, n))
    rng, oracle_rng = make_stream(seed), make_stream(seed)
    for k in range(1, n + 1):
        state, checked = stepper(state, beta, rng), oracle(checked, beta, oracle_rng)
        assert type(state) is WeightState and state.iteration == checked.iteration == k
        assert state.weights.dtype == np.float64 and state.weights.shape == (s,)
        assert state.weights.tobytes() == checked.weights.tobytes()
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.iteration = 0


class TestRun:
    def test_zero_iterations_uniform(self):
        dist = run(ProcessParams(1.0, 1, 4, 0), make_stream(13))
        assert dist.probs.tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_polya_urn_outcomes_uniform(self):
        # S=2, beta=1, N=2, alpha=2 is a two-color urn: outcomes 3/4, 1/2, 1/4
        # for the first symbol, each with probability 1/3.
        # In hit counts of the two symbols: (2, 0), (1, 1) and (0, 2).
        params = ProcessParams(2.0, 1, 2, 2)
        rng = make_stream(14)
        trials, rows = 30_000, 1000
        probs = np.concatenate([_run_rows(_reference_rows, [params] * rows, [rng] * rows) for _ in range(trials // rows)])
        observed = hit_count_outcomes(probs, 2.0, 1, 2, 2)
        assert set(observed) == {(2, 0), (1, 1), (0, 2)}
        for frequency in observed.values():
            assert frequency / trials == pytest.approx(1 / 3, abs=0.02)

    def test_huge_alpha_stays_uniform(self):
        dist = run(ProcessParams(1e6, 1, 4, 10), make_stream(15))
        h = float(-(dist.probs * np.log2(dist.probs)).sum())
        assert abs(h - 2.0) < 1e-3

    def test_mode_validation(self):
        with pytest.raises(InvalidParameterError):
            run(ProcessParams(1.0, 1, 2, 1), make_stream(16), mode="bogus")
        with pytest.raises(InvalidParameterError, match="mode"):
            _kernel(ProcessParams(1.0, 1, 2, 1), "bogus")

    @pytest.mark.parametrize(
        "mode,stepper,beta", [("reference", step, 4), ("fast", step_fast, 1024)], ids=["reference-step", "fast-step_fast"]
    )
    def test_run_equals_folded_steps(self, mode, stepper, beta):
        # fast mode folds step_fast only where the cost rule keeps the multinomial loop
        params = ProcessParams(0.5, beta, 16, 150)
        if mode == "fast":
            assert _kernel(params, "fast").run is _multinomial_rows
        dist = run(params, make_stream(17), mode)
        state = init_weights(params)
        rng = make_stream(17)
        for _ in range(params.n):
            state = stepper(state, params.beta, rng)
        assert np.array_equal(dist.probs, state.weights / state.weights.sum())

    def test_same_seed_bit_identical(self):
        params = ProcessParams(0.9, 3, 32, 400)
        a = run(params, make_stream(18))
        b = run(params, make_stream(18))
        assert np.array_equal(a.probs, b.probs)

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_sum_law_long_run(self, mode):
        # sum(weights) == alpha + k at every checkpoint, relative 1e-9, k <= 1e4
        params = ProcessParams(0.037, 6, 24, 0)
        state = init_weights(params)
        rng = make_stream(19)
        stepper = step if mode == "reference" else step_fast
        checkpoints = 10_000 if mode == "fast" else 700
        for k in range(1, checkpoints + 1):
            state = stepper(state, params.beta, rng)
            expected = params.alpha + k
            assert abs(state.total - expected) <= 1e-9 * expected

    def test_fast_matches_reference_distribution(self):
        # chi-square of fast-mode outcomes against the enumerated law, S=3 beta=2 N=2
        alpha, beta, s, n = 2.0, 2, 3, 2
        expected = enumerate_outcome_distribution(Fraction(2), beta, s, n)
        params = ProcessParams(alpha, beta, s, n)
        rng = make_stream(20)
        trials = 60_000
        probs = _run_rows(_kernel(params, "fast").run, [params] * trials, [rng] * trials)
        assert chi2_gof_pvalue(hit_count_outcomes(probs, alpha, beta, s, n), expected, trials) > 0.01

    @pytest.mark.parametrize("mode", ["reference", "fast"])
    def test_cost_rule(self, mode):
        if mode == "fast":
            # tiny runs and huge beta stay on the multinomial loop; sweep-sized runs go blockwise
            for s in (1, 3, 64):
                for beta in (1, 3, 5, 10):
                    for n in (0, 1, 2, 3):
                        assert _kernel(ProcessParams(2.0, beta, s, n), mode).run is _multinomial_rows
            assert _kernel(ProcessParams(1e-3, 32768, 64, 10_000), mode).run is _multinomial_rows
            assert _kernel(ProcessParams(1.0, 5, 64, 100_000), mode).run is _block_rows
        # over a grid, the kernel run is the one the pick rates cheapest (a tie goes to the
        # multinomial loop), with its group key, call price and row cap
        for alpha in (1e-3, 1.0, 64.0):
            for beta in (1, 5, 100, 186, 187, 1000, 32768):
                for s in (1, 2, 64, 256, 16384):
                    for n in (0, 1, 6, 7, 100, 10_000, 1_000_000):
                        params = ProcessParams(alpha, beta, s, n)
                        loop_call = _CALL_US + n * _CALL_ITERATION_US
                        if mode == "reference":
                            row = _ROW_US + n * (_REFERENCE_ROW_DRAW_US * beta + _REFERENCE_ROW_SYMBOL_US * s)
                            expected = (_reference_rows, (beta, s, n), loop_call, row, max(1, _ROW_NUMBERS // (s + beta)))
                        else:
                            multinomial = n * (_MULTINOMIAL_ITERATION_US + _MULTINOMIAL_SYMBOL_US * s)
                            blocks = math.ceil(n / max(1, _BLOCK_DRAWS // beta))
                            block = blocks * _BLOCK_US + n * beta * _BLOCK_DRAW_US
                            if multinomial <= block:
                                row = _ROW_US + n * (_MULTINOMIAL_ROW_ITERATION_US + _MULTINOMIAL_ROW_SYMBOL_US * s)
                                expected = (_multinomial_rows, (s, n), loop_call, row, max(1, _ROW_NUMBERS // s))
                            else:
                                expected = (_block_rows, (beta, s, n), _CALL_US, _ROW_US + block, max(1, _ROW_NUMBERS // s))
                        assert _kernel(params, mode) == expected
                        assert _kernel(params, mode).price(3) == expected[2] + 3 * expected[3]

    def test_block_kernel_copies_only_earlier_iterations(self):
        # u = 1 puts x at the end of its iteration, the offset clamp's one case: the iteration-0
        # draw stays a root (the last symbol), each later draw copies the previous iteration's
        # last draw, never one of its own iteration, and only draw 0 (u = 0.1) picks symbol 0
        class EndOfIteration:
            def random(self, size=None, out=None):
                out = np.empty(size) if out is None else out
                out[:] = 1.0
                out[0] = 0.1
                return out

        params = ProcessParams(1.0, 2, 3, 3)
        expected = [[1 / 3 + 0.5, 1 / 3, 1 / 3 + 2.5]]
        assert _block_rows([params], [EndOfIteration()]).tolist() == expected
        assert block_copy_rows([1.0], 2, 3, 3, [EndOfIteration()], 3).tolist() == expected

    def test_block_kernel_long_copy_chains(self):
        # one block over all four iterations: copies of copies, resolved by pointer jumping
        alpha, beta, s, n = 2.0, 2, 3, 4
        expected = enumerate_outcome_distribution(Fraction(2), beta, s, n)
        params = ProcessParams(alpha, beta, s, n)
        rng = make_stream(26)
        trials = 30_000
        probs = _run_rows(functools.partial(_block_rows, block_iterations=n), [params] * trials, [rng] * trials)
        assert chi2_gof_pvalue(hit_count_outcomes(probs, alpha, beta, s, n), expected, trials) > 0.01


@pytest.mark.parametrize("rows", [1000, 2048], ids=["reference", "reference-widest"])
def test_shared_stream_rows_equal_calls_in_sequence(rows):
    """R rows on one stream draw exactly the variates of R one-row calls made in sequence.

    Criterion 3 draws its samples this way. The reference loop runs its rows
    one after another while one block holds all of a row's iterations,
    ``_BLOCK_DRAWS // (beta * R) >= n``.
    """
    params = ProcessParams(2.0, 1, 2, 2)
    assert _BLOCK_DRAWS // (params.beta * rows) >= params.n
    rng = make_stream(27)
    alone = np.concatenate([_reference_rows([params], [rng]) for _ in range(rows)])
    assert np.array_equal(_reference_rows([params] * rows, [make_stream(27)] * rows), alone)


def random_block_call(seed: int) -> tuple:
    """A random call of the block copy kernel: (alphas, beta, s, n, block_iterations).

    Alpha is drawn per row from 1e-4 to 1e2, beta from 1 to 40, s from 1 to
    80, n from 0 to 4000, block_iterations is None (the default) or 1 to 60,
    and the row count from 1 to 3000, cut so the row-by-row oracle walks at
    most about 3000 blocks and 1e6 draws.
    """
    rng = np.random.default_rng(seed)
    beta, s, n = int(rng.integers(1, 41)), int(rng.integers(1, 81)), int(rng.integers(0, 4001))
    block_iterations = None if rng.random() < 0.5 else int(rng.integers(1, 61))
    blocks = -(-n // (block_iterations or max(1, _BLOCK_DRAWS // beta)))
    rows = min(int(np.exp(rng.uniform(0.0, math.log(3000)))), max(1, 3000 // max(1, blocks)),
               max(1, 10**6 // max(1, n * beta)))
    return (10.0 ** rng.uniform(-4.0, 2.0, rows)).tolist(), beta, s, n, block_iterations


# Calls of the block copy kernel, (alphas, beta, s, n, block_iterations):
# criterion 4's shape over 500 rows with blocks of one and two iterations,
# which step 1365 and 682 rows to a group; 3000 rows in two groups; no
# iterations; blocks where nearly every draw copies; late blocks where few
# do; and random calls.
BLOCK_CALLS = {
    "block-1": ([2.0] * 500, 3, 3, 2, 1),
    "block-2": ([2.0] * 500, 3, 3, 2, 2),
    "many-rows": ([0.5, 5.0] * 1500, 2, 4, 3, 1),
    "no-iterations": ([1.0, 2.0], 5, 7, 0, None),
    "copy-heavy": ([1e-4, 3e-4, 1e-3] * 4, 40, 64, 300, None),
    "root-heavy": ([100.0, 50.0], 1, 80, 4000, 60),
    **{f"random-{seed}": random_block_call(seed) for seed in range(16)},
}


@pytest.mark.parametrize("alphas,beta,s,n,block_iterations", BLOCK_CALLS.values(), ids=BLOCK_CALLS.keys())
def test_block_rows_equal_row_by_row_oracle(alphas, beta, s, n, block_iterations):
    """Every row of a call, each on its own stream, equals the row-by-row loop bit for bit: a run alone."""
    rows = [ProcessParams(alpha, beta, s, n) for alpha in alphas]
    seeds = range(7000, 7000 + len(rows))
    expected = block_copy_rows(alphas, beta, s, n, streams(seeds), block_iterations or max(1, _BLOCK_DRAWS // beta))
    assert np.array_equal(_block_rows(rows, streams(seeds), block_iterations), expected)


# Symbol 0's final hit count at sweep sizes, one point per kernel: (mode,
# kernel, (alpha, beta, s, n), runs, first seed). The multinomial loop's point
# has beta >= 187, where the pick keeps it at s = 64. The three chi-square
# tests share one 1% false-alarm budget (Bonferroni); the block kernel, the
# cheapest, gets the most runs.
HIT_LAW_POINTS = {
    "block": ("fast", _block_rows, (0.3, 10, 64, 300), 4000, 1000),
    "multinomial": ("fast", _multinomial_rows, (0.3, 200, 64, 40), 2000, 2000),
    "reference": ("reference", _reference_rows, (0.3, 10, 64, 300), 2000, 3000),
}
HIT_LAW_P_GATE = 0.01 / len(HIT_LAW_POINTS)
# The number of symbols hit, over the same runs, has its own 1% budget over its
# three chi-square tests.
DISTINCT_LAW_P_GATE = 0.01 / len(HIT_LAW_POINTS)


@functools.cache
def sweep_size_probs(mode, kernel, point, runs, first_seed) -> np.ndarray:
    """Final distributions of ``runs`` runs at ``point``, one row each, drawn as a sweep draws them.

    The runs are the rows of calls of the kernel's row cap, row i on the
    stream of seed ``first_seed + i``. Both law tests at a point read the
    same runs, drawn once.
    """
    params = ProcessParams(*point)
    planned = _kernel(params, mode)
    assert planned.run is kernel
    seeds = range(first_seed, first_seed + runs)
    return np.concatenate([
        _run_rows(kernel, [params] * len(chunk), streams(chunk))
        for chunk in (seeds[i:i + planned.max_rows] for i in range(0, runs, planned.max_rows))
    ])


@pytest.mark.parametrize("mode,kernel,point,runs,first_seed", HIT_LAW_POINTS.values(), ids=HIT_LAW_POINTS.keys())
def test_hit_count_law_at_sweep_size(mode, kernel, point, runs, first_seed):
    """Symbol 0's final hit count follows the exact law, neighbouring counts pooled to at least 20 expected.

    As in a sweep, the runs are the rows of calls of the kernel's row cap, each
    row on its own stream.
    """
    probs = sweep_size_probs(mode, kernel, point, runs, first_seed)
    p_value = binned_chi2_pvalue(hit_counts(probs[:, 0], *point), hit_count_law(*point), min_expected=20)
    assert p_value > HIT_LAW_P_GATE, f"chi-square rejects {kernel.__name__} at {point}: p={p_value:.2e}"


@pytest.mark.parametrize("mode,kernel,point,runs,first_seed", HIT_LAW_POINTS.values(), ids=HIT_LAW_POINTS.keys())
def test_distinct_symbol_law_at_sweep_size(mode, kernel, point, runs, first_seed):
    """The number of symbols hit follows its exact law, neighbouring counts pooled to at least 20 expected.

    Unlike one symbol's hit count, this law moves with alpha at every point:
    alpha sets how many draws are fresh, and only fresh draws hit new symbols.
    """
    probs = sweep_size_probs(mode, kernel, point, runs, first_seed)
    p_value = binned_chi2_pvalue(distinct_symbols(probs, *point), distinct_symbol_law(*point), min_expected=20)
    assert p_value > DISTINCT_LAW_P_GATE, f"chi-square rejects {kernel.__name__} at {point}: p={p_value:.2e}"


class RecordingStream:
    """A stream that logs the size of each of its ``random`` calls, which fill the buffer they are given."""

    def __init__(self, seed):
        self.rng = make_stream(seed)
        self.sizes = []

    def random(self, out):
        self.sizes.append(out.size)
        return self.rng.random(out=out)


@pytest.mark.parametrize(
    "rows,beta,n",
    [(200, 10, 30), (3, 2000, 4), (1, 10, 1000), (7, 1, 2000)],
    ids=["alpha-sweep-rows", "large-beta", "one-row", "beta-1"],
)
def test_reference_block_draws_bounded(rows, beta, n):
    """One reference block draws at most max(R*beta, _BLOCK_DRAWS) variates over its R rows."""
    params = [ProcessParams(0.01 * (r + 1), beta, 64, n) for r in range(rows)]
    streams = [RecordingStream(r) for r in range(rows)]
    w = _reference_rows(params, streams)
    blocks = list(zip(*(stream.sizes for stream in streams)))  # the r-th call of every row's stream
    assert all(len(stream.sizes) == len(blocks) for stream in streams)
    assert all(sum(block) <= max(rows * beta, _BLOCK_DRAWS) for block in blocks)
    assert all(sum(stream.sizes) == n * beta for stream in streams)
    for r in (0, rows - 1):  # the recorded streams gave each row its own run's variates
        assert np.array_equal(w[r], _reference_rows([params[r]], [make_stream(r)])[0])


def test_reference_rows_equal_step_folds_at_sweep_shape():
    """A call of the reduced canonical alpha sweep, row by row, equals folding :func:`step` on each row's stream.

    The 25 rows are those one call gets on 2 workers (every other reduced
    alpha, at n = 300). The kernel sorts each iteration's variates before its
    search, while ``step`` applies them in draw order; at alpha = 1e-4 one
    symbol takes several hits in one iteration, so a kernel that applied a
    repeated hit once would differ.
    """
    spec = next(e for e in canonical_experiments(0) if e.name == "alpha")
    alphas = log_sweep(spec.sweep)[::REDUCED_STRIDE][::2]
    rows = [ProcessParams(alpha, spec.beta, spec.s, 300) for alpha in alphas]
    assert len(rows) == 25 and rows[0].alpha == 1e-4 and (rows[0].beta, rows[0].s) == (10, 64)
    seeds = range(100, 125)
    w = _reference_rows(rows, streams(seeds))
    for row, params, rng in zip(w, rows, streams(seeds)):
        state = init_weights(params)
        for _ in range(params.n):
            state = step(state, params.beta, rng)
        assert row.tobytes() == state.weights.tobytes()


def test_trace_keeps_draw_order():
    """``run_traced`` records each iteration's indices in draw order, as ``step``'s search finds them."""
    params = ProcessParams(0.01, 10, 64, 200)
    traced = run_traced(params, make_stream(31))
    state, rng, draws = init_weights(params), make_stream(31), make_stream(31)
    expected = []
    for _ in range(params.n):
        expected.append(_inverse_cdf(state.weights, draws.random(params.beta)))
        state = step(state, params.beta, rng)
    assert any(np.any(np.diff(idx) < 0) for idx in expected)  # sorted draws would give another trace
    assert np.array_equal(traced.indices, np.concatenate(expected))
    assert traced.distribution.probs.tobytes() == run(params, make_stream(31), "reference").probs.tobytes()


# Sweep-size points beyond exact enumeration: (alpha, beta, s, n).
SWEEP_SIZE_POINTS = [(1.0, 5, 64, 200), (0.01, 10, 64, 500), (0.32, 1, 64, 1000)]
SWEEP_SIZE_REPLICATES = 120
# Two-sided false-alarm rate of each mean-entropy check.
SWEEP_SIZE_ALPHA = 1e-4


# (params, rng) -> final weights, up to a common factor
SAMPLERS = {
    "reference": lambda params, rng: run(params, rng, "reference").probs,
    "multinomial": lambda params, rng: _multinomial_rows([params], [rng])[0],
    "block": lambda params, rng: _block_rows([params], [rng])[0],
}


@pytest.mark.parametrize("sampler", list(SAMPLERS))
@pytest.mark.parametrize("alpha,beta,s,n", SWEEP_SIZE_POINTS)
def test_mean_entropy_matches_exact_at_sweep_sizes(sampler, alpha, beta, s, n):
    """Replicate-mean entropy lies within t(1 - a/2, k - 1) * SD / sqrt(k) of the exact E[H]."""
    params = ProcessParams(alpha, beta, s, n)
    k = SWEEP_SIZE_REPLICATES
    weights = [SAMPLERS[sampler](params, make_stream(10_000 * n + r)) for r in range(k)]
    h = np.array([shannon_entropy_bits(w / w.sum()) for w in weights])
    bound = scipy_stats.t.ppf(1 - SWEEP_SIZE_ALPHA / 2, k - 1) * h.std(ddof=1) / math.sqrt(k)
    exact = expected_entropy_bits(alpha, beta, s, n)
    assert abs(h.mean() - exact) <= bound, f"mean {h.mean():.4f} vs exact {exact:.4f} (bound {bound:.4f})"


class TestScaleEquivalence:
    @pytest.mark.parametrize("c", [1e-3, 7.0, 1e4])
    def test_traces_and_distributions_bit_identical(self, c):
        params = ProcessParams(2.0, 2, 2, 60)
        base = run_traced(params, make_stream(21))
        scaled = run_traced(params, make_stream(21), increment_scale=c)
        assert np.array_equal(base.indices, scaled.indices)
        assert np.array_equal(base.distribution.probs, scaled.distribution.probs)
        assert np.allclose(scaled.state.weights, c * base.state.weights, rtol=0, atol=0)

    @pytest.mark.parametrize("c", [1e-3, 7.0, 1e4])
    def test_direct_scaling_agrees(self, c):
        """Literally scaled initial weights and increments give the same draws.

        This drives the sampler with a genuinely rescaled trajectory (no
        factoring trick) and checks index-for-index agreement plus a tight
        tolerance on the final distribution.
        """
        alpha, beta, s, n = 2.0, 2, 4, 40
        rng_a, rng_b = make_stream(22), make_stream(22)
        w_a = np.full(s, alpha / s)
        w_b = np.full(s, c * alpha / s)
        inc_a, inc_b = 1.0 / beta, c / beta
        for _ in range(n):
            i_a = _inverse_cdf(w_a, rng_a.random(beta))
            i_b = _inverse_cdf(w_b, rng_b.random(beta))
            assert i_a.tolist() == i_b.tolist()
            np.add.at(w_a, i_a, inc_a)
            np.add.at(w_b, i_b, inc_b)
        pa = w_a / w_a.sum()
        pb = w_b / w_b.sum()
        np.testing.assert_allclose(pb, pa, rtol=1e-12)


class TestDegenerate:
    @pytest.mark.parametrize("s", [1, 2, 5, 64, 100])
    def test_zero_iterations_exactly_uniform(self, s):
        dist = run(ProcessParams(1.37, 3, s, 0), make_stream(23))
        assert np.ptp(dist.probs) == 0.0

    def test_single_symbol_probability_one(self):
        dist = run(ProcessParams(0.2, 4, 1, 25), make_stream(24))
        assert dist.probs.tolist() == [1.0]


@given(
    alpha=st.floats(min_value=1e-4, max_value=1e2),
    beta=st.integers(min_value=1, max_value=8),
    s=st.integers(min_value=1, max_value=16),
    n=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_property_sum_law_and_monotonicity(alpha, beta, s, n, seed):
    params = ProcessParams(alpha, beta, s, n)
    state = init_weights(params)
    rng = make_stream(seed)
    previous = state.weights
    for k in range(1, n + 1):
        state = step_fast(state, beta, rng)
        expected = alpha + k
        assert abs(state.total - expected) <= 1e-9 * expected
        assert np.all(state.weights >= previous)
        previous = state.weights
    dist_probs = state.weights / state.weights.sum()
    assert abs(dist_probs.sum() - 1.0) <= 1e-12

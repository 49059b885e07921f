import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from filex.core import Distribution, WeightState
from filex.errors import InvalidInputError, UndefinedCorrelationError
from filex.stats import CorrelationResult, PairedSeries, _count_inversions, kendall_tau, shannon_entropy_bits

from oracles import brute_force_tau_b


def entropy_oracle_bits(probs):
    """High-precision entropy via mpmath (50 digits)."""
    with mpmath.workdps(50):
        acc = mpmath.mpf(0)
        for p in probs:
            if p > 0:
                mp = mpmath.mpf(p)
                acc -= mp * mpmath.log(mp, 2)
        return float(acc)


class TestShannonEntropy:
    def test_uniform_64_is_exactly_6_bits(self):
        assert shannon_entropy_bits(np.full(64, 1 / 64)) == 6.0

    def test_degenerate_is_zero(self):
        assert shannon_entropy_bits([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_three_quarters_split(self):
        h = shannon_entropy_bits([0.75, 0.25])
        assert h == pytest.approx(0.811278, abs=1e-6)
        assert h == pytest.approx(entropy_oracle_bits([0.75, 0.25]), abs=1e-12)

    def test_accepts_distribution_objects(self):
        from filex.core import Distribution

        assert shannon_entropy_bits(Distribution(np.array([0.5, 0.5]))) == 1.0

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            shannon_entropy_bits([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            shannon_entropy_bits([1.2, -0.2])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            shannon_entropy_bits([])

    @given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40), st.randoms())
    def test_bounds_and_permutation_invariance(self, raw, rnd):
        probs = np.asarray(raw) / np.sum(raw)
        h = shannon_entropy_bits(probs)
        assert 0.0 <= h <= math.log2(len(probs)) + 1e-12
        shuffled = list(probs)
        rnd.shuffle(shuffled)
        assert shannon_entropy_bits(np.asarray(shuffled)) == pytest.approx(h, abs=1e-12)

    def test_matches_oracle_on_random_distributions(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            probs = rng.dirichlet(np.full(rng.integers(2, 20), 0.6))
            assert shannon_entropy_bits(probs) == pytest.approx(entropy_oracle_bits(probs), abs=1e-12)


class TestPairedSeries:
    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            PairedSeries([1, 2], [1, 2, 3])

    def test_rejects_short(self):
        with pytest.raises(InvalidInputError):
            PairedSeries([1], [1])


ENTRIES = {"nan": math.nan, "+inf": math.inf, "-inf": -math.inf, "0.0": 0.0, "-0.0": -0.0, "negative": -0.25}

# each array check: a call with one entry v, its error message, and the entries it accepts
ARRAY_CHECKS = {
    "Distribution": (
        lambda v: Distribution(np.array([0.5, 0.5, v])), "probs must all be positive and finite", (),
    ),
    "WeightState": (
        lambda v: WeightState(np.array([1.0, v]), 0), "weights must all be positive and finite", (),
    ),
    "PairedSeries.x": (
        lambda v: PairedSeries([1.0, v], [1.0, 2.0]), "series values must be finite", ("0.0", "-0.0", "negative"),
    ),
    "PairedSeries.y": (
        lambda v: PairedSeries([1.0, 2.0], [v, 1.0]), "series values must be finite", ("0.0", "-0.0", "negative"),
    ),
    "shannon_entropy_bits": (
        lambda v: shannon_entropy_bits(np.array([0.5, 0.5, v])),
        "probabilities must be finite and non-negative",
        ("0.0", "-0.0"),
    ),
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("check", ARRAY_CHECKS)
def test_array_check_accepts_and_rejects(check, entry):
    build, message, accepted = ARRAY_CHECKS[check]
    if entry in accepted:
        build(ENTRIES[entry])
    else:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            build(ENTRIES[entry])


class TestKendallTau:
    def test_perfect_concordance(self):
        assert kendall_tau(PairedSeries([1, 2, 3, 4], [1, 2, 3, 4])).tau == 1.0

    def test_perfect_discordance(self):
        assert kendall_tau(PairedSeries([1, 2, 3, 4], [4, 3, 2, 1])).tau == -1.0

    def test_one_third(self):
        assert kendall_tau(PairedSeries([1, 2, 3], [1, 3, 2])).tau == pytest.approx(1 / 3, abs=1e-15)

    def test_constant_series_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau(PairedSeries([1, 1, 1], [1, 2, 3]))
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau(PairedSeries([1, 2, 3], [7, 7, 7]))

    def test_antisymmetry_no_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            a = kendall_tau(PairedSeries(x, y)).tau
            b = kendall_tau(PairedSeries(x, -y)).tau
            assert a == -b

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.random(50) + 0.1
        y = rng.normal(size=50)
        base = kendall_tau(PairedSeries(x, y))
        increasing = kendall_tau(PairedSeries(np.log(x), y))
        decreasing = kendall_tau(PairedSeries(1.0 / x, y))
        assert increasing.tau == base.tau
        assert decreasing.tau == -base.tau

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
            min_size=2,
            max_size=8,
        )
    )
    def test_brute_force_equivalence_small(self, pairs):
        x = np.asarray([float(a) for a, _ in pairs])
        y = np.asarray([float(b) for _, b in pairs])
        if np.all(x == x[0]) or np.all(y == y[0]):
            return
        assert kendall_tau(PairedSeries(x, y)).tau == brute_force_tau_b(x, y)

    @given(st.lists(st.integers(min_value=0, max_value=6), max_size=70))
    def test_inversions_match_pair_count(self, values):
        # every pair (i < j) with values[i] > values[j], by an O(n^2) loop; ties are not inversions
        expected = sum(a > b for i, a in enumerate(values) for b in values[i + 1:])
        ranks = np.unique(np.asarray(values, dtype=np.int64), return_inverse=True)[1]  # as kendall_tau passes them
        assert _count_inversions(ranks) == expected

    def test_matches_scipy_tau_and_asymptotic_p(self):
        rng = np.random.default_rng(3)
        # past n = 300, series of 1000 and 4097 pairs: several merge levels and a ragged last run
        for trial in range(154):
            n = int(rng.integers(10, 300)) if trial < 150 else (1000, 4097)[trial % 2]
            x = rng.integers(0, n // 3 + 2, size=n).astype(float) if trial % 2 else rng.normal(size=n)
            y = rng.integers(0, n // 3 + 2, size=n).astype(float) if trial % 3 else rng.normal(size=n)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            mine = kendall_tau(PairedSeries(x, y))
            ref = scipy_stats.kendalltau(x, y, method="asymptotic")
            assert mine.tau == pytest.approx(ref.statistic, abs=1e-13)
            assert mine.p_value == pytest.approx(ref.pvalue, abs=1e-13)
            assert mine.n == n

    def test_result_bounds_validated(self):
        with pytest.raises(InvalidInputError):
            CorrelationResult(tau=1.5, p_value=0.5, n=10)
        with pytest.raises(InvalidInputError):
            CorrelationResult(tau=0.5, p_value=-0.1, n=10)

"""Checks of the exact expected-entropy oracle against exact enumeration.

The lumped-chain oracle is what the acceptance suite centres its canonical
curve-shape windows on, so it is pinned here to the independent rational
enumeration wherever that is feasible, and to its structural properties
(n = 0 is uniform, s = 1 is degenerate, E[H] never rises with n) elsewhere.
The law of the number of symbols hit is pinned to the same enumeration.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    distinct_symbol_law,
    enumerate_outcome_distribution,
    expected_entropy_bits,
    expected_entropy_curve,
    hit_count_law,
)


def enumerated_mean_entropy(alpha: Fraction, beta: int, s: int, n: int) -> float:
    """Mean entropy (bits) over the exactly enumerated final distributions."""
    mean = 0.0
    for counts, prob in enumerate_outcome_distribution(alpha, beta, s, n).items():
        probs = [float((alpha / s + Fraction(c, beta)) / (alpha + n)) for c in counts]
        mean += float(prob) * -sum(q * math.log2(q) for q in probs)
    return mean


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_matches_enumeration(s, beta, n):
    # the fast-path equivalence configurations of acceptance criterion 4
    exact = enumerated_mean_entropy(Fraction(2), beta, s, n)
    assert abs(expected_entropy_bits(2.0, beta, s, n) - exact) <= 1e-12


def test_polya_urn_value():
    # two-colour urn (criterion 3): q1 is 3/4, 1/2 or 1/4, each with probability 1/3
    value = expected_entropy_bits(2.0, 1, 2, 2)
    h34 = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(value - (2 * h34 + 1) / 3) <= 1e-15
    assert round(value, 4) == 0.8742


@pytest.mark.parametrize("alpha", [1e-4, 1.0, 50.0])
@pytest.mark.parametrize("beta", [1, 4, 10])
def test_single_symbol_is_exactly_zero(alpha, beta):
    # s = 1 makes every hit probability exactly 1 and every miss probability 0
    assert np.all(expected_entropy_curve(alpha, beta, 1, [0, 1, 7, 30]) == 0.0)


def test_zero_iterations_is_uniform():
    for s in (2, 5, 64):
        assert abs(expected_entropy_bits(0.3, 7, s, 0) - math.log2(s)) <= 1e-12


@pytest.mark.parametrize("alpha, beta, s", [(1e-3, 3, 8), (1.0, 5, 64), (40.0, 2, 16)])
def test_non_increasing_in_n(alpha, beta, s):
    # each q_k is a martingale and entropy is concave, so E[H] cannot rise with n
    curve = expected_entropy_curve(alpha, beta, s, range(61))
    assert np.all(np.isfinite(curve))
    assert np.all(np.diff(curve) <= 1e-12)
    assert 0.0 < curve[-1] <= math.log2(s)


def test_curve_agrees_with_pointwise_calls():
    # unsorted and repeated n are answered from one pass
    ns = [9, 0, 4, 9]
    curve = expected_entropy_curve(0.5, 3, 6, ns)
    assert [expected_entropy_bits(0.5, 3, 6, n) for n in ns] == curve.tolist()


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_hit_count_law_matches_enumeration(s, beta, n):
    # the law of the first symbol's hit count is the enumerated outcomes' marginal
    marginal = np.zeros(beta * n + 1)
    for counts, prob in enumerate_outcome_distribution(Fraction(2), beta, s, n).items():
        marginal[counts[0]] += float(prob)
    assert np.max(np.abs(hit_count_law(2.0, beta, s, n) - marginal)) <= 1e-12


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("beta", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_distinct_symbol_law_matches_enumeration(s, beta, n):
    # the law of the number of symbols hit is that of the enumerated outcomes' non-zero counts
    law = np.zeros(s + 1)
    for counts, prob in enumerate_outcome_distribution(Fraction(2), beta, s, n).items():
        law[sum(c > 0 for c in counts)] += float(prob)
    assert np.max(np.abs(distinct_symbol_law(2.0, beta, s, n) - law)) <= 1e-12

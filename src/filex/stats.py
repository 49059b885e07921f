"""Entropy of categorical distributions and Kendall rank correlation.

Entropy is reported in bits (base-2 logarithm). The correlation is the
tie-corrected tau-b with a two-sided p-value from the normal approximation to
the null distribution of the concordance statistic, including tie terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution
from .errors import InvalidInputError, UndefinedCorrelationError

_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PairedSeries:
    """Paired observations (hyperparameter value, entropy) of equal length >= 2."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim != 1 or y.ndim != 1:
            raise InvalidInputError("series must be 1-d")
        if x.size != y.size:
            raise InvalidInputError(f"series lengths differ: {x.size} != {y.size}")
        if x.size < 2:
            raise InvalidInputError("series must contain at least 2 pairs")
        # NaN fails both comparisons
        if not all(-math.inf < a.min() and a.max() < math.inf for a in (x, y)):
            raise InvalidInputError("series values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class CorrelationResult:
    tau: float
    p_value: float
    n: int

    def __post_init__(self):
        if not -1.0 <= self.tau <= 1.0:
            raise InvalidInputError(f"tau out of [-1, 1]: {self.tau}")
        if not 0.0 <= self.p_value <= 1.0:
            raise InvalidInputError(f"p-value out of [0, 1]: {self.p_value}")


def shannon_entropy_bits(dist) -> float:
    """Shannon entropy, in bits, of a normalized distribution.

    Accepts a :class:`~filex.core.Distribution`, whose constructor has checked
    it, or any array of probabilities summing to 1 within 1e-9, which is
    checked here. Zero entries contribute nothing; the result lies in
    [0, log2(len)].
    """
    if isinstance(dist, Distribution):
        probs = dist.probs
    else:
        probs = np.asarray(dist, dtype=np.float64)
        if probs.ndim != 1 or probs.size == 0:
            raise InvalidInputError("distribution must be a non-empty 1-d array")
        # NaN fails both comparisons; -0.0 passes, as a zero
        if not (probs.min() >= 0.0 and probs.max() < math.inf):
            raise InvalidInputError("probabilities must be finite and non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > _SUM_TOLERANCE:
            raise InvalidInputError(f"probabilities sum to {total!r}, expected 1 within {_SUM_TOLERANCE}")
    positive = probs[probs > 0.0]
    return float(_entropy_bits_rows(positive[None])[0])


def _entropy_bits_rows(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy, in bits, of each row of a 2-d array of positive probabilities.

    Row-wise products and sums along axis 1 round exactly as on each row
    alone, so a row's entropy does not depend on the rows beside it.
    """
    h = -np.add.reduce(probs * np.log2(probs), axis=1)
    # A probability can sit one ulp above 1 after normalization; clamp the
    # resulting -1e-16-ish entropy (or a degenerate -0.0) to the bound.
    return np.where(h <= 0.0, 0.0, h)


def _count_inversions(rank: np.ndarray) -> int:
    """Number of pairs (i < j) with rank[i] > rank[j], for integer ranks in [0, rank.size).

    A bottom-up merge: each level merges adjacent pairs of sorted runs of
    ``width`` ranks. The key ``pair * n + rank`` keeps the pairs apart, so one
    ``searchsorted`` of the right runs' keys into the sorted left runs' keys
    counts, for every right element, the left elements of its pair that rank
    strictly above it (equal ranks are not inversions), and one sort of all
    keys merges every pair.
    """
    n = rank.size
    index = np.arange(n)
    count = 0
    width = 1
    while width < n:
        pair = index // (2 * width)
        key = pair * n + rank
        left = index % (2 * width) < width
        right = ~left
        # a left run followed by a right run is full, so pairs 0..k hold (k + 1) * width left keys
        count += int(((pair[right] + 1) * width - np.searchsorted(key[left], key[right], side="right")).sum())
        rank = np.sort(key) - pair * n
        width *= 2
    return count


def kendall_tau(series: PairedSeries) -> CorrelationResult:
    """Tie-corrected Kendall tau-b with a two-sided asymptotic p-value.

    Each series becomes dense ranks once (``np.unique``), whose counts are its
    tie groups; a series of one rank is constant. Sorting the joint key
    ``x_rank * (number of y ranks) + y_rank`` puts the pairs in (x, y) order
    and gives the joint tie groups, and the merge count of strict inversions
    of the y ranks in that order (:func:`_count_inversions`) is the number of
    discordant pairs. Concordant minus discordant then follows from the pair-count
    identity with the x, y, and joint tie totals. The p-value uses the normal
    approximation to the null variance of the concordance statistic with tie
    corrections.
    """
    n = len(series)
    _, x_rank, x_counts = np.unique(series.x, return_inverse=True, return_counts=True)
    _, y_rank, y_counts = np.unique(series.y, return_inverse=True, return_counts=True)
    if x_counts.size == 1 or y_counts.size == 1:
        raise UndefinedCorrelationError("correlation undefined: a series is constant")
    joint = np.sort(x_rank * y_counts.size + y_rank)
    xy_counts = np.unique(joint, return_counts=True)[1]
    tx, ty, txy = (counts[counts > 1].tolist() for counts in (x_counts, y_counts, xy_counts))

    n0 = n * (n - 1) // 2
    xtie = sum(t * (t - 1) // 2 for t in tx)
    ytie = sum(t * (t - 1) // 2 for t in ty)
    ntie = sum(t * (t - 1) // 2 for t in txy)
    dis = _count_inversions(joint % y_counts.size)

    con_minus_dis = n0 - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / math.sqrt((n0 - xtie) * (n0 - ytie))
    tau = max(-1.0, min(1.0, tau))

    p_value = _asymptotic_p(n, tx, ty, con_minus_dis)
    return CorrelationResult(tau, p_value, n)


def _asymptotic_p(n: int, tx: list[int], ty: list[int], con_minus_dis: int) -> float:
    v0 = n * (n - 1) * (2 * n + 5)
    vt = sum(t * (t - 1) * (2 * t + 5) for t in tx)
    vu = sum(u * (u - 1) * (2 * u + 5) for u in ty)
    v1 = (
        sum(t * (t - 1) for t in tx) * sum(u * (u - 1) for u in ty)
        / (2.0 * n * (n - 1))
    )
    v2 = 0.0
    if n > 2:
        v2 = (
            sum(t * (t - 1) * (t - 2) for t in tx) * sum(u * (u - 1) * (u - 2) for u in ty)
            / (9.0 * n * (n - 1) * (n - 2))
        )
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    if var <= 0.0:
        raise UndefinedCorrelationError("correlation undefined: null variance is zero")
    z = con_minus_dis / math.sqrt(var)
    return math.erfc(abs(z) / math.sqrt(2.0))

"""Independent oracles used by the test suite.

Everything here is deliberately written against the definitions rather than
reusing package code paths: correlation by explicit pair classification,
process outcome distributions by exact rational enumeration, one symbol's
hit-count law and the expected entropy at sweep sizes by an exact dynamic
program over that hit count, the law of the number of symbols hit from
the urn's copy form, and the block copy kernel as a plain loop over rows.
Nothing here imports ``filex``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy import stats as scipy_stats


def brute_force_tau_b(x, y) -> float:
    """Tie-corrected tau-b by O(n^2) classification of every pair.

    The final expression mirrors the definition exactly: all intermediate
    quantities are integers, so a correct implementation must match this value
    bit for bit.
    """
    x = list(map(float, x))
    y = list(map(float, y))
    n = len(x)
    concordant = discordant = ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif dx == dy:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    n1 = ties_x
    n2 = ties_y
    return (concordant - discordant) / math.sqrt((n0 - n1) * (n0 - n2))


def _compositions(total: int, parts: int):
    """All tuples of non-negative integers of length ``parts`` summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _multinomial_coefficient(counts) -> int:
    total = sum(counts)
    coeff = 1
    remaining = total
    for c in counts:
        coeff *= math.comb(remaining, c)
        remaining -= c
    return coeff


def enumerate_outcome_distribution(alpha: Fraction, beta: int, s: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact distribution over total per-symbol hit counts after n iterations.

    Weights are tracked as exact rationals (alpha/s + hits/beta). Within one
    iteration the beta draws are i.i.d. from the iteration-start weights, so
    the per-iteration hit vector is multinomial with those probabilities.
    """
    alpha = Fraction(alpha)
    states: dict[tuple[int, ...], Fraction] = {tuple([0] * s): Fraction(1)}
    for k in range(n):
        total = alpha + k
        nxt: dict[tuple[int, ...], Fraction] = {}
        for counts, prob in states.items():
            weights = [alpha / s + Fraction(c, beta) for c in counts]
            probs = [w / total for w in weights]
            for batch in _compositions(beta, s):
                p = Fraction(_multinomial_coefficient(batch))
                for c, q in zip(batch, probs):
                    p *= q**c
                if p == 0:
                    continue
                new_counts = tuple(a + b for a, b in zip(counts, batch))
                nxt[new_counts] = nxt.get(new_counts, Fraction(0)) + prob * p
        states = nxt
    assert sum(states.values()) == 1
    return states


def _lumped_chain(alpha: float, beta: int, s: int, n_max: int):
    """Yield ``(p, law)`` after each k = 0, ..., n_max iterations, by an exact dynamic program.

    All symbols are exchangeable, and lumping all but symbol 1 together
    leaves an exact one-dimensional Markov chain (the process is lumpable
    with respect to {symbol 1, rest}): with c_k symbol 1's hit count after k
    iterations, c_{k+1} = c_k + Binomial(beta, (alpha/s + c_k/beta)/(alpha+k)).
    ``law[c]`` is P(c_k = c) over c in [0, beta*k], and ``p[c]`` is symbol
    1's probability q1 at that count; every iteration convolves the law with
    that state-dependent binomial.

    The probabilities of a hit (p) and of a miss (r) are each formed from
    their own masses rather than r = 1 - p, so p = 1 at s = 1 gives r = 0
    exactly; with the power r**0 = 1 seeded explicitly, no 0 * inf arises.
    Cost is about beta**2 * n_max**2 / 2 multiply-adds.
    """
    coeff = [float(math.comb(beta, j)) for j in range(beta + 1)]
    law = np.ones(1)  # c_0 = 0 with certainty
    for k in range(n_max + 1):
        c = np.arange(beta * k + 1)
        p = (alpha / s + c / beta) / (alpha + k)
        yield p, law
        if k == n_max:
            return
        r = (alpha * (s - 1) / s + (beta * k - c) / beta) / (alpha + k)
        r_pow = [np.ones_like(r)]
        for _ in range(beta):
            r_pow.append(r_pow[-1] * r)
        nxt = np.zeros(c.size + beta)
        term = law.copy()  # law * p**j, for j = 0, 1, ...
        for j in range(beta + 1):
            nxt[j:j + c.size] += coeff[j] * term * r_pow[beta - j]
            term *= p
        law = nxt


def hit_count_law(alpha: float, beta: int, s: int, n: int) -> np.ndarray:
    """Exact law of one symbol's final hit count: element c is P(c_n = c), c in [0, beta*n].

    Every symbol has this law; see :func:`_lumped_chain`.
    """
    for _, law in _lumped_chain(alpha, beta, s, n):
        pass
    return law


def expected_entropy_curve(alpha: float, beta: int, s: int, ns) -> np.ndarray:
    """Exact E[H] (bits) of the final distribution after each n in ``ns``.

    By linearity E[H] = s * E[-q1 log2 q1], where q1 is symbol 1's final
    probability, taken over the law of :func:`_lumped_chain`.
    """
    ns = [int(v) for v in ns]
    out = np.empty(len(ns))
    for k, (p, law) in enumerate(_lumped_chain(alpha, beta, s, max(ns))):
        columns = [i for i, m in enumerate(ns) if m == k]
        if columns:
            out[columns] = s * float(np.dot(law, -p * np.log2(p)))
    return out


def expected_entropy_bits(alpha: float, beta: int, s: int, n: int) -> float:
    """Exact E[H] in bits after n iterations; see :func:`expected_entropy_curve`."""
    return float(expected_entropy_curve(alpha, beta, s, [n])[0])


def _trim_tails(low: int, law: np.ndarray, tail: float) -> tuple[int, np.ndarray]:
    """Drop the entries at each end of ``law`` (element i is P(low + i)) whose summed mass is at most ``tail``."""
    first = int(np.searchsorted(np.cumsum(law), tail, side="right"))
    last = law.size - int(np.searchsorted(np.cumsum(law[::-1]), tail, side="right"))
    return low + first, law[first:last]


def fresh_draw_law(alpha: float, beta: int, n: int, tail: float = 1e-18) -> tuple[int, np.ndarray]:
    """Law of F, the number of fresh draws in n iterations, as ``(low, law)``: law[i] is P(F = low + i).

    In the urn's copy form each draw of iteration j is, independently of all
    others, a fresh uniform symbol with probability alpha/(alpha + j) and
    otherwise a copy of an earlier draw. Every draw of iteration 0 is fresh,
    so F = beta + sum over j = 1..n-1 of Binomial(beta, alpha/(alpha + j))
    (F = 0 at n = 0). Each binomial is convolved in over a window of its mean
    +- (10 SD + 40), checked to leave out at most ``tail`` at each end, and
    at most ``tail`` of mass is trimmed from each end of F's law per
    iteration, so the law sums to 1 within 4 n ``tail`` and rounding.
    """
    if n == 0:
        return 0, np.ones(1)
    low, law = beta, np.ones(1)
    for j in range(1, n):
        p = alpha / (alpha + j)
        mean, spread = beta * p, 10.0 * math.sqrt(beta * p) + 40.0
        k = np.arange(max(0, math.ceil(mean - spread)), min(beta, math.floor(mean + spread)) + 1)
        # the window leaves out at most tail at each end
        assert scipy_stats.binom.cdf(k[0] - 1, beta, p) <= tail and scipy_stats.binom.sf(k[-1], beta, p) <= tail
        low, law = _trim_tails(low + k[0], np.convolve(law, scipy_stats.binom.pmf(k, beta, p)), tail)
    return low, law


def distinct_symbol_law(alpha: float, beta: int, s: int, n: int) -> np.ndarray:
    """Exact law of K, the number of symbols hit at least once in n iterations: element k is P(K = k), k in [0, s].

    A copy never hits a new symbol, and the fresh draws are uniform over the
    s symbols independently of how many there are, so K is the occupancy of
    F uniform balls in s boxes (:func:`fresh_draw_law`), mixed over F's law.
    The occupancy law after f balls comes from the one before it: the next
    ball lands in an occupied box with probability k/s.
    """
    low, f_law = fresh_draw_law(alpha, beta, n)
    k = np.arange(s + 1)
    occupancy = np.zeros(s + 1)
    occupancy[0] = 1.0  # no balls, no box occupied
    law = np.zeros(s + 1)
    for f in range(low + f_law.size):
        if f >= low:
            law += f_law[f - low] * occupancy
        occupancy = occupancy * (k / s) + np.r_[0.0, occupancy[:-1] * ((s - k[:-1]) / s)]
    return law


def distinct_symbols(probs: np.ndarray, alpha: float, beta: int, s: int, n: int) -> np.ndarray:
    """Number of symbols hit at least once in each row of final normalized distributions ``probs``.

    A symbol's hits are its weight ``probs[r] * (alpha + n)`` less alpha/s,
    in units of 1/beta (:func:`hit_counts`); a symbol counts as hit at half a
    hit or more, so the count reads a row right even when its weights are
    off by far less than one hit.
    """
    hits = (np.asarray(probs) * (alpha + n) - alpha / s) * beta
    return (hits >= 0.5).sum(axis=1)


def chi2_gof_pvalue(observed: dict, expected: dict[object, Fraction], n_samples: int, min_expected: float = 5.0) -> float:
    """Goodness-of-fit p-value, pooling low-expectation outcomes.

    ``observed`` maps outcome -> count; every observed outcome must be a
    possible one. Outcomes with expected count below ``min_expected`` are
    pooled into a single bucket before applying the chi-square test.
    """
    impossible = set(observed) - set(expected)
    if impossible:
        raise AssertionError(f"impossible outcomes drawn: {sorted(impossible)!r}")
    keys = sorted(expected, key=lambda k: (expected[k], repr(k)))
    f_obs, f_exp = [], []
    pooled_obs, pooled_exp = 0.0, 0.0
    for key in keys:
        e = float(expected[key]) * n_samples
        o = float(observed.get(key, 0))
        if e < min_expected:
            pooled_obs += o
            pooled_exp += e
        else:
            f_obs.append(o)
            f_exp.append(e)
    if pooled_exp > 0.0:
        f_obs.append(pooled_obs)
        f_exp.append(pooled_exp)
    if len(f_obs) < 2:
        # Degenerate support: the only check is that every draw landed on it.
        return 1.0
    result = scipy_stats.chisquare(np.asarray(f_obs), np.asarray(f_exp))
    return float(result.pvalue)


def binned_chi2_pvalue(counts: np.ndarray, law: np.ndarray, min_expected: float) -> float:
    """Goodness-of-fit p-value of integer ``counts`` against ``law`` (element c is P(count = c)).

    Neighbouring counts are pooled, from 0 upwards, into cells that each
    expect at least ``min_expected`` samples; a short remainder at the top
    joins the last cell. Every count must lie in the law's support.
    """
    counts = np.asarray(counts)
    assert counts.min() >= 0 and counts.max() < law.size, "counts outside the law's support"
    expected = law * counts.size
    edges, acc = [0], 0.0
    for c, e in enumerate(expected):
        acc += e
        if acc >= min_expected:
            edges.append(c + 1)
            acc = 0.0
    edges[-1] = law.size
    assert len(edges) > 2, "fewer than two cells"
    f_exp = np.add.reduceat(expected, edges[:-1])
    f_obs = np.add.reduceat(np.bincount(counts, minlength=law.size), edges[:-1])
    return float(scipy_stats.chisquare(f_obs, f_exp).pvalue)


def hit_counts(probs: np.ndarray, alpha: float, beta: int, s: int, n: int) -> np.ndarray:
    """The total hit counts behind final normalized distributions ``probs``, one row per run.

    Row r's weights are ``probs[r] * (alpha + n)``, and each symbol's weight is
    alpha/s plus 1/beta per hit, so its hit counts are integers up to rounding.
    """
    exact = (np.asarray(probs) * (alpha + n) - alpha / s) * beta
    counts = np.rint(exact)
    assert np.all(np.abs(exact - counts) < 1e-6)
    return counts.astype(np.int64)


def hit_count_outcomes(probs: np.ndarray, alpha: float, beta: int, s: int, n: int) -> dict[tuple[int, ...], int]:
    """Tally the rows of final normalized distributions ``probs`` by their total hit counts (:func:`hit_counts`)."""
    outcomes, tallies = np.unique(hit_counts(probs, alpha, beta, s, n), axis=0, return_counts=True)
    return {tuple(outcome.tolist()): int(tally) for outcome, tally in zip(outcomes, tallies)}


def block_copy_rows(alphas, beta: int, s: int, n: int, rngs, block_iterations: int) -> np.ndarray:
    """Final weights of the block copy kernel, one row per alpha, by a loop over rows and then blocks.

    Row r runs alone on ``rngs[r]``, block after block of ``block_iterations``
    iterations. In the block that starts at iteration a, a draw of iteration
    j takes x = u*(alpha + j); x < alpha + a picks from the block-start
    weights by inverse CDF, and otherwise the draw copies the in-block draw
    at offset floor((x - alpha - a)*beta), clamped into earlier iterations.
    Pointer jumping over every draw of the block resolves each copy to its
    root, whose x picks the symbol.
    """
    w = np.empty((len(alphas), s))
    w.T[:] = [alpha / s for alpha in alphas]
    draw = np.arange(min(block_iterations, n) * beta)
    iteration = draw // beta
    earlier = iteration * beta
    for r, (alpha, rng) in enumerate(zip(alphas, rngs)):
        for a in range(0, n, block_iterations):
            size = min(block_iterations, n - a) * beta
            start = alpha + a
            x = rng.random(size) * (start + iteration[:size])
            source = np.minimum(np.floor((x - start) * beta), earlier[:size] - 1).astype(np.intp)
            source = np.where(source < 0, draw[:size], source)
            while True:
                jumped = source[source]
                if np.array_equal(jumped, source):
                    break
                source = jumped
            cdf = np.cumsum(w[r])
            picks = np.minimum(np.searchsorted(cdf, x[source] / start * cdf[-1], side="right"), s - 1)
            w[r] += np.bincount(picks, minlength=s) / beta
    return w

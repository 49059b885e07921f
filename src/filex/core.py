"""Finite-lexicon self-reinforcing weight process.

A lexicon of ``s`` symbols starts with equal weights ``alpha / s``. Each
iteration freezes a copy of the weights, draws ``beta`` symbols i.i.d. from the
categorical distribution proportional to that frozen copy, and adds ``1/beta``
to the weight of every drawn symbol, so each iteration adds exactly one unit of
mass and the unnormalized sum after ``k`` iterations is ``alpha + k``. After
``n`` iterations the weights are normalized and returned.

Two distributionally identical samplers are provided: a reference path that
draws each symbol by inverse CDF over the cumulative weights, and a fast
path. The fast path has two exact kernels and runs whichever a measured cost
rule expects to finish first: one multinomial draw of the hit counts per
iteration, or the urn's "copy an earlier draw" form resolved a block of
iterations at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InvalidInputError, InvalidParameterError

# Deterministic uniform-variate stream: PCG64 seeded as SeedSequence(seed)
# seeds it, so the same 64-bit seed always reproduces the same variate
# sequence, bit for bit that of np.random.default_rng(seed). A sweep hashes
# all its seeds at once (:func:`_seed_words`) and builds each row's stream
# from its words (:func:`_streams`).
RandomStream = np.random.Generator

_MAX_SEED = 2**64

# The samplers, by name.
MODES = ("reference", "fast")


def _check_count(name: str, value, minimum: int, limit: int | None = None) -> int:
    """``value`` as an int in [minimum, limit); bools and non-integers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")
    if limit is not None and value >= limit:
        raise InvalidParameterError(f"{name} must be < {limit}, got {value}")
    return value


def _check_positive(name: str, value) -> float:
    """``value`` as a positive finite float; bools and non-numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidParameterError(f"{name} must be a positive real, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be positive and finite, got {value}")
    return value


def _check_flag(name: str, value) -> bool:
    """``value`` as a bool; numpy bools are accepted, truthy or falsy stand-ins rejected."""
    if not isinstance(value, (bool, np.bool_)):
        raise InvalidParameterError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def _check_mode(mode) -> str:
    """``mode`` if it is one of :data:`MODES`."""
    if mode not in MODES:
        raise InvalidParameterError(f"mode must be {' or '.join(map(repr, MODES))}, got {mode!r}")
    return mode


def _check_positive_array(name: str, values) -> np.ndarray:
    """``values`` as a non-empty 1-d float64 array whose entries are all positive and finite.

    NaN fails both comparisons, so ``min > 0`` and ``max < inf`` accept exactly
    the arrays that ``all(isfinite)`` and ``all(> 0)`` accept, in two plain
    reductions.
    """
    a = np.asarray(values, dtype=np.float64)
    if a.ndim != 1 or a.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 1-d array")
    if not (np.minimum.reduce(a) > 0.0 and np.maximum.reduce(a) < math.inf):
        raise InvalidInputError(f"{name} must all be positive and finite")
    return a


def _check_sums(probs: np.ndarray) -> None:
    """Raise unless every row of the 2-d, non-empty ``probs`` sums to 1 within 1e-12, naming the first total that does not.

    One comparison tests all rows; ``fmax`` passes over a NaN total, as the
    comparison of NaN with the tolerance does.
    """
    totals = np.add.reduce(probs, axis=1)
    errors = np.abs(totals - 1.0)
    if np.fmax.reduce(errors) > 1e-12:
        total = totals[np.argmax(errors > 1e-12)].item()
        raise InvalidInputError(f"probs must sum to 1 within 1e-12, got {total!r}")


def _hash_chain(init: int, multiplier: int, hashes: int) -> np.ndarray:
    """The constants ``init * multiplier**k mod 2**32``, k = 0..hashes, of one chain of SeedSequence hashes.

    Hash k of a chain XORs its word with constant k and multiplies it by
    constant k + 1.
    """
    chain = [init]
    for _ in range(hashes):
        chain.append(chain[-1] * multiplier & 0xFFFFFFFF)
    return np.array(chain, dtype=np.uint32)


def _mix_constants(chain: np.ndarray) -> np.ndarray:
    """The 12 mixing-hash constants in ``chain`` as a (4, 4, 1) table: [i, d] mixes word i into word d.

    numpy runs them source by source, destinations in order; the unused [i, i] are 0.
    """
    table = np.zeros((4, 4), dtype=np.uint32)
    table[~np.eye(4, dtype=bool)] = chain
    return table[:, :, None]


# numpy's SeedSequence hash of a 4-word pool, which NEP 19 keeps stable: 4
# hashes fill the pool, 12 mix each word into the other three (chain A), and
# 8 hash the pool, cycled, into the 8 uint32 words of 4 uint64 (chain B).
_CHAIN_A = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_CHAIN_B = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_XOR = _mix_constants(_CHAIN_A[4:16])
_MIX_MULTIPLIER = _mix_constants(_CHAIN_A[5:17])
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)


def _hashmix(words: np.ndarray, xor, multiplier) -> np.ndarray:
    """SeedSequence's hash of uint32 ``words``, elementwise with broadcast constants."""
    h = words ^ xor
    h *= multiplier
    h ^= h >> 16
    return h


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed, as the rows of one (R, 4) array.

    All seeds go through each step of the hash at once, in uint32
    arithmetic. A seed is its (low, high) 32-bit words: numpy hashes a seed
    below 2**32 as the one word [low] and fills the unused pool words with
    the hash of 0, so (low, 0) gives the same pool.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool = _hashmix(pool, _CHAIN_A[:4, None], _CHAIN_A[1:5, None])
    for i in range(4):  # every other word d of the pool takes mix(d, hash of word i)
        mixed = pool * _MIX_L - _hashmix(pool[i], _MIX_XOR[i], _MIX_MULTIPLIER[i]) * _MIX_R
        mixed ^= mixed >> 16
        mixed[i] = pool[i]
        pool = mixed
    state = _hashmix(np.concatenate((pool, pool)), _CHAIN_B[:8, None], _CHAIN_B[1:, None])
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _SeedWords(ISeedSequence):
    """The seed words of a call's rows (:func:`_seed_words`), handed out in turn: each PCG64 built from it asks once, for its 4."""

    def __init__(self, words: np.ndarray):
        self.rows = iter(words)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return next(self.rows)


def _streams(words: np.ndarray) -> list[RandomStream]:
    """The stream of each row of :func:`_seed_words`, each bit-identical to ``np.random.default_rng`` of its seed.

    All the PCG64s share one seed sequence that hands each its row, which
    spares an object and a Python call per stream.
    """
    rows, generator, pcg64 = _SeedWords(words), np.random.Generator, np.random.PCG64
    return [generator(pcg64(rows)) for _ in range(len(words))]


def make_stream(seed: int) -> RandomStream:
    """Create the package's deterministic random stream from a 64-bit seed."""
    return np.random.default_rng(_check_count("seed", seed, 0, _MAX_SEED))


@dataclass(frozen=True)
class ProcessParams:
    """The four process hyperparameters.

    alpha: total initial weight mass shared equally by all symbols.
    beta:  samples drawn (and 1/beta increments applied) per iteration.
    s:     lexicon size, i.e. number of weights.
    n:     number of iterations.
    """

    alpha: float
    beta: int
    s: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_positive("alpha", self.alpha))
        object.__setattr__(self, "beta", _check_count("beta", self.beta, 1))
        object.__setattr__(self, "s", _check_count("s", self.s, 1))
        object.__setattr__(self, "n", _check_count("n", self.n, 0))
        # the smallest final probability, of a symbol never drawn
        if self.alpha / self.s / (self.alpha + self.n) == 0.0:
            raise InvalidParameterError(
                f"(alpha/s)/(alpha+n) underflows to zero (alpha={self.alpha}, s={self.s}, n={self.n})"
            )


@dataclass(frozen=True)
class WeightState:
    """Unnormalized weights plus the number of completed iterations."""

    weights: np.ndarray
    iteration: int

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_positive_array("weights", self.weights))
        object.__setattr__(self, "iteration", _check_count("iteration", self.iteration, 0))

    @property
    def total(self) -> float:
        return float(np.add.reduce(self.weights))


def _next_state(weights: np.ndarray, iteration: int) -> WeightState:
    """The state a step returns, without the constructor's re-check.

    A step adds non-negative finite increments to the positive finite
    weights of a checked state, so its weights pass the check by
    construction, and its iteration is a checked count plus one.
    """
    state = object.__new__(WeightState)
    state.__dict__.update(weights=weights, iteration=iteration)
    return state


@dataclass(frozen=True)
class Distribution:
    """A normalized categorical distribution over the lexicon."""

    probs: np.ndarray

    def __post_init__(self):
        p = _check_positive_array("probs", self.probs)
        _check_sums(p[None])
        object.__setattr__(self, "probs", p)


def _initial_weights(rows: Sequence[ProcessParams]) -> np.ndarray:
    """One row per run, all ``s`` weights of the row equal to its ``alpha / s``: where every run starts."""
    s = rows[0].s
    weights = np.empty((len(rows), s))
    weights.T[:] = [p.alpha / s for p in rows]
    return weights


def init_weights(params: ProcessParams) -> WeightState:
    """Starting state: all ``s`` weights equal to ``alpha / s``."""
    return WeightState(_initial_weights([params])[0], 0)


def _inverse_cdf(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniform variates in [0, 1) to indices drawn proportionally to weights.

    Each variate picks the first index whose inclusive prefix sum exceeds
    ``u * total``, exactly as a linear scan over the running sums would. The
    clamp keeps the closed end u = 1 on the last index.
    """
    cdf = np.cumsum(weights)
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.minimum(idx, weights.size - 1)


def _inverse_cdf_counts(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.bincount(_inverse_cdf(weights[r], u[r]), minlength=s)`` as row r, for every row of the 2-d arrays, by sorting.

    Index i is chosen for every variate below ``cdf[i] / total`` and at or
    above ``cdf[i - 1] / total``, so the counts are differences of the number
    of sorted targets below each prefix sum (the last index takes the rest,
    as the clamp does). s binary searches per row into its sorted targets
    replace one search per variate. ``u`` is sorted and scaled in place.
    """
    cdf = np.add.accumulate(weights, axis=1)
    u.sort(axis=1)
    u *= cdf[:, -1:]
    below = np.empty(cdf.shape, dtype=np.intp)
    for row, targets, keys in zip(below, u, cdf):
        row[:] = targets.searchsorted(keys, side="left")
    below[:, -1] = u.shape[1]
    counts = below.copy()
    np.subtract(below[:, 1:], below[:, :-1], out=counts[:, 1:])
    return counts


# The kernels below run R runs that share their group key (:func:`_kernel`)
# as the R rows of one (R, s) weight array: s and n, and beta too except in
# the multinomial loop. Alpha may differ per row, and row r draws only from
# ``rngs[r]``, in the order a run of its own would, so each row is
# bit-identical to a run alone. Row-wise sums, prefix sums and divisions
# along axis 1 round exactly as the same operations on each row alone do.
# The row code calls ``np.add.reduce``, ``np.add.accumulate`` and
# ``ndarray.searchsorted``: the very computations of ``ndarray.sum``,
# ``np.cumsum`` and ``np.searchsorted`` without their Python-level dispatch,
# which costs more than the work on a small array.

# Draws per block of the copy kernel, and per block of the reference kernel
# over all its rows: enough to spread the fixed numpy cost over many
# iterations, few enough to keep the arrays small.
_BLOCK_DRAWS = 4096


def _reference_rows(rows: Sequence[ProcessParams], rngs: Sequence[RandomStream], sink: list | None = None) -> np.ndarray:
    """Final weights by per-draw inverse-CDF sampling from each iteration's frozen weights.

    Each draw of row r picks the first index whose inclusive prefix sum of the
    row's iteration-start weights exceeds ``u * total``, as a linear scan
    would, so every draw sees the same distribution, and ``np.add.at`` applies
    the increments one at a time, the arithmetic of a per-draw loop: row r
    equals folding :func:`step` from its initial weights. Each row draws its
    variates a block of iterations at a time, into its row of one buffer
    (``rng.random(out=...)`` of k*beta doubles gives the doubles of k calls
    of ``rng.random(beta)``), about ``_BLOCK_DRAWS`` variates over all rows
    per block and never more than one iteration's R*beta beyond that. Each
    iteration's variates of a row are then sorted. That is exact, as every
    hit adds the same 1/beta, so a row's weights after an iteration depend
    only on how many of its draws land on each symbol; and it is faster, as
    the search over sorted targets starts each from the last one's position
    and stops mispredicting. ``sink``, if given, receives each iteration's
    drawn flat indices ``r*s + idx``, row by row and in draw order: a traced
    call does not sort.
    """
    beta, s, n = rows[0].beta, rows[0].s, rows[0].n
    w = _initial_weights(rows)
    flat = w.reshape(-1)
    # One search serves every row: numpy orders complex numbers by real part,
    # then imaginary part, so keys r + 1j*cdf[r] are sorted row after row, and
    # the target r + 1j*(u*total) of a row-r draw compares with row r's keys
    # exactly as u*total with cdf[r] and falls past all earlier rows' keys:
    # its position is r*s plus the index a search in row r alone gives.
    row = np.arange(len(rows), dtype=np.complex128)[:, None]
    keys, targets = row.repeat(s, axis=1), row.repeat(beta, axis=1)
    cdf, total, target_values = keys.imag, keys.imag[:, -1:], targets.imag
    keys, targets = keys.reshape(-1), targets.reshape(-1)
    increment = 1.0 / beta
    block = max(1, _BLOCK_DRAWS // (beta * len(rows)))
    for a in range(0, n, block):
        size = min(block, n - a)
        u = np.empty((len(rows), size * beta))
        for rng, row_u in zip(rngs, u):
            rng.random(out=row_u)
        u = u.reshape(len(rows), size, beta)
        if sink is None:  # the same hit counts, searched in order; a trace keeps draw order
            u.sort(axis=2)
        for j in range(size):
            np.add.accumulate(w, axis=1, out=cdf)
            np.multiply(u[:, j], total, out=target_values)
            # An infinite last prefix sum keeps a target that reaches the
            # total (u = 1, or rounding) on the row's last index: a clamp.
            total.fill(np.inf)
            idx = keys.searchsorted(targets, side="right")
            if sink is not None:
                sink.append(idx)
            np.add.at(flat, idx, increment)
    return w


def _multinomial_rows(rows: Sequence[ProcessParams], rngs: Sequence[RandomStream]) -> np.ndarray:
    """Final weights by one multinomial draw of each row's beta hit counts per iteration.

    The frozen-copy draws are i.i.d., so their histogram is multinomial with
    the iteration-start probabilities; adding counts/beta reproduces the
    reference increment distribution exactly at O(s) cost per row and
    iteration, and row r equals folding :func:`step_fast` with its own beta.
    Rows share s and n but not beta: the normalization runs once per
    iteration over all rows, and each row's counts are drawn from its stream
    with its beta. The counts go to one buffer, divided by each row's beta
    and added in one operation per iteration. O(n R s) time, O(R s) memory.
    """
    n = rows[0].n
    w = _initial_weights(rows)
    probs = np.empty_like(w)
    counts = np.empty_like(w)
    betas = [row.beta for row in rows]
    scale = np.array(betas, dtype=np.float64)[:, None]
    draws = list(zip(rngs, betas, probs, counts))  # each row's stream, beta and views
    for _ in range(n):
        np.divide(w, np.add.reduce(w, axis=1, keepdims=True), out=probs)
        for rng, beta, p, row_counts in draws:
            row_counts[...] = rng.multinomial(beta, p)
        np.divide(counts, scale, out=counts)
        np.add(w, counts, out=w)
    return w


# A block whose copies are at least 1/_DENSE_COPIES of its draws follows
# every draw: there, whole-array passes beat gathers over the copies alone.
_DENSE_COPIES = 2


def _block_rows(rows: Sequence[ProcessParams], rngs: Sequence[RandomStream], block_iterations: int | None = None) -> np.ndarray:
    """Final weights by the urn's copy form, ``block_iterations`` iterations at a time, a group of rows at a time.

    The frozen weights of iteration j are alpha/s per symbol plus 1/beta per
    earlier draw, so each of its draws is, with probability alpha/(alpha + j),
    a fresh uniform symbol and otherwise a copy of one of the j*beta earlier
    draws chosen uniformly (the batched Hoppe urn; exact in law). One variate
    u per draw decides both through x = u*(alpha + j). In a block that starts
    at iteration a, x < alpha + a picks a symbol from the block-start weights,
    which hold the fresh mass and every earlier block's draws, and otherwise
    the draw copies the in-block draw at offset floor((x - alpha - a)*beta),
    which lies in an earlier iteration. Only the copies are followed: their
    sources go into a root array that holds every other draw as its own
    root, and pointer jumping over the copies resolves each to the draw it
    descends from. Late in a run few draws copy (about 1 - k ln(1 + 1/k) of
    block k), so that work shrinks with the block's copies; a block where at
    least 1/``_DENSE_COPIES`` of the draws copy follows all of them, in
    whole-array passes. Then every draw takes the symbol its root picks from
    the block-start weights, and the block's hits are added at once.

    The rows step through each block together in groups of G = max(1,
    ``_BLOCK_DRAWS`` // B) for B = block_iterations * beta draws per block,
    so blocks of a few draws share their numpy passes over many rows, and
    sweep-sized blocks (B about ``_BLOCK_DRAWS``) go row by row. Row r draws
    each block's variates from ``rngs[r]`` alone, in block order, so it
    equals a run of its own. O(n beta log B + s n / block_iterations) time
    per row, O(R s + G B) memory.
    """
    beta, n = rows[0].beta, rows[0].n
    if block_iterations is None:
        block_iterations = max(1, _BLOCK_DRAWS // beta)
    block = min(block_iterations, n) * beta
    group = max(1, _BLOCK_DRAWS // max(1, block))
    iteration = np.arange(block) // beta  # of each draw, counted from the block start
    earlier = iteration * beta  # in-block draws made before its iteration
    alphas = np.array([[p.alpha] for p in rows])
    w = _initial_weights(rows)
    # per (rows, size) of a group's block: the variate buffer and, for each draw
    # of it flattened, its index, its row's first draw and the last in-block
    # offset it may copy
    layouts: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
    for g in range(0, len(rows), group):
        streams, weights = rngs[g:g + group], w[g:g + group]
        for a in range(0, n, block_iterations):
            size = min(block_iterations, n - a) * beta
            shape = (len(streams), size)
            if shape not in layouts:
                draw = np.arange(len(streams) * size)
                layouts[shape] = (np.empty(shape), draw, draw - draw % size, np.tile(earlier[:size] - 1.0, len(streams)))
            x, draw, first, last = layouts[shape]
            for rng, row in zip(streams, x):
                rng.random(out=row)
            start = alphas[g:g + group] + a
            x *= start + iteration[:size]
            past = (x - start).reshape(-1)  # how far each draw lies past the block-start mass
            copies = past >= 0
            follow = slice(None) if _DENSE_COPIES * np.count_nonzero(copies) >= copies.size else np.flatnonzero(copies)
            # rounding can carry the offset into the draw's own iteration: clamp it
            offset = np.minimum(np.floor(past[follow] * beta), last[follow])
            root = draw.copy()
            root[follow] = source = np.where(offset < 0, draw[follow], offset.astype(np.intp) + first[follow])
            while True:
                jumped = root[source]
                if (jumped == source).all():
                    break
                root[follow] = source = jumped
            # every draw takes the symbol its root picks from the block-start weights
            flat = x.reshape(-1)
            flat[follow] = flat[source]
            np.divide(x, start, out=x)
            weights += _inverse_cdf_counts(weights, x) / beta
    return w


# The kernel pick, by modelled loop time in microseconds of one run alone.
# Interleaved medians on 2 CPUs (Python 3.11, numpy 2.4): a multinomial
# iteration took 9.0 us at s = 2, 11.6 at s = 64, 22.0 at s = 256 and 895 at
# s = 16384; a one-block run took 72 us at 1 draw and 266 us at 4096 draws
# (beta = 4, s = 64). A block's own cost per symbol (756 us at 1 draw with
# s = 16384) is below the multinomial's per iteration and is left out, as is
# the multinomial's slow growth with beta, so near the crossover the pick
# errs towards the multinomial loop. The pick decides which variates a run
# draws, so these constants are part of what a record depends on and stay
# fixed; the call prices below are measured apart and only schedule work.
_MULTINOMIAL_ITERATION_US = 9.0
_MULTINOMIAL_SYMBOL_US = 0.05
_BLOCK_US = 75.0
_BLOCK_DRAW_US = 0.047

# Call prices, in microseconds: a call of R rows costs its fixed part plus R
# times a row's, and a loop kernel adds one part per iteration of the call
# (normalization or prefix sums over all rows) plus one per row-iteration.
# Method: in one process, each sample timed a call through the chunk path of
# a sweep (streams, _run_rows, entropies) at n iterations and again at n = 0,
# once with one row and once with R = 16 or 32 (8 for the block kernel, 63
# for the beta-sweep mix), each next to a unit that scales it to 11.6 us per
# multinomial iteration at (beta, s, R) = (4, 64, 1), the unit of the pick
# above and of the sweep's pool and chunk constants. (time(n) - time(0)) / n
# gave the cost per iteration at each R; its growth over R, the part per
# row-iteration, and the rest, the part per call-iteration. Medians of 9
# rounds, two runs, on 2 CPUs (Python 3.11, numpy 2.4):
# - fixed: 31 us per call and 4 us per row (streams from seed words, checks,
#   entropy), from calls of 4 and 64 rows at n = 0, fast and reference,
#   (beta, s) = (3, 3) and (5, 64): 27 to 35 us per call and 2.9 to 4.2 per
#   row; a 1-row call took 31 to 38 us. The seed hash is no part of a call:
#   a sweep hashes all its seeds once, before it plans (about 50 us). The
#   row price keeps its 4 us, as every price below keeps its value until
#   the re-fit;
# - reference loop: 6.1 to 7.3 us per call-iteration; per row-iteration 0.59
#   us at (beta, s) = (1, 64), 1.9 at (10, 64), 15 at (100, 64), 155 at
#   (1000, 64), 0.82 at (10, 2) and 3.4 at (10, 256): about 0.15 us per draw
#   plus 0.01 per symbol, which the prices keep. A 1000-iteration row at
#   (10, 64) cost about 2.1 ms as one of 32 rows of a call, its share of the
#   call included, and 8.8 ms alone. Sorting each iteration's variates before
#   the search cut the part per row-iteration; by the same method, R = 32 or
#   the row cap if lower, three runs a side, before -> after: 1.8-2.1 -> 1.3-1.7
#   us at (10, 64), 14-16 -> 7.9-9.6 at (100, 64), 120-130 -> 55-60 at
#   (1000, 64) over 3 rows, 0.69-0.73 -> 0.56-0.69 at (10, 2), 2.8-3.5 ->
#   2.2-2.9 at (10, 256), and 0.46-0.54 -> 0.42-0.55 at (1, 64), where there
#   is nothing to sort; 5.6 to 9.0 us per call-iteration on both sides. A
#   large beta now costs about 0.06 us per draw;
# - multinomial loop: 6 to 7 us per call-iteration; per row-iteration 2.8 us
#   at (beta, s) = (200, 3), 9.3 to 12 at (200, 64), 16 to 21 at (2000, 64),
#   10 at (32768, 64), 40 to 51 at (2000, 256), and 12 to 16 over 63 rows of
#   the canonical beta sweep (beta 187 to 32768, s = 64): 2.5 us plus 0.18
#   per symbol, which prices that sweep's mix of betas;
# - block copy kernel: no part per call-iteration; a row's pick price above
#   serves as its price. A row took 0.7 to 0.85 times it when each row ran
#   alone, and takes less now that the kernel follows only the draws that
#   copy and steps blocks of a few draws in groups of rows (an n = 1e5 row
#   at (beta, s) = (5, 64) took 9.4 against 11.9 ms). The prices keep their
#   values: they only schedule work, and the re-fit of every call price is
#   open in ROADMAP.md (item 1, price check).
_CALL_US = 31.0
_ROW_US = 4.0
_CALL_ITERATION_US = 6.5
_REFERENCE_ROW_DRAW_US = 0.15
_REFERENCE_ROW_SYMBOL_US = 0.01
_MULTINOMIAL_ROW_ITERATION_US = 2.5
_MULTINOMIAL_ROW_SYMBOL_US = 0.18

# Numbers per iteration, per-row arrays over all rows, that one kernel call
# may hold. A larger group is cut into calls of fewer rows, so a call's
# arrays and streams stay small at any s, beta or replicate count, while a
# group of a few hundred tiny runs still shares one call.
_ROW_NUMBERS = 1 << 12


class Kernel(NamedTuple):
    """The kernel a run takes, what the rows of one call of it share, and the call's price.

    A call of R runs that share ``run`` and ``key`` costs about ``price(R)``
    modelled microseconds and holds at most ``max_rows`` rows.
    """

    run: Callable[..., np.ndarray]  # (rows, rngs) -> final weights, one row per run
    key: tuple
    call_us: float
    row_us: float
    max_rows: int

    def price(self, rows: int) -> float:
        """Modelled microseconds of one call of ``rows`` rows."""
        return self.call_us + rows * self.row_us


def _kernel(params: ProcessParams, mode: str) -> Kernel:
    """The kernel a run of ``params`` takes in ``mode``, with its group key, call price and row cap.

    This is the one map from a sampler mode to its kernels. Reference mode
    has one kernel; fast mode picks whichever of the multinomial loop and the
    block copy kernel has the lower modelled loop time for one run, and a tie
    goes to the multinomial loop. The pick depends on mode, beta, s and n
    only, never on alpha, so a run takes the same kernel alone as in any call.
    The multinomial loop draws each row's counts with the row's own beta, so
    its rows share (s, n); the other two share (beta, s, n). A row's numbers
    per iteration are its weights, plus its draws in the reference loop,
    which sets the row cap.
    """
    beta, s, n = params.beta, params.s, params.n
    loop_call_us = _CALL_US + n * _CALL_ITERATION_US
    if _check_mode(mode) == "reference":
        row_us = _ROW_US + n * (_REFERENCE_ROW_DRAW_US * beta + _REFERENCE_ROW_SYMBOL_US * s)
        return Kernel(_reference_rows, (beta, s, n), loop_call_us, row_us, max(1, _ROW_NUMBERS // (s + beta)))
    max_rows = max(1, _ROW_NUMBERS // s)
    block_us = -(-n // max(1, _BLOCK_DRAWS // beta)) * _BLOCK_US + n * beta * _BLOCK_DRAW_US
    if n * (_MULTINOMIAL_ITERATION_US + _MULTINOMIAL_SYMBOL_US * s) <= block_us:
        row_us = _ROW_US + n * (_MULTINOMIAL_ROW_ITERATION_US + _MULTINOMIAL_ROW_SYMBOL_US * s)
        return Kernel(_multinomial_rows, (s, n), loop_call_us, row_us, max_rows)
    return Kernel(_block_rows, (beta, s, n), _CALL_US, _ROW_US + block_us, max_rows)


def step(state: WeightState, beta: int, rng: RandomStream) -> WeightState:
    """Advance one iteration with the reference per-draw sampler.

    All beta variates map through the prefix sums of the iteration-start
    weights, so every draw sees the same distribution, and ``np.add.at``
    applies the increments one at a time in draw order. Folding it is the
    one-run oracle of the reference kernel.
    """
    beta = _check_count("beta", beta, 1)
    idx = _inverse_cdf(state.weights, rng.random(beta))
    weights = state.weights.copy()
    np.add.at(weights, idx, 1.0 / beta)
    return _next_state(weights, state.iteration + 1)


def step_fast(state: WeightState, beta: int, rng: RandomStream) -> WeightState:
    """Advance one iteration with one multinomial draw of all beta hit counts.

    Folding it is the one-run oracle of the multinomial loop.
    """
    beta = _check_count("beta", beta, 1)
    weights = state.weights
    counts = rng.multinomial(beta, weights / np.add.reduce(weights))
    return _next_state(weights + counts / beta, state.iteration + 1)


def _normalize(weights: np.ndarray) -> np.ndarray:
    """Each row of ``weights`` divided by its sum.

    The floating sum tracks alpha + n to ~1e-12 relative; dividing by it
    keeps each row summing to 1 within a few ulp for any run length.
    """
    return weights / np.add.reduce(weights, axis=1, keepdims=True)


def run(params: ProcessParams, rng: RandomStream, mode: str = "fast") -> Distribution:
    """Run the whole process and return the normalized final distribution.

    Runs the kernel :func:`_kernel` gives ``params`` and ``mode``, as its
    one row. ``mode="reference"`` draws every symbol individually and is bit-identical
    to folding :func:`step` over the initial state. ``mode="fast"`` runs the
    multinomial loop, bit-identical to folding :func:`step_fast`, or the block
    copy kernel. All sample the same law, and the pick depends on ``params``
    and ``mode`` alone, so a run still depends only on its parameters and seed.
    """
    return Distribution(_normalize(_kernel(params, mode).run([params], [rng]))[0])


def _run_rows(
    kernel: Callable[..., np.ndarray], rows: Sequence[ProcessParams], rngs: Sequence[RandomStream]
) -> np.ndarray:
    """Final distributions of runs that share a mode, the ``kernel`` it picks and its key, as the rows of one call of it.

    Row r is ``run(rows[r], rngs[r], mode).probs`` bit for bit, and every row
    is checked as :class:`Distribution` checks one, all rows at once.
    """
    probs = _normalize(kernel(rows, rngs))
    _check_positive_array("probs", probs.reshape(-1))
    _check_sums(probs)
    return probs


@dataclass(frozen=True)
class TraceResult:
    """Reference run with its draw trace and (possibly rescaled) final state."""

    distribution: Distribution
    state: WeightState
    indices: np.ndarray = field(repr=False)


def run_traced(params: ProcessParams, rng: RandomStream, increment_scale: float = 1.0) -> TraceResult:
    """Reference-mode run that records every drawn index.

    ``increment_scale=c`` runs the process with initial weights ``c*alpha/s``
    and per-draw increments ``c/beta``. Because the categorical distribution
    is invariant to rescaling all weights, the draw sequence and the final
    normalized distribution are the same for every c; the common factor is
    therefore carried outside the trajectory arithmetic and materialized only
    in the returned state's weights. This makes the invariance exact: equal
    seeds give bit-identical traces and distributions for any scale.
    """
    scale = _check_positive("increment_scale", increment_scale)
    sink: list[np.ndarray] = []
    w = _reference_rows([params], [rng], sink)
    dist = Distribution(_normalize(w)[0])
    final = WeightState(scale * w[0], params.n)
    return TraceResult(dist, final, np.array(sink, dtype=np.int64).reshape(-1))

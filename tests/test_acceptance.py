"""Acceptance suite: one test (or parametrized row) per numbered criterion.

Each test prints a ``[criterion N] PASS/FAIL`` line with the measured values
(visible with ``pytest -s``) and then asserts the stated tolerance. Criterion
1 encodes the reference correlation targets for the four canonical sweeps;
criterion 9 checks the alpha and n curve shapes against the exact expected
entropy from ``oracles.expected_entropy_curve``. The mean entropy of the top
alpha decile and of the first n decile must each lie within 0.2 bits of the
exact mean over the same points (3.000 and 3.449 bits); the final n decile's
mean must not exceed the exact E[H] at n = 1000 (3.422 bits, a bound because
E[H] never rises with n) by more than three standard errors.

The alpha and n rows of the canonical grid produce a nearly flat entropy
response: exactly 2.816 to 3.061 bits across alpha in [1e-4, 1e-1], and 3.464
bits at n = 100 down to 3.422 at n = 1000, against 0.24-0.31 bits of spread
per run. Their tau targets (-0.87 and -0.53) are therefore not reached by this
process; the beta and s rows reproduce within tolerance. The failing
assertions are kept at their stated windows rather than widened to fit; the
assertion messages carry the measured values and the exact E[H] at both grid
ends.
"""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from filex.core import (
    ProcessParams,
    _BLOCK_DRAWS,
    _block_rows,
    _kernel,
    _run_rows,
    init_weights,
    make_stream,
    run,
    run_traced,
    step,
    step_fast,
)
from filex.report import (
    correlation_table_from_rows,
    parse_records_csv,
    records_to_csv,
    render_correlation_table,
)
from filex.stats import PairedSeries, kendall_tau, shannon_entropy_bits
from filex.sweep import (
    ExperimentSpec,
    SweepSpec,
    canonical_experiments,
    correlate,
    log_sweep,
    run_experiment,
)

from conftest import MASTER_SEED, criterion_line
from oracles import (
    brute_force_tau_b,
    chi2_gof_pvalue,
    enumerate_outcome_distribution,
    expected_entropy_bits,
    expected_entropy_curve,
    hit_count_outcomes,
)

TAU_TARGETS = {"alpha": -0.87, "beta": 0.95, "s": 0.77, "n": -0.53}
TAU_TOLERANCE = 0.08
REDUCED_TOLERANCE = 0.12

# Criterion 4's 27 block-kernel chi-square tests share one 1% false-alarm
# budget (Bonferroni): at 0.01 apiece, about a quarter of all seeds would fail
# one of them with the kernel's law exact.
BLOCK_CONFIGS = 27
BLOCK_P_GATE = 0.01 / BLOCK_CONFIGS

# Criterion 9 windows, in bits, around the exact expected entropy.
CURVE_TOLERANCE = 0.2
# One-sided allowance, in standard errors of the final-decile mean, above the
# exact bound on the n sweep's final decile.
BOUND_SE_MULTIPLE = 3.0
# Every n-sweep point of the final decile lies above this n, and E[H] never
# rises with n, so the exact E[H] here bounds that decile's expectation.
N_BOUND_AT = 1000


@pytest.fixture(scope="module")
def exact_entropy():
    """Exact E[H] (bits) from the lumped-chain oracle, keyed by swept value.

    Covers the canonical alpha grid's lower end and top decile (which holds
    its upper end), and the n grid's first decile plus ``N_BOUND_AT``: what
    criteria 1 and 9 report and check.
    """
    specs = {spec.name: spec for spec in canonical_experiments(MASTER_SEED)}
    alpha_spec, n_spec = specs["alpha"], specs["n"]
    alpha_grid, n_grid = log_sweep(alpha_spec.sweep), log_sweep(n_spec.sweep)
    alphas = [alpha_grid[0]] + alpha_grid[-(len(alpha_grid) // 10):]
    ns = n_grid[: len(n_grid) // 10] + [N_BOUND_AT]
    n_curve = expected_entropy_curve(n_spec.alpha, n_spec.beta, n_spec.s, ns)
    return {
        "alpha": {a: expected_entropy_bits(a, alpha_spec.beta, alpha_spec.s, alpha_spec.n) for a in alphas},
        "n": dict(zip(map(float, ns), n_curve.tolist())),
    }


def exact_grid_ends(name, exact_entropy) -> str:
    """Exact E[H] at the ends of the alpha and n grids, for reports on those rows."""
    if name == "alpha":
        curve = exact_entropy["alpha"]
        return (
            f"; exact E[H] = {curve[1e-4]:.3f} bits at alpha=1e-4 and {curve[1e-1]:.3f} at alpha=0.1"
        )
    if name == "n":
        curve = exact_entropy["n"]
        return (
            f"; exact E[H] = {curve[100]:.3f} bits at n=100 and {curve[N_BOUND_AT]:.3f} at n={N_BOUND_AT}"
            f" (an upper bound for every n up to 1e6)"
        )
    return ""


# -- criterion 1: correlation-table reproduction ------------------------------

@pytest.fixture(scope="module")
def canonical_correlations(canonical_records):
    """Correlations computed through the CSV + table path (cmd_table's core)."""
    rows = []
    for spec, records in canonical_records.values():
        rows.extend(parse_records_csv(records_to_csv(spec, records)))
    table = correlation_table_from_rows(rows)
    print()
    print(render_correlation_table(table))
    return {name: result for name, _, result in table}


@pytest.mark.parametrize("name", ["alpha", "beta", "s", "n"])
def test_criterion_1_canonical_tau(name, canonical_correlations, exact_entropy):
    result = canonical_correlations[name]
    target = TAU_TARGETS[name]
    ends = exact_grid_ends(name, exact_entropy)
    ok = abs(result.tau - target) <= TAU_TOLERANCE and result.p_value < 0.005
    criterion_line(
        f"criterion 1:{name}",
        ok,
        f"tau = {result.tau:+.4f} (target {target:+.2f} +- {TAU_TOLERANCE}), p = {result.p_value:.3e}{ends}",
    )
    assert abs(result.tau - target) <= TAU_TOLERANCE, (
        f"tau({name}) = {result.tau:+.4f}, outside {target:+.2f} +- {TAU_TOLERANCE}{ends}"
    )
    assert result.p_value < 0.005, f"p({name}) = {result.p_value:.3e} >= 0.005{ends}"


@pytest.mark.parametrize("name", ["alpha", "beta", "s", "n"])
def test_criterion_1_reduced_preset(name, canonical_records, exact_entropy):
    # stride-4 records are exactly the reduced preset's output
    spec, records = canonical_records[name]
    reduced = records[:: 4 * spec.replicates]
    result = correlate(spec.varied, reduced)
    target = TAU_TARGETS[name]
    ends = exact_grid_ends(name, exact_entropy)
    sign_ok = math.copysign(1, result.tau) == math.copysign(1, target)
    window_ok = abs(result.tau - target) <= REDUCED_TOLERANCE
    criterion_line(
        f"criterion 1 (reduced):{name}",
        sign_ok and window_ok,
        f"tau = {result.tau:+.4f} (target {target:+.2f} +- {REDUCED_TOLERANCE}){ends}",
    )
    assert sign_ok, f"reduced tau({name}) = {result.tau:+.4f} has wrong sign vs {target:+.2f}{ends}"
    assert window_ok, f"reduced tau({name}) = {result.tau:+.4f}, outside {target:+.2f} +- {REDUCED_TOLERANCE}{ends}"


# -- criterion 2: sum law ------------------------------------------------------

def test_criterion_2_sum_law():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for case in range(1000):
        alpha = float(10.0 ** rng.uniform(-4, 2))
        beta = int(rng.integers(1, 65))
        s = int(rng.integers(1, 257))
        n = int(rng.integers(0, 1001))
        state = init_weights(ProcessParams(alpha, beta, s, n))
        stream = make_stream(int(rng.integers(0, 2**63)))
        use_reference = case % 40 == 0  # reference spot checks; fast elsewhere
        stepper = step if use_reference else step_fast
        iterations = min(n, 60) if use_reference else n
        for k in range(1, iterations + 1):
            state = stepper(state, beta, stream)
            expected = alpha + k
            err = abs(state.total - expected) / expected
            worst = max(worst, err)
            assert err <= 1e-9, f"sum law violated at k={k} (alpha={alpha}, beta={beta}, s={s})"
    criterion_line("criterion 2", True, f"1000 parameter sets, worst relative error {worst:.2e}")


# -- criterion 3: two-color urn oracle ----------------------------------------

def test_criterion_3_polya_urn_oracle():
    # Calls of 1000 rows on one stream: the reference loop then draws all of a
    # row's variates in one block, so the rows draw the variates of 1000 runs
    # made one after another.
    params = ProcessParams(2.0, 1, 2, 2)
    rng = make_stream(MASTER_SEED + 3)
    tallies = {0.75: 0, 0.5: 0, 0.25: 0}
    trials, rows = 300_000, 1000
    assert _BLOCK_DRAWS // (params.beta * rows) >= params.n
    kernel = _kernel(params, "reference").run
    first = np.concatenate([_run_rows(kernel, [params] * rows, [rng] * rows)[:, 0] for _ in range(trials // rows)])
    for p, count in zip(*(a.tolist() for a in np.unique(first, return_counts=True))):
        tallies[p] += count

    entropy_of = {p: shannon_entropy_bits([p, 1 - p]) for p in tallies}
    mean_entropy = sum(entropy_of[p] * c for p, c in tallies.items()) / trials
    freqs = {p: c / trials for p, c in tallies.items()}
    ok = all(abs(f - 1 / 3) <= 0.01 for f in freqs.values()) and abs(mean_entropy - 0.8742) <= 0.005
    criterion_line(
        "criterion 3",
        ok,
        f"outcome frequencies {[round(f, 4) for f in freqs.values()]}, mean entropy {mean_entropy:.4f}",
    )
    for p, f in freqs.items():
        assert abs(f - 1 / 3) <= 0.01, f"outcome {p}: frequency {f:.4f} not 1/3 +- 0.01"
    assert abs(mean_entropy - 0.8742) <= 0.005


# -- criterion 4: fast-path equivalence ----------------------------------------

def _outcome_counts(kernel, alpha, beta, s, n, samples, seed):
    """Hit-count outcomes of ``samples`` runs of ``kernel``, the rows of one call on one stream."""
    params = ProcessParams(alpha, beta, s, n)
    rng = make_stream(seed)
    return hit_count_outcomes(_run_rows(kernel, [params] * samples, [rng] * samples), alpha, beta, s, n)


def test_criterion_4_fast_path_equivalence():
    # Runs this small stay on the multinomial loop, so the block copy kernel
    # is also called directly, with blocks of one iteration (every later draw
    # picks from the block-start weights) and of two (draws copy in-block draws).
    # Each configuration's samples are the rows of one call on one stream. The
    # block kernel steps these tiny runs through each block in groups of
    # hundreds of rows, so with more than one block per row the samples are
    # block-major: a group's rows draw their first block's variates, then
    # their second block's. The draws stay i.i.d. uniforms, one fresh
    # variate per draw, so the rows stay independent runs of the process.
    alpha = 2.0
    samples = 100_000
    block_samples = 30_000
    worst_p = worst_block_p = 1.0
    block_configs = 0
    for s in (1, 2, 3):
        for beta in (1, 2, 3):
            for n in (0, 1, 2):
                if n == 0:
                    dist = run(ProcessParams(alpha, beta, s, n), make_stream(1), "fast")
                    assert np.ptp(dist.probs) == 0.0
                    continue
                expected = enumerate_outcome_distribution(Fraction(2), beta, s, n)
                observed = _outcome_counts(
                    _kernel(ProcessParams(alpha, beta, s, n), "fast").run,
                    alpha, beta, s, n, samples, MASTER_SEED + 40 + s * 100 + beta * 10 + n,
                )
                p_value = chi2_gof_pvalue(observed, expected, samples)
                worst_p = min(worst_p, p_value)
                assert p_value > 0.01, f"chi-square rejects fast path at s={s}, beta={beta}, n={n}: p={p_value:.4f}"
                for block in range(1, n + 1):
                    observed = _outcome_counts(
                        functools.partial(_block_rows, block_iterations=block),
                        alpha, beta, s, n, block_samples, MASTER_SEED + 5000 + block * 1000 + s * 100 + beta * 10 + n,
                    )
                    p_value = chi2_gof_pvalue(observed, expected, block_samples)
                    worst_block_p = min(worst_block_p, p_value)
                    block_configs += 1
                    assert p_value > BLOCK_P_GATE, (
                        f"chi-square rejects block kernel at s={s}, beta={beta}, n={n}, block={block}: "
                        f"p={p_value:.2e} <= {BLOCK_P_GATE:.2e}"
                    )
    assert block_configs == BLOCK_CONFIGS
    criterion_line(
        "criterion 4",
        True,
        f"18 configurations, {samples} samples each, min chi2 p = {worst_p:.3f}; block kernel: "
        f"{block_configs} configurations, {block_samples} samples each, min chi2 p = {worst_block_p:.4f} "
        f"(gate {BLOCK_P_GATE:.1e})",
    )


# -- criterion 5: scale equivalence --------------------------------------------

def test_criterion_5_scale_equivalence():
    configs = [ProcessParams(2.0, 2, 2, 60), ProcessParams(1.0, 3, 8, 40), ProcessParams(0.25, 1, 4, 80)]
    for c in (1e-3, 7.0, 1e4):
        for params in configs:
            base = run_traced(params, make_stream(MASTER_SEED + 5))
            scaled = run_traced(params, make_stream(MASTER_SEED + 5), increment_scale=c)
            assert np.array_equal(base.indices, scaled.indices), f"index trace differs at c={c}"
            assert np.array_equal(base.distribution.probs, scaled.distribution.probs), (
                f"final distribution differs at c={c}"
            )
    criterion_line("criterion 5", True, "bit-identical traces and distributions for c in {1e-3, 7, 1e4}")


# -- criterion 6: degenerate exactness -----------------------------------------

def test_criterion_6_degenerate_exactness():
    for s in (1, 2, 3, 5, 64, 200, 256):
        dist = run(ProcessParams(0.8, 4, s, 0), make_stream(6))
        assert np.ptp(dist.probs) == 0.0, f"n=0 output not exactly uniform at s={s}"
        assert abs(shannon_entropy_bits(dist) - math.log2(s)) <= 1e-12
    for n in (0, 5, 50):
        dist = run(ProcessParams(3.0, 2, 1, n), make_stream(7))
        assert shannon_entropy_bits(dist) == 0.0
    criterion_line("criterion 6", True, "n=0 exactly uniform; s=1 entropy exactly 0")


# -- criterion 7: log-sweep exactness ------------------------------------------

def test_criterion_7_log_sweep_exactness():
    values = log_sweep(SweepSpec(1e2, 1e6, 5))
    for got, want in zip(values, [1e2, 1e3, 1e4, 1e5, 1e6]):
        assert abs(got - want) <= 1e-12 * want
    rng = np.random.default_rng(MASTER_SEED + 7)
    for _ in range(100):
        low = float(10.0 ** rng.uniform(-6, 3))
        high = low * float(10.0 ** rng.uniform(0.01, 6))
        steps = int(rng.integers(2, 500))
        spec = SweepSpec(low, high, steps)
        swept = log_sweep(spec)
        assert swept[0] == low and swept[-1] == high
        integral_spec = SweepSpec(max(low, 1.0), max(high, 2.0), steps, integral=True)
        floored = log_sweep(integral_spec)
        continuous = log_sweep(SweepSpec(integral_spec.low, integral_spec.high, steps))
        assert floored == [math.floor(v) for v in continuous]
    criterion_line("criterion 7", True, "decade sweep exact; 100 random specs with exact endpoints and floors")


# -- criterion 8: statistics oracles -------------------------------------------

def test_criterion_8_statistics_oracles():
    rng = np.random.default_rng(MASTER_SEED + 8)
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 9))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert kendall_tau(PairedSeries(x, y)).tau == brute_force_tau_b(x, y)
        checked += 1
    entropy = shannon_entropy_bits([0.75, 0.25])
    assert abs(entropy - 0.811278) <= 1e-6
    criterion_line("criterion 8", True, f"500 series match brute force exactly; H(0.75, 0.25) = {entropy:.7f}")


# -- criterion 9: canonical curve shapes ----------------------------------------

def test_criterion_9_alpha_sweep_plateau(canonical_records, exact_entropy):
    # the plateau at the small-1/alpha end: mean of the top alpha decile
    # against the exact mean over the same alphas (one record's SD, about
    # 0.24 bits, is wider than the window on its own)
    spec, records = canonical_records["alpha"]
    top = sorted(records, key=lambda r: r.param_value)[-(len(records) // 10):]
    measured = float(np.mean([r.entropy_bits for r in top]))
    exact = float(np.mean([exact_entropy["alpha"][r.param_value] for r in top]))
    ok = abs(measured - exact) <= CURVE_TOLERANCE
    criterion_line(
        "criterion 9:alpha",
        ok,
        f"mean entropy over the top decile ({len(top)} records, alpha in "
        f"[{top[0].param_value:.4g}, {top[-1].param_value:g}]) = {measured:.3f}, "
        f"exact {exact:.3f} +- {CURVE_TOLERANCE}",
    )
    assert ok, f"top-decile mean entropy {measured:.3f} not within {CURVE_TOLERANCE} of exact {exact:.3f}"


def test_criterion_9_n_sweep_decile_shape(canonical_records, exact_entropy):
    spec, records = canonical_records["n"]
    decile = len(records) // 10
    head, tail = records[:decile], records[-decile:]
    first = float(np.mean([r.entropy_bits for r in head]))
    exact_first = float(np.mean([exact_entropy["n"][r.param_value] for r in head]))
    # q_k = w_k/(alpha+k) is a martingale and entropy is concave, so E[H] never
    # rises with n: E[H] at N_BOUND_AT bounds the final decile's expectation
    assert min(r.param_value for r in tail) >= N_BOUND_AT
    bound = exact_entropy["n"][N_BOUND_AT]
    tail_entropy = [r.entropy_bits for r in tail]
    last = float(np.mean(tail_entropy))
    last_se = float(np.std(tail_entropy, ddof=1)) / math.sqrt(decile)
    ceiling = bound + BOUND_SE_MULTIPLE * last_se
    first_ok = abs(first - exact_first) <= CURVE_TOLERANCE
    ok = first_ok and 0.0 < last <= ceiling
    criterion_line(
        "criterion 9:n",
        ok,
        f"first-decile mean = {first:.3f} (exact {exact_first:.3f} +- {CURVE_TOLERANCE}), "
        f"final-decile mean = {last:.3f} (exact bound {bound:.3f} + {BOUND_SE_MULTIPLE:g} SE = {ceiling:.3f})",
    )
    assert first_ok, f"first-decile mean entropy {first:.3f} not within {CURVE_TOLERANCE} of exact {exact_first:.3f}"
    assert last <= ceiling, (
        f"final-decile mean {last:.3f} above exact bound {bound:.3f} + {BOUND_SE_MULTIPLE:g} x SE {last_se:.3f}"
    )
    assert last > 0.0


# -- criterion 10: determinism across workers -----------------------------------

def test_criterion_10_worker_determinism(tmp_path, real_pool_starts, cpus):
    # n is large enough (63 ms modelled) that the 4-worker run pays for a pool
    # on a host with 4 CPUs, and the pool rule may count on them here
    cpus(4)
    spec = ExperimentSpec(
        name="determinism",
        varied="alpha",
        sweep=SweepSpec(1e-3, 1e-1, 24),
        beta=4,
        s=16,
        n=5000,
        replicates=2,
        master_seed=MASTER_SEED,
    )
    texts = {}
    for workers in (1, 4):
        records = run_experiment(spec, mode="fast", workers=workers)
        texts[workers] = records_to_csv(spec, records).encode()
    assert real_pool_starts == [4]
    again = records_to_csv(spec, run_experiment(spec, mode="fast", workers=1)).encode()
    ok = texts[1] == texts[4] == again
    criterion_line("criterion 10", ok, f"{len(texts[1])} CSV bytes identical across worker counts 1 and 4")
    assert texts[1] == texts[4]
    assert texts[1] == again


def test_criterion_10_canonical_worker_independence(canonical_records):
    # the session records were computed with pooled workers; a serial rerun of
    # the cheapest canonical row must reproduce them bit for bit
    spec, records = canonical_records["alpha"]
    serial = run_experiment(spec, mode="fast", workers=1)
    ok = serial == records
    criterion_line("criterion 10:canonical", ok, "alpha-row records identical for serial rerun")
    assert ok

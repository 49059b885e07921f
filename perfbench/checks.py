"""Checks of the program's outputs, made apart from ``filex``.

Nothing here imports ``filex``. Expected values come from the test suite's
oracles (``tests/oracles.py``), which are written against the process's
definition, or from properties any correct implementation has: entropy
lies in [0, log2 s], E[H] never rises with n, a CSV at 17 significant digits
rewrites to the same bytes, and a scatter plot has one marker per record.
Each check returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import csv
import io
import math
import xml.etree.ElementTree as ET

# Two-sided false-alarm probability of one mean-entropy check.
MEAN_CHECK_P = 1e-6
# A group's own sample SD is used once it has this many degrees of freedom;
# below that, the SD pooled over groups that differ only in n.
OWN_SD_MIN_DF = 30
# Entropies of equal outcomes can differ in the last bits by summation order.
ABS_TOL = 1e-9

CSV_HEADER = "experiment,param_name,param_value,replicate,seed,entropy_bits"


class EntropyTally:
    """Count, sum, sum of squares, min and max of entropies per run key.

    A key is (mode, alpha, beta, s, n). Aggregating as records arrive keeps
    the benchmark's memory independent of how many passes a run makes.
    """

    def __init__(self):
        self.groups: dict[tuple, list[float]] = {}

    def add(self, key: tuple, entropy: float) -> None:
        g = self.groups.get(key)
        if g is None:
            self.groups[key] = [1, entropy, entropy * entropy, entropy, entropy]
            return
        g[0] += 1
        g[1] += entropy
        g[2] += entropy * entropy
        g[3] = min(g[3], entropy)
        g[4] = max(g[4], entropy)

    def count(self) -> int:
        return sum(int(g[0]) for g in self.groups.values())


def range_failures(tally: EntropyTally) -> list[str]:
    """Every entropy lies in [0, log2 s]."""
    out = []
    for key, (_, _, _, lo, hi) in tally.groups.items():
        s = key[3]
        if not (lo >= 0.0 and hi <= math.log2(s) + ABS_TOL):
            out.append(f"{key}: entropy range [{lo!r}, {hi!r}] leaves [0, log2 {s}]")
    return out


def exact_expectations(keys, n_reach: int) -> dict[tuple, tuple[str, float]]:
    """Expected-entropy claims for each key, from the exact lumped-chain oracle.

    For n <= n_reach the claim is ("eq", E[H](n)). Beyond it the exact E[H]
    at the largest reachable n of the same family is an upper bound,
    ("le", E), because E[H] never rises with n.
    """
    from oracles import expected_entropy_curve  # imports scipy; not before RSS is read

    families: dict[tuple, set[int]] = {}
    for key in keys:
        families.setdefault(key[:-1], set()).add(key[-1])
    out = {}
    for family, ns in families.items():
        _, alpha, beta, s = family
        reach = sorted(n for n in ns if n <= n_reach) or [n_reach]
        curve = dict(zip(reach, expected_entropy_curve(alpha, beta, s, reach).tolist()))
        for n in ns:
            out[family + (n,)] = ("eq", curve[n]) if n in curve else ("le", curve[reach[-1]])
    return out


def mean_failures(tally: EntropyTally, expectations: dict[tuple, tuple[str, float]]) -> list[str]:
    """Each group's mean entropy against its exact expectation, by a CLT bound.

    The half-width is t(1 - MEAN_CHECK_P / 2, df) * SD / sqrt(k), with the
    group's own SD when it has at least OWN_SD_MIN_DF degrees of freedom and
    otherwise the SD pooled within the groups of its (mode, alpha, beta, s)
    family. An "le" claim is checked one-sided.
    """
    from scipy.stats import t as student_t

    pooled: dict[tuple, list[float]] = {}
    for key, (k, total, squares, _, _) in tally.groups.items():
        p = pooled.setdefault(key[:-1], [0.0, 0])
        p[0] += max(0.0, squares - total * total / k)
        p[1] += k - 1
    out = []
    for key, (kind, exact) in expectations.items():
        k, total, squares, _, _ = tally.groups[key]
        if k - 1 >= OWN_SD_MIN_DF:
            ss, df = max(0.0, squares - total * total / k), k - 1
        else:
            ss, df = pooled[key[:-1]]
        if df < 1:
            out.append(f"{key}: no degrees of freedom to bound the mean of {k} runs")
            continue
        half = student_t.ppf(1 - MEAN_CHECK_P / 2, df) * math.sqrt(ss / df / k) + ABS_TOL
        mean = total / k
        if (kind == "eq" and abs(mean - exact) > half) or (kind == "le" and mean - exact > half):
            relation = "=" if kind == "eq" else "<="
            out.append(
                f"{key}: mean entropy {mean:.6f} over {k} runs against exact {relation} {exact:.6f}, "
                f"allowed {half:.6f}"
            )
    return out


def parse_csv(text: str) -> list[tuple]:
    """Rows of a records CSV as (experiment, param_name, value, replicate, seed, entropy)."""
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        raise ValueError(f"bad header {lines[0]!r}")
    rows = []
    for fields in csv.reader(io.StringIO("\n".join(lines[1:]))):
        if len(fields) != 6:
            raise ValueError(f"row has {len(fields)} fields: {fields!r}")
        name, param, value, replicate, seed, entropy = fields
        rows.append((name, param, float(value), int(replicate), int(seed), float(entropy)))
    return rows


def csv_failures(text: str, expected_rows: int) -> list[str]:
    """The CSV parses, has the expected row count, and rewrites byte-identically."""
    try:
        rows = parse_csv(text)
    except ValueError as exc:
        return [f"CSV does not parse: {exc}"]
    out = []
    if len(rows) != expected_rows:
        out.append(f"CSV has {len(rows)} rows, expected {expected_rows}")
    rewritten = "\n".join(
        [CSV_HEADER]
        + [f"{n},{p},{v:.17g},{r},{s},{h:.17g}" for n, p, v, r, s, h in rows]
    ) + "\n"
    if rewritten != text:
        out.append("CSV does not rewrite byte-identically from its parsed rows")
    return out


def tau_failures(table_text: str, experiment: str, xs, ys) -> list[str]:
    """The table's tau for ``experiment`` equals tau-b on (xs, ys) by pair counting.

    The table prints tau to two decimals, so it must lie within half a unit
    of the last printed digit of the brute-force value.
    """
    from oracles import brute_force_tau_b

    expected = brute_force_tau_b(xs, ys)
    for line in table_text.splitlines()[1:]:
        parts = line.split()
        if parts and parts[0] == experiment:
            try:
                printed = float(parts[2])
            except (IndexError, ValueError):
                return [f"table row for {experiment} has no tau: {line!r}"]
            if abs(printed - expected) > 0.005 + ABS_TOL:
                return [f"table tau {printed:+.2f} for {experiment}, brute-force tau-b {expected:+.6f}"]
            return []
    return [f"table has no row for {experiment}"]


def svg_failures(svg_text: str, expected_circles: int) -> list[str]:
    """The SVG parses as XML and holds one circle per record."""
    try:
        root = ET.fromstring(svg_text)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    circles = len(root.findall(".//{http://www.w3.org/2000/svg}circle"))
    if circles != expected_circles:
        return [f"SVG has {circles} circles, expected {expected_circles}"]
    return []

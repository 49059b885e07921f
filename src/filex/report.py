"""Configuration files, CSV persistence, table rendering, and SVG plots.

Config files are flat ``key = value`` text; unknown keys are rejected. The
keys, their types and which are required come from the scalar fields of
:class:`ProcessParams` and :class:`RunConfig` (``filex run``) and of
:class:`ExperimentSpec` and :class:`SweepSpec` (``filex sweep``). A leading
UTF-8 byte-order mark is ignored in config and CSV files. CSVs
carry one row per run with floats rendered at 17 significant digits so that
parsing them back is lossless and rewriting them is byte-identical. Plots are
emitted as self-contained SVG 1.1 scatter charts.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import _MAX_SEED, ProcessParams, _check_count, _check_flag, _check_mode, _check_positive
from .errors import ConfigError, CsvFormatError, InvalidInputError, UndefinedCorrelationError
from .stats import CorrelationResult
from .sweep import VARIED_NAMES, ExperimentSpec, RunRecord, SweepSpec, canonical_experiments, correlate, sweep_axis

CSV_HEADER = "experiment,param_name,param_value,replicate,seed,entropy_bits"


# -- config files -----------------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat key=value document into an ordered mapping of raw strings."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"invalid line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"invalid line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"duplicate key: {key}")
        entries[key] = value
    return entries


def _read_utf8(path, error) -> str:
    """The text of the UTF-8 file at ``path``, less one leading byte-order mark.

    Bytes that do not decode raise ``error(line, message)``; line and byte count the mark.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(line, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config(path) -> dict[str, str]:
    text = _read_utf8(path, lambda line, message: ConfigError(f"invalid line {line}: {message}"))
    return parse_config_text(text)


def _bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError("expected 'true' or 'false'")
    return raw == "true"


_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool}


def _schema(*classes) -> dict[str, tuple[Callable[[str], object], bool]]:
    """Config keys of the dataclasses' scalar fields: name -> (parser, required).

    An ``int``, ``float``, ``str`` or ``bool`` field, or one of these or None,
    is a key, required when it has no default; fields of other types are not.
    """
    return {
        f.name: (_PARSERS[kind], f.default is dataclasses.MISSING)
        for cls in classes
        for f in dataclasses.fields(cls)
        if (kind := f.type.removesuffix(" | None")) in _PARSERS
    }


def _take(cfg: dict[str, str], schema: dict[str, tuple[Callable[[str], object], bool]]) -> dict:
    """Validate keys against a schema of name -> (parser, required)."""
    for key in cfg:
        if key not in schema:
            raise ConfigError(f"unknown key: {key}")
    out = {}
    for key, (parse, required) in schema.items():
        if key in cfg:
            try:
                out[key] = parse(cfg[key])
            except ValueError as exc:
                raise ConfigError(f"invalid value for {key}: {cfg[key]!r} ({exc})") from None
        elif required:
            raise ConfigError(f"missing key: {key}")
    return out


@dataclass(frozen=True)
class RunConfig:
    """One ``filex run``: the process, its stream's seed in [0, 2**64) and the sampler mode."""

    params: ProcessParams
    seed: int
    mode: str = "fast"
    show_distribution: bool = False

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_count("seed", self.seed, 0, _MAX_SEED))
        _check_mode(self.mode)
        object.__setattr__(self, "show_distribution", _check_flag("show_distribution", self.show_distribution))


_RUN_SCHEMA = _schema(ProcessParams, RunConfig)


def run_config_from_mapping(cfg: dict[str, str]) -> RunConfig:
    values = _take(cfg, _RUN_SCHEMA)
    try:
        return RunConfig(ProcessParams(*(values.pop(key) for key in VARIED_NAMES)), **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


_CUSTOM_SCHEMA = _schema(ExperimentSpec, SweepSpec)
_CANONICAL_SCHEMA = {"experiment": (str, True), **{key: _CUSTOM_SCHEMA[key] for key in ("master_seed", "replicates")}}


def experiment_config_from_mapping(cfg: dict[str, str], seed_override: int | None = None) -> ExperimentSpec:
    """Build an ExperimentSpec from a canonical-name or explicit config."""
    canonical = "experiment" in cfg
    values = _take(cfg, _CANONICAL_SCHEMA if canonical else _CUSTOM_SCHEMA)
    if canonical and values["experiment"] not in VARIED_NAMES:
        raise ConfigError(
            f"invalid value for experiment: {values['experiment']!r} (expected one of {', '.join(VARIED_NAMES)})"
        )
    seed = values.pop("master_seed", None)
    if seed_override is not None:
        seed = seed_override
    if seed is None:
        raise ConfigError("missing key: master_seed")
    try:
        if canonical:
            name = values.pop("experiment")
            spec = next(s for s in canonical_experiments(seed) if s.name == name)
            return dataclasses.replace(spec, **values)
        sweep = SweepSpec(**{f.name: values.pop(f.name) for f in dataclasses.fields(SweepSpec) if f.name in values})
        return ExperimentSpec(sweep=sweep, master_seed=seed, **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# -- CSV persistence --------------------------------------------------------

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def records_to_csv(spec: ExperimentSpec, records: Sequence[RunRecord]) -> str:
    """Render records as CSV text (deterministic, round-trip exact floats)."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.experiment},{spec.varied},{_fmt(r.param_value)},{r.replicate},{r.seed},{_fmt(r.entropy_bits)}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(path, spec: ExperimentSpec, records: Sequence[RunRecord]) -> None:
    """Write :func:`records_to_csv` to ``path`` as UTF-8; text that cannot be encoded leaves the file as it was."""
    data = records_to_csv(spec, records).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


@dataclass(frozen=True)
class CsvRow:
    experiment: str
    param_name: str
    param_value: float
    replicate: int
    seed: int
    entropy_bits: float


def parse_records_csv(text: str) -> list[CsvRow]:
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError(1, "empty file")
    if lines[0] != CSV_HEADER:
        raise CsvFormatError(1, f"bad header, expected {CSV_HEADER!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise CsvFormatError(lineno, f"expected 6 fields, got {len(parts)}")
        experiment, param_name, param_value, replicate, seed, entropy = parts
        if param_name not in VARIED_NAMES:
            raise CsvFormatError(lineno, f"param_name must be one of {', '.join(VARIED_NAMES)}, got {param_name!r}")
        try:
            row = CsvRow(
                experiment, param_name, _check_positive("param_value", float(param_value)),
                _check_count("replicate", int(replicate), 0),
                _check_count("seed", int(seed), 0, _MAX_SEED), float(entropy),
            )
        except ValueError as exc:
            raise CsvFormatError(lineno, str(exc)) from None
        if not (math.isfinite(row.entropy_bits) and row.entropy_bits >= 0.0):
            raise CsvFormatError(lineno, f"entropy_bits must be finite and >= 0, got {entropy}")
        rows.append(row)
    return rows


def read_records_csv(path) -> list[CsvRow]:
    return parse_records_csv(_read_utf8(path, CsvFormatError))


# -- correlation table ------------------------------------------------------

def correlation_table_from_rows(rows: Iterable[CsvRow]) -> list[tuple[str, str, CorrelationResult | str]]:
    """Per-experiment (name, axis label, correlation) from parsed CSV rows.

    Each group is correlated as :func:`filex.sweep.correlate` does it. A group
    whose correlation is undefined yields a message string in place of the
    result.
    """
    groups: dict[tuple[str, str], list[CsvRow]] = {}
    for row in rows:
        groups.setdefault((row.experiment, row.param_name), []).append(row)
    table: list[tuple[str, str, CorrelationResult | str]] = []
    for (experiment, param_name), group in groups.items():
        try:
            result: CorrelationResult | str = correlate(param_name, group)
        except (UndefinedCorrelationError, InvalidInputError) as exc:
            result = f"undefined ({exc})"
        table.append((experiment, sweep_axis(param_name)[0], result))
    return table


def render_correlation_table(table: Sequence[tuple[str, str, CorrelationResult | str]]) -> str:
    width = max([len("experiment")] + [len(name) for name, _, _ in table])
    lines = [f"{'experiment':<{width}}  {'x':<8}  {'tau':>6}  {'p_value':>9}  {'runs':>5}"]
    for name, label, result in table:
        if isinstance(result, CorrelationResult):
            lines.append(
                f"{name:<{width}}  {label:<8}  {result.tau:+6.2f}  {result.p_value:9.2e}  {result.n:5d}"
            )
        else:
            lines.append(f"{name:<{width}}  {label:<8}  {result}")
    return "\n".join(lines) + "\n"


# -- SVG scatter plots ------------------------------------------------------

_WIDTH = 640
_HEIGHT = 440
_MARKER_COLOR = "#e66100"


@dataclass(frozen=True)
class PlotSpec:
    """Scatter plot of entropy against a swept hyperparameter on a log x axis."""

    points: Sequence[tuple[float, float]]
    x_label: str
    y_max: float = 6.0

    def __post_init__(self):
        if len(self.points) == 0:
            raise InvalidInputError("plot requires at least one record")
        if not 0.0 < self.y_max < math.inf:  # NaN fails both comparisons
            raise InvalidInputError(f"y_max must be positive and finite, got {self.y_max}")
        if not all(math.isfinite(x) and x > 0.0 for x, _ in self.points):
            raise InvalidInputError("log-x plot requires positive finite x values")
        if any(math.isnan(y) for _, y in self.points):
            raise InvalidInputError("plot y values must not be NaN")


def _x_ticks(lo: float, hi: float) -> list[float]:
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0 ** e for e in range(first, last + 1)]
    return ticks or [lo, hi]


def _tick_text(value: float) -> str:
    exponent = math.log10(value) if value > 0 else 0.0
    if value > 0 and abs(exponent - round(exponent)) < 1e-9 and abs(round(exponent)) >= 3:
        return f"1e{round(exponent)}"
    return f"{value:g}"


def _gridline(x1: float, y1: float, x2: float, y2: float) -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="#dddddd" stroke-width="1"/>'


def _text(x: float, y: float, anchor: str, size: int, body: str) -> str:
    return (f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}">{body}</text>')


def render_svg_scatter(spec: PlotSpec) -> str:
    """Self-contained SVG text: axes, gridlines, one circle per record."""
    left, right, top, bottom = 62.0, 16.0, 30.0, 46.0
    plot_w = _WIDTH - left - right
    plot_h = _HEIGHT - top - bottom

    xs = [p[0] for p in spec.points]
    lo, hi = min(xs), max(xs)
    llo, lhi = math.log10(lo), math.log10(hi)
    if lhi - llo < 1e-12:
        llo, lhi = llo - 0.5, lhi + 0.5

    def px(v: float) -> float:
        return left + (math.log10(v) - llo) / (lhi - llo) * plot_w

    def py(v: float) -> float:
        return top + (1.0 - v / spec.y_max) * plot_h

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    y_step = 1.0 if spec.y_max <= 12 else math.ceil(spec.y_max / 10)
    tick = 0.0
    while tick <= spec.y_max + 1e-9:
        y = py(min(tick, spec.y_max))
        out.append(_gridline(left, y, left + plot_w, y))
        out.append(_text(left - 8, y + 4, "end", 11, _tick_text(tick)))
        tick += y_step
    for tv in _x_ticks(lo, hi):
        x = px(tv)
        out.append(_gridline(x, top, x, top + plot_h))
        out.append(_text(x, top + plot_h + 16, "middle", 11, _tick_text(tv)))

    out.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{plot_w:.2f}" height="{plot_h:.2f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for x_val, y_val in spec.points:
        y_clamped = min(max(y_val, 0.0), spec.y_max)
        out.append(
            f'<circle cx="{px(x_val):.2f}" cy="{py(y_clamped):.2f}" r="2.5" '
            f'fill="{_MARKER_COLOR}" fill-opacity="0.75"/>'
        )
    # escaped as xml.sax.saxutils.escape escapes it; that module imports urllib.request
    label = spec.x_label.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    out.append(_text(left + plot_w / 2, _HEIGHT - 10, "middle", 13, label))
    out.append(
        f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">entropy (bits)</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg_scatter(path, spec: PlotSpec) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_svg_scatter(spec))


def plot_spec_from_rows(rows: Sequence[CsvRow]) -> PlotSpec:
    """Plot input from CSV rows of one swept parameter, with x as :func:`filex.sweep.sweep_axis` maps it.

    The y ceiling is the smallest whole bit count covering the data (the CSV
    schema does not carry the lexicon size).
    """
    if not rows:
        raise InvalidInputError("plot requires at least one record")
    names = sorted({r.param_name for r in rows})
    if len(names) > 1:
        raise InvalidInputError(f"plot requires one swept parameter, got {', '.join(names)}")
    label, to_x = sweep_axis(rows[0].param_name)
    points = [(to_x(r.param_value), r.entropy_bits) for r in rows]
    y_max = max(1.0, math.ceil(max(r.entropy_bits for r in rows) - 1e-9))
    return PlotSpec(points=points, x_label=label, y_max=float(y_max))

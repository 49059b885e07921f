import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, reject
from hypothesis import strategies as st

from filex.core import ProcessParams
from filex.errors import ConfigError, CsvFormatError, InvalidInputError, InvalidParameterError
from filex.report import (
    _CANONICAL_SCHEMA,
    _CUSTOM_SCHEMA,
    _RUN_SCHEMA,
    CSV_HEADER,
    PlotSpec,
    RunConfig,
    correlation_table_from_rows,
    experiment_config_from_mapping,
    parse_config_text,
    parse_records_csv,
    plot_spec_from_rows,
    read_records_csv,
    records_to_csv,
    render_correlation_table,
    render_svg_scatter,
    run_config_from_mapping,
    write_records_csv,
)
from filex.stats import CorrelationResult
from filex.sweep import VARIED_NAMES, ExperimentSpec, RunRecord, SweepSpec, canonical_experiments, run_experiment


class TestConfigParsing:
    def test_basic_parse(self):
        cfg = parse_config_text("a = 1\n# comment\nb=two\n\nc =  3.5  # trailing\n")
        assert cfg == {"a": "1", "b": "two", "c": "3.5"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key: a"):
            parse_config_text("a = 1\na = 2\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="invalid line 2"):
            parse_config_text("a = 1\nnot a pair\n")


class TestRunConfig:
    def test_complete(self):
        cfg = run_config_from_mapping(
            {"alpha": "1.5", "beta": "3", "s": "8", "n": "10", "seed": "7", "mode": "reference"}
        )
        assert cfg.params.alpha == 1.5
        assert cfg.mode == "reference"
        assert not cfg.show_distribution

    def test_missing_beta(self):
        with pytest.raises(ConfigError, match="^missing key: beta$"):
            run_config_from_mapping({"alpha": "1", "s": "4", "n": "0", "seed": "1"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key: gamma"):
            run_config_from_mapping(
                {"alpha": "1", "beta": "1", "s": "4", "n": "0", "seed": "1", "gamma": "2"}
            )

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="invalid value for beta"):
            run_config_from_mapping({"alpha": "1", "beta": "x", "s": "4", "n": "0", "seed": "1"})

    def test_invalid_parameter_reported_as_config_error(self):
        with pytest.raises(ConfigError, match="alpha"):
            run_config_from_mapping({"alpha": "-1", "beta": "1", "s": "4", "n": "0", "seed": "1"})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": -5}, "seed must be >= 0, got -5"),
            ({"seed": 2**64}, f"seed must be < {2**64}, got {2**64}"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": 1.0}, "seed must be an integer, got 1.0"),
            ({"seed": 1, "mode": "Fast"}, "mode must be 'reference' or 'fast', got 'Fast'"),
        ],
        ids=["negative-seed", "seed-2**64", "bool-seed", "float-seed", "unknown-mode"],
    )
    def test_direct_construction_validates(self, kwargs, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            RunConfig(ProcessParams(1.0, 1, 2, 3), **kwargs)


_FLAG_FIELDS = pytest.mark.parametrize(
    "name, build",
    [
        ("integral", lambda v: SweepSpec(1, 64, 4, integral=v)),
        ("alpha_coupled_to_s", lambda v: ExperimentSpec(
            name="x", varied="s", sweep=SweepSpec(8, 64, 4, integral=True), beta=10, n=10,
            alpha=None if v else 1.0, alpha_coupled_to_s=v)),
        ("show_distribution", lambda v: RunConfig(ProcessParams(1.0, 1, 2, 3), seed=1, show_distribution=v)),
    ],
    ids=["integral", "alpha_coupled_to_s", "show_distribution"],
)


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None], ids=["no", "false", "0", "1", "None"])
@_FLAG_FIELDS
def test_boolean_fields_take_only_bools(name, build, value):
    with pytest.raises(InvalidParameterError, match=f"^{name} must be True or False, got {re.escape(repr(value))}$"):
        build(value)


@pytest.mark.parametrize("value", [True, False])
@_FLAG_FIELDS
def test_boolean_fields_take_numpy_bools_as_bools(name, build, value):
    field = getattr(build(np.bool_(value)), name)
    assert type(field) is bool and field is value


class TestExperimentConfig:
    def test_canonical_form(self):
        spec = experiment_config_from_mapping({"experiment": "beta", "master_seed": "5"})
        assert spec.name == "beta"
        assert spec.master_seed == 5
        assert spec == canonical_experiments(5)[1]

    def test_canonical_with_replicates(self):
        spec = experiment_config_from_mapping(
            {"experiment": "alpha", "master_seed": "5", "replicates": "3"}
        )
        assert spec.replicates == 3

    def test_canonical_unknown_name(self):
        with pytest.raises(ConfigError, match="invalid value for experiment"):
            experiment_config_from_mapping({"experiment": "gamma", "master_seed": "5"})

    def test_custom_form(self):
        spec = experiment_config_from_mapping(
            {
                "name": "mini", "varied": "beta", "low": "1", "high": "64", "steps": "12",
                "integral": "true", "alpha": "0.5", "s": "16", "n": "50", "master_seed": "9",
            }
        )
        assert spec.varied == "beta"
        assert spec.sweep.integral
        assert spec.beta is None

    def test_custom_missing_master_seed(self):
        with pytest.raises(ConfigError, match="missing key: master_seed"):
            experiment_config_from_mapping(
                {"name": "m", "varied": "beta", "low": "1", "high": "8", "steps": "4",
                 "alpha": "1", "s": "4", "n": "5"}
            )

    def test_seed_override_wins(self):
        spec = experiment_config_from_mapping({"experiment": "n", "master_seed": "5"}, seed_override=123)
        assert spec.master_seed == 123

    def test_varied_also_fixed_rejected(self):
        with pytest.raises(ConfigError, match="must not also be given"):
            experiment_config_from_mapping(
                {"name": "m", "varied": "beta", "low": "1", "high": "8", "steps": "4",
                 "alpha": "1", "beta": "2", "s": "4", "n": "5", "master_seed": "1"}
            )


class TestConfigKeys:
    """The exact keys of each config form, so a dataclass field becomes a key only on purpose."""

    def test_run_keys(self):
        assert set(_RUN_SCHEMA) == {"alpha", "beta", "s", "n", "seed", "mode", "show_distribution"}
        assert {key for key, (_, required) in _RUN_SCHEMA.items() if required} == {"alpha", "beta", "s", "n", "seed"}

    def test_canonical_keys(self):
        assert set(_CANONICAL_SCHEMA) == {"experiment", "master_seed", "replicates"}

    def test_explicit_keys(self):
        assert set(_CUSTOM_SCHEMA) == {
            "name", "varied", "low", "high", "steps", "integral", "alpha", "beta", "s", "n",
            "alpha_coupled_to_s", "replicates", "master_seed",
        }

    def test_explicit_missing_keys_named_in_order(self):
        cfg = {}
        required = (("name", "m"), ("varied", "n"), ("low", "2"), ("high", "8"), ("steps", "3"), ("master_seed", "1"))
        for key, value in required:
            with pytest.raises(ConfigError, match=f"^missing key: {key}$"):
                experiment_config_from_mapping(cfg)
            cfg[key] = value


def small_records():
    spec = ExperimentSpec(
        name="mini", varied="n", sweep=SweepSpec(2, 20, 5, integral=True),
        alpha=0.25, beta=2, s=4, master_seed=11,
    )
    return spec, run_experiment(spec)


class TestCsv:
    def test_round_trip_exact(self):
        spec, records = small_records()
        text = records_to_csv(spec, records)
        rows = parse_records_csv(text)
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row.experiment == record.experiment
            assert row.param_name == "n"
            assert row.param_value == record.param_value
            assert row.replicate == record.replicate
            assert row.seed == record.seed
            assert row.entropy_bits == record.entropy_bits

    @given(
        name=st.text(),
        varied=st.sampled_from(VARIED_NAMES),
        ends=st.tuples(st.floats(0.5, 20.0), st.floats(0.5, 20.0)),  # either end the larger
        steps=st.integers(2, 5),
        replicates=st.integers(1, 3),
        master_seed=st.integers(0, 2**64 - 1),
    )
    def test_every_spec_that_builds_round_trips(self, name, varied, ends, steps, replicates, master_seed):
        fixed = dict(alpha=0.5, beta=2, s=4, n=20)
        del fixed[varied]
        try:
            spec = ExperimentSpec(
                name=name, varied=varied, sweep=SweepSpec(*ends, steps, integral=varied != "alpha"),
                replicates=replicates, master_seed=master_seed, **fixed,
            )
        except InvalidParameterError:
            reject()
        records = run_experiment(spec)
        rows = parse_records_csv(records_to_csv(spec, records))
        assert [(r.experiment, r.param_name, r.param_value, r.replicate, r.seed, r.entropy_bits) for r in rows] == [
            (r.experiment, varied, r.param_value, r.replicate, r.seed, r.entropy_bits) for r in records
        ]

    def test_header_exact(self):
        spec, records = small_records()
        assert records_to_csv(spec, records).splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == "experiment,param_name,param_value,replicate,seed,entropy_bits"

    def test_rewrite_byte_identical(self, tmp_path):
        spec, records = small_records()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records_csv(p1, spec, records)
        write_records_csv(p2, spec, records)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_write_keeps_the_file(self, tmp_path):
        # a spec refuses such a name; records built by hand can still carry one
        spec, records = small_records()
        path = tmp_path / "out.csv"
        write_records_csv(path, spec, records)
        kept = path.read_bytes()
        bad = [RunRecord("a\ud800", r.param_value, r.replicate, r.seed, r.entropy_bits) for r in records]
        with pytest.raises(UnicodeEncodeError):
            write_records_csv(path, spec, bad)
        assert path.read_bytes() == kept

    def test_bad_header(self):
        with pytest.raises(CsvFormatError, match="line 1"):
            parse_records_csv("nope\n")

    def test_bad_field_count(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            parse_records_csv(CSV_HEADER + "\na,b,c\n")

    def test_bad_float_names_line(self):
        text = CSV_HEADER + "\nmini,n,2,0,5,1.0\nmini,n,oops,0,5,1.0\n"
        with pytest.raises(CsvFormatError, match="line 3"):
            parse_records_csv(text)

    @pytest.mark.parametrize(
        "row,field",
        [
            ("a,alpha,0,0,5,1.0", "param_value"),
            ("a,alpha,-0.5,0,5,1.0", "param_value"),
            ("a,alpha,inf,0,5,1.0", "param_value"),
            ("a,alpha,nan,0,5,1.0", "param_value"),
            ("a,alpha,0.5,0,5,inf", "entropy_bits"),
            ("a,alpha,0.5,0,5,nan", "entropy_bits"),
            ("a,alpha,0.5,0,5,-1.0", "entropy_bits"),
            ("a,alpha,0.5,-3,5,1.0", "replicate"),
            ("a,alpha,0.5,0,-1,1.0", "seed"),
            ("a,alpha,0.5,0,18446744073709551616,1.0", "seed"),
        ],
    )
    def test_out_of_range_value_names_line(self, row, field):
        text = CSV_HEADER + "\na,alpha,1.0,0,5,1.0\n" + row + "\n"
        with pytest.raises(CsvFormatError, match=f"line 3: {field}"):
            parse_records_csv(text)

    @pytest.mark.parametrize("param_name", ["Alpha", "gamma", "", " n"])
    def test_unknown_param_name_names_line(self, param_name):
        # the name picks the axis a table correlates against and a plot draws
        text = CSV_HEADER + "\na,alpha,1.0,0,5,1.0\na," + param_name + ",2.0,0,6,1.5\n"
        with pytest.raises(CsvFormatError, match="line 3: param_name must be one of alpha, beta, s, n"):
            parse_records_csv(text)

    def test_largest_seed_accepted(self):
        rows = parse_records_csv(CSV_HEADER + "\na,alpha,0.5,0,18446744073709551615,1.0\n")
        assert rows[0].seed == 2**64 - 1

    def test_read_records_csv(self, tmp_path):
        spec, records = small_records()
        path = tmp_path / "r.csv"
        write_records_csv(path, spec, records)
        assert len(read_records_csv(path)) == len(records)


class TestCorrelationTableRendering:
    def test_alpha_group_uses_inverse_axis(self):
        text = CSV_HEADER + "\n"
        # entropy increasing with alpha => decreasing with 1/alpha => tau -1
        for i, (a, h) in enumerate([(0.001, 1.0), (0.01, 2.0), (0.1, 3.0), (1.0, 4.0)]):
            text += f"alpha,alpha,{a},0,{i},{h}\n"
        table = correlation_table_from_rows(parse_records_csv(text))
        assert table[0][1] == "1/alpha"
        assert table[0][2].tau == -1.0

    def test_constant_entropy_reported_inline(self):
        text = CSV_HEADER + "\n"
        for i in range(4):
            text += f"beta,beta,{2**i},0,{i},3.0\n"
        table = correlation_table_from_rows(parse_records_csv(text))
        assert isinstance(table[0][2], str)
        assert "undefined" in table[0][2]

    def test_rendering_layout(self):
        table = [
            ("alpha", "1/alpha", CorrelationResult(-0.87, 1e-30, 200)),
            ("beta", "beta", CorrelationResult(0.95, 1e-100, 600)),
            ("broken", "N", "undefined (constant)"),
        ]
        text = render_correlation_table(table)
        lines = text.splitlines()
        assert lines[0].startswith("experiment")
        assert "-0.87" in lines[1]
        assert "+0.95" in lines[2]
        assert "undefined" in lines[3]


class TestSvg:
    def test_well_formed_and_marker_count(self):
        points = [(10.0 ** (i / 10), 0.05 * i) for i in range(1, 101)]
        svg = render_svg_scatter(PlotSpec(points=points, x_label="beta", y_max=6.0))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 100

    def test_empty_points_rejected(self):
        with pytest.raises(InvalidInputError):
            PlotSpec(points=[], x_label="x")

    def test_log_axis_requires_positive(self):
        with pytest.raises(InvalidInputError):
            PlotSpec(points=[(-1.0, 1.0)], x_label="x")

    @pytest.mark.parametrize("y_max", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_y_max_must_be_positive_and_finite(self, y_max):
        with pytest.raises(InvalidInputError, match="^y_max must be positive and finite"):
            PlotSpec(points=[(1.0, 1.0)], x_label="x", y_max=y_max)

    def test_nan_y_rejected(self):
        with pytest.raises(InvalidInputError, match="^plot y values must not be NaN$"):
            PlotSpec(points=[(1.0, 1.0), (2.0, math.nan)], x_label="x")

    def test_max_entropy_markers_on_top_gridline(self):
        points = [(1.0, 6.0), (10.0, 6.0)]
        svg = render_svg_scatter(PlotSpec(points=points, x_label="N", y_max=6.0))
        root = ET.fromstring(svg)
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        tops = {c.get("cy") for c in circles}
        assert len(tops) == 1
        top_y = tops.pop()
        top_gridline = [
            e for e in root.iter()
            if e.tag.endswith("line") and e.get("y1") == e.get("y2") == top_y
        ]
        assert top_gridline

    def test_deterministic_output(self):
        points = [(2.0, 1.5), (20.0, 3.25), (200.0, 4.75)]
        spec = PlotSpec(points=points, x_label="S", y_max=8.0)
        assert render_svg_scatter(spec) == render_svg_scatter(spec)

    def test_plot_spec_from_rows_inverts_alpha(self):
        text = CSV_HEADER + "\nalpha,alpha,0.01,0,1,3.5\nalpha,alpha,0.1,0,2,2.5\n"
        rows = parse_records_csv(text)
        spec = plot_spec_from_rows(rows)
        assert spec.x_label == "1/alpha"
        assert spec.points == [(100.0, 3.5), (10.0, 2.5)]
        assert spec.y_max == 4.0

    @pytest.mark.parametrize("label", ["1/alpha", "beta", "S", "N", "a<b & c>d", "&amp; \"q\" 'q'"])
    def test_x_label_escaped_as_saxutils_escapes_it(self, label):
        from xml.sax.saxutils import escape

        svg = render_svg_scatter(PlotSpec(points=[(1.0, 1.0)], x_label=label))
        assert f'font-size="13">{escape(label)}</text>' in svg
        assert label in [e.text for e in ET.fromstring(svg).iter() if e.tag.endswith("text")]

    def test_log_ticks_present(self):
        points = [(1.0, 1.0), (1000.0, 2.0)]
        svg = render_svg_scatter(PlotSpec(points=points, x_label="N", y_max=6.0))
        assert ">10<" in svg and ">100<" in svg

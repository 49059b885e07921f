import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from filex import cli
from filex.cli import main
from filex.report import (
    correlation_table_from_rows,
    experiment_config_from_mapping,
    load_config,
    plot_spec_from_rows,
    read_records_csv,
    render_correlation_table,
    render_svg_scatter,
)
from filex.sweep import correlate, run_experiment


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


RUN_UNIFORM = "alpha = 1\nbeta = 1\ns = 4\nn = 0\nseed = 3\n"
SWEEP_MINI = (
    "name = mini\nvaried = n\nlow = 2\nhigh = 40\nsteps = 10\nintegral = true\n"
    "alpha = 0.5\nbeta = 2\ns = 8\nmaster_seed = 21\n"
)
SWEEP_ALPHA = (
    "name = a\nvaried = alpha\nlow = 1e-3\nhigh = 0.1\nsteps = 40\n"
    "beta = 2\ns = 8\nn = 20\nmaster_seed = 3\n"
)


def test_cli_import_loads_no_network_modules():
    # urllib.request pulls in http.client, ssl and email: tens of milliseconds per filex process
    code = "import sys, filex.cli\nloaded = {'urllib.request', 'ssl'} & set(sys.modules)\nassert not loaded, loaded\n"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_import_loads_no_pool_modules():
    # a sweep imports multiprocessing and concurrent.futures only when it prices, starts or watches a pool
    code = ("import sys, filex\nloaded = {'multiprocessing', 'concurrent.futures'} & set(sys.modules)\n"
            "assert not loaded, loaded\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


def test_one_process_runs_commands_after_a_usage_error(tmp_path, capsys):
    # the parser is built once per process and left as it was by each parse
    cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
    csv, svg = tmp_path / "mini.csv", tmp_path / "mini.svg"
    assert main(["sweep", "--config", cfg, "--out", str(csv)]) == 0
    capsys.readouterr()
    codes, outputs = [], []
    for argv in (["no-such-command"], ["table", str(csv)], ["plot", str(csv), "--out", str(svg)], ["table"]):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
        outputs.append(capsys.readouterr())
    assert codes == [2, 0, 0, 2]
    assert outputs[0].out == "" and outputs[0].err.startswith("usage: filex ")
    assert "invalid choice: 'no-such-command'" in outputs[0].err
    rows = read_records_csv(str(csv))
    assert outputs[1] == (render_correlation_table(correlation_table_from_rows(rows)), "")
    assert outputs[2] == (f"wrote {svg}\n", "")
    assert svg.read_text(encoding="utf-8") == render_svg_scatter(plot_spec_from_rows(rows))
    assert outputs[3].err.startswith("usage: filex table ") and "required: csv" in outputs[3].err
    assert cli._build_parser() is cli._build_parser()


class TestCmdRun:
    def test_uniform_entropy(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_UNIFORM)
        assert main(["run", "--config", cfg]) == 0
        assert "entropy_bits=2.000000" in capsys.readouterr().out

    def test_single_symbol(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "alpha = 1\nbeta = 3\ns = 1\nn = 10\nseed = 5\n")
        assert main(["run", "--config", cfg]) == 0
        assert "entropy_bits=0.000000" in capsys.readouterr().out

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", "alpha = 1\ns = 4\nn = 0\nseed = 3\n")
        assert main(["run", "--config", cfg]) == 2
        assert "missing key: beta" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_UNIFORM + "bogus = 1\n")
        assert main(["run", "--config", cfg]) == 2
        assert "unknown key: bogus" in capsys.readouterr().err

    def test_show_distribution(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_UNIFORM + "show_distribution = true\n")
        assert main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "distribution=0.25 0.25 0.25 0.25" in out

    def test_underflowing_final_probability_exits_2(self, tmp_path, capsys):
        # alpha/s is representable, (alpha/s)/(alpha+n) underflows to zero
        cfg = write(tmp_path / "run.cfg", "alpha = 4e-322\nbeta = 1\ns = 2\nn = 1000\nseed = 3\n")
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: (alpha/s)/(alpha+n) underflows to zero")

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2**64"])
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, seed):
        cfg = write(tmp_path / "run.cfg", f"alpha = 1\nbeta = 1\ns = 4\nn = 0\nseed = {seed}\n")
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be")

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(RUN_UNIFORM.encode().replace(b"s = 4", b"s = 4\xff"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: invalid line 3: not UTF-8 text")

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_UNIFORM + "mode = Fast\n")
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: mode must be 'reference' or 'fast', got 'Fast'\n"

    def test_mode_flag_overrides(self, tmp_path, capsys):
        cfg = write(tmp_path / "run.cfg", RUN_UNIFORM + "mode = fast\n")
        assert main(["run", "--config", cfg, "--mode", "reference"]) == 0
        assert "entropy_bits=2.000000" in capsys.readouterr().out


class TestCmdSweep:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        out = tmp_path / "mini.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,param_name,param_value,replicate,seed,entropy_bits"
        assert len(lines) == 11

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reduced_preset_subset(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        full, reduced = tmp_path / "f.csv", tmp_path / "r.csv"
        assert main(["sweep", "--config", cfg, "--out", str(full)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(reduced), "--preset", "reduced"]) == 0
        full_rows = full.read_text().splitlines()[1:]
        reduced_rows = reduced.read_text().splitlines()[1:]
        assert reduced_rows == full_rows[::4]

    def test_seed_flag_changes_records(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(b), "--seed", "909"]) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_unwritable_path_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "no/such/dir/x.csv")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", "name = broken\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    def test_zero_workers_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_comma_in_name_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI.replace("name = mini", "name = a,b"))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,flags,message",
        [
            ("experiment = alpha\nmaster_seed = 1\nreplicates = 0\n", [], "replicates"),
            ("experiment = alpha\nmaster_seed = 1\n", ["--seed", "-1"], "master_seed"),
        ],
        ids=["replicates", "seed"],
    )
    def test_canonical_config_invalid_value_exits_2(self, tmp_path, capsys, config, flags, message):
        cfg = write(tmp_path / "exp.cfg", config)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out), *flags]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config,message",
        [
            (SWEEP_ALPHA.replace("beta = 2", "beta = 0"), "sweep point 0 (alpha=0.001): beta must be >= 1, got 0"),
            (
                "name = b\nvaried = beta\nlow = 2\nhigh = 8\nsteps = 3\nalpha = 1\ns = 4\nn = 5\nmaster_seed = 1\n",
                "sweep point 0 (beta=2.0): beta must be an integer, got 2.0",
            ),
            (SWEEP_MINI.replace("alpha = 0.5", "alpha = inf"), "sweep point 0 (n=2): alpha must be positive and finite, got inf"),
            (
                SWEEP_MINI.replace("low = 2\nhigh = 40", "low = 5\nhigh = 0.5"),
                "integral sweep ends must floor to >= 1, got low=5.0, high=0.5",
            ),
            (
                "name = tiny-alpha\nvaried = alpha\nlow = 1e-310\nhigh = 1e-300\nsteps = 3\nbeta = 2\ns = 3\nn = 5\nmaster_seed = 1\n",
                "sweep point 0 (alpha=1e-310): 1/alpha must be positive and finite, got inf",
            ),
        ],
        ids=["zero-beta", "non-integral-beta", "infinite-alpha", "integral-end-floors-to-0", "alpha-axis-overflows"],
    )
    def test_custom_config_invalid_value_exits_2(self, tmp_path, capsys, config, message):
        cfg = write(tmp_path / "exp.cfg", config)
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_correlate_inverse_key_unknown(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_ALPHA + "correlate_inverse = false\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "unknown key: correlate_inverse" in capsys.readouterr().err


class TestCmdTable:
    def test_table_from_sweep_csv(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        out = tmp_path / "mini.csv"
        main(["sweep", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert main(["table", str(out)]) == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].startswith("experiment")
        assert "mini" in text
        assert "N" in text

    def test_multiple_csvs_multiple_rows(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        out1 = tmp_path / "a.csv"
        main(["sweep", "--config", cfg, "--out", str(out1)])
        cfg2 = write(tmp_path / "exp2.cfg", SWEEP_MINI.replace("mini", "mini2"))
        out2 = tmp_path / "b.csv"
        main(["sweep", "--config", cfg2, "--out", str(out2)])
        capsys.readouterr()
        assert main(["table", str(out1), str(out2)]) == 0
        text = capsys.readouterr().out
        assert len(text.strip().splitlines()) == 3

    def test_constant_entropy_row_reported(self, tmp_path, capsys):
        csv = tmp_path / "const.csv"
        lines = ["experiment,param_name,param_value,replicate,seed,entropy_bits"]
        lines += [f"c,n,{v},0,{v},2.5" for v in (1, 2, 3, 4)]
        csv.write_text("\n".join(lines) + "\n")
        assert main(["table", str(csv)]) == 0
        assert "undefined" in capsys.readouterr().out

    def test_malformed_csv_exits_1_with_line(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("experiment,param_name,param_value,replicate,seed,entropy_bits\nx,y\n")
        assert main(["table", str(csv)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["table", str(tmp_path / "missing.csv")]) == 1


BAD_VALUE_CSVS = {
    "zero alpha": b"a,alpha,1,0,1,2.0\na,alpha,0,0,2,3.0\n",
    "infinite entropy": b"a,alpha,1,0,1,2.0\na,alpha,2,0,2,inf\n",
    "negative replicate": b"a,alpha,1,0,1,2.0\na,alpha,2,-3,2,3.0\n",
    "seed 2**64": b"a,alpha,1,0,1,2.0\na,alpha,2,0,18446744073709551616,3.0\n",
    "non-UTF-8 byte": b"a,alpha,1,0,1,2.0\na,alpha,\xff,0,2,3.0\n",
    "unknown param_name": b"a,alpha,1,0,1,2.0\na,Alpha,2,0,2,3.0\n",
}


@pytest.mark.parametrize("command", ["table", "plot"])
@pytest.mark.parametrize("body", BAD_VALUE_CSVS.values(), ids=BAD_VALUE_CSVS.keys())
def test_out_of_range_csv_value_exits_1_with_line(tmp_path, capsys, command, body):
    csv = tmp_path / "bad.csv"
    csv.write_bytes(b"experiment,param_name,param_value,replicate,seed,entropy_bits\n" + body)
    extra = ["--out", str(tmp_path / "x.svg")] if command == "plot" else []
    assert main([command, str(csv), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at line 3")
    assert not (tmp_path / "x.svg").exists()


def test_plot_subnormal_alpha_exits_1(tmp_path, capsys):
    # 1/alpha overflows to inf: the table reports the group undefined, the plot is refused
    csv = tmp_path / "sub.csv"
    csv.write_text("experiment,param_name,param_value,replicate,seed,entropy_bits\n"
                   "a,alpha,1,0,1,2.0\na,alpha,5e-324,0,2,3.0\n")
    assert main(["plot", str(csv), "--out", str(tmp_path / "x.svg")]) == 1
    assert "error: log-x plot requires positive finite x values" in capsys.readouterr().err


def test_alpha_sweep_api_and_cli_agree(tmp_path, capsys):
    """One custom alpha sweep: the API table, ``filex table`` and ``filex plot`` all use 1/alpha."""
    cfg = write(tmp_path / "exp.cfg", SWEEP_ALPHA)
    csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
    assert main(["sweep", "--config", cfg, "--out", str(csv)]) == 0
    spec = experiment_config_from_mapping(load_config(cfg))
    records = run_experiment(spec)
    name, result = spec.name, correlate(spec.varied, records)
    assert result.tau < 0  # entropy rises with alpha, so it falls with 1/alpha
    assert correlation_table_from_rows(read_records_csv(csv)) == [(name, "1/alpha", result)]
    capsys.readouterr()
    assert main(["table", str(csv)]) == 0
    assert capsys.readouterr().out == render_correlation_table([(name, "1/alpha", result)])
    assert main(["plot", str(csv), "--out", str(svg)]) == 0
    plot = plot_spec_from_rows(read_records_csv(csv))
    assert [x for x, _ in plot.points] == [1.0 / r.param_value for r in records]
    assert svg.read_text() == render_svg_scatter(plot)


class TestCmdPlot:
    def test_plot_valid_svg(self, tmp_path, capsys):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        csv = tmp_path / "mini.csv"
        main(["sweep", "--config", cfg, "--out", str(csv)])
        svg = tmp_path / "mini.svg"
        assert main(["plot", str(csv), "--out", str(svg)]) == 0
        root = ET.fromstring(svg.read_text())
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(circles) == 10

    def test_plot_determinism(self, tmp_path):
        cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
        csv = tmp_path / "mini.csv"
        main(["sweep", "--config", cfg, "--out", str(csv)])
        s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["plot", str(csv), "--out", str(s1)]) == 0
        assert main(["plot", str(csv), "--out", str(s2)]) == 0
        assert s1.read_bytes() == s2.read_bytes()

    def test_mixed_parameters_exit_1(self, tmp_path, capsys):
        # an n group must not be drawn on the first row's 1/alpha axis
        csv = tmp_path / "mixed.csv"
        csv.write_text("experiment,param_name,param_value,replicate,seed,entropy_bits\n"
                       "a,alpha,0.01,0,1,2.0\na,alpha,0.1,0,2,3.0\nb,n,100,0,3,2.5\nb,n,1000,0,4,1.5\n")
        assert main(["plot", str(csv), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == "error: plot requires one swept parameter, got alpha, n\n"
        assert not (tmp_path / "x.svg").exists()

    def test_empty_csv_exits_1(self, tmp_path, capsys):
        csv = tmp_path / "empty.csv"
        csv.write_text("experiment,param_name,param_value,replicate,seed,entropy_bits\n")
        assert main(["plot", str(csv), "--out", str(tmp_path / "x.svg")]) == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


BOM = b"\xef\xbb\xbf"


def test_byte_order_mark_in_config_is_ignored(tmp_path, capsys):
    # a leading byte-order mark, as Windows editors often save a config
    config = b"experiment = alpha\nmaster_seed = 1\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(config)
    marked.write_bytes(BOM + config)
    outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
    for cfg, out in zip((plain, marked), outs):
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--preset", "reduced"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    # a decode error still counts lines and bytes in the file as it is, mark included
    marked.write_bytes(BOM + config.replace(b"= 1", b"= 1\xff"))
    assert main(["sweep", "--config", str(marked), "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.endswith("error: invalid line 2: not UTF-8 text (invalid start byte at byte 37)\n")


def test_byte_order_mark_in_csv_is_ignored(tmp_path, capsys):
    cfg = write(tmp_path / "exp.cfg", SWEEP_MINI)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    assert main(["sweep", "--config", cfg, "--out", str(plain)]) == 0
    marked.write_bytes(BOM + plain.read_bytes())
    capsys.readouterr()
    assert main(["table", str(plain)]) == 0
    expected = capsys.readouterr().out
    assert main(["table", str(marked)]) == 0
    assert capsys.readouterr().out == expected


CONFIG_FORMAT_ERRORS = {
    "bool yes": ("sweep", SWEEP_MINI.replace("integral = true", "integral = yes"),
                 "invalid value for integral: 'yes' (expected 'true' or 'false')"),
    "bool True": ("run", RUN_UNIFORM + "show_distribution = True\n",
                  "invalid value for show_distribution: 'True' (expected 'true' or 'false')"),
    "float steps": ("sweep", SWEEP_MINI.replace("steps = 10", "steps = 4.0"),
                    "invalid value for steps: '4.0' (invalid literal for int() with base 10: '4.0')"),
    "sweep key": ("sweep", SWEEP_MINI + "sweep = 1\n", "unknown key: sweep"),
    "params key": ("run", RUN_UNIFORM + "params = 1\n", "unknown key: params"),
}


@pytest.mark.parametrize("command,config,message", CONFIG_FORMAT_ERRORS.values(), ids=CONFIG_FORMAT_ERRORS.keys())
def test_config_format_error_exits_2(tmp_path, capsys, command, config, message):
    cfg = write(tmp_path / "x.cfg", config)
    extra = ["--out", str(tmp_path / "x.csv")] if command == "sweep" else []
    assert main([command, "--config", cfg, *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()

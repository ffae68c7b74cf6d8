"""Tests for the command-line surface: configs, exit codes, and outputs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmtlink.cli
from dmtlink.cli import (
    DEFAULT_CONFIG,
    OUT_DIR_ENV,
    ConfigError,
    build_scenario,
    load_config,
    main,
)

FAST_KEYS = {"rate_gbps": 56.0, "min_bits": 200_000, "min_errors": 50}


def _write_config(tmp_path: Path, **overrides) -> str:
    cfg = dict(FAST_KEYS)
    cfg.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_imports_no_private_names():
    """The CLI is a shell over public names: it imports nothing underscored."""
    names = []
    for node in ast.walk(ast.parse(Path(dmtlink.cli.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += (node.module or "").split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [part for alias in node.names for part in alias.name.split(".")]
    assert [name for name in names if name.startswith("_")] == []


class TestConfigLoading:
    """JSON config parsing, defaults, and rejection of bad input."""

    def test_missing_path_returns_defaults(self):
        """No config file means the documented defaults, untouched."""
        assert load_config(None) == DEFAULT_CONFIG

    def test_file_overrides_defaults(self, tmp_path):
        """Keys present in the file supersede defaults; others remain."""
        cfg = load_config(_write_config(tmp_path, osnr_db=30.0))
        assert cfg["osnr_db"] == 30.0
        assert cfg["grid_spacing_ghz"] == DEFAULT_CONFIG["grid_spacing_ghz"]

    def test_unknown_key_rejected(self, tmp_path):
        """A typo'd key is a loud error naming the offender, not a default."""
        path = tmp_path / "bad.json"
        path.write_text('{"detuning_gzh": 19.0}')
        with pytest.raises(ConfigError, match="detuning_gzh"):
            load_config(str(path))

    def test_malformed_json_reports_line_and_column(self, tmp_path):
        """Syntax errors carry the parser's line/column diagnostics."""
        path = tmp_path / "bad.json"
        path.write_text('{"rate_gbps": 56.0,\n "oops": }')
        with pytest.raises(ConfigError, match=r"line 2 column 10"):
            load_config(str(path))

    def test_missing_file_is_config_error(self, tmp_path):
        """An unreadable path fails as a config error (exit 2), not a crash."""
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_null_osnr_means_noiseless(self):
        """JSON null for the OSNR maps to an unimpaired (infinite) link."""
        cfg = dict(DEFAULT_CONFIG)
        cfg["osnr_db"] = None
        assert np.isinf(build_scenario(cfg).link.osnr_db)

    def test_units_converted_to_si(self, tmp_path):
        """GHz / km / GS/s key suffixes land as Hz / km / Hz internally."""
        cfg = load_config(_write_config(tmp_path, detuning_ghz=7.5, reach_km=40.0))
        sc = build_scenario(cfg)
        assert sc.link.detuning == 7.5e9
        assert sc.link.span_lengths_km == (40.0,)
        assert sc.net_rate == 56e9

    def test_invalid_value_is_config_error(self, tmp_path):
        """Range violations surface as config errors, not tracebacks."""
        cfg = load_config(_write_config(tmp_path, n_channels=99))
        with pytest.raises(ConfigError, match="invalid configuration"):
            build_scenario(cfg)


class TestRunCommand:
    """The ``run`` subcommand: manifests, summaries, exit codes."""

    def test_loopback_run_exit_zero(self, tmp_path, capsys):
        """A noiseless loopback run reports BER 0 and exits 0."""
        cfg = _write_config(tmp_path, loopback=True)
        code = main(["run", "--config", cfg, "--seed", "3", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "channel 1: BER 0.000e+00" in out

    def test_manifest_records_flag_override(self, tmp_path):
        """A flag overriding a file value is what the manifest snapshots."""
        cfg = _write_config(tmp_path, loopback=True, detuning_ghz=5.0)
        code = main(
            [
                "run",
                "--config",
                cfg,
                "--detuning-ghz",
                "19",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        (manifest_path,) = tmp_path.glob("run_*_manifest.json")
        manifest = json.loads(manifest_path.read_text())
        assert manifest["scenario"]["link"]["detuning"] == 19e9
        assert manifest["seed"] == 0
        assert "package_version" in manifest

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        """Config rejection is exit code 2 with the key named on stderr."""
        path = tmp_path / "bad.json"
        path.write_text('{"detuning_gzh": 19.0}')
        code = main(["run", "--config", str(path), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "detuning_gzh" in capsys.readouterr().err

    def test_infeasible_rate_exits_3(self, tmp_path, capsys):
        """A rate the profile cannot carry is exit code 3."""
        cfg = _write_config(tmp_path, loopback=True, rate_gbps=300.0)
        code = main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_ber_above_target_exits_1(self, tmp_path, monkeypatch):
        """Measured BER at or above the target maps to exit code 1."""
        import dmtlink.cli as cli_mod
        from dmtlink.harness import run_link as real_run_link

        def noisy_run(sc, seed, channels=None):
            record = real_run_link(sc, seed, channels)
            reports = {
                ch: type(rep)(
                    bit_errors=rep.bits_total // 50,
                    bits_total=rep.bits_total,
                    per_subcarrier_errors=rep.per_subcarrier_errors,
                )
                for ch, rep in record.reports.items()
            }
            return type(record)(
                scenario=record.scenario,
                seed=record.seed,
                snr=record.snr,
                plans=record.plans,
                reports=reports,
                wall_time_s=record.wall_time_s,
            )

        monkeypatch.setattr(cli_mod, "run_link", noisy_run)
        cfg = _write_config(tmp_path, loopback=True)
        code = main(["run", "--config", cfg, "--out-dir", str(tmp_path)])
        assert code == 1

    def test_out_dir_env_var_default(self, tmp_path, monkeypatch):
        """Without --out-dir, outputs land in the env-var directory."""
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "from_env"))
        cfg = _write_config(tmp_path, loopback=True)
        assert main(["run", "--config", cfg]) == 0
        assert list((tmp_path / "from_env").glob("run_*_manifest.json"))


class TestSweepCommand:
    """The ``sweep`` subcommand: CSV schemas, SVG output, determinism."""

    OPTICAL = {"osnr_db": 32.0, "reach_km": 10.0}

    def test_detuning_sweep_csv_schema(self, tmp_path):
        """The detuning sweep writes the golden two-column table."""
        cfg = _write_config(tmp_path, **self.OPTICAL)
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--axis",
                "detuning",
                "--start",
                "14",
                "--stop",
                "19",
                "--step",
                "5",
                "--seed",
                "5",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        (csv_path,) = tmp_path.glob("sweep_detuning_*.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "detuning_ghz,ber"
        assert len(lines) == 3
        assert [float(line.split(",")[0]) for line in lines[1:]] == [14.0, 19.0]

    @pytest.mark.parametrize(
        "axis, start, stop, step",
        [("detuning", "14", "19", "5"), ("osnr", "29", "31", "2")],
        ids=["detuning", "osnr"],
    )
    def test_parallel_matches_serial_byte_identical(self, tmp_path, axis, start, stop, step):
        """Same scenario and seed give byte-identical CSVs at any worker count."""
        cfg = _write_config(tmp_path, **self.OPTICAL)
        base = [
            "sweep",
            "--config",
            cfg,
            "--axis",
            axis,
            "--start",
            start,
            "--stop",
            stop,
            "--step",
            step,
            "--seed",
            "5",
        ]
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        assert main(base + ["--out-dir", str(serial_dir)]) == 0
        assert main(base + ["--out-dir", str(parallel_dir), "--workers", "2"]) == 0
        (serial_csv,) = serial_dir.glob("*.csv")
        (parallel_csv,) = parallel_dir.glob("*.csv")
        assert serial_csv.name == parallel_csv.name
        assert serial_csv.read_bytes() == parallel_csv.read_bytes()

    def test_svg_flag_writes_selfcontained_plot(self, tmp_path):
        """--svg emits one valid standalone SVG document per sweep."""
        cfg = _write_config(tmp_path, loopback=True)
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--axis",
                "reach",
                "--start",
                "0",
                "--stop",
                "10",
                "--step",
                "10",
                "--series-detuning-ghz",
                "0,19",
                "--svg",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        (svg_path,) = tmp_path.glob("sweep_reach_*.svg")
        text = svg_path.read_text()
        import xml.dom.minidom

        xml.dom.minidom.parseString(text)
        assert text.startswith("<svg")
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")

    def test_reach_sweep_csv_one_column_per_detuning(self, tmp_path):
        """Reach sweeps emit one required-OSNR column per requested series."""
        cfg = _write_config(tmp_path, loopback=True)
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--axis",
                "reach",
                "--start",
                "0",
                "--stop",
                "10",
                "--step",
                "10",
                "--series-detuning-ghz",
                "0,19",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        (csv_path,) = tmp_path.glob("sweep_reach_*.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "reach_km,required_osnr_db_0ghz,required_osnr_db_19ghz"
        # loopback ignores the optics, so the bracket floor comes back
        assert lines[1] == "0.0,10.0,10.0"

    def test_osnr_sweep_reports_crossing(self, tmp_path, capsys):
        """The OSNR sweep footer reports the interpolated target crossing."""
        cfg = _write_config(tmp_path)
        code = main(
            [
                "sweep",
                "--config",
                cfg,
                "--axis",
                "osnr",
                "--start",
                "29",
                "--stop",
                "31",
                "--step",
                "2",
                "--seed",
                "9",
                "--out-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "required OSNR" in out
        (csv_path,) = tmp_path.glob("sweep_osnr_*.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "osnr_db,ber"
        # 29 dB cannot carry the rate: recorded as BER 1, not a crash
        assert lines[1] == "29.0,1.0"
        assert float(lines[2].split(",")[1]) < 4e-3


class TestTableCommand:
    """The ``table`` subcommand: filtering, pass/fail, exit codes."""

    def test_scenario_filter_and_failing_point(self, tmp_path, capsys):
        """An unloadable operating point rows up as BER 1 / fail, exit 1."""
        code = main(
            [
                "table",
                "--scenario",
                "4x112",
                "--table-osnr-db",
                "30",
                "--seed",
                "2",
                "--workers",
                "4",
                "--out-dir",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "[fail]" in out
        (csv_path,) = tmp_path.glob("table_*.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "n_channels,rate_gbps,reach_km,worst_channel_ber,status"
        assert lines[1] == "4,112.0,0.0,1.0,fail"

    def test_bad_scenario_filter_exits_2(self, tmp_path, capsys):
        """A malformed or unknown filter is a config error."""
        assert main(["table", "--scenario", "nonsense", "--out-dir", str(tmp_path)]) == 2
        assert main(["table", "--scenario", "9x56", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "8x56" in err or "scenario" in err


class TestFadingCommand:
    """The ``fading`` subcommand: analytic vs simulated profile dump."""

    def test_profile_csv_matches_analytic_nulls(self, tmp_path):
        """Filterless at 80 km, the simulated profile tracks the analytic one."""
        cfg = _write_config(tmp_path, reach_km=80.0)
        code = main(
            [
                "fading",
                "--config",
                cfg,
                "--no-interleaver",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        (csv_path,) = tmp_path.glob("fading_*.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "frequency_ghz,analytic_db,simulated_db"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        strong = rows[rows[:, 1] > -10.0]  # compare away from the nulls
        assert strong.shape[0] > 100
        assert np.max(np.abs(strong[:, 1] - strong[:, 2])) < 0.5


class TestClosedOutput:
    """A reader that closes standard output early (``dmtlink ... | head``)."""

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_ends_with_sigpipe_code_and_no_traceback(self, tmp_path, unbuffered):
        src = str(Path(dmtlink.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "dmtlink.cli", "fading", "--reach-km", "80"]
        proc = subprocess.Popen(
            command + ["--out-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader leaves before the command prints
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

"""Tests for the command-line surface: configs, exit codes, and outputs."""

import ast
import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
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
from dmtlink.harness import ScenarioConfig, persist_run, run_link, scenario_hash, write_csv
from dmtlink.loading import GapConfig

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
        """A typo'd or retired key is a loud error naming the offender, not a default."""
        path = tmp_path / "bad.json"
        for key in ("detuning_gzh", "vpi_v"):
            path.write_text(json.dumps({key: 19.0}))
            with pytest.raises(ConfigError, match=key):
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


# The schema as it stood before the key table: the table must keep it.
DOCUMENTED_DEFAULTS = {
    "n_channels": 4,
    "active_channels": [1],
    "channel_under_test": 1,
    "grid_spacing_ghz": 50.0,
    "detuning_ghz": 19.0,
    "reach_km": 0.0,
    "dispersion_ps_nm_km": 17.0,
    "wavelength_nm": 1550.0,
    "osnr_db": None,
    "rx_bandwidth_ghz": 29.4,
    "rx_sample_rate_gsps": 80.0,
    "composite_rate_gsps": None,
    "drive_swing": 0.2,
    "mzm_bias_margin": 0.01,
    "il_fwhm_ghz": 44.0,
    "il_order": 2,
    "il_fsr_ghz": 100.0,
    "demux_fwhm_ghz": 44.0,
    "demux_order": 2,
    "quantize_bits": None,
    "rate_gbps": 112.0,
    "target_ber": 4e-3,
    "margin_db": 0.0,
    "min_bits": 1_000_000,
    "min_errors": 100,
    "loopback": False,
    "label": "",
}

_SINGLE = ScenarioConfig.single_channel()


def _link(**fields) -> ScenarioConfig:
    return replace(_SINGLE, link=replace(_SINGLE.link, **fields))


# each key set alone to a value other than its default, and the scenario
# it must build, written out by hand
ONE_KEY_SCENARIOS = [
    ("n_channels", 6, _link(n_channels=6)),
    ("active_channels", [0, 1, 2], _link(active_channels=(0, 1, 2))),
    ("active_channels", None, _link(active_channels=None)),
    ("channel_under_test", None, _link(channel_under_test=None)),
    ("grid_spacing_ghz", 37.5, _link(grid_spacing=37.5e9)),
    ("detuning_ghz", 12.5, _link(detuning=12.5e9)),
    ("reach_km", 80.0, _link(span_lengths_km=(80.0,))),
    ("dispersion_ps_nm_km", 16.5, _link(dispersion_ps_nm_km=16.5)),
    ("wavelength_nm", 1310.0, _link(center_wavelength_nm=1310.0)),
    ("osnr_db", 30.5, _link(osnr_db=30.5)),
    ("rx_bandwidth_ghz", 25.0, _link(rx_bandwidth=25e9)),
    ("rx_sample_rate_gsps", 96.0, _link(rx_sample_rate=96e9)),
    ("composite_rate_gsps", 512.0, _link(composite_rate=512e9)),
    ("drive_swing", 0.25, _link(drive_swing=0.25)),
    ("mzm_bias_margin", 0.05, _link(mzm_bias_margin=0.05)),
    ("il_fwhm_ghz", 40.0, _link(il_fwhm=40e9)),
    ("il_order", 3, _link(il_order=3)),
    ("il_fsr_ghz", 200.0, _link(il_fsr=200e9)),
    ("demux_fwhm_ghz", 36.0, _link(demux_fwhm=36e9)),
    ("demux_order", 4, _link(demux_order=4)),
    ("quantize_bits", 8, _link(quantize_bits=8)),
    ("rate_gbps", 56.0, replace(_SINGLE, net_rate=56e9)),
    ("target_ber", 1e-3, replace(_SINGLE, gap=GapConfig(target_ber=1e-3))),
    ("margin_db", 1.5, replace(_SINGLE, gap=GapConfig(margin_db=1.5))),
    ("min_bits", 250_000, replace(_SINGLE, min_bits=250_000)),
    ("min_errors", 50, replace(_SINGLE, min_errors=50)),
    ("loopback", True, replace(_SINGLE, loopback=True)),
    ("label", "probe", replace(_SINGLE, label="probe")),
]


class TestConfigMapping:
    """The config schema and the scenario each key builds."""

    def test_defaults_are_the_documented_schema(self):
        assert DEFAULT_CONFIG == DOCUMENTED_DEFAULTS
        assert list(DEFAULT_CONFIG) == list(DOCUMENTED_DEFAULTS)

    def test_defaults_build_the_single_channel_scenario(self):
        sc = build_scenario(dict(DEFAULT_CONFIG))
        assert sc == _SINGLE
        assert scenario_hash(sc) == scenario_hash(_SINGLE)

    def test_every_key_is_covered(self):
        assert {key for key, _, _ in ONE_KEY_SCENARIOS} == set(DEFAULT_CONFIG)

    @pytest.mark.parametrize(
        "key, value, expected", ONE_KEY_SCENARIOS, ids=[f"{k}={v}" for k, v, _ in ONE_KEY_SCENARIOS]
    )
    def test_one_key_builds_its_field(self, tmp_path, key, value, expected):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({key: value}))
        sc = build_scenario(load_config(str(path)))
        assert sc == expected
        assert scenario_hash(sc) == scenario_hash(expected)

    def test_gap_follows_target_ber(self):
        """The SNR gap is derived anew from the configured target BER."""
        sc = build_scenario(dict(DEFAULT_CONFIG, target_ber=1e-3))
        assert sc.gap.gap_linear == GapConfig(target_ber=1e-3).gap_linear
        assert sc.gap.gap_linear > _SINGLE.gap.gap_linear

    def test_readme_lists_every_key(self):
        readme = Path(dmtlink.cli.__file__).resolve().parents[2] / "README.md"
        rows = [line for line in readme.read_text().splitlines() if line.startswith("| `")]
        assert [row.split("`")[1] for row in rows] == list(DEFAULT_CONFIG)


class TestConfigKinds:
    """Values are taken by their key's kind, never coerced."""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("loopback", "false"),
            ("loopback", 1),
            ("n_channels", 4.7),
            ("n_channels", "4"),
            ("n_channels", True),
            ("il_order", 2.5),
            ("demux_order", 2.5),
            ("quantize_bits", 7.5),
            ("min_bits", 1e5 + 0.5),
            ("min_errors", 99.9),
            ("channel_under_test", 1.5),
            ("active_channels", [0, 1.5]),
            ("active_channels", "1"),
            ("osnr_db", float("nan")),
            ("osnr_db", "nan"),
            ("osnr_db", float("-inf")),
            ("osnr_db", True),
            ("reach_km", -5),
            ("reach_km", float("inf")),
            ("detuning_ghz", float("nan")),
            ("detuning_ghz", 10**400),
            ("rate_gbps", "56"),
            ("composite_rate_gsps", float("inf")),
            ("target_ber", None),
            ("label", 5),
        ],
    )
    def test_wrong_kind_is_config_error_naming_the_key(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(ConfigError, match=f"'{key}'"):
            build_scenario(load_config(str(path)))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, key", [("--osnr-db=nan", "osnr_db"), ("--osnr-db=-inf", "osnr_db"),
                      ("--reach-km=-5", "reach_km")]
    )
    def test_wrong_kind_flag_exits_2(self, tmp_path, capsys, flag, key):
        assert main(["run", flag, "--out-dir", str(tmp_path)]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    def test_integral_number_loads_as_int(self):
        sc = build_scenario(dict(DEFAULT_CONFIG, n_channels=6.0, min_bits=2e5))
        assert sc.link.n_channels == 6 and isinstance(sc.link.n_channels, int)
        assert sc.min_bits == 200_000 and isinstance(sc.min_bits, int)

    @pytest.mark.parametrize("osnr", [None, float("inf")])
    def test_null_and_inf_osnr_are_noiseless(self, osnr):
        assert build_scenario(dict(DEFAULT_CONFIG, osnr_db=osnr)) == _SINGLE


class TestOverrides:
    """Flags given on the command line, and flags left out."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The scenario ``run`` would execute, captured before any work."""
        scenarios = []

        def capture(sc, seed, channels=None):
            scenarios.append(sc)
            raise ConfigError("captured")

        monkeypatch.setattr(dmtlink.cli, "run_link", capture)

        def build(tmp_path, argv, **file_keys):
            path = tmp_path / "file.json"
            path.write_text(json.dumps(file_keys))
            assert main(["run", "--config", str(path), *argv]) == 2
            return scenarios.pop()

        return build

    def test_absent_flags_keep_the_file(self, tmp_path, built):
        sc = built(tmp_path, [], loopback=True, osnr_db=30.0, reach_km=40.0)
        assert sc == replace(_link(osnr_db=30.0, span_lengths_km=(40.0,)), loopback=True)

    def test_given_flags_supersede_the_file(self, tmp_path, built):
        argv = ["--osnr-db", "25", "--reach-km", "80", "--detuning-ghz", "14.25"]
        sc = built(tmp_path, argv + ["--rate-gbps", "56", "--loopback"], osnr_db=30.0)
        expected = _link(osnr_db=25.0, span_lengths_km=(80.0,), detuning=14.25e9)
        assert sc == replace(expected, net_rate=56e9, loopback=True)

    def test_channels_flag_lights_the_full_comb(self, tmp_path, built):
        sc = built(tmp_path, ["--channels", "6"], active_channels=[0], channel_under_test=0)
        assert sc == _link(n_channels=6, active_channels=None, channel_under_test=None)
        assert sc.link.lit_channels == tuple(range(6)) and sc.link.cut_index == 3


class TestCsvBytes:
    """The one CSV writer keeps every table's bytes."""

    @staticmethod
    def _reference_bytes(path: Path, header, rows) -> bytes:
        """``csv.writer`` with floats written as ``repr``, as ``persist_run`` once did."""
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
        return path.read_bytes()

    def test_write_csv_matches_csv_writer(self, tmp_path):
        rows = [(1, 0.1, np.float64(1e-300), np.int64(3), "pass"), (2, -0.0, 1e22, 7, "fail")]
        header = ["a", "b", "c", "d", "status"]
        write_csv(tmp_path / "sub" / "t.csv", header, rows)
        got = (tmp_path / "sub" / "t.csv").read_bytes()
        assert got == self._reference_bytes(tmp_path / "ref.csv", header, rows)
        assert got.splitlines()[1] == b"1,0.1,1e-300,3,pass"

    def test_persist_run_tables(self, tmp_path):
        sc = replace(_SINGLE, net_rate=56e9, min_bits=200_000, loopback=True)
        record = run_link(sc, seed=3)
        written = persist_run(record, tmp_path)
        (ch,) = record.reports
        rep, plan = record.reports[ch], record.plans[ch]
        tables = {
            "ber": (
                ["channel", "bit_errors", "bits_total", "ber"],
                [(ch, rep.bit_errors, rep.bits_total, rep.ber)],
            ),
            f"snr_ch{ch}": (
                ["subcarrier", "snr_db"],
                list(enumerate(record.snr[ch].to_db().tolist(), start=1)),
            ),
            f"loading_ch{ch}": (
                ["subcarrier", "bits", "power"],
                [(i, int(b), float(p)) for i, (b, p) in enumerate(zip(plan.bits, plan.powers), 1)],
            ),
        }
        for name, (header, rows) in tables.items():
            expected = self._reference_bytes(tmp_path / "ref.csv", header, rows)
            assert written[name].read_bytes() == expected, name

    def test_sweep_table(self, tmp_path):
        cfg = _write_config(tmp_path, loopback=True)
        argv = ["sweep", "--config", cfg, "--axis", "detuning", "--start", "14", "--stop", "19"]
        assert main(argv + ["--step", "5", "--out-dir", str(tmp_path)]) == 0
        (csv_path,) = tmp_path.glob("sweep_detuning_*.csv")
        assert csv_path.read_bytes() == b"detuning_ghz,ber\n14.0,0.0\n19.0,0.0\n"


class TestRunCommand:
    """The ``run`` subcommand: manifests, summaries, exit codes."""

    def test_loopback_run_exit_zero(self, tmp_path, capsys):
        """A noiseless loopback run reports BER 0 and exits 0."""
        cfg = _write_config(tmp_path, loopback=True)
        code = main(["run", "--config", cfg, "--seed", "3", "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "channel 1: BER 0.000e+00" in out

    def test_loopback_run_imports_no_numpy_ma(self, tmp_path):
        """A run imports only what it uses: ``np.unique`` imports ``numpy.ma``
        (about 10 ms of every run), so the orders a plan uses are found without it."""
        src = str(Path(dmtlink.cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from dmtlink.cli import main\n"
            f"code = main(['run', '--loopback', '--seed', '3', '--out-dir', {str(tmp_path)!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert proc.stdout.split()[-2:] == ["0", "False"], proc.stderr

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
        for key in ("detuning_gzh", "vpi_v"):
            path.write_text(json.dumps({key: 19.0}))
            code = main(["run", "--config", str(path), "--out-dir", str(tmp_path)])
            assert code == 2
            assert key in capsys.readouterr().err

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
        """--svg emits one valid standalone SVG document per sweep or fading profile."""
        import xml.dom.minidom

        cfg = _write_config(tmp_path, loopback=True)
        commands = {
            "sweep_reach": ["sweep", "--axis", "reach", "--start", "0", "--stop", "10",
                            "--step", "10", "--series-detuning-ghz", "0,19"],
            "fading": ["fading", "--reach-km", "80"],
        }
        for stem, command in commands.items():
            out = tmp_path / stem
            assert main(command + ["--config", cfg, "--svg", "--out-dir", str(out)]) == 0
            (svg_path,) = out.glob(f"{stem}_*.svg")
            text = svg_path.read_text()
            xml.dom.minidom.parseString(text)
            assert text.startswith("<svg"), stem
            assert "http" not in text.replace("http://www.w3.org/2000/svg", ""), stem

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

    def test_osnr_sweep_with_no_loading_point_says_so(self, tmp_path, capsys):
        """A sweep where no point carries the rate names the target it missed."""
        cfg = _write_config(tmp_path)
        argv = ["sweep", "--config", cfg, "--axis", "osnr", "--start", "10", "--stop", "12",
                "--step", "2", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "no OSNR in range reaches BER 4.0e-03" in capsys.readouterr().out
        (csv_path,) = tmp_path.glob("sweep_osnr_*.csv")
        assert csv_path.read_text().splitlines()[1:] == ["10.0,1.0", "12.0,1.0"]

    def test_empty_range_exits_2(self, tmp_path, capsys):
        """A stop below the start leaves no point: a config error, nothing written."""
        out = tmp_path / "out"
        argv = ["sweep", "--axis", "osnr", "--start", "40", "--stop", "30", "--step", "2",
                "--out-dir", str(out)]
        assert main(argv) == 2
        assert "empty sweep range" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "start, stop, step",
        [("0", "10", "0"), ("0", "10", "nan"), ("0", "10", "-5"), ("nan", "10", "5"),
         ("0", "inf", "5"), ("0", "10", "inf")],
    )
    def test_bad_range_exits_2(self, tmp_path, capsys, start, stop, step):
        """A step that is not positive and finite, or a non-finite end, is a config error."""
        argv = ["sweep", "--axis", "osnr", "--start", start, "--stop", stop, "--step", step]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "--step" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_range_of_too_many_points_exits_2(self, tmp_path, capsys):
        """A step so fine that the range holds ~4e16 points is a config error
        naming the range flags, refused before any array of points exists."""
        argv = ["sweep", "--axis", "osnr", "--start", "10", "--stop", "50", "--step", "1e-15"]
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert all(flag in err for flag in ("--start", "--stop", "--step"))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("start, stop", [("-50", "-50"), ("-50", "50")])
    def test_negative_reach_exits_2(self, tmp_path, capsys, start, stop):
        """A negative reach is a config error naming the axis, not back to back."""
        config = tmp_path / "loopback.json"
        config.write_text(json.dumps({"loopback": True}))
        out = tmp_path / "out"
        argv = ["sweep", "--axis", "reach", "--start", start, "--stop", stop, "--step", "50",
                "--config", str(config), "--out-dir", str(out)]
        assert main(argv) == 2
        assert "--axis reach" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, flag",
        [
            ("detuning", ["--start", "300", "--stop", "300", "--step", "1"], "--axis detuning"),
            ("reach", ["--start", "0", "--stop", "0", "--step", "10",
                       "--series-detuning-ghz", "nan"], "--series-detuning-ghz"),
            ("reach", ["--start", "0", "--stop", "0", "--step", "10",
                       "--series-detuning-ghz", "1e6"], "--series-detuning-ghz"),
            ("osnr", ["--start", "30", "--stop", "30", "--step", "1",
                      "--series-detuning-ghz", "nan"], "--series-detuning-ghz"),
        ],
    )
    def test_point_outside_the_config_checks_exits_2(self, tmp_path, capsys, axis, values, flag):
        """Each sweep point is checked as a config, and a series flag refused on an
        axis that does not read it, before any frame runs."""
        out = tmp_path / "out"
        argv = ["sweep", "--axis", axis, *values, "--rate-gbps", "56", "--out-dir", str(out)]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("axis", ["osnr", "detuning", "reach"])
    def test_dark_channel_under_test_exits_2(self, tmp_path, capsys, axis):
        """A sweep on a channel under test that is not lit is a config error
        naming both keys, before any frame runs (it ended in a traceback, or
        for reach in a sync error after two frames)."""
        cfg = _write_config(tmp_path, active_channels=[2], rate_gbps=56, **self.OPTICAL)
        out = tmp_path / "out"
        argv = ["sweep", "--config", cfg, "--axis", axis, "--start", "10", "--stop", "10",
                "--step", "1", "--out-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "channel_under_test" in err and "active_channels" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSeedAndWorkerCounts:
    """A negative seed or a pool of fewer than one worker is a config error
    naming its flag, before any output is written."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--loopback", "--seed", "-1"], "--seed"),
            (["sweep", "--axis", "osnr", "--start", "30", "--stop", "30", "--step", "1",
              "--seed", "-2"], "--seed"),
            (["sweep", "--axis", "osnr", "--start", "30", "--stop", "30", "--step", "1",
              "--workers", "-3"], "--workers"),
            (["table", "--scenario", "8x56", "--workers", "0"], "--workers"),
        ],
    )
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main(argv + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and flag in err
        assert not out.exists()


class TestFilterAndReceiverSettings:
    """A filter or receiver setting that cannot run is a config error naming
    its field, before any frame is sent or output written (these ran into a
    traceback mid-run, or, for a negative bandwidth, ran as its magnitude)."""

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("demux_fwhm_ghz", -3, "demux_fwhm=-3e+09"),
            ("il_order", 0, "il_order=0"),
            ("il_fwhm_ghz", 150, "il_fwhm=1.5e+11"),
            ("rx_sample_rate_gsps", 400, "rx_sample_rate must"),
            ("rx_sample_rate_gsps", 0, "rx_sample_rate must"),
            ("rx_bandwidth_ghz", -5, "rx_bandwidth must"),
            ("quantize_bits", 0, "quantize_bits"),
            # the default channel under test, 1, is dark
            ("active_channels", [2], "channel_under_test 1 is not among active_channels [2]"),
        ],
    )
    def test_exits_2_naming_the_field(self, tmp_path, capsys, key, value, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert "Traceback" not in err
        assert not out.exists()


class TestTableCommand:
    """The ``table`` subcommand: filtering, pass/fail, exit codes."""

    def test_scenario_filter_and_failing_point(self, tmp_path, capsys):
        """An unloadable operating point rows up as BER 1 / fail, exit 1."""
        code = main(
            [
                "table",
                "--scenario",
                "4x112",
                "--osnr-db",
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

"""Tests for the command-line front end."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinport import cli
from spinport.reaction import ExperimentConfig
from spinport.spinalg import BlochVector


def run(capsys, *argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def body_of(text: str) -> str:
    """Output with the manifest stripped."""
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))


def manifest_of(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            break
        key, value = line[2:].split(" = ", 1)
        pairs[key] = value
    return pairs


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = body_of(text).splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBeamParsing:
    def test_axis_names(self):
        assert np.allclose(cli.parse_beam_spec("x"), [1, 0, 0])
        assert np.allclose(cli.parse_beam_spec("-y"), [0, -1, 0])
        assert np.allclose(cli.parse_beam_spec("+z"), [0, 0, 1])

    def test_angles_in_degrees(self):
        direction = cli.parse_beam_spec("60,0")
        assert np.allclose(direction, [np.sin(np.radians(60)), 0, np.cos(np.radians(60))], atol=1e-12)

    def test_malformed(self):
        with pytest.raises(ValueError):
            cli.parse_beam_spec("q")
        with pytest.raises(ValueError):
            cli.parse_beam_spec("10,20,30")

    def test_labels_round_trip(self):
        for name in ("x", "-x", "y", "-y", "z", "-z"):
            assert cli.beam_label(cli.parse_beam_spec(name)) == name


class TestTeleportCommand:
    def test_sigma_z_restores_an_x_beam(self, capsys):
        code, out = run(capsys, "teleport", "--beam", "x", "--correction", "sigma_z")
        assert code == 0
        row = csv_rows(out)[0]
        assert row["outcome"] == "psi_minus"
        assert float(row["probability"]) == pytest.approx(0.25, abs=1e-12)
        assert float(row["fidelity_post"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["pre_px"]) == pytest.approx(-1.0, abs=1e-12)

    def test_z_beam_needs_no_correction(self, capsys):
        code, out = run(capsys, "teleport", "--beam", "z", "--correction", "none")
        assert code == 0
        assert float(csv_rows(out)[0]["fidelity_pre"]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_beam_exits_1(self, capsys):
        assert cli.main(["teleport", "--beam", "q"]) == 1

    def test_manifest_header(self, capsys):
        _, out = run(capsys, "teleport", "--beam", "y")
        manifest = manifest_of(out)
        assert manifest["subcommand"] == "teleport"
        assert manifest["beam"] == "y"
        assert manifest["correction"] == "sigma_z"


class TestPredictCommand:
    def test_reference_numbers(self, capsys):
        code, out = run(capsys, "predict", "--beam", "y", "--epsilon", "0.04", "--kyy", "-0.1")
        assert code == 0
        rows = {row["model"]: row for row in csv_rows(out)}
        assert rows["qt"]["neutron_py"] == "-0.964"
        assert rows["conventional"]["neutron_py"] == "-0.1"
        assert float(rows["qt"]["enhancement"]) == pytest.approx(9.64, abs=1e-10)
        assert rows["qt"]["beam_axis"] == "y"

    def test_bad_config_value_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("epsilon = 1.5\n")
        assert cli.main(["predict", "--config", str(path)]) == 1

    def test_unknown_config_key_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma = 1\n")
        assert cli.main(["predict", "--config", str(path)]) == 1

    def test_missing_config_file_exits_1(self, capsys, tmp_path):
        assert cli.main(["predict", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epsilon = 0.2\nbeam_direction = x\n")
        _, out = run(capsys, "predict", "--config", str(path), "--epsilon", "0.1")
        manifest = manifest_of(out)
        assert manifest["epsilon"] == "0.1"
        assert manifest["beam_direction"] == "1.0,0.0,0.0"

    def test_invariant_violation_exits_2(self, capsys, monkeypatch):
        # A prediction whose Bloch vector leaves the unit ball fails BlochVector's own check.
        monkeypatch.setattr(cli.reaction, "predict", lambda config: BlochVector(2.0, 0.0, 0.0))
        assert cli.main(["predict", "--beam", "x"]) == 2
        assert "has norm > 1" in capsys.readouterr().err

    def test_jsonl_format(self, capsys):
        code, out = run(capsys, "predict", "--beam", "y", "--format", "jsonl")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["type"] == "manifest"
        assert lines[0]["subcommand"] == "predict"
        assert lines[1]["type"] == "prediction"
        assert lines[1]["model"] == "qt"
        assert lines[1]["neutron_py"] == -0.964


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv, key",
        [
            (["predict", "--beam", "nan,0"], "beam_direction"),
            (["predict", "--beam", "0,inf"], "beam_direction"),
            (["predict", "--magnitude", "nan"], "beam_magnitude"),
            (["predict", "--epsilon", "inf"], "epsilon"),
            (["simulate", "--kyy", "nan", "--seed", "1"], "k_transfer"),
            (["simulate", "--seed", "-1", "--events", "10"], "seed"),
            (["simulate", "--seed", str(2**128), "--events", "10"], "seed"),
        ],
    )
    def test_exit_1_naming_the_key(self, capsys, argv, key):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert key in captured.err

    def test_non_finite_config_file_value_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("beam_energy_mev = nan\n")
        assert cli.main(["predict", "--config", str(path)]) == 1
        assert "beam_energy_mev" in capsys.readouterr().err


class TestSimulateCommand:
    def test_missing_seed_exits_1(self, capsys):
        assert cli.main(["simulate", "--events", "100"]) == 1

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "4fb9680a6aa00d6ca39c807b5e52e362ceb1d53ea034f7495f3d0aca0b23b626"),
            ("jsonl", "cfd96d615bfda4266fb327a3b790851d95b5c1b8c19302450e72cfdfc92ca724"),
        ],
    )
    def test_golden_digest(self, tmp_path, fmt, digest):
        # Pins the seeded byte contract: any change to sampling, ordering or
        # formatting of `spinport simulate --seed 7 --events 20000` shows here.
        out = tmp_path / "run"
        assert cli.main(["simulate", "--seed", "7", "--events", "20000", "--format", fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--events", "2000", "--seed", "7", "--beam", "y"]
        assert cli.main(args + ["--out", str(out_a)]) == 0
        assert cli.main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_estimate_row_shape(self, capsys):
        code, out = run(capsys, "simulate", "--events", "300", "--seed", "1", "--axes", "x,y")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 2
        assert rows[0]["axis_x"] == "1"
        assert int(rows[0]["n_events"]) + int(rows[1]["n_events"]) > 0

    def test_manifest_reruns_to_the_same_bytes(self, capsys, tmp_path):
        _, out = run(capsys, "simulate", "--events", "500", "--seed", "21", "--beam=-x",
                     "--epsilon", "0.1", "--axes", "x,z")
        manifest = manifest_of(out)
        config_text = "\n".join(
            f"{key} = {value}" for key, value in manifest.items() if key not in ("subcommand", "version")
        )
        path = tmp_path / "replay.cfg"
        path.write_text(config_text + "\n")
        _, replay = run(capsys, "simulate", "--config", str(path))
        assert body_of(replay) == body_of(out)
        assert replay == out

    def test_jsonl_includes_events(self, capsys):
        code, out = run(capsys, "simulate", "--events", "50", "--seed", "2", "--format", "jsonl")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[0]["type"] == "manifest"
        estimates = [line for line in lines if line["type"] == "estimate"]
        events = [line for line in lines if line["type"] == "event"]
        assert len(estimates) == 3
        assert len(events) == 50
        assert all(event["spin_outcome"] in (-1, 1) for event in events)


@pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB, as Linux reports it")
class TestSimulateMemory:
    # The command streams: peak RSS follows the chunk size, not --events.
    # Holding one object or one output line per event would add ~150 to
    # ~700 bytes per event, i.e. 30 to 140 MB between the two sizes below.
    @staticmethod
    def peak_rss_mb(events: int, fmt: str) -> float:
        src = Path(cli.__file__).resolve().parents[1]
        argv = [sys.executable, "-m", "spinport.cli", "simulate", "--seed", "7", "--events", str(events),
                "--format", fmt, "--out", os.devnull]
        proc = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": str(src)})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        assert proc.returncode == 0
        return usage.ru_maxrss / 1024

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_peak_rss_does_not_grow_with_events(self, fmt):
        small, large = self.peak_rss_mb(100_000, fmt), self.peak_rss_mb(300_000, fmt)
        assert large - small < 20.0, f"peak RSS {small:.1f} MB -> {large:.1f} MB"


class TestScanCommand:
    def test_policy_scan_table(self, capsys):
        code, out = run(capsys, "scan")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 18
        by_key = {(row["beam_axis"], row["policy"]): row for row in rows}
        assert float(by_key[("x", "ry_pi")]["fidelity_post"]) == pytest.approx(1.0, abs=1e-12)
        assert float(by_key[("y", "ry_pi")]["fidelity_post"]) == pytest.approx(0.0, abs=1e-12)
        assert float(by_key[("z", "sigma_z")]["fidelity_post"]) == pytest.approx(1.0, abs=1e-12)
        assert all(float(row["probability"]) == pytest.approx(0.25, abs=1e-12) for row in rows)

    def test_manifest_holds_no_config(self, capsys):
        _, out = run(capsys, "scan")
        assert manifest_of(out) == {"subcommand": "scan", "version": cli.__version__}

    @pytest.mark.parametrize("flag", ["--config", "--beam", "--magnitude", "--epsilon", "--kyy", "--target"])
    def test_config_flags_are_usage_errors(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["scan", flag, "0.3"])
        assert excinfo.value.code == 1


class TestConfigRoundTrip:
    def test_resolved_config_survives_serialization(self):
        original = ExperimentConfig(
            beam_direction=(0.6, 0.0, 0.8),
            beam_magnitude=0.75,
            epsilon=0.05,
            k_transfer=-0.12,
            events=4321,
            seed=99,
            analyzer_axes=((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        )
        text = "\n".join(f"{key} = {value}" for key, value in cli.config_items(original))
        restored = cli.resolve_config(cli.parse_config_text(text), {})
        assert np.array_equal(restored.beam_direction, original.beam_direction)
        assert restored.beam_magnitude == original.beam_magnitude
        assert restored.epsilon == original.epsilon
        assert restored.k_transfer == original.k_transfer
        assert restored.target == original.target
        assert restored.events == original.events
        assert restored.seed == original.seed
        assert restored.beam_energy_mev == original.beam_energy_mev
        assert all(np.array_equal(a, b) for a, b in zip(restored.analyzer_axes, original.analyzer_axes))

    def test_comments_and_blank_lines_are_ignored(self):
        text = "# a comment\n\nepsilon = 0.25  # trailing comment\n"
        values = cli.parse_config_text(text)
        assert values == {"epsilon": "0.25"}


class TestUsageErrors:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["predict", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_required_beam_exits_1(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["teleport"])
        assert excinfo.value.code == 1
